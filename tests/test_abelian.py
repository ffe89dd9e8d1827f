from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import gcd, prod

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from towertop.abelian import (
    FGAbelianGroup,
    GroupHom,
    IntegerMatrix,
    SmithDecomposition,
    HermiteForm,
    ResidueBasis,
    Subgroup,
    hermite_normal_form,
    residue_basis,
    smith_normal_form,
)

from towertop.simplicial import boundary_matrix

from generators import grid_torus, random_complex
from oracles import (
    apply_canonical,
    bareiss_det,
    both_forms_equal,
    bareiss_rank,
    canonical_is_zero,
    columnwise_canonical_matrix,
    columnwise_from_canonical,
    contains,
    dense_decomposition_holds,
    dense_kept_decomposition_holds,
    dense_matvec,
    dense_product,
    dense_smith_normal_form,
    determinantal_invariant_factors,
    equal_hom,
    from_canonical,
    from_canonical_matrix,
    full_decomposition_coordinates,
    image_under,
    mod_p_rank,
    relationwise_well_defined,
    smith_as_group_invariants,
    smith_contains,
    smith_is_full,
    smith_is_subset,
    smith_kernel_basis,
    smith_kernel_subgroup,
    smith_solve,
    stacked_kernel_subgroup,
    to_canonical,
)

# mostly zeros and units, like boundary matrices and near-identity transforms
ENTRIES = st.one_of(st.just(0), st.sampled_from((1, -1)), st.integers(-9, 9))
DIMS = st.integers(0, 6)
# nearly all zeros, like boundary matrices; and no zeros, with entries of
# the size the transforms of dense torsion towers grow to
SPARSE = st.sampled_from((0, 0, 0, 0, 0, 1, -1))
DENSE = st.integers(-(2**80), 2**80).filter(bool)


@st.composite
def matrices(draw, nrows=DIMS, ncols=DIMS, entries=ENTRIES):
    m, n = draw(nrows), draw(ncols)
    row = st.lists(entries, min_size=n, max_size=n)
    return IntegerMatrix(draw(st.lists(row, min_size=m, max_size=m)), ncols=n)


@st.composite
def products(draw):
    m, k, n = draw(DIMS), draw(DIMS), draw(DIMS)
    entries = draw(st.sampled_from((ENTRIES, SPARSE, DENSE)))
    return (
        draw(matrices(st.just(m), st.just(k), entries)),
        draw(matrices(st.just(k), st.just(n), entries)),
    )


def random_matrix(rng, max_dim=6, bound=9):
    m = rng.randint(0, max_dim)
    n = rng.randint(0, max_dim)
    return IntegerMatrix(
        [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)], ncols=n
    )


def test_smith_hand_case_gcd_structure():
    # entries have gcd 2; the single 2x2 minor is -8, so factors are (2, 4)
    s = smith_normal_form(IntegerMatrix([[2, 4], [6, 8]]))
    assert s.invariant_factors == (2, 4)
    assert determinantal_invariant_factors([[2, 4], [6, 8]]) == [2, 4]


def test_smith_zero_and_identity():
    assert smith_normal_form(IntegerMatrix([[0, 0]] * 3)).rank == 0
    assert smith_normal_form(IntegerMatrix.identity(4)).diagonal() == [1] * 4
    assert smith_normal_form(IntegerMatrix.identity(4)).invariant_factors == (1, 1, 1, 1)


def test_smith_empty_shapes():
    s = smith_normal_form(IntegerMatrix([], ncols=3))
    assert s.rank == 0 and s.d.ncols == 3
    s = smith_normal_form(IntegerMatrix([[], [], []], ncols=0))
    assert s.rank == 0 and s.d.nrows == 3


def test_smith_properties_random():
    rng = random.Random(20240817)
    for _ in range(200):
        m = random_matrix(rng)
        s = smith_normal_form(m)
        # the identities are re-verified inside the constructor; cross-check
        # rank and unimodularity with independent oracles
        assert s.rank == bareiss_rank(m.rows)
        assert abs(bareiss_det(s.u.rows)) == 1
        assert abs(bareiss_det(s.v.rows)) == 1


def pinned_smith_inputs():
    """300 seeded matrices: dense, sparse with unit entries, and empty shapes."""
    rng = random.Random(20261018)
    out = []
    for k in range(300):
        kind = k % 3
        if kind == 0:
            m, n = rng.randint(1, 6), rng.randint(1, 6)
            rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        elif kind == 1:
            m, n = rng.randint(1, 9), rng.randint(1, 9)
            rows = [[rng.choice((0, 0, 0, 1, -1)) for _ in range(n)] for _ in range(m)]
        else:
            m, n = rng.choice(((rng.randint(0, 4), 0), (0, rng.randint(0, 4))))
            rows = [[] for _ in range(m)]
        out.append(IntegerMatrix(rows, ncols=n))
    return out


# sha256 of the reprs of a whole decomposition of each of
# ``pinned_smith_inputs``, with V^-1 taken from the dense elimination,
# which performs the same operations: the elimination's pivots,
# operations and their order, and so every transform it returns, stay
# exactly as they were when one decomposition tracked all four transforms
PINNED_SMITH_DIGEST = "8efd85c31964a1da15c6c44908307d75cca8d71efd13662002fe574b4d76fcf3"


def whole_decomposition_repr(m) -> str:
    """The repr a decomposition keeping V^-1 as well would have."""
    s = smith_normal_form(m)
    vinv = IntegerMatrix(dense_smith_normal_form(m.rows, m.ncols)[4], ncols=m.ncols)
    return (
        f"SmithDecomposition(matrix={m!r}, u={s.u!r}, uinv={s.uinv!r},"
        f" d={s.d!r}, v={s.v!r}, vinv={vinv!r})"
    )


def test_smith_decompositions_are_pinned():
    digest = hashlib.sha256()
    for m in pinned_smith_inputs():
        digest.update(whole_decomposition_repr(m).encode())
    assert digest.hexdigest() == PINNED_SMITH_DIGEST


def test_smith_matches_determinantal_divisors_small():
    rng = random.Random(99)
    for _ in range(60):
        rows = [[rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]]
        width = len(rows[0])
        for _ in range(rng.randint(0, 3)):
            rows.append([rng.randint(-6, 6) for _ in range(width)])
        s = smith_normal_form(IntegerMatrix(rows))
        assert list(s.invariant_factors) == determinantal_invariant_factors(rows)


@given(products())
@example((IntegerMatrix([], ncols=3), IntegerMatrix([[1, -2]] * 3)))
@example((IntegerMatrix([[], []], ncols=0), IntegerMatrix([], ncols=4)))
@example((IntegerMatrix([[1, 2]] * 3), IntegerMatrix([[], []], ncols=0)))
def test_product_matches_dense_reference(pair):
    a, b = pair
    got = a * b
    assert (got.nrows, got.ncols) == (a.nrows, b.ncols)
    assert [list(r) for r in got.rows] == dense_product(a.rows, b.rows, b.ncols)


@given(matrices(st.integers(0, 4), st.integers(0, 4)))
def test_smith_invariant_factors_match_determinantal_divisors(m):
    got = smith_normal_form(m).invariant_factors
    assert list(got) == determinantal_invariant_factors(m.rows)


def test_every_smith_call_keeps_uinv(monkeypatch):
    import towertop.abelian as abelian
    import towertop.simplicial as simplicial
    from towertop.simplicial import SimplicialComplex, homology

    built, shapes = [], []
    real_identity, real_smith = abelian._identity_lists, abelian.smith_normal_form

    def identity(n):
        built.append(n)
        return real_identity(n)

    def smith(matrix):
        s = real_smith(matrix)
        assert s.uinv is not None and not hasattr(s, "vinv")
        shapes.append((s.matrix.nrows, s.matrix.ncols))
        return s

    monkeypatch.setattr(abelian, "_identity_lists", identity)
    for module in (abelian, simplicial):
        monkeypatch.setattr(module, "smith_normal_form", smith)
    # three generators, two relations: M = R^T is 3 x 2, so U and U^-1 are 3 x 3 and V is 2 x 2
    FGAbelianGroup(3, IntegerMatrix([[2, 0, 0], [0, 4, 2]]))
    assert shapes == [(3, 2)] and sorted(built) == [2, 3, 3]
    del built[:], shapes[:]
    # H_1 of two hollow triangles on a shared edge: the reduction leaves one
    # vertex and two edges, so the 2 x 1 transposed residual boundary map
    # keeps U and U^-1 of size 2 and V of size 1, and the 2 x 0 transposed
    # relations of its two cycles U and U^-1 of size 2
    k = SimplicialComplex.from_maximal([(1, 2), (2, 3), (1, 3), (2, 4), (3, 4)])
    homology(k, 1)
    assert shapes == [(2, 1), (2, 0)]
    assert sorted(built[:3]) == [1, 2, 2] and sorted(built[3:]) == [0, 2, 2]


# -- the sparse elimination and its row-by-row checks against dense references --

FACTORS = ("u", "uinv", "d", "v")
FIELDS = ("matrix",) + FACTORS


def read_entries(s) -> list:
    """The (field, row, column) entries of ``s`` that a group or homology reads.

    Both read D's diagonal.  A group reads U's rows and U^-1's columns
    from the first non-unit diagonal position on; homology reads U's
    rows from the rank on (the cycles) and all of U^-1 (the class
    coordinates).
    """
    m = s.matrix.nrows
    first = s.diagonal().count(1)
    return (
        [("d", i, i) for i in range(min(m, s.matrix.ncols))]
        + [("u", i, j) for i in range(first, m) for j in range(m)]
        + [("uinv", i, j) for i in range(m) for j in range(m)]
    )


@given(matrices(st.integers(1, 5), st.integers(1, 5)), st.data())
def test_tampered_decomposition_is_rejected(m, data):
    # one wrong entry that a group or homology reads must break one of the identities
    s = smith_normal_form(m)
    field, i, j = data.draw(st.sampled_from(read_entries(s)))
    delta = data.draw(st.integers(-3, 3).filter(bool))
    with pytest.raises(AssertionError):
        SmithDecomposition(**tampered(s, field, i, j, delta))


def assert_matches_the_dense_elimination(m):
    """The kept factors are the dense elimination's, and with its V^-1 they form a whole decomposition."""
    h, w = m.nrows, m.ncols
    shapes = ((h, h), (h, h), (h, w), (w, w))
    u, uinv, d, v, vinv = dense_smith_normal_form(m.rows, w)
    s = smith_normal_form(m)
    for name, shape, reference in zip(FACTORS, shapes, (u, uinv, d, v)):
        factor = getattr(s, name)
        assert (factor.nrows, factor.ncols, [list(r) for r in factor.rows]) == shape + (reference,)
    assert dense_decomposition_holds(m.rows, s.u.rows, s.uinv.rows, s.d.rows, s.v.rows, vinv, w)


def complex_matrices(k):
    """Every boundary matrix of ``k`` and its transpose, the coboundary that cohomology factors."""
    for n in range(k.dimension() + 2):
        d = boundary_matrix(k, n)
        yield d
        yield d.transpose()


@given(
    st.one_of(
        matrices(),
        matrices(st.integers(0, 12), st.integers(0, 12), SPARSE),
        matrices(entries=st.integers(-9, 9)),
    )
)
@example(IntegerMatrix([], ncols=0))
@example(IntegerMatrix([], ncols=4))
@example(IntegerMatrix([[], [], []], ncols=0))
def test_smith_matches_the_dense_elimination(m):
    assert_matches_the_dense_elimination(m)


def test_kept_factors_match_the_dense_elimination_on_the_pinned_inputs():
    for m in pinned_smith_inputs():
        assert_matches_the_dense_elimination(m)


@given(st.randoms(use_true_random=False))
def test_smith_matches_the_dense_elimination_on_complexes(rng):
    for m in complex_matrices(random_complex(rng, max_vertices=9, max_cells=12, max_card=5)):
        assert_matches_the_dense_elimination(m)


def test_smith_matches_the_dense_elimination_on_a_grid_torus():
    t = grid_torus(6)
    d1, d2 = boundary_matrix(t, 1), boundary_matrix(t, 2)
    for m in (d1, d2, d2.transpose()):
        assert_matches_the_dense_elimination(m)


@given(st.randoms(use_true_random=False), st.data())
def test_tampered_sparse_decomposition_is_rejected_exactly_when_the_dense_check_fails(rng, data):
    k = random_complex(rng, max_vertices=7, max_cells=8)
    m = boundary_matrix(k, data.draw(st.integers(1, max(1, k.dimension()))))
    if data.draw(st.booleans()):
        m = m.transpose()
    s = smith_normal_form(m)
    nonempty = [name for name in FIELDS if getattr(s, name).nrows and getattr(s, name).ncols]
    field = data.draw(st.sampled_from(nonempty))
    target = getattr(s, field)
    # one entry, zero or not (D's off-diagonal zeros among them): a zero
    # made nonzero is what a reader of nonzero entries alone could miss
    zero = data.draw(st.booleans())
    cells = [(i, j) for i in range(target.nrows) for j in range(target.ncols)]
    pool = [(i, j) for i, j in cells if (target.rows[i][j] == 0) == zero] or cells
    i, j = data.draw(st.sampled_from(pool))
    factors = tampered(s, field, i, j, data.draw(st.integers(-3, 3)))  # 0 leaves it whole
    if dense_kept_decomposition_holds(*(factors[f].rows for f in FIELDS), m.ncols):
        SmithDecomposition(**factors)
    else:
        with pytest.raises(AssertionError):
            SmithDecomposition(**factors)


@pytest.mark.parametrize("transpose", [False, True])
def test_every_one_entry_tamper_of_a_boundary_decomposition_is_rejected(transpose):
    # 9 x 27 and 27 x 9 (the shape homology factors): every entry that a
    # group or homology reads, moved by one, must break one of the identities
    m = boundary_matrix(grid_torus(3), 1)
    m = m.transpose() if transpose else m
    s = smith_normal_form(m)
    entries = read_entries(s)
    assert {("u", i, j) for i in range(s.rank, m.nrows) for j in range(m.nrows)} <= set(entries)
    for field, i, j in entries:
        with pytest.raises(AssertionError):
            SmithDecomposition(**tampered(s, field, i, j))


def test_solve_and_kernel():
    m = IntegerMatrix([[2, 0], [0, 3]])
    assert smith_solve(smith_normal_form(m), (4, 9)) == (2, 3)
    assert smith_solve(smith_normal_form(m), (1, 0)) is None
    k = smith_kernel_basis(IntegerMatrix([[1, 1, 1]]))
    assert len(k) == 2
    for col in k:
        assert sum(col) == 0


def test_solve_random_consistency():
    rng = random.Random(7)
    for _ in range(150):
        m = random_matrix(rng, max_dim=5, bound=5)
        if m.ncols == 0:
            continue
        x = tuple(rng.randint(-4, 4) for _ in range(m.ncols))
        b = dense_matvec(m.rows, x)
        got = smith_solve(smith_normal_form(m), b)
        assert got is not None
        assert dense_matvec(m.rows, got) == b


def test_kernel_random_spans_kernel():
    rng = random.Random(8)
    for _ in range(100):
        m = random_matrix(rng, max_dim=5, bound=5)
        cols = smith_kernel_basis(m)
        for c in cols:
            assert not any(dense_matvec(m.rows, c))
        assert len(cols) == m.ncols - bareiss_rank(m.rows)


def test_contains_agrees_with_solve():
    rng = random.Random(31)
    for _ in range(150):
        if rng.random() < 0.5:
            g = random_canonical_group(rng)
        else:
            k = rng.randint(0, 4)
            rows = [[rng.randint(-6, 6) for _ in range(k)] for _ in range(rng.randint(0, 3))]
            g = FGAbelianGroup(k, IntegerMatrix(rows, ncols=k))
        n = g.canonical_ngens
        gens = [tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(rng.randint(0, 3))]
        sub = Subgroup(g, gens)
        for _ in range(5):
            y = g.reduce_canonical(tuple(rng.randint(-6, 6) for _ in range(n)))
            assert contains(sub, y) == smith_contains(sub, y)


def test_canonicalize_presentation():
    g = FGAbelianGroup(2, IntegerMatrix([[2, 4], [6, 8]]))
    assert g.invariants == (0, (2, 4))
    assert g.describe() == "Z/2 + Z/4"
    assert FGAbelianGroup(1, IntegerMatrix([], ncols=1)).describe() == "Z"
    assert FGAbelianGroup(0, IntegerMatrix([], ncols=0)).describe() == "0"
    # unit invariant factors vanish from the canonical form
    g = FGAbelianGroup(2, IntegerMatrix([[1, 0]]))
    assert g.invariants == (1, ())


def test_from_invariants_checks_chain():
    g = FGAbelianGroup.from_invariants(1, (2, 4))
    assert g.describe() == "Z + Z/2 + Z/4"
    with pytest.raises(ValueError):
        FGAbelianGroup.from_invariants(0, (4, 2))
    with pytest.raises(ValueError):
        FGAbelianGroup.from_invariants(0, (1,))


@pytest.mark.parametrize("torsion", [(), (2,), (2, 4)])
def test_from_invariants_rejects_a_negative_free_rank(torsion):
    # (2,) once raised IndexError and (2, 4) was read as Z/2
    with pytest.raises(ValueError, match="^free rank must be nonnegative$"):
        FGAbelianGroup.from_invariants(-1, torsion)


@pytest.mark.parametrize(
    "build",
    [
        lambda: IntegerMatrix([], ncols=-3),
        lambda: IntegerMatrix.identity(-2),
    ],
    ids=["no rows", "identity"],
)
def test_negative_matrix_sizes_are_rejected(build):
    with pytest.raises(ValueError, match="nonnegative"):
        build()


# exact arithmetic takes ints only: a bool, a float, a fraction or a
# string was once truncated or parsed into a different matrix or group
NOT_INTS = [2.7, True, Fraction(7, 2), "12"]


@pytest.mark.parametrize("x", NOT_INTS, ids=repr)
def test_integer_matrix_rejects_a_non_int_entry_or_width(x):
    with pytest.raises(ValueError, match="^matrix entry must be an int"):
        IntegerMatrix([[1, x]])
    with pytest.raises(ValueError, match="^ncols must be an int"):
        IntegerMatrix([], ncols=x)


@pytest.mark.parametrize("x", [2.9, True, Fraction(5, 2), "2"], ids=repr)
def test_from_invariants_rejects_a_non_int_invariant(x):
    with pytest.raises(ValueError, match="^torsion invariant must be an int"):
        FGAbelianGroup.from_invariants(0, [x])
    with pytest.raises(ValueError, match="^free rank must be an int"):
        FGAbelianGroup.from_invariants(x, [2])


@pytest.mark.parametrize("x", [2.0, True, Fraction(2), "2"], ids=repr)
def test_group_rejects_a_non_int_generator_count(x):
    with pytest.raises(ValueError, match="^generator count must be an int"):
        FGAbelianGroup(x)


def test_canonical_roundtrip_random():
    rng = random.Random(31)
    for _ in range(80):
        n = rng.randint(0, 4)
        nrel = rng.randint(0, 4)
        g = FGAbelianGroup(
            n, IntegerMatrix([[rng.randint(-5, 5) for _ in range(n)] for _ in range(nrel)], ncols=n)
        )
        for _ in range(5):
            x = tuple(rng.randint(-6, 6) for _ in range(n))
            y = to_canonical(g, x)
            # the lift represents the same element
            assert to_canonical(g, from_canonical(g, y)) == y
            # torsion entries are normalized
            assert y == g.reduce_canonical(y)


def test_hom_well_definedness_enforced():
    z = FGAbelianGroup.free(1)
    z2 = FGAbelianGroup.from_invariants(0, (2,))
    GroupHom(z, z2, IntegerMatrix([[1]]))  # quotient map is fine
    with pytest.raises(ValueError):
        GroupHom(z2, z, IntegerMatrix([[1]]))  # 2x = 0 must map to 0
    GroupHom(z2, z, IntegerMatrix([[0]]))  # zero map is the only choice


def test_canonical_matrix_shares_the_well_definedness_checks_first_product(monkeypatch):
    products = []
    real = IntegerMatrix.__mul__

    def counting(self, other):
        products.append((self, other))
        return real(self, other)

    monkeypatch.setattr(IntegerMatrix, "__mul__", counting)
    z4 = FGAbelianGroup(2, IntegerMatrix([[4, 0], [1, -1]]))
    z2 = FGAbelianGroup.from_invariants(0, (2,))
    f = GroupHom(z4, z2, IntegerMatrix([[1, 1]]))
    # target._to * matrix, then that times the relations and times the lifts
    assert len(products) == 3
    pushed = products[1][0]
    assert products[2] == (pushed, z4.lifts) and products[2][0] is pushed
    del products[:]
    assert f.canonical_matrix().rows == ((1,),)
    assert products == []


def test_hom_composition_on_torsion():
    z6 = FGAbelianGroup.from_invariants(0, (6,))
    three = GroupHom(z6, z6, IntegerMatrix([[3]]))
    two = GroupHom(z6, z6, IntegerMatrix([[2]]))
    composite = two.compose(three)  # x -> 6x = 0
    assert equal_hom(composite, GroupHom(z6, z6, IntegerMatrix([[0]])))


def test_hom_canonical_matrix_quotient():
    # Z^2 modulo (2, 4): canonical form Z/2 + Z/4 wait: relations rows (2,4) only
    g = FGAbelianGroup(2, IntegerMatrix([[2, 4]]))
    assert g.invariants == (1, (2,))
    h = GroupHom.identity(g)
    assert h.canonical_matrix() == IntegerMatrix.identity(2)


def test_kernel_image_subgroups():
    z = FGAbelianGroup.free(1)
    two = GroupHom(z, z, IntegerMatrix([[2]]))
    assert two.is_injective()
    assert not two.is_surjective()
    img = two.image_subgroup()
    assert contains(img, (4,))
    assert not contains(img, (3,))
    assert img.as_group().invariants == (1, ())

    z2 = FGAbelianGroup.free(2)
    proj = GroupHom(z2, z, IntegerMatrix([[1, 0]]))
    assert proj.is_surjective() and not proj.is_injective()
    # no kernel is kept; the Smith oracle's kernel has the expected type
    ker = smith_kernel_subgroup(proj)
    assert contains(ker, (0, 5))
    assert not contains(ker, (1, 0))
    assert ker.as_group().invariants == (1, ())


def test_injectivity_and_surjectivity_read_one_hermite_form(smith_calls, echelon_forms):
    src = FGAbelianGroup.free(3)
    tgt = FGAbelianGroup.from_invariants(1, (6,))
    f = GroupHom(src, tgt, IntegerMatrix([[1, 2, 3], [2, 4, 0]]))
    del smith_calls[:], echelon_forms[:]
    img = f.image_subgroup()
    assert f.image_subgroup() is img
    # both tests read the image's one Hermite form, and no kernel is built
    for _ in range(3):
        assert not f.is_injective() and not f.is_surjective() and not f.is_isomorphism()
    assert (len(smith_calls), len(echelon_forms)) == (0, 1)


def test_injectivity_after_surjectivity_factors_nothing(smith_calls, echelon_forms):
    src = FGAbelianGroup.free(3)
    tgt = FGAbelianGroup.from_invariants(1, (6,))
    f = GroupHom(src, tgt, IntegerMatrix([[1, 2, 3], [2, 4, 0]]))
    assert not f.image_subgroup().is_full()
    assert len(echelon_forms) == 1
    del smith_calls[:], echelon_forms[:]
    assert not f.is_injective()
    assert smith_calls == [] and echelon_forms == []


def test_subgroup_equality_by_mutual_membership():
    z2 = FGAbelianGroup.free(2)
    a = Subgroup(z2, [(2, 0), (0, 2)])
    b = Subgroup(z2, [(2, 2), (0, 2)])
    assert a.equals(b)
    c = Subgroup(z2, [(2, 0)])
    assert c.is_subset_of(a)
    assert not a.is_subset_of(c)


def test_subgroup_of_torsion_group():
    z8 = FGAbelianGroup.from_invariants(0, (8,))
    s = Subgroup(z8, [(2,)])
    assert s.as_group().invariants == (0, (4,))
    assert contains(s, (6,))
    assert not contains(s, (1,))
    assert Subgroup.full(z8).is_full()
    assert Subgroup(z8, []).is_trivial()


def test_subgroup_as_group_mixed():
    g = FGAbelianGroup.from_invariants(1, (4,))
    # generated by (2, 0) and (0, 2): Z (index 2 in free part) + Z/2
    s = Subgroup(g, [(2, 0), (0, 2)])
    assert s.as_group().invariants == (1, (2,))


def random_canonical_group(rng):
    free = rng.randint(0, 2)
    torsion = []
    t = 1
    for _ in range(rng.randint(0, 2)):
        t *= rng.choice([2, 2, 3])
        torsion.append(t)
    return FGAbelianGroup.from_invariants(free, torsion)


def random_hom(rng, source, target):
    """Random well-defined map built column by column in canonical coordinates."""
    from math import gcd

    cols = []
    orders = [0] * source.free_rank + list(source.torsion)
    for order in orders:
        col = []
        for _ in range(target.free_rank):
            col.append(rng.randint(-3, 3) if order == 0 else 0)
        for s in target.torsion:
            if order == 0:
                col.append(rng.randint(-3, 3))
            else:
                step = s // gcd(s, order)
                col.append(step * rng.randint(0, s // step - 1) if step < s else 0)
        cols.append(col)
    canonical = IntegerMatrix(cols, ncols=target.canonical_ngens).transpose()
    return from_canonical_matrix(source, target, canonical)


def test_random_homs_compose_associatively():
    rng = random.Random(424242)
    for _ in range(40):
        a, b, c, d = (random_canonical_group(rng) for _ in range(4))
        f = random_hom(rng, a, b)
        g = random_hom(rng, b, c)
        h = random_hom(rng, c, d)
        left = h.compose(g.compose(f))
        right = h.compose(g).compose(f)
        assert equal_hom(left, right)
        ident = GroupHom.identity(b)
        assert equal_hom(ident.compose(f), f)


def test_random_hom_kernel_image_consistency():
    rng = random.Random(515151)
    for _ in range(60):
        a = random_canonical_group(rng)
        b = random_canonical_group(rng)
        f = random_hom(rng, a, b)
        ker = smith_kernel_subgroup(f)
        for gen in ker.generators:
            assert canonical_is_zero(b, apply_canonical(f, gen))
        assert f.is_injective() == ker.is_trivial()
        img = f.image_subgroup()
        for e in a.canonical_generators():
            assert contains(img, apply_canonical(f, e))


@st.composite
def presented_groups(draw):
    """A group in canonical shape, trivial ones included, or a random presentation."""
    if draw(st.booleans()):
        free = draw(st.integers(0, 2))
        torsion, t = [], 1
        for step in draw(st.lists(st.sampled_from((2, 3, 4)), max_size=2)):
            t *= step
            torsion.append(t)
        return FGAbelianGroup.from_invariants(free, torsion)
    n = draw(st.integers(0, 3))
    row = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    return FGAbelianGroup(n, IntegerMatrix(draw(st.lists(row, max_size=3)), ncols=n))


@st.composite
def canonical_homs(draw, groups=presented_groups()):
    """A well-defined hom, drawn column by column in canonical coordinates."""
    source, target = draw(groups), draw(groups)
    cols = []
    for order in [0] * source.free_rank + list(source.torsion):
        if draw(st.integers(0, 3)) == 0:
            cols.append([0] * target.canonical_ngens)
            continue
        # a torsion generator of order k goes to an element killed by k
        col = [0 if order else draw(st.integers(-3, 3)) for _ in range(target.free_rank)]
        for s in target.torsion:
            step = s // gcd(s, order)
            col.append(step * draw(st.integers(-2, 2)))
        cols.append(col)
    canonical = IntegerMatrix(cols, ncols=target.canonical_ngens).transpose()
    return from_canonical_matrix(source, target, canonical)


@given(canonical_homs())
def test_kernel_matches_stacked_matrix_kernel(f):
    # the two kernel oracles agree, and injectivity, read off the image's
    # Hermite form, agrees with both
    ker, ref = smith_kernel_subgroup(f), stacked_kernel_subgroup(f)
    assert f.is_injective() == ker.is_trivial() == ref.is_trivial()
    assert ker.is_subset_of(ref) and ref.is_subset_of(ker)
    for g in ker.generators:
        assert canonical_is_zero(f.target, apply_canonical(f, g))


@given(presented_groups(), st.data())
def test_batched_membership_matches_per_generator_contains(g, data):
    n = g.canonical_ngens
    vectors = st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n), max_size=3)
    a = Subgroup(g, data.draw(vectors))
    extra = list(a.generators) if data.draw(st.booleans()) else []
    b = Subgroup(g, data.draw(vectors) + extra)
    a_in_b = all(contains(b, x) for x in a.generators)
    b_in_a = all(contains(a, x) for x in b.generators)
    assert (a.is_subset_of(b), b.is_subset_of(a), a.equals(b)) == (a_in_b, b_in_a, a_in_b and b_in_a)
    for sub in (a, b):
        assert sub.is_full() == all(contains(sub, e) for e in g.canonical_generators())


@st.composite
def relation_groups(draw):
    """A group on up to 5 generators, in one of the shapes presentations take.

    Canonical shapes from ``from_invariants``; no relations; zero rows
    among the relations; more relations than generators; and heavy
    torsion, whose entries share factors of 2 and 3.
    """
    n = draw(st.integers(0, 5))
    shape = draw(st.sampled_from(("invariants", "no relations", "zero rows", "tall", "torsion")))
    if shape == "invariants":
        free = draw(st.integers(0, n))
        torsion = [draw(st.sampled_from((2, 3, 4)))] if free < n else []
        while len(torsion) < n - free:
            torsion.append(torsion[-1] * draw(st.sampled_from((1, 2, 3))))
        return FGAbelianGroup.from_invariants(free, torsion)
    if shape == "torsion":
        entries = st.sampled_from((0, 2, -2, 4, 6, -6, 8, 12, -12, 18))
    else:
        entries = st.integers(-6, 6)
    row = st.lists(entries, min_size=n, max_size=n)
    if shape == "zero rows":
        row = st.one_of(st.just([0] * n), row)
    count = {"no relations": 0, "tall": draw(st.integers(n + 1, n + 3))}.get(shape)
    if count is None:
        count = draw(st.integers(1, n + 1))
    return FGAbelianGroup(n, IntegerMatrix(draw(st.lists(row, min_size=count, max_size=count)), ncols=n))


@given(relation_groups(), st.data())
def test_coordinate_maps_match_the_full_decomposition(g, data):
    to_ref, from_ref = full_decomposition_coordinates(g.relations)
    assert not any(isinstance(getattr(g, name), SmithDecomposition) for name in g.__slots__)
    x = data.draw(st.lists(st.integers(-20, 20), min_size=g.ngens, max_size=g.ngens))
    assert to_canonical(g, x) == to_ref(x)
    y = data.draw(st.lists(st.integers(-20, 20), min_size=g.canonical_ngens, max_size=g.canonical_ngens))
    assert from_canonical(g, y) == from_ref(y)
    assert to_canonical(g, from_canonical(g, y)) == g.reduce_canonical(y)


HOMS = st.one_of(canonical_homs(), canonical_homs(relation_groups()))


@given(HOMS)
def test_canonical_matrix_matches_the_full_decomposition(f):
    _, from_source = full_decomposition_coordinates(f.source.relations)
    to_target, _ = full_decomposition_coordinates(f.target.relations)
    n = f.source.canonical_ngens
    cols = [
        to_target(dense_matvec(f.matrix.rows, from_source([int(i == j) for i in range(n)])))
        for j in range(n)
    ]
    assert f.canonical_matrix() == IntegerMatrix(cols, ncols=f.target.canonical_ngens).transpose()
    assert f.canonical_matrix().columns() == columnwise_canonical_matrix(f)


# -- whole-matrix coordinate changes against their per-vector references --


@given(HOMS, st.data())
def test_from_canonical_matrix_matches_the_columnwise_reference(f, data):
    # unreduced torsion entries too: the product reduces them as the reference does
    invariants = [0] * f.target.free_rank + list(f.target.torsion)
    rows = [
        [c + t * data.draw(st.integers(-2, 2)) for c in row]
        for row, t in zip(f.canonical_matrix().rows, invariants)
    ]
    canonical = IntegerMatrix(rows, ncols=f.source.canonical_ngens)
    g = from_canonical_matrix(f.source, f.target, canonical)
    assert g.matrix.columns() == columnwise_from_canonical(f.source, f.target, canonical)
    assert g.matrix.nrows == f.target.ngens
    assert g.canonical_matrix() == f.canonical_matrix()


@given(HOMS, st.data())
def test_well_definedness_check_rejects_exactly_what_the_reference_rejects(f, data):
    # a well-defined matrix, perturbed or not, so both verdicts come up
    rows = [list(row) for row in f.matrix.rows]
    for row in rows:
        for j in range(len(row)):
            if data.draw(st.integers(0, 3)) == 0:
                row[j] += data.draw(st.integers(-2, 2))
    matrix = IntegerMatrix(rows, ncols=f.source.ngens)
    if relationwise_well_defined(f.source, f.target, matrix):
        assert GroupHom(f.source, f.target, matrix).matrix is matrix
    else:
        with pytest.raises(ValueError, match="does not carry source relations"):
            GroupHom(f.source, f.target, matrix)


@given(HOMS, st.data())
def test_image_subgroups_match_per_generator_pushes(f, data):
    units = f.source.canonical_generators()
    pushed = Subgroup(f.target, [apply_canonical(f, e) for e in units])
    assert f.image_subgroup().generators == pushed.generators
    n = f.source.canonical_ngens
    vector = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    sub = Subgroup(f.source, data.draw(st.lists(vector, max_size=3)))
    expected = Subgroup(f.target, [apply_canonical(f, g) for g in sub.generators])
    assert image_under(sub, f).generators == expected.generators


# -- subgroups by Hermite form against the Smith-based oracle --


@st.composite
def related_subgroups(draw):
    """A group from ``relation_groups`` and two subgroups of it that may share generators.

    Generators are drawn with heavy torsion (entries sharing factors of
    2 and 3) and made dependent: sums and multiples of earlier ones, and
    some of one subgroup's generators repeated in the other.
    """
    g = draw(relation_groups())
    n = g.canonical_ngens
    entry = st.one_of(st.integers(-6, 6), st.sampled_from((0, 2, -4, 6, 12, -18)))

    def generators():
        gens = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=3))
        for _ in range(draw(st.integers(0, 2))):
            if gens:
                a, b = draw(st.sampled_from(gens)), draw(st.sampled_from(gens))
                k = draw(st.integers(-3, 3))
                gens.append([x + k * y for x, y in zip(a, b)])
        return gens

    first = generators()
    shared = draw(st.lists(st.sampled_from(first), max_size=2)) if first else []
    return g, Subgroup(g, first), Subgroup(g, generators() + shared)


@given(related_subgroups(), st.data())
def test_hermite_subgroups_match_the_smith_oracle(case, data):
    g, a, b = case
    assert a.is_subset_of(b) == smith_is_subset(a, b)
    assert b.is_subset_of(a) == smith_is_subset(b, a)
    assert a.equals(b) == (smith_is_subset(a, b) and smith_is_subset(b, a))
    # fresh subgroups, so the mod-p certificates run before any form is kept
    assert Subgroup(g, a.generators).equals(Subgroup(g, b.generators)) == both_forms_equal(a, b)
    n = g.canonical_ngens
    for sub in (a, b):
        assert sub.is_full() == smith_is_full(sub)
        check_subgroup_type_matches_the_smith_oracle(sub)
        candidates = [data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))]
        candidates += [[2 * x for x in gen] for gen in sub.generators]
        for y in candidates:
            assert contains(sub, y) == smith_contains(sub, y)


# -- isomorphisms by invariants and surjectivity against kernel and image --


Z_ONE = FGAbelianGroup.free(1)
Z2_Z4 = FGAbelianGroup.from_invariants(0, (2, 4))
NAMED_HOMS = {
    # injective, not onto, ends of one type
    "double on Z": (GroupHom(Z_ONE, Z_ONE, IntegerMatrix([[2]])), False),
    # onto, not injective, ends of two types
    "Z onto Z/2": (GroupHom(Z_ONE, FGAbelianGroup.from_invariants(0, (2,)), IntegerMatrix([[1]])), False),
    # neither: (x, y) -> (0, 2y)
    "Z/2 + Z/4 into itself": (GroupHom(Z2_Z4, Z2_Z4, IntegerMatrix([[0, 0], [0, 2]])), False),
    # (x, y) -> (x, y + 2x)
    "Z/2 + Z/4 automorphism": (GroupHom(Z2_Z4, Z2_Z4, IntegerMatrix([[1, 0], [2, 1]])), True),
    # Z + Z/2 onto Z^2 / (2, 4): the free generator to e2, the torsion one to e1 + 2 e2
    "Z + Z/2 presentations": (
        GroupHom(
            FGAbelianGroup.from_invariants(1, (2,)),
            FGAbelianGroup(2, IntegerMatrix([[2, 4]])),
            IntegerMatrix([[0, 1], [1, 2]]),
        ),
        True,
    ),
}


@given(HOMS)
def test_isomorphism_test_matches_injective_and_surjective(f):
    assert f.is_isomorphism() == (f.is_injective() and f.is_surjective())


@pytest.mark.parametrize("name", NAMED_HOMS)
def test_named_isomorphism_tests_match_injective_and_surjective(name):
    f, expected = NAMED_HOMS[name]
    assert f.is_isomorphism() == (f.is_injective() and f.is_surjective()) == expected


def check_subgroup_type_matches_the_smith_oracle(sub):
    free, torsion = smith_as_group_invariants(sub)
    assert sub._rank_and_order() == (free, prod(torsion))
    assert sub.as_group().invariants == (free, torsion)


def check_injectivity_matches_the_kernel_oracles(f):
    # two kernels by Smith decompositions: of the image's solver, and of
    # the stacked matrix [canonical matrix | target relation columns]
    injective = f.is_injective()
    assert injective == smith_kernel_subgroup(f).is_trivial() == stacked_kernel_subgroup(f).is_trivial()
    img = f.image_subgroup()
    check_subgroup_type_matches_the_smith_oracle(img)
    for e in f.source.canonical_generators():
        assert contains(img, apply_canonical(f, e))
    # the oracle kernel's type read off its Hermite form
    check_subgroup_type_matches_the_smith_oracle(smith_kernel_subgroup(f))


@given(HOMS)
def test_hermite_kernels_match_the_smith_oracle(f):
    check_injectivity_matches_the_kernel_oracles(f)


@pytest.mark.parametrize("name", NAMED_HOMS)
def test_named_injectivity_and_image_types_match_the_smith_oracles(name):
    check_injectivity_matches_the_kernel_oracles(NAMED_HOMS[name][0])


@pytest.mark.parametrize(
    "g",
    [
        FGAbelianGroup.trivial(),
        FGAbelianGroup.from_invariants(0, (2, 6)),
        FGAbelianGroup.free(2),
        FGAbelianGroup.from_invariants(1, (4,)),
    ],
    ids=["trivial", "torsion only", "free only", "mixed"],
)
def test_trivial_and_full_subgroup_types_match_the_smith_oracle(g):
    halves = [[2 * x for x in e] for e in g.canonical_generators()]
    for sub in (Subgroup(g, []), Subgroup.full(g), Subgroup(g, halves)):
        check_subgroup_type_matches_the_smith_oracle(sub)
    assert Subgroup.full(g).as_group().invariants == g.invariants
    assert Subgroup(g, []).as_group().invariants == (0, ())


def tampered(record, field, i, j, delta=1):
    """``record``'s fields, with entry (i, j) of ``field`` moved by ``delta``."""
    target = getattr(record, field)
    rows = [list(row) for row in target.rows]
    rows[i][j] += delta
    fields = {name: getattr(record, name) for name in record._fields}
    fields[field] = IntegerMatrix(rows, ncols=target.ncols)
    return fields


def check_every_one_entry_tamper_is_rejected(h):
    # no input row is zero, so every tampered transform entry moves a product
    assert all(any(row) for row in h.matrix.rows)
    for field in ("form", "transform"):
        target = getattr(h, field)
        for i in range(target.nrows):
            for j in range(target.ncols):
                with pytest.raises(AssertionError):
                    HermiteForm(**tampered(h, field, i, j))


def test_every_one_entry_tamper_of_a_kept_hermite_form_is_rejected():
    # torsion and dependent generators: fewer form rows than input rows
    g = FGAbelianGroup.from_invariants(2, (2, 12))
    sub = Subgroup(g, [(2, 4, 1, 6), (4, 8, 0, 3), (0, 6, 1, 9), (6, 18, 1, 0)])
    h = sub._hermite_form()
    assert 0 < h.form.nrows < h.matrix.nrows
    check_every_one_entry_tamper_is_rejected(h)
    fields = {name: getattr(h, name) for name in h._fields}
    for i in range(len(h.pivots)):
        for delta in (-1, 1):
            pivots = list(h.pivots)
            pivots[i] += delta
            with pytest.raises(AssertionError, match="pivot"):
                HermiteForm(**{**fields, "pivots": pivots})


def test_every_one_entry_tamper_of_an_identity_hermite_form_is_rejected():
    # the identity's lattice holds every input row, so no row is divided
    # against it; the recorded combinations still tie the form to the input
    g = FGAbelianGroup.from_invariants(2, (6,))
    h = Subgroup(g, [(1, 2, 3), (0, 1, 4), (2, 3, 1), (1, 1, 5)])._hermite_form()
    assert h.form == IntegerMatrix.identity(3) and h.matrix.nrows > 3
    check_every_one_entry_tamper_is_rejected(h)


def test_every_one_entry_tamper_of_a_kept_residue_basis_is_rejected():
    # torsion of orders 3 and 6: three coordinates mod 2 and four mod 3,
    # bases with columns off their pivots and generators they reduce to zero
    g = FGAbelianGroup.from_invariants(2, (3, 6))
    sub = Subgroup(g, [(1, 2, 1, 0), (0, 0, 1, 2), (1, 2, 2, 2), (0, 1, 0, 3)])
    assert Subgroup(g, sub.generators).equals(sub)
    kept = [sub._bases[2], sub._bases[3]]
    assert [(b.basis.nrows, b.basis.ncols) for b in kept] == [(2, 3), (3, 4)]
    for b in kept:
        fields = {name: getattr(b, name) for name in b._fields}
        assert ResidueBasis(**fields) == b
        for i in range(b.basis.nrows):
            for j in range(b.basis.ncols):
                # every other residue, and one past each end of [0, p)
                for value in set(range(-1, b.p + 1)) - {b.basis.rows[i][j]}:
                    with pytest.raises(AssertionError):
                        ResidueBasis(**tampered(b, "basis", i, j, value - b.basis.rows[i][j]))
        for i in range(len(b.pivots)):
            for delta in (-1, 1):
                pivots = list(b.pivots)
                pivots[i] += delta
                with pytest.raises(AssertionError, match="pivot"):
                    ResidueBasis(**{**fields, "pivots": pivots})


def test_residue_bases_reject_each_forged_shape():
    b = residue_basis(IntegerMatrix([[1, 2, 0], [2, 1, 1]]), 3)
    assert b.basis.rows == ((1, 2, 0), (0, 0, 1)) and b.pivots == (0, 2)
    forged = {
        "wrong shape": (IntegerMatrix([[1, 2]]), (0,)),
        "misplaced pivot": (IntegerMatrix([[0, 0, 1], [1, 2, 0]]), (2, 0)),
        "outside": (IntegerMatrix([[1, 2, 3], [0, 0, 1]]), (0, 2)),
        "beside a pivot": (IntegerMatrix([[1, 2, 1], [0, 0, 1]]), (0, 2)),
        "outside the span": (IntegerMatrix([[1, 2, 0]]), (0,)),
    }
    for message, (basis, pivots) in forged.items():
        with pytest.raises(AssertionError, match=message):
            ResidueBasis(3, b.matrix, basis, pivots)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_residue_bases_reduce_rows_not_reduced_mod_p(p):
    # an entry of p or more, or below 0, names the residue of its reduction
    assert residue_basis(IntegerMatrix([[2, 1]]), 2).basis.rows == ((0, 1),)
    assert residue_basis(IntegerMatrix([[p, 1], [-1, 2 * p]]), p).basis.rows == ((1, 0), (0, 1))
    rng = random.Random(p)
    for _ in range(60):
        rows = [[rng.randint(-3 * p, 3 * p) for _ in range(4)] for _ in range(rng.randint(1, 4))]
        got = residue_basis(IntegerMatrix(rows), p)
        want = residue_basis(IntegerMatrix([[x % p for x in row] for row in rows]), p)
        assert (got.basis, got.pivots) == (want.basis, want.pivots)
        assert got.basis.nrows == mod_p_rank(rows, p)


def test_a_drop_seen_mod_2_or_3_reads_no_hermite_form(echelon_forms):
    # Z + Z/6 over its subgroups of index 2, 3 and 5: only the drop of
    # index 5 leaves the residues mod 2 and 3 whole, so only it is decided
    # by a Hermite form
    g = FGAbelianGroup.from_invariants(1, (6,))
    for index, forms in ((2, 0), (3, 0), (5, 1)):
        pair = lambda: (Subgroup.full(g), Subgroup(g, [(index, 0), (0, 1)]))
        full, sub = pair()
        del echelon_forms[:]
        assert not full.is_subset_of(sub)
        assert len(echelon_forms) == forms, index
        full, sub = pair()
        assert not full.equals(sub)
        assert len(echelon_forms) == 2 * forms, index
        assert sub.is_subset_of(full)


def test_hermite_checks_catch_what_a_consistent_tamper_leaves():
    h = hermite_normal_form(IntegerMatrix([[2, 4, 1], [4, 8, 0], [6, 0, 3], [0, 0, 5]]))
    fields = {name: getattr(h, name) for name in h._fields}
    # a negated pivot row with its negated combination: not Hermite shape
    flipped = dict(fields)
    flipped["form"] = IntegerMatrix([[-x for x in h.form.rows[0]], *h.form.rows[1:]])
    flipped["transform"] = IntegerMatrix([[-x for x in h.transform.rows[0]], *h.transform.rows[1:]])
    with pytest.raises(AssertionError, match="pivot"):
        HermiteForm(**flipped)
    # a form row dropped with its combination: an input row no longer reduces
    dropped = dict(fields)
    dropped["form"] = IntegerMatrix(h.form.rows[:-1], ncols=h.form.ncols)
    dropped["pivots"] = h.pivots[:-1]
    dropped["transform"] = IntegerMatrix(h.transform.rows[:-1], ncols=h.transform.ncols)
    with pytest.raises(AssertionError, match="outside the lattice"):
        HermiteForm(**dropped)
    # a full-rank form that is not the identity, its last row doubled with
    # its combination: still Hermite, but an input row no longer reduces
    doubled_row = dict(fields)
    assert h.form.nrows == h.form.ncols and h.form != IntegerMatrix.identity(h.form.ncols)
    doubled_row["form"] = IntegerMatrix([*h.form.rows[:-1], [2 * x for x in h.form.rows[-1]]])
    doubled_row["transform"] = IntegerMatrix([*h.transform.rows[:-1], [2 * x for x in h.transform.rows[-1]]])
    with pytest.raises(AssertionError, match="outside the lattice"):
        HermiteForm(**doubled_row)


def test_subgroups_factor_nothing(smith_calls):
    # membership, containment, equality, fullness, injectivity and isomorphism
    # tests all read Hermite forms; only a group built from a subgroup factors
    g = FGAbelianGroup.from_invariants(1, (2, 4))
    a, b = Subgroup(g, [(2, 0, 0), (0, 1, 2)]), Subgroup(g, [(4, 0, 0), (0, 1, 2), (0, 0, 2)])
    f = from_canonical_matrix(g, g, IntegerMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 2]]))
    del smith_calls[:]
    a.equals(b), a.is_subset_of(b), a.is_full(), contains(a, (2, 1, 2))
    f.is_injective(), f.is_isomorphism()
    assert smith_calls == []
    assert a.as_group().invariants == (1, (2,)) and len(smith_calls) == 1
