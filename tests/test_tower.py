"""Tower analysis: image chains, derived-limit class, exact limits."""

import random
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from towertop.abelian import FGAbelianGroup, GroupHom, IntegerMatrix, Subgroup
from towertop.polynomial import charpoly, factor, unit_part_degree
from towertop.tower import (
    _first_repeat,
    _image_chain,
    _iteration_bound,
    _kept_period_image,
    _period_endo,
    _periodic_stable_image,
    _stable_endo_image,
    Certificate,
    ColimResult,
    ComplexTower,
    DirectSystem,
    GroupTower,
    Lim1Class,
    MLStatus,
    NotFinitelyStable,
    NotStable,
    cohomology_system,
    colim_direct_system,
    homology_tower,
    lim1_class,
    ml_status,
    periodic_lim,
    stable_lim,
    tower_lim,
)

from generators import circle_power_tower, constant_tower, hollow_triangle
from oracles import (
    bareiss_det,
    both_forms_first_repeat,
    both_forms_stable_endo_image,
    composed_carry_down,
    composed_endo_images,
    composed_image_chain,
    dense_product,
    gauss_jordan_nullspace,
    restricted_stable_lim,
    smith_is_subset,
)


Z = FGAbelianGroup.free(1)
Z2 = FGAbelianGroup.free(2)


def hom(src, tgt, rows):
    return GroupHom(src, tgt, IntegerMatrix(rows, ncols=src.ngens))


def doubling_tower(depth, certified=True):
    cert = Certificate("periodic") if certified else None
    return GroupTower(
        [Z] * depth, [hom(Z, Z, [[2]])] * (depth - 1), cert
    )


def test_doubling_chain_strictly_decreasing():
    t = doubling_tower(4)
    st = ml_status(t, 0, 3)
    assert st.verdict == "StrictlyDecreasing"
    assert [g.invariants for g in st.image_chain] == [(1, ())] * 4
    # the chain is Z > 2Z > 4Z > 8Z: consecutive images properly nested
    subs = [Subgroup(Z, [(2**k,)]) for k in range(4)]
    for a, b in zip(subs, subs[1:]):
        assert b.is_subset_of(a) and not a.is_subset_of(b)


def test_identity_tower_stabilizes_at_zero():
    t = GroupTower([Z] * 3, [GroupHom.identity(Z)] * 2, Certificate("periodic"))
    st = ml_status(t, 0, 2)
    assert st.verdict == "Stabilized"
    assert st.index == 0


def test_uncertified_repeat_at_step_two():
    # composite images at level 0: Z, 2Z, 4Z, 4Z -- first repeat at index 2
    bonds = [hom(Z, Z, [[2]]), hom(Z, Z, [[2]]), GroupHom.identity(Z)]
    t = GroupTower([Z] * 4, bonds)
    st = ml_status(t, 0, 3)
    assert st.verdict == "Stabilized"
    assert st.index == 2


def test_uncertified_decreasing_chain_is_undetermined():
    t = doubling_tower(4, certified=False)
    st = ml_status(t, 0, 3)
    assert st.verdict == "UndeterminedWithinWindow"
    assert lim1_class(t).verdict == "Undetermined"


def test_window_must_fit_truncation():
    t = doubling_tower(3)
    with pytest.raises(ValueError):
        ml_status(t, 0, 5)
    with pytest.raises(ValueError):
        ml_status(t, 2, 1)
    # the deepest level has no bond to default the window to; a window the
    # caller passes is still checked as given
    with pytest.raises(ValueError, match="level 2 has no bond below it"):
        ml_status(t, 2)
    for w in (0, -1):
        with pytest.raises(ValueError, match="window must be at least 1"):
            ml_status(t, 2, w)


def test_lim1_class_rejects_windows_below_one():
    # depth 1 has no bond to look along; the rule holds there too
    for depth in (3, 1):
        t = doubling_tower(depth, certified=False)
        for w in (0, -1):
            with pytest.raises(ValueError, match="window must be at least 1"):
                lim1_class(t, w)


@pytest.mark.parametrize("cert", [None, "periodic", "shift_family"])
def test_stable_and_tower_lim_reject_windows_below_one(cert):
    # a certificate decides tower_lim without any window; the rule holds there too
    t = GroupTower([Z] * 3, [hom(Z, Z, [[2]])] * 2, None if cert is None else Certificate(cert))
    for lim in (stable_lim, tower_lim):
        for w in (0, -1):
            with pytest.raises(ValueError, match="window must be at least 1"):
                lim(t, w)


def test_certified_doubling_lim1_uncountable():
    t = doubling_tower(4)
    cls = lim1_class(t)
    assert cls.verdict == "Uncountable"


def test_diag_one_two_certified():
    a = hom(Z2, Z2, [[1, 0], [0, 2]])
    t = GroupTower([Z2] * 4, [a] * 3, Certificate("periodic"))
    assert ml_status(t, 0).verdict == "StrictlyDecreasing"
    assert lim1_class(t).verdict == "Uncountable"
    out = stable_lim(t)
    assert isinstance(out, NotStable)
    lim = tower_lim(t)
    assert lim.invariants == (1, ())


def test_periodic_lim_identity_returns_group():
    for g in [Z, Z2, FGAbelianGroup.from_invariants(1, (4,)), FGAbelianGroup.from_invariants(0, (2, 6))]:
        assert periodic_lim(g, GroupHom.identity(g)).invariants == g.invariants


def test_periodic_lim_doubling_matches_brute_force():
    lim = periodic_lim(Z, hom(Z, Z, [[2]]))
    assert lim.is_trivial()
    # every integer in a symmetric range that lies in all images of powers
    survivors = set(range(-(2**8), 2**8 + 1))
    for k in range(1, 10):
        survivors = {n for n in survivors if n % (2**k) == 0}
    assert survivors == {0}


def test_periodic_lim_coprime_scalings_vanish():
    # invariant factors of the matrix alone would suggest Z here; the
    # limit is actually trivial because no nonzero vector is infinitely divisible
    a = hom(Z2, Z2, [[2, 0], [0, 3]])
    assert periodic_lim(Z2, a).is_trivial()


# Swinnerton-Dyer polynomial of sqrt 2, sqrt 3, sqrt 5: irreducible over Z but
# split into at least four factors modulo every prime
SWINNERTON_DYER = [576, 0, -960, 0, 352, 0, -40, 0, 1]

# monic polynomials (constant term first) and the degrees of their unit parts
HARD_CASES = [
    ([2, 1, 1], 0),  # x^2 + x + 2 and x^2 - 3x + 2: the same 2-adic Newton polygon
    ([2, -3, 1], 1),
    ([-2, 5, -4, 1], 2),  # (x - 1)^2 (x - 2)
    ([0, -1, 1], 1),  # x (x - 1)
    (SWINNERTON_DYER, 0),
    ([2, -5, 0, -2, 1], 2),  # (x^2 - 3x + 1)(x^2 + x + 2)
    # (x^4 + 1) times the octic: six factors mod 7, recombined in pairs and more
    ([576, 0, -960, 0, 928, 0, -1000, 0, 353, 0, -40, 0, 1], 4),
]


def companion(poly):
    """Companion matrix of a monic polynomial given constant term first."""
    n = len(poly) - 1
    return [[int(i == j + 1) if j < n - 1 else -poly[i] for j in range(n)] for i in range(n)]


def test_periodic_lim_mixed_unit_part():
    a = hom(Z2, Z2, [[1, 1], [0, 2]])
    assert periodic_lim(Z2, a).invariants == (1, ())
    # the free rank of the limit is the unit-part degree, whether or not
    # the image chain repeats (x (x - 1) repeats, the others never do)
    for poly, expected in HARD_CASES:
        g = FGAbelianGroup.free(len(poly) - 1)
        assert periodic_lim(g, hom(g, g, companion(poly))).invariants == (expected, ())


def test_periodic_lim_unimodular_full():
    a = hom(Z2, Z2, [[2, 1], [1, 1]])
    assert periodic_lim(Z2, a).invariants == (2, ())


def test_periodic_lim_torsion_doubling():
    g = FGAbelianGroup.from_invariants(0, (4,))
    a = hom(g, g, [[2]])
    assert periodic_lim(g, a).is_trivial()
    # the images never repeat; the torsion comes from the deepest image,
    # not from the group
    g = FGAbelianGroup.from_invariants(1, (2,))
    assert periodic_lim(g, hom(g, g, [[2, 0], [0, 0]])).is_trivial()


def test_period_map_composes_in_bond_order():
    # A then B and B then A have the same type of stable image but not
    # the same subgroup: (AB)^k has image the first axis, (BA)^k the diagonal
    a = hom(Z2, Z2, [[1, 0], [0, 0]])
    b = hom(Z2, Z2, [[1, 1], [1, 0]])
    t = GroupTower([Z2] * 5, [a, b, a, b], Certificate("periodic", period=2))
    assert [ml_status(t, level).index for level in range(4)] == [1, 2, 1, None]
    assert tower_lim(t).invariants == (1, ())


def test_periodic_lim_requires_endomorphism():
    with pytest.raises(ValueError):
        periodic_lim(Z, hom(Z2, Z, [[1, 0]]))


# -- unit part of a characteristic polynomial --------------------------------


def sympy_unit_part_degree(block):
    """The unit-part degree as sympy's charpoly and factor_list give it."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    total = 0
    for f, mult in sympy.factor_list(sympy.Matrix(block).charpoly(x).as_expr(), x)[1]:
        p = sympy.Poly(f, x)
        if abs(p.eval(0)) == 1:
            total += p.degree() * mult
    return total


@st.composite
def square_blocks(draw):
    """Dense r x r blocks, r <= 6, or companion matrices of products of small factors."""
    r = draw(st.integers(1, 6))
    if draw(st.booleans()):
        row = st.lists(st.integers(-9, 9), min_size=r, max_size=r)
        return draw(st.lists(row, min_size=r, max_size=r))
    poly = [1]
    while len(poly) - 1 < r:
        degree = draw(st.integers(1, 3))
        constant = draw(st.sampled_from((1, -1, 2, -2, 3, 0)))
        middle = draw(st.lists(st.integers(-4, 4), min_size=degree - 1, max_size=degree - 1))
        f = [constant] + middle + [1]
        poly = [sum(poly[k] * f[i - k] for k in range(len(poly)) if 0 <= i - k < len(f))
                for i in range(len(poly) + degree)]
    return companion(poly)


def test_unit_part_degree_matches_sympy():
    pytest.importorskip("sympy")

    @settings(max_examples=200)
    @given(square_blocks())
    def check(block):
        assert unit_part_degree(block) == sympy_unit_part_degree(block)

    check()


def test_charpoly_and_factor_on_hard_cases():
    for poly, _ in HARD_CASES:
        assert charpoly(companion(poly)) == poly
    assert factor(SWINNERTON_DYER) == [(SWINNERTON_DYER, 1)]
    assert factor([-2, 5, -4, 1]) == [([-2, 1], 1), ([-1, 1], 2)]


def test_nullspaces_match_the_gauss_jordan_reference():
    # the Berlekamp bases come from residue_basis's reduced echelon form,
    # which is unique, so they agree vector for vector with an elimination
    # of their own; entries outside [0, p) as Berlekamp's -1 are among them
    from towertop.polynomial import _nullspace

    rng = random.Random(2027)
    for _ in range(600):
        p = rng.choice((2, 3, 5, 7, 11))
        rows = [[rng.randint(-15, 15) for _ in range(rng.randint(1, 6))]]
        rows += [[rng.randint(-15, 15) for _ in rows[0]] for _ in range(rng.randint(0, 5))]
        assert _nullspace(rows, p) == gauss_jordan_nullspace(rows, p)
    # a singular Berlekamp-shaped matrix: the identity subtracted from a projection
    assert _nullspace([[0, 0], [0, -1]], 3) == gauss_jordan_nullspace([[0, 0], [0, -1]], 3) == [[1, 0]]


def test_stable_lim_alternating_projection():
    # Z <- Z <- Z^2 with an identity bond then a projection: limit Z
    bonds = [GroupHom.identity(Z), hom(Z2, Z, [[1, 0]])]
    t = GroupTower([Z, Z, Z2], bonds)
    lim = stable_lim(t)
    assert lim.invariants == (1, ())


def test_stable_lim_constant_tower_is_the_level():
    g = FGAbelianGroup.from_invariants(1, (2,))
    for depth in (2, 3, 4):
        t = GroupTower([g] * depth, [GroupHom.identity(g)] * (depth - 1))
        assert stable_lim(t).invariants == g.invariants


def test_stable_lim_single_level():
    assert stable_lim(GroupTower([Z2], [])).invariants == (2, ())


def test_certified_constant_torsion_tower():
    g = FGAbelianGroup.from_invariants(0, (6,))
    t = GroupTower([g] * 3, [GroupHom.identity(g)] * 2, Certificate("periodic"))
    assert lim1_class(t).verdict == "Zero"
    assert tower_lim(t).invariants == (0, (6,))
    assert ml_status(t, 0).verdict == "Stabilized"


def test_all_surjective_tower_lim1_zero():
    proj = hom(Z2, Z, [[1, 0]])
    t = GroupTower([Z, Z2, Z2], [proj, GroupHom.identity(Z2)])
    assert lim1_class(t).verdict == "Zero"


def test_stabilization_beyond_window():
    # rank drops twice; a window of 1 cannot exhibit the stable index,
    # but the certificate still proves the chain settles
    a = hom(
        FGAbelianGroup.free(3),
        FGAbelianGroup.free(3),
        [[0, 1, 0], [0, 0, 0], [0, 0, 1]],
    )
    g = FGAbelianGroup.free(3)
    t = GroupTower([g] * 4, [a] * 3, Certificate("periodic"))
    short = ml_status(t, 0, 1)
    assert short.verdict == "Stabilized" and short.index is None
    st = ml_status(t, 0, 2)
    assert st.verdict == "Stabilized" and st.index == 2
    assert lim1_class(t).verdict == "Zero"
    assert tower_lim(t).invariants == (1, ())


@pytest.mark.parametrize("offset, period", [(True, True), (0, True), (1.0, 1), (0, 2.0), (0, "1")])
def test_certificate_rejects_a_non_int_offset_or_period(offset, period):
    # Certificate("periodic", True, True) once constructed
    with pytest.raises(ValueError, match="^certificate (offset|period) must be an int"):
        Certificate("periodic", offset, period)


def test_certificate_rejected_on_contradicting_data():
    with pytest.raises(ValueError):
        GroupTower([Z, Z2], [hom(Z2, Z, [[1, 0]])], Certificate("periodic"))
    with pytest.raises(ValueError):
        # identity bonds are surjective, contradicting a shrinking family
        GroupTower([Z] * 3, [GroupHom.identity(Z)] * 2, Certificate("shift_family"))
    with pytest.raises(ValueError):
        Certificate("mystery")
    # one verifier serves both directions: an inverse tower shrinks
    # through injective non-surjective bonds, a direct system through
    # surjective non-injective ones
    shift = Certificate("shift_family")
    with pytest.raises(ValueError, match="bond 0 is not injective"):
        GroupTower([Z, Z2], [hom(Z2, Z, [[1, 0]])], shift)
    with pytest.raises(ValueError, match="bond 1 is surjective"):
        GroupTower([Z] * 3, [hom(Z, Z, [[2]]), GroupHom.identity(Z)], shift)
    with pytest.raises(ValueError, match="bond 0 is not surjective"):
        DirectSystem([Z, Z], [hom(Z, Z, [[2]])], shift)
    with pytest.raises(ValueError, match="bond 1 is injective"):
        DirectSystem([Z2, Z, Z], [hom(Z2, Z, [[1, 0]]), GroupHom.identity(Z)], shift)


def test_shift_family_certificate():
    t = GroupTower([Z] * 4, [hom(Z, Z, [[3]])] * 3, Certificate("shift_family"))
    assert ml_status(t, 0).verdict == "StrictlyDecreasing"
    assert lim1_class(t).verdict == "Uncountable"
    assert tower_lim(t).is_trivial()


def test_image_chains_descend():
    rng = random.Random(7)
    for _ in range(15):
        groups = [FGAbelianGroup.free(rng.randint(1, 3)) for _ in range(4)]
        bonds = []
        ok = True
        for i in range(3):
            rows = [
                [rng.randint(-2, 2) for _ in range(groups[i + 1].ngens)]
                for _ in range(groups[i].ngens)
            ]
            bonds.append(hom(groups[i + 1], groups[i], rows))
        t = GroupTower(groups, bonds)
        for level in range(3):
            st = ml_status(t, level, 3 - level)
            # invariants can only lose rank along the chain
            ranks = [g.free_rank for g in st.image_chain]
            assert all(a >= b for a, b in zip(ranks, ranks[1:]))


def test_solenoid_homology_tower():
    raw = circle_power_tower(2, 4)
    t = ComplexTower(raw.levels, raw.bonds, certificate=Certificate("periodic"))
    h1 = homology_tower(t, 1)
    assert h1.certificate is not None and h1.certificate.kind == "periodic"
    assert [g.invariants for g in h1.levels] == [(1, ())] * 4
    assert all(b.canonical_matrix().rows == ((2,),) for b in h1.bonds)
    for level in range(3):
        assert ml_status(h1, level).verdict == "StrictlyDecreasing"
    assert lim1_class(h1).verdict == "Uncountable"
    assert tower_lim(h1).is_trivial()
    h0 = homology_tower(t, 0)
    assert lim1_class(h0).verdict == "Zero"
    assert tower_lim(h0).invariants == (1, ())


def test_homology_tower_commutes_with_truncation():
    raw = circle_power_tower(2, 4)
    t = ComplexTower(raw.levels, raw.bonds)
    full = homology_tower(t, 1)
    cut = homology_tower(ComplexTower(raw.levels[:3], raw.bonds[:2]), 1)
    assert [g.invariants for g in cut.levels] == [g.invariants for g in full.levels[:3]]
    for a, b in zip(cut.bonds, full.bonds[:2]):
        assert a.canonical_matrix() == b.canonical_matrix()


def test_constant_complex_tower_certificate_survives():
    raw = constant_tower(hollow_triangle(), 3)
    t = ComplexTower(raw.levels, raw.bonds, certificate=Certificate("periodic"))
    h1 = homology_tower(t, 1)
    assert h1.certificate is not None
    assert tower_lim(h1).invariants == (1, ())


def test_colim_stabilizing_system():
    z6 = FGAbelianGroup.from_invariants(0, (6,))
    quot = hom(Z, z6, [[1]])
    sys = DirectSystem([Z, z6, z6, z6], [quot, GroupHom.identity(z6), GroupHom.identity(z6)])
    out = colim_direct_system(sys)
    assert isinstance(out, ColimResult)
    assert out.group.invariants == (0, (6,))
    assert out.index == 1


def test_colim_single_level():
    out = colim_direct_system(DirectSystem([Z2], []))
    assert isinstance(out, ColimResult) and out.group.invariants == (2, ())


def test_colim_certified_periodic_never_stabilizes():
    sys = DirectSystem([Z] * 4, [hom(Z, Z, [[2]])] * 3, Certificate("periodic"))
    out = colim_direct_system(sys)
    assert isinstance(out, NotFinitelyStable)
    assert out.certified


def test_colim_uncertified_moving_system():
    sys = DirectSystem([Z] * 4, [hom(Z, Z, [[2]])] * 3)
    out = colim_direct_system(sys)
    assert isinstance(out, NotFinitelyStable)
    assert not out.certified


def test_colim_certified_shrinking_family():
    zero = FGAbelianGroup.trivial()
    bonds = [hom(Z2, Z, [[1, 0]]), hom(Z, zero, [])]
    sys = DirectSystem([Z2, Z, zero], bonds, Certificate("shift_family"))
    out = colim_direct_system(sys)
    assert isinstance(out, ColimResult)
    assert out.group.is_trivial()


def test_solenoid_cohomology_system():
    raw = circle_power_tower(2, 4)
    t = ComplexTower(raw.levels, raw.bonds, certificate=Certificate("periodic"))
    sys = cohomology_system(t, 1)
    assert sys.certificate is not None and sys.certificate.kind == "periodic"
    assert [g.invariants for g in sys.levels] == [(1, ())] * 4
    out = colim_direct_system(sys)
    assert isinstance(out, NotFinitelyStable)
    assert out.certified
    zero_sys = cohomology_system(t, 0)
    out0 = colim_direct_system(zero_sys)
    assert isinstance(out0, ColimResult)
    assert out0.group.invariants == (1, ())


def test_tower_adjacency_validated():
    with pytest.raises(ValueError):
        GroupTower([Z, Z2], [GroupHom.identity(Z)])
    with pytest.raises(ValueError):
        DirectSystem([Z, Z], [hom(Z2, Z, [[1, 0]])])


def test_ml_status_chain_includes_full_group_first():
    t = doubling_tower(3, certified=False)
    st = ml_status(t, 0, 2)
    assert st.image_chain[0].invariants == (1, ())
    assert len(st.image_chain) == 3


def test_levels_and_bonds_cannot_be_reassigned():
    # the tower keeps image chains built from its bonds, so they are tuples
    t = doubling_tower(3)
    assert isinstance(t.levels, tuple) and isinstance(t.bonds, tuple)
    with pytest.raises(TypeError):
        t.bonds[0] = GroupHom.identity(Z)
    with pytest.raises(TypeError):
        t.levels[0] = Z2


# -- kept image chains: shared analyses agree with fresh ones -----------------


def adjugate(a):
    n = len(a)
    return [
        [(-1) ** (i + j) * bareiss_det([[a[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
         for j in range(n)]
        for i in range(n)
    ]


def tower_relations(relations, bonds):
    """Relations of every level of Z^n / R_i with dense bonds A_i.

    Level i + 1 has relations adj(A_i) r for the relations r of level i;
    A_i carries them to det(A_i) r, so every bond is well defined
    whatever the determinant.
    """
    rels = [relations]
    for a in bonds:
        adj = adjugate(a)
        rels.append([[sum(x * y for x, y in zip(r_adj, r)) for r_adj in adj] for r in rels[-1]])
    return rels


@st.composite
def dense_tower_data(draw):
    n = draw(st.integers(2, 3))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    square = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    bonds = draw(st.lists(square, min_size=1, max_size=3))
    return n, tower_relations(draw(st.lists(row, max_size=n)), bonds), bonds


def dense_sequences(data):
    """A fresh uncertified tower and its reversal as a direct system."""
    n, rels, bonds = data
    levels = [FGAbelianGroup(n, IntegerMatrix(r, ncols=n)) for r in rels]
    homs = [hom(levels[i + 1], levels[i], a) for i, a in enumerate(bonds)]
    return GroupTower(levels, homs), DirectSystem(levels[::-1], homs[::-1])


def certified_fixture(name):
    """The certified towers of the tests above, built from fresh objects."""
    z, z2 = FGAbelianGroup.free(1), FGAbelianGroup.free(2)
    if name == "doubling":
        levels, bonds, cert = [z] * 4, [hom(z, z, [[2]])] * 3, Certificate("periodic")
    elif name == "diag":
        levels, bonds, cert = [z2] * 4, [hom(z2, z2, [[1, 0], [0, 2]])] * 3, Certificate("periodic")
    elif name == "period-two":
        a, b = hom(z2, z2, [[1, 0], [0, 0]]), hom(z2, z2, [[1, 1], [1, 0]])
        levels, bonds, cert = [z2] * 5, [a, b, a, b], Certificate("periodic", period=2)
    elif name == "rank-drop":
        z3 = FGAbelianGroup.free(3)
        a = hom(z3, z3, [[0, 1, 0], [0, 0, 0], [0, 0, 1]])
        levels, bonds, cert = [z3] * 4, [a] * 3, Certificate("periodic")
    elif name == "torsion":
        g = FGAbelianGroup.from_invariants(0, (6,))
        levels, bonds, cert = [g] * 3, [GroupHom.identity(g)] * 2, Certificate("periodic")
    else:
        levels, bonds, cert = [z] * 4, [hom(z, z, [[3]])] * 3, Certificate("shift_family")
    system_cert = cert if cert.kind == "periodic" else None
    return GroupTower(levels, bonds, cert), DirectSystem(levels[::-1], bonds[::-1], system_cert)


CERTIFIED = ("doubling", "diag", "period-two", "rank-drop", "torsion", "shift-family")


def analysis_calls(nlevels):
    nb = nlevels - 1
    windows = [None] + list(range(1, nb + 1))
    calls = [(kind, w) for kind in ("lim1", "lim", "colim") for w in windows]
    calls += [("ml", level, w) for level in range(nb) for w in [None] + list(range(1, nb - level + 1))]
    return calls


def outcome(call, tower, system):
    """The comparable content of one analysis: verdicts, reasons, invariants."""
    kind, *args = call
    if kind == "lim1":
        return lim1_class(tower, *args)
    if kind == "lim":
        out = tower_lim(tower, *args)
        return out if isinstance(out, NotStable) else out.invariants
    if kind == "colim":
        out = colim_direct_system(system, *args)
        if isinstance(out, ColimResult):
            return out.group.invariants, out.index, out.note
        return out
    status = ml_status(tower, *args)
    return status.verdict, status.index, status.reason, [g.invariants for g in status.image_chain]


def check_shared_matches_fresh(build, order):
    tower, system = build()
    for call in order:
        assert outcome(call, tower, system) == outcome(call, *build()), call


@settings(max_examples=50)
@given(dense_tower_data(), st.data())
def test_shared_tower_analyses_match_fresh_ones(data, draw):
    order = draw.draw(st.permutations(analysis_calls(len(data[1]))))
    check_shared_matches_fresh(lambda: dense_sequences(data), order)


@settings(max_examples=30)
@given(st.sampled_from(CERTIFIED), st.data())
def test_shared_certified_analyses_match_fresh_ones(name, draw):
    nlevels = len(certified_fixture(name)[0].levels)
    order = draw.draw(st.permutations(analysis_calls(nlevels)))
    check_shared_matches_fresh(lambda: certified_fixture(name), order)


@settings(max_examples=30)
@given(dense_tower_data(), st.data())
def test_late_image_chains_read_matches_early_and_fresh_ones(data, draw):
    # analyses at deeper windows extend the chains the tower keeps; a
    # NotStable read after them still shows the chains it was given
    nb = len(data[2])
    assume(nb >= 2)
    w = draw.draw(st.integers(1, nb - 1))
    tower, _ = dense_sequences(data)
    early = tower_lim(tower, w)
    assume(isinstance(early, NotStable))
    early_chains = early.image_chains
    late = tower_lim(tower, w)
    for deeper in range(w + 1, nb + 1):
        for level in range(nb - deeper + 1):
            ml_status(tower, level, deeper)
        lim1_class(tower, deeper), tower_lim(tower, deeper)
    assert late == early
    assert late.image_chains == early_chains == tower_lim(dense_sequences(data)[0], w).image_chains


def test_read_and_unread_not_stable_compare_equal():
    read, unread = (stable_lim(doubling_tower(3, certified=False)) for _ in range(2))
    assert read.image_chains == (((1, ()),) * 3,)
    assert unread == read


def test_lim1_then_lim_on_one_tower_shares_factorizations(smith_calls, echelon_forms):
    bonds = [
        [[2, 1, 0], [-1, 3, 2], [0, 1, -2]],
        [[1, -2, 3], [2, 0, 1], [-3, 1, 1]],
        [[3, 0, -1], [1, 2, 2], [0, -3, 1]],
    ]
    data = (3, tower_relations([[4, -7, 2], [0, 6, 9]], bonds), bonds)
    (first, _), (second, _), (shared, _) = [dense_sequences(data) for _ in range(3)]
    del smith_calls[:], echelon_forms[:]
    apart = lim1_class(first), tower_lim(second)
    separate = len(smith_calls), len(echelon_forms)
    del smith_calls[:], echelon_forms[:]
    together = lim1_class(shared), tower_lim(shared)
    # an image repeats when it lies inside the next one, which reads the
    # deeper image's Hermite form alone, and a mod-p certificate proves
    # most strict drops without one; the shared tower builds each form
    # once, and no group is factored either way
    assert (len(smith_calls), len(echelon_forms)) == (0, 2)
    assert separate == (0, 4)
    assert together == apart


def fixed_dense_sequences():
    """One fixed tower of five generators and four bonds, with its direct system."""
    rng = random.Random(3)
    bonds = []
    while len(bonds) < 4:
        a = [[rng.randint(-3, 3) for _ in range(5)] for _ in range(5)]
        if abs(bareiss_det(a)) >= 2:
            bonds.append(a)
    relations = [[rng.randint(-9, 9) for _ in range(5)] for _ in range(3)]
    return dense_sequences((5, tower_relations(relations, bonds), bonds))


def test_dense_tower_analyses_make_a_fixed_number_of_factorizations(smith_calls, echelon_forms):
    # the analyses the benchmark's group towers run, on one fixed tower of
    # five generators and four bonds: a count, not a clock, so a return of
    # repeated factorizations fails here on any host
    tower, system = fixed_dense_sequences()
    del smith_calls[:], echelon_forms[:]
    lim1, lim, colim = lim1_class(tower), tower_lim(tower), colim_direct_system(system)
    assert lim1.verdict == "Zero"
    assert isinstance(lim, NotStable) and isinstance(colim, NotFinitelyStable)
    assert (len(smith_calls), len(echelon_forms)) == (0, 4)
    # the NotStable factors the images it shows only when they are read
    lim.image_chains
    assert (len(smith_calls), len(echelon_forms)) == (14, 14)


def test_ml_status_builds_its_image_groups_on_first_read(smith_calls, echelon_forms):
    tower, _ = fixed_dense_sequences()
    del smith_calls[:], echelon_forms[:]
    status = ml_status(tower, 0)
    # the verdict's own Hermite forms only: no image is turned into a group
    assert (len(smith_calls), len(echelon_forms)) == (0, 1)
    # deeper analyses extend the tower's chains; the status still shows
    # the images it observed, as a fresh tower's does
    lim1_class(tower), tower_lim(tower), ml_status(tower, 1)
    del smith_calls[:], echelon_forms[:]
    late = status.image_chain
    # tower_lim kept the deeper of each repeated pair and turned none into
    # a group, so this read builds the shallower image's form itself and
    # all five groups
    assert (len(smith_calls), len(echelon_forms)) == (5, 4)
    fresh = ml_status(fixed_dense_sequences()[0], 0)
    assert status == fresh
    assert [g.invariants for g in late] == [g.invariants for g in fresh.image_chain] == [(2, ())] * 5


def test_certified_analyses_make_a_fixed_number_of_factorizations(smith_calls, echelon_forms):
    # a periodic tower's period map and its stable image are built once per
    # place in the period and shared by every level and by tower_lim;
    # (Smith calls, Hermite forms) per fixture
    expected = {
        "doubling": (2, 6), "diag": (2, 8), "period-two": (1, 4), "rank-drop": (1, 3),
        "torsion": (1, 3),
    }
    counts = {}
    for name in expected:
        tower, _ = certified_fixture(name)
        del smith_calls[:], echelon_forms[:]
        lim1_class(tower), tower_lim(tower)
        counts[name] = (len(smith_calls), len(echelon_forms))
    assert counts == expected


def test_dense_tower_analyses_compose_no_homs(hom_calls):
    # composites live in canonical coordinates and stable_lim pushes stable
    # images through canonical matrices: the only homs the analyses build
    # are the period maps
    tower, system = fixed_dense_sequences()
    del hom_calls[:]
    lim1, lim, _ = lim1_class(tower), tower_lim(tower), colim_direct_system(system)
    # every chain stabilizes; the first bond does not carry one stable image onto the next
    assert lim1.verdict == "Zero" and lim.reason.startswith("the bond does not carry")
    assert hom_calls == []
    counts = {}
    for name in CERTIFIED:
        tower, system = certified_fixture(name)
        del hom_calls[:]
        lim1_class(tower), tower_lim(tower), colim_direct_system(system)
        counts[name] = (hom_calls.count("GroupHom"), hom_calls.count("compose"))
    assert counts == {
        "doubling": (2, 0), "diag": (2, 0), "period-two": (3, 0), "rank-drop": (2, 0),
        "torsion": (2, 0), "shift-family": (0, 0),
    }
    # four levels whose chains repeat at once: stable_lim compares the
    # three stable images without restricting a bond to them
    eye = [[int(i == j) for j in range(3)] for i in range(3)]
    tower, _ = dense_sequences((3, tower_relations([[2, 0, 0]], [eye] * 3), [eye] * 3))
    del hom_calls[:]
    assert tower_lim(tower).invariants == (2, (2,))
    assert hom_calls == []


# -- stable limits against bonds restricted to the stable images -------------


def check_stable_lim_matches_restricted_homs(build):
    for window in [None] + list(range(1, len(build().bonds) + 1)):
        got = stable_lim(build(), window)
        got = got.reason if isinstance(got, NotStable) else got.invariants
        assert got == restricted_stable_lim(build(), window), window


@settings(max_examples=60)
@given(dense_tower_data())
def test_stable_lim_matches_the_restricted_hom_reference(data):
    check_stable_lim_matches_restricted_homs(lambda: dense_sequences(data)[0])


STABLE_LIM_CASES = {
    # the first bond carries Z^2 onto Z, a stable image of another type
    "projection": lambda: GroupTower([Z, Z2, Z2], [hom(Z2, Z, [[1, 0]]), GroupHom.identity(Z2)]),
    # level 0's chain repeats before it drops, so the bond carries the
    # stable image 2Z at level 1 into, not onto, the stable image Z
    "pause-then-drop": lambda: GroupTower([Z] * 3, [GroupHom.identity(Z), hom(Z, Z, [[2]])]),
}


@pytest.mark.parametrize("name", CERTIFIED + tuple(STABLE_LIM_CASES))
def test_named_stable_lims_match_the_restricted_hom_reference(name):
    def build():
        if name in STABLE_LIM_CASES:
            return STABLE_LIM_CASES[name]()
        tower = certified_fixture(name)[0]
        return GroupTower(tower.levels, tower.bonds)

    check_stable_lim_matches_restricted_homs(build)


# -- composites in canonical coordinates against composite homs --------------


@st.composite
def diagonal_endos(draw):
    """An endomorphism of Z^n / diag(m), well defined by construction.

    Entry (r, i) is a multiple of m_r / gcd(m_r, m_i), so the image of
    m_i e_i lies in m_r Z in every row; a torsion generator never
    reaches a free one.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.lists(st.sampled_from((0, 2, 3, 4, 6)), min_size=n, max_size=n))
    matrix = []
    for r in range(n):
        row = []
        for i in range(n):
            x = draw(st.integers(-3, 3))
            if m[r]:
                row.append(x * (m[r] // gcd(m[r], m[i])))
            else:
                row.append(0 if m[i] else x)
        matrix.append(row)
    rels = [[m[i] * (i == j) for j in range(n)] for i in range(n) if m[i]]
    g = FGAbelianGroup(n, IntegerMatrix(rels, ncols=n))
    return GroupHom(g, g, IntegerMatrix(matrix, ncols=n))


@st.composite
def periodic_tail_data(draw):
    """``dense_tower_data`` continued by a certified periodic tail of free groups.

    The tail is Z^n at every level with bonds E_1..E_p repeating, joined
    to the deepest dense level by an arbitrary C (a free source makes
    every matrix a hom), so levels above the offset carry the stable
    image down through dense bonds.
    """
    n, rels, bonds = draw(dense_tower_data())
    join = st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    # small entries make unimodular and nilpotent parts common, so the
    # period map's images often repeat and get carried down
    tail = st.lists(st.lists(st.integers(-1, 1), min_size=n, max_size=n), min_size=n, max_size=n)
    period = draw(st.integers(1, 2))
    return n, rels, bonds, draw(join), draw(st.lists(tail, min_size=period, max_size=period))


def periodic_tail_tower(data):
    n, rels, bonds, join, tail = data
    levels = [FGAbelianGroup(n, IntegerMatrix(r, ncols=n)) for r in rels]
    free = FGAbelianGroup.free(n)
    homs = [hom(levels[i + 1], levels[i], a) for i, a in enumerate(bonds)]
    homs.append(hom(free, levels[-1], join))
    offset = len(levels)
    periodic = [hom(free, free, e) for e in tail]
    homs += periodic + periodic[:1]
    levels += [free] * (len(tail) + 2)
    return GroupTower(levels, homs, Certificate("periodic", offset=offset, period=len(tail)))


def power_chain(endo, count):
    """Images of ``endo``^0..``endo``^count: the image chain of its constant tower."""
    return _image_chain(GroupTower((endo.source,) * (count + 1), (endo,) * count), 0, count)


def check_chains_match_composite_homs(build):
    tower = build()
    for level in range(len(tower.bonds)):
        for depth in range(1, len(tower.bonds) - level + 1):
            chain = [s.generators for s in _image_chain(tower, level, depth)]
            assert chain == composed_image_chain(build(), level, depth), (level, depth)


def check_periodic_images_match_composite_homs(build):
    tower = build()
    cert = tower.certificate
    for level in range(len(tower.levels)):
        base = max(level, cert.offset)
        ours = _periodic_stable_image(tower, level, cert)
        fresh = build()
        _, stable, repeated = _kept_period_image(fresh, base)
        if not repeated:
            assert ours is None
            continue
        carried = Subgroup(fresh.levels[base], stable.generators)
        expected = carried if base == level else composed_carry_down(fresh, level, base, carried)
        assert ours.generators == expected.generators, level


@settings(max_examples=60)
@given(dense_tower_data())
def test_image_chains_match_composite_homs(data):
    check_chains_match_composite_homs(lambda: dense_sequences(data)[0])


@settings(max_examples=40)
@given(periodic_tail_data())
def test_periodic_tails_match_composite_homs(data):
    check_chains_match_composite_homs(lambda: periodic_tail_tower(data))
    check_periodic_images_match_composite_homs(lambda: periodic_tail_tower(data))
    tower = periodic_tail_tower(data)
    endo = _period_endo(tower, tower.certificate, tower.certificate.offset)
    count = _iteration_bound(endo.source)
    assert [s.generators for s in power_chain(endo, count)[1:]] == composed_endo_images(endo, count)


@pytest.mark.parametrize("name", CERTIFIED)
def test_certified_fixtures_match_composite_homs(name):
    check_chains_match_composite_homs(lambda: certified_fixture(name)[0])
    if name != "shift-family":
        check_periodic_images_match_composite_homs(lambda: certified_fixture(name)[0])
    for endo in set(certified_fixture(name)[0].bonds):
        count = _iteration_bound(endo.source)
        ours = [s.generators for s in power_chain(endo, count)[1:]]
        assert ours == composed_endo_images(endo, count)


@settings(max_examples=80)
@given(diagonal_endos())
def test_endo_powers_match_composite_homs(endo):
    count = _iteration_bound(endo.source)
    ours = [s.generators for s in power_chain(endo, count)[1:]]
    assert ours == composed_endo_images(endo, count)


@st.composite
def canonical_endos(draw):
    """(f, torsion, matrix): an endomorphism of ``from_invariants(f, torsion)``, f <= 3.

    The torsion is a chain of at most two invariants.  Free columns are
    arbitrary; a torsion column of order t_i has zero free entries and,
    in the row of order t_r, a multiple of t_r / gcd(t_r, t_i), so the
    matrix is well defined.
    """
    f = draw(st.integers(0, 3))
    torsion = []
    for _ in range(draw(st.integers(0, 2))):
        step = st.sampled_from((2, 3, 4)) if not torsion else st.integers(1, 3)
        torsion.append(draw(step) * (torsion[-1] if torsion else 1))
    orders = [0] * f + torsion
    matrix = []
    for r in orders:
        row = []
        for i in orders:
            x = draw(st.integers(-2, 2))
            row.append(x if not i else 0 if not r else x * (r // gcd(r, i)))
        matrix.append(row)
    return f, tuple(torsion), matrix


@settings(max_examples=80, derandomize=True)
@example((2, (2,), [[1, 0, 0], [0, 0, 0], [0, 0, 1]]))
@given(canonical_endos())
def test_certified_and_uncertified_analyses_agree_where_the_window_decides(case):
    # from_invariants(2, (2,)) swaps its two free coordinates, so a period
    # map hosted on any group other than the level itself read this
    # tower's certified chain in the wrong coordinates
    f, torsion, rows = case
    group = FGAbelianGroup.from_invariants(f, torsion)
    endo = hom(group, group, rows)
    plain = GroupTower([group] * 4, [endo] * 3)
    certified = GroupTower([group] * 4, [endo] * 3, Certificate("periodic"))
    for level in range(3):
        seen = ml_status(plain, level)
        if seen.verdict == "Stabilized":
            status = ml_status(certified, level)
            assert (status.verdict, status.index) == ("Stabilized", seen.index), level
            assert status.reason == "image chain reaches the certified eventual image"
    assert tower_lim(certified).invariants == periodic_lim(group, endo).invariants


def test_corrupted_bond_fails_the_composite_check():
    # bond 1 is x -> 2x from Z/2 into Z/4; a kept canonical matrix of [1]
    # would send the generator of order 2 to one of order 4
    z4, z2 = FGAbelianGroup.from_invariants(0, (4,)), FGAbelianGroup.from_invariants(0, (2,))
    status = ml_status(GroupTower([z4, z4, z2], [GroupHom.identity(z4), hom(z2, z4, [[2]])]), 0)
    assert (status.verdict, status.index) == ("Stabilized", 0)
    assert [g.invariants for g in status.image_chain] == [(0, (4,)), (0, (4,)), (0, (2,))]
    tampered = GroupTower([z4, z4, z2], [GroupHom.identity(z4), hom(z2, z4, [[2]])])
    tampered.bonds[1]._canonical = IntegerMatrix([[1]])
    with pytest.raises(AssertionError, match="^composite does not carry source relations"):
        ml_status(tampered, 0)


def test_corrupted_period_map_fails_the_composite_check():
    # on Z/2 + Z/4 the endomorphism sends e0 to 2 e1 and fixes e1; a kept
    # canonical matrix sending e0 to e1 would give it order 4
    g = FGAbelianGroup.from_invariants(0, (2, 4))
    assert periodic_lim(g, GroupHom(g, g, IntegerMatrix([[0, 0], [2, 1]]))).invariants == (0, (4,))
    endo = GroupHom(g, g, IntegerMatrix([[0, 0], [2, 1]]))
    endo._canonical = IntegerMatrix([[0, 0], [1, 1]])
    with pytest.raises(AssertionError, match="^composite does not carry source relations"):
        periodic_lim(g, endo)


@pytest.mark.parametrize("cls, name", [(GroupTower, "tower"), (DirectSystem, "direct system")])
def test_sequences_reject_missing_levels_bonds_and_periods(cls, name):
    with pytest.raises(ValueError, match=f"^a {name} needs at least one level$"):
        cls([], [])
    pairs = f"^a {name} needs exactly one bond per adjacent pair of levels$"
    with pytest.raises(ValueError, match=pairs):
        cls([Z, Z], [])
    with pytest.raises(ValueError, match="^periodic certificate needs one full period of levels$"):
        cls([Z, Z], [GroupHom.identity(Z)], Certificate("periodic", offset=1))
    double, triple = hom(Z, Z, [[2]]), hom(Z, Z, [[3]])
    differ = "^certificate contradicted: bonds 0 and 1 differ canonically$"
    with pytest.raises(ValueError, match=differ):
        cls([Z] * 4, [double, triple, double], Certificate("periodic"))


def test_periodic_bond_that_kills_a_summand_is_undetermined():
    # the images fall from Z^2 to Z and stay there, but the certified
    # period map is neither eventually repeating nor injective
    squash = hom(Z2, Z2, [[2, 0], [0, 0]])
    t = GroupTower([Z2] * 3, [squash] * 2, Certificate("periodic"))
    status = ml_status(t, 0)
    assert status.verdict == "UndeterminedWithinWindow" and status.index is None
    assert status.reason == "certified pattern does not settle the chain at this level"


def test_shift_family_past_a_non_injective_first_bond_reads_the_window():
    # bond 0 is zero, so the certificate's strict descent does not reach
    # level 0; the window alone decides there
    bonds = [hom(Z, Z, [[0]]), hom(Z, Z, [[2]]), hom(Z, Z, [[2]])]
    t = GroupTower([Z] * 4, bonds, Certificate("shift_family", offset=1))
    assert (ml_status(t, 0).verdict, ml_status(t, 0).index) == ("Stabilized", 1)
    assert ml_status(t, 0, 1).verdict == "UndeterminedWithinWindow"
    assert ml_status(t, 0, 1).reason == "certified pattern does not settle the chain at this level"


# -- repeats decided by descent, against the both-forms reference ------------


@st.composite
def diagonal_drop_data(draw, diagonal):
    """A tower of Z^n / R_i whose bonds are L D U: unitriangular L and U, D diagonal over ``diagonal``.

    A bond's image in Z^n has rank n less the zeros of D and, at full
    rank, index the product of D's entries, so the entries decide at
    which primes the drops along an image chain can be seen.
    """
    n = draw(st.integers(2, 3))
    entry = st.integers(-2, 2)

    def bond():
        lower = [[1 if i == j else draw(entry) if i > j else 0 for j in range(n)] for i in range(n)]
        upper = [[1 if i == j else draw(entry) if i < j else 0 for j in range(n)] for i in range(n)]
        d = draw(st.lists(st.sampled_from(diagonal), min_size=n, max_size=n))
        scaled = dense_product(lower, [[x * (i == j) for j in range(n)] for i, x in enumerate(d)], n)
        return dense_product(scaled, upper, n)

    bonds = [bond() for _ in range(draw(st.integers(1, 3)))]
    relations = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), max_size=n))
    return n, tower_relations(relations, bonds), bonds


def check_repeats_match_both_forms(data):
    tower, fresh = (dense_sequences(data)[0] for _ in range(2))
    chains = []
    for level in range(len(tower.bonds)):
        depth = len(tower.bonds) - level
        reference = _image_chain(fresh, level, depth)
        assert _first_repeat(tower, level, depth) == both_forms_first_repeat(reference)
        chain = _image_chain(tower, level, depth)
        chains.append(chain)
        # the premise of the descent test: each image lies inside the one before
        for deep, shallow in zip(chain[1:], chain):
            assert deep.is_subset_of(shallow) and smith_is_subset(deep, shallow)
    return chains


@settings(max_examples=40)
@given(dense_tower_data())
def test_first_repeat_matches_the_both_forms_reference(data):
    check_repeats_match_both_forms(data)


@settings(max_examples=30)
@given(diagonal_drop_data((0, 1, 1, 2, 3, 5)))
def test_first_repeat_matches_the_both_forms_reference_on_rank_drops(data):
    check_repeats_match_both_forms(data)


@settings(max_examples=30)
@given(diagonal_drop_data((1, 1, 5, 7)))
def test_drops_of_index_five_and_seven_are_decided_by_hermite_forms(data):
    # bonds invertible mod 2 and 3 keep every image whole mod 2 and 3,
    # so no certificate fires and the forms decide every step
    for chain in check_repeats_match_both_forms(data):
        assert not any(shallow._escapes_mod_p(deep) for deep, shallow in zip(chain[1:], chain))


def test_a_tower_of_index_five_and_seven_drops_falls_without_a_certificate():
    z2 = FGAbelianGroup.free(2)
    bonds = [hom(z2, z2, [[5, 0], [0, 1]]), hom(z2, z2, [[1, 0], [0, 7]]), hom(z2, z2, [[1, 0], [0, 1]])]
    tower = GroupTower([z2] * 4, bonds)
    chain = _image_chain(tower, 0, 3)
    assert [s.as_group().invariants for s in chain] == [(2, ())] * 4
    assert not any(shallow._escapes_mod_p(deep) for deep, shallow in zip(chain[1:], chain))
    assert _first_repeat(tower, 0, 3) == 2 == both_forms_first_repeat(chain)


def check_lim1_builds_no_image_past_a_repeat(build):
    tower, fresh = build(), build()
    lim1_class(tower)
    for level in range(len(tower.bonds)):
        depth = len(tower.bonds) - level
        reference = [Subgroup(fresh.levels[level], g) for g in composed_image_chain(fresh, level, depth)]
        repeat = both_forms_first_repeat(reference)
        assert len(tower._chains[level]) == (depth + 1 if repeat is None else repeat + 2), level
    # the analyses that show chains still take them to the whole window
    for level in range(len(tower.bonds)):
        status = ml_status(tower, level)
        assert len(status.image_chain) == len(tower.bonds) - level + 1
        assert status == ml_status(build(), level)
    assert stable_lim(tower) == stable_lim(build())


@settings(max_examples=40)
@given(dense_tower_data())
def test_lim1_builds_no_image_past_a_repeat(data):
    check_lim1_builds_no_image_past_a_repeat(lambda: dense_sequences(data)[0])


def test_lim1_stops_a_chain_of_identities_at_its_first_entry():
    build = lambda: GroupTower([Z] * 4, [GroupHom.identity(Z)] * 3)
    check_lim1_builds_no_image_past_a_repeat(build)
    tower = build()
    lim1_class(tower)
    assert [len(chain) for chain in tower._chains[:3]] == [2, 2, 2]


def check_periodic_lim1_builds_no_image_past_the_stable_index(build):
    # a level whose chain reaches the certified eventual image keeps the
    # chain to that index, or to the carry-down from the pattern's first
    # level when that is deeper
    tower = build()
    lim1_class(tower)
    offset = tower.certificate.offset
    for level in range(len(tower.bonds)):
        status = ml_status(build(), level)
        if status.index is not None:
            depth = max(status.index, max(level, offset) - level)
            assert len(tower._chains[level]) == depth + 1, level
        assert ml_status(tower, level) == status


@pytest.mark.parametrize("name", ["period-two", "rank-drop", "torsion"])
def test_periodic_lim1_builds_no_image_past_the_stable_index(name):
    check_periodic_lim1_builds_no_image_past_the_stable_index(lambda: certified_fixture(name)[0])


@settings(max_examples=30)
@given(periodic_tail_data())
def test_periodic_tails_build_no_image_past_the_stable_index(data):
    check_periodic_lim1_builds_no_image_past_the_stable_index(lambda: periodic_tail_tower(data))


def check_stable_endo_image_matches_both_forms(endo):
    bound = _iteration_bound(endo.source)
    stable, repeated = _stable_endo_image(endo)
    assert (stable.generators, repeated) == both_forms_stable_endo_image(endo, bound)
    images = power_chain(endo, bound)
    assert [s.generators for s in images[1:]] == composed_endo_images(endo, bound)
    for deep, shallow in zip(images[1:], images):
        assert deep.is_subset_of(shallow) and smith_is_subset(deep, shallow)


@settings(max_examples=60)
@given(diagonal_endos())
def test_stable_endo_image_matches_the_both_forms_reference(endo):
    check_stable_endo_image_matches_both_forms(endo)


@pytest.mark.parametrize("name", CERTIFIED)
def test_certified_stable_endo_images_match_the_both_forms_reference(name):
    for endo in set(certified_fixture(name)[0].bonds):
        check_stable_endo_image_matches_both_forms(endo)
