from __future__ import annotations

import gc
import hashlib
import os
import random
import re
import subprocess
import sys
import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import towertop.simplicial as simplicial
from towertop.abelian import IntegerMatrix
from towertop.simplicial import (
    SimplicialComplex,
    SimplicialMap,
    boundary_matrix,
    cohomology,
    finite_telescope,
    homology,
    induced_cohomology_map,
    induced_map,
    label_key,
    mapping_cylinder,
    pinched_telescope,
    preimage_subcomplex,
    simplex_key,
    sort_simplex,
    validate_complex,
)

from generators import (
    SimpleTower,
    circle_power_tower,
    constant_tower,
    disjoint_points,
    disks_on_a_triangle,
    grid_torus,
    hollow_triangle,
    polygon,
    polygon_wrap,
    projective_plane,
    random_complex,
    random_simplicial_map,
    random_tower,
    tetra_sphere,
    torus_7,
)
from oracles import (
    augmentation_matrix,
    axpy_representatives,
    bareiss_det,
    bareiss_rank,
    betti_from_boundaries,
    chain_map_matrix,
    cylinder_by_hand,
    dense_homology,
    dense_matvec,
    determinantal_invariant_factors,
    equal_hom,
    inline_chain_map_rows,
    integer_span,
    inline_simplex_order,
    matvec_induced_columns,
    minor_gcd,
    mod_p_rank,
    to_canonical,
    two_closure_telescope,
)


def betti(k, n):
    """Independent Betti number: rank-nullity on boundary matrices."""
    c_n = len(k.n_simplexes(n))
    return (c_n - bareiss_rank(boundary_matrix(k, n).rows)) - bareiss_rank(
        boundary_matrix(k, n + 1).rows
    )


def test_validate_complex():
    assert validate_complex(hollow_triangle()) is None
    broken = SimplicialComplex([(1, 2), (1,)])  # missing vertex 2 and face (2,)
    v = validate_complex(broken)
    assert v is not None and v.kind == "missing face"


LABELS = st.recursive(
    st.integers(-3, 3) | st.sampled_from("abc"),
    lambda inner: st.tuples(inner) | st.tuples(inner, inner),
    max_leaves=3,
)


@st.composite
def damaged_simplex_sets(draw) -> list:
    """A face-closed complex's simplexes with some dropped and raw ones added.

    The raw additions may be empty or repeat a vertex, and a dropped
    simplex leaves its cofaces with a missing face.
    """
    maximal = draw(st.lists(st.lists(LABELS, min_size=1, max_size=4), max_size=5))
    closed = sorted(SimplicialComplex.from_maximal(maximal).simplexes, key=repr)
    dropped = draw(st.sets(st.integers(0, max(len(closed) - 1, 0)), max_size=2))
    pool = st.sampled_from((0, 1, "a", (0,)))  # few labels, so repeats are common
    raw = draw(st.lists(st.lists(pool, max_size=4).map(tuple), max_size=3))
    return [s for i, s in enumerate(closed) if i not in dropped] + raw


def inline_first_violation(simplexes):
    """(kind, simplex) of the first malformed simplex in the inline order, or None."""
    for s in inline_simplex_order(simplexes):
        if not s:
            return ("empty simplex", s)
        if len(set(s)) != len(s):
            return ("repeated vertex", s)
        if len(s) > 1 and any(f not in simplexes for f in combinations(s, len(s) - 1)):
            return ("missing face", s)
    return None


@given(damaged_simplex_sets())
def test_shared_order_matches_the_inline_sort(simplexes):
    k = SimplicialComplex(simplexes)
    assert k.ordered() == inline_simplex_order(k.simplexes)
    assert k.ordered() == sorted(k.simplexes, key=simplex_key)
    bad = validate_complex(k)
    expected = inline_first_violation(k.simplexes)
    assert (None if bad is None else (bad.kind, bad.simplex)) == expected


def test_a_dimension_is_sorted_when_it_is_first_read():
    k = SimplicialComplex.from_maximal([tuple(range(10, -1, -1))])
    # H_1 of the closed 10-simplex reads dimensions 0-2: 231 of its 2 047 faces
    assert [len(k.n_simplexes(n)) for n in (2, 0, 1)] == [165, 11, 55]
    assert sorted(k._by_dim) == [0, 1, 2]
    inline = inline_simplex_order(k.simplexes)
    for n in (7, -1, 2, 10, 11, 0):
        assert k.n_simplexes(n) == [s for s in inline if len(s) == n + 1]
    assert k.ordered() == inline


HASH_SEEDED_WITNESSES = (
    (
        "from towertop.simplicial import SimplicialComplex, SimplicialMap\n"
        "source = SimplicialComplex.from_maximal([('c', 'd'), ('a', 'b')])\n"
        "target = SimplicialComplex.from_maximal([], extra_vertices='abcd')\n"
        "SimplicialMap(source, target, {v: v for v in 'abcd'})\n",
        "ValueError: simplex ('a', 'b') has non-simplex image",
    ),
    (
        "from towertop.assembly import petkova_report\n"
        "from towertop.simplicial import SimplicialComplex\n"
        "stages = [[('c', 'd'), ('a', 'b')], [('x', 'y')]]\n"
        "petkova_report([SimplicialComplex.from_maximal(s) for s in stages], 0)\n",
        "ValueError: stage 0 is not contained in stage 1: witness ('a',)",
    ),
)


@pytest.mark.parametrize(
    "script, message", HASH_SEEDED_WITNESSES, ids=("simplicial-map", "petkova-stage")
)
def test_error_witnesses_do_not_depend_on_the_hash_seed(script, message):
    # frozenset iteration order follows the string hash seed; the witness
    # named must be the first offender in simplex order under every seed
    for seed in range(1, 6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed)}
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env
        )
        assert proc.stderr.splitlines()[-1] == message, seed


def test_edge_boundary_sign_convention():
    # boundary of (a, b) with a < b is b - a
    m = boundary_matrix(SimplicialComplex.from_maximal([("a", "b")]), 1)
    assert m.rows == ((-1,), (1,))


def test_boundary_squares_to_zero_random():
    rng = random.Random(1234)
    for _ in range(40):
        k = random_complex(rng)
        for n in range(1, k.dimension() + 1):
            prod = boundary_matrix(k, n) * boundary_matrix(k, n + 1)
            assert prod.is_zero()


def test_circle_homology():
    c = hollow_triangle()
    assert homology(c, 0).group.invariants == (1, ())
    assert homology(c, 1).group.invariants == (1, ())
    assert homology(c, 2).group.is_trivial()
    rep = homology(c, 1).representatives[0]
    # the generating cycle uses all three edges
    assert sorted(len(s) for s in rep) == [2, 2, 2]


def test_sphere_homology():
    s = tetra_sphere()
    assert homology(s, 0).group.invariants == (1, ())
    assert homology(s, 1).group.is_trivial()
    assert homology(s, 2).group.invariants == (1, ())


def test_projective_plane_homology_with_oracles():
    rp2 = projective_plane()
    # independent Betti numbers: 1, 0, 0
    assert betti(rp2, 0) == 1 and betti(rp2, 1) == 0 and betti(rp2, 2) == 0
    # mod-2 and mod-3 chain ranks pin the torsion to a single 2-group
    d1, d2 = boundary_matrix(rp2, 1), boundary_matrix(rp2, 2)
    h1_f2 = (15 - mod_p_rank(d1.rows, 2)) - mod_p_rank(d2.rows, 2)
    h1_f3 = (15 - mod_p_rank(d1.rows, 3)) - mod_p_rank(d2.rows, 3)
    assert (h1_f2, h1_f3) == (1, 0)
    # product of the invariant factors of d2 is the gcd of its 10x10 minors
    assert minor_gcd(d2.rows, 10) == 2
    assert homology(rp2, 0).group.invariants == (1, ())
    assert homology(rp2, 1).group.invariants == (0, (2,))
    assert homology(rp2, 2).group.is_trivial()


def test_projective_plane_cohomology():
    rp2 = projective_plane()
    assert cohomology(rp2, 0).group.invariants == (1, ())
    assert cohomology(rp2, 1).group.is_trivial()
    assert cohomology(rp2, 2).group.invariants == (0, (2,))


def test_torus_homology():
    t = torus_7()
    assert betti(t, 0) == 1 and betti(t, 1) == 2 and betti(t, 2) == 1
    d1, d2 = boundary_matrix(t, 1), boundary_matrix(t, 2)
    for p in (2, 3):
        assert (21 - mod_p_rank(d1.rows, p)) - mod_p_rank(d2.rows, p) == 2
    assert homology(t, 0).group.invariants == (1, ())
    assert homology(t, 1).group.invariants == (2, ())
    assert homology(t, 2).group.invariants == (1, ())
    assert cohomology(t, 1).group.invariants == (2, ())
    assert cohomology(t, 2).group.invariants == (1, ())


def test_reduced_homology():
    pts = disjoint_points(4)
    assert homology(pts, 0).group.invariants == (4, ())
    assert homology(pts, 0, reduced=True).group.invariants == (3, ())
    assert homology(hollow_triangle(), 0, reduced=True).group.is_trivial()
    # reduced changes nothing above dimension 0
    t = torus_7()
    assert homology(t, 1, reduced=True).group.invariants == (2, ())


def test_euler_characteristic_matches_ranks():
    rng = random.Random(88)
    for _ in range(20):
        k = random_complex(rng, max_vertices=6, max_cells=7)
        chi = k.euler_characteristic()
        alt = sum(
            (-1) ** n * homology(k, n).group.free_rank for n in range(k.dimension() + 1)
        )
        assert chi == alt


def test_degree_two_circle_map():
    f = polygon_wrap(6, 3)
    hom = induced_map(f, 1)
    entry = hom.canonical_matrix().rows[0][0]
    assert abs(entry) == 2
    # degree multiplies under composition: 12-gon -> 6-gon -> 3-gon
    g = polygon_wrap(12, 6)
    comp = hom.compose(induced_map(g, 1))
    assert abs(comp.canonical_matrix().rows[0][0]) == 4


def test_collapsed_simplexes_map_to_zero():
    c = hollow_triangle()
    point = disjoint_points(1)
    collapse = SimplicialMap(c, point, {1: 0, 2: 0, 3: 0})
    assert chain_map_matrix(collapse, 1).is_zero()
    assert induced_map(collapse, 1).canonical_matrix().is_zero()


def test_induced_map_between_computed_ends_factors_nothing(smith_calls):
    f = polygon_wrap(6, 3)
    for n in (-1, 0, 1, 2):
        for reduced in (False, True):
            homology(f.source, n, reduced), homology(f.target, n, reduced)
        cohomology(f.target, n), cohomology(f.source, n)
        del smith_calls[:]
        homs = [induced_map(f, n), induced_map(f, n, reduced=True), induced_cohomology_map(f, n)]
        assert smith_calls == []
        # a fresh copy of the map computes its ends anew and gets the same maps
        cold = polygon_wrap(6, 3)
        expected = [
            induced_map(cold, n), induced_map(cold, n, reduced=True), induced_cohomology_map(cold, n)
        ]
        assert all(equal_hom(h, e) for h, e in zip(homs, expected))


def test_kept_results_are_shared_and_read_only():
    c = hollow_triangle()
    for read in (lambda: homology(c, 1), lambda: cohomology(c, 1), lambda: homology(c, 0)):
        h = read()
        assert read() is h
        rep = h.representatives[0]
        with pytest.raises(TypeError):
            rep[(1, 2)] = 7
        with pytest.raises(TypeError):
            del rep[next(iter(rep))]


def complex_maps(k, n) -> dict:
    """(outgoing map, incoming map) of H_n, reduced H_n and H^n of k, by kind."""
    down, up = boundary_matrix(k, n), boundary_matrix(k, n + 1)
    reduced = augmentation_matrix(k) if n == 0 and k.n_simplexes(0) else down
    return {
        "homology": (down, up),
        "reduced": (reduced, up),
        "cohomology": (up.transpose(), down.transpose()),
    }


def quotient_cases(k, n):
    """(result, outgoing map, incoming map) for H_n, reduced H_n and H^n of k.

    Each result is computed on its own copy of k, so none of them is a
    result that k kept from an earlier case.
    """
    maps = complex_maps(k, n)
    return (
        (homology(SimplicialComplex(k.simplexes), n), *maps["homology"]),
        (homology(SimplicialComplex(k.simplexes), n, reduced=True), *maps["reduced"]),
        (cohomology(SimplicialComplex(k.simplexes), n), *maps["cohomology"]),
    )


def lift(h, coords) -> list:
    """The chain over ``h.basis`` that coordinates ``coords`` name over ``h.cycle_columns``."""
    return [sum(c * col[i] for c, col in zip(coords, h.cycle_columns)) for i in range(len(h.basis))]


def check_cycle_coordinates(h, outgoing, incoming, rng):
    """``h`` against the dense path, and its class coordinates against a solve over Z.

    The group must have the dense path's invariants.  The chains tried
    are the incoming boundaries, the cycle columns, the dense path's
    cycle basis, five random chains and five random cycles: a chain has
    coordinates exactly when the outgoing map kills it, a cycle column
    has its unit vector, a boundary's class is zero, and a chain minus
    the lift of its coordinates is a boundary.  Each cycle column leads
    with a positive entry in simplex order.
    """
    group, dense_cycles, _ = dense_homology(outgoing, incoming)
    assert h.group.invariants == group.invariants
    assert all(next(filter(None, col)) > 0 for col in h.cycle_columns)
    boundaries = list(incoming.transpose().rows)
    is_boundary = integer_span(boundaries, len(h.basis))
    for j, col in enumerate(h.cycle_columns):
        assert h.cycle_coordinates(col) == tuple(int(i == j) for i in range(len(h.cycle_columns)))
    for col in boundaries:
        assert not any(to_canonical(h.group, h.cycle_coordinates(col)))
    chains = [[rng.randint(-3, 3) for _ in h.basis] for _ in range(5)]
    for _ in range(5):
        weights = [rng.randint(-2, 2) for _ in dense_cycles]
        chains.append([sum(w * c[i] for w, c in zip(weights, dense_cycles)) for i in range(len(h.basis))])
    for chain in boundaries + dense_cycles + chains:
        coords = h.cycle_coordinates(chain)
        assert (coords is None) == any(dense_matvec(outgoing.rows, chain))
        if coords is not None:
            assert is_boundary([a - b for a, b in zip(chain, lift(h, coords))])
    for wrong in (len(h.basis) + 1, len(h.basis) - 1):
        if wrong >= 0:
            with pytest.raises(ValueError, match="^vector length mismatch$"):
                h.cycle_coordinates([1] * wrong)


def test_cycle_coordinates_read_classes_against_the_dense_path():
    rng = random.Random(606)
    for _ in range(30):
        k = random_complex(rng, max_vertices=5, max_cells=4, max_card=3)
        for n in range(-1, k.dimension() + 2):
            for h, outgoing, incoming in quotient_cases(k, n):
                check_cycle_coordinates(h, outgoing, incoming, rng)
                torsion = [d for d in determinantal_invariant_factors(incoming.rows) if d > 1]
                betti = betti_from_boundaries(outgoing.rows, incoming.rows, len(h.basis))
                assert h.group.invariants == (betti, tuple(torsion))
    # larger sparse matrices: a grid torus and a depth-2 solenoid telescope,
    # which deformation retracts to its coarsest circle
    telescope = finite_telescope(circle_power_tower(2, 3), 2).complex
    for k, betti_numbers in ((grid_torus(6), (1, 2, 1)), (telescope, (1, 1, 0))):
        for n in range(-1, k.dimension() + 2):
            for h, outgoing, incoming in quotient_cases(k, n):
                check_cycle_coordinates(h, outgoing, incoming, rng)
            expected = betti_numbers[n] if 0 <= n < len(betti_numbers) else 0
            assert homology(k, n).group.invariants == (expected, ())


def test_a_residual_map_with_a_triangular_transform_reads_cycles_off_u_rows():
    # disks attached along maps of degree 2 and 4 leave the residual map
    # (2 4) on one loop; its transpose factors with U = ((1, 0), (-2, 1)),
    # whose rows and columns differ, so cycles read off U's columns, or
    # classes off U^-1's columns, would fail against the dense path
    k = disks_on_a_triangle(2, 4)
    assert [homology(k, n).group.describe() for n in range(4)] == ["Z", "Z/2", "Z", "0"]
    rng = random.Random(24)
    for h, outgoing, incoming in quotient_cases(k, 2):
        check_cycle_coordinates(h, outgoing, incoming, rng)


@st.composite
def reducible_complexes(draw) -> SimplicialComplex:
    """A small random complex, a grid torus, RP^2, or a finite or pinched solenoid telescope."""
    kind = draw(st.sampled_from(("random", "torus", "rp2", "telescope", "pinched")))
    if kind == "random":
        return random_complex(random.Random(draw(st.integers(0, 2**16))), 6, 6, 4)
    if kind == "torus":
        return grid_torus(3)
    if kind == "rp2":
        return projective_plane()
    build = finite_telescope if kind == "telescope" else pinched_telescope
    return build(circle_power_tower(draw(st.integers(2, 3)), 2), draw(st.integers(0, 1))).complex


@settings(max_examples=30)
@given(reducible_complexes(), st.randoms(use_true_random=False))
def test_reduced_homology_matches_the_dense_path(k, rng):
    for n in range(-1, k.dimension() + 2):
        for h, outgoing, incoming in quotient_cases(k, n):
            check_cycle_coordinates(h, outgoing, incoming, rng)


def smith_digest(matrices) -> tuple:
    """(count, sha256 over every matrix's rows and width in order) of Smith inputs."""
    digest = hashlib.sha256()
    for m in matrices:
        digest.update(repr((m.rows, m.ncols)).encode())
    return len(matrices), digest.hexdigest()


def test_torus_h1_and_comb_steenrod_h0_factor_the_pinned_matrices(smith_calls):
    # the reduction leaves one vertex, two edges and one triangle of the
    # 6 x 6 torus, so Smith sees only the 2 x 1 transposed residual
    # boundary map and the 2 x 1 transposed relations (108 x 36 and 73 x 72
    # unreduced)
    from towertop.assembly import steenrod_report
    from towertop.compactohedral import build_gallery

    homology(grid_torus(6), 1)
    assert [(m.nrows, m.ncols) for m in smith_calls] == [(2, 1), (2, 1)]
    assert smith_digest(smith_calls) == (
        2, "fd9baf1240ed766cdf06603ad42fdb6f1f4fb63a8cf5e447b35f85a697192232"
    )
    del smith_calls[:]
    # the level homologies and the groups the report shows; the image
    # comparisons and the stable images' types go through Hermite forms
    # and factor nothing
    steenrod_report(build_gallery("comb", teeth=4, depth=2), 0)
    assert smith_digest(smith_calls) == (
        13, "20c54c3a7842ff2814e640deccab60fc29230ee517700016997c905e2c415314"
    )
    assert max(m.nrows * m.ncols for m in smith_calls) == 3


def test_homology_factors_the_outgoing_map_and_the_relations_only(smith_calls):
    for k in (hollow_triangle(), projective_plane(), torus_7(), disjoint_points(3)):
        for n in range(k.dimension() + 2):
            del smith_calls[:]
            cases = quotient_cases(k, n)
            assert len(smith_calls) == 2 * len(cases)
            # the first of each pair is the transposed residual outgoing map,
            # one row per residual n-cell, no larger than the whole map
            for kind, (_, outgoing, _), residual in zip(("homology", "reduced", "cohomology"), cases, smith_calls[::2]):
                reduction = simplicial._reduction(k, kind.replace("reduced", "homology"), n, kind == "reduced" and n == 0)
                _, cells, cells_below = reduction.residual_cells()
                rows = [[dict(column).get(i, 0) for i in cells_below] for column in reduction.residual[1]]
                assert residual == IntegerMatrix(rows, ncols=len(cells_below))
                assert (residual.nrows, residual.ncols) == (len(cells), len(cells_below))
                assert residual.nrows <= outgoing.ncols and residual.ncols <= outgoing.nrows
            # a kept result is read again, and reduced H_n is H_n above dimension 0
            first = homology(k, n, reduced=True)
            del smith_calls[:]
            assert homology(k, n, reduced=True) is first and smith_calls == []
            assert (homology(k, n) is first) == (n > 0)


def test_induced_functoriality_random():
    rng = random.Random(2718)
    done = 0
    while done < 25:
        k = random_complex(rng, max_vertices=6, max_cells=6, max_card=3)
        f = random_simplicial_map(rng, k)
        g = random_simplicial_map(rng, f.target)
        gf = g.compose(f)
        for n in range(0, 2):
            left = induced_map(gf, n)
            right = induced_map(g, n).compose(induced_map(f, n))
            assert equal_hom(left, right)
        done += 1


def test_induced_identity_is_identity():
    for k in (hollow_triangle(), torus_7(), projective_plane()):
        for n in range(0, 3):
            h = induced_map(SimplicialMap.identity(k), n)
            assert h.is_injective() and h.is_surjective()


def test_contravariant_cohomology_functoriality():
    rng = random.Random(3141)
    done = 0
    while done < 15:
        k = random_complex(rng, max_vertices=5, max_cells=5, max_card=3)
        f = random_simplicial_map(rng, k)
        g = random_simplicial_map(rng, f.target)
        gf = g.compose(f)
        for n in range(0, 2):
            left = induced_cohomology_map(gf, n)
            right = induced_cohomology_map(f, n).compose(induced_cohomology_map(g, n))
            assert equal_hom(left, right)
        done += 1


def test_mapping_cylinder_degree_two():
    f = polygon_wrap(6, 3)
    cyl, src, tgt = mapping_cylinder(f)
    assert validate_complex(cyl) is None
    # target inclusion is a homology isomorphism
    for n in range(0, 3):
        assert induced_map(tgt, n).is_isomorphism()
    # source inclusion factors through f on homology
    for n in range(0, 2):
        left = induced_map(src, n)
        right = induced_map(tgt, n).compose(induced_map(f, n))
        assert equal_hom(left, right)


def test_mapping_cylinder_random_maps():
    rng = random.Random(909)
    done = 0
    while done < 12:
        k = random_complex(rng, max_vertices=5, max_cells=5, max_card=3)
        f = random_simplicial_map(rng, k)
        cyl, src, tgt = mapping_cylinder(f)
        assert validate_complex(cyl) is None
        for n in range(0, 3):
            assert induced_map(tgt, n).is_isomorphism()
            left = induced_map(src, n)
            right = induced_map(tgt, n).compose(induced_map(f, n))
            assert equal_hom(left, right)
        done += 1


def test_finite_telescope_retracts_to_level_zero():
    tower = circle_power_tower(2, 3)
    tele = finite_telescope(tower, 2)
    assert validate_complex(tele.complex) is None
    assert homology(tele.complex, 1).group.invariants == (1, ())
    assert homology(tele.complex, 0).group.invariants == (1, ())
    # level-0 inclusion is an isomorphism on homology
    assert induced_map(tele.level_embeddings[0], 1).is_isomorphism()


def test_telescope_deep_level_realizes_composite_bond():
    tower = circle_power_tower(2, 3)
    tele = finite_telescope(tower, 2)
    composite = induced_map(tower.bonds[0], 1).compose(induced_map(tower.bonds[1], 1))
    left = induced_map(tele.level_embeddings[2], 1)
    right = induced_map(tele.level_embeddings[0], 1).compose(composite)
    assert equal_hom(left, right)


def test_telescope_depth_zero_is_level_copy():
    tower = constant_tower(hollow_triangle(), 2)
    tele = finite_telescope(tower, 0)
    assert homology(tele.complex, 1).group.invariants == (1, ())
    with pytest.raises(ValueError):
        finite_telescope(tower, 5)


def test_pinched_telescope_dyadic():
    # cone over the deepest circle of the dyadic telescope: the composite
    # bond has degree 4, and the long exact sequence of the pair collapses
    # to 0 -> H_1 -> Z --(x4)--> Z -> H_0-reduced; so H_1 = Z/4, frozen here
    tower = circle_power_tower(2, 3)
    pinched = pinched_telescope(tower, 2)
    assert validate_complex(pinched.complex) is None
    h1 = homology(pinched.complex, 1)
    assert h1.group.invariants == (0, (4,))
    # independent structure checks: betti_1 = 0 and a single 2-power summand
    assert betti(pinched.complex, 1) == 0
    d1 = boundary_matrix(pinched.complex, 1)
    d2 = boundary_matrix(pinched.complex, 2)
    c1 = len(pinched.complex.n_simplexes(1))
    assert (c1 - mod_p_rank(d1.rows, 2)) - mod_p_rank(d2.rows, 2) == 1
    assert (c1 - mod_p_rank(d1.rows, 3)) - mod_p_rank(d2.rows, 3) == 0
    assert homology(pinched.complex, 0, reduced=True).group.is_trivial()


def test_pinched_constant_circle_tower_is_disc():
    tower = constant_tower(polygon(3), 3)
    pinched = pinched_telescope(tower, 1)
    assert homology(pinched.complex, 1).group.is_trivial()
    assert homology(pinched.complex, 0, reduced=True).group.is_trivial()


@pytest.fixture
def constructions(monkeypatch):
    """How many closures (``from_maximal`` calls) and simplicial maps the test builds."""
    counts = {"closures": 0, "maps": 0}
    close, init = SimplicialComplex.from_maximal.__func__, SimplicialMap.__init__

    def counting_close(cls, *args, **kwargs):
        counts["closures"] += 1
        return close(cls, *args, **kwargs)

    def counting_init(self, *args):
        counts["maps"] += 1
        init(self, *args)

    monkeypatch.setattr(SimplicialComplex, "from_maximal", classmethod(counting_close))
    monkeypatch.setattr(SimplicialMap, "__init__", counting_init)
    return counts


@pytest.mark.parametrize("n", [0, 1, 3])
def test_each_telescope_closes_its_cells_once(constructions, n):
    tower = circle_power_tower(2, 4)
    for build, maps in ((finite_telescope, n + 1), (pinched_telescope, n + 1)):
        constructions.update(closures=0, maps=0)
        build(tower, n)
        assert constructions == {"closures": 1, "maps": maps}, build.__name__
    constructions.update(closures=0, maps=0)
    mapping_cylinder(tower.bonds[0])
    assert constructions == {"closures": 1, "maps": 2}


@given(st.randoms(use_true_random=False), st.integers(1, 4), st.booleans())
def test_telescopes_match_the_union_of_closed_cylinders(rng, depth, pinch):
    tower = random_tower(rng, depth)
    build = pinched_telescope if pinch else finite_telescope
    for n in range(depth):
        tele = build(tower, n)
        reference, embeddings = two_closure_telescope(tower, n, pinch)
        assert tele.complex.simplexes == reference.simplexes
        assert [m.vertex_map for m in tele.level_embeddings] == [m.vertex_map for m in embeddings]
        assert tele.level_embeddings == tuple(embeddings)
    for n in (-1, depth):
        with pytest.raises(ValueError, match="^telescope depth outside the truncation$"):
            build(tower, n)
        with pytest.raises(ValueError, match="^telescope depth outside the truncation$"):
            two_closure_telescope(tower, n, pinch)


def test_pinching_an_empty_level_leaves_the_apex():
    tower = SimpleTower([SimplicialComplex([])], [])
    pinched = pinched_telescope(tower, 0).complex
    assert pinched.simplexes == two_closure_telescope(tower, 0, True)[0].simplexes
    assert pinched.simplexes == {((1, "apex"),)}


@given(st.randoms(use_true_random=False))
def test_mapping_cylinder_is_the_cylinder_closed_by_hand(rng):
    f = random_simplicial_map(rng, random_complex(rng, max_vertices=5, max_cells=5, max_card=3))
    cylinder, src, tgt = mapping_cylinder(f)
    reference, ref_src, ref_tgt = cylinder_by_hand(f)
    assert cylinder.simplexes == reference.simplexes
    assert (src.vertex_map, tgt.vertex_map) == (ref_src.vertex_map, ref_tgt.vertex_map)
    assert (src, tgt) == (ref_src, ref_tgt)


def test_simplicial_maps_compare_by_their_ends_and_vertex_map():
    circle = hollow_triangle()
    same = SimplicialComplex.from_maximal([(1, 2), (2, 3), (1, 3)])
    assert SimplicialMap.identity(circle) == SimplicialMap.identity(circle)
    assert SimplicialMap.identity(circle) == SimplicialMap.identity(same)
    assert hash(SimplicialMap.identity(circle)) == hash(SimplicialMap.identity(same))
    rotation = SimplicialMap(circle, circle, {1: 2, 2: 3, 3: 1})
    assert rotation != SimplicialMap.identity(circle)
    wider = circle.union(SimplicialComplex.from_maximal([(3, 4)]))
    assert SimplicialMap.inclusion(circle, wider) != SimplicialMap.identity(circle)
    assert SimplicialMap.identity(circle) != circle
    assert len({SimplicialMap.identity(circle), SimplicialMap.identity(same), rotation}) == 2


def test_simplicial_map_rejects_an_image_outside_the_target():
    point = SimplicialComplex.from_maximal([], extra_vertices=[0])
    with pytest.raises(ValueError, match="^image vertex 9 not in target$"):
        SimplicialMap(point, point, {0: 9})


def test_simplicial_map_rejects_entries_outside_its_source():
    wrap = {v: v % 3 for v in range(6)}
    # the first stray in label order is named: ints come before strings
    for strays in ({"z": 0, 99: 1}, {99: 1, "z": 0}):
        with pytest.raises(ValueError, match="^vertex 99 is mapped but not in the source$"):
            SimplicialMap(polygon(6), polygon(3), {**wrap, **strays})
    with pytest.raises(ValueError, match="^vertex 'z' is mapped but not in the source$"):
        SimplicialMap(polygon(6), polygon(3), {**wrap, "z": 0})


@pytest.mark.parametrize(
    "bad, twin, message",
    [
        (True, 1, "boolean vertex labels are not supported"),
        (1.0, 1, "unsupported vertex label type: float"),
        (None, 0, "unsupported vertex label type: NoneType"),
        ((0, True), (0, 1), "boolean vertex labels are not supported"),
    ],
    ids=("bool", "float", "none", "nested-bool"),
)
def test_every_label_is_checked_before_equal_labels_merge(bad, twin, message):
    # True == 1 == 1.0 and (0, True) == (0, 1): a set would keep the twin
    # met first and drop the bad label without a word
    builds = (
        lambda: SimplicialComplex([(twin,), (bad,)]),
        lambda: SimplicialComplex([(bad,), (twin,)]),
        lambda: SimplicialComplex.from_maximal([(twin, bad)]),
        lambda: SimplicialComplex.from_maximal([(twin, 2)], extra_vertices=[bad]),
        lambda: SimplicialComplex.from_maximal([], extra_vertices=[twin, bad]),
    )
    for build in builds:
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            build()


def test_building_a_complex_keys_each_vertex_once(monkeypatch):
    calls = []
    depth = [0]
    real = simplicial.label_key

    def counting(label):
        # label_key recurses through the module name: count only the outer call
        if depth[0] == 0:
            calls.append(label)
        depth[0] += 1
        try:
            return real(label)
        finally:
            depth[0] -= 1

    torus = grid_torus(6)
    tower = circle_power_tower(2, 3)
    edge = SimplicialComplex.from_maximal([((9, 9), (0, 0))])
    monkeypatch.setattr(simplicial, "label_key", counting)
    builds = (
        lambda: grid_torus(6),
        lambda: SimplicialComplex(torus.simplexes),
        lambda: finite_telescope(tower, 2).complex,
        lambda: pinched_telescope(tower, 2).complex,
        lambda: torus.union(edge),
    )
    for build in builds:
        del calls[:]
        k = build()
        assert 0 < len(calls) <= len(k.vertices)
    # a subcomplex and a preimage read the ranks their ambient complex keeps
    del calls[:]
    torus.full_subcomplex(v for v in torus.vertices if v[0] < 3)
    preimage_subcomplex(SimplicialMap.identity(torus), torus)
    assert calls == []


@st.composite
def mixed_label_maps(draw) -> SimplicialMap:
    """A simplicial map on mixed labels; the target closes the images of the source's cells."""
    cells = draw(st.lists(st.lists(LABELS, min_size=1, max_size=4), max_size=5))
    extras = draw(st.lists(LABELS, max_size=2))
    source = SimplicialComplex.from_maximal(cells, extra_vertices=extras)
    images = draw(st.lists(LABELS, min_size=1, max_size=5))
    vertex_map = {v: draw(st.sampled_from(images)) for v in source.vertices}
    target = SimplicialComplex.from_maximal(
        [{vertex_map[v] for v in s} for s in cells],
        extra_vertices=[vertex_map[v] for v in extras] + draw(st.lists(LABELS, max_size=2)),
    )
    return SimplicialMap(source, target, vertex_map)


@given(mixed_label_maps())
def test_rank_order_matches_the_label_key_order(f):
    for k in (f.source, f.target):
        inline = inline_simplex_order(k.simplexes)
        assert k.ordered() == inline
        assert all(s == sort_simplex(s) for s in k.simplexes)
        for n in range(-1, k.dimension() + 2):
            assert k.n_simplexes(n) == [s for s in inline if len(s) == n + 1]
    for s in f.source.simplexes:
        assert f.image_simplex(s) == sort_simplex({f.vertex_map[v] for v in s})
    for n in range(f.source.dimension() + 1):
        expected = inline_chain_map_rows(f.source.simplexes, f.target.simplexes, f.vertex_map, n)
        assert chain_map_matrix(f, n).rows == expected


def coerced(matrix):
    """``matrix`` rebuilt through the public constructor, which coerces every entry."""
    return IntegerMatrix([list(row) for row in matrix.rows], ncols=matrix.ncols)


def is_tuple_of_int_rows(matrix) -> bool:
    rows = matrix.rows
    return type(rows) is tuple and all(type(r) is tuple and all(type(x) is int for x in r) for r in rows)


def test_boundary_matrices_equal_the_coercing_construction():
    # boundary matrices skip the public constructor's coercion; their
    # rows must be what it would have built
    rng = random.Random(4321)
    for _ in range(40):
        k = random_complex(rng)
        for n in range(k.dimension() + 2):
            m = boundary_matrix(k, n)
            assert is_tuple_of_int_rows(m) and m == coerced(m)
            assert m.nrows == len(k.n_simplexes(n - 1)) and m.ncols == len(k.n_simplexes(n))


@given(mixed_label_maps())
def test_chain_map_matrices_equal_the_coercing_construction(f):
    for n in range(f.source.dimension() + 2):
        m = chain_map_matrix(f, n)
        expected = inline_chain_map_rows(f.source.simplexes, f.target.simplexes, f.vertex_map, n)
        assert is_tuple_of_int_rows(m) and m == coerced(m)
        assert m == IntegerMatrix(expected, ncols=len(f.source.n_simplexes(n)))


def test_reduced_h0_of_a_200_gon_keeps_under_a_megabyte_and_a_half():
    # the result's group is trivial on 199 cycle generators: a group that
    # kept its whole relation factorization (two 199 x 199 and two
    # 200 x 200 transforms) would hold about 2.8 MB here
    k = polygon(200)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert homology(k, 0, reduced=True).group.is_trivial()
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 1.5 * 2**20


def test_unimodular_transforms_on_boundary_matrices():
    # spot check that the homology pipeline's change of basis is unimodular
    t = torus_7()
    from towertop.abelian import smith_normal_form

    s = smith_normal_form(boundary_matrix(t, 2))
    assert abs(bareiss_det(s.u.rows)) == 1
    assert abs(bareiss_det(s.v.rows)) == 1


# -- induced maps and representatives as whole-matrix products --------------


@st.composite
def chain_maps(draw) -> SimplicialMap:
    """A mixed-label map, a seeded collapse or the identity of a complex with homology, or a polygon wrap."""
    kind = draw(st.sampled_from(("mixed", "collapse", "wrap", "identity")))
    if kind == "mixed":
        return draw(mixed_label_maps())
    if kind == "identity":
        return SimplicialMap.identity(draw(st.sampled_from((projective_plane, torus_7, hollow_triangle)))())
    if kind == "wrap":
        return polygon_wrap(3 * draw(st.integers(1, 3)), 3)
    k = draw(st.sampled_from((projective_plane, torus_7, hollow_triangle)))()
    return random_simplicial_map(random.Random(draw(st.integers(0, 2**16))), k)


@given(chain_maps())
def test_induced_maps_and_representatives_match_the_per_vector_references(f):
    for n in range(-1, max(f.source.dimension(), f.target.dimension()) + 2):
        chain = chain_map_matrix(f, n)
        for reduced in (False, True):
            ends = homology(f.source, n, reduced), homology(f.target, n, reduced)
            induced = induced_map(f, n, reduced).matrix
            assert list(induced.transpose().rows) == matvec_induced_columns(*ends, chain.rows)
            assert induced.nrows == ends[1].group.ngens
        ends = cohomology(f.target, n), cohomology(f.source, n)
        induced = induced_cohomology_map(f, n).matrix
        assert list(induced.transpose().rows) == matvec_induced_columns(*ends, chain.transpose().rows)
        assert induced.nrows == ends[1].group.ngens
        for k in (f.source, f.target):
            for h in (homology(k, n), homology(k, n, reduced=True), cohomology(k, n)):
                expected = axpy_representatives(h.group, h.cycle_columns, h.basis)
                assert [dict(rep) for rep in h.representatives] == expected


def dense_class_test(k, n, kind):
    """(group, the test that two chains of ``k`` are in one class) by the dense path."""
    outgoing, incoming = complex_maps(k, n)[kind]
    group, _, coordinates = dense_homology(outgoing, incoming)

    def same_class(a, b) -> bool:
        x, y = coordinates(a), coordinates(b)
        return x is not None and y is not None and not any(to_canonical(group, [p - q for p, q in zip(x, y)]))

    return group, same_class


@given(chain_maps())
def test_induced_maps_send_classes_where_the_dense_path_does(f):
    # one change of basis apart: the image of each source cycle under the
    # chain map and the lift of its induced coordinates are one class of the
    # dense path; so are a generator and its image under an identity
    for n in range(-1, max(f.source.dimension(), f.target.dimension()) + 2):
        chain = chain_map_matrix(f, n)
        for kind in ("homology", "reduced", "cohomology"):
            if kind == "cohomology":
                source, target = cohomology(f.target, n), cohomology(f.source, n)
                hom, rows, end = induced_cohomology_map(f, n), chain.transpose().rows, f.source
            else:
                source, target = (homology(k, n, kind == "reduced") for k in (f.source, f.target))
                hom, rows, end = induced_map(f, n, kind == "reduced"), chain.rows, f.target
            group, same_class = dense_class_test(end, n, kind)
            assert hom.target.invariants == group.invariants
            for z, image in zip(source.cycle_columns, hom.matrix.transpose().rows):
                assert same_class(dense_matvec(rows, z), lift(target, image))


def tampered(record):
    """The fields of every copy of ``record`` with one entry of iota, pi or h changed by +1 or -2."""

    def each(vectors):
        """``vectors`` with one entry of one vector changed, every way in turn."""
        for p, pairs in enumerate(vectors):
            for q, (i, a) in enumerate(pairs):
                for delta in (1, -2):
                    yield vectors[:p] + (pairs[:q] + ((i, a + delta),) + pairs[q + 1 :],) + vectors[p + 1 :]

    head = (record.incoming, record.outgoing)
    for iota in each(record.iota):
        yield (*head, record.homotopy, record.residual, iota, record.pi)
    for pi in each(record.pi):
        yield (*head, record.homotopy, record.residual, record.iota, pi)
    for block, pivots in enumerate(record.homotopy):
        for p, (j, t, column, row) in enumerate(pivots):
            changed = [(j, t, c, row) for (c,) in each((column,))] + [(j, t, column, r) for (r,) in each((row,))]
            for pivot in changed:
                blocks = list(record.homotopy)
                blocks[block] = pivots[:p] + (pivot,) + pivots[p + 1 :]
                yield (*head, tuple(blocks), record.residual, record.iota, record.pi)


TAMPER_CASES = {
    "rp2-h1": (projective_plane, "homology", 1, False),
    "rp2-cohomology-2": (projective_plane, "cohomology", 2, False),
    "torus7-h1": (torus_7, "homology", 1, False),
    "grid3-cohomology-1": (lambda: grid_torus(3), "cohomology", 1, False),
    "pentagon-reduced-h0": (lambda: polygon(5), "homology", 0, True),
    "points-h0": (lambda: disjoint_points(3), "homology", 0, False),
    "telescope-h1": (lambda: finite_telescope(circle_power_tower(2, 3), 1).complex, "homology", 1, False),
}


@pytest.mark.parametrize("case", TAMPER_CASES)
def test_every_one_entry_tamper_of_a_reduction_is_rejected(case):
    build, kind, n, reduced = TAMPER_CASES[case]
    record = simplicial._reduction(build(), kind, n, reduced)
    assert simplicial.ChainReduction(*(getattr(record, name) for name in record._fields)) == record
    count = 0
    for fields in tampered(record):
        count += 1
        with pytest.raises(AssertionError):
            simplicial.ChainReduction(*fields)
    pivots = [pivot for block in record.homotopy for pivot in block]
    entries = sum(map(len, record.iota)) + sum(map(len, record.pi))
    assert count == 2 * (entries + sum(len(c) + len(r) for _, _, c, r in pivots)) > 0


def test_reductions_do_not_depend_on_the_hash_seed():
    # string labels iterate in hash-seed order in a frozenset; every pivot
    # is taken in simplex order, so each record is the same under any seed
    names = {v: f"v{v}" for v in range(7)}
    torus = SimplicialComplex.from_maximal([[names[v] for v in s] for s in torus_7().simplexes])
    plane = SimplicialComplex.from_maximal([[f"p{v}" for v in s] for s in projective_plane().simplexes])
    digest = hashlib.sha256()
    for k in (torus, plane):
        for n in range(3):
            for kind, reduced in (("homology", False), ("homology", True), ("cohomology", False)):
                digest.update(repr(simplicial._reduction(k, kind, n, reduced and n == 0)).encode())
    assert digest.hexdigest() == "5dc22e5c96d118447d9667ac606d59c22944320a2601443cb698970912eae306"


def test_identity_bonds_factor_and_push_nothing(smith_calls, monkeypatch):
    from towertop.compactohedral import build_gallery
    from towertop.tower import cohomology_system, homology_tower

    pushed = []
    real = simplicial._chain_columns
    monkeypatch.setattr(simplicial, "_chain_columns", lambda *args: pushed.append(args) or real(*args))
    warsaw = build_gallery("warsaw", depth=3)
    for n in (0, 1):
        del smith_calls[:]
        tower, system = homology_tower(warsaw, n), cohomology_system(warsaw, n)
        # the one hexagon factors two residual matrices for H_n and two for
        # H^n; its three identity bonds build no chain map, so they read no
        # coordinates either
        assert len(smith_calls) == 4 and pushed == []
        for hom in tower.bonds + system.bonds:
            assert hom.source is hom.target and hom.matrix == IntegerMatrix.identity(hom.source.ngens)
    wrap = polygon_wrap(6, 3)
    induced_map(wrap, 1)
    assert len(pushed) == 1


def test_reductions_reject_each_forged_shape():
    # forgeries a one-entry change cannot make, each caught by its own check
    r = simplicial._reduction(torus_7(), "homology", 1, False)
    upper, lower = r.homotopy
    _, cells, _ = r.residual_cells()
    spans, rows_n = [j for j, _, _, _ in lower], [t for _, t, _, _ in upper]

    def forged(**fields):
        return simplicial.ChainReduction(**{**{name: getattr(r, name) for name in r._fields}, **fields})

    # the products do not depend on the order of the pivots, triangularity does
    with pytest.raises(AssertionError, match="^recorded pivots are not triangular$"):
        forged(homotopy=(upper[::-1], lower))
    j, t, column, row = lower[0]
    with pytest.raises(AssertionError, match="^a recorded pivot row leaves the block$"):
        forged(homotopy=(upper, ((j, t, column, row + ((rows_n[0], 1),)),) + lower[1:]))
    moved = ((r.residual[1][0] + ((lower[0][1], 1),)),) + r.residual[1][1:]
    with pytest.raises(AssertionError, match="^the residual is not the columns left off the pivot rows$"):
        forged(residual=(r.residual[0], moved))
    pi = list(r.pi)
    pi[spans[0]] = ((cells[0], 1),)
    with pytest.raises(AssertionError, match="^pi does not land in the residual complex$"):
        forged(pi=tuple(pi))
    iota = (tuple(sorted(r.iota[0] + ((rows_n[0], 1),))),) + r.iota[1:]
    with pytest.raises(AssertionError, match="^iota is not the identity plus pivot columns$"):
        forged(iota=iota)
    # a 2-cell whose boundary is an edge: the boundary of its boundary is a vertex
    with pytest.raises(AssertionError, match="^the chain complex or its maps do not fit together$"):
        simplicial._reduce((((0, 1),),), (((0, -1), (1, 1)),))
