"""Assembly reports: outer terms, middle resolution, filtration reports."""

import pathlib

from generators import constant_tower, hollow_triangle, polygon, projective_plane, torus_7

from towertop.abelian import FGAbelianGroup
from towertop.assembly import cech_cohomology_report, petkova_report, steenrod_report
from towertop.cli import deserialize
from towertop.compactohedral import build_gallery, fence_violation
from towertop.nerve import PointSample, cech_tower
from towertop.simplicial import (
    SimplicialComplex,
    SimplicialMap,
    cohomology,
    homology,
    induced_map,
)
from towertop.tower import Certificate, ColimResult, ComplexTower, NotFinitelyStable, NotStable

import pytest


def cl(maximal, extra=()):
    return SimplicialComplex.from_maximal(maximal, extra_vertices=extra)


def invariants(x):
    return x.invariants if isinstance(x, FGAbelianGroup) else x


# -- towers with shrinking circles ---------------------------------------


def test_comb_reports():
    comb = build_gallery("comb", teeth=6, depth=3)
    dim1 = steenrod_report(comb, 1)
    assert dim1.left.verdict == "Zero"
    assert dim1.right.invariants == (0, ())
    assert dim1.middle.invariants == (0, ())

    dim0 = steenrod_report(comb, 0)
    assert dim0.left.verdict == "Uncountable"
    assert dim0.left.display == "Prod(Z)/Sum(Z)"
    assert dim0.right.invariants == (0, ())
    assert dim0.middle == "UncountableViaLeft"
    assert any("reduced homology" in note for note in dim0.provenance)


def test_solenoid_reports():
    solenoid = build_gallery("solenoid", p=2, depth=4)
    dim1 = steenrod_report(solenoid, 1)
    assert dim1.left.verdict == "Zero"
    assert dim1.right.invariants == (0, ())
    assert dim1.middle.invariants == (0, ())

    dim0 = steenrod_report(solenoid, 0)
    assert dim0.left.verdict == "Uncountable"
    assert dim0.middle == "UncountableViaLeft"

    high = cech_cohomology_report(solenoid, 1)
    assert isinstance(high.result, NotFinitelyStable)
    assert high.result.certified
    low = cech_cohomology_report(solenoid, 0)
    assert isinstance(low.result, ColimResult)
    assert low.result.group.invariants == (1, ())


def test_warsaw_reports():
    warsaw = build_gallery("warsaw", depth=2)
    dim1 = steenrod_report(warsaw, 1)
    assert dim1.left.verdict == "Zero"
    assert dim1.middle.invariants == (1, ())
    coh = cech_cohomology_report(warsaw, 1)
    assert isinstance(coh.result, ColimResult)
    assert coh.result.group.invariants == (1, ())
    assert coh.result.index == 0


def test_unresolved_reports_stay_partial():
    fence = build_gallery("fence", segments=6, depth=3)
    report = steenrod_report(fence, 1)
    assert isinstance(report.right, NotStable)
    assert report.middle == "UnresolvedExtension"
    assert any("no certificate" in note for note in report.provenance)


# -- constant towers reproduce level homology ----------------------------


def test_constant_towers_reproduce_level_homology():
    for k in (hollow_triangle(), torus_7(), projective_plane()):
        tower = constant_tower(k, 3)
        for n in (0, 1, 2):
            report = steenrod_report(tower, n)
            assert report.left.verdict == "Zero", (n, report.left)
            expected = homology(k, n, reduced=(n == 0)).group
            assert invariants(report.middle) == expected.invariants


def test_homotopy_trivial_bonds_kill_the_left_term():
    k = polygon(4)
    squash = SimplicialMap(k, k, {v: 0 for v in k.vertices})
    tower = ComplexTower([k, k, k], [squash, squash], certificate=Certificate("periodic"))
    report = steenrod_report(tower, 0)
    assert report.left.verdict == "Zero"
    assert invariants(report.middle) == (0, ())


def test_naturality_of_constant_tower_middles():
    hexagon, triangle = polygon(6), polygon(3)
    wrap = SimplicialMap(hexagon, triangle, {a: a % 3 for a in range(6)})
    mid_hex = steenrod_report(constant_tower(hexagon, 2), 1).middle
    mid_tri = steenrod_report(constant_tower(triangle, 2), 1).middle
    assert mid_hex.invariants == (1, ()) and mid_tri.invariants == (1, ())
    induced = induced_map(wrap, 1)
    assert induced.canonical_matrix().rows == ((2,),)


# -- filtration reports ---------------------------------------------------


def test_one_stage_filtration_reproduces_cohomology():
    for k in (hollow_triangle(), torus_7(), projective_plane()):
        for n in (0, 1, 2):
            report = petkova_report([k], n)
            assert report.left.verdict == "Zero"
            assert invariants(report.middle) == cohomology(k, n).group.invariants


def test_nested_filtration_resolves_to_the_top_stage():
    triangle = hollow_triangle()
    vertex = cl([], extra=[("p", 0)])
    ambient = triangle  # relabel the point into the triangle's vertex set
    vertex = cl([], extra=[sorted(ambient.vertices)[0]])
    report = petkova_report([vertex, ambient], 1)
    assert report.left.verdict == "Zero"
    assert invariants(report.middle) == cohomology(ambient, 1).group.invariants
    assert any("padded" in note for note in report.provenance)

    zero = petkova_report([vertex, ambient], 0)
    assert zero.left.reason == "no tower below dimension 0"
    assert invariants(zero.middle) == (1, ())


def test_filtration_preconditions():
    path = cl([("a", "b"), ("b", "c")])
    half = cl([("a", "b")])
    with pytest.raises(ValueError, match="not interior"):
        petkova_report([cl([], extra=["b"]), half, path], 0)
    with pytest.raises(ValueError, match="not contained"):
        petkova_report([cl([("b", "c")]), half, path], 0)
    with pytest.raises(ValueError):
        petkova_report([], 0)
    with pytest.raises(ValueError):
        petkova_report([path], -1)


def test_window_is_a_cap_not_a_demand():
    comb = build_gallery("comb", teeth=5, depth=2)
    wide = steenrod_report(comb, 1, window=9)
    plain = steenrod_report(comb, 1)
    assert wide.left.verdict == plain.left.verdict
    assert invariants(wide.middle) == invariants(plain.middle)


def test_rejected_window_factors_nothing(smith_calls):
    comb = build_gallery("comb", teeth=8, depth=3)
    single = constant_tower(hollow_triangle(), 1)
    for report, tower in (
        (steenrod_report, comb),
        (steenrod_report, single),
        (cech_cohomology_report, comb),
    ):
        for window in (0, -1):
            del smith_calls[:]
            with pytest.raises(ValueError, match="window must be at least 1"):
                report(tower, 1, window)
            assert smith_calls == []


def test_cech_report_in_a_negative_dimension_factors_nothing(smith_calls):
    with pytest.raises(ValueError, match="^dimension must be nonnegative$"):
        cech_cohomology_report(build_gallery("warsaw", depth=2), -1)
    assert smith_calls == []


# -- kept results across a tower ------------------------------------------


def test_gallery_reports_make_a_fixed_number_of_factorizations(smith_calls, echelon_forms):
    # Steenrod in dimensions 0 and 1, then Cech in 0 and 1, each on a fresh
    # tower; warsaw's levels are one hexagon, whose results are factored
    # once.  Each report's (Smith calls, Hermite forms)
    expected = {
        "warsaw": ({"depth": 6}, [(5, 7), (5, 1), (2, 7), (2, 7)]),
        "solenoid": ({"p": 2, "depth": 4}, [(21, 10), (22, 5), (10, 5), (10, 5)]),
        "comb": ({"teeth": 4, "depth": 2}, [(13, 3), (13, 2), (6, 3), (7, 2)]),
        "fence": ({"segments": 4, "depth": 2}, [(12, 1), (12, 0), (6, 0), (6, 0)]),
    }
    for family, (params, counts) in expected.items():
        seen = []
        for report in (steenrod_report, cech_cohomology_report):
            for n in (0, 1):
                tower = build_gallery(family, **params)
                del smith_calls[:], echelon_forms[:]
                report(tower, n)
                seen.append((len(smith_calls), len(echelon_forms)))
        assert seen == counts, family


def test_every_built_tower_bonds_its_own_level_objects():
    # a bond whose ends only equal its levels would factor their homology
    # again instead of reading what the levels keep
    sample = PointSample([(3, 0), (0, 3), (-3, 0), (0, -3)], range(4))
    dyadic = pathlib.Path(__file__).resolve().parent.parent / "sample" / "dyadic.tower"
    towers = [
        build_gallery("comb", teeth=4, depth=2),
        build_gallery("fence", segments=4, depth=2),
        build_gallery("solenoid", p=2, depth=2),
        build_gallery("warsaw", depth=2),
        *(fence_violation(axiom, 4, 2) for axiom in ("C1", "C2", "C3")),
        cech_tower(sample, [4, 3, 1]),
        deserialize(dyadic.read_text())[1],
    ]
    for t in towers:
        assert len(t.bonds) >= 2
        for i, bond in enumerate(t.bonds):
            assert bond.source is t.levels[i + 1] and bond.target is t.levels[i]
