"""Acceptance gate: one test per shipping criterion, each timed against its budget."""

import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
from fractions import Fraction

from generators import (
    hollow_triangle,
    polygon_wrap,
    projective_plane,
    random_complex,
    random_simplicial_map,
    torus_7,
)
from oracles import bareiss_det, bareiss_rank, equal_hom
from towertop.abelian import (
    FGAbelianGroup,
    GroupHom,
    IntegerMatrix,
    smith_normal_form,
)
from towertop.assembly import petkova_report, steenrod_report
from towertop.cli import main
from towertop.compactohedral import VARIANTS, build_gallery, fence_violation, validate
from towertop.nerve import (
    BallCover,
    PointSample,
    distance,
    lebesgue_number,
    nerve,
    refinement_map,
)
from towertop.simplicial import (
    SimplicialMap,
    boundary_matrix,
    cohomology,
    finite_telescope,
    homology,
    induced_map,
    mapping_cylinder,
    pinched_telescope,
)
from towertop.tower import (
    Certificate,
    ComplexTower,
    homology_tower,
    ml_status,
    periodic_lim,
)


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def payload_of(argv):
    code, out = run_cli(argv + ["--format", "structured"])
    assert code == 0
    return json.loads(out)["payload"]


ZERO = {"free_rank": 0, "torsion": []}


def test_comb_tower_reports_reach_the_known_answers():
    t0 = time.perf_counter()
    base = ["gallery", "comb", "--teeth", "6", "--depth", "3", "--report", "steenrod"]
    assert payload_of(base + ["--dim", "1"])["middle"] == ZERO
    report = payload_of(base + ["--dim", "0"])
    assert report["left"]["verdict"] == "Uncountable"
    assert report["left"]["display"] == "Prod(Z)/Sum(Z)"
    assert report["right"] == ZERO
    assert report["middle"] == "UncountableViaLeft"
    assert time.perf_counter() - t0 < 5.0


def test_constant_towers_collapse_to_plain_homology():
    t0 = time.perf_counter()
    for k in (hollow_triangle(), torus_7(), projective_plane()):
        tower = ComplexTower(
            [k, k, k],
            [SimplicialMap.identity(k)] * 2,
            certificate=Certificate("periodic"),
        )
        for n in range(3):
            middle = steenrod_report(tower, n).middle
            expected = homology(k, n, reduced=(n == 0)).group
            assert isinstance(middle, FGAbelianGroup)
            assert middle.invariants == expected.invariants
        for n in range(3):
            middle = petkova_report([k], n).middle
            assert middle.invariants == cohomology(k, n).group.invariants
    assert time.perf_counter() - t0 < 5.0


def test_solenoid_reports_agree_with_brute_force():
    t0 = time.perf_counter()
    tower = build_gallery("solenoid", p=2, depth=4)
    assert ml_status(homology_tower(tower, 1), 0).verdict == "StrictlyDecreasing"

    z = FGAbelianGroup.from_invariants(1)
    double = GroupHom(z, z, IntegerMatrix([[2]]))
    assert periodic_lim(z, double).is_trivial()
    # brute force: heads of doubling threads whose entries stay within 2^8
    reachable = set(range(-256, 257))
    for _ in range(9):
        reachable = {2 * y for y in reachable if abs(2 * y) <= 256}
    assert reachable == {0}

    base = ["gallery", "solenoid", "--p", "2", "--depth", "4", "--report", "steenrod"]
    assert payload_of(base + ["--dim", "1"])["middle"] == ZERO
    assert payload_of(base + ["--dim", "0"])["left"]["verdict"] == "Uncountable"
    assert time.perf_counter() - t0 < 5.0


def test_axiom_validators_catch_each_hand_built_break():
    t0 = time.perf_counter()
    assert validate(build_gallery("fence", segments=6, depth=3)).passed
    for axiom in ("C1", "C2", "C3"):
        broken = fence_violation(axiom, 6, 3)
        report = validate(broken, "compactohedral")
        assert not report.passed
        assert report.failed_axiom() == axiom
        v = report.violations[0]
        assert broken.levels[v.level].has_simplex(v.witness)
    assert time.perf_counter() - t0 < 2.0


def test_normal_form_property_sweep():
    t0 = time.perf_counter()
    rng = random.Random(5)
    for _ in range(1000):
        nr, nc = rng.randint(0, 6), rng.randint(0, 6)
        m = IntegerMatrix(
            [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)], ncols=nc
        )
        s = smith_normal_form(m)
        assert (s.u * m) * s.v == s.d
        assert abs(bareiss_det(s.u.rows)) == 1
        assert abs(bareiss_det(s.v.rows)) == 1
        factors = s.invariant_factors
        assert all(d >= 0 for d in factors)
        for a, b in zip(factors, factors[1:]):
            if a == 0:
                assert b == 0
            else:
                assert b % a == 0
        assert s.rank == bareiss_rank(m.rows)
    assert time.perf_counter() - t0 < 30.0


def test_homology_invariant_sweep():
    t0 = time.perf_counter()
    rng = random.Random(6)
    for _ in range(200):
        k = random_complex(rng)
        top = max(len(s) for s in k.simplexes) - 1
        for n in range(top + 1):
            assert (boundary_matrix(k, n) * boundary_matrix(k, n + 1)).is_zero()
        chi = k.euler_characteristic()
        betti = sum(
            (-1) ** n * homology(k, n).group.free_rank for n in range(top + 1)
        )
        assert chi == betti
    rng = random.Random(66)
    for _ in range(100):
        k = random_complex(rng, max_vertices=6, max_cells=6, max_card=3)
        f = random_simplicial_map(rng, k)
        g = random_simplicial_map(rng, f.target)
        gf = g.compose(f)
        for n in (0, 1):
            direct = induced_map(gf, n)
            composed = induced_map(g, n).compose(induced_map(f, n))
            assert equal_hom(direct, composed)
    assert time.perf_counter() - t0 < 60.0


def test_telescope_laws_hold_across_gallery_and_random_towers():
    t0 = time.perf_counter()
    towers = [
        build_gallery("comb", teeth=4, depth=2),
        build_gallery("fence", segments=4, depth=2),
        build_gallery("solenoid", p=2, depth=2),
        build_gallery("warsaw", depth=2),
    ]
    for tower in towers:
        tele = finite_telescope(tower, len(tower.levels) - 1)
        for n in (0, 1):
            assert (
                homology(tele.complex, n).group.invariants
                == homology(tower.levels[0], n).group.invariants
            )
    rng = random.Random(7)
    for _ in range(50):
        k = random_complex(rng, max_vertices=5, max_cells=5, max_card=3)
        f = random_simplicial_map(rng, k)
        two = ComplexTower([f.target, f.source], [f])
        tele = finite_telescope(two, 1)
        for n in (0, 1):
            assert (
                homology(tele.complex, n).group.invariants
                == homology(f.target, n).group.invariants
            )
    pinched = pinched_telescope(build_gallery("solenoid", p=2, depth=3), 2)
    assert homology(pinched.complex, 1).group.invariants == (0, (4,))
    rng = random.Random(77)
    for _ in range(50):
        k = random_complex(rng, max_vertices=5, max_cells=5, max_card=3)
        f = random_simplicial_map(rng, k)
        cyl, src, tgt = mapping_cylinder(f)
        for n in (0, 1):
            assert induced_map(tgt, n).is_isomorphism()
    assert time.perf_counter() - t0 < 60.0


def test_nerve_laws_hold_in_bulk():
    t0 = time.perf_counter()
    pts = [
        (3, 0), (2, 1), (1, 2), (0, 3), (-1, 2), (-2, 1),
        (-3, 0), (-2, -1), (-1, -2), (0, -3), (1, -2), (2, -1),
    ]
    circle = PointSample(pts, range(12))
    arcs = BallCover([(0, 2), (4, 2), (8, 2)])
    assert homology(nerve(arcs, circle), 1).group.invariants == (1, ())

    rng = random.Random(8)
    for _ in range(50):
        count = rng.randint(3, 20)
        pts = [(rng.randint(0, 15), rng.randint(0, 15)) for _ in range(count)]
        sample = PointSample(pts)
        centers = [rng.randrange(count) for _ in range(rng.randint(2, 6))]
        r1 = Fraction(rng.randint(1, 8), 2)
        r2, r3 = r1 + rng.randint(1, 4), r1 + 4 + rng.randint(1, 4)
        fine = BallCover([(c, r1) for c in centers])
        mid = BallCover([(c, r2) for c in centers])
        coarse = BallCover([(c, r3) for c in centers])
        composed = refinement_map(mid, coarse, sample).compose(
            refinement_map(fine, mid, sample)
        )
        direct = refinement_map(fine, coarse, sample)
        target = nerve(coarse, sample)
        for simplex in composed.source.simplexes:
            joint = set(composed.image_simplex(simplex)) | set(
                direct.image_simplex(simplex)
            )
            assert target.has_simplex(tuple(joint))
        for n in (0, 1):
            assert (
                induced_map(composed, n).canonical_matrix().rows
                == induced_map(direct, n).canonical_matrix().rows
            )

    rng = random.Random(88)
    for _ in range(100):
        count = rng.randint(1, 12)
        pts = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(count)]
        sample = PointSample(pts)
        cover = BallCover(
            [
                (rng.randrange(count), Fraction(rng.randint(1, 30), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 6))
            ]
        )
        slacks = [
            max(r - distance(p, pts[c]) for c, r in cover.elements) for p in pts
        ]
        if min(slacks) < 0:
            try:
                lebesgue_number(sample, cover)
            except ValueError:
                continue
            raise AssertionError("uncovered sample must be rejected")
        lam = lebesgue_number(sample, cover)
        assert lam == min(slacks)
        assert any(depth < lam + Fraction(1, 1000) for depth in slacks)
    assert time.perf_counter() - t0 < 60.0


def test_structural_laws_cover_the_infinite_statements():
    # validator and gallery agree on every family and every hand-built break
    families = (
        ("comb", dict(teeth=4, depth=2)),
        ("fence", dict(segments=4, depth=2)),
        ("solenoid", dict(p=2, depth=2)),
        ("warsaw", dict(depth=2)),
    )
    for name, params in families:
        tower = build_gallery(name, **params)
        for variant in VARIANTS:
            assert validate(tower, variant).passed
    for axiom in ("C1", "C2", "C3"):
        assert not validate(fence_violation(axiom, 4, 2), "compactohedral").passed

    # degeneration law: constant towers report the level's own homology
    k = torus_7()
    tower = ComplexTower(
        [k, k], [SimplicialMap.identity(k)], certificate=Certificate("periodic")
    )
    middle = steenrod_report(tower, 1).middle
    assert middle.invariants == homology(k, 1).group.invariants

    # naturality smoke: induced maps respect composition of circle wraps
    f = polygon_wrap(6, 3)
    g = polygon_wrap(12, 6)
    direct = induced_map(f.compose(g), 1)
    composed = induced_map(f, 1).compose(induced_map(g, 1))
    assert equal_hom(direct, composed)


def test_homology_of_a_30_by_30_torus_document_stays_under_100_mb(tmp_path):
    # one towertop process on the 30 x 30 grid torus (900 vertices, 2 700
    # edges, 1 800 triangles); its peak resident memory is read from the
    # child's own rusage, and RLIMIT_AS caps that child alone at 1 GiB
    side = 30
    faces = []
    for i in range(side):
        for j in range(side):
            a, b = i * side + j, (i + 1) % side * side + j
            c, d = i * side + (j + 1) % side, (i + 1) % side * side + (j + 1) % side
            faces += [[a, b, d], [a, c, d]]
    doc = tmp_path / "torus30.complex"
    doc.write_text(json.dumps({"format_version": "1", "kind": "complex", "payload": {"maximal": faces}}))
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    t0 = time.perf_counter()
    argv = [sys.executable, "-m", "towertop.cli", "homology", str(doc), "--dim", "1"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, preexec_fn=limit) as proc:
        out = proc.stdout.read().decode()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0
    assert out.splitlines()[-1] == "H_1 = Z^2"
    assert usage.ru_maxrss < 100 * 1024  # kilobytes on Linux
    assert time.perf_counter() - t0 < 30.0
