"""Seeded inputs, job lists and expected answers for the benchmark workloads.

Every workload is built from ``random.Random(seed)``, so one seed gives
one set of inputs.  Expected answers never come from running towertop:
they are known by construction (relabelled complexes keep their
homology), taken from the verdicts the acceptance tests pin down, or
computed by the independent routines in ``oracle``.

``size`` is "full" for the measured runs and "smoke" for the reduced
inputs the benchmark's own tests use.

Jobs reach towertop's functions through module attributes looked up at
call time, never through names bound during set-up, so the wrappers
that the traced run installs see every call.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, prod
from random import Random
from typing import Callable, List, Optional

import oracle

WORKLOADS = ("cli-samples", "gallery-reports", "large-complexes", "group-towers")

Z0 = (0, ())
Z1 = (1, ())


@dataclass
class Job:
    """One unit of work.  ``run`` returns an answer that ``check`` judges.

    A CLI job sets ``argv`` instead of ``run``; its answer is the
    child's standard output.  ``check`` returns None for a right answer
    and a one-line description of the difference otherwise.
    """

    name: str
    check: Callable[[object], Optional[str]]
    run: Optional[Callable[[], object]] = None
    argv: List[str] = field(default_factory=list)


def expect_equal(expected):
    def check(answer):
        return None if answer == expected else f"expected {expected!r}, got {answer!r}"

    return check


# -- shared complexes ---------------------------------------------------------

TORUS_7 = [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)] + [
    (i, (i + 2) % 7, (i + 3) % 7) for i in range(7)
]
PROJECTIVE_PLANE = [
    (1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 2, 6),
    (2, 3, 5), (3, 4, 6), (2, 4, 5), (3, 5, 6), (2, 4, 6),
]
DIAMOND = [
    (3, 0), (2, 1), (1, 2), (0, 3), (-1, 2), (-2, 1),
    (-3, 0), (-2, -1), (-1, -2), (0, -3), (1, -2), (2, -1),
]


def relabelling(rng: Random, vertices, keep_order: bool = False) -> dict:
    """Random injective relabelling of integer (or tuple) vertices by integers.

    A shuffled relabelling reorders every simplex basis.  ``keep_order``
    keeps the vertex order, and with it every matrix: a periodic
    certificate compares bonds in canonical coordinates, whose signs a
    shuffle may flip.
    """
    vertices = sorted(set(vertices))
    labels = rng.sample(range(10 * len(vertices) + 10), len(vertices))
    return dict(zip(vertices, sorted(labels) if keep_order else labels))


def relabel(faces, names: dict) -> list:
    return [tuple(names[v] for v in f) for f in faces]


def polygon_edges(m: int) -> list:
    return [(a, (a + 1) % m) for a in range(m)]


def grid_vertices(n: int) -> list:
    return [(i, j) for i in range(n) for j in range(n)]


def grid_torus_faces(n: int) -> list:
    faces = []
    for i in range(n):
        for j in range(n):
            a, b = (i, j), ((i + 1) % n, j)
            c, d = (i, (j + 1) % n), ((i + 1) % n, (j + 1) % n)
            faces += [(a, b, d), (a, c, d)]
    return faces


def solenoid_data(rng: Random, p: int, depth: int):
    """Circles of 3 p^j vertices with degree-p winding bonds, labels in order.

    Returns (levels, bonds): edge lists per level and, per bond j, the
    vertex map from level j + 1 into level j.
    """
    names = [relabelling(rng, range(3 * p**j), keep_order=True) for j in range(depth + 1)]
    levels = [relabel(polygon_edges(3 * p**j), names[j]) for j in range(depth + 1)]
    bonds = [
        {names[j + 1][a]: names[j][a % (3 * p**j)] for a in range(3 * p ** (j + 1))}
        for j in range(depth)
    ]
    return levels, bonds


def star_filtration(faces) -> list:
    """Stages v, star(v), star(star(v)), ... of the complex on ``faces``.

    Each stage is the union of the closed faces meeting the previous
    stage's vertices, so every stage is interior to the next.
    """
    first = min(v for f in faces for v in f)
    stages = [[(first,)]]
    verts = {first}
    while True:
        stage = [f for f in faces if verts & set(f)]
        grown = {v for f in stage for v in f}
        stages.append(stage)
        if len(stage) == len(faces):
            return stages
        verts = grown


def inv(group) -> tuple:
    return (group.free_rank, tuple(group.torsion))


# -- cli-samples ----------------------------------------------------------------


def _envelope(kind: str, payload) -> str:
    return json.dumps({"format_version": "1", "kind": kind, "payload": payload}, indent=2)


def _complex_payload(faces) -> dict:
    return {"maximal": [list(f) for f in faces]}


def _text_check(expected_lines):
    def check(out):
        got = out.splitlines()[: len(expected_lines)]
        return None if got == expected_lines else f"expected {expected_lines!r}, got {got!r}"

    return check


def _payload_check(expected: dict):
    def check(out):
        try:
            payload = json.loads(out)["payload"]
        except (ValueError, KeyError, TypeError):
            return f"not a structured report: {out[:80]!r}"
        for key, want in expected.items():
            got = payload.get(key)
            if callable(want):
                if not want(got):
                    return f"{key}: unexpected {got!r}"
            elif got != want:
                return f"{key}: expected {want!r}, got {got!r}"
        return None

    return check


def _group(free_rank: int, torsion=()) -> dict:
    return {"free_rank": free_rank, "torsion": list(torsion)}


def _tower_document_check(depth: int, certificate: str):
    def check(out):
        try:
            doc = json.loads(out)
            payload = doc["payload"]
            ok = (
                doc["kind"] == "complex_tower"
                and len(payload["levels"]) == depth + 1
                and payload["certificate"]["kind"] == certificate
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        return None if ok else f"not a depth-{depth} {certificate} tower document"

    return check


def cli_jobs(rng: Random, docs: str, size: str) -> List[Job]:
    """Write seeded documents into ``docs`` and list the commands to run on them.

    Every command runs once a round, in one format, which keeps a round
    short enough to repeat several times within one run: a command with
    a check for each format alternates with its neighbours between text
    and ``--format structured``, starting with text; a check of None
    rules that format out.
    """
    files = {}

    def put(name, kind, payload):
        path = os.path.join(docs, name)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(_envelope(kind, payload))
        files[name] = path

    put("torus.complex", "complex", _complex_payload(relabel(TORUS_7, relabelling(rng, range(7)))))
    put(
        "projective.complex",
        "complex",
        _complex_payload(relabel(PROJECTIVE_PLANE, relabelling(rng, range(1, 7)))),
    )

    degree, stretch = rng.randint(1, 3), rng.randint(1, 2)
    m = 3 * degree * stretch
    src, tgt = relabelling(rng, range(m)), relabelling(rng, range(3))
    put(
        "wrap.map",
        "map",
        {
            "source": _complex_payload(relabel(polygon_edges(m), src)),
            "target": _complex_payload(relabel(polygon_edges(3), tgt)),
            "vertex_map": [[src[v], tgt[(v // stretch) % 3]] for v in range(m)],
        },
    )

    levels, bonds = solenoid_data(rng, 2, 2)
    level_payloads = [_complex_payload(edges) for edges in levels]
    put(
        "solenoid.tower",
        "complex_tower",
        {
            "levels": level_payloads,
            "bonds": [sorted([v, w] for v, w in b.items()) for b in bonds],
            "marked_K": level_payloads,
            "marked_L": level_payloads,
            "certificate": {"kind": "periodic", "offset": 0, "period": 1},
        },
    )

    ring = rng.randint(3, 7)
    stages = star_filtration(relabel(polygon_edges(ring), relabelling(rng, range(ring))))
    put("ring.filtration", "filtration", {"stages": [_complex_payload(s) for s in stages]})

    scale, turn = rng.randint(1, 4), rng.randrange(12)
    points = [DIAMOND[(i + turn) % 12] for i in range(12)]
    put(
        "diamond.sample",
        "point_sample",
        {
            "points": [[str(scale * x), str(scale * y)] for x, y in points],
            "compactum_mark": list(range(12)),
        },
    )
    centers, radius = rng.choice((((0, 4, 8), 2), ((11, 1, 3, 5, 7, 9), 1)))
    elements = [((c - turn) % 12, scale * radius) for c in centers]
    put("arcs.cover", "cover", {"elements": [[c, str(r)] for c, r in elements]})
    sample_points = [(Fraction(scale * x), Fraction(scale * y)) for x, y in points]
    lam = oracle.lebesgue(sample_points, [(c, Fraction(r)) for c, r in elements])
    arcs = len(centers)

    teeth, comb_depth = rng.randint(4, 6), rng.randint(2, 3)
    f = files
    cover_args = ["--sample", f["diamond.sample"], "--cover", f["arcs.cover"]]
    steenrod_zero = {
        "left": lambda x: isinstance(x, dict) and x.get("verdict") == "Zero",
        "right": _group(0),
        "middle": _group(0),
    }
    commands = [
        (
            ["homology", f["torus.complex"], "--dim", "1"],
            ["H_1 = Z^2"],
            {"group": _group(2), "display": "Z^2"},
        ),
        (
            ["cohomology", f["projective.complex"], "--dim", "2"],
            ["H^2 = Z/2"],
            {"group": _group(0, [2]), "display": "Z/2"},
        ),
        (
            ["induced", f["wrap.map"], "--dim", "1"],
            lambda out: None
            if out.splitlines()
            in (["H_1: Z -> Z", f"matrix = [[{degree}]]"], ["H_1: Z -> Z", f"matrix = [[{-degree}]]"])
            else f"expected a degree-{degree} map, got {out!r}",
            {"matrix": lambda x: x in ([[degree]], [[-degree]])},
        ),
        (
            ["telescope", f["solenoid.tower"], "--dim", "1"],
            ["telescope through level 2", "H_1 = Z"],
            {"group": _group(1), "depth": 2},
        ),
        (
            ["pinch", f["solenoid.tower"], "--depth", "2", "--dim", "1"],
            ["pinched telescope through level 2", "H_1 = Z/4"],
            {"group": _group(0, [4])},
        ),
        (
            ["tower-report", f["solenoid.tower"], "--report", "steenrod", "--dim", "1"],
            ["steenrod report, dimension 1", "lim1: Zero", "lim = 0", "H_1(X) = 0"],
            steenrod_zero,
        ),
        (
            ["tower-report", f["ring.filtration"], "--report", "petkova", "--dim", "1"],
            ["petkova report, dimension 1", "lim1: Zero", "lim = Z", "H^1(X) = Z"],
            None,
        ),
        (
            ["validate", f["solenoid.tower"]],
            ["PASS (C0..C3)"],
            {"verdict": "PASS", "violations": []},
        ),
        (
            ["nerve", *cover_args, "--dim", "1"],
            [f"nerve has {arcs} vertices and {2 * arcs} simplexes", "H_1 = Z"],
            {"vertices": arcs, "simplexes": 2 * arcs, "group": _group(1)},
        ),
        (
            ["lebesgue", *cover_args],
            [f"lebesgue number = {lam}"],
            {"lebesgue": str(lam)},
        ),
        (
            ["gallery", "comb", "--teeth", str(teeth), "--depth", str(comb_depth)],
            _tower_document_check(comb_depth, "shift_family"),
            None,
        ),
        (
            ["gallery", "solenoid", "--p", "2", "--depth", "4", "--report", "steenrod", "--dim", "1"],
            ["steenrod report, dimension 1", "lim1: Zero", "lim = 0", "H_1(X) = 0"],
            None,
        ),
    ]
    if size == "smoke":
        commands = [c for c in commands if c[0][0] in ("homology", "validate", "gallery")][:3]
    jobs = []
    for index, (argv, text, structured) in enumerate(commands):
        name = " ".join(os.path.basename(a) for a in argv)
        if text is not None and (structured is None or index % 2 == 0):
            jobs.append(Job(name, text if callable(text) else _text_check(text), argv=argv))
        else:
            check = structured if callable(structured) else _payload_check(structured)
            jobs.append(Job(name + " structured", check, argv=argv + ["--format", "structured"]))
    return jobs


# -- gallery-reports ----------------------------------------------------------------

# Verdicts of the gallery towers.  Comb and solenoid dimension-0 and -1
# Steenrod verdicts are the ones tests/test_acceptance.py pins down; the
# rest follow from each family's certificate: comb is a certified
# shrinking family with trivial core, fence is uncertified (window-only
# verdicts), solenoid is certified periodic with doubling bonds, warsaw is
# a certified constant hexagon.
GALLERY_EXPECTED = {
    "comb": {
        ("steenrod", 0): ("Uncountable", "Prod(Z)/Sum(Z)", Z0, "UncountableViaLeft"),
        ("steenrod", 1): ("Zero", None, Z0, Z0),
        ("cech", 0): ("colim", Z1, 0),
        ("cech", 1): ("colim", Z0, "depth"),
    },
    "fence": {
        ("steenrod", 0): ("Undetermined", None, "NotStable", "UnresolvedExtension"),
        ("steenrod", 1): ("Zero", None, "NotStable", "UnresolvedExtension"),
        ("cech", 0): ("not-finitely-stable", False),
        ("cech", 1): ("not-finitely-stable", False),
    },
    "solenoid": {
        ("steenrod", 0): ("Uncountable", None, Z0, "UncountableViaLeft"),
        ("steenrod", 1): ("Zero", None, Z0, Z0),
        ("cech", 0): ("colim", Z1, 0),
        ("cech", 1): ("not-finitely-stable", True),
    },
    "warsaw": {
        ("steenrod", 0): ("Zero", None, Z0, Z0),
        ("steenrod", 1): ("Zero", None, Z1, Z1),
        ("cech", 0): ("colim", Z1, 0),
        ("cech", 1): ("colim", Z1, 0),
    },
}


def _ses_answer(report) -> tuple:
    right = inv(report.right) if hasattr(report.right, "free_rank") else "NotStable"
    middle = inv(report.middle) if hasattr(report.middle, "free_rank") else report.middle
    return (report.left.verdict, report.left.display, right, middle)


def _cech_answer(report) -> tuple:
    result = report.result
    if hasattr(result, "group"):
        return ("colim", inv(result.group), result.index)
    return ("not-finitely-stable", result.certified)


def gallery_jobs(rng: Random, size: str) -> List[Job]:
    import towertop.assembly as assembly
    import towertop.compactohedral as compactohedral
    from towertop.simplicial import SimplicialComplex

    if size == "smoke":
        towers = [("comb", {"teeth": 4, "depth": 2}), ("warsaw", {"depth": 2})]
    else:
        towers = [
            ("comb", {"teeth": 4, "depth": 2}),
            ("fence", {"segments": 4, "depth": 2}),
            ("comb", {"teeth": 5, "depth": 2}),
            ("solenoid", {"p": 2, "depth": 4}),
            ("warsaw", {"depth": 6}),
        ]
    jobs = []
    for family, params in towers:
        label = family + "-" + "x".join(str(v) for v in params.values())
        for kind, n in (("steenrod", 0), ("steenrod", 1), ("cech", 0), ("cech", 1)):
            want = GALLERY_EXPECTED[family][(kind, n)]
            want = tuple(params["depth"] if x == "depth" else x for x in want)
            if kind == "steenrod":
                run = lambda f=family, p=params, n=n: _ses_answer(
                    assembly.steenrod_report(compactohedral.build_gallery(f, **p), n)
                )
            else:
                run = lambda f=family, p=params, n=n: _cech_answer(
                    assembly.cech_cohomology_report(compactohedral.build_gallery(f, **p), n)
                )
            jobs.append(Job(f"{label} {kind} {n}", expect_equal(want), run))
        jobs.append(
            Job(
                f"{label} validate",
                expect_equal("PASS (C0..C3)"),
                lambda f=family, p=params: compactohedral.validate(
                    compactohedral.build_gallery(f, **p)
                ).headline(),
            )
        )

    stages = star_filtration(relabel(TORUS_7, relabelling(rng, range(7))))
    for n, top in ((1, (2, ())), (2, Z1)):
        run = lambda n=n: _ses_answer(
            assembly.petkova_report([SimplicialComplex.from_maximal(s) for s in stages], n)
        )
        jobs.append(Job(f"torus-filtration petkova {n}", expect_equal(("Zero", None, top, top)), run))
    return jobs


# -- large-complexes ----------------------------------------------------------------


def _check_wrap(answer):
    source, target, rows = answer
    if source != (2, ()) or target != (2, ()):
        return f"expected Z^2 -> Z^2, got {source!r} -> {target!r}"
    (a, b), (c, d) = rows
    if abs(a * d - b * c) != 4 or gcd(gcd(a, b), gcd(c, d)) != 2:
        return f"expected a map with invariant factors (2, 2), got {rows!r}"
    return None


def large_jobs(rng: Random, size: str) -> List[Job]:
    """Few large, distinct, sparse boundary matrices.

    Set-up generates plain data; each job builds its own complexes, so
    no round reuses another round's cached simplex orderings.
    """
    import towertop.nerve as nerve
    import towertop.simplicial as simplicial
    from towertop.nerve import BallCover, PointSample
    from towertop.simplicial import SimplicialComplex, SimplicialMap
    from towertop.tower import ComplexTower

    side, depth, pinch, balls = (4, 2, 2, 6) if size == "smoke" else (6, 3, 2, 11)
    # order-preserving labels: every seed gets the same matrices, whose
    # elimination cost depends on the order of the simplexes
    torus_faces = relabel(grid_torus_faces(side), relabelling(rng, grid_vertices(side), True))
    fine_names = relabelling(rng, grid_vertices(6), True)
    coarse_names = relabelling(rng, grid_vertices(3), True)
    fine_faces = relabel(grid_torus_faces(6), fine_names)
    coarse_faces = relabel(grid_torus_faces(3), coarse_names)
    wrap_map = {fine_names[(i, j)]: coarse_names[(i % 3, j % 3)] for (i, j) in fine_names}
    solenoids = {d: solenoid_data(rng, 2, d) for d in sorted({depth, pinch})}
    points = [
        (Fraction(rng.randint(0, 80), 10), Fraction(rng.randint(0, 80), 10)) for _ in range(balls)
    ]
    reach = max(max(abs(a - b) for a, b in zip(p, q)) for p in points for q in points)
    elements = [(c, reach + Fraction(rng.randint(1, 9), 10)) for c in range(balls)]
    lam = oracle.lebesgue(points, elements)

    def homology_of(k, n):
        return inv(simplicial.homology(k, n).group)

    def solenoid(depth):
        edges, vertex_maps = solenoids[depth]
        levels = [SimplicialComplex.from_maximal(e) for e in edges]
        bonds = [SimplicialMap(levels[j + 1], levels[j], vm) for j, vm in enumerate(vertex_maps)]
        return ComplexTower(levels, bonds)

    def wrap_answer():
        fine = SimplicialComplex.from_maximal(fine_faces)
        coarse = SimplicialComplex.from_maximal(coarse_faces)
        hom = simplicial.induced_map(SimplicialMap(fine, coarse, wrap_map), 1)
        return inv(hom.source), inv(hom.target), hom.canonical_matrix().rows

    def nerve_answer():
        k = nerve.nerve(BallCover(elements), PointSample(points))
        return len(k.simplexes), homology_of(k, 1)

    return [
        Job(
            f"torus{side} homology 1",
            expect_equal((2, ())),
            lambda: homology_of(SimplicialComplex.from_maximal(torus_faces), 1),
        ),
        Job(
            f"torus{side} cohomology 2",
            expect_equal(Z1),
            lambda: inv(simplicial.cohomology(SimplicialComplex.from_maximal(torus_faces), 2).group),
        ),
        Job("torus6 wrap induced 1", _check_wrap, wrap_answer),
        Job(
            f"solenoid-d{depth} telescope 1",
            expect_equal(Z1),
            lambda: homology_of(simplicial.finite_telescope(solenoid(depth), depth).complex, 1),
        ),
        Job(
            f"solenoid-d{pinch} pinched 1",
            expect_equal((0, (2**pinch,))),
            lambda: homology_of(simplicial.pinched_telescope(solenoid(pinch), pinch).complex, 1),
        ),
        Job(f"nerve{balls} homology 1", expect_equal((2**balls - 1, Z0)), nerve_answer),
        Job(
            f"nerve{balls} lebesgue",
            expect_equal(lam),
            lambda: nerve.lebesgue_number(PointSample(points), BallCover(elements)),
        ),
    ]


# -- group-towers ----------------------------------------------------------------


def adjugate(a) -> list:
    n = len(a)
    return [
        [
            (-1) ** (i + j)
            * oracle.bareiss_det([[a[r][c] for c in range(n) if c != i] for r in range(n) if r != j])
            for j in range(n)
        ]
        for i in range(n)
    ]


# (generators, depth, relations) of the random towers, taken in turn
TOWER_SHAPES = [(n, d, m) for n in (4, 5, 6) for d in (4, 5) for m in range(1, n + 1)]


def random_group_tower(rng: Random, n: int, depth: int, m: int):
    """Dense presentations Z^n / rows(R_i) with non-invertible bonds A_i.

    Level 0 has m relations with entries in [-9, 9].  Level i + 1 has
    relations adj(A_i) r for the relations r of level i, so A_i carries
    them to det(A_i) r: every bond is well defined.
    """
    rels = [[[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]]
    bonds = []
    for _ in range(depth):
        while True:
            a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            if abs(oracle.bareiss_det(a)) >= 2:
                break
        adj = adjugate(a)
        rels.append([[sum(x * y for x, y in zip(row, r)) for row in adj] for r in rels[-1]])
        bonds.append(a)
    return n, rels, bonds


def flip_signs(rng: Random, n: int, rels, bonds):
    """The same tower in other coordinates: signs of generators and relations.

    Level i's generators change sign by D_i and each relation by its own
    sign, so R_i becomes E_i R_i D_i and A_i becomes D_i A_i D_(i+1).  The
    groups, bonds and answers stay, and so does most of the work of
    eliminating them: a Smith normal form picks its least-absolute-value
    pivots alike, and only its rounding of exact halves in balanced
    remainders can go another way.
    """
    signs = [[rng.choice((1, -1)) for _ in range(n)] for _ in rels]
    rels = [
        [[e * d * x for d, x in zip(signs[i], r)] for e, r in ((rng.choice((1, -1)), r) for r in level)]
        for i, level in enumerate(rels)
    ]
    bonds = [
        [[signs[i][r] * x * signs[i + 1][c] for c, x in enumerate(row)] for r, row in enumerate(a)]
        for i, a in enumerate(bonds)
    ]
    return n, rels, bonds


def periodic_group_tower(rng: Random):
    """Constant tower Z^k (+ Z/t) with one endomorphism P D P^-1 (+ u).

    D is diagonal over {1, -1, 2, 3} and u is a unit mod t, so the limit
    is Z^a (+ Z/t) with a the number of unit entries of D, the derived
    limit is uncountable exactly when some entry is not a unit, and the
    direct system is an isomorphism exactly when all entries are.
    """
    k, t = rng.randint(2, 4), rng.choice((0, 2, 3, 4, 6))
    diag = [rng.choice((1, -1, 2, 3)) for _ in range(k)]
    p = [[int(i == j) for j in range(k)] for i in range(k)]
    pinv = [row[:] for row in p]
    for _ in range(3 * k):
        i, j = rng.sample(range(k), 2)
        q = rng.choice((-2, -1, 1, 2))
        p[i] = [x + q * y for x, y in zip(p[i], p[j])]
        for row in pinv:
            row[j] -= q * row[i]
    free = oracle.matmul(oracle.matmul(p, [[d * (i == j) for j in range(k)] for i, d in enumerate(diag)]), pinv)
    units = sum(1 for d in diag if abs(d) == 1)
    u = rng.choice([x for x in range(1, t) if gcd(x, t) == 1]) if t else 1
    return k, t, free, u, rng.randint(2, 4), units


def random_tower_oracle(n, rels, bonds) -> tuple:
    """Answers of the group-towers job for an uncertified tower, by lattice arithmetic.

    A subgroup of Z^n / L is a lattice containing L; the image chain at
    level i is C_k Z^n + L_i for the composites C_k of k bonds below it.
    """
    levels = [oracle.group_invariants(n, r) for r in rels]
    nlev, nb = len(rels), len(bonds)
    eye = [[int(i == j) for j in range(n)] for i in range(n)]

    def chain(i):
        out, comp = [], eye
        for k in range(nb - i + 1):
            if k:
                comp = oracle.matmul(comp, bonds[i + k - 1])
            out.append(oracle.columns(comp) + rels[i])
        return out

    lim1, stable, lim = "Zero", [], None
    for i in range(nlev - 1):
        subs = chain(i)
        keys = [oracle.lattice_key(s, n) for s in subs]
        idx = next((k for k in range(len(subs) - 1) if keys[k] == keys[k + 1]), None)
        if idx is None:
            lim1 = "Undetermined"
            if len(subs) >= 3:
                lim = "NotStable"
            idx = len(subs) - 1
        stable.append(subs[idx])
    if lim is None:
        for i in range(len(stable) - 1):
            image = oracle.columns(oracle.matmul(bonds[i], oracle.columns(stable[i + 1])))
            inside = oracle.lattice_key(stable[i] + image, n) == oracle.lattice_key(stable[i], n)
            onto = oracle.lattice_key(image + rels[i], n) == oracle.lattice_key(stable[i], n)
            same = oracle.quotient_invariants(stable[i + 1], rels[i + 1], n) == (
                oracle.quotient_invariants(stable[i], rels[i], n)
            )
            if not (inside and onto and same):
                lim = "NotStable"
                break
        else:
            lim = oracle.quotient_invariants(stable[0], rels[0], n)

    # the reversed tower as a direct system: level j is tower level nlev-1-j
    iso = []
    for j in range(nb):
        i = nlev - 2 - j
        onto = oracle.lattice_key(oracle.columns(bonds[i]) + rels[i], n) == (n, 1)
        iso.append(onto and levels[i + 1] == levels[i])
    t = len(iso)
    while t > 0 and iso[t - 1]:
        t -= 1
    colim = ("colim", levels[nlev - 1 - t], t) if t < len(iso) else ("not-finitely-stable", False)
    return tuple(levels), lim1, lim, colim


def _torsion_product(group) -> tuple:
    return (group.free_rank, prod(group.torsion))


def _tower_answer(levels, tower, system) -> tuple:
    import towertop.tower as towers

    lim1 = towers.lim1_class(tower).verdict
    lim = towers.tower_lim(tower)
    lim = _torsion_product(lim) if hasattr(lim, "free_rank") else "NotStable"
    colim = towers.colim_direct_system(system)
    if hasattr(colim, "group"):
        colim = ("colim", _torsion_product(colim.group), colim.index)
    else:
        colim = ("not-finitely-stable", colim.certified)
    return tuple(_torsion_product(g) for g in levels), lim1, lim, colim


def _lazy_oracle(compute):
    """Check against ``compute()``, evaluated once, after the first timed round."""
    memo = []

    def check(answer):
        if not memo:
            memo.append(compute())
        return expect_equal(memo[0])(answer)

    return check


def group_jobs(rng: Random, size: str) -> List[Job]:
    from towertop.abelian import FGAbelianGroup, GroupHom, IntegerMatrix
    from towertop.tower import Certificate, DirectSystem, GroupTower

    count, periodic = (8, 2) if size == "smoke" else (100, 6)
    jobs = []
    for index in range(count):
        # entries come from a stream of their own and the seed picks the
        # signs: dense towers differ widely in elimination cost, and a
        # seed that drew new entries would move the timings with it
        tower = random_group_tower(Random(f"group-tower {index}"), *TOWER_SHAPES[index % len(TOWER_SHAPES)])
        n, rels, bonds = flip_signs(rng, *tower)

        def run(n=n, rels=rels, bonds=bonds):
            levels = [FGAbelianGroup(n, IntegerMatrix(r, ncols=n)) for r in rels]
            homs = [GroupHom(levels[i + 1], levels[i], IntegerMatrix(a)) for i, a in enumerate(bonds)]
            return _tower_answer(levels, GroupTower(levels, homs), DirectSystem(levels[::-1], homs[::-1]))

        oracle = lambda n=n, rels=rels, bonds=bonds: random_tower_oracle(n, rels, bonds)
        jobs.append(Job(f"tower{index} n={n} depth={len(bonds)}", _lazy_oracle(oracle), run))

    for index in range(periodic):
        k, t, free, u, depth, units = periodic_group_tower(rng)
        group = (k, t or 1)
        want = (
            (group,) * (depth + 1),
            "Zero" if units == k else "Uncountable",
            (units, t or 1),
            ("colim", group, 0) if units == k else ("not-finitely-stable", True),
        )

        def run(k=k, t=t, free=free, u=u, depth=depth):
            g = FGAbelianGroup.from_invariants(k, [t] if t else [])
            endo = [row + [0] * (g.ngens - k) for row in free]
            if t:
                endo.append([0] * k + [u])
            hom = GroupHom(g, g, IntegerMatrix(endo))
            levels, homs = [g] * (depth + 1), [hom] * depth
            return _tower_answer(
                levels,
                GroupTower(levels, homs, Certificate("periodic")),
                DirectSystem(levels, homs, Certificate("periodic")),
            )

        jobs.append(Job(f"periodic{index} k={k} t={t}", expect_equal(want), run))
    return jobs


def library_jobs(workload: str, rng: Random, size: str) -> List[Job]:
    job_lists = {
        "gallery-reports": gallery_jobs,
        "large-complexes": large_jobs,
        "group-towers": group_jobs,
    }
    return job_lists[workload](rng, size)
