"""Validator and gallery tests: interiority, axiom checks, violations."""

import hashlib
import re
from unittest.mock import patch

from oracles import inline_simplex_order
from towertop.cli import serialize
from towertop.compactohedral import (
    VARIANTS,
    build_gallery,
    contained_in_interior,
    fence_violation,
    implied_collars,
    validate,
)
from towertop.simplicial import SimplicialComplex, SimplicialMap, homology
from towertop.tower import ComplexTower, homology_tower, lim1_class, tower_lim

import pytest


def cl(maximal, extra=()):
    return SimplicialComplex.from_maximal(maximal, extra_vertices=extra)


# -- interiority ---------------------------------------------------------


def test_whole_complex_is_interior_to_itself():
    k = cl([("a", "b", "c")])
    assert contained_in_interior(k, k, k)


def test_interiority_on_a_path():
    path = cl([("a", "b"), ("b", "c")])
    endpoint = cl([], extra=["a"])
    half = cl([("a", "b")])
    assert contained_in_interior(endpoint, half, path)
    middle = cl([], extra=["b"])
    # the edge bc touches b but escapes the closed half
    assert not contained_in_interior(middle, half, path)
    assert contained_in_interior(middle, path, path)


def test_interiority_monotone_in_the_outer_complex():
    path = cl([("a", "b"), ("b", "c"), ("c", "d")])
    inner = cl([], extra=["b"])
    small = cl([("a", "b"), ("b", "c")])
    bigger = small.union(cl([("c", "d")]))
    assert contained_in_interior(inner, small, path)
    assert contained_in_interior(inner, bigger, path)


def test_interiority_requires_subcomplexes():
    path = cl([("a", "b")])
    stray = cl([], extra=["z"])
    with pytest.raises(ValueError):
        contained_in_interior(stray, path, path)
    with pytest.raises(ValueError):
        contained_in_interior(path, stray, path)


# -- gallery -------------------------------------------------------------

GALLERY = [
    ("comb", dict(teeth=6, depth=3)),
    ("fence", dict(segments=6, depth=3)),
    ("solenoid", dict(p=2, depth=3)),
    ("warsaw", dict(depth=2)),
]


def test_gallery_passes_every_variant():
    for fam, kw in GALLERY:
        t = build_gallery(fam, **kw)
        for variant in VARIANTS:
            report = validate(t, variant)
            assert report.passed, (fam, variant, report.violations)
        assert validate(t, "compactohedral").headline() == "PASS (C0..C3)"


def test_comb_homology_profile():
    t = build_gallery("comb", teeth=6, depth=3)
    assert [homology(level, 1).group.invariants for level in t.levels] == [
        (5, ()), (4, ()), (3, ()), (2, ())
    ]
    assert all(homology(level, 0).group.invariants == (1, ()) for level in t.levels)


def test_fence_homology_profile():
    t = build_gallery("fence", segments=6, depth=3)
    assert [homology(level, 1).group.invariants for level in t.levels] == [
        (5, ()), (4, ()), (3, ()), (2, ())
    ]
    assert [homology(level, 0).group.invariants for level in t.levels] == [
        (1, ()), (2, ()), (3, ()), (4, ())
    ]


def test_gallery_certificates_transfer_to_homology():
    comb = build_gallery("comb", teeth=6, depth=3)
    assert homology_tower(comb, 1).certificate.kind == "shift_family"
    assert homology_tower(comb, 0).certificate.kind == "periodic"

    solenoid = build_gallery("solenoid", p=2, depth=4)
    assert homology_tower(solenoid, 1).certificate.kind == "periodic"

    fence = build_gallery("fence", segments=6, depth=3)
    assert homology_tower(fence, 1).certificate is None


def test_gallery_limits():
    comb1 = homology_tower(build_gallery("comb", teeth=6, depth=3), 1)
    assert tower_lim(comb1).invariants == (0, ())
    shape = lim1_class(comb1)
    assert shape.verdict == "Uncountable"
    assert shape.display == "Prod(Z)/Sum(Z)"

    warsaw1 = homology_tower(build_gallery("warsaw", depth=2), 1)
    assert tower_lim(warsaw1).invariants == (1, ())
    assert lim1_class(warsaw1).verdict == "Zero"


def test_collar_attachment_makes_collared_variants_pass():
    t = build_gallery("comb", teeth=5, depth=2)
    bare = ComplexTower(t.levels, t.bonds, t.marked_K, certificate=t.certificate)
    assert validate(bare, "compactohedral").passed
    assert validate(bare, "weakly_compactohedral").passed
    for variant in ("pre_compactohedral", "weakly_pre_compactohedral"):
        with pytest.raises(ValueError) as e:
            validate(bare, variant)
        assert str(e.value) == f"{variant} needs marked_L on every level"
    collared = implied_collars(bare)
    assert validate(collared, "pre_compactohedral").passed
    assert validate(collared, "weakly_pre_compactohedral").passed


@pytest.mark.parametrize(
    "name, params, digest",
    [
        ("comb", {"teeth": 2, "depth": 1},
         "d24fe0e11e4c869b23d9349c60abafede3e73cca1f92a379a1d545c437d6d63e"),
        ("comb", {"teeth": 5, "depth": 3},
         "0cf0d81d4d88abde2c540df2ba8d83a23da80acf6a7d620012244c892ac41c56"),
        ("comb", {"teeth": 9, "depth": 5},
         "58d729cfd247ab7cffc47b9e331909edaad2b62458184573439f08c50292f9ae"),
        ("fence", {"segments": 2, "depth": 1},
         "b4c6d86e1df65da8adaed28477bf0e12786f0ed001c7bc8fe70a8e0f79a5138e"),
        ("fence", {"segments": 5, "depth": 3},
         "cd708c7d74168260b196841d95f0c946a9f3df85e318f9674ee2f74e4572088f"),
        ("fence", {"segments": 7, "depth": 4},
         "b5b2fab965b3839938e30e0832e84f394114bc91b20b643b490f2d95a4c95bc3"),
        ("solenoid", {"p": 2, "depth": 1},
         "7b805d1d6ff04eea9657e0ffc40eb11642b844383ce2e177afa8090ac4a7e397"),
        ("solenoid", {"p": 2, "depth": 4},
         "b5c3939816e53c1426724a9625c1351c23d755482ceebf04836d7395587ab477"),
        ("solenoid", {"p": 3, "depth": 5},
         "559d702aaabdc544a6b1942d06f48e52acccb90dc75a93ebe13bb84ac002ea75"),
        ("warsaw", {"depth": 1},
         "c1185b6058a4c0977a581c8ea0d1c119dc000b39eb0a76747b3c216d2f07952d"),
        ("warsaw", {"depth": 5},
         "83283dc42481c1e252c36c43c28fbf99a55508a62987ec6900670d9e775d8a45"),
    ],
)
def test_gallery_towers_serialize_to_pinned_bytes(name, params, digest):
    text = serialize("complex_tower", build_gallery(name, **params))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_gallery_parameter_validation():
    with pytest.raises(ValueError):
        build_gallery("comb", teeth=2, depth=3)
    with pytest.raises(ValueError):
        build_gallery("fence", segments=6, depth=0)
    with pytest.raises(ValueError):
        build_gallery("solenoid", p=1, depth=3)
    with pytest.raises(ValueError):
        build_gallery("nonsense", depth=1)
    with pytest.raises(ValueError):
        fence_violation("C0", 6, 3)


@pytest.mark.parametrize(
    "name, params, message",
    [
        ("comb", {"depth": 2}, "comb needs the keyword 'teeth'"),
        ("warsaw", {}, "warsaw needs the keyword 'depth'"),
        ("warsaw", {"depth": 2, "p": 3}, "warsaw does not read the keyword 'p'"),
        ("comb", {"teeth": 4, "depth": 2, "segments": 4}, "comb does not read the keyword 'segments'"),
        ("comb", {"teeth": "4", "depth": 2}, "teeth must be an int, got '4'"),
        ("comb", {"teeth": 4, "depth": 2.7}, "depth must be an int, got 2.7"),
        ("solenoid", {"p": True, "depth": 2}, "p must be an int, got True"),
    ],
)
def test_gallery_rejects_missing_unread_and_non_integer_keywords(name, params, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build_gallery(name, **params)


def test_validation_requires_markings():
    t = build_gallery("warsaw", depth=2)
    bare = ComplexTower(t.levels, t.bonds)
    with pytest.raises(ValueError):
        validate(bare, "compactohedral")
    with pytest.raises(ValueError):
        validate(t, "made_up_variant")


# -- violations ----------------------------------------------------------


def test_each_violation_fails_exactly_its_axiom():
    for axiom in ("C1", "C2", "C3"):
        t = fence_violation(axiom, 6, 3)
        report = validate(t, "compactohedral")
        assert report.verdict == "FAIL"
        assert report.failed_axiom() == axiom
        assert report.headline() == f"FAIL ({axiom})"
        assert all(v.axiom == axiom for v in report.violations)
        for v in report.violations:
            assert t.levels[v.level].has_simplex(v.witness)


def test_violation_witnesses_are_where_expected():
    c1 = validate(fence_violation("C1", 6, 3), "compactohedral").violations[0]
    assert c1.level == 2
    assert c1.witness == (("s", 1, 0),)
    assert c1.detail == "marked simplex whose image escapes the coarse marking"

    c2 = validate(fence_violation("C2", 6, 3), "compactohedral").violations[0]
    assert c2.level == 2

    c3 = validate(fence_violation("C3", 6, 3), "compactohedral").violations[0]
    assert c3.level == 1
    assert c3.witness == (("s", 1, 4), ("s", 1, 5))

    # C3 (open complements) and C3'' (closed complements) share one
    # check; only the compared sides and the detail phrase differ
    gone = (("s", 1, 4), ("s", 1, 5))
    for variant, axiom, where in (
        ("compactohedral", "C3", "away from the marking"),
        ("pre_compactohedral", "C3''", "in the closed complement"),
    ):
        report = validate(fence_violation("C3", 6, 3), variant)
        assert [(v.axiom, v.level, v.witness, v.detail) for v in report.violations] == [
            (axiom, 1, gone, f"coarse simplex has no counterpart {where}")
        ]


def collar_escape_tower() -> ComplexTower:
    """A fence whose collars are whole levels, so each bond carries its collar out of K."""
    base = build_gallery("fence", segments=4, depth=2)
    return ComplexTower(base.levels, base.bonds, base.marked_K, base.levels)


def test_collar_escape_is_reported_at_every_level():
    escape = "collar simplex whose image escapes the coarse marking"
    for variant, axiom in (("pre_compactohedral", "C2''"), ("weakly_pre_compactohedral", "C2'")):
        report = validate(collar_escape_tower(), variant)
        assert [(v.axiom, v.level, v.witness, v.detail) for v in report.violations] == [
            (axiom, 1, (("s", 1, 4),), escape),
            (axiom, 2, (("s", 1, 0),), escape),
        ]


def test_validators_walk_simplexes_in_the_inline_order():
    towers = [fence_violation(axiom, 6, 3) for axiom in ("C1", "C2", "C3")]
    towers.append(collar_escape_tower())
    inline = lambda k: inline_simplex_order(k.simplexes)  # noqa: E731
    for t in towers:
        for variant in VARIANTS:
            shared = validate(t, variant).violations
            with patch.object(SimplicialComplex, "ordered", inline):
                assert validate(t, variant).violations == shared


def test_complement_isomorphism_needs_a_vertex_bijection():
    empty = SimplicialComplex([])
    triangle = cl([(0, 1), (1, 2), (0, 2)])
    hexagon = cl([(i, (i + 1) % 6) for i in range(6)])
    fold = SimplicialMap(hexagon, triangle, {v: v % 3 for v in range(6)})
    edge = cl([(0, 1)])
    short = SimplicialMap.inclusion(edge, triangle)
    for fine, bond, witness, what in (
        (hexagon, fold, (0,), "covered twice"),
        (edge, short, (2,), "not covered"),
    ):
        t = ComplexTower([triangle, fine], [bond], [empty, empty], [empty, empty])
        for variant, axiom, where in (
            ("compactohedral", "C3", "away from the marking"),
            ("pre_compactohedral", "C3''", "in the closed complement"),
            ("weakly_pre_compactohedral", "C3'", "away from the marking"),
        ):
            report = validate(t, variant)
            assert [(v.axiom, v.level, v.witness, v.detail) for v in report.violations] == [
                (axiom, 0, witness, f"coarse vertex {what} {where}")
            ]


def test_weaker_variants_tolerate_the_interiority_break():
    t = fence_violation("C2", 6, 3)
    assert validate(t, "compactohedral").headline() == "FAIL (C2)"
    assert validate(t, "weakly_compactohedral").passed
    assert validate(t, "weakly_pre_compactohedral").passed
    assert validate(t, "pre_compactohedral").headline() == "FAIL (C2'')"


def test_collar_hides_the_boundary_break_from_the_weakest_variant():
    t = fence_violation("C3", 6, 3)
    assert validate(t, "compactohedral").headline() == "FAIL (C3)"
    assert validate(t, "weakly_compactohedral").headline() == "FAIL (C3)"
    assert validate(t, "pre_compactohedral").headline() == "FAIL (C3'')"
    # the deleted edge sits inside the collar, which this variant ignores
    assert validate(t, "weakly_pre_compactohedral").passed


def test_marking_break_fails_everywhere():
    t = fence_violation("C1", 6, 3)
    for variant in VARIANTS:
        assert validate(t, variant).failed_axiom() == "C1"


def test_a_level_missing_a_face_fails_c0():
    # a triangle without its edge (2, 3): the identity still carries
    # every simplex to one, so only the validator catches it
    level = SimplicialComplex([(1,), (2,), (3,), (1, 2), (1, 3), (1, 2, 3)])
    report = validate(ComplexTower([level], [], [level]))
    assert report.headline() == "FAIL (C0)"
    assert report.violations[0].witness == (1, 2, 3)
    assert report.violations[0].detail == "missing face"


def test_a_marking_outside_its_collar_fails_c2_prime():
    edge = cl([("a", "b")])
    tower = ComplexTower([edge], [], [edge], [cl([], extra=["a"])])
    report = validate(tower, "weakly_pre_compactohedral")
    assert report.headline() == "FAIL (C2')"
    assert [(v.level, v.witness, v.detail) for v in report.violations] == [
        (0, ("b",), "marking not contained in the collar")
    ]


def test_a_passing_weak_variant_lists_its_axioms():
    report = validate(build_gallery("warsaw", depth=2), "weakly_compactohedral")
    assert report.headline() == "PASS (C0,C1,C3)"
