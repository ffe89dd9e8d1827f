"""Nerve, Lebesgue number, refinement, and nerve tower tests."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import towertop.nerve
from oracles import brute_cech_tower, brute_containment, brute_lebesgue, brute_nerve
from towertop.nerve import (
    BallCover,
    PointSample,
    cech_tower,
    distance,
    lebesgue_number,
    nerve,
    refinement_map,
)
from towertop.simplicial import homology, induced_map
from towertop.tower import homology_tower


def diamond_sample():
    """Twelve points on a max-metric circle of radius 3.

    Between nearby points the max distance equals the number of steps
    along the perimeter, so balls of integer radius trace out arcs.
    """
    pts = [
        (3, 0), (2, 1), (1, 2), (0, 3), (-1, 2), (-2, 1),
        (-3, 0), (-2, -1), (-1, -2), (0, -3), (1, -2), (2, -1),
    ]
    return PointSample(pts, range(12))


def three_arcs():
    return BallCover([(0, 2), (4, 2), (8, 2)])


def six_arcs():
    return BallCover([(11, 1), (1, 1), (3, 1), (5, 1), (7, 1), (9, 1)])


def two_arcs():
    return BallCover([(0, 4), (6, 4)])


# -- nerves ---------------------------------------------------------------


def test_three_arc_nerve_is_a_hollow_triangle():
    s = diamond_sample()
    n = nerve(three_arcs(), s)
    assert len(n.vertices) == 3
    assert homology(n, 1).group.invariants == (1, ())
    assert homology(n, 0).group.invariants == (1, ())
    assert not any(len(x) == 3 for x in n.simplexes)


def test_six_arc_nerve_is_a_hexagon():
    s = diamond_sample()
    n = nerve(six_arcs(), s)
    assert len(n.vertices) == 6
    assert sorted(x for x in n.simplexes if len(x) == 2) == [
        (0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)
    ]
    assert homology(n, 1).group.invariants == (1, ())


def test_single_element_nerve_is_a_vertex():
    s = PointSample([(0, 0), (1, 0)])
    n = nerve(BallCover([(0, 5)]), s)
    assert n.simplexes == frozenset({(0,)})


def test_disjoint_elements_give_isolated_vertices():
    s = PointSample([(0, 0), (10, 0)])
    n = nerve(BallCover([(0, 1), (1, 1)]), s)
    assert len(n.vertices) == 2
    assert not any(len(x) == 2 for x in n.simplexes)


def test_elements_with_empty_trace_still_appear():
    s = PointSample([(0, 0)])
    n = nerve(BallCover([(0, Fraction(1, 2)), (0, Fraction(1, 4))]), s)
    assert set(n.vertices) == {0, 1}


def test_nerve_is_monotone_in_the_cover():
    rng = random.Random(11)
    for _ in range(15):
        count = rng.randint(2, 12)
        pts = [(rng.randint(0, 9), rng.randint(0, 9)) for _ in range(count)]
        s = PointSample(pts)
        elements = [
            (rng.randrange(count), Fraction(rng.randint(1, 8), rng.randint(1, 3)))
            for _ in range(rng.randint(1, 5))
        ]
        small = nerve(BallCover(elements), s)
        grown = nerve(
            BallCover(elements + [(rng.randrange(count), rng.randint(1, 6))]), s
        )
        assert small.simplexes <= grown.simplexes


# -- lebesgue numbers ------------------------------------------------------


def test_lebesgue_single_ball_slack():
    s = PointSample([(0,), (3,)])
    assert lebesgue_number(s, BallCover([(0, Fraction(7, 2))])) == Fraction(1, 2)


def test_lebesgue_two_unit_balls():
    s = PointSample([(0,), (1,)])
    assert lebesgue_number(s, BallCover([(0, 1), (1, 1)])) == 1


def test_lebesgue_boundary_point_gives_zero():
    s = PointSample([(0,), (1,)])
    assert lebesgue_number(s, BallCover([(0, 1)])) == 0


def test_lebesgue_uncovered_point_raises():
    s = PointSample([(0,), (2,)])
    with pytest.raises(ValueError, match="misses sample point 1"):
        lebesgue_number(s, BallCover([(0, 1)]))


def test_lebesgue_maximality_brute_force():
    rng = random.Random(23)
    done = 0
    while done < 30:
        count = rng.randint(1, 12)
        pts = [(rng.randint(0, 12), rng.randint(0, 12)) for _ in range(count)]
        s = PointSample(pts)
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
            with pytest.raises(ValueError):
                lebesgue_number(s, cover)
            continue
        lam = lebesgue_number(s, cover)
        assert lam == min(slacks)
        assert all(depth >= lam for depth in slacks)
        # maximality: any strictly larger bound fails at some point
        bigger = lam + Fraction(1, 1000)
        assert any(depth < bigger for depth in slacks)
        done += 1


# -- refinement ------------------------------------------------------------


def test_identical_covers_refine_by_the_identity():
    s = diamond_sample()
    r = refinement_map(three_arcs(), three_arcs(), s)
    assert r.vertex_map == {0: 0, 1: 1, 2: 2}


def test_halves_refine_into_their_parent():
    s = PointSample([(0,), (1,)])
    parent = BallCover([(0, 2)])
    halves = BallCover([(0, Fraction(1, 4)), (1, Fraction(1, 4))])
    r = refinement_map(halves, parent, s)
    assert r.vertex_map == {0: 0, 1: 0}
    assert set(r.vertex_map.values()) == set(range(len(parent.elements)))


def test_circle_refinement_induces_a_degree_one_map():
    s = diamond_sample()
    r = refinement_map(six_arcs(), three_arcs(), s)
    assert r.vertex_map == {0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 5: 2}
    assert induced_map(r, 1).canonical_matrix().rows in (((1,),), ((-1,),))


def test_refinement_needs_trace_containment():
    s = diamond_sample()
    with pytest.raises(ValueError, match="fine element"):
        refinement_map(three_arcs(), six_arcs(), s)


def test_refinement_contiguity_and_induced_agreement():
    rng = random.Random(37)
    for _ in range(15):
        count = rng.randint(3, 20)
        pts = [(rng.randint(0, 15), rng.randint(0, 15)) for _ in range(count)]
        s = PointSample(pts)
        centers = [rng.randrange(count) for _ in range(rng.randint(2, 6))]
        r1 = Fraction(rng.randint(1, 8), 2)
        r2, r3 = r1 + rng.randint(1, 4), r1 + 4 + rng.randint(1, 4)
        fine = BallCover([(c, r1) for c in centers])
        mid = BallCover([(c, r2) for c in centers])
        coarse = BallCover([(c, r3) for c in centers])
        lower = refinement_map(fine, mid, s)
        upper = refinement_map(mid, coarse, s)
        composed = upper.compose(lower)
        direct = refinement_map(fine, coarse, s)
        target = nerve(coarse, s)
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


# -- towers ----------------------------------------------------------------


def test_shrinking_tower_loses_the_circle():
    s = diamond_sample()
    t = cech_tower(s, [1, Fraction(1, 2)])
    assert t.certificate is None
    h1 = homology_tower(t, 1)
    assert [g.invariants for g in h1.levels] == [(1, ()), (0, ())]


def test_single_point_tower_is_constant():
    s = PointSample([(0, 0)], [0])
    t = cech_tower(s, [1, Fraction(1, 2), Fraction(1, 4)])
    assert len(t.levels) == 3
    assert all(k.simplexes == frozenset({(0,)}) for k in t.levels)


def test_fixed_cover_rides_along_every_level():
    s = PointSample([(0, 0), (10, 0)], [0])
    t = cech_tower(s, [2, 1], fixed_cover=BallCover([(1, 1)]))
    for level in t.levels:
        assert set(level.vertices) == {0, 1}
        assert not any(len(x) == 2 for x in level.simplexes)


def test_tower_preconditions():
    s = diamond_sample()
    with pytest.raises(ValueError, match="nonempty compactum mark"):
        cech_tower(PointSample([(0, 0)]), [1])
    with pytest.raises(ValueError, match="strictly decreasing"):
        cech_tower(s, [1, 1])
    with pytest.raises(ValueError, match="positive"):
        cech_tower(s, [1, 0])
    with pytest.raises(ValueError, match="at least one radius"):
        cech_tower(s, [])
    far = PointSample([(0, 0), (50, 0)], [0])
    with pytest.raises(ValueError, match="stage 1 fails to cover sample point 1"):
        cech_tower(far, [60, 1])


def test_exactness_guards():
    with pytest.raises(ValueError, match="exact rationals"):
        PointSample([(0.5, 0)])
    with pytest.raises(ValueError, match="exact rationals"):
        BallCover([(0, 0.5)])
    with pytest.raises(ValueError, match="ambient dimension"):
        PointSample([(0, 0), (1,)])
    with pytest.raises(ValueError, match="outside the sample"):
        PointSample([(0, 0)], [3])
    with pytest.raises(ValueError, match="radius must be positive"):
        BallCover([(0, -1)])
    with pytest.raises(ValueError, match="outside the sample"):
        nerve(BallCover([(5, 1)]), PointSample([(0, 0)]))


@pytest.mark.parametrize("x", [1.7, True, Fraction(3, 2), "1"], ids=repr)
def test_ball_cover_rejects_a_non_int_center(x):
    # 1.7 was once truncated to the center 1
    with pytest.raises(ValueError, match="^center must be an int"):
        BallCover([(x, 1)])


@pytest.mark.parametrize("x", [0.9, True, Fraction(1, 2), "0"], ids=repr)
def test_point_sample_rejects_a_non_int_mark(x):
    # 0.9 was once truncated to the mark 0
    with pytest.raises(ValueError, match="^compactum mark must be an int"):
        PointSample([(0, 0), (1, 1)], [x])


def test_lebesgue_of_an_empty_cover_raises():
    with pytest.raises(ValueError, match="^the cover has no elements$"):
        lebesgue_number(PointSample([(0, 0)]), BallCover([]))
    # a center outside the sample is named first
    with pytest.raises(ValueError, match="^ball center 2 indexes outside the sample$"):
        lebesgue_number(PointSample([(0, 0)]), BallCover([(2, 1)]))


# -- each distance once ------------------------------------------------------


@pytest.fixture
def distances(monkeypatch):
    """The number of point-to-center distances the test computes."""
    calls = []
    real = towertop.nerve.distance

    def counting(x, y):
        calls.append(None)
        return real(x, y)

    monkeypatch.setattr(towertop.nerve, "distance", counting)
    return calls


def test_each_cover_measures_each_distance_once(distances):
    s = diamond_sample()
    # three stages of twelve balls over twelve points
    t = cech_tower(s, [3, 2, 1])
    assert len(distances) == 3 * 12 * 12 and len(t.levels) == 3
    del distances[:]
    # three and two elements over twelve points, whichever nerve or map reads them
    assert refinement_map(three_arcs(), two_arcs(), s).vertex_map == {0: 0, 1: 1, 2: 1}
    assert len(distances) == (3 + 2) * 12
    for question in (lambda: nerve(three_arcs(), s), lambda: lebesgue_number(s, three_arcs())):
        del distances[:]
        question()
        assert len(distances) == 3 * 12


# -- against brute force -----------------------------------------------------


def outcome(question):
    """The answer, or the message of the ValueError raised instead."""
    try:
        return "answer", question()
    except ValueError as e:
        return "error", str(e)


_RADII = st.fractions(min_value=Fraction(1, 3), max_value=5, max_denominator=3)


@st.composite
def sample_points(draw):
    dim = draw(st.integers(1, 2))
    coordinate = st.fractions(min_value=-4, max_value=4, max_denominator=3)
    return draw(st.lists(st.tuples(*[coordinate] * dim), min_size=1, max_size=6))


def covers(count: int):
    """Up to four balls; a center may be one past the last sample point."""
    return st.lists(st.tuples(st.integers(0, count), _RADII), max_size=4)


@given(st.data())
def test_nerve_and_lebesgue_match_brute_force(data):
    points = data.draw(sample_points())
    elements = data.draw(covers(len(points)))
    s, cover = PointSample(points), BallCover(elements)
    assert outcome(lambda: nerve(cover, s).simplexes) == outcome(
        lambda: brute_nerve(s.points, cover.elements)
    )
    assert outcome(lambda: lebesgue_number(s, cover)) == outcome(
        lambda: brute_lebesgue(s.points, cover.elements)
    )


@given(st.data())
def test_refinement_maps_match_brute_force(data):
    s = PointSample(data.draw(sample_points()))
    coarse = BallCover(data.draw(covers(len(s.points))))
    # a random fine cover, and the coarse one with every radius halved
    for fine in (
        BallCover(data.draw(covers(len(s.points)))),
        BallCover([(c, r / 2) for c, r in coarse.elements]),
    ):
        assert outcome(lambda: refinement_map(fine, coarse, s).vertex_map) == outcome(
            lambda: brute_containment(s.points, fine.elements, coarse.elements)
        )


@given(st.data())
def test_cech_towers_match_brute_force(data):
    points = data.draw(sample_points())
    marked = data.draw(st.sets(st.integers(0, len(points) - 1), min_size=1))
    radii = sorted(data.draw(st.sets(_RADII, min_size=1, max_size=3)), reverse=True)
    fixed = data.draw(st.none() | covers(len(points)).map(BallCover))
    s = PointSample(points, marked)

    def tower():
        t = cech_tower(s, radii, fixed)
        return [k.simplexes for k in t.levels], [b.vertex_map for b in t.bonds]

    assert outcome(tower) == outcome(
        lambda: brute_cech_tower(s.points, marked, radii, fixed.elements if fixed else ())
    )
