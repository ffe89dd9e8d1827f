"""Finite-metric nerve machinery: ball covers, Lebesgue numbers, towers.

Everything here is exact: points have rational coordinates, distances
use the max metric, and balls are closed.  Intersections are
sample-witnessed — a collection of balls counts as overlapping exactly
when some sample point lies in all of them — so every question about a
cover is decidable by finite enumeration.  Each cover's distances are
measured once, into one table of every sample point's distance to each
element's center; the Lebesgue number reads depths from it, and the
nerve, the containment projection and the tower's coverage check read
the membership list built from it.

A nerve has one vertex per cover element (kept even when the element
captures no sample point) and a simplex for every witnessed overlap.
Refinement between covers over the same sample is the classical
containment projection: each fine element goes to the least-index
coarse element whose trace contains its own.  The projection is
automatically simplicial, and any two such projections between the
same covers are contiguous, so the induced homology maps agree.
"""

from fractions import Fraction
from typing import TYPE_CHECKING, Optional, Sequence

from .abelian import _Record, _exact_int
from .simplicial import SimplicialComplex, SimplicialMap, check_face_budget

if TYPE_CHECKING:  # only cech_tower builds a tower, and imports it there
    from .tower import ComplexTower


def _rational(value) -> Fraction:
    if isinstance(value, float):
        raise ValueError("coordinates and radii must be exact rationals, not floats")
    return Fraction(value)


class PointSample(_Record):
    """Finite point set with exact coordinates and a marked subset.

    The marked indices designate the points sampled from the compact
    part of the space; tower construction shrinks balls around them.
    """

    __slots__ = _fields = ("points", "compactum_mark")

    def __init__(self, points, compactum_mark=()):
        pts = tuple(tuple(_rational(c) for c in p) for p in points)
        if not pts:
            raise ValueError("a sample needs at least one point")
        dim = len(pts[0])
        if any(len(p) != dim for p in pts):
            raise ValueError("all points must share one ambient dimension")
        mark = frozenset(_exact_int(i, "compactum mark") for i in compactum_mark)
        if any(i < 0 or i >= len(pts) for i in mark):
            raise ValueError("compactum mark indexes outside the sample")
        _Record.__init__(self, pts, mark)


class BallCover(_Record):
    """Closed max-metric balls, each centered at a sample point index."""

    __slots__ = _fields = ("elements",)

    def __init__(self, elements):
        elems = []
        for center, radius in elements:
            center = _exact_int(center, "center")
            radius = _rational(radius)
            if center < 0:
                raise ValueError("center must be a point index")
            if radius <= 0:
                raise ValueError("radius must be positive")
            elems.append((center, radius))
        _Record.__init__(self, tuple(elems))


def distance(x: Sequence[Fraction], y: Sequence[Fraction]) -> Fraction:
    """Max-metric distance, exact."""
    return max(abs(a - b) for a, b in zip(x, y))


def _distances(sample: PointSample, cover: BallCover) -> list:
    """Each sample point's distances to the element centers, in element order."""
    for center, _ in cover.elements:
        if center >= len(sample.points):
            raise ValueError(f"ball center {center} indexes outside the sample")
    centers = [sample.points[center] for center, _ in cover.elements]
    return [[distance(p, c) for c in centers] for p in sample.points]


def _members(sample: PointSample, cover: BallCover) -> list:
    """Each sample point's containing elements, as a tuple of element indices."""
    table = _distances(sample, cover)
    return [tuple(e for e, d in enumerate(row) if d <= cover.elements[e][1]) for row in table]


def lebesgue_number(sample: PointSample, cover: BallCover) -> Fraction:
    """Largest λ with: every sample point has an element at depth ≥ λ.

    Depth of a point in an element (c, r) is r - d(point, c); the
    returned λ is the smallest of the best depths, and zero signals a
    point sitting exactly on its only covering element's boundary.
    """
    table = _distances(sample, cover)
    if not cover.elements:
        raise ValueError("the cover has no elements")
    worst: Optional[Fraction] = None
    for i, row in enumerate(table):
        best = max(r - d for d, (_, r) in zip(row, cover.elements))
        if best < 0:
            raise ValueError(f"the cover misses sample point {i}")
        worst = best if worst is None else min(worst, best)
    return worst


def _nerve(cover: BallCover, members: list) -> SimplicialComplex:
    witnessed = [touching for touching in members if touching]
    check_face_budget(witnessed)
    return SimplicialComplex.from_maximal(witnessed, extra_vertices=range(len(cover.elements)))


def nerve(cover: BallCover, sample: PointSample) -> SimplicialComplex:
    """Sample-witnessed nerve: a simplex per overlap seen by some point.

    Vertices are the element indices, all of them; an element whose
    ball captures no sample point contributes an isolated vertex.  A
    nerve whose witnessed overlaps may close to more than
    ``simplicial.MAX_SIMPLEXES`` faces raises ``TooManySimplexes``
    before any face is built.
    """
    return _nerve(cover, _members(sample, cover))


def _containment(fine: BallCover, fine_members, coarse: BallCover, coarse_members) -> dict:
    """Vertex map sending each fine element to the least-index coarse element containing it.

    A coarse element contains a fine one when it holds every sample point the fine one holds.
    """
    homes = [set(range(len(coarse.elements))) for _ in fine.elements]
    for touching, around in zip(fine_members, coarse_members):
        for e in touching:
            homes[e].intersection_update(around)
    vertex_map = {}
    for e, home in enumerate(homes):
        if not home:
            raise ValueError(f"fine element {e} is inside no coarse element over the sample")
        vertex_map[e] = min(home)
    return vertex_map


def refinement_map(
    fine: BallCover, coarse: BallCover, sample: PointSample
) -> SimplicialMap:
    """Containment projection from the fine nerve to the coarse nerve.

    Each fine element goes to the least-index coarse element whose
    sample-trace contains its own.  Whenever a witness point sees a
    fine overlap, the same point sees the image overlap, so the vertex
    map is simplicial on the witnessed nerves.
    """
    fine_seen, coarse_seen = ((c, _members(sample, c)) for c in (fine, coarse))
    vertex_map = _containment(*fine_seen, *coarse_seen)  # rejects a bad pair before any nerve
    return SimplicialMap(_nerve(*fine_seen), _nerve(*coarse_seen), vertex_map)


def cech_tower(
    sample: PointSample, schedule, fixed_cover: Optional[BallCover] = None
) -> "ComplexTower":
    """Tower of nerves with balls shrinking around the marked points.

    Level ``i`` covers the sample by the fixed cover (the part of the
    space away from the compactum, unchanged at every level) together
    with one ball of radius ``schedule[i]`` around each marked point.
    Bonds are containment projections between the level nerves
    themselves, which exist at every stage because same-center balls
    nest as the radius falls.  The tower carries no certificate:
    nothing about an unseen deeper stage is asserted.
    """
    from .tower import ComplexTower

    radii = [_rational(r) for r in schedule]
    if not radii:
        raise ValueError("the schedule needs at least one radius")
    if any(r <= 0 for r in radii):
        raise ValueError("radii must be positive")
    if any(b >= a for a, b in zip(radii, radii[1:])):
        raise ValueError("the schedule must be strictly decreasing")
    if not sample.compactum_mark:
        raise ValueError("tower construction needs a nonempty compactum mark")
    fixed = list(fixed_cover.elements) if fixed_cover is not None else []
    marked = sorted(sample.compactum_mark)

    stages = []  # (cover, members) per stage
    for stage, r in enumerate(radii):
        cover = BallCover(fixed + [(p, r) for p in marked])
        stages.append((cover, _members(sample, cover)))
        for i, touching in enumerate(stages[-1][1]):
            if not touching:
                raise ValueError(f"stage {stage} fails to cover sample point {i}")
    levels = [_nerve(*s) for s in stages]
    bonds = [
        SimplicialMap(levels[i + 1], levels[i], _containment(*stages[i + 1], *stages[i]))
        for i in range(len(stages) - 1)
    ]
    return ComplexTower(levels, bonds)
