"""Finite-metric nerve machinery: ball covers, Lebesgue numbers, towers.

Everything here is exact: points have rational coordinates, distances
use the max metric, and balls are closed.  Intersections are
sample-witnessed — a collection of balls counts as overlapping exactly
when some sample point lies in all of them — so every question about a
cover is decidable by finite enumeration.

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

from .abelian import _Record
from .simplicial import SimplicialComplex, SimplicialMap

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
        mark = frozenset(int(i) for i in compactum_mark)
        if any(i < 0 or i >= len(pts) for i in mark):
            raise ValueError("compactum mark indexes outside the sample")
        _Record.__init__(self, pts, mark)


class BallCover(_Record):
    """Closed max-metric balls, each centered at a sample point index."""

    __slots__ = _fields = ("elements",)

    def __init__(self, elements):
        elems = []
        for center, radius in elements:
            center = int(center)
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


def _check_centers(sample: PointSample, cover: BallCover):
    for center, _ in cover.elements:
        if center >= len(sample.points):
            raise ValueError(f"ball center {center} indexes outside the sample")


def _trace(sample: PointSample, cover: BallCover, index: int) -> frozenset:
    """Indices of the sample points inside one cover element."""
    center, radius = cover.elements[index]
    c = sample.points[center]
    return frozenset(
        i for i, p in enumerate(sample.points) if distance(p, c) <= radius
    )


def lebesgue_number(sample: PointSample, cover: BallCover) -> Fraction:
    """Largest λ with: every sample point has an element at depth ≥ λ.

    Depth of a point in an element (c, r) is r - d(point, c); the
    returned λ is the smallest of the best depths, and zero signals a
    point sitting exactly on its only covering element's boundary.
    """
    _check_centers(sample, cover)
    if not cover.elements:
        raise ValueError("the cover has no elements")
    worst: Optional[Fraction] = None
    for i, p in enumerate(sample.points):
        best = max(
            radius - distance(p, sample.points[center])
            for center, radius in cover.elements
        )
        if best < 0:
            raise ValueError(f"the cover misses sample point {i}")
        worst = best if worst is None else min(worst, best)
    return worst


def nerve(cover: BallCover, sample: PointSample) -> SimplicialComplex:
    """Sample-witnessed nerve: a simplex per overlap seen by some point.

    Vertices are the element indices, all of them; an element whose
    ball captures no sample point contributes an isolated vertex.
    """
    _check_centers(sample, cover)
    witnessed = []
    for i, p in enumerate(sample.points):
        touching = tuple(
            e
            for e, (center, radius) in enumerate(cover.elements)
            if distance(p, sample.points[center]) <= radius
        )
        if touching:
            witnessed.append(touching)
    return SimplicialComplex.from_maximal(
        witnessed, extra_vertices=range(len(cover.elements))
    )


def _containment(fine: BallCover, coarse: BallCover, sample: PointSample) -> dict:
    """Vertex map sending each fine element to the least-index coarse element containing it."""
    _check_centers(sample, fine)
    _check_centers(sample, coarse)
    coarse_traces = [_trace(sample, coarse, j) for j in range(len(coarse.elements))]
    vertex_map = {}
    for e in range(len(fine.elements)):
        t = _trace(sample, fine, e)
        home = next((j for j, ct in enumerate(coarse_traces) if t <= ct), None)
        if home is None:
            raise ValueError(
                f"fine element {e} is inside no coarse element over the sample"
            )
        vertex_map[e] = home
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
    vertex_map = _containment(fine, coarse, sample)  # rejects a bad pair before any nerve
    return SimplicialMap(nerve(fine, sample), nerve(coarse, sample), vertex_map)


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

    covers = []
    for stage, r in enumerate(radii):
        cover = BallCover(fixed + [(p, r) for p in marked])
        _check_centers(sample, cover)
        for i, p in enumerate(sample.points):
            if all(
                distance(p, sample.points[center]) > radius
                for center, radius in cover.elements
            ):
                raise ValueError(f"stage {stage} fails to cover sample point {i}")
        covers.append(cover)
    levels = [nerve(c, sample) for c in covers]
    bonds = [
        SimplicialMap(levels[i + 1], levels[i], _containment(covers[i + 1], covers[i], sample))
        for i in range(len(covers) - 1)
    ]
    return ComplexTower(levels, bonds)
