"""Shared fixture complexes, towers, and seeded random generators."""

from __future__ import annotations

import random

from towertop.simplicial import SimplicialComplex, SimplicialMap


def hollow_triangle() -> SimplicialComplex:
    return SimplicialComplex.from_maximal([(1, 2), (2, 3), (1, 3)])


def polygon(m: int) -> SimplicialComplex:
    """Cycle graph on vertices 0..m-1, a simplicial circle (m >= 3)."""
    return SimplicialComplex.from_maximal([(i, (i + 1) % m) for i in range(m)])


def polygon_wrap(src_m: int, tgt_m: int) -> SimplicialMap:
    """Vertex reduction mod tgt_m: a degree src_m/tgt_m circle map."""
    assert src_m % tgt_m == 0
    return SimplicialMap(polygon(src_m), polygon(tgt_m), {v: v % tgt_m for v in range(src_m)})


def disks_on_a_triangle(*degrees: int) -> SimplicialComplex:
    """A triangle with one disk attached along a circle map of each degree d.

    Disk ``k`` is the cone over a 3d-gon, joined to the triangle by the
    prisms of the cylinder of the wrap v -> v mod 3.  H_1 is Z/g, g the
    gcd of the degrees, and H_2 is free of rank one less than the number
    of disks.
    """
    cells = []
    for k, d in enumerate(degrees):
        m = 3 * d
        for i in range(m):
            t, u, s, w = ("t", i % 3), ("t", (i + 1) % 3), (k, i), (k, (i + 1) % m)
            cells += [(t, u, w), (t, s, w), (s, w, (k, "apex"))]
    return SimplicialComplex.from_maximal(cells)


def tetra_sphere() -> SimplicialComplex:
    """Boundary of the 3-simplex: a 2-sphere."""
    return SimplicialComplex.from_maximal(
        [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    )


def projective_plane() -> SimplicialComplex:
    """The 6-vertex triangulation (antipodal icosahedron quotient)."""
    return SimplicialComplex.from_maximal(
        [
            (1, 2, 3),
            (1, 3, 4),
            (1, 4, 5),
            (1, 5, 6),
            (1, 2, 6),
            (2, 3, 5),
            (3, 4, 6),
            (2, 4, 5),
            (3, 5, 6),
            (2, 4, 6),
        ]
    )


def torus_7() -> SimplicialComplex:
    """The 7-vertex torus: faces (i, i+1, i+3) and (i, i+2, i+3) mod 7."""
    faces = []
    for i in range(7):
        faces.append((i, (i + 1) % 7, (i + 3) % 7))
        faces.append((i, (i + 2) % 7, (i + 3) % 7))
    return SimplicialComplex.from_maximal(faces)


def grid_torus(side: int) -> SimplicialComplex:
    """The side x side grid on a torus, each square cut along its diagonal; vertices (i, j)."""
    faces = []
    for i in range(side):
        for j in range(side):
            a, b = (i, j), ((i + 1) % side, j)
            c, d = (i, (j + 1) % side), ((i + 1) % side, (j + 1) % side)
            faces += [(a, b, d), (a, c, d)]
    return SimplicialComplex.from_maximal(faces)


def disjoint_points(k: int) -> SimplicialComplex:
    return SimplicialComplex.from_maximal([], extra_vertices=list(range(k)))


def random_complex(rng: random.Random, max_vertices: int = 8, max_cells: int = 10, max_card: int = 4) -> SimplicialComplex:
    nv = rng.randint(1, max_vertices)
    cells = []
    for _ in range(rng.randint(1, max_cells)):
        card = rng.randint(1, min(max_card, nv))
        cells.append(rng.sample(range(nv), card))
    return SimplicialComplex.from_maximal(cells, extra_vertices=[0])


def random_quotient_map(rng: random.Random, k: SimplicialComplex):
    """Collapse a random partition of the vertices; returns (map, image)."""
    verts = list(k.vertices)
    nclasses = rng.randint(1, len(verts))
    assignment = {v: rng.randrange(nclasses) for v in verts}
    # name each class by a fresh integer label
    image = SimplicialComplex(
        tuple({("q", assignment[v]) for v in s}) for s in k.simplexes
    )
    return SimplicialMap(k, image, {v: ("q", assignment[v]) for v in verts}), image


def random_simplicial_map(rng: random.Random, k: SimplicialComplex):
    """Random map with source exactly k: a collapse, maybe into a padded target."""
    q, image = random_quotient_map(rng, k)
    if rng.random() < 0.5:
        return q
    # enlarge the target by a disjoint edge so the map need not be onto
    pad = SimplicialComplex.from_maximal([(("pad", 0), ("pad", 1))])
    bigger = image.union(pad)
    return SimplicialMap.inclusion(image, bigger).compose(q)


class SimpleTower:
    """Duck-typed complex tower: levels[0] coarsest, bonds[i]: i+1 -> i, no certificate."""

    certificate = None

    def __init__(self, levels, bonds):
        self.levels = list(levels)
        self.bonds = list(bonds)


def circle_power_tower(p: int, depth: int) -> SimpleTower:
    """Circles with degree-p bonds: level j is a 3*p^j-gon."""
    levels = [polygon(3 * p**j) for j in range(depth)]
    bonds = [polygon_wrap(3 * p ** (j + 1), 3 * p**j) for j in range(depth - 1)]
    return SimpleTower(levels, bonds)


def constant_tower(k: SimplicialComplex, depth: int) -> SimpleTower:
    return SimpleTower([k] * depth, [SimplicialMap.identity(k)] * (depth - 1))


def random_tower(rng: random.Random, depth: int) -> SimpleTower:
    """``depth`` levels: a random finest complex, each coarser level a random map's target."""
    levels = [random_complex(rng, max_vertices=5, max_cells=4, max_card=3)]
    bonds = []
    for _ in range(depth - 1):
        bonds.insert(0, random_simplicial_map(rng, levels[0]))
        levels.insert(0, bonds[0].target)
    return SimpleTower(levels, bonds)
