"""Validators for marked towers and the gallery of worked examples.

A marked tower carries a compact part ``K_i`` (and sometimes an outer
collar ``L_i``) inside each level.  The validators check, entirely
combinatorially, that the markings present a genuine compactum inside
the limit space:

* C0 — every level is a well-formed complex and every marking is a
  subcomplex.
* C1 — bonds carry the fine marking into the coarse one.
* C2 — the fine marking sits interior to the bond preimage of the
  coarse one (no simplex touching ``K_{i+1}`` escapes the preimage).
* C3 — away from the marking the bond is a simplicial isomorphism.

The four variants differ in which of C2/C3 they require and whether
they are phrased against ``K`` itself or the collar ``L``:
``compactohedral`` = C0,C1,C2,C3; ``weakly_compactohedral`` = C0,C1,C3;
``pre_compactohedral`` = C0,C1,C2'',C3'' (collar interiority, closed
complements); ``weakly_pre_compactohedral`` = C0,C1,C2',C3' (collar
containment, open complements).

Interiority is the star condition: ``contained_in_interior(A, B, K)``
holds when every simplex of ``K`` meeting a vertex of ``A`` lies in
``B``.  This is the combinatorial rendering of "A is contained in the
topological interior of B".

Violations are reported axiom-major: the validator scans one axiom
across every level before moving to the next and reports only the
first axiom that fails, every level where it does.  Later axioms are
not evaluated, both because their failures are usually downstream
noise (a C1 escape breaks C2 at the same spot) and so a report names
exactly one broken axiom.

The gallery of worked examples is one table, ``GALLERY``: a row per
family gives its width parameter (or none), the keywords it reads,
the least width at a depth, the vertices summed over its levels, and
its builder.
``build_gallery`` checks and builds every family along one path, and
the command line reads its family names and flags from the same rows.
"""

from typing import List, Optional

from .abelian import _Record, _exact_int
from .simplicial import (
    SimplicialComplex,
    SimplicialMap,
    preimage_subcomplex,
    sort_simplex,
    validate_complex,
)
from .tower import Certificate, ComplexTower


# -- interiority ---------------------------------------------------------


def interior_witness(a: SimplicialComplex, b: SimplicialComplex, k: SimplicialComplex):
    """First simplex of ``k`` meeting ``a`` but escaping ``b``, or None."""
    marked = set(a.vertices)
    for s in k.ordered():
        if any(v in marked for v in s) and s not in b.simplexes:
            return s
    return None


def contained_in_interior(
    a: SimplicialComplex, b: SimplicialComplex, k: SimplicialComplex
) -> bool:
    """Does ``a`` lie in the interior of ``b`` inside the ambient ``k``?

    True when every simplex of ``k`` that meets a vertex of ``a`` lies
    in ``b``; in particular the closed star of ``a`` must be inside
    ``b``, and ``a`` itself is then a subcomplex of ``b``.

    >>> path = SimplicialComplex.from_maximal([("a", "b"), ("b", "c")])
    >>> inner = SimplicialComplex.from_maximal([], extra_vertices=["a"])
    >>> hull = SimplicialComplex.from_maximal([("a", "b")])
    >>> contained_in_interior(inner, hull, path)
    True
    >>> middle = SimplicialComplex.from_maximal([], extra_vertices=["b"])
    >>> contained_in_interior(middle, hull, path)
    False
    """
    if not a.is_subcomplex_of(k):
        raise ValueError("the inner complex must be a subcomplex of the ambient one")
    if not b.is_subcomplex_of(k):
        raise ValueError("the outer complex must be a subcomplex of the ambient one")
    return interior_witness(a, b, k) is None


# -- reports -------------------------------------------------------------


class Violation(_Record):
    __slots__ = _fields = ("axiom", "level", "witness", "detail")


class ValidationReport(_Record):
    # verdict is "PASS" or "FAIL"
    __slots__ = _fields = ("variant", "verdict", "axioms", "violations")

    @property
    def passed(self) -> bool:
        return self.verdict == "PASS"

    def failed_axiom(self) -> Optional[str]:
        return self.violations[0].axiom if self.violations else None

    def headline(self) -> str:
        if self.passed:
            if self.axioms == ("C0", "C1", "C2", "C3"):
                return "PASS (C0..C3)"
            return "PASS (" + ",".join(self.axioms) + ")"
        return f"FAIL ({self.failed_axiom()})"


_AXIOMS = {
    "compactohedral": ("C0", "C1", "C2", "C3"),
    "weakly_compactohedral": ("C0", "C1", "C3"),
    "pre_compactohedral": ("C0", "C1", "C2''", "C3''"),
    "weakly_pre_compactohedral": ("C0", "C1", "C2'", "C3'"),
}
VARIANTS = tuple(_AXIOMS)


def _check_c0(tower: ComplexTower) -> List[Violation]:
    out = []
    for i, level in enumerate(tower.levels):
        bad = validate_complex(level)
        if bad is not None:
            out.append(Violation("C0", i, bad.simplex, bad.kind))
    return out


def _escapes(tower: ComplexTower, fine_marks, axiom: str, what: str) -> List[Violation]:
    """Each level's first simplex of ``fine_marks`` whose bond image leaves the coarse marking."""
    detail = f"{what} simplex whose image escapes the coarse marking"
    out = []
    for i, bond in enumerate(tower.bonds):
        coarse_k = tower.marked_K[i].simplexes
        for s in fine_marks[i + 1].ordered():
            if bond.image_simplex(s) not in coarse_k:
                out.append(Violation(axiom, i + 1, s, detail))
                break
    return out


def _check_c2(tower: ComplexTower) -> List[Violation]:
    out = []
    for i, bond in enumerate(tower.bonds):
        fine_k = tower.marked_K[i + 1]
        pulled = preimage_subcomplex(bond, tower.marked_K[i])
        w = interior_witness(fine_k, pulled, tower.levels[i + 1])
        if w is not None:
            out.append(
                Violation(
                    "C2",
                    i + 1,
                    w,
                    "simplex touching the fine marking escapes the bond preimage "
                    "of the coarse marking",
                )
            )
    return out


def _outside_iso_violation(
    bond: SimplicialMap,
    fine: SimplicialComplex,
    coarse: SimplicialComplex,
    axiom: str,
    level: int,
    where: str,
) -> Optional[Violation]:
    """Check the bond restricts to an isomorphism from ``fine`` onto ``coarse``.

    A vertex bijection plus a counterpart for every coarse simplex.  Each
    caller's fine side maps into its coarse side, and a bond injective on
    vertices keeps every simplex's dimension, so nothing else can fail.
    ``where`` ends each detail string, and the witness always lives in
    the coarse level.
    """
    inverse = {}
    for v in fine.vertices:
        w = bond.vertex_map[v]
        if w in inverse:
            return Violation(axiom, level, (w,), f"coarse vertex covered twice {where}")
        inverse[w] = v
    for w in coarse.vertices:
        if w not in inverse:
            return Violation(axiom, level, (w,), f"coarse vertex not covered {where}")
    for t in coarse.ordered():
        pulled = tuple(inverse[w] for w in t)
        if not fine.has_simplex(pulled):
            return Violation(axiom, level, t, f"coarse simplex has no counterpart {where}")
    return None


def _outside(level: SimplicialComplex, blocked: SimplicialComplex) -> SimplicialComplex:
    """Full subcomplex of ``level`` on the vertices outside ``blocked``."""
    gone = set(blocked.vertices)
    return level.full_subcomplex(v for v in level.vertices if v not in gone)


def _open_complements(bond: SimplicialMap, marking: SimplicialComplex):
    """Full subcomplexes off the marking's bond preimage (fine) and off the marking (coarse)."""
    return _outside(bond.source, preimage_subcomplex(bond, marking)), _outside(bond.target, marking)


def _closed_complements(bond: SimplicialMap, collar: SimplicialComplex):
    """Closure of the coarse level outside the collar (coarse) and its bond preimage (fine)."""
    coarse = SimplicialComplex.from_maximal(
        s for s in bond.target.simplexes if s not in collar.simplexes
    )
    return preimage_subcomplex(bond, coarse), coarse


def _check_c3(tower: ComplexTower, marked, axiom: str, sides, where: str) -> List[Violation]:
    out = []
    for i, bond in enumerate(tower.bonds):
        v = _outside_iso_violation(bond, *sides(bond, marked[i]), axiom, i, where)
        if v is not None:
            out.append(v)
    return out


def _check_collar_containment(tower: ComplexTower, interior: bool, axiom: str) -> List[Violation]:
    """C2' / C2'': the collar maps into the marking, which sits inside the collar."""
    out = _escapes(tower, tower.marked_L, axiom, "collar")
    for i in range(len(tower.levels)):
        k_i, l_i = tower.marked_K[i], tower.marked_L[i]
        if interior:
            w = interior_witness(k_i, l_i, tower.levels[i])
            if w is not None:
                out.append(
                    Violation(axiom, i, w, "simplex touching the marking escapes the collar")
                )
        else:
            missing = next(
                (s for s in k_i.ordered() if s not in l_i.simplexes), None
            )
            if missing is not None:
                out.append(Violation(axiom, i, missing, "marking not contained in the collar"))
    return out


_CHECKS = {
    "C0": _check_c0,
    "C1": lambda t: _escapes(t, t.marked_K, "C1", "marked"),
    "C2": _check_c2,
    "C3": lambda t: _check_c3(t, t.marked_K, "C3", _open_complements, "away from the marking"),
    "C2''": lambda t: _check_collar_containment(t, True, "C2''"),
    "C3''": lambda t: _check_c3(t, t.marked_L, "C3''", _closed_complements, "in the closed complement"),
    "C2'": lambda t: _check_collar_containment(t, False, "C2'"),
    "C3'": lambda t: _check_c3(t, t.marked_L, "C3'", _open_complements, "away from the marking"),
}


def validate(tower: ComplexTower, variant: str = "compactohedral") -> ValidationReport:
    """Check the marked tower against one axiom family.

    Violations are reported axiom-major: only the first failing axiom
    appears, with one witness per level where it fails.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant: {variant!r}")
    if tower.marked_K is None:
        raise ValueError("validation needs marked_K on every level")
    axioms = _AXIOMS[variant]
    # the primed checks are the ones that read the collar
    if tower.marked_L is None and any(name.endswith("'") for name in axioms):
        raise ValueError(f"{variant} needs marked_L on every level")
    for name in axioms:
        found = _CHECKS[name](tower)
        if found:
            return ValidationReport(variant, "FAIL", axioms, tuple(found))
    return ValidationReport(variant, "PASS", axioms, ())


def implied_collars(tower: ComplexTower) -> ComplexTower:
    """Attach the canonical collars: the whole coarsest level, then bond preimages.

    With these collars a tower satisfying the plain axioms satisfies
    the collared ones as well.
    """
    if tower.marked_K is None:
        raise ValueError("collars are derived from marked_K")
    collars = [tower.levels[0]]
    for i, bond in enumerate(tower.bonds):
        collars.append(preimage_subcomplex(bond, tower.marked_K[i]))
    return ComplexTower(
        tower.levels, tower.bonds, tower.marked_K, collars, tower.certificate
    )


# -- gallery -------------------------------------------------------------


# Most vertices, summed over its levels, that a gallery tower may have;
# this bounds every gallery parameter.  On a 2-core x86 host a dyadic
# solenoid of depth 12 (24 573 vertices) takes 1.5 s to build and 3.4 s
# to serialize, and the cost grows about linearly in the vertices.
MAX_GALLERY_VERTICES = 50_000


class GalleryTooLarge(ValueError):
    """A gallery parameter asks for more than ``MAX_GALLERY_VERTICES``; the message starts with its name."""


def _path_edges(prefix, ks, lo, hi):
    """Edges of the path from height ``lo`` to ``hi`` on each strand k in ``ks``."""
    return [((prefix, k, j), (prefix, k, j + 1)) for k in ks for j in range(lo, hi)]


def _rail(prefix, ks, j):
    """Edges joining strand k to strand k + 1 at height ``j``, for each k in ``ks``."""
    return [((prefix, k, j), (prefix, k + 1, j)) for k in ks]


def _comb(teeth: int, depth: int) -> ComplexTower:
    length = 2 * depth + 4
    spine = _path_edges("c", range(1, teeth + 1), 0, length) + _rail("c", range(1, teeth), 0)
    levels, marks = [], []
    for i in range(depth + 1):
        reach = depth + 1 - i
        tips = [(("o",), ("c", teeth, length))] + _rail("c", range(i + 1, teeth), length)
        levels.append(SimplicialComplex.from_maximal(spine + tips))
        marks.append(
            SimplicialComplex.from_maximal(
                tips + _path_edges("c", range(i + 1, teeth + 1), length - reach, length)
            )
        )
    cert = Certificate("shift_family", stable_core=None, lim1_display="Prod(Z)/Sum(Z)")
    return ComplexTower(levels, _inclusion_bonds(levels), marks, certificate=cert)


def _fence(segments: int, depth: int) -> ComplexTower:
    length = 2 * depth + 4
    posts = _path_edges("s", range(1, segments + 1), 0, length)
    levels, marks = [], []
    for i in range(depth + 1):
        reach = depth + 1 - i
        kept = range(i + 1, segments + 1)
        rails = _rail("s", kept[:-1], 0) + _rail("s", kept[:-1], length)
        levels.append(SimplicialComplex.from_maximal(posts + rails))
        marks.append(
            SimplicialComplex.from_maximal(
                rails
                + _path_edges("s", kept, 0, reach)
                + _path_edges("s", kept, length - reach, length)
            )
        )
    return ComplexTower(levels, _inclusion_bonds(levels), marks)


def _inclusion_bonds(levels) -> list:
    return [
        SimplicialMap.inclusion(levels[i + 1], levels[i]) for i in range(len(levels) - 1)
    ]


def _polygon(m: int) -> SimplicialComplex:
    return SimplicialComplex.from_maximal(
        [(("v", a), ("v", (a + 1) % m)) for a in range(m)]
    )


def _solenoid(p: int, depth: int) -> ComplexTower:
    levels = [_polygon(3 * p**j) for j in range(depth + 1)]
    bonds = []
    for j in range(depth):
        m = 3 * p**j
        bonds.append(
            SimplicialMap(levels[j + 1], levels[j], {("v", a): ("v", a % m) for a in range(m * p)})
        )
    return ComplexTower(levels, bonds, list(levels), certificate=Certificate("periodic"))


def _warsaw(_width: int, depth: int) -> ComplexTower:
    hexagon = _polygon(6)
    levels = [hexagon] * (depth + 1)
    bonds = [SimplicialMap.identity(hexagon)] * depth
    return ComplexTower(levels, bonds, list(levels), certificate=Certificate("periodic"))


# family -> (width parameter or None, the keywords the family reads,
# least width at a depth, the error below it, vertices summed over the
# levels at (width, depth), builder (width, depth) -> tower).  Every
# tooth or segment is a path on 2·depth + 5 vertices and a comb adds its
# handle.  A solenoid's level j is a 3·p^j-gon, counted only to the
# depth whose level alone is past the bound even at p = 2, so a huge
# depth costs nothing to count.
GALLERY = {
    "comb": (
        "teeth", ("teeth", "depth"),
        lambda depth: depth + 1, "comb needs at least depth + 1 teeth",
        lambda teeth, depth: (depth + 1) * (teeth * (2 * depth + 5) + 1), _comb,
    ),
    "fence": (
        "segments", ("segments", "depth"),
        lambda depth: depth + 1, "fence needs at least depth + 1 segments",
        lambda segments, depth: (depth + 1) * segments * (2 * depth + 5), _fence,
    ),
    "solenoid": (
        "p", ("p", "depth"),
        lambda depth: 2, "winding degree must be at least 2",
        lambda p, depth: sum(
            3 * p**j for j in range(min(depth, MAX_GALLERY_VERTICES.bit_length()) + 1)
        ),
        _solenoid,
    ),
    "warsaw": (
        None, ("depth",),
        lambda depth: 0, None, lambda _, depth: 6 * (depth + 1), _warsaw,
    ),
}


def build_gallery(name: str, **params) -> ComplexTower:
    """Construct one of the worked example towers.

    comb(teeth, depth): a comb losing bottom connections level by
    level; its compactum is the bottom spine plus the still-attached
    tooth tips.  Certified shrinking family with trivial core.

    fence(segments, depth): segments joined along both rails, losing
    a pair of rail edges per level; the compactum is the two rail
    collars.  No certificate.

    solenoid(p, depth): circles with degree-p winding bonds; the whole
    level is marked.  Certified periodic.

    warsaw(depth): a constant hexagon with identity bonds; the whole
    level is marked.  Certified periodic.

    Each keyword the family reads must be given as an ``int``, and no
    other.  A request for more than ``MAX_GALLERY_VERTICES`` vertices
    over the levels raises ``GalleryTooLarge`` before any level is built.
    """
    if name not in GALLERY:
        raise ValueError(f"unknown gallery family: {name!r}")
    param, wanted, least, too_narrow, vertices, build = GALLERY[name]
    for key in params:
        if key not in wanted:
            raise ValueError(f"{name} does not read the keyword {key!r}")
    for key in wanted:
        if key not in params:
            raise ValueError(f"{name} needs the keyword {key!r}")
        _exact_int(params[key], key)
    width = 0 if param is None else params[param]
    depth = params["depth"]
    if depth < 1:
        raise ValueError("depth must be at least 1")
    if width < least(depth):
        raise ValueError(too_narrow)
    # the width is named when depth 1 is already past the bound
    for flag, value, d in ((param, width, 1), ("depth", depth, depth)):
        if flag is not None and vertices(width, d) > MAX_GALLERY_VERTICES:
            raise GalleryTooLarge(
                f"{flag} {value} gives a {name} tower of more than "
                f"{MAX_GALLERY_VERTICES} vertices over its levels"
            )
    return implied_collars(build(width, depth))


def fence_violation(axiom: str, segments: int, depth: int) -> ComplexTower:
    """A fence tower broken so that exactly the named axiom fails.

    "C1" enlarges one marking by a vertex whose image escapes the
    coarser marking; "C2" removes the marking's interior margin so a
    neighboring simplex escapes the preimage; "C3" deletes one edge
    away from the markings so the bond stops being an isomorphism
    there.
    """
    if depth < 2:
        raise ValueError("violations need depth at least 2")
    base = build_gallery("fence", segments=segments, depth=depth)
    levels = list(base.levels)
    marks = list(base.marked_K)
    length = 2 * depth + 4
    if axiom == "C1":
        marks[2] = marks[2].union(
            SimplicialComplex.from_maximal([], extra_vertices=[("s", 1, 0)])
        )
    elif axiom == "C2":
        # stretch the level-2 marking to the level-1 reach: the margin
        # that keeps neighbors inside the preimage disappears
        reach = depth  # reach of level 1
        kept = range(3, segments + 1)
        extra = _path_edges("s", kept, 0, reach) + _path_edges("s", kept, length - reach, length)
        marks[2] = marks[2].union(SimplicialComplex.from_maximal(extra))
    elif axiom == "C3":
        mid = depth + 1
        gone = (("s", 1, mid), ("s", 1, mid + 1))
        for i in range(2, depth + 1):
            levels[i] = SimplicialComplex(
                s for s in levels[i].simplexes if s != sort_simplex(gone)
            )
    else:
        raise ValueError(f"no violation builder for axiom {axiom!r}")
    bonds = _inclusion_bonds(levels)
    return implied_collars(ComplexTower(levels, bonds, marks))
