"""Finite abstract simplicial complexes and their exact homology.

Complexes are stored as face-closed sets of sorted vertex tuples.
Vertex labels may be integers, strings, or nested tuples of those;
a single total order on labels fixes every orientation, so boundary
matrices and induced maps are deterministic.  A complex keys its
labels once, when it is built, and orders by the ranks it keeps.  The
boundary of an edge (a, b) with a < b is b - a.

Homology and cohomology are computed over the integers with cycle
representatives attached: the group returned is presented on a basis
of the cycle lattice, so induced maps can be solved exactly in those
coordinates.  A complex keeps each result, so reading it again, or
an induced map between computed ends, factors nothing; a copy or a
pickle carries only the simplexes and starts cold.

Telescopes use the order-complex prism construction over ordered
simplexes.  One cell list holds level 0 and the prisms over the first
bonds, glued along the level copies they share, and one closure turns
it into a complex with an embedding per level copy.  The finite
telescope is exactly that; the pinched telescope adds a cone over the
deepest level copy before the closure; and a mapping cylinder is the
one-bond telescope of its target and source.
"""

from __future__ import annotations

from itertools import chain, combinations, compress, filterfalse
from operator import neg
from types import MappingProxyType
from typing import Dict, Iterable, Optional

from .abelian import FGAbelianGroup, GroupHom, IntegerMatrix, _Record, smith_normal_form


def label_key(label):
    """Total order on vertex labels: ints, then strings, then tuples."""
    if isinstance(label, bool):
        raise TypeError("boolean vertex labels are not supported")
    if isinstance(label, int):
        return (0, label)
    if isinstance(label, str):
        return (1, label)
    if isinstance(label, tuple):
        return (2, tuple(label_key(x) for x in label))
    raise TypeError(f"unsupported vertex label type: {type(label).__name__}")


def sort_simplex(vertices: Iterable) -> tuple:
    return tuple(sorted(vertices, key=label_key))


def simplex_key(s: tuple) -> tuple:
    """The one simplex order: by size, then by the labels' keys in turn.

    >>> sorted([(2,), (0, 1), (1,)], key=simplex_key)
    [(1,), (2,), (0, 1)]
    """
    return (len(s), tuple(label_key(v) for v in s))


def _plain(label) -> bool:
    """Whether ``label`` is an int, a str or a tuple of such labels, each of exactly that type."""
    kind = type(label)
    return kind is int or kind is str or (kind is tuple and all(map(_plain, label)))


def _vertex_ranks(labels) -> dict:
    """Each distinct label of ``labels`` mapped to its position in ``label_key`` order.

    Every label is checked before a set merges equal ones: True == 1 and
    (0, True) == (0, 1), so a bool met after its int would otherwise go
    unseen.  ``label_key`` raises for a label of no supported type and
    runs once per distinct label.
    """
    labels = list(labels)
    for label in filterfalse(_plain, labels):
        label_key(label)
    return {v: i for i, v in enumerate(sorted(set(labels), key=label_key))}


# Most faces that a complex document or a nerve may close to.  The
# closure of an n-vertex simplex has 2^n - 1 faces: on a 2-core x86 host
# `homology --dim 0` of one such document took 0.34 s and 28 MB at
# n = 16 (65 535 faces) and 5.0 s and 239 MB at n = 20.  Gallery towers
# and their telescopes are bounded by their own vertex cap.
MAX_SIMPLEXES = 100_000


class TooManySimplexes(ValueError):
    """Closing some simplexes under faces may give more than ``MAX_SIMPLEXES`` faces."""


def check_face_budget(simplexes: Iterable[Iterable]) -> None:
    """Raise ``TooManySimplexes`` unless closing ``simplexes`` stays within ``MAX_SIMPLEXES``.

    The closure has at most the sum of 2^|s| - 1 faces over the distinct
    vertex sets s, so the bound reads each simplex once and closes
    nothing.

    >>> check_face_budget([range(17)])
    Traceback (most recent call last):
    ...
    towertop.simplicial.TooManySimplexes: may close to more than 100000 faces
    """
    total = 0
    for s in set(map(frozenset, simplexes)):
        total += (1 << min(len(s), MAX_SIMPLEXES.bit_length())) - 1
        if total > MAX_SIMPLEXES:
            raise TooManySimplexes(f"may close to more than {MAX_SIMPLEXES} faces")


class SimplicialComplex:
    """Face-closed finite abstract simplicial complex.

    It keys its labels once: construction ranks every vertex in
    ``label_key`` order, and the simplexes, the vertices and the
    simplexes per dimension are sorted by those ranks, which is the
    ``simplex_key`` order.  It keeps what it derives: its simplexes
    grouped by dimension, each dimension sorted when first read, its
    vertices, and each ``homology`` and ``cohomology`` result built on
    it.

    >>> k = SimplicialComplex.from_maximal([("a", "b"), ("b", "c")])
    >>> sorted(k.vertices)
    ['a', 'b', 'c']
    >>> k.dimension()
    1
    """

    __slots__ = ("simplexes", "_rank", "_unsorted", "_by_dim", "_vertices", "_results")

    def __init__(self, simplexes: Iterable[tuple]):
        simplexes = [tuple(s) for s in simplexes]
        rank = _vertex_ranks(chain.from_iterable(simplexes))
        self._hold(frozenset(tuple(sorted(s, key=rank.__getitem__)) for s in simplexes), rank)

    @classmethod
    def _of_sorted(cls, simplexes: frozenset, rank: dict) -> "SimplicialComplex":
        """The complex on ``simplexes``, each sorted by ``rank``, which ranks all their labels."""
        k = cls.__new__(cls)
        k._hold(simplexes, rank)
        return k

    def _hold(self, simplexes: frozenset, rank: dict) -> None:
        self.simplexes = simplexes
        self._rank = rank
        self._unsorted = None
        self._by_dim = {}
        self._vertices = None
        self._results = {}

    @classmethod
    def from_maximal(cls, maximal: Iterable[Iterable], extra_vertices: Iterable = ()) -> "SimplicialComplex":
        """Close the given simplexes under faces; singletons added for extras."""
        maximal = [tuple(s) for s in maximal]
        extras = [(v,) for v in extra_vertices]
        if not all(maximal):
            raise ValueError("empty simplex")
        rank = _vertex_ranks(chain.from_iterable(maximal + extras))
        closed = set(extras)
        for s in maximal:
            s = tuple(sorted(set(s), key=rank.__getitem__))
            for size in range(1, len(s) + 1):
                closed.update(combinations(s, size))
        return cls._of_sorted(frozenset(closed), rank)

    @property
    def vertices(self) -> tuple:
        if self._vertices is None:
            vs = [s[0] for s in self.simplexes if len(s) == 1]
            self._vertices = tuple(sorted(vs, key=self._rank.__getitem__))
        return self._vertices

    def n_simplexes(self, n: int) -> list:
        """The n-simplexes in ``simplex_key`` order.

        The first call groups every simplex by dimension; a dimension is
        sorted when it is first asked for, so reading a low skeleton does
        not sort the simplexes above it.
        """
        if n not in self._by_dim:
            if self._unsorted is None:
                self._unsorted = {}
                for s in self.simplexes:
                    self._unsorted.setdefault(len(s) - 1, []).append(s)
            rank = self._rank.__getitem__
            self._by_dim[n] = sorted(self._unsorted.pop(n, ()), key=lambda s: tuple(map(rank, s)))
        return list(self._by_dim[n])

    def ordered(self) -> list:
        """Every simplex in ``simplex_key`` order.

        >>> SimplicialComplex.from_maximal([(2, 1)], extra_vertices=[0]).ordered()
        [(0,), (1,), (2,), (1, 2)]
        """
        return [s for n in range(-1, self.dimension() + 1) for s in self.n_simplexes(n)]

    def dimension(self) -> int:
        return max((len(s) - 1 for s in self.simplexes), default=-1)

    def euler_characteristic(self) -> int:
        return sum((-1) ** (len(s) - 1) for s in self.simplexes)

    def has_simplex(self, s: Iterable) -> bool:
        return sort_simplex(s) in self.simplexes

    def is_subcomplex_of(self, other: "SimplicialComplex") -> bool:
        return self.simplexes <= other.simplexes

    def full_subcomplex(self, vertex_subset: Iterable) -> "SimplicialComplex":
        allowed = set(vertex_subset)
        return SimplicialComplex._of_sorted(
            frozenset(s for s in self.simplexes if allowed.issuperset(s)), self._rank
        )

    def union(self, other: "SimplicialComplex") -> "SimplicialComplex":
        return SimplicialComplex._of_sorted(
            self.simplexes | other.simplexes, _vertex_ranks(self._rank.keys() | other._rank.keys())
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialComplex) and self.simplexes == other.simplexes

    def __hash__(self) -> int:
        return hash(self.simplexes)

    def __reduce__(self):
        # only the simplexes travel: a copy or an unpickled complex derives the rest anew
        return type(self), (self.simplexes,)

    def __repr__(self) -> str:
        return f"<SimplicialComplex: {len(self.vertices)} vertices, dim {self.dimension()}>"


class ComplexViolation(_Record):
    __slots__ = _fields = ("kind", "simplex")


def validate_complex(k: SimplicialComplex) -> Optional[ComplexViolation]:
    """None when face-closed and well-formed, else the first violation found.

    >>> validate_complex(SimplicialComplex.from_maximal([(1, 2, 3)])) is None
    True
    >>> validate_complex(SimplicialComplex([(1, 2)])).kind
    'missing face'
    """
    for s in k.ordered():
        if len(s) == 0:
            return ComplexViolation("empty simplex", s)
        if len(set(s)) != len(s):
            return ComplexViolation("repeated vertex", s)
        if len(s) > 1:
            for face in combinations(s, len(s) - 1):
                if face not in k.simplexes:
                    return ComplexViolation("missing face", s)
    return None


class SimplicialMap:
    """Vertex map between complexes that carries simplexes to simplexes.

    Verified on construction: every source vertex is mapped and no
    other vertex is, every image vertex exists in the target, and the
    image of each source simplex (with repeats collapsed) is a target
    simplex.
    """

    __slots__ = ("source", "target", "vertex_map")

    def __init__(self, source: SimplicialComplex, target: SimplicialComplex, vertex_map: dict):
        self.source = source
        self.target = target
        self.vertex_map = dict(vertex_map)
        missing = [v for v in source.vertices if v not in self.vertex_map]
        if missing:
            raise ValueError(f"unmapped source vertices: {missing[:3]!r}")
        if len(self.vertex_map) > len(source.vertices):
            known = set(source.vertices)
            stray = min((v for v in self.vertex_map if v not in known), key=label_key)
            raise ValueError(f"vertex {stray!r} is mapped but not in the source")
        target_vertices = set(target.vertices)
        for v, w in self.vertex_map.items():
            if w not in target_vertices:
                raise ValueError(f"image vertex {w!r} not in target")
        if not all(self.image_simplex(s) in target.simplexes for s in source.simplexes):
            # name the first offender in simplex order, whatever the hash seed
            bad = next(s for s in source.ordered() if self.image_simplex(s) not in target.simplexes)
            raise ValueError(f"simplex {bad!r} has non-simplex image")

    def image_simplex(self, s: Iterable) -> tuple:
        return tuple(sorted({self.vertex_map[v] for v in s}, key=self.target._rank.__getitem__))

    def compose(self, inner: "SimplicialMap") -> "SimplicialMap":
        """self o inner."""
        if inner.target != self.source:
            raise ValueError("composition requires matching middle complex")
        return SimplicialMap(
            inner.source,
            self.target,
            {v: self.vertex_map[inner.vertex_map[v]] for v in inner.source.vertices},
        )

    @classmethod
    def identity(cls, k: SimplicialComplex) -> "SimplicialMap":
        return cls(k, k, {v: v for v in k.vertices})

    @classmethod
    def inclusion(cls, sub: SimplicialComplex, ambient: SimplicialComplex) -> "SimplicialMap":
        if not sub.is_subcomplex_of(ambient):
            raise ValueError("not a subcomplex")
        return cls(sub, ambient, {v: v for v in sub.vertices})

    def __eq__(self, other) -> bool:
        return isinstance(other, SimplicialMap) and (
            self.source == other.source
            and self.target == other.target
            and self.vertex_map == other.vertex_map
        )

    def __hash__(self) -> int:
        return hash((self.source, self.target, frozenset(self.vertex_map.items())))

    def __repr__(self) -> str:
        return f"<SimplicialMap on {len(self.source.vertices)} vertices>"


def preimage_subcomplex(f: SimplicialMap, sub: SimplicialComplex) -> SimplicialComplex:
    """Simplexes of the source whose image lies in ``sub``."""
    return SimplicialComplex._of_sorted(
        frozenset(s for s in f.source.simplexes if f.image_simplex(s) in sub.simplexes),
        f.source._rank,
    )


# -- boundary matrices and homology -----------------------------------


def boundary_matrix(k: SimplicialComplex, n: int) -> IntegerMatrix:
    """Matrix of the boundary map C_n -> C_{n-1}, lexicographic bases.

    >>> edge = SimplicialComplex.from_maximal([("a", "b")])
    >>> boundary_matrix(edge, 1).rows
    ((-1,), (1,))
    """
    rows = k.n_simplexes(n - 1)
    cols = k.n_simplexes(n)
    index = {s: i for i, s in enumerate(rows)}
    out = [[0] * len(cols) for _ in rows]
    for j, s in enumerate(cols):
        for i in range(len(s)):
            face = s[:i] + s[i + 1 :]
            if face:
                out[index[face]][j] += (-1) ** i
    return IntegerMatrix._derived(tuple(map(tuple, out)), len(cols))


def augmentation_matrix(k: SimplicialComplex) -> IntegerMatrix:
    """Row of ones: the augmentation C_0 -> Z used for reduced homology."""
    return IntegerMatrix([[1] * len(k.n_simplexes(0))], ncols=len(k.n_simplexes(0)))


class HomologyResult(_Record):
    """Homology (or cohomology) group with generator representatives.

    ``group`` is presented on a basis of the cycle lattice (the
    columns in ``cycle_columns``, coordinates over ``basis``); the
    j-th entry of ``representatives`` is the chain realizing the j-th
    canonical generator, as a read-only map simplex -> coefficient.
    All of them are one product: the transposed ``group.lifts`` times
    the matrix whose rows are the cycle columns.
    The cycle basis is the trailing columns K of V in the Smith
    decomposition U * M * V = D of the outgoing map M (boundary,
    augmentation or transposed coboundary), each times its entry of
    ``cycle_signs``.  That decomposition keeps V^-1 and not U^-1, and
    its check proves V * V^-1 = I, row i of U * M = d_i * (row i of
    V^-1) below the rank and M * K = 0 (see ``SmithDecomposition``):
    so the rank is right, K is a saturated basis of the cycles, and a
    chain is a cycle exactly when V^-1 takes it to zero in its first
    rank entries, so ``cycle_coordinates`` returns None exactly for
    non-cycles.  Of the decomposition the result keeps only V^-1, by
    columns in ``vinv_columns`` (column j as the (row, entry) pairs of
    its nonzero entries), so ``cycle_coordinates`` factors nothing and
    reads one column per nonzero entry of the chain; neither field
    takes part in equality or repr.  Results come from ``homology``
    and ``cohomology`` only, which keep them on the complex, so one
    result is shared by every caller that asks for it.

    >>> circle = SimplicialComplex.from_maximal([(1, 2), (2, 3), (1, 3)])
    >>> h = homology(circle, 1)
    >>> h.basis, h.cycle_columns
    (((1, 2), (1, 3), (2, 3)), ((1, -1, 1),))
    >>> h.cycle_coordinates((2, -2, 2)), h.cycle_coordinates((1, 0, 0))
    ((2,), None)
    """

    _fields = ("group", "representatives", "degree", "basis", "cycle_columns")
    __slots__ = _fields + ("vinv_columns", "cycle_signs")

    def cycle_coordinates(self, chain) -> Optional[tuple]:
        """Coordinates of ``chain`` over ``cycle_columns``, or None for a non-cycle."""
        return _cycle_coordinates(self.vinv_columns, self.cycle_signs, chain)


def _cycle_coordinates(vinv_columns, signs, chain) -> Optional[tuple]:
    # y = V^-1 * chain sums V^-1's columns at the chain's nonzero entries,
    # sparse as they are; the decomposition's check proves that the chain
    # is a cycle iff y[:rank] is zero, and then it is K * y[rank:]
    if len(chain) != len(vinv_columns):
        raise ValueError("vector length mismatch")
    y: Dict[int, int] = {}
    for j in compress(range(len(chain)), chain):
        c = chain[j]
        for i, a in vinv_columns[j]:
            y[i] = y.get(i, 0) + c * a
    rank = len(vinv_columns) - len(signs)
    coords = [0] * len(signs)
    for i, c in y.items():
        if i >= rank:
            coords[i - rank] = signs[i - rank] * c
        elif c:
            return None
    return tuple(coords)


def _sparse_columns(m: IntegerMatrix) -> tuple:
    """The columns of ``m``, each as the (row, entry) pairs of its nonzero entries."""
    columns = [[] for _ in range(m.ncols)]
    for i, row in enumerate(m.rows):
        for j in compress(range(m.ncols), row):
            columns[j].append((i, row[j]))
    return tuple(map(tuple, columns))


def _quotient_of_cycles(outgoing: IntegerMatrix, image_cols, degree: int, basis):
    snf = smith_normal_form(outgoing, inverse="vinv")
    vinv_columns = _sparse_columns(snf.vinv)
    cycle_cols, signs = [], []
    for col in list(zip(*snf.v.rows))[snf.rank :]:
        signs.append(-1 if next(filter(None, col)) < 0 else 1)
        cycle_cols.append(col if signs[-1] == 1 else tuple(map(neg, col)))
    rel_rows = tuple(_cycle_coordinates(vinv_columns, signs, col) for col in image_cols)
    if None in rel_rows:
        raise AssertionError("boundary image is not a cycle; chain complex broken")
    group = FGAbelianGroup(len(cycle_cols), IntegerMatrix._derived(rel_rows, len(cycle_cols)))
    cycles = IntegerMatrix._derived(tuple(cycle_cols), outgoing.ncols)
    reps = (group.lifts.transpose() * cycles).rows
    return HomologyResult(
        group=group,
        representatives=tuple(
            MappingProxyType({s: c for s, c in zip(basis, rep) if c}) for rep in reps
        ),
        degree=degree,
        basis=tuple(basis),
        cycle_columns=tuple(cycle_cols),
        vinv_columns=vinv_columns,
        cycle_signs=tuple(signs),
    )


def homology(k: SimplicialComplex, n: int, reduced: bool = False) -> HomologyResult:
    """Integral homology H_n with cycle representatives, kept on ``k``.

    ``reduced`` augments the complex in dimension 0 (and changes
    nothing in higher dimensions).  The first call factors two
    matrices, the outgoing map and the relations; a repeat returns
    the same result.

    >>> circle = SimplicialComplex.from_maximal([(1, 2), (2, 3), (1, 3)])
    >>> homology(circle, 1).group.describe()
    'Z'
    >>> homology(circle, 1) is homology(circle, 1)
    True
    """
    return _kept(k, "homology", n, reduced and n == 0)


def cohomology(k: SimplicialComplex, n: int) -> HomologyResult:
    """Integral cohomology H^n with cocycle representatives, kept on ``k``.

    >>> circle = SimplicialComplex.from_maximal([(1, 2), (2, 3), (1, 3)])
    >>> cohomology(circle, 1).group.describe()
    'Z'
    """
    return _kept(k, "cohomology", n, False)


def _kept(k: SimplicialComplex, kind: str, n: int, reduced: bool) -> HomologyResult:
    """The ``kind`` result in dimension ``n`` that ``k`` keeps, built on the first read."""
    key = (kind, n, reduced)
    if key not in k._results:
        basis = k.n_simplexes(n) if n >= 0 else ()
        if n < 0:
            outgoing, incoming = IntegerMatrix([], ncols=0), []
        elif kind == "cohomology":
            outgoing = boundary_matrix(k, n + 1).transpose()
            incoming = boundary_matrix(k, n).rows
        else:
            outgoing = augmentation_matrix(k) if reduced and basis else boundary_matrix(k, n)
            incoming = boundary_matrix(k, n + 1).transpose().rows
        k._results[key] = _quotient_of_cycles(outgoing, incoming, n, basis)
    return k._results[key]


def chain_map_matrix(f: SimplicialMap, n: int) -> IntegerMatrix:
    """Matrix of the induced chain map C_n(source) -> C_n(target).

    A simplex whose vertices collapse maps to zero; otherwise the sign
    is the parity of the permutation sorting the image vertices.
    """
    src = f.source.n_simplexes(n)
    tgt = f.target.n_simplexes(n)
    rank = f.target._rank
    index = {s: i for i, s in enumerate(tgt)}
    out = [[0] * len(src) for _ in tgt]
    for j, s in enumerate(src):
        images = [f.vertex_map[v] for v in s]
        ranks = [rank[w] for w in images]
        if len(set(ranks)) != len(ranks):
            continue
        inversions = sum(a > b for i, a in enumerate(ranks) for b in ranks[i + 1 :])
        target_simplex = tuple(sorted(images, key=rank.__getitem__))
        out[index[target_simplex]][j] += (-1) ** inversions
    return IntegerMatrix._derived(tuple(map(tuple, out)), len(src))


def _induced_between(
    source: HomologyResult, target: HomologyResult, chain_rows: IntegerMatrix
) -> GroupHom:
    """Hom between quotient groups from a chain-level map given by its transpose.

    ``chain_rows`` has one row per source chain basis element, its
    image in the target chain basis.  One product, the source cycle
    basis (a row per presentation generator) times ``chain_rows``,
    pushes every cycle at once; each image row is written over the
    target cycle basis by ``target.cycle_coordinates``, which reads
    the target's kept columns of V^-1 and factors nothing.  An image
    with no coordinates is a real failure of cycles to land on cycles.
    """
    cycles = IntegerMatrix._derived(source.cycle_columns, len(source.basis))
    cols = tuple(map(target.cycle_coordinates, (cycles * chain_rows).rows))
    if None in cols:
        raise AssertionError("image of a cycle is not a cycle; induced map broken")
    matrix = IntegerMatrix._derived(cols, target.group.ngens).transpose()
    return GroupHom(source.group, target.group, matrix)


def induced_map(f: SimplicialMap, n: int, reduced: bool = False) -> GroupHom:
    """Induced map on H_n, between the homology results its ends keep.

    >>> hexagon = SimplicialComplex.from_maximal([(i, (i + 1) % 6) for i in range(6)])
    >>> triangle = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
    >>> wrap = SimplicialMap(hexagon, triangle, {v: v % 3 for v in range(6)})
    >>> induced_map(wrap, 1).canonical_matrix().rows in (((2,),), ((-2,),))
    True
    """
    return _induced_between(
        homology(f.source, n, reduced),
        homology(f.target, n, reduced),
        chain_map_matrix(f, n).transpose(),
    )


def induced_cohomology_map(f: SimplicialMap, n: int) -> GroupHom:
    """Contravariant induced map H^n(target) -> H^n(source)."""
    return _induced_between(
        cohomology(f.target, n), cohomology(f.source, n), chain_map_matrix(f, n)
    )


# -- mapping cylinders and telescopes ----------------------------------


def _telescope_cells(levels, bonds, n: int) -> list:
    """Cells of the telescope through level ``n``: level 0 and the prisms of bonds 0..n-1.

    Level i's copy is labeled (i, v).  For an ordered simplex
    (v_0 < ... < v_k) of level i + 1 the prism over it is triangulated
    by the cells {f(v_0)..f(v_j)} u {v_j..v_k}, f the bond i; the cell
    at j = 0 contains the simplex's own copy, so every level copy is covered.
    """
    if not 0 <= n < len(levels):
        raise ValueError("telescope depth outside the truncation")
    cells = [tuple((0, v) for v in s) for s in levels[0].simplexes]
    for i, f in enumerate(bonds[:n]):
        for s in f.source.simplexes:
            for j in range(len(s)):
                bottom = {(i, f.vertex_map[v]) for v in s[: j + 1]}
                cells.append(tuple(bottom | {(i + 1, v) for v in s[j:]}))
    return cells


def _telescope(levels, cells, n: int) -> "Telescope":
    """Close ``cells`` once and embed the copies of levels 0..n in the result."""
    tele = SimplicialComplex.from_maximal(cells)
    embeddings = tuple(
        SimplicialMap(levels[i], tele, {v: (i, v) for v in levels[i].vertices})
        for i in range(n + 1)
    )
    return Telescope(complex=tele, level_embeddings=embeddings)


def mapping_cylinder(f: SimplicialMap):
    """Simplicial mapping cylinder of f with both end inclusions.

    It is the one-bond telescope of the levels (f.target, f.source):
    target vertices are labeled (0, w) and source vertices (1, v).
    Returns (cylinder, source_embedding, target_embedding).  The
    target inclusion is a homology isomorphism and the source
    inclusion realizes f through it; both facts are consequences of
    the prism triangulation and are exercised by the test suite.
    """
    levels = (f.target, f.source)
    tele = _telescope(levels, _telescope_cells(levels, (f,), 1), 1)
    target_embedding, source_embedding = tele.level_embeddings
    return tele.complex, source_embedding, target_embedding


class Telescope(_Record):
    """Finite (or pinched) telescope of a complex tower with its level inclusions.

    ``level_embeddings`` holds one ``SimplicialMap`` per level, index 0
    the coarsest.
    """

    __slots__ = _fields = ("complex", "level_embeddings")


def finite_telescope(tower, n: int) -> Telescope:
    """Union of mapping cylinders of the first ``n`` bonds.

    Level copies are labeled (level, vertex); the copy of level i is
    shared between the cylinders of bonds i-1 and i, which glues them.
    The whole telescope deformation retracts to level 0, so its
    homology equals that of the coarsest complex.
    """
    levels = list(tower.levels)
    return _telescope(levels, _telescope_cells(levels, list(tower.bonds), n), n)


def pinched_telescope(tower, n: int) -> Telescope:
    """Telescope through level ``n`` with a cone over the deepest copy.

    Models collapsing the fiber end of the telescope to a point; for a
    tower of circles with degree-p bonds the pinched telescope at
    level n has H_1 of order p**n.  The cone's cells join the
    telescope's before the one closure.
    """
    levels = list(tower.levels)
    cells = _telescope_cells(levels, list(tower.bonds), n)
    apex = (n + 1, "apex")
    cells.append((apex,))
    cells.extend(tuple((n, v) for v in s) + (apex,) for s in levels[n].simplexes)
    return _telescope(levels, cells, n)
