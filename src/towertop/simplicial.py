"""Finite abstract simplicial complexes and their exact homology.

Complexes are stored as face-closed sets of sorted vertex tuples.
Vertex labels may be integers, strings, or nested tuples of those;
a single total order on labels fixes every orientation, so boundary
matrices and induced maps are deterministic.  A complex keys its
labels once, when it is built, and orders by the ranks it keeps.  The
boundary of an edge (a, b) with a < b is b - a.

Homology and cohomology are computed over the integers with cycle
representatives attached.  The chain complex around each dimension is
first reduced by its unit pivots, as a verified chain equivalence
(``ChainReduction``), and Smith runs only on what is left: the group
returned is presented on the cycles that the reduction carries back, and
a chain's class is read through the reduction's projection.  A complex
keeps each result, so reading it again, or an induced map between
computed ends, factors nothing; a copy or a pickle carries only the
simplexes and starts cold.

Telescopes use the order-complex prism construction over ordered
simplexes.  One cell list holds level 0 and the prisms over the first
bonds, glued along the level copies they share, and one closure turns
it into a complex with an embedding per level copy.  The finite
telescope is exactly that; the pinched telescope adds a cone over the
deepest level copy before the closure; and a mapping cylinder is the
one-bond telescope of its target and source.
"""

from __future__ import annotations

from itertools import chain, combinations, compress, filterfalse, repeat
from types import MappingProxyType
from typing import Iterable, Optional

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


# -- chains, their reduction and homology ------------------------------


def _boundary_columns(k: SimplicialComplex, n: int) -> tuple:
    """The boundary map C_n -> C_{n-1} by columns, each its (row, entry) pairs in row order.

    Rows and columns follow ``simplex_key`` order.  Dropping vertex i of
    a sorted simplex gives a face that comes later the smaller i is, so
    each column is built in row order with no sort.
    """
    if n <= 0:
        return ((),) * len(k.n_simplexes(n))
    index = {s: i for i, s in enumerate(k.n_simplexes(n - 1))}
    return tuple(
        tuple((index[s[:i] + s[i + 1 :]], -1 if i % 2 else 1) for i in range(n, -1, -1))
        for s in k.n_simplexes(n)
    )


def _dense_rows(columns, rows) -> IntegerMatrix:
    """The transpose of the matrix of sparse ``columns`` restricted to ``rows``, a list of their row indices."""
    position = {i: p for p, i in enumerate(rows)}
    out = []
    for column in columns:
        row = [0] * len(position)
        for i, a in column:
            row[position[i]] = a
        out.append(tuple(row))
    return IntegerMatrix._derived(tuple(out), len(position))


def boundary_matrix(k: SimplicialComplex, n: int) -> IntegerMatrix:
    """Matrix of the boundary map C_n -> C_{n-1}, lexicographic bases.

    >>> edge = SimplicialComplex.from_maximal([("a", "b")])
    >>> boundary_matrix(edge, 1).rows
    ((-1,), (1,))
    """
    return _dense_rows(_boundary_columns(k, n), range(len(k.n_simplexes(n - 1)))).transpose()


def _transposed(columns: tuple, nrows: int) -> tuple:
    """The columns of the transpose of the map whose ``nrows``-row columns are ``columns``."""
    rows = [[] for _ in range(nrows)]
    for j, column in enumerate(columns):
        for i, a in column:
            rows[i].append((j, a))
    return tuple(map(tuple, rows))


def _combine(terms, columns) -> dict:
    """The sum of c * columns[j] over the (j, c) in ``terms``, zero entries dropped."""
    acc = {}
    for j, c in terms:
        for i, a in columns[j]:
            acc[i] = acc.get(i, 0) + c * a
    return {i: a for i, a in acc.items() if a}


def _eliminate(columns: tuple, live: list) -> tuple:
    """Eliminate unit pivots from the ``live`` columns: (pivots, columns left, their residual).

    Each column in turn takes its last row, in simplex order, whose
    current entry is 1 or -1, and that row is cleared from every other
    live column (a Schur complement step); passes repeat over the columns
    left without a unit until one finds none.  A pivot is (column, row,
    column entries, row entries) as they stood when it was taken; a
    residual column has no entry on a pivot row.
    """
    cols, rows = {j: dict(columns[j]) for j in live}, {}
    for j in live:
        for i in cols[j]:
            rows.setdefault(i, set()).add(j)
    pivots, pending = [], list(live)
    while True:
        left = []
        for j in pending:
            column = cols[j]
            t = max((i for i, a in column.items() if abs(a) == 1), default=None)
            if t is None:
                left.append(j)
                continue
            del cols[j]
            for i in column:
                rows[i].discard(j)
            row = {j: column[t]}
            for x in rows.pop(t):
                other = cols[x]
                row[x] = other.pop(t)
                q = row[x] * column[t]
                for i, b in column.items():
                    if i == t:
                        continue
                    w = other.get(i, 0) - q * b
                    if w:
                        if i not in other:
                            rows[i].add(x)
                        other[i] = w
                    else:
                        del other[i]
                        rows[i].discard(x)
            pivots.append((j, t, tuple(sorted(column.items())), tuple(sorted(row.items()))))
        if len(left) == len(pending):
            return tuple(pivots), left, tuple(tuple(sorted(cols[j].items())) for j in left)
        pending = left


def _reduce(incoming: tuple, outgoing: tuple) -> "ChainReduction":
    """Reduce the complex C_{n+1} -> C_n -> C_{n-1} given by its two maps' columns.

    The incoming map is eliminated first, and the outgoing one on the
    n-cells that are not pivot rows of the first, whose classes are
    boundaries.  pi_n is solved in reverse pivot order: a residual cell
    is its own image, a pivot row's image makes the image of its pivot
    column vanish, and any other cell maps to zero.  iota(a) = a - x
    solves U x = U e_a on the pivot columns, U the upper triangular
    matrix of the recorded pivot rows, from the last pivot back.
    """
    upper, _, rest_up = _eliminate(incoming, list(range(len(incoming))))
    pivot_rows = {t for _, t, _, _ in upper}
    lower, cells, rest_n = _eliminate(outgoing, [e for e in range(len(outgoing)) if e not in pivot_rows])
    image = {a: ((a, 1),) for a in cells}
    for _, t, column, _ in reversed(upper):
        u = dict(column)[t]
        terms = ((i, -u * a) for i, a in column if i != t and i in image)
        image[t] = tuple(sorted(_combine(terms, image).items()))
    iota = []
    for a in cells:
        chain = {a: 1}
        for j, _, _, row in reversed(lower):
            value = sum(b * chain.get(i, 0) for i, b in row if i != j)
            if value:
                chain[j] = -dict(row)[j] * value
        iota.append(tuple(sorted(chain.items())))
    pi = tuple(image.get(e, ()) for e in range(len(outgoing)))
    return ChainReduction(incoming, outgoing, (upper, lower), (rest_up, rest_n), tuple(iota), pi)


def _check_block(columns: tuple, live: list, pivots: tuple, residual: tuple) -> list:
    """Check that ``pivots`` and ``residual`` factor the ``live`` columns; the columns left.

    With u_p the pivot entry and c_p, r_p the recorded column and row of
    pivot p, the columns must be the sum of u_p * c_p * r_p^T plus the
    residual; c_p must hold u_p = +-1 at its row and no earlier pivot
    row, r_p u_p at its column and no earlier pivot column, and the
    residual no pivot row.  So the block M between pivot rows and pivot
    columns is a lower times an upper triangular matrix with unit
    diagonals, invertible over the integers.
    """
    rows, cols, acc = set(), set(), {j: {} for j in live}
    for j, t, column, row in pivots:
        u = dict(column).get(t)
        if u not in (1, -1) or dict(row).get(j) != u:
            raise AssertionError("a recorded pivot is not a unit at its row and column")
        if rows.intersection(i for i, _ in column) or cols.intersection(i for i, _ in row):
            raise AssertionError("recorded pivots are not triangular")
        rows.add(t)
        cols.add(j)
        for x, b in row:
            if x not in acc:
                raise AssertionError("a recorded pivot row leaves the block")
            for i, a in column:
                acc[x][i] = acc[x].get(i, 0) + u * b * a
    left = [j for j in live if j not in cols]
    if len(left) != len(residual) or rows.intersection(i for column in residual for i, _ in column):
        raise AssertionError("the residual is not the columns left off the pivot rows")
    for j, column in zip(left, residual):
        for i, a in column:
            acc[j][i] = acc[j].get(i, 0) + a
    if any({i: a for i, a in acc[j].items() if a} != dict(columns[j]) for j in live):
        raise AssertionError("recorded pivots and residual do not factor the map")
    return left


class ChainReduction(_Record):
    """A recorded chain equivalence between C_{n+1} -> C_n -> C_{n-1} and a residual complex C'.

    ``incoming`` and ``outgoing`` are the two maps by sparse columns, as
    (row, entry) pairs.  ``homotopy`` holds the unit pivots eliminated
    from each map, in order, as (column, row, column entries, row
    entries) when each was taken (``_eliminate``): first the incoming
    block, then the outgoing block on the n-cells that are not pivot
    rows of the first.  The cells of C' are those on no pivot, and
    ``residual`` holds each block's Schur complement on its residual
    columns: the incoming one over the n-cells the first block left,
    the outgoing one over the residual (n-1)-cells.  ``iota`` maps each
    residual n-cell to a chain of C_n, and ``pi`` maps every n-cell to
    a chain of C'_n.

    Let M_{n+1} and M_n be the blocks of the two maps between their
    pivot rows and pivot columns.  The homotopy is h_n = M_{n+1}^-1 on
    the incoming block's pivot rows and h_{n-1} = M_n^-1 on the
    outgoing block's, zero elsewhere, kept as those blocks' triangular
    factors.  Construction checks, raising ``AssertionError``:

    - each block is its pivots' product plus its residual, with
      triangular factors and unit pivots (``_check_block``), so M_{n+1}
      and M_n are invertible over Z;
    - the outgoing map after the incoming one is zero;
    - pi lands in C'_n, fixes its cells and kills the outgoing block's
      pivot columns, and iota(a) is a plus such pivot columns, so pi *
      iota is the identity;
    - iota and pi are chain maps: d * iota = d'' on the residual
      n-cells, and pi * d = d'' * pi_{n+1} on every (n+1)-cell, where
      pi_{n+1} keeps the residual (n+1)-cells and drops the rest.

    These pin pi and iota to the maps of the reduction lemma
    (Kaczynski, Mrozek and Slusarek 1998) for h: pi * d vanishes on the
    incoming pivot columns, so pi is -alpha * M_{n+1}^-1 on the pivot
    rows, and d * iota(a) has no entry on a pivot row, so M_n takes
    a - iota(a) to the pivot-row part of d(a).  With d * d = 0 they
    give id - iota * pi = d * h_n + h_{n-1} * d in degree n, cell by
    cell, once both sides are multiplied by the invertible M_n.  So a
    cycle z differs from iota(pi(z)) by the boundary of h_n(z), pi(z)
    is a cycle of C' since iota(d''(pi(z))) = d(z) = 0, and pi and iota
    induce inverse isomorphisms between H_n(C) and H_n(C').  Multiplied
    out, h would hold a chain per pivot row as long as the path its
    elimination followed; its factors cost the elimination.
    """

    __slots__ = _fields = ("incoming", "outgoing", "homotopy", "residual", "iota", "pi")

    def __init__(self, incoming, outgoing, homotopy, residual, iota, pi):
        _Record.__init__(self, incoming, outgoing, homotopy, residual, iota, pi)
        (upper, lower), size = homotopy, len(outgoing)
        pivot_rows = {t for _, t, _, _ in upper}
        left_up = _check_block(incoming, list(range(len(incoming))), upper, residual[0])
        cells = _check_block(outgoing, [e for e in range(size) if e not in pivot_rows], lower, residual[1])
        if len(pi) != size or len(iota) != len(cells) or any(map(_combine, incoming, repeat(outgoing))):
            raise AssertionError("the chain complex or its maps do not fit together")
        spans, kept = {j for j, _, _, _ in lower}, set(cells)
        for e, image in enumerate(pi):
            if not kept.issuperset(i for i, _ in image) or (e in spans and image):
                raise AssertionError("pi does not land in the residual complex")
            if e in kept and image != ((e, 1),):
                raise AssertionError("pi does not fix the residual complex")
        for a, chain, column in zip(cells, iota, residual[1]):
            if dict(chain).get(a) != 1 or not spans.issuperset(i for i, _ in chain if i != a):
                raise AssertionError("iota is not the identity plus pivot columns")
            if _combine(chain, outgoing) != dict(column):
                raise AssertionError("iota is not a chain map")
        up = dict(zip(left_up, residual[0]))
        for x, column in enumerate(incoming):
            if _combine(column, pi) != {i: a for i, a in up.get(x, ()) if i in kept}:
                raise AssertionError("pi is not a chain map")

    def residual_cells(self) -> tuple:
        """The cells of C' in degrees n + 1, n and n - 1, each list in simplex order.

        The (n-1)-cells are those the outgoing map meets, less its pivot
        rows: any other row of d'' is zero.
        """
        upper, lower = self.homotopy
        columns_up, rows_n = {j for j, _, _, _ in upper}, {t for _, t, _, _ in upper}
        columns_n, rows_below = {j for j, _, _, _ in lower}, {t for _, t, _, _ in lower}
        return (
            [x for x in range(len(self.incoming)) if x not in columns_up],
            [e for e in range(len(self.outgoing)) if e not in rows_n and e not in columns_n],
            sorted({i for column in self.outgoing for i, _ in column} - rows_below),
        )


class HomologyResult(_Record):
    """Homology (or cohomology) group with generator representatives.

    ``group`` is presented on the cycles in ``cycle_columns``
    (coordinates over ``basis``), subject to the boundaries; the j-th
    entry of ``representatives`` is the chain realizing the j-th
    canonical generator, as a read-only map simplex -> coefficient.
    All of them are one product: the transposed ``group.lifts`` times
    the matrix whose rows are the cycle columns.

    A result is read off one ``ChainReduction`` of its three-term
    complex, whose outgoing map is the boundary, the augmentation or the
    transposed coboundary.  Smith runs only on the transpose d''^T of
    the residual outgoing map d'' of C', one row per residual n-cell:
    the rows K of its U from the rank on are a basis of the residual
    cycles, and the cycle columns are iota(K), each signed so that its
    first nonzero entry in simplex order is positive.  The group factors
    only the residual relations, the coordinates over K of d''(b) for
    each residual (n+1)-cell b.  ``cycle_coordinates`` returns None
    exactly for a chain that is not a cycle, tested on the kept
    ``outgoing`` columns, and otherwise the coordinates of its class,
    which are those of pi_n(z): U^-T * pi_n(z) from the rank on.  So
    the result keeps U^-T * pi_n by columns in ``class_columns``
    (column j as the (row, entry) pairs of its nonzero entries, rows
    from the rank on signed like the cycles) with the rank in
    ``residual_rank``; none of these takes part in equality or repr.
    Results come from ``homology`` and ``cohomology`` only, which keep
    them on the complex, so one result is shared by every caller that
    asks for it.

    >>> circle = SimplicialComplex.from_maximal([(1, 2), (2, 3), (1, 3)])
    >>> h = homology(circle, 1)
    >>> h.basis, h.cycle_columns
    (((1, 2), (1, 3), (2, 3)), ((1, -1, 1),))
    >>> h.cycle_coordinates((2, -2, 2)), h.cycle_coordinates((1, 0, 0))
    ((2,), None)
    """

    _fields = ("group", "representatives", "degree", "basis", "cycle_columns")
    __slots__ = _fields + ("outgoing", "class_columns", "residual_rank")

    def cycle_coordinates(self, chain) -> Optional[tuple]:
        """Class coordinates of ``chain`` over ``cycle_columns``, or None for a non-cycle."""
        if len(chain) != len(self.basis):
            raise ValueError("vector length mismatch")
        return self._coordinates([(j, chain[j]) for j in compress(range(len(chain)), chain)])

    def _coordinates(self, chain: list) -> Optional[tuple]:
        """``cycle_coordinates`` of the chain with the nonzero (index, entry) pairs ``chain``."""
        if _combine(chain, self.outgoing):
            return None
        return _class(_combine(chain, self.class_columns), self.residual_rank, len(self.cycle_columns))


def _class(y: dict, rank: int, ngens: int) -> tuple:
    """Coordinates read off U^-T times a residual cycle, ``y``: its entries from ``rank`` on."""
    if any(i < rank for i in y):
        raise AssertionError("a cycle projects off the residual cycles; chain reduction broken")
    coords = [0] * ngens
    for i, c in y.items():
        coords[i - rank] = c
    return tuple(coords)


def _quotient(reduction: ChainReduction, degree: int, basis) -> HomologyResult:
    """H_n of the reduction's C', carried to C by its iota and pi.

    Smith factors d''^T, one row per residual n-cell: U's rows from the
    rank on are the residual cycles, and row a of U^-1 is column a of
    U^-T, which gives the class coordinates (``SmithDecomposition``).
    """
    _, cells, cells_below = reduction.residual_cells()
    snf = smith_normal_form(_dense_rows(reduction.residual[1], cells_below))
    rank = snf.rank
    signs, cycles = [1] * rank, []
    for k in snf.u.rows[rank:]:
        chain = _combine(((j, k[j]) for j in compress(range(len(k)), k)), reduction.iota)
        signs.append(1 if chain[min(chain)] > 0 else -1)
        col = [0] * len(basis)
        for e, c in chain.items():
            col[e] = signs[-1] * c
        cycles.append(tuple(col))
    # U^-T by columns, one per residual n-cell, its rows from the rank on signed like their cycles
    classes = {
        a: [(i, signs[i] * row[i]) for i in compress(range(len(row)), row)]
        for a, row in zip(cells, snf.uinv.rows)
    }
    ngens = len(cycles)
    relations = tuple(
        _class(_combine(((a, c) for a, c in column if a in classes), classes), rank, ngens)
        for column in reduction.residual[0]
    )
    group = FGAbelianGroup(ngens, IntegerMatrix._derived(relations, ngens))
    reps = (group.lifts.transpose() * IntegerMatrix._derived(tuple(cycles), len(basis))).rows
    return HomologyResult(
        group=group,
        representatives=tuple(
            MappingProxyType({s: c for s, c in zip(basis, rep) if c}) for rep in reps
        ),
        degree=degree,
        basis=tuple(basis),
        cycle_columns=tuple(cycles),
        outgoing=reduction.outgoing,
        class_columns=tuple(tuple(sorted(_combine(image, classes).items())) for image in reduction.pi),
        residual_rank=rank,
    )


def homology(k: SimplicialComplex, n: int, reduced: bool = False) -> HomologyResult:
    """Integral homology H_n with cycle representatives, kept on ``k``.

    ``reduced`` augments the complex in dimension 0 (and changes
    nothing in higher dimensions).  The first call reduces the chain
    complex around dimension n and factors two residual matrices, the
    transposed outgoing map and the relations; a repeat returns the
    same result.

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


def _reduction(k: SimplicialComplex, kind: str, n: int, reduced: bool) -> ChainReduction:
    """The ``ChainReduction`` that ``k``'s ``kind`` result in dimension ``n`` is read off."""
    if n < 0:
        return _reduce((), ())
    if kind == "cohomology":
        incoming = _transposed(_boundary_columns(k, n), len(k.n_simplexes(n - 1)))
        return _reduce(incoming, _transposed(_boundary_columns(k, n + 1), len(k.n_simplexes(n))))
    outgoing = (((0, 1),),) * len(k.n_simplexes(0)) if reduced else _boundary_columns(k, n)
    return _reduce(_boundary_columns(k, n + 1), outgoing)


def _kept(k: SimplicialComplex, kind: str, n: int, reduced: bool) -> HomologyResult:
    """The ``kind`` result in dimension ``n`` that ``k`` keeps, built on the first read."""
    key = (kind, n, reduced)
    if key not in k._results:
        basis = k.n_simplexes(n) if n >= 0 else ()
        k._results[key] = _quotient(_reduction(k, kind, n, reduced), n, basis)
    return k._results[key]


def _chain_columns(f: SimplicialMap, n: int) -> tuple:
    """The chain map C_n(source) -> C_n(target) by sparse columns, one per source simplex.

    A simplex whose vertices collapse maps to zero; otherwise the sign
    is the parity of the permutation sorting the image vertices.
    """
    rank, index = f.target._rank, {s: i for i, s in enumerate(f.target.n_simplexes(n))}
    columns = []
    for s in f.source.n_simplexes(n):
        ranks = [rank[f.vertex_map[v]] for v in s]
        inversions = sum(a > b for i, a in enumerate(ranks) for b in ranks[i + 1 :])
        collapsed = len(set(ranks)) != len(ranks)
        columns.append(() if collapsed else ((index[f.image_simplex(s)], (-1) ** inversions),))
    return tuple(columns)


def _induced_between(source: HomologyResult, target: HomologyResult, columns: tuple) -> GroupHom:
    """Hom between quotient groups from a chain map given by its sparse ``columns``.

    Each source cycle is pushed through the chain map at its nonzero
    entries, and the target reads the image in class coordinates through
    its kept ``class_columns``, factoring nothing.  An image that is not
    a cycle is a real failure of cycles to land on cycles.
    """
    cols = []
    for cycle in source.cycle_columns:
        image = _combine(((j, cycle[j]) for j in compress(range(len(cycle)), cycle)), columns)
        cols.append(target._coordinates(image.items()))
    if None in cols:
        raise AssertionError("image of a cycle is not a cycle; induced map broken")
    matrix = IntegerMatrix._derived(tuple(cols), target.group.ngens).transpose()
    return GroupHom(source.group, target.group, matrix)


def _is_identity(f: SimplicialMap) -> bool:
    return f.source == f.target and all(v == w for v, w in f.vertex_map.items())


def induced_map(f: SimplicialMap, n: int, reduced: bool = False) -> GroupHom:
    """Induced map on H_n, between the homology results its ends keep.

    The identity of a complex induces the identity of its kept group,
    and nothing else is read for it.

    >>> hexagon = SimplicialComplex.from_maximal([(i, (i + 1) % 6) for i in range(6)])
    >>> triangle = SimplicialComplex.from_maximal([(0, 1), (1, 2), (0, 2)])
    >>> wrap = SimplicialMap(hexagon, triangle, {v: v % 3 for v in range(6)})
    >>> induced_map(wrap, 1).canonical_matrix().rows in (((2,),), ((-2,),))
    True
    """
    target = homology(f.target, n, reduced)
    if _is_identity(f):
        return GroupHom.identity(target.group)
    return _induced_between(homology(f.source, n, reduced), target, _chain_columns(f, n))


def induced_cohomology_map(f: SimplicialMap, n: int) -> GroupHom:
    """Contravariant induced map H^n(target) -> H^n(source); the identity as in ``induced_map``."""
    source = cohomology(f.source, n)
    if _is_identity(f):
        return GroupHom.identity(source.group)
    target = cohomology(f.target, n)
    return _induced_between(target, source, _transposed(_chain_columns(f, n), len(target.basis)))


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
