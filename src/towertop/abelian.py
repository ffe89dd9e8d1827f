"""Exact arithmetic for finitely generated abelian groups.

Everything here runs on plain Python integers, which are arbitrary
precision; no floating point enters any code path.  The two central
objects are

* :class:`IntegerMatrix`, an immutable integer matrix with exact
  Smith and Hermite routines, and
* :class:`FGAbelianGroup`, a finitely generated abelian group carried
  around together with a presentation (generator count plus integer
  relation rows) and the two maps between presentation and canonical
  coordinates that the Smith normal form of the relation matrix gives.

The Smith decomposition canonicalizes presentations and, in
``simplicial``, computes homology.  A subgroup is a lattice in
canonical coordinates, and its Hermite normal form decides
membership, containment and equality; residues mod 2 and 3 prove most
strict containments first.  The form's pivots give the subgroup's free
rank and torsion order, and its rows present the subgroup as a group.
A homomorphism is one-to-one exactly when its image has the source's
free rank and torsion order, and, finitely generated abelian groups
being Hopfian, an isomorphism exactly when its two ends have the same
invariants and its image is the whole target.
"""

from __future__ import annotations

from itertools import compress, islice
from math import prod
from operator import mul
from typing import Iterable, Optional, Sequence


class _Record:
    """Base of the package's small records: construction, equality, hash and repr.

    A record keeps its attributes in ``__slots__`` and names, in
    ``_fields``, the ones that make up its value.  ``__init__`` binds
    positional and keyword arguments to the slots in order, takes any
    left over from the class's ``_defaults``, and raises ``TypeError``
    on a missing, unknown, repeated or surplus argument; a record that
    checks or converts its input does so in its own ``__init__`` and
    calls this one.  Records of one class are equal when their values
    are, the hash is that of the values, and the repr reads
    ``Name(field=value, ...)``.  Records are frozen: assigning or
    deleting an attribute raises ``AttributeError``.  A record copies
    and pickles as its class called on its slots in order, so a record
    with its own ``__init__`` takes its slots in that order and checks
    a copy as it checked the original.

    >>> class Pair(_Record):
    ...     __slots__ = _fields = ("left", "right")
    ...     _defaults = {"right": 0}
    >>> Pair(1, right=2), Pair(left=1)
    (Pair(left=1, right=2), Pair(left=1, right=0))
    """

    __slots__ = ()
    _fields: tuple = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        cls, names = type(self).__qualname__, type(self).__slots__
        if len(args) > len(names):
            raise TypeError(f"{cls}() takes {len(names)} arguments but {len(args)} were given")
        for name in kwargs:
            if name not in names[len(args) :]:
                problem = "multiple values for" if name in names else "an unexpected keyword"
                raise TypeError(f"{cls}() got {problem} argument {name!r}")
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        for name in names:
            if name not in values:
                raise TypeError(f"{cls}() missing argument {name!r}")
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


def _exact_int(value, what: str) -> int:
    """``value`` as an int, or ValueError when it is a bool or not an int.

    Arithmetic here is exact, so a float, a fraction or a string is
    refused rather than truncated or parsed.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an int, got {value!r}")
    return int(value)


class IntegerMatrix:
    """Immutable integer matrix stored as a tuple of row tuples.

    A matrix with zero rows or zero columns is legal (boundary
    matrices of complexes routinely are); ``ncols`` must be passed
    explicitly when there are no rows to infer it from.  Entries and
    ``ncols`` must be ints: a bool, a float, a fraction or a string
    raises ValueError.

    >>> m = IntegerMatrix([[1, 2], [3, 4]])
    >>> m.nrows, m.ncols
    (2, 2)
    >>> (m * IntegerMatrix.identity(2)) == m
    True
    """

    __slots__ = ("rows", "ncols")

    def __init__(self, rows: Iterable[Iterable[int]], ncols: Optional[int] = None):
        self.rows = tuple(tuple([_exact_int(x, "matrix entry") for x in row]) for row in rows)
        if ncols is not None:
            ncols = _exact_int(ncols, "ncols")
        if self.rows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise ValueError("ragged rows")
            inferred = widths.pop()
            if ncols is not None and ncols != inferred:
                raise ValueError("ncols disagrees with row width")
            self.ncols = inferred
        else:
            if ncols is None:
                raise ValueError("ncols required for a matrix with no rows")
            self.ncols = ncols
            if self.ncols < 0:
                raise ValueError("matrix sizes must be nonnegative")

    @classmethod
    def _derived(cls, rows: tuple, ncols: int) -> "IntegerMatrix":
        """Matrix from rows the package computed out of checked matrices.

        ``rows`` must already be a tuple of equal-width tuples of ints;
        nothing is coerced or re-scanned, unlike the public constructor.
        """
        m = cls.__new__(cls)
        m.rows = rows
        m.ncols = ncols
        return m

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "IntegerMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)], ncols=n)

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.rows)

    def columns(self) -> list:
        return [self.column(j) for j in range(self.ncols)]

    def transpose(self) -> "IntegerMatrix":
        if not self.rows:
            return IntegerMatrix._derived(((),) * self.ncols, 0)
        return IntegerMatrix._derived(tuple(zip(*self.rows)), self.nrows)

    def __mul__(self, other: "IntegerMatrix") -> "IntegerMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch in matrix product")
        # boundary matrices and near-identity transforms are mostly zeros:
        # each product row reads only the nonzero entries of both factors
        terms = _row_terms(other.rows)
        n = other.ncols
        rows = tuple(tuple(_product_row(row, terms, n)) for row in self.rows)
        return IntegerMatrix._derived(rows, n)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, IntegerMatrix)
            and self.ncols == other.ncols
            and self.rows == other.rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.ncols))

    def __repr__(self) -> str:
        return f"IntegerMatrix({[list(r) for r in self.rows]!r}, ncols={self.ncols})"


_IDENTITY_FAILED = "Smith decomposition identity U*M*V = D failed"


class SmithDecomposition(_Record):
    """Result of ``smith_normal_form``: U * M * V = D, with U^-1.

    U and V are built purely from elementary operations, D is diagonal
    with nonnegative entries, every diagonal entry divides the next,
    and zero entries trail.  Construction checks the shapes first (U
    and U^-1 are m x m, V is n x n, D is m x n for an m x n matrix M),
    then U * U^-1 = I; for every i with d_i != 1, row i of U * M is
    divisible by d_i, and zero where d_i = 0 or i >= min(m, n); and
    M * v_j = d_j * (column j of U^-1) for j < r, r the rank (the
    number of nonzero d_i); and last, that D is diagonal with the sign,
    zero and divisibility conditions.  Nothing proves V unimodular.

    For a group's relation lattice: the first two identities put every
    column of M in U^-1 * D * Z^n and the third puts U^-1 * D * Z^n in
    M * Z^n, so M's columns span exactly U^-1 * D * Z^n.  Z^m modulo
    that lattice is the sum of the Z/d_i and of Z^(m - r), U takes
    presentation coordinates to those, and U^-1's columns lift them
    back.

    For homology, M is the transpose of a residual boundary map, one
    row per n-cell, and a chain z is a cycle when z^T * M = 0.
    U * U^-1 = I makes U unimodular.  Rows i >= r of U * M vanish, so
    those rows of U are cycles.  M * v_j = d_j * (column j of U^-1) for
    j < r gives (U * M) * v_j = d_j * e_j, so the first r rows of U * M
    are independent.  With y = U^-T * z, z^T * M = y^T * U * M is the
    sum of y_i times row i of U * M over i < r: z is a cycle exactly
    when the first r entries of U^-T * z vanish, and then z is the sum
    of y_i times row i of U over i >= r.  So U's rows from r on are a
    saturated basis of the cycles, and U^-T * z from r on gives a
    cycle's coordinates over them.

    Each identity is checked one product row at a time and no product
    matrix is kept; a product row reads only the nonzero entries of
    its two factors.

    >>> smith_normal_form(IntegerMatrix([[2, 4], [6, 8]])).invariant_factors
    (2, 4)
    """

    __slots__ = _fields = ("matrix", "u", "uinv", "d", "v")

    def __init__(
        self,
        matrix: IntegerMatrix,
        u: IntegerMatrix,
        uinv: IntegerMatrix,
        d: IntegerMatrix,
        v: IntegerMatrix,
    ):
        _Record.__init__(self, matrix, u, uinv, d, v)
        m, n = matrix.nrows, matrix.ncols
        for name, factor, shape in (
            ("u", u, (m, m)), ("uinv", uinv, (m, m)), ("d", d, (m, n)), ("v", v, (n, n)),
        ):
            if (factor.nrows, factor.ncols) != shape:
                raise AssertionError(f"Smith factor {name} has the wrong shape")
        if not _rows_are_units(u.rows, _row_terms(uinv.rows), m):
            raise AssertionError("tracked inverse of U is wrong")
        diag, r = self.diagonal(), self.rank
        terms = _row_terms(matrix.rows)
        for i, row in enumerate(u.rows):
            di = diag[i] if i < len(diag) else 0
            if di != 1:
                got = _product_row(row, terms, n)
                if any(x % di for x in got) if di else any(got):
                    raise AssertionError(_IDENTITY_FAILED)
        if r:
            v_terms = _row_terms(row[:r] for row in v.rows)
            for row, lift in zip(matrix.rows, uinv.rows):
                if _product_row(row, v_terms, r) != list(map(mul, diag, lift[:r])):
                    raise AssertionError(_IDENTITY_FAILED)
        for i, x in enumerate(diag):
            if x < 0:
                raise AssertionError("negative entry on Smith diagonal")
            if i + 1 < len(diag):
                nxt = diag[i + 1]
                if x == 0 and nxt != 0:
                    raise AssertionError("zero entry precedes nonzero on Smith diagonal")
                if x != 0 and nxt % x != 0:
                    raise AssertionError("divisibility chain broken on Smith diagonal")
        for i, row in enumerate(d.rows):
            for j in compress(range(n), row):
                if i != j:
                    raise AssertionError("off-diagonal entry in Smith form")

    def diagonal(self) -> list:
        return [self.d.rows[i][i] for i in range(min(self.d.nrows, self.d.ncols))]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal() if x != 0)

    @property
    def invariant_factors(self) -> tuple:
        return tuple(x for x in self.diagonal() if x != 0)


def _row_terms(rows) -> list:
    """Each row's nonzero entries as (column, entry) pairs."""
    return [[(j, row[j]) for j in compress(range(len(row)), row)] for row in rows]


def _product_row(row, terms, width: int) -> list:
    """``row`` times the matrix whose rows have the nonzero entries ``terms``."""
    acc = [0] * width
    for a, row_terms in compress(zip(row, terms), row):
        for j, b in row_terms:
            acc[j] += a * b
    return acc


def _rows_are_units(rows, terms, width: int) -> bool:
    """Whether row i of ``rows`` times the matrix of ``terms`` is the unit row e_i, for every i."""
    for i, row in enumerate(rows):
        acc = _product_row(row, terms, width)
        if acc[i] != 1:
            return False
        acc[i] = 0
        if any(acc):
            return False
    return True


def _identity_lists(n: int) -> list:
    """The n x n identity matrix as a list of n lists."""
    rows = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        row[i] = 1
    return rows


def _balanced_quotient(x: int, p: int) -> int:
    """Quotient leaving a remainder of absolute value at most ``|p| / 2``."""
    q, r = divmod(x, p)
    if 2 * abs(r) > abs(p):
        q += 1
    return q


def smith_normal_form(matrix: IntegerMatrix) -> SmithDecomposition:
    """Smith normal form over Z with U, U^-1 and V tracked; ``SmithDecomposition`` says what it proves.

    A group factors its transposed relation matrix and reads U and U^-1
    as its coordinate maps; homology factors the transpose of a
    residual boundary map and reads its cycles off U's rows and their
    coordinates off U^-1.  V is tracked for the check alone.

    Pivots are re-chosen by least absolute value after every reduction
    pass and remainders are balanced, so the pivot at least halves on
    every repeat.  Nothing bounds the transforms, though: on dense
    torsion input U and V grow (up to 1045-bit entries on towers of
    4-6 generator presentations with relation entries in [-9, 9]), while
    on boundary matrices, whose pivots are nearly all units, they stay
    at 1-2 bits.

    The working matrix and U are kept by rows and U^-1 and V by
    columns, so a row operation on the matrix is a row operation on U
    and a column operation on U^-1, a column operation on the matrix is
    a column operation on V, and each of them adds a multiple of one
    list to another or swaps two lists.  Every update runs only over
    the nonzero entries of the list it adds, and a reduction pass
    against pivot t visits only the rows with a nonzero in column t and
    the columns with a nonzero in row t: adding q * 0 changes nothing,
    so these are the operations of a dense elimination in the same
    order, minus the no-ops, with the same results.

    >>> s = smith_normal_form(IntegerMatrix([[1], [1], [1]]))
    >>> s.rank, s.u.rows[s.rank:]
    (1, ((-1, 1, 0), (-1, 0, 1)))
    """
    m, n = matrix.nrows, matrix.ncols
    a = [list(row) for row in matrix.rows]
    u, uinv, v = _identity_lists(m), _identity_lists(m), _identity_lists(n)  # uinv, v by columns

    def swap_rows(i, k):
        a[i], a[k] = a[k], a[i]
        u[i], u[k] = u[k], u[i]
        uinv[i], uinv[k] = uinv[k], uinv[i]

    def add_row(i, k, q):
        # row_i += q * row_k on a and u; col_k -= q * col_i on uinv
        dst, src = a[i], a[k]
        for j in compress(range(n), src):
            dst[j] += q * src[j]
        dst, src = u[i], u[k]
        for j in compress(range(m), src):
            dst[j] += q * src[j]
        dst, src = uinv[k], uinv[i]
        for j in compress(range(m), src):
            dst[j] -= q * src[j]

    def swap_cols(j, k):
        for row in a:
            row[j], row[k] = row[k], row[j]
        v[j], v[k] = v[k], v[j]

    def add_col(j, k, q, rows):
        # col_j += q * col_k on a (``rows``: those with a nonzero in col_k) and on v
        for row in rows:
            row[j] += q * row[k]
        dst, src = v[j], v[k]
        for i in compress(range(n), src):
            dst[i] += q * src[i]

    def min_entry(t):
        # first entry of least absolute value in row-major order; a unit
        # is already that minimum, so the scan stops at the first one
        best, least = None, 0
        for i in range(t, m):
            row = a[i]
            for j in compress(range(t, n), islice(row, t, None)):
                x = abs(row[j])
                if x == 1:
                    return (i, j)
                if best is None or x < least:
                    best, least = (i, j), x
        return best

    def move_pivot(t, spot):
        if spot[0] != t:
            swap_rows(t, spot[0])
        if spot[1] != t:
            swap_cols(t, spot[1])

    t = 0
    while t < m and t < n:
        spot = min_entry(t)
        if spot is None:
            break
        move_pivot(t, spot)
        while True:
            # one pass of balanced remainders against a fixed pivot.  The
            # row pass keeps the rows left with a residue in column t; the
            # column pass leaves column t as it is, so those and row t are
            # the rows it updates (the rows above t are clear in column t)
            p, pivot_row = a[t][t], a[t]
            rows = [pivot_row]
            for i in range(t + 1, m):
                if a[i][t]:
                    add_row(i, t, -_balanced_quotient(a[i][t], p))
                    if a[i][t]:
                        rows.append(a[i])
            for j in compress(range(t + 1, n), islice(pivot_row, t + 1, None)):
                add_col(j, t, -_balanced_quotient(pivot_row[j], p), rows)
            # a unit pivot leaves no residue and divides every entry, so
            # the rescan and the divisibility search below would both
            # come up empty
            if p == 1 or p == -1:
                break
            # any leftover residue is at most half the pivot, so the
            # trailing block now holds a strictly smaller entry iff the
            # pass was incomplete; chase it and the pivot keeps halving
            spot = min_entry(t)
            if abs(a[spot[0]][spot[1]]) < abs(p):
                move_pivot(t, spot)
                continue
            # column and row are clear; enforce the divisibility chain
            offender = next(
                (i for i in range(t + 1, m) if any(x % p for x in islice(a[i], t + 1, None))),
                None,
            )
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
            uinv[i] = [-x for x in uinv[i]]

    def by_rows(rows, width):
        return IntegerMatrix._derived(tuple(map(tuple, rows)), width)

    def by_columns(columns, width):
        return IntegerMatrix._derived(tuple(zip(*columns)), width)

    return SmithDecomposition(matrix, by_rows(u, m), by_columns(uinv, m), by_rows(a, n), by_columns(v, n))


class HermiteForm(_Record):
    """Result of ``hermite_normal_form``: a lattice's Hermite normal form and its transform.

    The rows of ``matrix`` span a lattice.  ``form`` is its row Hermite
    normal form: nonzero rows whose pivots (first nonzero entries) are
    positive and lie strictly further right in each row, with every
    entry above a pivot in [0, pivot); ``pivots`` lists their columns.
    A lattice has exactly one such form, so two lattices are equal
    exactly when their forms are, and a subgroup is the whole group
    exactly when its form is the identity.  Row i of ``transform``
    writes form row i as a combination of the rows of ``matrix``; only
    the construction check reads it.

    Construction checks the shapes, that every form row equals its
    recorded combination (so the form's lattice lies in the input's),
    that the form has the Hermite shape (so its rows are independent),
    and that every row of ``matrix`` reduces to zero against the form
    (so the input's lattice lies in the form's), unless the form is the
    identity, whose lattice holds every row.  The form's rows are then
    a basis of the input's lattice.  Every check raises
    ``AssertionError`` itself, so none rests on an ``assert`` statement.
    """

    __slots__ = _fields = ("matrix", "form", "pivots", "transform")

    def __init__(self, matrix: IntegerMatrix, form: IntegerMatrix, pivots: tuple, transform: IntegerMatrix):
        _Record.__init__(self, matrix, form, tuple(pivots), transform)
        m, n, r = matrix.nrows, matrix.ncols, form.nrows
        for name, factor, shape in (("form", form, (r, n)), ("transform", transform, (r, m))):
            if (factor.nrows, factor.ncols) != shape:
                raise AssertionError(f"Hermite {name} has the wrong shape")
        if len(self.pivots) != r:
            raise AssertionError("Hermite form needs one pivot per row")
        terms = _row_terms(matrix.rows)
        for row, combination in zip(form.rows, transform.rows):
            if _product_row(combination, terms, n) != list(row):
                raise AssertionError("Hermite row differs from its recorded combination")
        last = -1
        for i, (p, row) in enumerate(zip(self.pivots, form.rows)):
            if not last < p < n or row[p] <= 0 or any(islice(row, p)):
                raise AssertionError("Hermite form has a misplaced or negative pivot")
            if any(not 0 <= above[p] < row[p] for above in form.rows[:i]):
                raise AssertionError("Hermite form has an unreduced entry above a pivot")
            last = p
        # a form of n pivots 1 in n columns is the identity: its lattice Z^n holds every row
        identity = r == n and all(row[p] == 1 for p, row in zip(self.pivots, form.rows))
        if not identity and any(self.divide(row) is None for row in matrix.rows):
            raise AssertionError("an input row lies outside the lattice of its Hermite form")

    def divide(self, v: Sequence[int]) -> Optional[list]:
        """The coefficients q with q * form = v, or None when v is outside the lattice.

        Each form row in turn clears its pivot entry of v, which must be
        a multiple of the pivot and have only zeros between it and the
        previous pivot; a row changes no entry left of its pivot.
        """
        v = list(v)
        q = []
        start = 0
        for p, row in zip(self.pivots, self.form.rows):
            if any(islice(v, start, p)):
                return None
            c, rest = divmod(v[p], row[p])
            if rest:
                return None
            if c:
                for j in compress(range(p, len(v)), islice(row, p, None)):
                    v[j] -= c * row[j]
            q.append(c)
            start = p + 1
        return None if any(islice(v, start, None)) else q


def hermite_normal_form(matrix: IntegerMatrix) -> HermiteForm:
    """Row Hermite normal form of the lattice that the rows of ``matrix`` span.

    Columns are cleared left to right.  Below the pivots found so far,
    the rows with a nonzero entry in the column are reduced against the
    one of least absolute value with balanced remainders until one row
    is left, which becomes the next pivot row, made positive; the rows
    above it are then reduced into [0, pivot) in that column.  Every row
    operation is repeated on a transform that starts as the identity.

    >>> h = hermite_normal_form(IntegerMatrix([[2, 4], [6, 8], [0, 3]]))
    >>> h.form.rows
    ((2, 0), (0, 1))
    >>> h.divide((2, 3)), h.divide((1, 0))
    ([1, 3], None)
    """
    m, n = matrix.nrows, matrix.ncols
    a = [list(row) for row in matrix.rows]
    t = _identity_lists(m)
    pivots = []

    def add_row(i, k, q):
        # row_i += q * row_k on a and t
        dst, src = a[i], a[k]
        for j in compress(range(n), src):
            dst[j] += q * src[j]
        dst, src = t[i], t[k]
        for j in compress(range(m), src):
            dst[j] += q * src[j]

    top = 0  # rows above ``top`` hold the pivots found so far
    for c in range(n):
        if top == m:
            break
        live = [i for i in range(top, m) if a[i][c]]
        if not live:
            continue
        while len(live) > 1:
            # balanced residues are at most half the least entry, so it halves every pass
            k = min(live, key=lambda i: abs(a[i][c]))
            p = a[k][c]
            for i in live:
                if i != k:
                    add_row(i, k, -_balanced_quotient(a[i][c], p))
            live = [i for i in live if a[i][c]]
        k = live[0]
        a[top], a[k], t[top], t[k] = a[k], a[top], t[k], t[top]
        if a[top][c] < 0:
            a[top] = [-x for x in a[top]]
            t[top] = [-x for x in t[top]]
        p = a[top][c]
        for i in range(top):
            q = a[i][c] // p
            if q:
                add_row(i, top, -q)
        pivots.append(c)
        top += 1

    def rows(lists, width):
        return IntegerMatrix._derived(tuple(map(tuple, lists)), width)

    return HermiteForm(matrix, rows(a[:top], n), pivots, rows(t[:top], m))


class ResidueBasis(_Record):
    """Result of ``residue_basis``: a reduced echelon basis over F_p of the rows of ``matrix``.

    ``p`` is prime.  Basis row i has entries in [0, p) and a 1 in column
    ``pivots[i]``, with zeros left of it and in the other rows there; the
    pivots rise.  So a vector is in the span exactly when, off the
    pivots, it is the rows weighted by its pivot entries (``spans``).
    Construction checks that shape and that the basis spans every row of
    ``matrix``, each check raising ``AssertionError`` itself; a vector
    the basis does not span then lies outside the rows' span.
    """

    __slots__ = _fields = ("p", "matrix", "basis", "pivots")

    def __init__(self, p: int, matrix: IntegerMatrix, basis: IntegerMatrix, pivots: tuple):
        _Record.__init__(self, p, matrix, basis, tuple(pivots))
        rows, pivots, n = basis.rows, self.pivots, matrix.ncols
        if basis.ncols != n or len(pivots) != len(rows):
            raise AssertionError("residue basis has the wrong shape")
        for last, c, row in zip((-1,) + pivots, pivots, rows):
            if not last < c < n or row[c] != 1 or any(islice(row, c)) or min(row) < 0 or max(row) >= p:
                raise AssertionError("residue basis has a misplaced pivot or an entry outside [0, p)")
        # entries are nonnegative, so the pivot columns sum to the pivots' 1s only when zero elsewhere
        if sum([row[c] for row in rows for c in pivots]) != len(rows):
            raise AssertionError("residue basis has a nonzero entry beside a pivot")
        if not self.spans(matrix.rows):
            raise AssertionError("a row lies outside the span of its residue basis")

    def spans(self, vectors: Iterable[Sequence[int]]) -> bool:
        """Whether the span holds every vector of ``vectors`` mod p."""
        p, pivots, rows = self.p, self.pivots, self.basis.rows
        off = [(j, [row[j] for row in rows]) for j in range(self.basis.ncols) if j not in pivots]
        for v in vectors if off else ():
            weights = [v[c] for c in pivots]
            if any([(v[j] - sum(map(mul, weights, column))) % p for j, column in off]):
                return False
        return True


def residue_basis(matrix: IntegerMatrix, p: int) -> ResidueBasis:
    """Reduced echelon basis over F_p, for a prime ``p``, of the rows of ``matrix``, entries in [0, p)."""
    kept = {}  # pivot column -> row
    for v in matrix.rows:
        v = [x % p for x in v]
        for c, row in kept.items():
            q = v[c]
            if q:
                v = [(x - q * y) % p for x, y in zip(v, row)]
        c = next(compress(range(len(v)), v), None)
        if c is not None:
            if v[c] != 1:
                q = pow(v[c], -1, p)
                v = [x * q % p for x in v]
            for k, row in kept.items():
                q = row[c]
                if q:
                    kept[k] = [(x - q * y) % p for x, y in zip(row, v)]
            kept[c] = v
    pivots = sorted(kept)
    basis = IntegerMatrix._derived(tuple(tuple(kept[c]) for c in pivots), matrix.ncols)
    return ResidueBasis(p, matrix, basis, pivots)


class FGAbelianGroup:
    """Finitely generated abelian group with an attached presentation.

    The presentation is ``ngens`` generators subject to the rows of
    ``relations``.  Canonical form (free rank plus invariant-factor
    torsion list, each factor at least 2 and dividing the next) is
    computed once from the Smith normal form U * M * V = D of the
    transposed relation matrix M.  Its check proves U * U^-1 = I, every
    column of M in U^-1 * D * Z^n and every d_j * (column j of U^-1) in
    M * Z^n (see ``SmithDecomposition``), so the relation lattice is exactly
    U^-1 * D * Z^n: that gives the invariants, and U and U^-1 are the
    coordinate maps.  Of that factorization the group keeps only the
    rows of U and the columns of U^-1 that carry a canonical
    coordinate, so elements move between presentation coordinates and
    canonical coordinates exactly, one product each way.  The columns
    of U^-1 are ``lifts``: column j is the canonical generator j in
    presentation coordinates.

    Canonical coordinates list the free positions first, then the
    torsion positions in divisibility order.

    >>> g = FGAbelianGroup(2, IntegerMatrix([[2, 0]], ncols=2))
    >>> g.free_rank, g.torsion
    (1, (2,))
    >>> g.describe()
    'Z + Z/2'
    """

    __slots__ = ("ngens", "relations", "free_rank", "torsion", "_to", "lifts")

    def __init__(self, ngens: int, relations: Optional[IntegerMatrix] = None):
        ngens = _exact_int(ngens, "generator count")
        if ngens < 0:
            raise ValueError("generator count must be nonnegative")
        if relations is None:
            relations = IntegerMatrix([], ncols=ngens)
        if relations.ncols != ngens:
            raise ValueError("relation width must equal generator count")
        self.ngens = ngens
        self.relations = relations
        # columns of relations^T are the relation vectors.  With U * R^T
        # * V = D, row i of U gives coordinate i: free from the rank on, of
        # torsion diag[i] below it when diag[i] > 1.  The divisibility
        # chain puts the units first, so torsion runs from ``first`` to the
        # rank; U's rows and U^-1's columns from there on are kept, free
        # ones first.
        snf = smith_normal_form(relations.transpose())
        rank = snf.rank
        self.torsion = tuple(t for t in snf.invariant_factors if t > 1)
        self.free_rank = ngens - rank
        first = rank - len(self.torsion)
        self._to = IntegerMatrix._derived(snf.u.rows[rank:] + snf.u.rows[first:rank], ngens)
        self.lifts = IntegerMatrix._derived(
            tuple(row[rank:] + row[first:rank] for row in snf.uinv.rows), ngens - first
        )

    # -- constructors -------------------------------------------------

    @classmethod
    def free(cls, rank: int) -> "FGAbelianGroup":
        return cls(rank)

    @classmethod
    def trivial(cls) -> "FGAbelianGroup":
        return cls(0)

    @classmethod
    def from_invariants(cls, free_rank: int, torsion: Sequence[int] = ()) -> "FGAbelianGroup":
        """Group in canonical shape: free generators first, then torsion.

        Its presentation lists the free generators first, but its
        canonical coordinates may permute them: they are whatever the
        Smith decomposition of its relations gives, as for any group.
        """
        if _exact_int(free_rank, "free rank") < 0:
            raise ValueError("free rank must be nonnegative")
        torsion = [_exact_int(t, "torsion invariant") for t in torsion]
        for i, t in enumerate(torsion):
            if t < 2:
                raise ValueError("torsion invariants must be at least 2")
            if i + 1 < len(torsion) and torsion[i + 1] % t != 0:
                raise ValueError("torsion invariants must form a divisibility chain")
        n = free_rank + len(torsion)
        rows = []
        for i, t in enumerate(torsion):
            row = [0] * n
            row[free_rank + i] = t
            rows.append(row)
        return cls(n, IntegerMatrix(rows, ncols=n))

    # -- canonical coordinates ----------------------------------------

    @property
    def canonical_ngens(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def invariants(self) -> tuple:
        return (self.free_rank, self.torsion)

    def is_trivial(self) -> bool:
        return self.canonical_ngens == 0

    def reduce_canonical(self, y: Sequence[int]) -> tuple:
        """Normalize raw canonical coordinates (torsion entries mod invariant)."""
        if len(y) != self.canonical_ngens:
            raise ValueError("canonical length mismatch")
        free = list(y[: self.free_rank])
        tors = [y[self.free_rank + k] % t for k, t in enumerate(self.torsion)]
        return tuple(free + tors)

    def _reduced(self, matrix: IntegerMatrix) -> IntegerMatrix:
        """``matrix``, whose columns are canonical coordinates, with its torsion rows reduced."""
        f = self.free_rank
        torsion = tuple(tuple(c % t for c in row) for row, t in zip(matrix.rows[f:], self.torsion))
        return IntegerMatrix._derived(matrix.rows[:f] + torsion, matrix.ncols)

    def canonical_relation_columns(self) -> list:
        """Columns spanning the relation lattice in canonical coordinates."""
        n = self.canonical_ngens
        cols = []
        for k, t in enumerate(self.torsion):
            col = [0] * n
            col[self.free_rank + k] = t
            cols.append(tuple(col))
        return cols

    def canonical_generators(self) -> list:
        n = self.canonical_ngens
        return [tuple(1 if i == j else 0 for i in range(n)) for j in range(n)]

    # -- display and comparison ---------------------------------------

    def describe(self) -> str:
        """Human-readable canonical form, e.g. ``'Z^2 + Z/4'`` or ``'0'``."""
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{t}" for t in self.torsion)
        return " + ".join(parts) if parts else "0"

    def __eq__(self, other) -> bool:
        # structural identity of the presentation, not abstract isomorphism
        return (
            isinstance(other, FGAbelianGroup)
            and self.ngens == other.ngens
            and self.relations == other.relations
        )

    def __hash__(self) -> int:
        return hash((self.ngens, self.relations))

    def __repr__(self) -> str:
        return f"<FGAbelianGroup {self.describe()} on {self.ngens} generators>"


class GroupHom:
    """Homomorphism between finitely generated abelian groups.

    ``matrix`` acts on presentation coordinates: column j is the image
    of source generator j written in target generators.  Construction
    verifies well-definedness (every source relation must land in the
    target relation lattice); this is a real check, not an assumption,
    because chain-level inputs arrive in presentation coordinates.

    Coordinates change by whole-matrix products, torsion rows reduced:
    the check is the target's coordinate map times ``matrix`` times the
    transposed source relations, which must vanish, and the canonical
    matrix is that map times ``matrix`` times the source's ``lifts``.
    Both are built on construction from the one product of the
    coordinate map and ``matrix``.  The image is computed on first use
    and kept, and injectivity and surjectivity are both read off the
    image's Hermite form, so repeated tests on one hom reduce the
    image's lattice once.  No kernel is computed.

    Finitely generated abelian groups are Hopfian: a surjection between
    two isomorphic ones is an isomorphism.  So ``is_isomorphism``
    compares the invariants of the two ends, which each group already
    holds, and then tests surjectivity.
    """

    __slots__ = ("source", "target", "matrix", "_canonical", "_image")

    def __init__(self, source: FGAbelianGroup, target: FGAbelianGroup, matrix: IntegerMatrix):
        if matrix.ncols != source.ngens or matrix.nrows != target.ngens:
            raise ValueError("hom matrix shape must be target.ngens x source.ngens")
        self.source = source
        self.target = target
        self.matrix = matrix
        self._image = None
        pushed = target._to * matrix
        relations = source.relations
        if relations.rows and not target._reduced(pushed * relations.transpose()).is_zero():
            raise ValueError("matrix does not carry source relations into target relations")
        self._canonical = target._reduced(pushed * source.lifts)

    @classmethod
    def identity(cls, group: FGAbelianGroup) -> "GroupHom":
        return cls(group, group, IntegerMatrix.identity(group.ngens))

    def canonical_matrix(self) -> IntegerMatrix:
        """Matrix in canonical coordinates (torsion rows reduced mod invariant)."""
        return self._canonical

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner; requires inner.target to be the same presentation."""
        if inner.target != self.source:
            raise ValueError("composition requires matching middle presentation")
        return GroupHom(inner.source, self.target, self.matrix * inner.matrix)

    def image_subgroup(self) -> "Subgroup":
        if self._image is None:
            self._image = Subgroup(self.target, self.canonical_matrix().transpose().rows)
        return self._image

    def is_injective(self) -> bool:
        """Whether the image has the source's free rank and torsion order.

        Equal free rank makes the kernel finite, so it lies in the
        source's torsion, and the image's torsion is that torsion modulo
        the kernel: equal torsion orders leave the kernel trivial.
        """
        source = self.source
        return self.image_subgroup()._rank_and_order() == (source.free_rank, prod(source.torsion))

    def is_surjective(self) -> bool:
        return self.image_subgroup().is_full()

    def is_isomorphism(self) -> bool:
        return self.source.invariants == self.target.invariants and self.is_surjective()

    def __repr__(self) -> str:
        return f"<GroupHom {self.source.describe()} -> {self.target.describe()}>"


class Subgroup:
    """Subgroup of an FGAbelianGroup given by canonical-coordinate generators.

    A subgroup is the lattice that its generators and the ambient
    relation vectors span in canonical coordinates, and it keeps that
    lattice's ``HermiteForm``, built on first use.  Membership reduces a
    vector against the form, A lies inside B when B's form reduces every
    generator of A, and equality is containment both ways: so if B is
    known to lie inside A, A equals B exactly when A lies inside B,
    which reads B's form alone.  Before B's form, containment looks for
    a strict drop mod p = 2 and 3: a generator of A whose residues in
    G/pG (the free coordinates and the torsion ones of order divisible
    by p) lie outside B's kept ``residue_basis`` proves A not inside B.
    The subgroup is full when its form is the identity, which is how a
    hom is tested for being onto, and so for being an isomorphism.

    The subgroup's type is read off the same form (Cohen, *A Course in
    Computational Algebraic Number Theory*, §2.4).  With G = Z^f + the
    Z/t_i, the form's rows are a basis of the lattice L; split them into
    A, pivots in the f free columns, and B, pivots in the torsion ones.
    B's rows vanish on the free columns and, the form being echelon,
    span the part of L that does, which holds every relation vector
    t_i * e_(f+i).  So the subgroup, L modulo the relation vectors, is
    Z^|A| plus span(B) modulo them: ``_rank_and_order`` gives |A| and the
    product of the t_i over that of B's pivots, which is how a hom is
    tested for being one-to-one, and ``as_group`` presents the subgroup
    on the form's rows, each relation vector divided by the form giving
    one relation.  No Smith decomposition is made here beyond the one
    ``as_group``'s own group makes of those relations.
    """

    __slots__ = ("group", "generators", "_hermite", "_as_group", "_residues", "_bases")

    def __init__(self, group: FGAbelianGroup, generators: Iterable[Sequence[int]]):
        self.group = group
        gens = []
        for g in generators:
            red = group.reduce_canonical(g)
            if any(red):
                gens.append(red)
        self.generators = tuple(gens)
        self._hermite = None
        self._as_group = None
        self._residues, self._bases = {}, {}

    @classmethod
    def full(cls, group: FGAbelianGroup) -> "Subgroup":
        return cls(group, group.canonical_generators())

    def _hermite_form(self) -> HermiteForm:
        """Hermite form of the generators followed by the relation vectors, as rows."""
        if self._hermite is None:
            group = self.group
            rows = self.generators + tuple(group.canonical_relation_columns())
            self._hermite = hermite_normal_form(IntegerMatrix._derived(rows, group.canonical_ngens))
        return self._hermite

    def _residue_rows(self, p: int) -> IntegerMatrix:
        """The generators' images in G/pG, one row each."""
        if p not in self._residues:
            f, torsion = self.group.free_rank, self.group.torsion
            columns = list(range(f)) + [f + k for k, t in enumerate(torsion) if t % p == 0]
            rows = tuple([tuple([g[j] % p for j in columns]) for g in self.generators])
            self._residues[p] = IntegerMatrix._derived(rows, len(columns))
        return self._residues[p]

    def _escapes_mod_p(self, other: "Subgroup") -> bool:
        """Whether a generator's residues mod 2 or 3 lie outside ``other``'s: then self is not inside."""
        for p in (2, 3):
            if p not in other._bases:
                other._bases[p] = residue_basis(other._residue_rows(p), p)
            if not other._bases[p].spans(self._residue_rows(p).rows):
                return True
        return False

    def _check_same_group(self, other: "Subgroup") -> None:
        if self.group is not other.group and self.group != other.group:
            raise ValueError("subgroups live in different groups")

    def is_subset_of(self, other: "Subgroup") -> bool:
        self._check_same_group(other)
        if self is other or not self.generators:
            return True
        if self._escapes_mod_p(other):
            return False
        form = other._hermite_form()
        return all(form.divide(g) is not None for g in self.generators)

    def equals(self, other: "Subgroup") -> bool:
        return self.is_subset_of(other) and other.is_subset_of(self)

    def is_trivial(self) -> bool:
        return not self.generators

    def is_full(self) -> bool:
        # n pivots in n columns sit on the diagonal; pivots of 1 leave
        # nothing above them, so the form is the identity
        n = self.group.canonical_ngens
        rows = self._hermite_form().form.rows if n else ()
        return len(rows) == n and all(row[i] == 1 for i, row in enumerate(rows))

    def _rank_and_order(self) -> tuple:
        """The subgroup's free rank and torsion order, read off its form's pivots."""
        if not self.generators:
            return 0, 1
        f, form = self.group.free_rank, self._hermite_form()
        torsion_pivots = [row[p] for p, row in zip(form.pivots, form.form.rows) if p >= f]
        order, rest = divmod(prod(self.group.torsion), prod(torsion_pivots))
        if rest:
            raise AssertionError("torsion pivots of a Hermite form do not divide the torsion order")
        return len(form.pivots) - len(torsion_pivots), order

    def as_group(self) -> FGAbelianGroup:
        """The subgroup itself as an abstract group on its form's rows (canonicalized)."""
        if self._as_group is None:
            form = self._hermite_form()
            relations = [form.divide(v) for v in self.group.canonical_relation_columns()]
            if None in relations:
                raise AssertionError("a relation vector lies outside the lattice of its Hermite form")
            r = form.form.nrows
            self._as_group = FGAbelianGroup(r, IntegerMatrix._derived(tuple(map(tuple, relations)), r))
        return self._as_group

    def __repr__(self) -> str:
        return f"<Subgroup of {self.group.describe()} with {len(self.generators)} generators>"
