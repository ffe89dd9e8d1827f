"""Independent answers for the benchmark's correctness gate.

Nothing here imports towertop.  Ranks come from fraction-free (Bareiss)
elimination and torsion products from the gcd of maximal minors, which
are different algorithms from the package's Smith normal form.  Lattice
comparisons reduce generators to an echelon basis with extended-gcd row
operations and then compare (rank, gcd of maximal minors): two nested
lattices are equal exactly when both numbers agree.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd


def bareiss_rank(rows) -> int:
    """Rank of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    if not a or not a[0]:
        return 0
    m, n = len(a), len(a[0])
    rank, prev = 0, 1
    for col in range(n):
        pivot = next((i for i in range(rank, m) if a[i][col] != 0), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][col]
        for i in range(rank + 1, m):
            for j in range(col + 1, n):
                a[i][j] = (p * a[i][j] - a[i][col] * a[rank][j]) // prev
            a[i][col] = 0
        prev = p
        rank += 1
        if rank == m:
            break
    return rank


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix by fraction-free elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev if n else 1


def minor_gcd(rows, k: int) -> int:
    """gcd of all k x k minors (1 for k = 0)."""
    if k == 0:
        return 1
    m, n = len(rows), len(rows[0])
    g = 0
    for rs in combinations(range(m), k):
        for cs in combinations(range(n), k):
            g = gcd(g, bareiss_det([[rows[i][j] for j in cs] for i in rs]))
            if g == 1:
                return 1
    return g


def group_invariants(ngens: int, relations) -> tuple:
    """(free rank, torsion product) of Z^ngens modulo the relation rows."""
    rows = [list(r) for r in relations if any(r)]
    if not rows:
        return ngens, 1
    r = bareiss_rank(rows)
    return ngens - r, minor_gcd(rows, r)


def echelon(vectors, n: int) -> list:
    """Row echelon basis of the lattice spanned by ``vectors`` in Z^n."""
    rows = [list(v) for v in vectors if any(v)]
    basis = []
    for col in range(n):
        live = [r for r in rows if r[col] != 0]
        rest = [r for r in rows if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            p = live[0]
            nxt = [p]
            for r in live[1:]:
                q = r[col] // p[col]
                r = [x - q * y for x, y in zip(r, p)]
                if any(r):
                    (nxt if r[col] != 0 else rest).append(r)
            live = nxt
        if live:
            basis.append(live[0])
        rows = rest
    return basis


def lattice_key(vectors, n: int) -> tuple:
    """(rank, gcd of maximal minors) of a lattice: equal for equal nested lattices."""
    basis = echelon(vectors, n)
    return len(basis), minor_gcd(basis, len(basis)) if basis else 1


def quotient_invariants(big, small, n: int) -> tuple:
    """(free rank, torsion product) of big / small for lattices small <= big in Z^n."""
    basis = echelon(big, n)
    pivots = [next(j for j, x in enumerate(b) if x != 0) for b in basis]
    coords = []
    for v in small:
        v = [Fraction(x) for x in v]
        c = []
        for b, j in zip(basis, pivots):
            q = v[j] / b[j]
            if q.denominator != 1:
                raise ValueError("lattice is not contained in the larger one")
            c.append(int(q))
            v = [x - q * y for x, y in zip(v, b)]
        if any(v):
            raise ValueError("lattice is not contained in the larger one")
        coords.append(c)
    return group_invariants(len(basis), coords)


def matmul(a, b) -> list:
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def columns(a) -> list:
    return [list(c) for c in zip(*a)]


def lebesgue(points, elements) -> Fraction:
    """Smallest over sample points of the best max-metric depth in a ball."""
    return min(
        max(r - max(abs(a - b) for a, b in zip(p, points[c])) for c, r in elements)
        for p in points
    )
