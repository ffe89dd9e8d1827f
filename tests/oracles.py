"""Independent oracles used to cross-check the exact linear algebra.

Apart from ``refactored_cycle_coordinates``,
``stacked_kernel_subgroup``, ``full_decomposition_coordinates`` and
``inline_simplex_order`` (which takes only the label order), nothing in
here imports the package under test.  The routines are deliberately different algorithms
from the ones being checked: fraction-free (Bareiss) elimination for
ranks and determinants, and gcd-of-minors determinantal divisors for
invariant factors.  They are exponential or cubic in places, meant for
small matrices only.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd


def dense_product(a_rows, b_rows, ncols: int):
    """Textbook product of two integer matrices, every entry multiplied.

    ``ncols`` is the width of the right factor, needed when it has no
    rows.  The left factor's width must equal the right factor's height.
    """
    a = [list(map(int, r)) for r in a_rows]
    b = [list(map(int, r)) for r in b_rows]
    assert all(len(r) == len(b) for r in a)
    return [[sum(r[t] * b[t][j] for t in range(len(b))) for j in range(ncols)] for r in a]


def dense_matvec(a_rows, x):
    """Textbook matrix-vector product, every entry multiplied."""
    return [sum(int(r[t]) * int(x[t]) for t in range(len(x))) for r in a_rows]


def bareiss_rank(rows) -> int:
    """Rank over the integers by fraction-free elimination."""
    a = [list(map(int, r)) for r in rows]
    if not a or not a[0]:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    prev = 1
    row = 0
    for col in range(n):
        pivot_row = None
        for i in range(row, m):
            if a[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        a[row], a[pivot_row] = a[pivot_row], a[row]
        for i in range(row + 1, m):
            for j in range(col + 1, n):
                a[i][j] = (a[row][col] * a[i][j] - a[i][col] * a[row][j]) // prev
            a[i][col] = 0
        prev = a[row][col]
        row += 1
        rank += 1
        if row == m:
            break
    return rank


def bareiss_det(rows) -> int:
    """Determinant of a square integer matrix, fraction-free."""
    a = [list(map(int, r)) for r in rows]
    n = len(a)
    if n == 0:
        return 1
    assert all(len(r) == n for r in a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pivot = None
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    pivot = i
                    break
            if pivot is None:
                return 0
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def minor_gcd(rows, k: int) -> int:
    """gcd of all k x k minors (0 when every minor vanishes)."""
    a = [list(map(int, r)) for r in rows]
    m = len(a)
    n = len(a[0]) if a else 0
    if k == 0:
        return 1
    if k > m or k > n:
        return 0
    g = 0
    for rsel in combinations(range(m), k):
        for csel in combinations(range(n), k):
            sub = [[a[i][j] for j in csel] for i in rsel]
            g = gcd(g, abs(bareiss_det(sub)))
    return g


def determinantal_invariant_factors(rows):
    """Invariant factors via ratios of determinantal divisors.

    d_k(M) = gcd of k x k minors; the k-th invariant factor equals
    d_k / d_{k-1}.  Exponential in matrix size; keep matrices small.
    """
    a = [list(map(int, r)) for r in rows]
    factors = []
    previous = 1
    k = 1
    while True:
        g = minor_gcd(a, k)
        if g == 0:
            break
        factors.append(g // previous)
        previous = g
        k += 1
    return factors


def mod_p_rank(rows, p: int) -> int:
    """Rank of the matrix over the field F_p (Gaussian elimination)."""
    a = [[int(x) % p for x in r] for r in rows]
    if not a or not a[0]:
        return 0
    m, n = len(a), len(a[0])
    rank = 0
    row = 0
    for col in range(n):
        pivot = None
        for i in range(row, m):
            if a[i][col] % p != 0:
                pivot = i
                break
        if pivot is None:
            continue
        a[row], a[pivot] = a[pivot], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(x * inv) % p for x in a[row]]
        for i in range(m):
            if i != row and a[i][col]:
                f = a[i][col]
                a[i] = [(x - f * y) % p for x, y in zip(a[i], a[row])]
        row += 1
        rank += 1
        if row == m:
            break
    return rank


def betti_from_boundaries(d_n, d_np1, n_chain_rank: int) -> int:
    """Free rank of homology at a spot from two boundary matrices.

    n_chain_rank is the number of n-simplexes; d_n maps n-chains down,
    d_np1 maps (n+1)-chains in.  betti = dim ker d_n - rank d_np1.
    """
    return (n_chain_rank - bareiss_rank(d_n)) - bareiss_rank(d_np1)


def refactored_cycle_coordinates(cycle_columns, chain):
    """Coordinates of ``chain`` over ``cycle_columns`` from their own factorization.

    The reference for ``HomologyResult.cycle_coordinates``, which reads
    them off the outgoing map's decomposition instead: here the cycle
    matrix gets a Smith decomposition of its own and the chain is solved
    against it.  The columns are independent, so a solution is the unique
    coordinate vector; None when the chain is outside their span.
    """
    from towertop.abelian import IntegerMatrix, smith_normal_form, solve

    cycles = IntegerMatrix.from_columns(cycle_columns, nrows=len(chain))
    return solve(smith_normal_form(cycles), chain)


def stacked_kernel_subgroup(hom):
    """Kernel of ``hom`` from a factorization of its own stacked matrix.

    The reference for ``GroupHom.kernel_subgroup``, which reads the
    kernel off the factorization its image subgroup keeps instead: here
    [canonical matrix | target relation columns] gets a Smith
    decomposition of its own, the kernel columns cut to their first
    part are kernel members, and so are the source's torsion relations.
    """
    from towertop.abelian import IntegerMatrix, Subgroup, kernel_basis, smith_normal_form

    rel_cols = hom.target.canonical_relation_columns()
    stacked = hom.canonical_matrix().hstack(
        IntegerMatrix.from_columns(rel_cols, nrows=hom.target.canonical_ngens)
    )
    n = hom.source.canonical_ngens
    gens = [tuple(col[:n]) for col in kernel_basis(smith_normal_form(stacked))]
    return Subgroup(hom.source, gens + hom.source.canonical_relation_columns())


def full_decomposition_coordinates(relations):
    """Canonical coordinate maps of a presentation from a whole fresh factorization.

    The reference for ``FGAbelianGroup.to_canonical`` and
    ``from_canonical``, which keep only the rows of U and the columns of
    U^-1 they read: here relations^T gets a Smith decomposition of its
    own, every position is looked up in the diagonal (free from the rank
    on, torsion below it where the entry exceeds 1), and U and U^-1
    multiply in full.  Returns the pair (to_canonical, from_canonical).
    """
    from towertop.abelian import smith_normal_form

    snf = smith_normal_form(relations.transpose())
    diag, rank, ngens = snf.diagonal(), snf.rank, relations.ncols
    torsion_positions = [i for i in range(rank) if diag[i] > 1]
    positions = list(range(rank, ngens)) + torsion_positions

    def to_canonical(x):
        y = dense_matvec(snf.u.rows, x)
        return tuple(y[i] % diag[i] if i < rank else y[i] for i in positions)

    def from_canonical(c):
        lifted = [0] * ngens
        for k, i in enumerate(positions):
            lifted[i] = c[k]
        return tuple(dense_matvec(snf.uinv.rows, lifted))

    return to_canonical, from_canonical


def inline_simplex_order(simplexes) -> list:
    """Simplexes sorted by size, then by their labels' keys in turn.

    The reference for ``SimplicialComplex.ordered`` and ``simplex_key``:
    the sort the validators, the complex validator and the document
    encoder each once wrote out for themselves.
    """
    from towertop.simplicial import label_key

    return sorted(simplexes, key=lambda s: (len(s), tuple(label_key(v) for v in s)))


def maximal_simplexes(simplexes) -> set:
    """Simplexes whose vertex set is a proper subset of no other simplex's.

    The reference for the document encoder, which drops every facet of
    another simplex instead and so relies on the complex being closed
    under faces.  Quadratic in the number of simplexes.
    """
    return {s for s in simplexes if not any(set(s) < set(t) for t in simplexes)}
