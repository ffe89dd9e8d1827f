"""Independent oracles used to cross-check the exact linear algebra.

Apart from ``dense_homology`` (which presents its group with the
package's ``FGAbelianGroup``), the Smith-based subgroup routines, the
composite-hom image routines (``image_under`` and the ``composed_*``
references for tower analyses), ``restricted_hom`` and
``restricted_stable_lim``, ``from_canonical_matrix``, the ``both_forms_*``
references for image-chain repeats and ``contains``,
``stacked_kernel_subgroup``, ``full_decomposition_coordinates``,
``inline_simplex_order`` and ``inline_chain_map_rows`` (which take only
the label order), ``chain_map_matrix``, ``augmentation_matrix`` and the
two-closure telescopes, nothing in here imports the package under test.
The routines are deliberately different algorithms from the ones being
checked: fraction-free (Bareiss) elimination for ranks and determinants,
gcd-of-minors determinantal divisors for invariant factors, and nerves,
Lebesgue numbers and containment projections read off every subset of a
cover.  They are exponential or cubic in places, meant for small inputs
only.
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


def dense_smith_normal_form(rows, ncols: int):
    """Smith normal form by dense elimination: the rows of U, U^-1, D, V, V^-1.

    The reference for ``smith_normal_form``, which performs the same
    elementary operations in the same order but does not track V^-1,
    stores U^-1 and V by columns and touches only nonzero entries:
    here all four transforms are tracked, every matrix is
    stored by rows and every row and column operation walks every
    entry.  Pivots are the first entry of least absolute value in
    row-major order, remainders are balanced, a row that breaks the
    divisibility chain is added to the pivot row, and negative
    diagonal entries are flipped last, so the factors must agree entry
    for entry.  ``ncols`` is the width, needed when there are no rows.
    """
    a = [list(map(int, r)) for r in rows]
    m, n = len(a), ncols
    assert all(len(r) == n for r in a)
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    uinv = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    vinv = [[int(i == j) for j in range(n)] for i in range(n)]

    def quotient(x, p):
        q, r = divmod(x, p)
        return q + 1 if 2 * abs(r) > abs(p) else q

    def swap_rows(i, k):
        for mat in (a, u):
            mat[i], mat[k] = mat[k], mat[i]
        for row in uinv:
            row[i], row[k] = row[k], row[i]

    def add_row(i, k, q):
        for mat in (a, u):
            mat[i] = [x + q * y for x, y in zip(mat[i], mat[k])]
        for row in uinv:
            row[k] -= q * row[i]

    def swap_cols(j, k):
        for mat in (a, v):
            for row in mat:
                row[j], row[k] = row[k], row[j]
        vinv[j], vinv[k] = vinv[k], vinv[j]

    def add_col(j, k, q):
        for mat in (a, v):
            for row in mat:
                row[j] += q * row[k]
        vinv[k] = [x - q * y for x, y in zip(vinv[k], vinv[j])]

    def min_entry(t):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        return best

    def move_pivot(t, spot):
        if spot[0] != t:
            swap_rows(t, spot[0])
        if spot[1] != t:
            swap_cols(t, spot[1])

    t = 0
    while t < min(m, n):
        spot = min_entry(t)
        if spot is None:
            break
        move_pivot(t, spot)
        while True:
            for i in range(t + 1, m):
                if a[i][t] != 0:
                    add_row(i, t, -quotient(a[i][t], a[t][t]))
            for j in range(t + 1, n):
                if a[t][j] != 0:
                    add_col(j, t, -quotient(a[t][j], a[t][t]))
            spot = min_entry(t)
            if spot is not None and abs(a[spot[0]][spot[1]]) < abs(a[t][t]):
                move_pivot(t, spot)
                continue
            offender = next(
                (i for i in range(t + 1, m) for j in range(t + 1, n) if a[i][j] % a[t][t]), None
            )
            if offender is None:
                break
            add_row(t, offender, 1)
        t += 1

    for i in range(min(m, n)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
            for row in uinv:
                row[i] = -row[i]
    return u, uinv, a, v, vinv


def _dense_shapes_hold(factors, shapes) -> bool:
    return all(
        len(factor) == height and all(len(row) == width for row in factor)
        for factor, (height, width) in zip(factors, shapes)
    )


def _dense_diagonal_holds(d, m: int, n: int) -> bool:
    """Whether ``d`` is diagonal with nonnegative entries, zeros trailing and each entry dividing the next."""
    if any(d[i][j] for i in range(m) for j in range(n) if i != j):
        return False
    diag = [d[i][i] for i in range(min(m, n))]
    return all(x >= 0 for x in diag) and all(
        (nxt == 0) if x == 0 else nxt % x == 0 for x, nxt in zip(diag, diag[1:])
    )


def _identity(k: int):
    return [[int(i == j) for j in range(k)] for i in range(k)]


def dense_decomposition_holds(matrix, u, uinv, d, v, vinv, ncols: int) -> bool:
    """Whether the row lists form a whole Smith decomposition of ``matrix``, by dense products.

    The four-factor check, which no caller of ``smith_normal_form``
    needs: here the shapes are compared, V * V^-1, U * M * V and
    U * U^-1 are multiplied out in full, and D must be diagonal with
    nonnegative entries, zeros trailing and each entry dividing the
    next.  A decomposition's factors must pass it together with the
    V^-1 of ``dense_smith_normal_form``.  ``ncols`` is the width of
    ``matrix``.
    """
    m, n = len(matrix), ncols
    if not _dense_shapes_hold((u, uinv, d, v, vinv), ((m, m), (m, m), (m, n), (n, n), (n, n))):
        return False
    if dense_product(v, vinv, n) != _identity(n) or dense_product(u, uinv, m) != _identity(m):
        return False
    if dense_product(dense_product(u, matrix, n), v, n) != [list(row) for row in d]:
        return False
    return _dense_diagonal_holds(d, m, n)


def dense_kept_decomposition_holds(matrix, u, uinv, d, v, ncols: int) -> bool:
    """Whether the row lists pass the check of a decomposition keeping U^-1, by dense products.

    The reference for ``SmithDecomposition``'s construction check,
    which reads only nonzero entries, one product row at a time, and
    skips the rows of U * M that a unit d_i makes divisible: here every
    product is multiplied out in full, and with r the number of nonzero
    d_i, U * U^-1 = I, row i of U * M is divisible by d_i (zero where
    d_i = 0 or i >= min(m, n)), column j of M * V is d_j times column j
    of U^-1 for j < r, and D must pass the diagonal conditions of
    ``dense_decomposition_holds``.
    """
    m, n = len(matrix), ncols
    if not _dense_shapes_hold((u, uinv, d, v), ((m, m), (m, m), (m, n), (n, n))):
        return False
    diag = [d[i][i] for i in range(min(m, n))] + [0] * (m - min(m, n))
    r = sum(1 for x in diag if x)
    um, mv = dense_product(u, matrix, n), dense_product(matrix, v, n)
    if dense_product(u, uinv, m) != _identity(m):
        return False
    if any(any(x % di for x in row) if di else any(row) for row, di in zip(um, diag)):
        return False
    if any(mv[i][j] != diag[j] * uinv[i][j] for i in range(m) for j in range(r)):
        return False
    return _dense_diagonal_holds(d, m, n)


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


def gauss_jordan_nullspace(rows, p: int) -> list:
    """Basis of the vectors v with rows · v = 0 over Z/p, by its own Gauss-Jordan elimination.

    The reference for ``polynomial._nullspace``, which reads the reduced
    echelon basis off the pivot-1 rows of the Hermite form of the rows
    stacked over p·I instead: here the rows are
    reduced mod p, each column in turn takes the first unused row with
    a nonzero entry as its pivot, which is scaled to 1 and cleared from
    every other row, and each free column f gives v[f] = 1 and minus the
    pivot rows' entries in column f.  A reduced echelon form is unique,
    so the two bases agree vector for vector.
    """
    rows, pivots = [[x % p for x in row] for row in rows], []
    for c in range(len(rows[0])):
        k = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        r = len(pivots)
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [(x - row[c] * y) % p for x, y in zip(row, rows[r])]
        pivots.append(c)
    basis = []
    for free in (c for c in range(len(rows[0])) if c not in pivots):
        v = [0] * len(rows[0])
        v[free] = 1
        for r, c in enumerate(pivots):
            v[c] = -rows[r][free] % p
        basis.append(v)
    return basis


def betti_from_boundaries(d_n, d_np1, n_chain_rank: int) -> int:
    """Free rank of homology at a spot from two boundary matrices.

    n_chain_rank is the number of n-simplexes; d_n maps n-chains down,
    d_np1 maps (n+1)-chains in.  betti = dim ker d_n - rank d_np1.
    """
    return (n_chain_rank - bareiss_rank(d_n)) - bareiss_rank(d_np1)


def dense_homology(outgoing, incoming):
    """H_n by the dense path: (group, cycle columns, coordinates of a chain over them).

    The reference for ``simplicial.homology``, which reduces the complex
    first and factors only what is left: here the whole outgoing map M
    gets the dense Smith decomposition U * M * V = D with V and V^-1
    (``dense_smith_normal_form``), V's columns from the rank on are the
    cycle basis, a chain's coordinates are V^-1 times it from the rank
    on (None when the entries above the rank are not all zero), and the
    group is presented on the cycle basis by the coordinates of the
    incoming map's columns.
    """
    from towertop.abelian import FGAbelianGroup, IntegerMatrix

    _, _, d, v, vinv = dense_smith_normal_form(outgoing.rows, outgoing.ncols)
    rank = sum(1 for i in range(min(outgoing.nrows, outgoing.ncols)) if d[i][i])
    cycles = [tuple(row[j] for row in v) for j in range(rank, outgoing.ncols)]

    def coordinates(chain):
        y = dense_matvec(vinv, chain)
        return None if any(y[:rank]) else tuple(y[rank:])

    relations = [coordinates(col) for col in incoming.transpose().rows]
    assert None not in relations, "a boundary is not a cycle"
    return FGAbelianGroup(len(cycles), IntegerMatrix(relations, ncols=len(cycles))), cycles, coordinates


def integer_span(columns, height: int):
    """The test b -> whether b is an integer combination of ``columns`` (vectors of ``height``).

    The reference for the class coordinates of a homology result: a
    chain minus the lift of its coordinates must be a boundary, an
    integer combination of the incoming map's columns.  The columns get
    one dense Smith form U * A * V = D, and A x = b is solvable exactly
    when each entry of U * b is divisible by its diagonal entry (zero
    past the rank).
    """
    rows = [[col[i] for col in columns] for i in range(height)]
    u, _, d, _, _ = dense_smith_normal_form(rows, len(columns))
    diag = [d[i][i] if i < len(columns) else 0 for i in range(height)]

    def contains(b) -> bool:
        return all((c % di if di else c) == 0 for c, di in zip(dense_matvec(u, b), diag))

    return contains


# -- subgroups by Smith decomposition -----------------------------------------
#
# The package decides subgroup questions with a Hermite normal form.  These
# routines decide them the earlier way, through a Smith decomposition
# U * M * V = D of M = [generators | relation columns]: M x = b is solvable
# exactly when D w = U b is, and then x = V w; V's columns from the rank on
# are a basis of M's integer kernel, read off the dense elimination, which
# performs the same operations as ``smith_normal_form``.


def _smith_diagonal_solution(snf, b):
    """The w with D * w = U * b, or None when it is not integral."""
    c = dense_matvec(snf.u.rows, b)
    diag = snf.diagonal()
    w = [0] * snf.matrix.ncols
    for i, ci in enumerate(c):
        di = diag[i] if i < len(diag) else 0
        if di == 0:
            if ci != 0:
                return None
        else:
            if ci % di != 0:
                return None
            w[i] = ci // di
    return w


def smith_solve(snf, b):
    """One integer solution x of snf.matrix * x = b, or None when unsolvable."""
    w = _smith_diagonal_solution(snf, b)
    return None if w is None else tuple(dense_matvec(snf.v.rows, w))


def smith_kernel_basis(matrix) -> list:
    """V's columns from the rank on, of the dense Smith form of ``matrix``: a basis of its integer kernel."""
    _, _, d, v, _ = dense_smith_normal_form(matrix.rows, matrix.ncols)
    rank = sum(1 for i in range(min(matrix.nrows, matrix.ncols)) if d[i][i])
    return [tuple(row[j] for row in v) for j in range(rank, matrix.ncols)]


def _subgroup_stack(sub):
    """[generators | relation columns] of a subgroup."""
    from towertop.abelian import IntegerMatrix

    cols = list(sub.generators) + sub.group.canonical_relation_columns()
    return IntegerMatrix(cols, ncols=sub.group.canonical_ngens).transpose()


def smith_subgroup_solver(sub):
    """Smith decomposition of [generators | relation columns] of a subgroup."""
    from towertop.abelian import smith_normal_form

    return smith_normal_form(_subgroup_stack(sub))


def smith_contains(sub, y) -> bool:
    """Whether canonical coordinates ``y`` lie in the subgroup ``sub``."""
    y = sub.group.reduce_canonical(y)
    return not any(y) or _smith_diagonal_solution(smith_subgroup_solver(sub), y) is not None


def smith_coordinates(sub, y):
    """``y`` over the subgroup's generators, solved through its Smith decomposition, or None."""
    y = sub.group.reduce_canonical(y)
    k = len(sub.generators)
    if not any(y):
        return (0,) * k
    x = smith_solve(smith_subgroup_solver(sub), y)
    return None if x is None else tuple(x[:k])


def smith_is_subset(a, b) -> bool:
    """Whether every generator of ``a`` lies in ``b``."""
    return all(smith_contains(b, g) for g in a.generators)


def smith_is_full(sub) -> bool:
    """Whether every canonical generator lies in ``sub``."""
    return all(smith_contains(sub, e) for e in sub.group.canonical_generators())


def smith_subgroup_group(sub):
    """``sub`` as a group presented on its generators, the relations among them read off V."""
    from towertop.abelian import FGAbelianGroup, IntegerMatrix

    k = len(sub.generators)
    rows = [col[:k] for col in smith_kernel_basis(_subgroup_stack(sub))]
    return FGAbelianGroup(k, IntegerMatrix(rows, ncols=k))


def smith_as_group_invariants(sub) -> tuple:
    """Invariants of ``sub`` presented on its generators by ``smith_subgroup_group``."""
    return smith_subgroup_group(sub).invariants


def smith_kernel_subgroup(hom):
    """Kernel of ``hom`` read off the Smith decomposition of its image's solver.

    The image subgroup's generators are the nonzero canonical columns;
    the first parts of its solver's kernel columns, scattered back to
    those positions, with a unit vector per zero column and the source
    torsion relations, generate the kernel.
    """
    from towertop.abelian import Subgroup

    n = hom.source.canonical_ngens
    columns = hom.canonical_matrix().transpose().rows
    nonzero = [j for j in range(n) if any(columns[j])]
    gens = [_unit(n, j) for j in range(n) if not any(columns[j])]
    if nonzero:
        for col in smith_kernel_basis(_subgroup_stack(hom.image_subgroup())):
            g = [0] * n
            for j, c in zip(nonzero, col):
                g[j] = c
            gens.append(g)
    return Subgroup(hom.source, gens + hom.source.canonical_relation_columns())


def stacked_kernel_subgroup(hom):
    """Kernel of ``hom`` from a factorization of its own stacked matrix.

    The reference for ``GroupHom.is_injective``, which computes no
    kernel but compares the free rank and torsion order of the image
    with the source's: here [canonical matrix | target relation columns]
    gets a Smith decomposition of its own, the kernel columns cut to
    their first part are kernel members, and so are the source's
    torsion relations.
    """
    from towertop.abelian import IntegerMatrix, Subgroup

    rel_cols = hom.target.canonical_relation_columns()
    n = hom.source.canonical_ngens
    rows = [row + tuple(col[i] for col in rel_cols) for i, row in enumerate(hom.canonical_matrix().rows)]
    stacked = IntegerMatrix(rows, ncols=n + len(rel_cols))
    gens = [tuple(col[:n]) for col in smith_kernel_basis(stacked)]
    return Subgroup(hom.source, gens + hom.source.canonical_relation_columns())


def full_decomposition_coordinates(relations):
    """Canonical coordinate maps of a presentation from a whole fresh factorization.

    The reference for the coordinate maps of ``FGAbelianGroup``, which
    keeps only the rows of U and the columns of U^-1 they read (and
    which ``to_canonical`` and ``from_canonical`` below apply): here
    relations^T gets a Smith decomposition of its own, every position is
    looked up in the diagonal (free from the rank on, torsion below it
    where the entry exceeds 1), and U and U^-1 multiply in full.  Returns the pair (to_canonical, from_canonical).
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


# -- coordinate changes one vector at a time ---------------------------------


def _unit(n: int, j: int) -> tuple:
    return tuple(int(i == j) for i in range(n))


def to_canonical(group, x) -> tuple:
    """Canonical coordinates of presentation vector ``x``, one textbook product.

    Reads the rows of U that ``group`` keeps, which its homs multiply as
    a whole matrix, and reduces the torsion entries.
    """
    assert len(x) == group.ngens, "element length must equal generator count"
    y = dense_matvec(group._to.rows, x)
    f = group.free_rank
    return tuple(y[:f]) + tuple(c % t for c, t in zip(y[f:], group.torsion))


def from_canonical(group, y) -> tuple:
    """One presentation vector of canonical coordinates ``y``: the group's lifts times y."""
    assert len(y) == group.canonical_ngens, "canonical length mismatch"
    return tuple(dense_matvec(group.lifts.rows, y))


def canonical_is_zero(group, y) -> bool:
    """Whether canonical coordinates ``y`` name the zero element."""
    return not any(group.reduce_canonical(y))


def apply_canonical(hom, y) -> tuple:
    """Image under ``hom`` of canonical coordinates ``y``, one textbook product, reduced."""
    return hom.target.reduce_canonical(dense_matvec(hom.canonical_matrix().rows, y))


def equal_hom(f, g) -> bool:
    """Whether two homs between identically presented groups agree on elements."""
    same_ends = f.source == g.source and f.target == g.target
    return same_ends and f.canonical_matrix() == g.canonical_matrix()


def image_under(sub, hom):
    """The image of subgroup ``sub`` under ``hom``: its generator rows times the
    transposed canonical matrix of ``hom``, one product."""
    from towertop.abelian import IntegerMatrix, Subgroup

    assert hom.source == sub.group, "hom source does not match subgroup ambient group"
    gens = IntegerMatrix._derived(sub.generators, sub.group.canonical_ngens)
    return Subgroup(hom.target, (gens * hom.canonical_matrix().transpose()).rows)


def composed_image_chain(tower, level: int, depth: int) -> list:
    """Generator tuples of the images of 0..depth bonds below ``level``, by composite homs.

    The reference for ``tower._image_chain``: each composite is a
    ``GroupHom`` that ``compose`` builds from the bonds' presentation
    matrices, so its constructor checks it, and each image is read off
    the composite's own canonical matrix.
    """
    from towertop.abelian import Subgroup

    chain = [Subgroup.full(tower.levels[level]).generators]
    composite = None
    for bond in tower.bonds[level : level + depth]:
        composite = bond if composite is None else composite.compose(bond)
        chain.append(composite.image_subgroup().generators)
    return chain


def composed_endo_images(endo, count: int) -> list:
    """Generator tuples of the images of ``endo``, ``endo``², …, ``endo``^count, by composite homs.

    The reference for the image chain of ``endo``'s constant tower,
    which ``tower._stable_endo_image`` reads: each power is
    ``endo.compose`` of the previous one.
    """
    images, power = [], endo
    for _ in range(count):
        images.append(power.image_subgroup().generators)
        power = endo.compose(power)
    return images


def composed_carry_down(tower, level: int, base: int, sub):
    """The image in ``level`` of a subgroup of level ``base`` under the bonds between them.

    The reference for the carry-down in ``tower._periodic_stable_image``:
    the bonds ``compose`` into one hom, which ``image_under`` applies.
    """
    down = tower.bonds[level]
    for bond in tower.bonds[level + 1 : base]:
        down = down.compose(bond)
    return image_under(sub, down)


def restricted_hom(bond, fine, coarse):
    """``bond`` restricted to the subgroups ``fine`` -> ``coarse``, on their generators, or None.

    Each generator of ``fine`` is pushed through the bond's canonical
    matrix and written over the generators of ``coarse`` by
    ``smith_coordinates``; None when an image lies outside ``coarse``.
    The hom runs between the groups ``smith_subgroup_group`` presents on
    the two subgroups' generators in order, and its constructor checks it.
    """
    from towertop.abelian import GroupHom, IntegerMatrix

    cols = []
    for g in fine.generators:
        c = smith_coordinates(coarse, apply_canonical(bond, g))
        if c is None:
            return None
        cols.append(c)
    matrix = IntegerMatrix(cols, ncols=len(coarse.generators)).transpose()
    return GroupHom(smith_subgroup_group(fine), smith_subgroup_group(coarse), matrix)


def restricted_stable_lim(tower, window=None):
    """Invariants of ``tower.stable_lim``, or the reason it is not stable, by restricted homs.

    The reference for ``stable_lim``, which compares the invariants of
    two stable images and tests that the bond carries the finer onto
    the coarser: here the image chains come from ``composed_image_chain``,
    their first repeats from Smith containment of an image in the next
    one, and each bond is restricted to the stable images by
    ``restricted_hom`` and must have a trivial ``smith_kernel_subgroup``
    and a full image by ``smith_is_full`` there.
    """
    from towertop.abelian import Subgroup

    n = len(tower.levels)
    if n == 1:
        return tower.levels[0].invariants
    stable = []
    for i in range(n - 1):
        available = len(tower.bonds) - i
        w = available if window is None else min(window, available)
        subs = [Subgroup(tower.levels[i], gens) for gens in composed_image_chain(tower, i, w)]
        # images descend, so an image inside the next one equals it
        idx = next((k for k in range(w) if smith_is_subset(subs[k], subs[k + 1])), None)
        if idx is None:
            if len(subs) >= 3:
                return f"image chain at level {i} does not repeat within the window"
            idx = len(subs) - 1
        stable.append(subs[idx])
    for i in range(len(stable) - 1):
        h = restricted_hom(tower.bonds[i], stable[i + 1], stable[i])
        if h is None or not (smith_kernel_subgroup(h).is_trivial() and smith_is_full(h.image_subgroup())):
            return (
                f"the bond does not carry the stable image at level {i + 1} "
                f"isomorphically onto the stable image at level {i}"
            )
    return smith_as_group_invariants(stable[0])


def columnwise_canonical_matrix(hom) -> list:
    """Columns of ``hom``'s canonical matrix, one canonical unit vector at a time.

    The reference for ``GroupHom.canonical_matrix``, which multiplies
    whole matrices instead: here each source canonical generator is
    lifted by ``from_canonical``, pushed through the hom's matrix by a
    textbook matrix-vector product and read back by ``to_canonical``.
    """
    source, target = hom.source, hom.target
    n = source.canonical_ngens
    lifts = [from_canonical(source, _unit(n, j)) for j in range(n)]
    return [to_canonical(target, dense_matvec(hom.matrix.rows, x)) for x in lifts]


def columnwise_from_canonical(source, target, canonical) -> list:
    """Columns of the presentation matrix of a canonical-coordinate hom, one generator at a time.

    The reference for ``from_canonical_matrix``: each source
    presentation generator is read in canonical coordinates, pushed
    through ``canonical``, reduced and lifted back to the target's
    presentation.
    """
    coordinates = [to_canonical(source, _unit(source.ngens, j)) for j in range(source.ngens)]
    return [
        from_canonical(target, target.reduce_canonical(dense_matvec(canonical.rows, y)))
        for y in coordinates
    ]


def from_canonical_matrix(source, target, canonical):
    """The hom given by ``canonical`` in canonical coordinates on both sides, by whole-matrix products.

    Tests build homs this way; the library has no caller.  Column j of
    the source's reduced coordinate map is source generator j in
    canonical coordinates: it is pushed through ``canonical``, reduced,
    and lifted by the target's ``lifts``.
    """
    from towertop.abelian import GroupHom

    if canonical.ncols != source.canonical_ngens or canonical.nrows != target.canonical_ngens:
        raise ValueError("canonical matrix shape mismatch")
    images = target._reduced(canonical * source._reduced(source._to))
    return GroupHom(source, target, target.lifts * images)


def contains(sub, y) -> bool:
    """Whether canonical coordinates ``y`` lie in the subgroup ``sub``, by dividing by its Hermite form.

    The library asks containment of whole subgroups (``is_subset_of``);
    tests ask it of single vectors, against ``smith_contains``.
    """
    y = sub.group.reduce_canonical(y)
    return not any(y) or sub._hermite_form().divide(y) is not None


def lattice_form(sub) -> tuple:
    """Rows of a fresh Hermite form of the lattice of ``sub``'s generators and relation vectors."""
    from towertop.abelian import IntegerMatrix, hermite_normal_form

    rows = list(sub.generators) + sub.group.canonical_relation_columns()
    return hermite_normal_form(IntegerMatrix(rows, ncols=sub.group.canonical_ngens)).form.rows


def both_forms_equal(a, b) -> bool:
    """Whether subgroups ``a`` and ``b`` are equal, by building and comparing both Hermite forms.

    The reference for ``Subgroup.equals`` and for the descent test of
    ``tower._first_repeat``, which look for a strict drop mod 2
    before they read a form, and read fewer forms.
    """
    return lattice_form(a) == lattice_form(b)


def both_forms_first_repeat(subs):
    """First index k with ``subs[k]`` equal to ``subs[k + 1]`` by ``both_forms_equal``, or None."""
    return next((k for k in range(len(subs) - 1) if both_forms_equal(subs[k], subs[k + 1])), None)


def both_forms_stable_endo_image(endo, bound: int) -> tuple:
    """Generators of the last image of iterated ``endo`` and whether the images repeated.

    The reference for ``tower._stable_endo_image``: the powers are
    composite homs (``composed_endo_images``) and two images are
    compared by ``both_forms_equal``.
    """
    from towertop.abelian import Subgroup

    prev = Subgroup.full(endo.source)
    for gens in composed_endo_images(endo, bound):
        cur = Subgroup(endo.source, gens)
        if both_forms_equal(cur, prev):
            return prev.generators, True
        prev = cur
    return prev.generators, False


def relationwise_well_defined(source, target, matrix) -> bool:
    """Whether ``matrix`` carries every source relation, one at a time, to zero in ``target``.

    The reference for ``GroupHom``'s construction check, which tests all
    relations with one product.
    """
    return not any(
        any(to_canonical(target, dense_matvec(matrix.rows, r))) for r in source.relations.rows
    )


def axpy_representatives(group, cycle_columns, basis) -> list:
    """Each canonical generator of ``group`` as a chain, summed one cycle column at a time.

    The reference for the representatives of a homology result, which
    come from one product of the lifts with the cycle rows: here the
    lift of every canonical generator scales and adds the cycle columns
    in turn.  Returns one map simplex -> nonzero coefficient per
    generator.
    """
    reps = []
    for j in range(group.canonical_ngens):
        coeffs = [0] * len(basis)
        for g, col in zip(from_canonical(group, _unit(group.canonical_ngens, j)), cycle_columns):
            coeffs = [c + g * x for c, x in zip(coeffs, col)]
        reps.append({s: c for s, c in zip(basis, coeffs) if c})
    return reps


def matvec_induced_columns(source, target, chain_matrix) -> list:
    """Columns of an induced hom's matrix, one source cycle pushed at a time.

    The reference for ``simplicial._induced_between``, which pushes all
    cycles with one product: here each source cycle column goes through
    the chain map ``chain_matrix`` (one row per target chain basis
    element) by a textbook matrix-vector product and is written over
    the target's cycle basis.
    """
    cols = []
    for col in source.cycle_columns:
        coords = target.cycle_coordinates(dense_matvec(chain_matrix, col))
        assert coords is not None, "image of a cycle is not a cycle"
        cols.append(coords)
    return cols


def inline_simplex_order(simplexes) -> list:
    """Simplexes sorted by size, then by their labels' keys in turn.

    The reference for ``SimplicialComplex.ordered`` and ``simplex_key``:
    the sort the validators, the complex validator and the document
    encoder each once wrote out for themselves.
    """
    from towertop.simplicial import label_key

    return sorted(simplexes, key=lambda s: (len(s), tuple(label_key(v) for v in s)))


def inline_chain_map_rows(source_simplexes, target_simplexes, vertex_map, n: int) -> tuple:
    """Rows of the chain map C_n(source) -> C_n(target), every order read from ``label_key``.

    The reference for ``simplicial._chain_columns`` (read whole by
    ``chain_map_matrix``), which orders by the vertex ranks each complex
    keeps instead: both bases in the inline simplex
    order, a simplex whose image repeats a vertex maps to zero, and
    otherwise the sign is the parity of the permutation that sorts the
    image vertices by their keys.
    """
    from towertop.simplicial import label_key

    src = [s for s in inline_simplex_order(source_simplexes) if len(s) == n + 1]
    tgt = [t for t in inline_simplex_order(target_simplexes) if len(t) == n + 1]
    index = {t: i for i, t in enumerate(tgt)}
    rows = [[0] * len(src) for _ in tgt]
    for j, s in enumerate(src):
        images = [vertex_map[v] for v in s]
        if len(set(images)) < len(images):
            continue
        order = sorted(range(len(images)), key=lambda i: label_key(images[i]))
        inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1 :])
        rows[index[tuple(images[i] for i in order)]][j] += (-1) ** inversions
    return tuple(map(tuple, rows))


def chain_map_matrix(f, n: int):
    """Matrix of the chain map C_n(source) -> C_n(target) that ``f`` induces, from its sparse columns.

    The library pushes cycles through the sparse columns of
    ``simplicial._chain_columns``; tests read them as one matrix, one
    row per target n-simplex, against ``inline_chain_map_rows``.  The
    rows are built from the columns' entries as they are, uncoerced.
    """
    from towertop.abelian import IntegerMatrix
    from towertop.simplicial import _chain_columns

    columns = _chain_columns(f, n)
    rows = [[0] * len(columns) for _ in f.target.n_simplexes(n)]
    for j, column in enumerate(columns):
        for i, a in column:
            rows[i][j] = a
    return IntegerMatrix._derived(tuple(map(tuple, rows)), len(columns))


def augmentation_matrix(k):
    """Row of ones: the augmentation C_0 -> Z that reduced homology appends."""
    from towertop.abelian import IntegerMatrix

    return IntegerMatrix([[1] * len(k.n_simplexes(0))], ncols=len(k.n_simplexes(0)))


def maximal_simplexes(simplexes) -> set:
    """Simplexes whose vertex set is a proper subset of no other simplex's.

    The reference for the document encoder, which drops every facet of
    another simplex instead and so relies on the complex being closed
    under faces.  Quadratic in the number of simplexes.
    """
    return {s for s in simplexes if not any(set(s) < set(t) for t in simplexes)}


# -- telescopes, closed twice ------------------------------------------------


def _cylinder_cells(f, source_tag, target_tag):
    """Target simplexes plus the prisms {f(v_0)..f(v_i)} u {v_i..v_k} over source simplexes."""
    cells = [tuple((target_tag, w) for w in s) for s in f.target.simplexes]
    for s in f.source.simplexes:
        for i in range(len(s)):
            bottom = {(target_tag, f.vertex_map[v]) for v in s[: i + 1]}
            top = {(source_tag, v) for v in s[i:]}
            cells.append(tuple(bottom | top))
    return cells


def two_closure_telescope(tower, n: int, pinch: bool = False):
    """The telescope through level ``n`` as the union of closed mapping cylinders.

    The reference for ``finite_telescope`` and ``pinched_telescope``,
    which close one cell list once: here every bond contributes its
    whole cylinder, target simplexes included, and a pinch closes the
    finished telescope a second time with a cone over the deepest copy
    and embeds every level again.  Returns (complex, embeddings).
    """
    from towertop.simplicial import SimplicialComplex, SimplicialMap

    levels, bonds = list(tower.levels), list(tower.bonds)
    if not 0 <= n < len(levels):
        raise ValueError("telescope depth outside the truncation")
    cells = [tuple((0, v) for v in s) for s in levels[0].simplexes]
    for i in range(n):
        cells.extend(_cylinder_cells(bonds[i], i + 1, i))
    tele = SimplicialComplex.from_maximal(cells)
    embeddings = [
        SimplicialMap(levels[i], tele, {v: (i, v) for v in levels[i].vertices})
        for i in range(n + 1)
    ]
    if pinch:
        apex = (n + 1, "apex")
        cone = [embeddings[n].image_simplex(s) + (apex,) for s in levels[n].simplexes]
        tele = SimplicialComplex.from_maximal(list(tele.simplexes) + [(apex,)] + cone)
        embeddings = [SimplicialMap(m.source, tele, m.vertex_map) for m in embeddings]
    return tele, embeddings


def cylinder_by_hand(f):
    """Mapping cylinder of ``f`` closed from its own cells: (cylinder, source, target)."""
    from towertop.simplicial import SimplicialComplex, SimplicialMap

    cylinder = SimplicialComplex.from_maximal(_cylinder_cells(f, 1, 0))
    src = SimplicialMap(f.source, cylinder, {v: (1, v) for v in f.source.vertices})
    tgt = SimplicialMap(f.target, cylinder, {v: (0, v) for v in f.target.vertices})
    return cylinder, src, tgt


# -- covers by brute force -----------------------------------------------------


def _max_distance(p, q):
    return max(abs(a - b) for a, b in zip(p, q))


def _check_cover(points, elements):
    for center, _ in elements:
        if center >= len(points):
            raise ValueError(f"ball center {center} indexes outside the sample")


def _inside(points, element) -> frozenset:
    center, radius = element
    return frozenset(i for i, p in enumerate(points) if _max_distance(p, points[center]) <= radius)


def brute_nerve(points, elements) -> frozenset:
    """Every nonempty set of element indices some sample point lies in, plus each singleton."""
    _check_cover(points, elements)
    traces = [_inside(points, e) for e in elements]
    out = {(e,) for e in range(len(elements))}
    for size in range(2, len(elements) + 1):
        for chosen in combinations(range(len(elements)), size):
            if frozenset.intersection(*(traces[e] for e in chosen)):
                out.add(chosen)
    return frozenset(out)


def brute_lebesgue(points, elements):
    """The largest candidate depth that every sample point reaches in some element.

    Candidates are the depths r - d(p, c) over every point and element;
    the answer is checked point by point against each of them.
    """
    _check_cover(points, elements)
    if not elements:
        raise ValueError("the cover has no elements")
    depths = [[r - _max_distance(p, points[c]) for c, r in elements] for p in points]
    for i, row in enumerate(depths):
        if all(d < 0 for d in row):
            raise ValueError(f"the cover misses sample point {i}")
    candidates = sorted({d for row in depths for d in row}, reverse=True)
    return next(lam for lam in candidates if all(any(d >= lam for d in row) for row in depths))


def brute_containment(points, fine, coarse) -> dict:
    """Each fine element to the least-index coarse element whose trace holds its own."""
    _check_cover(points, fine)
    _check_cover(points, coarse)
    coarse_traces = [_inside(points, e) for e in coarse]
    out = {}
    for e, element in enumerate(fine):
        trace = _inside(points, element)
        homes = [j for j, t in enumerate(coarse_traces) if trace <= t]
        if not homes:
            raise ValueError(f"fine element {e} is inside no coarse element over the sample")
        out[e] = homes[0]
    return out


def brute_cech_tower(points, marked, radii, fixed=()):
    """Level simplex sets and bond vertex maps of the nerve tower shrinking around ``marked``.

    ``radii`` must be a strictly decreasing list of positive radii and
    ``marked`` a nonempty set of point indices.
    """
    covers = []
    for stage, r in enumerate(radii):
        cover = list(fixed) + [(p, r) for p in sorted(marked)]
        _check_cover(points, cover)
        for i in range(len(points)):
            if not any(i in _inside(points, e) for e in cover):
                raise ValueError(f"stage {stage} fails to cover sample point {i}")
        covers.append(cover)
    levels = [brute_nerve(points, c) for c in covers]
    bonds = [brute_containment(points, covers[i + 1], covers[i]) for i in range(len(covers) - 1)]
    return levels, bonds
