"""Exact factorization of monic integer polynomials, for periodic limits.

The free rank of the limit of a constant tower is the degree of the
unit-constant part of a characteristic polynomial: the product of its
irreducible factors f with f(0) = ±1, counted with multiplicity.
``unit_part_degree`` computes it in three steps:

- the characteristic polynomial by Faddeev–LeVerrier, whose divisions
  are exact over Z (asserted);
- the square-free part, dividing out the gcd with the derivative over Q;
- Zassenhaus factorization of that part: deterministic Berlekamp
  splitting modulo a prime at which the part stays square-free, linear
  Hensel lifting to a prime power above twice the Landau–Mignotte
  coefficient bound, and recombination of the lifted factors by exact
  trial division over Z.  Berlekamp's nullspace mod p is read off the
  Hermite normal form of the lattice that the matrix's rows and pZ^n
  span, whose own check proves it spans exactly that lattice.

The factors raised to their multiplicities are multiplied back and
asserted to equal the characteristic polynomial exactly.  Recombination
tries subsets of the modular factors, so its worst case is exponential
in their number; the first prime at which the part stays square-free is
used, and no subset size is skipped.

A polynomial is a list of coefficients, constant term first, with no
trailing zeros (the zero polynomial is ``[]``).  Where a modulus ``m``
is taken, 0 means none.
"""

from fractions import Fraction
from itertools import combinations, zip_longest
from math import isqrt

from .abelian import IntegerMatrix, hermite_normal_form


def _trim(a, m=0):
    a = [c % m for c in a] if m else list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _add(a, b, m=0):
    return _trim([x + y for x, y in zip_longest(a, b, fillvalue=0)], m)


def _mul(a, b, m=0):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _trim(out, m)


def _divmod(a, b, m=0):
    """Quotient and remainder by ``b``, which must be monic when ``m`` is 0."""
    inv, d = (pow(b[-1], -1, m) if m else 1), len(b) - 1
    r, q = list(a), [0] * max(len(a) - d, 0)
    for k in reversed(range(len(q))):
        c = q[k] = r[k + d] * inv % m if m else r[k + d]
        for j, y in enumerate(b):
            r[k + j] -= c * y
    return _trim(q, m), _trim(r[:d], m)


def _derivative(a, m=0):
    return _trim([i * c for i, c in enumerate(a)][1:], m)


def _monic(a, m=0):
    inv = pow(a[-1], -1, m) if m else Fraction(1, a[-1])
    return _trim([c * inv for c in a], m)


def _gcd(a, b, m=0):
    """Monic gcd over Q (``m`` = 0) or over the field Z/m."""
    while b:
        a, b = b, _divmod(a, _monic(b, m), m)[1]
    return _monic(a, m)


def _powmod(a, e, f, m):
    out = [1]
    while e:
        if e & 1:
            out = _divmod(_mul(out, a, m), f, m)[1]
        a, e = _divmod(_mul(a, a, m), f, m)[1], e >> 1
    return out


def _nullspace(rows, p):
    """Basis of the vectors v with rows · v = 0 over Z/p, one per free column of the rows' echelon basis.

    The rows mod p stacked over p·I span a lattice L that holds pZ^n,
    so each pivot of its Hermite form divides p and is 1 or p.  A pivot-p
    row is p·e_c: anything else in it would be an element of L with a
    leading entry in (0, p) below a pivot p.  So the pivot-1 rows span L
    modulo pZ^n, the rows' span over Z/p; each has a 1 at its pivot, 0
    at the other pivot-1 columns and entries in [0, p) elsewhere, which
    is the reduced echelon basis over Z/p (Cohen, *A Course in
    Computational Algebraic Number Theory*, §2.4).  The form's check
    proves that it spans exactly L.  The free column f, a pivot-p
    column, gives v[f] = 1 and, at the pivot of each pivot-1 row, minus
    that row's entry in column f.
    """
    n = len(rows[0])
    stacked = [[x % p for x in row] for row in rows] + [[p * (i == j) for j in range(n)] for i in range(n)]
    form = hermite_normal_form(IntegerMatrix(stacked))
    echelon = [(c, row) for c, row in zip(form.pivots, form.form.rows) if row[c] == 1]
    basis = []
    for free in (c for c, row in zip(form.pivots, form.form.rows) if row[c] != 1):
        v = [0] * n
        v[free] = 1
        for c, row in echelon:
            v[c] = -row[free] % p
        basis.append(v)
    return basis


def _berlekamp_basis(f, p):
    """Basis of the v with v^p ≡ v (mod f) over Z/p, one per irreducible factor of ``f``.

    ``f`` is monic and square-free mod p; v(x)^p = v(x^p) mod p, so the
    condition is linear in v's coefficients.
    """
    n = len(f) - 1
    xp, power, q = _powmod([0, 1], p, f, p), [1], []
    for _ in range(n):
        q.append(power + [0] * (n - len(power)))
        power = _divmod(_mul(power, xp, p), f, p)[1]
    return _nullspace([[q[i][j] - (i == j) for i in range(n)] for j in range(n)], p)


def _berlekamp_split(f, basis, p):
    """Monic irreducible factors of ``f`` over Z/p, split by gcds with v - s."""
    factors = [f]
    for v in basis:
        if len(factors) == len(basis):
            break
        factors = [h for g in factors for s in range(p)
                   if len(h := _gcd(g, _trim([v[0] - s] + v[1:], p), p)) > 1]
    return factors


def _hensel(f, factors, p, bound):
    """Lift monic ``f`` ≡ ∏ factors (mod p) to monic factors modulo a power of p above bound."""
    # inverse of the cofactor f/g modulo g, in the field Z[x]/(p, g) of order p^deg g
    inverses = [_powmod(_divmod(_divmod(f, g, p)[0], g, p)[1], p ** (len(g) - 1) - 2, g, p)
                for g in factors]
    lifted, q = factors, p
    while q <= bound:
        product = [1]
        for g in lifted:
            product = _mul(product, g)
        error = _add(f, [-c for c in product])
        if any(c % q for c in error):
            raise AssertionError("Hensel lifting left a residue")
        error = _trim([c // q for c in error], p)
        lifted = [_add(g, [q * c for c in _divmod(_mul(error, inv, p), g0, p)[1]])
                  for g, g0, inv in zip(lifted, factors, inverses)]
        q *= p
    return lifted, q


def _recombine(f, lifted, q):
    """Factors over Z of monic ``f`` from its monic factors modulo q."""
    found, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = [1]
            for i in subset:
                g = _mul(g, lifted[i], q)
            g = [c - q if 2 * c > q else c for c in g]
            quotient, rest = _divmod(f, g)
            if not rest:
                found.append(g)
                f, lifted = quotient, [h for i, h in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return found + [f]


def _primes():
    p = 2
    while True:
        if all(p % d for d in range(2, isqrt(p) + 1)):
            yield p
        p += 1


def _factor_square_free(f):
    if len(f) <= 2:  # constants have no factors, linear polynomials are irreducible
        return [f] if len(f) == 2 else []
    for p in _primes():
        fp = _trim(f, p)
        if len(_gcd(fp, _derivative(fp, p), p)) == 1:
            break
    basis = _berlekamp_basis(fp, p)
    if len(basis) == 1:
        return [f]
    factors = _berlekamp_split(fp, basis, p)
    # |coefficient| of a monic factor of f ≤ 2^deg f · Mahler measure ≤ 2^deg f · ‖f‖₂
    bound = 2 ** (len(f) - 1) * (isqrt(sum(c * c for c in f)) + 1)
    return _recombine(f, *_hensel(f, factors, p, 2 * bound))


def charpoly(rows):
    """det(x·I − A) of a square integer matrix, by Faddeev–LeVerrier.

    >>> charpoly([[2, 1], [1, 1]])  # x² − 3x + 1
    [1, -3, 1]
    """
    n = len(rows)
    coeffs, m = [0] * n + [1], [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        m = [[sum(rows[i][l] * m[l][j] for l in range(n)) + (coeffs[n - k + 1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        trace = sum(rows[i][l] * m[l][i] for i in range(n) for l in range(n))
        if trace % k:
            raise AssertionError("Faddeev-LeVerrier division is not exact")
        coeffs[n - k] = -(trace // k)
    return coeffs


def factor(chi):
    """Irreducible monic factors of a monic integer polynomial with their multiplicities."""
    common = _gcd(chi, _derivative(chi))
    if any(c.denominator != 1 for c in common):
        raise AssertionError("monic gcd of a monic polynomial is not integral")
    out, rest = [], chi
    for f in _factor_square_free(_divmod(chi, [int(c) for c in common])[0]):
        k = 0
        while not (step := _divmod(rest, f))[1]:
            rest, k = step[0], k + 1
        out.append((f, k))
    product = [1]
    for f, k in out:
        for _ in range(k):
            product = _mul(product, f)
    if product != chi:
        raise AssertionError("factors do not multiply back to the characteristic polynomial")
    return out


def unit_part_degree(rows) -> int:
    """Degree of the unit-constant part of a square integer matrix's characteristic polynomial.

    >>> unit_part_degree([[2, 1], [1, 1]])  # x² − 3x + 1 is irreducible, f(0) = 1
    2
    >>> unit_part_degree([[2, 0], [0, 1]])  # (x − 2)(x − 1): only x − 1 counts
    1
    """
    return sum((len(f) - 1) * k for f, k in factor(charpoly(rows)) if abs(f[0]) == 1)
