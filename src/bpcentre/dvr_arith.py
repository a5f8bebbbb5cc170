"""Exact arithmetic and linear algebra over the p-local integers.

Scalars are ``int`` or ``fractions.Fraction`` values; an element is p-local
(lies in Z_(p)) when its reduced denominator is prime to p.  All computations
here are exact.  Lattices (finitely generated submodules of Z_(p)^m) are kept
in a canonical column echelon form with pure p-power pivots, so that equality
of lattices is literal equality of their forms.

The lattice routines work on ``int`` columns: over Z_(p), scaling a vector by
an integer prime to p does not change its span, so each p-integral input is
cleared of its denominators first, and elimination scales columns by such
integers instead of dividing (fraction-free, as in Bareiss's elimination).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

INFINITY = math.inf

Scalar = int | Fraction
Vector = tuple[Scalar, ...]
Matrix = tuple[Vector, ...]


@lru_cache(maxsize=None)
def _check_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError(f"{p} is not prime")


def is_odd_prime(p: int) -> bool:
    if not isinstance(p, int) or p < 3 or p % 2 == 0:
        return False
    return all(p % d for d in range(3, int(p**0.5) + 1, 2))


def valuation(x, p: int):
    """Exponent of p in x, or the infinity marker for zero.

    Negative for rationals with p in the denominator; elements of Z_(p)
    always have valuation >= 0.
    """
    _check_prime(p)
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    n, d = x.numerator, x.denominator
    if n == 0:
        return INFINITY
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def is_integral(x, p: int) -> bool:
    """Whether x lies in Z_(p) (denominator prime to p)."""
    return Fraction(x).denominator % p != 0


def reduce_mod_p_power(x, p: int, e: int) -> int:
    """Canonical integer representative in [0, p^e) of x in Z_(p)/p^e."""
    x = Fraction(x)
    mod = p**e
    if mod == 1:
        return 0
    if x.denominator % p == 0:
        raise ValueError(f"{x} is not p-integral")
    return x.numerator * pow(x.denominator, -1, mod) % mod


def generates_units_mod_p2(q: int, p: int) -> bool:
    """Whether q generates the units of Z/p^2, for an odd prime p.

    The units are cyclic of order p(p-1), so a unit q generates them exactly
    when q^(p(p-1)/l) != 1 mod p^2 for every prime l dividing p(p-1).  Such
    a q is a topological generator of the p-adic units.
    """
    if q % p == 0:
        return False
    primes, m, d = {p}, p - 1, 2
    while d * d <= m:
        if m % d:
            d += 1
        else:
            primes.add(d)
            m //= d
    if m > 1:
        primes.add(m)
    order = p * (p - 1)
    return all(pow(q, order // l, p * p) != 1 for l in primes)


def topological_generator(p: int) -> int:
    """Smallest positive integer generating the units of Z/p^2."""
    if not is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    return next(q for q in range(2, p * p) if generates_units_mod_p2(q, p))


# ---------------------------------------------------------------------------
# plain exact matrices (tuples of row tuples)
# ---------------------------------------------------------------------------

def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix size mismatch")
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(len(b)))
              for j in range(len(b[0]) if b else 0))
        for i in range(len(a))
    )


def scalar_value(m: Matrix):
    """The scalar c with m == c*I (0 for the empty matrix), or None."""
    c = m[0][0] if m else 0
    scalar = all(len(row) == len(m) and all(x == (c if i == j else 0)
                                            for j, x in enumerate(row))
                 for i, row in enumerate(m))
    return c if scalar else None


# ---------------------------------------------------------------------------
# lattices in canonical echelon form
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DvrLattice:
    """A finitely generated submodule of Z_(p)^m in canonical echelon form.

    ``basis`` holds the columns; column j is zero above its pivot row,
    carries exactly p^e at the pivot, and pivot-row entries of earlier
    columns are reduced to their canonical representative mod p^e.  Two
    lattices are equal iff their forms compare equal.
    """

    p: int
    ambient_rank: int
    basis: tuple[Vector, ...]
    pivots: tuple[tuple[int, int], ...]  # (pivot row, p-exponent) per column

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def elementary_divisors(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.pivots)

    def colength(self) -> int:
        """Length of Z_(p)^m / L when full rank; sum of pivot exponents."""
        return sum(self.elementary_divisors)


def integer_scaling(entries) -> tuple[list[int], int]:
    """(d*v as ints, d) for the vector v of the entries and the least common
    denominator d of its entries; over Z_(p), v and d*v span the same line
    exactly when d is prime to p."""
    v = entries if isinstance(entries, (tuple, list)) else list(entries)
    try:
        d = math.lcm(*[x.denominator for x in v])
    except AttributeError:  # entries that are neither int nor Fraction
        v = [Fraction(x) for x in v]
        d = math.lcm(*[x.denominator for x in v])
    if d == 1:
        return [x.numerator for x in v], 1
    return [x.numerator * (d // x.denominator) for x in v], d


def _entries(col: list[int], d: int) -> Vector:
    """The vector col/d, with ``int`` entries wherever they are integers."""
    if d == 1:
        return tuple(col)
    return tuple(x // d if x % d == 0 else Fraction(x, d) for x in col)


def _lowest_terms(col: list[int], d: int) -> tuple[list[int], int]:
    """(col, d) with their common factor cancelled, for the vector col/d."""
    g = math.gcd(d, *col)
    return ([x // g for x in col], d // g) if g > 1 else (col, d)


def _without_unit_content(col: list[int], p: int) -> list[int]:
    """col divided by the prime-to-p part of the gcd of its entries."""
    c = math.gcd(*col)
    while c and c % p == 0:
        c //= p
    return [x // c for x in col] if c > 1 else col


def _pivot(candidates: list[int], cols: list[list[int]], row: int, p: int) -> int:
    """The candidate column of least valuation in row, lowest index on ties."""
    return min(candidates, key=lambda j: (valuation(cols[j][row], p), j))


def _eliminate(cols: list[list[int]], nrows: int, p: int) -> list[tuple[int, int]]:
    """Unimodular fraction-free column elimination of the first nrows rows,
    in place.

    In each row the pivot column (see :func:`_pivot`), with entry a, clears
    the entry b of every other active column: col <- (a/g)*col - (b/g)*pivot
    for g = gcd(a, b), after which col loses the prime-to-p part of its
    content.  Both scalings are units of Z_(p) when a has least valuation, so
    no span changes; a scaling a/g divisible by p would shrink the span and
    raises.  Returns (row, column) per pivot, in row order.
    """
    _check_prime(p)
    active = list(range(len(cols)))
    pivots = []
    for row in range(nrows):
        candidates = [j for j in active if cols[j][row]]
        if not candidates:
            continue
        piv = _pivot(candidates, cols, row, p)
        top = cols[piv]
        a = top[row]
        for j in candidates:
            if j == piv:
                continue
            b = cols[j][row]
            g = math.gcd(a, b)
            s, t = a // g, b // g
            if s % p == 0:
                raise ArithmeticError(
                    f"row {row}: clearing column {j} against pivot column {piv} "
                    f"scales it by {s}, which is not a unit at p={p}")
            cols[j] = _without_unit_content(
                [s * x - t * y for x, y in zip(cols[j], top)], p)
        pivots.append((row, piv))
        active.remove(piv)
    return pivots


def echelon_lattice(p: int, generators, ambient_rank: int) -> DvrLattice:
    """Canonical echelon form of the Z_(p)-span of the given vectors.

    Rejects vectors with entries outside Z_(p).  Feeding a lattice's own
    basis back returns the identical form.
    """
    _check_prime(p)
    cols = []
    for g in generators:
        col, d = integer_scaling(g)
        if len(col) != ambient_rank:
            raise ValueError(f"vector rank {len(col)} != ambient rank {ambient_rank}")
        if d % p == 0:
            x = next(x for x in (Fraction(n, d) for n in col) if x.denominator % p == 0)
            raise ValueError(f"non-integral entry {x} (valuation {valuation(x, p)})")
        cols.append(col)

    # Each basis column is kept as (c, u): the vector c/u, c[pivot row] = p^e*u.
    echelon: list[tuple[list[int], int]] = []
    pivots: list[tuple[int, int]] = []
    for row, j in _eliminate(cols, ambient_rank, p):
        col = cols[j]
        e = valuation(col[row], p)
        u = col[row] // p**e
        if u < 0:
            col, u = [-x for x in col], -u
        echelon.append(_lowest_terms(col, u))
        pivots.append((row, e))

    # Reduce pivot-row entries of earlier columns mod the pivot, top down:
    # column i, with entry x = c_i[row]/u_i and representative rep, loses
    # (x - rep)/p^e = t/u_i times column j.
    for j, (row, e) in enumerate(pivots):
        mod = p**e
        cj, uj = echelon[j]
        for i in range(j):
            ci, ui = echelon[i]
            rep = ci[row] * pow(ui, -1, mod) % mod  # ui is prime to p
            t = (ci[row] - rep * ui) // mod
            if t:
                echelon[i] = _lowest_terms([uj * x - t * y for x, y in zip(ci, cj)], ui * uj)

    return DvrLattice(
        p=p,
        ambient_rank=ambient_rank,
        basis=tuple(_entries(c, u) for c, u in echelon),
        pivots=tuple(pivots),
    )


def lattice_membership(v, lattice: DvrLattice):
    """Coefficients of v over the echelon basis, or None when v is outside.

    A returned certificate re-multiplies to v exactly: each column has p^e at
    its pivot row, so its coefficient is the residual's entry x there over
    p^e, p-integral when p^e divides x's numerator and p not its denominator.
    """
    p = lattice.p
    residual = list(v)
    if len(residual) != lattice.ambient_rank:
        raise ValueError("vector rank does not match lattice ambient rank")
    coeffs = []
    for col, (row, e) in zip(lattice.basis, lattice.pivots):
        x = residual[row]
        k, rem = divmod(x.numerator, p**e)
        if rem or x.denominator % p == 0:
            return None
        k = k if x.denominator == 1 else Fraction(k, x.denominator)
        coeffs.append(k)
        residual = [y - k * c for y, c in zip(residual, col)]
    return None if any(residual) else tuple(coeffs)


# ---------------------------------------------------------------------------
# integral kernels and commutants
# ---------------------------------------------------------------------------

def integral_kernel(rows, ncols: int, p: int) -> list[Vector]:
    """Z_(p)-basis of the module of integral vectors annihilated by the rows.

    Eliminates the rows stacked over the identity, so the result is
    saturated: every integral vector of the rational kernel is an integral
    combination of the returned basis, the identity part of the columns
    that were never pivots.  Each is divided by its own identity entry, a
    unit, so that entry is 1; rows are cleared of denominators first, which
    leaves their kernel unchanged.
    """
    work = [integer_scaling(row)[0] for row in rows]
    if any(len(row) != ncols for row in work):
        raise ValueError("row length mismatch")
    nrows = len(work)
    cols = [
        [row[j] for row in work] + [1 if i == j else 0 for i in range(ncols)]
        for j in range(ncols)
    ]
    pivot_cols = {j for _, j in _eliminate(cols, nrows, p)}
    return [_entries(col[nrows:], col[nrows + j])
            for j, col in enumerate(cols) if j not in pivot_cols]


def commutant(mats, size: int, p: int) -> list[Matrix]:
    """Z_(p)-basis of {X : XM = MX for every M in mats}.

    Matrices are square of the given size with p-local entries; the empty
    family yields the full matrix space.  Unknowns are the size^2 entries of
    X in row-major order; rows of XM - MX that vanish identically constrain
    nothing and are left out.
    """
    rows = []
    for m in mats:
        if len(m) != size or any(len(r) != size for r in m):
            raise ValueError("commutant input must be square of the given size")
        # (XM - MX)[i][j] = sum_b m[b][j] X[i][b] - sum_a m[i][a] X[a][j]
        col_terms = [[(b, m[b][j]) for b in range(size) if m[b][j]] for j in range(size)]
        row_terms = [[(a, x) for a, x in enumerate(m[i]) if x] for i in range(size)]
        for i in range(size):
            for j in range(size):
                if not (row_terms[i] or col_terms[j]):
                    continue
                row = [0] * (size * size)
                for b, x in col_terms[j]:
                    row[i * size + b] += x
                for a, x in row_terms[i]:
                    row[a * size + j] -= x
                if any(row):
                    rows.append(row)
    kernel = integral_kernel(rows, size * size, p)
    return [
        tuple(tuple(vec[i * size + j] for j in range(size)) for i in range(size))
        for vec in kernel
    ]
