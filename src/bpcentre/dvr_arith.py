"""Exact arithmetic and linear algebra over the p-local integers.

Scalars are ``fractions.Fraction`` values; an element is p-local (lies in
Z_(p)) when its reduced denominator is prime to p.  All computations here
are exact.  Lattices (finitely generated submodules of Z_(p)^m) are kept in
a canonical column echelon form with pure p-power pivots, so that equality
of lattices is literal equality of their forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

INFINITY = math.inf

Vector = tuple[Fraction, ...]
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
    if x == 0:
        return INFINITY
    v = 0
    n = abs(x.numerator)
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
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
    """Whether q generates the units of Z/p^2.

    For odd p such a q is a topological generator of the p-adic units.
    """
    mod = p * p
    if q % p == 0:
        return False
    order, acc = 1, q % mod
    while acc != 1:
        acc = acc * q % mod
        order += 1
    return order == p * (p - 1)


def topological_generator(p: int) -> int:
    """Smallest positive integer generating the units of Z/p^2."""
    if not is_odd_prime(p):
        raise ValueError("p must be an odd prime")
    return next(q for q in range(2, p * p) if generates_units_mod_p2(q, p))


# ---------------------------------------------------------------------------
# plain exact matrices (tuples of row tuples)
# ---------------------------------------------------------------------------

def as_vector(entries) -> Vector:
    """The entries as Fractions; Fraction entries are kept as they are."""
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in entries)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("matrix size mismatch")
    return tuple(
        tuple(sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0))
              for j in range(len(b[0]) if b else 0))
        for i in range(len(a))
    )


def scalar_value(m: Matrix):
    """The scalar c with m == c*I (0 for the empty matrix), or None."""
    c = m[0][0] if m else Fraction(0)
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


def _eliminate(cols: list[list[Fraction]], nrows: int, p: int) -> list[tuple[int, int]]:
    """Unimodular column elimination of the first nrows rows, in place.

    In each row the active column of least valuation (lowest index on ties)
    becomes the pivot and clears that row from the other active columns; the
    multipliers are p-integral by minimality, so the column operations are
    invertible over Z_(p).  Returns (row, column) per pivot, in row order.
    """
    _check_prime(p)
    active = list(range(len(cols)))
    pivots = []
    for row in range(nrows):
        candidates = [j for j in active if cols[j][row] != 0]
        if not candidates:
            continue
        piv = min(candidates, key=lambda j: (valuation(cols[j][row], p), j))
        top = cols[piv]
        for j in candidates:
            if j != piv:
                c = cols[j][row] / top[row]
                cols[j] = [x - c * y if y else x for x, y in zip(cols[j], top)]
        pivots.append((row, piv))
        active.remove(piv)
    assert all(cols[j][row] == 0 for j in active for row in range(nrows))
    return pivots


def echelon_lattice(p: int, generators, ambient_rank: int) -> DvrLattice:
    """Canonical echelon form of the Z_(p)-span of the given vectors.

    Rejects vectors with entries outside Z_(p).  Feeding a lattice's own
    basis back returns the identical form.
    """
    _check_prime(p)
    cols = []
    for g in generators:
        v = as_vector(g)
        if len(v) != ambient_rank:
            raise ValueError(f"vector rank {len(v)} != ambient rank {ambient_rank}")
        for x in v:
            if not is_integral(x, p):
                raise ValueError(f"non-integral entry {x} (valuation {valuation(x, p)})")
        cols.append(list(v))

    echelon: list[list[Fraction]] = []
    pivots: list[tuple[int, int]] = []
    for row, j in _eliminate(cols, ambient_rank, p):
        e = valuation(cols[j][row], p)
        unit = Fraction(p) ** e / cols[j][row]
        echelon.append([unit * x for x in cols[j]])
        pivots.append((row, e))

    # Reduce pivot-row entries of earlier columns mod the pivot, top down.
    for j, (row, e) in enumerate(pivots):
        mod = Fraction(p) ** e
        for i in range(j):
            x = echelon[i][row]
            rep = Fraction(reduce_mod_p_power(x, p, e))
            q = (x - rep) / mod
            echelon[i] = [a - q * b for a, b in zip(echelon[i], echelon[j])]

    return DvrLattice(
        p=p,
        ambient_rank=ambient_rank,
        basis=tuple(tuple(col) for col in echelon),
        pivots=tuple(pivots),
    )


def lattice_membership(v, lattice: DvrLattice):
    """Coefficients of v over the echelon basis, or None when v is outside.

    A returned certificate re-multiplies to v exactly.
    """
    vec = as_vector(v)
    if len(vec) != lattice.ambient_rank:
        raise ValueError("vector rank does not match lattice ambient rank")
    residual = list(vec)
    coeffs = []
    for col, (row, _e) in zip(lattice.basis, lattice.pivots):
        c = residual[row] / col[row]
        if not is_integral(c, lattice.p):
            return None
        coeffs.append(c)
        residual = [x - c * y for x, y in zip(residual, col)]
    if any(x != 0 for x in residual):
        return None
    return tuple(coeffs)


# ---------------------------------------------------------------------------
# integral kernels and commutants
# ---------------------------------------------------------------------------

def integral_kernel(rows, ncols: int, p: int) -> list[Vector]:
    """Z_(p)-basis of the module of integral vectors annihilated by the rows.

    Eliminates the rows stacked over the identity, so the result is
    saturated: every integral vector of the rational kernel is an integral
    combination of the returned basis, the identity part of the columns
    that were never pivots.
    """
    work = [as_vector(row) for row in rows]
    if any(len(row) != ncols for row in work):
        raise ValueError("row length mismatch")
    one, zero = Fraction(1), Fraction(0)
    cols = [
        [row[j] for row in work] + [one if i == j else zero for i in range(ncols)]
        for j in range(ncols)
    ]
    pivot_cols = {j for _, j in _eliminate(cols, len(work), p)}
    return [tuple(col[len(work):]) for j, col in enumerate(cols) if j not in pivot_cols]


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
                row = [Fraction(0)] * (size * size)
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
