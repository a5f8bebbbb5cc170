"""Degree-zero operations as linear functionals and their homotopy actions.

A stable degree-zero operation corresponds to a coefficient-linear functional
on the co-operation ring determined by its values on t-monomials; its action
on coefficients is recovered by precomposition with the right unit.  Since
the action on homotopy is faithful, operations are identified throughout
with the exact matrices of their actions on the ordered monomial basis of
each weight: ``dvr_arith.Matrix`` row tuples whose entry (i, j) is the
coefficient of basis[i] in the image of basis[j].

The functional phi(alpha, beta), value v^alpha on t^beta and zero elsewhere,
is given by the pair; phi((), ()) is the counit, and the pairs of equal
weight span the degree-zero functionals weightwise.  Their matrices are
triangular with respect to the right-lex order, which makes any single
elementary matrix realizable up to a p-power scalar.  The combination
depends on the column alone: :func:`realizations` solves and verifies it
once per column and table.  :func:`action_matrix` builds the matrix from the
right unit's t-coefficients, independently of mu, as the oracle for
:func:`functional_matrix` and for the monolithic window system.
"""

from __future__ import annotations

import functools
import weakref
from types import MappingProxyType

from .bp_hopf import EtaRTable, coefficient_of_t
from .dvr_arith import Matrix, Vector, is_integral, valuation
from .monomial_order import add, enumerate_weight, normalize, weight

_PER_TABLE: "weakref.WeakKeyDictionary[EtaRTable, dict]" = weakref.WeakKeyDictionary()


def per_table(fn):
    """Memoize fn(*args, table) while the table, its last positional
    argument, lives; a call that raises stores nothing."""
    @functools.wraps(fn)
    def memoized(*args):
        memo = _PER_TABLE.setdefault(args[-1], {})
        key = (fn, *args[:-1])
        if key not in memo:
            memo[key] = fn(*args)
        return memo[key]
    return memoized


class ConsistencyError(RuntimeError):
    """An internal invariant failed; indicates a bug, not bad input."""


@per_table
def mu_matrix(r: int, table: EtaRTable):
    """Pure-t coefficient scalars mu[i][j] = <t^basis[j]> eta_R(v^basis[i]).

    Lower triangular with diagonal p^(sum of exponents).
    """
    basis = tuple(enumerate_weight(r, table.p))
    rows = []
    for gamma in basis:
        pure = table.eta(gamma).pure_t_terms()
        rows.append(tuple(pure.get(beta, 0) for beta in basis))
    return basis, tuple(rows)


def action_matrix(alpha, beta, r: int, table: EtaRTable) -> Matrix:
    """Matrix of phi(alpha, beta) on the weight-r monomial basis.

    phi(alpha, beta) acts in every weight r >= weight(beta) (as zero below
    it): the image of v^gamma is v^alpha times the coefficient of t^beta in
    eta_R(v^gamma), expanded over the basis.  ValueError unless alpha and
    beta have equal weight, as a degree-zero functional must.
    """
    p = table.p
    alpha, beta = normalize(alpha), normalize(beta)
    if weight(alpha, p) != weight(beta, p):
        raise ValueError(
            f"weight mismatch: {alpha} has weight {weight(alpha, p)}, "
            f"{beta} has weight {weight(beta, p)}"
        )
    basis = tuple(enumerate_weight(r, p))
    index = {a: i for i, a in enumerate(basis)}
    cols = []
    for gamma in basis:
        col = [0] * len(basis)
        for (v, _), c in coefficient_of_t(gamma, beta, table).items():
            col[index[add(alpha, v)]] = c
        cols.append(col)
    return tuple(zip(*cols))


def adams_sequence(p: int, k, N: int) -> Vector:
    """The Adams window (k^((p-1)i)) for i = 0..N, with 0^0 = 1.

    k may be any p-local integer, 0 and p included: the parameter-0
    operation is the identity in weight 0 and zero above.  The entries are
    ``int`` when k is an integer.
    """
    if not is_integral(k, p):
        raise ValueError(f"Adams parameter {k} is not p-local")
    if k.denominator == 1:
        k = k.numerator
    return tuple(k ** ((p - 1) * i) for i in range(N + 1))


def adams_matrix(p: int, k, r: int) -> Matrix:
    """The Adams operation for parameter k in weight r: k^((p-1)r) * I."""
    c = adams_sequence(p, k, r)[r]
    size = range(len(enumerate_weight(r, p)))
    return tuple(tuple(c if i == j else 0 for j in size) for i in size)


def solve_column(basis, mu, b: int, p: int):
    """(mu_bar, coefficients) with sum_gamma coefficients[gamma] * mu[j][gamma]
    = mu_bar * e_b: forward substitution of mu . x = e_b (mu[i][j] = 0 for
    i < j), scaled by the least p-power mu_bar that makes x p-integral.
    It runs on the integers X = p^E x, E the sum of the diagonal's valuations,
    and each division is exact when the diagonal holds p-powers; otherwise the
    column comes out wrong and the row check of :func:`realizations` fails."""
    for i, row in enumerate(mu):
        if row[i] == 0:
            raise ConsistencyError(f"vanishing diagonal mu at {basis[i]}")
    top = p ** sum(valuation(row[i], p) for i, row in enumerate(mu))
    x: list[int] = []  # X_0 .. X_(i-1) while row i is solved
    for i, row in enumerate(mu):
        x.append(((top if i == b else 0) - sum(c * y for c, y in zip(row, x))) // row[i])
    # default=0: a diagonal that holds no p-power can floor every X_i to 0.
    scale = p ** min((valuation(c, p) for c in x if c != 0), default=0)
    return top // scale, {basis[j]: c // scale for j, c in enumerate(x) if c != 0}


@per_table
def realizations(r: int, table: EtaRTable):
    """{beta: (mu_bar, ((gamma, c_gamma), ...))} over the weight-r basis, with
    ``int`` c_gamma, each column solved by :func:`solve_column` and verified.

    sum_gamma c_gamma * M(alpha, gamma) vanishes outside row alpha, where
    its entry in column j is sum_gamma c_gamma * mu[j][gamma] for every
    alpha.  That row must be mu_bar * e_beta, mu_bar non-zero, else
    ConsistencyError; then it is mu_bar * E_(alpha, beta).
    """
    p = table.p
    basis, mu = mu_matrix(r, table)
    index = {gamma: i for i, gamma in enumerate(basis)}
    result = {}
    for b, beta in enumerate(basis):
        mu_bar, coeffs = solve_column(basis, mu, b, p)
        terms = [(index[gamma], c) for gamma, c in coeffs.items()]
        row = [sum(c * mu_j[g] for g, c in terms) for mu_j in mu]
        if mu_bar == 0 or any(x != (mu_bar if j == b else 0) for j, x in enumerate(row)):
            raise ConsistencyError(f"realized combination for column {beta} is not "
                                   f"{mu_bar}*e_{beta} in integers in weight {r}")
        result[beta] = (mu_bar, tuple((basis[g], c) for g, c in terms))
    return MappingProxyType(result)


def elementary_realize(alpha, beta, table: EtaRTable):
    """Combination of the phi(alpha, gamma) acting as a multiple of E_(alpha,beta).

    Returns (mu_bar, coefficients) with mu_bar a p-power and the coefficients
    p-integral with at least one unit, such that
    sum_gamma coefficients[gamma] * M(alpha, gamma) = mu_bar * E_(alpha, beta)
    exactly on the full weight basis, read from :func:`realizations`.
    """
    p = table.p
    alpha, beta = normalize(alpha), normalize(beta)
    r = weight(alpha, p)
    if weight(beta, p) != r:
        raise ValueError("alpha and beta must have equal weight")
    mu_bar, coefficients = realizations(r, table)[beta]
    return mu_bar, dict(coefficients)


def functional_matrix(alpha, beta, r: int, table: EtaRTable) -> Matrix:
    """Matrix M(alpha, beta) of phi(alpha, beta) in weight r = weight(alpha),
    built directly from the mu scalars (row alpha only)."""
    basis, mu = mu_matrix(r, table)
    ia, ib = basis.index(normalize(alpha)), basis.index(normalize(beta))
    zero = (0,) * len(basis)
    return tuple(tuple(row[ib] for row in mu) if i == ia else zero
                 for i in range(len(basis)))

