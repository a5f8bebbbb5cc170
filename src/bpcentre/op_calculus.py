"""Degree-zero operations as linear functionals and their homotopy actions.

A stable degree-zero operation corresponds to a coefficient-linear functional
on the co-operation ring determined by its values on t-monomials; its action
on coefficients is recovered by precomposition with the right unit.  Since
the action on homotopy is faithful, operations are identified throughout
with the exact matrices of their actions on the ordered monomial basis of
each weight: ``dvr_arith.Matrix`` row tuples whose entry (i, j) is the
coefficient of basis[i] in the image of basis[j].

The family phi(alpha, beta) (value v^alpha on t^beta, zero elsewhere) spans
the degree-zero functionals weightwise.  Their matrices are triangular with
respect to the right-lex order, which makes any single elementary matrix
realizable up to a p-power scalar.  The combination depends on the column
alone: :func:`realizations` solves and verifies it once per column and table.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .bp_hopf import EtaRTable, GradedPoly, coefficient_of_t
from .dvr_arith import Matrix, is_integral, valuation
from .monomial_order import Exp, enumerate_weight, normalize, weight

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


@dataclass(frozen=True)
class OpFunctional:
    """A coefficient-linear functional with finite support on t-monomials.

    ``support`` maps t-exponent sequences to weight-homogeneous v-polynomial
    values; ``shift`` is the drop in weight induced on homotopy (zero for
    operations of degree zero).
    """

    p: int
    shift: int
    support: tuple[tuple[Exp, GradedPoly], ...]
    name: str

    def value(self, beta: Exp) -> GradedPoly:
        beta = normalize(beta)
        for key, poly in self.support:
            if key == beta:
                return poly
        return GradedPoly.zero(self.p)


def phi_beta(p: int, beta) -> OpFunctional:
    """The functional dual to t^beta: value 1 there, zero elsewhere."""
    beta = normalize(beta)
    return OpFunctional(
        p=p,
        shift=weight(beta, p),
        support=((beta, GradedPoly.const(p, 1)),),
        name=f"phi_{beta}",
    )


def counit(p: int) -> OpFunctional:
    """The functional dual to 1; acts as the identity in every weight."""
    return phi_beta(p, ())


def phi_alpha_beta(p: int, alpha, beta) -> OpFunctional:
    """The degree-zero functional with value v^alpha on t^beta."""
    alpha, beta = normalize(alpha), normalize(beta)
    if weight(alpha, p) != weight(beta, p):
        raise ValueError(
            f"weight mismatch: {alpha} has weight {weight(alpha, p)}, "
            f"{beta} has weight {weight(beta, p)}"
        )
    return OpFunctional(
        p=p,
        shift=0,
        support=((beta, GradedPoly.v_mono(p, alpha)),),
        name=f"phi_{alpha},{beta}",
    )


@per_table
def mu_matrix(r: int, table: EtaRTable):
    """Pure-t coefficient scalars mu[i][j] = <t^basis[j]> eta_R(v^basis[i]).

    Lower triangular with diagonal p^(sum of exponents).
    """
    basis = tuple(enumerate_weight(r, table.p))
    rows = []
    for gamma in basis:
        pure = table.eta(gamma).pure_t_terms()
        rows.append(tuple(pure.get(beta, Fraction(0)) for beta in basis))
    return basis, tuple(rows)


def action_matrix(op: OpFunctional, r: int, table: EtaRTable) -> Matrix:
    """Matrix of the operation's action on the weight-r monomial basis.

    The image of v^gamma is the sum over the support of value(beta) times
    the coefficient of t^beta in eta_R(v^gamma), expanded over the basis.
    """
    if op.shift != 0:
        raise ValueError("only degree-zero operations act within one weight")
    p = table.p
    basis = tuple(enumerate_weight(r, p))
    index = {alpha: i for i, alpha in enumerate(basis)}
    cols = []
    for gamma in basis:
        image = GradedPoly.sum(p, (
            value * coefficient_of_t(gamma, beta, table)
            for beta, value in op.support if weight(beta, p) <= r
        ))
        col = [Fraction(0)] * len(basis)
        for (v, t), c in image.terms.items():
            if t or v not in index:
                raise ConsistencyError(
                    f"image of v^{gamma} under {op.name} leaves the weight-{r} basis"
                )
            col[index[v]] = c
        cols.append(col)
    return tuple(zip(*cols))


def adams_sequence(p: int, k, N: int) -> tuple[Fraction, ...]:
    """The Adams window (k^((p-1)i)) for i = 0..N, with 0^0 = 1.

    k may be any p-local integer, 0 and p included: the parameter-0
    operation is the identity in weight 0 and zero above.
    """
    k = Fraction(k)
    if not is_integral(k, p):
        raise ValueError(f"Adams parameter {k} is not p-local")
    return tuple(k ** ((p - 1) * i) for i in range(N + 1))


def adams_matrix(p: int, k, r: int) -> Matrix:
    """The Adams operation for parameter k in weight r: k^((p-1)r) * I."""
    c = adams_sequence(p, k, r)[r]
    size = range(len(enumerate_weight(r, p)))
    return tuple(tuple(c if i == j else Fraction(0) for j in size) for i in size)


def solve_column(basis, mu, b: int, p: int):
    """(mu_bar, coefficients) with sum_gamma coefficients[gamma] * mu[j][gamma]
    = mu_bar * e_b: forward substitution of mu . x = e_b (mu[i][j] = 0 for
    i < j), scaled by the least p-power mu_bar that makes x p-integral."""
    x: list[Fraction] = []
    for i, row in enumerate(mu):
        if row[i] == 0:
            raise ConsistencyError(f"vanishing diagonal mu at {basis[i]}")
        rhs = Fraction(1 if i == b else 0)  # x holds x_0 .. x_(i-1)
        x.append((rhs - sum((c * y for c, y in zip(row, x)), Fraction(0))) / row[i])

    s = -min(valuation(c, p) for c in x if c != 0)
    if s < 0:
        raise ConsistencyError("realization scale has negative p-exponent")
    scale = Fraction(p) ** s
    return scale, {basis[j]: scale * x[j] for j in range(len(basis)) if x[j] != 0}


@per_table
def realizations(r: int, table: EtaRTable):
    """{beta: (mu_bar, ((gamma, c_gamma), ...))} over the weight-r basis,
    each column solved by :func:`solve_column` and verified exactly.

    sum_gamma c_gamma * M(alpha, gamma) vanishes outside row alpha, where
    its entry in column j is sum_gamma c_gamma * mu[j][gamma] for every
    alpha.  That row must be mu_bar * e_beta, mu_bar non-zero and every c
    p-integral, else ConsistencyError; then it is mu_bar * E_(alpha, beta).
    """
    p = table.p
    basis, mu = mu_matrix(r, table)
    index = {gamma: i for i, gamma in enumerate(basis)}
    result = {}
    for b, beta in enumerate(basis):
        mu_bar, coeffs = solve_column(basis, mu, b, p)
        terms = [(index[gamma], c) for gamma, c in coeffs.items()]
        row = [sum((c * mu_j[g] for g, c in terms), Fraction(0)) for mu_j in mu]
        if (mu_bar == 0 or any(valuation(c, p) < 0 for _, c in terms)
                or any(x != (mu_bar if j == b else 0) for j, x in enumerate(row))):
            raise ConsistencyError(f"realized combination for column {beta} is not "
                                   f"{mu_bar}*e_{beta} in weight {r}")
        result[beta] = (mu_bar, tuple(coeffs.items()))
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
    zero = (Fraction(0),) * len(basis)
    return tuple(tuple(row[ib] for row in mu) if i == ia else zero
                 for i in range(len(basis)))


def stable_generators(p: int, max_weight: int) -> list[OpFunctional]:
    """The counit plus every phi(alpha, beta) of weight at most max_weight.

    This family spans the degree-zero functionals on t-monomials of weight
    up to the bound, hence every degree-zero action in those weights.
    """
    gens = [counit(p)]
    for r in range(1, max_weight + 1):
        basis = enumerate_weight(r, p)
        for alpha in basis:
            for beta in basis:
                gens.append(phi_alpha_beta(p, alpha, beta))
    return gens
