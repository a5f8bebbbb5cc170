"""The per-column realization table against the per-pair solver it replaced.

The oracle solves mu . x = e_beta afresh for every pair (alpha, beta) and
checks the realized row Σ_γ c_γ·mu[j][γ] = mu_bar·e_beta pair by pair, as
elementary realization did before the table.
"""

import itertools
from fractions import Fraction

import pytest

from bpcentre.dvr_arith import valuation
from bpcentre.monomial_order import enumerate_weight, normalize, weight
from bpcentre.op_calculus import (
    ConsistencyError,
    elementary_realize,
    mu_matrix,
)
from bpcentre.truncation_centre import block_split, projected_elementary


def oracle_realize(alpha, beta, table):
    p = table.p
    alpha, beta = normalize(alpha), normalize(beta)
    r = weight(alpha, p)
    basis, mu = mu_matrix(r, table)
    b = basis.index(beta)
    x = [Fraction(0)] * len(basis)
    for i in range(len(basis)):
        rhs = Fraction(1 if i == b else 0)
        rhs -= sum((mu[i][j] * x[j] for j in range(i)), Fraction(0))
        x[i] = rhs / mu[i][i]
    scale = Fraction(p) ** -min(valuation(c, p) for c in x if c != 0)
    return scale, {basis[j]: scale * x[j] for j in range(len(basis)) if x[j] != 0}


def oracle_realized_matrix(alpha, beta, table):
    p = table.p
    alpha, beta = normalize(alpha), normalize(beta)
    r = weight(alpha, p)
    mu_bar, coeffs = oracle_realize(alpha, beta, table)
    basis, mu = mu_matrix(r, table)
    index = {gamma: i for i, gamma in enumerate(basis)}
    terms = [(index[gamma], c) for gamma, c in coeffs.items()]
    row = tuple(sum((c * mu_j[g] for g, c in terms), Fraction(0)) for mu_j in mu)
    zero = (Fraction(0),) * len(basis)
    expected = list(zero)
    expected[index[beta]] = mu_bar
    if (mu_bar == 0 or any(valuation(c, p) < 0 for _, c in terms)
            or row != tuple(expected)):
        raise ConsistencyError(f"({alpha}, {beta}) is not {mu_bar}*E")
    return mu_bar, tuple(row if i == index[alpha] else zero for i in range(len(basis)))


def restrict(m, indices):
    return tuple(tuple(m[i][j] for j in indices) for i in indices)


@pytest.mark.parametrize("p, bound", [(3, 12), (5, 6)])
def test_elementary_realize_matches_per_pair_oracle(p, bound, table_p3, table_p5):
    table = table_p3 if p == 3 else table_p5
    for r in range(bound + 1):
        basis = enumerate_weight(r, p)
        for alpha, beta in itertools.product(basis, repeat=2):
            expected = oracle_realize(alpha, beta, table)
            assert elementary_realize(alpha, beta, table) == expected, (r, alpha, beta)
            assert oracle_realized_matrix(alpha, beta, table)[0] == expected[0]


def test_projected_elementary_matches_restricted_oracle(table_p3):
    for n in (1, 2, 3):
        for r in range(13):
            split = block_split(r, n, 3)
            for alpha, beta in itertools.product(split.r_basis, repeat=2):
                _, full = oracle_realized_matrix(alpha, beta, table_p3)
                expected = restrict(full, range(len(split.r_basis)))
                assert projected_elementary(alpha, beta, r, n, table_p3) == expected, (
                    n, r, alpha, beta)
