import itertools
from fractions import Fraction

import pytest

from bpcentre.bp_hopf import EtaRTable
from bpcentre.dvr_arith import mat_mul, scalar_value
from bpcentre.monomial_order import enumerate_weight
from bpcentre.op_calculus import (
    ConsistencyError,
    action_matrix,
    adams_matrix,
    elementary_realize,
    functional_matrix,
    mu_matrix,
    realizations,
)
from conftest import phi_pairs


def test_phi_alpha_beta_basic(table_p3):
    with pytest.raises(ValueError, match=r"mismatch: \(1,\) has weight 1, \(2,\) has weight 2"):
        action_matrix((1,), (2,), 2, table_p3)
    with pytest.raises(ValueError, match="weight mismatch"):
        action_matrix((4,), (1,), 4, table_p3)


def test_counit_acts_as_identity(table_p3):
    for r in range(9):
        assert scalar_value(action_matrix((), (), r, table_p3)) == 1


def test_action_matrix_rejects_degree_shift(table_p3):
    # value 1 on t_1 would lower the weight by one: () and (1,) differ in weight
    with pytest.raises(ValueError, match="weight mismatch"):
        action_matrix((), (1,), 3, table_p3)


def test_action_phi_01_01_weight4(table_p3):
    m = action_matrix((0, 1), (0, 1), 4, table_p3)
    assert tuple(enumerate_weight(4, 3)) == ((4,), (0, 1))
    assert m == ((Fraction(0), Fraction(0)), (Fraction(0), Fraction(3)))


def test_action_phi_4_4_weight4(table_p3):
    m = action_matrix((4,), (4,), 4, table_p3)
    # c = mu[(0,1), (4,)] = -27, frozen from the right-unit expansion
    assert m == ((Fraction(81), Fraction(-27)), (Fraction(0), Fraction(0)))


@pytest.mark.parametrize("p", [3, 5])
def test_functional_matrix_agrees_with_action(p, table_p3, table_p5):
    # the mu route and the coefficient_of_t route to M(alpha, beta)
    table = table_p3 if p == 3 else table_p5
    for r in range(1, 7):
        basis = enumerate_weight(r, p)
        for alpha, beta in itertools.product(basis, repeat=2):
            direct = functional_matrix(alpha, beta, r, table)
            general = action_matrix(alpha, beta, r, table)
            assert direct == general, (p, r, alpha, beta)


@pytest.mark.parametrize("p", [3, 5])
def test_triangularity(p, table_p3, table_p5):
    table = table_p3 if p == 3 else table_p5
    bound = 6
    for r in range(bound + 1):
        basis, mu = mu_matrix(r, table)
        for i, gamma in enumerate(basis):
            for j, beta in enumerate(basis):
                if i < j:
                    assert mu[i][j] == 0, (p, r, gamma, beta)
                if i == j:
                    assert mu[i][j] == Fraction(p) ** sum(beta)


def test_adams_matrix_examples(table_p3):
    assert scalar_value(adams_matrix(3, 1, 5)) == 1
    assert scalar_value(adams_matrix(3, 0, 3)) == 0
    assert adams_matrix(3, 0, 0) == ((Fraction(1),),)
    assert scalar_value(adams_matrix(3, 2, 2)) == 16
    assert scalar_value(adams_matrix(3, Fraction(3), 1)) == 9
    with pytest.raises(ValueError):
        adams_matrix(3, Fraction(1, 3), 1)


def test_adams_commutes_with_actions(table_p3):
    for r in range(5):
        psi = adams_matrix(3, 2, r)
        for alpha, beta in phi_pairs(3, 4):
            m = action_matrix(alpha, beta, r, table_p3)
            assert mat_mul(psi, m) == mat_mul(m, psi)


def test_elementary_realize_examples(table_p3):
    mu_bar, coeffs = elementary_realize((4,), (0, 1), table_p3)
    assert mu_bar == 3
    assert coeffs == {(0, 1): Fraction(1)}
    coeffs.clear()  # a fresh dict: the memoized realization is unchanged
    assert elementary_realize((4,), (0, 1), table_p3) == (3, {(0, 1): Fraction(1)})

    mu_bar, coeffs = elementary_realize((1,), (1,), table_p3)
    assert mu_bar == 3
    assert coeffs == {(1,): Fraction(1)}

    mu_bar, coeffs = elementary_realize((), (), table_p3)
    assert mu_bar == 1
    assert coeffs == {(): Fraction(1)}


def test_elementary_realize_top_monomial_single_term(table_p3):
    # the maximal monomial of each weight solves in one term with
    # mu_bar = p^(sum of exponents)
    for r in range(1, 9):
        basis = enumerate_weight(r, 3)
        beta = basis[-1]
        for alpha in basis:
            mu_bar, coeffs = elementary_realize(alpha, beta, table_p3)
            assert coeffs == {beta: Fraction(1)}
            assert mu_bar == Fraction(3) ** sum(beta)


def test_elementary_realize_weight_mismatch(table_p3):
    with pytest.raises(ValueError):
        elementary_realize((1,), (0, 1), table_p3)


def test_realization_soundness(table_p3):
    # re-multiplied combination equals mu_bar * E on the full basis
    for r in range(7):
        basis = enumerate_weight(r, 3)
        for alpha, beta in itertools.product(basis, repeat=2):
            mu_bar, coeffs = elementary_realize(alpha, beta, table_p3)
            assert mu_bar != 0
            assert all(c.denominator % 3 != 0 for c in coeffs.values())
            terms = [(c, functional_matrix(alpha, gamma, r, table_p3))
                     for gamma, c in coeffs.items()]
            ia, ib = basis.index(alpha), basis.index(beta)
            for i in range(len(basis)):
                for j in range(len(basis)):
                    expected = mu_bar if (i, j) == (ia, ib) else 0
                    combined = sum(c * m[i][j] for c, m in terms)
                    assert combined == expected, (r, alpha, beta)


def test_realized_matrix_rejects_perturbed_coefficients(table_p3, monkeypatch):
    # Every single-coefficient perturbation of a column solve is detected.
    # The fresh table has no verified realizations memoized, and a failed
    # verification memoizes nothing, so every perturbed solve is checked.
    from bpcentre import op_calculus

    fresh = EtaRTable(3, 5).populate()
    real = op_calculus.solve_column
    for r in range(6):
        basis, mu = mu_matrix(r, table_p3)
        for alpha, beta in itertools.product(basis, repeat=2):
            b = basis.index(beta)
            mu_bar, coeffs = real(basis, mu, b, 3)
            assert elementary_realize(alpha, beta, table_p3)[0] == mu_bar
            for gamma in coeffs:
                def perturbed(basis_, mu_, b_, p, gamma=gamma):
                    solved = real(basis_, mu_, b_, p)
                    if b_ != b:
                        return solved
                    return solved[0], {**solved[1], gamma: solved[1][gamma] + 1}

                monkeypatch.setattr(op_calculus, "solve_column", perturbed)
                with pytest.raises(ConsistencyError):
                    elementary_realize(alpha, beta, fresh)
                monkeypatch.setattr(op_calculus, "solve_column", real)
        assert realizations(r, fresh) == realizations(r, table_p3)


def test_realizations_store_int_coefficients(table_p3, table_p5):
    # mu has a p-power diagonal, so mu_bar * mu^-1 e_beta is an integer vector.
    for table in (table_p3, table_p5):
        for r in range(table.max_weight + 1):
            for beta, (mu_bar, coeffs) in realizations(r, table).items():
                assert type(mu_bar) is int, (table.p, r, beta)
                assert all(type(c) is int for _, c in coeffs), (table.p, r, beta, coeffs)


def test_non_integer_coefficient_names_its_column(monkeypatch):
    from bpcentre import op_calculus

    real = op_calculus.solve_column

    def halved(basis, mu, b, p):
        mu_bar, coeffs = real(basis, mu, b, p)
        first = next(iter(coeffs))
        return mu_bar, {**coeffs, first: coeffs[first] + Fraction(1, 2)}

    monkeypatch.setattr(op_calculus, "solve_column", halved)
    with pytest.raises(ConsistencyError, match=r"column \(1,\) is not .* in integers"):
        realizations(1, EtaRTable(3, 1).populate())


def test_degree_zero_consistency(table_p3):
    # every generated operation acts in every weight up to the bound
    for alpha, beta in phi_pairs(3, 4):
        for r in range(5):
            m = action_matrix(alpha, beta, r, table_p3)
            size = len(enumerate_weight(r, 3))
            assert len(m) == size and all(len(row) == size for row in m)


def test_action_matrices_are_integral(table_p3):
    for alpha, beta in phi_pairs(3, 5):
        for r in range(6):
            m = action_matrix(alpha, beta, r, table_p3)
            for row in m:
                for x in row:
                    assert x.denominator % 3 != 0

