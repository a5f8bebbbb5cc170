"""Acceptance suite: one test per criterion, all checks exact (zero tolerance).

Run with ``pytest tests/test_acceptance.py -v`` for one PASS/FAIL line per
criterion.
"""

import hashlib
import itertools
import time
from fractions import Fraction

import pytest

from bpcentre.bp_hopf import EtaRTable, GradedPoly, check_integrality
from bpcentre.cli_report import RunConfig, main
from bpcentre.dvr_arith import lattice_membership, mat_mul, valuation
from bpcentre.ktheory_lattice import adams_sequence, sg_membership, sg_window
from bpcentre.monomial_order import enumerate_weight, in_ideal, sort_key
from bpcentre.op_calculus import (
    elementary_realize,
    functional_matrix,
    mu_matrix,
)
from bpcentre.truncation_centre import (
    block_split,
    centre_commutant,
    diagonal_window_lattice,
    iota_hat_n_window,
    projected_elementary,
)


def test_criterion_1_eta_integrity():
    """p=3, weights <= 13: integral, eta(v_1) exact, top-term law; < 2 min."""
    start = time.monotonic()
    table = EtaRTable(3, 13).populate()

    for gamma in table.keys():
        poly = table.eta(gamma)
        ok, offenders = check_integrality(poly)
        assert ok, (gamma, offenders)

    assert table.eta((1,)) == GradedPoly(3, {
        ((1,), ()): Fraction(1),
        ((), (1,)): Fraction(3),
    }, table.layout)

    for gamma in table.keys():
        pure = table.eta(gamma).pure_t_terms()
        assert pure[gamma] == Fraction(3) ** sum(gamma), gamma
        for texp in pure:
            if texp != gamma:
                assert sort_key(texp) < sort_key(gamma), (gamma, texp)

    elapsed = time.monotonic() - start
    assert elapsed < 120.0, f"took {elapsed:.1f}s"
    print(f"ACCEPTANCE 1 eta-integrity (p=3, w<=13, {elapsed:.2f}s): PASS")


@pytest.mark.parametrize("p,bound", [(3, 8), (5, 6)])
def test_criterion_2_triangularity(p, bound, table_p3, table_p5):
    """mu[gamma, beta] = 0 for gamma < beta, diagonal p^(sum beta), exact."""
    table = table_p3 if p == 3 else table_p5
    pairs = 0
    for r in range(bound + 1):
        basis, mu = mu_matrix(r, table)
        for i in range(len(basis)):
            for j in range(len(basis)):
                pairs += 1
                if i < j:
                    assert mu[i][j] == 0, (p, r, basis[i], basis[j])
                if i == j:
                    assert mu[i][j] == Fraction(p) ** sum(basis[j])
    print(f"ACCEPTANCE 2 triangularity (p={p}, w<={bound}, {pairs} pairs): PASS")


def test_criterion_3_elementary_realization(table_p3):
    """Every pair in every weight <= 8 at p=3 realizes mu_bar * E exactly."""
    pairs = 0
    for r in range(9):
        basis = tuple(enumerate_weight(r, 3))
        for alpha, beta in itertools.product(basis, repeat=2):
            pairs += 1
            mu_bar, coeffs = elementary_realize(alpha, beta, table_p3)
            assert mu_bar != 0
            assert all(valuation(c, 3) >= 0 for c in coeffs.values())
            terms = [(c, functional_matrix(alpha, gamma, r, table_p3))
                     for gamma, c in coeffs.items()]
            ia, ib = basis.index(alpha), basis.index(beta)
            for i in range(len(basis)):
                for j in range(len(basis)):
                    expected = mu_bar if (i, j) == (ia, ib) else 0
                    combined = sum(c * m[i][j] for c, m in terms)
                    assert combined == expected, (r, alpha, beta)
    print(f"ACCEPTANCE 3 elementary-realization (p=3, w<=8, {pairs} pairs): PASS")


def test_criterion_4_centre_rank_one(table_p3):
    """Commutant of the projected family: rank 1 scalars, n in {1,2}, w<=12."""
    cases = 0
    for n in (1, 2):
        for r in range(13):
            rank, basis = centre_commutant(r, n, table_p3)
            assert rank == 1, (n, r, rank)
            m = basis[0]
            c = m[0][0]
            size = len(m)
            assert all(
                m[i][j] == (c if i == j else 0)
                for i in range(size) for j in range(size)
            ), (n, r)
            cases += 1
    print(f"ACCEPTANCE 4 centre-rank-one (p=3, n in {{1,2}}, w<=12, {cases} cases): PASS")


@pytest.mark.parametrize("p", [3, 5])
def test_criterion_5_block_order(p):
    """R monomials precede J monomials, all r <= 12 and n <= 3, p in {3,5}."""
    for n in (1, 2, 3):
        for r in range(13):
            split = block_split(r, n, p)  # raises on violation
            flags = [in_ideal(a, n) for a in split.basis]
            assert flags == sorted(flags)
    print(f"ACCEPTANCE 5 block-order (p={p}, r<=12, n<=3): PASS")


def test_criterion_6_congruence_inclusion(table_p3):
    """sg_window(N) inside diagonal_window_lattice(N, n), N <= 5, n in {1,2}."""
    divisor_table = []
    for N in range(6):
        sg, _ = sg_window(3, N)
        for n in (1, 2):
            diag = diagonal_window_lattice(N, n, table_p3, sg)
            for col in sg.basis:
                assert lattice_membership(col, diag) is not None, (N, n, col)
            divisor_table.append(
                (N, n, sg.elementary_divisors, diag.elementary_divisors)
            )
    lines = "; ".join(
        f"N={N} n={n} sg={list(s)} diag={list(d)}" for N, n, s, d in divisor_table
    )
    print(f"ACCEPTANCE 6 congruence-inclusion: PASS [{lines}]")


def test_criterion_7_sg_oracle_health():
    """Stabilization inside default caps for N <= 8; certificates; nesting."""
    lattices = {}
    for N in range(9):
        lat, cert = sg_window(3, N)  # raises if caps are exceeded
        assert cert.stopped_at_a <= cert.m_cap
        lattices[N] = lat
        for k in (0, 1, 2, 4, 3, 6):
            cert_k = sg_membership(adams_sequence(3, k, N), lat)
            assert cert_k is not None, (N, k)
    for N in range(1, 9):
        for col in lattices[N].basis:
            assert lattice_membership(col[:N], lattices[N - 1]) is not None, N
    print("ACCEPTANCE 7 sg-oracle-health (N<=8): PASS")


def test_criterion_8_iota_centrality(table_p3):
    """Adams-combination windows commute with realized matrices, w <= 10."""
    combos = [{0: 1}, {1: 1}, {2: 1}, {3: 1}, {6: 1},
              {1: 1, 0: -1}, {2: 1, 1: -1}, {4: 1, 2: -2, 1: 1}]
    checked = 0
    for n in (1, 2):
        for combo in combos:
            mats = iota_hat_n_window(3, combo, 10, n)
            for r in range(11):
                split = block_split(r, n, 3)
                for alpha in split.r_basis:
                    for beta in split.r_basis:
                        e = projected_elementary(alpha, beta, r, n, table_p3)
                        assert mat_mul(mats[r], e) == mat_mul(e, mats[r]), (
                            n, combo, r, alpha, beta)
                        checked += 1
    print(f"ACCEPTANCE 8 iota-centrality (w<=10, {checked} commutations): PASS")


def test_criterion_9_reproducibility(tmp_path, capsys):
    """Cache round-trips byte-identically; identical configs, identical reports."""
    table = EtaRTable(3, 7).populate()
    path = tmp_path / "cache.json"
    digest = table.save(path)
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    loaded = EtaRTable(3, 7)
    assert loaded.load(path) == digest
    assert loaded.to_bytes() == path.read_bytes()
    path2 = tmp_path / "cache2.json"
    loaded.save(path2)
    assert path2.read_bytes() == path.read_bytes()

    argv = ["verify", "all", "--p", "3", "--max-weight", "5", "--N", "3",
            "--heights", "1,2", "--format", "json",
            "--cache", str(tmp_path / "clicache")]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    assert code1 == 0
    assert code2 == 0
    # the second run reports a cache hit instead of a write; the content
    # of every check and lattice is required to be identical
    assert out1.replace('"status": "written"', '"status": "hit"') == out2
    code3 = main(argv)
    out3 = capsys.readouterr().out
    assert (code3, out3) == (code2, out2)
    print("ACCEPTANCE 9 reproducibility: PASS")
