"""The single column elimination against the two loops it replaced.

``oracle_integral_kernel`` and ``oracle_echelon_lattice`` keep the earlier
row-major kernel elimination (with its separate transform matrix) and the
separate echelon loop, as independent oracles: the shared routine must give
the identical kernel tuples, in the same order, and equal lattices.
"""

import random
from fractions import Fraction

import pytest

from bpcentre import truncation_centre
from bpcentre.bp_hopf import EtaRTable
from bpcentre.dvr_arith import (
    DvrLattice,
    commutant,
    echelon_lattice,
    integral_kernel,
    reduce_mod_p_power,
    valuation,
)
from bpcentre.ktheory_lattice import sg_window
from bpcentre.truncation_centre import block_split, centre_commutant, projected_elementary


def oracle_integral_kernel(rows, ncols, p):
    work = [[Fraction(x) for x in row] for row in rows]
    trans = [[Fraction(1 if i == j else 0) for j in range(ncols)] for i in range(ncols)]
    active = list(range(ncols))
    for i in range(len(work)):
        candidates = [j for j in active if work[i][j] != 0]
        if not candidates:
            continue
        piv = min(candidates, key=lambda j: (valuation(work[i][j], p), j))
        for j in active:
            if j == piv or work[i][j] == 0:
                continue
            c = work[i][j] / work[i][piv]
            for r in range(len(work)):
                work[r][j] -= c * work[r][piv]
            for r in range(ncols):
                trans[r][j] -= c * trans[r][piv]
        active.remove(piv)
    kernel = []
    for j in active:
        assert all(work[r][j] == 0 for r in range(len(work)))
        kernel.append(tuple(trans[r][j] for r in range(ncols)))
    return kernel


def oracle_echelon_lattice(p, generators, ambient_rank):
    cols = [[Fraction(x) for x in g] for g in generators]
    active = list(range(len(cols)))
    echelon, pivots = [], []
    for row in range(ambient_rank):
        candidates = [j for j in active if cols[j][row] != 0]
        if not candidates:
            continue
        piv = min(candidates, key=lambda j: (valuation(cols[j][row], p), j))
        e = valuation(cols[piv][row], p)
        for j in active:
            if j == piv or cols[j][row] == 0:
                continue
            c = cols[j][row] / cols[piv][row]
            cols[j] = [x - c * y for x, y in zip(cols[j], cols[piv])]
        unit = Fraction(p) ** e / cols[piv][row]
        echelon.append([unit * x for x in cols[piv]])
        pivots.append((row, e))
        active.remove(piv)
    for j in active:
        assert all(x == 0 for x in cols[j])
    for j, (row, e) in enumerate(pivots):
        mod = Fraction(p) ** e
        for i in range(j):
            x = echelon[i][row]
            q = (x - Fraction(reduce_mod_p_power(x, p, e))) / mod
            echelon[i] = [a - q * b for a, b in zip(echelon[i], echelon[j])]
    return DvrLattice(p, ambient_rank, tuple(tuple(c) for c in echelon), tuple(pivots))


def oracle_commutant_rows(mats, size):
    """Every row of XM - MX, the identically zero ones included."""
    rows = []
    for m in mats:
        for i in range(size):
            for j in range(size):
                row = [Fraction(0)] * (size * size)
                for b in range(size):
                    row[i * size + b] += m[b][j]
                for a in range(size):
                    row[a * size + j] -= m[i][a]
                rows.append(row)
    return rows


def random_entry(rng, p):
    if rng.random() < 0.4:
        return 0
    return rng.choice([1, -1, 2, -2, 7]) * p ** rng.randint(0, 3)


@pytest.mark.parametrize("p", [3, 5])
def test_random_matrices_match_oracles(p):
    rng = random.Random(p)
    for _ in range(150):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 7)
        rows = [[random_entry(rng, p) for _ in range(ncols)] for _ in range(nrows)]
        assert integral_kernel(rows, ncols, p) == oracle_integral_kernel(rows, ncols, p)
        # The rows double as generators of a lattice in Z_(p)^ncols.
        assert echelon_lattice(p, rows, ncols) == oracle_echelon_lattice(p, rows, ncols)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_centre_systems_match_oracle(n, table_p3):
    for r in range(13):
        split = block_split(r, n, 3)
        size = len(split.r_basis)
        mats = [
            projected_elementary(a, b, r, n, table_p3)
            for a in split.r_basis
            for b in split.r_basis
        ]
        rows = oracle_commutant_rows(mats, size)
        expected = oracle_integral_kernel(rows, size * size, 3)
        assert integral_kernel(rows, size * size, 3) == expected, (n, r)
        # commutant drops the zero rows; its basis is the same kernel.
        reshaped = [
            tuple(tuple(vec[i * size + j] for j in range(size)) for i in range(size))
            for vec in expected
        ]
        assert commutant(mats, size, 3) == reshaped, (n, r)
        # The adjacent elementaries alone give the full family's commutant.
        assert centre_commutant(r, n, table_p3)[1] == reshaped, (n, r)


def test_commutant_of_generic_family_matches_oracle():
    rng = random.Random(11)
    for size in range(1, 5):
        mats = [[[random_entry(rng, 3) for _ in range(size)] for _ in range(size)]
                for _ in range(2)]
        rows = oracle_commutant_rows(mats, size)
        expected = oracle_integral_kernel(rows, size * size, 3)
        got = commutant(mats, size, 3)
        assert [sum(m, ()) for m in got] == expected, size


def test_window_systems_match_oracles(monkeypatch):
    """Every kernel and echelon that the phi and diagonal window lattices
    run for N <= 9, recomputed by the oracles."""
    kernels, echelons = [], []

    def record_kernel(rows, ncols, p):
        kernels.append((rows, ncols, p))
        return integral_kernel(rows, ncols, p)

    def record_echelon(p, generators, ambient_rank):
        generators = list(generators)
        echelons.append((p, generators, ambient_rank))
        return echelon_lattice(p, generators, ambient_rank)

    monkeypatch.setattr(truncation_centre, "integral_kernel", record_kernel)
    monkeypatch.setattr(truncation_centre, "echelon_lattice", record_echelon)
    table = EtaRTable(3, 9).populate()  # fresh, so no window is cached
    for N in (0, 1, 2, 5, 9):
        sg, _ = sg_window(3, N)
        for n in (1, 2):
            truncation_centre.diagonal_window_lattice(N, n, table, sg)

    assert len(kernels) == 10
    for rows, ncols, p in kernels:
        assert integral_kernel(rows, ncols, p) == oracle_integral_kernel(rows, ncols, p)
    assert len(echelons) == 20
    for p, generators, ambient_rank in echelons:
        assert echelon_lattice(p, generators, ambient_rank) == \
            oracle_echelon_lattice(p, generators, ambient_rank)
