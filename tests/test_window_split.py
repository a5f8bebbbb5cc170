"""The window lattices against the monolithic system.

``monolithic_window_lattice`` keeps the single kernel over phi, Adams and
window unknowns, with every action matrix built by GradedPoly arithmetic and
the list of Adams parameters as an argument, as an independent oracle: with
the parameters of the default caps it gives the diagonal window lattice
L_phi + S_g, and with none it gives L_phi.
"""

import pytest

from bpcentre import op_calculus, truncation_centre
from bpcentre.bp_hopf import EtaRTable
from bpcentre.dvr_arith import (
    echelon_lattice,
    integral_kernel,
    lattice_membership,
    topological_generator,
)
from bpcentre.ktheory_lattice import sg_window
from bpcentre.monomial_order import max_generator_index
from bpcentre.op_calculus import action_matrix
from bpcentre.truncation_centre import (
    block_split,
    diagonal_window_lattice,
    phi_window_lattice,
)
from conftest import phi_pairs


def default_adams_keys(p, N):
    q = topological_generator(p)
    return [0] + [p**s * q**a for s in range(4) for a in range(N + 9)]


def monolithic_window_lattice(N, n, table, adams_keys):
    p = table.p
    gens = phi_pairs(p, N)
    n_gen, n_adams = len(gens), len(adams_keys)
    n_vars = n_gen + n_adams + (N + 1)
    rows = []
    for r in range(N + 1):
        split = block_split(r, n, p)
        actions = [action_matrix(alpha, beta, r, table) for alpha, beta in gens]
        for i in range(len(split.r_basis)):
            for j in range(len(split.basis)):
                row = [0] * n_vars
                for g_idx in range(n_gen):
                    row[g_idx] = actions[g_idx][i][j]
                if i == j:
                    for k_idx, k in enumerate(adams_keys):
                        row[n_gen + k_idx] = k ** ((p - 1) * r)
                    row[n_gen + n_adams + r] = -1
                rows.append(row)
    kernel = integral_kernel(rows, n_vars, p)
    return echelon_lattice(p, [vec[n_gen + n_adams:] for vec in kernel], N + 1)


@pytest.mark.parametrize("N", range(6))
def test_split_matches_monolithic_p3(N, table_p3):
    for n in (1, 2, 3):
        assert diagonal_window_lattice(N, n, table_p3, sg_window(3, N)[0]) == \
            monolithic_window_lattice(N, n, table_p3, default_adams_keys(3, N)), (N, n)


@pytest.mark.parametrize("N", range(5))
def test_split_matches_monolithic_p5(N, table_p5):
    for n in (1, 2):
        assert diagonal_window_lattice(N, n, table_p5, sg_window(5, N)[0]) == \
            monolithic_window_lattice(N, n, table_p5, default_adams_keys(5, N)), (N, n)


@pytest.fixture(scope="module")
def tables(table_p3):
    return {3: table_p3, 5: EtaRTable(5, 14).populate(), 7: EtaRTable(7, 10).populate()}


@pytest.mark.parametrize("p, N", [
    *[(3, N) for N in range(14)], *[(5, N) for N in range(15)], *[(7, N) for N in range(11)],
])
def test_phi_window_lattice_matches_monolithic(p, N, tables):
    for n in (1, 2, 3, 4) if p == 3 else (1, 2):
        assert phi_window_lattice(N, n, tables[p]) == \
            monolithic_window_lattice(N, n, tables[p], []), (p, N, n)


@pytest.mark.parametrize("p, N", [(3, 0), (3, 5), (3, 13), (5, 8)])
def test_phi_window_lattice_above_the_top_generator(p, N, tables, monkeypatch):
    """Above h = max(1, max_generator_index(N)), L_phi is the memoized
    height-h lattice itself, and equals a fresh solve at each such height."""
    table = tables[p]
    h = max(1, max_generator_index(N, p))
    lattice = phi_window_lattice(N, h, table)
    for n in (h + 1, h + 2):
        assert phi_window_lattice(N, n, table) is lattice, n
    # An empty memo, and no height above which the shortcut applies.
    monkeypatch.setitem(op_calculus._PER_TABLE, table, {})
    monkeypatch.setattr(truncation_centre, "max_generator_index", lambda N, p: h + 2)
    for n in (h + 1, h + 2):
        assert phi_window_lattice(N, n, table) == lattice, n


def test_phi_windows_lie_in_sg_with_a_gap(table_p3):
    for n in (1, 2, 3):
        phi = phi_window_lattice(5, n, table_p3)
        sg, _ = sg_window(3, 5)
        for col in phi.basis:
            assert lattice_membership(col, sg) is not None, (n, col)
        assert phi.rank == sg.rank
        assert phi.colength() - sg.colength() == 8


def test_phi_window_lattice_bound_checked(table_p3):
    with pytest.raises(ValueError):
        phi_window_lattice(table_p3.max_weight + 1, 1, table_p3)
