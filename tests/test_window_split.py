"""The diagonal window lattice as L_phi + L_A, against the monolithic system.

``monolithic_window_lattice`` keeps the single kernel over phi, Adams and
window unknowns, with every action matrix built by GradedPoly arithmetic,
as an independent oracle for the split computation.
"""

from fractions import Fraction

import pytest

from bpcentre.dvr_arith import echelon_lattice, integral_kernel, lattice_membership
from bpcentre.ktheory_lattice import adams_sequence, sg_window
from bpcentre.monomial_order import enumerate_weight
from bpcentre.op_calculus import action_matrix, stable_generators
from bpcentre.truncation_centre import (
    adams_window_lattice,
    block_split,
    default_adams_keys,
    diagonal_window_lattice,
    phi_actions,
    phi_window_lattice,
)


def monolithic_window_lattice(N, n, table):
    p = table.p
    adams_keys = default_adams_keys(p, N)
    gens = stable_generators(p, N)
    n_gen, n_adams = len(gens), len(adams_keys)
    n_vars = n_gen + n_adams + (N + 1)
    rows = []
    for r in range(N + 1):
        split = block_split(r, n, p)
        actions = [action_matrix(g, r, table) for g in gens]
        for i in split.r_indices:
            for j in range(len(split.basis)):
                row = [Fraction(0)] * n_vars
                for g_idx in range(n_gen):
                    row[g_idx] = actions[g_idx][i][j]
                if i == j:
                    for k_idx, k in enumerate(adams_keys):
                        row[n_gen + k_idx] = Fraction(k) ** ((p - 1) * r)
                    row[n_gen + n_adams + r] = Fraction(-1)
                rows.append(row)
    kernel = integral_kernel(rows, n_vars, p)
    return echelon_lattice(p, [vec[n_gen + n_adams:] for vec in kernel], N + 1)


@pytest.mark.parametrize("N", range(6))
def test_split_matches_monolithic_p3(N, table_p3):
    for n in (1, 2, 3):
        assert diagonal_window_lattice(N, n, table_p3) == \
            monolithic_window_lattice(N, n, table_p3), (N, n)


@pytest.mark.parametrize("N", range(5))
def test_split_matches_monolithic_p5(N, table_p5):
    for n in (1, 2):
        assert diagonal_window_lattice(N, n, table_p5) == \
            monolithic_window_lattice(N, n, table_p5), (N, n)


@pytest.mark.parametrize("p", [3, 5])
def test_phi_actions_match_action_matrix(p, table_p3, table_p5):
    table = table_p3 if p == 3 else table_p5
    gens = stable_generators(p, 6)
    for r in range(7):
        size = len(enumerate_weight(r, p))
        actions = phi_actions(r, table)
        for g_idx, g in enumerate(gens):
            expected = action_matrix(g, r, table)
            got = tuple(
                tuple(actions.get((i, j), {}).get(g_idx, Fraction(0))
                      for j in range(size))
                for i in range(size)
            )
            assert got == expected, (p, r, g.name)


def test_adams_lattice_spans_the_adams_windows():
    keys = tuple(default_adams_keys(3, 4))
    lat = adams_window_lattice(3, 4, keys)
    for k in keys:
        assert lattice_membership(adams_sequence(3, k, 4), lat) is not None, k
    assert adams_window_lattice(3, 4, keys) is lat


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
