from fractions import Fraction

import pytest

from bpcentre.dvr_arith import lattice_membership, mat_mul, scalar_value
from bpcentre.ktheory_lattice import sg_window
from bpcentre.op_calculus import ConsistencyError
from bpcentre.truncation_centre import (
    block_split,
    centre_commutant,
    diagonal_window_lattice,
    iota_hat_n_window,
    projected_elementary,
)


def test_block_split_examples():
    s = block_split(4, 1, 3)
    assert s.r_basis == ((4,),)
    assert tuple(s.basis[i] for i in s.j_indices) == ((0, 1),)

    s = block_split(4, 2, 3)
    assert s.r_basis == ((4,), (0, 1))
    assert tuple(s.basis[i] for i in s.j_indices) == ()

    s = block_split(13, 2, 3)
    assert tuple(s.basis[i] for i in s.j_indices) == ((0, 0, 1),)
    assert (13,) in s.r_basis and (9, 1) in s.r_basis

    with pytest.raises(ValueError):
        block_split(4, 0, 3)


def test_projected_elementary_examples(table_p3):
    m = projected_elementary((4,), (4,), 4, 1, table_p3)
    assert block_split(4, 1, 3).r_basis == ((4,),)
    assert m == ((Fraction(81),),)

    with pytest.raises(ValueError):
        projected_elementary((0, 1), (0, 1), 4, 1, table_p3)


def test_projected_full_family_weight8_height2(table_p3):
    split = block_split(8, 2, 3)
    assert len(split.r_basis) == 3  # no height-2 ideal in weight 8
    for alpha in split.r_basis:
        for beta in split.r_basis:
            m = projected_elementary(alpha, beta, 8, 2, table_p3)
            ia, ib = split.r_basis.index(alpha), split.r_basis.index(beta)
            nonzero = [(i, j) for i in range(3) for j in range(3)
                       if m[i][j] != 0]
            assert nonzero == [(ia, ib)]


def test_projected_equals_unrestricted_when_ideal_empty(table_p3):
    # at height 3 no weight-4 monomial meets the ideal
    full = projected_elementary((4,), (0, 1), 4, 3, table_p3)
    assert block_split(4, 3, 3).r_basis == ((4,), (0, 1))
    assert full == (
        (Fraction(0), Fraction(3)),
        (Fraction(0), Fraction(0)),
    )


@pytest.mark.parametrize("r,n", [(0, 1), (4, 1), (8, 2)])
def test_centre_commutant_rank_one(r, n, table_p3):
    rank, basis = centre_commutant(r, n, table_p3)
    assert rank == 1
    m = basis[0]
    c = m[0][0]
    size = len(m)
    assert all(m[i][j] == (c if i == j else 0)
               for i in range(size) for j in range(size))


def test_diagonal_window_lattice_n0_full(table_p3):
    lat = diagonal_window_lattice(0, 1, table_p3, sg_window(3, 0)[0])
    assert lat.rank == 1
    assert lat.elementary_divisors == (0,)


def test_all_ones_window_in_lattice(table_p3):
    for n in (1, 2):
        lat = diagonal_window_lattice(3, n, table_p3, sg_window(3, 3)[0])
        ones = tuple(Fraction(1) for _ in range(4))
        assert lattice_membership(ones, lat) is not None


def test_sg_window_contained_in_diagonal(table_p3):
    for N in range(4):
        for n in (1, 2):
            sg, _ = sg_window(3, N)
            diag = diagonal_window_lattice(N, n, table_p3, sg)
            for col in sg.basis:
                assert lattice_membership(col, diag) is not None, (N, n, col)


def test_monotone_refinement(table_p3):
    for n in (1, 2):
        bigger = diagonal_window_lattice(3, n, table_p3, sg_window(3, 3)[0])
        smaller = diagonal_window_lattice(2, n, table_p3, sg_window(3, 2)[0])
        for col in bigger.basis:
            assert lattice_membership(col[:3], smaller) is not None


def test_window_bound_checked(table_p3):
    with pytest.raises(ValueError):
        diagonal_window_lattice(table_p3.max_weight + 1, 1, table_p3,
                                sg_window(3, table_p3.max_weight + 1)[0])


def test_diagonal_window_lattice_rejects_a_foreign_sg(table_p3):
    for sg in (sg_window(3, 2)[0], sg_window(5, 3)[0]):
        with pytest.raises(ValueError, match="S_g must be a window-3 lattice at p=3"):
            diagonal_window_lattice(3, 1, table_p3, sg)


def test_iota_identity_window():
    mats = iota_hat_n_window(3, {1: 1}, 4, 1)
    assert [scalar_value(m) for m in mats] == [Fraction(1)] * 5


def test_iota_adams_window():
    mats = iota_hat_n_window(3, {2: 1}, 3, 1)
    assert [scalar_value(m) for m in mats] == [1, 4, 16, 64]


def test_iota_difference_window():
    mats = iota_hat_n_window(3, {1: 1, 0: -1}, 3, 2)
    assert [scalar_value(m) for m in mats] == [0, 1, 1, 1]


def test_iota_rejects_non_integral():
    with pytest.raises(ValueError):
        iota_hat_n_window(3, {Fraction(1, 3): 1}, 2, 1)
    with pytest.raises(ValueError):
        iota_hat_n_window(3, {2: Fraction(1, 3)}, 2, 1)


def test_iota_windows_lie_in_diagonal_lattice(table_p3):
    combos = [{1: 1}, {0: 1}, {2: 1}, {1: 1, 0: -1}, {2: 1, 1: -1}, {6: 1}]
    for n in (1, 2):
        lat = diagonal_window_lattice(3, n, table_p3, sg_window(3, 3)[0])
        for combo in combos:
            mats = iota_hat_n_window(3, combo, 3, n)
            window = tuple(scalar_value(m) for m in mats)
            assert all(c is not None for c in window)
            assert lattice_membership(window, lat) is not None, combo


def test_iota_matrices_commute_with_projected_family(table_p3):
    for n in (1, 2):
        for combo in ({2: 1}, {0: 1}, {3: 1, 1: 2}):
            mats = iota_hat_n_window(3, combo, 6, n)
            for r in range(7):
                split = block_split(r, n, 3)
                for alpha in split.r_basis:
                    for beta in split.r_basis:
                        e = projected_elementary(alpha, beta, r, n, table_p3)
                        assert mat_mul(mats[r], e) == mat_mul(e, mats[r])
