import itertools
import random
from fractions import Fraction

import pytest

from bpcentre.dvr_arith import (
    INFINITY,
    commutant,
    echelon_lattice,
    generates_units_mod_p2,
    integral_kernel,
    is_integral,
    lattice_membership,
    mat_mul,
    reduce_mod_p_power,
    scalar_value,
    topological_generator,
    valuation,
)


def test_valuation_examples():
    assert valuation(1, 3) == 0
    assert valuation(Fraction(18, 7), 3) == 2
    assert valuation(0, 3) == INFINITY
    assert valuation(Fraction(5, 9), 3) == -2


def test_valuation_input_types_and_non_prime():
    for x, v in [(-54, 3), (True, 0), ("5/9", -2), (0.5, 0), (Fraction(0), INFINITY)]:
        assert valuation(x, 3) == v, x
    for _ in range(2):  # a rejected prime is rejected again, not remembered
        for p in (1, 4, 9):
            with pytest.raises(ValueError, match="not prime"):
                valuation(3, p)


def test_valuation_ultrametric():
    rng = random.Random(2)
    for _ in range(300):
        x = Fraction(rng.randint(-50, 50), rng.choice([1, 2, 5, 7]))
        y = Fraction(rng.randint(-50, 50), rng.choice([1, 2, 5, 7]))
        assert valuation(x * y, 3) == valuation(x, 3) + valuation(y, 3)
        assert valuation(x + y, 3) >= min(valuation(x, 3), valuation(y, 3))


def test_is_integral():
    assert is_integral(Fraction(2, 7), 3)
    assert not is_integral(Fraction(1, 3), 3)


def test_reduce_mod_p_power():
    assert reduce_mod_p_power(Fraction(1, 2), 3, 2) == 5  # 2*5 = 10 = 1 mod 9
    assert reduce_mod_p_power(7, 3, 1) == 1
    assert reduce_mod_p_power(Fraction(4), 3, 0) == 0
    with pytest.raises(ValueError):
        reduce_mod_p_power(Fraction(1, 3), 3, 2)


def test_topological_generator():
    assert topological_generator(3) == 2
    assert topological_generator(5) == 2
    assert topological_generator(7) == 3
    with pytest.raises(ValueError):
        topological_generator(2)


def order_loop_generates(q, p):
    """Reference: step through the powers of q mod p^2 until 1."""
    mod = p * p
    if q % p == 0:
        return False
    order, acc = 1, q % mod
    while acc != 1:
        acc = acc * q % mod
        order += 1
    return order == p * (p - 1)


def test_generates_units_matches_order_loop():
    for p in (x for x in range(3, 60, 2) if all(x % d for d in range(3, x, 2))):
        for q in range(-3, p * p + 5):
            assert generates_units_mod_p2(q, p) == order_loop_generates(q, p), (p, q)


def test_echelon_full_lattice():
    lat = echelon_lattice(3, [(1, 0), (0, 1)], 2)
    assert lat.pivots == ((0, 0), (1, 0))
    assert lat.basis == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_echelon_mixed_pivots():
    lat = echelon_lattice(3, [(3, 0), (0, 1), (3, 3)], 2)
    assert lat.pivots == ((0, 1), (1, 0))
    assert lat.basis == ((Fraction(3), Fraction(0)), (Fraction(0), Fraction(1)))
    assert lat.elementary_divisors == (1, 0)


def test_echelon_unit_normalization():
    lat = echelon_lattice(3, [(2, 4)], 2)
    assert lat.pivots == ((0, 0),)
    assert lat.basis == ((Fraction(1), Fraction(2)),)


def test_echelon_rejects_non_integral():
    with pytest.raises(ValueError):
        echelon_lattice(3, [(Fraction(1, 3), 1)], 2)
    with pytest.raises(ValueError):
        echelon_lattice(3, [(1, 1, 1)], 2)


def test_echelon_idempotent_and_order_invariant():
    rng = random.Random(3)
    for _ in range(60):
        m = rng.randint(1, 4)
        gens = [
            tuple(Fraction(rng.randint(-20, 20) * 3 ** rng.randint(0, 2),
                           rng.choice([1, 2, 7])) for _ in range(m))
            for _ in range(rng.randint(1, 5))
        ]
        lat = echelon_lattice(3, gens, m)
        again = echelon_lattice(3, lat.basis, m)
        assert lat == again
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert echelon_lattice(3, shuffled, m) == lat


def test_membership_examples():
    full = echelon_lattice(3, [(1, 0), (0, 1)], 2)
    assert lattice_membership((7, Fraction(5, 2)), full) is not None
    sub = echelon_lattice(3, [(3, 0), (0, 1)], 2)
    assert lattice_membership((1, 0), sub) is None
    assert lattice_membership((3, 1), sub) == (Fraction(1), Fraction(1))
    with pytest.raises(ValueError):
        lattice_membership((1, 0, 0), sub)


def test_membership_certificate_soundness():
    rng = random.Random(4)
    for _ in range(50):
        m = rng.randint(1, 4)
        gens = [
            tuple(Fraction(rng.randint(-9, 9) * 3 ** rng.randint(0, 2)) for _ in range(m))
            for _ in range(rng.randint(1, 4))
        ]
        lat = echelon_lattice(3, gens, m)
        coeffs = [Fraction(rng.randint(-6, 6)) for _ in lat.basis]
        v = [Fraction(0)] * m
        for c, col in zip(coeffs, lat.basis):
            v = [x + c * y for x, y in zip(v, col)]
        cert = lattice_membership(tuple(v), lat)
        assert cert is not None
        rebuilt = [Fraction(0)] * m
        for c, col in zip(cert, lat.basis):
            rebuilt = [x + c * y for x, y in zip(rebuilt, col)]
        assert rebuilt == v


def test_integral_kernel_exactness_and_saturation():
    rng = random.Random(5)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6) * 3 ** rng.randint(0, 1)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        kernel = integral_kernel(rows, ncols, 3)
        for vec in kernel:
            assert all(is_integral(x, 3) for x in vec)
            for row in rows:
                assert sum(r * x for r, x in zip(row, vec)) == 0
        # saturation: any integral rational combination of the kernel basis
        # must again be an integral combination of it
        if kernel:
            lat = echelon_lattice(3, kernel, ncols)
            coeffs = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 9]))
                      for _ in kernel]
            v = [Fraction(0)] * ncols
            for c, vec in zip(coeffs, kernel):
                v = [x + c * y for x, y in zip(v, vec)]
            if all(is_integral(x, 3) for x in v):
                assert lattice_membership(tuple(v), lat) is not None


def test_integral_kernel_rank_complements_row_space():
    # kernel of [[3, 1, 0]] over Z_(3): rank 2, saturated
    kernel = integral_kernel([[3, 1, 0]], 3, 3)
    assert len(kernel) == 2
    lat = echelon_lattice(3, kernel, 3)
    assert lattice_membership((1, -3, 0), lat) is not None
    assert lattice_membership((0, 0, 1), lat) is not None


def _elementary(size, i, j):
    return tuple(
        tuple(Fraction(1 if (a, b) == (i, j) else 0) for b in range(size))
        for a in range(size)
    )


@pytest.mark.parametrize("size", [2, 3])
def test_commutant_of_full_elementary_family(size):
    mats = [_elementary(size, i, j) for i in range(size) for j in range(size)]
    basis = commutant(mats, size, 3)
    assert len(basis) == 1
    m = basis[0]
    c = m[0][0]
    assert all(m[i][j] == (c if i == j else 0) for i in range(size) for j in range(size))
    assert valuation(c, 3) == 0  # saturated: the identity itself


def test_commutant_empty_family_is_everything():
    assert len(commutant([], 2, 3)) == 4


def test_commutant_of_diagonal():
    diag = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(2)))
    basis = commutant([diag], 2, 3)
    assert len(basis) == 2
    for m in basis:
        assert m[0][1] == 0 and m[1][0] == 0


def test_commutant_remultiplication():
    rng = random.Random(6)
    for _ in range(20):
        size = rng.randint(1, 3)
        mats = [
            tuple(tuple(Fraction(rng.randint(-4, 4)) for _ in range(size))
                  for _ in range(size))
            for _ in range(rng.randint(1, 3))
        ]
        for x in commutant(mats, size, 3):
            for m in mats:
                assert mat_mul(x, m) == mat_mul(m, x)


def test_scalar_value():
    one, zero = Fraction(1), Fraction(0)
    assert scalar_value(()) == 0
    assert scalar_value(((Fraction(5),),)) == 5
    assert scalar_value(((Fraction(-2), zero), (zero, Fraction(-2)))) == -2
    assert scalar_value(_elementary(3, 0, 0)) is None
    assert scalar_value(((one, one), (zero, one))) is None  # off-diagonal entry
    assert scalar_value(((zero, one), (zero, zero))) is None
    assert scalar_value(((one, zero), (zero, Fraction(2)))) is None  # unequal diagonal
    assert scalar_value(((one, zero),)) is None  # not square
