"""Each guard against a malformed argument refuses it, with its message.

These are the safety paths that the commands never take on valid input:
the immutability guard, mixed primes and layouts, a monomial that does not
fit its layout, a product by a scalar or a power (a polynomial has one
product, by a polynomial), index and bound checks, shape mismatches and a
vanishing diagonal.
"""

import pytest

from bpcentre.bp_hopf import EtaRTable, GradedPoly, _layout, hazewinkel_m
from bpcentre.cli_report import main
from bpcentre.dvr_arith import commutant, integral_kernel, mat_mul
from bpcentre.ktheory_lattice import sg_window
from bpcentre.monomial_order import enumerate_weight, generator_weight, in_ideal
from bpcentre.op_calculus import ConsistencyError, solve_column


def one(p):
    return GradedPoly.const(p, 1, _layout(1, p))


REFUSALS = {
    "immutable": (lambda: setattr(one(3), "p", 5), AttributeError, "GradedPoly is immutable"),
    "sum-mixed-primes": (lambda: GradedPoly.sum(3, [one(3), one(5)]), ValueError,
                         "mixed primes"),
    "mul-mixed-primes": (lambda: one(3) * one(5), ValueError, "mixed primes"),
    "sum-mixed-layouts": (lambda: GradedPoly.sum(3, [one(3), GradedPoly.const(3, 1, _layout(4, 3))]),
                          ValueError, "mixed primes or layouts"),
    "mul-mixed-layouts": (lambda: one(3) * GradedPoly.const(3, 1, _layout(4, 3)), ValueError,
                          "mixed primes or layouts"),
    "pack-past-the-fields": (lambda: GradedPoly(3, {((0, 1), ()): 1}, _layout(3, 3)), OverflowError,
                             r"\(\(0, 1\), \(\)\) does not fit the fields of Layout\(bound=3"),
    "mul-by-int": (lambda: one(3) * 2, TypeError,
                   r"unsupported operand type\(s\) for \*: 'GradedPoly' and 'int'"),
    "pow": (lambda: one(3) ** 2, TypeError,
            r"unsupported operand type\(s\) for \*\* or pow\(\): 'GradedPoly' and 'int'"),
    "hazewinkel-negative-index": (lambda: hazewinkel_m(3, -1, _layout(1, 3)), ValueError,
                                  "index must be non-negative"),
    "table-negative-bound": (lambda: EtaRTable(3, -1), ValueError,
                             "max_weight must be non-negative"),
    "mat-mul-shapes": (lambda: mat_mul(((1, 2),), ((1, 2),)), ValueError,
                       "matrix size mismatch"),
    "kernel-row-length": (lambda: integral_kernel([(1, 2)], 3, 3), ValueError,
                          "row length mismatch"),
    "commutant-not-square": (lambda: commutant([((1, 0),)], 2, 3), ValueError,
                             "square of the given size"),
    "sg-negative-window": (lambda: sg_window(3, -1), ValueError,
                           "window bound must be non-negative"),
    "generator-index": (lambda: generator_weight(0, 3), ValueError,
                        "generator index must be >= 1"),
    "negative-weight": (lambda: enumerate_weight(-1, 3), ValueError,
                        "weight must be non-negative"),
    "negative-height": (lambda: in_ideal((1,), -1), ValueError,
                        "height must be non-negative"),
    "vanishing-diagonal": (lambda: solve_column([(4,), (0, 1)], ((1, 0), (1, 0)), 0, 3),
                           ConsistencyError, r"vanishing diagonal mu at \(0, 1\)"),
}


@pytest.mark.parametrize("call, error, message", REFUSALS.values(), ids=REFUSALS)
def test_refusal(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("c, text", [(5, "5"), (-5, "-5"), (1, "1")])
def test_str_of_a_constant(c, text):
    assert str(GradedPoly.const(3, c, _layout(1, 3))) == text


def test_inhomogeneous_generator_fails_eta_table(tmp_path, capsys, monkeypatch):
    # eta_R(v_1) planted as v_1 + v_2, weights 1 and 4, claiming weight 4:
    # _store refuses it, and the command says so without writing a cache.
    layout = _layout(4, 3)
    planted = GradedPoly._trusted(
        3, {layout.pack((1,), ()): 1, layout.pack((0, 1), ()): 1}, 4, layout)
    monkeypatch.setattr(EtaRTable, "_eta_generator", lambda self, k: planted)
    code = main(["eta-table", "--p", "3", "--max-weight", "4",
                 "--cache", str(tmp_path / "cache")])
    assert code == 1
    assert capsys.readouterr().out == (
        "FAIL integrality: eta_R(v^(1,)) is not homogeneous of weight 1\n")
    assert not (tmp_path / "cache").exists()


def test_generator_with_a_term_of_another_weight_fails_eta_table(tmp_path, capsys, monkeypatch):
    # eta_R(v_1) planted as v_1 + v_2 claiming weight 1, the weight of v_1:
    # a generator's terms are each weighed, so v_2 (weight 4) is refused.  The
    # table's layout (weight 3) has no field for v_2, so the plant is packed
    # at the layout of weight 4.
    layout = _layout(4, 3)
    planted = GradedPoly._trusted(
        3, {layout.pack((1,), ()): 1, layout.pack((0, 1), ()): 1}, 1, layout)
    real = EtaRTable._eta_generator
    monkeypatch.setattr(EtaRTable, "_eta_generator",
                        lambda self, k: planted if k == 1 else real(self, k))
    code = main(["eta-table", "--p", "3", "--max-weight", "3",
                 "--cache", str(tmp_path / "cache")])
    assert code == 1
    assert capsys.readouterr().out == (
        "FAIL integrality: eta_R(v^(1,)) is not homogeneous of weight 1\n")
    assert not (tmp_path / "cache").exists()


def test_a_layout_one_bit_too_narrow_fails_the_command(tmp_path, capsys, narrow_layouts):
    # verify all at p=3 W=15 with fields one bit too narrow: the build stops at
    # the first product that outgrows a field, and the command says so with
    # exit 1, without writing a cache.
    code = main(["verify", "all", "--p", "3", "--max-weight", "15",
                 "--cache", str(tmp_path / "cache")])
    assert code == 1
    assert capsys.readouterr().out.startswith(
        "FAIL carry: eta_R(v^(8,)): a product of weight 8 overflows the fields of "
        "Layout(bound=15, bits=3, ")
    assert not (tmp_path / "cache").exists()
