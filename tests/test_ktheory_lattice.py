import re
from fractions import Fraction

import pytest

from bpcentre import ktheory_lattice
from bpcentre.dvr_arith import echelon_lattice, lattice_membership
from bpcentre.ktheory_lattice import (
    ClosureError,
    StabilizationError,
    adams_sequence,
    compare_with_diagonal_window,
    sg_closure,
    sg_membership,
    sg_window,
)


def test_adams_sequence_examples():
    assert adams_sequence(3, 1, 4) == (1, 1, 1, 1, 1)
    assert adams_sequence(3, 0, 3) == (1, 0, 0, 0)
    assert adams_sequence(3, 2, 3) == (1, 4, 16, 64)
    assert adams_sequence(5, 2, 2) == (1, 16, 256)
    with pytest.raises(ValueError):
        adams_sequence(3, Fraction(1, 3), 2)


def test_sg_window_0_is_full():
    lat, cert = sg_window(3, 0)
    assert lat.rank == 1
    assert lat.elementary_divisors == (0,)
    assert cert.stopped_at_a <= cert.m_cap


def test_sg_window_1_is_full():
    lat, _ = sg_window(3, 1)
    assert lat.elementary_divisors == (0, 0)
    assert lattice_membership((1, 1), lat) is not None
    assert lattice_membership((1, 0), lat) is not None


def test_sg_window_2_frozen():
    lat, _ = sg_window(3, 2)
    assert lat.pivots == ((0, 0), (1, 0), (2, 1))
    assert lat.basis == (
        (Fraction(1), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(1), Fraction(1)),
        (Fraction(0), Fraction(0), Fraction(3)),
    )


def test_generator_membership_certificates():
    p, q = 3, 2
    for N in range(6):
        lat, _ = sg_window(p, N)
        for k in (0, 1, q, q * q, p, p * q):
            cert = sg_membership(adams_sequence(p, k, N), lat)
            assert cert is not None, (N, k)


def test_unit_vector_membership_decided():
    # the top unit vector needs a p-power multiple from window 2 onwards
    lat, _ = sg_window(3, 3)
    assert sg_membership((0, 0, 0, 1), lat) is None
    assert sg_membership((0, 0, 0, 9), lat) is not None


def test_membership_re_expansion_rejects_a_perturbed_certificate(monkeypatch):
    lat, _ = sg_window(3, 4)
    window = adams_sequence(3, 2, 4)
    cert = sg_membership(window, lat)
    assert cert is not None

    def perturbed(v, lattice):
        return (cert[0] + 1,) + cert[1:]

    monkeypatch.setattr(ktheory_lattice, "lattice_membership", perturbed)
    with pytest.raises(AssertionError, match="re-expansion"):
        sg_membership(window, lat)


def test_membership_length_checked():
    lat, _ = sg_window(3, 2)
    with pytest.raises(ValueError):
        sg_membership((1, 1), lat)


def test_window_projections_nested():
    for N in range(1, 7):
        bigger, _ = sg_window(3, N)
        smaller, _ = sg_window(3, N - 1)
        for col in bigger.basis:
            assert lattice_membership(col[:N], smaller) is not None, N


def test_pointwise_product_closure_on_generators():
    for k1 in (0, 1, 2, 3, 6):
        for k2 in (0, 1, 2, 4):
            w1 = adams_sequence(3, k1, 5)
            w2 = adams_sequence(3, k2, 5)
            prod = tuple(a * b for a, b in zip(w1, w2))
            assert prod == adams_sequence(3, k1 * k2, 5)


def patched_sg_window(monkeypatch, p, N, q=None, caps=None, margin=None):
    """sg_window(p, N) with topological_generator, default_caps or MARGIN
    replaced by the given generator, caps or margin."""
    if q is not None:
        monkeypatch.setattr(ktheory_lattice, "topological_generator", lambda p: q)
    if caps is not None:
        monkeypatch.setattr(ktheory_lattice, "default_caps", lambda N: caps)
    if margin is not None:
        monkeypatch.setattr(ktheory_lattice, "MARGIN", margin)
    return sg_window(p, N)


def test_stabilization_reproducible_with_raised_caps(monkeypatch):
    for N in (2, 4):
        lat, cert = sg_window(3, N)
        raised, _ = patched_sg_window(monkeypatch, 3, N,
                                      caps=(cert.m_cap + cert.margin, cert.s_cap))
        monkeypatch.undo()
        assert raised == lat


def test_stabilization_failure_is_loud(monkeypatch):
    with pytest.raises(StabilizationError, match="within the default caps a <= 1 "):
        patched_sg_window(monkeypatch, 3, 6, caps=(1, 0), margin=10)


def test_compare_with_diagonal_window(table_p3):
    report = compare_with_diagonal_window(0, 1, table_p3, sg_window(3, 0)[0])
    assert report["inclusion"] is True
    assert report["sg"] == [0]
    assert report["diagonal"] == [0]
    assert report["gap"] == 0

    report = compare_with_diagonal_window(3, 2, table_p3, sg_window(3, 3)[0])
    assert report["inclusion"] is True
    assert report["gap"] is not None
    assert report["gap"] >= 0


# No option raises the caps: the defaults must stabilize and close S_g.
@pytest.mark.parametrize("p,N", [(p, N) for p in (3, 5, 7, 11, 13) for N in range(13)]
                         + [(3, 13)])
def test_sg_closure_holds_at_default_caps(p, N):
    sg, cert = sg_window(p, N)
    q = cert.q
    assert sg_closure((sg, cert)) == (p**4, p**4 * q, q ** (N + 9))


@pytest.mark.parametrize("N,caps,missing", [(13, (21, 1), [9, 18]), (5, (13, 0), [3, 6])])
def test_sg_closure_fails_when_the_caps_stop_short(N, caps, missing, monkeypatch):
    sg = patched_sg_window(monkeypatch, 3, N, caps=caps)
    with pytest.raises(ClosureError, match=re.escape(f"k={missing}")):
        sg_closure(sg)


# The smallest generator of the units mod p^2, and every Adams parameter
# p^s * q^a within the caps (M, S), plus 0: the span that the diagonal
# window lattice relies on S_g to be.
ORACLE_Q = {3: 2, 5: 2, 7: 3}


def adams_span_oracle(p, N, q, caps):
    m_cap, s_cap = caps
    keys = [0] + [p**s * q**a for s in range(s_cap + 1) for a in range(m_cap + 1)]
    return echelon_lattice(p, [adams_sequence(p, k, N) for k in keys], N + 1)


def oracle_sg_window(p, N, q=None, caps=None, margin=4):
    """The stabilization loop that re-echelons at every step:
    (lattice, last_changed_a, stopped_at_a)."""
    q = ORACLE_Q[p] if q is None else q
    m_cap, s_cap = caps if caps is not None else (N + 8, 3)
    lattice = echelon_lattice(p, [adams_sequence(p, 0, N)], N + 1)
    streak, last_changed = 0, -1
    for a in range(m_cap + 1):
        batch = [adams_sequence(p, p**s * q**a, N) for s in range(s_cap + 1)]
        grown = echelon_lattice(p, list(lattice.basis) + batch, N + 1)
        if grown == lattice:
            streak += 1
        else:
            streak, last_changed, lattice = 0, a, grown
        if streak >= margin:
            return lattice, last_changed, a
    raise AssertionError("the oracle loop did not stabilize")


SPAN_CASES = (
    [(3, N, {}) for N in range(14)]
    + [(5, N, {}) for N in range(9)]
    + [(7, N, {}) for N in range(6)]
    + [(3, N, {"margin": m}) for N in (5, 9) for m in (1, 2)]
    + [(3, 13, {"caps": (21, 1)}), (3, 5, {"caps": (13, 0)})]
    + [(3, N, {"q": 5}) for N in (5, 9)]
)


@pytest.mark.parametrize("p,N,options", SPAN_CASES, ids=[
    ",".join([f"p={p}", f"N={N}"] + [f"{k}={v}" for k, v in options.items()])
    for p, N, options in SPAN_CASES])
def test_sg_window_is_the_span_of_every_adams_window_within_the_caps(p, N, options,
                                                                    monkeypatch):
    lat, cert = patched_sg_window(monkeypatch, p, N, **options)
    q = options.get("q", ORACLE_Q[p])
    caps = options.get("caps", (N + 8, 3))
    assert (cert.q, cert.m_cap, cert.s_cap, cert.margin) == (q, *caps, options.get("margin", 4))
    assert lat == adams_span_oracle(p, N, q, caps)
    # The membership short-cut reaches the same steps as re-echeloning each.
    assert (lat, cert.last_changed_a, cert.stopped_at_a) == oracle_sg_window(p, N, **options)
