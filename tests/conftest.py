from itertools import product

import pytest

from bpcentre import bp_hopf
from bpcentre.bp_hopf import EtaRTable, Layout
from bpcentre.monomial_order import enumerate_weight, max_generator_index


@pytest.fixture(scope="session")
def table_p3():
    """Right-unit table at p=3 up to weight 13 (covers v_3)."""
    return EtaRTable(3, 13).populate()


@pytest.fixture(scope="session")
def table_p5():
    """Right-unit table at p=5 up to weight 6."""
    return EtaRTable(5, 6).populate()


@pytest.fixture
def narrow_layouts(monkeypatch):
    """Every layout built while the fixture is active has fields one bit too
    narrow for its weight bound."""
    def narrowed(bound, p):
        bits, fields = bound.bit_length() - 1, max_generator_index(bound, p)
        guard = sum(1 << (i + 1) * (bits + 1) - 1 for i in range(2 * fields))
        shift = fields * (bits + 1)
        return Layout(bound, bits, shift, (1 << shift) - 1, guard)

    monkeypatch.setattr(bp_hopf, "_layout", narrowed)


def phi_pairs(p, N):
    """The (alpha, beta) of every phi(alpha, beta) of weight at most N; the
    weight-0 pair ((), ()) is the counit."""
    return [pair for r in range(N + 1) for pair in product(enumerate_weight(r, p), repeat=2)]
