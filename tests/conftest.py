from itertools import product

import pytest

from bpcentre.bp_hopf import EtaRTable
from bpcentre.monomial_order import enumerate_weight


@pytest.fixture(scope="session")
def table_p3():
    """Right-unit table at p=3 up to weight 13 (covers v_3)."""
    return EtaRTable(3, 13).populate()


@pytest.fixture(scope="session")
def table_p5():
    """Right-unit table at p=5 up to weight 6."""
    return EtaRTable(5, 6).populate()


def phi_pairs(p, N):
    """The (alpha, beta) of every phi(alpha, beta) of weight at most N; the
    weight-0 pair ((), ()) is the counit."""
    return [pair for r in range(N + 1) for pair in product(enumerate_weight(r, p), repeat=2)]
