"""Height-n truncations at the coefficient level and the centre computation.

At height n, the weight-r monomial basis splits into the block R of
monomials on the first n generators and the block J of monomials divisible
by a higher generator; every R monomial precedes every J monomial in the
right-lex order.  A realized elementary operation vanishes on all of J, so
its restriction to R is the honest action on the truncated theory, and the
commutant of the adjacent E_(a, a+1), E_(a+1, a) is the desk-scale centre.

The window lattice collects, for all weights up to a bound simultaneously,
the scalar sequences realizable by integral combinations of the generating
operations (the spanning degree-zero functionals together with the Adams
family) whose action preserves the J block and is scalar on R modulo J.
Adams operations act as scalars, so that lattice is the sum of the windows
of the functionals alone (forward substitution, then a dual kernel) and the
span S_g of the Adams windows, which ``ktheory_lattice`` builds and certifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .bp_hopf import EtaRTable
from .dvr_arith import (
    DvrLattice,
    Matrix,
    commutant,
    echelon_lattice,
    integral_kernel,
    is_integral,
    valuation,
)
from .monomial_order import (Exp, add, enumerate_weight, in_ideal, max_generator_index,
                             normalize, weight)
from .op_calculus import ConsistencyError, adams_sequence, per_table, realizations


@dataclass(frozen=True)
class BlockSplit:
    """Positions in a weight-r basis of the R and J blocks at height n."""

    basis: tuple[Exp, ...]
    r_indices: tuple[int, ...]
    j_indices: tuple[int, ...]

    @property
    def r_basis(self) -> tuple[Exp, ...]:
        return tuple(self.basis[i] for i in self.r_indices)


def block_split(r: int, n: int, p: int) -> BlockSplit:
    """Split the weight-r basis at height n and certify the block order."""
    if n < 1:
        raise ValueError("height must be at least 1")
    basis = tuple(enumerate_weight(r, p))
    r_idx = tuple(i for i, a in enumerate(basis) if not in_ideal(a, n))
    j_idx = tuple(i for i, a in enumerate(basis) if in_ideal(a, n))
    if r_idx != tuple(range(len(r_idx))):
        raise ConsistencyError(
            f"block order violated in weight {r} at height {n}: R indices {r_idx}"
        )
    return BlockSplit(basis=basis, r_indices=r_idx, j_indices=j_idx)


def projected_elementary(alpha, beta, r: int, n: int, table: EtaRTable) -> Matrix:
    """R-block matrix of the realized elementary operation at height n.

    The realized combination acts on the full weight-r basis as a p-power
    multiple of a single elementary matrix, killing every J column, so it
    descends to the truncation: mu_bar * E_(alpha, beta) on the R basis, with
    mu_bar from :func:`realizations`.
    """
    alpha, beta = normalize(alpha), normalize(beta)
    r_basis = block_split(r, n, table.p).r_basis
    if alpha not in r_basis or beta not in r_basis:
        raise ValueError(f"{alpha} and {beta} must avoid the height-{n} ideal")
    return _elementary(r, r_basis, r_basis.index(alpha), r_basis.index(beta), table)


def _elementary(r: int, r_basis, a: int, b: int, table: EtaRTable) -> Matrix:
    """mu_bar * E_(a, b) on the weight-r R basis, for basis indices a and b."""
    mu_bar = realizations(r, table)[r_basis[b]][0]
    size = range(len(r_basis))
    return tuple(tuple(mu_bar if (i, j) == (a, b) else 0 for j in size)
                 for i in size)


def centre_commutant(r: int, n: int, table: EtaRTable, split: BlockSplit | None = None):
    """Commutant of the realized elementary family on the R block.

    Returns (rank, basis matrices).  Products of the adjacent mu_bar*E_(a, a+1)
    and mu_bar*E_(a+1, a) are nonzero multiples of every R-block E_(a, b), so
    their commutant is the whole family's: the scalars, rank 1 for a non-empty
    block.  Only they go to :func:`commutant`; a precomputed ``split`` is used.
    """
    r_basis = (split or block_split(r, n, table.p)).r_basis
    realizations(r, table)  # every column solved and verified, also when |R| = 1
    size = range(len(r_basis))
    mats = [_elementary(r, r_basis, a, b, table) for a in size for b in size if abs(a - b) == 1]
    basis = commutant(mats, len(r_basis), table.p)
    return len(basis), basis


def _form_sum(terms, length: int, p: int) -> tuple[list[int], int]:
    """sum(c * num / p^e for (c, num, e) in terms) as (numerators, k) in lowest terms."""
    k = max((e for _, _, e in terms), default=0)
    total = [0] * length
    for c, num, e in terms:
        c *= p ** (k - e)
        for i, x in enumerate(num):
            total[i] += c * x
    shift = min(k, valuation(math.gcd(*total), p))
    return [x // p**shift for x in total], k - shift


@per_table
def phi_window_lattice(N: int, n: int, table: EtaRTable) -> DvrLattice:
    """Lattice L_phi of the windows realized by the phi generators alone.

    As :func:`diagonal_window_lattice` without the Adams family.  R rows see
    only x_alpha, alpha in R: mu_r . x_alpha + (eta_R terms c v^a t^beta with
    a != () on x_(alpha - a, beta)) = m_r e_alpha.  Column beta of mu_r^-1 is
    coeffs/mu_bar of :func:`realizations`, so each x_(alpha, beta) is a form in
    the window.  L_phi, where all are integral, is the m-part of the kernel
    of [B^T | -p^top I], B the echelon of the forms times p^top and p^top I.

    Weights up to N see only v_1..v_h, h = max(1, max_generator_index(N)): n > h reuse h.
    """
    p = table.p
    top_height = max(1, max_generator_index(N, p))
    if n > top_height:
        return phi_window_lattice(N, top_height, table)
    r_bases, forms = [], {}  # forms[alpha, beta]: x_(alpha, beta) as (numerators, k)
    for r in range(N + 1):
        split = block_split(r, n, p)
        r_bases.append(split.r_basis)
        # rhs[alpha][j]: the terms of (m_r e_alpha - lower)_j
        rhs = {alpha: [[(1, (0,) * r + (1,), 0)] if beta == alpha else [] for beta in split.basis]
               for alpha in split.r_basis}
        for j, gamma in enumerate(split.basis):
            for (a, beta), c in table.eta(gamma).terms.items():
                if a and not in_ideal(a, n):
                    for alpha in r_bases[weight(beta, p)]:
                        rhs[add(a, alpha)][j].append((-c, *forms[alpha, beta]))
        for alpha, row in rhs.items():
            x = {gamma: [] for gamma in split.basis}
            for beta, terms in zip(split.basis, row):
                num, k = _form_sum(terms, r + 1, p)
                mu_bar, coeffs = realizations(r, table)[beta]
                for gamma, c in coeffs if any(num) else ():
                    x[gamma].append((c, num, k + valuation(mu_bar, p)))
            forms.update(((alpha, gamma), _form_sum(t, r + 1, p)) for gamma, t in x.items())

    top = max(k for _, k in forms.values())
    identity = [tuple(p**top if i == j else 0 for j in range(N + 1)) for i in range(N + 1)]
    # B in reversed coordinates, rows last first: no elimination grows entries.
    scaled = dict.fromkeys((0,) * (N + 1 - len(num)) + tuple(x * p**(top - k) for x in num[::-1])
                           for num, k in forms.values() if k)
    dual = echelon_lattice(p, [*scaled, *identity], N + 1)
    rows = [[*b[::-1], *(-x for x in e)] for b, e in zip(dual.basis, identity)][::-1]
    kernel = integral_kernel(rows, 2 * (N + 1), p)
    return echelon_lattice(p, [vec[:N + 1] for vec in kernel], N + 1)


def diagonal_window_lattice(N: int, n: int, table: EtaRTable, sg: DvrLattice) -> DvrLattice:
    """Lattice of scalar windows (mu_0, ..., mu_N) of realizable diagonals.

    A window is admitted when one integral combination of the generating
    operations -- the phi(alpha, beta) together with the Adams family --
    acts, in every weight r <= N simultaneously, by a matrix that maps the
    J block into itself and restricts to mu_r times the identity on the R
    block modulo J.

    ``sg`` is the S_g of ``ktheory_lattice.sg_window`` for window N: the span
    of the Adams windows (k^((p-1)r))_r within the caps, certified by its
    stabilization loop and by ``sg_closure``.  In the linear system over phi
    unknowns x, Adams unknowns y and window unknowns mu, the y_k and the mu_r
    occur only in the rows (i, i) with i in R, with coefficients k^((p-1)r)
    and -1.  So (x, y, mu) is an integral solution exactly when
    (x, 0, mu - sum_k y_k adams(k)) is one, and the windows admitted are
    L_phi + S_g: the echelon form of :func:`phi_window_lattice` together
    with ``sg``.
    """
    if sg.p != table.p or sg.ambient_rank != N + 1:
        raise ValueError(f"S_g must be a window-{N} lattice at p={table.p}, got "
                         f"ambient rank {sg.ambient_rank} at p={sg.p}")
    phi = phi_window_lattice(N, n, table)
    return echelon_lattice(table.p, phi.basis + sg.basis, N + 1)


def iota_hat_n_window(p: int, combination: dict, N: int, n: int) -> list[Matrix]:
    """Per-weight R-block matrices of an integral Adams combination.

    In weight r the combination acts as the scalar
    sum_k coeff(k) * k^((p-1)r) on the R block (0^0 = 1).
    """
    windows = []
    for k, c in combination.items():
        if not is_integral(c, p):
            raise ValueError("Adams coefficients must be p-local")
        windows.append((c, adams_sequence(p, k, N)))
    mats = []
    for r in range(N + 1):
        scalar = sum(c * w[r] for c, w in windows)
        size = range(len(block_split(r, n, p).r_indices))
        mats.append(tuple(tuple(scalar if i == j else 0 for j in size)
                          for i in size))
    return mats
