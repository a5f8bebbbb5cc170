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
of the functionals alone (one integral kernel) and the span S_g of the Adams
windows, which ``ktheory_lattice`` builds and certifies.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bp_hopf import EtaRTable
from .dvr_arith import (
    DvrLattice,
    Matrix,
    commutant,
    echelon_lattice,
    integral_kernel,
    is_integral,
)
from .monomial_order import Exp, add, enumerate_weight, in_ideal, normalize, weight
from .op_calculus import ConsistencyError, adams_sequence, per_table, realizations


@dataclass(frozen=True)
class BlockSplit:
    """Partition of the weight-r basis into the R and J blocks at height n."""

    p: int
    r: int
    n: int
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
    return BlockSplit(p=p, r=r, n=n, basis=basis, r_indices=r_idx, j_indices=j_idx)


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
    return tuple(tuple(mu_bar if (i, j) == (a, b) else Fraction(0) for j in size)
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


@per_table
def phi_actions(r: int, table: EtaRTable) -> dict[tuple[int, int], dict[int, Fraction]]:
    """{(i, j): {generator: entry}}, the non-zero weight-r action entries of
    every phi(alpha, beta), indexed in :func:`stable_generators` order.

    One pass over eta_R: its term c v^a t^beta in column gamma is the entry
    of phi(alpha, beta) in row a + alpha for every alpha of the weight of
    beta.  Agrees with :func:`action_matrix`.
    """
    p = table.p
    bases = [tuple(enumerate_weight(s, p)) for s in range(r + 1)]
    offsets = [0]
    for s in range(r):
        offsets.append(offsets[-1] + len(bases[s]) ** 2)
    index = {a: i for i, a in enumerate(bases[r])}
    entries: dict[tuple[int, int], dict[int, Fraction]] = {}
    for j, gamma in enumerate(bases[r]):
        for (a, beta), c in table.eta(gamma).terms.items():
            s = weight(beta, p)
            src = bases[s]
            first = offsets[s] + src.index(beta)
            for ia, alpha in enumerate(src):
                cell = entries.setdefault((index[add(a, alpha)], j), {})
                cell[first + ia * len(src)] = c
    return entries


@per_table
def phi_window_lattice(N: int, n: int, table: EtaRTable) -> DvrLattice:
    """Lattice L_phi of the windows realized by the phi generators alone.

    As :func:`diagonal_window_lattice` without the Adams family: the mu
    projection of the saturated integral kernel of one exact linear system
    over all weights r <= N.
    """
    p = table.p
    if N > table.max_weight:
        raise ValueError("window bound exceeds the table bound")
    n_gen = sum(len(enumerate_weight(r, p)) ** 2 for r in range(N + 1))
    n_vars = n_gen + N + 1

    rows = []
    for r in range(N + 1):
        split = block_split(r, n, p)
        actions = phi_actions(r, table)
        for i in split.r_indices:
            for j in range(len(split.basis)):
                entries = actions.get((i, j), {})
                if not entries and i != j:
                    continue
                row = [Fraction(0)] * n_vars
                for g, c in entries.items():
                    row[g] = c
                if i == j:
                    row[n_gen + r] = Fraction(-1)
                rows.append(row)

    kernel = integral_kernel(rows, n_vars, p)
    return echelon_lattice(p, [vec[n_gen:] for vec in kernel], N + 1)


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
    (x, 0, mu - sum_k y_k adams(k)) is one, and the projection of the
    saturated kernel onto mu is L_phi + S_g: the echelon form of
    :func:`phi_window_lattice` together with ``sg``.
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
        windows.append((Fraction(c), adams_sequence(p, k, N)))
    mats = []
    for r in range(N + 1):
        scalar = sum((c * w[r] for c, w in windows), Fraction(0))
        size = range(len(block_split(r, n, p).r_indices))
        mats.append(tuple(tuple(scalar if i == j else Fraction(0) for j in size)
                          for i in size))
    return mats
