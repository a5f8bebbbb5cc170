"""Finite windows of the K-theory congruence ring, by an Adams-span oracle.

The ring of scalar sequences realizable as coefficient actions of additive
degree-zero operations on the connective Adams summand is cut out by p-local
congruences; since every such operation is a limit of combinations of Adams
operations, its finite windows can be computed independently of any explicit
congruence basis: take the Z_(p)-span of Adams windows (k^((p-1)i))_i over
parameters k = p^s q^a and k = 0, for a topological generator q of the
p-adic units, and grow the family until the echelon form stabilizes.

Stabilization is certified empirically (ascending chains of submodules of
Z_(p)^(N+1) are eventually constant); failure to stabilize inside the caps
raises, never silently truncates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bp_hopf import EtaRTable
from .dvr_arith import (
    DvrLattice,
    echelon_lattice,
    lattice_membership,
    topological_generator,
)
from .op_calculus import adams_sequence
from .truncation_centre import diagonal_window_lattice, phi_window_lattice


class StabilizationError(RuntimeError):
    """The Adams span kept changing within the configured generator caps."""


class ClosureError(RuntimeError):
    """The Adams window of a p-local integer lies outside the computed S_g."""


def default_caps(N: int) -> tuple[int, int]:
    """Default generator caps (M, S) of the Adams family for window N."""
    return N + 8, 3


@dataclass(frozen=True)
class StabilizationCertificate:
    """Record of how the Adams span stabilized."""

    q: int
    m_cap: int
    s_cap: int
    margin: int
    last_changed_a: int
    stopped_at_a: int


def sg_window(
    p: int,
    N: int,
    q: int | None = None,
    caps=None,
    margin: int = 4,
):
    """Stabilized window lattice of the congruence ring, with certificate.

    Returns (lattice, certificate).  Generators are the Adams windows for
    k = p^s q^a with s <= S and a grown until ``margin`` consecutive steps
    leave the echelon form unchanged, plus the k = 0 window; exceeding the
    cap M on a without stabilizing is an explicit error.
    """
    if N < 0:
        raise ValueError("window bound must be non-negative")
    if margin < 1:
        raise ValueError("margin must be positive")
    if q is None:
        q = topological_generator(p)
    m_cap, s_cap = caps if caps is not None else default_caps(N)

    lattice = echelon_lattice(p, [adams_sequence(p, 0, N)], N + 1)
    streak = 0
    last_changed = -1
    for a in range(m_cap + 1):
        batch = [adams_sequence(p, p**s * q**a, N) for s in range(s_cap + 1)]
        # A batch inside the span leaves it, and so its canonical form, as is.
        if all(lattice_membership(w, lattice) is not None for w in batch):
            streak += 1
        else:
            streak = 0
            last_changed = a
            lattice = echelon_lattice(p, lattice.basis + tuple(batch), N + 1)
        if streak >= margin:
            cert = StabilizationCertificate(
                q=q, m_cap=m_cap, s_cap=s_cap, margin=margin,
                last_changed_a=last_changed, stopped_at_a=a,
            )
            return lattice, cert
    raise StabilizationError(
        f"Adams span for window {N} did not stabilize for {margin} consecutive "
        f"steps within a <= {m_cap} (s <= {s_cap}); raise the caps"
    )


def sg_membership(w, lattice: DvrLattice):
    """Membership certificate of a window in a computed lattice, re-verified.

    Returns the coefficients over the echelon basis or None; a returned
    certificate has been checked by exact re-expansion over the basis.
    """
    w = tuple(w)
    cert = lattice_membership(w, lattice)
    if cert is None:
        return None
    rebuilt = [0] * len(w)
    for k, col in zip(cert, lattice.basis):
        rebuilt = [x + k * y for x, y in zip(rebuilt, col)]
    if tuple(rebuilt) != w:
        raise AssertionError("membership certificate failed re-expansion")
    return cert


def sg_closure(sg) -> tuple[int, int, int]:
    """The Adams parameters just outside the caps, each checked to lie in S_g.

    q topologically generates the p-adic units and S_g has finite index, so
    S_g is p-adically closed and holds the window of every p-local integer.
    Caps that stop the span short leave out the first parameters past them:
    p^(s_cap+1), p^(s_cap+1)*q or q^(m_cap+1).  ``sg`` is :func:`sg_window`'s
    result; returns those k, or raises ClosureError naming the ones missing.
    """
    lattice, cert = sg
    p, N = lattice.p, lattice.ambient_rank - 1
    top = p ** (cert.s_cap + 1)
    keys = (top, top * cert.q, cert.q ** (cert.m_cap + 1))
    missing = [k for k in keys if sg_membership(adams_sequence(p, k, N), lattice) is None]
    if missing:
        raise ClosureError(f"the Adams windows of k={missing} lie outside S_g for window "
                           f"{N} (caps {cert.m_cap},{cert.s_cap}); raise the caps")
    return keys


def lattice_inclusion(inner: DvrLattice, outer: DvrLattice):
    """Whether every basis vector of inner has a verified certificate in
    outer, and the colength of the inclusion (None unless it holds at equal
    rank)."""
    inclusion = all(sg_membership(col, outer) is not None for col in inner.basis)
    if inclusion and inner.rank == outer.rank:
        return True, inner.colength() - outer.colength()
    return inclusion, None


def compare_with_diagonal_window(N: int, n: int, table: EtaRTable, sg: DvrLattice) -> dict:
    """Compare the congruence window with the realizable diagonal windows.

    Checks two inclusions exactly and reports the colength of each as its
    gap, never asserted to vanish.  The diagonal lattice is L_phi + S_g
    (:func:`diagonal_window_lattice`), so S_g lies in it by construction and
    its gap is 0 exactly when L_phi lies in S_g; the windows of the phi
    functionals alone lying in S_g is the inclusion that can fail.  ``sg``
    is the S_g lattice of window N, the lattice of :func:`sg_window`'s pair.
    """
    diagonal = diagonal_window_lattice(N, n, table, sg)
    phi = phi_window_lattice(N, n, table)
    inclusion, gap = lattice_inclusion(sg, diagonal)
    phi_inclusion, phi_gap = lattice_inclusion(phi, sg)
    return {
        "sg": list(sg.elementary_divisors),
        "diagonal": list(diagonal.elementary_divisors),
        "inclusion": inclusion,
        "gap": gap,
        "phi": list(phi.elementary_divisors),
        "phi_inclusion": phi_inclusion,
        "phi_gap": phi_gap,
    }
