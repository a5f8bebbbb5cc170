"""Exact p-local computer algebra for degree-zero cohomology operations.

The package computes, degree by degree and with exact arithmetic over the
p-local integers: the right unit of the Brown-Peterson Hopf algebroid on
Hazewinkel generators, matrix actions of degree-zero operations on homotopy,
elementary-matrix realizations, commutants ("the centre is the diagonals" at
truncated heights), and finite windows of the K-theory congruence lattice.
"""

from .bp_hopf import (
    EtaRTable,
    GradedPoly,
    IntegralityError,
    check_integrality,
    coefficient_of_t,
    hazewinkel_m,
)
from .dvr_arith import (
    INFINITY,
    DvrLattice,
    commutant,
    echelon_lattice,
    integral_kernel,
    is_integral,
    lattice_membership,
    topological_generator,
    valuation,
)
from .ktheory_lattice import (
    ClosureError,
    StabilizationError,
    compare_with_diagonal_window,
    sg_closure,
    sg_membership,
    sg_window,
)
from .monomial_order import (
    add,
    compare,
    enumerate_weight,
    in_ideal,
    unit_exp,
    weight,
)
from .op_calculus import (
    ConsistencyError,
    action_matrix,
    adams_matrix,
    adams_sequence,
    elementary_realize,
)
from .truncation_centre import (
    BlockSplit,
    block_split,
    centre_commutant,
    diagonal_window_lattice,
    iota_hat_n_window,
    projected_elementary,
)

__version__ = "0.1.0"

__all__ = [
    "BlockSplit",
    "ClosureError",
    "ConsistencyError",
    "DvrLattice",
    "EtaRTable",
    "GradedPoly",
    "INFINITY",
    "IntegralityError",
    "StabilizationError",
    "action_matrix",
    "adams_matrix",
    "adams_sequence",
    "add",
    "block_split",
    "centre_commutant",
    "check_integrality",
    "coefficient_of_t",
    "commutant",
    "compare",
    "compare_with_diagonal_window",
    "diagonal_window_lattice",
    "echelon_lattice",
    "elementary_realize",
    "enumerate_weight",
    "hazewinkel_m",
    "in_ideal",
    "integral_kernel",
    "iota_hat_n_window",
    "is_integral",
    "lattice_membership",
    "projected_elementary",
    "sg_closure",
    "sg_membership",
    "sg_window",
    "topological_generator",
    "unit_exp",
    "valuation",
    "weight",
]
