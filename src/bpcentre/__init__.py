"""Exact p-local computer algebra for degree-zero cohomology operations.

The package computes, degree by degree and with exact arithmetic over the
p-local integers: the right unit of the Brown-Peterson Hopf algebroid on
Hazewinkel generators, matrix actions of degree-zero operations on homotopy,
elementary-matrix realizations, commutants ("the centre is the diagonals" at
truncated heights), and finite windows of the K-theory congruence lattice.
"""

__version__ = "0.1.0"
