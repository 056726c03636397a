"""mzvkit: exact and high-precision computation with multiple zeta values.

Submodules:

- indices: indices, words, ordered surjections, stuffle/shuffle, cone weight
- combination: the free-module arithmetic shared by the combination classes
- regularization: T-polynomial regularized values, both schemes
- numeric: high-precision evaluation, direct defining sums, value cache
- finite: symmetrized finite values (real and mod p)
- polynomials, matrices, groupring, dsh: the linearized double shuffle lab
- linalg: the certified kernel over sparse rows, and exact elimination over Q
- series: truncated generating functions and their shuffle relation
- relations: spanning sets and integer-relation verdicts
- cli: the `mzv` command line front end
"""

__version__ = "0.1.0"
