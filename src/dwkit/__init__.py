"""Exact computations for finite gauge theories on tori.

Finite-group cohomology with U(1) coefficients, Dijkgraaf-Witten partition
functions and representation counts, cardinality and integration on finite
action groupoids (gauge groupoids and their homotopy fibres), transgression,
and 't Hooft anomaly obstruction searches — all in exact integer arithmetic.
"""

__version__ = "0.1.0"
