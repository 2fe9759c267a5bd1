"""Exact computations for finite gauge theories on tori.

Finite-group cohomology with U(1) coefficients, Dijkgraaf-Witten partition
functions and representation counts, gauge groupoids of tori,
transgression, 't Hooft anomaly obstruction searches and relative
partition functions — all in exact integer arithmetic.
"""

__version__ = "0.1.0"
