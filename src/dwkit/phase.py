"""Exact values in Q/Z, written additively.

A ``PhaseValue`` is numerator/modulus in (1/M)Z/Z, i.e. a root of unity
written additively.  All arithmetic is exact integer arithmetic; values with
different moduli combine after rescaling to the lcm.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class PhaseValue:
    """numerator/modulus in Q/Z; immutable."""

    __slots__ = ("numerator", "modulus")

    def __init__(self, numerator, modulus):
        if modulus < 1:
            raise ValueError("modulus must be a positive integer")
        object.__setattr__(self, "numerator", numerator % modulus)
        object.__setattr__(self, "modulus", modulus)

    def __setattr__(self, name, value):
        raise AttributeError("PhaseValue is immutable")

    @staticmethod
    def zero(modulus=1):
        return PhaseValue(0, modulus)

    @staticmethod
    def from_fraction(frac):
        frac = Fraction(frac)
        return PhaseValue(frac.numerator % frac.denominator, frac.denominator)

    def as_fraction(self):
        """Reduced representative in [0, 1)."""
        return Fraction(self.numerator, self.modulus)

    def reduced(self):
        """The same value over the least modulus (0 is 0/1)."""
        d = gcd(self.numerator, self.modulus)
        if d == 1:
            return self
        return PhaseValue(self.numerator // d, self.modulus // d)

    def is_zero(self):
        return self.numerator % self.modulus == 0

    def __add__(self, other):
        if not isinstance(other, PhaseValue):
            return NotImplemented
        m = lcm(self.modulus, other.modulus)
        return PhaseValue(
            self.numerator * (m // self.modulus)
            + other.numerator * (m // other.modulus),
            m,
        )

    def __sub__(self, other):
        if not isinstance(other, PhaseValue):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return PhaseValue(-self.numerator, self.modulus)

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return PhaseValue(self.numerator * k, self.modulus)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, int):
            return self.numerator % self.modulus == 0 and other == 0
        if not isinstance(other, PhaseValue):
            return NotImplemented
        return (
            self.numerator * other.modulus - other.numerator * self.modulus
        ) % (self.modulus * other.modulus) == 0

    def __hash__(self):
        f = self.as_fraction()
        return hash((f.numerator, f.denominator))

    def __repr__(self):
        return f"PhaseValue({self.numerator}/{self.modulus})"

    def __str__(self):
        f = self.as_fraction()
        return f"{f.numerator}/{f.denominator}"
