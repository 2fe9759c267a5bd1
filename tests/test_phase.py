from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from dwkit.phase import PhaseValue

moduli = st.integers(min_value=1, max_value=60)


@given(st.integers(), moduli)
def test_constructor_reduces_mod_m(n, m):
    v = PhaseValue(n, m)
    assert 0 <= v.numerator < m
    assert (v.numerator - n) % m == 0


@given(st.integers(), st.integers(), moduli)
def test_addition_matches_fractions(a, b, m):
    lhs = PhaseValue(a, m) + PhaseValue(b, m)
    want = (Fraction(a + b, m)) % 1
    assert lhs.as_fraction() == want


@given(st.integers(), moduli, st.integers(), moduli)
def test_cross_modulus_addition(a, m, b, k):
    v = PhaseValue(a, m) + PhaseValue(b, k)
    assert v.as_fraction() == (Fraction(a, m) + Fraction(b, k)) % 1


@given(st.integers(), moduli)
def test_negation_is_inverse(a, m):
    v = PhaseValue(a, m)
    assert (v + (-v)).is_zero()
    assert (v - v).is_zero()


@given(st.integers(), moduli, st.integers(min_value=-20, max_value=20))
def test_integer_scaling(a, m, k):
    v = PhaseValue(a, m)
    total = PhaseValue(0, 1)
    for _ in range(abs(k)):
        total = total + (v if k >= 0 else -v)
    assert k * v == total


def test_equality_across_moduli():
    assert PhaseValue(1, 2) == PhaseValue(2, 4)
    assert PhaseValue(1, 2) != PhaseValue(1, 4)
    assert PhaseValue(0, 5) == PhaseValue(0, 1)


def test_reduced_lowers_modulus():
    v = PhaseValue(2, 4).reduced()
    assert (v.numerator, v.modulus) == (1, 2)
    z = PhaseValue(0, 12).reduced()
    assert z.modulus == 1


@given(st.one_of(st.just(0), st.integers()), moduli)
def test_reduced_matches_the_fraction(n, m):
    v = PhaseValue(n, m).reduced()
    f = Fraction(n % m, m)
    assert (v.numerator, v.modulus) == (f.numerator, f.denominator)


def test_invalid_modulus_rejected():
    with pytest.raises(ValueError):
        PhaseValue(1, 0)
