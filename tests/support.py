"""Shared helpers for the test suite."""

import random

from dwkit.cochains import Cochain, TupleIndex
from dwkit.phase import PhaseValue


def random_cochain(group, degree, modulus, rng=None, density=0.5, loops=0):
    """A random normalized cochain with values in (1/modulus)Z/Z, on the
    ``loops``-fold loop groupoid (0: on the group)."""
    rng = rng or random.Random(0)
    vals = {}
    for t in TupleIndex(group, degree, loops).all():
        if rng.random() < density:
            v = PhaseValue(rng.randrange(modulus), modulus)
            if not v.is_zero():
                vals[t] = v
    return Cochain(group, degree, modulus, vals, loops)
