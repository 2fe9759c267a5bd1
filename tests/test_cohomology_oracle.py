"""An independent count of the p-primary summands of H^n(G; U(1)).

Built from the multiplication table alone: nothing here comes from
dwkit.cochains or dwkit.linalg.  The facts it rests on, for the normalized
bar differential delta_n: C^n -> C^{n+1} with integer coefficients and R the
restriction to rows whose first entry lies in a generating set:

* H^n(G; U(1)) = H^{n+1}(G; Z) is the torsion of coker delta_n, so its
  number of p-primary cyclic summands is the number of Smith factors of
  delta_n divisible by p, rank_Q(delta_n) - rank_{F_p}(delta_n);
* H^j(G; Q) = 0 for j >= 1, so
  rank_Q(delta_n) = sum_{j=1..n} (-1)^{n-j} (|G|-1)^j;
* R is injective on cocycles with any coefficients (a cocycle vanishing on
  generator-led tuples vanishes, by induction on the word length of the
  first entry), so R delta_n has the ranks of delta_n over Q and over F_p.

The Kunneth closed forms for Z_a x Z_b, H^2 = Z_gcd(a,b) and
H^3 = Z_a + Z_b + Z_gcd(a,b), are checked against these counts; only
``test_kunneth_closed_forms_match_cohomology`` then calls the engine.
"""

import itertools
from math import gcd

import pytest

from dwkit.groups import (
    cyclic_group,
    dihedral_group,
    pauli_group,
    product_group,
)


def generator_rows(group, n):
    """The rows of R delta_n, as dicts {column: coefficient}; columns are
    the normalized n-tuples read as numbers in base |G| - 1."""
    nonid = [g for g in group.elements() if g != group.identity]
    pos = {g: i for i, g in enumerate(nonid)}

    def column(t):
        i = 0
        for g in t:
            i = i * len(nonid) + pos[g]
        return i

    rows = []
    for t in itertools.product(group.generators(), *([nonid] * n)):
        faces = [(1, t[1:])]
        for i in range(n):
            x = group.mul(t[i], t[i + 1])
            if x != group.identity:
                faces.append(((-1) ** (i + 1), t[:i] + (x,) + t[i + 2:]))
        faces.append(((-1) ** (n + 1), t[:-1]))
        row = {}
        for sign, face in faces:
            c = column(face)
            row[c] = row.get(c, 0) + sign
        rows.append(row)
    return rows


def rank_mod_2(rows):
    """Rank over GF(2), each row a Python-int bitset."""
    pivots = {}
    for row in rows:
        r = 0
        for c, a in row.items():
            if a % 2:
                r |= 1 << c
        while r:
            top = r.bit_length() - 1
            if top not in pivots:
                pivots[top] = r
                break
            r ^= pivots[top]
    return len(pivots)


def rank_mod_p(rows, p):
    """Rank over GF(p) by elimination on sparse dict rows."""
    pivots = {}  # leading column -> row scaled to leading coefficient 1
    for row in rows:
        r = {c: a % p for c, a in row.items() if a % p}
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(r[lead], -1, p)
                pivots[lead] = {c: a * inv % p for c, a in r.items()}
                break
            f = r[lead]
            for c, a in piv.items():
                v = (r.get(c, 0) - f * a) % p
                if v:
                    r[c] = v
                else:
                    del r[c]
    return len(pivots)


def primary_summands(group, n, p):
    """Number of p-primary cyclic summands of H^n(G; U(1))."""
    rank_q = sum((-1) ** (n - j) * (group.order - 1) ** j
                 for j in range(1, n + 1))
    rows = generator_rows(group, n)
    rank_p = rank_mod_2(rows) if p == 2 else rank_mod_p(rows, p)
    return rank_q - rank_p


GROUPS = {
    "Pauli": pauli_group,
    "D8": lambda: dihedral_group(8),
    "Z2^3": lambda: product_group([2, 2, 2]),
    "Z4xZ2": lambda: product_group([4, 2]),
    "K4": lambda: product_group([2, 2]),
    "D6": lambda: dihedral_group(6),
    "Z3^2": lambda: product_group([3, 3]),
    "Z4": lambda: cyclic_group(4),
}


@pytest.mark.parametrize("name, n, p, count", [
    # [2, 2, 2, 8]: four 2-primary summands; [2, 2, 8] would have three
    ("Pauli", 3, 2, 4),
    ("Pauli", 2, 2, 2),
    ("D8", 2, 2, 1),
    ("D8", 3, 2, 3),
    ("Z2^3", 3, 2, 7),
    ("Z4xZ2", 3, 2, 3),
    ("K4", 3, 2, 3),
    ("D6", 3, 2, 1),
    ("D6", 3, 3, 1),
    ("Z3^2", 3, 3, 3),
    ("Z4", 3, 3, 0),
])
def test_primary_summand_count(name, n, p, count):
    assert primary_summands(GROUPS[name](), n, p) == count


def kunneth_orders(a, b, n):
    """Orders of the cyclic summands of H^n(Z_a x Z_b; U(1)), n = 2 or 3."""
    return {2: [gcd(a, b)], 3: [a, b, gcd(a, b)]}[n]


def invariant_factors(orders):
    """The ascending divisibility chain (entries > 1) of a sum of cyclic
    groups of the given orders."""
    powers = {}  # prime -> prime powers of the summands
    for d in orders:
        p = 2
        while d > 1:
            q = 1
            while d % p == 0:
                d //= p
                q *= p
            if q > 1:
                powers.setdefault(p, []).append(q)
            p += 1
    chains = [sorted(v, reverse=True) for v in powers.values()]
    factors = []
    for i in range(max(map(len, chains), default=0)):
        f = 1
        for chain in chains:
            f *= chain[i] if i < len(chain) else 1
        factors.append(f)
    return factors[::-1]


def test_invariant_factors_of_cyclic_sums():
    assert invariant_factors([2, 6, 2]) == [2, 2, 6]
    assert invariant_factors([3, 4, 1]) == [12]
    assert invariant_factors([4, 4, 4]) == [4, 4, 4]
    assert invariant_factors([1]) == []


KUNNETH_PRIMES = [
    (2, 4, 2), (2, 6, 2), (3, 4, 2), (4, 4, 2),
    (2, 3, 3), (3, 3, 3),
    (2, 5, 5),
]


@pytest.mark.parametrize("a, b, p", KUNNETH_PRIMES)
@pytest.mark.parametrize("n", [2, 3])
def test_kunneth_primary_summand_count(a, b, p, n):
    count = sum(d % p == 0 for d in kunneth_orders(a, b, n))
    assert primary_summands(product_group([a, b]), n, p) == count


# H^3 of Z2 x Z6 takes seconds in the engine and Z4 x Z4 exceeds its
# default budget; the counts above cover them
@pytest.mark.parametrize("a, b, n", [
    (a, b, 2) for a, b, _p in KUNNETH_PRIMES
] + [(2, 3, 3), (2, 5, 3)])
def test_kunneth_closed_forms_match_cohomology(a, b, n):
    from dwkit.cochains import cohomology

    got = cohomology(product_group([a, b]), n).invariant_factors
    assert got == invariant_factors(kunneth_orders(a, b, n))
