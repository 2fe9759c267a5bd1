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

The exponents come from the orders |coker R delta_n (x) Z/p^k|.  With
Smith factors d_1..d_r of R delta_n (r = rank_Q) on N rows,
log_p |coker (x) Z/p^k| = k N - sum_i (k - min(v_p(d_i), k)), so the
number of factors divisible by p^k is
log_p|coker (x) Z/p^k| - log_p|coker (x) Z/p^(k-1)| - (N - r).  The
valuations v_p(d_i) < e are read off one elimination over Z/p^e that
pivots on units of least p-adic valuation; |G| kills H^n, so e =
v_p(|G|) + 1 sees every factor, and no factor may be divisible by p^e.
"""

import heapq
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


def local_smith_counts(rows, p, e):
    """counts[v] for v < e: the number of Smith factors of p-adic valuation
    v of the integer matrix with these dict rows, by elimination over
    Z/p^e.  Level v pivots on entries of valuation exactly v (all others
    have more), least-filled column first, and clears the pivot's column by
    row operations; a factor of valuation >= e vanishes mod p^e."""
    mod = p**e
    rows = [{c: a % mod for c, a in r.items() if a % mod} for r in rows]
    colrows = {}
    for i, r in enumerate(rows):
        for c in r:
            colrows.setdefault(c, set()).add(i)
    counts = []
    for v in range(e):
        pv, found = p**v, 0
        heap = [(len(rs), c) for c, rs in colrows.items() if rs]
        heapq.heapify(heap)
        while heap:
            size, c = heapq.heappop(heap)
            rs = colrows[c]
            if len(rs) != size:
                if rs:
                    heapq.heappush(heap, (len(rs), c))
                continue
            units = [i for i in rs if rows[i][c] // pv % p]
            if not units:
                continue  # re-pushed if a later pivot fills it
            best = min(units, key=lambda i: len(rows[i]))
            prow = rows[best]
            inv = pow(prow[c] // pv, -1, mod)
            touched = set()
            for i in rs - {best}:
                r = rows[i]
                q = r[c] // pv * inv
                for cc, a in prow.items():
                    x = (r.get(cc, 0) - q * a) % mod
                    if x:
                        r[cc] = x
                        colrows[cc].add(i)
                    elif cc in r:
                        del r[cc]
                        colrows[cc].discard(i)
                touched.update(r)
            for cc in prow:
                colrows[cc].discard(best)
            rows[best] = {}
            found += 1
            for cc in touched:
                if colrows[cc]:
                    heapq.heappush(heap, (len(colrows[cc]), cc))
        counts.append(found)
    return counts


def split_units_2adic(rows, ncols, e):
    """(u, rest) with Smith(rows) = I_u + Smith(rest) over Z/2^e.

    Rows are Python ints with one (2e+1)-bit field per column, so a row
    operation is three big-integer operations.  An echelon form by highest
    column keeps one row per lead column, swapping in a lead of smaller
    2-adic valuation.  The u rows with a unit lead are triangular with a
    unit diagonal on their lead columns, so the other rows, cleared on
    those columns, leave ``rest`` on the remaining columns."""
    mod, w = 1 << e, 2 * e + 1
    fields = sum((mod - 1) << (c * w) for c in range(ncols))

    def lead(r):
        top = (r.bit_length() - 1) // w
        a = r >> (top * w)
        return top, a, (a & -a).bit_length() - 1

    pivots = {}  # lead column -> (row, lead valuation, inverse of its unit)
    for row in rows:
        r = sum((a % mod) << (c * w) for c, a in row.items())
        while r:
            top, a, v = lead(r)
            if top not in pivots or v < pivots[top][1]:
                pivots[top], r = (r, v, pow(a >> v, -1, mod)), pivots.get(top)
                if r is None:
                    break
                r = r[0]
                top, a, v = lead(r)
            prow, pv, inv = pivots[top]
            r = (r + (mod - (a >> pv) * inv % mod) * prow) & fields
    units = {c: piv for c, piv in pivots.items() if piv[1] == 0}
    rest = []
    for c, (r, v, _inv) in pivots.items():
        if not v:
            continue
        row = {}
        while r:
            top, a, _v = lead(r)
            if top in units:
                prow, _pv, inv = units[top]
                r = (r + (mod - a * inv % mod) * prow) & fields
            else:
                row[top] = a
                r &= (1 << (top * w)) - 1
        rest.append(row)
    return len(units), rest


def divisible_counts(group, n, p, e):
    """[N_1, ..., N_e]: N_k factors of R delta_n divisible by p^k, from the
    orders |coker (x) Z/p^k| (module docstring)."""
    rows = generator_rows(group, n)
    if p == 2:
        units, rest = split_units_2adic(rows, (group.order - 1) ** n, e)
    else:
        units, rest = 0, rows
    counts = local_smith_counts(rest, p, e)
    counts[0] += units

    def log_order(k):  # log_p |coker (x) Z/p^k|
        return k * len(rows) - sum((k - v) * counts[v] for v in range(k))

    free = len(rows) - sum((-1) ** (n - j) * (group.order - 1) ** j
                           for j in range(1, n + 1))
    return [log_order(k) - log_order(k - 1) - free for k in range(1, e + 1)]


def oracle_invariant_factors(group, n):
    """The invariant factors of H^n(G; U(1)), from the divisible counts at
    every prime dividing |G|."""
    orders, m = [], group.order
    for p in range(2, m + 1):
        e = 1  # v_p(|G|) + 1
        while m % p == 0:
            m //= p
            e += 1
        if e == 1:
            continue
        orders += primary_orders(p, divisible_counts(group, n, p, e))
    return invariant_factors(orders)


def primary_orders(p, divisible):
    """The orders p^k of the p-primary summands, from the divisible counts
    [N_1, ..., N_e]; |G| kills H^n, so N_e = 0."""
    assert divisible[-1] == 0, "|G| must kill H^n"
    return [p**k for k in range(1, len(divisible))
            for _ in range(divisible[k - 1] - divisible[k])]


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


@pytest.mark.parametrize("name, n, factors", [
    ("Pauli", 2, [2, 2]),
    ("D8", 3, [2, 2, 4]),
    ("Z4xZ2", 3, [2, 2, 4]),
    ("Z2^3", 3, [2] * 7),
    ("D6", 3, [6]),
    ("Z3^2", 3, [3, 3, 3]),
    ("Z4", 3, [4]),
])
def test_invariant_factors_from_coker_orders(name, n, factors):
    assert oracle_invariant_factors(GROUPS[name](), n) == factors


def test_pauli_degree_three_is_2_2_2_8():
    # factors divisible by 2, 4, 8, 16 and 32; the paper's table, [2, 2, 8],
    # would read [3, 1, 1, 0, 0]
    divisible = divisible_counts(pauli_group(), 3, 2, 5)
    assert divisible == [4, 1, 1, 0, 0]
    assert invariant_factors(primary_orders(2, divisible)) == [2, 2, 2, 8]


@pytest.mark.parametrize("name, n", [("D8", 3), ("Pauli", 2), ("Z4xZ2", 3)])
def test_unit_split_keeps_the_smith_valuations(name, n):
    group = GROUPS[name]()
    rows = generator_rows(group, n)
    units, rest = split_units_2adic(rows, (group.order - 1) ** n, 4)
    counts = local_smith_counts(rest, 2, 4)
    counts[0] += units
    assert counts == local_smith_counts(rows, 2, 4)
    assert units and rest  # both passes do some of the work
