"""Finite groups as multiplication tables, and homomorphisms between them.

Elements are dense indices 0..order-1; all algebra runs on the table.

Tables and homomorphisms are checked completely at every order, on a
spanning set S rather than on every triple or pair (Light's test;
Clifford-Preston, *The Algebraic Theory of Semigroups* I, section 1.2).
With a two-sided identity e, the set N = {s : (xs)y = x(sy) for all x, y}
holds e and is closed under the product: (x(st))y = ((xs)t)y = (xs)(ty)
= x(s(ty)) = x((st)y).  So if every element is a product e s1 s2 ... sk
of elements of S, checking s in S proves associativity.  Likewise
{s : f(xs) = f(x)f(s) for all x} holds e when f(e) = e, and is closed.
"""

from __future__ import annotations

import itertools
from operator import eq, index as as_index
from types import MappingProxyType

from .errors import NotAGroup, UnknownBuiltin
from .memo import _Memo

# generators() tries every pair of elements only up to this order.
GENERATOR_PAIR_SEARCH_ORDER_CAP = 64
# an invariants set-up asks for 41 builtin specs in 54 calls
BUILTIN_GROUP_MEMO_SIZE = 128
_builtin_groups = _Memo(BUILTIN_GROUP_MEMO_SIZE)


class FiniteGroup:
    """A finite group presented by its multiplication table.

    table[g][h] is the index of g*h.  Instances are immutable and validated
    at construction time via :func:`group_from_table` (associativity by
    Light's test on a spanning set, see the module docstring, complete at
    every order).  A builtin constructor returns one instance per spec.
    """

    __slots__ = ("order", "table", "identity", "inverses", "label",
                 "builtin_spec", "_generators", "_hash")

    def __init__(self, order, table, identity, inverses, label=""):
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "identity", identity)
        object.__setattr__(self, "inverses", inverses)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "builtin_spec", None)
        object.__setattr__(self, "_generators", None)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("FiniteGroup is immutable")

    # -- basic algebra -----------------------------------------------------

    def mul(self, a, b):
        return self.table[a][b]

    def conjugate(self, k, g):
        """k g k^{-1}."""
        return self.table[self.table[k][g]][self.inverses[k]]

    def commute(self, a, b):
        return self.table[a][b] == self.table[b][a]

    def elements(self):
        return range(self.order)

    def nonidentity(self):
        return [g for g in range(self.order) if g != self.identity]

    def word(self, elems):
        """Product of a sequence of elements (empty product = identity)."""
        acc = self.identity
        for g in elems:
            acc = self.table[acc][g]
        return acc

    def power(self, g, k):
        if k < 0:
            g, k = self.inverses[g], -k
        acc = self.identity
        for _ in range(k):
            acc = self.table[acc][g]
        return acc

    def element_order(self, g):
        acc, k = g, 1
        while acc != self.identity:
            acc = self.table[acc][g]
            k += 1
        return k

    # -- structure ---------------------------------------------------------

    def center(self):
        return [
            g
            for g in range(self.order)
            if all(self.commute(g, h) for h in range(self.order))
        ]

    def centralizer(self, elems):
        """Joint centralizer of a collection of elements."""
        elems = list(elems)
        return [
            k
            for k in range(self.order)
            if all(self.commute(k, g) for g in elems)
        ]

    def conjugacy_classes(self):
        seen = [False] * self.order
        classes = []
        for g in range(self.order):
            if seen[g]:
                continue
            cls = sorted({self.conjugate(k, g) for k in range(self.order)})
            for h in cls:
                seen[h] = True
            classes.append(tuple(cls))
        return classes

    def subgroup_closure(self, gens):
        """Element set of the subgroup generated by ``gens``."""
        closed = {self.identity}
        frontier = [self.identity]
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in closed:
                    closed.add(y)
                    frontier.append(y)
        return closed

    def generators(self):
        """A small generating set, found greedily (deterministic)."""
        if self._generators is not None:
            return self._generators
        by_order = sorted(
            range(self.order), key=lambda g: (-self.element_order(g), g)
        )
        gens = None
        for g in by_order:
            if len(self.subgroup_closure([g])) == self.order:
                gens = [g]
                break
        if gens is None and self.order <= GENERATOR_PAIR_SEARCH_ORDER_CAP:
            for i, g in enumerate(by_order):
                for h in by_order[i + 1:]:
                    if len(self.subgroup_closure([g, h])) == self.order:
                        gens = [g, h]
                        break
                if gens:
                    break
        if gens is None:
            gens = spanning_set(self.table, self.identity, by_order)
        object.__setattr__(self, "_generators", tuple(gens))
        return self._generators

    def canonical_hash(self):
        """Deterministic cross-run identity for caching."""
        if self._hash is not None:
            return self._hash
        import hashlib
        h = hashlib.sha256()
        h.update(str(self.order).encode())
        for row in self.table:
            h.update(b"|")
            h.update(",".join(map(str, row)).encode())
        digest = h.hexdigest()
        object.__setattr__(self, "_hash", digest)
        return digest

    def __eq__(self, other):
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self.order == other.order and self.table == other.table

    def __hash__(self):
        return hash((self.order, self.table))

    def __repr__(self):
        name = self.label or "group"
        return f"FiniteGroup({name}, order={self.order})"


def spanning_set(table, identity, candidates):
    """Greedy S whose right-multiplication closure from the identity is
    every element: each candidate not yet reached joins S, in order."""
    gens, closed = [], {identity}
    for g in candidates:
        if len(closed) == len(table):
            break
        if g not in closed:
            gens.append(g)
            frontier = list(closed)
            while frontier:
                for y in map(table[frontier.pop()].__getitem__, gens):
                    if y not in closed:
                        closed.add(y)
                        frontier.append(y)
    return gens


def group_from_table(order, table, label=""):
    """Validate a multiplication table and build a FiniteGroup."""
    if order < 1:
        raise NotAGroup("order must be positive")
    if len(table) != order or any(len(row) != order for row in table):
        raise NotAGroup(f"table is not {order}x{order}")
    table = tuple(tuple(row) for row in table)
    full = frozenset(range(order))
    for g, row in enumerate(table):
        if not full.issuperset(row):
            raise NotAGroup("table entry out of range", witness=g)
        if len(set(row)) != order:
            raise NotAGroup(f"row {g} is not a permutation", witness=g)
    for h, col in enumerate(zip(*table)):
        if len(set(col)) != order:
            raise NotAGroup(f"column {h} is not a permutation", witness=h)

    ids = tuple(range(order))
    identity = next((e for e in ids if table[e] == ids
                     and all(row[e] == g for g, row in enumerate(table))), None)
    if identity is None:
        raise NotAGroup("no two-sided identity")

    inverses = [row.index(identity) for row in table]
    for g, h in enumerate(inverses):
        if table[h][g] != identity:
            raise NotAGroup(f"element {g} has no inverse", witness=g)

    # (xs)y == x(sy) for all y, compared lazily: a tuple per row check
    # left the process's peak memory measurably higher
    if not all(all(map(eq, table[row[s]], map(row.__getitem__, table[s])))
               for s in spanning_set(table, identity, ids) for row in table):
        for a, b, c in itertools.product(ids, repeat=3):
            if table[table[a][b]][c] != table[a][table[b][c]]:
                raise NotAGroup("associativity fails", witness=(a, b, c))

    return FiniteGroup(order, table, identity, tuple(inverses), label=label)


# -- builtin groups --------------------------------------------------------


def _builtin(kind, args, params, label, make_table):
    """The one group of the spec (kind, args), validated once and kept for
    the BUILTIN_GROUP_MEMO_SIZE most recent (``builtin_group.cache_info``),
    with its spec (kind, params) read-only: params hold ints and tuples."""
    def make():
        table = make_table()
        g = group_from_table(len(table), table, label=label)
        object.__setattr__(g, "builtin_spec", (kind, MappingProxyType(params)))
        return g
    return _builtin_groups.get((kind, args), make)


def cyclic_group(n):
    """Z_n: one shared, validated, immutable group per n (``_builtin``)."""
    n = as_index(n)  # raises on 4.0, which as a key would find Z4
    return _builtin("cyclic", n, {"n": n}, f"Z{n}", lambda: [
        [(a + b) % n for b in range(n)] for a in range(n)])


def product_group(factors):
    """Z_{n1} x ... x Z_{nk}: one shared, validated group per factor list.

    Element index is the mixed-radix encoding with the first factor most
    significant: index(a1..ak) = a1*n2*...*nk + ... + ak.
    """
    factors = tuple(as_index(n) for n in factors)
    if not factors or any(n < 1 for n in factors):
        raise UnknownBuiltin(f"bad product factors {list(factors)}")
    def make_table():
        table, order = [[0]], 1
        for n in reversed(factors):
            # prepend a digit of radix n: (a, x)(b, y) = (a + b, xy)
            table = [[(a + b) % n * order + x for b in range(n) for x in row]
                     for a in range(n) for row in table]
            order *= n
        return table
    return _builtin("product", factors, {"factors": factors},
                    "x".join(f"Z{n}" for n in factors), make_table)


def product_index(factors, digits):
    """Element index in product_group(factors) for the given digit tuple."""
    i = 0
    for d, n in zip(digits, factors):
        i = i * n + (d % n)
    return i


def product_digits(factors, index):
    """Digit tuple for an element index of product_group(factors)."""
    digits = []
    for n in reversed(factors):
        digits.append(index % n)
        index //= n
    return tuple(reversed(digits))


def dihedral_group(order):
    """Dihedral group of even order 2n: one shared, validated group per 2n.

    Presentation a^n = b^2 = 1, b a b^{-1} = a^{-1}; element a^i b^j has
    index j*n + i.
    """
    order = as_index(order)
    if order < 2 or order % 2:
        raise UnknownBuiltin(f"dihedral order must be even, got {order}")
    n = order // 2

    def mul(x, y):
        i, j = x % n, x // n
        i2, j2 = y % n, y // n
        # (a^i b^j)(a^i2 b^j2) = a^(i + (-1)^j i2) b^(j+j2)
        return ((j + j2) % 2) * n + (i + (i2 if j == 0 else -i2)) % n

    return _builtin("dihedral", order, {"order": order}, f"D{order}", lambda: [
        [mul(x, y) for y in range(order)] for x in range(order)])


def dihedral_index(order, i, j):
    """Index of a^i b^j in dihedral_group(order)."""
    n = order // 2
    return (j % 2) * n + (i % n)


def dihedral_exponents(order, index):
    """(i, j) with element = a^i b^j in dihedral_group(order)."""
    n = order // 2
    return index % n, index // n


def pauli_group():
    """The order-16 Pauli group in U(2): one shared, validated group.

    Built as the semidirect product D8 x| Z2 where the Z2 generator acts on
    D8 = <a, b | a^4 = b^2 = 1, bab^{-1} = a^{-1}> by conjugation with a.
    Element (d, k) has index k*8 + d with d a D8 index.
    """
    d8 = dihedral_group(8)
    a = dihedral_index(8, 1, 0)

    def act(k, d):
        # conjugation by a^k inside D8
        for _ in range(k % 2):
            d = d8.conjugate(a, d)
        return d

    def mul(x, y):
        d1, k1 = x % 8, x // 8
        d2, k2 = y % 8, y // 8
        # (d1, k1)(d2, k2) = (d1 * act(k1, d2), k1 + k2)
        return ((k1 + k2) % 2) * 8 + d8.mul(d1, act(k1, d2))

    return _builtin("pauli", (), {}, "pauli", lambda: [
        [mul(x, y) for y in range(16)] for x in range(16)])


def builtin_group(name, params=None):
    """Construct a builtin group: cyclic, product, dihedral, or pauli."""
    params = dict(params or {})
    if name == "cyclic":
        return cyclic_group(int(params["n"]))
    if name == "product":
        return product_group([int(n) for n in params["factors"]])
    if name == "dihedral":
        return dihedral_group(int(params["order"]))
    if name == "pauli":
        return pauli_group()
    raise UnknownBuiltin(f"unknown builtin group {name!r}")


builtin_group.cache_info = _builtin_groups.cache_info
builtin_group.cache_clear = _builtin_groups.cache_clear


# -- homomorphisms ---------------------------------------------------------


class GroupHom:
    """A homomorphism given by its value on every source element."""

    __slots__ = ("source", "target", "map")

    def __init__(self, source, target, mapping, check=True):
        mapping = tuple(mapping)
        if len(mapping) != source.order:
            raise ValueError("hom map has wrong length")
        if check:
            if mapping[source.identity] != target.identity:
                raise ValueError("hom does not preserve identity")
            src, dst = source.table, target.table
            span = spanning_set(src, source.identity, source.elements())
            try:
                ok = all(mapping[row[s]] == dst[fx][mapping[s]]
                         for s in span for row, fx in zip(src, mapping))
            except IndexError:  # a value out of range: the scan raises it in order
                ok = False
            if not ok:
                for a, b in itertools.product(source.elements(), repeat=2):
                    if mapping[src[a][b]] != dst[mapping[a]][mapping[b]]:
                        raise ValueError(f"not a homomorphism at ({a}, {b})")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "map", mapping)

    def __setattr__(self, name, value):
        raise AttributeError("GroupHom is immutable")

    def __call__(self, g):
        return self.map[g]

    @staticmethod
    def identity(group):
        return GroupHom(group, group, range(group.order), check=False)

    def is_injective(self):
        return len(set(self.map)) == self.source.order

    def is_surjective(self):
        return len(set(self.map)) == self.target.order

    def kernel(self):
        return [g for g in range(self.source.order)
                if self.map[g] == self.target.identity]

    def image(self):
        return sorted(set(self.map))

