"""Finite action groupoids and the gauge groupoids of tori.

Every groupoid here is an action groupoid G x| X of a finite group G acting
on a finite set X (Willerton, AGT 8, 2008): a morphism x -> y is an element
k with k.x = y.  The main instances are the gauge groupoids of a finite
group on a torus (commuting n-tuples under simultaneous conjugation).  An
orbit walk gives each object's isomorphism class, a transporter from its
representative, and its automorphism group together with a generating set
of it read off the same walk (Schreier's lemma).
"""

from __future__ import annotations

from .errors import BudgetExceeded
from .groups import FiniteGroup
from .memo import _Memo

GAUGE_TUPLE_BUDGET = 10**6
# an invariants pass asks for 85 (group, n) keys in 117 calls
GAUGE_MEMO_SIZE = 256
_gauge_groupoids = _Memo(GAUGE_MEMO_SIZE)


class FinGroupoid:
    """The action groupoid of ``group`` acting on ``objects``.

    ``act(k, x)`` is the image of the object x under the group element k;
    it must be a left action, act(a b, x) = act(a, act(b, x)).
    """

    def __init__(self, group: FiniteGroup, objects, act):
        self.group = group
        self.act = act
        self._objects = tuple(objects)
        self._classes = None
        self._stab = {}  # representative -> stabilizer, in element order
        self._stab_gens = {}  # representative -> a generating set of it
        self._transport = {}  # object -> (representative, transporter)

    def objects(self):
        return self._objects

    def isomorphism_classes(self):
        """The orbits, each sorted by repr with its representative first.

        One walk per orbit applies every group element to one object x; it
        records a transporter T_y to every member y and the representative's
        stabilizer, t Stab(x) t^{-1} for the t taking x to it, with its
        Schreier generators T_{s.y}^{-1} s T_y, s in ``group.generators()``
        (``aut_generators``).  Raises ValueError if an image is not an object.
        """
        if self._classes is None:
            g, act = self.group, self.act
            table, inv, gens = g.table, g.inverses, g.generators()
            known = set(self._objects)
            classes = []
            for x in self._objects:
                if x in self._transport:
                    continue
                reach = {}  # image -> first k with act(k, x) == image
                images, fixing = [], []  # act(k, x) for every k; Stab(x)
                for k in g.elements():
                    y = act(k, x)
                    if y not in known:
                        raise ValueError(f"{y!r} = act({k!r}, {x!r}) is not an object")
                    reach.setdefault(y, k)
                    images.append(y)
                    if y == x:
                        fixing.append(k)
                cls = sorted(reach, key=repr)
                rep = cls[0]
                back = inv[reach[rep]]
                for y, k in reach.items():
                    self._transport[y] = (rep, table[k][back])
                self._stab[rep] = tuple(sorted(g.conjugate(reach[rep], s) for s in fixing))
                # s T_y = (s k) back: rep -> s.y = images[s k]; a fixed point has T = 1
                schreier = gens if len(reach) == 1 else {
                    table[inv[self._transport[images[u]][1]]][table[u][back]]
                    for u in (table[s][k] for k in reach.values() for s in gens)}
                self._stab_gens[rep] = min(self._stab[rep], tuple(schreier), key=len)
                classes.append(cls)
            self._classes = sorted(classes, key=lambda c: repr(c[0]))
        return self._classes

    def transporter(self, y):
        """(rep, k): the representative of y's orbit and k with act(k, rep) == y."""
        if self._classes is None:
            self.isomorphism_classes()
        return self._transport[y]

    def aut(self, x):
        """Automorphisms of the object x in element order, read off its
        orbit's walk: Stab(k.rep) = k Stab(rep) k^{-1}.  A representative
        returns its stored stabilizer as it is."""
        rep, k = self.transporter(x)
        if x == rep:
            return self._stab[rep]
        return tuple(sorted(self.group.conjugate(k, s) for s in self._stab[rep]))

    def aut_generators(self, rep):
        """A generating set of Aut(rep), rep an orbit representative: its
        Schreier generators, or all of Aut(rep) when that is not longer."""
        if self._classes is None:
            self.isomorphism_classes()
        return self._stab_gens[rep]


def gauge_groupoid(group: FiniteGroup, n: int) -> FinGroupoid:
    """Bun_G(T^n): commuting n-tuples in G under simultaneous conjugation.

    Memoized per (group, n), with its orbit walk, for the GAUGE_MEMO_SIZE
    most recently used keys; equal groups share one groupoid.
    ``gauge_groupoid.cache_info()`` counts hits and misses, and the
    dimension and budget checks run before the lookup.
    """
    if n < 0:
        raise ValueError("torus dimension must be >= 0")
    if group.order**n > GAUGE_TUPLE_BUDGET:
        raise BudgetExceeded("gauge groupoid tuples", group.order**n, GAUGE_TUPLE_BUDGET)
    return _gauge_groupoids.get((group, n), lambda: _build_gauge_groupoid(group, n))


def _build_gauge_groupoid(group, n):
    tuples = [()]
    for _ in range(n):
        nxt = []
        for t in tuples:
            for g in group.elements():
                if all(group.commute(g, x) for x in t):
                    nxt.append(t + (g,))
        tuples = nxt
    return FinGroupoid(
        group, tuples, lambda k, t: tuple([group.conjugate(k, x) for x in t])
    )


gauge_groupoid.cache_info = _gauge_groupoids.cache_info
gauge_groupoid.cache_clear = _gauge_groupoids.cache_clear
