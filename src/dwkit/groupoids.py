"""Finite action groupoids, cardinality, and gauge-invariant integration.

Every groupoid here is an action groupoid G x| X of a finite group G acting
on a finite set X (Willerton, AGT 8, 2008): a morphism x -> y is an element
k with k.x = y.  The main instances are the gauge groupoids of a finite
group on a torus (commuting n-tuples under simultaneous conjugation) and
their homotopy fibres along a group homomorphism.

By orbit-stabilizer, integration against the groupoid cardinality measure
sums f(x)/|Stab(x)| over one representative per orbit; the integrand is
checked to be constant on orbits before summing.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BudgetExceeded, NotGaugeInvariant
from .groups import FiniteGroup, GroupHom
from .linalg import _Memo
from .phase import PhaseValue

GAUGE_TUPLE_BUDGET = 10**6
# an invariants pass asks for 85 (group, n) keys in 126 calls
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
        self._transport = {}  # object -> (representative, transporter)

    def objects(self):
        return self._objects

    def isomorphism_classes(self):
        """The orbits, each sorted by repr with its representative first.

        One walk per orbit applies every group element to one object x; it
        records a transporter to every member and the representative's
        stabilizer, t Stab(x) t^{-1} for the t taking x to it.  Raises
        ValueError if an image is not an object.
        """
        if self._classes is None:
            g, act = self.group, self.act
            known = set(self._objects)
            classes = []
            for x in self._objects:
                if x in self._transport:
                    continue
                reach = {}  # image -> first k with act(k, x) == image
                fixing = []
                for k in g.elements():
                    y = act(k, x)
                    if y not in known:
                        raise ValueError(f"{y!r} = act({k!r}, {x!r}) is not an object")
                    reach.setdefault(y, k)
                    if y == x:
                        fixing.append(k)
                cls = sorted(reach, key=repr)
                rep = cls[0]
                back = g.inverses[reach[rep]]
                for y, k in reach.items():
                    self._transport[y] = (rep, g.mul(k, back))
                self._stab[rep] = tuple(sorted(g.conjugate(reach[rep], s) for s in fixing))
                classes.append(cls)
            self._classes = sorted(classes, key=lambda c: repr(c[0]))
        return self._classes

    def transporter(self, y):
        """(rep, k): the representative of y's orbit and k with act(k, rep) == y."""
        if self._classes is None:
            self.isomorphism_classes()
        return self._transport[y]

    def stabilizer_order(self, x):
        """|Aut(x)|, the order of the stabilizer of x."""
        return len(self._stab[self.transporter(x)[0]])

    def aut(self, x):
        """Automorphisms of the object x in element order, read off its
        orbit's walk: Stab(k.rep) = k Stab(rep) k^{-1}."""
        rep, k = self.transporter(x)
        return tuple(sorted(self.group.conjugate(k, s) for s in self._stab[rep]))


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
        group, tuples, lambda k, t: tuple(group.conjugate(k, x) for x in t)
    )


gauge_groupoid.cache_info = _gauge_groupoids.cache_info
gauge_groupoid.cache_clear = _gauge_groupoids.cache_clear


def homotopy_fiber(hom: GroupHom, y) -> FinGroupoid:
    """The homotopy fibre of Bun_Ghat(T^n) -> Bun_G(T^n) over the tuple y.

    Objects are pairs (xhat, h) of a commuting n-tuple in the source and
    h in the target with h lambda(xhat) h^{-1} = y; ghat acts by
    (xhat, h) -> (ghat xhat ghat^{-1}, h lambda(ghat)^{-1}).
    """
    src, tgt = hom.source, hom.target
    y = tuple(y)
    objs = []
    for x in gauge_groupoid(src, len(y)).objects():
        down = tuple(hom(a) for a in x)
        for h in tgt.elements():
            if tuple(tgt.conjugate(h, a) for a in down) == y:
                objs.append((x, h))

    def act(k, obj):
        x, h = obj
        return (
            tuple(src.conjugate(k, a) for a in x),
            tgt.mul(h, tgt.inverses[hom(k)]),
        )

    return FinGroupoid(src, objs, act)


def cardinality(groupoid: FinGroupoid) -> Fraction:
    """Groupoid cardinality: sum of 1/|Aut| over isomorphism classes."""
    total = Fraction(0)
    for cls in groupoid.isomorphism_classes():
        total += Fraction(1, groupoid.stabilizer_order(cls[0]))
    return total


def integrate(groupoid: FinGroupoid, f):
    """Integrate f over the groupoid: sum of f(x)/|Aut(x)| over classes.

    f must be constant on isomorphism classes (verified; a violating
    morphism is reported otherwise).  If f takes values in PhaseValue the
    result is a dict mapping reduced phases to rational weights; otherwise
    a single Fraction.
    """
    phase_weights = {}
    rational_total = Fraction(0)
    saw_phase = False
    saw_rational = False
    for cls in groupoid.isomorphism_classes():
        rep = cls[0]
        val = f(rep)
        for other in cls[1:]:
            if f(other) != val:
                raise NotGaugeInvariant(
                    (rep, other, groupoid.transporter(other)[1])
                )
        weight = Fraction(1, groupoid.stabilizer_order(rep))
        if isinstance(val, PhaseValue):
            saw_phase = True
            key = val.reduced()
            phase_weights[key] = phase_weights.get(key, Fraction(0)) + weight
        else:
            saw_rational = True
            rational_total += Fraction(val) * weight
    if saw_phase and saw_rational:
        raise TypeError("integrand mixes phases and rationals")
    if saw_phase:
        return {k: v for k, v in phase_weights.items() if v != 0}
    return rational_total
