"""Shared helpers and independent oracles for the test suite."""

import itertools
import random

from dwkit.anomalies import (
    Extension,
    NonAbelianCocycle,
    cocycle_from_extension,
    extension_from_cocycle,
)
from dwkit.cochains import Cochain, TupleIndex
from dwkit.errors import VerificationFailed
from dwkit.groupoids import FinGroupoid, gauge_groupoid
from dwkit.groups import FiniteGroup, GroupHom
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


def delooping(group: FiniteGroup) -> FinGroupoid:
    """BG, the one-object groupoid with automorphism group G."""
    return gauge_groupoid(group, 0)


def scanned_aut(groupoid: FinGroupoid, x):
    """Aut(x) by a scan of the group: the elements k with k.x = x, in
    element order."""
    return tuple(k for k in groupoid.group.elements() if groupoid.act(k, x) == x)


def find_isomorphism(a: FiniteGroup, b: FiniteGroup):
    """An isomorphism a -> b found by exhaustive generator-image search.

    Returns a GroupHom, or None if the groups are not isomorphic.
    """
    if a.order != b.order:
        return None
    gens = a.generators()
    words = {a.identity: ()}
    frontier = [a.identity]
    while frontier:
        x = frontier.pop(0)
        for i in range(len(gens)):
            y = a.mul(x, gens[i])
            if y not in words:
                words[y] = words[x] + (i,)
                frontier.append(y)
    orders = [a.element_order(g) for g in gens]
    candidates = [
        [h for h in b.elements() if b.element_order(h) == o] for o in orders
    ]
    for imgs in itertools.product(*candidates):
        mapping = [0] * a.order
        for x, w in words.items():
            mapping[x] = b.word([imgs[i] for i in w])
        if len(set(mapping)) != a.order:
            continue
        if all(
            mapping[a.mul(x, y)] == b.mul(mapping[x], mapping[y])
            for x in range(a.order)
            for y in range(a.order)
        ):
            return GroupHom(a, b, mapping, check=False)
    return None


def extension_round_trip_iso(ext: Extension) -> GroupHom:
    """The canonical equivalence from ext to its cocycle reconstruction.

    Sends x to (lambda(x), iota^{-1}(x * s(lambda(x))^{-1})); verified to be
    an isomorphism commuting with iota and lambda.
    """
    rebuilt = extension_from_cocycle(cocycle_from_extension(ext))
    ghat, g_grp, d_grp = ext.total, ext.quotient, ext.kernel
    dn = d_grp.order
    mapping = []
    for x in ghat.elements():
        g = ext.lam(x)
        d = ext.iota_inverse(ghat.mul(x, ghat.inverses[ext.section[g]]))
        mapping.append(g * dn + d)
    phi = GroupHom(ghat, rebuilt.total, mapping)
    if not phi.is_injective():
        raise VerificationFailed("round-trip map must be an isomorphism")
    if any(phi(ext.iota(d)) != rebuilt.iota(d) for d in d_grp.elements()):
        raise VerificationFailed("round-trip map must commute with iota")
    if any(rebuilt.lam(phi(x)) != ext.lam(x) for x in ghat.elements()):
        raise VerificationFailed("round-trip map must commute with lambda")
    return phi


def direct_product_extension(d_grp: FiniteGroup, g_grp: FiniteGroup) -> Extension:
    """The split extension with trivial action: Ghat = D x G."""
    alpha = [list(d_grp.elements()) for _ in g_grp.elements()]
    sigma = [[d_grp.identity] * g_grp.order for _ in g_grp.elements()]
    return extension_from_cocycle(
        NonAbelianCocycle(g_grp, d_grp, alpha, sigma, check=False)
    )
