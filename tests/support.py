"""Shared helpers and independent oracles for the test suite."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

from operator import neg

from dwkit.anomalies import (
    Extension,
    NonAbelianCocycle,
    _ext_sigma,
    _verify_boundary_pair,
    cocycle_from_extension,
    extension_from_cocycle,
    relative_partition_sectors,
)
from dwkit.cochains import (
    Cochain,
    TupleIndex,
    _delta_faces,
    _factor,
    all_tuples,
    coboundary_agrees,
    cochain_vector,
    delta_matrix_rows,
    interval_pairing,
    is_cocycle,
    numerators_at,
    pullback,
    vector_cochain,
)
from dwkit.errors import (
    DegreeMismatch,
    NonCommuting,
    NotACocycle,
    NotGaugeInvariant,
    VerificationFailed,
)
from dwkit.groupoids import FinGroupoid, gauge_groupoid
from dwkit.groups import (
    FiniteGroup,
    GroupHom,
    cyclic_group,
    dihedral_exponents,
    dihedral_group,
    pauli_group,
    product_digits,
    product_group,
    product_index,
)
from dwkit.invariants import (
    ExactPhaseSum,
    TorusPartition,
    _signed_permutations,
    torus_pairing,
)
from dwkit.linalg import SparseElimination, solve_qz_checked
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


def orbifold_torus_sum(ext: Extension, omega_p: Cochain, theta: Cochain):
    """(1/|G|) * the sum of relative_partition_sectors(ext, omega_p, theta)
    over the commuting n-tuples phi of G (n = deg omega'), read off the
    table, which must be exactly its sectors: gauging G in the relative
    theory, as a pushforward."""
    g_grp, table = ext.quotient, ext.quotient.table
    sectors = relative_partition_sectors(ext, omega_p, theta)
    total = 0
    for phi in itertools.product(g_grp.elements(), repeat=omega_p.degree):
        if all(table[a][b] == table[b][a] for a in phi for b in phi):
            value = sectors.pop(phi).value
            assert value is not None, f"irrational sector {phi}"
            total += value
    assert not sectors, f"sectors that do not commute: {sorted(sectors)}"
    return total / g_grp.order


# -- groupoid cardinality and integration over homotopy fibres, the
# reference for dwkit.anomalies' residue sums


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


def stabilizer_order(groupoid: FinGroupoid, x):
    """|Aut(x)|, the order of the stabilizer of x."""
    return len(groupoid._stab[groupoid.transporter(x)[0]])


def cardinality(groupoid: FinGroupoid) -> Fraction:
    """Groupoid cardinality: sum of 1/|Aut| over isomorphism classes."""
    total = Fraction(0)
    for cls in groupoid.isomorphism_classes():
        total += Fraction(1, stabilizer_order(groupoid, cls[0]))
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
        weight = Fraction(1, stabilizer_order(groupoid, rep))
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


def reference_relative_partition(ext: Extension, omega_p: Cochain,
                                 theta: Cochain, phi):
    """Relative (anomalous) partition function on the torus in sector phi.

    phi is a commuting tuple in G of length n = deg(omega'); the value is
    the groupoid integral over the homotopy fibre of lambda_* above phi of
    the omega'-action of the lifted holonomies times the theta-cylinder
    term of the comparison isomorphism.
    """
    _verify_boundary_pair(ext, omega_p, theta)
    n = omega_p.degree
    g_grp = ext.quotient
    if len(phi) != n:
        raise DegreeMismatch(
            f"sector must be a commuting {n}-tuple (n = deg omega'), got "
            f"length {len(phi)}")
    for a in phi:
        for b in phi:
            if not g_grp.commute(a, b):
                raise NonCommuting(a, b)
    fibre = homotopy_fiber(ext.lam, phi)
    ident = GroupHom.identity(g_grp)
    m = lcm(omega_p.modulus, theta.modulus)
    top = omega_p.numerators(m)
    # one theta-cylinder per distinct interval holonomy h of the fibre
    holonomies = {h for _phihat, h in fibre.objects()} - {g_grp.identity}
    cylinders = {h: interval_pairing(theta, h, ident).numerators(m)
                 for h in holonomies}

    def integrand(obj):
        phihat, h = obj
        x = torus_pairing(top, phihat)
        if h in cylinders:
            x -= torus_pairing(cylinders[h], tuple(ext.lam(y) for y in phihat))
        return PhaseValue(x, m).reduced()

    # an empty fibre integrates to 0, the empty phase sum
    weights = integrate(fibre, integrand) if fibre.objects() else {}
    total = ExactPhaseSum.from_weights(weights)
    return TorusPartition(total.as_rational(), total)


def delooping(group: FiniteGroup) -> FinGroupoid:
    """BG, the one-object groupoid with automorphism group G."""
    return gauge_groupoid(group, 0)


def scanned_aut(groupoid: FinGroupoid, x):
    """Aut(x) by a scan of the group: the elements k with k.x = x, in
    element order."""
    return tuple(k for k in groupoid.group.elements() if groupoid.act(k, x) == x)


def reference_flat_basis(groupoid: FinGroupoid, phase):
    """The orbit representatives whose ``phase`` vanishes on every
    automorphism: ``flat_basis`` read on the whole stabilizer."""
    return [
        cls[0]
        for cls in groupoid.isomorphism_classes()
        if not any(phase(cls[0], k) for k in groupoid.aut(cls[0]))
    ]


def closure(group: FiniteGroup, gens):
    """The subgroup generated by ``gens``, as a set, by repeated products."""
    closed = {group.identity}
    while True:
        grown = closed | {group.mul(x, s) for x in closed for s in gens}
        if grown == closed:
            return closed
        closed = grown


def aut_generators_generate(groupoid: FinGroupoid):
    """Whether the kept generating set of each representative's stabilizer
    generates exactly that stabilizer."""
    return all(
        closure(groupoid.group, groupoid.aut_generators(cls[0]))
        == set(groupoid.aut(cls[0]))
        for cls in groupoid.isomorphism_classes()
    )


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


def scanned_iota_inverse(ext: Extension, x):
    """iota^{-1}(x) by a scan of the kernel, or None off the image."""
    for d in ext.kernel.elements():
        if ext.iota(d) == x:
            return d
    return None


def reference_first_obstruction(ext: Extension, omega: Cochain, phis,
                                normalized=False):
    """is_first_obstruction_trivial formed from Cochains, on the full
    system: every pair of G x G, identity pairs included, and one slant
    per pair (a reference for the normalized system); with ``normalized``
    on the library's pairs of non-identity elements, the same system it
    forms from vectors, eliminated under a key of its own.  Same contract:
    (True, corrected family) after re-verifying every c_g closed and every
    corrected U to be delta b, or (False, None) backed by a checked
    certificate."""
    g_grp, d_grp = ext.quotient, ext.kernel
    n, inv = omega.degree, g_grp.inverses
    sigma = _ext_sigma(ext)
    actions = {g: ext.action(g) for g in g_grp.elements()}
    ident = GroupHom.identity(d_grp)

    elements = g_grp.nonidentity() if normalized else g_grp.elements()
    pairs = list(itertools.product(elements, repeat=2))
    slants = [interval_pairing(omega, sigma(inv[g1], inv[g2]), ident)
              for g1, g2 in pairs]

    def obstruction(family, p):
        g1, g2 = pairs[p]
        return (
            family[inv[g1]]
            + pullback(actions[g1], family[inv[g2]])
            - family[inv[g_grp.mul(g1, g2)]]
            + slants[p]
        )

    us = [obstruction(phis, p) for p in range(len(pairs))]
    if not all(map(is_cocycle, us)):
        raise NotACocycle("obstruction cochain must be closed")

    # columns: c_g for g != 1 in blocks of idx_c, then b_{g1,g2} per pair
    gens = d_grp.generators()
    idx_c, idx_b = TupleIndex(d_grp, n - 1), TupleIndex(d_grp, n - 2)
    block = {g: k * idx_c.size for k, g in enumerate(g_grp.nonidentity())}
    off_b = len(block) * idx_c.size
    lead = list(idx_b.rows(gens))

    def build():
        crows = delta_matrix_rows(idx_c, gens)
        rows = [{block[g] + c: v for c, v in row.items()}
                for g in block for row in crows]
        brows = delta_matrix_rows(idx_b, gens)
        pos_c = idx_c.positions
        for p, (g1, g2) in enumerate(pairs):
            terms = ((inv[g1], 1, False), (inv[g2], 1, True),
                     (inv[g_grp.mul(g1, g2)], -1, False))
            for t, brow in zip(lead, brows):
                row = {off_b + p * idx_b.size + c: -v for c, v in brow.items()}
                for g, sign, acted in terms:
                    if g in block:
                        at = tuple(map(actions[g1], t)) if acted else t
                        c = block[g] + pos_c[at]
                        row[c] = row.get(c, 0) + sign
                rows.append(row)
        return rows, off_b + len(pairs) * idx_b.size

    den = lcm(*(u.denominator() for u in us))
    rhs = [0] * (len(block) * idx_c.row_count(gens))
    for u in us:
        rhs += map(neg, numerators_at(u, lead, den))
    key = ("first_obstruction_reference", normalized, g_grp, d_grp,
           tuple(actions[g].map for g in g_grp.elements()), n)
    sol = solve_qz_checked(key, build, rhs, den,
                           solves_rows(build()[0], rhs, den))
    if sol is None:
        return False, None
    x, m = sol
    corrected = dict(phis)
    for g, off in block.items():
        c = vector_cochain(idx_c, x[off:off + idx_c.size], m)
        if not is_cocycle(c):
            raise VerificationFailed("solver output must be closed")
        corrected[g] = phis[g] + c
    for p in range(len(pairs)):
        off = off_b + p * idx_b.size
        b = vector_cochain(idx_b, x[off:off + idx_b.size], m)
        u = obstruction(corrected, p)
        if not (is_cocycle(u) and coboundary_agrees(b, u)):
            raise VerificationFailed("corrected obstruction must be delta b")
    return True, corrected


def solves_rows(rows, b, den):
    """A ``finish`` for solve_qz_checked that checks a solution on the
    sparse integer ``rows``: (x, m) back if sum_c a_c x_c / m = b_r / den
    (mod 1) on every row r, else VerificationFailed."""
    def finish(sol):
        x, m = sol
        for row, v in zip(rows, b, strict=True):
            if (den * sum(a * x[c] for c, a in row.items()) - m * v) % (m * den):
                raise VerificationFailed("solution must solve the rows")
        return sol

    return finish


def row_log_slice(ops, rows):
    """The ops (i, j, q), row_i += q * row_j, of the log ``ops`` whose
    values the final values of ``rows`` are made from, in log order, by
    data flow: op k makes a new value of row i from the values of rows i
    and j that it reads, and each value is followed back to the ops that
    made what it read."""
    ops = list(ops)
    last, reads = {}, []  # row -> op that made its value; per op, its inputs
    for k, (i, j, _q) in enumerate(ops):
        reads.append([last[r] for r in (i, j) if r in last])
        last[i] = k
    stack, made = [last[r] for r in rows if r in last], set()
    while stack:
        k = stack.pop()
        if k not in made:
            made.add(k)
            stack += reads[k]
    return [ops[k] for k in sorted(made)]


def direct_product_extension(d_grp: FiniteGroup, g_grp: FiniteGroup) -> Extension:
    """The split extension with trivial action: Ghat = D x G."""
    alpha = [list(d_grp.elements()) for _ in g_grp.elements()]
    sigma = [[d_grp.identity] * g_grp.order for _ in g_grp.elements()]
    return extension_from_cocycle(
        NonAbelianCocycle(g_grp, d_grp, alpha, sigma, check=False)
    )


# -- formal chains and torus cycles: the chain-level reference for the
# integer torus sums and pairings in dwkit.invariants


class FormalChain:
    """Finitely supported integer combination of bar n-simplices."""

    __slots__ = ("group", "degree", "terms")

    def __init__(self, group, degree, terms=None):
        cleaned = {}
        e = group.identity
        for t, k in (terms or {}).items():
            t = tuple(t)
            if len(t) != degree:
                raise ValueError(f"tuple {t} has wrong length")
            if k and e not in t:
                cleaned[t] = cleaned.get(t, 0) + k
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(
            self, "terms", {t: k for t, k in cleaned.items() if k}
        )

    def __setattr__(self, name, value):
        raise AttributeError("FormalChain is immutable")

    @staticmethod
    def zero(group, degree):
        return FormalChain(group, degree, {})

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        if self.group != other.group or self.degree != other.degree:
            raise DegreeMismatch("chains not compatible")
        terms = dict(self.terms)
        for t, k in other.terms.items():
            terms[t] = terms.get(t, 0) + k
        return FormalChain(self.group, self.degree, terms)

    def __sub__(self, other):
        return self + (-1) * other

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return FormalChain(
            self.group, self.degree, {t: v * k for t, v in self.terms.items()}
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, FormalChain):
            return NotImplemented
        return (
            self.group == other.group
            and self.degree == other.degree
            and self.terms == other.terms
        )

    def boundary(self):
        """Bar boundary (adjoint to the coboundary under the pairing)."""
        terms = {}
        for t, k in self.terms.items():
            for j, f in enumerate(_delta_faces(self.group, t)):
                if f is not None:
                    terms[f] = terms.get(f, 0) + (-k if j % 2 else k)
        return FormalChain(self.group, self.degree - 1, terms)

    def __repr__(self):
        return f"FormalChain(degree={self.degree}, terms={len(self.terms)})"


def torus_fundamental_cycle(group, elems):
    """Fundamental cycle of the n-torus with the given commuting holonomies.

    The n-fold shuffle product of the 1-cycles (g_i), which is
    sum over permutations s of sign(s) (g_s(1), ..., g_s(n)).
    """
    elems = tuple(elems)
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            if not group.commute(elems[i], elems[j]):
                raise NonCommuting(elems[i], elems[j])
    terms = {}
    for sign, perm in _signed_permutations(len(elems)):
        t = tuple(elems[i] for i in perm)
        terms[t] = terms.get(t, 0) + sign
    return FormalChain(group, len(elems), terms)


def evaluate(c: Cochain, z: FormalChain):
    """Pairing <c, z> = sum of coeff * c(tuple) in Q/Z."""
    if c.group != z.group:
        raise DegreeMismatch("cochain and chain on different groups")
    if c.degree != z.degree:
        raise DegreeMismatch(
            f"cochain degree {c.degree} vs chain degree {z.degree}"
        )
    acc = PhaseValue.zero(c.modulus)
    for t, k in z.terms.items():
        acc = acc + k * c.value(t)
    return acc


# -- PhaseValue reference for the integer cochain algebra of dwkit.cochains


def reference_combine(a: Cochain, b: Cochain, sign):
    """a + sign * b, one PhaseValue sum per tuple of b."""
    vals = dict(a.values)
    for t, v in b.values.items():
        w = vals.get(t, PhaseValue.zero(1)) + (sign * v)
        if w.is_zero():
            vals.pop(t, None)
        else:
            vals[t] = w
    return Cochain(a.group, a.degree, lcm(a.modulus, b.modulus), vals,
                   a.loops)


def reference_multiple(c: Cochain, k):
    """k * c, one PhaseValue product per value."""
    return Cochain(c.group, c.degree, c.modulus,
                   {t: v * k for t, v in c.values.items()}, c.loops)


def reference_pullback(f: GroupHom, c: Cochain):
    """f^* c through Cochain.value at every tuple of the source."""
    vals = {}
    for t in all_tuples(f.source, c.degree):
        v = c.value(tuple(f(g) for g in t))
        if not v.is_zero():
            vals[t] = v
    return Cochain(f.source, c.degree, c.modulus, vals)


def reference_interval_pairing(omega_hat: Cochain, ghat, iota: GroupHom):
    """interval_pairing as a PhaseValue sum of n signed values per tuple."""
    ghg = omega_hat.group
    n = omega_hat.degree
    vals = {}
    for t in all_tuples(iota.source, n - 1):
        up = [iota(d) for d in t]
        acc = PhaseValue.zero(omega_hat.modulus)
        sign = 1
        for i in range(n):
            args = [ghg.conjugate(ghat, u) for u in up[:i]] + [ghat] + up[i:]
            acc = acc + sign * omega_hat.value(tuple(args))
            sign = -sign
        if not acc.is_zero():
            vals[t] = acc
    return Cochain(iota.source, n - 1, omega_hat.modulus, vals)


def reference_rhs(c: Cochain, tuples, den):
    """c at ``tuples`` over den, through Fraction arithmetic."""
    return [int(c.value(t).as_fraction() * den) for t in tuples]


def mixed_radix_position(index, t):
    """The position of t on a TupleIndex, computed in mixed radix (base
    first, then one digit per argument): a reference for
    ``TupleIndex.positions``."""
    i = 0
    if index.loops:
        i = index.bases.index(t[:index.loops])
        t = t[index.loops:]
    for g in t:
        i = i * index.radix + index.nonid.index(g)
    return i


def reference_delta_rows(index, first_args=None):
    """The rows of delta on ``index``, built tuple by tuple from the faces
    of each tuple of ``index.rows(first_args)``: a reference for
    ``delta_matrix_rows``.  Faces that share a column add their signs, and
    a column whose sum is 0 is dropped (and re-inserted if a later face
    reads it again)."""
    rows = []
    for t in index.rows(first_args):
        row = {}
        for j, f in enumerate(_delta_faces(index.group, t, index.loops)):
            if f is None:
                continue
            c = mixed_radix_position(index, f)
            v = row.get(c, 0) + (-1 if j % 2 else 1)
            if v:
                row[c] = v
            else:
                row.pop(c, None)
        rows.append(row)
    return rows


def reference_associativity_witness(table):
    """The lexicographically first triple (a, b, c) with (ab)c != a(bc),
    or None: the exhaustive scan over all order^3 triples."""
    for a, b, c in itertools.product(range(len(table)), repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            return (a, b, c)
    return None


def reference_hom_witness(src: FiniteGroup, dst: FiniteGroup, mapping):
    """The message GroupHom(src, dst, mapping) must raise, found by the
    exhaustive scan over all pairs, or None for a homomorphism."""
    if mapping[src.identity] != dst.identity:
        return "hom does not preserve identity"
    for a, b in itertools.product(src.elements(), repeat=2):
        if mapping[src.mul(a, b)] != dst.mul(mapping[a], mapping[b]):
            return f"not a homomorphism at ({a}, {b})"
    return None


def reference_cocycle_message(g_grp: FiniteGroup, d_grp: FiniteGroup,
                              alpha, sigma):
    """The message NonAbelianCocycle(g_grp, d_grp, alpha, sigma) must
    raise, with every relation scanned on every letter, or None."""
    if tuple(alpha[g_grp.identity]) != tuple(d_grp.elements()):
        return "alpha(1) must be the identity automorphism"
    if sigma[g_grp.identity][g_grp.identity] != d_grp.identity:
        return "sigma(1,1) must be the identity"
    elems = list(d_grp.elements())
    for g in g_grp.elements():
        a = alpha[g]
        if sorted(a) != elems:
            return f"alpha({g}) is not a bijection"
        for x, y in itertools.product(elems, repeat=2):
            if a[d_grp.mul(x, y)] != d_grp.mul(a[x], a[y]):
                return f"alpha({g}) is not a homomorphism at ({x},{y})"
    for g1, g2 in itertools.product(g_grp.elements(), repeat=2):
        s = sigma[g1][g2]
        for d in elems:
            rhs = d_grp.word([d_grp.inverses[s], alpha[g1][alpha[g2][d]], s])
            if alpha[g_grp.mul(g1, g2)][d] != rhs:
                return ("twisted-homomorphism relation fails at "
                        f"g1={g1}, g2={g2}, d={d}")
    for g1, g2, g3 in itertools.product(g_grp.elements(), repeat=3):
        lhs = d_grp.mul(sigma[g1][g2], sigma[g_grp.mul(g1, g2)][g3])
        rhs = d_grp.mul(alpha[g1][sigma[g2][g3]], sigma[g1][g_grp.mul(g2, g3)])
        if lhs != rhs:
            return f"cocycle relation fails at ({g1},{g2},{g3})"
    return None


def swap_intercalate(table, r1, r2, c1, c2):
    """A copy of ``table`` with the 2x2 subsquare at rows r1, r2 and
    columns c1, c2 swapped; it must be an intercalate (u v / v u)."""
    rows = [list(row) for row in table]
    u, v = rows[r1][c1], rows[r1][c2]
    if (rows[r2][c1], rows[r2][c2]) != (v, u):
        raise ValueError("not an intercalate")
    rows[r1][c1] = rows[r2][c2] = v
    rows[r1][c2] = rows[r2][c1] = u
    return rows


def product_index_table(factors):
    """product_group(factors)'s table built pair by pair through
    product_index and product_digits."""
    order = 1
    for n in factors:
        order *= n
    digits = [product_digits(factors, i) for i in range(order)]
    return [[product_index(factors, [x + y for x, y in zip(da, db)])
             for db in digits] for da in digits]


def reference_cochain_numerators(group, degree, modulus, values, loops=0):
    """The numerators ``Cochain(group, degree, modulus, values, loops)``
    stores, in storage order, computed through reduced PhaseValues with the
    constructor's checks, in its order and with its messages."""
    nums = {}
    e = group.identity
    for t, v in values.items():
        t = tuple(t)
        if len(t) != loops + degree:
            raise ValueError(f"tuple {t} has wrong length")
        if e in t[loops:]:
            if not v.is_zero():
                raise ValueError(f"non-normalized value at {t}")
            continue
        r = v.reduced()
        if modulus % r.modulus:
            raise ValueError(
                f"value modulus {v.modulus} does not divide {modulus}")
        if not r.is_zero():
            nums[t] = r.numerator * (modulus // r.modulus)
    return nums


def reference_catalog_cocycle(name, params=None):
    """``catalog_cocycle(name, params)`` for the three cochain families,
    built tuple by tuple as PhaseValues through ``product_digits`` and
    ``dihedral_exponents``, and stored by ``reference_cochain_numerators``."""
    params = dict(params or {})
    vals = {}
    if name == "product_2cocycle":
        n_par, k = int(params["N"]), int(params.get("k", 1))
        grp, degree, modulus = product_group([n_par, n_par]), 2, n_par
        digits = [product_digits([n_par, n_par], x) for x in grp.elements()]
        for s, t in all_tuples(grp, 2):
            vals[s, t] = PhaseValue(k * digits[s][0] * digits[t][1], n_par)
    elif name == "dihedral8_2cocycle":
        grp, degree, modulus = dihedral_group(8), 2, 4
        for t in all_tuples(grp, 2):
            _i, j = dihedral_exponents(8, t[0])
            i2, _j2 = dihedral_exponents(8, t[1])
            if j == 1:
                vals[t] = PhaseValue(i2, 4)
    elif name == "cyclic_3cocycle":
        n_par, k = int(params["N"]), int(params.get("k", 1))
        grp, degree, modulus = cyclic_group(n_par), 3, n_par
        for a, b, c in all_tuples(grp, 3):
            vals[a, b, c] = PhaseValue(k * a * ((b + c) // n_par), n_par)
    else:
        raise ValueError(f"no reference for {name!r}")
    nums = reference_cochain_numerators(grp, degree, modulus, vals)
    return Cochain._from_numerators(grp, degree, modulus, nums.items())


def pauli_h3_duality_certificate():
    """(cochains, cycles) for H^3(Pauli; U(1)), read off one plain
    elimination U R V = D of R, the generator-led rows of delta on
    3-cochains (``delta_matrix_rows``).

    For each pivot (r, c, d) with |d| > 1, in ascending |d|: the cochain
    (V e_c mod |d|)/|d|, and the integral 3-cycle z = (u_r R)/d as a
    {position on TupleIndex(pauli, 3): coefficient} dict, u_r row r of U.
    Since u_r R V = d e_c, the pairing of the cochain of one pivot with the
    cycle of another is 0 and with its own cycle 1/|d|.  Nothing here is
    checked: a test checks the closedness, the cycles and the pairings
    without reading the elimination.
    """
    pauli = pauli_group()
    index = TupleIndex(pauli, 3)
    rows = delta_matrix_rows(index, pauli.generators())
    elim = SparseElimination(rows, index.size).eliminate()
    cochains, cycles = [], []
    for r, c, d in sorted(elim.pivots, key=lambda p: abs(p[2])):
        if abs(d) == 1:
            continue
        e_c = [0] * index.size
        e_c[c] = 1
        cochains.append(vector_cochain(
            index, [v % abs(d) for v in elim.apply_col_ops(e_c)], abs(d)))
        z = {}
        for i, u in elim._row_of_u(r).items():
            for j, a in rows[i].items():
                z[j] = z.get(j, 0) + u * a
        cycles.append({j: v // d for j, v in z.items() if v})
    return cochains, cycles


def _crt_pair(r1, m1, r2, m2):
    """(r, m1*m2) with r = r1 mod m1 and r = r2 mod m2, for coprime m1, m2;
    VerificationFailed otherwise."""
    if gcd(m1, m2) != 1:
        raise VerificationFailed(f"CRT moduli {m1} and {m2} are not coprime")
    inv = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * inv % m2)) % (m1 * m2), m1 * m2


def kernel_coordinate_rows(group, n):
    """X, the rows of delta_n in kernel coordinates: elim_b eliminates the
    kernel of delta_{n+1} on generator-led rows, U B V = D, and X is the
    rows of V^{-1} delta_n at elim_b's free columns.  Row j of delta_n is
    the j-th coordinate of every column, so one pass over elim_b's
    column-op log, rows[j] -= q * rows[i] for op (i, j, q), replays V^{-1}
    on all columns at once."""
    index_k = TupleIndex(group, n + 1)
    elim_b = SparseElimination(
        delta_matrix_rows(index_k, group.generators()), index_k.size).eliminate()
    rows = delta_matrix_rows(TupleIndex(group, n))
    for i, j, q in elim_b.col_ops:
        src = rows[i]
        if not src:
            continue
        dst = rows[j]
        for c, v in src.items():
            nv = dst.get(c, 0) - q * v
            if nv:
                dst[c] = nv
            else:
                dst.pop(c, None)
    return [dict(sorted(rows[f].items())) for f in elim_b.free_cols]


def row_log_classifier(group, n):
    """(invariant factors, classify) of H^n(G; U(1)) read off U's row log,
    a reference for ``CohomologyGroup.classify`` by a route of its own, two
    eliminations: elim_b, the kernel of delta_{n+1} on generator-led rows,
    and elim_x, U X V = D for X the rows of delta_n in elim_b's kernel
    coordinates (``kernel_coordinate_rows``).

    classify(c) forms X c~/den as a mat-vec (c = c~/den, den its
    denominator; NotACocycle unless every entry divides by den), replays
    elim_x's row log on it, and reads U X c~/den at the torsion pivot rows.
    The per-prime slots (cofactor inverted mod p^e) and the CRT step then
    give the coordinates on the invariant factors.
    """
    index_n = TupleIndex(group, n)
    x_rows = kernel_coordinate_rows(group, n)
    elim_x = SparseElimination(x_rows, index_n.size).eliminate()
    primary = {}  # prime -> [(exponent, pivot position, cofactor)]
    for pos, (_r, _c, d) in enumerate(elim_x.pivots):
        if abs(d) > 1:
            for p, e in _factor(abs(d)).items():
                primary.setdefault(p, []).append((e, pos, abs(d) // p**e))
    for ranked in primary.values():
        ranked.sort(reverse=True)
    slots = []  # built descending, then reversed
    for t in range(max(map(len, primary.values()), default=0)):
        parts = []
        for p in sorted(primary):
            if t < len(primary[p]):
                e, pos, mult = primary[p][t]
                parts.append((p**e, elim_x.pivots[pos][0], mult))
        slots.append(parts)
    slots.reverse()
    factors = [lcm(*(pe for pe, _r, _m in parts)) for parts in slots]

    def classify(c):
        den = c.denominator()
        vec = cochain_vector(c, index_n, scale_to=den)
        xc = []
        for row in x_rows:
            v = sum(a * vec[j] for j, a in row.items())
            if v % den:
                raise NotACocycle("cochain is not closed over Q/Z")
            xc.append(v // den)
        y = SparseElimination.apply_row_ops(elim_x.row_ops, xc)
        out = []
        for parts in slots:
            residue, mod = 0, 1
            for pe, r, mult in parts:
                residue, mod = _crt_pair(residue, mod,
                                         y[r] * pow(mult, -1, pe) % pe, pe)
            out.append(residue)
        return tuple(out)

    return factors, classify
