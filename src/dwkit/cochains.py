"""Normalized bar cochains with values in Q/Z, and their exact cohomology.

Cohomology with U(1) coefficients is computed as integral cohomology one
degree up (exact for finite groups), with U(1)-valued generator cocycles
recovered by dividing integral torsion witnesses.  U(1) is divisible, so
H^n(G; U(1)) = Hom(H_n(G; Z), U(1)): a class is read by pairing it with
integral n-cycles, one per torsion summand, after ``is_cocycle``.

A cochain lives on the action groupoid G x| X_m.  X_0 is a point, so
``loops=0`` gives the group cochains on BG; X_m for m >= 1 is the set of
commuting m-tuples (the m-fold loop groupoid), on which x acts by
b -> x^{-1} b x.  The bar differential is the groupoid one: its face 0
transports the base along the first argument.

A key size reduction used throughout: a bar cochain z with delta z = 0 that
vanishes on all tuples whose first entry lies in a generating set vanishes
identically.  The simplicial identity gives z(b; s h, ...) =
z(s^{-1} b s; h, ...) for a generator s, so induction on the word length of
the first entry, taken over all bases at once, reaches every tuple.  Kernels and coboundary
equations are therefore solved on the generator-restricted row set, which is
exactly equivalent.  So is H^{n+1}(G; Z): restriction R to those rows is
injective on cocycles, so ``cohomology`` reads it as the torsion of the
cokernel of R delta_n, one elimination.

The argument needs only an abelian coefficient group, so it also decides
closedness over Q/Z.  Write a cochain c with values in (1/den)Z/Z as c~/den
with c~ integral.  Then delta c = 0 iff delta c~ = 0 mod den, and
delta c~ mod den is a Z/den-cocycle (delta delta c~ = 0 over Z).  Hence
``is_cocycle`` reads delta c~ mod den on the generator-led tuples only.  The
same holds for delta c = y with y closed, since delta c - y is then a cocycle
(``coboundary_agrees``); only ``coboundary`` reads every tuple.  The faces of
the generator-led tuples (of all, for ``coboundary``) depend only on (group,
degree, loops), so their column indices are kept as integer arrays on the
memoized index of that key (``TupleIndex.of``) and each check is a signed
sum of gathers from c~ (``_apply_faces``, which also does the torus and
transgression sums).  The rows of every elimination system
(``delta_matrix_rows``) are read off the same arrays, built for that system
and not kept.  Every column index is a position in ``TupleIndex.positions``,
the one map from tuples to positions.

A cochain is immutable, so its closedness is a fact about the object:
``is_cocycle``, the library's one closedness check (``classify`` calls it
too), decides it on the first call and keeps the verdict on the cochain,
never setting it from how the cochain was built.  Equal but distinct
cochains each decide once (hashing a cochain costs about as much as the
check).  ``closed_vector_cochain`` decides a solver's vector so before
wrapping it, and keeps the verdict.  So is the circle transgression of
the cochain, kept next to the verdict by ``invariants.transgress_circle``.

A cochain stores integer numerators: one x in [1, M) per nonzero tuple at
its modulus M.  Sums, differences, multiples, slants (``interval_pairing``)
and solve right-hand sides read them at the result modulus
(``Cochain.numerators``), treat an absent tuple as 0 and add ints; the
result keeps each sum reduced mod M, and drops the zeros, with no further
check.  Construction reads numerators too: the catalog writes them from
closed forms, and the public constructor reads each PhaseValue x/m once as
x*M/m.  Only ``values`` and ``value`` build PhaseValues, on access.
"""

from __future__ import annotations

import itertools
from array import array
from collections import defaultdict
from functools import cached_property, lru_cache
from math import gcd, lcm, prod
from operator import add, itemgetter, sub

from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    NotACocycle,
    UnknownFamily,
    VerificationFailed,
)
from .groupoids import gauge_groupoid
from .groups import (
    GroupHom,
    cyclic_group,
    dihedral_exponents,
    dihedral_group,
    product_group,
)
from .linalg import SparseElimination, solve_qz_checked
from .memo import _CacheInfo, _Memo
from .phase import PhaseValue

BAR_MATRIX_NNZ_BUDGET = 2**22
# the cohomology workload asks for 17 (group, degree) keys, once each
COHOMOLOGY_GROUP_MEMO_SIZE = 64
_cohomology_groups = _Memo(COHOMOLOGY_GROUP_MEMO_SIZE)
# a cohomology pass asks for 30 (group, degree, loops) keys in about 180 calls
INDEX_MEMO_SIZE = 64
_tuple_indices = _Memo(INDEX_MEMO_SIZE)
_verdict_counts = [0, 0]  # is_cocycle's [hits, misses]


# -- cochains ----------------------------------------------------------------


class Cochain:
    """Normalized n-cochain on G x| X_m with values in (1/M)Z/Z.

    ``loops`` is m (0 for BG).  Values are keyed by base + args: a base in
    X_m followed by n arguments in G, normalized to vanish when an argument
    is the identity.  A cochain stores one integer numerator x in [1, M)
    per nonzero tuple, the value being x/M at its ``modulus`` M;
    ``numerators`` reads them.  ``values`` and ``value`` build reduced
    PhaseValues on access, for readers outside hot loops.
    """

    __slots__ = ("group", "degree", "modulus", "_nums", "loops", "_closed",
                 "_transgressed")

    def __init__(self, group, degree, modulus, values=None, loops=0):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if modulus < 1:
            raise ValueError("modulus must be positive")
        nums = {}
        e = group.identity
        for t, v in (values or {}).items():
            t = tuple(t)
            if len(t) != loops + degree:
                raise ValueError(f"tuple {t} has wrong length")
            x, m = v.numerator, v.modulus
            if e in t[loops:]:
                if x % m:
                    raise ValueError(f"non-normalized value at {t}")
                continue
            # x*modulus/m is integral iff v's reduced modulus divides modulus
            x, r = divmod(x * modulus, m)
            if r:
                raise ValueError(
                    f"value modulus {m} does not divide {modulus}"
                )
            if x:
                nums[t] = x
        self._set(group, degree, modulus, nums, loops)

    def _set(self, *fields):
        """Set the fields in ``__slots__`` order, and the kept results
        ``_closed`` and ``_transgressed`` to None."""
        for name, field in zip(self.__slots__, fields + (None, None)):
            object.__setattr__(self, name, field)

    @classmethod
    def _from_numerators(cls, group, degree, modulus, items, loops=0):
        """The cochain x/modulus at each (t, x) of ``items``, x reduced mod
        modulus and dropped if 0: the library's own results, built from
        normalized tuples, skip the checks of the public constructor."""
        c = object.__new__(cls)
        c._set(group, degree, modulus,
               {t: r for t, x in items if (r := x % modulus)}, loops)
        return c

    def __setattr__(self, name, value):
        raise AttributeError("Cochain is immutable")

    @staticmethod
    def zero(group, degree, modulus=1, loops=0):
        return Cochain(group, degree, modulus, {}, loops)

    @property
    def values(self):
        """{t: reduced PhaseValue} over the nonzero tuples, in storage
        order (a new dict on every access)."""
        m = self.modulus
        return {t: PhaseValue(x, m).reduced() for t, x in self._nums.items()}

    def value(self, t):
        return PhaseValue(self._nums.get(tuple(t), 0), self.modulus).reduced()

    def is_zero(self):
        return not self._nums

    def numerators(self, modulus=None):
        """{t: x} with c(t) = x/modulus at every nonzero tuple; ``modulus``
        (default self.modulus) is a multiple of ``denominator()``."""
        m, own = modulus or self.modulus, self.modulus
        if m == own:
            return dict(self._nums)
        return {t: x * m // own for t, x in self._nums.items()}

    def _combine(self, other, sign):
        if (self.group, self.degree, self.loops) != (
            other.group, other.degree, other.loops
        ):
            raise DegreeMismatch("cochains not compatible")
        m = lcm(self.modulus, other.modulus)
        nums = self.numerators(m)
        get = nums.get
        for t, x in other.numerators(m).items():
            nums[t] = get(t, 0) + sign * x
        return Cochain._from_numerators(self.group, self.degree, m,
                                        nums.items(), self.loops)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return self * -1

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Cochain._from_numerators(
            self.group, self.degree, self.modulus,
            ((t, x * k) for t, x in self._nums.items()), self.loops)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        # equal values give equal numerators over the same least modulus
        den = self.denominator()
        return (
            self.group == other.group
            and self.degree == other.degree
            and self.loops == other.loops
            and den == other.denominator()
            and self.numerators(den) == other.numerators(den)
        )

    def __hash__(self):
        den = self.denominator()
        return hash((self.degree, den, frozenset(self.numerators(den).items())))

    def denominator(self):
        """lcm of the reduced denominators of all values (1 if zero)."""
        return self.modulus // gcd(self.modulus, *self._nums.values())

    def __repr__(self):
        return (
            f"Cochain(degree={self.degree}, loops={self.loops}, "
            f"modulus={self.modulus}, support={len(self._nums)})"
        )


def all_tuples(group, n):
    """All normalized n-tuples (no identity entries), row-major order."""
    return itertools.product(group.nonidentity(), repeat=n)


class TupleIndex:
    """Dense base-major indexing of X_m x (G minus 1)^n (see Cochain).

    ``TupleIndex.of(group, n, loops)`` is the index of that key, memoized
    for the INDEX_MEMO_SIZE most recently used keys (equal groups share
    one; ``TupleIndex.cache_info()``).  Each table below depends only on
    the key, and is built on first use and kept with the index:
    ``positions``, the one map from tuples to positions (the order of
    ``all()``), and the gather tables that ``_apply_faces`` sums (``faces``,
    ``lead_faces``, ``torus_columns`` and ``transgression``).
    """

    def __init__(self, group, n, loops=0):
        self.group = group
        self.n = n
        self.loops = loops
        self.nonid = group.nonidentity()
        self.radix = len(self.nonid)
        self.bases = gauge_groupoid(group, loops).objects() if loops else [()]
        self.size = len(self.bases) * self.radix**n

    @classmethod
    def of(cls, group, n, loops=0):
        return _tuple_indices.get((group, n, loops), lambda: cls(group, n, loops))

    cache_info = _tuple_indices.cache_info
    cache_clear = _tuple_indices.cache_clear

    @cached_property
    def positions(self):
        return {t: i for i, t in enumerate(self.all())}

    @cached_property
    def faces(self):
        """The face columns of delta on every row (``coboundary``)."""
        return _face_columns(self)

    @cached_property
    def lead_faces(self):
        """({generator: its place in group.generators()}, face columns of
        the generator-led rows of delta on this index)."""
        gens = self.group.generators()
        return {s: i for i, s in enumerate(gens)}, _face_columns(self, gens)

    def lead_delta(self, vec):
        """delta of the integer vector vec, on the generator-led rows."""
        return _apply_faces(self.lead_faces[1], [*vec, 0])

    @cached_property
    def torus_columns(self):
        """On the index of (G, 0, n), whose tuples t are the commuting
        n-tuples: (signs, columns), column i the position of each t o s for
        the i-th permutation s (None for the identity, first), signs the
        later sign(s)."""
        perms = _signed_permutations(self.loops)[1:]
        # built here, not kept: no other reader asks positions of this index
        position = {t: i for i, t in enumerate(self.bases)}.__getitem__
        cols = [None] + [
            array("l", map(position, map(itemgetter(*perm), self.bases)))
            for _sign, perm in perms]
        return [sign for sign, _perm in perms], cols

    @cached_property
    def transgression(self):
        """On the index of (G, k, m), k >= 1: (faces, columns, rows) of
        circle transgression (``transgress_circle``), the rows base-major,
        the distinct faces, and per face i the place of each row's face i
        among them."""
        g, degree, loops = self.group, self.n, self.loops
        position, rows = defaultdict(itertools.count().__next__), []
        cols = [array("l") for _ in range(degree)]
        for base in gauge_groupoid(g, loops + 1).objects():
            phi, loop = base[:-1], base[-1]
            for args in itertools.product(self.nonid, repeat=degree - 1):
                row = base + args  # face 0: the loop carried past no arg
                rows.append(row)
                cols[0].append(position[row])
                carried = loop
                for i in range(1, degree):
                    carried = g.conjugate(g.inverses[args[i - 1]], carried)
                    cols[i].append(position[phi + args[:i] + (carried,) + args[i:]])
        return list(position), cols, rows

    def all(self):
        args = itertools.product(self.nonid, repeat=self.n)
        if not self.loops:
            return args
        args = tuple(args)
        return (b + a for b in self.bases for a in args)

    def rows(self, first_args=None):
        """The (n+1)-tuples base + args at which delta of an n-cochain on
        this index is read, base-major; ``first_args`` restricts the first
        argument."""
        pools = [self.nonid] * (self.n + 1)
        if first_args is not None:
            pools[0] = tuple(first_args)
        for b in self.bases:
            for args in itertools.product(*pools):
                yield b + args

    def row_count(self, first_args=None):
        """The number of tuples ``rows(first_args)`` yields."""
        lead = self.radix if first_args is None else len(first_args)
        return len(self.bases) * lead * self.radix**self.n


def _delta_faces(group, t, loops=0):
    """Faces of the differential at t = base + args, by position.

    The arguments of t are not the identity.  Face j carries the sign
    (-1)^j; face 0 drops x_1 and transports the base to x_1^{-1} base x_1.
    A face whose merged argument is the identity is None (normalized
    complex).
    """
    f0 = t[loops + 1:]
    if loops:
        xi = group.inverses[t[loops]]
        f0 = tuple(group.conjugate(xi, b) for b in t[:loops]) + f0
    faces = [f0]
    for i in range(loops, len(t) - 1):
        x = group.mul(t[i], t[i + 1])
        faces.append(None if x == group.identity else t[:i] + (x,) + t[i + 2:])
    faces.append(t[:-1])
    return faces


def _face_columns(index, first_args=None):
    """delta on ``index`` as n+2 arrays, one per face position: entry r of
    array j is the index of face j of the r-th tuple of
    ``index.rows(first_args)``, or index.size (a zero slot) if it is None."""
    group, loops, pos, zero = index.group, index.loops, index.positions, index.size
    cols = [array("l") for _ in range(index.n + 2)]
    for t in index.rows(first_args):
        for col, f in zip(cols, _delta_faces(group, t, loops)):
            col.append(zero if f is None else pos[f])
    return cols


def _apply_faces(cols, vec, signs=None):
    """The sum over j of sign_j * (vec gathered at cols[j]), as an
    iterator: sign_0 = 1, then ``signs`` (default -1, 1, -1, ..., which
    gives delta of vec, its zero slot appended, over the rows of cols).
    A first column None stands for the identity gather, vec itself."""
    at = vec.__getitem__
    acc = iter(vec) if cols[0] is None else map(at, cols[0])
    for sign, col in zip(signs or itertools.cycle((-1, 1)), cols[1:]):
        acc = map(add if sign > 0 else sub, acc, map(at, col))
    return acc


@lru_cache(maxsize=None)
def _signed_permutations(n):
    """(sign, permutation) for every permutation of range(n), identity
    first."""
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        out.append(((-1) ** inversions, perm))
    return tuple(out)


def coboundary(c):
    """The bar differential (trivial coefficients), degree n -> n+1."""
    g, n, m = c.group, c.degree, c.loops
    index = TupleIndex.of(g, n, m)
    vec = cochain_vector(c, index, scale_to=c.modulus) + [0]
    acc = _apply_faces(index.faces, vec)
    return Cochain._from_numerators(g, n + 1, c.modulus, zip(index.rows(), acc),
                                    m)


def coboundary_agrees(c, y=None):
    """Whether delta c and y (default 0) agree on every generator-led tuple.

    For a closed y, delta c - y is a cocycle, so this decides delta c == y
    exactly (module docstring); a caller proves y closed first.  The face
    columns are ``TupleIndex.of(group, degree, loops).lead_faces``.
    """
    g, n, m = c.group, c.degree, c.loops
    den = c.denominator()
    if y is not None:
        if (y.group, y.degree, y.loops) != (g, n + 1, m):
            return False
        den = lcm(den, y.denominator())
    index = TupleIndex.of(g, n, m)
    lead, cols = index.lead_faces
    acc = _apply_faces(cols, cochain_vector(c, index, scale_to=den) + [0])
    if y is not None:
        # row of base + (s, rest) is (base, s, rest) in mixed radix
        acc = list(acc)
        tail, pos = index.radix**n, index.positions
        for t, w in y.numerators(den).items():
            k = lead.get(t[m])
            if k is not None:
                b, rest = divmod(pos[t[:m] + t[m + 1:]], tail)
                acc[(b * len(lead) + k) * tail + rest] -= w
    return not any(map(den.__rmod__, acc))


def is_cocycle(c):
    """Whether delta c = 0 over Q/Z, read on the generator-led tuples only,
    once per cochain (module docstring); ``is_cocycle.cache_info()`` counts
    calls that read the kept verdict as hits, decisions as misses."""
    closed = c._closed
    _verdict_counts[closed is None] += 1
    if closed is None:
        closed = c.is_zero() or coboundary_agrees(c)
        object.__setattr__(c, "_closed", closed)
    return closed


is_cocycle.cache_info = lambda: _CacheInfo(*_verdict_counts, None, None)


def _check_group_cochain(c, group=None):
    """The check of every entry point that reads c's tuples as group tuples:
    DegreeMismatch unless loops = 0, ValueError if c is not on ``group``."""
    if c.loops:
        raise DegreeMismatch(
            f"need a group cochain, got one on the {c.loops}-fold loop groupoid")
    if group is not None and c.group is not group and c.group != group:
        raise ValueError("cocycle lives on a different group")


def pullback(f: GroupHom, c: Cochain):
    """(f^* c)(g1..gn) = c(f g1, ..., f gn), re-normalized; c itself
    (cochains are immutable) when f is the identity of c's group, and read
    off no tuple when c = 0."""
    _check_group_cochain(c)
    if f.source == f.target == c.group and f.map == tuple(range(len(f.map))):
        return c
    get, image = c._nums.get, f.map.__getitem__
    return Cochain._from_numerators(
        f.source, c.degree, c.modulus,
        ((t, get(tuple(map(image, t)), 0))
         for t in (all_tuples(f.source, c.degree) if c._nums else ())))


def interval_pairing(omega_hat: Cochain, ghat, iota: GroupHom):
    """Slant the n-cochain on Ghat with the interval holonomy ghat.

    Returns the (n-1)-cochain Phi on D with
    delta Phi = iota^* omega_hat - kappa^* iota^* omega_hat,
    where kappa is conjugation by ghat (for closed omega_hat).
    """
    _check_group_cochain(omega_hat)
    ghg = omega_hat.group
    d_grp = iota.source
    n, m = omega_hat.degree, omega_hat.modulus
    if n < 1:
        raise DegreeMismatch("interval pairing needs degree >= 1")
    get, image = omega_hat._nums.get, iota.map.__getitem__
    slants = []
    for t in all_tuples(d_grp, n - 1):
        up = tuple(map(image, t))
        conj = tuple(ghg.conjugate(ghat, u) for u in up)
        acc = 0
        for i in range(n):
            # conjugate the entries that sit past the interval direction
            x = get(conj[:i] + (ghat,) + up[i:], 0)
            acc += -x if i % 2 else x
        slants.append((t, acc))
    return Cochain._from_numerators(d_grp, n - 1, m, slants)


# -- catalog cocycles ----------------------------------------------------------


def catalog_cocycle(name, params=None):
    """Named cocycle families used as reference data.

    * ``product_2cocycle`` (N, k): on Z_N x Z_N,
      w((a1,b1),(a2,b2)) = k a1 b2 / N.
    * ``dihedral8_2cocycle``: on D8, w(a^i b^j, a^i' b^j') = 0 if j = 0,
      else i'/4.
    * ``cyclic_3cocycle`` (N, k): on Z_N,
      w(a,b,c) = k a floor((b+c)/N) / N.
    * ``extension_2cocycle`` (N, M): the Z_N-valued 2-cocycle on Z_M,
      sigma(a,b) = floor((a+b)/M) mod N, returned as an M x M table.

    The cochains are written as integer numerators from these closed forms,
    in ``all_tuples`` order; only ``values`` and ``value`` build PhaseValues.
    """
    params = dict(params or {})
    if name == "product_2cocycle":
        n_par, k = int(params["N"]), int(params.get("k", 1))
        grp = product_group([n_par, n_par])
        nonid = grp.nonidentity()  # element (a, b) has index a*N + b
        return Cochain._from_numerators(grp, 2, n_par, (
            ((s, t), k * (s // n_par) * (t % n_par)) for s in nonid for t in nonid))
    if name == "dihedral8_2cocycle":
        grp = dihedral_group(8)
        nonid = grp.nonidentity()
        return Cochain._from_numerators(grp, 2, 4, (
            ((s, t), dihedral_exponents(8, t)[0])
            for s in nonid if dihedral_exponents(8, s)[1] for t in nonid))
    if name == "cyclic_3cocycle":
        n_par, k = int(params["N"]), int(params.get("k", 1))
        grp = cyclic_group(n_par)
        nonid = grp.nonidentity()  # floor((b+c)/N) is 1 if b + c >= N, else 0
        return Cochain._from_numerators(grp, 3, n_par, (
            ((a, b, c), k * a) for a in nonid for b in nonid
            for c in range(n_par - b, n_par)))
    if name == "extension_2cocycle":
        n_par, m_par = int(params["N"]), int(params["M"])
        return [
            [((a + b) // m_par) % n_par for b in range(m_par)]
            for a in range(m_par)
        ]
    raise UnknownFamily(f"unknown cocycle family {name!r}")


# -- delta as a sparse matrix ----------------------------------------------------


def delta_matrix_rows(index, first_args=None):
    """Sparse rows of delta on the n-cochains of ``index``, one dict per
    tuple of ``index.rows(first_args)``, read off ``_face_columns``.

    ``first_args`` restricts rows to tuples whose first argument is in the
    given set (sufficient for kernel and coboundary systems, see module
    docstring).  Columns are positions on ``index``; faces that share a
    column add their signs there, and a column whose sum is 0 is dropped.
    """
    zero = index.size
    rows = []
    for faces in zip(*_face_columns(index, first_args)):
        row = {}
        sign = 1
        for c in faces:
            if c != zero:
                v = row.get(c, 0) + sign
                if v:
                    row[c] = v
                else:
                    del row[c]
            sign = -sign
        rows.append(row)
    return rows


def cochain_vector(c: Cochain, index: TupleIndex, scale_to=None):
    """Integer vector of c on the index, scaled to denominator ``scale_to``."""
    den = scale_to or c.denominator()
    vec = [0] * index.size
    pos = index.positions
    for t, x in c.numerators(den).items():
        vec[pos[t]] = x
    return vec


def numerators_at(c: Cochain, tuples, den):
    """c at ``tuples`` as integer numerators over den, a multiple of c's
    denominator (0 where c vanishes): a right-hand side for a Q/Z solve."""
    return list(map(c.numerators(den).get, tuples, itertools.repeat(0)))


def vector_cochain(index, vec, modulus, group=None):
    """Cochain on ``group`` (default index.group, which for a memoized index
    may be an equal group) with values vec[i]/modulus on index's tuples."""
    return Cochain._from_numerators(group or index.group, index.n, modulus,
                                    zip(index.all(), vec, strict=True),
                                    index.loops)


def closed_vector_cochain(index, vec, modulus, group=None):
    """vector_cochain(index, vec, modulus, group), closed: is_cocycle's
    test, delta vec = 0 (mod modulus) on generator-led rows, or
    VerificationFailed."""
    if any(map(modulus.__rmod__, index.lead_delta(vec))):
        raise VerificationFailed("solver output must be closed")
    c = vector_cochain(index, vec, modulus, group)
    object.__setattr__(c, "_closed", True)
    return c


def vector_numerators_at(index, vec, modulus, tuples, den):
    """numerators_at of vector_cochain(index, vec, modulus), den | modulus."""
    pos, k = index.positions, modulus // den
    return [vec[pos[t]] % modulus // k for t in tuples]


# -- cohomology -----------------------------------------------------------------


def _factor(d):
    """Prime factorization {p: e} of d >= 2, by trial division."""
    out = {}
    p = 2
    while p * p <= d:
        while d % p == 0:
            out[p] = out.get(p, 0) + 1
            d //= p
        p += 1
    if d > 1:
        out[d] = out.get(d, 0) + 1
    return out


class CohomologyGroup:
    """H^n(G; U(1)) with explicit generator cocycles and a classifying map.

    ``invariant_factors`` is the ascending divisibility chain (entries > 1);
    ``generators[i]`` is a U(1)-valued cocycle of order exactly
    ``invariant_factors[i]`` with classify(generators[i]) = e_i.  U(1) is
    divisible, so H^n(G; U(1)) = Hom(H_n(G; Z), U(1)) and a class is read
    by pairing with integral n-cycles.  The group keeps, per invariant
    factor d, one pair (d, w), w a sparse {tuple: int} integral n-cycle:
    per prime power p^e || d, a pivot's w_p = d_p*z_p (z_p an integral
    cycle whose class has order d_p) times k^-1 mod p^e (d_p = p^e * k) and
    the CRT idempotent of p^e in Z/d, so that sum(w_t x_t) / M, for a
    closed c with numerators x at modulus M, is c's coordinate mod d.
    """

    def __init__(self, group, degree, invariant_factors, generators, cycles):
        self.group = group
        self.degree = degree
        self.invariant_factors = invariant_factors
        self.generators = generators
        self._cycles = cycles

    def classify(self, c: Cochain):
        """Coefficient vector of [c] on the generators, mod the factors.

        Additive, kills coboundaries; raises NotACocycle if c is not closed
        over Q/Z (``is_cocycle``).  Factor d reads sum(w_t x_t) // M mod d
        on c's numerators x at its modulus M.
        """
        if (c.group, c.degree, c.loops) != (self.group, self.degree, 0):
            raise DegreeMismatch("cochain does not match this cohomology")
        if not is_cocycle(c):
            raise NotACocycle("cochain is not closed over Q/Z")
        get, m = c._nums.get, c.modulus
        return tuple(sum([v * get(t, 0) for t, v in w.items()]) // m % d
                     for d, w in self._cycles)

    def __repr__(self):
        return (
            f"CohomologyGroup(H^{self.degree}, factors="
            f"{self.invariant_factors})"
        )


def check_cohomology_budget(group, n):
    """Raise BudgetExceeded if H^n(G)'s bar matrix, counted pessimistically
    as the unrestricted delta C^(n+1) -> C^(n+2), has more nonzeros than
    BAR_MATRIX_NNZ_BUDGET, read at call time."""
    nnz = (group.order - 1) ** (n + 2) * (n + 3)
    if nnz > BAR_MATRIX_NNZ_BUDGET:
        raise BudgetExceeded(f"bar matrix for H^{n}({group.label or 'G'})",
                             nnz, BAR_MATRIX_NNZ_BUDGET)


def cohomology(group, n, allow_large=False):
    """H^n(G; U(1)), computed as integral cohomology in degree n+1.

    One exact sparse elimination, U Rdelta_n V = D for Rdelta_n the
    integral bar differential delta_n on the generator-led rows: the
    torsion of its cokernel is H^{n+1}(G; Z), given by its torsion pivots
    (r, c, d).  Each torsion generator of order d gets a U(1)
    representative a/d from an integral witness Rdelta_n(a) = d*f read off
    V's column log, and each pivot the integral n-cycle u_r Rdelta_n / d
    from row r of U.  The kernel of delta_{n+1} on the generator-led rows,
    eliminated first, only checks the free part: rank delta_n = dim Z^{n+1}.
    The check trusts neither log: the generators are closed, the cycles
    are integral with zero boundary, and each generator classifies as its
    unit vector.

    Results are memoized in-process per (group, degree), for the
    COHOMOLOGY_GROUP_MEMO_SIZE most recently used keys;
    ``cohomology.cache_info()`` counts hits and misses.  The degree and
    budget checks run before the lookup, and every call returns new lists
    whose generators live on the caller's group object (equal groups may
    serialize differently, see ``builtin_spec``).
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    if not allow_large:
        check_cohomology_budget(group, n)
    h = _cohomology_groups.get((group, n), lambda: _cohomology(group, n))
    generators = h.generators
    if h.group is not group:
        generators = [Cochain._from_numerators(group, n, c.modulus,
                                               c._nums.items())
                      for c in generators]
    return CohomologyGroup(group, n, list(h.invariant_factors),
                           list(generators), h._cycles)


def _cohomology(group, n):
    gens = group.generators()
    index_n = TupleIndex.of(group, n)

    # dim Z^{n+1}: the kernel of delta_{n+1} on the generator-led rows,
    # whose index and elimination are dropped before Rdelta_n is built
    index_k = TupleIndex(group, n + 1)
    cocycle_dim = len(SparseElimination(delta_matrix_rows(index_k, gens),
                                        index_k.size).eliminate().free_cols)
    del index_k

    # U Rdelta_n V = D for Rdelta_n, delta_n on the generator-led rows
    rows = delta_matrix_rows(index_n, gens)
    elim = SparseElimination(rows, index_n.size).eliminate()
    if len(elim.pivots) != cocycle_dim:
        raise VerificationFailed("unexpected free part in group cohomology")

    # cycles: Rdelta_n delta_{n-1} = 0, so a torsion pivot (r, c, d) gives
    # w = u_r Rdelta_n = d (row c of V^-1), d times an integral n-cycle
    tuples, cycles = list(index_n.all()), {}
    primary = {}  # prime -> [(prime power, pivot position, cofactor)]
    for pos, (r, _c, d) in enumerate(elim.pivots):
        if abs(d) <= 1:
            continue
        w = {}
        for i, u in elim._row_of_u(r).items():
            for j, a in rows[i].items():
                w[j] = w.get(j, 0) + u * a
        w = cycles[pos] = {tuples[j]: v for j, v in w.items() if v}
        boundary = {}
        for t, v in w.items():
            for j, f in enumerate(_delta_faces(group, t)):
                if f is not None:
                    boundary[f] = boundary.get(f, 0) + (-v if j % 2 else v)
        if any(v % d for v in w.values()) or any(boundary.values()):
            raise VerificationFailed(f"pivot {pos} gives no integral cycle")
        for p, e in _factor(abs(d)).items():
            primary.setdefault(p, []).append((p**e, pos, abs(d) // p**e))

    # raw cyclic summands -> canonical invariant factors: slot t takes the
    # t-th largest power of each prime
    for ranked in primary.values():
        ranked.sort(reverse=True)
    nslots = max(map(len, primary.values()), default=0)
    slots = [[ranked[t] for _p, ranked in sorted(primary.items())
              if t < len(ranked)]
             for t in reversed(range(nslots))]  # ascending divisibility chain
    factors = [prod(pe for pe, _pos, _mult in parts) for parts in slots]

    # Bockstein witnesses: a pivot (r, c, d) gives Rdelta_n(V e_c) =
    # d U^-1 e_r, so a below has Rdelta_n(a) = 0 mod d_slot, and a / d_slot
    # is closed over Q/Z (module docstring).  One cycle per factor: each
    # part's w times its cofactor's inverse mod p^e and the CRT idempotent
    # of p^e in Z/d_slot
    generators, folded = [], []
    for d_slot, parts in zip(factors, slots):
        e, w = [0] * index_n.size, {}
        for pe, pos, mult in parts:
            _r, c, d = elim.pivots[pos]
            rest = d_slot // pe
            e[c] += rest if d > 0 else -rest
            coef = rest * pow(rest * mult, -1, pe) % d_slot
            for t, v in cycles[pos].items():
                w[t] = w.get(t, 0) + coef * v
        a = elim.apply_col_ops(e)
        generators.append(closed_vector_cochain(
            index_n, [v % d_slot for v in a], d_slot, group))
        folded.append((d_slot, {t: v for t, v in w.items() if v}))

    h = CohomologyGroup(group, n, factors, generators, folded)
    for i, gen in enumerate(generators):
        if h.classify(gen) != tuple(int(i == j) for j in range(len(factors))):
            raise VerificationFailed(f"generator {i} does not classify as e_{i}")
    return h


cohomology.cache_info = _cohomology_groups.cache_info
cohomology.cache_clear = _cohomology_groups.cache_clear


# -- coboundary solving ---------------------------------------------------------


def solve_coboundary(y: Cochain):
    """Find x with delta x = y exactly in Q/Z, or None.

    A y that is not closed is not a coboundary.  Otherwise delta x = y is
    solved once over Q/Z on the generator-led rows over all bases (exact,
    see the module docstring); a None there is backed by a certificate
    checked against those rows, and a returned x is checked to have
    coboundary y.  The system depends only on (group, n - 1, loops), so
    its elimination is shared by every y through solve_qz_checked's memo.
    """
    g, n, loops = y.group, y.degree, y.loops
    if n < 1:
        raise DegreeMismatch("cannot solve below degree 1")
    if y.is_zero():
        return Cochain.zero(g, n - 1, y.modulus, loops)
    index = TupleIndex.of(g, n - 1, loops)
    if not is_cocycle(y):
        return None
    den = y.denominator()
    gens = g.generators()

    def build():
        return delta_matrix_rows(index, gens), index.size

    def finish(sol):
        x = vector_cochain(index, *sol, g)
        if not coboundary_agrees(x, y):
            raise VerificationFailed("solver output must have coboundary y")
        return x

    rhs = numerators_at(y, index.rows(gens), den)
    return solve_qz_checked(("coboundary", g, n - 1, loops), build, rhs, den,
                            finish)
