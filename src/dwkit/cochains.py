"""Normalized bar cochains with values in Q/Z, and their exact cohomology.

Cohomology with U(1) coefficients is computed as integral cohomology one
degree up (exact for finite groups), with U(1)-valued generator cocycles
recovered by dividing integral torsion witnesses.

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
exactly equivalent.

The argument needs only an abelian coefficient group, so it also decides
closedness over Q/Z.  Write a cochain c with values in (1/den)Z/Z as c~/den
with c~ integral.  Then delta c = 0 iff delta c~ = 0 mod den, and
delta c~ mod den is a Z/den-cocycle (delta delta c~ = 0 over Z).  Hence
``is_cocycle`` reads delta c~ mod den on the generator-led tuples only.  The
same holds for delta c = y with y closed, since delta c - y is then a cocycle
(``coboundary_agrees``); only ``coboundary`` builds every tuple.  The faces of
the generator-led tuples depend only on (group, degree, loops), so their
column indices are kept per key as integer arrays and each check is a signed
sum of gathers from c~.
"""

from __future__ import annotations

import itertools
from array import array
from functools import lru_cache
from math import gcd, lcm
from operator import add, sub

from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    NonCommuting,
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
    product_digits,
    product_group,
)
from .linalg import SparseElimination, _Memo, solve_qz_checked
from .phase import PhaseValue

BAR_MATRIX_NNZ_BUDGET = 2**22
# the cohomology workload asks for 17 (group, degree) keys, once each
COHOMOLOGY_GROUP_MEMO_SIZE = 64
_cohomology_groups = _Memo(COHOMOLOGY_GROUP_MEMO_SIZE)
# an anomaly pass asks for 27 (group, degree, loops) keys in about 645 calls
FACE_MEMO_SIZE = 64
_face_tables = _Memo(FACE_MEMO_SIZE)


# -- cochains ----------------------------------------------------------------


class Cochain:
    """Normalized n-cochain on G x| X_m with values in (1/M)Z/Z.

    ``loops`` is m (0 for BG).  Values are keyed by base + args: a base in
    X_m followed by n arguments in G, normalized to vanish when an argument
    is the identity.
    """

    __slots__ = ("group", "degree", "modulus", "values", "loops")

    def __init__(self, group, degree, modulus, values=None, loops=0):
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        if modulus < 1:
            raise ValueError("modulus must be positive")
        cleaned = {}
        e = group.identity
        for t, v in (values or {}).items():
            t = tuple(t)
            if len(t) != loops + degree:
                raise ValueError(f"tuple {t} has wrong length")
            if e in t[loops:]:
                if not v.is_zero():
                    raise ValueError(
                        f"non-normalized value at {t}"
                    )
                continue
            r = v.reduced()
            if modulus % r.modulus:
                raise ValueError(
                    f"value modulus {v.modulus} does not divide {modulus}"
                )
            if not r.is_zero():
                cleaned[t] = r
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "values", cleaned)
        object.__setattr__(self, "loops", loops)

    def __setattr__(self, name, value):
        raise AttributeError("Cochain is immutable")

    @staticmethod
    def zero(group, degree, modulus=1, loops=0):
        return Cochain(group, degree, modulus, {}, loops)

    def value(self, t):
        v = self.values.get(tuple(t))
        return v if v is not None else PhaseValue.zero(self.modulus)

    def is_zero(self):
        return not self.values

    def _combine(self, other, sign):
        if (self.group, self.degree, self.loops) != (
            other.group, other.degree, other.loops
        ):
            raise DegreeMismatch("cochains not compatible")
        m = lcm(self.modulus, other.modulus)
        vals = dict(self.values)
        for t, v in other.values.items():
            w = vals.get(t, PhaseValue.zero(1)) + (sign * v)
            if w.is_zero():
                vals.pop(t, None)
            else:
                vals[t] = w
        return Cochain(self.group, self.degree, m, vals, self.loops)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return Cochain(
            self.group,
            self.degree,
            self.modulus,
            {t: -v for t, v in self.values.items()},
            self.loops,
        )

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Cochain(
            self.group,
            self.degree,
            self.modulus,
            {t: v * k for t, v in self.values.items()},
            self.loops,
        )

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (
            self.group == other.group
            and self.degree == other.degree
            and self.loops == other.loops
            and self.values == other.values
        )

    def __hash__(self):
        return hash(
            (self.degree, tuple(sorted(self.values.items(),
                                       key=lambda kv: kv[0])))
        )

    def denominator(self):
        """lcm of the reduced denominators of all values (1 if zero)."""
        return lcm(*{v.modulus for v in self.values.values()})

    def __repr__(self):
        return (
            f"Cochain(degree={self.degree}, loops={self.loops}, "
            f"modulus={self.modulus}, support={len(self.values)})"
        )


def all_tuples(group, n):
    """All normalized n-tuples (no identity entries), row-major order."""
    return itertools.product(group.nonidentity(), repeat=n)


class TupleIndex:
    """Dense base-major indexing of X_m x (G minus 1)^n (see Cochain)."""

    def __init__(self, group, n, loops=0):
        self.group = group
        self.n = n
        self.loops = loops
        self.nonid = group.nonidentity()
        self.pos = {g: i for i, g in enumerate(self.nonid)}
        self.radix = len(self.nonid)
        self.bases = gauge_groupoid(group, loops).objects() if loops else [()]
        self.base_pos = {b: i for i, b in enumerate(self.bases)}
        self.size = len(self.bases) * self.radix**n

    def index(self, t):
        i = 0
        if self.loops:
            i = self.base_pos[t[:self.loops]]
            t = t[self.loops:]
        for g in t:
            i = i * self.radix + self.pos[g]
        return i

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
    group, loops, look, zero = index.group, index.loops, index.index, index.size
    cols = [array("l") for _ in range(index.n + 2)]
    for t in index.rows(first_args):
        for col, f in zip(cols, _delta_faces(group, t, loops)):
            col.append(zero if f is None else look(f))
    return cols


def _apply_faces(cols, vec):
    """delta of the integer vector vec (its zero slot appended) over the
    rows of ``cols``, as an iterator."""
    acc = map(vec.__getitem__, cols[0])
    for j in range(1, len(cols)):
        acc = map(sub if j % 2 else add, acc, map(vec.__getitem__, cols[j]))
    return acc


def _generator_faces(group, n, loops):
    """(index, generator positions, face columns) of the generator-led
    rows of delta on n-cochains."""
    index = TupleIndex(group, n, loops)
    gens = group.generators()
    return index, {s: i for i, s in enumerate(gens)}, _face_columns(index, gens)


def coboundary(c):
    """The bar differential (trivial coefficients), degree n -> n+1."""
    g, n, m = c.group, c.degree, c.loops
    den = c.denominator()
    index = TupleIndex(g, n, m)
    vec = cochain_vector(c, index, scale_to=den) + [0]
    acc = _apply_faces(_face_columns(index), vec)
    vals = {t: PhaseValue(v, den) for t, v in zip(index.rows(), acc)
            if v % den}
    return Cochain(g, n + 1, c.modulus, vals, m)


def coboundary_agrees(c, y=None):
    """Whether delta c and y (default 0) agree on every generator-led tuple.

    For a closed y, delta c - y is a cocycle, so this decides delta c == y
    exactly (module docstring); a caller proves y closed first.  The face
    columns come from a memo per (group, degree, loops) of the
    FACE_MEMO_SIZE most recently used keys;
    ``coboundary_agrees.cache_info()`` counts its hits and misses.
    """
    g, n, m = c.group, c.degree, c.loops
    den = c.denominator()
    if y is not None:
        if (y.group, y.degree, y.loops) != (g, n + 1, m):
            return False
        den = lcm(den, y.denominator())
    index, lead, cols = _face_tables.get((g, n, m), lambda: _generator_faces(g, n, m))
    acc = _apply_faces(cols, cochain_vector(c, index, scale_to=den) + [0])
    if y is not None:
        # row of base + (s, rest) is (base, s, rest) in mixed radix
        acc = list(acc)
        tail = index.radix**n
        for t, w in y.values.items():
            k = lead.get(t[m])
            if k is not None:
                b, rest = divmod(index.index(t[:m] + t[m + 1:]), tail)
                acc[(b * len(lead) + k) * tail + rest] -= (
                    w.numerator * (den // w.modulus))
    return not any(map(den.__rmod__, acc))


coboundary_agrees.cache_info = _face_tables.cache_info
coboundary_agrees.cache_clear = _face_tables.cache_clear


def is_cocycle(c):
    """Whether delta c = 0 over Q/Z, read on the generator-led tuples only."""
    return c.is_zero() or coboundary_agrees(c)


def pullback(f: GroupHom, c: Cochain):
    """(f^* c)(g1..gn) = c(f g1, ..., f gn), re-normalized."""
    src = f.source
    vals = {}
    for t in all_tuples(src, c.degree):
        v = c.value(tuple(f(g) for g in t))
        if not v.is_zero():
            vals[t] = v
    return Cochain(src, c.degree, c.modulus, vals)


# -- formal chains and torus cycles --------------------------------------------


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


@lru_cache(maxsize=None)
def _signed_permutations(n):
    """(sign, permutation) for every permutation of range(n)."""
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)
        )
        out.append(((-1) ** inversions, perm))
    return tuple(out)


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


def interval_pairing(omega_hat: Cochain, ghat, iota: GroupHom):
    """Slant the n-cochain on Ghat with the interval holonomy ghat.

    Returns the (n-1)-cochain Phi on D with
    delta Phi = iota^* omega_hat - kappa^* iota^* omega_hat,
    where kappa is conjugation by ghat (for closed omega_hat).
    """
    ghg = omega_hat.group
    d_grp = iota.source
    n = omega_hat.degree
    if n < 1:
        raise DegreeMismatch("interval pairing needs degree >= 1")
    vals = {}
    for t in all_tuples(d_grp, n - 1):
        up = [iota(d) for d in t]
        acc = PhaseValue.zero(omega_hat.modulus)
        sign = 1
        for i in range(n):
            # conjugate the entries that sit past the interval direction
            args = (
                [ghg.conjugate(ghat, u) for u in up[:i]]
                + [ghat]
                + up[i:]
            )
            acc = acc + sign * omega_hat.value(tuple(args))
            sign = -sign
        if not acc.is_zero():
            vals[t] = acc
    return Cochain(d_grp, n - 1, omega_hat.modulus, vals)


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
    """
    params = dict(params or {})
    if name == "product_2cocycle":
        n_par, k = int(params["N"]), int(params.get("k", 1))
        grp = product_group([n_par, n_par])
        vals = {}
        for t in all_tuples(grp, 2):
            a1, _b1 = product_digits([n_par, n_par], t[0])
            _a2, b2 = product_digits([n_par, n_par], t[1])
            v = PhaseValue(k * a1 * b2, n_par)
            if not v.is_zero():
                vals[t] = v
        return Cochain(grp, 2, n_par, vals)
    if name == "dihedral8_2cocycle":
        grp = dihedral_group(8)
        vals = {}
        for t in all_tuples(grp, 2):
            _i, j = dihedral_exponents(8, t[0])
            i2, _j2 = dihedral_exponents(8, t[1])
            if j == 1:
                v = PhaseValue(i2, 4)
                if not v.is_zero():
                    vals[t] = v
        return Cochain(grp, 2, 4, vals)
    if name == "cyclic_3cocycle":
        n_par, k = int(params["N"]), int(params.get("k", 1))
        grp = cyclic_group(n_par)
        vals = {}
        for t in all_tuples(grp, 3):
            a, b, c = t
            v = PhaseValue(k * a * ((b + c) // n_par), n_par)
            if not v.is_zero():
                vals[t] = v
        return Cochain(grp, 3, n_par, vals)
    if name == "extension_2cocycle":
        n_par, m_par = int(params["N"]), int(params["M"])
        return [
            [((a + b) // m_par) % n_par for b in range(m_par)]
            for a in range(m_par)
        ]
    raise UnknownFamily(f"unknown cocycle family {name!r}")


# -- delta as a sparse matrix ----------------------------------------------------


def delta_matrix_rows(group, n, first_args=None, index=None):
    """Sparse rows of delta: C^n -> C^{n+1}, one row per (n+1)-tuple.

    ``first_args`` restricts rows to tuples whose first argument is in the
    given set (sufficient for kernel and coboundary systems, see module
    docstring).  Returns (row_tuples, row_dicts) with columns indexed by
    ``index`` (a TupleIndex for degree n, whose loops name the domain).
    """
    index = index or TupleIndex(group, n)
    row_tuples = []
    rows = []
    for t in index.rows(first_args):
        row = {}
        for j, f in enumerate(_delta_faces(group, t, index.loops)):
            if f is None:
                continue
            c = index.index(f)
            v = row.get(c, 0) + (-1 if j % 2 else 1)
            if v:
                row[c] = v
            else:
                row.pop(c, None)
        row_tuples.append(t)
        rows.append(row)
    return row_tuples, rows


def full_bar_nnz(group, n):
    """Pessimistic nonzero count of the unrestricted delta matrix C^n -> C^{n+1}."""
    return (group.order - 1) ** (n + 1) * (n + 2)


def cochain_vector(c: Cochain, index: TupleIndex, scale_to=None):
    """Integer vector of c on the index, scaled to denominator ``scale_to``."""
    den = scale_to or c.denominator()
    vec = [0] * index.size
    for t, v in c.values.items():  # values are stored reduced
        vec[index.index(t)] = v.numerator * (den // v.modulus)
    return vec


def vector_cochain(group, degree, vec, modulus, index=None):
    """Cochain with values vec[i]/modulus on the indexed tuples."""
    index = index or TupleIndex(group, degree)
    vals = {t: PhaseValue(v, modulus)
            for t, v in zip(index.all(), vec, strict=True) if v % modulus}
    return Cochain(group, degree, modulus, vals, index.loops)


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


def _crt_pair(r1, m1, r2, m2):
    if gcd(m1, m2) != 1:
        raise VerificationFailed(f"CRT moduli {m1} and {m2} are not coprime")
    inv = pow(m1, -1, m2)
    return (r1 + m1 * ((r2 - r1) * inv % m2)) % (m1 * m2), m1 * m2


class CohomologyGroup:
    """H^n(G; U(1)) with explicit generator cocycles and a classifying map.

    ``invariant_factors`` is the ascending divisibility chain (entries > 1);
    ``generators[i]`` is a U(1)-valued cocycle of order exactly
    ``invariant_factors[i]`` with classify(generators[i]) = e_i.
    """

    def __init__(self, group, degree, invariant_factors, generators, data):
        self.group = group
        self.degree = degree
        self.invariant_factors = invariant_factors
        self.generators = generators
        self._data = data

    def classify(self, c: Cochain):
        """Coefficient vector of [c] on the generators, mod the factors.

        Additive, kills coboundaries; raises NotACocycle if c is not closed
        over Q/Z.
        """
        if c.group != self.group or c.degree != self.degree:
            raise DegreeMismatch("cochain does not match this cohomology")
        d = self._data
        den = c.denominator()
        vec = cochain_vector(c, d["index_n"], scale_to=den)
        # the Bockstein delta(c)/den in kernel coordinates, as a mat-vec over
        # the rows of delta_n that cohomology() projected there (its pivot
        # rows vanish, and the projection is unimodular, so closedness over
        # Q/Z is divisibility of these entries by den)
        fc_vec = []
        for row in d["x_rows"]:
            v = sum([a * vec[j] for j, a in row.items()])
            if v % den:
                raise NotACocycle("cochain is not closed over Q/Z")
            fc_vec.append(v // den)
        y = SparseElimination.apply_row_ops(d["row_ops"], fc_vec)
        out = []
        for parts in d["slots"]:
            residue, mod = 0, 1
            for _p, pe, pos, mult in parts:
                comp = y[d["pivot_rows"][pos]] * pow(mult, -1, pe) % pe
                residue, mod = _crt_pair(residue, mod, comp, pe)
            out.append(residue)
        return tuple(out)

    def __repr__(self):
        return (
            f"CohomologyGroup(H^{self.degree}, factors="
            f"{self.invariant_factors})"
        )


def cohomology(group, n, allow_large=False, budget=BAR_MATRIX_NNZ_BUDGET):
    """H^n(G; U(1)), computed as integral cohomology in degree n+1.

    Two exact sparse eliminations: the kernel of the integral bar
    differential on generator-led rows, then delta_n projected into kernel
    coordinates, whose diagonal pivots give the torsion.  Each torsion
    generator f of order d gets a U(1) representative a/d from an integral
    witness delta(a) = d*f read off the second elimination's column log,
    and every generator is checked to classify as its unit vector.

    Results are memoized in-process per (group, degree), for the
    COHOMOLOGY_GROUP_MEMO_SIZE most recently used keys;
    ``cohomology.cache_info()`` counts hits and misses.  The degree and
    budget checks run before the lookup, and every call returns new lists
    whose generators live on the caller's group object (equal groups may
    serialize differently, see ``builtin_spec``).
    """
    if n < 1:
        raise ValueError("degree must be >= 1")
    nnz = full_bar_nnz(group, n + 1)
    if nnz > budget and not allow_large:
        raise BudgetExceeded(
            f"bar matrix for H^{n}({group.label or 'G'})", nnz, budget
        )
    h = _cohomology_groups.get((group, n), lambda: _cohomology(group, n))
    generators = h.generators
    if h.group is not group:
        generators = [Cochain(group, n, c.modulus, c.values)
                      for c in generators]
    return CohomologyGroup(group, n, list(h.invariant_factors),
                           list(generators), h._data)


def _cohomology(group, n):
    k = n + 1
    gens = group.generators()
    index_n = TupleIndex(group, n)
    index_k = TupleIndex(group, k)

    # cocycles: kernel of delta_k on the generator-restricted row set
    _bt, rows_b = delta_matrix_rows(group, k, first_args=gens, index=index_k)
    elim_b = SparseElimination(rows_b, index_k.size).eliminate()
    free = elim_b.free_cols

    # coboundaries: the columns of delta_n in kernel coordinates, as one
    # replay of elim_b's column ops over the rows of delta_n
    _tuples, rows_n = delta_matrix_rows(group, n, index=index_n)
    coords = elim_b.col_coords_rows(rows_n)
    for _r, cc, _d in elim_b.pivots:
        if coords[cc]:
            raise VerificationFailed("coboundary outside the cocycle space")
    x_rows = [dict(sorted(coords[f].items())) for f in free]
    elim_x = SparseElimination(x_rows, index_n.size).eliminate()
    if len(elim_x.pivots) != len(free):
        raise VerificationFailed("unexpected free part in group cohomology")

    # raw cyclic summands -> canonical invariant factors (per-prime slots)
    raw_orders = [abs(d) for _r, _c, d in elim_x.pivots]
    primary = {}  # prime -> [(exponent, pivot position, cofactor)], desc
    for pos, d in enumerate(raw_orders):
        if d <= 1:
            continue
        for p, e in _factor(d).items():
            primary.setdefault(p, []).append((e, pos, d // p**e))
    for p in primary:
        primary[p].sort(reverse=True)
    nslots = max((len(v) for v in primary.values()), default=0)
    slots = []
    for t in range(nslots):
        parts = []
        for p in sorted(primary):
            lst = primary[p]
            if t < len(lst):
                e, pos, mult = lst[t]
                parts.append((p, p**e, pos, mult))
        slots.append(parts)
    slots.reverse()  # ascending divisibility chain
    factors = []
    for parts in slots:
        f = 1
        for _p, pe, _pos, _mult in parts:
            f *= pe
        factors.append(f)

    # Bockstein witnesses: with U X V = D for X = x_rows, a pivot (r, c, d)
    # gives delta(V e_c) = d g_r, g_r the raw generator at row r (delta_n
    # has no pivot coordinates in elim_b's basis), so a below has
    # delta(a) = d_slot * sum(mult * g_r) over the slot's prime parts
    generators = []
    for d_slot, parts in zip(factors, slots):
        e = [0] * index_n.size
        for _p, pe, pos, _mult in parts:
            _r, c, d = elim_x.pivots[pos]
            e[c] += d_slot // pe if d > 0 else -(d_slot // pe)
        a = elim_x.apply_col_ops(e)
        generators.append(vector_cochain(group, n, [v % d_slot for v in a],
                                         d_slot, index=index_n))

    data = {
        "index_n": index_n,
        "x_rows": x_rows,
        "row_ops": elim_x.row_ops,
        "pivot_rows": [r for r, _c, _d in elim_x.pivots],
        "slots": slots,
    }
    h = CohomologyGroup(group, n, factors, generators, data)
    for i, gen in enumerate(generators):
        unit = tuple(int(i == j) for j in range(len(generators)))
        try:
            ok = h.classify(gen) == unit
        except NotACocycle:
            ok = False
        if not ok:
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
    index = TupleIndex(g, n - 1, loops)
    if not coboundary_agrees(y):
        return None
    den = y.denominator()
    gens = g.generators()

    def build():
        _tuples, rows = delta_matrix_rows(g, n - 1, gens, index)
        return rows, index.size

    rhs = [int(y.value(t).as_fraction() * den) for t in index.rows(gens)]
    sol = solve_qz_checked(("coboundary", g, n - 1, loops), build, rhs, den)
    if sol is None:
        return None
    x = vector_cochain(g, n - 1, *sol, index=index)
    if not coboundary_agrees(x, y):
        raise VerificationFailed("solver output must have coboundary y")
    return x
