import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from support import random_cochain

from dwkit.cochains import (
    FACE_MEMO_SIZE,
    Cochain,
    FormalChain,
    TupleIndex,
    _crt_pair,
    catalog_cocycle,
    coboundary,
    coboundary_agrees,
    cohomology,
    evaluate,
    interval_pairing,
    is_cocycle,
    pullback,
    solve_coboundary,
    torus_fundamental_cycle,
)
from dwkit.errors import (
    BudgetExceeded,
    DegreeMismatch,
    NonCommuting,
    NotACocycle,
    UnknownFamily,
    VerificationFailed,
)
from dwkit.groupoids import GAUGE_MEMO_SIZE, gauge_groupoid
from dwkit.groups import (
    GroupHom,
    cyclic_group,
    dihedral_group,
    dihedral_index,
    product_group,
    product_index,
)
from dwkit.invariants import dw_partition_torus, transgress_torus
from dwkit.io import cochain_json, group_json
from dwkit.phase import PhaseValue


def test_normalization_enforced():
    z2 = cyclic_group(2)
    c = Cochain(z2, 2, 2, {(0, 1): PhaseValue(0, 2), (1, 1): PhaseValue(1, 2)})
    assert c.value((0, 1)).is_zero()
    assert not c.value((1, 1)).is_zero()
    with pytest.raises(ValueError):
        Cochain(z2, 2, 2, {(0, 1): PhaseValue(1, 2)})


def test_equal_cochains_hash_equal():
    z2 = cyclic_group(2)
    half = Cochain(z2, 1, 2, {(1,): PhaseValue(1, 2)})
    same = Cochain(z2, 1, 4, {(1,): PhaseValue(2, 4)})
    assert half == same
    assert hash(half) == hash(same)
    assert len({half, same}) == 1


def test_coboundary_squares_to_zero():
    rng = random.Random(11)
    for group in (product_group([2, 2]), cyclic_group(4), dihedral_group(6)):
        for degree in (1, 2):
            for _ in range(8):
                c = random_cochain(group, degree, 4, rng)
                assert coboundary(coboundary(c)).values == {}


def test_catalog_values():
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    t = (product_index([2, 2], (1, 0)), product_index([2, 2], (0, 1)))
    assert w1.value(t) == PhaseValue(1, 2)
    d8w = catalog_cocycle("dihedral8_2cocycle", {})
    b, a = dihedral_index(8, 0, 1), dihedral_index(8, 1, 0)
    assert d8w.value((b, a)) == PhaseValue(1, 4)
    w3 = catalog_cocycle("cyclic_3cocycle", {"N": 4, "k": 1})
    assert w3.value((1, 2, 3)) == PhaseValue(1, 4)
    with pytest.raises(UnknownFamily):
        catalog_cocycle("unknown", {})


def test_catalog_cocycles_are_closed():
    for name, params in (
        ("product_2cocycle", {"N": 3, "k": 2}),
        ("dihedral8_2cocycle", {}),
        ("cyclic_3cocycle", {"N": 4, "k": 3}),
    ):
        assert is_cocycle(catalog_cocycle(name, params))


def test_extension_cocycle_table():
    sigma = catalog_cocycle("extension_2cocycle", {"N": 2, "M": 2})
    assert sigma == [[0, 0], [0, 1]]


def test_cohomology_oracle_values():
    assert cohomology(product_group([2, 2]), 2).invariant_factors == [2]
    for n in (2, 3, 4):
        assert cohomology(cyclic_group(n), 3).invariant_factors == [n]
    assert cohomology(dihedral_group(8), 2).invariant_factors == [2]


def test_cohomology_memo_hit_matches_the_first_call():
    group = dihedral_group(8)
    first = cohomology(group, 2)
    hits = cohomology.cache_info().hits
    again = cohomology(group, 2)
    assert cohomology.cache_info().hits == hits + 1
    assert again.invariant_factors == first.invariant_factors
    assert again.generators == first.generators
    combo = first.generators[0] + coboundary(
        random_cochain(group, 1, 2, random.Random(7)))
    for coh in (first, again):
        assert [coh.classify(g) for g in first.generators] == [(1,)]
        assert coh.classify(combo) == (1,)


def test_cohomology_memo_returns_fresh_lists():
    group = product_group([3, 3])
    first = cohomology(group, 2)
    factors, generators = list(first.invariant_factors), list(first.generators)
    first.invariant_factors.append(99)
    first.generators.clear()
    again = cohomology(group, 2)
    assert again.invariant_factors == factors
    assert again.generators == generators


def test_cohomology_memo_rehomes_generators_on_an_equal_group():
    cyclic, product = cyclic_group(4), product_group([4])
    assert cyclic == product
    assert group_json(cyclic) != group_json(product)
    cohomology.cache_clear()
    cold = [cochain_json(g) for g in cohomology(product, 3).generators]
    cohomology.cache_clear()
    cohomology(cyclic, 3)
    hits = cohomology.cache_info().hits
    warm = cohomology(product, 3)
    assert cohomology.cache_info().hits == hits + 1
    assert warm.group is product
    assert all(g.group is product for g in warm.generators)
    assert [cochain_json(g) for g in warm.generators] == cold


def test_cohomology_memo_keeps_the_budget_check():
    group = dihedral_group(8)
    cohomology(group, 3)
    with pytest.raises(BudgetExceeded):
        cohomology(group, 3, budget=10)
    assert cohomology(group, 3, budget=10, allow_large=True).invariant_factors \
        == [2, 2, 4]
    with pytest.raises(ValueError):
        cohomology(group, 0)


def test_generator_orders_and_classify():
    coh = cohomology(product_group([3, 3]), 2)
    assert coh.invariant_factors == [3]
    gen = coh.generators[0]
    assert is_cocycle(gen)
    assert coh.classify(gen) == (1,)
    assert coh.classify(gen + gen) == (2,)
    triple = Cochain(
        gen.group, 2, gen.modulus, {t: 3 * v for t, v in gen.values.items()}
    )
    assert coh.classify(triple) == (0,)


def test_classify_kills_coboundaries():
    group = product_group([2, 2])
    coh = cohomology(group, 2)
    beta = random_cochain(group, 1, 4, random.Random(3))
    assert coh.classify(coboundary(beta)) == (0,)
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    assert coh.classify(w1 + coboundary(beta)) == coh.classify(w1)


def test_classify_rejects_non_cocycles():
    group = product_group([2, 2])
    coh = cohomology(group, 2)
    c = random_cochain(group, 2, 2, random.Random(5))
    if is_cocycle(c):
        c = c + catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    if not is_cocycle(c):
        with pytest.raises(NotACocycle):
            coh.classify(c)


def test_solve_coboundary():
    group = product_group([2, 2])
    zero = Cochain.zero(group, 2)
    assert solve_coboundary(zero).values == {}
    x0 = random_cochain(group, 1, 4, random.Random(9))
    y = coboundary(x0)
    x = solve_coboundary(y)
    assert x is not None and coboundary(x) == y
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    assert solve_coboundary(w1) is None


# --------------------------------------------------------------------------
# cochains on the loop groupoid


def reference_loop_coboundary(c):
    """The groupoid bar differential on the m-fold loop groupoid, written
    out term by term; an independent reference for coboundary."""
    g, k, m = c.group, c.degree, c.loops
    vals = {}
    for base in gauge_groupoid(g, m).objects():
        for args in itertools.product(g.nonidentity(), repeat=k + 1):
            x = args[0]
            moved = tuple(g.mul(g.mul(g.inverses[x], b), x) for b in base)
            acc = c.value(moved + args[1:])
            sign = -1
            for i in range(k):
                merged = args[:i] + (g.mul(args[i], args[i + 1]),) + args[i + 2:]
                acc = acc + sign * c.value(base + merged)
                sign = -sign
            acc = acc + sign * c.value(base + args[:k])
            if not acc.is_zero():
                vals[base + args] = acc
    return Cochain(g, k + 1, c.modulus, vals, loops=m)


def test_coboundary_matches_reference_on_loop_groupoids():
    rng = random.Random(23)
    groups = (cyclic_group(4), product_group([2, 2]), dihedral_group(6),
              dihedral_group(8))
    for group in groups:
        for loops in (1, 2):
            for degree in (0, 1, 2):
                c = random_cochain(group, degree, 4, rng, loops=loops)
                d = coboundary(c)
                assert d == reference_loop_coboundary(c)
                assert d.loops == loops and d.degree == degree + 1
                assert coboundary(d).values == {}


def test_loop_cochain_keys_and_normalization():
    d6 = dihedral_group(6)
    x = d6.nonidentity()[0]
    # the base may hold the identity; the arguments may not
    c = Cochain(d6, 1, 2, {(0, x): PhaseValue(1, 2)}, loops=1)
    assert c.value((0, x)) == PhaseValue(1, 2)
    assert c.value((0, 0)).is_zero()
    with pytest.raises(ValueError):
        Cochain(d6, 1, 2, {(x, 0): PhaseValue(1, 2)}, loops=1)
    with pytest.raises(ValueError):
        Cochain(d6, 1, 2, {(x,): PhaseValue(1, 2)}, loops=1)
    on_loops = Cochain(d6, 1, 2, {(x, x): PhaseValue(1, 2)}, loops=1)
    on_group = Cochain(d6, 2, 2, {(x, x): PhaseValue(1, 2)})
    assert on_loops.values == on_group.values and on_loops != on_group
    with pytest.raises(DegreeMismatch):
        c + Cochain.zero(d6, 1, 2)


def test_pullback_is_a_chain_map():
    z4, z2 = cyclic_group(4), cyclic_group(2)
    f = GroupHom(z4, z2, [0, 1, 0, 1])
    c = random_cochain(z2, 1, 4, random.Random(2))
    assert pullback(f, coboundary(c)) == coboundary(pullback(f, c))
    ident = GroupHom(z2, z2, [0, 1])
    w = random_cochain(z2, 2, 4, random.Random(4))
    assert pullback(ident, w) == w
    const = GroupHom(z4, z2, [0, 0, 0, 0])
    assert pullback(const, c).values == {}


def _shuffles(p, q):
    """(p,q)-shuffles as (sign, positions-of-first-block)."""
    for pos in itertools.combinations(range(p + q), p):
        inversions = sum(pos[k] - k for k in range(p))
        yield (-1) ** inversions, pos


def shuffle_cross(a: FormalChain, b: FormalChain):
    """Eilenberg-Zilber shuffle product of bar chains on one group; the
    reference for torus_fundamental_cycle.

    Satisfies the Leibniz rule whenever the entries of the two factors
    commute elementwise (the only case used here: torus directions).
    """
    if a.group != b.group:
        raise DegreeMismatch("chains on different groups")
    p, q = a.degree, b.degree
    out = {}
    for ta, ka in a.terms.items():
        for tb, kb in b.terms.items():
            for sign, pos in _shuffles(p, q):
                merged = [None] * (p + q)
                for k, i in enumerate(pos):
                    merged[i] = ta[k]
                it = iter(tb)
                for i in range(p + q):
                    if merged[i] is None:
                        merged[i] = next(it)
                t = tuple(merged)
                if a.group.identity not in t:
                    out[t] = out.get(t, 0) + sign * ka * kb
    return FormalChain(a.group, p + q, out)


def test_shuffle_cross_basics():
    z4 = cyclic_group(4)
    a = FormalChain(z4, 1, {(1,): 1})
    b = FormalChain(z4, 1, {(3,): 1})
    ab = shuffle_cross(a, b)
    assert ab.terms == {(1, 3): 1, (3, 1): -1}
    point = FormalChain(z4, 0, {(): 1})
    assert shuffle_cross(a, point).terms == a.terms


def test_shuffle_cross_leibniz():
    z4 = cyclic_group(4)
    rng = random.Random(6)
    for _ in range(5):
        a = FormalChain(z4, 1, {(rng.randrange(1, 4),): rng.randrange(-2, 3)})
        b = FormalChain(z4, 1, {(rng.randrange(1, 4),): rng.randrange(-2, 3)})
        lhs = shuffle_cross(a, b).boundary()
        rhs = shuffle_cross(a.boundary(), b) - shuffle_cross(a, b.boundary())
        assert lhs.terms == rhs.terms


def test_torus_cycle_is_a_cycle():
    s3 = dihedral_group(6)
    z = torus_fundamental_cycle(s3, (1, 2))
    assert len(z.terms) <= 2
    d8 = dihedral_group(8)
    triple = torus_fundamental_cycle(cyclic_group(4), (1, 2, 3))
    assert triple.boundary().is_zero()
    with pytest.raises(NonCommuting):
        torus_fundamental_cycle(d8, (1, 4))


def test_torus_cycle_is_the_iterated_shuffle_product():
    for group, top in ((cyclic_group(4), 4), (dihedral_group(8), 3),
                       (product_group([2, 2, 2]), 3), (dihedral_group(6), 3)):
        for n in range(top + 1):
            for t in gauge_groupoid(group, n).objects():
                ref = FormalChain(group, 0, {(): 1})
                for g in t:
                    ref = shuffle_cross(ref, FormalChain(group, 1, {(g,): 1}))
                assert torus_fundamental_cycle(group, t).terms == ref.terms


def test_evaluate_and_adjointness():
    group = product_group([2, 2])
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    pair = (product_index([2, 2], (1, 0)), product_index([2, 2], (0, 1)))
    z = torus_fundamental_cycle(group, pair)
    assert evaluate(w1, z) == PhaseValue(1, 2)
    rng = random.Random(8)
    c = random_cochain(group, 1, 4, rng)
    chain = FormalChain(group, 2, {(1, 2): 2, (3, 1): -1})
    assert evaluate(c, chain.boundary()) == evaluate(coboundary(c), chain)


def test_torus_evaluation_rotation_invariance():
    for group in (cyclic_group(8), product_group([2, 4]), dihedral_group(8)):
        coh = cohomology(group, 2)
        for gen in coh.generators:
            for x in group.elements():
                for y in group.elements():
                    if not group.commute(x, y):
                        continue
                    a = evaluate(gen, torus_fundamental_cycle(group, (x, y)))
                    b = evaluate(gen, torus_fundamental_cycle(group, (y, x)))
                    assert a == b


def test_interval_pairing_boundary_identity():
    d6 = dihedral_group(6)
    ident = GroupHom(d6, d6, list(d6.elements()), check=False)
    w = random_cochain(d6, 2, 4, random.Random(12))
    # make it closed by projecting onto a known cocycle space: use a
    # coboundary plus a pullback of nothing -- simplest closed input is a
    # coboundary of a random 1-cochain
    w = coboundary(random_cochain(d6, 1, 4, random.Random(13)))
    for ghat in d6.elements():
        phi = interval_pairing(w, ghat, ident)
        conj = GroupHom(
            d6, d6, [d6.conjugate(ghat, x) for x in d6.elements()], check=False
        )
        assert coboundary(phi) == w - pullback(conj, w)
    assert interval_pairing(w, d6.identity, ident).values == {}


# a cohomology run whose elim_b column-op log lost its last entry; the
# self-check must still fire when python -O strips every assert
_CORRUPTED_LOG_RUN = """
import sys
import dwkit.cochains as C
from dwkit.errors import VerificationFailed
from dwkit.groups import dihedral_group

class DropsLastColOp(C.SparseElimination):
    def eliminate(self):
        super().eliminate()
        self.col_ops.pop()
        return self

C.SparseElimination = DropsLastColOp
print(sys.flags.optimize)
try:
    C.cohomology(dihedral_group(8), 2)
except VerificationFailed as exc:
    print(exc)
"""


def test_corrupted_elimination_log_fails_verification_under_optimize():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_LOG_RUN],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.splitlines() == [
        "1", "coboundary outside the cocycle space",
    ]


# cohomology runs whose elim_x column-op log (the source of the torsion
# witnesses) was cleared, or had its first op negated; the generator
# self-check must turn the bad witnesses into VerificationFailed under -O
_CORRUPTED_WITNESS_RUN = """
import sys
import dwkit.cochains as C
from dwkit.errors import VerificationFailed
from dwkit.groups import dihedral_group

def negate_first(ops):
    i, j, q = ops[0]
    ops[0] = (i, j, -q)

def corrupting(corrupt):
    class CorruptsXColOps(SparseElimination):
        def eliminate(self):
            super().eliminate()
            if self.ncols == 7 ** 3:  # delta_3 of D8 in kernel coordinates
                corrupt(self.col_ops)
            return self
    return CorruptsXColOps

SparseElimination = C.SparseElimination
print(sys.flags.optimize)
for corrupt in (list.clear, negate_first):
    C.SparseElimination = corrupting(corrupt)
    C.cohomology.cache_clear()
    try:
        C.cohomology(dihedral_group(8), 3)
    except VerificationFailed as exc:
        print(type(exc).__name__)
"""


def test_corrupted_witness_log_fails_verification_under_optimize():
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-O", "-c", _CORRUPTED_WITNESS_RUN],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert done.stdout.splitlines() == [
        "1", "VerificationFailed", "VerificationFailed",
    ]


def test_crt_pair_rejects_common_factor():
    assert _crt_pair(1, 2, 2, 3) == (5, 6)
    with pytest.raises(VerificationFailed):
        _crt_pair(1, 2, 0, 4)


# --------------------------------------------------------------------------
# closedness read on generator-led tuples


def _bump(c, t, v):
    """c changed by v at the single tuple t."""
    return c + Cochain(c.group, c.degree, v.modulus, {t: v}, c.loops)


def test_is_cocycle_rejects_a_change_off_the_generator_rows():
    s3 = dihedral_group(6)
    gens = set(s3.generators())
    omega = cohomology(s3, 3).generators[0]
    assert omega.denominator() == 6
    for loops in (0, 1, 2):
        z = transgress_torus(omega, loops) if loops else omega
        assert z.loops == loops and is_cocycle(z)
        off = [t for t in TupleIndex(s3, z.degree, loops).all()
               if t[loops] not in gens]
        assert off
        for t in off[::5]:
            for v in (PhaseValue(1, 6), PhaseValue(1, 2)):
                bad = _bump(z, t, v)
                assert not coboundary(bad).is_zero()
                assert not is_cocycle(bad)
                assert solve_coboundary(bad) is None
                if not loops:
                    with pytest.raises(NotACocycle):
                        dw_partition_torus(s3, bad, 3)


def test_is_cocycle_reads_the_rows_of_every_generator():
    # on Z2 x Z2 = <s, t>, f(s) = 1/2, f(t) = 1/4, f(st) = 3/4 has
    # delta f = 0 on every s-led pair but delta f(t, t) = 1/2
    k4 = product_group([2, 2])
    gens = k4.generators()
    assert len(gens) == 2
    for s, t in (gens, gens[::-1]):
        f = Cochain(k4, 1, 4, {(s,): PhaseValue(1, 2), (t,): PhaseValue(1, 4),
                               (k4.mul(s, t),): PhaseValue(3, 4)})
        delta = coboundary(f)
        assert all(u[0] != s for u in delta.values)
        assert not delta.is_zero() and not is_cocycle(f)


_SMALL_GROUPS = (cyclic_group(3), cyclic_group(4), product_group([2, 2]),
                 dihedral_group(6))


@settings(max_examples=60, deadline=None)
@given(
    group=st.sampled_from(_SMALL_GROUPS),
    degree=st.integers(1, 2),
    loops=st.integers(0, 2),
    modulus=st.sampled_from([2, 3, 4, 6]),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_is_cocycle_agrees_with_the_full_coboundary(group, degree, loops,
                                                    modulus, seed, data):
    rng = random.Random(seed)
    c = random_cochain(group, degree, modulus, rng, loops=loops)
    dc = coboundary(c)
    assert is_cocycle(c) == dc.is_zero()
    closed = coboundary(random_cochain(group, degree - 1, modulus, rng,
                                       loops=loops))
    assert is_cocycle(closed)
    t = data.draw(st.sampled_from(list(TupleIndex(group, degree, loops).all())))
    v = PhaseValue(data.draw(st.integers(1, modulus - 1)), modulus)
    bad = _bump(closed, t, v)
    assert is_cocycle(bad) == coboundary(bad).is_zero()
    # against a closed right-hand side, and one changed on a single
    # generator-led tuple
    y = coboundary(random_cochain(group, degree, modulus, rng, loops=loops))
    for rhs in (dc, y, dc + y):
        assert coboundary_agrees(c, rhs) == (dc == rhs)
    lead = [u for u in TupleIndex(group, degree + 1, loops).all()
            if u[loops] in group.generators()]
    u = data.draw(st.sampled_from(lead))
    assert not coboundary_agrees(c, _bump(dc, u, v))


def test_face_and_gauge_memos_count_a_hit_on_a_repeated_call():
    s3 = dihedral_group(6)
    c = random_cochain(s3, 2, 6, random.Random(1), loops=1)
    assert is_cocycle(c) == coboundary(c).is_zero()
    faces, gauge = coboundary_agrees.cache_info(), gauge_groupoid.cache_info()
    is_cocycle(c)
    gauge_groupoid(s3, 1)
    after = coboundary_agrees.cache_info(), gauge_groupoid.cache_info()
    assert [(i.hits, i.misses) for i in after] == [
        (faces.hits + 1, faces.misses), (gauge.hits + 1, gauge.misses)]
    assert [i.maxsize for i in after] == [FACE_MEMO_SIZE, GAUGE_MEMO_SIZE]
    # an invariants pass asks for 85 distinct (group, n): a repeated round
    # of 90 cheap keys is all hits
    keys = [(cyclic_group(m), n) for m in range(1, 31) for n in (0, 1, 2)]
    for _round in range(2):
        gauge = gauge_groupoid.cache_info()
        for group, n in keys:
            gauge_groupoid(group, n)
    after = gauge_groupoid.cache_info()
    assert (after.hits, after.misses) == (gauge.hits + len(keys), gauge.misses)
