import hashlib
import heapq
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dwkit import cochains, linalg
from dwkit.anomalies import is_first_obstruction_trivial, is_invariant_class
from dwkit.cochains import catalog_cocycle
from dwkit.groups import dihedral_group, pauli_group, product_group
from dwkit.linalg import QZ_MEMO_SIZE, SparseElimination, solve_qz_checked

from test_anomalies import doubling_extension


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=0),
)
def test_solve_qz_returns_a_solution_or_a_certificate(rows, cols, den, seed):
    rng = random.Random(seed)
    a = [[rng.choice([0, 0, 1, -1, 2, 3, -4, 6]) for _ in range(cols)]
         for _ in range(rows)]
    b = [rng.randrange(-8, 9) for _ in range(rows)]
    row_dicts = [{c: v for c, v in enumerate(row) if v} for row in a]
    sol, y = SparseElimination(row_dicts, cols).solve(b, den)
    assert (sol is None) != (y is None)
    # packed op logs replay, forward and reversed, exactly as the tuples
    assert SparseElimination(row_dicts, cols).pack().solve(b, den) == (sol, y)
    if sol is not None:
        x, m = sol
        for r in range(rows):
            lhs = sum(Fraction(a[r][c] * x[c], m) for c in range(cols))
            assert (lhs - Fraction(b[r], den)).denominator == 1
    else:
        assert all(sum(y.get(r, 0) * a[r][c] for r in range(rows)) == 0
                   for c in range(cols))
        assert sum(v * b[r] for r, v in y.items()) % den


def test_solve_qz_checked_memo_replays_and_evicts():
    """A hit replays the stored elimination without building the rows,
    except to check a certificate; the least recently used key goes first."""
    solve_qz_checked.cache_clear()
    builds = []

    def system(key):
        def build():
            builds.append(key)
            return [{0: 2}, {0: 4}], 1  # 2x = b0/den, 4x = b1/den

        return build

    x, m = solve_qz_checked("a", system("a"), [1, 2], 2)
    assert (Fraction(2 * x[0], m) - Fraction(1, 2)).denominator == 1
    x, m = solve_qz_checked("a", system("a"), [1, 2], 4)
    assert (Fraction(2 * x[0], m) - Fraction(1, 4)).denominator == 1
    assert (Fraction(4 * x[0], m) - Fraction(2, 4)).denominator == 1
    assert builds == ["a"]
    # 4x = 2 * 2x = 1 = 0, not 1/2: a certificate, checked on rebuilt rows
    assert solve_qz_checked("a", system("a"), [1, 1], 2) is None
    assert builds == ["a", "a"]
    assert solve_qz_checked.cache_info() == (2, 1, QZ_MEMO_SIZE, 1)
    for k in range(QZ_MEMO_SIZE):
        solve_qz_checked(k, system(k), [0, 0], 1)
    info = solve_qz_checked.cache_info()
    assert (info.misses, info.currsize) == (QZ_MEMO_SIZE + 1, QZ_MEMO_SIZE)
    solve_qz_checked("a", system("a"), [0, 0], 1)
    assert solve_qz_checked.cache_info().misses == QZ_MEMO_SIZE + 2
    solve_qz_checked.cache_clear()
    assert solve_qz_checked.cache_info() == (0, 0, QZ_MEMO_SIZE, 0)


def test_pack_keeps_a_log_that_needs_more_than_64_bits():
    elim = SparseElimination([{0: 1}], 1).pack()
    assert list(elim.row_ops) == [] and len(elim.col_ops) == 0
    ops = [(0, 1, 3), (2, 0, 2**63)]
    elim.row_ops, elim.col_ops = ops, ops[:1]
    elim.pack()
    assert elim.row_ops is ops
    assert list(elim.col_ops) == ops[:1]
    assert list(reversed(elim.col_ops)) == ops[:1]


def test_solve_linear_examples():
    eye = SparseElimination([{0: 1}, {1: 1}], 2)
    assert eye.solve([4, 5], 6) == (([4, 5], 6), None)
    # Q/Z is divisible: 2x = 1/4 has a solution, 2x = 1 (mod 4) has none
    two = SparseElimination([{0: 2}], 1)
    (x, m), y = two.solve([1], 4)
    assert y is None and (Fraction(2 * x[0], m) - Fraction(1, 4)).denominator == 1
    # 2x = 1/2 and 4x = 1/2 contradict, as 4x = 2(2x) = 1 = 0
    sol, y = SparseElimination([{0: 2}, {0: 4}], 1).solve([1, 1], 2)
    assert sol is None and y == {0: -2, 1: 1}


def test_sparse_elimination_kernel():
    # the integer kernel of [1 1 0; 0 1 1] is spanned by (1, -1, 1); that
    # of [2] is zero
    kernel = SparseElimination([{0: 1, 1: 1}, {1: 1, 2: 1}], 3).kernel()
    assert kernel in ([[1, -1, 1]], [[-1, 1, -1]])
    assert SparseElimination([{0: 2}], 1).kernel() == []


# -- pivot order ---------------------------------------------------------------


def _lazy_heap_eliminate(elim, dedupe=False):
    """Reference pivot order: a lazy column heap holding every pushed copy.

    With ``dedupe`` a key is pushed only while no copy of it is on the heap;
    the pivot order depends on the copy counts, so that variant differs.
    """
    heap = [(len(rc), c) for c, rc in enumerate(elim.colrows) if rc]
    on_heap = set(heap)
    heapq.heapify(heap)

    def push(key):
        if dedupe and key in on_heap:
            return
        on_heap.add(key)
        heapq.heappush(heap, key)

    while heap:
        sz, c = heapq.heappop(heap)
        on_heap.discard((sz, c))
        if c in elim.pivot_cols or not elim.colrows[c]:
            continue
        if len(elim.colrows[c]) != sz:
            push((len(elim.colrows[c]), c))
            continue
        elim._pivot_on_column(c)
        for c2 in elim.rows_touched:
            if c2 not in elim.pivot_cols and elim.colrows[c2]:
                push((len(elim.colrows[c2]), c2))
    for c in range(elim.ncols):
        if c not in elim.pivot_cols and elim.colrows[c]:
            elim._pivot_on_column(c)
    elim.free_cols = [c for c in range(elim.ncols) if c not in elim.pivot_cols]
    return elim


def _outcome(elim):
    return elim.pivots, elim.row_ops, elim.col_ops, elim.free_cols


def test_pivot_order_matches_lazy_heap_on_d8_degree_three(monkeypatch):
    systems = []

    class Recording(SparseElimination):
        def __init__(self, rows, ncols):
            systems.append(([dict(r) for r in rows], ncols))
            super().__init__(rows, ncols)

    monkeypatch.setattr(cochains, "SparseElimination", Recording)
    cochains.cohomology.cache_clear()  # a memo hit would eliminate nothing
    assert cochains.cohomology(dihedral_group(8), 3).invariant_factors == [
        2, 2, 4,
    ]
    assert [(len(rows), ncols) for rows, ncols in systems] == [
        (4802, 2401), (301, 343),
    ]
    for system in systems:
        got = SparseElimination(*system).eliminate()
        assert _outcome(got) == _outcome(
            _lazy_heap_eliminate(SparseElimination(*system))
        )
    # the copy counts matter: a heap of distinct keys pivots elim_x otherwise
    x_system = systems[1]
    assert _outcome(SparseElimination(*x_system).eliminate()) != _outcome(
        _lazy_heap_eliminate(SparseElimination(*x_system), dedupe=True)
    )


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=0),
)
def test_pivot_order_matches_lazy_heap_on_random_matrices(nrows, ncols, seed):
    rng = random.Random(seed)
    density = rng.choice([0.15, 0.3, 0.6])
    rows = [
        {c: rng.choice([-3, -2, -1, 1, 1, 2, 3, 5]) for c in range(ncols)
         if rng.random() < density}
        for _ in range(nrows)
    ]
    got = SparseElimination(rows, ncols).eliminate()
    want = _lazy_heap_eliminate(SparseElimination(rows, ncols))
    assert _outcome(got) == _outcome(want)


# -- recorded op logs ----------------------------------------------------------

# sha256 of repr((pivots, row_ops, col_ops, free_cols)) per system, as the
# engine first recorded them; any change to a pivot, an op or their order
# shows here, whatever drives the pivot step
RECORDED_DIGESTS = {
    "d8_h3": [
        "6354ff8d1e277a2d506ff526d0826a354c66652b71606e862b709d0ebbd99d11",
        "d3563ac94cb82c270c4a3d0b8e001e2fbaeedc2a4304b89ba304d5104e1bbdd4",
    ],
    "z3xz3_h2": [
        "0e0166a2ad9199f1d1dc03322a7c200bbbe2aad8a8f61d65e0329e9496c13ab4",
        "30be91214c5fd7e798d8da08c049268e16282171477b2edbcba14417aee1dd61",
    ],
    "pauli_h1": [
        "1120ada9c6788cd752d5d4f2575e7b740123cc029e9c37a39c73c59c303914e5",
        "dfda2d57c3926e0f4a85d0df87841dde615212400df139e7850455003c03e2e6",
    ],
    "first_obstruction": [
        "6c8f19cdf4258ab4a95ca76226e6a86ac7041b72406c7cc8a7b46f1294e46cb8",
    ],
    "random": [
        "6b76d21b5f361a147a254f36beb5c49f1c7ef2161e0440e10c9007d28146ad31",
    ],
}


def _digest(outcome):
    return hashlib.sha256(repr(outcome).encode()).hexdigest()


def _eliminations_of(monkeypatch, module, run):
    """Digests of the eliminations ``run()`` makes through ``module`` (a
    packed op log reads as the list of triples it packs)."""
    made = []

    class Recording(SparseElimination):
        def __init__(self, rows, ncols):
            super().__init__(rows, ncols)
            made.append(self)

    with monkeypatch.context() as mp:
        mp.setattr(module, "SparseElimination", Recording)
        run()
    return [_digest((e.pivots, list(e.row_ops), list(e.col_ops), e.free_cols))
            for e in made]


def test_elimination_op_logs_match_recorded_digests(monkeypatch):
    got = {}
    for name, group, n in [("d8_h3", dihedral_group(8), 3),
                           ("z3xz3_h2", product_group([3, 3]), 2),
                           ("pauli_h1", pauli_group(), 1)]:
        cochains.cohomology.cache_clear()  # a memo hit would eliminate nothing
        got[name] = _eliminations_of(
            monkeypatch, cochains, lambda: cochains.cohomology(group, n))
    ext = doubling_extension(2)
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    _ok, phis = is_invariant_class(ext, w1)
    solve_qz_checked.cache_clear()
    got["first_obstruction"] = _eliminations_of(
        monkeypatch, linalg,
        lambda: is_first_obstruction_trivial(ext, w1, phis))
    # small dense-ish matrices: non-unit pivots, and pivots that move to a
    # smaller remainder in another row or column
    outcomes = []
    for seed in range(20):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(4, 16), rng.randint(4, 16)
        density = rng.choice([0.2, 0.4, 0.7])
        rows = [{c: rng.randint(-3, 5) for c in range(ncols)
                 if rng.random() < density} for _ in range(nrows)]
        outcomes.append(_outcome(SparseElimination(rows, ncols).eliminate()))
    assert any(abs(d) > 1 for pivots, *_ in outcomes for _r, _c, d in pivots)
    got["random"] = [_digest(outcomes)]
    assert got == RECORDED_DIGESTS
