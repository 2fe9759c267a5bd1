import heapq
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from dwkit import cochains
from dwkit.groups import dihedral_group
from dwkit.linalg import QZ_MEMO_SIZE, SparseElimination, solve_qz_checked


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
