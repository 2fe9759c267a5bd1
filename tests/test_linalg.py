import hashlib
import heapq
import random
import sys
import weakref
from array import array
from fractions import Fraction
from itertools import compress

import pytest
from hypothesis import given, settings, strategies as st

from dwkit import anomalies, cochains, linalg
from dwkit.anomalies import is_first_obstruction_trivial, is_invariant_class
from dwkit.cochains import catalog_cocycle
from dwkit.errors import VerificationFailed
from dwkit.groups import cyclic_group, dihedral_group, pauli_group, product_group
from dwkit.linalg import (
    QZ_MEMO_SIZE,
    SparseElimination,
    _RowRuns,
    solve_qz_checked,
)
from dwkit.phase import PhaseValue

from support import kernel_coordinate_rows, row_log_slice, solves_rows
from test_anomalies import doubling_extension, z2_in_z4_extension


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

    rows = [{0: 2}, {0: 4}]  # 2x = b0/den, 4x = b1/den

    def system(key):
        def build():
            builds.append(key)
            return list(map(dict, rows)), 1

        return build

    def solve(key, b, den):
        return solve_qz_checked(key, system(key), b, den,
                                solves_rows(rows, b, den))

    x, m = solve("a", [1, 2], 2)
    assert (Fraction(2 * x[0], m) - Fraction(1, 2)).denominator == 1
    x, m = solve("a", [1, 2], 4)
    assert (Fraction(2 * x[0], m) - Fraction(1, 4)).denominator == 1
    assert (Fraction(4 * x[0], m) - Fraction(2, 4)).denominator == 1
    assert builds == ["a"]
    # 4x = 2 * 2x = 1 = 0, not 1/2: a certificate, checked on rebuilt rows
    assert solve("a", [1, 1], 2) is None
    assert builds == ["a", "a"]
    assert solve_qz_checked.cache_info() == (2, 1, QZ_MEMO_SIZE, 1)
    for k in range(QZ_MEMO_SIZE):
        solve(k, [0, 0], 1)
    info = solve_qz_checked.cache_info()
    assert (info.misses, info.currsize) == (QZ_MEMO_SIZE + 1, QZ_MEMO_SIZE)
    solve("a", [0, 0], 1)
    assert solve_qz_checked.cache_info().misses == QZ_MEMO_SIZE + 2
    solve_qz_checked.cache_clear()
    assert solve_qz_checked.cache_info() == (0, 0, QZ_MEMO_SIZE, 0)


def test_solve_qz_checked_releases_built_rows_and_rebuilds_for_a_certificate(
        monkeypatch):
    """A miss hands its built rows to the engine, which copies them, and
    holds no reference to them while it eliminates; a None checks its
    certificate on rows built again, so a cold None builds twice."""
    class Rows(list):  # a list subclass can be weakly referenced
        pass

    built, released = [], []

    def system(rows):
        def build():
            out = Rows(map(dict, rows))
            built.append(weakref.ref(out))
            return out, 1

        return build

    class Probe(SparseElimination):
        def pack(self):
            released.append(built[-1]() is None)
            return super().pack()

    monkeypatch.setattr(linalg, "SparseElimination", Probe)
    solve_qz_checked.cache_clear()
    # 4x = 2 * 2x = 1 = 0, not 1/2
    assert solve_qz_checked("a", system([{0: 2}, {0: 4}]), [1, 1], 2,
                            solves_rows([{0: 2}, {0: 4}], [1, 1], 2)) is None
    assert (len(built), released) == (2, [True])
    x, m = solve_qz_checked("b", system([{0: 2}]), [1], 2,
                            solves_rows([{0: 2}], [1], 2))
    assert (len(built), released) == (3, [True, True])
    assert (Fraction(2 * x[0], m) - Fraction(1, 2)).denominator == 1
    # the certificate is checked against the rebuilt rows, not the first
    rebuilt = iter([[{0: 2}, {0: 4}], [{0: 2}, {0: 3}]])
    with pytest.raises(VerificationFailed, match="annihilate"):
        solve_qz_checked("c", lambda: system(next(rebuilt))(), [1, 1], 2,
                         solves_rows([{0: 2}, {0: 4}], [1, 1], 2))
    solve_qz_checked.cache_clear()


def test_repack_keeps_the_row_log_object_and_the_reached_column_ops():
    """pack() on a packed elimination whose logs were set by hand keeps the
    full row log as the very object set, and of the column log the ops a
    replay from the pivot column reaches, forward and reversed."""
    elim = SparseElimination([{0: 1}], 1).pack()
    assert list(elim.row_ops) == [] and len(elim.col_ops) == 0
    ops = [(0, 1, 3), (2, 0, 2**63)]
    elim.row_ops, elim.col_ops = ops, ops[:1]
    elim.pack()
    assert elim.row_ops is ops
    assert list(elim.col_ops) == ops[:1]
    assert list(reversed(elim.col_ops)) == ops[:1]


def test_solve_rejects_a_right_hand_side_of_the_wrong_length():
    solve_qz_checked.cache_clear()
    for b in ([1, 5], []):
        with pytest.raises(ValueError, match=f"{len(b)} entries for 1 rows"):
            SparseElimination([{0: 2}], 1).pack().solve(b, 4)
        with pytest.raises(ValueError, match=f"{len(b)} entries for 1 rows"):
            solve_qz_checked("k", lambda: ([{0: 2}], 1), b, 4,
                             solves_rows([{0: 2}], b, 4))
    solve_qz_checked.cache_clear()


# -- replay ----------------------------------------------------------------


def replay_rows(ops, b):
    """U b, one logged triple at a time: the reference row replay."""
    b = list(b)
    for i, j, q in ops:
        b[i] += q * b[j]
    return b


def replay_cols(ops, x):
    """V x, one logged triple at a time in reverse: the reference column
    replay."""
    x = list(x)
    for i, j, q in reversed(list(ops)):
        x[j] += q * x[i]
    return x


def _random_rows(rng, nrows, ncols):
    density = rng.choice([0.2, 0.4, 0.7])
    return [{c: rng.choice([-4, -3, -2, -1, 1, 1, 2, 3, 6]) for c in range(ncols)
             if rng.random() < density} for _ in range(nrows)]


def _random_vector(rng, n):
    """0 to 3 nonzeros, or dense."""
    k = rng.choice([0, 1, 2, 3, None])
    if k is None:
        return [rng.randrange(-9, 10) for _ in range(n)]
    v = [0] * n
    for i in rng.sample(range(n), min(k, n)):
        v[i] = rng.choice([-5, -2, -1, 1, 3, 8])
    return v


def _assert_replays_as_logged(packed, ops):
    assert len(packed) == len(ops)
    assert list(packed) == list(ops)
    assert list(reversed(packed)) == list(ops)[::-1]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0),
    st.sampled_from([1, 2**64 + 1]),
)
def test_packed_replay_matches_the_unpacked_engine(nrows, ncols, den, seed,
                                                   scale):
    rng = random.Random(seed)
    rows = _random_rows(rng, nrows, ncols)
    # scaled by 2**64 + 1, most systems log multipliers past 64 bits
    for row in rows:
        if 0 in row:
            row[0] *= scale
    plain = SparseElimination(rows, ncols).eliminate()
    # packed whatever the size of its multipliers
    packed = SparseElimination(rows, ncols).pack()
    pivot_cols = {c for _r, c, _d in plain.pivots}
    _assert_replays_as_logged(packed.row_ops, plain.row_ops)
    _assert_replays_as_logged(packed.col_ops,
                              _reachable_ops(plain.col_ops, pivot_cols))
    for _ in range(4):
        b = _random_vector(rng, nrows)
        assert packed.solve(b, den) == plain.solve(b, den)
        want = replay_rows(plain.row_ops, b)
        assert SparseElimination.apply_row_ops(packed.row_ops, b) == want
        assert SparseElimination.apply_row_ops(plain.row_ops, b) == want
        x = _random_vector(rng, ncols)
        assert plain.apply_col_ops(x) == replay_cols(plain.col_ops, x)
        z = [v if c in pivot_cols else 0 for c, v in enumerate(x)]
        assert packed.apply_col_ops(z) == replay_cols(plain.col_ops, z)


def _reachable_ops(ops, pivot_cols):
    """The ops of a column log that a reverse replay from the pivot
    columns reaches, in log order: op k reads column i, and is reached if
    i is a pivot column or a reached op later in the log writes i."""
    ops = list(ops)
    reached = [False] * len(ops)
    for k in reversed(range(len(ops))):
        i = ops[k][0]
        reached[k] = i in pivot_cols or any(
            reached[h] and ops[h][1] == i for h in range(k + 1, len(ops)))
    return list(compress(ops, reached))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0),
)
def test_packed_column_log_keeps_exactly_the_reachable_ops(
        nrows, ncols, den, seed):
    rng = random.Random(seed)
    rows = _random_rows(rng, nrows, ncols)
    plain = SparseElimination(rows, ncols).eliminate()
    packed = SparseElimination(rows, ncols).pack()
    pivot_cols = sorted(c for _r, c, _d in plain.pivots)
    assert list(packed.col_ops) == _reachable_ops(plain.col_ops, pivot_cols)
    # replay is linear, so the unit vectors on the pivot columns cover
    # every z supported there; one random combination is checked too
    zs = [[int(c == p) for c in range(ncols)] for p in pivot_cols]
    zs.append([rng.randrange(-9, 10) if c in pivot_cols else 0
               for c in range(ncols)])
    for z in zs:
        assert packed.apply_col_ops(z) == replay_cols(plain.col_ops, z)
    for _ in range(4):
        b = _random_vector(rng, nrows)
        assert packed.solve(b, den) == plain.solve(b, den)


def test_packing_drops_unreachable_column_ops_and_the_kernel():
    dropped = 0
    for seed in range(40):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(4, 14), rng.randint(4, 14)
        rows = _random_rows(rng, nrows, ncols)
        plain = SparseElimination(rows, ncols).eliminate()
        packed = SparseElimination(rows, ncols).pack()
        dropped += len(plain.col_ops) - len(packed.col_ops)
        plain.kernel()
        with pytest.raises(ValueError, match="packed elimination"):
            packed.kernel()
    assert dropped > 0


def _image(rows, x):
    """A x for the sparse rows of A: a right-hand side that is solvable."""
    return [sum(v * x[c] for c, v in row.items()) for row in rows]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=14),
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=0),
)
def test_pivot_row_log_keeps_exactly_the_ops_that_reach_pivot_rows(
        nrows, ncols, den, seed):
    rng = random.Random(seed)
    rows = _random_rows(rng, nrows, ncols)
    plain = SparseElimination(rows, ncols).eliminate()
    packed = SparseElimination(rows, ncols).pack()
    pivot_rows = [r for r, _c, _d in plain.pivots]
    assert list(plain.pivot_row_ops) == list(plain.row_ops)
    assert list(packed.pivot_row_ops) == row_log_slice(plain.row_ops,
                                                       pivot_rows)
    bs = [_random_vector(rng, nrows) for _ in range(3)]
    bs.append(_image(rows, _random_vector(rng, ncols)))
    for b in bs:
        want = replay_rows(plain.row_ops, b)
        got = SparseElimination.apply_row_ops(packed.pivot_row_ops, b)
        assert [got[r] for r in pivot_rows] == [want[r] for r in pivot_rows]
        sol, _y = plain.solve(b, den)
        if sol is not None:
            assert packed.solve_pivots(b, den) == sol
            assert plain.solve_pivots(b, den) == sol
    assert plain.solve(bs[-1], den)[0] is not None


def test_pivot_row_logs_match_the_reference_slice_on_recorded_systems(
        monkeypatch):
    """The systems of the recorded digests, each eliminated again from a
    copy of its rows and packed: the pivot-row log is the reference slice
    of the recorded full log, op for op, and reads what ``solve`` reads."""
    made = []

    class Recording(SparseElimination):
        def __init__(self, rows, ncols):
            self.built = [dict(r) for r in rows], ncols
            super().__init__(rows, ncols)
            made.append(self)

    with monkeypatch.context() as mp:
        mp.setattr(cochains, "SparseElimination", Recording)
        for group, n in [(dihedral_group(8), 3), (product_group([3, 3]), 2),
                         (pauli_group(), 1)]:
            cochains.cohomology.cache_clear()
            cochains.cohomology(group, n)
    cochains.cohomology.cache_clear()
    ext = doubling_extension(2)
    w1 = catalog_cocycle("product_2cocycle", {"N": 2, "k": 1})
    _ok, phis = is_invariant_class(ext, w1)
    solve_qz_checked.cache_clear()
    with monkeypatch.context() as mp:
        mp.setattr(linalg, "SparseElimination", Recording)
        is_first_obstruction_trivial(ext, w1, phis)
    solve_qz_checked.cache_clear()
    for seed in range(20):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(4, 16), rng.randint(4, 16)
        density = rng.choice([0.2, 0.4, 0.7])
        Recording([{c: rng.randint(-3, 5) for c in range(ncols)
                    if rng.random() < density} for _ in range(nrows)],
                  ncols).eliminate()
    assert len(made) == 2 * 3 + 1 + 20
    rng = random.Random(30)
    kept = total = 0
    for elim in made:
        rows, ncols = elim.built
        packed = SparseElimination(rows, ncols).pack()
        assert packed.pivots == elim.pivots
        pivot_rows = [r for r, _c, _d in elim.pivots]
        assert list(packed.pivot_row_ops) == row_log_slice(elim.row_ops,
                                                           pivot_rows)
        kept, total = kept + len(packed.pivot_row_ops), total + len(elim.row_ops)
        b = _image(rows, [rng.randrange(-3, 4) for _ in range(ncols)])
        sol, _y = packed.solve(b, 5)
        assert sol is not None and packed.solve_pivots(b, 5) == sol
    assert kept < total


def test_an_unsolvable_right_hand_side_returns_none_through_the_certificate(
        monkeypatch):
    """``finish`` rejects the candidate read off the pivot rows; the full
    solve's certificate is then checked on rows built again, and None is
    returned with no second call to ``finish``, on a miss and on a hit."""
    rows, b = [{0: 2}, {0: 4}], [1, 1]  # 4x = 2 * 2x = 1 = 0, not 1/2
    builds, candidates, certificates = [], [], []
    check = solves_rows(rows, b, 2)

    def build():
        builds.append(1)
        return list(map(dict, rows)), 1

    def finish(sol):
        candidates.append(sol)
        return check(sol)

    class Probe(SparseElimination):
        def solve(self, b, den):
            sol, y = super().solve(b, den)
            certificates.append(y)
            return sol, y

    monkeypatch.setattr(linalg, "SparseElimination", Probe)
    solve_qz_checked.cache_clear()
    for _ in range(2):
        assert solve_qz_checked("u", build, b, 2, finish) is None
    elim = linalg._eliminations.entries[Probe, "u"]
    assert candidates == [elim.solve_pivots(b, 2)] * 2
    assert certificates == [SparseElimination.solve(elim, b, 2)[1]] * 2
    assert certificates[0]
    assert len(builds) == 3  # the miss, and each certificate check
    assert solve_qz_checked.cache_info()[:2] == (1, 1)
    solve_qz_checked.cache_clear()


def test_a_forged_candidate_falls_back_to_the_full_solve(monkeypatch):
    """A wrong candidate from the pivot rows fails the caller's check, and
    the full solve decides: an honest one returns the answer the unforged
    engine gives; a forged one fails the check again, with the caller's
    message."""
    z4 = cyclic_group(4)
    exact = cochains.coboundary(
        cochains.Cochain(z4, 1, 4, {(1,): PhaseValue(1, 4)}))
    ext = z2_in_z4_extension()
    omega = cochains.Cochain.zero(ext.kernel, 2, 2)
    solve_qz_checked.cache_clear()
    honest = (cochains.solve_coboundary(exact),
              anomalies.find_closed_lift(ext, omega))
    full_solves = []

    class WrongPivots(SparseElimination):
        def solve_pivots(self, b, den):
            x, m = super().solve_pivots(b, den)
            return [2 * v + 1 for v in x], 2 * m

        def solve(self, b, den):
            full_solves.append(den)
            return super().solve(b, den)

    class WrongBoth(WrongPivots):
        def solve(self, b, den):
            sol, y = super().solve(b, den)
            return (sol if sol is None else self.solve_pivots(b, den)), y

    monkeypatch.setattr(linalg, "SparseElimination", WrongPivots)
    assert (cochains.solve_coboundary(exact),
            anomalies.find_closed_lift(ext, omega)) == honest
    assert len(full_solves) == 2
    monkeypatch.setattr(linalg, "SparseElimination", WrongBoth)
    with pytest.raises(VerificationFailed,
                       match="^solver output must have coboundary y$"):
        cochains.solve_coboundary(exact)
    with pytest.raises(VerificationFailed,
                       match="^solver output must be closed$"):
        anomalies.find_closed_lift(ext, omega)
    assert len(full_solves) == 4
    solve_qz_checked.cache_clear()


def test_random_systems_pivot_on_non_units_and_restart():
    """The systems of the replay property reach the cases a replay must get
    right: non-unit pivots, and restarts, whose runs read a row (or column)
    that is not the step's final pivot."""
    seen = set()
    for seed in range(40):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(4, 14), rng.randint(4, 14)
        elim = SparseElimination(_random_rows(rng, nrows, ncols), ncols)
        elim.eliminate()
        if any(abs(d) > 1 for _r, _c, d in elim.pivots):
            seen.add("non-unit")
        if {j for _i, j, _q in elim.row_ops} - {r for r, _c, _d in elim.pivots}:
            seen.add("row restart")
        if {j for _i, j, _q in elim.col_ops} - {c for _r, c, _d in elim.pivots}:
            seen.add("column restart")
    assert seen == {"non-unit", "row restart", "column restart"}


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0))
def test_row_runs_replay_any_log_of_distinct_rows(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 8)
    ops = []
    for _ in range(rng.randint(0, 30)):
        i, j = rng.sample(range(n), 2)
        if ops and rng.random() < 0.6:  # extend the run of the previous op
            j = ops[-1][1]
            i = rng.choice([r for r in range(n) if r != j])
        ops.append((i, j, rng.randint(-3, 3)))
    runs = _RowRuns.group(ops)
    _assert_replays_as_logged(runs, ops)
    for _ in range(3):
        b = _random_vector(rng, n)
        assert SparseElimination.apply_row_ops(runs, b) == replay_rows(ops, b)


def test_row_runs_group_consecutive_ops_on_one_source():
    ops = [(1, 0, 2), (2, 0, -1), (0, 2, 3), (1, 2, 1), (3, 0, 5)]
    runs = _RowRuns.group(ops)
    assert (list(runs.sources), list(runs.ends)) == ([0, 2, 0], [2, 4, 5])
    assert (list(runs.targets), list(runs.qs)) == ([1, 2, 0, 1, 3],
                                                   [2, -1, 3, 1, 5])
    # the first run on source 0 is skipped whole while b_0 = 0; the last
    # reads b_0 = 3, written by the run before it
    assert SparseElimination.apply_row_ops(runs, [0, 1, 1, 0]) == [3, 2, 1, 15]


def test_row_ops_logs_empty_and_beyond_64_bits():
    _assert_replays_as_logged(_RowRuns.group([]), [])
    assert SparseElimination.apply_row_ops(_RowRuns.group([]), [4, 5]) == [4, 5]
    big = [(0, 1, 3), (2, 0, 2**63), (1, 0, -(2**70))]
    runs = _RowRuns.group(big)
    _assert_replays_as_logged(runs, big)
    b = [1, 2, -1]
    assert SparseElimination.apply_row_ops(runs, b) == replay_rows(big, b)


def test_row_op_that_reads_its_target_is_rejected():
    with pytest.raises(ValueError, match="must not read the row it writes"):
        _RowRuns.group([(1, 0, 2), (1, 1, 3)])


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


# -- released containers -------------------------------------------------------


def _assert_released(elim):
    """Every row and column ends empty, and each was released: no emptied
    container keeps the table it grew to.  The row log was built as runs,
    the maximal ones that grouping the logged triples gives."""
    assert all(not row and sys.getsizeof(row) <= sys.getsizeof({})
               for row in elim.rows)
    assert all(not rc and sys.getsizeof(rc) <= sys.getsizeof(set())
               for rc in elim.colrows)
    runs = elim.row_ops
    assert isinstance(runs, _RowRuns)
    assert isinstance(runs.targets, array) and runs.targets.typecode == "q"
    grouped = _RowRuns.group(runs)
    assert (list(runs.sources), list(runs.ends)) == (grouped.sources,
                                                     grouped.ends)


def test_elimination_releases_emptied_rows_and_columns():
    d8 = dihedral_group(8)
    index = cochains.TupleIndex(d8, 4)
    elim = SparseElimination(
        cochains.delta_matrix_rows(index, d8.generators()), index.size)
    assert (elim.nrows, elim.ncols) == (4802, 2401)
    _assert_released(elim.eliminate())
    for seed in range(40):
        rng = random.Random(seed)
        nrows, ncols = rng.randint(4, 14), rng.randint(4, 14)
        _assert_released(SparseElimination(
            _random_rows(rng, nrows, ncols), ncols).eliminate())


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
    return elim.pivots, list(elim.row_ops), elim.col_ops, elim.free_cols


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
        (4802, 2401), (686, 343),
    ]
    for system in systems:
        got = SparseElimination(*system).eliminate()
        assert _outcome(got) == _outcome(
            _lazy_heap_eliminate(SparseElimination(*system))
        )
    # the copy counts matter: a heap of distinct keys pivots otherwise the
    # system of delta_3 in kernel coordinates, the reference route's
    x_system = (kernel_coordinate_rows(dihedral_group(8), 3), 7**3)
    assert len(x_system[0]) == 301
    assert _outcome(SparseElimination(*x_system).eliminate()) == _outcome(
        _lazy_heap_eliminate(SparseElimination(*x_system))
    )
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
# engine first recorded them (a cohomology entry's second system, Rdelta_n,
# as first recorded on that route); any change to a pivot, an op or their
# order shows here, whatever drives the pivot step
RECORDED_DIGESTS = {
    "d8_h3": [
        "6354ff8d1e277a2d506ff526d0826a354c66652b71606e862b709d0ebbd99d11",
        "c46c454e89e9db51ba72c29d838ce773ffd521b2a705d3f9016fc4a481fd775f",
    ],
    "z3xz3_h2": [
        "0e0166a2ad9199f1d1dc03322a7c200bbbe2aad8a8f61d65e0329e9496c13ab4",
        "2d237c8c82700653831441661aca3aea3e803e8da01cc29aed475914ddd41ff0",
    ],
    "pauli_h1": [
        "1120ada9c6788cd752d5d4f2575e7b740123cc029e9c37a39c73c59c303914e5",
        "f5946b9dbd9681f6340c5d87fa2042820b726c4e3600ff864e4fda1f24b46ffb",
    ],
    "first_obstruction": [
        "387dbf9efe2f2296b1cc5b795c2e6b12547e785a4c6da8878e10506c24894c76",
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
