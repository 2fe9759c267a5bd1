"""Exact linear algebra over Z and Q/Z.

:class:`SparseElimination` is sparse fraction-free diagonalization over Z
with operation logs, the engine behind every cohomology group and every
Q/Z search.  Row and column operations are recorded and replayed on
vectors, so no dense transform matrices are ever materialized; the row
log is built as runs, and emptied rows and columns are released.

"No solution" is a verdict (``None``), not an exception: the diagonal form
fully decouples the system, and Q/Z is injective, so the verdict is
definitive.  It comes with an integer certificate y, y^T A = 0 and
y.b not in den*Z, that :func:`solve_qz_checked` checks against the rows
as built, built again whenever a certificate is checked.

A system's elimination is shared across right-hand sides, also across
calls: :func:`solve_qz_checked` memoizes it in-process under a key that
the caller says determines the rows (QZ_MEMO_SIZE most recently used
keys), keeping only the op logs and pivots, and replays it on each new b.
A replay costs what the nonzeros it meets cost: the row log is runs of ops
that read one source row, a run whose source entry is 0 skipped whole; the
column log, a list of triples, keeps only ops reachable from the pivot
columns, and skips one whose source entry is 0; only non-pivot rows,
listed once, are tested.

Most row ops exist only for that test: in one ``anomaly`` benchmark pass
the 20 memoized systems log 99,351 row ops, of which 4,848 can change a
pivot row.  So a packed elimination also keeps that slice as runs, the
pivot-row log, and :func:`solve_qz_checked` first replays it alone
(``solve_pivots``): the solution it reads off is ``solve``'s whenever b is
solvable, and the caller's own check of that solution decides.  Only a
candidate that fails the check costs the full replay, which returns
``solve``'s solution or its checked certificate.
"""

from __future__ import annotations

import heapq
from array import array
from itertools import chain, compress, repeat
from math import lcm
from operator import eq, itemgetter, ne, sub

from .errors import VerificationFailed
from .memo import _Memo

# eliminated Q/Z systems kept in-process; an anomaly pass asks for 20 in 43 solves
QZ_MEMO_SIZE = 64


# -- sparse elimination with op logs ------------------------------------------


class SparseElimination:
    """Diagonalize a sparse integer matrix by logged row/column operations.

    Solves A x = b/den in Q/Z; the elimination is shared across right-hand
    sides.  Column operations are replayed on coordinate vectors instead of
    materializing the transform.

    Pivot rule: the next pivot column is the one of least current fill,
    ties broken by the smaller column index, read from a lazy heap of
    (fill, column) keys.  The heap is a multiset: each distinct key sits on
    it once with a copy count, and it pops in exactly the order of a heap
    that holds every pushed copy, so the pivots and op logs do not depend
    on how the heap is stored.

    Pivot step (``_pivot_on_column``), one inlined loop: the pivot row is
    the first in column c's set order by (entry not a unit, length).  Row,
    then column, operations clear c by the balanced quotient (q = v * p if
    |p| = 1), restarting on any smaller remainder.  The op logs depend on
    every set and dict operation's order, which the step keeps: set order
    breaks pivot-row ties, dict order sets the clearing order.

    Memory: the row log is built as a ``_RowRuns``, and an emptied row or
    column is replaced by a fresh empty container.  An empty column never
    refills and an empty row is never an op target, so no order can change.
    """

    # always integral; bench/tracer.py reads it to name an elimination
    modulus = None

    def __init__(self, row_dicts, ncols):
        self.ncols = ncols
        self.rows = [{c: v for c, v in r.items() if v} for r in row_dicts]
        self.nrows = len(self.rows)
        self.colrows = [set() for _ in range(ncols)]
        for r, row in enumerate(self.rows):
            for c in row:
                self.colrows[c].add(r)
        # (i, j, q): row_i += q * row_j, logged as runs while eliminating
        self.row_ops = _RowRuns(array("q"), array("q"), array("q"), [])
        self.col_ops = []  # (i, j, q): col_i += q * col_j
        self.pivots = []  # (row, col, value)
        self.pivot_cols = set()
        self._done = False

    def eliminate(self):
        if self._done:
            return self
        colrows, pivot_cols = self.colrows, self.pivot_cols
        heappush, heappop = heapq.heappush, heapq.heappop
        # Multiset lazy heap: each distinct (fill, column) key is on the
        # heap once and ``copies`` counts how many times it was pushed.
        # This pops keys in exactly the order of a heap holding every copy.
        heap = [(len(rc), c) for c, rc in enumerate(colrows) if rc]
        heapq.heapify(heap)
        copies = dict.fromkeys(heap, 1)
        while heap:
            key = heappop(heap)
            n = copies.pop(key)
            sz, c = key
            # pivoted or emptied (an empty column never refills): drop all
            if c in pivot_cols or not colrows[c]:
                continue
            cur = len(colrows[c])
            if cur > sz:
                # every copy is re-pushed at the current fill in turn
                key = (cur, c)
                m = copies.get(key, 0)
                if not m:
                    heappush(heap, key)
                copies[key] = m + n
                continue
            # valid, or shrunk (a copy re-pushed at the smaller fill would
            # be the heap minimum and pivot next): one copy is spent
            if n > 1:
                copies[key] = n - 1
                heappush(heap, key)
            self._pivot_on_column(c)
            # new fill may have revived columns never pushed as nonempty
            for c2 in self.rows_touched:
                if c2 not in pivot_cols and colrows[c2]:
                    key = (len(colrows[c2]), c2)
                    m = copies.get(key, 0)
                    if not m:
                        heappush(heap, key)
                    copies[key] = m + 1
        # anything left (late fill) gets a final sweep
        for c in range(self.ncols):
            if c not in self.pivot_cols and self.colrows[c]:
                self._pivot_on_column(c)
        self.free_cols = [
            c for c in range(self.ncols) if c not in self.pivot_cols
        ]
        # what solve reads on every right-hand side
        pivot_rows = {r for r, _c, _d in self.pivots}
        self.free_rows = array(
            "q", (r for r in range(self.nrows) if r not in pivot_rows))
        self.pivot_lcm = lcm(*(d for _r, _c, d in self.pivots))
        # every op may reach a pivot row until pack() slices the log
        self.pivot_row_ops = self.row_ops
        self._done = True
        return self

    def _pivot_on_column(self, c):
        rows, colrows = self.rows, self.colrows
        runs, col_ops = self.row_ops, self.col_ops
        targets, qs = runs.targets, runs.qs
        touched = self.rows_touched = set()
        # a row has at most ncols entries, so key k ranks every unit first
        nonunit = self.ncols + 1
        best = 2 * nonunit
        for rr in colrows[c]:
            row = rows[rr]
            k = len(row) if row[c] in (1, -1) else len(row) + nonunit
            if k < best:
                r, best = rr, k
        while True:
            prow = rows[r]
            p = prow[c]
            unit, ap = p in (1, -1), abs(p)
            start, restart = len(targets), None
            for r2 in list(colrows[c]):
                if r2 == r:
                    continue
                ri = rows[r2]
                if unit:
                    q = ri[c] * p
                else:
                    q, rem = divmod(ri[c], p)
                    if 2 * abs(rem) > ap:
                        q += 1
                if q:  # row_r2 -= q * row_r
                    q = -q
                    targets.append(r2)
                    qs.append(q)
                    for cc, w in prow.items():
                        old = ri.get(cc)
                        if old is None:
                            ri[cc] = q * w
                            colrows[cc].add(r2)
                        elif nv := old + q * w:
                            ri[cc] = nv
                        else:
                            del ri[cc]
                            colrows[cc].discard(r2)
                    if not ri:  # release the emptied row
                        rows[r2] = {}
                    touched.update(ri)
                if c in ri:  # a smaller remainder: restart on row r2
                    restart = r2
                    break
            if len(targets) > start:  # this pass's ops, all reading row r
                if runs.sources and runs.sources[-1] == r:
                    runs.ends[-1] = len(targets)
                else:
                    runs.sources.append(r)
                    runs.ends.append(len(targets))
            if restart is not None:
                r = restart
                continue
            # column c is row r's alone now, so col_c2 -= q * col_c
            # changes only entry (r, c2)
            for c2 in list(prow):
                if c2 == c:
                    continue
                q, rem = divmod(prow[c2], p)
                if 2 * abs(rem) > ap:
                    q += 1
                    rem -= p
                if q:
                    col_ops.append((c2, c, -q))
                if rem:  # a smaller remainder: restart on column c2
                    prow[c2] = rem
                    c = c2
                    break
                del prow[c2]
                colrows[c2].discard(r)
                if not colrows[c2]:  # release the emptied column
                    colrows[c2] = set()
            else:
                break
        # retire the pivot entry: row r and column c are empty now
        self.pivots.append((r, c, p))
        self.pivot_cols.add(c)
        rows[r], colrows[c] = {}, set()

    def pack(self):
        """Eliminate, then keep only what ``solve`` and ``solve_pivots``
        read: drop the emptied rows and the column and pivot-column sets;
        keep, in order, the column ops a replay from the pivot columns
        reaches (one reading a pivot or a later reached op's target); and
        beside the full row log, the pivot-row log, grouped into runs: in
        order, the row ops whose target a replay into the pivot rows still
        reads (a pivot row, or the source of a later kept op)."""
        self.eliminate()
        self.pivot_row_ops = _RowRuns.group(_chain_from_end(
            self.row_ops, {r for r, _c, _d in self.pivots}))
        self.rows = self.colrows = self.pivot_cols = None
        self.col_ops = _chain_from_end(
            self.col_ops, {c for _r, c, _d in self.pivots})
        return self

    # -- replay helpers ------------------------------------------------------

    @staticmethod
    def apply_row_ops(row_ops, b):
        """U b for the row transform U logged in the runs ``row_ops``.  No
        op of a run writes its source row j, so b_j is read once per run,
        and a run with b_j = 0, which would add q * 0 throughout, is
        skipped."""
        b = list(b)
        targets, qs = row_ops.targets, row_ops.qs
        start = 0
        for j, end in zip(row_ops.sources, row_ops.ends):
            v = b[j]
            if v:
                for i, q in zip(targets[start:end], qs[start:end]):
                    b[i] += q * v
            start = end
        return b

    def apply_col_ops(self, x):
        """V x (x in post-elimination coordinates, on the pivot columns once
        packed, as in ``solve``); an op whose source x_i is 0 is skipped."""
        x = list(x)
        for i, j, q in reversed(self.col_ops):
            v = x[i]
            if v:
                x[j] += q * v
        return x

    # -- solving ---------------------------------------------------------------

    def solve(self, b, den):
        """Solve A x = b/den in (Q/Z)^rows.

        Q/Z is injective, so with U A V = D the system is solvable iff
        (U b)_r = 0 (mod den) on every non-pivot row r.  Returns
        (solution, certificate), exactly one of them None:

        * solution (x, m): x integral with A x = b*m/den (mod m); each pivot
          (r, c, d) gives z_c = (U b)_r / (d den) and x = V z over the
          common denominator m = den * lcm|d|;
        * certificate y = e_r^T U, a sparse {row: coefficient} dict, for
          the first non-pivot row r with (U b)_r != 0 (mod den): y^T A = 0
          and y.b != 0 (mod den).
        """
        b = self._right_hand_side(b)
        bt = self.apply_row_ops(self.row_ops, b)
        for r in self.free_rows:
            if bt[r] % den:
                return None, self._row_of_u(r)
        return self._pivot_solution(bt, den), None

    def solve_pivots(self, b, den):
        """``solve``'s solution read off the pivot rows alone, without the
        non-pivot row test: (x, m) as ``solve`` returns it when b is
        solvable; otherwise an (x, m) that is no solution, which the caller
        must check.  Once packed, only the pivot-row log is replayed.
        """
        b = self._right_hand_side(b)
        return self._pivot_solution(
            self.apply_row_ops(self.pivot_row_ops, b), den)

    def _right_hand_side(self, b):
        """b, once the system is eliminated and b has a value per row."""
        self.eliminate()
        if len(b) != self.nrows:
            raise ValueError(
                f"right-hand side has {len(b)} entries for {self.nrows} rows")
        return b

    def _pivot_solution(self, bt, den):
        """x = V z over m = den * lcm|d|, z_c = (U b)_r / (d den) for each
        pivot (r, c, d), read off bt = U b on the pivot rows."""
        big = self.pivot_lcm
        m = den * big
        z = [0] * self.ncols
        for r, c, d in self.pivots:
            z[c] = bt[r] * (big // d)
        return [v % m for v in self.apply_col_ops(z)], m

    def _row_of_u(self, r):
        """Row r of U = E_k ... E_1, by one reverse replay of the row-op log
        (E = I + q e_i e_j^T sends y to y + y_i q e_j)."""
        y = {r: 1}
        for i, j, q in reversed(self.row_ops):
            if y.get(i):
                y[j] = y.get(j, 0) + q * y[i]
        return {k: v for k, v in y.items() if v}

    def kernel(self):
        """A Z-basis of the integer solutions of A x = 0: V e_f for every
        free column f.  A packed elimination has no column log to give it."""
        self.eliminate()
        if self.colrows is None:
            raise ValueError("a packed elimination keeps no kernel")
        basis = []
        for f in self.free_cols:
            e = [0] * self.ncols
            e[f] = 1
            basis.append(self.apply_col_ops(e))
        return basis


def _chain_from_end(ops, marked):
    """The ops (i, j, q) of ``ops``, in order, that a walk from the end
    keeps: one whose i is marked, which marks its j from then on.  On the
    row log (replayed forward, row_i += q row_j) these are the ops that the
    marked rows of a replay depend on; on the column log (replayed backward,
    x_j += q x_i), the ops that a replay from the marked columns reaches."""
    kept = []
    for op in reversed(ops):
        if op[0] in marked:
            marked.add(op[1])
            kept.append(op)
    return kept[::-1]


class _RowRuns:
    """A row-op log of (i, j, q) triples as runs: maximal stretches of
    consecutive ops that read the same source row j.  Per run it keeps j
    (``sources``) and the offset where the run ends (``ends``), per op the
    target i (``targets``) and q (``qs``).  The engine builds its log so,
    indices and offsets in machine-integer arrays and q in a list;
    ``group`` groups a plain log of triples into lists.  Within a pivot
    step every op reads the pivot row, so a run is a step's row clearing up
    to a restart.  It iterates, forward and reversed, as the list of
    triples it holds."""

    __slots__ = ("sources", "ends", "targets", "qs")

    def __init__(self, sources, ends, targets, qs):
        self.sources, self.ends, self.targets, self.qs = (
            sources, ends, targets, qs)

    @classmethod
    def group(cls, ops):
        """The runs of the log ``ops``, in lists (any integers).  An op
        must not read the row it writes, as no op the engine logs does."""
        ops = list(ops)
        targets = list(map(itemgetter(0), ops))
        js = list(map(itemgetter(1), ops))
        if any(map(eq, targets, js)):
            raise ValueError("a row op must not read the row it writes")
        # a run starts where j differs from the previous op's
        starts = list(compress(range(len(js)), map(ne, js, chain((None,), js))))
        ends = starts[1:] + [len(js)] if starts else []
        return cls(list(map(js.__getitem__, starts)), ends, targets,
                   list(map(itemgetter(2), ops)))

    def _per_op_sources(self, order):
        lengths = list(map(sub, self.ends, chain((0,), self.ends)))
        return chain.from_iterable(
            map(repeat, order(self.sources), order(lengths)))

    def __len__(self):
        return len(self.targets)

    def __iter__(self):
        return zip(self.targets, self._per_op_sources(iter), self.qs)

    def __reversed__(self):
        return zip(reversed(self.targets), self._per_op_sources(reversed),
                   reversed(self.qs))


_eliminations = _Memo(QZ_MEMO_SIZE)


def solve_qz_checked(key, build, b, den, finish):
    """finish((x, m)) for x with A x = b/den in (Q/Z)^rows, x/m; or None.

    ``build()`` returns (rows, ncols), the sparse integer rows of A, and
    ``key`` must determine them.  The elimination of A is memoized
    in-process per (engine class, key) for the QZ_MEMO_SIZE most recently
    used keys, keeping only its op logs and pivots, so a hit replays them
    on b.  ``finish`` is the caller's check of a solution: it returns the
    verified answer, or raises VerificationFailed.  It is first given the
    candidate read off the pivot rows (``solve_pivots``), which replays
    only the row ops that reach them; if that fails, the full ``solve``
    decides, and a solution goes through ``finish`` again.  A None is
    returned only after the certificate y of the full ``solve`` has been
    checked against the rows as built (built again whenever a certificate
    is checked): y^T A = 0 and y.b != 0 (mod den).  A failed check raises
    VerificationFailed.  The engine copies the rows, so a miss holds no
    built row while it eliminates.
    """
    # looked up per call: a replaced engine class gets entries of its own,
    # and a hit calls the solve_pivots and solve its class has now
    engine = SparseElimination
    elim = _eliminations.get((engine, key), lambda: engine(*build()).pack())
    try:
        return finish(elim.solve_pivots(b, den))
    except VerificationFailed:
        pass
    sol, y = elim.solve(b, den)
    if sol is not None:
        return finish(sol)
    rows, _ncols = build()
    acc = {}
    for r, v in y.items():
        for c, a in rows[r].items():
            acc[c] = acc.get(c, 0) + v * a
    if any(acc.values()):
        raise VerificationFailed("certificate must annihilate the rows")
    if sum(v * b[r] for r, v in y.items()) % den == 0:
        raise VerificationFailed("certificate must separate the right-hand side")
    return None


solve_qz_checked.cache_info = _eliminations.cache_info
solve_qz_checked.cache_clear = _eliminations.cache_clear
