"""Exact linear algebra over Z and Q/Z.

:class:`SparseElimination` is sparse fraction-free diagonalization over Z
with operation logs, the engine behind every cohomology group and every
Q/Z search.  Row and column operations are recorded and replayed on
vectors, so no dense transform matrices are ever materialized.

"No solution" is a verdict (``None``), not an exception: the diagonal form
fully decouples the system, and Q/Z is injective, so the verdict is
definitive.  It comes with an integer certificate y, y^T A = 0 and
y.b not in den*Z, that :func:`solve_qz_checked` checks against the rows
before elimination.

A system's elimination is shared across right-hand sides, also across
calls: :func:`solve_qz_checked` memoizes it in-process under a key that
the caller says determines the rows (QZ_MEMO_SIZE most recently used
keys), keeping only the op logs and pivots, and replays it on each new b.
"""

from __future__ import annotations

import heapq
from array import array
from collections import OrderedDict, namedtuple
from math import lcm

from .errors import VerificationFailed

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
        self.row_ops = []  # (i, j, q): row_i += q * row_j
        self.col_ops = []  # (i, j, q): col_i += q * col_j
        self.pivots = []  # (row, col, value)
        self.pivot_rows = set()
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
        self._done = True
        return self

    def _pivot_on_column(self, c):
        rows, colrows = self.rows, self.colrows
        row_ops, col_ops = self.row_ops, self.col_ops
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
                    row_ops.append((r2, r, q))
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
                    touched.update(ri)
                if c in ri:  # a smaller remainder: restart on row r2
                    r = r2
                    break
            else:
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
                else:
                    break
        # retire the pivot entry
        self.pivots.append((r, c, p))
        self.pivot_rows.add(r)
        self.pivot_cols.add(c)
        del prow[c]
        colrows[c].discard(r)

    def pack(self):
        """Eliminate, then keep only what a replay reads: drop the emptied
        rows and column sets, and store the op logs as machine-integer
        arrays, about a fifth of the memory of tuples, where every entry
        fits in 64 bits."""
        self.eliminate()
        self.rows = self.colrows = None
        self.row_ops = _PackedOps.of(self.row_ops)
        self.col_ops = _PackedOps.of(self.col_ops)
        return self

    # -- replay helpers ------------------------------------------------------

    @staticmethod
    def apply_row_ops(row_ops, b):
        """U b for the row transform U logged in ``row_ops`` (a caller may
        keep the log without the elimination)."""
        b = list(b)
        for i, j, q in row_ops:
            b[i] += q * b[j]
        return b

    def apply_col_ops(self, x):
        """V x (x given in post-elimination coordinates)."""
        x = list(x)
        for i, j, q in reversed(self.col_ops):
            x[j] += q * x[i]
        return x

    def col_coords_rows(self, rows):
        """V^{-1} M for the sparse matrix M with the given rows, in place.

        Row ``j`` of M is the ``j``-th coordinate of every column of M, so
        one pass over the column-op log, ``rows[j] -= q * rows[i]`` for op
        ``(i, j, q)``, replays it on all columns at once.
        """
        for i, j, q in self.col_ops:
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
        return rows

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
        self.eliminate()
        bt = self.apply_row_ops(self.row_ops, b)
        for r in range(self.nrows):
            if r not in self.pivot_rows and bt[r] % den:
                return None, self._row_of_u(r)
        big = lcm(*(d for _r, _c, d in self.pivots))
        m = den * big
        z = [0] * self.ncols
        for r, c, d in self.pivots:
            z[c] = bt[r] * (big // d)
        return ([v % m for v in self.apply_col_ops(z)], m), None

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
        free column f."""
        self.eliminate()
        basis = []
        for f in self.free_cols:
            e = [0] * self.ncols
            e[f] = 1
            basis.append(self.apply_col_ops(e))
        return basis


class _PackedOps:
    """An op log of (i, j, q) triples as three arrays; it iterates, forward
    and reversed, as the list of triples it packs."""

    __slots__ = ("cols",)

    def __init__(self, cols):
        self.cols = cols

    @classmethod
    def of(cls, ops):
        """The packed log, or ``ops`` itself if an entry needs more than
        64 bits."""
        try:
            return cls([array("q", c) for c in zip(*ops)] or [array("q")] * 3)
        except OverflowError:
            return ops

    def __len__(self):
        return len(self.cols[0])

    def __iter__(self):
        return zip(*self.cols)

    def __reversed__(self):
        return zip(*map(reversed, self.cols))


class _Memo:
    """The ``maxsize`` most recently used key -> value pairs, with counts of
    hits and misses; the package's one bounded memo type.  Each memo's bound,
    named next to it, is the least power of two at least twice the most keys
    one pass of a benchmark workload asks of it."""

    def __init__(self, maxsize):
        self.maxsize = maxsize
        self.entries = OrderedDict()
        self.hits = self.misses = 0

    def get(self, key, make):
        value = self.entries.get(key)
        if value is not None:
            self.hits += 1
            self.entries.move_to_end(key)
            return value
        self.misses += 1
        value = self.entries[key] = make()
        if len(self.entries) > self.maxsize:
            self.entries.popitem(last=False)
        return value

    def cache_info(self):
        return _CacheInfo(self.hits, self.misses, self.maxsize,
                          len(self.entries))

    def cache_clear(self):
        self.entries.clear()
        self.hits = self.misses = 0


_CacheInfo = namedtuple("_CacheInfo", "hits misses maxsize currsize")
_eliminations = _Memo(QZ_MEMO_SIZE)


def solve_qz_checked(key, build, b, den):
    """x with A x = b/den in (Q/Z)^rows, as (x, m) meaning x/m, or None.

    ``build()`` returns (rows, ncols), the sparse integer rows of A, and
    ``key`` must determine them.  The elimination of A is memoized
    in-process per (engine class, key) for the QZ_MEMO_SIZE most recently
    used keys, keeping only its op logs and pivots, so a hit replays them
    on b.  A None is returned only after the certificate y has
    been checked against the rows as built (built again on a hit):
    y^T A = 0 and y.b != 0 (mod den).  A failed check raises
    VerificationFailed.
    """
    # looked up per call: a replaced engine class gets entries of its own,
    # and a hit calls the solve its class has now
    engine = SparseElimination
    rows = None

    def eliminate():
        nonlocal rows
        rows, ncols = build()
        return engine(rows, ncols).pack()

    sol, y = _eliminations.get((engine, key), eliminate).solve(b, den)
    if sol is not None:
        return sol
    if rows is None:
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
