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

# eliminated Q/Z systems that solve_qz_checked keeps in-process
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
        self.row_ops = []  # ("a", i, j, q): row_i += q * row_j
        self.col_ops = []  # ("a", i, j, q): col_i += q * col_j
        self.pivots = []  # (row, col, value)
        self.pivot_rows = set()
        self.pivot_cols = set()
        self._done = False

    def _row_add(self, i, j, q):
        """row_i += q * row_j."""
        self.row_ops.append((i, j, q))
        ri = self.rows[i]
        for c, v in self.rows[j].items():
            nv = ri.get(c, 0) + q * v
            if nv:
                if c not in ri:
                    self.colrows[c].add(i)
                ri[c] = nv
            elif c in ri:
                del ri[c]
                self.colrows[c].discard(i)

    def _col_add(self, i, j, q):
        """col_i += q * col_j."""
        self.col_ops.append((i, j, q))
        for r in list(self.colrows[j]):
            row = self.rows[r]
            nv = row.get(i, 0) + q * row[j]
            if nv:
                if i not in row:
                    self.colrows[i].add(r)
                row[i] = nv
            elif i in row:
                del row[i]
                self.colrows[i].discard(r)

    @staticmethod
    def _balanced_quot(v, p):
        """q minimizing |v - q*p|."""
        q, rem = divmod(v, p)
        if 2 * abs(rem) > abs(p):
            q += 1
        return q

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

        def push(key, n=1):
            if key in copies:
                copies[key] += n
            else:
                copies[key] = n
                heappush(heap, key)

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
                push((cur, c), n)
                continue
            # valid, or shrunk (a copy re-pushed at the smaller fill would
            # be the heap minimum and pivot next): one copy is spent
            if n > 1:
                push(key, n - 1)
            self._pivot_on_column(c)
            # new fill may have revived columns never pushed as nonempty
            for c2 in self.rows_touched:
                if c2 not in pivot_cols and colrows[c2]:
                    push((len(colrows[c2]), c2))
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
        self.rows_touched = set()
        r = min(
            self.colrows[c],
            key=lambda rr: (abs(self.rows[rr][c]) != 1, len(self.rows[rr])),
        )
        while True:
            # clear column c by row operations
            moved = False
            p = self.rows[r][c]
            for r2 in list(self.colrows[c]):
                if r2 == r:
                    continue
                q = self._balanced_quot(self.rows[r2][c], p)
                if q:
                    self._row_add(r2, r, -q)
                    self.rows_touched.update(self.rows[r2])
                if c in self.rows[r2]:
                    # remainder is strictly smaller: better pivot
                    r = r2
                    moved = True
                    break
            if moved:
                continue
            # clear row r by column operations (column c is now exclusive
            # to row r, so each column op touches only row r)
            p = self.rows[r][c]
            moved = False
            for c2 in list(self.rows[r]):
                if c2 == c:
                    continue
                q = self._balanced_quot(self.rows[r][c2], p)
                if q:
                    self._col_add(c2, c, -q)
                if c2 in self.rows[r]:
                    c = c2
                    moved = True
                    break
            if moved:
                continue
            break
        d = self.rows[r][c]
        self.pivots.append((r, c, d))
        self.pivot_rows.add(r)
        self.pivot_cols.add(c)
        # retire the pivot entry
        del self.rows[r][c]
        self.colrows[c].discard(r)

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
    hits and misses."""

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
