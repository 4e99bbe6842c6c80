"""Mutable working state for a reduction run.

Holds a working copy of the instance plus the bookkeeping the rules read:
per-variable sums of negative/positive incident edge weights (``d_minus`` /
``d_plus``), the extreme incident edge value on each side (``min_val``,
``max_val``; 0 on a side without edges), per-variable status, and
``touched``, the event count of each row's last change, from which the engine
tells which rows need examining again.

Every elimination a rule concludes removes one variable by one substitution
x_h := a + b*x_i, and one method applies it: a fix is (a, b) = (value, 0),
``x_h = x_i`` is (0, 1) and ``x_h = 1 - x_i`` is (1, -1).  ``apply_fix``
and the two substitution operations call it, and it keeps every derived
quantity incrementally consistent: a value removed at a row's extreme
rescans the row, and a new value past the extreme becomes it.  Each elimination is
recorded as ``(h, a, b, i)`` in ``eliminations``, the run's whole record:
``events`` and ``live_count`` are read from its length.

The constructor works on the edge arrays: a stable sort by row, then
``reduceat`` per row for sums and extremes, on int64 while exact and on
Python integers otherwise; only the rows' dicts are built in Python.  It
keeps the set-up edges, true while an edge's rows are untouched.
"""

from __future__ import annotations

from itertools import chain, islice

import numpy as np

from .model import _BLOCK, QuboInstance

# Variable status codes.
FREE = 0
ELIMINATED = 1


class ReductionState:
    """Live-variable bookkeeping over a working copy of a QUBO instance."""

    __slots__ = (
        "n", "offset", "c", "adj", "d_minus", "d_plus",
        "min_val", "max_val",
        "status", "touched",
        "eliminations", "setup_edges",
    )

    def __init__(self, instance: QuboInstance):
        n = self.n = instance.n
        self.offset = instance.offset
        self.c = [0] * (n + 1)
        for i, v in instance.linear.items():
            self.c[i] = v
        q = instance.quadratic
        lo, hi, d = q.lo, q.hi, q.d
        # Both ends of every edge, interleaved (entry p's other end is p ^ 1),
        # sorted stably by row, so each row keeps the order of the edges.
        ends = np.empty(2 * len(d), dtype=np.int64)
        ends[0::2], ends[1::2] = lo, hi
        counts = np.bincount(ends, minlength=n + 1)
        # int64 is exact while max|c| + max|d| * max degree, a bound on any
        # row's sums, is below 2^62; past that the code runs on Python ints.
        big = max(map(abs, self.c)) + (
            max(-int(d.min()), int(d.max())) * int(counts.max()) if len(d) else 0)
        dtype = np.int64 if big < 1 << 62 else object
        perm = ends.argsort(kind="stable")
        nbr, val = ends[perm ^ 1], d.astype(dtype, copy=False)[perm >> 1]
        del ends, perm
        # Per row with edges: the sums of its negative and positive values,
        # and its smallest (largest) value if negative (positive), else 0.
        full = counts.nonzero()[0]
        at = (counts.cumsum() - counts)[full]  # the rows' first entries
        neg, pos = np.minimum(val, 0), np.maximum(val, 0)
        stats = np.zeros((4, n + 1), dtype=dtype)
        d_minus, d_plus, min_val, max_val = stats
        d_minus[full], d_plus[full] = np.add.reduceat(neg, at), np.add.reduceat(pos, at)
        min_val[full], max_val[full] = np.minimum.reduceat(neg, at), np.maximum.reduceat(pos, at)
        del neg, pos
        self.d_minus, self.d_plus, self.min_val, self.max_val = stats.tolist()
        # The set-up edges, true while an edge's rows stay untouched.
        self.setup_edges = (lo, hi, d)
        # The rows' dicts, from entries converted a block at a time; the keys
        # share one int object per variable.
        ids = list(range(n + 1))
        pairs = chain.from_iterable(
            zip(map(ids.__getitem__, nbr[a:a + _BLOCK].tolist()), val[a:a + _BLOCK].tolist())
            for a in range(0, len(val), _BLOCK))
        self.adj: list[dict[int, int]] = [dict(islice(pairs, k)) for k in counts.tolist()]
        self.status = [FREE] * (n + 1)
        # touched[v] is the event count of the last change to row v's data
        # (c_v, incident edges, hence sums and extremes); the engine skips
        # re-deriving conclusions whose input rows are unchanged.
        self.touched = [0] * (n + 1)
        self.eliminations: list[tuple[int, int, int, int]] = []  # (h, a, b, i)

    # -- queries ---------------------------------------------------------

    @property
    def events(self) -> int:
        return len(self.eliminations)

    @property
    def live_count(self) -> int:
        return self.n - len(self.eliminations)

    def free_variables(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if self.status[i] == FREE]

    # -- maintenance -----------------------------------------------------

    def recompute_row_extremes(self, j: int) -> None:
        """Rescan row j for its extreme positive and negative edge values."""
        row = self.adj[j].values()
        self.max_val[j] = max(max(row, default=0), 0)
        self.min_val[j] = min(min(row, default=0), 0)

    def _require_free(self, i: int) -> None:
        if self.status[i] != FREE:
            raise RuntimeError(f"variable {i} is not free (engine bug)")

    # -- mutations -------------------------------------------------------

    def _eliminate(self, h: int, a: int, b: int, i: int) -> None:
        """Substitute x_h := a + b * x_i into the objective, retire h and record it.

        (a, b) is (value, 0) for a fix, (0, 1) for x_h = x_i and (1, -1)
        for x_h = 1 - x_i; x_i is read only when b is nonzero.  The constant
        gains a * c_h; row i gains b * c_h and, from the pair edge,
        (a + b) * d_ih; every other neighbour j gains a * d_hj on c_j and
        b * d_hj on d_ij, an edge landing on zero being dropped.
        """
        if b:
            self._require_free(i)
            if i == h:
                raise RuntimeError("cannot substitute a variable with itself")
        self._require_free(h)
        ev = len(self.eliminations) + 1
        adj, c, touched = self.adj, self.c, self.touched
        d_minus, d_plus, max_val, min_val = self.d_minus, self.d_plus, self.max_val, self.min_val
        self.offset += a * c[h]
        row_i = adj[i]
        if b:
            d_ih = row_i.pop(h, 0)
            if d_ih:
                del adj[h][i]
                if d_ih < 0:
                    d_minus[i] -= d_ih
                else:
                    d_plus[i] -= d_ih
            c[i] += b * c[h] + (a + b) * d_ih
            touched[i] = ev
        hrow = list(adj[h].items())
        adj[h].clear()
        for j, dhj in hrow:
            row_j = adj[j]
            del row_j[h]
            touched[j] = ev
            if a:
                c[j] += a * dhj
            # Row j's extremes go stale when a removed value held one; a new
            # value past one becomes it.  A fix only removes d_hj.
            if dhj < 0:
                d_minus[j] -= dhj
                stale = dhj == min_val[j]
            else:
                d_plus[j] -= dhj
                stale = dhj == max_val[j]
            if b:
                old = row_i.get(j, 0)
                new = old + b * dhj
                if old < 0:
                    d_minus[i] -= old
                    d_minus[j] -= old
                elif old > 0:
                    d_plus[i] -= old
                    d_plus[j] -= old
                if new == 0:
                    del row_i[j], row_j[i]
                else:
                    row_i[j] = row_j[i] = new
                    if new < 0:
                        d_minus[i] += new
                        d_minus[j] += new
                    else:
                        d_plus[i] += new
                        d_plus[j] += new
                if stale or (old and old in (max_val[j], min_val[j])):
                    stale = True
                elif new > max_val[j]:
                    max_val[j] = new
                elif new < min_val[j]:
                    min_val[j] = new
            if stale:
                self.recompute_row_extremes(j)
        if b:
            self.recompute_row_extremes(i)
        c[h] = d_minus[h] = d_plus[h] = max_val[h] = min_val[h] = 0
        self.status[h] = ELIMINATED
        self.eliminations.append((h, a, b, i))

    def apply_fix(self, i: int, value: int) -> None:
        """Fix x_i = value: x_i := value + 0 * x_i."""
        if value not in (0, 1):
            raise ValueError(f"fix value must be 0 or 1, got {value!r}")
        self._eliminate(i, value, 0, i)

    def apply_substitution_complement(self, i: int, h: int) -> None:
        """Replace x_h by 1 - x_i, eliminating variable h."""
        self._eliminate(h, 1, -1, i)

    def apply_substitution_equal(self, i: int, h: int) -> None:
        """Replace x_h by x_i, eliminating variable h."""
        self._eliminate(h, 0, 1, i)


def init_state(instance: QuboInstance) -> ReductionState:
    """Fresh state: every variable free, sums and extremes computed."""
    return ReductionState(instance)
