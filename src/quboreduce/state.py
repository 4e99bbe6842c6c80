"""Mutable working state for a reduction run.

Holds a working copy of the instance plus the bookkeeping the rules read:
per-variable sums of negative/positive incident edge weights (``d_minus`` /
``d_plus``), the extreme incident edge value on each side (``min_val``,
``max_val``; 0 on a side without edges), per-variable status, and
``touched``, the event count of each row's last change, from which the engine
tells which rows need examining again.  All mutation goes through
``apply_fix`` and the two substitution operations, which keep every derived
quantity incrementally consistent with the working coefficients.

The constructor works on the edge arrays: a stable sort by row, then
``reduceat`` per row for sums and extremes, on int64 while exact and on
Python integers otherwise; only the rows' dicts are built in Python.  It
keeps the set-up edges and slack screen, true while an edge's rows are
untouched.
"""

from __future__ import annotations

from itertools import chain, islice

import numpy as np

from .model import QuboInstance, edge_arrays

# Variable status codes.
FREE = 0
FIXED_ZERO = 1
FIXED_ONE = 2
SAME_AS = 3        # x_var == x_ref
COMPLEMENT_OF = 4  # x_var == 1 - x_ref

# Row entries converted to Python values at a time.
_BLOCK = 1 << 13


class ReductionState:
    """Live-variable bookkeeping over a working copy of a QUBO instance."""

    __slots__ = (
        "n", "offset", "c", "adj", "d_minus", "d_plus",
        "min_val", "max_val",
        "status", "live_count", "events", "touched",
        "assignment_log", "identity_log", "setup_edges", "setup_screen",
    )

    def __init__(self, instance: QuboInstance):
        n = self.n = instance.n
        self.offset = instance.offset
        self.c = [0] * (n + 1)
        for i, v in instance.linear.items():
            self.c[i] = v
        lo, hi, d = edge_arrays(instance.quadratic)
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
        row, nbr, val = ends[perm], ends[perm ^ 1], d.astype(dtype, copy=False)[perm >> 1]
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
        # True while an edge's rows stay untouched: the set-up edges, and the
        # neighbours that pass the screen of rules.pair_may_fire, |d| >=
        # min(u, w) at either end, row v's at first[v]:first[v + 1].
        self.setup_edges = (lo, hi, d)
        c = np.array(self.c, dtype=dtype)
        slack = np.minimum(c + d_plus, -(c + d_minus))
        sel = (abs(val) >= np.minimum(slack[row], slack[nbr])).nonzero()[0]
        first = np.zeros(n + 2, dtype=np.int64)
        np.bincount(row[sel], minlength=n + 1).cumsum(out=first[1:])
        self.setup_screen = (first.tolist(), nbr[sel].tolist())
        del row
        # The rows' dicts, from entries converted a block at a time; the keys
        # share one int object per variable.
        ids = list(range(n + 1))
        pairs = chain.from_iterable(
            zip(map(ids.__getitem__, nbr[a:a + _BLOCK].tolist()), val[a:a + _BLOCK].tolist())
            for a in range(0, len(val), _BLOCK))
        self.adj: list[dict[int, int]] = [dict(islice(pairs, k)) for k in counts.tolist()]
        self.status = [FREE] * (n + 1)
        self.live_count = n
        self.events = 0
        # touched[v] is the event count of the last change to row v's data
        # (c_v, incident edges, hence sums and extremes); the engine skips
        # re-deriving conclusions whose input rows are unchanged.
        self.touched = [0] * (n + 1)
        self.assignment_log: list[tuple[int, int]] = []
        self.identity_log: list[tuple[int, int, int]] = []  # (dropped, kind, kept)

    # -- queries ---------------------------------------------------------

    def free_variables(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if self.status[i] == FREE]

    # -- maintenance -----------------------------------------------------

    def recompute_row_extremes(self, j: int) -> None:
        """Rescan row j for its extreme positive and negative edge values."""
        row = self.adj[j].values()
        self.max_val[j] = max(max(row, default=0), 0)
        self.min_val[j] = min(min(row, default=0), 0)

    def _clear_row(self, i: int) -> None:
        self.c[i] = 0
        self.d_minus[i] = self.d_plus[i] = 0
        self.max_val[i] = self.min_val[i] = 0

    def _require_free(self, i: int) -> None:
        if self.status[i] != FREE:
            raise RuntimeError(f"variable {i} is not free (engine bug)")

    # -- mutations -------------------------------------------------------

    def apply_fix(self, i: int, value: int) -> None:
        """Fix x_i = value and fold its row into the neighbours.

        For value 1 the constant gains c_i and every neighbour j gains d_ij
        on its linear coefficient; for both values the incident edges vanish
        and neighbour sums/extremes are repaired.
        """
        self._require_free(i)
        if value not in (0, 1):
            raise ValueError(f"fix value must be 0 or 1, got {value!r}")
        self.events += 1
        ev = self.events
        if value:
            self.offset += self.c[i]
        neighbors = list(self.adj[i].items())
        self.adj[i].clear()
        for j, d in neighbors:
            del self.adj[j][i]
            self.touched[j] = ev
            if value:
                self.c[j] += d
            if d < 0:
                self.d_minus[j] -= d
                if d == self.min_val[j]:
                    self.recompute_row_extremes(j)
            else:
                self.d_plus[j] -= d
                if d == self.max_val[j]:
                    self.recompute_row_extremes(j)
        self._clear_row(i)
        self.status[i] = FIXED_ONE if value else FIXED_ZERO
        self.assignment_log.append((i, value))
        self.live_count -= 1

    def _retire_pair_edge(self, i: int, h: int) -> int:
        """Remove the {i, h} edge, fixing row i's sums; returns the old value."""
        d_ih = self.adj[i].pop(h, 0)
        if d_ih:
            del self.adj[h][i]
            if d_ih < 0:
                self.d_minus[i] -= d_ih
            else:
                self.d_plus[i] -= d_ih
        return d_ih

    def _merge_row(self, i: int, h: int, sign: int) -> None:
        """Fold row h into row i with d_ij := d_ij + sign * d_hj.

        Maintains d_minus/d_plus of every touched row and repairs extremes;
        edges that land exactly on zero are dropped.  Row h is emptied.
        """
        adj_i = self.adj[i]
        hrow = list(self.adj[h].items())
        self.adj[h].clear()
        ev = self.events
        self.touched[i] = ev
        for j, dhj in hrow:
            del self.adj[j][h]
            self.touched[j] = ev
            # Edge {h, j} disappears from row j's sums.
            if dhj < 0:
                self.d_minus[j] -= dhj
            else:
                self.d_plus[j] -= dhj
            if sign < 0:
                # x_h = 1 - x_i turns d_hj x_h x_j into d_hj x_j - d_hj x_i x_j.
                self.c[j] += dhj
            old = adj_i.get(j, 0)
            new = old + sign * dhj
            if old < 0:
                self.d_minus[i] -= old
                self.d_minus[j] -= old
            elif old > 0:
                self.d_plus[i] -= old
                self.d_plus[j] -= old
            if new == 0:
                adj_i.pop(j, None)
                self.adj[j].pop(i, None)
            else:
                adj_i[j] = new
                self.adj[j][i] = new
                if new < 0:
                    self.d_minus[i] += new
                    self.d_minus[j] += new
                else:
                    self.d_plus[i] += new
                    self.d_plus[j] += new
            # A removed value at j's extreme calls for a rescan; a new one
            # past it is the extreme.
            ext = (self.max_val[j], self.min_val[j])
            if dhj in ext or (old and old in ext):
                self.recompute_row_extremes(j)
            elif new > self.max_val[j]:
                self.max_val[j] = new
            elif new < self.min_val[j]:
                self.min_val[j] = new
        self.recompute_row_extremes(i)

    def apply_substitution_complement(self, i: int, h: int) -> None:
        """Replace x_h by 1 - x_i, eliminating variable h."""
        self._require_free(i)
        self._require_free(h)
        if i == h:
            raise RuntimeError("cannot substitute a variable with itself")
        self.events += 1
        # d_ih x_i x_h collapses to zero under x_h = 1 - x_i.
        self._retire_pair_edge(i, h)
        self.offset += self.c[h]
        self.c[i] -= self.c[h]
        self._merge_row(i, h, -1)
        self._clear_row(h)
        self.status[h] = COMPLEMENT_OF
        self.identity_log.append((h, COMPLEMENT_OF, i))
        self.live_count -= 1

    def apply_substitution_equal(self, i: int, h: int) -> None:
        """Replace x_h by x_i, eliminating variable h."""
        self._require_free(i)
        self._require_free(h)
        if i == h:
            raise RuntimeError("cannot substitute a variable with itself")
        self.events += 1
        d_ih = self._retire_pair_edge(i, h)
        # c_i := c_h + c_i + d_ih: the pair edge becomes linear on x_i.
        self.c[i] += self.c[h] + d_ih
        self._merge_row(i, h, +1)
        self._clear_row(h)
        self.status[h] = SAME_AS
        self.identity_log.append((h, SAME_AS, i))
        self.live_count -= 1

def init_state(instance: QuboInstance) -> ReductionState:
    """Fresh state: every variable free, sums and extremes computed."""
    return ReductionState(instance)
