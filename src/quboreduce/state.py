"""Mutable working state for a reduction run.

Holds a working copy of the instance plus the bookkeeping the rules read:
per-variable sums of negative/positive incident edge weights (``d_minus`` /
``d_plus``), the extreme incident edge on each side with its neighbour index
(``min_val``/``min_arg``, ``max_val``/``max_arg``), the live-node scan list
with its cursors, and per-variable status.  All mutation goes through
``apply_fix`` and the two substitution operations, which keep every derived
quantity incrementally consistent with the working coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import QuboInstance

# Variable status codes.
FREE = 0
FIXED_ZERO = 1
FIXED_ONE = 2
SAME_AS = 3        # x_var == x_ref
COMPLEMENT_OF = 4  # x_var == 1 - x_ref


@dataclass
class ScanCursor:
    """Positions into the node list.

    ``h_loc1 > h_loc_end`` denotes an empty h-group.  ``end_loc`` is the
    position after which a pass may stop early; ``next_end_loc`` records,
    at each drop, how far the following pass must re-examine.
    """

    i_loc: int
    i_loc_end: int
    h_loc1: int
    h_loc_end: int
    end_loc: int
    next_end_loc: int


class ReductionState:
    """Live-variable bookkeeping over a working copy of a QUBO instance."""

    __slots__ = (
        "n", "offset", "c", "adj", "d_minus", "d_plus",
        "min_val", "min_arg", "max_val", "max_arg",
        "status", "live_count", "events", "touched",
        "assignment_log", "identity_log", "nlist", "pos", "cursors",
    )

    def __init__(self, instance: QuboInstance):
        n = instance.n
        self.n = n
        self.offset = instance.offset
        self.c = [0] * (n + 1)
        for i, v in instance.linear.items():
            self.c[i] = v
        self.adj: list[dict[int, int]] = [dict() for _ in range(n + 1)]
        for (i, j), d in instance.quadratic.items():
            self.adj[i][j] = d
            self.adj[j][i] = d
        self.d_minus = [0] * (n + 1)
        self.d_plus = [0] * (n + 1)
        self.min_val = [0] * (n + 1)
        self.min_arg = [0] * (n + 1)
        self.max_val = [0] * (n + 1)
        self.max_arg = [0] * (n + 1)
        for i in range(1, n + 1):
            neg = pos = 0
            for j, d in self.adj[i].items():
                if d < 0:
                    neg += d
                else:
                    pos += d
            self.d_minus[i] = neg
            self.d_plus[i] = pos
            self.recompute_row_extremes(i)
        self.status = [FREE] * (n + 1)
        self.live_count = n
        self.events = 0
        # touched[v] is the event count of the last change to row v's data
        # (c_v, incident edges, hence sums and extremes); the engine skips
        # re-deriving conclusions whose input rows are unchanged.
        self.touched = [0] * (n + 1)
        self.assignment_log: list[tuple[int, int]] = []
        self.identity_log: list[tuple[int, int, int]] = []  # (dropped, kind, kept)
        self.nlist = list(range(n + 1))  # nlist[pos] = node; position 0 unused
        self.pos = list(range(n + 1))    # pos[node] = position
        # Empty h-group, full i-group; end_loc beyond any position so the
        # first pass examines everything.
        self.cursors = ScanCursor(
            i_loc=1, i_loc_end=n, h_loc1=1, h_loc_end=0,
            end_loc=n + 1, next_end_loc=0,
        )

    # -- queries ---------------------------------------------------------

    def free_variables(self) -> list[int]:
        return [i for i in range(1, self.n + 1) if self.status[i] == FREE]

    def snapshot(self) -> QuboInstance:
        """Current working problem as an instance over the original index set."""
        linear = {i: v for i, v in enumerate(self.c) if v != 0}
        quadratic = {}
        for i in range(1, self.n + 1):
            for j, d in self.adj[i].items():
                if i < j:
                    quadratic[(i, j)] = d
        return QuboInstance(self.n, linear, quadratic, self.offset)

    # -- maintenance -----------------------------------------------------

    def recompute_row_extremes(self, j: int) -> None:
        """Rescan row j for its extreme positive and negative edge values."""
        mx = mxa = mn = mna = 0
        for k, d in self.adj[j].items():
            if d > 0:
                if mxa == 0 or d > mx or (d == mx and k < mxa):
                    mx, mxa = d, k
            elif mna == 0 or d < mn or (d == mn and k < mna):
                mn, mna = d, k
        self.max_val[j], self.max_arg[j] = mx, mxa
        self.min_val[j], self.min_arg[j] = mn, mna

    def _clear_row(self, i: int) -> None:
        self.c[i] = 0
        self.d_minus[i] = self.d_plus[i] = 0
        self.max_val[i] = self.max_arg[i] = 0
        self.min_val[i] = self.min_arg[i] = 0

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
                if self.min_arg[j] == i:
                    self.recompute_row_extremes(j)
            else:
                self.d_plus[j] -= d
                if self.max_arg[j] == i:
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
            if (self.max_arg[j] == h or self.max_arg[j] == i
                    or self.min_arg[j] == h or self.min_arg[j] == i):
                self.recompute_row_extremes(j)
            elif new > 0:
                if (self.max_arg[j] == 0 or new > self.max_val[j]
                        or (new == self.max_val[j] and i < self.max_arg[j])):
                    self.max_val[j], self.max_arg[j] = new, i
            elif new < 0:
                if (self.min_arg[j] == 0 or new < self.min_val[j]
                        or (new == self.min_val[j] and i < self.min_arg[j])):
                    self.min_val[j], self.min_arg[j] = new, i
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

    # -- verification helper ----------------------------------------------

    def check_consistency(self) -> None:
        """Assert all derived quantities match a from-scratch recomputation."""
        for i in range(1, self.n + 1):
            if self.status[i] != FREE:
                assert not self.adj[i], f"dead variable {i} retains edges"
                assert self.c[i] == 0 and self.d_minus[i] == 0 and self.d_plus[i] == 0
                continue
            neg = pos = 0
            mx = mxa = mn = mna = 0
            for j, d in self.adj[i].items():
                assert d != 0, f"zero edge stored at ({i}, {j})"
                assert self.status[j] == FREE, f"edge ({i}, {j}) to dead variable"
                assert self.adj[j].get(i) == d, f"asymmetric edge ({i}, {j})"
                if d < 0:
                    neg += d
                    if mna == 0 or d < mn or (d == mn and j < mna):
                        mn, mna = d, j
                else:
                    pos += d
                    if mxa == 0 or d > mx or (d == mx and j < mxa):
                        mx, mxa = d, j
            assert self.d_minus[i] == neg, f"d_minus[{i}]={self.d_minus[i]} != {neg}"
            assert self.d_plus[i] == pos, f"d_plus[{i}]={self.d_plus[i]} != {pos}"
            assert (self.max_val[i], self.max_arg[i]) == (mx, mxa), \
                f"max extreme of row {i} stale"
            assert (self.min_val[i], self.min_arg[i]) == (mn, mna), \
                f"min extreme of row {i} stale"


def init_state(instance: QuboInstance) -> ReductionState:
    """Fresh state: full i-group, empty h-group, sums and extremes computed."""
    return ReductionState(instance)
