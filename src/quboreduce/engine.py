"""Multi-pass scan engine that drives the rule catalog to a fixed point.

A row is dirty when its data (c_v and its edges) changed since its last exam.
Each pass is one generation of dirty rows: every free row dirty at its start
is examined in ascending id order, first by the single-variable rules, then
paired for the pair-assignment rules with its clean neighbours, on the edges
whose |d| reaches the sum of the endpoints' smaller slacks (a row none of
whose edges exceeds its own smaller slack is not walked).  A pair with a
dirty endpoint is probed when that endpoint's turn comes, so when no row is
dirty no fix or pair rule fires anywhere.  Once a pass drops nothing, a
residual sweep applies the complement and equality substitutions:
per-variable flags and :func:`rules.pair_may_fire` screen the edges, and the
substitution rows of :data:`rules.PAIR_RULES` decide each one.  One sweep
applies every substitution it finds; if it found any, the passes resume, and
the whole loop repeats until truly nothing fires.

The reduced instance is a sorted edge table built from the set-up arrays
and the rows of touched survivors; :func:`verify_fixed_point` judges the same
live edges on arrays.

Every state change is logged as an event, a verdict whose conclusion is the
eliminations ``(h, a, b, i)`` it made; applying the logged conclusions in
order with :func:`apply_conclusion` to a fresh state rebuilds each
intermediate state of the run, so the engine keeps no snapshots.  The
inequality rules reduce nothing, and only :func:`mine_inequalities` judges
them, on the reduced instance.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from . import rules
from .model import EdgeTable, QuboInstance, int_array, relabel
from .state import FREE, ReductionState, init_state

@dataclass
class LoggedEvent:
    pass_number: int
    verdict: rules.RuleVerdict


@dataclass
class InequalityRecord:
    verdict: rules.RuleVerdict
    m_bound: int


@dataclass
class ReductionLog:
    """Ordered record of everything a run did."""

    events: list[LoggedEvent] = field(default_factory=list)
    pass_count: int = 0  # scan passes run

    @property
    def per_rule_counts(self) -> Counter:
        """Firings per rule id, in first-firing order."""
        return Counter(ev.verdict.rule_id for ev in self.events)

    @property
    def pass_drops(self) -> list[int]:
        """Variables eliminated per scan pass, each residual sweep's counted
        in the pass it follows."""
        drops = Counter()
        for ev in self.events:
            drops[ev.pass_number] += len(ev.verdict.conclusion)
        return [drops[p] for p in range(1, self.pass_count + 1)]


@dataclass
class PassSummary:
    pass_number: int
    drops: int
    examined: int


@dataclass
class SolutionMap:
    """Everything needed to lift a reduced solution back to the original.

    Each original variable is a survivor or the h of exactly one elimination
    ``(h, a, b, i)``, x_h = a + b * x_i, listed in the order applied.
    """

    eliminations: list[tuple[int, int, int, int]]
    survivors: list[int]


def reconstruct_solution(
    solution_map: SolutionMap, reduced_solution: dict[int, int]
) -> dict[int, int]:
    """Total original assignment from an assignment of the survivors.

    Eliminations are resolved newest first: x_i outlived x_h, so it already
    has a value when x_h is set (a fix, with b == 0, reads none).
    """
    if set(reduced_solution) != set(solution_map.survivors):
        raise ValueError("reduced solution must cover exactly the survivors")
    values = {v: int(reduced_solution[v]) for v in solution_map.survivors}
    for h, a, b, i in reversed(solution_map.eliminations):
        if b and i not in values:
            raise RuntimeError(f"identity for {h} references unresolved {i}")
        values[h] = a + b * values[i] if b else a
    return values


class ResidualScheduler:
    """Screen flags for the residual substitution sweep.

    Each flag says whether v's extreme edge value of one sign reaches one of
    v's slacks (see :func:`rules.slacks`); no other value of that sign can.
    a and b test w_v and u_v against the most negative value, c and d test
    u_v and w_v against the most positive one.  A substitution threshold in
    :data:`rules.PAIR_RULES` is the larger of two minima of endpoint slacks,
    so the complement rule can fire on (i, h) only if (a_i or a_h) and
    (b_i or b_h), and the equality rule only if (c_i or d_h) and (d_i or c_h).
    ab_list and cd_list hold the free variables with a flag of the family set.
    """

    def __init__(self, n: int):
        self.a_flag = [False] * (n + 1)
        self.b_flag = [False] * (n + 1)
        self.c_flag = [False] * (n + 1)
        self.d_flag = [False] * (n + 1)
        self.ab_list: list[int] = []
        self.cd_list: list[int] = []

    def record(self, state: ReductionState, v: int) -> None:
        # A row without edges of one sign has extreme 0 there, so its flags
        # of that family read as fix conditions; no edge ever consults them.
        u, w = rules.slacks(state, v)
        neg, pos = -state.min_val[v], state.max_val[v]
        self.a_flag[v] = neg >= w
        self.b_flag[v] = neg >= u
        self.c_flag[v] = pos >= u
        self.d_flag[v] = pos >= w

    def refresh(self, state: ReductionState) -> None:
        """Recompute every flag from the current state and rebuild the lists."""
        free = state.free_variables()
        for v in free:
            self.record(state, v)
        self.ab_list = [v for v in free if self.a_flag[v] or self.b_flag[v]]
        self.cd_list = [v for v in free if self.c_flag[v] or self.d_flag[v]]


def apply_conclusion(state: ReductionState, eliminations: rules.Conclusion) -> None:
    """Carry out a reducing verdict's eliminations ``(h, a, b, i)`` on the state, in order.

    The engine applies every event through here, so replaying a log's events
    on a fresh state rebuilds each intermediate state of the run.
    """
    # Each form goes through its named state operation rather than straight
    # to ``_eliminate``: perfbench's tracer times these three methods, and the
    # tests' uncompensated_complement fixture patches one of them.
    for h, a, b, i in eliminations:
        if b == 0:
            state.apply_fix(h, a)
        elif b == 1:
            state.apply_substitution_equal(i, h)
        else:
            state.apply_substitution_complement(i, h)


class _Reducer:
    def __init__(self, state: ReductionState, log: ReductionLog):
        self.s = state
        self.log = log
        self.sched = ResidualScheduler(state.n)
        # stamps[v] is touched[v] at v's last exam; row v is dirty, and due
        # for the next pass, while the two differ.
        self.stamps = [-1] * (state.n + 1)

    # -- bookkeeping -------------------------------------------------------

    def _apply(self, pass_no: int, verdict: rules.RuleVerdict) -> None:
        apply_conclusion(self.s, verdict.conclusion)
        self.log.events.append(LoggedEvent(pass_no, verdict))

    def _examine_fix(self, v: int) -> rules.RuleVerdict | None:
        # Zero before one so a dead-even variable lands on the zero side.
        return rules.rule_fix_zero(self.s, v) or rules.rule_fix_one(self.s, v)

    # -- pair handling -------------------------------------------------------

    def _try_pair(self, pass_no: int, i: int, h: int) -> rules.RuleVerdict | None:
        """Probe (i, h) with the pair-assignment rules of the edge's sign, in table order.

        Returns the applied verdict, which fixes both variables, or None.
        """
        s = self.s
        for rule in rules.PAIR_ASSIGNMENTS[s.adj[i][h] > 0]:
            v = rule.probe(s, i, h)
            if v is not None:
                self._apply(pass_no, v)
                return v
        return None

    # -- passes -------------------------------------------------------------

    def run_pass(self, pass_no: int) -> PassSummary:
        """Examine, in ascending id order, every free row changed since its last exam.

        A row whose single-variable rules do not fire probes its neighbours
        whose rows are clean, up to the first pair hit.  A neighbour still
        dirty probes the pair itself later, when both rows are current; a row
        an event changes after its exam goes to the next pass.

        Only pairs the pass's own rules could fire on are probed.  Row i and
        a clean neighbour h were examined unchanged, so their fix rules did
        not fire: s_i = min(u_i, w_i) and s_h are at least 1.  Every
        threshold in :data:`rules.PAIR_ASSIGNMENTS` is a sum of one slack of
        each endpoint, so a row fires on (i, h) only if |d| - s_i reaches
        u_h or w_h, and none fires anywhere on row i when no |d| exceeds s_i.
        """
        s = self.s
        adj, status, stamps, touched = s.adj, s.status, self.stamps, s.touched
        c, d_plus, d_minus, max_val, min_val = s.c, s.d_plus, s.d_minus, s.max_val, s.min_val
        live = s.live_count
        todo = [v for v in s.free_variables() if stamps[v] != touched[v]]
        examined = 0
        for i in todo:
            if status[i] != FREE:
                continue
            examined += 1
            stamps[i] = touched[i]
            v = self._examine_fix(i)
            if v is not None:
                self._apply(pass_no, v)
                continue
            si = min(c[i] + d_plus[i], -(c[i] + d_minus[i]))
            if max(max_val[i], -min_val[i]) <= si:
                continue
            # A hit fixes i and empties adj[i], so the loop must end there.
            for h, d in adj[i].items():
                r = (d if d > 0 else -d) - si
                if (stamps[h] == touched[h]
                        and (r >= c[h] + d_plus[h] or r >= -(c[h] + d_minus[h]))
                        and self._try_pair(pass_no, i, h) is not None):
                    break
        self.log.pass_count += 1
        return PassSummary(pass_no, live - s.live_count, examined)

    # -- residual sweep -------------------------------------------------------

    def run_residual(self, pass_no: int) -> int:
        """Apply every substitution the flag screen lets through; returns the count.

        Each listed variable i scans its neighbours h over edges of the
        rule's sign.  Every edge that passes the screen (see
        :class:`ResidualScheduler`) is tested on the live state by the
        ``probe`` of that sign's row in :data:`rules.SUBSTITUTION`.  A hit
        eliminates h and ends i's turn, because i's row was just rebuilt.
        The flags are computed once per sweep, so a hit can leave them
        stale.  A stale flag either lets through an edge that the rule then
        rejects, or hides one, which the next sweep finds.  A sweep that
        finds nothing ran on fresh flags throughout, so after it no
        substitution fires anywhere.  Edges that fail
        :func:`rules.pair_may_fire` are not tested.
        """
        s = self.s
        sched = self.sched
        sched.refresh(s)
        status, adj = s.status, s.adj
        a, b, c, d = sched.a_flag, sched.b_flag, sched.c_flag, sched.d_flag
        hits = 0
        # Complements first, then equalities; each screen is (p_i or q_h) and (r_i or t_h).
        for todo, pos, (p, q, r, t) in ((sched.ab_list, False, (a, a, b, b)),
                                        (sched.cd_list, True, (c, d, d, c))):
            rule = rules.SUBSTITUTION[pos]
            for i in todo:
                if status[i] != FREE:
                    continue
                for h, w in adj[i].items():
                    if ((w > 0) == pos and (p[i] or q[h]) and (r[i] or t[h])
                            and rules.pair_may_fire(s, i, h)):
                        verdict = rule.probe(s, i, h)
                        if verdict is not None:
                            self._apply(pass_no, verdict)
                            hits += 1
                            break
        return hits


# --- public entry points ---------------------------------------------------


def _live_edges(state: ReductionState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The state's live edges as arrays ``(lo, hi, d)``, lo < hi, in no set order.

    An edge between untouched rows is as at set-up, so it comes from the
    set-up arrays; every other edge comes from the row of a touched free
    variable (an eliminated variable's row is empty).
    """
    lo, hi, d = state.setup_edges
    untouched = np.array(state.touched) == 0
    keep = untouched[lo] & untouched[hi]
    rows = (~untouched).nonzero()[0]
    row_dicts = [state.adj[v] for v in rows.tolist()]
    counts = np.fromiter(map(len, row_dicts), np.int64, len(row_dicts))
    src = np.repeat(rows, counts)
    dst = np.fromiter(chain.from_iterable(row_dicts), np.int64, len(src))
    val = int_array(list(chain.from_iterable(map(dict.values, row_dicts))))
    # An edge with both rows touched comes from its smaller end.
    own = (src < dst) | untouched[dst]
    src, dst = src[own], dst[own]
    return (np.concatenate((lo[keep], np.minimum(src, dst))),
            np.concatenate((hi[keep], np.maximum(src, dst))),
            np.concatenate((d[keep], val[own])))


def _dense_reduced(state: ReductionState, survivors: list[int]) -> QuboInstance:
    """The reduced instance over the ascending ``survivors``, relabelled 1..k.

    Its edges are the state's :func:`_live_edges`, in a sorted edge table.
    """
    lo, hi, d = _live_edges(state)
    order = (lo * (state.n + 1) + hi).argsort(kind="stable")
    lo, hi, d = lo[order], hi[order], d[order]
    linear = {v: state.c[v] for v in survivors if state.c[v] != 0}
    reduced = QuboInstance(state.n, linear, EdgeTable(lo, hi, d), state.offset)
    return relabel(reduced, survivors, range(1, len(survivors) + 1), len(survivors))


def run_to_fixed_point(instance: QuboInstance) -> tuple[QuboInstance, ReductionLog, SolutionMap]:
    """Reduce an instance until no rule fires.

    Returns the reduced problem indexed densely over the survivors (position
    k corresponds to original variable ``solution_map.survivors[k-1]``), the
    event log, and the solution map for reconstruction.
    """
    state = init_state(instance)
    log = ReductionLog()
    reducer = _Reducer(state, log)
    pass_no = 0
    while True:
        pass_no += 1
        if not reducer.run_pass(pass_no).drops and not reducer.run_residual(pass_no):
            break
    survivors = state.free_variables()
    return _dense_reduced(state, survivors), log, SolutionMap(state.eliminations, survivors)


# Edges the fixed-point check judges at a time: it caps the temporaries.
_CHECK_BLOCK = 1 << 16


def _slack_arrays(state: ReductionState) -> tuple[np.ndarray, np.ndarray]:
    """Every variable's slacks u = c + D^+, w = -(c + D^-) (see :func:`rules.slacks`).

    No two slacks are added by their callers, so the arrays are int64 while
    max|c| + max(D^+, -D^-), a bound on every slack and every |d|, is below
    2^63, and exact Python integers beyond that.  The bound comes from the
    current values: a substitution can grow c after the state was built.
    """
    c, d_plus, d_minus = state.c, state.d_plus, state.d_minus
    big = max(map(abs, c)) + max(max(d_plus), -min(d_minus))
    dtype = np.int64 if big < 1 << 63 else object
    c = np.array(c, dtype=dtype)
    u = c + np.array(d_plus, dtype=dtype)
    c += np.array(d_minus, dtype=dtype)
    return u, np.negative(c, out=c)


def verify_fixed_point(state: ReductionState) -> bool:
    """Exhaustive check that no rule in the catalog fires anywhere.

    The state is judged on arrays.  A free variable fixes when one of its
    :func:`_slack_arrays` u, w is <= 0.  Otherwise each of the state's
    :func:`_live_edges` is judged by the substitution row of its sign in
    :data:`rules.PAIR_RULES`, on the endpoints' slacks.  No other reducing
    row can fire where that one does not: with positive slacks, a
    pair-assignment threshold is a sum of two slacks, each of which one
    minimum of the substitution threshold of the same sign takes, so it
    exceeds that threshold.  Edges are judged ``_CHECK_BLOCK`` at a time,
    and the check ends at the first block where a rule fires.
    """
    u, w = _slack_arrays(state)
    free = np.array(state.status) == FREE
    free[0] = False  # index 0 is no variable
    if (np.minimum(u, w)[free] <= 0).any():
        return False
    lo, hi, d = _live_edges(state)
    d = d.astype(u.dtype, copy=False)  # abs() of int64's -2^63 would wrap
    for k in range(0, len(d), _CHECK_BLOCK):
        block = slice(k, k + _CHECK_BLOCK)
        dk = d[block]
        for pos, sel in ((True, dk > 0), (False, dk < 0)):
            i, h = lo[block][sel], hi[block][sel]
            threshold = rules.SUBSTITUTION[pos].threshold(
                u[i], w[i], u[h], w[h], max=np.maximum, min=np.minimum)
            if (abs(dk[sel]) >= threshold).any():
                return False
    return True


def mine_inequalities(instance: QuboInstance) -> list[InequalityRecord]:
    """The pairwise inequalities the catalog mines on the instance's edges.

    Each edge is judged on arrays by the :data:`rules.MINING` rows of its
    sign, as :func:`rules.derive_pair_inequalities` judges one pair.  A row
    reads one endpoint's slack, so its verdict is recorded only where it is
    loosest: on an edge holding that endpoint's extreme value of the sign,
    the one to the smallest neighbour if several do.  Records follow the
    edge table, then the rows.  Raises ValueError if an endpoint fixes.
    """
    state = init_state(instance)
    u, w = _slack_arrays(state)
    lo, hi, d = state.setup_edges
    fixes = np.intersect1d(np.union1d(lo, hi), (np.minimum(u, w) <= 0).nonzero()[0])
    if len(fixes):
        raise ValueError(f"variable {fixes[0]} fixes: inequalities are mined at a fixed point")
    d = d.astype(u.dtype, copy=False)  # abs() of int64's -2^63 would wrap
    side = (d > 0).astype(np.int64)  # row 1 of ext and nearest for positive edges
    ext = np.array((state.min_val, state.max_val), dtype=u.dtype)
    ends = {"i": (lo, hi), "h": (hi, lo)}
    at = {end: d == ext[side, v] for end, (v, _) in ends.items()}
    nearest = np.full((2, state.n + 1), state.n + 1)
    for end, (v, other) in ends.items():
        np.minimum.at(nearest, (side[at[end]], v[at[end]]), other[at[end]])
    loosest = {end: at[end] & (nearest[side, v] == other) for end, (v, other) in ends.items()}
    size, slack = abs(d), (u[lo], w[lo], u[hi], w[hi])
    fired = np.array([(side == (rule.sign > 0)) & loosest[rule.endpoint]
                      & (size >= rule.threshold(*slack)) for rule in rules.MINING])
    edges, rows = fired.T.nonzero()
    verdicts = [rules.MINING[r].probe(state, a, b)
                for a, b, r in zip(lo[edges].tolist(), hi[edges].tolist(), rows.tolist())]
    return [InequalityRecord(v, rules.m_lower_bound(state, v)) for v in verdicts]
