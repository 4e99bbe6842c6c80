"""Multi-pass scan engine that drives the rule catalog to a fixed point.

A row is dirty when its data (c_v and its edges) changed since its last exam.
Each pass is one generation of dirty rows: every free row dirty at its start
is examined in ascending id order, first by the single-variable rules, then
paired for the pair-assignment rules with its clean neighbours, on the edges
that pass the slack screen :func:`rules.pair_may_fire`.  A pair with a dirty
endpoint is probed when that endpoint's turn comes, so when no row is dirty
no fix or pair rule fires anywhere.  Once a pass drops nothing, a residual
sweep applies the complement and equality substitutions: per-variable flags
screen the edges, and the substitution rows of :data:`rules.PAIR_RULES`
decide each one.  One sweep applies every substitution it finds; if it
found any, the passes resume, and the whole loop repeats until truly
nothing fires.

The first pass walks a row's neighbours from the set-up screen while the
row and its clean neighbours are untouched: the same probes, fewer tests.
The reduced instance is a sorted edge table built from the set-up arrays
and the rows of touched survivors; :func:`verify_fixed_point` judges the same
live edges on arrays.

Every state change is logged as an event; applying the logged conclusions in
order with :func:`apply_conclusion` to a fresh state rebuilds each
intermediate state of the run, so the engine keeps no snapshots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import rules
from .model import EdgeTable, QuboInstance, int_array
from .state import FREE, ReductionState, init_state

@dataclass
class LoggedEvent:
    pass_number: int
    verdict: rules.RuleVerdict
    live_after: int


@dataclass
class InequalityRecord:
    pass_number: int
    verdict: rules.RuleVerdict
    m_bound: int
    # The state's event count when mined: replaying the logged events on a
    # fresh state reaches that count exactly where the record was made.
    snapshot_id: int


@dataclass
class ReductionLog:
    """Ordered record of everything a run did."""

    events: list[LoggedEvent] = field(default_factory=list)
    inequality_records: list[InequalityRecord] = field(default_factory=list)
    pass_drops: list[int] = field(default_factory=list)

    @property
    def per_rule_counts(self) -> Counter:
        """Firings per rule id, in first-firing order."""
        return Counter(ev.verdict.rule_id for ev in self.events)

    @property
    def pass_count(self) -> int:
        """Scan passes run: each appends exactly one pass_drops entry."""
        return len(self.pass_drops)


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


def apply_conclusion(state: ReductionState, concl: rules.Conclusion) -> None:
    """Carry out one reduction conclusion on the state.

    The engine applies every event through here, so replaying a log's events
    on a fresh state rebuilds each intermediate state of the run.
    """
    if isinstance(concl, rules.Fix):
        state.apply_fix(concl.var, concl.value)
    elif isinstance(concl, rules.PairFix):
        state.apply_fix(concl.i, concl.vi)
        state.apply_fix(concl.h, concl.vh)
    elif isinstance(concl, rules.SubstituteComplement):
        state.apply_substitution_complement(concl.i, concl.h)
    elif isinstance(concl, rules.SubstituteEqual):
        state.apply_substitution_equal(concl.i, concl.h)
    else:
        raise RuntimeError(f"cannot apply conclusion {concl!r}")


class _Reducer:
    def __init__(self, state: ReductionState, log: ReductionLog, emit_inequalities: bool = False):
        self.s = state
        self.log = log
        self.emit_inequalities = emit_inequalities
        self.sched = ResidualScheduler(state.n)
        # stamps[v] is touched[v] at v's last exam; row v is dirty, and due
        # for the next pass, while the two differ.
        self.stamps = [-1] * (state.n + 1)
        # The set-up screen serves the first pass only.
        self.screen: tuple[list[int], list[int]] | None = state.setup_screen

    # -- bookkeeping -------------------------------------------------------

    def _apply(self, pass_no: int, verdict: rules.RuleVerdict) -> None:
        apply_conclusion(self.s, verdict.conclusion)
        self.log.events.append(LoggedEvent(pass_no, verdict, self.s.live_count))

    def _examine_fix(self, v: int) -> rules.RuleVerdict | None:
        # Zero before one so a dead-even variable lands on the zero side.
        return rules.rule_fix_zero(self.s, v) or rules.rule_fix_one(self.s, v)

    # -- pair handling -------------------------------------------------------

    def _mine(self, pass_no: int, i: int, h: int) -> None:
        s = self.s
        a, b = (i, h) if i < h else (h, i)
        d = s.adj[a][b]
        extreme = s.max_val if d > 0 else s.min_val
        for verdict in rules.derive_pair_inequalities(s, a, b):
            # A verdict is recorded only where its condition is loosest: at
            # its endpoint's extreme edge of the edge's sign, and among edges
            # tied there, at the one to the smallest neighbour.
            endpoint = rules.PAIR_RULES_BY_ID[verdict.rule_id].endpoint
            v, w = (a, b) if endpoint == "i" else (b, a)
            if d != extreme[v] or min(k for k, x in s.adj[v].items() if x == d) != w:
                continue
            self.log.inequality_records.append(InequalityRecord(
                pass_no, verdict, rules.m_lower_bound(s, verdict), s.events
            ))

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
        if self.emit_inequalities:
            self._mine(pass_no, i, h)
        return None

    # -- passes -------------------------------------------------------------

    def run_pass(self, pass_no: int) -> PassSummary:
        """Examine, in ascending id order, every free row changed since its last exam.

        A row whose single-variable rules do not fire probes its neighbours
        whose rows are clean, through the screen, up to the first pair hit.
        A neighbour still dirty probes the pair itself later, when both rows
        are current; a row an event changes after its exam goes to the next
        pass.

        In the first pass, a row as at set-up walks its set-up screen, unless
        a neighbour was examined after a change; else every clean neighbour
        is untouched, and the screen says what :func:`rules.pair_may_fire` would.
        """
        s = self.s
        adj, status, stamps, touched = s.adj, s.status, self.stamps, s.touched
        screen, self.screen = self.screen, None
        spoiled: set[int] = set()  # rows with a changed neighbour examined
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
            if screen and not touched[i] and i not in spoiled:
                starts, screened = screen
                partners, test = screened[starts[i]:starts[i + 1]], None
            else:
                partners, test = adj[i], rules.pair_may_fire
                if screen and touched[i]:
                    spoiled.update(adj[i])
            # A hit fixes i and empties adj[i], so the loop must end there.
            for h in partners:
                if (stamps[h] == touched[h] and (test is None or test(s, i, h))
                        and self._try_pair(pass_no, i, h) is not None):
                    break
        drops = live - s.live_count
        self.log.pass_drops.append(drops)
        return PassSummary(pass_no, drops, examined)

    # -- residual sweep -------------------------------------------------------

    def _residual_hit(self, pass_no: int, verdict: rules.RuleVerdict) -> None:
        self._apply(pass_no, verdict)
        if self.log.pass_drops:
            self.log.pass_drops[-1] += 1

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
                            self._residual_hit(pass_no, verdict)
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
    touched, untouched = state.touched, np.array(state.touched) == 0
    keep = untouched[lo] & untouched[hi]
    # An edge with both rows touched comes from its smaller end.
    extra = [(v, w, x) if v < w else (w, v, x) for v in (~untouched).nonzero()[0].tolist()
             for w, x in state.adj[v].items() if v < w or not touched[w]]
    ea, eb, ed = zip(*extra) if extra else ((), (), ())
    return (np.concatenate((lo[keep], np.array(ea, dtype=np.int64))),
            np.concatenate((hi[keep], np.array(eb, dtype=np.int64))),
            np.concatenate((d[keep], int_array(list(ed)))))


def _dense_reduced(state: ReductionState, survivors: list[int]) -> QuboInstance:
    """The reduced instance over the ascending ``survivors``, renumbered 1..k.

    Its edges are the state's :func:`_live_edges`, in a sorted edge table.
    """
    lo, hi, d = _live_edges(state)
    index = np.zeros(state.n + 1, dtype=np.int64)
    index[survivors] = np.arange(1, len(survivors) + 1)
    a, b = index[lo], index[hi]
    order = (a * (len(survivors) + 1) + b).argsort(kind="stable")
    edges = EdgeTable(a[order], b[order], d[order])
    linear = {k: state.c[v] for k, v in enumerate(survivors, start=1) if state.c[v] != 0}
    return QuboInstance(len(survivors), linear, edges, state.offset)


def run_to_fixed_point(
    instance: QuboInstance, emit_inequalities: bool = False
) -> tuple[QuboInstance, ReductionLog, SolutionMap]:
    """Reduce an instance until no rule fires.

    Returns the reduced problem indexed densely over the survivors (position
    k corresponds to original variable ``solution_map.survivors[k-1]``), the
    event log, and the solution map for reconstruction.  With
    emit_inequalities, the pairwise inequalities of every pair the scan
    passes probe without a pair assignment are mined into
    ``log.inequality_records``.
    """
    state = init_state(instance)
    log = ReductionLog()
    reducer = _Reducer(state, log, emit_inequalities)
    pass_no = 0
    while True:
        pass_no += 1
        if not reducer.run_pass(pass_no).drops and not reducer.run_residual(pass_no):
            break
    survivors = state.free_variables()
    return _dense_reduced(state, survivors), log, SolutionMap(state.eliminations, survivors)


# Edges the fixed-point check judges at a time: it caps the temporaries.
_CHECK_BLOCK = 1 << 16


def verify_fixed_point(state: ReductionState) -> bool:
    """Exhaustive check that no rule in the catalog fires anywhere.

    The state is judged on arrays.  A free variable fixes when one of its
    slacks u = c + D^+, w = -(c + D^-) (see :func:`rules.slacks`) is <= 0.
    Otherwise each of the state's :func:`_live_edges` is judged by the
    substitution row of its sign in :data:`rules.PAIR_RULES`, on the
    endpoints' slacks.  No other reducing row can fire where that one does
    not: with positive slacks, a pair-assignment threshold is a sum of two
    slacks, each of which one minimum of the substitution threshold of the
    same sign takes, so it exceeds that threshold.

    No two slacks are added, so the check runs on int64 while max|c| +
    max(D^+, -D^-), a bound on every slack and every |d|, is below 2^63,
    and on exact Python integers beyond that.  The bound comes from the
    current values: a substitution can grow c after the state was built.
    Edges are judged ``_CHECK_BLOCK`` at a time, and the check ends at the
    first block where a rule fires.
    """
    c, d_plus, d_minus = state.c, state.d_plus, state.d_minus
    big = max(map(abs, c)) + max(max(d_plus), -min(d_minus))
    dtype = np.int64 if big < 1 << 63 else object
    c = np.array(c, dtype=dtype)
    u, w = c + np.array(d_plus, dtype=dtype), -(c + np.array(d_minus, dtype=dtype))
    free = np.array(state.status) == FREE
    free[0] = False  # index 0 is no variable
    if (np.minimum(u, w)[free] <= 0).any():
        return False
    lo, hi, d = _live_edges(state)
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
