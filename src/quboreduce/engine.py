"""Multi-pass scan engine that drives the rule catalog to a fixed point.

Each pass walks the live-node list split into an i-group (not yet examined
this pass) and an h-group (already examined, eligible as partners).  A node
is first checked by the single-variable rules, then paired against its
h-group neighbours for the pair-assignment rules, on the edges that pass the
slack screen :func:`rules.pair_may_fire`.  Dropping a node records
where the next pass may stop early.  Once a pass drops nothing, a residual
sweep applies the substitution rules 2.5 and 2.6: per-variable flags screen
the edges, and the general predicates of :mod:`rules` decide each one.  One
sweep applies every substitution it finds; if it found any, the passes
resume, and the whole loop repeats until truly nothing fires.

Every state change is logged as an event; applying the logged conclusions in
order with :func:`apply_conclusion` to a fresh state rebuilds each
intermediate state of the run, so the engine keeps no snapshots.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from . import rules
from .model import QuboInstance
from .state import FREE, SAME_AS, ReductionState, init_state

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
    per_rule_counts: Counter = field(default_factory=Counter)
    pass_drops: list[int] = field(default_factory=list)

    @property
    def pass_count(self) -> int:
        """Scan passes run: each appends exactly one pass_drops entry."""
        return len(self.pass_drops)


@dataclass
class PassSummary:
    pass_number: int
    drops: int
    early_stop: bool
    examined: int


@dataclass
class SolutionMap:
    """Everything needed to lift a reduced solution back to the original.

    Each original variable appears in exactly one of assignments (fixed),
    identities (substituted away, in recording order), or survivors.
    """

    assignments: list[tuple[int, int]]
    identities: list[tuple[int, int, int]]  # (dropped, SAME_AS | COMPLEMENT_OF, kept)
    survivors: list[int]


def reconstruct_solution(
    solution_map: SolutionMap, reduced_solution: dict[int, int]
) -> dict[int, int]:
    """Total original assignment from an assignment of the survivors.

    Fixed values are absolute, so they are installed together with the
    survivor values; identities are then resolved newest-first, which
    guarantees every referent already has a value.
    """
    if set(reduced_solution) != set(solution_map.survivors):
        raise ValueError("reduced solution must cover exactly the survivors")
    values = {v: int(reduced_solution[v]) for v in solution_map.survivors}
    for var, val in solution_map.assignments:
        values[var] = val
    for dropped, kind, kept in reversed(solution_map.identities):
        if kept not in values:
            raise RuntimeError(f"identity for {dropped} references unresolved {kept}")
        values[dropped] = values[kept] if kind == SAME_AS else 1 - values[kept]
    return values


class ResidualScheduler:
    """Screen flags for the residual substitution sweep.

    Each flag is one endpoint condition of a substitution rule, evaluated at
    the variable's extreme edge of the rule's sign, where it is loosest; so a
    flag is necessary for its condition at any edge of that sign.  a and b
    are Rule 2.5's c_v - d + D_v^- >= 0 and c_v + d + D_v^+ <= 0 at the most
    negative edge d; c and d are Rule 2.6's c_v - d + D_v^+ <= 0 and
    c_v + d + D_v^- >= 0 at the most positive one.  Rule 2.5 can thus fire on
    (i, h) only if (a_i or a_h) and (b_i or b_h), and Rule 2.6 only if
    (c_i or d_h) and (d_i or c_h).  ab_list and cd_list hold the free
    variables with a flag of the family set.
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
        c, dm, dp = state.c, state.d_minus, state.d_plus
        mn, mx = state.min_val[v], state.max_val[v]
        self.a_flag[v] = c[v] - mn + dm[v] >= 0
        self.b_flag[v] = c[v] + mn + dp[v] <= 0
        self.c_flag[v] = c[v] - mx + dp[v] <= 0
        self.d_flag[v] = c[v] + mx + dm[v] >= 0

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


# Screening for inequality mining: each sub-rule's condition is loosest at
# the arg-extreme partner, so it is only evaluated there.
_MINE_AT_EXTREME = {
    rules.R2_1: ("min", "i"),
    rules.R1_2: ("min", "i"),
    rules.R2_1p: ("min", "h"),
    rules.R1_2p: ("min", "h"),
    rules.R1_1: ("max", "i"),
    rules.R2_2: ("max", "i"),
    rules.R1_1p: ("max", "h"),
    rules.R2_2p: ("max", "h"),
}


class _Reducer:
    def __init__(
        self, state: ReductionState, log: ReductionLog, emit_inequalities: bool = False
    ):
        self.s = state
        self.log = log
        self.emit_inequalities = emit_inequalities
        self.sched = ResidualScheduler(state.n)
        # stamps[v] is touched[v] at v's last no-fire single-variable exam;
        # the exam only needs repeating once the row changes again.
        self.stamps = [-1] * (state.n + 1)
        # Pair probes are skipped when both rows are unchanged since the
        # start of the previous pass: the pair was probed (or validly
        # skipped) there with identical data.
        self._barrier = -1
        # Both orientations of the edges the residual sweep's rules rejected
        # on the state as it was at event count _rejected_at.
        self._rejected: set[tuple[int, int]] = set()
        self._rejected_at = -1
        self.large = state.n + 1
        self._drops = 0

    # -- bookkeeping -------------------------------------------------------

    def _apply(self, pass_no: int, verdict: rules.RuleVerdict) -> None:
        apply_conclusion(self.s, verdict.conclusion)
        self.log.events.append(LoggedEvent(pass_no, verdict, self.s.live_count))
        self.log.per_rule_counts[verdict.rule_id] += 1

    def _note_drop(self, dropped: int = 1) -> None:
        cur = self.s.cursors
        cur.next_end_loc = cur.h_loc_end
        cur.end_loc = self.large
        self._drops += dropped

    def _drop_h(self, h: int) -> None:
        """Remove an h-group node: the group's front slides into its slot."""
        s = self.s
        cur = s.cursors
        p = s.pos[h]
        front = s.nlist[cur.h_loc1]
        s.nlist[p] = front
        s.pos[front] = p
        s.pos[h] = 0
        cur.h_loc1 += 1

    def _examine_fix(self, v: int) -> rules.RuleVerdict | None:
        # Zero before one so a dead-even variable lands on the zero side.
        return rules.rule_fix_zero(self.s, v) or rules.rule_fix_one(self.s, v)

    # -- pair handling -------------------------------------------------------

    def _mine(self, pass_no: int, i: int, h: int) -> None:
        s = self.s
        a, b = (i, h) if i < h else (h, i)
        for verdict in rules.derive_pair_inequalities(s, a, b):
            side, role = _MINE_AT_EXTREME[verdict.rule_id]
            v, w = (a, b) if role == "i" else (b, a)
            arg = s.min_arg[v] if side == "min" else s.max_arg[v]
            if arg != w:
                continue
            self.log.inequality_records.append(InequalityRecord(
                pass_no, verdict, rules.m_lower_bound(s, verdict), s.events
            ))

    def _try_pair(self, pass_no: int, i: int, h: int) -> rules.RuleVerdict | None:
        """Probe (i, h) with the pair-assignment rules of the edge's sign.

        Returns the applied verdict, which fixes both variables, or None.
        """
        s = self.s
        if s.adj[i][h] > 0:
            v = rules.rule_pair_zero(s, i, h) or rules.rule_pair_one(s, i, h)
        else:
            v = rules.rule_pair_one_zero(s, i, h) or rules.rule_pair_zero_one(s, i, h)
        if v is None:
            if self.emit_inequalities:
                self._mine(pass_no, i, h)
            return None
        self._apply(pass_no, v)
        self._drop_h(h)
        self._note_drop(2)
        return v

    # -- passes -------------------------------------------------------------

    def run_pass(self, pass_no: int) -> PassSummary:
        s = self.s
        cur = s.cursors
        nlist, pos, adj, status = s.nlist, s.pos, s.adj, s.status
        stamps, touched = self.stamps, s.touched
        barrier = self._barrier
        self._barrier = s.events
        self._drops = 0
        examined = 0
        early = False
        while cur.i_loc <= cur.i_loc_end:
            i = nlist[cur.i_loc]
            if status[i] != FREE:
                cur.i_loc += 1
                continue
            examined += 1
            turn_touched = touched[i]
            if stamps[i] != touched[i]:
                v = self._examine_fix(i)
                if v is not None:
                    self._apply(pass_no, v)
                    self._note_drop()
                    cur.i_loc += 1
                    continue
                stamps[i] = touched[i]
            alive = True
            adj_i = adj[i]
            if adj_i and cur.h_loc1 <= cur.h_loc_end:
                lo, hi = cur.h_loc1, cur.h_loc_end
                candidates = []
                if touched[i] > barrier:
                    for j in adj_i:
                        pj = pos[j]
                        if lo <= pj <= hi:
                            candidates.append((pj, j))
                else:
                    for j in adj_i:
                        pj = pos[j]
                        if lo <= pj <= hi and (
                            touched[j] > barrier or stamps[j] != touched[j]
                        ):
                            candidates.append((pj, j))
                candidates.sort()
                for _, h in candidates:
                    if status[h] != FREE or h not in adj_i:
                        continue
                    if stamps[h] != touched[h]:
                        vh = self._examine_fix(h)
                        if vh is not None:
                            self._apply(pass_no, vh)
                            self._drop_h(h)
                            self._note_drop()
                            # i's row changed with h's removal; re-check it.
                            vi = self._examine_fix(i)
                            if vi is not None:
                                self._apply(pass_no, vi)
                                self._note_drop()
                                alive = False
                                break
                            stamps[i] = touched[i]
                            continue
                        stamps[h] = touched[h]
                    if touched[i] <= barrier and touched[h] <= barrier:
                        continue
                    if not rules.pair_may_fire(s, i, h):
                        continue
                    if self._try_pair(pass_no, i, h) is not None:
                        alive = False
                        break
            if not alive:
                cur.i_loc += 1
                continue
            cur.h_loc_end += 1
            nlist[cur.h_loc_end] = i
            pos[i] = cur.h_loc_end
            if touched[i] != turn_touched:
                # A partner's fix changed i's row during its own turn; the
                # stop marker must cover its new slot so the next pass
                # re-examines it.
                cur.next_end_loc = cur.h_loc_end
            cur.i_loc += 1
            if cur.i_loc > cur.end_loc:
                # Nodes past end_loc have no new basis for dropping, so the
                # pass stops here; they still join the h-group so that a
                # residual substitution can resume passes over every survivor.
                early = True
                while cur.i_loc <= cur.i_loc_end:
                    node = nlist[cur.i_loc]
                    if status[node] == FREE:
                        cur.h_loc_end += 1
                        nlist[cur.h_loc_end] = node
                        pos[node] = cur.h_loc_end
                    cur.i_loc += 1
                break
        self.log.pass_drops.append(self._drops)
        return PassSummary(pass_no, self._drops, early, examined)

    def setup_next_pass(self) -> None:
        """The h-group of the finished pass becomes the next pass's i-group."""
        cur = self.s.cursors
        cur.i_loc = cur.h_loc1
        cur.i_loc_end = cur.h_loc_end
        cur.h_loc_end = cur.h_loc1 - 1
        cur.end_loc = cur.next_end_loc

    # -- residual sweep -------------------------------------------------------

    def _residual_hit(self, pass_no: int, verdict: rules.RuleVerdict) -> None:
        self._apply(pass_no, verdict)
        self._drop_h(verdict.conclusion.h)
        self._note_drop()
        if self.log.pass_drops:
            self.log.pass_drops[-1] += 1

    def run_residual(self, pass_no: int) -> int:
        """Apply every substitution the flag screen lets through; returns the count.

        Each listed variable i scans its neighbours h over edges of the
        rule's sign.  Every edge that passes the screen (see
        :class:`ResidualScheduler`) is tested with
        :func:`rules.rule_complement_pair` or :func:`rules.rule_equal_pair`
        on the live state.  A hit eliminates h and ends i's turn, because
        i's row was just rebuilt.  The flags are computed once per sweep, so
        a hit can leave them stale.  A stale flag either lets through an
        edge that the rule then rejects, or hides one, which the next sweep
        finds.  A sweep that finds nothing ran on fresh flags throughout, so
        after it no substitution fires anywhere.

        Edges that fail :func:`rules.pair_may_fire` are not tested.  Nor is
        an edge the rules rejected while the event count was what it is
        now: the state is then the same, and both rules are symmetric in
        (i, h).
        """
        s = self.s
        sched = self.sched
        sched.refresh(s)
        status, adj = s.status, s.adj
        a, b = sched.a_flag, sched.b_flag
        c, d = sched.c_flag, sched.d_flag
        rejected = self._rejected
        if self._rejected_at != s.events:
            rejected.clear()
        hits = 0
        for i in sched.ab_list:
            if status[i] != FREE:
                continue
            for h, w in adj[i].items():
                if (w < 0 and (a[i] or a[h]) and (b[i] or b[h])
                        and (i, h) not in rejected and rules.pair_may_fire(s, i, h)):
                    verdict = rules.rule_complement_pair(s, i, h)
                    if verdict is not None:
                        self._residual_hit(pass_no, verdict)
                        rejected.clear()
                        hits += 1
                        break
                    rejected.update(((i, h), (h, i)))
        for i in sched.cd_list:
            if status[i] != FREE:
                continue
            for h, w in adj[i].items():
                if (w > 0 and (c[i] or d[h]) and (d[i] or c[h])
                        and (i, h) not in rejected and rules.pair_may_fire(s, i, h)):
                    verdict = rules.rule_equal_pair(s, i, h)
                    if verdict is not None:
                        self._residual_hit(pass_no, verdict)
                        rejected.clear()
                        hits += 1
                        break
                    rejected.update(((i, h), (h, i)))
        self._rejected_at = s.events
        return hits


# --- public entry points ---------------------------------------------------


def run_first_pass(state: ReductionState, log: ReductionLog) -> PassSummary:
    """Run one scan pass over the current i-group of an existing state."""
    return _Reducer(state, log).run_pass(log.pass_count + 1)


def run_residual_pass(state: ReductionState, log: ReductionLog) -> int:
    """Run the residual substitution sweep; returns the substitution count."""
    return _Reducer(state, log).run_residual(max(log.pass_count, 1))


def _dense_reduced(state: ReductionState, survivors: list[int]) -> QuboInstance:
    index = {v: k + 1 for k, v in enumerate(survivors)}
    linear = {index[v]: state.c[v] for v in survivors if state.c[v] != 0}
    quadratic = {}
    for v in survivors:
        iv = index[v]
        for w, d in state.adj[v].items():
            if v < w:
                quadratic[(iv, index[w])] = d
    return QuboInstance(len(survivors), linear, quadratic, state.offset)


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
        # A pass that stops early has dropped nothing: any drop moves its
        # stop marker past every position.
        if not reducer.run_pass(pass_no).drops and not reducer.run_residual(pass_no):
            break
        reducer.setup_next_pass()
    survivors = state.free_variables()
    reduced = _dense_reduced(state, survivors)
    solution_map = SolutionMap(
        list(state.assignment_log), list(state.identity_log), survivors
    )
    return reduced, log, solution_map


def verify_fixed_point(state: ReductionState) -> bool:
    """Exhaustive check that no rule in the catalog fires anywhere."""
    return next(rules.catalog_firings(state), None) is None
