"""Multi-pass scan engine that drives the rule catalog to a fixed point.

Each pass walks the live-node list split into an i-group (not yet examined
this pass) and an h-group (already examined, eligible as partners).  A node
is first checked by the single-variable rules, then paired against its
h-group neighbours for the pair-assignment rules and the strongly-holding
form of the substitution rules.  Dropping a node records where the next pass
may stop early; once a pass drops nothing, a residual sweep covers the
substitution combinations the strongly-holding screen cannot see.  One sweep
applies every substitution it finds; if it found any, the passes resume, and
the whole loop repeats until truly nothing fires.

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
class EngineOptions:
    """Knobs for a reduction run.

    max_passes caps the scan passes; enable_residual turns the
    post-termination substitution sweep on; emit_inequalities mines pairwise
    inequalities that do not complete a substitution.
    """

    max_passes: int | None = None
    enable_residual: bool = True
    emit_inequalities: bool = False

    def __post_init__(self):
        if self.max_passes is not None and self.max_passes < 1:
            raise ValueError("max_passes must be at least 1")


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
    pass_count: int = 0


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
    """Strongly-holds flags feeding the residual substitution sweep.

    a/b flags mark variables whose complement-pair conditions hold at their
    most negative incident edge; c/d flags are the analogues for the
    equality-pair conditions at the most positive edge.  ab_list and cd_list
    hold the free variables with at least one flag of their family set; the
    sweep pairs an a-flagged variable with a b-flagged neighbour, c with c,
    and d with d.
    """

    def __init__(self, n: int):
        self.n = n
        self.a_flag = [False] * (n + 1)
        self.b_flag = [False] * (n + 1)
        self.c_flag = [False] * (n + 1)
        self.d_flag = [False] * (n + 1)
        self.ab_list: list[int] = []
        self.cd_list: list[int] = []

    def record(self, state: ReductionState, v: int) -> None:
        c, dm, dp = state.c, state.d_minus, state.d_plus
        if state.min_arg[v]:
            mn = state.min_val[v]
            self.a_flag[v] = c[v] - mn + dm[v] >= 0
            self.b_flag[v] = c[v] + mn + dp[v] <= 0
        else:
            self.a_flag[v] = self.b_flag[v] = False
        if state.max_arg[v]:
            mx = state.max_val[v]
            self.c_flag[v] = c[v] - mx + dp[v] <= 0
            self.d_flag[v] = c[v] + mx + dm[v] >= 0
        else:
            self.c_flag[v] = self.d_flag[v] = False

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
        self,
        state: ReductionState,
        log: ReductionLog,
        options: EngineOptions,
        scheduler: ResidualScheduler | None = None,
    ):
        self.s = state
        self.log = log
        self.opt = options
        self.sched = scheduler or ResidualScheduler(state.n)
        # stamps[v] is touched[v] at v's last no-fire single-variable exam;
        # the exam only needs repeating once the row changes again.
        self.stamps = [-1] * (state.n + 1)
        # Pair probes are skipped when both rows are unchanged since the
        # start of the previous pass: the pair was probed (or validly
        # skipped) there with identical data.
        self._barrier = -1
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

    def _reduced_complement(self, i: int, h: int) -> rules.RuleVerdict | None:
        s = self.s
        d = s.adj[i].get(h, 0)
        if d >= 0:
            return None
        c, dm, dp = s.c, s.d_minus, s.d_plus
        for v in (i, h):
            if (v == i and s.min_arg[i] != h) or (v == h and s.min_arg[h] != i):
                continue
            a = c[v] - d + dm[v]
            b = c[v] + d + dp[v]
            if a >= 0 and b <= 0:
                return rules.RuleVerdict(
                    rules.R2_5, rules.SubstituteComplement(i, h), a > 0 and b < 0
                )
        return None

    def _reduced_equal(self, i: int, h: int) -> rules.RuleVerdict | None:
        s = self.s
        d = s.adj[i].get(h, 0)
        if d <= 0:
            return None
        c, dm, dp = s.c, s.d_minus, s.d_plus
        for v in (i, h):
            if (v == i and s.max_arg[i] != h) or (v == h and s.max_arg[h] != i):
                continue
            fwd = c[v] - d + dp[v]
            back = c[v] + d + dm[v]
            if fwd <= 0 and back >= 0:
                return rules.RuleVerdict(
                    rules.R2_6, rules.SubstituteEqual(i, h), fwd < 0 and back > 0
                )
        return None

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

    def _try_pair(self, pass_no: int, i: int, h: int) -> str | None:
        """Probe (i, h); returns "pair" (both dropped), "subst" (h dropped), or None."""
        s = self.s
        if s.adj[i][h] > 0:
            v = (rules.rule_pair_zero(s, i, h) or rules.rule_pair_one(s, i, h)
                 or self._reduced_equal(i, h))
        else:
            v = (rules.rule_pair_one_zero(s, i, h) or rules.rule_pair_zero_one(s, i, h)
                 or self._reduced_complement(i, h))
        if v is None:
            if self.opt.emit_inequalities:
                self._mine(pass_no, i, h)
            return None
        self._apply(pass_no, v)
        self._drop_h(h)
        if isinstance(v.conclusion, rules.PairFix):
            self._note_drop(2)
            return "pair"
        self._note_drop()
        return "subst"

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
                    outcome = self._try_pair(pass_no, i, h)
                    if outcome == "pair":
                        alive = False
                        break
                    if outcome == "subst":
                        # i survives with a rebuilt row; its remaining pairs
                        # wait for the next pass.
                        break
            if not alive:
                cur.i_loc += 1
                continue
            cur.h_loc_end += 1
            nlist[cur.h_loc_end] = i
            pos[i] = cur.h_loc_end
            if touched[i] != turn_touched:
                # i's own turn changed its row after its examination (a
                # substitution it kept, or a partner fix); the stop marker
                # must cover its new slot so the next pass re-examines it.
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
        self.log.pass_count = pass_no
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
        """Probe the substitution combinations the strongly-holds screen skipped.

        Only adjacent pairs with the right edge sign can qualify, so each
        listed variable scans its neighbours against the partner flags.  A hit
        ends its variable's turn (its row was just rebuilt) and the sweep goes
        on with the next listed variable; returns the number of substitutions.
        Every hit re-tests its condition on the live sums and edge, so flags
        gone stale through earlier hits can only hide a candidate, which the
        next sweep then finds.
        """
        s = self.s
        sched = self.sched
        sched.refresh(s)
        c, dm, dp = s.c, s.d_minus, s.d_plus
        status = s.status
        a_flag, b_flag = sched.a_flag, sched.b_flag
        c_flag, d_flag = sched.c_flag, sched.d_flag
        # Deactivate each variable after its turn so every candidate pair is
        # tested once per sweep.
        active = bytearray(s.n + 1)
        hits = 0

        for i in sched.ab_list:
            active[i] = 1
        for i in sched.ab_list:
            if status[i] != FREE:
                continue
            if a_flag[i]:
                # (A1) strongly holds for i; seek a partner whose (B2) holds.
                for h, d in s.adj[i].items():
                    if d >= 0 or not active[h] or not b_flag[h]:
                        continue
                    a1 = c[i] - d + dm[i]
                    b2 = c[h] + d + dp[h]
                    if a1 >= 0 and b2 <= 0:
                        self._residual_hit(pass_no, rules.RuleVerdict(
                            rules.R2_5,
                            rules.SubstituteComplement(i, h),
                            a1 > 0 and b2 < 0,
                        ))
                        hits += 1
                        break
            else:
                for h, d in s.adj[i].items():
                    if d >= 0 or not active[h] or not a_flag[h]:
                        continue
                    b1 = c[i] + d + dp[i]
                    a2 = c[h] - d + dm[h]
                    if b1 <= 0 and a2 >= 0:
                        self._residual_hit(pass_no, rules.RuleVerdict(
                            rules.R2_5,
                            rules.SubstituteComplement(i, h),
                            b1 < 0 and a2 > 0,
                        ))
                        hits += 1
                        break
            active[i] = 0

        # Equality version.  The cross conditions pair C-flagged variables
        # with each other (and D with D); each condition has the same
        # functional form at both endpoints, so one symmetric test covers
        # both orientations of a pair.
        for i in sched.cd_list:
            active[i] = 1
        for i in sched.cd_list:
            if status[i] != FREE:
                continue
            want_c = c_flag[i]
            for h, d in s.adj[i].items():
                if d <= 0 or not active[h]:
                    continue
                if want_c:
                    if not c_flag[h]:
                        continue
                    hit = c[i] - d + dp[i] <= 0 and c[h] - d + dp[h] <= 0
                    strict = c[i] - d + dp[i] < 0 and c[h] - d + dp[h] < 0
                else:
                    if not d_flag[h]:
                        continue
                    hit = c[i] + d + dm[i] >= 0 and c[h] + d + dm[h] >= 0
                    strict = c[i] + d + dm[i] > 0 and c[h] + d + dm[h] > 0
                if hit:
                    self._residual_hit(pass_no, rules.RuleVerdict(
                        rules.R2_6, rules.SubstituteEqual(i, h), strict
                    ))
                    hits += 1
                    break
            active[i] = 0
        return hits


# --- public entry points ---------------------------------------------------


def run_first_pass(
    state: ReductionState,
    log: ReductionLog,
    options: EngineOptions | None = None,
) -> PassSummary:
    """Run one scan pass over the current i-group of an existing state."""
    reducer = _Reducer(state, log, options or EngineOptions())
    return reducer.run_pass(log.pass_count + 1)


def run_residual_pass(
    state: ReductionState,
    scheduler: ResidualScheduler,
    log: ReductionLog,
    options: EngineOptions | None = None,
) -> int:
    """Run the residual substitution sweep; returns the substitution count."""
    reducer = _Reducer(state, log, options or EngineOptions(), scheduler)
    return reducer.run_residual(max(log.pass_count, 1))


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
    instance: QuboInstance,
    options: EngineOptions | None = None,
) -> tuple[QuboInstance, ReductionLog, SolutionMap]:
    """Reduce an instance until no rule fires (or the pass cap is reached).

    Returns the reduced problem indexed densely over the survivors (position
    k corresponds to original variable ``solution_map.survivors[k-1]``), the
    event log, and the solution map for reconstruction.
    """
    opt = options or EngineOptions()
    state = init_state(instance)
    log = ReductionLog()
    reducer = _Reducer(state, log, opt)
    pass_no = 0
    while True:
        pass_no += 1
        summary = reducer.run_pass(pass_no)
        if opt.max_passes is not None and pass_no >= opt.max_passes:
            break
        if summary.drops == 0 or summary.early_stop:
            if opt.enable_residual and reducer.run_residual(pass_no):
                reducer.setup_next_pass()
                continue
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
