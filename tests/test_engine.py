import hashlib
import io
import itertools
import json
import random

import numpy as np
import pytest

from conftest import (
    RESIDUAL_COMPLEMENT, RESIDUAL_EQUAL, RULE_SILENT, check_consistency, dense_reference,
    mined_reference, optima_by_enumeration, random_instance, reduction_firings, replay,
    run_first_pass, run_residual_pass, shuffled_instance, sweep_instance,
)
from quboreduce import engine, rules
from quboreduce.cli import log_document
from quboreduce.engine import (
    ReductionLog, ResidualScheduler, SolutionMap, _dense_reduced, _Reducer,
    mine_inequalities, reconstruct_solution, run_to_fixed_point, verify_fixed_point,
)
from quboreduce.generator import GeneratorSpec, design_table, generate_instance
from quboreduce.model import (
    QuboInstance, build_from_triplets, canonical_pair, evaluate, relabel, write_instance,
)
from quboreduce.oracle import brute_force_solve, check_equivalence
from quboreduce.state import ReductionState, init_state

TRIPLE = build_from_triplets(
    3, [(1, 1, 1), (2, 2, 1), (3, 3, 2), (1, 2, -2), (2, 3, 1)]
)

# No rule fires here.  With K = 3 * 2^58 every coefficient and row sum fits
# int64, but x1's slacks are u_1 = 15K and w_1 = K.
NEAR_INT64_LIMIT = build_from_triplets(4, [
    (i, j, v * (3 << 58)) for i, j, v in (
        (1, 1, 8), (2, 2, -3), (3, 3, 7), (4, 4, -3),
        (1, 2, 4), (1, 3, -9), (1, 4, 3), (2, 4, -8), (3, 4, 3))
])

# No fix fires in either instance, and the edge (2, 3) alone reaches a
# reducing row: exactly that substitution row's threshold.  Taking 1 off c_v
# raises the threshold one above |d_23|, and then no rule fires.
SUBSTITUTION_BOUNDARIES = {
    "R2_6": (4, [(1, 1, 1), (3, 3, -1), (4, 4, 4), (1, 2, 1), (1, 3, 2), (1, 4, -2),
                 (2, 3, 5), (2, 4, -3), (3, 4, -4)], 3),
    "R2_5": (3, [(1, 1, 1), (2, 2, 2), (3, 3, 4), (1, 2, -2), (1, 3, -5), (2, 3, -5)], 2),
}


def disjoint_union(a: QuboInstance, b: QuboInstance) -> QuboInstance:
    """a over variables 1..a.n and b shifted onto a.n + 1..a.n + b.n."""
    k = a.n
    linear = dict(a.linear)
    linear.update({i + k: v for i, v in b.linear.items()})
    quadratic = dict(a.quadratic)
    quadratic.update({(i + k, j + k): v for (i, j), v in b.quadratic.items()})
    return QuboInstance(a.n + b.n, linear, quadratic, a.offset + b.offset)


class TestFirstPass:
    def test_triple_trace(self):
        # x1 survives its exam; x2 then probes its clean neighbour x1, and the
        # (2, 1) pair fires the one-zero rule at its boundary; x3's updated
        # weight then fixes it to one.
        state = init_state(TRIPLE)
        log = ReductionLog()
        summary = run_first_pass(state, log)
        assert summary.drops == 3
        assert [(ev.verdict.rule_id, ev.verdict.conclusion) for ev in log.events] == [
            ("R3_2", ((2, 1, 0, 2), (1, 0, 0, 1))),
            ("R1_0", ((3, 1, 0, 3),)),
        ]
        assert state.offset == 4
        assert state.live_count == 0

    def test_two_variable_trace(self):
        inst = build_from_triplets(2, [(1, 1, 3), (2, 2, -2), (1, 2, 2)])
        state = init_state(inst)
        log = ReductionLog()
        run_first_pass(state, log)
        assert [(ev.verdict.rule_id, ev.verdict.conclusion) for ev in log.events] == [
            ("R1_0", ((1, 1, 0, 1),)),
            ("R2_0", ((2, 0, 0, 2),)),
        ]
        assert log.events[0].verdict.unique
        assert not log.events[1].verdict.unique  # fired at c2 = 0
        assert state.offset == 3

    def test_edgeless_instance(self):
        inst = build_from_triplets(2, [(1, 1, 5), (2, 2, -5)])
        state = init_state(inst)
        log = ReductionLog()
        run_first_pass(state, log)
        assert dict(log.per_rule_counts) == {"R1_0": 1, "R2_0": 1}
        assert state.offset == 5

    def test_rule_counts_follow_the_events_in_first_firing_order(self):
        for t in range(100):
            _, log, _ = run_to_fixed_point(sweep_instance(t))
            ids = [ev.verdict.rule_id for ev in log.events]
            assert list(log.per_rule_counts.items()) == [
                (r, ids.count(r)) for r in dict.fromkeys(ids)]
        with pytest.raises(AttributeError):
            log.per_rule_counts = {}


class TestRunToFixedPoint:
    def test_fully_reducible_triple(self):
        reduced, log, smap = run_to_fixed_point(TRIPLE)
        assert reduced.n == 0 and reduced.offset == 4
        assert dict(log.per_rule_counts) == {"R3_2": 1, "R1_0": 1}
        full = reconstruct_solution(smap, {})
        assert [full[i] for i in (1, 2, 3)] == [0, 1, 1]
        assert evaluate(TRIPLE, full) == 4

    def test_rule_silent_instance_unchanged(self):
        assert verify_fixed_point(init_state(RULE_SILENT))
        reduced, log, smap = run_to_fixed_point(RULE_SILENT)
        assert not log.events
        assert smap.survivors == [1, 2, 3]
        assert reduced == RULE_SILENT

    def test_idempotent_on_reduced_output(self):
        rng = random.Random(50)
        for _ in range(150):
            inst = random_instance(rng, rng.randint(2, 12))
            reduced, _, _ = run_to_fixed_point(inst)
            again, log2, _ = run_to_fixed_point(reduced)
            assert not log2.events
            assert again == reduced

    def test_global_soundness_sample(self):
        rng = random.Random(51)
        for _ in range(150):
            inst = random_instance(rng, rng.randint(2, 12))
            reduced, _, smap = run_to_fixed_point(inst)
            assert check_equivalence(inst, reduced, smap).ok

    @pytest.mark.parametrize("scale", [2**62, 10**30], ids=["2^62", "10^30"])
    def test_soundness_above_int64(self, scale):
        # brute_force_solve refuses these magnitudes; the conftest oracle
        # enumerates in Python integers.
        rng = random.Random(53)
        kept = 0
        while kept < 30:
            inst = shuffled_instance(rng, scale)
            if inst.n > 12:
                continue
            kept += 1
            reduced, _, smap = run_to_fixed_point(inst)
            best, _ = optima_by_enumeration(inst)
            reduced_best, reduced_optima = optima_by_enumeration(reduced)
            assert reduced_best == best
            for x in reduced_optima:
                full = reconstruct_solution(smap, dict(zip(smap.survivors, x)))
                assert evaluate(inst, full) == best

    def test_pass_count_bounded(self):
        rng = random.Random(52)
        for _ in range(100):
            n = rng.randint(2, 14)
            inst = random_instance(rng, n)
            _, log, _ = run_to_fixed_point(inst)
            assert log.pass_count <= n + 1

    def test_fixed_order_prefers_pair_zero(self):
        inst = build_from_triplets(2, [(1, 1, -1), (2, 2, -1), (1, 2, 2)])
        # both the pair-zero and pair-one rules fire at their boundary here;
        # a positive edge probes pair-zero first
        _, log, _ = run_to_fixed_point(inst)
        assert "R3_1" in log.per_rule_counts
        assert "R3_4" not in log.per_rule_counts
        # x2 probes its clean neighbour x1 in pass 1
        assert [(ev.pass_number, ev.verdict) for ev in log.events] == [
            (1, rules.RuleVerdict("R3_1", (2, 1), ((2, 0, 0, 2), (1, 0, 0, 1)), False)),
        ]

    def test_fixed_order_prefers_one_zero(self):
        inst = build_from_triplets(2, [(1, 1, 1), (2, 2, 1), (1, 2, -2)])
        # both orientations fire at their boundary here; a negative edge
        # probes R3_2 (x2 = 1, x1 = 0) before R3_3 (x1 = 1, x2 = 0)
        _, log, _ = run_to_fixed_point(inst)
        assert [(ev.pass_number, ev.verdict) for ev in log.events] == [
            (1, rules.RuleVerdict("R3_2", (2, 1), ((2, 1, 0, 2), (1, 0, 0, 1)), False)),
        ]


class TestVerifyFixedPoint:
    def test_true_after_runs(self):
        rng = random.Random(60)
        for _ in range(200):
            inst = random_instance(rng, rng.randint(2, 12))
            reduced, _, _ = run_to_fixed_point(inst)
            assert verify_fixed_point(init_state(reduced))

    def test_false_when_single_rule_fires(self):
        inst = build_from_triplets(2, [(1, 1, 5), (1, 2, 2)])
        assert not verify_fixed_point(init_state(inst))

    def test_true_on_rule_silent_instance(self):
        assert verify_fixed_point(init_state(RULE_SILENT))

    @pytest.mark.parametrize("block", [1 << 16, 3])
    def test_matches_the_scalar_reference(self, block, monkeypatch):
        # Fresh, mid-run and final states of sweep instances and of tie-heavy
        # draws, on int64 (scale 1) and on Python integers (2^62, 10^30), in
        # one block and in many.
        monkeypatch.setattr(engine, "_CHECK_BLOCK", block)
        rng = random.Random(77)
        instances = [sweep_instance(t) for t in range(300)]
        instances += [shuffled_instance(rng, scale) for scale in (1, 2**62, 10**30)
                      for _ in range(40)]
        instances.append(NEAR_INT64_LIMIT)
        seen = {"fixed point": 0, "pair fires": 0, "tie": 0}
        for inst in instances:
            reduced, log, _ = run_to_fixed_point(inst)
            # replay yields one state, mutated between steps.
            for st in itertools.chain(replay(inst, log.events), [init_state(reduced)]):
                firings = list(reduction_firings(st))
                assert verify_fixed_point(st) == (not firings), f"events={st.events}"
                pairs = [v for v in firings if v.edge[0] != v.edge[1]]
                seen["fixed point"] += not firings
                seen["pair fires"] += len(pairs) == len(firings) > 0
                seen["tie"] += any(not v.unique for v in pairs)
        assert min(seen.values()) > 0, seen

    def test_slacks_past_int64(self):
        # Every coefficient and row sum fits int64, but x1's slack
        # u_1 = c_1 + D_1^+ = 15K does not: int64 would wrap it negative.
        st = init_state(NEAR_INT64_LIMIT)
        stored = max(max(map(abs, st.c)), max(st.d_plus), -min(st.d_minus))
        assert stored < 1 << 63 <= rules.slacks(st, 1)[0]
        assert not any(reduction_firings(st))
        assert verify_fixed_point(st)

    def test_edge_of_int64_minimum(self):
        # An int64 edge of -2^63, whose abs() would wrap on int64.  Every
        # slack is 2^62, so |d| = 2^63 meets R3_2, R3_3 and R2_5, and the
        # run fires R3_2: the state is no fixed point.
        inst = QuboInstance(2, {1: 2**62, 2: 2**62}, {(1, 2): -2**63})
        st = init_state(inst)
        assert st.setup_edges[2].dtype == np.int64
        assert [v.rule_id for v in reduction_firings(st)] == ["R3_2", "R3_3", "R2_5"]
        assert not verify_fixed_point(st)
        assert run_to_fixed_point(inst)[1].events[0].verdict.rule_id == "R3_2"

    @pytest.mark.parametrize("rid", SUBSTITUTION_BOUNDARIES)
    def test_substitution_row_at_its_boundary(self, rid):
        n, triplets, v = SUBSTITUTION_BOUNDARIES[rid]
        row = rules.PAIR_RULES_BY_ID[rid]
        at = init_state(build_from_triplets(n, triplets))
        below = init_state(build_from_triplets(n, triplets + [(v, v, -1)]))
        for st, gap in ((at, 0), (below, 1)):
            assert all(min(rules.slacks(st, x)) > 0 for x in st.free_variables())
            threshold = row.threshold(*rules.slacks(st, 2), *rules.slacks(st, 3))
            assert threshold - abs(st.adj[2][3]) == gap
        assert list(reduction_firings(at)) == [
            rules.RuleVerdict(rid, (2, 3), row.conclude(2, 3), False)]
        assert not any(reduction_firings(below))
        assert not verify_fixed_point(at)
        assert verify_fixed_point(below)

    def test_pair_assignments_never_fire_alone(self):
        # Why the check judges an edge by its substitution row alone: with
        # positive slacks, every pair-assignment threshold exceeds the
        # substitution threshold of its sign.
        for slack in itertools.product((1, 2, 3, 5, 2**62, 10**30), repeat=4):
            for pos in (True, False):
                below = rules.SUBSTITUTION[pos].threshold(*slack)
                assert all(row.threshold(*slack) > below for row in rules.PAIR_ASSIGNMENTS[pos])


class TestMineInequalities:
    def test_matches_the_scalar_reference(self):
        # Verdicts, order and bounds, at the fixed points of the sweep, of
        # tie-heavy draws and of a generated instance.
        rng = random.Random(2024)
        instances = [sweep_instance(t) for t in range(1000)]
        instances += [random_instance(rng, rng.randint(2, 12), coef=2) for _ in range(400)]
        instances.append(generate_instance(
            GeneratorSpec.from_design(2000, 20000, design_table()[0], seed=42)))
        seen = {"records": 0, "tie": 0}
        for inst in instances:
            reduced, _, _ = run_to_fixed_point(inst)
            records = mine_inequalities(reduced)
            assert records == mined_reference(init_state(reduced)), inst
            seen["records"] += len(records)
            seen["tie"] += any(not rec.verdict.unique for rec in records)
        assert seen["records"] > 2000 and seen["tie"] > 0, seen

    def test_exact_integers(self):
        # Scaled by 2^70, a run reaches the scaled fixed point, which mines
        # the same verdicts (seven records here, one not unique) with bounds
        # 2^70 times as large.
        inst = sweep_instance(16)
        big = QuboInstance(inst.n, {i: v << 70 for i, v in inst.linear.items()},
                           {k: d << 70 for k, d in inst.quadratic.items()}, inst.offset << 70)
        records = mine_inequalities(run_to_fixed_point(inst)[0])
        reduced = run_to_fixed_point(big)[0]
        scaled = mine_inequalities(reduced)
        assert scaled == mined_reference(init_state(reduced))
        assert [(r.verdict, r.m_bound << 70) for r in records] == [
            (r.verdict, r.m_bound) for r in scaled]
        assert len(records) == 7
        # An int64 edge of -2^63, whose abs() would wrap on int64.
        edge = QuboInstance(2, {1: 2**62, 2: 2**62}, {(1, 2): -2**63})
        assert mine_inequalities(edge) == mined_reference(init_state(edge))
        assert [r.verdict.rule_id for r in mine_inequalities(edge)] == [
            "R2_1", "R2_1p", "R1_2", "R1_2p"]

    def test_refuses_a_fixable_endpoint(self):
        # x1 fixes to 1 (w_1 = -5); x3 has no edge and is not judged.
        inst = build_from_triplets(3, [(1, 1, 5), (2, 2, -1), (3, 3, 4), (1, 2, 2)])
        with pytest.raises(ValueError, match="variable 1 fixes"):
            mine_inequalities(inst)


class TestResidual:
    def test_empty_lists_do_nothing(self):
        state = init_state(RULE_SILENT)
        # examine every row, as after a completed pass
        log = ReductionLog()
        run_first_pass(state, log)
        assert run_residual_pass(state, log) == 0

    def test_reduced_form_already_covers_symmetric_pair(self):
        # both complement-rule conditions hold for variable 1 at its most
        # negative edge (1 + 2 - 2 >= 0, 1 - 2 + 0 <= 0), so the pair is
        # flagged for the residual; but the scan pass's pair-assignment rule
        # R3_2 resolves it first (-1 + 1 - 2 + 0 + 0 <= 0, at its boundary),
        # and the residual finds nothing left
        inst = build_from_triplets(2, [(1, 1, 1), (2, 2, 1), (1, 2, -2)])
        state = init_state(inst)
        sched = ResidualScheduler(state.n)
        sched.refresh(state)
        assert sched.a_flag[1] and sched.b_flag[1]
        log = ReductionLog()
        run_first_pass(state, log)
        assert [(ev.verdict.rule_id, ev.verdict.conclusion) for ev in log.events] == [
            ("R3_2", ((2, 1, 0, 2), (1, 0, 0, 1))),
        ]
        assert state.live_count == 0
        assert run_residual_pass(state, log) == 0

    def test_residual_finds_mixed_side_complement(self):
        # the scan pass fixes nothing, and the complement rule fires on (1, 2)
        # with its upper side from variable 1 (3 - 4 + 0 <= 0) and its lower
        # side from variable 2 (1 + 4 - 4 >= 0): only the residual substitutes
        state = init_state(RESIDUAL_COMPLEMENT)
        log = ReductionLog()
        assert run_first_pass(state, log).drops == 0
        assert not log.events
        assert not verify_fixed_point(state)
        assert run_residual_pass(state, log) == 1
        assert log.events[0].verdict.rule_id == "R2_5"

        reduced, log1, smap1 = run_to_fixed_point(RESIDUAL_COMPLEMENT)
        assert any(ev.verdict.rule_id == "R2_5" for ev in log1.events)
        assert check_equivalence(RESIDUAL_COMPLEMENT, reduced, smap1).ok
        assert verify_fixed_point(init_state(reduced))

    def test_residual_finds_mixed_side_equal(self):
        state = init_state(RESIDUAL_EQUAL)
        log = ReductionLog()
        assert run_first_pass(state, log).drops == 0
        assert not verify_fixed_point(state)
        # x3 := x2 first; later in the same sweep x1 := x4 also passes the
        # screen (c-flags on both ends) and the rule holds on the live state
        # (-1 - 3 + 3 <= 0 for 4, -3 - 3 + 3 <= 0 for 1), so one sweep
        # applies both
        assert run_residual_pass(state, log) == 2
        assert [ev.verdict.conclusion for ev in log.events] == [
            ((3, 0, 1, 2),), ((1, 0, 1, 4),),
        ]

        reduced, log, smap = run_to_fixed_point(RESIDUAL_EQUAL)
        assert any(ev.verdict.rule_id == "R2_6" for ev in log.events)
        assert check_equivalence(RESIDUAL_EQUAL, reduced, smap).ok
        assert verify_fixed_point(init_state(reduced))

    def test_one_sweep_applies_every_hit(self):
        # two independent blocks, needing one and two residual substitutions
        # (see test_residual_finds_mixed_side_equal): a single sweep performs
        # all three instead of returning after the first
        inst = disjoint_union(RESIDUAL_COMPLEMENT, RESIDUAL_EQUAL)
        state = init_state(inst)
        log = ReductionLog()
        run_first_pass(state, log)
        assert not log.events
        assert run_residual_pass(state, log) == 3
        assert [ev.verdict.rule_id for ev in log.events] == ["R2_5", "R2_6", "R2_6"]
        assert log.pass_drops == [3]

        reduced, _, smap = run_to_fixed_point(inst)
        assert check_equivalence(inst, reduced, smap).ok
        assert verify_fixed_point(init_state(reduced))

    def test_sweep_before_any_pass(self):
        # pass_drops has one entry per scan pass run: none before the first
        # pass, which then also counts the sweep's hit, numbered pass 1
        state = init_state(RESIDUAL_COMPLEMENT)
        log = ReductionLog()
        assert run_residual_pass(state, log) == 1
        assert (log.pass_count, log.pass_drops) == (0, [])
        run_first_pass(state, log)
        assert (log.pass_count, log.pass_drops, state.live_count) == (1, [3], 0)

    def test_sweeps_leave_no_substitution(self):
        # after one pass, residual sweeps repeated until one finds nothing
        # leave no edge where the general rule 2.5 or 2.6 fires, including the
        # tie-heavy boundary cases of coefficients in [-2, 2]
        rng = random.Random(74)
        instances = [sweep_instance(t) for t in range(300)]
        instances += [random_instance(rng, rng.randint(2, 14), coef=2) for _ in range(300)]
        for inst in instances:
            state = init_state(inst)
            log = ReductionLog()
            run_first_pass(state, log)
            while run_residual_pass(state, log):
                pass
            for i in state.free_variables():
                for h in state.adj[i]:
                    assert rules.PAIR_RULES_BY_ID["R2_5"].probe(state, i, h) is None
                    assert rules.PAIR_RULES_BY_ID["R2_6"].probe(state, i, h) is None

    def test_residual_run_is_pinned(self):
        # generate --size 2000 --edges 20000 --seed 42 --design-row 3
        inst = generate_instance(GeneratorSpec.from_design(2000, 20000, design_table()[2], seed=42))
        reduced, log, smap = run_to_fixed_point(inst)
        assert any(ev.verdict.rule_id in (rules.R2_5, rules.R2_6) for ev in log.events)
        # The run's events in order, as the log document holds them: a change
        # of scheduling order shows here.
        events = json.dumps(log_document(inst, reduced, log, smap, 0.0, [])["events"])
        assert len(log.events) == 377
        assert hashlib.sha256(events.encode()).hexdigest()[:16] == "ff6dad6d2914e48e"


@pytest.fixture
def probes(monkeypatch):
    """Every (pass, i, h, returned verdict) pair probe of a test's runs, in order."""
    seen = []
    probe = _Reducer._try_pair

    def recording(self, pass_no, i, h):
        result = probe(self, pass_no, i, h)
        seen.append((pass_no, i, h, result))
        return result

    monkeypatch.setattr(_Reducer, "_try_pair", recording)
    return seen


@pytest.fixture
def probed_rows(monkeypatch):
    """Every pair probe of a test's runs as (low, high, touched[low], touched[high])."""
    seen = []
    probe = _Reducer._try_pair

    def recording(self, pass_no, i, h):
        a, b = min(i, h), max(i, h)
        seen.append((a, b, self.s.touched[a], self.s.touched[b]))
        return probe(self, pass_no, i, h)

    monkeypatch.setattr(_Reducer, "_try_pair", recording)
    return seen


class TestInstrumentation:
    def test_no_duplicate_pair_probes_within_pass(self, probes):
        rng = random.Random(70)
        for _ in range(120):
            inst = random_instance(rng, rng.randint(2, 12))
            probes.clear()
            run_to_fixed_point(inst)
            seen = set()
            for pass_no, i, h, _ in probes:
                key = (pass_no, min(i, h), max(i, h))
                assert key not in seen, f"pair {key} probed twice"
                seen.add(key)

    def test_no_pair_probed_twice_on_unchanged_rows(self, probed_rows):
        # A row is examined once per change, and probes only partners whose
        # rows were examined unchanged; so a probe outcome is never recomputed.
        rng = random.Random(75)
        instances = [sweep_instance(t) for t in range(1000)]
        instances += [random_instance(rng, rng.randint(2, 14), coef=2) for _ in range(300)]
        # generate --size 2000 --edges 20000 --seed 42..43 --design-row 1..16
        instances += [generate_instance(GeneratorSpec.from_design(2000, 20000, row, seed=seed))
                      for seed in (42, 43) for row in design_table()]
        total = 0
        for inst in instances:
            probed_rows.clear()
            run_to_fixed_point(inst)
            assert len(probed_rows) == len(set(probed_rows))
            total += len(probed_rows)
        assert total > 10000

    def test_tied_extreme_edges_record_at_smallest_neighbour(self):
        # Row 1's largest value, 3, sits on its edges to 2 and 3.  Both pairs
        # yield row 1's R1_1 verdict, which is recorded once: at the smaller
        # neighbour, 2.  No rule reduces the instance.
        inst = build_from_triplets(4, [
            (1, 1, -1), (2, 2, -6), (3, 3, -6), (4, 4, -6), (1, 2, 3), (1, 3, 3),
            (1, 4, 2), (2, 3, 8), (2, 4, -8), (3, 4, 8)])
        st = init_state(inst)
        for w in (2, 3):
            verdict = rules.RuleVerdict(
                rules.R1_1, (1, w), rules.Inequality(rules.InequalityKind.H_LE_I, 1, w), True)
            assert verdict in rules.derive_pair_inequalities(st, 1, w)
        assert verify_fixed_point(st)
        row_1 = [r.verdict.conclusion for r in mine_inequalities(inst)
                 if r.verdict.rule_id == rules.R1_1 and r.verdict.conclusion.i == 1]
        assert [c.h for c in row_1] == [2]

    def test_pair_fix_ends_the_turn(self, probes):
        # after a pair-assignment fires for i, no further partner of i is
        # probed within the pass
        rng = random.Random(71)
        for _ in range(150):
            inst = random_instance(rng, rng.randint(3, 12))
            probes.clear()
            _, log, _ = run_to_fixed_point(inst)
            pair_events = [
                (ev.pass_number, set(ev.verdict.edge))
                for ev in log.events
                if len(ev.verdict.conclusion) == 2
            ]
            for pass_no, pair in pair_events:
                in_pass = [p for p in probes if p[0] == pass_no]
                fired_idx = next(
                    k for k, (_, i, h, _) in enumerate(in_pass) if {i, h} == pair
                )
                later = in_pass[fired_idx + 1:]
                assert all(not pair & {i, h} for _, i, h, _ in later)

    def test_try_pair_returns_only_applied_pair_fixes(self, probes):
        # perfbench's tracer counts every non-None return of _try_pair as a
        # firing, so a probe that applies nothing must return None
        rng = random.Random(73)
        fired_total = 0
        for _ in range(150):
            inst = random_instance(rng, rng.randint(2, 12), coef=rng.choice((2, 10)))
            probes.clear()
            _, log, _ = run_to_fixed_point(inst)
            fired = [result for *_, result in probes if result is not None]
            assert all(isinstance(v, rules.RuleVerdict)
                       and len(v.conclusion) == 2 for v in fired)
            assert fired == [ev.verdict for ev in log.events if len(ev.verdict.conclusion) == 2]
            fired_total += len(fired)
        assert fired_total > 0


class TestDenseReduced:
    def test_matches_dict_build(self):
        # Reduced instances of runs that fix, substitute and keep
        # untouched edges, on sorted and on shuffled set-up edges.
        rng = random.Random(76)
        instances = [random_instance(rng, rng.randint(2, 14), coef=rng.choice((2, 10)))
                     for _ in range(200)]
        instances += [shuffled_instance(rng, scale) for scale in (1, 2**62, 10**30)
                      for _ in range(30)]
        instances.append(generate_instance(
            GeneratorSpec.from_design(2000, 20000, design_table()[2], seed=42)))
        for inst in instances:
            reduced, log, smap = run_to_fixed_point(inst)
            *_, st = replay(inst, log.events)
            want = dense_reference(st, smap.survivors)
            assert reduced == want and want == reduced
            assert _dense_reduced(st, smap.survivors) == want
            assert list(reduced.quadratic) == sorted(want.quadratic)
            assert list(reduced.linear.items()) == list(want.linear.items())


class TestScheduleIndependence:
    def test_survivor_count_ignores_the_variable_order(self):
        # Renaming the variables reorders todo, each row's partners and the
        # residual lists; the count of survivors and the optimum stay.
        rng = random.Random(10)
        instances = [sweep_instance(t) for t in range(300)]
        instances += [shuffled_instance(rng, scale) for scale in (1, 10, 2**40)
                      for _ in range(40)]
        for inst in instances:
            reduced, _, _ = run_to_fixed_point(inst)
            best = brute_force_solve(reduced).optimum if reduced.n <= 24 else None
            for _ in range(4):
                perm = [0, *rng.sample(range(1, inst.n + 1), inst.n)]
                renamed = QuboInstance(
                    inst.n, {perm[i]: v for i, v in inst.linear.items()},
                    {canonical_pair(perm[i], perm[j]): d
                     for (i, j), d in inst.quadratic.items()}, inst.offset)
                again, _, _ = run_to_fixed_point(renamed)
                assert again.n == reduced.n, (inst, perm)
                if best is not None:
                    assert brute_force_solve(again).optimum == best, (inst, perm)

    def test_survivor_count_ignores_the_rule_order(self, monkeypatch):
        # Each sign's two pair-assignment rows swapped, fix-one tried before
        # fix-zero, and both: runs whose eliminations differ in each variant,
        # and the same survivor count in every run, at a true fixed point.
        instances = [sweep_instance(t) for t in range(1000)]
        instances += [generate_instance(GeneratorSpec.from_design(2000, 20000, row, seed=42))
                      for row in design_table()]
        base = [run_to_fixed_point(inst) for inst in instances]

        def fix_one_first(self, v):
            return rules.rule_fix_one(self.s, v) or rules.rule_fix_zero(self.s, v)

        patches = {
            "rows": (rules, "PAIR_ASSIGNMENTS",
                     {pos: rows[::-1] for pos, rows in rules.PAIR_ASSIGNMENTS.items()}),
            "fixes": (_Reducer, "_examine_fix", fix_one_first),
        }
        for variant in (["rows"], ["fixes"], ["rows", "fixes"]):
            moved = 0
            with monkeypatch.context() as m:
                for name in variant:
                    m.setattr(*patches[name])
                for k, (inst, (reduced, _, smap)) in enumerate(zip(instances, base)):
                    again, _, smap_again = run_to_fixed_point(inst)
                    assert again.n == reduced.n, (variant, k)
                    assert verify_fixed_point(init_state(again)), (variant, k)
                    moved += smap_again.eliminations != smap.eliminations
            assert moved, variant


class TestReplay:
    def test_replay_rebuilds_the_run(self):
        rng = random.Random(72)
        for _ in range(150):
            inst = random_instance(rng, rng.randint(2, 14))
            reduced, log, smap = run_to_fixed_point(inst)
            for st in replay(inst, log.events):
                check_consistency(st)
            survivors = st.free_variables()
            assert survivors == smap.survivors
            assert st.offset == reduced.offset
            assert _dense_reduced(st, survivors) == reduced


class TestNamedOperations:
    # perfbench/tracing.py times these three methods, and the
    # uncompensated_complement fixture patches one of them: an engine that
    # called ReductionState._eliminate directly would escape both.
    OPERATIONS = {0: "apply_fix", 1: "apply_substitution_equal",
                  -1: "apply_substitution_complement"}

    def test_every_elimination_goes_through_its_named_operation(self, monkeypatch):
        calls = []
        for name in self.OPERATIONS.values():
            def counted(state, *args, _name=name, _method=getattr(ReductionState, name)):
                calls.append(_name)
                return _method(state, *args)
            monkeypatch.setattr(ReductionState, name, counted)
        seen = set()
        for t in range(300):
            calls.clear()
            _, _, smap = run_to_fixed_point(sweep_instance(t))
            assert calls == [self.OPERATIONS[b] for _, _, b, _ in smap.eliminations], t
            seen.update(calls)
        assert seen == set(self.OPERATIONS.values())


class TestUniquenessPropagation:
    def test_all_unique_runs_have_unique_optimum(self):
        rng = random.Random(80)
        qualifying = 0
        for _ in range(600):
            inst = random_instance(rng, rng.randint(2, 10))
            reduced, log, smap = run_to_fixed_point(inst)
            if reduced.n != 0 or not log.events:
                continue
            if not all(ev.verdict.unique for ev in log.events):
                continue
            qualifying += 1
            res = brute_force_solve(inst)
            assert len(res.optima) == 1
            full = reconstruct_solution(smap, {})
            assert tuple(full[i] for i in range(1, inst.n + 1)) == res.optima[0]
        assert qualifying >= 20


class TestReconstructSolution:
    def test_full_reduction_map(self):
        _, _, smap = run_to_fixed_point(TRIPLE)
        full = reconstruct_solution(smap, {})
        assert full == {1: 0, 2: 1, 3: 1}

    def test_single_identity(self):
        smap = SolutionMap([(2, 1, -1, 1)], [1])
        assert reconstruct_solution(smap, {1: 0}) == {1: 0, 2: 1}

    def test_chain_through_fix(self):
        # x3 = x2, then x2 = 1 - x1, then x1 = 1
        smap = SolutionMap([(3, 0, 1, 2), (2, 1, -1, 1), (1, 1, 0, 1)], [])
        assert reconstruct_solution(smap, {}) == {1: 1, 2: 0, 3: 0}

    def test_wrong_survivor_cover_rejected(self):
        smap = SolutionMap([], [1, 2])
        with pytest.raises(ValueError):
            reconstruct_solution(smap, {1: 0})

    def test_unresolvable_reference_raises(self):
        smap = SolutionMap([(2, 0, 1, 3)], [1])
        with pytest.raises(RuntimeError):
            reconstruct_solution(smap, {1: 0})


class TestMultiPass:
    def test_chain_needs_multiple_passes(self):
        # a path of antagonistic edges whose reductions cascade backwards
        n = 8
        entries = [(i, i, 1) for i in range(1, n + 1)]
        entries += [(i, i + 1, -2) for i in range(1, n)]
        entries[0] = (1, 1, 3)  # strong head starts the cascade
        inst = build_from_triplets(n, entries)
        reduced, log, smap = run_to_fixed_point(inst)
        assert check_equivalence(inst, reduced, smap).ok
        assert verify_fixed_point(init_state(reduced))

    def test_residual_hits_do_not_each_cost_a_pass(self):
        # a cascade-heavy instance: with every residual hit of a sweep applied
        # at once it settles in 11 passes, against 63 when each hit restarts
        # the passes
        spec = GeneratorSpec.from_design(2000, 20000, design_table()[0], seed=42)
        reduced, log, _ = run_to_fixed_point(generate_instance(spec))
        assert log.pass_count <= 25
        assert verify_fixed_point(init_state(reduced))

    @pytest.mark.parametrize("row, survivors, offset, digest", [
        (1, 1568, 25729, "6f41ef96df14f420"),
        (3, 1498, 38733, "4f172fd1b546c6a1"),
    ])
    def test_pinned_fixed_points(self, row, survivors, offset, digest):
        # generate --size 2000 --edges 20000 --seed 42 --design-row <row>:
        # a scheduling change must not move the fixed point unnoticed
        spec = GeneratorSpec.from_design(2000, 20000, design_table()[row - 1], seed=42)
        reduced, _, smap = run_to_fixed_point(generate_instance(spec))
        assert (len(smap.survivors), reduced.offset) == (survivors, offset)
        text = io.StringIO()
        write_instance(reduced, text)
        assert hashlib.sha256(text.getvalue().encode()).hexdigest()[:16] == digest
        assert verify_fixed_point(init_state(reduced))

    def test_pinned_sweep_outputs(self):
        # One digest over what 1,000 small runs write, with the inequalities
        # mined on each reduced instance: the log document without its wall
        # time (events, inequality records, passes, rule counts, solution
        # map, offset) and the reduced instance.  Refactors keep it; a
        # deliberate change of fixed point (such as one scheduler for every
        # rule) re-pins it and says so in CHANGES.md.
        digest = hashlib.sha256()
        for t in range(1000):
            inst = sweep_instance(t)
            reduced, log, smap = run_to_fixed_point(inst)
            mined = mine_inequalities(relabel(reduced, range(1, reduced.n + 1),
                                              smap.survivors, inst.n))
            doc = log_document(inst, reduced, log, smap, 0.0, mined)
            del doc["wall_time_s"]
            digest.update(json.dumps(doc).encode())
            text = io.StringIO()
            write_instance(reduced, text)
            digest.update(text.getvalue().encode())
        assert digest.hexdigest()[:16] == "7fec62e8b18711df"

    def test_pinned_mined_records(self):
        # generate --size 2000 --edges 20000 --seed 42 --design-row 1, mined
        # over the original ids: pins each record's M bound and the
        # extreme-edge selection at scale
        spec = GeneratorSpec.from_design(2000, 20000, design_table()[0], seed=42)
        reduced, _, smap = run_to_fixed_point(generate_instance(spec))
        records = mine_inequalities(relabel(reduced, range(1, reduced.n + 1),
                                            smap.survivors, spec.n))
        text = "".join(
            f"{r.verdict.rule_id} {r.verdict.conclusion.kind.value} {r.verdict.conclusion.i} "
            f"{r.verdict.conclusion.h} {r.verdict.unique} {r.m_bound}\n"
            for r in records
        )
        assert len(records) == 744
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == "6e838dec9bbd351a"

    def test_pass_drop_counts_are_variables(self):
        _, log, smap = run_to_fixed_point(TRIPLE)
        assert sum(log.pass_drops) == 3 - len(smap.survivors)

    def test_live_count_strictly_decreasing_in_events(self):
        # The live count after an event is n minus the eliminations so far,
        # and every event eliminates at least one variable.
        rng = random.Random(90)
        for _ in range(100):
            inst = random_instance(rng, rng.randint(2, 12))
            _, log, _ = run_to_fixed_point(inst)
            lives = [st.live_count for st in replay(inst, log.events)]
            eliminated = itertools.accumulate(len(ev.verdict.conclusion) for ev in log.events)
            assert lives == [inst.n, *(inst.n - k for k in eliminated)]
            assert all(a > b for a, b in zip(lives, lives[1:]))
            passes = [ev.pass_number for ev in log.events]
            assert passes == sorted(passes)
