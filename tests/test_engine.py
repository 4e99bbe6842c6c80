import hashlib
import random

import pytest

from conftest import (
    RESIDUAL_COMPLEMENT, RESIDUAL_EQUAL, RULE_SILENT, random_instance, replay,
    sweep_instance,
)
from quboreduce import rules
from quboreduce.engine import (
    ReductionLog, ResidualScheduler, SolutionMap, _dense_reduced, _Reducer,
    reconstruct_solution, run_first_pass, run_residual_pass, run_to_fixed_point,
    verify_fixed_point,
)
from quboreduce.generator import GeneratorSpec, design_table, generate_instance
from quboreduce.model import QuboInstance, build_from_triplets, evaluate
from quboreduce.oracle import brute_force_solve, check_equivalence
from quboreduce.state import COMPLEMENT_OF, SAME_AS, init_state

TRIPLE = build_from_triplets(
    3, [(1, 1, 1), (2, 2, 1), (3, 3, 2), (1, 2, -2), (2, 3, 1)]
)


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
        # x1 survives to the h-group; the (2, 1) pair fires the one-zero rule
        # at its boundary; x3's updated weight then fixes it to one.
        state = init_state(TRIPLE)
        log = ReductionLog()
        summary = run_first_pass(state, log)
        assert summary.drops == 3
        assert [(ev.verdict.rule_id, ev.verdict.conclusion) for ev in log.events] == [
            ("R3_2", rules.PairFix(2, 1, 1, 0)),
            ("R1_0", rules.Fix(3, 1)),
        ]
        assert state.offset == 4
        assert state.live_count == 0

    def test_two_variable_trace(self):
        inst = build_from_triplets(2, [(1, 1, 3), (2, 2, -2), (1, 2, 2)])
        state = init_state(inst)
        log = ReductionLog()
        run_first_pass(state, log)
        assert [(ev.verdict.rule_id, ev.verdict.conclusion) for ev in log.events] == [
            ("R1_0", rules.Fix(1, 1)),
            ("R2_0", rules.Fix(2, 0)),
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


class TestResidual:
    def test_empty_lists_do_nothing(self):
        state = init_state(RULE_SILENT)
        # put every node in the h-group as after a completed pass
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
            ("R3_2", rules.PairFix(2, 1, 1, 0)),
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
            rules.SubstituteEqual(2, 3), rules.SubstituteEqual(4, 1),
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
                    assert rules.rule_complement_pair(state, i, h) is None
                    assert rules.rule_equal_pair(state, i, h) is None

    def test_sweeps_test_each_edge_once_per_state(self, monkeypatch):
        # generate --size 2000 --edges 20000 --seed 42 --design-row 3
        spec = GeneratorSpec.from_design(2000, 20000, design_table()[2], seed=42)
        inst = generate_instance(spec)
        calls = []
        for name in ("rule_complement_pair", "rule_equal_pair"):
            def counted(st, i, h, rule=getattr(rules, name)):
                calls.append((min(i, h), max(i, h), st.events))
                return rule(st, i, h)
            monkeypatch.setattr(rules, name, counted)
        _, log, _ = run_to_fixed_point(inst)
        assert calls and len(calls) == len(set(calls))
        # The same events as when the sweep re-tested rejected edges.
        events = repr([(ev.pass_number, ev.verdict, ev.live_after) for ev in log.events])
        assert len(log.events) == 378
        assert hashlib.sha256(events.encode()).hexdigest()[:16] == "f78bd5f987c53076"


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

    def test_pair_fix_ends_the_turn(self, probes):
        # after a pair-assignment fires for i, no further partner of i is
        # probed within the pass
        rng = random.Random(71)
        for _ in range(150):
            inst = random_instance(rng, rng.randint(3, 12))
            probes.clear()
            _, log, _ = run_to_fixed_point(inst)
            pair_events = [
                (ev.pass_number, ev.verdict.conclusion)
                for ev in log.events
                if isinstance(ev.verdict.conclusion, rules.PairFix)
            ]
            for pass_no, concl in pair_events:
                in_pass = [p for p in probes if p[0] == pass_no]
                fired_idx = next(
                    k for k, (_, i, h, _) in enumerate(in_pass)
                    if {i, h} == {concl.i, concl.h}
                )
                later = in_pass[fired_idx + 1:]
                assert all(concl.i not in (i, h) and concl.h not in (i, h)
                           for _, i, h, _ in later)

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
                       and isinstance(v.conclusion, rules.PairFix) for v in fired)
            assert fired == [ev.verdict for ev in log.events
                             if isinstance(ev.verdict.conclusion, rules.PairFix)]
            fired_total += len(fired)
        assert fired_total > 0


class TestReplay:
    def test_replay_rebuilds_the_run(self):
        rng = random.Random(72)
        mined = 0
        for _ in range(150):
            inst = random_instance(rng, rng.randint(2, 14))
            reduced, log, smap = run_to_fixed_point(inst, emit_inequalities=True)
            seen_events = set()
            for st in replay(inst, log.events):
                st.check_consistency()
                seen_events.add(st.events)
            survivors = st.free_variables()
            assert survivors == smap.survivors
            assert st.offset == reduced.offset
            assert _dense_reduced(st, survivors) == reduced
            for rec in log.inequality_records:
                assert rec.snapshot_id in seen_events
                mined += 1
        assert mined > 0


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
        smap = SolutionMap([], [(2, COMPLEMENT_OF, 1)], [1])
        assert reconstruct_solution(smap, {1: 0}) == {1: 0, 2: 1}

    def test_chain_through_fix(self):
        smap = SolutionMap(
            [(1, 1)],
            [(3, SAME_AS, 2), (2, COMPLEMENT_OF, 1)],
            [],
        )
        assert reconstruct_solution(smap, {}) == {1: 1, 2: 0, 3: 0}

    def test_wrong_survivor_cover_rejected(self):
        smap = SolutionMap([], [], [1, 2])
        with pytest.raises(ValueError):
            reconstruct_solution(smap, {1: 0})

    def test_unresolvable_reference_raises(self):
        smap = SolutionMap([], [(2, SAME_AS, 3)], [1])
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

    def test_early_stopping_pass_drops_nothing(self, monkeypatch):
        # run_to_fixed_point ends on a pass that dropped nothing and a
        # residual sweep that found nothing; it need not test early stops
        # separately because an early stop implies zero drops
        summaries = []
        run_pass = _Reducer.run_pass

        def recording(self, pass_no):
            summaries.append(run_pass(self, pass_no))
            return summaries[-1]

        monkeypatch.setattr(_Reducer, "run_pass", recording)
        instances = [sweep_instance(t) for t in range(1000)]
        for row in (1, 3, 5):
            spec = GeneratorSpec.from_design(2000, 20000, design_table()[row - 1], seed=42)
            instances.append(generate_instance(spec))
        for inst in instances:
            run_to_fixed_point(inst)
        early = [sm for sm in summaries if sm.early_stop]
        assert early, "no pass stopped early"
        assert all(sm.drops == 0 for sm in early)

    def test_pass_drop_counts_are_variables(self):
        _, log, smap = run_to_fixed_point(TRIPLE)
        assert sum(log.pass_drops) == 3 - len(smap.survivors)

    def test_live_count_strictly_decreasing_in_events(self):
        rng = random.Random(90)
        for _ in range(100):
            inst = random_instance(rng, rng.randint(2, 12))
            _, log, _ = run_to_fixed_point(inst)
            lives = [ev.live_after for ev in log.events]
            assert all(a > b for a, b in zip(lives, lives[1:]))
            passes = [ev.pass_number for ev in log.events]
            assert passes == sorted(passes)
