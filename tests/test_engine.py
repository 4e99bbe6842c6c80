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
        # both strongly-holds conditions of the complement rule hold with the
        # pair edge as the most negative one (1 + 2 - 2 >= 0, 1 - 2 + 0 <= 0),
        # so the pair never survives to the residual, which finds nothing
        inst = build_from_triplets(2, [(1, 1, 1), (2, 2, 1), (1, 2, -2)])
        state = init_state(inst)
        sched = ResidualScheduler(state.n)
        sched.refresh(state)
        assert sched.a_flag[1] and sched.b_flag[1]
        log = ReductionLog()
        run_first_pass(state, log)
        assert state.live_count == 0  # the pass resolves the pair entirely
        assert run_residual_pass(state, log) == 0

    def test_residual_finds_mixed_side_complement(self):
        # reduced passes find nothing: one side of the complement rule holds
        # strongly only for variable 1, the other side only for variable 2,
        # and the shared edge is not the most negative one on row 1
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
        assert run_residual_pass(state, log) == 1
        assert log.events[0].verdict.rule_id == "R2_6"

        reduced, log, smap = run_to_fixed_point(RESIDUAL_EQUAL)
        assert any(ev.verdict.rule_id == "R2_6" for ev in log.events)
        assert check_equivalence(RESIDUAL_EQUAL, reduced, smap).ok
        assert verify_fixed_point(init_state(reduced))

    def test_one_sweep_applies_every_hit(self):
        # two independent blocks, each needing one residual substitution:
        # a single sweep performs both instead of returning after the first
        inst = disjoint_union(RESIDUAL_COMPLEMENT, RESIDUAL_EQUAL)
        state = init_state(inst)
        log = ReductionLog()
        run_first_pass(state, log)
        assert not log.events
        assert run_residual_pass(state, log) == 2
        assert [ev.verdict.rule_id for ev in log.events] == ["R2_5", "R2_6"]
        assert log.pass_drops == [2]

        reduced, _, smap = run_to_fixed_point(inst)
        assert check_equivalence(inst, reduced, smap).ok
        assert verify_fixed_point(init_state(reduced))

    def test_disabling_residual_can_leave_firing_rules(self):
        state = init_state(RESIDUAL_COMPLEMENT)
        assert not verify_fixed_point(state)  # full rule 2.5 fires up front


@pytest.fixture
def probes(monkeypatch):
    """Every (pass, i, h) pair probe of the runs in a test, in order."""
    seen = []
    probe = _Reducer._try_pair

    def recording(self, pass_no, i, h):
        seen.append((pass_no, i, h))
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
            for pass_no, i, h in probes:
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
                    k for k, (_, i, h) in enumerate(in_pass)
                    if {i, h} == {concl.i, concl.h}
                )
                later = in_pass[fired_idx + 1:]
                assert all(concl.i not in (i, h) and concl.h not in (i, h)
                           for _, i, h in later)


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
