"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is exact
(integer arithmetic) unless a criterion is explicitly directional.
"""

import resource
import statistics
import time

import pytest

from conftest import (
    RESIDUAL_COMPLEMENT, RULE_SILENT, catalog_firings,
    check_verdict_against_optima, optima_by_enumeration, replay,
    restricted_optimum, run_first_pass, run_residual_pass, snapshot, sweep_instance,
)
from quboreduce import rules
from quboreduce.engine import (
    ReductionLog, mine_inequalities, run_to_fixed_point, verify_fixed_point,
)
from quboreduce.generator import GeneratorSpec, design_table, generate_instance
from quboreduce.model import build_from_triplets, evaluate, relabel
from quboreduce.oracle import brute_force_solve, check_equivalence
from quboreduce.state import init_state

SWEEP_SIZE = 1000


@pytest.fixture(scope="module")
def sweep():
    """The shared soundness sweep: reduce every instance once, keep artifacts."""
    results = []
    for t in range(SWEEP_SIZE):
        inst = sweep_instance(t)
        reduced, log, smap = run_to_fixed_point(inst)
        results.append((inst, reduced, log, smap))
    return results


def test_criterion_1_oracle_soundness_sweep(sweep):
    start = time.perf_counter()
    for t, (inst, reduced, log, smap) in enumerate(sweep):
        report = check_equivalence(inst, reduced, smap)
        assert report.ok, f"instance {t}: {report.message}"
    elapsed = time.perf_counter() - start
    print(f"\nACCEPTANCE 1: PASS - {SWEEP_SIZE} reductions exactly equivalent "
          f"(verification {elapsed:.0f}s)")


DERIVED_EXAMPLES_NOTE = """Each entry re-derives a worked example: rule
arithmetic, state update, or engine trace, asserted exactly."""


def _check_derived_examples():
    two = lambda c1, c2, d: build_from_triplets(
        2, [(1, 1, c1), (2, 2, c2)] + ([(1, 2, d)] if d else [])
    )
    # --- construction / evaluation / conversion
    inst = build_from_triplets(2, [(1, 1, 3), (2, 2, -2), (1, 2, 1), (2, 1, 1)])
    assert inst.linear == {1: 3, 2: -2} and inst.quadratic == {(1, 2): 2}
    assert evaluate(inst, (1, 1)) == 3 and evaluate(inst, (0, 1)) == -2
    ising1 = __import__("quboreduce").ising_to_qubo(1, (1,))
    assert ising1.linear == {1: 2} and ising1.offset == -1
    ising2 = __import__("quboreduce").ising_to_qubo(2, (0, 0), {(1, 2): 1})
    assert ising2.quadratic == {(1, 2): 4} and ising2.linear == {1: -2, 2: -2}
    assert ising2.offset == 1
    res = brute_force_solve(inst)
    assert res.optimum == 3 and sorted(res.optima) == [(1, 0), (1, 1)]

    # --- state bookkeeping
    st = init_state(two(1, 1, -2))
    assert st.d_minus[1:] == [-2, -2] and st.d_plus[1:] == [0, 0]
    triple = build_from_triplets(
        3, [(1, 1, 1), (2, 2, 1), (3, 3, 2), (1, 2, -2), (2, 3, 1)]
    )
    st = init_state(triple)
    assert st.d_minus[1:] == [-2, -2, 0] and st.d_plus[1:] == [0, 1, 1]
    st = init_state(two(3, -2, 2))
    st.apply_fix(1, 1)
    assert st.offset == 3 and st.c[2] == 0 and st.d_plus[2] == 0
    st = init_state(triple)
    st.apply_fix(2, 1)
    assert (st.offset, st.c[1], st.c[3]) == (1, -1, 3)
    assert st.d_minus[1] == 0 and st.d_plus[3] == 0
    st = init_state(triple)
    st.apply_substitution_complement(1, 2)
    assert (st.offset, st.c[1], st.c[3]) == (1, 0, 3)
    assert st.adj[1].get(3) == -1
    assert brute_force_solve(snapshot(st)).optimum == 4
    assert brute_force_solve(triple).optimum == 4
    st = init_state(two(-1, -1, 2))
    st.apply_substitution_equal(1, 2)
    assert st.c[1] == 0 and not st.adj[1]
    st = init_state(build_from_triplets(
        3, [(1, 1, -1), (2, 2, -1), (3, 3, 1), (1, 2, 2), (1, 3, 1), (2, 3, -1)]
    ))
    st.apply_substitution_equal(1, 2)
    assert st.c[1] == 0 and 3 not in st.adj[1]
    st = init_state(build_from_triplets(3, [(1, 2, 5), (1, 3, 3)]))
    st.apply_fix(2, 0)
    assert st.max_val[1] == 3

    # --- rule arithmetic
    st = init_state(two(1, 1, -2))
    assert rules.rule_fix_one(st, 1) is None
    st = init_state(two(2, 0, -2))
    v = rules.rule_fix_one(st, 1)
    assert v is not None and not v.unique
    got = {x.rule_id for x in rules.derive_pair_inequalities(init_state(two(1, 1, -2)), 1, 2)}
    assert got == {"R2_1", "R2_1p", "R1_2", "R1_2p"}
    got2 = {x.rule_id for x in rules.derive_pair_inequalities(init_state(two(-1, -1, 2)), 1, 2)}
    assert {"R1_1", "R1_1p"} <= got2
    row = rules.PAIR_RULES_BY_ID
    assert row["R2_5"].probe(init_state(two(1, 1, -2)), 1, 2).unique
    assert row["R2_5"].probe(init_state(two(1, 1, -1)), 1, 2) is not None
    assert row["R2_6"].probe(init_state(two(-1, -1, 2)), 1, 2) is not None
    assert row["R2_6"].probe(init_state(two(-1, -1, 1)), 1, 2) is not None
    assert row["R3_1"].probe(init_state(two(-2, -2, 3)), 1, 2).unique
    assert not row["R3_1"].probe(init_state(two(-1, -1, 2)), 1, 2).unique
    assert row["R3_1"].probe(init_state(two(-1, -1, 4)), 1, 2) is None
    assert row["R3_2"].probe(init_state(two(2, 1, -3)), 1, 2).conclusion \
        == ((1, 1, 0, 1), (2, 0, 0, 2))
    assert row["R3_2"].probe(init_state(two(2, 1, -3)), 2, 1) is None
    assert not row["R3_2"].probe(init_state(two(1, 1, -2)), 1, 2).unique
    assert row["R3_4"].probe(init_state(two(-1, -1, 3)), 1, 2).unique
    assert not row["R3_4"].probe(init_state(two(-1, -1, 2)), 1, 2).unique
    assert row["R3_4"].probe(init_state(two(-3, -3, 2)), 1, 2) is None
    st = init_state(two(1, 1, -2))
    ineqs = {x.rule_id: x for x in rules.derive_pair_inequalities(st, 1, 2)}
    assert rules.m_lower_bound(st, ineqs["R2_1"]) == 1
    assert rules.m_lower_bound(st, ineqs["R1_2"]) == 1

    # --- penalty rewrites
    out = rules.penalty_rewrite(two(1, 1, -2), rules.InequalityKind.AT_MOST_ONE, 1, 2, 2)
    assert out.quadratic == {(1, 2): -2}
    assert brute_force_solve(out).optimum == 1
    out = rules.penalty_rewrite(two(1, 1, -2), rules.InequalityKind.AT_LEAST_ONE, 1, 2, 2)
    assert out.linear == {1: 2, 2: 2} and out.quadratic == {(1, 2): -2} and out.offset == 2
    out = rules.penalty_rewrite(two(-1, -1, 5), rules.InequalityKind.H_LE_I, 1, 2, 10)
    _, optima = optima_by_enumeration(out)
    assert all(x[1] <= x[0] for x in optima)

    # --- engine traces
    state = init_state(triple)
    log = ReductionLog()
    run_first_pass(state, log)
    assert [(ev.verdict.rule_id, ev.verdict.conclusion) for ev in log.events] == [
        ("R3_2", ((2, 1, 0, 2), (1, 0, 0, 1))), ("R1_0", ((3, 1, 0, 3),))
    ]
    assert state.offset == 4 and state.live_count == 0
    state = init_state(two(3, -2, 2))
    log = ReductionLog()
    run_first_pass(state, log)
    assert [ev.verdict.rule_id for ev in log.events] == ["R1_0", "R2_0"]
    assert state.offset == 3
    reduced, log, smap = run_to_fixed_point(triple)
    assert reduced.n == 0 and reduced.offset == 4
    full = __import__("quboreduce").reconstruct_solution(smap, {})
    assert [full[i] for i in (1, 2, 3)] == [0, 1, 1]
    assert verify_fixed_point(init_state(RULE_SILENT))
    _, log_silent, smap_silent = run_to_fixed_point(RULE_SILENT)
    assert not log_silent.events and smap_silent.survivors == [1, 2, 3]
    # residual catches the mixed-side complement combination
    state = init_state(RESIDUAL_COMPLEMENT)
    log = ReductionLog()
    run_first_pass(state, log)
    assert not log.events
    assert run_residual_pass(state, log) == 1


def test_criterion_2_rule_micro_suite(sweep):
    _check_derived_examples()

    firing_occurrences = {rid: 0 for rid in rules.ALL_RULE_IDS}
    firing_instances = {rid: set() for rid in rules.ALL_RULE_IDS}
    checked = 0
    for t, (inst, reduced, log, smap) in enumerate(sweep):
        for state in replay(inst, log.events):
            snap = snapshot(state)
            st = init_state(snap)
            firings = catalog_firings(st)
            if not firings:
                continue
            optima = None
            if inst.n <= 12:
                optima = brute_force_solve(snap).optima
            for verdict in firings:
                firing_occurrences[verdict.rule_id] += 1
                firing_instances[verdict.rule_id].add(t)
                if optima is not None:
                    assert check_verdict_against_optima(verdict, optima), (
                        f"instance {t}: {verdict} inconsistent with optima"
                    )
                    checked += 1
    lacking = {rid: c for rid, c in firing_occurrences.items() if c < 100}
    assert not lacking, f"rules with fewer than 100 firings: {lacking}"
    assert checked > 10000
    per_instance = {rid: len(s) for rid, s in firing_instances.items()}
    print(f"\nACCEPTANCE 2: PASS - derived examples exact; every rule fired "
          f">=100 times across the sweep (occurrences {min(firing_occurrences.values())}+"
          f", instances touched {per_instance}); {checked} firings oracle-checked")


def test_criterion_3_fixed_point_completeness(sweep):
    for t, (inst, reduced, log, smap) in enumerate(sweep):
        assert verify_fixed_point(init_state(reduced)), f"instance {t} not at fixed point"
        again, log2, _ = run_to_fixed_point(reduced)
        assert not log2.events, f"instance {t} rerun produced events"
        assert again == reduced
    print(f"\nACCEPTANCE 3: PASS - all {SWEEP_SIZE} runs verify as fixed points; "
          f"reruns produce zero events")


def test_criterion_4_compensation_term_regression(uncompensated_complement):
    # With the compensation term dropped, soundness must break on some
    # instance whose run eliminates a variable of degree >= 2 by the
    # complement substitution; with it in place (criterion 1) there are none.
    broke = None
    for t in range(SWEEP_SIZE):
        inst = sweep_instance(t)
        reduced, log, smap = run_to_fixed_point(inst)
        degree2 = False
        for state, ev in zip(replay(inst, log.events), log.events):
            if ev.verdict.rule_id != rules.R2_5:
                continue
            snap = snapshot(state)
            h = ev.verdict.conclusion[0][0]
            deg = sum(1 for pair in snap.quadratic if h in pair)
            if deg >= 2:
                degree2 = True
        if not degree2:
            continue
        report = check_equivalence(inst, reduced, smap)
        if not report.ok:
            broke = (t, report.message)
            break
    assert broke is not None, (
        "dropping the complement compensation term never broke soundness"
    )
    print(f"\nACCEPTANCE 4: PASS - compensation term pinned: dropping it breaks "
          f"instance {broke[0]} ({broke[1]})")


def test_criterion_5_directional_reductions():
    rows = design_table()
    by_linmult = {5: [], 10: []}
    full_reductions = 0
    first_two_fraction = []
    for row_id, row in enumerate(rows, start=1):
        for seed in range(10):
            spec = GeneratorSpec.from_design(100, 500, row, seed=seed)
            inst = generate_instance(spec)
            reduced, log, smap = run_to_fixed_point(inst)
            pct = 100.0 * (inst.n - len(smap.survivors)) / inst.n
            by_linmult[row.linear_multiplier].append(pct)
            if not smap.survivors:
                full_reductions += 1
            dropped = inst.n - len(smap.survivors)
            if dropped:
                first_two_fraction.append(sum(log.pass_drops[:2]) / dropped)
    low = statistics.mean(by_linmult[5])
    high = statistics.mean(by_linmult[10])
    assert low > high, f"(a) low-multiplier mean {low:.2f} <= high {high:.2f}"
    assert full_reductions >= 1, "(b) no instance reduced 100%"
    early = statistics.mean(first_two_fraction)
    assert early >= 0.5, f"(c) only {early:.2f} of reductions in first two passes"
    print(f"\nACCEPTANCE 5: PASS - (a) low {low:.1f}% > high {high:.1f}%; "
          f"(b) {full_reductions}/160 fully reduced; "
          f"(c) {100 * early:.0f}% of reductions in first two passes")


def test_criterion_6_penalty_correctness():
    kinds = {
        rules.InequalityKind.AT_MOST_ONE: lambda x, i, h: x[i - 1] + x[h - 1] <= 1,
        rules.InequalityKind.I_LE_H: lambda x, i, h: x[i - 1] <= x[h - 1],
        rules.InequalityKind.H_LE_I: lambda x, i, h: x[h - 1] <= x[i - 1],
    }
    instances_checked = 0
    records_checked = 0
    t = 0
    while instances_checked < 200:
        t += 1
        inst = sweep_instance(100000 + t)
        if inst.n > 12:
            continue
        # Mined on the reduced instance over the original ids, as reduce
        # --emit-inequalities writes them.
        reduced, _, smap = run_to_fixed_point(inst)
        on_ids = relabel(reduced, range(1, reduced.n + 1), smap.survivors, inst.n)
        qualifying = [rec for rec in mine_inequalities(on_ids)
                      if rec.verdict.conclusion.kind in kinds]
        if not qualifying:
            continue
        instances_checked += 1
        for rec in qualifying[:4]:
            concl = rec.verdict.conclusion
            i, h, kind = concl.i, concl.h, concl.kind
            penalized = rules.penalty_rewrite(on_ids, kind, i, h, rec.m_bound + 1)
            best, optima = optima_by_enumeration(penalized)
            assert all(kinds[kind](x, i, h) for x in optima), (
                f"instance {t}: penalized optimum violates {kind}"
            )
            want = restricted_optimum(on_ids, lambda x: kinds[kind](x, i, h))
            assert best == want, (
                f"instance {t}: penalized optimum {best} != restricted {want}"
            )
            records_checked += 1
    print(f"\nACCEPTANCE 6: PASS - {records_checked} mined penalties on "
          f"{instances_checked} instances force their inequality and preserve "
          f"the restricted optimum exactly")


def test_criterion_7_performance_envelope():
    spec = GeneratorSpec.from_design(10000, 100000, design_table()[0], seed=42)
    start = time.perf_counter()
    inst = generate_instance(spec)
    reduced, log, smap = run_to_fixed_point(inst)
    elapsed = time.perf_counter() - start
    assert inst.num_edges == 100000
    assert elapsed < 30.0, f"generate+reduce took {elapsed:.1f}s"
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert peak_mb < 2000, f"peak RSS {peak_mb:.0f} MiB"
    print(f"\nACCEPTANCE 7: PASS - 10000-variable, 100000-edge instance generated "
          f"and reduced in {elapsed:.1f}s ({10000 - len(smap.survivors)} variables "
          f"eliminated over {log.pass_count} passes; peak RSS {peak_mb:.0f} MiB)")


def test_criterion_8_generator_fidelity():
    spec = GeneratorSpec.from_design(1000, 5000, design_table()[0], seed=42)
    a = generate_instance(spec)
    b = generate_instance(spec)
    assert a == b, "same seed must reproduce coefficient-for-coefficient"
    assert a.num_edges == 5000
    assert len(a.linear) == 250
    parent = list(range(1001))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, j in a.quadratic:
        parent[find(i)] = find(j)
    assert len({find(v) for v in range(1, 1001)}) == 1, "graph must be connected"
    degree = [0] * 1001
    for i, j in a.quadratic:
        degree[i] += 1
        degree[j] += 1
    ranked = sorted(degree[1:], reverse=True)
    hubs, rest = ranked[:10], ranked[10:]
    assert min(hubs) >= 3 * (sum(rest) / len(rest)), "ten hub nodes must dominate"
    print(f"\nACCEPTANCE 8: PASS - 1000L exact: 5000 edges, connected, 250 nonzero "
          f"linear terms, 10 hubs (degrees {min(hubs)}..{max(hubs)}), deterministic")
