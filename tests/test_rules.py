import random

import pytest

from conftest import (
    catalog_firings as _catalog_firings, check_verdict_against_optima,
    optima_by_enumeration, random_instance, reduction_firings, replay,
    restricted_optimum, shuffled_instance, snapshot, sweep_instance,
)
from quboreduce import rules
from quboreduce.engine import ReductionLog, _Reducer, mine_inequalities, run_to_fixed_point
from quboreduce.model import build_from_triplets, relabel
from quboreduce.rules import (
    Inequality, InequalityKind, RuleVerdict, derive_pair_inequalities, m_lower_bound,
    penalty_rewrite, rule_fix_one, rule_fix_zero,
)
from quboreduce.state import ReductionState, init_state

# A pair rule is called through its table row.
ROW = rules.PAIR_RULES_BY_ID


def two_var(c1, c2, d12):
    entries = [(1, 1, c1), (2, 2, c2)]
    if d12:
        entries.append((1, 2, d12))
    return build_from_triplets(2, entries)


def state_of(*triplets, n=None):
    n = n or max(max(i, j) for i, j, _ in triplets)
    return init_state(build_from_triplets(n, list(triplets)))


class TestSlacks:
    def test_slacks_bound_the_contribution(self):
        rng = random.Random(1)
        for _ in range(100):
            st = init_state(random_instance(rng, rng.randint(1, 8)))
            for i in range(1, st.n + 1):
                u, w = rules.slacks(st, i)
                assert -w <= u
                assert -w == st.c[i] + st.d_minus[i]
                assert u == st.c[i] + st.d_plus[i]


class TestSingleVariableRules:
    def test_fix_one_no_negative_edges(self):
        st = state_of((1, 1, 5), (1, 2, 3))
        v = rule_fix_one(st, 1)
        assert v == RuleVerdict("R1_0", (1, 1), ((1, 1, 0, 1),), True)

    def test_fix_one_silent_when_negative_mass_wins(self):
        st = init_state(two_var(1, 1, -2))
        assert rule_fix_one(st, 1) is None

    def test_fix_one_boundary_not_unique(self):
        st = state_of((1, 1, 2), (1, 2, -2))
        v = rule_fix_one(st, 1)
        assert v is not None and not v.unique
        _, optima = optima_by_enumeration(snapshot(st))
        assert any(x[0] == 1 for x in optima)

    def test_fix_zero_no_positive_edges(self):
        st = state_of((1, 1, -5), (1, 2, -3))
        v = rule_fix_zero(st, 1)
        assert v == RuleVerdict("R2_0", (1, 1), ((1, 0, 0, 1),), True)

    def test_fix_zero_silent(self):
        st = init_state(two_var(-1, -1, 2))
        assert rule_fix_zero(st, 1) is None

    def test_fix_zero_boundary(self):
        st = init_state(two_var(0, 1, -1))
        v = rule_fix_zero(st, 1)
        assert v is not None and not v.unique


class TestPairInequalities:
    def test_negative_edge_yields_all_four(self):
        st = init_state(two_var(1, 1, -2))
        got = {(v.rule_id, v.conclusion.kind) for v in derive_pair_inequalities(st, 1, 2)}
        assert got == {
            ("R2_1", InequalityKind.AT_MOST_ONE),
            ("R2_1p", InequalityKind.AT_MOST_ONE),
            ("R1_2", InequalityKind.AT_LEAST_ONE),
            ("R1_2p", InequalityKind.AT_LEAST_ONE),
        }
        _, optima = optima_by_enumeration(snapshot(st))
        assert sorted(optima) == [(0, 1), (1, 0)]

    def test_positive_edge_directional(self):
        st = init_state(two_var(-1, -1, 2))
        got = {(v.rule_id, v.conclusion.kind) for v in derive_pair_inequalities(st, 1, 2)}
        # R1_1 / R1_1p fire as in the worked example; the mirrored value
        # rules R2_2 / R2_2p fire here as well by direct arithmetic.
        assert ("R1_1", InequalityKind.H_LE_I) in got
        assert ("R1_1p", InequalityKind.I_LE_H) in got
        assert got == {
            ("R1_1", InequalityKind.H_LE_I),
            ("R1_1p", InequalityKind.I_LE_H),
            ("R2_2", InequalityKind.I_LE_H),
            ("R2_2p", InequalityKind.H_LE_I),
        }
        _, optima = optima_by_enumeration(snapshot(st))
        assert sorted(optima) == [(0, 0), (1, 1)]

    def test_absent_edge_yields_nothing(self):
        st = init_state(build_from_triplets(2, [(1, 1, 1), (2, 2, 1)]))
        assert derive_pair_inequalities(st, 1, 2) == []

    def test_canonicalized_under_argument_swap(self):
        rng = random.Random(2)
        for _ in range(100):
            st = init_state(random_instance(rng, rng.randint(2, 8)))
            for i in range(1, st.n + 1):
                for h in st.adj[i]:
                    if i < h:
                        assert (derive_pair_inequalities(st, i, h)
                                == derive_pair_inequalities(st, h, i))


class TestProbe:
    def test_engine_groups_follow_the_table(self):
        assert [r.rule_id for r in rules.PAIR_ASSIGNMENTS[True]] == ["R3_1", "R3_4"]
        assert [r.rule_id for r in rules.PAIR_ASSIGNMENTS[False]] == ["R3_2", "R3_3"]
        assert (rules.SUBSTITUTION[True].rule_id, rules.SUBSTITUTION[False].rule_id) \
            == ("R2_6", "R2_5")

    def test_absent_edge_is_silent(self):
        st = state_of((1, 2, 1), n=3)  # every threshold at (1, 3) is 0 or 1
        for row in rules.PAIR_RULES:
            assert row.probe(st, 1, 3) is None and row.probe(st, 3, 1) is None

    def test_edge_of_the_other_sign_is_silent(self):
        for c1, d in ((0, 5), (5, -5)):
            st = init_state(two_var(c1, 0, d))
            slack = (*rules.slacks(st, 1), *rules.slacks(st, 2))
            for row in rules.PAIR_RULES:
                if row.sign * d < 0:
                    # the threshold alone would fire on |d|
                    assert row.judge(abs(d), 1, 2, *slack) is not None
                    assert row.probe(st, 1, 2) is None


class TestComplementPair:
    def test_fires_on_antagonistic_pair(self):
        st = init_state(two_var(1, 1, -2))
        v = ROW["R2_5"].probe(st, 1, 2)
        assert v is not None and v.rule_id == "R2_5"
        assert v.edge == (1, 2) and v.conclusion == ((2, 1, -1, 1),)
        assert v.unique
        _, optima = optima_by_enumeration(snapshot(st))
        assert all(x[0] + x[1] == 1 for x in optima)

    def test_fires_at_boundary_not_unique(self):
        st = init_state(two_var(1, 1, -1))
        v = ROW["R2_5"].probe(st, 1, 2)
        assert v is not None and not v.unique
        _, optima = optima_by_enumeration(snapshot(st))
        assert any(x[0] + x[1] == 1 for x in optima)

    def test_positive_edge_silent(self):
        st = init_state(two_var(1, 1, 2))
        assert ROW["R2_5"].probe(st, 1, 2) is None

    def test_symmetric_in_arguments(self):
        rng = random.Random(3)
        for _ in range(150):
            st = init_state(random_instance(rng, rng.randint(2, 8)))
            for i in range(1, st.n + 1):
                for h in st.adj[i]:
                    if i < h:
                        a = ROW["R2_5"].probe(st, i, h)
                        b = ROW["R2_5"].probe(st, h, i)
                        assert (a is None) == (b is None)
                        if a is not None:
                            assert a.unique == b.unique


class TestEqualPair:
    def test_fires_on_aligned_pair(self):
        st = init_state(two_var(-1, -1, 2))
        v = ROW["R2_6"].probe(st, 1, 2)
        assert v is not None and v.edge == (1, 2) and v.conclusion == ((2, 0, 1, 1),)
        _, optima = optima_by_enumeration(snapshot(st))
        assert all(x[0] == x[1] for x in optima)

    def test_fires_at_boundary(self):
        st = init_state(two_var(-1, -1, 1))
        v = ROW["R2_6"].probe(st, 1, 2)
        assert v is not None
        _, optima = optima_by_enumeration(snapshot(st))
        assert any(x[0] == x[1] for x in optima)

    def test_negative_edge_silent(self):
        st = init_state(two_var(-1, -1, -2))
        assert ROW["R2_6"].probe(st, 1, 2) is None

    def test_symmetric_in_arguments(self):
        rng = random.Random(4)
        for _ in range(150):
            st = init_state(random_instance(rng, rng.randint(2, 8)))
            for i in range(1, st.n + 1):
                for h in st.adj[i]:
                    if i < h:
                        a = ROW["R2_6"].probe(st, i, h)
                        b = ROW["R2_6"].probe(st, h, i)
                        assert (a is None) == (b is None)


class TestPairAssignments:
    def test_pair_zero_fires(self):
        st = init_state(two_var(-2, -2, 3))
        v = ROW["R3_1"].probe(st, 1, 2)
        assert v == RuleVerdict("R3_1", (1, 2), ((1, 0, 0, 1), (2, 0, 0, 2)), True)
        best, optima = optima_by_enumeration(snapshot(st))
        assert best == 0 and optima == [(0, 0)]

    def test_pair_zero_boundary(self):
        st = init_state(two_var(-1, -1, 2))
        v = ROW["R3_1"].probe(st, 1, 2)
        assert v is not None and not v.unique
        _, optima = optima_by_enumeration(snapshot(st))
        assert sorted(optima) == [(0, 0), (1, 1)]

    def test_pair_zero_silent(self):
        st = init_state(two_var(-1, -1, 4))
        assert ROW["R3_1"].probe(st, 1, 2) is None
        best, optima = optima_by_enumeration(snapshot(st))
        assert best == 2 and optima == [(1, 1)]

    def test_pair_one_zero_orientations(self):
        st = init_state(two_var(2, 1, -3))
        v = ROW["R3_2"].probe(st, 1, 2)
        assert v == RuleVerdict("R3_2", (1, 2), ((1, 1, 0, 1), (2, 0, 0, 2)), True)
        assert ROW["R3_2"].probe(st, 2, 1) is None
        best, optima = optima_by_enumeration(snapshot(st))
        assert best == 2 and optima == [(1, 0)]

    def test_pair_one_zero_boundary(self):
        st = init_state(two_var(1, 1, -2))
        v = ROW["R3_2"].probe(st, 1, 2)
        assert v is not None and not v.unique
        _, optima = optima_by_enumeration(snapshot(st))
        assert (1, 0) in optima

    def test_pair_one_fires(self):
        st = init_state(two_var(-1, -1, 3))
        v = ROW["R3_4"].probe(st, 1, 2)
        assert v == RuleVerdict("R3_4", (1, 2), ((1, 1, 0, 1), (2, 1, 0, 2)), True)
        best, optima = optima_by_enumeration(snapshot(st))
        assert best == 1 and optima == [(1, 1)]

    def test_pair_one_boundary(self):
        st = init_state(two_var(-1, -1, 2))
        v = ROW["R3_4"].probe(st, 1, 2)
        assert v is not None and not v.unique

    def test_pair_one_silent(self):
        st = init_state(two_var(-3, -3, 2))
        assert ROW["R3_4"].probe(st, 1, 2) is None
        best, optima = optima_by_enumeration(snapshot(st))
        assert best == 0 and optima == [(0, 0)]

    def test_rule_3_3_equivalence(self):
        # the swapped call fires exactly when the printed mirrored condition holds
        rng = random.Random(6)
        for _ in range(300):
            st = init_state(random_instance(rng, rng.randint(2, 8)))
            c, dm, dp = st.c, st.d_minus, st.d_plus
            for i in range(1, st.n + 1):
                for h, d in st.adj[i].items():
                    if d >= 0:
                        continue
                    printed = c[i] - c[h] + d + dp[i] - dm[h] <= 0
                    v = ROW["R3_2"].probe(st, h, i)
                    assert (v is not None) == printed

    def test_sign_preconditions_exclusive(self):
        rng = random.Random(8)
        for _ in range(200):
            st = init_state(random_instance(rng, rng.randint(2, 8)))
            for i in range(1, st.n + 1):
                for h in st.adj[i]:
                    if h < i:
                        continue
                    comp = ROW["R2_5"].probe(st, i, h)
                    eq = ROW["R2_6"].probe(st, i, h)
                    assert comp is None or eq is None
                    zero_or_one = ROW["R3_1"].probe(st, i, h) or ROW["R3_4"].probe(st, i, h)
                    swap = ROW["R3_2"].probe(st, i, h) or ROW["R3_2"].probe(st, h, i)
                    assert zero_or_one is None or swap is None


# Targeted coefficient regimes that make each rule family fire often enough.
_REGIMES = (
    dict(n=(2, 6), coef=6, density=0.9),
    dict(n=(2, 10), coef=10, density=0.4),
    dict(n=(6, 12), coef=4, density=0.25),
)


PREDICATES = {rid: ROW[rid].probe for rid in ("R3_1", "R3_4", "R2_6", "R3_2", "R3_3", "R2_5")}


def screen_rejects_a_firing_edge(st) -> str | None:
    """An edge where a pair verdict exists but the slack screen fails, if any."""
    for verdict in reduction_firings(st):
        i, h = verdict.edge
        if i != h and not rules.pair_may_fire(st, i, h):
            return f"{verdict} at events={st.events}"
    for i in st.free_variables():
        for h in st.adj[i]:
            verdicts = derive_pair_inequalities(st, i, h)
            verdicts += [v for rule in PREDICATES.values() if (v := rule(st, i, h))]
            if verdicts and not rules.pair_may_fire(st, i, h):
                return f"{verdicts[0]} at events={st.events}"
    return None


class TestSlackScreen:
    @pytest.mark.parametrize("d, passes", [(-1, False), (-2, False), (-3, True)])
    def test_boundary_of_the_screen(self, d, passes):
        # Rows 1 and 2 have c = 3 and a -4 edge to 3, so s0 = 3 and
        # -s1 = 1 - d on both: t = min(3, 1 - d) is 2, 3, 3 for d = -1, -2, -3.
        st = state_of((1, 1, 3), (2, 2, 3), (3, 3, 4), (1, 2, d), (1, 3, -4), (2, 3, -4))
        assert rules.pair_may_fire(st, 1, 2) is passes
        assert rules.pair_may_fire(st, 2, 1) is passes
        assert screen_rejects_a_firing_edge(st) is None
        # At |d| = t, R2_1 fires with equality, so the screen must not be strict.
        fired = [(v.rule_id, v.unique) for v in derive_pair_inequalities(st, 1, 2)]
        assert (("R2_1", False) in fired) is passes

    def test_screen_passes_every_firing_edge_of_the_sweep(self):
        # Every replayed state of the acceptance sweep's runs, and every pair
        # mined on the final one.
        for t in range(1000):
            inst = sweep_instance(t)
            reduced, log, smap = run_to_fixed_point(inst)
            for st in replay(inst, log.events):
                assert screen_rejects_a_firing_edge(st) is None, f"instance {t}"
            on_ids = relabel(reduced, range(1, reduced.n + 1), smap.survivors, inst.n)
            for rec in mine_inequalities(on_ids):
                concl = rec.verdict.conclusion
                assert rules.pair_may_fire(st, concl.i, concl.h), f"instance {t}"

    def test_screen_passes_every_firing_edge_on_tie_heavy_states(self):
        rng = random.Random(2024)
        for _ in range(400):
            inst = random_instance(rng, rng.randint(2, 12), coef=2)
            _, log, _ = run_to_fixed_point(inst)
            for st in replay(inst, log.events):
                assert screen_rejects_a_firing_edge(st) is None


def pass_bound_counterexample(st) -> str | None:
    """A pair-assignment firing outside the scan pass's bound, if any.

    Between free variables whose slacks are positive, with s_v = min(u_v, w_v),
    a row of :data:`rules.PAIR_ASSIGNMENTS` fires on (i, h) only if
    |d| >= s_i + s_h, so never on a row i with max(max_val, -min_val) <= s_i.
    """
    s = {v: min(rules.slacks(st, v)) for v in st.free_variables()}
    for i in st.free_variables():
        for h, d in st.adj[i].items():
            if min(s[i], s[h]) <= 0:
                continue
            for rule in rules.PAIR_ASSIGNMENTS[d > 0]:
                if rule.probe(st, i, h) is None:
                    continue
                if abs(d) < s[i] + s[h]:
                    return f"{rule.rule_id} on ({i}, {h}) below s_i + s_h"
                if max(st.max_val[i], -st.min_val[i]) <= s[i]:
                    return f"{rule.rule_id} on ({i}, {h}) in a row within s_i"
    return None


def one_row_pass(instance, i) -> tuple[list, list]:
    """What a pass that examines row i alone applies, and what it should.

    No variable of the instance fixes, and every row but i counts as
    examined unchanged.  The pass should apply the first pair-assignment
    firing on row i, in row order.
    """
    st = init_state(instance)
    reducer = _Reducer(st, ReductionLog())
    reducer.stamps = st.touched.copy()
    reducer.stamps[i] = -1
    want = [v for h, d in st.adj[i].items()
            for v in (rule.probe(st, i, h) for rule in rules.PAIR_ASSIGNMENTS[d > 0]) if v]
    reducer.run_pass(1)
    return [ev.verdict for ev in reducer.log.events], want[:1]


class TestPassBound:
    """The bound by which a scan pass skips a pair or a whole row."""

    def test_on_tie_heavy_and_large_states(self):
        rng = random.Random(27)
        instances = [random_instance(rng, rng.randint(2, 12), coef=2) for _ in range(150)]
        instances += [shuffled_instance(rng, scale) for scale in (1, 2**62, 10**30)
                      for _ in range(20)]
        seen = {"fired": 0, "at s_i + s_h": 0}
        for inst in instances:
            _, log, _ = run_to_fixed_point(inst)
            for st in replay(inst, log.events):
                assert pass_bound_counterexample(st) is None, f"events={st.events}"
                if any(min(rules.slacks(st, v)) <= 0 for v in st.free_variables()):
                    continue
                snap = snapshot(st)
                for i in st.free_variables():
                    got, want = one_row_pass(snap, i)
                    assert got == want, f"row {i} at events={st.events}"
                    seen["fired"] += len(got)
                    for v in got:
                        a, b = v.edge
                        seen["at s_i + s_h"] += abs(st.adj[a][b]) == sum(
                            min(rules.slacks(st, x)) for x in v.edge)
        assert min(seen.values()) > 0, seen


# The paper's closed forms, written out independently of rules.PAIR_RULES.
# Soundness checks cannot catch a threshold that is too strict (the rule then
# fires less often but stays sound), so the table is compared with these.


def _two_sided(lower, upper):
    """(fires, unique, M bound) of a substitution: one condition from each side.

    Each side lists (value, holds when value >= 0?, bound of that condition).
    """
    def met(v, ge):
        return v >= 0 if ge else v <= 0

    def strict(v, ge):
        return v > 0 if ge else v < 0

    fires = any(met(v, ge) for v, ge, _ in lower) and any(met(v, ge) for v, ge, _ in upper)
    unique = (any(strict(v, ge) for v, ge, _ in lower)
              and any(strict(v, ge) for v, ge, _ in upper))
    bound = None
    if fires:
        bound = max(min(b for v, ge, b in lower if met(v, ge)),
                    min(b for v, ge, b in upper if met(v, ge)))
    return fires, unique, bound


def paper_pair_rules(st, i, h):
    """{rule id: (fires, unique, M bound)} for the reduction rules on (i, h)."""
    c, dm, dp = st.c, st.d_minus, st.d_plus
    d = st.adj[i][h]
    if d > 0:
        r31 = c[i] + c[h] - d + dp[i] + dp[h]
        r34 = -c[i] - c[h] - d - dm[i] - dm[h]
        return {
            "R3_1": (r31 <= 0, r31 < 0, max(0, c[i] + c[h] + dp[i] + dp[h])),
            "R3_4": (r34 <= 0, r34 < 0, max(0, -c[i] - c[h] - dm[i] - dm[h])),
            "R2_6": _two_sided(
                [(c[i] - d + dp[i], False, max(0, c[i] + dp[i])),
                 (c[h] + d + dm[h], True, max(0, -(c[h] + dm[h])))],
                [(c[i] + d + dm[i], True, max(0, -(c[i] + dm[i]))),
                 (c[h] - d + dp[h], False, max(0, c[h] + dp[h]))],
            ),
        }
    r32 = -c[i] + c[h] + d - dm[i] + dp[h]
    r33 = c[i] - c[h] + d + dp[i] - dm[h]
    return {
        "R3_2": (r32 <= 0, r32 < 0, max(0, -c[i] + c[h] - dm[i] + dp[h])),
        "R3_3": (r33 <= 0, r33 < 0, max(0, c[i] - c[h] + dp[i] - dm[h])),
        "R2_5": _two_sided(
            [(c[i] - d + dm[i], True, max(0, -(c[i] + dm[i]))),
             (c[h] - d + dm[h], True, max(0, -(c[h] + dm[h])))],
            [(c[i] + d + dp[i], False, max(0, c[i] + dp[i])),
             (c[h] + d + dp[h], False, max(0, c[h] + dp[h]))],
        ),
    }


def paper_inequalities(st, i, h):
    """{rule id: (unique, M bound)} of the inequality rules that fire on (i, h), i < h."""
    c, dm, dp = st.c, st.d_minus, st.d_plus
    d = st.adj[i][h]
    if d > 0:
        forms = {  # value, fires when value >= 0?, M bound
            "R1_1": (c[i] + d + dm[i], True, -(c[i] + dm[i])),
            "R1_1p": (c[h] + d + dm[h], True, -(c[h] + dm[h])),
            "R2_2": (c[i] - d + dp[i], False, c[i] + dp[i]),
            "R2_2p": (c[h] - d + dp[h], False, c[h] + dp[h]),
        }
    else:
        forms = {
            "R2_1": (c[i] + d + dp[i], False, c[i] + dp[i]),
            "R2_1p": (c[h] + d + dp[h], False, c[h] + dp[h]),
            "R1_2": (c[i] - d + dm[i], True, -(c[i] + dm[i])),
            "R1_2p": (c[h] - d + dm[h], True, -(c[h] + dm[h])),
        }
    return {
        rid: (v > 0 if ge else v < 0, max(0, b))
        for rid, (v, ge, b) in forms.items() if (v >= 0 if ge else v <= 0)
    }


def table_disagrees_with_paper(st) -> str | None:
    """An ordered pair of free neighbours where a table row and its closed form differ."""
    for i in st.free_variables():
        for h in st.adj[i]:
            want = paper_pair_rules(st, i, h)
            for rid, predicate in PREDICATES.items():
                v = predicate(st, i, h)
                if rid not in want:
                    if v is not None:
                        return f"{rid} fired on an edge of the wrong sign: ({i}, {h})"
                    continue
                fires, unique, bound = want[rid]
                got = (v is not None, v.unique, m_lower_bound(st, v)) if v else (False,)
                if got != ((fires, unique, bound) if fires else (False,)):
                    return f"{rid} on ({i}, {h}) at events={st.events}: {got} != {want[rid]}"
            if i < h:
                got = {v.rule_id: (v.unique, m_lower_bound(st, v))
                       for v in derive_pair_inequalities(st, i, h)}
                if got != paper_inequalities(st, i, h):
                    return f"inequalities on ({i}, {h}) at events={st.events}: {got}"
    return None


class TestTableMatchesPaper:
    def test_thresholds_as_listed(self):
        # positive edge: R3_1 u_i+u_h, R3_4 w_i+w_h, R2_6 max(min(u_i,w_h), min(w_i,u_h)),
        # R1_1 w_i, R1_1p w_h, R2_2 u_i, R2_2p u_h; negative edge: R3_2 w_i+u_h,
        # R3_3 u_i+w_h, R2_5 max(min(w_i,w_h), min(u_i,u_h)), R2_1 u_i, R2_1p u_h,
        # R1_2 w_i, R1_2p w_h
        listed = {
            "R3_1": (+1, lambda ui, wi, uh, wh: ui + uh),
            "R3_4": (+1, lambda ui, wi, uh, wh: wi + wh),
            "R2_6": (+1, lambda ui, wi, uh, wh: max(min(ui, wh), min(wi, uh))),
            "R1_1": (+1, lambda ui, wi, uh, wh: wi),
            "R1_1p": (+1, lambda ui, wi, uh, wh: wh),
            "R2_2": (+1, lambda ui, wi, uh, wh: ui),
            "R2_2p": (+1, lambda ui, wi, uh, wh: uh),
            "R3_2": (-1, lambda ui, wi, uh, wh: wi + uh),
            "R3_3": (-1, lambda ui, wi, uh, wh: ui + wh),
            "R2_5": (-1, lambda ui, wi, uh, wh: max(min(wi, wh), min(ui, uh))),
            "R2_1": (-1, lambda ui, wi, uh, wh: ui),
            "R2_1p": (-1, lambda ui, wi, uh, wh: uh),
            "R1_2": (-1, lambda ui, wi, uh, wh: wi),
            "R1_2p": (-1, lambda ui, wi, uh, wh: wh),
        }
        assert [r.rule_id for r in rules.PAIR_RULES] == list(listed)
        rng = random.Random(11)
        for _ in range(2000):
            slack = [rng.randint(-20, 20) for _ in range(4)]
            for rule in rules.PAIR_RULES:
                sign, threshold = listed[rule.rule_id]
                assert rule.sign == sign
                assert rule.threshold(*slack) == threshold(*slack), (rule.rule_id, slack)

    def test_on_the_sweep_states(self):
        for t in range(1000):
            inst = sweep_instance(t)
            _, log, _ = run_to_fixed_point(inst)
            for st in replay(inst, log.events):
                assert table_disagrees_with_paper(st) is None, f"instance {t}"

    def test_on_tie_heavy_states(self):
        rng = random.Random(2024)
        for _ in range(400):
            inst = random_instance(rng, rng.randint(2, 12), coef=2)
            _, log, _ = run_to_fixed_point(inst)
            for st in replay(inst, log.events):
                assert table_disagrees_with_paper(st) is None


class TestPerRuleSoundness:
    def test_every_rule_sound_on_100_firing_instances(self):
        rng = random.Random(314)
        needed = {rid: 100 for rid in rules.ALL_RULE_IDS}
        fired_on = {rid: 0 for rid in rules.ALL_RULE_IDS}
        for trial in range(12000):
            regime = _REGIMES[trial % len(_REGIMES)]
            n = rng.randint(*regime["n"])
            inst = random_instance(rng, n, coef=regime["coef"],
                                   density=regime["density"])
            st = init_state(inst)
            firings = _catalog_firings(st)
            if not firings:
                continue
            _, optima = optima_by_enumeration(inst)
            seen = set()
            for verdict in firings:
                assert check_verdict_against_optima(verdict, optima), (
                    f"{verdict} inconsistent with optima of {inst}"
                )
                seen.add(verdict.rule_id)
            for rid in seen:
                fired_on[rid] += 1
            if all(fired_on[rid] >= needed[rid] for rid in needed):
                break
        missing = {rid: c for rid, c in fired_on.items() if c < 100}
        assert not missing, f"insufficient firing instances: {missing}"


class TestMBounds:
    def test_at_most_one_bound(self):
        st = init_state(two_var(1, 1, -2))
        v = next(v for v in derive_pair_inequalities(st, 1, 2) if v.rule_id == "R2_1")
        assert m_lower_bound(st, v) == 1

    def test_at_least_one_bound(self):
        st = init_state(two_var(1, 1, -2))
        v = next(v for v in derive_pair_inequalities(st, 1, 2) if v.rule_id == "R1_2")
        assert m_lower_bound(st, v) == 1

    def test_negative_expression_clamps_to_zero(self):
        st = init_state(two_var(-3, -1, -2))
        v = RuleVerdict("R2_1", (1, 2), Inequality(InequalityKind.AT_MOST_ONE, 1, 2), False)
        assert m_lower_bound(st, v) == 0  # c_1 + D_1^+ = -3

    def test_fix_verdict_rejected(self):
        st = init_state(two_var(1, 1, -2))
        with pytest.raises(ValueError):
            m_lower_bound(st, RuleVerdict("R1_0", (1, 1), ((1, 1, 0, 1),), False))

    def test_pair_rule_bounds_use_printed_expressions(self):
        st = init_state(two_var(2, 1, -3))
        v = ROW["R3_2"].probe(st, 1, 2)
        # Max(0, -c_i + c_h - D_i^- + D_h^+) = Max(0, -2 + 1 + 3 + 0)
        assert m_lower_bound(st, v) == 2


class TestPenaltyRewrite:
    def test_at_most_one_replaces_pair_weight(self):
        inst = two_var(1, 1, -2)
        out = penalty_rewrite(inst, InequalityKind.AT_MOST_ONE, 1, 2, 2)
        assert out.quadratic == {(1, 2): -2}
        assert out.linear == inst.linear and out.offset == 0
        best, optima = optima_by_enumeration(out)
        assert best == 1 and all(x[0] + x[1] <= 1 for x in optima)

    def test_at_least_one_verbatim_replacement(self):
        inst = two_var(1, 1, -2)
        out = penalty_rewrite(inst, InequalityKind.AT_LEAST_ONE, 1, 2, 2)
        assert out.linear == {1: 2, 2: 2}
        assert out.quadratic == {(1, 2): -2}
        assert out.offset == 2

    def test_directional_forces_argmax(self):
        inst = two_var(-1, -1, 5)
        out = penalty_rewrite(inst, InequalityKind.H_LE_I, 1, 2, 10)
        _, optima = optima_by_enumeration(out)
        assert all(x[1] <= x[0] for x in optima)

    def test_insufficient_weight_rejected(self):
        inst = two_var(5, 5, -2)
        with pytest.raises(ValueError, match="bound"):
            penalty_rewrite(inst, InequalityKind.AT_MOST_ONE, 1, 2, 0)

    def test_reads_slacks_without_building_a_state(self, monkeypatch):
        # The weakest bound comes from the edges at i and h alone and equals
        # the bound over a whole state's slacks: M at the bound is refused,
        # M one above it accepted.
        rng = random.Random(78)
        cases = []
        for _ in range(200):
            inst = random_instance(rng, rng.randint(2, 9))
            i, h = rng.sample(range(1, inst.n + 1), 2)
            st = init_state(inst)
            slack = (*rules.slacks(st, i), *rules.slacks(st, h))
            for kind in InequalityKind:
                bound = min(r.bound(*slack) for r in rules.PAIR_RULES
                            if r.conclude(i, h) == Inequality(kind, i, h))
                cases.append((inst, kind, i, h, bound))

        def fail(self, instance):
            raise AssertionError("penalty_rewrite built a ReductionState")

        monkeypatch.setattr(ReductionState, "__init__", fail)
        for inst, kind, i, h, bound in cases:
            with pytest.raises(ValueError, match="bound"):
                penalty_rewrite(inst, kind, i, h, bound)
            penalty_rewrite(inst, kind, i, h, bound + 1)

    def test_mined_penalties_preserve_restricted_optimum(self):
        kinds = {
            InequalityKind.AT_MOST_ONE: lambda x, i, h: x[i - 1] + x[h - 1] <= 1,
            InequalityKind.I_LE_H: lambda x, i, h: x[i - 1] <= x[h - 1],
            InequalityKind.H_LE_I: lambda x, i, h: x[h - 1] <= x[i - 1],
        }
        rng = random.Random(77)
        checked = 0
        for _ in range(4000):
            inst = random_instance(rng, rng.randint(2, 9))
            st = init_state(inst)
            for verdict in _catalog_firings(st):
                if not isinstance(verdict.conclusion, Inequality):
                    continue
                kind = verdict.conclusion.kind
                if kind not in kinds:
                    continue
                i, h = verdict.conclusion.i, verdict.conclusion.h
                M = m_lower_bound(st, verdict) + 1
                out = penalty_rewrite(inst, kind, i, h, M)
                best, optima = optima_by_enumeration(out)
                assert all(kinds[kind](x, i, h) for x in optima)
                want = restricted_optimum(inst, lambda x: kinds[kind](x, i, h))
                assert best == want
                checked += 1
            if checked >= 300:
                break
        assert checked >= 300

    def test_at_least_one_forces_argmax_with_large_weight(self):
        # replacement semantics shift objective values on satisfying points,
        # so only argmax feasibility is asserted, and with a generous weight
        rng = random.Random(78)
        checked = 0
        for _ in range(4000):
            inst = random_instance(rng, rng.randint(2, 9))
            st = init_state(inst)
            for verdict in _catalog_firings(st):
                if not isinstance(verdict.conclusion, Inequality):
                    continue
                if verdict.conclusion.kind is not InequalityKind.AT_LEAST_ONE:
                    continue
                i, h = verdict.conclusion.i, verdict.conclusion.h
                M = (sum(abs(v) for v in inst.linear.values())
                     + sum(abs(v) for v in inst.quadratic.values()) + 1)
                out = penalty_rewrite(inst, InequalityKind.AT_LEAST_ONE, i, h, M)
                _, optima = optima_by_enumeration(out)
                assert all(x[i - 1] + x[h - 1] >= 1 for x in optima)
                checked += 1
            if checked >= 150:
                break
        assert checked >= 150
