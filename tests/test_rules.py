import random

import pytest

from conftest import (
    catalog_firings as _catalog_firings, check_verdict_against_optima,
    optima_by_enumeration, random_instance, replay, restricted_optimum,
    sweep_instance,
)
from quboreduce import rules
from quboreduce.engine import run_to_fixed_point
from quboreduce.model import build_from_triplets
from quboreduce.rules import (
    Fix, Inequality, InequalityKind, PairFix, RuleVerdict, SubstituteComplement,
    SubstituteEqual, derive_pair_inequalities, m_lower_bound, penalty_rewrite,
    rule_complement_pair, rule_equal_pair, rule_fix_one, rule_fix_zero,
    rule_pair_one, rule_pair_one_zero, rule_pair_zero, rule_pair_zero_one,
)
from quboreduce.state import init_state


def two_var(c1, c2, d12):
    entries = [(1, 1, c1), (2, 2, c2)]
    if d12:
        entries.append((1, 2, d12))
    return build_from_triplets(2, entries)


def state_of(*triplets, n=None):
    n = n or max(max(i, j) for i, j, _ in triplets)
    return init_state(build_from_triplets(n, list(triplets)))


class TestValueBounds:
    def test_bounds_order_and_values(self):
        rng = random.Random(1)
        for _ in range(100):
            st = init_state(random_instance(rng, rng.randint(1, 8)))
            for i in range(1, st.n + 1):
                lo, hi = rules.value_bounds(st, i)
                assert lo <= hi
                assert lo == st.c[i] + st.d_minus[i]
                assert hi == st.c[i] + st.d_plus[i]


class TestSingleVariableRules:
    def test_fix_one_no_negative_edges(self):
        st = state_of((1, 1, 5), (1, 2, 3))
        v = rule_fix_one(st, 1)
        assert v == RuleVerdict("R1_0", Fix(1, 1), True)

    def test_fix_one_silent_when_negative_mass_wins(self):
        st = init_state(two_var(1, 1, -2))
        assert rule_fix_one(st, 1) is None

    def test_fix_one_boundary_not_unique(self):
        st = state_of((1, 1, 2), (1, 2, -2))
        v = rule_fix_one(st, 1)
        assert v is not None and not v.unique
        _, optima = optima_by_enumeration(st.snapshot())
        assert any(x[0] == 1 for x in optima)

    def test_fix_zero_no_positive_edges(self):
        st = state_of((1, 1, -5), (1, 2, -3))
        v = rule_fix_zero(st, 1)
        assert v == RuleVerdict("R2_0", Fix(1, 0), True)

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
        _, optima = optima_by_enumeration(st.snapshot())
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
        _, optima = optima_by_enumeration(st.snapshot())
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


class TestComplementPair:
    def test_fires_on_antagonistic_pair(self):
        st = init_state(two_var(1, 1, -2))
        v = rule_complement_pair(st, 1, 2)
        assert v is not None and v.rule_id == "R2_5"
        assert v.conclusion == SubstituteComplement(1, 2)
        assert v.unique
        _, optima = optima_by_enumeration(st.snapshot())
        assert all(x[0] + x[1] == 1 for x in optima)

    def test_fires_at_boundary_not_unique(self):
        st = init_state(two_var(1, 1, -1))
        v = rule_complement_pair(st, 1, 2)
        assert v is not None and not v.unique
        _, optima = optima_by_enumeration(st.snapshot())
        assert any(x[0] + x[1] == 1 for x in optima)

    def test_positive_edge_silent(self):
        st = init_state(two_var(1, 1, 2))
        assert rule_complement_pair(st, 1, 2) is None

    def test_symmetric_in_arguments(self):
        rng = random.Random(3)
        for _ in range(150):
            st = init_state(random_instance(rng, rng.randint(2, 8)))
            for i in range(1, st.n + 1):
                for h in st.adj[i]:
                    if i < h:
                        a = rule_complement_pair(st, i, h)
                        b = rule_complement_pair(st, h, i)
                        assert (a is None) == (b is None)
                        if a is not None:
                            assert a.unique == b.unique


class TestEqualPair:
    def test_fires_on_aligned_pair(self):
        st = init_state(two_var(-1, -1, 2))
        v = rule_equal_pair(st, 1, 2)
        assert v is not None and v.conclusion == SubstituteEqual(1, 2)
        _, optima = optima_by_enumeration(st.snapshot())
        assert all(x[0] == x[1] for x in optima)

    def test_fires_at_boundary(self):
        st = init_state(two_var(-1, -1, 1))
        v = rule_equal_pair(st, 1, 2)
        assert v is not None
        _, optima = optima_by_enumeration(st.snapshot())
        assert any(x[0] == x[1] for x in optima)

    def test_negative_edge_silent(self):
        st = init_state(two_var(-1, -1, -2))
        assert rule_equal_pair(st, 1, 2) is None

    def test_symmetric_in_arguments(self):
        rng = random.Random(4)
        for _ in range(150):
            st = init_state(random_instance(rng, rng.randint(2, 8)))
            for i in range(1, st.n + 1):
                for h in st.adj[i]:
                    if i < h:
                        a = rule_equal_pair(st, i, h)
                        b = rule_equal_pair(st, h, i)
                        assert (a is None) == (b is None)


class TestPairAssignments:
    def test_pair_zero_fires(self):
        st = init_state(two_var(-2, -2, 3))
        v = rule_pair_zero(st, 1, 2)
        assert v == RuleVerdict("R3_1", PairFix(1, 0, 2, 0), True)
        best, optima = optima_by_enumeration(st.snapshot())
        assert best == 0 and optima == [(0, 0)]

    def test_pair_zero_boundary(self):
        st = init_state(two_var(-1, -1, 2))
        v = rule_pair_zero(st, 1, 2)
        assert v is not None and not v.unique
        _, optima = optima_by_enumeration(st.snapshot())
        assert sorted(optima) == [(0, 0), (1, 1)]

    def test_pair_zero_silent(self):
        st = init_state(two_var(-1, -1, 4))
        assert rule_pair_zero(st, 1, 2) is None
        best, optima = optima_by_enumeration(st.snapshot())
        assert best == 2 and optima == [(1, 1)]

    def test_pair_one_zero_orientations(self):
        st = init_state(two_var(2, 1, -3))
        v = rule_pair_one_zero(st, 1, 2)
        assert v == RuleVerdict("R3_2", PairFix(1, 1, 2, 0), True)
        assert rule_pair_one_zero(st, 2, 1) is None
        best, optima = optima_by_enumeration(st.snapshot())
        assert best == 2 and optima == [(1, 0)]

    def test_pair_one_zero_boundary(self):
        st = init_state(two_var(1, 1, -2))
        v = rule_pair_one_zero(st, 1, 2)
        assert v is not None and not v.unique
        _, optima = optima_by_enumeration(st.snapshot())
        assert (1, 0) in optima

    def test_pair_one_fires(self):
        st = init_state(two_var(-1, -1, 3))
        v = rule_pair_one(st, 1, 2)
        assert v == RuleVerdict("R3_4", PairFix(1, 1, 2, 1), True)
        best, optima = optima_by_enumeration(st.snapshot())
        assert best == 1 and optima == [(1, 1)]

    def test_pair_one_boundary(self):
        st = init_state(two_var(-1, -1, 2))
        v = rule_pair_one(st, 1, 2)
        assert v is not None and not v.unique

    def test_pair_one_silent(self):
        st = init_state(two_var(-3, -3, 2))
        assert rule_pair_one(st, 1, 2) is None
        best, optima = optima_by_enumeration(st.snapshot())
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
                    v = rule_pair_one_zero(st, h, i)
                    assert (v is not None) == printed

    def test_sign_preconditions_exclusive(self):
        rng = random.Random(8)
        for _ in range(200):
            st = init_state(random_instance(rng, rng.randint(2, 8)))
            for i in range(1, st.n + 1):
                for h in st.adj[i]:
                    if h < i:
                        continue
                    comp = rule_complement_pair(st, i, h)
                    eq = rule_equal_pair(st, i, h)
                    assert comp is None or eq is None
                    zero_or_one = rule_pair_zero(st, i, h) or rule_pair_one(st, i, h)
                    swap = rule_pair_one_zero(st, i, h) or rule_pair_one_zero(st, h, i)
                    assert zero_or_one is None or swap is None


# Targeted coefficient regimes that make each rule family fire often enough.
_REGIMES = (
    dict(n=(2, 6), coef=6, density=0.9),
    dict(n=(2, 10), coef=10, density=0.4),
    dict(n=(6, 12), coef=4, density=0.25),
)


PAIR_RULES = (
    rule_pair_zero, rule_pair_one, rule_pair_one_zero, rule_pair_zero_one,
    rule_complement_pair, rule_equal_pair,
)


def screen_rejects_a_firing_edge(st) -> str | None:
    """An edge where a pair verdict exists but the slack screen fails, if any."""
    for verdict in rules.catalog_firings(st):
        concl = verdict.conclusion
        if not isinstance(concl, Fix) and not rules.pair_may_fire(st, concl.i, concl.h):
            return f"{verdict} at events={st.events}"
    for i in st.free_variables():
        for h in st.adj[i]:
            verdicts = derive_pair_inequalities(st, i, h)
            verdicts += [v for rule in PAIR_RULES if (v := rule(st, i, h))]
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
        # Every replayed state of the acceptance sweep's mining runs, and
        # every state where an inequality was mined.
        for t in range(1000):
            inst = sweep_instance(t)
            _, log, _ = run_to_fixed_point(inst, emit_inequalities=True)
            mined = {}
            for rec in log.inequality_records:
                mined.setdefault(rec.snapshot_id, []).append(rec.verdict.conclusion)
            for st in replay(inst, log.events):
                assert screen_rejects_a_firing_edge(st) is None, f"instance {t}"
                for concl in mined.pop(st.events, ()):
                    assert rules.pair_may_fire(st, concl.i, concl.h), f"instance {t}"
            assert not mined

    def test_screen_passes_every_firing_edge_on_tie_heavy_states(self):
        rng = random.Random(2024)
        for _ in range(400):
            inst = random_instance(rng, rng.randint(2, 12), coef=2)
            _, log, _ = run_to_fixed_point(inst, emit_inequalities=True)
            for st in replay(inst, log.events):
                assert screen_rejects_a_firing_edge(st) is None


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
        v = RuleVerdict("R2_1", Inequality(InequalityKind.AT_MOST_ONE, 1, 2), False)
        assert m_lower_bound(st, v) == 0  # c_1 + D_1^+ = -3

    def test_fix_verdict_rejected(self):
        st = init_state(two_var(1, 1, -2))
        with pytest.raises(ValueError):
            m_lower_bound(st, RuleVerdict("R1_0", Fix(1, 1), False))

    def test_pair_rule_bounds_use_printed_expressions(self):
        st = init_state(two_var(2, 1, -3))
        v = rule_pair_one_zero(st, 1, 2)
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
