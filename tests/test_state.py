import copy
import random

import pytest

from conftest import (
    LEGACY_SLOTS, all_assignments, check_consistency, legacy_state, random_instance,
    restricted_optimum, shuffled_instance, snapshot, sweep_instance,
)
from quboreduce.model import QuboInstance, build_from_triplets, evaluate
from quboreduce.oracle import brute_force_solve
from quboreduce.rules import slacks
from quboreduce.state import ELIMINATED, ReductionState, init_state


def two_var(c1, c2, d12):
    entries = [(1, 1, c1), (2, 2, c2)]
    if d12:
        entries.append((1, 2, d12))
    return build_from_triplets(2, entries)


TRIPLE = build_from_triplets(3, [(1, 1, 1), (2, 2, 1), (3, 3, 2), (1, 2, -2), (2, 3, 1)])


class TestInitState:
    def test_single_negative_edge(self):
        st = init_state(two_var(1, 1, -2))
        assert st.d_minus[1:] == [-2, -2]
        assert st.d_plus[1:] == [0, 0]
        assert st.min_val[1:] == [-2, -2]
        assert st.max_val[1:] == [0, 0]

    def test_edgeless(self):
        st = init_state(build_from_triplets(3, [(1, 1, 5)]))
        assert st.d_minus[1:] == [0, 0, 0] and st.d_plus[1:] == [0, 0, 0]
        assert st.max_val[1:] == [0, 0, 0] and st.min_val[1:] == [0, 0, 0]

    def test_mixed_triple(self):
        st = init_state(TRIPLE)
        assert st.d_minus[1:] == [-2, -2, 0]
        assert st.d_plus[1:] == [0, 1, 1]


class TestArrayBuild:
    """The array-built state equals a state built edge by edge."""

    SCALES = (1, 2**40, 2**58, 2**61, 2**62 - 1, 2**62, 2**63, 10**30)

    @pytest.mark.parametrize("scale", SCALES)
    def test_every_slot_and_row_order(self, scale):
        rng = random.Random(scale % 1000)
        for _ in range(40):
            inst = shuffled_instance(rng, scale)
            want = legacy_state(inst)
            as_dict = QuboInstance(inst.n, inst.linear, dict(inst.quadratic), inst.offset)
            for got in (ReductionState(inst), ReductionState(as_dict)):
                for slot in LEGACY_SLOTS:
                    assert getattr(got, slot) == getattr(want, slot), slot
                assert [list(r.items()) for r in got.adj] == [list(r.items()) for r in want.adj]

    def test_int64_edge_values_take_exact_sums(self):
        # each value fits int64, their row sum does not
        big = 2**62 + 5
        inst = QuboInstance(3, {}, {(1, 2): big, (1, 3): big}, 0)
        st = ReductionState(inst)
        assert st.d_plus[1] == 2 * big and st.max_val[1] == big and st.min_val[1] == 0


class TestApplyFix:
    def test_fix_one_folds_row(self):
        st = init_state(two_var(3, -2, 2))
        st.apply_fix(1, 1)
        assert st.offset == 3
        assert st.c[2] == 0
        assert st.d_plus[2] == 0 and st.max_val[2] == 0
        assert not st.adj[1] and not st.adj[2]
        check_consistency(st)

    def test_fix_zero_touches_no_coefficients(self):
        st = init_state(two_var(3, -2, 2))
        st.apply_fix(1, 0)
        assert st.offset == 0 and st.c[2] == -2
        assert not st.adj[2]
        check_consistency(st)

    def test_fix_middle_of_path(self):
        st = init_state(TRIPLE)
        st.apply_fix(2, 1)
        assert st.offset == 1
        assert st.c[1] == -1 and st.c[3] == 3
        assert st.d_minus[1] == 0 and st.d_plus[3] == 0
        check_consistency(st)

    def test_not_free_raises(self):
        st = init_state(two_var(1, 1, -2))
        st.apply_fix(1, 0)
        with pytest.raises(RuntimeError):
            st.apply_fix(1, 1)

    def test_preserves_restricted_optimum(self):
        rng = random.Random(21)
        for _ in range(200):
            n = rng.randint(2, 10)
            inst = random_instance(rng, n)
            st = init_state(inst)
            i = rng.randint(1, n)
            v = rng.randint(0, 1)
            st.apply_fix(i, v)
            reduced = snapshot(st)
            want = restricted_optimum(inst, lambda x: x[i - 1] == v)
            # dead variables have empty rows, so the padded snapshot's
            # optimum equals the restricted optimum
            assert brute_force_solve(reduced).optimum == want


class TestSubstitutions:
    def test_complement_on_path(self):
        st = init_state(TRIPLE)
        st.apply_substitution_complement(1, 2)  # x2 := 1 - x1
        assert st.offset == 1
        assert st.c[1] == 0 and st.c[3] == 3
        assert st.adj[1].get(3) == -1 and st.adj[3].get(1) == -1
        assert st.status[2] == ELIMINATED and st.eliminations == [(2, 1, -1, 1)]
        check_consistency(st)
        # both problems have optimum 4
        assert brute_force_solve(snapshot(st)).optimum == 4
        assert brute_force_solve(TRIPLE).optimum == 4

    def test_complement_two_vars(self):
        st = init_state(two_var(1, 1, -2))
        st.apply_substitution_complement(1, 2)
        assert st.offset == 1 and st.c[1] == 0
        assert not st.adj[1]
        assert brute_force_solve(snapshot(st)).optimum == 1

    def test_complement_isolated_partner(self):
        inst = build_from_triplets(3, [(1, 1, 2), (2, 2, 5), (1, 3, 1)])
        st = init_state(inst)
        st.apply_substitution_complement(1, 2)  # 2 has no neighbours
        assert st.offset == 5 and st.c[1] == -3
        assert st.adj[1] == {3: 1}
        check_consistency(st)

    def test_equal_two_vars(self):
        st = init_state(two_var(-1, -1, 2))
        st.apply_substitution_equal(1, 2)
        assert st.c[1] == 0 and not st.adj[1]
        assert st.status[2] == ELIMINATED and st.eliminations == [(2, 0, 1, 1)]
        assert brute_force_solve(snapshot(st)).optimum == 0

    def test_equal_without_edge(self):
        inst = build_from_triplets(2, [(2, 2, 5)])
        st = init_state(inst)
        st.apply_substitution_equal(1, 2)
        assert st.c[1] == 5
        check_consistency(st)

    def test_equal_cancels_edge_to_zero(self):
        inst = build_from_triplets(
            3, [(1, 1, -1), (2, 2, -1), (3, 3, 1), (1, 2, 2), (1, 3, 1), (2, 3, -1)]
        )
        st = init_state(inst)
        st.apply_substitution_equal(1, 2)
        assert st.c[1] == 0
        assert 3 not in st.adj[1] and 1 not in st.adj[3]  # 1 + (-1) dropped
        check_consistency(st)
        assert (brute_force_solve(snapshot(st)).optimum
                == restricted_optimum(inst, lambda x: x[0] == x[1]))

    def test_substitutions_preserve_restricted_optimum(self):
        rng = random.Random(33)
        for _ in range(200):
            n = rng.randint(2, 10)
            inst = random_instance(rng, n)
            i, h = rng.sample(range(1, n + 1), 2)
            st = init_state(inst)
            if rng.random() < 0.5:
                st.apply_substitution_complement(i, h)
                want = restricted_optimum(inst, lambda x: x[i - 1] + x[h - 1] == 1)
            else:
                st.apply_substitution_equal(i, h)
                want = restricted_optimum(inst, lambda x: x[i - 1] == x[h - 1])
            check_consistency(st)
            assert brute_force_solve(snapshot(st)).optimum == want


def _eliminate_at_random(rng: random.Random, st: ReductionState) -> tuple[int, int, int, int]:
    """Apply a random fix-0, fix-1, equal or complement; returns its (h, a, b, i)."""
    free = st.free_variables()
    kinds = ("fix0", "fix1", "equal", "complement") if len(free) > 1 else ("fix0", "fix1")
    kind = rng.choice(kinds)
    if kind in ("fix0", "fix1"):
        h, a = rng.choice(free), int(kind == "fix1")
        st.apply_fix(h, a)
        return h, a, 0, h
    i, h = rng.sample(free, 2)
    if kind == "equal":
        st.apply_substitution_equal(i, h)
        return h, 0, 1, i
    st.apply_substitution_complement(i, h)
    return h, 1, -1, i


def _elimination_chains(scale: int, count: int = 150):
    """Short random elimination chains on instances of at most 10 variables.

    Scale 1 draws ``random_instance``; a larger scale draws
    ``shuffled_instance``, whose sums pass int64 at 10**30.  Yields
    (instance, state, steps, rows before the last step) after each step;
    a step (h, a, b, i) applied x_h := a + b * x_i.
    """
    rng = random.Random(scale % 1000 + 16)
    kept = 0
    while kept < count:
        if scale == 1:
            inst = random_instance(rng, rng.randint(2, 10))
        else:
            inst = shuffled_instance(rng, scale)
            if inst.n > 10:
                continue
        kept += 1
        st = init_state(inst)
        steps = []
        for _ in range(rng.randint(1, min(4, inst.n))):
            before = [(st.c[v], dict(st.adj[v])) for v in range(inst.n + 1)]
            steps.append(_eliminate_at_random(rng, st))
            yield inst, st, steps, before


def _objective_breaks(scale: int) -> list:
    """Steps after which the working objective differs from the original's
    on an assignment that satisfies every substitution applied so far."""
    breaks = []
    for inst, st, steps, _ in _elimination_chains(scale):
        reduced = snapshot(st)
        for x in all_assignments(inst.n):
            if (all(x[h - 1] == a + b * x[i - 1] for h, a, b, i in steps)
                    and evaluate(inst, x) != evaluate(reduced, x)):
                breaks.append((inst, list(steps), x))
                break
    return breaks


class TestElimination:
    """Every mutation is the substitution x_h := a + b * x_i."""

    @pytest.mark.parametrize("scale", [1, 10**30], ids=["small", "10^30"])
    def test_each_elimination_is_an_identity_of_the_objective(self, scale):
        assert _objective_breaks(scale) == []

    def test_identity_fails_without_complement_compensation(self, uncompensated_complement):
        assert _objective_breaks(1)

    @pytest.mark.parametrize("scale", [1, 10**30], ids=["small", "10^30"])
    def test_touched_marks_every_changed_row(self, scale):
        # the dirty-row scheduler re-examines exactly the rows stamped by the
        # latest events, so a changed row left unstamped would go unexamined
        for _, st, steps, before in _elimination_chains(scale):
            assert st.events == len(steps)
            for v in st.free_variables():
                if (st.c[v], st.adj[v]) != before[v]:
                    assert st.touched[v] == st.events, (v, steps)
            check_consistency(st)


class TestFixNeverRaisesASlack:
    """Fixing x_j moves each other free variable's slacks by its edge to j alone.

    With d = d_vj (0 for a non-neighbour), (u_v, w_v) changes by
    (-max(d, 0), min(d, 0)) for x_j = 0 and by (min(d, 0), -max(d, 0)) for
    x_j = 1: a fix never raises a slack.
    """

    @staticmethod
    def instances():
        yield from (sweep_instance(t) for t in range(300))
        for scale in (1, 2**62):
            rng = random.Random(scale % 997)
            yield from (shuffled_instance(rng, scale) for _ in range(40))

    @staticmethod
    def check(st, j, x):
        before = {v: (slacks(st, v), st.adj[v].get(j, 0)) for v in st.free_variables()}
        st.apply_fix(j, x)
        for v in st.free_variables():
            (u, w), d = before[v]
            pos, neg = max(d, 0), min(d, 0)
            want = (-pos, neg) if x == 0 else (neg, -pos)
            got = slacks(st, v)
            assert (got[0] - u, got[1] - w) == want, (v, j, x, d)

    def test_on_fresh_states(self):
        for inst in self.instances():
            for j in range(1, inst.n + 1):
                for x in (0, 1):
                    self.check(init_state(inst), j, x)

    def test_along_chains_of_fixes(self):
        # later fixes land on rows that earlier ones changed
        rng = random.Random(10)
        for inst in self.instances():
            st = init_state(inst)
            for j in rng.sample(range(1, inst.n + 1), inst.n):
                self.check(st, j, rng.randint(0, 1))


class TestSubstitutionNeverRaisesASlack:
    """A substitution x_h := a + b * x_i raises no slack of a free row but i's.

    A row j other than i loses its edge d_hj, and its edge to i goes from old
    to old + b * d_hj.  As max(x + y, 0) <= max(x, 0) + max(y, 0), and
    min(x + y, 0) >= min(x, 0) + min(y, 0), D_j^+ cannot rise nor D_j^- fall:
    for x_h = x_i (c_j unchanged) neither slack rises.  For x_h = 1 - x_i,
    c_j gains d_hj, which the min(d_hj, 0) side of either bound cancels.
    """

    @staticmethod
    def chains() -> tuple[int, int]:
        """Random live-edge substitutions until no edge is left, on each instance
        of TestFixNeverRaisesASlack: (slacks checked, slacks raised)."""
        rng = random.Random(11)
        checks = raised = 0
        for inst in TestFixNeverRaisesASlack.instances():
            st = init_state(inst)
            while edges := [(i, h) for i in st.free_variables() for h in st.adj[i]]:
                i, h = rng.choice(edges)
                before = {v: slacks(st, v) for v in st.free_variables() if v not in (i, h)}
                if rng.random() < 0.5:
                    st.apply_substitution_equal(i, h)
                else:
                    st.apply_substitution_complement(i, h)
                for v, (u, w) in before.items():
                    got = slacks(st, v)
                    raised += got[0] > u or got[1] > w
                checks += len(before)
        return checks, raised

    def test_along_chains_of_substitutions(self):
        checks, raised = self.chains()
        assert raised == 0 and checks > 20000, (checks, raised)

    def test_catches_a_missing_compensation(self, uncompensated_complement):
        # The mutant leaves c_j without d_hj: 6,289 of the 26,834 checks raise.
        assert self.chains()[1] > 0


TRIANGLE_AND_TAIL = build_from_triplets(4, [
    (1, 1, 1), (2, 2, 1), (3, 3, 2), (4, 4, -1),
    (1, 2, -2), (2, 3, 1), (2, 4, 3), (3, 4, -1),
])


class TestRefusedMutation:
    @pytest.mark.parametrize("call, error", [
        pytest.param(lambda st: st.apply_fix(1, 1), RuntimeError, id="fix-not-free"),
        pytest.param(lambda st: st.apply_fix(2, 2), ValueError, id="fix-value-2"),
        pytest.param(lambda st: st.apply_substitution_complement(1, 2), RuntimeError,
                     id="complement-i-not-free"),
        pytest.param(lambda st: st.apply_substitution_complement(2, 1), RuntimeError,
                     id="complement-h-not-free"),
        pytest.param(lambda st: st.apply_substitution_complement(2, 2), RuntimeError,
                     id="complement-i-is-h"),
        pytest.param(lambda st: st.apply_substitution_equal(1, 2), RuntimeError,
                     id="equal-i-not-free"),
        pytest.param(lambda st: st.apply_substitution_equal(2, 1), RuntimeError,
                     id="equal-h-not-free"),
        pytest.param(lambda st: st.apply_substitution_equal(2, 2), RuntimeError,
                     id="equal-i-is-h"),
    ])
    def test_changes_nothing(self, call, error):
        st = init_state(TRIANGLE_AND_TAIL)
        st.apply_fix(1, 1)  # 1 is no longer free; 2 keeps edges to 3 and 4
        slots = {slot: copy.deepcopy(getattr(st, slot)) for slot in LEGACY_SLOTS}
        rows = [list(row.items()) for row in st.adj]
        with pytest.raises(error):
            call(st)
        for slot, value in slots.items():
            assert getattr(st, slot) == value, slot
        assert [list(row.items()) for row in st.adj] == rows


def test_counts_come_from_the_elimination_record():
    st = init_state(TRIANGLE_AND_TAIL)
    assert (st.events, st.live_count) == (0, 4)
    st.apply_fix(1, 1)
    st.apply_substitution_complement(2, 4)
    assert st.events == len(st.eliminations) == 2 and st.live_count == 2
    for name in ("events", "live_count"):
        with pytest.raises(AttributeError):
            setattr(st, name, 0)


class TestRecomputeRowExtremes:
    def test_mixed_row(self):
        inst = build_from_triplets(3, [(1, 2, 3), (1, 3, -1)])
        st = init_state(inst)
        assert (st.max_val[1], st.min_val[1]) == (3, -1)

    def test_only_positive_edges(self):
        st = init_state(build_from_triplets(3, [(1, 2, 3), (1, 3, 1)]))
        assert (st.max_val[1], st.min_val[1]) == (3, 0)

    def test_extreme_falls_to_second_largest_after_drop(self):
        inst = build_from_triplets(3, [(1, 2, 5), (1, 3, 3)])
        st = init_state(inst)
        st.apply_fix(2, 0)  # drops the largest edge of row 1
        assert st.max_val[1] == 3
        fresh = init_state(snapshot(st))
        assert fresh.max_val[1] == 3

    def test_tied_extreme_outlives_one_of_its_edges(self):
        st = init_state(build_from_triplets(4, [(1, 2, 5), (1, 3, 5), (1, 4, 3)]))
        st.apply_fix(2, 0)
        assert st.max_val[1] == 5
        check_consistency(st)
        st.apply_fix(3, 1)
        assert st.max_val[1] == 3
        check_consistency(st)

    @pytest.mark.parametrize("substitute, d14", [
        ("apply_substitution_equal", 3), ("apply_substitution_complement", -3)])
    def test_merged_edge_lands_on_the_extreme(self, substitute, d14):
        # x_4 := x_3 (or 1 - x_3) folds d_14 into d_13 = 2, which becomes 5:
        # row 1's largest value, which its edge to 2 also holds
        st = init_state(build_from_triplets(4, [(1, 2, 5), (1, 3, 2), (1, 4, d14)]))
        getattr(st, substitute)(3, 4)
        assert st.adj[1] == {2: 5, 3: 5} and st.max_val[1] == 5
        check_consistency(st)
        st.apply_fix(2, 0)
        assert st.max_val[1] == 5
        check_consistency(st)


class TestBookkeepingInvariants:
    def test_random_operation_sequences_stay_consistent(self):
        rng = random.Random(1234)
        for _ in range(400):
            n = rng.randint(2, 12)
            inst = random_instance(rng, n)
            st = init_state(inst)
            live_before = st.live_count
            steps = rng.randint(1, n - 1)
            for _ in range(steps):
                free = st.free_variables()
                if len(free) < 2:
                    break
                op = rng.randint(0, 2)
                if op == 0:
                    st.apply_fix(rng.choice(free), rng.randint(0, 1))
                else:
                    i, h = rng.sample(free, 2)
                    if op == 1:
                        st.apply_substitution_complement(i, h)
                    else:
                        st.apply_substitution_equal(i, h)
                live_before -= 1
                assert st.live_count == live_before
            check_consistency(st)

    def test_complement_compensation_switch_changes_result(self, request):
        # degree-2 eliminated variable: the d_hj compensation term matters
        inst = build_from_triplets(
            3, [(1, 1, 1), (2, 2, 1), (3, 3, 2), (1, 2, -2), (2, 3, 1)]
        )
        st = init_state(inst)
        st.apply_substitution_complement(1, 2)
        good = st.c[3]
        request.getfixturevalue("uncompensated_complement")
        st2 = init_state(inst)
        st2.apply_substitution_complement(1, 2)
        assert st2.c[3] == good - 1  # missing the d_23 = 1 compensation
