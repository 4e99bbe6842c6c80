import random

import pytest

from conftest import random_instance, restricted_optimum
from quboreduce.model import build_from_triplets
from quboreduce.oracle import brute_force_solve
from quboreduce.state import COMPLEMENT_OF, SAME_AS, init_state


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
        assert (st.min_val[1], st.min_arg[1]) == (-2, 2)
        assert (st.min_val[2], st.min_arg[2]) == (-2, 1)
        assert st.max_arg[1] == 0 and st.max_arg[2] == 0

    def test_edgeless(self):
        st = init_state(build_from_triplets(3, [(1, 1, 5)]))
        assert st.d_minus[1:] == [0, 0, 0] and st.d_plus[1:] == [0, 0, 0]
        assert all(st.max_arg[i] == 0 and st.min_arg[i] == 0 for i in (1, 2, 3))

    def test_mixed_triple(self):
        st = init_state(TRIPLE)
        assert st.d_minus[1:] == [-2, -2, 0]
        assert st.d_plus[1:] == [0, 1, 1]

    def test_cursors(self):
        st = init_state(TRIPLE)
        cur = st.cursors
        assert (cur.i_loc, cur.i_loc_end) == (1, 3)
        assert cur.h_loc1 > cur.h_loc_end  # empty h-group


class TestApplyFix:
    def test_fix_one_folds_row(self):
        st = init_state(two_var(3, -2, 2))
        st.apply_fix(1, 1)
        assert st.offset == 3
        assert st.c[2] == 0
        assert st.d_plus[2] == 0 and st.max_arg[2] == 0
        assert not st.adj[1] and not st.adj[2]
        st.check_consistency()

    def test_fix_zero_touches_no_coefficients(self):
        st = init_state(two_var(3, -2, 2))
        st.apply_fix(1, 0)
        assert st.offset == 0 and st.c[2] == -2
        assert not st.adj[2]
        st.check_consistency()

    def test_fix_middle_of_path(self):
        st = init_state(TRIPLE)
        st.apply_fix(2, 1)
        assert st.offset == 1
        assert st.c[1] == -1 and st.c[3] == 3
        assert st.d_minus[1] == 0 and st.d_plus[3] == 0
        st.check_consistency()

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
            reduced = st.snapshot()
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
        assert st.status[2] == COMPLEMENT_OF and st.identity_log == [(2, COMPLEMENT_OF, 1)]
        st.check_consistency()
        # both problems have optimum 4
        assert brute_force_solve(st.snapshot()).optimum == 4
        assert brute_force_solve(TRIPLE).optimum == 4

    def test_complement_two_vars(self):
        st = init_state(two_var(1, 1, -2))
        st.apply_substitution_complement(1, 2)
        assert st.offset == 1 and st.c[1] == 0
        assert not st.adj[1]
        assert brute_force_solve(st.snapshot()).optimum == 1

    def test_complement_isolated_partner(self):
        inst = build_from_triplets(3, [(1, 1, 2), (2, 2, 5), (1, 3, 1)])
        st = init_state(inst)
        st.apply_substitution_complement(1, 2)  # 2 has no neighbours
        assert st.offset == 5 and st.c[1] == -3
        assert st.adj[1] == {3: 1}
        st.check_consistency()

    def test_equal_two_vars(self):
        st = init_state(two_var(-1, -1, 2))
        st.apply_substitution_equal(1, 2)
        assert st.c[1] == 0 and not st.adj[1]
        assert st.status[2] == SAME_AS and st.identity_log == [(2, SAME_AS, 1)]
        assert brute_force_solve(st.snapshot()).optimum == 0

    def test_equal_without_edge(self):
        inst = build_from_triplets(2, [(2, 2, 5)])
        st = init_state(inst)
        st.apply_substitution_equal(1, 2)
        assert st.c[1] == 5
        st.check_consistency()

    def test_equal_cancels_edge_to_zero(self):
        inst = build_from_triplets(
            3, [(1, 1, -1), (2, 2, -1), (3, 3, 1), (1, 2, 2), (1, 3, 1), (2, 3, -1)]
        )
        st = init_state(inst)
        st.apply_substitution_equal(1, 2)
        assert st.c[1] == 0
        assert 3 not in st.adj[1] and 1 not in st.adj[3]  # 1 + (-1) dropped
        st.check_consistency()
        assert (brute_force_solve(st.snapshot()).optimum
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
            st.check_consistency()
            assert brute_force_solve(st.snapshot()).optimum == want


class TestRecomputeRowExtremes:
    def test_mixed_row(self):
        inst = build_from_triplets(3, [(1, 2, 3), (1, 3, -1)])
        st = init_state(inst)
        assert (st.max_val[1], st.max_arg[1]) == (3, 2)
        assert (st.min_val[1], st.min_arg[1]) == (-1, 3)

    def test_only_positive_edges(self):
        st = init_state(build_from_triplets(3, [(1, 2, 3), (1, 3, 1)]))
        assert st.min_arg[1] == 0

    def test_extreme_falls_to_second_largest_after_drop(self):
        inst = build_from_triplets(3, [(1, 2, 5), (1, 3, 3)])
        st = init_state(inst)
        st.apply_fix(2, 0)  # drops the arg-max edge of row 1
        assert (st.max_val[1], st.max_arg[1]) == (3, 3)
        fresh = init_state(st.snapshot())
        assert (fresh.max_val[1], fresh.max_arg[1]) == (3, 3)


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
            st.check_consistency()

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
