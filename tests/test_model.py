import random

import pytest

from quboreduce.model import (
    QuboFormatError, QuboInstance, build_from_triplets, evaluate,
    ising_to_qubo, read_instance, write_instance,
)


class TestBuildFromTriplets:
    def test_accumulates_diagonal_and_offdiagonal(self):
        inst = build_from_triplets(2, [(1, 1, 3), (2, 2, -2), (1, 2, 1), (2, 1, 1)])
        assert inst.linear == {1: 3, 2: -2}
        assert inst.quadratic == {(1, 2): 2}
        assert inst.offset == 0

    def test_empty_entries(self):
        inst = build_from_triplets(3, [])
        assert inst.linear == {} and inst.quadratic == {} and inst.offset == 0

    def test_cancellation_drops_zero(self):
        inst = build_from_triplets(2, [(1, 2, 1), (1, 2, -1)])
        assert inst.quadratic == {}

    def test_index_out_of_range_names_entry(self):
        with pytest.raises(ValueError, match=r"\(1, 3, 5\)"):
            build_from_triplets(2, [(1, 3, 5)])

    def test_invariant_under_permutation_and_splitting(self):
        rng = random.Random(42)
        for _ in range(50):
            n = rng.randint(1, 6)
            entries = []
            for _ in range(rng.randint(0, 12)):
                i, j = rng.randint(1, n), rng.randint(1, n)
                entries.append((i, j, rng.randint(-9, 9)))
            base = build_from_triplets(n, entries)
            shuffled = entries[:]
            rng.shuffle(shuffled)
            assert build_from_triplets(n, shuffled) == base
            split = []
            for i, j, v in entries:
                a = rng.randint(-5, 5)
                split.append((i, j, a))
                split.append((i, j, v - a))
            assert build_from_triplets(n, split) == base

    def test_zero_coefficient_rejected_by_constructor(self):
        with pytest.raises(ValueError):
            QuboInstance(2, {1: 0}, {}, 0)
        with pytest.raises(ValueError):
            QuboInstance(2, {}, {(2, 1): 3}, 0)


class TestEvaluate:
    def test_known_values(self):
        inst = build_from_triplets(2, [(1, 1, 3), (2, 2, -2), (1, 2, 2)])
        assert evaluate(inst, (1, 1)) == 3
        assert evaluate(inst, (0, 1)) == -2
        assert evaluate(inst, (1, 0)) == 3
        assert evaluate(inst, (0, 0)) == 0

    def test_all_zeros_gives_offset(self):
        inst = QuboInstance(3, {1: 4}, {(1, 2): -1}, 7)
        assert evaluate(inst, (0, 0, 0)) == 7

    def test_partial_assignment_rejected(self):
        inst = build_from_triplets(2, [(1, 1, 1)])
        with pytest.raises(ValueError, match="partial|values"):
            evaluate(inst, {1: 1})
        with pytest.raises(ValueError):
            evaluate(inst, (1,))

    def test_accepts_mapping(self):
        inst = build_from_triplets(2, [(1, 1, 3), (1, 2, 2)])
        assert evaluate(inst, {1: 1, 2: 1}) == 5

    def test_matches_direct_double_loop_on_random_instances(self):
        rng = random.Random(7)
        for _ in range(500):
            n = rng.randint(1, 10)
            entries = [
                (rng.randint(1, n), rng.randint(1, n), rng.randint(-10, 10))
                for _ in range(rng.randint(0, 20))
            ]
            inst = build_from_triplets(n, entries)
            x = tuple(rng.randint(0, 1) for _ in range(n))
            # direct sum over the raw triplets, counting (i, j) and (j, i)
            direct = 0
            for i, j, v in entries:
                direct += v * x[i - 1] * x[j - 1]
            assert evaluate(inst, x) == direct


class TestIsingToQubo:
    def test_single_spin_field(self):
        inst = ising_to_qubo(1, (1,))
        assert inst.linear == {1: 2} and inst.offset == -1

    def test_zero_field_gives_zero_instance(self):
        inst = ising_to_qubo(1, (0,))
        assert inst.linear == {} and inst.quadratic == {} and inst.offset == 0

    def test_single_coupling(self):
        inst = ising_to_qubo(2, (0, 0), {(1, 2): 1})
        assert inst.quadratic == {(1, 2): 4}
        assert inst.linear == {1: -2, 2: -2}
        assert inst.offset == 1

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            ising_to_qubo(2, (0, 0), {(1, 1): 1})

    def test_objective_agrees_on_every_spin_assignment(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 5)
            h = {i: rng.randint(-5, 5) for i in range(1, n + 1)}
            J = {}
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if rng.random() < 0.6:
                        J[(i, j)] = rng.randint(-5, 5)
            inst = ising_to_qubo(n, h, J)
            for mask in range(1 << n):
                x = [(mask >> k) & 1 for k in range(n)]
                s = [2 * b - 1 for b in x]
                ising = sum(h[i] * s[i - 1] for i in h)
                ising += sum(v * s[i - 1] * s[j - 1] for (i, j), v in J.items())
                assert evaluate(inst, x) == ising


class TestFileFormat:
    def test_round_trip_identity(self, tmp_path):
        inst = build_from_triplets(2, [(1, 1, 3), (2, 2, -2), (1, 2, 2)])
        path = tmp_path / "a.qubo"
        write_instance(inst, path)
        assert read_instance(path) == inst

    def test_round_trip_on_random_instances(self, tmp_path):
        rng = random.Random(3)
        for k in range(25):
            n = rng.randint(0, 8)
            entries = [
                (rng.randint(1, n), rng.randint(1, n), rng.randint(-99, 99))
                for _ in range(rng.randint(0, 15))
            ] if n else []
            inst = QuboInstance(
                n,
                build_from_triplets(n, entries).linear,
                build_from_triplets(n, entries).quadratic,
                rng.randint(-50, 50),
            )
            path = tmp_path / f"r{k}.qubo"
            write_instance(inst, path)
            assert read_instance(path) == inst

    def test_canonicalizes_pair_order(self, tmp_path):
        path = tmp_path / "c.qubo"
        path.write_text("p qubo 2\nq 2 1 5\n")
        inst = read_instance(path)
        assert inst.quadratic == {(1, 2): 5}

    def test_repeated_pairs_accumulate(self, tmp_path):
        path = tmp_path / "d.qubo"
        path.write_text("p qubo 2\nq 1 2 5\nq 2 1 3\n")
        assert read_instance(path).quadratic == {(1, 2): 8}

    def test_index_beyond_n_reports_line(self, tmp_path):
        path = tmp_path / "e.qubo"
        path.write_text("p qubo 2\nl 1 4\nq 1 3 5\n")
        with pytest.raises(QuboFormatError, match="line 3"):
            read_instance(path)

    def test_malformed_line_reports_line(self, tmp_path):
        path = tmp_path / "f.qubo"
        path.write_text("p qubo 2\nl 1 x\n")
        with pytest.raises(QuboFormatError, match="line 2"):
            read_instance(path)

    def test_missing_problem_line(self, tmp_path):
        path = tmp_path / "g.qubo"
        path.write_text("l 1 4\n")
        with pytest.raises(QuboFormatError):
            read_instance(path)

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "h.qubo"
        path.write_text("# header\n\np qubo 2  # trailing\no 3\nl 2 -1\n")
        inst = read_instance(path)
        assert inst.offset == 3 and inst.linear == {2: -1}

    def test_writer_emits_canonical_order(self, tmp_path):
        inst = QuboInstance(3, {2: 5, 1: -1}, {(2, 3): 1, (1, 2): 2}, 4)
        path = tmp_path / "i.qubo"
        write_instance(inst, path)
        lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        assert lines == ["p qubo 3", "o 4", "l 1 -1", "l 2 5", "q 1 2 2", "q 2 3 1"]
