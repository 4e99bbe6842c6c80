import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from quboreduce.generator import GeneratorSpec, design_table, generate_instance
from quboreduce.model import (
    EdgeTable, QuboFormatError, QuboInstance, _parse_lines, _read_bulk, _read_lines,
    build_from_triplets, evaluate, int_array, ising_to_qubo, read_instance, relabel,
    write_instance,
)
from quboreduce.rules import InequalityKind, penalty_rewrite


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

    def test_variable_count_past_index_range_rejected_by_constructor(self):
        # a state indexes its rows 0..n
        with pytest.raises(ValueError, match="exceeds the index range"):
            QuboInstance(sys.maxsize, {}, {}, 0)

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: QuboInstance(2, {1: -1}, {(1, 2): 2.5}), id="float-pair"),
        pytest.param(lambda: QuboInstance(2, {1: 0.5}, {(1, 2): 3}), id="float-linear"),
        pytest.param(lambda: QuboInstance(2, {1: 1}, {}, 0.5), id="float-offset"),
        pytest.param(lambda: QuboInstance(2, {1: Fraction(1, 2)}, {}), id="fraction-linear"),
        pytest.param(lambda: QuboInstance(2, {}, {(1, 2): Fraction(3)}), id="fraction-pair"),
        pytest.param(lambda: QuboInstance(2, {}, EdgeTable(
            np.array([1]), np.array([2]), np.array([2.5]))), id="float64-table"),
        pytest.param(lambda: QuboInstance(2, {}, EdgeTable(
            np.array([1]), np.array([2]), np.array([2.5], dtype=object))), id="float-object-table"),
    ])
    def test_non_integer_coefficient_rejected_by_constructor(self, make):
        # the engine reduces integers: it would store 2.5 as 2 and reduce
        # another problem than the one evaluate() scores
        with pytest.raises(ValueError, match="integer"):
            make()

    @pytest.mark.parametrize("make, entry", [
        pytest.param(lambda: QuboInstance(3, {}, {(1.5, 2): 1}), r"\(1\.5, 2\)",
                     id="float-pair-index"),
        pytest.param(lambda: QuboInstance(3, {}, {(1, 2): 1, (2, Fraction(3)): -1}),
                     r"\(2, Fraction\(3, 1\)\)", id="fraction-pair-index"),
        pytest.param(lambda: QuboInstance(3, {1.5: 2}, {}), r"1\.5", id="float-linear-index"),
        pytest.param(lambda: QuboInstance(3, {}, EdgeTable(
            np.array([1.5]), np.array([2.0]), np.array([1]))), r"\(1\.5, 2\.0\)",
                     id="float64-table-index"),
        pytest.param(lambda: QuboInstance(3, {}, EdgeTable(np.array([1], dtype=np.int32),
                     np.array([2], dtype=np.int32), np.array([1]))), "int32",
                     id="int32-table-index"),
        pytest.param(lambda: QuboInstance(3.0, {}, {}), r"3\.0", id="float-variable-count"),
    ])
    def test_non_integer_index_rejected_by_constructor(self, make, entry):
        # np.fromiter would take 1.5 as 1 and reduce the pair (1, 2)
        with pytest.raises(ValueError, match=entry):
            make()

    @pytest.mark.parametrize("make, entry", [
        pytest.param(lambda: QuboInstance(True, {}, {}), "got True", id="variable-count"),
        pytest.param(lambda: QuboInstance(2, {}, {}, True), "offset True", id="offset"),
        pytest.param(lambda: QuboInstance(2, {True: 3}, {}), "index True", id="linear-index"),
        pytest.param(lambda: QuboInstance(4, {1: True}, {(1, 2): True, (3, 4): 10**30}),
                     "coefficient True at 1 ", id="linear-value"),
        pytest.param(lambda: QuboInstance(4, {}, {(True, 2): 3}), r"\(True, 2\)",
                     id="pair-index"),
        pytest.param(lambda: QuboInstance(4, {}, {(1, 2): True, (3, 4): 10**30}),
                     r"True at \(1, 2\)", id="pair-value"),
        pytest.param(lambda: QuboInstance(4, {}, EdgeTable(np.array([1, 3]), np.array([2, 4]),
                     np.array([10**30, True], dtype=object))), r"True at \(3, 4\)",
                     id="object-table-value"),
    ])
    def test_bool_rejected_by_constructor(self, make, entry):
        # True is an int, but the writer would write it as "True", which the
        # reader refuses
        with pytest.raises(ValueError, match=entry):
            make()

    @pytest.mark.parametrize("key", [(1, 2**63), (2**70, 2), (-2**64, 2)])
    def test_index_past_int64_is_out_of_range(self, key):
        with pytest.raises(ValueError, match=r"outside 1\.\.3"):
            QuboInstance(3, {}, {key: 1})

    def test_malformed_keys_rejected_as_before(self):
        with pytest.raises(ValueError, match="unpack"):
            QuboInstance(3, {}, {(1, 2, 3): 1})
        with pytest.raises(ValueError, match="unpack"):
            QuboInstance(3, {}, {(1,): 1})

    def test_every_instance_holds_a_table_in_the_map_order(self, tmp_path):
        items = [((3, 9), -4), ((1, 2), 5), ((4, 5), 10**30), ((2, 7), np.int32(6))]
        inst = QuboInstance(9, {1: 2}, dict(items), 3)
        assert isinstance(inst.quadratic, EdgeTable)
        assert list(inst.quadratic.items()) == items
        assert inst.quadratic.lo.dtype == inst.quadratic.hi.dtype == np.int64
        assert inst.quadratic.d.dtype == object
        path = tmp_path / "t.qubo"
        write_instance(inst, path)
        # CR line ends send the file through the line parser
        path.write_text(path.read_text().replace("\n", "\r\n"))
        made = [
            inst,
            QuboInstance(9, {}, table(items[:2])),
            read_instance(path),
            _read_bulk(b"p qubo 3\nq 1 2 5\n"),
            build_from_triplets(3, [(1, 2, 1), (2, 2, 3)]),
            ising_to_qubo(3, (1, 0, -1), {(1, 3): 2}),
            QuboInstance.without_zeros(3, {1: 0}, {(1, 2): 0, (2, 3): 4}),
            penalty_rewrite(inst, InequalityKind.AT_MOST_ONE, 1, 2, 10**31),
            relabel(QuboInstance(9, {}, {(3, 9): 1}), [3, 9], [1, 2], 2),
        ]
        for got in made:
            assert type(got.quadratic) is EdgeTable, got

    def test_numpy_integers_accepted(self):
        inst = QuboInstance(2, {1: np.int64(-1)}, {(1, 2): np.int32(3)}, np.int64(2))
        assert evaluate(inst, [1, 1]) == 4


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

    def test_writer_relabels_through_ascending_ids(self, tmp_path):
        inst = QuboInstance(3, {2: 5, 1: -1}, {(2, 3): 1, (1, 2): 2}, 4)
        path = tmp_path / "j.qubo"
        write_instance(relabel(inst, [1, 2, 3], [2, 7, 9], 10), path)
        assert read_instance(path) == QuboInstance(
            10, {2: -1, 7: 5}, {(2, 7): 2, (7, 9): 1}, 4)
        lines = path.read_text().splitlines()
        assert lines == ["p qubo 10", "o 4", "l 2 -1", "l 7 5", "q 2 7 2", "q 7 9 1"]


def table(items) -> EdgeTable:
    """An edge table over the given ((i, j), d) items, in their order."""
    lo, hi, d = zip(*[(i, j, v) for (i, j), v in items]) if items else ((), (), ())
    return EdgeTable(np.array(lo, dtype=np.int64), np.array(hi, dtype=np.int64),
                     int_array(list(d)))


class TestEdgeTable:
    ITEMS = [((3, 9), -4), ((1, 2), 5), ((4, 5), 10**30)]

    def test_mapping_contract(self):
        t, d = table(self.ITEMS), dict(self.ITEMS)
        assert t == d and d == t and not t != d
        assert t == table(self.ITEMS[::-1]) and t != {(1, 2): 5}
        assert t != dict(self.ITEMS[:2] + [((4, 5), 10**30 + 1)])
        assert list(t) == list(t.keys()) == [(3, 9), (1, 2), (4, 5)]
        assert list(t.items()) == self.ITEMS
        assert list(t.values()) == [-4, 5, 10**30]
        assert all(type(v) is int for v in t.values())
        assert t[(1, 2)] == 5 and (1, 2) in t and (2, 1) not in t
        assert t.get((2, 1)) is None and ((4, 5), 10**30) in t.items()
        with pytest.raises(KeyError):
            t[(2, 1)]
        assert len(t) == 3 and len(table([])) == 0 and table([]) == {}
        assert repr(t) == repr(d)
        inst_t, inst_d = QuboInstance(9, {1: 2}, t, 3), QuboInstance(9, {1: 2}, d, 3)
        assert inst_t == inst_d and inst_d == inst_t and repr(inst_t) == repr(inst_d)
        assert inst_t.num_edges == 3

    @pytest.mark.parametrize("items", [
        [((1, 4), 2)], [((0, 2), 1)], [((2, 1), 3)], [((2, 2), 3)], [((1, 2), 0)],
        [((1, 2), 5), ((3, 1), 2), ((1, 3), 0)],
        [((1, 2), 5), ((1, 3), 0), ((3, 1), 2)],
    ])
    def test_same_errors_as_a_dict(self, items):
        with pytest.raises(ValueError) as from_dict:
            QuboInstance(3, {}, dict(items))
        with pytest.raises(ValueError) as from_table:
            QuboInstance(3, {}, table(items))
        assert str(from_table.value) == str(from_dict.value)

    @pytest.mark.parametrize("items", [
        [((1, 2), 5), ((1, 2), 3)],
        [((2, 3), 5), ((1, 2), 1), ((2, 3), -3)],
    ])
    def test_repeated_pair_rejected(self, items):
        with pytest.raises(ValueError, match=r"pair \(\d, \d\) repeats"):
            QuboInstance(3, {}, table(items))

    def test_writer_sorts_the_pairs(self, tmp_path):
        rng = random.Random(12)
        path = tmp_path / "w.qubo"
        for _ in range(20):
            items = list(build_from_triplets(12, [
                (rng.randint(1, 12), rng.randint(1, 12), rng.choice((1, 10**20)) * rng.randint(-9, 9))
                for _ in range(30)]).quadratic.items())
            rng.shuffle(items)
            # variable k is written as k + 1
            want = "p qubo 20\no 2\nl 4 -1\n" + "".join(
                f"q {i + 1} {j + 1} {v}\n" for (i, j), v in sorted(items))
            for quadratic in (dict(items), table(items)):
                write_instance(relabel(QuboInstance(12, {3: -1}, quadratic, 2),
                                       range(1, 13), range(2, 14), 20), path)
                assert path.read_text() == want

    def test_bulk_parse_gives_a_table(self, tmp_path):
        path = tmp_path / "t.qubo"
        path.write_text("p qubo 9\nq 2 1 5\nq 3 9 -4\n")
        got = read_instance(path).quadratic
        assert isinstance(got, EdgeTable) and list(got.items()) == [((1, 2), 5), ((3, 9), -4)]


class TestRelabel:
    # survivors 2, 7, 9 of a 10-variable instance, one value beyond int64
    ITEMS = [((2, 7), 4), ((7, 9), -10**30), ((2, 9), 3)]

    def test_both_directions_keep_the_order_and_the_values(self):
        sparse = QuboInstance(10, {7: 5, 2: -1}, table(self.ITEMS), 4)
        dense = relabel(sparse, [2, 7, 9], [1, 2, 3], 3)
        assert dense == QuboInstance(3, {1: -1, 2: 5}, {(1, 2): 4, (2, 3): -10**30, (1, 3): 3}, 4)
        assert list(dense.quadratic) == [(1, 2), (2, 3), (1, 3)]
        assert list(dense.linear) == [2, 1]
        assert dense.quadratic.d.dtype == object
        back = relabel(dense, range(1, 4), [2, 7, 9], 10)
        assert back == sparse and list(back.quadratic.items()) == self.ITEMS
        small = relabel(QuboInstance(5, {}, {(3, 5): 2}), [3, 5], [1, 2], 2)
        assert small.quadratic == {(1, 2): 2} and small.quadratic.d.dtype == np.int64

    def test_unlisted_variable_is_refused(self):
        inst = QuboInstance(4, {1: 2}, {(2, 4): 1})
        with pytest.raises(ValueError, match="reduced variable 4 is not a survivor"):
            relabel(inst, [1, 2, 3], [1, 2, 3], 3)
        with pytest.raises(ValueError, match="reduced variable 1 is not a survivor"):
            relabel(inst, [2, 4], [1, 2], 2)
        with pytest.raises(ValueError):
            relabel(inst, [1, 2, 4], [1, 2], 2)  # one new id short

    def test_empty_old(self):
        assert relabel(QuboInstance(3, {}, {}, 5), [], [], 0) == QuboInstance(0, {}, {}, 5)
        with pytest.raises(ValueError, match="reduced variable 2 is not a survivor"):
            relabel(QuboInstance(3, {2: 1}, {}), [], [], 0)

    def test_ids_outside_the_instance_are_ignored(self):
        # a log's survivors are outside input: no IndexError or OverflowError
        inst = QuboInstance(3, {1: 1}, {(1, 3): 2})
        old = [-10**30, -1, 0, 1, 3, 4, 2**63, 10**30]
        assert relabel(inst, old, range(-2, 6), 2) == QuboInstance(2, {1: 1}, {(1, 2): 2})


def same_as_line_parser(path) -> QuboInstance | str:
    """Assert read_instance agrees with the line parser; returns its result.

    Agreement covers the dicts' insertion order, which the engine's scan
    order follows, and the exact message of an error, which is returned.
    """
    try:
        expected = _read_lines(path.read_bytes())
    except QuboFormatError as exc:
        with pytest.raises(QuboFormatError) as got:
            read_instance(path)
        assert str(got.value) == str(exc)
        return str(exc)
    got = read_instance(path)
    assert got == expected
    assert list(got.linear.items()) == list(expected.linear.items())
    assert list(got.quadratic.items()) == list(expected.quadratic.items())
    return got


def q_block(n_lines: int, n: int) -> list[str]:
    rng = random.Random(n_lines)
    pairs = set()
    while len(pairs) < n_lines:
        i, j = rng.sample(range(1, n + 1), 2)
        pairs.add((min(i, j), max(i, j)))
    return [f"q {i} {j} {rng.choice([-1, 1]) * rng.randint(1, 99)}\n"
            for i, j in sorted(pairs)]


class TestBulkParse:
    """The bulk q-block path gives the line parser's result on every file."""

    HEAD = "# header\np qubo 9\no -3\nl 2 4\nl 5 -7\n"

    def check(self, tmp_path, text, bulk: bool):
        path = tmp_path / "x.qubo"
        path.write_bytes(text.encode() if isinstance(text, str) else text)
        assert (_read_bulk(path.read_bytes()) is not None) is bulk
        return same_as_line_parser(path)

    def test_writer_output_takes_the_bulk_path(self, tmp_path):
        inst = self.check(tmp_path, self.HEAD + "q 1 2 5\nq 2 9 -3\nq 3 4 1\n", True)
        assert inst == QuboInstance(9, {2: 4, 5: -7}, {(1, 2): 5, (2, 9): -3, (3, 4): 1}, -3)
        assert self.check(tmp_path, self.HEAD, True).quadratic == {}

    @pytest.mark.parametrize("value", [
        2**63 + 5, -(2**63) - 5, 10**18, -(10**18), 9223372036854775807,
        10**40,
    ])
    def test_values_beyond_18_digits_stay_exact(self, tmp_path, value):
        inst = self.check(tmp_path, self.HEAD + f"q 1 2 5\nq 3 4 {value}\n", False)
        assert inst.quadratic[(3, 4)] == value

    def test_largest_bulk_value_is_exact(self, tmp_path):
        value = -(10**18 - 1)
        inst = self.check(tmp_path, self.HEAD + f"q 3 4 {value}\n", True)
        assert inst.quadratic[(3, 4)] == value

    def test_malformed_line_deep_in_a_long_block(self, tmp_path):
        lines = q_block(100_000, 2000)
        head = "p qubo 2000\no 0\n"
        self.check(tmp_path, head + "".join(lines), True)
        for bad in ("q 12 13 x\n", "q 12 13\n", "q 12 2001 4\n", "q 0 5 4\n",
                    "q 7 7 3\n", "w 1 2 3\n"):
            broken = lines[:]
            broken[77_777] = bad
            message = self.check(tmp_path, head + "".join(broken), False)
            assert message.startswith("line 77780: ")

    def test_comment_and_blank_line_inside_the_block(self, tmp_path):
        body = "q 1 2 5\n# note\nq 3 4 1  # trailing\n\nq 2 9 -3\n"
        inst = self.check(tmp_path, self.HEAD + body, False)
        assert inst.quadratic == {(1, 2): 5, (3, 4): 1, (2, 9): -3}

    def test_repeated_and_cancelling_pairs(self, tmp_path):
        inst = self.check(tmp_path, self.HEAD + "q 1 2 5\nq 3 4 1\nq 2 1 3\n", False)
        assert inst.quadratic == {(1, 2): 8, (3, 4): 1}
        inst = self.check(tmp_path, self.HEAD + "q 1 2 5\nq 3 4 1\nq 2 1 -5\n", False)
        assert inst.quadratic == {(3, 4): 1}
        inst = self.check(tmp_path, self.HEAD + "q 1 2 0\nq 3 4 1\n", False)
        assert inst.quadratic == {(3, 4): 1}

    def test_reversed_pairs(self, tmp_path):
        inst = self.check(tmp_path, self.HEAD + "q 2 1 5\nq 9 3 -4\nq 4 5 1\n", True)
        assert list(inst.quadratic.items()) == [((1, 2), 5), ((3, 9), -4), ((4, 5), 1)]

    def test_crlf_and_missing_final_newline(self, tmp_path):
        text = self.HEAD + "q 1 2 5\nq 3 4 1\n"
        expected = self.check(tmp_path, text, True)
        assert self.check(tmp_path, text.replace("\n", "\r\n"), False) == expected
        assert self.check(tmp_path, text.rstrip("\n"), False) == expected
        head_only = self.HEAD.replace("\n", "\r\n") + "q 1 2 5\nq 3 4 1\n"
        assert self.check(tmp_path, head_only, False) == expected

    def test_non_utf8_head(self, tmp_path):
        message = self.check(tmp_path, b"p qubo 2\n\xff\nq 1 2 3\n", False)
        assert message.startswith("file is not UTF-8 text")

    def test_non_utf8_position_counts_from_the_file_start(self, tmp_path):
        # far past the first chunk a text-mode file decodes
        data = b"p qubo 2\n" + b"# padding\n" * 30000 + b"l 1 \xff\n"
        message = self.check(tmp_path, data, False)
        assert f"position {data.index(0xff)}:" in message

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
    def test_lines_split_as_in_a_text_file(self, tmp_path, end):
        path = tmp_path / "x.qubo"
        path.write_bytes(end.join(["p qubo 3", "l 1 2", "q 1 2 -3", "q 3 2 4", ""]).encode())
        try:
            with open(path, encoding="utf-8") as fh:
                n, offset, linear, quadratic = _parse_lines(fh)
        except QuboFormatError as exc:
            with pytest.raises(QuboFormatError) as got:
                _read_lines(path.read_bytes())
            assert str(got.value) == str(exc)
            return
        assert _read_lines(path.read_bytes()) == QuboInstance(n, linear, quadratic, offset)

    MUTATIONS = [
        lambda t: t.replace("\n", "\r\n"),
        lambda t: t.rstrip("\n"),
        lambda t: t + "q 1 2 3\n",
        lambda t: t + "# end\n",
        lambda t: t + "\n",
        lambda t: t.replace("q ", "q  ", 1),
        lambda t: t.replace("q ", "q\t", 1),
        lambda t: t.replace(" -", " +", 1),
        lambda t: t.replace(" -", " -0", 1),
        lambda t: t.replace("q 1", "q 01", 1),
        lambda t: t.replace("q 1", "q 1_0", 1),
        lambda t: t.replace(" 1\n", " 0\n", 1),
        lambda t: t.replace(" 1\n", f" {2**64}\n", 1),
        lambda t: t.replace(" 1\n", " 1000000000000000000\n", 1),
        lambda t: t.replace("q 1 ", "q 0 ", 1),
        lambda t: t.replace("q 1 ", "q 99999 ", 1),
        lambda t: t.replace("q 1 ", "q -1 ", 1),
        lambda t: t.replace("l ", "q ", 1),
        lambda t: t.replace("p qubo", "q 1 2 3\np qubo", 1),
        lambda t: t.replace("o ", "q 1 2 3\no ", 1),
        lambda t: t.replace("p qubo 60", "p qubo 6", 1),
        lambda t: t.replace("p qubo 60", "p qubo 99999999999999999999999", 1),
        lambda t: "p qubo 60\n" + t,
        lambda t: t.replace("\n", "\nq 3 4 5\n", 3),
        lambda t: t.replace("\n", " \n"),
        lambda t: t.replace("\n", "\u2028", 1),
    ]

    def test_randomized_against_line_parser(self, tmp_path):
        rng = random.Random(11)
        for k in range(12):
            spec = GeneratorSpec.from_design(60, 300, design_table()[k % 16], seed=k)
            path = tmp_path / "g.qubo"
            write_instance(generate_instance(spec), path, header=["generated"])
            text = path.read_text()
            assert isinstance(same_as_line_parser(path), QuboInstance)
            assert _read_bulk(path.read_bytes()) is not None
            for mutate in rng.sample(self.MUTATIONS, 8):
                path.write_text(mutate(text), newline="")
                same_as_line_parser(path)
            lines = text.splitlines(keepends=True)
            for _ in range(8):
                mutated = lines[:]
                k = rng.randrange(len(mutated))
                a, b = rng.randrange(len(mutated)), rng.randrange(len(mutated))
                mutated[k] = rng.choice([
                    mutated[k][: rng.randrange(len(mutated[k]))],
                    mutated[a],
                    mutated[k].replace(" ", "  "),
                    f"q {rng.randint(0, 61)} {rng.randint(0, 61)} {rng.randint(-3, 3)}\n",
                ])
                mutated[a], mutated[b] = mutated[b], mutated[a]
                path.write_text("".join(mutated), newline="")
                same_as_line_parser(path)
