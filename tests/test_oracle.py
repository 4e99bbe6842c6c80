import itertools
import random
from math import ceil, floor

import pytest

from conftest import optima_by_enumeration, random_instance
from quboreduce import run_to_fixed_point
from quboreduce.engine import SolutionMap
from quboreduce.generator import GeneratorSpec, design_table, generate_instance
from quboreduce.model import QuboInstance, build_from_triplets
from quboreduce import oracle
from quboreduce.oracle import brute_force_solve, check_equivalence


class TestBruteForce:
    def test_two_variable_example(self):
        inst = build_from_triplets(2, [(1, 1, 3), (2, 2, -2), (1, 2, 2)])
        res = brute_force_solve(inst)
        assert res.optimum == 3
        assert sorted(res.optima) == [(1, 0), (1, 1)]
        assert res.evaluated_count == 4 and not res.truncated

    def test_single_negative_variable(self):
        res = brute_force_solve(build_from_triplets(1, [(1, 1, -5)]))
        assert res.optimum == 0 and res.optima == [(0,)]

    def test_empty_instance_with_offset(self):
        res = brute_force_solve(QuboInstance(0, {}, {}, 7))
        assert res.optimum == 7 and res.optima == [()]

    def test_size_limit_refusal(self):
        inst = QuboInstance(30, {}, {}, 0)
        with pytest.raises(ValueError, match="limit"):
            brute_force_solve(inst)

    def test_matches_independent_enumeration(self):
        rng = random.Random(5)
        for _ in range(120):
            inst = random_instance(rng, rng.randint(1, 9))
            best, opts = optima_by_enumeration(inst)
            res = brute_force_solve(inst)
            assert res.optimum == best
            assert sorted(res.optima) == sorted(opts)

    def test_invariant_under_index_permutation(self):
        rng = random.Random(9)
        for _ in range(40):
            n = rng.randint(2, 8)
            inst = random_instance(rng, n)
            perm = list(range(1, n + 1))
            rng.shuffle(perm)
            entries = [(perm[i - 1], perm[i - 1], v) for i, v in inst.linear.items()]
            entries += [(perm[i - 1], perm[j - 1], v) for (i, j), v in inst.quadratic.items()]
            permuted = build_from_triplets(n, entries)
            assert brute_force_solve(inst).optimum == brute_force_solve(permuted).optimum

    def test_negation_consistency(self):
        # max of the negated instance equals -min of the original objective
        rng = random.Random(13)
        for _ in range(40):
            n = rng.randint(1, 8)
            inst = random_instance(rng, n)
            neg = QuboInstance(
                n,
                {i: -v for i, v in inst.linear.items()},
                {k: -v for k, v in inst.quadratic.items()},
                0,
            )
            values = [
                sum(v * ((m >> (i - 1)) & 1) for i, v in inst.linear.items())
                + sum(v * ((m >> (i - 1)) & 1) * ((m >> (j - 1)) & 1)
                      for (i, j), v in inst.quadratic.items())
                for m in range(1 << n)
            ]
            assert brute_force_solve(neg).optimum == -min(values)

    def test_optima_cap_flags_truncation(self):
        inst = QuboInstance(17, {}, {}, 0)  # every assignment is optimal
        res = brute_force_solve(inst)
        assert res.truncated and len(res.optima) == 1 << 16
        # The kept optima are the first 2^16 in index order.
        assert all(
            opt == tuple((k >> b) & 1 for b in range(17))
            for k, opt in enumerate(res.optima)
        )
        # Exactly 2^16 optima, spread over both chunks, are not truncated.
        res = brute_force_solve(QuboInstance(17, {1: -1}, {}, 0))
        assert not res.truncated and len(res.optima) == 1 << 16
        assert res.optima[-1] == (0,) + (1,) * 16

    @pytest.mark.parametrize("chunk_bits", [2, 3])
    def test_optima_order_across_chunks(self, monkeypatch, chunk_bits):
        monkeypatch.setattr(oracle, "_CHUNK_BITS", chunk_bits)
        rng = random.Random(100 + chunk_bits)
        for _ in range(120):
            # Small coefficients make ties, so optima span several chunks.
            inst = random_instance(rng, rng.randint(1, 10), coef=rng.choice([1, 2, 10]))
            best, opts = optima_by_enumeration(inst)
            res = brute_force_solve(inst)
            assert res.optimum == best
            assert res.optima == opts
            assert res.evaluated_count == 1 << inst.n and not res.truncated

    def test_overflow_guard_boundary(self):
        # Sum of |coefficients| (offset included) is 2^62 - 1: still exact.
        inst = QuboInstance(
            3, {1: 1 << 61, 3: -(1 << 59)}, {(1, 2): -(1 << 60)}, (1 << 59) - 1
        )
        best, opts = optima_by_enumeration(inst)
        res = brute_force_solve(inst)
        assert res.optimum == best and res.optima == opts
        with pytest.raises(ValueError, match="overflow"):
            brute_force_solve(QuboInstance(3, inst.linear, inst.quadratic, 1 << 59))

    def test_independent_blocks_at_the_limit(self):
        # 24 variables in blocks of bits 0-4, 5-9, 10-14, 15-19 and 20-23;
        # the block on bits 15-19 straddles the default 16-bit chunk.
        rng = random.Random(24)
        starts = [0, 5, 10, 15, 20]
        sizes = [5, 5, 5, 5, 4]
        entries, block_results = [], []
        for start, size in zip(starts, sizes):
            block = random_instance(rng, size, coef=2)
            block_results.append(optima_by_enumeration(block))
            entries += [(start + i, start + i, v) for i, v in block.linear.items()]
            entries += [(start + i, start + j, v) for (i, j), v in block.quadratic.items()]
        inst = build_from_triplets(24, entries)
        res = brute_force_solve(inst)
        assert oracle._CHUNK_BITS == 16
        assert res.optimum == sum(best for best, _ in block_results)
        # Index order: the last block's bits are the most significant.
        expected = [
            sum(reversed(parts), ())
            for parts in itertools.product(*[opts for _, opts in reversed(block_results)])
        ]
        assert len(expected) > 1
        assert res.optima == expected
        assert res.evaluated_count == 1 << 24 and not res.truncated


class TestCheckEquivalence:
    def test_fully_reduced_triple(self):
        inst = build_from_triplets(
            3, [(1, 1, 1), (2, 2, 1), (3, 3, 2), (1, 2, -2), (2, 3, 1)]
        )
        reduced, _, smap = run_to_fixed_point(inst)
        assert reduced.n == 0 and reduced.offset == 4
        assert check_equivalence(inst, reduced, smap).ok

    def test_identity_reduction_passes(self):
        inst = build_from_triplets(2, [(1, 1, 1)])
        smap = SolutionMap([], [1, 2])
        assert check_equivalence(inst, inst, smap).ok

    def test_corrupted_map_fails_with_counterexample(self):
        inst = build_from_triplets(
            3, [(1, 1, 1), (2, 2, 1), (3, 3, 2), (1, 2, -2), (2, 3, 1)]
        )
        reduced, _, smap = run_to_fixed_point(inst)
        (h, a, b, i), *rest = smap.eliminations
        bad = SolutionMap([(h, 1 - a, b, i), *rest], list(smap.survivors))
        report = check_equivalence(inst, reduced, bad)
        assert not report.ok
        assert report.counterexample is not None

    def test_map_must_partition_the_variables(self):
        inst = build_from_triplets(
            3, [(1, 1, 1), (2, 2, 1), (3, 3, 2), (1, 2, -2), (2, 3, 1)]
        )
        reduced, _, smap = run_to_fixed_point(inst)
        fixed = smap.eliminations
        assert reduced.n == 0 and len(fixed) == 3 and not any(b for _, _, b, _ in fixed)
        for bad in (SolutionMap(fixed + [(1, 0, 1, 1)], []),
                    SolutionMap(fixed + fixed[:1], []),
                    SolutionMap(fixed[1:], [])):
            with pytest.raises(ValueError, match=r"do not list each of 1\.\.3 once"):
                check_equivalence(inst, reduced, bad)

    def test_refuses_oversized(self):
        inst = QuboInstance(30, {}, {}, 0)
        with pytest.raises(ValueError):
            check_equivalence(inst, inst, SolutionMap([], list(range(1, 31))))


@pytest.mark.parametrize("row_id", range(1, 17))
def test_generated_instances_reduce_soundly(row_id):
    # The generator's shape at oracle size: a hub, multiplied linear terms
    # and quadratic outliers together, which random_instance never draws.
    # At 40 edges most variables go, at 80 most survive.
    for seed, edges in itertools.product((1, 2), (40, 80)):
        spec = GeneratorSpec.from_design(20, edges, design_table()[row_id - 1], seed=seed)
        assert ceil(spec.hub_fraction * spec.n) >= 1
        assert floor(spec.pct_quadratic_multiplied * spec.target_edges) >= 1
        inst = generate_instance(spec)
        reduced, _, smap = run_to_fixed_point(inst)
        report = check_equivalence(inst, reduced, smap)
        assert report.ok, f"row {row_id}, seed {seed}, {edges} edges: {report.message}"
