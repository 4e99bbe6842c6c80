import dataclasses
import hashlib
import io
import math

import pytest

from quboreduce import generator
from quboreduce.generator import (
    DESK_SIZES, STANDARD_SIZES, DesignRow, GeneratorSpec, design_table,
    generate_benchmark_suite, generate_instance,
)
from quboreduce.model import write_instance


def connected_components(n, pairs):
    parent = list(range(n + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return len({find(v) for v in range(1, n + 1)})


class TestDesignTable:
    def test_sixteen_rows(self):
        assert len(design_table()) == 16

    def test_pinned_rows(self):
        rows = design_table()
        assert rows[0] == DesignRow(10, 10, 20, 0.05, 0.10, 0.25)
        assert rows[15] == DesignRow(10, 10, 20, 0.15, 0.20, 0.05)
        assert rows[7] == DesignRow(100, 5, 10, 0.05, 0.10, 0.25)

    def test_levels_are_two_per_factor(self):
        rows = design_table()
        assert {r.upper_bound for r in rows} == {10, 100}
        assert {r.linear_multiplier for r in rows} == {5, 10}
        assert {r.quadratic_multiplier for r in rows} == {10, 20}
        assert {r.pct_quadratic_multiplied for r in rows} == {0.05, 0.15}
        assert {r.pct_linear_multiplied for r in rows} == {0.10, 0.20}
        assert {r.pct_nonzero_linear for r in rows} == {0.05, 0.25}

    def test_balanced_design(self):
        rows = design_table()
        for attr in ("upper_bound", "linear_multiplier", "quadratic_multiplier",
                     "pct_quadratic_multiplied", "pct_linear_multiplied",
                     "pct_nonzero_linear"):
            values = [getattr(r, attr) for r in rows]
            assert values.count(min(values)) == 8


class TestGenerateInstance:
    def test_standard_1000L_counts(self):
        spec = GeneratorSpec.from_design(1000, 5000, design_table()[0], seed=42)
        inst = generate_instance(spec)
        assert inst.n == 1000
        assert inst.num_edges == 5000
        assert len(inst.linear) == 250  # exactly 25% of 1000
        assert connected_components(1000, inst.quadratic) == 1

    def test_deterministic_per_seed(self):
        spec = GeneratorSpec.from_design(300, 1500, design_table()[2], seed=9)
        a = generate_instance(spec)
        b = generate_instance(spec)
        assert a == b
        c = generate_instance(
            GeneratorSpec.from_design(300, 1500, design_table()[2], seed=10)
        )
        assert c != a

    def test_small_boundary_all_linear(self):
        row = DesignRow(10, 5, 10, 0.0, 0.0, 1.0)
        spec = GeneratorSpec(
            n=4, target_edges=3, upper_bound=10, linear_multiplier=5,
            quadratic_multiplier=10, pct_quadratic_multiplied=0.0,
            pct_linear_multiplied=0.0, pct_nonzero_linear=1.0, seed=1,
        )
        inst = generate_instance(spec)
        assert inst.num_edges == 3
        assert len(inst.linear) == 4
        assert connected_components(4, inst.quadratic) == 1

    def test_too_few_edges_rejected(self):
        spec = GeneratorSpec.from_design(10, 8, design_table()[0], seed=0)
        with pytest.raises(ValueError, match="connect"):
            generate_instance(spec)

    @pytest.mark.parametrize("field", ["linear_multiplier", "quadratic_multiplier"])
    def test_multiplier_below_one_rejected(self, field):
        spec = GeneratorSpec.from_design(20, 40, design_table()[0], seed=1)
        with pytest.raises(ValueError, match=field):
            generate_instance(dataclasses.replace(spec, **{field: 0}))

    def test_coefficients_past_int64_rejected(self):
        # upper_bound * multiplier reaches 2^70: int64 products would wrap
        spec = dataclasses.replace(
            GeneratorSpec.from_design(20, 40, design_table()[0], seed=1),
            upper_bound=2**40, linear_multiplier=2**30, quadratic_multiplier=2**30,
        )
        with pytest.raises(ValueError, match="2\\^62"):
            generate_instance(spec)
        below = dataclasses.replace(spec, linear_multiplier=2**21, quadratic_multiplier=2**21)
        inst = generate_instance(below)  # 2^61 at most: exact
        assert max(abs(v) for v in inst.quadratic.values()) <= 2**61

    def test_coefficient_ranges(self):
        row = design_table()[0]  # U=10, lin x10, quad x20
        spec = GeneratorSpec.from_design(400, 2000, row, seed=5)
        inst = generate_instance(spec)
        for v in inst.linear.values():
            assert v != 0
            assert abs(v) <= 10 or (abs(v) <= 100 and v % 10 == 0)
        n_lin_out = sum(1 for v in inst.linear.values() if abs(v) > 10)
        assert n_lin_out <= math.floor(0.10 * len(inst.linear))
        for v in inst.quadratic.values():
            assert v != 0
            assert abs(v) <= 10 or (abs(v) <= 200 and v % 20 == 0)
        n_quad_out = sum(1 for v in inst.quadratic.values() if abs(v) > 10)
        assert n_quad_out <= math.floor(0.05 * 2000)

    def test_hub_degrees_dominate(self):
        spec = GeneratorSpec.from_design(1000, 5000, design_table()[0], seed=3)
        inst = generate_instance(spec)
        degree = [0] * (inst.n + 1)
        for i, j in inst.quadratic:
            degree[i] += 1
            degree[j] += 1
        top10 = sorted(degree[1:], reverse=True)[:10]
        rest = sorted(degree[1:], reverse=True)[10:]
        assert sum(top10) / 10 >= 3 * (sum(rest) / len(rest))

    def test_exact_nonzero_linear_count_across_rows(self):
        for row_id in (0, 5, 9):
            row = design_table()[row_id]
            spec = GeneratorSpec.from_design(200, 900, row, seed=7)
            inst = generate_instance(spec)
            assert len(inst.linear) == math.floor(row.pct_nonzero_linear * 200)

    def test_generated_instances_round_trip_through_files(self, tmp_path):
        from quboreduce.model import read_instance, write_instance

        for seed in (0, 1):
            spec = GeneratorSpec.from_design(150, 700, design_table()[seed], seed=seed)
            inst = generate_instance(spec)
            path = tmp_path / f"g{seed}.qubo"
            write_instance(inst, path, header=["generated"])
            assert read_instance(path) == inst


class TestBenchmarkSuite:
    def test_desk_suite_cardinality(self):
        suite = list(generate_benchmark_suite(list(DESK_SIZES), design_table(), seed=7))
        assert len(suite) == 32
        labels = {(item.label, item.row_id) for item in suite}
        assert len(labels) == 32

    def test_standard_configuration_counts_to_96(self):
        assert len(STANDARD_SIZES) * len(design_table()) == 96

    def test_empty_rows_empty_suite(self):
        assert list(generate_benchmark_suite(list(DESK_SIZES), [], seed=1)) == []

    def test_any_bad_spec_raises_before_an_instance_is_built(self, monkeypatch):
        built = []
        monkeypatch.setattr(generator, "generate_instance", built.append)
        with pytest.raises(ValueError, match="more edges"):
            generate_benchmark_suite([("100L", 100, 500), ("3X", 3, 10)], design_table())
        assert built == []

    def test_suite_builds_one_instance_at_a_time(self, monkeypatch):
        built = []
        monkeypatch.setattr(generator, "generate_instance", built.append)
        suite = generate_benchmark_suite(list(DESK_SIZES), design_table(), seed=1)
        assert built == []
        item = next(suite)
        assert built == [item.spec] and (item.label, item.row_id) == (DESK_SIZES[0][0], 1)

    def test_suite_instances_differ_across_rows(self):
        suite = generate_benchmark_suite([("100L", 100, 500)], design_table(), seed=3)
        fingerprints = {
            tuple(sorted(item.instance.linear.items())) for item in suite
        }
        assert len(fingerprints) > 1


def _pinned_specs():
    """Benchmark-shaped, suite and tiny specs, including ones that repair connectivity."""
    row1, row2 = design_table()[0], design_table()[1]
    specs = [GeneratorSpec.from_design(n, m, row1, seed=seed)
             for n, m in ((400, 4000), (300, 15000)) for seed in (1, 2)]
    # the oracle-sweep shape: two thirds of all pairs, no quadratic outliers
    specs += [GeneratorSpec(
        n=n, target_edges=n * (n - 1) // 3, upper_bound=10, linear_multiplier=10,
        quadratic_multiplier=1, pct_quadratic_multiplied=0.0, pct_linear_multiplied=0.2,
        pct_nonzero_linear=0.25, hub_fraction=0.01, seed=1_000_003 + 7919 * k + 1,
    ) for k, n in enumerate((15, 16, 17, 18) * 2)]
    specs += [item.spec for item in generate_benchmark_suite(list(DESK_SIZES), design_table())]
    specs += [GeneratorSpec.from_design(n, m, row2, seed=7 * n + m, hub_fraction=hub)
              for n in (1, 2, 3, 5, 9) for m in range(n - 1, math.comb(n, 2) + 1)
              for hub in (0, 0.5, 1)]
    return specs


def test_pinned_generated_files(monkeypatch):
    # Generated files are part of the benchmark and of every reproduced
    # result.  A deliberate change to generated instances re-pins this digest,
    # with a CHANGES.md entry saying why the files changed.
    repairs = []
    repair = generator._connectivity_repair

    def counted(*args):
        out = repair(*args)
        if out is not args[-1]:
            repairs.append(args[0])
        return out

    monkeypatch.setattr(generator, "_connectivity_repair", counted)
    digest = hashlib.sha256()
    for spec in _pinned_specs():
        text = io.StringIO()
        write_instance(generate_instance(spec), text)
        digest.update(text.getvalue().encode())
    assert repairs  # n = 9, m = 12, hub_fraction = 0, seed 75 repairs
    assert digest.hexdigest() == (
        "25c14324e7cd9ca51599bc2985de601750fbd11503f69bb6b05e33aa0676b47b")
