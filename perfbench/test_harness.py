"""Tests of the benchmark harness itself: python -m pytest perfbench"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
from quboreduce import cli, generator, model, rules  # noqa: E402

RUN = HERE / "run.py"


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_smoke_runs_every_workload_untraced_and_traced():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke", "--seconds", "0"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    wanted = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert sorted(tracing.LAYER_METRICS) == sorted(m["name"] for m in spec["per_layer"])
    for workload in spec["workloads"]:
        for name in wanted:
            assert f"{workload['name']}.{name}" in result["metrics"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "_results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "oracle-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _reduce(tmp_path, spec):
    path = tmp_path / "a.qubo"
    model.write_instance(generator.generate_instance(spec), path)
    red, log = tmp_path / "a.reduced", tmp_path / "a.json"
    assert cli.main(["reduce", str(path), "-o", str(red), "--log", str(log)]) == 0
    return path, red, json.loads(log.read_text())


def test_reduction_checks_pass_and_catch_corruption(tmp_path):
    spec = generator.GeneratorSpec.from_design(400, 4000, generator.design_table()[0], seed=3)
    path, red, doc = _reduce(tmp_path, spec)
    original = checks.parse_problem(path)
    rng = np.random.default_rng(0)
    assert doc["assignments"] and doc["identities"] and doc["survivors"]
    assert checks.check_reduction(original, checks.parse_problem(red), doc, rng, 8) == []

    # A changed pair weight changes the objective of some lifted assignment.
    lines = red.read_text().splitlines()
    k = next(i for i, line in enumerate(lines) if line.startswith("q "))
    a, b, w = lines[k].split()[1:]
    lines[k] = f"q {a} {b} {int(w) + 1}"
    (tmp_path / "bad.qubo").write_text("\n".join(lines) + "\n")
    found = checks.check_reduction(
        original, checks.parse_problem(tmp_path / "bad.qubo"), doc, rng, 8)
    assert found and "objective" in found[0]

    # A flipped identity breaks the lift.
    flipped = dict(doc, identities=[
        [d, "same" if kind == "complement" else "complement", kept]
        for d, kind, kept in doc["identities"]
    ])
    assert checks.check_reduction(original, checks.parse_problem(red), flipped, rng, 8)

    # A dropped assignment leaves a variable nowhere.
    partial = dict(doc, assignments=doc["assignments"][1:])
    found = checks.check_reduction(original, checks.parse_problem(red), partial, rng, 8)
    assert "partition" in found[0]


def test_fix_check_flags_a_reducible_survivor(tmp_path):
    (tmp_path / "o.qubo").write_text("p qubo 2\nl 1 5\nl 2 -1\nq 1 2 2\n")
    (tmp_path / "r.qubo").write_text("p qubo 2\nl 1 5\nl 2 -1\nq 1 2 2\n")
    doc = {"survivors": [1, 2], "assignments": [], "identities": [], "offset": 0}
    found = checks.check_reduction(checks.parse_problem(tmp_path / "o.qubo"),
                                   checks.parse_problem(tmp_path / "r.qubo"),
                                   doc, np.random.default_rng(0), 2)
    assert found == ["single-variable fix still fires on survivor 1"]


@pytest.mark.parametrize("seed", range(6))
def test_enumerated_optimum_matches_a_plain_loop(tmp_path, seed):
    rnd = random.Random(seed)
    n = rnd.randint(1, 9)
    lines = [f"p qubo {n}", f"o {rnd.randint(-5, 5)}"]
    lines += [f"l {i} {rnd.randint(-9, 9)}" for i in range(1, n + 1)]
    lines += [f"q {j} {i} {rnd.randint(-9, 9)}" for i in range(1, n + 1)
              for j in range(i + 1, n + 1) if rnd.random() < 0.6]
    lines.append(lines[-1])  # a repeated pair accumulates
    (tmp_path / "x.qubo").write_text("\n".join(lines) + "\n")
    problem = checks.parse_problem(tmp_path / "x.qubo")
    best = max(
        checks.evaluate(problem, np.array([0] + [(m >> k) & 1 for k in range(n)]))
        for m in range(1 << n)
    )
    assert checks.enumerate_optimum(problem) == best


def test_tracer_restores_what_it_wraps():
    original = rules.rule_fix_zero
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert rules.rule_fix_zero is not original
        assert tracer.missing == []
    finally:
        tracer.uninstall()
    assert rules.rule_fix_zero is original
    assert not isinstance(cli.json, tracing._ModuleProxy)
