"""Reduce the paper's standard benchmark suite and report what preprocessing solves.

For each seed given, builds ``generate_benchmark_suite(STANDARD_SIZES,
design_table(), seed)`` one instance at a time, reduces it to its fixed point
and checks the result with ``verify_fixed_point``.  Writes one JSON row per
instance (seed, size label, design row, n, survivors, offset, solved, reduce
seconds, per-rule firings) and prints, per size, the mean share of variables
removed and the count of instances solved outright (no survivors).

    PYTHONPATH=src python tools/suite.py --seeds 0 -o suite.json

One seed is 96 instances and takes about 33 s on one core.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from collections import defaultdict

from quboreduce import design_table, init_state, run_to_fixed_point, verify_fixed_point
from quboreduce.generator import STANDARD_SIZES, generate_benchmark_suite


def reduce_suite(seed: int) -> list[dict]:
    """One result row per instance of the standard suite at ``seed``."""
    rows = []
    for item in generate_benchmark_suite(list(STANDARD_SIZES), design_table(), seed=seed):
        start = time.perf_counter()
        reduced, log, solution_map = run_to_fixed_point(item.instance)
        seconds = time.perf_counter() - start
        if not verify_fixed_point(init_state(reduced)):
            raise RuntimeError(f"{item.label} row {item.row_id} seed {seed}: "
                               "a rule still fires on the reduced instance")
        rows.append({
            "seed": seed,
            "label": item.label,
            "row": item.row_id,
            "n": item.instance.n,
            "survivors": len(solution_map.survivors),
            "offset": reduced.offset,
            "solved": reduced.n == 0,
            "seconds": round(seconds, 4),
            "per_rule_counts": dict(log.per_rule_counts),
        })
    return rows


def summary(rows: list[dict]) -> str:
    """Per size label, in suite order: instances, mean % reduced, solved."""
    by_label = defaultdict(list)
    for row in rows:
        by_label[row["label"]].append(row)
    lines = ["| size | instances | mean % reduced | solved |", "|---|---|---|---|"]
    for label, group in by_label.items():
        reduced = sum(100.0 * (r["n"] - r["survivors"]) / r["n"] for r in group) / len(group)
        solved = sum(r["solved"] for r in group)
        lines.append(f"| {label} | {len(group)} | {reduced:.1f} | {solved} |")
    solved = sum(r["solved"] for r in rows)
    lines.append(f"| all | {len(rows)} | | {solved} ({100.0 * solved / len(rows):.1f}%) |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0])
    parser.add_argument("-o", "--output", required=True, help="results JSON file")
    args = parser.parse_args(argv)
    rows = [row for seed in args.seeds for row in reduce_suite(seed)]
    with open(args.output, "w", encoding="utf-8") as fh:
        json.dump(rows, fh, indent=1)
    print(summary(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
