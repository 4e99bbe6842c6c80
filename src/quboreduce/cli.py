"""Command-line interface: generate | reduce | verify | solve | report.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
Reduced instances are written with their original variable indices unless
--renumber is given, in which case the file is densely renumbered and the
log document carries the id translation table.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from dataclasses import dataclass

from . import engine, generator, oracle, rules
from .model import (
    QuboFormatError, QuboInstance, read_instance, write_instance,
)
from .state import COMPLEMENT_OF, SAME_AS

_IDENTITY_NAMES = {SAME_AS: "same", COMPLEMENT_OF: "complement"}
_IDENTITY_CODES = {v: k for k, v in _IDENTITY_NAMES.items()}
LOG_FORMAT = "quboreduce-log/1"


@dataclass
class RunReport:
    """Human/JSON summary of one reduction run."""

    n: int
    survivors: int
    passes: int
    pass_drops: list[int]
    per_rule_counts: dict[str, int]
    inequality_count: int
    offset: int
    wall_time_s: float

    @property
    def percent_reduction(self) -> float:
        return 0.0 if self.n == 0 else 100.0 * (self.n - self.survivors) / self.n

    def table(self) -> str:
        lines = [
            f"variables        {self.n} -> {self.survivors}"
            f"  ({self.percent_reduction:.1f}% reduction)",
            f"passes           {self.passes}",
            f"drops per pass   {' '.join(str(d) for d in self.pass_drops)}",
            f"offset           {self.offset}",
            f"inequalities     {self.inequality_count}",
            f"wall time        {self.wall_time_s:.3f}s",
            "rule             firings",
        ]
        for rid in rules.ALL_RULE_IDS:
            count = self.per_rule_counts.get(rid, 0)
            if count:
                lines.append(f"  {rid:<14} {count}")
        return "\n".join(lines)


def _conclusion_json(concl) -> dict:
    if isinstance(concl, rules.Fix):
        return {"type": "fix", "var": concl.var, "value": concl.value}
    if isinstance(concl, rules.PairFix):
        return {"type": "pair_fix", "i": concl.i, "vi": concl.vi,
                "h": concl.h, "vh": concl.vh}
    if isinstance(concl, rules.SubstituteEqual):
        return {"type": "substitute_equal", "i": concl.i, "h": concl.h}
    if isinstance(concl, rules.SubstituteComplement):
        return {"type": "substitute_complement", "i": concl.i, "h": concl.h}
    return {"type": "inequality", "kind": concl.kind.value, "i": concl.i, "h": concl.h}


def log_document(
    original: QuboInstance,
    reduced: QuboInstance,
    log: engine.ReductionLog,
    solution_map: engine.SolutionMap,
    wall_time_s: float,
    renumber: bool = False,
) -> dict:
    """Structured JSON document holding the log, the report, and the map."""
    doc = {
        "format": LOG_FORMAT,
        "original_n": original.n,
        "survivors": solution_map.survivors,
        "assignments": [[v, val] for v, val in solution_map.assignments],
        "identities": [
            [dropped, _IDENTITY_NAMES[kind], kept]
            for dropped, kind, kept in solution_map.identities
        ],
        "offset": reduced.offset,
        "passes": log.pass_count,
        "pass_drops": log.pass_drops,
        "per_rule_counts": dict(log.per_rule_counts),
        "events": [
            {
                "pass": ev.pass_number,
                "rule": ev.verdict.rule_id,
                "unique": ev.verdict.unique,
                "live_after": ev.live_after,
                "conclusion": _conclusion_json(ev.verdict.conclusion),
            }
            for ev in log.events
        ],
        "inequalities": [
            {
                "pass": rec.pass_number,
                "rule": rec.verdict.rule_id,
                "unique": rec.verdict.unique,
                "m_bound": rec.m_bound,
                "snapshot": rec.snapshot_id,
                **_conclusion_json(rec.verdict.conclusion),
            }
            for rec in log.inequality_records
        ],
        "wall_time_s": wall_time_s,
    }
    if renumber:
        doc["renumber"] = {
            str(orig): dense
            for dense, orig in enumerate(solution_map.survivors, start=1)
        }
    return doc


# What reading a field of a log document that lacks it, or holds the wrong
# type, raises.
_MALFORMED_LOG = (KeyError, TypeError, ValueError)


def _malformed_log(exc: Exception) -> int:
    print(f"error: malformed log document: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 2


def _unsupported_format(log_format) -> int:
    print(f"error: unsupported log format {log_format!r} (expected {LOG_FORMAT})",
          file=sys.stderr)
    return 2


def solution_map_from_document(doc: dict) -> engine.SolutionMap:
    return engine.SolutionMap(
        assignments=[(int(v), int(val)) for v, val in doc["assignments"]],
        identities=[
            (int(dropped), _IDENTITY_CODES[kind], int(kept))
            for dropped, kind, kept in doc["identities"]
        ],
        survivors=[int(v) for v in doc["survivors"]],
    )


def report_from_document(doc: dict) -> RunReport:
    return RunReport(
        n=doc["original_n"],
        survivors=len(doc["survivors"]),
        passes=doc["passes"],
        pass_drops=list(doc["pass_drops"]),
        per_rule_counts=dict(doc["per_rule_counts"]),
        inequality_count=len(doc["inequalities"]),
        offset=doc["offset"],
        wall_time_s=doc["wall_time_s"],
    )


def to_dense_ids(reduced: QuboInstance, survivors: list[int]) -> QuboInstance:
    """Renumber an original-indexed reduced instance densely over the survivors.

    Raises KeyError for a variable that is not a survivor.
    """
    index = {orig: k for k, orig in enumerate(survivors, start=1)}
    linear = {index[i]: v for i, v in reduced.linear.items()}
    quadratic = {(index[i], index[j]): v for (i, j), v in reduced.quadratic.items()}
    return QuboInstance(len(survivors), linear, quadratic, reduced.offset)


def _spec_header(spec: generator.GeneratorSpec) -> list[str]:
    return [
        "generated by quboreduce",
        f"n={spec.n} target_edges={spec.target_edges} seed={spec.seed}",
        f"upper_bound={spec.upper_bound}"
        f" linear_multiplier={spec.linear_multiplier}"
        f" quadratic_multiplier={spec.quadratic_multiplier}",
        f"pct_quadratic_multiplied={spec.pct_quadratic_multiplied}"
        f" pct_linear_multiplied={spec.pct_linear_multiplied}"
        f" pct_nonzero_linear={spec.pct_nonzero_linear}",
        f"hub_fraction={spec.hub_fraction}",
    ]


def cmd_generate(args) -> int:
    rows = generator.design_table()
    if args.suite:
        base = generator.DESK_SIZES if args.suite == "desk" else generator.STANDARD_SIZES
        out_dir = args.output
        try:
            # Generated (and so validated) first: a bad spec leaves no directory.
            suite = generator.generate_benchmark_suite(
                list(base), rows, seed=args.seed, hub_fraction=args.hub_fraction
            )
            os.makedirs(out_dir, exist_ok=True)
            for item in suite:
                path = os.path.join(out_dir, f"{item.label}_row{item.row_id:02d}.qubo")
                write_instance(item.instance, path, header=_spec_header(item.spec))
        except (OSError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {len(suite)} instances to {out_dir}")
        return 0
    if not 1 <= args.design_row <= len(rows):
        print(f"error: design row must be in 1..{len(rows)}", file=sys.stderr)
        return 2
    spec = generator.GeneratorSpec.from_design(
        args.size, args.edges, rows[args.design_row - 1],
        seed=args.seed, hub_fraction=args.hub_fraction,
    )
    try:
        instance = generator.generate_instance(spec)
        write_instance(instance, args.output, header=_spec_header(spec))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {args.output}: n={instance.n} edges={instance.num_edges}")
    return 0


def cmd_reduce(args) -> int:
    try:
        original = read_instance(args.instance)
    except (OSError, QuboFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with contextlib.ExitStack() as files:
            # Opened before reducing, so a bad output path fails at once.
            out_fh, log_fh = (
                files.enter_context(open(path, "w", encoding="utf-8")) if path else None
                for path in (args.output, args.log)
            )
            start = time.perf_counter()
            reduced, log, solution_map = engine.run_to_fixed_point(
                original, args.emit_inequalities
            )
            elapsed = time.perf_counter() - start
            doc = log_document(original, reduced, log, solution_map, elapsed,
                               renumber=args.renumber)
            if out_fh and args.renumber:
                write_instance(reduced, out_fh)
            elif out_fh:
                write_instance(reduced, out_fh, ids=solution_map.survivors, n=original.n)
            if log_fh:
                json.dump(doc, log_fh, indent=1)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(report_from_document(doc).table())
    return 0


def cmd_verify(args) -> int:
    try:
        original = read_instance(args.instance)
        reduced = read_instance(args.reduced)
        with open(args.log, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, QuboFormatError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        log_format = doc["format"]
        solution_map = solution_map_from_document(doc)
        renumbered = "renumber" in doc
    except _MALFORMED_LOG as exc:
        return _malformed_log(exc)
    if log_format != LOG_FORMAT:
        return _unsupported_format(log_format)
    try:
        dense = reduced if renumbered else to_dense_ids(reduced, solution_map.survivors)
        report = oracle.check_equivalence(original, dense, solution_map,
                                          n_limit=args.limit)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report.ok:
        print(f"equivalence verified: optimum {report.optimum_original}")
        return 0
    print(f"verification FAILED: {report.message}")
    if report.counterexample is not None:
        bits = " ".join(
            str(report.counterexample[i]) for i in sorted(report.counterexample)
        )
        print(f"counterexample assignment: {bits}")
    return 1


def cmd_solve(args) -> int:
    try:
        instance = read_instance(args.instance)
    except (OSError, QuboFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.preprocess:
            reduced, _, solution_map = engine.run_to_fixed_point(instance)
            result = oracle.brute_force_solve(reduced, n_limit=args.limit)
            survivors = solution_map.survivors
            best = result.optima[0]
            full = engine.reconstruct_solution(
                solution_map, {survivors[k]: best[k] for k in range(len(survivors))}
            )
            print(f"optimum {result.optimum}")
            print("assignment " + " ".join(str(full[i]) for i in sorted(full)))
            print(f"remnant size {reduced.n}")
        else:
            result = oracle.brute_force_solve(instance, n_limit=args.limit)
            print(f"optimum {result.optimum}")
            if instance.n:
                if args.all_optima:
                    for bits in result.optima:
                        print("assignment " + " ".join(str(b) for b in bits))
                    if result.truncated:
                        print("(optima list truncated)")
                else:
                    bits = result.optima[0]
                    print("assignment " + " ".join(str(b) for b in bits))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    try:
        with open(args.log, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        log_format = doc["format"]
        report = report_from_document(doc)
    except _MALFORMED_LOG as exc:
        return _malformed_log(exc)
    if log_format != LOG_FORMAT:
        return _unsupported_format(log_format)
    print(report.table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quboreduce",
        description="Sound size reduction for sparse QUBO instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate benchmark instances")
    p.add_argument("--size", type=int, default=1000, help="variable count")
    p.add_argument("--edges", type=int, default=5000, help="exact edge count")
    p.add_argument("--design-row", type=int, default=1, help="factor row 1..16")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--hub-fraction", type=float, default=0.01)
    p.add_argument("--suite", choices=["desk", "standard"],
                   help="emit a whole size-by-row suite into a directory")
    p.add_argument("-o", "--output", required=True,
                   help="output file (or directory with --suite)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("reduce", help="reduce an instance to its fixed point")
    p.add_argument("instance")
    p.add_argument("-o", "--output", help="reduced instance file")
    p.add_argument("--log", help="JSON log/solution-map document")
    p.add_argument("--emit-inequalities", action="store_true")
    p.add_argument("--renumber", action="store_true",
                   help="emit the reduced instance densely renumbered")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("verify", help="check a reduction against the exact oracle")
    p.add_argument("instance", help="original instance file")
    p.add_argument("reduced", help="reduced instance file")
    p.add_argument("log", help="JSON log document from reduce")
    p.add_argument("--limit", type=int, default=24, help="oracle size limit")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("solve", help="solve exactly by enumeration")
    p.add_argument("instance")
    p.add_argument("--preprocess", action="store_true",
                   help="reduce first, solve the remnant, reconstruct")
    p.add_argument("--all-optima", action="store_true")
    p.add_argument("--limit", type=int, default=24, help="oracle size limit")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("report", help="render a saved log document")
    p.add_argument("log")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
