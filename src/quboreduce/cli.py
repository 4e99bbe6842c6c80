"""Command-line interface: generate | reduce | verify | solve | report.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
``main`` alone turns bad input into exit 2: any ``OSError`` or ``ValueError``
a command raises is printed as ``error: <message>``, a ``MemoryError`` as
``error: out of memory``.  Nothing else is caught, so the engine's invariant
failures still raise.  ``reduce`` refuses ``-o`` and ``--log`` naming one
file; ``solve`` refuses ``--preprocess`` with ``--all-optima``, as the
remnant's optima do not lift to all original optima.

Reduced instances are written with their original variable indices unless
--renumber is given, in which case the file is densely renumbered and the
log document carries the id translation table; ``model.relabel`` translates
both ways between the survivors' ids and the dense positions.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import time

from . import engine, generator, oracle, rules
from .model import QuboInstance, read_instance, relabel, write_instance

# An identity x_h = a + b * x_i by its log name: (a, b) per name, name per b.
_IDENTITY_FORMS = {"same": (0, 1), "complement": (1, -1)}
_IDENTITY_NAMES = {b: name for name, (_, b) in _IDENTITY_FORMS.items()}
_SUBSTITUTE_TYPES = {1: "substitute_equal", -1: "substitute_complement"}
LOG_FORMAT = "quboreduce-log/1"


def _conclusion_json(concl: rules.Conclusion) -> dict:
    """The v1 JSON of a mined relation, or of a verdict's eliminations: one fix,
    a pair of fixes, or one substitution."""
    if isinstance(concl, rules.Inequality):
        return {"type": "inequality", "kind": concl.kind.value, "i": concl.i, "h": concl.h}
    (h, a, b, i), *pair = concl
    if pair:
        return {"type": "pair_fix", "i": h, "vi": a, "h": pair[0][0], "vh": pair[0][1]}
    if not b:
        return {"type": "fix", "var": h, "value": a}
    return {"type": _SUBSTITUTE_TYPES[b], "i": i, "h": h}


def log_document(
    original: QuboInstance,
    reduced: QuboInstance,
    log: engine.ReductionLog,
    solution_map: engine.SolutionMap,
    wall_time_s: float,
    inequalities: list[engine.InequalityRecord],
    renumber: bool = False,
) -> dict:
    """Structured JSON document holding the log, the report, the map, and
    the ``inequalities`` mined on the reduced instance over the original ids."""
    doc = {
        "format": LOG_FORMAT,
        "original_n": original.n,
        "survivors": solution_map.survivors,
        "assignments": [[h, a] for h, a, b, _ in solution_map.eliminations if not b],
        "identities": [
            [h, _IDENTITY_NAMES[b], i] for h, _, b, i in solution_map.eliminations if b
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
                "rule": rec.verdict.rule_id,
                "unique": rec.verdict.unique,
                "m_bound": rec.m_bound,
                **_conclusion_json(rec.verdict.conclusion),
            }
            for rec in inequalities
        ],
        "wall_time_s": wall_time_s,
    }
    if renumber:
        doc["renumber"] = {
            str(orig): dense
            for dense, orig in enumerate(solution_map.survivors, start=1)
        }
    return doc


def _refuse_constant(name: str):
    """``json.load`` takes NaN and Infinity, which JSON does not have."""
    raise ValueError(f"malformed log document: {name} is not a JSON number")


def read_log(path, parse):
    """Load the log document at ``path`` and return ``parse(doc)``.

    Raises ValueError for a document that is not a ``LOG_FORMAT`` object or
    whose fields ``parse`` cannot read.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_constant=_refuse_constant)
        except RecursionError as exc:  # nesting deeper than the decoder recurses
            raise ValueError(f"malformed log document: {exc}") from None
    if not isinstance(doc, dict) or "format" not in doc:
        raise ValueError("malformed log document: not an object with a format field")
    if doc["format"] != LOG_FORMAT:
        raise ValueError(f"unsupported log format {doc['format']!r} (expected {LOG_FORMAT})")
    try:
        return parse(doc)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed log document: {type(exc).__name__}: {exc}") from exc


def _field(doc: dict, key: str, kind: type = list):
    """``doc[key]``, which the log format makes an array (or an object, for dict).

    Raises TypeError for any other JSON value: a string would iterate.
    """
    value = doc[key]
    if not isinstance(value, kind):
        raise TypeError(f"{key} is not a JSON {'object' if kind is dict else 'array'}")
    return value


def _int(value, kinds: type | tuple = int, name: str = "integer"):
    """A JSON integer (or ``kinds``, but never a bool); TypeError for any other
    value: ``int()`` would take 1.5 or true."""
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise TypeError(f"{value!r} is not a JSON {name}")
    return value


def _number(value) -> int | float:
    """A finite JSON number; TypeError for any other value (``float()`` would
    take "nan"), ValueError for a literal past the float range (``json``
    reads 1e400 as inf)."""
    value = _int(value, (int, float), "number")
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return value


def solution_map_from_document(doc: dict) -> engine.SolutionMap:
    """The map of a log document: its identities in logged order, then its fixes,
    so that the newest-first lift sets every fix before an identity reads it.
    Its survivors must ascend, as the writer lists them."""
    fixes = [(_int(h), _int(a), 0, h) for h, a in _field(doc, "assignments")]
    identities = [(_int(h), *_IDENTITY_FORMS[name], _int(i))
                  for h, name, i in _field(doc, "identities")]
    survivors = [_int(v) for v in _field(doc, "survivors")]
    for a, b in zip(survivors, survivors[1:]):
        if a >= b:
            raise ValueError(f"survivors do not ascend: {a} before {b}")
    return engine.SolutionMap(identities + fixes, survivors)


def report_table(doc: dict) -> str:
    """The run summary that ``reduce`` and ``report`` print, from a log document."""
    n, survivors = _int(doc["original_n"]), len(_field(doc, "survivors"))
    percent = 0.0 if n == 0 else 100.0 * (n - survivors) / n
    counts = {r: _int(c) for r, c in _field(doc, "per_rule_counts", dict).items()}
    lines = [
        f"variables        {n} -> {survivors}  ({percent:.1f}% reduction)",
        f"passes           {_int(doc['passes'])}",
        f"drops per pass   {' '.join(str(_int(d)) for d in _field(doc, 'pass_drops'))}",
        f"offset           {_int(doc['offset'])}",
        f"inequalities     {len(_field(doc, 'inequalities'))}",
        f"wall time        {_number(doc['wall_time_s']):.3f}s",
        "rule             firings",
    ]
    lines += [f"  {rid:<14} {counts[rid]}" for rid in rules.ALL_RULE_IDS if counts.get(rid)]
    return "\n".join(lines)


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
        # A bad spec raises here, before the directory is made.
        suite = generator.generate_benchmark_suite(
            list(base), rows, seed=args.seed, hub_fraction=args.hub_fraction
        )
        os.makedirs(args.output, exist_ok=True)
        for item in suite:
            path = os.path.join(args.output, f"{item.label}_row{item.row_id:02d}.qubo")
            write_instance(item.instance, path, header=_spec_header(item.spec))
        print(f"wrote {len(base) * len(rows)} instances to {args.output}")
        return 0
    if not 1 <= args.design_row <= len(rows):
        raise ValueError(f"design row must be in 1..{len(rows)}")
    spec = generator.GeneratorSpec.from_design(
        args.size, args.edges, rows[args.design_row - 1],
        seed=args.seed, hub_fraction=args.hub_fraction,
    )
    instance = generator.generate_instance(spec)
    write_instance(instance, args.output, header=_spec_header(spec))
    print(f"wrote {args.output}: n={instance.n} edges={instance.num_edges}")
    return 0


def cmd_reduce(args) -> int:
    paths = (args.output, args.log)
    if all(paths) and os.path.realpath(args.output) == os.path.realpath(args.log):
        raise ValueError(f"-o and --log name the same file {args.output!r}")
    original = read_instance(args.instance)
    with contextlib.ExitStack() as files:
        # Opened before reducing, so a bad output path fails at once.
        out_fh, log_fh = (
            files.enter_context(open(path, "w", encoding="utf-8")) if path else None
            for path in paths
        )
        start = time.perf_counter()
        reduced, log, solution_map = engine.run_to_fixed_point(original)
        elapsed = time.perf_counter() - start
        on_ids = (relabel(reduced, range(1, reduced.n + 1), solution_map.survivors, original.n)
                  if args.emit_inequalities or (out_fh and not args.renumber) else None)
        mined = engine.mine_inequalities(on_ids) if args.emit_inequalities else []
        doc = log_document(original, reduced, log, solution_map, elapsed, mined,
                           renumber=args.renumber)
        if out_fh:
            write_instance(reduced if args.renumber else on_ids, out_fh)
        if log_fh:
            json.dump(doc, log_fh, indent=1)
    print(report_table(doc))
    return 0


def cmd_verify(args) -> int:
    original = read_instance(args.instance)
    reduced = read_instance(args.reduced)
    solution_map, renumbered = read_log(
        args.log, lambda doc: (solution_map_from_document(doc), "renumber" in doc)
    )
    k = len(solution_map.survivors)
    dense = reduced if renumbered else relabel(reduced, solution_map.survivors, range(1, k + 1), k)
    if not renumbered and reduced.n != original.n:
        raise ValueError(f"reduced file has {reduced.n} variables, not {original.n}")
    try:
        report = oracle.check_equivalence(original, dense, solution_map,
                                          n_limit=args.limit)
    except RuntimeError as exc:  # the log's map references an unresolved variable
        raise ValueError(exc) from None
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
    if args.preprocess and args.all_optima:
        raise ValueError("--all-optima cannot be combined with --preprocess: "
                         "the remnant's optima do not lift to all optima")
    instance = read_instance(args.instance)
    if args.preprocess:
        reduced, _, solution_map = engine.run_to_fixed_point(instance)
        result = oracle.brute_force_solve(reduced, n_limit=args.limit)
        full = engine.reconstruct_solution(
            solution_map, dict(zip(solution_map.survivors, result.optima[0])))
        print(f"optimum {result.optimum}")
        print("assignment " + " ".join(str(full[i]) for i in sorted(full)))
        print(f"remnant size {reduced.n}")
        return 0
    result = oracle.brute_force_solve(instance, n_limit=args.limit)
    print(f"optimum {result.optimum}")
    if instance.n:
        for bits in result.optima if args.all_optima else result.optima[:1]:
            print("assignment " + " ".join(str(b) for b in bits))
        if args.all_optima and result.truncated:
            print("(optima list truncated)")
    return 0


def cmd_report(args) -> int:
    print(read_log(args.log, report_table))
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
    p.add_argument("--emit-inequalities", action="store_true",
                   help="log the pairwise inequalities mined on the reduced instance")
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
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
