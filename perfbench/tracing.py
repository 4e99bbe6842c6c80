"""Spans and counts recorded around quboreduce's layers, from outside the package.

``Tracer.install`` replaces public functions of each module, and the engine
methods that ``run_to_fixed_point`` drives, with thin wrappers.  A span
wrapper records (name, start, end, parent, round); a count wrapper only
increments a counter.  Rule, state and scheduler counters count only inside
``run_to_fixed_point`` outside ``init_state``, so they measure the reduction
itself rather than the fixed-point check or set-up.  Everything stays in
memory until ``write``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from collections import Counter, defaultdict

from quboreduce import cli, engine, generator, model, oracle, rules, state

# Every per-layer metric, in report order, with its unit.
LAYER_METRICS = {
    "generator.generate_s": "s",
    "model.read_s": "s",
    "model.read_mb_per_s": "MB/s",
    "model.write_s": "s",
    "model.validate_s": "s",
    "state.init_s": "s",
    "state.mutations": "count",
    "state.mutation_s": "s",
    "state.extreme_rescans": "count",
    "rules.fix_probes": "count",
    "rules.pair_probes": "count",
    "rules.firings": "count",
    "rules.pair_fire_ratio": "ratio",
    "engine.passes": "count",
    "engine.examined": "count",
    "engine.pass_s": "s",
    "engine.residual_sweeps": "count",
    "engine.residual_hits_per_sweep": "ratio",
    "engine.residual_s": "s",
    "engine.scheduler_records": "count",
    "engine.rebuild_s": "s",
    "engine.fixed_point_check_s": "s",
    "oracle.solves": "count",
    "oracle.solve_s": "s",
    "oracle.assignments_per_s": "1/s",
    "cli.self_s": "s",
    "cli.log_write_s": "s",
    "trace.reduce_s": "s",
    "trace.verify_s": "s",
}


class _ModuleProxy:
    """Stands in for a module inside one other module, overriding some names."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """In-memory spans and counts; ``install`` wraps the package, ``uninstall`` undoes it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, round]
        self.counts: Counter = Counter()
        self.round_counts: dict = {}
        self.round = None
        self.counting = False
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.round]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def close_round(self) -> None:
        """File the counts made since the last call under the current round."""
        self.round_counts[self.round] = Counter(self.counts)
        self.counts.clear()

    def _spanned(self, fn, name, after=None, scope=None):
        tracer = self

        def wrapper(*args, **kwargs):
            rec = tracer.begin(name)
            outer = tracer.counting
            if scope is not None:
                tracer.counting = scope
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.counting = outer
                tracer.end(rec)
            if after is not None:
                after(tracer.counts, args, result)
            return result

        return wrapper

    def _counted(self, fn, key, fired_key=None):
        tracer = self
        counts = self.counts

        if fired_key is None:
            def wrapper(*args, **kwargs):
                if tracer.counting:
                    counts[key] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.counting:
                    counts[key] += 1
                    if result is not None:
                        counts[fired_key] += 1
                return result

        return wrapper

    # -- installation --------------------------------------------------------

    def _replace(self, owner, attr: str, make) -> None:
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        wrapped = make(original)
        if isinstance(owner, type):
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            return
        # A module function may also be bound by name in sibling modules.
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "quboreduce" and getattr(module, attr, None) is original:
                self._undo.append((module, attr, original))
                setattr(module, attr, wrapped)

    def span(self, owner, attr, name, after=None, scope=None) -> None:
        self._replace(owner, attr, lambda fn: self._spanned(fn, name, after, scope))

    def count(self, owner, attr, key, fired_key=None) -> None:
        self._replace(owner, attr, lambda fn: self._counted(fn, key, fired_key))

    def install(self) -> None:
        def add(key, value):
            def after(counts, args, result):
                counts[key] += value(args, result)
            return after

        self.span(generator, "generate_instance", "generator.generate")
        self.span(model, "read_instance", "model.read",
                  after=add("model.read_bytes", lambda a, r: os.path.getsize(a[0])))
        self.span(model, "write_instance", "model.write")
        self.span(model.QuboInstance, "__post_init__", "model.validate")
        self.span(state, "init_state", "state.init", scope=False)
        for attr in ("apply_fix", "apply_substitution_complement", "apply_substitution_equal"):
            self.span(state.ReductionState, attr, "state.mutation")
        self.count(state.ReductionState, "recompute_row_extremes", "state.extreme_rescans")
        for attr in ("rule_fix_zero", "rule_fix_one"):
            self.count(rules, attr, "rules.fix_probes")
        # The engine probes a pair through _try_pair, the same point that
        # EngineOptions.instrument records.
        self.count(engine._Reducer, "_try_pair", "rules.pair_probes", "rules.pair_firings")
        self.span(engine, "run_to_fixed_point", "engine.run_to_fixed_point", scope=True,
                  after=add("rules.firings",
                            lambda a, r: sum(r[1].per_rule_counts.values())))
        self.span(engine._Reducer, "run_pass", "engine.pass",
                  after=add("engine.examined", lambda a, r: r.examined))
        self.span(engine._Reducer, "run_residual", "engine.residual",
                  after=add("engine.residual_hits", lambda a, r: r))
        self.count(engine.ResidualScheduler, "record", "engine.scheduler_records")
        self.span(engine, "_dense_reduced", "engine.rebuild")
        self.span(engine, "verify_fixed_point", "engine.verify_fixed_point")
        self.span(oracle, "brute_force_solve", "oracle.solve",
                  after=add("oracle.assignments", lambda a, r: r.evaluated_count))
        self.span(oracle, "check_equivalence", "oracle.check_equivalence")
        self.span(cli, "cmd_reduce", "cli.cmd")
        self.span(cli, "cmd_verify", "cli.cmd")
        self.span(cli, "log_document", "cli.log_write")
        dump = self._spanned(cli.json.dump, "cli.log_write")
        self._undo.append((cli, "json", cli.json))
        cli.json = _ModuleProxy(cli.json, dump=dump)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def _round_metrics(self, rnd) -> dict[str, float]:
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child: dict[int, float] = defaultdict(float)
        for rec in self.spans:
            if rec[4] == rnd and rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        cli_self = 0.0
        for idx, (name, start, stop, _, r) in enumerate(self.spans):
            if r != rnd:
                continue
            total[name] += stop - start
            calls[name] += 1
            if name == "cli.cmd":
                cli_self += stop - start - child[idx]
        counts = self.round_counts.get(rnd, Counter())

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "generator.generate_s": total["generator.generate"],
            "model.read_s": total["model.read"],
            "model.read_mb_per_s": ratio(counts["model.read_bytes"] / 1e6, total["model.read"]),
            "model.write_s": total["model.write"],
            "model.validate_s": total["model.validate"],
            "state.init_s": total["state.init"],
            "state.mutations": calls["state.mutation"],
            "state.mutation_s": total["state.mutation"],
            "state.extreme_rescans": counts["state.extreme_rescans"],
            "rules.fix_probes": counts["rules.fix_probes"],
            "rules.pair_probes": counts["rules.pair_probes"],
            "rules.firings": counts["rules.firings"],
            "rules.pair_fire_ratio": ratio(counts["rules.pair_firings"],
                                           counts["rules.pair_probes"]),
            "engine.passes": calls["engine.pass"],
            "engine.examined": counts["engine.examined"],
            "engine.pass_s": total["engine.pass"],
            "engine.residual_sweeps": calls["engine.residual"],
            "engine.residual_hits_per_sweep": ratio(counts["engine.residual_hits"],
                                                    calls["engine.residual"]),
            "engine.residual_s": total["engine.residual"],
            "engine.scheduler_records": counts["engine.scheduler_records"],
            "engine.rebuild_s": total["engine.rebuild"],
            "engine.fixed_point_check_s": total["engine.verify_fixed_point"],
            "oracle.solves": calls["oracle.solve"],
            "oracle.solve_s": total["oracle.solve"],
            "oracle.assignments_per_s": ratio(counts["oracle.assignments"],
                                              total["oracle.solve"]),
            "cli.self_s": cli_self,
            "cli.log_write_s": total["cli.log_write"],
            "trace.reduce_s": total["bench.reduce"],
            "trace.verify_s": total["bench.verify"],
        }

    def layer_metrics(self, rounds: list, setups: list) -> dict[str, float]:
        """Median over the timed rounds of each layer's per-round figure.

        The generator only runs during set-up, so its figure is the median
        over the set-up repetitions instead.
        """
        per_round = [self._round_metrics(r) for r in rounds]
        out = {name: statistics.median(m[name] for m in per_round) for name in LAYER_METRICS}
        out["generator.generate_s"] = statistics.median(
            self._round_metrics(s)["generator.generate_s"] for s in setups
        )
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "spans": [
                    {"name": n, "start": a, "end": b, "parent": p, "round": r}
                    for n, a, b, p, r in self.spans
                ],
                "counts": {str(r): dict(c) for r, c in self.round_counts.items()},
                "missing": self.missing,
            }, fh)
