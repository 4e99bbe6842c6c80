"""Benchmark for quboreduce: end-to-end CLI timings, output checks, traced layers.

Run from the repository root:

    python3 perfbench/run.py --workload cascade-10k --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                 # every workload, one process each
    python3 perfbench/run.py --smoke         # tiny inputs, untraced and traced

One workload runs in one single-threaded process.  It generates its
instance files from the seed (set-up, timed several times), then runs as
many whole rounds of operations as fit in ``--seconds``, at least one.  A
round reduces every file in-process with ``quboreduce reduce`` and has the
program check each reduction (``quboreduce verify`` within the oracle limit,
``verify_fixed_point`` above it).  Outputs are checked by the benchmark's own
code outside the timed regions.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics).
"""

from __future__ import annotations

import os

# Single-threaded numerics, fixed before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "_results")
WORKLOAD_NAMES = ("cascade-10k", "dense-500k", "oracle-sweep")
END_TO_END_UNITS = {
    "reduce_s": "s", "verify_s": "s", "survivors": "count",
    "peak_rss_mb": "MB", "setup_s": "s",
}
LIFT_SAMPLES = 8
_VERIFIED = re.compile(r"equivalence verified: optimum (-?\d+)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0,
                   help="run as many whole rounds as fit in this time, at least one")
    p.add_argument("--trace", type=int, default=0, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs; with --workload all, run untraced and traced")
    return p.parse_args(argv)


def _call_cli(cli, argv):
    """Run one quboreduce command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a traceback from the CLI is a failed operation
            rc = -1
            err.write(f"{type(exc).__name__}: {exc}")
    return rc, out.getvalue(), err.getvalue()


def _inputs_digest(specs) -> str:
    """Names one source tree of quboreduce together with one set of inputs."""
    digest = hashlib.sha256(repr(specs).encode())
    pkg = os.path.join(SRC, "quboreduce")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + fh.read())
    return digest.hexdigest()[:16]


def _remove(paths) -> None:
    """Delete earlier copies: overwriting a file here costs several times
    more than writing a new one, and varies far more."""
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


class Run:
    """One workload in this process: set-up, timed rounds, checks, metrics."""

    def __init__(self, args, workload, tracer):
        import workloads
        from quboreduce import cli, engine, generator, model, state
        self.oracle_limit = workloads.ORACLE_LIMIT
        # A traced run checks once, so its per-layer figures cover one check.
        self.verify_reps = 1 if tracer is not None else workload.verify_reps
        self.cli, self.engine, self.generator = cli, engine, generator
        self.model, self.state = model, state
        self.args = args
        self.workload = workload
        self.tracer = tracer
        self.specs = (workload.smoke_specs if args.smoke else workload.specs)(args.seed)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    @contextlib.contextmanager
    def _span(self, name):
        if self.tracer is None:
            yield
            return
        rec = self.tracer.begin(name)
        try:
            yield
        finally:
            self.tracer.end(rec)

    def _set_round(self, label):
        if self.tracer is not None:
            self.tracer.round = label

    def _close_round(self):
        if self.tracer is not None:
            self.tracer.close_round()

    def _fail(self, what: str) -> None:
        self.failed += 1
        self.problems.append(what)

    # -- set-up --------------------------------------------------------------

    def _generate_once(self, paths) -> None:
        for spec, path in zip(self.specs, paths):
            self.model.write_instance(self.generator.generate_instance(spec), path)

    def setup(self, paths) -> list[float]:
        times, digests = [], set()
        for rep in range(self.workload.setup_reps):
            self._set_round(f"setup{rep}")
            _remove(paths)
            gc.collect()
            start = time.perf_counter()
            self._generate_once(paths)
            times.append(time.perf_counter() - start)
            self._close_round()
            digest = hashlib.sha256()
            for path in paths:
                with open(path, "rb") as fh:
                    digest.update(fh.read())
            digests.add(digest.hexdigest())
        if len(digests) != 1:
            self.problems.append("the generator wrote different files for one seed")
        return times

    # -- operations ----------------------------------------------------------

    def _verify_fixed_point(self, red_path, log_path) -> bool:
        """The program's own check above the oracle limit, on the survivors."""
        reduced = self.model.read_instance(red_path)
        with open(log_path, "r", encoding="utf-8") as fh:
            survivors = json.load(fh)["survivors"]
        index = {orig: k for k, orig in enumerate(survivors, start=1)}
        dense = self.model.QuboInstance(
            len(index),
            {index[i]: v for i, v in reduced.linear.items()},
            {(index[i], index[j]): v for (i, j), v in reduced.quadratic.items()},
            reduced.offset,
        )
        return self.engine.verify_fixed_point(self.state.init_state(dense))

    def _verify(self, spec, path, red_path, log_path):
        """Returns (verified, optimum printed by quboreduce verify or None, message)."""
        if spec.n <= self.oracle_limit:
            rc, out, err = _call_cli(self.cli, ["verify", path, red_path, log_path])
            found = _VERIFIED.search(out)
            if rc != 0 or not found:
                return False, None, f"quboreduce verify exited {rc}: {(out + err).strip()[-200:]}"
            return True, int(found.group(1)), ""
        try:
            ok = self._verify_fixed_point(red_path, log_path)
        except (KeyError, ValueError, OSError) as exc:
            return False, None, f"fixed-point check raised {type(exc).__name__}: {exc}"
        return ok, None, "" if ok else "verify_fixed_point found a rule that still fires"

    @staticmethod
    def _outputs(red_path, log_path):
        """The log document of a reduction and a digest of both output files."""
        with open(log_path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        with open(red_path, "rb") as fh:
            return doc, checks.fingerprint(doc, fh.read())

    def rounds(self, paths, originals, optima):
        timings = []
        fingerprints: dict[int, str] = {}
        survivors: list[int] = []
        start = time.perf_counter()
        rnd = 0
        while True:
            round_start = time.perf_counter()
            self._set_round(rnd)
            reduce_total = verify_total = 0.0
            for k, (spec, path) in enumerate(zip(self.specs, paths)):
                red_path, log_path = path + ".reduced", path + ".json"
                _remove([red_path, log_path])
                gc.collect()
                with self._span("bench.reduce"):
                    t0 = time.perf_counter()
                    rc, out, err = _call_cli(
                        self.cli, ["reduce", path, "-o", red_path, "--log", log_path])
                    reduce_total += time.perf_counter() - t0
                check_times = []
                for _ in range(self.verify_reps):
                    gc.collect()
                    with self._span("bench.verify"):
                        t0 = time.perf_counter()
                        verified, optimum, message = self._verify(
                            spec, path, red_path, log_path)
                        check_times.append(time.perf_counter() - t0)
                    if not verified:
                        break
                verify_total += statistics.median(check_times)
                self.attempted += 2
                label = f"instance {k} (n={spec.n}, seed={spec.seed}) round {rnd}"

                if rc != 0:
                    self._fail(f"{label}: quboreduce reduce exited {rc}: {err.strip()[-200:]}")
                else:
                    try:
                        doc, digest = self._outputs(red_path, log_path)
                        if rnd == 0:
                            found = checks.check_reduction(
                                originals[k], checks.parse_problem(red_path), doc,
                                np.random.default_rng([self.args.seed, k]), LIFT_SAMPLES)
                            fingerprints[k] = digest
                            survivors.append(len(doc["survivors"]))
                        elif digest != fingerprints.get(k):
                            found = ["output differs from round 0"]
                        else:
                            found = []
                    except (OSError, ValueError, KeyError, TypeError) as exc:
                        found = [f"unreadable output: {type(exc).__name__}: {exc}"]
                    if found:
                        self._fail(f"{label}: " + "; ".join(found))
                if not verified:
                    self._fail(f"{label}: {message}")
                elif optimum is not None and optimum != optima[k]:
                    self._fail(f"{label}: verify printed optimum {optimum}, "
                               f"enumeration gives {optima[k]}")
            self._close_round()
            timings.append((reduce_total, verify_total))
            rnd += 1
            # Start another round only if one more, as long as the last, ends in time.
            now = time.perf_counter()
            if now - start + (now - round_start) > self.args.seconds:
                return timings, survivors

    # -- whole run -----------------------------------------------------------

    def execute(self, work):
        paths = [os.path.join(work, f"{k:02d}.qubo") for k in range(len(self.specs))]
        setup_times = self.setup(paths)
        originals = [checks.parse_problem(p) for p in paths]
        optima = [
            checks.enumerate_optimum(orig) if spec.n <= self.oracle_limit else None
            for spec, orig in zip(self.specs, originals)
        ]
        timings, survivors = self.rounds(paths, originals, optima)
        self._check_survivors_repeat(survivors)
        metrics = {
            "reduce_s": statistics.median(t[0] for t in timings),
            "verify_s": statistics.median(t[1] for t in timings),
            "survivors": sum(survivors),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "setup_s": statistics.median(setup_times),
        }
        detail = {"rounds": len(timings), "timings": timings, "setup_times": setup_times,
                  "survivors_per_instance": survivors}
        if self.tracer is not None:
            layers = self.tracer.layer_metrics(
                list(range(len(timings))), [f"setup{r}" for r in range(len(setup_times))])
            return metrics, layers, detail
        return metrics, None, detail

    def _check_survivors_repeat(self, survivors) -> None:
        """Survivor counts repeat exactly across runs of one seed on one source tree."""
        os.makedirs(RESULTS, exist_ok=True)
        path = os.path.join(
            RESULTS, f"survivors-{self.workload.name}-{_inputs_digest(self.specs)}.json")
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as fh:
                earlier = json.load(fh)
            if earlier != survivors:
                self.problems.append(
                    f"survivors {survivors} differ from an earlier run's {earlier}")
            return
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(survivors, fh)


def run_workload(args) -> dict:
    sys.path.insert(0, SRC)
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
    work = os.path.join(HERE, "_work", f"{workload.name}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        run = Run(args, workload, tracer)
        metrics, layers, detail = run.execute(work)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    os.makedirs(RESULTS, exist_ok=True)
    stem = f"{workload.name}-s{args.seed}{'-smoke' if args.smoke else ''}-t{args.trace}"
    if tracer is not None:
        tracer.write(os.path.join(RESULTS, f"trace-{stem}.json"))
    with open(os.path.join(RESULTS, f"result-{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump({"end_to_end": metrics, "per_layer": layers, "problems": run.problems,
                   "missing_trace_points": tracer.missing if tracer else [], **detail},
                  fh, indent=1)
    for problem in run.problems:
        print(f"CHECK FAILED: {problem}")
    if args.trace:
        import tracing
        reported = {k: {"value": layers[k], "unit": u} for k, u in tracing.LAYER_METRICS.items()}
    else:
        reported = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END_UNITS.items()}
    for name, m in reported.items():
        print(f"{workload.name:>13}  {name:<32} {m['value']:>16.6g} {m['unit']}")
    return {"correct": not run.problems, "attempted": run.attempted,
            "failed": run.failed, "metrics": reported}


def run_all(args) -> int:
    """Each workload in its own process; prints a combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    traces = (0, 1) if args.smoke else (args.trace,)
    for name in WORKLOAD_NAMES:
        for trace in traces:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)] + (["--smoke"] if args.smoke else [])
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.rstrip().splitlines()
            print("\n".join(lines[:-1]))
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                print(f"{name}: exited {proc.returncode}")
                combined["correct"] = False
                status = 1
                continue
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status if combined["correct"] and not combined["failed"] else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quboreduce", "__init__.py")):
        print(f"error: no quboreduce sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    print(json.dumps(run_workload(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
