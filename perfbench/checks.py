"""Output checks that share no code with quboreduce.

The benchmark reads the program's files with its own parser, evaluates
objectives with its own arithmetic, lifts reduced assignments through the
log document with its own resolver and enumerates small instances with its
own solver.  Every function returns plain data or a list of problems found;
an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

import numpy as np

# Sums of coefficient magnitudes below this bound cannot overflow int64.
_INT64_SAFE = 1 << 62


@dataclass
class Problem:
    """An instance file as the benchmark reads it: accumulated, zeros dropped."""

    n: int
    offset: int
    lin_idx: np.ndarray  # variable indices (1-based) with a nonzero c_i
    lin_val: np.ndarray
    qi: np.ndarray       # pair (qi[k], qj[k]) with qi[k] < qj[k]
    qj: np.ndarray
    qw: np.ndarray

    def variables(self) -> set[int]:
        """Indices that carry a nonzero linear or pair coefficient."""
        return set(self.lin_idx.tolist()) | set(self.qi.tolist()) | set(self.qj.tolist())


def parse_problem(path) -> Problem:
    """Read the line-oriented instance format (p / o / l / q lines, # comments)."""
    n = None
    offset = 0
    li: list[int] = []
    lv: list[int] = []
    qa: list[int] = []
    qb: list[int] = []
    qv: list[int] = []
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    for line in text.splitlines():
        tok = line.split("#", 1)[0].split()
        if not tok:
            continue
        head = tok[0]
        if head == "q":
            a, b = int(tok[1]), int(tok[2])
            if a > b:
                a, b = b, a
            qa.append(a)
            qb.append(b)
            qv.append(int(tok[3]))
        elif head == "l":
            li.append(int(tok[1]))
            lv.append(int(tok[2]))
        elif head == "o":
            offset += int(tok[1])
        elif head == "p":
            n = int(tok[2])
        else:
            raise ValueError(f"{path}: unknown directive {head!r}")
    if n is None:
        raise ValueError(f"{path}: no problem line")
    magnitude = abs(offset) + sum(map(abs, lv)) + sum(map(abs, qv))
    # Python integers keep every sum exact when int64 could overflow.
    dtype = np.int64 if magnitude < _INT64_SAFE else object
    lin_idx, lin_val = _accumulate(np.array(li, dtype=np.int64), np.array(lv, dtype=dtype))
    keys, qw = _accumulate(
        np.array(qa, dtype=np.int64) * (n + 1) + np.array(qb, dtype=np.int64),
        np.array(qv, dtype=dtype),
    )
    return Problem(n, offset, lin_idx, lin_val, keys // (n + 1), keys % (n + 1), qw)


def _accumulate(keys: np.ndarray, vals: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum values sharing a key; drop keys whose sum is zero."""
    if len(keys) == 0:
        return keys, vals
    uniq, inverse = np.unique(keys, return_inverse=True)
    if len(uniq) == len(keys):
        order = np.argsort(keys, kind="stable")
        sums = vals[order]
    else:
        sums = np.zeros(len(uniq), dtype=vals.dtype)
        np.add.at(sums, inverse, vals)
    keep = sums != 0
    return uniq[keep], sums[keep]


def evaluate(problem: Problem, x: np.ndarray) -> int:
    """Objective at a 0/1 vector indexed 0..n (entry 0 unused)."""
    on = x.astype(bool)
    total = int(problem.offset)
    total += int(problem.lin_val[on[problem.lin_idx]].sum())
    total += int(problem.qw[on[problem.qi] & on[problem.qj]].sum())
    return total


def row_bounds(problem: Problem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(c, D^-, D^+) per variable: linear term and sums of negative/positive edges."""
    size = problem.n + 1
    dtype = problem.qw.dtype
    c = np.zeros(size, dtype=dtype)
    c[problem.lin_idx] = problem.lin_val
    neg = np.where(problem.qw < 0, problem.qw, 0).astype(dtype)
    pos = np.where(problem.qw > 0, problem.qw, 0).astype(dtype)
    d_minus = np.zeros(size, dtype=dtype)
    d_plus = np.zeros(size, dtype=dtype)
    for ends in (problem.qi, problem.qj):
        np.add.at(d_minus, ends, neg)
        np.add.at(d_plus, ends, pos)
    return c, d_minus, d_plus


def enumerate_optimum(problem: Problem) -> int:
    """Exact maximum by building all 2^n objective values one variable at a time."""
    if problem.qw.dtype == object or problem.lin_val.dtype == object:
        raise ValueError("coefficients too large for exact int64 enumeration")
    c = np.zeros(problem.n + 1, dtype=np.int64)
    c[problem.lin_idx] = problem.lin_val
    lower: list[list[tuple[int, int]]] = [[] for _ in range(problem.n + 1)]
    for a, b, w in zip(problem.qi.tolist(), problem.qj.tolist(), problem.qw.tolist()):
        lower[b].append((a, w))
    values = np.zeros(1, dtype=np.int64)
    for k in range(1, problem.n + 1):
        # Index bit j-1 holds x_j for the k-1 variables placed so far.
        idx = np.arange(len(values), dtype=np.int64)
        gain = np.full(len(values), c[k], dtype=np.int64)
        for j, w in lower[k]:
            gain += w * ((idx >> (j - 1)) & 1)
        values = np.concatenate([values, values + gain])
    return int(values.max()) + int(problem.offset)


def lift(doc: dict, survivor_values: dict[int, int], n: int) -> np.ndarray:
    """Total original assignment from survivor values, via the log document.

    Fixed values are absolute; identities are resolved newest first, so each
    referenced variable already has its value.
    """
    x = np.full(n + 1, -1, dtype=np.int64)
    for v, val in survivor_values.items():
        x[v] = val
    for v, val in doc["assignments"]:
        x[int(v)] = int(val)
    for dropped, kind, kept in reversed(doc["identities"]):
        ref = x[int(kept)]
        if ref < 0:
            raise ValueError(f"identity for {dropped} refers to unresolved {kept}")
        x[int(dropped)] = ref if kind == "same" else 1 - ref
    x[0] = 0
    if (x < 0).any():
        raise ValueError(f"variable {int(np.flatnonzero(x < 0)[0])} left unassigned")
    return x


def check_reduction(original: Problem, reduced: Problem, doc: dict,
                    rng: np.random.Generator, samples: int) -> list[str]:
    """Every check of one reduction that needs no solver; returns problems found."""
    problems: list[str] = []
    n = original.n
    survivors = [int(v) for v in doc["survivors"]]
    fixed = [int(v) for v, _ in doc["assignments"]]
    dropped = [int(d) for d, _, _ in doc["identities"]]
    placed = survivors + fixed + dropped
    if sorted(placed) != list(range(1, n + 1)):
        problems.append("survivors, assignments and identities do not partition 1..n")
    if any(kind not in ("same", "complement") for _, kind, _ in doc["identities"]):
        problems.append("identity of unknown kind")
    if reduced.n != n:
        problems.append(f"reduced file declares {reduced.n} variables, original {n}")
    if reduced.variables() != set(survivors):
        problems.append(
            f"reduced file has {len(reduced.variables())} variables, "
            f"log lists {len(survivors)} survivors"
        )
    if int(doc["offset"]) != int(reduced.offset):
        problems.append("log offset differs from the reduced file's offset")
    if problems:
        return problems

    c, d_minus, d_plus = row_bounds(reduced)
    s = np.array(survivors, dtype=np.int64)
    if len(s):
        fix_one = c[s] + d_minus[s] >= 0
        fix_zero = c[s] + d_plus[s] <= 0
        if fix_one.any() or fix_zero.any():
            v = int(s[np.flatnonzero(fix_one | fix_zero)[0]])
            problems.append(f"single-variable fix still fires on survivor {v}")

    draws = [np.zeros(len(s), dtype=np.int64), np.ones(len(s), dtype=np.int64)]
    draws += [rng.integers(0, 2, size=len(s)) for _ in range(samples)]
    for y in draws:
        try:
            x = lift(doc, dict(zip(survivors, y.tolist())), n)
        except ValueError as exc:
            problems.append(f"lift failed: {exc}")
            break
        if evaluate(original, x) != evaluate(reduced, x):
            problems.append("lifted assignment changes the objective value")
            break
    return problems


def fingerprint(doc: dict, reduced_bytes: bytes) -> str:
    """What a reduction produced, ignoring its wall time."""
    keep = {k: v for k, v in doc.items() if k != "wall_time_s"}
    digest = hashlib.sha256(json.dumps(keep, sort_keys=True).encode())
    digest.update(reduced_bytes)
    return digest.hexdigest()
