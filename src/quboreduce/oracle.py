"""Exact enumeration solver and reduction equivalence checker.

The solver enumerates all 2^n assignments once, in increasing index order
(bit k of the index is variable k+1), so every optimum is exact and *all*
optimal assignments can be collected (capped).  It exists to verify
reductions, not to compete with real solvers.

Values are built by doubling: with the first k variables' values in
``vals[:2**k]``, setting variable k+1 gives ``vals[2**k + y] = vals[y] + c +
cross[y]``, where ``cross[y]`` (the couplings to the set lower bits of y) is
built by doubling too.  Each value is one int64 add, against a matmul over
all n bits.  The low ``_CHUNK_BITS`` variables are enumerated once; every
setting of the remaining high variables shifts that table by a scalar plus an
affine term in the low bits, so memory stays at a few 2^16-entry arrays
however large n is.  Every partial sum is a subset sum of the coefficients,
so the ``< 2^62`` magnitude guard keeps the int64 arithmetic exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import SolutionMap, reconstruct_solution
from .model import QuboInstance, evaluate

OPTIMA_CAP = 1 << 16
_CHUNK_BITS = 16


@dataclass
class OracleResult:
    optimum: int
    optima: list[tuple[int, ...]]  # 0/1 tuples, entry k-1 is variable k
    evaluated_count: int
    truncated: bool


def _dense_arrays(instance: QuboInstance) -> tuple[np.ndarray, np.ndarray]:
    n = instance.n
    c, upper = np.zeros(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)
    for i, v in instance.linear.items():
        c[i - 1] = v
    q = instance.quadratic
    upper[q.lo - 1, q.hi - 1] = q.d
    return c, upper


def _subset_sums(weights: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill ``out[y]`` with the sum of ``weights[j]`` over the set bits j of y.

    ``weights`` may be 2-D, giving one row of sums per y.
    """
    out[0] = 0
    for j, w in enumerate(weights):
        np.add(out[: 1 << j], w, out=out[1 << j : 2 << j])
    return out[: 1 << len(weights)]


def _objective_values(c: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Objective (offset excluded) of every assignment of ``len(c)`` variables."""
    m = len(c)
    vals = np.empty(1 << m, dtype=np.int64)
    cross = np.empty(1 << max(m - 1, 0), dtype=np.int64)
    vals[0] = 0
    for k in range(m):
        half = vals[1 << k : 2 << k]
        np.add(vals[: 1 << k], _subset_sums(upper[:k, k], cross), out=half)
        half += c[k]
    return vals


def brute_force_solve(instance: QuboInstance, n_limit: int = 24) -> OracleResult:
    """Enumerate every assignment; return the optimum and all optima (capped)."""
    n = instance.n
    if n > n_limit:
        raise ValueError(f"instance has {n} variables, above the oracle limit {n_limit}")
    if n == 0:
        return OracleResult(instance.offset, [()], 1, False)
    magnitude = (
        abs(instance.offset)
        + sum(abs(v) for v in instance.linear.values())
        + sum(abs(v) for _, v in instance.quadratic.items())
    )
    if magnitude >= 1 << 62:
        raise ValueError("coefficient magnitudes overflow the oracle's arithmetic")
    c, upper = _dense_arrays(instance)
    low = min(n, _CHUNK_BITS)
    low_vals = _objective_values(c[:low], upper[:low, :low])
    high_vals = _objective_values(c[low:], upper[low:, low:])
    # Row h: each low variable's couplings to the set high variables of h.
    high_cross = _subset_sums(
        upper[:low, low:].T, np.empty((len(high_vals), low), dtype=np.int64)
    )
    affine = np.empty(1 << low, dtype=np.int64)
    chunk = np.empty(1 << low, dtype=np.int64)
    best = None
    count = 0  # optima seen at the current best
    kept: list[np.ndarray] = []  # their indices, the first OPTIMA_CAP of them
    for h, scalar in enumerate(high_vals.tolist()):
        np.add(low_vals, _subset_sums(high_cross[h], affine), out=chunk)
        m = int(chunk.max()) + scalar
        if best is None or m > best:
            best, count, kept = m, 0, []
        elif m < best:
            continue
        hits = np.flatnonzero(chunk == m - scalar)
        room = OPTIMA_CAP - count
        if room > 0:
            kept.append(hits[:room] + (h << low))
        count += len(hits)
    idx = np.concatenate(kept)
    bits = (idx[:, None] >> np.arange(n, dtype=np.int64)) & 1
    optima = list(map(tuple, bits.tolist()))
    return OracleResult(best + instance.offset, optima, 1 << n, count > OPTIMA_CAP)


@dataclass
class EquivalenceReport:
    ok: bool
    optimum_original: int
    optimum_reduced: int
    message: str = ""
    counterexample: dict[int, int] | None = None


def check_equivalence(
    original: QuboInstance,
    reduced: QuboInstance,
    solution_map: SolutionMap,
    n_limit: int = 24,
) -> EquivalenceReport:
    """Verify a reduction exactly.

    Checks that the offset-inclusive optima of the original and reduced
    problems agree, and that every optimal reduced assignment (the reduced
    instance is indexed densely; position k corresponds to survivor
    ``solution_map.survivors[k-1]``) reconstructs to an assignment achieving
    the original optimum.  Reports the first counterexample on failure.
    Raises ValueError if the map does not partition 1..n.
    """
    if original.n > n_limit or reduced.n > n_limit:
        raise ValueError(f"instance above the oracle limit {n_limit}")
    if reduced.n != len(solution_map.survivors):
        raise ValueError(
            f"reduced instance has {reduced.n} variables but the map lists "
            f"{len(solution_map.survivors)} survivors"
        )
    listed = [h for h, *_ in solution_map.eliminations]
    if sorted(listed + solution_map.survivors) != list(range(1, original.n + 1)):
        raise ValueError(f"the map's assignments, identities and survivors do not "
                         f"list each of 1..{original.n} once")
    res_orig = brute_force_solve(original, n_limit)
    res_red = brute_force_solve(reduced, n_limit)
    if res_orig.optimum != res_red.optimum:
        return EquivalenceReport(
            False, res_orig.optimum, res_red.optimum,
            f"optimum mismatch: original {res_orig.optimum}, reduced {res_red.optimum}",
        )
    for bits in res_red.optima:
        full = reconstruct_solution(solution_map, dict(zip(solution_map.survivors, bits)))
        value = evaluate(original, full)
        if value != res_orig.optimum:
            return EquivalenceReport(
                False, res_orig.optimum, res_red.optimum,
                f"reconstructed assignment evaluates to {value}, "
                f"expected {res_orig.optimum}",
                counterexample=full,
            )
    return EquivalenceReport(True, res_orig.optimum, res_red.optimum)
