"""Benchmark instance generator: bounded-uniform coefficients with multiplied
outliers over a hub-heavy sparse graph.

Six factors control an instance family: the uniform coefficient bound, two
outlier multipliers (linear and quadratic), the fractions of entries that get
multiplied, and the fraction of variables carrying a nonzero linear term.
A two-level fractional factorial over those factors gives the standard table
of sixteen settings.  Graphs have an exact edge count, a small set of densely
connected hub nodes (about 1% of nodes), and are always connected; all
percentages are realized by exact-count sampling so repeated runs with one
seed reproduce instances coefficient for coefficient (PCG64 generator).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import ceil, comb, floor

import numpy as np

from .model import EdgeTable, QuboInstance


@dataclass(frozen=True)
class DesignRow:
    """One row of the two-level experimental design."""

    upper_bound: int
    linear_multiplier: int
    quadratic_multiplier: int
    pct_quadratic_multiplied: float
    pct_linear_multiplied: float
    pct_nonzero_linear: float


_DESIGN_ROWS = (
    DesignRow(10, 10, 20, 0.05, 0.10, 0.25),
    DesignRow(100, 10, 20, 0.15, 0.20, 0.25),
    DesignRow(10, 5, 20, 0.15, 0.10, 0.05),
    DesignRow(100, 5, 20, 0.05, 0.20, 0.05),
    DesignRow(10, 10, 10, 0.05, 0.20, 0.05),
    DesignRow(100, 10, 10, 0.15, 0.10, 0.05),
    DesignRow(10, 5, 10, 0.15, 0.20, 0.25),
    DesignRow(100, 5, 10, 0.05, 0.10, 0.25),
    DesignRow(100, 5, 10, 0.15, 0.20, 0.05),
    DesignRow(10, 5, 10, 0.05, 0.10, 0.05),
    DesignRow(100, 10, 10, 0.05, 0.20, 0.25),
    DesignRow(10, 10, 10, 0.15, 0.10, 0.25),
    DesignRow(100, 5, 20, 0.15, 0.10, 0.25),
    DesignRow(10, 5, 20, 0.05, 0.20, 0.25),
    DesignRow(100, 10, 20, 0.05, 0.10, 0.05),
    DesignRow(10, 10, 20, 0.15, 0.20, 0.05),
)

# (label, n, target_edges) for the six standard size/density configurations.
STANDARD_SIZES = (
    ("1000L", 1000, 5000),
    ("1000H", 1000, 10000),
    ("5000L", 5000, 25000),
    ("5000H", 5000, 50000),
    ("10000L", 10000, 100000),
    ("10000H", 10000, 500000),
)

# Small configurations exercising the same sixteen rows at desk scale.
DESK_SIZES = (
    ("100L", 100, 500),
    ("100H", 100, 1000),
)

# Share of edges allocated to hub-incident pairs.
HUB_EDGE_SHARE = 0.3


def design_table() -> list[DesignRow]:
    """The sixteen factor settings, in table order (row ids 1..16)."""
    return list(_DESIGN_ROWS)


@dataclass(frozen=True)
class GeneratorSpec:
    """Everything that determines one generated instance."""

    n: int
    target_edges: int
    upper_bound: int
    linear_multiplier: int
    quadratic_multiplier: int
    pct_quadratic_multiplied: float
    pct_linear_multiplied: float
    pct_nonzero_linear: float
    hub_fraction: float = 0.01
    seed: int = 0

    @classmethod
    def from_design(
        cls, n: int, target_edges: int, row: DesignRow,
        seed: int = 0, hub_fraction: float = 0.01,
    ) -> "GeneratorSpec":
        return cls(n, target_edges, **vars(row), hub_fraction=hub_fraction, seed=seed)

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one variable")
        if self.target_edges < self.n - 1:
            raise ValueError(
                f"{self.target_edges} edges cannot connect {self.n} nodes"
            )
        if self.target_edges > comb(self.n, 2):
            raise ValueError("more edges requested than distinct pairs exist")
        for name in ("pct_quadratic_multiplied", "pct_linear_multiplied",
                     "pct_nonzero_linear", "hub_fraction"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name}={p} outside [0, 1]")
        if self.upper_bound < 1:
            raise ValueError("upper_bound must be positive")
        for name in ("linear_multiplier", "quadratic_multiplier"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name}={getattr(self, name)} must be at least 1")
        # Coefficients are drawn and multiplied in int64.
        if self.upper_bound * max(self.linear_multiplier, self.quadratic_multiplier) >= 2**62:
            raise ValueError("upper_bound times a multiplier must stay below 2^62")


def _nonzero_uniform(rng: np.random.Generator, count: int, bound: int) -> np.ndarray:
    """count integers uniform over [-bound, bound] \\ {0}."""
    raw = rng.integers(1, 2 * bound + 1, size=count)
    return np.where(raw <= bound, raw, bound - raw).astype(np.int64)


def _pair_sampler(rng: np.random.Generator, stride: int, ends_a: np.ndarray, ends_b: np.ndarray):
    """Batches of encoded pairs ``lo * stride + hi``, one end from each pool, no loops."""

    def draw(k: int) -> np.ndarray:
        a = ends_a[rng.integers(0, len(ends_a), size=k)]
        b = ends_b[rng.integers(0, len(ends_b), size=k)]
        ok = a != b
        a, b = a[ok], b[ok]
        return np.minimum(a, b) * stride + np.maximum(a, b)

    return draw


def _sample_distinct_pairs(draw_batch, want: int, taken: set[int]) -> None:
    """Rejection-sample `want` encoded pairs into `taken`, in draw order."""
    goal = len(taken) + want
    while len(taken) < goal:
        for key in draw_batch(max(64, 2 * (goal - len(taken)))).tolist():
            if key not in taken:
                taken.add(key)
                if len(taken) == goal:
                    break


def _connectivity_repair(n: int, stride: int, keys: list[int]) -> list[int]:
    """Swap redundant edges for bridges until the graph is connected.

    ``keys`` are encoded pairs ``lo * stride + hi``.  Keeps the edge count
    unchanged: every removed edge lies on a cycle of its component, every
    added edge joins two components.  Returns ``keys`` itself when the graph
    is already connected.
    """
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    non_tree: list[int] = []
    for idx, key in enumerate(keys):
        ra, rb = find(key // stride), find(key % stride)
        if ra == rb:
            non_tree.append(idx)
        else:
            parent[ra] = rb
    roots = sorted({find(v) for v in range(1, n + 1)})
    if len(roots) == 1:
        return keys
    need = len(roots) - 1
    if len(non_tree) < need:
        raise RuntimeError("not enough redundant edges to repair connectivity")
    drop = set(non_tree[-need:])
    bridges = [a * stride + b for a, b in zip(roots, roots[1:])]
    return [key for k, key in enumerate(keys) if k not in drop] + bridges


def generate_instance(spec: GeneratorSpec) -> QuboInstance:
    """Generate one instance; deterministic for a fixed spec."""
    spec.validate()
    n, m = spec.n, spec.target_edges
    rng = np.random.default_rng(spec.seed)
    stride = n + 1
    nodes = np.arange(1, n + 1)

    hub_count = ceil(spec.hub_fraction * n)
    hubs = np.sort(rng.choice(nodes, size=hub_count, replace=False)) \
        if hub_count else np.empty(0, dtype=np.int64)
    hub_set = set(int(v) for v in hubs)
    non_hubs = np.array([v for v in range(1, n + 1) if v not in hub_set], dtype=np.int64)

    hub_space = comb(n, 2) - comb(n - hub_count, 2)
    non_hub_space = comb(n - hub_count, 2)
    hub_target = min(round(HUB_EDGE_SHARE * m), hub_space)
    # Uniform pairs must fit into the non-hub pair space.
    hub_target = max(hub_target, m - non_hub_space)

    # Pairs stay encoded as lo * stride + hi, which sort as the (lo, hi) pairs do.
    taken: set[int] = set()
    _sample_distinct_pairs(_pair_sampler(rng, stride, hubs, nodes), hub_target, taken)
    _sample_distinct_pairs(_pair_sampler(rng, stride, non_hubs, non_hubs), m - hub_target, taken)
    keys = _connectivity_repair(n, stride, sorted(taken))

    weights = _nonzero_uniform(rng, m, spec.upper_bound)
    k_quad = floor(spec.pct_quadratic_multiplied * m)
    if k_quad:
        chosen = rng.choice(m, size=k_quad, replace=False)
        weights[chosen] *= spec.quadratic_multiplier

    k_lin = floor(spec.pct_nonzero_linear * n)
    linear: dict[int, int] = {}
    if k_lin:
        chosen_nodes = np.sort(rng.choice(nodes, size=k_lin, replace=False))
        lvals = _nonzero_uniform(rng, k_lin, spec.upper_bound)
        k_mult = floor(spec.pct_linear_multiplied * k_lin)
        if k_mult:
            chosen = rng.choice(k_lin, size=k_mult, replace=False)
            lvals[chosen] *= spec.linear_multiplier
        linear = {int(v): int(w) for v, w in zip(chosen_nodes, lvals)}

    lo, hi = np.divmod(np.sort(np.array(keys, dtype=np.int64)), stride)
    return QuboInstance(n, linear, EdgeTable(lo, hi, weights), 0)


@dataclass(frozen=True)
class BenchmarkInstance:
    label: str
    row_id: int
    spec: GeneratorSpec
    instance: QuboInstance


def generate_benchmark_suite(
    base: list[tuple[str, int, int]],
    rows: list[DesignRow],
    seed: int = 0,
    hub_fraction: float = 0.01,
) -> Iterator[BenchmarkInstance]:
    """Cross product of size configurations and design rows, built one at a time.

    Each instance gets its own child seed derived from (seed, size, row), so
    the whole suite is reproducible and instances are independent.  The call
    validates every spec; each instance is built as the iterator reaches it.
    """
    specs = []
    for size_idx, (label, n, m) in enumerate(base):
        for row_idx, row in enumerate(rows, start=1):
            child_seed = seed * 1_000_003 + size_idx * 1009 + row_idx
            spec = GeneratorSpec.from_design(
                n, m, row, seed=child_seed, hub_fraction=hub_fraction
            )
            spec.validate()
            specs.append((label, row_idx, spec))
    return (BenchmarkInstance(label, row_id, spec, generate_instance(spec))
            for label, row_id, spec in specs)
