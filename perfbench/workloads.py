"""The benchmark's workloads: which instances each one generates from a seed.

Every instance comes from quboreduce's own generator, so set-up exercises
the generator layer, and the program only ever sees the files written from
those instances.  ``smoke`` swaps in tiny sizes of the same make-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from quboreduce.generator import GeneratorSpec, design_table

# quboreduce verify's default --limit: above it the benchmark checks a
# reduction with verify_fixed_point instead of the exact oracle.
ORACLE_LIMIT = 24


def _child_seed(seed: int, k: int) -> int:
    return seed * 1_000_003 + 7919 * k + 1


def _standard(n: int, m: int, count: int) -> Callable[[int], list[GeneratorSpec]]:
    row = design_table()[0]
    return lambda seed: [
        GeneratorSpec.from_design(n, m, row, seed=_child_seed(seed, k)) for k in range(count)
    ]


def _sweep(sizes: tuple[int, ...], per_size: int) -> Callable[[int], list[GeneratorSpec]]:
    # Two thirds of all pairs, no quadratic outliers: at 15-18 variables the
    # reduction fires on some instances without collapsing whole instances,
    # so the survivor total varies little from seed to seed.  The standard
    # design rows at this size reduce to nothing or to almost everything.
    def specs(seed: int) -> list[GeneratorSpec]:
        out = []
        for k in range(per_size * len(sizes)):
            n = sizes[k % len(sizes)]
            out.append(GeneratorSpec(
                n=n, target_edges=n * (n - 1) // 3, upper_bound=10,
                linear_multiplier=10, quadratic_multiplier=1,
                pct_quadratic_multiplied=0.0, pct_linear_multiplied=0.2,
                pct_nonzero_linear=0.25, hub_fraction=0.01,
                seed=_child_seed(seed, k),
            ))
        return out
    return specs


@dataclass(frozen=True)
class Workload:
    name: str
    setup_reps: int
    specs: Callable[[int], list[GeneratorSpec]]
    smoke_specs: Callable[[int], list[GeneratorSpec]]
    # Untraced runs time each check this many times and keep the median.
    verify_reps: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "cascade-10k",
            setup_reps=3,
            specs=_standard(10_000, 100_000, 2),
            smoke_specs=_standard(400, 4_000, 2),
            # One check takes about 0.5 s, short enough for the host's
            # speed swings to move a single timing by a quarter.
            verify_reps=5,
        ),
        Workload(
            "dense-500k",
            setup_reps=2,
            specs=_standard(10_000, 500_000, 2),
            smoke_specs=_standard(300, 15_000, 2),
        ),
        Workload(
            "oracle-sweep",
            # Its set-up takes about 20 ms and varies several-fold between
            # repetitions, so the median needs many of them.
            setup_reps=25,
            specs=_sweep((15, 16, 17, 18), 8),
            smoke_specs=_sweep((8, 10), 2),
        ),
    )
}
