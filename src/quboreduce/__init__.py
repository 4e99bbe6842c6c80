"""Provably sound size reduction for sparse QUBO maximization problems.

The library fixes variables, replaces variables by (complements of) other
variables, and assigns value pairs, using exact integer coefficient bounds
that guarantee at least one optimal solution survives every step.  It also
ships a hub-structured benchmark generator and an exhaustive-enumeration
oracle for verifying reductions end to end.
"""

from .engine import (
    ReductionLog, SolutionMap, mine_inequalities, reconstruct_solution, run_to_fixed_point,
    verify_fixed_point,
)
from .generator import DesignRow, GeneratorSpec, design_table, generate_instance
from .model import (
    QuboFormatError, QuboInstance, build_from_triplets, evaluate,
    ising_to_qubo, read_instance, relabel, write_instance,
)
from .oracle import OracleResult, brute_force_solve, check_equivalence
from .state import ReductionState, init_state

__version__ = "0.1.0"

__all__ = [
    "ReductionLog",
    "SolutionMap",
    "mine_inequalities",
    "reconstruct_solution",
    "run_to_fixed_point",
    "verify_fixed_point",
    "DesignRow",
    "GeneratorSpec",
    "design_table",
    "generate_instance",
    "QuboFormatError",
    "QuboInstance",
    "build_from_triplets",
    "evaluate",
    "ising_to_qubo",
    "read_instance",
    "relabel",
    "write_instance",
    "OracleResult",
    "brute_force_solve",
    "check_equivalence",
    "ReductionState",
    "init_state",
    "__version__",
]
