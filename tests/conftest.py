"""Shared helpers: random instances, verdict consistency checks, event-log replay."""

import random

import pytest

from quboreduce import rules
from quboreduce.engine import apply_conclusion
from quboreduce.model import QuboInstance, build_from_triplets, evaluate
from quboreduce.state import ReductionState, init_state


def random_instance(rng: random.Random, n: int, coef: int = 10,
                    density: float | None = None) -> QuboInstance:
    """Random instance with integer coefficients in [-coef, coef]."""
    if density is None:
        density = rng.uniform(0.1, 0.9)
    entries = []
    for i in range(1, n + 1):
        v = rng.randint(-coef, coef)
        if v:
            entries.append((i, i, v))
        for j in range(i + 1, n + 1):
            if rng.random() < density:
                v = rng.randint(-coef, coef)
                if v:
                    entries.append((i, j, v))
    return build_from_triplets(n, entries)


def sweep_instance(t: int) -> QuboInstance:
    """Instance t of the acceptance soundness sweep (fully deterministic)."""
    rng = random.Random(t)
    n = rng.randint(2, 18)
    return random_instance(rng, n)


def all_assignments(n: int):
    for mask in range(1 << n):
        yield tuple((mask >> k) & 1 for k in range(n))


def optima_by_enumeration(instance: QuboInstance) -> tuple[int, list[tuple[int, ...]]]:
    """Independent double-loop oracle (no shared code with quboreduce.oracle)."""
    best = None
    opt = []
    for x in all_assignments(instance.n):
        val = instance.offset
        for i, c in instance.linear.items():
            val += c * x[i - 1]
        for (i, j), d in instance.quadratic.items():
            val += d * x[i - 1] * x[j - 1]
        if best is None or val > best:
            best, opt = val, [x]
        elif val == best:
            opt.append(x)
    return best, opt


def restricted_optimum(instance: QuboInstance, predicate) -> int | None:
    """Exact optimum over assignments satisfying a predicate, None if empty."""
    best = None
    for x in all_assignments(instance.n):
        if not predicate(x):
            continue
        val = evaluate(instance, x)
        if best is None or val > best:
            best = val
    return best


def verdict_holds(conclusion, x: tuple[int, ...]) -> bool:
    """Whether an assignment is consistent with a verdict's conclusion."""
    if isinstance(conclusion, rules.Fix):
        return x[conclusion.var - 1] == conclusion.value
    if isinstance(conclusion, rules.PairFix):
        return (x[conclusion.i - 1] == conclusion.vi
                and x[conclusion.h - 1] == conclusion.vh)
    if isinstance(conclusion, rules.SubstituteComplement):
        return x[conclusion.i - 1] + x[conclusion.h - 1] == 1
    if isinstance(conclusion, rules.SubstituteEqual):
        return x[conclusion.i - 1] == x[conclusion.h - 1]
    xi, xh = x[conclusion.i - 1], x[conclusion.h - 1]
    kind = conclusion.kind
    if kind is rules.InequalityKind.AT_MOST_ONE:
        return xi + xh <= 1
    if kind is rules.InequalityKind.AT_LEAST_ONE:
        return xi + xh >= 1
    if kind is rules.InequalityKind.I_LE_H:
        return xi <= xh
    return xh <= xi


def check_verdict_against_optima(verdict, optima) -> bool:
    """Some-optimum consistency, all-optima when the verdict is unique."""
    if verdict.unique:
        return all(verdict_holds(verdict.conclusion, x) for x in optima)
    return any(verdict_holds(verdict.conclusion, x) for x in optima)


def catalog_firings(st) -> list:
    """Every rule verdict firing on the given state (pair preconditions honored)."""
    out = list(rules.catalog_firings(st))
    fixable = {v.conclusion.var for v in out if isinstance(v.conclusion, rules.Fix)}
    for i in st.free_variables():
        for h in st.adj[i]:
            if i < h and i not in fixable and h not in fixable:
                out.extend(rules.derive_pair_inequalities(st, i, h))
    return out


@pytest.fixture
def uncompensated_complement(monkeypatch):
    """Mutant complement substitution that omits the c_j += d_hj compensation.

    x_h = 1 - x_i turns each d_hj x_h x_j into d_hj x_j - d_hj x_i x_j; losing
    the linear part silently corrupts the objective, so the soundness checks
    must catch this mutant.
    """
    substitute = ReductionState.apply_substitution_complement

    def mutant(self, i, h):
        row = [(j, d) for j, d in self.adj[h].items() if j != i]
        substitute(self, i, h)
        for j, d in row:
            self.c[j] -= d

    monkeypatch.setattr(ReductionState, "apply_substitution_complement", mutant)


def replay(instance: QuboInstance, events):
    """Rebuild a run's states from its event log.

    Yields the state before each event and then the final one.  The same
    state object is yielded each time and mutated in between, so copy what
    must outlive the next step.  A pair fix is two mutations, so identify a
    state by its ``events`` count, not by the event's index.
    """
    st = init_state(instance)
    for ev in events:
        yield st
        apply_conclusion(st, ev.verdict.conclusion)
    yield st


# Frozen constructed instances (see test_engine for their roles).

# No rule in the catalog fires anywhere on this instance.
RULE_SILENT = build_from_triplets(3, [
    (1, 1, -2), (2, 2, -3), (3, 3, -1),
    (1, 2, 5), (1, 3, 4), (2, 3, -4),
])

# Scan passes fix nothing; the residual sweep substitutes via the complement
# rule on (1, 2), whose two sides hold at different endpoints (mixed-side
# condition combination).
RESIDUAL_COMPLEMENT = build_from_triplets(3, [
    (1, 1, 3), (2, 2, 1), (3, 3, -1),
    (1, 2, -4), (1, 3, -5), (2, 3, 4),
])

# Same situation for the equality rule.
RESIDUAL_EQUAL = build_from_triplets(4, [
    (1, 1, -3), (2, 2, 3), (3, 3, -3), (4, 4, -1),
    (1, 2, -5), (1, 3, 5), (1, 4, 3), (2, 3, 6), (2, 4, -4), (3, 4, 1),
])
