"""Shared helpers: random instances, verdict consistency checks, event-log replay."""

import random

import pytest

from quboreduce import rules
from quboreduce.engine import PassSummary, ReductionLog, _Reducer, apply_conclusion
from quboreduce.model import QuboInstance, build_from_triplets, evaluate
from quboreduce.state import FREE, ReductionState, init_state


def run_first_pass(state: ReductionState, log: ReductionLog) -> PassSummary:
    """Run one scan pass over every free row of an existing state."""
    return _Reducer(state, log).run_pass(log.pass_count + 1)


def run_residual_pass(state: ReductionState, log: ReductionLog) -> int:
    """Run the residual substitution sweep; returns the substitution count."""
    return _Reducer(state, log).run_residual(max(log.pass_count, 1))


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


def shuffled_instance(rng: random.Random, scale: int) -> QuboInstance:
    """Random instance whose dicts list their keys in random order.

    Values are small multiples of ``scale`` plus a little, so rows tie on
    their extremes and, at large scales, their sums pass 2^62 or int64.
    """
    def value() -> int:
        return rng.choice((-1, 1)) * (rng.randint(1, 3) * scale + rng.randint(0, 2))

    n = rng.randint(1, 30)
    density = rng.choice((0.2, 0.9))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
             if rng.random() < density]
    rng.shuffle(pairs)
    linear = {i: value() for i in rng.sample(range(1, n + 1), rng.randint(0, n))}
    return QuboInstance(n, linear, {p: value() for p in pairs}, rng.randint(-5, 5))


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


def reduction_firings(st):
    """Yield every reduction verdict that fires on the state.

    The scalar reference for :func:`quboreduce.engine.verify_fixed_point`.
    Both fix rules are tried on each free variable; then each edge is
    judged once by every reducing row of its sign in ``rules.PAIR_RULES``.
    Pairs with a fixable endpoint are skipped, since the pair rules
    presuppose that neither variable fixes.
    """
    free = st.free_variables()
    fixable = set()
    slack = {}
    for v in free:
        for verdict in (rules.rule_fix_one(st, v), rules.rule_fix_zero(st, v)):
            if verdict:
                fixable.add(v)
                yield verdict
        slack[v] = rules.slacks(st, v)
    for i in free:
        if i in fixable:
            continue
        ui, wi = slack[i]
        for h, d in st.adj[i].items():
            if h < i or h in fixable:
                continue
            uh, wh = slack[h]
            for rule in rules.PAIR_RULES:
                if rule.endpoint is None and (rule.sign > 0) == (d > 0):
                    verdict = rule.judge(abs(d), i, h, ui, wi, uh, wh)
                    if verdict:
                        yield verdict


def catalog_firings(st) -> list:
    """Every rule verdict firing on the given state (pair preconditions honored)."""
    out = list(reduction_firings(st))
    fixable = {v.conclusion.var for v in out if isinstance(v.conclusion, rules.Fix)}
    for i in st.free_variables():
        for h in st.adj[i]:
            if i < h and i not in fixable and h not in fixable:
                out.extend(rules.derive_pair_inequalities(st, i, h))
    return out


def legacy_state(instance: QuboInstance) -> ReductionState:
    """A state built edge by edge, as ReductionState was before its array build.

    Only the slots of that constructor are set: the reference for every
    slot and for each row's order.
    """
    st = object.__new__(ReductionState)
    n = st.n = instance.n
    st.offset = instance.offset
    st.c = [0] * (n + 1)
    for i, v in instance.linear.items():
        st.c[i] = v
    st.adj = [dict() for _ in range(n + 1)]
    for (i, j), d in instance.quadratic.items():
        st.adj[i][j] = d
        st.adj[j][i] = d
    st.d_minus, st.d_plus = [0] * (n + 1), [0] * (n + 1)
    st.min_val, st.max_val = [0] * (n + 1), [0] * (n + 1)
    for i in range(1, n + 1):
        st.d_minus[i] = sum(d for d in st.adj[i].values() if d < 0)
        st.d_plus[i] = sum(d for d in st.adj[i].values() if d > 0)
        st.recompute_row_extremes(i)
    st.status = [FREE] * (n + 1)
    st.touched = [0] * (n + 1)
    st.eliminations = []
    return st


def snapshot(st: ReductionState) -> QuboInstance:
    """A state's working problem as an instance over the original index set."""
    linear = {i: v for i, v in enumerate(st.c) if v != 0}
    quadratic = {(i, j): d for i in range(1, st.n + 1) for j, d in st.adj[i].items() if i < j}
    return QuboInstance(st.n, linear, quadratic, st.offset)


def check_consistency(st: ReductionState) -> None:
    """Assert all derived quantities match a from-scratch recomputation."""
    for i in range(1, st.n + 1):
        if st.status[i] != FREE:
            assert not st.adj[i], f"dead variable {i} retains edges"
            assert st.c[i] == 0 and st.d_minus[i] == 0 and st.d_plus[i] == 0
            continue
        neg = pos = mx = mn = 0
        for j, d in st.adj[i].items():
            assert d != 0, f"zero edge stored at ({i}, {j})"
            assert st.status[j] == FREE, f"edge ({i}, {j}) to dead variable"
            assert st.adj[j].get(i) == d, f"asymmetric edge ({i}, {j})"
            if d < 0:
                neg += d
                mn = min(mn, d)
            else:
                pos += d
                mx = max(mx, d)
        assert st.d_minus[i] == neg, f"d_minus[{i}]={st.d_minus[i]} != {neg}"
        assert st.d_plus[i] == pos, f"d_plus[{i}]={st.d_plus[i]} != {pos}"
        assert st.max_val[i] == mx, f"max extreme of row {i} stale"
        assert st.min_val[i] == mn, f"min extreme of row {i} stale"


LEGACY_SLOTS = (
    "n", "offset", "c", "d_minus", "d_plus", "min_val", "max_val", "status",
    "touched", "eliminations",
)


def dense_reference(st: ReductionState, survivors: list[int]) -> QuboInstance:
    """The reduced instance built as a dict over the survivors' rows."""
    index = {v: k + 1 for k, v in enumerate(survivors)}
    linear = {index[v]: st.c[v] for v in survivors if st.c[v] != 0}
    quadratic = {(index[v], index[w]): d
                 for v in survivors for w, d in st.adj[v].items() if v < w}
    return QuboInstance(len(survivors), linear, quadratic, st.offset)


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
