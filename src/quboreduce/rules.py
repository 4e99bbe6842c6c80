"""Pure firing predicates for the reduction rule catalog.

Every rule reads a :class:`~quboreduce.state.ReductionState` and returns an
optional :class:`RuleVerdict` without mutating anything.  A verdict's
``unique`` flag is True when the rule's inequality held strictly, i.e. the
conclusion holds in *all* optimal solutions rather than merely in some
optimal solution.

Single-variable fixing works from the value bounds of a variable's
contribution V(x_i) = c_i + sum_j d_ij x_j: the minimum over assignments is
c_i + d_minus[i] and the maximum is c_i + d_plus[i].  Pair rules refine the
same bounds with the x_h term pinned or complemented, and the pair-assignment
rules bound the joint contribution of two variables at once.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum

from .model import QuboInstance, canonical_pair
from .state import ReductionState

R1_0 = "R1_0"
R2_0 = "R2_0"
R1_1 = "R1_1"
R1_1p = "R1_1p"
R2_1 = "R2_1"
R2_1p = "R2_1p"
R1_2 = "R1_2"
R1_2p = "R1_2p"
R2_2 = "R2_2"
R2_2p = "R2_2p"
R2_5 = "R2_5"
R2_6 = "R2_6"
R3_1 = "R3_1"
R3_2 = "R3_2"
R3_3 = "R3_3"
R3_4 = "R3_4"

ALL_RULE_IDS = (
    R1_0, R2_0, R1_1, R1_1p, R2_1, R2_1p, R1_2, R1_2p,
    R2_2, R2_2p, R2_5, R2_6, R3_1, R3_2, R3_3, R3_4,
)


class InequalityKind(Enum):
    AT_MOST_ONE = "at_most_one"    # x_i + x_h <= 1
    AT_LEAST_ONE = "at_least_one"  # x_i + x_h >= 1
    I_LE_H = "i_le_h"              # x_i <= x_h
    H_LE_I = "h_le_i"              # x_h <= x_i


@dataclass(frozen=True)
class Fix:
    var: int
    value: int


@dataclass(frozen=True)
class PairFix:
    i: int
    vi: int
    h: int
    vh: int


@dataclass(frozen=True)
class SubstituteEqual:
    """Enforce x_h = x_i; h is eliminated."""

    i: int
    h: int


@dataclass(frozen=True)
class SubstituteComplement:
    """Enforce x_h = 1 - x_i; h is eliminated."""

    i: int
    h: int


@dataclass(frozen=True)
class Inequality:
    """A mined pairwise relation, stored with i < h."""

    kind: InequalityKind
    i: int
    h: int


Conclusion = Fix | PairFix | SubstituteEqual | SubstituteComplement | Inequality


@dataclass(frozen=True)
class RuleVerdict:
    rule_id: str
    conclusion: Conclusion
    unique: bool


# --- single-variable rules ----------------------------------------------


def value_bounds(state: ReductionState, i: int) -> tuple[int, int]:
    """Exact (min, max) of variable i's objective contribution when x_i = 1.

    The minimum turns on every hostile neighbour, the maximum every friendly
    one: c_i + d_minus[i] and c_i + d_plus[i].
    """
    c = state.c[i]
    return c + state.d_minus[i], c + state.d_plus[i]


def rule_fix_one(state: ReductionState, i: int) -> RuleVerdict | None:
    """Fix x_i = 1 when even the worst neighbour assignment keeps V(x_i) >= 0."""
    v = state.c[i] + state.d_minus[i]
    if v >= 0:
        return RuleVerdict(R1_0, Fix(i, 1), v > 0)
    return None


def rule_fix_zero(state: ReductionState, i: int) -> RuleVerdict | None:
    """Fix x_i = 0 when even the best neighbour assignment keeps V(x_i) <= 0."""
    v = state.c[i] + state.d_plus[i]
    if v <= 0:
        return RuleVerdict(R2_0, Fix(i, 0), v < 0)
    return None


# --- the slack screen ------------------------------------------------------


def pair_may_fire(state: ReductionState, i: int, h: int) -> bool:
    """Necessary condition for any pair rule to fire on the edge (i, h).

    Write s0_v = c_v + D_v^+ and s1_v = c_v + D_v^-, and let
    t_v = min(s0_v, -s1_v).  The screen passes when |d| >= min(t_i, t_h),
    d being the edge's weight.  If t_i <= 0 or t_h <= 0 it passes
    trivially; this is the case when an endpoint fixes (R2_0 fires when
    s0_v <= 0, R1_0 when -s1_v <= 0).  Otherwise all four slacks are
    positive, and every pair condition bounds |d| below by s0 or -s1 of one
    endpoint, plus slacks:

    - R3_1 needs d >= s0_i + s0_h, and R3_4 needs d >= -s1_i - s1_h;
    - R3_2 needs |d| >= -s1_i + s0_h, and R3_3 the same with i, h swapped;
    - R2_5 and R2_6 each need a condition from each of two sides, and each
      condition reads |d| >= s0_v or |d| >= -s1_v for one endpoint v;
    - each verdict of :func:`derive_pair_inequalities` is one such
      condition.

    Since t_v <= s0_v and t_v <= -s1_v, each of these implies
    |d| >= t_v >= min(t_i, t_h).  So an edge the screen rejects fires no
    pair rule and yields no inequality.
    """
    d = abs(state.adj[i][h])
    c, dm, dp = state.c, state.d_minus, state.d_plus
    # |d| >= min(t_i, t_h) holds when |d| reaches any of the four slacks.
    return (d >= c[i] + dp[i] or d >= -(c[i] + dm[i])
            or d >= c[h] + dp[h] or d >= -(c[h] + dm[h]))


# --- pairwise inequality rules -------------------------------------------


def derive_pair_inequalities(state: ReductionState, i: int, h: int) -> list[RuleVerdict]:
    """All inequality verdicts for an adjacent pair.

    The caller guarantees both variables are free and that neither is fixed
    by the single-variable rules.  Results are canonicalized to i < h; a
    positive edge can only yield directional verdicts, a negative edge only
    the at-most-one / at-least-one kinds.
    """
    a, b = canonical_pair(i, h)
    d = state.adj[a].get(b)
    if d is None:
        return []
    c, dm, dp = state.c, state.d_minus, state.d_plus
    out: list[RuleVerdict] = []
    if d > 0:
        v = c[a] + d + dm[a]
        if v >= 0:
            out.append(RuleVerdict(R1_1, Inequality(InequalityKind.H_LE_I, a, b), v > 0))
        v = c[b] + d + dm[b]
        if v >= 0:
            out.append(RuleVerdict(R1_1p, Inequality(InequalityKind.I_LE_H, a, b), v > 0))
        v = c[a] - d + dp[a]
        if v <= 0:
            out.append(RuleVerdict(R2_2, Inequality(InequalityKind.I_LE_H, a, b), v < 0))
        v = c[b] - d + dp[b]
        if v <= 0:
            out.append(RuleVerdict(R2_2p, Inequality(InequalityKind.H_LE_I, a, b), v < 0))
    else:
        v = c[a] + d + dp[a]
        if v <= 0:
            out.append(RuleVerdict(R2_1, Inequality(InequalityKind.AT_MOST_ONE, a, b), v < 0))
        v = c[b] + d + dp[b]
        if v <= 0:
            out.append(RuleVerdict(R2_1p, Inequality(InequalityKind.AT_MOST_ONE, a, b), v < 0))
        v = c[a] - d + dm[a]
        if v >= 0:
            out.append(RuleVerdict(R1_2, Inequality(InequalityKind.AT_LEAST_ONE, a, b), v > 0))
        v = c[b] - d + dm[b]
        if v >= 0:
            out.append(RuleVerdict(R1_2p, Inequality(InequalityKind.AT_LEAST_ONE, a, b), v > 0))
    return out


# --- combined substitution rules -----------------------------------------


def rule_complement_pair(state: ReductionState, i: int, h: int) -> RuleVerdict | None:
    """x_i + x_h = 1 when the pair admits both >= 1 and <= 1 on a negative edge."""
    d = state.adj[i].get(h)
    if d is None or d >= 0:
        return None
    c, dm, dp = state.c, state.d_minus, state.d_plus
    a1 = c[i] - d + dm[i]
    a2 = c[h] - d + dm[h]
    b1 = c[i] + d + dp[i]
    b2 = c[h] + d + dp[h]
    lower = a1 >= 0 or a2 >= 0
    upper = b1 <= 0 or b2 <= 0
    if lower and upper:
        unique = (a1 > 0 or a2 > 0) and (b1 < 0 or b2 < 0)
        return RuleVerdict(R2_5, SubstituteComplement(i, h), unique)
    return None


def rule_equal_pair(state: ReductionState, i: int, h: int) -> RuleVerdict | None:
    """x_i = x_h when the pair admits both <= and >= directions on a positive edge."""
    d = state.adj[i].get(h)
    if d is None or d <= 0:
        return None
    c, dm, dp = state.c, state.d_minus, state.d_plus
    c1 = c[i] - d + dp[i]
    c2 = c[h] + d + dm[h]
    d1 = c[i] + d + dm[i]
    d2 = c[h] - d + dp[h]
    forward = c1 <= 0 or c2 >= 0
    backward = d1 >= 0 or d2 <= 0
    if forward and backward:
        unique = (c1 < 0 or c2 > 0) and (d1 > 0 or d2 < 0)
        return RuleVerdict(R2_6, SubstituteEqual(i, h), unique)
    return None


# --- pair-assignment rules -------------------------------------------------


def rule_pair_zero(state: ReductionState, i: int, h: int) -> RuleVerdict | None:
    """x_i = x_h = 0 when their joint contribution cannot be positive."""
    d = state.adj[i].get(h)
    if d is None or d < 0:
        return None
    c, dp = state.c, state.d_plus
    v = c[i] + c[h] - d + dp[i] + dp[h]
    if v <= 0:
        return RuleVerdict(R3_1, PairFix(i, 0, h, 0), v < 0)
    return None


def rule_pair_one_zero(state: ReductionState, i: int, h: int) -> RuleVerdict | None:
    """x_i = 1 and x_h = 0 on a negative edge; the swapped call covers Rule 3.3."""
    d = state.adj[i].get(h)
    if d is None or d >= 0:
        return None
    c, dm, dp = state.c, state.d_minus, state.d_plus
    v = -c[i] + c[h] + d - dm[i] + dp[h]
    if v <= 0:
        return RuleVerdict(R3_2, PairFix(i, 1, h, 0), v < 0)
    return None


def rule_pair_zero_one(state: ReductionState, i: int, h: int) -> RuleVerdict | None:
    """Rule 3.3: x_i = 0 and x_h = 1 on a negative edge (Rule 3.2 with the roles swapped)."""
    v = rule_pair_one_zero(state, h, i)
    return RuleVerdict(R3_3, v.conclusion, v.unique) if v else None


def rule_pair_one(state: ReductionState, i: int, h: int) -> RuleVerdict | None:
    """x_i = x_h = 1 when their joint contribution cannot be negative."""
    d = state.adj[i].get(h)
    if d is None or d < 0:
        return None
    c, dm = state.c, state.d_minus
    v = -c[i] - c[h] - d - dm[i] - dm[h]
    if v <= 0:
        return RuleVerdict(R3_4, PairFix(i, 1, h, 1), v < 0)
    return None


# --- the whole catalog -------------------------------------------------------


def catalog_firings(state: ReductionState) -> Iterator[RuleVerdict]:
    """Yield every reduction verdict that fires on the state.

    Both fix rules are tried on each free variable; then each edge is probed
    once with the pair rules of its sign.  Pairs with a fixable endpoint are
    skipped, since the pair rules presuppose that neither variable fixes.
    """
    free = state.free_variables()
    fixable = set()
    for v in free:
        for verdict in (rule_fix_one(state, v), rule_fix_zero(state, v)):
            if verdict:
                fixable.add(v)
                yield verdict
    for i in free:
        if i in fixable:
            continue
        for h, d in state.adj[i].items():
            if h < i or h in fixable:
                continue
            if d > 0:
                found = (rule_pair_zero(state, i, h), rule_pair_one(state, i, h),
                         rule_equal_pair(state, i, h))
            else:
                found = (rule_pair_one_zero(state, i, h), rule_pair_zero_one(state, i, h),
                         rule_complement_pair(state, i, h))
            for verdict in found:
                if verdict:
                    yield verdict


# --- penalty weights -------------------------------------------------------


def _bound(value: int) -> int:
    return value if value > 0 else 0


def m_lower_bound(state: ReductionState, verdict: RuleVerdict) -> int:
    """Lower bound on the penalty weight M for a mined or pair verdict.

    Any M strictly above the bound makes the corresponding penalty rewrite
    force the verdict's relation onto the optima.  Fix verdicts take no M.
    """
    c, dm, dp = state.c, state.d_minus, state.d_plus
    concl = verdict.conclusion
    rid = verdict.rule_id
    if isinstance(concl, Fix):
        raise ValueError("single-variable fixes have no penalty form")
    if isinstance(concl, Inequality):
        i, h = concl.i, concl.h
        if rid == R2_1:
            return _bound(c[i] + dp[i])
        if rid == R2_1p:
            return _bound(c[h] + dp[h])
        if rid == R1_1:
            return _bound(-(c[i] + dm[i]))
        if rid == R2_2p:
            return _bound(c[h] + dp[h])
        if rid == R1_1p:
            return _bound(-(c[h] + dm[h]))
        if rid == R2_2:
            return _bound(c[i] + dp[i])
        if rid == R1_2:
            return _bound(-(c[i] + dm[i]))
        if rid == R1_2p:
            return _bound(-(c[h] + dm[h]))
        raise ValueError(f"unexpected inequality rule {rid}")
    if isinstance(concl, PairFix):
        if rid == R3_1:
            return _bound(c[concl.i] + c[concl.h] + dp[concl.i] + dp[concl.h])
        if rid in (R3_2, R3_3):
            a = concl.i if concl.vi == 1 else concl.h  # the variable fixed to 1
            b = concl.h if concl.vi == 1 else concl.i
            return _bound(-c[a] + c[b] - dm[a] + dp[b])
        if rid == R3_4:
            return _bound(-c[concl.i] - c[concl.h] - dm[concl.i] - dm[concl.h])
        raise ValueError(f"unexpected pair rule {rid}")
    # Substitutions combine one satisfied condition from each side; take the
    # cheapest satisfied bound per side and require M above both.
    i, h = concl.i, concl.h
    d = state.adj[i].get(h, 0)
    if isinstance(concl, SubstituteComplement):
        lower = [b for cond, b in (
            (c[i] - d + dm[i] >= 0, _bound(-(c[i] + dm[i]))),
            (c[h] - d + dm[h] >= 0, _bound(-(c[h] + dm[h]))),
        ) if cond]
        upper = [b for cond, b in (
            (c[i] + d + dp[i] <= 0, _bound(c[i] + dp[i])),
            (c[h] + d + dp[h] <= 0, _bound(c[h] + dp[h])),
        ) if cond]
    else:
        lower = [b for cond, b in (
            (c[i] - d + dp[i] <= 0, _bound(c[i] + dp[i])),
            (c[h] + d + dm[h] >= 0, _bound(-(c[h] + dm[h]))),
        ) if cond]
        upper = [b for cond, b in (
            (c[i] + d + dm[i] >= 0, _bound(-(c[i] + dm[i]))),
            (c[h] - d + dp[h] <= 0, _bound(c[h] + dp[h])),
        ) if cond]
    if not lower or not upper:
        raise ValueError("verdict conditions do not hold on this state")
    return max(min(lower), min(upper))


def penalty_rewrite(
    instance: QuboInstance,
    kind: InequalityKind,
    i: int,
    h: int,
    M: int,
) -> QuboInstance:
    """Weight the pair (i, h) so the optima satisfy the given inequality.

    The at-most-one form replaces the pair coefficient by -M and the
    at-least-one form replaces c_i, c_h by M, the pair coefficient by -M, and
    adds M to the offset; on at-least-one the replacement shifts objective
    values of satisfying assignments even though it preserves which
    assignments are optimal-feasible.  The directional forms subtract M from
    the dominated variable's linear coefficient and add M to the pair
    coefficient, which both forces the inequality and leaves the objective
    unchanged on satisfying assignments.

    M must strictly exceed the weakest applicable lower bound for the kind
    (see :func:`m_lower_bound`); anything smaller may distort the optimum.
    """
    if not (1 <= i <= instance.n and 1 <= h <= instance.n) or i == h:
        raise ValueError(f"invalid pair ({i}, {h})")
    st = ReductionState(instance)
    dm_i, dp_i, dm_h, dp_h = st.d_minus[i], st.d_plus[i], st.d_minus[h], st.d_plus[h]
    c_i, c_h = st.c[i], st.c[h]
    if kind is InequalityKind.AT_MOST_ONE:
        bound = min(_bound(c_i + dp_i), _bound(c_h + dp_h))
    elif kind is InequalityKind.AT_LEAST_ONE:
        bound = min(_bound(-(c_i + dm_i)), _bound(-(c_h + dm_h)))
    elif kind is InequalityKind.H_LE_I:
        bound = min(_bound(-(c_i + dm_i)), _bound(c_h + dp_h))
    else:
        bound = min(_bound(-(c_h + dm_h)), _bound(c_i + dp_i))
    if M <= bound:
        raise ValueError(f"penalty weight {M} does not exceed the bound {bound}")
    linear = dict(instance.linear)
    quadratic = dict(instance.quadratic)
    key = canonical_pair(i, h)
    offset = instance.offset
    if kind is InequalityKind.AT_MOST_ONE:
        quadratic[key] = -M
    elif kind is InequalityKind.AT_LEAST_ONE:
        linear[i] = M
        linear[h] = M
        quadratic[key] = -M
        offset += M
    else:
        dominated = h if kind is InequalityKind.H_LE_I else i
        linear[dominated] = linear.get(dominated, 0) - M
        quadratic[key] = quadratic.get(key, 0) + M
    return QuboInstance(
        instance.n,
        {k: v for k, v in linear.items() if v != 0},
        {k: v for k, v in quadratic.items() if v != 0},
        offset,
    )
