"""Pure firing predicates for the reduction rule catalog.

Every rule reads a :class:`~quboreduce.state.ReductionState` and returns an
optional :class:`RuleVerdict` without mutating anything.  A verdict names the
edge it judged, ``(i, i)`` for a fix of x_i.  A reducing verdict concludes
the eliminations it makes, ``(h, a, b, i)`` for x_h := a + b * x_i in the
order applied, the form the state applies and records: a fix is
``((i, value, 0, i),)``, a pair assignment two fixes, ``x_h = x_i`` is
``((h, 0, 1, i),)`` and ``x_h = 1 - x_i`` is ``((h, 1, -1, i),)``.  A mined
verdict concludes an :class:`Inequality`.  A verdict's ``unique`` flag is
True when the rule's inequality held strictly, i.e. the conclusion holds in
*all* optimal solutions rather than merely in some optimal solution.

Every rule compares coefficients with the two slacks of each variable v,
u_v = c_v + D_v^+ and w_v = -(c_v + D_v^-) (see :func:`slacks`).  A fix
rule fires when one slack is <= 0.  A pair rule fires on an edge of its sign
when |d| reaches a threshold over the endpoints' slacks.  :data:`PAIR_RULES`
holds every pair rule as one row, in the order the catalog tries them; a
row's :meth:`PairRule.probe` is the one way to fire it on an edge, and the
fixed-point check (:func:`~quboreduce.engine.verify_fixed_point`, on
arrays), the inequality miner and the penalty bounds read their thresholds
from the same rows.
"""

from __future__ import annotations

from collections.abc import Callable
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
class Inequality:
    """A mined pairwise relation, stored with i < h."""

    kind: InequalityKind
    i: int
    h: int


# The eliminations (h, a, b, i) of a reducing verdict, or a mined relation.
Conclusion = tuple[tuple[int, int, int, int], ...] | Inequality


@dataclass(frozen=True)
class RuleVerdict:
    rule_id: str
    edge: tuple[int, int]
    conclusion: Conclusion
    unique: bool


# --- slacks and single-variable rules -------------------------------------


def slacks(state: ReductionState, v: int) -> tuple[int, int]:
    """Variable v's slacks (u_v, w_v) = (c_v + D_v^+, -(c_v + D_v^-)).

    v's contribution V(x_v) = c_v + sum_j d_vj x_j when x_v = 1 lies between
    c_v + D_v^- = -w_v and c_v + D_v^+ = u_v, so x_v = 0 is optimal when
    u_v <= 0 and x_v = 1 when w_v <= 0.  Every pair rule compares an edge
    weight with these slacks (see :data:`PAIR_RULES`).
    """
    c = state.c[v]
    return c + state.d_plus[v], -(c + state.d_minus[v])


def rule_fix_one(state: ReductionState, i: int) -> RuleVerdict | None:
    """Fix x_i = 1 when even the worst neighbour assignment keeps V(x_i) >= 0."""
    v = state.c[i] + state.d_minus[i]
    if v >= 0:
        return RuleVerdict(R1_0, (i, i), ((i, 1, 0, i),), v > 0)
    return None


def rule_fix_zero(state: ReductionState, i: int) -> RuleVerdict | None:
    """Fix x_i = 0 when even the best neighbour assignment keeps V(x_i) <= 0."""
    v = state.c[i] + state.d_plus[i]
    if v <= 0:
        return RuleVerdict(R2_0, (i, i), ((i, 0, 0, i),), v < 0)
    return None


# --- the pair-rule table -----------------------------------------------------


@dataclass(frozen=True)
class PairRule:
    """One pair rule, for the edges (i, h) of one sign.

    It fires when |d| >= threshold(u_i, w_i, u_h, w_h), d being the edge's
    weight and u, w the endpoints' :func:`slacks`.  Its verdict is unique
    when |d| > threshold, and max(threshold, 0) bounds the penalty weight
    that enforces its conclusion.  A threshold that takes the larger or
    smaller of two values takes ``max`` and ``min`` as parameters, which
    default to the builtins; evaluated on arrays, it is given numpy's.
    """

    rule_id: str
    sign: int  # +1 for positive edges, -1 for negative ones
    threshold: Callable[..., int]
    conclude: Callable[[int, int], Conclusion]
    # An inequality rule reads one endpoint's slack, "i" or "h", so its
    # condition is loosest at that endpoint's extreme edge of the sign.  The
    # rules that reduce the instance have None.
    endpoint: str | None = None

    def judge(self, size: int, i: int, h: int,
              ui: int, wi: int, uh: int, wh: int) -> RuleVerdict | None:
        """The verdict on (i, h) when |d| = size, or None if the rule does not fire."""
        t = self.threshold(ui, wi, uh, wh)
        if size >= t:
            return RuleVerdict(self.rule_id, (i, h), self.conclude(i, h), size > t)
        return None

    def probe(self, state: ReductionState, i: int, h: int) -> RuleVerdict | None:
        """The verdict on the state's edge (i, h), or None if the rule does not fire.

        An absent edge or one of the other sign fires no rule of this row.
        """
        d = state.adj[i].get(h)
        if d is None or d * self.sign <= 0:
            return None
        ui, wi = slacks(state, i)
        uh, wh = slacks(state, h)
        return self.judge(abs(d), i, h, ui, wi, uh, wh)

    def bound(self, ui: int, wi: int, uh: int, wh: int) -> int:
        """Lower bound on the penalty weight M: max(threshold, 0)."""
        return max(self.threshold(ui, wi, uh, wh), 0)


def _relation(kind: InequalityKind) -> Callable[[int, int], Inequality]:
    return lambda i, h: Inequality(kind, i, h)


# The pair-assignment and substitution rules come first for each sign, in
# the order the catalog tries them; the inequality rules follow.
PAIR_RULES = (
    PairRule(R3_1, +1, lambda ui, wi, uh, wh: ui + uh, lambda i, h: ((i, 0, 0, i), (h, 0, 0, h))),
    PairRule(R3_4, +1, lambda ui, wi, uh, wh: wi + wh, lambda i, h: ((i, 1, 0, i), (h, 1, 0, h))),
    PairRule(R2_6, +1, lambda ui, wi, uh, wh, max=max, min=min: max(min(ui, wh), min(wi, uh)),
             lambda i, h: ((h, 0, 1, i),)),
    PairRule(R1_1, +1, lambda ui, wi, uh, wh: wi, _relation(InequalityKind.H_LE_I), "i"),
    PairRule(R1_1p, +1, lambda ui, wi, uh, wh: wh, _relation(InequalityKind.I_LE_H), "h"),
    PairRule(R2_2, +1, lambda ui, wi, uh, wh: ui, _relation(InequalityKind.I_LE_H), "i"),
    PairRule(R2_2p, +1, lambda ui, wi, uh, wh: uh, _relation(InequalityKind.H_LE_I), "h"),
    PairRule(R3_2, -1, lambda ui, wi, uh, wh: wi + uh, lambda i, h: ((i, 1, 0, i), (h, 0, 0, h))),
    PairRule(R3_3, -1, lambda ui, wi, uh, wh: ui + wh, lambda i, h: ((h, 1, 0, h), (i, 0, 0, i))),
    PairRule(R2_5, -1, lambda ui, wi, uh, wh, max=max, min=min: max(min(wi, wh), min(ui, uh)),
             lambda i, h: ((h, 1, -1, i),)),
    PairRule(R2_1, -1, lambda ui, wi, uh, wh: ui, _relation(InequalityKind.AT_MOST_ONE), "i"),
    PairRule(R2_1p, -1, lambda ui, wi, uh, wh: uh, _relation(InequalityKind.AT_MOST_ONE), "h"),
    PairRule(R1_2, -1, lambda ui, wi, uh, wh: wi, _relation(InequalityKind.AT_LEAST_ONE), "i"),
    PairRule(R1_2p, -1, lambda ui, wi, uh, wh: wh, _relation(InequalityKind.AT_LEAST_ONE), "h"),
)

PAIR_RULES_BY_ID = {rule.rule_id: rule for rule in PAIR_RULES}

# Keyed by d > 0, in table order: the rules that reduce an edge of that sign;
# among them the pair assignments (two eliminations), which the scan passes
# try, and the substitution (one), which the residual sweep and the
# fixed-point check try.  MINING holds the inequality rules, in table order.
_REDUCING = {pos: tuple(r for r in PAIR_RULES if (r.sign > 0) == pos and r.endpoint is None)
             for pos in (True, False)}
PAIR_ASSIGNMENTS = {pos: tuple(r for r in rows if len(r.conclude(1, 2)) == 2)
                    for pos, rows in _REDUCING.items()}
SUBSTITUTION = {pos: next(r for r in rows if len(r.conclude(1, 2)) == 1)
                for pos, rows in _REDUCING.items()}
MINING = tuple(r for r in PAIR_RULES if r.endpoint)


# --- the slack screen ------------------------------------------------------


def pair_may_fire(state: ReductionState, i: int, h: int) -> bool:
    """Necessary condition for any pair rule to fire on the edge (i, h).

    The residual sweep screens its edges with it; a scan pass tests the
    sharper bound of its pair assignments (see
    :meth:`~quboreduce.engine._Reducer.run_pass`).

    The screen passes when |d| reaches any of the four slacks u_i, w_i,
    u_h, w_h, that is when |d| >= min(u_i, w_i, u_h, w_h).  If one slack
    is <= 0 it passes trivially; that endpoint then fixes (R2_0 fires when
    u_v <= 0, R1_0 when w_v <= 0).  Otherwise all four slacks are positive,
    and every threshold in :data:`PAIR_RULES` is at least the smallest of
    them: a single slack is one of them, a sum of two positive slacks
    exceeds each, and a max of mins of slacks is at least one of those
    mins.  So an edge the screen rejects has |d| below every threshold: it
    fires no pair rule and yields no inequality.
    """
    d = abs(state.adj[i][h])
    c, dm, dp = state.c, state.d_minus, state.d_plus
    # The four slacks are spelled out here: a sweep screens every edge it walks.
    return (d >= c[i] + dp[i] or d >= -(c[i] + dm[i])
            or d >= c[h] + dp[h] or d >= -(c[h] + dm[h]))


# --- the pair rules ----------------------------------------------------------


def derive_pair_inequalities(state: ReductionState, i: int, h: int) -> list[RuleVerdict]:
    """All inequality verdicts for an adjacent pair.

    The caller guarantees both variables are free and that neither is fixed
    by the single-variable rules.  Results are canonicalized to i < h; a
    positive edge can only yield directional verdicts, a negative edge only
    the at-most-one / at-least-one kinds.
    """
    a, b = canonical_pair(i, h)
    return [v for rule in MINING if (v := rule.probe(state, a, b))]


# --- penalty weights -------------------------------------------------------


def m_lower_bound(state: ReductionState, verdict: RuleVerdict) -> int:
    """Lower bound on the penalty weight M for a mined or pair verdict.

    Any M strictly above the bound makes the corresponding penalty rewrite
    force the verdict's relation onto the optima.  The verdict must fire on
    the state; fix verdicts take no M.
    """
    rule = PAIR_RULES_BY_ID.get(verdict.rule_id)
    if rule is None:
        raise ValueError(f"{verdict.rule_id} verdicts have no penalty form")
    i, h = verdict.edge
    return rule.bound(*slacks(state, i), *slacks(state, h))


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
    q, slack = instance.quadratic, []
    for v in (i, h):  # the slacks of :func:`slacks`, from v's incident edges
        row, c = q.d[(q.lo == v) | (q.hi == v)].tolist(), instance.linear.get(v, 0)
        slack += [c + sum(x for x in row if x > 0), -(c + sum(x for x in row if x < 0))]
    relation = Inequality(kind, i, h)
    bound = min(r.bound(*slack) for r in PAIR_RULES if r.conclude(i, h) == relation)
    if M <= bound:
        raise ValueError(f"penalty weight {M} does not exceed the bound {bound}")
    linear = dict(instance.linear)
    quadratic = dict(instance.quadratic.items())
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
    return QuboInstance.without_zeros(instance.n, linear, quadratic, offset)
