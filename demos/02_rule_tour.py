"""A guided tour of the rule catalog on two-variable problems.

Every rule compares exact coefficient bounds: the value a variable can
contribute lies between c_i + D_i^- (all hostile neighbours on) and
c_i + D_i^+ (all friendly neighbours on).  Whenever such a bound crosses
zero, a variable or a pair of variables can be resolved without losing any
optimal solution.  Each pair rule is one row of the table ``PAIR_RULES``;
a row's ``probe`` fires it on one edge of a state.  A verdict that reduces
the problem concludes the eliminations it makes, each x_h := a + b·x_i.
"""

from quboreduce import brute_force_solve, build_from_triplets, init_state
from quboreduce.rules import (
    PAIR_RULES_BY_ID as ROW, derive_pair_inequalities, m_lower_bound,
    rule_fix_one, rule_fix_zero,
)


def elimination(h, a, b, i):
    """One elimination (h, a, b, i) as x_h := a + b·x_i, or x_h := a for a fix."""
    if not b:
        return f"x{h} := {a}"
    return f"x{h} := {a} {'+' if b > 0 else '-'} x{i}"


def show(title, instance, *verdicts):
    result = brute_force_solve(instance)
    print(f"\n{title}")
    print(f"  instance {instance.linear} {instance.quadratic}")
    print(f"  optima {result.optima} at {result.optimum}")
    for v in verdicts:
        if v is None:
            print("  (rule is silent)")
        else:
            tag = "all optima" if v.unique else "some optimum"
            print(f"  {v.rule_id}: {', '.join(elimination(*e) for e in v.conclusion)} [{tag}]")


def pair(c1, c2, d):
    return build_from_triplets(2, [(1, 1, c1), (2, 2, c2), (1, 2, d)])


# Single-variable fixing: a positive weight with no hostile edges.
inst = build_from_triplets(2, [(1, 1, 5), (1, 2, 3)])
show("fix to one", inst, rule_fix_one(init_state(inst), 1))

inst = build_from_triplets(2, [(1, 1, -5), (1, 2, -3)])
show("fix to zero", inst, rule_fix_zero(init_state(inst), 1))

# An antagonistic pair: large negative coupling with small positive weights.
# Both directions of the pairwise inequality hold, so the pair collapses to
# a single variable via x2 = 1 - x1.
inst = pair(1, 1, -2)
st = init_state(inst)
show("complement substitution", inst, ROW["R2_5"].probe(st, 1, 2))
for v in derive_pair_inequalities(st, 1, 2):
    print(f"    mined {v.rule_id}: {v.conclusion.kind.value}"
          f"  (penalty weight must exceed {m_lower_bound(st, v)})")

# An aligned pair: positive coupling, mildly negative weights.
inst = pair(-1, -1, 2)
show("equality substitution", inst, ROW["R2_6"].probe(init_state(inst), 1, 2))

# Pair assignments decide two variables at once.
inst = pair(-2, -2, 3)
show("pair to (0, 0)", inst, ROW["R3_1"].probe(init_state(inst), 1, 2))

inst = pair(-1, -1, 3)
show("pair to (1, 1)", inst, ROW["R3_4"].probe(init_state(inst), 1, 2))

inst = pair(2, 1, -3)
show("pair to (1, 0)", inst,
     ROW["R3_2"].probe(init_state(inst), 1, 2),
     ROW["R3_2"].probe(init_state(inst), 2, 1))
