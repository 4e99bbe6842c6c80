"""Build a tiny QUBO, solve it exactly, then shrink it and check the answer.

Walks the whole pipeline on a three-variable problem small enough to follow
by hand:

    maximize  x1 + x2 + 2 x3 - 2 x1 x2 + x2 x3
"""

from quboreduce import (
    build_from_triplets, brute_force_solve, check_equivalence, evaluate,
    reconstruct_solution, run_to_fixed_point,
)

instance = build_from_triplets(3, [
    (1, 1, 1),   # c_1 = 1
    (2, 2, 1),   # c_2 = 1
    (3, 3, 2),   # c_3 = 2
    (1, 2, -2),  # the antagonistic pair
    (2, 3, 1),
])

print("instance:", instance)

# Exact answer by enumeration first.
result = brute_force_solve(instance)
print(f"enumeration: optimum {result.optimum}, optima {result.optima}")

# Now let the reducer do its thing.  This instance collapses completely:
# a pair-assignment rule resolves x1/x2 at its boundary, after which the
# updated weight of x3 fixes it too.
reduced, log, solution_map = run_to_fixed_point(instance)
print(f"reduced to {reduced.n} variables, constant {reduced.offset}")
# Each event's conclusion lists the eliminations it made, (h, a, b, i) for
# x_h := a + b*x_i; a fix has b = 0.
for event in log.events:
    print(f"  pass {event.pass_number}: {event.verdict.rule_id} -> {event.verdict.conclusion}")

# Nothing is left to solve, so reconstruction needs no survivor values.
full = reconstruct_solution(solution_map, {})
print("reconstructed assignment:", full)
print("objective of reconstruction:", evaluate(instance, full))

# And the oracle agrees that the reduction was lossless.
report = check_equivalence(instance, reduced, solution_map)
print("equivalence check:", "OK" if report.ok else report.message)
