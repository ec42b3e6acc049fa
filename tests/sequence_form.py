"""The sequence-form LP of a game tree, solved by the dense simplex.

``optimizer.backward_induction`` answers this program in closed form,
for every lower bound on the plan entries; the program itself, built as
a dense matrix and solved by ``simplex.minimize``, is kept here as the
oracle it must agree with.
"""

from dataclasses import dataclass

import numpy as np

from cider import optimizer as opt
from cider import simplex


def realization_constraints(tree):
    """Flow-conservation system R mu = r over the optimizer sequences:
    the empty sequence has weight 1, and row 1 + h says the two moves of
    information set h add up to its incoming sequence."""
    h = np.arange(len(tree.infosets))
    R = np.zeros((1 + h.size, len(tree.sequences)))
    r = np.zeros(1 + h.size)
    R[0, 0] = r[0] = 1.0
    R[1 + h, tree.infosets] = -1.0
    R[1 + h, 1 + 2 * h] = 1.0
    R[1 + h, 2 + 2 * h] = 1.0
    return R, r


@dataclass(frozen=True)
class LinearProgram:
    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray
    lower_bounds: np.ndarray


def assemble_lp(tree, epsilon=0.0):
    a = opt.reduced_objective(tree)
    R, r = realization_constraints(tree)
    return LinearProgram(
        objective=a,
        constraints=R,
        rhs=r,
        lower_bounds=np.full(len(tree.sequences), float(epsilon)),
    )


def solve_lp(lp):
    """Optimal realization plan via the shifted standard-form simplex;
    raises simplex.Infeasible when no plan meets the lower bounds."""
    lb = lp.lower_bounds
    shifted_rhs = lp.rhs - lp.constraints @ lb
    x, value = simplex.minimize(lp.objective, lp.constraints, shifted_rhs)
    entries = x + lb
    return opt.RealizationPlan(entries=entries), value + float(lp.objective @ lb)
