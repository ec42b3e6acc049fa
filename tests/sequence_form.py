"""The sequence form of a game tree, built node by node, and its LP.

``optimizer.optimal_mixed_strategy`` answers the tree's sequence-form
program in closed form over the world table, for every lower bound on
the plan entries.  The recursive tree of node and information-set
objects, the realization plans and the program itself, built as a dense
matrix and solved by ``simplex.minimize``, are kept here as the oracle
it must agree with.
"""

from dataclasses import dataclass

import numpy as np

from cider import diagram as dg
from cider import optimizer as opt
from cider import simplex


@dataclass(frozen=True)
class Infoset:
    """A singleton information set: one tree node owned by the optimizer."""

    id: int
    variable: str
    history: str  # values of the variables expanded earlier, as a row key
    seq_in: int
    seq_false: int
    seq_true: int


@dataclass(frozen=True)
class Leaf:
    world: dict
    cost: float
    chance_weight: float
    seq1: int  # index into the tree's sequences


@dataclass(frozen=True)
class ChanceNode:
    variable: str
    p_true: float
    children: tuple  # (value-false child, value-true child)


@dataclass(frozen=True)
class DecisionNode:
    variable: str
    infoset: int
    children: tuple


@dataclass(frozen=True)
class RefTree:
    order: tuple
    root: object
    leaves: tuple
    sequences: tuple
    infosets: tuple  # in preorder, so every incoming sequence comes first


def ref_build_game_tree(diagram):
    """One node object per tree node, expanded depth first."""
    order = opt.expansion_order(diagram)
    sequences = [()]
    seq_index = {(): 0}
    infosets = []
    leaves = []

    def expand(depth, world, weight, seq1):
        if depth == len(order):
            leaf = Leaf(
                world=dict(world),
                cost=dg.cost_of_valuation(diagram, world),
                chance_weight=weight,
                seq1=seq_index[seq1],
            )
            leaves.append(leaf)
            return leaf
        v = order[depth]
        if diagram.kinds[v] == dg.CHANCE:
            p = diagram.cpt[v][dg.rowkey(world, diagram.parents.get(v, ()))]
            children = []
            for value, branch_p in ((False, 1.0 - p), (True, p)):
                world[v] = value
                children.append(expand(depth + 1, world, weight * branch_p, seq1))
                del world[v]
            return ChanceNode(variable=v, p_true=p, children=tuple(children))
        h = len(infosets)
        extensions = []
        for value in (False, True):
            move_seq = seq1 + ((h, value),)
            seq_index[move_seq] = len(sequences)
            sequences.append(move_seq)
            extensions.append(move_seq)
        infosets.append(
            Infoset(
                id=h,
                variable=v,
                history=dg.rowkey(world, order[:depth]),
                seq_in=seq_index[seq1],
                seq_false=seq_index[extensions[0]],
                seq_true=seq_index[extensions[1]],
            )
        )
        children = []
        for value, move_seq in zip((False, True), extensions):
            world[v] = value
            children.append(expand(depth + 1, world, weight, move_seq))
            del world[v]
        return DecisionNode(variable=v, infoset=h, children=tuple(children))

    root = expand(0, {}, 1.0, ())
    return RefTree(
        order=order,
        root=root,
        leaves=tuple(leaves),
        sequences=tuple(sequences),
        infosets=tuple(infosets),
    )


@dataclass(frozen=True)
class RealizationPlan:
    """Nonnegative sequence weights; the root entry is 1 and every
    information set's extensions sum to its incoming entry."""

    entries: np.ndarray


def reduced_objective(tree):
    """Per-sequence cost with the chance plan folded in, added in leaf
    order: the plan value a.mu is then the expected cost."""
    a = np.zeros(len(tree.sequences))
    for leaf in tree.leaves:
        a[leaf.seq1] += leaf.cost * leaf.chance_weight
    return a


def pure_plan(tree, strategy):
    """Realization plan induced by a (pure or mixed) global strategy, each
    information set reading its decision's row at its history."""
    entries = np.zeros(len(tree.sequences))
    entries[0] = 1.0
    for h in tree.infosets:
        local = strategy.locals[h.variable]
        world = {v: bit == "1" for v, bit in zip(tree.order, h.history)}
        p = local.table[dg.rowkey(world, local.scope)]
        entries[h.seq_true] = entries[h.seq_in] * p
        entries[h.seq_false] = entries[h.seq_in] * (1.0 - p)
    return RealizationPlan(entries=entries)


def plan_to_strategy(tree, plan):
    """Behaviour strategy: per node, the true move's share of the node's
    incoming weight, conditioned on the node's history.  Nodes the plan
    never reaches get the uniform row."""
    tables = {}
    for h in tree.infosets:
        incoming = plan.entries[h.seq_in]
        p = plan.entries[h.seq_true] / incoming if incoming > 0.0 else 0.5
        tables.setdefault(h.variable, {})[h.history] = float(p)
    return dg.GlobalStrategy(
        locals={
            v: dg.LocalStrategy(v, tree.order[: tree.order.index(v)], table)
            for v, table in tables.items()
        }
    )


def realization_constraints(tree):
    """Flow-conservation system R mu = r over the optimizer sequences:
    the empty sequence has weight 1, and row 1 + h says the two moves of
    information set h add up to its incoming sequence."""
    R = np.zeros((1 + len(tree.infosets), len(tree.sequences)))
    r = np.zeros(1 + len(tree.infosets))
    R[0, 0] = 1.0
    r[0] = 1.0
    for h in tree.infosets:
        R[1 + h.id, h.seq_in] -= 1.0
        R[1 + h.id, h.seq_false] += 1.0
        R[1 + h.id, h.seq_true] += 1.0
    return R, r


@dataclass(frozen=True)
class LinearProgram:
    objective: np.ndarray
    constraints: np.ndarray
    rhs: np.ndarray
    lower_bounds: np.ndarray


def assemble_lp(tree, epsilon=0.0):
    R, r = realization_constraints(tree)
    return LinearProgram(
        objective=reduced_objective(tree),
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
    return RealizationPlan(entries=entries), value + float(lp.objective @ lb)
