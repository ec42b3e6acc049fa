"""Sequence forms, built object by object, and their LP.

``optimizer.optimal_mixed_strategy`` answers the sequence-form program
keyed by the KB's own strategy scopes in closed form over the world
table, for every lower bound on the plan entries.  That form, assembled
row by row (``ref_kb_sequence_form``), the realization plans and the
program itself, built as a dense matrix and solved by
``simplex.minimize``, are kept here as the oracle it must agree with.
The recursive game tree of node and information-set objects
(``ref_build_game_tree``) is the reference for the drawn tree, and its
sequence form feeds the same program.
"""

from dataclasses import dataclass

import numpy as np

from cider import diagram as dg
from cider import optimizer as opt
from cider import simplex


@dataclass(frozen=True)
class Infoset:
    """One information set of the optimizer: a tree node, or a decision's
    scope row."""

    id: int
    variable: str
    scope: tuple  # the variables the decision sees here
    history: str  # their values, as a row key
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
                scope=order[:depth],
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
class KBSequenceForm:
    leaves: tuple  # one per world, in binary counting order
    sequences: tuple
    infosets: tuple  # earliest decision first, so every incoming sequence comes first


def ref_kb_sequence_form(diagram):
    """The sequence form keyed by the KB's strategy scopes, row by row.

    Each decision has one information set per row of its scope, with one
    sequence per move.  The parent sequence of (d, row) is the move, in
    that row, of the last earlier decision: the one in d's scope whose
    own scope is largest.  A leaf per world carries its chance weight,
    multiplied in declared order, and the sequence of the last decision.
    This is the sequence form of the KB's strategies under perfect
    recall, where each decision and its scope lie inside the scope of
    every later one; other diagrams raise ValueError.
    """
    scopes = diagram.scopes
    order = sorted(scopes, key=lambda d: len(scopes[d]))
    for e, d in zip(order, order[1:]):
        if not set(scopes[e]) | {e} <= set(scopes[d]):
            raise ValueError(f"decisions {e} and {d} do not nest")
    sequences = [()]
    seq_index = {(): 0}
    infosets = []

    def last_move(world, seen):
        earlier = [e for e in order if e in seen]
        if not earlier:
            return 0
        e = earlier[-1]
        return seq_index[(e, dg.rowkey(world, scopes[e]), world[e])]

    for d in order:
        for key in dg.row_keys(len(scopes[d])):
            world = dg.world_from_bits(key, scopes[d])
            seq_in = last_move(world, scopes[d])
            for value in (False, True):
                seq_index[(d, key, value)] = len(sequences)
                sequences.append((d, key, value))
            infosets.append(
                Infoset(
                    id=len(infosets),
                    variable=d,
                    scope=scopes[d],
                    history=key,
                    seq_in=seq_in,
                    seq_false=seq_index[(d, key, False)],
                    seq_true=seq_index[(d, key, True)],
                )
            )
    leaves = []
    for key in dg.row_keys(len(diagram.variables)):
        world = dg.world_from_bits(key, diagram.variables)
        weight = 1.0
        for v in diagram.chance_nodes:
            p = diagram.cpt[v][dg.rowkey(world, diagram.parents.get(v, ()))]
            weight *= p if world[v] else 1.0 - p
        leaves.append(
            Leaf(
                world=world,
                cost=dg.cost_of_valuation(diagram, world),
                chance_weight=weight,
                seq1=last_move(world, diagram.variables),
            )
        )
    return KBSequenceForm(
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
        world = dg.world_from_bits(h.history, h.scope)
        p = local.table[dg.rowkey(world, local.scope)]
        entries[h.seq_true] = entries[h.seq_in] * p
        entries[h.seq_false] = entries[h.seq_in] * (1.0 - p)
    return RealizationPlan(entries=entries)


def plan_to_strategy(tree, plan):
    """Behaviour strategy: per node, the true move's share of the node's
    incoming weight, conditioned on the node's history.  Nodes the plan
    never reaches get the uniform row."""
    tables, scopes = {}, {}
    for h in tree.infosets:
        incoming = plan.entries[h.seq_in]
        p = plan.entries[h.seq_true] / incoming if incoming > 0.0 else 0.5
        tables.setdefault(h.variable, {})[h.history] = float(p)
        scopes[h.variable] = h.scope
    return dg.GlobalStrategy(
        locals={v: dg.LocalStrategy(v, scopes[v], table) for v, table in tables.items()}
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
