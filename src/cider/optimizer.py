"""Strategy optimization: the best pure strategy and the game-tree optimum.

The best pure strategy for expected cost is solved row-wise by backward
induction (Shachter 1986; Jensen, Jensen and Dittmer 1994) over the
chain of decisions whose scopes nest: each one and its scope lie inside
the scope of every larger one.  Only the strategies of the other
decisions, the rest, are enumerated; under perfect recall the rest is
empty.  The evidence objectives do not split over rows, so they
enumerate every pure strategy.  Pure strategies number doubly
exponentially, so a cap guards every enumeration.

Arbitrary strategies go through a game-tree detour: the diagram is
expanded into a tree played against an indifferent chance player, and
behaviour strategies are linearized into realization plans.  The
optimal plan minimizes  a.mu  s.t.  R mu = r, mu >= E, the sequence
form of Koller, Megiddo and von Stengel; E > 0 is the fully-mixed
perturbation.  Because the optimizer has perfect information in the
tree, backward induction solves that program exactly for every E, one
minimum or chance-weighted sum per level; exact ties take the false
move.

The tree is held as columns, not node objects.  Its leaves are the
world table of the diagram redeclared in expansion order, with one
column each for the cost, the chance weight and the last optimizer
sequence on the path.  Information sets, numbered in preorder, are one
column of incoming sequences; set h has the move sequences
1 + 2h + value.

The tree gives the optimizing player perfect information: every node it
owns is its own singleton information set, so its choices may condition
on all chance values resolved earlier in the expansion order, which can
be strictly more than a local strategy's conditioning scope.
"""

import dataclasses
import itertools
from dataclasses import dataclass

import numpy as np

from . import diagram as dg
from .contextual import entailment_column
from .diagram import (
    CHANCE,
    GlobalStrategy,
    LocalStrategy,
    expected_cost,
    strategy_scope,
)
from .evidence import greedy_bound

__all__ = [
    "EnumerationCapError",
    "InfeasibleEpsilonError",
    "PureStrategy",
    "GameTree",
    "Leaves",
    "RealizationPlan",
    "OptimizationResult",
    "enumerate_pure_strategies",
    "split_decisions",
    "optimal_pure_strategy",
    "decide_threshold",
    "expansion_order",
    "build_game_tree",
    "reduced_objective",
    "backward_induction",
    "plan_to_strategy",
    "optimal_mixed_strategy",
    "export_game_tree_dot",
]

DEFAULT_CAP = 2**20
PURE_TOL = 1e-9


class EnumerationCapError(RuntimeError):
    """Too many pure strategies to enumerate."""


class InfeasibleEpsilonError(ValueError):
    """The fully-mixed lower bound leaves no feasible realization plan."""


@dataclass(frozen=True)
class PureStrategy:
    """Boolean choice per conditioning row, for each decision node."""

    choices: dict  # decision -> {rowkey over scope: bool}
    scopes: dict  # decision -> conditioning variables, declared order

    def to_strategy(self):
        return GlobalStrategy(
            locals={
                d: LocalStrategy(
                    decision=d,
                    scope=self.scopes[d],
                    table={k: 1.0 if b else 0.0 for k, b in rows.items()},
                )
                for d, rows in self.choices.items()
            }
        )


def _format_count(log2):
    return str(1 << log2) if log2 <= 62 else f"2^{log2}"


def enumerate_pure_strategies(
    diagram, forgetful=False, cap=DEFAULT_CAP, decisions=None
):
    """All pure strategies of some decisions (by default every one),
    lexicographic over rows, false before true."""
    decisions = diagram.decision_nodes if decisions is None else tuple(decisions)
    scopes = {d: strategy_scope(diagram, d, forgetful=forgetful) for d in decisions}
    log2 = sum(2 ** len(scope) for scope in scopes.values())
    if log2 > 62 or (1 << log2) > cap:
        raise EnumerationCapError(
            f"{_format_count(log2)} pure strategies exceed the cap {cap}"
        )
    keys = {d: dg._all_rowkeys(len(scopes[d])) for d in decisions}
    per_decision = [
        itertools.product((False, True), repeat=len(keys[d])) for d in decisions
    ]
    for combo in itertools.product(*per_decision):
        yield PureStrategy(
            choices={
                d: dict(zip(keys[d], values)) for d, values in zip(decisions, combo)
            },
            scopes=scopes,
        )


def split_decisions(diagram, forgetful=False):
    """The decisions whose scopes nest (the chain) and the rest.

    Walking from the largest strategy scope to the smallest, ties in
    declared order, a decision joins the chain when it and its scope lie
    inside the scope of every decision already there.  The chain comes
    largest scope first, the rest in declared order.  Perfect recall is
    an empty rest.
    """
    scopes = {
        d: set(strategy_scope(diagram, d, forgetful=forgetful))
        for d in diagram.decision_nodes
    }
    chain = []
    for d in sorted(scopes, key=lambda d: -len(scopes[d])):
        if all(scopes[d] | {d} <= scopes[e] for e in chain):
            chain.append(d)
    return tuple(chain), tuple(d for d in scopes if d not in chain)


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    strategy: GlobalStrategy
    kind: str  # "pure" | "mixed"
    certificate: object  # PureStrategy or RealizationPlan
    epsilon: float = 0.0


def optimal_pure_strategy(
    kb,
    objective="expected",
    evidence=None,
    direction="min",
    forgetful=False,
    cap=DEFAULT_CAP,
):
    """Best pure strategy.

    objective "expected" scores plain expected cost, and is solved
    row-wise: only the strategies of the decisions outside the chain of
    nested scopes are enumerated (see ``_row_wise_optimum``).  Results
    differ from full enumeration only on ties, within rounding.
    "dominant-optimistic" and "dominant-pessimistic" score the
    corresponding conditional bound given the evidence inclusion; that
    bound does not split over rows, so every pure strategy is
    enumerated, ties kept in enumeration order.  The world table and
    the evidence entailment do not depend on the strategy and are built
    once.  cap bounds the number of strategies enumerated.
    """
    if objective not in ("expected", "dominant-optimistic", "dominant-pessimistic"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective != "expected" and evidence is None:
        raise ValueError(f"objective {objective!r} needs an evidence query")
    if direction not in ("min", "max"):
        raise ValueError(f"unknown direction {direction!r}")
    sign = 1.0 if direction == "min" else -1.0
    table = dg.WorldTable(kb.diagram)
    if objective == "expected":
        pure = _row_wise_optimum(table, sign, forgetful, cap)
        strategy = pure.to_strategy()
        return OptimizationResult(
            value=expected_cost(table, strategy),
            strategy=strategy,
            kind="pure",
            certificate=pure,
        )
    forced = entailment_column(kb, table, evidence.lhs, evidence.rhs)
    bound_sign = +1 if objective == "dominant-optimistic" else -1
    best = None
    for pure in enumerate_pure_strategies(kb.diagram, forgetful=forgetful, cap=cap):
        strategy = pure.to_strategy()
        value = greedy_bound(table, forced, table.joint(strategy), bound_sign).value
        if best is None or sign * value < sign * best[0]:
            best = (value, strategy, pure)
    value, strategy, pure = best
    return OptimizationResult(
        value=value, strategy=strategy, kind="pure", certificate=pure
    )


def _row_wise_optimum(table, sign, forgetful, cap):
    """Pure strategy minimizing  sign * expected cost, by backward
    induction over the chain of nested scopes for each pure strategy of
    the rest (``split_decisions``).

    For a fixed rest, w starts as the chance column times the rest's
    0/1 indicators.  Each chain decision, largest scope first, sums
    w * sign * cost per (scope row, value) and takes true only where
    that sum is strictly smaller, then multiplies its indicator into w.
    A smaller chain decision and its scope lie inside every larger one's
    scope, so its factor is constant on each of their rows and cannot
    change their choice.  Rows that w never reaches are set to false,
    as enumeration leaves them.  Of the rest's strategies, enumerated
    in order, the first with the strictly smallest total of
    w * sign * cost, summed in world order, wins.
    """
    diagram = table.diagram
    chain, rest = split_decisions(diagram, forgetful=forgetful)
    scopes = {
        d: strategy_scope(diagram, d, forgetful=forgetful)
        for d in diagram.decision_nodes
    }
    rows = {d: table.code(scopes[d]) for d in scopes}
    slots = {d: 2 * rows[d] + table.column(d) for d in chain}
    chance = np.ones(table.size)
    for v, by_value in table.chance_rows.items():
        chance *= by_value[2 * table.code(diagram.parents.get(v, ())) + table.column(v)]
    signed_cost = sign * table.cost
    best = None
    for fixed in enumerate_pure_strategies(
        diagram, forgetful=forgetful, cap=cap, decisions=rest
    ):
        w = chance
        for d in rest:
            take = np.array(list(fixed.choices[d].values()), dtype=bool)
            w = w * (take[rows[d]] == table.column(d))
        takes = {}
        for d in chain:
            q = np.bincount(
                slots[d], weights=w * signed_cost, minlength=2 << len(scopes[d])
            )
            takes[d] = q[1::2] < q[0::2]
            w = w * (takes[d][rows[d]] == table.column(d))
        for d in chain:
            reach = np.bincount(rows[d], weights=w, minlength=1 << len(scopes[d]))
            takes[d] &= reach > 0.0
        total = np.add.accumulate(w * signed_cost)[-1]
        if best is None or total < best[0]:
            best = (total, fixed, takes)
    _, fixed, takes = best
    choices = {
        d: fixed.choices[d]
        if d in fixed.choices
        else dict(zip(dg._all_rowkeys(len(scopes[d])), takes[d].tolist()))
        for d in scopes
    }
    return PureStrategy(choices=choices, scopes=scopes)


def decide_threshold(result, bound, problem):
    """Threshold comparisons are strict in both directions."""
    if problem in ("d-opt", "d-dom-opt", "d-dom-pes"):
        return result.value < bound
    if problem == "d-pes":
        return result.value > bound
    raise ValueError(f"unknown problem {problem!r}")


# --- game tree -------------------------------------------------------------


@dataclass(frozen=True)
class Leaves:
    """Columns over the leaves, which are the worlds of the tree's table."""

    cost: np.ndarray
    chance_weight: np.ndarray  # product of the chance factors on the path
    seq1: np.ndarray  # the path's last optimizer sequence, 0 if it has none

    def __len__(self):
        return len(self.cost)


@dataclass(frozen=True)
class GameTree:
    """The tree level by level over the world table of the diagram
    redeclared in expansion order, so world i is leaf i.  Level d holds
    the 2^d valuations of the first d variables in binary counting
    order: node x of level d has the children 2x and 2x + 1 on level
    d + 1, and its leftmost leaf is x << (n - d)."""

    table: dg.WorldTable
    p_true: tuple  # per level: P(order[d] true) at each node, None for decisions
    ids: tuple  # per level: preorder id of each node's information set, None for chance
    leaves: Leaves
    sequences: range  # sequence 0 is empty; information set h has 1 + 2h and 2 + 2h
    infosets: np.ndarray  # the incoming sequence of each information set

    @property
    def order(self):
        return self.table.diagram.variables


def expansion_order(diagram):
    """Topological order of the DAG, ties broken by declaration order."""
    placed = []
    placed_set = set()
    while len(placed) < len(diagram.variables):
        for v in diagram.variables:
            if v not in placed_set and all(
                p in placed_set for p in diagram.parents.get(v, ())
            ):
                placed.append(v)
                placed_set.add(v)
                break
        else:
            raise ValueError("parent graph has a cycle")
    return tuple(placed)


def _preorder_ids(depth, decision_levels):
    """Preorder number of each decision node on level `depth`.

    Node x comes after its ancestors, and after the nodes of every
    decision level whose subtrees lie wholly to its left.
    """
    x = np.arange(1 << depth)
    ids = np.zeros_like(x)
    for e in decision_levels:
        ids += (x >> (depth - e)) + 1 if e < depth else x << (e - depth)
    return ids


def build_game_tree(diagram):
    """Expand the diagram into a perfect-information tree against chance.

    Each leaf's chance weight is the product of its chance factors,
    multiplied in expansion order as a walk down the tree multiplies.
    Every decision node is its own information set h, and the
    optimizer's move to `value` there is sequence 1 + 2h + value.
    """
    dg.check_world_count(diagram)  # before ordering a document of any size
    order = expansion_order(diagram)
    table = dg.WorldTable(dataclasses.replace(diagram, variables=order))
    n = len(order)
    decision_levels = [d for d, v in enumerate(order) if diagram.kinds[v] != CHANCE]
    weight = np.ones(table.size)
    seq = np.zeros(1, dtype=np.int64)  # last optimizer sequence at each node
    infosets = np.empty(sum(1 << d for d in decision_levels), dtype=np.int64)
    p_true = []
    ids = []
    for d, v in enumerate(order):
        if diagram.kinds[v] != CHANCE:
            level = _preorder_ids(d, decision_levels)
            infosets[level] = seq
            seq = (1 + 2 * level[:, None] + np.arange(2)).ravel()
            p_true.append(None)
            ids.append(level)
            continue
        rows = table.chance_rows[v]
        code = 2 * table.code(diagram.parents.get(v, ()))
        weight *= rows[code + table.column(v)]
        seq = np.repeat(seq, 2)
        p_true.append(rows[code[:: 1 << (n - d)] + 1])
        ids.append(None)
    return GameTree(
        table=table,
        p_true=tuple(p_true),
        ids=tuple(ids),
        leaves=Leaves(cost=table.cost, chance_weight=weight, seq1=seq),
        sequences=range(1 + 2 * len(infosets)),
        infosets=infosets,
    )


def reduced_objective(tree):
    """Per-sequence cost with the chance plan folded in.

    Entry s sums cost * chance weight over the leaves whose optimizer
    sequence is s; the plan value a.mu then equals the expected cost.
    The sum runs in leaf order (``np.bincount`` adds one leaf at a time;
    ``np.sum`` would add pairwise and can differ in the last bits).
    """
    leaves = tree.leaves
    return np.bincount(
        leaves.seq1,
        weights=leaves.cost * leaves.chance_weight,
        minlength=len(tree.sequences),
    )


@dataclass(frozen=True)
class RealizationPlan:
    """Nonnegative sequence weights; the root entry is 1 and every
    information set's extensions sum to its incoming entry."""

    entries: np.ndarray


def backward_induction(tree, epsilon=0.0):
    """Optimal realization plan of the perfect-information tree with
    every entry at least epsilon.

    Walks the levels bottom-up over the leaf costs: a chance node weighs
    its children's values by its probabilities, and a decision node
    takes the true move only when that child's value is strictly
    smaller, so an exact tie takes false.  The choices do not depend on
    epsilon.  Going down, the move not taken at the j-th of the K
    decision levels gets its lower bound  epsilon * 2^(K-1-j), the least
    weight that leaves every sequence below it its bound, and the move
    taken gets the rest.  A node's optimal cost is affine in its incoming
    weight, with the unperturbed value as slope, so the plan is optimal.
    It exists iff  epsilon * 2^K <= 1, which floats decide exactly;
    otherwise InfeasibleEpsilonError.  Returns (plan, value).
    """
    levels = [d for d, ids in enumerate(tree.ids) if ids is not None]
    k = len(levels)
    if epsilon * 2.0**k > 1.0:
        raise InfeasibleEpsilonError(
            f"no realization plan has every entry >= {epsilon}: every tree path meets "
            f"all K = {k} decision variables, so the bound must be at most 2^-K = {2.0**-k}"
        )
    v = tree.leaves.cost
    take_true = {}
    for d in reversed(range(len(tree.ids))):
        false, true = v[0::2], v[1::2]
        if tree.ids[d] is None:
            p = tree.p_true[d]
            v = (1.0 - p) * false + p * true
        else:
            take_true[d] = true < false
            v = np.where(take_true[d], true, false)
    entries = np.zeros(len(tree.sequences))
    entries[0] = 1.0
    for j, d in enumerate(levels):
        ids = tree.ids[d]
        lb = epsilon * 2.0 ** (k - 1 - j)
        rest = entries[tree.infosets[ids]] - lb
        entries[2 + 2 * ids] = np.where(take_true[d], rest, lb)
        entries[1 + 2 * ids] = np.where(take_true[d], lb, rest)
    return RealizationPlan(entries=entries), float(reduced_objective(tree) @ entries)


def plan_to_strategy(tree, plan):
    """Behaviour strategy: per-node move fractions of the realization plan.

    Each decision's table conditions on every variable expanded before
    it (its full observed history), whose row keys count in binary as
    the nodes of its level do.  Nodes the plan never reaches get the
    uniform row.
    """
    entries = plan.entries
    locals_ = {}
    for d, ids in enumerate(tree.ids):
        if ids is None:
            continue
        incoming = entries[tree.infosets[ids]]
        reached = incoming > PURE_TOL
        p = np.full(ids.size, 0.5)
        p[reached] = np.clip(entries[2 + 2 * ids[reached]] / incoming[reached], 0.0, 1.0)
        v = tree.order[d]
        table = dict(zip(dg._all_rowkeys(d), p.tolist()))
        locals_[v] = LocalStrategy(decision=v, scope=tree.order[:d], table=table)
    return GlobalStrategy(locals=locals_)


def optimal_mixed_strategy(kb_or_diagram, fully_mixed=None):
    """Optimal arbitrary strategy over the game tree, by backward induction.

    fully_mixed, when given, is the lower bound applied to every plan
    entry; an unattainable bound raises InfeasibleEpsilonError.  The
    result is pure when every node the plan reaches plays one move.
    """
    diagram = getattr(kb_or_diagram, "diagram", kb_or_diagram)
    epsilon = 0.0 if fully_mixed is None else float(fully_mixed)
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError("the fully-mixed lower bound must be finite and nonnegative")
    tree = build_game_tree(diagram)
    plan, value = backward_induction(tree, epsilon)
    incoming = plan.entries[tree.infosets]
    reached = np.flatnonzero(incoming > PURE_TOL)
    p = plan.entries[2 + 2 * reached] / incoming[reached]
    pure = bool(np.all(np.minimum(p, 1.0 - p) <= PURE_TOL))
    return OptimizationResult(
        value=value,
        strategy=plan_to_strategy(tree, plan),
        kind="pure" if pure else "mixed",
        certificate=plan,
        epsilon=epsilon,
    )


def pure_plan(tree, strategy):
    """Realization plan induced by a (pure or mixed) global strategy,
    evaluated on each node's history: node x of level d reads its scope
    row at its leftmost leaf x << (n - d)."""
    n = len(tree.order)
    entries = np.zeros(len(tree.sequences))
    entries[0] = 1.0
    for d, ids in enumerate(tree.ids):
        if ids is None:
            continue
        local = strategy.locals[tree.order[d]]
        p = tree.table.gather(local.table, local.scope)[:: 1 << (n - d)]
        incoming = entries[tree.infosets[ids]]
        entries[2 + 2 * ids] = incoming * p
        entries[1 + 2 * ids] = incoming * (1.0 - p)
    return RealizationPlan(entries=entries)


def export_game_tree_dot(tree):
    """DOT rendering: optimizer nodes as boxes, chance as circles,
    leaves as cost-labeled diamonds; chance edges carry probabilities.

    Nodes are numbered in preorder, and the edge to a child follows the
    lines of the child's subtree.
    """
    from ._format import format_float as fmt

    n = len(tree.order)
    p_true = [None if p is None else p.tolist() for p in tree.p_true]
    costs = tree.leaves.cost.tolist()
    lines = ["digraph game_tree {"]
    pending = [(0, 0, 0)]  # (level, node on the level, preorder id) or a line
    while pending:
        item = pending.pop()
        if isinstance(item, str):
            lines.append(item)
            continue
        depth, x, node = item
        if depth == n:
            lines.append(f'  n{node} [shape=diamond label="cost={fmt(costs[x])}"];')
            continue
        v = tree.order[depth]
        if p_true[depth] is None:
            lines.append(f'  n{node} [shape=box label="{v}"];')
            labels = (f"{v}=0", f"{v}=1")
        else:
            p = p_true[depth][x]
            lines.append(f'  n{node} [shape=circle label="{v}"];')
            labels = (f"{v}=0 p={fmt(1.0 - p)}", f"{v}=1 p={fmt(p)}")
        # the false child's subtree holds 2^(n - depth) - 1 nodes
        children = (node + 1, node + (1 << (n - depth)))
        for value in (1, 0):
            pending.append(f'  n{node} -> n{children[value]} [label="{labels[value]}"];')
            pending.append((depth + 1, 2 * x + value, children[value]))
    lines.append("}")
    return "\n".join(lines) + "\n"
