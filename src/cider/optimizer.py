"""Strategy optimization: exhaustive pure search and a sequence-form LP.

Pure strategies are enumerated directly (their count is doubly
exponential, so a cap guards the search).  Arbitrary strategies go
through a game-tree detour: the diagram is expanded into a tree played
against an indifferent chance player, behaviour strategies are
linearized into realization plans, and the optimal plan is the solution
of  min a.mu  s.t.  R mu = r, mu >= 0  solved by the in-repo simplex.

The tree gives the optimizing player perfect information: every node it
owns is its own singleton information set, so its choices may condition
on all chance values resolved earlier in the expansion order, which can
be strictly more than a local strategy's conditioning scope.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from . import diagram as dg
from . import simplex
from .contextual import entailment_column
from .diagram import (
    CHANCE,
    GlobalStrategy,
    LocalStrategy,
    expected_cost,
    rowkey,
    strategy_scope,
)
from .evidence import classify_table, greedy_bound

__all__ = [
    "EnumerationCapError",
    "InfeasibleEpsilonError",
    "PureStrategy",
    "GameTree",
    "Leaf",
    "LinearProgram",
    "RealizationPlan",
    "OptimizationResult",
    "enumerate_pure_strategies",
    "pure_strategy_count_log2",
    "optimal_pure_strategy",
    "decide_threshold",
    "expansion_order",
    "build_game_tree",
    "reduced_objective",
    "realization_constraints",
    "assemble_lp",
    "solve_lp",
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


def pure_strategy_count_log2(diagram, forgetful=False):
    """log2 of the number of pure strategies (may be astronomically large)."""
    return sum(
        2 ** len(strategy_scope(diagram, d, forgetful=forgetful))
        for d in diagram.decision_nodes
    )


def _format_count(log2):
    return str(1 << log2) if log2 <= 62 else f"2^{log2}"


def enumerate_pure_strategies(diagram, forgetful=False, cap=DEFAULT_CAP):
    """All pure strategies, lexicographic over rows, false before true."""
    log2 = pure_strategy_count_log2(diagram, forgetful=forgetful)
    if log2 > 62 or (1 << log2) > cap:
        raise EnumerationCapError(
            f"{_format_count(log2)} pure strategies exceed the cap {cap}"
        )
    decisions = diagram.decision_nodes
    scopes = {d: strategy_scope(diagram, d, forgetful=forgetful) for d in decisions}
    keys = {
        d: ["".join(bits) for bits in itertools.product("01", repeat=len(scopes[d]))]
        for d in decisions
    }
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
    """Best pure strategy by exhaustive enumeration, ties by enumeration order.

    objective "expected" scores plain expected cost; "dominant-optimistic"
    and "dominant-pessimistic" score the corresponding conditional bound
    given the evidence inclusion.  The world table and the evidence
    entailment do not depend on the strategy and are built once.
    """
    if objective not in ("expected", "dominant-optimistic", "dominant-pessimistic"):
        raise ValueError(f"unknown objective {objective!r}")
    if objective != "expected" and evidence is None:
        raise ValueError(f"objective {objective!r} needs an evidence query")
    if direction not in ("min", "max"):
        raise ValueError(f"unknown direction {direction!r}")
    sign = 1.0 if direction == "min" else -1.0
    table = dg.WorldTable(kb.diagram)
    if objective != "expected":
        forced = entailment_column(kb, table, evidence.lhs, evidence.rhs)
        bound_sign = +1 if objective == "dominant-optimistic" else -1
    best = None
    for pure in enumerate_pure_strategies(kb.diagram, forgetful=forgetful, cap=cap):
        strategy = pure.to_strategy()
        if objective == "expected":
            value = expected_cost(table, strategy)
        else:
            classification = classify_table(table, forced, strategy)
            value = greedy_bound(classification, bound_sign).value
        if best is None or sign * value < sign * best[0]:
            best = (value, strategy, pure)
    value, strategy, pure = best
    return OptimizationResult(
        value=value, strategy=strategy, kind="pure", certificate=pure
    )


def decide_threshold(result, bound, problem):
    """Threshold comparisons are strict in both directions."""
    if problem in ("d-opt", "d-dom-opt", "d-dom-pes"):
        return result.value < bound
    if problem == "d-pes":
        return result.value > bound
    raise ValueError(f"unknown problem {problem!r}")


# --- game tree -------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    world: dict
    bits: str
    cost: float
    chance_weight: float
    seq1: int  # index into GameTree.sequences
    seq2: tuple  # chance moves (variable, value) along the path


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
class Infoset:
    """A singleton information set: one tree node owned by the optimizer."""

    id: int
    variable: str
    history: str  # values of the variables expanded earlier, as a row key
    seq_in: int
    seq_false: int
    seq_true: int


@dataclass(frozen=True)
class GameTree:
    diagram: dg.InfluenceDiagram
    order: tuple  # expansion order of the variables
    root: object
    leaves: tuple
    sequences: tuple  # optimizer move sequences; sequences[0] == ()
    infosets: tuple


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


def build_game_tree(diagram):
    """Expand the diagram into a perfect-information tree against chance."""
    dg.check_world_count(diagram)
    order = expansion_order(diagram)
    sequences = [()]
    seq_index = {(): 0}
    infosets = []
    leaves = []

    def expand(depth, world, weight, seq1, seq2):
        if depth == len(order):
            leaf = Leaf(
                world=dict(world),
                bits=diagram.bits(world),
                cost=dg.cost_of_valuation(diagram, world),
                chance_weight=weight,
                seq1=seq_index[seq1],
                seq2=seq2,
            )
            leaves.append(leaf)
            return leaf
        v = order[depth]
        if diagram.kinds[v] == CHANCE:
            p = diagram.cpt[v][rowkey(world, diagram.parents.get(v, ()))]
            children = []
            for value, branch_p in ((False, 1.0 - p), (True, p)):
                world[v] = value
                children.append(
                    expand(
                        depth + 1,
                        world,
                        weight * branch_p,
                        seq1,
                        seq2 + ((v, value),),
                    )
                )
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
                history=rowkey(world, order[:depth]),
                seq_in=seq_index[seq1],
                seq_false=seq_index[extensions[0]],
                seq_true=seq_index[extensions[1]],
            )
        )
        children = []
        for value, move_seq in zip((False, True), extensions):
            world[v] = value
            children.append(expand(depth + 1, world, weight, move_seq, seq2))
            del world[v]
        return DecisionNode(variable=v, infoset=h, children=tuple(children))

    root = expand(0, {}, 1.0, (), ())
    # the recursive closure refers to itself; dropping it breaks that cycle,
    # so the build's lists are freed on return, not at the next full collection
    del expand
    return GameTree(
        diagram=diagram,
        order=order,
        root=root,
        leaves=tuple(leaves),
        sequences=tuple(sequences),
        infosets=tuple(infosets),
    )


def reduced_objective(tree):
    """Per-sequence cost with the chance plan folded in.

    Entry s sums cost * chance weight over the leaves whose optimizer
    sequence is s; the plan value a.mu then equals the expected cost.
    """
    a = np.zeros(len(tree.sequences))
    for leaf in tree.leaves:
        a[leaf.seq1] += leaf.cost * leaf.chance_weight
    return a


def realization_constraints(tree):
    """Flow-conservation system R mu = r over the optimizer sequences."""
    n = len(tree.sequences)
    R = np.zeros((1 + len(tree.infosets), n))
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
    a = reduced_objective(tree)
    R, r = realization_constraints(tree)
    return LinearProgram(
        objective=a,
        constraints=R,
        rhs=r,
        lower_bounds=np.full(len(tree.sequences), float(epsilon)),
    )


@dataclass(frozen=True)
class RealizationPlan:
    """Nonnegative sequence weights; the root entry is 1 and every
    information set's extensions sum to its incoming entry."""

    entries: np.ndarray
    sequences: tuple


def solve_lp(lp):
    """Optimal realization plan via the shifted standard-form simplex."""
    lb = lp.lower_bounds
    shifted_rhs = lp.rhs - lp.constraints @ lb
    x, value = simplex.minimize(lp.objective, lp.constraints, shifted_rhs)
    entries = x + lb
    plan = RealizationPlan(entries=entries, sequences=None)
    return plan, value + float(lp.objective @ lb)


def plan_to_strategy(tree, plan):
    """Behaviour strategy: per-node move fractions of the realization plan.

    Each decision's table conditions on every variable expanded before
    it (its full observed history).  Nodes the plan never reaches get
    the uniform row.
    """
    entries = plan.entries
    tables = {}
    for h in tree.infosets:
        incoming = entries[h.seq_in]
        if incoming <= PURE_TOL:
            p = 0.5
        else:
            p = min(1.0, max(0.0, entries[h.seq_true] / incoming))
        tables.setdefault(h.variable, {})[h.history] = p
    order = tree.order
    locals_ = {}
    for v, table in tables.items():
        scope = tuple(order[: order.index(v)])
        locals_[v] = LocalStrategy(decision=v, scope=scope, table=table)
    return GlobalStrategy(locals=locals_)


def optimal_mixed_strategy(kb_or_diagram, fully_mixed=None):
    """Optimal arbitrary strategy through the sequence-form program.

    fully_mixed, when set, is the positive lower bound applied to every
    plan entry; an unattainable bound raises InfeasibleEpsilonError.
    """
    diagram = getattr(kb_or_diagram, "diagram", kb_or_diagram)
    epsilon = 0.0 if fully_mixed is None else float(fully_mixed)
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError("the fully-mixed lower bound must be finite and nonnegative")
    tree = build_game_tree(diagram)
    lp = assemble_lp(tree, epsilon=epsilon)
    try:
        plan, value = solve_lp(lp)
    except simplex.Infeasible as exc:
        raise InfeasibleEpsilonError(
            f"no realization plan with every entry >= {epsilon}: {exc}"
        ) from exc
    plan = RealizationPlan(entries=plan.entries, sequences=tree.sequences)
    strategy = plan_to_strategy(tree, plan)
    pure = all(
        min(p, 1.0 - p) <= PURE_TOL
        for ls in strategy.locals.values()
        for p in ls.table.values()
    )
    return OptimizationResult(
        value=value,
        strategy=strategy,
        kind="pure" if pure else "mixed",
        certificate=plan,
        epsilon=epsilon,
    )


def pure_plan(tree, strategy):
    """Realization plan induced by a (pure or mixed) global strategy.

    Entry of a sequence is the product of the strategy's move
    probabilities along it, evaluated on each node's history.
    """
    entries = np.zeros(len(tree.sequences))
    entries[0] = 1.0
    order = tree.order
    for h in tree.infosets:
        local = strategy.locals[h.variable]
        history_world = dg.world_from_bits(h.history, order[: len(h.history)])
        p = local.table[rowkey(history_world, local.scope)]
        entries[h.seq_true] = entries[h.seq_in] * p
        entries[h.seq_false] = entries[h.seq_in] * (1.0 - p)
    return RealizationPlan(entries=entries, sequences=tree.sequences)


def export_game_tree_dot(tree):
    """DOT rendering: optimizer nodes as boxes, chance as circles,
    leaves as cost-labeled diamonds; chance edges carry probabilities."""
    from ._format import format_float as fmt

    lines = ["digraph game_tree {"]
    counter = itertools.count()

    def emit(node):
        my_id = f"n{next(counter)}"
        if isinstance(node, Leaf):
            lines.append(f'  {my_id} [shape=diamond label="cost={fmt(node.cost)}"];')
            return my_id
        if isinstance(node, ChanceNode):
            lines.append(f'  {my_id} [shape=circle label="{node.variable}"];')
            probs = (1.0 - node.p_true, node.p_true)
            for value, child, p in zip((0, 1), node.children, probs):
                child_id = emit(child)
                lines.append(
                    f'  {my_id} -> {child_id} '
                    f'[label="{node.variable}={value} p={fmt(p)}"];'
                )
            return my_id
        lines.append(f'  {my_id} [shape=box label="{node.variable}"];')
        for value, child in zip((0, 1), node.children):
            child_id = emit(child)
            lines.append(
                f'  {my_id} -> {child_id} [label="{node.variable}={value}"];'
            )
        return my_id

    emit(tree.root)
    del emit  # break the closure's self-reference, as in build_game_tree
    lines.append("}")
    return "\n".join(lines) + "\n"
