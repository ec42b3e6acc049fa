"""Strategy optimization: exhaustive pure search and a sequence-form LP.

Pure strategies are enumerated directly (their count is doubly
exponential, so a cap guards the search).  Arbitrary strategies go
through a game-tree detour: the diagram is expanded into a tree played
against an indifferent chance player, behaviour strategies are
linearized into realization plans, and the optimal plan is the solution
of  min a.mu  s.t.  R mu = r, mu >= 0  solved by the in-repo simplex.

The tree is held as arrays, not node objects.  Its leaves are the
valuations in binary counting order of the expansion order, with one
column each for the cost, the chance weight and the last optimizer
sequence on the path; information set h, numbered in preorder, has the
move sequences 1 + 2h + value.

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
    "Leaves",
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
class Infoset:
    """A singleton information set: one tree node owned by the optimizer."""

    id: int
    variable: str
    history: str  # values of the variables expanded earlier, as a row key
    seq_in: int
    seq_false: int
    seq_true: int


@dataclass(frozen=True)
class Leaves:
    """Columns over the leaves, in binary counting order of the expansion order."""

    cost: np.ndarray
    chance_weight: np.ndarray  # product of the chance factors on the path
    seq1: np.ndarray  # the path's last optimizer sequence, 0 if it has none

    def __len__(self):
        return len(self.cost)


@dataclass(frozen=True)
class GameTree:
    """The tree level by level: level d holds the 2^d valuations of the
    first d variables of the expansion order, in binary counting order,
    so node x of level d has the children 2x and 2x + 1 on level d + 1."""

    diagram: dg.InfluenceDiagram
    order: tuple  # expansion order of the variables
    p_true: tuple  # per level: P(order[d] true) at each node, None for decisions
    leaves: Leaves
    sequences: tuple  # optimizer move sequences; sequences[0] == ()
    infosets: tuple  # in preorder of their nodes


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


def _row_code(nodes, depth, level_of, variables):
    """Row key over some of the first `depth` expanded variables, as an
    integer, at each node of level `depth`."""
    code = np.zeros_like(nodes)
    for v in variables:
        code = (code << 1) | ((nodes >> (depth - 1 - level_of[v])) & 1)
    return code


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

    Level by level, each node's chance weight is its parent's times the
    chance factor of its value, multiplied in expansion order as a walk
    down the tree multiplies.  At information set h, the optimizer's
    move to `value` is sequence 1 + 2h + value.
    """
    dg.check_world_count(diagram)
    order = expansion_order(diagram)
    level_of = {v: d for d, v in enumerate(order)}
    decision_levels = [d for d, v in enumerate(order) if diagram.kinds[v] != CHANCE]
    weight = np.ones(1)
    seq = np.zeros(1, dtype=np.int64)
    p_true = []
    infosets = [None] * sum(1 << d for d in decision_levels)
    for d, v in enumerate(order):
        if diagram.kinds[v] == CHANCE:
            parents = diagram.parents.get(v, ())
            rows = dg._row_array(diagram.cpt[v], len(parents))
            p = rows[_row_code(np.arange(1 << d), d, level_of, parents)]
            weight = (weight[:, None] * np.stack((1.0 - p, p), axis=1)).ravel()
            seq = np.repeat(seq, 2)
            p_true.append(p)
            continue
        ids = _preorder_ids(d, decision_levels)
        for h, history, seq_in in zip(ids.tolist(), dg._all_rowkeys(d), seq.tolist()):
            infosets[h] = Infoset(h, v, history, seq_in, 1 + 2 * h, 2 + 2 * h)
        weight = np.repeat(weight, 2)
        seq = (1 + 2 * ids[:, None] + np.arange(2)).ravel()
        p_true.append(None)
    n = len(order)
    cost_rows = dg._row_array(diagram.cost_table, len(diagram.cost_parents))
    cost = cost_rows[_row_code(np.arange(1 << n), n, level_of, diagram.cost_parents)]
    sequences = [()]
    for h in infosets:
        base = sequences[h.seq_in]
        sequences += [base + ((h.id, False),), base + ((h.id, True),)]
    return GameTree(
        diagram=diagram,
        order=order,
        p_true=tuple(p_true),
        leaves=Leaves(cost=cost, chance_weight=weight, seq1=seq),
        sequences=tuple(sequences),
        infosets=tuple(infosets),
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
