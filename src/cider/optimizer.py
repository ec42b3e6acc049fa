"""Strategy optimization: the best pure strategy and the game-tree optimum.

Both are solved row-wise by backward induction (Shachter 1986; Jensen,
Jensen and Dittmer 1994) over a chain of decisions whose scopes nest:
each one and its scope lie inside the scope of every larger one.  One
pass per chain decision, largest scope first, sums the cost per (scope
row, move) over the world table and takes true only where that sum is
strictly smaller, so exact ties take false.

The best pure strategy for expected cost uses the KB's strategy scopes.
Only the strategies of the other decisions, the rest, are enumerated;
under perfect recall the rest is empty.  The evidence objectives do not
split over rows, so the same search runs them with an empty chain.
Pure strategies number doubly exponentially, so a cap guards every
enumeration.

Arbitrary strategies are optimized over the game tree: the diagram
expanded in topological order and played against an indifferent chance
player.  The optimizer has perfect information there, so each decision
sees every variable expanded before it.  Those scopes nest, and the
same pass over the tree's table, with an empty rest, solves the
sequence form of Koller, Megiddo and von Stengel, minimize  a.mu  s.t.
R mu = r, mu >= E, for every lower bound E in closed form.
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
    "OptimizationResult",
    "enumerate_pure_strategies",
    "split_decisions",
    "optimal_pure_strategy",
    "decide_threshold",
    "expansion_order",
    "build_game_tree",
    "optimal_mixed_strategy",
    "export_game_tree_dot",
]

DEFAULT_CAP = 2**20


class EnumerationCapError(RuntimeError):
    """Too many pure strategies to enumerate."""


class InfeasibleEpsilonError(ValueError):
    """The fully-mixed lower bound leaves no feasible realization plan."""


@dataclass(frozen=True)
class PureStrategy:
    """Boolean choice per conditioning row, for each decision node; row r
    is the scope row whose key reads r in binary (``WorldTable.code``)."""

    takes: dict  # decision -> Boolean array over scope rows
    scopes: dict  # decision -> conditioning variables, declared order

    def to_strategy(self):
        return GlobalStrategy(
            locals={
                d: LocalStrategy(
                    decision=d,
                    scope=self.scopes[d],
                    table=dict(
                        zip(dg.row_keys(len(self.scopes[d])), take.astype(float).tolist())
                    ),
                )
                for d, take in self.takes.items()
            }
        )


def _format_count(log2):
    return str(1 << log2) if log2 <= 62 else f"2^{log2}"


def enumerate_pure_strategies(diagram, cap=DEFAULT_CAP, decisions=None):
    """All pure strategies of some decisions (by default every one),
    lexicographic over rows, false before true."""
    decisions = diagram.decision_nodes if decisions is None else tuple(decisions)
    scopes = {d: strategy_scope(diagram, d) for d in decisions}
    log2 = sum(2 ** len(scope) for scope in scopes.values())
    if log2 > 62 or (1 << log2) > cap:
        raise EnumerationCapError(
            f"{_format_count(log2)} pure strategies exceed the cap {cap}"
        )
    cuts = list(itertools.accumulate(1 << len(scopes[d]) for d in decisions))[:-1]
    for bits in itertools.product((False, True), repeat=log2):
        takes = np.split(np.array(bits, dtype=bool), cuts)
        yield PureStrategy(takes=dict(zip(decisions, takes)), scopes=scopes)


def split_decisions(diagram):
    """The decisions whose scopes nest (the chain) and the rest.

    Walking from the largest strategy scope to the smallest, ties in
    declared order, a decision joins the chain when it and its scope lie
    inside the scope of every decision already there.  The chain comes
    largest scope first, the rest in declared order.  Perfect recall is
    an empty rest.
    """
    scopes = {d: set(strategy_scope(diagram, d)) for d in diagram.decision_nodes}
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
    certificate: PureStrategy  # the moves taken, on every scope row
    epsilon: float = 0.0


def optimal_pure_strategy(
    kb,
    objective="expected",
    evidence=None,
    direction="min",
    cap=DEFAULT_CAP,
):
    """Best pure strategy, from the one search ``_row_wise_optimum``.

    objective "expected" scores plain expected cost, solved row-wise
    over the chain of nested scopes.  Results differ from full
    enumeration only on ties, within rounding.  "dominant-optimistic"
    and "dominant-pessimistic" score the corresponding conditional bound
    given the evidence inclusion; that bound does not split over rows,
    so the search runs with an empty chain and enumerates every pure
    strategy, ties kept in enumeration order.  The world table and the
    evidence entailment do not depend on the strategy and are built
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
    signed_cost = sign * table.cost
    if objective == "expected":
        chain = split_decisions(kb.diagram)[0]

        def score(w):
            return np.add.accumulate(w * signed_cost)[-1]

    else:
        forced = entailment_column(kb, table, evidence.lhs, evidence.rhs)
        bound_sign = +1 if objective == "dominant-optimistic" else -1
        chain = ()

        def score(w):
            return sign * greedy_bound(table, forced, w, bound_sign).value

    best, pure = _row_wise_optimum(table, signed_cost, chain, score, cap)
    strategy = pure.to_strategy()
    return OptimizationResult(
        value=expected_cost(table, strategy) if objective == "expected" else sign * best,
        strategy=strategy,
        kind="pure",
        certificate=pure,
    )


def _row_wise_optimum(table, signed_cost, chain, score, cap):
    """(score, PureStrategy) minimizing score(w) over the joint column w,
    by backward induction over the chain (``split_decisions``' chain, or
    empty) for each pure strategy of the rest, the other decisions.

    For a fixed rest, w starts as the chance column times the rest's
    0/1 indicators: a pure strategy's joint, bit for bit.  Then
    ``_chain_pass`` decides the chain.  Rows that w never reaches are
    set to false, as enumeration leaves them.  Of the rest's strategies,
    enumerated in order, the first with the strictly smallest score
    wins.  Expected cost scores  sum(w * signed_cost)  in world order;
    the evidence objectives pass an empty chain and score the greedy
    bound.
    """
    diagram = table.diagram
    scopes = {d: strategy_scope(diagram, d) for d in diagram.decision_nodes}
    rest = tuple(d for d in scopes if d not in chain)
    rows = {d: table.code(scopes[d]) for d in scopes}
    chance = table.joint()
    best = None
    for fixed in enumerate_pure_strategies(diagram, cap=cap, decisions=rest):
        w = chance
        for d in rest:
            w = w * (fixed.takes[d][rows[d]] == table.column(d))
        takes, w = _chain_pass(table, chain, rows, w, signed_cost)
        for d in chain:
            reach = np.bincount(rows[d], weights=w, minlength=1 << len(scopes[d]))
            takes[d] &= reach > 0.0
        total = score(w)
        if best is None or total < best[0]:
            best = (total, {**fixed.takes, **takes})
    total, takes = best
    return total, PureStrategy(takes={d: takes[d] for d in scopes}, scopes=scopes)


def _chain_pass(table, chain, rows, w, signed_cost):
    """Backward induction over nested scopes: (takes, w).

    Each chain decision d, largest scope first, sums  w * signed_cost
    per (scope row, value), with rows[d] every world's scope row, and
    takes true only where that sum is strictly smaller; then it
    multiplies its indicator into w.  A smaller chain decision and its
    scope lie inside every larger one's scope, so its factor is constant
    on each of their rows and cannot change their choice.  Every scope
    row occurs in the table with both values, so the sums cover every
    row.
    """
    takes = {}
    for d in chain:
        column = table.column(d)
        q = np.bincount(2 * rows[d] + column, weights=w * signed_cost)
        takes[d] = q[1::2] < q[0::2]
        w = w * (takes[d][rows[d]] == column)
    return takes, w


def decide_threshold(result, bound, problem):
    """Threshold comparisons are strict in both directions."""
    if problem in ("d-opt", "d-dom-opt", "d-dom-pes"):
        return result.value < bound
    if problem == "d-pes":
        return result.value > bound
    raise ValueError(f"unknown problem {problem!r}")


# --- game tree -------------------------------------------------------------


@dataclass(frozen=True)
class GameTree:
    """The tree level by level over the world table of the diagram
    redeclared in expansion order, so world i is leaf i.  Level d holds
    the 2^d valuations of the first d variables in binary counting
    order: node x of level d has the children 2x and 2x + 1 on level
    d + 1, and its leftmost leaf is x << (n - d).  Every decision node is
    its own information set, with one sequence per move."""

    table: dg.WorldTable
    p_true: tuple  # per level: P(order[d] true) at each node, None for decisions

    @property
    def order(self):
        return self.table.diagram.variables

    @property
    def leaves(self):
        return range(self.table.size)

    @property
    def infosets(self):
        return range(sum(1 << d for d, p in enumerate(self.p_true) if p is None))

    @property
    def sequences(self):
        """The empty sequence, then two moves per information set."""
        return range(1 + 2 * len(self.infosets))


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
    dg.check_world_count(diagram)  # before ordering a document of any size
    order = expansion_order(diagram)
    table = dg.WorldTable(dataclasses.replace(diagram, variables=order))
    n = len(order)
    p_true = []
    for d, v in enumerate(order):
        if diagram.kinds[v] == CHANCE:
            code = 2 * table.code(diagram.parents.get(v, ()))
            p_true.append(table.chance_rows[v][code[:: 1 << (n - d)] + 1])
        else:
            p_true.append(None)
    return GameTree(table=table, p_true=tuple(p_true))


def optimal_mixed_strategy(kb_or_diagram, fully_mixed=None):
    """Optimal arbitrary strategy over the game tree.

    Each decision's scope is every variable expanded before it, so the
    scopes nest and ``_chain_pass`` runs over the tree's table with every
    decision in the chain, latest first.  No rest is enumerated and no
    row is reset: a row's move follows its chance-weighted subtree sums,
    and an exact tie takes false.

    fully_mixed E, when given, is the lower bound on every realization
    plan entry.  Going down the K decisions, the move not taken at the
    j-th gets E * 2^(K-1-j), the least weight that leaves every sequence
    below it its bound, and the move taken gets the rest of the row's
    incoming weight.  A node's optimal cost is affine in its incoming
    weight, with the unperturbed value as slope, so the plan is optimal.
    It exists iff E * 2^K <= 1, which floats decide exactly; otherwise
    InfeasibleEpsilonError.  Each row plays true with the true move's
    share of its incoming weight, or uniformly if that weight is 0.  The
    value adds  chance * cost * weight  left to right in world order,
    where weight is the plan entry of the world's last move.  The result
    is mixed when E > 0 and there is a decision.
    """
    diagram = getattr(kb_or_diagram, "diagram", kb_or_diagram)
    epsilon = 0.0 if fully_mixed is None else float(fully_mixed)
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError("the fully-mixed lower bound must be finite and nonnegative")
    table = build_game_tree(diagram).table
    order = table.diagram.variables
    scopes = {v: order[:i] for i, v in enumerate(order) if diagram.kinds[v] != CHANCE}
    k = len(scopes)
    if epsilon * 2.0**k > 1.0:
        raise InfeasibleEpsilonError(
            f"no realization plan has every entry >= {epsilon}: every tree path meets "
            f"all K = {k} decision variables, so the bound must be at most 2^-K = {2.0**-k}"
        )
    rows = {d: table.code(scope) for d, scope in scopes.items()}
    chance = table.joint()
    takes, _ = _chain_pass(table, tuple(reversed(scopes)), rows, chance, table.cost)
    weight = np.ones(table.size)  # plan entry of each world's last move so far
    locals_ = {}
    for j, (d, scope) in enumerate(scopes.items()):
        incoming = np.empty(takes[d].size)
        incoming[rows[d]] = weight  # the scopes nest, so one value per row
        lb = epsilon * 2.0 ** (k - 1 - j)
        true = np.where(takes[d], incoming - lb, lb)
        false = np.where(takes[d], lb, incoming - lb)
        weight = np.where(table.column(d), true[rows[d]], false[rows[d]])
        reached = incoming > 0.0
        p = np.full(incoming.size, 0.5)
        p[reached] = true[reached] / incoming[reached]
        local_table = dict(zip(dg.row_keys(len(scope)), p.tolist()))
        locals_[d] = LocalStrategy(decision=d, scope=scope, table=local_table)
    return OptimizationResult(
        value=float(np.add.accumulate(chance * table.cost * weight)[-1]),
        strategy=GlobalStrategy(locals=locals_),
        kind="mixed" if epsilon > 0.0 and scopes else "pure",
        certificate=PureStrategy(takes={d: takes[d] for d in scopes}, scopes=scopes),
        epsilon=epsilon,
    )


def export_game_tree_dot(tree):
    """DOT rendering: optimizer nodes as boxes, chance as circles,
    leaves as cost-labeled diamonds; chance edges carry probabilities.

    Nodes are numbered in preorder, and the edge to a child follows the
    lines of the child's subtree.
    """
    from ._format import format_float as fmt

    n = len(tree.order)
    p_true = [None if p is None else p.tolist() for p in tree.p_true]
    costs = tree.table.cost.tolist()
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
