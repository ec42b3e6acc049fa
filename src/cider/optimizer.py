"""Strategy optimization: the best pure strategy, and the fully-mixed one.

Both are solved row-wise by backward induction (Shachter 1986; Jensen,
Jensen and Dittmer 1994) over a chain of decisions whose scopes nest:
each one and its scope lie inside the scope of every larger one, or
share its scope and do not see it.  One pass per scope in the chain,
largest first, sums the cost per (scope row, joint move) over the world
table and takes the least sum, so exact ties take false.

The best pure strategy for expected cost uses the KB's strategy scopes.
Only the strategies of the other decisions, the rest, are enumerated;
under perfect recall the rest is empty.  They are scored a block at a
time with array operations, each over only the worlds it reaches: one
per valuation of the variables outside the rest.  With an evidence
inclusion the objective is that evidence's conditional bound, optimistic
or pessimistic by ``mode``; a bound does not split over rows, so the
same search runs it with an empty chain, and its value and strategy are
exactly enumeration's.
Pure strategies number doubly exponentially, so the constant
STRATEGY_CAP bounds every enumeration, as ``diagram.WORLD_CAP`` bounds
the world table.

Expected cost is multilinear in the strategy tables, so the best
arbitrary strategy is a pure one.  Under perfect recall the same pass
solves the sequence form of Koller, Megiddo and von Stengel keyed by
(decision, scope row), minimize  a.mu  s.t.  R mu = r, mu >= E, for
every lower bound E in closed form.  The game tree is only drawn.
"""

import dataclasses
import itertools
from dataclasses import dataclass

from . import diagram as dg
from ._format import format_float as fmt
from .contextual import KnowledgeBase, entailment_column
from .diagram import CHANCE, GlobalStrategy
from .evidence import _greedy_pass

__all__ = [
    "EnumerationCapError",
    "InfeasibleEpsilonError",
    "PureStrategy",
    "GameTree",
    "OptimizationResult",
    "enumerate_pure_strategies",
    "split_decisions",
    "optimal_pure_strategy",
    "expansion_order",
    "build_game_tree",
    "optimal_mixed_strategy",
    "export_game_tree_dot",
]

STRATEGY_CAP = 2**20


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
                d: dg.local_strategy(d, self.scopes[d], take)
                for d, take in self.takes.items()
            }
        )


def _format_count(log2):
    return str(1 << log2) if log2 <= 62 else f"2^{log2}"


def enumerate_pure_strategies(diagram, decisions=None):
    """All pure strategies of some decisions (by default every one),
    lexicographic over rows, false before true; more than STRATEGY_CAP
    of them raise EnumerationCapError."""
    import numpy as np
    decisions = diagram.decision_nodes if decisions is None else tuple(decisions)
    scopes = {d: diagram.scopes[d] for d in decisions}
    log2 = sum(2 ** len(scope) for scope in scopes.values())
    if log2 > 62 or (1 << log2) > STRATEGY_CAP:
        raise EnumerationCapError(
            f"{_format_count(log2)} pure strategies exceed the cap {STRATEGY_CAP}"
        )
    cuts = list(itertools.accumulate((1 << len(scopes[d]) for d in decisions), initial=0))
    for bits in itertools.product((False, True), repeat=log2):
        row = np.array(bits, dtype=bool)
        takes = {d: row[a:b] for d, a, b in zip(decisions, cuts, cuts[1:])}
        yield PureStrategy(takes=takes, scopes=scopes)


def split_decisions(diagram):
    """The decisions whose scopes nest (the chain) and the rest.

    Walking from the largest strategy scope to the smallest, ties in
    declared order, a decision joins the chain when, for each decision
    already there, it and its scope lie inside that one's scope or the
    scopes are equal.  The chain comes largest scope first, the rest in
    declared order.  Perfect recall is an empty rest of unequal scopes.
    """
    scopes = {d: set(scope) for d, scope in diagram.scopes.items()}
    chain = []
    for d in sorted(scopes, key=lambda d: -len(scopes[d])):
        if all(scopes[d] | {d} <= scopes[e] or scopes[d] == scopes[e] for e in chain):
            chain.append(d)
    return tuple(chain), tuple(d for d in scopes if d not in chain)


@dataclass(frozen=True)
class OptimizationResult:
    value: float
    strategy: GlobalStrategy
    kind: str  # "pure" | "mixed"
    epsilon: float = 0.0


def optimal_pure_strategy(kb, evidence=None, mode="opt", direction="min"):
    """Best pure strategy, from the one search ``_row_wise_optimum``.

    With no evidence it scores plain expected cost, solved row-wise over
    the chain of nested scopes; results differ from full enumeration
    only on ties, within rounding.  With an evidence inclusion it scores
    that evidence's conditional bound, optimistic for mode "opt" and
    pessimistic for "pes"; the bound does not split over rows, so the
    search runs with an empty chain and enumerates every pure strategy,
    ties kept in enumeration order: value and strategy are exactly
    enumeration's.  The value is the winning score itself, so the
    rest's strategies are ranked by the number the report prints.  The
    world table and the evidence entailment do not depend on the
    strategy and are built once.
    """
    if mode not in ("opt", "pes"):
        raise ValueError(f"unknown mode {mode!r}")
    if direction not in ("min", "max"):
        raise ValueError(f"unknown direction {direction!r}")
    sign = 1.0 if direction == "min" else -1.0
    table = dg.WorldTable(kb.diagram)
    if evidence is None:
        chain = split_decisions(kb.diagram)[0]

        def score(w, worlds):
            return sign * table.mean(w, worlds)

    else:
        forced = entailment_column(kb, table, evidence.lhs, evidence.rhs)
        bound_sign = +1 if mode == "opt" else -1
        chain = ()

        def score(w, worlds):
            return sign * _greedy_pass(table.cost[worlds], forced[worlds], w, bound_sign)[0]

    best, pure = _row_wise_optimum(table, sign * table.cost, chain, score)
    return OptimizationResult(value=sign * best, strategy=pure.to_strategy(), kind="pure")


def _row_wise_optimum(table, signed_cost, chain, score):
    """(score, PureStrategy) minimizing score over the joint columns w,
    by backward induction over the chain (``split_decisions``' chain, or
    empty) for each pure strategy of the rest, the other decisions.

    The rest's strategies come from ``enumerate_pure_strategies`` a
    block at a time.  A pure strategy fixes each rest decision given its
    scope, so its joint is 0 outside one world per valuation of the
    other variables: each strategy's row of w holds its joint over only
    those 2^(n - |rest|) worlds, in world order (``_reached_worlds``).
    A block holds at most WORLD_CAP // 2^(n - |rest|) strategies, fewer
    when a chain run has more keys or the cost table more rows than
    that.  w starts as the chance column there, a pure strategy's
    joint bit for bit, since the rest's factors are all 1.0.  Then
    ``_chain_pass`` decides the chain in every row.  score(w, worlds)
    gives each row's score, and of the rest's strategies, enumerated in
    order, the first with the strictly smallest score wins (costs are
    finite, so no score is nan).  The chain's scope rows that the
    winner's w never reaches are set to false, as enumeration leaves
    them.
    """
    import numpy as np
    diagram = table.diagram
    scopes = diagram.scopes
    rest = tuple(d for d in scopes if d not in chain)
    groups = _chain_groups(table, chain, scopes)
    chance = table.joint()
    count, reached = _reached_worlds(table, rest, scopes)
    # no block matrix, the sums per chain key and per cost value included,
    # is larger than a world-table column at the cap
    widths = [count, len(diagram.cost_table)] + [width for _, _, width in groups]
    size = max(1, dg.WORLD_CAP // max(widths))
    strategies = enumerate_pure_strategies(diagram, decisions=rest)
    best = None
    while block := list(itertools.islice(strategies, size)):
        worlds = reached(block)
        keys = [key[worlds] for _, key, _ in groups]
        moves, w = _chain_pass(groups, keys, chance[worlds], signed_cost[worlds])
        totals = score(w, worlds)
        i = int(totals.argmin())
        if best is None or totals[i] < best[0]:
            # key >> k is the scope row
            reach = [np.bincount(at[i] >> len(group), weights=w[i],
                                 minlength=width >> len(group)) > 0.0
                     for (group, _, width), at in zip(groups, keys)]
            best = (totals[i], block[i], [m[i] for m in moves], reach)
    total, fixed, moves, reach = best
    takes = {**fixed.takes, **_chain_takes(groups, moves, reach)}
    return float(total), PureStrategy(takes={d: takes[d] for d in scopes}, scopes=scopes)


def _reached_worlds(table, rest, scopes):
    """(count, reached): how many worlds each of the rest's pure
    strategies reaches, and reached(block), an index that picks each
    strategy's worlds as one row in world order.

    A strategy reaches one world per valuation of the variables outside
    the rest, the base world where every rest decision is false, with
    each rest decision set to its table at its scope row.  The rest
    decisions are taken in expansion order, and each reads its scope
    row from the world index built so far: scopes hold only ancestors,
    so every rest decision in its scope is already set there.  Each row
    is sorted into world order.  With the rest empty the one strategy
    reaches every world, as ``np.s_[None, :]``.
    """
    import numpy as np
    if not rest:
        return table.size, lambda block: np.s_[None, :]
    shift = {d: len(table.position) - 1 - table.position[d] for d in rest}
    base = np.flatnonzero(table.code(rest) == 0)
    codes = {d: table.code(scopes[d]) for d in rest}
    order = [d for d in expansion_order(table.diagram) if d in rest]

    def reached(block):
        index = base
        strategy = np.arange(len(block))[:, None]
        for d in order:
            takes = np.array([s.takes[d] for s in block], dtype=np.int64)
            index = index | takes[strategy, codes[d][index]] << shift[d]
        # numpy's stable sort of integers this wide is a timsort: one linear
        # pass over a row already in world order, as every row is when each
        # scope is declared before its decision
        return np.sort(index, axis=1, kind="stable")

    return len(base), reached


def _chain_groups(table, chain, scopes):
    """Each run of chain decisions with one scope, largest scope first,
    as (decisions, key, width): every world's key is its scope row << k
    | the joint value of the run's k decisions, one of width keys."""
    groups = []
    for scope, group in itertools.groupby(chain, key=lambda d: scopes[d]):
        group = tuple(group)
        groups.append((group, table.code(scope + group), 1 << (len(scope) + len(group))))
    return groups


def _chain_pass(groups, keys, w, signed_cost):
    """Backward induction over nested scopes in each row of w: (moves, w).

    w and signed_cost are matrices over some worlds, and keys[i] holds
    the key of run groups[i] (``_chain_groups``) of each of those worlds.
    Each run of k chain decisions with one scope, largest scope first,
    sums  w * signed_cost  per key in each row and takes per scope row
    the joint move of least sum, the lowest on a tie (for k = 1, true
    only where that sum is strictly smaller); then it multiplies its
    indicator into w.  A smaller chain decision and its scope lie inside
    every larger one's scope, so its factor is constant on each of their
    rows.  A key that no world of a row holds sums to 0.0, as every key
    does over every world with w = 0 there.
    """
    import numpy as np
    moves = []
    for (group, _, width), key in zip(groups, keys):
        at = dg.flat_index(key, width)  # moved up by width per row
        q = np.bincount(at.ravel(), weights=(w * signed_cost).ravel(), minlength=len(w) * width)
        move = q.reshape(len(w), -1, 1 << len(group)).argmin(axis=2)
        w = w * (move[:, :, None] == np.arange(1 << len(group))).ravel()[at]
        moves.append(move)
    return moves, w


def _chain_takes(groups, moves, reach):
    """Each chain decision's column over its scope rows: bit k - 1 - j of
    its run's move for the j-th of k decisions, where reach holds."""
    return {
        d: (move >> (len(group) - 1 - j) & 1 == 1) & r
        for (group, _, _), move, r in zip(groups, moves, reach)
        for j, d in enumerate(group)
    }


def optimal_mixed_strategy(kb_or_diagram, fully_mixed=None):
    """Optimal arbitrary strategy over the KB's own strategy scopes.

    Expected cost is multilinear in the strategies' table entries, so a
    pure strategy is optimal: without fully_mixed this is the answer of
    ``optimal_pure_strategy``.

    fully_mixed E bounds every entry of the realization plan of the
    sequence form keyed by (decision, scope row), which needs perfect
    recall: of two decisions, one and its scope lie inside the other's
    scope, or InfeasibleEpsilonError names two that do not.
    ``_chain_pass`` picks the moves from the unperturbed values.  Going
    down the K decisions, the move not taken at the j-th gets
    E * 2^(K-1-j), the least weight that leaves every sequence below it
    its bound, and the move taken gets the rest of the row's incoming
    weight.  A row's optimal cost is affine in its incoming weight, with
    the unperturbed value as slope, so the plan is optimal.  It exists
    iff E * 2^K <= 1, which floats decide exactly; otherwise
    InfeasibleEpsilonError.  Each row plays true with the true move's
    share of its incoming weight, or uniformly if that weight is 0.  The
    value adds  chance * cost * weight  left to right in world order,
    where weight is the plan entry of the world's last move.  The
    result is mixed when E > 0 and there is a decision.
    """
    import numpy as np
    diagram = getattr(kb_or_diagram, "diagram", kb_or_diagram)
    if fully_mixed is None:
        return optimal_pure_strategy(KnowledgeBase(diagram=diagram, vtbox=()))
    epsilon = float(fully_mixed)
    if not (np.isfinite(epsilon) and epsilon >= 0.0):
        raise ValueError("the fully-mixed lower bound must be finite and nonnegative")
    chain, rest = split_decisions(diagram)
    scopes = {d: diagram.scopes[d] for d in reversed(chain + rest)}
    for e, d in itertools.combinations(chain + rest, 2):
        if not ({d, *scopes[d]} <= {*scopes[e]} or {e, *scopes[e]} <= {*scopes[d]}):
            raise InfeasibleEpsilonError(
                f"no fully-mixed plan: the scopes of decisions {e} and {d} do not nest")
    k = len(scopes)
    if epsilon * 2.0**k > 1.0:
        raise InfeasibleEpsilonError(
            f"no realization plan has every entry >= {epsilon}: every world meets "
            f"all K = {k} decision variables, so the bound must be at most 2^-K = {2.0**-k}"
        )
    table = dg.WorldTable(diagram)
    rows = {d: table.code(scope) for d, scope in scopes.items()}
    chance = table.joint()
    groups = _chain_groups(table, chain, scopes)
    keys = [key[None] for _, key, _ in groups]
    moves, _ = _chain_pass(groups, keys, chance[None], table.cost[None])
    takes = _chain_takes(groups, [m[0] for m in moves], [True] * len(groups))
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
        locals_[d] = dg.local_strategy(d, scope, p)
    return OptimizationResult(
        value=float(np.add.accumulate(chance * table.cost * weight)[-1]),
        strategy=GlobalStrategy(locals=locals_),
        kind="mixed" if epsilon > 0.0 and scopes else "pure",
        epsilon=epsilon,
    )


# --- game tree -------------------------------------------------------------


@dataclass(frozen=True)
class GameTree:
    """The drawn tree level by level over the world table of the diagram
    redeclared in expansion order, so world i is leaf i.  Level d holds
    the 2^d valuations of the first d variables in binary counting
    order: node x of level d has the children 2x and 2x + 1 on level
    d + 1, and its leftmost leaf is x << (n - d).  Every decision node
    is its own information set, with one sequence per move."""

    table: dg.WorldTable

    @property
    def order(self):
        return self.table.diagram.variables

    @property
    def leaves(self):
        return range(self.table.size)

    @property
    def infosets(self):
        kinds = self.table.diagram.kinds
        return range(sum(1 << d for d, v in enumerate(self.order) if kinds[v] != CHANCE))

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
    """Expand the diagram into a perfect-information tree against chance,
    the tree that ``export_game_tree_dot`` draws.

    A forgetful diagram's decisions see only their parents, which no
    perfect-information tree models, so it raises ValueError."""
    if diagram.forgetful:
        raise ValueError("a forgetful diagram has no perfect-information game tree")
    dg.check_world_count(diagram)  # before ordering a document of any size
    order = expansion_order(diagram)
    return GameTree(table=dg.WorldTable(dataclasses.replace(diagram, variables=order)))


def export_game_tree_dot(tree):
    """DOT rendering: optimizer nodes as boxes, chance as circles,
    leaves as cost-labeled diamonds; chance edges carry probabilities.

    Nodes are numbered in preorder, and the edge to a child follows the
    lines of the child's subtree.  Each chance level d reads its CPT's
    rows from the tree's table, with every world's row strided at
    2^(n - d) to give each node the row of its leftmost leaf.  Labels
    are formatted once per CPT row and once per cost row, and each node
    takes the labels of its row.
    """
    table = tree.table
    diagram = table.diagram
    n = len(tree.order)
    shapes, edges = [], []  # per level: the node shape, each node's edge labels
    for d, v in enumerate(tree.order):
        if diagram.kinds[v] != CHANCE:
            shapes.append(f'[shape=box label="{v}"];')
            edges.append([(f"{v}=0", f"{v}=1")] * (1 << d))
        else:
            p_rows, rows = table.rows(diagram.cpt[v], diagram.parents.get(v, ()))
            shapes.append(f'[shape=circle label="{v}"];')
            pairs = [(f"{v}=0 p={fmt(1.0 - p)}", f"{v}=1 p={fmt(p)}") for p in p_rows.tolist()]
            edges.append([pairs[r] for r in rows[:: 1 << (n - d)].tolist()])
    costs, rows = table.rows(diagram.cost_table, diagram.cost_parents)
    texts = [f'[shape=diamond label="cost={fmt(c)}"];' for c in costs.tolist()]
    leaves = [texts[r] for r in rows.tolist()]  # per leaf: its shape
    lines = ["digraph game_tree {"]
    if n:
        _dot_subtree(lines, shapes, edges, leaves, 0, 0, 0)
    else:
        lines.append(f"  n0 {leaves[0]}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_subtree(lines, shapes, edges, leaves, depth, x, node):
    """Append the lines of node x on level depth, numbered node, then of
    each child's subtree followed by the edge to that child.  A node on
    the last level, n - 1, appends its line, its two leaves and their
    edges as one block of five lines.

    The recursion is at most 20 deep under the world cap.  It is a
    module function, not a closure that names itself, so no reference
    cycle keeps the lines alive after the export returns.
    """
    n = len(shapes)
    labels = edges[depth][x]
    if depth == n - 1:
        leaf0, leaf1 = leaves[2 * x], leaves[2 * x + 1]
        lines.append(f'  n{node} {shapes[depth]}\n'
                     f'  n{node + 1} {leaf0}\n'
                     f'  n{node} -> n{node + 1} [label="{labels[0]}"];\n'
                     f'  n{node + 2} {leaf1}\n'
                     f'  n{node} -> n{node + 2} [label="{labels[1]}"];')
        return
    lines.append(f"  n{node} {shapes[depth]}")
    # the false child's subtree holds 2^(n - depth) - 1 nodes
    for value, child in enumerate((node + 1, node + (1 << (n - depth)))):
        _dot_subtree(lines, shapes, edges, leaves, depth + 1, 2 * x + value, child)
        lines.append(f'  n{node} -> n{child} [label="{labels[value]}"];')
