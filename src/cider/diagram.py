"""Influence diagrams over Boolean variables with a single cost node.

A diagram is a DAG of chance and decision variables plus one cost node.
Chance variables carry conditional probability tables; decision
variables are resolved by strategies supplied separately.  Table rows
are keyed by the parent values concatenated as '0'/'1' characters in
declared parent order (the root row key is the empty string).

Worlds (total valuations) are plain ``{variable: bool}`` mappings and
are always enumerated in binary counting order over the declared
variable order, so outputs are deterministic.  A ``WorldTable`` holds
all of them at once as numpy columns; the per-world functions
(``joint_probability``, ``cost_of_valuation``) are its reference.
"""

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from ._sexpr import NAME_RE

CHANCE = "chance"
DECISION = "decision"
COST_NODE = "cost"  # reserved id; variables may not use or reference it
WORLD_CAP = 2**20

__all__ = [
    "CHANCE",
    "DECISION",
    "InfluenceDiagram",
    "LocalStrategy",
    "GlobalStrategy",
    "Violation",
    "WorldCapError",
    "WorldTable",
    "check_world_count",
    "row_keys",
    "rowkey",
    "world_from_bits",
    "validate",
    "validate_strategy",
    "influence_set",
    "strategy_scope",
    "joint_probability",
    "cost_of_valuation",
    "cost_distribution",
    "expected_cost",
]


def rowkey(world, variables):
    """Restriction of a world to some variables, as a '0'/'1' row key."""
    return "".join("1" if world[v] else "0" for v in variables)


def world_from_bits(bits, variables):
    if len(bits) != len(variables) or set(bits) - {"0", "1"}:
        raise ValueError(f"world {bits!r} does not match variables {variables}")
    return {v: b == "1" for v, b in zip(variables, bits)}


def row_keys(n):
    """Every row key over n variables, in binary counting order."""
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


@dataclass(frozen=True)
class InfluenceDiagram:
    """DAG of Boolean chance/decision variables plus one cost node.

    cpt maps each chance variable to {rowkey over its parents: P(v=true)}.
    cost_table maps every rowkey over cost_parents to a real cost.
    forgetful picks every decision's strategy scope (``strategy_scope``):
    its influence set by default (no-forgetting), or with forgetful=True
    only its direct parents, as in a LIMID.
    """

    variables: tuple
    kinds: dict
    parents: dict
    cpt: dict
    cost_parents: tuple
    cost_table: dict
    forgetful: bool = False

    @property
    def chance_nodes(self):
        return tuple(v for v in self.variables if self.kinds.get(v) == CHANCE)

    @property
    def decision_nodes(self):
        return tuple(v for v in self.variables if self.kinds.get(v) == DECISION)

    @property
    def cost_values(self):
        return tuple(sorted(set(self.cost_table.values())))

    def worlds(self):
        """All total valuations, in binary counting order."""
        n = len(self.variables)
        for bits in itertools.product((False, True), repeat=n):
            yield dict(zip(self.variables, bits))

    def bits(self, world):
        return rowkey(world, self.variables)

    def world(self, bits):
        return world_from_bits(bits, self.variables)


@dataclass(frozen=True)
class Violation:
    node: str
    message: str

    def __str__(self):
        # a quoted name keeps a newline or comma out of the report
        node = self.node if NAME_RE.fullmatch(self.node) else repr(self.node)
        return f"{node}: {self.message}"


def validate(diagram):
    """Every violated structural invariant, with the offending node.

    An empty list means the diagram is well-formed.
    """
    out = []
    counts = Counter(diagram.variables)  # each distinct variable once, in order
    for v, count in counts.items():
        if count > 1:
            out.append(Violation(v, "duplicate variable"))
        if v in (COST_NODE, "true", "false"):
            out.append(Violation(v, f"variable name {v!r} is reserved"))
        elif not NAME_RE.fullmatch(v):
            out.append(Violation(v, "variable name is not a NAME"))
        kind = diagram.kinds.get(v)
        if kind not in (CHANCE, DECISION):
            out.append(Violation(v, f"unknown kind {kind!r}"))
    for v in counts:
        for p in diagram.parents.get(v, ()):
            if p == COST_NODE:
                out.append(Violation(COST_NODE, "cost node has outgoing edge"))
            elif p not in counts:
                out.append(Violation(v, f"unknown parent {p!r}"))
    cycle = _find_cycle(diagram)
    if cycle:
        out.append(Violation(cycle, "parent graph has a cycle through this node"))
    for v in counts:
        kind = diagram.kinds.get(v)
        table = diagram.cpt.get(v)
        if kind == DECISION:
            if table is not None:
                out.append(Violation(v, "decision node has a CPT"))
            continue
        if kind != CHANCE:
            continue
        if table is None:
            out.append(Violation(v, "chance node has no CPT"))
            continue
        n = len(diagram.parents.get(v, ()))
        out += _row_violations(v, "CPT", table, n, _bad_probability)
    for p in diagram.cost_parents:
        if p not in counts:
            out.append(Violation(COST_NODE, f"unknown cost parent {p!r}"))
        if p == COST_NODE:
            out.append(Violation(COST_NODE, "cost node cannot be its own parent"))
    n = len(diagram.cost_parents)
    out += _row_violations(COST_NODE, "cost", diagram.cost_table, n, _bad_cost)
    return out


def _bad_probability(key, p):
    if not (isinstance(p, (int, float)) and 0.0 <= p <= 1.0):
        return f"probability out of range in row {key!r}"


def _bad_cost(key, cost):
    if not (isinstance(cost, (int, float)) and math.isfinite(cost)):
        return f"cost in row {key!r} is not a finite number"


def _row_violations(node, noun, table, n, bad_value):
    """Missing rows of a table over n-bit row keys in key order, then its
    unexpected rows and the messages of bad_value(key, value) in table
    order; one violation, listing nothing, past WORLD_CAP rows."""
    if 1 << n > WORLD_CAP:
        return [Violation(node, f"{noun} over {n} keys needs 2^{n} rows, "
                                f"past the world cap {WORLD_CAP}")]
    keys = row_keys(n)
    expected = set(keys)  # a list would make the row check quadratic
    out = [Violation(node, f"missing {noun} row {key!r}") for key in keys if key not in table]
    for key, value in table.items():
        if key not in expected:
            out.append(Violation(node, f"unexpected {noun} row {key!r}"))
        elif problem := bad_value(key, value):
            out.append(Violation(node, problem))
    return out


def _find_cycle(diagram):
    """Name of some node on a parent-graph cycle, or None.

    The depth-first search keeps its own stack, so a chain of any length
    stays within the interpreter's recursion limit."""
    state = {}  # 0 visiting, 1 done
    for root in diagram.variables:
        if root in state:
            continue
        state[root] = 0
        stack = [(root, iter(diagram.parents.get(root, ())))]
        while stack:
            v, parents = stack[-1]
            for p in parents:
                if p not in diagram.kinds or state.get(p) == 1:
                    continue
                if state.get(p) == 0:
                    return p
                state[p] = 0
                stack.append((p, iter(diagram.parents.get(p, ()))))
                break
            else:
                state[v] = 1
                stack.pop()
    return None


def _ancestors(diagram, v):
    out = set()
    stack = list(diagram.parents.get(v, ()))
    while stack:
        p = stack.pop()
        if p not in out:
            out.add(p)
            stack.extend(diagram.parents.get(p, ()))
    return out


def influence_set(diagram, decision):
    """Decision ancestors (through any path) plus direct parents."""
    if diagram.kinds.get(decision) != DECISION:
        raise ValueError(f"{decision!r} is not a decision node")
    ancestors = _ancestors(diagram, decision)
    decision_ancestors = {a for a in ancestors if diagram.kinds.get(a) == DECISION}
    return decision_ancestors | set(diagram.parents.get(decision, ()))


def strategy_scope(diagram, decision):
    """Conditioning variables of a local strategy, in declared order: the
    influence set, or only the direct parents in a forgetful diagram.
    """
    if diagram.forgetful:
        members = set(diagram.parents.get(decision, ()))
        if diagram.kinds.get(decision) != DECISION:
            raise ValueError(f"{decision!r} is not a decision node")
    else:
        members = influence_set(diagram, decision)
    return tuple(v for v in diagram.variables if v in members)


@dataclass(frozen=True)
class LocalStrategy:
    """Conditional table P(decision = true | scope row) for one decision."""

    decision: str
    scope: tuple
    table: dict


@dataclass(frozen=True)
class GlobalStrategy:
    """One local strategy per decision node."""

    locals: dict


def validate_strategy(diagram, strategy):
    """Check totality, row keys and probability range of a global strategy."""
    out = []
    decisions = set(diagram.decision_nodes)
    if set(strategy.locals) != decisions:
        out.append(
            Violation(
                "strategy",
                f"covers {sorted(strategy.locals)} but decisions are {sorted(decisions)}",
            )
        )
        return out
    for d, local in strategy.locals.items():
        expected_scope = strategy_scope(diagram, d)
        if tuple(local.scope) != expected_scope:
            out.append(
                Violation(d, f"scope {local.scope} differs from {expected_scope}")
            )
            continue
        n = len(expected_scope)
        out += _row_violations(d, "strategy", local.table, n, _bad_probability)
    return out


def joint_probability(diagram, strategy, world):
    """Chain-rule probability of a total valuation under a strategy.

    Chance factors come from the CPTs, decision factors from the local
    strategy evaluated on its conditioning scope.
    """
    p = 1.0
    for v in diagram.variables:
        if diagram.kinds[v] == CHANCE:
            row = diagram.cpt[v][rowkey(world, diagram.parents.get(v, ()))]
        else:
            local = strategy.locals[v]
            row = local.table[rowkey(world, local.scope)]
        p *= row if world[v] else 1.0 - row
        if p == 0.0:
            return 0.0
    return p


def cost_of_valuation(diagram, world):
    """Cost-table row selected by the world restricted to the cost parents."""
    return diagram.cost_table[rowkey(world, diagram.cost_parents)]


class WorldCapError(RuntimeError):
    """Too many worlds to tabulate."""


def check_world_count(diagram):
    """Refuse a diagram with more than WORLD_CAP worlds, before allocating."""
    n = len(diagram.variables)
    if 2**n > WORLD_CAP:
        raise WorldCapError(f"2^{n} worlds exceed the world cap {WORLD_CAP}")


def _row_array(table, n):
    """A table over n-bit row keys, indexed by the key read in binary."""
    return np.array([table[key] for key in row_keys(n)], dtype=float)


def _by_value(table, n):
    """P(v = value | row) at index 2 * row + value."""
    p_true = _row_array(table, n)
    return np.stack([1.0 - p_true, p_true], axis=1).ravel()


class WorldTable:
    """Every world of a diagram as columns over the world index.

    World i is the i-th valuation in binary counting order, so the first
    declared variable is its most significant bit.  ``values`` holds one
    Boolean row per variable and ``cost`` the cost of every world.
    Factors are gathered from the small CPT and strategy rows on each
    ``joint`` call rather than kept as one column per variable.  A table
    is built per query and holds nothing beyond the diagram's own data,
    so no result is kept from one call to the next.
    """

    def __init__(self, diagram):
        check_world_count(diagram)
        n = len(diagram.variables)
        self.diagram = diagram
        self.size = 1 << n
        self.position = {v: j for j, v in enumerate(diagram.variables)}
        index = np.arange(self.size)
        self.values = np.empty((n, self.size), dtype=bool)
        for j in range(n):
            self.values[j] = (index >> (n - 1 - j)) & 1
        self.chance_rows = {
            v: _by_value(diagram.cpt[v], len(diagram.parents.get(v, ())))
            for v in diagram.chance_nodes
        }
        self.cost = self.gather(diagram.cost_table, diagram.cost_parents)

    def column(self, v):
        return self.values[self.position[v]]

    def code(self, variables):
        """Every world's row key over some variables, as an integer."""
        code = np.zeros(self.size, dtype=np.int32)
        for v in variables:
            code <<= 1
            code |= self.column(v)
        return code

    def gather(self, table, scope):
        """Every world's entry of a table keyed by row keys over scope."""
        return _row_array(table, len(scope))[self.code(scope)]

    def _factor(self, by_value, scope, v):
        """Probability of v's value given the scope row, in every world."""
        return by_value[2 * self.code(scope) + self.column(v)]

    def joint(self, strategy=None):
        """Joint probability of every world under a strategy, or with no
        strategy the product of the chance factors alone.

        Factors are multiplied in declared variable order, as
        ``joint_probability`` multiplies them, so the two agree exactly.
        """
        p = np.ones(self.size)
        for v in self.diagram.variables:
            if v in self.chance_rows:
                scope = self.diagram.parents.get(v, ())
                p *= self._factor(self.chance_rows[v], scope, v)
            elif strategy is not None:
                local = strategy.locals[v]
                rows = _by_value(local.table, len(local.scope))
                p *= self._factor(rows, local.scope, v)
        return p

    @staticmethod
    def mass(probability, where):
        """Total probability of the worlds where the mask holds.

        Added left to right in world order, as a per-world loop adds;
        ``np.sum`` adds pairwise and can differ in the last bits.
        """
        chosen = probability[where]
        return float(np.add.accumulate(chosen)[-1]) if chosen.size else 0.0

    def cost_distribution(self, strategy):
        """Probability of paying each cost value under the strategy.

        One ``np.bincount`` over the worlds' cost-value indices adds each
        value's worlds in world order, as ``mass`` adds them; a value no
        world pays gets 0.0.
        """
        values = self.diagram.cost_values
        index = np.searchsorted(values, self.cost)
        p = np.bincount(index, weights=self.joint(strategy), minlength=len(values))
        return dict(zip(values, p.tolist()))

    def rowkeys(self):
        """Every world's row key over all variables, in table order."""
        return row_keys(len(self.diagram.variables))

    def world(self, i):
        return dict(zip(self.diagram.variables, self.values[:, i].tolist()))

    def index(self, world):
        return int(self.diagram.bits(world) or "0", 2)


def cost_distribution(diagram, strategy):
    """Probability of paying each cost value under the strategy.

    ``diagram`` may also be a ``WorldTable`` already built for the query.
    """
    table = diagram if isinstance(diagram, WorldTable) else WorldTable(diagram)
    return table.cost_distribution(strategy)


def expected_cost(diagram, strategy):
    """Expected cost under the strategy; ``diagram`` may be a ``WorldTable``."""
    return sum(r * p for r, p in cost_distribution(diagram, strategy).items())
