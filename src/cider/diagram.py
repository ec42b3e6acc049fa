"""Influence diagrams over Boolean variables with a single cost node.

A diagram is a DAG of chance and decision variables plus one cost node.
Chance variables carry conditional probability tables; decision
variables are resolved by strategies supplied separately.  Table rows
are keyed by the parent values concatenated as '0'/'1' characters in
declared parent order (the root row key is the empty string).  Past
the loader, only this module spells row keys and reads or writes row
tables.  ``row_keys`` spells every key over n variables;
``bit_strings`` and ``bit_strings_json`` spell the keys of the rows
where a mask holds, as a list and as the text of a JSON array, both
in bulk from one numpy byte buffer.  ``WorldTable.rows`` reads a CPT,
strategy or cost table as its values per row and every world's row,
and ``local_strategy`` writes a column over scope rows as a strategy
table.

Worlds (total valuations) are plain ``{variable: bool}`` mappings and
are always enumerated in binary counting order over the declared
variable order, so outputs are deterministic.  A ``WorldTable`` holds
all of them at once as numpy columns.
"""

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass

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
    "bit_strings",
    "bit_strings_json",
    "local_strategy",
    "world_from_bits",
    "validate",
    "validate_strategy",
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


def bit_strings(mask):
    """Row keys of the rows where a mask holds, for a mask over all 2^n
    rows of n variables (such as the world table's worlds), in row
    order, which is also sorted order."""
    return _spell_rows(mask, b"", b",").split(",")[:-1]


def bit_strings_json(mask):
    """The text of a JSON array of ``bit_strings(mask)``, as
    ``"[" + ", ".join(f'"{key}"' for key in keys) + "]"`` spells it."""
    return "[" + _spell_rows(mask, b'"', b'", ')[:-2] + "]"


def _spell_rows(mask, before, after):
    """The row key of every row where a mask holds, in row order, each
    between the bytes before and after, as one ASCII text.

    Every key fills one row of a byte matrix, whose fixed columns come
    from one template row: the key's n digits are the last n bits of
    the low bytes of its row index, unpacked highest byte first.  No
    Python code runs per row, and each digit passes through one byte,
    never through an int64."""
    import numpy as np
    n = (mask.size - 1).bit_length()
    width = -(-n // 8)  # bytes that hold n bits
    index = mask.nonzero()[0].astype("<i8", copy=False)  # low bytes first
    low = index.view(np.uint8).reshape(-1, 8)[:, :width][:, ::-1]
    out = np.empty((index.size, len(before) + n + len(after)), dtype=np.uint8)
    out[:] = np.frombuffer(before + b"0" * n + after, dtype=np.uint8)
    out[:, len(before):len(before) + n] += np.unpackbits(low, axis=1)[:, 8 * width - n:]
    return out.tobytes().decode("ascii")


@dataclass(frozen=True)
class InfluenceDiagram:
    """DAG of Boolean chance/decision variables plus one cost node.

    cpt maps each chance variable to {rowkey over its parents: P(v=true)}.
    cost_table maps every rowkey over cost_parents to a real cost.
    forgetful picks every decision's strategy scope, held in ``scopes``:
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

    @functools.cached_property
    def scopes(self):
        """Each decision's strategy scope, in declared order: its parents
        and its decision ancestors through any path, or only its parents
        when forgetful.  Computed once; ``dataclasses.replace`` makes a
        new diagram, which computes its own."""
        out = {}
        for d in self.decision_nodes:
            members = set(self.parents.get(d, ()))
            if not self.forgetful:
                members |= {a for a in _ancestors(self, d) if self.kinds.get(a) == DECISION}
            out[d] = tuple(v for v in self.variables if v in members)
        return out

    @functools.cached_property
    def cost_values(self):
        """The distinct costs of the cost table, ascending; computed once."""
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
        parents = diagram.parents.get(v, ())
        if COST_NODE in parents:
            out.append(Violation(COST_NODE, f"cost node has outgoing edge to {v!r}"))
        for p in parents:
            if p != COST_NODE and p not in counts:
                out.append(Violation(v, f"unknown parent {p!r}"))
        out += _duplicates(v, "parent", parents)
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
    out += _duplicates(COST_NODE, "cost parent", diagram.cost_parents)
    n = len(diagram.cost_parents)
    out += _row_violations(COST_NODE, "cost", diagram.cost_table, n, _bad_cost)
    return out


def _duplicates(node, noun, parents):
    """One violation per name listed more than once among the parents,
    leaving out the cost node, whose every mention is already one."""
    return [
        Violation(node, f"duplicate {noun} {p!r}")
        for p, count in Counter(parents).items()
        if count > 1 and p != COST_NODE
    ]


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


@dataclass(frozen=True)
class LocalStrategy:
    """Conditional table P(decision = true | scope row) for one decision."""

    decision: str
    scope: tuple
    table: dict


def local_strategy(decision, scope, column):
    """The local strategy whose table holds a column over the scope rows,
    row r being the row whose key reads r in binary."""
    rows = dict(zip(row_keys(len(scope)), column.astype(float).tolist()))
    return LocalStrategy(decision=decision, scope=scope, table=rows)


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
        expected_scope = diagram.scopes[d]
        if tuple(local.scope) != expected_scope:
            out.append(
                Violation(d, f"scope {local.scope} differs from {expected_scope}")
            )
            continue
        n = len(expected_scope)
        out += _row_violations(d, "strategy", local.table, n, _bad_probability)
    return out


class WorldCapError(RuntimeError):
    """Too many worlds to tabulate."""


def check_world_count(diagram):
    """Refuse a diagram with more than WORLD_CAP worlds, before allocating."""
    n = len(diagram.variables)
    if 2**n > WORLD_CAP:
        raise WorldCapError(f"2^{n} worlds exceed the world cap {WORLD_CAP}")


def flat_index(index, width):
    """Column indices into each row of a matrix width columns wide, as
    indices into the matrix raveled: row i's move up by i * width."""
    import numpy as np
    if len(index) == 1:
        return index
    return index + np.arange(0, len(index) * width, width)[:, None]


class WorldTable:
    """Every world of a diagram as columns over the world index.

    World i is the i-th valuation in binary counting order, so the first
    declared variable is its most significant bit.  ``values`` holds one
    Boolean row per variable, the j-th filled as 2^j blocks of false
    then true, and ``cost`` the cost of every world.  ``rows`` is the
    one reader of row tables: it gives the values of a CPT, a local
    strategy or the cost table, one per row, and every world's row, so
    a caller can work once per row and hand the result to each world.
    ``code`` and ``rows`` read over every world, or over the valuations
    of the first ``width`` declared variables, each the world where the
    later variables are all false: a table over a prefix is copied out
    to every world by repeating each entry 2^(n - width) times.  A
    table is built per query.  It keeps the joint of the strategy it
    last computed, read-only, so the calls of one query that read one
    strategy's joint compute it once; ``cost_index``, which depends on
    the diagram alone, is computed at its first use and kept.
    """

    def __init__(self, diagram):
        import numpy as np
        check_world_count(diagram)
        n = len(diagram.variables)
        self.diagram = diagram
        self.size = 1 << n
        self.position = {v: j for j, v in enumerate(diagram.variables)}
        self.values = np.zeros((n, self.size), dtype=bool)
        for j in range(n):
            self.values[j].reshape(1 << j, 2, -1)[:, 1] = True
        width = self._width(diagram.cost_parents)
        costs, code = self.rows(diagram.cost_table, diagram.cost_parents, width)
        self.cost = self._widen(costs[code], width, n)
        self._joint = None  # (strategy, its joint) last computed

    def column(self, v):
        return self.values[self.position[v]]

    @functools.cached_property
    def cost_index(self):
        """Every world's cost as an index into ``diagram.cost_values``,
        which ``distribution`` and ``mean`` read; a query that reads no
        cost distribution never computes it.  It is searched over the
        costs of the shortest declared prefix that holds the cost
        parents, and widened as ``cost`` is."""
        import numpy as np
        n = len(self.position)
        width = self._width(self.diagram.cost_parents)
        prefix = self.cost[:: 1 << (n - width)]
        return self._widen(np.searchsorted(self.diagram.cost_values, prefix), width, n)

    def _width(self, variables):
        """The length of the shortest declared prefix that holds the
        variables."""
        return 1 + max(map(self.position.__getitem__, variables), default=-1)

    def _widen(self, prefix, width, wider):
        """A column over the first width variables' valuations as one over
        the first wider variables': each entry repeated 2^(wider - width)
        times, or the column itself at the same width."""
        return prefix if wider == width else prefix.repeat(1 << (wider - width))

    def code(self, variables, width=None):
        """Every world's row key over some variables, as an index
        (``np.intp``, which indexing reads without a cast); or with a
        width, the row key of every valuation of the first width
        declared variables, which must hold the variables."""
        import numpy as np
        n = len(self.position)
        width = n if width is None else width
        step = 1 << (n - width)
        if not variables:
            return np.zeros(1 << width, dtype=np.intp)
        first, *rest = variables
        code = self.values[self.position[first], ::step].astype(np.intp)
        for v in rest:
            code <<= 1
            code |= self.values[self.position[v], ::step]
        return code

    def rows(self, table, scope, width=None):
        """(values, code) of a table keyed by row keys over scope: the
        value of row r at values[r], row r being the row whose key reads
        r in binary, and every world's row as ``code(scope, width)``."""
        import numpy as np
        values = np.array([table[key] for key in row_keys(len(scope))], dtype=float)
        return values, self.code(scope, width)

    def joint(self, strategy=None):
        """Joint probability of every world under a strategy, or with no
        strategy the product of the chance factors alone.

        A factor is P(v true) from v's CPT or local strategy where v
        holds, and 1 - P(v true) where it does not: each row's two
        factors sit side by side, and a world picks one by its row and
        v's value, with no full-size temporary but the index and the
        factors picked.  Factors are multiplied in declared variable
        order, the order of one world's chain-rule product, so the two
        agree exactly.  The product is kept over the valuations of a
        declared prefix, from the empty one on, and a factor widens it
        first to the shortest prefix that holds its variable and its
        scope.  Each world still meets the same factors in the same
        order; with every scope declared before its variable the work
        is at most 2^(n + 1) factors, not n 2^n, and never more.

        The joint is kept with the strategy object it was computed for
        (None for the chance factors alone), and asked again for that
        same object the table returns the same array.  It is read-only,
        so no caller changes what another reads.
        """
        import numpy as np
        if self._joint is not None and self._joint[0] is strategy:
            return self._joint[1]
        diagram, position = self.diagram, self.position
        p, width = np.ones(1), 0
        for v in diagram.variables:
            if diagram.kinds[v] == CHANCE:
                table, scope = diagram.cpt[v], diagram.parents.get(v, ())
            elif strategy is not None:
                local = strategy.locals[v]
                table, scope = local.table, local.scope
            else:
                continue
            need = self._width((v, *scope))
            if need > width:
                p, width = self._widen(p, width, need), need
            values, code = self.rows(table, scope, width)
            code <<= 1  # 2r where v fails in row r, 2r + 1 where it holds
            code |= self.values[position[v], :: self.size >> width]
            factors = values.repeat(2)
            np.subtract(1.0, values, out=factors[::2])
            p *= factors[code]
        p = self._widen(p, width, len(position))
        p.flags.writeable = False
        self._joint = (strategy, p)
        return p

    @staticmethod
    def mass(probability, where):
        """Total probability of the worlds where the mask holds.

        Added left to right in world order, as a per-world loop adds;
        ``np.sum`` adds pairwise and can differ in the last bits.
        """
        import numpy as np
        chosen = probability[where]
        return float(np.add.accumulate(chosen)[-1]) if chosen.size else 0.0

    def distribution(self, probability):
        """Probability of paying each cost value, given every world's.

        One ``np.bincount`` over the worlds' cost-value indices adds each
        value's worlds in world order, as ``mass`` adds them; a value no
        world pays gets 0.0.
        """
        import numpy as np
        values = self.diagram.cost_values
        p = np.bincount(self.cost_index, weights=probability, minlength=len(values))
        return dict(zip(values, p.tolist()))

    def mean(self, probability, worlds):
        """The sum of r * p over each row's cost distribution, added by
        Python's ``sum`` in ascending r, as an array of the rows' means.

        worlds is an index that picks a matrix of world-table columns
        (``np.s_[None, :]`` picks every world as one row), and
        probability is a matrix over the worlds picked.  A row's worlds
        are in world order; those it leaves out have probability 0,
        which changes no sum.  One ``np.bincount`` adds each row's
        worlds per cost value in world order from +0.0, as
        ``distribution`` adds them.
        """
        import numpy as np
        values = self.diagram.cost_values
        index = flat_index(self.cost_index[worlds], len(values))
        p = np.bincount(index.ravel(), weights=probability.ravel(),
                        minlength=len(probability) * len(values))
        rows = p.reshape(len(probability), -1).tolist()
        return np.array([sum(map(operator.mul, values, row)) for row in rows])


def cost_distribution(diagram, strategy):
    """Probability of paying each cost value under the strategy.

    ``diagram`` may also be a ``WorldTable`` already built for the query.
    """
    table = diagram if isinstance(diagram, WorldTable) else WorldTable(diagram)
    return table.distribution(table.joint(strategy))


def expected_cost(diagram, strategy):
    """Expected cost under the strategy; ``diagram`` may be a ``WorldTable``."""
    import numpy as np
    table = diagram if isinstance(diagram, WorldTable) else WorldTable(diagram)
    return float(table.mean(table.joint(strategy)[None], np.s_[None, :])[0])
