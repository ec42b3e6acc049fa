"""Seeded knowledge-base generator for the benchmark workloads.

Every generated KB has a fixed shape per workload: variable count,
decision positions, parent counts, and a TBox and query pairs that are
the same for every seed up to a renaming of concepts and of context
variables.  The seed picks that renaming, the parents, probabilities,
costs and strategies.  The entailment work per query therefore does not
depend on the seed, so runs with different seeds can be compared.

The generator is self-contained: it does not import ``cider`` and does
not share code with the test suite.  Documents are written with sorted
mapping keys and double-quoted row keys, so one seed always gives the
same bytes.
"""

import itertools
import json
import random
from dataclasses import dataclass, field

CONCEPTS = tuple(f"A{i}" for i in range(8))
COSTS = (0, 1, 2, 5, 10, 20, 50, 90)

# One axiom template per shape; X, Y, Z are distinct concept names.
AXIOM_TEMPLATES = (
    ("{X}", "{Y}"),
    ("(and {X} {Y})", "{Z}"),
    ("{X}", "(some r {Y})"),
    ("(some r {X})", "{Y}"),
    ("{X}", "(and {Y} {Z})"),
    ("(some s (and {X} {Y}))", "{Z}"),
)
QUERY_TEMPLATES = (
    ("{X}", "{Y}"),
    ("(and {X} {Y})", "{Z}"),
    ("(some r {X})", "{Y}"),
)


def rowkeys(n):
    return ["".join(bits) for bits in itertools.product("01", repeat=n)]


def rowkey(world, names):
    return "".join("1" if world[v] else "0" for v in names)


# Context formulas are nested tuples: ("var", v), ("not", f),
# ("and", f, g), ("or", f, g).


def formula_text(f):
    if f[0] == "var":
        return f[1]
    if f[0] == "not":
        return f"(not {formula_text(f[1])})"
    return f"({f[0]} {formula_text(f[1])} {formula_text(f[2])})"


def eval_formula(f, world):
    op = f[0]
    if op == "var":
        return world[f[1]]
    if op == "not":
        return not eval_formula(f[1], world)
    if op == "and":
        return eval_formula(f[1], world) and eval_formula(f[2], world)
    return eval_formula(f[1], world) or eval_formula(f[2], world)


def _num(x):
    return str(x) if isinstance(x, int) else repr(x)


def _rows(table):
    return "{" + ", ".join(f'"{k}": {_num(table[k])}' for k in sorted(table)) + "}"


@dataclass
class KBSpec:
    """One generated KB: the data written to disk plus the queries to ask."""

    name: str
    variables: tuple
    kinds: dict
    parents: dict
    cpt: dict
    cost_parents: tuple
    cost_table: dict
    tbox: list  # (lhs text, rhs text, context formula)
    strategies: dict  # name -> {decision: {row: probability}}
    concept_pairs: list = field(default_factory=list)
    world_bits: str = ""

    @property
    def decisions(self):
        return tuple(v for v in self.variables if self.kinds[v] == "decision")

    def scope(self, decision):
        """Influence set in declared order: decision ancestors and parents."""
        ancestors, stack = set(), list(self.parents[decision])
        while stack:
            p = stack.pop()
            if p not in ancestors:
                ancestors.add(p)
                stack.extend(self.parents[p])
        members = {a for a in ancestors if self.kinds[a] == "decision"}
        members |= set(self.parents[decision])
        return tuple(v for v in self.variables if v in members)

    def to_yaml(self):
        lines = ["cost:", f"  parents: [{', '.join(self.cost_parents)}]", "  table:"]
        lines += [f'    "{k}": {_num(self.cost_table[k])}' for k in sorted(self.cost_table)]
        lines.append("nodes:")
        for v in sorted(self.variables):
            parts = [f"cpt: {_rows(self.cpt[v])}"] if v in self.cpt else []
            parts.append(f"kind: {self.kinds[v]}")
            parts.append(f"parents: [{', '.join(self.parents[v])}]")
            lines.append(f"  {v}: {{{', '.join(parts)}}}")
        lines.append("strategies:")
        for name in sorted(self.strategies):
            lines.append(f"  {name}:")
            for d in sorted(self.strategies[name]):
                lines.append(f"    {d}: {_rows(self.strategies[name][d])}")
        lines.append("tbox:")
        for lhs, rhs, context in self.tbox:
            lines.append(
                f"  - {{context: {json.dumps(formula_text(context))}, "
                f"lhs: {json.dumps(lhs)}, rhs: {json.dumps(rhs)}}}"
            )
        lines.append(f"variables: [{', '.join(self.variables)}]")
        return "\n".join(lines) + "\n"

    def shape(self):
        """Input properties the query cost depends on."""
        n = len(self.variables)
        restrictions = set()
        for bits in itertools.product((False, True), repeat=n):
            world = dict(zip(self.variables, bits))
            restrictions.add(
                tuple(i for i, ax in enumerate(self.tbox) if eval_formula(ax[2], world))
            )
        # parents always precede children, so the game tree expands the
        # variables in declared order and decision i has 2**position nodes
        tree_nodes = sum(2 ** self.variables.index(d) for d in self.decisions)
        return {
            "variables": n,
            "worlds": 2**n,
            "decisions": len(self.decisions),
            "pure_strategies": 2 ** sum(2 ** len(self.scope(d)) for d in self.decisions),
            "axioms": len(self.tbox),
            "distinct_restrictions": len(restrictions),
            "tree_sequences": 1 + 2 * tree_nodes,
        }


def _names(n):
    return tuple(f"V{i:02d}" for i in range(n))


def _cpt(rng, n_parents):
    return {k: round(rng.uniform(0.05, 0.95), 3) for k in rowkeys(n_parents)}


def _fill(template, shape, concepts):
    x, y, z = (concepts[i] for i in shape.sample(range(len(concepts)), 3))
    return tuple(part.format(X=x, Y=y, Z=z) for part in template)


def _literal(rng, v):
    return ("var", v) if rng.random() < 0.5 else ("not", ("var", v))


def _contexts(rng, pool, count):
    """Equal numbers of literal, conjunctive and disjunctive contexts, so
    the share of worlds where each kind holds does not depend on the seed."""
    out = []
    for i in range(count):
        if i % 3 == 0:
            out.append(_literal(rng, rng.choice(pool)))
        else:
            a, b = rng.sample(pool, 2)
            out.append(("and" if i % 3 == 1 else "or", _literal(rng, a), _literal(rng, b)))
    rng.shuffle(out)
    return out


def _tbox(shape, concepts, contexts):
    return [
        _fill(AXIOM_TEMPLATES[i % len(AXIOM_TEMPLATES)], shape, concepts) + (ctx,)
        for i, ctx in enumerate(contexts)
    ]


def _pure_table(rng, scope_len):
    return {k: rng.randint(0, 1) for k in rowkeys(scope_len)}


def _mixed_table(rng, scope_len):
    return {k: round(rng.uniform(0.1, 0.9), 3) for k in rowkeys(scope_len)}


def _build(rng, name, n, decision_parents, chance_parents, n_cost_parents,
           n_axioms, n_pairs, strategy_tables, fixed_parents=None, context_vars=None):
    """KB over V00..V{n-1}.

    decision_parents maps a decision's position to its parents' positions;
    every other position is a chance node with ``chance_parents`` parents
    from earlier positions: those in ``fixed_parents``, the rest drawn.
    Contexts mention ``context_vars`` chance variables, or all variables.
    """
    fixed_parents = fixed_parents or {}
    variables = _names(n)
    kinds, parents, cpt = {}, {}, {}
    for i, v in enumerate(variables):
        if i in decision_parents:
            kinds[v] = "decision"
            parents[v] = tuple(variables[j] for j in decision_parents[i])
            continue
        kinds[v] = "chance"
        k = min(i, chance_parents)
        chosen = {variables[j] for j in fixed_parents.get(i, ())}
        others = [u for u in variables[:i] if u not in chosen]
        chosen |= set(rng.sample(others, k - len(chosen)))
        parents[v] = tuple(u for u in variables if u in chosen)
        cpt[v] = _cpt(rng, k)
    decisions = [v for v in variables if kinds[v] == "decision"]
    chance = [v for v in variables if kinds[v] == "chance"]
    extra = rng.sample(chance, n_cost_parents - len(decisions))
    cost_parents = tuple(v for v in variables if v in decisions or v in extra)
    cost_table = {k: rng.choice(COSTS) for k in rowkeys(len(cost_parents))}
    # the seed renames concepts and context variables; the structure of
    # the TBox and of the query pairs comes from a generator fixed per KB
    shape = random.Random(f"shape:{name}")
    concepts = rng.sample(CONCEPTS, len(CONCEPTS))
    pool = rng.sample(variables if context_vars is None else chance,
                      context_vars or len(variables))
    spec = KBSpec(
        name=name,
        variables=variables,
        kinds=kinds,
        parents=parents,
        cpt=cpt,
        cost_parents=cost_parents,
        cost_table=cost_table,
        tbox=_tbox(shape, concepts, _contexts(shape, pool, n_axioms)),
        strategies={},
    )
    for sname, make in strategy_tables.items():
        spec.strategies[sname] = {
            d: make(rng, len(spec.scope(d))) for d in decisions
        }
    spec.concept_pairs = [
        _fill(QUERY_TEMPLATES[i % len(QUERY_TEMPLATES)], shape, concepts)
        for i in range(n_pairs)
    ]
    spec.world_bits = "".join(rng.choice("01") for _ in variables)
    return spec


def world_queries(rng):
    """One KB with 11 variables (2048 worlds) and 2 root decisions (4 pure
    strategies); 12 axioms whose contexts mention only 4 chance variables,
    so at most 16 distinct restricted TBoxes exist."""
    return [
        _build(
            rng, "wq", 11,
            decision_parents={0: (), 1: ()},
            chance_parents=2,
            n_cost_parents=4,
            context_vars=4,
            n_axioms=12,
            n_pairs=3,
            strategy_tables={"mixed": _mixed_table, "pure": _pure_table},
        )
    ]


def strategy_search(rng):
    """(a) 7 variables, two chained decisions with 64 pure strategies and
    contexts over all variables; (b) three KBs with 10 variables and 5
    parentless decisions at positions 2, 3, 5, 7, 8, giving 857 LP
    sequences each.  The simplex's pivot count depends on the numbers in
    the KB, so the LP metric takes the median over three KBs."""
    search = _build(
        rng, "ss", 7,
        # V02 sees V01; V05 sees V03, which depends on V02, so V05's
        # scope is (V02, V03): 2 + 4 table rows, 2**6 pure strategies
        decision_parents={2: (1,), 5: (3,)},
        fixed_parents={3: (2,)},
        chance_parents=2,
        n_cost_parents=4,
        n_axioms=8,
        n_pairs=1,
        strategy_tables={"mixed": _mixed_table},
    )
    trees = [
        _build(
            rng, f"lp{i}", 10,
            decision_parents={2: (), 3: (), 5: (), 7: (), 8: ()},
            chance_parents=2,
            n_cost_parents=6,
            n_axioms=4,
            n_pairs=1,
            strategy_tables={"pure": _pure_table},
        )
        for i in range(3)
    ]
    return [search, *trees]


def small_kbs(rng, count=40):
    """KBs the size of the bundled idelium example: 4 or 5 variables with
    one decision, or 6 with two.  A pure strategy leaves at most 16
    worlds with positive probability, within the subset oracle's limit."""
    out = []
    for i in range(count):
        n = 4 + i % 3
        # the first decision sees one earlier variable; a second one sees
        # none, so there are 4 or 8 pure strategies, as in idelium
        positions = sorted(rng.sample(range(1, n), 1 if n < 6 else 2))
        decision_parents = {positions[0]: (rng.randrange(positions[0]),)}
        decision_parents.update({p: () for p in positions[1:]})
        out.append(
            _build(
                rng, f"small{i:02d}", n,
                decision_parents=decision_parents,
                chance_parents=2,
                n_cost_parents=3,
                n_axioms=3 + i % 3,
                n_pairs=1,
                strategy_tables={"pure": _pure_table},
            )
        )
    return out


WORKLOADS = {
    "world-queries": world_queries,
    "strategy-search": strategy_search,
    "small-kbs": small_kbs,
}


def generate(workload, seed):
    """The workload's KB specs; the same (workload, seed) gives the same KBs."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
