"""Context-annotated TBoxes over the variables of an influence diagram.

Each axiom carries a propositional context formula; the axiom is only
required to hold in worlds satisfying the formula.

Whether each world's restricted TBox entails c <= d is one column over
the world table.  One completion over every axiom, whatever its
context, rules the inclusion out in every world at once, since EL
entailment is monotone in the axiom set.  When it holds there, only the
axioms that completion fired can fire in any world.  Each world is one
bit of an integer mask, each fired axiom is labelled with the mask of
the worlds where its context holds, and one labelled completion decides
every world at once.
"""

from dataclasses import dataclass

from . import diagram as dg
from . import el
from ._sexpr import Scanner

__all__ = [
    "ContextFormula",
    "Var",
    "Truth",
    "Falsity",
    "Not",
    "And",
    "Or",
    "TRUE",
    "FALSE",
    "VGCI",
    "KnowledgeBase",
    "parse_formula",
    "formula_variables",
    "eval_context",
    "eval_context_column",
    "restrict",
    "entailment_column",
    "prob_subsumption",
]


@dataclass(frozen=True)
class ContextFormula:
    """Base class for propositional formulas over the diagram variables."""


@dataclass(frozen=True)
class Var(ContextFormula):
    name: str


@dataclass(frozen=True)
class Truth(ContextFormula):
    pass


@dataclass(frozen=True)
class Falsity(ContextFormula):
    pass


@dataclass(frozen=True)
class Not(ContextFormula):
    arg: ContextFormula


@dataclass(frozen=True)
class And(ContextFormula):
    left: ContextFormula
    right: ContextFormula


@dataclass(frozen=True)
class Or(ContextFormula):
    left: ContextFormula
    right: ContextFormula


TRUE = Truth()
FALSE = Falsity()


def parse_formula(text):
    """Parse a context formula.

    Grammar:

        f := NAME | "true" | "false" | "(not" f ")" | "(and" f f ")"
           | "(or" f f ")"
    """
    scanner = Scanner(text.strip())
    formula = _parse_formula(scanner)
    scanner.expect_end()
    return formula


def _parse_formula(scanner):
    if scanner.try_open("(not"):
        scanner.require_ws()
        arg = _parse_formula(scanner)
        scanner.close()
        return Not(arg)
    if scanner.try_open("(and"):
        scanner.require_ws()
        left = _parse_formula(scanner)
        scanner.require_ws()
        right = _parse_formula(scanner)
        scanner.close()
        return And(left, right)
    if scanner.try_open("(or"):
        scanner.require_ws()
        left = _parse_formula(scanner)
        scanner.require_ws()
        right = _parse_formula(scanner)
        scanner.close()
        return Or(left, right)
    if scanner.try_consume("("):
        raise scanner.error("expected 'not', 'and' or 'or' after '('")
    name = scanner.read_name()
    if name == "true":
        return TRUE
    if name == "false":
        return FALSE
    return Var(name)


def formula_variables(f):
    if isinstance(f, Var):
        return {f.name}
    if isinstance(f, Not):
        return formula_variables(f.arg)
    if isinstance(f, (And, Or)):
        return formula_variables(f.left) | formula_variables(f.right)
    return set()


def eval_context(world, f):
    """Truth value of a formula under a total valuation."""
    if isinstance(f, Truth):
        return True
    if isinstance(f, Falsity):
        return False
    if isinstance(f, Var):
        return world[f.name]
    if isinstance(f, Not):
        return not eval_context(world, f.arg)
    if isinstance(f, And):
        return eval_context(world, f.left) and eval_context(world, f.right)
    if isinstance(f, Or):
        return eval_context(world, f.left) or eval_context(world, f.right)
    raise TypeError(f"not a formula: {f!r}")


def eval_context_column(table, f):
    """Truth value of a formula in every world of a ``WorldTable``."""
    import numpy as np
    if isinstance(f, Truth):
        return np.ones(table.size, dtype=bool)
    if isinstance(f, Falsity):
        return np.zeros(table.size, dtype=bool)
    if isinstance(f, Var):
        return table.column(f.name)
    if isinstance(f, Not):
        return ~eval_context_column(table, f.arg)
    if isinstance(f, And):
        return eval_context_column(table, f.left) & eval_context_column(table, f.right)
    if isinstance(f, Or):
        return eval_context_column(table, f.left) | eval_context_column(table, f.right)
    raise TypeError(f"not a formula: {f!r}")


@dataclass(frozen=True)
class VGCI:
    """A concept inclusion required to hold only where its context is true."""

    gci: el.GCI
    context: ContextFormula


@dataclass(frozen=True)
class KnowledgeBase:
    """An influence diagram paired with a context-annotated TBox."""

    diagram: dg.InfluenceDiagram
    vtbox: tuple

    def validate(self):
        out = dg.validate(self.diagram)
        declared = set(self.diagram.variables)
        for axiom in self.vtbox:
            for name in formula_variables(axiom.context):
                if name not in declared:
                    out.append(
                        dg.Violation(name, "context mentions an undeclared variable")
                    )
        return out


def restrict(vtbox, world):
    """Classical TBox of the axioms whose contexts hold in the world."""
    return frozenset(a.gci for a in vtbox if eval_context(world, a.context))


def entailment_column(kb, table, c, d):
    """Whether each world's restricted TBox entails c <= d.

    One completion runs over every axiom, whatever its context.
    Entailment is monotone in the axiom set, so when it does not derive
    d for c, no world's restriction entails c <= d, and the column is
    all false.  Otherwise let F be the axioms whose left side it derives
    in some context.  The full completion applies every rule that the
    completion over a subset R of the axioms applies, so an axiom outside
    F never fires under R, and R entails c <= d exactly when its axioms
    in F do.  Each world is one bit of a mask, bit w for world w of the
    table: every axiom of F is labelled with its context column packed
    into that mask, and one labelled completion decides every world at
    once.
    """
    import numpy as np
    subsumers = el._completion([(a.gci, 1) for a in kb.vtbox], 1, c, d)
    if d not in subsumers[c]:
        return np.zeros(table.size, dtype=bool)
    derived = set().union(*subsumers.values())
    labelled = []
    for a in kb.vtbox:
        if a.gci.lhs in derived:
            worlds = np.packbits(eval_context_column(table, a.context), bitorder="little")
            labelled.append((a.gci, int.from_bytes(worlds.tobytes(), "little")))
    held = el._completion(labelled, (1 << table.size) - 1, c, d)[c].get(d, 0)
    bits = np.frombuffer(held.to_bytes((table.size + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(bits, count=table.size, bitorder="little").astype(bool)


def prob_subsumption(kb, strategy, c, d, context=TRUE):
    """Tightest probability of the contextual inclusion over all models.

    A world contributes its full mass when the context fails there or
    the restricted TBox entails the inclusion; any other world can be
    driven to zero satisfying mass by a countermodel.  Computed as one
    minus the excluded mass so tautologies come out exactly 1, and
    clamped at 0 against rounding (the excluded mass is never negative).
    """
    table = dg.WorldTable(kb.diagram)
    excluded = eval_context_column(table, context) & ~entailment_column(kb, table, c, d)
    return max(0.0, 1.0 - table.mass(table.joint(strategy), excluded))
