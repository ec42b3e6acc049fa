"""Context-annotated TBoxes over the variables of an influence diagram.

Each axiom carries a propositional context formula; the axiom is only
required to hold in worlds satisfying the formula.  A probabilistic
interpretation tags finitely many finite EL interpretations with worlds
and weights; it models a knowledge base w.r.t. a strategy when every
entry satisfies every contextual axiom and the per-world weight totals
match the strategy-induced joint distribution.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import diagram as dg
from . import el
from ._sexpr import Scanner

WEIGHT_TOL = 1e-9

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
    "ModelEntry",
    "ProbabilisticInterpretation",
    "parse_formula",
    "print_formula",
    "formula_variables",
    "eval_context",
    "eval_context_column",
    "restrict",
    "restriction_groups",
    "entailment_column",
    "satisfies_vgci",
    "is_tbox_model",
    "is_consistent_with",
    "is_model",
    "build_trivial_model",
    "prob_subsumption_in_model",
    "prob_subsumption",
    "context_size_cost",
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


def print_formula(f):
    if isinstance(f, Truth):
        return "true"
    if isinstance(f, Falsity):
        return "false"
    if isinstance(f, Var):
        return f.name
    if isinstance(f, Not):
        return f"(not {print_formula(f.arg)})"
    if isinstance(f, And):
        return f"(and {print_formula(f.left)} {print_formula(f.right)})"
    if isinstance(f, Or):
        return f"(or {print_formula(f.left)} {print_formula(f.right)})"
    raise TypeError(f"not a formula: {f!r}")


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


def restriction_groups(vtbox, table):
    """The worlds of a table grouped by their axiom-context truth vector.

    Returns the restricted TBox of each group and, per world, the index
    of its group.  Each world's truth vector is packed into one integer
    key, re-numbered densely every 40 axioms so it fits in 64 bits.
    """
    key = np.zeros(table.size, dtype=np.int64)
    for i, axiom in enumerate(vtbox):
        if i and i % 40 == 0:
            key = np.unique(key, return_inverse=True)[1]
        key = (key << 1) | eval_context_column(table, axiom.context)
    _keys, first, group = np.unique(key, return_index=True, return_inverse=True)
    tboxes = [restrict(vtbox, table.world(i)) for i in first.tolist()]
    return tboxes, group


def entailment_column(kb, table, c, d):
    """Whether each world's restricted TBox entails c <= d.

    Entailment is decided once per distinct axiom-context truth vector.
    """
    tboxes, group = restriction_groups(kb.vtbox, table)
    held = np.array([el.is_subsumed(tbox, c, d) for tbox in tboxes], dtype=bool)
    return held[group]


def satisfies_vgci(interp, world, axiom):
    """Vacuous when the context fails, otherwise a model check."""
    if not eval_context(world, axiom.context):
        return True
    return el.check_gci_on_interpretation(interp, axiom.gci)


@dataclass(frozen=True)
class ModelEntry:
    """One weighted, world-tagged finite interpretation."""

    interp: el.FiniteInterpretation
    world: dict
    weight: float


@dataclass(frozen=True)
class ProbabilisticInterpretation:
    """Finitely many world-tagged interpretations with a distribution."""

    entries: tuple

    def __post_init__(self):
        total = 0.0
        for e in self.entries:
            if e.weight < 0:
                raise ValueError("negative weight")
            total += e.weight
        if abs(total - 1.0) > WEIGHT_TOL:
            raise ValueError(f"weights sum to {total}, not 1")


def is_tbox_model(pi, vtbox):
    return all(
        satisfies_vgci(e.interp, e.world, a) for e in pi.entries for a in vtbox
    )


def is_consistent_with(pi, diagram, strategy):
    """Per-world weight totals match the strategy-induced joint distribution."""
    table = dg.WorldTable(diagram)
    totals = [0.0] * table.size
    for e in pi.entries:
        totals[table.index(e.world)] += e.weight
    return not np.any(np.abs(np.array(totals) - table.joint(strategy)) > WEIGHT_TOL)


def is_model(pi, kb, strategy):
    return is_tbox_model(pi, kb.vtbox) and is_consistent_with(
        pi, kb.diagram, strategy
    )


def build_trivial_model(kb, strategy):
    """One universal single-element interpretation per world, weighted by
    the joint distribution.

    The universal interpretation puts its one element in every concept
    of the TBox signature and loops it through every role, so every
    extension evaluates to the whole domain and every inclusion holds
    (an empty-extension element would miss axioms with top on the
    left).  The result therefore always models the KB.
    """
    concepts, roles = el.signature(a.gci for a in kb.vtbox)
    universal = el.FiniteInterpretation(
        domain=frozenset({"d0"}),
        concept_ext={name: frozenset({"d0"}) for name in concepts},
        role_ext={role: frozenset({("d0", "d0")}) for role in roles},
    )
    weights = dg.WorldTable(kb.diagram).joint(strategy).tolist()
    entries = tuple(
        ModelEntry(interp=universal, world=world, weight=weight)
        for world, weight in zip(kb.diagram.worlds(), weights)
    )
    return ProbabilisticInterpretation(entries=entries)


def prob_subsumption_in_model(pi, c, d, context=TRUE):
    """Weight of the entries satisfying the contextual inclusion."""
    axiom = VGCI(el.GCI(c, d), context)
    return sum(
        e.weight for e in pi.entries if satisfies_vgci(e.interp, e.world, axiom)
    )


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


def context_size_cost(kb, mode="axiom-count"):
    """Derived diagram whose cost is the size of the per-world restriction.

    mode "axiom-count" counts axioms; "vocabulary-size" counts distinct
    concept names plus distinct role names in the restricted TBox.  The
    cost node of the returned diagram has every variable as a parent.
    """
    if mode not in ("axiom-count", "vocabulary-size"):
        raise ValueError(f"unknown mode {mode!r}")
    d = kb.diagram
    table = dg.WorldTable(d)
    tboxes, group = restriction_groups(kb.vtbox, table)
    sizes = []
    for restricted in tboxes:
        if mode == "axiom-count":
            sizes.append(len(restricted))
        else:
            concepts, roles = el.signature(restricted)
            sizes.append(len(concepts) + len(roles))
    return dataclasses.replace(
        d,
        cost_parents=d.variables,
        cost_table=dict(zip(table.rowkeys(), np.array(sizes)[group].tolist())),
    )
