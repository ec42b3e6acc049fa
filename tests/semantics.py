"""The paper's model semantics and the per-world references, as oracles.

A probabilistic interpretation tags finitely many finite EL
interpretations with worlds and weights; it models a knowledge base
w.r.t. a strategy when every entry satisfies every contextual axiom and
the per-world weight totals match the strategy-induced joint
distribution.  ``prob-subsume`` and ``cond-cost`` are extremes over
such models, and every command answers them from the world table and
the labelled completion instead; the model checks here, the loader of
the bundled ``idelium_model`` document, and the one-world-at-a-time
joint, cost and conditional expectation are what the tests hold those
answers to.
"""

from dataclasses import dataclass

from cider import diagram as dg
from cider import el, kbfile
from cider.contextual import TRUE, VGCI, And, Falsity, Not, Or, Truth, Var, eval_context
from cider.diagram import CHANCE, rowkey
from cider.el import ConceptName, Conjunction, Existential, Top
from cider.evidence import UndefinedConditionalError
from cider.kbfile import KBLoadError, _names, _number, _require_list, _require_mapping, _text

WEIGHT_TOL = 1e-9


def print_concept(concept):
    """Canonical, fully parenthesized rendering; parse(print(c)) == c."""
    if isinstance(concept, Top):
        return "top"
    if isinstance(concept, ConceptName):
        return concept.name
    if isinstance(concept, Conjunction):
        return f"(and {print_concept(concept.left)} {print_concept(concept.right)})"
    if isinstance(concept, Existential):
        return f"(some {concept.role} {print_concept(concept.filler)})"
    raise TypeError(f"not a concept: {concept!r}")


def signature(axioms):
    """Distinct concept names and role names occurring in the axioms."""
    concepts, roles = set(), set()

    def walk(c):
        if isinstance(c, ConceptName):
            concepts.add(c.name)
        elif isinstance(c, Conjunction):
            walk(c.left)
            walk(c.right)
        elif isinstance(c, Existential):
            roles.add(c.role)
            walk(c.filler)

    for gci in axioms:
        walk(gci.lhs)
        walk(gci.rhs)
    return concepts, roles


@dataclass(frozen=True)
class FiniteInterpretation:
    """Explicit finite interpretation: a domain plus concept/role extensions."""

    domain: frozenset
    concept_ext: dict
    role_ext: dict

    def __post_init__(self):
        for name, ext in self.concept_ext.items():
            stray = set(ext) - self.domain
            if stray:
                raise ValueError(f"extension of {name} leaves the domain: {stray}")
        for role, pairs in self.role_ext.items():
            for x, y in pairs:
                if x not in self.domain or y not in self.domain:
                    raise ValueError(f"extension of role {role} leaves the domain")

    def extension(self, concept):
        """Evaluate a complex concept bottom-up over the finite domain."""
        if isinstance(concept, Top):
            return set(self.domain)
        if isinstance(concept, ConceptName):
            return set(self.concept_ext.get(concept.name, ()))
        if isinstance(concept, Conjunction):
            return self.extension(concept.left) & self.extension(concept.right)
        if isinstance(concept, Existential):
            filler = self.extension(concept.filler)
            pairs = self.role_ext.get(concept.role, ())
            return {x for x, y in pairs if y in filler}
        raise TypeError(f"not a concept: {concept!r}")


def check_gci_on_interpretation(interp, gci):
    """Model checking: the lhs extension is contained in the rhs extension."""
    return interp.extension(gci.lhs) <= interp.extension(gci.rhs)


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


def satisfies_vgci(interp, world, axiom):
    """Vacuous when the context fails, otherwise a model check."""
    if not eval_context(world, axiom.context):
        return True
    return check_gci_on_interpretation(interp, axiom.gci)


@dataclass(frozen=True)
class ModelEntry:
    """One weighted, world-tagged finite interpretation."""

    interp: FiniteInterpretation
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
    import numpy as np
    table = dg.WorldTable(diagram)
    totals = [0.0] * table.size
    for e in pi.entries:
        totals[int(diagram.bits(e.world) or "0", 2)] += e.weight
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
    concepts, roles = signature(a.gci for a in kb.vtbox)
    universal = FiniteInterpretation(
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


def conditional_expectation(outcomes):
    """Expectation of (probability, cost) outcomes normalized by total mass."""
    total = 0.0
    weighted = 0.0
    for p, c in outcomes:
        total += p
        weighted += p * c
    if total <= 0.0:
        raise UndefinedConditionalError("total probability is zero")
    return weighted / total


@dataclass(frozen=True)
class ModelDocument:
    variables: tuple
    model: ProbabilisticInterpretation
    cost_overlays: dict  # name -> [(probability, cost), ...]


def _pairs(raw, what):
    pairs = _require_list(raw, what)
    for j, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2:
            raise KBLoadError(f"{what}[{j}] is not a pair")
    return pairs


def load_model_text(text):
    raw = _require_mapping(kbfile._parse_yaml(text), "document")
    variables = tuple(_names(raw.get("variables", []), "'variables'"))
    domain = frozenset(_names(raw.get("domain", []), "'domain'"))
    entries = []
    for i, item in enumerate(_require_list(raw.get("entries", []) or [], "'entries'")):
        what = f"entries[{i}]"
        item = _require_mapping(item, what)
        for field in ("world", "weight"):
            if field not in item:
                raise KBLoadError(f"{what}: missing field {field!r}")
        bits = _text(item["world"], f"{what}: 'world'")
        try:
            world = dg.world_from_bits(bits, variables)
        except ValueError as exc:
            raise KBLoadError(f"{what}: {exc}") from None
        concept_ext = {
            str(name): frozenset(_names(elems, f"{what}.concepts.{name}"))
            for name, elems in _require_mapping(
                item.get("concepts", {}), f"{what}.concepts"
            ).items()
        }
        role_ext = {
            str(role): frozenset(
                tuple(_names(pair, f"{what}.roles.{role}[{j}]"))
                for j, pair in enumerate(_pairs(pairs, f"{what}.roles.{role}"))
            )
            for role, pairs in _require_mapping(
                item.get("roles", {}) or {}, f"{what}.roles"
            ).items()
        }
        try:
            interp = FiniteInterpretation(
                domain=domain, concept_ext=concept_ext, role_ext=role_ext
            )
        except ValueError as exc:
            raise KBLoadError(f"{what}: {exc}") from None
        weight = _number(item["weight"], f"{what}: 'weight'")
        entries.append(ModelEntry(interp=interp, world=world, weight=weight))
    overlays = {}
    for name, pairs in _require_mapping(
        raw.get("cost_overlays", {}) or {}, "'cost_overlays'"
    ).items():
        what = f"cost overlay {name!r}"
        overlays[str(name)] = [
            (_number(p, f"{what}: probability"), _number(c, f"{what}: cost"))
            for p, c in _pairs(pairs, what)
        ]
    try:
        model = ProbabilisticInterpretation(entries=tuple(entries))
    except ValueError as exc:
        raise KBLoadError(f"'entries': {exc}") from None
    return ModelDocument(variables=variables, model=model, cost_overlays=overlays)
