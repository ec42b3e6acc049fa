"""Knowledge-base documents on disk.

A KB document is one YAML file bundling the influence diagram, the
contextual TBox, and optionally named strategy tables:

    variables: [D, S, TA, P]
    nodes:
      D: {kind: chance, parents: [], cpt: {"": 0.3}}
      TA: {kind: decision, parents: [S]}
    cost:
      parents: [D, P, TA]
      table: {"000": 20, ...}
    tbox:
      - {lhs: Subject, rhs: Infectious, context: D}
    strategies:
      always_test_a:
        TA: {"0": 1, "1": 1}

Row keys concatenate parent values as '0'/'1' characters in declared
parent order (quote them: YAML would read a bare 01 as the integer 1).
Strategy rows are keyed over the decision's conditioning scope, i.e.
its influence set in declared variable order (just its parents when
loaded in forgetful mode).

A model document (see the bundled ``idelium_model`` fixture) instead
stores an explicit weighted family of world-tagged interpretations plus
optional named (probability, cost) overlays for conditional-cost
experiments.
"""

from dataclasses import dataclass

import yaml
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
from yaml.cyaml import CParser
from yaml.resolver import Resolver

from . import diagram as dg
from . import el
from .contextual import KnowledgeBase, ModelEntry, ProbabilisticInterpretation, VGCI
from .contextual import FALSE, TRUE, parse_formula
from .el import parse_concept

__all__ = [
    "KBLoadError",
    "KBDocument",
    "ModelDocument",
    "load_kb_text",
    "load_kb_document",
    "load_model_text",
]


class KBLoadError(ValueError):
    """The document does not match the KB file schema."""


# Deepest nesting of YAML nodes a document may use.  KB and model
# documents need about five levels; composition recurses once per level.
MAX_YAML_DEPTH = 100


class _Loader(Composer, CParser, SafeConstructor, Resolver):
    """libyaml's C scanner and parser under PyYAML's Python composer.

    ``yaml.CSafeLoader`` composes in C without a depth limit, and a
    document nested some tens of thousands of levels deep kills the
    process.  Here ``Composer`` precedes ``CParser`` in the bases, so the
    Python composer, which counts the depth, builds the nodes.
    """

    def __init__(self, text):
        CParser.__init__(self, text)
        Composer.__init__(self)
        SafeConstructor.__init__(self)
        Resolver.__init__(self)
        self.depth = 0

    def compose_node(self, parent, index):
        self.depth += 1
        if self.depth > MAX_YAML_DEPTH:
            mark = self.peek_event().start_mark
            raise KBLoadError(
                f"not valid YAML: nested more than {MAX_YAML_DEPTH} levels deep "
                f"at line {mark.line + 1}, column {mark.column + 1}"
            )
        node = Composer.compose_node(self, parent, index)
        self.depth -= 1
        return node


def _parse_yaml(text):
    """The one YAML entry point: the data of a single document."""
    try:
        return _Loader(text).get_single_data()
    except (yaml.YAMLError, UnicodeEncodeError) as exc:
        # PyYAML's messages span several lines; the CLI prints one
        raise KBLoadError(f"not valid YAML: {' '.join(str(exc).split())}") from exc


@dataclass(frozen=True)
class KBDocument:
    kb: KnowledgeBase
    strategies: dict

    def strategy(self, name):
        try:
            return self.strategies[name]
        except KeyError:
            known = ", ".join(sorted(self.strategies)) or "none"
            raise KBLoadError(f"unknown strategy {name!r} (known: {known})") from None


def _require_mapping(value, what):
    if not isinstance(value, dict):
        raise KBLoadError(f"{what} must be a mapping, got {type(value).__name__}")
    return value


def _require_list(value, what):
    if not isinstance(value, list):
        raise KBLoadError(f"{what} must be a list, got {type(value).__name__}")
    return value


# Names and expressions must be strings: str() of a list that repeats YAML
# aliases grows exponentially with its nesting.


def _text(value, what):
    if not isinstance(value, str):
        raise KBLoadError(f"{what} must be a string, got {type(value).__name__}")
    return value


def _names(value, what):
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise KBLoadError(f"{what} must be a list of names")
    return value


def _str_keys(mapping):
    return {str(k): v for k, v in mapping.items()}


def _is_number(value):
    # YAML true/false load as bool, which Python counts as an int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _number(value, what):
    if not _is_number(value):
        raise KBLoadError(f"{what} is not a number")
    return float(value)


def _row_table(raw, what):
    table = {}
    for k, v in _require_mapping(raw, what).items():
        key = str(k)
        if set(key) - {"0", "1"} and key != "":
            raise KBLoadError(f"{what}: row key {key!r} is not a '0'/'1' string")
        if not _is_number(v):
            raise KBLoadError(f"{what}: row {key!r} value is not a number")
        table[key] = float(v)
    return table


def load_kb_text(text, forgetful=False):
    raw = _require_mapping(_parse_yaml(text), "document")

    variables = tuple(_names(raw.get("variables"), "'variables'"))

    kinds, parents, cpt = {}, {}, {}
    nodes = _str_keys(_require_mapping(raw.get("nodes", {}), "'nodes'"))
    for v in variables:
        spec = _require_mapping(nodes.get(v, {}), f"node {v!r}")
        kinds[v] = spec.get("kind")
        parents[v] = tuple(_names(spec.get("parents", []), f"node {v!r}: 'parents'"))
        if "cpt" in spec:
            cpt[v] = _row_table(spec["cpt"], f"node {v!r} cpt")
    for name in nodes:
        if name not in variables:
            raise KBLoadError(f"node {name!r} is not a declared variable")

    cost = _require_mapping(raw.get("cost", {}), "'cost'")
    cost_parents = tuple(_names(cost.get("parents", []), "'cost.parents'"))
    cost_table_raw = _require_mapping(cost.get("table", {}), "'cost.table'")
    cost_table = {}
    for k, v in cost_table_raw.items():
        key = str(k)
        if not _is_number(v):
            raise KBLoadError(f"cost row {key!r} value is not a number")
        cost_table[key] = float(v)

    diagram = dg.InfluenceDiagram(
        variables=variables,
        kinds=kinds,
        parents=parents,
        cpt=cpt,
        cost_parents=cost_parents,
        cost_table=cost_table,
    )

    vtbox = []
    for i, item in enumerate(_require_list(raw.get("tbox") or [], "'tbox'")):
        what = f"tbox[{i}]"
        item = _require_mapping(item, what)
        try:
            lhs = parse_concept(_text(item["lhs"], f"{what}: 'lhs'"))
            rhs = parse_concept(_text(item["rhs"], f"{what}: 'rhs'"))
            context = item.get("context", "true")
            if isinstance(context, bool):  # an unquoted true or false
                context = TRUE if context else FALSE
            else:
                context = parse_formula(_text(context, f"{what}: 'context'"))
        except KeyError as exc:
            raise KBLoadError(f"{what}: missing field {exc}") from exc
        except el.ParseError as exc:
            raise KBLoadError(f"{what}: {exc}") from exc
        vtbox.append(VGCI(gci=el.GCI(lhs, rhs), context=context))
    kb = KnowledgeBase(diagram=diagram, vtbox=tuple(vtbox))

    strategies = {}
    for name, tables in _require_mapping(raw.get("strategies", {}) or {}, "'strategies'").items():
        tables = _require_mapping(tables, f"strategy {name!r}")
        locals_ = {}
        for decision, rows in tables.items():
            decision = str(decision)
            if kinds.get(decision) != dg.DECISION:
                raise KBLoadError(
                    f"strategy {name!r}: {decision!r} is not a decision node"
                )
            scope = dg.strategy_scope(diagram, decision, forgetful=forgetful)
            locals_[decision] = dg.LocalStrategy(
                decision=decision,
                scope=scope,
                table=_row_table(rows, f"strategy {name!r} for {decision!r}"),
            )
        strategies[str(name)] = dg.GlobalStrategy(locals=locals_)
    return KBDocument(kb=kb, strategies=strategies)


def load_kb_document(path, forgetful=False):
    with open(path, "r", encoding="utf-8") as handle:
        return load_kb_text(handle.read(), forgetful=forgetful)


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
    raw = _require_mapping(_parse_yaml(text), "document")
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
            interp = el.FiniteInterpretation(
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
