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

from . import diagram as dg
from . import el
from .contextual import KnowledgeBase, ModelEntry, ProbabilisticInterpretation, VGCI
from .contextual import parse_formula
from .el import parse_concept

__all__ = [
    "KBLoadError",
    "KBDocument",
    "ModelDocument",
    "load_kb_text",
    "load_kb_document",
    "load_model_text",
    "load_model_document",
]


class KBLoadError(ValueError):
    """The document does not match the KB file schema."""


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


def _str_keys(mapping):
    return {str(k): v for k, v in mapping.items()}


def _is_number(value):
    # YAML true/false load as bool, which Python counts as an int
    return isinstance(value, (int, float)) and not isinstance(value, bool)


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
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise KBLoadError(f"not valid YAML: {exc}") from exc
    raw = _require_mapping(raw, "document")

    variables = raw.get("variables")
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise KBLoadError("'variables' must be a list of names")
    variables = tuple(variables)

    kinds, parents, cpt = {}, {}, {}
    nodes = _str_keys(_require_mapping(raw.get("nodes", {}), "'nodes'"))
    for v in variables:
        spec = _require_mapping(nodes.get(v, {}), f"node {v!r}")
        kinds[v] = spec.get("kind")
        node_parents = spec.get("parents", [])
        if not isinstance(node_parents, list):
            raise KBLoadError(f"node {v!r}: 'parents' must be a list")
        parents[v] = tuple(str(p) for p in node_parents)
        if "cpt" in spec:
            cpt[v] = _row_table(spec["cpt"], f"node {v!r} cpt")
    for name in nodes:
        if name not in variables:
            raise KBLoadError(f"node {name!r} is not a declared variable")

    cost = _require_mapping(raw.get("cost", {}), "'cost'")
    cost_parents = cost.get("parents", [])
    if not isinstance(cost_parents, list):
        raise KBLoadError("'cost.parents' must be a list")
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
        cost_parents=tuple(str(p) for p in cost_parents),
        cost_table=cost_table,
    )

    vtbox = []
    for i, item in enumerate(raw.get("tbox", []) or []):
        item = _require_mapping(item, f"tbox[{i}]")
        try:
            vtbox.append(
                VGCI(
                    gci=el.GCI(
                        parse_concept(str(item["lhs"])),
                        parse_concept(str(item["rhs"])),
                    ),
                    context=parse_formula(str(item.get("context", "true"))),
                )
            )
        except KeyError as exc:
            raise KBLoadError(f"tbox[{i}]: missing field {exc}") from exc
        except el.ParseError as exc:
            raise KBLoadError(f"tbox[{i}]: {exc}") from exc
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


def load_model_text(text):
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise KBLoadError(f"not valid YAML: {exc}") from exc
    raw = _require_mapping(raw, "document")
    variables = tuple(str(v) for v in raw.get("variables", []))
    domain = frozenset(str(x) for x in raw.get("domain", []))
    entries = []
    for i, item in enumerate(raw.get("entries", [])):
        item = _require_mapping(item, f"entries[{i}]")
        world = dg.world_from_bits(str(item["world"]), variables)
        concept_ext = {
            str(name): frozenset(str(x) for x in elems)
            for name, elems in _require_mapping(
                item.get("concepts", {}), f"entries[{i}].concepts"
            ).items()
        }
        role_ext = {
            str(role): frozenset(
                (str(x), str(y)) for x, y in pairs
            )
            for role, pairs in _require_mapping(
                item.get("roles", {}) or {}, f"entries[{i}].roles"
            ).items()
        }
        entries.append(
            ModelEntry(
                interp=el.FiniteInterpretation(
                    domain=domain, concept_ext=concept_ext, role_ext=role_ext
                ),
                world=world,
                weight=float(item["weight"]),
            )
        )
    overlays = {}
    for name, pairs in _require_mapping(
        raw.get("cost_overlays", {}) or {}, "'cost_overlays'"
    ).items():
        overlays[str(name)] = [(float(p), float(c)) for p, c in pairs]
    return ModelDocument(
        variables=variables,
        model=ProbabilisticInterpretation(entries=tuple(entries)),
        cost_overlays=overlays,
    )


def load_model_document(path):
    with open(path, "r", encoding="utf-8") as handle:
        return load_model_text(handle.read())
