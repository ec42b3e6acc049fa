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
Strategy rows are keyed over the decision's conditioning scope, held
in the diagram's ``scopes``: its influence set in declared variable
order, or just its parents when the diagram is loaded as a LIMID (see
``load_kb_text``).

It is read by ``_parse_yaml``: one pass over the events of libyaml's
parser builds the data directly, with PyYAML's resolver and safe
constructors for scalars.  The data equals ``yaml.safe_load``'s, anchors
and aliases included, except that merge keys (``<<``) and collections
with an explicit tag other than ``!!map`` or ``!!seq`` are refused, and
a document may nest at most ``MAX_YAML_DEPTH`` levels.
"""

from dataclasses import dataclass

import yaml
from yaml.composer import ComposerError
from yaml.constructor import ConstructorError, SafeConstructor
from yaml.cyaml import CParser
from yaml.events import (
    AliasEvent,
    CollectionEndEvent,
    MappingEndEvent,
    MappingStartEvent,
    ScalarEvent,
    SequenceEndEvent,
    SequenceStartEvent,
    StreamEndEvent,
)
from yaml.nodes import ScalarNode
from yaml.resolver import Resolver

from . import diagram as dg
from . import el
from .contextual import KnowledgeBase, VGCI
from .contextual import FALSE, TRUE, parse_formula
from .el import parse_concept

__all__ = [
    "KBLoadError",
    "KBDocument",
    "load_kb_text",
]


class KBLoadError(ValueError):
    """The document does not match the KB file schema."""


# Deepest nesting of YAML nodes a document may use.  KB documents need
# about five levels.
MAX_YAML_DEPTH = 100


def _at(mark):
    return f"line {mark.line + 1}, column {mark.column + 1}"


class _Loader(CParser, SafeConstructor, Resolver):
    """libyaml's C parser, read in one pass over its events.

    ``get_single_data`` builds the dicts and lists as the events arrive,
    keeping the open collections on an explicit stack, so no document can
    overflow the C stack (``yaml.CSafeLoader`` composes in C without a
    depth limit, and a document nested some tens of thousands of levels
    deep kills the process).  Scalars go through PyYAML's own resolver and
    safe constructors, so their values and errors are PyYAML's.
    """

    def __init__(self, text):
        CParser.__init__(self, text)
        SafeConstructor.__init__(self)
        Resolver.__init__(self)

    def get_single_data(self):
        """The data of the stream's one document; None for an empty stream.

        The data equals ``yaml.SafeLoader``'s, anchors and aliases included,
        except that a merge key (``<<``) is refused wherever it stands;
        composer and constructor errors keep PyYAML's text and marks.  Of
        several errors in one document, the first met is raised, where
        PyYAML raises parser and composer errors before constructor errors.
        """
        get_event = self.get_event
        get_event()  # stream start
        if self.check_event(StreamEndEvent):
            return None
        get_event()  # document start
        root_mark = self.peek_event().start_mark
        # what the open collection expects next: an item of a sequence, a
        # mapping key, or the value of the key held in `key`
        in_seq, want_key = object(), object()
        memo = {}  # plain scalar text -> value; memo itself marks a miss
        anchors = {}  # name -> (value, start mark)
        stack = []
        root = container = []
        key, mark = in_seq, None
        while True:
            event = get_event()
            cls = event.__class__
            if cls is ScalarEvent:
                text = event.value
                if event.tag is None and event.anchor is None:
                    value = memo.get(text, memo) if event.implicit[0] else text
                else:
                    value = memo
                if value is memo:
                    anchor = event.anchor
                    if anchor in anchors:
                        raise _duplicate(anchor, anchors[anchor][1], event)
                    tag = event.tag
                    if tag is None or tag == "!":
                        tag = self.resolve(ScalarNode, text, event.implicit)
                    if tag == "tag:yaml.org,2002:merge":
                        # a YAML 1.1 type that no field of a KB document needs
                        raise KBLoadError(f"not valid YAML: merge key at {_at(event.start_mark)}")
                    if key is want_key and tag == "tag:yaml.org,2002:value":
                        value = text  # as flatten_mapping reads a "=" key
                    else:
                        node = ScalarNode(tag, text, event.start_mark, event.end_mark, event.style)
                        if event.tag is None and event.implicit[0]:
                            # an implicit tag's constructor returns the value itself
                            value = memo[text] = self.yaml_constructors.get(
                                tag, SafeConstructor.construct_undefined
                            )(self, node)
                        else:
                            value = self.construct_object(node, deep=True)
                    if anchor is not None:
                        anchors[anchor] = (value, event.start_mark)
            elif cls is MappingStartEvent or cls is SequenceStartEvent:
                anchor = event.anchor
                if anchor in anchors:
                    raise _duplicate(anchor, anchors[anchor][1], event)
                tag = event.tag
                plain = "tag:yaml.org,2002:map" if cls is MappingStartEvent else "tag:yaml.org,2002:seq"
                if tag is not None and tag != "!" and tag != plain:
                    # no field of a KB document holds one
                    raise KBLoadError(
                        f"not valid YAML: tagged collection {tag} at {_at(event.start_mark)}"
                    )
                if key is want_key:
                    raise _unhashable(mark, event.start_mark)
                stack.append((container, key, mark))
                mark = event.start_mark
                container, key = ({}, want_key) if cls is MappingStartEvent else ([], in_seq)
                if anchor is not None:
                    anchors[anchor] = (container, mark)
                # the stack holds one frame per open collection
                if len(stack) == MAX_YAML_DEPTH and not self.check_event(CollectionEndEvent):
                    raise KBLoadError(
                        f"not valid YAML: nested more than {MAX_YAML_DEPTH} levels deep "
                        f"at {_at(self.peek_event().start_mark)}"
                    )
                continue
            elif cls is MappingEndEvent or cls is SequenceEndEvent:
                value = container
                container, key, mark = stack.pop()
            elif cls is AliasEvent:
                try:
                    value, vmark = anchors[event.anchor]
                except KeyError:
                    raise ComposerError(
                        None, None, f"found undefined alias {event.anchor!r}", event.start_mark
                    ) from None
                if key is want_key and isinstance(value, (list, dict)):
                    raise _unhashable(mark, vmark)
            else:  # document end
                break

            if key is in_seq:
                container.append(value)
            elif key is want_key:
                key = value
            else:
                container[key] = value
                key = want_key

        if not self.check_event(StreamEndEvent):
            raise ComposerError(
                "expected a single document in the stream",
                root_mark,
                "but found another document",
                get_event().start_mark,
            )
        get_event()
        return root[0]


def _duplicate(anchor, first_mark, event):
    return ComposerError(
        f"found duplicate anchor {anchor!r}; first occurrence",
        first_mark,
        "second occurrence",
        event.start_mark,
    )


def _unhashable(mark, key_mark):
    return ConstructorError("while constructing a mapping", mark, "found unhashable key", key_mark)


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


def _exponent_hint(value):
    """Why a number with an exponent loaded as a string, if it did: YAML
    1.1 reads a plain scalar as a float only with a '.' and a signed
    exponent, so PyYAML reads 1e-3 as a string."""
    if not (isinstance(value, str) and "e" in value.lower()):
        return ""
    try:
        float(value)
    except ValueError:
        return ""
    if Resolver().resolve(ScalarNode, value, (True, False)) != Resolver.DEFAULT_SCALAR_TAG:
        return ""  # quoted: unquoted it would be a number
    return (f"; YAML 1.1 reads {value!r} as a string: a number with an exponent "
            "needs a '.' and a sign, as in 1.0e-3 or 1.0e+3")


def _number(value, what):
    if not _is_number(value):
        raise KBLoadError(f"{what} is not a number{_exponent_hint(value)}")
    try:
        return float(value)
    except OverflowError:  # an integer past the largest float
        raise KBLoadError(f"{what} is too large for a float") from None


def _row_table(raw, what):
    table = {}
    for k, v in _require_mapping(raw, what).items():
        key = str(k)
        if set(key) - {"0", "1"} and key != "":
            raise KBLoadError(f"{what}: row key {key!r} is not a '0'/'1' string")
        table[key] = _number(v, f"{what}: row {key!r} value")
    return table


def load_kb_text(text, forgetful=False):
    """The KB document in text; forgetful sets the scope policy of its
    diagram, under which its strategies are read and optimized."""
    raw = _require_mapping(_parse_yaml(text), "document")

    variables = tuple(_names(raw.get("variables"), "'variables'"))

    kinds, parents, cpt = {}, {}, {}
    nodes = _str_keys(_require_mapping(raw.get("nodes", {}), "'nodes'"))
    for v in variables:
        spec = _require_mapping(nodes.get(v, {}), f"node {v!r}")
        kind = spec.get("kind")
        kinds[v] = None if kind is None else _text(kind, f"node {v!r}: 'kind'")
        parents[v] = tuple(_names(spec.get("parents", []), f"node {v!r}: 'parents'"))
        if "cpt" in spec:
            cpt[v] = _row_table(spec["cpt"], f"node {v!r} cpt")
    for name in nodes:
        if name not in variables:
            raise KBLoadError(f"node {name!r} is not a declared variable")

    cost = _require_mapping(raw.get("cost", {}), "'cost'")
    cost_parents = tuple(_names(cost.get("parents", []), "'cost.parents'"))
    cost_table = _row_table(cost.get("table", {}), "'cost.table'")

    diagram = dg.InfluenceDiagram(
        variables=variables,
        kinds=kinds,
        parents=parents,
        cpt=cpt,
        cost_parents=cost_parents,
        cost_table=cost_table,
        forgetful=forgetful,
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
            locals_[decision] = dg.LocalStrategy(
                decision=decision,
                scope=diagram.scopes[decision],
                table=_row_table(rows, f"strategy {name!r} for {decision!r}"),
            )
        strategies[str(name)] = dg.GlobalStrategy(locals=locals_)
    return KBDocument(kb=kb, strategies=strategies)
