"""The YAML layer of KB and model documents.

``kbfile._parse_yaml`` reads documents in one pass over libyaml's events.
``yaml.SafeLoader``, PyYAML's pure-Python loader, is the reference for the
data it returns; libyaml's events under PyYAML's Python composer and safe
constructor are the reference for its error messages.  Merge keys (``<<``),
which both references accept, are refused.
"""

import contextlib
import io
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from yaml.composer import Composer
from yaml.constructor import SafeConstructor
from yaml.cyaml import CParser
from yaml.resolver import Resolver

from cider import kbfile
from cider.cli import main
from cider.fixtures import fixture_bytes
from cider.contextual import FALSE, TRUE
from cider.kbfile import MAX_YAML_DEPTH, KBLoadError, load_kb_text

from conftest import bench_specs
from semantics import load_model_text

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def reference(text):
    return yaml.load(text, Loader=yaml.SafeLoader)


def sharing(data):
    """The collections of data in walk order, each as the number of its first
    visit: two loads give the same list when their aliases share alike."""
    first, order, todo = {}, [], [data]
    while todo:
        item = todo.pop()
        if isinstance(item, (list, dict)):
            if id(item) not in first:
                todo.extend(reversed(list(item.values() if isinstance(item, dict) else item)))
            order.append(first.setdefault(id(item), len(first)))
    return order


_KB = fixture_bytes("idelium").decode("utf-8")


@pytest.mark.parametrize("name", ["idelium", "idelium_model"])
def test_bundled_fixtures_parse_as_the_reference(name):
    text = fixture_bytes(name).decode("utf-8")
    assert kbfile._parse_yaml(text) == reference(text)


def test_anchors_aliases_and_merge_keys():
    text = (
        "base: &row {'0': 1, '1': 0}\n"
        "copy: *row\n"
        "list: &l [a, [b, c]]\n"
        "again: [*l, *l]\n"
    )
    data = kbfile._parse_yaml(text)
    assert data == reference(text)
    assert data["copy"] is data["base"]
    assert data["again"][0] is data["again"][1] is data["list"]
    with pytest.raises(KBLoadError) as caught:
        kbfile._parse_yaml(text + "merged: {<<: *row, '1': 1}\n")
    assert str(caught.value) == "not valid YAML: merge key at line 5, column 10"


_keys = st.sampled_from(["", "0", "01", "001", "1", "10", "D", "TA", "yes", "null"])
_scalars = (
    st.integers(-(10**12), 10**12)
    | st.floats(allow_nan=False)
    | st.booleans()
    | st.none()
    | st.text(max_size=8)
    | _keys
)


def _collections(inner):
    """Lists and mappings of inner values, some holding one drawn collection
    more than once, which ``yaml.safe_dump`` writes as an anchor and aliases."""
    drawn = st.lists(inner, max_size=4) | st.dictionaries(_keys, inner, max_size=4)

    def reusing(shared):
        item = st.just(shared) | st.just([shared]) | inner
        return st.lists(item, min_size=2, max_size=4) | st.dictionaries(
            _keys, item, min_size=2, max_size=4
        )

    return drawn | drawn.flatmap(reusing)


_documents = st.recursive(_scalars, _collections, max_leaves=30)


def test_dumped_documents_parse_as_the_reference():
    anchored = []

    @PROPERTY
    @given(_documents, st.booleans())
    def check(data, flow):
        text = yaml.safe_dump(data, default_flow_style=flow)
        loaded = kbfile._parse_yaml(text)
        assert loaded == reference(text) == data
        assert sharing(loaded) == sharing(reference(text))
        anchored.append("&id" in text)

    check()
    assert sum(anchored) >= len(anchored) // 4


def _nested(depth):
    return "[" * (depth - 1) + "x" + "]" * (depth - 1)


def test_nesting_up_to_the_cap_parses():
    text = _nested(MAX_YAML_DEPTH)
    assert kbfile._parse_yaml(text) == reference(text)


def test_nesting_past_the_cap_is_a_load_error():
    with pytest.raises(KBLoadError, match=f"nested more than {MAX_YAML_DEPTH} levels"):
        kbfile._parse_yaml(_nested(MAX_YAML_DEPTH + 1))


def _alias_at_depth(depth):
    """An alias as the one node at the given depth."""
    return "[&a x, " + "[" * (depth - 2) + "*a" + "]" * (depth - 2) + "]"


def test_an_alias_counts_toward_the_depth_cap():
    text = _alias_at_depth(MAX_YAML_DEPTH)
    assert kbfile._parse_yaml(text) == reference(text)
    text = _alias_at_depth(MAX_YAML_DEPTH + 1)
    with pytest.raises(KBLoadError) as caught:
        kbfile._parse_yaml(text)
    assert str(caught.value) == (
        f"not valid YAML: nested more than {MAX_YAML_DEPTH} levels deep "
        f"at line 1, column {text.index('*') + 1}"
    )


# --- against the node path ---------------------------------------------------


class _NodeLoader(Composer, CParser, SafeConstructor, Resolver):
    """libyaml's events under PyYAML's Python composer, which builds one node
    per scalar, and its safe constructor, which walks the nodes again."""

    def __init__(self, text):
        CParser.__init__(self, text)
        Composer.__init__(self)
        SafeConstructor.__init__(self)
        Resolver.__init__(self)


def _error(parse, text):
    """(type, one-line message) of the error parse(text) raises, as
    ``_parse_yaml`` reports a YAML error."""
    with pytest.raises(ValueError) as caught:
        try:
            parse(text)
        except yaml.YAMLError as exc:
            raise KBLoadError(f"not valid YAML: {' '.join(str(exc).split())}") from exc
    return type(caught.value), str(caught.value)


@pytest.mark.parametrize(
    "text",
    [
        "a: *nope\n",
        "a: &x 1\nb: &x 2\n",
        "a: &x {p: 1}\nb: [&x {q: 2}]\n",
        "{[a]: 1}\n",
        "? [a]\n: 1\n",
        "a: &k [1]\nb: {*k: 2}\n",
        "a: 1\n---\nb: 2\n",
        "a: !foo x\n",
        "a: !!python/name:os.system ''\n",
        "a: !!int abc\n",
        "a: =\n",
        "a: !!map x\n",
        "a: 2001-13-45\n",
    ],
    ids=[
        "undefined-alias",
        "duplicate-scalar-anchor",
        "duplicate-mapping-anchor",
        "unhashable-flow-key",
        "unhashable-block-key",
        "unhashable-alias-key",
        "second-document",
        "unknown-scalar-tag",
        "python-tag",
        "bad-int",
        "value-tag-value",
        "map-tag-on-scalar",
        "bad-timestamp",
    ],
)
def test_errors_match_the_node_path(text):
    expected = _error(lambda t: _NodeLoader(t).get_single_data(), text)
    assert _error(kbfile._parse_yaml, text) == expected


@pytest.mark.parametrize(
    "text",
    [
        "a: [!!str 01, !!int '3', !!binary aGVsbG8=, !!float 1, !!bool yes, !!str '']\n"
        "b: {!!str 1: x, !!null '': y, !!timestamp 2001-12-14: z}\n",
        # keys spelled like a merge key that are not one
        "b1: &b1 {x: 1, y: 2}\n"
        "b2: &b2 {y: 3, z: 4, w: 5}\n"
        "m: {z: 0, b: [*b1, *b2], x: 9, =: eq, '<<': quoted}\n"
        "n: {!!str <<: *b1, v: {v: 1, b: *b2}, y: 7}\n",
        "!!map {a: !!seq [1, ! {b: 2}], c: ! [3]}\n",
        "a: &x 1\nb: [*x, &y {k: *x}, *y]\nc: *y\n",
        # mappings that name themselves
        "m: &m {self: *m, a: 1, b: {b: 2}}\nn: &n {c: 3, l: [*n, *m], a: 4}\n",
    ],
    ids=["tagged-scalars", "merge-keys", "tags-on-collections", "aliases", "self-merge"],
)
def test_data_and_key_order_match_the_reference(text):
    data = kbfile._parse_yaml(text)
    # repr is equality that also holds on cycles, with the keys in order
    assert repr(data) == repr(reference(text))
    assert sharing(data) == sharing(reference(text))


def test_recursive_aliases_refer_to_their_own_collection():
    data = kbfile._parse_yaml("a: &l [1, *l]\nm: &m {self: *m, v: 1}\n")
    assert data["a"][1] is data["a"]
    assert data["m"]["self"] is data["m"]
    assert data["m"]["v"] == 1
    reference_data = reference("a: &l [1, *l]\n")
    assert reference_data["a"][1] is reference_data["a"]


_NOTES = _KB.count("\n") + 1  # the line of a "notes: " key put after _KB


def _merge_key(fragment, line, column, id):
    return pytest.param(fragment, f"merge key at line {_NOTES + line}, column {column}", id=id)


@pytest.mark.parametrize(
    "fragment, message",
    [
        pytest.param(tagged, f"tagged collection {tag} at line {_NOTES}, column 8", id=f"{tagged}-{tag}")
        for tagged, tag in [
            ("!!set {a, b}", "tag:yaml.org,2002:set"),
            ("!!omap [{a: 1}]", "tag:yaml.org,2002:omap"),
            ("!!pairs [{a: 1}]", "tag:yaml.org,2002:pairs"),
            ("!foo {a: 1}", "!foo"),
            ("!foo [a]", "!foo"),
            ("!!map [a]", "tag:yaml.org,2002:map"),
            ("!!seq {a: 1}", "tag:yaml.org,2002:seq"),
        ]
    ]
    + [
        _merge_key("{<<: 1}", 0, 9, "merge-scalar"),
        _merge_key("{<<: [1]}", 0, 9, "merge-list-of-scalar"),
        _merge_key("&s [{a: 1}, [2]]\nm:\n  x: 1\n  <<: *s", 3, 3, "merge-alias-list-of-list"),
        _merge_key("\n  a: 1\n  <<: {b: 2}", 2, 3, "merge-block"),
        _merge_key("{!!merge <<: {a: 1}}", 0, 9, "merge-tag"),
        _merge_key("{&m <<: {a: 1}}", 0, 9, "merge-anchor"),
        _merge_key("{a: <<}", 0, 12, "merge-value"),
        _merge_key("[1, <<]", 0, 12, "merge-tag-value"),
    ],
)
def test_tagged_collections_are_refused(tmp_path, fragment, message):
    path = tmp_path / "tagged.kb"
    path.write_text(_KB + f"notes: {fragment}\n", encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main(["validate", str(path)]) == 2
    assert (stdout.getvalue(), stderr.getvalue()) == (
        "",
        f"error: {path}: not valid YAML: {message}\n",
    )


def test_generated_kbs_parse_as_the_reference():
    texts = [spec.to_yaml() for spec in bench_specs((1, 3, 5))]
    assert len(texts) == 3 * 45
    for text in texts:
        data = kbfile._parse_yaml(text)
        assert data == reference(text)
        assert repr(data) == repr(reference(text))


# --- model documents -------------------------------------------------------

_HUGE = "1" + "0" * 400  # an integer past the largest float
_MODEL = (
    "variables: [A, B]\n"
    "domain: [d0]\n"
    "entries:\n"
    "  - {world: '10', weight: 0.5, concepts: {C: [d0]}}\n"
    "  - {ENTRY}\n"
)


@pytest.mark.parametrize(
    "entry, message",
    [
        ("{weight: 0.5}", "entries[1]: missing field 'world'"),
        ("{world: '01'}", "entries[1]: missing field 'weight'"),
        ("{world: '01', weight: half}", "entries[1]: 'weight' is not a number"),
        ("{world: '011', weight: 0.5}", "entries[1]: world '011' does not match"),
        (f"{{world: '01', weight: {_HUGE}}}", "entries[1]: 'weight' is too large for a float"),
        ("{world: '01', weight: 0.5, roles: {r: [d0]}}", "entries[1].roles.r[0] is not a pair"),
    ],
    ids=["missing-world", "missing-weight", "non-numeric-weight", "mismatched-world", "huge-weight",
         "role-not-a-pair"],
)
def test_bad_model_entry_is_a_load_error(entry, message):
    with pytest.raises(KBLoadError) as caught:
        load_model_text(_MODEL.replace("{ENTRY}", entry))
    assert str(caught.value).startswith(message)


def test_model_entry_outside_the_domain_is_a_load_error():
    entry = "{world: '01', weight: 0.5, roles: {r: [[d0, d1]]}}"
    with pytest.raises(KBLoadError, match=r"entries\[1\]: extension of role r"):
        load_model_text(_MODEL.replace("{ENTRY}", entry))


# --- values that must be strings -------------------------------------------


def _alias_chain(levels):
    """Anchors a0..a<levels-1>; a<k> lists a<k-1> eight times, so str() of
    the last one is 8**levels items long."""
    lines = ["x0: &a0 [x, x, x, x, x, x, x, x]"]
    for k in range(1, levels):
        lines.append(f"x{k}: &a{k} [{', '.join([f'*a{k - 1}'] * 8)}]")
    return "\n".join(lines) + "\n"


_DEEP = "*a6"  # the last anchor of _alias_chain(7)
_AXIOM = "{lhs: Subject, rhs: Infectious, context: D}"


@pytest.mark.parametrize(
    "old, new, message",
    [
        (_AXIOM, f"{{lhs: {_DEEP}, rhs: B}}", "tbox[0]: 'lhs' must be a string, got list"),
        (_AXIOM, f"{{lhs: A, rhs: {_DEEP}}}", "tbox[0]: 'rhs' must be a string, got list"),
        (_AXIOM, f"{{lhs: A, rhs: B, context: {_DEEP}}}", "tbox[0]: 'context' must be"),
        (_AXIOM, "{lhs: 5, rhs: B}", "tbox[0]: 'lhs' must be a string, got int"),
        ("parents: [D], cpt", f"parents: {_DEEP}, cpt", "node 'S': 'parents' must be"),
        ("parents: [D, P, TA]", f"parents: [D, {_DEEP}]", "'cost.parents' must be"),
        # validate would print the kind in an 'unknown kind' violation
        ("D: {kind: chance,", "D: {kind: [chance],", "node 'D': 'kind' must be a string, got list"),
        ("D: {kind: chance,", f"D: {{kind: {_DEEP},", "node 'D': 'kind' must be a string, got list"),
    ],
    ids=["lhs", "rhs", "context", "int-lhs", "parents", "cost-parents", "kind", "alias-kind"],
)
def test_kb_field_that_is_not_a_string_is_a_load_error(tmp_path, old, new, message):
    assert old in _KB
    text = _alias_chain(7) + _KB.replace(old, new, 1)
    with pytest.raises(KBLoadError) as caught:
        load_kb_text(text)
    assert str(caught.value).startswith(message)
    path = tmp_path / "alias.kb"
    path.write_text(text, encoding="utf-8")
    for argv in (["validate", str(path)],
                 ["query", str(path), "prob-subsume", "--strategy", "always_test_a",
                  "Subject", "Infectious"]):
        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            assert main(argv) == 2
        assert message in stderr.getvalue() and stderr.getvalue().count("\n") == 1


@pytest.mark.parametrize(
    "entry, message",
    [
        (f"{{world: {_DEEP}, weight: 0.5}}", "entries[1]: 'world' must be a string"),
        ("{world: 1, weight: 0.5}", "entries[1]: 'world' must be a string, got int"),
        (
            f"{{world: '01', weight: 0.5, concepts: {{C: [d0, {_DEEP}]}}}}",
            "entries[1].concepts.C must be a list of names",
        ),
        (
            f"{{world: '01', weight: 0.5, roles: {{r: [[d0, {_DEEP}]]}}}}",
            "entries[1].roles.r[0] must be a list of names",
        ),
    ],
    ids=["world", "int-world", "concept-member", "role-member"],
)
def test_model_field_that_is_not_a_string_is_a_load_error(entry, message):
    text = _alias_chain(7) + _MODEL.replace("{ENTRY}", entry)
    with pytest.raises(KBLoadError) as caught:
        load_model_text(text)
    assert str(caught.value).startswith(message)


@pytest.mark.parametrize("field", ["variables", "domain"])
def test_model_list_that_is_not_names_is_a_load_error(field):
    text = _alias_chain(7) + _MODEL.replace(f"{field}: [", f"{field}: [{_DEEP}, ", 1)
    with pytest.raises(KBLoadError, match=f"'{field}' must be a list of names"):
        load_model_text(text)


@pytest.mark.parametrize("value, constant", [("true", TRUE), ("false", FALSE)])
def test_unquoted_boolean_context_is_the_constant(tmp_path, value, constant):
    text = _KB.replace("context: D}", f"context: {value}}}", 1)
    assert load_kb_text(text).kb.vtbox[0].context == constant
    path = tmp_path / "bool.kb"
    path.write_text(text, encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["validate", str(path)]) == 0


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('cpt: {"": 0.3}', f'cpt: {{"": {_HUGE}}}', "node 'D' cpt: row '' value"),
        ('"000": 20', f'"000": {_HUGE}', "'cost.table': row '000' value"),
        (
            'TA: {"0": 1, "1": 0}',
            f'TA: {{"0": 1, "1": -{_HUGE}}}',
            "strategy 'test_a_if_clear' for 'TA': row '1' value",
        ),
    ],
    ids=["cpt", "cost", "strategy"],
)
def test_row_value_too_large_for_a_float_exits_two(tmp_path, old, new, message):
    assert old in _KB
    path = tmp_path / "huge.kb"
    path.write_text(_KB.replace(old, new, 1), encoding="utf-8")
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        assert main(["validate", str(path)]) == 2
    assert (stdout.getvalue(), stderr.getvalue()) == (
        "",
        f"error: {path}: {message} is too large for a float\n",
    )


def test_the_documented_format_loads_and_validates():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Document format\n", 1)[1]
    block = section.split("```yaml\n", 1)[1].split("```", 1)[0]
    assert load_kb_text(block).kb.validate() == []


# --- mutated documents -----------------------------------------------------

_EDIT_CHARS = "01 :-[]{},'\"\n\t#&*!|>aDSTP.5e"


@st.composite
def _mutations(draw, text):
    chars = list(text)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(chars) - 1))
        edit = draw(st.sampled_from(["delete", "insert", "replace"]))
        if edit == "delete":
            del chars[at]
        else:
            new = draw(st.sampled_from(_EDIT_CHARS))
            chars[at : at + (edit == "replace")] = [new]
    return "".join(chars)


_QUERIES = (
    ["validate"],
    ["query", "expected-cost", "--strategy", "always_test_a"],
    ["query", "optimize", "--pure"],
)


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants") / "mutant.kb"


@settings(PROPERTY, suppress_health_check=[HealthCheck.too_slow])
@given(text=_mutations(_KB))
def test_mutated_kb_exits_zero_to_three(mutant_path, text):
    mutant_path.write_text(text, encoding="utf-8")
    for command, *rest in _QUERIES:
        argv = [command, str(mutant_path), *rest]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) in (0, 1, 2, 3), argv


@PROPERTY
@given(text=_mutations(fixture_bytes("idelium_model").decode("utf-8")))
def test_mutated_model_loads_or_raises_a_load_error(text):
    try:
        load_model_text(text)
    except KBLoadError:
        pass
