"""CLI behaviour: reports, exit codes, fixtures, and document parsing."""

import builtins
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
import yaml

import cider
from cider import kbfile
from cider import optimizer as opt
from cider import simplex
from cider._format import format_float as fmt
from cider._sexpr import MAX_DEPTH
from cider.el import ConceptName as N
from cider.evidence import EvidenceQuery
from cider.cli import main
from cider.fixtures import fixture_bytes, fixture_names
from cider.kbfile import KBLoadError, load_kb_text, load_model_text

import sequence_form as sf
from conftest import LIMID_KB, SIGNED_ZERO_KB


@pytest.fixture(autouse=True)
def yaml_matches_reference(monkeypatch):
    """Every document these tests load parses as yaml.SafeLoader reads it."""
    parse = kbfile._parse_yaml

    def checked(text):
        data = parse(text)
        assert data == yaml.safe_load(text)
        return data

    monkeypatch.setattr(kbfile, "_parse_yaml", checked)


@pytest.fixture()
def kb_path(tmp_path):
    path = tmp_path / "idelium.kb"
    path.write_bytes(fixture_bytes("idelium"))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fixture_names():
    assert fixture_names() == ("idelium", "idelium_model")


def test_fixtures_command_writes_golden_bytes(tmp_path, capsys):
    out = tmp_path / "copy.kb"
    code, stdout, _ = run(capsys, "fixtures", "idelium", "--out", str(out))
    assert code == 0
    assert f"wrote: {out}" in stdout
    assert out.read_bytes() == fixture_bytes("idelium")
    doc = load_kb_text(out.read_text())
    assert len(doc.kb.diagram.variables) == 4
    assert len(doc.kb.vtbox) == 5


def test_fixtures_model_document(tmp_path, capsys):
    out = tmp_path / "model.pi"
    code, _, _ = run(capsys, "fixtures", "idelium_model", "--out", str(out))
    assert code == 0
    doc = load_model_text(out.read_text())
    assert len(doc.model.entries) == 8
    assert set(doc.cost_overlays) == {"subject_benefits", "subject_safe"}


def test_fixtures_unknown_name(capsys):
    code, _, err = run(capsys, "fixtures", "nonexistent")
    assert code == 2
    assert "unknown fixture" in err


def test_fixtures_empty_out_exits_two(tmp_path, monkeypatch, capsys):
    """An explicitly empty --out is refused, not read as the default."""
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, "fixtures", "idelium", "--out", "")
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_validate_ok(kb_path, capsys):
    code, stdout, _ = run(capsys, "validate", kb_path)
    assert code == 0
    assert "ok" in stdout
    assert "sha256=" in stdout


@pytest.mark.parametrize(
    "command",
    [["validate"], ["query", "expected-cost", "--strategy", "always_test_a"]],
    ids=["validate", "expected-cost"],
)
def test_the_kb_is_read_once(kb_path, capsys, monkeypatch, command):
    """The report's sha256 names the bytes that were answered."""
    opened = []

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == kb_path:
            opened.append(file)
        return open_(file, *args, **kwargs)

    open_ = builtins.open
    monkeypatch.setattr(builtins, "open", counting_open)
    code, stdout, _ = run(capsys, command[0], kb_path, *command[1:])
    assert (code, len(opened)) == (0, 1)
    assert f"sha256={hashlib.sha256(fixture_bytes('idelium')).hexdigest()}" in stdout


def test_crlf_and_undecodable_copies_read_as_text_files(tmp_path, capsys):
    raw = fixture_bytes("idelium")
    crlf = tmp_path / "crlf.kb"
    crlf.write_bytes(raw.replace(b"\n", b"\r\n"))
    argv = ["query", str(crlf), "expected-cost", "--strategy", "always_test_a"]
    assert run(capsys, *argv) == (
        0,
        f"command: {' '.join(argv)}\n"
        f"input: {crlf} sha256={hashlib.sha256(crlf.read_bytes()).hexdigest()}\n"
        "tolerance: abs=1e-09\n"
        "result:\n"
        "  expected_cost: 2.36\n"
        "  distribution:\n"
        "    0: 0.63\n"
        "    2: 0.28\n"
        "    5: 0\n"
        "    20: 0.09\n"
        "    90: 0\n",
        "",
    )
    bad = tmp_path / "bad.kb"
    bad.write_bytes(raw + b"# \xff\n")
    assert run(capsys, "validate", str(bad)) == (
        2,
        "",
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position {len(raw) + 2}: "
        "invalid start byte\n",
    )


def test_validate_violations_exit_one(tmp_path, capsys):
    path = tmp_path / "broken.kb"
    path.write_text(
        "variables: [A, B]\n"
        "nodes:\n"
        "  A: {kind: chance, parents: [B], cpt: {'0': 0.5, '1': 0.5}}\n"
        "  B: {kind: chance, parents: [A], cpt: {'0': 0.5, '1': 0.5}}\n"
        "cost: {parents: [A], table: {'0': 0, '1': 1}}\n"
    )
    code, stdout, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "violations:" in stdout
    assert "cycle" in stdout


@pytest.mark.parametrize("text", ["", "# a comment only\n"], ids=["empty", "comment-only"])
def test_a_document_with_no_mapping_exits_two(tmp_path, capsys, text):
    path = tmp_path / "empty.kb"
    path.write_text(text)
    assert run(capsys, "validate", str(path)) == (
        2, "", f"error: {path}: document must be a mapping, got NoneType\n"
    )


_ONE_CHANCE = "  A: {kind: chance, parents: [], cpt: {'': 0.5}}\n"
_COST_A = "cost: {parents: [A], table: {'0': 0, '1': 1}}\n"


@pytest.mark.parametrize(
    "document, violation",
    [
        (
            "variables: [A]\nnodes:\n  A: {kind: foo, parents: []}\n" + _COST_A,
            "A: unknown kind 'foo'",
        ),
        (
            "variables: [A]\nnodes:\n  A: {kind: null, parents: []}\n" + _COST_A,
            "A: unknown kind None",
        ),
        (
            "variables: [A]\nnodes:\n  A: {parents: []}\n" + _COST_A,
            "A: unknown kind None",
        ),
        (
            "variables: [A]\nnodes:\n"
            "  A: {kind: chance, parents: [Z], cpt: {'0': 0.5, '1': 0.5}}\n" + _COST_A,
            "A: unknown parent 'Z'",
        ),
        (
            "variables: [A]\nnodes:\n" + _ONE_CHANCE
            + "cost: {parents: [Z], table: {'0': 0, '1': 1}}\n",
            "cost: unknown cost parent 'Z'",
        ),
        (
            "variables: [A]\nnodes:\n"
            "  A: {kind: chance, parents: [cost], cpt: {'0': 0.5, '1': 0.5}}\n" + _COST_A,
            "cost: cost node has outgoing edge to 'A'",
        ),
        (
            "variables: [A]\nnodes:\n" + _ONE_CHANCE
            + "cost: {parents: [cost], table: {'0': 0, '1': 1}}\n",
            "cost: cost node cannot be its own parent",
        ),
        (
            "variables: [A, A]\nnodes:\n" + _ONE_CHANCE + _COST_A,
            "A: duplicate variable",
        ),
        (
            "variables: [A, B]\nnodes:\n"
            "  A: {kind: chance, parents: [], cpt: {'': 0.5}}\n"
            "  B: {kind: chance, parents: [A, A], cpt: {'00': 0.1, '01': 0.9, '10': 0.3, '11': 0.7}}\n"
            + _COST_A,
            "B: duplicate parent 'A'",
        ),
        (
            "variables: [A]\nnodes:\n" + _ONE_CHANCE
            + "cost: {parents: [A, A], table: {'00': 0, '01': 5, '10': 7, '11': 1}}\n",
            "cost: duplicate cost parent 'A'",
        ),
    ],
    ids=["kind", "null-kind", "missing-kind", "parent", "cost-parent", "cost-edge", "cost-own-parent", "duplicate",
         "duplicate-parent", "duplicate-cost-parent"],
)
def test_validate_reports_each_structural_violation(tmp_path, capsys, document, violation):
    path = tmp_path / "broken.kb"
    path.write_text(document)
    code, stdout, err = run(capsys, "validate", str(path))
    assert (code, err) == (1, "")
    assert f"    - {violation}\n" in stdout


def test_each_cost_edge_names_its_variable(tmp_path, capsys):
    path = tmp_path / "edges.kb"
    path.write_text(
        "variables: [A, B]\n"
        "nodes:\n"
        "  A: {kind: chance, parents: [cost], cpt: {'0': 0.5, '1': 0.5}}\n"
        "  B: {kind: chance, parents: [cost, cost], cpt: {'00': 0.5, '11': 0.5}}\n"
        "cost: {parents: [], table: {'': 0}}\n"
    )
    code, stdout, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert stdout.split("result:\n", 1)[1] == (
        "  violations:\n"
        "    - cost: cost node has outgoing edge to 'A'\n"
        "    - cost: cost node has outgoing edge to 'B'\n"
        "    - B: missing CPT row '01'\n"
        "    - B: missing CPT row '10'\n"
    )


_TWICE_LISTED_PARENTS = (
    "variables: [A, B]\n"
    "nodes:\n"
    "  A: {kind: chance, parents: [], cpt: {'': 0.5}}\n"
    "  B: {kind: chance, parents: [A, A], cpt: {'00': 0.1, '01': 0.9, '10': 0.3, '11': 0.7}}\n"
    "cost: {parents: [B, B], table: {'00': 0, '01': 5, '10': 7, '11': 1}}\n"
)


def test_twice_listed_parents_are_refused(tmp_path, capsys):
    """Rows 01 and 10 of either table could never be read; validate
    names each repeated parent once, and every query refuses the KB."""
    path = tmp_path / "twice.kb"
    path.write_text(_TWICE_LISTED_PARENTS)
    code, stdout, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert stdout.split("result:\n", 1)[1] == (
        "  violations:\n"
        "    - B: duplicate parent 'A'\n"
        "    - cost: duplicate cost parent 'B'\n"
    )
    for query in (
        ["expected-cost", "--strategy", "none"],
        ["subsume", "--world", "10", "A", "B"],
        ["optimize", "--pure"],
        ["optimize", "--lp"],
    ):
        code, stdout, err = run(capsys, "query", str(path), *query)
        assert (code, stdout) == (2, ""), query
        assert err == (
            f"error: {path}: knowledge base is not valid: "
            "B: duplicate parent 'A'; cost: duplicate cost parent 'B'\n"
        )


def test_twice_declared_variable_is_checked_once(tmp_path, capsys):
    path = tmp_path / "twice.kb"
    path.write_text(
        "variables: [A, A]\n"
        "nodes:\n"
        "  A: {kind: foo, parents: [Z]}\n"
        "cost: {parents: [], table: {'': 0}}\n"
    )
    code, stdout, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert stdout.split("result:\n", 1)[1] == (
        "  violations:\n"
        "    - A: duplicate variable\n"
        "    - A: unknown kind 'foo'\n"
        "    - A: unknown parent 'Z'\n"
    )


def _chain(n, closed):
    """V0 -> V1 -> ... -> V(n-1), declared child first, so a depth-first
    search from the first declared variable walks the whole chain;
    closed, V0 also has the last variable as its parent."""
    names = [f"V{i}" for i in range(n)]
    rows = "{'0': 0.25, '1': 0.75}"
    first = f"[{names[-1]}], cpt: {rows}" if closed else "[], cpt: {'': 0.5}"
    nodes = [f"  V0: {{kind: chance, parents: {first}}}\n"]
    nodes += [
        f"  {v}: {{kind: chance, parents: [{p}], cpt: {rows}}}\n"
        for p, v in zip(names, names[1:])
    ]
    return (
        f"variables: [{', '.join(reversed(names))}]\n"
        "nodes:\n" + "".join(nodes) + "cost: {parents: [V0], table: {'0': 0, '1': 1}}\n"
    )


def test_long_chain_declared_child_first(tmp_path, capsys):
    path = tmp_path / "chain.kb"
    path.write_text(_chain(1500, closed=False))
    code, stdout, err = run(capsys, "validate", str(path))
    assert code == 0 and stdout.endswith("result:\n  ok\n") and err == ""
    path.write_text(_chain(1500, closed=True))
    code, stdout, err = run(capsys, "validate", str(path))
    assert code == 1 and err == ""
    (violation,) = [line for line in stdout.splitlines() if line.startswith("    - ")]
    node, message = violation.removeprefix("    - ").split(": ")
    assert message == "parent graph has a cycle through this node"
    assert node in {f"V{i}" for i in range(1500)}


def test_missing_file_exit_two(capsys):
    code, _, err = run(capsys, "validate", "no/such/file.kb")
    assert code == 2
    assert "cannot read" in err


def test_bad_yaml_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.kb"
    path.write_text("variables: [A\n")
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2


def test_expected_cost_report(kb_path, capsys):
    code, stdout, _ = run(
        capsys, "query", kb_path, "expected-cost", "--strategy", "test_a_if_clear"
    )
    assert code == 0
    assert "expected_cost: 4.604" in stdout
    assert "90: 0.012" in stdout


def test_reports_are_byte_stable(kb_path, capsys):
    argv = ["query", kb_path, "expected-cost", "--strategy", "test_a_if_clear"]
    first = run(capsys, *argv)
    second = run(capsys, *argv)
    assert first == second


def test_unknown_strategy_exit_two(kb_path, capsys):
    code, _, err = run(capsys, "query", kb_path, "expected-cost", "--strategy", "nope")
    assert code == 2
    assert "unknown strategy" in err


def test_unexpected_strategy_row_exit_two(tmp_path, capsys):
    path = tmp_path / "extra_row.kb"
    path.write_bytes(
        fixture_bytes("idelium") + b'  extra_row:\n    TA: {"0": 1, "1": 1, "00": 0.5}\n'
    )
    code, stdout, err = run(
        capsys, "query", str(path), "expected-cost", "--strategy", "extra_row"
    )
    assert (code, stdout) == (2, "")
    assert err == (
        "error: strategy 'extra_row' is not valid: TA: unexpected strategy row '00'\n"
    )


def test_subsume_world(kb_path, capsys):
    code, stdout, _ = run(
        capsys, "query", kb_path, "subsume", "--world", "1010", "Subject", "Infectious"
    )
    assert code == 0
    assert "subsumed: true" in stdout
    code, stdout, _ = run(
        capsys, "query", kb_path, "subsume", "--world", "1010", "Subject", "Control"
    )
    assert "subsumed: false" in stdout


def test_bad_concept_exit_two(kb_path, capsys):
    code, _, err = run(
        capsys, "query", kb_path, "subsume", "--world", "1010", "(and A", "B"
    )
    assert code == 2
    assert "bad concept" in err


def test_bad_world_bits_exit_two(kb_path, capsys):
    code, _, err = run(
        capsys, "query", kb_path, "subsume", "--world", "10", "Subject", "Control"
    )
    assert code == 2
    assert "does not match" in err


def test_prob_subsume(kb_path, capsys):
    code, stdout, _ = run(
        capsys,
        "query",
        kb_path,
        "prob-subsume",
        "--strategy",
        "test_a_if_clear",
        "Subject",
        "Infectious",
    )
    assert code == 0
    assert "probability: 0.3" in stdout
    code, stdout, _ = run(
        capsys,
        "query",
        kb_path,
        "prob-subsume",
        "--strategy",
        "test_a_if_clear",
        "--context",
        "(and S TA)",
        "Subject",
        "Benefits",
    )
    assert "probability: 1" in stdout


def test_prob_subsume_context_naming_an_unknown_variable_exit_two(kb_path, capsys):
    code, stdout, err = run(
        capsys, "query", kb_path, "prob-subsume", "--strategy", "test_a_if_clear",
        "--context", "(and S Nowhere)", "Subject", "Benefits",
    )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "Nowhere" in err


@pytest.mark.parametrize("context", ["", " "])
def test_prob_subsume_empty_context_exits_two(kb_path, capsys, context):
    """An explicitly empty --context is refused, not read as true."""
    code, stdout, err = run(
        capsys, "query", kb_path, "prob-subsume", "--strategy", "test_a_if_clear",
        "--context", context, "Subject", "Benefits",
    )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "bad context" in err


def test_cond_cost_json_payload(kb_path, tmp_path, capsys):
    empty = tmp_path / "empty.kb"
    empty.write_text(
        "variables: []\n"
        "nodes: {}\n"
        "cost: {parents: [], table: {'': 5}}\n"
        "strategies: {none: {}}\n"
    )
    cases = [
        (kb_path, "test_a_if_clear", "Subject", "Infectious", 3.44516129, 0.93,
         ["0010", "0011", "1010", "1011", "1100", "1101"]),
        # the one world over no variables is the empty bit string
        (str(empty), "none", "A", "A", 5, 1, [""]),
    ]
    for path, strategy, lhs, rhs, value, mass, worlds in cases:
        code, stdout, _ = run(
            capsys, "query", path, "cond-cost", "--strategy", strategy,
            "--mode", "opt", lhs, rhs,
        )
        assert code == 0
        line = next(x for x in stdout.splitlines() if "conditional: " in x)
        payload = json.loads(line.split("conditional: ", 1)[1])
        assert list(payload) == ["value", "evidence_probability", "included_worlds"]
        assert payload["value"] == value
        assert payload["evidence_probability"] == mass
        assert payload["included_worlds"] == sorted(payload["included_worlds"]) == worlds


def test_cond_cost_pessimistic_mode(kb_path, capsys):
    code, stdout, _ = run(
        capsys,
        "query",
        kb_path,
        "cond-cost",
        "--strategy",
        "test_a_if_clear",
        "--mode",
        "pes",
        "Subject",
        "Infectious",
    )
    assert code == 0
    assert '"value": 11.0810811' in stdout


def test_optimize_pure_and_lp_agree(kb_path, capsys):
    code, pure_out, _ = run(capsys, "query", kb_path, "optimize", "--pure")
    assert code == 0
    assert "value: 2.36" in pure_out
    code, lp_out, _ = run(capsys, "query", kb_path, "optimize", "--lp")
    assert code == 0
    assert "value: 2.36" in lp_out


def test_optimize_pure_with_evidence(kb_path, capsys):
    code, stdout, _ = run(
        capsys,
        "query",
        kb_path,
        "optimize",
        "--pure",
        "--evidence",
        "Subject",
        "Infectious",
        "--mode",
        "opt",
    )
    assert code == 0
    assert "value:" in stdout
    # --evidence alone asks for the optimistic bound
    code, alone, _ = run(
        capsys, "query", kb_path, "optimize", "--pure", "--evidence", "Subject", "Infectious"
    )
    assert code == 0
    assert alone.split("result:")[1] == stdout.split("result:")[1]


def test_optimize_lp_with_evidence_unsupported(kb_path, capsys):
    code, _, err = run(
        capsys,
        "query",
        kb_path,
        "optimize",
        "--lp",
        "--evidence",
        "Subject",
        "Infectious",
    )
    assert code == 3
    assert "pure" in err


def test_optimize_lp_infeasible_epsilon(kb_path, capsys):
    code, _, err = run(
        capsys, "query", kb_path, "optimize", "--lp", "--fully-mixed", "0.7"
    )
    assert code == 3


@pytest.mark.parametrize("epsilon", ["1e-9", "1e-12"])
def test_fully_mixed_is_mixed_below_the_printed_precision(kb_path, capsys, epsilon):
    """Every plan entry is at least E > 0, so the strategy is mixed even
    where its rows print as 0.999999999 or 1; TA has one row per value
    of its scope S."""
    code, stdout, err = run(
        capsys, "query", kb_path, "optimize", "--lp", "--fully-mixed", epsilon
    )
    assert code == 0 and err == ""
    assert "  kind: mixed\n" in stdout
    rows = [line.split(": ")[1] for line in stdout.splitlines() if line.startswith('      "')]
    assert len(rows) == 2 and set(rows) <= {"0.999999999", "1"}


def test_decide_threshold_false_still_exit_zero(kb_path, capsys):
    code, stdout, _ = run(
        capsys, "query", kb_path, "decide", "--problem", "d-opt", "--bound", "2.36"
    )
    assert code == 0
    assert "answer: false" in stdout
    code, stdout, _ = run(
        capsys, "query", kb_path, "decide", "--problem", "d-opt", "--bound", "3"
    )
    assert "answer: true" in stdout


EVIDENCE = ("--evidence", "Subject", "Infectious")


@pytest.mark.parametrize(
    "problem, extra, mode, direction",
    [
        ("d-opt", (), "opt", "min"),
        ("d-pes", (), "opt", "max"),
        ("d-dom-opt", EVIDENCE, "opt", "min"),
        ("d-dom-pes", EVIDENCE, "pes", "min"),
    ],
    # each id names the objective its problem scores
    ids=[
        "d-opt-extra0-expected-min",
        "d-pes-extra1-expected-max",
        "d-dom-opt-extra2-dominant-optimistic-min",
        "d-dom-pes-extra3-dominant-pessimistic-min",
    ],
)
def test_decide_is_strict_in_its_problems_direction(
    kb_path, capsys, problem, extra, mode, direction
):
    """A bound equal to the printed optimum, or to the search's exact
    value, answers false; a bound past the optimum on the answering side,
    above it under min and below it under max, answers true."""

    def answer(bound):
        code, stdout, err = run(
            capsys, "query", kb_path, "decide", "--problem", problem, "--bound", bound, *extra
        )
        assert code == 0 and err == ""
        result = stdout.split("result:\n", 1)[1].splitlines()
        return dict(line.strip().split(": ", 1) for line in result)

    optimum = answer("0")["optimum"]
    kb = load_kb_text(fixture_bytes("idelium").decode()).kb
    query = EvidenceQuery(N(extra[1]), N(extra[2])) if extra else None
    value = opt.optimal_pure_strategy(kb, query, mode, direction).value
    assert fmt(value) == optimum
    past = float(optimum) + (1.0 if direction == "min" else -1.0)
    bounds = (optimum, repr(value), repr(past))
    assert [answer(bound)["answer"] for bound in bounds] == ["false", "false", "true"]


def test_decide_dominant_requires_evidence(kb_path, capsys):
    code, _, err = run(
        capsys, "query", kb_path, "decide", "--problem", "d-dom-opt", "--bound", "5"
    )
    assert code == 2
    assert "--evidence" in err
    code, stdout, _ = run(
        capsys,
        "query",
        kb_path,
        "decide",
        "--problem",
        "d-dom-opt",
        "--bound",
        "5",
        "--evidence",
        "Subject",
        "Infectious",
    )
    assert code == 0
    assert "answer:" in stdout


def test_optimize_lp_direction_max_unsupported(kb_path, capsys):
    code, stdout, err = run(
        capsys, "query", kb_path, "optimize", "--lp", "--direction", "max"
    )
    assert code == 3
    assert stdout == ""
    assert err.count("\n") == 1 and "minimizes" in err
    code, stdout, _ = run(
        capsys, "query", kb_path, "optimize", "--lp", "--direction", "min"
    )
    assert code == 0 and "value: 2.36" in stdout


def test_optimize_pure_fully_mixed_exit_two(kb_path, capsys):
    code, stdout, err = run(
        capsys, "query", kb_path, "optimize", "--pure", "--fully-mixed", "0.01"
    )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "--fully-mixed" in err


@pytest.mark.parametrize(
    "kind, mode",
    [
        pytest.param("--pure", "pes", id="--pure"),
        pytest.param("--lp", "pes", id="--lp"),
        pytest.param("--pure", "opt", id="--pure-opt"),
        pytest.param("--lp", "opt", id="--lp-opt"),
    ],
)
def test_optimize_mode_without_evidence_exit_two(kb_path, capsys, kind, mode):
    code, stdout, err = run(capsys, "query", kb_path, "optimize", kind, "--mode", mode)
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "--mode" in err


def test_forgetful_without_a_meaning_exit_two(kb_path, capsys):
    code, stdout, err = run(capsys, "--forgetful", "query", kb_path, "export-game-tree")
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "--forgetful" in err


def test_forgetful_lp_follows_the_forgetful_scopes(tmp_path, capsys):
    """D2 pays unless it guesses X.  Loaded forgetful it sees only Y, a
    noisy copy of D1: the LP prints the pure optimum 0.2 over the parent
    scopes, and, since D2 forgets D1, no fully-mixed plan exists."""
    path = tmp_path / "limid.kb"
    path.write_text(LIMID_KB)
    query = ["--forgetful", "query", str(path), "optimize"]
    code, lp, err = run(capsys, *query, "--lp")
    assert (code, err) == (0, "")
    assert "  value: 0.2\n  kind: pure\n" in lp and "    D2 (scope Y):\n" in lp
    code, pure, _ = run(capsys, *query, "--pure")
    assert lp.split("result:\n")[1] == pure.split("result:\n")[1]
    code, stdout, err = run(capsys, *query, "--lp", "--fully-mixed", "0.1")
    assert (code, stdout) == (3, "")
    assert err == "error: no fully-mixed plan: the scopes of decisions D1 and D2 do not nest\n"


@pytest.mark.parametrize("problem", ["d-opt", "d-pes"])
def test_decide_plain_problem_with_evidence_exit_two(kb_path, capsys, problem):
    code, stdout, err = run(
        capsys, "query", kb_path, "decide", "--problem", problem, "--bound", "5",
        "--evidence", "Subject", "Infectious",
    )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "--evidence" in err


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_the_parser_carries_nothing_from_one_call_to_the_next(kb_path, capsys):
    from cider import cli

    dominant = ("query", kb_path, "decide", "--problem", "d-dom-opt", "--bound", "5")
    calls = [
        dominant + ("--evidence", "Subject", "Infectious"),
        dominant,
        ("query", kb_path, "optimize", "--pure", "--lp"),
        ("query", kb_path, "optimize", "--pure"),
        ("--forgetful", "query", kb_path, "optimize", "--pure"),
        ("query", kb_path, "optimize", "--lp"),
    ]
    assert cli._build_parser() is cli._build_parser()
    in_one_process = [_outcome(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_outcome(capsys, argv))
    assert in_one_process == fresh
    assert [code for code, _, _ in in_one_process] == [0, 2, 2, 0, 0, 0]


def test_worlds_listing(kb_path, capsys):
    code, stdout, _ = run(
        capsys, "query", kb_path, "worlds", "--strategy", "test_a_if_clear"
    )
    assert code == 0
    assert stdout.count("probability=") == 16
    assert "- 0011 probability=0.252 cost=2" in stdout


def test_worlds_print_each_cost_row_with_its_sign(tmp_path, capsys):
    path = tmp_path / "zero.kb"
    path.write_text(SIGNED_ZERO_KB)
    code, stdout, _ = run(capsys, "query", str(path), "worlds", "--strategy", "take_if_a")
    assert code == 0
    assert stdout.endswith(
        "  worlds:\n"
        "    - 00 probability=0 cost=0\n"
        "    - 01 probability=0 cost=-0\n"
        "    - 10 probability=0 cost=-0\n"
        "    - 11 probability=1 cost=0\n"
    )


def test_export_game_tree_is_plain_dot(kb_path, capsys):
    code, stdout, _ = run(capsys, "query", kb_path, "export-game-tree")
    assert code == 0
    assert stdout.startswith("digraph game_tree {")
    assert "shape=diamond" in stdout


def test_prob_subsume_never_holding_inclusion_prints_zero(kb_path, capsys):
    # the excluded mass sums to 1 + 2.2e-16 here; unclamped this printed
    # a negative probability
    code, stdout, _ = run(
        capsys, "query", kb_path, "prob-subsume", "--strategy", "test_a_if_clear",
        "Fresh", "Other",
    )
    assert code == 0
    assert "probability: 0\n" in stdout


def test_decide_nan_bound_exit_two(kb_path, capsys):
    code, stdout, err = run(
        capsys, "query", kb_path, "decide", "--problem", "d-opt", "--bound", "nan"
    )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "--bound" in err


def test_decide_unknown_problem_exit_two(kb_path, capsys):
    with pytest.raises(SystemExit) as info:
        main(["query", kb_path, "decide", "--problem", "d-best", "--bound", "3"])
    assert info.value.code == 2
    assert "invalid choice: 'd-best'" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-0.1"])
def test_optimize_lp_bad_fully_mixed_exit_two(kb_path, capsys, epsilon):
    code, stdout, err = run(
        capsys, "query", kb_path, "optimize", "--lp", "--fully-mixed", epsilon
    )
    assert code == 2
    assert stdout == ""
    assert err.count("\n") == 1 and "--fully-mixed" in err


@pytest.mark.parametrize(
    "cpt, cost",
    [("{'': true}", "{'0': 0, '1': 1}"), ("{'': 0.5}", "{'0': false, '1': 1}")],
    ids=["cpt", "cost"],
)
def test_yaml_boolean_is_not_a_number(tmp_path, capsys, cpt, cost):
    path = tmp_path / "bool.kb"
    path.write_text(
        "variables: [A]\n"
        "nodes:\n"
        f"  A: {{kind: chance, parents: [], cpt: {cpt}}}\n"
        f"cost: {{parents: [A], table: {cost}}}\n"
    )
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "is not a number" in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "text, hinted",
    [("1e-3", True), ("5E-4", True), ("1.0e3", True), ("'1e-3'", True), ("'1.0e-3'", False)],
)
def test_yaml_exponent_read_as_a_string_names_the_rule(tmp_path, capsys, text, hinted):
    """YAML 1.1 reads a plain float only with a '.' and a signed exponent,
    so these load as strings; the message says so and shows the form,
    unless the text is a quoted number that would load unquoted."""
    path = tmp_path / "exponent.kb"
    path.write_text(
        "variables: [A]\n"
        "nodes:\n"
        f"  A: {{kind: chance, parents: [], cpt: {{'': {text}}}}}\n"
        "cost: {parents: [A], table: {'0': 0, '1': 1}}\n"
    )
    code, stdout, err = run(capsys, "validate", str(path))
    assert (code, stdout) == (2, "")
    value = text.strip("'")
    hint = (
        f"; YAML 1.1 reads '{value}' as a string: a number with an exponent "
        "needs a '.' and a sign, as in 1.0e-3 or 1.0e+3"
    )
    assert err == f"error: {path}: node 'A' cpt: row '' value is not a number{hint * hinted}\n"
    path.write_text(path.read_text().replace(text, "1.0e-3"))
    assert run(capsys, "validate", str(path))[0] == 0


@pytest.mark.parametrize("cost", [".inf", "-.inf", ".nan"])
def test_cost_that_is_not_finite_is_a_violation(tmp_path, capsys, recwarn, cost):
    path = tmp_path / "inf.kb"
    text = fixture_bytes("idelium").decode("utf-8")
    path.write_text(text.replace('"101": 20', f'"101": {cost}'), encoding="utf-8")
    code, stdout, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert "cost: cost in row '101' is not a finite number" in stdout
    for argv in (["optimize", "--lp"], ["optimize", "--pure"]):
        code, stdout, err = run(capsys, "query", str(path), *argv)
        assert code == 2 and stdout == ""
        assert "not a finite number" in err and err.count("\n") == 1
    assert not recwarn.list


def test_world_cap_exits_three_at_once(tmp_path, capsys):
    names = [f"V{i:02d}" for i in range(25)]
    nodes = "".join(
        f"  {v}: {{kind: chance, parents: [], cpt: {{'': 0.5}}}}\n" for v in names
    )
    path = tmp_path / "wide.kb"
    path.write_text(
        f"variables: [{', '.join(names)}, D]\n"
        "nodes:\n" + nodes + "  D: {kind: decision, parents: [V00]}\n"
        "cost: {parents: [V00, D], table: {'00': 0, '01': 1, '10': 5, '11': 2}}\n"
        "tbox:\n"
        "  - {lhs: A, rhs: B, context: V01}\n"
        "strategies:\n"
        "  s: {D: {'0': 1, '1': 0}}\n"
    )
    path = str(path)
    assert run(capsys, "validate", path)[0] == 0
    world = "01" + "0" * 24  # V01 holds, so the axiom A <= B applies
    code, stdout, _ = run(capsys, "query", path, "subsume", "--world", world, "A", "B")
    assert code == 0 and "subsumed: true" in stdout
    for argv in (
        ["expected-cost", "--strategy", "s"],
        ["worlds", "--strategy", "s"],
        ["prob-subsume", "--strategy", "s", "A", "B"],
        ["cond-cost", "--strategy", "s", "--mode", "opt", "A", "B"],
        ["optimize", "--pure"],
        ["optimize", "--pure", "--evidence", "A", "B"],
        ["optimize", "--lp"],
        ["decide", "--problem", "d-opt", "--bound", "1"],
        ["export-game-tree"],
    ):
        code, stdout, err = run(capsys, "query", path, *argv)
        assert code == 3, argv
        assert stdout == ""
        assert err == "error: 2^26 worlds exceed the world cap 1048576\n"


def test_strategy_queries_check_the_world_cap_before_the_strategy(tmp_path, capsys):
    """A decision seeing 20 variables has 2^20 strategy rows; with 2^21
    worlds the query refuses before listing them."""
    names = [f"V{i:02d}" for i in range(20)]
    nodes = "".join(
        f"  {v}: {{kind: chance, parents: [], cpt: {{'': 0.5}}}}\n" for v in names
    )
    path = tmp_path / "wide_decision.kb"
    path.write_text(
        f"variables: [{', '.join(names)}, D]\n"
        "nodes:\n" + nodes + f"  D: {{kind: decision, parents: [{', '.join(names)}]}}\n"
        "cost: {parents: [D], table: {'0': 0, '1': 1}}\n"
        "strategies:\n"
        "  s: {D: {'0': 1}}\n"
    )
    for argv in (
        ["expected-cost", "--strategy", "s"],
        ["worlds", "--strategy", "s"],
        ["prob-subsume", "--strategy", "s", "A", "B"],
        ["cond-cost", "--strategy", "s", "--mode", "opt", "A", "B"],
    ):
        code, stdout, err = run(capsys, "query", str(path), *argv)
        assert (code, stdout) == (3, ""), argv
        assert err == "error: 2^21 worlds exceed the world cap 1048576\n"


def test_a_table_over_more_keys_than_the_world_cap_is_one_violation(tmp_path, capsys):
    path = tmp_path / "repeated_parents.kb"
    path.write_text(
        "variables: [A, B]\n"
        "nodes:\n"
        "  A: {kind: chance, parents: [], cpt: {'': 0.5}}\n"
        f"  B: {{kind: chance, parents: [{', '.join(['A'] * 21)}], cpt: {{'': 0.5}}}}\n"
        "cost: {parents: [A], table: {'0': 0, '1': 1}}\n"
    )
    code, stdout, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert stdout.endswith(
        "result:\n"
        "  violations:\n"
        "    - B: duplicate parent 'A'\n"
        "    - B: CPT over 21 keys needs 2^21 rows, past the world cap 1048576\n"
    )


def test_variable_names_must_be_names(tmp_path, capsys):
    path = tmp_path / "names.kb"
    path.write_text(
        "variables: ['A\"B', x y, 'true', \"c,\\nd\"]\n"
        "nodes:\n"
        "  'A\"B': {kind: chance, parents: [], cpt: {'': 0.5}}\n"
        "  x y: {kind: chance, parents: [], cpt: {'': 0.5}}\n"
        "  'true': {kind: chance, parents: [], cpt: {'': 0.5}}\n"
        "  \"c,\\nd\": {kind: chance, parents: [], cpt: {'': 0.5}}\n"
        "cost: {parents: [x y], table: {'0': 0, '1': 1}}\n"
    )
    code, stdout, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert stdout.endswith(
        "result:\n"
        "  violations:\n"
        "    - 'A\"B': variable name is not a NAME\n"
        "    - 'x y': variable name is not a NAME\n"
        "    - true: variable name 'true' is reserved\n"
        "    - 'c,\\nd': variable name is not a NAME\n"
    )
    code, stdout, err = run(capsys, "query", str(path), "export-game-tree")
    assert (code, stdout) == (2, "")
    assert "is not a NAME" in err and err.count("\n") == 1


def test_a_name_with_a_newline_keeps_one_line_per_violation(tmp_path, capsys):
    path = tmp_path / "newline.kb"
    path.write_text(
        'variables: ["a\\nb"]\n'
        'nodes:\n'
        '  "a\\nb": {kind: chance, parents: []}\n'
        'cost: {parents: [], table: {"": 0}}\n'
    )
    code, stdout, _ = run(capsys, "validate", str(path))
    assert code == 1
    assert stdout.endswith(
        "result:\n"
        "  violations:\n"
        "    - 'a\\nb': variable name is not a NAME\n"
        "    - 'a\\nb': chance node has no CPT\n"
    )


def test_two_to_the_64_pure_strategies_answer_without_enumeration(tmp_path, capsys):
    """One decision seeing six chance variables has 2^64 pure strategies.
    It is a chain of nested scopes by itself, so the expected objective
    is solved row-wise; the evidence objectives still enumerate and
    exit 3."""
    names = [f"C{i}" for i in range(6)]
    nodes = "".join(
        f"  {v}: {{kind: chance, parents: [], cpt: {{'': 0.5}}}}\n" for v in names
    )
    path = tmp_path / "wide_scope.kb"
    path.write_text(
        f"variables: [{', '.join(names)}, D0]\n"
        "nodes:\n"
        + nodes
        + f"  D0: {{kind: decision, parents: [{', '.join(names)}]}}\n"
        "cost: {parents: [C0, D0], table: {'00': 4, '01': 1, '10': 0, '11': 2}}\n"
        "tbox:\n"
        "  - {lhs: A, rhs: B, context: C1}\n"
    )
    path = str(path)
    for argv, line in (
        (["optimize", "--pure"], "  value: 0.5\n"),
        (["optimize", "--pure", "--direction", "max"], "  value: 3\n"),
        (["decide", "--problem", "d-opt", "--bound", "1"], "  answer: true\n"),
        (["decide", "--problem", "d-pes", "--bound", "3"], "  answer: false\n"),
    ):
        code, stdout, err = run(capsys, "query", path, *argv)
        assert (code, err) == (0, ""), argv
        assert line in stdout, argv
    code, stdout, err = run(
        capsys, "query", path, "optimize", "--pure", "--evidence", "A", "B"
    )
    assert (code, stdout) == (3, "")
    assert err == "error: 2^64 pure strategies exceed the cap 1048576\n"


def _late_decisions_kb(path, recall):
    """11 chance roots, then D0, D1 and D2, with the cost on C00 and D2.
    With recall each decision sees every chance root and every earlier
    decision, so the scopes hold 2^11 + 2^12 + 2^13 = 14336 rows, the
    information sets of the KB-keyed sequence form; without it the
    decisions see nothing and their scopes do not nest."""
    names = [f"C{i:02d}" for i in range(11)]
    nodes = "".join(
        f"  {v}: {{kind: chance, parents: [], cpt: {{'': 0.5}}}}\n" for v in names
    )
    for i, d in enumerate(("D0", "D1", "D2")):
        seen = names + ["D0", "D1"][:i] if recall else []
        nodes += f"  {d}: {{kind: decision, parents: [{', '.join(seen)}]}}\n"
    path.write_text(
        f"variables: [{', '.join(names)}, D0, D1, D2]\n"
        "nodes:\n" + nodes +
        "cost: {parents: [C00, D2], table: {'00': 0, '01': 1, '10': 5, '11': 2}}\n"
    )
    return str(path)


def test_fully_mixed_on_14336_information_sets_answers(tmp_path, capsys, monkeypatch):
    """A perfect-recall KB whose scopes hold 14336 rows: the fully-mixed
    query is answered without an LP.  The same decisions seeing nothing
    exit 3 with one line naming two of them."""
    path = _late_decisions_kb(tmp_path / "late.kb", recall=True)

    def fail(*args, **kwargs):
        raise AssertionError("the sequence-form LP was built")

    monkeypatch.setattr(sf, "assemble_lp", fail)
    monkeypatch.setattr(simplex, "minimize", fail)
    epsilon = 1e-6
    code, stdout, err = run(
        capsys, "query", path, "optimize", "--lp", "--fully-mixed", str(epsilon)
    )
    assert code == 0 and err == ""
    kb = load_kb_text(Path(path).read_text()).kb
    result = opt.optimal_mixed_strategy(kb.diagram, fully_mixed=epsilon)
    assert sum(1 << len(local.scope) for local in result.strategy.locals.values()) == 14336
    assert f"  value: {fmt(result.value)}\n  kind: mixed\n  epsilon: 1e-06\n" in stdout
    code, stdout, _ = run(capsys, "query", path, "optimize", "--lp")
    assert code == 0 and "value: 1\n  kind: pure\n" in stdout
    path = _late_decisions_kb(tmp_path / "forgetting.kb", recall=False)
    code, stdout, err = run(
        capsys, "query", path, "optimize", "--lp", "--fully-mixed", str(epsilon)
    )
    assert (code, stdout) == (3, "")
    assert err == "error: no fully-mixed plan: the scopes of decisions D0 and D1 do not nest\n"
    code, stdout, _ = run(capsys, "query", path, "optimize", "--lp")
    assert code == 0 and "value: 1.5\n  kind: pure\n" in stdout


def test_fully_mixed_one_float_above_the_boundary_exits_three(tmp_path, capsys):
    """Every world meets K = 2 decisions: at E = 2^-2 every move gets half
    of its incoming weight, and one float above E exits 3."""
    path = tmp_path / "chain.kb"
    path.write_text(
        "variables: [D1, X, D2]\n"
        "nodes:\n"
        "  D1: {kind: decision, parents: []}\n"
        "  X: {kind: chance, parents: [D1], cpt: {'0': 0.3, '1': 0.6}}\n"
        "  D2: {kind: decision, parents: [X]}\n"
        "cost: {parents: [D1, D2], table: {'00': 0, '01': 1, '10': 2, '11': 3}}\n"
    )
    query = ["query", str(path), "optimize", "--lp", "--fully-mixed"]
    code, stdout, err = run(capsys, *query, "0.25")
    assert code == 0 and err == ""
    rows = [line.split(": ")[1] for line in stdout.splitlines() if line.startswith('      "')]
    assert rows == ["0.5"] * 5
    above = repr(math.nextafter(0.25, 1.0))
    code, stdout, err = run(capsys, *query, above)
    assert code == 3 and stdout == ""
    assert err == (
        f"error: no realization plan has every entry >= {above}: every world "
        "meets all K = 2 decision variables, so the bound must be at most 2^-K = 0.25\n"
    )


@pytest.mark.parametrize("flags", [[], ["--forgetful"]])
def test_strategies_on_a_cyclic_document(tmp_path, capsys, flags):
    """The loader reads each decision's scope before validation, and the
    cycle is still the one violation reported."""
    path = tmp_path / "cycle.kb"
    path.write_text(
        "variables: [A, D, E]\n"
        "nodes:\n"
        "  A: {kind: chance, parents: [E], cpt: {'0': 0.5, '1': 0.5}}\n"
        "  D: {kind: decision, parents: [A]}\n"
        "  E: {kind: decision, parents: [D]}\n"
        "cost: {parents: [A], table: {'0': 0, '1': 1}}\n"
        "strategies:\n"
        "  s:\n"
        "    D: {'0': 0, '1': 1}\n"
        "    E: {'0': 1, '1': 0}\n"
    )
    cycle = "A: parent graph has a cycle through this node"
    code, stdout, err = run(capsys, *flags, "validate", str(path))
    assert (code, err) == (1, "")
    assert stdout.endswith(f"result:\n  violations:\n    - {cycle}\n")
    for query in (["expected-cost", "--strategy", "s"], ["optimize", "--pure"]):
        code, stdout, err = run(capsys, *flags, "query", str(path), *query)
        assert (code, stdout) == (2, "")
        assert err == f"error: {path}: knowledge base is not valid: {cycle}\n"


def test_forgetful_flag_changes_strategy_scope(tmp_path, capsys):
    path = tmp_path / "chain.kb"
    path.write_text(
        "variables: [D1, X, D2]\n"
        "nodes:\n"
        "  D1: {kind: decision, parents: []}\n"
        "  X: {kind: chance, parents: [D1], cpt: {'0': 0.3, '1': 0.6}}\n"
        "  D2: {kind: decision, parents: [X]}\n"
        "cost: {parents: [D2], table: {'0': 0, '1': 1}}\n"
        "strategies:\n"
        "  short:\n"
        "    D1: {'': 1}\n"
        "    D2: {'0': 0, '1': 1}\n"
    )
    # rows of D2 cover only its parent X: valid in forgetful mode only
    code, _, err = run(
        capsys, "query", str(path), "expected-cost", "--strategy", "short"
    )
    assert code == 2
    code, stdout, _ = run(
        capsys,
        "--forgetful",
        "query",
        str(path),
        "expected-cost",
        "--strategy",
        "short",
    )
    assert code == 0
    assert "expected_cost:" in stdout


# --- document parsing edge cases -------------------------------------------


def test_load_kb_text_rejects_bad_rowkey():
    with pytest.raises(KBLoadError, match="row key"):
        load_kb_text(
            "variables: [A]\n"
            "nodes:\n"
            "  A: {kind: chance, parents: [], cpt: {'x': 0.5}}\n"
            "cost: {parents: [A], table: {'0': 0, '1': 1}}\n"
        )


@pytest.mark.parametrize(
    "cpt, cost, message",
    [
        ("{'0x': 0.5}", "{'0': 0, '1': 1}", "node 'A' cpt: row key '0x'"),
        ("{'': 0.5}", "{'0': 0, '1': 1, '0x': 2}", "'cost.table': row key '0x'"),
    ],
    ids=["cpt", "cost"],
)
def test_bad_rowkey_is_an_input_error(tmp_path, capsys, cpt, cost, message):
    path = tmp_path / "rowkey.kb"
    path.write_text(
        "variables: [A]\n"
        "nodes:\n"
        f"  A: {{kind: chance, parents: [], cpt: {cpt}}}\n"
        f"cost: {{parents: [A], table: {cost}}}\n"
    )
    code, stdout, err = run(capsys, "validate", str(path))
    assert (code, stdout) == (2, "")
    assert f"{message} is not a '0'/'1' string" in err and err.count("\n") == 1


def test_load_kb_text_rejects_unknown_decision_in_strategy():
    with pytest.raises(KBLoadError, match="not a decision node"):
        load_kb_text(
            "variables: [A]\n"
            "nodes:\n"
            "  A: {kind: chance, parents: [], cpt: {'': 0.5}}\n"
            "cost: {parents: [A], table: {'0': 0, '1': 1}}\n"
            "strategies:\n"
            "  s: {A: {'': 1}}\n"
        )


def test_load_kb_text_rejects_undeclared_node():
    with pytest.raises(KBLoadError, match="not a declared variable"):
        load_kb_text(
            "variables: [A]\n"
            "nodes:\n"
            "  A: {kind: chance, parents: [], cpt: {'': 0.5}}\n"
            "  B: {kind: chance, parents: [], cpt: {'': 0.5}}\n"
            "cost: {parents: [A], table: {'0': 0, '1': 1}}\n"
        )


def test_load_kb_text_bad_tbox_concept():
    with pytest.raises(KBLoadError, match="tbox"):
        load_kb_text(
            "variables: [A]\n"
            "nodes:\n"
            "  A: {kind: chance, parents: [], cpt: {'': 0.5}}\n"
            "cost: {parents: [A], table: {'0': 0, '1': 1}}\n"
            "tbox:\n"
            "  - {lhs: '(and X', rhs: Y, context: A}\n"
        )


def test_load_kb_text_rejects_a_tbox_that_is_not_a_list():
    with pytest.raises(KBLoadError, match="'tbox' must be a list, got int"):
        load_kb_text(
            "variables: [A]\n"
            "nodes:\n"
            "  A: {kind: chance, parents: [], cpt: {'': 0.5}}\n"
            "cost: {parents: [A], table: {'0': 0, '1': 1}}\n"
            "tbox: 5\n"
        )


def test_integer_rowkeys_are_normalized():
    doc = load_kb_text(
        "variables: [A, B]\n"
        "nodes:\n"
        "  A: {kind: chance, parents: [], cpt: {'': 0.5}}\n"
        "  B: {kind: chance, parents: [A], cpt: {0: 0.5, 1: 0.5}}\n"
        "cost: {parents: [A], table: {0: 0, 1: 1}}\n"
    )
    assert doc.kb.validate() == []
    assert doc.kb.diagram.cpt["B"] == {"0": 0.5, "1": 0.5}


# --- nesting limits --------------------------------------------------------


def _deep_variables(depth, style):
    if style == "flow":
        return "variables: " + "[" * depth + "]" * depth + "\n"
    return "variables:\n" + "- " * depth + "x\n"


@pytest.mark.parametrize("style", ["flow", "block"])
def test_deep_yaml_exits_two(tmp_path, capsys, style):
    path = tmp_path / "deep.kb"
    path.write_text(_deep_variables(5000, style))
    code, stdout, err = run(capsys, "validate", str(path))
    assert code == 2 and stdout == ""
    assert f"nested more than {kbfile.MAX_YAML_DEPTH} levels deep" in err
    assert err.count("\n") == 1


_NUMPY_AFTER_MAIN = (
    "import sys\n"
    "from cider.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print('numpy' in sys.modules)\n"
    "raise SystemExit(code)\n"
)


def test_commands_that_tabulate_no_worlds_do_not_import_numpy(tmp_path):
    """validate, fixtures and subsume --world run in a fresh interpreter
    without loading numpy; expected-cost, which tabulates, loads it."""
    env = dict(os.environ, PYTHONPATH=str(Path(cider.__file__).parents[1]))

    def loads_numpy(script, *argv):
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv],
            capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv
        return proc.stdout.splitlines()[-1] == "True"

    assert not loads_numpy("import sys, cider; print('numpy' in sys.modules)")
    assert not loads_numpy(_NUMPY_AFTER_MAIN, "fixtures", "idelium")
    assert not loads_numpy(_NUMPY_AFTER_MAIN, "validate", "idelium.kb")
    assert not loads_numpy(
        _NUMPY_AFTER_MAIN, "query", "idelium.kb", "subsume", "--world", "1010", "Subject",
        "Infectious",
    )
    assert loads_numpy(
        _NUMPY_AFTER_MAIN, "query", "idelium.kb", "expected-cost", "--strategy", "test_a_if_clear"
    )


@pytest.mark.parametrize("style", ["flow", "block"])
def test_very_deep_yaml_exits_two_in_a_fresh_process(tmp_path, style):
    # a composer without a depth limit would die by a signal here
    path = tmp_path / "deep.kb"
    path.write_text(_deep_variables(100_000, style))
    env = dict(os.environ, PYTHONPATH=str(Path(cider.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "cider.cli", "validate", str(path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert f"nested more than {kbfile.MAX_YAML_DEPTH} levels deep" in proc.stderr
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["validate", "idelium.kb"],
        ["query", "idelium.kb", "optimize", "--pure"],
        ["query", "idelium.kb", "export-game-tree"],
    ],
)
def test_a_closed_stdout_exits_two_with_one_line(tmp_path, argv):
    (tmp_path / "idelium.kb").write_bytes(fixture_bytes("idelium"))
    env = dict(os.environ, PYTHONPATH=str(Path(cider.__file__).parents[1]))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "cider.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env,
            cwd=tmp_path, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr == "error: cannot write the report: [Errno 32] Broken pipe\n"


def _nested_and(depth):
    return "(and Control " * depth + "Subject" + ")" * depth


def _nested_not(depth):
    return "(not " * depth + "D" + ")" * depth


def test_concept_and_context_at_the_nesting_cap(kb_path, capsys):
    code, stdout, _ = run(
        capsys, "query", kb_path, "subsume", "--world", "0000",
        _nested_and(MAX_DEPTH), "Subject",
    )
    assert code == 0 and "subsumed: true" in stdout
    code, stdout, _ = run(
        capsys, "query", kb_path, "prob-subsume", "--strategy", "always_test_a",
        "--context", _nested_not(MAX_DEPTH), "Subject", "Subject",
    )
    assert code == 0 and "probability: 1" in stdout


def test_concept_and_context_past_the_nesting_cap_exit_two(kb_path, capsys):
    deeper = MAX_DEPTH + 1
    code, _, err = run(
        capsys, "query", kb_path, "subsume", "--world", "0000",
        _nested_and(deeper), "Subject",
    )
    assert code == 2 and err.count("\n") == 1
    assert f"nested more than {MAX_DEPTH} levels deep (at position" in err
    code, _, err = run(
        capsys, "query", kb_path, "prob-subsume", "--strategy", "always_test_a",
        "--context", _nested_not(deeper), "Subject", "Subject",
    )
    assert code == 2 and err.count("\n") == 1
    assert f"nested more than {MAX_DEPTH} levels deep (at position" in err


def _kb_with_axiom(tmp_path, lhs, context):
    path = tmp_path / "axiom.kb"
    text = fixture_bytes("idelium").decode("utf-8")
    path.write_text(
        text.replace("tbox:\n", f"tbox:\n  - {{lhs: '{lhs}', rhs: Safe, context: '{context}'}}\n")
    )
    return str(path)


def test_tbox_entry_at_the_nesting_cap(tmp_path, capsys):
    # MAX_DEPTH is even, so the nested negations reduce to D
    def probability(depth, context):
        path = _kb_with_axiom(tmp_path, _nested_and(depth), context)
        assert run(capsys, "validate", path)[0] == 0
        code, stdout, _ = run(
            capsys, "query", path, "prob-subsume", "--strategy", "always_test_a",
            _nested_and(depth), "Safe",
        )
        assert code == 0
        return stdout.rsplit("probability: ", 1)[1]

    assert probability(MAX_DEPTH, _nested_not(MAX_DEPTH)) == probability(1, "D")


@pytest.mark.parametrize("deep", ["lhs", "context"])
def test_tbox_entry_past_the_nesting_cap_exits_two(tmp_path, capsys, deep):
    lhs = _nested_and(MAX_DEPTH + (deep == "lhs"))
    context = _nested_not(MAX_DEPTH + (deep == "context"))
    path = _kb_with_axiom(tmp_path, lhs, context)
    code, _, err = run(capsys, "validate", path)
    assert code == 2 and err.count("\n") == 1
    assert f"tbox[0]: nested more than {MAX_DEPTH} levels deep (at position" in err
