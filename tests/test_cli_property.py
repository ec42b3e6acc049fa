"""Every subcommand and flag combination on generated documents.

Each example draws a KB from ``random_kb``, possibly breaks it, writes it
as YAML and runs every command line below on it.  Every run must end in
exit code 0 to 3 without a traceback, and exit 1 only from ``validate``
reporting violations.  Every pure strategy that ``optimize`` prints,
read back from the report, is a valid strategy whose value prints as
the report's.
"""

import contextlib
import io
import itertools
import json
import random

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cider import diagram as dg
from cider import evidence as ev
from cider._format import format_float as fmt
from cider.cli import main
from cider.el import parse_concept
from cider.kbfile import load_kb_text

from conftest import bench_specs, random_concept, random_formula, random_kb, random_strategy
from semantics import print_concept, print_formula

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# ways to break a document: each is a validation violation or a load error
CORRUPTIONS = (None, "missing-cpt-row", "infinite-cost", "unknown-parent", "cost-list")


def kb_document(kb, strategy, corruption):
    d = kb.diagram
    nodes = {}
    for v in d.variables:
        node = {"kind": d.kinds[v], "parents": list(d.parents[v])}
        if v in d.cpt:
            node["cpt"] = dict(d.cpt[v])
        nodes[v] = node
    doc = {
        "variables": list(d.variables),
        "nodes": nodes,
        "cost": {"parents": list(d.cost_parents), "table": dict(d.cost_table)},
        "tbox": [
            {
                "lhs": print_concept(a.gci.lhs),
                "rhs": print_concept(a.gci.rhs),
                "context": print_formula(a.context),
            }
            for a in kb.vtbox
        ],
        "strategies": {
            "s": {
                name: dict(local.table) for name, local in strategy.locals.items()
            }
        },
    }
    first = d.variables[0]
    if corruption == "missing-cpt-row" and d.chance_nodes:
        nodes[d.chance_nodes[0]]["cpt"].popitem()
    elif corruption == "infinite-cost":
        table = doc["cost"]["table"]
        table[next(iter(table))] = float("inf")
    elif corruption == "unknown-parent":
        nodes[first]["parents"].append("Nowhere")
    elif corruption == "cost-list":
        doc["cost"]["table"] = [1, 2]
    return yaml.safe_dump(doc, sort_keys=False)


_names = st.sampled_from(["A", "B", "top", "Unused"])
_bad_text = st.sampled_from(["(and A", "", "(some r)", "A B"])


@st.composite
def _concepts(draw):
    choice = draw(st.integers(0, 3))
    if choice == 0:
        return draw(_bad_text)
    if choice == 1:
        return draw(_names)
    return print_concept(random_concept(random.Random(draw(st.integers(0, 10**6)))))


@st.composite
def cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    kb = random_kb(rng)
    variables = kb.diagram.variables
    strategy = random_strategy(rng, kb.diagram)
    width = len(variables) + draw(st.sampled_from([0, 0, 0, 1, -1]))
    return {
        "text": kb_document(kb, strategy, draw(st.sampled_from(CORRUPTIONS))),
        "forgetful": draw(st.booleans()),
        "world": "".join(draw(st.sampled_from("01")) for _ in range(max(width, 0))),
        "strategy": draw(st.sampled_from(["s", "s", "s", "absent"])),
        "context": draw(
            _bad_text
            | st.just("Nowhere")
            | st.integers(0, 10**6).map(
                lambda seed: print_formula(random_formula(random.Random(seed), variables))
            )
        ),
        "pairs": [(draw(_concepts()), draw(_concepts())) for _ in range(2)],
        "bound": draw(st.sampled_from(["5", "0", "-1", "nan", "inf", "1e300", "2.36"])),
        "epsilon": draw(st.sampled_from([
            "0", "1e-6", "0.01", "0.7", "-0.1", "nan", "inf",
            "0.5", "0.25", "0.125", "0.5000000000000001",
        ])),
    }


def command_lines(case, path, out_path):
    """Every subcommand, and every combination of its optional flags."""
    (lhs, rhs), (c, d) = case["pairs"]
    strategy = ["--strategy", case["strategy"]]
    yield ["validate", path]
    yield ["fixtures", "idelium", "--out", out_path]
    yield ["fixtures", "absent", "--out", out_path]
    query = ["query", path]
    yield query + ["subsume", "--world", case["world"], lhs, rhs]
    for context in ([], ["--context", case["context"]]):
        yield query + ["prob-subsume", *strategy, *context, lhs, rhs]
    yield query + ["expected-cost", *strategy]
    for mode in ("opt", "pes"):
        yield query + ["cond-cost", *strategy, "--mode", mode, lhs, rhs]
    yield query + ["worlds", *strategy]
    yield query + ["export-game-tree"]
    flags = [
        ([], ["--evidence", c, d]),
        ([], ["--mode", "pes"]),
        ([], ["--direction", "max"]),
        ([], ["--fully-mixed", case["epsilon"]]),
    ]
    for kind in ("--pure", "--lp"):
        for chosen in itertools.product(*flags):
            yield query + ["optimize", kind, *itertools.chain(*chosen)]
    for problem in ("d-opt", "d-pes", "d-dom-opt", "d-dom-pes"):
        for evidence in ([], ["--evidence", c, d]):
            yield query + ["decide", "--problem", problem, "--bound", case["bound"], *evidence]


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_every_command_line_exits_zero_to_three(tmp_path_factory):
    directory = tmp_path_factory.mktemp("generated")
    path = str(directory / "generated.kb")
    out_path = str(directory / "fixture.kb")
    seen = set()

    @PROPERTY
    @given(cases())
    def check(case):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(case["text"])
        for argv in command_lines(case, path, out_path):
            if case["forgetful"]:
                argv = ["--forgetful", *argv]
            code, stdout, stderr = run(argv)
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in stderr, argv
            if code == 1:
                assert argv[-2:] == ["validate", path], argv
                assert "violations:" in stdout
            seen.add(code)

    check()
    assert seen == {0, 1, 2, 3}


def _printed_strategy(stdout):
    """The report's value text and its strategy block read back as a
    GlobalStrategy."""
    lines = stdout.split("result:\n")[1].splitlines()
    value = lines[0].removeprefix("  value: ")
    locals_, start = {}, lines.index("  strategy:") + 1
    for line in lines[start:]:
        if not line.startswith("      "):  # a decision, then its rows
            d, scope = line.strip().removesuffix("):").split(" (scope ")
            table = {}
            scope = () if scope == "-" else tuple(scope.split(","))
            locals_[d] = dg.LocalStrategy(d, scope, table)
        else:
            key, number = line.strip().split(": ")
            table[json.loads(key)] = float(number)
    return value, dg.GlobalStrategy(locals=locals_)


def test_every_printed_pure_strategy_reevaluates_to_its_printed_value(
    tmp_path, random_kb_corpus
):
    """optimize --pure in both directions, with evidence under both
    bounds, and optimize --lp, on the benchmark KBs at seed 1 and part of
    the random corpus: the printed strategy is a valid strategy of the
    KB, and its expected cost or its bound prints as the report's value.
    Plain --lp prints the value, kind and strategy lines of --pure, and
    each decide problem's optimum is the value of its optimize --pure:
    d-opt and d-pes minimize and maximize, d-dom-opt and d-dom-pes take
    the evidence under --mode opt and pes."""
    rng = random.Random(29)
    documents = [(spec.to_yaml(), spec.concept_pairs[0]) for spec in bench_specs((1,))]
    documents += [
        (kb_document(kb, s, None), (print_concept(random_concept(rng)),
                                    print_concept(random_concept(rng))))
        for kb, s in random_kb_corpus[:60]
    ]
    path = tmp_path / "kb.yaml"
    for text, (c, d) in documents:
        path.write_text(text)
        kb = load_kb_text(text).kb
        query = ev.EvidenceQuery(parse_concept(c), parse_concept(d))
        def expected(s):
            return dg.expected_cost(kb.diagram, s)

        runs = [(["--pure", "--direction", direction], expected) for direction in ("min", "max")]
        runs += [
            (["--pure", "--evidence", c, d, "--mode", mode],
             lambda s, bound=bound: bound(kb, s, query).value)
            for mode, bound in (("opt", ev.optimistic_expected_cost),
                                ("pes", ev.pessimistic_expected_cost))
        ]
        runs.append((["--lp"], expected))
        results = {}
        for flags, evaluate in runs:
            argv = ["query", str(path), "optimize", *flags]
            code, stdout, err = run(argv)
            assert code == 0, (argv, err)
            value, strategy = _printed_strategy(stdout)
            assert not dg.validate_strategy(kb.diagram, strategy), argv
            assert fmt(evaluate(strategy)) == value, argv
            results[flags[0], flags[-1]] = stdout.split("result:\n")[1]
        assert results["--lp", "--lp"] == results["--pure", "min"]
        for problem, key in (("d-opt", "min"), ("d-pes", "max"),
                             ("d-dom-opt", "opt"), ("d-dom-pes", "pes")):
            evidence = ["--evidence", c, d] if key in ("opt", "pes") else []
            argv = ["query", str(path), "decide", "--problem", problem, "--bound", "0",
                    *evidence]
            code, stdout, err = run(argv)
            assert code == 0, (argv, err)
            optimum = stdout.split("  optimum: ")[1]
            assert results["--pure", key].startswith(f"  value: {optimum}"), argv
