"""Every subcommand and flag combination on generated documents.

Each example draws a KB from ``random_kb``, possibly breaks it, writes it
as YAML and runs every command line below on it.  Every run must end in
exit code 0 to 3 without a traceback, and exit 1 only from ``validate``
reporting violations.
"""

import contextlib
import io
import itertools
import random

import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cider.cli import main
from cider.contextual import print_formula
from cider.el import print_concept

from conftest import random_concept, random_formula, random_kb, random_strategy

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
        "epsilon": draw(st.sampled_from(["0", "1e-6", "0.01", "0.7", "-0.1", "nan", "inf"])),
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
