"""The numbers that ``expected-cost`` and ``prob-subsume`` print, against
exact arithmetic, on every benchmark KB at seeds 1, 3 and 5.

The bound is |printed - exact| <= 1e-14 + 5e-9 |exact|.  The relative
term is the rounding of the 9-significant-digit format; the absolute
term covers near-zero probabilities computed as one minus an excluded
mass, which miss exact by at most about 2e-15.  This is not the
``tolerance: abs=1e-09`` that the reports print: an expected cost in
the tens can be printed more than 1e-9 from its exact value.
"""

from fractions import Fraction

from cider.cli import main
from cider.el import parse_concept
from cider.kbfile import load_kb_text

from conftest import bench_specs
from exact import (
    exact_cost_distribution,
    exact_expected_cost,
    exact_joint,
    exact_prob_subsumption,
)

ABS = Fraction(1, 10**14)
REL = Fraction(5, 10**9)


def _result(capsys, *argv):
    """The report's result lines, each as (key, printed text)."""
    assert main(list(argv)) == 0
    stdout = capsys.readouterr().out
    lines = stdout.split("result:\n", 1)[1].splitlines()
    return [tuple(line.strip().split(": ", 1)) for line in lines]


def _close(printed, exact):
    return abs(Fraction(printed) - exact) <= ABS + REL * abs(exact)


def test_printed_numbers_are_near_exact(tmp_path, capsys):
    checked = 0
    for spec in bench_specs((1, 3, 5)):
        path = tmp_path / f"{spec.name}.kb"
        path.write_text(spec.to_yaml(), encoding="utf-8")
        doc = load_kb_text(spec.to_yaml())
        pairs = [tuple(map(parse_concept, pair)) for pair in spec.concept_pairs]
        for name in sorted(spec.strategies):
            joint = exact_joint(doc.kb.diagram, doc.strategy(name))
            query = ("query", str(path))
            (key, mean), (heading,), *rows = _result(
                capsys, *query, "expected-cost", "--strategy", name
            )
            assert (key, heading) == ("expected_cost", "distribution:")
            assert _close(mean, exact_expected_cost(doc.kb.diagram, joint)), (path, name)
            dist = sorted(exact_cost_distribution(doc.kb.diagram, joint).items())
            assert len(rows) == len(dist)
            for (cost, p), (r, q) in zip(rows, dist):
                assert _close(cost, r) and _close(p, q), (path, name, cost)
            for (c, d), text in zip(pairs, spec.concept_pairs):
                [(key, p)] = _result(capsys, *query, "prob-subsume", "--strategy", name, *text)
                assert key == "probability"
                exact = exact_prob_subsumption(doc.kb, joint, c, d)
                assert _close(p, exact), (path, name, text)
                checked += 1
    assert checked >= 135
