"""The reports of ``expected-cost``, ``prob-subsume`` and ``cond-cost``
against exact arithmetic, on every benchmark KB at seeds 1, 3 and 5.

The bound is |printed - exact| <= 1e-14 + 5e-9 |exact|.  The relative
term is the rounding of the 9-significant-digit format; the absolute
term covers near-zero probabilities computed as one minus an excluded
mass, which miss exact by at most about 2e-15.  This is not the
``tolerance: abs=1e-09`` that the reports print: an expected cost in
the tens can be printed more than 1e-9 from its exact value.
"""

import json
from fractions import Fraction

from cider import diagram as dg
from cider.cli import main
from cider.el import parse_concept
from cider.evidence import (
    EvidenceQuery,
    classify_worlds,
    optimistic_expected_cost,
    pessimistic_expected_cost,
)
from cider.kbfile import load_kb_text

from conftest import bench_specs
from exact import (
    certify_bound,
    exact_cost_distribution,
    exact_expected_cost,
    exact_joint,
    exact_prob_subsumption,
)

BOUNDS = {"opt": (+1, optimistic_expected_cost), "pes": (-1, pessimistic_expected_cost)}

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


def test_printed_conditional_bounds_are_exact(tmp_path, capsys):
    """Each ``cond-cost`` report prints the worlds of the in-process
    bound, which ``certify_bound`` proves optimal, and the value and
    evidence probability of exactly the worlds it prints: N(S) / D(S)
    and D(S), where N and D add p * cost and p over the printed set S."""
    checked = 0
    for spec in bench_specs((1, 3, 5)):
        path = tmp_path / f"{spec.name}.kb"
        path.write_text(spec.to_yaml(), encoding="utf-8")
        doc = load_kb_text(spec.to_yaml())
        keys = dg.row_keys(len(doc.kb.diagram.variables))
        pairs = [tuple(map(parse_concept, pair)) for pair in spec.concept_pairs]
        for name in sorted(spec.strategies):
            strategy = doc.strategy(name)
            joint = dict(zip(keys, exact_joint(doc.kb.diagram, strategy)))
            for (c, d), text in zip(pairs, spec.concept_pairs):
                query = EvidenceQuery(c, d)
                table, forced, probability = classify_worlds(doc.kb, strategy, query)
                cost = dict(zip(keys, map(Fraction, table.cost.tolist())))
                for mode, (sign, bound) in BOUNDS.items():
                    argv = ["query", str(path), "cond-cost", "--strategy", name,
                            "--mode", mode, *text]
                    where = (path, name, text, mode)
                    result = bound(doc.kb, strategy, query)
                    [(key, report)] = _result(capsys, *argv)
                    assert key == "conditional", where
                    # each number as its printed decimal, exactly
                    printed = json.loads(report, parse_float=Fraction, parse_int=Fraction)
                    assert list(printed) == ["value", "evidence_probability", "included_worlds"]
                    worlds = printed["included_worlds"]
                    assert worlds == dg.bit_strings(result.included), where
                    certify_bound(table, forced, probability, sign, result)
                    mass = sum(joint[w] for w in worlds)
                    weighted = sum(joint[w] * cost[w] for w in worlds)
                    assert _close(printed["value"], weighted / mass), where
                    assert _close(printed["evidence_probability"], mass), where
                    checked += 1
    assert checked >= 300
