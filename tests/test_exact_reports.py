"""The reports of ``expected-cost``, ``prob-subsume``, ``cond-cost`` and
``optimize --pure`` against exact arithmetic, on every benchmark KB at
seeds 1, 3 and 5, and the numbers they would print on the random corpus.

The bound is |printed - exact| <= 1e-14 + 5e-9 |exact|.  The relative
term is the rounding of the 9-significant-digit format; the absolute
term covers near-zero probabilities computed as one minus an excluded
mass, which miss exact by at most about 2e-15.  This is not the
``tolerance: abs=1e-09`` that the reports print: an expected cost in
the tens can be printed more than 1e-9 from its exact value.
"""

import json
from fractions import Fraction

import pytest

from cider import diagram as dg
from cider import optimizer as opt
from cider._format import format_float as fmt
from cider.cli import main
from cider.contextual import prob_subsumption
from cider.el import parse_concept
from cider.evidence import (
    EvidenceQuery,
    UndefinedConditionalError,
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
    exact_pure_optimum,
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


def _printed_strategy(rows):
    """The strategy of a report's lines after ``strategy:``."""
    locals_ = {}
    for row in rows:
        if len(row) == 1:  # "D (scope A,B):", the scope "-" when empty
            d, scope = row[0].removesuffix("):").split(" (scope ")
            scope = () if scope == "-" else tuple(scope.split(","))
            local = locals_[d] = dg.LocalStrategy(decision=d, scope=scope, table={})
        else:
            key, value = row
            local.table[json.loads(key)] = float(value)
    return dg.GlobalStrategy(locals=locals_)


def test_printed_pure_optimum_is_exact(tmp_path, capsys):
    """``optimize --pure`` in both directions prints a value within the
    bound of the exact optimum over the enumerated pure strategies, and
    a strategy whose exact expected cost is that optimum: of tied
    strategies, any may be printed."""
    checked = 0
    for spec in bench_specs((1, 3, 5)):
        path = tmp_path / f"{spec.name}.kb"
        path.write_text(spec.to_yaml(), encoding="utf-8")
        diagram = load_kb_text(spec.to_yaml()).kb.diagram
        for direction in ("min", "max"):
            exact = exact_pure_optimum(diagram, direction)
            argv = ["query", str(path), "optimize", "--pure", "--direction", direction]
            (key, value), kind, (heading,), *rows = _result(capsys, *argv)
            assert (key, kind, heading) == ("value", ("kind", "pure"), "strategy:")
            assert _close(value, exact), (path, direction)
            strategy = _printed_strategy(rows)
            assert not dg.validate_strategy(diagram, strategy)
            assert exact_expected_cost(diagram, exact_joint(diagram, strategy)) == exact, \
                (path, direction)
            checked += 1
    assert checked >= 270


def test_printed_numbers_of_the_random_corpus_are_exact(random_kb_corpus):
    """On each of the 200 random (kb, strategy) pairs, the text each
    command would print for the library's answer is within the bound of
    exact: the expected cost and each distribution entry;
    ``prob-subsume`` and both conditional bounds for each axiom's own
    inclusion, each bound certified and its printed numbers N(S) / D(S)
    and D(S) over its included worlds S; and the pure optimum in both
    directions, whose strategy's exact expected cost is the optimum."""
    bounds = 0
    for kb, strategy in random_kb_corpus:
        diagram = kb.diagram
        joint = exact_joint(diagram, strategy)
        table = dg.WorldTable(diagram)
        assert _close(fmt(dg.expected_cost(table, strategy)), exact_expected_cost(diagram, joint))
        dist = sorted(exact_cost_distribution(diagram, joint).items())
        printed = sorted(dg.cost_distribution(table, strategy).items())
        assert len(printed) == len(dist)
        for (cost, p), (r, q) in zip(printed, dist):
            assert _close(fmt(cost), r) and _close(fmt(p), q)
        keys = dg.row_keys(len(diagram.variables))
        mass_of = dict(zip(keys, joint))
        cost_of = dict(zip(keys, map(Fraction, table.cost.tolist())))
        for axiom in kb.vtbox:
            c, d = axiom.gci.lhs, axiom.gci.rhs
            p = prob_subsumption(kb, strategy, c, d)
            assert _close(fmt(p), exact_prob_subsumption(kb, joint, c, d))
            query = EvidenceQuery(c, d)
            for sign, bound in BOUNDS.values():
                if not any(joint):
                    with pytest.raises(UndefinedConditionalError):
                        bound(kb, strategy, query)
                    continue
                result = bound(kb, strategy, query)
                certify_bound(*classify_worlds(kb, strategy, query), sign, result)
                worlds = dg.bit_strings(result.included)
                mass = sum(mass_of[w] for w in worlds)
                weighted = sum(mass_of[w] * cost_of[w] for w in worlds)
                assert _close(fmt(result.value), weighted / mass)
                assert _close(fmt(result.evidence_probability), mass)
                bounds += 1
        for direction in ("min", "max"):
            exact = exact_pure_optimum(diagram, direction)
            result = opt.optimal_pure_strategy(kb, direction=direction)
            assert _close(fmt(result.value), exact), direction
            assert exact_expected_cost(diagram, exact_joint(diagram, result.strategy)) == exact
    assert len(random_kb_corpus) == 200 and bounds >= 800
