"""Conditional expected costs: worked values, greedy bounds, and the oracle."""

import json
import math
import random
import sys

import pytest

from cider import diagram as dg
from cider.cli import _conditional_json
from cider.contextual import VGCI, KnowledgeBase, Var
from cider.el import GCI, ConceptName as N, parse_concept
from cider.evidence import (
    ORACLE_LIMIT,
    EvidenceQuery,
    UndefinedConditionalError,
    brute_force_conditional_bounds,
    classify_worlds,
    conditional_expectation,
    optimistic_expected_cost,
    pessimistic_expected_cost,
)

from cider.kbfile import load_kb_text

from conftest import bench_specs, random_concept
from exact import certify_bound

SUB_INF = EvidenceQuery(N("Subject"), N("Infectious"))
TAUTOLOGY = EvidenceQuery(N("Anything"), N("Anything"))


def test_conditional_expectation_worked_values():
    assert conditional_expectation(
        [(0.012, 90), (0.054, 90), (0.028, 20)]
    ) == pytest.approx(69.149, abs=1e-3)
    assert conditional_expectation([(0.054, 5), (0.126, 0)]) == pytest.approx(
        1.5, abs=1e-9
    )
    assert conditional_expectation([(0.37, 42.0)]) == pytest.approx(42.0)


def test_conditional_expectation_overlays(idelium_model):
    overlays = idelium_model.cost_overlays
    assert conditional_expectation(overlays["subject_benefits"]) == pytest.approx(
        69.149, abs=1e-3
    )
    assert conditional_expectation(overlays["subject_safe"]) == pytest.approx(
        1.5, abs=1e-9
    )


def test_conditional_expectation_zero_mass():
    with pytest.raises(UndefinedConditionalError):
        conditional_expectation([])
    with pytest.raises(UndefinedConditionalError):
        conditional_expectation([(0.0, 5.0)])


def test_classify_worlds_fixture(idelium):
    kb = idelium.kb
    s = idelium.strategy("test_a_if_clear")
    table, forced, joint = classify_worlds(kb, s, SUB_INF)
    assert table.size == 16
    assert joint.sum() == pytest.approx(1.0)
    # exactly the D-worlds
    assert forced.tolist() == [b.startswith("1") for b in dg.row_keys(4)]
    positive_forced = joint[forced & (joint > 0)]
    assert positive_forced.size == 4
    assert positive_forced.sum() == pytest.approx(0.3)


def test_classify_worlds_degenerate(idelium):
    kb = idelium.kb
    s = idelium.strategy("test_a_if_clear")
    assert classify_worlds(kb, s, TAUTOLOGY)[1].all()
    bare = KnowledgeBase(diagram=kb.diagram, vtbox=())
    fresh = EvidenceQuery(N("Nowhere"), N("Mentioned"))
    assert not classify_worlds(bare, s, fresh)[1].any()


def test_optimistic_fixture_trace(idelium):
    kb = idelium.kb
    s = idelium.strategy("test_a_if_clear")
    result = optimistic_expected_cost(kb, s, SUB_INF)
    assert result.value == pytest.approx(3.445, abs=1e-3)
    # forced D-worlds plus the cost-0 and cost-2 optional worlds
    assert result.evidence_probability == pytest.approx(0.3 + 0.378 + 0.252, abs=1e-9)
    assert "0011" in result.included_worlds  # cost-2 world
    assert "0010" in result.included_worlds  # cost-0 world
    assert "0101" not in result.included_worlds  # cost-20 world stays out


def test_pessimistic_fixture_trace(idelium):
    kb = idelium.kb
    s = idelium.strategy("test_a_if_clear")
    result = pessimistic_expected_cost(kb, s, SUB_INF)
    assert result.value == pytest.approx(11.081, abs=1e-3)
    assert result.evidence_probability == pytest.approx(0.3 + 0.07, abs=1e-9)


def test_tautology_conditioning_is_identity(idelium):
    kb = idelium.kb
    for name in ("test_a_if_clear", "uniform", "never_test_a"):
        s = idelium.strategy(name)
        expected = dg.expected_cost(kb.diagram, s)
        assert optimistic_expected_cost(kb, s, TAUTOLOGY).value == pytest.approx(
            expected, abs=1e-9
        )
        assert pessimistic_expected_cost(kb, s, TAUTOLOGY).value == pytest.approx(
            expected, abs=1e-9
        )


def test_no_forced_mass_concentrates_on_extremes(idelium):
    bare = KnowledgeBase(diagram=idelium.kb.diagram, vtbox=())
    s = idelium.strategy("test_a_if_clear")
    query = EvidenceQuery(N("Fresh"), N("Pair"))
    low = optimistic_expected_cost(bare, s, query)
    high = pessimistic_expected_cost(bare, s, query)
    table = dg.WorldTable(bare.diagram)
    p = dict(zip(dg.row_keys(4), table.joint(s).tolist()))
    assert low.value == 0.0
    # cost-0 worlds 0110 and 1111 have probability 0 and stay out
    assert low.included_worlds == {"0010", "1011"}
    assert low.evidence_probability == p["0010"] + p["1011"]
    assert high.value == 90.0
    assert high.included_worlds == {"1100"}  # cost-90 world 1000 has probability 0


def test_oracle_fixture(idelium):
    kb = idelium.kb
    s = idelium.strategy("test_a_if_clear")
    low, high = brute_force_conditional_bounds(kb, s, SUB_INF)
    assert low == pytest.approx(3.445, abs=1e-3)
    assert high == pytest.approx(11.081, abs=1e-3)
    both = brute_force_conditional_bounds(kb, s, TAUTOLOGY)
    assert both[0] == both[1] == pytest.approx(4.604, abs=1e-9)


def test_oracle_refuses_large_instances(idelium):
    bare = KnowledgeBase(diagram=idelium.kb.diagram, vtbox=())
    s = idelium.strategy("uniform")
    with pytest.raises(ValueError, match="exceed"):
        brute_force_conditional_bounds(bare, s, EvidenceQuery(N("A"), N("B")), limit=3)


def test_result_serialization(idelium):
    kb = idelium.kb
    s = idelium.strategy("test_a_if_clear")
    result = optimistic_expected_cost(kb, s, SUB_INF)
    payload = json.loads(_conditional_json(result))
    assert set(payload) == {"value", "evidence_probability", "included_worlds"}
    assert payload["included_worlds"] == sorted(payload["included_worlds"])
    assert set(payload["included_worlds"]) == result.included_worlds


def test_single_forced_world():
    d = dg.InfluenceDiagram(
        variables=("A",),
        kinds={"A": dg.CHANCE},
        parents={"A": ()},
        cpt={"A": {"": 1.0}},
        cost_parents=("A",),
        cost_table={"0": 3.0, "1": 8.0},
    )
    kb = KnowledgeBase(diagram=d, vtbox=())
    s = dg.GlobalStrategy(locals={})
    low = optimistic_expected_cost(kb, s, TAUTOLOGY)
    high = pessimistic_expected_cost(kb, s, TAUTOLOGY)
    assert low.value == high.value == 8.0
    assert brute_force_conditional_bounds(kb, s, TAUTOLOGY) == (8.0, 8.0)


def test_overflowing_weighted_sums_stay_quiet():
    """Costs at the float maximum: the weighted sum over all four worlds
    rounds past it to inf, with no RuntimeWarning, as in Python floats."""
    d = dg.InfluenceDiagram(
        variables=("A", "B"),
        kinds={"A": dg.CHANCE, "B": dg.CHANCE},
        parents={"A": (), "B": ()},
        cpt={"A": {"": 0.472}, "B": {"": 0.101}},
        cost_parents=("A",),
        cost_table={"0": sys.float_info.max, "1": sys.float_info.max},
    )
    axiom = VGCI(gci=GCI(N("X"), N("Y")), context=Var("A"))
    kb = KnowledgeBase(diagram=d, vtbox=(axiom,))
    s = dg.GlobalStrategy(locals={})
    for bound in (optimistic_expected_cost, pessimistic_expected_cost):
        result = bound(kb, s, EvidenceQuery(N("X"), N("Y")))
        assert result.value == sys.float_info.max
        assert result.included_worlds == {"10", "11"}
        assert bound(kb, s, TAUTOLOGY).value == math.inf


def test_intermediate_cost_inclusion_helps():
    """Including a middle-cost world can lower the average further than
    only the cheapest one: forced (0.1 mass, cost 10); optional
    (0.05, 0) and (0.8, 4)."""
    outcomes_cheap_only = conditional_expectation([(0.1, 10), (0.05, 0)])
    outcomes_both = conditional_expectation([(0.1, 10), (0.05, 0), (0.8, 4)])
    assert outcomes_both < outcomes_cheap_only


def test_greedy_matches_oracle_randomized(random_kb_corpus):
    rng = random.Random(77)
    for kb, s in random_kb_corpus[:60]:
        query = EvidenceQuery(random_concept(rng), random_concept(rng))
        low = optimistic_expected_cost(kb, s, query)
        high = pessimistic_expected_cost(kb, s, query)
        oracle_low, oracle_high = brute_force_conditional_bounds(kb, s, query)
        assert low.value == pytest.approx(oracle_low, abs=1e-9)
        assert high.value == pytest.approx(oracle_high, abs=1e-9)


def test_greedy_included_worlds_cover_forced(idelium):
    kb = idelium.kb
    s = idelium.strategy("test_a_if_clear")
    table, forced, joint = classify_worlds(kb, s, SUB_INF)
    forced_bits = {
        b for b, f, p in zip(dg.row_keys(4), forced, joint) if f and p > 0
    }
    for bound in (optimistic_expected_cost, pessimistic_expected_cost):
        result = bound(kb, s, SUB_INF)
        assert forced_bits <= result.included_worlds


def test_every_bound_meets_its_optimality_condition(random_kb_corpus):
    """Both bounds of every strategy and query pair of the benchmark KBs
    at seeds 1, 3 and 5, and of the random corpus, checked exactly by
    ``certify_bound``: many have more optional worlds than the subset
    oracle takes, and some have an optional world costing the bound
    within the report's tolerance."""
    rng = random.Random(89)
    cases = [(kb, s, EvidenceQuery(random_concept(rng), random_concept(rng)))
             for kb, s in random_kb_corpus]
    for spec in bench_specs((1, 3, 5)):
        doc = load_kb_text(spec.to_yaml())
        cases += [(doc.kb, doc.strategy(name), EvidenceQuery(parse_concept(c), parse_concept(d)))
                  for name in sorted(spec.strategies) for c, d in spec.concept_pairs]
    beyond = ties = 0
    for kb, s, query in cases:
        table, forced, probability = classify_worlds(kb, s, query)
        optional = ~forced & (probability > 0.0)
        beyond += int(optional.sum()) > ORACLE_LIMIT
        for sign, bound in ((+1, optimistic_expected_cost), (-1, pessimistic_expected_cost)):
            result = bound(kb, s, query)
            certify_bound(table, forced, probability, sign, result)
            ties += bool(forced.any() and (abs(table.cost[optional] - result.value) <= 1e-9).any())
    assert beyond >= 25 and ties >= 1
