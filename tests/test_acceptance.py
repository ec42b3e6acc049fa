"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a single PASS/FAIL line (visible with pytest -s); the
assertions carry the tolerances.  The randomized-corpus criteria share
the session-scoped 200-KB corpus from conftest.
"""

import itertools
import random

from cider import diagram as dg
from cider import optimizer as opt
from cider.contextual import (
    KnowledgeBase,
    prob_subsumption,
    prob_subsumption_in_model,
)
from cider.el import ConceptName as N, TOP, is_subsumed, parse_concept
from cider.evidence import (
    EvidenceQuery,
    brute_force_conditional_bounds,
    conditional_expectation,
    optimistic_expected_cost,
    pessimistic_expected_cost,
)

from conftest import random_concept, random_diagram, random_tbox
from test_el import SUITE


def _criterion(number, description, body):
    try:
        body()
    except BaseException:
        print(f"ACCEPTANCE {number} FAIL - {description}")
        raise
    print(f"ACCEPTANCE {number} PASS - {description}")


def test_criterion_1_cost_distribution_and_expected_cost(idelium):
    def body():
        d = idelium.kb.diagram
        s = idelium.strategy("test_a_if_clear")
        dist = dg.cost_distribution(d, s)
        target = {0: 0.504, 2: 0.252, 5: 0.108, 20: 0.124, 90: 0.012}
        assert set(dist) == set(target)
        for r, p in target.items():
            assert abs(dist[r] - p) <= 1e-9
        assert abs(dg.expected_cost(d, s) - 4.604) <= 1e-9

    _criterion(1, "fixture cost distribution and expected cost 4.604", body)


def test_criterion_2_always_test_and_pure_optimum(idelium):
    def body():
        d = idelium.kb.diagram
        always = idelium.strategy("always_test_a")
        assert abs(dg.cost_distribution(d, always)[0] - 0.63) <= 1e-9

        # independent brute force: enumerate the four TA tables and
        # evaluate each by direct world summation, no library calls
        def direct_expected(table):
            total = 0.0
            for bits in itertools.product((0, 1), repeat=4):
                w = dict(zip("D S TA P".split(), bits))
                p = 0.3 if w["D"] else 0.7
                p_s = 0.4 if w["D"] else 0.1
                p *= p_s if w["S"] else 1 - p_s
                p_ta = table[w["S"]]
                p *= p_ta if w["TA"] else 1 - p_ta
                p_pos = {
                    (0, 0): 0.1,
                    (0, 1): 0.4,
                    (1, 0): 0.9,
                    (1, 1): 0.7,
                }[(w["D"], w["TA"])]
                p *= p_pos if w["P"] else 1 - p_pos
                cost = {
                    (0, 0, 0): 20, (0, 0, 1): 0, (0, 1, 0): 20, (0, 1, 1): 2,
                    (1, 0, 0): 90, (1, 0, 1): 20, (1, 1, 0): 5, (1, 1, 1): 0,
                }[(w["D"], w["P"], w["TA"])]
                total += p * cost
            return total

        tables = [
            {0: ta0, 1: ta1} for ta0 in (0.0, 1.0) for ta1 in (0.0, 1.0)
        ]
        brute_best = min(direct_expected(t) for t in tables)
        result = opt.optimal_pure_strategy(idelium.kb)
        assert abs(result.value - 2.36) <= 1e-9
        assert abs(result.value - brute_best) <= 1e-9
        assert result.strategy.locals["TA"].table == {"0": 1.0, "1": 1.0}

    _criterion(2, "always-test-A mass at zero cost and pure optimum 2.36", body)


def test_criterion_3_conditional_values_and_model_probability(idelium_model):
    def body():
        assert (
            abs(
                conditional_expectation([(0.012, 90), (0.054, 90), (0.028, 20)])
                - 69.149
            )
            <= 1e-3
        )
        assert (
            abs(conditional_expectation([(0.054, 5), (0.126, 0)]) - 1.5) <= 1e-9
        )
        p = prob_subsumption_in_model(
            idelium_model.model, N("Subject"), N("Benefits")
        )
        assert abs(p - 0.094) <= 1e-9

    _criterion(3, "worked conditional expectations and model probability 0.094", body)


def test_criterion_4_oracle_equivalence(idelium, random_kb_corpus):
    def body():
        rng = random.Random(4104)
        for kb, s in random_kb_corpus:
            query = EvidenceQuery(random_concept(rng), random_concept(rng))
            low = optimistic_expected_cost(kb, s, query).value
            high = pessimistic_expected_cost(kb, s, query).value
            oracle_low, oracle_high = brute_force_conditional_bounds(kb, s, query)
            assert abs(low - oracle_low) <= 1e-9
            assert abs(high - oracle_high) <= 1e-9
        s = idelium.strategy("test_a_if_clear")
        query = EvidenceQuery(N("Subject"), N("Infectious"))
        assert abs(optimistic_expected_cost(idelium.kb, s, query).value - 3.445) <= 1e-3
        assert abs(pessimistic_expected_cost(idelium.kb, s, query).value - 11.081) <= 1e-3

    _criterion(4, "greedy bounds equal the subset oracle on 200 random KBs", body)


def test_criterion_5_sandwich(random_kb_corpus):
    def body():
        rng = random.Random(5105)
        tautology = EvidenceQuery(N("Same"), N("Same"))
        for kb, s in random_kb_corpus:
            expected = dg.expected_cost(kb.diagram, s)
            query = EvidenceQuery(random_concept(rng), random_concept(rng))
            low = optimistic_expected_cost(kb, s, query).value
            high = pessimistic_expected_cost(kb, s, query).value
            assert low <= expected + 1e-9
            assert expected <= high + 1e-9
            assert (
                abs(optimistic_expected_cost(kb, s, tautology).value - expected)
                <= 1e-9
            )
            assert (
                abs(pessimistic_expected_cost(kb, s, tautology).value - expected)
                <= 1e-9
            )

    _criterion(5, "conditional bounds sandwich the expected cost on 200 KBs", body)


def test_criterion_6_el_suite():
    def body():
        assert len(SUITE) >= 20
        for tbox, lhs, rhs, answer in SUITE:
            assert is_subsumed(tbox, parse_concept(lhs), parse_concept(rhs)) is answer
        rng = random.Random(6106)
        names = [N(x) for x in ("A", "B", "C", "E", "F")]
        for _ in range(500):
            bigger = list(random_tbox(rng))
            smaller = [a for a in bigger if rng.random() < 0.6]
            c = random_concept(rng)
            assert is_subsumed(smaller, c, c)
            assert is_subsumed(smaller, c, TOP)
            a, b = rng.choice(names), rng.choice(names)
            if is_subsumed(smaller, a, b):
                assert is_subsumed(bigger, a, b)

    _criterion(6, "hand-derived subsumption suite and 500-TBox properties", body)


def test_criterion_7_lp_consistency(idelium):
    def body():
        rng = random.Random(7107)
        for _ in range(100):
            d = random_diagram(rng, strategy_cap_log2=8)
            pure = opt.optimal_pure_strategy(KnowledgeBase(diagram=d, vtbox=()))
            mixed = opt.optimal_mixed_strategy(d)
            assert (mixed.value, mixed.strategy) == (pure.value, pure.strategy)
        for _ in range(25):
            d = random_diagram(rng, full_observation=True)
            pure = opt.optimal_pure_strategy(KnowledgeBase(diagram=d, vtbox=()))
            mixed = opt.optimal_mixed_strategy(d)
            assert abs(mixed.value - pure.value) <= 1e-7
        assert abs(opt.optimal_mixed_strategy(idelium.kb).value - 2.36) <= 1e-7

    _criterion(7, "LP value vs pure optimum on 100 diagrams and the fixture", body)


def test_criterion_8_probabilistic_subsumption(idelium, random_kb_corpus):
    def body():
        s = idelium.strategy("test_a_if_clear")
        p = prob_subsumption(idelium.kb, s, N("Subject"), N("Infectious"))
        assert abs(p - 0.3) <= 1e-9
        for kb, strategy in random_kb_corpus:
            assert prob_subsumption(kb, strategy, N("Taut"), N("Taut")) == 1.0

    _criterion(8, "probabilistic subsumption 0.3 and exact tautologies", body)
