"""Diagram validation, influence sets, joint distribution, and costs."""

import dataclasses
import itertools
import math
import random

import pytest

from cider.diagram import (
    CHANCE,
    DECISION,
    GlobalStrategy,
    InfluenceDiagram,
    LocalStrategy,
    cost_distribution,
    cost_of_valuation,
    expected_cost,
    influence_set,
    joint_probability,
    strategy_scope,
    validate,
    validate_strategy,
)

from conftest import random_diagram, random_strategy


def reference_joint(diagram, strategy, world):
    """Independent chain-rule product, written without the library helpers."""
    p = 1.0
    for v in diagram.variables:
        if diagram.kinds[v] == CHANCE:
            key = "".join("1" if world[q] else "0" for q in diagram.parents[v])
            row = diagram.cpt[v][key]
        else:
            local = strategy.locals[v]
            key = "".join("1" if world[q] else "0" for q in local.scope)
            row = local.table[key]
        p *= row if world[v] else 1 - row
    return p


def test_fixture_is_valid(idelium):
    assert validate(idelium.kb.diagram) == []


def test_validate_reports_cost_edge_and_bad_probability(idelium):
    d = idelium.kb.diagram
    broken = InfluenceDiagram(
        variables=d.variables,
        kinds=dict(d.kinds),
        parents={**d.parents, "S": ("D", "cost")},
        cpt={**d.cpt, "S": {"00": 1.2, "01": 0.1, "10": 0.4, "11": 0.4}},
        cost_parents=d.cost_parents,
        cost_table=d.cost_table,
    )
    messages = [str(v) for v in validate(broken)]
    assert any("cost node has outgoing edge" in m for m in messages)
    assert any("probability out of range" in m for m in messages)


def test_validate_reports_cycle():
    d = InfluenceDiagram(
        variables=("A", "B"),
        kinds={"A": CHANCE, "B": CHANCE},
        parents={"A": ("B",), "B": ("A",)},
        cpt={"A": {"0": 0.5, "1": 0.5}, "B": {"0": 0.5, "1": 0.5}},
        cost_parents=("A",),
        cost_table={"0": 0.0, "1": 1.0},
    )
    assert any("cycle" in v.message for v in validate(d))


def test_validate_reports_missing_rows():
    d = InfluenceDiagram(
        variables=("A",),
        kinds={"A": CHANCE},
        parents={"A": ()},
        cpt={"A": {}},
        cost_parents=("A",),
        cost_table={"0": 1.0},
    )
    messages = [v.message for v in validate(d)]
    assert any("missing CPT row" in m for m in messages)
    assert any("missing cost row" in m for m in messages)


def test_validate_rejects_decision_cpt(idelium):
    d = idelium.kb.diagram
    broken = InfluenceDiagram(
        variables=d.variables,
        kinds=dict(d.kinds),
        parents=dict(d.parents),
        cpt={**d.cpt, "TA": {"0": 1.0, "1": 0.0}},
        cost_parents=d.cost_parents,
        cost_table=d.cost_table,
    )
    assert any("decision node has a CPT" in str(v) for v in validate(broken))


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_validate_reports_a_cost_that_is_not_finite(idelium, bad):
    d = idelium.kb.diagram
    key = sorted(d.cost_table)[0]
    broken = InfluenceDiagram(
        variables=d.variables,
        kinds=dict(d.kinds),
        parents=dict(d.parents),
        cpt=dict(d.cpt),
        cost_parents=d.cost_parents,
        cost_table={**d.cost_table, key: bad},
    )
    assert [str(v) for v in validate(broken)] == [
        f"cost: cost in row {key!r} is not a finite number"
    ]


def test_influence_set_fixture(idelium):
    assert influence_set(idelium.kb.diagram, "TA") == {"S"}
    with pytest.raises(ValueError):
        influence_set(idelium.kb.diagram, "S")


def test_influence_set_through_chance_chain():
    d = InfluenceDiagram(
        variables=("D1", "X", "D2"),
        kinds={"D1": DECISION, "X": CHANCE, "D2": DECISION},
        parents={"D1": (), "X": ("D1",), "D2": ("X",)},
        cpt={"X": {"0": 0.3, "1": 0.6}},
        cost_parents=("D2",),
        cost_table={"0": 0.0, "1": 1.0},
    )
    assert influence_set(d, "D1") == set()
    assert influence_set(d, "D2") == {"D1", "X"}
    assert strategy_scope(d, "D2") == ("D1", "X")
    assert strategy_scope(dataclasses.replace(d, forgetful=True), "D2") == ("X",)


def test_joint_probability_fixture_world(idelium):
    d = idelium.kb.diagram
    s = idelium.strategy("test_a_if_clear")
    w = {"D": False, "S": False, "TA": True, "P": True}
    assert joint_probability(d, s, w) == pytest.approx(0.252, abs=1e-12)
    blocked = {"D": False, "S": True, "TA": True, "P": True}
    assert joint_probability(d, s, blocked) == 0.0


def test_joint_normalizes(idelium):
    d = idelium.kb.diagram
    for name in ("test_a_if_clear", "uniform", "mirror_symptoms"):
        s = idelium.strategy(name)
        assert sum(joint_probability(d, s, w) for w in d.worlds()) == pytest.approx(
            1.0, abs=1e-9
        )


def test_joint_normalizes_random():
    rng = random.Random(5)
    for _ in range(30):
        d = random_diagram(rng)
        s = random_strategy(rng, d)
        assert sum(joint_probability(d, s, w) for w in d.worlds()) == pytest.approx(
            1.0, abs=1e-9
        )


def test_cost_of_valuation_fixture(idelium):
    d = idelium.kb.diagram
    assert cost_of_valuation(d, d.world("0011")) == 2  # no infection, test A, positive
    assert cost_of_valuation(d, d.world("1100")) == 90  # missed infection on test B


def test_constant_cost_table():
    d = InfluenceDiagram(
        variables=("A",),
        kinds={"A": CHANCE},
        parents={"A": ()},
        cpt={"A": {"": 0.25}},
        cost_parents=("A",),
        cost_table={"0": 7.0, "1": 7.0},
    )
    s = GlobalStrategy(locals={})
    for w in d.worlds():
        assert cost_of_valuation(d, w) == 7.0
    assert cost_distribution(d, s) == {7.0: pytest.approx(1.0)}
    assert expected_cost(d, s) == pytest.approx(7.0)


def test_cost_distribution_is_a_distribution():
    rng = random.Random(29)
    for _ in range(15):
        d = random_diagram(rng)
        dist = cost_distribution(d, random_strategy(rng, d))
        assert all(p >= 0.0 for p in dist.values())
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_cost_distribution_matches_displayed_values(idelium):
    d = idelium.kb.diagram
    dist = cost_distribution(d, idelium.strategy("test_a_if_clear"))
    expected = {0: 0.504, 2: 0.252, 5: 0.108, 20: 0.124, 90: 0.012}
    assert set(dist) == set(expected)
    for r, p in expected.items():
        assert dist[r] == pytest.approx(p, abs=1e-9)
    always = cost_distribution(d, idelium.strategy("always_test_a"))
    assert always[0] == pytest.approx(0.63, abs=1e-9)


def test_expected_cost_fixture(idelium):
    d = idelium.kb.diagram
    assert expected_cost(d, idelium.strategy("test_a_if_clear")) == pytest.approx(
        4.604, abs=1e-9
    )
    assert expected_cost(d, idelium.strategy("always_test_a")) == pytest.approx(
        2.36, abs=1e-9
    )


def test_cost_distribution_against_reference_enumeration():
    rng = random.Random(17)
    for _ in range(20):
        d = random_diagram(rng)
        s = random_strategy(rng, d)
        dist = cost_distribution(d, s)
        reference = {r: 0.0 for r in d.cost_values}
        for bits in itertools.product("01", repeat=len(d.variables)):
            w = {v: b == "1" for v, b in zip(d.variables, bits)}
            reference[cost_of_valuation(d, w)] += reference_joint(d, s, w)
        for r in reference:
            assert dist[r] == pytest.approx(reference[r], abs=1e-12)


def test_expected_cost_linear_in_costs():
    rng = random.Random(23)
    for _ in range(10):
        d = random_diagram(rng)
        s = random_strategy(rng, d)
        scaled = InfluenceDiagram(
            variables=d.variables,
            kinds=d.kinds,
            parents=d.parents,
            cpt=d.cpt,
            cost_parents=d.cost_parents,
            cost_table={k: 3.5 * v for k, v in d.cost_table.items()},
        )
        assert expected_cost(scaled, s) == pytest.approx(
            3.5 * expected_cost(d, s), abs=1e-9
        )


def test_pure_strategy_equals_zero_one_cpt(idelium):
    """A pure local table over the parents acts exactly like a 0/1 CPT."""
    d = idelium.kb.diagram
    s = idelium.strategy("test_a_if_clear")
    as_chance = InfluenceDiagram(
        variables=d.variables,
        kinds={**d.kinds, "TA": CHANCE},
        parents=dict(d.parents),
        cpt={**d.cpt, "TA": {"0": 1.0, "1": 0.0}},
        cost_parents=d.cost_parents,
        cost_table=d.cost_table,
    )
    empty = GlobalStrategy(locals={})
    for w in d.worlds():
        assert joint_probability(d, s, w) == pytest.approx(
            joint_probability(as_chance, empty, w), abs=1e-12
        )


def test_validate_strategy(idelium):
    d = idelium.kb.diagram
    assert validate_strategy(d, idelium.strategy("uniform")) == []
    missing_row = GlobalStrategy(
        locals={"TA": LocalStrategy("TA", ("S",), {"0": 1.0})}
    )
    assert any("missing strategy row" in str(v) for v in validate_strategy(d, missing_row))
    bad_scope = GlobalStrategy(locals={"TA": LocalStrategy("TA", ("D",), {"0": 1, "1": 0})})
    assert any("scope" in str(v) for v in validate_strategy(d, bad_scope))
    assert validate_strategy(d, GlobalStrategy(locals={})) != []


def test_worlds_enumeration_order(idelium):
    d = idelium.kb.diagram
    bits = [d.bits(w) for w in d.worlds()]
    assert bits == sorted(bits)
    assert bits[0] == "0000" and bits[-1] == "1111"
    assert len(bits) == 16
