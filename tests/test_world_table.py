"""The world table against the per-world reference, compared exactly.

The reference loops over ``diagram.worlds()`` with ``joint_probability``,
``cost_of_valuation``, ``restrict`` and ``el.is_subsumed``, adding in
world order.  The table must give the same floats bit for bit, so the
reports built from it stay byte-identical.
"""

import random

import pytest

from cider import diagram as dg
from cider import el
from cider.contextual import (
    context_size_cost,
    eval_context,
    prob_subsumption,
    restrict,
)
from cider.el import ConceptName as N
from cider.evidence import (
    ClassifiedWorld,
    EvidenceQuery,
    classify_worlds,
    greedy_bound,
    WorldClassification,
)
from cider.optimizer import enumerate_pure_strategies, optimal_pure_strategy

from conftest import random_concept, random_formula


def reference_rows(kb, strategy, c, d):
    """(world, bits, forced, probability, cost) of every world."""
    diagram = kb.diagram
    return [
        (
            w,
            diagram.bits(w),
            el.is_subsumed(restrict(kb.vtbox, w), c, d),
            dg.joint_probability(diagram, strategy, w),
            dg.cost_of_valuation(diagram, w),
        )
        for w in diagram.worlds()
    ]


def test_table_matches_per_world_reference(random_kb_corpus):
    rng = random.Random(41)
    for kb, s in random_kb_corpus:
        c, d = random_concept(rng), random_concept(rng)
        context = random_formula(rng, kb.diagram.variables)
        rows = reference_rows(kb, s, c, d)

        table = dg.WorldTable(kb.diagram)
        assert table.joint(s).tolist() == [p for *_, p, _cost in rows]
        assert table.cost.tolist() == [cost for *_, cost in rows]

        excluded = 0.0
        for w, _bits, forced, p, _cost in rows:
            if eval_context(w, context) and not forced:
                excluded += p
        assert prob_subsumption(kb, s, c, d, context) == max(0.0, 1.0 - excluded)

        expected = WorldClassification(
            worlds=tuple(ClassifiedWorld(b, f, p, cost) for _w, b, f, p, cost in rows)
        )
        assert classify_worlds(kb, s, EvidenceQuery(c, d)) == expected

        dist = {r: 0.0 for r in kb.diagram.cost_values}
        for *_, p, cost in rows:
            dist[cost] += p
        assert dg.cost_distribution(kb.diagram, s) == dist
        assert dg.expected_cost(kb.diagram, s) == sum(r * p for r, p in dist.items())

        sizes = {b: len(restrict(kb.vtbox, w)) for w, b, *_ in rows}
        assert context_size_cost(kb).cost_table == sizes


@pytest.mark.parametrize("objective, sign", [
    ("dominant-optimistic", +1), ("dominant-pessimistic", -1),
])
def test_evidence_search_matches_per_world_reference(random_kb_corpus, objective, sign):
    rng = random.Random(43)
    for kb, s in random_kb_corpus:
        query = EvidenceQuery(random_concept(rng), random_concept(rng))
        rows = reference_rows(kb, s, query.lhs, query.rhs)
        best = None
        for pure in enumerate_pure_strategies(kb.diagram):
            strategy = pure.to_strategy()
            joint = [dg.joint_probability(kb.diagram, strategy, w) for w, *_ in rows]
            classification = WorldClassification(worlds=tuple(
                ClassifiedWorld(b, f, p, cost)
                for (_w, b, f, _p, cost), p in zip(rows, joint)
            ))
            value = greedy_bound(classification, sign).value
            if best is None or value < best[0]:
                best = (value, strategy)
        result = optimal_pure_strategy(kb, objective=objective, evidence=query)
        assert (result.value, result.strategy) == best


def test_entailment_decided_once_per_truth_vector(idelium, monkeypatch):
    kb = idelium.kb
    calls = []
    real = el.is_subsumed

    def counting(tbox, c, d):
        calls.append(tbox)
        return real(tbox, c, d)

    monkeypatch.setattr(el, "is_subsumed", counting)
    prob_subsumption(kb, idelium.strategy("uniform"), N("Subject"), N("Infectious"))
    vectors = {
        tuple(eval_context(w, a.context) for a in kb.vtbox) for w in kb.diagram.worlds()
    }
    assert 1 < len(vectors) < 16
    assert len(calls) == len(vectors)


def test_world_cap_refuses_before_allocating():
    names = tuple(f"V{i}" for i in range(21))
    diagram = dg.InfluenceDiagram(
        variables=names,
        kinds={v: dg.CHANCE for v in names},
        parents={v: () for v in names},
        cpt={v: {"": 0.5} for v in names},
        cost_parents=(),
        cost_table={"": 0.0},
    )
    assert dg.WORLD_CAP == 2**20
    with pytest.raises(dg.WorldCapError, match="2\\^21 worlds"):
        dg.WorldTable(diagram)


def test_a_report_computes_its_distribution_once(random_kb_corpus, monkeypatch):
    kb, s = random_kb_corpus[0]
    table = dg.WorldTable(kb.diagram)
    joints = []
    real = table.joint
    monkeypatch.setattr(table, "joint", lambda s: joints.append(s) or real(s))
    dist = table.cost_distribution(s)
    assert dg.expected_cost(table, s) == dg.expected_cost(kb.diagram, s)
    assert dg.cost_distribution(table, s) == dist
    assert len(joints) == 1
