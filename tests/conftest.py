"""Shared fixtures and seeded random generators for the test suite."""

import dataclasses
import random
import sys
from pathlib import Path

import pytest

from cider import diagram as dg
from cider import el
from cider.contextual import (
    And,
    FALSE,
    KnowledgeBase,
    Not,
    Or,
    TRUE,
    Var,
    VGCI,
)
from cider.fixtures import load_fixture_kb, load_fixture_model

CONCEPT_POOL = ("A", "B", "C", "E", "F")
ROLE_POOL = ("r", "s")


@pytest.fixture(scope="session")
def idelium():
    return load_fixture_kb()


@pytest.fixture(scope="session")
def idelium_model():
    return load_fixture_model()


def bench_specs(seeds):
    """The benchmark's generated KB specs of every workload at the seeds."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import kbgen
    finally:
        sys.path.pop(0)
    return [
        spec
        for workload in ("world-queries", "strategy-search", "small-kbs")
        for seed in seeds
        for spec in kbgen.generate(workload, seed)
    ]


def all_rowkeys(n):
    return [format(i, f"0{n}b") if n else "" for i in range(2**n)]


def random_diagram(rng, n_vars=None, max_decisions=3, full_observation=False,
                   max_parents=2, strategy_cap_log2=10):
    """Small random influence diagram with Boolean nodes and one cost node.

    full_observation gives every decision all earlier variables as
    parents, which makes the perfect-information tree optimum attainable
    by a plain strategy.  Regenerates until the pure-strategy space is
    small enough to enumerate in tests.
    """
    while True:
        n = n_vars or rng.randint(2, 4)
        variables = tuple(f"V{i}" for i in range(n))
        kinds = {}
        n_decisions = 0
        for i, v in enumerate(variables):
            if n_decisions < max_decisions and rng.random() < 0.4:
                kinds[v] = dg.DECISION
                n_decisions += 1
            else:
                kinds[v] = dg.CHANCE
        parents = {}
        for i, v in enumerate(variables):
            earlier = list(variables[:i])
            if full_observation and kinds[v] == dg.DECISION:
                parents[v] = tuple(earlier)
            else:
                rng.shuffle(earlier)
                k = min(len(earlier), rng.randint(0, max_parents))
                parents[v] = tuple(p for p in variables[:i] if p in earlier[:k])
        cpt = {
            v: {key: rng.random() for key in all_rowkeys(len(parents[v]))}
            for v in variables
            if kinds[v] == dg.CHANCE
        }
        n_cost_parents = rng.randint(1, n)
        cost_parents = tuple(sorted(rng.sample(variables, n_cost_parents),
                                    key=variables.index))
        cost_table = {
            key: float(rng.choice((0, 0, 1, 2, 5, 10, 20, 90)))
            for key in all_rowkeys(len(cost_parents))
        }
        diagram = dg.InfluenceDiagram(
            variables=variables,
            kinds=kinds,
            parents=parents,
            cpt=cpt,
            cost_parents=cost_parents,
            cost_table=cost_table,
        )
        scopes_log2 = sum(
            2 ** len(dg.strategy_scope(diagram, d)) for d in diagram.decision_nodes
        )
        if scopes_log2 <= strategy_cap_log2:
            assert not dg.validate(diagram)
            return diagram


def random_strategy(rng, diagram, pure=None):
    if pure is None:
        pure = rng.random() < 0.5
    locals_ = {}
    for d in diagram.decision_nodes:
        scope = dg.strategy_scope(diagram, d)
        table = {}
        for key in all_rowkeys(len(scope)):
            table[key] = float(rng.randint(0, 1)) if pure else rng.random()
        locals_[d] = dg.LocalStrategy(decision=d, scope=scope, table=table)
    return dg.GlobalStrategy(locals=locals_)


def random_concept(rng, depth=2):
    roll = rng.random()
    if depth <= 0 or roll < 0.55:
        return el.ConceptName(rng.choice(CONCEPT_POOL))
    if roll < 0.65:
        return el.TOP
    if roll < 0.85:
        return el.Conjunction(random_concept(rng, depth - 1),
                              random_concept(rng, depth - 1))
    return el.Existential(rng.choice(ROLE_POOL), random_concept(rng, depth - 1))


def random_formula(rng, variables, depth=2):
    roll = rng.random()
    if depth <= 0 or roll < 0.5:
        return Var(rng.choice(variables))
    if roll < 0.55:
        return TRUE
    if roll < 0.6:
        return FALSE
    if roll < 0.75:
        return Not(random_formula(rng, variables, depth - 1))
    if roll < 0.9:
        return And(random_formula(rng, variables, depth - 1),
                   random_formula(rng, variables, depth - 1))
    return Or(random_formula(rng, variables, depth - 1),
              random_formula(rng, variables, depth - 1))


def random_tbox(rng, max_axioms=6):
    return frozenset(
        el.GCI(random_concept(rng), random_concept(rng))
        for _ in range(rng.randint(0, max_axioms))
    )


def random_kb(rng, diagram=None):
    """A KB with random contextual axioms, over a random diagram unless
    one is given."""
    if diagram is None:
        diagram = random_diagram(rng)
    vtbox = tuple(
        VGCI(
            gci=el.GCI(random_concept(rng), random_concept(rng)),
            context=random_formula(rng, diagram.variables),
        )
        for _ in range(rng.randint(0, 4))
    )
    return KnowledgeBase(diagram=diagram, vtbox=vtbox)


def with_scopes(kb, forgetful):
    """The KB with its diagram's scope policy set: influence sets, or
    with forgetful=True only the direct parents."""
    diagram = dataclasses.replace(kb.diagram, forgetful=forgetful)
    return dataclasses.replace(kb, diagram=diagram)


@pytest.fixture(scope="session")
def random_kb_corpus():
    """200 randomized (kb, strategy) pairs shared by the bound criteria."""
    rng = random.Random(20240)
    return [(kb, random_strategy(rng, kb.diagram)) for kb in
            (random_kb(rng) for _ in range(200))]
