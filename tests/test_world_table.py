"""The world table against the per-world reference, compared exactly.

The reference loops over ``diagram.worlds()`` with ``joint_probability``,
``cost_of_valuation``, ``restrict`` and the normalize-and-saturate
``el_reference.is_subsumed``, adding in
world order; the evidence bounds are checked against a greedy pass and
a subset oracle that walk one ``ClassifiedWorld`` object per world.  The
table must give the same floats bit for bit, so the reports built from
it stay byte-identical.
"""

import dataclasses
import itertools
import random
from dataclasses import dataclass

import numpy as np
import pytest

from cider import diagram as dg
from cider.contextual import (
    entailment_column,
    eval_context,
    prob_subsumption,
    restrict,
)
from cider.el import ConceptName as N
from cider.evidence import (
    EvidenceQuery,
    UndefinedConditionalError,
    brute_force_conditional_bounds,
    classify_worlds,
    optimistic_expected_cost,
    pessimistic_expected_cost,
    _greedy_pass,
)
from cider.optimizer import enumerate_pure_strategies, optimal_pure_strategy

from conftest import (
    all_rowkeys,
    random_concept,
    random_diagram,
    random_formula,
    random_kb,
    random_strategy,
    reachable_axioms,
    with_scopes,
)
from el_reference import is_subsumed as reference_is_subsumed


def reference_rows(kb, strategy, c, d):
    """(world, bits, forced, probability, cost) of every world."""
    diagram = kb.diagram
    return [
        (
            w,
            diagram.bits(w),
            reference_is_subsumed(restrict(kb.vtbox, w), c, d),
            dg.joint_probability(diagram, strategy, w),
            dg.cost_of_valuation(diagram, w),
        )
        for w in diagram.worlds()
    ]


@dataclass(frozen=True)
class ClassifiedWorld:
    bits: str
    forced: bool
    probability: float
    cost: float


def classified(rows, joint=None):
    """One ClassifiedWorld per reference row, optionally with another joint."""
    probabilities = joint or [p for *_, p, _cost in rows]
    return [
        ClassifiedWorld(b, f, p, cost)
        for (_w, b, f, _p, cost), p in zip(rows, probabilities)
    ]


def _positive(worlds):
    forced = [w for w in worlds if w.forced and w.probability > 0.0]
    optional = [w for w in worlds if not w.forced and w.probability > 0.0]
    return forced, optional


def _sums(worlds):
    """Mass and weighted cost, added left to right (``sum`` of floats
    compensates its rounding from Python 3.12 on)."""
    mass = weighted = 0.0
    for w in worlds:
        mass += w.probability
        weighted += w.probability * w.cost
    return mass, weighted


def reference_bound(worlds, sign):
    """(value, evidence probability, sorted included bits) of the greedy
    pass, walking one object per world."""
    forced, optional = _positive(worlds)
    if not forced and not optional:
        raise UndefinedConditionalError("no world has positive probability")
    if not forced:
        best = (min if sign > 0 else max)(w.cost for w in optional)
        chosen = [w for w in optional if w.cost == best]
        return best, _sums(chosen)[0], sorted(w.bits for w in chosen)
    mass, weighted = _sums(forced)
    included = [w.bits for w in forced]
    for w in sorted(optional, key=lambda w: (sign * w.cost, w.bits)):
        if not sign * w.cost < sign * (weighted / mass):
            break
        mass += w.probability
        weighted += w.probability * w.cost
        included.append(w.bits)
    return weighted / mass, mass, sorted(included)


def reference_oracle(worlds):
    """(min, max) conditional expectation over every optional subset."""
    forced, optional = _positive(worlds)
    base_mass, base_weighted = _sums(forced)
    mass, weighted = [0.0], [0.0]
    for w in optional:
        mass += [m + w.probability for m in mass]
        weighted += [x + w.probability * w.cost for x in weighted]
    values = [
        (x + base_weighted) / (m + base_mass)
        for m, x in zip(mass, weighted)
        if m + base_mass > 0.0
    ]
    return min(values), max(values)


def distinct_costs_kb(rng):
    """A random KB and strategy over 12 variables whose 4096 worlds each
    have their own cost."""
    diagram = random_diagram(rng, n_vars=12)
    diagram = dataclasses.replace(
        diagram,
        cost_parents=diagram.variables,
        cost_table={key: i / 8 for i, key in enumerate(all_rowkeys(12))},
    )
    return random_kb(rng, diagram), random_strategy(rng, diagram)


def test_table_matches_per_world_reference(random_kb_corpus):
    rng = random.Random(41)
    for kb, s in random_kb_corpus + [distinct_costs_kb(random.Random(12))]:
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

        table, forced, joint = classify_worlds(kb, s, EvidenceQuery(c, d))
        assert forced.tolist() == [f for _w, _b, f, *_ in rows]
        assert joint.tolist() == [p for *_, p, _cost in rows]
        assert table.cost.tolist() == [cost for *_, cost in rows]

        dist = {r: 0.0 for r in kb.diagram.cost_values}
        for *_, p, cost in rows:
            dist[cost] += p
        assert dg.cost_distribution(kb.diagram, s) == dist
        assert dg.expected_cost(kb.diagram, s) == sum(r * p for r, p in dist.items())


@pytest.mark.parametrize("bound, sign", [
    (optimistic_expected_cost, +1), (pessimistic_expected_cost, -1),
])
def test_bounds_match_per_world_reference(random_kb_corpus, bound, sign):
    rng = random.Random(47)
    for kb, s in random_kb_corpus:
        query = EvidenceQuery(random_concept(rng), random_concept(rng))
        worlds = classified(reference_rows(kb, s, query.lhs, query.rhs))
        result = bound(kb, s, query)
        assert (
            result.value, result.evidence_probability, sorted(result.included_worlds)
        ) == reference_bound(worlds, sign)
        assert brute_force_conditional_bounds(kb, s, query) == reference_oracle(worlds)


def _forgets(diagram):
    """Whether some decision's forgetful scope, its parents, differs from
    its influence set."""
    return dataclasses.replace(diagram, forgetful=True).scopes != diagram.scopes


@pytest.fixture(scope="module")
def forgetful_corpus():
    """30 (kb, strategy) pairs over 4 or 5 variables whose forgetful scopes
    differ from their influence sets, which the shared corpus seldom has."""
    rng = random.Random(59)
    pairs = []
    while len(pairs) < 30:
        diagram = random_diagram(rng, n_vars=rng.randint(4, 5), strategy_cap_log2=7)
        if _forgets(diagram):
            pairs.append((random_kb(rng, diagram), random_strategy(rng, diagram)))
    return pairs


# the ids name each bound as the decide problems d-dom-opt and d-dom-pes do
@pytest.mark.parametrize("mode, sign", [("opt", +1), ("pes", -1)],
                         ids=["dominant-optimistic-1", "dominant-pessimistic--1"])
def test_evidence_search_matches_per_world_reference(
    random_kb_corpus, forgetful_corpus, mode, sign
):
    """Every pure strategy scored per world; the first strictly better
    one wins, in either direction, with or without forgetful scopes."""
    rng = random.Random(43)
    corpus = random_kb_corpus + forgetful_corpus
    assert sum(_forgets(kb.diagram) for kb, _ in corpus) >= 31
    for kb, s in corpus:
        query = EvidenceQuery(random_concept(rng), random_concept(rng))
        rows = reference_rows(kb, s, query.lhs, query.rhs)
        for direction, forgetful in itertools.product(("min", "max"), (False, True)):
            scoped = with_scopes(kb, forgetful)
            better = 1.0 if direction == "min" else -1.0
            best = None
            for pure in enumerate_pure_strategies(scoped.diagram):
                strategy = pure.to_strategy()
                joint = [dg.joint_probability(kb.diagram, strategy, w) for w, *_ in rows]
                value = reference_bound(classified(rows, joint), sign)[0]
                if best is None or better * value < better * best[0]:
                    best = (value, strategy)
            result = optimal_pure_strategy(scoped, query, mode, direction)
            assert (result.value, result.strategy) == best


def test_entailment_decided_in_one_pass_labelled_by_world(idelium, completions):
    """One completion over every axiom, then, only when that one finds
    the entailment, one more labelled with one bit per world."""
    kb = idelium.kb
    table = dg.WorldTable(kb.diagram)
    worlds = list(kb.diagram.worlds())
    for lhs, rhs, n_reachable in [
        ("Subject", "Infectious", 5),  # entailed where D holds
        ("Subject", "Distance", 5),  # entailed where S holds
        ("Control", "Infectious", 2),  # reaches two axioms, entailed nowhere
        ("Infectious", "Subject", 0),  # reaches no axiom
    ]:
        c, d = N(lhs), N(rhs)
        completions.clear()
        column = entailment_column(kb, table, c, d)
        expected = [reference_is_subsumed(restrict(kb.vtbox, w), c, d) for w in worlds]
        assert column.tolist() == expected, (lhs, rhs)
        assert len(reachable_axioms(kb.vtbox, c)) == n_reachable
        if any(expected):
            assert completions == [1, (1 << table.size) - 1]
        else:
            assert completions == [1]


def test_a_written_strategy_table_reads_back_per_world(random_kb_corpus):
    """``local_strategy`` writes a column over scope rows, ``rows`` reads
    it back per row with every world's row, and ``gather`` reads every
    world's row of it back: random scopes in random order,
    the empty scope, and a diagram with no variables."""
    rng = random.Random(61)
    empty = dg.InfluenceDiagram(
        variables=(), kinds={}, parents={}, cpt={}, cost_parents=(), cost_table={"": 3.0}
    )
    tables = [dg.WorldTable(empty)]
    tables += [dg.WorldTable(kb.diagram) for kb, _ in random_kb_corpus[:40]]
    assert tables[0].size == 1 and tables[0].cost.tolist() == [3.0]
    for table in tables:
        variables = table.diagram.variables
        for k in range(len(variables) + 1):
            scope = tuple(rng.sample(variables, k))
            for column in (
                np.array([rng.random() for _ in range(1 << k)]),
                np.array([rng.random() < 0.5 for _ in range(1 << k)]),
            ):
                local = dg.local_strategy("D", scope, column)
                assert (local.decision, local.scope) == ("D", scope)
                assert list(local.table) == dg.row_keys(k)
                assert {type(p) for p in local.table.values()} == {float}
                values, code = table.rows(local.table, scope)
                assert values.tolist() == column.astype(float).tolist()
                assert np.array_equal(code, table.code(scope))
                got = table.gather(local.table, scope).tolist()
                assert got == column[table.code(scope)].tolist()


def test_bit_strings_name_the_rows_where_a_mask_holds():
    """Both spellers against the keys of ``row_keys`` picked one at a
    time, on empty, full and random masks over 0 to 12 variables, on
    rows of the greedy pass's included matrix and on strided views."""

    def check(mask):
        n = (mask.size - 1).bit_length()
        assert mask.size == 1 << n
        keys = [key for key, m in zip(dg.row_keys(n), mask.tolist()) if m]
        assert dg.bit_strings(mask) == keys
        assert dg.bit_strings_json(mask) == "[" + ", ".join(f'"{k}"' for k in keys) + "]"
        return keys

    assert check(np.array([True])) == [""]
    assert check(np.array([False])) == []
    assert dg.bit_strings_json(np.array([True])) == '[""]'
    rng = random.Random(67)
    for n in range(13):
        size = 1 << n
        check(np.zeros(size, dtype=bool))
        assert len(check(np.ones(size, dtype=bool))) == size
        for p in (0.1, 0.5, 0.9):
            check(np.array([rng.random() < p for _ in range(size)]))
        wide = np.array([rng.random() < 0.5 for _ in range(2 * size)])
        check(wide[::2])
    n, rows = 5, 8
    cost = np.array([[rng.choice((0.0, 1.0, 2.5, 7.0)) for _ in range(1 << n)]
                     for _ in range(rows)])
    forced = np.array([[rng.random() < 0.2 for _ in range(1 << n)] for _ in range(rows)])
    probability = np.array([[rng.random() for _ in range(1 << n)] for _ in range(rows)])
    for sign in (+1, -1):
        included = _greedy_pass(cost, forced, probability, sign)[2]
        for row in included:
            check(row)
        for column in included.T:  # a strided view over 8 rows
            check(column)


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
