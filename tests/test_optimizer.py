"""Pure-strategy enumeration, game trees, and the sequence-form LP.

Enumerating every pure strategy is the oracle for the row-wise pure
optimum (``enumerated_optimum``).

The drawn game tree is built as columns over the world table; the
recursive builder in ``sequence_form``, with its node and
information-set classes, and the DOT emitter here are the reference it
must equal bit for bit.  The LP optimum answers the sequence-form LP
keyed by the KB's strategy scopes, perturbed or not; that LP, assembled
row by row and solved by the dense simplex in ``sequence_form``, is its
oracle.
"""

import collections
import contextlib
import dataclasses
import functools
import itertools
import operator
import random

import numpy as np
import pytest

from cider import diagram as dg
from cider import optimizer as opt
from cider import simplex
from cider._format import format_float as fmt
from cider.contextual import KnowledgeBase, entailment_column
from cider.el import ConceptName as N, parse_concept
from cider.evidence import (
    EvidenceQuery,
    UndefinedConditionalError,
    greedy_bound,
    optimistic_expected_cost,
)
from cider.kbfile import load_kb_text

import sequence_form as sf
from exact import certify_bound
from conftest import (
    LIMID_KB,
    SIGNED_ZERO_KB,
    bench_specs,
    random_concept,
    random_diagram,
    random_kb,
    random_strategy,
    with_scopes,
)


def _pure_optimum(diagram):
    """The best pure strategy of a diagram with no axioms: the plain LP
    optimum, since expected cost is multilinear in the strategy tables."""
    return opt.optimal_pure_strategy(KnowledgeBase(diagram=diagram, vtbox=()))


# --- the recursive reference ------------------------------------------------


def ref_export_dot(tree):
    lines = ["digraph game_tree {"]
    counter = itertools.count()

    def emit(node):
        my_id = f"n{next(counter)}"
        if isinstance(node, sf.Leaf):
            lines.append(f'  {my_id} [shape=diamond label="cost={fmt(node.cost)}"];')
            return my_id
        if isinstance(node, sf.ChanceNode):
            lines.append(f'  {my_id} [shape=circle label="{node.variable}"];')
            probs = (1.0 - node.p_true, node.p_true)
            for value, child, p in zip((0, 1), node.children, probs):
                child_id = emit(child)
                lines.append(
                    f'  {my_id} -> {child_id} '
                    f'[label="{node.variable}={value} p={fmt(p)}"];'
                )
            return my_id
        lines.append(f'  {my_id} [shape=box label="{node.variable}"];')
        for value, child in zip((0, 1), node.children):
            child_id = emit(child)
            lines.append(f'  {my_id} -> {child_id} [label="{node.variable}={value}"];')
        return my_id

    emit(tree.root)
    lines.append("}")
    return "\n".join(lines) + "\n"


def backward_induction(tree):
    """Independent perfect-information optimum of a reference tree:
    (value, the values of each information set's false and true child)."""
    children = {}

    def value(node):
        if isinstance(node, sf.Leaf):
            return node.cost
        values = [value(child) for child in node.children]
        if isinstance(node, sf.ChanceNode):
            return (1.0 - node.p_true) * values[0] + node.p_true * values[1]
        children[node.infoset] = values
        return min(values)

    return value(tree.root), children


def _redeclared(diagram, rng):
    """The same diagram with its variables declared in another order, so
    that the expansion order often differs from the declared one."""
    variables = list(diagram.variables)
    rng.shuffle(variables)
    return dataclasses.replace(diagram, variables=tuple(variables))


def _same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def _p_true_by_level(ref):
    """Per level, the reference's chance probability at each node in
    binary counting order, None for decision levels."""
    level, by_level = [ref.root], []
    for _ in ref.order:
        chance = isinstance(level[0], sf.ChanceNode)
        by_level.append([node.p_true for node in level] if chance else None)
        level = [child for node in level for child in node.children]
    return by_level


def assert_tree_matches_reference(diagram):
    tree = opt.build_game_tree(diagram)
    ref = sf.ref_build_game_tree(diagram)
    assert tree.order == ref.order
    n = len(ref.order)
    # leaf i is the i-th valuation in binary counting order of the expansion order
    assert [dg.rowkey(leaf.world, ref.order) for leaf in ref.leaves] == [
        format(i, f"0{n}b") if n else "" for i in range(len(tree.leaves))
    ]
    assert _same_array(tree.table.cost, np.array([leaf.cost for leaf in ref.leaves]))
    assert (len(tree.leaves), len(tree.sequences), len(tree.infosets)) == (
        len(ref.leaves), len(ref.sequences), len(ref.infosets)
    )
    # a chance node's probability is its CPT's value at the row of its
    # leftmost leaf, every world's row strided at the level's 2^(n - d)
    p_true = [
        None if diagram.kinds[v] != dg.CHANCE
        else tree.table.gather(diagram.cpt[v], diagram.parents.get(v, ()))[:: 1 << (n - d)].tolist()
        for d, v in enumerate(tree.order)
    ]
    assert p_true == _p_true_by_level(ref)
    assert opt.export_game_tree_dot(tree) == ref_export_dot(ref)


def test_tree_matches_the_recursive_reference(random_kb_corpus, idelium):
    rng = random.Random(73)
    diagrams = [idelium.kb.diagram] + [kb.diagram for kb, _ in random_kb_corpus]
    diagrams += [random_diagram(rng, n_vars=8, strategy_cap_log2=64) for _ in range(10)]
    diagrams += [_redeclared(d, rng) for d in diagrams]
    assert sum(opt.expansion_order(d) != d.variables for d in diagrams) > 100
    for diagram in diagrams:
        assert_tree_matches_reference(diagram)


# --- enumeration ------------------------------------------------------------


def test_enumeration_counts(idelium):
    strategies = list(opt.enumerate_pure_strategies(idelium.kb.diagram))
    assert len(strategies) == 4
    tables = [s.takes["TA"] for s in strategies]
    assert all(t.dtype == bool for t in tables)
    assert np.array_equal(tables[0], [False, False])  # lexicographic start
    assert np.array_equal(tables[-1], [True, True])
    assert strategies[0].to_strategy().locals["TA"].table == {"0": 0.0, "1": 0.0}


def test_enumeration_no_decisions():
    d = dg.InfluenceDiagram(
        variables=("A",),
        kinds={"A": dg.CHANCE},
        parents={"A": ()},
        cpt={"A": {"": 0.5}},
        cost_parents=("A",),
        cost_table={"0": 0.0, "1": 1.0},
    )
    strategies = list(opt.enumerate_pure_strategies(d))
    assert len(strategies) == 1
    assert strategies[0].takes == {}


def test_enumeration_empty_influence_set():
    d = dg.InfluenceDiagram(
        variables=("D0",),
        kinds={"D0": dg.DECISION},
        parents={"D0": ()},
        cpt={},
        cost_parents=("D0",),
        cost_table={"0": 3.0, "1": 7.0},
    )
    strategies = list(opt.enumerate_pure_strategies(d))
    assert len(strategies) == 2
    kb = KnowledgeBase(diagram=d, vtbox=())
    assert opt.optimal_pure_strategy(kb).value == pytest.approx(3.0)


def test_optimal_pure_constant_cost(idelium):
    d = idelium.kb.diagram
    flat = dg.InfluenceDiagram(
        variables=d.variables,
        kinds=d.kinds,
        parents=d.parents,
        cpt=d.cpt,
        cost_parents=d.cost_parents,
        cost_table={k: 11.0 for k in d.cost_table},
    )
    kb = KnowledgeBase(diagram=flat, vtbox=())
    assert opt.optimal_pure_strategy(kb).value == pytest.approx(11.0, abs=1e-9)
    assert opt.optimal_pure_strategy(kb, direction="max").value == pytest.approx(
        11.0, abs=1e-9
    )


def test_enumeration_two_decisions():
    d = dg.InfluenceDiagram(
        variables=("X", "D1", "D2"),
        kinds={"X": dg.CHANCE, "D1": dg.DECISION, "D2": dg.DECISION},
        parents={"X": (), "D1": ("X",), "D2": ("D1",)},
        cpt={"X": {"": 0.5}},
        cost_parents=("D2",),
        cost_table={"0": 0.0, "1": 1.0},
    )
    # infl(D1) = {X}, infl(D2) = {D1}: four tables each
    strategies = list(opt.enumerate_pure_strategies(d))
    assert len(strategies) == 16
    # D1's rows are the high digits, false before true
    for i, s in enumerate(strategies):
        assert list(s.takes) == ["D1", "D2"]
        digits = np.concatenate([s.takes["D1"], s.takes["D2"]])
        assert digits.tolist() == [c == "1" for c in format(i, "04b")]


def test_enumeration_cap(idelium, monkeypatch):
    monkeypatch.setattr(opt, "STRATEGY_CAP", 3)
    with pytest.raises(opt.EnumerationCapError, match="4"):
        list(opt.enumerate_pure_strategies(idelium.kb.diagram))


def test_enumeration_cap_reports_huge_counts():
    d = dg.InfluenceDiagram(
        variables=tuple(f"C{i}" for i in range(6)) + ("D0",),
        kinds={**{f"C{i}": dg.CHANCE for i in range(6)}, "D0": dg.DECISION},
        parents={
            **{f"C{i}": () for i in range(6)},
            "D0": tuple(f"C{i}" for i in range(6)),
        },
        cpt={f"C{i}": {"": 0.5} for i in range(6)},
        cost_parents=("D0",),
        cost_table={"0": 0.0, "1": 1.0},
    )
    with pytest.raises(opt.EnumerationCapError, match="2\\^64"):
        list(opt.enumerate_pure_strategies(d))


def test_optimal_pure_fixture(idelium):
    result = opt.optimal_pure_strategy(idelium.kb)
    assert result.value == pytest.approx(2.36, abs=1e-9)
    assert result.strategy.locals["TA"].table == {"0": 1.0, "1": 1.0}
    assert result.kind == "pure"
    worst = opt.optimal_pure_strategy(idelium.kb, direction="max")
    assert worst.value == pytest.approx(18.05, abs=1e-9)
    assert worst.strategy.locals["TA"].table == {"0": 0.0, "1": 0.0}


def test_optimal_pure_enumerates_all_values(idelium):
    values = sorted(
        dg.expected_cost(idelium.kb.diagram, s.to_strategy())
        for s in opt.enumerate_pure_strategies(idelium.kb.diagram)
    )
    assert values == pytest.approx([2.36, 4.604, 15.806, 18.05])


def test_optimal_pure_reproduces_value(idelium):
    result = opt.optimal_pure_strategy(idelium.kb)
    assert dg.expected_cost(idelium.kb.diagram, result.strategy) == pytest.approx(
        result.value, abs=1e-9
    )


def test_dominant_objectives(idelium):
    query = EvidenceQuery(N("Subject"), N("Infectious"))
    dom_opt = opt.optimal_pure_strategy(idelium.kb, evidence=query, mode="opt")
    check = optimistic_expected_cost(idelium.kb, dom_opt.strategy, query)
    assert dom_opt.value == pytest.approx(check.value, abs=1e-9)
    for pure in opt.enumerate_pure_strategies(idelium.kb.diagram):
        other = optimistic_expected_cost(idelium.kb, pure.to_strategy(), query)
        assert dom_opt.value <= other.value + 1e-9
    dom_pes = opt.optimal_pure_strategy(idelium.kb, evidence=query, mode="pes")
    assert dom_pes.value <= 11.081 + 1e-3  # at least as good as the worked strategy


def test_objective_validation(idelium):
    with pytest.raises(ValueError, match="^unknown mode 'nonsense'$"):
        opt.optimal_pure_strategy(idelium.kb, mode="nonsense")
    with pytest.raises(ValueError, match="^unknown direction 'sideways'$"):
        opt.optimal_pure_strategy(idelium.kb, direction="sideways")


def test_evidence_alone_bounds_optimistically(idelium):
    """Evidence alone scores the optimistic bound, as --evidence alone
    does; mode "pes" scores the pessimistic one, whose optimum is 6."""
    query = EvidenceQuery(N("Subject"), N("Infectious"))
    alone = opt.optimal_pure_strategy(idelium.kb, evidence=query)
    optimistic = opt.optimal_pure_strategy(idelium.kb, evidence=query, mode="opt")
    assert (repr(alone.value), alone.strategy) == (
        repr(optimistic.value), optimistic.strategy
    )
    assert fmt(opt.optimal_pure_strategy(idelium.kb, evidence=query, mode="pes").value) == "6"


# --- the pure optimum, row-wise -----------------------------------------------


def enumerated_optimum(diagram):
    """Every pure strategy with its expected cost, in enumeration order:
    the oracle for the row-wise solver."""
    table = dg.WorldTable(diagram)
    return [
        (dg.expected_cost(table, pure.to_strategy()), pure)
        for pure in opt.enumerate_pure_strategies(diagram)
    ]


def assert_matches_enumeration(kb, scored, direction):
    """The optimum equals enumeration's within 1e-12 relative, and so
    does the strategy wherever every strategy within 1e-9 relative of
    the optimum has the same joint (so an optimum that beats the
    runner-up by more, and the false rows no world reaches)."""
    diagram = kb.diagram
    result = opt.optimal_pure_strategy(kb, direction=direction)
    sign = 1.0 if direction == "min" else -1.0
    value, pure = min(scored, key=lambda vp: sign * vp[0])  # first of the best
    scale = max(abs(value), 1.0)
    assert abs(result.value - value) <= 1e-12 * scale
    assert dg.validate_strategy(diagram, result.strategy) == []
    assert dg.expected_cost(diagram, result.strategy) == result.value
    table = dg.WorldTable(diagram)
    joint = table.joint(pure.to_strategy())
    unique = all(
        np.array_equal(table.joint(p.to_strategy()), joint)
        for v, p in scored
        if abs(v - value) <= 1e-9 * scale
    )
    if unique:
        assert result.strategy == pure.to_strategy()
    return unique


def _bench_docs():
    """The benchmark's generated KBs of every workload at five seeds,
    each with its query pairs as evidence queries."""
    return [
        (load_kb_text(spec.to_yaml()).kb,
         [EvidenceQuery(parse_concept(c), parse_concept(d)) for c, d in spec.concept_pairs])
        for spec in bench_specs((1, 3, 5, 11, 29))
    ]


def _bench_kbs():
    return [kb for kb, _ in _bench_docs()]


def test_row_wise_optimum_matches_enumeration(random_kb_corpus):
    rng = random.Random(1)
    cases = [
        with_scopes(
            KnowledgeBase(diagram=random_diagram(rng, n_vars=rng.randint(2, 6)), vtbox=()),
            forgetful,
        )
        for _ in range(500)
        for forgetful in (False, True)
    ]
    cases += [with_scopes(kb, f) for kb, _ in random_kb_corpus for f in (False, True)]
    cases += _bench_kbs()
    splits = [opt.split_decisions(kb.diagram) for kb in cases]
    assert any(rest for _, rest in splits)
    assert any(len(chain) >= 2 for chain, _ in splits)
    assert any(len(chain) >= 2 and rest for chain, rest in splits)
    # some chain solves two or more decisions of one scope as one joint move
    assert any(
        len(chain) > len({kb.diagram.scopes[d] for d in chain})
        for kb, (chain, _) in zip(cases, splits)
    )
    unique = 0
    for kb in cases:
        scored = enumerated_optimum(kb.diagram)
        for direction in ("min", "max"):
            unique += assert_matches_enumeration(kb, scored, direction)
    assert unique > len(cases)  # most optima are unique up to unreached rows


MODES = ("opt", "pes")


def enumerated_bound(kb, query, mode, direction):
    """(value, strategy, every value): the first strictly best
    ``greedy_bound`` over ``enumerate_pure_strategies``, each strategy's
    joint over every world."""
    table = dg.WorldTable(kb.diagram)
    forced = entailment_column(kb, table, query.lhs, query.rhs)
    sign = +1 if mode == "opt" else -1
    better = 1.0 if direction == "min" else -1.0
    values, best = [], None
    for pure in opt.enumerate_pure_strategies(kb.diagram):
        strategy = pure.to_strategy()
        values.append(greedy_bound(table, forced, table.joint(strategy), sign).value)
        if best is None or better * values[-1] < better * best[0]:
            best = (values[-1], strategy)
    return (*best, values)


def assert_evidence_search_is_enumeration(kb, query):
    """The search's optimum is enumeration's, and the winner's bound
    meets its optimality condition exactly."""
    table = dg.WorldTable(kb.diagram)
    forced = entailment_column(kb, table, query.lhs, query.rhs)
    for mode, direction in itertools.product(MODES, ("min", "max")):
        value, strategy, _ = enumerated_bound(kb, query, mode, direction)
        result = opt.optimal_pure_strategy(kb, query, mode, direction)
        assert repr(result.value) == repr(value)
        assert result.strategy == strategy
        sign = +1 if mode == "opt" else -1
        joint = table.joint(result.strategy)
        certify_bound(table, forced, joint, sign, greedy_bound(table, forced, joint, sign))


def _declared_after_a_decision(rng, count):
    """KBs over 4 to 6 variables, redeclared in a shuffled order that puts
    some variable of a decision's scope after the decision, so each
    strategy's reached worlds must be sorted into world order."""
    kbs = []
    while len(kbs) < count:
        diagram = random_diagram(rng, n_vars=rng.randint(4, 6), strategy_cap_log2=7)
        kb = random_kb(rng, _redeclared(diagram, rng))
        position = {v: i for i, v in enumerate(kb.diagram.variables)}
        if any(position[v] > position[d] for d in kb.diagram.decision_nodes
               for v in kb.diagram.scopes[d]):
            kbs.append(kb)
    return kbs


def test_the_evidence_search_is_enumeration_bit_for_bit(random_kb_corpus):
    """Scored a block at a time over the worlds each strategy reaches,
    every evidence optimum is enumeration's: the same float and the same
    strategy, in both modes and both directions, also when a scope is
    declared after its decision."""
    rng = random.Random(83)
    kbs = [kb for kb, _ in random_kb_corpus] + _declared_after_a_decision(rng, 60)
    for kb in kbs:
        assert_evidence_search_is_enumeration(
            kb, EvidenceQuery(random_concept(rng), random_concept(rng)))
    for kb, queries in _bench_docs():
        for query in queries:
            assert_evidence_search_is_enumeration(kb, query)


def assert_reached_is_the_mask(table, rest, scopes, block, worlds):
    """Row i of worlds lists, in world order, every world where each rest
    decision d takes block[i]'s value at d's scope row, zero-probability
    worlds included, which no score can see."""
    assert worlds.shape[0] == len(block)
    for strategy, row in zip(block, worlds):
        mask = np.ones(table.size, dtype=bool)
        for d in rest:
            mask &= table.column(d) == strategy.takes[d][table.code(scopes[d])]
        assert np.array_equal(row, np.flatnonzero(mask))


def test_the_reached_worlds_are_the_mask_reference(random_kb_corpus):
    """For the rest of split_decisions and for every decision as the
    rest, under both scope policies, also when a scope is declared after
    its decision.  Some rest decision sees another one, so its scope row
    reads a bit that the index itself set."""
    rng = random.Random(89)
    kbs = [with_scopes(kb, f) for kb, _ in random_kb_corpus for f in (False, True)]
    kbs += _declared_after_a_decision(rng, 60)
    shapes = set()
    for kb in kbs:
        diagram = kb.diagram
        table = dg.WorldTable(diagram)
        scopes = diagram.scopes
        for rest in {opt.split_decisions(diagram)[1], diagram.decision_nodes}:
            if not rest:
                continue
            count, reached = opt._reached_worlds(table, rest, scopes)
            block = list(opt.enumerate_pure_strategies(diagram, decisions=rest))
            worlds = reached(block)
            assert worlds.shape[1] == count == table.size >> len(rest)
            assert_reached_is_the_mask(table, rest, scopes, block, worlds)
            shapes.add((rest == diagram.decision_nodes,
                        any(set(scopes[d]) & set(rest) for d in rest)))
    assert shapes >= {(False, False), (True, False), (True, True)}


def test_a_search_computes_no_scope(monkeypatch):
    """Each decision's scope is computed once per diagram, as its
    ``scopes``: the loader computes them for the named strategies, and
    the searches and strategy validation read them without walking the
    parent graph."""
    calls = []
    real = dg._ancestors

    def counted(diagram, v):
        calls.append(v)
        return real(diagram, v)

    monkeypatch.setattr(dg, "_ancestors", counted)
    for spec in bench_specs((1,)):
        if spec.name not in ("ss", "wq"):
            continue
        doc = load_kb_text(spec.to_yaml())
        query = EvidenceQuery(*map(parse_concept, spec.concept_pairs[0]))
        calls.clear()
        opt.optimal_pure_strategy(doc.kb)
        opt.optimal_pure_strategy(doc.kb, query)
        with contextlib.suppress(opt.InfeasibleEpsilonError):
            opt.optimal_mixed_strategy(doc.kb.diagram, 0.0)
        for strategy in doc.strategies.values():
            assert not dg.validate_strategy(doc.kb.diagram, strategy)
        assert calls == []
    kb = KnowledgeBase(diagram=dataclasses.replace(doc.kb.diagram), vtbox=())
    opt.optimal_pure_strategy(kb)
    assert sorted(calls) == sorted(kb.diagram.decision_nodes)
    calls.clear()
    opt.optimal_pure_strategy(kb)
    assert calls == []


def _ss():
    spec = next(spec for spec in bench_specs((1,)) if spec.name == "ss")
    query = EvidenceQuery(*map(parse_concept, spec.concept_pairs[0]))
    return load_kb_text(spec.to_yaml()).kb, query


def test_the_evidence_search_in_many_blocks_keeps_the_earliest_tie(monkeypatch):
    """At a world cap of 2^7, the table of ss, each of its 64 pure
    strategies reaches 2^5 worlds, so a block holds 4 of them: 16
    blocks.  Its query is entailed in no world, so each bound is an
    extreme cost a strategy reaches, and under --mode opt the least one
    ties across three blocks; the earliest strategy wins."""
    kb, query = _ss()
    value, strategy, values = enumerated_bound(kb, query, "opt", "min")
    ties = [i for i, v in enumerate(values) if v == value]
    assert len(values) == 64 and ties[0] // 4 < ties[-1] // 4
    assert strategy == list(opt.enumerate_pure_strategies(kb.diagram))[ties[0]].to_strategy()
    rows, real = [], opt._greedy_pass

    def counted(cost, forced, probability, sign):
        rows.append(len(probability))
        return real(cost, forced, probability, sign)

    monkeypatch.setattr(dg, "WORLD_CAP", 2**7)
    monkeypatch.setattr(opt, "_greedy_pass", counted)
    for mode, direction in itertools.product(MODES, ("min", "max")):
        rows.clear()
        value, strategy, _ = enumerated_bound(kb, query, mode, direction)
        result = opt.optimal_pure_strategy(kb, query, mode, direction)
        assert rows == [4] * 16
        assert (repr(result.value), result.strategy) == (repr(value), strategy)


def test_the_reached_worlds_of_small_blocks_are_the_mask_reference(monkeypatch):
    """At a world cap of 2^7 the evidence search of ss takes its 64 pure
    strategies in 16 blocks of 4, and every block's index is the mask
    reference's."""
    kb, query = _ss()
    real, calls = opt._reached_worlds, []

    def recorded(table, rest, scopes):
        count, reached = real(table, rest, scopes)

        def recording(block):
            worlds = reached(block)
            calls.append((table, rest, scopes, block, worlds))
            return worlds

        return count, recording

    monkeypatch.setattr(dg, "WORLD_CAP", 2**7)
    monkeypatch.setattr(opt, "_reached_worlds", recorded)
    opt.optimal_pure_strategy(kb, query)
    assert [len(block) for _, _, _, block, _ in calls] == [4] * 16
    for table, rest, scopes, block, worlds in calls:
        assert_reached_is_the_mask(table, rest, scopes, block, worlds)


def test_a_strategy_with_no_positive_world_still_raises(monkeypatch):
    """With the chance column patched to 0 wherever V02 holds, the last
    16 strategies of ss, which set V02 in both its rows, reach no world
    of positive probability: the search raises as enumeration does,
    in the 13th of 16 blocks."""
    kb, query = _ss()
    joint, greedy, blocks = dg.WorldTable.joint, opt._greedy_pass, []

    def without_v02(self, strategy=None):
        return joint(self, strategy) * ~self.column("V02")

    def counted(*args):
        blocks.append(args)
        return greedy(*args)

    monkeypatch.setattr(dg.WorldTable, "joint", without_v02)
    monkeypatch.setattr(opt, "_greedy_pass", counted)
    for mode in MODES:
        with pytest.raises(UndefinedConditionalError, match="no world has positive"):
            enumerated_bound(kb, query, mode, "min")
        for cap, n_blocks in ((2**7, 13), (2**20, 1)):
            monkeypatch.setattr(dg, "WORLD_CAP", cap)
            blocks.clear()
            with pytest.raises(UndefinedConditionalError, match="no world has positive"):
                opt.optimal_pure_strategy(kb, query, mode)
            assert len(blocks) == n_blocks


def test_the_rest_is_ranked_by_the_printed_value():
    """Under max, rest strategies with V1 = (0, 1) and with V1 = (1, 0)
    both sum to 20.0 in world order, but the first prints
    19.999999999999996.  Ranked by the printed value, the search answers
    exactly 20.0, enumeration's largest expected cost."""
    d = dg.InfluenceDiagram(
        variables=("V0", "V1", "V2", "V3", "V4", "V5"),
        kinds={"V0": dg.CHANCE, "V1": dg.DECISION, "V2": dg.CHANCE,
               "V3": dg.DECISION, "V4": dg.DECISION, "V5": dg.CHANCE},
        parents={"V0": (), "V1": ("V0",), "V2": ("V1",), "V3": ("V2",),
                 "V4": ("V3",), "V5": ()},
        cpt={"V0": {"": 0.43114924486958084},
             "V2": {"0": 0.9827728983795448, "1": 0.037282282007210066},
             "V5": {"": 0.8434906742201728}},
        cost_parents=("V0", "V3"),
        cost_table={"00": 20.0, "01": 2.0, "10": 2.0, "11": 20.0},
    )
    assert opt.split_decisions(d) == (("V3",), ("V1", "V4"))
    result = opt.optimal_pure_strategy(KnowledgeBase(diagram=d, vtbox=()), direction="max")
    assert result.value == max(v for v, _ in enumerated_optimum(d)) == 20.0


def test_split_decisions_of_the_strategy_search_shape(monkeypatch):
    """V02 sees V01 and V05 sees V03, a child of V02: V05's scope
    (V02, V03) lacks V01, so V02 is enumerated and V05 solved row-wise."""
    variables = ("V01", "V02", "V03", "V04", "V05")
    d = dg.InfluenceDiagram(
        variables=variables,
        kinds={v: dg.DECISION if v in ("V02", "V05") else dg.CHANCE for v in variables},
        parents={"V01": (), "V02": ("V01",), "V03": ("V02",), "V04": ("V01",),
                 "V05": ("V03",)},
        cpt={"V01": {"": 0.3}, "V03": {"0": 0.2, "1": 0.9},
             "V04": {"0": 0.5, "1": 0.1}},
        cost_parents=("V01", "V04", "V05"),
        cost_table={key: float(i % 5) for i, key in enumerate(dg.row_keys(3))},
    )
    assert opt.split_decisions(d) == (("V05",), ("V02",))
    kb = KnowledgeBase(diagram=d, vtbox=())
    best = min(v for v, _ in enumerated_optimum(d))
    monkeypatch.setattr(opt, "STRATEGY_CAP", 4)
    result = opt.optimal_pure_strategy(kb)
    assert result.value == pytest.approx(best, rel=1e-12)
    monkeypatch.setattr(opt, "STRATEGY_CAP", 3)
    message = "^4 pure strategies exceed the cap 3$"
    with pytest.raises(opt.EnumerationCapError, match=message):
        opt.optimal_pure_strategy(kb)


def test_decisions_of_one_scope_join_the_chain_as_one_move(monkeypatch):
    """The shape of the benchmark's LP KBs: five parentless decisions,
    all of the empty scope, among ten variables.  Neither of two sees the
    other, so they form one chain with an empty rest, solved as one 5-bit
    move per (empty) row with nothing enumerated, and the lowest joint
    move wins a tie, as enumeration's first strategy does."""
    rng = random.Random(5)
    variables = tuple(f"V{i:02d}" for i in range(10))
    decisions = ("V02", "V03", "V05", "V07", "V08")
    parents = {v: () if v in decisions else variables[max(0, i - 2):i]
               for i, v in enumerate(variables)}
    d = dg.InfluenceDiagram(
        variables=variables,
        kinds={v: dg.DECISION if v in decisions else dg.CHANCE for v in variables},
        parents=parents,
        cpt={v: {key: rng.random() for key in dg.row_keys(len(parents[v]))}
             for v in variables if v not in decisions},
        cost_parents=("V02", "V03", "V05", "V07", "V08", "V09"),
        cost_table={key: float(rng.choice((0, 1, 2, 5, 10, 20, 50, 90)))
                    for key in dg.row_keys(6)},
    )
    assert opt.split_decisions(d) == (decisions, ())
    kb = KnowledgeBase(diagram=d, vtbox=())
    scored = enumerated_optimum(d)
    assert len(scored) == 32
    monkeypatch.setattr(opt, "STRATEGY_CAP", 1)
    for direction in ("min", "max"):
        assert assert_matches_enumeration(kb, scored, direction)
    flat = dataclasses.replace(d, cost_table={key: 0.0 for key in d.cost_table})
    tie = opt.optimal_pure_strategy(KnowledgeBase(diagram=flat, vtbox=()))
    assert all(local.table == {"": 0.0} for local in tie.strategy.locals.values())


def test_the_pure_value_reuses_the_winners_joint(random_kb_corpus, monkeypatch):
    """The winner's joint column is the strategy's joint bit for bit, so
    the value sums it and the table computes one joint per search."""
    real, calls = dg.WorldTable.joint, []

    def counted(self, strategy=None):
        calls.append(strategy)
        return real(self, strategy)

    monkeypatch.setattr(dg.WorldTable, "joint", counted)
    for kb, _ in random_kb_corpus[:40]:
        for direction in ("min", "max"):
            calls.clear()
            result = opt.optimal_pure_strategy(kb, direction=direction)
            assert calls == [None]
            assert result.value == dg.expected_cost(kb.diagram, result.strategy)


def test_a_forgetful_kb_is_optimized_and_validated_over_parent_scopes():
    """D2 pays unless it guesses X.  Its influence set holds D1, which
    can copy X; loaded forgetful, it sees only Y, a noisy copy of D1, so
    the best pure strategy errs with probability 0.2."""
    doc = load_kb_text(LIMID_KB, forgetful=True)
    result = opt.optimal_pure_strategy(doc.kb)
    assert {d: local.scope for d, local in result.strategy.locals.items()} == {
        "D1": ("X",), "D2": ("Y",)}
    best = min(v for v, _ in enumerated_optimum(doc.kb.diagram))
    assert result.value == pytest.approx(best, rel=1e-12)
    assert result.value == pytest.approx(0.2, rel=1e-12)
    for name in doc.strategies:
        assert dg.validate_strategy(doc.kb.diagram, doc.strategy(name)) == []
    assert dg.expected_cost(doc.kb.diagram, doc.strategy("copy")) == result.value
    recall = opt.optimal_pure_strategy(load_kb_text(LIMID_KB).kb)
    assert recall.strategy.locals["D2"].scope == ("D1", "Y")
    assert recall.value == 0.0


def test_the_game_tree_refuses_a_forgetful_diagram():
    """A perfect-information tree would let D2 see X, for a value of 0.0
    where the forgetful KB's best strategy costs 0.2.  The LP answers
    over the KB's scopes instead: 0.2, and no fully-mixed plan, since D2
    forgets D1."""
    forgetful = load_kb_text(LIMID_KB, forgetful=True).kb
    with pytest.raises(ValueError, match="forgetful") as info:
        opt.build_game_tree(forgetful.diagram)
    assert "\n" not in str(info.value)
    result = opt.optimal_pure_strategy(forgetful)
    assert result.value == pytest.approx(0.2, rel=1e-12)
    assert dg.validate_strategy(forgetful.diagram, result.strategy) == []
    with pytest.raises(opt.InfeasibleEpsilonError, match="^no fully-mixed plan: .* D1 and D2 "):
        opt.optimal_mixed_strategy(forgetful.diagram, fully_mixed=0.1)
    assert opt.optimal_pure_strategy(load_kb_text(LIMID_KB).kb).value == 0.0


def test_perfect_recall_enumerates_nothing(monkeypatch):
    """One decision seeing six variables has 2^64 pure strategies; it is
    a chain by itself, so the optimum needs no enumeration."""
    d = dg.InfluenceDiagram(
        variables=tuple(f"C{i}" for i in range(6)) + ("D0",),
        kinds={**{f"C{i}": dg.CHANCE for i in range(6)}, "D0": dg.DECISION},
        parents={
            **{f"C{i}": () for i in range(6)},
            "D0": tuple(f"C{i}" for i in range(6)),
        },
        cpt={f"C{i}": {"": 0.5} for i in range(6)},
        cost_parents=("C0", "D0"),
        cost_table={"00": 4.0, "01": 1.0, "10": 0.0, "11": 2.0},
    )
    assert opt.split_decisions(d) == (("D0",), ())
    kb = KnowledgeBase(diagram=d, vtbox=())
    monkeypatch.setattr(opt, "STRATEGY_CAP", 1)
    best = opt.optimal_pure_strategy(kb)
    assert best.value == pytest.approx(0.5)
    assert set(best.strategy.locals["D0"].table.values()) == {0.0, 1.0}
    worst = opt.optimal_pure_strategy(kb, direction="max")
    assert worst.value == pytest.approx(3.0)


def test_optimal_pure_without_decisions_is_the_expected_cost():
    d = dg.InfluenceDiagram(
        variables=("A", "B"),
        kinds={"A": dg.CHANCE, "B": dg.CHANCE},
        parents={"A": (), "B": ("A",)},
        cpt={"A": {"": 0.25}, "B": {"0": 0.5, "1": 0.75}},
        cost_parents=("A", "B"),
        cost_table={"00": 1.0, "01": 3.0, "10": 5.0, "11": 7.0},
    )
    kb = KnowledgeBase(diagram=d, vtbox=())
    empty = dg.GlobalStrategy(locals={})
    for direction in ("min", "max"):
        result = opt.optimal_pure_strategy(kb, direction=direction)
        assert result.strategy == empty
        assert result.value == dg.expected_cost(d, empty)


def test_exact_ties_take_false():
    """The cost does not depend on D, so both moves of every row sum to
    the same float; enumeration keeps the first, all false."""
    d = dg.InfluenceDiagram(
        variables=("X", "D"),
        kinds={"X": dg.CHANCE, "D": dg.DECISION},
        parents={"X": (), "D": ("X",)},
        cpt={"X": {"": 0.3}},
        cost_parents=("X",),
        cost_table={"0": 1.0, "1": 4.0},
    )
    kb = KnowledgeBase(diagram=d, vtbox=())
    for direction in ("min", "max"):
        result = opt.optimal_pure_strategy(kb, direction=direction)
        assert result.strategy.locals["D"].table == {"0": 0.0, "1": 0.0}
        assert result.strategy == enumerated_optimum(d)[0][1].to_strategy()


def test_unreached_rows_take_false():
    """D1 never plays true, so D2's rows with D1 = 1 are unreached and
    set to false, as enumeration leaves them."""
    d = dg.InfluenceDiagram(
        variables=("X", "D1", "D2"),
        kinds={"X": dg.CHANCE, "D1": dg.DECISION, "D2": dg.DECISION},
        parents={"X": (), "D1": ("X",), "D2": ("X", "D1")},
        cpt={"X": {"": 0.5}},
        cost_parents=("D1", "D2"),
        cost_table={"00": 2.0, "01": 0.0, "10": 9.0, "11": 9.0},
    )
    assert opt.split_decisions(d) == (("D2", "D1"), ())
    result = opt.optimal_pure_strategy(KnowledgeBase(diagram=d, vtbox=()))
    assert result.value == 0.0
    assert result.strategy.locals["D1"].table == {"0": 0.0, "1": 0.0}
    assert result.strategy.locals["D2"].table == {
        "00": 1.0, "01": 0.0, "10": 1.0, "11": 0.0
    }


# --- game tree --------------------------------------------------------------


def test_expansion_order(idelium):
    assert opt.expansion_order(idelium.kb.diagram) == ("D", "S", "TA", "P")


def test_tree_structure_fixture(idelium):
    tree = opt.build_game_tree(idelium.kb.diagram)
    assert len(tree.leaves) == 16
    # one singleton information set per (D, S) history, on the third level
    kinds = tree.table.diagram.kinds
    assert [kinds[v] != dg.CHANCE for v in tree.order] == [False, False, True, False]
    assert len(tree.infosets) == 4
    assert len(tree.sequences) == 1 + 2 * len(tree.infosets)


def test_game_tree_reads_each_cpt_once_per_use(idelium, random_kb_corpus, monkeypatch):
    """The tree is its world table alone: building it reads only the cost
    table, the LP optimum reads each CPT once more through ``joint``, and
    the DOT export reads each CPT once itself."""
    real, calls = dg.WorldTable.rows, []

    def counted(self, table, scope):
        calls.append(scope)
        return real(self, table, scope)

    monkeypatch.setattr(dg.WorldTable, "rows", counted)

    def reads(run):
        calls.clear()
        run()
        return len(calls)

    diagrams = [idelium.kb.diagram] + [kb.diagram for kb, _ in random_kb_corpus[:20]]
    assert {len(d.chance_nodes) for d in diagrams} >= {1, 2, 3}
    for diagram in diagrams:
        c = len(diagram.chance_nodes)
        assert reads(lambda: _pure_optimum(diagram)) == c + 1
        assert reads(lambda: opt.build_game_tree(diagram)) == 1
        assert reads(lambda: opt.export_game_tree_dot(opt.build_game_tree(diagram))) == c + 2
    assert reads(lambda: _pure_optimum(idelium.kb.diagram)) == 4


def test_tree_without_decisions():
    d = dg.InfluenceDiagram(
        variables=("A", "B"),
        kinds={"A": dg.CHANCE, "B": dg.CHANCE},
        parents={"A": (), "B": ("A",)},
        cpt={"A": {"": 0.25}, "B": {"0": 0.5, "1": 0.75}},
        cost_parents=("B",),
        cost_table={"0": 1.0, "1": 2.0},
    )
    tree = opt.build_game_tree(d)
    assert len(tree.sequences) == 1
    expected = dg.expected_cost(d, dg.GlobalStrategy(locals={}))
    ref = sf.ref_build_game_tree(d)
    a = sf.reduced_objective(ref)
    assert a.shape == (1,)
    assert a[0] == pytest.approx(expected)
    _, value = sf.solve_lp(sf.assemble_lp(ref))
    assert value == pytest.approx(expected, abs=1e-9)
    result = opt.optimal_mixed_strategy(d, fully_mixed=0.5)
    assert result.value == pytest.approx(expected)
    assert result.kind == "pure" and result.strategy.locals == {}


def test_tree_single_decision_no_chance():
    d = dg.InfluenceDiagram(
        variables=("D0",),
        kinds={"D0": dg.DECISION},
        parents={"D0": ()},
        cpt={},
        cost_parents=("D0",),
        cost_table={"0": 3.0, "1": 7.0},
    )
    tree = opt.build_game_tree(d)
    assert len(tree.leaves) == 2
    result = _pure_optimum(d)
    assert result.value == pytest.approx(3.0)
    assert result.strategy.locals["D0"].table[""] == pytest.approx(0.0)


def test_reduced_objective_reproduces_strategy_costs(idelium):
    tree = sf.ref_build_game_tree(idelium.kb.diagram)
    a = sf.reduced_objective(tree)
    for name in ("test_a_if_clear", "always_test_a", "uniform"):
        s = idelium.strategy(name)
        plan = sf.pure_plan(tree, s)
        assert float(a @ plan.entries) == pytest.approx(
            dg.expected_cost(idelium.kb.diagram, s), abs=1e-9
        )


def test_plan_to_strategy_inverts_pure_plan():
    """Per node, the plan's move fraction is the strategy's row; nodes the
    plan never reaches get the uniform row."""
    d = dg.InfluenceDiagram(
        variables=("D0", "C", "D1"),
        kinds={"D0": dg.DECISION, "C": dg.CHANCE, "D1": dg.DECISION},
        parents={"D0": (), "C": ("D0",), "D1": ("C",)},
        cpt={"C": {"0": 0.5, "1": 0.25}},
        cost_parents=("D1",),
        cost_table={"0": 0.0, "1": 1.0},
    )
    strategy = dg.GlobalStrategy(
        locals={
            "D0": dg.LocalStrategy("D0", (), {"": 1.0}),
            "D1": dg.LocalStrategy("D1", ("D0", "C"), {"00": 1, "01": 1, "10": 1, "11": 0}),
        }
    )
    tree = sf.ref_build_game_tree(d)
    back = sf.plan_to_strategy(tree, sf.pure_plan(tree, strategy))
    assert back.locals["D0"] == strategy.locals["D0"]
    assert back.locals["D1"] == dg.LocalStrategy(
        "D1", ("D0", "C"), {"00": 0.5, "01": 0.5, "10": 1.0, "11": 0.0}
    )


def test_realization_constraints_shape_and_feasibility(idelium):
    tree = sf.ref_build_game_tree(idelium.kb.diagram)
    R, r = sf.realization_constraints(tree)
    assert R.shape == (1 + len(tree.infosets), len(tree.sequences))
    assert r[0] == 1.0 and np.all(r[1:] == 0.0)
    for name in ("test_a_if_clear", "never_test_a", "uniform"):
        plan = sf.pure_plan(tree, idelium.strategy(name))
        assert np.allclose(R @ plan.entries, r, atol=1e-9)


def test_no_decision_constraints():
    d = dg.InfluenceDiagram(
        variables=("A",),
        kinds={"A": dg.CHANCE},
        parents={"A": ()},
        cpt={"A": {"": 0.5}},
        cost_parents=("A",),
        cost_table={"0": 0.0, "1": 4.0},
    )
    tree = sf.ref_build_game_tree(d)
    R, r = sf.realization_constraints(tree)
    assert R.shape == (1, 1)
    assert R[0, 0] == 1.0 and r[0] == 1.0


# --- LP pipeline ------------------------------------------------------------


def test_lp_fixture_value(idelium):
    result = opt.optimal_pure_strategy(idelium.kb)
    assert result.value == pytest.approx(2.36, abs=1e-7)
    assert result.kind == "pure"
    # plays the cheap test everywhere
    for row in result.strategy.locals["TA"].table.values():
        assert row == pytest.approx(1.0, abs=1e-9)
    # re-evaluating the behaviour strategy reproduces the LP value
    assert dg.expected_cost(idelium.kb.diagram, result.strategy) == pytest.approx(
        result.value, abs=1e-7
    )


def test_lp_zero_objective(idelium):
    d = idelium.kb.diagram
    flat = dg.InfluenceDiagram(
        variables=d.variables,
        kinds=d.kinds,
        parents=d.parents,
        cpt=d.cpt,
        cost_parents=d.cost_parents,
        cost_table={k: 0.0 for k in d.cost_table},
    )
    assert _pure_optimum(flat).value == pytest.approx(0.0, abs=1e-9)


def test_fully_mixed_perturbation(idelium):
    exact = opt.optimal_pure_strategy(idelium.kb)
    eps = 1e-6
    perturbed = opt.optimal_mixed_strategy(idelium.kb.diagram, fully_mixed=eps)
    assert perturbed.epsilon == eps
    assert perturbed.kind == "mixed"
    assert perturbed.value >= exact.value - 1e-12
    assert perturbed.value == pytest.approx(exact.value, abs=1e-3)
    plan = sf.pure_plan(sf.ref_kb_sequence_form(idelium.kb.diagram), perturbed.strategy)
    assert np.all(plan.entries >= eps - 1e-9)


def test_fully_mixed_infeasible(idelium):
    with pytest.raises(opt.InfeasibleEpsilonError):
        opt.optimal_mixed_strategy(idelium.kb.diagram, fully_mixed=0.7)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            opt.optimal_mixed_strategy(idelium.kb.diagram, fully_mixed=bad)


def test_lp_matches_backward_induction_randomized():
    """Backward induction over the sequence form keyed by the KB's scopes
    gives the LP value under perfect recall.  On every diagram the
    perfect-information tree, where each decision sees every variable
    expanded before it, bounds the LP value from below."""
    rng = random.Random(2025)
    recall = 0
    for _ in range(40):
        d = random_diagram(rng)
        result = _pure_optimum(d)
        value, _ = backward_induction(sf.ref_build_game_tree(d))
        assert value <= result.value + 1e-7
        if _perfect_recall(d):
            value = _sequence_values(sf.ref_kb_sequence_form(d))[0]
            assert result.value == pytest.approx(value, abs=1e-7)
            recall += 1
    assert recall >= 30


def assert_closed_form_plays_the_pure_optimum(d, pure):
    """The closed form at E = 0 solves the plain LP: its value is the
    pure optimum's to 1e-12 relative, and each row plays the pure move,
    or the uniform row where the pure optimum, never reaching that row,
    takes false."""
    mixed = opt.optimal_mixed_strategy(d, 0.0)
    assert mixed.kind == "pure"
    assert abs(mixed.value - pure.value) <= 1e-12 * max(1.0, abs(pure.value))
    for x, local in pure.strategy.locals.items():
        for key, p in local.table.items():
            q = mixed.strategy.locals[x].table[key]
            assert q == p or (q, p) == (0.5, 0.0), (x, key)


def test_lp_below_pure_minimum_randomized():
    """A pure strategy attains the LP optimum, so the plain LP answers
    with the pure optimum itself.  Under perfect recall the closed form
    at E = 0 agrees with it; without, there is no plan."""
    rng = random.Random(31337)
    recall = 0
    for _ in range(40):
        d = random_diagram(rng)
        pure = _pure_optimum(d)
        assert pure.kind == "pure"
        if not _perfect_recall(d):
            with pytest.raises(opt.InfeasibleEpsilonError, match="do not nest"):
                opt.optimal_mixed_strategy(d, 0.0)
            continue
        assert_closed_form_plays_the_pure_optimum(d, pure)
        recall += 1
    assert recall >= 25


def test_lp_equals_pure_on_fully_observed_family():
    """Every decision sees every earlier variable: the pure optimum is
    the perfect-information tree's, and the closed form at E = 0 plays
    it."""
    rng = random.Random(404)
    for _ in range(25):
        d = random_diagram(rng, full_observation=True)
        pure = _pure_optimum(d)
        value, _ = backward_induction(sf.ref_build_game_tree(d))
        assert pure.value == pytest.approx(value, abs=1e-7)
        assert_closed_form_plays_the_pure_optimum(d, pure)


def test_lp_strictly_beats_hidden_information_strategy():
    """The tree lets the optimizer see a chance value its influence set
    hides, for a value of 0.0.  The LP answers over the KB's scopes, so
    it no longer undercuts the best plain strategy, and its strategy is
    one of the KB's."""
    d = dg.InfluenceDiagram(
        variables=("C0", "D0"),
        kinds={"C0": dg.CHANCE, "D0": dg.DECISION},
        parents={"C0": (), "D0": ()},
        cpt={"C0": {"": 0.5}},
        cost_parents=("C0", "D0"),
        cost_table={"00": 0.0, "01": 10.0, "10": 10.0, "11": 0.0},
    )
    pure = _pure_optimum(d)
    mixed = opt.optimal_mixed_strategy(d, 0.0)
    assert pure.value == pytest.approx(5.0, abs=1e-9)
    assert backward_induction(sf.ref_build_game_tree(d))[0] == pytest.approx(0.0, abs=1e-9)
    assert mixed.value == pure.value
    assert dg.validate_strategy(d, mixed.strategy) == []


def test_pure_plans_feasible_and_consistent_randomized():
    rng = random.Random(808)
    for _ in range(30):
        d = random_diagram(rng)
        s = random_strategy(rng, d, pure=True)
        tree = sf.ref_build_game_tree(d)
        plan = sf.pure_plan(tree, s)
        R, r = sf.realization_constraints(tree)
        assert np.allclose(R @ plan.entries, r, atol=1e-9)
        assert set(np.round(plan.entries, 9)) <= {0.0, 1.0}
        a = sf.reduced_objective(tree)
        assert float(a @ plan.entries) == pytest.approx(
            dg.expected_cost(d, s), abs=1e-9
        )


def test_simplex_optimal_against_plan_enumeration():
    """On small trees, the LP value matches the best of all 0/1 plans."""
    rng = random.Random(55)
    checked = 0
    while checked < 10:
        d = random_diagram(rng)
        tree = sf.ref_build_game_tree(d)
        if not 0 < len(tree.infosets) <= 6:
            continue
        checked += 1
        lp = sf.assemble_lp(tree)
        _, value = sf.solve_lp(lp)
        a = sf.reduced_objective(tree)
        best = np.inf
        for mask in range(2 ** len(tree.infosets)):
            entries = np.zeros(len(tree.sequences))
            entries[0] = 1.0
            for h in tree.infosets:
                take_true = bool(mask >> h.id & 1)
                entries[h.seq_true] = entries[h.seq_in] if take_true else 0.0
                entries[h.seq_false] = 0.0 if take_true else entries[h.seq_in]
            best = min(best, float(a @ entries))
        assert value == pytest.approx(best, abs=1e-7)


def test_mixed_result_reproduces_value_randomized():
    rng = random.Random(909)
    for _ in range(20):
        d = random_diagram(rng)
        result = _pure_optimum(d)
        assert dg.expected_cost(d, result.strategy) == pytest.approx(
            result.value, abs=1e-7
        )


# --- backward induction -----------------------------------------------------


def _perfect_recall(diagram):
    """Of every two decisions, one and its scope lie inside the other's
    scope."""
    scopes = {d: set(scope) for d, scope in diagram.scopes.items()}
    return all(
        scopes[a] | {a} <= scopes[b] or scopes[b] | {b} <= scopes[a]
        for a, b in itertools.combinations(scopes, 2)
    )


def _sequence_values(form):
    """Per sequence, its reduced cost plus, for each information set it
    leads to, the lesser of the two moves' values: backward induction
    over the sequence form, whose optimum is the empty sequence's."""
    value = sf.reduced_objective(form)
    for h in reversed(form.infosets):
        value[h.seq_in] += min(value[h.seq_false], value[h.seq_true])
    return value


def _below_a_tie(form):
    """Per sequence, whether its path passes an information set whose two
    moves' values agree within 1e-12 relative, where the two sides may
    split the weight differently."""
    value = _sequence_values(form)
    below = np.zeros(len(form.sequences), dtype=bool)
    for h in form.infosets:
        false, true = value[h.seq_false], value[h.seq_true]
        tie = abs(false - true) <= 1e-12 * max(abs(false), abs(true))
        below[h.seq_false] = below[h.seq_true] = below[h.seq_in] | tie
    return below


def _simplex_corpus(random_kb_corpus, idelium):
    rng = random.Random(1)
    generated = [random_diagram(rng) for _ in range(400)]
    diagrams = [idelium.kb.diagram] + [kb.diagram for kb, _ in random_kb_corpus]
    return diagrams + [_redeclared(d, rng) if i % 2 else d for i, d in enumerate(generated)]


def test_backward_induction_matches_the_simplex(random_kb_corpus, idelium):
    """On the perfect-recall diagrams the simplex over the sequence form
    keyed by the KB's scopes is the oracle.  The plain LP optimum and the
    closed form at E = 0 have its value to 1e-12 relative, and, read back
    through the returned strategy, its plan to 1e-12 except below
    information sets whose two moves' values agree to 1e-12 relative.
    The closed form's value adds  chance * cost * plan entry  over the
    leaves left to right, bit for bit."""
    differences = checked = 0
    for diagram in _simplex_corpus(random_kb_corpus, idelium):
        if not _perfect_recall(diagram):
            continue
        form = sf.ref_kb_sequence_form(diagram)
        lp_plan, lp_value = sf.solve_lp(sf.assemble_lp(form))
        below = _below_a_tie(form)
        for result in (_pure_optimum(diagram), opt.optimal_mixed_strategy(diagram, 0.0)):
            assert abs(result.value - lp_value) <= 1e-12 * max(1.0, abs(lp_value))
            plan = sf.pure_plan(form, result.strategy)
            assert set(plan.entries.tolist()) <= {0.0, 1.0}
            gap = np.abs(plan.entries - lp_plan.entries)
            assert np.all(gap[~below] <= 1e-12)
            differences += int(np.count_nonzero(gap > 1e-12))
        terms = [
            leaf.chance_weight * leaf.cost * float(plan.entries[leaf.seq1])
            for leaf in form.leaves
        ]
        assert result.value.hex() == functools.reduce(operator.add, terms).hex()
        checked += 1
    assert checked >= 500
    assert differences > 0  # the corpus does reach ties the two break differently


def _named_pair(message):
    """The two decisions that an InfeasibleEpsilonError names."""
    return message.split("decisions ", 1)[1].split(" do not nest")[0].split(" and ")


def test_fully_mixed_matches_the_simplex(random_kb_corpus, idelium):
    """Under a lower bound E on every entry the simplex over the
    KB-keyed sequence form is the oracle on the perfect-recall diagrams:
    the same feasibility, the same value to 1e-12 relative, and, read
    back through the returned strategy, the same plan to 1e-12, except
    below information sets whose two moves' values agree to 1e-12
    relative.  Every entry of that plan is at least E, to 1e-15.  Without
    perfect recall every E exits with two decisions that do not nest."""
    seen = collections.Counter()
    for diagram in _simplex_corpus(random_kb_corpus, idelium):
        k = len(diagram.decision_nodes)
        epsilons = (1e-6, 1e-3, 0.01, 0.1, 0.3, 2.0**-k)
        if not _perfect_recall(diagram):
            for epsilon in epsilons:
                with pytest.raises(opt.InfeasibleEpsilonError, match="do not nest") as info:
                    opt.optimal_mixed_strategy(diagram, epsilon)
                assert "\n" not in str(info.value)
                e, d = _named_pair(str(info.value))
                scope = {x: set(diagram.scopes[x]) for x in (e, d)}
                assert not (scope[e] | {e} <= scope[d] or scope[d] | {d} <= scope[e])
            seen["no perfect recall"] += 1
            continue
        form = sf.ref_kb_sequence_form(diagram)
        below = _below_a_tie(form)
        for epsilon in epsilons:
            try:
                lp_plan, lp_value = sf.solve_lp(sf.assemble_lp(form, epsilon))
            except simplex.Infeasible:
                with pytest.raises(opt.InfeasibleEpsilonError, match=f"K = {k} "):
                    opt.optimal_mixed_strategy(diagram, epsilon)
                seen["infeasible"] += 1
                continue
            result = opt.optimal_mixed_strategy(diagram, epsilon)
            assert abs(result.value - lp_value) <= 1e-12 * max(1.0, abs(lp_value))
            plan = sf.pure_plan(form, result.strategy)
            assert np.all(plan.entries >= epsilon - 1e-15)
            assert np.all(np.abs(plan.entries - lp_plan.entries)[~below] <= 1e-12)
            seen["feasible"] += 1
            seen["below a tie"] += bool(below.any())
    assert len(seen) == 4


def test_lp_exact_tie_takes_false():
    """D1 is no ancestor of the cost, so its two moves tie exactly: the
    rows the plan reaches take false.  The closed form at E = 0 gives
    the rows it never reaches (after D0 = 0) the uniform row; the plain
    LP is the pure optimum, which sets them to false."""
    d = dg.InfluenceDiagram(
        variables=("D0", "C", "D1"),
        kinds={"D0": dg.DECISION, "C": dg.CHANCE, "D1": dg.DECISION},
        parents={"D0": (), "C": ("D0",), "D1": ("C",)},
        cpt={"C": {"0": 0.5, "1": 0.25}},
        cost_parents=("D0", "C"),
        cost_table={"00": 4.0, "01": 4.0, "10": 0.0, "11": 2.0},
    )
    result = opt.optimal_mixed_strategy(d, fully_mixed=0.0)
    assert result.value == 0.5
    assert result.strategy.locals["D0"].table == {"": 1.0}
    assert result.strategy.locals["D1"].table == {
        "00": 0.5, "01": 0.5, "10": 0.0, "11": 0.0
    }
    assert result.kind == "pure"  # the uniform rows are never reached
    plain = _pure_optimum(d)
    assert plain.value == 0.5
    assert plain.strategy.locals["D1"].table == {"00": 0.0, "01": 0.0, "10": 0.0, "11": 0.0}


def _late_decisions(recall):
    """11 chance roots, then D0, D1 and D2, with the cost on C00 and D2.

    With recall, each decision sees every chance root and every earlier
    decision, so the KB's scopes hold 2^11 + 2^12 + 2^13 = 14336 rows,
    the information sets of the KB-keyed sequence form.  Without it the
    decisions see nothing and their scopes do not nest.
    """
    chance = tuple(f"C{i:02d}" for i in range(11))
    decisions = ("D0", "D1", "D2")
    return dg.InfluenceDiagram(
        variables=chance + decisions,
        kinds={**{v: dg.CHANCE for v in chance}, **{v: dg.DECISION for v in decisions}},
        parents={
            **{v: () for v in chance},
            **{d: chance + decisions[:i] if recall else () for i, d in enumerate(decisions)},
        },
        cpt={v: {"": 0.5} for v in chance},
        cost_parents=("C00", "D2"),
        cost_table={"00": 0.0, "01": 1.0, "10": 5.0, "11": 2.0},
    )


def test_fully_mixed_lp_on_14336_information_sets_needs_no_simplex(monkeypatch):
    """The KB-keyed sequence form of 14336 information sets would give a
    dense simplex tableau of 14338 x 43011 cells; the closed form answers
    it without building any.  The same decisions seeing nothing have no
    perfect recall, and no fully-mixed plan."""
    d = _late_decisions(recall=True)
    assert sum(1 << len(d.scopes[v]) for v in d.decision_nodes) == 14336
    assert opt.split_decisions(d) == (("D2", "D1", "D0"), ())

    def fail(*args, **kwargs):
        raise AssertionError("the sequence-form LP was built")

    for module, name in ((sf, "assemble_lp"), (sf, "realization_constraints"),
                         (simplex, "minimize")):
        monkeypatch.setattr(module, name, fail)
    epsilon = 1e-6
    result = opt.optimal_mixed_strategy(d, fully_mixed=epsilon)
    assert result.kind == "mixed" and result.epsilon == epsilon
    form = sf.ref_kb_sequence_form(d)
    assert len(form.infosets) == 14336
    plan = sf.pure_plan(form, result.strategy)
    assert np.all(plan.entries >= epsilon - 1e-15)
    assert abs(result.value - dg.expected_cost(d, result.strategy)) <= 1e-12
    plain = _pure_optimum(d)
    assert plain.value == 1.0 and plain.kind == "pure"
    forgetting = _late_decisions(recall=False)
    with pytest.raises(opt.InfeasibleEpsilonError, match="decisions D0 and D1 do not nest$"):
        opt.optimal_mixed_strategy(forgetting, fully_mixed=epsilon)
    assert _pure_optimum(forgetting).value == 1.5  # D2 does not see C00


# --- DOT export -------------------------------------------------------------


def test_dot_export_shapes(idelium):
    tree = opt.build_game_tree(idelium.kb.diagram)
    dot = opt.export_game_tree_dot(tree)
    assert dot.startswith("digraph game_tree {")
    assert dot.rstrip().endswith("}")
    assert dot.count("shape=diamond") == 16
    assert dot.count("shape=box") == 4
    assert dot.count("shape=circle") == 1 + 2 + 8  # D, then S nodes, then P nodes
    assert 'label="cost=90"' in dot
    assert "p=0.3" in dot
    # deterministic output
    assert dot == opt.export_game_tree_dot(opt.build_game_tree(idelium.kb.diagram))


def test_dot_labels_come_from_rows_and_keep_a_zero_cost_sign():
    """The cost rows 0.0 and -0.0 are equal floats; each leaf still takes
    the text of its own row."""
    diagram = load_kb_text(SIGNED_ZERO_KB).kb.diagram
    assert opt.export_game_tree_dot(opt.build_game_tree(diagram)) == (
        "digraph game_tree {\n"
        '  n0 [shape=circle label="A"];\n'
        '  n1 [shape=box label="D"];\n'
        '  n2 [shape=diamond label="cost=0"];\n'
        '  n1 -> n2 [label="D=0"];\n'
        '  n3 [shape=diamond label="cost=-0"];\n'
        '  n1 -> n3 [label="D=1"];\n'
        '  n0 -> n1 [label="A=0 p=0"];\n'
        '  n4 [shape=box label="D"];\n'
        '  n5 [shape=diamond label="cost=-0"];\n'
        '  n4 -> n5 [label="D=0"];\n'
        '  n6 [shape=diamond label="cost=0"];\n'
        '  n4 -> n6 [label="D=1"];\n'
        '  n0 -> n4 [label="A=1 p=1"];\n'
        "}\n"
    )
    assert_tree_matches_reference(diagram)


def test_dot_export_formats_each_row_once(random_kb_corpus, monkeypatch):
    """The export formats two labels per CPT row and one per cost row,
    not one per node: fewer calls than nodes on a corpus diagram."""
    for kb, _ in random_kb_corpus:
        diagram = kb.diagram
        tree = opt.build_game_tree(diagram)
        chance_nodes = sum(1 << d for d, v in enumerate(tree.order) if diagram.kinds[v] == dg.CHANCE)
        per_node = 2 * chance_nodes + tree.table.size
        per_row = sum(2 << len(diagram.parents[v]) for v in diagram.chance_nodes)
        per_row += 1 << len(diagram.cost_parents)
        if per_row < per_node:
            break
    else:
        pytest.fail("every corpus diagram has at least as many rows as nodes")
    real, calls = opt.fmt, []
    monkeypatch.setattr(opt, "fmt", lambda x: calls.append(x) or real(x))
    opt.export_game_tree_dot(tree)
    assert len(calls) <= per_row
