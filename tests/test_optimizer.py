"""Pure-strategy enumeration, game trees, and the sequence-form LP.

Enumerating every pure strategy is the oracle for the row-wise pure
optimum (``enumerated_optimum``).

The game tree is built as columns over the world table; the recursive
builder in ``sequence_form``, with its node and information-set classes,
and the DOT emitter here are the reference it must equal bit for bit.
The game-tree optimum answers the tree's sequence-form LP, perturbed or
not; the LP itself, solved by the dense simplex in ``sequence_form``, is
its oracle.
"""

import collections
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
from cider.contextual import KnowledgeBase
from cider.el import ConceptName as N
from cider.evidence import EvidenceQuery, optimistic_expected_cost
from cider.kbfile import load_kb_text

import sequence_form as sf
from conftest import bench_specs, random_diagram, random_strategy, with_scopes


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
    assert [None if p is None else p.tolist() for p in tree.p_true] == _p_true_by_level(ref)
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


def same_takes(a, b):
    """Equal decisions, each with an equal Boolean array over its rows."""
    return a.keys() == b.keys() and all(
        a[d].dtype == b[d].dtype == bool and np.array_equal(a[d], b[d]) for d in a
    )


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


def test_enumeration_cap(idelium):
    with pytest.raises(opt.EnumerationCapError, match="4"):
        list(opt.enumerate_pure_strategies(idelium.kb.diagram, cap=3))


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
    dom_opt = opt.optimal_pure_strategy(
        idelium.kb, objective="dominant-optimistic", evidence=query
    )
    check = optimistic_expected_cost(idelium.kb, dom_opt.strategy, query)
    assert dom_opt.value == pytest.approx(check.value, abs=1e-9)
    for pure in opt.enumerate_pure_strategies(idelium.kb.diagram):
        other = optimistic_expected_cost(idelium.kb, pure.to_strategy(), query)
        assert dom_opt.value <= other.value + 1e-9
    dom_pes = opt.optimal_pure_strategy(
        idelium.kb, objective="dominant-pessimistic", evidence=query
    )
    assert dom_pes.value <= 11.081 + 1e-3  # at least as good as the worked strategy


def test_objective_validation(idelium):
    with pytest.raises(ValueError):
        opt.optimal_pure_strategy(idelium.kb, objective="dominant-optimistic")
    with pytest.raises(ValueError):
        opt.optimal_pure_strategy(idelium.kb, objective="nonsense")
    with pytest.raises(ValueError):
        opt.optimal_pure_strategy(idelium.kb, direction="sideways")


def test_decide_threshold(idelium):
    best = opt.optimal_pure_strategy(idelium.kb)
    worst = opt.optimal_pure_strategy(idelium.kb, direction="max")
    assert opt.decide_threshold(best, 3.0, "d-opt")
    assert not opt.decide_threshold(best, 2.36, "d-opt")  # strict
    assert not opt.decide_threshold(worst, 18.05, "d-pes")  # strict
    assert opt.decide_threshold(worst, 18.0, "d-pes")
    # monotone in the bound
    answers = [opt.decide_threshold(best, b, "d-opt") for b in (1.0, 2.0, 3.0, 40.0)]
    assert answers == sorted(answers)


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
        assert same_takes(result.certificate.takes, pure.takes)
    return unique


def _bench_kbs():
    """The benchmark's generated KBs of every workload at five seeds."""
    return [load_kb_text(spec.to_yaml()).kb for spec in bench_specs((1, 3, 5, 11, 29))]


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
    unique = 0
    for kb in cases:
        scored = enumerated_optimum(kb.diagram)
        for direction in ("min", "max"):
            unique += assert_matches_enumeration(kb, scored, direction)
    assert unique > len(cases)  # most optima are unique up to unreached rows


def test_split_decisions_of_the_strategy_search_shape():
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
    result = opt.optimal_pure_strategy(kb, cap=4)
    best = min(v for v, _ in enumerated_optimum(d))
    assert result.value == pytest.approx(best, rel=1e-12)
    message = "^4 pure strategies exceed the cap 3$"
    with pytest.raises(opt.EnumerationCapError, match=message):
        opt.optimal_pure_strategy(kb, cap=3)


_LIMID = (
    "variables: [X, D1, Y, D2]\n"
    "nodes:\n"
    "  X: {kind: chance, parents: [], cpt: {'': 0.5}}\n"
    "  D1: {kind: decision, parents: [X]}\n"
    "  Y: {kind: chance, parents: [D1], cpt: {'0': 0.2, '1': 0.8}}\n"
    "  D2: {kind: decision, parents: [Y]}\n"
    "cost: {parents: [X, D2], table: {'00': 0, '01': 1, '10': 1, '11': 0}}\n"
    "strategies:\n"
    "  copy: {D1: {'0': 0, '1': 1}, D2: {'0': 0, '1': 1}}\n"
    "  never: {D1: {'0': 0, '1': 0}, D2: {'0': 0, '1': 0}}\n"
)


def test_a_forgetful_kb_is_optimized_and_validated_over_parent_scopes():
    """D2 pays unless it guesses X.  Its influence set holds D1, which
    can copy X; loaded forgetful, it sees only Y, a noisy copy of D1, so
    the best pure strategy errs with probability 0.2."""
    doc = load_kb_text(_LIMID, forgetful=True)
    result = opt.optimal_pure_strategy(doc.kb)
    assert result.certificate.scopes == {"D1": ("X",), "D2": ("Y",)}
    best = min(v for v, _ in enumerated_optimum(doc.kb.diagram))
    assert result.value == pytest.approx(best, rel=1e-12)
    assert result.value == pytest.approx(0.2, rel=1e-12)
    for name in doc.strategies:
        assert dg.validate_strategy(doc.kb.diagram, doc.strategy(name)) == []
    assert dg.expected_cost(doc.kb.diagram, doc.strategy("copy")) == result.value
    recall = opt.optimal_pure_strategy(load_kb_text(_LIMID).kb)
    assert recall.certificate.scopes["D2"] == ("D1", "Y")
    assert recall.value == 0.0


def test_perfect_recall_enumerates_nothing():
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
    best = opt.optimal_pure_strategy(kb, cap=1)
    assert best.value == pytest.approx(0.5)
    assert set(best.strategy.locals["D0"].table.values()) == {0.0, 1.0}
    worst = opt.optimal_pure_strategy(kb, direction="max", cap=1)
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
        assert same_takes(result.certificate.takes, enumerated_optimum(d)[0][1].takes)


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
    assert [p is None for p in tree.p_true] == [False, False, True, False]
    assert len(tree.infosets) == 4
    assert len(tree.sequences) == 1 + 2 * len(tree.infosets)


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
    result = opt.optimal_mixed_strategy(d)
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
    result = opt.optimal_mixed_strategy(idelium.kb)
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
    assert opt.optimal_mixed_strategy(flat).value == pytest.approx(0.0, abs=1e-9)


def test_fully_mixed_perturbation(idelium):
    exact = opt.optimal_mixed_strategy(idelium.kb)
    eps = 1e-6
    perturbed = opt.optimal_mixed_strategy(idelium.kb, fully_mixed=eps)
    assert perturbed.epsilon == eps
    assert perturbed.kind == "mixed"
    assert perturbed.value >= exact.value - 1e-12
    assert perturbed.value == pytest.approx(exact.value, abs=1e-3)
    plan = sf.pure_plan(sf.ref_build_game_tree(idelium.kb.diagram), perturbed.strategy)
    assert np.all(plan.entries >= eps - 1e-9)


def test_fully_mixed_infeasible(idelium):
    with pytest.raises(opt.InfeasibleEpsilonError):
        opt.optimal_mixed_strategy(idelium.kb, fully_mixed=0.7)
    for bad in (-0.1, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            opt.optimal_mixed_strategy(idelium.kb, fully_mixed=bad)


def test_lp_matches_backward_induction_randomized():
    rng = random.Random(2025)
    for _ in range(40):
        d = random_diagram(rng)
        value, _ = backward_induction(sf.ref_build_game_tree(d))
        result = opt.optimal_mixed_strategy(d)
        assert result.value == pytest.approx(value, abs=1e-7)


def test_lp_below_pure_minimum_randomized():
    rng = random.Random(31337)
    for _ in range(40):
        d = random_diagram(rng)
        kb = KnowledgeBase(diagram=d, vtbox=())
        pure = opt.optimal_pure_strategy(kb)
        mixed = opt.optimal_mixed_strategy(d)
        assert mixed.value <= pure.value + 1e-7


def test_lp_equals_pure_on_fully_observed_family():
    rng = random.Random(404)
    for _ in range(25):
        d = random_diagram(rng, full_observation=True)
        kb = KnowledgeBase(diagram=d, vtbox=())
        pure = opt.optimal_pure_strategy(kb)
        mixed = opt.optimal_mixed_strategy(d)
        assert mixed.value == pytest.approx(pure.value, abs=1e-7)


def test_lp_strictly_beats_hidden_information_strategy():
    """The tree lets the optimizer see a chance value its influence set
    hides, so the LP optimum can undercut every plain strategy."""
    d = dg.InfluenceDiagram(
        variables=("C0", "D0"),
        kinds={"C0": dg.CHANCE, "D0": dg.DECISION},
        parents={"C0": (), "D0": ()},
        cpt={"C0": {"": 0.5}},
        cost_parents=("C0", "D0"),
        cost_table={"00": 0.0, "01": 10.0, "10": 10.0, "11": 0.0},
    )
    kb = KnowledgeBase(diagram=d, vtbox=())
    pure = opt.optimal_pure_strategy(kb)
    mixed = opt.optimal_mixed_strategy(d)
    assert pure.value == pytest.approx(5.0, abs=1e-9)
    assert mixed.value == pytest.approx(0.0, abs=1e-9)


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
        result = opt.optimal_mixed_strategy(d)
        assert dg.expected_cost(d, result.strategy) == pytest.approx(
            result.value, abs=1e-7
        )


# --- backward induction -----------------------------------------------------


def _below_a_tie(tree):
    """Per sequence, whether its path passes a decision node whose two
    moves' values agree within 1e-12 relative, where the two sides may
    split the weight differently."""
    _, children = backward_induction(tree)
    below = np.zeros(len(tree.sequences), dtype=bool)
    for h in tree.infosets:
        false, true = children[h.id]
        tie = abs(false - true) <= 1e-12 * max(abs(false), abs(true))
        below[h.seq_false] = below[h.seq_true] = below[h.seq_in] | tie
    return below


def _simplex_corpus(random_kb_corpus, idelium):
    rng = random.Random(1)
    generated = [random_diagram(rng) for _ in range(400)]
    diagrams = [idelium.kb.diagram] + [kb.diagram for kb, _ in random_kb_corpus]
    return diagrams + [_redeclared(d, rng) if i % 2 else d for i, d in enumerate(generated)]


def test_backward_induction_matches_the_simplex(random_kb_corpus, idelium):
    """The simplex is the oracle: the same value to 1e-12 relative, and,
    read back through the returned strategy, the same plan to 1e-12
    except below decision nodes whose two moves' values agree to 1e-12
    relative.  The value adds  chance * cost * plan entry  over the
    reference's leaves left to right, bit for bit."""
    differences = 0
    for diagram in _simplex_corpus(random_kb_corpus, idelium):
        tree = sf.ref_build_game_tree(diagram)
        result = opt.optimal_mixed_strategy(diagram)
        lp_plan, lp_value = sf.solve_lp(sf.assemble_lp(tree))
        assert abs(result.value - lp_value) <= 1e-12 * max(1.0, abs(lp_value))
        plan = sf.pure_plan(tree, result.strategy)
        assert set(plan.entries.tolist()) <= {0.0, 1.0}
        terms = [
            leaf.chance_weight * leaf.cost * float(plan.entries[leaf.seq1])
            for leaf in tree.leaves
        ]
        assert result.value.hex() == functools.reduce(operator.add, terms).hex()
        gap = np.abs(plan.entries - lp_plan.entries)
        assert np.all(gap[~_below_a_tie(tree)] <= 1e-12)
        differences += int(np.count_nonzero(gap > 1e-12))
    assert differences > 0  # the corpus does reach ties the two break differently


def test_fully_mixed_matches_the_simplex(random_kb_corpus, idelium):
    """Under a lower bound E on every entry the simplex is the oracle:
    the same feasibility, the same value to 1e-12 relative, and, read
    back through the returned strategy, the same plan to 1e-12, except
    below decision nodes whose two moves' values agree to 1e-12
    relative.  Every entry of that plan is at least E, to 1e-15."""
    seen = collections.Counter()
    for diagram in _simplex_corpus(random_kb_corpus, idelium):
        tree = sf.ref_build_game_tree(diagram)
        k = sum(diagram.kinds[v] != dg.CHANCE for v in tree.order)
        below = _below_a_tie(tree)
        for epsilon in (1e-6, 1e-3, 0.01, 0.1, 0.3, 2.0**-k):
            try:
                lp_plan, lp_value = sf.solve_lp(sf.assemble_lp(tree, epsilon))
            except simplex.Infeasible:
                with pytest.raises(opt.InfeasibleEpsilonError, match=f"K = {k} "):
                    opt.optimal_mixed_strategy(diagram, epsilon)
                seen["infeasible"] += 1
                continue
            result = opt.optimal_mixed_strategy(diagram, epsilon)
            assert abs(result.value - lp_value) <= 1e-12 * max(1.0, abs(lp_value))
            plan = sf.pure_plan(tree, result.strategy)
            assert np.all(plan.entries >= epsilon - 1e-15)
            assert np.all(np.abs(plan.entries - lp_plan.entries)[~below] <= 1e-12)
            seen["feasible"] += 1
            seen["below a tie"] += bool(below.any())
    assert len(seen) == 3


def test_lp_exact_tie_takes_false():
    """D1 is no ancestor of the cost, so its two moves tie exactly: the
    rows the plan reaches take false, and the rows it never reaches (after
    D0 = 0) get the uniform row."""
    d = dg.InfluenceDiagram(
        variables=("D0", "C", "D1"),
        kinds={"D0": dg.DECISION, "C": dg.CHANCE, "D1": dg.DECISION},
        parents={"D0": (), "C": ("D0",), "D1": ("C",)},
        cpt={"C": {"0": 0.5, "1": 0.25}},
        cost_parents=("D0", "C"),
        cost_table={"00": 4.0, "01": 4.0, "10": 0.0, "11": 2.0},
    )
    result = opt.optimal_mixed_strategy(d)
    assert result.value == 0.5
    assert result.strategy.locals["D0"].table == {"": 1.0}
    assert result.strategy.locals["D1"].table == {
        "00": 0.5, "01": 0.5, "10": 0.0, "11": 0.0
    }
    assert result.kind == "pure"  # the uniform rows are never reached


def test_fully_mixed_lp_on_14336_information_sets_needs_no_simplex(monkeypatch):
    """14 variables whose decisions sit on levels 11 to 13 give the tree
    2^11 + 2^12 + 2^13 = 14336 information sets: the program's dense
    simplex tableau would have 14338 x 43011 cells, and backward
    induction answers it without building any."""
    chance = tuple(f"C{i:02d}" for i in range(11))
    decisions = ("D0", "D1", "D2")
    d = dg.InfluenceDiagram(
        variables=chance + decisions,
        kinds={**{v: dg.CHANCE for v in chance}, **{v: dg.DECISION for v in decisions}},
        parents={v: () for v in chance + decisions},
        cpt={v: {"": 0.5} for v in chance},
        cost_parents=("C00", "D2"),
        cost_table={"00": 0.0, "01": 1.0, "10": 5.0, "11": 2.0},
    )
    assert len(opt.build_game_tree(d).infosets) == 14336

    def fail(*args, **kwargs):
        raise AssertionError("the sequence-form LP was built")

    for module, name in ((sf, "assemble_lp"), (sf, "realization_constraints"),
                         (simplex, "minimize")):
        monkeypatch.setattr(module, name, fail)
    epsilon = 1e-6
    result = opt.optimal_mixed_strategy(d, fully_mixed=epsilon)
    assert result.kind == "mixed" and result.epsilon == epsilon
    plan = sf.pure_plan(sf.ref_build_game_tree(d), result.strategy)
    assert np.all(plan.entries >= epsilon - 1e-15)
    assert abs(result.value - dg.expected_cost(d, result.strategy)) <= 1e-12
    plain = opt.optimal_mixed_strategy(d)
    assert plain.value == 1.0 and plain.kind == "pure"


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
