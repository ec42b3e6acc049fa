"""Pure-strategy enumeration, game trees, and the sequence-form LP.

The game tree is built as arrays; the recursive builder, node classes
and DOT emitter it replaced are kept here as the reference it must equal
bit for bit.
"""

import dataclasses
import itertools
import random
from dataclasses import dataclass

import numpy as np
import pytest

from cider import diagram as dg
from cider import optimizer as opt
from cider._format import format_float as fmt
from cider.contextual import KnowledgeBase
from cider.el import ConceptName as N
from cider.evidence import EvidenceQuery, optimistic_expected_cost

from conftest import random_diagram, random_strategy


# --- the recursive reference ------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    world: dict
    cost: float
    chance_weight: float
    seq1: int  # index into the tree's sequences


@dataclass(frozen=True)
class ChanceNode:
    variable: str
    p_true: float
    children: tuple  # (value-false child, value-true child)


@dataclass(frozen=True)
class DecisionNode:
    variable: str
    infoset: int
    children: tuple


@dataclass(frozen=True)
class RefTree:
    order: tuple
    root: object
    leaves: tuple
    sequences: tuple
    infosets: tuple


def ref_build_game_tree(diagram):
    """One node object per tree node, expanded depth first."""
    order = opt.expansion_order(diagram)
    sequences = [()]
    seq_index = {(): 0}
    infosets = []
    leaves = []

    def expand(depth, world, weight, seq1):
        if depth == len(order):
            leaf = Leaf(
                world=dict(world),
                cost=dg.cost_of_valuation(diagram, world),
                chance_weight=weight,
                seq1=seq_index[seq1],
            )
            leaves.append(leaf)
            return leaf
        v = order[depth]
        if diagram.kinds[v] == dg.CHANCE:
            p = diagram.cpt[v][dg.rowkey(world, diagram.parents.get(v, ()))]
            children = []
            for value, branch_p in ((False, 1.0 - p), (True, p)):
                world[v] = value
                children.append(expand(depth + 1, world, weight * branch_p, seq1))
                del world[v]
            return ChanceNode(variable=v, p_true=p, children=tuple(children))
        h = len(infosets)
        extensions = []
        for value in (False, True):
            move_seq = seq1 + ((h, value),)
            seq_index[move_seq] = len(sequences)
            sequences.append(move_seq)
            extensions.append(move_seq)
        infosets.append(
            opt.Infoset(
                id=h,
                variable=v,
                history=dg.rowkey(world, order[:depth]),
                seq_in=seq_index[seq1],
                seq_false=seq_index[extensions[0]],
                seq_true=seq_index[extensions[1]],
            )
        )
        children = []
        for value, move_seq in zip((False, True), extensions):
            world[v] = value
            children.append(expand(depth + 1, world, weight, move_seq))
            del world[v]
        return DecisionNode(variable=v, infoset=h, children=tuple(children))

    root = expand(0, {}, 1.0, ())
    return RefTree(
        order=order,
        root=root,
        leaves=tuple(leaves),
        sequences=tuple(sequences),
        infosets=tuple(infosets),
    )


def ref_reduced_objective(tree):
    a = np.zeros(len(tree.sequences))
    for leaf in tree.leaves:
        a[leaf.seq1] += leaf.cost * leaf.chance_weight
    return a


def ref_export_dot(tree):
    lines = ["digraph game_tree {"]
    counter = itertools.count()

    def emit(node):
        my_id = f"n{next(counter)}"
        if isinstance(node, Leaf):
            lines.append(f'  {my_id} [shape=diamond label="cost={fmt(node.cost)}"];')
            return my_id
        if isinstance(node, ChanceNode):
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


def backward_induction(node):
    """Independent perfect-information optimum of a reference tree."""
    if isinstance(node, Leaf):
        return node.cost
    values = [backward_induction(child) for child in node.children]
    if isinstance(node, ChanceNode):
        return (1.0 - node.p_true) * values[0] + node.p_true * values[1]
    return min(values)


def _redeclared(diagram, rng):
    """The same diagram with its variables declared in another order, so
    that the expansion order often differs from the declared one."""
    variables = list(diagram.variables)
    rng.shuffle(variables)
    return dataclasses.replace(diagram, variables=tuple(variables))


def _same_array(a, b):
    return a.dtype == b.dtype and np.array_equal(a, b) and a.tobytes() == b.tobytes()


def assert_tree_matches_reference(diagram):
    tree = opt.build_game_tree(diagram)
    ref = ref_build_game_tree(diagram)
    assert tree.order == ref.order
    n = len(ref.order)
    # leaf i is the i-th valuation in binary counting order of the expansion order
    assert [dg.rowkey(leaf.world, ref.order) for leaf in ref.leaves] == [
        format(i, f"0{n}b") if n else "" for i in range(len(tree.leaves))
    ]
    for name in ("cost", "chance_weight"):
        expected = np.array([getattr(leaf, name) for leaf in ref.leaves])
        assert _same_array(getattr(tree.leaves, name), expected), name
    assert tree.leaves.seq1.tolist() == [leaf.seq1 for leaf in ref.leaves]
    assert _same_array(opt.reduced_objective(tree), ref_reduced_objective(ref))
    assert tree.sequences == ref.sequences
    assert tree.infosets == ref.infosets
    for array, expected in zip(
        opt.realization_constraints(tree), opt.realization_constraints(ref)
    ):
        assert _same_array(array, expected)
    assert opt.export_game_tree_dot(tree) == ref_export_dot(ref)


def test_tree_matches_the_recursive_reference(random_kb_corpus, idelium):
    rng = random.Random(73)
    diagrams = [idelium.kb.diagram] + [kb.diagram for kb, _ in random_kb_corpus]
    # larger trees put more than eight leaves on one sequence, where a
    # pairwise sum and a sum in leaf order part
    diagrams += [random_diagram(rng, n_vars=8, strategy_cap_log2=64) for _ in range(10)]
    diagrams += [_redeclared(d, rng) for d in diagrams]
    assert sum(opt.expansion_order(d) != d.variables for d in diagrams) > 100
    for diagram in diagrams:
        assert_tree_matches_reference(diagram)


# --- enumeration ------------------------------------------------------------


def test_enumeration_counts(idelium):
    strategies = list(opt.enumerate_pure_strategies(idelium.kb.diagram))
    assert len(strategies) == 4
    tables = [s.choices["TA"] for s in strategies]
    assert tables[0] == {"0": False, "1": False}  # lexicographic start
    assert tables[-1] == {"0": True, "1": True}


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
    assert strategies[0].choices == {}


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
    assert len(list(opt.enumerate_pure_strategies(d))) == 16


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


# --- game tree --------------------------------------------------------------


def test_expansion_order(idelium):
    assert opt.expansion_order(idelium.kb.diagram) == ("D", "S", "TA", "P")


def test_tree_structure_fixture(idelium):
    tree = opt.build_game_tree(idelium.kb.diagram)
    assert len(tree.leaves) == 16
    # one singleton information set per (D, S) history
    assert len(tree.infosets) == 4
    assert sorted(h.history for h in tree.infosets) == ["00", "01", "10", "11"]
    assert len(tree.sequences) == 1 + 2 * len(tree.infosets)
    # chance weights along any fixed pure choice of TA sum to one; TA is
    # the third of four variables, so bit 1 of the leaf index
    ta_value = (np.arange(16) >> 1) & 1
    for value in (0, 1):
        total = tree.leaves.chance_weight[ta_value == value].sum()
        assert total == pytest.approx(1.0, abs=1e-9)


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
    assert tree.leaves.chance_weight.sum() == pytest.approx(1.0)
    a = opt.reduced_objective(tree)
    assert a.shape == (1,)
    expected = dg.expected_cost(d, dg.GlobalStrategy(locals={}))
    assert a[0] == pytest.approx(expected)
    _, value = opt.solve_lp(opt.assemble_lp(tree))
    assert value == pytest.approx(expected, abs=1e-9)


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
    assert tree.leaves.chance_weight.tolist() == [1.0, 1.0]
    result = opt.optimal_mixed_strategy(d)
    assert result.value == pytest.approx(3.0)
    assert result.strategy.locals["D0"].table[""] == pytest.approx(0.0)


def test_reduced_objective_reproduces_strategy_costs(idelium):
    tree = opt.build_game_tree(idelium.kb.diagram)
    a = opt.reduced_objective(tree)
    for name in ("test_a_if_clear", "always_test_a", "uniform"):
        s = idelium.strategy(name)
        plan = opt.pure_plan(tree, s)
        assert float(a @ plan.entries) == pytest.approx(
            dg.expected_cost(idelium.kb.diagram, s), abs=1e-9
        )


def test_realization_constraints_shape_and_feasibility(idelium):
    tree = opt.build_game_tree(idelium.kb.diagram)
    R, r = opt.realization_constraints(tree)
    assert R.shape == (1 + len(tree.infosets), len(tree.sequences))
    assert r[0] == 1.0 and np.all(r[1:] == 0.0)
    for name in ("test_a_if_clear", "never_test_a", "uniform"):
        plan = opt.pure_plan(tree, idelium.strategy(name))
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
    tree = opt.build_game_tree(d)
    R, r = opt.realization_constraints(tree)
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
    assert perturbed.value >= exact.value - 1e-12
    assert perturbed.value == pytest.approx(exact.value, abs=1e-3)
    assert np.all(perturbed.certificate.entries >= eps - 1e-9)


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
        tree = ref_build_game_tree(d)
        result = opt.optimal_mixed_strategy(d)
        assert result.value == pytest.approx(backward_induction(tree.root), abs=1e-7)


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
        tree = opt.build_game_tree(d)
        plan = opt.pure_plan(tree, s)
        R, r = opt.realization_constraints(tree)
        assert np.allclose(R @ plan.entries, r, atol=1e-9)
        assert set(np.round(plan.entries, 9)) <= {0.0, 1.0}
        a = opt.reduced_objective(tree)
        assert float(a @ plan.entries) == pytest.approx(
            dg.expected_cost(d, s), abs=1e-9
        )


def test_simplex_optimal_against_plan_enumeration():
    """On small trees, the LP value matches the best of all 0/1 plans."""
    rng = random.Random(55)
    checked = 0
    while checked < 10:
        d = random_diagram(rng)
        tree = opt.build_game_tree(d)
        if not 0 < len(tree.infosets) <= 6:
            continue
        checked += 1
        lp = opt.assemble_lp(tree)
        _, value = opt.solve_lp(lp)
        a = opt.reduced_objective(tree)
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
