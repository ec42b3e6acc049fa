"""Contexts, world restriction, probabilistic models, and subsumption probability."""

import random

import pytest

from cider import diagram as dg
from cider import el
from cider.contextual import (
    FALSE,
    KnowledgeBase,
    ModelEntry,
    ProbabilisticInterpretation,
    TRUE,
    VGCI,
    Var,
    build_trivial_model,
    context_size_cost,
    entailment_column,
    eval_context,
    is_consistent_with,
    is_model,
    is_tbox_model,
    parse_formula,
    print_formula,
    prob_subsumption,
    prob_subsumption_in_model,
    restrict,
    restriction_groups,
    satisfies_vgci,
)
from cider.el import GCI, ConceptName as N, FiniteInterpretation
from cider.fixtures import load_fixture_kb

from conftest import random_formula, random_kb, random_strategy

W_EXA = {"D": True, "S": False, "TA": True, "P": False}


def test_restriction_groups_past_two_renumberings():
    """85 axioms: the packed truth-vector key is renumbered densely at
    axioms 40 and 80.  The axioms form a chain A0 <= A1 <= ... <= A85,
    so every axiom is distinct and each group is one distinct
    restriction.  Only the first 21 links have contexts over all four
    variables; the last 64 see P alone, so packing all 85 bits into one
    64-bit key without renumbering would drop the bits that tell most
    worlds apart."""
    rng = random.Random(7)
    variables = ("P", "Q", "R", "S")
    diagram = dg.InfluenceDiagram(
        variables=variables,
        kinds=dict.fromkeys(variables, dg.CHANCE),
        parents=dict.fromkeys(variables, ()),
        cpt=dict.fromkeys(variables, {"": 0.5}),
        cost_parents=(),
        cost_table={"": 0.0},
    )
    vtbox = tuple(
        VGCI(
            gci=GCI(N(f"A{i}"), N(f"A{i + 1}")),
            context=random_formula(rng, variables if i < 21 else ("P",)),
        )
        for i in range(85)
    )
    kb = KnowledgeBase(diagram=diagram, vtbox=vtbox)
    table = dg.WorldTable(diagram)
    worlds = list(diagram.worlds())
    tboxes, group = restriction_groups(vtbox, table)
    assert [tboxes[g] for g in group.tolist()] == [restrict(vtbox, w) for w in worlds]
    assert len(set(tboxes)) == len(tboxes) > 1
    mixed = 0
    for i, j in [(0, 1), (0, 2), (5, 7), (19, 21), (40, 42), (79, 81), (83, 85)]:
        lhs, rhs = N(f"A{i}"), N(f"A{j}")
        column = entailment_column(kb, table, lhs, rhs)
        assert column.tolist() == [el.is_subsumed(restrict(vtbox, w), lhs, rhs) for w in worlds]
        mixed += 0 < column.sum() < table.size
    assert mixed >= 3


def test_parse_formula_roundtrip():
    rng = random.Random(3)
    for _ in range(200):
        f = random_formula(rng, ("D", "S", "TA", "P"), depth=3)
        assert parse_formula(print_formula(f)) == f


def test_parse_formula_cases():
    assert parse_formula("true") == TRUE
    assert parse_formula("(and (not P) (not S))") is not None
    with pytest.raises(el.ParseError):
        parse_formula("(nand A B)")


def test_eval_context_examples():
    assert eval_context(W_EXA, parse_formula("(and (not P) (not S))"))
    assert eval_context(W_EXA, TRUE)
    assert not eval_context(W_EXA, parse_formula("(or S P)"))


def test_restrict_at_example_world(idelium):
    restricted = restrict(idelium.kb.vtbox, W_EXA)
    assert restricted == frozenset(
        {
            GCI(N("Subject"), N("Infectious")),
            GCI(N("Control"), N("Benefits")),
            GCI(N("Subject"), N("Safe")),
        }
    )


def test_restrict_degenerate_contexts(idelium):
    gcis = [a.gci for a in idelium.kb.vtbox]
    all_false = tuple(VGCI(g, FALSE) for g in gcis)
    assert restrict(all_false, W_EXA) == frozenset()
    all_true = tuple(VGCI(g, TRUE) for g in gcis)
    assert restrict(all_true, W_EXA) == frozenset(gcis)


def test_satisfies_vgci_example_interpretation(idelium):
    # singleton domain with Subject, Infectious, Control populated
    interp = FiniteInterpretation(
        frozenset({"d"}),
        {
            "Subject": frozenset({"d"}),
            "Infectious": frozenset({"d"}),
            "Control": frozenset({"d"}),
        },
        {},
    )
    satisfied = [satisfies_vgci(interp, W_EXA, a) for a in idelium.kb.vtbox]
    assert satisfied == [True, True, True, False, False]
    vacuous = VGCI(GCI(N("Control"), N("Benefits")), FALSE)
    assert satisfies_vgci(interp, W_EXA, vacuous)


def test_probabilistic_interpretation_validates_weights():
    interp = FiniteInterpretation(frozenset({"d"}), {}, {})
    with pytest.raises(ValueError):
        ProbabilisticInterpretation(
            entries=(ModelEntry(interp, {"D": True}, 0.5),)
        )
    with pytest.raises(ValueError):
        ProbabilisticInterpretation(
            entries=(
                ModelEntry(interp, {"D": True}, 1.5),
                ModelEntry(interp, {"D": False}, -0.5),
            )
        )


def test_trivial_model_is_model(idelium):
    kb = idelium.kb
    for name in ("test_a_if_clear", "uniform"):
        s = idelium.strategy(name)
        pi = build_trivial_model(kb, s)
        assert len(pi.entries) == 16
        assert is_model(pi, kb, s)


def test_trivial_model_random():
    rng = random.Random(41)
    for _ in range(20):
        kb = random_kb(rng)
        s = random_strategy(rng, kb.diagram)
        assert is_model(build_trivial_model(kb, s), kb, s)


def test_trivial_model_deterministic_diagram():
    d = dg.InfluenceDiagram(
        variables=("A", "B"),
        kinds={"A": dg.CHANCE, "B": dg.DECISION},
        parents={"A": (), "B": ("A",)},
        cpt={"A": {"": 1.0}},
        cost_parents=("B",),
        cost_table={"0": 0.0, "1": 1.0},
    )
    s = dg.GlobalStrategy(
        locals={"B": dg.LocalStrategy("B", ("A",), {"0": 0.0, "1": 1.0})}
    )
    kb = KnowledgeBase(diagram=d, vtbox=())
    pi = build_trivial_model(kb, s)
    weights = sorted(e.weight for e in pi.entries)
    assert weights == [0.0, 0.0, 0.0, 1.0]  # one world carries all the mass


def test_inconsistent_weights_rejected_by_is_model(idelium):
    kb = idelium.kb
    s = idelium.strategy("test_a_if_clear")
    pi = build_trivial_model(kb, s)
    entries = list(pi.entries)
    # move 0.1 of mass between two worlds: still a distribution, no longer
    # consistent with the strategy-induced joint
    donor = max(range(len(entries)), key=lambda i: entries[i].weight)
    receiver = min(range(len(entries)), key=lambda i: entries[i].weight)
    entries[donor] = ModelEntry(
        entries[donor].interp, entries[donor].world, entries[donor].weight - 0.1
    )
    entries[receiver] = ModelEntry(
        entries[receiver].interp, entries[receiver].world, entries[receiver].weight + 0.1
    )
    shifted = ProbabilisticInterpretation(entries=tuple(entries))
    assert is_tbox_model(shifted, kb.vtbox)
    assert not is_consistent_with(shifted, kb.diagram, s)
    assert not is_model(shifted, kb, s)


def test_fixture_model_satisfies_tbox_with_its_own_distribution(idelium, idelium_model):
    """The hand-built model is a TBox model; its distribution is its own."""
    assert is_tbox_model(idelium_model.model, idelium.kb.vtbox)
    assert not is_consistent_with(
        idelium_model.model, idelium.kb.diagram, idelium.strategy("test_a_if_clear")
    )


def test_prob_subsumption_in_model_values(idelium_model):
    pi = idelium_model.model
    assert prob_subsumption_in_model(pi, N("Subject"), N("Benefits")) == pytest.approx(
        0.094, abs=1e-9
    )
    assert prob_subsumption_in_model(pi, N("Subject"), N("Safe")) == pytest.approx(
        0.18, abs=1e-9
    )
    assert prob_subsumption_in_model(pi, N("Subject"), N("Subject")) == pytest.approx(
        1.0, abs=1e-12
    )


def test_prob_subsumption_fixture(idelium):
    kb = idelium.kb
    s = idelium.strategy("test_a_if_clear")
    assert prob_subsumption(kb, s, N("Subject"), N("Infectious")) == pytest.approx(
        0.3, abs=1e-9
    )
    assert prob_subsumption(kb, s, N("X"), N("X")) == 1.0
    # strategy makes S-and-TA worlds impossible, so the context never
    # holds with positive mass and the inclusion is vacuously certain
    context = parse_formula("(and S TA)")
    assert prob_subsumption(
        kb, s, N("Subject"), N("Benefits"), context=context
    ) == pytest.approx(1.0, abs=1e-12)


def test_prob_subsumption_equals_per_world_oracle(idelium):
    kb = idelium.kb
    s = idelium.strategy("uniform")
    c, d = N("Subject"), N("Benefits")
    total = 0.0
    for w in kb.diagram.worlds():
        if el.is_subsumed(restrict(kb.vtbox, w), c, d):
            total += dg.joint_probability(kb.diagram, s, w)
    assert prob_subsumption(kb, s, c, d) == pytest.approx(total, abs=1e-12)


def test_prob_subsumption_is_model_infimum(idelium):
    """Any concrete model's probability dominates the closed form."""
    kb = idelium.kb
    s = idelium.strategy("test_a_if_clear")
    pi = build_trivial_model(kb, s)
    for c, d in [
        (N("Subject"), N("Benefits")),
        (N("Subject"), N("Infectious")),
        (N("Control"), N("Distance")),
    ]:
        assert prob_subsumption_in_model(pi, c, d) >= prob_subsumption(
            kb, s, c, d
        ) - 1e-12


def test_prob_subsumption_infimum_is_attained(idelium):
    """A hand-built model drives the probability down to the closed form."""
    kb = idelium.kb
    s = idelium.strategy("test_a_if_clear")
    names = ("Subject", "Infectious", "Control", "Distance", "Benefits", "Safe")
    universal = FiniteInterpretation(
        frozenset({"d"}), {n: frozenset({"d"}) for n in names}, {}
    )
    # satisfies every axiom whose context can hold without D, but not
    # Subject <= Infectious
    uninfected = FiniteInterpretation(
        frozenset({"d"}),
        {n: frozenset({"d"}) for n in names if n != "Infectious"},
        {},
    )
    entries = tuple(
        ModelEntry(
            interp=universal if w["D"] else uninfected,
            world=w,
            weight=dg.joint_probability(kb.diagram, s, w),
        )
        for w in kb.diagram.worlds()
    )
    pi = ProbabilisticInterpretation(entries=entries)
    assert is_model(pi, kb, s)
    c, d = N("Subject"), N("Infectious")
    assert prob_subsumption_in_model(pi, c, d) == pytest.approx(
        prob_subsumption(kb, s, c, d), abs=1e-12
    )


def test_context_size_cost(idelium):
    kb = idelium.kb
    by_axioms = context_size_cost(kb, "axiom-count")
    assert dg.validate(by_axioms) == []
    assert by_axioms.cost_parents == kb.diagram.variables
    w_bits = kb.diagram.bits(W_EXA)
    assert by_axioms.cost_table[w_bits] == 3
    by_names = context_size_cost(kb, "vocabulary-size")
    # restriction at this world mentions Subject, Infectious, Control,
    # Benefits, Safe and no roles
    assert by_names.cost_table[w_bits] == 5
    empty = context_size_cost(KnowledgeBase(diagram=kb.diagram, vtbox=()), "axiom-count")
    assert set(empty.cost_table.values()) == {0}
    assert not by_axioms.forgetful
    assert context_size_cost(load_fixture_kb(forgetful=True).kb).forgetful
    with pytest.raises(ValueError):
        context_size_cost(kb, "nonsense")


def test_kb_validate_flags_undeclared_context_variable(idelium):
    kb = KnowledgeBase(
        diagram=idelium.kb.diagram,
        vtbox=idelium.kb.vtbox + (VGCI(GCI(N("A"), N("B")), Var("Zed")),),
    )
    assert any("undeclared" in v.message for v in kb.validate())
