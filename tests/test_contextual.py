"""Contexts, world restriction, probabilistic models, and subsumption probability."""

import random

import pytest

from cider import diagram as dg
from cider import el
from cider.cli import main
from cider.contextual import (
    FALSE,
    KnowledgeBase,
    ModelEntry,
    ProbabilisticInterpretation,
    TRUE,
    VGCI,
    Var,
    build_trivial_model,
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
    satisfies_vgci,
)
from cider.el import GCI, ConceptName as N, FiniteInterpretation
from cider.kbfile import load_kb_text

from conftest import (
    bench_specs,
    random_concept,
    random_diagram,
    random_formula,
    random_kb,
    random_strategy,
    reachable_axioms,
)
from el_reference import is_subsumed as reference_is_subsumed

W_EXA = {"D": True, "S": False, "TA": True, "P": False}


def test_entailment_column_on_an_85_axiom_chain():
    """The axioms form a chain A0 <= A1 <= ... <= A85, so every axiom is
    distinct.  Only the first 21 links have contexts over all four
    variables; the last 64 see P alone.  Queries along the chain, near
    its start and its end, match the per-world reference."""
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
    mixed = 0
    for i, j in [(0, 1), (0, 2), (5, 7), (19, 21), (40, 42), (79, 81), (83, 85)]:
        lhs, rhs = N(f"A{i}"), N(f"A{j}")
        column = entailment_column(kb, table, lhs, rhs)
        assert column.tolist() == [
            reference_is_subsumed(restrict(vtbox, w), lhs, rhs) for w in worlds
        ]
        mixed += 0 < column.sum() < table.size
    assert mixed >= 3


def per_world_column(kb, c, d):
    """Whether each world's restricted TBox entails c <= d, world by world,
    by the normalize-and-saturate reference, memoized by the restricted
    TBox."""
    held = {}
    return [
        held[t] if t in held else held.setdefault(t, reference_is_subsumed(t, c, d))
        for t in (restrict(kb.vtbox, w) for w in kb.diagram.worlds())
    ]


def fired_axioms(kb, c, d):
    """The axioms whose left side the one-group completion over every
    axiom of the KB derives in some context, in vtbox order."""
    subsumers = el._completion([(a.gci, 1) for a in kb.vtbox], 1, c, d)
    return [a for a in kb.vtbox if any(a.gci.lhs in s for s in subsumers.values())]


def test_entailment_column_matches_per_world_reference_on_random_kbs():
    """The axioms that fire are among those reachable from sig(c), and
    are fewer in some cases: reaching an axiom's names does not derive
    its left side."""
    rng = random.Random(2008)
    mixed = pruned = fewer = 0
    for _ in range(4000):
        kb = random_kb(rng)
        c, d = random_concept(rng), random_concept(rng)
        table = dg.WorldTable(kb.diagram)
        column = entailment_column(kb, table, c, d).tolist()
        assert column == per_world_column(kb, c, d), (kb.vtbox, c, d)
        reachable = reachable_axioms(kb.vtbox, c)
        fired = fired_axioms(kb, c, d)
        assert all(a in reachable for a in fired), (kb.vtbox, c, d)
        mixed += 0 < sum(column) < table.size
        pruned += len(reachable) < len(kb.vtbox)
        fewer += len(fired) < len(reachable)
    assert mixed >= 100
    assert pruned >= 100
    assert fewer >= 40
    # 2 to 128 worlds: masks below, at and past one byte and one 64-bit word
    for n_vars in (1, 5, 6, 7):
        mixed = 0
        for _ in range(300):
            kb = random_kb(rng, random_diagram(rng, n_vars=n_vars))
            c, d = random_concept(rng), random_concept(rng)
            table = dg.WorldTable(kb.diagram)
            column = entailment_column(kb, table, c, d).tolist()
            assert column == per_world_column(kb, c, d), (kb.vtbox, c, d)
            mixed += 0 < sum(column) < table.size
        assert mixed >= 5, n_vars


def test_entailment_column_matches_per_world_reference_on_the_benchmark_kbs():
    """Every generated KB of every workload with each of its query pairs;
    the reference decides each world's restriction."""
    columns = []
    for spec in bench_specs((1, 3, 5)):
        kb = load_kb_text(spec.to_yaml()).kb
        table = dg.WorldTable(kb.diagram)
        for lhs, rhs in spec.concept_pairs:
            c, d = el.parse_concept(lhs), el.parse_concept(rhs)
            column = entailment_column(kb, table, c, d).tolist()
            assert column == per_world_column(kb, c, d), (spec.name, lhs, rhs)
            columns.append(sum(column) / len(column))
    assert any(share == 0 for share in columns)
    assert any(0 < share < 1 for share in columns)


def _two_variable_kb(*axioms):
    """A KB over chance variables X and Y from (lhs, rhs, context) texts."""
    variables = ("X", "Y")
    diagram = dg.InfluenceDiagram(
        variables=variables,
        kinds=dict.fromkeys(variables, dg.CHANCE),
        parents=dict.fromkeys(variables, ()),
        cpt=dict.fromkeys(variables, {"": 0.5}),
        cost_parents=(),
        cost_table={"": 0.0},
    )
    vtbox = tuple(
        VGCI(GCI(el.parse_concept(lhs), el.parse_concept(rhs)), parse_formula(context))
        for lhs, rhs, context in axioms
    )
    return KnowledgeBase(diagram=diagram, vtbox=vtbox)


@pytest.mark.parametrize(
    "axioms, query, held, calls",
    [
        # a left side of top fires for any query
        ([("top", "A", "X")], ("B", "A"), "0011", 2),
        # (some r A) <= B fires only where (some r A) is derived
        ([("(some r A)", "B", "X")], ("A", "B"), "0000", 1),
        ([("(some r A)", "B", "X")], ("(some r A)", "B"), "0011", 2),
        ([("A", "(some r A)", "Y"), ("(some r A)", "B", "X")], ("A", "B"), "0001", 2),
        # a chain through a right side
        ([("A", "(some r B)", "X"), ("(some r B)", "C", "Y")], ("A", "C"), "0001", 2),
        ([("(some r B)", "C", "Y"), ("A", "(some r B)", "X")], ("A", "C"), "0001", 2),
        # one GCI under two contexts: either context labels it
        ([("A", "B", "X"), ("A", "B", "Y")], ("A", "B"), "0111", 2),
        # the filler B is opened for the groups of the first route to
        # (some r B), and what B derives must reach the second route's
        ([("A", "(some r B)", "X"), ("A", "(some r B)", "Y"), ("B", "C", "true"),
          ("(some r C)", "D", "true")], ("A", "D"), "0111", 2),
        # every name of (and A C) is reached, but C is derived only in
        # the context of the filler, never beside A: the axiom never
        # fires, so only X's truth splits the worlds
        ([("A", "B", "X"), ("A", "(some r C)", "true"), ("(and A C)", "B", "Y")],
         ("A", "B"), "0011", 2),
    ],
    ids=["top", "role-unreached", "role-in-query", "role-reached",
         "chain", "chain-reversed", "twice", "filler-two-routes", "reached-not-fired"],
)
def test_entailment_column_edge_cases(completions, axioms, query, held, calls):
    """Worlds in order XY = 00, 01, 10, 11; calls counts completions:
    the one-group pass, and the labelled pass where that one entails."""
    kb = _two_variable_kb(*axioms)
    c, d = (el.parse_concept(text) for text in query)
    expected = per_world_column(kb, c, d)
    assert "".join("1" if h else "0" for h in expected) == held
    column = entailment_column(kb, dg.WorldTable(kb.diagram), c, d)
    assert column.tolist() == expected
    assert len(completions) == calls


def chain_kb_text(n):
    """Root chance variables V0..V(n-1), each true with 0.5, and the
    axioms A(i) <= A(i+1) under context V(i): every world has its own
    restriction, and A0 <= An holds only in the world where all hold."""
    variables = [f"V{i}" for i in range(n)]
    return "".join([
        f"variables: [{', '.join(variables)}]\nnodes:\n",
        *(f"  {v}: {{kind: chance, parents: [], cpt: {{'': 0.5}}}}\n" for v in variables),
        "cost: {parents: [], table: {'': 0}}\ntbox:\n",
        *(f"  - {{lhs: A{i}, rhs: A{i + 1}, context: V{i}}}\n" for i in range(n)),
        "strategies: {none: {}}\n",
    ])


@pytest.mark.parametrize("n", [12, 20])
def test_entailment_column_decides_a_chain_in_two_completions(completions, n):
    """One completion per query, not per restriction: the one-group pass
    and one pass labelled with all 2^n groups, up to the world cap."""
    kb = load_kb_text(chain_kb_text(n)).kb
    table = dg.WorldTable(kb.diagram)
    column = entailment_column(kb, table, N("A0"), N(f"A{n}"))
    assert completions == [1, (1 << 2**n) - 1]
    assert column.nonzero()[0].tolist() == [table.size - 1]


def test_prob_subsume_on_a_chain(capsys, tmp_path):
    path = tmp_path / "chain12.kb"
    path.write_text(chain_kb_text(12))
    assert main(["query", str(path), "prob-subsume", "--strategy", "none", "A0", "A12"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "  probability: 0.000244140625"


def test_queries_on_one_world(capsys, tmp_path):
    """With no variables the table has one world, the empty bit string,
    and a mask one bit wide."""
    path = tmp_path / "one_world.kb"
    path.write_text(
        "variables: []\n"
        "nodes: {}\n"
        "cost: {parents: [], table: {'': 3}}\n"
        "tbox:\n"
        "  - {lhs: A, rhs: B, context: true}\n"
        "strategies: {none: {}}\n"
    )
    query = ["query", str(path)]
    assert main([*query, "prob-subsume", "--strategy", "none", "A", "B"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "  probability: 1"
    assert main([*query, "cond-cost", "--strategy", "none", "--mode", "opt", "A", "B"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        '  conditional: {"value": 3, "evidence_probability": 1, "included_worlds": [""]}'
    )


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
        if reference_is_subsumed(restrict(kb.vtbox, w), c, d):
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


def test_kb_validate_flags_undeclared_context_variable(idelium):
    kb = KnowledgeBase(
        diagram=idelium.kb.diagram,
        vtbox=idelium.kb.vtbox + (VGCI(GCI(N("A"), N("B")), Var("Zed")),),
    )
    assert any("undeclared" in v.message for v in kb.validate())
