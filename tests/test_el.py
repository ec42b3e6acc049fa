"""Concept parsing, the subsumption suite, and the completion's agreement
with the normalize-and-saturate reference, whose own tests are here too."""

import random

import pytest

from cider.contextual import restrict
from cider.el import (
    GCI,
    Conjunction,
    ConceptName,
    Existential,
    FiniteInterpretation,
    ParseError,
    TOP,
    _completion,
    check_gci_on_interpretation,
    is_subsumed,
    parse_concept,
    print_concept,
)
from cider.kbfile import load_kb_text

from conftest import bench_specs, random_concept, random_tbox
from el_reference import FreshName, normal_form_of, normalize, saturate
from el_reference import is_subsumed as reference_is_subsumed


def N(name):
    return ConceptName(name)


def C(text):
    return parse_concept(text)


# --- parsing ----------------------------------------------------------------


def test_parse_base_cases():
    assert parse_concept("top") == TOP
    assert parse_concept("(and Subject Control)") == Conjunction(N("Subject"), N("Control"))
    assert parse_concept("(some hasColor Green)") == Existential("hasColor", N("Green"))


def test_parse_nesting():
    c = parse_concept("(and (some r (and A top)) B)")
    assert c == Conjunction(Existential("r", Conjunction(N("A"), TOP)), N("B"))


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "(and A)",
        "(and A B",
        "(or A B)",
        "(some r)",
        "_nope",
        "(and A  B)x",
        "A B",
        "(And A B)",
    ],
)
def test_parse_errors_carry_position(bad):
    with pytest.raises(ParseError) as err:
        parse_concept(bad)
    assert err.value.position >= 0


def test_print_roundtrip_random():
    rng = random.Random(7)
    for _ in range(200):
        c = random_concept(rng, depth=3)
        assert parse_concept(print_concept(c)) == c


def test_printed_equality_is_structural_equality():
    a = parse_concept("(and A B)")
    b = parse_concept("(and B A)")
    assert a != b
    assert print_concept(a) != print_concept(b)


def test_concept_name_rejects_reserved():
    with pytest.raises(ValueError):
        ConceptName("top")
    with pytest.raises(ValueError):
        ConceptName("_private")
    with pytest.raises(ValueError):
        ConceptName("_n12")


# --- normalization (the reference) ------------------------------------------


def test_normalize_empty():
    assert normalize([]).axioms == ()


def test_normalize_existential_conjunction():
    ntbox = normalize([GCI(N("A"), C("(some r (and B C))"))])
    fresh = [n for n in ntbox.name_map if n.startswith("_n")]
    assert len(fresh) == 1
    x = FreshName(fresh[0])
    assert set(ntbox.axioms) == {
        GCI(N("A"), Existential("r", x)),
        GCI(x, N("B")),
        GCI(x, N("C")),
    }
    assert ntbox.name_map[fresh[0]] == Conjunction(N("B"), N("C"))


def test_normalize_fixpoint_on_normal_forms():
    axioms = [
        GCI(Conjunction(N("A"), N("B")), N("C")),
        GCI(N("A"), Existential("r", N("B"))),
        GCI(Existential("r", N("A")), N("B")),
        GCI(N("A"), TOP),
    ]
    ntbox = normalize(axioms)
    assert set(ntbox.axioms) == set(axioms)
    assert not ntbox.name_map


def test_normalize_output_is_normal():
    rng = random.Random(11)
    for _ in range(100):
        ntbox = normalize(random_tbox(rng))
        for gci in ntbox.axioms:
            assert normal_form_of(gci) is not None


def test_normalize_conservative():
    rng = random.Random(13)
    names = [N(x) for x in ("A", "B", "C", "E", "F")]
    for _ in range(60):
        tbox = random_tbox(rng)
        ntbox = normalize(tbox)
        as_tbox = ntbox.to_tbox()
        for a in names:
            for b in names:
                assert is_subsumed(tbox, a, b) == is_subsumed(as_tbox, a, b)


# --- saturation (the reference) ---------------------------------------------


def test_saturate_empty_is_reflexive():
    index = saturate(normalize([GCI(N("A"), N("A")), GCI(N("B"), N("B"))]))
    for name in ("A", "B"):
        assert index.holds(name, name)
        assert index.holds(name, "top")


def test_saturate_transitivity():
    index = saturate(normalize([GCI(N("A"), N("B")), GCI(N("B"), N("C"))]))
    assert index.holds("A", "C")


def test_saturate_existential_propagation():
    index = saturate(
        normalize(
            [
                GCI(N("A"), C("(some r B)")),
                GCI(N("B"), N("C")),
                GCI(C("(some r C)"), N("E")),
            ]
        )
    )
    assert index.holds("A", "E")
    assert ("r", "B") in index.successors["A"]


# --- the hand-derived subsumption suite ------------------------------------

EXA_RESTRICTED = [
    GCI(N("Subject"), N("Infectious")),
    GCI(N("Control"), N("Benefits")),
    GCI(N("Subject"), N("Safe")),
]

SYMPTOMATIC_RESTRICTED = [
    GCI(N("Subject"), N("Control")),
    GCI(N("Control"), N("Distance")),
    GCI(N("Control"), N("Benefits")),
]

SUITE = [
    # (tbox, lhs, rhs, expected)
    ([], "A", "A", True),
    ([], "A", "top", True),
    ([], "top", "A", False),
    ([], "(and A B)", "A", True),
    ([], "(and A B)", "(and B A)", True),
    ([], "A", "(and A A)", True),
    ([], "A", "(some r A)", False),
    ([GCI(N("A"), N("B"))], "A", "B", True),
    ([GCI(N("A"), N("B"))], "B", "A", False),
    ([GCI(N("A"), N("B")), GCI(N("B"), N("C"))], "A", "C", True),
    ([GCI(N("A"), C("(and B C)"))], "A", "B", True),
    ([GCI(N("A"), N("B")), GCI(N("A"), N("C"))], "A", "(and B C)", True),
    ([GCI(C("(and A B)"), N("C"))], "A", "C", False),
    ([GCI(C("(and A B)"), N("C"))], "(and A B)", "C", True),
    ([GCI(C("(and A B)"), N("C"))], "(and B A)", "C", True),
    ([GCI(N("A"), C("(some r B)"))], "A", "(some r top)", True),
    ([GCI(N("A"), C("(some r B)"))], "A", "(some s B)", False),
    ([GCI(N("A"), C("(some r (and B C))"))], "A", "(some r B)", True),
    (
        [GCI(C("(some r B)"), N("C")), GCI(N("A"), C("(some r (and B E))"))],
        "A",
        "C",
        True,
    ),
    ([GCI(TOP, N("A"))], "B", "A", True),
    ([GCI(N("A"), C("(some r A)"))], "A", "(some r (some r A))", True),
    ([GCI(N("A"), C("(some r B)")), GCI(N("B"), N("C"))], "A", "(some r C)", True),
    ([GCI(N("A"), N("C")), GCI(C("(and C B)"), N("E"))], "(and A B)", "E", True),
    (EXA_RESTRICTED, "Subject", "Infectious", True),
    (EXA_RESTRICTED, "Subject", "Control", False),
    (EXA_RESTRICTED, "Subject", "Safe", True),
    (EXA_RESTRICTED, "Control", "Benefits", True),
    (EXA_RESTRICTED, "Subject", "Benefits", False),
    (SYMPTOMATIC_RESTRICTED, "Subject", "Distance", True),
    (SYMPTOMATIC_RESTRICTED, "Subject", "Benefits", True),
    (SYMPTOMATIC_RESTRICTED, "Subject", "Safe", False),
    # a filler context that no left-hand side names
    ([GCI(N("A"), C("(some r (and B C))")), GCI(C("(some r B)"), N("E"))], "A", "E", True),
    (
        [GCI(N("A"), C("(some r (and B C))")), GCI(C("(some r (and C B))"), N("E"))],
        "A",
        "E",
        True,
    ),
    ([GCI(N("A"), C("(some r (and B C))")), GCI(C("(some r E)"), N("F"))], "A", "F", False),
    # (some r top) on a left-hand side
    ([GCI(C("(some r top)"), N("B"))], "(some r A)", "B", True),
    ([GCI(C("(some r top)"), N("B")), GCI(N("A"), C("(some r C)"))], "A", "B", True),
    ([GCI(C("(some r top)"), N("B")), GCI(N("A"), C("(some s C)"))], "A", "B", False),
    # a cycle
    ([GCI(N("A"), C("(some r A)")), GCI(C("(some r A)"), N("B"))], "A", "B", True),
    ([GCI(N("A"), C("(some r A)")), GCI(C("(some r A)"), N("B"))], "A", "(some r B)", True),
    ([GCI(N("A"), C("(some r A)")), GCI(C("(some r A)"), N("B"))], "B", "A", False),
    # a complex right-hand side absent from the TBox
    (
        [GCI(N("A"), N("B")), GCI(N("A"), C("(some r C)"))],
        "A",
        "(and B (some r (and C top)))",
        True,
    ),
    ([GCI(N("A"), C("(some r C)"))], "A", "(some r (and C B))", False),
    # an existential or top as the query's left-hand side
    ([GCI(N("B"), N("C"))], "(some r B)", "(some r C)", True),
    ([GCI(N("A"), N("B"))], "(some r A)", "B", False),
    ([GCI(TOP, C("(some r A)"))], "top", "(some r top)", True),
    ([GCI(TOP, N("A"))], "top", "(and A top)", True),
    ([GCI(N("A"), N("B"))], "top", "(some r top)", False),
]


@pytest.mark.parametrize("tbox,lhs,rhs,expected", SUITE)
def test_subsumption_suite(tbox, lhs, rhs, expected):
    assert is_subsumed(tbox, C(lhs), C(rhs)) is expected


# recorded countermodels for the suite's negative cases: each models the
# TBox while separating the pair, so a "true" answer would be unsound
COUNTERMODELS = [
    (
        [],
        "top",
        "A",
        FiniteInterpretation(frozenset({"x"}), {}, {}),
    ),
    (
        [GCI(N("A"), N("B"))],
        "B",
        "A",
        FiniteInterpretation(frozenset({"x"}), {"B": frozenset({"x"})}, {}),
    ),
    (
        [GCI(C("(and A B)"), N("C"))],
        "A",
        "C",
        FiniteInterpretation(frozenset({"x"}), {"A": frozenset({"x"})}, {}),
    ),
    (
        [GCI(N("A"), C("(some r B)"))],
        "A",
        "(some s B)",
        FiniteInterpretation(
            frozenset({"x", "y"}),
            {"A": frozenset({"x"}), "B": frozenset({"y"})},
            {"r": frozenset({("x", "y")})},
        ),
    ),
    (
        EXA_RESTRICTED,
        "Subject",
        "Control",
        FiniteInterpretation(
            frozenset({"x"}),
            {
                "Subject": frozenset({"x"}),
                "Infectious": frozenset({"x"}),
                "Safe": frozenset({"x"}),
            },
            {},
        ),
    ),
]


@pytest.mark.parametrize("tbox,lhs,rhs,interp", COUNTERMODELS)
def test_negative_cases_have_countermodels(tbox, lhs, rhs, interp):
    for axiom in tbox:
        assert check_gci_on_interpretation(interp, axiom)
    assert not check_gci_on_interpretation(interp, GCI(C(lhs), C(rhs)))
    assert not is_subsumed(tbox, C(lhs), C(rhs))


# --- model checking ---------------------------------------------------------


def test_check_gci_on_singleton():
    both = FiniteInterpretation(
        frozenset({"d"}),
        {"Sub": frozenset({"d"}), "Inf": frozenset({"d"})},
        {},
    )
    assert check_gci_on_interpretation(both, GCI(N("Sub"), N("Inf")))
    con_only = FiniteInterpretation(
        frozenset({"d"}), {"Con": frozenset({"d"})}, {}
    )
    assert not check_gci_on_interpretation(con_only, GCI(N("Con"), N("Ben")))
    assert check_gci_on_interpretation(con_only, GCI(N("Con"), TOP))


def test_interpretation_rejects_stray_elements():
    with pytest.raises(ValueError):
        FiniteInterpretation(frozenset({"d"}), {"A": frozenset({"e"})}, {})


def test_extension_of_existential():
    interp = FiniteInterpretation(
        frozenset({"x", "y", "z"}),
        {"Green": frozenset({"y"})},
        {"hasColor": frozenset({("x", "y"), ("z", "z")})},
    )
    assert interp.extension(C("(some hasColor Green)")) == {"x"}


# --- whole-suite properties -------------------------------------------------


def random_interpretation(rng, size=3):
    domain = frozenset(f"e{i}" for i in range(rng.randint(1, size)))
    concept_ext = {
        name: frozenset(x for x in domain if rng.random() < 0.5)
        for name in ("A", "B", "C", "E", "F")
    }
    role_ext = {
        role: frozenset(
            (x, y) for x in domain for y in domain if rng.random() < 0.3
        )
        for role in ("r", "s")
    }
    return FiniteInterpretation(domain, concept_ext, role_ext)


def test_derivations_sound_on_random_finite_models():
    """Semantic cross-check: any finite model of the TBox must satisfy
    every subsumption the completion derives."""
    rng = random.Random(271)
    probes = 0
    while probes < 300:
        tbox = random_tbox(rng, max_axioms=3)
        interp = random_interpretation(rng)
        if not all(check_gci_on_interpretation(interp, a) for a in tbox):
            continue
        probes += 1
        c, d = random_concept(rng), random_concept(rng)
        if is_subsumed(tbox, c, d):
            assert check_gci_on_interpretation(interp, GCI(c, d))


def test_reflexivity_top_monotonicity_on_random_tboxes():
    rng = random.Random(99)
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


# --- agreement with the reference -------------------------------------------


def test_completion_agrees_with_the_reference_on_random_tboxes():
    rng = random.Random(2005)
    answers = []
    for _ in range(5000):
        tbox = random_tbox(rng, max_axioms=10)
        c = random_concept(rng, depth=rng.randint(0, 3))
        d = random_concept(rng, depth=rng.randint(0, 3))
        expected = reference_is_subsumed(tbox, c, d)
        assert is_subsumed(tbox, c, d) is expected, (tbox, c, d)
        answers.append(expected)
    assert set(answers) == {True, False}


@pytest.mark.parametrize("n_groups, draws", [(1, 1500), (3, 800), (70, 120)])
def test_labelled_completion_agrees_with_the_reference_per_group(n_groups, draws):
    """Each axiom of a random TBox is labelled with a random set of
    groups, and some axioms appear twice under two labels, as one GCI
    does under two contexts; bit g of the labelled completion's answer
    is the reference's answer over the axioms labelled with g.  70
    groups make a mask wider than a machine word."""
    rng = random.Random(2012 + n_groups)
    full = (1 << n_groups) - 1
    masks = set()
    for _ in range(draws):
        tbox = sorted(random_tbox(rng, max_axioms=8), key=repr)
        tbox += rng.sample(tbox, rng.randint(0, len(tbox)))
        labels = [rng.getrandbits(n_groups) for _ in tbox]
        c = random_concept(rng, depth=rng.randint(0, 3))
        d = random_concept(rng, depth=rng.randint(0, 3))
        held = _completion(list(zip(tbox, labels)), full, c, d)[c].get(d, 0)
        for g in range(n_groups):
            group_tbox = [gci for gci, label in zip(tbox, labels) if label >> g & 1]
            expected = reference_is_subsumed(group_tbox, c, d)
            assert bool(held >> g & 1) is expected, (tbox, labels, c, d, g)
        masks.add(0 if held == 0 else full if held == full else -1)
    assert masks == ({0, full} if n_groups == 1 else {0, -1, full})


def test_completion_agrees_with_the_reference_on_the_benchmark_kbs():
    """Every distinct restricted TBox of every generated KB, with each of
    the KB's query pairs."""
    answers = []
    for spec in bench_specs((1, 3, 5)):
        kb = load_kb_text(spec.to_yaml()).kb
        tboxes = {restrict(kb.vtbox, w) for w in kb.diagram.worlds()}
        for lhs, rhs in spec.concept_pairs:
            c, d = C(lhs), C(rhs)
            for tbox in tboxes:
                expected = reference_is_subsumed(tbox, c, d)
                assert is_subsumed(tbox, c, d) is expected, (spec.name, tbox, c, d)
                answers.append(expected)
    # world-queries, strategy-search and small-kbs over the three seeds
    assert len(answers) == 144 + 294 + 1119
    assert set(answers) == {True, False}
