"""Metamorphic relations: the answers do not depend on how a KB is written.

Each relation rewrites a KB and its strategies and states how every
library answer moves: expected cost and its distribution, the worlds
table, subsumption probability, both conditional bounds, the pure
optimum in both directions, the evidence optima, and the LP value with
and without a fully-mixed bound.  Values are compared within the
report's tolerance; strategies are not compared, since a tie may pick
another one.  Nor is a conditional bound's evidence probability: the
greedy pass takes in a world whose cost equals the running average when
the average rounds below it, so at such a tie the included worlds
follow the rounding (on ``small32`` at seed 1, ``pes`` takes in a
cost-50 world beside forced worlds of cost 50 and leaves it out under
costs 3c + 7).  The KBs are the benchmark's at seed 1 and part of the
random corpus.
"""

import dataclasses
import math
import random

import pytest

from cider import diagram as dg
from cider import el
from cider import evidence as ev
from cider import optimizer as opt
from cider.cli import PROB_TOL
from cider.contextual import FALSE, VGCI, And, Not, Or, Var, prob_subsumption
from cider.kbfile import load_kb_text

from conftest import bench_specs, random_concept

TOL = float(PROB_TOL)
LP_TOL = 1e-7
EPSILON = 0.001


@dataclasses.dataclass(frozen=True)
class Case:
    name: str
    kb: object
    strategies: dict  # name -> GlobalStrategy
    pairs: tuple  # (lhs, rhs) concepts


def _bench_cases():
    out = []
    for spec in bench_specs((1,)):
        doc = load_kb_text(spec.to_yaml())
        pairs = tuple((el.parse_concept(c), el.parse_concept(d)) for c, d in spec.concept_pairs)
        out.append(Case(spec.name, doc.kb, doc.strategies, pairs))
    return out


@pytest.fixture(scope="module")
def originals(random_kb_corpus):
    """(case, its answers) for every benchmark KB and 60 random ones."""
    rng = random.Random(71)
    randoms = [
        Case(f"random{i}", kb, {"s": s}, ((random_concept(rng), random_concept(rng)),))
        for i, (kb, s) in enumerate(random_kb_corpus[:60])
    ]
    return [(case, answers(case)) for case in _bench_cases() + randoms]


def _guard(fn):
    """fn's answer, or the name of the error that leaves it undefined."""
    try:
        return fn()
    except (ev.UndefinedConditionalError, opt.InfeasibleEpsilonError) as exc:
        return type(exc).__name__


def answers(case, lp=True):
    """Every answer of the case, keyed by a tuple whose first entry names
    the query; worlds are keyed by the set of variables true in them, so
    the key does not follow the order."""
    kb = case.kb
    table = dg.WorldTable(kb.diagram)
    out = {}
    for name, s in case.strategies.items():
        out["expected", name] = dg.expected_cost(table, s)
        out["distribution", name] = dg.cost_distribution(table, s)
        worlds = (
            frozenset(v for v, bit in zip(kb.diagram.variables, key) if bit == "1")
            for key in dg.row_keys(len(kb.diagram.variables))
        )
        out["worlds", name] = dict(zip(worlds, zip(table.joint(s).tolist(), table.cost.tolist())))
        for c, d in case.pairs:
            query = ev.EvidenceQuery(c, d)
            out["prob", name, c, d] = prob_subsumption(kb, s, c, d)
            for mode, bound in (("opt", ev.optimistic_expected_cost),
                                ("pes", ev.pessimistic_expected_cost)):
                out[mode, name, c, d] = _guard(lambda: bound(kb, s, query).value)
    for direction in ("min", "max"):
        out["pure", direction] = opt.optimal_pure_strategy(kb, direction=direction).value
        query = ev.EvidenceQuery(*case.pairs[0])
        for mode in ("opt", "pes"):
            out["dominant", mode, direction] = _guard(
                lambda: opt.optimal_pure_strategy(kb, query, mode, direction).value
            )
    if lp:
        out["lp",] = opt.optimal_pure_strategy(kb).value
        out["lp", EPSILON] = _guard(
            lambda: opt.optimal_mixed_strategy(kb.diagram, fully_mixed=EPSILON).value
        )
    return out


def assert_close(got, want, where, tol=TOL):
    """Equal structure, numbers within tol, error names equal."""
    if isinstance(want, dict):
        assert got.keys() == want.keys(), where
        for key in want:
            assert_close(got[key], want[key], (where, key), tol)
    elif isinstance(want, tuple):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_close(g, w, (where, i), tol)
    elif isinstance(want, str):
        assert got == want, where
    else:
        assert math.isclose(got, want, rel_tol=0.0, abs_tol=tol), (where, got, want)


def assert_same(got, want, name):
    """Every answer in got is the one in want; the fully-mixed LP value
    within LP_TOL, every other one within the report's tolerance."""
    for key in got:
        assert_close(got[key], want[key], (name, key), LP_TOL if key == ("lp", EPSILON) else TOL)


# --- rewrites ------------------------------------------------------------------


def _with(case, diagram=None, vtbox=None, strategies=None):
    kb = dataclasses.replace(
        case.kb,
        diagram=case.kb.diagram if diagram is None else diagram,
        vtbox=case.kb.vtbox if vtbox is None else vtbox,
    )
    return dataclasses.replace(case, kb=kb, strategies=strategies or case.strategies)


def permuted(case, order):
    """The case with ``variables:`` in another order; each strategy row
    moves to its key over the decision's scope in the new order."""
    diagram = dataclasses.replace(case.kb.diagram, variables=tuple(order))
    strategies = {}
    for name, s in case.strategies.items():
        locals_ = {}
        for d, local in s.locals.items():
            scope = diagram.scopes[d]
            table = {
                key: local.table[dg.rowkey(dg.world_from_bits(key, scope), local.scope)]
                for key in dg.row_keys(len(scope))
            }
            locals_[d] = dg.LocalStrategy(d, scope, table)
        strategies[name] = dg.GlobalStrategy(locals_)
    return _with(case, diagram=diagram, strategies=strategies)


def with_idle_axiom(case):
    """The case with each query pair added as an axiom under context false."""
    axioms = tuple(VGCI(gci=el.GCI(c, d), context=FALSE) for c, d in case.pairs)
    return _with(case, vtbox=case.kb.vtbox + axioms)


def with_idle_root(case, name="Idle", p_true=0.3):
    """The case with a chance root that nothing depends on, declared last."""
    diagram = case.kb.diagram
    diagram = dataclasses.replace(
        diagram,
        variables=diagram.variables + (name,),
        kinds={**diagram.kinds, name: dg.CHANCE},
        parents={**diagram.parents, name: ()},
        cpt={**diagram.cpt, name: {"": p_true}},
    )
    return _with(case, diagram=diagram)


def renamed_concept(c, new):
    if isinstance(c, el.ConceptName):
        return el.ConceptName(new(c.name))
    if isinstance(c, el.Conjunction):
        return el.Conjunction(renamed_concept(c.left, new), renamed_concept(c.right, new))
    if isinstance(c, el.Existential):
        return el.Existential(new(c.role), renamed_concept(c.filler, new))
    return c  # top


def renamed_formula(f, new):
    if isinstance(f, Var):
        return Var(new(f.name))
    if isinstance(f, Not):
        return Not(renamed_formula(f.arg, new))
    if isinstance(f, (And, Or)):
        return type(f)(renamed_formula(f.left, new), renamed_formula(f.right, new))
    return f  # true or false


def renamed(case, new):
    """The case with every concept, role and variable name n written
    new(n), in the same declaration order; row keys stay as they are."""
    diagram = case.kb.diagram
    diagram = dataclasses.replace(
        diagram,
        variables=tuple(map(new, diagram.variables)),
        kinds={new(v): kind for v, kind in diagram.kinds.items()},
        parents={new(v): tuple(map(new, ps)) for v, ps in diagram.parents.items()},
        cpt={new(v): rows for v, rows in diagram.cpt.items()},
        cost_parents=tuple(map(new, diagram.cost_parents)),
    )
    vtbox = tuple(
        VGCI(
            gci=el.GCI(renamed_concept(a.gci.lhs, new), renamed_concept(a.gci.rhs, new)),
            context=renamed_formula(a.context, new),
        )
        for a in case.kb.vtbox
    )
    strategies = {
        name: dg.GlobalStrategy({
            new(d): dg.LocalStrategy(new(d), tuple(map(new, local.scope)), local.table)
            for d, local in s.locals.items()
        })
        for name, s in case.strategies.items()
    }
    pairs = tuple((renamed_concept(c, new), renamed_concept(d, new)) for c, d in case.pairs)
    kb = dataclasses.replace(case.kb, diagram=diagram, vtbox=vtbox)
    return dataclasses.replace(case, kb=kb, strategies=strategies, pairs=pairs)


def with_costs(case, k, b):
    """The case with every cost c replaced by k * c + b."""
    diagram = case.kb.diagram
    table = {key: k * c + b for key, c in diagram.cost_table.items()}
    return _with(case, diagram=dataclasses.replace(diagram, cost_table=table))


# --- relations -----------------------------------------------------------------


def test_permuting_variables_changes_no_answer(originals):
    """The LP values too: the plain one is the pure optimum, and the
    fully-mixed one is compared where the decisions have perfect recall;
    elsewhere both orders give the same InfeasibleEpsilonError."""
    rng = random.Random(73)
    outcomes = {type(want["lp", EPSILON]) for _, want in originals}
    assert outcomes == {float, str}
    for case, want in originals:
        order = list(case.kb.diagram.variables)
        rng.shuffle(order)
        assert_same(answers(permuted(case, order)), want, case.name)


def test_an_axiom_under_false_changes_nothing(originals):
    for case, want in originals:
        assert_same(answers(with_idle_axiom(case)), want, case.name)


def test_a_childless_chance_root_declared_last_changes_nothing(originals):
    """Every world splits in two, with the root false and true, at the
    same cost; everything else stays."""
    p_true = 0.3
    for case, want in originals:
        expected = dict(want)
        for key in want:
            if key[0] == "worlds":
                expected[key] = {}
                for world, (p, cost) in want[key].items():
                    expected[key][world] = (p * (1.0 - p_true), cost)
                    expected[key][world | {"Idle"}] = (p * p_true, cost)
        assert_same(answers(with_idle_root(case, p_true=p_true)), expected, case.name)


def test_renaming_every_name_changes_no_answer(originals):
    """Names are reversed behind a prefix, so their sorted order changes
    too; the query concepts and the worlds' variables are renamed in the
    expected answers."""
    def new(name):
        return "Q" + name[::-1]

    def renamed_key(key):
        return tuple(renamed_concept(x, new) if isinstance(x, el.Concept) else x for x in key)

    for case, want in originals:
        expected = {}
        for key, value in want.items():
            if key[0] == "worlds":
                value = {frozenset(map(new, w)): pc for w, pc in value.items()}
            expected[renamed_key(key)] = value
        got = answers(renamed(case, new))
        assert got.keys() == expected.keys(), case.name
        assert_same(got, expected, case.name)


def affine_answers(want, k, b):
    """The answers that costs k c + b should give: cost values move as
    the costs, with min and max, and opt and pes, swapped when k < 0;
    probabilities stay."""
    swap = {"min": "max", "max": "min", "opt": "pes", "pes": "opt"} if k < 0 else {}
    out = {}
    for key, value in want.items():
        kind = key[0]
        if kind == "prob":
            out[key] = value
        elif kind == "distribution":
            out[key] = {k * c + b: p for c, p in value.items()}
        elif kind == "worlds":
            out[key] = {w: (p, k * c + b) for w, (p, c) in value.items()}
        else:
            if kind in ("opt", "pes"):
                value = want[(swap.get(kind, kind),) + key[1:]]
            elif kind in ("pure", "dominant"):
                value = want[(kind,) + tuple(swap.get(x, x) for x in key[1:])]
            out[key] = value if isinstance(value, str) else k * value + b
    return out


@pytest.mark.parametrize("k, b", [(3.0, 7.0), (-2.0, 5.0)])
def test_an_affine_cost_map_moves_values_and_not_probabilities(originals, k, b):
    """The LP only minimizes, so its value is checked for k > 0 only."""
    for case, want in originals:
        got = answers(with_costs(case, k, b), lp=k > 0)
        assert_same(got, affine_answers(want, k, b), case.name)
