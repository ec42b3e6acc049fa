"""Exact checks of reported answers, in ``Fraction`` arithmetic.

``certify_bound`` checks a conditional bound by its optimality
condition, so it needs no enumeration of subsets and holds at any size.
Take the optimistic bound with positive forced mass, and an included
set S of value v = N(S) / D(S), where N and D add p * cost and p over
S.  S is optimal exactly when it holds every optional world costing
below v and none costing above it: then for any set T of positive mass,
N(T) - v D(T) >= N(S) - v D(S) = 0 (Dinkelbach, Mgmt. Sci. 1967).  The
pessimistic bound mirrors it.  With no forced mass, all the mass can sit
on the optional worlds of the extreme cost, so that cost is the bound.

The other checks add up the worlds one at a time: each world's joint is
the chain-rule product of the float entries read as fractions, and
``prob-subsume``'s excluded mass asks each world's restricted TBox.
"""

from fractions import Fraction

from cider import el
from cider.contextual import restrict
from cider.diagram import CHANCE, rowkey

# the report's tolerance: a world costing within it of the bound may
# be in or out, and the reported numbers may miss the exact ones by it
TOL = Fraction(1, 10**9)


def certify_bound(table, forced, probability, sign, result):
    """Raise AssertionError unless result, a ``ConditionalCostResult``
    of the given sign (+1 optimistic, -1 pessimistic), is the bound over
    the worlds' columns, checked exactly."""
    cost = [Fraction(c) for c in table.cost.tolist()]
    p = [Fraction(x) for x in probability.tolist()]
    included = result.included.tolist()
    forced = forced.tolist()
    positive = [x > 0 for x in p]
    optional = [x and not f for x, f in zip(positive, forced)]
    chosen = [i for i, inside in enumerate(included) if inside]
    assert all(positive[i] for i in chosen), "an included world has no mass"
    mass = sum(p[i] for i in chosen)
    if any(f and x for f, x in zip(forced, positive)):
        assert all(included[i] for i, f in enumerate(forced) if f and positive[i]), \
            "a forced world of positive mass is left out"
        value = sum(p[i] * cost[i] for i in chosen) / mass
        for i, opt in enumerate(optional):
            if opt and abs(cost[i] - value) > TOL:
                better = sign * (cost[i] - value) < 0
                assert included[i] == better, (
                    f"world {i} costing {float(cost[i])!r} is "
                    f"{'out' if better else 'in'} at the bound {float(value)!r}")
    else:
        costs = [c for c, opt in zip(cost, optional) if opt]
        assert costs, "no world has positive mass"
        value = min(costs) if sign > 0 else max(costs)
        assert all(cost[i] == value for i in chosen), "an included world is not extreme"
        assert result.value == value, f"{result.value!r} is not the extreme cost {value}"
    assert abs(Fraction(result.value) - value) <= TOL, \
        f"value {result.value!r}, exactly {float(value)!r}"
    assert abs(Fraction(result.evidence_probability) - mass) <= TOL, \
        f"evidence_probability {result.evidence_probability!r}, exactly {float(mass)!r}"


def exact_joint(diagram, strategy):
    """Each world's joint probability under the strategy, in world
    order: the product of its CPT and strategy-table factors."""
    out = []
    for world in diagram.worlds():
        p = Fraction(1)
        for v in diagram.variables:
            if diagram.kinds[v] == CHANCE:
                row = diagram.cpt[v][rowkey(world, diagram.parents.get(v, ()))]
            else:
                local = strategy.locals[v]
                row = local.table[rowkey(world, local.scope)]
            p *= Fraction(row) if world[v] else 1 - Fraction(row)
        out.append(p)
    return out


def exact_cost_distribution(diagram, joint):
    """{cost value: probability of paying it}, given ``exact_joint``."""
    dist = {Fraction(c): Fraction(0) for c in diagram.cost_values}
    for world, p in zip(diagram.worlds(), joint):
        dist[Fraction(diagram.cost_table[rowkey(world, diagram.cost_parents)])] += p
    return dist


def exact_expected_cost(diagram, joint):
    return sum(c * p for c, p in exact_cost_distribution(diagram, joint).items())


def exact_prob_subsumption(kb, joint, c, d):
    """One minus the mass, given ``exact_joint``, of the worlds whose
    restricted TBox does not entail c <= d."""
    entailed = {}
    excluded = Fraction(0)
    for world, p in zip(kb.diagram.worlds(), joint):
        tbox = restrict(kb.vtbox, world)
        if tbox not in entailed:
            entailed[tbox] = el.is_subsumed(tbox, c, d)
        if not entailed[tbox]:
            excluded += p
    return 1 - excluded
