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
"""

from fractions import Fraction

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
