"""Conditional expected cost given an observed subsumption.

Observing that an inclusion holds re-weights the worlds: worlds whose
restricted TBox entails the inclusion must keep their full mass
("forced"), while any other world's satisfying mass can be dialed
anywhere between zero and its full mass by choosing interpretations
("optional").  The tightest bounds on the conditional expected cost are
therefore reached at subsets of the optional worlds, which the greedy
weighted-average pass below finds and the exhaustive subset oracle
verifies.  Both are passes over the world table's columns: the forced
mask, the strategy's joint probability and the cost.
"""

from dataclasses import dataclass

from . import diagram as dg
from . import el
from .contextual import entailment_column

__all__ = [
    "UndefinedConditionalError",
    "EvidenceQuery",
    "ConditionalCostResult",
    "conditional_expectation",
    "classify_worlds",
    "greedy_bound",
    "optimistic_expected_cost",
    "pessimistic_expected_cost",
    "brute_force_conditional_bounds",
]

ORACLE_LIMIT = 20


class UndefinedConditionalError(ValueError):
    """Conditioning on an event of zero probability."""


@dataclass(frozen=True)
class EvidenceQuery:
    """An observed subsumption lhs <= rhs (context implicitly true)."""

    lhs: el.Concept
    rhs: el.Concept


def conditional_expectation(outcomes):
    """Expectation of (probability, cost) outcomes normalized by total mass."""
    total = 0.0
    weighted = 0.0
    for p, c in outcomes:
        total += p
        weighted += p * c
    if total <= 0.0:
        raise UndefinedConditionalError("total probability is zero")
    return weighted / total


def classify_worlds(kb, strategy, query):
    """The world table, its forced column and the strategy's joint column.

    A world is forced iff its restricted TBox entails the query inclusion.
    """
    table = dg.WorldTable(kb.diagram)
    forced = entailment_column(kb, table, query.lhs, query.rhs)
    return table, forced, table.joint(strategy)


@dataclass(frozen=True, eq=False)
class ConditionalCostResult:
    """A conditional bound and the worlds whose full mass attains it.

    ``included`` is a Boolean mask over the world table; the worlds
    become bit strings only when ``included_worlds`` is read.
    """

    value: float
    evidence_probability: float
    included: "np.ndarray"

    @property
    def included_worlds(self):
        """The included worlds as bit strings in declared variable order."""
        return frozenset(dg.bit_strings(self.included))


def _split(forced, probability):
    """Forced and optional masks over the worlds of positive probability."""
    positive = probability > 0.0
    return forced & positive, ~forced & positive


def greedy_bound(table, forced, probability, sign):
    """Shared greedy pass over world columns; sign +1 minimizes, -1 maximizes.

    Forced worlds are always in.  Optional worlds, visited by ascending
    (descending) cost with ties in world order, are included while their
    cost is strictly below (above) the running conditional average as
    computed, the float quotient of the running sums.  A world whose
    cost equals the exact average cannot change the value, but it is
    taken in when the computed average rounds past its cost (above it
    when minimizing, below when maximizing), so the included worlds and
    the evidence probability can follow rounding where the value does
    not.  Running sums add left to right, as a per-world loop adds.
    """
    import numpy as np
    forced, optional = _split(forced, probability)
    cost = table.cost
    if not forced.any():
        if not optional.any():
            raise UndefinedConditionalError("no world has positive probability")
        # all satisfying mass can be concentrated on the extreme-cost worlds
        costs = cost[optional]
        chosen = optional & (cost == (costs.min() if sign > 0 else costs.max()))
        return ConditionalCostResult(
            value=float(cost[chosen][0]),  # the first tied cost: -0.0 ties 0.0
            evidence_probability=table.mass(probability, chosen),
            included=chosen,
        )
    order = np.flatnonzero(optional)
    order = order[np.argsort(sign * cost[order], kind="stable")]
    # Running sums for every prefix of the order, the forced totals first.
    # Like Python floats they overflow to inf quietly; prefixes past the
    # stopping point are never used.
    with np.errstate(over="ignore"):
        weight = probability * cost
        mass = np.add.accumulate(
            np.append(table.mass(probability, forced), probability[order])
        )
        weighted = np.add.accumulate(np.append(table.mass(weight, forced), weight[order]))
        below = sign * cost[order] < sign * (weighted[:-1] / mass[:-1])
    stop = below.size if below.all() else int(below.argmin())
    forced[order[:stop]] = True
    return ConditionalCostResult(
        value=float(weighted[stop] / mass[stop]),
        evidence_probability=float(mass[stop]),
        included=forced,
    )


def optimistic_expected_cost(kb, strategy, query):
    """Lowest conditional expected cost any model can realize."""
    return greedy_bound(*classify_worlds(kb, strategy, query), +1)


def pessimistic_expected_cost(kb, strategy, query):
    """Highest conditional expected cost any model can realize."""
    return greedy_bound(*classify_worlds(kb, strategy, query), -1)


def brute_force_conditional_bounds(kb, strategy, query, limit=ORACLE_LIMIT):
    """Exact (min, max) conditional expectation over all optional subsets.

    Testing oracle: enumerating subsets suffices because partially
    including a world's mass never beats including all of it or none of
    it in a weighted average.  Refuses beyond ``limit`` optional worlds.
    """
    import numpy as np
    table, forced, probability = classify_worlds(kb, strategy, query)
    forced, optional = _split(forced, probability)
    count = int(np.count_nonzero(optional))
    if count > limit:
        raise ValueError(f"{count} optional worlds exceed the oracle limit {limit}")
    if not forced.any() and not count:
        raise UndefinedConditionalError("no world has positive probability")
    weight = probability * table.cost
    # subset sums by doubling: index bit i toggles optional world i
    mass = np.zeros(1)
    weighted = np.zeros(1)
    for p, w in zip(probability[optional].tolist(), weight[optional].tolist()):
        mass = np.concatenate([mass, mass + p])
        weighted = np.concatenate([weighted, weighted + w])
    mass = mass + table.mass(probability, forced)
    weighted = weighted + table.mass(weight, forced)
    values = weighted[mass > 0.0] / mass[mass > 0.0]
    if values.size == 0:
        raise UndefinedConditionalError("no nonempty subset has positive mass")
    return float(values.min()), float(values.max())
