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
    become bit strings only when ``included_worlds`` is read, spelled
    by ``diagram.bit_strings``.  ``cond-cost`` prints the same keys as
    one JSON array from ``diagram.bit_strings_json``.
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
    This is ``_greedy_pass`` run on one row over every world.
    """
    value, mass, included = _greedy_pass(
        table.cost[None], forced[None], probability[None], sign)
    return ConditionalCostResult(
        value=float(value[0]), evidence_probability=float(mass[0]), included=included[0]
    )


def _greedy_pass(cost, forced, probability, sign):
    """The greedy pass on each row of some world matrices: (value,
    evidence probability, included) per row, included being a Boolean
    matrix over the columns.

    A row with a forced world orders its forced worlds first, in column
    order, then its optional worlds by a stable argsort of sign * cost.
    One running sum in that order gives the forced totals, added in
    column order, and every prefix after them.  A row with no forced
    world takes in the optional worlds of the extreme cost, and its
    value is the first such cost (-0.0 ties 0.0); it needs no order.  A
    row with no world of positive probability raises
    UndefinedConditionalError.
    """
    import numpy as np
    positive = probability > 0.0
    forced = forced & positive
    free = ~np.logical_or.reduce(forced, axis=1)  # the rows with no forced world
    n_free = np.count_nonzero(free)
    key = np.where(positive, sign * cost, np.inf)  # costs are finite
    if n_free:
        # all satisfying mass can be concentrated on the extreme-cost worlds
        extreme = np.minimum.reduce(key, axis=1)
        if np.count_nonzero(extreme == np.inf):
            raise UndefinedConditionalError("no world has positive probability")
        ties = key == extreme[:, None]
        first = dg.flat_index(ties.argmax(axis=1)[:, None], key.shape[1])[:, 0]
        # in column order, the columns left out padded with -0.0, the
        # additive identity
        tied = np.add.accumulate(np.where(ties, probability, -0.0), axis=1)[:, -1]
        if n_free == len(free):
            return cost.ravel()[first], tied, ties
        tied_cost = cost.ravel()[first]
    key[forced] = -np.inf
    order = np.argsort(key, axis=1, kind="stable")
    at = dg.flat_index(order, order.shape[1])
    key, cost, probability = key.ravel()[at], cost.ravel()[at], probability.ravel()[at]
    # Column j is in while it is forced or its cost beats the average of
    # the columns before it, as inside[:, j - 1] says; after the first
    # column out none is, and the last entry, past every column, is out.
    inside = np.zeros(key.shape, dtype=bool)
    # Like Python floats the running sums overflow to inf quietly; sums
    # past the stopping point are never used.
    with np.errstate(over="ignore"):
        mass = np.add.accumulate(probability, axis=1)
        weighted = np.add.accumulate(probability * cost, axis=1)
        np.less(key[:, 1:], sign * (weighted[:, :-1] / mass[:, :-1]), out=inside[:, :-1])
        inside[:, :-1] |= key[:, 1:] == -np.inf
        stop = inside.argmin(axis=1) + 1
        last = dg.flat_index(stop[:, None] - 1, key.shape[1])[:, 0]
        mass = mass.ravel()[last]
        value = weighted.ravel()[last] / mass
    included = np.zeros(key.shape, dtype=bool)
    included.ravel()[at[np.arange(key.shape[1]) < stop[:, None]]] = True
    if n_free:
        return (np.where(free, tied_cost, value), np.where(free, tied, mass),
                np.where(free[:, None], ties, included))
    return value, mass, included


def optimistic_expected_cost(kb, strategy, query):
    """Lowest conditional expected cost any model can realize."""
    return greedy_bound(*classify_worlds(kb, strategy, query), +1)


def pessimistic_expected_cost(kb, strategy, query):
    """Highest conditional expected cost any model can realize."""
    return greedy_bound(*classify_worlds(kb, strategy, query), -1)


def brute_force_conditional_bounds(kb, strategy, query):
    """Exact (min, max) conditional expectation over all optional subsets.

    Testing oracle: enumerating subsets suffices because partially
    including a world's mass never beats including all of it or none of
    it in a weighted average.  Refuses beyond ``ORACLE_LIMIT`` optional worlds.
    """
    import numpy as np
    table, forced, probability = classify_worlds(kb, strategy, query)
    forced, optional = _split(forced, probability)
    count = int(np.count_nonzero(optional))
    if count > ORACLE_LIMIT:
        raise ValueError(f"{count} optional worlds exceed the oracle limit {ORACLE_LIMIT}")
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
