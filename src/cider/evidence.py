"""Conditional expected cost given an observed subsumption.

Observing that an inclusion holds re-weights the worlds: worlds whose
restricted TBox entails the inclusion must keep their full mass
("forced"), while any other world's satisfying mass can be dialed
anywhere between zero and its full mass by choosing interpretations
("optional").  The tightest bounds on the conditional expected cost are
therefore reached at subsets of the optional worlds, which the greedy
weighted-average pass below finds and the exhaustive subset oracle
verifies.
"""

from dataclasses import dataclass

import numpy as np

from . import diagram as dg
from . import el
from .contextual import entailment_column

__all__ = [
    "UndefinedConditionalError",
    "EvidenceQuery",
    "ClassifiedWorld",
    "WorldClassification",
    "ConditionalCostResult",
    "conditional_expectation",
    "classify_worlds",
    "classify_table",
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


@dataclass(frozen=True)
class ClassifiedWorld:
    bits: str
    forced: bool
    probability: float
    cost: float


@dataclass(frozen=True)
class WorldClassification:
    """Per-world forced/optional status with probabilities and costs."""

    worlds: tuple

    @property
    def forced(self):
        return tuple(w for w in self.worlds if w.forced)

    @property
    def optional(self):
        return tuple(w for w in self.worlds if not w.forced)


def classify_worlds(kb, strategy, query):
    """Forced iff the world's restricted TBox entails the query inclusion."""
    table = dg.WorldTable(kb.diagram)
    forced = entailment_column(kb, table, query.lhs, query.rhs)
    return classify_table(table, forced, strategy)


def classify_table(table, forced, strategy):
    """Classification of a table's worlds, given their forced column.

    Forced status does not depend on the strategy, so a search over
    strategies decides it once and classifies each strategy here.
    """
    return WorldClassification(
        worlds=tuple(
            map(
                ClassifiedWorld,
                table.rowkeys(),
                forced.tolist(),
                table.joint(strategy).tolist(),
                table.cost.tolist(),
            )
        )
    )


@dataclass(frozen=True)
class ConditionalCostResult:
    value: float
    included_worlds: frozenset
    evidence_probability: float

    def to_json_dict(self):
        return {
            "value": self.value,
            "evidence_probability": self.evidence_probability,
            "included_worlds": sorted(self.included_worlds),
        }


def _positive(classification):
    forced = [w for w in classification.forced if w.probability > 0.0]
    optional = [w for w in classification.optional if w.probability > 0.0]
    return forced, optional


def greedy_bound(classification, sign):
    """Shared greedy pass; sign +1 minimizes, -1 maximizes.

    Forced worlds are always in.  Optional worlds, visited by ascending
    (descending) cost, are included while strictly below (above) the
    running conditional average; ties are excluded since they cannot
    change the value.
    """
    forced, optional = _positive(classification)
    if not forced and not optional:
        raise UndefinedConditionalError("no world has positive probability")
    if not forced:
        # all satisfying mass can be concentrated on the extreme-cost worlds
        best = min(w.cost for w in optional) if sign > 0 else max(
            w.cost for w in optional
        )
        chosen = [w for w in optional if w.cost == best]
        return ConditionalCostResult(
            value=best,
            included_worlds=frozenset(w.bits for w in chosen),
            evidence_probability=sum(w.probability for w in chosen),
        )
    mass = sum(w.probability for w in forced)
    weighted = sum(w.probability * w.cost for w in forced)
    included = {w.bits for w in forced}
    for w in sorted(optional, key=lambda w: (sign * w.cost, w.bits)):
        if sign * w.cost < sign * (weighted / mass):
            mass += w.probability
            weighted += w.probability * w.cost
            included.add(w.bits)
        else:
            break
    return ConditionalCostResult(
        value=weighted / mass,
        included_worlds=frozenset(included),
        evidence_probability=mass,
    )


def optimistic_expected_cost(kb, strategy, query):
    """Lowest conditional expected cost any model can realize."""
    return greedy_bound(classify_worlds(kb, strategy, query), +1)


def pessimistic_expected_cost(kb, strategy, query):
    """Highest conditional expected cost any model can realize."""
    return greedy_bound(classify_worlds(kb, strategy, query), -1)


def brute_force_conditional_bounds(kb, strategy, query, limit=ORACLE_LIMIT):
    """Exact (min, max) conditional expectation over all optional subsets.

    Testing oracle: enumerating subsets suffices because partially
    including a world's mass never beats including all of it or none of
    it in a weighted average.  Refuses beyond ``limit`` optional worlds.
    """
    forced, optional = _positive(classify_worlds(kb, strategy, query))
    if len(optional) > limit:
        raise ValueError(
            f"{len(optional)} optional worlds exceed the oracle limit {limit}"
        )
    if not forced and not optional:
        raise UndefinedConditionalError("no world has positive probability")
    base_mass = sum(w.probability for w in forced)
    base_weighted = sum(w.probability * w.cost for w in forced)
    # subset sums by doubling: index bit i toggles optional world i
    mass = np.zeros(1)
    weighted = np.zeros(1)
    for w in optional:
        mass = np.concatenate([mass, mass + w.probability])
        weighted = np.concatenate([weighted, weighted + w.probability * w.cost])
    mass = mass + base_mass
    weighted = weighted + base_weighted
    values = weighted[mass > 0.0] / mass[mass > 0.0]
    if values.size == 0:
        raise UndefinedConditionalError("no nonempty subset has positive mass")
    return float(values.min()), float(values.max())
