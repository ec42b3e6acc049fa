"""Contextual influence-diagram expected-cost reasoner.

Pairs a lightweight description-logic ontology whose axioms hold only
in stated contexts with an influence diagram over the same Boolean
variables.  Answers contextual subsumption queries, computes expected
and conditional expected costs under strategies, and finds optimal pure
and fully-mixed strategies over the KB's own strategy scopes, both by
backward induction over decisions whose scopes nest.
"""

# numpy is bound inside functions: every layer stays imported, for the library and the benchmark's layers
from . import contextual, diagram, el, evidence, fixtures, kbfile, optimizer, simplex

__all__ = [
    "contextual",
    "diagram",
    "el",
    "evidence",
    "fixtures",
    "kbfile",
    "optimizer",
    "simplex",
]

__version__ = "0.1.0"
