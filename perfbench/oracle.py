"""Reference answers computed without the code paths the benchmark times.

Probabilities and costs come from a direct summation over the generated
KB's own tables (``kbgen.KBSpec``), not from ``cider.diagram``.
Entailment is decided once per distinct restricted TBox with
``el.is_subsumed`` (the program decides it once per world), and the
conditional bounds are recomputed from those classes.
"""

import itertools
from functools import cached_property

from kbgen import eval_formula, rowkey, rowkeys

PROB_TOL = 1e-9
# reports print nine significant digits
PRINT_REL = 1e-8


def close(printed, exact):
    return abs(printed - exact) <= PROB_TOL + PRINT_REL * abs(exact)


class Reference:
    """Exact answers for one generated KB."""

    def __init__(self, spec, el):
        self.spec = spec
        self.el = el
        self._cache = {}

    @cached_property
    def worlds(self):
        """(bits, world, chance factor, cost) in binary counting order."""
        s = self.spec
        out = []
        for values in itertools.product((False, True), repeat=len(s.variables)):
            world = dict(zip(s.variables, values))
            p = 1.0
            for v in s.variables:
                if s.kinds[v] == "chance":
                    t = s.cpt[v][rowkey(world, s.parents[v])]
                    p *= t if world[v] else 1.0 - t
            cost = s.cost_table[rowkey(world, s.cost_parents)]
            out.append((rowkey(world, s.variables), world, p, cost))
        return out

    @cached_property
    def scopes(self):
        return {d: self.spec.scope(d) for d in self.spec.decisions}

    def joints(self, tables):
        """Joint probability of every world under {decision: {row: p}}."""
        out = []
        for _bits, world, p, _cost in self.worlds:
            for d, scope in self.scopes.items():
                t = tables[d][rowkey(world, scope)]
                p *= t if world[d] else 1.0 - t
            out.append(p)
        return out

    def distribution(self, tables):
        dist = {c: 0.0 for c in set(self.spec.cost_table.values())}
        for (_b, _w, _p, cost), joint in zip(self.worlds, self.joints(tables)):
            dist[cost] += joint
        return dist

    def expected_cost(self, tables):
        return sum(c * p for c, p in self.distribution(tables).items())

    def pure_strategies(self):
        """Every pure strategy as {decision: {row: 0 or 1}}."""
        decisions = list(self.scopes)
        keys = {d: rowkeys(len(self.scopes[d])) for d in decisions}
        per_decision = [
            itertools.product((0, 1), repeat=len(keys[d])) for d in decisions
        ]
        for combo in itertools.product(*per_decision):
            yield {d: dict(zip(keys[d], vals)) for d, vals in zip(decisions, combo)}

    def restriction(self, world):
        return tuple(
            i for i, ax in enumerate(self.spec.tbox) if eval_formula(ax[2], world)
        )

    def entails(self, active, lhs, rhs):
        key = (active, lhs, rhs)
        if key not in self._cache:
            el = self.el
            tbox = frozenset(
                el.GCI(el.parse_concept(self.spec.tbox[i][0]),
                       el.parse_concept(self.spec.tbox[i][1]))
                for i in active
            )
            self._cache[key] = el.is_subsumed(
                tbox, el.parse_concept(lhs), el.parse_concept(rhs)
            )
        return self._cache[key]

    def forced(self, lhs, rhs):
        """Per world: does its restricted TBox entail lhs <= rhs?"""
        key = ("forced", lhs, rhs)
        if key not in self._cache:
            self._cache[key] = [
                self.entails(self.restriction(w), lhs, rhs)
                for _b, w, _p, _c in self.worlds
            ]
        return self._cache[key]

    def prob_subsumption(self, tables, lhs, rhs):
        excluded = sum(
            p for p, f in zip(self.joints(tables), self.forced(lhs, rhs)) if not f
        )
        return 1.0 - excluded

    def classified(self, tables, lhs, rhs):
        """(forced, optional) lists of (bits, probability, cost), p > 0."""
        forced, optional = [], []
        for (bits, _w, _p, cost), p, f in zip(
            self.worlds, self.joints(tables), self.forced(lhs, rhs)
        ):
            if p > 0.0:
                (forced if f else optional).append((bits, p, cost))
        return forced, optional

    def bound(self, tables, lhs, rhs, sign):
        """Lowest (sign +1) or highest (sign -1) conditional expected cost:
        include every forced world, then optional worlds in cost order
        while they move the average toward the bound."""
        forced, optional = self.classified(tables, lhs, rhs)
        if not forced:
            return min(c * sign for _b, _p, c in optional) * sign
        mass = sum(p for _b, p, _c in forced)
        weighted = sum(p * c for _b, p, c in forced)
        for _bits, p, c in sorted(optional, key=lambda w: sign * w[2]):
            if sign * c * mass < sign * weighted:
                mass += p
                weighted += p * c
        return weighted / mass

    def pure_optimum(self, lhs=None, rhs=None, sign=+1):
        """Minimum over pure strategies of the expected cost, or of the
        conditional bound given lhs <= rhs when those are set."""
        key = ("optimum", lhs, rhs, sign)
        if key not in self._cache:
            if lhs is None:
                values = [self.expected_cost(t) for t in self.pure_strategies()]
            else:
                values = [self.bound(t, lhs, rhs, sign) for t in self.pure_strategies()]
            self._cache[key] = min(values)
        return self._cache[key]
