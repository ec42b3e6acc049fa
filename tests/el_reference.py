"""EL subsumption by normalization and name-level saturation.

``el.is_subsumed`` runs one goal-directed completion over the concepts
themselves.  A three-stage decision of the same question is kept here
as the oracle it must agree with: the query concepts are internalized behind
two fresh names, every axiom is rewritten into the four normal forms

    A <= B,  A1 n A2 <= B,  A <= Er.B,  Er.A <= B

(A, A1, A2, B concept names or top), the normalized axioms are saturated
with the completion rules of Baader, Brandt & Lutz (IJCAI 2005) for
every name, and the answer is read off the name-pair relation.  Fresh
names are ``FreshName`` objects with the reserved "_n<k>" shape, which
``el.ConceptName`` rejects, so the rewriting is conservative over user
names.
"""

import re
from dataclasses import dataclass, field

from cider.el import (
    GCI,
    TOP_KEY,
    ConceptName,
    Conjunction,
    Existential,
    Top,
    print_concept,
    signature,
)

_FRESH_NAME_RE = re.compile(r"_n[0-9]+\Z")


@dataclass(frozen=True)
class FreshName(ConceptName):
    """A concept name introduced by the rewriting, "_n<k>"."""

    def __post_init__(self):
        if not _FRESH_NAME_RE.match(self.name):
            raise ValueError(f"invalid fresh name: {self.name!r}")


def print_gci(gci):
    return f"{print_concept(gci.lhs)} <= {print_concept(gci.rhs)}"


class _FreshNames:
    """Allocator for reserved "_n<k>" names, seeded past any already in use."""

    def __init__(self, axioms=(), extra_concepts=()):
        concepts, _ = signature(axioms)
        for c in extra_concepts:
            more, _ = signature([GCI(c, c)])
            concepts |= more
        self._next = 0
        for name in concepts:
            m = _FRESH_NAME_RE.match(name)
            if m:
                self._next = max(self._next, int(name[2:]) + 1)

    def take(self):
        name = FreshName(f"_n{self._next}")
        self._next += 1
        return name


def _is_atomic(c):
    return isinstance(c, (ConceptName, Top))


def _atom_key(c):
    return TOP_KEY if isinstance(c, Top) else c.name


@dataclass(frozen=True)
class NormalizedTBox:
    """Axioms restricted to the four normal forms, plus the fresh-name glossary."""

    axioms: tuple
    name_map: dict = field(default_factory=dict)

    def to_tbox(self):
        return frozenset(self.axioms)


def normal_form_of(gci):
    """Which normal form a GCI is in, or None."""
    lhs, rhs = gci.lhs, gci.rhs
    if _is_atomic(lhs) and _is_atomic(rhs):
        return "simple"
    if (
        isinstance(lhs, Conjunction)
        and _is_atomic(lhs.left)
        and _is_atomic(lhs.right)
        and _is_atomic(rhs)
    ):
        return "conj"
    if _is_atomic(lhs) and isinstance(rhs, Existential) and _is_atomic(rhs.filler):
        return "rhs-exist"
    if isinstance(lhs, Existential) and _is_atomic(lhs.filler) and _is_atomic(rhs):
        return "lhs-exist"
    return None


def normalize(tbox, fresh=None):
    """Rewrite a TBox into the four normal forms.

    The rewriting is a conservative extension: subsumptions between the
    original names are preserved exactly, and the output is linear in
    the size of the input.  Fresh abbreviation names are recorded in
    ``name_map``.
    """
    axioms = list(tbox)
    if fresh is None:
        fresh = _FreshNames(axioms)
    out = []
    name_map = {}
    queue = list(axioms)
    while queue:
        gci = queue.pop()
        if normal_form_of(gci) is not None:
            out.append(gci)
            continue
        lhs, rhs = gci.lhs, gci.rhs
        if isinstance(lhs, Conjunction) and not (
            _is_atomic(lhs.left) and _is_atomic(lhs.right)
        ):
            # abbreviate one complex conjunct
            complex_side = lhs.left if not _is_atomic(lhs.left) else lhs.right
            other = lhs.right if complex_side is lhs.left else lhs.left
            a = fresh.take()
            name_map[a.name] = complex_side
            queue.append(GCI(complex_side, a))
            queue.append(GCI(Conjunction(a, other), rhs))
        elif isinstance(lhs, Existential) and not _is_atomic(lhs.filler):
            a = fresh.take()
            name_map[a.name] = lhs.filler
            queue.append(GCI(lhs.filler, a))
            queue.append(GCI(Existential(lhs.role, a), rhs))
        elif not _is_atomic(lhs) and not _is_atomic(rhs):
            a = fresh.take()
            name_map[a.name] = lhs
            queue.append(GCI(lhs, a))
            queue.append(GCI(a, rhs))
        elif isinstance(rhs, Conjunction):
            queue.append(GCI(lhs, rhs.left))
            queue.append(GCI(lhs, rhs.right))
        elif isinstance(rhs, Existential):
            a = fresh.take()
            name_map[a.name] = rhs.filler
            queue.append(GCI(lhs, Existential(rhs.role, a)))
            queue.append(GCI(a, rhs.filler))
        else:
            raise AssertionError(f"unhandled axiom shape: {print_gci(gci)}")
    # deterministic order, duplicates dropped
    unique = sorted(set(out), key=print_gci)
    return NormalizedTBox(axioms=tuple(unique), name_map=name_map)


@dataclass(frozen=True)
class SubsumptionIndex:
    """Saturated name-level subsumption relation.

    ``subsumers[a]`` holds every name (and "top") derived to subsume a;
    ``successors[a]`` holds derived existential edges as (role, name)
    pairs.  Closed under the completion rules: reflexive, contains
    a <= top for every a, and applying any rule adds nothing.
    """

    subsumers: dict
    successors: dict

    def holds(self, sub, sup):
        return sup in self.subsumers.get(sub, ())


def saturate(ntbox):
    """Worklist fixpoint of the completion rules over a normalized TBox."""
    simple = {}  # a -> [b]          for a <= b
    conj = {}  # a -> [(a2, b)]    for a n a2 <= b (indexed by both conjuncts)
    rhs_exist = {}  # a -> [(r, b)]    for a <= Er.b
    lhs_exist = {}  # (r, a) -> [b]    for Er.a <= b
    names = {TOP_KEY}
    for gci in ntbox.axioms:
        form = normal_form_of(gci)
        if form is None:
            raise ValueError(f"axiom not in normal form: {print_gci(gci)}")
        if form == "simple":
            a, b = _atom_key(gci.lhs), _atom_key(gci.rhs)
            simple.setdefault(a, []).append(b)
            names.update((a, b))
        elif form == "conj":
            a1, a2 = _atom_key(gci.lhs.left), _atom_key(gci.lhs.right)
            b = _atom_key(gci.rhs)
            conj.setdefault(a1, []).append((a2, b))
            if a2 != a1:
                conj.setdefault(a2, []).append((a1, b))
            names.update((a1, a2, b))
        elif form == "rhs-exist":
            a, b = _atom_key(gci.lhs), _atom_key(gci.rhs.filler)
            rhs_exist.setdefault(a, []).append((gci.rhs.role, b))
            names.update((a, b))
        else:
            a, b = _atom_key(gci.lhs.filler), _atom_key(gci.rhs)
            lhs_exist.setdefault((gci.lhs.role, a), []).append(b)
            names.update((a, b))

    subsumers = {a: {a, TOP_KEY} for a in names}
    successors = {a: set() for a in names}
    in_edges = {a: set() for a in names}  # a -> {(source, role)}
    work = [(a, s) for a in names for s in subsumers[a]]

    def add_subsumer(a, x):
        if x not in subsumers[a]:
            subsumers[a].add(x)
            work.append((a, x))

    def add_edge(a, role, b):
        if (role, b) not in successors[a]:
            successors[a].add((role, b))
            in_edges[b].add((a, role))
            # Er.x <= c for any x already derived for b; snapshot because
            # a == b would mutate the set mid-iteration
            for x in list(subsumers[b]):
                for c in lhs_exist.get((role, x), ()):
                    add_subsumer(a, c)

    while work:
        a, x = work.pop()
        for b in simple.get(x, ()):
            add_subsumer(a, b)
        for other, b in conj.get(x, ()):
            if other in subsumers[a]:
                add_subsumer(a, b)
        for role, b in rhs_exist.get(x, ()):
            add_edge(a, role, b)
        for source, role in in_edges[a]:
            for c in lhs_exist.get((role, x), ()):
                add_subsumer(source, c)

    return SubsumptionIndex(
        subsumers={a: frozenset(s) for a, s in subsumers.items()},
        successors={a: frozenset(s) for a, s in successors.items()},
    )


def is_subsumed(tbox, c, d):
    """Does every model of the TBox satisfy c <= d?

    The query concepts are internalized via two fresh names with four
    bridging axioms, then normalized and saturated.
    """
    axioms = list(tbox)
    fresh = _FreshNames(axioms, extra_concepts=(c, d))
    x_c, x_d = fresh.take(), fresh.take()
    axioms += [GCI(x_c, c), GCI(c, x_c), GCI(x_d, d), GCI(d, x_d)]
    index = saturate(normalize(axioms, fresh))
    return index.holds(x_c.name, x_d.name)

