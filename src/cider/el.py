"""EL concept language: parsing and subsumption.

Whether a TBox entails c <= d is decided by one goal-directed
completion (Baader, Brandt & Lutz, IJCAI 2005), run over subconcepts as
in Kazakov, Krötzsch & Simančík, "The Incredible ELK" (JAR 2014).  A
context x stands for the elements of a concept; it is opened for c and
for the filler of every derived existential, and S(x) collects the
concepts derived to contain it, top always among them.  From one work
list the rules are

  R⊑   e in S(x) and e <= f told        =>  f in S(x)
  R⊓−  (and e1 e2) in S(x)              =>  e1, e2 in S(x)
  R⊓+  e1, e2 in S(x)                   =>  (and e1 e2) in S(x)
  R∃−  (some r e) in S(x)               =>  open e, link x -r-> e
  R∃+  x -r-> y and e in S(y)           =>  (some r e) in S(x)

where R⊓+ and R∃+ build only the concepts a left-hand side or d has as
a subconcept, so the work stays within the concepts the query can
reach.  c <= d is entailed exactly when d is in S(c).  The contexts and
links are the canonical model: where d is not in S(c), the context c is
an element of c and not of d in a model of the TBox.

The same completion decides many TBoxes at once, as a labelled
completion in the sense of Baader, Knechtel & Peñaloza (J. Web
Semantics 2012) whose labels are sets rather than formulas.  Each TBox
is a group, one bit of an integer; each axiom carries the mask of the
groups whose TBox holds it, and each fact and link the mask of the
groups that derive it.  A rule fires for the AND of its premises'
masks, and bit g of S(c)[d] answers c <= d for group g's TBox.  One
TBox is the case of one group, where every mask is 1.
"""

from dataclasses import dataclass

from ._sexpr import NAME_RE, ParseError, Scanner

__all__ = [
    "Concept",
    "Top",
    "ConceptName",
    "Conjunction",
    "Existential",
    "GCI",
    "ParseError",
    "parse_concept",
    "is_subsumed",
]

TOP_KEY = "top"


@dataclass(frozen=True)
class Concept:
    """Base class for EL concept syntax trees."""


@dataclass(frozen=True)
class Top(Concept):
    pass


TOP = Top()


@dataclass(frozen=True)
class ConceptName(Concept):
    name: str

    def __post_init__(self):
        if self.name == TOP_KEY:
            raise ValueError("'top' is the universal concept, not a concept name")
        if not NAME_RE.fullmatch(self.name):
            raise ValueError(f"invalid concept name: {self.name!r}")


@dataclass(frozen=True)
class Conjunction(Concept):
    left: Concept
    right: Concept


@dataclass(frozen=True)
class Existential(Concept):
    role: str
    filler: Concept


@dataclass(frozen=True)
class GCI:
    lhs: Concept
    rhs: Concept


def parse_concept(text):
    """Parse a concept expression.

    Grammar (names may not start with an underscore):

        concept := NAME | "top" | "(and" ws concept ws concept ")"
                 | "(some" ws NAME ws concept ")"
    """
    scanner = Scanner(text.strip())
    concept = _parse_concept(scanner)
    scanner.expect_end()
    return concept


def _parse_concept(scanner):
    if scanner.try_open("(and"):
        scanner.require_ws()
        left = _parse_concept(scanner)
        scanner.require_ws()
        right = _parse_concept(scanner)
        scanner.close()
        return Conjunction(left, right)
    if scanner.try_open("(some"):
        scanner.require_ws()
        role = scanner.read_name()
        scanner.require_ws()
        filler = _parse_concept(scanner)
        scanner.close()
        return Existential(role, filler)
    if scanner.try_consume("("):
        raise scanner.error("expected 'and' or 'some' after '('")
    name = scanner.read_name()
    if name == TOP_KEY:
        return TOP
    return ConceptName(name)


def is_subsumed(tbox, c, d):
    """Does every model of the TBox satisfy c <= d?

    The completion of the module docstring with one group holding every
    axiom; the answer is whether d is derived in the context of c.
    """
    return d in _completion([(gci, 1) for gci in tbox], 1, c, d)[c]


def _completion(axioms, full, c, d):
    """S(x) for every context x of the completion for c <= d, keyed by x:
    each concept derived for x, mapped to the mask of the groups that
    derive it.

    The axioms are ``(gci, groups)`` pairs, ``groups`` the mask of the
    groups whose TBox holds the gci, and ``full`` is the mask of every
    group.  A fact passes on only its new bits.  A context is opened
    with ``full``, since y <= y and y <= top hold in every TBox.  A told
    axiom fires exactly when its left side is in some S(x).
    """
    told = {}  # lhs -> [(rhs, groups)]
    for gci, groups in axioms:
        told.setdefault(gci.lhs, []).append((gci.rhs, groups))
    # The concepts R⊓+ and R∃+ may build: every left-hand side and d, with
    # all their subconcepts.  A marked conjunction is indexed by each
    # conjunct, a marked existential by its filler.
    conjunctions = {}  # conjunct -> [(other conjunct, conjunction)]
    existentials = {}  # filler -> [(role, existential)]
    marked = set()
    stack = [*told, d]
    while stack:
        x = stack.pop()
        if x in marked:
            continue
        marked.add(x)
        if isinstance(x, Conjunction):
            conjunctions.setdefault(x.left, []).append((x.right, x))
            conjunctions.setdefault(x.right, []).append((x.left, x))
            stack += (x.left, x.right)
        elif isinstance(x, Existential):
            existentials.setdefault(x.filler, []).append((x.role, x))
            stack.append(x.filler)

    subsumers = {c: {}}  # context -> {concept: groups}
    links = {c: {}}  # context y -> {(x, r): groups} for every link x -r-> y
    work = [(c, c, full), (c, TOP, full)]  # (context, concept, groups) to add
    while work:
        x, e, groups = work.pop()
        s = subsumers[x]
        old = s.get(e, 0)
        new = groups & ~old
        if not new:
            continue
        s[e] = old | new
        # R⊑
        for f, label in told.get(e, ()):
            if label & new:
                work.append((x, f, label & new))
        # R⊓− and R⊓+
        if isinstance(e, Conjunction):
            work.append((x, e.left, new))
            work.append((x, e.right, new))
        for other, both in conjunctions.get(e, ()):
            held = s.get(other, 0) & new
            if held:
                work.append((x, both, held))
        # R∃+ over the links into x
        for role, ex in existentials.get(e, ()):
            for (source, r), linked in links[x].items():
                if r == role and linked & new:
                    work.append((source, ex, linked & new))
        # R∃−: open the filler's context, link x to it, and R∃+ over what
        # the filler already has
        if isinstance(e, Existential):
            y = e.filler
            if y not in subsumers:
                subsumers[y], links[y] = {}, {}
                work.append((y, y, full))
                work.append((y, TOP, full))
            old = links[y].get((x, e.role), 0)
            fresh = new & ~old
            if fresh:
                links[y][(x, e.role)] = old | fresh
                for f, held in subsumers[y].items():
                    for r, ex in existentials.get(f, ()):
                        if r == e.role and held & fresh:
                            work.append((x, ex, held & fresh))
    return subsumers
