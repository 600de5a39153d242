"""Core domain types for matching markets with partially ordered preferences.

An instance holds, per agent, the set of acceptable candidates on the other
side of the market together with the comparisons the agent can currently
make, stored as an explicit set of directed edges (preferred, other).  A
refined knowledge state produced by interviews keeps the literal set of
learned comparisons and is NOT transitively closed: closing it could
manufacture comparisons between candidates an agent never met.  Base
instances, by contrast, are required to be genuine partial orders.

Ordered indifference classes (ties) have one home here: :func:`tie_relation`
builds a relation from classes, :func:`agent_tie_structure` recovers the
classes from a relation in O(edges) by grouping candidates by in-degree, and
:func:`detect_tie_structure` decomposes an instance once, cached on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    InvalidMatching,
    ShapeMismatch,
    UnacceptableCandidate,
)

MAN = "m"
WOMAN = "w"


class Agent(NamedTuple):
    """One market participant, identified by side and 1-based index."""

    side: str
    index: int

    def __str__(self):
        return f"{self.side}{self.index}"


def man(i: int) -> Agent:
    return Agent(MAN, i)


def woman(i: int) -> Agent:
    return Agent(WOMAN, i)


def opposite(side: str) -> str:
    return WOMAN if side == MAN else MAN


Pair = tuple[Agent, Agent]


def couple(a: Agent, b: Agent) -> Pair:
    """Normalize a mixed-side pair to (man, woman) order."""
    if a.side == b.side:
        raise ValueError(f"pair {a}, {b} is not a man-woman pair")
    return (a, b) if a.side == MAN else (b, a)


@dataclass(frozen=True)
class Relation:
    """One agent's acceptability set and explicit strict comparisons.

    ``edges`` contains ``(c1, c2)`` when the owner strictly prefers ``c1``
    to ``c2``.  Absence of both directions means the owner cannot compare
    the two candidates.
    """

    owner: Agent
    acceptable: frozenset[Agent]
    edges: frozenset[Pair]

    def prefers(self, c1: Agent, c2: Agent) -> bool:
        return (c1, c2) in self.edges

    def comparable(self, c1: Agent, c2: Agent) -> bool:
        return (c1, c2) in self.edges or (c2, c1) in self.edges


def relation(owner: Agent, acceptable: Iterable[Agent], edges: Iterable[Pair] = ()) -> Relation:
    return Relation(owner, frozenset(acceptable), frozenset(edges))


class Instance:
    """A market: agent counts plus one relation per agent.

    ``base=True`` marks an instance whose relations are meant to be genuine
    partial orders (validated by :func:`validate_instance`); instances
    produced by interviews carry ``base=False`` and may hold non-transitive
    edge sets.  Instances are immutable values: all operations return new
    objects.
    """

    __slots__ = ("n_men", "n_women", "relations", "base", "_pairs", "_kind", "_ties")

    def __init__(self, n_men: int, n_women: int,
                 relations: Mapping[Agent, Relation], base: bool = True):
        self.n_men = n_men
        self.n_women = n_women
        rels = dict(relations)
        for a in itertools.chain((man(i) for i in range(1, n_men + 1)),
                                 (woman(j) for j in range(1, n_women + 1))):
            if a not in rels:
                rels[a] = relation(a, ())
        self.relations = rels
        self.base = base
        self._pairs = None
        self._kind = None
        self._ties = None

    def men(self) -> list[Agent]:
        return [man(i) for i in range(1, self.n_men + 1)]

    def women(self) -> list[Agent]:
        return [woman(j) for j in range(1, self.n_women + 1)]

    def agents(self) -> list[Agent]:
        return self.men() + self.women()

    def acceptable_pairs(self) -> tuple[Pair, ...]:
        """All mutually acceptable (man, woman) pairs, sorted."""
        if self._pairs is None:
            pairs = []
            for m in self.men():
                for w in sorted(self.relations[m].acceptable):
                    rw = self.relations.get(w)
                    if rw is not None and m in rw.acceptable:
                        pairs.append((m, w))
            self._pairs = tuple(pairs)
        return self._pairs

    @property
    def kind(self) -> str:
        """Detected instance kind: one of smi, smt, smti, smpi."""
        if self._kind is None:
            self._kind = _detect_kind(self)
        return self._kind

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.n_men == other.n_men and self.n_women == other.n_women
                and self.relations == other.relations)

    def __hash__(self):
        key = tuple(sorted((a, r.acceptable, r.edges) for a, r in self.relations.items()))
        return hash((self.n_men, self.n_women, key))

    def __repr__(self):
        return f"Instance({self.n_men}x{self.n_women}, kind={self.kind})"


@dataclass(frozen=True)
class TieStructure:
    """Ordered indifference classes of one agent, best class first."""

    classes: tuple[frozenset[Agent], ...]

    def max_size(self) -> int:
        return max((len(c) for c in self.classes), default=0)

    def as_edges(self) -> frozenset[Pair]:
        """Every (better, worse) pair across classes; none within a class."""
        edges: list[Pair] = []
        below: list[Agent] = []
        for cls in reversed(self.classes):
            edges.extend(itertools.product(cls, below))
            below.extend(cls)
        return frozenset(edges)


def tie_relation(owner: Agent, classes: Iterable[Iterable[Agent]]) -> Relation:
    """The relation of an agent who ranks the given indifference classes
    best first: every candidate is acceptable, each class is tied, and
    every candidate beats everyone in later classes."""
    ties = TieStructure(tuple(frozenset(cls) for cls in classes))
    acceptable = frozenset(c for cls in ties.classes for c in cls)
    return Relation(owner, acceptable, ties.as_edges())


class StrictProfile:
    """The true underlying preferences: one total order per agent."""

    __slots__ = ("ranking", "_rank")

    def __init__(self, ranking: Mapping[Agent, Sequence[Agent]]):
        self.ranking = {a: tuple(seq) for a, seq in ranking.items()}
        self._rank = {a: {c: i for i, c in enumerate(seq)}
                      for a, seq in self.ranking.items()}

    def acceptable(self, a: Agent) -> tuple[Agent, ...]:
        return self.ranking.get(a, ())

    def rank(self, a: Agent, c: Agent) -> int:
        return self._rank[a][c]

    def prefers(self, a: Agent, c1: Agent, c2: Agent) -> bool:
        ranks = self._rank[a]
        return ranks[c1] < ranks[c2]

    def refines(self, instance: Instance) -> bool:
        """True when every agent ranks exactly its acceptable set and every
        instance comparison is between ranked candidates and respected."""
        for a, rel in instance.relations.items():
            seq = self.ranking.get(a, ())
            if set(seq) != set(rel.acceptable) or len(seq) != len(rel.acceptable):
                return False
            ranks = self._rank.get(a, {})
            try:
                for c1, c2 in rel.edges:
                    if ranks[c1] > ranks[c2]:
                        return False
            except KeyError:  # an edge leaves the acceptable set
                return False
        return True

    def as_instance(self, n_men: int | None = None, n_women: int | None = None) -> Instance:
        """The fully-refined instance in which every comparison is known."""
        if n_men is None:
            n_men = max((a.index for a in self.ranking if a.side == MAN), default=0)
        if n_women is None:
            n_women = max((a.index for a in self.ranking if a.side == WOMAN), default=0)
        rels = {a: tie_relation(a, ([c] for c in seq)) for a, seq in self.ranking.items()}
        return Instance(n_men, n_women, rels)

    def __eq__(self, other):
        if not isinstance(other, StrictProfile):
            return NotImplemented
        return self.ranking == other.ranking

    def __hash__(self):
        return hash(tuple(sorted(self.ranking.items())))


class Matching:
    """A partial one-to-one pairing of men and women."""

    __slots__ = ("pairs", "_of")

    def __init__(self, pairs: Iterable[tuple[Agent, Agent]]):
        normalized = sorted(couple(a, b) for a, b in pairs)
        of: dict[Agent, Agent] = {}
        for m, w in normalized:
            if m in of or w in of:
                raise InvalidMatching(f"agent matched twice in {normalized}")
            of[m] = w
            of[w] = m
        self.pairs = tuple(normalized)
        self._of = of

    def partner(self, a: Agent) -> Optional[Agent]:
        return self._of.get(a)

    def __contains__(self, pair: Pair) -> bool:
        return pair in self.pairs

    def __iter__(self) -> Iterator[Pair]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other):
        if not isinstance(other, Matching):
            return NotImplemented
        return self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self):
        inside = ", ".join(f"({m},{w})" for m, w in self.pairs)
        return f"Matching({inside})"


def interview_set(pairs: Iterable[tuple[Agent, Agent]]) -> frozenset[Pair]:
    return frozenset(couple(a, b) for a, b in pairs)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class Violation:
    kind: str
    agent: Optional[Agent]
    detail: str

    def __str__(self):
        where = f" [{self.agent}]" if self.agent is not None else ""
        return f"{self.kind}{where}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self):
        if self.ok:
            return "valid"
        return "\n".join(str(v) for v in self.violations)


def validate_instance(instance: Instance) -> ValidationReport:
    """Report every violated structural invariant; an empty report means valid.

    Checks index ranges, mutual acceptability, irreflexivity, asymmetry,
    edge endpoints lying inside the acceptability set, and (for base
    instances) transitivity of each relation.
    """
    out: list[Violation] = []
    men_set = set(instance.men())
    women_set = set(instance.women())
    known = men_set | women_set

    for a in sorted(instance.relations):
        if a not in known:
            out.append(Violation("unknown_agent", a, "index outside declared counts"))
        elif instance.relations[a].owner != a:
            out.append(Violation("owner_mismatch", a,
                                 f"relation owned by {instance.relations[a].owner}"))

    for a in sorted(known):
        rel = instance.relations[a]
        other = women_set if a.side == MAN else men_set
        for c in sorted(rel.acceptable):
            if c not in other:
                out.append(Violation("bad_candidate", a,
                                     f"{c} is not an agent on the opposite side"))
            elif a not in instance.relations[c].acceptable:
                out.append(Violation("one_sided_acceptability", a,
                                     f"{a} accepts {c} but not vice versa"))
        for c1, c2 in sorted(rel.edges):
            if c1 == c2:
                out.append(Violation("reflexive_edge", a, f"({c1}, {c2})"))
            if (c2, c1) in rel.edges and c1 < c2:
                out.append(Violation("asymmetry", a,
                                     f"both ({c1}, {c2}) and ({c2}, {c1}) present"))
            if c1 not in rel.acceptable or c2 not in rel.acceptable:
                out.append(Violation("edge_outside_acceptable", a, f"({c1}, {c2})"))
        if instance.base:
            for c1, c2 in sorted(rel.edges):
                for c3 in sorted(rel.acceptable):
                    if (c2, c3) in rel.edges and (c1, c3) not in rel.edges and c1 != c3:
                        out.append(Violation(
                            "not_transitive", a,
                            f"({c1}, {c2}) and ({c2}, {c3}) without ({c1}, {c3})"))
    return ValidationReport(tuple(out))


# ---------------------------------------------------------------------------
# comparisons and refinement


class Comparison(Enum):
    PREFERS_FIRST = "prefers_first"
    PREFERS_SECOND = "prefers_second"
    INCOMPARABLE = "incomparable"


def compare(instance: Instance, a: Agent, c1: Agent, c2: Agent) -> Comparison:
    """How agent ``a`` currently compares two candidates.

    Literal edge semantics: only explicitly present comparisons count; no
    closure is computed at query time.
    """
    if c1 == c2:
        raise ValueError("cannot compare a candidate with itself")
    rel = instance.relations[a]
    if c1 not in rel.acceptable or c2 not in rel.acceptable:
        raise UnacceptableCandidate(f"{c1} or {c2} not acceptable to {a}")
    if (c1, c2) in rel.edges:
        return Comparison.PREFERS_FIRST
    if (c2, c1) in rel.edges:
        return Comparison.PREFERS_SECOND
    return Comparison.INCOMPARABLE


def same_shape(a: Instance, b: Instance) -> bool:
    if a.n_men != b.n_men or a.n_women != b.n_women:
        return False
    return all(a.relations[x].acceptable == b.relations[x].acceptable
               for x in a.agents())


def is_refinement(base: Instance, candidate: Instance) -> bool:
    """True when every comparison of ``base`` is kept by ``candidate``."""
    if not same_shape(base, candidate):
        raise ShapeMismatch("instances differ in agent sets or acceptability")
    return all(base.relations[a].edges <= candidate.relations[a].edges
               for a in base.agents())


# ---------------------------------------------------------------------------
# tie structure detection


def agent_tie_structure(rel: Relation) -> Optional[TieStructure]:
    """The relation's indifference classes, best first, or None if it is not
    shaped as ordered ties.

    Only edges between acceptable candidates count.  A candidate's in-degree
    is the size of the better classes, so grouping by it gives the only
    possible classes; they stand when their ``as_edges()`` equals those edges.
    """
    indegree = dict.fromkeys(rel.acceptable, 0)
    inside = frozenset((hi, lo) for hi, lo in rel.edges
                       if hi in indegree and lo in indegree)
    for _, lo in inside:
        indegree[lo] += 1
    groups: dict[int, list[Agent]] = {}
    for c, d in indegree.items():
        groups.setdefault(d, []).append(c)
    ties = TieStructure(tuple(frozenset(groups[d]) for d in sorted(groups)))
    return ties if ties.as_edges() == inside else None


def detect_tie_structure(instance: Instance) -> Mapping[Agent, Optional[TieStructure]]:
    """Per-agent tie decomposition, None marking a general partial order;
    computed on first use and cached on the instance as a read-only map."""
    if instance._ties is None:
        instance._ties = MappingProxyType(
            {a: agent_tie_structure(instance.relations[a]) for a in instance.agents()})
    return instance._ties


def _detect_kind(instance: Instance) -> str:
    ties = detect_tie_structure(instance)
    if any(t is None for t in ties.values()):
        return "smpi"
    if all(t.max_size() <= 1 for t in ties.values()):
        return "smi"
    complete = all(
        len(instance.relations[a].acceptable) ==
        (instance.n_women if a.side == MAN else instance.n_men)
        for a in instance.agents())
    return "smt" if complete else "smti"


# ---------------------------------------------------------------------------
# linear extensions


def linear_extensions(instance: Instance, a: Agent,
                      cap: int = 10000) -> tuple[list[tuple[Agent, ...]], bool]:
    """Enumerate the strict total orders consistent with the agent's edges.

    Emits in lexicographic order (by candidate sort order at each position)
    and stops once ``cap`` orders have been produced, returning an overflow
    flag instead of raising.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    rel = instance.relations[a]
    items = sorted(rel.acceptable)
    pending = {c: {d for d in items if (d, c) in rel.edges} for c in items}
    out: list[tuple[Agent, ...]] = []
    overflow = False
    prefix: list[Agent] = []

    def walk() -> bool:
        nonlocal overflow
        if len(prefix) == len(items):
            if len(out) == cap:
                overflow = True
                return False
            out.append(tuple(prefix))
            return True
        for c in items:
            if c in prefix or pending[c] - set(prefix):
                continue
            prefix.append(c)
            ok = walk()
            prefix.pop()
            if not ok:
                return False
        return True

    walk()
    return out, overflow
