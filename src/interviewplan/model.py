"""Core domain types for matching markets with partially ordered preferences.

An instance holds, per agent, the set of acceptable candidates on the other
side of the market together with the comparisons the agent can currently
make.  A :class:`Relation` stores them as ordered indifference classes,
empty or a partition of the acceptable set, with a level per candidate,
plus any explicit edges (preferred, other) beyond the classes; its full
edge set is a view derived on each read.  A refined knowledge state
produced by interviews keeps the base classes and adds the learned order:
the candidates the agent met, in true order, with a rank per candidate.
That order is closed over the candidates met and says nothing about
anyone else, so nothing is inferred by transitivity through the base
comparisons: closing the union could manufacture comparisons between
candidates an agent never met.  Base instances, by contrast, are required
to be genuine partial orders.

Ordered indifference classes (ties) have one home here: :func:`tie_relation`
is the only builder of classes, and builds no edges,
:func:`agent_tie_structure` returns the stored classes tuple or recovers one
from the edges in O(edges) by grouping candidates by in-degree, and
:func:`detect_tie_structure` maps every agent of an instance to its classes.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from enum import Enum
from types import MappingProxyType
from typing import AbstractSet, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

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


_UNCLASSED = sys.maxsize
# the view ranks() returns for an agent the profile does not rank
_NO_VIEW: Mapping[Agent, int] = MappingProxyType({})
# the level map of every edge-built relation and the rank map of every
# relation that met no one, shared and never written; a plain dict, unlike
# _NO_VIEW, so that every relation pickles
_NO_RANKS: Mapping[Agent, int] = {}


class Relation:
    """One agent's acceptability set and strict comparisons.

    A comparison ``(c1, c2)`` means the owner strictly prefers ``c1`` to
    ``c2``; with neither direction present the owner cannot compare the two.
    The comparisons are stored in three parts:

    - ``classes``: ordered indifference classes, best first, empty or a
      partition of ``acceptable``, with ``level`` mapping each acceptable
      candidate to the index of its class.  Every candidate beats everyone
      in a later class; a class is tied inside.
    - ``met``: the learned order, the candidates the agent ranked by
      interview as one tuple in true order, best first, with ``rank``
      mapping each of them to its position.  Every met candidate beats
      every later one.
    - ``extra``: explicit comparisons beyond the classes and the met order.

    The constructor is the one way to build a relation:
    ``Relation(owner, acceptable, edges)`` stores the edges as ``extra``;
    the other parts are keyword-only, shared and never written.  ``ties``
    takes the classes, levels and private class index ``_index`` (the
    classes laid end to end, and how many candidates lie at or before each)
    of a relation over the same acceptable set, and raises ``ValueError``
    otherwise; :func:`tie_relation` alone makes them.  A ``met`` order
    passed without its ``rank`` map gets one built.

    ``edges``, the set of all comparisons, is derived on every read: it
    costs O(d²) for a class-built or learned relation over d candidates, so
    a reader that loops over it binds it once.  :meth:`prefers` and
    :meth:`comparable` answer from the class levels and met ranks in O(1).
    Equality and hashing are over ``(owner, acceptable, edges)``, so a
    class-built or learned relation equals its edge-built twin.  Relations
    are immutable values.
    """

    __slots__ = ("owner", "acceptable", "classes", "level", "extra", "met", "rank", "_index")

    def __init__(self, owner: Agent, acceptable: frozenset[Agent],
                 edges: frozenset[Pair] = frozenset(), *, ties: Optional[Relation] = None,
                 met: tuple[Agent, ...] = (), rank: Optional[Mapping[Agent, int]] = None):
        self.owner, self.acceptable, self.extra, self.met = owner, acceptable, edges, met
        if ties is None:
            self.classes, self.level, self._index = (), _NO_RANKS, ((), ())
        elif ties.acceptable is acceptable or ties.acceptable == acceptable:
            self.classes, self.level, self._index = ties.classes, ties.level, ties._index
        else:
            raise ValueError(f"the classes of {ties.owner} do not partition "
                             f"the acceptable set of {owner}")
        if rank is None:
            rank = dict(zip(met, range(len(met)))) if met else _NO_RANKS
        self.rank = rank

    @property
    def edges(self) -> frozenset[Pair]:
        """Every comparison: the class-implied pairs, ``extra`` and the pairs
        of the met order, built on each read."""
        edges = self.extra
        if self.classes:
            edges = _class_edges(self.classes) | edges
        if self.met:
            edges = edges.union(itertools.combinations(self.met, 2))
        return edges

    def prefers(self, c1: Agent, c2: Agent) -> bool:
        # an unclassed c1 reads as worse than every level and an unclassed c2
        # as better, so the level test holds only between classed candidates;
        # the met ranks are read the same way
        level = self.level
        if level and level.get(c1, _UNCLASSED) < level.get(c2, -1):
            return True
        rank = self.rank
        if rank and rank.get(c1, _UNCLASSED) < rank.get(c2, -1):
            return True
        extra = self.extra
        return bool(extra) and (c1, c2) in extra

    def comparable(self, c1: Agent, c2: Agent) -> bool:
        return self.prefers(c1, c2) or self.prefers(c2, c1)

    def open_to(self, partner: Optional[Agent]) -> AbstractSet[Agent]:
        """The candidates the owner does not prefer ``partner`` to, the
        partner excluded, or every acceptable one when unmatched (None): not
        in a later class, not met and ranked after the partner, and not below
        it by an ``extra`` edge, tested per candidate so that an edge-built
        relation is never expanded.  A pair very weakly blocks a matching
        exactly when each member is open to the other.

        The candidates in no later class are whichever slice of the class
        index is shorter: the classes up to the partner's, or the acceptable
        set less the classes after it.  A partner with no level keeps the
        whole set."""
        if partner is None:
            return self.acceptable
        at = self.level.get(partner)
        if at is None:
            out = set(self.acceptable)
        else:
            order, ends = self._index
            cut = ends[at]
            if cut + cut <= len(order):
                out = set(order[:cut])
            else:
                out = set(self.acceptable)
                out.difference_update(order[cut:])
        out.discard(partner)
        rank = self.rank.get(partner)
        if rank is not None:
            out.difference_update(self.met[rank + 1:])
        extra = self.extra
        if extra:
            return {c for c in out if (partner, c) not in extra}
        return out

    def learn(self, ordered: Sequence[Agent],
              rank: Optional[dict[Agent, int]] = None) -> Relation:
        """This relation after meeting the candidates in ``ordered``, given
        best first: each of them is now preferred to every later one.
        ``rank``, when given, is the map from each of them to its position
        in ``ordered``; it is shared, never written, so a learner that met
        its whole list can hold the truth's own rank map.

        A relation that already holds a met order keeps both orders as
        literal pairs in ``extra`` and holds no met order afterwards, by
        design: the same state written by ``format_instance`` and parsed
        back holds its met order as plain edges, and a second round there
        adds only the new order's pairs.  One met order over both rounds
        would differ from it, comparing candidates no round met together."""
        met = tuple(ordered)
        if self.met:
            extra = self.extra.union(itertools.combinations(self.met, 2),
                                     itertools.combinations(met, 2))
            return Relation(self.owner, self.acceptable, extra, ties=self)
        return Relation(self.owner, self.acceptable, self.extra, ties=self, met=met, rank=rank)

    def owned_by(self, owner: Agent) -> Relation:
        """This relation held by ``owner``: the same candidates and
        comparisons, sharing every stored part, so agents who rank the same
        classes share one copy of them."""
        return Relation(owner, self.acceptable, self.extra, ties=self, met=self.met,
                        rank=self.rank)

    def restricted(self, keep: frozenset[Agent]) -> Relation:
        """This relation over the candidates in ``keep`` only, which must lie
        within the acceptable set."""
        extra = frozenset((c1, c2) for c1, c2 in self.extra if c1 in keep and c2 in keep)
        ties = (tie_relation(self.owner, (cls & keep for cls in self.classes))
                if self.classes else None)
        met = tuple(c for c in self.met if c in keep)
        return Relation(self.owner, keep, extra, ties=ties, met=met)

    def gains_over(self, base: Relation) -> frozenset[Pair]:
        """The comparisons of this relation that ``base`` lacks."""
        if self.classes == base.classes:
            # the class-implied comparisons are shared; only extra and the
            # met order can differ
            learned = itertools.chain(self.extra, itertools.combinations(self.met, 2))
            return frozenset(p for p in learned if not base.prefers(*p))
        return self.edges - base.edges

    def __eq__(self, other):
        if not isinstance(other, Relation):
            return NotImplemented
        return (self.owner == other.owner and self.acceptable == other.acceptable
                and self.edges == other.edges)

    def __hash__(self):
        return hash((self.owner, self.acceptable, self.edges))

    def __repr__(self):
        return (f"Relation(owner={self.owner!r}, acceptable={self.acceptable!r}, "
                f"edges={self.edges!r})")


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

    __slots__ = ("n_men", "n_women", "relations", "base", "_men", "_women",
                 "_pairs", "_count")

    def __init__(self, n_men: int, n_women: int,
                 relations: Mapping[Agent, Relation], base: bool = True):
        self.n_men = n_men
        self.n_women = n_women
        # each agent is built once here; men(), women() and agents() copy these
        self._men = tuple(man(i) for i in range(1, n_men + 1))
        self._women = tuple(woman(j) for j in range(1, n_women + 1))
        rels = dict(relations)
        for a in itertools.chain(self._men, self._women):
            if a not in rels:
                rels[a] = relation(a, ())
        self.relations = rels
        self.base = base
        self._pairs = None
        self._count = None

    def men(self) -> list[Agent]:
        return list(self._men)

    def women(self) -> list[Agent]:
        return list(self._women)

    def agents(self) -> list[Agent]:
        return [*self._men, *self._women]

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

    def pair_count(self) -> int:
        """How many mutually acceptable pairs there are: the length of the
        list once it is built, and otherwise counted once, without listing
        or sorting them, and kept on the instance."""
        if self._pairs is not None:
            return len(self._pairs)
        if self._count is None:
            relations = self.relations
            count = 0
            for m in self._men:
                for w in relations[m].acceptable:
                    rw = relations.get(w)
                    if rw is not None and m in rw.acceptable:
                        count += 1
            self._count = count
        return self._count

    @property
    def kind(self) -> str:
        """Detected instance kind: one of smi, smt, smti, smpi; computed on
        each read."""
        ties = detect_tie_structure(self).values()
        if None in ties:
            return "smpi"
        if all(max(map(len, classes), default=0) <= 1 for classes in ties):
            return "smi"
        complete = all(
            len(self.relations[a].acceptable) ==
            (self.n_women if a.side == MAN else self.n_men)
            for a in self.agents())
        return "smt" if complete else "smti"

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


def _class_edges(classes: tuple[frozenset[Agent], ...]) -> frozenset[Pair]:
    """Every (better, worse) pair across ordered classes, best class first;
    none within a class."""
    edges: list[Pair] = []
    below: list[Agent] = []
    for cls in reversed(classes):
        edges.extend(itertools.product(cls, below))
        below.extend(cls)
    return frozenset(edges)


def tie_relation(owner: Agent, classes: Iterable[Iterable[Agent]]) -> Relation:
    """The relation of an agent who ranks the given disjoint indifference
    classes best first: every candidate is acceptable, each class is tied,
    and every candidate beats everyone in later classes.  The only builder
    of classes: stores the non-empty ones, their levels and the class
    index, the level map's keys; builds no edge set.  Raises
    ``ValueError`` on a candidate in two classes."""
    kept = tuple(filter(None, map(frozenset, classes)))
    level = {c: i for i, cls in enumerate(kept) for c in cls}
    ends = tuple(itertools.accumulate(map(len, kept)))
    if ends and ends[-1] != len(level):
        raise ValueError(f"{owner} ranks a candidate in two classes")
    rel = Relation(owner, kept[0] if len(kept) == 1 else frozenset(level))
    rel.classes, rel.level, rel._index = kept, level, (tuple(level), ends)
    return rel


# an agent that met fewer than a third of the candidates it ranks has
# them sorted by true rank, otherwise read off its true order: about where
# the two cost the same, from 6 to 50 ranked candidates
_SORT_RATIO = 3


class StrictProfile:
    """The true underlying preferences: one total order per agent."""

    __slots__ = ("ranking", "_rank", "_views", "_refined")

    def __init__(self, ranking: Mapping[Agent, Sequence[Agent]]):
        self.ranking = {a: tuple(seq) for a, seq in ranking.items()}
        # the plain rank maps, which a learner that met its whole list
        # shares, and the read-only views of them that ranks() hands out
        self._rank = {a: {c: i for i, c in enumerate(seq)}
                      for a, seq in self.ranking.items()}
        self._views = {a: MappingProxyType(r) for a, r in self._rank.items()}
        self._refined: Optional[Instance] = None

    def __reduce__(self):
        # the stored views do not pickle; rebuild them from the ranking, with
        # nothing remembered by refines
        return StrictProfile, (self.ranking,)

    def acceptable(self, a: Agent) -> tuple[Agent, ...]:
        return self.ranking.get(a, ())

    def rank(self, a: Agent, c: Agent) -> int:
        return self._rank[a][c]

    def teach(self, rel: Relation, met: AbstractSet[Agent]) -> Relation:
        """``rel`` after its owner met ``met``, which the profile must rank for
        it (:meth:`refines` guarantees it): two or more candidates teach the
        owner their true order, fewer teach nothing.  An owner that met its
        whole list shares the profile's order tuple and plain rank dict; any
        other order is sorted by true rank when the owner met under a
        ``_SORT_RATIO``-th of its list, and otherwise read off its order."""
        if len(met) < 2:
            return rel
        a = rel.owner
        order = self.ranking[a]
        if len(met) == len(order):
            return rel.learn(order, self._rank[a])
        if len(met) * _SORT_RATIO < len(order):
            return rel.learn(sorted(met, key=self._rank[a].__getitem__))
        return rel.learn([c for c in order if c in met])

    def ranks(self, a: Agent) -> Mapping[Agent, int]:
        """Read-only map from each candidate ``a`` ranks to its position, best
        first from 0; empty for an agent the profile does not rank.  Built
        once with the profile: every call returns the same view."""
        return self._views.get(a, _NO_VIEW)

    def refines(self, instance: Instance) -> bool:
        """True when every agent ranks exactly its acceptable set and every
        instance comparison is between ranked candidates and respected.

        The classes are checked in one walk down the agent's true order,
        which reads a level for every ranked candidate and finds them never
        decreasing.  The levels cover the acceptable set exactly, so a
        ranking as long as the set, with no repeat, that the walk reads
        through ranks all of it; a relation without classes checks the set
        instead.

        The last instance accepted is remembered by identity (the
        ``_refined`` slot) and accepted again in O(1), so a solve that checks
        one instance at several entry points pays once.  This relies on
        profiles and instances being immutable values.  A rejection is not
        remembered, and an unpickled profile remembers nothing."""
        if instance is self._refined:
            return True
        for a, rel in instance.relations.items():
            seq = self.ranking.get(a, ())
            ranks = self._rank.get(a, _NO_VIEW)
            acceptable, level = rel.acceptable, rel.level
            if not len(seq) == len(ranks) == len(acceptable):
                return False
            if level:
                try:
                    along = list(map(level.__getitem__, seq))
                except KeyError:  # a ranked candidate is not acceptable
                    return False
                if along != sorted(along):
                    return False
            elif not acceptable.issubset(ranks):
                return False
            try:
                for c1, c2 in rel.extra:
                    if ranks[c1] > ranks[c2]:
                        return False
                met = rel.met
                if met and any(ranks[c1] > ranks[c2] for c1, c2 in zip(met, met[1:])):
                    return False
            except KeyError:  # an edge leaves the acceptable set
                return False
        self._refined = instance
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
    """A partial one-to-one pairing of men and women.  ``partner(a)``, the
    stored ``get`` of the partner map, is the agent matched to ``a`` or None."""

    __slots__ = ("pairs", "partner")

    def __init__(self, pairs: Iterable[tuple[Agent, Agent]]):
        normalized = sorted(couple(a, b) for a, b in pairs)
        of: dict[Agent, Agent] = {}
        for m, w in normalized:
            if m in of or w in of:
                raise InvalidMatching(f"agent matched twice in {normalized}")
            of[m] = w
            of[w] = m
        self.pairs = tuple(normalized)
        self.partner = of.get

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


def _sound_by_construction(rel: Relation) -> bool:
    """True for a relation made of classes alone: its comparisons are the
    level order, which is irreflexive, asymmetric and transitive, so its
    edges need no check."""
    return not rel.extra and not rel.met


def _transitivity_violations(a: Agent, acceptable: frozenset[Agent],
                             edges: frozenset[Pair], ordered: list[Pair]) -> list[Violation]:
    """Every ``(c1, c2)``, ``(c2, c3)`` without ``(c1, c3)`` over an
    acceptable ``c3`` other than ``c1``, by edge in ``ordered`` and then by
    ``c3``.  With ``succ[c]`` the acceptable candidates ``c`` is preferred
    to, there are none when ``succ[c2]`` lies within ``succ[c1]`` for
    every edge, checked first in O(edges × degree) set work; the list is
    built only when that check fails."""
    succ: dict[Agent, set[Agent]] = {}
    for c1, c2 in edges:
        if c2 in acceptable:
            succ.setdefault(c1, set()).add(c2)
    nothing: frozenset[Agent] = frozenset()
    if all(succ.get(c2, nothing) <= succ.get(c1, nothing) for c1, c2 in edges):
        return []
    out = []
    for c1, c2 in ordered:
        for c3 in sorted(succ.get(c2, nothing) - succ.get(c1, nothing) - {c1}):
            out.append(Violation("not_transitive", a,
                                 f"({c1}, {c2}) and ({c2}, {c3}) without ({c1}, {c3})"))
    return out


def validate_instance(instance: Instance) -> ValidationReport:
    """Report every violated structural invariant; an empty report means valid.

    Checks index ranges, mutual acceptability, irreflexivity, asymmetry,
    edge endpoints lying inside the acceptability set, and (for base
    instances) transitivity of each relation.  A relation sound by
    construction (classes and nothing else) skips the edge checks, so it
    costs O(d).  Any other relation costs O(edges log edges) for the sort
    plus a successor-set check of transitivity that is O(edges × d) in set
    operations, not O(d³) in Python steps.
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
        if _sound_by_construction(rel):
            continue
        edges = rel.edges
        ordered = sorted(edges)
        for c1, c2 in ordered:
            if c1 == c2:
                out.append(Violation("reflexive_edge", a, f"({c1}, {c2})"))
            if (c2, c1) in edges and c1 < c2:
                out.append(Violation("asymmetry", a,
                                     f"both ({c1}, {c2}) and ({c2}, {c1}) present"))
            if c1 not in rel.acceptable or c2 not in rel.acceptable:
                out.append(Violation("edge_outside_acceptable", a, f"({c1}, {c2})"))
        if instance.base:
            out.extend(_transitivity_violations(a, rel.acceptable, edges, ordered))
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
    if rel.prefers(c1, c2):
        return Comparison.PREFERS_FIRST
    if rel.prefers(c2, c1):
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
    return not any(base.relations[a].gains_over(candidate.relations[a])
                   for a in base.agents())


# ---------------------------------------------------------------------------
# tie structure detection


def agent_tie_structure(rel: Relation) -> Optional[tuple[frozenset[Agent], ...]]:
    """The relation's indifference classes, best first, or None if it is not
    shaped as ordered ties.

    A class-built relation without extra comparisons or a met order returns
    its stored ``classes`` tuple itself.  Otherwise only edges between
    acceptable candidates count: a candidate's in-degree is the size of the
    better classes, so grouping by it gives the only possible classes; they
    stand when their cross-class pairs are exactly those edges.
    """
    if not rel.extra and not rel.met and len(rel.level) == len(rel.acceptable):
        return rel.classes
    indegree = dict.fromkeys(rel.acceptable, 0)
    inside = frozenset((hi, lo) for hi, lo in rel.edges
                       if hi in indegree and lo in indegree)
    for _, lo in inside:
        indegree[lo] += 1
    groups: dict[int, list[Agent]] = {}
    for c, d in indegree.items():
        groups.setdefault(d, []).append(c)
    classes = tuple(frozenset(groups[d]) for d in sorted(groups))
    return classes if _class_edges(classes) == inside else None


def detect_tie_structure(
        instance: Instance) -> dict[Agent, Optional[tuple[frozenset[Agent], ...]]]:
    """Each agent's indifference classes, None marking a general partial
    order; a new dict on each call."""
    relations = instance.relations
    return {a: agent_tie_structure(relations[a]) for a in instance.agents()}
