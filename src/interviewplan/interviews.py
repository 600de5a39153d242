"""Interview semantics: applying interview sets to an instance, recognizing
which refinements a set of interviews can produce, and recovering the
minimum interview set behind a given refinement.

An interview pairs one man with one woman and informs both.  After an agent
has interviewed two or more candidates, the agent knows its true strict
order over exactly those candidates; an agent who interviewed a single
candidate learns nothing usable.  The refined knowledge state keeps the
learned order, the true order over the candidates met (no transitive
closure); ``.edges`` still reads as its pairs.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from typing import AbstractSet, Mapping, Optional

from .errors import NotARefinement, NotInterviewCompatible, TruthInconsistent, UnacceptablePair
from .model import (
    Agent,
    Instance,
    Pair,
    StrictProfile,
    couple,
    is_refinement,
)

@dataclass(frozen=True)
class CompatibilityWitness:
    """Outcome of the interview-compatibility check.

    ``endpoints`` maps each agent to the set of candidates incident to a
    comparison that is new relative to the base instance.  For a compatible
    refinement each such set is fully comparable in the refined relation;
    otherwise ``offender`` names the first agent and candidate pair that
    breaks the requirement.
    """

    compatible: bool
    endpoints: Mapping[Agent, frozenset[Agent]]
    offender: Optional[tuple[Agent, Pair]] = None


def _learned(instance: Instance, truth: StrictProfile,
             met: Mapping[Agent, AbstractSet[Agent]]) -> Instance:
    # The learn core behind both applies: the truth teaches each agent the
    # candidates it met, which it must rank, as ``refines`` guarantees.
    rels = dict(instance.relations)
    teach = truth.teach
    for a, cands in met.items():
        rels[a] = teach(rels[a], cands)
    return Instance(instance.n_men, instance.n_women, rels, base=False)


def _apply_unchecked(instance: Instance, truth: StrictProfile,
                     interviews: frozenset[Pair]) -> Instance:
    # Hot path shared with the brute-force oracles: preconditions are the
    # caller's responsibility, as in ``_learned``.
    met: defaultdict[Agent, set[Agent]] = defaultdict(set)
    for m, w in interviews:
        met[m].add(w)
        met[w].add(m)
    return _learned(instance, truth, met)


def apply_interviews(instance: Instance, truth: StrictProfile,
                     interviews: frozenset[Pair]) -> Instance:
    """The knowledge state after carrying out the given interviews.

    Every agent that interviewed two or more candidates gains the true
    comparison for each pair of them; agents who interviewed at most one
    candidate are unchanged.  Raises :class:`TruthInconsistent` when the
    profile does not refine the instance, :class:`UnacceptablePair` for
    an interview between agents that do not find each other acceptable
    and ``ValueError`` for a pair of agents on one side.  The interviews
    are grouped by agent in one pass, and each agent's group is checked
    against its acceptable set with one subset test.
    """
    if not truth.refines(instance):
        raise TruthInconsistent("strict profile does not refine the instance")
    met: defaultdict[Agent, set[Agent]] = defaultdict(set)
    for pair in interviews:
        a, b = pair
        if a.side == b.side:
            raise ValueError(f"pair {a}, {b} is not a man-woman pair")
        met[a].add(b)
        met[b].add(a)
    relations = instance.relations
    for a, cands in met.items():
        rel = relations.get(a)  # None for an agent outside the declared counts
        acceptable = rel.acceptable if rel is not None else frozenset()
        if not cands <= acceptable:
            m, w = couple(a, min(cands - acceptable))
            raise UnacceptablePair(f"{m} and {w} are not mutually acceptable")
    return _learned(instance, truth, met)


def interview_compatibility(base: Instance, refined: Instance) -> CompatibilityWitness:
    """Decide whether some interview set can turn ``base`` into ``refined``.

    The refinement is reachable exactly when, for every agent, the
    endpoints of its new comparisons are pairwise comparable in the refined
    relation: an agent who learned anything about a candidate must have met
    that candidate, and agents rank everyone they met.
    """
    if not is_refinement(base, refined):
        raise NotARefinement("refined instance drops comparisons of the base")
    endpoints: dict[Agent, frozenset[Agent]] = {}
    offender = None
    for a in base.agents():
        rel = refined.relations[a]
        ends = endpoints[a] = frozenset(itertools.chain.from_iterable(
            rel.gains_over(base.relations[a])))
        if offender is None:
            offender = next(((a, pair) for pair in itertools.combinations(sorted(ends), 2)
                             if not rel.comparable(*pair)), None)
    return CompatibilityWitness(offender is None, endpoints, offender)


def interview_cost(base: Instance, refined: Instance) -> tuple[int, frozenset[Pair]]:
    """Minimum number of interviews producing ``refined`` from ``base``,
    together with the unique minimal interview set.

    Each comparison an agent gained forces an interview with both of its
    endpoints; collecting these over all agents and counting unordered
    man-woman pairs once gives the cost.
    """
    witness = interview_compatibility(base, refined)
    if not witness.compatible:
        raise NotInterviewCompatible(
            f"not reachable by interviews: agent {witness.offender[0]} "
            f"has incomparable endpoints {witness.offender[1]}")
    pairs: set[Pair] = set()
    for a in base.agents():
        for c in witness.endpoints[a]:
            pairs.add(couple(a, c))
    return len(pairs), frozenset(pairs)
