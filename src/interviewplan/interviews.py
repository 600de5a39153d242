"""Interview semantics: applying interview sets to an instance, recognizing
which refinements a set of interviews can produce, and recovering the
minimum interview set behind a given refinement.

An interview pairs one man with one woman and informs both.  After an agent
has interviewed two or more candidates, the agent knows its true strict
order over exactly those candidates; an agent who interviewed a single
candidate learns nothing usable.  The refined knowledge state keeps the
literal set of learned comparisons (no transitive closure).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import NotARefinement, NotInterviewCompatible, TruthInconsistent, UnacceptablePair
from .model import (
    Agent,
    Instance,
    Pair,
    Relation,
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


def _interviewed(interviews: frozenset[Pair]) -> dict[Agent, list[Agent]]:
    met: dict[Agent, list[Agent]] = {}
    for m, w in sorted(interviews):
        met.setdefault(m, []).append(w)
        met.setdefault(w, []).append(m)
    return met


def _apply_unchecked(instance: Instance, truth: StrictProfile,
                     interviews: frozenset[Pair]) -> Instance:
    # Hot path shared with the brute-force oracles: preconditions are the
    # caller's responsibility.
    met = _interviewed(interviews)
    rels = dict(instance.relations)
    for a, cands in met.items():
        if len(cands) < 2:
            continue
        ordered = sorted(cands, key=lambda c: truth.rank(a, c))
        rel = rels[a]
        rels[a] = Relation(a, rel.acceptable,
                           rel.edges.union(itertools.combinations(ordered, 2)))
    return Instance(instance.n_men, instance.n_women, rels, base=False)


def apply_interviews(instance: Instance, truth: StrictProfile,
                     interviews: frozenset[Pair]) -> Instance:
    """The knowledge state after carrying out the given interviews.

    Every agent that interviewed two or more candidates gains the true
    comparison for each pair of them; agents who interviewed at most one
    candidate are unchanged.  Raises :class:`TruthInconsistent` when the
    profile does not refine the instance and :class:`UnacceptablePair` for
    an interview between agents that do not find each other acceptable.
    """
    if not truth.refines(instance):
        raise TruthInconsistent("strict profile does not refine the instance")
    for m, w in interviews:
        m, w = couple(m, w)
        if (w not in instance.relations[m].acceptable
                or m not in instance.relations[w].acceptable):
            raise UnacceptablePair(f"{m} and {w} are not mutually acceptable")
    return _apply_unchecked(instance, truth, frozenset(couple(*p) for p in interviews))


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
        new_edges = refined.relations[a].edges - base.relations[a].edges
        s = set()
        for c1, c2 in new_edges:
            s.add(c1)
            s.add(c2)
        endpoints[a] = frozenset(s)
        if offender is None:
            members = sorted(s)
            rel = refined.relations[a]
            for i, c1 in enumerate(members):
                for c2 in members[i + 1:]:
                    if not rel.comparable(c1, c2):
                        offender = (a, (c1, c2))
                        break
                if offender:
                    break
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
