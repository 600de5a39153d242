"""Classification of potential blockers of a target matching and the graph
whose minimum vertex cover completes the optimal interview schedule.

Given a knowledge state, the true preferences and a target matching that is
weakly stable under the truth, every pair that very weakly blocks the
matching must eventually be ruled out by interviews.  Pairs split by
degree: a degree-1 blocker has exactly one member truly preferring the
other to its own partner, so only the reluctant member can settle it;
in a degree-2 blocker both members truly prefer their partners, so either
side can settle it.  Degree-1 blockers force the reluctant member's matched
pair to interview; the remaining degree-2 blockers connect matched pairs in
a graph, and choosing which matched pairs interview is exactly a vertex
cover problem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional

from .errors import (
    InternalAssumptionViolated,
    MatchingNotWeaklyStable,
    TruthInconsistent,
)
from .model import (
    MAN,
    WOMAN,
    Agent,
    Instance,
    Matching,
    Pair,
    StrictProfile,
)
from .stability import _very_weak_blockers, check_matching, weakly_stable_under


@dataclass(frozen=True)
class PotentialBlocker:
    """A very weak blocking pair of the target matching, classified by how
    it can be settled.

    ``degree`` is 1 when exactly one member truly prefers the other to its
    partner (that member is the ``keen_side``) and 2 when both members
    truly prefer their partners.  An unmatched member counts as truly
    preferring every acceptable candidate.
    """

    man: Agent
    woman: Agent
    degree: int
    keen_side: Optional[str] = None

    @property
    def pair(self) -> Pair:
        return (self.man, self.woman)


@dataclass(frozen=True)
class BlockerReport:
    """Full classification of the potential blockers of one matching.

    ``admirers`` maps an agent ``a`` to the candidates that truly prefer
    ``a`` to their partners within a degree-1 blocker; any such agent must
    interview its own partner to settle those pairs.  ``mandated_men``
    lists the men whose matched pair is forced to interview because either
    member has admirers.  ``open_mutual`` holds the degree-2 blockers not
    already settled by those forced interviews.
    """

    blockers: tuple[PotentialBlocker, ...]
    admirers: Mapping[Agent, frozenset[Agent]]
    mandated_men: frozenset[Agent]
    open_mutual: tuple[PotentialBlocker, ...]

    @property
    def pairs(self) -> tuple[Pair, ...]:
        return tuple(b.pair for b in self.blockers)

    @property
    def degree1(self) -> tuple[PotentialBlocker, ...]:
        return tuple(b for b in self.blockers if b.degree == 1)

    @property
    def degree2(self) -> tuple[PotentialBlocker, ...]:
        return tuple(b for b in self.blockers if b.degree == 2)

    def mandated_pairs(self, matching: Matching) -> tuple[Pair, ...]:
        return tuple(sorted((m, matching.partner(m)) for m in self.mandated_men))


@dataclass(frozen=True)
class CoverGraph:
    """Graph on matched pairs induced by the open degree-2 blockers.

    Two matched pairs are adjacent when a blocker joins a member of one to
    the partner in the other; settling that blocker requires one of the two
    matched pairs to interview.  Vertices of degree zero are dropped.
    ``provenance`` records, per edge, the blocker pairs that induced it.
    """

    vertices: tuple[Pair, ...]
    edges: tuple[tuple[Pair, Pair], ...]
    provenance: Mapping[tuple[Pair, Pair], tuple[Pair, ...]]

    def degree(self, v: Pair) -> int:
        return sum(1 for e in self.edges if v in e)


def _truly_prefers(truth: StrictProfile, agent: Agent, candidate: Agent,
                   matching: Matching) -> bool:
    partner = matching.partner(agent)
    if partner is None:
        return True
    return truth.prefers(agent, candidate, partner)


def analyze_blockers(instance: Instance, truth: StrictProfile,
                     matching: Matching) -> BlockerReport:
    """Classify every potential blocker of the matching and derive the
    forced-interview sets.

    Requires the profile to refine the instance and the matching to be
    weakly stable under the profile; both are checked.
    """
    if not truth.refines(instance):
        raise TruthInconsistent("strict profile does not refine the instance")
    check_matching(instance, matching)
    if not weakly_stable_under(truth, matching):
        raise MatchingNotWeaklyStable(
            "target matching has a blocking pair under the true preferences")

    blockers = []
    for m, w in _very_weak_blockers(instance, matching, instance.acceptable_pairs()):
        man_keen = _truly_prefers(truth, m, w, matching)
        woman_keen = _truly_prefers(truth, w, m, matching)
        if man_keen and woman_keen:
            # would be a strong blocker of the truth, excluded above
            raise InternalAssumptionViolated(f"({m}, {w}) blocks the truth")
        if man_keen or woman_keen:
            blockers.append(PotentialBlocker(m, w, 1, MAN if man_keen else WOMAN))
        else:
            blockers.append(PotentialBlocker(m, w, 2))

    admirers: dict[Agent, set[Agent]] = {}
    for b in blockers:
        if b.degree != 1:
            continue
        keen, other = ((b.man, b.woman) if b.keen_side == MAN else (b.woman, b.man))
        admirers.setdefault(other, set()).add(keen)
    admirer_map = {a: frozenset(cs) for a, cs in admirers.items()}

    for a in admirer_map:
        if matching.partner(a) is None:
            raise InternalAssumptionViolated(
                f"unmatched agent {a} cannot settle a one-sided blocker")

    mandated = set()
    for m, w in matching.pairs:
        if admirer_map.get(m) or admirer_map.get(w):
            mandated.add(m)

    open_mutual = tuple(
        b for b in blockers
        if b.degree == 2
        and b.man not in mandated
        and matching.partner(b.woman) not in mandated)

    return BlockerReport(tuple(blockers), admirer_map, frozenset(mandated), open_mutual)


def cover_graph(report: BlockerReport, matching: Matching) -> CoverGraph:
    """Build the matched-pair graph whose minimum vertex cover finishes the
    schedule, dropping isolated vertices."""
    edges: dict[tuple[Pair, Pair], list[Pair]] = {}
    for b in report.open_mutual:
        v1 = (b.man, matching.partner(b.man))
        v2 = (matching.partner(b.woman), b.woman)
        edge = (v1, v2) if v1 <= v2 else (v2, v1)
        edges.setdefault(edge, []).append(b.pair)
    touched = sorted({v for e in edges for v in e})
    for m, _ in touched:
        if m in report.mandated_men:
            raise InternalAssumptionViolated(
                f"cover graph vertex for mandated man {m}")
    return CoverGraph(
        tuple(touched),
        tuple(sorted(edges)),
        {e: tuple(sorted(ps)) for e, ps in edges.items()},
    )


def format_blocker_report(report: BlockerReport, matching: Matching) -> str:
    """Human-readable summary of the analysis, ending with the cover graph
    as an adjacency listing (one ``vertex: neighbors`` line per vertex)."""
    lines = [f"potential blockers: {len(report.blockers)} "
             f"(degree-1: {len(report.degree1)}, degree-2: {len(report.degree2)})"]
    for b in report.blockers:
        tail = f" (keen side: {b.keen_side})" if b.degree == 1 else ""
        lines.append(f"  {b.man} {b.woman}: degree {b.degree}{tail}")
    if report.admirers:
        lines.append("admirers:")
        for a in sorted(report.admirers):
            names = " ".join(str(c) for c in sorted(report.admirers[a]))
            lines.append(f"  {a}: {names}")
    mandated = report.mandated_pairs(matching)
    lines.append("mandated pairs: "
                 + ("; ".join(f"{m} {w}" for m, w in mandated) or "(none)"))
    graph = cover_graph(report, matching)
    lines.append(f"cover graph: {len(graph.vertices)} vertices, "
                 f"{len(graph.edges)} edges")
    adjacency: dict[Pair, list[Pair]] = {v: [] for v in graph.vertices}
    for u, v in graph.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    for v in graph.vertices:
        names = " ".join(f"({m} {w})" for m, w in sorted(adjacency[v]))
        lines.append(f"  ({v[0]} {v[1]}): {names}")
    return "\n".join(lines) + "\n"


def is_resolved(refined: Instance, blocker: PotentialBlocker,
                matching: Matching) -> bool:
    """True when the blocker no longer very weakly blocks the matching in
    the refined knowledge state: a matched member now provably prefers its
    own partner to the other member."""
    return not any(_very_weak_blockers(refined, matching, (blocker.pair,)))
