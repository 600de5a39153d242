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
from operator import itemgetter
from typing import Mapping, NamedTuple, Optional

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
from .stability import _true_cut, _very_weak_rows, check_matching, weakly_stable_under


class PotentialBlocker(NamedTuple):
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
        return tuple(map(itemgetter(0, 1), self.blockers))

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

    # Classified row by row: the man's true cut is read once per row and
    # each woman's once per call.  Each blocker is built by the C-level
    # tuple constructor, skipping the NamedTuple's Python-level ``__new__``.
    new = tuple.__new__
    blockers: list[PotentialBlocker] = []
    mutual: list[PotentialBlocker] = []
    admirers: dict[Agent, set[Agent]] = {}
    cuts: dict[Agent, tuple[Mapping[Agent, int], int]] = {}
    for m, row in _very_weak_rows(instance, matching):
        ranks_m, cut_m = _true_cut(truth, matching, m)
        fans_m = None  # the women in this row who truly prefer m
        for w in row:
            ranks_w, cut_w = cuts.get(w) or cuts.setdefault(w, _true_cut(truth, matching, w))
            woman_keen = ranks_w[m] < cut_w
            if ranks_m[w] < cut_m:
                if woman_keen:
                    # would be a strong blocker of the truth, excluded above
                    raise InternalAssumptionViolated(f"({m}, {w}) blocks the truth")
                blockers.append(new(PotentialBlocker, (m, w, 1, MAN)))
                fans_w = admirers.get(w)
                if fans_w is None:
                    admirers[w] = {m}
                else:
                    fans_w.add(m)
            elif woman_keen:
                blockers.append(new(PotentialBlocker, (m, w, 1, WOMAN)))
                if fans_m is None:
                    fans_m = admirers[m] = set()
                fans_m.add(w)
            else:
                b = new(PotentialBlocker, (m, w, 2, None))
                blockers.append(b)
                mutual.append(b)
    admirer_map = {a: frozenset(cs) for a, cs in admirers.items()}

    for a in admirer_map:
        if matching.partner(a) is None:
            raise InternalAssumptionViolated(
                f"unmatched agent {a} cannot settle a one-sided blocker")

    mandated = set()
    for m, w in matching.pairs:
        if admirer_map.get(m) or admirer_map.get(w):
            mandated.add(m)

    open_mutual = tuple(b for b in mutual if b.man not in mandated
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
    own partner to the other member.  Each member's open set is built as
    the scan builds it, so the test costs one set per member, not a scan."""
    m, w = blocker.pair
    relations, partner = refined.relations, matching.partner
    return (w not in relations[m].open_to(partner(m))
            or m not in relations[w].open_to(partner(w)))
