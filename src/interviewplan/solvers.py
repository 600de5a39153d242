"""Exact interview-schedule solvers.

The optimal schedule that makes a target matching super-stable decomposes
into three disjoint parts: every potential blocker pair interviews, every
mandated matched pair interviews, and a minimum vertex cover of the
matched-pair graph chooses which remaining pairs interview.  The cover step
carries all the hardness; structured markets keep it trivial (empty graph,
paths and cycles, or disjoint cliques), and a branch-and-bound solver makes
the general case exact as well.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Sequence

from .blockers import BlockerReport, analyze_blockers, cover_graph
from .errors import InternalAssumptionViolated
from .interviews import apply_interviews
from .model import (
    Instance,
    Matching,
    Pair,
    StrictProfile,
    detect_tie_structure,
)
from .stability import Stability, is_stable, stable_matchings

FALLBACK_PAIR_CAP = 20


class PlanStructure(Enum):
    ONE_SIDE_STRICT = "one_side_strict"
    TIES_AT_MOST_2 = "ties_at_most_2"
    MASTER_TIES = "master_ties"
    GENERAL = "general_exact_vc"


@dataclass(frozen=True)
class InterviewPlan:
    """An optimal interview schedule for one target matching.

    ``cost`` equals the number of interviews, which in turn equals
    ``blocker_count + mandated_count + cover_size``.  ``refined`` is the
    knowledge state after carrying the schedule out; it makes the target
    matching super-stable (verified before the plan is returned).
    ``report`` is the blocker classification the schedule was built from.
    """

    cost: int
    interviews: frozenset[Pair]
    refined: Instance
    report: BlockerReport
    cover_size: int
    structure: PlanStructure

    @property
    def blocker_count(self) -> int:
        return len(self.report.blockers)

    @property
    def mandated_count(self) -> int:
        return len(self.report.mandated_men)

    @property
    def breakdown(self) -> tuple[int, int, int]:
        return (self.blocker_count, self.mandated_count, self.cover_size)


def naive_cost(instance: Instance) -> int:
    """Cost of the all-interviews baseline: one interview per mutually
    acceptable pair."""
    return len(instance.acceptable_pairs())


# ---------------------------------------------------------------------------
# exact minimum vertex cover


def _components(edges: Sequence[tuple]) -> list[tuple[list, list]]:
    """Connected components of the graph the edges span, as sorted
    (vertices, edges) lists; isolated vertices never need covering."""
    adj: dict = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    comp_of: dict = {}
    comps: list = []
    for start in adj:
        if start in comp_of:
            continue
        comp_of[start] = len(comps)
        comp = [start]
        stack = [start]
        while stack:
            for u in adj[stack.pop()]:
                if u not in comp_of:
                    comp_of[u] = len(comps)
                    comp.append(u)
                    stack.append(u)
        comps.append(comp)
    comp_edges: list = [[] for _ in comps]
    for e in edges:
        comp_edges[comp_of[e[0]]].append(e)
    return [(sorted(c), sorted(es)) for c, es in zip(comps, comp_edges)]


def _matching_lower_bound(edges: Iterable[tuple]) -> int:
    used: set = set()
    size = 0
    for u, v in edges:
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            size += 1
    return size


def _bb_cover_size(vertices: Sequence, edges: Sequence[tuple]) -> int:
    """Exact minimum cover size by branch and bound with degree-0 removal,
    degree-1 forcing, and a greedy-matching lower bound."""
    best = len(vertices)

    def solve(adj: dict, picked: int) -> None:
        nonlocal best
        adj = {v: set(ns) for v, ns in adj.items() if ns}
        # force neighbors of pendant vertices into the cover
        changed = True
        while changed:
            changed = False
            for v, ns in list(adj.items()):
                if v in adj and len(adj.get(v, ())) == 1:
                    (u,) = adj[v]
                    picked += 1
                    for x in adj.pop(u, ()):
                        adj[x].discard(u)
                        if not adj[x]:
                            del adj[x]
                    adj.pop(v, None)
                    changed = True
                    break
        if not adj:
            best = min(best, picked)
            return
        remaining_edges = [(u, v) for u in adj for v in adj[u] if u < v]
        if picked + _matching_lower_bound(remaining_edges) >= best:
            return
        u = max(adj, key=lambda v: (len(adj[v]), v))
        # branch 1: take u
        adj1 = {v: set(ns) for v, ns in adj.items()}
        for x in adj1.pop(u):
            adj1[x].discard(u)
        solve(adj1, picked + 1)
        # branch 2: exclude u, so take all of its neighbors
        ns = set(adj[u])
        adj2 = {v: set(xs) for v, xs in adj.items()}
        for x in ns:
            for y in adj2.pop(x, ()):
                if y in adj2:
                    adj2[y].discard(x)
        adj2.pop(u, None)
        solve(adj2, picked + len(ns))

    adj0: dict = {v: set() for v in vertices}
    for u, v in edges:
        adj0[u].add(v)
        adj0[v].add(u)
    solve(adj0, 0)
    return best


def _is_clique(vertices: Sequence, edges: Sequence[tuple]) -> bool:
    n = len(vertices)
    return n >= 2 and len(edges) == n * (n - 1) // 2


def _cover_size(edges: Sequence[tuple]) -> int:
    """Minimum vertex cover size, summed over the connected components.

    Components in which every vertex has degree at most two are paths or
    cycles and need ``ceil(edges / 2)``; clique components need all
    vertices but one; anything else goes to branch and bound.
    """
    total = 0
    for comp_vertices, comp_edges in _components(edges):
        degs = {v: 0 for v in comp_vertices}
        for u, v in comp_edges:
            degs[u] += 1
            degs[v] += 1
        if all(d <= 2 for d in degs.values()):
            total += math.ceil(len(comp_edges) / 2)
        elif _is_clique(comp_vertices, comp_edges):
            total += len(comp_vertices) - 1
        else:
            total += _bb_cover_size(comp_vertices, comp_edges)
    return total


def min_vertex_cover(graph) -> tuple:
    """An exact minimum vertex cover, lexicographically least among the
    minimum covers.

    One greedy walk per connected component, guided by ``_cover_size``.
    With ``k`` the component's minimum cover size, the vertices are visited
    in sorted order.  A vertex with an uncovered edge joins the cover when
    the vertices chosen so far, the vertex itself and a minimum cover of
    the edges still left uncovered total ``k``; otherwise no minimum cover
    extending the choices so far contains it, so all its uncovered
    neighbours join instead.  Vertices with no uncovered edge are skipped.
    A clique's minimum covers are its vertices but one, so its least one
    leaves out the largest vertex, with no walk.
    """
    edges = sorted(tuple(sorted(e)) for e in graph.edges)
    cover: list = []
    for comp_vertices, comp_edges in _components(edges):
        if _is_clique(comp_vertices, comp_edges):
            cover.extend(comp_vertices[:-1])
            continue
        k = _cover_size(comp_edges)
        chosen: list = []
        live = comp_edges
        for v in comp_vertices:
            touching = [e for e in live if v in e]
            if not touching:
                continue
            rest = [e for e in live if v not in e]
            if len(chosen) + 1 + _cover_size(rest) == k:
                chosen.append(v)
                live = rest
            else:
                neighbours = {u for e in touching for u in e} - {v}
                chosen.extend(neighbours)
                live = [e for e in live if not neighbours.intersection(e)]
        if len(chosen) != k:
            raise InternalAssumptionViolated(
                f"greedy cover has {len(chosen)} vertices, the minimum is {k}")
        cover.extend(chosen)
    return tuple(sorted(cover))


# ---------------------------------------------------------------------------
# structure detection


def detect_structure(instance: Instance) -> PlanStructure:
    """Which tractable market shape the instance certifies, if any.

    Checked in order: one side fully strict (every agent's indifference
    classes are singletons), all classes of size at most two, one shared
    class structure per side.
    """
    ties = detect_tie_structure(instance)
    for side in (instance.men(), instance.women()):
        if all(ties[a] is not None and ties[a].max_size() <= 1 for a in side):
            return PlanStructure.ONE_SIDE_STRICT
    if all(t is not None for t in ties.values()):
        if max(t.max_size() for t in ties.values()) <= 2:
            return PlanStructure.TIES_AT_MOST_2
        men_classes = {ties[m].classes for m in instance.men()}
        women_classes = {ties[w].classes for w in instance.women()}
        if len(men_classes) <= 1 and len(women_classes) <= 1:
            return PlanStructure.MASTER_TIES
    return PlanStructure.GENERAL


# ---------------------------------------------------------------------------
# solving


def plan_for_matching(instance: Instance, truth: StrictProfile,
                      matching: Matching) -> InterviewPlan:
    """Minimum-cost interview schedule making the target matching
    super-stable.

    The schedule is the union of all potential blocker pairs, the mandated
    matched pairs, and the matched pairs chosen by a minimum vertex cover
    of the blocker graph.  The resulting knowledge state is re-checked for
    super-stability of the target; if any structural assertion fails the
    solver falls back to exhaustive search (within ``FALLBACK_PAIR_CAP``
    mutually acceptable pairs) rather than return an unverified optimum.
    """
    report = analyze_blockers(instance, truth, matching)
    try:
        return _assemble_plan(instance, truth, matching, report)
    except InternalAssumptionViolated:
        if len(instance.acceptable_pairs()) > FALLBACK_PAIR_CAP:
            raise
        warnings.warn("structural assertion failed; falling back to exhaustive search",
                      RuntimeWarning, stacklevel=2)
        from .oracles import oracle_plan_for_matching

        cost, interviews = oracle_plan_for_matching(instance, truth, matching,
                                                    mode="pure", size_cap=FALLBACK_PAIR_CAP)
        refined = apply_interviews(instance, truth, interviews)
        return InterviewPlan(cost, interviews, refined, report,
                             cost - len(report.blockers) - len(report.mandated_men),
                             PlanStructure.GENERAL)


def _assemble_plan(instance: Instance, truth: StrictProfile,
                   matching: Matching, report: BlockerReport) -> InterviewPlan:
    graph = cover_graph(report, matching)
    cover = min_vertex_cover(graph)
    blocker_pairs = set(report.pairs)
    mandated_pairs = set(report.mandated_pairs(matching))
    cover_pairs = set(cover)
    if (blocker_pairs & mandated_pairs or blocker_pairs & cover_pairs
            or mandated_pairs & cover_pairs):
        raise InternalAssumptionViolated("schedule parts are not disjoint")
    interviews = frozenset(blocker_pairs | mandated_pairs | cover_pairs)
    refined = apply_interviews(instance, truth, interviews)
    if not is_stable(refined, matching, Stability.SUPER):
        raise InternalAssumptionViolated("schedule does not make the target super-stable")
    return InterviewPlan(
        cost=len(interviews),
        interviews=interviews,
        refined=refined,
        report=report,
        cover_size=len(cover_pairs),
        structure=detect_structure(instance),
    )


def best_plan(instance: Instance, truth: StrictProfile,
              size_cap: int = 8) -> tuple[InterviewPlan, Matching]:
    """Cheapest schedule over all admissible target matchings.

    A knowledge state admits a super-stable matching exactly when some
    weakly stable matching of the truth is super-stable in it, so
    minimizing over the truth's stable matchings is exact.
    """
    candidates = stable_matchings(truth, size_cap)
    best: tuple[InterviewPlan, Matching] | None = None
    for mu in candidates:
        plan = plan_for_matching(instance, truth, mu)
        if (best is None
                or (plan.cost, mu.pairs, sorted(plan.interviews))
                < (best[0].cost, best[1].pairs, sorted(best[0].interviews))):
            best = (plan, mu)
    if best is None:
        raise InternalAssumptionViolated("strict profile admits no stable matching")
    return best
