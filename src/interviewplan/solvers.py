"""Exact interview-schedule solvers.

The optimal schedule that makes a target matching super-stable decomposes
into three disjoint parts: every potential blocker pair interviews, every
mandated matched pair interviews, and a minimum vertex cover of the
matched-pair graph chooses which remaining pairs interview.  The cover step
carries all the hardness.  Structured markets keep it trivial (an empty
graph, paths and cycles, or disjoint cliques).  In general one exact size
search per call guides a greedy walk through each component to the
lexicographically least minimum cover.  The search works on bitmask vertex
sets: reductions from a worklist (degree 0, degree 1, degree 2 in a
triangle), a split into components, closed forms for paths, cycles and
cliques, and branching on a vertex of highest degree, with every size
memoized for the length of the call.  It runs from an explicit stack and
gives up with ``SizeLimitExceeded`` after ``COVER_NODE_BUDGET`` search
nodes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Collection, Generator, Iterator

from .blockers import BlockerReport, analyze_blockers, cover_graph
from .errors import InternalAssumptionViolated, SizeLimitExceeded
from .interviews import apply_interviews
from .model import (
    Instance,
    Matching,
    Pair,
    StrictProfile,
    detect_tie_structure,
)
from .oracles import stable_matchings  # the candidate screen, until a polynomial one
from .stability import Stability, is_stable

# search nodes one min_vertex_cover call may expand before it gives up
COVER_NODE_BUDGET = 250_000


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
    acceptable pair, counted without listing the pairs."""
    return instance.pair_count()


# ---------------------------------------------------------------------------
# exact minimum vertex cover


class _CoverSearch:
    """Exact minimum vertex cover sizes of the subgraphs that vertex sets of
    one graph induce.

    The constructor indexes the sorted endpoints of the edges: ``adj[i]`` is
    the bitmask of vertex ``i``'s neighbours, a vertex set is an int
    bitmask, and ``full`` is the set of every vertex.  ``size(s)`` is the
    minimum cover size of the subgraph ``s`` induces, memoized by ``s`` for
    the life of the search.  A query first applies the reductions: drop
    degree-0 vertices, and take the neighbours of a degree-1 vertex or of a
    degree-2 vertex in a triangle, as some minimum cover does.  It then
    splits what is left into ``components``.  A component whose degrees are
    all at most two needs ``ceil(edges / 2)``, a clique all its vertices but
    one; otherwise the search branches on a vertex ``v`` of highest degree:
    take ``v``, or take its neighbours.  Each search node is a generator
    that yields the vertex sets it needs the sizes of, driven from an
    explicit stack, so a deep search never recurses.  Every node expanded
    since construction counts against ``COVER_NODE_BUDGET``.
    """

    def __init__(self, edges: Collection[tuple]):
        self.nodes_left = COVER_NODE_BUDGET
        self.vertices = sorted({v for e in edges for v in e})
        index = {v: i for i, v in enumerate(self.vertices)}
        adj = [0] * len(index)
        for u, v in edges:
            adj[index[u]] |= 1 << index[v]
            adj[index[v]] |= 1 << index[u]
        self.adj = adj
        self.full = (1 << len(adj)) - 1
        self.memo: dict[int, int] = {}

    def members(self, s: int) -> list:
        """The vertices of the set ``s``, in sorted order."""
        return [v for i, v in enumerate(self.vertices) if s >> i & 1]

    def components(self, s: int) -> Iterator[int]:
        """The connected components of the subgraph ``s`` induces."""
        adj = self.adj
        while s:
            comp = frontier = s & -s
            while frontier:
                reach = 0
                while frontier:
                    low = frontier & -frontier
                    frontier ^= low
                    reach |= adj[low.bit_length() - 1]
                frontier = reach & s & ~comp
                comp |= frontier
            s ^= comp
            yield comp

    def size(self, s: int) -> int:
        memo = self.memo
        if s in memo:
            return memo[s]
        stack = [self._expand(s, s)]
        value = None
        while stack:
            key, node = stack[-1]
            try:
                sub, work = node.send(value)
            except StopIteration as done:
                stack.pop()
                value = memo[key] = done.value
                continue
            value = memo.get(sub)
            if value is None:
                stack.append(self._expand(sub, work))
        return value

    def _expand(self, s: int, work: int) -> tuple[int, Generator]:
        self.nodes_left -= 1
        if self.nodes_left < 0:
            raise SizeLimitExceeded(
                f"vertex cover search exceeded its budget of {COVER_NODE_BUDGET} nodes")
        return s, self._node(s, work)

    def _node(self, whole: int, work: int) -> Generator[tuple[int, int], int, int]:
        """The search node of the vertex set ``whole``: yields each vertex
        set it needs the size of, with the vertices whose degree may have
        changed since the reductions last ran, and returns the size."""
        adj = self.adj
        s = whole
        taken = 0
        while work:
            low = work & -work
            work ^= low
            if not s & low:
                continue
            nbrs = adj[low.bit_length() - 1] & s
            degree = nbrs.bit_count()
            if degree == 0:
                s ^= low
            elif degree == 1 or (degree == 2 and adj[(nbrs & -nbrs).bit_length() - 1] & nbrs):
                taken += degree
                s &= ~(nbrs | low)
                while nbrs:
                    w = nbrs & -nbrs
                    nbrs ^= w
                    work |= adj[w.bit_length() - 1] & s
        for comp in self.components(s):
            if comp != whole:
                # reduced and connected: a query of its own, memoized
                taken += yield comp, 0
                continue
            # irreducible and connected: a closed form, or branch
            n = degree_sum = 0
            top = -1
            bits = comp
            while bits:
                low = bits & -bits
                bits ^= low
                degree = (adj[low.bit_length() - 1] & comp).bit_count()
                n += 1
                degree_sum += degree
                if degree > top:
                    top, v = degree, low
            edges = degree_sum // 2
            if top <= 2:
                return (edges + 1) // 2
            if edges == n * (n - 1) // 2:
                return n - 1
            nbrs = adj[v.bit_length() - 1] & comp
            best = 1 + (yield comp ^ v, nbrs)
            # leaving v out takes its top neighbours, so it can only win below best
            if top < best:
                left = comp & ~(nbrs | v)
                touched = 0
                while nbrs:
                    low = nbrs & -nbrs
                    nbrs ^= low
                    touched |= adj[low.bit_length() - 1]
                best = min(best, top + (yield left, touched & left))
            return best
        return taken


def min_vertex_cover(graph) -> tuple:
    """An exact minimum vertex cover, lexicographically least among the
    minimum covers.

    One ``_CoverSearch`` over the graph, whose memo lasts the call, guides
    one greedy walk per connected component.  With ``k`` the component's
    minimum cover size, the vertices are visited in sorted order and ``s``
    holds those not yet decided.  A vertex ``v`` with a neighbour in ``s``
    joins the cover when the vertices chosen so far, ``v`` itself and a
    minimum cover of ``s - v`` total ``k``; otherwise no minimum cover
    extending the choices so far contains it, so its neighbours in ``s``
    join instead.  A vertex with none is skipped.  A clique's minimum
    covers are its vertices but one, so its least one leaves out the
    largest vertex, with no search node.

    Raises ``SizeLimitExceeded`` when the call expands more than
    ``COVER_NODE_BUDGET`` search nodes.
    """
    search = _CoverSearch(graph.edges)
    adj = search.adj
    cover = 0
    for comp in search.components(search.full):
        bits = comp
        while bits:
            low = bits & -bits
            if adj[low.bit_length() - 1] | low != comp:
                break
            bits ^= low
        if not bits:
            # a clique: every vertex but the highest
            cover |= comp ^ (1 << comp.bit_length() - 1)
            continue
        k = search.size(comp)
        # every vertex below the lowest undecided one has been decided
        s = comp
        chosen = 0
        while s:
            low = s & -s
            s ^= low
            nbrs = adj[low.bit_length() - 1] & s
            if not nbrs:
                continue
            if chosen.bit_count() + 1 + search.size(s) == k:
                chosen |= low
            else:
                s &= ~nbrs
                chosen |= nbrs
        if chosen.bit_count() != k:
            raise InternalAssumptionViolated(
                f"greedy cover has {chosen.bit_count()} vertices, the minimum is {k}")
        cover |= chosen
    return tuple(search.members(cover))


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
        if all(ties[a] is not None and max(map(len, ties[a]), default=0) <= 1
               for a in side):
            return PlanStructure.ONE_SIDE_STRICT
    if None not in ties.values():
        if all(max(map(len, classes), default=0) <= 2 for classes in ties.values()):
            return PlanStructure.TIES_AT_MOST_2
        men_classes = {ties[m] for m in instance.men()}
        women_classes = {ties[w] for w in instance.women()}
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
    super-stability of the target.  A failed structural assertion raises
    ``InternalAssumptionViolated``, and a cover search past
    ``COVER_NODE_BUDGET`` nodes raises ``SizeLimitExceeded``; nothing falls
    back to another solver.
    """
    report = analyze_blockers(instance, truth, matching)
    graph = cover_graph(report, matching)
    cover = min_vertex_cover(graph)
    blocker_pairs = set(report.pairs)
    mandated_pairs = set(report.mandated_pairs(matching))
    cover_pairs = set(cover)
    if (blocker_pairs & mandated_pairs or blocker_pairs & cover_pairs
            or mandated_pairs & cover_pairs):
        raise InternalAssumptionViolated("schedule parts are not disjoint")
    # one insertion per pair, reusing the hashes each part has stored
    interviews = frozenset().union(blocker_pairs, mandated_pairs, cover_pairs)
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
    minimizing over the truth's stable matchings is exact.  The candidates
    come from the oracles' exhaustive screen, capped at ``size_cap`` agents
    per side, until a polynomial enumeration of the stable matchings
    replaces it.
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
