"""Shared enumeration and checking helpers for the test suite."""

import itertools

from interviewplan.blockers import analyze_blockers, is_resolved
from interviewplan.interviews import apply_interviews, interview_cost
from interviewplan.model import Instance, Relation, StrictProfile, man, woman
from interviewplan.solvers import _CoverSearch
from interviewplan.stability import Attitude, Blocking, BlockingPair, Stability, is_stable


def all_2x2_markets():
    """Every 2x2 market: each subset of the four pairs as mutual
    acceptability, every class-shaped knowledge state per agent, every
    consistent truth."""
    men = (man(1), man(2))
    women = (woman(1), woman(2))
    all_pairs = [(m, w) for m in men for w in women]
    for mask in range(16):
        accepted = [p for i, p in enumerate(all_pairs) if mask >> i & 1]
        acc = {a: set() for a in men + women}
        for m, w in accepted:
            acc[m].add(w)
            acc[w].add(m)
        agents = list(men + women)
        per_agent_states = []
        for a in agents:
            mine = sorted(acc[a])
            if len(mine) < 2:
                states = [(frozenset(), (tuple(mine),))]
            else:
                c1, c2 = mine
                states = [
                    (frozenset(), ((c1, c2),)),            # cannot compare
                    (frozenset({(c1, c2)}), ((c1, c2),)),  # strict
                    (frozenset({(c2, c1)}), ((c2, c1),)),  # strict, reversed
                ]
            per_agent_states.append(states)
        for combo in itertools.product(*per_agent_states):
            rels = {a: Relation(a, frozenset(acc[a]), combo[i][0])
                    for i, a in enumerate(agents)}
            inst = Instance(2, 2, rels)
            truth_options = []
            for i, a in enumerate(agents):
                edges, orders = combo[i]
                if edges or len(acc[a]) < 2:
                    truth_options.append(orders)
                else:
                    c1, c2 = sorted(acc[a])
                    truth_options.append(((c1, c2), (c2, c1)))
            for ranking in itertools.product(*truth_options):
                truth = StrictProfile(dict(zip(agents, ranking)))
                yield inst, truth


def edge_twin(instance):
    """The instance with every relation rebuilt from its literal edge set,
    with no classes."""
    return Instance(instance.n_men, instance.n_women,
                    {a: Relation(a, r.acceptable, r.edges)
                     for a, r in instance.relations.items()},
                    base=instance.base)


def _spec_attitude(edges, candidate, partner):
    if partner is None:
        return Attitude.UNMATCHED
    if (candidate, partner) in edges:
        return Attitude.STRICTLY_PREFERS
    if (partner, candidate) in edges:
        return Attitude.PREFERS_PARTNER
    return Attitude.CANNOT_COMPARE


def spec_blocking_pairs(instance, matching, level):
    """Every acceptable unmatched pair blocking at the level, from the
    definitions: each member's attitude is read from literal membership in
    its edge set, and no member may prefer its partner; a very weak blocker
    needs nothing more, a weak one one keen member (unmatched or strictly
    preferring), a strong one two."""
    edges = {a: r.edges for a, r in instance.relations.items()}
    keen = (Attitude.UNMATCHED, Attitude.STRICTLY_PREFERS)
    out = []
    for m, w in instance.acceptable_pairs():
        if matching.partner(m) == w:
            continue
        man_att = _spec_attitude(edges[m], w, matching.partner(m))
        woman_att = _spec_attitude(edges[w], m, matching.partner(w))
        if Attitude.PREFERS_PARTNER in (man_att, woman_att):
            continue
        keen_count = (man_att in keen) + (woman_att in keen)
        if (level == Blocking.VERY_WEAK or (level == Blocking.WEAK and keen_count)
                or keen_count == 2):
            out.append(BlockingPair(m, w, level, man_att, woman_att))
    return tuple(out)


def check_resolution_equivalence(inst, truth, mu):
    """Over every interview subset: the target is super-stable exactly when
    no pair very weakly blocks it by :func:`spec_blocking_pairs`, a
    potential blocker is resolved exactly when the spec no longer lists it,
    and each super-stabilizing subset recovers all forced interviews.
    Returns the number of subsets tried."""
    report = analyze_blockers(inst, truth, mu)
    mandatory = frozenset(report.pairs) | frozenset(report.mandated_pairs(mu))
    pairs = sorted(inst.acceptable_pairs())
    tried = 0
    for k in range(len(pairs) + 1):
        for chosen in itertools.combinations(pairs, k):
            refined = apply_interviews(inst, truth, frozenset(chosen))
            blocking = {(b.man, b.woman)
                        for b in spec_blocking_pairs(refined, mu, Blocking.VERY_WEAK)}
            super_ok = is_stable(refined, mu, Stability.SUPER)
            assert super_ok == (not blocking), (chosen, super_ok, blocking)
            for b in report.blockers:
                assert is_resolved(refined, b, mu) == (b.pair not in blocking), (chosen, b)
            # interviews only add comparisons, so no blocker appears outside the report
            assert blocking <= set(report.pairs), (chosen, blocking)
            if super_ok:
                _, recovered = interview_cost(inst, refined)
                assert mandatory <= recovered, (chosen, mandatory, recovered)
            tried += 1
    return tried


def search_cover_size(vertices, edges):
    """Minimum vertex cover size of the graph the edges span over the sorted
    vertices, by the solver's memoized search."""
    search = _CoverSearch()
    return search.size(search.load(vertices, edges))


def _matching_lower_bound(edges):
    used = set()
    size = 0
    for u, v in edges:
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            size += 1
    return size


def bb_cover_size(vertices, edges):
    """Exact minimum cover size by branch and bound with degree-0 removal,
    degree-1 forcing, and a greedy-matching lower bound: the solver's
    search before it was memoized, kept as the mid-size reference."""
    best = len(vertices)

    def solve(adj, picked):
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

    adj0 = {v: set() for v in vertices}
    for u, v in edges:
        adj0[u].add(v)
        adj0[v].add(u)
    solve(adj0, 0)
    return best
