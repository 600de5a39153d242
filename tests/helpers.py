"""Shared enumeration and checking helpers for the test suite."""

import itertools
from random import Random

from hypothesis import strategies as st

from interviewplan.blockers import BlockerReport, PotentialBlocker, analyze_blockers, is_resolved
from interviewplan.generators import SimpleGraph, _random_mutual
from interviewplan.interviews import apply_interviews, interview_cost
from interviewplan.model import (
    MAN,
    WOMAN,
    Instance,
    Matching,
    Relation,
    StrictProfile,
    ValidationReport,
    Violation,
    man,
    tie_relation,
    woman,
)
from interviewplan.solvers import PlanStructure, _CoverSearch
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


def reference_partition(rng, items, cap):
    """The items shuffled, then cut into classes of ``rng.randint(1, cap)``
    members, fewer at the end, drawn by ``Random``'s own methods."""
    pool = list(items)
    rng.shuffle(pool)
    out = []
    while pool:
        size = rng.randint(1, min(cap, len(pool)))
        out.append(pool[:size])
        pool = pool[size:]
    return out


def reference_generate(family, *, n, seed, tiers=None, tie_cap=3, density=1.0):
    """Reference for ``generate`` on valid parameters: the same class lists
    from the same random stream, drawn by ``Random.shuffle`` and
    ``Random.randint``, then a ``tie_relation`` built for every agent and a
    shuffle of every class, one-member classes included."""
    rng = Random(seed)
    men_list = [man(i) for i in range(1, n + 1)]
    women_list = [woman(j) for j in range(1, n + 1)]
    if family == "tiered":
        sizes = list(tiers) if tiers is not None else [n]
        bounds = list(itertools.accumulate(sizes, initial=1))
        blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        men_classes = [[woman(j) for j in b] for b in blocks]
        women_classes = [[man(i) for i in b] for b in blocks]
        classes = {a: men_classes for a in men_list}
        classes.update({a: women_classes for a in women_list})
    elif family == "master_ties":
        men_classes = reference_partition(rng, women_list, tie_cap)
        women_classes = reference_partition(rng, men_list, tie_cap)
        classes = {a: men_classes for a in men_list}
        classes.update({a: women_classes for a in women_list})
    else:
        acceptable = _random_mutual(rng, men_list, women_list, density)
        classes = {}
        for a in men_list + women_list:
            mine = sorted(acceptable[a])
            if family == "one_side_strict" and a.side == WOMAN:
                rng.shuffle(mine)
                classes[a] = [[c] for c in mine]
            else:
                classes[a] = reference_partition(rng, mine, tie_cap)
    rels, ranking = {}, {}
    for a in men_list + women_list:
        rels[a] = tie_relation(a, classes[a])
        order = []
        for group in classes[a]:
            members = list(group)
            rng.shuffle(members)
            order.extend(members)
        ranking[a] = tuple(order)
    return Instance(n, n, rels), StrictProfile(ranking)


def reference_bounded_graph(n, max_degree, seed):
    """Reference for ``random_bounded_graph``: the same greedy pass over
    the pairs, shuffled and counted by ``Random``'s own methods."""
    rng = Random(seed)
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    rng.shuffle(pairs)
    target = rng.randint(0, n * max_degree // 2)
    deg = dict.fromkeys(range(1, n + 1), 0)
    chosen = set()
    for u, v in pairs:
        if len(chosen) == target:
            break
        if deg[u] < max_degree and deg[v] < max_degree:
            chosen.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return SimpleGraph(n, frozenset(chosen))


def edge_twin(instance):
    """The instance with every relation rebuilt from its literal edge set,
    with no classes."""
    return Instance(instance.n_men, instance.n_women,
                    {a: Relation(a, r.acceptable, r.edges)
                     for a, r in instance.relations.items()},
                    base=instance.base)


def reference_classes(rel):
    """The ordered classes whose cross-class pairs are exactly the literal
    edges between acceptable candidates, or None.  Candidates are grouped
    by the set of candidates above them, which in ordered classes is the
    union of the better classes, so it is a strictly growing set."""
    above = {c: set() for c in rel.acceptable}
    for hi, lo in rel.edges:
        if hi in above and lo in above:
            above[lo].add(hi)
    groups = {}
    for c, over in above.items():
        groups.setdefault(frozenset(over), set()).add(c)
    classes = tuple(frozenset(groups[over]) for over in sorted(groups, key=len))
    crossing = {(hi, lo) for t, cls in enumerate(classes) for later in classes[t + 1:]
                for hi in cls for lo in later}
    inside = {(hi, lo) for lo, over in above.items() for hi in over}
    return classes if crossing == inside else None


def reference_structure(instance):
    """``detect_structure`` read off each relation's literal edge set with
    ``reference_classes``, checked in the same order: one side strict, ties
    of size at most 2, one class list per side."""
    classes = {a: reference_classes(instance.relations[a]) for a in instance.agents()}
    for side in (instance.men(), instance.women()):
        if all(classes[a] is not None and all(len(c) == 1 for c in classes[a])
               for a in side):
            return PlanStructure.ONE_SIDE_STRICT
    if all(cls is not None for cls in classes.values()):
        if all(len(c) <= 2 for cls in classes.values() for c in cls):
            return PlanStructure.TIES_AT_MOST_2
        if (len({classes[m] for m in instance.men()}) <= 1
                and len({classes[w] for w in instance.women()}) <= 1):
            return PlanStructure.MASTER_TIES
    return PlanStructure.GENERAL


def reference_apply(instance, truth, interviews):
    """Reference for ``_apply_unchecked``: each agent's interviewed
    candidates grouped into a list and sorted by their true ranks."""
    met = {}
    for m, w in interviews:
        met.setdefault(m, []).append(w)
        met.setdefault(w, []).append(m)
    rels = dict(instance.relations)
    for a, cands in met.items():
        if len(cands) > 1:
            rels[a] = rels[a].learn(sorted(cands, key=truth.ranks(a).__getitem__))
    return Instance(instance.n_men, instance.n_women, rels, base=False)


def reference_iter_matchings(instance):
    """Reference for ``iter_matchings``: the recursive search, each man in
    index order taking each free acceptable woman in turn and then staying
    unmatched."""
    men = instance.men()
    options = {m: [w for (m2, w) in instance.acceptable_pairs() if m2 == m]
               for m in men}

    def rec(i, taken, acc):
        if i == len(men):
            yield tuple(acc)
            return
        m = men[i]
        for w in options[m]:
            if w in taken:
                continue
            taken.add(w)
            acc.append((m, w))
            yield from rec(i + 1, taken, acc)
            acc.pop()
            taken.discard(w)
        yield from rec(i + 1, taken, acc)

    yield from rec(0, set(), [])


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


def reference_classify(instance, truth, matching):
    """Reference for ``analyze_blockers``, from the definitions: each very
    weak blocker of :func:`spec_blocking_pairs`, in its order, reads both
    members' true ranks.  A member is keen when it is unmatched or truly
    prefers the other to its partner.  A blocker with one keen member has
    degree 1 and that member as its keen side, one with none has degree 2.
    ``admirers`` maps the reluctant member of each degree-1 blocker to its
    keen members, a man is mandated when he or his partner has admirers,
    and ``open_mutual`` keeps the degree-2 blockers whose man is not
    mandated and whose woman's partner is not either."""
    partner = matching.partner

    def keen(a, c):
        p = partner(a)
        return p is None or truth.rank(a, c) < truth.rank(a, p)

    blockers, admirers = [], {}
    for b in spec_blocking_pairs(instance, matching, Blocking.VERY_WEAK):
        m, w = b.man, b.woman
        man_keen, woman_keen = keen(m, w), keen(w, m)
        assert not (man_keen and woman_keen), (m, w)
        if man_keen:
            blockers.append(PotentialBlocker(m, w, 1, MAN))
            admirers.setdefault(w, set()).add(m)
        elif woman_keen:
            blockers.append(PotentialBlocker(m, w, 1, WOMAN))
            admirers.setdefault(m, set()).add(w)
        else:
            blockers.append(PotentialBlocker(m, w, 2))
    mandated = frozenset(m for m, w in matching.pairs if m in admirers or w in admirers)
    open_mutual = tuple(b for b in blockers if b.degree == 2 and b.man not in mandated
                        and partner(b.woman) not in mandated)
    return BlockerReport(tuple(blockers), {a: frozenset(cs) for a, cs in admirers.items()},
                         mandated, open_mutual)


def assert_classified_as_reference(instance, truth, matching):
    """``analyze_blockers`` equals :func:`reference_classify` field by
    field, blockers in the same order, each a ``PotentialBlocker``."""
    ours = analyze_blockers(instance, truth, matching)
    theirs = reference_classify(instance, truth, matching)
    assert ours.blockers == theirs.blockers
    assert all(type(b) is PotentialBlocker for b in ours.blockers)
    assert [b.keen_side for b in ours.blockers] == [b.keen_side for b in theirs.blockers]
    assert ours.pairs == tuple((b.man, b.woman) for b in theirs.blockers)
    assert ours.admirers == theirs.admirers
    assert ours.mandated_men == theirs.mandated_men
    assert ours.open_mutual == theirs.open_mutual
    return ours


def prefers_scan(instance, matching, pairs):
    """The very weak blockers among ``pairs``, by one ``Relation.prefers``
    call per member: a pair blocks unless matched or settled by a member
    preferring its partner.  Unlike :func:`spec_blocking_pairs` it settles
    a pair whenever the partner is preferred, also where the candidate is
    preferred too, as only an inconsistent state allows."""
    out = []
    for m, w in pairs:
        pm, pw = matching.partner(m), matching.partner(w)
        if pm == w:
            continue
        if pm is not None and instance.relations[m].prefers(pm, w):
            continue
        if pw is not None and instance.relations[w].prefers(pw, m):
            continue
        out.append((m, w))
    return out


def _side(rel, partner):
    """The owner's partner, its settled set (everyone in a class after the
    partner's and every met candidate ranked after it) and its ``extra``
    edges, which the set leaves out."""
    after = set()
    at = rel.level.get(partner)
    if at is not None:
        after.update(*rel.classes[at + 1:])
    rank = rel.rank.get(partner)
    if rank is not None:
        after.update(rel.met[rank + 1:])
    return partner, after, rel.extra


_UNMATCHED = (None, frozenset(), frozenset())


def pair_list_scan(instance, matching):
    """The very weak blockers of the matching, by the scan that walked the
    sorted list of every mutually acceptable pair: the first time it
    reaches an agent it binds the agent's side, and a pair is settled on a
    side by the partner, the settled set or an ``extra`` edge from the
    partner.  The reference for the scan that reads only each man's open
    candidates."""
    relations = instance.relations
    partner = matching.partner
    sides = {}
    out = []
    for m, w in instance.acceptable_pairs():
        side = sides.get(m)
        if side is None:
            pm = partner(m)
            side = sides[m] = _UNMATCHED if pm is None else _side(relations[m], pm)
        pm, settled, extra = side
        if pm is not None and (pm == w or w in settled or extra and (pm, w) in extra):
            continue
        side = sides.get(w)
        if side is None:
            pw = partner(w)
            side = sides[w] = _UNMATCHED if pw is None else _side(relations[w], pw)
        pw, settled, extra = side
        if pw is not None and (m in settled or extra and (pw, m) in extra):
            continue
        out.append((m, w))
    return out


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


def search_cover_size(edges):
    """Minimum vertex cover size of the graph the edges span, by the
    solver's memoized search."""
    search = _CoverSearch(edges)
    return search.size(search.full)


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


def _components(edges):
    """Connected components of the graph the edges span, as sorted
    (vertices, edges) lists."""
    adj = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    comp_of = {}
    comps = []
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
    comp_edges = [[] for _ in comps]
    for e in edges:
        comp_edges[comp_of[e[0]]].append(e)
    return [(sorted(c), sorted(es)) for c, es in zip(comps, comp_edges)]


def reference_min_vertex_cover(graph):
    """The lexicographically least minimum vertex cover by the solver's walk
    before one search served the whole call: components by a dict-of-sets
    search, a clique (by its edge count) keeps all its vertices but the
    largest, and any other component runs the greedy walk over its sorted
    vertices, with each size from :func:`bb_cover_size`."""
    edges = sorted(tuple(sorted(e)) for e in graph.edges)
    cover = []
    for vertices, comp_edges in _components(edges):
        n = len(vertices)
        if len(comp_edges) == n * (n - 1) // 2:
            cover.extend(vertices[:-1])
            continue
        k = bb_cover_size(vertices, comp_edges)
        undecided = set(vertices)
        chosen = []
        for v in vertices:
            if v not in undecided:
                continue
            undecided.discard(v)
            nbrs = sorted({u for e in comp_edges if v in e for u in e} & undecided)
            if not nbrs:
                continue
            rest = [(a, b) for a, b in comp_edges if a in undecided and b in undecided]
            if len(chosen) + 1 + bb_cover_size(sorted(undecided), rest) == k:
                chosen.append(v)
            else:
                undecided -= set(nbrs)
                chosen.extend(nbrs)
        assert len(chosen) == k, (graph, chosen, k)
        cover.extend(chosen)
    return tuple(sorted(cover))


def full_validate(instance):
    """Reference for :func:`validate_instance`: every relation's whole edge
    view goes through the pairwise checks, with no shortcut for relations
    sound by construction, and transitivity is checked by the loop over
    every edge and every acceptable third candidate."""
    out = []
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
        edges = rel.edges
        for c1, c2 in sorted(edges):
            if c1 == c2:
                out.append(Violation("reflexive_edge", a, f"({c1}, {c2})"))
            if (c2, c1) in edges and c1 < c2:
                out.append(Violation("asymmetry", a,
                                     f"both ({c1}, {c2}) and ({c2}, {c1}) present"))
            if c1 not in rel.acceptable or c2 not in rel.acceptable:
                out.append(Violation("edge_outside_acceptable", a, f"({c1}, {c2})"))
        if instance.base:
            for c1, c2 in sorted(edges):
                for c3 in sorted(rel.acceptable):
                    if (c2, c3) in edges and (c1, c3) not in edges and c1 != c3:
                        out.append(Violation(
                            "not_transitive", a,
                            f"({c1}, {c2}) and ({c2}, {c3}) without ({c1}, {c3})"))
    return ValidationReport(tuple(out))


def reference_refines(truth, instance):
    """Reference for :meth:`StrictProfile.refines`: each class's true ranks
    are listed, and the least of them may not come before the greatest of
    the class before."""
    for a, rel in instance.relations.items():
        ranks = truth.ranks(a)
        if not (len(truth.acceptable(a)) == len(rel.acceptable)
                and ranks.keys() >= rel.acceptable):
            return False
        try:
            worst = -1
            for cls in rel.classes:
                class_ranks = [ranks[c] for c in cls]
                if min(class_ranks) < worst:
                    return False
                worst = max(class_ranks)
            for c1, c2 in rel.extra:
                if ranks[c1] > ranks[c2]:
                    return False
            met = rel.met
            if any(ranks[c1] > ranks[c2] for c1, c2 in zip(met, met[1:])):
                return False
        except KeyError:
            return False
    return True


def two_pass_refines(truth, instance):
    """Reference for :meth:`StrictProfile.refines`: the check as it stood
    before the class index, which always made its second pass over the
    acceptable set to see that the ranking covers it."""
    for a, rel in instance.relations.items():
        seq = truth.acceptable(a)
        ranks = truth.ranks(a)
        if not (len(seq) == len(rel.acceptable) and rel.acceptable.issubset(ranks)):
            return False
        level = rel.level
        if level:
            if len(level) == len(seq):
                try:
                    along = list(map(level.__getitem__, seq))
                except KeyError:
                    return False
            else:
                along = [at for at in map(level.get, seq) if at is not None]
                if len(along) != len(level):
                    return False
            if along != sorted(along):
                return False
        try:
            for c1, c2 in rel.extra:
                if ranks[c1] > ranks[c2]:
                    return False
            met = rel.met
            if met and any(ranks[c1] > ranks[c2] for c1, c2 in zip(met, met[1:])):
                return False
        except KeyError:
            return False
    return True


def reference_open(rel, partner):
    """Reference for :meth:`Relation.open_to`, one candidate at a time: the
    acceptable candidates other than the partner that no class after the
    partner's holds, that were not met after it and that no ``extra`` edge
    puts below it; every acceptable one when unmatched."""
    if partner is None:
        return set(rel.acceptable)
    at = rel.level.get(partner)
    later = rel.classes[at + 1:] if at is not None else ()
    rank = rel.rank.get(partner)
    met_after = rel.met[rank + 1:] if rank is not None else ()
    return {c for c in rel.acceptable
            if c != partner
            and not any(c in cls for cls in later)
            and c not in met_after
            and (partner, c) not in rel.extra}


def draw_partial_matching(draw, instance):
    """A random partial matching over the instance's mutually acceptable
    pairs."""
    taken, matched = set(), []
    for m, w in draw(st.permutations(instance.acceptable_pairs())):
        if m not in taken and w not in taken and draw(st.booleans()):
            taken |= {m, w}
            matched.append((m, w))
    return Matching(matched)


@st.composite
def class_markets(draw):
    """Up to 4 agents per side with random mutual acceptability.  Each agent
    splits a random order of its candidates into classes at random cuts,
    repeated cuts giving empty classes.  The truth shuffles inside each
    class (consistent) or the whole list (possibly inconsistent); the two
    interview sets, applied one after the other, are random sets of
    acceptable pairs."""
    n_men, n_women = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    men = [man(i) for i in range(1, n_men + 1)]
    women = [woman(j) for j in range(1, n_women + 1)]
    pairs = [(m, w) for m in men for w in women if draw(st.booleans())]
    acceptable = {a: [] for a in men + women}
    for m, w in pairs:
        acceptable[m].append(w)
        acceptable[w].append(m)
    consistent = draw(st.booleans())
    rels, ranking = {}, {}
    for a, cands in acceptable.items():
        order = draw(st.permutations(cands))
        cuts = draw(st.lists(st.integers(0, len(order)), max_size=len(order) + 2))
        bounds = [0] + sorted(cuts) + [len(order)]
        classes = [order[i:j] for i, j in zip(bounds, bounds[1:])]
        rels[a] = tie_relation(a, classes)
        if consistent:
            ranking[a] = tuple(c for cls in classes for c in draw(st.permutations(cls)))
        else:
            ranking[a] = tuple(draw(st.permutations(cands)))
    interviews = frozenset(p for p in pairs if draw(st.booleans()))
    again = frozenset(p for p in pairs if draw(st.booleans()))
    return Instance(n_men, n_women, rels), StrictProfile(ranking), interviews, again
