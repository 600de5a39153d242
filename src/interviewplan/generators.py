"""Instance generation: markets built from graphs so that the optimal
interview count tracks the graph's minimum vertex cover, plus random and
structured market families for testing and benchmarking.

The graph-backed constructions make the interview optimum equal the
minimum vertex cover plus a fixed per-edge overhead, which gives an
independent line of validation for the solvers: compute the optimum with
the schedule machinery, compare against a brute-force vertex cover.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import itemgetter
from random import Random
from typing import Callable, Iterable

from .errors import BadParams, DegreeTooHigh, SizeLimitExceeded
from .model import (
    MAN,
    WOMAN,
    Agent,
    Instance,
    Matching,
    StrictProfile,
    detect_tie_structure,
    man,
    tie_relation,
    woman,
)


@dataclass(frozen=True)
class SimpleGraph:
    """Undirected simple graph on vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if not (1 <= u < v <= self.n):
                raise BadParams(f"bad edge ({u}, {v}) for n={self.n}")

    @property
    def vertices(self) -> tuple[int, ...]:
        return tuple(range(1, self.n + 1))

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in self.vertices}
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg


@dataclass(frozen=True)
class OrientedGraph:
    """Directed graph: each arc (u, v) points from u to v."""

    n: int
    arcs: frozenset[tuple[int, int]]

    def out_degree(self, v: int) -> int:
        return sum(1 for a in self.arcs if a[0] == v)

    def in_degree(self, v: int) -> int:
        return sum(1 for a in self.arcs if a[1] == v)


def orient_bounded_degree(graph: SimpleGraph) -> OrientedGraph:
    """Orient every edge of a max-degree-3 graph so that each vertex ends
    up with in-degree and out-degree at most 2.

    Pair the odd-degree vertices with temporary dummy edges, walk an
    Eulerian circuit of each component of the augmented multigraph, orient
    along the walk, and drop the dummies.  Every vertex then has in-degree
    equal to out-degree in the augmented graph, and each is at most
    ceil(degree / 2) <= 2 after the dummies go.
    """
    deg = graph.degrees()
    for v, d in deg.items():
        if d > 3:
            raise DegreeTooHigh(f"vertex {v} has degree {d} > 3")

    edges: list[tuple[int, int, bool]] = [(u, v, True) for u, v in sorted(graph.edges)]
    odd = sorted(v for v, d in deg.items() if d % 2 == 1)
    for i in range(0, len(odd), 2):
        edges.append((odd[i], odd[i + 1], False))

    incident: dict[int, list[int]] = {v: [] for v in graph.vertices}
    for eid, (u, v, _) in enumerate(edges):
        incident[u].append(eid)
        incident[v].append(eid)
    for v in incident:
        incident[v].sort(key=lambda eid, at=v: (
            edges[eid][1] if edges[eid][0] == at else edges[eid][0], eid))
    cursor = {v: 0 for v in graph.vertices}
    used = [False] * len(edges)
    arcs: set[tuple[int, int]] = set()

    for start in graph.vertices:
        stack = [start]
        while stack:
            v = stack[-1]
            advanced = False
            while cursor[v] < len(incident[v]):
                eid = incident[v][cursor[v]]
                if used[eid]:
                    cursor[v] += 1
                    continue
                used[eid] = True
                a, b, real = edges[eid]
                other = b if a == v else a
                if real:
                    arcs.add((v, other))
                stack.append(other)
                advanced = True
                break
            if not advanced:
                stack.pop()
    return OrientedGraph(graph.n, frozenset(arcs))


# ---------------------------------------------------------------------------
# markets whose interview optimum encodes a vertex cover


def _identity_top_truth(instance: Instance) -> StrictProfile:
    """Same-index partner first within its class, then index order within
    each class, classes kept in instance order."""
    ranking: dict[Agent, tuple[Agent, ...]] = {}
    ties = detect_tie_structure(instance)
    for a in instance.agents():
        partner = woman(a.index) if a.side == MAN else man(a.index)
        order: list[Agent] = []
        for cls in ties[a]:
            members = sorted(cls)
            if partner in cls:
                members = [partner] + [c for c in members if c != partner]
            order.extend(members)
        ranking[a] = tuple(order)
    return StrictProfile(ranking)


def cover_market_smti(graph: SimpleGraph) -> tuple[Instance, StrictProfile, Matching,
                                                   Callable[[int], int]]:
    """Market with ties and incomplete lists built from a max-degree-3 graph.

    Each vertex i contributes the matched pair (m_i, w_i).  Orienting the
    edges with in/out-degree at most 2 and wiring man i to the women of his
    out-arcs (and woman i to the men of her in-arcs) keeps every
    indifference class at size at most 3.  A vertex cover of size k yields
    an optimal schedule of cost exactly k + |edges| for the identity
    matching, and conversely; the returned function maps a cover size to
    that schedule cost.
    """
    oriented = orient_bounded_degree(graph)
    n = graph.n
    men_acc = {man(i): frozenset({woman(i)}) for i in range(1, n + 1)}
    women_acc = {woman(i): frozenset({man(i)}) for i in range(1, n + 1)}
    for u, v in oriented.arcs:
        men_acc[man(u)] |= {woman(v)}
        women_acc[woman(v)] |= {man(u)}
    rels = {a: tie_relation(a, [acc])
            for a, acc in itertools.chain(men_acc.items(), women_acc.items())}
    instance = Instance(n, n, rels)
    truth = _identity_top_truth(instance)
    matching = Matching([(man(i), woman(i)) for i in range(1, n + 1)])
    overhead = len(graph.edges)
    return instance, truth, matching, lambda k: k + overhead


def cover_market_smt(graph: SimpleGraph) -> tuple[Instance, StrictProfile, Matching,
                                                  Callable[[int], int]]:
    """Complete market with ties built from an arbitrary graph.

    Every man holds one full tie over all women; woman i puts man i and the
    men of neighboring vertices in her first class and everyone else below.
    A vertex cover of size k corresponds to an optimal schedule of cost
    k + 2 * |edges| for the identity matching.
    """
    n = graph.n
    all_men = frozenset(man(i) for i in range(1, n + 1))
    all_women = frozenset(woman(j) for j in range(1, n + 1))
    neighbors: dict[int, set[int]] = {v: set() for v in graph.vertices}
    for u, v in graph.edges:
        neighbors[u].add(v)
        neighbors[v].add(u)
    # every man ranks the same single class, built once
    full_tie = tie_relation(man(1), [all_women])
    rels = {}
    for i in range(1, n + 1):
        rels[man(i)] = full_tie.owned_by(man(i))
        top = frozenset({man(i)} | {man(j) for j in neighbors[i]})
        rels[woman(i)] = tie_relation(woman(i), [top, all_men - top])
    instance = Instance(n, n, rels)
    truth = _identity_top_truth(instance)
    matching = Matching([(man(i), woman(i)) for i in range(1, n + 1)])
    overhead = 2 * len(graph.edges)
    return instance, truth, matching, lambda k: k + overhead


# ---------------------------------------------------------------------------
# random market families

FAMILIES = ("tiered", "random_smti", "master_ties", "one_side_strict")


def generate(family: str, *, n: int, seed: int, tiers: Iterable[int] | None = None,
             tie_cap: int = 3, density: float = 1.0) -> tuple[Instance, StrictProfile]:
    """Deterministic seeded market generator.

    Families: ``tiered`` partitions both sides into the given tier sizes,
    strict across tiers and tied within; ``random_smti`` draws mutual
    acceptability with the given density and random classes of size at most
    ``tie_cap``; ``master_ties`` gives each side one shared random class
    structure; ``one_side_strict`` gives women full strict orders and men
    random classes.  The truth refines the instance by shuffling inside
    each class, which for class-shaped knowledge states samples uniformly
    among the consistent strict orders.
    """
    if family not in FAMILIES:
        raise BadParams(f"unknown family {family!r}")
    if n < 1:
        raise BadParams("n must be at least 1")
    if tie_cap < 1:
        raise BadParams("tie_cap must be at least 1")
    if not 0.0 <= density <= 1.0:
        raise BadParams("density must lie in [0, 1]")
    rng = Random(seed)
    getrandbits = rng.getrandbits
    men_list = [man(i) for i in range(1, n + 1)]
    women_list = [woman(j) for j in range(1, n + 1)]

    if family == "tiered":
        sizes = list(tiers) if tiers is not None else [n]
        if any(s < 1 for s in sizes) or sum(sizes) != n:
            raise BadParams(f"tier sizes {sizes} must be positive and sum to {n}")
        blocks = []
        start = 1
        for s in sizes:
            blocks.append(range(start, start + s))
            start += s
        men_classes = [[woman(j) for j in b] for b in blocks]
        women_classes = [[man(i) for i in b] for b in blocks]
        classes = {a: men_classes for a in men_list}
        classes.update({a: women_classes for a in women_list})
    elif family == "master_ties":
        men_classes = _random_partition(getrandbits, women_list, tie_cap)
        women_classes = _random_partition(getrandbits, men_list, tie_cap)
        classes = {a: men_classes for a in men_list}
        classes.update({a: women_classes for a in women_list})
    else:
        acceptable = _random_mutual(rng, men_list, women_list, density)
        by_index = itemgetter(1)
        classes = {}
        for a in men_list + women_list:
            # every candidate is on one side, so their indices order them
            # as the agents do, at a third of the cost of comparing tuples
            mine = sorted(acceptable[a], key=by_index)
            if family == "one_side_strict" and a.side == WOMAN:
                _shuffle(getrandbits, mine)
                classes[a] = [[c] for c in mine]
            else:
                classes[a] = _random_partition(getrandbits, mine, tie_cap)

    # one relation per distinct class list: the shared families hand every
    # agent on a side the same list, and each agent holds it re-owned
    built = {}
    rels = {}
    ranking = {}
    for a in men_list + women_list:
        mine = classes[a]
        shared = built.get(id(mine))
        if shared is None:
            rels[a] = built[id(mine)] = tie_relation(a, mine)
        else:
            rels[a] = shared.owned_by(a)
        order = []
        for group in mine:
            # _shuffle inlined: classes are mostly small, and a call per
            # class costs about as much as its draws; a one-member class
            # draws nothing
            i = len(group) - 1
            if i:
                group = list(group)
                while i:
                    k = (i + 1).bit_length()
                    j = getrandbits(k)
                    while j > i:
                        j = getrandbits(k)
                    group[i], group[j] = group[j], group[i]
                    i -= 1
            order.extend(group)
        ranking[a] = tuple(order)
    return Instance(n, n, rels), StrictProfile(ranking)


# Shuffles and bounded integers are drawn straight from the generator's
# bound getrandbits by _below's rule, which is Random._randbelow's, so
# _shuffle(getrandbits, x) draws as rng.shuffle(x) and
# a + _below(getrandbits, b - a + 1) as rng.randint(a, b), bit for bit,
# without two calls through the Random object per draw.  Only
# _random_mutual's coin flips still call rng.random().


def _below(getrandbits: Callable[[int], int], n: int) -> int:
    """A draw from ``range(n)``, ``n >= 1``: ``getrandbits`` of n's bit
    length, redrawn until below n, so ``_below(getrandbits, 1)`` still
    draws one bit."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _shuffle(getrandbits: Callable[[int], int], x: list) -> None:
    """Shuffle ``x`` in place with the draws of ``Random.shuffle``."""
    for i in range(len(x) - 1, 0, -1):
        # _below(getrandbits, i + 1), inlined
        k = (i + 1).bit_length()
        j = getrandbits(k)
        while j > i:
            j = getrandbits(k)
        x[i], x[j] = x[j], x[i]


def _random_partition(getrandbits: Callable[[int], int], items: list,
                      cap: int) -> list[list]:
    """The items shuffled, then cut into consecutive classes of 1..cap
    members each."""
    pool = list(items)
    _shuffle(getrandbits, pool)
    out = []
    start, end = 0, len(pool)
    while start < end:
        size = 1 + _below(getrandbits, min(cap, end - start))
        out.append(pool[start:start + size])
        start += size
    return out


def _random_mutual(rng: Random, men_list, women_list, density: float):
    acceptable = {a: set() for a in men_list + women_list}
    for m in men_list:
        for w in women_list:
            if rng.random() < density:
                acceptable[m].add(w)
                acceptable[w].add(m)
    return acceptable


# ---------------------------------------------------------------------------
# graphs for sweeps and property tests


def random_bounded_graph(n: int, max_degree: int = 3, seed: int = 0) -> SimpleGraph:
    """A random graph on n vertices respecting the degree bound."""
    if n < 1:
        raise BadParams("n must be at least 1")
    getrandbits = Random(seed).getrandbits
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    _shuffle(getrandbits, pairs)
    target = _below(getrandbits, n * max_degree // 2 + 1)
    deg = {v: 0 for v in range(1, n + 1)}
    chosen = set()
    for u, v in pairs:
        if len(chosen) == target:
            break
        if deg[u] < max_degree and deg[v] < max_degree:
            chosen.add((u, v))
            deg[u] += 1
            deg[v] += 1
    return SimpleGraph(n, frozenset(chosen))


# the most vertices connected_small_graphs takes: 2^21 edge masks at 7, 2^28 at 8
SMALL_GRAPH_CAP = 7


def connected_small_graphs(max_n: int, max_degree: int = 3) -> list[SimpleGraph]:
    """All connected graphs with up to ``max_n`` vertices obeying the degree
    bound, one representative per isomorphism class, in a deterministic
    order.

    Edge sets are scanned as ascending bitmasks, so the first member of
    each isomorphism class encountered is its minimum labeling; all of its
    relabelings are then marked as seen, which costs one pass over the
    symmetric group per class rather than per labeled graph.  Raises
    :class:`SizeLimitExceeded` above ``SMALL_GRAPH_CAP`` before any scan.
    """
    if max_n > SMALL_GRAPH_CAP:
        raise SizeLimitExceeded(f"{max_n} vertices exceed the cap of {SMALL_GRAPH_CAP}")
    out: list[SimpleGraph] = []
    for n in range(1, max_n + 1):
        pairs = list(itertools.combinations(range(n), 2))
        index = {p: i for i, p in enumerate(pairs)}
        perms = list(itertools.permutations(range(n)))
        max_edges = n * max_degree // 2
        seen: set[int] = set()
        for mask in range(1 << len(pairs)):
            if mask in seen or bin(mask).count("1") > max_edges:
                continue
            chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            deg = [0] * n
            ok = True
            for u, v in chosen:
                deg[u] += 1
                deg[v] += 1
                if deg[u] > max_degree or deg[v] > max_degree:
                    ok = False
                    break
            if not ok or not _connected(n, chosen):
                continue
            out.append(SimpleGraph(n, frozenset((u + 1, v + 1) for u, v in chosen)))
            for perm in perms:
                remapped = 0
                for u, v in chosen:
                    a, b = perm[u], perm[v]
                    remapped |= 1 << index[(a, b) if a < b else (b, a)]
                seen.add(remapped)
    return out


def _connected(n: int, edges: list[tuple[int, int]]) -> bool:
    if n == 1:
        return True
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    root = find(0)
    return all(find(v) == root for v in range(n))
