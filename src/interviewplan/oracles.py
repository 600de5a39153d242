"""Brute-force ground truth, and the package's only exhaustive search.

Everything here searches exhaustively: interview subsets in increasing
size, matchings over the acceptability graph, linear extensions of a
partial order, vertex subsets in increasing size.  The value of these
routines is their obvious correctness; the solvers are validated against
them at desk scale.  All searches are deterministic, returning the
lexicographically least witness.  Each raises ``SizeLimitExceeded`` when
its input is over its cap, before it searches; ``linear_extensions``
instead stops at its cap and reports the overflow, and ``iter_matchings``
leaves the cap to its callers.

The completion cross-check :func:`extension_agreement`, which ``check``
runs on every matching, tests that super-stability in a knowledge state
agrees with weak stability in every completion of it (Irving 1994).

Only ``cli``, the package ``__init__`` and ``solvers`` import this module:
``solvers.best_plan`` screens its candidates with :func:`stable_matchings`
until a polynomial enumeration of the stable matchings replaces it.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional

from .blockers import analyze_blockers
from .errors import (
    InternalAssumptionViolated,
    MatchingNotWeaklyStable,
    SizeLimitExceeded,
    TruthInconsistent,
)
from .interviews import _apply_unchecked
from .model import Agent, Instance, Matching, Pair, StrictProfile, detect_tie_structure
from .stability import _very_weak_blockers, check_matching, weakly_stable_under

PURE_PAIR_CAP = 16
PRUNED_PAIR_CAP = 24


def _check_pair_cap(instance: Instance, cap: int) -> None:
    count = instance.pair_count()
    if count > cap:
        raise SizeLimitExceeded(f"{count} acceptable pairs exceed the cap of {cap}")


def _check_side_cap(instance: Instance, cap: int) -> None:
    if instance.n_men > cap or instance.n_women > cap:
        raise SizeLimitExceeded(
            f"{instance.n_men}x{instance.n_women} exceeds the cap of {cap} per side")


def iter_matchings(instance: Instance) -> Iterator[tuple[Pair, ...]]:
    """Every partial one-to-one pairing over the mutually acceptable
    pairs, as sorted pair tuples.  Each man in index order takes each free
    acceptable woman in turn and then stays unmatched; the search keeps its
    own stack, so the recursion limit does not bound its depth."""
    men = instance.men()
    if not men:
        yield ()
        return
    women: list[list[Agent]] = [[] for _ in men]
    for m, w in instance.acceptable_pairs():
        women[m.index - 1].append(w)
    # each man's choices: his women, then None for staying unmatched
    choices: list[list[Optional[Agent]]] = [[*ws, None] for ws in women]
    taken: set[Optional[Agent]] = set()
    acc: list[Pair] = []
    held: list[Optional[Agent]] = []  # the choice of each man on the stack
    untried = [iter(choices[0])]  # the choices each man on the stack has left
    while untried:
        if len(held) == len(untried):  # back at this man: give back what he held
            w = held.pop()
            taken.discard(w)
            if w is not None:
                acc.pop()
        for w in untried[-1]:
            if w not in taken:
                break
        else:
            untried.pop()
            continue
        held.append(w)
        if w is not None:
            taken.add(w)
            acc.append((men[len(held) - 1], w))
        if len(untried) == len(men):
            yield tuple(acc)
        else:
            untried.append(iter(choices[len(untried)]))


def stable_matchings(truth: StrictProfile, size_cap: int = 8) -> tuple[Matching, ...]:
    """All weakly stable matchings of a strict profile, by exhaustive search
    over matchings, in ascending pair order."""
    strict = truth.as_instance()
    _check_side_cap(strict, size_cap)
    found = [Matching(pairs) for pairs in iter_matchings(strict)
             if weakly_stable_under(truth, Matching(pairs))]
    return tuple(sorted(found, key=lambda mu: mu.pairs))


def find_super_stable(instance: Instance, size_cap: int = 8) -> Optional[Matching]:
    """The lexicographically least super-stable matching of the instance,
    or None, by exhaustive search over all matchings."""
    _check_side_cap(instance, size_cap)
    best: Optional[tuple[Pair, ...]] = None
    for candidate in iter_matchings(instance):
        if best is not None and candidate >= best:
            continue
        if not any(_very_weak_blockers(instance, Matching(candidate))):
            best = candidate
    return Matching(best) if best is not None else None


def oracle_plan_for_matching(instance: Instance, truth: StrictProfile,
                             matching: Matching, mode: str = "pruned",
                             size_cap: int | None = None) -> tuple[int, frozenset[Pair]]:
    """Minimum interview set making the target matching super-stable, by
    breadth-first search over subsets of the mutually acceptable pairs.

    ``pure`` mode searches from scratch; ``pruned`` mode seeds every
    candidate with the forced interviews (all potential blocker pairs plus
    the mandated matched pairs), which every valid schedule must contain.
    Both modes return the lexicographically least optimal set.
    """
    if mode not in ("pure", "pruned"):
        raise ValueError(f"unknown mode {mode!r}")
    _check_pair_cap(instance, size_cap if size_cap is not None else (
        PURE_PAIR_CAP if mode == "pure" else PRUNED_PAIR_CAP))
    if mode == "pure":
        # the independent reference: checks its inputs without analyze_blockers
        if not truth.refines(instance):
            raise TruthInconsistent("strict profile does not refine the instance")
        check_matching(instance, matching)
        if not weakly_stable_under(truth, matching):
            raise MatchingNotWeaklyStable(
                "target matching has a blocking pair under the true preferences")
        base: frozenset[Pair] = frozenset()
    else:
        # analyze_blockers runs the same three checks, with the same errors
        report = analyze_blockers(instance, truth, matching)
        base = frozenset(report.pairs) | frozenset(report.mandated_pairs(matching))
    universe = sorted(set(instance.acceptable_pairs()) - base)

    for k in range(len(universe) + 1):
        for extra in itertools.combinations(universe, k):
            chosen = base | frozenset(extra)
            refined = _apply_unchecked(instance, truth, chosen)
            if not any(_very_weak_blockers(refined, matching)):
                return len(chosen), chosen
    raise InternalAssumptionViolated("interviewing every pair must succeed")


def oracle_best_plan(instance: Instance, truth: StrictProfile,
                     size_cap: int = 18,
                     matching_cap: int = 8) -> tuple[int, frozenset[Pair], Matching]:
    """Minimum interview set after which the market admits some super-stable
    matching, found by subset search, with a witness matching.

    A super-stable matching of any reachable knowledge state is weakly
    stable under the truth (the truth is one completion of that state), so
    each candidate subset is screened against the truth's stable matchings;
    the winning subset is confirmed by exhaustive search over matchings.
    """
    _check_pair_cap(instance, size_cap)
    if not truth.refines(instance):
        raise TruthInconsistent("strict profile does not refine the instance")
    candidates = stable_matchings(truth, matching_cap)

    sorted_pairs = instance.acceptable_pairs()
    for k in range(len(sorted_pairs) + 1):
        for chosen in itertools.combinations(sorted_pairs, k):
            chosen_set = frozenset(chosen)
            refined = _apply_unchecked(instance, truth, chosen_set)
            if any(not any(_very_weak_blockers(refined, mu)) for mu in candidates):
                witness = find_super_stable(refined, matching_cap)
                if witness is None:
                    raise InternalAssumptionViolated(
                        "screen accepted a state with no super-stable matching")
                return k, chosen_set, witness
    raise InternalAssumptionViolated("interviewing every pair must succeed")


def brute_force_cover(graph, size_cap: int = 20) -> tuple:
    """Exact minimum vertex cover by subset enumeration in increasing size;
    lexicographically least."""
    vertices = sorted(graph.vertices)
    if len(vertices) > size_cap:
        raise SizeLimitExceeded(f"{len(vertices)} vertices exceed the cap of {size_cap}")
    edges = [tuple(sorted(e)) for e in graph.edges]
    for k in range(len(vertices) + 1):
        for subset in itertools.combinations(vertices, k):
            chosen = set(subset)
            if all(u in chosen or v in chosen for u, v in edges):
                return subset
    raise InternalAssumptionViolated("the full vertex set always covers")


# ---------------------------------------------------------------------------
# cross-check: super-stability versus stability in every completion


def linear_extensions(instance: Instance, a: Agent,
                      cap: int = 10000) -> tuple[list[tuple[Agent, ...]], bool]:
    """Enumerate the strict total orders consistent with the agent's edges.

    Emits in lexicographic order (by candidate sort order at each position)
    and stops once ``cap`` orders have been produced, returning an overflow
    flag instead of raising.  The search keeps its own stack of chosen
    positions, so its depth is not bounded by the interpreter's recursion
    limit.
    """
    if cap <= 0:
        raise ValueError("cap must be positive")
    rel = instance.relations[a]
    items = sorted(rel.acceptable)
    n = len(items)
    # below[j]: the positions of the candidates items[j] is preferred to;
    # waiting[i]: how many unplaced candidates are preferred to items[i]
    below = [[i for i, c in enumerate(items) if rel.prefers(d, c)] for d in items]
    waiting = [0] * n
    for worse in below:
        for i in worse:
            waiting[i] += 1
    placed = [False] * n
    chosen: list[int] = []
    out: list[tuple[Agent, ...]] = []
    overflow = False
    start = 0  # the first position the current depth may still try
    while True:
        if len(chosen) == n:
            if len(out) == cap:
                overflow = True
                break
            out.append(tuple(items[i] for i in chosen))
            nxt = n
        else:
            nxt = next((i for i in range(start, n) if not placed[i] and not waiting[i]), n)
        if nxt < n:
            placed[nxt] = True
            for i in below[nxt]:
                waiting[i] -= 1
            chosen.append(nxt)
            start = 0
            continue
        if not chosen:
            break
        last = chosen.pop()
        placed[last] = False
        for i in below[last]:
            waiting[i] += 1
        start = last + 1
    return out, overflow


def extension_agreement(instance: Instance, matching: Matching,
                        product_cap: int = 200000) -> bool:
    """True when the super-stability verdict coincides with weak stability
    under every combination of per-agent linear extensions.

    Exhaustive over extension profiles, so only usable at desk scale; the
    product of per-agent extension counts must stay within ``product_cap``.
    """
    check_matching(instance, matching)
    agents = instance.agents()
    ties = detect_tie_structure(instance)
    per_agent: list[list[dict[Agent, int]]] = []
    product = 1
    for a in agents:
        if ties[a] is None:
            exts, overflow = linear_extensions(instance, a, cap=product_cap + 1)
            # an overflow stops one past the enumeration cap
            count = len(exts) + overflow
        else:
            # ordered classes have exactly prod |C|! extensions, so both caps
            # are decided before any enumeration
            exts = None
            count = math.prod(math.factorial(len(c)) for c in ties[a])
        if count > product_cap + 1:
            raise SizeLimitExceeded(
                f"{a} has more than {product_cap} linear extensions")
        product *= count
        if product > product_cap:
            raise SizeLimitExceeded(
                f"extension profile space exceeds the cap of {product_cap}")
        if exts is None:
            exts, _ = linear_extensions(instance, a, cap=product_cap + 1)
        per_agent.append([{c: i for i, c in enumerate(ext)} for ext in exts])

    super_verdict = not any(_very_weak_blockers(instance, matching))
    pairs = [(m, w) for m, w in instance.acceptable_pairs()
             if matching.partner(m) != w]
    index = {a: i for i, a in enumerate(agents)}
    all_profiles_stable = True
    for combo in itertools.product(*per_agent):
        stable = True
        for m, w in pairs:
            rank_m = combo[index[m]]
            pm = matching.partner(m)
            if pm is not None and rank_m[w] > rank_m[pm]:
                continue
            rank_w = combo[index[w]]
            pw = matching.partner(w)
            if pw is not None and rank_w[m] > rank_w[pw]:
                continue
            stable = False
            break
        if not stable:
            all_profiles_stable = False
            break
    return super_verdict == all_profiles_stable
