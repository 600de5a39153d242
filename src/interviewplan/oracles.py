"""Brute-force ground truth for the solvers.

Everything here searches exhaustively: interview subsets in increasing
size, matchings over the acceptability graph, vertex subsets in increasing
size.  The value of these routines is their obvious correctness; the
solvers are validated against them at desk scale.  All searches are
deterministic, returning the lexicographically least witness.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .blockers import analyze_blockers
from .errors import (
    InternalAssumptionViolated,
    MatchingNotWeaklyStable,
    SizeLimitExceeded,
    TruthInconsistent,
)
from .interviews import _apply_unchecked
from .model import Instance, Matching, Pair, StrictProfile
from .stability import (
    _very_weak_blockers,
    check_matching,
    iter_matchings,
    stable_matchings,
    weakly_stable_under,
)

PURE_PAIR_CAP = 16
PRUNED_PAIR_CAP = 24


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
    cap = size_cap if size_cap is not None else (
        PURE_PAIR_CAP if mode == "pure" else PRUNED_PAIR_CAP)
    count = instance.pair_count()
    if count > cap:
        raise SizeLimitExceeded(f"{count} acceptable pairs exceed the cap of {cap}")
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
    count = instance.pair_count()
    if count > size_cap:
        raise SizeLimitExceeded(f"{count} acceptable pairs exceed the cap of {size_cap}")
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


def find_super_stable(instance: Instance, size_cap: int = 8) -> Optional[Matching]:
    """The lexicographically least super-stable matching of the instance,
    or None, by exhaustive search over all matchings."""
    if instance.n_men > size_cap or instance.n_women > size_cap:
        raise SizeLimitExceeded(
            f"{instance.n_men}x{instance.n_women} exceeds the cap of {size_cap} per side")
    best: Optional[tuple[Pair, ...]] = None
    for candidate in iter_matchings(instance):
        if best is not None and candidate >= best:
            continue
        if not any(_very_weak_blockers(instance, Matching(candidate))):
            best = candidate
    return Matching(best) if best is not None else None


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
