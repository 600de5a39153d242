"""Blocking pairs, the three stability levels, deferred acceptance, and
exhaustive enumeration of the stable matchings of a strict profile.

Blocking comes in three strengths depending on how the two members relate
to their current situation: a strong blocking pair has both members
unmatched or strictly preferring each other; a weak blocking pair allows
incomparability but needs at least one member actively preferring; a very
weak blocking pair merely needs both members not to prefer their partners.
Weak, strong and super stability are the absence of, respectively, strong,
weak and very weak blocking pairs.  On strict instances the three notions
coincide.

One scan, :func:`_very_weak_blockers`, decides very weak blocking; every
strong or weak blocker is also a very weak one, so the other levels are
filters over it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import InvalidMatching, SizeLimitExceeded
from .model import (
    MAN,
    Agent,
    Instance,
    Matching,
    Pair,
    StrictProfile,
    linear_extensions,
)


class Attitude(Enum):
    UNMATCHED = "unmatched"
    STRICTLY_PREFERS = "strictly_prefers"
    CANNOT_COMPARE = "cannot_compare"
    PREFERS_PARTNER = "prefers_partner"


class Blocking(Enum):
    STRONG = "strong"
    WEAK = "weak"
    VERY_WEAK = "very_weak"


class Stability(Enum):
    WEAK = "weak"
    STRONG = "strong"
    SUPER = "super"


_KEEN = (Attitude.UNMATCHED, Attitude.STRICTLY_PREFERS)


@dataclass(frozen=True)
class BlockingPair:
    man: Agent
    woman: Agent
    level: Blocking
    man_attitude: Attitude
    woman_attitude: Attitude

    def __post_init__(self):
        if not _qualifies(self.level, self.man_attitude, self.woman_attitude):
            raise ValueError(f"attitudes inconsistent with level {self.level}")


def check_matching(instance: Instance, matching: Matching) -> None:
    """Raise InvalidMatching unless every pair is mutually acceptable and
    indices are in range."""
    for m, w in matching.pairs:
        if m.index > instance.n_men or w.index > instance.n_women:
            raise InvalidMatching(f"({m}, {w}) outside declared agent counts")
        if (w not in instance.relations[m].acceptable
                or m not in instance.relations[w].acceptable):
            raise InvalidMatching(f"({m}, {w}) is not mutually acceptable")


def attitude(instance: Instance, agent: Agent, candidate: Agent,
             matching: Matching) -> Attitude:
    """How ``agent`` relates ``candidate`` to its current partner."""
    partner = matching.partner(agent)
    if partner is None:
        return Attitude.UNMATCHED
    rel = instance.relations[agent]
    if rel.prefers(candidate, partner):
        return Attitude.STRICTLY_PREFERS
    if rel.prefers(partner, candidate):
        return Attitude.PREFERS_PARTNER
    return Attitude.CANNOT_COMPARE


def _qualifies(level: Blocking, man_att: Attitude, woman_att: Attitude) -> bool:
    if man_att == Attitude.PREFERS_PARTNER or woman_att == Attitude.PREFERS_PARTNER:
        return False
    if level == Blocking.VERY_WEAK:
        return True
    if level == Blocking.WEAK:
        return man_att in _KEEN or woman_att in _KEEN
    return man_att in _KEEN and woman_att in _KEEN


def _very_weak_blockers(instance: Instance, matching: Matching,
                        pairs: Iterable[Pair]) -> Iterator[Pair]:
    # Unchecked: the caller validates the matching and passes acceptable
    # pairs.  A pair blocks unless matched or settled by a partner's edge.
    partner = matching.partner
    relations = instance.relations
    for m, w in pairs:
        pm = partner(m)
        if pm == w:
            continue
        if pm is not None and (pm, w) in relations[m].edges:
            continue
        pw = partner(w)
        if pw is not None and (pw, m) in relations[w].edges:
            continue
        yield m, w


def _blocking(instance: Instance, matching: Matching,
              level: Blocking) -> Iterator[BlockingPair]:
    for m, w in _very_weak_blockers(instance, matching, instance.acceptable_pairs()):
        man_att = attitude(instance, m, w, matching)
        woman_att = attitude(instance, w, m, matching)
        if _qualifies(level, man_att, woman_att):
            yield BlockingPair(m, w, level, man_att, woman_att)


def blocking_pairs(instance: Instance, matching: Matching,
                   level: Blocking) -> tuple[BlockingPair, ...]:
    """All acceptable non-matched pairs blocking at the given level."""
    check_matching(instance, matching)
    return tuple(_blocking(instance, matching, level))


def is_stable(instance: Instance, matching: Matching, level: Stability) -> bool:
    """Weak stability forbids strong blockers, strong stability forbids weak
    blockers, super-stability forbids very weak blockers."""
    against = {
        Stability.WEAK: Blocking.STRONG,
        Stability.STRONG: Blocking.WEAK,
        Stability.SUPER: Blocking.VERY_WEAK,
    }[level]
    check_matching(instance, matching)
    return next(_blocking(instance, matching, against), None) is None


# ---------------------------------------------------------------------------
# deferred acceptance on the true strict preferences


def gale_shapley(truth: StrictProfile, proposing: str = MAN) -> Matching:
    """Proposer-optimal weakly stable matching of a strict profile.

    Classic deferred acceptance: free proposers work down their lists,
    holders keep the best proposal seen so far.  Deterministic; agents
    exhaust their lists and stay unmatched when nobody acceptable remains.
    """
    proposers = sorted(a for a in truth.ranking if a.side == proposing)
    engaged: dict[Agent, Agent] = {}
    next_choice = {p: 0 for p in proposers}
    free = deque(proposers)
    while free:
        p = free.popleft()
        prefs = truth.ranking[p]
        while next_choice[p] < len(prefs):
            c = prefs[next_choice[p]]
            next_choice[p] += 1
            if p not in truth._rank.get(c, {}):
                continue
            holder = engaged.get(c)
            if holder is None:
                engaged[c] = p
                break
            if truth.prefers(c, p, holder):
                engaged[c] = p
                free.append(holder)
                break
    return Matching([(p, c) for c, p in engaged.items()])


def weakly_stable_under(truth: StrictProfile, matching: Matching) -> bool:
    """No pair of mutually acceptable agents both truly prefer each other
    to their situation under the matching."""
    for m in sorted(a for a in truth.ranking if a.side == MAN):
        ranks_m = truth._rank[m]
        pm = matching.partner(m)
        limit = ranks_m[pm] if pm is not None else len(ranks_m)
        for w in truth.ranking[m]:
            if ranks_m[w] >= limit:
                break
            ranks_w = truth._rank.get(w, {})
            if m not in ranks_w:
                continue
            pw = matching.partner(w)
            if pw is None or ranks_w[m] < ranks_w[pw]:
                return False
    return True


def iter_matchings(instance: Instance) -> Iterator[tuple[Pair, ...]]:
    """Every partial one-to-one pairing over the mutually acceptable
    pairs, as sorted pair tuples."""
    men = instance.men()
    options = {m: [w for (m2, w) in instance.acceptable_pairs() if m2 == m]
               for m in men}

    def rec(i: int, taken: set[Agent], acc: list[Pair]) -> Iterator[tuple[Pair, ...]]:
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


def stable_matchings(truth: StrictProfile, size_cap: int = 8) -> tuple[Matching, ...]:
    """All weakly stable matchings of a strict profile, by exhaustive search
    over matchings, in ascending pair order."""
    strict = truth.as_instance()
    if strict.n_men > size_cap or strict.n_women > size_cap:
        raise SizeLimitExceeded(
            f"{strict.n_men}x{strict.n_women} exceeds the cap of {size_cap} per side")
    found = [Matching(pairs) for pairs in iter_matchings(strict)
             if weakly_stable_under(truth, Matching(pairs))]
    return tuple(sorted(found, key=lambda mu: mu.pairs))


# ---------------------------------------------------------------------------
# cross-check: super-stability versus stability in every completion


def extension_agreement(instance: Instance, matching: Matching,
                        product_cap: int = 200000) -> bool:
    """True when the super-stability verdict coincides with weak stability
    under every combination of per-agent linear extensions.

    Exhaustive over extension profiles, so only usable at desk scale; the
    product of per-agent extension counts must stay within ``product_cap``.
    """
    check_matching(instance, matching)
    agents = instance.agents()
    per_agent: list[list[dict[Agent, int]]] = []
    product = 1
    for a in agents:
        exts, overflow = linear_extensions(instance, a, cap=product_cap + 1)
        if overflow:
            raise SizeLimitExceeded("too many linear extensions for one agent")
        product *= len(exts)
        if product > product_cap:
            raise SizeLimitExceeded("extension profile space exceeds the cap")
        per_agent.append([{c: i for i, c in enumerate(ext)} for ext in exts])

    super_verdict = not any(_very_weak_blockers(instance, matching,
                                                instance.acceptable_pairs()))
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
