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

One scan, :func:`_very_weak_rows`, decides very weak blocking: it yields
one row per man, the man and his very weak blocking partners in sorted
order, and :func:`_very_weak_blockers` flattens the rows into pairs.
Every strong or weak blocker is also a very weak one, so the other levels
are filters over it.  Like Irving's super-stability algorithm, the scan reads
each agent's position relative to its partner rather than comparing pair
by pair: it walks only each man's open candidates
(:meth:`Relation.open_to`), so it never lists every acceptable pair.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import AbstractSet, Iterator, Mapping, Optional

from .errors import InvalidMatching, SizeLimitExceeded
from .model import (
    MAN,
    Agent,
    Instance,
    Matching,
    Pair,
    StrictProfile,
    detect_tie_structure,
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
        if not (1 <= m.index <= instance.n_men and 1 <= w.index <= instance.n_women):
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


def _very_weak_rows(instance: Instance,
                    matching: Matching) -> Iterator[tuple[Agent, list[Agent]]]:
    # Unchecked: the caller validates the matching.  A pair very weakly
    # blocks when each member leaves the other open, which also makes it
    # mutually acceptable and unmatched.  Each man, in index order, reads
    # only his open candidates and yields those who leave him open too as
    # one sorted row, if there are any; a woman's open set is built the
    # first time the scan reaches her.
    relations = instance.relations
    partner = matching.partner
    by_index, by_side = itemgetter(1), itemgetter(0)
    opens: dict[Agent, AbstractSet[Agent]] = {}
    for m in instance.men():
        row = []
        for w in relations[m].open_to(partner(m)):
            open_w = opens.get(w)
            if open_w is None:
                rel = relations.get(w)
                if rel is None:
                    continue
                open_w = opens[w] = rel.open_to(partner(w))
            if m in open_w:
                row.append(w)
        if row:
            # by index, then stably by side: the agents' own order, without
            # comparing the agents as tuples, which costs twice as much
            row.sort(key=by_index)
            row.sort(key=by_side)
            yield m, row


def _very_weak_blockers(instance: Instance, matching: Matching) -> Iterator[Pair]:
    # The rows flattened: the pairs come in ascending order, as in
    # ``Instance.acceptable_pairs``.
    for m, row in _very_weak_rows(instance, matching):
        for w in row:
            yield m, w


def _blocking(instance: Instance, matching: Matching,
              level: Blocking) -> Iterator[BlockingPair]:
    for m, w in _very_weak_blockers(instance, matching):
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
    ranks = truth.ranks
    engaged: dict[Agent, Agent] = {}
    next_choice = {p: 0 for p in proposers}
    free = deque(proposers)
    while free:
        p = free.popleft()
        prefs = truth.ranking[p]
        while next_choice[p] < len(prefs):
            c = prefs[next_choice[p]]
            next_choice[p] += 1
            ranks_c = ranks(c)
            if p not in ranks_c:
                continue
            holder = engaged.get(c)
            if holder is None:
                engaged[c] = p
                break
            if ranks_c[p] < ranks_c[holder]:
                engaged[c] = p
                free.append(holder)
                break
    return Matching([(p, c) for c, p in engaged.items()])


def _true_cut(truth: StrictProfile, matching: Matching,
              agent: Agent) -> tuple[Mapping[Agent, int], int]:
    """The agent's true rank map and the rank of its partner in it, or the
    length of the map when unmatched: the agent truly prefers a candidate
    to its partner exactly when the candidate ranks before that cut."""
    ranks = truth.ranks(agent)
    partner = matching.partner(agent)
    return ranks, len(ranks) if partner is None else ranks[partner]


def weakly_stable_under(truth: StrictProfile, matching: Matching) -> bool:
    """No pair of mutually acceptable agents both truly prefer each other
    to their situation under the matching.  Each woman's cut is taken
    once per call, the first time a man reaches her."""
    cuts: dict[Agent, tuple[Mapping[Agent, int], int]] = {}
    for m in sorted(a for a in truth.ranking if a.side == MAN):
        _, cut = _true_cut(truth, matching, m)
        for w in truth.ranking[m][:cut]:
            ranks_w, cut_w = cuts.get(w) or cuts.setdefault(w, _true_cut(truth, matching, w))
            if ranks_w.get(m, cut_w) < cut_w:
                return False
    return True


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
