"""Blocking pairs, the three stability levels, deferred acceptance, and
weak stability under the truth.

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

from collections import deque
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import AbstractSet, Iterator, Mapping

from .errors import InvalidMatching
from .model import MAN, Agent, Instance, Matching, Pair, StrictProfile


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
    ranking, ranks = truth.ranking, truth.ranks
    engaged: dict[Agent, Agent] = {}
    next_choice = dict.fromkeys(proposers, 0)
    free = deque(proposers)
    while free:
        p = free.popleft()
        prefs = ranking[p]
        i = next_choice[p]
        while i < len(prefs):
            c = prefs[i]
            i += 1
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
        next_choice[p] = i
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
