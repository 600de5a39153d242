import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interviewplan.blockers import PotentialBlocker, is_resolved
from interviewplan.errors import InvalidMatching, SizeLimitExceeded
from interviewplan.generators import generate
from interviewplan.interviews import apply_interviews
from interviewplan.model import (
    Instance,
    Matching,
    Relation,
    interview_set,
    man,
    woman,
)
from interviewplan.stability import (
    Blocking,
    BlockingPair,
    Stability,
    _qualifies,
    attitude,
    blocking_pairs,
    extension_agreement,
    gale_shapley,
    is_stable,
    stable_matchings,
    weakly_stable_under,
)


class TestBlockingPairs:
    def test_total_ignorance_blocks_everything(self, fig1):
        found = blocking_pairs(fig1.instance, fig1.matching, Blocking.VERY_WEAK)
        assert {(b.man, b.woman) for b in found} == {(man(1), woman(2)),
                                                     (man(2), woman(1))}

    def test_strict_truth_has_no_blockers(self, fig1):
        strict = fig1.truth.as_instance()
        assert blocking_pairs(strict, fig1.matching, Blocking.STRONG) == ()
        assert is_stable(strict, fig1.matching, Stability.SUPER)

    def test_preferring_partner_excludes_pair(self, fig1):
        refined = apply_interviews(
            fig1.instance, fig1.truth,
            interview_set([(man(2), woman(1)), (man(2), woman(2))]))
        found = blocking_pairs(refined, fig1.matching, Blocking.VERY_WEAK)
        assert (man(2), woman(1)) not in {(b.man, b.woman) for b in found}

    def test_containment_by_level(self):
        for seed in range(40):
            inst, truth = generate("random_smti", n=3, seed=seed,
                                   tie_cap=3, density=0.8)
            mu = gale_shapley(truth)
            strong = {(b.man, b.woman)
                      for b in blocking_pairs(inst, mu, Blocking.STRONG)}
            weak = {(b.man, b.woman)
                    for b in blocking_pairs(inst, mu, Blocking.WEAK)}
            very_weak = {(b.man, b.woman)
                         for b in blocking_pairs(inst, mu, Blocking.VERY_WEAK)}
            assert strong <= weak <= very_weak

    def test_invalid_matching_rejected(self, fig1):
        with pytest.raises(InvalidMatching):
            blocking_pairs(fig1.instance, Matching([(man(1), woman(9))]),
                           Blocking.WEAK)


@st.composite
def asymmetric_markets(draw):
    """Up to 4 agents per side, each with a random acceptable set and, per
    pair of its candidates, no edge or one edge in either direction (not
    necessarily transitive), plus a partial matching over mutually
    acceptable pairs."""
    n_men, n_women = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    men = [man(i) for i in range(1, n_men + 1)]
    women = [woman(j) for j in range(1, n_women + 1)]
    rels = {}
    for a, others in [(m, women) for m in men] + [(w, men) for w in women]:
        acceptable = [c for c in others if draw(st.integers(0, 3)) > 0]
        edges = set()
        for c1, c2 in itertools.combinations(acceptable, 2):
            way = draw(st.sampled_from((None, (c1, c2), (c2, c1))))
            if way is not None:
                edges.add(way)
        rels[a] = Relation(a, frozenset(acceptable), frozenset(edges))
    instance = Instance(n_men, n_women, rels, base=False)
    taken, matched = set(), []
    for m, w in draw(st.permutations(instance.acceptable_pairs())):
        if m not in taken and w not in taken and draw(st.booleans()):
            taken |= {m, w}
            matched.append((m, w))
    return instance, Matching(matched)


def spec_blocking_pairs(instance, matching, level):
    """Every acceptable unmatched pair, classified by attitude."""
    out = []
    for m, w in instance.acceptable_pairs():
        if matching.partner(m) == w:
            continue
        man_att = attitude(instance, m, w, matching)
        woman_att = attitude(instance, w, m, matching)
        if _qualifies(level, man_att, woman_att):
            out.append(BlockingPair(m, w, level, man_att, woman_att))
    return tuple(out)


class TestOneScan:
    @settings(derandomize=True, database=None, max_examples=500, deadline=None)
    @given(asymmetric_markets())
    def test_levels_equal_spec(self, market):
        instance, mu = market
        expected = {level: spec_blocking_pairs(instance, mu, level) for level in Blocking}
        for level in Blocking:
            assert blocking_pairs(instance, mu, level) == expected[level]
        for stability, against in ((Stability.WEAK, Blocking.STRONG),
                                   (Stability.STRONG, Blocking.WEAK),
                                   (Stability.SUPER, Blocking.VERY_WEAK)):
            assert is_stable(instance, mu, stability) == (expected[against] == ())
        very_weak = {(b.man, b.woman) for b in expected[Blocking.VERY_WEAK]}
        for m, w in instance.acceptable_pairs():
            resolved = is_resolved(instance, PotentialBlocker(m, w, 2), mu)
            assert resolved == ((m, w) not in very_weak)


class TestIsStable:
    def test_ignorant_state_not_super_stable(self, fig1):
        assert not is_stable(fig1.instance, fig1.matching, Stability.SUPER)

    def test_three_interviews_reach_super_stability(self, fig1):
        refined = apply_interviews(
            fig1.instance, fig1.truth,
            interview_set([(man(2), woman(1)), (man(2), woman(2)),
                           (man(1), woman(2))]))
        assert is_stable(refined, fig1.matching, Stability.SUPER)

    def test_super_implies_strong_implies_weak(self):
        for seed in range(40):
            inst, truth = generate("random_smti", n=3, seed=seed,
                                   tie_cap=3, density=0.8)
            mu = gale_shapley(truth)
            if is_stable(inst, mu, Stability.SUPER):
                assert is_stable(inst, mu, Stability.STRONG)
            if is_stable(inst, mu, Stability.STRONG):
                assert is_stable(inst, mu, Stability.WEAK)

    def test_levels_coincide_on_strict_instances(self):
        for seed in range(30):
            _, truth = generate("random_smti", n=3, seed=seed,
                                tie_cap=1, density=0.8)
            strict = truth.as_instance()
            for pairs in _all_matchings_3x3(strict):
                mu = Matching(pairs)
                verdicts = {is_stable(strict, mu, level)
                            for level in (Stability.WEAK, Stability.STRONG,
                                          Stability.SUPER)}
                assert len(verdicts) == 1


def _all_matchings_3x3(instance):
    from interviewplan.stability import iter_matchings

    yield from iter_matchings(instance)


class TestGaleShapley:
    def test_unique_stable_matching(self, fig1):
        assert gale_shapley(fig1.truth, "m") == fig1.matching
        assert gale_shapley(fig1.truth, "w") == fig1.matching

    def test_mutual_tops_marry(self, tt2):
        assert gale_shapley(tt2.truth, "m") == tt2.matching
        assert gale_shapley(tt2.truth, "w") == tt2.matching

    def test_output_weakly_stable_and_enumerated(self):
        for seed in range(40):
            _, truth = generate("random_smti", n=4, seed=seed,
                                tie_cap=3, density=0.7)
            for side in ("m", "w"):
                mu = gale_shapley(truth, side)
                assert weakly_stable_under(truth, mu)
            assert gale_shapley(truth, "m") in stable_matchings(truth)


class TestEnumeration:
    def test_unique_matching_enumerated(self, fig1):
        assert stable_matchings(fig1.truth) == (fig1.matching,)

    def test_swap_blocked_under_mutual_tops(self, tt2):
        assert stable_matchings(tt2.truth) == (tt2.matching,)

    def test_single_pair(self):
        _, truth = generate("random_smti", n=1, seed=0, tie_cap=1)
        mus = stable_matchings(truth)
        assert mus == (Matching([(man(1), woman(1))]),)

    def test_size_cap(self, fig1):
        with pytest.raises(SizeLimitExceeded):
            stable_matchings(fig1.truth, size_cap=1)


class TestExtensionAgreement:
    def test_ignorant_state(self, fig1):
        # not super-stable, and some completion has a blocking pair: agree
        assert extension_agreement(fig1.instance, fig1.matching)

    def test_strict_instance(self, fig1):
        assert extension_agreement(fig1.truth.as_instance(), fig1.matching)

    def test_fully_interviewed(self, tt2):
        every = interview_set((m, w) for m in (man(1), man(2))
                              for w in (woman(1), woman(2)))
        refined = apply_interviews(tt2.instance, tt2.truth, every)
        assert is_stable(refined, tt2.matching, Stability.SUPER)
        assert extension_agreement(refined, tt2.matching)

    def test_cap_enforced(self, mt3):
        with pytest.raises(SizeLimitExceeded):
            extension_agreement(mt3.instance, mt3.matching, product_cap=5)

    def test_agreement_after_partial_interviews(self, mt3):
        partial = interview_set([(man(1), woman(1)), (man(1), woman(2)),
                                 (man(1), woman(3))])
        refined = apply_interviews(mt3.instance, mt3.truth, partial)
        assert extension_agreement(refined, mt3.matching, product_cap=60000)
