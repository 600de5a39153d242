import pytest
from helpers import class_markets
from hypothesis import given, settings

from interviewplan.errors import (
    InvalidMatching,
    MatchingNotWeaklyStable,
    SizeLimitExceeded,
    TruthInconsistent,
)
from interviewplan.generators import SimpleGraph, generate
from interviewplan.interviews import apply_interviews
from interviewplan.model import MAN, WOMAN, Matching, StrictProfile, interview_set, man, woman
from interviewplan.oracles import (
    brute_force_cover,
    find_super_stable,
    oracle_best_plan,
    oracle_plan_for_matching,
    stable_matchings,
)
from interviewplan.stability import Stability, gale_shapley, is_stable


class TestOraclePlanForMatching:
    def test_fig1_costs_three(self, fig1):
        for mode in ("pure", "pruned"):
            cost, chosen = oracle_plan_for_matching(fig1.instance, fig1.truth,
                                                    fig1.matching, mode=mode)
            assert cost == 3
            refined = apply_interviews(fig1.instance, fig1.truth, chosen)
            assert is_stable(refined, fig1.matching, Stability.SUPER)

    def test_tt2_costs_three(self, tt2):
        pure = oracle_plan_for_matching(tt2.instance, tt2.truth, tt2.matching, "pure")
        pruned = oracle_plan_for_matching(tt2.instance, tt2.truth, tt2.matching, "pruned")
        assert pure == pruned and pure[0] == 3

    def test_already_super_stable(self, fig1):
        strict = fig1.truth.as_instance()
        cost, chosen = oracle_plan_for_matching(strict, fig1.truth, fig1.matching)
        assert cost == 0 and chosen == frozenset()

    def test_unstable_matching_rejected(self, fig1):
        swapped = Matching([(man(1), woman(2)), (man(2), woman(1))])
        with pytest.raises(MatchingNotWeaklyStable):
            oracle_plan_for_matching(fig1.instance, fig1.truth, swapped)

    def test_cap_enforced(self, mt3):
        with pytest.raises(SizeLimitExceeded):
            oracle_plan_for_matching(mt3.instance, mt3.truth, mt3.matching,
                                     mode="pure", size_cap=4)

    def test_each_input_error_is_the_same_in_both_modes(self, fig1):
        # pure mode checks its inputs itself, pruned mode through
        # analyze_blockers; both raise the same error with the same message
        short = StrictProfile({**fig1.truth.ranking, man(1): (woman(1),)})
        swapped = Matching([(man(1), woman(2)), (man(2), woman(1))])
        cases = ((short, fig1.matching, TruthInconsistent),
                 (fig1.truth, Matching([(man(1), woman(3))]), InvalidMatching),
                 (fig1.truth, swapped, MatchingNotWeaklyStable))
        for truth, mu, error in cases:
            raised = set()
            for mode in ("pure", "pruned"):
                with pytest.raises(error) as caught:
                    oracle_plan_for_matching(fig1.instance, truth, mu, mode=mode)
                raised.add((type(caught.value), str(caught.value)))
            assert len(raised) == 1 and next(iter(raised))[0] is error, raised

    def test_pure_equals_pruned_exhaustively_small(self):
        for seed in range(80):
            inst, truth = generate("random_smti", n=3, seed=seed,
                                   tie_cap=3, density=0.85)
            mu = gale_shapley(truth)
            assert (oracle_plan_for_matching(inst, truth, mu, "pure")
                    == oracle_plan_for_matching(inst, truth, mu, "pruned"))

    def test_pure_equals_pruned_sampled_larger(self):
        for seed in range(12):
            inst, truth = generate("random_smti", n=4, seed=seed,
                                   tie_cap=3, density=0.9)
            mu = gale_shapley(truth)
            assert (oracle_plan_for_matching(inst, truth, mu, "pure")
                    == oracle_plan_for_matching(inst, truth, mu, "pruned"))


class TestOracleBestPlan:
    def test_fig1(self, fig1):
        cost, chosen, mu = oracle_best_plan(fig1.instance, fig1.truth)
        assert cost == 3 and mu == fig1.matching

    def test_tri(self, tri):
        cost, chosen, mu = oracle_best_plan(tri.instance, tri.truth)
        assert cost == 5 and mu == tri.matching

    def test_single_pair_market(self):
        inst, truth = generate("random_smti", n=1, seed=0, tie_cap=1)
        cost, chosen, mu = oracle_best_plan(inst, truth)
        assert cost == 0 and len(mu) == 1

    def test_minimum_over_target_matchings(self):
        # the unconstrained optimum equals the best per-matching optimum
        for seed in range(25):
            inst, truth = generate("random_smti", n=3, seed=seed,
                                   tie_cap=3, density=0.85)
            cost, _, _ = oracle_best_plan(inst, truth)
            per_matching = min(
                oracle_plan_for_matching(inst, truth, mu, "pure")[0]
                for mu in stable_matchings(truth))
            assert cost == per_matching

    def test_cap_checked_before_validation(self, mt3, fig1):
        # an over-cap market is refused before its truth is checked
        with pytest.raises(SizeLimitExceeded):
            oracle_best_plan(mt3.instance, fig1.truth, size_cap=4)

    def test_witness_matching_super_stable(self):
        for seed in range(25):
            inst, truth = generate("random_smti", n=3, seed=seed,
                                   tie_cap=2, density=0.9)
            cost, chosen, mu = oracle_best_plan(inst, truth)
            refined = apply_interviews(inst, truth, chosen)
            assert is_stable(refined, mu, Stability.SUPER)


class TestStableMatchings:
    @settings(max_examples=300)
    @given(class_markets())
    def test_lists_both_optimal_matchings_and_matches_the_same_agents(self, market):
        # deferred acceptance from either side is stable, and by the Rural
        # Hospitals theorem every stable matching matches the same agents
        truth = market[1]
        found = stable_matchings(truth)
        assert gale_shapley(truth, MAN) in found
        assert gale_shapley(truth, WOMAN) in found
        assert len({frozenset(a for pair in mu.pairs for a in pair) for mu in found}) == 1


class TestFindSuperStable:
    def test_ignorant_state_has_none(self, fig1):
        assert find_super_stable(fig1.instance) is None

    def test_strict_instance(self, fig1):
        assert find_super_stable(fig1.truth.as_instance()) == fig1.matching

    def test_fully_interviewed(self, tt2):
        every = interview_set((m, w) for m in (man(1), man(2))
                              for w in (woman(1), woman(2)))
        refined = apply_interviews(tt2.instance, tt2.truth, every)
        assert find_super_stable(refined) == tt2.matching

    def test_returned_matching_verifies(self):
        for seed in range(30):
            _, truth = generate("random_smti", n=3, seed=seed,
                                tie_cap=2, density=0.8)
            strict = truth.as_instance()
            mu = find_super_stable(strict)
            assert mu is not None
            assert is_stable(strict, mu, Stability.SUPER)

    def test_cap_enforced(self, mt3):
        with pytest.raises(SizeLimitExceeded):
            find_super_stable(mt3.instance, size_cap=2)


class TestBruteForceCover:
    def test_triangle(self):
        g = SimpleGraph(3, frozenset({(1, 2), (2, 3), (1, 3)}))
        assert brute_force_cover(g) == (1, 2)

    def test_single_edge(self):
        g = SimpleGraph(2, frozenset({(1, 2)}))
        assert brute_force_cover(g) == (1,)

    def test_empty(self):
        g = SimpleGraph(3, frozenset())
        assert brute_force_cover(g) == ()

    def test_cap_enforced(self):
        g = SimpleGraph(30, frozenset())
        with pytest.raises(SizeLimitExceeded):
            brute_force_cover(g, size_cap=10)
