import itertools
import pickle
import random

import pytest
from helpers import class_markets, edge_twin, reference_apply
from hypothesis import assume, given, settings

from interviewplan.errors import (
    NotARefinement,
    NotInterviewCompatible,
    TruthInconsistent,
    UnacceptablePair,
)
from interviewplan.formats import format_instance, parse_instance
from interviewplan.generators import (
    FAMILIES,
    cover_market_smt,
    cover_market_smti,
    generate,
    random_bounded_graph,
)
from interviewplan.interviews import (
    _apply_unchecked,
    apply_interviews,
    interview_compatibility,
    interview_cost,
)
from interviewplan.model import (
    MAN,
    WOMAN,
    _SORT_RATIO,
    Instance,
    Relation,
    StrictProfile,
    interview_set,
    man,
    relation,
    validate_instance,
    woman,
)
from interviewplan.solvers import plan_for_matching
from interviewplan.stability import gale_shapley

W = [None, woman(1), woman(2), woman(3)]
M = [None, man(1), man(2), man(3)]


def incomparable_1x3():
    rels = {
        man(1): Relation(man(1), frozenset(W[1:]), frozenset()),
        W[1]: Relation(W[1], frozenset({man(1)}), frozenset()),
        W[2]: Relation(W[2], frozenset({man(1)}), frozenset()),
        W[3]: Relation(W[3], frozenset({man(1)}), frozenset()),
    }
    return Instance(1, 3, rels)


class TestApply:
    def test_empty_set_is_identity(self, fig1):
        assert apply_interviews(fig1.instance, fig1.truth, frozenset()) == fig1.instance

    def test_single_interview_per_agent_changes_nothing(self, fig1):
        T = interview_set([(man(1), woman(1))])
        assert apply_interviews(fig1.instance, fig1.truth, T) == fig1.instance

    def test_two_interviews_order_one_agent(self, fig1):
        T = interview_set([(man(2), woman(1)), (man(2), woman(2))])
        refined = apply_interviews(fig1.instance, fig1.truth, T)
        # m2 met both women and ranks them per the truth; each woman met only m2
        assert refined.relations[man(2)].edges == frozenset({(woman(2), woman(1))})
        for w in (woman(1), woman(2)):
            assert refined.relations[w].edges == frozenset()

    def test_all_interviews_reveal_full_truth(self, tt2):
        every = interview_set((m, w) for m in (man(1), man(2))
                              for w in (woman(1), woman(2)))
        refined = apply_interviews(tt2.instance, tt2.truth, every)
        assert refined == tt2.truth.as_instance()

    def test_inconsistent_truth_rejected(self, fig1, tt2):
        bad = StrictProfile({**tt2.truth.ranking,
                             man(1): (woman(2), woman(1))})
        refined = apply_interviews(fig1.instance, fig1.truth,
                                   interview_set([(man(1), woman(1)), (man(1), woman(2))]))
        with pytest.raises(TruthInconsistent):
            apply_interviews(refined, bad, frozenset())

    def test_unacceptable_pair_rejected(self, tri):
        with pytest.raises(UnacceptablePair):
            apply_interviews(tri.instance, tri.truth,
                             interview_set([(man(1), woman(3))]))

    def test_learned_order_is_stored_as_met(self):
        # two thirds of a tiered market's acceptable pairs interview: each
        # learner keeps the base's classes and extra and stores the truth's
        # order over the candidates it met; everyone else is unchanged
        inst, truth = generate("tiered", n=6, seed=1, tiers=(3, 3), density=0.7)
        pairs = inst.acceptable_pairs()
        chosen = frozenset(random.Random(1).sample(pairs, 2 * len(pairs) // 3))
        refined = _apply_unchecked(inst, truth, chosen)
        learners = 0
        for a in inst.agents():
            base, rel = inst.relations[a], refined.relations[a]
            met = {c for pair in chosen if a in pair for c in pair if c != a}
            if len(met) < 2:
                assert rel is base
                continue
            learners += 1
            assert rel.extra is base.extra and rel.classes is base.classes
            assert rel.met == tuple(c for c in truth.ranking[a] if c in met)
            assert rel.rank == {c: i for i, c in enumerate(rel.met)}
        assert learners

    def test_second_learn_keeps_both_orders_as_pairs(self):
        rel = incomparable_1x3().relations[man(1)]
        once = rel.learn((W[2], W[1]))
        twice = once.learn((W[3], W[2]))
        assert once.met == (W[2], W[1]) and not once.extra
        assert twice.met == () and twice.extra == {(W[2], W[1]), (W[3], W[2])}
        assert twice.edges == {(W[2], W[1]), (W[3], W[2])}
        assert not twice.prefers(W[3], W[1])

    def test_full_list_learners_share_the_truths_rank_map(self):
        # every agent of a one-tier market meets its whole list; its learned
        # rank map is the profile's own, and the state still reads, compares,
        # costs and pickles as the reference's freshly built maps do
        inst, truth = generate("tiered", n=8, seed=2)
        plan = plan_for_matching(inst, truth, gale_shapley(truth, MAN))
        refined = plan.refined
        theirs = reference_apply(inst, truth, plan.interviews)
        for a in inst.agents():
            rel, ref = refined.relations[a], theirs.relations[a]
            assert rel.met is truth.ranking[a] and rel.rank is truth._rank[a]
            assert rel.rank == truth.ranks(a) == ref.rank
            assert (rel.classes, rel.level, rel.extra, rel.met) == \
                (ref.classes, ref.level, ref.extra, ref.met)
            assert rel.gains_over(inst.relations[a]) == ref.gains_over(inst.relations[a])
        assert refined == theirs
        assert truth.refines(refined) and truth.refines(theirs)
        assert interview_cost(inst, refined) == interview_cost(inst, theirs) == \
            (plan.cost, plan.interviews)
        copy = pickle.loads(pickle.dumps(refined))
        assert copy == refined
        assert all(copy.relations[a].rank == truth.ranks(a) for a in inst.agents())

    def test_second_learn_on_a_shared_rank_map_leaves_the_truth(self):
        inst, truth = generate("tiered", n=5, seed=4)
        refined = apply_interviews(inst, truth, frozenset(inst.acceptable_pairs()))
        a = man(1)
        before = dict(truth.ranks(a))
        rel = refined.relations[a]
        again = rel.learn(tuple(reversed(truth.ranking[a][:2])))
        assert again.met == () and again.rank == {}
        assert again.extra == frozenset(itertools.combinations(truth.ranking[a], 2)) | \
            {tuple(reversed(truth.ranking[a][:2]))}
        assert dict(truth.ranks(a)) == before and rel.rank is truth._rank[a]
        assert again.gains_over(rel) == {tuple(reversed(truth.ranking[a][:2]))}

    def test_result_not_flagged_base(self, fig1):
        T = interview_set([(man(2), woman(1)), (man(2), woman(2))])
        assert apply_interviews(fig1.instance, fig1.truth, T).base is False

    def test_one_sided_pair_rejected_either_way_round(self):
        # m1 accepts w1 and w2 but w2 accepts no one; w3 accepts m1, who
        # does not accept her.  Each pair is rejected in either order.
        inst = Instance(1, 3, {
            man(1): relation(man(1), W[1:3]),
            W[1]: relation(W[1], [man(1)]),
            W[3]: relation(W[3], [man(1)]),
        })
        truth = StrictProfile({man(1): (W[1], W[2]), W[1]: (man(1),), W[3]: (man(1),)})
        assert truth.refines(inst)
        for w in W[2:]:
            for pair in ((man(1), w), (w, man(1))):
                with pytest.raises(UnacceptablePair,
                                   match=f"^m1 and {w} are not mutually acceptable$"):
                    apply_interviews(inst, truth, frozenset({(man(1), W[1]), pair}))

    def test_pair_outside_agent_counts_rejected(self, fig1):
        for pair in ((man(3), woman(1)), (woman(1), man(3)), (man(1), woman(0))):
            with pytest.raises(UnacceptablePair, match="not mutually acceptable"):
                apply_interviews(fig1.instance, fig1.truth, frozenset({pair}))

    def test_same_side_pair_rejected(self, fig1):
        for pair in ((man(1), man(2)), (woman(2), woman(1))):
            with pytest.raises(ValueError, match="is not a man-woman pair"):
                apply_interviews(fig1.instance, fig1.truth,
                                 frozenset({(man(1), woman(1)), pair}))

    def test_same_side_pair_rejected_even_where_accepted(self):
        # an invalid market in which two men accept each other: the pair is
        # still rejected as one-sided, before any acceptability test
        inst = Instance(2, 1, {man(1): relation(man(1), [W[1], M[2]]),
                               man(2): relation(man(2), [M[1]]),
                               W[1]: relation(W[1], [M[1]])})
        truth = StrictProfile({M[1]: (W[1], M[2]), M[2]: (M[1],), W[1]: (M[1],)})
        assert truth.refines(inst)
        with pytest.raises(ValueError, match="^pair m1, m2 is not a man-woman pair$"):
            apply_interviews(inst, truth, frozenset({(M[1], M[2])}))

    @settings(max_examples=300)
    @given(class_markets())
    def test_checked_apply_equals_unchecked(self, market):
        # with a truth that refines the base, the checked apply of the pairs,
        # given man first or woman first, stores what the unchecked one does
        inst, truth, interviews, again = market
        assume(truth.refines(inst))
        learned = _apply_unchecked(inst, truth, interviews)
        for start, chosen, expected in ((inst, interviews, learned),
                                        (learned, again, _apply_unchecked(learned, truth, again))):
            for given_pairs in (chosen, frozenset((w, m) for m, w in chosen)):
                ours = apply_interviews(start, truth, given_pairs)
                assert ours.base is False
                for a in start.agents():
                    x, y = ours.relations[a], expected.relations[a]
                    assert (x.classes, x.level, x.extra, x.met) == \
                        (y.classes, y.level, y.extra, y.met), a

    def test_met_order_sorted_or_read_off_equals_keyed_sort(self):
        # an agent that met under a third of the candidates it ranks has them
        # sorted, any other reads them off its true order; both store the
        # keyed sort's order
        sorted_path = read_off = 0
        for family in FAMILIES:
            inst, truth = generate(family, n=24, seed=3, density=0.8)
            pairs = inst.acceptable_pairs()
            rng = random.Random(family)
            for share in (0.05, 0.2, 0.6, 1.0):
                chosen = frozenset(p for p in pairs if rng.random() < share)
                ours = _apply_unchecked(inst, truth, chosen)
                theirs = reference_apply(inst, truth, chosen)
                for a in inst.agents():
                    met = ours.relations[a].met
                    assert met == theirs.relations[a].met, (family, share, a)
                    if len(met) > 1:
                        if _SORT_RATIO * len(met) < len(truth.ranking[a]):
                            sorted_path += 1
                        else:
                            read_off += 1
        assert sorted_path and read_off

    @settings(max_examples=300)
    @given(class_markets())
    def test_met_order_read_off_truth_equals_keyed_sort(self, market):
        # with a truth that refines the base, each learned order equals the
        # interviewed candidates sorted by true rank, on the base, learned
        # and relearned states and their edge-built twins
        inst, truth, interviews, again = market
        assume(truth.refines(inst))
        learned = _apply_unchecked(inst, truth, interviews)
        relearned = _apply_unchecked(learned, truth, again)
        for state in (inst, learned, relearned):
            for start in (state, edge_twin(state)):
                for chosen in (interviews, again):
                    ours = _apply_unchecked(start, truth, chosen)
                    theirs = reference_apply(start, truth, chosen)
                    assert ours.base is theirs.base is False
                    for a in start.agents():
                        x, y = ours.relations[a], theirs.relations[a]
                        assert (x.classes, x.level, x.extra, x.met) == \
                            (y.classes, y.level, y.extra, y.met), a


class TestCompatibility:
    def test_identity_compatible_with_empty_endpoints(self, fig1):
        wit = interview_compatibility(fig1.instance, fig1.instance)
        assert wit.compatible
        assert all(not s for s in wit.endpoints.values())

    def test_learning_about_unmet_candidates_impossible(self):
        # one man learns he likes w1 best but still cannot compare w2 and w3:
        # unreachable, since meeting w2 and w3 would have ranked them too
        base = incomparable_1x3()
        rels = dict(base.relations)
        rels[man(1)] = Relation(man(1), frozenset(W[1:]),
                                frozenset({(W[1], W[2]), (W[1], W[3])}))
        refined = Instance(1, 3, rels, base=False)
        wit = interview_compatibility(base, refined)
        assert not wit.compatible
        agent, pair = wit.offender
        assert agent == man(1) and set(pair) == {W[2], W[3]}
        with pytest.raises(NotInterviewCompatible):
            interview_cost(base, refined)

    def test_apply_then_recognize(self, tt2):
        T = interview_set([(man(1), woman(1)), (man(1), woman(2))])
        refined = apply_interviews(tt2.instance, tt2.truth, T)
        wit = interview_compatibility(tt2.instance, refined)
        assert wit.compatible
        assert wit.endpoints[man(1)] == frozenset({woman(1), woman(2)})

    def test_non_refinement_raises(self, fig1):
        T = interview_set([(man(2), woman(1)), (man(2), woman(2))])
        refined = apply_interviews(fig1.instance, fig1.truth, T)
        with pytest.raises(NotARefinement):
            interview_compatibility(refined, fig1.instance)


class TestCost:
    def test_identity_costs_nothing(self, fig1):
        cost, recovered = interview_cost(fig1.instance, fig1.instance)
        assert cost == 0 and recovered == frozenset()

    def test_single_learner_charges_both_meetings(self, tt2):
        T = interview_set([(man(1), woman(1)), (man(1), woman(2))])
        refined = apply_interviews(tt2.instance, tt2.truth, T)
        cost, recovered = interview_cost(tt2.instance, refined)
        assert cost == 2 and recovered == T

    def test_three_interview_state(self, fig1):
        T = interview_set([(man(2), woman(1)), (man(2), woman(2)), (man(1), woman(2))])
        refined = apply_interviews(fig1.instance, fig1.truth, T)
        cost, recovered = interview_cost(fig1.instance, refined)
        assert cost == 3 and recovered == T

    def test_isolated_meetings_recover_nothing(self, fig1):
        # each agent meets at most one candidate: no comparisons form, so
        # the recovered minimal set is empty
        T = interview_set([(man(1), woman(1)), (man(2), woman(2))])
        refined = apply_interviews(fig1.instance, fig1.truth, T)
        assert refined == fig1.instance
        cost, recovered = interview_cost(fig1.instance, refined)
        assert cost == 0 and recovered == frozenset()


class TestRoundTrip:
    def test_random_roundtrips(self):
        rng = random.Random(20240817)
        for seed in range(300):
            inst, truth = generate("random_smti", n=4, seed=seed,
                                   tie_cap=3, density=0.85)
            pairs = inst.acceptable_pairs()
            T = interview_set(rng.sample(pairs, rng.randint(0, len(pairs))))
            refined = apply_interviews(inst, truth, T)
            wit = interview_compatibility(inst, refined)
            assert wit.compatible
            cost, recovered = interview_cost(inst, refined)
            assert cost <= len(T)
            assert recovered <= T
            again = apply_interviews(inst, truth, recovered)
            assert again == refined
            assert format_instance(again) == format_instance(refined)

    def test_cost_equals_edge_built_twin(self):
        # on class-built states the new comparisons are the refined extra
        # edges the base does not prefer; the twins rebuilt from literal edge
        # sets must give the same endpoints, cost and interview set, for the
        # plan's schedule and for a random one
        markets = []
        for family in FAMILIES:
            for seed in range(3):
                inst, truth = generate(family, n=8, seed=seed, density=0.7)
                markets.append((inst, truth, gale_shapley(truth, MAN)))
        for seed in range(3):
            for build in (cover_market_smti, cover_market_smt):
                inst, truth, mu, _ = build(random_bounded_graph(8, 3, seed))
                markets.append((inst, truth, mu))
        rng = random.Random(5)
        for inst, truth, mu in markets:
            pairs = inst.acceptable_pairs()
            for chosen in (plan_for_matching(inst, truth, mu).interviews,
                           interview_set(rng.sample(pairs, len(pairs) // 2))):
                refined = apply_interviews(inst, truth, chosen)
                twin, refined_twin = edge_twin(inst), edge_twin(refined)
                witness = interview_compatibility(twin, refined_twin)
                assert interview_compatibility(inst, refined) == witness
                assert interview_cost(inst, refined) == interview_cost(twin, refined_twin)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_second_round_on_a_plan_equals_it_on_the_parse_back(self, family):
        # a parsed-back refined state holds its met orders as plain edges, so
        # a second round must add only the new orders' pairs on both copies
        inst, truth = generate(family, n=10, seed=3, density=0.8)
        pairs = inst.acceptable_pairs()
        again = interview_set(p for i, p in enumerate(pairs) if i % 3 == 0)
        for side in (MAN, WOMAN):
            refined = plan_for_matching(inst, truth, gale_shapley(truth, side)).refined
            parsed = parse_instance(format_instance(refined), base=False)
            assert parsed == refined
            relearners = [a for a in inst.agents() if refined.relations[a].met
                          and sum(a in p for p in again) > 1]
            assert relearners and not any(parsed.relations[a].met for a in relearners)
            ours = apply_interviews(refined, truth, again)
            theirs = apply_interviews(parsed, truth, again)
            assert ours == theirs, (family, side)
            assert format_instance(ours) == format_instance(theirs), (family, side)

    def test_edge_growth_is_monotone_in_interviews(self):
        rng = random.Random(7)
        for seed in range(50):
            inst, truth = generate("random_smti", n=3, seed=seed, tie_cap=3)
            pairs = list(inst.acceptable_pairs())
            rng.shuffle(pairs)
            cut = rng.randint(0, len(pairs))
            small = apply_interviews(inst, truth, interview_set(pairs[:cut]))
            large = apply_interviews(inst, truth, interview_set(pairs))
            for a in inst.agents():
                assert small.relations[a].edges <= large.relations[a].edges

    def test_tie_shaped_states_stay_closure_free(self):
        # for class-shaped knowledge states, applying interviews never
        # creates an implied-but-unlearned comparison: the literal edge set
        # already equals its transitive closure
        for seed in range(40):
            inst, truth = generate("random_smti", n=4, seed=seed,
                                   tie_cap=4, density=0.9)
            rng = random.Random(seed)
            pairs = inst.acceptable_pairs()
            T = interview_set(rng.sample(pairs, rng.randint(0, len(pairs))))
            refined = apply_interviews(inst, truth, T)
            rebased = Instance(refined.n_men, refined.n_women,
                               refined.relations, base=True)
            assert validate_instance(rebased).ok
