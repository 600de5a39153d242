import itertools

import pytest
from helpers import assert_classified_as_reference, class_markets
from hypothesis import assume, given, settings

from interviewplan.blockers import analyze_blockers, cover_graph, is_resolved
from interviewplan.errors import MatchingNotWeaklyStable, TruthInconsistent
from interviewplan.generators import (
    cover_market_smt,
    cover_market_smti,
    generate,
    random_bounded_graph,
)
from interviewplan.interviews import apply_interviews
from interviewplan.model import (
    MAN,
    WOMAN,
    Instance,
    Matching,
    Relation,
    StrictProfile,
    interview_set,
    man,
    woman,
)
from interviewplan.solvers import plan_for_matching
from interviewplan.stability import gale_shapley


class TestClassification:
    def test_fig1_report(self, fig1):
        report = analyze_blockers(fig1.instance, fig1.truth, fig1.matching)
        by_pair = {b.pair: b for b in report.blockers}
        assert set(by_pair) == {(man(1), woman(2)), (man(2), woman(1))}
        d1 = by_pair[(man(2), woman(1))]
        assert d1.degree == 1 and d1.keen_side == WOMAN
        assert by_pair[(man(1), woman(2))].degree == 2
        assert report.admirers == {man(2): frozenset({woman(1)})}
        assert report.mandated_men == frozenset({man(2)})
        assert report.open_mutual == ()

    def test_tt2_report(self, tt2):
        report = analyze_blockers(tt2.instance, tt2.truth, tt2.matching)
        assert {b.pair for b in report.blockers} == {(man(1), woman(2)),
                                                     (man(2), woman(1))}
        assert all(b.degree == 2 for b in report.blockers)
        assert report.mandated_men == frozenset()
        assert {b.pair for b in report.open_mutual} == {b.pair for b in report.blockers}

    def test_strict_instance_no_blockers(self, fig1):
        report = analyze_blockers(fig1.truth.as_instance(), fig1.truth, fig1.matching)
        assert report.blockers == ()

    def test_unstable_matching_rejected(self, fig1):
        swapped = Matching([(man(1), woman(2)), (man(2), woman(1))])
        with pytest.raises(MatchingNotWeaklyStable):
            analyze_blockers(fig1.instance, fig1.truth, swapped)

    def test_inconsistent_truth_rejected(self, fig1, tt2):
        with pytest.raises(TruthInconsistent):
            analyze_blockers(fig1.truth.as_instance(), tt2.truth, fig1.matching)

    def test_edge_leaving_acceptable_set_is_inconsistent(self, tt2):
        # m1 ranks w2 above w3, who is not on his list: no strict profile
        # over his acceptable set respects that comparison
        rels = dict(tt2.instance.relations)
        rels[man(1)] = Relation(man(1), rels[man(1)].acceptable,
                                frozenset({(woman(2), woman(3))}))
        inst = Instance(2, 2, rels)
        assert not tt2.truth.refines(inst)
        for solve in (analyze_blockers, plan_for_matching):
            with pytest.raises(TruthInconsistent):
                solve(inst, tt2.truth, tt2.matching)
        with pytest.raises(TruthInconsistent):
            apply_interviews(inst, tt2.truth, frozenset())

    def test_unmatched_agent_blocker_is_degree_one(self):
        # 2 men, 1 woman: m2 stays single and the woman truly prefers m1
        truth = StrictProfile({
            man(1): (woman(1),),
            man(2): (woman(1),),
            woman(1): (man(1), man(2)),
        })
        inst, _ = _ignorant_from_truth(truth, 2, 1)
        mu = Matching([(man(1), woman(1))])
        report = analyze_blockers(inst, truth, mu)
        by_pair = {b.pair: b for b in report.blockers}
        b = by_pair[(man(2), woman(1))]
        assert b.degree == 1 and b.keen_side == MAN
        # the woman's matched pair must interview
        assert report.mandated_men == frozenset({man(1)})


def _ignorant_from_truth(truth, n_men, n_women):
    from interviewplan.model import Instance, Relation

    rels = {a: Relation(a, frozenset(seq), frozenset())
            for a, seq in truth.ranking.items()}
    return Instance(n_men, n_women, rels), truth


class TestCoverGraph:
    def test_single_edge_for_tt2(self, tt2):
        report = analyze_blockers(tt2.instance, tt2.truth, tt2.matching)
        graph = cover_graph(report, tt2.matching)
        assert graph.vertices == ((man(1), woman(1)), (man(2), woman(2)))
        assert len(graph.edges) == 1

    def test_empty_for_fig1(self, fig1):
        report = analyze_blockers(fig1.instance, fig1.truth, fig1.matching)
        graph = cover_graph(report, fig1.matching)
        assert graph.vertices == () and graph.edges == ()

    def test_triangle_for_mt3(self, mt3):
        report = analyze_blockers(mt3.instance, mt3.truth, mt3.matching)
        graph = cover_graph(report, mt3.matching)
        assert len(graph.vertices) == 3
        assert len(graph.edges) == 3

    def test_no_isolated_vertices_and_no_mandated_men(self):
        for seed in range(60):
            inst, truth = generate("random_smti", n=4, seed=seed,
                                   tie_cap=3, density=0.8)
            mu = gale_shapley(truth)
            report = analyze_blockers(inst, truth, mu)
            graph = cover_graph(report, mu)
            for v in graph.vertices:
                assert graph.degree(v) >= 1
                assert v[0] not in report.mandated_men

    def test_provenance_points_at_open_blockers(self, mt3):
        report = analyze_blockers(mt3.instance, mt3.truth, mt3.matching)
        graph = cover_graph(report, mt3.matching)
        open_pairs = {b.pair for b in report.open_mutual}
        for edge, pairs in graph.provenance.items():
            assert set(pairs) <= open_pairs
            assert pairs


class TestResolution:
    def test_learning_own_order_resolves(self, tt2):
        report = analyze_blockers(tt2.instance, tt2.truth, tt2.matching)
        blocker = next(b for b in report.blockers if b.pair == (man(1), woman(2)))
        refined = apply_interviews(
            tt2.instance, tt2.truth,
            interview_set([(man(1), woman(1)), (man(1), woman(2))]))
        assert is_resolved(refined, blocker, tt2.matching)

    def test_single_meeting_resolves_nothing(self, tt2):
        report = analyze_blockers(tt2.instance, tt2.truth, tt2.matching)
        blocker = next(b for b in report.blockers if b.pair == (man(1), woman(2)))
        refined = apply_interviews(tt2.instance, tt2.truth,
                                   interview_set([(man(1), woman(2))]))
        assert not is_resolved(refined, blocker, tt2.matching)

    def test_witness_schedule_resolves_all(self, fig1):
        report = analyze_blockers(fig1.instance, fig1.truth, fig1.matching)
        refined = apply_interviews(
            fig1.instance, fig1.truth,
            interview_set([(man(2), woman(1)), (man(2), woman(2)),
                           (man(1), woman(2))]))
        assert all(is_resolved(refined, b, fig1.matching) for b in report.blockers)


class TestExhaustiveEquivalences:
    """Subset-exhaustive checks linking super-stability of the target to the
    blocker analysis, at 2x2 and sampled 3x3 scale; the full versions run in
    the acceptance suite."""

    def test_two_by_two_slice(self):
        from helpers import all_2x2_markets, check_resolution_equivalence
        from interviewplan.oracles import stable_matchings

        count = 0
        for inst, truth in itertools.islice(all_2x2_markets(), 300):
            for mu in stable_matchings(truth):
                check_resolution_equivalence(inst, truth, mu)
                count += 1
        assert count > 100

    def test_sampled_three_by_three(self):
        from helpers import check_resolution_equivalence

        for seed in range(25):
            inst, truth = generate("random_smti", n=3, seed=seed,
                                   tie_cap=3, density=0.85)
            mu = gale_shapley(truth)
            check_resolution_equivalence(inst, truth, mu)


class TestReferenceClassifier:
    """The row-by-row classification equals the pair-by-pair reference."""

    def test_generated_families(self):
        unmatched = 0
        for family in ("random_smti", "master_ties", "tiered", "one_side_strict"):
            for n in range(2, 13):
                for seed in range(5):
                    inst, truth = generate(family, n=n, seed=seed, density=0.5)
                    for side in (MAN, WOMAN):
                        mu = gale_shapley(truth, side)
                        unmatched += 2 * n - 2 * len(mu)
                        assert_classified_as_reference(inst, truth, mu)
        assert unmatched  # some targets leave agents unmatched

    def test_cover_markets(self, small_graphs):
        graphs = list(small_graphs) + [random_bounded_graph(30, 3, seed) for seed in range(3)]
        for g in graphs:
            for build in (cover_market_smti, cover_market_smt):
                inst, truth, mu, _ = build(g)
                assert_classified_as_reference(inst, truth, mu)

    @settings(max_examples=300)
    @given(class_markets())
    def test_class_markets(self, market):
        inst, truth, interviews, _ = market
        assume(truth.refines(inst))
        learned = apply_interviews(inst, truth, interviews)
        for side in (MAN, WOMAN):
            mu = gale_shapley(truth, side)
            for state in (inst, learned):
                assert_classified_as_reference(state, truth, mu)
