"""Acceptance suite: one test per shipped guarantee, each printing a PASS
line with the quantity it verified.  Everything here is exact (no
tolerances): costs are integers and properties are universally quantified
over the stated families.
"""

import random

from helpers import all_2x2_markets, check_resolution_equivalence
from interviewplan.blockers import analyze_blockers, cover_graph
from interviewplan.errors import SizeLimitExceeded
from interviewplan.formats import format_instance
from interviewplan.generators import (
    cover_market_smt,
    cover_market_smti,
    generate,
    orient_bounded_degree,
    random_bounded_graph,
)
from interviewplan.interviews import (
    apply_interviews,
    interview_compatibility,
    interview_cost,
)
from interviewplan.model import interview_set
from interviewplan.oracles import (
    brute_force_cover,
    extension_agreement,
    oracle_best_plan,
    oracle_plan_for_matching,
    stable_matchings,
)
from interviewplan.solvers import min_vertex_cover, naive_cost, plan_for_matching, best_plan
from interviewplan.stability import Stability, gale_shapley, is_stable


def test_01_smallest_hard_market_optimum_is_three(fig1):
    plan, mu = best_plan(fig1.instance, fig1.truth)
    assert plan.cost == 3
    assert mu == fig1.matching
    ocost, _, omu = oracle_best_plan(fig1.instance, fig1.truth)
    assert ocost == 3
    assert omu == fig1.matching
    print("PASS 01: 2x2 ignorant market needs exactly 3 interviews, "
          "solver and oracle agree on the matching")


def test_02_schedule_breakdown_on_smallest_hard_market(fig1):
    plan = plan_for_matching(fig1.instance, fig1.truth, fig1.matching)
    assert plan.breakdown == (2, 1, 0)
    assert plan.cost == 3
    ocost, _ = oracle_plan_for_matching(fig1.instance, fig1.truth, fig1.matching)
    assert ocost == plan.cost
    print("PASS 02: schedule breakdown 2 blockers + 1 mandated + 0 cover = 3, "
          "matching the brute-force optimum")


def test_03_tied_market_construction_tracks_vertex_cover(small_graphs):
    for g in small_graphs:
        inst, truth, matching, cost_of = cover_market_smti(g)
        vc = len(brute_force_cover(g))
        cost, _, _ = oracle_best_plan(inst, truth)
        assert cost == cost_of(vc) == vc + len(g.edges), (g.n, sorted(g.edges))
    print(f"PASS 03: on all {len(small_graphs)} connected max-degree-3 graphs "
          "up to 6 vertices, the tied-market optimum equals "
          "min-vertex-cover + edge-count")


def test_04_complete_market_construction_tracks_vertex_cover(small_graphs):
    quads = [g for g in small_graphs if g.n <= 4]
    for g in quads:
        inst, truth, matching, cost_of = cover_market_smt(g)
        vc = len(brute_force_cover(g))
        cost, _, _ = oracle_best_plan(inst, truth)
        assert cost == cost_of(vc) == vc + 2 * len(g.edges), (g.n, sorted(g.edges))
    print(f"PASS 04: on all {len(quads)} connected max-degree-3 graphs up to "
          "4 vertices, the complete-market optimum equals "
          "min-vertex-cover + twice the edge-count")


def test_05_solver_equals_oracle_on_random_markets():
    checked = 0
    for seed in range(220):
        inst, truth = generate("random_smti", n=3 + seed % 2, seed=seed,
                               tie_cap=3, density=0.85)
        mu = gale_shapley(truth)
        plan = plan_for_matching(inst, truth, mu)
        ocost, _ = oracle_plan_for_matching(inst, truth, mu, mode="pruned")
        assert plan.cost == ocost, seed
        assert is_stable(plan.refined, mu, Stability.SUPER), seed
        checked += 1
    assert checked >= 200
    print(f"PASS 05: solver cost equals brute-force cost on {checked} random "
          "markets of up to 4+4 agents, every schedule re-verified "
          "super-stable")


def test_06_one_strict_side_leaves_no_cover_work():
    checked = 0
    for seed in range(220):
        inst, truth = generate("one_side_strict", n=4, seed=seed,
                               tie_cap=3, density=0.9)
        mu = gale_shapley(truth)
        report = analyze_blockers(inst, truth, mu)
        graph = cover_graph(report, mu)
        assert graph.vertices == () and graph.edges == (), seed
        plan = plan_for_matching(inst, truth, mu)
        assert plan.cost == len(report.blockers) + len(report.mandated_men), seed
        assert plan.cover_size == 0
        checked += 1
    assert checked >= 200
    print(f"PASS 06: with one side fully strict, {checked} markets all gave "
          "an empty cover graph and cost = blockers + mandated")


def test_07_small_ties_keep_cover_graph_thin():
    checked = 0
    for seed in range(220):
        inst, truth = generate("random_smti", n=4, seed=seed,
                               tie_cap=2, density=0.9)
        mu = gale_shapley(truth)
        report = analyze_blockers(inst, truth, mu)
        graph = cover_graph(report, mu)
        assert all(graph.degree(v) <= 2 for v in graph.vertices), seed
        assert (len(min_vertex_cover(graph))
                == len(brute_force_cover(graph))), seed
        checked += 1
    assert checked >= 200
    print(f"PASS 07: with classes of size at most 2, {checked} cover graphs "
          "all had max degree 2 and the structured cover matched brute force")


def test_08_shared_classes_make_cover_graph_cliques(mt3):
    checked = 0
    for seed in range(220):
        inst, truth = generate("master_ties", n=4, seed=seed, tie_cap=4)
        mu = gale_shapley(truth)
        report = analyze_blockers(inst, truth, mu)
        graph = cover_graph(report, mu)
        adj = {v: set() for v in graph.vertices}
        for u, v in graph.edges:
            adj[u].add(v)
            adj[v].add(u)
        for v in graph.vertices:
            for u in adj[v]:
                assert adj[u] | {u} == adj[v] | {v}, seed
        assert (len(min_vertex_cover(graph))
                == len(brute_force_cover(graph))), seed
        checked += 1
    assert checked >= 200
    plan = plan_for_matching(mt3.instance, mt3.truth, mt3.matching)
    assert plan.cost == 8 and naive_cost(mt3.instance) == 9
    print(f"PASS 08: with shared classes, {checked} cover graphs decomposed "
          "into cliques; the 3x3 shared-tie market costs 8 against a naive 9")


def test_09_apply_recognize_recover_round_trip():
    rng = random.Random(1789)
    checked = 0
    while checked < 1000:
        seed = checked
        inst, truth = generate("random_smti", n=4, seed=seed,
                               tie_cap=3, density=0.85)
        pairs = inst.acceptable_pairs()
        chosen = interview_set(rng.sample(pairs, rng.randint(0, len(pairs))))
        refined = apply_interviews(inst, truth, chosen)
        witness = interview_compatibility(inst, refined)
        assert witness.compatible, seed
        cost, recovered = interview_cost(inst, refined)
        assert cost <= len(chosen), seed
        again = apply_interviews(inst, truth, recovered)
        assert again == refined, seed
        assert format_instance(again) == format_instance(refined), seed
        checked += 1
    print(f"PASS 09: {checked} random interview sets: application is "
          "recognized, recovery never overcounts, re-application reproduces "
          "the state exactly")


def test_10_super_stability_equals_blocker_resolution_exhaustively():
    markets = 0
    subsets = 0
    for inst, truth in all_2x2_markets():
        for mu in stable_matchings(truth):
            subsets += check_resolution_equivalence(inst, truth, mu)
            markets += 1
    for seed in range(200):
        inst, truth = generate("random_smti", n=3, seed=seed,
                               tie_cap=3, density=0.85)
        for mu in stable_matchings(truth):
            subsets += check_resolution_equivalence(inst, truth, mu)
            markets += 1
    print(f"PASS 10: over {markets} market/matching combinations "
          f"({subsets} interview subsets, every 2x2 market plus 200 sampled "
          "3x3), the target is super-stable exactly when every potential "
          "blocker is resolved, and every super-stabilizing subset contains "
          "all forced interviews")


def test_11_super_stability_matches_every_completion():
    checked = 0
    seed = 0
    while checked < 500:
        inst, truth = generate("random_smti", n=2 + seed % 2, seed=seed,
                               tie_cap=3, density=0.8)
        seed += 1
        mu = gale_shapley(truth)
        try:
            assert extension_agreement(inst, mu, product_cap=200000), seed
        except SizeLimitExceeded:
            continue
        checked += 1
    print(f"PASS 11: on {checked} random markets of up to 3+3 agents, the "
          "super-stability verdict agreed with weak stability under every "
          "completion of the partial knowledge")


def test_12_orientation_respects_degree_bounds():
    checked = 0
    for seed in range(1000):
        g = random_bounded_graph(n=3 + seed % 10, max_degree=3, seed=seed)
        oriented = orient_bounded_degree(g)
        undirected = {tuple(sorted(a)) for a in oriented.arcs}
        assert undirected == set(g.edges), seed
        assert len(oriented.arcs) == len(g.edges), seed
        for v in g.vertices:
            assert oriented.out_degree(v) <= 2, seed
            assert oriented.in_degree(v) <= 2, seed
        checked += 1
    print(f"PASS 12: {checked} random max-degree-3 graphs up to 12 vertices "
          "all oriented with in- and out-degree at most 2, every edge "
          "exactly once")
