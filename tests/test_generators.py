import pickle
from random import Random

import pytest
from helpers import reference_bounded_graph, reference_generate

from interviewplan import generators
from interviewplan.errors import BadParams, DegreeTooHigh, SizeLimitExceeded
from interviewplan.generators import (
    FAMILIES,
    SMALL_GRAPH_CAP,
    SimpleGraph,
    connected_small_graphs,
    cover_market_smt,
    cover_market_smti,
    generate,
    orient_bounded_degree,
    random_bounded_graph,
)
from interviewplan.model import (
    MAN,
    WOMAN,
    Instance,
    detect_tie_structure,
    man,
    tie_relation,
    validate_instance,
)
from interviewplan.oracles import brute_force_cover, oracle_best_plan, stable_matchings
from interviewplan.solvers import naive_cost, plan_for_matching
from interviewplan.stability import gale_shapley


def graph(n, edges):
    return SimpleGraph(n, frozenset(tuple(sorted(e)) for e in edges))


class TestOrientation:
    def test_triangle_becomes_directed_cycle(self):
        oriented = orient_bounded_degree(graph(3, [(1, 2), (2, 3), (1, 3)]))
        assert oriented.arcs == frozenset({(1, 2), (2, 3), (3, 1)})

    def test_single_edge(self):
        oriented = orient_bounded_degree(graph(2, [(1, 2)]))
        assert len(oriented.arcs) == 1

    def test_three_leaf_star_center_bounded(self):
        oriented = orient_bounded_degree(graph(4, [(1, 2), (1, 3), (1, 4)]))
        assert oriented.out_degree(1) + oriented.in_degree(1) == 3
        assert oriented.out_degree(1) <= 2 and oriented.in_degree(1) <= 2

    def test_degree_four_rejected(self):
        with pytest.raises(DegreeTooHigh):
            orient_bounded_degree(graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)]))

    def test_random_graphs_bounded_and_complete(self):
        for seed in range(300):
            g = random_bounded_graph(n=3 + seed % 10, max_degree=3, seed=seed)
            oriented = orient_bounded_degree(g)
            # every edge oriented exactly once
            undirected = {tuple(sorted(a)) for a in oriented.arcs}
            assert undirected == set(g.edges)
            assert len(oriented.arcs) == len(g.edges)
            for v in g.vertices:
                assert oriented.out_degree(v) <= 2
                assert oriented.in_degree(v) <= 2


class TestCoverMarketSmti:
    def test_triangle_reproduces_shipped_fixture(self, tri):
        inst, truth, matching, cost_of = cover_market_smti(
            graph(3, [(1, 2), (2, 3), (1, 3)]))
        assert inst == tri.instance
        assert truth == tri.truth
        assert matching == tri.matching
        assert cost_of(2) == 5

    def test_list_lengths_and_tie_sizes(self):
        for seed in range(60):
            g = random_bounded_graph(n=4 + seed % 5, max_degree=3, seed=seed)
            inst, truth, matching, _ = cover_market_smti(g)
            assert validate_instance(inst).ok
            assert truth.refines(inst)
            total_men_lists = sum(len(inst.relations[m].acceptable)
                                  for m in inst.men())
            assert total_men_lists == g.n + len(g.edges)
            for a in inst.agents():
                assert len(inst.relations[a].acceptable) <= 3
            assert naive_cost(inst) == g.n + len(g.edges)

    def test_single_edge_graph_optimum(self):
        inst, truth, matching, cost_of = cover_market_smti(graph(2, [(1, 2)]))
        cost, _, _ = oracle_best_plan(inst, truth)
        assert cost == cost_of(1) == 2

    def test_empty_graph_costs_nothing(self):
        inst, truth, matching, cost_of = cover_market_smti(graph(3, []))
        cost, _, _ = oracle_best_plan(inst, truth)
        assert cost == cost_of(0) == 0

    def test_identity_is_unique_stable_matching(self):
        g = random_bounded_graph(n=5, max_degree=3, seed=11)
        inst, truth, matching, _ = cover_market_smti(g)
        assert stable_matchings(truth) == (matching,)


class TestCoverMarketSmt:
    def test_women_first_classes_sized_by_edges(self):
        for seed in range(40):
            g = random_bounded_graph(n=3 + seed % 4, max_degree=3, seed=seed)
            inst, truth, _, _ = cover_market_smt(g)
            assert validate_instance(inst).ok
            assert truth.refines(inst)
            first_class_total = 0
            for w in inst.women():
                rel = inst.relations[w]
                worst = {lo for _, lo in rel.edges}
                first_class_total += len(rel.acceptable - worst)
            assert first_class_total == 2 * len(g.edges) + g.n

    def test_triangle_matches_cover_formula(self):
        inst, truth, _, cost_of = cover_market_smt(graph(3, [(1, 2), (2, 3), (1, 3)]))
        cost, _, _ = oracle_best_plan(inst, truth)
        assert cost == cost_of(2) == 8

    def test_single_edge_two_vertices(self):
        inst, truth, _, cost_of = cover_market_smt(graph(2, [(1, 2)]))
        cost, _, _ = oracle_best_plan(inst, truth)
        assert cost == cost_of(1) == 3

    def test_empty_graph_costs_nothing(self):
        inst, truth, _, cost_of = cover_market_smt(graph(3, []))
        cost, _, _ = oracle_best_plan(inst, truth)
        assert cost == cost_of(0) == 0

    def test_no_degree_bound_needed(self):
        star = graph(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
        inst, truth, _, _ = cover_market_smt(star)
        assert validate_instance(inst).ok

    def test_men_share_one_full_tie(self):
        for seed in range(10):
            g = random_bounded_graph(n=3 + seed % 4, max_degree=3, seed=seed)
            inst, _, _, _ = cover_market_smt(g)
            per_agent = dict(inst.relations)
            for m in inst.men():
                per_agent[m] = tie_relation(m, [inst.women()])
            twin = Instance(g.n, g.n, per_agent)
            assert inst == twin
            assert dict(detect_tie_structure(inst)) == dict(detect_tie_structure(twin))
            shared = inst.relations[man(1)]
            for m in inst.men():
                rel = inst.relations[m]
                assert rel.owner == m and rel.classes is shared.classes


class TestGenerate:
    def test_deterministic_given_seed(self):
        a = generate("random_smti", n=4, seed=42, tie_cap=3, density=0.7)
        b = generate("random_smti", n=4, seed=42, tie_cap=3, density=0.7)
        assert a[0] == b[0] and a[1] == b[1]
        c = generate("random_smti", n=4, seed=43, tie_cap=3, density=0.7)
        assert a != c

    def test_truth_always_refines(self):
        for family in ("tiered", "random_smti", "master_ties", "one_side_strict"):
            for seed in range(20):
                kwargs = {"tiers": [2, 2]} if family == "tiered" else {}
                inst, truth = generate(family, n=4, seed=seed, tie_cap=3,
                                       density=0.8, **kwargs)
                assert validate_instance(inst).ok
                assert truth.refines(inst)

    def test_tiered_stable_matchings_stay_in_tier(self):
        for seed in range(15):
            _, truth = generate("tiered", n=4, seed=seed, tiers=[2, 2])
            for mu in stable_matchings(truth):
                for m, w in mu.pairs:
                    assert (m.index <= 2) == (w.index <= 2)

    def test_master_ties_instance_shape(self, mt3):
        inst, _ = generate("master_ties", n=3, seed=0, tie_cap=3)
        # one shared class sequence per side
        men_edges = {inst.relations[m].edges for m in inst.men()}
        women_edges = {inst.relations[w].edges for w in inst.women()}
        assert len(men_edges) == 1 and len(women_edges) == 1

    def test_full_tie_master_reproduces_shared_shape(self, mt3):
        # the shipped 3x3 market is the single-full-tie member of the family
        inst, _ = generate("master_ties", n=3, seed=13, tie_cap=3)
        assert all(not inst.relations[a].edges for a in inst.agents())
        assert inst == mt3.instance

    def test_one_side_strict_women_totally_ordered(self):
        inst, truth = generate("one_side_strict", n=4, seed=2, tie_cap=3)
        for w in inst.women():
            rel = inst.relations[w]
            acc = sorted(rel.acceptable)
            for i, c1 in enumerate(acc):
                for c2 in acc[i + 1:]:
                    assert rel.comparable(c1, c2)

    def test_strict_cap_one_yields_strict_instance(self):
        from interviewplan.solvers import best_plan

        inst, truth = generate("random_smti", n=3, seed=1, tie_cap=1, density=0.9)
        assert inst.kind in ("smi", "smt")
        assert inst == truth.as_instance()
        plan, _ = best_plan(inst, truth)
        assert plan.cost == 0

    def test_bad_params(self):
        with pytest.raises(BadParams):
            generate("random_smti", n=0, seed=0)
        with pytest.raises(BadParams):
            generate("tiered", n=4, seed=0, tiers=[3, 3])
        with pytest.raises(BadParams):
            generate("random_smti", n=3, seed=0, tie_cap=0)
        with pytest.raises(BadParams):
            generate("nope", n=3, seed=0)


class TestSharedRelations:
    def test_generate_equals_per_agent_build(self):
        # one relation per distinct class list and no shuffle of a
        # one-member class draw the same random stream as a tie_relation
        # per agent and a shuffle per class
        params = [dict(family=family, n=7, seed=seed, tie_cap=tie_cap, density=density)
                  for family in FAMILIES for seed in range(5)
                  for tie_cap in (1, 3, 8) for density in (0.3, 1.0)]
        params += [dict(family="tiered", n=7, seed=seed, tiers=tiers)
                   for seed in range(5) for tiers in ([7], [3, 4], [1, 2, 4], [1] * 7)]
        # the benchmark's size, one market per family
        params += [dict(family=family, n=50, seed=11, density=0.5) for family in FAMILIES]
        for kwargs in params:
            inst, truth = generate(**kwargs)
            ref_inst, ref_truth = reference_generate(**kwargs)
            assert inst == ref_inst, kwargs
            assert truth.ranking == ref_truth.ranking, kwargs
            assert all(rel.owner == a for a, rel in inst.relations.items()), kwargs

    def test_shared_families_share_one_relation_per_side(self):
        for family, kwargs in (("master_ties", {}), ("tiered", {"tiers": [2, 3, 4]})):
            inst, truth = generate(family, n=9, seed=1, **kwargs)
            for side in (inst.men(), inst.women()):
                shared = inst.relations[side[0]]
                for a in side:
                    rel = inst.relations[a]
                    assert rel.owner == a
                    assert rel.classes is shared.classes and rel.level is shared.level
                    assert rel.acceptable is shared.acceptable
                    assert rel._index is shared._index
            # so does every agent that learned by interview
            refined = plan_for_matching(inst, truth, gale_shapley(truth, MAN)).refined
            learners = [a for a in inst.agents() if refined.relations[a].met]
            assert learners
            for a in learners:
                rel, base = refined.relations[a], inst.relations[a]
                assert rel.classes is base.classes and rel.level is base.level
                assert rel._index is base._index

    def test_shared_relations_survive_a_pickle_round_trip(self):
        inst, truth = generate("master_ties", n=12, seed=3)
        copy, copy_truth = pickle.loads(pickle.dumps((inst, truth)))
        assert copy == inst and copy_truth == truth
        assert copy.relations[man(1)].level is copy.relations[man(2)].level
        for side in (MAN, WOMAN):
            mu = gale_shapley(truth, side)
            plan = plan_for_matching(inst, truth, mu)
            again = plan_for_matching(copy, copy_truth, mu)
            assert (again.cost, again.interviews, again.breakdown, again.structure) == \
                (plan.cost, plan.interviews, plan.breakdown, plan.structure)
            assert again.refined == plan.refined
            # the refined state pickles with its class indexes, which still
            # give every open set
            refined = pickle.loads(pickle.dumps(plan.refined))
            assert refined == plan.refined
            for a, rel in plan.refined.relations.items():
                twin = refined.relations[a]
                assert twin._index == rel._index
                assert all(twin.open_to(p) == rel.open_to(p)
                           for p in (None, *sorted(rel.acceptable)))


class TestDraws:
    """The generators draw through getrandbits alone; these pin every draw
    to the one the stdlib's Random methods make from the same state."""

    def test_shuffle_draws_as_random_shuffle(self):
        for seed in range(100):
            ours, theirs = Random(seed), Random(seed)
            for length in range(71):
                mine, stdlib = list(range(length)), list(range(length))
                generators._shuffle(ours.getrandbits, mine)
                theirs.shuffle(stdlib)
                assert mine == stdlib, (seed, length)
                assert ours.getstate() == theirs.getstate(), (seed, length)

    def test_below_draws_as_random_randint(self):
        for seed in range(100):
            ours, theirs = Random(seed), Random(seed)
            for low in (0, 1):
                for high in range(low, low + 70):
                    drawn = low + generators._below(ours.getrandbits, high - low + 1)
                    assert drawn == theirs.randint(low, high), (seed, low, high)
                    assert ours.getstate() == theirs.getstate(), (seed, low, high)

    def test_random_bounded_graph_draws_as_the_stdlib_reference(self):
        for n in range(1, 61):
            for seed in range(10):
                assert (random_bounded_graph(n, 3, seed)
                        == reference_bounded_graph(n, 3, seed)), (n, seed)


class TestGraphEnumeration:
    def test_counts_up_to_four_vertices(self):
        graphs = connected_small_graphs(4)
        by_n = {}
        for g in graphs:
            by_n.setdefault(g.n, []).append(g)
        assert [len(by_n.get(n, [])) for n in (1, 2, 3, 4)] == [1, 1, 2, 6]

    def test_sizes_over_the_cap_raise_before_any_scan(self, monkeypatch):
        # 2^28 edge masks at 8 vertices against 2^21 at the cap of 7
        def scanned(n, edges):
            raise AssertionError("the edge masks were scanned")

        monkeypatch.setattr(generators, "_connected", scanned)
        assert SMALL_GRAPH_CAP == 7
        with pytest.raises(SizeLimitExceeded, match="8 vertices exceed the cap of 7"):
            connected_small_graphs(SMALL_GRAPH_CAP + 1)

    def test_members_are_connected_and_bounded(self, small_graphs):
        for g in small_graphs:
            assert max(g.degrees().values(), default=0) <= 3
            # connectivity via the cover machinery: a spanning walk exists
            from interviewplan.generators import _connected

            assert _connected(g.n, [(u - 1, v - 1) for u, v in g.edges])

    def test_pairwise_non_isomorphic_by_invariants(self, small_graphs):
        seen = set()
        for g in small_graphs:
            deg = sorted(g.degrees().values())
            cover = len(brute_force_cover(g))
            triangles = sum(
                1 for a in g.vertices for b in g.vertices for c in g.vertices
                if a < b < c and {(a, b), (b, c), (a, c)} <= set(g.edges))
            key = (g.n, len(g.edges), tuple(deg), cover, triangles)
            # invariant collisions possible, exact duplicates are not
            assert (key, g.edges) not in seen
            seen.add((key, g.edges))

    def test_known_members_present(self, small_graphs):
        sigs = {(g.n, len(g.edges), tuple(sorted(g.degrees().values())))
                for g in small_graphs}
        assert (6, 9, (3, 3, 3, 3, 3, 3)) in sigs   # 3-regular on six vertices
        assert (6, 5, (1, 1, 1, 1, 1, 5)) not in sigs  # no degree-5 stars
        assert (5, 5, (2, 2, 2, 2, 2)) in sigs      # five-cycle
