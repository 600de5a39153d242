import pickle
import warnings
from importlib.resources import files

import pytest
from helpers import (
    bb_cover_size,
    edge_twin,
    reference_structure,
    reference_apply,
    reference_min_vertex_cover,
    search_cover_size,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from interviewplan import fixtures, solvers
from interviewplan.blockers import analyze_blockers, cover_graph
from interviewplan.cli import main
from interviewplan.errors import InternalAssumptionViolated, SizeLimitExceeded
from interviewplan.generators import (
    FAMILIES,
    SimpleGraph,
    cover_market_smti,
    generate,
    random_bounded_graph,
)
from interviewplan.model import (
    MAN,
    WOMAN,
    Instance,
    Relation,
    StrictProfile,
    man,
    tie_relation,
    validate_instance,
    woman,
)
from interviewplan.oracles import (
    brute_force_cover,
    linear_extensions,
    oracle_best_plan,
    oracle_plan_for_matching,
)
from interviewplan.solvers import (
    PlanStructure,
    _CoverSearch,
    best_plan,
    detect_structure,
    min_vertex_cover,
    naive_cost,
    plan_for_matching,
)
from interviewplan.stability import (
    Blocking,
    Stability,
    blocking_pairs,
    gale_shapley,
    is_stable,
)


def graph(n, edges):
    return SimpleGraph(n, frozenset(tuple(sorted(e)) for e in edges))


def complete_graph(n):
    return graph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)])


@st.composite
def bounded_graphs_and_cliques(draw):
    """A disjoint union, on at most 40 vertices relabelled at random, of
    random graphs of max degree 3-4 and cliques K2-K8."""
    edges, n = [], 0
    while n < 39 and (not edges or draw(st.booleans())):
        if draw(st.booleans()):
            size = draw(st.integers(2, min(8, 40 - n)))
            part = complete_graph(size)
        else:
            size = draw(st.integers(2, 40 - n))
            part = random_bounded_graph(size, draw(st.integers(3, 4)),
                                        draw(st.integers(0, 10**6)))
        edges += [(u + n, v + n) for u, v in part.edges]
        n += size
    label = draw(st.permutations(range(1, n + 1)))
    return graph(n, [(label[u - 1], label[v - 1]) for u, v in edges])


class TestMinVertexCover:
    def test_single_edge(self):
        assert min_vertex_cover(graph(2, [(1, 2)])) == (1,)

    def test_triangle(self):
        cover = min_vertex_cover(graph(3, [(1, 2), (2, 3), (1, 3)]))
        assert cover == (1, 2)

    def test_empty_graph(self):
        assert min_vertex_cover(graph(4, [])) == ()

    def test_path_and_cycle_sizes(self):
        # path with l edges and cycle with l edges both need ceil(l / 2)
        for length in range(1, 8):
            path = graph(length + 1, [(i, i + 1) for i in range(1, length + 1)])
            assert len(min_vertex_cover(path)) == (length + 1) // 2
        for length in range(3, 9):
            cycle = graph(length, [(i, i % length + 1) for i in range(1, length + 1)])
            assert len(min_vertex_cover(cycle)) == (length + 1) // 2

    def test_clique_needs_all_but_one(self):
        for n in range(2, 13):
            assert min_vertex_cover(complete_graph(n)) == tuple(range(1, n))

    def test_clique_beside_path(self):
        # K_n on 1..n, then a path through the next `length` + 1 vertices
        for n in range(2, 9):
            for length in range(1, 5):
                path = [(i, i + 1) for i in range(n + 1, n + length + 1)]
                g = graph(n + length + 1, list(complete_graph(n).edges) + path)
                cover = min_vertex_cover(g)
                assert cover[:n - 1] == tuple(range(1, n))
                assert len(cover) == n - 1 + (length + 1) // 2
                if n + length + 1 <= 12:
                    assert cover == tuple(brute_force_cover(g)), (n, length)

    def test_closed_forms_equal_branch_and_bound_per_component(self):
        graphs = [random_bounded_graph(n=4 + seed % 13, max_degree=3, seed=seed)
                  for seed in range(1000)]
        graphs += [graph(n + 1, [(i, i + 1) for i in range(1, n + 1)]) for n in range(1, 9)]
        graphs += [graph(n, [(i, i % n + 1) for i in range(1, n + 1)]) for n in range(3, 10)]
        graphs += [complete_graph(n) for n in range(2, 8)]
        for g in graphs:
            search = _CoverSearch(g.edges)
            for comp in search.components(search.full):
                comp_vertices = search.members(comp)
                comp_edges = sorted(e for e in g.edges if e[0] in comp_vertices)
                assert search.size(comp) == bb_cover_size(comp_vertices, comp_edges), g

    def test_equals_brute_force_on_bounded_graphs(self):
        for seed in range(300):
            g = random_bounded_graph(n=4 + seed % 7, max_degree=3, seed=seed)
            assert min_vertex_cover(g) == tuple(brute_force_cover(g)), seed

    @settings(max_examples=300)
    @given(st.integers(min_value=1, max_value=10).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(1, n), st.integers(1, n))
                    .filter(lambda e: e[0] < e[1])))))
    def test_equals_brute_force_on_any_small_graph(self, spec):
        n, edges = spec
        g = graph(n, edges)
        assert min_vertex_cover(g) == tuple(brute_force_cover(g))

    def test_large_bounded_degree_cover_market(self):
        # the cover graph has 114 vertices and 140 edges, far beyond brute
        # force; the unmemoized branch and bound gives the size to match
        inst, truth, matching, _ = cover_market_smti(random_bounded_graph(120, 3, seed=3))
        g = cover_graph(analyze_blockers(inst, truth, matching), matching)
        cover = min_vertex_cover(g)
        assert cover == tuple(sorted(set(cover)))
        assert all(u in cover or v in cover for u, v in g.edges)
        vertices, edges = sorted(g.vertices), sorted(g.edges)
        assert len(cover) == bb_cover_size(vertices, edges)
        assert search_cover_size(edges) == len(cover)

    @settings(max_examples=400)
    @given(st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(st.tuples(st.integers(1, n), st.integers(1, n))
                    .filter(lambda e: e[0] < e[1])))))
    def test_search_size_equals_brute_force(self, spec):
        n, edges = spec
        g = graph(n, edges)
        assert search_cover_size(sorted(g.edges)) == len(brute_force_cover(g))

    @settings(max_examples=300)
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=2, max_value=4),
           st.integers(min_value=0, max_value=10**6))
    def test_search_size_equals_branch_and_bound(self, n, max_degree, seed):
        g = random_bounded_graph(n, max_degree, seed)
        vertices, edges = list(g.vertices), sorted(g.edges)
        assert search_cover_size(edges) == bb_cover_size(vertices, edges)

    @settings(max_examples=150)
    @given(bounded_graphs_and_cliques())
    def test_equals_per_component_reference(self, g):
        assert min_vertex_cover(g) == reference_min_vertex_cover(g)

    def test_pinned_covers_of_benchmark_sized_graphs(self):
        # the covers the unmemoized branch and bound guided the walk to
        pinned = {
            7: (1, 4, 5, 6, 7, 9, 10, 13, 15, 18, 20, 23, 25, 28, 29, 32, 34, 36,
                38, 39, 40),
            12: (1, 2, 3, 4, 10, 11, 12, 14, 15, 16, 18, 19, 20, 26, 28, 31, 32,
                 33, 34, 35, 36, 38),
            18: (1, 3, 4, 5, 6, 8, 9, 12, 14, 15, 18, 20, 21, 22, 24, 27, 30, 31,
                 32, 36, 37, 39),
        }
        for seed, cover in pinned.items():
            assert min_vertex_cover(random_bounded_graph(40, 3, seed)) == cover, seed

    def test_thousands_of_vertices_without_recursion(self):
        # 700 triangles in a chain and a 2,000-vertex path: the reductions
        # take them apart, and no search step recurses
        triangles = []
        for i in range(700):
            a, b, c = 3 * i + 1, 3 * i + 2, 3 * i + 3
            triangles += [(a, b), (b, c), (a, c)] + ([(3 * i, a)] if i else [])
        chain = graph(2100, triangles)
        cover = min_vertex_cover(chain)
        assert len(cover) == 1400
        assert all(u in cover or v in cover for u, v in chain.edges)
        path = graph(2000, [(i, i + 1) for i in range(1, 2000)])
        assert min_vertex_cover(path) == tuple(range(1, 2000, 2))

    def test_star_plus_clique_mixed_components(self):
        g = graph(8, [(1, 2), (1, 3), (1, 4),           # star
                      (5, 6), (5, 7), (6, 7), (6, 8), (7, 8), (5, 8)])  # K4
        cover = min_vertex_cover(g)
        assert len(cover) == 1 + 3
        assert 1 in cover


class TestCoverBudget:
    def test_min_vertex_cover_raises_past_the_budget(self, monkeypatch):
        g = random_bounded_graph(40, 3, 12)
        assert len(min_vertex_cover(g)) == 22
        monkeypatch.setattr(solvers, "COVER_NODE_BUDGET", 10)
        with pytest.raises(SizeLimitExceeded, match="budget of 10 nodes"):
            min_vertex_cover(g)

    def test_plan_for_matching_raises_without_falling_back(self, monkeypatch):
        inst, truth, matching, _ = cover_market_smti(graph(4, [(1, 2), (1, 3), (1, 4)]))
        monkeypatch.setattr(solvers, "COVER_NODE_BUDGET", 0)
        with pytest.raises(SizeLimitExceeded, match="budget of 0 nodes"):
            plan_for_matching(inst, truth, matching)

    def test_solve_exits_one_with_the_message(self, monkeypatch, tmp_path, capsys):
        (tmp_path / "star.graph").write_text("graph 4 3\n1 2\n1 3\n1 4\n", encoding="utf-8")
        prefix = str(tmp_path / "star")
        assert main(["gen", "--family", "vc3-smti", "--graph", prefix + ".graph",
                     "--out", prefix]) == 0
        monkeypatch.setattr(solvers, "COVER_NODE_BUDGET", 0)
        capsys.readouterr()
        assert main(["solve", prefix + ".instance", prefix + ".truth",
                     "--matching", prefix + ".matching"]) == 1
        assert "vertex cover search exceeded its budget of 0 nodes" in capsys.readouterr().err

    def test_bench_writes_the_error_into_its_row(self, monkeypatch, tmp_path, capsys):
        # of the ten connected graphs on up to four vertices, the four
        # cliques take the clique shortcut and need no search
        monkeypatch.setattr(solvers, "COVER_NODE_BUDGET", 0)
        out = tmp_path / "rows.csv"
        assert main(["bench", "--family", "vc3-smti", "--max-n", "4",
                     "--omit-runtime", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        errors = [cells[14] for cells in rows]
        assert len(rows) == 10
        assert errors.count("vertex cover search exceeded its budget of 0 nodes") == 6
        assert errors.count("") == 4
        assert all((cells[9] == "") == (cells[14] != "") for cells in rows)


class TestPlanForMatching:
    def test_fig1_breakdown(self, fig1):
        plan = plan_for_matching(fig1.instance, fig1.truth, fig1.matching)
        assert plan.cost == 3
        assert plan.breakdown == (2, 1, 0)
        assert len(plan.interviews) == plan.cost
        assert is_stable(plan.refined, fig1.matching, Stability.SUPER)

    def test_tt2_breakdown(self, tt2):
        plan = plan_for_matching(tt2.instance, tt2.truth, tt2.matching)
        assert plan.cost == 3
        assert plan.breakdown == (2, 0, 1)
        assert plan.structure == PlanStructure.TIES_AT_MOST_2

    def test_mt3_breakdown_beats_naive(self, mt3):
        plan = plan_for_matching(mt3.instance, mt3.truth, mt3.matching)
        assert plan.cost == 8
        assert plan.breakdown == (6, 0, 2)
        assert plan.structure == PlanStructure.MASTER_TIES
        assert naive_cost(mt3.instance) == 9

    def test_already_super_stable_costs_nothing(self, fig1):
        strict = fig1.truth.as_instance()
        plan = plan_for_matching(strict, fig1.truth, fig1.matching)
        assert plan.cost == 0 and plan.breakdown == (0, 0, 0)
        assert plan.interviews == frozenset()

    def test_matches_oracle_on_random_markets(self):
        for seed in range(120):
            inst, truth = generate("random_smti", n=4, seed=seed,
                                   tie_cap=3, density=0.8)
            mu = gale_shapley(truth)
            plan = plan_for_matching(inst, truth, mu)
            cost, _ = oracle_plan_for_matching(inst, truth, mu)
            assert plan.cost == cost
            assert is_stable(plan.refined, mu, Stability.SUPER)

    @settings(max_examples=200)
    @given(st.data())
    def test_matches_oracle_on_general_partial_orders(self, data):
        # edge-built base relations: a random sub-order of a hidden linear
        # order, closed transitively, so not class-shaped in general; the
        # truth is one linear extension per agent
        draw = data.draw
        n_men, n_women = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        men = [man(i) for i in range(1, n_men + 1)]
        women = [woman(j) for j in range(1, n_women + 1)]
        pairs = [(m, w) for m in men for w in women if draw(st.booleans())][:10]
        acceptable = {a: [] for a in men + women}
        for m, w in pairs:
            acceptable[m].append(w)
            acceptable[w].append(m)
        rels = {}
        for a, cands in acceptable.items():
            hidden = draw(st.permutations(cands))
            edges = {(hidden[i], hidden[j]) for i in range(len(hidden))
                     for j in range(i + 1, len(hidden)) if draw(st.booleans())}
            closed = set(edges)
            for mid in hidden:
                closed |= {(hi, lo) for hi, m1 in closed if m1 == mid
                           for m2, lo in closed if m2 == mid}
            rels[a] = Relation(a, frozenset(cands), frozenset(closed))
        inst = Instance(n_men, n_women, rels)
        assert validate_instance(inst).ok
        truth = StrictProfile({a: draw(st.sampled_from(linear_extensions(inst, a)[0]))
                               for a in men + women})
        for side in (MAN, WOMAN):
            mu = gale_shapley(truth, side)
            plan = plan_for_matching(inst, truth, mu)
            cost, _ = oracle_plan_for_matching(inst, truth, mu)
            assert plan.cost == cost
            assert is_stable(plan.refined, mu, Stability.SUPER)

    def test_cost_at_least_forced_interviews(self):
        for seed in range(60):
            inst, truth = generate("random_smti", n=4, seed=seed,
                                   tie_cap=3, density=0.7)
            mu = gale_shapley(truth)
            plan = plan_for_matching(inst, truth, mu)
            assert plan.cost >= plan.blocker_count + plan.mandated_count
            assert plan.cost <= naive_cost(inst)

    def test_exact_on_graph_backed_markets(self, small_graphs):
        # the cover graph the analysis builds is isomorphic to the source
        # graph, so the schedule cost must equal cover size + overhead
        from interviewplan.generators import cover_market_smt, cover_market_smti

        for g in small_graphs:
            inst, truth, matching, cost_of = cover_market_smti(g)
            vc = len(brute_force_cover(g))
            plan = plan_for_matching(inst, truth, matching)
            assert plan.cost == cost_of(vc)
            assert plan.breakdown == (len(g.edges), 0, vc)
        for g in (g for g in small_graphs if g.n <= 5):
            inst, truth, matching, cost_of = cover_market_smt(g)
            vc = len(brute_force_cover(g))
            plan = plan_for_matching(inst, truth, matching)
            assert plan.cost == cost_of(vc)
            assert plan.breakdown == (2 * len(g.edges), 0, vc)

    def test_unequal_sides_with_unmatched_man(self):
        # 3 men, 2 women, everyone initially incomparable; one man must
        # stay single, and the solver still matches the brute-force optimum
        from interviewplan.model import Instance, Relation, StrictProfile

        men = [man(i) for i in (1, 2, 3)]
        women = [woman(j) for j in (1, 2)]
        rels = {m: Relation(m, frozenset(women), frozenset()) for m in men}
        rels.update({w: Relation(w, frozenset(men), frozenset()) for w in women})
        inst = Instance(3, 2, rels)
        truth = StrictProfile({
            man(1): (woman(1), woman(2)),
            man(2): (woman(2), woman(1)),
            man(3): (woman(1), woman(2)),
            woman(1): (man(1), man(2), man(3)),
            woman(2): (man(2), man(1), man(3)),
        })
        mu = gale_shapley(truth)
        assert mu.partner(man(3)) is None
        plan = plan_for_matching(inst, truth, mu)
        cost, _ = oracle_plan_for_matching(inst, truth, mu, mode="pure")
        assert plan.cost == cost
        assert is_stable(plan.refined, mu, Stability.SUPER)

    def test_failed_assertion_raises_without_falling_back(self, fig1, monkeypatch, capsys,
                                                          tmp_path):
        # fig1 has 4 acceptable pairs, few enough for the exhaustive oracle,
        # yet a failed re-check raises and no other solver answers instead
        monkeypatch.setattr(solvers, "is_stable", lambda *args: False)
        message = "schedule does not make the target super-stable"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InternalAssumptionViolated, match=f"^{message}$"):
                plan_for_matching(fig1.instance, fig1.truth, fig1.matching)
            with pytest.raises(InternalAssumptionViolated, match=f"^{message}$"):
                best_plan(fig1.instance, fig1.truth)
        assert caught == []
        data = files("interviewplan").joinpath("data")
        capsys.readouterr()
        assert main(["solve", str(data / "fig1.instance"), str(data / "fig1.truth"),
                     "--matching", str(data / "fig1.matching")]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        out = tmp_path / "rows.csv"
        assert main(["bench", "--family", "vc3-smti", "--max-n", "3",
                     "--omit-runtime", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text(encoding="utf-8").splitlines()[1:]]
        assert rows and all(cells[14] == message for cells in rows)


class TestStructureDetection:
    def test_one_side_strict(self):
        inst, _ = generate("one_side_strict", n=4, seed=1, tie_cap=3)
        assert detect_structure(inst) == PlanStructure.ONE_SIDE_STRICT

    def test_small_ties(self):
        inst, _ = generate("random_smti", n=4, seed=1, tie_cap=2, density=0.9)
        assert detect_structure(inst) in (PlanStructure.TIES_AT_MOST_2,
                                          PlanStructure.ONE_SIDE_STRICT)

    def test_master_ties(self, mt3):
        assert detect_structure(mt3.instance) == PlanStructure.MASTER_TIES

    def test_general(self):
        from interviewplan.model import Instance, Relation

        ws = [woman(j) for j in (1, 2, 3)]
        rels = {
            man(1): Relation(man(1), frozenset(ws), frozenset({(ws[0], ws[1])})),
            man(2): Relation(man(2), frozenset(ws), frozenset()),
            ws[0]: Relation(ws[0], frozenset({man(1), man(2)}), frozenset()),
            ws[1]: Relation(ws[1], frozenset({man(1), man(2)}), frozenset()),
            ws[2]: Relation(ws[2], frozenset({man(1), man(2)}), frozenset()),
        }
        inst = Instance(2, 3, rels, base=False)
        assert detect_structure(inst) == PlanStructure.GENERAL

    def test_labels_equal_the_edge_set_reference(self):
        # each market, its edge twin and the refined state of a plan on it,
        # whose met orders are read through the in-degree recovery
        markets = [fixtures.load(name).instance for name in fixtures.FIXTURE_NAMES]
        for seed in range(3):
            for tiers in ([6], [3, 3], [2, 2, 1, 1], [1] * 6):
                inst, truth = generate("tiered", n=6, seed=seed, tiers=tiers)
                markets += [inst, plan_for_matching(inst, truth, gale_shapley(truth)).refined]
            for family in FAMILIES[1:]:
                for tie_cap in (1, 2, 3, 6):
                    inst, truth = generate(family, n=6, seed=seed, tie_cap=tie_cap,
                                           density=0.7)
                    plan = plan_for_matching(inst, truth, gale_shapley(truth, WOMAN))
                    markets += [inst, plan.refined]
        # the men tie, the women are strict: only the second side is
        ws = [woman(1), woman(2)]
        markets.append(Instance(2, 2, {
            man(1): tie_relation(man(1), [ws]), man(2): tie_relation(man(2), [ws]),
            ws[0]: tie_relation(ws[0], [[man(1)], [man(2)]]),
            ws[1]: tie_relation(ws[1], [[man(2)], [man(1)]])}))
        labels = set()
        for inst in markets:
            for state in (inst, edge_twin(inst)):
                label = detect_structure(state)
                assert label == reference_structure(state), (inst, label)
                labels.add(label)
        assert labels == set(PlanStructure)


class TestBestPlan:
    def test_fig1_minimum(self, fig1):
        plan, mu = best_plan(fig1.instance, fig1.truth)
        assert plan.cost == 3 and mu == fig1.matching

    def test_tri_minimum(self, tri):
        plan, mu = best_plan(tri.instance, tri.truth)
        assert plan.cost == 5 and mu == tri.matching

    def test_strict_instance_costs_nothing(self, fig1):
        plan, mu = best_plan(fig1.truth.as_instance(), fig1.truth)
        assert plan.cost == 0 and plan.interviews == frozenset()

    def test_cap_enforced(self, fig1):
        with pytest.raises(SizeLimitExceeded):
            best_plan(fig1.instance, fig1.truth, size_cap=1)


def family_market(family, n, seed):
    tiers = (n // 2, n - n // 2) if family == "tiered" and n > 1 else None
    return generate(family, n=n, seed=seed, tiers=tiers, density=0.7)


def plan_view(plan):
    """A plan's schedule, breakdown, structure and refined edge sets."""
    return (plan.cost, plan.interviews, plan.breakdown, plan.structure,
            {a: r.edges for a, r in plan.refined.relations.items()})


class TestClassBuiltMarkets:
    def test_plans_equal_on_edge_built_twin(self):
        for family in FAMILIES:
            for n in range(1, 13):
                for seed in range(2):
                    inst, truth = family_market(family, n, seed)
                    twin = edge_twin(inst)
                    for side in (MAN, WOMAN):
                        mu = gale_shapley(truth, side)
                        assert (plan_view(plan_for_matching(inst, truth, mu))
                                == plan_view(plan_for_matching(twin, truth, mu))), \
                            (family, n, seed, side)

    def test_solve_path_never_reads_the_edge_view(self, monkeypatch):
        from interviewplan.generators import cover_market_smt, cover_market_smti

        def solve_all():
            plans = []
            for family in FAMILIES:
                inst, truth = family_market(family, 8, 3)
                for side in (MAN, WOMAN):
                    plans.append(plan_for_matching(inst, truth, gale_shapley(truth, side)))
                inst, truth = family_market(family, 5, 3)
                plans.append(best_plan(inst, truth)[0])
            for build in (cover_market_smti, cover_market_smt):
                inst, truth, mu, _ = build(random_bounded_graph(10, 3, 1))
                plans.append(plan_for_matching(inst, truth, mu))
            return plans

        expected = [plan_view(p) for p in solve_all()]

        def unread(rel):
            raise AssertionError(f"the edge view of {rel.owner} was read")

        monkeypatch.setattr(Relation, "edges", property(unread))
        plans = solve_all()
        monkeypatch.undo()
        assert [plan_view(p) for p in plans] == expected


    def test_solve_never_calls_prefers_per_pair(self, monkeypatch):
        # the blocker scan and the super-stability check read settled sets,
        # so a solve of a 30x30 market calls prefers fewer times than there
        # are agents, where a per-pair scan would call it for most of the
        # 900 pairs
        inst, truth = generate("master_ties", n=30, seed=0)
        mu = gale_shapley(truth, MAN)
        calls = 0
        prefers = Relation.prefers

        def counted(rel, c1, c2):
            nonlocal calls
            calls += 1
            return prefers(rel, c1, c2)

        monkeypatch.setattr(Relation, "prefers", counted)
        plan = plan_for_matching(inst, truth, mu)
        monkeypatch.undo()
        assert plan.report.blockers and len(inst.acceptable_pairs()) == 900
        assert calls < len(inst.agents())

    def test_solve_never_builds_the_pair_list(self, monkeypatch):
        # the blocker scan and the super-stability check read each man's
        # open candidates, so no solve, stability verdict or blocker list
        # needs the sorted list of every acceptable pair
        def markets():
            for family in FAMILIES:
                inst, truth = generate(family, n=30, seed=0)
                for side in (MAN, WOMAN):
                    yield inst, truth, gale_shapley(truth, side)
            inst, truth, mu, _ = cover_market_smti(random_bounded_graph(30, 3, 1))
            yield inst, truth, mu

        def answers():
            out = []
            for inst, truth, mu in markets():
                out.append(plan_view(plan_for_matching(inst, truth, mu)))
                out.append([is_stable(inst, mu, level) for level in Stability])
                out.append([blocking_pairs(inst, mu, level) for level in Blocking])
            return out

        expected = answers()

        def unbuilt(instance):
            raise AssertionError("the acceptable-pair list was built")

        monkeypatch.setattr(Instance, "acceptable_pairs", unbuilt)
        got = answers()
        monkeypatch.undo()
        assert got == expected

    def test_counts_and_caps_never_build_the_pair_list(self, monkeypatch):
        # the naive baseline counts the pairs, and every cap check counts
        # them before it lists them, so a market over a cap is refused
        # without its pair list
        inst, truth = generate("master_ties", n=30, seed=0)
        inst = Instance(30, 30, inst.relations)
        mu = gale_shapley(truth, MAN)

        def unbuilt(instance):
            raise AssertionError("the acceptable-pair list was built")

        monkeypatch.setattr(Instance, "acceptable_pairs", unbuilt)
        assert naive_cost(inst) == 900
        for mode, cap in (("pure", 16), ("pruned", 24)):
            with pytest.raises(SizeLimitExceeded,
                               match=f"^900 acceptable pairs exceed the cap of {cap}$"):
                oracle_plan_for_matching(inst, truth, mu, mode=mode)
        with pytest.raises(SizeLimitExceeded,
                           match="^900 acceptable pairs exceed the cap of 18$"):
            oracle_best_plan(inst, truth)
        monkeypatch.undo()
        assert len(inst.acceptable_pairs()) == 900


class TestDenseMarkets:
    def test_tiered_every_pair_interviews(self):
        # one tier of 200 per side: every one of the 40,000 acceptable pairs
        # is in the schedule, and the refined state ranks each agent's whole
        # list
        inst, truth = generate("tiered", n=200, seed=0)
        plan = plan_for_matching(inst, truth, gale_shapley(truth, MAN))
        assert plan.cost == 40000
        assert plan.interviews == frozenset(inst.acceptable_pairs())
        assert all(plan.refined.relations[a].met == truth.ranking[a] for a in inst.agents())

    def test_tiered_three_hundred_a_side(self):
        # 90,000 pairs: every pair interviews, 89,700 as blockers and 300 as
        # mandated matched pairs, and the refined state stores what the
        # keyed-sort reference does (compared part by part: the derived
        # edge sets would hold 27 million pairs)
        inst, truth = generate("tiered", n=300, seed=0)
        plan = plan_for_matching(inst, truth, gale_shapley(truth, MAN))
        assert plan.cost == naive_cost(inst) == 90000
        assert plan.breakdown == (89700, 300, 0)
        theirs = reference_apply(inst, truth, plan.interviews)
        for a in inst.agents():
            x, y = plan.refined.relations[a], theirs.relations[a]
            assert (x.classes, x.level, x.extra, x.met, x.rank) == \
                (y.classes, y.level, y.extra, y.met, y.rank), a


PROTOCOLS = range(2, pickle.HIGHEST_PROTOCOL + 1)


class TestPickle:
    """An instance's slots hold its counts, agents, relations and the pair
    list and count once cached, all plain values: it round-trips under every
    protocol from 2, the first that pickles slots, with its caches."""

    def test_solved_instance_round_trips(self):
        inst, truth = generate("master_ties", n=4, seed=0)
        mu = gale_shapley(truth, MAN)
        plan = plan_for_matching(inst, truth, mu)
        for protocol in PROTOCOLS:
            copy = pickle.loads(pickle.dumps(inst, protocol))
            assert copy == inst and copy.kind == inst.kind, protocol
            again = plan_for_matching(copy, StrictProfile(truth.ranking), mu)
            assert again == plan, protocol

    def test_refined_state_round_trips_after_its_kind_was_read(self):
        for family in FAMILIES:
            inst, truth = generate(family, n=6, seed=1)
            plan = plan_for_matching(inst, truth, gale_shapley(truth, WOMAN))
            assert plan.refined.kind
            for protocol in PROTOCOLS:
                copy = pickle.loads(pickle.dumps(plan.refined, protocol))
                assert copy == plan.refined, (family, protocol)
                assert copy.kind == plan.refined.kind, (family, protocol)

    def test_edge_built_instance_round_trips(self, tri):
        inst = Instance(2, 2, {man(1): Relation(man(1), frozenset({woman(1), woman(2)}),
                                                frozenset({(woman(1), woman(2))}))})
        for state in (inst, tri.instance):
            assert state.kind
            for protocol in PROTOCOLS:
                assert pickle.loads(pickle.dumps(state, protocol)) == state, protocol

    def test_cached_pairs_and_count_round_trip(self, tri):
        # the count is cached first, as a solve's callers do, then the list
        markets = [tri.instance, edge_twin(tri.instance)]
        markets += [generate(family, n=5, seed=2)[0] for family in FAMILIES]
        for inst in markets:
            count = inst.pair_count()
            pairs = inst.acceptable_pairs()
            for protocol in PROTOCOLS:
                copy = pickle.loads(pickle.dumps(inst, protocol))
                assert copy == inst, protocol
                assert (copy._pairs, copy._count) == (pairs, count), protocol
                assert copy.acceptable_pairs() == pairs and copy.pair_count() == count


class TestNaiveCost:
    def test_complete_market(self, fig1, mt3):
        assert naive_cost(fig1.instance) == 4
        assert naive_cost(mt3.instance) == 9

    def test_incomplete_market(self, tri):
        assert naive_cost(tri.instance) == 6
