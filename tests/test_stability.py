import itertools
import math

import pytest
from helpers import (
    class_markets,
    draw_partial_matching,
    edge_twin,
    pair_list_scan,
    prefers_scan,
    reference_iter_matchings,
    reference_open,
    spec_blocking_pairs,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from interviewplan.blockers import PotentialBlocker, analyze_blockers, is_resolved
from interviewplan.errors import InvalidMatching, SizeLimitExceeded
from interviewplan import fixtures, oracles
from interviewplan.generators import FAMILIES, generate
from interviewplan.interviews import _apply_unchecked, apply_interviews
from interviewplan.model import (
    Instance,
    Matching,
    Relation,
    detect_tie_structure,
    interview_set,
    man,
    tie_relation,
    woman,
)
from interviewplan.oracles import (
    extension_agreement,
    iter_matchings,
    linear_extensions,
    stable_matchings,
)
from interviewplan.stability import (
    Blocking,
    Stability,
    _very_weak_blockers,
    _very_weak_rows,
    blocking_pairs,
    gale_shapley,
    is_stable,
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
        # above the declared counts, and index 0 on either side
        for pair in ((man(1), woman(9)), (man(0), woman(1)), (man(1), woman(0))):
            with pytest.raises(InvalidMatching, match="outside declared agent counts"):
                blocking_pairs(fig1.instance, Matching([pair]), Blocking.WEAK)


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
    return instance, draw_partial_matching(draw, instance)


@st.composite
def class_states(draw):
    """A class-built market from ``class_markets`` with its truth and two
    interview sets, plus a partial matching over its acceptable pairs."""
    inst, truth, interviews, again = draw(class_markets())
    return inst, truth, interviews, again, draw_partial_matching(draw, inst)


def assert_scan_equals_spec(instance, spec_instance, mu):
    """Every stability query on ``instance`` answers as the definitions do
    on ``spec_instance``, its literal edge sets: the blockers at each
    level, each stability verdict and whether each pair is resolved."""
    expected = {level: spec_blocking_pairs(spec_instance, mu, level) for level in Blocking}
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


class TestOneScan:
    @settings(max_examples=500)
    @given(asymmetric_markets())
    def test_levels_equal_spec(self, market):
        instance, mu = market
        assert_scan_equals_spec(instance, instance, mu)

    @settings(max_examples=400)
    @given(class_states())
    def test_class_built_states_equal_edge_twin(self, market):
        # the base state reads class levels, the learned one met ranks too,
        # and the relearned one also literal pairs in extra; an inconsistent
        # truth can teach the reverse of a class pair, and the spec's
        # attitudes are defined for asymmetric states only
        inst, truth, interviews, again, mu = market
        learned = _apply_unchecked(inst, truth, interviews)
        relearned = _apply_unchecked(learned, truth, again)
        consistent = truth.refines(inst)
        classify = consistent and weakly_stable_under(truth, mu)
        for state in (inst, learned, relearned):
            twin = edge_twin(state)
            pairs = state.acceptable_pairs()
            assert list(_very_weak_blockers(state, mu)) == prefers_scan(twin, mu, pairs)
            if consistent:
                assert_scan_equals_spec(state, twin, mu)
            if classify:
                assert analyze_blockers(state, truth, mu) == analyze_blockers(twin, truth, mu)


@st.composite
def odd_markets(draw):
    """Up to 4 agents per side whose relations mix every part a relation
    can hold: classes cut from a random order of the acceptable set, or
    none, random extra edges (consistent or not, some leaving the
    acceptable set), a met order over some acceptable candidates,
    one-sided acceptability, and acceptable candidates outside the
    declared agents.  Plus a partial matching, which leaves some agents
    unmatched."""
    n_men, n_women = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    men = [man(i) for i in range(1, n_men + 1)]
    women = [woman(j) for j in range(1, n_women + 1)]
    rels = {}
    for a, others in [(m, women + [woman(n_women + 1)]) for m in men] + \
                     [(w, men + [man(n_men + 1)]) for w in women]:
        acceptable = [c for c in others if draw(st.booleans())]
        ties = None
        if draw(st.booleans()):
            pool = draw(st.permutations(acceptable))
            cuts = sorted(draw(st.lists(st.integers(0, len(pool)), max_size=len(pool))))
            bounds = [0] + cuts + [len(pool)]
            ties = tie_relation(a, (pool[i:j] for i, j in zip(bounds, bounds[1:])))
        extra = frozenset(p for p in itertools.permutations(others, 2)
                          if draw(st.integers(0, 5)) == 0)
        met = draw(st.permutations([c for c in acceptable if draw(st.booleans())]))
        rels[a] = Relation(a, frozenset(acceptable), extra, ties=ties, met=tuple(met))
    instance = Instance(n_men, n_women, rels, base=False)
    return instance, draw_partial_matching(draw, instance)


def assert_scan_equals_pair_list(instance, mu):
    """The open-candidate scan yields exactly the pair-list reference's
    pairs, in its order, and ``is_resolved`` agrees with it on every
    mutually acceptable pair."""
    expected = pair_list_scan(instance, mu)
    assert list(_very_weak_blockers(instance, mu)) == expected
    blocking = set(expected)
    for m, w in instance.acceptable_pairs():
        resolved = is_resolved(instance, PotentialBlocker(m, w, 2), mu)
        assert resolved == ((m, w) not in blocking)


class TestOpenCandidateScan:
    @settings(max_examples=500)
    @given(asymmetric_markets())
    def test_equals_pair_list_on_asymmetric_markets(self, market):
        assert_scan_equals_pair_list(*market)

    @settings(max_examples=400)
    @given(class_states())
    def test_equals_pair_list_on_base_learned_and_relearned_states(self, market):
        inst, truth, interviews, again, mu = market
        learned = _apply_unchecked(inst, truth, interviews)
        relearned = _apply_unchecked(learned, truth, again)
        for state in (inst, learned, relearned):
            assert_scan_equals_pair_list(state, mu)

    @settings(max_examples=500)
    @given(odd_markets())
    def test_equals_pair_list_on_odd_markets(self, market):
        assert_scan_equals_pair_list(*market)

    def test_equals_pair_list_on_dense_generated_markets(self):
        # the benchmark's market shapes at a smaller n, base and refined
        from interviewplan.solvers import plan_for_matching

        for family in ("random_smti", "master_ties", "tiered", "one_side_strict"):
            inst, truth = generate(family, n=20, seed=1)
            for side in ("m", "w"):
                mu = gale_shapley(truth, side)
                assert_scan_equals_pair_list(inst, mu)
                assert_scan_equals_pair_list(plan_for_matching(inst, truth, mu).refined, mu)

    def test_unmatched_market_blocks_on_every_acceptable_pair(self):
        inst, _ = generate("random_smti", n=6, seed=2, density=0.5)
        empty = Matching([])
        assert tuple(_very_weak_blockers(inst, empty)) == inst.acceptable_pairs()


def assert_rows_equal_pair_list(instance, mu):
    """The scan's rows flatten to the pair-list reference's pairs, in its
    order; every row is non-empty and sorted, and the men ascend."""
    rows = list(_very_weak_rows(instance, mu))
    assert [(m, w) for m, row in rows for w in row] == pair_list_scan(instance, mu)
    assert all(row and row == sorted(row) for _, row in rows)
    men = [m for m, _ in rows]
    assert all(a < b for a, b in zip(men, men[1:]))


class TestRowScan:
    def test_rows_on_generated_markets(self):
        from interviewplan.solvers import plan_for_matching

        for family in ("random_smti", "master_ties", "tiered", "one_side_strict"):
            for n in (3, 12, 20):
                inst, truth = generate(family, n=n, seed=n, density=0.5)
                for side in ("m", "w"):
                    mu = gale_shapley(truth, side)
                    assert_rows_equal_pair_list(inst, mu)
                    assert_rows_equal_pair_list(plan_for_matching(inst, truth, mu).refined, mu)
                assert_rows_equal_pair_list(inst, Matching([]))

    @settings(max_examples=400)
    @given(class_states())
    def test_rows_on_base_learned_and_relearned_states(self, market):
        inst, truth, interviews, again, mu = market
        learned = _apply_unchecked(inst, truth, interviews)
        relearned = _apply_unchecked(learned, truth, again)
        for state in (inst, learned, relearned):
            assert_rows_equal_pair_list(state, mu)


@st.composite
def any_relation(draw, owner, others):
    """A relation over some of ``others`` in a shape the class index must
    read as the classes do: built by ``tie_relation`` from a random order
    of the acceptable set cut into classes, alone or with ``extra`` edges,
    or held by the constructor with ``extra`` edges and no classes; then
    maybe restricted, and learned over zero, one or two rounds."""
    acceptable = [c for c in others if draw(st.booleans())]
    shape = draw(st.sampled_from(("tie", "tie_extra", "edges")))
    ties = None
    if shape != "edges":
        pool = draw(st.permutations(acceptable))
        cuts = sorted(draw(st.lists(st.integers(0, len(pool)), max_size=len(pool) + 1)))
        bounds = [0] + cuts + [len(pool)]
        ties = rel = tie_relation(owner, (pool[i:j] for i, j in zip(bounds, bounds[1:])))
    if shape != "tie":
        extra = frozenset(p for p in itertools.permutations(others, 2)
                          if draw(st.integers(0, 5)) == 0)
        rel = Relation(owner, frozenset(acceptable), extra, ties=ties)
    if draw(st.booleans()):
        rel = rel.restricted(frozenset(c for c in rel.acceptable if draw(st.booleans())))
    for _ in range(draw(st.integers(0, 2))):
        rel = rel.learn(draw(st.permutations([c for c in rel.acceptable
                                              if draw(st.booleans())])))
    return rel


@st.composite
def indexed_markets(draw):
    """Up to 4 agents per side, each holding :func:`any_relation` over the
    other side and one agent beyond it, with a partial matching."""
    n_men, n_women = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    men = [man(i) for i in range(1, n_men + 1)]
    women = [woman(j) for j in range(1, n_women + 1)]
    rels = {a: draw(any_relation(a, others))
            for a, others in [(m, women + [woman(n_women + 1)]) for m in men]
            + [(w, men + [man(n_men + 1)]) for w in women]}
    instance = Instance(n_men, n_women, rels, base=False)
    return instance, draw_partial_matching(draw, instance)


class TestOpenTo:
    @settings(max_examples=250)
    @given(indexed_markets())
    def test_equals_per_candidate_reference(self, market):
        # every partner an agent could hold: none, a classed or an unclassed
        # acceptable candidate, and one outside its acceptable set
        instance, mu = market
        for a, rel in instance.relations.items():
            others = instance.women() if a.side == "m" else instance.men()
            for p in [None, *others, *rel.acceptable]:
                assert set(rel.open_to(p)) == reference_open(rel, p), (a, p)
        assert_rows_equal_pair_list(instance, mu)

    def test_a_candidate_in_two_classes_is_refused(self):
        # w1 in the first and the last class would have no one level, so
        # no open set could be read off one class order
        w1, w2, w3, w4 = (woman(j) for j in range(1, 5))
        with pytest.raises(ValueError):
            tie_relation(man(1), [[w1], [w2], [w3], [w4, w1]])
        rel = tie_relation(man(1), [[w1], [w2], [w3], [w4]])
        assert rel.open_to(w2) == {w1}
        for p in (None, w1, w2, w3, w4):
            assert set(rel.open_to(p)) == reference_open(rel, p), p


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
            for pairs in iter_matchings(strict):
                mu = Matching(pairs)
                verdicts = {is_stable(strict, mu, level)
                            for level in (Stability.WEAK, Stability.STRONG,
                                          Stability.SUPER)}
                assert len(verdicts) == 1


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

    @settings(max_examples=300)
    @given(class_markets())
    def test_iter_matchings_equals_recursive_reference(self, market):
        # up to 4 agents per side with random acceptability, so some agents
        # have no acceptable partner and every man may stay unmatched
        inst = market[0]
        assert list(iter_matchings(inst)) == list(reference_iter_matchings(inst))

    def test_iter_matchings_is_not_bounded_by_recursion(self):
        n = 1500
        rels = {}
        for i in range(1, n + 1):
            rels[man(i)] = tie_relation(man(i), [[woman(i)]])
            rels[woman(i)] = tie_relation(woman(i), [[man(i)]])
        first = next(iter_matchings(Instance(n, n, rels)))
        assert first == tuple((man(i), woman(i)) for i in range(1, n + 1))


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

    def test_class_counts_match_enumeration(self):
        # an agent of ordered classes C has exactly prod |C|! extensions,
        # whether its relation is built from classes or from edges
        markets = [fixtures.load(name).instance for name in fixtures.FIXTURE_NAMES]
        markets += [generate(family, n=n, seed=seed)[0] for family in FAMILIES
                    for n in range(2, 6) for seed in range(4)]
        checked = 0
        for inst in markets + [edge_twin(inst) for inst in markets]:
            for a, shape in detect_tie_structure(inst).items():
                if shape is not None:
                    exts, overflow = linear_extensions(inst, a)
                    assert not overflow
                    assert len(exts) == math.prod(math.factorial(len(c)) for c in shape)
                    checked += 1
        assert checked > 400

    @settings(max_examples=150)
    @given(class_markets(), st.integers(1, 40))
    def test_caps_raise_as_enumeration_does(self, market, cap):
        # the reference enumerates every agent's extensions, in agent order,
        # to decide the two caps
        inst = market[0]
        expected = None
        product = 1
        for a in inst.agents():
            exts, overflow = linear_extensions(inst, a, cap=cap + 1)
            if overflow:
                expected = f"{a} has more than {cap} linear extensions"
                break
            product *= len(exts)
            if product > cap:
                expected = f"extension profile space exceeds the cap of {cap}"
                break
        try:
            extension_agreement(inst, Matching(()), product_cap=cap)
        except SizeLimitExceeded as err:
            assert str(err) == expected
        else:
            assert expected is None

    def test_over_cap_classes_are_never_enumerated(self, monkeypatch):
        def unused(*args, **kwargs):
            raise AssertionError("linear extensions were enumerated")

        inst, truth = generate("master_ties", n=50, seed=0)
        mu = gale_shapley(truth)
        monkeypatch.setattr(oracles, "linear_extensions", unused)
        with pytest.raises(SizeLimitExceeded,
                           match="^m1 has more than 100000 linear extensions$"):
            extension_agreement(inst, mu, product_cap=100000)
        # m1 has 4! orders: one past the cap is the profile space's to refuse
        tied = Instance(1, 4, {man(1): tie_relation(man(1), [[woman(j) for j in range(1, 5)]])})
        with pytest.raises(SizeLimitExceeded,
                           match="^extension profile space exceeds the cap of 23$"):
            extension_agreement(tied, Matching(()), product_cap=23)
