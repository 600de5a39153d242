import itertools
import pickle

import pytest
from helpers import class_markets, edge_twin, full_validate, reference_refines, two_pass_refines
from hypothesis import given, settings
from hypothesis import strategies as st

from interviewplan import fixtures
from interviewplan.errors import InterviewPlanError, ShapeMismatch, UnacceptableCandidate
from interviewplan.formats import format_classes, format_instance, parse_instance
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
    Comparison,
    Instance,
    Relation,
    StrictProfile,
    agent_tie_structure,
    compare,
    detect_tie_structure,
    is_refinement,
    man,
    relation,
    tie_relation,
    validate_instance,
    woman,
)
from interviewplan.oracles import linear_extensions
from interviewplan.solvers import detect_structure, plan_for_matching
from interviewplan.stability import gale_shapley


CANDIDATES = [woman(j) for j in range(1, 7)]


def make_instance(n_men, n_women, layout):
    """layout: {agent: (acceptable, edges)}"""
    rels = {a: Relation(a, frozenset(acc), frozenset(edges))
            for a, (acc, edges) in layout.items()}
    return Instance(n_men, n_women, rels)


def one_man_three_women(edges=()):
    ws = [woman(j) for j in (1, 2, 3)]
    return make_instance(1, 3, {
        man(1): (ws, edges),
        woman(1): ([man(1)], []),
        woman(2): ([man(1)], []),
        woman(3): ([man(1)], []),
    })


class TestValidation:
    def test_fixture_is_valid(self, fig1):
        assert validate_instance(fig1.instance).ok

    def test_asymmetric_edges_reported(self):
        inst = make_instance(1, 2, {
            man(1): ([woman(1), woman(2)], [(woman(1), woman(2)), (woman(2), woman(1))]),
            woman(1): ([man(1)], []),
            woman(2): ([man(1)], []),
        })
        report = validate_instance(inst)
        assert any(v.kind == "asymmetry" and v.agent == man(1) for v in report.violations)

    def test_missing_transitive_edge_reported_for_base(self):
        inst = one_man_three_women([(woman(1), woman(2)), (woman(2), woman(3))])
        report = validate_instance(inst)
        assert any(v.kind == "not_transitive" for v in report.violations)

    def test_non_transitive_allowed_when_not_base(self):
        inst = one_man_three_women([(woman(1), woman(2)), (woman(2), woman(3))])
        refined = Instance(inst.n_men, inst.n_women, inst.relations, base=False)
        assert validate_instance(refined).ok

    def test_one_sided_acceptability_reported(self):
        inst = make_instance(1, 1, {
            man(1): ([woman(1)], []),
            woman(1): ([], []),
        })
        report = validate_instance(inst)
        assert any(v.kind == "one_sided_acceptability" for v in report.violations)

    def test_reflexive_edge_reported(self):
        inst = make_instance(1, 1, {
            man(1): ([woman(1)], [(woman(1), woman(1))]),
            woman(1): ([man(1)], []),
        })
        report = validate_instance(inst)
        assert any(v.kind == "reflexive_edge" for v in report.violations)


def classed(owner, classes, extra=()):
    """A relation over the candidates of the given disjoint classes, holding
    them as ``tie_relation`` builds them, plus ``extra`` edges."""
    ties = tie_relation(owner, classes)
    return Relation(owner, ties.acceptable, frozenset(extra), ties=ties)


def cut_classes(draw, candidates):
    """A random order of ``candidates`` cut into classes at random places,
    repeated cuts giving empty classes."""
    order = draw(st.permutations(sorted(candidates)))
    cuts = sorted(draw(st.lists(st.integers(0, len(order)), max_size=4)))
    bounds = [0] + cuts + [len(order)]
    return [order[i:j] for i, j in zip(bounds, bounds[1:])]


class ReadCountingDict(dict):
    """A relation map that counts the full walks over it."""

    reads = 0

    def items(self):
        self.reads += 1
        return super().items()


def counting_reads(instance):
    """``instance`` with its relation map swapped for a counting copy."""
    instance.relations = ReadCountingDict(instance.relations)
    return instance


def one_man_market(rel, base=True):
    """``rel`` as man 1's relation beside three women who accept him."""
    return Instance(1, 3, {rel.owner: rel, **{w: relation(w, [man(1)]) for w in CANDIDATES[:3]}},
                    base=base)


class TestValidationShortcut:
    """:func:`validate_instance` skips the edge checks for relations made of
    classes alone; its report must equal the full pairwise check's on every
    instance."""

    def test_generated_families(self):
        for family in FAMILIES:
            for n in (1, 4, 9, 25):
                inst, truth = generate(family, n=n, seed=n, density=0.7)
                states = [inst, edge_twin(inst)]
                pairs = inst.acceptable_pairs()
                learned = _apply_unchecked(inst, truth, frozenset(pairs[::2]))
                states += [learned, Instance(n, n, learned.relations, base=True)]
                for state in states:
                    assert validate_instance(state) == full_validate(state), (family, n)

    def test_parsed_files(self):
        texts = [fixtures._read(f"{name}.instance") for name in fixtures.FIXTURE_NAMES]
        for family in FAMILIES:
            inst, _ = generate(family, n=6, seed=2, density=0.6)
            texts += [format_instance(inst), format_instance(inst, "smpi")]
        for text in texts:
            for base in (True, False):
                inst = parse_instance(text, base=base)
                assert validate_instance(inst) == full_validate(inst)

    @pytest.mark.parametrize("rel", [
        # reflexive: a class pair plus a reflexive extra edge
        classed(man(1), [CANDIDATES[:1], CANDIDATES[1:3]], [(woman(2), woman(2))]),
        # symmetric: extra reverses a class pair
        classed(man(1), [CANDIDATES[:1], CANDIDATES[1:3]], [(woman(3), woman(1))]),
        # symmetric: a met order reverses a class pair
        tie_relation(man(1), [CANDIDATES[:1], CANDIDATES[1:3]]).learn((woman(3), woman(1))),
        # an extra edge leaving the acceptable set
        classed(man(1), [CANDIDATES[:3]], [(woman(1), woman(5))]),
        # non-transitive, edge-built
        relation(man(1), CANDIDATES[:3], [(woman(1), woman(2)), (woman(2), woman(3))]),
        # non-transitive, a class mixed with extra
        classed(man(1), [CANDIDATES[:3]], [(woman(1), woman(2)), (woman(2), woman(3))]),
        # non-transitive, two rounds of met orders
        tie_relation(man(1), [CANDIDATES[:3]]).learn(CANDIDATES[:2]).learn(CANDIDATES[1:3]),
    ])
    def test_invalid_relations(self, rel):
        inst = one_man_market(rel)
        report = validate_instance(inst)
        assert not report.ok
        assert report == full_validate(inst)
        refined = one_man_market(rel, base=False)
        assert validate_instance(refined) == full_validate(refined)

    def test_classes_with_consistent_extra(self):
        rel = classed(man(1), [CANDIDATES[:1], CANDIDATES[1:3]], [(woman(1), woman(2))])
        inst = one_man_market(rel)
        assert validate_instance(inst).ok and full_validate(inst).ok

    @settings(max_examples=300)
    @given(st.data(),
           st.sets(st.sampled_from(CANDIDATES[:5]), max_size=5),
           st.sets(st.tuples(st.sampled_from(CANDIDATES[:5]), st.sampled_from(CANDIDATES[:5])),
                   max_size=3),
           st.booleans(), st.booleans())
    def test_equals_full_check(self, data, acceptable, extra, with_classes, base):
        # classes cut from the acceptable set, or none, plus extra edges that
        # may be reflexive, reverse a class pair or leave the acceptable set
        rel = (classed(man(1), cut_classes(data.draw, acceptable), extra) if with_classes
               else relation(man(1), acceptable, extra))
        inst = one_man_market(rel, base)
        assert validate_instance(inst) == full_validate(inst)

    @settings(max_examples=400)
    @given(st.sets(st.sampled_from(CANDIDATES[:5]), max_size=5),
           st.sets(st.tuples(st.sampled_from(CANDIDATES), st.sampled_from(CANDIDATES)),
                   max_size=14),
           st.booleans(), st.booleans())
    def test_edge_relations_equal_full_check(self, acceptable, edges, closed, base):
        # arbitrary edges are reflexive, symmetric, non-transitive or leave
        # the acceptable set; their transitive closure passes the quick check
        if closed:
            edges = transitive_closure(edges)
        inst = one_man_market(relation(man(1), acceptable, edges), base)
        assert validate_instance(inst) == full_validate(inst)


def transitive_closure(edges):
    closure = set(edges)
    while True:
        implied = {(c1, c3) for c1, c2 in closure for d, c3 in closure if d == c2}
        if implied <= closure:
            return closure
        closure |= implied


class TestCompare:
    def test_initially_incomparable(self, fig1):
        assert compare(fig1.instance, man(1), woman(1), woman(2)) == Comparison.INCOMPARABLE

    def test_edge_lookup(self):
        inst = one_man_three_women([(woman(1), woman(2)), (woman(1), woman(3)),
                                    (woman(2), woman(3))])
        assert compare(inst, man(1), woman(1), woman(2)) == Comparison.PREFERS_FIRST
        assert compare(inst, man(1), woman(3), woman(1)) == Comparison.PREFERS_SECOND

    def test_tt2_woman_cannot_compare(self, tt2):
        assert compare(tt2.instance, woman(1), man(1), man(2)) == Comparison.INCOMPARABLE

    def test_unacceptable_candidate_raises(self):
        inst = make_instance(1, 2, {
            man(1): ([woman(1)], []),
            woman(1): ([man(1)], []),
            woman(2): ([], []),
        })
        with pytest.raises(UnacceptableCandidate):
            compare(inst, man(1), woman(1), woman(2))

    def test_same_candidate_rejected(self, fig1):
        with pytest.raises(ValueError):
            compare(fig1.instance, man(1), woman(1), woman(1))

    def test_never_both_directions(self):
        # asymmetry of the comparison relation on a valid instance
        for seed in range(20):
            inst, _ = generate("random_smti", n=3, seed=seed, tie_cap=3, density=0.8)
            for a in inst.agents():
                acc = sorted(inst.relations[a].acceptable)
                for c1, c2 in itertools.combinations(acc, 2):
                    r12 = compare(inst, a, c1, c2)
                    r21 = compare(inst, a, c2, c1)
                    flipped = {Comparison.PREFERS_FIRST: Comparison.PREFERS_SECOND,
                               Comparison.PREFERS_SECOND: Comparison.PREFERS_FIRST,
                               Comparison.INCOMPARABLE: Comparison.INCOMPARABLE}
                    assert r21 == flipped[r12]


def pair_count_markets():
    """Fixtures, generated families, the cover markets, and markets that
    accept across one side only: m1 accepts w2, who accepts nobody (the
    acceptance a parse drops), and a woman outside the declared counts."""
    for name in fixtures.FIXTURE_NAMES:
        yield fixtures.load(name).instance
    for family in FAMILIES:
        for n in (1, 5):
            yield generate(family, n=n, seed=n, density=0.6)[0]
    for build in (cover_market_smti, cover_market_smt):
        yield build(random_bounded_graph(6, 3, 2))[0]
    one_sided = {man(1): relation(man(1), CANDIDATES[:5]),
                 woman(1): relation(woman(1), [man(1)]),
                 woman(2): relation(woman(2), ()),
                 woman(3): relation(woman(3), [man(1)])}
    yield Instance(1, 4, one_sided, base=False)


class TestPairCount:
    def test_count_equals_the_list_length(self):
        for inst in pair_count_markets():
            fresh = Instance(inst.n_men, inst.n_women, inst.relations, base=inst.base)
            count = fresh.pair_count()
            assert fresh._pairs is None  # counting lists nothing
            pairs = fresh.acceptable_pairs()
            assert count == len(pairs) == fresh.pair_count(), inst
        # the last market: w1 and w3 accept m1 back, w2 and w4 do not, and
        # w5 has no relation at all
        assert inst.pair_count() == 2

    def test_a_second_count_does_no_work(self):
        # the count is kept on the instance, or read off a built list, so
        # no later count reads a relation; either call order agrees
        class CountedReads(dict):
            reads = 0

            def __getitem__(self, key):
                self.reads += 1
                return super().__getitem__(key)

            def get(self, key, default=None):
                self.reads += 1
                return super().get(key, default)

        for inst in pair_count_markets():
            for list_first in (False, True):
                fresh = Instance(inst.n_men, inst.n_women, inst.relations, base=inst.base)
                fresh.relations = relations = CountedReads(fresh.relations)
                if list_first:
                    pairs = fresh.acceptable_pairs()
                done = relations.reads
                count = fresh.pair_count()
                if list_first:
                    assert relations.reads == done
                done = relations.reads
                assert fresh.pair_count() == count
                assert relations.reads == done
                assert count == len(fresh.acceptable_pairs()), inst


class TestStrictProfile:
    def test_ranks_is_a_read_only_rank_map(self, fig1):
        truth = fig1.truth
        for a, seq in truth.ranking.items():
            ranks = truth.ranks(a)
            assert ranks is truth.ranks(a)  # one stored view per agent
            assert dict(ranks) == {c: truth.rank(a, c) for c in seq}
            assert list(ranks) == list(seq)
            with pytest.raises(TypeError):
                ranks[seq[0]] = len(seq)
        assert not truth.ranks(man(99))

    def test_profile_and_matching_pickle(self, fig1):
        truth = pickle.loads(pickle.dumps(fig1.truth))
        matching = pickle.loads(pickle.dumps(fig1.matching))
        assert truth == fig1.truth and matching == fig1.matching
        for a in truth.ranking:
            assert truth.ranks(a) == fig1.truth.ranks(a)
            assert truth.ranks(a) is truth.ranks(a)
        for a in fig1.instance.agents():
            assert matching.partner(a) == fig1.matching.partner(a)
        assert matching.partner(man(99)) is None

    def test_refines_needs_each_acceptable_candidate_exactly_once(self, fig1):
        # no comparisons at all, so only the acceptable sets can reject
        inst = Instance(2, 2, {a: Relation(a, r.acceptable, frozenset())
                               for a, r in fig1.instance.relations.items()})
        truth = fig1.truth
        assert truth.refines(inst)
        a = man(1)
        first, second = truth.ranking[a]
        outsider = woman(3)
        for seq in ((first, first),                        # duplicate, same length
                    (first, second, first),                # duplicate on top
                    (first,),                              # acceptable candidate missing
                    (first, outsider),                     # swapped for an outsider
                    (first, second, outsider)):            # extra candidate
            ranking = dict(truth.ranking)
            ranking[a] = seq
            assert not StrictProfile(ranking).refines(inst), seq

    def test_refines_remembers_the_last_instance_accepted(self, fig1):
        truth = StrictProfile(fig1.truth.ranking)
        accepted = counting_reads(Instance(2, 2, fig1.instance.relations))
        # m1 ranks both women the other way round in a strict order
        rejected = counting_reads(Instance(2, 2, {
            **fig1.instance.relations,
            man(1): tie_relation(man(1), [[c] for c in reversed(truth.ranking[man(1)])])}))
        assert truth.refines(accepted) and accepted.relations.reads == 1
        assert truth.refines(accepted) and accepted.relations.reads == 1
        # a rejection is neither remembered nor replaces the accepted instance
        for reads in (1, 2):
            assert not truth.refines(rejected) and rejected.relations.reads == reads
        assert truth.refines(accepted) and accepted.relations.reads == 1
        # an equal but distinct instance is checked in full
        twin = counting_reads(Instance(2, 2, fig1.instance.relations))
        assert truth.refines(twin) and twin.relations.reads == 1
        # an unpickled profile remembers nothing, not even the instance it
        # was pickled with, and checks from scratch
        copy, twin = pickle.loads(pickle.dumps((truth, twin)))
        before = twin.relations.reads  # pickling walks the map too
        assert copy.refines(twin) and twin.relations.reads == before + 1
        assert copy.refines(twin) and twin.relations.reads == before + 1
        assert not copy.refines(rejected)

    @settings(max_examples=400)
    @given(st.data())
    def test_refines_equals_per_class_reference(self, data):
        # classes cut from the acceptable set, or none, plus extra edges that
        # may leave it; the truth ranks the acceptable set in a random order,
        # then may swap one place for a repeat of another acceptable
        # candidate or for an outsider, so that a ranking as long as the set
        # can still reject
        acceptable = data.draw(st.sets(st.sampled_from(CANDIDATES[:4]), min_size=1))
        extra = data.draw(st.sets(st.tuples(st.sampled_from(CANDIDATES[:4]),
                                            st.sampled_from(CANDIDATES[:4])), max_size=2))
        rel = (classed(man(1), cut_classes(data.draw, acceptable), extra)
               if data.draw(st.booleans()) else relation(man(1), acceptable, extra))
        inst = one_man_market(rel)
        ranking = {w: (man(1),) for w in CANDIDATES[:3]}
        seq = data.draw(st.permutations(sorted(acceptable)))
        at = data.draw(st.integers(0, len(seq) - 1))
        swap = data.draw(st.sampled_from(("none", "repeat", "outsider")))
        if swap == "repeat" and len(seq) > 1:
            seq[at] = data.draw(st.sampled_from(seq[:at] + seq[at + 1:]))
        elif swap == "outsider":
            seq[at] = data.draw(st.sampled_from(sorted(set(CANDIDATES) - acceptable)))
        ranking[man(1)] = tuple(seq)
        truth = StrictProfile(ranking)
        assert truth.refines(inst) == reference_refines(truth, inst)


MUTATIONS = ("none", "repeat", "missing", "extra", "outsider", "inversion", "met_against",
             "extra_against")


@st.composite
def refines_cases(draw):
    """Man 1's relation over some of four women: classes cut from the
    acceptable set, those of a wider set restricted to it, or none; maybe
    learned, and a truth that sorts its candidates by class; then maybe one
    mutation: a repeated, missing, extra or outside candidate in the truth,
    two of its places swapped, or a met order or ``extra`` edge against
    it."""
    acceptable = sorted(draw(st.sets(st.sampled_from(CANDIDATES[:4]), min_size=1)))
    shape = draw(st.sampled_from(("exact", "restricted", "edges")))
    if shape == "edges":
        rel = relation(man(1), acceptable)
    elif shape == "exact":
        rel = tie_relation(man(1), cut_classes(draw, acceptable))
    else:
        wider = acceptable + [c for c in CANDIDATES if c not in acceptable and draw(st.booleans())]
        rel = tie_relation(man(1), cut_classes(draw, wider)).restricted(frozenset(acceptable))
    # the truth sorts by level, in any order where there are no classes
    keys = {c: (rel.level.get(c, 0), draw(st.integers(0, 9))) for c in acceptable}
    seq = sorted(acceptable, key=keys.__getitem__)
    if draw(st.booleans()):
        rel = rel.learn([c for c in seq if draw(st.booleans())])
    mutation = draw(st.sampled_from(MUTATIONS))
    at = draw(st.integers(0, len(seq) - 1))
    outside = sorted(set(CANDIDATES) - set(acceptable))
    if mutation == "repeat" and len(seq) > 1:
        seq[at] = draw(st.sampled_from(seq[:at] + seq[at + 1:]))
    elif mutation == "missing":
        del seq[at]
    elif mutation == "extra":
        seq.insert(at, draw(st.sampled_from(outside)))
    elif mutation == "outsider":
        # ranked, but outside the acceptable set
        seq[at] = draw(st.sampled_from(outside))
    elif mutation == "inversion" and len(seq) > 1:
        j = draw(st.integers(0, len(seq) - 1))
        seq[at], seq[j] = seq[j], seq[at]
    elif mutation in ("met_against", "extra_against") and len(seq) > 1:
        j = draw(st.integers(0, len(seq) - 2))
        worse, better = seq[j + 1], seq[j]
        if mutation == "met_against":
            rel = rel.learn([worse, better])
        else:
            rel = Relation(man(1), rel.acceptable, rel.extra | {(worse, better)},
                           ties=rel, met=rel.met)
    inst = one_man_market(rel, base=False)
    truth = StrictProfile({man(1): tuple(seq), **{w: (man(1),) for w in CANDIDATES[:3]}})
    return inst, truth, shape, mutation


class TestRefinesAgainstTwoPass:
    """:meth:`StrictProfile.refines` skips its pass over the acceptable set
    for a relation with classes, whose level walk covers it; it must still
    answer as the check that always made that pass."""

    @settings(max_examples=600)
    @given(refines_cases())
    def test_equals_two_pass_check(self, case):
        inst, truth, _, _ = case
        assert truth.refines(inst) == two_pass_refines(truth, inst)

    def test_each_mutation_of_an_exact_partition_is_rejected(self):
        w1, w2, w3 = CANDIDATES[:3]
        rel = tie_relation(man(1), [[w1], [w2, w3]])
        women = {w: (man(1),) for w in CANDIDATES[:3]}

        def verdicts(seq, state=rel):
            truth = StrictProfile({man(1): seq, **women})
            inst = one_man_market(state, base=False)
            return truth.refines(inst), two_pass_refines(truth, inst)

        assert verdicts((w1, w3, w2)) == (True, True)
        for seq in ((w1, w2, w2),              # a repeat, as long as the set
                    (w1, w2),                  # a candidate missing
                    (w1, w2, w3, CANDIDATES[3]),  # an extra candidate
                    (w1, w2, CANDIDATES[3]),   # ranked outside every class
                    (w2, w1, w3)):             # a class inversion
            assert verdicts(seq) == (False, False), seq
        assert verdicts((w1, w3, w2), rel.learn((w2, w3))) == (False, False)
        against = Relation(man(1), rel.acceptable, frozenset({(w2, w3)}), ties=rel)
        assert verdicts((w1, w3, w2), against) == (False, False)


class TestRefinement:
    def test_reflexive(self, fig1):
        assert is_refinement(fig1.instance, fig1.instance)

    def test_added_edge_is_refinement(self, fig1):
        inst = fig1.instance
        rels = dict(inst.relations)
        rels[man(1)] = Relation(man(1), rels[man(1)].acceptable,
                                frozenset({(woman(1), woman(2))}))
        more = Instance(2, 2, rels)
        assert is_refinement(inst, more)
        assert not is_refinement(more, inst)

    def test_shape_mismatch_raises(self, fig1):
        other = make_instance(2, 2, {
            man(1): ([woman(1)], []),
            man(2): ([woman(1), woman(2)], []),
            woman(1): ([man(1), man(2)], []),
            woman(2): ([man(2)], []),
        })
        with pytest.raises(ShapeMismatch):
            is_refinement(fig1.instance, other)

    def test_transitive_over_random_chain(self):
        inst, truth = generate("random_smti", n=3, seed=5, tie_cap=3)
        full = truth.as_instance()
        assert is_refinement(inst, full)


def ordered_partitions(items):
    """Every ordered partition of the items into non-empty classes."""
    if not items:
        yield ()
        return
    for labels in itertools.product(range(len(items)), repeat=len(items)):
        used = sorted(set(labels))
        if used != list(range(len(used))):
            continue
        yield tuple(frozenset(c for c, lab in zip(items, labels) if lab == t)
                    for t in used)


def tie_spec(rel):
    """The unique ordered partition of the acceptable set whose cross-class
    pairs are exactly the relation's edges inside that set, else None."""
    inside = {(c1, c2) for c1, c2 in rel.edges
              if c1 in rel.acceptable and c2 in rel.acceptable}
    found = [parts for parts in ordered_partitions(sorted(rel.acceptable))
             if {(hi, lo) for t, cls in enumerate(parts) for later in parts[t + 1:]
                 for hi in cls for lo in later} == inside]
    assert len(found) <= 1
    return found[0] if found else None


class TestTieStructure:
    def test_master_tie_single_class(self, mt3):
        ties = detect_tie_structure(mt3.instance)
        for m in (man(1), man(2), man(3)):
            assert len(ties[m]) == 1
            assert len(ties[m][0]) == 3

    def test_strict_instance_all_singletons(self, fig1):
        strict = fig1.truth.as_instance()
        ties = detect_tie_structure(strict)
        assert all(t is not None and all(len(c) == 1 for c in t) for t in ties.values())
        assert strict.kind == "smi"

    def test_top_candidate_then_tie(self):
        inst = one_man_three_women([(woman(1), woman(2)), (woman(1), woman(3))])
        ties = agent_tie_structure(inst.relations[man(1)])
        assert ties == (frozenset({woman(1)}), frozenset({woman(2), woman(3)}))

    def test_partial_order_not_tie_shaped(self):
        inst = one_man_three_women([(woman(1), woman(2))])
        assert agent_tie_structure(inst.relations[man(1)]) is None
        assert inst.kind == "smpi"

    def test_reconstruction_roundtrip(self):
        # rebuilding each tie-shaped agent's edges from its classes gives the
        # original edge set, also when the classes are recovered from edges
        for seed in range(30):
            inst, _ = generate("random_smti", n=4, seed=seed, tie_cap=3, density=0.8)
            for state in (inst, edge_twin(inst)):
                for a, t in detect_tie_structure(state).items():
                    assert t is not None
                    assert tie_relation(a, t).edges == state.relations[a].edges

    @settings(max_examples=500)
    @given(st.data())
    def test_equals_brute_force_spec(self, data):
        # a weak order over up to 5 acceptable candidates, with up to four
        # edges toggled anywhere among six candidates: edges leaving the
        # acceptable set and reflexive edges included
        acceptable = data.draw(st.lists(st.sampled_from(CANDIDATES[:5]),
                                        unique=True, max_size=5))
        ranks = data.draw(st.lists(st.integers(0, 3), min_size=len(acceptable),
                                   max_size=len(acceptable)))
        edges = {(c1, c2) for c1, r1 in zip(acceptable, ranks)
                 for c2, r2 in zip(acceptable, ranks) if r1 < r2}
        edges ^= data.draw(st.sets(st.tuples(st.sampled_from(CANDIDATES),
                                             st.sampled_from(CANDIDATES)), max_size=4))
        rel = Relation(man(1), frozenset(acceptable), frozenset(edges))
        assert agent_tie_structure(rel) == tie_spec(rel)

    @settings(max_examples=200)
    @given(st.lists(st.lists(st.sampled_from(CANDIDATES), unique=True, max_size=3),
                    max_size=4).filter(
        lambda cls: len({c for g in cls for c in g}) == sum(map(len, cls))))
    def test_tie_relation_roundtrip(self, classes):
        rel = tie_relation(man(1), classes)
        assert rel.acceptable == frozenset(c for g in classes for c in g)
        assert agent_tie_structure(rel) == tuple(frozenset(g) for g in classes if g)

    def test_class_built_agents_hand_out_their_stored_classes(self):
        # every fixture and generated market is built from classes, so each
        # agent's entry is its relation's own tuple, not a copy
        markets = [fixtures.load(name).instance for name in fixtures.FIXTURE_NAMES]
        markets += [generate(family, n=5, seed=seed)[0] for family in FAMILIES
                    for seed in range(3)]
        for inst in markets:
            for a, classes in detect_tie_structure(inst).items():
                rel = inst.relations[a]
                assert classes is rel.classes, a
                assert agent_tie_structure(rel) is rel.classes, a

    def test_each_call_builds_a_fresh_dict(self, mt3):
        # a caller's write to the returned dict is not seen by the next call
        # nor by the kind, which reads the classes again
        inst = mt3.instance
        ties = detect_tie_structure(inst)
        assert type(ties) is dict
        ties[man(1)] = None
        again = detect_tie_structure(inst)
        assert again is not ties and again[man(1)] is inst.relations[man(1)].classes
        assert inst.kind == "smt"

    def test_kind_detection(self, fig1, tri, mt3):
        assert fig1.instance.kind == "smt"
        assert tri.instance.kind == "smti"
        assert mt3.instance.kind == "smt"


class TestLinearExtensions:
    def test_two_incomparable(self):
        inst = make_instance(1, 2, {
            man(1): ([woman(1), woman(2)], []),
            woman(1): ([man(1)], []),
            woman(2): ([man(1)], []),
        })
        exts, overflow = linear_extensions(inst, man(1))
        assert len(exts) == 2 and not overflow

    def test_total_order_single_extension(self):
        inst = one_man_three_women([(woman(1), woman(2)), (woman(1), woman(3)),
                                    (woman(2), woman(3))])
        exts, overflow = linear_extensions(inst, man(1))
        assert exts == [(woman(1), woman(2), woman(3))] and not overflow

    def test_full_tie_gives_all_permutations(self):
        inst = one_man_three_women()
        exts, overflow = linear_extensions(inst, man(1))
        assert len(exts) == 6 and not overflow
        assert len(set(exts)) == 6

    def test_cap_sets_overflow(self):
        inst = one_man_three_women()
        exts, overflow = linear_extensions(inst, man(1), cap=4)
        assert len(exts) == 4 and overflow

    def test_emission_is_sorted(self):
        inst = one_man_three_women()
        exts, _ = linear_extensions(inst, man(1))
        assert exts == sorted(exts)

    def test_truth_is_among_extensions(self):
        for seed in range(20):
            inst, truth = generate("random_smti", n=3, seed=seed, tie_cap=3, density=0.8)
            for a in inst.agents():
                exts, overflow = linear_extensions(inst, a, cap=10000)
                assert not overflow
                assert truth.ranking[a] in exts

    def test_deep_tie_class_within_cap(self):
        # one agent with 1,500 tied candidates: deeper than the default
        # recursion limit
        women = [woman(j) for j in range(1, 1501)]
        inst = Instance(1, 1500, {man(1): tie_relation(man(1), [women])})
        exts, overflow = linear_extensions(inst, man(1), cap=1)
        assert exts == [tuple(women)] and overflow

    @settings(max_examples=300)
    @given(st.sets(st.sampled_from(CANDIDATES[:5])),
           st.sets(st.tuples(st.sampled_from(CANDIDATES[:5]), st.sampled_from(CANDIDATES[:5])),
                   max_size=6),
           st.integers(1, 130))
    def test_equals_recursive_search(self, acceptable, edges, cap):
        # any edge set, cycles, reflexive edges and edges leaving the
        # acceptable set included
        inst = Instance(1, 6, {man(1): relation(man(1), acceptable, edges)})
        assert linear_extensions(inst, man(1), cap) == recursive_linear_extensions(
            inst, man(1), cap)


def recursive_linear_extensions(instance, a, cap=10000):
    """Reference for :func:`linear_extensions`: the depth-first search as a
    recursive walk over the candidates in sort order."""
    rel = instance.relations[a]
    items = sorted(rel.acceptable)
    pending = {c: {d for d in items if rel.prefers(d, c)} for c in items}
    out = []
    overflow = False
    prefix = []

    def walk():
        nonlocal overflow
        if len(prefix) == len(items):
            if len(out) == cap:
                overflow = True
                return False
            out.append(tuple(prefix))
            return True
        for c in items:
            if c in prefix or pending[c] - set(prefix):
                continue
            prefix.append(c)
            ok = walk()
            prefix.pop()
            if not ok:
                return False
        return True

    walk()
    return out, overflow


def assert_same_relations(inst, twin):
    """Every relation agrees with its twin on edges, equality, hash, tie
    structure, and prefers/comparable over every ordered pair of candidates
    (acceptable or not), also after dropping its first candidate."""
    outside = [man(9), woman(9)]
    for a in inst.agents():
        rel, other = inst.relations[a], twin.relations[a]
        keep = frozenset(sorted(rel.acceptable)[1:])
        for x, y in ((rel, other), (rel.restricted(keep), other.restricted(keep))):
            assert x.edges == y.edges
            assert x == y and hash(x) == hash(y)
            assert agent_tie_structure(x) == agent_tie_structure(y)
            cands = sorted(x.acceptable) + outside
            for c1 in cands:
                for c2 in cands:
                    assert x.prefers(c1, c2) == y.prefers(c1, c2), (a, c1, c2)
                    assert x.comparable(c1, c2) == y.comparable(c1, c2), (a, c1, c2)


def outcome(call):
    """A call's result, or the type of the package error it raised."""
    try:
        return call()
    except InterviewPlanError as exc:
        return type(exc)


def assert_same_learned(bases, state, truth):
    """A learned state agrees with its edge-built twin on every relation
    query, on ``refines`` by the truth and by the reversed truth, on
    ``gains_over`` in both directions against each base, and on
    ``is_refinement`` and ``interview_cost`` over each base."""
    twin = edge_twin(state)
    assert_same_relations(state, twin)
    reversed_truth = StrictProfile({a: seq[::-1] for a, seq in truth.ranking.items()})
    for profile in (truth, reversed_truth):
        assert profile.refines(state) == profile.refines(twin)
    for base in bases:
        for a in base.agents():
            rel, other, old = state.relations[a], twin.relations[a], base.relations[a]
            assert rel.gains_over(old) == other.gains_over(old)
            assert old.gains_over(rel) == old.gains_over(other)
        assert is_refinement(base, state) == is_refinement(base, twin)
        assert (outcome(lambda: interview_cost(base, state))
                == outcome(lambda: interview_cost(base, twin)))


class TestClassForm:
    @settings(max_examples=400)
    @given(class_markets())
    def test_class_form_equals_edge_form(self, market):
        inst, truth, interviews, again = market
        twin = edge_twin(inst)
        assert all(not r.classes for r in twin.relations.values())
        assert_same_relations(inst, twin)
        assert dict(detect_tie_structure(inst)) == dict(detect_tie_structure(twin))
        assert detect_structure(inst) == detect_structure(twin)
        assert inst.kind == twin.kind
        assert truth.refines(inst) == truth.refines(twin)
        # unchecked, so an inconsistent truth can contradict the classes
        learned = _apply_unchecked(inst, truth, interviews)
        assert_same_relations(learned, _apply_unchecked(twin, truth, interviews))
        for a in inst.agents():
            before, after = inst.relations[a], learned.relations[a]
            assert (before == after) == (before.edges == after.edges)
        # a second round of interviews on the learned state
        relearned = _apply_unchecked(learned, truth, again)
        assert_same_relations(relearned, _apply_unchecked(edge_twin(learned), truth, again))
        for state in (learned, relearned):
            assert_same_learned((inst, twin, learned), state, truth)
        if not truth.refines(inst):
            return
        refined = apply_interviews(inst, truth, interviews)
        refined_twin = apply_interviews(twin, truth, interviews)
        assert_same_relations(refined, refined_twin)
        assert is_refinement(inst, refined) and is_refinement(twin, refined)
        witness = interview_compatibility(twin, refined_twin)
        for base, state in ((inst, refined), (inst, refined_twin), (twin, refined)):
            assert interview_compatibility(base, state) == witness
            assert interview_cost(base, state) == interview_cost(twin, refined_twin)


def assert_partition(rel):
    """The class invariant: the classes are empty, or non-empty, disjoint
    and with the acceptable set as their union; ``level`` maps each
    candidate to its class's position; ``_index`` is the classes laid end
    to end, with their running ends."""
    classes = rel.classes
    union = frozenset().union(*classes)
    assert all(classes)
    assert sum(map(len, classes)) == len(union)
    assert not classes or union == rel.acceptable
    assert rel.level == {c: i for i, cls in enumerate(classes) for c in cls}
    order, ends = rel._index
    assert ends == tuple(itertools.accumulate(map(len, classes)))
    assert len(order) == (ends[-1] if ends else 0)
    assert [frozenset(order[i:j]) for i, j in zip((0, *ends), ends)] == list(classes)


def one_sided_market(inst):
    """``inst`` written as smti text in which every woman drops the men of
    even index from her list, parsed back, and a truth that ranks each
    parsed list in class order.  The parse drops those men's acceptance of
    her, so it restricts their relations."""
    lines = [f"kind: smti\nmen: {inst.n_men}\nwomen: {inst.n_women}"]
    for a in inst.agents():
        classes = inst.relations[a].classes
        if a.side == "w":
            classes = [cls - {m for m in cls if m.index % 2 == 0} for cls in classes]
        lines.append(f"{a}: {format_classes([cls for cls in classes if cls])}")
    notes = []
    parsed = parse_instance("\n".join(lines) + "\n", warnings=notes)
    truth = StrictProfile({a: tuple(c for cls in rel.classes for c in sorted(cls))
                           for a, rel in parsed.relations.items()})
    return parsed, truth, notes


class TestClassInvariant:
    """A relation's classes are empty or a partition of its acceptable set,
    wherever the relation comes from; no other shape can be built."""

    def test_every_source_keeps_it(self, small_graphs):
        markets = []
        for family in FAMILIES:
            for n in range(1, 31):
                for seed, tie_cap, density in ((0, 1, 1.0), (1, 3, 0.5), (2, n, 0.8)):
                    tiers = [n // 2, n - n // 2] if family == "tiered" and n > 1 else None
                    inst, truth = generate(family, n=n, seed=seed, tiers=tiers,
                                           tie_cap=tie_cap, density=density)
                    markets.append((inst, truth, None))
        for graph in small_graphs:
            for build in (cover_market_smti, cover_market_smt):
                markets.append(build(graph)[:3])
        restricted = 0
        for seed in range(5):
            parsed, truth, notes = one_sided_market(
                generate("random_smti", n=6, seed=seed, tie_cap=3)[0])
            restricted += len(notes)
            markets.append((parsed, truth, None))
        assert restricted
        for inst, truth, mu in markets:
            plan = plan_for_matching(inst, truth, mu or gale_shapley(truth))
            for state in (inst, plan.refined, truth.as_instance()):
                for rel in state.relations.values():
                    assert_partition(rel)

    def test_classes_must_partition_the_acceptable_set(self):
        w1, w2, w3 = CANDIDATES[:3]
        ties = tie_relation(man(1), [[w1], [w3]])
        # w3 classed outside the acceptable set and w2 in no class: the
        # relation whose stored classes once disagreed with its edge twin
        with pytest.raises(ValueError):
            Relation(man(1), frozenset({w1, w2}), ties=ties)
        with pytest.raises(ValueError):  # partial: w3 in no class
            Relation(man(1), frozenset({w1, w2, w3}), ties=tie_relation(man(1), [[w1], [w2]]))
        with pytest.raises(ValueError):  # outside: w3 classed, not acceptable
            Relation(man(1), frozenset({w1}), ties=ties)
        with pytest.raises(ValueError):  # overlapping: w2 in two classes
            tie_relation(man(1), [[w1, w2], [w2, w3]])
        with pytest.raises(ValueError):  # restricted beyond the acceptable set
            ties.restricted(frozenset({w1, w2}))
        # an equal set that is another object is accepted, sharing the classes
        same = Relation(man(1), frozenset({w1, w3}), ties=ties)
        assert same.classes is ties.classes and same == ties

    @settings(max_examples=300)
    @given(st.lists(st.lists(st.sampled_from(CANDIDATES[:5]), max_size=3), max_size=4),
           st.sets(st.sampled_from(CANDIDATES[:5]), max_size=5))
    def test_only_a_partition_builds(self, classes, acceptable):
        # any classes over any acceptable set: overlapping ones are refused by
        # tie_relation, partial or outside ones by the constructor
        union = {c for cls in classes for c in cls}
        if sum(len(set(cls)) for cls in classes) > len(union):
            with pytest.raises(ValueError):
                tie_relation(man(1), classes)
            return
        ties = tie_relation(man(1), classes)
        assert_partition(ties)
        if union and union != acceptable:
            with pytest.raises(ValueError):
                Relation(man(1), frozenset(acceptable), ties=ties)
        elif union:
            assert_partition(Relation(man(1), frozenset(acceptable), ties=ties))

    @settings(max_examples=300)
    @given(st.data())
    def test_tie_structure_equals_edge_twin(self, data):
        # a relation from tie_relation, restricted, owned_by and one or two
        # learns answers as its edge-built twin
        acceptable = data.draw(st.sets(st.sampled_from(CANDIDATES)))
        rel = tie_relation(man(1), cut_classes(data.draw, acceptable))
        keep = frozenset(c for c in acceptable if data.draw(st.booleans()))
        rels = [rel, rel.restricted(keep), rel.owned_by(man(2))]
        for _ in range(2):
            met = [c for c in sorted(acceptable) if data.draw(st.booleans())]
            rels.append(rels[-1].learn(data.draw(st.permutations(met))))
        for r in rels:
            assert_partition(r)
            twin = Relation(r.owner, r.acceptable, r.edges)
            assert agent_tie_structure(r) == agent_tie_structure(twin), r
