import hashlib

import pytest
from helpers import class_markets
from hypothesis import given, settings

from interviewplan.errors import InvalidInstance, ParseError
from interviewplan.fixtures import FIXTURE_NAMES, load, triangle_graph
from interviewplan.formats import (
    format_graph,
    format_instance,
    format_interviews,
    format_matching,
    format_truth,
    parse_certificate,
    parse_graph,
    parse_instance,
    parse_interviews,
    parse_matching,
    parse_truth,
)
from interviewplan.generators import (
    FAMILIES,
    cover_market_smt,
    cover_market_smti,
    generate,
    random_bounded_graph,
)
from interviewplan.model import couple, man, woman
from interviewplan.stability import gale_shapley

SMPI_TEXT = """\
kind: smpi
men: 1
women: 3
m1 accepts: w1 w2 w3
m1 prefers: w1 > w2, w1 > w3, w2 > w3
w1 accepts: m1
w2 accepts: m1
w3 accepts: m1
"""


def test_fixture_files_parse(fig1, tt2, tri, mt3):
    for fx in (fig1, tt2, tri, mt3):
        assert fx.truth.refines(fx.instance)
        assert len(fx.matching) in (2, 3)


def test_instance_roundtrip_on_fixtures():
    for name in FIXTURE_NAMES:
        fx = load(name)
        text = format_instance(fx.instance)
        assert parse_instance(text) == fx.instance
        # serialization is canonical
        assert format_instance(parse_instance(text)) == text


def test_smpi_roundtrip():
    inst = parse_instance(SMPI_TEXT)
    assert inst.relations[man(1)].prefers(woman(1), woman(3))
    again = parse_instance(format_instance(inst, style="smpi"))
    assert again == inst


def assert_byte_round_trip(inst):
    """Both styles write text that parses back to the instance and is
    written again byte for byte."""
    for style in ("smti", "smpi"):
        text = format_instance(inst, style)
        parsed = parse_instance(text)
        assert parsed == inst, style
        assert format_instance(parsed, style) == text, style


def test_byte_round_trip_of_generated_families():
    for family in FAMILIES:
        for n in range(3, 9):
            for seed in range(3):
                inst, _ = generate(family, n=n, seed=seed, density=0.7)
                assert_byte_round_trip(inst)


@settings(max_examples=200)
@given(class_markets())
def test_byte_round_trip_of_class_markets(market):
    assert_byte_round_trip(market[0])


def test_smti_and_smpi_styles_agree():
    inst, _ = generate("random_smti", n=3, seed=9, tie_cap=3, density=0.8)
    assert parse_instance(format_instance(inst, style="smpi")) == inst
    assert parse_instance(format_instance(inst, style="smti")) == inst


def test_non_transitive_base_rejected():
    text = SMPI_TEXT.replace("m1 prefers: w1 > w2, w1 > w3, w2 > w3\n",
                             "m1 prefers: w1 > w2, w2 > w3\n")
    with pytest.raises(InvalidInstance):
        parse_instance(text)
    # but allowed as a refined knowledge state, kept as literal edges
    refined = parse_instance(text, base=False)
    assert refined.relations[man(1)].prefers(woman(1), woman(2))
    assert not refined.relations[man(1)].prefers(woman(1), woman(3))


def test_one_sided_acceptability_dropped_with_warning():
    text = SMPI_TEXT.replace("w2 accepts: m1\n", "w2 accepts:\n")
    notes = []
    inst = parse_instance(text.replace("m1 prefers: w1 > w2, w1 > w3, w2 > w3\n",
                                       "m1 prefers: w1 > w3\n"),
                          warnings=notes)
    assert woman(2) not in inst.relations[man(1)].acceptable
    assert notes and "one-sided" in notes[0]


def test_parse_errors_carry_line_numbers():
    bad = "kind: smti\nmen: 2\nwomen: 2\nm1: (w1 w2\n"
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert err.value.line == 4

    with pytest.raises(ParseError):
        parse_instance("men: 2\nwomen: 2\nm1: w1\n")  # body before kind


def test_each_distinct_agent_token_is_parsed_once(monkeypatch):
    from interviewplan import formats

    inst, truth = generate("master_ties", n=6, seed=1)
    texts = {"smti": format_instance(inst, style="smti"),
             "smpi": format_instance(inst, style="smpi")}
    calls = []
    parse_agent = formats.parse_agent

    def counted(token, line=None):
        calls.append(token)
        return parse_agent(token, line)

    monkeypatch.setattr(formats, "parse_agent", counted)
    for text in texts.values():
        calls.clear()
        assert parse_instance(text) == inst
        assert sorted(calls) == sorted(set(calls)) and len(calls) == 12
    calls.clear()
    assert parse_truth(format_truth(truth)) == truth
    assert len(calls) == 12


@pytest.mark.parametrize("text, line", [
    # a bad token first seen as a candidate, after good tokens were kept
    ("kind: smti\nmen: 1\nwomen: 2\nm1: w1 w2\nw1: m1\nw2: m1 x7\n", 6),
    ("kind: smpi\nmen: 1\nwomen: 1\nm1 accepts: w1\nw1 accepts: m1\n"
     "m1 prefers: w1 > wx\n", 6),
    # a bad token repeated: the error names its first line
    ("kind: smti\nmen: 1\nwomen: 1\nm1: w1 q1\nw1: m1 q1\n", 4),
])
def test_bad_agent_token_raises_on_its_first_line(text, line):
    with pytest.raises(ParseError, match="bad agent token") as err:
        parse_instance(text)
    assert err.value.line == line
    with pytest.raises(ParseError, match="bad agent token") as err:
        parse_truth("m1: w1\nw1: m1 m2\nw2: zz m1\nw3: zz\n")
    assert err.value.line == 3


def test_comments_and_blank_lines_ignored():
    text = "# header\nkind: smti\n\nmen: 1\nwomen: 1\nm1: w1  # note\nw1: m1\n"
    inst = parse_instance(text)
    assert inst.acceptable_pairs() == ((man(1), woman(1)),)


def test_truth_matching_interviews_roundtrip(fig1):
    truth_text = format_truth(fig1.truth)
    assert parse_truth(truth_text) == fig1.truth
    match_text = format_matching(fig1.matching)
    assert parse_matching(match_text) == fig1.matching
    pairs = frozenset({couple(man(1), woman(2)), couple(woman(1), man(2))})
    assert parse_interviews(format_interviews(pairs)) == pairs


def test_matching_rejects_same_side_pair():
    with pytest.raises(ParseError):
        parse_matching("m1 m2\n")


def test_every_pair_reader_rejects_a_same_side_pair_with_its_line():
    # the interview section of a certificate is read like a matching
    certificate = "cost: 1\ninterviews:\nm1 w1\nm1 m2\nrefined:\n"
    for parse, text, line in ((parse_matching, "m1 w1\nw2 w1\n", 2),
                              (parse_interviews, "\n# note\nm1 m2\n", 3),
                              (parse_certificate, certificate, 4)):
        with pytest.raises(ParseError, match="pair is not man-woman") as err:
            parse(text)
        assert err.value.line == line, parse.__name__


def test_graph_roundtrip():
    g = triangle_graph()
    assert g.n == 3 and len(g.edges) == 3
    assert parse_graph(format_graph(g)) == g


def test_graph_header_edge_count_checked():
    with pytest.raises(ParseError):
        parse_graph("graph 3 2\n1 2\n")


# sha256 of the instance + truth (+ matching) text of one market per
# family: generated files stay byte-identical however relations are built
GENERATED_DIGESTS = {
    "tiered": "2a9c68c88e897d6f9d202348302a04a9be17d4002dd24a57cbcf966290e6ec8f",
    "random_smti": "c6fa642ed394e77039d9b0a0cb9ec8b5f92b7a8ae492c56d8b756bf3e463b2ac",
    "master_ties": "fb75081271d6dcf069805c754c85db50e5e97d88d7836a98644b2630ac19804b",
    "one_side_strict": "0dc6ef5de80d6831868e2af6b149555012519bf94ff655becc3f148bdf884dbf",
    "cover_market_smti": "7b31ef3e1f2312b89ca2c2cc4f3223f9767c56ec0be54dc7ecc58ccdb68c8232",
    "cover_market_smt": "b13cf71806edcb2a1b7fc5befce0926f165481ba0fe8a205f3f77d04f945cdea",
}


def _generated_markets():
    for family, kw in (("tiered", {"tiers": [2, 3, 1]}), ("random_smti", {"density": 0.7}),
                       ("master_ties", {}), ("one_side_strict", {"density": 0.7})):
        inst, truth = generate(family, n=6, seed=4, **kw)
        yield family, inst, truth, gale_shapley(truth)
    graph = random_bounded_graph(6, 3, seed=2)
    for build in (cover_market_smti, cover_market_smt):
        inst, truth, mu, _ = build(graph)
        yield build.__name__, inst, truth, mu


def test_writer_deterministic_for_generated(tmp_path):
    for name, inst, truth, mu in _generated_markets():
        text = format_instance(inst)
        assert format_instance(inst) == text
        assert parse_instance(text) == inst
        assert parse_truth(format_truth(truth)) == truth
        assert parse_matching(format_matching(mu)) == mu
        written = text + format_truth(truth)
        if name.startswith("cover_market"):
            written += format_matching(mu)
        assert hashlib.sha256(written.encode()).hexdigest() == GENERATED_DIGESTS[name], name
