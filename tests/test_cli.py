import os
import subprocess
import sys
from pathlib import Path

import pytest

import interviewplan
from interviewplan import cli, generators, oracles, stability
from interviewplan.cli import main
from interviewplan.formats import (
    format_instance,
    format_matching,
    format_truth,
    parse_certificate,
)
from interviewplan.fixtures import load
from interviewplan.generators import SMALL_GRAPH_CAP, generate
from interviewplan.interviews import apply_interviews
from interviewplan.model import interview_set, man, woman


@pytest.fixture()
def fig1_files(tmp_path):
    fx = load("fig1")
    paths = {}
    for name, text in (("instance", format_instance(fx.instance)),
                       ("truth", format_truth(fx.truth)),
                       ("matching", format_matching(fx.matching))):
        p = tmp_path / f"fig1.{name}"
        p.write_text(text, encoding="utf-8")
        paths[name] = str(p)
    return fx, paths


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestGen:
    def test_gen_random_family(self, capsys, tmp_path):
        out = tmp_path / "m"
        code, stdout, _ = run(capsys, "gen", "--family", "tiered", "--n", "4",
                              "--tiers", "2,2", "--seed", "3", "--out", str(out))
        assert code == 0
        assert (tmp_path / "m.instance").exists()
        assert (tmp_path / "m.truth").exists()

    def test_gen_graph_family_writes_matching(self, capsys, tmp_path):
        g = tmp_path / "k3.graph"
        g.write_text("graph 3 3\n1 2\n1 3\n2 3\n", encoding="utf-8")
        out = tmp_path / "tri"
        code, _, _ = run(capsys, "gen", "--family", "vc3-smti",
                         "--graph", str(g), "--out", str(out))
        assert code == 0
        assert (tmp_path / "tri.matching").exists()

    def test_gen_outputs_are_reproducible(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        run(capsys, "gen", "--family", "random-smti", "--n", "4",
            "--seed", "9", "--out", str(out1))
        run(capsys, "gen", "--family", "random-smti", "--n", "4",
            "--seed", "9", "--out", str(out2))
        for suffix in (".instance", ".truth"):
            a = (tmp_path / ("a" + suffix)).read_text(encoding="utf-8")
            b = (tmp_path / ("b" + suffix)).read_text(encoding="utf-8")
            assert a.replace("/a.", "/b.") == b

    def test_gen_requires_n(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--family", "random-smti",
                           "--out", str(tmp_path / "x"))
        assert code == 2

    def test_non_integer_tier_size_is_usage_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "gen", "--family", "tiered", "--n", "4",
                           "--tiers", "2,x", "--out", str(tmp_path / "x"))
        assert code == 2
        assert err == "error: --tiers takes comma-separated sizes, not '2,x'\n"

    @pytest.mark.parametrize("text, line", [
        ("graph 3 x\n", 1), ("graph x 0\n", 1), ("graph 3 1\n1 x\n", 2),
        ("graph 3 1\n# comment\n1 \u00b2\n", 3), ("graph -1 0\n", 1),
    ])
    def test_non_integer_graph_token_is_parse_error(self, capsys, tmp_path, text, line):
        # through gen --graph and bench --graph-dir alike
        (tmp_path / "bad.graph").write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "gen", "--family", "vc3-smti",
                           "--graph", str(tmp_path / "bad.graph"), "--out", str(tmp_path / "g"))
        assert code == 2 and err.startswith(f"error: line {line}: "), err
        code, _, bench_err = run(capsys, "bench", "--family", "vc3-smti",
                                 "--graph-dir", str(tmp_path), "--omit-runtime",
                                 "--out", str(tmp_path / "rows.csv"))
        assert (code, bench_err) == (2, err)


class TestCheck:
    def test_instance_only(self, capsys, fig1_files):
        _, paths = fig1_files
        code, stdout, _ = run(capsys, "check", paths["instance"])
        assert code == 0
        assert "instance: ok" in stdout
        assert "(w1 w2)" in stdout

    def test_full_certificate_passes(self, capsys, fig1_files, tmp_path):
        fx, paths = fig1_files
        refined = apply_interviews(
            fx.instance, fx.truth,
            interview_set([(man(2), woman(1)), (man(2), woman(2)),
                           (man(1), woman(2))]))
        refined_path = tmp_path / "refined.instance"
        refined_path.write_text(format_instance(refined), encoding="utf-8")
        code, stdout, _ = run(capsys, "check", paths["instance"],
                              "--refined", str(refined_path),
                              "--truth", paths["truth"],
                              "--matching", paths["matching"])
        assert code == 0
        assert "interview-compatible: yes (cost 3)" in stdout
        assert "refined super-stable for matching: yes" in stdout

    def test_blocker_report_printed_with_truth_and_matching(self, capsys,
                                                            fig1_files):
        _, paths = fig1_files
        code, stdout, _ = run(capsys, "check", paths["instance"],
                              "--truth", paths["truth"],
                              "--matching", paths["matching"])
        assert code == 0
        assert "potential blockers: 2 (degree-1: 1, degree-2: 1)" in stdout
        assert "mandated pairs: m2 w2" in stdout
        assert "cover graph: 0 vertices, 0 edges" in stdout

    def test_cover_graph_adjacency_listing(self, capsys, tmp_path):
        from interviewplan.fixtures import load

        fx = load("mt3")
        for name, text in (("instance", format_instance(fx.instance)),
                           ("truth", format_truth(fx.truth)),
                           ("matching", format_matching(fx.matching))):
            (tmp_path / f"mt3.{name}").write_text(text, encoding="utf-8")
        code, stdout, _ = run(capsys, "check", str(tmp_path / "mt3.instance"),
                              "--truth", str(tmp_path / "mt3.truth"),
                              "--matching", str(tmp_path / "mt3.matching"))
        assert code == 0
        assert "cover graph: 3 vertices, 3 edges" in stdout
        assert "(m1 w1): (m2 w2) (m3 w3)" in stdout

    def test_unreachable_refinement_fails_naming_agent(self, capsys, tmp_path):
        base = ("kind: smti\nmen: 1\nwomen: 3\n"
                "m1: (w1 w2 w3)\nw1: m1\nw2: m1\nw3: m1\n")
        refined = ("kind: smti\nmen: 1\nwomen: 3\n"
                    "m1: w1 (w2 w3)\nw1: m1\nw2: m1\nw3: m1\n")
        bp, rp = tmp_path / "base.instance", tmp_path / "ref.instance"
        bp.write_text(base, encoding="utf-8")
        rp.write_text(refined, encoding="utf-8")
        code, stdout, _ = run(capsys, "check", str(bp), "--refined", str(rp))
        assert code == 1
        assert "interview-compatible: NO" in stdout
        assert "m1" in stdout

    def test_existence_check_without_matching(self, capsys, fig1_files, tmp_path):
        fx, paths = fig1_files
        code, stdout, _ = run(capsys, "check", paths["instance"],
                              "--refined", paths["instance"])
        assert code == 1
        assert "admits super-stable matching: NO" in stdout

    def test_completion_cross_check_names_its_cap_when_skipped(self, capsys, tmp_path):
        # one man ties nine women: 9! orders exceed the extension cap
        women = " ".join(f"w{j}" for j in range(1, 10))
        inst = ("kind: smti\nmen: 1\nwomen: 9\n"
                f"m1: ({women})\n" + "".join(f"w{j}: m1\n" for j in range(1, 10)))
        (tmp_path / "tie9.instance").write_text(inst, encoding="utf-8")
        (tmp_path / "tie9.matching").write_text("m1 w1\n", encoding="utf-8")
        code, stdout, _ = run(capsys, "check", str(tmp_path / "tie9.instance"),
                              "--matching", str(tmp_path / "tie9.matching"))
        assert code == 0
        assert ("  super-stability vs completions: skipped "
                "(m1 has more than 100000 linear extensions)\n") in stdout

    @pytest.mark.parametrize("cap, skipped", [
        (100000, "extension profile space exceeds the cap of 100000"),
        (1000, "m1 has more than 1000 linear extensions"),
    ])
    def test_completion_cross_check_skips_class_markets_as_enumeration_does(
            self, capsys, tmp_path, monkeypatch, cap, skipped):
        # with no agent read as ordered classes, every agent's extensions
        # are enumerated to decide the caps; the counted path must print
        # the same report, and enumerate nothing for the agent it refuses
        inst, truth = generate("master_ties", n=20, seed=0)
        paths = []
        for name, text in (("instance", format_instance(inst)),
                           ("truth", format_truth(truth)),
                           ("matching", format_matching(stability.gale_shapley(truth)))):
            (tmp_path / f"mt.{name}").write_text(text, encoding="utf-8")
            paths.append(str(tmp_path / f"mt.{name}"))
        argv = ("check", paths[0], "--truth", paths[1], "--matching", paths[2])
        monkeypatch.setattr(cli, "EXTENSION_PRODUCT_CAP", cap)
        counted = run(capsys, *argv)
        assert f"  super-stability vs completions: skipped ({skipped})\n" in counted[1]
        with monkeypatch.context() as patch:
            patch.setattr(oracles, "detect_tie_structure", lambda instance: dict.fromkeys(
                instance.agents()))
            assert run(capsys, *argv) == counted
        enumerated = []
        real = oracles.linear_extensions

        def logged(instance, a, cap):
            enumerated.append(a)
            return real(instance, a, cap)

        monkeypatch.setattr(oracles, "linear_extensions", logged)
        assert run(capsys, *argv) == counted
        assert len(enumerated) == (1 if cap == 100000 else 0)

    def test_existence_check_names_its_cap_when_skipped(self, capsys, fig1_files):
        _, paths = fig1_files
        code, stdout, _ = run(capsys, "check", paths["instance"],
                              "--refined", paths["instance"], "--cap", "1")
        assert code == 0
        assert ("refined admits super-stable matching: skipped "
                "(2x2 exceeds the cap of 1 per side)\n") in stdout

    def test_invalid_instance_reports_and_fails(self, capsys, tmp_path):
        bad = ("kind: smpi\nmen: 1\nwomen: 3\n"
               "m1 accepts: w1 w2 w3\nm1 prefers: w1 > w2, w2 > w3\n"
               "w1 accepts: m1\nw2 accepts: m1\nw3 accepts: m1\n")
        p = tmp_path / "bad.instance"
        p.write_text(bad, encoding="utf-8")
        code, stdout, _ = run(capsys, "check", str(p))
        assert code == 1
        assert "not_transitive" in stdout

    def test_matching_outside_agent_counts_fails_cleanly(self, capsys, fig1_files, tmp_path):
        # index 0 names no agent: both commands report it and exit 1
        _, paths = fig1_files
        bad = tmp_path / "zero.matching"
        bad.write_text("m0 w1\n", encoding="utf-8")
        code, stdout, err = run(capsys, "check", paths["instance"], "--truth", paths["truth"],
                                "--matching", str(bad))
        assert code == 1
        assert "matching: INVALID ((m0, w1) outside declared agent counts)" in stdout
        code, stdout, err = run(capsys, "solve", paths["instance"], paths["truth"],
                                "--matching", str(bad))
        assert code == 1
        assert err == "error: (m0, w1) outside declared agent counts\n"

    def test_parse_error_exits_two(self, capsys, tmp_path):
        p = tmp_path / "broken.instance"
        p.write_text("kind: smti\nmen: 1\nwomen: 1\nm1: (w1\n", encoding="utf-8")
        code, _, err = run(capsys, "check", str(p))
        assert code == 2
        assert "line 4" in err

    @pytest.mark.parametrize("body, message", [
        # "\u00b2" is a digit to str.isdigit that int() rejects
        ("men: 1\nwomen: 1\nm1: w\u00b2\n", "line 4: bad agent token 'w\u00b2'"),
        ("men: \u00b2\nwomen: 1\n", "line 2: bad count '\u00b2'"),
        ("men: 1\nwomen: 1\u00b9\n", "line 3: bad count '1\u00b9'"),
    ])
    def test_non_integer_token_is_parse_error(self, capsys, tmp_path, body, message):
        p = tmp_path / "sup.instance"
        p.write_text("kind: smti\n" + body, encoding="utf-8")
        code, _, err = run(capsys, "check", str(p))
        assert (code, err) == (2, f"error: {message}\n")


class TestSolve:
    def test_solve_with_matching(self, capsys, fig1_files):
        _, paths = fig1_files
        code, stdout, _ = run(capsys, "solve", paths["instance"], paths["truth"],
                              "--matching", paths["matching"])
        assert code == 0
        assert "cost=3 breakdown=2+1+0" in stdout
        assert "naive=4" in stdout

    def test_solve_min_icr_with_oracle(self, capsys, fig1_files):
        _, paths = fig1_files
        code, stdout, _ = run(capsys, "solve", paths["instance"], paths["truth"],
                              "--min-icr", "--oracle-verify")
        assert code == 0
        assert "cost=3" in stdout
        assert "oracle: agree (cost=3)" in stdout

    def test_certificate_roundtrip(self, capsys, fig1_files, tmp_path):
        fx, paths = fig1_files
        cert = tmp_path / "plan.cert"
        code, _, _ = run(capsys, "solve", paths["instance"], paths["truth"],
                         "--matching", paths["matching"], "--out", str(cert))
        assert code == 0
        meta, interviews, refined = parse_certificate(
            cert.read_text(encoding="utf-8"))
        assert meta["cost"] == 3 and len(interviews) == 3
        # the embedded refined instance feeds back into check and passes
        refined_path = tmp_path / "refined.instance"
        refined_path.write_text(format_instance(refined), encoding="utf-8")
        code, stdout, _ = run(capsys, "check", paths["instance"],
                              "--refined", str(refined_path),
                              "--matching", paths["matching"])
        assert code == 0

    def test_missing_matching_is_usage_error(self, capsys, fig1_files):
        _, paths = fig1_files
        code, _, _ = run(capsys, "solve", paths["instance"], paths["truth"])
        assert code == 2

    def test_output_byte_identical_across_runs(self, capsys, fig1_files):
        _, paths = fig1_files
        argv = ("solve", paths["instance"], paths["truth"],
                "--matching", paths["matching"])
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


class TestOracle:
    def test_oracle_exact(self, capsys, fig1_files):
        _, paths = fig1_files
        code, stdout, _ = run(capsys, "oracle", paths["instance"], paths["truth"],
                              "--matching", paths["matching"], "--mode", "pure")
        assert code == 0
        assert "cost=3" in stdout

    def test_oracle_min_icr(self, capsys, fig1_files):
        _, paths = fig1_files
        code, stdout, _ = run(capsys, "oracle", paths["instance"], paths["truth"],
                              "--min-icr")
        assert code == 0
        assert "cost=3" in stdout
        assert "m1 w1; m2 w2" in stdout


class TestBench:
    def test_family_sweep(self, capsys, tmp_path):
        out = tmp_path / "rows.csv"
        code, _, _ = run(capsys, "bench", "--family", "tiered", "--n", "4",
                         "--tiers", "2,2", "--trials", "5", "--seed", "1",
                         "--out", str(out))
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0].startswith("instance_id,family,n_men")
        assert len(lines) == 6
        for row in lines[1:]:
            cells = row.split(",")
            solver_cost, naive = int(cells[9]), int(cells[11])
            assert solver_cost <= naive
            assert cells[14] == ""  # no error

    def test_graph_sweep_matches_cover_formula(self, capsys, tmp_path):
        out = tmp_path / "graphs.csv"
        code, _, _ = run(capsys, "bench", "--family", "vc3-smti", "--max-n", "4",
                         "--out", str(out), "--omit-runtime")
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 11  # header + the ten graphs up to four vertices
        for row in lines[1:]:
            cells = row.split(",")
            solver_cost, oracle_cost = int(cells[9]), int(cells[10])
            assert solver_cost == oracle_cost

    def test_zero_trials_header_only(self, capsys, tmp_path):
        out = tmp_path / "empty.csv"
        code, _, _ = run(capsys, "bench", "--family", "random-smti", "--n", "3",
                         "--trials", "0", "--out", str(out))
        assert code == 0
        lines = out.read_text(encoding="utf-8").strip().splitlines()
        assert len(lines) == 1

    @pytest.mark.parametrize("argv", [
        ("--family", "vc3-smti"),
        ("--family", "random-smti"),
        ("--family", "tiered", "--n", "4", "--tiers", "2,x"),
    ])
    def test_usage_error_leaves_an_existing_out_file_as_it_was(self, capsys, tmp_path,
                                                                argv):
        out = tmp_path / "rows.csv"
        out.write_bytes(b"instance_id,family\r\nkept-0000,tiered\r\n")
        code, _, err = run(capsys, "bench", *argv, "--out", str(out))
        assert code == 2 and err.startswith("error: ")
        assert out.read_bytes() == b"instance_id,family\r\nkept-0000,tiered\r\n"

    def test_graph_size_over_the_cap_fails_before_any_scan(self, capsys, tmp_path,
                                                           monkeypatch):
        def scanned(n, edges):
            raise AssertionError("the edge masks were scanned")

        monkeypatch.setattr(generators, "_connected", scanned)
        out = tmp_path / "rows.csv"
        out.write_bytes(b"kept\r\n")
        code, _, err = run(capsys, "bench", "--family", "vc3-smti", "--max-n",
                           str(SMALL_GRAPH_CAP + 1), "--out", str(out))
        assert (code, err) == (1, f"error: 8 vertices exceed the cap of {SMALL_GRAPH_CAP}\n")
        assert out.read_bytes() == b"kept\r\n"

    def test_csv_byte_identical_with_omit_runtime(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ("bench", "--family", "random-smti", "--n", "4", "--trials", "6",
                "--seed", "5", "--omit-runtime")
        run(capsys, *argv, "--out", str(a))
        run(capsys, *argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["check", "solve", "oracle", "bench"])
def test_negative_cap_is_usage_error(capsys, fig1_files, tmp_path, command):
    # every --cap counts agents or pairs, so a negative one is refused before
    # any work, and bench leaves an existing --out file as it was
    _, paths = fig1_files
    out = tmp_path / "rows.csv"
    out.write_bytes(b"kept\r\n")
    argv = {"check": ("check", paths["instance"], "--refined", paths["instance"]),
            "solve": ("solve", paths["instance"], paths["truth"], "--min-icr"),
            "oracle": ("oracle", paths["instance"], paths["truth"], "--min-icr"),
            "bench": ("bench", "--family", "random-smti", "--n", "3", "--out", str(out))}
    code, stdout, err = run(capsys, *argv[command], "--cap", "-3")
    assert (code, stdout, err) == (2, "", "error: --cap takes a count of 0 or more, not -3\n")
    assert out.read_bytes() == b"kept\r\n"


def test_one_parser_serves_every_call_in_a_process(capsys, tmp_path, monkeypatch):
    built, build_parser = [], cli.build_parser

    def counted():
        built.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ("bench", "--family", "master-ties", "--n", "6", "--trials", "3",
                "--seed", "2", "--omit-runtime")
        assert run(capsys, *argv, "--out", str(a))[0] == 0
        code, _, err = run(capsys, "bench", "--family", "tiered", "--n", "4",
                           "--tiers", "2,x")
        assert code == 2 and err.startswith("error: --tiers")
        with pytest.raises(SystemExit) as exit_:
            main(["--version"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == interviewplan.__version__ + "\n"
        with pytest.raises(SystemExit) as exit_:
            main(["bench", "--family", "no-such-family"])
        assert exit_.value.code == 2
        capsys.readouterr()
        assert run(capsys, *argv, "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


def test_module_entry_point_runs():
    # the child imports the same package as this process, installed or not
    src = str(Path(interviewplan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "interviewplan", "--version"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
