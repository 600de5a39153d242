import os
import subprocess
import sys
from pathlib import Path

import pytest

import interviewplan
from interviewplan.cli import main
from interviewplan.formats import (
    format_instance,
    format_matching,
    format_truth,
    parse_certificate,
)
from interviewplan.fixtures import load
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

    def test_invalid_instance_reports_and_fails(self, capsys, tmp_path):
        bad = ("kind: smpi\nmen: 1\nwomen: 3\n"
               "m1 accepts: w1 w2 w3\nm1 prefers: w1 > w2, w2 > w3\n"
               "w1 accepts: m1\nw2 accepts: m1\nw3 accepts: m1\n")
        p = tmp_path / "bad.instance"
        p.write_text(bad, encoding="utf-8")
        code, stdout, _ = run(capsys, "check", str(p))
        assert code == 1
        assert "not_transitive" in stdout

    def test_parse_error_exits_two(self, capsys, tmp_path):
        p = tmp_path / "broken.instance"
        p.write_text("kind: smti\nmen: 1\nwomen: 1\nm1: (w1\n", encoding="utf-8")
        code, _, err = run(capsys, "check", str(p))
        assert code == 2
        assert "line 4" in err


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

    def test_csv_byte_identical_with_omit_runtime(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ("bench", "--family", "random-smti", "--n", "4", "--trials", "6",
                "--seed", "5", "--omit-runtime")
        run(capsys, *argv, "--out", str(a))
        run(capsys, *argv, "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


def test_module_entry_point_runs():
    # the child imports the same package as this process, installed or not
    src = str(Path(interviewplan.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-m", "interviewplan", "--version"],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
