from __future__ import annotations

import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from factorcrit import cycle_graph, encode_graph6, parse_graph6, wheel_graph
from factorcrit.cli import default_jobs, main


def run_cli(argv, stdin: str | None = None, capsys=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_pm_positive(capsys):
    code, out, _ = run_cli(["pm", "A_"], capsys=capsys)
    assert code == 0
    assert "perfect matching: yes" in out


def test_pm_negative_reports_witness(capsys):
    code, out, _ = run_cli(["pm", "Bw"], capsys=capsys)
    assert code == 1
    assert "deficiency witness" in out


def test_pm_json_schema(capsys):
    code, out, _ = run_cli(["pm", "--json", "A_"], capsys=capsys)
    payload = json.loads(out)
    assert code == 0 and payload["schema"] == 1
    assert payload["results"][0]["perfect_matching"] is True


def test_kfc_failing_set(capsys):
    c6 = encode_graph6(cycle_graph(6))
    code, out, _ = run_cli(["kfc", "--k", "2", c6], capsys=capsys)
    assert code == 1
    assert "[0, 2]" in out
    code, out, _ = run_cli(["kfc", "--k", "2", "--method", "tutte", c6], capsys=capsys)
    assert code == 1 and "[0, 2]" in out


def test_minimal_and_witness(capsys):
    code, out, _ = run_cli(["minimal", "--k", "4", "E~~w"], capsys=capsys)
    assert code == 0 and "yes" in out
    code, out, _ = run_cli(["witness", "--k", "4", "--edge", "0,1", "E~~w"], capsys=capsys)
    assert code == 0 and "[2, 3, 4, 5]" in out
    code, out, _ = run_cli(
        ["witness", "--k", "4", "--edge", "0,1", "--all", "--json", "E~~w"], capsys=capsys
    )
    payload = json.loads(out)
    assert code == 0 and payload["results"][0]["witnesses"] == [[2, 3, 4, 5]]


def test_classify_and_predicates(capsys):
    from factorcrit import Graph

    res = encode_graph6(Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]))
    code, out, _ = run_cli(["classify", "--family", "A", "--edge", "0,3", res], capsys=capsys)
    assert code == 0 and "A1" in out
    w7 = encode_graph6(wheel_graph(7))
    code, out, _ = run_cli(["predicates", "--k", "2", "--json", w7], capsys=capsys)
    payload = json.loads(out)
    assert code == 0 and payload["results"]


def test_verify_wheel(capsys):
    w7 = encode_graph6(wheel_graph(7))
    code, out, _ = run_cli(["verify", "--k", "2", w7], capsys=capsys)
    assert code == 0
    for tid in ("L3.1", "C1.2", "T1.1", "C2.7", "L2.5"):
        assert tid in out


def test_survey_gen_json(capsys):
    code, out, _ = run_cli(["survey", "--gen", "6", "--k", "4", "--json", "--jobs", "1"], capsys=capsys)
    payload = json.loads(out)
    assert code == 0
    assert payload["minimal"] == 1 and payload["schema"] == 1
    assert payload["counterexamples"] == []


def test_survey_file_input(tmp_path: Path, capsys):
    path = tmp_path / "cat.g6"
    path.write_text("C~\nCr\n", encoding="ascii")  # K4 and C4
    code, out, _ = run_cli(
        ["survey", "--file", str(path), "--n", "4", "--k", "2", "--json", "--jobs", "1"],
        capsys=capsys,
    )
    payload = json.loads(out)
    assert code == 0 and payload["total"] == 2 and payload["minimal"] == 1


def test_survey_usage_errors(capsys):
    code, _, err = run_cli(["survey", "--k", "2"], capsys=capsys)
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(["survey", "--file", "x.g6", "--k", "2"], capsys=capsys)
    assert code == 2 and "--n" in err


def test_survey_resume_mismatch_exits_2(tmp_path: Path, capsys):
    path = tmp_path / "records.jsonl"
    argv = ["survey", "--gen", "5", "--k", "1", "--jobs", "1", "--jsonl", str(path)]
    assert run_cli(argv, capsys=capsys)[0] == 0
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:10]))
    code, _, err = run_cli(argv + ["--resume-lines", "20"], capsys=capsys)
    assert code == 2
    assert "exactly 20" in err
    assert run_cli(argv + ["--resume-lines", "10"], capsys=capsys)[0] == 0
    assert len(path.read_text().splitlines()) == 34


def test_gen_counts(capsys):
    code, out, err = run_cli(["gen", "4"], capsys=capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 11
    assert "11 graphs" in err


@pytest.mark.parametrize("n", [0, 10])
def test_gen_out_of_range_leaves_out_file_alone(tmp_path: Path, capsys, n):
    path = tmp_path / "graphs.g6"
    path.write_bytes(b"C~\nCr\n")
    code, _, err = run_cli(["gen", str(n), "--out", str(path)], capsys=capsys)
    assert code == 2 and "error" in err
    assert path.read_bytes() == b"C~\nCr\n"


# sha256 of the stdout of `witness --all --json` for every edge in order,
# concatenated, and of `predicates --json`; recorded before the witness
# search tested vertex masks instead of building G - S.
WITNESS_PREDICATE_GOLDEN = {
    ("GhCKN{", 2): (  # wheel_graph(7)
        "d5a14b114c876b9b03c092cb5584fc57679780ddb9832b9f4d46eef45d84e7b2",
        "8271a26d9ca16fabd9bb76a98042ac961b3f54cbace062ada7430ca1ce5e1879",
    ),
    ("E~~w", 4): (
        "39950e21c30cf29c750b24c207bd769c59f4ecbea32a064d155daae7050aa34d",
        "b8854b04ee71962c44a7531d1e236bd8b2f4ba8b02d89a3f59e851e96e45ca8e",
    ),
    ("G@U^FC", 2): (  # labels A1, A2 and C2'
        "2bd3988164e81f905d1fb98002bf2e7294ee12db5283d6f026f463a5bc59b82d",
        "7ca75c809b3e7272401b017a11df8b9ad0a14a4717b556cbfdb60e00a5d83aa0",
    ),
    ("HhCGGE@", 1): (  # cycle_graph(9): family B preconditions fail
        "f6c887d09d7be76c38e2ac00c708ed2db953cba622cd6d1b3168747d69211a17",
        "d34074f5e78eed4ccf969c12e57cc9a1799d57a37b8a940a842aea6e78719619",
    ),
}


def test_witness_and_predicates_json_golden(capsys):
    assert encode_graph6(wheel_graph(7)) == "GhCKN{"
    assert encode_graph6(cycle_graph(9)) == "HhCGGE@"
    for (g6, k), (witness_hash, predicates_hash) in WITNESS_PREDICATE_GOLDEN.items():
        digest = hashlib.sha256()
        for u, v in parse_graph6(g6).edges():
            code, out, _ = run_cli(
                ["witness", "--all", "--json", "--k", str(k), "--edge", f"{u},{v}", g6],
                capsys=capsys,
            )
            assert code == 0
            digest.update(out.encode())
        assert digest.hexdigest() == witness_hash, (g6, k)
        code, out, _ = run_cli(["predicates", "--json", "--k", str(k), g6], capsys=capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == predicates_hash, (g6, k)


def test_hunt_clean_and_selftest(capsys):
    code, out, _ = run_cli(["hunt", "--n-from", "4", "--n-to", "5", "--json", "--jobs", "1"], capsys=capsys)
    assert code == 0 and json.loads(out)["counterexamples"] == []
    code, out, _ = run_cli(
        ["hunt", "--n-from", "6", "--n-to", "6", "--offset", "2", "--self-test", "--jobs", "1"],
        capsys=capsys,
    )
    assert code == 1 and "E~~w" in out


def test_stdin_input(capsys):
    code, out, _ = run_cli(["pm"], stdin="A_\nBw\n", capsys=capsys)
    assert code == 1
    assert "stdin 1" in out and "stdin 2" in out


def test_lenient_file_parsing(tmp_path: Path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("A_\ngarbage!!\n", encoding="ascii")
    code, _, err = run_cli(["pm", "--file", str(path)], capsys=capsys)
    assert code == 2 and "error" in err
    code, out, err = run_cli(["pm", "--file", str(path), "--lenient"], capsys=capsys)
    assert code == 0 and "skipped" in err


def test_non_ascii_file_line(tmp_path: Path, capsys):
    path = tmp_path / "accented.g6"
    path.write_bytes("A_\né\n".encode("utf-8"))
    code, _, err = run_cli(["pm", "--file", str(path)], capsys=capsys)
    assert code == 2 and f"{path}:2: byte out of graph6 range" in err
    code, out, err = run_cli(["pm", "--file", str(path), "--lenient"], capsys=capsys)
    assert code == 0 and f"{path}:2: skipped" in err
    assert "perfect matching: yes" in out


def test_usage_exit_codes(capsys):
    assert run_cli(["nonsense"], capsys=capsys)[0] == 2
    assert run_cli(["kfc", "A_"], capsys=capsys)[0] == 2  # missing --k
    assert run_cli(["pm", "A_", "--file", "x.g6"], capsys=capsys)[0] == 2


def test_jobs_env_override(monkeypatch):
    monkeypatch.setenv("FACTORCRIT_JOBS", "3")
    assert default_jobs() == 3
    monkeypatch.setenv("FACTORCRIT_JOBS", "junk")
    assert default_jobs() >= 1
    monkeypatch.delenv("FACTORCRIT_JOBS")
    assert default_jobs() >= 1
