from __future__ import annotations

import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from factorcrit import (
    cli,
    complete_bipartite,
    cycle_graph,
    encode_graph6,
    parse_graph6,
    path_graph,
    wheel_graph,
)
from factorcrit.cli import build_parser, main
from factorcrit.search import enumerate_catalog


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


@pytest.mark.parametrize("sides", [(14, 16), (30, 32)])
def test_pm_reports_a_barrier_above_the_search_gate(capsys, sides):
    started = time.monotonic()
    code, out, _ = run_cli(["pm", "--json", encode_graph6(complete_bipartite(*sides))], capsys=capsys)
    assert time.monotonic() - started <= 2.0
    result = json.loads(out)["results"][0]
    assert code == 1 and "violator" not in result
    assert result["gallai_edmonds_barrier"]["x"] == list(range(sides[0]))
    assert result["gallai_edmonds_barrier"]["deficit"] == 2


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


def test_predicates_on_a_non_edge_exits_2(capsys):
    # The pair is sorted before the lookup, so "3,1" is named as (1, 3).
    w7 = encode_graph6(wheel_graph(7))
    code, out, err = run_cli(["predicates", "--k", "2", "--edge", "3,1", w7], capsys=capsys)
    assert (code, out, err) == (2, "", "error: edge (1, 3) not in graph\n")


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
    code, out, err = run_cli(["survey", "--gen", "6", "--n", "9", "--k", "2"], capsys=capsys)
    assert (code, out, err) == (2, "", "survey --n 9 contradicts --gen 6\n")
    assert run_cli(["survey", "--gen", "6", "--n", "6", "--k", "4", "--jobs", "1"], capsys=capsys)[0] == 0


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("command", [["survey", "--gen", "6", "--k", "2"], ["hunt", "--n-from", "4", "--n-to", "6"]],
                         ids=["survey", "hunt"])
def test_jobs_below_one_exits_2(capsys, command, jobs):
    assert run_cli(command + ["--jobs", jobs], capsys=capsys) == (
        2, "", f"{command[0]} --jobs must be at least 1, not {jobs}\n")


@pytest.mark.parametrize("order, k, message", [
    ("1", "1", "order 1 has no valid k (surveys need 1 <= k <= n-2)"),
    ("2", "0", "order 2 has no valid k (surveys need 1 <= k <= n-2)"),
    ("6", "6", "k=6 outside 1..4"),
])
def test_survey_k_out_of_range_exits_2(capsys, order, k, message):
    code, out, err = run_cli(["survey", "--gen", order, "--k", k, "--jobs", "1"], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


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


def test_survey_resume_lines_without_jsonl_exits_2(capsys):
    """Without a file to check them against, skipped graphs would go
    unsurveyed and unreported."""
    code, out, err = run_cli(["survey", "--gen", "5", "--k", "1", "--jobs", "1", "--resume-lines", "10"],
                             capsys=capsys)
    assert (code, out, err) == (2, "", "survey --resume-lines needs --jsonl, the file it resumes\n")
    assert run_cli(["survey", "--gen", "5", "--k", "1", "--jobs", "1", "--resume-lines", "0"],
                   capsys=capsys)[0] == 0


@pytest.mark.parametrize("skip, builds, message", [
    ("-3", 0, "survey --resume-lines must be at least 0, not -3\n"),
    ("35", 1, "error: skip=35 outside 0..34\n"),
], ids=["-3", "35"])
def test_survey_resume_lines_out_of_range_exits_2(tmp_path: Path, capsys, monkeypatch, skip, builds, message):
    """A negative count is a usage error, reported before any catalog is
    built; a count past the catalog's end is found by the survey."""
    built: list[int] = []

    def counted(n, **kwargs):
        built.append(n)
        return enumerate_catalog(n, **kwargs)

    monkeypatch.setattr(cli, "enumerate_catalog", counted)
    path = tmp_path / "records.jsonl"
    code, out, err = run_cli(["survey", "--gen", "5", "--k", "1", "--json", "--jobs", "1",
                              "--jsonl", str(path), "--resume-lines", skip], capsys=capsys)
    assert (code, out, err, len(built)) == (2, "", message, builds)
    assert not path.exists()


@pytest.mark.parametrize("source", [["--gen", "9"], ["--file", "absent.g6", "--n", "9"]], ids=["gen", "file"])
def test_survey_checks_k_before_any_catalog(capsys, monkeypatch, source):
    """A wrong k exits before generation or ingest: the catalog builder is
    never called, so the absent file is never opened."""
    monkeypatch.setattr(cli, "enumerate_catalog", lambda *a, **kw: pytest.fail("catalog built"))
    assert run_cli(["survey", *source, "--k", "4", "--jobs", "1"], capsys=capsys) == (
        2, "", "error: k=4 and order 9 have different parity\n")


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


@pytest.mark.parametrize("argv", [["gen", "4", "--out", "o.g6"],
                                  ["survey", "--gen", "5", "--k", "1", "--jobs", "1", "--jsonl", "r.jsonl"]],
                         ids=["gen", "survey"])
def test_unwritable_output_path_exits_2(tmp_path: Path, capsys, argv):
    missing = tmp_path / "missing"
    argv = argv[:-1] + [str(missing / argv[-1])]
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err
    assert not missing.exists()


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


@pytest.mark.parametrize(
    "bounds, shown",
    [(["--n-from", "7", "--n-to", "5"], "orders 7..5"),
     (["--n-from", "1", "--n-to", "2"], "orders 1..2"),
     (["--n-from", "4", "--n-to", "4", "--offset", "3"], "orders 4..4")],
    ids=["reversed", "orders-1-2", "odd-offset"],
)
def test_hunt_with_nothing_to_survey_exits_2(capsys, bounds, shown):
    code, out, err = run_cli(["hunt", *bounds, "--jobs", "1"], capsys=capsys)
    assert code == 2 and out == ""
    assert shown in err and "rule" in err


def test_hunt_above_the_generation_order_exits_2(capsys):
    code, out, err = run_cli(["hunt", "--n-from", "8", "--n-to", "10", "--offset", "6",
                              "--jobs", "1"], capsys=capsys)
    assert code == 2 and out == "" and "stops at order 9" in err


def test_hunt_catalog_outside_the_orders_or_given_twice_exits_2(capsys):
    code, out, err = run_cli(["hunt", "--n-from", "4", "--n-to", "5", "--catalog", "9=a.g6",
                              "--jobs", "1"], capsys=capsys)
    assert code == 2 and out == "" and "orders [9]" in err
    code, out, err = run_cli(["hunt", "--n-from", "4", "--n-to", "5", "--offset", "4",
                              "--catalog", "4=/nonexistent.g6", "--jobs", "1"], capsys=capsys)
    assert code == 2 and out == "" and "orders [4]" in err
    code, out, err = run_cli(["hunt", "--n-from", "4", "--n-to", "5", "--catalog", "5=a.g6",
                              "--catalog", "5=b.g6", "--jobs", "1"], capsys=capsys)
    assert code == 2 and out == "" and "order 5 twice" in err


def test_stdin_input(capsys):
    code, out, _ = run_cli(["pm"], stdin="A_\nBw\n", capsys=capsys)
    assert code == 1
    assert "stdin 1" in out and "stdin 2" in out


STDIN_LINES = "EhEG\ngarbage!!\n\nGhCKN{\nE~~w\n"


@pytest.mark.parametrize("command", [["pm"], ["kfc", "--k", "2"], ["verify", "--k", "2"]],
                         ids=["pm", "kfc", "verify"])
@pytest.mark.parametrize("lenient", [[], ["--lenient"]], ids=["strict", "lenient"])
def test_stdin_and_file_read_lines_alike(tmp_path: Path, capsys, command, lenient):
    path = tmp_path / "mixed.g6"
    path.write_text(STDIN_LINES, encoding="ascii")
    for json_flag in ([], ["--json"]):
        argv = command + lenient + json_flag
        via_file = run_cli(argv + ["--file", str(path)], capsys=capsys)
        via_stdin = run_cli(argv, stdin=STDIN_LINES, capsys=capsys)
        code, out, err = via_file
        assert via_stdin == (code, out.replace("line ", "stdin "), err.replace(str(path), "stdin"))
    if lenient:
        assert err == f"{path}:2: skipped: byte out of graph6 range in 'garbage!!'\n"
    else:
        assert code == 2
        assert via_stdin[2] == "error: stdin:2: byte out of graph6 range in 'garbage!!'\n"


def test_stdin_graph6_header_lines(capsys):
    """Headed lines are read on stdin; a bare header is an empty graph6 string."""
    lines = ">>graph6<<A_\n\n  A_  \n>>graph6<<\n"
    assert run_cli(["pm", "--json"], stdin=lines, capsys=capsys) == (2, "", "error: stdin:4: empty graph6 string\n")
    code, out, _ = run_cli(["pm", "--json", "--lenient"], stdin=lines, capsys=capsys)
    assert code == 0 and [r["graph6"] for r in json.loads(out)["results"]] == ["A_", "A_"]


def test_lenient_file_parsing(tmp_path: Path, capsys):
    path = tmp_path / "bad.g6"
    path.write_text("A_\ngarbage!!\n", encoding="ascii")
    code, _, err = run_cli(["pm", "--file", str(path)], capsys=capsys)
    assert code == 2 and "error" in err
    code, out, err = run_cli(["pm", "--file", str(path), "--lenient"], capsys=capsys)
    assert code == 0 and "skipped" in err


def test_lenient_survey_notes_each_skipped_line(tmp_path: Path, capsys):
    path = tmp_path / "mixed.g6"
    path.write_text("C~\nbad!!\nA_\nC^\n", encoding="ascii")
    code, out, err = run_cli(["survey", "--n", "4", "--k", "2", "--file", str(path), "--lenient"],
                             capsys=capsys)
    assert code == 0 and out.startswith("order 4, k=2: 2 graphs,")
    assert err == (f"{path}:2: skipped: byte out of graph6 range in 'bad!!'\n"
                   f"{path}:3: skipped: order 2, expected 4\n")


def test_survey_violation_exits_3(monkeypatch, capsys):
    from factorcrit import search
    from factorcrit.verifiers import TheoremVerdict

    failed = [TheoremVerdict("C1.2", True, False, {"planted": True})]
    monkeypatch.setattr(search, "minimal_verdicts", lambda g, k, verified=False: failed)
    assert run_cli(["survey", "--gen", "6", "--k", "2"], capsys=capsys) == (
        3, "", "violation: C1.2 failed on EK~o\n")


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


def test_jobs_default_is_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    for command in (["survey", "--gen", "6", "--k", "2"], ["hunt", "--n-from", "4", "--n-to", "6"]):
        assert build_parser().parse_args(command).jobs == 1


# (argv, stdin, exit code, sha256 of stdout) for the per-graph commands,
# recorded before the commands shared one loop.  Exit 2 prints nothing on
# stdout: a failing graph aborts the run before any result is emitted.
CLI_GOLDEN = [
    ("pm A_", None, 0,
     "27c319c0fd74618c443bc0aa0a454064e85eea49189dd461383f7ffe8524e46d"),
    ("pm --json A_", None, 0,
     "63fac1b654ca2353fa67c1229e4ada58810976549a7ef3656fa7628c4b2ff54b"),
    ("pm Bw", None, 1,
     "849106bb52fd10a01afcee04d4c6fbf0bdcd4a5bfd114a6256f74aeb581ab9fc"),
    ("pm --json Bw", None, 1,
     "81d378b72c1c47c3d7883f3d24d6bce6303dcf1d5a201a66f868b1c936892d0e"),
    ("pm garbage!!", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("pm", "A_\nBw\n\nEhEG\n", 1,
     "873145536278f618535a426c7bf1a5b3e2c1ffaf4457072fe5b25538fdb26ee0"),
    ("pm --json", "A_\nBw\n\nEhEG\n", 1,
     "71968951bc5da82d52f61e4a2f7945e128456c9c1735753903612ef57705d5f1"),
    ("kfc --k 2 GhCKN{", None, 0,
     "77a94afcef1303677addad589bcc4630c5f542689874327e8846e51f8b5d897b"),
    ("kfc --k 2 --json GhCKN{", None, 0,
     "95ae9c3b71bd768aaf9c93a073f86d94c7509c7630cd899e3762acf27e7155c5"),
    ("kfc --k 2 EhEG", None, 1,
     "b2abc6aeca94fc6bf1aedc573902ba2bb74a6652f11a97dd33a01f6ae1f0fd68"),
    ("kfc --k 2 --json EhEG", None, 1,
     "094975bf0f3370fc76ae002f06467ad12614efbd9b07deaf1fa9867a37d006e8"),
    ("kfc --k 1 EhEG", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("kfc --k 2 --method tutte GhCKN{", None, 0,
     "77a94afcef1303677addad589bcc4630c5f542689874327e8846e51f8b5d897b"),
    ("kfc --k 2 --method tutte --json GhCKN{", None, 0,
     "1846efa7d0b0de2b78268651cc923cce268ff8228dbb1364587975003c25c447"),
    ("kfc --k 2 --method tutte EhEG", None, 1,
     "b2abc6aeca94fc6bf1aedc573902ba2bb74a6652f11a97dd33a01f6ae1f0fd68"),
    ("kfc --k 2 --method tutte --json EhEG", None, 1,
     "4b89154142a691802d13555e09a028ef7368314ce674e76fd71c965ff0720181"),
    ("kfc --k 1 --method tutte EhEG", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("kfc --k 2 --json", "GhCKN{\nEhEG\n", 1,
     "5a0da9fcb7c7b04de6653983af2beecf3bf034dfe9f4038124bfd23854e49063"),
    ("minimal --k 4 E~~w", None, 0,
     "d2fcc39f35cac0164add4a5f08872ed1be5955d3122ebf9290afc5047193f5aa"),
    ("minimal --k 4 --json E~~w", None, 0,
     "d01d3d025a6bb92884231e6bc170b2ee0aef9a5c8aa8770e6cdb5e34790806db"),
    ("minimal --k 2 EhEG", None, 1,
     "b0327c69e2bcca2d43549dcb8da04d05d0c64649175149b74944212c5905802b"),
    ("minimal --k 2 --json EhEG", None, 1,
     "08cfaa718e81340d3a4c4dd694ec543a836ef52edd81ba9e66bb563fdfc22f5d"),
    ("minimal --k 3 E~~w", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("witness --k 4 --edge 0,1 E~~w", None, 0,
     "e67f48e9c060edcd8904cdaa47d7664c74d86e2fe85abb1ac13de61fe60d8de8"),
    ("witness --k 4 --edge 0,1 --json E~~w", None, 0,
     "2d1d9eef9048955f1d30a860b3114e6a329339ef095f91a5f0136ec116d754dd"),
    ("witness --k 2 --edge 0,1 --all EhEG", None, 0,
     "4f7bfe51d443d90aaf37cc92099c99603fa7fa70f7dd620587acb72579403589"),
    ("witness --k 2 --edge 0,1 --all --json EhEG", None, 0,
     "a41cf300e72c1b7e4d76113a9fa7fa6b9e234af480f2fc958afcc430e23ac722"),
    ("witness --k 2 --edge 0,1 E~~w", None, 1,
     "639258eeb1648fd9b5b9f4ceded7d50ae673e2a54c7ec0d62cab66efa4a002fe"),
    ("witness --k 2 --edge 0,1 --json E~~w", None, 1,
     "02f5b8bde83671a006d1020537ea40696cd1b4aa4a8eb3d6505e547a8ce2c0a3"),
    ("witness --k 2 --edge 0,1 --all E~~w", None, 1,
     "4428a541a7519df8474e177bd9443f3e52c1da94f3e501e9d75ed5f77b7df6b7"),
    ("witness --k 2 --edge 0,3 EhEG", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("classify --family A --edge 0,3 EwCW", None, 0,
     "a1607782c96760fba9fde4ad7ad664105b17677aeab9e1c99fe4b1c1a19f7d96"),
    ("classify --family A --edge 0,3 --json EwCW", None, 0,
     "1495674541e9eddf5cc4c88dd52dfa1d6b8b38e9dedb28be1f30786a79710c2e"),
    ("classify --family C --edge 0,3 --json EwCW", None, 0,
     "23eb771c4436a9b2a6c04b314b031f5dd76e41b59a44819519e15edc6a844e52"),
    ("classify --family B --edge 0,1 G??ZLo", None, 0,
     "efcca65f9fa764d33e53e36dc8f1ab48be301290d51b33490f6abef2845258eb"),  # ambiguous B6
    ("classify --family B --edge 0,1 --json G??ZLo", None, 0,
     "b0735bb2ffe4e515b8177e2fb204b703c1f8ff817b5bb87ed389b15316267536"),
    ("classify --family B --edge 0,3 EwCW", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify --k 2 GhCKN{", None, 0,
     "7f9ef83ff2e1b55c8f798df65f87e87cfdf2a34baa18024ffe738090ee5db1ed"),
    ("verify --k 2 --json GhCKN{", None, 0,
     "dbd2eb91ade1880714f48ce4119e3c0679af2ae6fb54d4591d24a45824aec166"),
    ("verify --k 2 EhEG", None, 0,
     "318aea58e7d10f6f672a7a758d855b6cc7a06d8187734b28c11aff08bbf71b43"),
    ("verify --k 2 --json EhEG", None, 0,
     "82d77b600e02b5a81a4c4b630cc1877a682edd77b2d3d63d35ee33714026e98c"),
    ("verify GhCKN{", None, 0,
     "1485e0b6fa471c9ddcba4b87f593b57cf202c784707cf25f284893c958578ba8"),
    ("verify A_", None, 0,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify --k 1 EhEG", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("verify --k 2 --json", "GhCKN{\nEhEG\n", 0,
     "5d4dbda467f7c77bb9c709ceb363ab77f93b4a14bcfcf4ac88944bea76ba9c12"),
    ("predicates --k 2 --edge 0,1 GhCKN{", None, 0,
     "1a9a2bb7fe8a55709622bdcf8861a6cec564f2fa904c9bb16caefdfb0c1ae9c6"),
    ("predicates --k 2 EhEG", None, 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
]


@pytest.mark.parametrize("argv, stdin, code, digest", CLI_GOLDEN, ids=[c[0] for c in CLI_GOLDEN])
def test_per_graph_commands_golden(capsys, argv, stdin, code, digest):
    got_code, out, _ = run_cli(argv.split(), stdin=stdin, capsys=capsys)
    assert (got_code, hashlib.sha256(out.encode()).hexdigest()) == (code, digest)


# A planted failing L3.1 verdict reaches verify's exit code 3.
VERIFY_VIOLATION_GOLDEN = {
    "verify --k 2 GhCKN{": "7de9407b2dcba9ae30cb4246c326b92d69fb172530544a0ab4c5f3d0ad9a9343",
    "verify --k 2 --json GhCKN{": "5a23c8a7e74739c1f7e00c1cb630896a752ec8d2456bc67af2fd76926f343270",
}


def test_verify_failed_verdict_exits_3_golden(monkeypatch, capsys):
    from factorcrit import cli
    from factorcrit.verifiers import TheoremVerdict

    monkeypatch.setattr(cli, "check_n4_characterization",
                        lambda g: TheoremVerdict("L3.1", True, False, {"planted": True}))
    for argv, digest in VERIFY_VIOLATION_GOLDEN.items():
        code, out, _ = run_cli(argv.split(), capsys=capsys)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (3, digest), argv


def test_verify_notes_when_no_checker_applies(capsys):
    note = "note: A_: no statement checker applies (order 2 is below 6, no --k)\n"
    assert run_cli(["verify", "A_"], capsys=capsys) == (0, "", note)
    code, out, err = run_cli(["verify", "--json", "A_"], capsys=capsys)
    assert (code, json.loads(out)["results"], err) == (0, [], note)
    p3 = encode_graph6(path_graph(3))
    code, out, err = run_cli(["verify", "--k", "1", p3], capsys=capsys)
    assert code == 0 and "not minimally 1-factor-critical" in out
    assert err == (f"note: {p3}: no statement checker applies "
                   "(order 3 is below 6, not minimally 1-factor-critical)\n")
    c5 = encode_graph6(cycle_graph(5))
    for argv in (["verify", "GhCKN{"], ["verify", "--k", "1", c5]):
        code, out, err = run_cli(argv, capsys=capsys)
        assert code == 0 and out and err == ""


def _src_env() -> dict[str, str]:
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_cli_start_imports_no_process_pool():
    """Only a survey pool needs ``multiprocessing``; a CLI process imports
    it when one starts, not at start-up."""
    check = "import sys, factorcrit.cli; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, env=_src_env(), timeout=60)
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="the platform has no SIGPIPE")
def test_closed_stdout_ends_quietly_by_sigpipe():
    """``gen 8`` writes about 86 KB, more than a pipe holds, so a write
    fails once the reader has closed its end; the process then ends by
    SIGPIPE, with nothing on stderr."""
    proc = subprocess.Popen([sys.executable, "-m", "factorcrit.cli", "gen", "8"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env())
    assert proc.stdout.readline()
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == -signal.SIGPIPE
    assert stderr == b""


# Prints the outcome of the expression in argv[1], evaluated against K_40,
# and the seconds it took.
_TIMED_K40_CALL = """
import sys, time
import factorcrit as fc
from factorcrit.cli import main
g = fc.complete_graph(40)
g6 = fc.encode_graph6(g)
start = time.perf_counter()
try:
    outcome = repr(eval(sys.argv[1]))
except fc.LimitExceeded:
    outcome = "LimitExceeded"
print(outcome, time.perf_counter() - start)
"""


@pytest.mark.parametrize("call, outcome", [
    ("fc.is_k_factor_critical(g, 20)", "LimitExceeded"),
    ("fc.kfc_via_tutte(g, 20)", "LimitExceeded"),
    ("fc.is_minimally_kfc(g, 20)", "LimitExceeded"),
    ("fc.minimal_verdicts(g, 20)", "LimitExceeded"),
    ("fc.minimality_witness(g, 20, (0, 1))", "LimitExceeded"),
    ("fc.certify_minimal_edges(g, 20)", "LimitExceeded"),
    ("fc.max_deficiency(g)", "LimitExceeded"),
    ("fc.maximum_matching_bruteforce(g)", "LimitExceeded"),
    ("main(['kfc', '--k', '20', g6])", "2"),
    ("main(['kfc', '--k', '20', '--method', 'tutte', g6])", "2"),
    ("main(['minimal', '--k', '20', g6])", "2"),
    ("main(['verify', '--k', '20', g6])", "2"),
    ("main(['witness', '--k', '20', '--edge', '0,1', g6])", "2"),
    ("main(['predicates', '--k', '20', g6])", "2"),
])
def test_sweeps_over_the_subset_budget_are_refused_at_once(call, outcome):
    """On K_40 at k = 20 each of these would sweep C(40, 20), about 1.4e11,
    k-sets (``max_deficiency`` 2^40 sets, ``maximum_matching_bruteforce``
    a memo of up to 2^40 subsets).  Each runs in a subprocess, so
    that a sweep which starts fails the test at the timeout instead of
    hanging the suite."""
    proc = subprocess.run([sys.executable, "-c", _TIMED_K40_CALL, call], capture_output=True,
                          text=True, env=_src_env(), timeout=30)
    result, seconds = proc.stdout.split()
    assert result == outcome and float(seconds) < 1, proc.stderr


@pytest.mark.parametrize("sides", [(8, 10), (6, 12)])
def test_pm_reports_the_smaller_side_of_an_unbalanced_complete_bipartite_graph(sides):
    """In a fresh process, as a user runs it: ``pm`` answers no, exits 1 and
    reports the smaller side as the smallest violator."""
    proc = subprocess.run([sys.executable, "-m", "factorcrit.cli", "pm", "--json",
                           encode_graph6(complete_bipartite(*sides))],
                          capture_output=True, text=True, env=_src_env(), timeout=30)
    assert proc.returncode == 1, proc.stderr
    result = json.loads(proc.stdout)["results"][0]
    assert result["perfect_matching"] is False
    assert result["violator"]["x"] == list(range(sides[0]))


@pytest.mark.parametrize("argv", [["kfc", "--k", "0"], ["minimal", "--k", "2"]])
def test_matcher_answers_on_a_large_bipartite_graph_exit_at_once(argv):
    """K_{30,32} has no perfect matching, so both commands answer no and
    exit 1.  Each runs in a subprocess, so that a matcher that hangs on it
    fails the test at the timeout instead of hanging the suite."""
    g6 = encode_graph6(complete_bipartite(30, 32))
    started = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "factorcrit.cli", *argv, g6], capture_output=True,
                          text=True, env=_src_env(), timeout=30)
    assert time.monotonic() - started <= 5.0
    assert proc.returncode == 1, proc.stderr
    assert "critical: no" in proc.stdout
