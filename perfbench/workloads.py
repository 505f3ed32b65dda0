"""The benchmark workloads, their correctness gates and their metrics.

Each workload is a closed loop with a single client.  ``setup`` builds the
seeded inputs and loads catalogs; ``cycle`` runs the workload's fixed unit
of work once, timing each call into the program and gating its output.
With ``full=False`` a cycle leaves out what the tracer cannot follow: the
``jobs=2`` survey passes and the CLI subprocesses.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

from . import inputs
from .calibration import Calibration
from .tracing import LAYERS, Tracer

GEN_LEVELS = (2, 3, 4, 5, 6, 7)
GEN_LEVEL_REPEATS = 2
SEGMENT = 100  # graphs between kernel bursts inside a generation stream
SURVEY8_KS = (2, 4, 6)
SURVEY8_SLICE = 1000  # graphs per timed survey call at jobs=1
CATALOG10_KS = (2, 4)
POOL_JOBS = 2
SUBPROCESS_TIMEOUT_S = 120
PROBE_REPEATS = 5
IN_PROCESS_REPEATS = 1

_MISSING = object()


@dataclass
class Context:
    root: Path
    work: Path
    seed: int
    fc: object  # the factorcrit package under test
    expected: dict
    env: dict  # environment for program subprocesses
    cpus: set  # every CPU the run may use; a measured run holds itself to one


@contextlib.contextmanager
def all_cpus(ctx: Context):
    """Let this process, and the processes it starts, use every CPU of the
    run for a while."""
    held = os.sched_getaffinity(0)
    os.sched_setaffinity(0, ctx.cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, held)


class Ops:
    """Operations attempted and failed.  An operation fails when it raises,
    when its gate finds a wrong output, or when the gate itself raises.
    With a calibration, each operation is timed between two kernel bursts
    and its time is given at nominal host speed."""

    def __init__(self, calibration: Calibration | None = None) -> None:
        self.calibration = calibration
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run(self, label: str, call: Callable, check: Callable | None = None, processes: int = 1):
        """Time ``call()``, then gate its result; (result, seconds) or
        (None, None) when the call raised.  ``processes`` is how many CPUs
        the call keeps busy."""
        try:
            if self.calibration is None:
                start = perf_counter()
                result = call()
                elapsed = perf_counter() - start
            else:
                result, elapsed = self.calibration.timed(call, processes)
        except Exception:
            self.attempted += 1
            self.failed += 1
            self.problems.append(f"{label}: {traceback.format_exc()}")
            return None, None
        self.gate(label, lambda: check(result) if check is not None else [])
        return result, elapsed

    def gate(self, label: str, check: Callable) -> None:
        """Count one operation whose outcome is the list of issues ``check()``
        returns."""
        self.attempted += 1
        try:
            issues = check()
        except Exception:
            issues = ["gate raised: " + traceback.format_exc()]
        if issues:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(issues))


@dataclass
class Tally:
    """Timed operations of a workload, grouped by kind.

    ``main`` and ``aux`` map each kind of operation to its item count and the
    seconds of each repetition; ``latency`` maps the kinds that the latency
    percentiles cover to the seconds of each repetition.
    """

    main: dict = field(default_factory=dict)
    aux: dict = field(default_factory=dict)
    latency: dict = field(default_factory=dict)
    info: dict = field(default_factory=dict)

    def record(self, group: str, kind, items: int, seconds: float | None, latency: bool) -> None:
        if seconds is not None:
            getattr(self, group).setdefault(kind, [items, []])[1].append(seconds)
            if latency:
                self.latency.setdefault(kind, []).append(seconds)

    def add(self, key: str, amount: float) -> None:
        self.info[key] = self.info.get(key, 0) + amount


def typical_rate(group: dict) -> float:
    """Items per second of one pass over every kind, each at its median time.

    A median per kind does not depend on how many repetitions of each kind
    fit into the run.
    """
    seconds = sum(statistics.median(times) for _, times in group.values())
    return sum(items for items, _ in group.values()) / seconds if seconds > 0 else 0.0


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def lines_digest(lines) -> str:
    return sha256_text("".join(line + "\n" for line in lines))


def top_level_mismatches(expected: dict, actual: dict) -> list[str]:
    """Keys of ``expected`` whose value differs in ``actual``; keys that only
    ``actual`` has are allowed, so an optional block added later passes."""
    if not isinstance(actual, dict):
        return [f"expected an object, got {type(actual).__name__}"]
    return [
        f"{key}: expected {value!r}, got {actual.get(key, _MISSING)!r}"[:300]
        for key, value in expected.items()
        if actual.get(key, _MISSING) != value
    ]


def fold_records(records: list[dict]) -> dict:
    """The survey report fields implied by a sequence of JSONL records."""
    out = {
        "total": 0, "kfc": 0, "minimal": 0,
        "min_degree_distribution": {}, "degree_profiles": {}, "verdicts": {},
        "config_labels": {}, "ambiguous": 0,
        "predicates": {"passed": 0, "failed": 0, "vacuous_edges": 0, "skipped_edges": 0},
        "counterexamples": [], "errors": [],
    }

    def bump(table: dict, key, amount: int = 1) -> None:
        table[key] = table.get(key, 0) + amount

    for rec in records:
        out["total"] += 1
        if "error" in rec:
            out["errors"].append([rec["graph6"], rec["error"]])
            continue
        out["kfc"] += rec["kfc"]
        if not rec["minimal"]:
            continue
        out["minimal"] += 1
        bump(out["min_degree_distribution"], str(rec["min_degree"]))
        bump(out["degree_profiles"], rec["degree_profile"])
        for verdict in rec["verdicts"]:
            tally = out["verdicts"].setdefault(verdict["theorem"], {"applicable": 0, "passed": 0, "failed": 0})
            if verdict["applicable"]:
                tally["applicable"] += 1
                if verdict["pass"]:
                    tally["passed"] += 1
                elif verdict["pass"] is False:
                    tally["failed"] += 1
        config = rec.get("config")
        if config is not None:
            for label, count in config["labels"].items():
                bump(out["config_labels"], label, count)
            out["ambiguous"] += config["ambiguous"]
            preds = out["predicates"]
            preds["passed"] += config["pred_passed"]
            preds["failed"] += config["pred_failed"]
            preds["vacuous_edges"] += config["vacuous_edges"]
            preds["skipped_edges"] += config["skipped_edges"]
        out["counterexamples"].extend([rec["graph6"], t] for t in rec.get("failures", ()))
    return out


def report_json(report, path: Path) -> tuple[dict, list[str]]:
    """A survey report's JSON without its source, which is a path."""
    payload = dict(report.to_json())
    source = payload.pop("source", None)
    return payload, [] if source == str(path) else [f"source {source!r}, expected {str(path)!r}"]


# -- gen8 -----------------------------------------------------------------


@dataclass
class Stream:
    lines: list[str]
    gaps: list[float]  # seconds before each graph arrived
    seconds: float  # the whole stream, through the generator's end


def stream(fc, n: int, calibration: Calibration | None) -> Stream:
    """``generate_nonisomorphic(n)`` with each graph encoded by
    ``encode_graph6`` as it arrives, which is ``enumerate_catalog(n)`` and
    ``factorcrit gen n`` unwrapped.  With a calibration, a kernel burst
    follows every ``SEGMENT`` graphs and the segment's times are given at
    nominal host speed; the bursts themselves are not timed."""
    lines, gaps = [], []
    total = 0.0
    opened = 0  # index of the segment's first gap
    before = calibration.burst() if calibration is not None else None

    def close() -> None:
        nonlocal before, opened, total
        if calibration is not None:
            after = calibration.burst()
            factor = calibration.nominal(1.0, before, after)
            gaps[opened:] = [gap * factor for gap in gaps[opened:]]
            before = after
        total += sum(gaps[opened:])
        opened = len(gaps)

    last = perf_counter()
    for g in fc.generate_nonisomorphic(n):
        lines.append(fc.encode_graph6(g))
        now = perf_counter()
        gaps.append(now - last)
        if len(gaps) % SEGMENT == 0:
            close()
            now = perf_counter()
        last = now
    gaps.append(perf_counter() - last)  # after the last graph, until the generator ends
    close()
    return Stream(lines, gaps[:-1], total)


class Gen8:
    """Orderly generation: streams of levels 2..7, then the order-8 stream."""

    name = "gen8"
    meaning = {
        "items_per_s": "order-8 graphs generated per second",
        "aux_items_per_s": "graphs per second over the levels 2..7",
        "op_p50_ms": "median over the order-8 graphs of the gap before each",
        "op_p90_ms": "90th percentile over the order-8 graphs of the gap before each",
    }

    def setup(self, ctx: Context):
        return None

    def cycle(self, ctx: Context, state, ops: Ops, tally: Tally, full: bool = True) -> None:
        fc = ctx.fc
        expected = ctx.expected["gen"]
        for m in GEN_LEVELS * GEN_LEVEL_REPEATS + (8,):
            result, _ = ops.run(
                f"generate_nonisomorphic({m})",
                lambda m=m: stream(fc, m, ops.calibration),
                lambda r, m=m: _check_lines(r.lines, expected[str(m)]),
            )
            tally.info.setdefault("gen_orders", []).append(m)
            if result is None:
                continue
            tally.record("main" if m == 8 else "aux", m, expected[str(m)]["lines"], result.seconds, latency=False)
            if m == 8:
                for index, gap in enumerate(result.gaps):
                    tally.latency.setdefault(index, []).append(gap)


def _check_lines(lines, expected: dict) -> list[str]:
    issues = []
    if len(lines) != expected["lines"]:
        issues.append(f"{len(lines)} graphs, expected {expected['lines']}")
    if lines_digest(lines) != expected["sha256"]:
        issues.append("graph6 lines differ from the recorded sha256")
    return issues


def gen_candidates(orders: list[int], counts: dict) -> tuple[int, int]:
    """Candidate extensions tested and accepted by ``generate_nonisomorphic(n)``
    for each n in ``orders``: level m tests 2^(m-1) extensions of each graph
    of order m-1."""
    size = {1: 1, **{int(m): entry["lines"] for m, entry in counts.items()}}
    tested = accepted = 0
    for n in orders:
        tested += sum(size[m - 1] << (m - 1) for m in range(2, n + 1))
        accepted += sum(size[m] for m in range(2, n + 1))
    return tested, accepted


# -- survey8 --------------------------------------------------------------


@dataclass
class Survey8State:
    path: Path
    catalog: object  # the loaded order-8 catalog
    slices: list  # the same catalog in slices of SURVEY8_SLICE graphs


def parse_jsonl(text: str):
    return (json.loads(line) for line in text.splitlines())


class Survey8:
    """Exhaustive sweep of the order-8 catalog at k = 2, 4, 6 with a JSONL
    sink, at jobs=1 and jobs=2.  At jobs=1 each sweep is split into slices of
    the catalog, one ``survey`` call each, so that a sweep is many short
    timed calls.  The jobs=2 sweeps stay whole: a pool per slice would
    measure mostly the pool's start."""

    name = "survey8"
    meaning = {
        "items_per_s": "graph·k survey records per second at jobs=1",
        "aux_items_per_s": f"graph·k survey records per second at jobs={POOL_JOBS}",
        "op_p50_ms": "median over k of the jobs=1 sweep time",
        "op_p90_ms": "90th percentile over k of the jobs=1 sweep time",
    }

    def setup(self, ctx: Context) -> Survey8State:
        digest = hashlib.sha256(inputs.CATALOG8.read_bytes()).hexdigest()
        if digest != ctx.expected["gen"]["8"]["sha256"]:
            raise RuntimeError("committed order-8 catalog does not match the recorded generation")
        path = ctx.work / "survey8.g6"
        path.write_text("".join(line + "\n" for line in inputs.survey8_catalog(ctx.seed)), encoding="ascii")
        catalog = ctx.fc.enumerate_catalog(8, path=str(path))
        if len(catalog) != ctx.expected["gen"]["8"]["lines"]:
            raise RuntimeError(f"order-8 catalog loaded {len(catalog)} graphs")
        lines = catalog.graph6_lines
        parts = [dataclasses.replace(catalog, graph6_lines=lines[i:i + SURVEY8_SLICE])
                 for i in range(0, len(lines), SURVEY8_SLICE)]
        return Survey8State(path, catalog, parts)

    def cycle(self, ctx: Context, state: Survey8State, ops: Ops, tally: Tally, full: bool = True) -> None:
        fc = ctx.fc
        for k in SURVEY8_KS:
            expected = ctx.expected["survey8"][str(k)]
            texts = []
            for index, part in enumerate(state.slices):
                sink = ctx.work / f"survey8_k{k}_{index}.jsonl"

                def check(report, k=k, part=part, sink=sink):
                    payload, issues = report_json(report, state.path)
                    text = sink.read_text(encoding="utf-8")
                    texts.append(text)
                    issues += top_level_mismatches({"schema": 1, "n": 8, "k": k, **fold_records(parse_jsonl(text))},
                                                   payload)
                    tally.add("jsonl_bytes", len(text.encode("utf-8")))
                    tally.add("jsonl_records", len(part))
                    return issues

                _, seconds = ops.run(
                    f"survey(order 8, k={k}, jobs=1, slice {index})",
                    lambda k=k, part=part, sink=sink: fc.survey(part, k, jobs=1, jsonl_path=str(sink)),
                    check,
                )
                tally.record("main", (k, index), len(part), seconds, latency=False)
                tally.add("survey_records", len(part))
            single = "".join(texts)

            def check_sweep(k=k, expected=expected, single=single):
                issues = []
                if lines_digest(sorted(single.splitlines())) != expected["jsonl_sorted_sha256"]:
                    issues.append("JSONL records differ from the recorded sha256")
                issues += top_level_mismatches(expected["report"], {"schema": 1, "n": 8, "k": k,
                                                                    **fold_records(parse_jsonl(single))})
                return issues

            ops.gate(f"survey(order 8, k={k}, jobs=1), all slices", check_sweep)
            kinds = [tally.main.get((k, index)) for index in range(len(state.slices))]
            if None not in kinds:
                # A sweep's time is the sum of its slices' medians so far,
                # which is steadier than the time of any one sweep.
                tally.latency[k] = [sum(statistics.median(times) for _, times in kinds)]
            if not full:
                continue
            pooled = ctx.work / f"survey8_k{k}_jobs{POOL_JOBS}.jsonl"

            def check_pooled(report, k=k, pooled=pooled, single=single):
                payload, issues = report_json(report, state.path)
                issues += top_level_mismatches(expected["report"], payload)
                if pooled.read_text(encoding="utf-8") != single:
                    issues.append(f"jobs={POOL_JOBS} JSONL differs from jobs=1")
                return issues

            with all_cpus(ctx):
                _, seconds = ops.run(
                    f"survey(order 8, k={k}, jobs={POOL_JOBS})",
                    lambda k=k, pooled=pooled: fc.survey(state.catalog, k, jobs=POOL_JOBS, jsonl_path=str(pooled)),
                    check_pooled,
                    processes=POOL_JOBS,
                )
            tally.record("aux", k, len(state.catalog), seconds, latency=False)


# -- catalog10 ------------------------------------------------------------


@dataclass
class Catalog10State:
    path: Path
    input: inputs.Catalog10Input
    kept: tuple[str, ...]
    jsonl: dict[int, str]
    reports: dict[int, dict]


class Catalog10:
    """Canonical-dedup ingest of a seeded order-10 bounded-complement file,
    then sweeps of the deduplicated catalog at k = 2 and 4, jobs=1."""

    name = "catalog10"
    meaning = {
        "items_per_s": "graph·k survey records per second at jobs=1",
        "aux_items_per_s": "input lines ingested per second under canonical dedup",
        "op_p50_ms": "median over the calls (ingest, sweep k=2, sweep k=4)",
        "op_p90_ms": "90th percentile over the calls (ingest, sweep k=2, sweep k=4)",
    }

    def setup(self, ctx: Context) -> Catalog10State:
        pool = inputs.load_pool10()
        data = inputs.catalog10_input(ctx.seed, pool)
        path = ctx.work / "catalog10.g6"
        path.write_text("".join(line + "\n" for line in data.lines), encoding="ascii")
        jsonl, reports = {}, {}
        for k in CATALOG10_KS:
            lines = [pool[i]["records"][str(k)] for i in data.originals]
            jsonl[k] = "".join(line + "\n" for line in lines)
            reports[k] = {"schema": 1, "n": 10, "k": k, **fold_records([json.loads(line) for line in lines])}
        kept = tuple(pool[i]["graph6"] for i in data.originals)
        return Catalog10State(path, data, kept, jsonl, reports)

    def cycle(self, ctx: Context, state: Catalog10State, ops: Ops, tally: Tally, full: bool = True) -> None:
        fc = ctx.fc

        def check_ingest(catalog):
            issues = []
            if catalog.graph6_lines != state.kept:
                issues.append(f"deduplicated catalog has {len(catalog)} graphs, "
                              f"expected the {len(state.kept)} originals in file order")
            if catalog.n != 10 or catalog.dedup != "canonical":
                issues.append(f"catalog order {catalog.n}, dedup {catalog.dedup!r}")
            return issues

        catalog, seconds = ops.run(
            "enumerate_catalog(10, dedup=canonical)",
            lambda: fc.enumerate_catalog(10, path=str(state.path), dedup="canonical"),
            check_ingest,
        )
        tally.record("aux", "ingest", len(state.input.lines), seconds, latency=True)
        if catalog is None:
            return
        tally.info["dup_frac"] = 1 - len(catalog) / len(state.input.lines)
        for k in CATALOG10_KS:
            sink = ctx.work / f"catalog10_k{k}.jsonl"

            def check(report, k=k, sink=sink):
                payload, issues = report_json(report, state.path)
                issues += top_level_mismatches(state.reports[k], payload)
                text = sink.read_text(encoding="utf-8")
                if text != state.jsonl[k]:
                    issues.append("JSONL records differ from the recorded ones")
                tally.add("jsonl_bytes", len(text.encode("utf-8")))
                tally.add("jsonl_records", len(catalog))
                return issues

            _, seconds = ops.run(
                f"survey(order 10, k={k}, jobs=1)",
                lambda k=k, sink=sink: fc.survey(catalog, k, jobs=1, jsonl_path=str(sink)),
                check,
            )
            tally.record("main", k, len(catalog), seconds, latency=True)
            tally.add("survey_records", len(catalog))


# -- query ----------------------------------------------------------------


class Query:
    """The README's CLI examples plus three heavier inputs, each run as a
    fresh ``python -m factorcrit.cli`` process, then in-process through
    ``factorcrit.cli.main``."""

    name = "query"
    meaning = {
        "items_per_s": "CLI invocations completed per second, one client",
        "aux_items_per_s": "in-process cli.main calls completed per second",
        "op_p50_ms": "median over the 12 queries of the CLI invocation latency",
        "op_p90_ms": "90th percentile over the 12 queries of the CLI invocation latency",
    }

    def setup(self, ctx: Context) -> list[inputs.Query]:
        return inputs.query_list(ctx.seed)

    def check(self, ctx: Context, query: inputs.Query, code: int, stdout: str) -> list[str]:
        issues = [] if code == query.exit_code else [f"exit {code}, expected {query.exit_code}"]
        if query.name == inputs.DENSE_QUERY:
            result = json.loads(stdout)["results"][0]
            if not (result["verdict"] is True and result["failing_set"] is None
                    and result["graph6"] == query.argv[3]):
                issues.append(f"order-16 graph with minimum degree {inputs.DENSE_MIN_DEGREE} "
                              f"reported {result!r}"[:300])
            return issues
        expected = ctx.expected["query"][query.name]["stdout"]
        if expected is None:
            if stdout.strip():
                issues.append("unexpected output on stdout")
        else:
            issues += top_level_mismatches(expected, json.loads(stdout))
        return issues

    def cycle(self, ctx: Context, queries, ops: Ops, tally: Tally, full: bool = True) -> None:
        if full:
            for query in queries:
                _, seconds = ops.run(
                    f"factorcrit {query.name}",
                    lambda query=query: run_cli(ctx, query.argv),
                    lambda done, query=query: self.check(ctx, query, done.returncode, done.stdout),
                )
                tally.record("main", query.name, 1, seconds, latency=True)
        for query in queries * IN_PROCESS_REPEATS:
            _, seconds = ops.run(
                f"cli.main {query.name}",
                lambda query=query: main_in_process(ctx, query.argv),
                lambda out, query=query: self.check(ctx, query, *out),
            )
            tally.record("aux", query.name, 1, seconds, latency=False)


def run_cli(ctx: Context, argv) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "factorcrit.cli", *argv],
        cwd=ctx.root, env=ctx.env, capture_output=True, text=True,
        timeout=SUBPROCESS_TIMEOUT_S, check=False,
    )


def main_in_process(ctx: Context, argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ctx.fc.cli.main(list(argv))
    return code, out.getvalue()


def cli_probes(ctx: Context) -> dict:
    """Interpreter start and ``import factorcrit.cli`` in fresh processes."""
    def timed(code: str) -> tuple[float, str]:
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", code], cwd=ctx.root, env=ctx.env,
                              capture_output=True, text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)
        return perf_counter() - start, done.stdout

    interpreter = [timed("pass")[0] for _ in range(PROBE_REPEATS)]
    imports = [
        float(timed("import time; t = time.perf_counter(); import factorcrit.cli; "
                    "print(time.perf_counter() - t)")[1])
        for _ in range(PROBE_REPEATS)
    ]
    return {"interpreter_ms": 1000 * statistics.median(interpreter),
            "import_ms": 1000 * statistics.median(imports)}


WORKLOADS = {w.name: w for w in (Gen8(), Survey8(), Catalog10(), Query())}


# -- metrics --------------------------------------------------------------


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    if pct == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end_metrics(setup_s: list[float], tally: Tally, peak_rss_mb: float) -> dict:
    """End-to-end metrics.  The latency percentiles run over the kinds of
    operation, each at its median, so they do not depend on how many
    repetitions fit.  The rate of the auxiliary operations is printed but
    is not among them: at jobs=2 it spread too widely to gate on."""
    latencies = [1000 * statistics.median(times) for times in tally.latency.values()]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "items_per_s": (typical_rate(tally.main), "1/s"),
        "op_p50_ms": (percentile(latencies, 50) if latencies else 0.0, "ms"),
        "op_p90_ms": (percentile(latencies, 90) if latencies else 0.0, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def layer_metrics(tracer: Tracer, info: dict, counts: dict) -> dict:
    """Per-layer metrics of one traced cycle; a layer the workload never
    calls reports zero."""
    def calls(name: str) -> int:
        return tracer.stat(name).calls

    def per_call(name: str, scale: float) -> float:
        stat = tracer.stat(name)
        return scale * stat.total_s / stat.calls if stat.calls else 0.0

    def frac(num: float, den: float) -> float:
        return num / den if den else 0.0

    c = tracer.counts
    gen_tested, gen_accepted = gen_candidates(info.get("gen_orders", []), counts)
    m = {f"{layer}.self_ms": (1000 * tracer.layer_self_s(layer), "ms") for layer in LAYERS}
    m.update({
        "graph.parse_graph6.calls": (calls("graph.parse_graph6"), "count"),
        "graph.parse_graph6.us_per_call": (per_call("graph.parse_graph6", 1e6), "us"),
        "graph.remove_edge.calls": (calls("graph.remove_edge"), "count"),
        "graph.remove_edge.us_per_call": (per_call("graph.remove_edge", 1e6), "us"),
        "graph.encode_graph6.calls": (calls("graph.encode_graph6"), "count"),
        "graph.encode_graph6.us_per_call": (per_call("graph.encode_graph6", 1e6), "us"),
        "graph.delete_vertices.calls": (calls("graph.delete_vertices"), "count"),
        "matching.PerfectMatcher.instances": (c["matching.PerfectMatcher.instances"], "count"),
        "matching.pm_exists.calls": (c["matching.pm_exists.calls"], "count"),
        "matching.pm_exists.calls_per_instance": (
            frac(c["matching.pm_exists.calls"], c["matching.PerfectMatcher.instances"]), "ratio"),
        "matching.forced_edge.calls": (calls("matching.forced_edge"), "count"),
        "matching.forced_edge.us_per_call": (per_call("matching.forced_edge", 1e6), "us"),
        "matching.tutte_violators.calls": (calls("matching.tutte_violators"), "count"),
        "matching.tutte_violators.ms_per_call": (per_call("matching.tutte_violators", 1e3), "ms"),
        "matching.maximum_matching.calls": (calls("matching.maximum_matching"), "count"),
        "matching.maximum_matching.us_per_call": (per_call("matching.maximum_matching", 1e6), "us"),
        "criticality.kfc_stage_s": (tracer.stage_s["kfc"], "s"),
        "criticality.minimality_stage_s": (tracer.stage_s["minimality"], "s"),
        "criticality.is_k_factor_critical.calls": (calls("criticality.is_k_factor_critical"), "count"),
        "criticality.minimality_witness.calls": (calls("criticality.minimality_witness"), "count"),
        "criticality.minimality_witness.ms_per_call": (per_call("criticality.minimality_witness", 1e3), "ms"),
        "configurations.certify_minimal_edges.ms_per_graph": (
            per_call("configurations.certify_minimal_edges", 1e3), "ms"),
        "configurations.classify_residual.calls": (calls("configurations.classify_residual"), "count"),
        "configurations.config_predicates.calls": (calls("configurations.config_predicates"), "count"),
        "configurations.classified_frac": (frac(c["classified_edges"], c["certified_edges"]), "frac"),
        "verifiers.minimal_verdicts.calls": (calls("verifiers.minimal_verdicts"), "count"),
        "verifiers.minimal_verdicts.us_per_call": (per_call("verifiers.minimal_verdicts", 1e6), "us"),
        "verifiers.applicable_frac": (frac(c["applicable_verdicts"], c["verdicts"]), "frac"),
        "search.gen.candidates": (gen_tested, "count"),
        "search.gen.us_per_candidate": (
            frac(1e6 * tracer.stat("search.generate_nonisomorphic").self_s, gen_tested), "us"),
        "search.gen.accept_frac": (frac(gen_accepted, gen_tested), "frac"),
        "search.canonical_form.calls": (calls("search.canonical_form"), "count"),
        "search.canonical_form.ms_per_call": (per_call("search.canonical_form", 1e3), "ms"),
        "search.ingest.dup_frac": (info.get("dup_frac", 0.0), "frac"),
        "search.survey.record_us": (
            frac(1e6 * tracer.stat("search.survey").self_s, info.get("survey_records", 0)), "us"),
        "search.jsonl.bytes_per_record": (frac(info.get("jsonl_bytes", 0), info.get("jsonl_records", 0)), "B"),
        "search.pool.speedup": (info.get("pool_speedup", 0.0), "ratio"),
        "cli.interpreter_ms": (info.get("interpreter_ms", 0.0), "ms"),
        "cli.import_ms": (info.get("import_ms", 0.0), "ms"),
        "cli.main_ms": (info.get("main_ms", 0.0), "ms"),
        "trace.overhead_frac": (info.get("overhead_frac", 0.0), "frac"),
        "trace.spans": (tracer.span_count(), "count"),
    })
    return m
