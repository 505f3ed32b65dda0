#!/usr/bin/env python3
"""Benchmark harness for factorcrit.

Run one workload from the root of a checkout:

    python3 perfbench/run.py --workload survey8 --seed 1 --seconds 25 --trace 0

or every workload with ``--workload all``.  The program is imported from
``src/`` of the same checkout and its CLI is started with that directory on
PYTHONPATH.  Human-readable lines come first; the last line of stdout is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
end-to-end metrics with ``--trace 0``, per-layer metrics of one traced
cycle with ``--trace 1``.  The exit code is 0 when every correctness gate
passed, 1 when one failed and 2 when the program or the benchmark's data
cannot be found.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 120

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import inputs, workloads  # noqa: E402
from perfbench.calibration import NOMINAL_S, Calibration  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def import_program():
    """The factorcrit package from this checkout's src/, never another copy."""
    package = SRC / "factorcrit"
    if not (package / "__init__.py").is_file():
        raise LookupError(f"no factorcrit package at {package}")
    sys.path.insert(0, str(SRC))
    import factorcrit
    import factorcrit.cli  # noqa: F401  (the query workload and the tracer need it)

    if Path(factorcrit.__file__).resolve().parent != package.resolve():
        raise LookupError(f"imported factorcrit from {factorcrit.__file__}, not {package}")
    return factorcrit


def load_expected() -> dict:
    for path in (inputs.CATALOG8, inputs.POOL10, inputs.EXPECTED):
        if not path.is_file():
            raise LookupError(f"missing benchmark data {path}")
    return json.loads(inputs.EXPECTED.read_text(encoding="utf-8"))


def make_context(seed: int, work: Path, expected: dict) -> workloads.Context:
    fc = import_program()
    env = dict(os.environ, FACTORCRIT_JOBS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    # cli.main reads the worker default from the environment on every call.
    os.environ["FACTORCRIT_JOBS"] = "1"
    return workloads.Context(ROOT, work, seed, fc, expected, env, os.sched_getaffinity(0))


def timed_setups(name: str, seed: int) -> list[float]:
    """Set-up times of fresh processes, at nominal host speed: each imports
    factorcrit and builds the workload's inputs, including any catalog load,
    and times that itself, so interpreter start and exit are left out."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, timeout=SETUP_TIMEOUT_S, check=True, capture_output=True, text=True,
        )
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def setup_only(name: str, seed: int) -> None:
    """Set up one workload between two kernel bursts and print the time."""
    calibration = Calibration()
    work = ROOT / "perfbench" / ".work" / f"setup-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        _, seconds = calibration.timed(
            lambda: workloads.WORKLOADS[name].setup(make_context(seed, work, load_expected())))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"setup_s": seconds}))


def peak_rss_mb() -> float:
    """Largest resident set of this process and of any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024


def run_cycles(workload, ctx, state, ops, tally, seconds: float, full: bool, at_least: int) -> list[float]:
    """Cycles while one more, as long as the median so far, would end within
    ``seconds``, and at least ``at_least`` of them.  Their wall times."""
    walls = []
    start = perf_counter()
    while len(walls) < at_least or perf_counter() - start + statistics.median(walls) <= seconds:
        begin = perf_counter()
        workload.cycle(ctx, state, ops, tally, full=full)
        walls.append(perf_counter() - begin)
    return walls


def measure(workload, ctx, seconds: float) -> tuple[workloads.Ops, dict]:
    # One CPU for the harness, its set-up processes and the CLI processes, so
    # that the kernel bursts run where the measured work runs; the jobs=2
    # passes get every CPU back.
    os.sched_setaffinity(0, {min(ctx.cpus)})
    setup_s = timed_setups(workload.name, ctx.seed)
    calibration = Calibration()
    ops, tally = workloads.Ops(calibration), workloads.Tally()
    state = workload.setup(ctx)
    # Two cycles at least, so that no figure rests on a single order-8 stream.
    walls = run_cycles(workload, ctx, state, ops, tally, seconds, full=True, at_least=2)
    reps = [len(times) for _, times in [*tally.main.values(), *tally.aux.values()]]
    print(f"  {len(walls)} cycles; {len(tally.main)} main and {len(tally.aux)} auxiliary kinds of "
          f"operation, {min(reps, default=0)} to {max(reps, default=0)} repetitions each; "
          f"latency over {len(tally.latency)} kinds; {len(setup_s)} set-ups")
    print(f"  calibration kernel {1000 * statistics.median(calibration.samples):.4f} ms median over "
          f"{len(calibration.samples)} samples; times given at nominal speed ({1000 * NOMINAL_S:g} ms)")
    print(f"  aux_items_per_s = {workloads.typical_rate(tally.aux):.6g} 1/s  "
          f"({workload.meaning['aux_items_per_s']}; printed only, not a gated metric)")
    return ops, workloads.end_to_end_metrics(setup_s, tally, peak_rss_mb())


def measure_traced(workload, ctx, seconds: float) -> tuple[workloads.Ops, dict]:
    """One traced cycle at jobs=1, then untraced cycles of the same work for
    the tracing overhead, then the untraced extras some layers need."""
    ops = workloads.Ops()
    state = workload.setup(ctx)
    tracer = Tracer()
    traced = workloads.Tally()
    start = perf_counter()
    with tracer.installed():
        workload.cycle(ctx, state, ops, traced, full=False)
    traced_s = perf_counter() - start
    # installed() has restored and checked every attribute by now.
    plain = workloads.Tally()
    walls = run_cycles(workload, ctx, state, ops, plain, seconds - traced_s, full=False, at_least=1)
    info = dict(traced.info, overhead_frac=traced_s / statistics.median(walls) - 1)
    if workload.name == "survey8":
        pooled = workloads.Tally()
        workload.cycle(ctx, state, ops, pooled, full=True)
        info["pool_speedup"] = workloads.typical_rate(pooled.aux) / workloads.typical_rate(pooled.main)
    if workload.name == "query":
        info.update(workloads.cli_probes(ctx))
        info["main_ms"] = 1000 * statistics.median(t for _, times in plain.aux.values() for t in times)
    print(f"  traced cycle {traced_s:.3f} s, untraced median {statistics.median(walls):.3f} s "
          f"over {len(walls)} cycles, {tracer.span_count()} spans")
    trace_dir = ROOT / "perfbench" / ".work" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    trace_file = trace_dir / f"{workload.name}-seed{ctx.seed}.json"
    tracer.write(trace_file, {"workload": workload.name, "seed": ctx.seed, "info": info})
    print(f"  spans written to {trace_file.relative_to(ROOT)}")
    return ops, workloads.layer_metrics(tracer, info, ctx.expected["gen"])


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = workloads.WORKLOADS[name]
    work = ROOT / "perfbench" / ".work" / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        ctx = make_context(seed, work, load_expected())
        print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(trace)}")
        if trace:
            ops, metrics = measure_traced(workload, ctx, seconds)
        else:
            ops, metrics = measure(workload, ctx, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in ops.problems:
        print(f"FAILED {problem}", file=sys.stderr)
    meaning = workload.meaning
    for key, (value, unit) in metrics.items():
        note = f"  ({meaning[key]})" if key in meaning else ""
        print(f"  {key} = {value:.6g} {unit}{note}")
    print(f"  failed_frac = {ops.failed / max(ops.attempted, 1):.6g} "
          f"({ops.failed} of {ops.attempted} operations)")
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if ops.failed == 0 else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in workloads.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = max(status, done.returncode)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"workload {name} printed no result (exit {done.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    print(json.dumps(combined))
    return status if combined["correct"] else max(status, 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            load_expected()
            import_program()
            return run_all(args.seed, args.seconds, bool(args.trace))
        if args.setup_only:
            setup_only(args.workload, args.seed)
            return 0
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except LookupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
