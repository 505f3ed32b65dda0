#!/usr/bin/env python3
"""Record the benchmark's expected outputs from the program in this checkout.

    python3 perfbench/record.py

Writes ``perfbench/data/catalog8.g6`` (the generated order-8 catalog),
``perfbench/data/pool10.json.gz`` (order-10 bounded-complement graphs with
their survey records at k = 2 and 4) and ``perfbench/data/expected.json``
(line counts and hashes of each generated level, the order-8 reports and
JSONL hashes, and each fixed CLI query's exit code and JSON output).  The
committed files were recorded at the commit that introduced the benchmark;
re-record only when an output is meant to change.
"""

from __future__ import annotations

import gzip
import json
import random
import sys
import tempfile
from pathlib import Path

from run import ROOT, make_context  # noqa: E402  (run.py puts ROOT on sys.path)

from perfbench import inputs, workloads  # noqa: E402

POOL_SEED = 2207
POOL_SIZE = 600


def record_gen(fc) -> dict:
    gen = {}
    for m in range(2, 9):
        lines = fc.enumerate_catalog(m).graph6_lines
        gen[str(m)] = {"lines": len(lines), "sha256": workloads.lines_digest(lines)}
        print(f"order {m}: {len(lines)} graphs", flush=True)
    inputs.CATALOG8.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    return gen


def record_survey8(fc, tmp: Path) -> dict:
    catalog = fc.enumerate_catalog(8, path=str(inputs.CATALOG8))
    out = {}
    for k in workloads.SURVEY8_KS:
        sink = tmp / f"k{k}.jsonl"
        report = fc.survey(catalog, k, jobs=1, jsonl_path=str(sink))
        payload, _ = workloads.report_json(report, inputs.CATALOG8)
        if payload["counterexamples"] or payload["errors"]:
            raise SystemExit(f"order-8 sweep at k={k} is order-dependent: it lists counterexamples or errors")
        lines = sorted(sink.read_text(encoding="utf-8").splitlines())
        out[str(k)] = {"report": payload, "jsonl_sorted_sha256": workloads.lines_digest(lines)}
        print(f"survey order 8, k={k}: {payload['kfc']} kfc, {payload['minimal']} minimal", flush=True)
    return out


def record_pool10(fc, tmp: Path) -> None:
    rng = random.Random(POOL_SEED)
    seen, lines = set(), []
    while len(lines) < POOL_SIZE:
        max_codegree = rng.choice((4, 6))
        fill = 1.0 if rng.random() < 0.5 else rng.uniform(0.7, 1.0)
        line = inputs.bounded_complement(rng, 10, max_codegree, fill)
        canon = fc.canonical_graph6(fc.parse_graph6(line))
        if canon not in seen:
            seen.add(canon)
            lines.append(line)
    path = tmp / "pool10.g6"
    path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
    catalog = fc.enumerate_catalog(10, path=str(path))
    records = {}
    for k in workloads.CATALOG10_KS:
        sink = tmp / f"pool_k{k}.jsonl"
        report = fc.survey(catalog, k, jobs=1, jsonl_path=str(sink))
        records[k] = sink.read_text(encoding="utf-8").splitlines()
        print(f"pool order 10, k={k}: {report.kfc_count} kfc, {report.minimal_count} minimal, "
              f"labels {dict(sorted(report.config_label_counts.items()))}", flush=True)
    pool = [
        {"graph6": line, "records": {str(k): records[k][i] for k in workloads.CATALOG10_KS}}
        for i, line in enumerate(lines)
    ]
    text = json.dumps(pool, separators=(",", ":"))
    inputs.POOL10.write_bytes(gzip.compress(text.encode("utf-8"), compresslevel=9, mtime=0))


def record_queries(ctx) -> dict:
    out = {}
    for query in inputs.FIXED_QUERIES:
        done = workloads.run_cli(ctx, query.argv + ("--json",))
        if done.returncode != query.exit_code:
            raise SystemExit(f"{query.name}: exit {done.returncode}, documented {query.exit_code}")
        out[query.name] = {"exit": done.returncode,
                           "stdout": json.loads(done.stdout) if done.stdout.strip() else None}
    return out


def main() -> int:
    with tempfile.TemporaryDirectory(dir=ROOT / "perfbench") as name:
        tmp = Path(name)
        ctx = make_context(1, tmp, {})
        fc = ctx.fc
        expected = {"gen": record_gen(fc)}
        expected["survey8"] = record_survey8(fc, tmp)
        record_pool10(fc, tmp)
        expected["query"] = record_queries(ctx)
    inputs.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
