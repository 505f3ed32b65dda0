"""Command-line front end with graph6 input and JSON reporting.

Exit codes: 0 when the queried property holds (or a sweep is clean), 1 when
it fails or a counterexample surfaced, 2 on usage or parse errors, 3 when an
expected-true check was violated.  Text output is human-oriented and not a
stable interface; pass --json for the versioned machine format.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterable

from .errors import EdgeAbsent, FactorCritError, TheoremViolated
from .graph import Graph, bits_list, parse_graph6
from .matching import maximum_matching, tutte_violators
from .criticality import (
    is_k_factor_critical,
    is_minimally_kfc,
    kfc_via_tutte,
    minimality_witness,
    iter_minimality_witnesses,
)
from .configurations import (
    FAMILIES,
    ResidualInstance,
    UNCLASSIFIED,
    certify_minimal_edges,
    classify_residual,
    config_predicates,
)
from .verifiers import check_n4_characterization, minimal_verdicts
from .search import (
    _check_generate_order,
    enumerate_catalog,
    generate_nonisomorphic,
    hunt_counterexamples,
    _read_graph6_file,
    survey,
)
from .graph import encode_graph6

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3

SCHEMA = 1

JOBS_ENV = "FACTORCRIT_JOBS"


def default_jobs() -> int:
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return os.cpu_count() or 1


def _parse_edge(text: str) -> tuple[int, int]:
    try:
        u, v = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("edge must be 'u,v' with integer endpoints")
    return u, v


def _input_graphs(args: argparse.Namespace) -> list[tuple[str, Graph]]:
    """Resolve the single input source into (label, graph) pairs."""
    sources = [args.graph6 is not None, args.file is not None]
    if sum(sources) > 1:
        raise FactorCritError("give a positional graph6 string or --file, not both")
    if args.graph6 is not None:
        return [("arg", parse_graph6(args.graph6))]
    if args.file is not None:
        entries, bad = _read_graph6_file(args.file, args.lenient)
        for lineno, message in bad:
            print(f"{args.file}:{lineno}: skipped: {message}", file=sys.stderr)
        return [(f"line {lineno}", g) for lineno, _text, g in entries]
    out = []
    for lineno, line in enumerate(sys.stdin, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            out.append((f"stdin {lineno}", parse_graph6(text)))
        except FactorCritError as exc:
            if not args.lenient:
                raise
            print(f"stdin:{lineno}: skipped: {exc}", file=sys.stderr)
    return out


def _emit(args: argparse.Namespace, payload: dict, text_lines: Iterable[str], ok: bool = True) -> int:
    """Print the payload or the text lines; the exit code for ``ok``."""
    if args.json:
        payload["schema"] = SCHEMA
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_pm(args: argparse.Namespace) -> int:
    results = []
    lines = []
    all_ok = True
    for label, g in _input_graphs(args):
        matching = maximum_matching(g)
        results.append({"graph6": encode_graph6(g), "perfect_matching": matching.is_perfect,
                        "matching": [list(e) for e in matching.edges]})
        lines.append(f"{label}: perfect matching: {'yes' if matching.is_perfect else 'no'} "
                     f"(maximum matching size {len(matching.edges)})")
        if not matching.is_perfect:
            all_ok = False
            for cert in tutte_violators(g, "first-minimal"):
                results[-1]["violator"] = cert.to_json()
                lines.append(f"  deficiency witness X={bits_list(cert.x_set)} "
                             f"odd components {cert.partition.odd_count}")
    return _emit(args, {"command": "pm", "results": results}, lines, all_ok)


def _cmd_kfc(args: argparse.Namespace) -> int:
    results = []
    lines = []
    all_ok = True
    for label, g in _input_graphs(args):
        report = (kfc_via_tutte if args.method == "tutte" else is_k_factor_critical)(g, args.k)
        results.append({"graph6": encode_graph6(g), **report.to_json()})
        state = "yes" if report.verdict else f"no, failing set {bits_list(report.failing_set)}"
        lines.append(f"{label}: {args.k}-factor-critical: {state}")
        all_ok = all_ok and report.verdict
    return _emit(args, {"command": "kfc", "results": results}, lines, all_ok)


def _cmd_minimal(args: argparse.Namespace) -> int:
    results = []
    lines = []
    all_ok = True
    for label, g in _input_graphs(args):
        minimal = is_minimally_kfc(g, args.k)
        results.append({"graph6": encode_graph6(g), "k": args.k, "minimal": minimal})
        lines.append(f"{label}: minimally {args.k}-factor-critical: {'yes' if minimal else 'no'}")
        all_ok = all_ok and minimal
    return _emit(args, {"command": "minimal", "results": results}, lines, all_ok)


def _cmd_witness(args: argparse.Namespace) -> int:
    results = []
    lines = []
    all_ok = True
    for label, g in _input_graphs(args):
        if args.all:
            witnesses = list(iter_minimality_witnesses(g, args.k, args.edge))
            found = bool(witnesses)
            results.append({"graph6": encode_graph6(g), "edge": list(args.edge),
                            "witnesses": [bits_list(w) for w in witnesses]})
            lines.append(f"{label}: {len(witnesses)} witness sets for edge {args.edge}")
        else:
            witness = minimality_witness(g, args.k, args.edge)
            found = witness is not None
            results.append({"graph6": encode_graph6(g), "edge": list(args.edge),
                            "witness": None if witness is None else bits_list(witness)})
            lines.append(
                f"{label}: witness for edge {args.edge}: "
                + ("none (edge removable)" if witness is None else str(bits_list(witness)))
            )
        all_ok = all_ok and found
    return _emit(args, {"command": "witness", "results": results}, lines, all_ok)


def _cmd_classify(args: argparse.Namespace) -> int:
    results = []
    lines = []
    all_ok = True
    for label, g in _input_graphs(args):
        u, v = args.edge
        inst = ResidualInstance(g, u, v, args.family)
        match = classify_residual(inst)
        results.append({"graph6": encode_graph6(g), **match.to_json()})
        lines.append(f"{label}: configuration {match.label}"
                     + (" (ambiguous)" if match.ambiguity_flag else ""))
        all_ok = all_ok and match.label != UNCLASSIFIED
    return _emit(args, {"command": "classify", "results": results}, lines, all_ok)


def _cmd_predicates(args: argparse.Namespace) -> int:
    results = []
    lines = []
    all_ok = True
    for label, g in _input_graphs(args):
        certs = certify_minimal_edges(g, args.k)
        edges = [tuple(sorted(args.edge))] if args.edge else sorted(certs)
        for e in edges:
            if e not in certs:
                raise EdgeAbsent(f"edge {e} not in graph")
            entry = certs[e]
            item = {"graph6": encode_graph6(g), "edge": list(e), **entry.to_json()}
            if entry.match is not None:
                report = config_predicates(g, e, entry.witness, entry.match)
                item["predicates"] = report.to_json()
                status = "vacuous" if not report.hypothesis_met else (
                    "pass" if report.all_passed else "FAIL")
                lines.append(f"{label}: edge {e}: {entry.match.label} predicates {status}")
                all_ok = all_ok and (not report.hypothesis_met or report.all_passed)
            else:
                lines.append(f"{label}: edge {e}: no classification ({entry.note})")
            results.append(item)
    return _emit(args, {"command": "predicates", "results": results}, lines, all_ok)


def _cmd_verify(args: argparse.Namespace) -> int:
    results = []
    lines = []
    violated = False
    for label, g in _input_graphs(args):
        verdicts = []
        if g.n >= 6:
            verdicts.append(check_n4_characterization(g))
        if args.k is not None and is_minimally_kfc(g, args.k):
            verdicts.extend(minimal_verdicts(g, args.k, verified=True))
        elif args.k is not None:
            lines.append(f"{label}: not minimally {args.k}-factor-critical; "
                         "degree statements skipped")
        for verdict in verdicts:
            results.append(verdict.to_json(graph6=encode_graph6(g)))
            state = "n/a" if not verdict.applicable else ("pass" if verdict.passed else "FAIL")
            lines.append(f"{label}: {verdict.theorem}: {state}")
            if verdict.failed:
                violated = True
    _emit(args, {"command": "verify", "results": results}, lines)
    return EXIT_VIOLATION if violated else EXIT_OK


def _cmd_survey(args: argparse.Namespace) -> int:
    if args.gen is not None:
        catalog = enumerate_catalog(args.gen)
    else:
        catalog = enumerate_catalog(args.n, path=args.file, lenient=args.lenient)
    report = survey(catalog, args.k, jobs=args.jobs, jsonl_path=args.jsonl,
                    skip=args.resume_lines)
    payload = report.to_json()
    lines = [
        f"order {report.n}, k={report.k}: {report.total} graphs, "
        f"{report.kfc_count} critical, {report.minimal_count} minimal",
        f"minimum-degree distribution of minimal graphs: "
        f"{payload['min_degree_distribution']}",
        f"counterexamples: {len(report.counterexamples)}",
    ]
    return _emit(args, payload, lines, not report.counterexamples)


def _cmd_hunt(args: argparse.Namespace) -> int:
    orders = range(args.n_from, args.n_to + 1)
    files = dict(args.catalog or [])
    rule: str | int = args.offset if args.offset is not None else "all-valid"
    found = hunt_counterexamples(orders, k_rule=rule, files=files, jobs=args.jobs,
                                 invert_predicate=args.self_test)
    payload = {"command": "hunt", "counterexamples": [list(c) for c in found]}
    lines = [f"{g6}: fails {theorem}" for g6, theorem in found]
    lines.append(f"{len(found)} counterexamples")
    return _emit(args, payload, lines, not found)


def _cmd_gen(args: argparse.Namespace) -> int:
    _check_generate_order(args.n)  # before --out is opened and truncated
    count = 0
    sink = open(args.out, "w", encoding="ascii") if args.out else sys.stdout
    try:
        for g in generate_nonisomorphic(args.n):
            print(encode_graph6(g), file=sink)
            count += 1
    finally:
        if args.out:
            sink.close()
    print(f"{count} graphs of order {args.n}", file=sys.stderr)
    return EXIT_OK


def _catalog_pair(text: str) -> tuple[int, str]:
    n, _, path = text.partition("=")
    try:
        return int(n), path
    except ValueError:
        raise argparse.ArgumentTypeError("expected N=PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="factorcrit",
        description="Perfect-matching and factor-criticality decision procedures "
                    "over graph6 inputs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p: argparse.ArgumentParser, needs_k: bool = False) -> None:
        p.add_argument("graph6", nargs="?", default=None,
                       help="graph6 string (omit to read --file or stdin)")
        p.add_argument("--file", help="read graph6 lines from a file")
        p.add_argument("--lenient", action="store_true",
                       help="skip unparseable lines instead of failing")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if needs_k:
            p.add_argument("--k", type=int, required=True, help="criticality parameter")

    p = sub.add_parser("pm", help="perfect-matching decision")
    add_input(p)
    p.set_defaults(func=_cmd_pm)

    p = sub.add_parser("kfc", help="k-factor-criticality decision")
    add_input(p, needs_k=True)
    p.add_argument("--method", choices=["definitional", "tutte"], default="definitional")
    p.set_defaults(func=_cmd_kfc)

    p = sub.add_parser("minimal", help="minimal k-factor-criticality decision")
    add_input(p, needs_k=True)
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("witness", help="witness set making an edge forced")
    add_input(p, needs_k=True)
    p.add_argument("--edge", type=_parse_edge, required=True, help="edge as 'u,v'")
    p.add_argument("--all", action="store_true", help="list every witness set")
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("classify", help="classify a residual graph instance")
    add_input(p)
    p.add_argument("--edge", type=_parse_edge, required=True,
                   help="designated non-adjacent pair as 'u,v'")
    p.add_argument("--family", choices=list(FAMILIES), required=True)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("predicates", help="witness, classification, and predicate checks per edge")
    add_input(p, needs_k=True)
    p.add_argument("--edge", type=_parse_edge, help="restrict to one edge 'u,v'")
    p.set_defaults(func=_cmd_predicates)

    p = sub.add_parser("verify", help="run the applicable statement checkers")
    add_input(p)
    p.add_argument("--k", type=int, default=None, help="criticality parameter")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("survey", help="criticality/minimality sweep over a catalog")
    p.add_argument("--gen", type=int, default=None, metavar="N",
                   help="generate all graphs of order N")
    p.add_argument("--n", type=int, default=None, help="declared order for --file input")
    p.add_argument("--file", help="graph6 catalog file")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--jobs", type=int, default=default_jobs())
    p.add_argument("--json", action="store_true")
    p.add_argument("--jsonl", help="stream one JSON record per graph to this path")
    p.add_argument("--resume-lines", type=int, default=0,
                   help="skip this many leading catalog entries (resume a sweep); "
                        "the --jsonl file must hold exactly their records")
    p.set_defaults(func=_cmd_survey)

    p = sub.add_parser("hunt", help="hunt counterexamples across orders")
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--offset", type=int, default=None,
                   help="fix k = n - OFFSET instead of sweeping all valid k")
    p.add_argument("--catalog", type=_catalog_pair, action="append", metavar="N=PATH",
                   help="ingest this catalog for order N instead of generating")
    p.add_argument("--jobs", type=int, default=default_jobs())
    p.add_argument("--json", action="store_true")
    p.add_argument("--self-test", action="store_true",
                   help="invert the minimum-degree predicate to prove plants surface")
    p.set_defaults(func=_cmd_hunt)

    p = sub.add_parser("gen", help="emit all graphs of an order as graph6 lines")
    p.add_argument("n", type=int)
    p.add_argument("--out", help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if getattr(args, "command", None) == "survey":
        if (args.gen is None) == (args.file is None):
            print("survey needs exactly one of --gen or --file", file=sys.stderr)
            return EXIT_USAGE
        if args.file is not None and args.n is None:
            print("survey --file needs --n for the declared order", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except TheoremViolated as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except FactorCritError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
