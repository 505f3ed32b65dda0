"""Command-line front end with graph6 input and JSON reporting.

The per-graph commands (pm, kfc, minimal, witness, classify, predicates,
verify) share one loop, ``_per_graph``.  It reads every input graph first,
from the positional argument, ``--file`` or stdin, through the same graph6
line reader that catalog ingestion uses, so a bad line is reported as
``FILE:LINE`` or ``stdin:LINE``.  It then calls the command's step on each
graph; a step appends that graph's JSON results and text lines and returns
its exit code, and the command exits with the highest.  Nothing is printed
until every graph has been processed, so an error exits without partial
output.

Exit codes: 0 when the queried property holds (or a sweep is clean), 1 when
it fails or a counterexample of an open statement surfaced, 2 on usage or
parse errors and on files that cannot be opened, 3 when a statement that
``verifiers.STATEMENTS`` marks proven failed.
When the reader of stdout goes away, the process ends by SIGPIPE.
Text output is human-oriented and not a stable interface; pass --json for
the versioned machine format.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from typing import Iterable

from .errors import EdgeAbsent, FactorCritError, PreconditionUnmet, TheoremViolated
from .graph import Graph, bits_list, encode_graph6, parse_graph6
from .matching import (
    VIOLATOR_MAX_ORDER,
    TutteCertificate,
    gallai_edmonds_barrier,
    maximum_matching,
    tutte_violators,
)
from .criticality import (
    is_k_factor_critical,
    is_minimally_kfc,
    minimality_witness,
    iter_minimality_witnesses,
)
from .oracles import kfc_via_tutte
from .configurations import FAMILIES, ResidualInstance, UNCLASSIFIED, classify_residual
from .verifiers import STATEMENTS, check_n4_characterization, edge_verdicts, minimal_verdicts
from .search import (
    SCHEMA,
    _check_generate_order,
    _check_survey_k,
    _parse_graph6_lines,
    _read_graph6_file,
    _usable_cpus,
    enumerate_catalog,
    generate_nonisomorphic,
    hunt_counterexamples,
    survey,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3

def _parse_edge(text: str) -> tuple[int, int]:
    try:
        u, v = (int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError("edge must be 'u,v' with integer endpoints")
    return u, v


def _input_graphs(args: argparse.Namespace) -> list[tuple[str, Graph]]:
    """Resolve the single input source into (label, graph) pairs."""
    if args.graph6 is not None and args.file is not None:
        raise FactorCritError("give a positional graph6 string or --file, not both")
    if args.graph6 is not None:
        return [("arg", parse_graph6(args.graph6))]
    bad: list[tuple[int, str]] = []
    if args.file is not None:
        where, label = args.file, "line"
        entries = list(_read_graph6_file(args.file, args.lenient, bad))
    else:
        where = label = "stdin"
        entries = list(_parse_graph6_lines(sys.stdin, where, args.lenient, bad))
    for lineno, message in bad:
        print(f"{where}:{lineno}: skipped: {message}", file=sys.stderr)
    return [(f"{label} {lineno}", g) for lineno, _text, g in entries]


def _emit(args: argparse.Namespace, payload: dict, text_lines: Iterable[str], ok: bool = True) -> int:
    """Print the payload or the text lines; the exit code for ``ok``."""
    if args.json:
        payload["schema"] = SCHEMA
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)
    return EXIT_OK if ok else EXIT_FAIL


def _failed_code(theorem: str) -> int:
    """The exit code of a failed statement: 3 for a proven one, 1 for an open one."""
    return EXIT_VIOLATION if STATEMENTS[theorem] == "proven" else EXIT_FAIL


def _per_graph(args: argparse.Namespace) -> int:
    """Run the command's step on every input graph, then report them all.

    A step appends its JSON results and text lines and returns its exit
    code; the command exits with the highest."""
    results: list[dict] = []
    lines: list[str] = []
    code = EXIT_OK
    for label, g in _input_graphs(args):
        code = max(code, args.step(args, label, g, results, lines))
    _emit(args, {"command": args.command, "results": results}, lines)
    return code


def _pm(args: argparse.Namespace, label: str, g: Graph, results: list, lines: list) -> int:
    matching = maximum_matching(g)
    results.append({"graph6": encode_graph6(g), "perfect_matching": matching.is_perfect,
                    "matching": [list(e) for e in matching.edges]})
    lines.append(f"{label}: perfect matching: {'yes' if matching.is_perfect else 'no'} "
                 f"(maximum matching size {len(matching.edges)})")
    if matching.is_perfect:
        return EXIT_OK
    if g.n > VIOLATOR_MAX_ORDER:  # the polynomial barrier, not a smallest set
        key, name = "gallai_edmonds_barrier", "Gallai-Edmonds barrier"
        cert = TutteCertificate.build(g, gallai_edmonds_barrier(g))
    else:
        key, name = "violator", "deficiency witness"
        (cert,) = tutte_violators(g, "first-minimal")
    results[-1][key] = cert.to_json()
    lines.append(f"  {name} X={bits_list(cert.x_set)} odd components {cert.partition.odd_count}")
    return EXIT_FAIL


def _kfc(args: argparse.Namespace, label: str, g: Graph, results: list, lines: list) -> int:
    report = (kfc_via_tutte if args.method == "tutte" else is_k_factor_critical)(g, args.k)
    results.append({"graph6": encode_graph6(g), **report.to_json()})
    state = "yes" if report.verdict else f"no, failing set {bits_list(report.failing_set)}"
    lines.append(f"{label}: {args.k}-factor-critical: {state}")
    return EXIT_OK if report.verdict else EXIT_FAIL


def _minimal(args: argparse.Namespace, label: str, g: Graph, results: list, lines: list) -> int:
    minimal = is_minimally_kfc(g, args.k)
    results.append({"graph6": encode_graph6(g), "k": args.k, "minimal": minimal})
    lines.append(f"{label}: minimally {args.k}-factor-critical: {'yes' if minimal else 'no'}")
    return EXIT_OK if minimal else EXIT_FAIL


def _witness(args: argparse.Namespace, label: str, g: Graph, results: list, lines: list) -> int:
    item = {"graph6": encode_graph6(g), "edge": list(args.edge)}
    if args.all:
        witnesses = list(iter_minimality_witnesses(g, args.k, args.edge))
        results.append({**item, "witnesses": [bits_list(w) for w in witnesses]})
        lines.append(f"{label}: {len(witnesses)} witness sets for edge {args.edge}")
        return EXIT_OK if witnesses else EXIT_FAIL
    witness = minimality_witness(g, args.k, args.edge)
    results.append({**item, "witness": None if witness is None else bits_list(witness)})
    lines.append(f"{label}: witness for edge {args.edge}: "
                 + ("none (edge removable)" if witness is None else str(bits_list(witness))))
    return EXIT_FAIL if witness is None else EXIT_OK


def _classify(args: argparse.Namespace, label: str, g: Graph, results: list, lines: list) -> int:
    match = classify_residual(ResidualInstance(g, *args.edge, args.family))
    results.append({"graph6": encode_graph6(g), **match.to_json()})
    lines.append(f"{label}: configuration {match.label}"
                 + (" (ambiguous)" if match.ambiguity_flag else ""))
    return EXIT_FAIL if match.label == UNCLASSIFIED else EXIT_OK


def _predicates(args: argparse.Namespace, label: str, g: Graph, results: list, lines: list) -> int:
    edges = {e: rest for e, *rest in edge_verdicts(g, args.k)}
    code = EXIT_OK
    for e in [tuple(sorted(args.edge))] if args.edge else sorted(edges):
        if e not in edges:
            raise EdgeAbsent(f"edge {e} not in graph")
        entry, report, failed = edges[e]
        item = {"graph6": encode_graph6(g), "edge": list(e), **entry.to_json()}
        if report is not None:
            item["predicates"] = report.to_json()
            status = "vacuous" if not report.hypothesis_met else (
                "pass" if report.all_passed else "FAIL")
            lines.append(f"{label}: edge {e}: {entry.match.label} predicates {status}")
        elif failed is not None:
            lines.append(f"{label}: edge {e}: {entry.match.label} fails {failed}")
        else:
            lines.append(f"{label}: edge {e}: no classification ({entry.note})")
        if failed is not None:
            code = max(code, _failed_code(failed))
        results.append(item)
    return code


def _verify(args: argparse.Namespace, label: str, g: Graph, results: list, lines: list) -> int:
    verdicts = []
    if g.n >= 6:
        verdicts.append(check_n4_characterization(g))
    if args.k is not None and is_minimally_kfc(g, args.k):
        verdicts.extend(minimal_verdicts(g, args.k, verified=True))
    elif args.k is not None:
        lines.append(f"{label}: not minimally {args.k}-factor-critical; "
                     "degree statements skipped")
    if not verdicts:
        reason = "no --k" if args.k is None else f"not minimally {args.k}-factor-critical"
        print(f"note: {encode_graph6(g)}: no statement checker applies "
              f"(order {g.n} is below 6, {reason})", file=sys.stderr)
    for verdict in verdicts:
        results.append(verdict.to_json(graph6=encode_graph6(g)))
        state = "n/a" if not verdict.applicable else ("pass" if verdict.passed else "FAIL")
        lines.append(f"{label}: {verdict.theorem}: {state}")
    return max((_failed_code(v.theorem) for v in verdicts if v.failed), default=EXIT_OK)


def _cmd_survey(args: argparse.Namespace) -> int:
    n = args.n if args.gen is None else args.gen
    _check_survey_k(n, args.k)  # before any graph is generated or read
    bad: list[tuple[int, str]] = []
    catalog = enumerate_catalog(n, path=args.file, lenient=args.lenient, bad=bad)
    for lineno, message in bad:
        print(f"{args.file}:{lineno}: skipped: {message}", file=sys.stderr)
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
    files: dict[int, str] = {}
    for n, path in args.catalog or []:
        if n in files:
            raise PreconditionUnmet(f"--catalog gives order {n} twice")
        files[n] = path
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

    def add_input(p: argparse.ArgumentParser, step, needs_k: bool = False) -> None:
        p.add_argument("graph6", nargs="?", default=None,
                       help="graph6 string (omit to read --file or stdin)")
        p.add_argument("--file", help="read graph6 lines from a file")
        p.add_argument("--lenient", action="store_true",
                       help="skip unparseable lines instead of failing")
        p.add_argument("--json", action="store_true", help="machine-readable output")
        if needs_k:
            p.add_argument("--k", type=int, required=True, help="criticality parameter")
        p.set_defaults(func=_per_graph, step=step)

    p = sub.add_parser("pm", help="perfect-matching decision; without one, a smallest "
                       f"deficiency witness up to order {VIOLATOR_MAX_ORDER}, "
                       "a Gallai-Edmonds barrier above")
    add_input(p, _pm)

    p = sub.add_parser("kfc", help="k-factor-criticality decision")
    add_input(p, _kfc, needs_k=True)
    p.add_argument("--method", choices=["definitional", "tutte"], default="definitional")

    p = sub.add_parser("minimal", help="minimal k-factor-criticality decision")
    add_input(p, _minimal, needs_k=True)

    p = sub.add_parser("witness", help="witness set making an edge forced")
    add_input(p, _witness, needs_k=True)
    p.add_argument("--edge", type=_parse_edge, required=True, help="edge as 'u,v'")
    p.add_argument("--all", action="store_true", help="list every witness set")

    p = sub.add_parser("classify", help="classify a residual graph instance")
    add_input(p, _classify)
    p.add_argument("--edge", type=_parse_edge, required=True,
                   help="designated non-adjacent pair as 'u,v'")
    p.add_argument("--family", choices=list(FAMILIES), required=True)

    p = sub.add_parser("predicates", help="witness, classification, and predicate checks per edge")
    add_input(p, _predicates, needs_k=True)
    p.add_argument("--edge", type=_parse_edge, help="restrict to one edge 'u,v'")

    p = sub.add_parser("verify", help="run the applicable statement checkers")
    add_input(p, _verify)
    p.add_argument("--k", type=int, default=None, help="criticality parameter")

    p = sub.add_parser("survey", help="criticality/minimality sweep over a catalog")
    p.add_argument("--gen", type=int, default=None, metavar="N",
                   help="generate all graphs of order N")
    p.add_argument("--n", type=int, default=None, help="declared order for --file input")
    p.add_argument("--file", help="graph6 catalog file")
    p.add_argument("--lenient", action="store_true")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--jobs", type=int, default=_usable_cpus())
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
    p.add_argument("--jobs", type=int, default=_usable_cpus())
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
        for wrong, message in (
            ((args.gen is None) == (args.file is None), "survey needs exactly one of --gen or --file"),
            (args.file is not None and args.n is None, "survey --file needs --n for the declared order"),
            (args.gen is not None and args.n not in (None, args.gen),
             f"survey --n {args.n} contradicts --gen {args.gen}"),
            (args.resume_lines < 0, f"survey --resume-lines must be at least 0, not {args.resume_lines}"),
            (args.resume_lines > 0 and args.jsonl is None,
             "survey --resume-lines needs --jsonl, the file it resumes"),
        ):
            if wrong:
                print(message, file=sys.stderr)
                return EXIT_USAGE
    if getattr(args, "jobs", 1) < 1:
        print(f"{args.command} --jobs must be at least 1, not {args.jobs}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except TheoremViolated as exc:
        print(f"violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (FactorCritError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    """Run ``main`` as a process: a closed stdout ends it by SIGPIPE, where
    the platform has one, instead of as an output error."""
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    entry()
