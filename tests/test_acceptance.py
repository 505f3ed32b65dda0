"""Acceptance suite: exhaustive desk-scale verification of every criterion.

Each numbered test prints one pass/fail line (run with ``pytest -s`` to see
them live).  The expensive shared artifacts, the full catalogs up to order 9
and their per-k sweeps, are built once per session.  Every expected value
asserted here was computed by an independent oracle first: subset brute
force for matchings and deficiencies, orbit counting for catalog sizes, and
the completeness sweeps themselves for the configuration tallies.
"""

from __future__ import annotations

import hashlib
import itertools
import time

import pytest

from factorcrit import (
    Catalog,
    Graph,
    canonical_graph6,
    check_maxdeg_profile,
    check_n4_characterization,
    check_star_structure,
    degree_profile,
    downward_criticality_check,
    encode_graph6,
    enumerate_catalog,
    enumerate_perfect_matchings,
    has_perfect_matching,
    is_k_factor_critical,
    is_minimally_kfc,
    iter_minimality_witnesses,
    kfc_via_tutte,
    max_deficiency,
    maximum_matching,
    parse_graph6,
    ps_reduction_check,
    remove_edge,
    survey,
    tutte_violators,
    valid_k_values,
    wheel_graph,
)
from factorcrit.configurations import (
    C2_PRIME,
    FAMILY_LABELS,
    ResidualInstance,
    _match_template,
    classify_residual,
)
from factorcrit.errors import (
    FamilyPreconditionUnmet,
    NotDeficient,
    NotRestorable,
)
from factorcrit.matching import PerfectMatcher
from factorcrit.verifiers import _has_path_of_three_edges

# Deselect with ``pytest -m "not acceptance"`` for a fast local loop.
pytestmark = pytest.mark.acceptance

SMALL_ORDER_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}


def _criterion(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def lines():
    """graph6 lines of the full catalogs for orders 1..8."""
    return {n: enumerate_catalog(n).graph6_lines for n in range(1, 9)}


@pytest.fixture(scope="module")
def lines9():
    started = time.monotonic()
    data = enumerate_catalog(9).graph6_lines
    print(f"(order-9 catalog: {len(data)} graphs in {time.monotonic() - started:.0f}s)")
    return data


@pytest.fixture(scope="module")
def sweeps(lines, lines9):
    """Survey report and minimal-graph list for every (n, k), n <= 9."""
    out = {}
    for n in range(3, 10):
        source = lines9 if n == 9 else lines[n]
        catalog = Catalog(n, "generate", "canonical", source)
        for k in valid_k_values(n):
            started = time.monotonic()
            minimal: list[str] = []
            report = survey(catalog, k, on_minimal=minimal.append)
            out[(n, k)] = (report, minimal)
            print(
                f"(sweep n={n} k={k}: {report.total} graphs, {report.kfc_count} "
                f"critical, {report.minimal_count} minimal, "
                f"{time.monotonic() - started:.0f}s)"
            )
    return out


# sha256 of the generated catalog of each order as a graph6 file, one line per
# graph, recorded before the lex-min test and canonical labeling were merged
# into one search: generation must keep both its bytes and its order.
GENERATION_GOLDEN = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    3: "1d237c0da1c599bbd8f4cffdf1fd13171099276e9ca335a1e0c819e4be9b2bea",
    4: "11d87ef6ba1bab272e5ac7a53abed3ee46cfd476519978659b9f2ce5f7d97883",
    5: "cb4d1674877f7f1f1f12ef31c0fb606fac5b3d1d786da4dcbbab1b0c53cdcbe7",
    6: "c7ea69d71d92420cad1bffae2014279a5cc6e679252aac13bf7603c874448f51",
    7: "17abda6e3e1c624e5fddf9c55af4b6af161b55ec25ac205f5921cd99f6a37d76",
    8: "893777134adbbd8ea4c486ae6d4a42583fb8ae15f9dddeb5a1b623355edaa720",
    9: "21c4cafdf5a30e1412125f3e1c5d29fd85b77bc1b31396d3ccf5754b67785f4e",
}


def test_generation_matches_golden_hashes(lines, lines9):
    for n, expected in GENERATION_GOLDEN.items():
        source = lines9 if n == 9 else lines[n]
        payload = "".join(line + "\n" for line in source).encode("ascii")
        assert hashlib.sha256(payload).hexdigest() == expected, n


def _circulant(n: int, steps: tuple[int, ...]) -> Graph:
    edges = set()
    for i in range(n):
        for s in steps:
            j = (i + s) % n
            if i != j:
                edges.add((min(i, j), max(i, j)))
    return Graph.from_edges(n, sorted(edges))


def test_criterion_1_matching_duality(lines):
    """Perfect-matching existence, deficiency-witness emptiness, enumeration
    non-emptiness, and the deficiency formula for maximum matchings must agree
    exactly on every graph of order at most 8."""
    started = time.monotonic()
    checked = 0
    for n in range(1, 9):
        if n <= 7:
            assert len(lines[n]) == SMALL_ORDER_COUNTS[n]
        for line in lines[n]:
            g = parse_graph6(line)
            assert encode_graph6(g) == line
            deficiency, witness_set = max_deficiency(g)
            pm = has_perfect_matching(g)
            assert pm == (deficiency == 0)
            assert pm == (not tutte_violators(g, "first-minimal"))
            assert pm == (len(enumerate_perfect_matchings(g, limit=1).matchings) > 0)
            assert len(maximum_matching(g).edges) == (g.n - deficiency) // 2
            checked += 1
    elapsed = time.monotonic() - started
    _criterion(1, True, f"duality and deficiency formula on {checked} graphs "
                        f"of order <= 8 ({elapsed:.0f}s, target 60s)")


def test_criterion_2_criticality_oracle_equivalence(lines):
    """The definitional subset sweep and the odd-component characterization
    must agree for every graph of order at most 7 and every parity-valid k."""
    started = time.monotonic()
    checked = 0
    for n in range(2, 8):
        for line in lines[n]:
            g = parse_graph6(line)
            matcher = PerfectMatcher(g)
            for k in range(0, n - 1):
                if (n - k) % 2:
                    continue
                lhs = is_k_factor_critical(g, k, matcher).verdict
                rhs = kfc_via_tutte(g, k).verdict
                assert lhs == rhs, (line, k)
                checked += 1
    elapsed = time.monotonic() - started
    _criterion(2, True, f"{checked} (graph, k) agreements at order <= 7 "
                        f"({elapsed:.0f}s, target 120s)")


def test_criterion_3_minimum_degree_sweep(sweeps):
    """Every minimally k-factor-critical graph of order at most 9 has minimum
    degree exactly k+1; the sweeps must produce zero counterexamples."""
    total_minimal = 0
    for (n, k), (report, _minimal) in sorted(sweeps.items()):
        assert report.counterexamples == [], (n, k, report.counterexamples[:3])
        if report.minimal_count:
            assert report.min_degree_distribution == {k + 1: report.minimal_count}, (n, k)
        total_minimal += report.minimal_count
    _criterion(3, True, f"minimum degree k+1 on all {total_minimal} minimal graphs "
                        f"across {len(sweeps)} (n, k) sweeps, n <= 9; 0 counterexamples")


def test_criterion_4_degree_upper_bounds(sweeps):
    """The two-step minimum-degree upper bound holds wherever applicable."""
    applicable = 0
    for (n, k), (report, _minimal) in sorted(sweeps.items()):
        tally = report.verdict_tallies.get("T1.1")
        if tally is None:
            continue
        assert tally["failed"] == 0, (n, k, tally)
        applicable += tally["applicable"]
    _criterion(4, True, f"degree bound held on {applicable} applicable minimal graphs")


def test_criterion_5_claw_free_characterization(lines):
    """Claw-freeness plus minimum degree n-3 must coincide with
    (n-4)-factor-criticality on every graph of orders 6, 7, and 8."""
    started = time.monotonic()
    checked = 0
    for n in (6, 7, 8):
        for line in lines[n]:
            assert check_n4_characterization(parse_graph6(line)).passed, line
            checked += 1
    elapsed = time.monotonic() - started
    _criterion(5, True, f"characterization exact on {checked} graphs of orders 6-8 "
                        f"({elapsed:.0f}s, target 60s)")


def test_criterion_6_universal_vertex_profile(lines):
    """At order 8, k = 2: among 2-factor-critical graphs with a universal
    vertex, minimality must be equivalent to the degree profile
    {7: 1, 3: 7}; the 7-spoke wheel is a positive instance."""
    positives = set()
    checked = 0
    for line in lines[8]:
        g = parse_graph6(line)
        if g.max_degree() != 7:
            continue
        if not is_k_factor_critical(g, 2).verdict:
            continue
        verdict = check_star_structure(g, 2, verified_kfc=True)
        assert verdict.passed, line
        checked += 1
        if degree_profile(g) == {7: 1, 3: 7}:
            positives.add(canonical_graph6(g))
    w7 = canonical_graph6(wheel_graph(7))
    assert w7 in positives
    _criterion(6, True, f"profile equivalence on {checked} universal-vertex critical "
                        f"graphs; wheel instance confirmed among {len(positives)}")


def test_criterion_7_maxdeg_profiles_and_parity(sweeps):
    """Degree-distribution statements: the near-universal profiles hold
    exhaustively at (8, 2) and (9, 3); the order-11 statement is checked on
    constructed minimal instances since its domain exceeds desk scale; the
    even-parity fact for degrees n-2 and n-4 holds across the minimal
    catalogs with k = n-6."""
    for (n, k), tid in (((8, 2), "T5.3"), ((9, 3), "T5.4")):
        report, _minimal = sweeps[(n, k)]
        for check_id in ("C2.7", tid):
            tally = report.verdict_tallies.get(check_id)
            assert tally is not None and tally["failed"] == 0, (n, k, check_id, tally)

    # Constructed instances at orders 11 and 12, verified minimal here.
    instances = [
        (11, 5, _circulant(11, (1, 2, 3))),
        (11, 5, Graph.from_edges(11, _circulant(10, (1, 2, 5)).edges()
                                 + [(v, 10) for v in range(10)])),
        (12, 6, Graph.from_edges(12, _circulant(11, (1, 2, 3)).edges()
                                 + [(v, 11) for v in range(11)])),
    ]
    for n, k, g in instances:
        assert g.n == n and k == n - 6
        assert is_minimally_kfc(g, k), (n, k)
        verdict = check_maxdeg_profile(g, verified=True)
        assert verdict.passed, (n, k, verdict)
        mid_degree = [v for v in range(n) if g.degree(v) == n - 4]
        assert _has_path_of_three_edges(g, mid_degree) is None

    parity_checked = 0
    for (n, k) in ((7, 1), (8, 2), (9, 3)):
        for line in sweeps[(n, k)][1]:
            profile = degree_profile(parse_graph6(line))
            assert (profile.get(n - 2, 0) + profile.get(n - 4, 0)) % 2 == 0, line
            parity_checked += 1
    _criterion(7, True, f"profiles exhaustive at (8,2) and (9,3); order-11/12 "
                        f"constructions verified; parity fact on {parity_checked} "
                        f"minimal graphs")


def test_criterion_8_configuration_completeness(lines):
    """Every admissible residual instance classifies into its family.

    Order 6 is swept for both six-vertex families, order 8 for the
    eight-vertex family; the label tallies are frozen from the exhaustive
    runs.  Label invariance across different minimum-cardinality deficiency
    certificates was an open question: the sweep refutes it at order 8, where
    exactly 16 of 2318 admissible instances realize both shapes that share
    the one-nontrivial-component profile, differing in where the designated
    pair sits.  Those instances carry the ambiguity flag and report the
    lexicographically smaller label; at order 6 the rate is zero."""
    started = time.monotonic()
    counts: dict[str, dict[str, int]] = {"A": {}, "C": {}, "B": {}}
    ambiguous = {"A": 0, "C": 0, "B": 0}
    admissible = {"A": 0, "C": 0, "B": 0}
    ambiguous_label_sets: set[frozenset[str]] = set()
    for order, families in ((6, ("A", "C")), (8, ("B",))):
        for line in lines[order]:
            g = parse_graph6(line)
            for u, v in itertools.combinations(range(order), 2):
                if g.has_edge(u, v):
                    continue
                for family in families:
                    try:
                        inst = ResidualInstance(g, u, v, family)
                    except (FamilyPreconditionUnmet, NotDeficient, NotRestorable):
                        continue
                    admissible[family] += 1
                    match = classify_residual(inst)
                    counts[family][match.label] = counts[family].get(match.label, 0) + 1
                    assert match.label in FAMILY_LABELS[family], (line, u, v, match.label)
                    assert match.certificate.partition.odd_count == match.x_set.bit_count() + 2
                    if match.ambiguity_flag:
                        ambiguous[family] += 1
                        certs = tutte_violators(g, "all-minimal")
                        ambiguous_label_sets.add(frozenset(
                            _match_template(g, u, v, family, cert)[0] for cert in certs
                        ))
    assert counts["A"] == {"A1": 9, "A2": 5, "A3": 20}
    assert counts["C"] == {"C1": 19, "C2": 9, C2_PRIME: 7, "C3": 38, "C4": 36}
    assert counts["B"] == {"B1": 168, "B2": 5, "B3": 213, "B4": 88,
                           "B5": 92, "B6": 354, "B7": 618, "B8": 780}
    assert ambiguous["A"] == 0 and ambiguous["C"] == 0
    assert ambiguous["B"] == 16  # open question resolved: labels not invariant
    assert ambiguous_label_sets == {frozenset({"B6", "B7"})}
    elapsed = time.monotonic() - started
    _criterion(8, True, f"completeness on {admissible} admissible instances; "
                        f"provisional two-trivial-with-triple label count "
                        f"{counts['C'][C2_PRIME]}; ambiguity rate 0 at order 6, "
                        f"16/{admissible['B']} at order 8 ({elapsed:.0f}s, target 600s)")


def test_criterion_9_ambient_predicates(sweeps):
    """Every classified edge whose ambient degree hypotheses hold satisfies
    all its label's predicates, across the minimal graphs with residual order
    6 at orders 7-9 and residual order 8 at order 9.  No order-10 catalog is
    bundled, so the (10, 2) leg is not run."""
    checked = 0
    for n, k in ((7, 1), (8, 2), (9, 3), (9, 1)):
        report, _minimal = sweeps[(n, k)]
        assert report.predicate_counts["failed"] == 0, (n, k, report.predicate_counts)
        assert not any(t.startswith("config") for _g, t in report.counterexamples)
        checked += report.predicate_counts["passed"]
    _criterion(9, True, f"{checked} predicate checks passed, zero failures "
                        f"(vacuous and precondition-skipped edges excluded)")


def test_criterion_10_soundness_alarms(lines):
    """Zero expected-true violations: criticality is invariant under adding a
    qualifying non-edge on every graph of order at most 7, and every
    k-factor-critical graph of order at most 8 is k-connected,
    (k+1)-edge-connected, and (k-2)-factor-critical."""
    started = time.monotonic()
    addition_checks = 0
    for n in range(2, 8):
        for line in lines[n]:
            g = parse_graph6(line)
            for k in range(0, n - 1):
                if (n - k) % 2:
                    continue
                for x, y in itertools.combinations(range(n), 2):
                    if g.has_edge(x, y):
                        continue
                    if g.degree(x) + g.degree(y) < n + k - 1:
                        continue
                    assert ps_reduction_check(g, k, x, y, raise_on_violation=True)
                    addition_checks += 1
    downward_checks = 0
    for n in range(3, 9):
        for line in lines[n]:
            g = parse_graph6(line)
            matcher = PerfectMatcher(g)
            for k in valid_k_values(n):
                if is_k_factor_critical(g, k, matcher).verdict:
                    assert downward_criticality_check(g, k, raise_on_violation=True)
                    downward_checks += 1
    elapsed = time.monotonic() - started
    _criterion(10, True, f"{addition_checks} edge-addition and {downward_checks} "
                         f"connectivity/downward checks, zero violations ({elapsed:.0f}s)")


def test_supporting_witness_iff_edge_removability(lines):
    """A witness set forcing an edge exists exactly when deleting that edge
    destroys k-factor-criticality, for every critical graph of order at
    most 8 and every valid k.  Supports the per-edge certificates used by
    criteria 8 and 9."""
    started = time.monotonic()
    checked = 0
    for n in range(4, 9):
        for line in lines[n]:
            g = parse_graph6(line)
            matcher = PerfectMatcher(g)
            for k in valid_k_values(n):
                if not is_k_factor_critical(g, k, matcher).verdict:
                    continue
                for e in g.edges():
                    witness = next(iter_minimality_witnesses(g, k, e), None)
                    still = is_k_factor_critical(remove_edge(g, *e), k).verdict
                    assert (witness is None) == still, (line, k, e)
                    checked += 1
    elapsed = time.monotonic() - started
    print(f"[supporting] witness-iff-removability on {checked} (graph, k, edge) "
          f"triples at order <= 8 ({elapsed:.0f}s)")
