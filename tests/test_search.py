from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import json
import math
import random
import time
from pathlib import Path

import networkx as nx
import pytest

from factorcrit import (
    Catalog,
    FileUnreadable,
    Graph,
    KOutOfRange,
    MalformedEncoding,
    OrderTooLargeForGenerate,
    ParityMismatch,
    PreconditionUnmet,
    ResumeMismatch,
    canonical_form,
    canonical_graph6,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    empty_graph,
    encode_graph6,
    enumerate_catalog,
    generate_nonisomorphic,
    hunt_counterexamples,
    parse_graph6,
    survey,
    valid_k_values,
)
from factorcrit import search
from factorcrit.search import read_graph6_lines

KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
# graphs of order m with one distinguished vertex, up to isomorphism (OEIS A000666)
ROOTED_COUNTS = {2: 2, 3: 6, 4: 20, 5: 90, 6: 544, 7: 5096}


def _burnside_count(n: int) -> int:
    """Independent counting oracle: orbit count of edge subsets under S_n."""
    total = 0
    for perm in itertools.permutations(range(n)):
        seen = set()
        cycles = 0
        for pair in itertools.combinations(range(n), 2):
            if pair in seen:
                continue
            cycles += 1
            a, b = pair
            while True:
                a, b = perm[a], perm[b]
                cur = (min(a, b), max(a, b))
                if cur == pair:
                    break
                seen.add(cur)
        total += 1 << cycles
    return total // math.factorial(n)


def _min_encoding_over_all_perms(g: Graph) -> str:
    best = None
    for perm in itertools.permutations(range(g.n)):
        rows = [0] * g.n
        for u in range(g.n):
            for v in range(g.n):
                if g.adj[u] >> v & 1:
                    rows[perm[u]] |= 1 << perm[v]
        enc = encode_graph6(Graph(g.n, tuple(rows)))
        if best is None or enc < best:
            best = enc
    return best


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_generate_counts_match_known_and_burnside(n, catalog):
    graphs = catalog(n)
    assert len(graphs) == KNOWN_COUNTS[n]
    assert len(graphs) == _burnside_count(n)


def test_generate_matches_bruteforce_dedup_to_order_5(catalog):
    for n in range(1, 6):
        expected = set()
        pairs = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(pairs)):
            g = Graph.from_edges(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])
            expected.add(_min_encoding_over_all_perms(g))
        assert {encode_graph6(g) for g in catalog(n)} == expected


def test_generated_graphs_are_self_canonical(catalog):
    for g in catalog(5):
        assert canonical_form(g) == g
        assert _min_encoding_over_all_perms(g) == encode_graph6(g)


def test_generated_graphs_pairwise_nonisomorphic(catalog):
    graphs = catalog(5)
    for a, b in itertools.combinations(graphs, 2):
        ha = nx.Graph(a.edges())
        ha.add_nodes_from(range(a.n))
        hb = nx.Graph(b.edges())
        hb.add_nodes_from(range(b.n))
        assert not nx.is_isomorphic(ha, hb)


def test_generate_order_gate():
    with pytest.raises(OrderTooLargeForGenerate):
        list(generate_nonisomorphic(10))
    with pytest.raises(KOutOfRange):
        list(generate_nonisomorphic(0))


def test_orderly_tests_per_level_equal_rooted_graph_counts(monkeypatch):
    """Level m tests one extension per orbit of each parent's automorphism
    group on the masks, and those orbits are the rooted graphs of order m.
    The count holds only if the automorphisms that each accepted parent's
    orderly test met generate its full group."""
    tested: collections.Counter = collections.Counter()
    min_columns = search._min_columns

    def counting(adj, best, orderly, autos=None):
        tested[len(best)] += orderly
        return min_columns(adj, best, orderly, autos)

    monkeypatch.setattr(search, "_min_columns", counting)
    assert sum(1 for _ in generate_nonisomorphic(7)) == KNOWN_COUNTS[7]
    assert dict(tested) == ROOTED_COUNTS


def test_orbit_filter_skips_only_rejected_extensions():
    level = [((0,), ())]
    for m in range(2, 7):
        level = [(adj, search._generators(autos, m)) for adj, autos in search._extend_level(level, m)]
    assert len(level) == KNOWN_COUNTS[6]
    top = 6
    reverse = search._subset_images(range(top - 1, -1, -1))
    skipped = 0
    for parent, gens in level:
        for perm in gens:
            assert all(parent[perm[v]] == sum(1 << perm[u] for u in range(top) if parent[v] >> u & 1)
                       for v in range(top))
        leaders = set(search._orbit_leaders(gens, top, reverse))
        for mask in set(range(1 << top)) - leaders:
            skipped += 1
            adj = [parent[v] | ((mask >> v & 1) << top) for v in range(top)] + [mask]
            assert search._min_columns(adj, search._column_codes(adj, 7), orderly=True) is None
    assert skipped == KNOWN_COUNTS[6] * (1 << top) - ROOTED_COUNTS[7]


def _relabel(g: Graph, perm: list[int]) -> Graph:
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _shuffled(n: int, rng: random.Random) -> list[int]:
    perm = list(range(n))
    rng.shuffle(perm)
    return perm


def _complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple(full & ~row & ~(1 << v) for v, row in enumerate(g.adj)))


def test_canonical_form_matches_bruteforce_order_6(catalog):
    rng = random.Random(6)
    for g in catalog(6):
        relabeled = _relabel(g, _shuffled(6, rng))
        assert encode_graph6(canonical_form(relabeled)) == _min_encoding_over_all_perms(relabeled)


def test_canonical_form_inverts_relabeling_order_7(catalog):
    rng = random.Random(7)
    for g in catalog(7):
        assert canonical_form(_relabel(g, _shuffled(7, rng))) == g


def test_canonical_form_twin_heavy_graphs():
    """Twin pruning skips whole subtrees, so check it where most vertices
    have twins: classes of false twins (independent sets with equal
    neighbourhoods) and, in the complements, of true twins."""
    two_triangles = Graph.from_edges(7, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    k223 = _complement(Graph.from_edges(7, [(0, 1), (2, 3), (4, 5), (4, 6), (5, 6)]))
    rng = random.Random(3)
    for base in (complete_bipartite(3, 4), two_triangles, k223):
        for g in (base, _complement(base)):
            expected = _min_encoding_over_all_perms(g)
            for _ in range(5):
                assert encode_graph6(canonical_form(_relabel(g, _shuffled(7, rng)))) == expected


@pytest.mark.parametrize("g", [complete_bipartite(10, 10), empty_graph(20), complete_graph(20)],
                         ids=["K10,10", "empty20", "K20"])
def test_canonical_form_finishes_on_twin_classes(g):
    relabeled = _relabel(g, _shuffled(20, random.Random(20)))
    started = time.monotonic()
    canon = canonical_form(relabeled)
    assert time.monotonic() - started <= 2.0
    # the minimal encoding puts a largest independent set first
    assert canon == g


def test_catalog_ingest_canonical_dedup_order_20(tmp_path: Path):
    k10 = complete_bipartite(10, 10)
    rng = random.Random(10)
    path = tmp_path / "k10_10.g6"
    path.write_text("".join(encode_graph6(_relabel(k10, _shuffled(20, rng))) + "\n" for _ in range(8)),
                    encoding="ascii")
    started = time.monotonic()
    cat = enumerate_catalog(20, path=str(path), dedup="canonical")
    assert time.monotonic() - started <= 2.0
    assert len(cat) == 1


def test_canonical_form_is_isomorphism_invariant():
    w7 = cycle_graph(7)
    relabeled = Graph.from_edges(7, [((u + 3) % 7, (v + 3) % 7) for u, v in w7.edges()])
    assert canonical_graph6(w7) == canonical_graph6(relabeled)


def test_catalog_ingest_roundtrip(tmp_path: Path, catalog):
    path = tmp_path / "order5.g6"
    path.write_text("".join(encode_graph6(g) + "\n" for g in catalog(5)), encoding="ascii")
    cat = enumerate_catalog(5, path=str(path))
    assert len(cat) == 34
    assert [encode_graph6(g) for g in cat] == [encode_graph6(g) for g in catalog(5)]


def test_catalog_ingest_errors_and_lenient(tmp_path: Path):
    path = tmp_path / "mixed.g6"
    path.write_text("D??\nnot-a-graph\nBw\n", encoding="ascii")
    with pytest.raises(MalformedEncoding):
        enumerate_catalog(5, path=str(path))
    cat = enumerate_catalog(5, path=str(path), lenient=True)
    assert len(cat) == 1  # the order-3 line is dropped too
    with pytest.raises(FileUnreadable):
        enumerate_catalog(5, path=str(tmp_path / "missing.g6"))


def test_catalog_ingest_non_ascii_line(tmp_path: Path):
    path = tmp_path / "accented.g6"
    path.write_bytes("A_\né\n".encode("utf-8"))
    with pytest.raises(MalformedEncoding, match=r"accented\.g6:2: byte out of graph6 range"):
        enumerate_catalog(2, path=str(path))
    with pytest.raises(MalformedEncoding, match=r"accented\.g6:2:"):
        read_graph6_lines(str(path))
    assert enumerate_catalog(2, path=str(path), lenient=True).graph6_lines == ("A_",)
    good, bad = read_graph6_lines(str(path), lenient=True)
    assert good == [(1, "A_")]
    assert [lineno for lineno, _message in bad] == [2]


def test_catalog_ingest_canonical_dedup(tmp_path: Path):
    c5 = cycle_graph(5)
    shifted = Graph.from_edges(5, [((u + 1) % 5, (v + 1) % 5) for u, v in c5.edges()])
    path = tmp_path / "dups.g6"
    path.write_text(encode_graph6(c5) + "\n" + encode_graph6(shifted) + "\n", encoding="ascii")
    assert len(enumerate_catalog(5, path=str(path))) == 2
    assert len(enumerate_catalog(5, path=str(path), dedup="canonical")) == 1


def test_catalog_rejects_unknown_dedup(tmp_path: Path):
    path = tmp_path / "one.g6"
    path.write_text("A_\n", encoding="ascii")
    for source in (None, str(path)):
        with pytest.raises(PreconditionUnmet, match="'bogus'"):
            enumerate_catalog(2, path=source, dedup="bogus")


def test_valid_k_values():
    assert valid_k_values(6) == [2, 4]
    assert valid_k_values(7) == [1, 3, 5]
    assert valid_k_values(3) == [1]


def test_survey_examples(catalog):
    cat5 = Catalog.from_graphs(5, catalog(5))
    report = survey(cat5, 1)
    assert report.total == 34
    assert set(report.min_degree_distribution) == {2}
    minimal = []
    survey(cat5, 1, on_minimal=minimal.append)
    canon = {canonical_graph6(parse_graph6(s)) for s in minimal}
    assert canonical_graph6(cycle_graph(5)) in canon

    cat6 = Catalog.from_graphs(6, catalog(6))
    report = survey(cat6, 4)
    assert report.kfc_count == 1 and report.minimal_count == 1

    cat4 = Catalog.from_graphs(4, catalog(4))
    report = survey(cat4, 2)
    assert report.minimal_count == 1
    assert report.min_degree_distribution == {3: 1}


def test_survey_validation(catalog):
    cat = Catalog.from_graphs(6, catalog(6))
    with pytest.raises(ParityMismatch):
        survey(cat, 1)
    with pytest.raises(KOutOfRange):
        survey(cat, 6)


@pytest.mark.parametrize("skip", [-3, -1, 35, 99])
def test_survey_rejects_skip_out_of_range(tmp_path: Path, catalog, skip):
    cat = Catalog.from_graphs(5, catalog(5))
    path = tmp_path / "records.jsonl"
    path.write_text("kept\n")
    with pytest.raises(PreconditionUnmet, match=f"skip={skip} outside 0..34"):
        survey(cat, 1, jsonl_path=str(path), skip=skip)
    assert path.read_text() == "kept\n"
    assert survey(cat, 1, skip=34).total == 0


def test_survey_deterministic_and_parallel_identical(catalog):
    cat = Catalog.from_graphs(6, catalog(6))
    serial = survey(cat, 2).to_json()
    again = survey(cat, 2).to_json()
    parallel = survey(cat, 2, jobs=2).to_json()
    assert serial == again == parallel


# sha256 of the survey JSONL stream and of the sorted-key report JSON for the
# generated order-7 catalog, recorded from the survey without degree gates,
# so the gated survey must reproduce the ungated one byte for byte.
SURVEY7_GOLDEN = {
    1: ("d2d634d3ac621bea1ac1b7d5065940ac56f111f3d8707d16132f8c85bedba807",
        "b03ca78189013b23671a9a5cfc83fe73f6520fa51175aed2ab687ab38d5f6c3c"),
    3: ("8909b7063dfb7586fa5c98cce0414b85dc573da5691db52403f2b586eee86c1a",
        "6bd3a8c658a060a4c30d29b3a36006c662c90455c78ed22e697f7e70d4bbb02f"),
    5: ("a7f82cc45395741e6fcaa2f318087b880f8b5e4a790853f82c59a2a622e35f76",
        "fabcfda22b1364e05399703726064c9ae7b4b04d6c2983d236499e764fb08206"),
}


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_output_matches_golden_order_7(tmp_path: Path, jobs):
    cat = enumerate_catalog(7)
    for k, (jsonl_sha, report_sha) in SURVEY7_GOLDEN.items():
        path = tmp_path / f"k{k}.jsonl"
        report = survey(cat, k, jobs=jobs, jsonl_path=str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == jsonl_sha, k
        payload = json.dumps(report.to_json(), sort_keys=True).encode()
        assert hashlib.sha256(payload).hexdigest() == report_sha, k


def _full_jsonl(tmp_path: Path, cat: Catalog) -> tuple[Path, bytes]:
    path = tmp_path / "records.jsonl"
    survey(cat, 1, jsonl_path=str(path))
    return path, path.read_bytes()


def test_survey_jsonl_stream_and_resume(tmp_path: Path, catalog):
    cat = Catalog.from_graphs(5, catalog(5))
    path, data = _full_jsonl(tmp_path, cat)
    lines = data.decode().splitlines()
    assert len(lines) == 34
    first = json.loads(lines[0])
    assert set(first) >= {"graph6", "kfc", "minimal"}
    path.write_text("".join(line + "\n" for line in lines[:30]))
    resumed = survey(cat, 1, jsonl_path=str(path), skip=30)
    assert resumed.total == 4
    assert path.read_bytes() == data


def test_survey_resume_drops_torn_last_line(tmp_path: Path, catalog):
    cat = Catalog.from_graphs(5, catalog(5))
    path, data = _full_jsonl(tmp_path, cat)
    lines = data.decode().splitlines(keepends=True)
    path.write_text("".join(lines[:30]) + lines[30][:len(lines[30]) // 2])
    assert survey(cat, 1, jsonl_path=str(path), skip=30).total == 4
    assert path.read_bytes() == data


@pytest.mark.parametrize("kept", [29, 34], ids=["short", "long"])
def test_survey_resume_rejects_wrong_record_count(tmp_path: Path, catalog, kept):
    cat = Catalog.from_graphs(5, catalog(5))
    path, data = _full_jsonl(tmp_path, cat)
    partial = "".join(data.decode().splitlines(keepends=True)[:kept])
    path.write_text(partial)
    with pytest.raises(ResumeMismatch, match="exactly 30"):
        survey(cat, 1, jsonl_path=str(path), skip=30)
    assert path.read_text() == partial
    with pytest.raises(ResumeMismatch):
        survey(cat, 1, jsonl_path=str(tmp_path / "missing.jsonl"), skip=30)


def test_survey_resume_rejects_wrong_prefix(tmp_path: Path, catalog):
    cat = Catalog.from_graphs(5, catalog(5))
    path, data = _full_jsonl(tmp_path, cat)
    lines = data.decode().splitlines(keepends=True)
    swapped = lines[:3] + [lines[4], lines[3]] + lines[5:30]
    path.write_text("".join(swapped))
    with pytest.raises(ResumeMismatch, match=r"records\.jsonl:4:"):
        survey(cat, 1, jsonl_path=str(path), skip=30)
    path.write_text("".join(lines[:5]) + "not json\n" + "".join(lines[6:30]))
    with pytest.raises(ResumeMismatch, match=r"records\.jsonl:6:"):
        survey(cat, 1, jsonl_path=str(path), skip=30)


def test_survey_counterexample_entries_reparse(catalog):
    cat = Catalog.from_graphs(6, catalog(6))
    report = survey(cat, 4, raise_on_violation=False, invert_conjecture=True)
    assert report.counterexamples
    for graph6, theorem in report.counterexamples:
        g = parse_graph6(graph6)
        assert g.n == 6
        # the planted failure names the minimum-degree statement and the graph
        # genuinely satisfies it, proving the inversion produced the entry
        assert theorem == "C1.2"
        from factorcrit import check_conjecture

        assert check_conjecture(g, 4).passed


def test_statement_table_covers_every_reported_id(catalog):
    from factorcrit.verifiers import (
        CONFIG_COMPLETENESS,
        CONFIG_PREDICATES,
        MIN_DEGREE_CONJECTURE,
        STATEMENTS,
    )

    cases = [(encode_graph6(g), k) for n in range(4, 8) for g in catalog(n) for k in valid_k_values(n)]
    # k = n - 8 and k = n - 10 reach the T4.1 and Conj1.3 instantiations.
    cases += [(encode_graph6(cycle_graph(9)), 1), (encode_graph6(cycle_graph(11)), 1)]
    reported = {CONFIG_COMPLETENESS, CONFIG_PREDICATES}
    for line, k in cases:
        for invert in (False, True):
            record = search._survey_record(line, parse_graph6(line), k, invert)
            reported.update(verdict["theorem"] for verdict in record.get("verdicts", ()))
            reported.update(record.get("failures", ()))
    assert {"T4.1", "Conj1.3", "L2.5"} <= reported
    assert reported <= set(STATEMENTS)
    assert set(STATEMENTS.values()) == {"proven", "open"}
    assert [t for t, status in STATEMENTS.items() if status == "open"] == [MIN_DEGREE_CONJECTURE]


def test_hunt_examples():
    assert hunt_counterexamples(range(4, 7)) == []
    assert hunt_counterexamples([6], k_rule=2) == []  # k = n - 2 = 4
    planted = hunt_counterexamples([6], k_rule=2, invert_predicate=True)
    assert planted and planted[0][0] == "E~~w"


def test_catalog_rejects_mixed_orders(catalog):
    with pytest.raises(MalformedEncoding):
        Catalog.from_graphs(5, catalog(4))


def _count_parses(monkeypatch) -> list[str]:
    """Record every line that ``search`` decodes from now on."""
    calls: list[str] = []
    original = search.parse_graph6

    def counting(text):
        calls.append(text)
        return original(text)

    monkeypatch.setattr(search, "parse_graph6", counting)
    return calls


def test_catalog_decodes_its_lines_once(tmp_path: Path, monkeypatch):
    cat = enumerate_catalog(7)
    calls = _count_parses(monkeypatch)
    first = survey(cat, 3, jsonl_path=str(tmp_path / "first.jsonl"))
    assert calls == list(cat.graph6_lines)
    calls.clear()
    second = survey(cat, 3, jsonl_path=str(tmp_path / "second.jsonl"))
    for k in (1, 5):
        survey(cat, k)
    survey(cat, 1, skip=1000)
    assert [encode_graph6(g) for g in cat] == list(cat.graph6_lines)
    assert calls == []
    assert second.to_json() == first.to_json()
    assert (tmp_path / "second.jsonl").read_bytes() == (tmp_path / "first.jsonl").read_bytes()
    survey(cat, 3, jobs=2, jsonl_path=str(tmp_path / "pooled.jsonl"))
    assert (tmp_path / "pooled.jsonl").read_bytes() == (tmp_path / "first.jsonl").read_bytes()


def test_resumed_first_pass_decodes_only_the_tail(tmp_path: Path, monkeypatch):
    lines = enumerate_catalog(7).graph6_lines
    cat = Catalog(7, "memory", "as-is", lines)
    calls = _count_parses(monkeypatch)
    survey(cat, 3, skip=1000)
    assert calls == list(lines[1000:])
    calls.clear()
    survey(cat, 3)
    survey(cat, 5)
    assert calls == list(lines)


def test_decoding_leaves_equality_and_replace_alone():
    cat = enumerate_catalog(6)
    fresh = enumerate_catalog(6)
    list(cat)
    assert cat == fresh and hash(cat) == hash(fresh)
    assert [f.name for f in dataclasses.fields(cat)] == ["n", "source", "dedup", "graph6_lines"]
    part = dataclasses.replace(cat, graph6_lines=cat.graph6_lines[:10])
    assert "_rows" not in vars(part)
    assert [encode_graph6(g) for g in part] == list(cat.graph6_lines[:10])


def test_catalog_slices_fold_to_the_whole(tmp_path: Path):
    cat = enumerate_catalog(7)
    lines = cat.graph6_lines
    for k in (1, 3, 5):
        whole_path = tmp_path / f"whole{k}.jsonl"
        whole = survey(cat, k, jsonl_path=str(whole_path))
        folded = search.SurveyReport(n=7, k=k, source=cat.source)
        texts = []
        for start in range(0, len(lines), 300):
            part = dataclasses.replace(cat, graph6_lines=lines[start:start + 300])
            path = tmp_path / f"part{k}_{start}.jsonl"
            survey(part, k, jsonl_path=str(path))
            texts.append(path.read_text(encoding="utf-8"))
            for raw in texts[-1].splitlines():
                search._fold_record(folded, json.loads(raw), True, None)
        assert "".join(texts) == whole_path.read_text(encoding="utf-8")
        assert folded.to_json() == whole.to_json()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("bad", ["garbage!!", "D??"], ids=["malformed", "order-5"])
def test_direct_catalog_with_bad_line_raises(tmp_path: Path, jobs, bad):
    cat = Catalog(4, "memory", "as-is", ("C~",) * 70 + (bad,))
    sink = tmp_path / "records.jsonl"
    with pytest.raises(MalformedEncoding):
        survey(cat, 2, jobs=jobs, jsonl_path=str(sink))
    if jobs == 1:  # the records ahead of the bad line are written first
        assert len(sink.read_text(encoding="utf-8").splitlines()) == 70
    with pytest.raises(MalformedEncoding):
        list(cat)
