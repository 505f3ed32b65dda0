from __future__ import annotations

import collections
import dataclasses
import hashlib
import itertools
import json
import math
import multiprocessing
import random
import re
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import networkx as nx
import pytest

from factorcrit import (
    Catalog,
    FactorCritError,
    FileUnreadable,
    Graph,
    KOutOfRange,
    LimitExceeded,
    MalformedEncoding,
    OrderTooLargeForGenerate,
    ParityMismatch,
    PreconditionUnmet,
    ResumeMismatch,
    TheoremViolated,
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
    petersen_graph,
    survey,
    valid_k_values,
    wheel_graph,
)
from factorcrit import search
from goldens import GENERATION_GOLDEN

KNOWN_COUNTS = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}
# masks handed to the shared walk per level of generate_nonisomorphic(7):
# those that the last-swap prefilter passes
ORDERLY_TESTS = {2: 2, 3: 6, 4: 18, 5: 76, 6: 376, 7: 2682}


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
        assert not nx.is_isomorphic(_networkx(a), _networkx(b))


def test_generate_order_gate():
    with pytest.raises(OrderTooLargeForGenerate):
        list(generate_nonisomorphic(10))
    with pytest.raises(KOutOfRange):
        list(generate_nonisomorphic(0))


def test_orderly_tests_per_level(monkeypatch):
    """The last-swap prefilter leaves few more masks than children for the
    shared walk at every level."""
    tested: collections.Counter = collections.Counter()
    canonical_masks = search._canonical_masks

    def walking(parent, codes, alive, reverse):
        tested[len(parent) + 1] += alive.bit_count()
        return canonical_masks(parent, codes, alive, reverse)

    monkeypatch.setattr(search, "_canonical_masks", walking)
    assert sum(1 for _ in generate_nonisomorphic(7)) == KNOWN_COUNTS[7]
    assert dict(tested) == ORDERLY_TESTS


def _parents(m: int) -> list[tuple[int, ...]]:
    """The parents of generation level m: the rows of the graphs of order m-1."""
    return [g.adj for g in generate_nonisomorphic(m - 1)]


def _child(parent: tuple[int, ...], mask: int) -> tuple[int, ...]:
    top = len(parent)
    return (*[parent[v] | ((mask >> v & 1) << top) for v in range(top)], mask)


def test_last_swap_prefilter_skips_only_rejected_extensions():
    skipped = 0
    for m in range(2, 8):
        top = m - 1
        reverse = search._subset_images(range(top - 1, -1, -1))
        for parent in _parents(m):
            last_column = search._column_codes(parent, top)[top - 1]
            for mask in range(1 << top):
                if reverse[mask] >> 1 < last_column:
                    skipped += 1
                    adj = _child(parent, mask)
                    assert search._min_columns(adj, search._column_codes(adj, m), orderly=True) is None
    masks = sum(KNOWN_COUNTS[m - 1] << (m - 1) for m in range(2, 8))
    assert skipped == masks - sum(ORDERLY_TESTS.values())


def test_generation_runs_no_per_mask_search(monkeypatch):
    """The shared walk decides every mask itself: generation never calls
    ``_min_columns``, which canonical labeling still uses."""
    def refuse(*args, **kwargs):
        raise AssertionError("generation ran a per-mask search")

    with monkeypatch.context() as patch:
        patch.setattr(search, "_min_columns", refuse)
        graphs = list(generate_nonisomorphic(7))
    assert len(graphs) == KNOWN_COUNTS[7]
    rng = random.Random(71)
    for g in graphs[::50]:
        assert canonical_form(_relabel(g, _shuffled(7, rng))) == g


@pytest.mark.parametrize("m", [7, 8, 9])
def test_insertion_bound_keeps_every_verdict(m):
    """The shared walk, with its insertion bound, its placed classes and its
    checks of the last vertex, gives every mask of every parent of order
    m-1, handed over as every code without the prefilter, the verdict of
    the mask's own plain orderly test, and returns the accepted children by
    increasing mask.  At m = 9 the parents are a fixed sample of the
    order-8 catalog: every 83rd graph, from the empty graph on, and the
    complete graph."""
    top = m - 1
    reverse = search._subset_images(range(top - 1, -1, -1))
    parents = _parents(m)
    if m == 9:
        parents = parents[::83] + [complete_graph(top).adj]
        assert parents[0] == empty_graph(top).adj
    accepted = 0
    for parent in parents:
        codes = search._column_codes(parent, top)
        walked = search._canonical_masks(parent, codes, (1 << (1 << top)) - 1, reverse)
        plain = [adj for mask, adj in enumerate(_child(parent, mask) for mask in range(1 << top))
                 if search._min_columns(adj, codes + [reverse[mask]], orderly=True) is not None]
        assert walked == plain, (parent, [adj[-1] for adj in walked], [adj[-1] for adj in plain])
        accepted += len(plain)
    assert accepted == {7: KNOWN_COUNTS[7], 8: 12346, 9: 2841}[m]


def test_generation_matches_golden_hashes_to_order_8():
    for n in range(1, 9):
        payload = "".join(encode_graph6(g) + "\n" for g in generate_nonisomorphic(n)).encode("ascii")
        assert hashlib.sha256(payload).hexdigest() == GENERATION_GOLDEN[n], n


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


def test_canonical_form_of_the_order_0_graph():
    empty = parse_graph6("?")
    assert empty.n == 0 and canonical_form(empty) == empty


def test_canonical_form_is_isomorphism_invariant():
    g = wheel_graph(6)
    relabeled = _relabel(g, _shuffled(g.n, random.Random(6)))
    assert relabeled != g  # the relabeling moves the labeled graph
    assert canonical_graph6(g) == canonical_graph6(relabeled)


def _networkx(g: Graph) -> nx.Graph:
    h = nx.Graph(g.edges())
    h.add_nodes_from(range(g.n))
    return h


def _above_bruteforce_orders() -> list[Graph]:
    """Seeded G(n, 1/2) graphs at orders 9-14, C_12, Petersen and K_{2x6}."""
    rng = random.Random(914)
    graphs = [Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
              for n in range(9, 15) for _ in range(4)]
    matching = Graph.from_edges(12, [(v, v + 1) for v in range(0, 12, 2)])
    return graphs + [cycle_graph(12), petersen_graph(), _complement(matching)]


def test_canonical_form_above_the_bruteforce_orders():
    """Canonical mode where no brute force reaches: three relabelings of each
    graph share one canonical form, which is its own canonical form and
    isomorphic to the graph."""
    rng = random.Random(15)
    for g in _above_bruteforce_orders():
        canon = canonical_form(g)
        for _ in range(3):
            assert canonical_form(_relabel(g, _shuffled(g.n, rng))) == canon, encode_graph6(g)
        assert canonical_form(canon) == canon
        assert nx.is_isomorphic(_networkx(canon), _networkx(g))


def test_orderly_and_canonical_modes_agree_order_7():
    """The orderly test accepts an order-7 child exactly when canonical mode
    returns its own column codes."""
    reverse = search._subset_images(range(5, -1, -1))
    for parent in _parents(7):
        codes = search._column_codes(parent, 6)
        for mask in range(64):
            adj = _child(parent, mask)
            child = codes + [reverse[mask]]
            orderly = search._min_columns(adj, child, orderly=True) is not None
            assert orderly == (search._min_columns(adj, list(child), orderly=False) == child), (parent, mask)


def test_labeling_search_budget():
    """The canonical labeling search stops with ``LimitExceeded`` past
    ``LABELING_NODE_BUDGET`` nodes (about 1 s on C_18), and K_{2x8}, at
    219201 nodes, still passes."""
    started = time.monotonic()
    with pytest.raises(LimitExceeded, match="labeling search"):
        canonical_form(cycle_graph(18))
    assert time.monotonic() - started <= 10.0
    k2x8 = _complement(Graph.from_edges(16, [(v, v + 1) for v in range(0, 16, 2)]))
    assert canonical_form(_relabel(k2x8, _shuffled(16, random.Random(16)))) == k2x8


def test_canonical_dedup_ingest_over_the_budget_returns_no_catalog(tmp_path: Path, monkeypatch):
    """A canonical-dedup ingest whose labeling search passes the budget on
    a later line raises, and hands back no partial catalog."""
    path = tmp_path / "cycles.g6"
    graphs = [complete_graph(12), cycle_graph(12), cycle_graph(12)]
    path.write_text("".join(encode_graph6(g) + "\n" for g in graphs), encoding="ascii")
    assert len(enumerate_catalog(12, path=str(path), dedup="canonical")) == 2
    monkeypatch.setattr(search, "LABELING_NODE_BUDGET", 1000)
    with pytest.raises(LimitExceeded):
        enumerate_catalog(12, path=str(path), dedup="canonical")
    assert len(enumerate_catalog(12, path=str(path))) == 3  # as-is ingest runs no labeling search


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


def test_catalog_ingest_names_the_line_of_another_order(tmp_path: Path):
    path = tmp_path / "orders.g6"
    path.write_text("D??\n\nBw\nD??\n", encoding="ascii")
    with pytest.raises(MalformedEncoding, match=r"orders\.g6:3: order 3, expected 5$"):
        enumerate_catalog(5, path=str(path))
    bad: list = []
    assert enumerate_catalog(5, path=str(path), lenient=True, bad=bad).graph6_lines == ("D??", "D??")
    assert bad == [(3, "order 3, expected 5")]


def test_catalog_ingest_non_ascii_line(tmp_path: Path):
    path = tmp_path / "accented.g6"
    path.write_bytes("A_\né\n".encode("utf-8"))
    with pytest.raises(MalformedEncoding, match=r"accented\.g6:2: byte out of graph6 range"):
        enumerate_catalog(2, path=str(path))
    with pytest.raises(MalformedEncoding, match=r"accented\.g6:2:"):
        list(search._read_graph6_file(str(path), lenient=False, bad=[]))
    assert enumerate_catalog(2, path=str(path), lenient=True).graph6_lines == ("A_",)
    bad: list = []
    good = list(search._read_graph6_file(str(path), lenient=True, bad=bad))
    assert [(lineno, text) for lineno, text, _g in good] == [(1, "A_")]
    assert [lineno for lineno, _message in bad] == [2]


def test_catalog_ingest_graph6_header(tmp_path: Path):
    """A header is taken off a line's text, a bare header is an empty
    graph6 string, and a header followed by whitespace stays malformed."""
    path = tmp_path / "header.g6"
    path.write_text(">>graph6<<A_\n\n  A_  \n>>graph6<<\n", encoding="ascii")
    with pytest.raises(MalformedEncoding, match=r"header\.g6:4: empty graph6 string$"):
        enumerate_catalog(2, path=str(path))
    assert enumerate_catalog(2, path=str(path), lenient=True).graph6_lines == ("A_", "A_")
    bad: list = []
    good = list(search._read_graph6_file(str(path), lenient=True, bad=bad))
    assert [(lineno, text) for lineno, text, _g in good] == [(1, "A_"), (3, "A_")]
    assert [lineno for lineno, _message in bad] == [4]
    path.write_text(">>graph6<< A_\n", encoding="ascii")
    assert list(search._read_graph6_file(str(path), lenient=True, bad=[])) == []


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


@pytest.mark.parametrize("kept", [slice(29), slice(34), slice(1, 30)], ids=["short", "long", "short_and_shifted"])
def test_survey_resume_rejects_wrong_record_count(tmp_path: Path, catalog, kept):
    # A wrong count is reported even when the records kept are wrong too.
    cat = Catalog.from_graphs(5, catalog(5))
    path, data = _full_jsonl(tmp_path, cat)
    partial = "".join(data.decode().splitlines(keepends=True)[kept])
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


def test_resume_check_streams_the_file(tmp_path: Path):
    """Checking 50,000 records and cutting a torn tail allocates well under
    the file's 2.6 MB: the file is read one line at a time."""
    lines = [encode_graph6(cycle_graph(3 + i % 8)) for i in range(50_000)]
    path = tmp_path / "records.jsonl"
    records = "".join(json.dumps({"graph6": line, "kfc": False, "minimal": False}) + "\n" for line in lines)
    path.write_text(records + '{"graph6": "Ch', encoding="ascii")
    tracemalloc.start()
    try:
        search._check_resume(str(path), lines, len(lines))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text(encoding="ascii") == records
    assert peak < 1 << 20, peak


def test_survey_counterexample_entries_reparse():
    from factorcrit import check_conjecture

    planted = hunt_counterexamples([6], k_rule=2, invert_predicate=True)
    assert planted
    for graph6, theorem in planted:
        g = parse_graph6(graph6)
        assert g.n == 6
        # the planted failure names the minimum-degree statement and the graph
        # genuinely satisfies it, proving the self-test produced the entry
        assert theorem == "C1.2"
        assert check_conjecture(g, 4).passed


# The planted failures of `hunt --self-test` at orders 3-8 per offset c
# (k = n - c), all of C1.2, recorded while the survey still inverted the
# minimum-degree verdict itself.
SELF_TEST_PLANTS = {
    2: [
        "Bw", "C~", "D~{", "E~~w", "F~~~w", "G~~~~{",
    ],
    4: [
        "DK{", "DLo", "EK~o", "ELrw", "ELv_", "FK~vg", "FLr~o", "FLvfw", "FLvn_",
        "GK~vno", "GLr~vs", "GLvf~w", "GLvnf{", "GLvnno",
    ],
    6: [
        "F@QFw", "F@QuW", "F@QN_", "F@Q^?", "F@Ue?", "G@QF~w", "G@QuvO", "G@Qu^o",
        "G@QNfw", "G@QNno", "G@Q^Fo", "G@Q^V_", "G@rNf_", "G@UeF{", "G@UefW", "G@UevG",
        "G@UeNo", "G@UenO", "G@Ue^_", "G@UuV?", "G@Umf?", "G@U^FG", "G@U^FC", "G@]uEc",
        "G@]uE[", "G@]uMO",
    ],
}


@pytest.mark.parametrize("jobs", [1, 2])
def test_hunt_self_test_plants_are_pinned(tmp_path: Path, catalog, jobs):
    files = {}  # the generated catalogs, ingested rather than generated once per call
    for n in range(3, 9):
        files[n] = str(tmp_path / f"order{n}.g6")
        Path(files[n]).write_text("".join(encode_graph6(g) + "\n" for g in catalog(n)))
    expected = {c: [(line, "C1.2") for line in lines] for c, lines in SELF_TEST_PLANTS.items()}
    for c, plants in expected.items():
        surveyed = {n: path for n, path in files.items() if n - c >= 1}  # k = n - c is valid
        assert hunt_counterexamples(range(3, 9), k_rule=c, files=surveyed, jobs=jobs,
                                    invert_predicate=True) == plants
    # all valid k per order, ascending: offsets 6, 4 and 2 in turn
    by_order = [(line, theorem) for n in range(3, 9) for c in (6, 4, 2)
                for line, theorem in expected[c] if parse_graph6(line).n == n]
    assert hunt_counterexamples(range(3, 9), files=files, jobs=jobs, invert_predicate=True) == by_order


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
        record = search._survey_record(line, parse_graph6(line).adj, k)
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


@pytest.mark.parametrize(
    "orders, rule, shown",
    [(range(7, 6), "all-valid", "7..5"), (range(1, 3), "all-valid", "1..2"),
     (range(4, 5), 3, "4..4"), ([4, 3], 4, "[4, 3]")],
    ids=["empty-range", "orders-1-2", "odd-offset", "offset-too-large"],
)
def test_hunt_with_nothing_to_survey_raises(monkeypatch, orders, rule, shown):
    monkeypatch.setattr(search, "enumerate_catalog", lambda *a, **kw: pytest.fail("catalog built"))
    with pytest.raises(KOutOfRange, match=rf"orders {re.escape(shown)} .*rule") as info:
        hunt_counterexamples(orders, k_rule=rule)
    assert ("all valid k" if rule == "all-valid" else f"k = n - {rule}") in str(info.value)


def test_hunt_above_the_generation_order_raises_before_any_catalog(monkeypatch, tmp_path):
    monkeypatch.setattr(search, "enumerate_catalog", lambda *a, **kw: pytest.fail("catalog built"))
    with pytest.raises(OrderTooLargeForGenerate, match="stops at order 9"):
        hunt_counterexamples(range(8, 11), k_rule=6)
    monkeypatch.undo()
    # An order-10 file is ingested, not generated, so it still passes.
    path = tmp_path / "order10.g6"
    path.write_text(f"{encode_graph6(complete_graph(10))}\n{encode_graph6(cycle_graph(10))}\n")
    assert hunt_counterexamples([10], k_rule=6, files={10: str(path)}) == []


def test_hunt_builds_no_catalog_for_an_order_without_k(monkeypatch):
    built: list[int] = []
    original = search.enumerate_catalog

    def recording(n, path=None):
        built.append(n)
        return original(n, path=path)

    monkeypatch.setattr(search, "enumerate_catalog", recording)
    assert hunt_counterexamples(range(2, 7), k_rule=4) == []  # k = n - 4
    assert built == [5, 6]


def test_hunt_rejects_a_file_for_an_order_it_does_not_hunt(monkeypatch):
    monkeypatch.setattr(search, "enumerate_catalog", lambda *a, **kw: pytest.fail("catalog built"))
    with pytest.raises(PreconditionUnmet, match=r"orders \[9\]"):
        hunt_counterexamples(range(4, 6), files={9: "/nonexistent.g6"})
    with pytest.raises(PreconditionUnmet, match=r"orders \[3, 9\]"):
        hunt_counterexamples([4, 6], k_rule=2, files={9: "a.g6", 3: "b.g6", 6: "c.g6"})
    # Order 4 is hunted, but k = n - 4 = 0 is not valid there.
    with pytest.raises(PreconditionUnmet, match=r"orders \[4\]"):
        hunt_counterexamples(range(4, 6), k_rule=4, files={4: "/nonexistent.g6"})


@pytest.mark.parametrize("k_rule", ["bogus", True, False, 2.0, None])
def test_hunt_rejects_a_k_rule_that_is_neither_all_valid_nor_an_int(monkeypatch, k_rule):
    monkeypatch.setattr(search, "enumerate_catalog", lambda *a, **kw: pytest.fail("catalog built"))
    with pytest.raises(PreconditionUnmet, match=rf"not {re.escape(repr(k_rule))}$"):
        hunt_counterexamples([6], k_rule=k_rule)


def _plant_a_c12_failure(monkeypatch):
    """Make every minimal graph's statement verdicts one failed C1.2."""
    from factorcrit.verifiers import TheoremVerdict

    failed = [TheoremVerdict("C1.2", True, False, {"planted": True})]
    monkeypatch.setattr(search, "minimal_verdicts", lambda g, k, verified=False: failed)


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_stops_at_the_first_failed_proven_statement(tmp_path: Path, monkeypatch, jobs):
    """The record of the failing graph is written before the survey stops;
    EK~o is the first minimally 2-factor-critical graph of order 6."""
    _plant_a_c12_failure(monkeypatch)
    path = tmp_path / "violation.jsonl"
    with pytest.raises(TheoremViolated, match="^C1.2 failed on EK~o$"):
        survey(enumerate_catalog(6), 2, jobs=jobs, jsonl_path=str(path))
    records = path.read_text().splitlines()
    assert len(records) == 119 and json.loads(records[-1])["graph6"] == "EK~o"


@pytest.mark.parametrize("jobs", [1, 2])
def test_survey_records_an_error_and_counts_it_only_in_total(tmp_path: Path, monkeypatch, jobs):
    """K_6 is 2-factor-critical and past the degree gate; its planted error
    is written and reported, and it is not counted as k-factor-critical."""
    cat = enumerate_catalog(6)
    clean = survey(cat, 2)
    target = encode_graph6(complete_graph(6))
    kfc_and_minimal = search.kfc_and_minimal

    def failing(g, k):
        if encode_graph6(g) == target:
            raise FactorCritError("planted")
        return kfc_and_minimal(g, k)

    monkeypatch.setattr(search, "kfc_and_minimal", failing)
    path = tmp_path / "errors.jsonl"
    report = survey(cat, 2, jobs=jobs, jsonl_path=str(path))
    assert report.errors == [(target, "planted")]
    assert report.total == clean.total == len(cat)
    assert report.kfc_count == clean.kfc_count - 1
    assert report.minimal_count == clean.minimal_count
    lines = path.read_text().splitlines()
    assert len(lines) == len(cat)
    assert [line for line in lines if '"error"' in line] == [
        '{"error": "planted", "graph6": "%s", "kfc": false, "minimal": false}' % target]


def test_survey_tallies_configuration_labels_and_predicates(monkeypatch):
    """C_7 is minimally 1-factor-critical and 7 - 1 is a family order, so
    its planted edge classifications and predicate reports are tallied."""
    from factorcrit.configurations import PredicateCheck, PredicateReport

    def match(label, ambiguous=False):
        return SimpleNamespace(label=label, family="A", ambiguity_flag=ambiguous)

    entries = {  # edge -> (classification, predicate report)
        (0, 1): (match("Unclassified"), None),
        (1, 2): (None, None),
        (2, 3): (match("A1", ambiguous=True),
                 PredicateReport("A1", "A", True, (PredicateCheck("a", True), PredicateCheck("b", False)))),
        (3, 4): (match("A2"), PredicateReport("A2", "A", False, ())),
        (4, 5): (match("A1"), PredicateReport("A1", "A", True, (PredicateCheck("a", True),))),
    }
    monkeypatch.setattr(search, "certify_minimal_edges", lambda g, k: {
        e: SimpleNamespace(match=m, witness=0) for e, (m, _report) in entries.items()})
    monkeypatch.setattr(search, "config_predicates", lambda g, e, witness, m: entries[e][1])
    cat = Catalog.from_graphs(7, [cycle_graph(7)])
    line = cat.graph6_lines[0]
    report = survey(cat, 1, raise_on_violation=False)
    assert report.minimal_count == 1
    assert report.config_label_counts == {"A1": 2, "A2": 1, "Unclassified": 1}
    assert report.ambiguous_count == 1
    assert report.predicate_counts == {"passed": 2, "failed": 1, "vacuous_edges": 1, "skipped_edges": 1}
    assert report.counterexamples == [(line, "config-completeness"), (line, "config-predicates")]
    with pytest.raises(TheoremViolated, match=f"^config-completeness failed on {re.escape(line)}$"):
        survey(cat, 1)


def test_hunt_lists_every_failed_statement(monkeypatch):
    _plant_a_c12_failure(monkeypatch)
    assert hunt_counterexamples([6], k_rule=4) == [("EK~o", "C1.2"), ("ELrw", "C1.2"), ("ELv_", "C1.2")]


def test_survey_pool_is_capped_at_the_cpu_count(monkeypatch):
    """The cap is the CPUs this process may run on, not the machine's count."""
    requested: list[int] = []

    class Pool:  # runs the ranges in this process, recording the worker count
        def __init__(self, processes, initializer, initargs):
            requested.append(processes)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def imap(self, func, items):
            return map(func, items)

    fork = SimpleNamespace(Pool=Pool)
    monkeypatch.setattr(multiprocessing, "get_context", lambda method: fork)
    cat = enumerate_catalog(7)
    expected = survey(cat, 3).to_json()
    monkeypatch.setattr(search.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {0, 2, 5})
    assert survey(cat, 3, jobs=5000).to_json() == expected
    assert survey(cat, 3, jobs=2).to_json() == expected
    assert requested == [3, 2]
    monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: {1})  # pinned: in process
    assert survey(cat, 3, jobs=5000).to_json() == expected
    assert requested == [3, 2]
    monkeypatch.delattr(search.os, "sched_getaffinity")  # no affinity: the CPU count
    monkeypatch.setattr(search.os, "cpu_count", lambda: 3)
    assert survey(cat, 3, jobs=5000).to_json() == expected
    assert requested == [3, 2, 3]
    monkeypatch.setattr(search.os, "cpu_count", lambda: None)  # unknown: in process
    assert survey(cat, 3, jobs=5000).to_json() == expected
    assert requested == [3, 2, 3]


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
    """A generated catalog keeps the rows it was built from: no survey of
    it, in process or pooled, parses a line."""
    cat = enumerate_catalog(7)
    calls = _count_parses(monkeypatch)
    first = survey(cat, 3, jsonl_path=str(tmp_path / "first.jsonl"))
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
    """A catalog made from lines decodes each of them exactly once, on the
    first pass, even when that pass resumes after ``skip`` graphs."""
    lines = enumerate_catalog(7).graph6_lines
    cat = Catalog(7, "memory", "as-is", lines)
    calls = _count_parses(monkeypatch)
    survey(cat, 3, skip=1000)
    survey(cat, 3)
    survey(cat, 5, jobs=2)
    assert calls == list(lines)


def test_survey_parses_nothing_in_a_catalog_built_from_graphs(tmp_path: Path, monkeypatch):
    """Generated and ingested catalogs survey, in process and through the
    pool, with ``parse_graph6`` gone; forked workers inherit the patch."""
    path = tmp_path / "cat6.g6"
    path.write_text("".join(line + "\n" for line in enumerate_catalog(6).graph6_lines))
    generated, ingested = enumerate_catalog(6), enumerate_catalog(6, path=str(path))

    def broken(text):
        raise AssertionError(f"parsed {text}")

    monkeypatch.setattr(search, "parse_graph6", broken)
    for cat in (generated, ingested):
        assert survey(cat, 2, jobs=2).to_json() == survey(cat, 2, jobs=1).to_json()


def _flattened(items) -> list[dict]:
    """The records of ``_records`` items, each run of degree-gated lines
    spelled out as its graphs' short records."""
    records = []
    for item in items:
        if isinstance(item, dict):
            records.append(item)
        else:
            records += [{"graph6": line, "kfc": False, "minimal": False} for line in item]
    return records


@pytest.mark.parametrize("direct", [True, False], ids=["direct", "ingested"])
def test_pool_records_equal_in_process_records_after_skip(tmp_path: Path, direct):
    """Graph by graph: the pool's ranges split the runs of degree-gated
    graphs at other places than one pass does, so the items are compared
    spelled out."""
    path = tmp_path / "cat7.g6"
    lines = enumerate_catalog(7).graph6_lines
    path.write_text("".join(line + "\n" for line in lines))
    cat = Catalog(7, str(path), "as-is", lines) if direct else enumerate_catalog(7, path=str(path))
    for skip in (1, 700, 980):
        in_process = list(search._iter_records(cat, skip, 3, 1))
        assert not all(isinstance(item, dict) for item in in_process)
        pooled = _flattened(search._iter_records(cat, skip, 3, 2))
        assert pooled == _flattened(in_process)
        assert [record["graph6"] for record in pooled] == list(lines[skip:])


def test_min_degree_column_equals_each_graphs_min_degree():
    for n in range(1, 9):
        cat = enumerate_catalog(n)
        assert list(cat._min_degrees) == [g.min_degree() for g in cat]
        fresh = Catalog(n, cat.source, cat.dedup, cat.graph6_lines)
        assert fresh._min_degrees == cat._min_degrees  # from lines decoded on first use
        assert cat == fresh and hash(cat) == hash(fresh)
    assert [f.name for f in dataclasses.fields(cat)] == ["n", "source", "dedup", "graph6_lines"]
    part = dataclasses.replace(cat, graph6_lines=cat.graph6_lines[5:20])
    assert "_min_degrees" not in vars(part) and "_rows" not in vars(part)
    assert part._min_degrees == cat._min_degrees[5:20]
    assert part == dataclasses.replace(cat, graph6_lines=cat.graph6_lines[5:20])


@pytest.mark.parametrize("jobs", [1, 2])
def test_resume_inside_a_gated_run_equals_an_unbroken_sweep(tmp_path: Path, jobs):
    cat = enumerate_catalog(7)
    k = 3
    whole = tmp_path / "whole.jsonl"
    survey(cat, k, jsonl_path=str(whole))
    text = whole.read_text(encoding="utf-8")
    gated = [d <= k for d in cat._min_degrees]
    # skip lands between two gated graphs, with at least 64 graphs after it
    skip = next(i for i in range(500, len(cat)) if gated[i - 1] and gated[i])
    assert len(cat) - skip >= 64  # enough for jobs=2 to start a pool
    resumed = tmp_path / "resumed.jsonl"
    resumed.write_text("".join(text.splitlines(keepends=True)[:skip]), encoding="utf-8")
    survey(Catalog(7, "memory", "as-is", cat.graph6_lines), k, jobs=jobs, jsonl_path=str(resumed), skip=skip)
    assert resumed.read_bytes() == whole.read_bytes()


def test_a_violation_leaves_the_records_up_to_it(tmp_path: Path, monkeypatch):
    """At jobs=1 the gated runs ahead of the violating record are written,
    and nothing after it."""
    cat = enumerate_catalog(7)
    k = 3
    whole = tmp_path / "whole.jsonl"
    survey(cat, k, jsonl_path=str(whole))
    lines = whole.read_text(encoding="utf-8").splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if json.loads(line)["minimal"])
    assert sum(d <= k for d in cat._min_degrees[:first]) > 1
    _plant_a_c12_failure(monkeypatch)
    path = tmp_path / "violation.jsonl"
    with pytest.raises(TheoremViolated, match=f"^C1.2 failed on {re.escape(cat.graph6_lines[first])}$"):
        survey(cat, k, jsonl_path=str(path))
    written = path.read_text(encoding="utf-8").splitlines(keepends=True)
    assert written[:first] == lines[:first] and len(written) == first + 1
    assert json.loads(written[first])["graph6"] == cat.graph6_lines[first]


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


def test_jsonl_line_equals_the_encoder(tmp_path: Path, monkeypatch):
    """Every written line, those of degree-gated runs included, is the
    encoder's line for the record it holds, at jobs 1 and 2, whose files
    are the same bytes."""
    encoder = json.JSONEncoder(sort_keys=True)
    kinds: collections.Counter = collections.Counter()
    backslashed = collections.Counter()
    single_runs = 0
    path = tmp_path / "records.jsonl"
    # K_4 passes the degree gate at k = 2 and "C\\" does not: gated runs of
    # one and of two graphs, backslashed, which pool ranges of 32 split.
    crafted = Catalog(4, "memory", "as-is", ("C~", "C\\", "C~", "C\\", "C\\", "C~") * 12)
    sweeps = [(enumerate_catalog(n), k) for n in range(3, 8) for k in valid_k_values(n)] + [(crafted, 2)]
    texts = {}
    for jobs in (1, 2):
        for index, (cat, k) in enumerate(sweeps):
            survey(cat, k, jobs=jobs, jsonl_path=str(path))
            text = path.read_text(encoding="utf-8")
            assert texts.setdefault(index, text) == text
            lines = text.splitlines(keepends=True)
            assert len(lines) == len(cat)
            runs = [len(list(run)) for gated, run in itertools.groupby(d <= k for d in cat._min_degrees) if gated]
            single_runs += runs.count(1)
            for line, degree in zip(lines, cat._min_degrees):
                record = json.loads(line)
                assert line == encoder.encode(record) + "\n"
                kinds[(len(record), record["kfc"], "verdicts" in record, "config" in record)] += 1
                backslashed[degree <= k] += "\\" in record["graph6"]
    assert kinds[(3, False, False, False)] and kinds[(3, True, False, False)]  # short records
    assert any(verdicts and config for _size, _kfc, verdicts, config in kinds)  # minimal records
    assert backslashed[True] and backslashed[False]  # graph6 byte 92, gated and not
    assert single_runs

    def failing(g, k):
        raise PreconditionUnmet("planted")

    monkeypatch.setattr(search, "kfc_and_minimal", failing)
    record = search._survey_record("E~~w", parse_graph6("E~~w").adj, 2)
    assert record["error"] == "planted"
    assert search._jsonl_line(record) == encoder.encode(record) + "\n"


def test_degree_gated_graphs_skip_the_criticality_test(monkeypatch):
    cat = enumerate_catalog(7)
    calls: list[str] = []
    original = search.kfc_and_minimal

    def counting(g, k):
        calls.append(encode_graph6(g))
        return original(g, k)

    monkeypatch.setattr(search, "kfc_and_minimal", counting)
    lines = list(cat.graph6_lines)
    for k in valid_k_values(7):
        passing = [line for line, g in zip(lines, cat) if g.min_degree() >= k + 1]
        survey(cat, k)
        assert calls == passing
        calls.clear()
        monkeypatch.setattr(search, "_worker_survey", (cat, k))
        items = search._survey_range((0, 500)) + search._survey_range((500, len(cat)))
        assert [record["graph6"] for record in _flattened(items)] == lines
        assert calls == passing
        calls.clear()


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("bad", ["garbage!!", "D??", ">>graph6<<C~", "C~\t"],
                         ids=["malformed", "order-5", "header", "padded"])
def test_direct_catalog_with_bad_line_raises(tmp_path: Path, jobs, bad):
    """The catalog is decoded before the sink opens, so no record is written.
    A catalog line must be bare graph6, which its JSONL record holds as it
    is."""
    cat = Catalog(4, "memory", "as-is", ("C~",) * 70 + (bad,))
    sink = tmp_path / "records.jsonl"
    with pytest.raises(MalformedEncoding):
        survey(cat, 2, jobs=jobs, jsonl_path=str(sink))
    assert not sink.exists()
    with pytest.raises(MalformedEncoding):
        list(cat)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("skip", [0, 3])
def test_bad_line_leaves_an_existing_jsonl_file_alone(tmp_path: Path, jobs, skip):
    """A bad line raises before the resume check can cut the file or the
    sink can truncate or append to it."""
    good = Catalog(4, "memory", "as-is", ("C~",) * 70)
    sink = tmp_path / "records.jsonl"
    survey(good, 2, jsonl_path=str(sink))
    records = sink.read_bytes().splitlines(keepends=True)
    before = b"".join(records[:skip]) + records[skip][:9]  # then a torn line, as a crash leaves
    sink.write_bytes(before)
    cat = Catalog(4, "memory", "as-is", ("C~",) * 70 + ("garbage!!",))
    with pytest.raises(MalformedEncoding):
        survey(cat, 2, jobs=jobs, jsonl_path=str(sink), skip=skip)
    assert sink.read_bytes() == before
