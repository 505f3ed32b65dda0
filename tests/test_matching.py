from __future__ import annotations

import itertools
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcrit import (
    EdgeAbsent,
    Graph,
    LimitExceeded,
    Matching,
    PerfectMatcher,
    PreconditionUnmet,
    TutteCertificate,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    delete_vertices,
    encode_graph6,
    enumerate_perfect_matchings,
    forced_edge,
    gallai_edmonds_barrier,
    has_perfect_matching,
    matching,
    max_deficiency,
    maximum_matching,
    maximum_matching_bruteforce,
    path_graph,
    petersen_graph,
    star_graph,
    tutte_violators,
    wheel_graph,
)
from factorcrit.graph import _odd_component_count, bits_list
from factorcrit.matching import (
    DEFAULT_PM_LIMIT,
    TABLE_MAX_ORDER,
    VIOLATOR_MAX_ORDER,
    VIOLATOR_MODES,
    matchable_sets,
    subset_masks,
)


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)


def _count_pms_highest_first(g: Graph) -> int:
    # Independent counting oracle: branch on the highest uncovered vertex.
    def count(mask: int) -> int:
        if mask == 0:
            return 1
        v = mask.bit_length() - 1
        rest = mask & ~(1 << v)
        total = 0
        for w in bits_list(g.adj[v] & rest):
            total += count(rest & ~(1 << w))
        return total

    return count(g.vertex_mask) if g.n % 2 == 0 else 0


def test_maximum_matching_examples():
    assert len(maximum_matching(cycle_graph(6)).edges) == 3
    assert maximum_matching(cycle_graph(6)).is_perfect
    assert len(maximum_matching(star_graph(3)).edges) == 1
    pm = maximum_matching(petersen_graph())
    assert pm.is_perfect and len(pm.edges) == 5
    assert len(maximum_matching_bruteforce(petersen_graph()).edges) == 5


def test_maximum_matching_agrees_with_oracle_exhaustively(catalog):
    for n in range(1, 8):
        for g in catalog(n):
            fast = maximum_matching(g)
            slow = maximum_matching_bruteforce(g)
            assert len(fast.edges) == len(slow.edges)


def test_maximum_matching_agrees_on_randoms_to_order_10():
    rng = random.Random(20240811)
    for _ in range(300):
        n = rng.randint(1, 10)
        g = _random_graph(rng, n, rng.choice([0.2, 0.4, 0.6, 0.8]))
        ours = len(maximum_matching(g).edges)
        assert ours == len(maximum_matching_bruteforce(g).edges)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        assert ours == len(nx.max_weight_matching(h, maxcardinality=True))


def test_maximum_matching_deterministic_cardinality():
    g = petersen_graph()
    sizes = {len(maximum_matching(g).edges) for _ in range(5)}
    assert sizes == {5}
    assert maximum_matching(g).edges == tuple(sorted(maximum_matching(g).edges))


def test_has_perfect_matching_examples():
    assert has_perfect_matching(complete_graph(2))
    assert not has_perfect_matching(complete_graph(3))
    h, _ = delete_vertices(cycle_graph(6), {0, 2})
    assert not has_perfect_matching(h)


def test_enumeration_examples_and_order():
    assert len(enumerate_perfect_matchings(cycle_graph(6)).matchings) == 2
    assert len(enumerate_perfect_matchings(complete_graph(4)).matchings) == 3
    assert len(enumerate_perfect_matchings(cycle_graph(4)).matchings) == 2
    ordered = [m.edges for m in enumerate_perfect_matchings(complete_graph(4))]
    assert ordered == [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]
    assert ordered == sorted(ordered)


def test_enumeration_counts_match_independent_oracle(catalog):
    for g in catalog(6):
        assert len(enumerate_perfect_matchings(g).matchings) == _count_pms_highest_first(g)


def test_enumeration_without_a_perfect_matching_is_polynomial():
    """Two disjoint K_15 have no perfect matching; the branching search
    alone would try every partial matching before finding none, which
    takes about 1 s on one core of a 2-CPU machine."""
    half = (1 << 15) - 1
    rows = [half & ~(1 << v) for v in range(15)] + [(half << 15) & ~(1 << v) for v in range(15, 30)]
    g = Graph(30, tuple(rows))
    start = time.perf_counter()
    result = enumerate_perfect_matchings(g, limit=1, strict=True)
    assert time.perf_counter() - start < 0.25
    assert not result.matchings and not result.truncated
    assert len(enumerate_perfect_matchings(complete_graph(31)).matchings) == 0


def _plain_perfect_matchings(adj, mask):
    """The branching search with no test before a branch: the order that
    enumeration must keep."""
    if mask == 0:
        yield ()
        return
    v_bit = mask & -mask
    rest = mask ^ v_bit
    v = v_bit.bit_length() - 1
    for w in bits_list(adj[v] & rest):
        for tail in _plain_perfect_matchings(adj, rest ^ (1 << w)):
            yield ((v, w),) + tail


def test_enumeration_order_and_truncation_equal_the_plain_search(catalog):
    """On every graph of order at most 8: the same matchings in the same
    order, and the same truncation flag, at limits below and at the count."""
    counts = set()
    for n in range(1, 9):
        for g in catalog(n):
            expected = list(_plain_perfect_matchings(g.adj, g.vertex_mask))
            counts.add(len(expected))
            for limit in (1, 2, len(expected) or 1, DEFAULT_PM_LIMIT):
                result = enumerate_perfect_matchings(g, limit=limit)
                assert [m.edges for m in result] == expected[:limit], (g.edges(), limit)
                assert result.truncated == (len(expected) > limit), (g.edges(), limit)
    assert {0, 1, 2, 105} <= counts


def test_enumeration_has_polynomial_delay():
    """Two K_17 joined by the edge 0-17.  Every matching edge of vertex 0
    inside its own K_17 leaves two odd parts, which the branching search
    alone exhausted before its first matching: about 10x more time per two
    extra vertices, 0.68 s for two K_15 on one core of a 2-CPU machine."""
    m = 17
    block = (1 << m) - 1
    rows = [block & ~(1 << v) for v in range(m)] + [(block << m) & ~(1 << v) for v in range(m, 2 * m)]
    rows[0] |= 1 << m
    rows[m] |= 1
    g = Graph(2 * m, tuple(rows))
    start = time.perf_counter()
    result = enumerate_perfect_matchings(g, limit=1)
    assert time.perf_counter() - start < 1
    assert result.truncated
    assert result.matchings[0].edges == ((0, m), *((v, v + 1) for v in range(1, m, 2)),
                                         *((v, v + 1) for v in range(m + 1, 2 * m, 2)))


def test_enumeration_truncation_and_strict():
    k6 = complete_graph(6)  # 15 perfect matchings
    result = enumerate_perfect_matchings(k6, limit=4)
    assert len(result.matchings) == 4 and result.truncated
    with pytest.raises(LimitExceeded):
        enumerate_perfect_matchings(k6, limit=4, strict=True)
    assert not enumerate_perfect_matchings(k6, limit=15).truncated
    with pytest.raises(PreconditionUnmet):
        enumerate_perfect_matchings(k6, limit=0)


def test_forced_edge_examples():
    assert forced_edge(complete_graph(2), (0, 1))
    assert not forced_edge(cycle_graph(4), (0, 1))
    p4 = path_graph(4)
    assert forced_edge(p4, (0, 1))
    assert not forced_edge(p4, (1, 2))
    with pytest.raises(EdgeAbsent):
        forced_edge(p4, (0, 3))


def test_forced_edge_iff_in_every_enumerated_matching():
    spot = [petersen_graph(), wheel_graph(7), complete_graph(8), cycle_graph(12)]
    rng = random.Random(7)
    spot += [_random_graph(rng, 12, 0.5) for _ in range(5)]
    for g in spot:
        pms = enumerate_perfect_matchings(g).matchings
        if not pms:
            continue
        for e in g.edges():
            in_all = all(e in m.edges for m in pms)
            assert forced_edge(g, e) == in_all


def _assert_table_matches_matcher(g: Graph) -> None:
    table = matchable_sets(g)
    matcher = PerfectMatcher(g)
    assert table >> (1 << g.n) == 0
    for mask in range(1 << g.n):
        assert (table >> mask & 1) == matcher.pm_exists(mask), (g.edges(), bits_list(mask))


def test_matchable_sets_equal_pm_exists_to_order_7(catalog):
    for n in range(1, 8):
        for g in catalog(n):
            _assert_table_matches_matcher(g)


@pytest.mark.parametrize("n", range(8, TABLE_MAX_ORDER + 1))
def test_matchable_sets_equal_pm_exists_on_randoms(n):
    rng = random.Random(1000 + n)
    for p in (0.25, 0.5, 0.8):
        _assert_table_matches_matcher(_random_graph(rng, n, p))
    _assert_table_matches_matcher(complete_graph(n))


def test_subset_masks_match_their_definitions():
    for n in range(TABLE_MAX_ORDER + 1):
        without, of_size = subset_masks(n)
        every = range(1 << n)
        assert without == tuple(
            sum(1 << m for m in every if not m >> w & 1) for w in range(n)
        )
        assert of_size == tuple(
            sum(1 << m for m in every if m.bit_count() == c) for c in range(n + 1)
        )


def test_matchable_sets_order_gate():
    g = complete_graph(TABLE_MAX_ORDER + 1)
    with pytest.raises(LimitExceeded):
        matchable_sets(g)
    with pytest.raises(LimitExceeded):
        subset_masks(TABLE_MAX_ORDER + 1)


def test_tutte_violators_examples():
    star = star_graph(3)
    certs = tutte_violators(star)
    assert len(certs) == 1
    assert bits_list(certs[0].x_set) == [0]
    assert certs[0].partition.odd_count == 3
    assert certs[0].deficit == 2
    certs = tutte_violators(complete_graph(3))
    assert certs[0].x_set == 0 and certs[0].deficit == 1
    assert tutte_violators(cycle_graph(6)) == []


def test_tutte_violator_modes():
    two_triangles = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    first = tutte_violators(two_triangles, "first-minimal")
    assert len(first) == 1 and first[0].x_set == 0
    all_min = tutte_violators(star_graph(3), "all-minimal")
    assert [c.x_set for c in all_min] == [1]
    everything = tutte_violators(star_graph(3), "all")
    assert len(everything) >= len(all_min)
    for cert in everything:
        assert cert.partition.odd_count > cert.x_set.bit_count()
    with pytest.raises(PreconditionUnmet):
        tutte_violators(star_graph(3), "bogus")
    with pytest.raises(PreconditionUnmet):
        tutte_violators(complete_graph(17), "all")


def _plain_violators(g: Graph) -> list[int]:
    """Every Tutte violator of ``g`` as a mask, by size ascending and then
    lexicographically, with no size skipped."""
    found = []
    for size in range(g.n + 1):
        for xs in itertools.combinations(range(g.n), size):
            x = sum(1 << v for v in xs)
            if _odd_component_count(g.adj, g.vertex_mask & ~x) > size:
                found.append(x)
    return found


def assert_violator_modes_match_the_plain_sweep(g: Graph) -> None:
    everything = _plain_violators(g)
    smallest = [x for x in everything if x.bit_count() == everything[0].bit_count()]
    expected = {"first-minimal": smallest[:1], "all-minimal": smallest, "all": everything}
    for mode in VIOLATOR_MODES:
        assert [c.x_set for c in tutte_violators(g, mode)] == expected[mode], (g.n, g.adj, mode)


def test_violator_modes_match_the_plain_sweep(catalog):
    for n in range(1, 8):
        for g in catalog(n):
            assert_violator_modes_match_the_plain_sweep(g)


@pytest.mark.parametrize("sides", [(a, b) for a in range(1, 9) for b in range(a + 2, 19 - a, 2)])
def test_violators_of_unbalanced_complete_bipartite_graphs(sides):
    """K_{a,b} with a < b and a + b even: the a-side is its only smallest
    violator, at a size the minimum degree a does not rule out."""
    g = complete_bipartite(*sides)
    for mode in ("first-minimal", "all-minimal"):
        assert [c.x_set for c in tutte_violators(g, mode)] == [(1 << sides[0]) - 1]


def test_certificate_parity_invariant(catalog):
    for g in catalog(6):
        for cert in tutte_violators(g, "all-minimal"):
            assert (cert.partition.odd_count - cert.x_set.bit_count()) % 2 == g.n % 2


def test_duality_and_berge_formula_small(catalog):
    for n in range(1, 7):
        for g in catalog(n):
            deficiency, witness = max_deficiency(g)
            pm = has_perfect_matching(g)
            assert pm == (deficiency == 0)
            assert PerfectMatcher(g).pm_exists(g.vertex_mask) == pm
            assert pm == (not tutte_violators(g, "first-minimal"))
            assert pm == (len(enumerate_perfect_matchings(g, limit=1).matchings) > 0)
            assert len(maximum_matching(g).edges) == (g.n - deficiency) // 2


@pytest.mark.parametrize("sides", [(17, 19), (29, 31)])
def test_whole_graph_matching_decisions_are_polynomial(sides):
    g = complete_bipartite(*sides)
    started = time.monotonic()
    assert not has_perfect_matching(g)
    assert not forced_edge(g, (0, sides[0]))
    assert not PerfectMatcher(g).pm_exists(g.vertex_mask)
    assert time.monotonic() - started <= 2.0


def _assert_barrier_attains_the_deficiency(g: Graph) -> None:
    barrier = gallai_edmonds_barrier(g)
    odd = _odd_component_count(g.adj, g.vertex_mask & ~barrier)
    assert odd - barrier.bit_count() == g.n - 2 * len(maximum_matching(g).edges)


def test_gallai_edmonds_barrier_attains_the_deficiency(catalog):
    for n in range(1, 8):
        for g in catalog(n):
            _assert_barrier_attains_the_deficiency(g)


@pytest.mark.parametrize("sides", [(14, 16), (30, 32)])
def test_gallai_edmonds_barrier_is_fast_where_the_search_is_gated(sides):
    g = complete_bipartite(*sides)
    started = time.monotonic()
    cert = TutteCertificate.build(g, gallai_edmonds_barrier(g))
    assert time.monotonic() - started <= 2.0
    assert bits_list(cert.x_set) == list(range(sides[0]))
    assert cert.deficit == 2
    assert g.n > VIOLATOR_MAX_ORDER
    with pytest.raises(LimitExceeded):
        tutte_violators(g)


@settings(max_examples=20, deadline=None)
@given(st.integers(20, 62), st.floats(0.02, 0.3), st.randoms(use_true_random=False))
def test_gallai_edmonds_barrier_large_orders(n, p, rng):
    started = time.monotonic()
    _assert_barrier_attains_the_deficiency(_random_graph(rng, n, p))
    assert time.monotonic() - started <= 2.0


def _definitional_barrier(g: Graph) -> tuple[int, int]:
    """(D, N(D) - D), with D built from its definition: the vertices v with
    nu(G - v) = nu(G)."""
    nu = len(maximum_matching(g).edges)
    d_set = sum(1 << v for v in range(g.n)
                if len(maximum_matching(delete_vertices(g, [v])[0]).edges) == nu)
    neighbours = {w for v in bits_list(d_set) for w in range(g.n) if g.has_edge(v, w)}
    return d_set, sum(1 << w for w in neighbours) & ~d_set


def test_gallai_edmonds_barrier_equals_its_definition(catalog, monkeypatch):
    """The barrier equals N(D) - D on every graph of order at most 8 and on
    seeded random graphs of orders 20-62, from one maximum matching.  The
    even-vertex masks that its own searches return, after that matching,
    OR to D itself, which N(D) - D alone does not pin: an isolated vertex
    is in D but in no N(D)."""
    mates_calls: list[int] = []
    searched: list[int] = []
    real_mates, real_search = matching._maximum_mates, matching._augment_from

    def counted_mates(rows):
        mate = real_mates(rows)
        mates_calls.append(1)
        return mate

    def recorded_search(root, rows, mate, n):
        found = real_search(root, rows, mate, n)
        if mates_calls:  # a search of the barrier, not of the matching
            searched.append(found)
        return found

    monkeypatch.setattr(matching, "_maximum_mates", counted_mates)
    monkeypatch.setattr(matching, "_augment_from", recorded_search)
    rng = random.Random(7)
    randoms = [_random_graph(rng, n, p) for n in range(20, 63, 3) for p in (0.03, 0.06, 0.1, 0.2)]
    for g in [g for n in range(1, 9) for g in catalog(n)] + randoms:
        d_set, expected = _definitional_barrier(g)
        mates_calls.clear()
        searched.clear()
        assert gallai_edmonds_barrier(g) == expected, encode_graph6(g)
        assert len(mates_calls) == 1
        union = 0
        for mask in searched:
            union |= mask
        assert union == d_set, encode_graph6(g)


def test_pm_exists_stops_at_the_first_root_without_an_augmenting_path(monkeypatch):
    """Greedy pairing matches the centre of K_{1,5} to one leaf and leaves
    the other four exposed.  No augmenting path starts at the first, and by
    Edmonds' lemma none ever will, so one search decides the mask."""
    searches: list[int] = []
    real_search = matching._augment_from

    def counted(root, rows, mate, n):
        searches.append(root)
        return real_search(root, rows, mate, n)

    monkeypatch.setattr(matching, "_augment_from", counted)
    g = star_graph(5)
    assert not PerfectMatcher(g).pm_exists(g.vertex_mask)
    assert searches == [2]


def test_matching_type_validation():
    g = cycle_graph(4)
    m = Matching.from_pairs(g, [(1, 0), (2, 3)])
    assert m.edges == ((0, 1), (2, 3))
    assert m.is_perfect and m.covered_mask == g.vertex_mask
    with pytest.raises(EdgeAbsent):
        Matching.from_pairs(g, [(0, 2)])
    with pytest.raises(PreconditionUnmet):
        Matching.from_pairs(g, [(0, 1), (1, 2)])


def test_oracles_share_no_search_code():
    import factorcrit
    from factorcrit import criticality, matching, oracles

    checked = {matching.PerfectMatcher, matching.maximum_matching, matching.has_perfect_matching,
               matching.tutte_violators, criticality.is_k_factor_critical}
    assert not any(value in checked for value in vars(oracles).values() if callable(value))
    for name in ("maximum_matching_bruteforce", "max_deficiency", "kfc_via_tutte"):
        assert getattr(factorcrit, name) is getattr(oracles, name)
        assert not hasattr(matching, name) and not hasattr(criticality, name)
