from __future__ import annotations

import collections
import itertools
import random
import time

import pytest

from factorcrit import (
    EdgeAbsent,
    Graph,
    KOutOfRange,
    LimitExceeded,
    NotCritical,
    NotMinimallyCritical,
    ParityMismatch,
    PreconditionUnmet,
    TheoremViolated,
    complete_bipartite,
    complete_graph,
    connectivity,
    cycle_graph,
    delete_vertices,
    downward_criticality_check,
    enumerate_perfect_matchings,
    forced_edge,
    has_perfect_matching,
    is_k_factor_critical,
    is_minimally_kfc,
    iter_minimality_witnesses,
    kfc_via_tutte,
    minimality_certificate,
    minimality_witness,
    ps_reduction_check,
    remove_edge,
    star_graph,
    wheel_graph,
)
from factorcrit.criticality import _edge_witnesses, _witness_complements, _witness_search, kfc_and_minimal
from factorcrit.graph import bits_list
from factorcrit.matching import TABLE_MAX_ORDER, PerfectMatcher, matchable_sets, subset_masks


def _valid_ks(n: int, start: int = 0) -> list[int]:
    return [k for k in range(start, n - 1) if (n - k) % 2 == 0]


def _definitional_kfc_and_minimal(g: Graph, k: int) -> tuple[bool, bool]:
    """The ungated reference: the definitional test on G and on every G - e."""
    kfc = is_k_factor_critical(g, k).verdict
    return kfc, kfc and not any(
        is_k_factor_critical(remove_edge(g, u, v), k).verdict for u, v in g.edges()
    )


def _random_graph(rng: random.Random, n: int, p: float) -> Graph:
    return Graph.from_edges(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])


def test_definitional_examples():
    assert is_k_factor_critical(complete_graph(5), 3).verdict
    assert is_k_factor_critical(cycle_graph(5), 1).verdict
    report = is_k_factor_critical(cycle_graph(6), 2)
    assert not report.verdict
    assert bits_list(report.failing_set) == [0, 2]
    assert report.method == "definitional"


def test_failing_set_reverifies_independently():
    report = is_k_factor_critical(cycle_graph(6), 2)
    h, _ = delete_vertices(cycle_graph(6), report.failing_set)
    assert not enumerate_perfect_matchings(h, limit=1).matchings


def test_tutte_type_examples():
    assert kfc_via_tutte(complete_graph(5), 3).verdict
    report = kfc_via_tutte(star_graph(3), 0)
    assert not report.verdict and bits_list(report.failing_set) == [0]
    report = kfc_via_tutte(cycle_graph(6), 2)
    assert not report.verdict and bits_list(report.failing_set) == [0, 2]
    assert report.method == "tutte-type"


def test_parity_and_range_validation():
    with pytest.raises(ParityMismatch):
        is_k_factor_critical(cycle_graph(6), 1)
    with pytest.raises(KOutOfRange):
        is_k_factor_critical(cycle_graph(6), 6)
    with pytest.raises(KOutOfRange):
        kfc_via_tutte(cycle_graph(6), -2)


def test_oracle_agreement_exhaustive_to_order_6(catalog):
    for n in range(2, 7):
        for g in catalog(n):
            for k in _valid_ks(n):
                assert (
                    is_k_factor_critical(g, k).verdict == kfc_via_tutte(g, k).verdict
                ), (g.edges(), k)


def test_minimality_examples():
    assert is_minimally_kfc(complete_graph(6), 4)
    assert not is_minimally_kfc(complete_graph(8), 2)
    assert is_minimally_kfc(cycle_graph(5), 1)
    assert not is_minimally_kfc(complete_graph(5), 1)


def test_degree_gated_minimality_matches_definitional_to_order_7(catalog):
    # The gated helper skips the matcher on minimum degree <= k and skips
    # G - uv when u or v has degree k+1; the ungated definitional verdicts on
    # G and on every G - e must agree with it on every graph and every k.
    cases = 0
    for n in range(2, 8):
        for g in catalog(n):
            for k in _valid_ks(n):
                kfc, minimal = _definitional_kfc_and_minimal(g, k)
                assert kfc_and_minimal(g, k) == (kfc, minimal), (g.edges(), k)
                assert is_minimally_kfc(g, k) == minimal
                cases += 1
    assert cases == 3696


def test_complete_graphs_minimally_critical_at_top_k():
    for n in range(4, 11):
        assert is_minimally_kfc(complete_graph(n), n - 2)


def test_minimality_witness_examples():
    assert bits_list(minimality_witness(complete_graph(6), 4, (0, 1))) == [2, 3, 4, 5]
    # For the 5-cycle and edge (0, 1) the witness candidates are {2}, {3}, {4};
    # enumerating shows {3} leaves the matching {12, 04} avoiding the edge, so
    # the lexicographically first witness is {2}.
    assert bits_list(minimality_witness(cycle_graph(5), 1, (0, 1))) == [2]
    assert minimality_witness(complete_graph(8), 2, (0, 1)) is None
    with pytest.raises(EdgeAbsent):
        minimality_witness(cycle_graph(5), 1, (0, 2))


def test_minimality_witness_lazy_precondition():
    # K_{3,3} is not 2-factor-critical and edge (0, 3) has no witness set, so
    # the lazily checked precondition surfaces.  A non-critical graph whose
    # edge does have a witness returns it without complaint.
    from factorcrit import complete_bipartite

    with pytest.raises(NotCritical):
        minimality_witness(complete_bipartite(3, 3), 2, (0, 3))
    # C6 - {2, 3} leaves the path 1-0-5-4 whose unique perfect matching
    # contains (0, 1), so the non-critical cycle still yields a witness.
    found = minimality_witness(cycle_graph(6), 2, (0, 1))
    assert bits_list(found) == [2, 3]


def test_one_matcher_per_graph(monkeypatch):
    """The lazy criticality check of a witness search, and the k - 2 test
    of the downward check, ask the matcher already built for the graph."""
    built: list[PerfectMatcher] = []
    original = PerfectMatcher.__init__

    def counting(self, g):
        built.append(self)
        original(self, g)

    monkeypatch.setattr(PerfectMatcher, "__init__", counting)
    assert minimality_witness(complete_graph(6), 2, (0, 1)) is None
    assert len(built) == 1
    built.clear()
    assert downward_criticality_check(complete_graph(8), 4)
    assert len(built) == 1


def test_witness_iff_edge_removal_destroys_criticality(catalog):
    for n in range(2, 7):
        for g in catalog(n):
            for k in _valid_ks(n, start=1):
                if not is_k_factor_critical(g, k).verdict:
                    continue
                for e in g.edges():
                    witness = next(iter_minimality_witnesses(g, k, e), None)
                    still = is_k_factor_critical(remove_edge(g, *e), k).verdict
                    assert (witness is None) == still, (g.edges(), k, e)


def _reference_witnesses(g, k, e):
    """Witness sets the slow way: build G - S and test e for forcedness."""
    u, v = e
    others = [w for w in range(g.n) if w not in e]
    for subset in itertools.combinations(others, k):
        residual, index_map = delete_vertices(g, subset)
        if forced_edge(residual, (index_map[u], index_map[v])):
            yield sum(1 << w for w in subset)


def test_witness_masks_match_residual_reference(catalog):
    cases = 0
    for n in range(2, 8):
        for g in catalog(n):
            for k in _valid_ks(n):
                for e in g.edges():
                    expected = list(_reference_witnesses(g, k, e))
                    assert list(iter_minimality_witnesses(g, k, e)) == expected, (g.edges(), k, e)
                    cases += 1
    assert cases == 36809


def test_minimality_certificate():
    cert = minimality_certificate(cycle_graph(5), 1)
    assert set(cert.witnesses) == set(cycle_graph(5).edges())
    with pytest.raises(NotMinimallyCritical):
        minimality_certificate(complete_graph(8), 2)
    with pytest.raises(NotCritical):
        minimality_certificate(cycle_graph(6), 2)


def _matcher_certificate(g: Graph, k: int):
    """What ``minimality_certificate`` must return or raise, from the
    matcher-based ``minimality_witness`` of each edge."""
    if not is_k_factor_critical(g, k).verdict:
        return NotCritical, f"graph is not {k}-factor-critical"
    witnesses = {}
    for e in g.edges():
        found = minimality_witness(g, k, e)
        if found is None:
            return NotMinimallyCritical, f"edge {e} has no witness set"
        witnesses[e] = found
    return witnesses


def _certificate(g: Graph, k: int):
    try:
        return minimality_certificate(g, k).witnesses
    except (NotCritical, NotMinimallyCritical) as exc:
        return type(exc), str(exc)


def test_table_certificate_equals_the_matcher_path(catalog):
    """The same witness for every edge, or the same error, on every graph
    of order at most 7 at every valid k, on the minimal graphs of order 8,
    and above the table's cap, where the matcher path runs."""
    cases = [(g, k) for n in range(1, 8) for g in catalog(n) for k in range(n % 2, n, 2)]
    cases += [(g, k) for g in catalog(8) for k in (0, 2, 4, 6) if kfc_and_minimal(g, k)[1]]
    cases += [(complete_graph(TABLE_MAX_ORDER + 1), TABLE_MAX_ORDER - 1),
              (complete_graph(TABLE_MAX_ORDER + 1), TABLE_MAX_ORDER - 3),
              (cycle_graph(TABLE_MAX_ORDER + 2), 2)]
    outcomes = collections.Counter()
    for g, k in cases:
        expected = _matcher_certificate(g, k)
        assert _certificate(g, k) == expected, (g.edges(), k)
        outcomes[expected[0] if isinstance(expected, tuple) else dict] += 1
    assert outcomes[dict] > 50 and outcomes[NotCritical] and outcomes[NotMinimallyCritical] > 50, outcomes


def test_ps_reduction_examples():
    g = remove_edge(complete_graph(6), 0, 1)
    assert ps_reduction_check(g, 2, 0, 1)
    g = remove_edge(complete_graph(5), 0, 1)
    assert ps_reduction_check(g, 1, 0, 1)
    with pytest.raises(PreconditionUnmet):
        ps_reduction_check(cycle_graph(6), 0, 0, 3)  # degree sum 4 < 5
    with pytest.raises(PreconditionUnmet):
        ps_reduction_check(complete_graph(4), 2, 0, 1)  # edge present


def test_downward_criticality_examples():
    assert downward_criticality_check(complete_graph(6), 4)
    assert downward_criticality_check(wheel_graph(5), 2)
    assert downward_criticality_check(cycle_graph(5), 1)
    with pytest.raises(PreconditionUnmet):
        downward_criticality_check(cycle_graph(6), 2)  # not 2-factor-critical


def test_downward_criticality_sweep_small(catalog):
    for n in range(3, 7):
        for g in catalog(n):
            for k in _valid_ks(n, start=1):
                if is_k_factor_critical(g, k).verdict:
                    assert downward_criticality_check(g, k, raise_on_violation=True)


def test_ps_reduction_sweep_small(catalog):
    for n in range(2, 7):
        for g in catalog(n):
            for k in _valid_ks(n):
                for x, y in itertools.combinations(range(n), 2):
                    if g.has_edge(x, y):
                        continue
                    if g.degree(x) + g.degree(y) < n + k - 1:
                        continue
                    assert ps_reduction_check(g, k, x, y, raise_on_violation=True)


def test_connectivity_consequences_small(catalog):
    # Vertex connectivity at least k and edge connectivity at least k+1 on
    # every k-factor-critical graph of the small catalogs.
    for n in range(3, 7):
        for g in catalog(n):
            for k in _valid_ks(n, start=1):
                if not is_k_factor_critical(g, k).verdict:
                    continue
                kappa, lam = connectivity(g)
                assert kappa >= k and lam >= k + 1


def test_zero_k_means_perfect_matching(catalog):
    for g in catalog(6):
        assert is_k_factor_critical(g, 0).verdict == has_perfect_matching(g)


def test_theorem_violated_is_raised_not_returned():
    # No genuine violation exists; simulate by calling with an impossible
    # expectation through the raise path on a sound instance and verifying the
    # plain path returns a bool.
    assert ps_reduction_check(remove_edge(complete_graph(6), 0, 1), 2, 0, 1,
                              raise_on_violation=True) is True
    assert isinstance(TheoremViolated("x"), Exception)


def test_edge_witness_shortcut_matches_definitional_order_8(catalog):
    # kfc_and_minimal decides "G - e is still k-factor-critical" by the
    # witness search over the C(n-2, k) k-sets that avoid e; the reference
    # tests every k-set of every G - e.
    for k, counts in {2: (2190, 21), 4: (35, 5), 6: (1, 1)}.items():
        kfc_count = minimal_count = 0
        for g in catalog(8):
            kfc, minimal = _definitional_kfc_and_minimal(g, k)
            assert kfc_and_minimal(g, k) == (kfc, minimal), (g.edges(), k)
            kfc_count += kfc
            minimal_count += minimal
        assert (kfc_count, minimal_count) == counts, k


def test_table_path_at_k0_matches_definitional():
    # At k = 0 the only c-set is the whole vertex set: G is 0-factor-critical
    # iff it has a perfect matching, and minimal iff every edge is forced,
    # which makes G a perfect matching.  In the path 2-3-0-1-4-5-...-13, edge
    # 01 has both ends of degree 2 and is forced, so the table decides it.
    n = TABLE_MAX_ORDER
    order = [2, 3, 0, 1] + list(range(4, n))
    graphs = [
        Graph.from_edges(n, [(v, v + 1) for v in range(0, n, 2)]),
        Graph.from_edges(n, list(zip(order, order[1:]))),
        cycle_graph(n),
    ]
    rng = random.Random(20261019)
    graphs += [_random_graph(rng, m, p) for m in range(8, n + 1, 2) for p in (0.2, 0.3, 0.5)]
    verdicts = set()
    for g in graphs:
        expected = _definitional_kfc_and_minimal(g, 0)
        assert kfc_and_minimal(g, 0) == expected, g.edges()
        verdicts.add(expected)
    assert verdicts == {(False, False), (True, False), (True, True)}


def test_table_witness_per_edge_matches_definitional():
    # Every edge, not only up to the first removable one: e has a witness
    # on the table iff G - e is not k-factor-critical, the table's witness
    # complements are those of the matcher's witness search, and the
    # witness read off them is the search's first.
    rng = random.Random(20261019)
    tested = []
    for n in range(9, TABLE_MAX_ORDER + 1):
        without, of_size = subset_masks(n)
        for k, p in itertools.product(_valid_ks(n, start=1), (0.5, 0.65, 0.8)):
            g = _random_graph(rng, n, p)
            matcher = PerfectMatcher(g)
            if not is_k_factor_critical(g, k, matcher).verdict:
                continue
            table = matchable_sets(g)
            first_witness = _witness_search(g, k)
            for u, v in g.edges():
                forced = _witness_complements(g.adj, table, of_size[n - k], without, u, v)
                witnesses = list(_edge_witnesses(g, k, (u, v), matcher))
                assert forced == sum(1 << (g.vertex_mask ^ s) for s in witnesses), (g.edges(), k, u, v)
                assert first_witness(u, v) == next(iter(witnesses), None), (g.edges(), k, u, v)
                essential = forced != 0
                removable = is_k_factor_critical(remove_edge(g, u, v), k).verdict
                assert essential == (not removable), (g.edges(), k, u, v)
                tested.append(essential)
    assert len(tested) > 1000 and sum(tested) > 20, (len(tested), sum(tested))


@pytest.mark.parametrize("n", [TABLE_MAX_ORDER + 1, TABLE_MAX_ORDER + 2])
def test_memo_fallback_above_the_table_cap_matches_definitional(n):
    # Above the cap there is no table (it would raise), so these verdicts
    # come from the memoized matcher's witness search.
    with pytest.raises(LimitExceeded):
        matchable_sets(complete_graph(n))
    rng = random.Random(n)
    cases = [(complete_graph(n), n - 2), (complete_graph(n), n - 4), (wheel_graph(n - 1), n % 2 + 2)]
    cases += [(_random_graph(rng, n, 0.7), k) for k in (n - 6, n - 8) for _ in range(2)]
    verdicts = set()
    for g, k in cases:
        expected = _definitional_kfc_and_minimal(g, k)
        assert kfc_and_minimal(g, k) == expected, (g.edges(), k)
        verdicts.add(expected)
    assert verdicts >= {(True, False), (True, True)}


@pytest.mark.parametrize("a", [20, 30])
def test_criticality_of_large_unbalanced_bipartite_graphs_is_polynomial(a):
    """K_{a,a+2} is above the table's cap and has no perfect matching, nor
    does it keep one after losing two vertices of its smaller side, so every
    answer below asks the matcher about masks without one.  A recursion
    over vertex subsets took 1.46 s for K_{16,18} at k = 0 on one core of a
    2-CPU machine, about 3x more per vertex added to each side."""
    g = complete_bipartite(a, a + 2)
    started = time.monotonic()
    assert is_k_factor_critical(g, 0).failing_set == 0
    assert bits_list(is_k_factor_critical(g, 2).failing_set) == [0, 1]
    assert kfc_and_minimal(g, 2) == (False, False)
    assert time.monotonic() - started <= 2.0
    started = time.monotonic()
    with pytest.raises(NotCritical):
        minimality_witness(g, 2, (0, a))
    assert time.monotonic() - started <= 2.0
