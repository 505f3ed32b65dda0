from __future__ import annotations

import itertools

import pytest

from factorcrit import (
    EdgeAbsent,
    Graph,
    KOutOfRange,
    NotCritical,
    NotMinimallyCritical,
    ParityMismatch,
    PreconditionUnmet,
    TheoremViolated,
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
from factorcrit.criticality import kfc_and_minimal
from factorcrit.graph import bits_list


def _valid_ks(n: int, start: int = 0) -> list[int]:
    return [k for k in range(start, n - 1) if (n - k) % 2 == 0]


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
                kfc = is_k_factor_critical(g, k).verdict
                minimal = kfc and not any(
                    is_k_factor_critical(remove_edge(g, u, v), k).verdict
                    for u, v in g.edges()
                )
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
            kfc = is_k_factor_critical(g, k).verdict
            minimal = kfc and not any(
                is_k_factor_critical(remove_edge(g, u, v), k).verdict
                for u, v in g.edges()
            )
            assert kfc_and_minimal(g, k) == (kfc, minimal), (g.edges(), k)
            kfc_count += kfc
            minimal_count += minimal
        assert (kfc_count, minimal_count) == counts, k
