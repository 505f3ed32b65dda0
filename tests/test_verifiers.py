from __future__ import annotations

import pytest

from factorcrit import (
    Graph,
    NotMinimallyCritical,
    OrderTooSmall,
    PreconditionUnmet,
    add_edge,
    check_conjecture,
    check_degree_bounds,
    check_maxdeg_profile,
    check_n4_characterization,
    check_star_structure,
    check_two_maxdeg_nonadjacent,
    complete_graph,
    cycle_graph,
    minimal_verdicts,
    wheel_graph,
)
from factorcrit.verifiers import _has_path_of_three_edges
from goldens import VERDICTS_GOLDEN, random_graphs, verdicts_digest


def test_degree_bounds_examples():
    verdict = check_degree_bounds(complete_graph(6), 4)
    assert not verdict.applicable and verdict.passed is None
    verdict = check_degree_bounds(cycle_graph(5), 1)
    assert verdict.applicable and verdict.passed
    verdict = check_degree_bounds(wheel_graph(7), 2)
    assert verdict.applicable and verdict.passed
    assert verdict.theorem == "T1.1"


def test_degree_bounds_requires_minimality():
    with pytest.raises(NotMinimallyCritical):
        check_degree_bounds(complete_graph(8), 2)


def test_conjecture_examples_and_instantiation():
    assert check_conjecture(complete_graph(6), 4).passed
    assert check_conjecture(cycle_graph(5), 1).passed
    assert check_conjecture(wheel_graph(7), 2).passed
    assert check_conjecture(complete_graph(6), 4).theorem == "C1.2"
    assert check_conjecture(cycle_graph(9), 1).theorem == "T4.1"


def test_n4_characterization_examples():
    assert check_n4_characterization(complete_graph(8)).passed
    assert check_n4_characterization(cycle_graph(6)).passed
    assert check_n4_characterization(wheel_graph(5)).passed
    with pytest.raises(OrderTooSmall):
        check_n4_characterization(cycle_graph(5))


def test_n4_characterization_exhaustive_order_6(catalog):
    for g in catalog(6):
        assert check_n4_characterization(g).passed


def test_star_structure_examples():
    assert check_star_structure(wheel_graph(7), 2).passed
    with pytest.raises(PreconditionUnmet):
        check_star_structure(complete_graph(6), 4)  # order is k + 2
    chord = add_edge(wheel_graph(7), 0, 2)
    verdict = check_star_structure(chord, 2)
    assert verdict.passed  # neither minimal nor the star profile


def test_two_maxdeg_nonadjacent_gate():
    verdict = check_two_maxdeg_nonadjacent(cycle_graph(5), 1)
    assert not verdict.applicable  # order below k + 5
    verdict = check_two_maxdeg_nonadjacent(cycle_graph(7), 1)
    assert verdict.applicable and verdict.passed


def test_maxdeg_profile_dispatch():
    w7 = wheel_graph(7)
    verdict = check_maxdeg_profile(w7)
    assert verdict.theorem == "L2.5" and verdict.passed
    with pytest.raises(OrderTooSmall):
        check_maxdeg_profile(complete_graph(6))
    # the 7-cycle is minimally 1-factor-critical and 2-regular, so the
    # max-degree dispatch lands on the order-gated bottom branch
    verdict = check_maxdeg_profile(cycle_graph(7))
    assert verdict.theorem == "T5.5" and not verdict.applicable


def test_path_of_three_edges_helper():
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert _has_path_of_three_edges(p4, [0, 1, 2, 3]) is not None
    assert _has_path_of_three_edges(p4, [0, 1, 2]) is None
    triangle = complete_graph(3)
    assert _has_path_of_three_edges(triangle, [0, 1, 2]) is None
    k4 = complete_graph(4)
    assert _has_path_of_three_edges(k4, [0, 1, 2, 3]) is not None


def test_maxdeg_verdicts_match_recorded_digest(catalog):
    # Passing and failing verdicts with their witnesses, on every graph of
    # orders 7 and 8 and on random graphs that reach T5.5.
    for n in (7, 8):
        assert verdicts_digest(catalog(n)) == VERDICTS_GOLDEN[n], n
    assert verdicts_digest(random_graphs()) == VERDICTS_GOLDEN["random"]


def test_minimal_verdicts_bundle():
    verdicts = minimal_verdicts(wheel_graph(7), 2)
    ids = [v.theorem for v in verdicts]
    assert ids == ["C1.2", "T1.1", "C2.7", "L2.5"]
    assert all(v.passed or not v.applicable for v in verdicts)
    verdicts = minimal_verdicts(complete_graph(6), 4)
    ids = [v.theorem for v in verdicts]
    assert "L2.5" not in ids  # k is not n - 6


def test_verdict_json_shape():
    verdict = check_conjecture(wheel_graph(7), 2)
    payload = verdict.to_json(graph6="F~??w")
    assert set(payload) == {"theorem", "applicable", "pass", "witness", "graph6"}
