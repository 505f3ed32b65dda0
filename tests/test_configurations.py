from __future__ import annotations

import itertools

import pytest

from factorcrit import (
    FamilyPreconditionUnmet,
    Graph,
    NotDeficient,
    NotMinimallyCritical,
    NotRestorable,
    ResidualInstance,
    certify_minimal_edges,
    classify_residual,
    complete_graph,
    config_predicates,
    cycle_graph,
    delete_vertices,
    residual_family,
    wheel_graph,
)
from factorcrit.configurations import (
    C2_PRIME,
    FAMILY_LABELS,
    TEMPLATES,
    UNCLASSIFIED,
    ConfigurationMatch,
    _match_template,
    _residual,
)
from factorcrit.graph import bits_list
from factorcrit.matching import TutteCertificate, tutte_violators
from goldens import (
    CLASSIFICATION_GOLDEN,
    PREDICATES_GOLDEN,
    classification_digest,
    predicates_digest,
)


def G(n, edges):
    return Graph.from_edges(n, edges)


TWO_TRIANGLES = G(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])


def _admissible(g, u, v, family):
    try:
        return ResidualInstance(g, u, v, family)
    except (FamilyPreconditionUnmet, NotDeficient, NotRestorable):
        return None


def test_instance_validation_errors():
    with pytest.raises(NotDeficient):
        ResidualInstance(cycle_graph(6), 0, 2, "C")
    with pytest.raises(FamilyPreconditionUnmet):
        ResidualInstance(TWO_TRIANGLES, 0, 1, "A")  # designated pair adjacent
    with pytest.raises(FamilyPreconditionUnmet):
        ResidualInstance(TWO_TRIANGLES, 0, 3, "B")  # wrong order for family B
    # isolated vertex separates family A (pendent after restore) from C
    lonely = G(6, [(1, 2), (1, 3), (2, 3), (4, 5), (0, 4), (0, 5)])
    assert _admissible(lonely, 0, 1, "C") is not None
    with pytest.raises(NotRestorable):
        ResidualInstance(G(6, [(0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]), 0, 1, "C")


def test_a_family_fixed_points():
    match = classify_residual(ResidualInstance(TWO_TRIANGLES, 0, 3, "A"))
    assert match.label == "A1"
    assert match.roles == {"u": 0, "v": 3, "u1": 1, "u2": 2, "u3": 4, "u4": 5}
    assert not match.ambiguity_flag

    a2 = G(6, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (3, 5)])
    match = classify_residual(ResidualInstance(a2, 0, 1, "A"))
    assert match.label == "A2"
    assert match.roles["x"] == 2 and match.roles["v1"] == 3

    a3 = G(6, [(0, 2), (1, 3), (4, 2), (4, 3), (5, 2), (5, 3)])
    match = classify_residual(ResidualInstance(a3, 0, 1, "A"))
    assert match.label == "A3"
    assert {match.roles["w1"], match.roles["w2"]} == {4, 5}
    assert match.roles["x"] == 2 and match.roles["y"] == 3


def test_c_family_fixed_points():
    c2 = G(6, [(0, 1), (0, 2), (0, 3), (0, 4), (4, 5)])
    match = classify_residual(ResidualInstance(c2, 1, 2, "C"))
    assert match.label == "C2"
    assert match.roles == {"u": 1, "v": 2, "a": 0, "w": 3, "p1": 4, "p2": 5}

    c2p = G(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    match = classify_residual(ResidualInstance(c2p, 1, 2, "C"))
    assert match.label == C2_PRIME

    c3 = G(6, [(0, 1), (0, 5), (2, 3), (3, 4), (0, 3)])
    match = classify_residual(ResidualInstance(c3, 1, 2, "C"))
    assert match.label == "C3"
    assert match.roles["u"] == 1 and match.roles["v"] == 2 and match.roles["y1"] == 5
    # swapped designation keeps the trivial endpoint in the u role
    swapped = classify_residual(ResidualInstance(c3, 2, 1, "C"))
    assert swapped.label == "C3" and swapped.roles["u"] == 1

    c4 = G(6, [(0, 2), (1, 3), (0, 4), (1, 4), (0, 5), (1, 5)])
    match = classify_residual(ResidualInstance(c4, 2, 3, "C"))
    assert match.label == "C4"
    assert match.roles["w1"] == 4 and match.roles["w2"] == 5

    c1 = classify_residual(ResidualInstance(TWO_TRIANGLES, 0, 3, "C"))
    assert c1.label == "C1"
    assert c1.metadata["u_component_edges"] == [[0, 1], [0, 2], [1, 2]]


def test_b_family_fixed_points():
    b1 = G(8, [(0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)])
    match = classify_residual(ResidualInstance(b1, 0, 3, "B"))
    assert match.label == "B1" and match.roles["u"] == 0
    # the 3-component endpoint always takes the u role
    match = classify_residual(ResidualInstance(b1, 3, 0, "B"))
    assert match.label == "B1" and match.roles["u"] == 0 and match.roles["v"] == 3

    cases = [
        ("B2", G(8, [(0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5), (2, 6), (2, 7), (6, 7)]), (0, 1)),
        ("B3", G(8, [(0, 2), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 3)]), (0, 1)),
        ("B4", G(8, [(0, 2), (1, 3), (1, 4), (3, 4), (5, 6), (5, 7), (6, 7), (2, 5), (2, 3)]), (0, 1)),
        ("B5", G(8, [(2, 0), (3, 1), (4, 0), (4, 1), (5, 0), (5, 1), (6, 7), (6, 0), (7, 1)]), (2, 3)),
        ("B6", G(8, [(2, 0), (3, 1), (4, 0), (4, 1), (5, 6), (6, 7), (5, 0), (7, 1)]), (2, 3)),
        ("B7", G(8, [(2, 0), (4, 0), (4, 1), (5, 0), (5, 1), (3, 6), (6, 7), (7, 1)]), (2, 3)),
        ("B8", G(8, [(i, j) for i in (0, 1, 2) for j in (3, 4, 5, 6, 7)]), (3, 4)),
    ]
    for expected, graph, (u, v) in cases:
        match = classify_residual(ResidualInstance(graph, u, v, "B"))
        assert match.label == expected, (expected, match.label)


@pytest.mark.parametrize(
    "g, x, u, v, family",
    [(G(6, [(0, 1), (1, 2), (3, 4), (3, 5), (4, 5)]), 0, 0, 2, "A"),
     (G(6, [(a, b) for a in (0, 1) for b in (2, 3, 4, 5)]), 0b11, 0, 1, "C"),
     (G(6, [(0, b) for b in (1, 2, 3, 4, 5)]), 0b1, 0, 1, "A"),
     (TWO_TRIANGLES, 0, 0, 3, "B"),
     (G(6, [(0, 2), (1, 2), (4, 2), (4, 3), (5, 2), (5, 3)]), 0b1100, 0, 1, "A"),
     (G(8, [(0, 2), (1, 3), (1, 4), (3, 4), (5, 6), (5, 7), (6, 7), (2, 3)]), 0b100, 0, 1, "B"),
     (G(6, [(0, 2), (0, 4), (1, 4), (0, 5), (1, 5)]), 0b11, 2, 3, "C")],
    ids=["one-component", "both-in-x", "endpoint-in-x", "a1-shape-in-family-b",
         "a3-without-distinct-attachments", "b4-x-misses-the-spare-triple",
         "c4-x-misses-u-and-v"],
)
def test_match_template_leaves_unmatched_certificates_unclassified(g, x, u, v, family):
    """Each way a certificate can miss every template.  None of these is
    reached by an admissible order-6 instance, so the match is called
    directly; the last three differ from A3's, B4's and C4's fixed points
    only in the side condition."""
    cert = TutteCertificate.build(g, x)
    assert _match_template(g, u, v, family, cert) == (UNCLASSIFIED, {}, {})


def test_classified_instances_have_forced_deficit_two(catalog):
    for g in catalog(6):
        for u, v in itertools.combinations(range(6), 2):
            if g.has_edge(u, v):
                continue
            for family in ("A", "C"):
                inst = _admissible(g, u, v, family)
                if inst is None:
                    continue
                match = classify_residual(inst)
                assert match.label in FAMILY_LABELS[family]
                assert match.certificate.partition.odd_count == match.x_set.bit_count() + 2


def test_completeness_order_6(catalog):
    counts = {"A": {}, "C": {}}
    ambiguous = 0
    for g in catalog(6):
        for u, v in itertools.combinations(range(6), 2):
            if g.has_edge(u, v):
                continue
            for family in ("A", "C"):
                inst = _admissible(g, u, v, family)
                if inst is None:
                    continue
                match = classify_residual(inst)
                counts[family][match.label] = counts[family].get(match.label, 0) + 1
                ambiguous += match.ambiguity_flag
    assert set(counts["A"]) == {"A1", "A2", "A3"}
    assert set(counts["C"]) == {"C1", "C2", C2_PRIME, "C3", "C4"}
    assert ambiguous == 0
    # frozen tallies from the exhaustive run, guarding template drift
    assert counts["A"] == {"A1": 9, "A2": 5, "A3": 20}
    assert counts["C"] == {"C1": 19, "C2": 9, C2_PRIME: 7, "C3": 38, "C4": 36}


def test_classifications_order_6_match_recorded_digest(catalog):
    # Roles and metadata too, in both orientations of every designated pair.
    assert classification_digest(catalog(6), ("A", "C")) == CLASSIFICATION_GOLDEN[6]


def test_every_template_label_has_predicates():
    # K_8 meets every family's degree hypothesis; with no witness vertices the
    # residual indices are the ambient vertices, so the roles are distinct.
    k8 = complete_graph(8)
    cert = tutte_violators(TWO_TRIANGLES, "all-minimal")[0]
    for (family, *_shape), (label, names, _lo, _hi) in TEMPLATES.items():  # every FAMILY_LABELS label
        roles = dict(zip(["u", "v", *names.split()], range(8)))
        match = ConfigurationMatch(label, family, 0, cert, roles, False)
        report = config_predicates(k8, (0, 1), 0, match)
        assert report.hypothesis_met and report.checks, (family, label)


def test_predicates_order_8_match_recorded_digest(catalog):
    # Every label's checks on every order-8 graph, failing ones included.
    assert predicates_digest(catalog(8)) == PREDICATES_GOLDEN


def test_residual_family_selection():
    w7 = wheel_graph(7)
    assert residual_family(w7, 2, (0, 7)) == "A"  # rim endpoint has degree 3 < n-4
    high = G(8, [(i, j) for i, j in itertools.combinations(range(8), 2)])
    assert residual_family(high, 2, (0, 1)) == "C"
    assert residual_family(complete_graph(6), 4, (0, 1)) is None
    assert residual_family(cycle_graph(9), 1, (0, 1)) == "B"


def test_certify_minimal_edges_wheel():
    w7 = wheel_graph(7)
    certs = certify_minimal_edges(w7, 2)
    assert set(certs) == set(w7.edges())
    for e, entry in certs.items():
        assert entry.witness.bit_count() == 2
        if entry.match is not None:
            assert entry.match.label in FAMILY_LABELS[entry.family] + (UNCLASSIFIED,)
            assert entry.match.label != UNCLASSIFIED


def test_residual_rows_equal_the_deleted_subgraph(catalog):
    """The residual G - e - S and ``delete_vertices(g, S)`` both equal a
    pairwise ``has_edge`` rebuild of the kept vertices in order, without the
    edge uv for the residual, and the endpoints' new labels and the index
    map are the kept vertices' positions."""
    checked = 0
    for g in catalog(6):
        for u, v in g.edges():
            rest = g.vertex_mask & ~(1 << u | 1 << v)
            for size in range(5):
                for s in itertools.combinations(bits_list(rest), size):
                    witness = sum(1 << w for w in s)
                    kept = [w for w in range(g.n) if w not in s]
                    pairs = [(i, j) for i, j in itertools.combinations(range(len(kept)), 2)
                             if g.has_edge(kept[i], kept[j])]
                    induced = G(len(kept), pairs)
                    residual = G(len(kept), [p for p in pairs
                                             if {kept[p[0]], kept[p[1]]} != {u, v}])
                    assert delete_vertices(g, witness) == (induced, {w: i for i, w in enumerate(kept)})
                    assert _residual(g, (u, v), witness) == (residual, kept.index(u), kept.index(v))
                    checked += 1
    assert checked > 10000


def test_certify_minimal_edges_no_family():
    certs = certify_minimal_edges(complete_graph(6), 4)
    for entry in certs.values():
        assert entry.match is None and entry.family is None
        assert entry.witness.bit_count() == 4
    certs = certify_minimal_edges(cycle_graph(5), 1)
    for entry in certs.values():
        assert entry.match is None and entry.witness.bit_count() == 1


def test_certify_requires_minimality():
    with pytest.raises(NotMinimallyCritical):
        certify_minimal_edges(complete_graph(8), 2)


def test_certify_rejects_non_critical_as_not_minimal():
    # C6 is not 2-factor-critical: deleting {0, 2} isolates vertex 1.
    with pytest.raises(NotMinimallyCritical):
        certify_minimal_edges(cycle_graph(6), 2)


def test_predicates_on_embedded_a1():
    # The two triangles plus the designated edge form their own ambient graph
    # with k = 0 witnesses; minimum degree 2 >= n - 4 meets the hypothesis.
    g = G(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5), (0, 3)])
    inst = ResidualInstance(TWO_TRIANGLES, 0, 3, "A")
    match = classify_residual(inst)
    report = config_predicates(g, (0, 3), 0, match)
    assert report.hypothesis_met and report.all_passed
    names = {c.name for c in report.checks}
    assert "common_nonneighborhood_at_most_1" in names


def test_predicates_vacuous_when_hypothesis_fails():
    w7 = wheel_graph(7)
    certs = certify_minimal_edges(w7, 2)
    vacuous = 0
    for e, entry in certs.items():
        if entry.match is None or entry.family != "A":
            continue
        report = config_predicates(w7, e, entry.witness, entry.match)
        assert not report.hypothesis_met
        assert report.checks == () and report.all_passed
        vacuous += 1
    assert vacuous > 0


def test_predicates_on_wheel_c_instances():
    w7 = wheel_graph(7)
    certs = certify_minimal_edges(w7, 2)
    checked = 0
    for e, entry in certs.items():
        if entry.match is None or entry.family != "C":
            continue
        report = config_predicates(w7, e, entry.witness, entry.match)
        if report.hypothesis_met:
            assert report.all_passed, report.to_json()
            checked += 1
    # hub-rim edges have a rim endpoint of degree 3 < n - 4, so family C never
    # fires on the wheel; the loop is a no-op and documents it
    assert checked == 0


def test_match_serialization_roundtrippable():
    match = classify_residual(ResidualInstance(TWO_TRIANGLES, 0, 3, "C"))
    payload = match.to_json()
    assert payload["label"] == "C1"
    assert payload["roles"]["u"] == 0
    assert payload["x"] == []
    assert payload["ambiguous"] is False
