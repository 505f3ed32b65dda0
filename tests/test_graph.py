from __future__ import annotations

import itertools
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from factorcrit import (
    ComponentPartition,
    Graph,
    MalformedEncoding,
    OrderTooSmall,
    PreconditionUnmet,
    UnsupportedOrder,
    VertexOutOfRange,
    add_edge,
    complete_bipartite,
    complete_graph,
    components,
    connectivity,
    cycle_graph,
    degree_profile,
    delete_vertices,
    empty_graph,
    encode_graph6,
    is_claw_free,
    non_neighborhood,
    parse_graph6,
    path_graph,
    petersen_graph,
    remove_edge,
    star_graph,
    wheel_graph,
)
from factorcrit.graph import bits_list, mask_from


def random_graph_strategy(max_n: int = 12):
    def build(draw):
        n = draw(st.integers(min_value=0, max_value=max_n))
        pairs = list(itertools.combinations(range(n), 2))
        flags = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph.from_edges(n, [p for p, keep in zip(pairs, flags) if keep])

    return st.composite(lambda draw: build(draw))()


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


# graph6 codec


def test_graph6_hand_decoded_examples():
    assert parse_graph6("A_") == complete_graph(2)
    assert parse_graph6("D??") == empty_graph(5)
    assert parse_graph6("Bw") == complete_graph(3)
    assert encode_graph6(complete_graph(2)) == "A_"
    assert encode_graph6(empty_graph(5)) == "D??"
    assert encode_graph6(complete_graph(3)) == "Bw"


def test_graph6_header_and_bytes_input():
    assert parse_graph6(">>graph6<<Bw") == complete_graph(3)
    assert parse_graph6(b"Bw\n") == complete_graph(3)


def test_graph6_rejects_malformed():
    with pytest.raises(MalformedEncoding):
        parse_graph6("")
    with pytest.raises(MalformedEncoding):
        parse_graph6("B")  # truncated
    with pytest.raises(MalformedEncoding):
        parse_graph6("Bw?")  # excess bytes
    with pytest.raises(MalformedEncoding):
        parse_graph6("A" + chr(30))  # byte below range
    with pytest.raises(MalformedEncoding):
        parse_graph6("A~")  # nonzero padding bits
    with pytest.raises(UnsupportedOrder):
        parse_graph6("~??")  # long form announces order >= 63
    # n(n-1)/2 mod 6 takes the residues 0, 1, 3 and 4, leaving 0, 5, 3 and 2
    # padding bits in the last byte; setting any one of them is malformed.
    residues = set()
    for n in range(2, 14):
        nbits = n * (n - 1) // 2
        residues.add(nbits % 6)
        text = encode_graph6(complete_graph(n))
        pad = -nbits % 6
        if not pad:
            assert parse_graph6(text) == complete_graph(n)
        for bit in range(pad):
            bad = text[:-1] + chr(63 + ((ord(text[-1]) - 63) | 1 << bit))
            with pytest.raises(MalformedEncoding):
                parse_graph6(bad)
    assert residues == {0, 1, 3, 4}


def test_graph6_roundtrip_exhaustive_small_orders():
    for n in range(0, 5):
        for edges in _all_edge_subsets(n):
            g = Graph.from_edges(n, edges)
            assert parse_graph6(encode_graph6(g)) == g


def _all_edge_subsets(n: int):
    pairs = list(itertools.combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield [pairs[i] for i in range(len(pairs)) if bits >> i & 1]


@settings(max_examples=200)
@given(random_graph_strategy(max_n=62))
def test_graph6_matches_networkx_codec(g):
    ours = encode_graph6(g)
    theirs = nx.to_graph6_bytes(to_networkx(g), header=False).strip().decode()
    assert ours == theirs
    assert parse_graph6(ours) == g


# structural queries


def test_non_neighborhood_examples():
    assert non_neighborhood(complete_graph(4), 2) == 0
    assert bits_list(non_neighborhood(cycle_graph(5), 0)) == [2, 3]
    star = star_graph(3)  # hub 0, leaves 1..3
    assert bits_list(non_neighborhood(star, 1)) == [2, 3]
    with pytest.raises(VertexOutOfRange):
        non_neighborhood(star, 9)


def test_non_neighborhood_size_identity(catalog):
    for g in catalog(6):
        for v in range(g.n):
            assert non_neighborhood(g, v).bit_count() == g.n - 1 - g.degree(v)


def test_components_examples():
    g = Graph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6), (6, 3)])
    part = components(g)
    assert part.sizes() == [3, 4]
    assert part.odd_count == 1
    g = Graph.from_edges(4, [(2, 3)])
    part = components(g)
    assert part.sizes() == [1, 1, 2]
    assert part.odd_count == 2
    assert components(cycle_graph(6)).sizes() == [6]
    assert components(cycle_graph(6)).odd_count == 0


def test_components_invariants(catalog):
    for g in catalog(6):
        part = components(g)
        assert sum(part.sizes()) == g.n
        assert part.odd_count % 2 == g.n % 2
        assert mask_from(v for b in part.blocks for v in bits_list(b)) == g.vertex_mask


def test_delete_vertices_relabels_and_maps():
    h, index_map = delete_vertices(cycle_graph(6), {0, 2})
    assert h.edges() == [(1, 2), (2, 3)]
    assert index_map == {1: 0, 3: 1, 4: 2, 5: 3}
    g = cycle_graph(6)
    assert delete_vertices(g, 0)[0] == g
    empty, mapping = delete_vertices(g, g.vertex_mask)
    assert empty.n == 0 and mapping == {}
    with pytest.raises(VertexOutOfRange):
        delete_vertices(g, {7})


def test_edge_toggles():
    assert remove_edge(complete_graph(3), 0, 1) == Graph.from_edges(3, [(0, 2), (1, 2)])
    p3 = path_graph(3)
    assert add_edge(p3, 0, 2) == complete_graph(3)
    with pytest.raises(Exception):
        remove_edge(p3, 0, 2)
    with pytest.raises(Exception):
        add_edge(p3, 0, 1)
    with pytest.raises(PreconditionUnmet):
        add_edge(p3, 1, 1)


def _claw_free_bruteforce(g: Graph) -> bool:
    # Independent oracle: scan all 4-subsets for an induced star on 3 leaves.
    for quad in itertools.combinations(range(g.n), 4):
        for hub in quad:
            leaves = [w for w in quad if w != hub]
            if all(g.has_edge(hub, w) for w in leaves) and not any(
                g.has_edge(a, b) for a, b in itertools.combinations(leaves, 2)
            ):
                return False
    return True


def test_claw_free_examples():
    assert not is_claw_free(star_graph(3))
    assert is_claw_free(cycle_graph(6))
    assert is_claw_free(wheel_graph(5))
    assert not is_claw_free(complete_bipartite(3, 3))


def test_claw_free_agrees_with_bruteforce(catalog):
    for g in catalog(6):
        assert is_claw_free(g) == _claw_free_bruteforce(g)


def test_connectivity_examples():
    assert connectivity(cycle_graph(6)) == (2, 2)
    assert connectivity(complete_graph(4)) == (3, 3)
    assert connectivity(petersen_graph()) == (3, 3)
    assert connectivity(Graph.from_edges(4, [(0, 1)])) == (0, 0)
    with pytest.raises(OrderTooSmall):
        connectivity(complete_graph(1))


def test_connectivity_agrees_with_networkx(catalog):
    for g in catalog(5):
        if g.n < 2:
            continue
        h = to_networkx(g)
        assert connectivity(g) == (nx.node_connectivity(h), nx.edge_connectivity(h))


@settings(max_examples=40, deadline=None)
@given(random_graph_strategy(max_n=24))
def test_connectivity_agrees_with_networkx_up_to_order_24(g):
    if g.n < 2:
        return
    h = to_networkx(g)
    assert connectivity(g) == (nx.node_connectivity(h), nx.edge_connectivity(h))


@pytest.mark.parametrize(
    "g, expected",
    [(complete_graph(30), (29, 29)), (complete_bipartite(15, 15), (15, 15)),
     (complete_graph(62), (61, 61))],
    ids=["K30", "K15,15", "K62"],
)
def test_connectivity_polynomial_on_dense_graphs(g, expected):
    start = time.perf_counter()
    assert connectivity(g) == expected
    assert time.perf_counter() - start <= 2.0


@settings(max_examples=60)
@given(random_graph_strategy(max_n=9))
def test_whitney_chain(g):
    if g.n < 2:
        return
    kappa, lam = connectivity(g)
    assert kappa <= lam <= g.min_degree()


def test_degree_profile_invariants(catalog):
    for g in catalog(6):
        profile = degree_profile(g)
        assert sum(profile.values()) == g.n
        assert sum(d * c for d, c in profile.items()) % 2 == 0
        assert sum(g.degrees()) == 2 * g.edge_count()


def test_graph_validation():
    with pytest.raises(UnsupportedOrder):
        Graph(63, (0,) * 63)
    with pytest.raises(PreconditionUnmet):
        Graph(2, (1, 1))  # loop at 0
    with pytest.raises(PreconditionUnmet):
        Graph(2, (2, 0))  # asymmetric
    with pytest.raises(VertexOutOfRange):
        Graph(2, (4, 0))  # neighbor out of range


def test_component_partition_block_of():
    part = ComponentPartition.from_masks([0b0011, 0b1100])
    assert part.block_of(2) == 0b1100
    with pytest.raises(VertexOutOfRange):
        part.block_of(9)
