"""Small simple graphs as per-vertex bitsets, with graph6 I/O and structural queries.

Vertices are the integers 0..n-1 and every vertex set is a Python int used as a
bitset, so set algebra is plain integer arithmetic.  The order cap of 62 keeps
every bitset inside one machine word and matches the short form of the graph6
encoding.  All values are immutable; operations return new graphs.

Public construction through ``Graph(n, adj)`` validates its input.  The
decoder and the operations of this package whose output is symmetric,
loop-free and confined to bits below ``n`` by construction build through the
unvalidated ``Graph._trusted`` instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import (
    EdgeAbsent,
    EdgePresent,
    KOutOfRange,
    LimitExceeded,
    MalformedEncoding,
    OrderTooSmall,
    PreconditionUnmet,
    UnsupportedOrder,
    VertexOutOfRange,
)

MAX_ORDER = 62
GRAPH6_HEADER = ">>graph6<<"
# Most vertex subsets one sweep may visit.  With Python 3.11 on one CPU of a
# 2-CPU machine, the k-factor-critical test of K_22 at k = 10 visits 646646
# sets in 0.9-1.3 s with a 99 MB peak; K_20 at k = 10 visits 184756 in 0.2 s
# with 38 MB.  The largest size ``tutte_violators`` sweeps, C(19, 9), and all
# 2^19 subsets of 19 vertices fit below it.
SUBSET_BUDGET = 10**6


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def bits_list(mask: int) -> list[int]:
    return list(iter_bits(mask))


def mask_from(vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        mask |= 1 << v
    return mask


def check_subset_budget(count: int) -> None:
    """Raise ``LimitExceeded`` when a sweep of ``count`` vertex subsets
    exceeds ``SUBSET_BUDGET``; a sweep calls it before its first subset."""
    if count > SUBSET_BUDGET:
        raise LimitExceeded(f"a sweep of {count} vertex subsets exceeds the budget of {SUBSET_BUDGET}")


def k_sets(pool: int, k: int) -> Iterator[int]:
    """The k-vertex subsets of the vertex mask ``pool``, as masks, in the
    lexicographic order of their ascending vertex lists, the order of
    ``itertools.combinations``: the first failing set a sweep reports is
    the lexicographically first.  No set when k exceeds the pool's size, one
    empty set when k is 0.  Raises ``KOutOfRange`` at once for a negative k,
    and ``LimitExceeded`` when there are more than ``SUBSET_BUDGET`` sets."""
    if k < 0:
        raise KOutOfRange(f"subset size {k} is negative")
    check_subset_budget(comb(pool.bit_count(), k))
    return map(sum, combinations([1 << v for v in iter_bits(pool)], k))


@dataclass(frozen=True)
class Graph:
    """Undirected simple graph on ``n`` labeled vertices.

    ``adj[v]`` is the neighbor bitset of vertex ``v``.  Adjacency is symmetric,
    loop-free, and confined to bits below ``n``.  The public constructor
    checks all three; ``_trusted`` skips the checks for internal callers
    whose rows satisfy them by construction.
    """

    n: int
    adj: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "adj", tuple(self.adj))  # rows passed as a list are frozen too
        if not 0 <= self.n <= MAX_ORDER:
            raise UnsupportedOrder(f"order {self.n} outside 0..{MAX_ORDER}")
        if len(self.adj) != self.n:
            raise VertexOutOfRange(
                f"adjacency has {len(self.adj)} rows for order {self.n}"
            )
        full = (1 << self.n) - 1
        for u, row in enumerate(self.adj):
            if row & ~full:
                raise VertexOutOfRange(f"vertex {u} has neighbors >= {self.n}")
            if row >> u & 1:
                raise PreconditionUnmet(f"loop at vertex {u}")
        for u, row in enumerate(self.adj):
            for v in iter_bits(row):
                if not self.adj[v] >> u & 1:
                    raise PreconditionUnmet(f"asymmetric edge {u}-{v}")

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...]) -> Graph:
        """Build without validation; ``adj`` must already be a valid
        symmetric, loop-free adjacency of order ``n``."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "adj", adj)
        return g

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        rows = [0] * n
        for u, v in edges:
            if u == v:
                raise PreconditionUnmet(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise VertexOutOfRange(f"edge {u}-{v} outside order {n}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        return cls(n, tuple(rows))

    @property
    def vertex_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj[v].bit_count()

    def degrees(self) -> list[int]:
        return [row.bit_count() for row in self.adj]

    def min_degree(self) -> int:
        return min(self.degrees(), default=0)

    def max_degree(self) -> int:
        return max(self.degrees(), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted (u, v) pairs with u < v, in lexicographic order."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in iter_bits(row):
                out.append((u, v))
        return out

    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise VertexOutOfRange(f"vertex {v} outside 0..{self.n - 1}")


class Connectivity(NamedTuple):
    vertex: int
    edge: int


@dataclass(frozen=True)
class ComponentPartition:
    """Connected components of a graph as disjoint vertex bitsets.

    ``blocks`` are ordered by their smallest vertex; ``odd_count`` is the
    number of blocks of odd cardinality.
    """

    blocks: tuple[int, ...]
    odd_count: int

    @classmethod
    def from_masks(cls, masks: Sequence[int]) -> ComponentPartition:
        blocks = tuple(sorted(masks, key=lambda m: m & -m))
        odd = sum(1 for m in blocks if m.bit_count() & 1)
        return cls(blocks, odd)

    def sizes(self) -> list[int]:
        return [b.bit_count() for b in self.blocks]

    def block_of(self, v: int) -> int:
        if v >= 0:
            for b in self.blocks:
                if b >> v & 1:
                    return b
        raise VertexOutOfRange(f"vertex {v} not covered by the partition")

    def to_json(self) -> list[list[int]]:
        return [bits_list(b) for b in self.blocks]


def _component_masks(adj: Sequence[int], mask: int) -> list[int]:
    """Connected components of the subgraph induced on ``mask``, as bitsets."""
    comps = []
    remaining = mask
    while remaining:
        comp = remaining & -remaining
        frontier = comp
        while frontier:
            reach = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                reach |= adj[low.bit_length() - 1]
            frontier = reach & mask & ~comp
            comp |= frontier
        comps.append(comp)
        remaining &= ~comp
    return comps


def _odd_component_count(adj: Sequence[int], mask: int) -> int:
    return sum(1 for c in _component_masks(adj, mask) if c.bit_count() & 1)


def components(g: Graph) -> ComponentPartition:
    """Maximal connected blocks of ``g`` with their odd-block count."""
    return ComponentPartition.from_masks(_component_masks(g.adj, g.vertex_mask))


def non_neighborhood(g: Graph, v: int) -> int:
    """Vertices outside the closed neighborhood of ``v``, as a bitset."""
    g._check_vertex(v)
    return g.vertex_mask & ~(g.adj[v] | (1 << v))


def degree_profile(g: Graph) -> Counter[int]:
    """Map from degree value to the number of vertices attaining it, in the
    order of each value's first vertex."""
    return Counter(g.degrees())


def _rows_outside(adj: Sequence[int], cut: int) -> tuple[int, ...]:
    """The rows of the vertices outside the mask ``cut``, relabelled in
    order: from each row the bit of every vertex of ``cut``, highest first,
    is cut out."""
    drop = bits_list(cut)[::-1]
    rows = []
    for w in iter_bits((1 << len(adj)) - 1 & ~cut):
        row = adj[w]
        for s in drop:
            below = (1 << s) - 1
            row = row & below | row >> 1 & ~below
        rows.append(row)
    return tuple(rows)


def delete_vertices(g: Graph, vertices: int | Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph after removing ``vertices``.

    Survivors are relabeled order-preservingly; the returned map sends each
    old index to its new one so callers can track vertex roles across the
    deletion.  The rows come from ``_rows_outside``, the routine that also
    builds the survey's residuals G - e - S.
    """
    # a negative vertex is read as n, outside the graph, so the check below
    # refuses it; the vertices are read once, so an iterator may be passed
    smask = vertices if isinstance(vertices, int) else mask_from(v if v >= 0 else g.n for v in vertices)
    if smask & ~g.vertex_mask:
        raise VertexOutOfRange("deletion set contains vertices outside the graph")
    rows = _rows_outside(g.adj, smask)
    index_map = {old: new for new, old in enumerate(iter_bits(g.vertex_mask & ~smask))}
    return Graph._trusted(len(rows), rows), index_map


def remove_edge(g: Graph, u: int, v: int) -> Graph:
    if not g.has_edge(u, v):
        raise EdgeAbsent(f"edge {u}-{v} not in graph")
    rows = list(g.adj)
    rows[u] &= ~(1 << v)
    rows[v] &= ~(1 << u)
    return Graph._trusted(g.n, tuple(rows))


def add_edge(g: Graph, u: int, v: int) -> Graph:
    if u == v:
        raise PreconditionUnmet("cannot add a loop")
    if g.has_edge(u, v):
        raise EdgePresent(f"edge {u}-{v} already in graph")
    rows = list(g.adj)
    rows[u] |= 1 << v
    rows[v] |= 1 << u
    return Graph._trusted(g.n, tuple(rows))


def is_independent(g: Graph, mask: int) -> bool:
    """Whether no two vertices of the mask are adjacent in ``g``."""
    return not any(g.adj[v] & mask for v in iter_bits(mask))


def is_claw_free(g: Graph) -> bool:
    """True iff no vertex has three pairwise non-adjacent neighbors."""
    for v in range(g.n):
        nbrs = bits_list(g.adj[v])
        if len(nbrs) < 3:
            continue
        for a, b, c in combinations(nbrs, 3):
            if not (g.adj[a] >> b & 1 or g.adj[a] >> c & 1 or g.adj[b] >> c & 1):
                return False
    return True


def connectivity(g: Graph) -> Connectivity:
    """Exact vertex and edge connectivity by unit-capacity max-flow (Menger).

    Vertex connectivity is the fewest internally disjoint paths between two
    non-adjacent vertices, a complete graph reporting n-1.  Only pairs whose
    first vertex is among the first kappa+1 need a flow, since a minimum
    separator misses one of them (Even, 1975).  Each flow runs on the split
    digraph: vertex w becomes an arc from w to n+w, and edge ab the arcs from
    n+a to b and from n+b to a.  Edge connectivity is the fewest edge-disjoint
    paths from vertex 0 to any other vertex.
    """
    n = g.n
    if n < 2:
        raise OrderTooSmall("connectivity needs at least 2 vertices")
    adj = g.adj
    split = [1 << (n + w) for w in range(n)] + list(adj)
    kappa = n - 1
    for s in range(n):
        if s > kappa:
            break
        for t in iter_bits(~adj[s] & g.vertex_mask & ~((2 << s) - 1)):
            kappa = _disjoint_paths(split, n + s, t, kappa)
    lam = n - 1
    for t in range(1, n):
        lam = _disjoint_paths(adj, 0, t, lam)
    return Connectivity(kappa, lam)


def _disjoint_paths(arcs: Sequence[int], s: int, t: int, limit: int) -> int:
    """The most arc-disjoint s-t paths, up to ``limit``, in the digraph whose
    arcs leave x towards the bitset ``arcs[x]``: a unit-capacity max-flow by
    breadth-first augmenting paths.  An undirected graph's rows give its
    edge-disjoint paths: each edge is an arc both ways, and flow pushed
    against flow on the opposite arc cancels it."""
    flow = [0] * len(arcs)  # flow[x]: heads of the arcs from x that carry flow
    back = [0] * len(arcs)  # back[y]: tails of the arcs into y that carry flow
    paths = 0
    while paths < limit:
        parent = {s: s}
        seen = 1 << s
        frontier = [s]
        while frontier and t not in parent:
            following = []
            for x in frontier:
                reach = ((arcs[x] & ~flow[x]) | back[x]) & ~seen
                seen |= reach
                for y in iter_bits(reach):
                    parent[y] = x
                    following.append(y)
            frontier = following
        if t not in parent:
            break
        y = t
        while y != s:
            x = parent[y]
            if back[x] >> y & 1:  # cancel flow on the arc y -> x
                back[x] ^= 1 << y
                flow[y] ^= 1 << x
            else:
                flow[x] |= 1 << y
                back[y] |= 1 << x
            y = x
        paths += 1
    return paths


# graph6 codec (short form, order < 63): leading byte 63+n, then the upper
# triangle in column order, 6 bits per byte, each byte offset by 63.


def encode_graph6(g: Graph) -> str:
    chars = [chr(63 + g.n)]
    acc = 0
    nbits = 0
    for j in range(1, g.n):
        row = g.adj[j]
        for i in range(j):
            acc = (acc << 1) | (row >> i & 1)
            nbits += 1
            if nbits == 6:
                chars.append(chr(63 + acc))
                acc = 0
                nbits = 0
    if nbits:
        chars.append(chr(63 + (acc << (6 - nbits))))
    return "".join(chars)


def parse_graph6(text: str | bytes) -> Graph:
    """Decode one graph6 line, tolerating the standard format header."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise MalformedEncoding("graph6 input is not ASCII") from exc
    line = text.strip()
    if line.startswith(GRAPH6_HEADER):
        line = line[len(GRAPH6_HEADER):]
    if not line:
        raise MalformedEncoding("empty graph6 string")
    codes = [ord(c) for c in line]
    if codes[0] == 126:
        raise UnsupportedOrder("long-form graph6 (order >= 63) is not supported")
    if min(codes) < 63 or max(codes) > 126:
        raise MalformedEncoding(f"byte out of graph6 range in {line!r}")
    n = codes[0] - 63
    nbits = n * (n - 1) // 2
    expected = 1 + (nbits + 5) // 6
    if len(codes) != expected:
        raise MalformedEncoding(
            f"graph6 string for order {n} needs {expected} bytes, got {len(codes)}"
        )
    bitstream = 0
    for c in codes[1:]:
        bitstream = (bitstream << 6) | (c - 63)
    pad = 6 * (len(codes) - 1) - nbits
    if pad and bitstream & ((1 << pad) - 1):
        raise MalformedEncoding("nonzero padding bits in graph6 string")
    return Graph._trusted(n, _rows_from_columns(n, bitstream >> pad))


def _rows_from_columns(n: int, bits: int) -> tuple[int, ...]:
    """The adjacency rows of the order-``n`` graph whose upper triangle
    ``bits`` holds column by column, j = 1..n-1, so that the last column
    sits in the low bits.  Cell (i, j) is bit j-1-i of column j."""
    rows = [0] * n
    for j in range(n - 1, 0, -1):
        col = bits & ((1 << j) - 1)
        bits >>= j
        j_bit = 1 << j
        lower = 0
        while col:
            low = col & -col
            i = j - low.bit_length()
            lower |= 1 << i
            rows[i] |= j_bit
            col ^= low
        rows[j] |= lower
    return tuple(rows)


# Named constructions used throughout the test corpus and the CLI docs.


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full & ~(1 << v) for v in range(n)))


def empty_graph(n: int) -> Graph:
    return Graph(n, (0,) * n)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise OrderTooSmall("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(v, v + 1) for v in range(n - 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def star_graph(leaves: int) -> Graph:
    return complete_bipartite(1, leaves)


def wheel_graph(rim: int) -> Graph:
    """Hub vertex ``rim`` joined to every vertex of a ``rim``-cycle 0..rim-1."""
    edges = [(v, (v + 1) % rim) for v in range(rim)]
    edges += [(v, rim) for v in range(rim)]
    return Graph.from_edges(rim + 1, edges)


def petersen_graph() -> Graph:
    outer = [(v, (v + 1) % 5) for v in range(5)]
    spokes = [(v, v + 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)
