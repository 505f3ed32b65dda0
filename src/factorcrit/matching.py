"""Maximum matchings, perfect-matching decisions, and deficiency certificates.

The maximum-matching routine is an augmenting-path search with blossom
contraction; the test suite checks it against the brute-force oracle in
``oracles`` on every small graph, and it decides whether a whole graph has a
perfect matching.  Sweeps that probe many induced subgraphs of the same graph
go through ``PerfectMatcher``, which memoizes one decision per vertex mask
and makes each new one in polynomial time: greedy pairing first, which
settles dense masks, then blossom searches on the mask's rows from the
vertices it left exposed, stopping at the first that finds no augmenting
path.

Up to order ``TABLE_MAX_ORDER``, ``matchable_sets`` answers every such probe
at once: it builds the 2^n-bit integer T whose bit M is set exactly when the
induced subgraph on vertex mask M has a perfect matching.  The lowest vertex
v of a matchable set is matched to a higher neighbour w, and the rest of the
set is a matchable set above v that avoids w.  So, with T holding the
matchable sets of the vertices above v, each edge vw with w > v adds
``(T & without[w]) << (2^v + 2^w)``: one AND, one shift and one OR per edge.
``subset_masks`` supplies ``without[w]`` (the masks that avoid w) and
``of_size[c]`` (the masks of c vertices), built per order on first use.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cache
from typing import Callable, Iterator, Sequence

from .errors import EdgeAbsent, LimitExceeded, PreconditionUnmet
from .graph import (
    ComponentPartition,
    Graph,
    _component_masks,
    _odd_component_count,
    bits_list,
    iter_bits,
    k_sets,
    mask_from,
    remove_edge,
)

DEFAULT_PM_LIMIT = 10**6

VIOLATOR_MODES = ("first-minimal", "all-minimal", "all")
ALL_MODE_MAX_ORDER = 16
# Largest order for the exhaustive search of ``tutte_violators``; above it,
# ``gallai_edmonds_barrier`` gives a barrier in polynomial time.
VIOLATOR_MAX_ORDER = 19
# Largest order for ``matchable_sets``, whose table has 2^n bits.  On graphs
# of edge density 0.8 (one CPU, Python 3.11) the table takes 0.09-0.14 ms at
# order 14, against 0.5-1.0 ms for ``PerfectMatcher`` to test
# 2-factor-criticality; at order 16 it takes 0.44-0.51 ms against
# 0.4-0.7 ms, and each order beyond doubles it.
TABLE_MAX_ORDER = 14


@dataclass(frozen=True)
class Matching:
    """A set of pairwise vertex-disjoint edges of a graph of order ``n``."""

    edges: tuple[tuple[int, int], ...]
    n: int

    @classmethod
    def from_pairs(cls, g: Graph, pairs) -> Matching:
        norm = tuple(sorted((min(u, v), max(u, v)) for u, v in pairs))
        seen = 0
        for u, v in norm:
            if not g.has_edge(u, v):
                raise EdgeAbsent(f"matching uses non-edge {u}-{v}")
            pair = (1 << u) | (1 << v)
            if seen & pair:
                raise PreconditionUnmet(f"matching reuses a vertex of {u}-{v}")
            seen |= pair
        return cls(norm, g.n)

    @property
    def is_perfect(self) -> bool:
        return 2 * len(self.edges) == self.n

    @property
    def covered_mask(self) -> int:
        return mask_from(v for e in self.edges for v in e)

    def to_json(self) -> dict:
        return {
            "edges": [list(e) for e in self.edges],
            "size": len(self.edges),
            "perfect": self.is_perfect,
        }


@dataclass(frozen=True)
class TutteCertificate:
    """A vertex set X whose removal leaves more than |X| odd components."""

    x_set: int
    partition: ComponentPartition
    deficit: int

    @classmethod
    def build(cls, g: Graph, x_set: int) -> TutteCertificate:
        part = ComponentPartition.from_masks(
            _component_masks(g.adj, g.vertex_mask & ~x_set)
        )
        deficit = part.odd_count - x_set.bit_count()
        if deficit < 1:
            raise PreconditionUnmet("vertex set does not witness a deficiency")
        return cls(x_set, part, deficit)

    def to_json(self) -> dict:
        return {
            "x": bits_list(self.x_set),
            "components": self.partition.to_json(),
            "odd_components": self.partition.odd_count,
            "deficit": self.deficit,
        }


class PerfectMatcher:
    """Memoized perfect-matching decisions over induced vertex subsets.

    One instance serves every subset query against the same graph; the memo is
    keyed by the surviving-vertex bitset.  Each new mask is decided in
    polynomial time: by its parity, then by greedy pairing, then by one
    augmenting-path search from each vertex that pairing left exposed,
    answering no at the first that fails.  Not shared between graphs.
    """

    def __init__(self, g: Graph) -> None:
        self.adj = g.adj
        self._memo: dict[int, bool] = {0: True}

    def pm_exists(self, mask: int) -> bool:
        found = self._memo.get(mask)
        if found is None:
            adj = self.adj
            found = not mask.bit_count() & 1 and (
                _pairs_greedily(adj, mask) or _augments_every_root(adj, mask))
            self._memo[mask] = found
        return found


@cache
def subset_masks(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bitsets ``(without, of_size)`` indexed by the 2^n vertex masks M of
    order ``n``: bit M of ``without[w]`` is set iff w is not in M, and bit M
    of ``of_size[c]`` iff M has c vertices.  Built by doubling on first use
    and cached; orders above ``TABLE_MAX_ORDER`` raise ``LimitExceeded``."""
    if not 0 <= n <= TABLE_MAX_ORDER:
        raise LimitExceeded(f"subset tables are restricted to order 0..{TABLE_MAX_ORDER}")
    width = 1 << n
    without = []
    for w in range(n):
        row, period = (1 << (1 << w)) - 1, 2 << w
        while period < width:
            row |= row << period
            period <<= 1
        without.append(row)
    # S(m+1, c) = S(m, c) | S(m, c-1) << 2^m: a set of vertices 0..m either
    # avoids m or is a set of 0..m-1 with m added.
    of_size = [1]
    for m in range(n):
        of_size = [
            (of_size[c] if c <= m else 0) | (of_size[c - 1] << (1 << m) if c else 0)
            for c in range(m + 2)
        ]
    return tuple(without), tuple(of_size)


def matchable_sets(g: Graph) -> int:
    """The 2^n-bit table T of ``g``: bit M is set iff G[M] has a perfect
    matching, the empty mask included.  Orders above ``TABLE_MAX_ORDER``
    raise ``LimitExceeded``; ``PerfectMatcher`` decides single masks at any
    order."""
    without = subset_masks(g.n)[0]
    table = 1
    for v in range(g.n - 1, -1, -1):
        above = table
        v_bit = 1 << v
        higher = g.adj[v] >> (v + 1) << (v + 1)
        while higher:  # each neighbour w > v, as its bit
            w_bit = higher & -higher
            higher ^= w_bit
            table |= (above & without[w_bit.bit_length() - 1]) << (v_bit | w_bit)
    return table


def has_perfect_matching(g: Graph) -> bool:
    """True iff ``g`` has a perfect matching (false for odd order), from
    one blossom matching in polynomial time."""
    return maximum_matching(g).is_perfect


def maximum_matching(g: Graph) -> Matching:
    """A maximum-cardinality matching via augmenting paths with blossom
    contraction.  Output is normalized (edges sorted); the cardinality is the
    contract, the particular matching is not."""
    mate = _maximum_mates(g.adj)
    return Matching.from_pairs(g, [(v, w) for v, w in enumerate(mate) if w > v])


def _maximum_mates(rows: Sequence[int]) -> list[int]:
    """Each vertex's mate in a maximum matching of the graph with adjacency
    bitsets ``rows``, or -1 where it is exposed: greedy pairing, then one
    augmenting-path search from each exposed vertex that has a neighbour."""
    n = len(rows)
    mate = _greedy_mates(rows)
    for root in range(n):
        if mate[root] == -1 and rows[root]:
            _augment_from(root, rows, mate, n)
    return mate


def _augments_every_root(adj: Sequence[int], mask: int) -> bool:
    """Whether the subgraph that ``mask`` induces in the graph with
    adjacency bitsets ``adj`` has a perfect matching.  Stops at the first
    vertex left exposed by greedy pairing from which no augmenting path
    starts: by Edmonds' lemma no later augmentation covers it."""
    rows = [row & mask if mask >> v & 1 else 0 for v, row in enumerate(adj)]
    mate = _greedy_mates(rows)
    return not any(_augment_from(v, rows, mate, len(rows)) for v in iter_bits(mask) if mate[v] == -1)


def _greedy_mates(rows: Sequence[int]) -> list[int]:
    """Mates from pairing each vertex, ascending, with its lowest unpaired
    neighbour while both are unpaired; -1 where a vertex stays unpaired."""
    n = len(rows)
    mate = [-1] * n
    free = (1 << n) - 1
    for v, row in enumerate(rows):
        nbrs = row & free
        if free >> v & 1 and nbrs:
            w_bit = nbrs & -nbrs
            w = w_bit.bit_length() - 1
            mate[v], mate[w] = w, v
            free ^= 1 << v | w_bit
    return mate


def _augment_from(root: int, rows: Sequence[int], mate: list[int], n: int) -> int:
    """Grow an alternating tree from the exposed vertex ``root``, contracting
    blossoms, and augment ``mate`` along the first augmenting path it finds,
    returning 0.  When none starts at ``root`` the search ends with every
    vertex that an even-length alternating path from ``root`` reaches
    marked even, blossom members included, and ``mate`` unchanged; it then
    returns the mask of those vertices, ``root`` among them, so never 0."""
    parent = [-1] * n
    base = list(range(n))
    in_tree = [False] * n
    in_tree[root] = True
    queue = deque([root])

    def find_common_base(a: int, b: int) -> int:
        on_path = [False] * n
        while True:
            a = base[a]
            on_path[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if on_path[b]:
                return b
            b = parent[mate[b]]

    def mark_blossom(v: int, stop: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stop:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    end = -1
    while queue and end == -1:
        v = queue.popleft()
        nbrs = rows[v]
        while nbrs:  # each neighbour of v, ascending
            to_bit = nbrs & -nbrs
            nbrs ^= to_bit
            to = to_bit.bit_length() - 1
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                stop = find_common_base(v, to)
                in_blossom = [False] * n
                mark_blossom(v, stop, to, in_blossom)
                mark_blossom(to, stop, v, in_blossom)
                for i in range(n):
                    if in_blossom[base[i]]:
                        base[i] = stop
                        if not in_tree[i]:
                            in_tree[i] = True
                            queue.append(i)
            elif parent[to] == -1:
                parent[to] = v
                if mate[to] == -1:
                    end = to
                    break
                in_tree[mate[to]] = True
                queue.append(mate[to])
    if end == -1:
        return mask_from(v for v in range(n) if in_tree[v])
    v = end
    while v != -1:
        pv = parent[v]
        nxt = mate[pv]
        mate[v] = pv
        mate[pv] = v
        v = nxt
    return 0


@dataclass(frozen=True)
class PerfectMatchingEnumeration:
    matchings: tuple[Matching, ...]
    truncated: bool

    def __len__(self) -> int:
        return len(self.matchings)

    def __iter__(self) -> Iterator[Matching]:
        return iter(self.matchings)


def _perfect_matchings(
    adj: Sequence[int], mask: int, matchable: Callable[[int], bool]
) -> Iterator[tuple[tuple[int, int], ...]]:
    # Branch on the lowest uncovered vertex with neighbors ascending, so the
    # sorted edge lists come out in lexicographic order.  A branch is entered
    # only when ``matchable`` says its rest has a perfect matching, so every
    # branch yields one: polynomial delay.
    if mask == 0:
        yield ()
        return
    v_bit = mask & -mask
    v = v_bit.bit_length() - 1
    rest = mask ^ v_bit
    for w in iter_bits(adj[v] & rest):
        sub = rest ^ (1 << w)
        if matchable(sub):
            for tail in _perfect_matchings(adj, sub, matchable):
                yield ((v, w),) + tail


def _pairs_greedily(adj: Sequence[int], mask: int) -> bool:
    """Whether pairing each lowest unpaired vertex of ``mask`` with its
    lowest unpaired neighbour pairs them all."""
    while mask:
        v_bit = mask & -mask
        mask ^= v_bit
        nbrs = adj[v_bit.bit_length() - 1] & mask
        if not nbrs:
            return False
        mask ^= nbrs & -nbrs
    return True


def enumerate_perfect_matchings(
    g: Graph, limit: int = DEFAULT_PM_LIMIT, strict: bool = False
) -> PerfectMatchingEnumeration:
    """All perfect matchings in deterministic lexicographic order.

    Truncates at ``limit`` and flags the truncation; with ``strict`` a
    truncated enumeration raises instead.  The branching search enters a
    branch only when the rest of its vertices has a perfect matching, a
    test memoized per vertex mask, so it spends polynomial time per
    matching and settles a graph without any, odd orders included, in one
    test.
    """
    if limit < 1:
        raise PreconditionUnmet("limit must be at least 1")
    out: list[Matching] = []
    truncated = False
    matchable = PerfectMatcher(g).pm_exists
    if matchable(g.vertex_mask):
        for pairs in _perfect_matchings(g.adj, g.vertex_mask, matchable):
            if len(out) == limit:
                truncated = True
                break
            out.append(Matching(pairs, g.n))
    if truncated and strict:
        raise LimitExceeded(f"more than {limit} perfect matchings")
    return PerfectMatchingEnumeration(tuple(out), truncated)


def forced_edge(g: Graph, e: tuple[int, int]) -> bool:
    """True iff ``e`` lies in every perfect matching of ``g`` and one exists."""
    u, v = e
    if not g.has_edge(u, v):
        raise EdgeAbsent(f"edge {u}-{v} not in graph")
    if not has_perfect_matching(g):
        return False
    return not has_perfect_matching(remove_edge(g, u, v))


def tutte_violators(g: Graph, mode: str = "first-minimal") -> list[TutteCertificate]:
    """Vertex sets X with more than |X| odd components in G - X.

    The search runs subset sizes ascending and subsets lexicographically
    within a size, so minimality of the reported X (for the minimal modes) and
    determinism are part of the contract.  The result is empty exactly when
    the graph has a perfect matching; no matching shortcut is taken, the
    subset search itself proves emptiness.

    A size s is skipped when the minimum degree rules it out.  A violator X
    of size s leaves q > s odd components, and q has the parity of n - s,
    so q >= s + 2 - n % 2; the smallest odd component then has at most
    (n - s) // q vertices, and each of its vertices has degree at most
    that minus one plus s.  A skipped size holds no violator, so every mode
    returns what the plain sweep returns, and the bound reads only degrees,
    never a matching.  The search is exponential, so orders above
    ``VIOLATOR_MAX_ORDER`` raise ``LimitExceeded``.
    """
    if mode not in VIOLATOR_MODES:
        raise PreconditionUnmet(f"mode must be one of {VIOLATOR_MODES}")
    if mode == "all" and g.n > ALL_MODE_MAX_ORDER:
        raise PreconditionUnmet(
            f"mode 'all' is restricted to order <= {ALL_MODE_MAX_ORDER}"
        )
    if g.n > VIOLATOR_MAX_ORDER:
        raise LimitExceeded(
            f"the Tutte-set search is restricted to order <= {VIOLATOR_MAX_ORDER}; "
            "gallai_edmonds_barrier gives a barrier at any order"
        )
    adj = g.adj
    full = g.vertex_mask
    n, min_degree = g.n, g.min_degree()
    found: list[TutteCertificate] = []
    for size in range(n + 1):
        if min_degree > size - 1 + (n - size) // (size + 2 - n % 2):
            continue
        for x_mask in k_sets(full, size):
            if _odd_component_count(adj, full & ~x_mask) > size:
                found.append(TutteCertificate.build(g, x_mask))
                if mode == "first-minimal":
                    return found
        if found and mode == "all-minimal":
            return found
    return found


def gallai_edmonds_barrier(g: Graph) -> int:
    """The Gallai-Edmonds set A as a vertex mask, in polynomial time.

    D holds the vertices v with nu(G - v) = nu(G), those that some maximum
    matching leaves exposed, and A = N(D) - D.  By the Gallai-Edmonds
    structure theorem every component of G[D] is odd, the rest of G - A has
    a perfect matching, and G - A has n - 2 nu + |A| odd components, so A
    attains the deficiency n - 2 nu.  Unlike ``tutte_violators`` it need not
    be a smallest such set.

    D is read off one maximum matching M.  Switching M along an even-length
    alternating path from an M-exposed vertex r to v gives a maximum
    matching that leaves v exposed.  Conversely, when a maximum matching M'
    leaves v exposed and M does not, the path of M xor M' that ends at v is
    such a path: its other end is exposed by M, since a path with both ends
    exposed by M' would augment M'.  So D is the union, over the M-exposed
    vertices r, isolated ones included, of the even vertices of the tree
    that a blossom search from r grows; with M maximum none of these
    searches augments.
    """
    mate = _maximum_mates(g.adj)
    d_set = reach = 0
    for root in range(g.n):
        if mate[root] == -1:
            d_set |= _augment_from(root, g.adj, mate, g.n)
    for v in iter_bits(d_set):
        reach |= g.adj[v]
    return reach & ~d_set
