"""k-factor-criticality tests, minimality witnesses, and soundness alarms.

A graph of order n is k-factor-critical when deleting any k vertices leaves a
perfect matching, and minimally so when additionally no single edge can be
dropped without destroying the property.  The definitional sweep here and the
odd-component counting characterization in ``oracles`` are implemented
independently and the suite asserts they agree.

A witness set for an edge e = uv is a k-set S avoiding u and v such that e is
forced in G - S: G - S has a perfect matching and every one of them uses e.
That holds exactly when G - S has a perfect matching and, for no neighbour
w != v of u outside S, does G - S - u - w have one.  So the witness search
asks one memoized matcher on G about vertex masks only; no subgraph is
built, neither per k-set nor for G - e, and the matcher is shared across
the edges of a certificate.

The same search decides minimality.  Let G be k-factor-critical.  A k-set S
containing u or v leaves (G - e) - S = G - S, which has a perfect matching,
so G - e is k-factor-critical exactly when no k-set avoiding u and v is a
witness for e.  Both ``kfc_and_minimal`` and ``minimality_certificate``
therefore ask ``_witness_search``, which picks the source once per graph,
tests criticality on it and gives each edge its lexicographically first
witness.  Above ``TABLE_MAX_ORDER`` that is one memoized matcher, tried on
the C(n-2, k) k-sets that avoid e.

Up to ``TABLE_MAX_ORDER`` it is the table T of ``matching.matchable_sets``
instead, with c = n - k.  G is k-factor-critical iff T holds every c-set,
``T & of_size[c] == of_size[c]``.  The c-sets M holding u and v in which u
has a perfect matching with another neighbour w are
``(T & without[u] & without[w]) << (2^u + 2^w)``, so e = uv has a witness
iff some c-set holding u and v lies in none of them.  The c-sets left are
the complements of e's witnesses, and a greedy walk over the vertices reads
the lexicographically first witness off them with at most one AND per
vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from .errors import (
    EdgeAbsent,
    KOutOfRange,
    NotCritical,
    NotMinimallyCritical,
    ParityMismatch,
    PreconditionUnmet,
    TheoremViolated,
)
from .graph import (
    Graph,
    add_edge,
    bits_list,
    connectivity,
    iter_bits,
    k_sets,
)
from .matching import TABLE_MAX_ORDER, PerfectMatcher, matchable_sets, subset_masks

METHOD_DEFINITIONAL = "definitional"


@dataclass(frozen=True)
class CriticalityReport:
    """Outcome of a k-factor-criticality test.

    A false verdict always carries a checkable failing set: a k-set whose
    removal kills every perfect matching (definitional), or a violating set B
    with more than |B| - k odd components (tutte-type).
    """

    k: int
    verdict: bool
    failing_set: int | None
    method: str

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "verdict": self.verdict,
            "failing_set": None if self.failing_set is None else bits_list(self.failing_set),
            "method": self.method,
        }


@dataclass(frozen=True)
class MinimalityCertificate:
    """Per-edge witness sets proving a k-factor-critical graph minimal.

    For each edge e = uv the witness S_e is a k-set disjoint from {u, v} such
    that G - S_e has a perfect matching and every one of them contains e.
    """

    k: int
    witnesses: dict[tuple[int, int], int]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "witnesses": {f"{u},{v}": bits_list(s) for (u, v), s in self.witnesses.items()},
        }


def _validate_k(g: Graph, k: int) -> None:
    if not 0 <= k < g.n:
        raise KOutOfRange(f"k={k} outside 0..{g.n - 1}")
    if (g.n - k) % 2:
        raise ParityMismatch(f"k={k} and order {g.n} have different parity")


def is_k_factor_critical(
    g: Graph, k: int, matcher: PerfectMatcher | None = None
) -> CriticalityReport:
    """Definitional test: every k-subset removal must leave a perfect matching.

    Scans k-subsets in lexicographic order with early exit, so a false verdict
    reports the lexicographically first failing set.  ``matcher`` may be a
    memoized matcher for the same graph, shared across calls.
    """
    _validate_k(g, k)
    if matcher is None:
        matcher = PerfectMatcher(g)
    full = g.vertex_mask
    for s_mask in k_sets(full, k):
        if not matcher.pm_exists(full & ~s_mask):
            return CriticalityReport(k, False, s_mask, METHOD_DEFINITIONAL)
    return CriticalityReport(k, True, None, METHOD_DEFINITIONAL)


def kfc_and_minimal(g: Graph, k: int) -> tuple[bool, bool]:
    """Whether g is k-factor-critical, and whether it is minimally so.

    Favaron's necessary condition settles what it can before any matching
    work: a k-factor-critical graph with n - k >= 2 is (k+1)-edge-connected
    (Favaron; Yu), so its minimum degree is at least k+1.  A graph with a
    vertex of degree at most k is therefore not k-factor-critical, and
    G - uv is not when u or v has degree k+1, which makes uv essential
    without a test.  A valid k has k < n and the parity
    of n, so n - k >= 2 always holds here.  Every other edge is essential
    exactly when ``_witness_search`` finds it a witness set (see the module
    docstring).
    """
    _validate_k(g, k)
    n, adj = g.n, g.adj
    degrees = list(map(int.bit_count, adj))
    first_witness = None if min(degrees) <= k else _witness_search(g, k)
    if first_witness is None:
        return False, False
    tight = k + 1
    for u in range(n):
        if degrees[u] == tight:
            continue
        higher = adj[u] >> (u + 1) << (u + 1)
        while higher:  # each neighbour v > u, as its bit
            v_bit = higher & -higher
            higher ^= v_bit
            v = v_bit.bit_length() - 1
            if degrees[v] != tight and first_witness(u, v) is None:
                return True, False
    return True, True


def _witness_search(g: Graph, k: int) -> Callable[[int, int], int | None] | None:
    """None when g is not k-factor-critical; otherwise the function giving
    each edge uv its lexicographically first witness set, or None when uv
    has none.  k must be valid for g.

    Up to ``TABLE_MAX_ORDER`` both come off g's table of matchable sets,
    built once.  The witness is read off the edge's ``_witness_complements``
    by walking the vertices in ascending order: S takes w exactly when some
    complement left avoids w, and then only those are kept.  Every
    complement holds u and v, so neither joins S, and the walk stops when
    one complement is left, at the latest after the last vertex.  Above the
    cap one memoized matcher tests criticality and searches each edge's
    k-sets in the order of ``k_sets``.
    """
    n, full = g.n, g.vertex_mask
    if n > TABLE_MAX_ORDER:
        matcher = PerfectMatcher(g)
        if not is_k_factor_critical(g, k, matcher).verdict:
            return None
        return lambda u, v: next(_edge_witnesses(g, k, (u, v), matcher), None)
    table = matchable_sets(g)
    without, of_size = subset_masks(n)
    c_sets = of_size[n - k]

    def first_witness(u: int, v: int) -> int | None:
        forced = _witness_complements(g.adj, table, c_sets, without, u, v)
        w = 0
        while forced & forced - 1:  # keep the c-sets that avoid w, if any: w joins S
            forced = forced & without[w] or forced
            w += 1
        return full ^ (forced.bit_length() - 1) if forced else None
    return first_witness if table & c_sets == c_sets else None


def _witness_complements(
    adj: tuple[int, ...], table: int, c_sets: int, without: tuple[int, ...], u: int, v: int
) -> int:
    """The bitset of the masks G - S of the witness sets S of edge uv of a
    k-factor-critical graph with rows ``adj``, from its table of matchable
    sets and the bitset of its (n - k)-vertex masks; 0 when uv has none.

    A c-set M holding u and v is G - S for a witness S exactly when no
    perfect matching of G[M] pairs u with a neighbour w != v, that is when
    M is not in ``(T & without[u] & without[w]) << (2^u + 2^w)`` for any w.
    """
    forced = c_sets & ~without[u] & ~without[v]
    avoid_u = table & without[u]
    u_bit = 1 << u
    partners = adj[u] & ~(1 << v)
    while partners:  # each neighbour w != v, as its bit
        w_bit = partners & -partners
        partners ^= w_bit
        forced &= ~((avoid_u & without[w_bit.bit_length() - 1]) << (u_bit | w_bit))
    return forced


def is_minimally_kfc(g: Graph, k: int) -> bool:
    """True iff g is k-factor-critical but no single-edge deletion is."""
    return kfc_and_minimal(g, k)[1]


def iter_minimality_witnesses(g: Graph, k: int, e: tuple[int, int]) -> Iterator[int]:
    """All k-sets S disjoint from e with e forced in G - S, lexicographically.

    Does not verify that g is k-factor-critical; witness existence only links
    to minimality of the edge under that precondition.
    """
    return _edge_witnesses(g, k, e, PerfectMatcher(g))


def _edge_witnesses(g: Graph, k: int, e: tuple[int, int], matcher: PerfectMatcher) -> Iterator[int]:
    """The witness search behind ``iter_minimality_witnesses``; ``matcher``
    is g's own and may be shared across edges."""
    u, v = e
    if not g.has_edge(u, v):
        raise EdgeAbsent(f"edge {u}-{v} not in graph")
    _validate_k(g, k)
    full = g.vertex_mask
    u_bit = 1 << u
    partners = g.adj[u] & ~(1 << v)
    for s_mask in k_sets(full & ~(u_bit | 1 << v), k):
        rest = full & ~s_mask
        if matcher.pm_exists(rest) and not any(
            matcher.pm_exists(rest & ~(u_bit | 1 << w)) for w in iter_bits(partners & rest)
        ):
            yield s_mask


def minimality_witness(g: Graph, k: int, e: tuple[int, int]) -> int | None:
    """Lexicographically first witness set for edge ``e``, or None.

    Absence means G - e is still k-factor-critical.  The k-factor-criticality
    precondition is checked lazily: only when no witness exists, since a
    found witness needs no such backing to be verifiable.
    """
    matcher = PerfectMatcher(g)
    for s_mask in _edge_witnesses(g, k, e, matcher):
        return s_mask
    if not is_k_factor_critical(g, k, matcher).verdict:
        raise NotCritical(f"graph is not {k}-factor-critical")
    return None


def minimality_certificate(g: Graph, k: int) -> MinimalityCertificate:
    """Witness sets for every edge; raises if the graph is not minimal.

    Each edge gets its lexicographically first witness, the one that
    ``minimality_witness`` reports, from ``_witness_search``: read off g's
    table of matchable sets up to ``TABLE_MAX_ORDER``, searched for with one
    memoized matcher above it.
    """
    _validate_k(g, k)
    first_witness = _witness_search(g, k)
    if first_witness is None:
        raise NotCritical(f"graph is not {k}-factor-critical")
    witnesses: dict[tuple[int, int], int] = {}
    for e in g.edges():
        found = first_witness(*e)
        if found is None:
            raise NotMinimallyCritical(f"edge {e} has no witness set")
        witnesses[e] = found
    return MinimalityCertificate(k, witnesses)


def ps_reduction_check(
    g: Graph, k: int, x: int, y: int, raise_on_violation: bool = False
) -> bool:
    """Criticality must be invariant under adding a non-edge xy whose degree
    sum is at least n + k - 1.  Always expected true; a false return is a
    soundness alarm, raised as TheoremViolated in verification mode."""
    _validate_k(g, k)
    if g.has_edge(x, y) or x == y:
        raise PreconditionUnmet(f"{x},{y} must be a non-adjacent pair")
    if g.degree(x) + g.degree(y) < g.n + k - 1:
        raise PreconditionUnmet(
            f"degree sum {g.degree(x) + g.degree(y)} below {g.n + k - 1}"
        )
    before = is_k_factor_critical(g, k).verdict
    after = is_k_factor_critical(add_edge(g, x, y), k).verdict
    agree = before == after
    if not agree and raise_on_violation:
        raise TheoremViolated(
            f"adding {x}-{y} changed {k}-factor-criticality ({before} -> {after})"
        )
    return agree


def downward_criticality_check(
    g: Graph, k: int, raise_on_violation: bool = False
) -> bool:
    """Structural consequences of k-factor-criticality, k >= 1: the graph is
    k-connected, (k+1)-edge-connected, and (k-2)-factor-critical when k >= 2.
    Expected true; a false return is a soundness alarm."""
    _validate_k(g, k)
    if k < 1:
        raise PreconditionUnmet("k must be at least 1")
    matcher = PerfectMatcher(g)
    if not is_k_factor_critical(g, k, matcher).verdict:
        raise PreconditionUnmet(f"graph is not {k}-factor-critical")
    conn = connectivity(g)
    ok = conn.vertex >= k and conn.edge >= k + 1
    if ok and k >= 2:
        ok = is_k_factor_critical(g, k - 2, matcher).verdict
    if not ok and raise_on_violation:
        raise TheoremViolated(
            f"{k}-factor-critical graph fails connectivity/downward clauses "
            f"(connectivity {conn.vertex}/{conn.edge})"
        )
    return ok
