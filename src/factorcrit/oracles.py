"""Brute-force oracles that cross-check the production decision procedures.

Each oracle answers a question a production routine also answers, by an
exhaustive method that shares none of its search code:

- ``maximum_matching_bruteforce``: memoized search over vertex subsets,
  against the blossom ``maximum_matching``;
- ``max_deficiency``: the largest (odd components of G - X) - |X| over every
  vertex set X, against matching sizes and ``tutte_violators``;
- ``kfc_via_tutte``: the odd-component characterization of
  k-factor-criticality, against the definitional ``is_k_factor_critical``.

All of them are exponential in the order and meant for the small orders the
test suite sweeps.  They share only result types, input validation and
bitset helpers with the production modules.
"""

from __future__ import annotations

from math import comb

from .criticality import CriticalityReport, _validate_k
from .graph import Graph, _odd_component_count, check_subset_budget, iter_bits, k_sets
from .matching import Matching

METHOD_TUTTE = "tutte-type"


def maximum_matching_bruteforce(g: Graph) -> Matching:
    """Exhaustive maximum matching; the independent oracle for the blossom
    code.  Its memo may hold every one of the 2^n vertex subsets, so it
    refuses more than ``SUBSET_BUDGET`` of them up front, as
    ``max_deficiency`` does: orders above 19."""
    check_subset_budget(1 << g.n)
    memo: dict[int, int] = {}
    adj = g.adj

    def best(mask: int) -> int:
        if mask == 0:
            return 0
        cached = memo.get(mask)
        if cached is not None:
            return cached
        v_bit = mask & -mask
        rest = mask ^ v_bit
        score = best(rest)
        nbrs = adj[v_bit.bit_length() - 1] & rest
        while nbrs:
            w_bit = nbrs & -nbrs
            nbrs ^= w_bit
            score = max(score, 1 + best(rest ^ w_bit))
        memo[mask] = score
        return score

    edges = []
    mask = g.vertex_mask
    while mask:
        v_bit = mask & -mask
        rest = mask ^ v_bit
        target = best(mask)
        if best(rest) == target:
            mask = rest
            continue
        v = v_bit.bit_length() - 1
        for w in iter_bits(adj[v] & rest):
            if 1 + best(rest ^ (1 << w)) == target:
                edges.append((v, w))
                mask = rest ^ (1 << w)
                break
    return Matching.from_pairs(g, edges)


def max_deficiency(g: Graph) -> tuple[int, int]:
    """Brute-force maximum of (odd components of G-X) - |X| over all X.

    Returns the maximum and the lexicographically first attaining set.  This
    is the independent deficiency oracle: maximum matchings have size
    (n - deficiency) / 2.  Refuses more than ``SUBSET_BUDGET`` sets up front.
    """
    check_subset_budget(1 << g.n)
    adj = g.adj
    full = g.vertex_mask
    best = -1
    best_x = 0
    for size in range(g.n + 1):
        for x_mask in k_sets(full, size):
            value = _odd_component_count(adj, full & ~x_mask) - size
            if value > best:
                best = value
                best_x = x_mask
    return best, best_x


def kfc_via_tutte(g: Graph, k: int) -> CriticalityReport:
    """Odd-component characterization: k-factor-critical iff every B with
    |B| >= k leaves at most |B| - k odd components.  Exponential in n; meant
    for the small orders where it cross-checks the definitional test, and
    refuses more than ``SUBSET_BUDGET`` sets up front."""
    _validate_k(g, k)
    check_subset_budget(sum(comb(g.n, size) for size in range(k, g.n + 1)))
    adj = g.adj
    full = g.vertex_mask
    for size in range(k, g.n + 1):
        for b_mask in k_sets(full, size):
            if _odd_component_count(adj, full & ~b_mask) > size - k:
                return CriticalityReport(k, False, b_mask, METHOD_TUTTE)
    return CriticalityReport(k, True, None, METHOD_TUTTE)
