"""Per-statement checkers that evaluate structural claims on a given graph.

Each checker returns a TheoremVerdict carrying the stable report identifier
of the statement it evaluates, whether the statement applies to the input at
all (most carry order gates), and a checkable witness on failure; every
applicable verdict is built by ``TheoremVerdict.checked``.  ``STATEMENTS``
marks each id proven or open.  A proven statement is expected-true: its
failure means an implementation bug or a genuine counterexample, so sweeps
escalate it as TheoremViolated and the CLI exits 3 on it, against 1 for an
open one.

``edge_verdicts`` decides, for each edge of a minimal graph, which
configuration statement its residual fails, if any: an Unclassified residual
fails config-completeness and a failed predicate check config-predicates.
Surveys and the CLI's ``predicates`` command both read it.

The degree-class statements (C2.7, T5.3-T5.5) read a class, the vertices of
one degree, through ``_of_degree``.  C2.7, T5.3 and T5.4 test it with
``graph.is_independent`` and a condition on the degree profile; T5.5 looks
for a 3-edge path inside it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .errors import NotCritical, NotMinimallyCritical, OrderTooSmall, PreconditionUnmet
from .graph import Graph, degree_profile, is_claw_free, is_independent, iter_bits, mask_from
from .criticality import is_k_factor_critical, is_minimally_kfc
from .configurations import UNCLASSIFIED, EdgeClassification, PredicateReport, certify_minimal_edges, config_predicates

DEGREE_BOUND = "T1.1"
MIN_DEGREE_PROVEN = "C1.2"
MIN_DEGREE_CONJECTURE = "Conj1.3"
MIN_DEGREE_OFFSET_8 = "T4.1"
STAR_STRUCTURE = "L2.5"
TWO_MAXDEG = "C2.7"
N4_CHARACTERIZATION = "L3.1"
MAXDEG_N2_PROFILE = "T5.3"
MAXDEG_N3_PROFILE = "T5.4"
MAXDEG_N4_PROFILE = "T5.5"
CONFIG_COMPLETENESS = "config-completeness"
CONFIG_PREDICATES = "config-predicates"

# Every statement id a sweep can report, "proven" or "open".  A proven
# statement holds on every graph a desk-scale sweep can reach, so its failure
# aborts the sweep instead of piling up counterexamples.
STATEMENTS = dict.fromkeys(
    (DEGREE_BOUND, MIN_DEGREE_PROVEN, MIN_DEGREE_OFFSET_8, STAR_STRUCTURE, TWO_MAXDEG,
     N4_CHARACTERIZATION, MAXDEG_N2_PROFILE, MAXDEG_N3_PROFILE, MAXDEG_N4_PROFILE,
     CONFIG_COMPLETENESS, CONFIG_PREDICATES),
    "proven",
) | {MIN_DEGREE_CONJECTURE: "open"}


@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of a single statement check on a single graph.

    ``passed`` is None exactly when the statement does not apply; a failing
    verdict always carries a witness that re-verifies independently.
    """

    theorem: str
    applicable: bool
    passed: bool | None
    witness: dict | None = None

    @classmethod
    def checked(cls, theorem: str, passed: bool, witness: dict) -> TheoremVerdict:
        """An applicable verdict on ``theorem``; it keeps ``witness`` only
        when the check failed."""
        return cls(theorem, True, passed, None if passed else witness)

    @property
    def failed(self) -> bool:
        return self.applicable and self.passed is False

    def to_json(self, graph6: str | None = None) -> dict:
        out = {
            "theorem": self.theorem,
            "applicable": self.applicable,
            "pass": self.passed,
            "witness": self.witness,
        }
        if graph6 is not None:
            out["graph6"] = graph6
        return out


def _require_minimal(g: Graph, k: int, verified: bool) -> None:
    if not verified and not is_minimally_kfc(g, k):
        raise NotMinimallyCritical(f"graph is not minimally {k}-factor-critical")


def check_degree_bounds(g: Graph, k: int, verified: bool = False) -> TheoremVerdict:
    """Upper bounds on the minimum degree of a minimally k-factor-critical
    graph: (n+k)/2 - 1 once n >= k+4, and (n+k)/2 - 2 once n >= k+6."""
    _require_minimal(g, k, verified)
    n = g.n
    if n < k + 4:
        return TheoremVerdict(DEGREE_BOUND, False, None)
    delta = g.min_degree()
    bound = (n + k) // 2 - (2 if n >= k + 6 else 1)
    passed = delta <= bound
    return TheoremVerdict.checked(DEGREE_BOUND, passed, {"min_degree": delta, "bound": bound})


def check_conjecture(g: Graph, k: int, verified: bool = False) -> TheoremVerdict:
    """Minimum degree of a minimally k-factor-critical graph equals k+1.

    The verdict id reflects the instantiation: proven ground for
    k in {n-2, n-4, n-6}, the k = n-8 result, and the open statement
    otherwise.
    """
    _require_minimal(g, k, verified)
    if k in (g.n - 2, g.n - 4, g.n - 6):
        tid = MIN_DEGREE_PROVEN
    elif k == g.n - 8:
        tid = MIN_DEGREE_OFFSET_8
    else:
        tid = MIN_DEGREE_CONJECTURE
    delta = g.min_degree()
    passed = delta == k + 1
    return TheoremVerdict.checked(tid, passed, {"min_degree": delta, "expected": k + 1})


def check_n4_characterization(g: Graph) -> TheoremVerdict:
    """(n-4)-factor-criticality must coincide with claw-freeness plus minimum
    degree at least n-3, for orders 6 and up."""
    if g.n < 6:
        raise OrderTooSmall("characterization needs order at least 6")
    critical = is_k_factor_critical(g, g.n - 4).verdict
    structural = is_claw_free(g) and g.min_degree() >= g.n - 3
    passed = critical == structural
    return TheoremVerdict.checked(N4_CHARACTERIZATION, passed,
                                  {"critical": critical, "claw_free_and_dense": structural})


def check_star_structure(g: Graph, k: int, verified_kfc: bool = False) -> TheoremVerdict:
    """For a k-factor-critical graph of order above k+2 with a universal
    vertex, minimality must be equivalent to the degree profile
    {n-1: 1, k+1: n-1}."""
    n = g.n
    if not verified_kfc and not is_k_factor_critical(g, k).verdict:
        raise NotCritical(f"graph is not {k}-factor-critical")
    if n <= k + 2 or g.max_degree() != n - 1:
        raise PreconditionUnmet("needs order above k+2 and a universal vertex")
    return _star_structure_verdict(g, k, is_minimally_kfc(g, k))


def _star_structure_verdict(g: Graph, k: int, minimal: bool) -> TheoremVerdict:
    """The star-structure verdict once g's minimality is known."""
    n = g.n
    profile = degree_profile(g)
    star_profile = profile == {n - 1: 1, k + 1: n - 1}
    passed = minimal == star_profile
    return TheoremVerdict.checked(STAR_STRUCTURE, passed, {"minimal": minimal, "profile": profile})


def _of_degree(g: Graph, d: int) -> list[int]:
    """The vertices of degree d, ascending."""
    return [v for v in range(g.n) if g.degree(v) == d]


def check_two_maxdeg_nonadjacent(g: Graph, k: int, verified: bool = False) -> TheoremVerdict:
    """A minimally k-factor-critical graph of order at least k+5 has at most
    two vertices of degree n-2, and no two of them adjacent."""
    _require_minimal(g, k, verified)
    n = g.n
    if n < k + 5:
        return TheoremVerdict(TWO_MAXDEG, False, None)
    high = _of_degree(g, n - 2)
    passed = len(high) <= 2 and is_independent(g, mask_from(high))
    return TheoremVerdict.checked(TWO_MAXDEG, passed, {"degree_n_minus_2_vertices": high})


def _has_path_of_three_edges(g: Graph, allowed: list[int]) -> list[int] | None:
    """A 4-vertex path (3 edges) inside ``allowed``, or None."""
    inside = mask_from(allowed)
    for b in allowed:
        for c in iter_bits(g.adj[b] & inside):
            for a in iter_bits(g.adj[b] & inside & ~(1 << c)):
                for d in iter_bits(g.adj[c] & inside & ~(1 << a | 1 << b)):
                    return [a, b, c, d]
    return None


def check_maxdeg_profile(g: Graph, verified: bool = False) -> TheoremVerdict:
    """Degree-distribution claims for minimally (n-6)-factor-critical graphs,
    dispatched on the maximum degree.

    A universal vertex hands off to the star-structure statement.  At
    max degree n-2 (order >= 8): h <= 2 such vertices, nonadjacent, and
    exactly n-2 vertices of degree n-5 and 2-h of degree n-4.  At n-3
    (order >= 9): at most three, and when three, pairwise nonadjacent with
    the other n-3 vertices at n-5.  At n-4 and below (order >= 11): at most
    four vertices of degree n-4 and no 3-edge path through four of them.
    """
    n = g.n
    k = n - 6
    if k < 1:
        raise OrderTooSmall("needs order at least 7")
    _require_minimal(g, k, verified)
    delta_max = g.max_degree()
    profile = degree_profile(g)

    if delta_max == n - 1:
        # k = n-6 puts the order above k+2, and minimality, checked or
        # vouched for above, is the star statement's left side.
        return _star_structure_verdict(g, k, True)

    if delta_max == n - 2:
        if n < 8:
            return TheoremVerdict(MAXDEG_N2_PROFILE, False, None)
        high = _of_degree(g, n - 2)
        ok = (len(high) <= 2 and is_independent(g, mask_from(high))
              and profile.get(n - 5, 0) == n - 2 and profile.get(n - 4, 0) == 2 - len(high))
        return TheoremVerdict.checked(MAXDEG_N2_PROFILE, ok, {"profile": profile, "high": high})

    if delta_max == n - 3:
        if n < 9:
            return TheoremVerdict(MAXDEG_N3_PROFILE, False, None)
        high = _of_degree(g, n - 3)
        ok = len(high) < 3 or (len(high) == 3 and is_independent(g, mask_from(high))
                               and profile.get(n - 5, 0) == n - 3)
        return TheoremVerdict.checked(MAXDEG_N3_PROFILE, ok, {"profile": profile, "high": high})

    if n < 11:
        return TheoremVerdict(MAXDEG_N4_PROFILE, False, None)
    mid = _of_degree(g, n - 4)
    bad_path = _has_path_of_three_edges(g, mid)
    ok = len(mid) <= 4 and bad_path is None
    return TheoremVerdict.checked(MAXDEG_N4_PROFILE, ok, {"profile": profile, "path": bad_path})


def minimal_verdicts(g: Graph, k: int, verified: bool = False) -> list[TheoremVerdict]:
    """All degree-statement verdicts that apply to a minimally k-factor-critical
    graph; the shared entry point for catalog sweeps."""
    _require_minimal(g, k, verified)
    out = [
        check_conjecture(g, k, verified=True),
        check_degree_bounds(g, k, verified=True),
        check_two_maxdeg_nonadjacent(g, k, verified=True),
    ]
    if k == g.n - 6 and k >= 1:
        out.append(check_maxdeg_profile(g, verified=True))
    return out


def edge_verdicts(
    g: Graph, k: int
) -> Iterator[tuple[tuple[int, int], EdgeClassification, PredicateReport | None, str | None]]:
    """Each edge of a minimally k-factor-critical graph as (edge, entry,
    report, failed): ``entry`` is the edge's witness and residual
    classification from ``certify_minimal_edges``, and ``report`` the
    ``config_predicates`` report of a residual labelled other than
    Unclassified, otherwise None.  ``failed`` is the configuration statement
    the edge fails: CONFIG_COMPLETENESS for an Unclassified residual,
    CONFIG_PREDICATES for a failed check under a met hypothesis, otherwise
    None.  The one place that decides it, for surveys and the CLI alike."""
    for e, entry in certify_minimal_edges(g, k).items():
        if entry.match is None:
            yield e, entry, None, None
        elif entry.match.label == UNCLASSIFIED:
            yield e, entry, None, CONFIG_COMPLETENESS
        else:
            report = config_predicates(g, e, entry.witness, entry.match)
            failed = report.hypothesis_met and not report.all_passed
            yield e, entry, report, CONFIG_PREDICATES if failed else None
