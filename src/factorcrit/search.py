"""Catalog generation and ingestion, catalog-wide surveys, counterexample hunts.

Generation is orderly (Read's method): a labeled graph is emitted iff its
column-wise upper-triangle encoding is lexicographically minimal over all
relabelings.  Minimal labelings are closed under removing the last vertex,
so extending each canonical graph of order m-1 by one vertex and keeping the
canonical extensions enumerates every isomorphism class of order m exactly
once.  Feasible to order 9; larger catalogs are ingested from graph6 files.

One depth-first branch and bound over labelings, ``_min_columns``, decides
minimality and finds canonical forms.  It fills positions 0, 1, ... in turn,
starting from the identity labeling as the best so far, and runs in two
modes:

- orderly (generation): stop at the first column that comes out smaller
  than the identity's, which proves the labeling is not minimal;
- canonical (``canonical_form``): when a column comes out smaller, replace
  the best codes from that column on and keep searching.

The candidates for a position are a vertex bitset.  A candidate whose row
agrees with that of a candidate already explored at the same depth, except
on the two vertices themselves, is skipped: the two are twins, swapping them
is an automorphism fixing every placed vertex, and both subtrees hold the
same codes.  Twin pruning makes complete, empty and complete bipartite
graphs cheap at any order; graphs whose automorphisms twin swaps do not
generate, such as cycles and cocktail-party graphs, still cost exponential
time.

Generation tests one extension per orbit of the parent's automorphism group.
An extension of a parent P of order m-1 is a mask, the neighbours of the new
vertex m-1; the child P+mask shares P's columns and its last column's code
is the bit-reverse of the mask.  If s is an automorphism of P and s(mask)
has a smaller code than mask, relabelling P+mask by s, with the new vertex
fixed, gives P+s(mask): the same first columns and a smaller last one, so
P+mask is not minimal.  Only the mask with the smallest code in its orbit
can pass, and the others are skipped untested.  The group comes for free
from P's own accepted orderly test, which walks every labeling that ties
the identity: each leaf it reaches is an automorphism, and each twin swap it
prunes is one too.  Together they generate Aut(P), since every automorphism
either is a leaf or maps to one under the swaps of the subtrees it enters.

Two rules cut the orderly tests further without changing any output:

- Last-swap prefilter, at every level.  Swapping vertices m-2 and m-1 keeps
  columns 1..m-3 and turns column m-2 into the new vertex's row over
  vertices 0..m-3, which is the mask's code without its last bit.  When that
  is smaller than P's column m-2, the swap proves P+mask is not minimal, so
  the mask is skipped untested.  Only accepted tests yield automorphisms,
  and every skipped mask would have been rejected, so no generator is lost.
- Insertion bound, at the last level only.  A labeling that places the new
  vertex t last cannot come out smaller: its first columns relabel P, which
  is canonical, and on a tie the relabeling is an automorphism s of P,
  whose s(mask) has no smaller code than the orbit leader mask.  So while t
  is unplaced at depth j, with its row over the placed prefix reading c,
  every smaller labeling places t at some position i >= j, after columns
  1..i-1 that tie P's.  Column i then starts with the bits c, so if c
  exceeds the first j bits of each of P's columns i >= j
  (``_insertion_limits``), the subtree holds nothing smaller and is cut.
  This needs the orbit leaders of the full Aut(P), hence generators that
  generate it.  At the other levels the cut subtrees hold the leaves and
  twin swaps that the next level's orbit leaders come from, so there the
  tests keep walking them; the last level keeps no automorphisms.
"""

from __future__ import annotations

import json
import os
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Collection, Iterable, Iterator, Sequence

from .errors import (
    FactorCritError,
    FileUnreadable,
    KOutOfRange,
    MalformedEncoding,
    OrderTooLargeForGenerate,
    ParityMismatch,
    PreconditionUnmet,
    ResumeMismatch,
    TheoremViolated,
)
from .graph import GRAPH6_HEADER, Graph, _rows_from_columns, degree_profile, encode_graph6, parse_graph6
from .criticality import kfc_and_minimal
# Also a module attribute here: the perfbench harness reads and traces the
# k-factor-critical test as factorcrit.search.is_k_factor_critical.
from .criticality import is_k_factor_critical  # noqa: F401
from .configurations import (
    FAMILY_ORDER,
    UNCLASSIFIED,
    certify_minimal_edges,
    config_predicates,
)
from .verifiers import (
    CONFIG_COMPLETENESS,
    CONFIG_PREDICATES,
    STATEMENTS,
    check_conjecture,
    minimal_verdicts,
)

GENERATE_MAX_ORDER = 9

DEDUP_AS_IS = "as-is"
DEDUP_CANONICAL = "canonical"

# Version of the JSON payloads: the survey report and every CLI --json output.
SCHEMA = 1

# A graph of the previous generation level as its rows, with the non-identity
# generators of its automorphism group as permutation tuples.
_Parent = tuple[tuple[int, ...], set[tuple[int, ...]]]

# One encoder for every JSONL record: json.dumps builds a new one per call.
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)
# A short record's line without the encoder, whose encode builds a new C
# encoder per call: that took most of a degree-gated record's time.
_SHORT_LINE = '{"graph6": "%s", "kfc": %s, "minimal": false}\n'
# A run of degree-gated graphs, which are never k-factor-critical, is
# written as one text: _GATED_HEAD + _GATED_SEP.join(lines) + _GATED_TAIL.
_GATED_HEAD, _GATED_TAIL = (_SHORT_LINE % ("%s", "false")).split("%s")
_GATED_SEP = _GATED_TAIL + _GATED_HEAD


def _column_codes(adj: Sequence[int], n: int) -> list[int]:
    """Column codes of the identity labeling: ``codes[j]`` (1 <= j < n) holds
    column j, bit j-1-i being the cell (i, j); ``codes[0]`` is 0."""
    codes = [0] * n
    for j in range(1, n):
        row = adj[j]
        code = 0
        for i in range(j):
            code = (code << 1) | (row >> i & 1)
        codes[j] = code
    return codes


def _min_columns(
    adj: Sequence[int],
    best: list[int],
    orderly: bool,
    autos: set | None = None,
    limits: Sequence[int] | None = None,
) -> list[int] | None:
    """Column codes of the lexicographically minimal relabeling of ``adj``.

    ``best`` holds the identity's column codes (``_column_codes``), which
    one depth-first branch and bound over labelings starts from as the best
    so far.  With ``orderly`` it returns None at the first column that comes
    out smaller, and otherwise ``best`` unchanged: the orderly test.  Then
    every leaf it reaches ties the identity and so is an automorphism, and
    ``autos``, if given, receives each as a permutation tuple, the vertex at
    each position, and so does each twin swap it prunes; the identity is
    among them.  Without ``orderly``, a smaller column replaces the best
    codes from that column on, and every later position takes the smallest
    code it can reach.

    The candidates for position j are a vertex bitset, narrowed against each
    placed vertex's row in turn while following the best column's bit for
    that vertex.  Twins of a candidate already explored at the same depth
    are skipped (see the module docstring).

    ``limits``, for an orderly test at the last generation level only, is
    ``_insertion_limits`` of the canonical parent's codes: a subtree is cut
    once the new vertex n-1, still unplaced, has a row over the placed
    prefix above ``limits[j]`` (the insertion bound of the module
    docstring).  It cuts leaves too, so it must not be given with ``autos``.
    """
    n = len(best)
    placed = [0] * n  # row of the vertex at each filled position
    labels = [0] * n  # the vertex itself
    bounded = n  # positions below this one are bounded by ``best``
    last = n - 1  # the new vertex, for ``limits``
    last_row = adj[last] if limits is not None else 0

    def dfs(j: int, unplaced: int, prefix: int) -> bool:
        nonlocal bounded
        if j == n:
            if autos is not None:
                autos.add(tuple(labels))
            return True
        cand = unplaced
        if j:
            free = j >= bounded
            i = code = 0
            if not free:
                bound = best[j]
                bit = 1 << (j - 1)
                while bit:
                    below = cand & ~placed[i]
                    i += 1
                    if bound & bit:
                        if below:  # a smaller column j
                            if orderly:
                                return False
                            free = True
                            cand = below
                            code = (bound ^ bit) >> (j - i)
                            break
                    elif below:
                        cand = below
                    else:  # every candidate's column j is larger
                        return True
                    bit >>= 1
            if free:  # the rest of column j takes its smallest bits
                for row in placed[i:j]:
                    below = cand & ~row
                    if below:
                        cand = below
                        code <<= 1
                    else:
                        code = (code << 1) | 1
                best[j] = code
                bounded = j + 1
        explored = 0
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            row = adj[v]
            rest = explored
            while rest:
                other = rest & -rest
                if not (row ^ adj[other.bit_length() - 1]) & ~(low | other):
                    break
                rest ^= other
            if rest:  # a twin of an explored candidate
                if autos is not None:
                    swap = list(range(n))
                    w = other.bit_length() - 1
                    swap[v], swap[w] = w, v
                    autos.add(tuple(swap))
                continue
            explored |= low
            child = 0  # the new vertex's row over the child's prefix
            if limits is not None and v != last and unplaced >> last:
                child = prefix << 1 | last_row >> v & 1
                if child > limits[j + 1]:  # the insertion bound
                    continue
            placed[j] = row
            labels[j] = v
            if not dfs(j + 1, unplaced ^ low, child):
                return False
        return True

    return best if dfs(0, (1 << n) - 1, 0) else None


def canonical_form(g: Graph) -> Graph:
    """The isomorph of ``g`` with the lexicographically minimal encoding."""
    codes = _min_columns(g.adj, _column_codes(g.adj, g.n), orderly=False)
    bits = 0
    for j in range(1, g.n):
        bits = bits << j | codes[j]
    return Graph._trusted(g.n, _rows_from_columns(g.n, bits))


def canonical_graph6(g: Graph) -> str:
    return encode_graph6(canonical_form(g))


def _check_generate_order(n: int) -> None:
    if n < 1:
        raise KOutOfRange("order must be at least 1")
    if n > GENERATE_MAX_ORDER:
        raise OrderTooLargeForGenerate(
            f"built-in generation stops at order {GENERATE_MAX_ORDER}; ingest a catalog"
        )


def generate_nonisomorphic(n: int) -> Iterator[Graph]:
    """Stream every isomorphism class of order ``n`` exactly once."""
    _check_generate_order(n)
    if n == 1:
        yield Graph._trusted(1, (0,))
        return
    level: list[_Parent] = [((0,), set())]
    for m in range(2, n):
        level = [(adj, autos - {tuple(range(m))}) for adj, autos in _extend_level(level, m)]
    for adj, _autos in _extend_level(level, n, last=True):
        yield Graph._trusted(n, adj)


def _extend_level(
    parents: Iterable[_Parent], m: int, last: bool = False
) -> Iterator[tuple[tuple[int, ...], set | None]]:
    """The canonical children of order ``m`` of each parent, with the
    automorphisms their orderly tests met, or None at the ``last`` level,
    which keeps none and applies the insertion bound instead.

    A child's columns 1..m-2 are its parent's and its last column's code is
    the bit-reverse of the mask, so both are computed once; only the masks
    that ``_orbit_leaders`` keeps and the last-swap prefilter passes are
    tested."""
    top = m - 1
    reverse = _subset_images(range(top - 1, -1, -1))  # mask -> last-column code
    for parent, gens in parents:
        codes = _column_codes(parent, top)
        limits = _insertion_limits(codes) if last else None
        codes.append(0)
        for mask in _orbit_leaders(gens, top, reverse):
            code = reverse[mask]
            if code >> 1 < codes[top - 1]:  # the last-swap prefilter
                continue
            adj = [parent[v] | ((mask >> v & 1) << top) for v in range(top)]
            adj.append(mask)
            codes[top] = code
            autos = None if last else set()
            if _min_columns(adj, codes, orderly=True, autos=autos, limits=limits) is not None:
                yield tuple(adj), autos


def _insertion_limits(codes: Sequence[int]) -> list[int]:
    """For a canonical parent's column codes, ``limits[j]`` is the largest
    first j bits of any column i >= j, ``codes[i] >> (i - j)``, and -1 for
    j = len(codes), where no column is left."""
    limits = [-1] * (len(codes) + 1)
    for j in range(len(codes) - 1, -1, -1):
        limits[j] = max(codes[j], limits[j + 1] >> 1)
    return limits


def _subset_images(perm: Sequence[int]) -> list[int]:
    """The image of every vertex subset (a mask) under ``perm``, as a table."""
    images = [0]
    for v in perm:
        bit = 1 << v
        images += [image | bit for image in images]
    return images


def _orbit_leaders(gens: Collection[Sequence[int]], top: int, reverse: list[int]) -> Iterable[int]:
    """One mask per orbit of the group that ``gens`` generate on the subsets
    of vertices 0..top-1, in increasing order: the one whose last-column code
    ``reverse[mask]`` is smallest, the only one whose extension can be
    canonical (see the module docstring)."""
    if not gens:
        return range(1 << top)
    tables = [_subset_images(perm) for perm in gens]
    seen = bytearray(1 << top)
    leaders = []
    for mask in reverse:  # reverse is an involution: masks by increasing code
        if seen[mask]:
            continue
        leaders.append(mask)
        seen[mask] = 1
        stack = [mask]
        while stack:
            orbit_member = stack.pop()
            for images in tables:
                image = images[orbit_member]
                if not seen[image]:
                    seen[image] = 1
                    stack.append(image)
    leaders.sort()
    return leaders


@dataclass(frozen=True)
class Catalog:
    """A fixed-order collection of graphs, held as graph6 lines.

    Each catalog decodes its lines at most once, into one row source that
    iteration and every ``survey`` pass read, the pool's workers included.
    A catalog built from graphs already in hand (generation, ingest by
    ``enumerate_catalog``, ``from_graphs``) keeps their rows from the start
    and parses nothing.  Any other catalog, made by the constructor or by
    ``dataclasses.replace``, decodes all its lines on first use and keeps
    them.  The survey's degree gate reads one more column, each graph's
    minimum degree, derived from the rows on first use.  Rows and column
    are derived, not fields: equality, hashing and
    ``dataclasses.replace`` see only the lines.  A malformed line, one of
    another order than ``n``, or one with a header or whitespace around its
    graph6 text, raises ``MalformedEncoding`` on first use, before anything
    else happens: every line a catalog holds is bare graph6.
    """

    n: int
    source: str
    dedup: str
    graph6_lines: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.graph6_lines)

    def __iter__(self) -> Iterator[Graph]:
        n, rows = self.n, self._rows
        return (Graph._trusted(n, tuple(rows[i * n:i * n + n])) for i in range(len(self)))

    @cached_property
    def _rows(self) -> array:
        """The adjacency rows of every graph end to end, ``n`` per graph, in
        the narrowest array type that holds ``n`` bits, so that they take
        about the memory of the lines or less."""
        n, rows = self.n, _row_array(self.n)
        size = 1 + (n * (n - 1) // 2 + 5) // 6  # the bytes of an order-n graph6 line
        for line in self.graph6_lines:
            rows.extend(_of_order(parse_graph6(line), n).adj)
            if len(line) != size:
                raise MalformedEncoding(f"graph6 line {line!r} has a header or whitespace around it")
        return rows

    @cached_property
    def _min_degrees(self) -> bytes:
        """The minimum degree of every graph, one byte each, in catalog
        order: the elementwise ``min`` of the ``n`` degree columns, one per
        vertex position.  Column 0 is passed twice, so that ``min`` gets at
        least two columns at order 1."""
        n, degrees = self.n, bytes(map(int.bit_count, self._rows))
        return bytes(map(min, degrees[::n], *(degrees[j::n] for j in range(n))))

    @classmethod
    def from_graphs(cls, n: int, graphs: Iterable[Graph], source: str = "memory") -> Catalog:
        return _kept_catalog(n, source, DEDUP_AS_IS, ((encode_graph6(g), _of_order(g, n).adj) for g in graphs))


def _row_array(n: int) -> array:
    return array(next((c for c in "BHIL" if array(c).itemsize * 8 >= n), "Q"))


def _kept_catalog(n: int, source: str, dedup: str, entries: Iterable[tuple[str, tuple[int, ...]]]) -> Catalog:
    """The catalog of (graph6 text, rows) ``entries``, keeping the rows."""
    lines: list[str] = []
    rows = _row_array(n)
    for text, adj in entries:
        lines.append(text)
        rows.extend(adj)
    catalog = Catalog(n, source, dedup, tuple(lines))
    catalog.__dict__["_rows"] = rows  # where cached_property keeps it
    return catalog


def _of_order(g: Graph, n: int) -> Graph:
    """``g``, which must have order ``n`` to join an order-``n`` catalog."""
    if g.n != n:
        raise MalformedEncoding(f"graph of order {g.n} in order-{n} catalog")
    return g


def _read_graph6_file(
    path: str, lenient: bool, bad: list[tuple[int, str]]
) -> Iterator[tuple[int, str, Graph]]:
    """``_parse_graph6_lines`` over the lines of the file at ``path``, read
    as they are decoded.

    Non-ASCII bytes decode to lone surrogates, which ``parse_graph6``
    rejects as out of range like any other malformed line.  A file that
    cannot be opened or read raises ``FileUnreadable``."""
    try:
        with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
            yield from _parse_graph6_lines(handle, path, lenient, bad)
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc


def _parse_graph6_lines(
    lines: Iterable[str], where: str, lenient: bool, bad: list[tuple[int, str]]
) -> Iterator[tuple[int, str, Graph]]:
    """The good lines as (lineno, graph6, graph) entries, counting from 1,
    skipping blank lines, one at a time so that a caller can keep as little
    of each as it needs.

    A good line's graph6 text has its whitespace and any ``GRAPH6_HEADER``
    taken off; a bare header is an empty graph6 string, so a bad line.  A
    bad line raises ``MalformedEncoding``, prefixed ``where:lineno:`` with
    ``where`` naming the source (a path, or stdin), unless ``lenient``;
    then it is skipped and appended to ``bad`` as (lineno, message)."""
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
        except FactorCritError as exc:
            if not lenient:
                raise MalformedEncoding(f"{where}:{lineno}: {exc}") from exc
            bad.append((lineno, str(exc)))
            continue
        yield lineno, text.removeprefix(GRAPH6_HEADER), g


def enumerate_catalog(
    n: int,
    path: str | None = None,
    lenient: bool = False,
    dedup: str = DEDUP_AS_IS,
    bad: list[tuple[int, str]] | None = None,
) -> Catalog:
    """Build a catalog by generating order ``n`` or ingesting a graph6 file.

    Ingested lines must all decode to graphs of order ``n``; under ``lenient``
    offending lines are skipped and appended to ``bad``, when given, as
    (lineno, message); otherwise the first one in the file is fatal with
    its line number.  ``dedup='canonical'`` drops isomorphic duplicates on
    ingest.  Either way the catalog keeps the rows of the
    graphs it was built from, and no ``Graph`` outlives its line.
    """
    if dedup not in (DEDUP_AS_IS, DEDUP_CANONICAL):
        raise PreconditionUnmet(
            f"dedup must be {DEDUP_AS_IS!r} or {DEDUP_CANONICAL!r}, not {dedup!r}"
        )
    if path is None:
        graphs = generate_nonisomorphic(n)
        return _kept_catalog(n, "generate", DEDUP_CANONICAL, ((encode_graph6(g), g.adj) for g in graphs))

    skipped = [] if bad is None else bad

    def ingested() -> Iterator[tuple[str, tuple[int, ...]]]:
        seen: set[str] = set()
        for lineno, text, g in _read_graph6_file(path, lenient, skipped):
            if g.n != n:
                message = f"order {g.n}, expected {n}"
                if not lenient:
                    raise MalformedEncoding(f"{path}:{lineno}: {message}")
                skipped.append((lineno, message))
                continue
            if dedup == DEDUP_CANONICAL:
                canon = canonical_graph6(g)
                if canon in seen:
                    continue
                seen.add(canon)
            yield text, g.adj

    return _kept_catalog(n, path, dedup, ingested())


def valid_k_values(n: int) -> list[int]:
    """All k with 1 <= k <= n-2 and the parity of n."""
    return [k for k in range(1, n - 1) if (n - k) % 2 == 0]


@dataclass
class SurveyReport:
    """Aggregate of a criticality/minimality sweep of one catalog at one k."""

    n: int
    k: int
    source: str
    total: int = 0
    kfc_count: int = 0
    minimal_count: int = 0
    min_degree_distribution: dict[int, int] = field(default_factory=dict)
    degree_profiles: dict[str, int] = field(default_factory=dict)
    verdict_tallies: dict[str, dict[str, int]] = field(default_factory=dict)
    config_label_counts: dict[str, int] = field(default_factory=dict)
    ambiguous_count: int = 0
    predicate_counts: dict[str, int] = field(default_factory=lambda: {"passed": 0, "failed": 0, "vacuous_edges": 0, "skipped_edges": 0})
    counterexamples: list[tuple[str, str]] = field(default_factory=list)
    errors: list[tuple[str, str]] = field(default_factory=list)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA,
            "n": self.n,
            "k": self.k,
            "source": self.source,
            "total": self.total,
            "kfc": self.kfc_count,
            "minimal": self.minimal_count,
            "min_degree_distribution": {str(d): c for d, c in sorted(self.min_degree_distribution.items())},
            "degree_profiles": dict(sorted(self.degree_profiles.items())),
            "verdicts": {t: dict(v) for t, v in sorted(self.verdict_tallies.items())},
            "config_labels": dict(sorted(self.config_label_counts.items())),
            "ambiguous": self.ambiguous_count,
            "predicates": dict(self.predicate_counts),
            "counterexamples": [list(c) for c in self.counterexamples],
            "errors": [list(e) for e in self.errors],
        }


def _profile_key(profile: dict[int, int]) -> str:
    return ",".join(f"{d}:{c}" for d, c in sorted(profile.items()))


def _survey_record(line: str, adj: tuple[int, ...], k: int) -> dict:
    """Everything the aggregator needs about one catalog graph, ``adj``
    being the rows of the graph that ``line`` encodes.  A graph that is
    not minimally k-factor-critical gets the short record, keyed graph6,
    kfc and minimal only."""
    record: dict = {"graph6": line, "kfc": False, "minimal": False}
    g = Graph._trusted(len(adj), adj)
    try:
        record["kfc"], record["minimal"] = kfc_and_minimal(g, k)
        if not record["minimal"]:
            return record
        record["min_degree"] = g.min_degree()
        record["degree_profile"] = _profile_key(degree_profile(g))
        verdicts = []
        failures: list[str] = []
        for verdict in minimal_verdicts(g, k, verified=True):
            verdicts.append({"theorem": verdict.theorem, "applicable": verdict.applicable, "pass": verdict.passed})
            if verdict.failed:
                failures.append(verdict.theorem)
        record["verdicts"] = verdicts
        if g.n - k in FAMILY_ORDER.values():
            config: dict = {"labels": {}, "ambiguous": 0, "pred_passed": 0, "pred_failed": 0, "vacuous_edges": 0, "skipped_edges": 0}
            for e, entry in certify_minimal_edges(g, k).items():
                if entry.match is None:
                    config["skipped_edges"] += 1
                    continue
                label = entry.match.label
                config["labels"][label] = config["labels"].get(label, 0) + 1
                if entry.match.ambiguity_flag:
                    config["ambiguous"] += 1
                if label == UNCLASSIFIED:
                    failures.append(CONFIG_COMPLETENESS)
                    continue
                report = config_predicates(g, e, entry.witness, entry.match)
                if not report.hypothesis_met:
                    config["vacuous_edges"] += 1
                    continue
                failed = sum(not c.passed for c in report.checks)
                config["pred_passed"] += len(report.checks) - failed
                config["pred_failed"] += failed
                if failed:
                    failures.append(CONFIG_PREDICATES)
            record["config"] = config
        record["failures"] = failures
    except FactorCritError as exc:
        record["error"] = str(exc)
    return record


def survey(
    catalog: Catalog,
    k: int,
    jobs: int = 1,
    raise_on_violation: bool = True,
    jsonl_path: str | None = None,
    skip: int = 0,
    on_minimal: Callable[[str], None] | None = None,
) -> SurveyReport:
    """Run the criticality, minimality, and statement checks over a catalog.

    Deterministic: records are aggregated in catalog order regardless of
    ``jobs``.  ``jsonl_path`` streams one JSON line per graph so long sweeps
    can resume by passing the line count as ``skip`` (the report then covers
    the remainder only); ``skip`` outside 0..len(catalog) raises
    ``PreconditionUnmet`` before any file is opened.  A resumed file must hold exactly ``skip`` complete
    records, for the first ``skip`` catalog graphs in order, or
    ``ResumeMismatch`` is raised; a torn last line left by a crash is cut
    off first.  ``on_minimal`` receives the graph6 line of each minimally
    k-factor-critical graph, in catalog order.  ``jobs`` is capped at the
    number of CPUs this process may run on.

    The catalog is decoded first, if it has not been already, so that a bad
    line raises ``MalformedEncoding`` before the resume check or the sink
    touches ``jsonl_path``.  A k-factor-critical graph is
    (k+1)-edge-connected (Favaron; Yu), so each run of consecutive graphs
    with minimum degree at most k, read off the catalog's minimum-degree
    column, is settled in bulk and only counted towards ``total``.  Its
    short records are written as one text: the run's graph6 lines joined
    between the fixed parts of a gated record's line, with one backslash
    escape over the whole, the same bytes as one encoder call per record.
    A pool worker sends a run back as its lines, so it is written the same
    way.
    """
    n = catalog.n
    if n < 3:
        raise KOutOfRange(f"order {n} has no valid k (surveys need 1 <= k <= n-2)")
    if not 1 <= k <= n - 2:
        raise KOutOfRange(f"k={k} outside 1..{n - 2}")
    if (n - k) % 2:
        raise ParityMismatch(f"k={k} and order {n} have different parity")
    if not 0 <= skip <= len(catalog):
        raise PreconditionUnmet(f"skip={skip} outside 0..{len(catalog)}")
    report = SurveyReport(n=n, k=k, source=catalog.source)
    catalog._rows  # decode now, before the pool forks or the file is touched
    catalog._min_degrees  # and derive the column, which the workers inherit
    if jsonl_path is not None and skip:
        _check_resume(jsonl_path, catalog.graph6_lines, skip)
    sink = open(jsonl_path, "a" if skip else "w", encoding="utf-8") if jsonl_path else None
    try:
        for item in _iter_records(catalog, skip, k, jobs):
            if not isinstance(item, dict):  # a run of degree-gated graphs' lines
                if sink is not None:  # bare graph6, decoded above: see _escaped
                    sink.write(_escaped(_GATED_HEAD + _GATED_SEP.join(item) + _GATED_TAIL))
                report.total += len(item)
                continue
            if sink is not None:
                sink.write(_jsonl_line(item))
            _fold_record(report, item, raise_on_violation, on_minimal)
    finally:
        if sink is not None:
            sink.close()
    return report


def _jsonl_line(record: dict) -> str:
    """``_JSONL_ENCODER``'s line for ``record``.  A short record, keyed
    graph6, kfc and minimal only, is written from ``_SHORT_LINE``: its
    minimal is false, and its graph6 text is escaped by ``_escaped``."""
    if len(record) == 3:
        return _SHORT_LINE % (_escaped(record["graph6"]), "true" if record["kfc"] else "false")
    return _JSONL_ENCODER.encode(record) + "\n"


def _escaped(text: str) -> str:
    """``text`` with each backslash doubled, which is all that JSON escapes in
    graph6 text: its bytes are 63-126.  Every line a survey writes is bare
    graph6, since ``survey`` decodes the catalog, which checks each line,
    before it opens the sink."""
    return text.replace("\\", "\\\\")


def _check_resume(path: str, lines: Sequence[str], skip: int) -> None:
    """Check that ``path`` holds one complete record for each of the first
    ``skip`` catalog ``lines``, in order, then cut the file after its last
    newline, dropping any torn fragment, so that appending continues the
    stream.  The file is read one line at a time, and a wrong record count
    is reported before a wrong record."""
    count = complete = 0
    mismatch = None
    try:
        with open(path, "rb") as handle:
            for raw in handle:
                if not raw.endswith(b"\n"):
                    break  # a torn last line
                count += 1
                complete += len(raw)
                if mismatch is None and count <= skip and _record_graph6(raw) != lines[count - 1]:
                    mismatch = count
    except OSError as exc:
        raise ResumeMismatch(f"cannot resume {path}: {exc}") from exc
    if count != skip:
        raise ResumeMismatch(
            f"{path} holds {count} complete records; resuming after {skip} "
            f"of {len(lines)} catalog graphs needs exactly {skip}"
        )
    if mismatch is not None:
        raise ResumeMismatch(f"{path}:{mismatch}: not the record of catalog graph {lines[mismatch - 1]}")
    os.truncate(path, complete)


def _record_graph6(raw: bytes) -> object:
    """The graph6 field of a JSONL record, or None when it has none."""
    try:
        return json.loads(raw).get("graph6")
    except (ValueError, AttributeError):
        return None


def _iter_records(catalog: Catalog, skip: int, k: int, jobs: int) -> Iterator[dict | Sequence[str]]:
    """The ``_records`` items of the catalog's graphs after the first
    ``skip``, in order.  With ``jobs`` above 1 and at least 64 graphs, a
    pool of at most one worker per usable CPU receives index ranges: its
    workers, forked after the catalog was decoded, read the same rows and
    minimum-degree column and parse nothing.  A range boundary may split a
    run of degree-gated graphs in two."""
    count = len(catalog) - skip
    jobs = min(jobs, _usable_cpus())
    if jobs <= 1 or count < 64:
        yield from _records(catalog, skip, len(catalog), k)
        return
    size = max(32, count // (jobs * 16))
    ranges = [(start, min(start + size, len(catalog))) for start in range(skip, len(catalog), size)]
    import multiprocessing  # here, not at module level: only a pool needs it

    # fork passes the initializer's arguments unpickled: each worker inherits
    # the catalog with its rows
    with multiprocessing.get_context("fork").Pool(jobs, _start_worker, (catalog, k)) as pool:
        for records in pool.imap(_survey_range, ranges):
            yield from records


def _records(catalog: Catalog, start: int, stop: int, k: int) -> Iterator[dict | Sequence[str]]:
    """The items of catalog graphs ``start`` to ``stop`` - 1, in order:
    each maximal run of consecutive graphs with minimum degree at most k
    as the slice of their graph6 lines, and every other graph as its
    ``_survey_record``, so a degree-gated graph costs no ``Graph``, no
    record and no matching work."""
    n, rows, lines = catalog.n, catalog._rows, catalog.graph6_lines
    # 1 for each graph past the degree gate, 0 for each gated one
    past = catalog._min_degrees.translate(bytes(d > k for d in range(256)))
    i = start
    while i < stop:
        if past[i]:
            yield _survey_record(lines[i], tuple(rows[i * n:i * n + n]), k)
            i += 1
        else:
            j = past.find(1, i, stop)
            j = stop if j < 0 else j
            yield lines[i:j]
            i = j


# The catalog and k of the survey that a pool worker serves, set once in
# each worker by ``_start_worker``.
_worker_survey: tuple[Catalog, int] | None = None


def _start_worker(catalog: Catalog, k: int) -> None:
    global _worker_survey
    _worker_survey = catalog, k


def _survey_range(bounds: tuple[int, int]) -> list[dict | Sequence[str]]:
    """A pool task: the ``_records`` items of the graphs in ``bounds``, a
    (start, stop) index range of the worker's catalog."""
    catalog, k = _worker_survey
    return list(_records(catalog, *bounds, k))


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one, otherwise the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _fold_record(
    report: SurveyReport,
    record: dict,
    raise_on_violation: bool,
    on_minimal: Callable[[str], None] | None,
) -> None:
    """Add one record to ``report``.  A record that is neither minimal nor
    an error counts only towards ``total`` and ``kfc_count``.  A failure of
    a proven statement raises ``TheoremViolated`` under
    ``raise_on_violation``."""
    report.total += 1
    line = record["graph6"]
    if "error" in record:
        report.errors.append((line, record["error"]))
        return
    if record["kfc"]:
        report.kfc_count += 1
    if not record["minimal"]:
        return
    report.minimal_count += 1
    if on_minimal is not None:
        on_minimal(line)
    delta = record["min_degree"]
    report.min_degree_distribution[delta] = report.min_degree_distribution.get(delta, 0) + 1
    key = record["degree_profile"]
    report.degree_profiles[key] = report.degree_profiles.get(key, 0) + 1
    for verdict in record["verdicts"]:
        tally = report.verdict_tallies.setdefault(
            verdict["theorem"], {"applicable": 0, "passed": 0, "failed": 0}
        )
        if verdict["applicable"]:
            tally["applicable"] += 1
            if verdict["pass"]:
                tally["passed"] += 1
            elif verdict["pass"] is False:
                tally["failed"] += 1
    config = record.get("config")
    if config is not None:
        for label, count in config["labels"].items():
            report.config_label_counts[label] = report.config_label_counts.get(label, 0) + count
        report.ambiguous_count += config["ambiguous"]
        report.predicate_counts["passed"] += config["pred_passed"]
        report.predicate_counts["failed"] += config["pred_failed"]
        report.predicate_counts["vacuous_edges"] += config["vacuous_edges"]
        report.predicate_counts["skipped_edges"] += config["skipped_edges"]
    for theorem in record.get("failures", ()):
        report.counterexamples.append((line, theorem))
        if raise_on_violation and STATEMENTS[theorem] == "proven":
            raise TheoremViolated(f"{theorem} failed on {line}")


def hunt_counterexamples(
    orders: Iterable[int],
    k_rule: str | int = "all-valid",
    files: dict[int, str] | None = None,
    jobs: int = 1,
    invert_predicate: bool = False,
) -> list[tuple[str, str]]:
    """Every minimally k-factor-critical graph violating an expected-true
    statement, as (graph6, statement id) pairs.

    ``k_rule`` is either "all-valid" or an int offset c, not a bool,
    meaning k = n - c; any other value raises ``PreconditionUnmet``.
    Orders with a supplied file are ingested, the rest generated; an order
    that the rule gives no valid k is not surveyed.  A file for an order
    that is not surveyed, outside ``orders`` or without a valid k, raises
    ``PreconditionUnmet`` before any catalog is built.  When no order has a
    valid k, ``KOutOfRange`` names the orders and the rule.

    ``invert_predicate`` is a self-test that failures surface: after each
    k's survey, every minimal graph on which the minimum-degree statement
    (``check_conjecture``) holds is appended as a planted failure of that
    statement's id.  The survey itself is unchanged, so a genuine failure
    of any statement, the minimum-degree one included, is still reported.
    """
    files = files or {}
    if isinstance(k_rule, int) and not isinstance(k_rule, bool):
        sweeps = [(n, [n - k_rule] if n - k_rule in valid_k_values(n) else []) for n in orders]
        rule = f"k = n - {k_rule}"
    elif k_rule == "all-valid":
        sweeps = [(n, valid_k_values(n)) for n in orders]
        rule = "all valid k"
    else:
        raise PreconditionUnmet(f"k_rule must be 'all-valid' or an int offset, not {k_rule!r}")
    stray = sorted(set(files) - {n for n, ks in sweeps if ks})
    if stray:
        raise PreconditionUnmet(f"catalog files given for orders {stray}, which are not surveyed")
    if not any(ks for _n, ks in sweeps):
        if isinstance(orders, range) and orders.step == 1:
            shown = f"{orders.start}..{orders.stop - 1}"
        else:
            shown = str([n for n, _ks in sweeps])
        raise KOutOfRange(
            f"orders {shown} leave nothing to survey under the rule {rule}: "
            "a valid k has 1 <= k <= n-2 and the parity of n"
        )
    found: list[tuple[str, str]] = []
    for n, ks in sweeps:
        if not ks:
            continue
        catalog = enumerate_catalog(n, path=files.get(n))
        for k in ks:
            minimal: list[str] = []
            result = survey(catalog, k, jobs=jobs, raise_on_violation=False, on_minimal=minimal.append)
            found.extend(result.counterexamples)
            if invert_predicate:
                for line in minimal:
                    verdict = check_conjecture(parse_graph6(line), k, verified=True)
                    if verdict.passed:
                        found.append((line, verdict.theorem))
    return found
