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
"""

from __future__ import annotations

import json
import multiprocessing
from array import array
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

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
from .graph import Graph, degree_profile, encode_graph6, parse_graph6
from .criticality import kfc_and_minimal
# Also a module attribute here: the perfbench harness reads and traces the
# k-factor-critical test as factorcrit.search.is_k_factor_critical.
from .criticality import is_k_factor_critical  # noqa: F401
from .configurations import (
    UNCLASSIFIED,
    certify_minimal_edges,
    config_predicates,
)
from .verifiers import (
    CONFIG_COMPLETENESS,
    CONFIG_PREDICATES,
    MIN_DEGREE_CONJECTURE,
    MIN_DEGREE_OFFSET_8,
    MIN_DEGREE_PROVEN,
    STATEMENTS,
    minimal_verdicts,
)

GENERATE_MAX_ORDER = 9

DEDUP_AS_IS = "as-is"
DEDUP_CANONICAL = "canonical"

# Version of the JSON payloads: the survey report and every CLI --json output.
SCHEMA = 1

# A graph of the previous generation level as its rows, with the non-identity
# generators of its automorphism group as permutation tuples.
_Parent = tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]

# One encoder for every JSONL record: json.dumps builds a new one per call.
_JSONL_ENCODER = json.JSONEncoder(sort_keys=True)


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
    adj: Sequence[int], best: list[int], orderly: bool, autos: set | None = None
) -> list[int] | None:
    """Column codes of the lexicographically minimal relabeling of ``adj``.

    ``best`` holds the identity's column codes (``_column_codes``), which
    one depth-first branch and bound over labelings starts from as the best
    so far.  With ``orderly`` it returns None at the first column that comes
    out smaller, and otherwise ``best`` unchanged: the orderly test.  Then
    every leaf it reaches ties the identity and so is an automorphism, and
    ``autos``, if given, receives each as a tuple of the vertex at each
    position, plus each twin swap it prunes as the int with the two
    vertices' bits.  Without ``orderly``, a smaller column replaces the best
    codes from that column on, and every later position takes the smallest
    code it can reach.

    The candidates for position j are a vertex bitset, narrowed against each
    placed vertex's row in turn while following the best column's bit for
    that vertex.  Twins of a candidate already explored at the same depth
    are skipped (see the module docstring).
    """
    n = len(best)
    placed = [0] * n  # row of the vertex at each filled position
    labels = [0] * n  # the vertex itself
    bounded = n  # positions below this one are bounded by ``best``

    def dfs(j: int, unplaced: int) -> bool:
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
                    autos.add(low | other)
                continue
            explored |= low
            placed[j] = row
            labels[j] = v
            if not dfs(j + 1, unplaced ^ low):
                return False
        return True

    return best if dfs(0, (1 << n) - 1) else None


def canonical_form(g: Graph) -> Graph:
    """The isomorph of ``g`` with the lexicographically minimal encoding."""
    codes = _min_columns(g.adj, _column_codes(g.adj, g.n), orderly=False)
    rows = [0] * g.n
    for j in range(1, g.n):
        code = codes[j]
        for i in range(j):
            if code >> (j - 1 - i) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return Graph._trusted(g.n, tuple(rows))


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
    level: list[_Parent] = [((0,), ())]
    for m in range(2, n):
        level = [(adj, _generators(autos, m)) for adj, autos in _extend_level(level, m)]
    for adj, _autos in _extend_level(level, n):
        yield Graph._trusted(n, adj)


def _extend_level(parents: Iterable[_Parent], m: int) -> Iterator[tuple[tuple[int, ...], set]]:
    """The canonical children of order ``m`` of each parent, with the
    automorphisms their orderly tests met.

    A child's columns 1..m-2 are its parent's and its last column's code is
    the bit-reverse of the mask, so both are computed once; only the masks
    that ``_orbit_leaders`` keeps are tested."""
    top = m - 1
    reverse = _subset_images(range(top - 1, -1, -1))  # mask -> last-column code
    autos: set = set()
    for parent, gens in parents:
        codes = _column_codes(parent, top)
        codes.append(0)
        for mask in _orbit_leaders(gens, top, reverse):
            adj = [parent[v] | ((mask >> v & 1) << top) for v in range(top)]
            adj.append(mask)
            codes[top] = reverse[mask]
            if _min_columns(adj, codes, orderly=True, autos=autos) is not None:
                yield tuple(adj), autos
                autos = set()
            else:
                autos.clear()


def _generators(autos: set, n: int) -> tuple[tuple[int, ...], ...]:
    """The non-identity permutations among ``_min_columns``'s automorphisms,
    with each twin swap written out as a permutation."""
    identity = tuple(range(n))
    gens = set()
    for auto in autos:
        if isinstance(auto, int):  # the two bits of a twin swap
            perm = list(identity)
            a, b = (v for v in identity if auto >> v & 1)
            perm[a], perm[b] = b, a
            auto = tuple(perm)
        gens.add(auto)
    gens.discard(identity)
    return tuple(gens)


def _subset_images(perm: Sequence[int]) -> list[int]:
    """The image of every vertex subset (a mask) under ``perm``, as a table."""
    images = [0]
    for v in perm:
        bit = 1 << v
        images += [image | bit for image in images]
    return images


def _orbit_leaders(gens: Sequence[Sequence[int]], top: int, reverse: list[int]) -> Iterable[int]:
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

    The lines are decoded lazily, and at most once for the whole catalog:
    the first pass over every line (an iteration, or ``survey`` at
    ``jobs=1`` without ``skip``) keeps their adjacency rows on this object,
    so later passes, such as sweeps at further k, parse nothing.  A pass
    from ``skip`` > 0 decodes only the lines after ``skip`` and keeps
    nothing.  The rows are derived, not a field: equality, hashing and
    ``dataclasses.replace`` see only the lines, and a replaced catalog
    decodes its own lines.  A malformed line, or one of another order than
    ``n``, raises ``MalformedEncoding`` when a pass reaches it.
    """

    n: int
    source: str
    dedup: str
    graph6_lines: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.graph6_lines)

    def __iter__(self) -> Iterator[Graph]:
        return self._graphs(0)

    def _graphs(self, skip: int) -> Iterator[Graph]:
        """The graphs after the first ``skip``, rebuilt from the kept rows
        when there are any.  The rows of a full pass are kept end to end,
        ``n`` per graph, in the narrowest array type that holds ``n`` bits,
        so that they take about the memory of the lines or less."""
        n = self.n
        rows = self.__dict__.get("_rows")
        if rows is not None:
            for i in range(skip, len(self)):
                yield Graph._trusted(n, tuple(rows[i * n:(i + 1) * n]))
            return
        rows = None if skip else array(next((c for c in "BHIL" if array(c).itemsize * 8 >= n), "Q"))
        for line in self.graph6_lines[skip:]:
            g = _catalog_graph(line, n)
            if rows is not None:
                rows.extend(g.adj)
            yield g
        if rows is not None:
            self.__dict__["_rows"] = rows  # frozen: bypass the dataclass setter

    @classmethod
    def from_graphs(cls, n: int, graphs: Iterable[Graph], source: str = "memory") -> Catalog:
        lines = []
        for g in graphs:
            if g.n != n:
                raise MalformedEncoding(f"graph of order {g.n} in order-{n} catalog")
            lines.append(encode_graph6(g))
        return cls(n, source, DEDUP_AS_IS, tuple(lines))


def _catalog_graph(line: str, n: int) -> Graph:
    """Decode one line of an order-``n`` catalog."""
    g = parse_graph6(line)
    if g.n != n:
        raise MalformedEncoding(f"graph of order {g.n} in order-{n} catalog")
    return g


def read_graph6_lines(
    path: str, lenient: bool = False
) -> tuple[list[tuple[int, str]], list[tuple[int, str]]]:
    """Parseable (lineno, graph6) entries of a file plus per-line failures.

    Failures abort with the first message unless ``lenient``; then they are
    returned alongside the good lines.
    """
    good, bad = _read_graph6_file(path, lenient)
    return [(lineno, text) for lineno, text, _g in good], bad


def _read_graph6_file(
    path: str, lenient: bool
) -> tuple[list[tuple[int, str, Graph]], list[tuple[int, str]]]:
    """``read_graph6_lines`` with each good line's decoded graph kept, so
    callers that need the graphs parse every line once.

    Non-ASCII bytes decode to lone surrogates, which ``parse_graph6``
    rejects as out of range like any other malformed line."""
    try:
        with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
            raw = handle.readlines()
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc
    return _parse_graph6_lines(raw, path, lenient)


def _parse_graph6_lines(
    lines: Iterable[str], where: str, lenient: bool
) -> tuple[list[tuple[int, str, Graph]], list[tuple[int, str]]]:
    """Decode graph6 lines, skipping blank ones; ``where`` names the source
    (a path, or stdin) in the ``where:lineno:`` prefix of a fatal error."""
    good: list[tuple[int, str, Graph]] = []
    bad: list[tuple[int, str]] = []
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
        if text.startswith(">>graph6<<"):
            text = text[len(">>graph6<<"):]
        good.append((lineno, text, g))
    return good, bad


def enumerate_catalog(
    n: int,
    path: str | None = None,
    lenient: bool = False,
    dedup: str = DEDUP_AS_IS,
) -> Catalog:
    """Build a catalog by generating order ``n`` or ingesting a graph6 file.

    Ingested lines must all decode to graphs of order ``n``; under ``lenient``
    offending lines are skipped, otherwise they are fatal with their line
    number.  ``dedup='canonical'`` drops isomorphic duplicates on ingest.
    """
    if dedup not in (DEDUP_AS_IS, DEDUP_CANONICAL):
        raise PreconditionUnmet(
            f"dedup must be {DEDUP_AS_IS!r} or {DEDUP_CANONICAL!r}, not {dedup!r}"
        )
    if path is None:
        lines = tuple(encode_graph6(g) for g in generate_nonisomorphic(n))
        return Catalog(n, "generate", DEDUP_CANONICAL, lines)
    good, _bad = _read_graph6_file(path, lenient)
    lines = []
    seen: set[str] = set()
    for lineno, text, g in good:
        if g.n != n:
            if lenient:
                continue
            raise MalformedEncoding(f"{path}:{lineno}: order {g.n}, expected {n}")
        if dedup == DEDUP_CANONICAL:
            canon = canonical_graph6(g)
            if canon in seen:
                continue
            seen.add(canon)
        lines.append(text)
    return Catalog(n, path, dedup, tuple(lines))


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


def _survey_record(line: str, g: Graph, k: int, invert_conjecture: bool) -> dict:
    """Everything the aggregator needs about one catalog graph, ``g`` being
    the graph that ``line`` encodes."""
    record: dict = {"graph6": line, "kfc": False, "minimal": False}
    try:
        record["kfc"], record["minimal"] = kfc_and_minimal(g, k)
        if not record["minimal"]:
            return record
        record["min_degree"] = g.min_degree()
        record["degree_profile"] = _profile_key(degree_profile(g))
        verdicts = []
        failures: list[str] = []
        for verdict in minimal_verdicts(g, k, verified=True):
            passed = verdict.passed
            if invert_conjecture and verdict.theorem in (
                MIN_DEGREE_CONJECTURE, MIN_DEGREE_PROVEN, MIN_DEGREE_OFFSET_8
            ):
                passed = None if passed is None else not passed
            verdicts.append({"theorem": verdict.theorem, "applicable": verdict.applicable, "pass": passed})
            if verdict.applicable and passed is False:
                failures.append(verdict.theorem)
        record["verdicts"] = verdicts
        if g.n - k in (6, 8):
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
                elif report.all_passed:
                    config["pred_passed"] += len(report.checks)
                else:
                    config["pred_failed"] += sum(1 for c in report.checks if not c.passed)
                    config["pred_passed"] += sum(1 for c in report.checks if c.passed)
                    failures.append(CONFIG_PREDICATES)
            record["config"] = config
        record["failures"] = failures
    except FactorCritError as exc:
        record["error"] = str(exc)
    return record


def _survey_chunk(args: tuple[list[str], int, int, bool]) -> list[dict]:
    lines, n, k, invert = args
    return [_survey_record(line, _catalog_graph(line, n), k, invert) for line in lines]


def survey(
    catalog: Catalog,
    k: int,
    jobs: int = 1,
    raise_on_violation: bool = True,
    jsonl_path: str | None = None,
    skip: int = 0,
    on_minimal: Callable[[str], None] | None = None,
    invert_conjecture: bool = False,
) -> SurveyReport:
    """Run the criticality, minimality, and statement checks over a catalog.

    Deterministic: records are aggregated in catalog order regardless of
    ``jobs``.  ``jsonl_path`` streams one JSON line per graph so long sweeps
    can resume by passing the line count as ``skip`` (the report then covers
    the remainder only); ``skip`` outside 0..len(catalog) raises
    ``PreconditionUnmet`` before any file is opened.  A resumed file must hold exactly ``skip`` complete
    records, for the first ``skip`` catalog graphs in order, or
    ``ResumeMismatch`` is raised; a torn last line left by a crash is cut
    off first.  ``invert_conjecture`` flips the minimum-degree verdict and
    exists solely so tests can prove the hunter detects plants.
    """
    n = catalog.n
    if not 1 <= k <= n - 2:
        raise KOutOfRange(f"k={k} outside 1..{n - 2}")
    if (n - k) % 2:
        raise ParityMismatch(f"k={k} and order {n} have different parity")
    if not 0 <= skip <= len(catalog):
        raise PreconditionUnmet(f"skip={skip} outside 0..{len(catalog)}")
    report = SurveyReport(n=n, k=k, source=catalog.source)
    if jsonl_path is not None and skip:
        _check_resume(jsonl_path, catalog.graph6_lines, skip)
    sink = open(jsonl_path, "a" if skip else "w", encoding="utf-8") if jsonl_path else None
    try:
        for record in _iter_records(catalog, skip, k, jobs, invert_conjecture):
            if sink is not None:
                sink.write(_JSONL_ENCODER.encode(record) + "\n")
            _fold_record(report, record, raise_on_violation, on_minimal)
    finally:
        if sink is not None:
            sink.close()
    return report


def _check_resume(path: str, lines: Sequence[str], skip: int) -> None:
    """Check that ``path`` holds one complete record for each of the first
    ``skip`` catalog ``lines``, in order, then cut off any trailing fragment
    without a newline so that appending continues the stream."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise ResumeMismatch(f"cannot resume {path}: {exc}") from exc
    complete = data[:data.rfind(b"\n") + 1]
    records = complete.splitlines()
    if len(records) != skip:
        raise ResumeMismatch(
            f"{path} holds {len(records)} complete records; resuming after {skip} "
            f"of {len(lines)} catalog graphs needs exactly {skip}"
        )
    for lineno, (raw, line) in enumerate(zip(records, lines), start=1):
        try:
            graph6 = json.loads(raw).get("graph6")
        except (ValueError, AttributeError):
            graph6 = None
        if graph6 != line:
            raise ResumeMismatch(f"{path}:{lineno}: not the record of catalog graph {line}")
    if len(complete) < len(data):
        with open(path, "r+b") as handle:
            handle.truncate(len(complete))


def _iter_records(catalog: Catalog, skip: int, k: int, jobs: int, invert: bool) -> Iterator[dict]:
    """The records of the catalog's graphs after the first ``skip``, in
    order.  In one process they come from the catalog's own pass, which
    reuses or keeps its decoded rows; a pool's workers receive graph6 lines
    and decode their own."""
    lines = catalog.graph6_lines[skip:]
    if jobs <= 1 or len(lines) < 64:
        # strict: the pass must run to its end, where it keeps the rows
        for line, g in zip(lines, catalog._graphs(skip), strict=True):
            yield _survey_record(line, g, k, invert)
        return
    chunk_size = max(32, len(lines) // (jobs * 16))
    chunks = [
        (list(lines[i:i + chunk_size]), catalog.n, k, invert)
        for i in range(0, len(lines), chunk_size)
    ]
    with multiprocessing.get_context("fork").Pool(jobs) as pool:
        for records in pool.imap(_survey_chunk, chunks):
            yield from records


def _fold_record(
    report: SurveyReport,
    record: dict,
    raise_on_violation: bool,
    on_minimal: Callable[[str], None] | None,
) -> None:
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

    ``k_rule`` is either "all-valid" or an offset c meaning k = n - c.
    Orders with a supplied file are ingested, the rest generated.
    ``invert_predicate`` flips the minimum-degree check so the harness can
    prove that planted failures surface.
    """
    files = files or {}
    found: list[tuple[str, str]] = []
    for n in orders:
        catalog = enumerate_catalog(n, path=files.get(n))
        if isinstance(k_rule, int):
            ks = [n - k_rule] if n - k_rule in valid_k_values(n) else []
        else:
            ks = valid_k_values(n)
        for k in ks:
            result = survey(
                catalog,
                k,
                jobs=jobs,
                raise_on_violation=False,
                invert_conjecture=invert_predicate,
            )
            found.extend(result.counterexamples)
    return found
