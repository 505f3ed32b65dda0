"""Catalog generation and ingestion, catalog-wide surveys, counterexample hunts.

Generation is orderly (Read's method): a labeled graph is emitted iff its
column-wise upper-triangle encoding is lexicographically minimal over all
relabelings.  Minimal labelings are closed under removing the last vertex,
so extending each canonical graph of order m-1 by one vertex and keeping the
canonical extensions enumerates every isomorphism class of order m exactly
once.  Feasible to order 9; larger catalogs are ingested from graph6 files.

One depth-first branch and bound over labelings, ``_min_columns``, decides
minimality and finds canonical forms.  It fills positions 0, 1, ... in turn,
starting from the identity labeling as the best so far.  At position j it
narrows the candidates, one placed row at a time, to those that reach the
smallest column j any of them can, and compares that code with the best
column j.  A larger code cuts the subtree and an equal one goes down with
the narrowed candidates.  A smaller code, or any code at a position that
no best column bounds yet, is handled by the mode:

- orderly: return at once, which proves the labeling is not minimal;
  generation decides its masks in the shared walk below, and the tests
  check that walk against this mode, one mask at a time;
- canonical (``canonical_form``): take the code as the best column j,
  leaving the positions past j unbounded, and keep searching.

The candidates for a position are a vertex bitset.  A candidate that is a
twin of one already explored at the same depth is skipped: the two rows
agree except on the two vertices themselves, so swapping them is an
automorphism fixing every placed vertex, and both subtrees hold the same
codes.  ``_twins`` tabulates each vertex's twins once per graph, for this
search and for the shared walk.  Twin pruning makes complete, empty and
complete bipartite graphs cheap at any order; graphs whose automorphisms
twin swaps do not generate, such as cycles, cocktail-party graphs and
sparse graphs with many small components, still cost exponential time.  So
the search raises ``LimitExceeded`` past ``LABELING_NODE_BUDGET`` nodes,
about 1 s into C_18 and 10 s into the dense K_{2x31} of order 62 (one CPU,
Python 3.11).

Generation keeps no automorphism groups.  An extension of a parent P of
order m-1 is a mask, the neighbours of the new vertex t = m-1; the child
P+mask shares P's columns and its last column's code is the bit-reverse of
the mask.  Two rules decide every mask of every parent:

- Last-swap prefilter.  Swapping vertices m-2 and m-1 keeps columns
  1..m-3 and turns column m-2 into the new vertex's row over vertices
  0..m-3, which is the mask's code without its last bit.  When that is
  smaller than P's column m-2, the swap proves P+mask is not minimal, so
  the mask is skipped untested.
- Shared walk (``_canonical_masks``).  One depth-first walk per parent P
  decides all of its other masks together.  Until t is placed, a labeling's
  prefix holds only P's vertices and its columns are P's own, whatever the
  mask: none comes out smaller, since P is canonical, and the prefixes
  that tie P's columns are the same for every mask.  The walk visits each
  of them once, carrying the masks still alive as bitsets over their codes.
  Unplaced classes are keyed by c, t's row over the prefix; placing a P
  vertex v splits each class by whether the mask holds v.  At depth j, t's
  column j would read c: the masks whose c is smaller than P's column j
  are rejected, those whose c ties it form the placed class of position j,
  and the others leave t unplaced.

  A placed class holds the masks that put t at a position p of the current
  path and tied every column since.  The next P vertex v takes the next
  position, and its column reads P's rows of the prefix but for one bit:
  the bit at p, which is whether the mask holds v.  So that one bit splits
  a placed class on v as it splits an unplaced one, and the two parts'
  columns differ only there.  A part whose column is smaller than the
  identity's is rejected, a tying part goes down, and a larger one is
  dropped.  The comparison narrows vertex bitsets one prefix row at a time,
  as for the candidates of a position, so the walk visits only the
  vertices on which some class ties.  When v is the last vertex, the
  identity's column there is the mask's own code, so a part rejects the
  codes above v's column.  Only one part of a split can tie, so each
  position keeps one placed class.  Twin pruning holds per mask, in placed
  and unplaced classes alike: P's twins v and w stay twins in the child
  only for the masks that hold both or neither.

  Two bounds cut unplaced classes, and the second also settles the labelings
  that place t last.  While t is unplaced at depth j, with its row over the
  placed prefix reading c, a smaller labeling in the subtree either places t
  at some position j <= i < m-1, after columns 1..i-1 that tie P's, or
  places t last.  In the first case column i starts with the bits c, so c is
  at most the first j bits of one of P's columns i >= j
  (``_insertion_limits``).  In the second, the columns of P's vertices
  relabel P, which is canonical, so they tie only when the relabeling is an
  automorphism of P, and then t's last column is the class's row over all of
  P.  So when a split completes that row, at depth m-2, the walk rejects
  each mask of the class whose own code exceeds it; and since the row starts
  with c, it can undercut only a mask whose code's first j bits are at least
  c.  A class's largest code is its highest bit, and a class enters a
  subtree only while c is at most the limit or at most the first j bits of
  its largest code.
"""

from __future__ import annotations

import json
import os
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Iterator, Sequence

from .errors import (
    FactorCritError,
    FileUnreadable,
    KOutOfRange,
    LimitExceeded,
    MalformedEncoding,
    OrderTooLargeForGenerate,
    ParityMismatch,
    PreconditionUnmet,
    ResumeMismatch,
    TheoremViolated,
)
from .graph import GRAPH6_HEADER, Graph, _rows_from_columns, degree_profile, encode_graph6, parse_graph6
from .criticality import kfc_and_minimal
from .matching import subset_masks
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
# Search nodes that ``_min_columns`` may visit before it raises
# ``LimitExceeded``: C_16 takes about 772000, K_{2x8} 219000.
LABELING_NODE_BUDGET = 10**6

DEDUP_AS_IS = "as-is"
DEDUP_CANONICAL = "canonical"

# Version of the JSON payloads: the survey report and every CLI --json output.
SCHEMA = 1

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


def _min_columns(adj: Sequence[int], best: list[int], orderly: bool) -> list[int] | None:
    """Column codes of the lexicographically minimal relabeling of ``adj``.

    ``best`` holds the identity's column codes (``_column_codes``), which
    one depth-first branch and bound over labelings starts from as the best
    so far.  With ``orderly`` it returns None at the first column that comes
    out smaller, and otherwise ``best`` unchanged: the orderly test.
    Without ``orderly``, a smaller column replaces the best codes from that
    column on, and every later position takes the smallest code it can
    reach.

    One step serves both modes.  The candidates for position j are a vertex
    bitset, narrowed against each placed vertex's row in turn to those whose
    column j takes its smallest bit there, which leaves the smallest code
    any candidate reaches.  That code cuts, descends or replaces the best
    column j, as the module docstring says.  Twins of a candidate already
    explored at the same depth are skipped, read off the ``_twins`` table
    that the shared walk uses too.  Past ``LABELING_NODE_BUDGET`` search
    nodes it raises ``LimitExceeded``.

    The program calls only the canonical mode, through ``canonical_form``.
    Generation decides its masks in the shared walk (``_canonical_masks``);
    the orderly mode is the per-mask oracle that the tests hold it to.
    """
    n = len(best)
    twins = _twins(adj)
    placed = [0] * n  # row of the vertex at each filled position
    bounded = n  # positions below this one are bounded by ``best``
    nodes = 0

    def dfs(j: int, unplaced: int) -> bool:
        nonlocal bounded, nodes
        nodes += 1
        if nodes > LABELING_NODE_BUDGET:
            raise LimitExceeded(f"a labeling search of more than {LABELING_NODE_BUDGET} nodes")
        if j == n:
            return True
        cand = unplaced
        code = 0  # the smallest column j that a candidate reaches
        for row in placed[:j]:
            below = cand & ~row  # the candidates with a 0 in this bit
            code = code << 1 | (not below)
            cand = below or cand
        if j >= bounded or code < best[j]:
            if orderly:
                return False
            best[j] = code
            bounded = j + 1
        elif code > best[j]:
            return True
        explored = 0
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            if twins[v] & explored:
                continue
            explored |= low
            placed[j] = adj[v]
            if not dfs(j + 1, unplaced ^ low):
                return False
        return True

    return best if dfs(0, (1 << n) - 1) else None


def _twins(rows: Sequence[int]) -> list[int]:
    """Each vertex's twins, itself included: the vertices whose row agrees
    with its own except on the two of them.  Non-adjacent twins have equal
    rows and adjacent ones equal closed rows.  No row equals another
    vertex's closed row, since that would put a vertex in its own row."""
    classes: dict[int, int] = {}
    for v, row in enumerate(rows):
        for key in (row, row | 1 << v):
            classes[key] = classes.get(key, 0) | 1 << v
    return [classes[row] | classes[row | 1 << v] for v, row in enumerate(rows)]


def canonical_form(g: Graph) -> Graph:
    """The isomorph of ``g`` with the lexicographically minimal encoding.

    Raises ``LimitExceeded`` when the search passes
    ``LABELING_NODE_BUDGET`` nodes, as on C_18, K_{2x9} or some sparse
    graphs of order 14 and up; C_16 and K_{2x8} still pass."""
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
    level: Iterable[Sequence[int]] = [(0,)]
    for m in range(2, n + 1):  # each level streams from the one below
        level = _extend_level(level, m)
    for adj in level:
        yield Graph._trusted(n, adj)


def _extend_level(parents: Iterable[Sequence[int]], m: int) -> Iterator[tuple[int, ...]]:
    """The rows of the canonical children of order ``m`` of each parent, by
    increasing mask.

    A child's columns 1..m-2 are its parent's and its last column's code is
    the bit-reverse of the mask, so both are computed once.  The masks that
    pass the last-swap prefilter, the codes from twice the parent's last
    column up, go to one shared walk per parent, ``_canonical_masks``, as a
    bitset over their codes."""
    top = m - 1
    reverse = _subset_images(range(top - 1, -1, -1))  # mask -> last-column code, and back
    every = (1 << (1 << top)) - 1  # the bitset of all the codes
    for parent in parents:
        codes = _column_codes(parent, top)
        # the last-swap prefilter: a code's first top-1 bits are at least P's last column
        yield from _canonical_masks(parent, codes, every & -(1 << (codes[top - 1] << 1)), reverse)


def _child(parent: Sequence[int], mask: int) -> tuple[int, ...]:
    """The rows of ``parent`` extended by one vertex adjacent to ``mask``."""
    bit = 1 << len(parent)
    rows = [*parent, mask]
    rest = mask
    while rest:
        low = rest & -rest
        rows[low.bit_length() - 1] |= bit
        rest ^= low
    return tuple(rows)


def _canonical_masks(
    parent: Sequence[int], codes: Sequence[int], alive: int, reverse: Sequence[int]
) -> list[tuple[int, ...]]:
    """The rows of the children of a canonical ``parent``, whose column
    codes are ``codes``, by those masks that pass the orderly test among
    the ``alive`` ones, by increasing mask.

    ``alive`` is a bitset over the children's last-column codes: bit c
    stands for the mask ``reverse[c]``.  One depth-first walk over the
    prefixes of the parent's vertices that tie its columns decides them all
    at once (the shared walk of the module docstring), with no search of
    its own per mask.  A node holds the masks still alive as bitsets over
    the codes: unplaced classes, keyed by the new vertex's row over the
    prefix, and one placed class for each position of the path at which the
    new vertex tied.  A node with no placed class visits only the parent
    vertices whose column ties; one with a placed class visits those on
    which some placed part ties as well.  The accepted children's rows are
    built at the end."""
    top = len(parent)
    limits = _insertion_limits(codes)
    avoids = subset_masks(top)[0][::-1]  # avoids[v]: the codes whose mask does not hold v
    twins = _twins(parent)

    # ``prefix`` holds the rows of the parent vertices placed so far
    def walk(prefix: list[int], unplaced: int, classes: list[tuple[int, int]], placed: list[tuple[int, int]]) -> None:
        nonlocal alive
        j = len(prefix)
        bound = codes[j]
        cand = _narrow(unplaced, prefix, bound)[0]  # the parent vertices whose column j ties
        tie = 0  # the masks whose new vertex's column j ties
        for row, bits in classes:
            if row < bound:  # its column j comes out smaller
                alive &= ~bits
            elif row == bound:
                tie = bits
        tie &= alive
        if tie:  # the new vertex placed at j
            placed = [*placed, (j, tie)]

        if j == top - 1:  # one parent vertex v is left, and it or the new vertex comes last
            v = unplaced.bit_length() - 1
            avoid = avoids[v]
            last = 0  # v's row over the prefix
            for row in prefix:
                last = last << 1 | row >> v & 1
            for row, bits in classes if cand else ():  # v at j, the new vertex's column reads its row
                row <<= 1
                zero = bits & avoid
                alive &= ~(zero & -(2 << row) | (bits ^ zero) & -(4 << row))
            for p, bits in placed:  # v's column reads its row, with whether the mask holds v at p
                s = j - p
                col = last >> s << s + 1 | last & ((1 << s) - 1)
                zero = bits & avoid
                alive &= ~(zero & -(2 << col) | (bits ^ zero) & -(2 << (col | 1 << s)))
            return

        following = codes[j + 1]
        ties = []  # (p, bits, side, vertices): the placed parts that go on
        reach = cand  # the vertices whose subtree some class enters
        for p, bits in placed:  # a parent vertex's column j+1 has the mask's bit at p
            s = j - p
            live, above = _narrow(unplaced, prefix[:p], following >> s + 1)
            if above:  # smaller, whatever the mask
                alive &= ~bits
                continue
            # the masks of v that tie at p, bits & (avoids[v] ^ side), go on past p
            side = -(following >> s & 1)
            # the vertices that tie past p, and those whose tying side comes out smaller
            rest, fell = _narrow(live, prefix[p:], following & ((1 << s) - 1))
            # with a 1 at p, the masks that do not hold v come out smaller there
            fall = live if side else fell
            while fall:
                low = fall & -fall
                fall ^= low
                alive &= ~(bits & (avoids[low.bit_length() - 1] | (side if low & fell else 0)))
            if rest:
                ties.append((p, bits, side, rest))
                reach |= rest

        limit = limits[j + 1]
        shift = top - 1 - j  # the code bits past the longer prefix
        explored = 0
        while reach:
            low = reach & -reach
            reach ^= low
            v = low.bit_length() - 1
            keep = alive
            rest = twins[v] & explored
            while rest:  # v stays a twin of an explored w where the mask holds both or neither
                other = rest & -rest
                keep &= avoids[v] ^ avoids[other.bit_length() - 1]
                rest ^= other
            explored |= low
            avoid = avoids[v]
            split = []
            for row, bits in classes if low & cand else ():  # each splits by whether its masks hold v
                bits &= keep
                if not bits:
                    continue
                row <<= 1  # the new vertex's row over the longer prefix
                zero = bits & avoid
                one = bits ^ zero
                # the insertion bound, or a largest code the row may still undercut
                if zero and (row <= limit or row <= (zero.bit_length() - 1) >> shift):
                    split.append((row, zero))
                if one and (row | 1 <= limit or row | 1 <= (one.bit_length() - 1) >> shift):
                    split.append((row | 1, one))
            down = []
            for p, bits, side, tying in ties:
                if low & tying:
                    bits &= keep & (avoid ^ side)
                    if bits:
                        down.append((p, bits))
            if split or down:
                walk([*prefix, parent[v]], unplaced ^ low, split, down)

    walk([], (1 << top) - 1, [(0, alive)], [])
    masks = []
    while alive:
        code = alive.bit_length() - 1
        alive ^= 1 << code
        masks.append(reverse[code])
    return [_child(parent, mask) for mask in sorted(masks)]


def _narrow(live: int, rows: Sequence[int], target: int) -> tuple[int, int]:
    """The vertices of the bitset ``live`` whose row over the vertices with
    the given ``rows``, the first row's bit highest, reads ``target``, and
    those whose row comes out smaller than it."""
    fell = 0
    bit = 1 << len(rows)
    for row in rows:
        bit >>= 1
        if target & bit:
            fell |= live & ~row
            live &= row
        else:
            live &= ~row
    return live, fell


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
    path: str, lenient: bool, bad: list[tuple[int, str]], n: int | None = None
) -> Iterator[tuple[int, str, Graph]]:
    """``_parse_graph6_lines`` over the lines of the file at ``path``, read
    as they are decoded.

    Non-ASCII bytes decode to lone surrogates, which ``parse_graph6``
    rejects as out of range like any other malformed line.  A file that
    cannot be opened or read raises ``FileUnreadable``."""
    try:
        with open(path, "r", encoding="ascii", errors="surrogateescape") as handle:
            yield from _parse_graph6_lines(handle, path, lenient, bad, n)
    except OSError as exc:
        raise FileUnreadable(f"cannot read {path}: {exc}") from exc


def _parse_graph6_lines(
    lines: Iterable[str], where: str, lenient: bool, bad: list[tuple[int, str]], n: int | None = None
) -> Iterator[tuple[int, str, Graph]]:
    """The good lines as (lineno, graph6, graph) entries, counting from 1,
    skipping blank lines, one at a time so that a caller can keep as little
    of each as it needs.

    A good line's graph6 text has its whitespace and any ``GRAPH6_HEADER``
    taken off; a bare header is an empty graph6 string, so a bad line, and
    so is a graph of another order than ``n``, when given.  A bad line
    raises ``MalformedEncoding``, prefixed ``where:lineno:`` with ``where``
    naming the source (a path, or stdin), unless ``lenient``; then it is
    skipped and appended to ``bad`` as (lineno, message)."""
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text:
            continue
        try:
            g = parse_graph6(text)
            if n is not None and g.n != n:
                raise MalformedEncoding(f"order {g.n}, expected {n}")
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
    ingest, by ``canonical_form``; a line whose labeling search passes
    ``LABELING_NODE_BUDGET`` nodes raises ``LimitExceeded``, and no catalog
    is returned.  Either way the catalog keeps the rows of the
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
        for _lineno, text, g in _read_graph6_file(path, lenient, skipped, n):
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


def _check_survey_k(n: int, k: int) -> None:
    """Raise ``KOutOfRange`` or ``ParityMismatch`` unless a survey of order
    ``n`` can run at ``k``: 1 <= k <= n-2, with the parity of n.  It reads
    no catalog, so a caller can check before building one."""
    if n < 3:
        raise KOutOfRange(f"order {n} has no valid k (surveys need 1 <= k <= n-2)")
    if not 1 <= k <= n - 2:
        raise KOutOfRange(f"k={k} outside 1..{n - 2}")
    if (n - k) % 2:
        raise ParityMismatch(f"k={k} and order {n} have different parity")


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
    _check_survey_k(n, k)
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
    ``PreconditionUnmet`` before any catalog is built, and so does
    ``OrderTooLargeForGenerate`` for a surveyed order without a file above
    ``GENERATE_MAX_ORDER``.  When no order has a
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
    for n, ks in sweeps:
        if ks and n not in files:
            _check_generate_order(n)
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
