"""Seeded inputs for the factorcrit benchmark.

Every input is built from the seed and the committed files under
``perfbench/data`` with the benchmark's own graph6 codec, so the inputs a
workload hands the program never depend on the program being measured.
"""

from __future__ import annotations

import gzip
import json
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
CATALOG8 = DATA / "catalog8.g6"
POOL10 = DATA / "pool10.json.gz"
EXPECTED = DATA / "expected.json"

CATALOG10_ORIGINALS = 150
CATALOG10_DUPLICATES = 50
DENSE_ORDER = 16
DENSE_K = 2
# Favaron: order n with minimum degree >= (n + k) / 2 is k-factor-critical.
DENSE_MIN_DEGREE = (DENSE_ORDER + DENSE_K) // 2


def encode_graph6(n: int, edges) -> str:
    """Short-form graph6 of an order-n graph given as (u, v) pairs."""
    present = {(min(u, v), max(u, v)) for u, v in edges}
    bits = [(i, j) in present for j in range(1, n) for i in range(j)]
    bits += [False] * (-len(bits) % 6)
    chars = [chr(63 + n)]
    for pos in range(0, len(bits), 6):
        value = 0
        for bit in bits[pos:pos + 6]:
            value = value << 1 | bit
        chars.append(chr(63 + value))
    return "".join(chars)


def decode_graph6(text: str) -> tuple[int, set[tuple[int, int]]]:
    n = ord(text[0]) - 63
    bits = []
    for c in text[1:]:
        value = ord(c) - 63
        bits.extend(value >> shift & 1 for shift in range(5, -1, -1))
    cells = [(i, j) for j in range(1, n) for i in range(j)]
    return n, {cell for cell, bit in zip(cells, bits) if bit}


def relabel(text: str, perm: list[int]) -> str:
    """The graph6 of the same graph with vertex v renamed perm[v]."""
    n, edges = decode_graph6(text)
    return encode_graph6(n, [(perm[u], perm[v]) for u, v in edges])


def complement_edges(n: int, edges) -> list[tuple[int, int]]:
    present = {(min(u, v), max(u, v)) for u, v in edges}
    return [e for e in combinations(range(n), 2) if e not in present]


def bounded_complement(rng: random.Random, n: int, max_codegree: int, fill: float) -> str:
    """A graph whose complement has maximum degree at most ``max_codegree``.

    The complement is grown greedily in random edge order until it is
    maximal, then only the first ``fill`` share of its edges is kept; a
    full fill gives a near-regular complement.
    """
    pairs = list(combinations(range(n), 2))
    rng.shuffle(pairs)
    degree = [0] * n
    missing = []
    for u, v in pairs:
        if degree[u] < max_codegree and degree[v] < max_codegree:
            missing.append((u, v))
            degree[u] += 1
            degree[v] += 1
    missing = missing[:round(fill * len(missing))]
    return encode_graph6(n, complement_edges(n, missing))


def survey8_catalog(seed: int) -> list[str]:
    """The committed order-8 catalog in a seeded order."""
    lines = CATALOG8.read_text(encoding="ascii").split()
    random.Random(seed).shuffle(lines)
    return lines


def load_pool10() -> list[dict]:
    with gzip.open(POOL10, "rt", encoding="utf-8") as handle:
        return json.load(handle)


@dataclass(frozen=True)
class Catalog10Input:
    lines: tuple[str, ...]
    originals: tuple[int, ...]  # pool indices, in file order


def catalog10_input(seed: int, pool: list[dict]) -> Catalog10Input:
    """Pool graphs in a seeded order, each relabelled duplicate placed after
    the first occurrence of its class so canonical dedup keeps the original."""
    rng = random.Random(seed)
    picked = rng.sample(range(len(pool)), CATALOG10_ORIGINALS)
    lines = [pool[i]["graph6"] for i in picked]
    for _ in range(CATALOG10_DUPLICATES):
        source = rng.randrange(len(lines))
        perm = list(range(10))
        rng.shuffle(perm)
        copy = relabel(lines[source], perm)
        lines.insert(rng.randint(source + 1, len(lines)), copy)
    return Catalog10Input(tuple(lines), tuple(picked))


def dense_graph6(seed: int) -> str:
    """Order-16 graph with minimum degree 9, hence 2-factor-critical."""
    rng = random.Random(seed)
    fill = rng.uniform(0.5, 1.0)
    return bounded_complement(rng, DENSE_ORDER, DENSE_ORDER - 1 - DENSE_MIN_DEGREE, fill)


def complete_bipartite_graph6(a: int, b: int) -> str:
    return encode_graph6(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def wheel_graph6(rim: int) -> str:
    edges = [(v, (v + 1) % rim) for v in range(rim)] + [(v, rim) for v in range(rim)]
    return encode_graph6(rim + 1, edges)


@dataclass(frozen=True)
class Query:
    name: str
    argv: tuple[str, ...]
    exit_code: int  # as documented: 0 holds, 1 fails, 2 usage or parse error


# The README examples, with --json so outputs can be compared, plus the
# heavier inputs.  The order-16 query is appended per seed.
FIXED_QUERIES = (
    Query("pm", ("pm", "A_"), 0),
    Query("kfc", ("kfc", "--k", "2", "EhEG"), 1),
    Query("minimal", ("minimal", "--k", "4", "E~~w"), 0),
    Query("witness", ("witness", "--k", "4", "--edge", "0,1", "E~~w"), 0),
    Query("classify", ("classify", "--family", "A", "--edge", "0,3", "EwCW"), 0),
    Query("predicates", ("predicates", "--k", "2", "GhCKN{"), 0),
    Query("verify", ("verify", "--k", "2", "GhCKN{"), 0),
    Query("survey_gen6", ("survey", "--gen", "6", "--k", "4"), 0),
    Query("pm_k8_10", ("pm", complete_bipartite_graph6(8, 10)), 1),
    Query("predicates_w11", ("predicates", "--k", "2", wheel_graph6(11)), 0),
    Query("pm_malformed", ("pm", "A"), 2),
)
DENSE_QUERY = "kfc_dense16"


def query_list(seed: int) -> list[Query]:
    """Every query once, in a seeded order."""
    dense = Query(DENSE_QUERY, ("kfc", "--k", str(DENSE_K), dense_graph6(seed)), 0)
    queries = [Query(q.name, q.argv + ("--json",), q.exit_code) for q in FIXED_QUERIES + (dense,)]
    random.Random(seed).shuffle(queries)
    return queries
