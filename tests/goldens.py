"""Recorded outputs shared by the unit and acceptance tiers."""

import hashlib
import itertools
import json
import random

from factorcrit import (
    FamilyPreconditionUnmet,
    Graph,
    NotDeficient,
    NotRestorable,
    check_maxdeg_profile,
    check_two_maxdeg_nonadjacent,
    config_predicates,
)
from factorcrit.configurations import (
    TEMPLATES,
    ConfigurationMatch,
    ResidualInstance,
    classify_residual,
)
from factorcrit.matching import tutte_violators

# sha256 of the generated catalog of each order as a graph6 file, one line per
# graph, recorded before the lex-min test and canonical labeling were merged
# into one search: generation must keep both its bytes and its order.
GENERATION_GOLDEN = {
    1: "ecf5de1a2ecc66a1876a832804c64f6b5125784e94c82285d9720621c613ab46",
    2: "b7cd2a004ade86133158ffa94292f1d79a1fa154874706bf33b9e841cd3fa4cb",
    3: "1d237c0da1c599bbd8f4cffdf1fd13171099276e9ca335a1e0c819e4be9b2bea",
    4: "11d87ef6ba1bab272e5ac7a53abed3ee46cfd476519978659b9f2ce5f7d97883",
    5: "cb4d1674877f7f1f1f12ef31c0fb606fac5b3d1d786da4dcbbab1b0c53cdcbe7",
    6: "c7ea69d71d92420cad1bffae2014279a5cc6e679252aac13bf7603c874448f51",
    7: "17abda6e3e1c624e5fddf9c55af4b6af161b55ec25ac205f5921cd99f6a37d76",
    8: "893777134adbbd8ea4c486ae6d4a42583fb8ae15f9dddeb5a1b623355edaa720",
    9: "21c4cafdf5a30e1412125f3e1c5d29fd85b77bc1b31396d3ccf5754b67785f4e",
}

# sha256 of the classification of every admissible residual instance built
# on a catalog, recorded before the template branches became one table keyed
# by the certificate's shape.  See ``classification_digest`` for the bytes.
CLASSIFICATION_GOLDEN = {
    6: ("c3426a4d87a53cdc86c3a1b094ac3da0956212d47d03de567581cdce0f8d246f", 286),  # A and C
    8: ("5fa2d696d9ebb9eb379ea99c985d1d7d5a99ac43ecb0cf071dee179b53a4fb32", 4636),  # B
}


# sha256 and count of ``predicates_digest`` over the order-8 catalog, and of
# ``verdicts_digest`` over each order's catalog and over ``random_graphs()``,
# recorded before the statement checkers read their degree classes through
# one helper and the template table gained the common non-neighbourhood
# bounds.
PREDICATES_GOLDEN = ("8420d492f5891b142e2b04cb68a0472dcc3ccc26cf315d8d64262d3d84c52b3d", 197536)
VERDICTS_GOLDEN = {
    7: ("29d7e9b90e88172901b78e5ab21b709169d8092b173ea4e85b59b9f018e91fb6", 2088),
    8: ("0d627dc9dd749a49eaddca136ea76259873cd7eb3c4b74c6822bba4edf052cb3", 24692),
    9: ("71fabeb2b2360419f624aed9aa523b07015f66113f044f28f426fb0e1394154d", 549336),
    "random": ("e56bc709d5f0adc88b7e02557055960261db6beed58ed32e0a65232a1a042da6", 12000),
}


def _digest(results) -> tuple[str, int]:
    """sha256 and count of ``results``, one line per result:
    ``json.dumps(result.to_json(), sort_keys=True)``."""
    digest = hashlib.sha256()
    count = 0
    for result in results:
        digest.update(json.dumps(result.to_json(), sort_keys=True).encode() + b"\n")
        count += 1
    return digest.hexdigest(), count


def classification_digest(graphs, families) -> tuple[str, int]:
    """sha256 and count of the classified instances of ``graphs``.

    Each graph in turn, each non-adjacent pair u < v, each family: when the
    instance is admissible, it is classified as (u, v) and then as (v, u),
    since the template may swap the endpoints.  Every classification adds
    one line, ``json.dumps(match.to_json(), sort_keys=True)``.
    """
    def instances():
        for g in graphs:
            for u, v in itertools.combinations(range(g.n), 2):
                for family in families:
                    try:
                        pair = [ResidualInstance(g, u, v, family), ResidualInstance(g, v, u, family)]
                    except (FamilyPreconditionUnmet, NotDeficient, NotRestorable):
                        continue
                    yield from pair

    return _digest(classify_residual(inst) for inst in instances())


def predicates_digest(graphs) -> tuple[str, int]:
    """sha256 and count of the predicate reports of every ``TEMPLATES`` label
    on each graph in turn, labels in table order.

    Each report is ``config_predicates(g, (0, 1), 0, match)`` with the roles
    u = 0, v = 1 and the label's role names on 2, 3, ...; the certificate,
    which the predicates do not read, is a fixed one.
    """
    two_triangles = Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)])
    cert = tutte_violators(two_triangles, "all-minimal")[0]
    matches = [
        ConfigurationMatch(label, family, 0, cert,
                           dict(zip(["u", "v", *names.split()], range(8))), False)
        for (family, *_shape), (label, names, _lo, _hi) in TEMPLATES.items()
    ]
    return _digest(config_predicates(g, (0, 1), 0, match) for g in graphs for match in matches)


def verdicts_digest(graphs) -> tuple[str, int]:
    """sha256 and count of the two verdicts of each graph in turn:
    ``check_maxdeg_profile`` and then ``check_two_maxdeg_nonadjacent`` at
    k = n - 6, both with minimality vouched for, whatever the graph."""
    return _digest(
        verdict for g in graphs
        for verdict in (check_maxdeg_profile(g, verified=True),
                        check_two_maxdeg_nonadjacent(g, g.n - 6, verified=True))
    )


def random_graphs() -> list[Graph]:
    """3000 graphs of order 11, then 3000 of order 12, from one
    ``random.Random(15)``; each graph draws its own edge probability from
    U(0.5, 0.95).  Their maximum degrees reach every branch of
    ``check_maxdeg_profile``, T5.5 included."""
    rng = random.Random(15)
    graphs = []
    for n in (11, 12):
        for _ in range(3000):
            p = rng.uniform(0.5, 0.95)
            graphs.append(Graph.from_edges(
                n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p]))
    return graphs
