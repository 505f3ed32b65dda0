"""Recorded outputs shared by the unit and acceptance tiers."""

import hashlib
import itertools
import json

from factorcrit import FamilyPreconditionUnmet, NotDeficient, NotRestorable
from factorcrit.configurations import ResidualInstance, classify_residual

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


def classification_digest(graphs, families) -> tuple[str, int]:
    """sha256 and count of the classified instances of ``graphs``.

    Each graph in turn, each non-adjacent pair u < v, each family: when the
    instance is admissible, it is classified as (u, v) and then as (v, u),
    since the template may swap the endpoints.  Every classification adds
    one line, ``json.dumps(match.to_json(), sort_keys=True)``.
    """
    digest = hashlib.sha256()
    count = 0
    for g in graphs:
        for u, v in itertools.combinations(range(g.n), 2):
            for family in families:
                try:
                    pair = [ResidualInstance(g, u, v, family), ResidualInstance(g, v, u, family)]
                except (FamilyPreconditionUnmet, NotDeficient, NotRestorable):
                    continue
                for inst in pair:
                    line = json.dumps(classify_residual(inst).to_json(), sort_keys=True)
                    digest.update(line.encode() + b"\n")
                    count += 1
    return digest.hexdigest(), count
