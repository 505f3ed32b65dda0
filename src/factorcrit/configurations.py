"""Classification of deficient residual graphs into configuration families.

A residual instance is a graph G' of order 6 or 8 with a designated
non-adjacent pair (u, v) such that G' has no perfect matching but G' + uv
does.  Such instances arise as G - e - S_e when a witness set S_e forces the
edge e = uv; the classifier names the finitely many shapes they can take.

Each minimum-cardinality deficiency certificate X is matched by one table,
``TEMPLATES``.  Its key is what X shows: (family, |X|, the sorted odd
component sizes of G' - X, the sorted even component sizes, (|u's component|,
|v's component|)), taken after swapping u and v when u's component is the
larger one.  Its value is a label and the label's role names, which one rule
fills in order:

1. X, ascending;
2. u's component without u;
3. v's component without v;
4. the other odd components, by (size, least vertex);
5. the even component.

Vertices are ascending within each part.  Three labels add a side condition:
in A3, x and y are the lexicographically first distinct X vertices with ux
and vy edges, and there must be such a pair; in B4, the X vertex must have a
neighbour in the spare triple; in C4, every X vertex must be adjacent to u or
v.  C1 also reports the edges inside both components.

Family A and B instances must have no pendent vertex after restoring uv;
family C instances only need G' itself to have no isolated vertex.

Each ``TEMPLATES`` value also bounds the size of the common
non-neighbourhood of the endpoints u and v in the ambient graph, from below
and above (None: no upper bound).  ``config_predicates`` checks these
bounds once for every label, under a name made from them:
``common_nonneighborhood_size_3`` when they are equal, ``..._at_most_1``
when the lower one is 0, ``..._at_least_2`` when there is no upper one, and
``..._between_3_and_4`` otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    FamilyPreconditionUnmet,
    NotCritical,
    NotDeficient,
    NotMinimallyCritical,
    NotRestorable,
)
from .graph import (
    Graph,
    _rows_outside,
    add_edge,
    bits_list,
    is_independent,
    mask_from,
    non_neighborhood,
)
from .matching import PerfectMatcher, TutteCertificate, tutte_violators
from .criticality import minimality_certificate

FAMILY_A = "A"
FAMILY_B = "B"
FAMILY_C = "C"
FAMILIES = (FAMILY_A, FAMILY_B, FAMILY_C)

UNCLASSIFIED = "Unclassified"
C2_PRIME = "C2'"

# (family, |X|, odd component sizes, even component sizes, (|u's component|,
# |v's component|)) -> (label, role names in the order of the role rule, the
# least and the greatest size of the endpoints' common non-neighbourhood in
# the ambient graph, None meaning no upper bound).
TEMPLATES = {
    (FAMILY_A, 0, (3, 3), (), (3, 3)): ("A1", "u1 u2 u3 u4", 0, 1),
    (FAMILY_A, 1, (1, 1, 3), (), (1, 1)): ("A2", "x v1 v2 v3", 3, 3),
    (FAMILY_A, 2, (1, 1, 1, 1), (), (1, 1)): ("A3", "x y w1 w2", 2, None),
    (FAMILY_B, 0, (3, 5), (), (3, 5)): ("B1", "u1 u2 u3 u4 u5 u6", 0, 3),
    (FAMILY_B, 1, (1, 1, 3), (2,), (1, 1)): ("B2", "a v1 v2 v3 v4 v5", 5, 5),
    (FAMILY_B, 1, (1, 1, 5), (), (1, 1)): ("B3", "a v1 v2 v3 v4 v5", 5, 5),
    (FAMILY_B, 1, (1, 3, 3), (), (1, 3)): ("B4", "a x1 x2 x3 x4 x5", 3, 4),
    (FAMILY_B, 2, (1, 1, 1, 1), (2,), (1, 1)): ("B5", "a1 a2 y1 y2 y3 y4", 4, None),
    (FAMILY_B, 2, (1, 1, 1, 3), (), (1, 1)): ("B6", "b1 b2 z1 z2 z3 z4", 4, None),
    (FAMILY_B, 2, (1, 1, 1, 3), (), (1, 3)): ("B7", "c1 c2 p3 p4 p1 p2", 2, 4),
    (FAMILY_B, 3, (1, 1, 1, 1, 1), (), (1, 1)): ("B8", "a1 a2 a3 w1 w2 w3", 3, None),
    (FAMILY_C, 0, (3, 3), (), (3, 3)): ("C1", "u1 u2 v1 v2", 0, 2),
    (FAMILY_C, 1, (1, 1, 1), (2,), (1, 1)): ("C2", "a w p1 p2", 3, 3),
    (FAMILY_C, 1, (1, 1, 3), (), (1, 1)): (C2_PRIME, "a v1 v2 v3", 3, 3),
    (FAMILY_C, 1, (1, 1, 3), (), (1, 3)): ("C3", "a y2 y3 y1", 1, 2),
    (FAMILY_C, 2, (1, 1, 1, 1), (), (1, 1)): ("C4", "a1 a2 w1 w2", 2, 3),
}

FAMILY_LABELS = {
    family: tuple(label for key, (label, *_) in TEMPLATES.items() if key[0] == family)
    for family in FAMILIES
}

FAMILY_ORDER = {FAMILY_A: 6, FAMILY_B: 8, FAMILY_C: 6}


@dataclass(frozen=True)
class ResidualInstance:
    """A deficient-but-restorable residual graph with its designated pair."""

    gprime: Graph
    u: int
    v: int
    family: str

    def __post_init__(self) -> None:
        g = self.gprime
        if self.family not in FAMILIES:
            raise FamilyPreconditionUnmet(f"unknown family {self.family!r}")
        if g.n != FAMILY_ORDER[self.family]:
            raise FamilyPreconditionUnmet(
                f"family {self.family} needs order {FAMILY_ORDER[self.family]}, got {g.n}"
            )
        g._check_vertex(self.u)
        g._check_vertex(self.v)
        if self.u == self.v or g.has_edge(self.u, self.v):
            raise FamilyPreconditionUnmet("designated pair must be non-adjacent")
        if self.family in (FAMILY_A, FAMILY_B):
            if min(map(int.bit_count, add_edge(g, self.u, self.v).adj)) < 2:
                raise FamilyPreconditionUnmet(
                    "restored graph has a pendent or isolated vertex"
                )
        else:
            if min(map(int.bit_count, g.adj)) < 1:
                raise FamilyPreconditionUnmet("residual graph has an isolated vertex")
        matcher = PerfectMatcher(g)
        if matcher.pm_exists(g.vertex_mask):
            raise NotDeficient("residual graph has a perfect matching")
        # G' + uv has a perfect matching iff G' or G' - u - v has one.
        if not matcher.pm_exists(g.vertex_mask & ~(1 << self.u | 1 << self.v)):
            raise NotRestorable("adding the designated pair does not restore a matching")


@dataclass(frozen=True)
class ConfigurationMatch:
    """Outcome of classifying a residual instance.

    ``roles`` maps template vertex names to vertex indices of the residual
    graph; it always contains "u" and "v", which may swap the designated pair
    when the template distinguishes the endpoints.  ``ambiguity_flag`` is set
    when different minimum-size deficiency certificates yield different
    labels, in which case the lexicographically smallest label is reported.
    """

    label: str
    family: str
    x_set: int
    certificate: TutteCertificate
    roles: dict[str, int]
    ambiguity_flag: bool
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {
            "label": self.label,
            "family": self.family,
            "x": bits_list(self.x_set),
            "components": self.certificate.partition.to_json(),
            "roles": dict(sorted(self.roles.items())),
            "ambiguous": self.ambiguity_flag,
        }
        out.update(self.metadata)
        return out


def _internal_edges(g: Graph, block: int) -> list[list[int]]:
    verts = bits_list(block)
    return [[a, b] for i, a in enumerate(verts) for b in verts[i + 1:] if g.has_edge(a, b)]


def _match_template(
    g: Graph, u: int, v: int, family: str, cert: TutteCertificate
) -> tuple[str, dict[str, int], dict]:
    """Match one (instance, certificate) pair against the family's templates.

    The certificate's shape is looked up in ``TEMPLATES`` and the roles are
    filled by the role rule of the module docstring.
    """
    unmatched = (UNCLASSIFIED, {}, {})
    blocks = cert.partition.blocks
    # An endpoint in X (no block, 0) or in an even block gives a key that no
    # template has.
    ub = next((b for b in blocks if b >> u & 1), 0)
    vb = next((b for b in blocks if b >> v & 1), 0)
    if ub == vb:
        return unmatched
    if ub.bit_count() > vb.bit_count():
        u, v, ub, vb = v, u, vb, ub
    sizes = sorted(b.bit_count() for b in blocks)
    key = (family, cert.x_set.bit_count(), tuple(s for s in sizes if s & 1),
           tuple(s for s in sizes if not s & 1), (ub.bit_count(), vb.bit_count()))
    if key not in TEMPLATES:
        return unmatched
    label, names = TEMPLATES[key][:2]
    xs = bits_list(cert.x_set)
    # The other odd components by (size, least vertex), then the even one.
    rest = sorted((b for b in blocks if b not in (ub, vb)),
                  key=lambda b: (b.bit_count() % 2 == 0, b.bit_count(), b & -b))
    adj = g.adj
    meta: dict = {}
    if label == "A3":
        xs = _distinct_attachments(adj, u, v, xs)
        if xs is None:
            return unmatched
    elif label == "B4" and not adj[xs[0]] & rest[0]:
        return unmatched
    elif label == "C4" and any(not adj[x] & (1 << u | 1 << v) for x in xs):
        return unmatched
    elif label == "C1":
        meta = {"u_component_edges": _internal_edges(g, ub),
                "v_component_edges": _internal_edges(g, vb)}
    filled = [*xs, *(w for b in (ub ^ 1 << u, vb ^ 1 << v, *rest) for w in bits_list(b))]
    return label, {"u": u, "v": v, **dict(zip(names.split(), filled))}, meta


def _distinct_attachments(adj, u: int, v: int, xs: list[int]) -> tuple[int, int] | None:
    """Distinct X-vertices (x, y) with ux and vy edges, lexicographically first."""
    for x in xs:
        if not adj[u] >> x & 1:
            continue
        for y in xs:
            if y != x and adj[v] >> y & 1:
                return x, y
    return None


def classify_residual(inst: ResidualInstance) -> ConfigurationMatch:
    """Assign a configuration label to a residual instance.

    Every minimum-cardinality deficiency certificate is classified; the
    lexicographically smallest label is reported, and ``ambiguity_flag`` is
    set when the certificates disagree.
    """
    certs = tutte_violators(inst.gprime, "all-minimal")
    entries = []
    for cert in certs:
        label, roles, meta = _match_template(inst.gprime, inst.u, inst.v, inst.family, cert)
        entries.append((label, cert, roles, meta))
    labels = {label for label, *_ in entries}
    best = min(entries, key=lambda item: item[0])
    label, cert, roles, meta = best
    return ConfigurationMatch(
        label=label,
        family=inst.family,
        x_set=cert.x_set,
        certificate=cert,
        roles=roles,
        ambiguity_flag=len(labels) > 1,
        metadata=meta,
    )


@dataclass(frozen=True)
class EdgeClassification:
    """Witness and residual classification for a single edge."""

    witness: int
    family: str | None
    match: ConfigurationMatch | None
    note: str | None = None

    def to_json(self) -> dict:
        return {
            "witness": bits_list(self.witness),
            "family": self.family,
            "match": None if self.match is None else self.match.to_json(),
            "note": self.note,
        }


def residual_family(g: Graph, k: int, e: tuple[int, int]) -> str | None:
    """Configuration family governing edge ``e`` of a minimally k-fc graph.

    Residuals have order n - k, so only k = n - 6 and k = n - 8 carry
    families; at k = n - 6 an edge whose endpoints both have degree at least
    n - 4 falls to family C, the rest to family A.
    """
    residual_order = g.n - k
    if residual_order == FAMILY_ORDER[FAMILY_B]:
        return FAMILY_B
    if residual_order != FAMILY_ORDER[FAMILY_A]:
        return None
    u, v = e
    if g.degree(u) >= g.n - 4 and g.degree(v) >= g.n - 4:
        return FAMILY_C
    return FAMILY_A


def certify_minimal_edges(g: Graph, k: int) -> dict[tuple[int, int], EdgeClassification]:
    """Witness set and residual classification for every edge.

    The graph must be minimally k-factor-critical; the witnesses are those of
    its ``minimality_certificate``.  Edges whose residual has no
    configuration family, or whose residual fails the family's admissibility
    preconditions, still receive their witness with the classification left
    empty and the reason noted.
    """
    try:
        witnesses = minimality_certificate(g, k).witnesses
    except (NotCritical, NotMinimallyCritical) as exc:
        raise NotMinimallyCritical(f"graph is not minimally {k}-factor-critical") from exc
    out: dict[tuple[int, int], EdgeClassification] = {}
    for e, witness in witnesses.items():
        family = residual_family(g, k, e)
        if family is None:
            out[e] = EdgeClassification(
                witness, None, None, f"no configuration family for residual order {g.n - k}"
            )
            continue
        try:
            inst = ResidualInstance(*_residual(g, e, witness), family)
        except FamilyPreconditionUnmet as exc:
            out[e] = EdgeClassification(witness, family, None, str(exc))
            continue
        out[e] = EdgeClassification(witness, family, classify_residual(inst))
    return out


def _residual(g: Graph, e: tuple[int, int], witness: int) -> tuple[Graph, int, int]:
    """G - e - S for the witness set S of edge e = uv, its vertices
    relabelled in order, with the new labels of u and v."""
    u, v = e
    adj = list(g.adj)
    adj[u] &= ~(1 << v)
    adj[v] &= ~(1 << u)
    rows = _rows_outside(adj, witness)
    residual = Graph._trusted(len(rows), rows)
    kept = g.vertex_mask & ~witness
    return residual, (kept & (1 << u) - 1).bit_count(), (kept & (1 << v) - 1).bit_count()


@dataclass(frozen=True)
class PredicateCheck:
    name: str
    passed: bool


@dataclass(frozen=True)
class PredicateReport:
    """Evaluation of the ambient predicates attached to a configuration label.

    When the ambient degree hypothesis of the family fails, the predicates
    are vacuous: no checks are emitted and the report passes.
    """

    label: str
    family: str
    hypothesis_met: bool
    checks: tuple[PredicateCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "family": self.family,
            "hypothesis_met": self.hypothesis_met,
            "checks": {c.name: c.passed for c in self.checks},
            "all_passed": self.all_passed,
        }


def config_predicates(
    g: Graph, e: tuple[int, int], s_mask: int, match: ConfigurationMatch
) -> PredicateReport:
    """Check the non-neighborhood, degree, and independence predicates that the
    configuration label imposes on the ambient graph.

    The first check bounds the size of the endpoints' common
    non-neighbourhood by the label's ``TEMPLATES`` entry; the label's own
    role-set and degree checks follow."""
    n = g.n
    family = match.family
    u0, v0 = e
    if family == FAMILY_A:
        hypothesis = g.min_degree() >= n - 4
    elif family == FAMILY_B:
        hypothesis = g.min_degree() >= n - 6
    else:
        hypothesis = g.degree(u0) >= n - 4 and g.degree(v0) >= n - 4
    if not hypothesis or match.label == UNCLASSIFIED:
        return PredicateReport(match.label, family, hypothesis, ())

    kept = bits_list(g.vertex_mask & ~s_mask)  # residual index -> vertex of g
    roles = {name: kept[idx] for name, idx in match.roles.items()}
    ru, rv = roles["u"], roles["v"]
    common = non_neighborhood(g, ru) & non_neighborhood(g, rv)
    checks: list[PredicateCheck] = []

    def add(name: str, passed: bool) -> None:
        checks.append(PredicateCheck(name, passed))

    label = match.label
    lo, hi = next(entry[2:] for entry in TEMPLATES.values() if entry[0] == label)
    if lo == hi:
        bound = f"size_{lo}"
    elif hi is None:
        bound = f"at_least_{lo}"
    else:
        bound = f"between_{lo}_and_{hi}" if lo else f"at_most_{hi}"
    add(f"common_nonneighborhood_{bound}", lo <= common.bit_count() <= (n if hi is None else hi))
    if label == "A2":
        triple = mask_from(roles[r] for r in ("v1", "v2", "v3"))
        add("common_nonneighborhood_is_residual_triple", common == triple)
    elif label == "A3":
        w_pair = mask_from((roles["w1"], roles["w2"]))
        add("w_pair_in_common_nonneighborhood", common & w_pair == w_pair)
        add("w_pair_nonadjacent", not g.has_edge(roles["w1"], roles["w2"]))
    elif label == "B4":
        five = mask_from(roles[r] for r in ("x1", "x2", "x3", "x4", "x5"))
        tail = mask_from(roles[r] for r in ("x3", "x4", "x5"))
        add("u_nonneighborhood_is_residual_five", non_neighborhood(g, ru) == five)
        add("x345_outside_v_neighborhood", non_neighborhood(g, rv) & tail == tail)
        add("v_adjacent_to_x1_or_x2", g.has_edge(rv, roles["x1"]) or g.has_edge(rv, roles["x2"]))
    elif label == "B7":
        quad = mask_from(roles[r] for r in ("p1", "p2", "p3", "p4"))
        pair = mask_from((roles["p1"], roles["p2"]))
        add("p_quad_outside_u_neighborhood", non_neighborhood(g, ru) & quad == quad)
        add("p12_outside_v_neighborhood", non_neighborhood(g, rv) & pair == pair)
        add("v_adjacent_to_p3_or_p4", g.has_edge(rv, roles["p3"]) or g.has_edge(rv, roles["p4"]))
    elif label == "B8":
        triple = mask_from(roles[r] for r in ("w1", "w2", "w3"))
        add("w_triple_in_common_nonneighborhood", common & triple == triple)
        add("w_triple_independent", is_independent(g, triple))
    elif label == "C1":
        shared = (g.adj[ru] & g.adj[rv]).bit_count()
        add("endpoint_degrees_in_range", all(n - 4 <= g.degree(w) <= n - 3 for w in (ru, rv)))
        add("shared_neighbors_at_most_n_minus_6", shared <= n - 6)
    elif label in ("C2", C2_PRIME):
        add("endpoint_degrees_equal_n_minus_4", g.degree(ru) == n - 4 and g.degree(rv) == n - 4)
    elif label == "C3":
        add("trivial_endpoint_degree_n_minus_4", g.degree(ru) == n - 4)
        add("nontrivial_endpoint_degree_at_least_n_minus_4", g.degree(rv) >= n - 4)
        add("spare_vertex_degree_n_minus_5", g.degree(roles["y1"]) == n - 5)
    elif label == "C4":
        add("endpoint_degrees_in_range", all(n - 4 <= g.degree(w) <= n - 3 for w in (ru, rv)))
        add("w_pair_independent", not g.has_edge(roles["w1"], roles["w2"]))
    return PredicateReport(label, family, True, tuple(checks))
