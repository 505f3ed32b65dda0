"""Classification of deficient residual graphs into configuration families.

A residual instance is a graph G' of order 6 or 8 with a designated
non-adjacent pair (u, v) such that G' has no perfect matching but G' + uv
does.  Such instances arise as G - e - S_e when a witness set S_e forces the
edge e = uv; the classifier names the finitely many shapes they can take.

Templates are keyed on the minimum-cardinality deficiency certificate X: its
size, the multiset of component sizes of G' - X, where the designated pair
sits, and a few adjacency side conditions.  Family A and B instances must
have no pendent vertex after restoring uv; family C instances only need
G' itself to have no isolated vertex.
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
    add_edge,
    bits_list,
    delete_vertices,
    mask_from,
    non_neighborhood,
    remove_edge,
)
from .matching import TutteCertificate, has_perfect_matching, tutte_violators
from .criticality import minimality_certificate

FAMILY_A = "A"
FAMILY_B = "B"
FAMILY_C = "C"
FAMILIES = (FAMILY_A, FAMILY_B, FAMILY_C)

UNCLASSIFIED = "Unclassified"
C2_PRIME = "C2'"

FAMILY_LABELS = {
    FAMILY_A: ("A1", "A2", "A3"),
    FAMILY_B: ("B1", "B2", "B3", "B4", "B5", "B6", "B7", "B8"),
    FAMILY_C: ("C1", "C2", C2_PRIME, "C3", "C4"),
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
        restored = add_edge(g, self.u, self.v)
        if self.family in (FAMILY_A, FAMILY_B):
            if restored.min_degree() < 2:
                raise FamilyPreconditionUnmet(
                    "restored graph has a pendent or isolated vertex"
                )
        else:
            if g.min_degree() < 1:
                raise FamilyPreconditionUnmet("residual graph has an isolated vertex")
        if has_perfect_matching(g):
            raise NotDeficient("residual graph has a perfect matching")
        if not has_perfect_matching(restored):
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


def _block_vertices(block: int, exclude: int = -1) -> list[int]:
    return [w for w in bits_list(block) if w != exclude]


def _internal_edges(g: Graph, block: int) -> list[list[int]]:
    verts = bits_list(block)
    return [[a, b] for i, a in enumerate(verts) for b in verts[i + 1:] if g.has_edge(a, b)]


def _match_template(
    g: Graph, u: int, v: int, family: str, cert: TutteCertificate
) -> tuple[str, dict[str, int], dict]:
    """Match one (instance, certificate) pair against the family's templates."""
    unmatched = (UNCLASSIFIED, {}, {})
    x_mask = cert.x_set
    xs = bits_list(x_mask)
    part = cert.partition
    if part.odd_count != len(xs) + 2:
        return unmatched
    odd = [b for b in part.blocks if b.bit_count() & 1]
    even = [b for b in part.blocks if not b.bit_count() & 1]
    ub = next((b for b in odd if b >> u & 1), None)
    vb = next((b for b in odd if b >> v & 1), None)
    if ub is None or vb is None or ub == vb:
        return unmatched
    odd_sizes = sorted(b.bit_count() for b in odd)
    even_sizes = sorted(b.bit_count() for b in even)
    others = [b for b in odd if b != ub and b != vb]
    u_trivial = ub.bit_count() == 1
    v_trivial = vb.bit_count() == 1
    adj = g.adj

    if family == FAMILY_A:
        if not xs and odd_sizes == [3, 3] and not even:
            roles = {"u": u, "v": v}
            roles["u1"], roles["u2"] = _block_vertices(ub, u)
            roles["u3"], roles["u4"] = _block_vertices(vb, v)
            return "A1", roles, {}
        if len(xs) == 1 and odd_sizes == [1, 1, 3] and not even and u_trivial and v_trivial:
            roles = {"u": u, "v": v, "x": xs[0]}
            roles["v1"], roles["v2"], roles["v3"] = _block_vertices(others[0])
            return "A2", roles, {}
        if len(xs) == 2 and odd_sizes == [1, 1, 1, 1] and not even:
            pair = _distinct_attachments(adj, u, v, xs)
            if pair is None:
                return unmatched
            roles = {"u": u, "v": v, "x": pair[0], "y": pair[1]}
            roles["w1"], roles["w2"] = sorted(b.bit_length() - 1 for b in others)
            return "A3", roles, {}
        return unmatched

    if family == FAMILY_B:
        if not xs and odd_sizes == [3, 5] and not even:
            small, large = (ub, vb) if ub.bit_count() == 3 else (vb, ub)
            ru, rv = (u, v) if small == ub else (v, u)
            roles = {"u": ru, "v": rv}
            roles["u1"], roles["u2"] = _block_vertices(small, ru)
            for name, w in zip(("u3", "u4", "u5", "u6"), _block_vertices(large, rv)):
                roles[name] = w
            return "B1", roles, {}
        if len(xs) == 1 and u_trivial and v_trivial:
            if odd_sizes == [1, 1, 3] and even_sizes == [2]:
                roles = {"u": u, "v": v, "a": xs[0]}
                roles["v1"], roles["v2"], roles["v3"] = _block_vertices(others[0])
                roles["v4"], roles["v5"] = _block_vertices(even[0])
                return "B2", roles, {}
            if odd_sizes == [1, 1, 5] and not even:
                roles = {"u": u, "v": v, "a": xs[0]}
                for name, w in zip(("v1", "v2", "v3", "v4", "v5"), _block_vertices(others[0])):
                    roles[name] = w
                return "B3", roles, {}
        if len(xs) == 1 and odd_sizes == [1, 3, 3] and not even and u_trivial != v_trivial:
            ru, rv = (u, v) if u_trivial else (v, u)
            rvb = vb if u_trivial else ub
            spare = next(b for b in others if b.bit_count() == 3)
            if not adj[xs[0]] & spare:
                return unmatched
            roles = {"u": ru, "v": rv, "a": xs[0]}
            roles["x1"], roles["x2"] = _block_vertices(rvb, rv)
            roles["x3"], roles["x4"], roles["x5"] = _block_vertices(spare)
            return "B4", roles, {}
        if len(xs) == 2 and odd_sizes == [1, 1, 1, 1] and even_sizes == [2]:
            roles = {"u": u, "v": v, "a1": xs[0], "a2": xs[1]}
            roles["y1"], roles["y2"] = sorted(b.bit_length() - 1 for b in others)
            roles["y3"], roles["y4"] = _block_vertices(even[0])
            return "B5", roles, {}
        if len(xs) == 2 and odd_sizes == [1, 1, 1, 3] and not even:
            if u_trivial and v_trivial:
                roles = {"u": u, "v": v, "b1": xs[0], "b2": xs[1]}
                spare3 = next(b for b in others if b.bit_count() == 3)
                roles["z1"] = next(b for b in others if b.bit_count() == 1).bit_length() - 1
                roles["z2"], roles["z3"], roles["z4"] = _block_vertices(spare3)
                return "B6", roles, {}
            if u_trivial != v_trivial:
                ru, rv = (u, v) if u_trivial else (v, u)
                rvb = vb if u_trivial else ub
                roles = {"u": ru, "v": rv, "c1": xs[0], "c2": xs[1]}
                roles["p1"], roles["p2"] = sorted(b.bit_length() - 1 for b in others)
                roles["p3"], roles["p4"] = _block_vertices(rvb, rv)
                return "B7", roles, {}
        if len(xs) == 3 and odd_sizes == [1, 1, 1, 1, 1] and not even:
            roles = {"u": u, "v": v, "a1": xs[0], "a2": xs[1], "a3": xs[2]}
            for name, w in zip(("w1", "w2", "w3"), sorted(b.bit_length() - 1 for b in others)):
                roles[name] = w
            return "B8", roles, {}
        return unmatched

    # family C
    if not xs and odd_sizes == [3, 3] and not even:
        roles = {"u": u, "v": v}
        roles["u1"], roles["u2"] = _block_vertices(ub, u)
        roles["v1"], roles["v2"] = _block_vertices(vb, v)
        meta = {
            "u_component_edges": _internal_edges(g, ub),
            "v_component_edges": _internal_edges(g, vb),
        }
        return "C1", roles, meta
    if len(xs) == 1 and odd_sizes == [1, 1, 1] and even_sizes == [2]:
        roles = {"u": u, "v": v, "a": xs[0]}
        roles["w"] = next(b for b in others).bit_length() - 1
        roles["p1"], roles["p2"] = _block_vertices(even[0])
        return "C2", roles, {}
    if len(xs) == 1 and odd_sizes == [1, 1, 3] and not even:
        if u_trivial and v_trivial:
            roles = {"u": u, "v": v, "a": xs[0]}
            roles["v1"], roles["v2"], roles["v3"] = _block_vertices(others[0])
            return C2_PRIME, roles, {}
        if u_trivial != v_trivial:
            ru, rv = (u, v) if u_trivial else (v, u)
            rvb = vb if u_trivial else ub
            spare = next(b for b in others if b.bit_count() == 1)
            roles = {"u": ru, "v": rv, "a": xs[0]}
            roles["y1"] = spare.bit_length() - 1
            roles["y2"], roles["y3"] = _block_vertices(rvb, rv)
            return "C3", roles, {}
        return unmatched
    if len(xs) == 2 and odd_sizes == [1, 1, 1, 1] and not even:
        uv_mask = (1 << u) | (1 << v)
        if any(not adj[x] & uv_mask for x in xs):
            return unmatched
        roles = {"u": u, "v": v, "a1": xs[0], "a2": xs[1]}
        roles["w1"], roles["w2"] = sorted(b.bit_length() - 1 for b in others)
        return "C4", roles, {}
    return unmatched


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
    if residual_order == 8:
        return FAMILY_B
    if residual_order != 6:
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
        u, v = e
        residual, index_map = delete_vertices(remove_edge(g, u, v), witness)
        try:
            inst = ResidualInstance(residual, index_map[u], index_map[v], family)
        except FamilyPreconditionUnmet as exc:
            out[e] = EdgeClassification(witness, family, None, str(exc))
            continue
        out[e] = EdgeClassification(witness, family, classify_residual(inst))
    return out


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
    configuration label imposes on the ambient graph."""
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
    size = common.bit_count()
    checks: list[PredicateCheck] = []

    def add(name: str, passed: bool) -> None:
        checks.append(PredicateCheck(name, passed))

    label = match.label
    if label == "A1":
        add("common_nonneighborhood_at_most_1", size <= 1)
    elif label == "A2":
        triple = mask_from(roles[r] for r in ("v1", "v2", "v3"))
        add("common_nonneighborhood_size_3", size == 3)
        add("common_nonneighborhood_is_residual_triple", common == triple)
    elif label == "A3":
        w_pair = mask_from((roles["w1"], roles["w2"]))
        add("common_nonneighborhood_at_least_2", size >= 2)
        add("w_pair_in_common_nonneighborhood", common & w_pair == w_pair)
        add("w_pair_nonadjacent", not g.has_edge(roles["w1"], roles["w2"]))
    elif label == "B1":
        add("common_nonneighborhood_at_most_3", size <= 3)
    elif label in ("B2", "B3"):
        add("common_nonneighborhood_size_5", size == 5)
    elif label == "B4":
        five = mask_from(roles[r] for r in ("x1", "x2", "x3", "x4", "x5"))
        tail = mask_from(roles[r] for r in ("x3", "x4", "x5"))
        add("u_nonneighborhood_is_residual_five", non_neighborhood(g, ru) == five)
        add("x345_outside_v_neighborhood", non_neighborhood(g, rv) & tail == tail)
        add("v_adjacent_to_x1_or_x2", g.has_edge(rv, roles["x1"]) or g.has_edge(rv, roles["x2"]))
        add("common_nonneighborhood_between_3_and_4", 3 <= size <= 4)
    elif label in ("B5", "B6"):
        add("common_nonneighborhood_at_least_4", size >= 4)
    elif label == "B7":
        quad = mask_from(roles[r] for r in ("p1", "p2", "p3", "p4"))
        pair = mask_from((roles["p1"], roles["p2"]))
        add("p_quad_outside_u_neighborhood", non_neighborhood(g, ru) & quad == quad)
        add("p12_outside_v_neighborhood", non_neighborhood(g, rv) & pair == pair)
        add("v_adjacent_to_p3_or_p4", g.has_edge(rv, roles["p3"]) or g.has_edge(rv, roles["p4"]))
        add("common_nonneighborhood_between_2_and_4", 2 <= size <= 4)
    elif label == "B8":
        triple = mask_from(roles[r] for r in ("w1", "w2", "w3"))
        ws = [roles["w1"], roles["w2"], roles["w3"]]
        independent = not any(
            g.has_edge(a, b) for i, a in enumerate(ws) for b in ws[i + 1:]
        )
        add("common_nonneighborhood_at_least_3", size >= 3)
        add("w_triple_in_common_nonneighborhood", common & triple == triple)
        add("w_triple_independent", independent)
    elif label == "C1":
        shared = (g.adj[ru] & g.adj[rv]).bit_count()
        add("common_nonneighborhood_at_most_2", size <= 2)
        add("endpoint_degrees_in_range", all(n - 4 <= g.degree(w) <= n - 3 for w in (ru, rv)))
        add("shared_neighbors_at_most_n_minus_6", shared <= n - 6)
    elif label in ("C2", C2_PRIME):
        add("common_nonneighborhood_size_3", size == 3)
        add("endpoint_degrees_equal_n_minus_4", g.degree(ru) == n - 4 and g.degree(rv) == n - 4)
    elif label == "C3":
        add("common_nonneighborhood_between_1_and_2", 1 <= size <= 2)
        add("trivial_endpoint_degree_n_minus_4", g.degree(ru) == n - 4)
        add("nontrivial_endpoint_degree_at_least_n_minus_4", g.degree(rv) >= n - 4)
        add("spare_vertex_degree_n_minus_5", g.degree(roles["y1"]) == n - 5)
    elif label == "C4":
        add("common_nonneighborhood_between_2_and_3", 2 <= size <= 3)
        add("endpoint_degrees_in_range", all(n - 4 <= g.degree(w) <= n - 3 for w in (ru, rv)))
        add("w_pair_independent", not g.has_edge(roles["w1"], roles["w2"]))
    return PredicateReport(label, family, True, tuple(checks))
