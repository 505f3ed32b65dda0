"""Matching-theory decision procedures for small graphs.

Perfect-matching tests and enumeration, deficiency certificates,
k-factor-criticality and minimality testing with per-edge witness sets,
classification of deficient residual graphs into configuration families,
statement checkers, and exhaustive catalog surveys, all over a bitset graph
representation with graph6 I/O.
"""

from .errors import (
    EdgeAbsent,
    EdgePresent,
    FactorCritError,
    FamilyPreconditionUnmet,
    FileUnreadable,
    KOutOfRange,
    LimitExceeded,
    MalformedEncoding,
    NotCritical,
    NotDeficient,
    NotMinimallyCritical,
    NotRestorable,
    OrderTooLargeForGenerate,
    OrderTooSmall,
    ParityMismatch,
    PreconditionUnmet,
    ResumeMismatch,
    TheoremViolated,
    UnsupportedOrder,
    VertexOutOfRange,
)
from .graph import (
    MAX_ORDER,
    ComponentPartition,
    Connectivity,
    Graph,
    add_edge,
    complete_bipartite,
    complete_graph,
    components,
    connectivity,
    cycle_graph,
    degree_profile,
    delete_vertices,
    empty_graph,
    encode_graph6,
    is_claw_free,
    non_neighborhood,
    parse_graph6,
    path_graph,
    petersen_graph,
    remove_edge,
    star_graph,
    wheel_graph,
)
from .matching import (
    Matching,
    PerfectMatcher,
    PerfectMatchingEnumeration,
    TutteCertificate,
    enumerate_perfect_matchings,
    forced_edge,
    gallai_edmonds_barrier,
    has_perfect_matching,
    maximum_matching,
    tutte_violators,
)
from .criticality import (
    CriticalityReport,
    MinimalityCertificate,
    downward_criticality_check,
    is_k_factor_critical,
    is_minimally_kfc,
    iter_minimality_witnesses,
    minimality_certificate,
    minimality_witness,
    ps_reduction_check,
)
from .oracles import kfc_via_tutte, max_deficiency, maximum_matching_bruteforce
from .configurations import (
    ConfigurationMatch,
    EdgeClassification,
    PredicateReport,
    ResidualInstance,
    certify_minimal_edges,
    classify_residual,
    config_predicates,
    residual_family,
)
from .verifiers import (
    TheoremVerdict,
    check_conjecture,
    check_degree_bounds,
    check_maxdeg_profile,
    check_n4_characterization,
    check_star_structure,
    check_two_maxdeg_nonadjacent,
    minimal_verdicts,
)
from .search import (
    Catalog,
    SurveyReport,
    canonical_form,
    canonical_graph6,
    enumerate_catalog,
    generate_nonisomorphic,
    hunt_counterexamples,
    survey,
    valid_k_values,
)

__version__ = "0.1.0"
