"""Exception types shared across the package."""


class FactorCritError(Exception):
    """Base class for every error raised by this package."""


class MalformedEncoding(FactorCritError):
    """A graph6 string is syntactically invalid (bad length or byte)."""


class UnsupportedOrder(FactorCritError):
    """The encoded or requested graph order falls outside the supported range."""


class VertexOutOfRange(FactorCritError):
    """A vertex index is not in 0..n-1."""


class EdgeAbsent(FactorCritError):
    """An operation required an edge that the graph does not contain."""


class EdgePresent(FactorCritError):
    """An operation required a non-edge but the edge already exists."""


class OrderTooSmall(FactorCritError):
    """The graph has too few vertices for the requested computation."""


class LimitExceeded(FactorCritError):
    """A strict enumeration was truncated before completing, an exponential
    search was refused before it started (a vertex-subset sweep or memo of
    more than ``graph.SUBSET_BUDGET`` sets, ``tutte_violators`` above
    ``VIOLATOR_MAX_ORDER``, or a subset table above ``TABLE_MAX_ORDER``), or
    a canonical labeling search was cut off after
    ``search.LABELING_NODE_BUDGET`` nodes."""


class ParityMismatch(FactorCritError):
    """k and the graph order have different parity."""


class KOutOfRange(FactorCritError):
    """k, or an order, is out of range: a k-factor-criticality k outside
    0 <= k < n, a survey k outside 1 <= k <= n-2, an order below 1 for
    generation, or a hunt whose orders leave no valid k under its rule."""


class NotCritical(FactorCritError):
    """The input graph is not k-factor-critical as required."""


class NotMinimallyCritical(FactorCritError):
    """The input graph is not minimally k-factor-critical as required."""


class PreconditionUnmet(FactorCritError):
    """A documented precondition of the operation does not hold."""


class TheoremViolated(FactorCritError):
    """An expected-true check failed; this halts sweeps loudly."""


class NotDeficient(FactorCritError):
    """The residual graph has a perfect matching, so no certificate exists."""


class NotRestorable(FactorCritError):
    """Adding the designated edge does not restore a perfect matching."""


class FamilyPreconditionUnmet(FactorCritError):
    """The residual instance violates its configuration family's preconditions."""


class FileUnreadable(FactorCritError):
    """A catalog file could not be opened or read."""


class ResumeMismatch(FactorCritError):
    """A JSONL file to resume does not hold exactly the records being skipped."""


class OrderTooLargeForGenerate(FactorCritError):
    """Built-in generation only covers small orders; ingest a catalog instead."""
