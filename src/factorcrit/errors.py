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
    """A strict enumeration was truncated before completing."""


class ParityMismatch(FactorCritError):
    """k and the graph order have different parity."""


class KOutOfRange(FactorCritError):
    """k is outside 0 <= k < n."""


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
