"""Exception types shared across the package."""


class TGraphsError(Exception):
    """Base class for all package errors."""


class NotChordal(TGraphsError):
    """The graph is not chordal where chordality is required."""


class Disconnected(TGraphsError):
    """The graph is not connected where connectivity is required."""


class NotTGraph(TGraphsError):
    """A structural assertion valid for every T-graph failed.

    This is evidence, not a proof of non-isomorphism; the main algorithm
    converts it into the 'not a T-graph' verdict.
    """

    def __init__(self, reason, **details):
        super().__init__(reason)
        self.reason = reason
        self.details = dict(details)

    def evidence(self):
        return {"reason": self.reason, **self.details}


class DomainMismatch(TGraphsError):
    """Permutation does not act on the expected domain."""


class NotAPartition(TGraphsError):
    """Point classes do not partition the domain."""


class IndexBoundExceeded(NotTGraph):
    """Subgroup coset discovery exceeded the declared index bound.

    Every bound holds for T-graphs, so this is not-a-T-graph evidence too.
    """

    def __init__(self, message, bound=None, stage=None):
        super().__init__("group index bound exceeded", stage=stage, bound=bound)
        self.args = (message,)  # str() keeps the specific message
        self.bound = bound
        self.stage = stage


class NotClosed(TGraphsError):
    """A membership predicate rejects the identity, so it defines no subgroup."""


class TooLarge(TGraphsError):
    """Input exceeds a brute-force oracle guard."""
