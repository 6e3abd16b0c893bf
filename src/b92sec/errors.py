"""Exception hierarchy shared by all modules."""


class B92Error(Exception):
    """Base class for errors raised by this package."""


class DomainError(B92Error, ValueError):
    """A parameter lies outside its documented range."""


class DegenerateChannelError(DomainError):
    """Channel parameters make the optimization matrices singular."""


class DegenerateAngleError(DomainError):
    """Measurement angle too close to 0 or 90 degrees for the count inversion."""


class DegenerateLinkError(DomainError):
    """Physical link parameters give zero transmission."""


class EstimationInfeasibleError(B92Error):
    """Observed counts are inconsistent with every symmetrized channel.

    Signals either statistical fluctuation or non-symmetrizable data.
    """


class UnreachableChannelError(B92Error):
    """The observed channel cannot be produced by any unitary interaction."""


class OracleInfeasibleError(B92Error):
    """No contraction meets the oracle's constraint band."""
