"""Exception hierarchy shared by all modules, and the one input check.

:func:`require` is how every array entry point rejects bad input: one
:class:`DomainError` naming the first bad entry.  :class:`FirstFailure`
gives the array results their scalar wrappers' ``check``.
"""

import numpy as np


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


def require(values, ok, message: str) -> None:
    """Raise :class:`DomainError` at the first entry of ``values`` where ``ok`` is false.

    The message reads "<message>: <entry>", on one line; ``values`` is
    broadcast to the shape of ``ok``.
    """
    ok = np.asarray(ok)
    if not ok.all():
        raise DomainError(f"{message}: {np.broadcast_to(values, ok.shape)[~ok].flat[0]}")


class FirstFailure:
    """Mixin for array results with a ``failed`` mask and an ``error(k)`` method."""

    def check(self) -> None:
        """Raise the scalar call's exception for the first failed entry."""
        failed = np.flatnonzero(self.failed)
        if failed.size:
            raise self.error(failed[0])
