"""Exception hierarchy shared by all modules, and the one input check.

:func:`require` is how every range check rejects bad input, on an array or
a scalar: one :class:`DomainError` reading "<what>: <first bad value>".
:class:`FirstFailure` gives the array results their scalar wrappers'
``check``.
:func:`is_integer` is the test for a count or a seed, and :func:`_key_values`
reads the ``key=value`` items of an attack stage and of a simulator config
file alike.
"""

import numbers

import numpy as np


class B92Error(Exception):
    """Base class for errors raised by this package."""


class DomainError(B92Error, ValueError):
    """A parameter lies outside its documented range."""


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
    broadcast to the shape of ``ok``.  ``ok`` must have a bool dtype, or
    :class:`TypeError` is raised: ``~`` on a Python bool gives a truthy int.
    """
    if ok is True or ok is np.True_:  # a scalar check that passed
        return
    ok = np.asarray(ok)
    if ok.dtype != bool:
        raise TypeError(f"require needs a bool mask, not {ok.dtype}")
    # count_nonzero dispatches faster than ok.all() on the small masks of
    # one-channel calls
    if np.count_nonzero(ok) != ok.size:
        raise DomainError(f"{message}: {np.broadcast_to(values, ok.shape)[~ok].flat[0]}")


def is_integer(value) -> bool:
    """Whether ``value`` is an integer; a bool is not one."""
    # a plain int answers before the slower abstract-class test
    return type(value) is int or (isinstance(value, numbers.Integral)
                                  and not isinstance(value, bool))


def _key_values(items, keys, aliases: dict, where: str) -> dict[str, str]:
    """The stripped values of ``key=value`` items, by key.

    A key is stripped, lower-cased and mapped through ``aliases``.  An item
    without ``=``, a key outside ``keys`` or a key given twice raises
    :class:`DomainError` naming ``where`` and the key.
    """
    values = {}
    for item in items:
        key, sep, value = item.partition("=")
        key = key.strip().lower()
        if not sep:
            raise DomainError(f"expected key=value in {where}: {item!r}")
        name = aliases.get(key, key)
        if name not in keys:
            raise DomainError(f"{where} takes no key {key!r}")
        if name in values:
            raise DomainError(f"{where} sets {name!r} twice")
        values[name] = value.strip()
    return values


class FirstFailure:
    """Mixin for array results with a ``failed`` mask and an ``error(k)`` method."""

    def check(self) -> None:
        """Raise the scalar call's exception for the first failed entry."""
        if np.count_nonzero(self.failed):
            raise self.error(np.flatnonzero(self.failed)[0])
