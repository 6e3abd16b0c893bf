"""Security analysis of the modified two-state (B92) QKD protocol.

Library layout:

- :mod:`b92sec.states` - Bob's five outcome probabilities for Bloch-plane
  states, as one array closed form
- :mod:`b92sec.estimation` - observed counts to channel parameters
- :mod:`b92sec.evebound` - Eve's maximum information gain (closed form)
- :mod:`b92sec.oracle` - exact Lagrange-dual verification oracle with a certificate
- :mod:`b92sec.infobounds` - information-theoretic ceiling on the Shannon gain
- :mod:`b92sec.attacks` - explicit attacks reaching the full-information region
- :mod:`b92sec.keyrate` - secret-key gain, angle optimization, link physics
- :mod:`b92sec.simulate` - reproducible Monte-Carlo protocol runs
- :mod:`b92sec.cli` - batch commands reproducing every figure as CSV

The core computes over arrays, and the scalar calls are one-entry cases of
array calls.  The closed form of the bound is one body that runs with one
of two kits of operations, chosen by input type: numpy's own over arrays,
and Python floats for one channel of Python numbers.  Each field of a
one-channel result equals the channel's entry of an array call bit for
bit (``TestFloatPass`` in ``tests/test_evebound.py``).
:func:`secret_key_gain` returns the :class:`KeyGains` of
:func:`b92sec.keyrate.key_gains` itself, with fields of shape ();
:func:`eve_max_gain` returns an :class:`EveBoundResult` record for correct
bits, the overlap and the family that decided it, whose information gains
are computed from the overlap when read; the flipped-bit bound is index 1
of ``KeyGains.bounds``.
"""

__version__ = "0.1.0"

from .estimation import ChannelTriple, ObservedCounts, estimate_channel
from .evebound import EveBoundResult, eve_max_gain
from .keyrate import KeyGains, optimal_angle, secret_key_gain
from .simulate import SimConfig, SimResult, run_simulation

__all__ = [
    "ChannelTriple",
    "EveBoundResult",
    "KeyGains",
    "ObservedCounts",
    "SimConfig",
    "SimResult",
    "__version__",
    "estimate_channel",
    "eve_max_gain",
    "optimal_angle",
    "run_simulation",
    "secret_key_gain",
]
