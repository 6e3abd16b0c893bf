"""Security analysis of the modified two-state (B92) QKD protocol.

Library layout:

- :mod:`b92sec.states` - Bloch-sphere signal states and Bob's five outcome
  probabilities as one array closed form
- :mod:`b92sec.estimation` - observed counts to channel parameters
- :mod:`b92sec.evebound` - Eve's maximum information gain (closed form)
- :mod:`b92sec.oracle` - exact Lagrange-dual verification oracle with a certificate
- :mod:`b92sec.infobounds` - information-theoretic ceiling on the Shannon gain
- :mod:`b92sec.attacks` - explicit attacks reaching the full-information region
- :mod:`b92sec.keyrate` - secret-key gain, angle optimization, link physics
- :mod:`b92sec.simulate` - reproducible Monte-Carlo protocol runs
- :mod:`b92sec.cli` - batch commands reproducing every figure as CSV
"""

__version__ = "0.1.0"

from .estimation import ChannelTriple, ObservedCounts, estimate_channel
from .evebound import EveBoundResult, eve_max_gain, flipped_bit_gain
from .keyrate import KeyGainReport, optimal_angle, secret_key_gain
from .simulate import SimConfig, SimResult, run_simulation

__all__ = [
    "ChannelTriple",
    "EveBoundResult",
    "KeyGainReport",
    "ObservedCounts",
    "SimConfig",
    "SimResult",
    "__version__",
    "estimate_channel",
    "eve_max_gain",
    "flipped_bit_gain",
    "optimal_angle",
    "run_simulation",
    "secret_key_gain",
]
