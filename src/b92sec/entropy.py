"""Binary Shannon entropy with the h(0) = h(1) = 0 continuity convention."""

import numpy as np

from .errors import require


def binary_entropy(x):
    """h(x) = -x log2 x - (1-x) log2 (1-x), in bits, elementwise."""
    x = np.asarray(x, dtype=float)
    # NaN passes: a failed entry upstream keeps its NaN
    require(x, ~((x < 0.0) | (x > 1.0)), "entropy argument outside [0, 1]")
    y = 1.0 - x
    # log2(0 + 1) = 0 drops the 0 log2 0 terms; starting at 0.0 avoids -0.0
    return (0.0 - x * np.log2(x + (x == 0.0)) - y * np.log2(y + (y == 0.0)))[()]
