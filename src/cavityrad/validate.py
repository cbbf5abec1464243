"""The checks for scalar numeric arguments and computed densities."""

from __future__ import annotations

import math
import numbers

import numpy as np


def finite_real(value, message, lower=0.0, inclusive=False):
    """value as a float if it is a finite real number above lower.

    inclusive=True accepts lower itself too. Every numbers.Real passes the
    type check, numpy integers and floats included; bool is refused, so True
    is not a length of 1 m. Anything else raises ValueError(message).
    """
    if type(value) is not float:  # plain floats, the hot case, skip the ABC check
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(message)
        try:
            value = float(value)
        except OverflowError:  # an int beyond the float range
            raise ValueError(message) from None
    if not (math.isfinite(value) and (value >= lower if inclusive else value > lower)):
        raise ValueError(message)
    return value


def finite_density(density):
    """density, refused with ValueError if any value left the float range."""
    if not np.all(np.isfinite(density)):
        raise ValueError("the density exceeds the float range")
    return density
