"""The checks for numeric arguments, record arguments and computed densities."""

from __future__ import annotations

import math
import numbers


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


def finite_array(values, message):
    """values as a float64 array (0-d for a scalar) if every value is finite and >= 0.

    Scalars and arrays of any integer or float dtype pass, numpy's included.
    Any other dtype (bool, complex, object, string) raises ValueError(message),
    so True is not a frequency, as it is not a length; so does a value that
    is negative, NaN or beyond the float64 range.
    """
    import numpy as np  # not at module level: the CLI uses finite_real before numpy loads
    values = np.asarray(values)
    if values.dtype.kind not in "iuf":
        raise ValueError(message)
    # min and max allocate no temporary array, and either is NaN where a value
    # is; the bound is a float64 compared before the cast, so no dtype overflows
    if values.size and not (values.min() >= 0 and values.max() <= np.finfo(np.float64).max):
        raise ValueError(message)
    return values.astype(float, copy=False)


def nonnegative_int(value, message):
    """value as an int if it is an integer >= 0.

    Every numbers.Integral passes the type check, numpy integers included;
    bool is refused. Anything else raises ValueError(message).
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
        raise ValueError(message)
    return int(value)


def instance_of(value, cls, name):
    """value, refused with TypeError("<name> must be a <cls>") unless it is a cls."""
    if not isinstance(value, cls):
        raise TypeError("%s must be a %s" % (name, cls.__name__))
    return value


def finite_density(density):
    """density, refused with ValueError if any value left the float range."""
    import numpy as np  # not at module level: the CLI uses finite_real before numpy loads
    if not np.all(np.isfinite(density)):
        raise ValueError("the density exceeds the float range")
    return density
