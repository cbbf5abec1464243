"""Exception types raised by cavityrad."""


class ThresholdSingularityError(ValueError):
    """Pointwise rod density requested too close to a transverse mode threshold.

    The density diverges as an inverse square root at each threshold; the
    offending mode is recorded so callers can report or skip the point.
    """

    def __init__(self, omega, n1, n2, k_perp):
        self.omega = omega
        self.mode = (n1, n2)
        self.k_perp = k_perp
        super().__init__(
            "rod density is singular at omega=%.17g: transverse mode "
            "(n1=%d, n2=%d) has threshold k_perp=%.17g within the guard window"
            % (omega, n1, n2, k_perp)
        )


class ResourceLimitError(RuntimeError):
    """A request would exceed a cap: lattice points, frequency bins or samples.

    `required` is the size the request needs, counted in `what`; it may be a
    float too large for an integer, or an integer too large for a float,
    which the message shows as inf.
    """

    def __init__(self, required, cap, what="lattice points"):
        self.required = required
        self.cap = int(cap)
        try:
            shown = float(required)
        except OverflowError:  # an int beyond the float range
            shown = float("inf")
        super().__init__(
            "the request needs %.17g %s, exceeding the cap of %d"
            % (shown, what, self.cap)
        )


class NumericalCheckError(RuntimeError):
    """A numerical self-check failed, so no result is returned.

    The CLI maps every subclass to exit code 4.
    """


class BesselZeroError(NumericalCheckError):
    """A Bessel-zero table failed its interlacing or completeness check."""

    def __init__(self, order, detail):
        self.order = int(order)
        super().__init__("zeros of j_%d failed the completeness check: %s"
                         % (self.order, detail))


class QuadratureError(NumericalCheckError):
    """Composite quadrature failed to converge; carries the last two estimates."""

    def __init__(self, last, previous):
        self.last = last
        self.previous = previous
        super().__init__(
            "quadrature did not converge: last two estimates %.17g, %.17g"
            % (previous, last)
        )


class ConvolutionExactnessError(NumericalCheckError):
    """FFT lattice counts strayed too far from integers to be rounded safely."""

    def __init__(self, deviation):
        self.deviation = deviation
        super().__init__(
            "convolution counts lost integer exactness: a count lies %.3g from "
            "the nearest integer, above the guard of 0.25" % deviation
        )
