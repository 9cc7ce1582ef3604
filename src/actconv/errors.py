"""Exception types shared across the package."""


class HypothesisNotMetError(ValueError):
    """A stated hypothesis of a bound is violated (e.g. n**(1 - alpha) > 2)."""


class NonFiniteSampleError(ValueError):
    """The function under an operator returned NaN or an infinity at a sample point."""


class QuadratureNonConvergedError(RuntimeError):
    """An adaptive integration ran out of subdivisions before meeting tolerance."""


class FlaggedApproximantError(RuntimeError):
    """The interpolated last stage of an iterate or chain failed residual validation."""
