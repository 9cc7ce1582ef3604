"""Exception types shared across the package."""


class HypothesisNotMetError(ValueError):
    """A stated hypothesis of a bound is violated (e.g. n**(1 - alpha) > 2)."""


class NonFiniteSampleError(ValueError):
    """The function under an operator returned NaN or an infinity at a sample point."""


class QuadratureNonConvergedError(RuntimeError):
    """A numerical rule cannot meet its tolerance: an adaptive integration ran
    out of subdivisions, a grid call no step can serve was refused before
    sampling, or an approximant's residual exceeds its ceiling."""
