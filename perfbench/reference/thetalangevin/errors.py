"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (factorization, iteration cap, bracketing)."""


class OutOfRegimeError(ValueError):
    """Requested parameters fall outside the regime where a formula is valid."""


class QuadratureAccuracyError(NumericalError):
    """Adaptive quadrature hit its subdivision cap before reaching the tolerance.

    Carries the best available estimate and its error estimate so callers can
    decide whether to accept the degraded result.
    """

    def __init__(self, message, estimate, error_estimate):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


class DegenerateBandwidthError(ValueError):
    """All pairwise distances are zero; no kernel bandwidth can be derived."""
