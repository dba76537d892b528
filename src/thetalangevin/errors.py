"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """A numerical procedure failed (factorization, iteration cap, bracketing)."""


class OutOfRegimeError(ValueError):
    """Requested parameters fall outside the regime where a formula is valid."""


class DegenerateBandwidthError(ValueError):
    """A sample set has no spread (all pairwise distances zero, or a constant
    coordinate); no kernel bandwidth can be derived."""
