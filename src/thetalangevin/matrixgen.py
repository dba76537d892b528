"""Random correlation matrices with a prescribed, exponentially decaying spectrum.

Used to build ill-conditioned Gaussian targets: the eigenvalues interpolate
log-linearly between a largest value M and a smallest value m, and a random
correlation matrix carrying exactly that spectrum (after rescaling to trace d)
is produced by conjugating with a random orthogonal matrix and driving the
diagonal to one with Givens rotations.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError


@dataclass(frozen=True)
class SpectralModel:
    """Log-linear eigenvalue profile: d values decaying from M down to m."""

    d: int
    m: float
    M: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        if not (0.0 < self.m <= self.M):
            raise ValueError(f"need 0 < m <= M, got m={self.m}, M={self.M}")


def exp_decay_spectrum(model: SpectralModel) -> np.ndarray:
    """Eigenvalues log-linearly interpolated from M (first) to m (last).

    The endpoints are exactly M and m, so the extreme ratio is exactly M/m.
    Returns a strictly positive, non-increasing vector of length model.d.
    """
    if model.m == model.M:
        return np.full(model.d, float(model.M))
    t = np.arange(model.d) / (model.d - 1)
    lam = np.exp((1.0 - t) * np.log(model.M) + t * np.log(model.m))
    lam[0] = model.M
    lam[-1] = model.m
    return lam


def rescale_to_trace(eigenvalues: np.ndarray, trace: float) -> np.ndarray:
    """Scale all eigenvalues so they sum to `trace` (preserves their ratios)."""
    lam = np.asarray(eigenvalues, dtype=float)
    return lam * (trace / lam.sum())


def random_correlation(eigenvalues, seed: int) -> np.ndarray:
    """Random correlation matrix whose spectrum equals the rescaled input.

    The input eigenvalues are rescaled to sum to d (a correlation matrix has
    trace d); the rescaling preserves the condition number. Construction:
    conjugate diag(eigenvalues) by a random orthogonal matrix, then apply
    Givens rotations until every diagonal entry is one. Deterministic given
    the seed.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size < 1:
        raise ValueError("eigenvalues must be a non-empty 1-d vector")
    if not np.all(np.isfinite(lam)) or np.any(lam <= 0):
        raise ValueError("eigenvalues must be finite and strictly positive")
    d = lam.size
    lam = rescale_to_trace(lam, float(d))
    if np.ptp(lam) < 1e-14:
        # Flat unit spectrum: the identity is the only correlation matrix.
        return np.eye(d)
    # scipy.stats is imported here, not at module top: it costs about 0.5 s
    # per process, and only this function needs it.
    from scipy.stats import random_correlation as scipy_random_correlation

    rng = np.random.default_rng(seed)
    try:
        corr = scipy_random_correlation.rvs(lam, random_state=rng)
    except Exception as exc:  # scipy signals rotation failure via raise
        raise NumericalError(f"correlation matrix construction failed: {exc}") from exc
    corr = (corr + corr.T) / 2.0
    return corr


def dump_matrix(matrix: np.ndarray, path, delimiter: str = ",") -> None:
    """Write a matrix as delimited text, one row per line."""
    np.savetxt(path, matrix, delimiter=delimiter, fmt="%.17g")
