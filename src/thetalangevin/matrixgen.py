"""Random correlation matrices with a prescribed, exponentially decaying spectrum.

Used to build ill-conditioned Gaussian targets: the eigenvalues interpolate
log-linearly between a largest value M and a smallest value m, and a random
correlation matrix carrying exactly that spectrum (after rescaling to trace d)
is produced by conjugating diag(eigenvalues) with a Haar-distributed orthogonal
matrix (QR of a Gaussian matrix with the signs of R's diagonal moved into Q;
Mezzadri 2007) and driving the diagonal to one with Givens rotations (Davies
and Higham 2000). The draws and the floating-point operations are those of
scipy's `random_correlation.rvs`, so for one seed the matrices agree bit for
bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError

# Largest |diagonal - 1| accepted after the Givens sweep.
_DIAGONAL_TOL = 1e-7


@dataclass(frozen=True)
class SpectralModel:
    """Log-linear eigenvalue profile: d values decaying from a finite M down
    to m."""

    d: int
    m: float
    M: float

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        if not (0.0 < self.m <= self.M < math.inf):
            raise ValueError(f"need 0 < m <= M < inf, got m={self.m}, M={self.M}")


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
    conjugate diag(eigenvalues) by a Haar orthogonal matrix, then apply
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
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(d, d)))
    q *= np.sign(np.diagonal(r))
    corr = _givens_to_unit_diagonal((q * lam) @ q.T)
    if np.abs(np.diagonal(corr) - 1.0).max() > _DIAGONAL_TOL:
        raise NumericalError("correlation matrix construction failed: "
                             "Givens rotations left a diagonal entry off one")
    return (corr + corr.T) / 2.0


def _givens_to_unit_diagonal(m: np.ndarray) -> np.ndarray:
    """Rotate the symmetric m of trace d, in place, to unit diagonal (Davies
    and Higham 2000)."""
    d = m.shape[0]
    diag = np.diagonal(m)
    for i in range(d - 1):
        if diag[i] == 1.0:
            continue
        # Partner: the first later diagonal entry strictly on the other side
        # of one, else the last.
        j = i + 1
        while j < d - 1 and (diag[j] - 1.0) * (diag[i] - 1.0) >= 0.0:
            j += 1
        # Rotation [c s; -s c] of rows and columns i, j setting m[i, i] to
        # one, with t chosen to avoid cancellation.
        aij, ajjd = m[i, j], diag[j] - 1.0
        if ajjd == 0.0:
            c, s = 0.0, 1.0
        else:
            dd = math.sqrt(max(aij**2 - (diag[i] - 1.0) * ajjd, 0.0))
            t = (aij + math.copysign(dd, aij)) / ajjd
            c = 1.0 / math.sqrt(1.0 + t * t)
            s = 1.0 if c == 0.0 else c * t
        _rotate(m[i], m[j], c, s)
        _rotate(m[:, i], m[:, j], c, s)
    return m


def _rotate(x: np.ndarray, y: np.ndarray, c: float, s: float) -> None:
    """x, y <- c x - s y, s x + c y in place, rounded as BLAS drot(x, y, c, -s)
    rounds them: x <- fma(c, x, RN(-s y)) and y <- fma(c, y, RN(s x)).

    One dgemm of [[-s, c, 0], [0, s, c]] with the C-contiguous stack
    [y; x; y] gives both: dgemm sums each output's terms in k order with FMA,
    starting from zero, so the product that drot rounds first sits in the
    first nonzero slot, and the zero slots add exact zeros. numpy sends a
    one-column product to gemv, which rounds differently, so a lone column is
    padded to two.
    """
    n = x.size
    stack = np.zeros((3, max(n, 2)))
    stack[0, :n] = y
    stack[1, :n] = x
    stack[2, :n] = y
    new = (np.array([[-s, c, 0.0], [0.0, s, c]]) @ stack)[:, :n]
    if not new.all():
        # A sum started from +0 is never -0, but drot returns -0 where both
        # products are -0. Wherever the result is zero, the plain sum of the
        # two rounded products equals drot's, sign included.
        zero = new[0] == 0.0
        new[0, zero] = c * x[zero] - s * y[zero]
        zero = new[1] == 0.0
        new[1, zero] = c * y[zero] + s * x[zero]
    x[...] = new[0]
    y[...] = new[1]


def dump_matrix(matrix: np.ndarray, path) -> None:
    """Write a matrix as comma-separated text, one row per line, to a path or text handle."""
    np.savetxt(path, matrix, delimiter=",", fmt="%.17g")
