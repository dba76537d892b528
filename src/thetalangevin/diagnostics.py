"""Discrepancy measures between sample sets.

Mean marginal total variation (MMTV): per coordinate, the two Gaussian kernel
density estimates are linearly binned and FFT-convolved onto one shared grid
(Silverman 1982; Wand 1994). The grid only locates the sign changes of their
difference; the total variation itself comes exactly from the difference of
the two KDE distribution functions between consecutive sign changes, so an
error in a crossing's position changes it only to second order. Maximum mean
discrepancy (MMD): Gaussian-kernel V-statistic with the median pairwise
distance setting the bandwidth. `Reference` holds the reference side of both,
computed once per sweep. All operations are pure; kernel sums use blockwise
pairwise summation so results do not depend on evaluation order beyond float
rounding.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateBandwidthError

MEDIAN_SUBSAMPLE_CAP = 2000

_KERNEL_BLOCK = 1024
# KDE support: each sample range widened by this many bandwidths per side.
_KDE_TAIL_BANDWIDTHS = 4.0
# Grid spacing is the smaller bandwidth over this; the grid length is capped.
_GRID_POINTS_PER_BANDWIDTH = 16
_MAX_GRID_POINTS = 1 << 18
# Grid differences below this fraction of phi(0) / (smaller bandwidth), a bound
# on both KDEs, count as zero, so FFT rounding in the tails adds no sign changes.
_SIGN_FLOOR = 1e-13


@dataclass(frozen=True)
class SampleSet:
    """A finite collection of d-dimensional points."""

    points: np.ndarray

    def __post_init__(self):
        points = np.asarray(self.points, dtype=float)
        if points.ndim != 2:
            raise ValueError("points must be an (N, d) matrix")
        if points.shape[0] < 2:
            raise ValueError("a sample set needs at least two points")
        if not np.all(np.isfinite(points)):
            raise ValueError("sample set contains non-finite entries")
        object.__setattr__(self, "points", points)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def median_bandwidth(q: SampleSet, seed: int = 0) -> float:
    """Kernel bandwidth sigma with 2 sigma^2 the median pairwise distance of q.

    The median is exact over all N(N-1)/2 distinct pairs; sets larger than the
    subsample cap are first thinned to the cap uniformly at random (seeded,
    so the value is reproducible).
    """
    points = q.points
    if points.shape[0] > MEDIAN_SUBSAMPLE_CAP:
        rng = np.random.default_rng((int(seed), points.shape[0]))
        idx = rng.choice(points.shape[0], size=MEDIAN_SUBSAMPLE_CAP, replace=False)
        points = points[np.sort(idx)]
    sq_norms = np.einsum("ij,ij->i", points, points)
    sq = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (points @ points.T)
    np.maximum(sq, 0.0, out=sq)
    pair_sq = sq[np.triu_indices_from(sq, k=1)]
    med = float(np.median(np.sqrt(pair_sq)))
    if med <= 0.0:
        raise DegenerateBandwidthError("median pairwise distance is zero")
    return math.sqrt(med / 2.0)


def _kernel_block(a: np.ndarray, a_sq: np.ndarray, b: np.ndarray, b_sq: np.ndarray,
                  scale: float) -> float:
    """Sum of exp(scale ||a_i - b_j||^2) over all pairs; a_sq, b_sq are the
    squared row norms."""
    d2 = a_sq[:, None] + b_sq[None, :] - 2.0 * (a @ b.T)
    np.maximum(d2, 0.0, out=d2)
    d2 *= scale
    np.exp(d2, out=d2)
    return float(d2.sum())


def _kernel_sum(a: np.ndarray, b: np.ndarray, sigma: float) -> float:
    """Sum of exp(-||a_i - b_j||^2 / (2 sigma^2)) over all pairs, blockwise."""
    scale = -1.0 / (2.0 * sigma**2)
    b_sq = np.einsum("ij,ij->i", b, b)
    a_sq = np.einsum("ij,ij->i", a, a)
    return math.fsum(_kernel_block(a[start:start + _KERNEL_BLOCK],
                                   a_sq[start:start + _KERNEL_BLOCK], b, b_sq, scale)
                     for start in range(0, a.shape[0], _KERNEL_BLOCK))


def mmd2(p: SampleSet, q, sigma: float | None = None) -> float:
    """Squared maximum mean discrepancy, Gaussian kernel, V-statistic estimator.

    mean_pp k + mean_qq k - 2 mean_pq k with all pairs (diagonals included),
    which keeps the estimate non-negative up to float rounding. q is a
    SampleSet with an explicit sigma, or a Reference, which carries its own
    sigma and mean_qq k.
    """
    mean_qq = None
    if isinstance(q, Reference):
        if sigma is not None:
            raise ValueError("a Reference carries its own kernel bandwidth; pass no sigma")
        q, sigma, mean_qq = q.samples, q.sigma, q.mean_qq
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if sigma is None or not sigma > 0:
        raise ValueError(f"kernel bandwidth must be positive, got {sigma}")
    pp = _mean_self_kernel(p, sigma)
    qq = mean_qq if mean_qq is not None else _mean_self_kernel(q, sigma)
    pq = _kernel_sum(p.points, q.points, sigma) / (p.n * q.n)
    return pp + qq - 2.0 * pq


def _mean_self_kernel(q: SampleSet, sigma: float) -> float:
    """Mean kernel over all N^2 ordered pairs of q. The kernel matrix is
    symmetric, so only its blocks on and above the diagonal are summed, each
    off-diagonal one twice. Up to N = _KERNEL_BLOCK this is one block, the
    same operations as _kernel_sum(q, q)."""
    points, block = q.points, _KERNEL_BLOCK
    scale = -1.0 / (2.0 * sigma**2)
    sq = np.einsum("ij,ij->i", points, points)
    totals = []
    for i in range(0, q.n, block):
        rows, rows_sq = points[i:i + block], sq[i:i + block]
        for j in range(i, q.n, block):
            total = _kernel_block(rows, rows_sq, points[j:j + block], sq[j:j + block], scale)
            totals.append(total if j == i else 2.0 * total)
    return math.fsum(totals) / (q.n * q.n)


def silverman_bandwidth(samples: np.ndarray):
    """Silverman's rule 1.06 s N^(-1/5) with s the sample standard deviation,
    for a 1-d sample, or per column of an (N, d) matrix."""
    samples = np.asarray(samples, dtype=float)
    return 1.06 * samples.std(axis=0, ddof=1) * samples.shape[0] ** (-0.2)


@dataclass(frozen=True)
class Reference:
    """The reference side of MMTV and MMD, computed once and reused for every
    set scored against it: the sample set, its per-coordinate Silverman
    bandwidths, the kernel bandwidth sigma (median heuristic) and the mean_qq k
    term of mmd2."""

    samples: SampleSet
    bandwidths: np.ndarray
    sigma: float
    mean_qq: float

    @classmethod
    def from_samples(cls, q: SampleSet, seed: int = 0) -> "Reference":
        """sigma comes from median_bandwidth(q, seed)."""
        sigma = median_bandwidth(q, seed=seed)
        bandwidths = silverman_bandwidth(q.points)
        bandwidths.setflags(write=False)
        return cls(q, bandwidths, sigma, _mean_self_kernel(q, sigma))


def _binned_kde_spectrum(samples: np.ndarray, bandwidth: float, lo: float,
                         dx: float, n_fft: int) -> np.ndarray:
    """Real FFT of a KDE on the grid lo + j dx: linear binning of the samples,
    times the Fourier transform of the Gaussian kernel, scaled to a density."""
    t = (samples - lo) / dx
    j = np.floor(t).astype(np.intp)
    w = t - j
    counts = (np.bincount(j, weights=1.0 - w, minlength=n_fft)
              + np.bincount(j + 1, weights=w, minlength=n_fft))
    freq = np.fft.rfftfreq(n_fft, d=dx)
    kernel = np.exp(-0.5 * (2.0 * math.pi * bandwidth * freq) ** 2)
    return np.fft.rfft(counts) * kernel / (samples.size * dx)


def _kde_cdf(samples: np.ndarray, bandwidth: float, x: np.ndarray) -> np.ndarray:
    """Distribution function of the Gaussian KDE of samples, at the points x."""
    return ndtr((x[:, None] - samples[None, :]) / bandwidth).mean(axis=1)


def _marginal_tv(p_col: np.ndarray, q_col: np.ndarray, bw_p: float, bw_q: float) -> float:
    """Total variation between KDEs of two univariate samples over the union
    of the sample ranges, each widened by four bandwidths."""
    lo = min(p_col.min() - _KDE_TAIL_BANDWIDTHS * bw_p, q_col.min() - _KDE_TAIL_BANDWIDTHS * bw_q)
    hi = max(p_col.max() + _KDE_TAIL_BANDWIDTHS * bw_p, q_col.max() + _KDE_TAIL_BANDWIDTHS * bw_q)
    bw_min = min(bw_p, bw_q)
    steps = min(math.ceil((hi - lo) * _GRID_POINTS_PER_BANDWIDTH / bw_min), _MAX_GRID_POINTS)
    grid, dx = np.linspace(lo, hi, steps + 1, retstep=True)
    # Twice the grid length keeps the FFT's wrap-around beyond every kernel's reach.
    n_fft = 1 << (2 * grid.size - 1).bit_length()
    diff = np.fft.irfft(_binned_kde_spectrum(p_col, bw_p, lo, dx, n_fft)
                        - _binned_kde_spectrum(q_col, bw_q, lo, dx, n_fft), n_fft)[:grid.size]
    signs = np.sign(diff)
    signs[np.abs(diff) <= _SIGN_FLOOR / (bw_min * math.sqrt(2.0 * math.pi))] = 0.0
    nonzero = np.flatnonzero(signs)
    flips = signs[nonzero[1:]] != signs[nonzero[:-1]]
    left, right = nonzero[:-1][flips], nonzero[1:][flips]
    d_left, d_right = diff[left], diff[right]
    crossings = grid[left] + (grid[right] - grid[left]) * (d_left / (d_left - d_right))
    cuts = np.concatenate(([lo], crossings, [hi]))
    cdf_diff = _kde_cdf(p_col, bw_p, cuts) - _kde_cdf(q_col, bw_q, cuts)
    return 0.5 * math.fsum(np.abs(np.diff(cdf_diff)))


def mmtv(p: SampleSet, q) -> float:
    """Mean over coordinates of the total variation between marginal KDEs.

    q is a SampleSet or a Reference; Silverman bandwidths of a Reference are
    reused. Symmetric: mmtv(p, q) == mmtv(q, p) exactly.
    """
    if isinstance(q, Reference):
        q, bw_q = q.samples, q.bandwidths
    else:
        bw_q = silverman_bandwidth(q.points)
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    bw_p = silverman_bandwidth(p.points)
    for name, bws in (("p", bw_p), ("q", bw_q)):
        if not np.all(bws > 0):
            raise DegenerateBandwidthError(
                f"coordinate {int(np.argmin(bws > 0))} of {name} has zero spread")
    tvs = [_marginal_tv(p.points[:, i], q.points[:, i], bw_p[i], bw_q[i])
           for i in range(p.dim)]
    return math.fsum(tvs) / p.dim
