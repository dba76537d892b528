"""Discrepancy measures between sample sets.

Mean marginal total variation (MMTV): per-coordinate kernel density estimates
integrated against each other with adaptive Gauss-Kronrod quadrature. Maximum
mean discrepancy (MMD): Gaussian-kernel V-statistic with the median pairwise
distance setting the bandwidth. All operations are pure; kernel sums use
blockwise pairwise summation so results do not depend on evaluation order
beyond float rounding.
"""

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateBandwidthError, QuadratureAccuracyError

MAX_QUADRATURE_INTERVALS = 1 << 15
MEDIAN_SUBSAMPLE_CAP = 2000
DEFAULT_QUADRATURE_TOL = 1e-8

_KERNEL_BLOCK = 1024

# 7-point Gauss / 15-point Kronrod pair on [-1, 1].
_KRONROD_NODES = np.array([
    -0.991455371120812639206854697526329,
    -0.949107912342758524526189684047851,
    -0.864864423359769072789712788640926,
    -0.741531185599394439863864773280788,
    -0.586087235467691130294144838258730,
    -0.405845151377397166906606412076961,
    -0.207784955007898467600689403773245,
    0.0,
    0.207784955007898467600689403773245,
    0.405845151377397166906606412076961,
    0.586087235467691130294144838258730,
    0.741531185599394439863864773280788,
    0.864864423359769072789712788640926,
    0.949107912342758524526189684047851,
    0.991455371120812639206854697526329,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
    0.204432940075298892414161999234649,
    0.190350578064785409913256402421014,
    0.169004726639267902826583426598550,
    0.140653259715525918745189590510238,
    0.104790010322250183839876322541518,
    0.063092092629978553290700663189204,
    0.022935322010529224963732008058970,
])
# Gauss weights attach to every second Kronrod node (indices 1, 3, ..., 13).
_GAUSS_WEIGHTS = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
    0.381830050505118944950369775488975,
    0.279705391489276667901467771423780,
    0.129484966168869693270611432679082,
])
_GAUSS_INDICES = np.arange(1, 15, 2)


@dataclass(frozen=True)
class SampleSet:
    """A finite collection of d-dimensional points with an optional label."""

    points: np.ndarray
    label: str = ""

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


@dataclass(frozen=True)
class DiscrepancyReport:
    """MMTV and squared MMD between two sample sets, with estimation settings."""

    mmtv: float
    mmd2: float
    kde_bandwidths: np.ndarray = field(default_factory=lambda: np.empty(0))
    kernel_sigma: float = float("nan")
    quadrature_tol: float = DEFAULT_QUADRATURE_TOL


def median_bandwidth(q: SampleSet, seed: int = 0, squared: bool = False) -> float:
    """Kernel bandwidth sigma with 2 sigma^2 the median pairwise distance of q.

    The median is exact over all N(N-1)/2 distinct pairs; sets larger than the
    subsample cap are first thinned to the cap uniformly at random (seeded,
    so the value is reproducible). With squared=True the median of squared
    distances is used instead of the literal distances.
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
    med = float(np.median(pair_sq if squared else np.sqrt(pair_sq)))
    if med <= 0.0:
        raise DegenerateBandwidthError("median pairwise distance is zero")
    return math.sqrt(med / 2.0)


def _kernel_sum(a: np.ndarray, b: np.ndarray, sigma: float) -> float:
    """Sum of exp(-||a_i - b_j||^2 / (2 sigma^2)) over all pairs, blockwise."""
    scale = -1.0 / (2.0 * sigma**2)
    b_sq = np.einsum("ij,ij->i", b, b)
    a_sq = np.einsum("ij,ij->i", a, a)
    block_totals = []
    for start in range(0, a.shape[0], _KERNEL_BLOCK):
        rows = a[start:start + _KERNEL_BLOCK]
        d2 = a_sq[start:start + _KERNEL_BLOCK, None] + b_sq[None, :] - 2.0 * (rows @ b.T)
        np.maximum(d2, 0.0, out=d2)
        d2 *= scale
        np.exp(d2, out=d2)
        block_totals.append(float(d2.sum()))
    return math.fsum(block_totals)


def mmd2(p: SampleSet, q: SampleSet, sigma: float) -> float:
    """Squared maximum mean discrepancy, Gaussian kernel, V-statistic estimator.

    mean_pp k + mean_qq k - 2 mean_pq k with all pairs (diagonals included),
    which keeps the estimate non-negative up to float rounding.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    if not sigma > 0:
        raise ValueError(f"kernel bandwidth must be positive, got {sigma}")
    pp = _kernel_sum(p.points, p.points, sigma) / (p.n * p.n)
    qq = _kernel_sum(q.points, q.points, sigma) / (q.n * q.n)
    pq = _kernel_sum(p.points, q.points, sigma) / (p.n * q.n)
    return pp + qq - 2.0 * pq


def silverman_bandwidth(samples_1d: np.ndarray) -> float:
    """Silverman's rule 1.06 s N^(-1/5) with s the sample standard deviation."""
    samples_1d = np.asarray(samples_1d, dtype=float)
    s = float(samples_1d.std(ddof=1))
    return 1.06 * s * samples_1d.size ** (-0.2)


def kde_marginal(samples_1d, bandwidth: float):
    """Gaussian kernel density estimate of a univariate sample.

    Returns a vectorized density function (an equal-weight mixture of normals
    centered at the samples, so it integrates to one analytically).
    """
    samples = np.asarray(samples_1d, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need a 1-d sample of at least two points")
    if not bandwidth > 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth}")
    norm = 1.0 / (samples.size * bandwidth * math.sqrt(2.0 * math.pi))

    def density(x):
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        z = (np.atleast_1d(x)[:, None] - samples[None, :]) / bandwidth
        out = norm * np.exp(-0.5 * z * z).sum(axis=1)
        return float(out[0]) if scalar else out

    return density


def _panel(f, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _KRONROD_NODES), dtype=float)
    if not np.all(np.isfinite(fx)):
        raise ValueError(f"integrand is not finite on [{a}, {b}]")
    kronrod = half * float(_KRONROD_WEIGHTS @ fx)
    gauss = half * float(_GAUSS_WEIGHTS @ fx[_GAUSS_INDICES])
    delta = abs(kronrod - gauss)
    err = min(delta, (200.0 * delta) ** 1.5)
    return kronrod, err


def gauss_kronrod(f, a: float, b: float, tol: float) -> tuple[float, float]:
    """Adaptive quadrature of f over [a, b] with a 7/15 Gauss-Kronrod pair.

    The interval with the largest error estimate is bisected until the total
    estimate falls to tol. f must accept a vector of evaluation points. If the
    subdivision cap is reached first, a QuadratureAccuracyError carrying the
    best estimate is raised.
    """
    if not a < b:
        raise ValueError(f"need a < b, got a={a}, b={b}")
    if not tol > 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    value, err = _panel(f, a, b)
    counter = 0
    heap = [(-err, counter, a, b, value)]
    total_value, total_err = value, err
    while total_err > tol:
        if len(heap) >= MAX_QUADRATURE_INTERVALS:
            raise QuadratureAccuracyError(
                f"quadrature error {total_err:.3e} still above tol {tol:.3e} "
                f"after {len(heap)} intervals",
                estimate=total_value, error_estimate=total_err,
            )
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        left_val, left_err = _panel(f, lo, mid)
        right_val, right_err = _panel(f, mid, hi)
        total_value += left_val + right_val - val
        total_err += left_err + right_err - (-neg_err)
        counter += 1
        heapq.heappush(heap, (-left_err, counter, lo, mid, left_val))
        counter += 1
        heapq.heappush(heap, (-right_err, counter, mid, hi, right_val))
    # Re-accumulate to shed cancellation from the incremental updates.
    total_value = math.fsum(item[4] for item in heap)
    total_err = math.fsum(-item[0] for item in heap)
    return total_value, total_err


def _marginal_tv(p_col: np.ndarray, q_col: np.ndarray, tol: float) -> tuple[float, float, float]:
    """Total variation between KDEs of two univariate samples.

    Returns (tv, bandwidth_p, bandwidth_q). Integration runs over the union of
    the sample ranges expanded by four bandwidths.
    """
    bw_p = silverman_bandwidth(p_col)
    bw_q = silverman_bandwidth(q_col)
    kde_p = kde_marginal(p_col, bw_p)
    kde_q = kde_marginal(q_col, bw_q)
    lo = min(p_col.min() - 4.0 * bw_p, q_col.min() - 4.0 * bw_q)
    hi = max(p_col.max() + 4.0 * bw_p, q_col.max() + 4.0 * bw_q)
    integral, _ = gauss_kronrod(lambda x: np.abs(kde_p(x) - kde_q(x)), lo, hi, tol)
    return 0.5 * integral, bw_p, bw_q


def mmtv(p: SampleSet, q: SampleSet, tol: float = DEFAULT_QUADRATURE_TOL) -> float:
    """Mean over coordinates of the total variation between marginal KDEs."""
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    tvs = [_marginal_tv(p.points[:, i], q.points[:, i], tol)[0] for i in range(p.dim)]
    return math.fsum(tvs) / p.dim


def discrepancy_report(p: SampleSet, q: SampleSet,
                       tol: float = DEFAULT_QUADRATURE_TOL,
                       seed: int = 0) -> DiscrepancyReport:
    """Both discrepancies of p against the reference set q.

    The kernel bandwidth comes from the reference q via the median heuristic;
    the per-coordinate KDE bandwidths reported are those of q.
    """
    if p.dim != q.dim:
        raise ValueError(f"dimension mismatch: {p.dim} vs {q.dim}")
    sigma = median_bandwidth(q, seed=seed)
    bandwidths = np.array([silverman_bandwidth(q.points[:, i]) for i in range(q.dim)])
    return DiscrepancyReport(
        mmtv=mmtv(p, q, tol=tol),
        mmd2=mmd2(p, q, sigma),
        kde_bandwidths=bandwidths,
        kernel_sigma=sigma,
        quadrature_tol=tol,
    )
