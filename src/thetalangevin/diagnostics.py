"""Discrepancy measures between sample sets.

Mean marginal total variation (MMTV): per coordinate, the two Gaussian kernel
density estimates are linearly binned and FFT-convolved onto one shared grid
(Silverman 1982; Wand 1994). The grid only locates the sign changes of their
difference; the total variation itself comes exactly from the difference of
the two KDE distribution functions between consecutive sign changes, so an
error in a crossing's position changes it only to second order. Coordinates
whose grids share an FFT length are binned, transformed (one 2-D rfft/irfft
along the grid axis) and scanned for sign changes together, in batches of no
more grid points than the longest grid; the distribution functions at every
coordinate's crossings are then evaluated together, in cache-sized chunks.

Maximum mean discrepancy (MMD): Gaussian-kernel V-statistic (Gretton et al.
2012) with the median pairwise distance setting the bandwidth. Kernel sums are
folded: with rows centred at the reference set's mean (the kernel does not
change under a shift) and scaled by 1/sigma, exp(-|a - b|^2 / 2) =
u_a exp(a.b) u_b with u = exp(-|x|^2 / 2), so a block of pairs is one matmul,
one exp and two matrix-vector products. A block whose max|a| max|b| could
overflow exp is summed in the direct form instead. `Reference` holds the
reference side of both, computed once per sweep. All operations are pure;
kernel sums add fixed blocks with math.fsum, so results do not depend on
evaluation order beyond float rounding.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import DegenerateBandwidthError

MEDIAN_SUBSAMPLE_CAP = 2000

_KERNEL_BLOCK = 1024
# A folded kernel block exponentiates a.b <= max|a| max|b| of rows scaled by
# 1/sigma; past this bound it is summed by _kernel_block, so exp stays below
# e^700 and a row of a block sums to below the largest double.
_FOLD_EXP_LIMIT = 700.0
# KDE support: each sample range widened by this many bandwidths per side.
_KDE_TAIL_BANDWIDTHS = 4.0
# Grid spacing is the smaller bandwidth over this; the grid length is capped.
_GRID_POINTS_PER_BANDWIDTH = 16
_MAX_GRID_POINTS = 1 << 18
# Grid differences below this fraction of phi(0) / (smaller bandwidth), a bound
# on both KDEs, count as zero, so FFT rounding in the tails adds no sign changes.
_SIGN_FLOOR = 1e-13
# mmtv evaluates KDE distribution functions this many kernel terms at a time
# (one cut point's N terms at least), a block that stays in L1 cache.
_CDF_CHUNK = 1 << 11
# exp(-x^2 / 2) is exactly 0.0 in doubles for x above this.
_EXP_UNDERFLOW = math.sqrt(2.0 * 746.0)


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
    # Squared distances of the pairs i < j, row by row (the full matrix and
    # its index arrays would triple the memory). Only the middle one or two
    # are clipped at zero and rooted: both maps are monotone, and sqrt is
    # correctly rounded, so this is the median of all clipped pair distances.
    sq_norms = np.einsum("ij,ij->i", points, points)
    gram2 = points @ points.T
    gram2 *= 2.0
    n = points.shape[0]
    pair_sq = np.empty(n * (n - 1) // 2)
    start = 0
    for i in range(n - 1):
        row = pair_sq[start:start + n - 1 - i]
        np.add(sq_norms[i], sq_norms[i + 1:], out=row)
        row -= gram2[i, i + 1:]
        start += row.size
    half = pair_sq.size // 2
    middle = [half] if pair_sq.size % 2 else [half - 1, half]
    pair_sq.partition(middle)
    med = float(np.mean(np.sqrt(np.maximum(pair_sq[middle], 0.0))))
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


def _scaled_blocks(points: np.ndarray, centre: np.ndarray, sigma: float) -> list:
    """(x, |x|^2, exp(-|x|^2 / 2)) for each _KERNEL_BLOCK rows of
    x = (points - centre) / sigma."""
    x = (points - centre) / sigma
    sq = np.einsum("ij,ij->i", x, x)
    u = np.exp(-0.5 * sq)
    return [(x[i:i + _KERNEL_BLOCK], sq[i:i + _KERNEL_BLOCK], u[i:i + _KERNEL_BLOCK])
            for i in range(0, x.shape[0], _KERNEL_BLOCK)]


def _folded_block(a: tuple, b: tuple) -> float:
    """Sum of exp(-||a_i - b_j||^2 / 2) over all pairs of two _scaled_blocks
    entries, as u_a @ exp(a b') @ u_b, or by _kernel_block where exp could
    overflow."""
    (a, a_sq, a_u), (b, b_sq, b_u) = a, b
    if a_sq.max() * b_sq.max() > _FOLD_EXP_LIMIT**2:
        return _kernel_block(a, a_sq, b, b_sq, -0.5)
    e = a @ b.T
    np.exp(e, out=e)
    return float(a_u @ (e @ b_u))


def _kernel_sum(a: np.ndarray, b: np.ndarray, sigma: float) -> float:
    """Sum of exp(-||a_i - b_j||^2 / (2 sigma^2)) over all pairs, blockwise,
    both sets centred at the mean of b."""
    centre = b.mean(axis=0)
    b_blocks = _scaled_blocks(b, centre, sigma)
    return math.fsum(_folded_block(a_block, b_block)
                     for a_block in _scaled_blocks(a, centre, sigma) for b_block in b_blocks)


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
    """Mean kernel over all N^2 ordered pairs of q, centred at its mean. The
    kernel matrix is symmetric, so only its blocks on and above the diagonal
    are summed, each off-diagonal one twice. Up to N = _KERNEL_BLOCK this is
    one block, the same operations as _kernel_sum(q, q)."""
    blocks = _scaled_blocks(q.points, q.points.mean(axis=0), sigma)
    totals = []
    for i, rows in enumerate(blocks):
        for j in range(i, len(blocks)):
            total = _folded_block(rows, blocks[j])
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


def _bin_counts(samples: np.ndarray, lo: np.ndarray, dx: np.ndarray, n_fft: int) -> np.ndarray:
    """Linear binning of each column of samples onto its grid lo + j dx, one
    row of n_fft bins per column: one bincount per side of the bins, over all
    columns at once."""
    k = samples.shape[1]
    t = samples - lo
    t /= dx
    j = t.astype(np.intp)  # floor: t > 0
    t -= j
    j += np.arange(k) * n_fft
    counts = np.bincount(j.ravel(), weights=(1.0 - t).ravel(), minlength=k * n_fft)
    j += 1
    counts += np.bincount(j.ravel(), weights=t.ravel(), minlength=k * n_fft)
    return counts.reshape(k, n_fft)


def _binned_kde_spectra(samples: np.ndarray, bandwidths: np.ndarray, lo: np.ndarray,
                        dx: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """Real FFTs, one row per column of samples, of KDEs on the grids
    lo + j dx, at the frequencies freq: the binned counts times the Fourier
    transform of the Gaussian kernel, scaled to a density."""
    n_fft = 2 * (freq.shape[1] - 1)
    spectra = np.fft.rfft(_bin_counts(samples, lo, dx, n_fft), axis=1)
    # Past the first `live` frequencies every kernel value is exactly 0, so
    # exp runs on those only and the rest of each spectrum is zeroed; only
    # the signs of zeros can differ from the full product.
    live = min(freq.shape[1],
               int(_EXP_UNDERFLOW / (2.0 * math.pi * (bandwidths * freq[:, 1]).min())) + 2)
    kernel = (2.0 * math.pi * bandwidths)[:, None] * freq[:, :live]
    kernel *= kernel
    kernel *= -0.5
    np.exp(kernel, out=kernel)
    # Real and imaginary parts scaled in place: the same products as complex
    # multiplication and division by a real number, in half the operations.
    parts = spectra.view(np.float64)
    parts[:, 2 * live:] = 0.0
    parts = parts[:, :2 * live]
    parts *= np.repeat(kernel, 2, axis=1)
    parts *= (1.0 / (samples.shape[0] * dx))[:, None]
    return spectra


def _crossings(p: np.ndarray, q: np.ndarray, bw_p: np.ndarray, bw_q: np.ndarray,
               lo: np.ndarray, hi: np.ndarray, steps: np.ndarray, n_fft: int) -> tuple:
    """Sign changes of the difference between the KDEs of matching columns of
    p and q on the grids lo + j (hi - lo) / steps, j = 0..steps, which share
    the FFT length n_fft: their columns and positions, in column and grid
    order, each interpolated linearly between the grid points around it."""
    dx = (hi - lo) / steps
    freq = np.arange(n_fft // 2 + 1) * (1.0 / (n_fft * dx))[:, None]
    width = int(steps.max()) + 1
    diff = np.fft.irfft(_binned_kde_spectra(p, bw_p, lo, dx, freq)
                        - _binned_kde_spectra(q, bw_q, lo, dx, freq), n_fft, axis=1)[:, :width]
    floor = _SIGN_FLOOR / (np.minimum(bw_p, bw_q) * math.sqrt(2.0 * math.pi))
    kept = np.abs(diff) > floor[:, None]
    kept &= np.arange(width) <= steps[:, None]
    at, values = np.flatnonzero(kept), diff[kept]
    flips = (((values[:-1] > 0) != (values[1:] > 0))
             & (at[:-1] // width == at[1:] // width))
    cols, left = np.divmod(at[:-1][flips], width)
    right = at[1:][flips] % width
    d_left, d_right = values[:-1][flips], values[1:][flips]
    # Grid points as np.linspace gives them: j dx + lo, and hi at j = steps,
    # which only a right-hand point can reach.
    g_left = left * dx[cols] + lo[cols]
    g_right = np.where(right == steps[cols], hi[cols], right * dx[cols] + lo[cols])
    return cols, g_left + (g_right - g_left) * (d_left / (d_left - d_right))


def _kde_cdfs(samples: np.ndarray, bandwidths: np.ndarray, x: np.ndarray,
              cols: np.ndarray) -> np.ndarray:
    """Distribution function of the Gaussian KDE of column cols[i] of samples,
    at x[i], for every i, about _CDF_CHUNK kernel terms at a time."""
    n = samples.shape[0]
    out = np.empty(x.size)
    step = max(1, _CDF_CHUNK // n)
    for start in range(0, x.size, step):
        rows = cols[start:start + step]
        z = samples.T[rows]
        np.subtract(x[start:start + step, None], z, out=z)
        z /= bandwidths[rows, None]
        ndtr(z, out=z)
        out[start:start + step] = z.sum(axis=1)
    out /= n
    return out


def mmtv(p: SampleSet, q) -> float:
    """Mean over coordinates of the total variation between marginal KDEs.

    q is a SampleSet or a Reference; Silverman bandwidths of a Reference are
    reused. Symmetric: mmtv(p, q) == mmtv(q, p) exactly. Each coordinate's
    grid spans the union of both sample ranges, each widened by four
    bandwidths, at _GRID_POINTS_PER_BANDWIDTH points per smaller bandwidth.
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
    p, q = p.points, q.points
    lo = np.minimum(p.min(axis=0) - _KDE_TAIL_BANDWIDTHS * bw_p,
                    q.min(axis=0) - _KDE_TAIL_BANDWIDTHS * bw_q)
    hi = np.maximum(p.max(axis=0) + _KDE_TAIL_BANDWIDTHS * bw_p,
                    q.max(axis=0) + _KDE_TAIL_BANDWIDTHS * bw_q)
    steps = np.minimum(np.ceil((hi - lo) * _GRID_POINTS_PER_BANDWIDTH / np.minimum(bw_p, bw_q)),
                       _MAX_GRID_POINTS).astype(np.intp)
    # Twice the grid length keeps the FFT's wrap-around beyond every kernel's reach.
    n_ffts = np.array([1 << (2 * int(s) + 1).bit_length() for s in steps])
    # Coordinates of one FFT length are transformed together, in batches of
    # no more grid points than the longest grid, so memory peaks as it would
    # for that coordinate alone.
    longest = int(n_ffts.max())
    order, crossings, counts = [], [], []
    for n_fft in np.unique(n_ffts).tolist():
        group = np.flatnonzero(n_ffts == n_fft)
        batch = longest // n_fft
        for start in range(0, group.size, batch):
            c = group[start:start + batch]
            cols, x = _crossings(p[:, c], q[:, c], bw_p[c], bw_q[c], lo[c], hi[c], steps[c],
                                 n_fft)
            order.append(c)
            crossings.append(x)
            counts.append(np.bincount(cols, minlength=c.size))
    # Cut points of each coordinate, in batch order: lo, its crossings, hi.
    order = np.concatenate(order)
    sizes = np.concatenate(counts) + 2
    ends = np.cumsum(sizes)
    starts = ends - sizes
    cuts = np.empty(ends[-1])
    inner = np.ones(ends[-1], dtype=bool)
    inner[starts] = inner[ends - 1] = False
    cuts[starts], cuts[ends - 1], cuts[inner] = lo[order], hi[order], np.concatenate(crossings)
    cut_cols = np.repeat(order, sizes)
    masses = np.abs(np.diff(_kde_cdfs(p, bw_p, cuts, cut_cols)
                            - _kde_cdfs(q, bw_q, cuts, cut_cols))).tolist()
    tvs = [0.5 * math.fsum(masses[a:b - 1]) for a, b in zip(starts.tolist(), ends.tolist())]
    return math.fsum(tvs) / p.shape[1]
