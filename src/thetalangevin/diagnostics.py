"""Discrepancy measures between sample sets.

Mean marginal total variation (MMTV): per coordinate, each Gaussian kernel
density estimate is linearly binned and FFT-convolved on its own grid
(Silverman 1982; Wand 1994), at 16 to 32 points per its own bandwidth. The
grids only locate the sign changes of the difference of the two KDEs; the
total variation itself comes exactly from the difference of the two KDE
distribution functions between consecutive cuts, the first at -inf and the
last at +inf, so an error in a crossing's position changes it only to
second order and no tail mass is dropped. A KDE is below the
sign floor (the level under which a difference counts as zero) beyond its
reach, sqrt(2 ln(1 / floor)) bandwidths past its sample range; outside the
window where both KDEs reach, every point above the floor therefore has the
sign of the one KDE that reaches there. Sign changes are searched only in
that window, at a spacing of the smaller bandwidth / 16. The narrower KDE's
grid holds the search points; a KDE with a bandwidth 2^k times as wide
(k >= 1) has a grid of spacing 2^k times as large and is brought onto them
by 4-point Lagrange interpolation. A window end strictly inside the total
variation's range is a cut too where the sign beyond it (that of the one
KDE that reaches there) differs from the nearest kept sign inside, or where
no point inside is kept: a sign change then lies between the last kept
point and the end (a narrow set in a wide set's far tail), or anywhere in
the window, and two KDEs whose reaches are disjoint are cut in the gap
between them. Elsewhere the masses on both sides of an end share a sign,
and a cut there would change nothing beyond rounding. A grid's length
depends on the range and bandwidth of the KDE it holds, not on the ratio of
the two bandwidths or the distance between the sets. Coordinates whose grids
share FFT lengths are binned, transformed (one 2-D rfft/irfft along the grid
axis) and searched together, in batches of no more grid points per side than
2^14 or the longest grid, whichever is more; the distribution functions at
every coordinate's cuts are then evaluated together, in cache-sized chunks,
from column-major copies of the sets, with a numpy port of Cephes' normal
distribution function that rounds as scipy.special.ndtr does; at the cuts
-inf and +inf they are exactly 0 and 1 and are not evaluated, and kernel
terms below 1e-29 are evaluated only where they can change a sum.

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

from .errors import DegenerateBandwidthError

MEDIAN_SUBSAMPLE_CAP = 2000
# median_bandwidth builds the Gram matrix this many rows at a time: at most
# 4 MB at the subsample cap. Up to this many points the one block is the full
# product. At the cap the blocks were measured bit-equal to it; in between,
# BLAS edge kernels can round the last n mod 8 columns differently.
_GRAM_ROWS = 256

_KERNEL_BLOCK = 1024
# A folded kernel block exponentiates a.b <= max|a| max|b| of rows scaled by
# 1/sigma; past this bound it is summed by _kernel_block, so exp stays below
# e^700 and a row of a block sums to below the largest double.
_FOLD_EXP_LIMIT = 700.0
# KDE support: each sample range widened by this many bandwidths per side.
_KDE_TAIL_BANDWIDTHS = 4.0
# Sign changes are searched at spacing smaller bandwidth over this.
_GRID_POINTS_PER_BANDWIDTH = 16
# Grid differences below this fraction of phi(0) / (smaller bandwidth), a bound
# on both KDEs, count as zero, so FFT rounding in the tails adds no sign changes.
_SIGN_FLOOR = 1e-13
# A Gaussian kernel term is below _SIGN_FLOOR phi(0) / bandwidth at more than
# this many bandwidths from its sample.
_KDE_REACH_BANDWIDTHS = math.sqrt(2.0 * math.log(1.0 / _SIGN_FLOOR))
# mmtv transforms coordinates in batches of up to this many grid points per
# side, or one grid if that is longer: fewer calls, and a bounded peak.
_BATCH_POINTS = 1 << 14
# mmtv evaluates KDE distribution functions this many kernel terms at a time
# (one cut point's N terms at least). One chunk's block and _Ndtr work arrays
# take about 2 MB (the measuring host's L2 cache per core) and amortize its
# ~110 numpy calls. On the README gaussian sweep's arguments at finite cuts
# (single-threaded BLAS, best of five) _Ndtr takes 1.5 to 1.6 times as long
# per term as scipy's ndtr: 32.5 against 22.0 ns and, in a second run, 40.2
# against 24.9 ns. 2^14 and 2^16 terms were no faster beyond that spread.
_CDF_CHUNK = 1 << 15
# exp(-x^2 / 2) is exactly 0.0 in doubles for x above this.
_EXP_UNDERFLOW = math.sqrt(2.0 * 746.0)

# The standard normal distribution function of Cephes (Moshier 1989), the
# code behind scipy.special.ndtr. With x = a / sqrt(2) it is
# 0.5 + 0.5 erf(x) for |x| < 1/sqrt(2), else 0.5 erfc(|x|), reflected
# (1 - it) for x > 0. erf(x) is x T(x^2) / U(x^2); erfc(x) is 1 - erf(x)
# below 1, exp(-x^2) P(x) / Q(x) below 8 and exp(-x^2) R(x) / S(x) from 8 on,
# and 0 once x^2 > MAXLOG. Coefficients run from the highest degree down;
# Q, S and U start with the 1 that Cephes' p1evl leaves implicit (1 x = x, so
# it rounds the same).
_NDTR_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
           7.00332514112805075473e3, 5.55923013010394962768e4)
_NDTR_U = (1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
           2.26290000613890934246e4, 4.92673942608635921086e4)
_NDTR_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_NDTR_Q = (1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_NDTR_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_NDTR_S = (1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
# The largest a of each branch, in order, with x = a * sqrt(1/2) rounded:
# ndtr(a) = 0 (x^2 > MAXLOG), x <= -8 (R/S), x <= -1 (P/Q), |x| < 1 (erf),
# and ndtr(a) < 1 (P/Q, reflected). Past the last, 0.5 erfc(x) is at most
# 2^-54, so 1 - it rounds to 1: there it falls by about 70 ulps per ulp of
# a, far more than its rounding error.
_NDTR_EDGES = (-37.67712072049519, -11.31370849898476, -1.414213562373095,
               1.4142135623730947, 8.292361075813595)
# Every value of the R/S branch is below this (ndtr(-11.3137) = 5.61e-30).
_NDTR_FAR_MAX = 1e-29


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
    # Squared distances of the pairs i < j, row by row, from Gram rows built
    # _GRAM_ROWS at a time (the full matrix and its index arrays would triple
    # the memory). Only the middle one or two are clipped at zero and rooted:
    # both maps are monotone, and sqrt is correctly rounded, so this is the
    # median of all clipped pair distances.
    sq_norms = np.einsum("ij,ij->i", points, points)
    n = points.shape[0]
    pair_sq = np.empty(n * (n - 1) // 2)
    start = 0
    for i0 in range(0, n - 1, _GRAM_ROWS):
        gram2 = points[i0:i0 + _GRAM_ROWS] @ points[i0:].T
        gram2 *= 2.0
        for i in range(i0, min(i0 + _GRAM_ROWS, n - 1)):
            row = pair_sq[start:start + n - 1 - i]
            np.add(sq_norms[i], sq_norms[i + 1:], out=row)
            row -= gram2[i - i0, i - i0 + 1:]
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
    a_blocks, b_blocks = _scaled_blocks(a, centre, sigma), _scaled_blocks(b, centre, sigma)
    return math.fsum(_folded_block(a_block, b_block)
                     for a_block in a_blocks for b_block in b_blocks)


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


def _bin_counts(samples: np.ndarray, lo: np.ndarray, dx: np.ndarray, first: np.ndarray,
                n_fft: int) -> np.ndarray:
    """Linear binning of each column of samples onto its grid
    lo + (first + j) dx, one row of n_fft bins per column: one bincount per
    side of the bins, over all columns at once."""
    k = samples.shape[1]
    t = samples - lo
    t /= dx
    j = t.astype(np.intp)  # floor: t > 0
    t -= j
    j += np.arange(k) * n_fft - first
    # Flattened in memory order, row- or column-major: either way each bin
    # sums its column's samples in sample order.
    counts = np.bincount(j.ravel("K"), weights=(1.0 - t).ravel("K"), minlength=k * n_fft)
    j += 1
    counts += np.bincount(j.ravel("K"), weights=t.ravel("K"), minlength=k * n_fft)
    return counts.reshape(k, n_fft)


def _binned_kdes(samples: np.ndarray, bandwidths: np.ndarray, grid: np.ndarray,
                 lo: np.ndarray, dx: np.ndarray) -> np.ndarray:
    """KDE values, one row per column of samples, on its grid (an _own_grids
    column; the batch shares one n_fft): the real FFT of the binned counts
    times the Fourier transform of the Gaussian kernel, scaled to a density
    and transformed back."""
    n_fft = int(grid[2, 0])
    spacing = np.ldexp(dx, grid[0])
    spectra = np.fft.rfft(_bin_counts(samples, lo, spacing, grid[1], n_fft), axis=1)
    # Frequencies are i df. Past the first `live` ones every kernel value is
    # exactly 0, so exp runs on those only and the rest of each spectrum is
    # zeroed; only the signs of zeros can differ from the full product.
    df = 1.0 / (n_fft * spacing)
    live = min(n_fft // 2 + 1,
               int(_EXP_UNDERFLOW / (2.0 * math.pi * (bandwidths * df).min())) + 2)
    kernel = (2.0 * math.pi * bandwidths)[:, None] * (np.arange(live) * df[:, None])
    kernel *= kernel
    kernel *= -0.5
    np.exp(kernel, out=kernel)
    # Real and imaginary parts scaled in place: the same products as complex
    # multiplication and division by a real number, in half the operations.
    parts = spectra.view(np.float64)
    parts[:, 2 * live:] = 0.0
    parts = parts[:, :2 * live]
    parts *= np.repeat(kernel, 2, axis=1)
    parts *= (1.0 / (samples.shape[0] * spacing))[:, None]
    return np.fft.irfft(spectra, n_fft, axis=1)


def _own_grids(reach_lo: np.ndarray, reach_hi: np.ndarray, bandwidths: np.ndarray,
               dx: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per coordinate, the grid a KDE is binned on, as rows k, first and last:
    the points lo + i dx 2^k, i = first, ..., last, where
    2^k <= bandwidth / (dx _GRID_POINTS_PER_BANDWIDTH) < 2^(k+1), so there
    are 16 to 32 points per bandwidth. They span the KDE's reach clipped to
    [lo, hi], and one point more on the left and two on the right, so that
    4-point interpolation at any search point in the reach stays on the
    grid."""
    k = np.frexp(bandwidths / (dx * _GRID_POINTS_PER_BANDWIDTH))[1] - 1
    spacing = np.ldexp(dx, k)
    first = np.floor((np.maximum(reach_lo, lo) - lo) / spacing) - 1
    last = np.floor((np.minimum(reach_hi, hi) - lo) / spacing) + 2
    return np.stack([k, first, last]).astype(np.intp)


def _search_values(values: np.ndarray, grid: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Values on grids (one row per column; rows k and first of an _own_grids
    column) at the search points lo + j dx, one row of j per column: read off
    where k = 0 in every column, else by 4-point Lagrange interpolation
    between the grid points around each, whose weights are 0, 1, 0, 0 where
    j is a multiple of 2^k."""
    k = grid[0][:, None]
    i = (j >> k) + (np.arange(j.shape[0]) * values.shape[1] - grid[1])[:, None]
    values = values.ravel()
    if not k.any():
        return values[i]
    t = (j & ((1 << k) - 1)) / (1 << k)
    return (-t * (t - 1.0) * (t - 2.0) / 6.0 * values[i - 1]
            + (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0 * values[i]
            + -(t + 1.0) * t * (t - 2.0) / 2.0 * values[i + 1]
            + (t + 1.0) * t * (t - 1.0) / 6.0 * values[i + 2])


def _crossings(p: np.ndarray, q: np.ndarray, bw_p: np.ndarray, bw_q: np.ndarray,
               grid_p: np.ndarray, grid_q: np.ndarray, search: np.ndarray, lo: np.ndarray,
               dx: np.ndarray) -> tuple:
    """Sign changes of the difference between the KDEs of matching columns of
    p and q at their search points lo + j dx, j = first, ..., first + count - 1
    (the rows of search): their columns and positions, in column and grid
    order, each interpolated linearly between the kept points around it;
    and the signs of each column's first and last kept points (0 if it has
    none), as two rows. Each side's grids (_own_grids columns) share one
    n_fft."""
    first, count = search
    width = int(count.max())
    # Past its count a row repeats its last point; those points are masked.
    pos = np.minimum(np.arange(width), (count - 1)[:, None])
    j = first[:, None] + pos
    diff = _search_values(_binned_kdes(p, bw_p, grid_p, lo, dx), grid_p, j)
    diff -= _search_values(_binned_kdes(q, bw_q, grid_q, lo, dx), grid_q, j)
    floor = _SIGN_FLOOR / (np.minimum(bw_p, bw_q) * math.sqrt(2.0 * math.pi))
    kept = np.abs(diff) > floor[:, None]
    kept &= pos == np.arange(width)
    ends = [kept.argmax(axis=1), width - 1 - kept[:, ::-1].argmax(axis=1)]
    end_signs = np.sign(diff[np.arange(first.size), ends]) * kept.any(axis=1)
    at, values = np.flatnonzero(kept), diff[kept]
    rows = at // width
    flips = ((values[:-1] > 0) != (values[1:] > 0)) & (rows[:-1] == rows[1:])
    cols = rows[:-1][flips]
    j = j.ravel()
    g_left = j[at[:-1][flips]] * dx[cols] + lo[cols]
    g_right = j[at[1:][flips]] * dx[cols] + lo[cols]
    d_left, d_right = values[:-1][flips], values[1:][flips]
    return cols, g_left + (g_right - g_left) * (d_left / (d_left - d_right)), end_signs


def _horner(x: np.ndarray, coefs: tuple, out: np.ndarray) -> np.ndarray:
    """coefs[0] x^k + ... + coefs[k] at each x, into out (not x), by Horner's
    rule with one rounding per operation, as Cephes' polevl."""
    np.multiply(x, coefs[0], out=out)
    for c in coefs[1:-1]:
        out += c
        out *= x
    out += coefs[-1]
    return out


class _Ndtr:
    """Standard normal distribution function, bit for bit as
    scipy.special.ndtr computes it (see _NDTR_EDGES), on up to `size`
    entries per call, in work arrays allocated once: fresh ones on every call
    would fault in new pages each time.

    Entries that are exactly 0 or 1 are only written. The others are
    gathered by branch, and all erfc ones share one exp call. exp is libm's,
    through numpy's complex exp with a zero imaginary part: numpy's float64
    exp is its own SIMD code on AVX-512 hosts and differs from libm's in the
    last bit on a few percent of arguments.
    """

    def __init__(self, size: int):
        self.above = np.empty((len(_NDTR_EDGES), size), bool)
        self.far = np.empty(size, bool)
        self.mask = np.empty(size, bool)
        self.work = np.empty((4, size))
        # exp(r + 0i) = exp(r) + 0i: only the real parts are ever rewritten.
        self.exp = np.zeros(size, complex)

    def __call__(self, a: np.ndarray, out: np.ndarray, skip_far: bool = False) -> np.ndarray:
        """ndtr of each entry of a, into out: C-contiguous float arrays of
        one shape, at most `size` entries; out may be a. With skip_far the
        entries of the R/S branch, all in (0, _NDTR_FAR_MAX), are left 0;
        self.far marks them either way."""
        a, res = a.reshape(-1), out.reshape(-1)
        size = a.size
        above, mask, far_mask = self.above[:, :size], self.mask[:size], self.far[:size]
        for edge, row in zip(_NDTR_EDGES, above):
            np.greater(a, edge, out=row)
        # Branch k holds the a in (edge k, edge k + 1]: R/S, P/Q for x < 0,
        # erf, and P/Q for x > 0. NaN is in none.
        np.greater(above[0], above[1], out=far_mask)
        far = np.empty(0, np.intp) if skip_far else np.flatnonzero(far_mask)
        near, small, reflected = (np.flatnonzero(np.greater(above[k], above[k + 1], out=mask))
                                  for k in (1, 2, 3))
        # The erfc branches side by side in the work arrays.
        bounds = np.cumsum([0, far.size, near.size, reflected.size]).tolist()
        tail = list(zip((far, near, reflected), bounds, bounds[1:]))
        n_tail = bounds[-1]
        t, p, q = (w[:n_tail] for w in self.work[:3])
        x = self.work[3, :small.size]
        for idx, lo, hi in tail:
            np.take(a, idx, out=t[lo:hi])
        np.take(a, small, out=x)
        np.isnan(a, out=mask)
        nan = np.flatnonzero(mask) if mask.any() else None
        np.copyto(res, above[-1])

        # 0.5 erfc(t), t = |x| >= 1: 0.5 (exp(-t^2) P(t)) / Q(t), R/S from 8 on.
        np.abs(t, out=t)
        t *= math.sqrt(0.5)
        e = self.exp[:n_tail]
        e_real = e.real
        np.multiply(t, t, out=q)
        np.negative(q, out=e_real)
        np.exp(e, out=e)
        cut = far.size
        _horner(t[:cut], _NDTR_R, p[:cut])
        _horner(t[:cut], _NDTR_S, q[:cut])
        _horner(t[cut:], _NDTR_P, p[cut:])
        _horner(t[cut:], _NDTR_Q, q[cut:])
        p *= e_real
        p /= q
        p *= 0.5
        flip = p[bounds[2]:]
        np.subtract(1.0, flip, out=flip)
        for idx, lo, hi in tail:
            res[idx] = p[lo:hi]

        # |x| < 1. Each of Cephes' three cases here rounds (1 + erf(x)) / 2
        # once: halving is exact, and for |x| >= 1/sqrt(2), 1 - |erf(x)| is
        # exact (Sterbenz: |erf(x)| > 1/2). So all are 0.5 + 0.5 erf(x).
        x *= math.sqrt(0.5)
        z, erf, u = (w[:small.size] for w in self.work[:3])
        np.multiply(x, x, out=z)
        _horner(z, _NDTR_T, erf)
        erf *= x
        erf /= _horner(z, _NDTR_U, u)
        erf *= 0.5
        erf += 0.5
        res[small] = erf
        if nan is not None:
            res[nan] = np.nan
        return out


def _kde_cdfs(samples: np.ndarray, bandwidths: np.ndarray, x: np.ndarray,
              cols: np.ndarray) -> np.ndarray:
    """Distribution function of the Gaussian KDE of column cols[i] of samples,
    at x[i], for every i, about _CDF_CHUNK kernel terms at a time. At
    x = -inf and +inf it is exactly 0 and 1 (n kernel terms of 0 or of 1,
    over n), and is not evaluated."""
    n = samples.shape[0]
    out = (x > 0).astype(float)
    finite = np.flatnonzero(np.isfinite(x))
    step = max(1, min(_CDF_CHUNK // n, finite.size))
    ndtr, block, upper = _Ndtr(step * n), np.empty((step, n)), np.empty((step, n))

    def terms(at):
        rows = cols[at]
        z = np.take(samples.T, rows, axis=0, out=block[:rows.size])
        np.subtract(x[at, None], z, out=z)
        z /= bandwidths[rows, None]
        return z

    for start in range(0, finite.size, step):
        at = finite[start:start + step]
        z = terms(at)
        # The R/S terms (a fifth of the README gaussian sweep's) are not
        # evaluated but summed at both ends of their range [0, _NDTR_FAR_MAX].
        # Each rounded addition is monotone in its terms, so where the two
        # sums agree they are the sum of the true terms; the other rows are
        # evaluated in full.
        ndtr(z, z, skip_far=True)
        sums = z.sum(axis=1)
        high = upper[:at.size]
        np.copyto(high, ndtr.far[:z.size].reshape(z.shape))
        high *= _NDTR_FAR_MAX
        high += z
        redo = np.flatnonzero(sums != high.sum(axis=1))
        if redo.size:
            z = terms(at[redo])
            sums[redo] = ndtr(z, z).sum(axis=1)
        out[at] = sums / n
    return out


def mmtv(p: SampleSet, q) -> float:
    """Mean over coordinates of the total variation between marginal KDEs.

    q is a SampleSet or a Reference; Silverman bandwidths of a Reference are
    reused. Symmetric: mmtv(p, q) == mmtv(q, p) exactly. Per coordinate, the
    total variation is taken over the whole line, with cuts at -inf, the
    sign changes of the difference of the KDEs (searched on the grid
    lo + j dx, dx the smaller bandwidth / _GRID_POINTS_PER_BANDWIDTH, where
    both KDEs reach; lo and hi bound the union of both sample ranges, each
    widened by four bandwidths), the ends of that window where a sign change
    may lie beyond them, and +inf.
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
    # Column-major copies: each coordinate's samples are contiguous, for the
    # batches and for the distribution functions at each cut.
    p, q = np.asfortranarray(p.points), np.asfortranarray(q.points)
    dim = p.shape[1]
    p_min, p_max, q_min, q_max = p.min(axis=0), p.max(axis=0), q.min(axis=0), q.max(axis=0)
    lo = np.minimum(p_min - _KDE_TAIL_BANDWIDTHS * bw_p, q_min - _KDE_TAIL_BANDWIDTHS * bw_q)
    hi = np.maximum(p_max + _KDE_TAIL_BANDWIDTHS * bw_p, q_max + _KDE_TAIL_BANDWIDTHS * bw_q)
    # Each KDE's reach: beyond it, it is below the sign floor. Outside the
    # window where both reach, every kept point has the sign of the one KDE
    # that does.
    reach_p = p_min - _KDE_REACH_BANDWIDTHS * bw_p, p_max + _KDE_REACH_BANDWIDTHS * bw_p
    reach_q = q_min - _KDE_REACH_BANDWIDTHS * bw_q, q_max + _KDE_REACH_BANDWIDTHS * bw_q
    w_lo = np.maximum(np.maximum(reach_p[0], reach_q[0]), lo)
    w_hi = np.minimum(np.minimum(reach_p[1], reach_q[1]), hi)
    dx = np.minimum(bw_p, bw_q) / _GRID_POINTS_PER_BANDWIDTH
    first = np.ceil((w_lo - lo) / dx)
    count = np.floor((w_hi - lo) / dx) - first + 1
    # Only coordinates with search points are binned and transformed; live
    # lists them, and the arrays below are indexed by position in it.
    live = np.flatnonzero(count > 0)
    search = np.stack([first[live], count[live]]).astype(np.intp)
    grid_p = _own_grids(reach_p[0][live], reach_p[1][live], bw_p[live], dx[live], lo[live],
                        hi[live])
    grid_q = _own_grids(reach_q[0][live], reach_q[1][live], bw_q[live], dx[live], lo[live],
                        hi[live])
    # Row last becomes n_fft: a power of two at least twice the number of
    # points keeps the FFT's wrap-around beyond every kernel's reach.
    for grid in (grid_p, grid_q):
        grid[2] = [1 << (2 * int(n) - 1).bit_length() for n in grid[2] - grid[1] + 1]
    # Coordinates whose grids share FFT lengths are transformed together, in
    # batches of at most max(_BATCH_POINTS, longest grid) grid points per
    # side, so that bound caps the memory of one batch.
    lengths = np.maximum(grid_p[2], grid_q[2])
    groups = {}
    for at, key in enumerate(zip(grid_p[2].tolist(), grid_q[2].tolist())):
        groups.setdefault(key, []).append(at)
    cols, crossings = [np.empty(0, dtype=np.intp)], [np.empty(0)]
    inside = np.zeros((2, dim))
    for group in groups.values():
        batch = max(int(lengths.max()), _BATCH_POINTS) // int(lengths[group[0]])
        for start in range(0, len(group), batch):
            at = np.array(group[start:start + batch])
            c = live[at]
            batch_cols, x, inside[:, c] = _crossings(p[:, c], q[:, c], bw_p[c], bw_q[c],
                                                     grid_p[:, at], grid_q[:, at],
                                                     search[:, at], lo[c], dx[c])
            cols.append(c[batch_cols])
            crossings.append(x)
    # The sign beyond each window end that lies inside (lo, hi), 0 at the
    # others. Such an end is cut where the nearest kept sign inside differs
    # or nothing inside is kept. With disjoint reaches the window is empty,
    # and its two ends swap, both in the gap.
    beyond = np.stack([np.sign(reach_q[0] - reach_p[0]) * (w_lo > lo),
                       np.sign(reach_p[1] - reach_q[1]) * (w_hi < hi)])
    cut_lo, cut_hi = (beyond != 0) & (inside != beyond)
    w_lo, w_hi = np.minimum(w_lo, w_hi), np.maximum(w_lo, w_hi)
    # Cut points of each coordinate: -inf, the window ends that cut with the
    # crossings between them, and +inf, where the KDE distribution functions
    # are exactly 0 and 1, so the tails beyond lo and hi count too.
    coords = np.arange(dim)
    cut_cols = np.concatenate([coords, coords[cut_lo]] + cols + [coords[cut_hi], coords])
    cuts = np.concatenate([np.full(dim, -np.inf), w_lo[cut_lo]] + crossings
                          + [w_hi[cut_hi], np.full(dim, np.inf)])
    order = np.argsort(cut_cols, kind="stable")
    cut_cols, cuts = cut_cols[order], cuts[order]
    masses = np.abs(np.diff(_kde_cdfs(p, bw_p, cuts, cut_cols)
                            - _kde_cdfs(q, bw_q, cuts, cut_cols))).tolist()
    ends = np.cumsum(np.bincount(cut_cols, minlength=dim)).tolist()
    tvs = [0.5 * math.fsum(masses[a:b - 1]) for a, b in zip([0] + ends[:-1], ends)]
    return math.fsum(tvs) / dim
