"""Independent oracles and test helpers shared by the test modules.

The oracles deliberately avoid the package's own code paths: finite
differences for derivative checks, bisection for scalar root finds, fixed-step
gradient descent as a cross-check for the Newton solver, the same Newton
iteration through scipy's checked Cholesky wrappers, the implicit-step
subproblem gradient from the public target gradient, plain dense algebra for
spectra, a Cholesky solve for the closed-form Gaussian step, the transition
log density one point at a time, and adaptive 7/15
Gauss-Kronrod quadrature of pointwise kernel density estimates for the
marginal total variation, the same binned-KDE total variation one coordinate
at a time, the union-grid binned-KDE total variation that per-set grids
replaced, the median bandwidth over the full pair-distance matrix, and
scipy's own random correlation matrices. The helper noise_rows reads a noise
stream step by step, through its blocks.
"""

import heapq
import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.special import ndtr
from scipy.stats import random_correlation

from thetalangevin import NumericalError, SolveProblem, SolveResult
from thetalangevin.diagnostics import (MEDIAN_SUBSAMPLE_CAP, _GRID_POINTS_PER_BANDWIDTH,
                                       _KDE_REACH_BANDWIDTHS, _KDE_TAIL_BANDWIDTHS, _SIGN_FLOOR,
                                       silverman_bandwidth)
from thetalangevin.matrixgen import rescale_to_trace
from thetalangevin.optim import (NEWTON_ITER_CAP, _ARMIJO_FACTOR, _BACKTRACK_RATIO,
                                 _MAX_BACKTRACKS)
from thetalangevin.samplers import NOISE_BLOCK

GRADIENT_DESCENT_ITER_CAP = 10_000
MAX_QUADRATURE_INTERVALS = 1 << 15
GAUSS_KRONROD_TV_TOL = 1e-8
# The Gauss-Kronrod total variation integrates this many larger bandwidths
# beyond the KDE supports' usual ends, so it covers the tails.
GAUSS_KRONROD_TAIL_BANDWIDTHS = 12.0
# The grid-length cap of the union-grid mmtv.
UNION_GRID_MAX_POINTS = 1 << 18


def fd_gradient(fun, x, step=1e-6):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    grad = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        grad[i] = (fun(x + e) - fun(x - e)) / (2.0 * step)
    return grad


def fd_jacobian(vec_fun, x, step=1e-6):
    """Central-difference Jacobian of a vector function (used on gradients)."""
    x = np.asarray(x, dtype=float)
    f0 = np.asarray(vec_fun(x))
    jac = np.zeros((f0.size, x.size))
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        jac[:, i] = (np.asarray(vec_fun(x + e)) - np.asarray(vec_fun(x - e))) / (2.0 * step)
    return jac


def bisect_root(fun, lo, hi, tol=1e-12, max_iter=200):
    """Root of a scalar increasing function by bisection."""
    f_lo, f_hi = fun(lo), fun(hi)
    assert f_lo <= 0 <= f_hi, "root not bracketed"
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = fun(mid)
        if hi - lo < tol:
            return mid
        if f_mid < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def noise_rows(stream, n: int) -> np.ndarray:
    """Noise of steps 0, ..., n-1 of a NoiseStream, one row per step: the
    stream's blocks stacked and cut to n rows."""
    blocks = [stream.block(b) for b in range(math.ceil(n / NOISE_BLOCK))]
    return np.concatenate(blocks)[:n]


def subproblem_gradient(target, u, v, theta: float, h: float) -> np.ndarray:
    """Gradient of the implicit-step objective, theta*grad f(u) + (2/h)(u - v),
    through the target's public, checked gradient."""
    return theta * target.gradient(u) + (2.0 / h) * (u - v)


def gradient_descent_solve(problem: SolveProblem, mu: float, lipschitz: float,
                           cap: int = GRADIENT_DESCENT_ITER_CAP) -> SolveResult:
    """Fixed-step gradient descent with step 2/(mu + lipschitz), at most cap
    iterations.

    mu and lipschitz are the strong-convexity and gradient-Lipschitz moduli of
    the objective. Converges geometrically at rate (kappa-1)/(kappa+1) per
    step, where kappa = lipschitz/mu.
    """
    step_size = 2.0 / (mu + lipschitz)
    x = np.array(problem.x0, dtype=float)
    g = problem.gradient(x)
    norm = float(np.linalg.norm(g))
    iterations = 0
    while norm > problem.tol and iterations < cap:
        x = x - step_size * g
        g = problem.gradient(x)
        norm = float(np.linalg.norm(g))
        iterations += 1
    return SolveResult(x=x, grad_norm=norm, iterations=iterations,
                       converged=norm <= problem.tol)


def cho_newton_solve(problem: SolveProblem) -> SolveResult:
    """newton_solve through scipy's cho_factor/cho_solve, with their shape and
    finite checks; the same LAPACK calls, so the same bits on valid input."""
    x = np.array(problem.x0, dtype=float)
    g = problem.gradient(x)
    sq = float(g @ g)
    iterations = 0
    while sq > problem.tol**2 and iterations < NEWTON_ITER_CAP:
        step = cho_solve(cho_factor(problem.hessian(x), lower=True), -g)
        t = 1.0
        accepted = False
        for _ in range(_MAX_BACKTRACKS):
            x_new = x + t * step
            g_new = problem.gradient(x_new)
            sq_new = float(g_new @ g_new)
            if sq_new <= sq * (1.0 - 2.0 * _ARMIJO_FACTOR * t):
                accepted = True
                break
            t *= _BACKTRACK_RATIO
        if not accepted:
            break
        x, g, sq = x_new, g_new, sq_new
        iterations += 1
    grad_norm = float(np.sqrt(sq))
    return SolveResult(x=x, grad_norm=grad_norm, iterations=iterations,
                       converged=grad_norm <= problem.tol)


def point_transition_log_density(target, y, x, theta: float, h: float) -> float:
    """samplers.transition_log_density one point at a time, through the
    target's public, checked gradient and Hessian: log det(I + (h theta/2) H(y))
    plus the log density of N(x - (h(1-theta)/2) grad f(x), h I) at
    y + (h theta/2) grad f(y)."""
    d = target.dim
    chol = np.linalg.cholesky(np.eye(d) + 0.5 * h * theta * target.hessian(y))
    log_det = 2.0 * float(np.log(np.diag(chol)).sum())
    mean = x - 0.5 * h * (1.0 - theta) * target.gradient(x)
    residual = y + 0.5 * h * theta * target.gradient(y) - mean
    return (log_det - 0.5 * d * (math.log(2.0 * math.pi) + math.log(h))
            - float(residual @ residual) / (2.0 * h))


def cholesky_gaussian_step(target, theta, h):
    """Slow-path exact theta step for a GaussianTarget, as x, z -> x_next.

    Solves (I + (h theta/2) Q)(x_next - mean) = (I - (h(1-theta)/2) Q)(x - mean)
    + sqrt(h) z with a Cholesky factorization of the left-hand matrix, computed
    once per (theta, h) from the precision Q rather than its eigendecomposition.
    """
    eye = np.eye(target.dim)
    factor = cho_factor(eye + 0.5 * h * theta * target.precision, lower=True)
    explicit = eye - 0.5 * h * (1.0 - theta) * target.precision
    mean = target.mean

    def step(x, z):
        return cho_solve(factor, explicit @ (x - mean) + np.sqrt(h) * z) + mean

    return step


def scipy_random_correlation(eigenvalues, seed: int) -> np.ndarray:
    """scipy.stats.random_correlation on the trace-d rescaled eigenvalues,
    symmetrized, from np.random.default_rng(seed)."""
    lam = rescale_to_trace(eigenvalues, float(len(eigenvalues)))
    corr = random_correlation.rvs(lam, random_state=np.random.default_rng(seed))
    return (corr + corr.T) / 2.0


class QuadratureAccuracyError(NumericalError):
    """Adaptive quadrature hit its subdivision cap before reaching the tolerance.

    Carries the best available estimate and its error estimate so callers can
    decide whether to accept the degraded result.
    """

    def __init__(self, message, estimate, error_estimate):
        super().__init__(message)
        self.estimate = estimate
        self.error_estimate = error_estimate


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


def gauss_kronrod_marginal_tv(p_col: np.ndarray, q_col: np.ndarray,
                              tol: float = GAUSS_KRONROD_TV_TOL) -> float:
    """Total variation between KDEs of two univariate samples, |p - q|
    integrated by adaptive Gauss-Kronrod quadrature over the whole line: the
    union of the sample ranges expanded by four bandwidths, and
    GAUSS_KRONROD_TAIL_BANDWIDTHS larger bandwidths more on each side, past
    which both KDEs hold less than Phi(-16) of their mass.

    The range is first cut into panels one (smaller) bandwidth wide, each
    integrated to its share of tol. Started from the whole range, the error
    estimate can stay small while the first panels step over a narrow KDE or a
    thin excursion of p - q: a 400-point KDE beside one 1000 times wider
    integrates to about 0.5 instead of about 0.997.
    """
    bw_p = silverman_bandwidth(p_col)
    bw_q = silverman_bandwidth(q_col)
    kde_p = kde_marginal(p_col, bw_p)
    kde_q = kde_marginal(q_col, bw_q)
    tail = GAUSS_KRONROD_TAIL_BANDWIDTHS * max(bw_p, bw_q)
    lo = min(p_col.min() - 4.0 * bw_p, q_col.min() - 4.0 * bw_q) - tail
    hi = max(p_col.max() + 4.0 * bw_p, q_col.max() + 4.0 * bw_q) + tail
    n_panels = math.ceil((hi - lo) / min(bw_p, bw_q))
    edges = np.linspace(lo, hi, n_panels + 1)
    integral = math.fsum(
        gauss_kronrod(lambda x: np.abs(kde_p(x) - kde_q(x)), a, b, tol / n_panels)[0]
        for a, b in zip(edges[:-1], edges[1:]))
    return 0.5 * integral




def median_bandwidth_formula(q, seed: int = 0) -> float:
    """diagnostics.median_bandwidth through the full N x N squared-distance
    matrix, its upper-triangle index arrays and np.median of every distance."""
    points = q.points
    if points.shape[0] > MEDIAN_SUBSAMPLE_CAP:
        rng = np.random.default_rng((int(seed), points.shape[0]))
        idx = rng.choice(points.shape[0], size=MEDIAN_SUBSAMPLE_CAP, replace=False)
        points = points[np.sort(idx)]
    sq_norms = np.einsum("ij,ij->i", points, points)
    sq = sq_norms[:, None] + sq_norms[None, :] - 2.0 * (points @ points.T)
    np.maximum(sq, 0.0, out=sq)
    pair_sq = sq[np.triu_indices_from(sq, k=1)]
    return math.sqrt(float(np.median(np.sqrt(pair_sq))) / 2.0)


def _binned_kde_spectrum(samples, bandwidth, lo, spacing, first, last):
    """Real FFT of the KDE of a univariate sample on the grid
    lo + i spacing, i = first, ..., last: linear binning, a transform of at
    least twice the grid length and the Gaussian kernel's Fourier
    transform."""
    t = (samples - lo) / spacing
    j = np.floor(t).astype(np.intp)
    w = t - j
    j -= first
    n_fft = 1 << (2 * (last - first + 1) - 1).bit_length()
    counts = (np.bincount(j, weights=1.0 - w, minlength=n_fft)
              + np.bincount(j + 1, weights=w, minlength=n_fft))
    freq = np.fft.rfftfreq(n_fft, d=spacing)
    kernel = np.exp(-0.5 * (2.0 * math.pi * bandwidth * freq) ** 2)
    return np.fft.rfft(counts) * kernel / (samples.size * spacing)


def _kde_cdf(samples, bandwidth, x):
    return ndtr((x[:, None] - samples[None, :]) / bandwidth).mean(axis=1)


def _cut_tv(p_col, q_col, bw_p, bw_q, cuts):
    """Half the sum of |P - Q| over the intervals between consecutive cuts,
    P and Q the KDE distribution functions."""
    cdf_diff = _kde_cdf(p_col, bw_p, cuts) - _kde_cdf(q_col, bw_q, cuts)
    return 0.5 * math.fsum(np.abs(np.diff(cdf_diff)))


def _grid_ends(p_col, q_col, bw_p, bw_q):
    """lo and hi: the union of both sample ranges, each widened by four
    bandwidths."""
    lo = min(p_col.min() - _KDE_TAIL_BANDWIDTHS * bw_p, q_col.min() - _KDE_TAIL_BANDWIDTHS * bw_q)
    hi = max(p_col.max() + _KDE_TAIL_BANDWIDTHS * bw_p, q_col.max() + _KDE_TAIL_BANDWIDTHS * bw_q)
    return lo, hi


def union_grid_marginal_tv(p_col: np.ndarray, q_col: np.ndarray, bw_p: float,
                           bw_q: float) -> float:
    """The binned-KDE total variation of one coordinate as diagnostics.mmtv
    computed it before per-set grids: both KDEs on one linspace grid from lo
    to hi at _GRID_POINTS_PER_BANDWIDTH points per smaller bandwidth and at
    most UNION_GRID_MAX_POINTS points; cuts at -inf, at the sign changes of
    the difference and at +inf."""
    lo, hi = _grid_ends(p_col, q_col, bw_p, bw_q)
    bw_min = min(bw_p, bw_q)
    steps = min(math.ceil((hi - lo) * _GRID_POINTS_PER_BANDWIDTH / bw_min), UNION_GRID_MAX_POINTS)
    grid, dx = np.linspace(lo, hi, steps + 1, retstep=True)
    n_fft = 1 << (2 * grid.size - 1).bit_length()
    diff = np.fft.irfft(_binned_kde_spectrum(p_col, bw_p, lo, dx, 0, steps)
                        - _binned_kde_spectrum(q_col, bw_q, lo, dx, 0, steps), n_fft)[:grid.size]
    signs = np.sign(diff)
    signs[np.abs(diff) <= _SIGN_FLOOR / (bw_min * math.sqrt(2.0 * math.pi))] = 0.0
    nonzero = np.flatnonzero(signs)
    flips = signs[nonzero[1:]] != signs[nonzero[:-1]]
    left, right = nonzero[:-1][flips], nonzero[1:][flips]
    d_left, d_right = diff[left], diff[right]
    crossings = grid[left] + (grid[right] - grid[left]) * (d_left / (d_left - d_right))
    return _cut_tv(p_col, q_col, bw_p, bw_q, np.concatenate(([-math.inf], crossings, [math.inf])))


def _own_grid(col, bw, bw_min, lo, hi, dx):
    """k, first and last of the grid lo + i dx 2^k, i = first, ..., last, on
    which diagnostics.mmtv bins the KDE of col: 2^k <= bw / bw_min < 2^(k+1),
    over the reach clipped to [lo, hi], one point more on the left and two
    on the right."""
    k = math.frexp(bw / bw_min)[1] - 1
    spacing = math.ldexp(dx, k)
    first = math.floor((max(col.min() - _KDE_REACH_BANDWIDTHS * bw, lo) - lo) / spacing) - 1
    last = math.floor((min(col.max() + _KDE_REACH_BANDWIDTHS * bw, hi) - lo) / spacing) + 2
    return k, first, last


def _lagrange(values, k, first, j):
    """Values on the grid points i = first, ... at the search points
    j / 2^k, by 4-point Lagrange interpolation through i - 1, ..., i + 2,
    i = floor(j / 2^k)."""
    t = (j & ((1 << k) - 1)) / (1 << k)
    i = (j >> k) - first
    return (-t * (t - 1.0) * (t - 2.0) / 6.0 * values[i - 1]
            + (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0 * values[i]
            + -(t + 1.0) * t * (t - 2.0) / 2.0 * values[i + 1]
            + (t + 1.0) * t * (t - 1.0) / 6.0 * values[i + 2])


def _window_kde(col, bw, bw_min, lo, hi, dx, j):
    """The KDE of col at the search points lo + j dx, from its own grid:
    read off where k = 0, else interpolated."""
    k, first, last = _own_grid(col, bw, bw_min, lo, hi, dx)
    n_fft = 1 << (2 * (last - first + 1) - 1).bit_length()
    values = np.fft.irfft(_binned_kde_spectrum(col, bw, lo, math.ldexp(dx, k), first, last), n_fft)
    return values[j - first] if k == 0 else _lagrange(values, k, first, j)


def window_marginal_tv(p_col: np.ndarray, q_col: np.ndarray, bw_p: float, bw_q: float) -> float:
    """The binned-KDE total variation of one coordinate as diagnostics.mmtv
    computes it, with 1-d transforms: sign changes searched at spacing
    smaller bandwidth / _GRID_POINTS_PER_BANDWIDTH from lo, in the window
    where both KDEs reach past the sign floor; cuts at -inf, the crossings,
    +inf, and at a window end inside (lo, hi) where the sign beyond it (that of
    the one KDE that reaches there) differs from the nearest kept sign
    inside or no point inside is kept (the ends swapped when the window is
    empty)."""
    lo, hi = _grid_ends(p_col, q_col, bw_p, bw_q)
    p_lo, p_hi = p_col.min() - _KDE_REACH_BANDWIDTHS * bw_p, p_col.max() + _KDE_REACH_BANDWIDTHS * bw_p
    q_lo, q_hi = q_col.min() - _KDE_REACH_BANDWIDTHS * bw_q, q_col.max() + _KDE_REACH_BANDWIDTHS * bw_q
    w_lo, w_hi = max(p_lo, q_lo, lo), min(p_hi, q_hi, hi)
    beyond_lo = np.sign(q_lo - p_lo) * (w_lo > lo)
    beyond_hi = np.sign(p_hi - q_hi) * (w_hi < hi)
    inside_lo = inside_hi = 0.0
    bw_min = min(bw_p, bw_q)
    dx = bw_min / _GRID_POINTS_PER_BANDWIDTH
    crossings = []
    j = np.arange(math.ceil((w_lo - lo) / dx), math.floor((w_hi - lo) / dx) + 1)
    if j.size:
        diff = (_window_kde(p_col, bw_p, bw_min, lo, hi, dx, j)
                - _window_kde(q_col, bw_q, bw_min, lo, hi, dx, j))
        kept = np.abs(diff) > _SIGN_FLOOR / (bw_min * math.sqrt(2.0 * math.pi))
        at, values = j[kept], diff[kept]
        if values.size:
            inside_lo, inside_hi = np.sign(values[0]), np.sign(values[-1])
        flips = (values[:-1] > 0) != (values[1:] > 0)
        d_left, d_right = values[:-1][flips], values[1:][flips]
        g_left, g_right = at[:-1][flips] * dx + lo, at[1:][flips] * dx + lo
        crossings = list(g_left + (g_right - g_left) * (d_left / (d_left - d_right)))
    cut_lo, cut_hi = beyond_lo not in (0, inside_lo), beyond_hi not in (0, inside_hi)
    w_lo, w_hi = min(w_lo, w_hi), max(w_lo, w_hi)
    cuts = [-math.inf] + [w_lo] * cut_lo + crossings + [w_hi] * cut_hi + [math.inf]
    return _cut_tv(p_col, q_col, bw_p, bw_q, np.array(cuts))


def per_coordinate_mmtv(p, q) -> float:
    """mmtv(p, q) for two SampleSets, one window_marginal_tv call per coordinate."""
    bw_p, bw_q = silverman_bandwidth(p.points), silverman_bandwidth(q.points)
    return math.fsum(window_marginal_tv(p.points[:, i], q.points[:, i], bw_p[i], bw_q[i])
                     for i in range(p.dim)) / p.dim
