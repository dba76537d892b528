"""Closed-form quantities governing theta-method Langevin chains.

Contraction rates and non-asymptotic Wasserstein bounds for strongly
log-concave targets with curvature bounds (m, M), the large-step limit map and
its central-limit covariance, the exact Gaussian stationary covariance, and a
step-size heuristic matching the proposal covariance to the curvature at the
mode.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, OutOfRegimeError
from .optim import SolveProblem, newton_solve
from .samplers import _check_theta_h
from .targets import TargetDensity, mode

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0

THETA_MAP_GRAD_TOL = 1e-10


def _check_curvature(m: float, big_m: float):
    if not (0.0 < m <= big_m):
        raise ValueError(f"need 0 < m <= M, got m={m}, M={big_m}")


@dataclass(frozen=True)
class ContractionParams:
    """Per-step contraction rate and bias constant of the Wasserstein bound.

    rate is the geometric contraction factor (strictly below one whenever
    theta >= 1/2); constant scales the inexactness-plus-discretization bias;
    regime records which of the two step-size regimes applies; kappa_h is the
    subproblem condition number (always >= 1, equal to 1 when theta = 0 or
    m = M).
    """

    rate: float
    constant: float
    regime: str  # "case-i" or "case-ii"
    kappa_h: float


def condition_number_kappa(theta: float, h: float, m: float, big_m: float) -> float:
    """Subproblem condition number (1 + theta*h*M/2) / (1 + theta*h*m/2)."""
    _check_curvature(m, big_m)
    _check_theta_h(theta, h)
    return (1.0 + 0.5 * theta * h * big_m) / (1.0 + 0.5 * theta * h * m)


def h_star(theta: float, m: float, big_m: float) -> float:
    """Step size at which the two contraction-rate formulas cross.

    Unique positive root of h(1-2 theta)(m+M)/2 + h^2 theta(1-theta) m M / 2 = 2.
    Defined for theta strictly inside (0, 1); at theta = 1 the first regime
    applies for every h, and the theta -> 0 limit is 4/(M+m).
    """
    _check_curvature(m, big_m)
    if not (0.0 < theta < 1.0):
        raise ValueError(f"switch point defined only for theta in (0, 1), got {theta}")
    half = theta - 0.5
    s = big_m + m
    p = theta * (1.0 - theta) * m * big_m
    return (half * s + np.sqrt(half**2 * s**2 + 4.0 * p)) / p


def _switch_point(theta: float, m: float, big_m: float) -> float:
    if theta == 1.0:
        return np.inf
    if theta == 0.0:
        return 4.0 / (big_m + m)  # analytic limit of the switch point
    return h_star(theta, m, big_m)


def contraction(theta: float, h: float, m: float, big_m: float) -> ContractionParams:
    """Contraction rate and bias constant for given (theta, h, m, M).

    For theta < 1/2 the second regime is only valid while
    h < 4/(M(1 - 2 theta)); beyond that no geometric rate is available and an
    OutOfRegimeError names the bound. The two regime formulas agree at the
    switch point by construction.
    """
    _check_curvature(m, big_m)
    _check_theta_h(theta, h)
    kappa = condition_number_kappa(theta, h, m, big_m)
    switch = _switch_point(theta, m, big_m)
    if h <= switch or theta == 1.0:
        rate = (1.0 - 0.5 * h * (1.0 - theta) * m) / (1.0 + 0.5 * h * theta * m)
        constant = kappa / (theta * m) if theta > 0 else np.inf
        return ContractionParams(rate=rate, constant=constant,
                                 regime="case-i", kappa_h=kappa)
    if theta < 0.5:
        limit = 4.0 / (big_m * (1.0 - 2.0 * theta))
        if h >= limit:
            raise OutOfRegimeError(
                f"theta={theta} < 1/2 requires h < 4/(M(1-2 theta)) = {limit:.6g}, "
                f"got h={h}"
            )
    rate = (0.5 * h * (1.0 - theta) * big_m - 1.0) / (0.5 * h * theta * big_m + 1.0)
    constant = 0.5 * kappa**2 * h / (2.0 + 0.5 * h * (2.0 * theta - 1.0) * big_m)
    return ContractionParams(rate=rate, constant=constant,
                             regime="case-ii", kappa_h=kappa)


def w2_bound(t: int, theta: float, h: float, eps: float, m: float, big_m: float,
             d: int, w2_initial: float) -> float:
    """Non-asymptotic 2-Wasserstein bound after t steps.

    kappa_h * rate^t * w2_initial
    + constant * (eps + min(2 M sqrt(h d) (2 + sqrt(h M)), 4 sqrt(M d))).
    """
    if t < 0:
        raise ValueError(f"step count must be >= 0, got {t}")
    params = contraction(theta, h, m, big_m)
    bias = min(2.0 * big_m * np.sqrt(h * d) * (2.0 + np.sqrt(h * big_m)),
               4.0 * np.sqrt(big_m * d))
    return params.kappa_h * params.rate**t * w2_initial + params.constant * (eps + bias)


def theta_map(target: TargetDensity, x, theta: float) -> np.ndarray:
    """Large-step limit map: the point u with grad f(u) = (1 - 1/theta) grad f(x).

    Unique under strong convexity; found by Newton to gradient norm 1e-10,
    restarting from the mode if the first attempt stalls. theta = 1 returns
    the mode; theta = 1/2 reflects through the mean for Gaussian targets.
    """
    if not (0.0 < theta <= 1.0):
        raise ValueError(f"theta must lie in (0, 1], got {theta}")
    x = np.asarray(x, dtype=float)
    rhs = (1.0 - 1.0 / theta) * target.gradient(x)

    def grad(u):
        return target.gradient(u) - rhs

    for start in (x, None):
        if start is None:
            start = mode(target)
        problem = SolveProblem(gradient=grad, hessian=target.hessian, x0=start,
                               tol=THETA_MAP_GRAD_TOL)
        result = newton_solve(problem)
        if result.converged:
            return result.x
    raise NumericalError(
        f"limit-map solve did not converge: grad norm {result.grad_norm:.3e}"
    )


def asymptotic_covariance(target: TargetDensity, x, theta: float) -> np.ndarray:
    """Large-step covariance of one rescaled step: (4/theta^2) H^{-2}.

    H is the target Hessian at the limit map of x. The result is symmetrized
    and positive definite whenever H is.
    """
    u = theta_map(target, x, theta)
    hess = target.hessian(u)
    inv = np.linalg.solve(hess, np.eye(target.dim))
    cov = (4.0 / theta**2) * (inv @ inv)
    return (cov + cov.T) / 2.0


def gaussian_stationary_covariance(cov: np.ndarray, theta: float, h: float) -> np.ndarray:
    """Stationary covariance of the chain on a Gaussian target with covariance cov.

    Sigma (I + (h/2)(theta - 1/2) Sigma^{-1})^{-1}, symmetrized. Exactly Sigma
    for theta = 1/2 at any step size. For theta < 1/2 the adjustment matrix
    must stay positive definite, otherwise no stationary law exists at this h.
    """
    cov = np.asarray(cov, dtype=float)
    eigvals, eigvecs = np.linalg.eigh((cov + cov.T) / 2.0)
    if eigvals[0] <= 0:
        raise ValueError("covariance must be positive definite")
    if theta == 0.5:
        return (cov + cov.T) / 2.0
    shift = 0.5 * h * (theta - 0.5)
    adjusted = eigvals + shift  # eigenvalues of Sigma + (h/2)(theta-1/2) I
    if np.any(adjusted <= 0):
        raise OutOfRegimeError(
            f"no stationary covariance: I + (h/2)(theta-1/2) Sigma^{{-1}} is "
            f"indefinite for theta={theta}, h={h}"
        )
    # Sigma (I + c Sigma^{-1})^{-1} = V diag(lam^2/(lam + c)) V'
    out = (eigvecs * (eigvals**2 / adjusted)) @ eigvecs.T
    return (out + out.T) / 2.0


def heuristic_objective(h: float, eigenvalues: np.ndarray, theta: float) -> float:
    """Squared mismatch between the step's proposal covariance spectrum and
    the inverse curvature: sum_k [h (1 + h theta lam_k / 2)^{-2} - 1/lam_k]^2."""
    lam = np.asarray(eigenvalues, dtype=float)
    resid = h / (1.0 + 0.5 * h * theta * lam) ** 2 - 1.0 / lam
    return float(resid @ resid)


def _golden_section(fun, lo: float, hi: float, tol: float) -> float:
    """Minimize a unimodal function on [lo, hi] to bracket width tol."""
    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = fun(x1), fun(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = fun(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = fun(x2)
    return 0.5 * (a + b)


def step_size_heuristic(eigenvalues, theta: float) -> float:
    """Step size minimizing the proposal/curvature mismatch over h.

    Golden-section search on log10 h over [-8, 8], refined to relative
    tolerance 1e-8 in h; the bracket doubles outward (at most five times) if
    the minimizer lands on an endpoint. For a flat spectrum at theta = 1/2 the
    minimizer is exactly 4/M with zero residual.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    if lam.ndim != 1 or lam.size == 0:
        raise ValueError("eigenvalues must be a non-empty 1-d vector")
    if np.any(lam <= 0) or not np.all(np.isfinite(lam)):
        raise ValueError("eigenvalues must be finite and strictly positive")
    if not theta > 0:
        raise ValueError("step-size heuristic requires theta > 0 (the explicit method "
                         f"has no implicit damping), got {theta}")

    def in_log(t):
        return heuristic_objective(10.0**t, lam, theta)

    lo, hi = -8.0, 8.0
    t_tol = 1e-8 / np.log(10.0)  # relative tolerance in h
    for _ in range(6):
        t_best = _golden_section(in_log, lo, hi, t_tol)
        width = hi - lo
        if t_best - lo < 1e-6 * width:
            lo, hi = lo - width, hi
        elif hi - t_best < 1e-6 * width:
            lo, hi = lo, hi + width
        else:
            return float(10.0**t_best)
    raise NumericalError(
        "step-size search failed: minimizer stayed on the bracket endpoint "
        "after five doublings"
    )
