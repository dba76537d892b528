"""Chain samplers built on theta-method discretization of Langevin dynamics.

One step from x with noise z and step size h solves

    x_next = x - (h/2) [theta * grad f(x_next) + (1-theta) * grad f(x)] + sqrt(h) z.

theta = 0 is the explicit (forward Euler) update, computable in closed form;
theta > 0 makes the update implicit. For Gaussian targets every step is a
closed-form linear map; otherwise each step is a strongly convex subproblem
solved to a gradient-norm tolerance by the optim module. The transition kernel
density of the implicit update is available in closed form for diagnostics.
"""

import functools
import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .optim import SolveProblem, SolveResult, newton_solve
from .targets import GaussianTarget, TargetDensity, _check_point

DIVERGENCE_THRESHOLD = 1e12

# Rows per noise block. Part of the noise contract: changing it changes every
# draw, since the normal sampler consumes a variable number of words per draw.
NOISE_BLOCK = 256

LOG_2PI = float(np.log(2.0 * np.pi))


class StabilityWarning(UserWarning):
    """Step size is in the regime where the explicit component can be transient."""


def _check_theta_h(theta: float, h: float) -> None:
    if not (0.0 <= theta <= 1.0):
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    if not 0.0 < h < math.inf:
        raise ValueError(f"step size must be {'finite' if h > 0 else 'positive'}, got {h}")


@dataclass(frozen=True)
class SamplerConfig:
    """Chain parameters: blend theta, step size h, subproblem tolerance, length.

    theta in [0, 1]; finite h > 0 in diffusion time units; eps >= 0 is the
    gradient-norm tolerance of the implicit subproblem; n_steps >= 0; the seed
    makes the noise sequence (and hence the chain) fully deterministic.
    """

    theta: float
    h: float
    eps: float = 1e-9
    n_steps: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_theta_h(self.theta, self.h)
        if self.eps < 0:
            raise ValueError(f"subproblem tolerance must be >= 0, got {self.eps}")
        if self.n_steps < 0:
            raise ValueError(f"number of steps must be >= 0, got {self.n_steps}")


class NoiseStream:
    """Standard normal vectors indexed by step, deterministic in (seed, index).

    Every chain of one experiment that shares a seed consumes identical noise
    at identical step indices (common random numbers), regardless of the
    (theta, h) point it runs at. The optional stream id separates independent
    uses (e.g. a reference chain) under the same seed. Step k is row
    k % NOISE_BLOCK of Philox block k // NOISE_BLOCK, keyed by (seed, stream).
    """

    def __init__(self, seed: int, dim: int, stream: int = 0):
        self.seed = int(seed) % (1 << 64)
        self.dim = int(dim)
        self.stream = int(stream)

    def block(self, b: int) -> np.ndarray:
        """Read-only (NOISE_BLOCK, dim) noise of steps b*NOISE_BLOCK onward."""
        # Philox at counter c + 1 is its stream at c shifted by four draws, so
        # blocks start 2^128 apart, beyond any block's own advance.
        bitgen = np.random.Philox(key=[self.seed, self.stream], counter=int(b) << 128)
        draws = np.random.Generator(bitgen).standard_normal((NOISE_BLOCK, self.dim))
        draws.flags.writeable = False
        return draws


@dataclass
class Trajectory:
    """Chain output: samples plus per-step inner-solver statistics.

    Row 0 of samples is the initial point. If the chain diverged (an iterate
    norm exceeded the divergence threshold), it is truncated at the offending
    iterate and flagged.
    """

    samples: np.ndarray
    solver_iterations: np.ndarray
    grad_norms: np.ndarray
    diverged: bool = False

    @property
    def n_steps(self) -> int:
        return self.samples.shape[0] - 1


def _check_step(target: TargetDensity, x, z, theta: float, h: float):
    _check_theta_h(theta, h)
    return _check_point(x, target.dim), _check_point(z, target.dim)


# Step kernels, built once per (target, theta, h[, eps]) from validated
# parameters: each maps (x, z) -> (x_next, SolveResult | None).
def _explicit_kernel(target: TargetDensity, theta: float, h: float):
    """x, z -> x - (h(1-theta)/2) grad f(x) + sqrt(h) z."""
    drift, sqrt_h = 0.5 * h * (1.0 - theta), np.sqrt(h)
    return lambda x, z: (x - drift * target._gradient(x) + sqrt_h * z, None)


def _gaussian_coefficients(target: GaussianTarget, theta: float, h: float):
    """(a, b) of the closed-form theta step in the eigenbasis of Q: each
    coordinate of y = (x - mean) V advances as y <- a y + b (z V)."""
    lam = target.eigenvalues
    denom = 1.0 + 0.5 * h * theta * lam
    return (1.0 - 0.5 * h * (1.0 - theta) * lam) / denom, np.sqrt(h) / denom


@functools.lru_cache(maxsize=8)
def _gaussian_kernel(target_ref: weakref.ref, theta: float, h: float):
    """Closed-form theta step (x, z) -> step_x (x - mean) + step_z z + mean.

    For Q = V diag(lam) V', step_x = V diag(a) V' and step_z = V diag(b) V'.
    The memo is keyed by a weak reference: it neither keeps targets alive
    nor writes to them.
    """
    target = target_ref()
    vecs, mean = target.eigenvectors, target.mean
    a, b = _gaussian_coefficients(target, theta, h)
    step_x, step_z = (vecs * a) @ vecs.T, (vecs * b) @ vecs.T
    return lambda x, z: (step_x @ (x - mean) + step_z @ z + mean, None)


def _newton_kernel(target: TargetDensity, theta: float, h: float, eps: float):
    """Inexact implicit step: Newton on the subproblem with proximity centre
    the explicit predictor v, started at the current point x, to gradient
    norm <= eps.

    At large h the predictor is the unstable explicit step, while x is never
    far from the subproblem's solution, so x is the better start. The target
    is evaluated at x once: its shared work and gradient give both v and the
    first Newton gradient and Hessian. Later points share the target's work
    between gradient and Hessian through the same one-entry memo, keyed by
    identity; newton_solve never copies or edits a point.
    """
    if eps <= 0.0:
        raise ValueError(f"inexact implicit step requires eps > 0, got {eps}")
    drift, sqrt_h = 0.5 * h * (1.0 - theta), np.sqrt(h)
    scale, d = 2.0 / h, target.dim
    v = point = shared = grad = None

    def gradient(u):
        nonlocal point, shared, grad
        if u is not point:
            point, shared = u, target._shared(u)
            grad = target._gradient(u, shared)
        return theta * grad + scale * (u - v)

    def hessian(u):
        hess = theta * target._hessian(u, shared if u is point else None)
        hess.flat[:: d + 1] += scale
        return hess

    def step(x, z):
        nonlocal v, point, shared, grad
        point, shared = x, target._shared(x)
        grad = target._gradient(x, shared)
        v = x - drift * grad + sqrt_h * z
        result = newton_solve(SolveProblem(gradient=gradient, hessian=hessian, x0=x, tol=eps))
        return result.x, result

    return step


def ula_step(target: TargetDensity, x, z, h: float) -> np.ndarray:
    """Explicit update x - (h/2) grad f(x) + sqrt(h) z."""
    return explicit_predictor(target, x, z, 0.0, h)


def explicit_predictor(target: TargetDensity, x, z, theta: float, h: float) -> np.ndarray:
    """The vector v = x - (h(1-theta)/2) grad f(x) + sqrt(h) z.

    This is the proximity center of the implicit subproblem and the exact
    update when theta = 0. The inner solver starts at x, not at v.
    """
    x, z = _check_step(target, x, z, theta, h)
    return _explicit_kernel(target, theta, h)(x, z)[0]


def ila_step_gaussian(target: GaussianTarget, x, z, theta: float, h: float) -> np.ndarray:
    """Exact implicit update for a Gaussian target.

    Solves (I + (h theta/2) Q) (x_next - mean) =
    (I - (h(1-theta)/2) Q)(x - mean) + sqrt(h) z in closed form, through step
    operators built from the target's eigendecomposition of Q.
    """
    if not isinstance(target, GaussianTarget):
        raise TypeError("closed-form step requires a GaussianTarget")
    x, z = _check_step(target, x, z, theta, h)
    return _gaussian_kernel(weakref.ref(target), float(theta), float(h))(x, z)[0]


def iila_step(target: TargetDensity, x, z, config: SamplerConfig) -> tuple[np.ndarray, SolveResult]:
    """One inexact implicit step: solve the subproblem to gradient norm <= eps.

    Returns the accepted point and the inner-solver statistics. The subproblem
    has curvature bounds [theta*m + 2/h, theta*M + 2/h] and its proximity
    centre is the explicit predictor; the solver starts at x.
    """
    if config.theta <= 0.0:
        raise ValueError("inexact implicit step requires theta > 0; use ula_step")
    x, z = _check_step(target, x, z, config.theta, config.h)
    return _newton_kernel(target, config.theta, config.h, config.eps)(x, z)


def transition_log_density(target: TargetDensity, y, x, theta: float, h: float) -> float:
    """Log density of one implicit step landing at y, started from x.

    log |det(I + (h theta/2) hess f(y))| plus the log density of
    N(x - (h(1-theta)/2) grad f(x), h I) evaluated at y + (h theta/2) grad f(y).
    The determinant is computed by Cholesky, so an indefinite matrix raises.
    """
    y, x = _check_step(target, y, x, theta, h)
    d = target.dim
    jac = np.eye(d) + 0.5 * h * theta * target.hessian(y)
    try:
        chol = np.linalg.cholesky(jac)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "transition density Jacobian is not positive definite"
        ) from exc
    log_det = 2.0 * float(np.log(np.diag(chol)).sum())
    mean = explicit_predictor(target, x, np.zeros(d), theta, h)
    residual = y + 0.5 * h * theta * target.gradient(y) - mean
    log_gauss = -0.5 * d * (LOG_2PI + np.log(h)) - float(residual @ residual) / (2.0 * h)
    return log_det + log_gauss


def stability_bound(theta: float, m: float, big_m: float) -> float:
    """Largest step size with guaranteed geometric ergodicity for theta < 1/2.

    For theta >= 1/2 every step size is stable and +inf is returned.
    """
    if theta >= 0.5:
        return np.inf
    return 4.0 * m / (big_m**2 * (1.0 - 2.0 * theta))


def run_chain(target: TargetDensity, x0, config: SamplerConfig,
              noise: NoiseStream | None = None) -> Trajectory:
    """Run a chain of config.n_steps transitions from x0.

    Dispatch: the closed-form update, run in the eigenbasis of Q, for Gaussian
    targets; explicit update when theta = 0; otherwise the inexact implicit
    step (requires eps > 0). Iterates whose norm exceeds the divergence
    threshold truncate the chain and set the diverged flag, which is the
    expected outcome for the explicit method at large step sizes. A failed
    inner solve raises NumericalError naming (theta, h) and the step, instead
    of contaminating the trajectory.
    """
    x0 = _check_point(x0, target.dim)
    m, big_m = target.convexity_bounds()
    bound = stability_bound(config.theta, m, big_m)
    if config.h >= bound:
        warnings.warn(
            f"theta={config.theta} < 1/2 with h={config.h} >= {bound:.6g}: "
            "outside the guaranteed-stability regime; the chain may diverge",
            StabilityWarning, stacklevel=2,
        )
    if noise is None:
        noise = NoiseStream(config.seed, target.dim)
    if noise.dim != target.dim:
        raise ValueError(f"noise dimension {noise.dim} != target dimension {target.dim}")

    n = config.n_steps
    samples = np.empty((n + 1, target.dim))
    samples[0] = x0
    iterations = np.zeros(n, dtype=int)
    grad_norms = np.zeros(n)
    if isinstance(target, GaussianTarget):
        kept = _gaussian_chain(target, config.theta, config.h, noise, samples)
    else:
        # The kernels skip per-step input validation: iterates are vetted by
        # the divergence check below, and the noise stream only emits finite
        # vectors.
        if config.theta == 0.0:
            step = _explicit_kernel(target, 0.0, config.h)
        else:
            step = _newton_kernel(target, config.theta, config.h, config.eps)
        where = f"theta={config.theta}, h={config.h}"
        x, kept = x0, n
        for k in range(n):
            if k % NOISE_BLOCK == 0:
                draws = noise.block(k // NOISE_BLOCK)
            try:
                x, stats = step(x, draws[k % NOISE_BLOCK])
            except NumericalError as exc:
                raise NumericalError(f"inner solver failed at {where}, step {k}: {exc}") from exc
            if stats is not None:
                if not stats.converged:
                    raise NumericalError(
                        f"inner solver failed at {where}, step {k}: "
                        f"grad norm {stats.grad_norm:.3e} > eps {config.eps:.3e} "
                        f"after {stats.iterations} iterations; chain aborted"
                    )
                iterations[k] = stats.iterations
                grad_norms[k] = stats.grad_norm
            samples[k + 1] = x
            if _diverged(x):
                kept = k + 1
                break
    return Trajectory(samples=samples[: kept + 1], solver_iterations=iterations[:kept],
                      grad_norms=grad_norms[:kept], diverged=kept > 0 and _diverged(samples[kept]))


def _diverged(x) -> bool:
    # One dot product: true for NaN and inf as well as for large norms.
    return not x @ x <= DIVERGENCE_THRESHOLD**2


def _gaussian_chain(target: GaussianTarget, theta: float, h: float, noise: NoiseStream,
                    samples: np.ndarray) -> int:
    """Fill samples[1:] with the closed-form chain from samples[0] and return
    the steps kept: up to and including the first diverged row.

    The chain runs in the eigenbasis of Q, one noise block at a time: with
    y = (x - mean) V and w = b (z V), each step is y <- a y + w, and a block
    maps back to x with one matmul.
    """
    a, b = _gaussian_coefficients(target, theta, h)
    vecs, mean = target.eigenvectors, target.mean
    n = samples.shape[0] - 1
    y = (samples[0] - mean) @ vecs
    # A diverging chain may overflow to inf and nan; the row check sees both.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n, NOISE_BLOCK):
            rows = min(NOISE_BLOCK, n - start)
            w = (noise.block(start // NOISE_BLOCK)[:rows] @ vecs) * b
            w[0] += a * y
            for k in range(1, rows):  # w[k] becomes y after step start + k
                w[k] += a * w[k - 1]
            y = w[rows - 1]
            block = samples[start + 1: start + 1 + rows]
            np.matmul(w, vecs.T, out=block)
            block += mean
            bad = np.flatnonzero(~(np.einsum("ij,ij->i", block, block)
                                   <= DIVERGENCE_THRESHOLD**2))
            if bad.size:
                return start + int(bad[0]) + 1
    return n
