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
    if not h > 0:
        raise ValueError(f"step size must be positive, got {h}")
    if not np.isfinite(h):
        raise ValueError(f"step size must be finite, got {h}")


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
        self._memo = (None, None)

    def block(self, b: int) -> np.ndarray:
        """Read-only (NOISE_BLOCK, dim) noise of steps b*NOISE_BLOCK onward."""
        # Philox at counter c + 1 is its stream at c shifted by four draws, so
        # blocks start 2^128 apart, beyond any block's own advance.
        bitgen = np.random.Philox(key=[self.seed, self.stream], counter=int(b) << 128)
        draws = np.random.Generator(bitgen).standard_normal((NOISE_BLOCK, self.dim))
        draws.flags.writeable = False
        return draws

    def vector(self, k: int) -> np.ndarray:
        """Read-only noise of step k, through a one-block memo."""
        b, row = divmod(int(k), NOISE_BLOCK)
        index, draws = self._memo
        if index != b:
            draws = self.block(b)
            self._memo = (b, draws)
        return draws[row]


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


@functools.lru_cache(maxsize=8)
def _gaussian_kernel(target_ref: weakref.ref, theta: float, h: float):
    """Closed-form theta step (x, z) -> step_x (x - mean) + step_z z + mean.

    For Q = V diag(lam) V', step_x = V diag(a) V' and step_z = V diag(b) V'.
    The memo is keyed by a weak reference: it neither keeps targets alive
    nor writes to them.
    """
    target = target_ref()
    lam, vecs, mean = target.eigenvalues, target.eigenvectors, target.mean
    denom = 1.0 + 0.5 * h * theta * lam
    a = (1.0 - 0.5 * h * (1.0 - theta) * lam) / denom
    step_x, step_z = (vecs * a) @ vecs.T, (vecs * (np.sqrt(h) / denom)) @ vecs.T
    return lambda x, z: (step_x @ (x - mean) + step_z @ z + mean, None)


def _subproblem_gradient(target: TargetDensity, u, v, theta: float, scale: float, shared=None):
    return theta * target._gradient(u, shared) + scale * (u - v)


def _newton_kernel(target: TargetDensity, theta: float, h: float, eps: float):
    """Inexact implicit step: Newton on the subproblem, warm started at the
    explicit predictor v, to gradient norm <= eps.

    The gradient and Hessian at one point share the target's work through a
    one-entry memo keyed by identity; newton_solve never edits a point in place.
    """
    if eps <= 0.0:
        raise ValueError(f"inexact implicit step requires eps > 0, got {eps}")
    predict = _explicit_kernel(target, theta, h)
    scale, d = 2.0 / h, target.dim
    v = point = shared = None

    def gradient(u):
        nonlocal point, shared
        point, shared = u, target._shared(u)
        return _subproblem_gradient(target, u, v, theta, scale, shared)

    def hessian(u):
        hess = theta * target._hessian(u, shared if u is point else None)
        hess.flat[:: d + 1] += scale
        return hess

    def step(x, z):
        nonlocal v
        v = predict(x, z)[0]
        result = newton_solve(SolveProblem(gradient=gradient, hessian=hessian, x0=v, tol=eps))
        return result.x, result

    return step


def ula_step(target: TargetDensity, x, z, h: float) -> np.ndarray:
    """Explicit update x - (h/2) grad f(x) + sqrt(h) z."""
    return explicit_predictor(target, x, z, 0.0, h)


def subproblem_gradient(target: TargetDensity, u, v, theta: float, h: float) -> np.ndarray:
    """Gradient of the implicit-step objective: theta*grad f(u) + (2/h)(u - v)."""
    u, v = _check_step(target, u, v, theta, h)
    return _subproblem_gradient(target, u, v, theta, 2.0 / h)


def explicit_predictor(target: TargetDensity, x, z, theta: float, h: float) -> np.ndarray:
    """The vector v = x - (h(1-theta)/2) grad f(x) + sqrt(h) z.

    This is the proximity center of the implicit subproblem, the exact update
    when theta = 0, and the warm start for the inner solver.
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
    has curvature bounds [theta*m + 2/h, theta*M + 2/h], and the solver warm
    starts at the explicit predictor.
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

    Dispatch: closed-form update for Gaussian targets; explicit update when
    theta = 0; otherwise the inexact implicit step (requires eps > 0).
    Iterates whose norm exceeds the divergence threshold truncate the chain
    and set the diverged flag, which is the expected outcome for the explicit
    method at large step sizes. A capped-out inner solve raises instead of
    contaminating the trajectory.
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

    # The kernels skip per-step input validation: iterates are vetted by the
    # divergence check below, and the noise stream only emits finite vectors.
    if isinstance(target, GaussianTarget):
        step = _gaussian_kernel(weakref.ref(target), float(config.theta), float(config.h))
    elif config.theta == 0.0:
        step = _explicit_kernel(target, 0.0, config.h)
    else:
        step = _newton_kernel(target, config.theta, config.h, config.eps)

    n = config.n_steps
    samples = np.empty((n + 1, target.dim))
    samples[0] = x0
    iterations = np.zeros(n, dtype=int)
    grad_norms = np.zeros(n)
    diverged = False
    x = x0
    for k in range(n):
        if k % NOISE_BLOCK == 0:
            draws = noise.block(k // NOISE_BLOCK)
        x, stats = step(x, draws[k % NOISE_BLOCK])
        if stats is not None:
            if not stats.converged:
                raise NumericalError(
                    f"inner solver failed at theta={config.theta}, h={config.h}, step {k}: "
                    f"grad norm {stats.grad_norm:.3e} > eps {config.eps:.3e} "
                    f"after {stats.iterations} iterations; chain aborted"
                )
            iterations[k] = stats.iterations
            grad_norms[k] = stats.grad_norm
        samples[k + 1] = x
        # One dot product: false for NaN and inf as well as for large norms.
        if not x @ x <= DIVERGENCE_THRESHOLD**2:
            diverged = True
            break
    if diverged:
        kept = k + 1
        samples, iterations, grad_norms = samples[: kept + 1], iterations[:kept], grad_norms[:kept]
    return Trajectory(samples=samples, solver_iterations=iterations,
                      grad_norms=grad_norms, diverged=diverged)
