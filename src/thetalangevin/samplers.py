"""Chain samplers built on theta-method discretization of Langevin dynamics.

One step from x with noise z and step size h solves

    x_next = x - (h/2) [theta * grad f(x_next) + (1-theta) * grad f(x)] + sqrt(h) z.

theta = 0 is the explicit (forward Euler) update, computable in closed form;
theta > 0 makes the update implicit. For Gaussian targets every step is a
closed-form linear map; otherwise each step is a strongly convex subproblem
solved to a gradient-norm tolerance by optim's batched Newton iteration.
run_chains is the one chain driver. The chains of one theta at several step
sizes read the same noise, so they advance together, one noise block at a
time, into one block buffer whose states one keep rule copies out: a Gaussian
batch steps a whole block in the eigenbasis of Q, any other batch steps row
by row as one (B, d) state, by one batched explicit step or Newton solve. A
lone chain is a batch of one. The transition kernel density of the implicit
update is available in closed form for diagnostics.
"""

import functools
import math
import warnings
import weakref
from dataclasses import dataclass

import numpy as np

from . import optim
from .errors import NumericalError
from .optim import SolveResult
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


def _is_count(n, least: int) -> bool:
    """Whether n is a Python or numpy integer no less than least."""
    return isinstance(n, (int, np.integer)) and n >= least


@dataclass(frozen=True)
class SamplerConfig:
    """Chain parameters: blend theta, step size h, subproblem tolerance, length.

    theta in [0, 1]; finite h > 0 in diffusion time units; eps >= 0 is the
    gradient-norm tolerance of the implicit subproblem; integer n_steps >= 0;
    the seed makes the noise sequence (and so the chain) fully deterministic.
    """

    theta: float
    h: float
    eps: float = 1e-9
    n_steps: int = 1000
    seed: int = 0

    def __post_init__(self):
        _check_theta_h(self.theta, self.h)
        if not self.eps >= 0:
            raise ValueError(f"subproblem tolerance must be >= 0, got {self.eps}")
        if not _is_count(self.n_steps, 0):
            raise ValueError(f"number of steps must be an integer >= 0, got {self.n_steps}")


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
        # A uint64 array: numpy reads a list with a seed >= 2^63 through float64.
        key = np.array([self.seed, self.stream], dtype=np.uint64)
        bitgen = np.random.Philox(key=key, counter=int(b) << 128)
        draws = np.random.Generator(bitgen).standard_normal((NOISE_BLOCK, self.dim))
        draws.flags.writeable = False
        return draws


@dataclass
class Trajectory:
    """Chain output: the kept samples plus per-step inner-solver statistics.

    Row j of samples is the state after burn_in + j * thin steps, and no other
    state is held; run_chain keeps every state, so its row 0 is the initial
    point. A diverged chain (an iterate norm exceeded the divergence
    threshold) stops there, ends with the offending iterate and is flagged.
    solver_iterations and grad_norms hold one entry per step run; steps
    without an inner solve read zero.
    """

    samples: np.ndarray
    solver_iterations: np.ndarray
    grad_norms: np.ndarray
    diverged: bool = False

    @property
    def n_steps(self) -> int:
        return self.solver_iterations.shape[0]


def _check_step(target: TargetDensity, x, z, theta: float, h: float):
    _check_theta_h(theta, h)
    return _check_point(x, target.dim), _check_point(z, target.dim)


# Batched step kernels. Points are rows of x, shape (B, d), one per step size;
# every row reads the same noise vector z. The per-row terms are columns.
def _step_terms(theta: float, hs) -> tuple:
    """(drift, sqrt_h, scale) = (h(1-theta)/2, sqrt(h), 2/h) for the step
    sizes hs, as (B, 1) columns."""
    h = np.asarray(hs, dtype=float)[:, None]
    return 0.5 * h * (1.0 - theta), np.sqrt(h), 2.0 / h


def _predict(target: TargetDensity, x, z, drift, sqrt_h, shared=None):
    """The explicit predictors x - drift grad f(x) + sqrt_h z, and the
    gradients."""
    grad = target._gradient(x, shared)
    return x - drift * grad + sqrt_h * z, grad


def _implicit_step(target: TargetDensity, x, z, theta: float, terms: tuple, eps: float):
    """Inexact implicit steps: per row, Newton on the subproblem
    theta f(u) + |u - v|^2 / h, whose proximity centre is the explicit
    predictor v, started at the current point x, to gradient norm <= eps.

    At large h the predictor is the unstable explicit step, while x is never
    far from the subproblem's solution, so x is the better start. The target
    is evaluated at x once: its shared work and gradient give both v and the
    first Newton gradient and Hessian. Returns the next points, the Newton
    iterations and the final squared gradient norms (see optim._newton).
    """
    drift, sqrt_h, scale = terms
    shared = target._shared(x)
    v, grad = _predict(target, x, z, drift, sqrt_h, shared)
    diagonal = target.dim + 1

    def evaluate(u, v, scale):
        shared = target._shared(u)
        return shared, theta * target._gradient(u, shared) + scale * (u - v)

    def jacobian(u, shared, v, scale):
        # theta H + (2/h) I, with 2/h added on the diagonal of a C-ordered
        # product, so the flat view below is the product itself.
        jac = np.multiply(theta, target._hessian(u, shared), order="C")
        jac.reshape(len(u), -1)[:, ::diagonal] += scale
        return jac

    return optim._newton(evaluate, jacobian, x, shared, theta * grad + scale * (x - v), eps,
                         (v, scale))


def _gaussian_coefficients(target: GaussianTarget, theta: float, h):
    """(a, b) of the closed-form theta step in the eigenbasis of Q: each
    coordinate of y = (x - mean) V advances as y <- a y + b (z V). A (B, 1)
    column of step sizes gives one row of each per step size."""
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
    return lambda x, z: step_x @ (x - mean) + step_z @ z + mean


def ula_step(target: TargetDensity, x, z, h: float) -> np.ndarray:
    """Explicit update x - (h/2) grad f(x) + sqrt(h) z."""
    return explicit_predictor(target, x, z, 0.0, h)


def explicit_predictor(target: TargetDensity, x, z, theta: float, h: float) -> np.ndarray:
    """The vector v = x - (h(1-theta)/2) grad f(x) + sqrt(h) z.

    This is the proximity center of the implicit subproblem and the exact
    update when theta = 0. The inner solver starts at x, not at v.
    """
    x, z = _check_step(target, x, z, theta, h)
    drift, sqrt_h = _step_terms(theta, [h])[:2]
    return _predict(target, x[None], z, drift, sqrt_h)[0][0]


def ila_step_gaussian(target: GaussianTarget, x, z, theta: float, h: float) -> np.ndarray:
    """Exact implicit update for a Gaussian target.

    Solves (I + (h theta/2) Q) (x_next - mean) =
    (I - (h(1-theta)/2) Q)(x - mean) + sqrt(h) z in closed form, through step
    operators built from the target's eigendecomposition of Q.
    """
    if not isinstance(target, GaussianTarget):
        raise TypeError("closed-form step requires a GaussianTarget")
    x, z = _check_step(target, x, z, theta, h)
    return _gaussian_kernel(weakref.ref(target), float(theta), float(h))(x, z)


def _check_eps(eps: float) -> None:
    if eps <= 0.0:
        raise ValueError(f"inexact implicit step requires eps > 0, got {eps}")


def iila_step(target: TargetDensity, x, z, config: SamplerConfig) -> tuple[np.ndarray, SolveResult]:
    """One inexact implicit step: solve the subproblem to gradient norm <= eps.

    Returns the accepted point and the inner-solver statistics. The subproblem
    has curvature bounds [theta*m + 2/h, theta*M + 2/h] and its proximity
    centre is the explicit predictor; the solver starts at x. This is the
    chain drivers' step, on a batch of one.
    """
    if config.theta <= 0.0:
        raise ValueError("inexact implicit step requires theta > 0; use ula_step")
    _check_eps(config.eps)
    x, z = _check_step(target, x, z, config.theta, config.h)
    x_next, its, sq = _implicit_step(target, x[None], z, config.theta,
                                     _step_terms(config.theta, [config.h]),
                                     config.eps)
    grad_norm = float(np.sqrt(sq[0]))
    return x_next[0], SolveResult(x=x_next[0], grad_norm=grad_norm, iterations=int(its[0]),
                                  converged=grad_norm <= config.eps)


def transition_log_density(target: TargetDensity, y, x, theta: float, h: float):
    """Log density of one implicit step landing at y, started from x.

    log |det(I + (h theta/2) hess f(y))| plus the log density of
    N(x - (h(1-theta)/2) grad f(x), h I) evaluated at y + (h theta/2) grad f(y).
    y is one point, giving a float, or an (N, d) matrix of points, giving one
    value per row from stacked Hessians and gradients. The determinants are
    computed by Cholesky, so an indefinite matrix raises.
    """
    _check_theta_h(theta, h)
    x, ys = _check_point(x, target.dim), _check_point(y, target.dim, stack=True)
    points = ys.reshape(-1, target.dim)
    drift, sqrt_h = _step_terms(theta, [h])[:2]
    jac = np.eye(target.dim) + 0.5 * h * theta * target._hessian(points)
    try:
        chol = np.linalg.cholesky(jac)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            "transition density Jacobian is not positive definite"
        ) from exc
    log_det = 2.0 * np.log(np.diagonal(chol, axis1=1, axis2=2)).sum(axis=1)
    mean = _predict(target, x[None], 0.0, drift, sqrt_h)[0]
    residual = points + 0.5 * h * theta * target._gradient(points) - mean
    log_gauss = -0.5 * target.dim * (LOG_2PI + np.log(h)) - optim._row_sq(residual) / (2.0 * h)
    values = log_det + log_gauss
    return values if ys.ndim == 2 else float(values[0])


def stability_bound(theta: float, m: float, big_m: float) -> float:
    """Largest step size with guaranteed geometric ergodicity for theta < 1/2.

    For theta >= 1/2 every step size is stable and +inf is returned.
    """
    if theta >= 0.5:
        return np.inf
    return 4.0 * m / (big_m**2 * (1.0 - 2.0 * theta))


def run_chain(target: TargetDensity, x0, config: SamplerConfig,
              noise: NoiseStream | None = None) -> Trajectory:
    """Run a chain of config.n_steps transitions from x0, keeping every state:
    run_chains on a batch of one, so its row 0 is x0.

    Iterates whose norm exceeds the divergence threshold truncate the chain
    and set the diverged flag, which is the expected outcome for the explicit
    method at large step sizes. A failed inner solve raises NumericalError
    naming (theta, h) and the step, instead of contaminating the trajectory.
    """
    return _run_batch(target, x0, [config], noise, 1, 0)[0]


def run_chains(target: TargetDensity, x0, configs, noise: NoiseStream | None = None,
               thin: int = 1, burn_in: int = 0) -> list[Trajectory]:
    """Run one chain per config from x0 and return their trajectories in the
    order of configs, each holding only its states after burn_in + j * thin
    steps, j = 0, 1, ....

    The configs differ only in h; theta, eps, n_steps and seed are shared, and
    so is the noise of each step. The chains advance together one noise block
    at a time. A Gaussian target takes the closed-form step for every theta
    (eps is unused), in the eigenbasis of Q for the whole block at once; a
    diverged chain steps on, unkept, until all have diverged. Otherwise the
    chains advance as one (B, d) state: theta = 0 by a batched explicit step,
    theta > 0 by a batched Newton solve (see optim._newton; eps > 0), whose
    rows match lone chains up to rounding: BLAS may sum a batch's products in
    another order. A diverged row leaves the batch; a failed inner solve
    raises NumericalError naming the row's (theta, h) and the step.
    """
    return _run_batch(target, x0, configs, noise, thin, burn_in)


def _run_batch(target: TargetDensity, x0, configs, noise: NoiseStream | None, thin: int,
               burn_in: int) -> list[Trajectory]:
    """run_chains; its only callers are run_chain and run_chains, so
    stacklevel 3 names the line that called them."""
    if not configs:
        return []
    theta, eps, n, seed = configs[0].theta, configs[0].eps, configs[0].n_steps, configs[0].seed
    if any((c.theta, c.eps, c.n_steps, c.seed) != (theta, eps, n, seed) for c in configs):
        raise ValueError("chains run together must share theta, eps, n_steps and seed")
    gaussian = isinstance(target, GaussianTarget)
    solves = theta > 0.0 and not gaussian
    if solves:
        _check_eps(eps)
    if not (_is_count(thin, 1) and _is_count(burn_in, 0)):
        raise ValueError(f"need integers thin >= 1 and burn_in >= 0, got {thin} and {burn_in}")
    x0 = _check_point(x0, target.dim)
    m, big_m = target.convexity_bounds()
    for config in configs:
        bound = stability_bound(config.theta, m, big_m)
        if config.h >= bound:
            warnings.warn(
                f"theta={config.theta} < 1/2 with h={config.h} >= {bound:.6g}: "
                "outside the guaranteed-stability regime; the chain may diverge",
                StabilityWarning, stacklevel=3,
            )
    if noise is None:
        noise = NoiseStream(seed, target.dim)
    if noise.dim != target.dim:
        raise ValueError(f"noise dimension {noise.dim} != target dimension {target.dim}")
    hs = [c.h for c in configs]
    b, d = len(hs), target.dim
    n_keep = (n - burn_in) // thin + 1 if n >= burn_in else 0
    # One spare row per chain for an offending iterate past the last kept one.
    samples, block = np.empty((b, n_keep + 1, d)), np.empty((b, NOISE_BLOCK, d))
    samples[:, 0] = x0  # kept only if burn_in is 0, else overwritten
    slot = int(burn_in == 0)  # the next sample row of the running chains
    lengths, steps = np.full(b, n_keep), np.full(b, n)
    running, diverged = np.ones(b, dtype=bool), np.zeros(b, dtype=bool)
    if gaussian:
        a, coef = _gaussian_coefficients(target, theta, np.asarray(hs)[:, None])
        vecs, mean = target.eigenvectors, target.mean
        y = (x0 - mean) @ vecs
    else:
        terms = _step_terms(theta, hs)
        x = np.repeat(x0[None], b, axis=0)
        # The chains still stepping, one per row of x; live indexes them, as
        # a slice until the first divergence.
        rows, live = np.arange(b), slice(None)
    if solves:
        iterations, grad_norms = np.zeros((b, n), dtype=int), np.zeros((b, n))
    else:  # steps without an inner solve: read-only zeros
        iterations, grad_norms = np.broadcast_to(0, (b, n)), np.broadcast_to(0.0, (b, n))
    for start in range(0, n, NOISE_BLOCK):
        # Row r of block is the state after step start + r + 1.
        count = min(NOISE_BLOCK, n - start)
        draws = noise.block(start // NOISE_BLOCK)[:count]
        if gaussian:
            # In the eigenbasis, with y = (x - mean) V and w = b (z V), each
            # step is y <- a y + w. The whole block maps back to x: a kept row
            # alone would round otherwise, as numpy sends it to gemv. A
            # diverging chain may overflow to inf and nan; the row check sees
            # both, and the chain steps on with the rest.
            with np.errstate(over="ignore", invalid="ignore"):
                w = (draws @ vecs) * coef[:, None]
                w[:, 0] += a * y
                for k in range(1, count):  # w[:, k] becomes y after step start + k
                    w[:, k] += a * w[:, k - 1]
                y = w[:, count - 1]
                states = np.matmul(w, vecs.T, out=block[:, :count])
                states += mean
                far = ~(np.einsum("bij,bij->bi", states, states) <= DIVERGENCE_THRESHOLD**2)
            gone = running & far.any(axis=1)
            steps[gone] = start + far[gone].argmax(axis=1) + 1
            diverged |= gone
        else:
            for r in range(count):
                k = start + r
                if theta == 0.0:
                    x = _predict(target, x, draws[r], *terms[:2])[0]
                else:
                    try:
                        x, its, sq = _implicit_step(target, x, draws[r], theta, terms, eps)
                    except optim._RowFailure as exc:
                        raise NumericalError(f"inner solver failed at theta={theta}, "
                                             f"h={hs[rows[exc.row]]}, step {k}: {exc}") from exc
                    norms = np.sqrt(sq)
                    if not optim._all(norms <= eps):
                        row = int(np.argmin(norms <= eps))
                        raise NumericalError(
                            f"inner solver failed at theta={theta}, h={hs[rows[row]]}, "
                            f"step {k}: grad norm {norms[row]:.3e} > eps {eps:.3e} "
                            f"after {its[row]} iterations; chain aborted")
                    iterations[live, k], grad_norms[live, k] = its, norms
                block[live, r] = x
                within = optim._row_sq(x) <= DIVERGENCE_THRESHOLD**2
                if not optim._all(within):
                    gone = rows[~within]
                    steps[gone], diverged[gone] = k + 1, True
                    rows = live = rows[within]
                    x, terms = x[within], tuple(t[within] for t in terms)
                    if not rows.size:
                        break
        # The one keep rule: the running chains' states after burn_in + j * thin
        # steps, then each newly diverged chain's offending iterate.
        first = max(burn_in - start - 1, (burn_in - start - 1) % thin)
        kept = len(range(first, count, thin))
        samples[running, slot:slot + kept] = block[running, first:count:thin]
        for i in np.flatnonzero(running & diverged):
            lengths[i] = slot + len(range(first, steps[i] - start, thin))
            if steps[i] < burn_in or (steps[i] - burn_in) % thin:
                samples[i, lengths[i]] = block[i, steps[i] - start - 1]
                lengths[i] += 1
        running &= ~diverged
        slot += kept
        if not running.any():
            break
    return [Trajectory(samples[i, :lengths[i]], iterations[i, :steps[i]],
                       grad_norms[i, :steps[i]], diverged=bool(diverged[i])) for i in range(b)]
