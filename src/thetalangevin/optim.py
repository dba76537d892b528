"""Inner solvers for strongly convex subproblems with a gradient-norm stop rule.

Each sampler step with an implicit component requires a point whose subproblem
gradient norm falls below a tolerance. The Newton solver here honors that
contract: it stops as soon as the norm of the supplied gradient oracle drops to
the tolerance, and reports failure (never a silently bad point) when the
iteration cap is reached first. It serves mode finding and the large-step
limit map; the samplers run the same iteration, with these constants, on a
stack of subproblems at once.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError

NEWTON_ITER_CAP = 100

# Armijo parameters for the line search on the squared gradient norm.
_ARMIJO_FACTOR = 1e-4
_BACKTRACK_RATIO = 0.5
_MAX_BACKTRACKS = 60


@dataclass
class SolveProblem:
    """Strongly convex problem described by its gradient and Hessian oracles,
    solved to the gradient-norm termination tolerance tol."""

    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    tol: float

    def __post_init__(self):
        if self.tol < 0:
            raise ValueError(f"tolerance must be non-negative, got {self.tol}")


@dataclass
class SolveResult:
    x: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool


def newton_solve(problem: SolveProblem) -> SolveResult:
    """Newton iteration with backtracking line search on the squared gradient norm.

    The Newton direction p solves H p = -g via Cholesky; since the termination
    criterion is ||g|| <= tol, descent is enforced on ||g||^2 itself, for which
    the Newton direction gives directional derivative -2||g||^2. Iterates are
    never edited in place, so x0 is not copied: the first gradient call gets
    x0 itself, and so does the result when no iteration runs. LAPACK is
    imported on first use: the samplers' batched steps use numpy's, so a
    sweep that never solves through here never loads scipy.linalg.
    """
    from scipy.linalg.lapack import dpotrf, dpotrs

    x = np.asarray(problem.x0, dtype=float)
    g = problem.gradient(x)
    sq = float(g @ g)
    iterations = 0
    while sq > problem.tol**2 and iterations < NEWTON_ITER_CAP:
        factor, info = dpotrf(problem.hessian(x), lower=1, clean=0)
        if info != 0:
            raise NumericalError(f"Cholesky factorization failed at iteration {iterations}; "
                                 "Hessian is not positive definite")
        step, info = dpotrs(factor, -g, lower=1)  # LAPACK factors NaN without complaint
        if info != 0 or not np.isfinite(step).all():
            raise NumericalError(f"Newton step is not finite at iteration {iterations}")
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
            # No productive step length left; ||g|| is at the numerical floor.
            break
        x, g, sq = x_new, g_new, sq_new
        iterations += 1
    grad_norm = float(np.sqrt(sq))
    return SolveResult(x=x, grad_norm=grad_norm, iterations=iterations,
                       converged=grad_norm <= problem.tol)

