"""Inner solver for strongly convex subproblems with a gradient-norm stop rule.

Each sampler step with an implicit component requires a point whose subproblem
gradient norm falls below a tolerance. The Newton iteration here honors that
contract: it stops as soon as the gradient norm drops to the tolerance, and
reports failure (never a silently bad point) when the iteration cap is reached
first. It is the package's only Newton iteration, batched on numpy's LAPACK:
the samplers solve the subproblems of all step sizes of one step in one call,
and newton_solve, which serves mode finding and the large-step limit map, is a
batch of one.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalError

NEWTON_ITER_CAP = 100

# Armijo parameters for the line search on the squared gradient norm.
_ARMIJO_FACTOR = 1e-4
_BACKTRACK_RATIO = 0.5
_MAX_BACKTRACKS = 60


def _cholesky_public(a):
    return np.linalg.cholesky(a)


def _solve_public(a, b):
    return np.linalg.solve(a, b[..., None])[..., 0]


# The Newton iteration calls the gufuncs of numpy's LAPACK that
# np.linalg.cholesky and np.linalg.solve wrap. At d = 10 the wrappers' argument
# checks and error-state setup cost as much per call as the factorization
# itself (3 to 7 us), which made a lone chain's Newton steps 14% slower. The
# module is private to numpy, so a numpy without it gets the wrappers.
try:
    from numpy.linalg._umath_linalg import cholesky_lo as _cholesky, solve1 as _solve
except ImportError:
    _cholesky, _solve = _cholesky_public, _solve_public


@dataclass
class SolveProblem:
    """Strongly convex problem described by its gradient and Hessian oracles,
    solved to the gradient-norm termination tolerance tol."""

    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]
    x0: np.ndarray
    tol: float

    def __post_init__(self):
        if not self.tol >= 0:
            raise ValueError(f"tolerance must be non-negative, got {self.tol}")


@dataclass
class SolveResult:
    x: np.ndarray
    grad_norm: float
    iterations: int
    converged: bool


def newton_solve(problem: SolveProblem) -> SolveResult:
    """Newton iteration with backtracking line search on the squared gradient
    norm: _newton on a batch of one.

    The oracles see one point at a time, and the start point is never
    edited. A Hessian that is not positive definite, or a Newton step that is
    not finite, raises NumericalError naming the iteration.
    """

    def evaluate(u):
        # A copy: the iteration writes accepted backtracking steps into it.
        return None, np.array(problem.gradient(u[0]), dtype=float, ndmin=2)

    def jacobian(u, shared):
        return problem.hessian(u[0])[None]

    u = np.asarray(problem.x0, dtype=float)[None]
    x, its, sq = _newton(evaluate, jacobian, u, None, evaluate(u)[1], problem.tol)
    grad_norm = float(np.sqrt(sq[0]))
    return SolveResult(x=x[0], grad_norm=grad_norm, iterations=int(its[0]),
                       converged=grad_norm <= problem.tol)


class _RowFailure(NumericalError):
    """An inner solve failed on one row of a batch."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


def _row_sq(a):
    """Squared norm of each row."""
    return (a * a).sum(axis=1)


_NO_ROWS = np.empty(0, dtype=np.intp)


def _all(mask) -> bool:
    # np.count_nonzero costs a fraction of ndarray.all on a few elements.
    return np.count_nonzero(mask) == mask.size


def _take(idx, *arrays) -> list:
    return [None if a is None else a[idx] for a in arrays]


def _newton(evaluate, jacobian, u, shared, g, tol: float, params: tuple = ()):
    """Newton on a stack of strongly convex problems, one per row of u, each
    to gradient norm <= tol, started at the rows of u with gradients g.

    evaluate(u, *params) returns (shared, g): work that jacobian(u, shared,
    *params) may reuse (or None), and the rows' gradients. jacobian returns
    the (B, d, d) stack of Hessians; it is never edited. params are per-row
    arrays, compacted with the rows. The Newton direction p solves H p = -g;
    since the stop rule is |g| <= tol, descent is enforced on |g|^2 itself,
    along which the Newton direction has slope -2|g|^2.

    A row leaves the batch once its gradient norm reaches tol, once no step
    length passes the Armijo test on |g|^2 or moves it off its point (a
    stalled row, which keeps the point and the iteration count before that
    iteration), or at NEWTON_ITER_CAP iterations;
    the batch is compacted only when some row leaves. Each iteration checks
    that the stack is positive definite with numpy's LAPACK Cholesky, whose
    factor is not kept, and then solves the stack by LU; a failure raises
    _RowFailure naming the row. Returns the final points, iterations and
    squared gradient norms.
    """
    b = u.shape[0]
    tol2, armijo = tol * tol, 1.0 - 2.0 * _ARMIJO_FACTOR
    sq = _row_sq(g)
    its = np.zeros(b, dtype=int)
    # Rows done at entry are final here; the others are written as they leave.
    u_out, sq_out = u.copy(), sq.copy()
    rows = np.arange(b)
    live = sq > tol2
    if not _all(live):
        rows = rows[live]
        u, g, sq, shared, *params = _take(live, u, g, sq, shared, *params)

    it = 0
    while rows.size and it < NEWTON_ITER_CAP:
        jac = jacobian(u, shared, *params)
        try:
            # A matrix that is not positive definite sets the invalid flag
            # of the gufunc, or makes the wrapper raise.
            with np.errstate(invalid="raise"):
                _cholesky(jac)
        except (FloatingPointError, np.linalg.LinAlgError):
            raise _RowFailure(rows[_first_indefinite(jac)],
                              f"Cholesky factorization failed at iteration {it}; "
                              "Hessian is not positive definite") from None
        step = _solve(jac, g)
        # LAPACK factors NaN without complaint. A finite sum clears every
        # row at once; one that overflowed without a bad entry passes too.
        if not math.isfinite(step.sum()):
            finite = np.isfinite(step).all(axis=1)
            if not finite.all():
                raise _RowFailure(rows[np.argmin(finite)],
                                  f"Newton step is not finite at iteration {it}")
        u_new = u - step
        shared_new, g_new = evaluate(u_new, *params)
        sq_new = _row_sq(g_new)
        stalled = _NO_ROWS
        ok = sq_new <= sq * armijo
        if not _all(ok):
            back, t = np.flatnonzero(~ok), 1.0
            for _ in range(_MAX_BACKTRACKS - 1):
                t *= _BACKTRACK_RATIO
                u_try = u[back] - t * step[back]
                # Once t * step is below an ulp of u, this and every shorter
                # trial point is u itself, which the Armijo test accepts once
                # 1 - 2e-4 t rounds to 1 (t below about 2^-41): a stall.
                moved = (u_try != u[back]).any(axis=1)
                if not _all(moved):
                    stalled = np.concatenate((stalled, back[~moved]))
                    back, u_try = back[moved], u_try[moved]
                    if not back.size:
                        break
                shared_try, g_try = evaluate(u_try, *_take(back, *params))
                sq_try = _row_sq(g_try)
                passed = sq_try <= sq[back] * (1.0 - 2.0 * _ARMIJO_FACTOR * t)
                at = back[passed]
                u_new[at], g_new[at], sq_new[at] = u_try[passed], g_try[passed], sq_try[passed]
                if shared is not None:
                    shared_new[at] = shared_try[passed]
                back = back[~passed]
                if not back.size:
                    break
            # No productive step length left; |g| is at the numerical floor.
            stalled = np.concatenate((stalled, back)) if stalled.size else back
        it += 1
        done = sq_new <= tol2
        if stalled.size:
            done[stalled] = True
        if not np.count_nonzero(done):
            u, g, sq, shared = u_new, g_new, sq_new, shared_new
            continue
        at = rows[done]
        u_out[at], sq_out[at], its[at] = u_new[done], sq_new[done], it
        if stalled.size:
            at = rows[stalled]
            u_out[at], sq_out[at], its[at] = u[stalled], sq[stalled], it - 1
        if _all(done):
            return u_out, its, sq_out
        keep = ~done
        rows = rows[keep]
        u, g, sq, shared, *params = _take(keep, u_new, g_new, sq_new, shared_new, *params)
    its[rows] = it
    u_out[rows], sq_out[rows] = u, sq
    return u_out, its, sq_out


def _first_indefinite(matrices) -> int:
    """Index of the first matrix of a stack that Cholesky refuses."""
    for i, matrix in enumerate(matrices):
        try:
            np.linalg.cholesky(matrix)
        except np.linalg.LinAlgError:
            return i
    raise AssertionError("every matrix factors")
