import numpy as np
import pytest
from scipy.special import expit

from thetalangevin import (NumericalError, SamplerConfig, SolveProblem, iila_step,
                           newton_solve, optim)
from thetalangevin.samplers import explicit_predictor

from oracles import bisect_root, cho_newton_solve, gradient_descent_solve, subproblem_gradient
from test_targets import make_logistic


def quadratic_problem(dim=6, tol=1e-12, seed=0):
    rng = np.random.default_rng(seed)
    basis = rng.standard_normal((dim, dim))
    matrix = basis @ basis.T + dim * np.eye(dim)
    center = rng.standard_normal(dim)
    eigs = np.linalg.eigvalsh(matrix)
    return SolveProblem(
        gradient=lambda x: matrix @ (x - center),
        hessian=lambda x: matrix,
        x0=rng.standard_normal(dim), tol=tol,
    ), center, (eigs[0], eigs[-1])


def logistic_subproblem(theta=1.0, h=1.0, v=0.4):
    # One-dimensional implicit-step objective gradient for a tiny logistic fit.
    rows = np.array([1.0, -2.0, 0.5])
    labels = np.array([1.0, 0.0, 1.0])

    def target_grad(x):
        return np.array([rows @ (expit(rows * x[0]) - labels) + x[0]])

    def target_hess(x):
        p = expit(rows * x[0])
        return np.array([[rows @ (rows * p * (1 - p)) + 1.0]])

    def grad(x):
        return theta * target_grad(x) + (2.0 / h) * (x - v)

    def hess(x):
        return theta * target_hess(x) + (2.0 / h) * np.eye(1)

    return grad, hess


def test_newton_exact_on_quadratic():
    problem, center, _ = quadratic_problem()
    result = newton_solve(problem)
    assert result.converged
    assert result.iterations == 1
    assert result.grad_norm < 1e-12
    np.testing.assert_allclose(result.x, center, atol=1e-10)


def test_newton_zero_iterations_at_solution():
    problem, center, _ = quadratic_problem()
    problem.x0 = center
    result = newton_solve(problem)
    assert result.converged
    assert result.iterations == 0


def test_newton_matches_bisection_oracle():
    grad, hess = logistic_subproblem(theta=1.0, h=1.0, v=0.4)
    problem = SolveProblem(gradient=grad, hessian=hess, x0=np.zeros(1), tol=1e-10)
    result = newton_solve(problem)
    root = bisect_root(lambda x: grad(np.array([x]))[0], -10.0, 10.0, tol=1e-12)
    assert result.converged
    assert abs(result.x[0] - root) < 1e-8


def test_gradient_descent_one_step_isotropic():
    problem = SolveProblem(gradient=lambda x: 3.0 * (x - 2.0),
                           hessian=lambda x: np.array([[3.0]]),
                           x0=np.array([10.0]), tol=1e-12)
    result = gradient_descent_solve(problem, 3.0, 3.0)
    assert result.converged
    assert result.iterations == 1
    assert result.x[0] == pytest.approx(2.0, abs=1e-12)


def test_solvers_agree_within_strong_convexity_ball():
    tol = 1e-8
    problem, _, (mu, lipschitz) = quadratic_problem(tol=tol)
    newton = newton_solve(problem)
    descent = gradient_descent_solve(problem, mu, lipschitz)
    assert newton.converged and descent.converged
    assert np.linalg.norm(newton.x - descent.x) <= 2.0 * tol / mu


def test_gradient_norm_contract_audited():
    problem, _, bounds = quadratic_problem(dim=10, tol=1e-6, seed=4)
    for result in (newton_solve(problem), gradient_descent_solve(problem, *bounds)):
        assert result.converged
        assert np.linalg.norm(problem.gradient(result.x)) <= 1e-6


def test_iteration_cap_reports_nonconvergence(monkeypatch):
    monkeypatch.setattr(optim, "NEWTON_ITER_CAP", 0)
    problem, _, _ = quadratic_problem(dim=8, tol=1e-14, seed=2)
    result = newton_solve(problem)
    assert not result.converged
    assert result.iterations == 0


def test_gradient_descent_cap():
    grad, hess = logistic_subproblem()
    problem = SolveProblem(gradient=grad, hessian=hess, x0=np.array([50.0]), tol=1e-14)
    result = gradient_descent_solve(problem, 2.0, 10.0, cap=2)
    assert not result.converged


def test_newton_gradient_norm_monotone_along_accepted_steps(monkeypatch):
    grad, hess = logistic_subproblem(theta=1.0, h=5.0, v=3.0)
    problem = SolveProblem(gradient=grad, hessian=hess, x0=np.array([-8.0]), tol=1e-13)
    norms = []
    for cap in range(6):
        monkeypatch.setattr(optim, "NEWTON_ITER_CAP", cap)
        norms.append(newton_solve(problem).grad_norm)
    assert all(b <= a + 1e-15 for a, b in zip(norms, norms[1:]))


def test_problem_validation(monkeypatch):
    with pytest.raises(ValueError, match="tolerance must be non-negative, got -1e-08"):
        SolveProblem(gradient=lambda x: x, hessian=lambda x: np.eye(1),
                     x0=np.zeros(1), tol=-1e-8)
    with pytest.raises(ValueError, match="tolerance must be non-negative, got nan"):
        SolveProblem(gradient=lambda x: x, hessian=lambda x: np.eye(1),
                     x0=np.zeros(1), tol=np.nan)
    # tol = 0 asks for an exact zero; the iteration cap still ends the solve.
    monkeypatch.setattr(optim, "NEWTON_ITER_CAP", 3)
    grad, hess = logistic_subproblem()
    result = newton_solve(SolveProblem(gradient=grad, hessian=hess, x0=np.array([5.0]),
                                       tol=0.0))
    assert result.iterations <= 3


@pytest.mark.parametrize("theta", [0.25, 0.5, 1.0])
def test_newton_matches_cho_oracle_on_logistic_subproblems(theta):
    # The oracle solves the subproblem built from the public, checked target
    # methods with a dense scaled identity, on scipy's Cholesky solve.
    # newton_solve runs on numpy's LAPACK, whose factorization differs from
    # scipy's in the last bits: it must take the same iterations to a point
    # within 1e-12 relative. The sampler's step solves the same subproblem
    # from the target's unchecked methods: the same iterations, within 1e-10.
    target = make_logistic(n_obs=200, dim=6, seed=21)
    rng = np.random.default_rng(22)
    for h in (0.01, 0.3, 5.0):
        config = SamplerConfig(theta=theta, h=h, eps=1e-10)
        for _ in range(4):
            x, z = 2.0 * rng.standard_normal(6), rng.standard_normal(6)
            v = explicit_predictor(target, x, z, theta, h)
            problem = SolveProblem(
                gradient=lambda u: subproblem_gradient(target, u, v, theta, h),
                hessian=lambda u: theta * target.hessian(u) + (2.0 / h) * np.eye(6),
                x0=x, tol=1e-10)
            oracle = cho_newton_solve(problem)
            assert oracle.converged and oracle.iterations > 0
            result = newton_solve(problem)
            assert result.iterations == oracle.iterations
            assert result.converged and result.grad_norm <= 1e-10
            assert np.linalg.norm(result.x - oracle.x) <= 1e-12 * np.linalg.norm(oracle.x)
            step = iila_step(target, x, z, config)[1]
            assert step.iterations == oracle.iterations
            assert np.linalg.norm(step.x - oracle.x) <= 1e-10 * np.linalg.norm(oracle.x)
            assert step.converged and step.grad_norm <= 1e-10


def test_newton_rejects_indefinite_hessian():
    problem = SolveProblem(gradient=lambda x: x - 1.0, hessian=lambda x: -np.eye(2),
                           x0=np.zeros(2), tol=1e-10)
    with pytest.raises(NumericalError, match=r"Cholesky factorization failed at iteration 0"):
        newton_solve(problem)


def test_newton_rejects_non_finite_hessian_naming_iteration():
    # A NaN Hessian factors without complaint in LAPACK; the step must not be
    # taken. The first iteration halves the distance, the second sees NaN.
    problem = SolveProblem(
        gradient=lambda x: x - 1.0,
        hessian=lambda x: 2.0 * np.eye(2) if x[0] == 0.0 else np.full((2, 2), np.nan),
        x0=np.zeros(2), tol=1e-10)
    with pytest.raises(NumericalError, match=r"Newton step is not finite at iteration 1"):
        newton_solve(problem)


def _elementwise_newton(u, params, tol=1e-12, calls=None):
    """optim._newton on rows with gradient a (u^3 + u) + k u^2 - c and
    Jacobian diag(a (3 u^2 + 1) + b), per-row columns a, b, c, k. Every
    operation is elementwise, so a row's arithmetic does not depend on the
    rows that share its batch. calls, if given, gets the number of rows of
    each gradient evaluation."""

    def evaluate(u, a, b, c, k):
        if calls is not None:
            calls.append(len(u))
        return None, a * (u * u * u + u) + k * u * u - c

    def jacobian(u, shared, a, b, c, k):
        return (a * (3.0 * u * u + 1.0) + b)[:, :, None] * np.eye(u.shape[1])

    return optim._newton(evaluate, jacobian, u, None, evaluate(u, *params)[1], tol, params)


@pytest.mark.parametrize("cap", [optim.NEWTON_ITER_CAP, 2])
def test_newton_rows_leave_the_batch_as_they_would_alone(monkeypatch, cap):
    # Row 0 is at its root at entry. Row 1's gradient 1 + 1e21 u^2 grows at
    # every trial point along its Newton direction, so it stalls at the first
    # iteration. Row 2 iterates on towards the root of u^3 + u - 3, until tol
    # or the cap.
    monkeypatch.setattr(optim, "NEWTON_ITER_CAP", cap)
    params = tuple(np.array([column]).T for column in
                   ([1.0, 0.0, 1.0], [0.0, 1.0, 0.0], [0.0, -1.0, 3.0], [0.0, 1e21, 0.0]))
    u = np.zeros((3, 2))
    x, its, sq = _elementwise_newton(u, params)
    np.testing.assert_array_equal(u, 0.0)
    assert its[:2].tolist() == [0, 0]
    assert sq[:2].tolist() == [0.0, 2.0]
    assert (its[2] == 2) if cap == 2 else (2 < its[2] < cap and sq[2] <= 1e-24)
    for row in range(3):
        alone = _elementwise_newton(u[row:row + 1], tuple(p[row:row + 1] for p in params))
        np.testing.assert_array_equal(x[row], alone[0][0])
        assert its[row] == alone[1][0]
        np.testing.assert_array_equal(sq[row], alone[2][0])


def test_newton_row_stalls_once_its_step_is_below_an_ulp():
    # Row 0's gradient is the constant -2e-9 per coordinate, with unit
    # Jacobian, at u = 1e8, where an ulp is 1.5e-8: every trial point
    # u + t 2e-9 rounds to u. The row leaves as stalled at its first
    # iteration, after one backtrack: before, the Armijo test accepted the
    # null step once 1 - 2e-4 t rounded to 1 (t about 2^-41), and the row ran
    # to the iteration cap, 42 evaluations an iteration. Row 1 iterates on to
    # the root of u^3 + u - 3 as it would alone.
    params = tuple(np.array([column]).T for column in
                   ([0.0, 1.0], [1.0, 0.0], [2e-9, 3.0], [0.0, 0.0]))
    u = np.array([[1e8, 1e8], [0.0, 0.0]])
    x, its, sq = _elementwise_newton(u, params)
    np.testing.assert_array_equal(x[0], u[0])
    assert its[0] == 0
    assert sq[0] == 2 * (2e-9 * 2e-9)
    assert 2 < its[1] < optim.NEWTON_ITER_CAP and sq[1] <= 1e-24
    calls = []
    alone = _elementwise_newton(u[:1], tuple(p[:1] for p in params), calls=calls)
    assert alone[1][0] == 0 and alone[2][0] == sq[0]
    # The entry gradient and the full step; the halved step is u again.
    assert calls == [1, 1]
    alone = _elementwise_newton(u[1:], tuple(p[1:] for p in params))
    np.testing.assert_array_equal(x[1], alone[0][0])
    assert its[1] == alone[1][0]
