import math

import numpy as np
import pytest

from thetalangevin import (
    GaussianTarget,
    OutOfRegimeError,
    SpectralModel,
    asymptotic_covariance,
    condition_number_kappa,
    contraction,
    exp_decay_spectrum,
    gaussian_stationary_covariance,
    h_star,
    heuristic_objective,
    step_size_heuristic,
    theta_map,
    w2_bound,
)

from test_targets import make_logistic

# Frozen by an independent scalar evaluation of the bound's arithmetic
# (theta=1/2, h=0.1, m=M=1, d=1, eps=0, w2_initial=1, t=10).
W2_BOUND_REFERENCE = 3.536289587160092


# ------------------------------------------------------------ condition number

def test_kappa_explicit_scheme_is_one():
    assert condition_number_kappa(0.0, 5.0, 1.0, 100.0) == 1.0


def test_kappa_hand_value():
    assert condition_number_kappa(1.0, 2.0, 1.0, 3.0) == pytest.approx(2.0)


def test_kappa_large_h_limit():
    kappa = condition_number_kappa(0.7, 1e12, 2.0, 9.0)
    assert kappa == pytest.approx(4.5, rel=1e-6)


def test_kappa_equals_one_when_curvature_flat():
    assert condition_number_kappa(0.8, 3.0, 2.0, 2.0) == 1.0


# ---------------------------------------------------------------- switch point

def test_h_star_small_theta_limit():
    assert h_star(1e-8, 1.0, 3.0) == pytest.approx(1.0, rel=1e-4)


def test_h_star_trapezoidal():
    assert h_star(0.5, 2.0, 8.0) == pytest.approx(4.0 / math.sqrt(16.0), rel=1e-12)


def test_h_star_flat_unit_curvature():
    assert h_star(0.5, 1.0, 1.0) == pytest.approx(4.0, rel=1e-12)


def test_h_star_domain():
    for theta in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            h_star(theta, 1.0, 2.0)


# ----------------------------------------------------------------- contraction

def test_contraction_fully_implicit_flat():
    for h in (0.1, 1.0, 50.0):
        params = contraction(1.0, h, 1.0, 1.0)
        assert params.regime == "case-i"
        assert params.rate == pytest.approx(1.0 / (1.0 + h / 2.0))
        assert params.constant == pytest.approx(1.0)


def test_contraction_switch_continuity_explicit_pair():
    switch = h_star(0.5, 1.0, 4.0)
    first = (1.0 - 0.5 * switch * 0.5 * 1.0) / (1.0 + 0.5 * switch * 0.5 * 1.0)
    second = (0.5 * switch * 0.5 * 4.0 - 1.0) / (0.5 * switch * 0.5 * 4.0 + 1.0)
    assert first == pytest.approx(second, abs=1e-12)


def test_contraction_explicit_scheme_small_h():
    params = contraction(0.0, 1.0, 1.0, 1.0)
    assert params.rate == pytest.approx(0.5)
    assert params.regime == "case-i"
    assert math.isinf(params.constant)


def test_contraction_regime_continuity_grid():
    for theta in (0.1, 0.25, 0.5, 0.75, 0.9):
        for ratio in (1.0, 10.0, 1e4):
            m, big_m = 1.0, ratio
            switch = h_star(theta, m, big_m)
            rho_i = (1.0 - 0.5 * switch * (1.0 - theta) * m) / (1.0 + 0.5 * switch * theta * m)
            rho_ii = (0.5 * switch * (1.0 - theta) * big_m - 1.0) / (0.5 * switch * theta * big_m + 1.0)
            assert abs(rho_i - rho_ii) < 1e-10


def test_contraction_rate_below_one_for_stable_thetas():
    for theta in (0.5, 0.75, 1.0):
        for h in np.geomspace(1e-6, 1e6, 25):
            params = contraction(theta, float(h), 1.0, 30.0)
            assert params.rate < 1.0


def test_contraction_out_of_regime_names_bound():
    with pytest.raises(OutOfRegimeError, match="4/"):
        contraction(0.2, 100.0, 1.0, 1.0)


# -------------------------------------------------------------------- w2 bound

def test_w2_bound_reference_value():
    got = w2_bound(10, 0.5, 0.1, 0.0, 1.0, 1.0, 1, 1.0)
    assert got == pytest.approx(W2_BOUND_REFERENCE, rel=1e-14)


def test_w2_bound_dominates_exact_gaussian_distance_both_regimes():
    # On a diagonal-precision Gaussian the chain decouples per eigendirection
    # into scalar affine recursions, giving the exact Wasserstein distance in
    # closed form; the bound must dominate it in both step-size regimes.
    lams = np.array([1.0, 4.0])
    m, big_m = 1.0, 4.0
    x0 = np.array([2.0, -1.0])
    theta = 0.5
    w2_init = math.sqrt(sum(c**2 + 1.0 / lam for lam, c in zip(lams, x0)))

    def exact_w2(t, h):
        total = 0.0
        for lam, c in zip(lams, x0):
            a = (1 - 0.5 * h * (1 - theta) * lam) / (1 + 0.5 * h * theta * lam)
            b = math.sqrt(h) / (1 + 0.5 * h * theta * lam)
            mean_t = a**t * c
            var_t = b * b / (1 - a * a) * (1 - a ** (2 * t))
            total += mean_t**2 + (math.sqrt(var_t) - math.sqrt(1.0 / lam)) ** 2
        return math.sqrt(total)

    assert h_star(theta, m, big_m) == pytest.approx(2.0, abs=1e-12)
    for h in (0.5, 1.9, 2.1, 10.0, 100.0):  # straddles the switch at h* = 2
        for t in range(0, 201, 10):
            assert w2_bound(t, theta, h, 0.0, m, big_m, 2, w2_init) >= exact_w2(t, h)


def test_w2_bound_asymptotic_bias_term():
    theta, h, m, big_m, d = 0.75, 0.5, 1.0, 2.0, 3
    params = contraction(theta, h, m, big_m)
    bias = min(2 * big_m * math.sqrt(h * d) * (2 + math.sqrt(h * big_m)),
               4 * math.sqrt(big_m * d))
    asymptote = params.constant * bias
    assert w2_bound(10_000, theta, h, 0.0, m, big_m, d, 5.0) == pytest.approx(asymptote)
    assert w2_bound(0, theta, h, 0.0, m, big_m, d, 0.0) == pytest.approx(asymptote)


# ------------------------------------------------------------------- theta map

def test_theta_map_fully_implicit_returns_mode():
    target = make_logistic(seed=21)
    from thetalangevin import mode

    x = np.full(target.dim, 0.7)
    np.testing.assert_allclose(theta_map(target, x, 1.0), mode(target), atol=1e-8)


def test_theta_map_gaussian_affine():
    mean = np.array([1.0, -2.0])
    target = GaussianTarget(mean, np.array([[2.0, 0.4], [0.4, 1.0]]))
    rng = np.random.default_rng(3)
    for theta in (0.3, 0.5, 0.8, 1.0):
        x = rng.standard_normal(2)
        expected = mean + (1.0 - 1.0 / theta) * (x - mean)
        np.testing.assert_allclose(theta_map(target, x, theta), expected, atol=1e-9)


def test_theta_map_trapezoidal_reflection():
    target = GaussianTarget(np.zeros(2), np.diag([1.0, 4.0]))
    out = theta_map(target, np.array([2.0, -4.0]), 0.5)
    np.testing.assert_allclose(out, [-2.0, 4.0], atol=1e-10)


def test_theta_map_gaussian_contraction_identity():
    mean = np.array([0.5, 0.5, -1.0])
    target = GaussianTarget(mean, np.diag([0.5, 1.0, 2.0]))
    rng = np.random.default_rng(4)
    for theta in (0.4, 0.5, 0.9):
        x = rng.standard_normal(3) + mean
        shrink = np.linalg.norm(theta_map(target, x, theta) - mean)
        assert shrink == pytest.approx(abs(1 - 1 / theta) * np.linalg.norm(x - mean),
                                       rel=1e-8)


def test_theta_map_sandwich_bound_on_logistic():
    target = make_logistic(n_obs=40, dim=3, seed=30)
    from thetalangevin import mode

    x_star = mode(target)
    m, big_m = target.convexity_bounds()
    rng = np.random.default_rng(31)
    for theta in (0.4, 0.6, 0.9):
        ratio = abs(1.0 / theta - 1.0)
        x = x_star + rng.standard_normal(3)
        dist = np.linalg.norm(theta_map(target, x, theta) - x_star)
        base = np.linalg.norm(x - x_star)
        assert dist <= big_m / m * ratio * base + 1e-8
        assert dist >= m / big_m * ratio * base - 1e-8


# --------------------------------------------------------- asymptotic covariance

def test_asymptotic_covariance_hand_values():
    assert asymptotic_covariance(GaussianTarget(np.zeros(1), np.eye(1)),
                                 np.array([3.0]), 1.0)[0, 0] == pytest.approx(4.0)
    assert asymptotic_covariance(GaussianTarget(np.zeros(1), 2.0 * np.eye(1)),
                                 np.array([3.0]), 0.5)[0, 0] == pytest.approx(4.0)


def test_asymptotic_covariance_spd():
    target = make_logistic(n_obs=30, dim=4, seed=40)
    cov = asymptotic_covariance(target, np.full(4, 0.3), 0.7)
    np.testing.assert_array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov)[0] > 0


def test_asymptotic_covariance_monte_carlo_on_logistic():
    # Large-step one-step draws on a non-quadratic target match the predicted
    # rescaled covariance (Monte Carlo oracle, fixed seed).
    from thetalangevin import LogisticRegressionTarget, SamplerConfig, iila_step

    rows = np.array([[1.2], [-0.7], [0.4], [2.0]])
    target = LogisticRegressionTarget(rows, np.array([1.0, 0.0, 1.0, 1.0]), 1.0)
    h, theta = 1e6, 0.6
    x0 = np.array([1.5])
    x_limit = theta_map(target, x0, theta)
    predicted = asymptotic_covariance(target, x0, theta)[0, 0]
    rng = np.random.default_rng(3)
    config = SamplerConfig(theta=theta, h=h, eps=1e-11, n_steps=1, seed=0)
    draws = np.empty(8000)
    for i in range(draws.size):
        stepped, _ = iila_step(target, x0, rng.standard_normal(1), config)
        draws[i] = math.sqrt(h) * (stepped[0] - x_limit[0])
    assert draws.var(ddof=1) == pytest.approx(predicted, rel=0.05)


# ------------------------------------------------------- stationary covariance

def test_stationary_covariance_unbiased_at_half():
    rng = np.random.default_rng(5)
    basis = rng.standard_normal((4, 4))
    cov = basis @ basis.T + np.eye(4)
    for h in (0.01, 1.0, 1e6):
        np.testing.assert_array_equal(gaussian_stationary_covariance(cov, 0.5, h),
                                      (cov + cov.T) / 2.0)


def test_stationary_covariance_hand_value():
    # Verified against the scalar affine-recursion fixed point b^2/(1-a^2).
    out = gaussian_stationary_covariance(np.eye(1), 1.0, 2.0)
    assert out[0, 0] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_stationary_covariance_small_h_limit():
    cov = np.array([[2.0, 0.3], [0.3, 1.0]])
    np.testing.assert_allclose(gaussian_stationary_covariance(cov, 1.0, 1e-10), cov,
                               rtol=1e-9)


def test_stationary_covariance_out_of_regime():
    with pytest.raises(OutOfRegimeError):
        gaussian_stationary_covariance(np.eye(2), 0.0, 10.0)


# ------------------------------------------------------------ step size heuristic

def test_heuristic_flat_spectrum():
    for big_m in (1.0, 4.0, 250.0):
        h_hat = step_size_heuristic(np.full(5, big_m), 0.5)
        assert h_hat == pytest.approx(4.0 / big_m, rel=1e-7)
        assert heuristic_objective(h_hat, np.full(5, big_m), 0.5) < 1e-12


def test_heuristic_matches_dense_grid_search():
    lam = np.array([100.0, 10.0, 1.0])
    h_hat = step_size_heuristic(lam, 0.5)
    grid = np.geomspace(1e-6, 1e4, 1_000_000)
    values = np.array([((g / (1 + 0.25 * g * lam[:, None]) ** 2 - 1 / lam[:, None]) ** 2).sum(axis=0)
                       for g in [grid]])[0]
    h_grid = grid[int(np.argmin(values))]
    assert h_hat == pytest.approx(h_grid, rel=1e-3)


def test_heuristic_local_minimum_certificate():
    rng = np.random.default_rng(8)
    for theta in (0.5, 0.75, 1.0):
        lam = np.exp(rng.uniform(-1, 4, size=12))
        h_hat = step_size_heuristic(lam, theta)
        at = heuristic_objective(h_hat, lam, theta)
        assert at <= heuristic_objective(0.99 * h_hat, lam, theta) + 1e-12
        assert at <= heuristic_objective(1.01 * h_hat, lam, theta) + 1e-12


def test_heuristic_model_flat():
    spectrum = exp_decay_spectrum(SpectralModel(d=4, m=3.0, M=3.0))
    assert step_size_heuristic(spectrum, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-7)


def test_heuristic_extreme_model_finite_and_deterministic():
    model = SpectralModel(d=1000, m=1.0, M=1e8)
    first = step_size_heuristic(exp_decay_spectrum(model), 0.5)
    second = step_size_heuristic(exp_decay_spectrum(model), 0.5)
    assert np.isfinite(first) and first > 0
    assert first == second


def test_heuristic_rejects_theta_zero():
    with pytest.raises(ValueError):
        step_size_heuristic(np.array([1.0]), 0.0)
