"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion runs at its stated tolerance and wall-clock budget on desk
scale. Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math
import time

import numpy as np
import pytest
from scipy import stats

from thetalangevin import (
    GaussianTarget,
    LogisticRegressionTarget,
    NoiseStream,
    SampleSet,
    SamplerConfig,
    StabilityWarning,
    iila_step,
    ila_step_gaussian,
    mmd2,
    mmtv,
    run_chain,
    standardize_design,
    step_size_heuristic,
    gaussian_stationary_covariance,
    theta_map,
    transition_log_density,
    w2_bound,
)
from thetalangevin.cli import ExperimentConfig, build_gaussian_target, run_sweep
from thetalangevin.samplers import explicit_predictor

from oracles import gauss_kronrod, noise_rows


def report(num: int, name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def kappa100_d10_target():
    target = build_gaussian_target(10, 100.0, seed=0)
    q_eigs = 1.0 / np.linalg.eigvalsh(target.covariance)
    h_half = step_size_heuristic(q_eigs, 0.5)
    return target, h_half


def test_criterion_1_exact_sample_identity():
    start = time.perf_counter()
    target = GaussianTarget(np.zeros(50), np.eye(50))
    config = SamplerConfig(theta=0.5, h=4.0, n_steps=10_000, seed=0)
    trajectory = run_chain(target, np.zeros(50), config)
    noise = noise_rows(NoiseStream(0, 50), 10_000)
    worst = 0.0
    for k in range(10_000):
        worst = max(worst, float(np.abs(trajectory.samples[k + 1] - noise[k]).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, "exact-sample identity", ok,
           f"max per-coordinate deviation {worst:.2e} (tol 1e-12), {elapsed:.2f}s (<1s)")


def test_criterion_2_trapezoidal_unbiased_any_h():
    start = time.perf_counter()
    target, h_half = kappa100_d10_target()
    cov = target.covariance
    worst = 0.0
    for h in (h_half, 10.0 * h_half):
        config = SamplerConfig(theta=0.5, h=h, n_steps=201_000, seed=0)
        trajectory = run_chain(target, np.zeros(10), config)
        empirical = np.cov(trajectory.samples[1001:].T)
        worst = max(worst, np.linalg.norm(empirical - cov) / np.linalg.norm(cov))
    elapsed = time.perf_counter() - start
    ok = worst < 0.05 and elapsed < 30.0
    report(2, "theta=1/2 unbiased at any h", ok,
           f"worst relative Frobenius error {worst:.4f} (tol 0.05), {elapsed:.1f}s (<30s)")


def test_criterion_3_biased_stationary_law():
    start = time.perf_counter()
    target, h_half = kappa100_d10_target()
    config = SamplerConfig(theta=1.0, h=h_half, n_steps=201_000, seed=0)
    trajectory = run_chain(target, np.zeros(10), config)
    empirical = np.cov(trajectory.samples[1001:].T)
    expected = gaussian_stationary_covariance(target.covariance, 1.0, h_half)
    rel = np.linalg.norm(empirical - expected) / np.linalg.norm(expected)
    elapsed = time.perf_counter() - start
    ok = rel < 0.05 and elapsed < 30.0
    report(3, "theta=1 biased stationary law", ok,
           f"relative Frobenius error {rel:.4f} (tol 0.05), {elapsed:.1f}s (<30s)")


def test_criterion_4_explicit_transience_implicit_stability():
    start = time.perf_counter()
    target = build_gaussian_target(100, 1e4, seed=0)
    _, big_m = target.convexity_bounds()
    h = 8.0 / big_m
    with pytest.warns(StabilityWarning):
        ula = run_chain(target, np.zeros(100),
                        SamplerConfig(theta=0.0, h=h, n_steps=10_000, seed=0))
    norms = []
    for theta in (0.5, 1.0):
        config = SamplerConfig(theta=theta, h=h, n_steps=10_000, seed=0)
        trajectory = run_chain(target, np.zeros(100), config)
        assert not trajectory.diverged
        norms.append(np.linalg.norm(trajectory.samples, axis=1).max())
    elapsed = time.perf_counter() - start
    bound = 100.0 * math.sqrt(100)
    ok = ula.diverged and max(norms) < bound and elapsed < 10.0
    report(4, "explicit transience vs implicit stability", ok,
           f"explicit diverged after {ula.n_steps} steps; implicit max norm "
           f"{max(norms):.1f} (< {bound:.0f}), {elapsed:.1f}s (<10s)")


def test_criterion_5_large_step_clt():
    start = time.perf_counter()
    target = GaussianTarget(np.zeros(1), np.eye(1))
    h = 1e8
    rng = np.random.default_rng(0)
    details = []
    ok = True
    for theta in (0.5, 1.0):
        x0 = np.array([3.0])
        x_limit = theta_map(target, x0, theta)
        draws = rng.standard_normal(100_000)
        rescaled = np.empty(100_000)
        for i in range(100_000):
            step_to = ila_step_gaussian(target, x0, draws[i:i + 1], theta, h)
            rescaled[i] = math.sqrt(h) * (step_to[0] - x_limit[0])
        variance = rescaled.var(ddof=1)
        target_var = 4.0 / theta**2
        mean = rescaled.mean()
        se = rescaled.std(ddof=1) / math.sqrt(rescaled.size)
        ok = ok and abs(variance - target_var) <= 0.03 * target_var and abs(mean) <= 3.0 * se
        details.append(f"theta={theta}: var {variance:.3f} vs {target_var:.0f}, "
                       f"|mean| {abs(mean):.4f} <= {3 * se:.4f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 5.0
    report(5, "large-step CLT variance", ok, "; ".join(details) + f", {elapsed:.1f}s (<5s)")


def test_criterion_6_wasserstein_bound_holds():
    start = time.perf_counter()
    x0 = 3.0
    w2_start = math.sqrt(x0**2 + 1.0)
    worst_margin = math.inf
    for h in (0.1, 1.0):
        a = (1.0 - h / 4.0) / (1.0 + h / 4.0)
        b = math.sqrt(h) / (1.0 + h / 4.0)
        stationary = b**2 / (1.0 - a**2)
        for t in range(201):
            mean_t = a**t * x0
            var_t = stationary * (1.0 - a ** (2 * t))
            exact = math.sqrt(mean_t**2 + (math.sqrt(var_t) - 1.0) ** 2)
            bound = w2_bound(t, 0.5, h, 0.0, 1.0, 1.0, 1, w2_start)
            worst_margin = min(worst_margin, bound - exact)
    elapsed = time.perf_counter() - start
    ok = worst_margin >= 0.0 and elapsed < 1.0
    report(6, "Wasserstein bound dominates exact distance", ok,
           f"smallest bound-minus-exact margin {worst_margin:.4f} (>= 0), "
           f"{elapsed:.2f}s (<1s)")


def test_criterion_7_inner_solver_equivalence():
    start = time.perf_counter()
    target = build_gaussian_target(20, 100.0, seed=0)
    theta, h = 0.75, 1.0
    config = SamplerConfig(theta=theta, h=h, eps=1e-10, n_steps=1, seed=0)
    x_exact = np.zeros(20)
    x_newton = np.zeros(20)
    worst = 0.0
    for z in noise_rows(NoiseStream(0, 20), 1000):
        x_exact = ila_step_gaussian(target, x_exact, z, theta, h)
        x_newton, solve = iila_step(target, x_newton, z, config)
        assert solve.converged
        worst = max(worst, float(np.linalg.norm(x_newton - x_exact)))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 5.0
    report(7, "inner-solver equivalence", ok,
           f"max per-step deviation {worst:.2e} (tol 1e-6), {elapsed:.1f}s (<5s)")


def test_criterion_8_heuristic_near_optimality(monkeypatch):
    # The criterion reads mmd2 alone, so the sweep's mmtv is not computed.
    monkeypatch.setattr("thetalangevin.diagnostics.mmtv", lambda *args: math.nan)
    start = time.perf_counter()
    seed = 0
    target = build_gaussian_target(100, 100.0, seed)
    _, big_m = target.convexity_bounds()
    q_eigs = 1.0 / np.linalg.eigvalsh(target.covariance)
    h_half = step_size_heuristic(q_eigs, 0.5)
    grid = np.geomspace(4.0 / (100.0 * big_m), 100.0 * h_half, 20)
    config = ExperimentConfig(
        kind="gaussian", dim=100, kappa=100.0, thetas=(0.0, 0.5),
        h_values=tuple(sorted(set(grid) | {h_half})), n_samples=5000,
        seed=seed, thin=1,
    )
    rows = run_sweep(config)
    at_heuristic = next(r.mmd2 for r in rows if r.theta == 0.5 and r.h == h_half)
    grid_min = min(r.mmd2 for r in rows if r.theta == 0.5 and not r.diverged)
    explicit_rows = [r.mmd2 for r in rows
                     if r.theta == 0.0 and r.h < 4.0 / big_m and not r.diverged]
    best_explicit = min(explicit_rows)
    elapsed = time.perf_counter() - start
    ok = (at_heuristic <= 1.5 * grid_min and at_heuristic < best_explicit
          and elapsed < 300.0)
    report(8, "step-size heuristic near-optimal", ok,
           f"mmd2 at h_hat {at_heuristic:.3e} vs grid min {grid_min:.3e} "
           f"(ratio {at_heuristic / grid_min:.2f} <= 1.5) and best explicit "
           f"{best_explicit:.3e}, {elapsed:.0f}s (<300s)")


def test_criterion_9_logistic_spectral_bounds():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    features = rng.standard_normal((200, 9)) * rng.uniform(0.5, 3.0, size=9) + 1.0
    design = standardize_design(features)
    assert design.shape == (200, 10)
    truth = rng.standard_normal(10)
    labels = (rng.random(200) < 1.0 / (1.0 + np.exp(-design @ truth))).astype(float)
    lam = 1.0
    target = LogisticRegressionTarget(design, labels, prior_precision=lam)
    norm_sq = np.linalg.norm(design, 2) ** 2
    low, high = lam - 1e-8, norm_sq / 4.0 + lam + 1e-8
    worst_low, worst_high = math.inf, -math.inf
    for _ in range(20):
        x = rng.standard_normal(10)
        eigs = np.linalg.eigvalsh(target.hessian(x))
        worst_low = min(worst_low, eigs[0])
        worst_high = max(worst_high, eigs[-1])
    elapsed = time.perf_counter() - start
    ok = worst_low >= low and worst_high <= high and elapsed < 1.0
    report(9, "logistic spectral bounds", ok,
           f"eigenvalues in [{worst_low:.4f}, {worst_high:.4f}] within "
           f"[{low:.4f}, {high:.4f}], {elapsed:.2f}s (<1s)")


def test_criterion_10_diagnostics_calibration():
    start = time.perf_counter()
    rng = np.random.default_rng(0)
    same_a = SampleSet(rng.standard_normal((5000, 5)))
    same_b = SampleSet(rng.standard_normal((5000, 5)))
    null_mmtv = mmtv(same_a, same_b)

    shifted_p = SampleSet(rng.standard_normal((5000, 1)))
    shifted_q = SampleSet(rng.standard_normal((5000, 1)) + 0.5)
    tv_oracle = 2.0 * stats.norm.cdf(0.25) - 1.0
    shift_err = abs(mmtv(shifted_p, shifted_q) - tv_oracle)

    sym_worst, min_value = 0.0, math.inf
    for _ in range(100):
        n, m, d = rng.integers(5, 50), rng.integers(5, 50), rng.integers(1, 4)
        p = SampleSet(rng.standard_normal((n, d)))
        q = SampleSet(rng.standard_normal((m, d)) + rng.normal())
        sigma = float(rng.uniform(0.3, 3.0))
        forward, backward = mmd2(p, q, sigma), mmd2(q, p, sigma)
        sym_worst = max(sym_worst, abs(forward - backward))
        min_value = min(min_value, forward)
    elapsed = time.perf_counter() - start
    ok = (null_mmtv < 0.05 and shift_err < 0.03 and sym_worst < 1e-12
          and min_value >= -1e-12 and elapsed < 30.0)
    report(10, "diagnostics calibration", ok,
           f"null MMTV {null_mmtv:.4f} (<0.05), shifted-Gaussian error "
           f"{shift_err:.4f} (<0.03), MMD symmetry {sym_worst:.1e}, "
           f"min MMD {min_value:.1e}, {elapsed:.1f}s (<30s)")


def test_criterion_11_kernel_normalization():
    start = time.perf_counter()
    gaussian = GaussianTarget(np.zeros(1), np.eye(1))
    rows = np.array([[1.0], [-0.6], [0.3]])
    logistic = LogisticRegressionTarget(rows, np.array([1.0, 0.0, 1.0]), 1.0)
    worst = 0.0
    x = np.array([0.7])
    for target in (gaussian, logistic):
        for theta in (0.0, 0.5, 1.0):
            for h in (0.1, 1.0, 10.0):
                if theta == 0.0:
                    center = explicit_predictor(target, x, np.zeros(1), 0.0, h)
                elif isinstance(target, GaussianTarget):
                    center = ila_step_gaussian(target, x, np.zeros(1), theta, h)
                else:
                    config = SamplerConfig(theta=theta, h=h, eps=1e-12, n_steps=1)
                    center, _ = iila_step(target, x, np.zeros(1), config)
                half_width = 14.0 * math.sqrt(h) + 4.0

                def density(ys):
                    return np.array([
                        math.exp(transition_log_density(target, np.array([y]), x, theta, h))
                        for y in np.atleast_1d(ys)
                    ])

                total, _ = gauss_kronrod(density, center[0] - half_width,
                                         center[0] + half_width, 1e-8)
                worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    report(11, "transition kernel normalization", ok,
           f"worst |integral - 1| = {worst:.2e} (tol 1e-6), {elapsed:.1f}s (<5s)")
