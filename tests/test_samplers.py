import gc
import math
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest

from thetalangevin import (
    GaussianTarget,
    NoiseStream,
    NumericalError,
    SamplerConfig,
    StabilityWarning,
    iila_step,
    ila_step_gaussian,
    run_chain,
    run_chains,
    transition_log_density,
    ula_step,
)
from thetalangevin import optim
from thetalangevin.cli import build_gaussian_target
from thetalangevin.optim import SolveProblem, newton_solve
from thetalangevin.samplers import (DIVERGENCE_THRESHOLD, NOISE_BLOCK, _gaussian_kernel,
                                    explicit_predictor)
from thetalangevin.targets import TargetDensity
from thetalangevin.theory import gaussian_stationary_covariance

from oracles import (bisect_root, cho_newton_solve, cholesky_gaussian_step, fd_gradient,
                     gauss_kronrod, noise_rows, subproblem_gradient)
from test_targets import make_logistic


def gaussian_1d(lam=1.0):
    return GaussianTarget(np.zeros(1), np.array([[lam]]))


# ---------------------------------------------------------------- noise stream

def test_noise_stream_deterministic_and_order_free():
    stream = NoiseStream(42, 3)
    again = NoiseStream(42, 3)
    np.testing.assert_array_equal(stream.block(1), again.block(1))
    np.testing.assert_array_equal(stream.block(0), again.block(0))
    assert not np.array_equal(stream.block(0)[0], stream.block(0)[1])


def test_noise_blocks_share_no_draws():
    # Philox at counter c + 1 repeats the stream at c shifted by four draws;
    # blocks must not start at adjacent counters.
    stream = NoiseStream(9, 4, stream=2)
    for b in (0, 1, 7):
        first, second = stream.block(b), stream.block(b + 1)
        assert first.shape == (NOISE_BLOCK, 4)
        assert not np.isin(second, first).any()


def test_noise_blocks_read_only():
    stream = NoiseStream(3, 2)
    for draws in (stream.block(0), stream.block(3)):
        assert not draws.flags.writeable
        with pytest.raises(ValueError):
            draws[0] = 1.0


def test_noise_golden_values():
    # Pins NOISE_BLOCK, the Philox key (seed, stream) and the counter layout.
    stream = NoiseStream(1, 3)
    np.testing.assert_array_equal(stream.block(0)[0],
                                  [1.02028797736073, 0.7597131895605167, -0.24583790273512823])
    np.testing.assert_array_equal(stream.block(1)[0],
                                  [0.3958225380089213, -0.05076228753447183, 0.2652247621415212])


def test_noise_keys_are_exact_for_seeds_past_int64_and_negative_seeds():
    # A key list read through float64 gave 2^63 + 5 and 2^63 + 6 one key,
    # and -1 and -3 (reduced mod 2^64) key 0, with a cast RuntimeWarning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((2**63 + 5, 2**63 + 6), (-1, -3)):
            assert not np.array_equal(NoiseStream(a, 3).block(0), NoiseStream(b, 3).block(0))
        np.testing.assert_array_equal(NoiseStream(-1, 3).block(0),
                                      NoiseStream(2**64 - 1, 3).block(0))


def test_noise_stream_moments():
    stream = NoiseStream(5, 3)
    draws = noise_rows(stream, 20_000)
    np.testing.assert_allclose(draws.mean(axis=0), 0.0, atol=0.025)
    np.testing.assert_allclose(np.cov(draws.T), np.eye(3), atol=0.03)


# ------------------------------------------------------------------- ula_step

def test_ula_fixed_point_at_mode():
    target = gaussian_1d()
    out = ula_step(target, np.zeros(1), np.zeros(1), 2.0)
    np.testing.assert_array_equal(out, np.zeros(1))


def test_ula_half_step():
    out = ula_step(gaussian_1d(), np.array([2.0]), np.zeros(1), 1.0)
    assert out[0] == pytest.approx(1.0, abs=1e-15)


def test_ula_oscillation_at_stability_edge():
    lam = 0.5
    out = ula_step(gaussian_1d(lam), np.array([3.0]), np.zeros(1), 4.0 / lam)
    assert out[0] == pytest.approx(-3.0, abs=1e-14)


# --------------------------------------------------------- closed-form implicit

def test_gaussian_step_returns_noise_exactly():
    target = GaussianTarget(np.zeros(4), np.eye(4))
    rng = np.random.default_rng(0)
    for _ in range(5):
        x, z = rng.standard_normal(4), rng.standard_normal(4)
        np.testing.assert_allclose(ila_step_gaussian(target, x, z, 0.5, 4.0), z,
                                   atol=1e-13)


def test_gaussian_step_theta_zero_equals_explicit():
    target = GaussianTarget(np.array([0.5, -1.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
    rng = np.random.default_rng(1)
    x, z = rng.standard_normal(2), rng.standard_normal(2)
    np.testing.assert_allclose(ila_step_gaussian(target, x, z, 0.0, 0.7),
                               ula_step(target, x, z, 0.7), atol=1e-13)


def test_gaussian_step_large_h_collapses_to_mean():
    mean = np.array([2.0, -3.0])
    target = GaussianTarget(mean, np.eye(2))
    out = ila_step_gaussian(target, np.array([40.0, 17.0]), np.zeros(2), 1.0, 1e12)
    np.testing.assert_allclose(out, mean, atol=1e-9)


EQUIVALENCE_THETAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def shifted_target(dim, kappa, seed):
    base = build_gaussian_target(dim, kappa, seed)
    mean = np.random.default_rng(seed).standard_normal(dim)
    return GaussianTarget(mean, base.precision)


def test_gaussian_step_matches_cholesky_oracle():
    targets = [build_gaussian_target(100, 100.0, seed=0),
               build_gaussian_target(10, 1e4, seed=1),
               shifted_target(10, 1e4, seed=2),
               GaussianTarget(np.array([0.5, -1.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))]
    rng = np.random.default_rng(3)
    worst = 0.0
    for target in targets:
        points = [(target.exact_sample(1, rng)[0], rng.standard_normal(target.dim))
                  for _ in range(3)]
        for theta in EQUIVALENCE_THETAS:
            for h in np.logspace(-4, 8, 13):
                oracle = cholesky_gaussian_step(target, theta, h)
                for x, z in points:
                    slow = oracle(x, z)
                    fast = ila_step_gaussian(target, x, z, theta, h)
                    worst = max(worst, np.linalg.norm(fast - slow) / np.linalg.norm(slow))
    assert worst <= 1e-12, worst


def cholesky_oracle_chain(target, x0, config):
    """run_chain's loop with the Cholesky oracle step: (samples, diverged)."""
    step = cholesky_gaussian_step(target, config.theta, config.h)
    noise = noise_rows(NoiseStream(config.seed, target.dim), config.n_steps)
    rows = [x0]
    for k in range(config.n_steps):
        rows.append(step(rows[-1], noise[k]))
        if not np.isfinite(rows[-1]).all() or np.linalg.norm(rows[-1]) > DIVERGENCE_THRESHOLD:
            return np.array(rows), True
    return np.array(rows), False


def test_run_chain_gaussian_matches_cholesky_oracle_chain():
    target = build_gaussian_target(20, 100.0, seed=4)
    _, big_m = target.convexity_bounds()
    x0 = np.ones(20)
    flags = set()
    for theta in EQUIVALENCE_THETAS:
        for h in (0.5 / big_m, 10.0 / big_m, 1e4 / big_m):
            config = SamplerConfig(theta=theta, h=h, n_steps=3000, seed=5)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", StabilityWarning)
                traj = run_chain(target, x0, config)
            slow, diverged = cholesky_oracle_chain(target, x0, config)
            assert traj.diverged == diverged
            assert traj.samples.shape == slow.shape
            rel = (np.linalg.norm(traj.samples - slow, axis=1)
                   / np.linalg.norm(slow, axis=1))
            assert rel.max() <= 1e-10, (theta, h, rel.max())
            flags.add(diverged)
    assert flags == {True, False}


def test_run_chain_gaussian_divergence_raises_no_runtime_warning():
    # |a| ~ 1500 overflows to inf within the first noise block; the chain must
    # still stop at the first row beyond the threshold, silently.
    target = GaussianTarget(np.zeros(3), np.diag([1.0, 2.0, 3.0]))
    config = SamplerConfig(theta=0.0, h=1e3, n_steps=2 * NOISE_BLOCK, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        warnings.simplefilter("error", RuntimeWarning)
        traj = run_chain(target, np.ones(3), config)
    slow, diverged = cholesky_oracle_chain(target, np.ones(3), config)
    assert traj.diverged and diverged
    assert traj.samples.shape == slow.shape
    assert traj.solver_iterations.shape == traj.grad_norms.shape == (slow.shape[0] - 1,)


@pytest.mark.parametrize("step", [1, NOISE_BLOCK, NOISE_BLOCK + 1, None],
                         ids=["first-step", "block-end", "next-block-start", "never"])
def test_run_chain_gaussian_diverges_at_the_oracle_step(step):
    # At h = 2.0746 the explicit step scales the top eigendirection by -1.0746
    # a step; x0 on it at 1e12 / 1.0746^(step - 1/2) first crosses the
    # threshold at that step. h = 0.5 is stable.
    target = GaussianTarget(np.zeros(2), np.diag([1.0, 2.0]))
    growth = 1.0746
    if step is None:
        x0, h = np.ones(2), 0.5
    else:
        x0, h = np.array([0.0, DIVERGENCE_THRESHOLD / growth ** (step - 0.5)]), 1.0 + growth
    config = SamplerConfig(theta=0.0, h=h, n_steps=2 * NOISE_BLOCK, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        traj = run_chain(target, x0, config)
    slow, diverged = cholesky_oracle_chain(target, x0, config)
    assert traj.diverged == diverged == (step is not None)
    assert len(traj.samples) == len(slow) == (step or config.n_steps) + 1
    rel = np.linalg.norm(traj.samples[-1] - slow[-1]) / np.linalg.norm(slow[-1])
    assert rel <= 1e-10, rel


def test_gaussian_kernel_memo_bounded_and_target_untouched():
    target = build_gaussian_target(6, 50.0, seed=6)
    attrs = dict(vars(target))
    snapshot = {name: np.copy(value) for name, value in attrs.items()}
    maxsize = _gaussian_kernel.cache_info().maxsize
    x, z = np.ones(6), np.full(6, 0.5)
    for theta in np.linspace(0.0, 1.0, 10):
        for h in np.logspace(-3, 3, 10):
            ila_step_gaussian(target, x, z, theta, h)
            assert _gaussian_kernel.cache_info().currsize <= maxsize
    assert _gaussian_kernel.cache_info().currsize == maxsize
    assert vars(target).keys() == attrs.keys()
    for name, value in vars(target).items():
        assert value is attrs[name]
        np.testing.assert_array_equal(value, snapshot[name])
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable
    ref = weakref.ref(target)
    del target, attrs
    gc.collect()
    assert ref() is None


# ------------------------------------------------------------------- iila_step

def test_iila_matches_closed_form_on_gaussian():
    target = GaussianTarget(np.zeros(3), np.diag([0.5, 1.0, 3.0]))
    config = SamplerConfig(theta=0.75, h=2.0, eps=1e-10, n_steps=1, seed=0)
    rng = np.random.default_rng(8)
    for _ in range(10):
        x, z = rng.standard_normal(3), rng.standard_normal(3)
        exact = ila_step_gaussian(target, x, z, 0.75, 2.0)
        approx, stats = iila_step(target, x, z, config)
        assert stats.converged
        assert np.linalg.norm(approx - exact) < 1e-8


def test_iila_fixed_point_at_mode():
    target = make_logistic(seed=3)
    from thetalangevin import mode
    x_star = mode(target)
    config = SamplerConfig(theta=0.6, h=1.5, eps=1e-9, n_steps=1, seed=0)
    out, _ = iila_step(target, x_star, np.zeros(target.dim), config)
    m, _ = target.convexity_bounds()
    mu_sub = 0.6 * m + 2.0 / 1.5
    assert np.linalg.norm(out - x_star) <= 2.0 * config.eps / mu_sub


def test_iila_matches_bisection_on_1d_logistic():
    from thetalangevin import LogisticRegressionTarget

    target = LogisticRegressionTarget(np.array([[1.0], [-0.5]]), np.array([1.0, 0.0]), 1.0)
    theta, h = 1.0, 2.0
    config = SamplerConfig(theta=theta, h=h, eps=1e-12, n_steps=1, seed=0)
    x, z = np.array([0.8]), np.array([0.3])
    out, _ = iila_step(target, x, z, config)
    v = explicit_predictor(target, x, z, theta, h)

    def sub_grad(u):
        return theta * target.gradient(np.array([u]))[0] + (2.0 / h) * (u - v[0])

    root = bisect_root(sub_grad, -20.0, 20.0, tol=1e-12)
    assert abs(out[0] - root) < 1e-8


def test_iila_requires_positive_eps_and_theta():
    target = make_logistic()
    with pytest.raises(ValueError):
        iila_step(target, np.zeros(target.dim), np.zeros(target.dim),
                  SamplerConfig(theta=0.5, h=1.0, eps=0.0, n_steps=1))
    with pytest.raises(ValueError):
        iila_step(target, np.zeros(target.dim), np.zeros(target.dim),
                  SamplerConfig(theta=0.0, h=1.0, eps=1e-9, n_steps=1))


# ---------------------------------------------------------- subproblem gradient

def test_subproblem_gradient_zero_at_consistent_point():
    target = gaussian_1d()
    out = subproblem_gradient(target, np.zeros(1), np.zeros(1), 0.7, 2.0)
    np.testing.assert_array_equal(out, np.zeros(1))


def test_subproblem_gradient_matches_finite_differences():
    target = make_logistic(n_obs=20, dim=3, seed=5)
    rng = np.random.default_rng(6)
    u, v = rng.standard_normal(3), rng.standard_normal(3)
    theta, h = 0.4, 1.7

    def objective(w):
        return theta * target.value(w) + np.dot(w - v, w - v) / h

    grad = subproblem_gradient(target, u, v, theta, h)
    fd = fd_gradient(objective, u)
    assert np.linalg.norm(grad - fd) <= 1e-5 * max(1.0, np.linalg.norm(grad))


def test_subproblem_gradient_theta_zero_pure_proximity():
    target = make_logistic(n_obs=10, dim=2, seed=7)
    rng = np.random.default_rng(7)
    u, v = rng.standard_normal(2), rng.standard_normal(2)
    np.testing.assert_allclose(subproblem_gradient(target, u, v, 0.0, 0.5),
                               4.0 * (u - v), atol=1e-14)


# ------------------------------------------------------ transition log density

def test_transition_density_theta_zero_is_gaussian():
    target = make_logistic(n_obs=15, dim=2, seed=9)
    rng = np.random.default_rng(10)
    x, y = rng.standard_normal(2), rng.standard_normal(2)
    h = 0.8
    mean = x - 0.5 * h * target.gradient(x)
    expected = (-np.log(2 * np.pi * h) - np.dot(y - mean, y - mean) / (2 * h))
    assert transition_log_density(target, y, x, 0.0, h) == pytest.approx(expected, abs=1e-12)


def test_transition_density_hand_value():
    # 1-d unit-curvature quadratic, theta=1, h=2, x=y=0:
    # determinant factor 1 + h*theta/2 = 2, Gaussian factor N(0; 0, 2).
    target = gaussian_1d()
    expected = math.log(2.0) - 0.5 * math.log(2.0 * math.pi * 2.0)
    assert transition_log_density(target, np.zeros(1), np.zeros(1), 1.0, 2.0) == \
        pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("h", [0.1, 1.0, 10.0])
def test_transition_density_normalizes_1d(theta, h):
    target = gaussian_1d(0.7)
    x = np.array([0.9])
    if theta == 0.0:
        center = x - 0.5 * h * target.gradient(x)
    else:
        center = ila_step_gaussian(target, x, np.zeros(1), theta, h)
    half_width = 14.0 * math.sqrt(h) + 3.0

    def density(ys):
        return np.array([
            math.exp(transition_log_density(target, np.array([y]), x, theta, h))
            for y in np.atleast_1d(ys)
        ])

    total, _ = gauss_kronrod(density, center[0] - half_width, center[0] + half_width,
                             1e-9)
    assert total == pytest.approx(1.0, abs=1e-6)


# ------------------------------------------------------------------- run_chain

def test_run_chain_zero_steps():
    target = gaussian_1d()
    traj = run_chain(target, np.array([0.4]), SamplerConfig(theta=0.5, h=1.0, n_steps=0))
    assert traj.samples.shape == (1, 1)
    assert traj.samples[0, 0] == 0.4
    assert not traj.diverged


def test_run_chain_bit_identical_reruns():
    target = GaussianTarget(np.zeros(2), np.array([[1.0, 0.2], [0.2, 2.0]]))
    config = SamplerConfig(theta=0.5, h=1.3, n_steps=200, seed=21)
    first = run_chain(target, np.zeros(2), config)
    second = run_chain(target, np.zeros(2), config)
    np.testing.assert_array_equal(first.samples, second.samples)


def test_run_chain_ula_transient_beyond_stability():
    target = gaussian_1d()
    config = SamplerConfig(theta=0.0, h=8.0, n_steps=200, seed=1)
    with pytest.warns(StabilityWarning):
        traj = run_chain(target, np.array([1.0]), config)
    assert traj.diverged
    assert traj.samples.shape[0] <= 201
    assert np.all(np.isfinite(traj.samples[:-1]))


@pytest.mark.parametrize("theta", [0.0, 0.5, 1.0])
def test_run_chain_matches_manual_step_loop(theta):
    n = NOISE_BLOCK + 50  # crosses a noise block boundary
    target = make_logistic(n_obs=25, dim=3, seed=13)
    config = SamplerConfig(theta=theta, h=0.02, n_steps=n, seed=33)
    traj = run_chain(target, np.zeros(3), config)
    noise = noise_rows(NoiseStream(33, 3), n)
    x = np.zeros(3)
    iterations, grad_norms = np.zeros(n, dtype=int), np.zeros(n)
    for k in range(n):
        if theta == 0.0:
            x = ula_step(target, x, noise[k], 0.02)
        else:
            x, stats = iila_step(target, x, noise[k], config)
            iterations[k], grad_norms[k] = stats.iterations, stats.grad_norm
        np.testing.assert_array_equal(traj.samples[k + 1], x)
    np.testing.assert_array_equal(traj.solver_iterations, iterations)
    np.testing.assert_array_equal(traj.grad_norms, grad_norms)


def _assert_rows_match_lone_chains(target, configs, thin=1, burn_in=0):
    """The gate for batched chains: each row of run_chains has its lone
    run_chain's diverged flag, steps and inner iterations at every step, and
    its kept samples within 1e-10 relative; a diverged row ends with the
    offending iterate."""
    x0 = np.full(target.dim, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        batch = run_chains(target, x0, configs, thin=thin, burn_in=burn_in)
        lone = [run_chain(target, x0, config) for config in configs]
    for row, alone in zip(batch, lone):
        assert row.samples.base.shape[1] <= (configs[0].n_steps - burn_in) // thin + 2
        assert row.diverged == alone.diverged
        assert row.n_steps == alone.n_steps
        np.testing.assert_array_equal(row.solver_iterations, alone.solver_iterations)
        assert (row.grad_norms <= configs[0].eps).all()
        expected = alone.samples[burn_in::thin]
        if alone.diverged and (alone.n_steps < burn_in or (alone.n_steps - burn_in) % thin):
            expected = np.vstack([expected, alone.samples[-1]])
        assert row.samples.shape == expected.shape
        distance = np.linalg.norm(row.samples - expected, axis=1)
        assert (distance <= 1e-10 * np.linalg.norm(expected, axis=1)).all()
    return batch


@pytest.mark.parametrize("thin, burn_in", [(1, 0), (3, 5)])
def test_run_chains_row_diverging_mid_block_leaves_other_rows_as_alone(thin, burn_in):
    # h = 4.12 diverges at step 374, inside the second noise block; the other
    # rows run on across two block boundaries without it.
    target = make_logistic(n_obs=25, dim=3, seed=13)
    configs = [SamplerConfig(theta=0.0, h=h, n_steps=3 * NOISE_BLOCK, seed=33)
               for h in (0.02, 4.12, 0.3, 1.5)]
    batch = _assert_rows_match_lone_chains(target, configs, thin, burn_in)
    assert [row.diverged for row in batch] == [False, True, False, False]
    assert NOISE_BLOCK < batch[1].n_steps < 2 * NOISE_BLOCK
    assert batch[0].samples.shape == ((3 * NOISE_BLOCK - burn_in) // thin + 1, 3)


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_run_chains_newton_rows_match_lone_chains(theta):
    target = make_logistic(n_obs=60, dim=4, seed=17)
    big_m = target.convexity_bounds()[1]
    configs = [SamplerConfig(theta=theta, h=h, eps=1e-9, n_steps=NOISE_BLOCK + 40, seed=8)
               for h in (0.02, 0.5 / big_m, 50.0 / big_m, 3.0)]
    batch = _assert_rows_match_lone_chains(target, configs)
    # The rows take different numbers of Newton iterations, so rows leave the
    # batch's solve at different iterations.
    assert len({int(row.solver_iterations.sum()) for row in batch}) > 1


def test_run_chains_rejects_mixed_configs():
    target = make_logistic(n_obs=10, dim=2, seed=15)
    configs = [SamplerConfig(theta=theta, h=0.1, n_steps=3) for theta in (0.5, 1.0)]
    with pytest.raises(ValueError, match="must share theta"):
        run_chains(target, np.zeros(2), configs)
    assert run_chains(target, np.zeros(2), []) == []


def _n_keep(n, thin, burn_in):
    """States after burn_in + j * thin steps, j = 0, 1, ..., of n steps."""
    return (n - burn_in) // thin + 1 if n >= burn_in else 0


def _sliced_full_chain(target, x0, config, thin, burn_in):
    """The oracle of thinned Gaussian chains: run_chain's every state, sliced
    [burn_in::thin], then a diverged chain's offending iterate if its step
    is not kept. Returns the full trajectory and the expected samples."""
    full = run_chain(target, x0, config)
    expected = full.samples[burn_in::thin]
    if full.diverged and (full.n_steps < burn_in or (full.n_steps - burn_in) % thin):
        expected = np.vstack([expected, full.samples[-1]])
    return full, expected


def _assert_bit_equal_and_held_alone(trajectory, full, expected, n_keep):
    assert trajectory.diverged == full.diverged
    assert trajectory.n_steps == full.n_steps
    assert trajectory.samples.shape == expected.shape
    assert trajectory.samples.tobytes() == np.ascontiguousarray(expected).tobytes()
    # Only the kept states, and one spare row, are ever allocated: the chains
    # of one call share a (B, n_keep + 1, d) array.
    assert trajectory.samples.base.shape[-2] <= n_keep + 1


@pytest.mark.parametrize("step, thin, burn_in", [
    (None, 1, 0), (None, 7, 13), (None, 3, NOISE_BLOCK + 4), (None, NOISE_BLOCK + 44, 5),
    (None, 2, 3 * NOISE_BLOCK),  # burn_in past n_steps: nothing is kept
    (100, 10, 20), (101, 10, 20),  # divergence at a kept and an unkept step
    (NOISE_BLOCK, 5, 1), (NOISE_BLOCK + 1, 5, 1),  # at a block's end (kept) and next start
    (NOISE_BLOCK, 1, 0), (NOISE_BLOCK + 1, 1, 0),
    (50, 3, 2 * NOISE_BLOCK),  # divergence during burn-in
], ids=str)
def test_gaussian_run_chains_matches_sliced_full_chain_bit_for_bit(step, thin, burn_in):
    # The explicit step at h = 2.0746 scales the top eigendirection by
    # -1.0746 a step, and x0 on it at 1e12 / 1.0746^(step - 1/2) first crosses
    # the divergence threshold at that step. h = 0.5 is stable.
    target = GaussianTarget(np.zeros(2), np.diag([1.0, 2.0]))
    growth = 1.0746
    if step is None:
        x0, h = np.ones(2), 0.5
    else:
        x0, h = np.array([0.0, DIVERGENCE_THRESHOLD / growth ** (step - 0.5)]), 1.0 + growth
    config = SamplerConfig(theta=0.0, h=h, n_steps=2 * NOISE_BLOCK + 37, seed=1)
    # The same chain beside a stable companion in one batch: a chain that
    # diverged in an earlier block must not be written again.
    companion = replace(config, h=0.5)
    n_keep = _n_keep(config.n_steps, thin, burn_in)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        full, expected = _sliced_full_chain(target, x0, config, thin, burn_in)
        [trajectory] = run_chains(target, x0, [config], thin=thin, burn_in=burn_in)
        batch = run_chains(target, x0, [config, companion], thin=thin, burn_in=burn_in)
        companion_full, companion_expected = _sliced_full_chain(target, x0, companion, thin,
                                                                burn_in)
    assert full.diverged == (step is not None)
    assert full.n_steps == (step or config.n_steps)
    assert not companion_full.diverged
    _assert_bit_equal_and_held_alone(trajectory, full, expected, n_keep)
    _assert_bit_equal_and_held_alone(batch[0], full, expected, n_keep)
    _assert_bit_equal_and_held_alone(batch[1], companion_full, companion_expected, n_keep)


@pytest.mark.parametrize("thin, burn_in", [(1, 0), (7, 13), (50, NOISE_BLOCK)])
def test_gaussian_run_chains_batch_matches_sliced_full_chains(thin, burn_in):
    # Every theta, stable and diverging step sizes, several configs a call.
    target = build_gaussian_target(20, 100.0, seed=4)
    big_m = target.convexity_bounds()[1]
    x0 = np.ones(20)
    for theta in (0.0, 0.5, 1.0):
        configs = [SamplerConfig(theta=theta, h=h, n_steps=3 * NOISE_BLOCK + 11, seed=5)
                   for h in (0.5 / big_m, 10.0 / big_m, 1e4 / big_m)]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StabilityWarning)
            batch = run_chains(target, x0, configs, thin=thin, burn_in=burn_in)
            for trajectory, config in zip(batch, configs):
                full, expected = _sliced_full_chain(target, x0, config, thin, burn_in)
                _assert_bit_equal_and_held_alone(trajectory, full, expected,
                                                 _n_keep(config.n_steps, thin, burn_in))
        assert [t.diverged for t in batch] == [False, theta < 0.5, theta < 0.5]


def test_gaussian_chains_need_no_subproblem_tolerance():
    # The closed form solves each implicit step exactly, so eps = 0 runs.
    target = build_gaussian_target(4, 10.0, seed=2)
    config = SamplerConfig(theta=0.5, h=0.3, eps=0.0, n_steps=40, seed=3)
    lone = run_chain(target, np.zeros(4), config)
    [thinned] = run_chains(target, np.zeros(4), [config], thin=4, burn_in=2)
    assert lone.n_steps == thinned.n_steps == 40 and not lone.diverged
    np.testing.assert_array_equal(thinned.samples, lone.samples[2::4])
    default_eps = run_chain(target, np.zeros(4), SamplerConfig(theta=0.5, h=0.3, n_steps=40,
                                                               seed=3))
    np.testing.assert_array_equal(lone.samples, default_eps.samples)


def test_run_chain_common_noise_across_grid():
    # With Q = I each step is x_{k+1} = a x_k + b z_k, so every grid chain's
    # noise can be recovered and checked against the shared stream.
    target = GaussianTarget(np.zeros(2), np.eye(2))
    n = NOISE_BLOCK + 5  # crosses a noise block boundary
    noise = noise_rows(NoiseStream(77, 2), n)
    for theta, h in [(0.0, 0.5), (0.5, 2.0), (1.0, 10.0)]:
        config = SamplerConfig(theta=theta, h=h, n_steps=n, seed=77)
        samples = run_chain(target, np.ones(2), config).samples
        a = (1.0 - 0.5 * h * (1.0 - theta)) / (1.0 + 0.5 * h * theta)
        b = np.sqrt(h) / (1.0 + 0.5 * h * theta)
        for k in range(n):
            z = (samples[k + 1] - a * samples[k]) / b
            np.testing.assert_allclose(z, noise[k], rtol=0, atol=1e-12)


def test_run_chain_rejects_noise_of_other_dimension():
    target = make_logistic(n_obs=10, dim=2, seed=15)
    config = SamplerConfig(theta=0.0, h=0.1, n_steps=3, seed=4)
    with pytest.raises(ValueError, match=r"noise dimension 1 != target dimension 2"):
        run_chain(target, np.zeros(2), config, noise=NoiseStream(4, 1))


def test_run_chain_rejects_exact_solve_request_off_gaussian():
    target = make_logistic()
    config = SamplerConfig(theta=0.5, h=1.0, eps=0.0, n_steps=3)
    with pytest.raises(ValueError):
        run_chain(target, np.zeros(target.dim), config)


def test_run_chain_aborts_on_inner_solver_failure():
    from thetalangevin import NumericalError

    target = make_logistic(n_obs=10, dim=2, seed=15)
    config = SamplerConfig(theta=1.0, h=1.0, eps=1e-300, n_steps=5, seed=2)
    with pytest.raises(NumericalError,
                       match=r"inner solver failed at theta=1\.0, h=1\.0, step 0: "):
        run_chain(target, np.zeros(2), config)


class _BrokenHessianTarget(TargetDensity):
    """2-d target with gradient x and a fixed, possibly invalid, Hessian."""

    dim = 2

    def __init__(self, hessian):
        self._hess = np.asarray(hessian, dtype=float)

    def _gradient(self, x, shared=None):
        return np.array(x, dtype=float)

    def _hessian(self, x, shared=None):
        return np.broadcast_to(self._hess, x.shape[:-1] + self._hess.shape)

    def convexity_bounds(self):
        return 1.0, 1.0


@pytest.mark.parametrize("hessian, reason", [
    (-10.0 * np.eye(2), "Cholesky factorization failed at iteration 0; "
                        "Hessian is not positive definite"),
    (np.full((2, 2), np.nan), "Newton step is not finite at iteration 0"),
], ids=["indefinite", "nan"])
def test_run_chain_names_grid_point_on_newton_failures(hessian, reason):
    target = _BrokenHessianTarget(hessian)
    config = SamplerConfig(theta=1.0, h=1.0, n_steps=5, seed=2)
    with pytest.raises(NumericalError) as excinfo:
        run_chain(target, np.zeros(2), config)
    assert str(excinfo.value) == f"inner solver failed at theta=1.0, h=1.0, step 0: {reason}"
    assert isinstance(excinfo.value.__cause__, NumericalError)
    assert str(excinfo.value.__cause__) == reason


def test_run_chains_names_the_row_whose_newton_solve_fails():
    # With Hessian -I the subproblem Hessian theta H + (2/h) I is indefinite
    # only for h > 2 / theta: the batch's second row, at h = 5.
    target = _BrokenHessianTarget(-np.eye(2))
    configs = [SamplerConfig(theta=1.0, h=h, n_steps=5, seed=2) for h in (0.1, 5.0, 0.2)]
    with pytest.raises(NumericalError, match=r"inner solver failed at theta=1\.0, h=5\.0, "
                                             r"step 0: Cholesky factorization failed"):
        run_chains(target, np.zeros(2), configs)
    run_chains(target, np.zeros(2), configs[::2])


def test_newton_on_public_linalg_wrappers_matches_private_gufuncs(monkeypatch):
    # A numpy without the private LAPACK gufuncs runs np.linalg.cholesky and
    # np.linalg.solve instead: the same iterations, samples within 1e-10
    # relative, and the same failures, in chains and in newton_solve.
    target = make_logistic(n_obs=60, dim=4, seed=17)
    configs = [SamplerConfig(theta=0.5, h=h, n_steps=40, seed=8) for h in (0.02, 0.5, 3.0)]
    gufuncs = run_chains(target, np.zeros(4), configs)
    monkeypatch.setattr(optim, "_cholesky", optim._cholesky_public)
    monkeypatch.setattr(optim, "_solve", optim._solve_public)
    for row, alone in zip(run_chains(target, np.zeros(4), configs), gufuncs):
        np.testing.assert_array_equal(row.solver_iterations, alone.solver_iterations)
        distance = np.linalg.norm(row.samples - alone.samples, axis=1)
        assert (distance <= 1e-10 * np.linalg.norm(alone.samples, axis=1)).all()
    configs = [SamplerConfig(theta=1.0, h=h, n_steps=5, seed=2) for h in (0.1, 5.0)]
    for hessian, reason in ((-np.eye(2), "h=5.0, step 0: Cholesky factorization failed"),
                            (np.full((2, 2), np.nan), "h=0.1, step 0: Newton step is not finite")):
        with pytest.raises(NumericalError, match=reason):
            run_chains(_BrokenHessianTarget(hessian), np.zeros(2), configs)
    for hessian, reason in (
            (lambda x: -np.eye(2), "Cholesky factorization failed at iteration 0"),
            (lambda x: 2.0 * np.eye(2) if x[0] == 0.0 else np.full((2, 2), np.nan),
             "Newton step is not finite at iteration 1")):
        problem = SolveProblem(gradient=lambda x: x - 1.0, hessian=hessian, x0=np.zeros(2),
                               tol=1e-10)
        with pytest.raises(NumericalError, match=reason):
            newton_solve(problem)


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_newton_from_current_point_beats_predictor_start_at_large_h(theta):
    # At h M >= 50 the explicit predictor v is a poor start. The chain's Newton
    # solves start at the current point and must take fewer iterations in
    # total than the oracle started at v on the same subproblems.
    target = make_logistic(n_obs=60, dim=4, seed=17)
    h, eps = 50.0 / target.convexity_bounds()[1], 1e-9
    config = SamplerConfig(theta=theta, h=h, eps=eps, n_steps=40, seed=8)
    traj = run_chain(target, np.zeros(4), config)
    assert not traj.diverged
    noise = noise_rows(NoiseStream(8, 4), config.n_steps)
    oracle_total = 0
    for k in range(config.n_steps):
        x = traj.samples[k]
        v = explicit_predictor(target, x, noise[k], theta, h)
        oracle = cho_newton_solve(SolveProblem(
            gradient=lambda u: subproblem_gradient(target, u, v, theta, h),
            hessian=lambda u: theta * target.hessian(u) + (2.0 / h) * np.eye(4),
            x0=v, tol=eps))
        assert oracle.converged
        # Both points are within eps / (2/h) of the subproblem's minimizer.
        np.testing.assert_allclose(traj.samples[k + 1], oracle.x, rtol=0, atol=h * eps)
        oracle_total += oracle.iterations
    assert traj.solver_iterations.sum() < oracle_total


def test_exactness_equivalence_chain():
    # Inexact implicit chain tracks the closed form under shared noise.
    target = GaussianTarget.from_covariance(
        np.zeros(5), np.diag([1.0, 0.5, 0.25, 0.1, 0.01]))
    config = SamplerConfig(theta=0.75, h=1.0, eps=1e-10, n_steps=1, seed=11)
    x_exact = np.zeros(5)
    x_newton = np.zeros(5)
    worst = 0.0
    for z in noise_rows(NoiseStream(11, 5), 100):
        x_exact = ila_step_gaussian(target, x_exact, z, 0.75, 1.0)
        x_newton, stats = iila_step(target, x_newton, z, config)
        assert stats.converged
        worst = max(worst, float(np.linalg.norm(x_newton - x_exact)))
    assert worst < 1e-6


@pytest.mark.parametrize("theta", [0.5, 1.0])
def test_geometric_ergodicity_smoke(theta):
    from thetalangevin import SpectralModel, exp_decay_spectrum, random_correlation

    lam = exp_decay_spectrum(SpectralModel(d=10, m=1.0, M=100.0))
    corr = random_correlation(lam, seed=5)
    target = GaussianTarget.from_covariance(np.zeros(10), corr)
    for h in (1.0, 10.0, 100.0, 1000.0):
        config = SamplerConfig(theta=theta, h=h, n_steps=10_000, seed=6)
        traj = run_chain(target, np.zeros(10), config)
        assert not traj.diverged
        max_norm = np.linalg.norm(traj.samples, axis=1).max()
        assert max_norm < 100.0 * math.sqrt(10)


def test_stationary_covariance_law():
    cov = np.array([[1.0, 0.6], [0.6, 2.0]])
    target = GaussianTarget.from_covariance(np.zeros(2), cov)
    for theta, h in [(0.5, 5.0), (1.0, 2.0)]:
        config = SamplerConfig(theta=theta, h=h, n_steps=200_000, seed=9)
        traj = run_chain(target, np.zeros(2), config)
        empirical = np.cov(traj.samples[1000:].T)
        expected = gaussian_stationary_covariance(cov, theta, h)
        rel = np.linalg.norm(empirical - expected) / np.linalg.norm(expected)
        assert rel < 0.05


def test_config_validation():
    with pytest.raises(ValueError):
        SamplerConfig(theta=1.2, h=1.0)
    with pytest.raises(ValueError):
        SamplerConfig(theta=0.5, h=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(theta=0.5, h=1.0, eps=-1.0)
    with pytest.raises(ValueError, match="subproblem tolerance must be >= 0, got nan"):
        SamplerConfig(theta=0.5, h=1.0, eps=math.nan)
    with pytest.raises(ValueError):
        SamplerConfig(theta=0.5, h=1.0, n_steps=-1)
    for n_steps in (math.nan, 2.5):
        with pytest.raises(ValueError, match=f"number of steps must be .*, got {n_steps}"):
            SamplerConfig(theta=0.5, h=1.0, n_steps=n_steps)
    assert SamplerConfig(theta=0.5, h=1.0, n_steps=np.int64(3)).n_steps == 3


@pytest.mark.parametrize("thin, burn_in", [(math.nan, 0), (2.5, 0), (0, 0),
                                           (1, math.nan), (1, 2.5), (1, -1)])
def test_run_chains_rejects_non_integer_thin_and_burn_in(thin, burn_in):
    target = make_logistic(n_obs=10, dim=2, seed=15)
    config = SamplerConfig(theta=0.5, h=0.1, n_steps=3)
    with pytest.raises(ValueError, match=f"thin >= 1 and burn_in >= 0, got {thin} and {burn_in}"):
        run_chains(target, np.zeros(2), [config], thin=thin, burn_in=burn_in)


@pytest.mark.parametrize("theta, h, message", [
    (2.0, 1.0, r"theta must lie in \[0, 1\], got 2\.0"),
    (-0.5, 1.0, r"theta must lie in \[0, 1\], got -0\.5"),
    (0.5, -1.0, r"step size must be positive, got -1\.0"),
    (0.5, 0.0, r"step size must be positive, got 0\.0"),
    (0.5, math.inf, r"step size must be finite, got inf"),
    (0.5, math.nan, r"step size must be positive, got nan"),
    (math.nan, 1.0, r"theta must lie in \[0, 1\], got nan"),
], ids=["theta-above-one", "theta-below-zero", "h-negative", "h-zero", "h-infinite", "h-nan",
        "theta-nan"])
def test_step_functions_reject_theta_and_h_like_config(theta, h, message):
    target = gaussian_1d()
    x, z = np.array([0.3]), np.array([-0.2])
    calls = [
        lambda: SamplerConfig(theta=theta, h=h),
        lambda: ila_step_gaussian(target, x, z, theta, h),
        lambda: explicit_predictor(target, x, z, theta, h),
        lambda: transition_log_density(target, x, z, theta, h),
    ]
    if theta == 0.5:
        calls.append(lambda: ula_step(target, x, z, h))
    for call in calls:
        with pytest.raises(ValueError, match=message):
            call()


def test_step_functions_accept_large_finite_points_and_reject_non_finite():
    # [1e200] squares to inf, so a check through x @ x would refuse it or warn.
    target = gaussian_1d()
    big, z = np.array([1e200]), np.array([-0.2])
    np.testing.assert_array_equal(ula_step(target, big, z, 1.0), 0.5 * big + z)
    for x in (big, z):
        assert np.isfinite(ila_step_gaussian(target, x, z, 0.5, 1.0)).all()
        assert np.isfinite(explicit_predictor(target, x, z, 0.5, 1.0)).all()
        np.testing.assert_array_equal(target.gradient(x), x)
    for bad in (np.array([math.nan]), np.array([math.inf])):
        calls = [
            lambda: ila_step_gaussian(target, bad, z, 0.5, 1.0),
            lambda: ila_step_gaussian(target, z, bad, 0.5, 1.0),
            lambda: explicit_predictor(target, bad, z, 0.5, 1.0),
            lambda: ula_step(target, z, bad, 1.0),
            lambda: transition_log_density(target, bad, z, 0.5, 1.0),
            lambda: target.gradient(bad),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="input point contains non-finite entries"):
                call()


def test_stability_warning_only_in_unstable_regime():
    target = gaussian_1d()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_chain(target, np.zeros(1), SamplerConfig(theta=0.5, h=100.0, n_steps=2))
        run_chain(target, np.zeros(1), SamplerConfig(theta=0.0, h=1.0, n_steps=2))


def test_stability_warning_names_the_callers_line():
    # A lone logistic chain runs as a batch of one; its warning still names
    # the line that called run_chain, as a Gaussian chain's does.
    config = SamplerConfig(theta=0.0, h=100.0, n_steps=2)
    logistic = make_logistic(n_obs=10, dim=1, seed=15)
    for call in (lambda: run_chain(gaussian_1d(), np.zeros(1), config),
                 lambda: run_chain(logistic, np.zeros(1), config),
                 lambda: run_chains(logistic, np.zeros(1), [config]),
                 lambda: run_chains(gaussian_1d(), np.zeros(1), [config])):
        with pytest.warns(StabilityWarning) as record:
            call()
        assert record[0].filename == __file__
        # The line of the call itself, not of the frame that ran the lambda.
        assert record[0].lineno == call.__code__.co_firstlineno
