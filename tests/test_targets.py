import math
import warnings

import numpy as np
import pytest

from thetalangevin import (
    GaussianTarget,
    LogisticRegressionTarget,
    ila_step_gaussian,
    load_dataset,
    mode,
    standardize_design,
    targets,
)

from oracles import fd_gradient, fd_jacobian


def make_logistic(n_obs=30, dim=4, lam=1.0, seed=11):
    rng = np.random.default_rng(seed)
    design = rng.standard_normal((n_obs, dim))
    truth = rng.standard_normal(dim)
    labels = (rng.random(n_obs) < 1.0 / (1.0 + np.exp(-design @ truth))).astype(float)
    return LogisticRegressionTarget(design, labels, prior_precision=lam)


def test_gaussian_value_at_mean_is_zero():
    target = GaussianTarget(np.zeros(2), np.eye(2))
    assert target.value(np.zeros(2)) == 0.0


def test_gaussian_value_half_squared_norm():
    target = GaussianTarget(np.zeros(2), np.eye(2))
    assert target.value(np.array([3.0, 4.0])) == pytest.approx(12.5, abs=1e-14)


def test_logistic_value_single_row():
    target = LogisticRegressionTarget(np.array([[1.0]]), np.array([1.0]), 1.0)
    assert target.value(np.zeros(1)) == pytest.approx(math.log(2.0), abs=1e-14)


def test_gaussian_gradient_identity_precision():
    target = GaussianTarget(np.zeros(2), np.eye(2))
    np.testing.assert_allclose(target.gradient(np.array([1.0, 2.0])), [1.0, 2.0])


def test_logistic_gradient_at_zero():
    # Prior gradient vanishes at the origin, so sigma(0) - b = 0.5 remains.
    target = LogisticRegressionTarget(np.array([[1.0]]), np.array([0.0]), 1.0)
    np.testing.assert_allclose(target.gradient(np.zeros(1)), [0.5])


def test_gradient_vanishes_at_mode():
    target = make_logistic()
    x_star = mode(target)
    assert np.linalg.norm(target.gradient(x_star)) < 1e-8


def test_gaussian_hessian_constant():
    rng = np.random.default_rng(0)
    q = np.eye(3) + 0.1 * np.ones((3, 3))
    target = GaussianTarget(np.zeros(3), q)
    for _ in range(3):
        np.testing.assert_array_equal(target.hessian(rng.standard_normal(3)), q)


def test_logistic_hessian_single_row():
    target = LogisticRegressionTarget(np.array([[2.0]]), np.array([1.0]), 1.0)
    np.testing.assert_allclose(target.hessian(np.zeros(1)), [[2.0]], atol=1e-14)


@pytest.mark.parametrize("target", [
    GaussianTarget(np.array([0.3, -1.0]), np.array([[2.0, 0.5], [0.5, 1.0]])),
    make_logistic(),
])
def test_finite_difference_consistency(target):
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.standard_normal(target.dim)
        grad = target.gradient(x)
        fd_grad = fd_gradient(target.value, x)
        assert np.linalg.norm(grad - fd_grad) <= 1e-5 * max(1.0, np.linalg.norm(grad))
        hess = target.hessian(x)
        fd_hess = fd_jacobian(target.gradient, x)
        assert np.linalg.norm(hess - fd_hess) <= 1e-5 * max(1.0, np.linalg.norm(hess))


@pytest.mark.parametrize("target", [
    GaussianTarget(np.zeros(3), np.diag([0.5, 1.0, 4.0])),
    make_logistic(n_obs=50, dim=3),
])
def test_hessian_eigenvalues_within_bounds(target):
    rng = np.random.default_rng(17)
    m, big_m = target.convexity_bounds()
    for _ in range(100):
        x = rng.standard_normal(target.dim)
        x *= rng.random() * 10.0 / max(1.0, np.linalg.norm(x))
        eigs = np.linalg.eigvalsh(target.hessian(x))
        assert eigs[0] >= m - 1e-8
        assert eigs[-1] <= big_m + 1e-8


def test_logistic_weights_in_unit_quarter_interval():
    from scipy.special import expit

    target = make_logistic(n_obs=40, dim=3)
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = 2.0 * rng.standard_normal(target.dim)
        p = expit(target.design @ x)
        weights = p * (1.0 - p)
        assert np.all(weights > 0.0)
        assert np.all(weights <= 0.25)


def test_targets_copy_caller_arrays():
    base = np.diag([2.0, 3.0, 4.0])
    mean = np.zeros(2)
    gaussian = GaussianTarget(mean, base[:2, :2])
    base[0, 0] = 50.0
    mean[1] = 7.0
    assert gaussian.precision[0, 0] == 2.0
    np.testing.assert_array_equal(gaussian.gradient(np.array([1.0, 0.0])), [2.0, 0.0])
    np.testing.assert_allclose(gaussian.convexity_bounds(), (2.0, 3.0), rtol=1e-12)
    assert mean.flags.writeable and base.flags.writeable

    design, labels = np.array([[1.0, 0.5], [-1.0, 2.0]]), np.array([1.0, 0.0])
    logistic = LogisticRegressionTarget(design, labels, 1.0)
    before = logistic.gradient(np.ones(2))
    design[0, 0] = 100.0
    labels[0] = 0.0
    np.testing.assert_array_equal(logistic.gradient(np.ones(2)), before)
    assert design.flags.writeable and labels.flags.writeable
    for arr in (gaussian.mean, gaussian.precision, logistic.design, logistic.labels):
        assert not arr.flags.writeable


def test_targets_refuse_setting_and_deleting_attributes():
    # Rebinding mean once changed the gradient while the memoized closed-form
    # step kept the old mean; rebinding prior_precision moved the Hessian but
    # not convexity_bounds().
    gaussian = GaussianTarget(np.zeros(2), np.eye(2))
    x, z = np.ones(2), np.zeros(2)
    step = ila_step_gaussian(gaussian, x, z, 0.5, 1.0)
    with pytest.raises(AttributeError, match="GaussianTarget is immutable"):
        gaussian.mean = np.full(2, 5.0)
    logistic = make_logistic(seed=4)
    bounds, hess = logistic.convexity_bounds(), logistic.hessian(np.ones(logistic.dim))
    with pytest.raises(AttributeError, match="LogisticRegressionTarget is immutable"):
        logistic.prior_precision = 10.0
    for target in (gaussian, logistic):
        for name in list(vars(target)) + ["new_attribute"]:
            with pytest.raises(AttributeError):
                setattr(target, name, None)
            with pytest.raises(AttributeError):
                delattr(target, name)
    np.testing.assert_array_equal(gaussian.gradient(x), x)
    np.testing.assert_array_equal(ila_step_gaussian(gaussian, x, z, 0.5, 1.0), step)
    assert logistic.convexity_bounds() == bounds
    np.testing.assert_array_equal(logistic.hessian(np.ones(logistic.dim)), hess)


def test_gaussian_bounds_identity():
    target = GaussianTarget(np.zeros(4), np.eye(4))
    assert target.convexity_bounds() == (1.0, 1.0)


def test_logistic_bounds_zero_design():
    target = LogisticRegressionTarget(np.zeros((5, 2)), np.zeros(5), 3.0)
    assert target.convexity_bounds() == (3.0, 3.0)


def test_logistic_bounds_single_row():
    target = LogisticRegressionTarget(np.array([[2.0, 0.0]]), np.array([1.0]), 1.0)
    m, big_m = target.convexity_bounds()
    assert m == 1.0
    assert big_m == pytest.approx(2.0, rel=1e-5)


def test_logistic_upper_bound_covers_hessian_on_standardized_design():
    # Criterion 9's design: standardized features plus an intercept column.
    # H(0) = A'A/4 + lambda I attains the bound M = ||A||^2/4 + lambda, so M
    # must be the exact norm, not an estimate from below.
    rng = np.random.default_rng(0)
    features = rng.standard_normal((200, 9)) * rng.uniform(0.5, 3.0, size=9) + 1.0
    design = standardize_design(features)
    truth = rng.standard_normal(10)
    labels = (rng.random(200) < 1.0 / (1.0 + np.exp(-design @ truth))).astype(float)
    target = LogisticRegressionTarget(design, labels, prior_precision=1.0)
    ceiling = target.convexity_bounds()[1] * (1.0 + 1e-12)
    points = [np.zeros(10)] + [rng.standard_normal(10) for _ in range(20)]
    for x in points:
        assert np.linalg.eigvalsh(target.hessian(x))[-1] <= ceiling


def test_gaussian_exact_sample_moments():
    cov = np.array([[2.0, 0.8], [0.8, 1.0]])
    target = GaussianTarget.from_covariance(np.array([1.0, -2.0]), cov)
    rng = np.random.default_rng(3)
    draws = target.exact_sample(200_000, rng)
    np.testing.assert_allclose(draws.mean(axis=0), [1.0, -2.0], atol=0.02)
    np.testing.assert_allclose(np.cov(draws.T), cov, atol=0.03)


def test_gaussian_exact_sample_is_symmetric_square_root_map():
    # Draws must be mean + z S with S the symmetric square root of the
    # covariance: another square root gives other draws from the same z.
    rng = np.random.default_rng(12)
    basis = rng.standard_normal((5, 5))
    cov = basis @ basis.T + 0.5 * np.eye(5)
    mean = rng.standard_normal(5)
    target = GaussianTarget.from_covariance(mean, cov)
    lam, vecs = np.linalg.eigh(target.covariance)
    sqrt_cov = (vecs * np.sqrt(lam)) @ vecs.T
    draws = target.exact_sample(50, np.random.default_rng(4))
    expected = mean + np.random.default_rng(4).standard_normal((50, 5)) @ sqrt_cov
    assert np.linalg.norm(draws - expected) <= 1e-12 * np.linalg.norm(expected)


def test_gaussian_eigenpairs_public_and_read_only():
    target = GaussianTarget(np.zeros(3), np.diag([4.0, 0.5, 2.0]))
    np.testing.assert_allclose(target.eigenvalues, [0.5, 2.0, 4.0], rtol=1e-14)
    vecs = target.eigenvectors
    np.testing.assert_allclose((vecs * target.eigenvalues) @ vecs.T, target.precision,
                               atol=1e-14)
    assert target.convexity_bounds() == (target.eigenvalues[0], target.eigenvalues[-1])
    for arr in (target.eigenvalues, target.eigenvectors):
        assert not arr.flags.writeable


def test_nonfinite_input_rejected():
    target = GaussianTarget(np.zeros(2), np.eye(2))
    with pytest.raises(ValueError):
        target.value(np.array([np.nan, 0.0]))
    with pytest.raises(ValueError):
        target.gradient(np.array([np.inf, 0.0]))


CHECKED_TARGETS = [
    GaussianTarget(np.array([0.5, -1.0, 2.0]),
                   np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 4.0]])),
    make_logistic(n_obs=40, dim=3, lam=0.5, seed=12),
]


@pytest.mark.parametrize("target", CHECKED_TARGETS, ids=["gaussian", "logistic"])
def test_unchecked_derivatives_equal_public_methods(target):
    rng = np.random.default_rng(14)
    for _ in range(5):
        x = 3.0 * rng.standard_normal(3)
        shared = target._shared(x)
        for public, unchecked in ((target.gradient, target._gradient),
                                  (target.hessian, target._hessian)):
            expected = public(x)
            np.testing.assert_array_equal(unchecked(x), expected)
            np.testing.assert_array_equal(unchecked(x, shared), expected)


@pytest.mark.parametrize("target", CHECKED_TARGETS, ids=["gaussian", "logistic"])
def test_unchecked_derivatives_on_a_stack_match_checked_points(target):
    # One (B, d) call gives every row's gradient and Hessian. BLAS may sum a
    # stack's products in another order than one point's, so rows agree with
    # the checked per-point methods to 1e-13 relative, not bit for bit.
    x = 3.0 * np.random.default_rng(15).standard_normal((7, 3))
    shared = target._shared(x)
    for unchecked, public in ((target._gradient, target.gradient),
                              (target._hessian, target.hessian)):
        for stacked in (unchecked(x), unchecked(x, shared)):
            assert stacked.shape == (7,) + public(x[0]).shape
            for row, point in zip(stacked, x):
                expected = public(point)
                assert np.linalg.norm(row - expected) <= 1e-13 * np.linalg.norm(expected)


def test_logistic_extreme_logits_stay_finite_without_warnings():
    # Logits of +-800: exp(800) overflows a double, so the sigmoid caps them.
    target = LogisticRegressionTarget(np.array([[1.0], [-1.0]]), np.array([1.0, 0.0]), 1.0)
    x = np.array([[800.0], [-800.0], [0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        shared = target._shared(x)
        grad, hess = target._gradient(x, shared), target._hessian(x, shared)
        values = [target.value(point) for point in x]
    assert np.isfinite(shared).all() and np.isfinite(values).all()
    np.testing.assert_array_equal(grad, [[800.0], [-802.0], [-1.0]])
    np.testing.assert_array_equal(hess, [[[1.0]], [[1.0]], [[1.5]]])


@pytest.mark.parametrize("pairs", [True, False], ids=["pair-products", "rank-k"])
def test_logistic_stacked_hessian_exactly_symmetric(monkeypatch, pairs):
    # A design whose pair products exceed the cap takes the S S' form.
    if not pairs:
        monkeypatch.setattr(targets, "_PAIR_PRODUCTS_MAX", 0)
    target = make_logistic(n_obs=200, dim=7, seed=16)
    assert (target._pairs is not None) == pairs
    x = 2.0 * np.random.default_rng(17).standard_normal((9, 7))
    hess = target._hessian(x)
    np.testing.assert_array_equal(hess, np.swapaxes(hess, 1, 2))
    np.testing.assert_array_equal(target.hessian(x[0]), target.hessian(x[0]).T)
    for row, point in zip(hess, x):
        p = 1.0 / (1.0 + np.exp(-(target.design @ point)))
        expected = target.design.T @ (target.design * (p * (1.0 - p))[:, None]) + np.eye(7)
        assert np.linalg.norm(row - expected) <= 1e-13 * np.linalg.norm(expected)


@pytest.mark.parametrize("target", CHECKED_TARGETS, ids=["gaussian", "logistic"])
def test_public_derivatives_reject_bad_points(target):
    bad = [np.zeros(2), np.zeros(4), np.zeros((3, 1)), np.array([0.0, np.nan, 0.0]),
           np.array([np.inf, 0.0, 0.0])]
    for method in (target.gradient, target.hessian):
        for x in bad:
            with pytest.raises(ValueError):
                method(x)


def test_standardize_design():
    rng = np.random.default_rng(1)
    features = rng.standard_normal((50, 3)) * np.array([5.0, 0.1, 2.0]) + 7.0
    design = standardize_design(features)
    assert design.shape == (50, 4)
    np.testing.assert_allclose(design[:, :3].mean(axis=0), 0.0, atol=1e-12)
    np.testing.assert_allclose(design[:, :3].std(axis=0), 1.0, atol=1e-12)
    np.testing.assert_array_equal(design[:, 3], 1.0)


def test_standardize_rejects_constant_column():
    features = np.ones((10, 2))
    features[:, 0] = np.arange(10)
    with pytest.raises(ValueError, match="constant"):
        standardize_design(features)


def test_load_dataset_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("1,0.5,2.5\n0,1.5,-0.5\n1,2.0,0.0\n")
    features, labels = load_dataset(path)
    assert features.shape == (3, 2)
    np.testing.assert_array_equal(labels, [1.0, 0.0, 1.0])


def test_load_dataset_coerces_binary_levels(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("2,0.5\n5,1.5\n2,2.0\n")
    _, labels = load_dataset(path)
    np.testing.assert_array_equal(labels, [0.0, 1.0, 0.0])


def test_load_dataset_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("1,0.5\n0,oops\n")
    with pytest.raises(ValueError, match="line 2"):
        load_dataset(path)


def test_load_dataset_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="empty"):
        load_dataset(path)


def test_load_dataset_rejects_nonbinary(tmp_path):
    path = tmp_path / "tri.csv"
    path.write_text("0,1\n1,2\n2,3\n")
    with pytest.raises(ValueError, match="binary"):
        load_dataset(path)


@pytest.mark.parametrize("label", ["nan", "inf", "-inf", "NaN"])
def test_load_dataset_rejects_non_finite_labels(tmp_path, label):
    # Once classified by np.unique, labels 1 and nan loaded as [0, 0, 0] (nan
    # failed the {0, 1} test and equalled no level), and inf became class 1.
    # The comment and blank lines count towards the line number.
    path = tmp_path / "data.csv"
    path.write_text(f"# label,x\n1,0.5\n\n{label},1.5\n1,2.0\n")
    with pytest.raises(ValueError, match=rf"data\.csv: line 4: label -?(nan|inf) is not finite"):
        load_dataset(path)
    # A non-finite feature is not a label; the target rejects it.
    path.write_text(f"1,0.5\n0,{label}\n")
    features, labels = load_dataset(path)
    np.testing.assert_array_equal(labels, [1.0, 0.0])
    assert not np.isfinite(features[1, 0])


def test_load_dataset_label_column_and_single_level(tmp_path):
    # Levels come from the label column alone, wherever it is; one level
    # other than 0 or 1 is the larger level, 1, as before.
    path = tmp_path / "data.csv"
    path.write_text("0.5,-1\n1.5,3\n2.0,-1\n")
    features, labels = load_dataset(path, label_col=-1)
    np.testing.assert_array_equal(labels, [0.0, 1.0, 0.0])
    np.testing.assert_array_equal(features[:, 0], [0.5, 1.5, 2.0])
    path.write_text("7,0.5\n7,1.5\n")
    np.testing.assert_array_equal(load_dataset(path)[1], [1.0, 1.0])
