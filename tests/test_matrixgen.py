import numpy as np
import pytest

from thetalangevin import SpectralModel, exp_decay_spectrum, random_correlation

from oracles import scipy_random_correlation


def test_spectrum_endpoints_d2():
    lam = exp_decay_spectrum(SpectralModel(d=2, m=1.0, M=100.0))
    np.testing.assert_array_equal(lam, [100.0, 1.0])


def test_spectrum_geometric_midpoint():
    lam = exp_decay_spectrum(SpectralModel(d=3, m=1.0, M=100.0))
    np.testing.assert_allclose(lam, [100.0, 10.0, 1.0], rtol=1e-14)


def test_spectrum_flat():
    lam = exp_decay_spectrum(SpectralModel(d=7, m=5.0, M=5.0))
    np.testing.assert_array_equal(lam, np.full(7, 5.0))


def test_spectrum_monotone_and_exact_ratio():
    model = SpectralModel(d=17, m=0.3, M=4000.0)
    lam = exp_decay_spectrum(model)
    assert np.all(np.diff(lam) < 0)
    assert lam[0] / lam[-1] == 4000.0 / 0.3


def test_spectrum_rejects_small_dimension():
    with pytest.raises(ValueError):
        SpectralModel(d=1, m=1.0, M=2.0)


def test_flat_spectrum_gives_identity():
    corr = random_correlation(np.ones(6), seed=0)
    np.testing.assert_array_equal(corr, np.eye(6))


def test_two_by_two_forced_offdiagonal():
    # Trace 2 and determinant 0.75 force |rho| = 0.5.
    corr = random_correlation(np.array([1.5, 0.5]), seed=4)
    assert abs(abs(corr[0, 1]) - 0.5) < 1e-12
    assert abs(corr[0, 0] - 1.0) < 1e-10


def test_spectrum_roundtrip_d50():
    lam = exp_decay_spectrum(SpectralModel(d=50, m=1.0, M=100.0))
    corr = random_correlation(lam, seed=123)
    rescaled = lam * (50.0 / lam.sum())
    got = np.sort(np.linalg.eigvalsh(corr))
    np.testing.assert_allclose(got, np.sort(rescaled), rtol=1e-8)


def test_correlation_matrix_contract():
    lam = exp_decay_spectrum(SpectralModel(d=20, m=1.0, M=1e4))
    corr = random_correlation(lam, seed=7)
    np.testing.assert_array_equal(corr, corr.T)
    np.linalg.cholesky(corr)  # positive definiteness
    assert abs(np.trace(corr) - 20.0) < 1e-10
    assert np.abs(np.diag(corr) - 1.0).max() < 1e-10


def test_determinism_and_seed_sensitivity():
    lam = exp_decay_spectrum(SpectralModel(d=10, m=1.0, M=50.0))
    first = random_correlation(lam, seed=99)
    second = random_correlation(lam, seed=99)
    np.testing.assert_array_equal(first, second)
    other = random_correlation(lam, seed=100)
    assert np.linalg.norm(first - other) > 0.0


def test_invalid_eigenvalues_rejected():
    with pytest.raises(ValueError):
        random_correlation(np.array([1.0, -0.5]), seed=0)
    with pytest.raises(ValueError):
        random_correlation(np.array([1.0, np.nan]), seed=0)


@pytest.mark.parametrize("d", [2, 3, 5, 10, 20, 50, 100, 200])
def test_random_correlation_matches_scipy_bit_for_bit(d):
    for kappa in (1.0001, 1.5, 10.0, 100.0, 1e4, 1e8):
        lam = exp_decay_spectrum(SpectralModel(d=d, m=1.0, M=kappa))
        for seed in range(5):
            assert np.array_equal(random_correlation(lam, seed=seed),
                                  scipy_random_correlation(lam, seed)), (d, kappa, seed)
