import math
import re

import numpy as np
import pytest
from scipy.linalg.blas import drot

from thetalangevin import SpectralModel, exp_decay_spectrum, random_correlation
from thetalangevin.matrixgen import _rotate

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


@pytest.mark.parametrize("m, big_m", [(1.0, math.inf), (1.0, math.nan), (math.nan, 2.0),
                                      (0.0, 2.0), (3.0, 2.0)])
def test_spectrum_rejects_bounds_outside_zero_to_inf(m, big_m):
    # An infinite M would reach exp_decay_spectrum as 0 * inf.
    with pytest.raises(ValueError, match=re.escape(f"need 0 < m <= M < inf, got m={m}, "
                                                   f"M={big_m}")):
        SpectralModel(d=3, m=m, M=big_m)


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


@pytest.mark.parametrize("n", [1, 3, 5, 17])
@pytest.mark.parametrize("t", [None, 0.7, -2.3])
def test_rotate_matches_blas_drot_bit_for_bit(n, t):
    # t None is the c = 0, s = 1 branch; t < 0 gives a negative s. Some
    # entries are exact zeros of either sign, which fix the sign of a zero
    # result.
    c = 0.0 if t is None else 1.0 / math.sqrt(1.0 + t * t)
    s = 1.0 if t is None else c * t
    rng = np.random.default_rng(n)
    for _ in range(20):
        m = rng.standard_normal((3, n))
        m[rng.random(m.shape) < 0.3] = 0.0
        m[rng.random(m.shape) < 0.5] *= -1.0
        # Rows 0 and 2 of m (contiguous), then columns 0 and 2 of m.T (stride 3).
        for a, inc, offy, pair in ((m, 1, 2 * n, lambda g: (g[0], g[2])),
                                   (m.T.copy(), 3, 2, lambda g: (g[:, 0], g[:, 2]))):
            expected, got = a.copy(), a.copy()
            flat = expected.ravel()
            drot(flat, flat, c, -s, n=n, incx=inc, offy=offy, incy=inc,
                 overwrite_x=True, overwrite_y=True)
            _rotate(*pair(got), c, s)
            assert np.array_equal(got, expected), (n, t)
            assert np.array_equal(np.signbit(got), np.signbit(expected)), (n, t)
