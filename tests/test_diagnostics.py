import math
import tracemalloc

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from thetalangevin import (
    DegenerateBandwidthError,
    Reference,
    SampleSet,
    diagnostics,
    median_bandwidth,
    mmd2,
    mmtv,
)
from thetalangevin.cli import ExperimentConfig, run_sweep
from thetalangevin.diagnostics import silverman_bandwidth

from oracles import (
    QuadratureAccuracyError,
    gauss_kronrod,
    gauss_kronrod_marginal_tv,
    kde_marginal,
    median_bandwidth_formula,
    per_coordinate_mmtv,
    union_grid_marginal_tv,
)


def as_set(array):
    return SampleSet(np.asarray(array, dtype=float))


# ------------------------------------------------------------ median bandwidth

def test_median_bandwidth_two_points():
    q = as_set([[0.0], [2.0]])
    assert median_bandwidth(q) == pytest.approx(1.0)


def test_median_bandwidth_collinear_triple():
    q = as_set([[0.0], [1.0], [2.0]])
    # Pairwise distances {1, 1, 2}: median 1, so sigma = sqrt(1/2).
    assert median_bandwidth(q) == pytest.approx(math.sqrt(0.5))


def test_median_bandwidth_deterministic_with_subsampling():
    rng = np.random.default_rng(0)
    q = as_set(rng.standard_normal((3000, 2)))
    assert median_bandwidth(q, seed=5) == median_bandwidth(q, seed=5)


@pytest.mark.parametrize("n", [101, 102, 2500])
def test_median_bandwidth_matches_full_matrix_formula_bit_for_bit(n):
    # 5050 (even) and 5151 (odd) pairs, and a set thinned to the cap.
    rng = np.random.default_rng(n)
    q = as_set(rng.standard_normal((n, 7)) * rng.uniform(0.1, 3.0, size=7) + 2.0)
    for seed in (0, 3):
        assert median_bandwidth(q, seed=seed) == median_bandwidth_formula(q, seed=seed)


def test_median_bandwidth_degenerate():
    with pytest.raises(DegenerateBandwidthError):
        median_bandwidth(as_set([[1.0, 1.0], [1.0, 1.0]]))


# ------------------------------------------------------------------------- mmd

def test_mmd_identical_sets_is_zero():
    rng = np.random.default_rng(1)
    p = as_set(rng.standard_normal((40, 3)))
    assert abs(mmd2(p, p, 1.0)) < 1e-12


def test_mmd_distant_clusters_approach_two():
    p = as_set([[0.0], [0.0]])
    q = as_set([[1e8], [1e8]])
    assert mmd2(p, q, 1.0) == pytest.approx(2.0, abs=1e-12)


def test_mmd_separated_gaussians_matches_population_oracle():
    rng = np.random.default_rng(7)
    p = as_set(rng.standard_normal((500, 1)))
    q = as_set(rng.standard_normal((500, 1)) + 10.0)
    # Cross kernel is exp(-50)-negligible; population value is
    # 2 E k(X, X') = 2 E exp(-(X-X')^2/2) = 2/sqrt(3) for X, X' ~ N(0, 1).
    oracle = 2.0 / math.sqrt(3.0)
    assert mmd2(p, q, 1.0) == pytest.approx(oracle, rel=0.05)


def test_mmd_symmetry_and_nonnegativity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n, m, d = rng.integers(5, 60), rng.integers(5, 60), rng.integers(1, 4)
        p = as_set(rng.standard_normal((n, d)))
        q = as_set(rng.standard_normal((m, d)) + rng.normal())
        sigma = float(rng.uniform(0.3, 3.0))
        forward = mmd2(p, q, sigma)
        assert abs(forward - mmd2(q, p, sigma)) < 1e-12
        assert forward >= -1e-12


@pytest.mark.parametrize("n", [100, 1024, 1025, 3000, 5000])
def test_mean_self_kernel_matches_full_kernel_sum(n):
    # The upper-triangle block sum against the full N x N sum.
    q = as_set(np.random.default_rng(n).standard_normal((n, 5)))
    sigma = median_bandwidth(q)
    full = diagnostics._kernel_sum(q.points, q.points, sigma) / (n * n)
    assert diagnostics._mean_self_kernel(q, sigma) == pytest.approx(full, rel=1e-12, abs=0)


def _direct_kernel_sum(a, b, sigma):
    a_sq, b_sq = np.einsum("ij,ij->i", a, a), np.einsum("ij,ij->i", b, b)
    return diagnostics._kernel_block(a, a_sq, b, b_sq, -1.0 / (2.0 * sigma**2))


@pytest.mark.parametrize("shift", [0.0, 1e3])
def test_folded_kernel_sums_match_direct_blocks(shift):
    # Both sets span two kernel blocks. Subtracting the shift again is exact
    # (Sterbenz), so the direct sums see the shifted sets' own differences.
    rng = np.random.default_rng(12)
    a = rng.standard_normal((1500, 6)) + shift
    b = 0.8 * rng.standard_normal((1100, 6)) + 0.3 + shift
    sigma = 1.3
    direct = _direct_kernel_sum(a - shift, b - shift, sigma)
    assert diagnostics._kernel_sum(a, b, sigma) == pytest.approx(direct, rel=1e-12, abs=0)
    self_direct = _direct_kernel_sum(b - shift, b - shift, sigma) / b.shape[0] ** 2
    assert diagnostics._mean_self_kernel(as_set(b), sigma) == pytest.approx(
        self_direct, rel=1e-12, abs=0)


def _fresh_folded_block(a, b):
    """_folded_block with a fresh product a @ b' for every block."""
    (a, a_sq, a_u), (b, b_sq, b_u) = a, b
    if a_sq.max() * b_sq.max() > diagnostics._FOLD_EXP_LIMIT**2:
        return diagnostics._kernel_block(a, a_sq, b, b_sq, -0.5)
    e = a @ b.T
    np.exp(e, out=e)
    return float(a_u @ (e @ b_u))


@pytest.mark.parametrize("block", [64, diagnostics._KERNEL_BLOCK])
def test_kernel_sums_match_fresh_products_bit_for_bit(monkeypatch, block):
    # Sets of 150 and 100 rows: at 64 rows a block, blocks of 64, 64 and 22
    # rows against 64 and 36, in both orders, and the far rows of b's last
    # block take the direct form. At the package's block size, one block
    # each, as in the sweeps' sets of a few hundred points.
    monkeypatch.setattr(diagnostics, "_KERNEL_BLOCK", block)
    rng = np.random.default_rng(21)
    a = rng.standard_normal((150, 4))
    b = np.vstack([rng.standard_normal((70, 4)), 60.0 * rng.standard_normal((30, 4))])
    sigma = 1.0
    for p, q in ((a, b), (b, a), (a, a)):
        centre = q.mean(axis=0)
        q_blocks = diagnostics._scaled_blocks(q, centre, sigma)
        fresh = math.fsum(_fresh_folded_block(p_block, q_block)
                          for p_block in diagnostics._scaled_blocks(p, centre, sigma)
                          for q_block in q_blocks)
        assert diagnostics._kernel_sum(p, q, sigma) == fresh
        totals = [(1.0 if j == i else 2.0) * _fresh_folded_block(q_blocks[i], q_blocks[j])
                  for i in range(len(q_blocks)) for j in range(i, len(q_blocks))]
        assert diagnostics._mean_self_kernel(as_set(q), sigma) == math.fsum(totals) / len(q) ** 2


def test_folded_kernel_sum_falls_back_where_exp_could_overflow(monkeypatch):
    # At sigma = 1, rows of b lie up to about 90 from its mean, and a.b
    # passes exp's range of about 709 on the rows of a matched to them. The
    # first block of a sits near the centre and is folded.
    rng = np.random.default_rng(13)
    b = 25.0 * rng.standard_normal((300, 3))
    a = np.vstack([rng.standard_normal((1024, 3)), b + 0.3 * rng.standard_normal(b.shape)])
    a_c, b_c = a - b.mean(axis=0), b - b.mean(axis=0)
    b_max = np.linalg.norm(b_c, axis=1).max()
    assert np.linalg.norm(a_c[:1024], axis=1).max() * b_max < 700.0
    assert np.max(a_c[1024:] @ b_c.T) > 709.0
    blocks = []
    real_kernel_block = diagnostics._kernel_block

    def recording_kernel_block(*args):
        blocks.append(args[0].shape[0])
        return real_kernel_block(*args)

    monkeypatch.setattr(diagnostics, "_kernel_block", recording_kernel_block)
    folded = diagnostics._kernel_sum(a, b, 1.0)
    assert blocks == [300]
    direct = _direct_kernel_sum(a, b, 1.0)
    assert math.isfinite(folded) and folded > 100.0
    assert folded == pytest.approx(direct, rel=1e-12, abs=0)


def test_mmd_rejects_dimension_mismatch():
    p = as_set(np.zeros((3, 2)) + np.arange(3)[:, None])
    q = as_set(np.arange(4.0)[:, None])
    with pytest.raises(ValueError):
        mmd2(p, q, 1.0)


# ------------------------------------------------------------------------- kde

def test_kde_single_cluster_peak_at_center():
    density = kde_marginal(np.zeros(50), 0.7)
    grid = np.linspace(-3, 3, 101)
    values = density(grid)
    assert grid[int(np.argmax(values))] == pytest.approx(0.0, abs=1e-12)
    assert density(0.0) == pytest.approx(stats.norm.pdf(0.0, scale=0.7), rel=1e-12)


def test_kde_two_point_hand_value():
    density = kde_marginal(np.array([-1.0, 1.0]), 0.5)
    oracle = 0.5 * (stats.norm.pdf(0.0, -1.0, 0.5) + stats.norm.pdf(0.0, 1.0, 0.5))
    assert density(0.0) == pytest.approx(oracle, rel=1e-12)


def test_kde_normalization_by_quadrature():
    rng = np.random.default_rng(3)
    samples = rng.standard_normal(200) * 2.0 + 1.0
    bandwidth = silverman_bandwidth(samples)
    density = kde_marginal(samples, bandwidth)
    lo = samples.min() - 10.0 * bandwidth
    hi = samples.max() + 10.0 * bandwidth
    total, _ = gauss_kronrod(density, lo, hi, 1e-10)
    assert total == pytest.approx(1.0, abs=1e-8)


# ------------------------------------------------------------------ quadrature

def test_quadrature_monomial():
    value, err = gauss_kronrod(lambda x: x**2, 0.0, 1.0, 1e-12)
    assert value == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert err <= 1e-12


def test_quadrature_degree_13_single_panel_exact():
    value, _ = gauss_kronrod(lambda x: x**13, 0.0, 2.0, 1e-6)
    assert value == pytest.approx(2.0**14 / 14.0, rel=1e-13)


def test_quadrature_constant():
    value, _ = gauss_kronrod(lambda x: np.ones_like(x), 0.0, 1.0, 1e-12)
    assert value == pytest.approx(1.0, abs=1e-15)


def test_quadrature_normal_density():
    value, _ = gauss_kronrod(lambda x: stats.norm.pdf(x), -10.0, 10.0, 1e-12)
    oracle = stats.norm.cdf(10.0) - stats.norm.cdf(-10.0)
    assert value == pytest.approx(oracle, abs=1e-10)


def test_quadrature_cap_carries_best_estimate():
    # Float panel estimates can never certify 1e-300, so the cap must trip.
    with pytest.raises(QuadratureAccuracyError) as info:
        gauss_kronrod(np.exp, 0.0, 1.0, 1e-300)
    assert info.value.estimate == pytest.approx(math.e - 1.0, rel=1e-12)
    assert info.value.error_estimate > 1e-300


def test_quadrature_rejects_nonfinite_integrand():
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match="finite"):
        gauss_kronrod(lambda x: 1.0 / (x - 0.5) ** 2, 0.0, 1.0, 1e-8)


def test_quadrature_validates_interval():
    with pytest.raises(ValueError):
        gauss_kronrod(lambda x: x, 1.0, 0.0, 1e-8)


# ------------------------------------------------------------------------ mmtv

def test_mmtv_identical_sets():
    rng = np.random.default_rng(4)
    p = as_set(rng.standard_normal((100, 3)))
    assert mmtv(p, p) == pytest.approx(0.0, abs=1e-8)


def test_mmtv_disjoint_supports():
    rng = np.random.default_rng(5)
    p = as_set(-100.0 + rng.standard_normal((500, 1)))
    q = as_set(100.0 + rng.standard_normal((500, 1)))
    assert mmtv(p, q) == pytest.approx(1.0, abs=1e-6)


def test_mmtv_shifted_gaussians_near_closed_form():
    rng = np.random.default_rng(6)
    p = as_set(rng.standard_normal((5000, 1)))
    q = as_set(rng.standard_normal((5000, 1)) + 0.5)
    oracle = 2.0 * stats.norm.cdf(0.25) - 1.0
    assert abs(mmtv(p, q) - oracle) < 0.03


def test_mmtv_bounded_on_random_pairs():
    rng = np.random.default_rng(8)
    for _ in range(5):
        p = as_set(rng.standard_normal((60, 2)) * rng.uniform(0.5, 2.0))
        q = as_set(rng.standard_normal((80, 2)) + rng.normal(scale=2.0))
        value = mmtv(p, q)
        assert -1e-8 <= value <= 1.0 + 1e-8


def _test_pairs():
    """The pairs of the mmtv tests above: identical, disjoint, shifted, random."""
    rng = np.random.default_rng(4)
    same = as_set(rng.standard_normal((100, 3)))
    pairs = [("identical", same, same)]
    rng = np.random.default_rng(5)
    pairs.append(("disjoint", as_set(-100.0 + rng.standard_normal((500, 1))),
                  as_set(100.0 + rng.standard_normal((500, 1)))))
    rng = np.random.default_rng(6)
    pairs.append(("shifted", as_set(rng.standard_normal((5000, 1))),
                  as_set(rng.standard_normal((5000, 1)) + 0.5)))
    rng = np.random.default_rng(8)
    for k in range(5):
        p = as_set(rng.standard_normal((60, 2)) * rng.uniform(0.5, 2.0))
        q = as_set(rng.standard_normal((80, 2)) + rng.normal(scale=2.0))
        pairs.append((f"random {k}", p, q))
    return pairs


def _gaussian_sweep_pairs(monkeypatch):
    """(call index, chain set, reference set) of every non-diverged row of the
    d=20, kappa=100 gaussian sweep at 400 samples, seed 1, 6 step sizes."""
    pairs = []
    real_mmtv = diagnostics.mmtv

    def recording_mmtv(p, q):
        pairs.append((len(pairs), p, q.samples))
        return real_mmtv(p, q)

    monkeypatch.setattr(diagnostics, "mmtv", recording_mmtv)
    config = ExperimentConfig(kind="gaussian", dim=20, kappa=100.0, thetas=(0.0, 0.5, 1.0),
                              h_count=6, n_samples=400, seed=1, thin=1)
    rows = run_sweep(config)
    assert len(pairs) == sum(not r.diverged for r in rows) > 0
    return pairs


def test_mmtv_matches_gauss_kronrod_oracle(monkeypatch):
    pairs = _gaussian_sweep_pairs(monkeypatch) + _test_pairs()
    worst = 0.0
    for label, p, q in pairs:
        for i in range(p.dim):
            fast = mmtv(SampleSet(p.points[:, [i]]), SampleSet(q.points[:, [i]]))
            oracle = gauss_kronrod_marginal_tv(p.points[:, i], q.points[:, i])
            assert fast == pytest.approx(oracle, abs=1e-6), (label, i)
            worst = max(worst, abs(fast - oracle))
    print(f"worst |mmtv - Gauss-Kronrod| per coordinate over {len(pairs)} pairs: {worst:.2e}")


def test_mmtv_matches_per_coordinate_oracle_bit_for_bit(monkeypatch):
    pairs = _gaussian_sweep_pairs(monkeypatch) + _test_pairs()
    batches = []
    real_crossings = diagnostics._crossings

    def recording_crossings(p, *args):
        batches.append(p.shape[1])
        return real_crossings(p, *args)

    monkeypatch.setattr(diagnostics, "_crossings", recording_crossings)
    for label, p, q in pairs:
        assert mmtv(p, q) == per_coordinate_mmtv(p, q), label
    # Some calls transformed several coordinates together.
    assert max(batches) > 1


def _ndtr_test_points():
    """Arguments for the ndtr gate: runs of consecutive doubles and fine steps
    across every branch edge, of both signs; the outputs that are subnormal
    or 0 near -37.7; special values; and normal samples at three scales."""
    rng = np.random.default_rng(18)
    edges = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0)] + [abs(e) for e in diagnostics._NDTR_EDGES]
    runs = []
    for edge in edges:
        ulps = edge + np.arange(-20_000, 20_000) * np.spacing(edge)
        steps = edge + np.linspace(-1e-3, 1e-3, 20_001)
        runs += [ulps, -ulps, steps, -steps]
    runs.append(-np.linspace(37.5, 37.8, 300_001))
    runs.append(np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1e308, -1e308,
                          5e-324, -5e-324, 2.2e-308, -2.2e-308]))
    runs += [scale * rng.standard_normal(1_000_000) for scale in (1.0, 5.0, 30.0)]
    return np.concatenate(runs)


@pytest.mark.filterwarnings("error")
def test_ndtr_matches_scipy_bit_for_bit():
    a = _ndtr_test_points()
    expected = ndtr(a)
    chunk = 1 << 16
    numpy_ndtr = diagnostics._Ndtr(chunk)
    got = np.empty_like(a)
    # One set of work arrays, reused chunk after chunk as _kde_cdfs does.
    for start in range(0, a.size, chunk):
        numpy_ndtr(a[start:start + chunk], got[start:start + chunk])
    same = (got == expected) | (np.isnan(got) & np.isnan(expected))
    assert same.all(), a[~same][:10]
    assert np.array_equal(np.signbit(got), np.signbit(expected))
    assert (expected == 0.0).any() and (expected[expected > 0] < 2.2e-308).any()
    # In place, on a 2-D block.
    block = a[:3 * 5000].reshape(3, 5000).copy()
    numpy_ndtr(block, block)
    assert block.tobytes() == got[:block.size].tobytes()


def test_kde_cdfs_match_scipy_sums_where_far_terms_decide(monkeypatch):
    # _kde_cdfs sums each row with its R/S terms (x <= -8) at 0 and at their
    # bound, and evaluates in full the rows where the two sums differ: here
    # rows far left of a narrow KDE, which hold only such terms.
    rng = np.random.default_rng(7)
    samples = np.asfortranarray(rng.standard_normal((500, 2)))
    bandwidths = np.array([0.05, 0.4])
    lo = samples.min(axis=0)
    x = np.array([-np.inf, lo[0] - 0.6, lo[0] - 0.45, lo[0] - 0.2, 0.0, np.inf,
                  lo[1] - 6.0, lo[1] - 2.0, 0.3])
    cols = np.array([0, 0, 0, 0, 0, 0, 1, 1, 1])
    full_rows = []
    real_call = diagnostics._Ndtr.__call__

    def counting_call(self, a, out, skip_far=False):
        if not skip_far:
            full_rows.append(a.shape[0])
        return real_call(self, a, out, skip_far)

    monkeypatch.setattr(diagnostics._Ndtr, "__call__", counting_call)
    got = diagnostics._kde_cdfs(samples, bandwidths, x, cols)
    for c in (0, 1):
        rows = cols == c
        expected = ndtr((x[rows, None] - samples[None, :, c]) / bandwidths[c]).mean(axis=1)
        assert got[rows].tobytes() == expected.tobytes()
    assert sum(full_rows) >= 2


def test_mmtv_stays_near_union_grid_values(monkeypatch):
    # Per-set grids move a coordinate's value only through the positions of
    # its crossings, which enter the total variation to second order.
    pairs = _gaussian_sweep_pairs(monkeypatch) + _test_pairs()
    worst = 0.0
    for label, p, q in pairs:
        bw_p, bw_q = silverman_bandwidth(p.points), silverman_bandwidth(q.points)
        for i in range(p.dim):
            value = mmtv(SampleSet(p.points[:, [i]]), SampleSet(q.points[:, [i]]))
            old = union_grid_marginal_tv(p.points[:, i], q.points[:, i], bw_p[i], bw_q[i])
            assert value == pytest.approx(old, abs=1e-7), (label, i)
            worst = max(worst, abs(value - old))
    print(f"worst |mmtv - union grid| per coordinate over {len(pairs)} pairs: {worst:.2e}")


def _wide_beside_narrow(spread):
    rng = np.random.default_rng(5)
    q_col = rng.standard_normal(400)
    p_col = spread * rng.standard_normal(400)
    return p_col, q_col


@pytest.mark.parametrize("spread", [1e2, 1e3, 1e4, 1e5, 1e6])
def test_mmtv_wide_set_beside_narrow_set_meets_lower_bound(spread):
    # With [a, b] the narrow set's range widened by four bandwidths,
    # TV >= Q([a, b]) - P([a, b]) = 1 - P([a, b]) - Q(outside [a, b]). At spread
    # 1000, adaptive Gauss-Kronrod over the whole range steps over the narrow
    # KDE and returns about 0.5. From spread 1e5 a union grid of both sets,
    # capped at 2^18 points, under-resolves the narrow KDE and falls below
    # the bound.
    p_col, q_col = _wide_beside_narrow(spread)
    bw_p, bw_q = silverman_bandwidth(p_col), silverman_bandwidth(q_col)
    a, b = q_col.min() - 4.0 * bw_q, q_col.max() + 4.0 * bw_q

    def kde_mass(col, bw):
        return ndtr((b - col) / bw).mean() - ndtr((a - col) / bw).mean()

    lower = 1.0 - kde_mass(p_col, bw_p) - (1.0 - kde_mass(q_col, bw_q))
    value = mmtv(as_set(p_col[:, None]), as_set(q_col[:, None]))
    assert lower > 0.97
    assert lower - 1e-12 <= value <= 1.0


@pytest.mark.parametrize("offset", [6.5, 7.0, 7.5])
def test_mmtv_narrow_set_in_far_tail_of_wide_set(offset):
    # The narrow set sits `offset` wide bandwidths past the wide set's range:
    # inside the wide KDE's reach, but where it is below the sign floor. The
    # one sign change lies between the wide set and the window where both
    # KDEs reach, so only the cut at the window's lower end separates the
    # two masses; without it the value is below 1e-6.
    rng = np.random.default_rng(0)
    p_col = rng.uniform(-100.0, 0.0, 400)
    q_col = offset * silverman_bandwidth(p_col) + 0.01 * rng.standard_normal(400)
    bw_p, bw_q = silverman_bandwidth(p_col), silverman_bandwidth(q_col)
    p, q = as_set(p_col[:, None]), as_set(q_col[:, None])
    value = mmtv(p, q)
    old = union_grid_marginal_tv(p_col, q_col, bw_p, bw_q)
    assert old > 0.999
    assert value == pytest.approx(old, abs=1e-7)
    assert value == mmtv(q, p) == per_coordinate_mmtv(p, q)
    # For A the narrow set's range widened by four of its bandwidths,
    # TV >= Q(A) - P(A). Summed over [lo, hi] only, the total variation drops
    # the KDE mass beyond: at offset 7 it read 0.99999960, below this bound
    # of 0.99999978.
    a, b = q_col.min() - 4.0 * bw_q, q_col.max() + 4.0 * bw_q

    def kde_mass(col, bw):
        return ndtr((b - col) / bw).mean() - ndtr((a - col) / bw).mean()

    lower = kde_mass(q_col, bw_q) - kde_mass(p_col, bw_p)
    assert lower > 0.9999997
    assert lower <= value <= 1.0


def test_mmtv_symmetric_exactly():
    for label, p, q in _test_pairs():
        assert mmtv(p, q) == mmtv(q, p), label


def test_mmtv_symmetric_exactly_across_bandwidth_ratios():
    # Wide beside narrow: only one side is interpolated, whichever argument
    # it is. Equal bandwidths (a shifted copy): neither side is.
    pairs = [(as_set(p[:, None]), as_set(q[:, None]))
             for p, q in map(_wide_beside_narrow, [1e2, 1e3, 1e4, 1e5, 1e6])]
    p = as_set(np.random.default_rng(12).standard_normal((300, 3)))
    pairs.append((p, as_set(p.points + 3.0)))
    for p, q in pairs:
        assert mmtv(p, q) == mmtv(q, p)


@pytest.mark.parametrize("shape, spread", [((400, 1), 1e3), ((100, 10), 1e3)],
                         ids=["400x1", "100x10"])
def test_mmtv_memory_stays_small_beside_a_wide_set(shape, spread):
    # A union grid of both sets at 16 points per narrow bandwidth would take
    # 2^16 points or more here, and tens of MB.
    rng = np.random.default_rng(5)
    narrow = as_set(rng.standard_normal(shape))
    wide = as_set(spread * rng.standard_normal(shape))
    mmtv(wide, narrow)
    tracemalloc.start()
    try:
        mmtv(wide, narrow)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_mmtv_rejects_constant_coordinate():
    p = as_set(np.column_stack([np.arange(5.0), np.ones(5)]))
    q = as_set(np.random.default_rng(0).standard_normal((5, 2)))
    with pytest.raises(DegenerateBandwidthError, match="coordinate 1 of p"):
        mmtv(p, q)


# ------------------------------------------------------------------- reference

def test_reference_fields():
    rng = np.random.default_rng(9)
    q = as_set(rng.standard_normal((300, 2)))
    reference = Reference.from_samples(q, seed=4)
    assert reference.samples is q
    assert reference.sigma == median_bandwidth(q, seed=4)
    assert reference.bandwidths.shape == (2,)
    assert not reference.bandwidths.flags.writeable
    for i in range(2):
        assert reference.bandwidths[i] == pytest.approx(silverman_bandwidth(q.points[:, i]),
                                                        rel=1e-12)
    assert 0.0 < reference.mean_qq <= 1.0


def test_reference_gives_fresh_call_values_bit_for_bit():
    rng = np.random.default_rng(10)
    q = as_set(rng.standard_normal((300, 3)))
    reference = Reference.from_samples(q, seed=2)
    sigma = median_bandwidth(q, seed=2)
    for shift in (0.0, 0.3, 5.0):
        p = as_set(rng.standard_normal((200, 3)) + shift)
        assert mmd2(p, reference) == mmd2(p, q, sigma)
        assert mmtv(p, reference) == mmtv(p, q)


def test_mmd2_reference_rejects_second_sigma():
    q = as_set(np.random.default_rng(11).standard_normal((30, 2)))
    with pytest.raises(ValueError, match="own kernel bandwidth"):
        mmd2(q, Reference.from_samples(q), 1.0)
