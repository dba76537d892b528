"""Output checks. Each failed check marks the rows or chains it covers as failed."""

import math

import numpy as np

SWEEP_HEADER = "theta,h,mmtv,mmd2,diverged"
# mmd2 is a V-statistic, non-negative up to float rounding.
MMD2_FLOOR = -1e-12
# Relative tolerance on the common ratio of a log-spaced h grid.
H_RATIO_RTOL = 1e-9
# Eigen-directions whose sample second moment has fewer effective draws than
# this mix too slowly to check; the rest must lie within MAX_Z standard errors.
MIN_EFFECTIVE_DRAWS = 50
MAX_Z = 6.0


def check_sweep(text, thetas, h_count):
    """Failed rows of one sweep CSV out of len(thetas) * h_count expected.

    The whole sweep fails if the header is wrong or the rows are not one per
    (theta, h) on a shared log-spaced grid of h_count points, sorted by
    (theta, h). Otherwise a row fails if it cannot be parsed, if it did not
    diverge but has mmtv outside [0, 1] or mmd2 below the rounding floor, or
    if it diverged at theta >= 1/2. Returns (failed, reasons).
    """
    expected = len(thetas) * h_count
    lines = text.splitlines()
    if not lines or lines[0] != SWEEP_HEADER:
        return expected, ["bad header"]
    rows = []
    for line in lines[1:]:
        parts = line.split(",")
        try:
            if len(parts) != 5:
                raise ValueError(line)
            theta, h, mmtv, mmd2 = (float(p) for p in parts[:4])
            diverged = {"0": False, "1": True}[parts[4]]
        except (ValueError, KeyError):
            return expected, [f"unparsable row {line!r}"]
        rows.append((theta, h, mmtv, mmd2, diverged))
    if len(rows) != expected:
        return expected, [f"{len(rows)} rows, expected {expected}"]
    keys = [(r[0], r[1]) for r in rows]
    if keys != sorted(keys):
        return expected, ["rows not sorted by (theta, h)"]
    grids = [[r[1] for r in rows if r[0] == t] for t in thetas]
    if any(g != grids[0] for g in grids) or len(grids[0]) != h_count:
        return expected, ["rows are not one per (theta, h)"]
    grid = grids[0]
    if h_count > 1:
        ratios = [b / a for a, b in zip(grid, grid[1:])]
        if (any(not 0 < a for a in grid)
                or any(abs(r / ratios[0] - 1.0) > H_RATIO_RTOL for r in ratios)):
            return expected, ["h grid is not log-spaced"]

    failed, reasons = 0, []
    for theta, h, mmtv, mmd2, diverged in rows:
        if diverged:
            bad = theta >= 0.5
        else:
            bad = not (math.isfinite(mmtv) and 0.0 <= mmtv <= 1.0
                       and math.isfinite(mmd2) and mmd2 >= MMD2_FLOOR)
        if bad:
            failed += 1
            reasons.append(f"row theta={theta} h={h} failed its check")
    return failed, reasons


def check_setup_probe(text):
    """A sweep with an empty h grid writes only the header."""
    return text.splitlines() == [SWEEP_HEADER]


def covariance_check(samples, precision, stationary_cov, theta, h):
    """Compare per-eigendirection second moments with their expected values.

    In the eigenbasis of the precision each coordinate of the theta-step chain
    is an AR(1) with coefficient a_i; started at the mean, the expected mean of
    y_k^2 over k = 1..n is s_i (1 - a_i^2 (1 - a_i^(2n)) / (n (1 - a_i^2))),
    where s_i is the stationary variance given by `stationary_cov`. The
    standard error uses Var(y^2) = 2 s_i^2 and the autocorrelation a_i^(2|j|)
    of y^2. Returns (directions checked, largest |z| among them).
    """
    lam, vecs = np.linalg.eigh(precision)
    a2 = ((1.0 - 0.5 * h * (1.0 - theta) * lam) / (1.0 + 0.5 * h * theta * lam)) ** 2
    s = np.einsum("ji,jk,ki->i", vecs, stationary_cov, vecs)
    n = samples.shape[0] - 1
    y = samples[1:] @ vecs
    moment = np.einsum("ki,ki->i", y, y) / n
    expected = s * (1.0 - a2 * (1.0 - a2**n) / (n * (1.0 - a2)))
    n_eff = n * (1.0 - a2) / (1.0 + a2)
    checked = n_eff >= MIN_EFFECTIVE_DRAWS
    if not checked.any():
        return 0, 0.0
    z = np.abs(moment - expected) / (s * np.sqrt(2.0 / n_eff))
    return int(checked.sum()), float(z[checked].max())


def check_chain(chain, n_steps):
    """A chain fails if it stopped early, diverged or failed the covariance check."""
    return (chain["steps"] != n_steps or chain["diverged"]
            or not chain["cov_max_z"] <= MAX_Z)
