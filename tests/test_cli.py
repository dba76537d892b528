import math
import os
import re
import shlex
import subprocess
import sys
import warnings
import weakref
from dataclasses import fields

import numpy as np
import pytest

from thetalangevin import (
    DegenerateBandwidthError,
    LogisticRegressionTarget,
    NoiseStream,
    SampleSet,
    SamplerConfig,
    StabilityWarning,
    Trajectory,
    diagnostics,
    mmtv,
    run_chain,
    step_size_heuristic,
    transition_log_density,
)
from thetalangevin import cli, targets
from thetalangevin.cli import (
    ExperimentConfig,
    _coerce_config_values,
    build_contour_target,
    build_gaussian_target,
    grid_rows_to_csv,
    load_config_file,
    main,
    run_kernel_contour,
    run_sweep,
    write_rows,
)

from oracles import point_transition_log_density


def small_gaussian_config(**kwargs):
    base = dict(kind="gaussian", dim=4, kappa=10.0, thetas=(0.0, 0.5),
                h_values=(0.5, 2.0), n_samples=150, seed=3, thin=1)
    base.update(kwargs)
    return ExperimentConfig(**base)


def write_synthetic_dataset(path, n_obs=60, dim=3, seed=0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n_obs, dim)) * rng.uniform(0.5, 2.0, size=dim) + 1.0
    truth = rng.standard_normal(dim)
    labels = (rng.random(n_obs) < 1.0 / (1.0 + np.exp(-(features - 1.0) @ truth))).astype(int)
    lines = [",".join([str(labels[i])] + [f"{float(v):.17g}" for v in features[i]])
             for i in range(n_obs)]
    path.write_text("\n".join(lines) + "\n")


# ------------------------------------------------------------------ experiments

def test_gaussian_experiment_rows_and_determinism():
    config = small_gaussian_config()
    rows = run_sweep(config)
    again = run_sweep(config)
    assert [(r.theta, r.h, r.mmtv, r.mmd2, r.diverged) for r in rows] == \
        [(r.theta, r.h, r.mmtv, r.mmd2, r.diverged) for r in again]
    assert [(r.theta, r.h) for r in rows] == [(0.0, 0.5), (0.0, 2.0), (0.5, 0.5), (0.5, 2.0)]
    for row in rows:
        if not row.diverged:
            assert 0.0 <= row.mmtv <= 1.0 + 1e-8
            assert row.mmd2 >= -1e-12


def test_gaussian_kappa_one_chain_is_noise_level():
    # With unit condition number, theta=1/2 and h=4 the chain reproduces the
    # noise exactly, so its discrepancies should sit at the level of two
    # independent exact sample sets.
    config = ExperimentConfig(kind="gaussian", dim=6, kappa=1.0, thetas=(0.5,),
                              h_values=(4.0,), n_samples=800, seed=2, thin=1)
    row = run_sweep(config)[0]
    target = build_gaussian_target(6, 1.0, seed=2)
    first = SampleSet(target.exact_sample(800, np.random.default_rng(100)))
    second = SampleSet(target.exact_sample(800, np.random.default_rng(200)))
    from thetalangevin import median_bandwidth, mmd2

    baseline_mmtv = mmtv(first, second)
    baseline_mmd = mmd2(first, second, median_bandwidth(second))
    assert row.mmtv < 3.0 * baseline_mmtv
    assert row.mmd2 < 3.0 * max(baseline_mmd, 1e-4)


def test_gaussian_experiment_flags_ula_divergence():
    target = build_gaussian_target(4, 10.0, seed=3)
    _, big_m = target.convexity_bounds()
    config = small_gaussian_config(h_values=(8.0 / big_m * 2.0,), thetas=(0.0, 0.5),
                                  n_samples=400)
    rows = run_sweep(config)
    ula_row = next(r for r in rows if r.theta == 0.0)
    implicit_row = next(r for r in rows if r.theta == 0.5)
    assert ula_row.diverged
    assert math.isnan(ula_row.mmd2)
    assert not implicit_row.diverged


def test_sweep_contains_stability_warnings_and_restores_filters():
    # theta = 0 at h = 16/M is past the stability bound: the sweep reports the
    # row as diverged, lets no StabilityWarning escape and leaves the filter
    # list as it found it, so later chains in the process still warn.
    target = build_gaussian_target(4, 10.0, seed=3)
    h = 16.0 / target.convexity_bounds()[1]
    config = small_gaussian_config(h_values=(h,), thetas=(0.0, 0.5), n_samples=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", StabilityWarning)
        filters = list(warnings.filters)
        rows = run_sweep(config)
        assert warnings.filters == filters
    assert [r.diverged for r in rows] == [True, False]
    with pytest.warns(StabilityWarning):
        run_chain(target, np.zeros(4), SamplerConfig(theta=0.0, h=h, n_steps=10))


def test_sweep_rejects_unknown_kind():
    with pytest.raises(ValueError, match="no sweep for kind 'contour'"):
        run_sweep(ExperimentConfig(kind="contour"))


def test_logistic_experiment_end_to_end(tmp_path):
    dataset = tmp_path / "synthetic.csv"
    write_synthetic_dataset(dataset)
    config = ExperimentConfig(kind="logistic", dataset=str(dataset),
                              thetas=(0.0, 0.5), h_values=(0.2, 1.0),
                              n_samples=80, seed=5, thin=5, ref_thin=2, eps=1e-8)
    rows = run_sweep(config)
    assert len(rows) == 4
    produced = [r for r in rows if not r.diverged]
    assert produced, "at least some grid points must produce samples"
    for row in produced:
        assert row.mmd2 >= -1e-12


def test_logistic_zero_design_reduces_to_gaussian_prior():
    # Zero design rows leave only the spherical prior: N(0, I/lambda).
    lam = 1.0
    target = LogisticRegressionTarget(np.zeros((20, 3)), np.zeros(20), lam)
    assert target.convexity_bounds() == (lam, lam)
    h_half = step_size_heuristic(np.full(3, lam), 0.5)
    config = SamplerConfig(theta=0.5, h=h_half, eps=1e-9, n_steps=2000, seed=11)
    trajectory = run_chain(target, np.zeros(3), config)
    chain_set = SampleSet(trajectory.samples[1:])
    exact = np.random.default_rng(12).standard_normal((2000, 3)) / math.sqrt(lam)
    assert mmtv(chain_set, SampleSet(exact)) < 0.05


# ------------------------------------------------------------------ csv output

def test_write_rows_refuses_overwrite(tmp_path):
    out = tmp_path / "rows.csv"
    rows = grid_rows_to_csv(run_sweep(small_gaussian_config(n_samples=50)))
    write_rows(str(out), ["theta", "h", "mmtv", "mmd2", "diverged"], rows, overwrite=False)
    with pytest.raises(FileExistsError):
        write_rows(str(out), ["theta", "h", "mmtv", "mmd2", "diverged"], rows,
                   overwrite=False)
    write_rows(str(out), ["theta", "h", "mmtv", "mmd2", "diverged"], rows, overwrite=True)


def test_write_rows_replaces_atomically(tmp_path):
    out = tmp_path / "rows.csv"
    out.write_text("old\n")

    def failing_rows():
        yield ["1", "2"]
        raise RuntimeError("interrupted")

    with pytest.raises(RuntimeError):
        write_rows(str(out), ["a", "b"], failing_rows(), overwrite=True)
    assert out.read_text() == "old\n"
    write_rows(str(out), ["a", "b"], [["1", "2"]], overwrite=True)
    assert out.read_text() == "a,b\n1,2\n"
    assert os.listdir(tmp_path) == ["rows.csv"]


def test_cli_gaussian_csv_bytes_identical(tmp_path):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    argv = ["gaussian", "--dim", "4", "--kappa", "10", "--theta", "0.5",
            "--h", "0.5", "--h", "2.0", "--samples", "100", "--seed", "7"]
    assert main(argv + ["--out", str(first)]) == 0
    assert main(argv + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    header = first.read_text().splitlines()[0]
    assert header == "theta,h,mmtv,mmd2,diverged"


@pytest.mark.parametrize("command, flags, config, named", [
    ("gaussian", ["--h", "0.1", "--h-min", "5", "--h-max", "9", "--h-count", "7"], "",
     "--h cannot be used with --h-min and --h-max and --h-count"),
    ("logistic", ["--h", "0.1", "--h-count", "7"], "", "--h cannot be used with --h-count"),
    ("gaussian", ["--h-max", "9"], "h_values = 0.1\n",
     "h_values in --config cannot be used with --h-max"),
    ("logistic", ["--h", "0.1"], "h_min = 5\nh_count = 7\n",
     "--h cannot be used with h_min in --config and h_count in --config"),
], ids=["gaussian-flags", "logistic-flags", "file-h", "file-range"])
def test_cli_sweeps_reject_h_with_h_range(tmp_path, capsys, monkeypatch, command, flags,
                                          config, named):
    # Before, gaussian --h 0.1 --h-min 5 --h-max 9 --h-count 7 wrote the
    # bytes of --h 0.1: the range was silently unread.
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(config)
    _forbid_work(monkeypatch)
    sweep = (["--dim", "4"] if command == "gaussian" else ["--dataset", "unread.csv"])
    assert main([command, *sweep, "--theta", "0.5", "--config", str(cfg), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {named}: --h gives the whole h grid\n"
    # The CLI refuses the pair; the config itself still holds both.
    config = ExperimentConfig(h_values=(0.1,), h_min=5.0, h_max=9.0, h_count=7)
    assert (config.h_values, config.h_min, config.h_max, config.h_count) == ((0.1,), 5.0, 9.0, 7)


def test_cli_refuses_clobber(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    argv = ["gaussian", "--dim", "4", "--kappa", "2", "--theta", "0.5",
            "--h", "1.0", "--samples", "60", "--seed", "1", "--out", str(out)]
    assert main(argv) == 0
    assert main(argv) == 1
    assert "overwrite" in capsys.readouterr().err
    assert main(argv + ["--overwrite"]) == 0


def _forbid_work(monkeypatch):
    """Make building any target, running any chain or computing a heuristic fail."""
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the --out check")

    for name in ("build_gaussian_target", "build_logistic_target", "run_chains",
                 "run_heuristic"):
        monkeypatch.setattr(cli, name, no_work)


_WRITING_ARGV = {
    "gaussian": ["gaussian", "--dim", "4", "--theta", "0.5", "--h", "1.0", "--samples", "60"],
    "logistic": ["logistic", "--dataset", "unread.csv", "--theta", "0.5", "--h", "1.0"],
    "heuristic": ["heuristic", "--kappa", "10", "--dim", "4"],
    "contour": ["contour", "--kappa", "4", "--theta", "0.5", "--h", "1.0"],
    "contour-dump-matrix": ["contour", "--kappa", "4", "--theta", "0.5", "--h", "1.0"],
}
# The flag naming the checked path; "--out" unless listed.
_OUT_FLAG = {"contour-dump-matrix": "--dump-matrix"}


@pytest.mark.parametrize("command", sorted(_WRITING_ARGV))
def test_cli_refuses_existing_out_before_any_work(tmp_path, capsys, monkeypatch, command):
    out = tmp_path / "rows.csv"
    out.write_text("keep\n")
    _forbid_work(monkeypatch)
    assert main(_WRITING_ARGV[command] + [_OUT_FLAG.get(command, "--out"), str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {out} exists; pass --overwrite to replace it" in captured.err
    assert out.read_text() == "keep\n"


@pytest.mark.parametrize("command", sorted(_WRITING_ARGV))
def test_cli_refuses_out_in_missing_directory_before_any_work(tmp_path, capsys,
                                                              monkeypatch, command):
    out = tmp_path / "missing" / "rows.csv"
    _forbid_work(monkeypatch)
    assert main(_WRITING_ARGV[command]
                + [_OUT_FLAG.get(command, "--out"), str(out), "--overwrite"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"directory {tmp_path / 'missing'} does not exist" in captured.err
    assert not out.parent.exists()


def test_cli_refuses_directory_as_out(tmp_path, capsys, monkeypatch):
    _forbid_work(monkeypatch)
    assert main(_WRITING_ARGV["gaussian"] + ["--out", str(tmp_path), "--overwrite"]) == 1
    assert f"error: {tmp_path} is a directory" in capsys.readouterr().err


def test_cli_h_range_grid(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["gaussian", "--dim", "4", "--kappa", "5", "--theta", "0.5",
                 "--h-min", "0.1", "--h-max", "10", "--h-count", "5",
                 "--samples", "60", "--seed", "2", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 5
    hs = [float(line.split(",")[1]) for line in lines[1:]]
    assert hs == sorted(hs)
    assert hs[0] == pytest.approx(0.1) and hs[-1] == pytest.approx(10.0)


def test_cli_logistic_subcommand(tmp_path):
    dataset = tmp_path / "synthetic.csv"
    write_synthetic_dataset(dataset, n_obs=40, dim=2, seed=1)
    out = tmp_path / "rows.csv"
    assert main(["logistic", "--dataset", str(dataset), "--lambda", "1.0",
                 "--theta", "0.5", "--h", "0.5", "--samples", "40",
                 "--thin", "2", "--ref-thin", "2", "--seed", "6",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,h,mmtv,mmd2,diverged"
    assert len(lines) == 2


def test_cli_gaussian_thin_applies_to_explicit_rows(tmp_path):
    argv = ["gaussian", "--dim", "4", "--kappa", "10", "--theta", "0", "--theta", "0.5",
            "--h", "0.1", "--h", "0.3", "--samples", "80", "--seed", "3"]
    default, thinned = tmp_path / "default.csv", tmp_path / "thinned.csv"
    assert main(argv + ["--out", str(default)]) == 0
    assert main(argv + ["--thin", "2", "--out", str(thinned)]) == 0
    default_rows = default.read_text().splitlines()[1:]
    thinned_rows = thinned.read_text().splitlines()[1:]
    explicit = [i for i, row in enumerate(default_rows) if row.startswith("0,")]
    assert explicit == [0, 1]
    for i, (a, b) in enumerate(zip(default_rows, thinned_rows)):
        assert (a != b) if i in explicit else (a == b)


@pytest.mark.parametrize("flag, field", [("--thin", "thin"), ("--ref-thin", "ref_thin")])
def test_cli_logistic_rejects_nonpositive_thinning(tmp_path, capsys, flag, field):
    dataset = tmp_path / "synthetic.csv"
    write_synthetic_dataset(dataset, n_obs=20, dim=2, seed=1)
    assert main(["logistic", "--dataset", str(dataset), "--theta", "0",
                 "--h", "0.5", flag, "0"]) == 1
    assert f"error: {field} must be >= 1, got 0" in capsys.readouterr().err


def test_cli_exit_zero_with_diverged_rows(tmp_path):
    out = tmp_path / "rows.csv"
    argv = ["gaussian", "--dim", "4", "--kappa", "10", "--theta", "0",
            "--h", "50.0", "--samples", "100", "--seed", "2", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[1].endswith(",1")


# -------------------------------------------------------------------- heuristic

def test_cli_heuristic_flat_model(capsys):
    assert main(["heuristic", "--dim", "10", "--m", "1", "--M", "1"]) == 0
    output = capsys.readouterr().out
    assert "h_hat=" in output
    value = float(output.split("h_hat=")[1].split()[0])
    assert value == pytest.approx(4.0, rel=1e-6)


def test_cli_heuristic_spectrum_file_matches_model(tmp_path, capsys):
    from thetalangevin import SpectralModel, exp_decay_spectrum

    spectrum = exp_decay_spectrum(SpectralModel(d=12, m=1.0, M=50.0))
    path = tmp_path / "spectrum.txt"
    path.write_text("\n".join(str(v) for v in spectrum))
    assert main(["heuristic", "--spectrum", str(path), "--theta", "0.5"]) == 0
    from_file = float(capsys.readouterr().out.split("h_hat=")[1].split()[0])
    assert main(["heuristic", "--dim", "12", "--m", "1", "--M", "50",
                 "--theta", "0.5"]) == 0
    from_model = float(capsys.readouterr().out.split("h_hat=")[1].split()[0])
    assert from_file == pytest.approx(from_model, rel=1e-12)


def test_cli_heuristic_reads_kappa_and_dim_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "heuristic.cfg"
    cfg.write_text("kappa = 10\ndim = 4\n")
    assert main(["heuristic", "--config", str(cfg)]) == 0
    from_file = capsys.readouterr().out
    assert main(["heuristic", "--kappa", "10", "--dim", "4"]) == 0
    assert from_file == capsys.readouterr().out and "h_hat=" in from_file
    assert main(["heuristic", "--dim", "4"]) == 1
    assert "error: heuristic needs --spectrum, --kappa, or --m/--M" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--spectrum", "unread.txt", "--kappa", "1000", "--dim", "7"], "--spectrum and --kappa"),
    (["--kappa", "10", "--m", "1", "--M", "500"], "--kappa and --m/--M"),
    (["--kappa", "10", "--M", "500"], "--kappa and --m/--M"),
    (["--spectrum", "unread.txt", "--m", "1", "--M", "5"], "--spectrum and --m/--M"),
    (["--config", "{cfg}", "--m", "1", "--M", "5"], "kappa in --config and --m/--M"),
    (["--config", "{cfg}", "--spectrum", "unread.txt"], "--spectrum and kappa in --config"),
], ids=["spectrum-kappa", "kappa-m-M", "kappa-M", "spectrum-m-M", "file-kappa-m-M",
        "file-kappa-spectrum"])
def test_cli_heuristic_rejects_two_curvature_sources_before_any_work(tmp_path, capsys,
                                                                      monkeypatch, flags, named):
    cfg = tmp_path / "heuristic.cfg"
    cfg.write_text("kappa = 10\n")
    _forbid_work(monkeypatch)
    assert main(["heuristic", *(f.format(cfg=cfg) for f in flags)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: heuristic takes one curvature source, got {named}\n" == captured.err


@pytest.mark.parametrize("where", ["flag", "config"])
def test_cli_heuristic_rejects_dim_with_spectrum(tmp_path, capsys, monkeypatch, where):
    # A spectrum file sets its own length; --dim sizes only a model spectrum.
    cfg = tmp_path / "heuristic.cfg"
    cfg.write_text("dim = 7\n")
    _forbid_work(monkeypatch)
    extra = ["--dim", "7"] if where == "flag" else ["--config", str(cfg)]
    assert main(["heuristic", "--spectrum", "unread.txt", *extra]) == 1
    name = "--dim" if where == "flag" else "dim in --config"
    assert capsys.readouterr().err == (f"error: {name} sizes a --kappa or --m/--M spectrum; "
                                       "it cannot be used with --spectrum\n")


_KAPPA_ARGV = {
    "gaussian": ["gaussian", "--dim", "4", "--theta", "0.5", "--h", "1.0"],
    "contour": ["contour", "--theta", "0.5"],
    "heuristic": ["heuristic", "--dim", "4"],
}


@pytest.mark.parametrize("where", ["flag", "config"])
@pytest.mark.parametrize("kappa", ["nan", "inf", "0.5"])
@pytest.mark.parametrize("command", sorted(_KAPPA_ARGV))
def test_cli_rejects_bad_kappa_before_any_work(tmp_path, capsys, monkeypatch, command, kappa,
                                               where):
    # Before, --kappa nan failed inside SpectralModel without naming kappa,
    # and heuristic --kappa inf leaked a RuntimeWarning first.
    cfg = tmp_path / "kappa.cfg"
    cfg.write_text(f"kappa = {kappa}\n")
    _forbid_work(monkeypatch)
    extra = ["--kappa", kappa] if where == "flag" else ["--config", str(cfg)]
    assert main([*_KAPPA_ARGV[command], *extra]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: kappa must be finite and >= 1, got {float(kappa)}\n"


@pytest.mark.parametrize("big_m", ["inf", "nan"])
def test_cli_heuristic_rejects_non_finite_big_m(capsys, big_m):
    assert main(["heuristic", "--m", "1", "--M", big_m]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need 0 < m <= M < inf, got m=1.0, M={big_m}\n"


def test_cli_heuristic_rejects_theta_zero(capsys):
    assert main(["heuristic", "--kappa", "10", "--theta", "0"]) == 1
    assert "theta" in capsys.readouterr().err


# ---------------------------------------------------------------------- contour

def test_contour_explicit_scheme_level_sets_are_circles():
    target = build_gaussian_target(2, 25.0, seed=9)
    h = 2.0
    x = np.array([0.8, -0.4])
    center = x - 0.5 * h * target.gradient(x)
    values = []
    for angle in np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False):
        y = center + 1.3 * np.array([np.cos(angle), np.sin(angle)])
        values.append(transition_log_density(target, y, x, 0.0, h))
    assert np.ptp(values) < 1e-10


def test_contour_grid_normalizes():
    config = ExperimentConfig(kind="contour", kappa=4.0, thetas=(0.5,),
                              h_values=(1.0,), seed=4, grid_count=180, span=9.0)
    rows = run_kernel_contour(config, build_contour_target(config))
    axis_step = 2 * 9.0 / (180 - 1)
    total = sum(math.exp(lp) for _, _, _, lp in rows) * axis_step**2
    assert total == pytest.approx(1.0, abs=1e-2)


def test_contour_deterministic_rows():
    config = ExperimentConfig(kind="contour", kappa=4.0, thetas=(0.0, 1.0),
                              h_values=(0.5,), seed=4, grid_count=12, span=4.0)
    target = build_contour_target(config)
    assert run_kernel_contour(config, target) == run_kernel_contour(config, target)


def test_contour_logistic_dataset_adapts_to_anisotropy(tmp_path):
    # One feature plus intercept gives the 2-d posterior; implicit kernels
    # need not be isotropic, unlike the explicit one.
    dataset = tmp_path / "one_feature.csv"
    write_synthetic_dataset(dataset, n_obs=50, dim=1, seed=3)
    config = ExperimentConfig(kind="contour", dataset=str(dataset), thetas=(1.0,),
                              h_values=(10.0,), seed=3, grid_count=9, span=3.0)
    rows = run_kernel_contour(config, build_contour_target(config))
    assert len(rows) == 81
    assert all(np.isfinite(lp) for _, _, _, lp in rows)


def test_contour_matches_per_point_oracle(tmp_path):
    # The grid is scored in stacks; BLAS may sum a stack's products in another
    # order than one point's, so values agree to 1e-12 relative, not bit for bit.
    dataset = tmp_path / "one_feature.csv"
    write_synthetic_dataset(dataset, n_obs=50, dim=1, seed=3)
    configs = [ExperimentConfig(kind="contour", kappa=25.0, thetas=(0.0, 0.5, 1.0),
                                h_values=(10.0,), seed=1, grid_count=40, span=15.0),
               ExperimentConfig(kind="contour", dataset=str(dataset), thetas=(0.0, 0.5, 1.0),
                                h_values=(2.0,), seed=3, grid_count=37, span=3.0)]
    for config in configs:
        target = build_contour_target(config)
        rows = run_kernel_contour(config, target)
        source = targets.mode(target)
        axis = np.linspace(-config.span, config.span, config.grid_count)
        expected = [(theta, *(source + [gx, gy])) for theta in config.thetas
                    for gx in axis for gy in axis]
        assert [row[:3] for row in rows] == expected
        for theta, x, y, log_p in rows:
            oracle = point_transition_log_density(target, np.array([x, y]), source, theta,
                                                  config.h_values[0])
            assert abs(log_p - oracle) <= 1e-12 * max(1.0, abs(oracle))


def test_cli_contour_writes_grid(tmp_path):
    out = tmp_path / "contour.csv"
    assert main(["contour", "--kappa", "4", "--theta", "0", "--h", "1.0",
                 "--grid-count", "8", "--span", "3", "--seed", "4",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,x,y,log_density"
    assert len(lines) == 1 + 8 * 8


def test_cli_contour_rejects_more_than_one_h(tmp_path, capsys):
    # Only one step size is drawn; a second --h was silently dropped before.
    out = tmp_path / "contour.csv"
    assert main(["contour", "--kappa", "4", "--theta", "0.5", "--h", "10", "--h", "1",
                 "--grid-count", "4", "--out", str(out)]) == 1
    assert "--h" in capsys.readouterr().err
    assert not out.exists()


# ----------------------------------------------------------------- config files

def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# sweep settings\n"
        "dim = 4\n"
        "kappa = 10\n"
        "thetas = 0.0,0.5\n"
        "h_values = 0.5,2.0\n"
        "n_samples = 60\n"
        "seed = 3\n"
    )
    values = load_config_file(str(path), {"dim", "kappa", "thetas", "h_values", "n_samples",
                                          "seed"})
    assert values["dim"] == "4"
    assert values["thetas"] == "0.0,0.5"


def test_config_file_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim=4\nkappa=10\nthetas=0.5\nh_values=1.0\nn_samples=50\nseed=3\n")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert main(["gaussian", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["gaussian", "--config", str(cfg), "--seed", "4",
                 "--out", str(out_b)]) == 0
    assert out_a.read_bytes() != out_b.read_bytes()


def test_config_file_rejects_kind_under_every_subcommand(tmp_path, capsys, monkeypatch):
    # The subcommand sets kind; a file's kind is an unknown key, not ignored.
    cfg = tmp_path / "kind.cfg"
    cfg.write_text("kind = logistic\n")
    _forbid_work(monkeypatch)
    for command in ("gaussian", "logistic", "heuristic", "contour"):
        assert main(_WRITING_ARGV[command] + ["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {cfg}: line 1: unknown key 'kind'" in captured.err


def test_config_file_parses_every_field_by_annotation(tmp_path):
    expected = dict(
        kind="logistic", dim=7, kappa=12.5, dataset="data.csv", label_col=2,
        prior_precision=0.25, thetas=(0.0, 0.75), h_values=(0.5, 2.0), h_min=0.001,
        h_max=30.0, h_count=9, n_samples=321, eps=1e-7, seed=42, burn_in=5, thin=4,
        ref_steps=1000, ref_thin=3, ref_h=0.0625, out="rows.csv", overwrite=True,
        source=(1.5, -2.0), grid_count=17, span=3.5,
    )
    assert set(expected) == {f.name for f in fields(ExperimentConfig)}
    text = {"thetas": "0,0.75", "h_values": "0.5, 2", "source": "1.5,-2",
            "overwrite": "Yes", "eps": "1e-7"}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {text.get(key, value)}\n"
                           for key, value in expected.items()))
    parsed = _coerce_config_values(load_config_file(str(cfg), set(expected)))
    assert parsed == expected
    for key, value in expected.items():
        assert type(parsed[key]) is type(value), key
    assert type(parsed["thetas"][0]) is float and type(parsed["source"][0]) is float
    assert ExperimentConfig(**parsed) == ExperimentConfig(**expected)
    for value, expected in (("1", True), ("TRUE", True), ("yes", True), ("0", False),
                            ("false", False), ("No", False), ("FALSE", False)):
        assert _coerce_config_values({"overwrite": value}) == {"overwrite": expected}


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dimension=4\n")
    with pytest.raises(ValueError, match="unknown key 'dimension'"):
        load_config_file(str(cfg), {"dim"})


_SWEEP_DESTS = {"config", "thetas", "out", "overwrite", "h_values", "h_min", "h_max",
                "h_count", "n_samples", "seed", "burn_in", "thin"}
# Each subcommand's flag destinations: the settings its code reads.
_SUBCOMMAND_DESTS = {
    "gaussian": _SWEEP_DESTS | {"dim", "kappa"},
    "logistic": _SWEEP_DESTS | {"eps", "dataset", "label_col", "prior_precision", "ref_steps",
                                "ref_thin", "ref_h"},
    "heuristic": {"config", "thetas", "out", "overwrite", "dim", "m", "big_m", "kappa",
                  "spectrum"},
    "contour": {"config", "thetas", "out", "overwrite", "h_values", "seed", "kappa", "dataset",
                "label_col", "prior_precision", "source", "grid_count", "span", "dump_matrix"},
}
_FIELDS = {f.name for f in fields(ExperimentConfig)}


def test_each_subcommand_has_only_the_flags_it_reads():
    for command, dests in _SUBCOMMAND_DESTS.items():
        assert set(vars(cli.build_parser().parse_args([command]))) == dests | {"command"}
    assert [len(dests) for dests in _SUBCOMMAND_DESTS.values()] == [14, 19, 9, 14]


def test_readme_commands_parse():
    # A flag removed or renamed in the parser must not leave README stale.
    readme = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "README.md")
    with open(readme, encoding="utf-8") as handle:
        blocks = re.findall(r"^```sh\n(.*?)^```", handle.read(), re.DOTALL | re.MULTILINE)
    commands = [shlex.split(line)[1:] for block in blocks
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("thetalangevin ")]
    assert len(commands) >= 5
    parser = cli.build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README command does not parse: thetalangevin {shlex.join(argv)}")


@pytest.mark.parametrize("command, flag", [("gaussian", "--eps")]
                         + [("heuristic", flag) for flag in (
                             "--h", "--h-min", "--h-max", "--h-count", "--samples", "--eps",
                             "--seed", "--burn-in", "--thin")]
                         + [("contour", flag) for flag in (
                             "--h-min", "--h-max", "--h-count", "--samples", "--eps",
                             "--burn-in", "--thin")])
def test_cli_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, monkeypatch, command,
                                                                flag):
    # heuristic --h is not taken as an abbreviation of --help.
    _forbid_work(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(_WRITING_ARGV[command] + [flag, "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: unrecognized arguments: {flag} 1" in captured.err


@pytest.mark.parametrize("command", sorted(_SUBCOMMAND_DESTS))
def test_config_file_takes_only_the_subcommand_settings(tmp_path, capsys, monkeypatch, command):
    settings = _SUBCOMMAND_DESTS[command] & _FIELDS
    assert len(settings) == {"gaussian": 13, "logistic": 18, "heuristic": 5,
                             "contour": 12}[command]
    _forbid_work(monkeypatch)
    cfg = tmp_path / "run.cfg"
    for key in sorted(_FIELDS - settings):
        cfg.write_text(f"{key} = 1\n")
        assert main(_WRITING_ARGV[command] + ["--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {cfg}: line 1: unknown key {key!r}" in captured.err
    seen = []

    def capture_keys(path, keys):
        seen.append(set(keys))
        raise ValueError("keys captured")

    monkeypatch.setattr(cli, "load_config_file", capture_keys)
    assert main(_WRITING_ARGV[command] + ["--config", str(cfg)]) == 1
    assert seen == [settings]


@pytest.mark.parametrize("value", ["on", "ture", "2", ""])
def test_config_file_rejects_unparsable_booleans(tmp_path, capsys, value):
    # Anything but 1/true/yes or 0/false/no is an error naming the key and
    # the value, not a silent False.
    message = f"config key overwrite = {value!r}: expected 1/true/yes or 0/false/no"
    with pytest.raises(ValueError, match=re.escape(message)):
        _coerce_config_values({"overwrite": value})
    cfg, out = tmp_path / "run.cfg", tmp_path / "rows.csv"
    cfg.write_text(f"overwrite = {value}\n")
    assert main(_WRITING_ARGV["gaussian"] + ["--config", str(cfg), "--out", str(out)]) == 1
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, reason", [
    ("n_samples", "2.5", "invalid literal for int() with base 10: '2.5'"),
    ("kappa", "big", "could not convert string to float: 'big'"),
    ("thetas", "0,x", "could not convert string to float: 'x'"),
])
def test_config_file_bad_number_names_its_key(tmp_path, capsys, key, value, reason):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key} = {value}\n")
    assert main(["gaussian", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: config key {key} = {value!r}: {reason}" in captured.err


def test_seed_env_var_sets_default(tmp_path, monkeypatch):
    out_default = tmp_path / "default.csv"
    out_env = tmp_path / "env.csv"
    argv = ["gaussian", "--dim", "4", "--kappa", "2", "--theta", "0.5",
            "--h", "1.0", "--samples", "50"]
    assert main(argv + ["--out", str(out_default)]) == 0
    monkeypatch.setenv("THETALANGEVIN_SEED", "123")
    assert main(argv + ["--out", str(out_env)]) == 0
    assert out_default.read_bytes() != out_env.read_bytes()


def test_seed_env_var_is_read_only_by_subcommands_with_seed(capsys, monkeypatch):
    monkeypatch.setenv("THETALANGEVIN_SEED", "abc")
    assert main(["heuristic", "--kappa", "10", "--dim", "4"]) == 0
    # A seed given by flag leaves the environment unread.
    assert main(_WRITING_ARGV["gaussian"] + ["--kappa", "2", "--seed", "1"]) == 0
    capsys.readouterr()
    _forbid_work(monkeypatch)
    for command in ("gaussian", "logistic", "contour"):
        assert main(_WRITING_ARGV[command]) == 1
        assert capsys.readouterr().err == ("error: THETALANGEVIN_SEED = 'abc': "
                                           "invalid literal for int() with base 10: 'abc'\n")


@pytest.mark.parametrize("seed", [-1, 2**64])
@pytest.mark.parametrize("where", ["flag", "config", "env"])
@pytest.mark.parametrize("command", ["gaussian", "logistic", "contour"])
def test_cli_rejects_seed_outside_uint64_before_any_work(tmp_path, capsys, monkeypatch, command,
                                                         where, seed):
    # Checked up front: numpy refuses a negative seed only when a generator is
    # seeded with it, for logistic after the whole reference chain.
    _forbid_work(monkeypatch)
    argv = list(_WRITING_ARGV[command])
    if where == "flag":
        argv += ["--seed", str(seed)]
    elif where == "config":
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"seed = {seed}\n")
        argv += ["--config", str(cfg)]
    else:
        monkeypatch.setenv("THETALANGEVIN_SEED", str(seed))
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: seed must be in [0, 2**64), got {seed}" in captured.err


def test_cli_runs_at_the_largest_seed(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(_WRITING_ARGV["gaussian"] + ["--seed", str(2**64 - 1), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 2


def test_trajectory_and_matrix_dumps(tmp_path):
    from thetalangevin.matrixgen import dump_matrix

    target = build_gaussian_target(3, 5.0, seed=1)
    trajectory = run_chain(target, np.zeros(3), SamplerConfig(theta=0.5, h=1.0, n_steps=20))
    chain_path = tmp_path / "chain.csv"
    dump_matrix(trajectory.samples, chain_path)
    loaded = np.loadtxt(chain_path, delimiter=",")
    np.testing.assert_allclose(loaded, trajectory.samples, rtol=1e-15)

    matrix_path = tmp_path / "cov.csv"
    dump_matrix(target.covariance, matrix_path)
    np.testing.assert_allclose(np.loadtxt(matrix_path, delimiter=","),
                               target.covariance, rtol=1e-15)


def test_cli_contour_dump_matrix_flag(tmp_path):
    out = tmp_path / "contour.csv"
    dumped = tmp_path / "cov.csv"
    assert main(["contour", "--kappa", "4", "--theta", "0", "--h", "1.0",
                 "--grid-count", "4", "--span", "2", "--seed", "4",
                 "--out", str(out), "--dump-matrix", str(dumped)]) == 0
    assert np.loadtxt(dumped, delimiter=",").shape == (2, 2)


def test_cli_logistic_missing_dataset_errors(capsys):
    assert main(["logistic", "--samples", "10"]) == 1
    assert "dataset" in capsys.readouterr().err


def test_cli_logistic_empty_dataset(tmp_path, capsys):
    dataset = tmp_path / "empty.csv"
    dataset.write_text("")
    assert main(["logistic", "--dataset", str(dataset)]) == 1
    assert "empty" in capsys.readouterr().err


def test_cli_contour_dump_matrix_rejects_dataset(tmp_path, capsys, monkeypatch):
    dataset = tmp_path / "one_feature.csv"
    write_synthetic_dataset(dataset, n_obs=50, dim=1, seed=3)
    dumped = tmp_path / "cov.csv"

    def no_rows(*args, **kwargs):
        raise AssertionError("contour rows computed before the --dump-matrix check")

    monkeypatch.setattr(cli, "run_kernel_contour", no_rows)
    assert main(["contour", "--dataset", str(dataset), "--theta", "1", "--h", "1.0",
                 "--grid-count", "4", "--dump-matrix", str(dumped)]) == 1
    assert "--dump-matrix" in capsys.readouterr().err
    assert not dumped.exists()


@pytest.mark.parametrize("flags, config, named", [
    (["--kappa", "4", "--seed", "4"], "", "--kappa and --seed"),
    (["--kappa", "400"], "", "--kappa"),
    (["--seed", "400"], "", "--seed"),
    ([], "kappa = 4\n", "kappa in --config"),
    (["--kappa", "4"], "seed = 4\n", "--kappa and seed in --config"),
], ids=["kappa-seed", "kappa", "seed", "file-kappa", "kappa-file-seed"])
def test_cli_contour_rejects_gaussian_settings_with_dataset(tmp_path, capsys, monkeypatch,
                                                            flags, config, named):
    # The logistic target reads neither kappa nor seed: without this check
    # --kappa 4 --seed 4 and --kappa 400 --seed 400 print identical bytes.
    cfg = tmp_path / "contour.cfg"
    cfg.write_text(config)
    _forbid_work(monkeypatch)
    assert main(["contour", "--dataset", "unread.csv", "--theta", "0.5", "--grid-count", "3",
                 "--config", str(cfg), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {named} cannot be used with --dataset: "
                            "only the Gaussian target reads kappa and seed\n")


def test_cli_contour_with_dataset_allows_seed_env_var(tmp_path, capsys, monkeypatch):
    dataset = tmp_path / "one_feature.csv"
    write_synthetic_dataset(dataset, n_obs=50, dim=1, seed=3)
    argv = ["contour", "--dataset", str(dataset), "--theta", "0.5", "--grid-count", "3"]
    assert main(argv) == 0
    unseeded = capsys.readouterr().out
    monkeypatch.setenv("THETALANGEVIN_SEED", "400")
    assert main(argv) == 0
    assert capsys.readouterr().out == unseeded and unseeded.count("\n") == 9


def test_cli_contour_dump_matrix_builds_target_once(tmp_path, monkeypatch):
    built = []

    def counting_build(*args):
        built.append(build_gaussian_target(*args))
        return built[-1]

    monkeypatch.setattr(cli, "build_gaussian_target", counting_build)
    dumped = tmp_path / "cov.csv"
    assert main(["contour", "--kappa", "4", "--theta", "0.5", "--h", "1.0",
                 "--grid-count", "4", "--span", "2", "--seed", "4",
                 "--out", str(tmp_path / "contour.csv"), "--dump-matrix", str(dumped)]) == 0
    assert len(built) == 1
    np.testing.assert_allclose(np.loadtxt(dumped, delimiter=","), built[0].covariance,
                               rtol=1e-15)


def _forbid_chains(monkeypatch):
    def no_chain(*args, **kwargs):
        raise AssertionError("a chain ran before the config check")

    monkeypatch.setattr(cli, "run_chains", no_chain)


def test_cli_logistic_rejects_ref_steps_below_two_ref_thin(tmp_path, capsys, monkeypatch):
    dataset = tmp_path / "synthetic.csv"
    write_synthetic_dataset(dataset, n_obs=20, dim=2, seed=1)
    _forbid_chains(monkeypatch)
    assert main(["logistic", "--dataset", str(dataset), "--theta", "0.5", "--h", "0.5",
                 "--ref-steps", "5", "--ref-thin", "10"]) == 1
    err = capsys.readouterr().err
    assert "ref_steps (5)" in err and "ref_thin (10)" in err


@pytest.mark.parametrize("kind", ["gaussian", "logistic"])
def test_cli_rejects_fewer_than_two_samples(tmp_path, capsys, monkeypatch, kind):
    dataset = tmp_path / "synthetic.csv"
    write_synthetic_dataset(dataset, n_obs=20, dim=2, seed=1)
    _forbid_chains(monkeypatch)
    extra = ["--dataset", str(dataset)] if kind == "logistic" else ["--dim", "4"]
    assert main([kind, "--theta", "0.5", "--h", "0.5", "--samples", "1"] + extra) == 1
    assert "error: n_samples must be >= 2, got 1" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["gaussian", "logistic"])
def test_cli_rejects_non_finite_h_values(tmp_path, capsys, monkeypatch, kind):
    dataset = tmp_path / "synthetic.csv"
    write_synthetic_dataset(dataset, n_obs=20, dim=2, seed=1)
    _forbid_chains(monkeypatch)
    extra = ["--dataset", str(dataset)] if kind == "logistic" else ["--dim", "4"]
    for bad in ("inf", "nan"):
        assert main([kind, "--theta", "0.5", "--h", "0.5", "--h", bad,
                     "--samples", "50"] + extra) == 1
        assert "h grid values must be positive and finite" in capsys.readouterr().err
    with pytest.raises(ValueError, match="positive and finite"):
        ExperimentConfig(h_values=(math.inf,))


@pytest.mark.parametrize("command, field, value, bound", [
    ("gaussian", "h_count", "-1", ">= 0"),
    ("logistic", "eps", "-1", ">= 0"),
    ("logistic", "ref_h", "0", "positive and finite"),
    ("logistic", "ref_h", "nan", "positive and finite"),
])
def test_cli_rejects_bad_h_count_eps_and_ref_h(capsys, monkeypatch, command, field, value,
                                               bound):
    _forbid_work(monkeypatch)
    flag = "--" + field.replace("_", "-")
    assert main(_WRITING_ARGV[command] + [flag, value]) == 1
    assert f"error: {field} must be {bound}, got {value}" in capsys.readouterr().err
    with pytest.raises(ValueError, match=f"{field} must be {bound}"):
        ExperimentConfig(**_coerce_config_values({field: value}))


@pytest.mark.parametrize("flag, value", [("--h-max", "inf"), ("--h-min", "inf"),
                                         ("--h-min", "nan")])
def test_cli_rejects_non_finite_h_range(capsys, monkeypatch, flag, value):
    _forbid_work(monkeypatch)
    assert main(["gaussian", "--dim", "4", "--kappa", "10", "--theta", "0.5",
                 "--samples", "50", "--seed", "1", "--h-count", "3", flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} must be finite, got {value}" in captured.err


@pytest.mark.parametrize("source", ["1,2,3", "1", "nan,1", "1,inf"])
def test_cli_contour_rejects_bad_source_before_any_work(capsys, monkeypatch, source):
    _forbid_work(monkeypatch)
    assert main(_WRITING_ARGV["contour"] + ["--source", source]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: source must be two finite numbers x,y, got (" in captured.err
    with pytest.raises(ValueError, match="source must be two finite numbers"):
        ExperimentConfig(**_coerce_config_values({"source": source}))


@pytest.mark.parametrize("flag, value, bound", [
    ("--grid-count", "-1", ">= 2"),
    ("--grid-count", "0", ">= 2"),
    ("--grid-count", "1", ">= 2"),
    ("--span", "nan", "positive and finite"),
    ("--span", "-3", "positive and finite"),
    ("--span", "0", "positive and finite"),
    ("--span", "inf", "positive and finite"),
])
def test_cli_contour_rejects_bad_grid_count_and_span_before_any_work(capsys, monkeypatch,
                                                                    flag, value, bound):
    _forbid_work(monkeypatch)
    assert main(_WRITING_ARGV["contour"] + [flag, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: {flag} must be {bound}, got {float(value) if flag == '--span' else value}" \
        in captured.err
    field = flag[2:].replace("-", "_")
    with pytest.raises(ValueError, match=f"{flag} must be {bound}"):
        ExperimentConfig(**_coerce_config_values({field: value}))


def test_cli_diagnostics_error_names_grid_point(tmp_path, capsys, monkeypatch):
    # A chain whose second coordinate never moves leaves mmtv no bandwidth:
    # that row is written as nan and the sweep goes on.
    def constant_coordinate_chains(target, x0, configs, noise=None, thin=1, burn_in=0):
        n = configs[0].n_steps
        samples = np.zeros((n + 1, target.dim))
        samples[:, 0] = np.arange(n + 1.0)
        return [Trajectory(samples=samples, solver_iterations=np.zeros(n, int),
                           grad_norms=np.zeros(n)) for _ in configs]

    monkeypatch.setattr(cli, "run_chains", constant_coordinate_chains)
    out = tmp_path / "rows.csv"
    assert main(_WRITING_ARGV["gaussian"] + ["--h", "2.0", "--out", str(out)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"warning: diagnostics failed at theta=0.5, h={h}: coordinate 1 of p has zero "
        "spread; row written as nan" for h in (1.0, 2.0)]
    assert out.read_text() == "theta,h,mmtv,mmd2,diverged\n0.5,1,nan,nan,0\n0.5,2,nan,nan,0\n"
    config = ExperimentConfig(kind="gaussian", dim=4, thetas=(0.5,), h_values=(1.0,),
                              n_samples=60)
    [row] = run_sweep(config)
    assert math.isnan(row.mmtv) and math.isnan(row.mmd2) and not row.diverged


def test_cli_other_diagnostics_errors_stay_fatal(capsys, monkeypatch):
    def bad_mmd2(p, q):
        raise ValueError("dimension mismatch: 4 vs 3")

    monkeypatch.setattr(diagnostics, "mmd2", bad_mmd2)
    assert main(_WRITING_ARGV["gaussian"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert ("error: diagnostics failed at theta=0.5, h=1.0: dimension mismatch: 4 vs 3"
            in captured.err)
    monkeypatch.undo()

    def degenerate_reference(cls, q, seed=0):
        raise DegenerateBandwidthError("median pairwise distance is zero")

    monkeypatch.setattr(diagnostics.Reference, "from_samples",
                        classmethod(degenerate_reference))
    assert main(_WRITING_ARGV["gaussian"]) == 1
    assert "error: median pairwise distance is zero" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["gaussian", "logistic"])
def test_sweep_frees_each_grid_chain_before_the_next_runs(tmp_path, monkeypatch, kind):
    # Gaussian rows run one per run_chains call, logistic rows one theta per
    # call; when a grid call starts, no earlier grid call's samples are alive.
    dataset = tmp_path / "synthetic.csv"
    write_synthetic_dataset(dataset, n_obs=30, dim=2, seed=1)
    config = ExperimentConfig(kind=kind, dim=4, kappa=10.0, dataset=str(dataset),
                              thetas=(0.0, 0.5, 1.0), h_values=(0.1, 0.2), n_samples=30,
                              thin=2, ref_thin=2, seed=3)
    held, calls = [], []
    real_run_chains = cli.run_chains

    def tracking_run_chains(target, x0, configs, noise=None, **kwargs):
        trajectories = real_run_chains(target, x0, configs, noise, **kwargs)
        if noise is None:  # a grid call, not the logistic reference chain
            assert all(samples() is None for samples in held)
            calls.append(len(configs))
            held.extend(weakref.ref(t.samples.base) for t in trajectories)
        return trajectories

    monkeypatch.setattr(cli, "run_chains", tracking_run_chains)
    assert len(run_sweep(config)) == 6
    assert calls == ([1] * 6 if kind == "gaussian" else [2] * 3)


@pytest.mark.parametrize("kind", ["gaussian", "logistic"])
def test_cli_empty_h_grid_builds_reference_once_and_runs_no_grid_chain(tmp_path, monkeypatch,
                                                                      kind):
    # perfbench times this argv as the sweep's set-up.
    dataset = tmp_path / "synthetic.csv"
    write_synthetic_dataset(dataset, n_obs=30, dim=2, seed=1)
    extra = (["--dataset", str(dataset), "--ref-thin", "2"] if kind == "logistic"
             else ["--dim", "4", "--kappa", "10"])
    calls = {"reference": 0, "chain": 0}
    real_from_samples = diagnostics.Reference.from_samples.__func__
    real_run_chains = cli.run_chains

    def counting_from_samples(cls, q, seed=0):
        calls["reference"] += 1
        return real_from_samples(cls, q, seed=seed)

    # Grid rows of both kinds and the logistic reference chain run through
    # run_chains; count every chain.
    def counting_run_chains(target, x0, configs, **kwargs):
        calls["chain"] += len(configs)
        return real_run_chains(target, x0, configs, **kwargs)

    def no_grid_row(*args, **kwargs):
        raise AssertionError("a grid chain ran with --h-count 0")

    monkeypatch.setattr(diagnostics.Reference, "from_samples",
                        classmethod(counting_from_samples))
    monkeypatch.setattr(cli, "run_chains", counting_run_chains)
    monkeypatch.setattr(cli, "_grid_row", no_grid_row)
    out = tmp_path / "rows.csv"
    assert main([kind, "--theta", "0", "--theta", "0.5", "--h-count", "0",
                 "--samples", "40", "--seed", "2", "--out", str(out)] + extra) == 0
    assert out.read_text() == "theta,h,mmtv,mmd2,diverged\n"
    assert calls["reference"] == 1
    # The logistic reference set is itself a chain; no other chain runs.
    assert calls["chain"] == (1 if kind == "logistic" else 0)


@pytest.mark.parametrize("ref_steps, ref_thin, ref_h", [
    (None, 10, None), (45, 4, None), (30, 1, None), (61, 20, 0.05)])
def test_logistic_reference_set_matches_thinned_full_chain(tmp_path, monkeypatch, ref_steps,
                                                          ref_thin, ref_h):
    # The sweep's reference set, which holds only the kept states, against
    # the states after ref_thin, 2 ref_thin, ... steps of a chain that keeps
    # every state. ref_steps 45 and 61 are not multiples of ref_thin: the
    # chain runs ref_thin * (ref_steps // ref_thin) steps.
    dataset = tmp_path / "synthetic.csv"
    write_synthetic_dataset(dataset, n_obs=40, dim=2, seed=4)
    config = ExperimentConfig(kind="logistic", dataset=str(dataset), h_count=0, n_samples=25,
                              seed=7, ref_steps=ref_steps, ref_thin=ref_thin, ref_h=ref_h)
    sets = []
    real_from_samples = diagnostics.Reference.from_samples.__func__

    def recording_from_samples(cls, q, seed=0):
        sets.append(q.points)
        return real_from_samples(cls, q, seed=seed)

    monkeypatch.setattr(diagnostics.Reference, "from_samples",
                        classmethod(recording_from_samples))
    assert run_sweep(config) == []
    target, h_half, _ = cli._logistic_sweep_setup(config)
    keep = ref_steps // ref_thin if ref_steps is not None else config.n_samples
    chain_config = SamplerConfig(theta=0.5, h=ref_h if ref_h is not None else h_half / 10.0,
                                 eps=config.eps, n_steps=keep * ref_thin, seed=config.seed)
    noise = NoiseStream(config.seed, target.dim, stream=cli._STREAM_REFERENCE_CHAIN)
    full = run_chain(target, np.zeros(target.dim), chain_config, noise=noise)
    expected = full.samples[ref_thin::ref_thin]
    [points] = sets
    assert points.shape == (keep, target.dim) and expected.shape == points.shape
    assert points.tobytes() == np.ascontiguousarray(expected).tobytes()


# Modules no command may load: scipy is a test-only dependency, and numpy.ma
# (which np.unique imports) adds about 1 MB to a process. A name matches
# itself or a submodule, not a prefix: numpy loads numpy.matrixlib.
_FORBIDDEN_MODULES = ("scipy", "numpy.ma")


def _run_cli_subprocess(code):
    """Standard output of code, run in a fresh interpreter that has
    forbidden_modules(), the sorted names of loaded _FORBIDDEN_MODULES and,
    as the suite does, raises a RuntimeWarning as an error."""
    code = ("import sys\n"
            f"FORBIDDEN = {_FORBIDDEN_MODULES!r}\n"
            "def forbidden_modules():\n"
            "    return sorted(m for m in sys.modules\n"
            "                  if any(m == f or m.startswith(f + '.') for f in FORBIDDEN))\n"
            + code)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", code],
                            env=env, capture_output=True, text=True, timeout=60, check=True)
    return result.stdout.strip()


def test_import_cli_leaves_scipy_stats_unloaded():
    code = "import thetalangevin.cli; print('scipy.stats' in sys.modules, forbidden_modules())"
    assert _run_cli_subprocess(code) == "False []"


def test_import_cli_leaves_scipy_linalg_unloaded():
    code = "import thetalangevin.cli; print('scipy.linalg' in sys.modules, forbidden_modules())"
    assert _run_cli_subprocess(code) == "False []"


@pytest.mark.parametrize("kind, rows", [("gaussian", 3), ("logistic", 5)])
def test_cli_leaves_scipy_linalg_and_stats_unloaded(tmp_path, kind, rows):
    # Neither sweep loads them: the Givens rotations run on numpy's dgemm
    # and the chains on numpy's LAPACK.
    dataset, out = tmp_path / "synthetic.csv", tmp_path / "rows.csv"
    argv = {
        "gaussian": ["gaussian", "--dim", "6", "--kappa", "100", "--theta", "0.5",
                     "--h-count", "2", "--samples", "50", "--seed", "1"],
        "logistic": ["logistic", "--dataset", str(dataset), "--theta", "0", "--theta", "0.5",
                     "--h", "0.1", "--h", "1", "--samples", "30", "--thin", "2",
                     "--ref-thin", "2", "--seed", "1"],
    }[kind]
    if kind == "logistic":
        write_synthetic_dataset(dataset, n_obs=40, dim=2, seed=2)
    code = ("from thetalangevin.cli import main\n"
            f"code = main({argv + ['--out', str(out)]!r})\n"
            "print(code, sorted({'scipy.linalg', 'scipy.stats'} & set(sys.modules)),\n"
            "      forbidden_modules())")
    assert _run_cli_subprocess(code) == "0 [] []"
    assert len(out.read_text().splitlines()) == rows


def test_cli_leaves_scipy_unloaded(tmp_path):
    # No scipy or numpy.ma module at all, after the import, after each sweep
    # and command, and after a limit-map solve: the normal CDF of mmtv is
    # computed in numpy, and so is every Newton solve, including the mode
    # behind both contours; load_dataset classifies labels without np.unique.
    dataset, one_feature = tmp_path / "synthetic.csv", tmp_path / "one_feature.csv"
    write_synthetic_dataset(dataset, n_obs=40, dim=2, seed=2)
    write_synthetic_dataset(one_feature, n_obs=40, dim=1, seed=2)
    spectrum = tmp_path / "spectrum.txt"
    spectrum.write_text("1\n4\n25\n")
    commands = [
        ["gaussian", "--dim", "6", "--kappa", "100", "--theta", "0.5", "--h-count", "2",
         "--samples", "50", "--seed", "1", "--out", str(tmp_path / "gaussian.csv")],
        ["logistic", "--dataset", str(dataset), "--theta", "0", "--theta", "0.5", "--h", "0.1",
         "--h", "1", "--samples", "30", "--thin", "2", "--ref-thin", "2", "--seed", "1",
         "--out", str(tmp_path / "logistic.csv")],
        ["heuristic", "--kappa", "100"],
        ["heuristic", "--spectrum", str(spectrum)],
        ["contour", "--kappa", "25", "--theta", "0.5", "--grid-count", "3",
         "--out", str(tmp_path / "contour_gaussian.csv"),
         "--dump-matrix", str(tmp_path / "covariance.txt")],
        ["contour", "--dataset", str(one_feature), "--theta", "0.5", "--grid-count", "3",
         "--out", str(tmp_path / "contour_logistic.csv")],
    ]
    code = ("import contextlib, io\n"
            "import numpy as np\n"
            "from thetalangevin import GaussianTarget, theory\n"
            "from thetalangevin.cli import main\n"
            "print(forbidden_modules())\n"
            f"for argv in {commands!r}:\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        code = main(argv)\n"
            "    print(code, forbidden_modules())\n"
            "target = GaussianTarget(np.zeros(2), np.diag([1.0, 4.0]))\n"
            "u = theory.theta_map(target, np.ones(2), 0.5)\n"
            "print(u.tolist(), forbidden_modules())\n")
    assert (_run_cli_subprocess(code).splitlines()
            == ["[]"] + ["0 []"] * len(commands) + ["[-1.0, -1.0] []"])
    assert len((tmp_path / "gaussian.csv").read_text().splitlines()) == 3
    assert len((tmp_path / "logistic.csv").read_text().splitlines()) == 5
    for name in ("contour_gaussian.csv", "contour_logistic.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == 10
