import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields

import numpy as np
import pytest

from thetalangevin import (
    DegenerateBandwidthError,
    LogisticRegressionTarget,
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

    for name in ("build_gaussian_target", "build_logistic_target", "run_chain",
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
    values = load_config_file(str(path))
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


def test_config_file_kind_does_not_override_subcommand(tmp_path):
    settings = "dim=4\nkappa=10\nthetas=0.5\nh_values=1.0\nn_samples=50\nseed=3\n"
    plain, with_kind = tmp_path / "plain.cfg", tmp_path / "kind.cfg"
    plain.write_text(settings)
    with_kind.write_text("kind = logistic\n" + settings)
    out_plain, out_kind = tmp_path / "plain.csv", tmp_path / "kind.csv"
    assert main(["gaussian", "--config", str(plain), "--out", str(out_plain)]) == 0
    assert main(["gaussian", "--config", str(with_kind), "--out", str(out_kind)]) == 0
    assert out_plain.read_bytes() == out_kind.read_bytes()


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
    parsed = _coerce_config_values(load_config_file(str(cfg)))
    assert parsed == expected
    for key, value in expected.items():
        assert type(parsed[key]) is type(value), key
    assert type(parsed["thetas"][0]) is float and type(parsed["source"][0]) is float
    assert ExperimentConfig(**parsed) == ExperimentConfig(**expected)
    for falsy in ("0", "false", "no"):
        assert _coerce_config_values({"overwrite": falsy}) == {"overwrite": False}


def test_config_file_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dimension=4\n")
    with pytest.raises(ValueError, match="unknown key"):
        load_config_file(str(cfg))


def test_seed_env_var_sets_default(tmp_path, monkeypatch):
    out_default = tmp_path / "default.csv"
    out_env = tmp_path / "env.csv"
    argv = ["gaussian", "--dim", "4", "--kappa", "2", "--theta", "0.5",
            "--h", "1.0", "--samples", "50"]
    assert main(argv + ["--out", str(out_default)]) == 0
    monkeypatch.setenv("THETALANGEVIN_SEED", "123")
    assert main(argv + ["--out", str(out_env)]) == 0
    assert out_default.read_bytes() != out_env.read_bytes()


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

    monkeypatch.setattr(cli, "run_chain", no_chain)


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
    ("gaussian", "eps", "-1", ">= 0"),
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
    def constant_coordinate_chain(target, x0, config, noise=None):
        samples = np.zeros((config.n_steps + 1, target.dim))
        samples[:, 0] = np.arange(config.n_steps + 1.0)
        return Trajectory(samples=samples, solver_iterations=np.zeros(config.n_steps, int),
                          grad_norms=np.zeros(config.n_steps))

    monkeypatch.setattr(cli, "run_chain", constant_coordinate_chain)
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
def test_cli_empty_h_grid_builds_reference_once_and_runs_no_grid_chain(tmp_path, monkeypatch,
                                                                      kind):
    # perfbench times this argv as the sweep's set-up.
    dataset = tmp_path / "synthetic.csv"
    write_synthetic_dataset(dataset, n_obs=30, dim=2, seed=1)
    extra = (["--dataset", str(dataset), "--ref-thin", "2"] if kind == "logistic"
             else ["--dim", "4", "--kappa", "10"])
    calls = {"reference": 0, "chain": 0}
    real_from_samples = diagnostics.Reference.from_samples.__func__
    real_run_chain = cli.run_chain

    def counting_from_samples(cls, q, seed=0):
        calls["reference"] += 1
        return real_from_samples(cls, q, seed=seed)

    def counting_run_chain(*args, **kwargs):
        calls["chain"] += 1
        return real_run_chain(*args, **kwargs)

    def no_grid_row(*args, **kwargs):
        raise AssertionError("a grid chain ran with --h-count 0")

    def no_grid_chains(target, x0, configs, **kwargs):
        if configs:
            raise AssertionError("a grid chain ran with --h-count 0")
        return []

    monkeypatch.setattr(diagnostics.Reference, "from_samples",
                        classmethod(counting_from_samples))
    monkeypatch.setattr(cli, "run_chain", counting_run_chain)
    monkeypatch.setattr(cli, "run_chains", no_grid_chains)
    monkeypatch.setattr(cli, "_grid_row", no_grid_row)
    out = tmp_path / "rows.csv"
    assert main([kind, "--theta", "0", "--theta", "0.5", "--h-count", "0",
                 "--samples", "40", "--seed", "2", "--out", str(out)] + extra) == 0
    assert out.read_text() == "theta,h,mmtv,mmd2,diverged\n"
    assert calls["reference"] == 1
    # The logistic reference set is itself a chain; no other chain runs.
    assert calls["chain"] == (1 if kind == "logistic" else 0)


def _run_cli_subprocess(code):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                            text=True, timeout=60, check=True)
    return result.stdout.strip()


def test_import_cli_leaves_scipy_stats_unloaded():
    code = "import sys, thetalangevin.cli; print('scipy.stats' in sys.modules)"
    assert _run_cli_subprocess(code) == "False"


def test_import_cli_leaves_scipy_linalg_unloaded():
    code = "import sys, thetalangevin.cli; print('scipy.linalg' in sys.modules)"
    assert _run_cli_subprocess(code) == "False"


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
    code = ("import sys\n"
            "from thetalangevin.cli import main\n"
            f"code = main({argv + ['--out', str(out)]!r})\n"
            "print(code, sorted({'scipy.linalg', 'scipy.stats'} & set(sys.modules)))")
    assert _run_cli_subprocess(code) == "0 []"
    assert len(out.read_text().splitlines()) == rows


def test_cli_leaves_scipy_unloaded(tmp_path):
    # No scipy module at all, after the import and after each sweep: the
    # normal CDF of mmtv is computed in numpy too.
    dataset = tmp_path / "synthetic.csv"
    write_synthetic_dataset(dataset, n_obs=40, dim=2, seed=2)
    sweeps = [
        ["gaussian", "--dim", "6", "--kappa", "100", "--theta", "0.5", "--h-count", "2",
         "--samples", "50", "--seed", "1", "--out", str(tmp_path / "gaussian.csv")],
        ["logistic", "--dataset", str(dataset), "--theta", "0", "--theta", "0.5", "--h", "0.1",
         "--h", "1", "--samples", "30", "--thin", "2", "--ref-thin", "2", "--seed", "1",
         "--out", str(tmp_path / "logistic.csv")],
    ]
    code = ("import sys\n"
            "def scipy_modules():\n"
            "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "from thetalangevin.cli import main\n"
            "print(scipy_modules())\n"
            f"for argv in {sweeps!r}:\n"
            "    print(main(argv), scipy_modules())\n")
    assert _run_cli_subprocess(code).splitlines() == ["[]", "0 []", "0 []"]
    assert len((tmp_path / "gaussian.csv").read_text().splitlines()) == 3
    assert len((tmp_path / "logistic.csv").read_text().splitlines()) == 5
