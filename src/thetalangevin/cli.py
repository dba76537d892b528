"""Experiment harness and command-line interface.

Subcommands: `gaussian` (ill-conditioned correlation-matrix Gaussian sweep),
`logistic` (Bayesian logistic-regression posterior sweep against a fine-step
reference chain), `heuristic` (step-size recommendation), and `contour`
(transition-kernel grid dump for a 2-d target). Both sweeps run through
`run_sweep`, one CSV row per (theta, h) grid point, with common random numbers
across the grid. A config file may set the `ExperimentConfig` fields behind its
subcommand's flags, parsed by their annotations.
"""

import argparse
import contextlib
import math
import os
import sys
import typing
import warnings
from dataclasses import dataclass, fields, replace

import numpy as np

from . import diagnostics, matrixgen, targets, theory
from .diagnostics import SampleSet
from .errors import DegenerateBandwidthError, NumericalError
from .samplers import (
    NoiseStream,
    SamplerConfig,
    StabilityWarning,
    run_chains,
    transition_log_density,
)
from .targets import GaussianTarget, LogisticRegressionTarget

SEED_ENV_VAR = "THETALANGEVIN_SEED"

# Noise stream ids: 0 chain steps (run_chains' default), 1 exact reference
# draws, 2 reference chain.
_STREAM_EXACT_REFERENCE = 1
_STREAM_REFERENCE_CHAIN = 2

# Contour grid points scored per stacked transition_log_density call.
_CONTOUR_CHUNK = 1024


@dataclass
class ExperimentConfig:
    """Settings for one experiment run; flags override config-file values."""

    kind: str = "gaussian"
    dim: int = 100
    kappa: float | None = 1.0  # heuristic: None unless given
    dataset: str | None = None
    label_col: int = 0
    prior_precision: float = 1.0
    thetas: tuple = (0.0, 0.5, 1.0)
    h_values: tuple | None = None
    h_min: float | None = None
    h_max: float | None = None
    h_count: int = 20
    n_samples: int = 5000
    eps: float = 1e-9
    seed: int = 0
    burn_in: int = 0
    thin: int = 50
    ref_steps: int | None = None
    ref_thin: int = 10
    ref_h: float | None = None
    out: str | None = None
    overwrite: bool = False
    source: tuple | None = None
    grid_count: int = 50
    span: float | None = None

    def __post_init__(self):
        if self.h_values is not None:
            hs = tuple(float(h) for h in self.h_values)
            if not all(0 < h < math.inf for h in hs):
                raise ValueError(f"h grid values must be positive and finite, got {hs}")
            self.h_values = tuple(sorted(hs))
        self.thetas = tuple(float(t) for t in self.thetas)
        if any(not 0.0 <= t <= 1.0 for t in self.thetas):
            raise ValueError("theta values must lie in [0, 1]")
        if self.burn_in < 0:
            raise ValueError("burn-in must be >= 0")
        if not 0 <= self.seed < 1 << 64:
            raise ValueError(f"seed must be in [0, 2**64), got {self.seed}")
        if self.h_count < 0:
            raise ValueError(f"h_count must be >= 0, got {self.h_count}")
        if not self.eps >= 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.ref_h is not None and not 0 < self.ref_h < math.inf:
            raise ValueError(f"ref_h must be positive and finite, got {self.ref_h}")
        for flag, value in (("--h-min", self.h_min), ("--h-max", self.h_max)):
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{flag} must be finite, got {value}")
        if self.grid_count < 2:
            raise ValueError(f"--grid-count must be >= 2, got {self.grid_count}")
        if self.span is not None and not 0 < self.span < math.inf:
            raise ValueError(f"--span must be positive and finite, got {self.span}")
        if self.source is not None and not (
                len(self.source) == 2 and all(map(math.isfinite, self.source))):
            raise ValueError(f"source must be two finite numbers x,y, got {self.source}")
        for name in ("thin", "ref_thin"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        # A sample set needs at least two points.
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")
        if self.ref_steps is not None and self.ref_steps < 2 * self.ref_thin:
            raise ValueError(f"ref_steps ({self.ref_steps}) must be at least 2 * ref_thin "
                             f"({self.ref_thin}) to keep two reference points")


@dataclass
class GridRow:
    """One output row of a discrepancy sweep."""

    theta: float
    h: float
    mmtv: float
    mmd2: float
    diverged: bool


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def resolve_h_grid(config: ExperimentConfig, big_m: float, h_half: float) -> tuple:
    """Explicit h list if given, else log-spaced [4/(100 M), 100 h_half]."""
    if config.h_values is not None:
        return config.h_values
    lo = config.h_min if config.h_min is not None else 4.0 / (100.0 * big_m)
    hi = config.h_max if config.h_max is not None else 100.0 * h_half
    if not 0 < lo < hi:
        raise ValueError(f"invalid h range [{lo}, {hi}]")
    return tuple(np.geomspace(lo, hi, config.h_count))


def build_gaussian_target(dim: int, kappa: float, seed: int) -> GaussianTarget:
    """Zero-mean Gaussian whose covariance is a random correlation matrix with
    log-linearly decaying spectrum of condition number kappa."""
    if kappa < 1.0:
        raise ValueError(f"condition number must be >= 1, got {kappa}")
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    spectrum = matrixgen.exp_decay_spectrum(matrixgen.SpectralModel(d=dim, m=1.0, M=kappa))
    corr = matrixgen.random_correlation(spectrum, seed=seed)
    return GaussianTarget.from_covariance(np.zeros(dim), corr)


def _quiet(run, *args, **kwargs):
    """run(*args, **kwargs) without StabilityWarning: the sweep probes
    unstable step sizes on purpose, and reports divergence through the
    output row, not a per-point warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", StabilityWarning)
        return run(*args, **kwargs)


def _row_chains(target, config: ExperimentConfig, theta: float, h_grid):
    """Yield the chain of each grid row of theta, in h_grid's order, kept at
    steps burn_in + j * thin: theta = 0 rows keep every config.thin-th state,
    so explicit and implicit budgets compare. Logistic rows advance together
    as one run_chains batch; Gaussian rows run one config per call, so only
    one row's samples are held at once."""
    thin = config.thin if theta == 0.0 else 1
    chain_configs = [SamplerConfig(theta=theta, h=h, eps=config.eps,
                                   n_steps=config.burn_in + config.n_samples * thin,
                                   seed=config.seed) for h in h_grid]
    batches = ([[c] for c in chain_configs] if isinstance(target, GaussianTarget)
               else [chain_configs])
    for batch in batches:
        yield from _quiet(run_chains, target, np.zeros(target.dim), batch, thin=thin,
                          burn_in=config.burn_in)


def _grid_row(theta: float, h: float, trajectory, reference: diagnostics.Reference) -> GridRow:
    """Score the chain at (theta, h) against the reference: its kept samples
    after the first (the state at the end of burn-in). A chain that leaves
    no kernel bandwidth (DegenerateBandwidthError) gets a nan row and one
    stderr line; any other diagnostics error is raised, naming the point."""
    if trajectory.diverged:
        return GridRow(theta=theta, h=h, mmtv=math.nan, mmd2=math.nan, diverged=True)
    sample_set = SampleSet(trajectory.samples[1:])
    try:
        mmtv_val = diagnostics.mmtv(sample_set, reference)
        mmd_val = diagnostics.mmd2(sample_set, reference)
    except DegenerateBandwidthError as exc:
        print(f"warning: diagnostics failed at theta={theta}, h={h}: {exc}; "
              "row written as nan", file=sys.stderr)
        return GridRow(theta=theta, h=h, mmtv=math.nan, mmd2=math.nan, diverged=False)
    except ValueError as exc:
        raise ValueError(f"diagnostics failed at theta={theta}, h={h}: {exc}") from exc
    return GridRow(theta=theta, h=h, mmtv=mmtv_val, mmd2=mmd_val, diverged=False)


def build_logistic_target(config: ExperimentConfig) -> LogisticRegressionTarget:
    if config.dataset is None:
        raise ValueError("logistic experiment needs --dataset")
    features, labels = targets.load_dataset(config.dataset, label_col=config.label_col)
    design = targets.standardize_design(features)
    return LogisticRegressionTarget(design, labels, prior_precision=config.prior_precision)


def _gaussian_sweep_setup(config: ExperimentConfig):
    """Correlation-matrix Gaussian of condition number kappa; the reference set
    is drawn exactly, which is strictly better than any chain."""
    target = build_gaussian_target(config.dim, config.kappa, config.seed)
    h_half = theory.step_size_heuristic(target.eigenvalues, 0.5)

    def build_reference():
        ref_rng = np.random.default_rng((config.seed, _STREAM_EXACT_REFERENCE))
        return SampleSet(target.exact_sample(config.n_samples, ref_rng))
    return target, h_half, build_reference


def _logistic_sweep_setup(config: ExperimentConfig):
    """Logistic-regression posterior; the reference set is a long theta = 1/2
    chain at step ref_h (default h_half/10), thinned by ref_thin: its states
    after ref_thin, 2 ref_thin, ... steps, the only ones it holds."""
    target = build_logistic_target(config)
    model = matrixgen.SpectralModel(target.dim, *target.convexity_bounds())
    h_half = theory.step_size_heuristic(matrixgen.exp_decay_spectrum(model), 0.5)

    def build_reference():
        ref_h = config.ref_h if config.ref_h is not None else h_half / 10.0
        ref_keep = (config.ref_steps // config.ref_thin if config.ref_steps is not None
                    else config.n_samples)
        ref_config = SamplerConfig(theta=0.5, h=ref_h, eps=config.eps,
                                   n_steps=ref_keep * config.ref_thin, seed=config.seed)
        ref_noise = NoiseStream(config.seed, target.dim, stream=_STREAM_REFERENCE_CHAIN)
        [ref_traj] = run_chains(target, np.zeros(target.dim), [ref_config], noise=ref_noise,
                                thin=config.ref_thin)
        return SampleSet(ref_traj.samples[1:])
    return target, h_half, build_reference


_SWEEP_SETUPS = {"gaussian": _gaussian_sweep_setup, "logistic": _logistic_sweep_setup}


def run_sweep(config: ExperimentConfig) -> list[GridRow]:
    """Discrepancy sweep over (theta, h), one theta after another, rows sorted
    by (theta, h) (thetas arrive in the caller's order). config.kind
    picks the target, the step h_half bounding the default h grid, and the
    reference set, which is built only once the h grid has been resolved. The
    reference side of both discrepancies is computed once, for every row."""
    setup = _SWEEP_SETUPS.get(config.kind)
    if setup is None:
        raise ValueError(f"no sweep for kind {config.kind!r}; use one of {sorted(_SWEEP_SETUPS)}")
    target, h_half, build_reference = setup(config)
    h_grid = resolve_h_grid(config, target.convexity_bounds()[1], h_half)
    reference = diagnostics.Reference.from_samples(build_reference(), seed=config.seed)
    rows = []
    for theta in config.thetas:
        # Only _grid_row holds a row's trajectory: no loop variable keeps it
        # while the next chain runs.
        chains = _row_chains(target, config, theta, h_grid)
        rows += [_grid_row(theta, h, next(chains), reference) for h in h_grid]
    rows.sort(key=lambda r: (r.theta, r.h))
    return rows


def run_heuristic(config: ExperimentConfig, eigenvalues) -> list[tuple]:
    """(theta, h_hat, objective) per theta for one curvature spectrum."""
    lam = np.asarray(eigenvalues, dtype=float)
    results = []
    for theta in config.thetas:
        h_hat = theory.step_size_heuristic(lam, theta)
        results.append((theta, h_hat, theory.heuristic_objective(h_hat, lam, theta)))
    return results


def build_contour_target(config: ExperimentConfig):
    """Logistic posterior of config.dataset if given, else the 2-d Gaussian."""
    if config.dataset is not None:
        return build_logistic_target(config)
    return build_gaussian_target(2, config.kappa, config.seed)


def run_kernel_contour(config: ExperimentConfig, target) -> list[tuple]:
    """Transition-density values of target on a square grid around a source point.

    Requires a 2-d target (Gaussian via kappa, or logistic with one feature
    column plus intercept), as build_contour_target(config) gives. Returns
    rows (theta, x, y, log_density), x outer and y inner; each theta's grid
    is scored _CONTOUR_CHUNK points at a time, with stacked Hessians and
    gradients.
    """
    if config.h_values is not None and len(config.h_values) > 1:
        raise ValueError(f"contour draws one step size; give one --h, got {config.h_values}")
    if target.dim != 2:
        raise ValueError(f"kernel contours need a 2-d target, got dim {target.dim}")
    if config.source is not None:
        source = np.asarray(config.source, dtype=float)
    else:
        source = targets.mode(target)
    h = config.h_values[0] if config.h_values else 1.0
    span = config.span if config.span is not None else 4.0 * math.sqrt(h) + 2.0
    axis = np.linspace(-span, span, config.grid_count)
    points = source + np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    xs, ys = points[:, 0].tolist(), points[:, 1].tolist()
    rows = []
    for theta in config.thetas:
        log_p = np.concatenate([
            transition_log_density(target, points[i:i + _CONTOUR_CHUNK], source, theta, h)
            for i in range(0, points.shape[0], _CONTOUR_CHUNK)])
        rows += [(theta, x, y, lp) for x, y, lp in zip(xs, ys, log_p.tolist())]
    return rows


def check_out_path(path: str, overwrite: bool) -> None:
    """Refuse an output path that could not be written once the work is done:
    one that exists (unless overwrite), is a directory, or lies in a missing
    directory."""
    if os.path.isdir(path):
        raise FileExistsError(f"{path} is a directory")
    if os.path.exists(path) and not overwrite:
        raise FileExistsError(f"{path} exists; pass --overwrite to replace it")
    directory = os.path.dirname(path) or os.curdir
    if not os.path.isdir(directory):
        raise FileNotFoundError(f"{path}: directory {directory} does not exist")


@contextlib.contextmanager
def _replacing(path: str, overwrite: bool):
    """Text handle for writing path, after check_out_path. It writes a
    temporary file in the same directory, which is moved into place only once
    the block completes, so an interrupted write leaves no partial file."""
    check_out_path(path, overwrite)
    tmp = f"{path}.{os.getpid()}.tmp"
    handle = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def write_rows(path: str, header: list[str], rows, overwrite: bool) -> None:
    """Write CSV with a header; refuse to clobber without the overwrite flag."""
    if path is None:
        return
    with _replacing(path, overwrite) as handle:
        handle.write(",".join(header) + "\n")
        for row in rows:
            handle.write(",".join(row) + "\n")


def grid_rows_to_csv(rows: list[GridRow]) -> list[list[str]]:
    return [[_fmt(r.theta), _fmt(r.h), _fmt(r.mmtv), _fmt(r.mmd2),
             "1" if r.diverged else "0"] for r in rows]


def load_config_file(path: str, keys) -> dict:
    """Parse a key=value config file (# comments and blank lines allowed)
    whose keys all lie in keys."""
    values = {}
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, _, raw = line.partition("=")
            key = key.strip().replace("-", "_")
            if key not in keys:
                raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
            values[key] = raw.strip()
    return values


def _floats(raw: str) -> tuple:
    return tuple(float(v) for v in raw.split(","))


def _coerce_config_values(raw: dict) -> dict:
    """Parse config-file strings by the ExperimentConfig field annotations:
    bool is 1/true/yes or 0/false/no in any case, tuple is comma-separated
    floats, X | None is X. A value that does not parse raises ValueError
    naming its key."""
    hints = typing.get_type_hints(ExperimentConfig)
    out = {}
    for key, value in raw.items():
        base = next((t for t in typing.get_args(hints[key]) if t is not type(None)),
                    hints[key])
        try:
            if base is bool:
                if value.lower() not in ("1", "true", "yes", "0", "false", "no"):
                    raise ValueError("expected 1/true/yes or 0/false/no")
                out[key] = value.lower() in ("1", "true", "yes")
            elif base is tuple:
                out[key] = _floats(value)
            else:
                out[key] = base(value)
        except ValueError as exc:
            raise ValueError(f"config key {key} = {value!r}: {exc}") from exc
    return out


def _default_seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR, "0")
    try:
        return int(raw)
    except ValueError as exc:
        raise ValueError(f"{SEED_ENV_VAR} = {raw!r}: {exc}") from exc


def _add_common_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="key=value config file; flags win")
    parser.add_argument("--theta", action="append", type=float, dest="thetas",
                        metavar="T", help="theta value (repeatable)")
    parser.add_argument("--out")
    parser.add_argument("--overwrite", action="store_true", default=None)


def _add_sweep_flags(parser: argparse.ArgumentParser):
    """The common flags plus a sweep's h grid, chain length, seed and thinning."""
    _add_common_flags(parser)
    parser.add_argument("--h", action="append", type=float, dest="h_values",
                        metavar="H", help="explicit step size (repeatable)")
    parser.add_argument("--h-min", type=float)
    parser.add_argument("--h-max", type=float)
    parser.add_argument("--h-count", type=int)
    parser.add_argument("--samples", type=int, dest="n_samples")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--burn-in", type=int, dest="burn_in")
    parser.add_argument("--thin", type=int)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetalangevin",
        description="Sampling experiments with theta-method Langevin chains",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # No abbreviations: a flag of another subcommand must be an error, not
    # read as the prefix of one of this one's, as heuristic --h is of --help.

    p_gauss = sub.add_parser("gaussian", help="correlation-matrix Gaussian sweep",
                             allow_abbrev=False)
    _add_sweep_flags(p_gauss)
    p_gauss.add_argument("--dim", type=int)
    p_gauss.add_argument("--kappa", type=float)

    p_logit = sub.add_parser("logistic", help="logistic-regression posterior sweep",
                             allow_abbrev=False)
    _add_sweep_flags(p_logit)
    p_logit.add_argument("--eps", type=float, help="inner-solve gradient-norm tolerance")
    p_logit.add_argument("--dataset")
    p_logit.add_argument("--label-col", type=int, dest="label_col")
    p_logit.add_argument("--lambda", type=float, dest="prior_precision",
                         help="prior precision (default 1)")
    p_logit.add_argument("--ref-steps", type=int, dest="ref_steps")
    p_logit.add_argument("--ref-thin", type=int, dest="ref_thin")
    p_logit.add_argument("--ref-h", type=float, dest="ref_h")

    p_heur = sub.add_parser("heuristic", help="step-size recommendation",
                            allow_abbrev=False)
    _add_common_flags(p_heur)
    p_heur.add_argument("--dim", type=int)
    p_heur.add_argument("--m", type=float, help="smallest curvature eigenvalue")
    p_heur.add_argument("--M", type=float, dest="big_m",
                        help="largest curvature eigenvalue")
    p_heur.add_argument("--kappa", type=float,
                        help="shortcut for m=1, M=kappa")
    p_heur.add_argument("--spectrum", help="file with one eigenvalue per line")

    p_cont = sub.add_parser("contour", help="transition-kernel grid dump (2-d)",
                            allow_abbrev=False)
    _add_common_flags(p_cont)
    p_cont.add_argument("--h", action="append", type=float, dest="h_values",
                        metavar="H", help="step size (at most one; default 1)")
    p_cont.add_argument("--seed", type=int)
    p_cont.add_argument("--kappa", type=float)
    p_cont.add_argument("--dataset")
    p_cont.add_argument("--label-col", type=int, dest="label_col")
    p_cont.add_argument("--lambda", type=float, dest="prior_precision")
    p_cont.add_argument("--source", type=_floats, help="source point as 'x,y'")
    p_cont.add_argument("--grid-count", type=int, dest="grid_count")
    p_cont.add_argument("--span", type=float)
    p_cont.add_argument("--dump-matrix", dest="dump_matrix",
                        help="also write the target covariance to this path")

    return parser


def config_from_args(args: argparse.Namespace, kind: str) -> tuple[ExperimentConfig, set]:
    """Defaults, then config-file values, then flags; the subcommand sets kind.
    The subcommand's settings are the ExperimentConfig fields among its flag
    destinations, the attributes of args: a config file may set only those,
    and the seed defaults to THETALANGEVIN_SEED only where it is one. Returns
    the config and the names of the settings a flag or the file gave; the
    environment is read only where neither gave a seed."""
    settings = set(vars(args)) & {f.name for f in fields(ExperimentConfig)}
    config = ExperimentConfig(kind=kind)
    if kind == "gaussian":
        config = replace(config, thin=1)
    elif kind == "heuristic":
        config = replace(config, thetas=(0.5,), kappa=None)
    given = {}
    if args.config:
        given |= _coerce_config_values(load_config_file(args.config, settings))
    given |= {name: getattr(args, name) for name in settings
              if getattr(args, name) is not None}
    if "seed" in settings and "seed" not in given:
        config = replace(config, seed=_default_seed())
    return replace(config, **given), set(given)


def _setting_name(args: argparse.Namespace, name: str, flag: str) -> str:
    """flag if it was given, else the config-file key that set name."""
    return flag if getattr(args, name) is not None else f"{name} in --config"


def _heuristic_spectrum(args: argparse.Namespace, config: ExperimentConfig,
                        given: set) -> np.ndarray:
    """The curvature spectrum of heuristic's one source: a --spectrum file,
    or dim eigenvalues decaying log-linearly from 1 to kappa or from m to M."""
    sources = [name for name, used in (
        ("--spectrum", args.spectrum is not None),
        (_setting_name(args, "kappa", "--kappa"), config.kappa is not None),
        ("--m/--M", args.m is not None or args.big_m is not None)) if used]
    if len(sources) > 1:
        raise ValueError(f"heuristic takes one curvature source, got {' and '.join(sources)}")
    if args.spectrum is not None:
        if "dim" in given:
            raise ValueError(f"{_setting_name(args, 'dim', '--dim')} sizes a --kappa or "
                             "--m/--M spectrum; it cannot be used with --spectrum")
        return np.loadtxt(args.spectrum, ndmin=1)
    if config.kappa is not None:
        m, big_m = 1.0, config.kappa
    elif args.m is not None and args.big_m is not None:
        m, big_m = float(args.m), float(args.big_m)
    else:
        raise ValueError("heuristic needs --spectrum, --kappa, or --m/--M")
    return matrixgen.exp_decay_spectrum(matrixgen.SpectralModel(d=config.dim, m=m, M=big_m))


def _emit(config: ExperimentConfig, header: list[str], csv_rows) -> None:
    write_rows(config.out, header, csv_rows, config.overwrite)
    if config.out is None:
        print(",".join(header))
        for row in csv_rows:
            print(",".join(row))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config, given = config_from_args(args, args.command)
        for path in (config.out, getattr(args, "dump_matrix", None)):
            if path is not None:
                check_out_path(path, config.overwrite)
        if args.command in _SWEEP_SETUPS:
            _emit(config, ["theta", "h", "mmtv", "mmd2", "diverged"],
                  grid_rows_to_csv(run_sweep(config)))
            return 0

        if args.command == "heuristic":
            results = run_heuristic(config, _heuristic_spectrum(args, config, given))
            csv_rows = [[_fmt(t), _fmt(h), _fmt(obj)] for t, h, obj in results]
            write_rows(config.out, ["theta", "h_hat", "objective"],
                       csv_rows, config.overwrite)
            for theta, h_hat, obj in results:
                print(f"theta={_fmt(theta)} h_hat={_fmt(h_hat)} objective={_fmt(obj)}")
            return 0

        if args.command == "contour":
            if config.dataset is not None:
                if args.dump_matrix:
                    raise ValueError("--dump-matrix writes a Gaussian target's covariance; "
                                     "it cannot be used with --dataset")
                unread = [_setting_name(args, name, "--" + name)
                          for name in ("kappa", "seed") if name in given]
                if unread:
                    raise ValueError(f"{' and '.join(unread)} cannot be used with --dataset: "
                                     "only the Gaussian target reads kappa and seed")
            target = build_contour_target(config)
            rows = run_kernel_contour(config, target)
            if args.dump_matrix:
                with _replacing(args.dump_matrix, config.overwrite) as handle:
                    matrixgen.dump_matrix(target.covariance, handle)
            csv_rows = [[_fmt(t), _fmt(x), _fmt(y), _fmt(lp)] for t, x, y, lp in rows]
            write_rows(config.out, ["theta", "x", "y", "log_density"],
                       csv_rows, config.overwrite)
            if config.out is None:
                for row in csv_rows[:10]:
                    print(",".join(row))
                if len(csv_rows) > 10:
                    print(f"... {len(csv_rows)} rows total; use --out to save")
            return 0
    except (ValueError, FileExistsError, FileNotFoundError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 1


if __name__ == "__main__":
    sys.exit(main())
