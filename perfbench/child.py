"""Benchmark child process: one CLI sweep under tracing, or one set of chains.

    python3 perfbench/child.py cli SPANS_JSON -- <thetalangevin CLI argv>
    python3 perfbench/child.py chains RESULT_JSON SEED STEPS TRACE

`cli` installs the span wrappers, runs the CLI's `main` on the argv and writes
the per-layer summary. `chains` builds a d=100, kappa=100 correlation-matrix
Gaussian through the public API, runs a theta=0 chain below its stability
bound and theta=1/2 and theta=1 chains at the heuristic step, and writes the
time stamps, step counts, sample digests and covariance checks. Time stamps
use CLOCK_MONOTONIC, which the parent process shares.
"""

import hashlib
import json
import sys
import time

import checks
import tracing

CHAIN_DIM = 100
CHAIN_KAPPA = 100.0


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def run_cli(spans_path, argv):
    from thetalangevin import cli

    tracer = tracing.Tracer()
    tracing.install(tracer)
    code = cli.main(argv)
    with open(spans_path, "w", encoding="utf-8") as handle:
        json.dump(tracing.summarize(tracer), handle)
    return code


def run_chains(result_path, seed, n_steps, trace):
    import numpy as np

    import thetalangevin as tl

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    spectrum = tl.exp_decay_spectrum(tl.SpectralModel(d=CHAIN_DIM, m=1.0, M=CHAIN_KAPPA))
    corr = tl.random_correlation(spectrum, seed=seed)
    target = tl.GaussianTarget.from_covariance(np.zeros(CHAIN_DIM), corr)
    lam = 1.0 / np.linalg.eigvalsh(target.covariance)
    m, big_m = target.convexity_bounds()
    # Half of the guaranteed-stability bound 4 m / M^2 of the explicit method.
    grid = [(0.0, 2.0 * m / big_m**2),
            (0.5, tl.step_size_heuristic(lam, 0.5)),
            (1.0, tl.step_size_heuristic(lam, 1.0))]
    setup_done = now()

    chains = []
    for theta, h in grid:
        config = tl.SamplerConfig(theta=theta, h=h, n_steps=n_steps, seed=seed)
        trajectory = tl.run_chain(target, np.zeros(CHAIN_DIM), config)
        chains.append((theta, h, trajectory))

    report = []
    for theta, h, trajectory in chains:
        samples = np.ascontiguousarray(trajectory.samples)
        expected = tl.gaussian_stationary_covariance(target.covariance, theta, h)
        checked, max_z = checks.covariance_check(samples, target.precision, expected, theta, h)
        report.append({
            "theta": theta,
            "h": h,
            "steps": int(samples.shape[0] - 1),
            "diverged": bool(trajectory.diverged),
            "digest": hashlib.sha256(samples.tobytes()).hexdigest(),
            "cov_directions_checked": checked,
            "cov_max_z": max_z,
        })
    out = {"setup_done": setup_done, "chains": report}
    if tracer is not None:
        out["layers"] = tracing.summarize(tracer)
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


def main(argv):
    mode = argv[0]
    if mode == "cli" and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    if mode == "chains":
        return run_chains(argv[1], int(argv[2]), int(argv[3]), argv[4] == "1")
    print(f"usage: see {__file__}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
