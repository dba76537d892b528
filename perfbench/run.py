"""Benchmark of the thetalangevin package, run from the root of a source tree.

    python3 perfbench/run.py --workload gaussian_sweep --seed 1 --seconds 60 --trace 0

Workloads (BENCHMARK.json lists the first two and why each was chosen; the
third runs by hand, see README.md):

- gaussian_sweep: CLI `gaussian --dim 20 --kappa 100`, thetas {0, 1/2, 1},
  6 log-spaced step sizes.
- logistic_sweep: CLI `logistic` on a synthetic 500-row, 9-feature CSV that
  this script writes from the seed; thetas {0, 1/2, 1}, 4 step sizes.
- gaussian_chains: library `run_chain` on a d=100, kappa=100 Gaussian; one
  chain each at theta 0, 1/2 and 1, no diagnostics.

Each sweep or chain set runs in a fresh Python process, single-threaded BLAS,
repeated for --seconds (at least three times). Sweeps run the CLI unmodified,
after one untimed warm-up process. Before every third sweep, the same argv
with an empty step grid (`--h-count 0`) times the set-up: it builds the
target, the step-size heuristic and the reference set and stops before the
first grid chain. Every sweep and set-up probe runs next to the same run of
the pinned reference package in perfbench/reference, and wall_s and setup_s
are the median ratios of the two, scaled by the reference's time on the host
the benchmark was tuned on (see measure()). With --trace 1 the script
alternates untraced runs with runs under the span wrappers of tracing.py and
reports the per-layer metrics instead.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics. Lines before it give the environment, the
output digest (identical across runs of one commit and seed) and every metric
by name and unit, including failed_frac = failed / attempted.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import namedtuple

BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the thread settings above)

import checks  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
# The package as of the commit that added this benchmark, never edited: the
# pinned reference each sweep is timed against (see measure()).
REFERENCE = os.path.join(HERE, "reference")
# Median wall and set-up seconds of the reference sweeps on the host the
# benchmark was tuned on (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6,
# scipy 1.17.1). Sweep times are reported on this scale.
REFERENCE_S = {
    "gaussian": {"wall_s": 4.21, "setup_s": 1.55},
    "logistic": {"wall_s": 4.88, "setup_s": 2.66},
}
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
THETAS = (0.0, 0.5, 1.0)
MIN_RUNS = 3          # runs per measurement, even past --seconds
PROBE_EVERY = 3       # sweeps per set-up probe
HARD_LIMIT_S = 170    # children still running this long after start are killed

# (full size, tiny size for the self-test)
GAUSSIAN_SAMPLES = (400, 40)
LOGISTIC_SAMPLES = (100, 20)
CHAIN_STEPS = (10_000, 1_000)
GAUSSIAN_H_COUNT = 6
LOGISTIC_H_COUNT = 4
LOGISTIC_THIN = 50    # the CLI's default --thin for theta = 0 rows
LOGISTIC_ROWS, LOGISTIC_FEATURES = 500, 9


# One measured process: wall and set-up seconds (set-up is None for sweeps,
# whose set-up is probed separately), peak RSS, chain steps, per-layer summary.
Run = namedtuple("Run", "wall setup rss steps layers")


def now():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tally:
    """Attempted and failed rows, chains and set-up probes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, attempted, failed, reasons=()):
        self.attempted += attempted
        self.failed += failed
        for reason in list(reasons)[:5]:
            print(f"check failed: {reason}", file=sys.stderr)


class Bench:
    """Shared state of one benchmark run: paths, seed, sizes and the tally."""

    def __init__(self, root, args):
        self.root = root
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = 1 if args.tiny else 0
        self.hard_deadline = now() + HARD_LIMIT_S
        self.work = os.path.join(root, ".perfbench_work", f"{args.workload}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)
        self.tally = Tally()
        self.digests = set()
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("THETALANGEVIN_SEED", None)
        self.reference_env = dict(self.env, PYTHONPATH=REFERENCE)

    def path(self, name):
        return os.path.join(self.work, name)

    def running(self, done, start, deadline, at_least=MIN_RUNS):
        """Whether to start another run: `at_least` runs, then only runs
        that end by the deadline at the mean pace since `start`."""
        if now() >= self.hard_deadline:
            return False
        return done < at_least or now() + (now() - start) / done <= deadline

    def run_child(self, cmd, env=None):
        """Run one process to completion; return (exit code, wall s, start, peak RSS MB)."""
        with open(self.path("child.log"), "wb") as log:
            start = now()
            proc = subprocess.Popen(cmd, cwd=self.root, env=env or self.env,
                                    stdin=subprocess.DEVNULL, stdout=log,
                                    stderr=subprocess.STDOUT)
            timer = threading.Timer(max(self.hard_deadline - now(), 0.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                timer.join()
            wall = now() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            with open(self.path("child.log"), "rb") as log:
                tail = log.read()[-2000:].decode("utf-8", "replace")
            print(f"exit {proc.returncode}: {' '.join(cmd)}\n{tail}", file=sys.stderr)
        return proc.returncode, wall, start, usage.ru_maxrss / 1024.0


def write_logistic_dataset(path, seed):
    """Labels in the first column, then i.i.d. N(0, 1) features.

    Labels are Bernoulli(expit(x'beta + 0.25)) with a fixed beta, so seeds
    change the draws but not the posterior's shape, and no seed gives a
    separable dataset.
    """
    rng = np.random.default_rng((seed, 0x10915))
    features = rng.standard_normal((LOGISTIC_ROWS, LOGISTIC_FEATURES))
    beta = np.linspace(-1.0, 1.0, LOGISTIC_FEATURES)
    prob = 1.0 / (1.0 + np.exp(-(features @ beta + 0.25)))
    labels = (rng.random(LOGISTIC_ROWS) < prob).astype(int)
    with open(path, "w", encoding="utf-8") as handle:
        for label, row in zip(labels, features):
            handle.write(",".join([str(label)] + [f"{v:.17g}" for v in row]) + "\n")


class Sweep:
    """One CLI sweep workload: its argv and the chain steps each row runs."""

    def __init__(self, bench, kind):
        self.bench = bench
        self.kind = kind
        seed = str(bench.seed)
        thetas = [a for t in THETAS for a in ("--theta", f"{t:g}")]
        if kind == "gaussian":
            self.samples = GAUSSIAN_SAMPLES[bench.size]
            self.h_count = GAUSSIAN_H_COUNT
            self.base = ["gaussian", "--dim", "20", "--kappa", "100", *thetas]
        else:
            self.samples = LOGISTIC_SAMPLES[bench.size]
            self.h_count = LOGISTIC_H_COUNT
            dataset = bench.path("logistic.csv")
            write_logistic_dataset(dataset, bench.seed)
            self.base = ["logistic", "--dataset", dataset, *thetas]
        self.base += ["--samples", str(self.samples), "--seed", seed]

    def run(self, h_count, traced=False, reference=False):
        """One CLI run of the package under test, or of the pinned reference;
        returns (wall s, peak RSS MB, CSV text, layers, exit code)."""
        bench = self.bench
        out, spans = bench.path("sweep.csv"), bench.path("layers.json")
        for stale in (out, spans):
            if os.path.exists(stale):
                os.remove(stale)
        argv = [*self.base, "--h-count", str(h_count), "--out", out]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "child.py"), "cli", spans, "--", *argv]
        else:
            cmd = [sys.executable, "-m", "thetalangevin.cli", *argv]
        env = bench.reference_env if reference else bench.env
        code, wall, _, rss = bench.run_child(cmd, env)
        text = ""
        if code == 0 and os.path.exists(out):
            with open(out, encoding="utf-8") as handle:
                text = handle.read()
        layers = None
        if traced and code == 0 and os.path.exists(spans):
            with open(spans, encoding="utf-8") as handle:
                layers = json.load(handle)
        return wall, rss, text, layers, code

    def setup_probe(self):
        wall, _, text, _, code = self.run(0)
        ok = code == 0 and checks.check_setup_probe(text)
        self.bench.tally.add(1, 0 if ok else 1, [] if ok else ["set-up probe"])
        return wall

    def reference(self, h_count):
        """Wall seconds of one run of the pinned reference, checked like a sweep."""
        wall, _, text, _, code = self.run(h_count, reference=True)
        if h_count:
            ok = code == 0 and checks.check_sweep(text, THETAS, h_count)[0] == 0
        else:
            ok = code == 0 and checks.check_setup_probe(text)
        self.bench.tally.add(1, 0 if ok else 1, [] if ok else ["reference run"])
        return wall

    def sweep(self, traced=False):
        """Run and check one full sweep."""
        wall, rss, text, layers, code = self.run(self.h_count, traced)
        expected = len(THETAS) * self.h_count
        failed, reasons = checks.check_sweep(text, THETAS, self.h_count)
        if code != 0:
            failed, reasons = expected, [f"sweep exited with {code}"]
        digest = hashlib.sha256(text.encode()).hexdigest()
        if failed == 0:
            self.bench.digests.add(digest)
            if len(self.bench.digests) > 1:
                failed, reasons = expected, ["sweep output differs between runs"]
        self.bench.tally.add(expected, failed, reasons)
        steps = 0
        for line in text.splitlines()[1:] if failed == 0 else []:
            theta, _, _, _, diverged = line.split(",")
            if diverged == "0":
                thin = LOGISTIC_THIN if self.kind == "logistic" and float(theta) == 0 else 1
                steps += self.samples * thin
        return Run(wall, None, rss, steps, layers)


class Chains:
    """The gaussian_chains workload: one child process per chain set."""

    def __init__(self, bench):
        self.bench = bench
        self.steps = CHAIN_STEPS[bench.size]

    def run(self, traced=False):
        """Run and check one chain set."""
        bench = self.bench
        out = bench.path("chains.json")
        if os.path.exists(out):
            os.remove(out)
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "chains", out,
               str(bench.seed), str(self.steps), "1" if traced else "0"]
        code, wall, start, rss = bench.run_child(cmd)
        report = None
        if code == 0 and os.path.exists(out):
            with open(out, encoding="utf-8") as handle:
                report = json.load(handle)
        if report is None:
            bench.tally.add(len(THETAS), len(THETAS), [f"chains exited with {code}"])
            return Run(wall, 0.0, rss, 0, None)
        failed, steps, reasons = 0, 0, []
        for chain in report["chains"]:
            steps += chain["steps"]
            bench.digests.add(chain["digest"])
            if checks.check_chain(chain, self.steps):
                failed += 1
                reasons.append(f"chain {chain}")
        if len(bench.digests) > len(report["chains"]):
            failed, reasons = len(report["chains"]), ["chain samples differ between runs"]
        bench.tally.add(len(report["chains"]), failed, reasons)
        return Run(wall, report["setup_done"] - start, rss, steps, report.get("layers"))


def measure(workload, bench):
    """End-to-end metrics with tracing off, and the samples behind them.

    The host's speed drifts by up to 1.5 times over minutes, with the load
    from other tenants, and it drifts more for interpreter-bound code than
    for array code. So each sweep and each set-up probe runs next to the
    same run of the pinned reference package (REFERENCE), in alternating
    order, and the run reports the median ratio of the two, scaled by the
    reference's time on the tuning host (REFERENCE_S): the drift cancels in
    the ratio, and a change to the package under test moves it. peak_rss_mb
    is the median of the sweeps' own peaks. The samples also carry
    steps_per_s = chain steps / (wall_s - setup_s). It is printed but not
    part of the result, because the difference of two noisy times spreads
    too far from run to run to hold a bound. gaussian_chains, which runs by
    hand only, reports plain medians.
    """
    runs, setups = [], []
    start = now()
    deadline = start + bench.seconds
    if workload == "gaussian_chains":
        chains = Chains(bench)
        while bench.running(len(runs), start, deadline):
            runs.append(chains.run())
        samples = {"wall_s": [r.wall for r in runs], "setup_s": [r.setup for r in runs]}
        scaled = {name: statistics.median(values) for name, values in samples.items()}
    else:
        sweep = Sweep(bench, workload.split("_")[0])
        # Untimed warm-up of both packages: the first process after a pause
        # reads the package and its imports from a colder page cache.
        sweep.setup_probe()
        sweep.reference(0)
        start = now()

        def paired(run, reference):
            """(result of run, reference wall s), in alternating order."""
            if len(runs) % 2:
                return run(), reference()
            ref = reference()
            return run(), ref

        # Set-up probes are spread through the run but come only before every
        # PROBE_EVERY-th sweep: the sweeps' run-to-run spread shrinks with the
        # number of sweeps timed.
        reference_walls, reference_setups = [], []
        while bench.running(len(runs), start, deadline):
            if len(runs) % PROBE_EVERY == 0:
                setup, ref = paired(sweep.setup_probe, lambda: sweep.reference(0))
                setups.append(setup)
                reference_setups.append(ref)
            result, ref = paired(sweep.sweep, lambda: sweep.reference(sweep.h_count))
            runs.append(result)
            reference_walls.append(ref)
        samples = {
            "wall_s": [r.wall for r in runs],
            "setup_s": setups,
            "reference_wall_s": reference_walls,
            "reference_setup_s": reference_setups,
        }
        scale = REFERENCE_S[sweep.kind]
        scaled = {
            "wall_s": scale["wall_s"] * statistics.median(
                [w / ref for w, ref in zip(samples["wall_s"], reference_walls)]),
            "setup_s": scale["setup_s"] * statistics.median(
                [w / ref for w, ref in zip(setups, reference_setups)]),
        }
    samples["steps"] = [r.steps for r in runs]
    samples["peak_rss_mb"] = [r.rss for r in runs]
    scaled["peak_rss_mb"] = statistics.median(samples["peak_rss_mb"])
    stepping = scaled["wall_s"] - scaled["setup_s"]
    samples["steps_per_s"] = (statistics.median(samples["steps"]) / stepping
                              if stepping > 0 else 0.0)
    return {name: scaled[name] for name in END_TO_END}, samples


def measure_layers(workload, bench):
    """Per-layer metrics from traced runs, alternated with untraced ones."""
    if workload == "gaussian_chains":
        run = Chains(bench).run
    else:
        run = Sweep(bench, workload.split("_")[0]).sweep
    untraced, traced = [], []
    start = now()
    deadline = start + bench.seconds
    while bench.running(len(traced), start, deadline, at_least=2):
        untraced.append(run(False))
        traced.append(run(True))
    layers = [r.layers for r in traced if r.layers is not None]
    metrics = {}
    for name in tracing.LAYER_METRICS:
        values = [summary.get(name, 0) for summary in layers]
        metrics[name] = statistics.median(values) if values else 0
    metrics["trace.overhead_s"] = (statistics.fmean(r.wall for r in traced)
                                   - statistics.fmean(r.wall for r in untraced))
    return metrics


def environment(root):
    """Versions, thread counts and the code under test."""
    import importlib.metadata as md

    commit = None
    head = os.path.join(root, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(root, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as handle:
                    commit = handle.read().strip()
    src_hash = hashlib.sha256()
    package = os.path.join(root, "src", "thetalangevin")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            src_hash.update(name.encode())
            with open(os.path.join(package, name), "rb") as handle:
                src_hash.update(handle.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": md.version("scipy"),
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["gaussian_sweep", "logistic_sweep", "gaussian_chains"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the self-test only")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "thetalangevin", "cli.py")):
        print("error: run from the root of a thetalangevin source tree "
              "(src/thetalangevin/cli.py not found)", file=sys.stderr)
        return 2

    bench = Bench(root, args)
    try:
        if args.trace:
            metrics = measure_layers(args.workload, bench)
            units = tracing.LAYER_METRICS
        else:
            metrics, samples = measure(args.workload, bench)
            print(f"samples {args.workload} " + json.dumps(samples))
            print(f"metric {args.workload} steps_per_s {samples['steps_per_s']!r} 1/s")
            units = END_TO_END
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(bench.work))
        except OSError:
            pass

    tally = bench.tally
    print("env " + json.dumps({"workload": args.workload, "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               **environment(root)}))
    print(f"digest {args.workload} {hashlib.sha256(''.join(sorted(bench.digests)).encode()).hexdigest()}")
    for name, value in metrics.items():
        print(f"metric {args.workload} {name} {value!r} {units[name]}")
    print(f"metric {args.workload} failed_frac {tally.failed / max(tally.attempted, 1)!r} 1")
    print(json.dumps({
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
