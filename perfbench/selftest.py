"""Self-test of the benchmark, run from the root of the source tree:

    python3 perfbench/selftest.py

It runs every workload at tiny sizes with tracing off and on and checks that
the last output line is a result naming every metric of BENCHMARK.json with
its unit. It checks that the output checks reject corrupted sweep CSVs and a
wrong chain covariance, and that run.py fails without printing a result in a
directory that holds only BENCHMARK.json and the benchmark's files. Exits 0
when every check passes.
"""

import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work", f"selftest-{os.getpid()}")
FAILURES = []


def expect(ok, what):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}", flush=True)
    if not ok:
        FAILURES.append(what)


def bench_run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def check_results(spec):
    # gaussian_chains runs by hand only (see README.md) but is tested too.
    for workload in [w["name"] for w in spec["workloads"]] + ["gaussian_chains"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = bench_run(workload, trace)
            what = f"{workload} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                expect(False, f"{what}: last line is a JSON result\n{proc.stderr[-2000:]}")
                continue
            expect(proc.returncode == 0, f"{what}: exit code 0")
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"{what}: result keys")
            expect(result["correct"] is True and result["failed"] == 0
                   and result["attempted"] >= 1, f"{what}: outputs pass their checks")
            units = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(units == {m["name"]: m["unit"] for m in declared},
                   f"{what}: every declared metric with its unit")
            values = [m["value"] for m in result["metrics"].values()]
            expect(all(isinstance(v, (int, float)) and math.isfinite(v) for v in values),
                   f"{what}: finite metric values")
            if trace == 0:
                expect(all(v > 0 for v in values), f"{what}: end-to-end metrics are positive")


def good_sweep_csv():
    """A real sweep CSV from the CLI at a tiny size."""
    out = os.path.join(WORK, "good.csv")
    cmd = [sys.executable, "-m", "thetalangevin.cli", "gaussian", "--dim", "20",
           "--kappa", "100", "--theta", "0", "--theta", "0.5", "--theta", "1",
           "--h-count", "6", "--samples", "40", "--seed", "3", "--out", out]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, timeout=170)
    with open(out, encoding="utf-8") as handle:
        return handle.read()


def check_sweep_checks():
    thetas, h_count = (0.0, 0.5, 1.0), 6
    text = good_sweep_csv()
    expect(checks.check_sweep(text, thetas, h_count)[0] == 0, "real sweep CSV passes")
    lines = text.splitlines()
    kept = next(i for i, line in enumerate(lines[1:], 1) if line.endswith(",0"))
    last = len(lines) - 1  # theta = 1 at the largest h

    def replace(index, field, value):
        rows = [line.split(",") for line in lines]
        rows[index][field] = value
        return "\n".join(",".join(r) for r in rows) + "\n"

    corrupted = {
        "mmtv above 1": (replace(kept, 2, "1.5"), 1),
        "negative mmd2": (replace(kept, 3, "-1e-6"), 1),
        "nan mmtv on a kept row": (replace(kept, 2, "nan"), 1),
        "theta=1 row diverged": (replace(last, 4, "1"), 1),
        "missing row": ("\n".join(lines[:-1]) + "\n", 18),
        "wrong header": ("\n".join(["theta,h,mmtv,mmd2"] + lines[1:]) + "\n", 18),
        "unparsable field": (replace(kept, 3, "x"), 18),
        "h off the log grid": (replace(last, 1, "1e6"), 18),
        "empty file": ("", 18),
    }
    for what, (bad, failed) in corrupted.items():
        got = checks.check_sweep(bad, thetas, h_count)[0]
        expect(got == failed, f"corrupted CSV ({what}): {got} of 18 rows fail, expected {failed}")
    expect(checks.check_setup_probe("theta,h,mmtv,mmd2,diverged\n"), "header-only probe passes")
    expect(not checks.check_setup_probe(text), "probe with rows fails")


def check_covariance_check():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import thetalangevin as tl

    cov = np.diag([1.0, 0.5, 0.2, 0.1])
    target = tl.GaussianTarget.from_covariance(np.zeros(4), cov)
    theta, h = 1.0, 0.5
    chain = tl.run_chain(target, np.zeros(4), tl.SamplerConfig(theta=theta, h=h,
                                                               n_steps=20_000, seed=5))
    right = tl.gaussian_stationary_covariance(cov, theta, h)
    checked, z = checks.covariance_check(chain.samples, target.precision, right, theta, h)
    expect(checked == 4 and z <= checks.MAX_Z, f"chain covariance passes (max z {z:.2f})")
    _, z = checks.covariance_check(chain.samples, target.precision, 1.2 * right, theta, h)
    expect(z > checks.MAX_Z, f"wrong covariance fails (max z {z:.2f})")


def check_bare_directory():
    bare = os.path.join(WORK, "bare")
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_run("gaussian_sweep", 0, cwd=bare)
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode != 0 and not any(line.startswith("{") for line in lines),
           "bare directory: nonzero exit and no result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    os.makedirs(WORK)
    try:
        check_sweep_checks()
        check_covariance_check()
        check_bare_directory()
        check_results(spec)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK))
        except OSError:
            pass
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
