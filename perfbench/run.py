"""csop benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; csop is imported from ./src.  The load is a
closed loop with one client: the workload's job list runs again and again,
each job starting when the previous one returned, until S seconds have
passed.  The first pass is a warm-up and is not counted.  The program gets
only the generated configs, matrices and probe points; the seed stays here.

With --trace 0 the last line of standard output is a JSON object whose
metrics are the end-to-end ones (README.md lists them).  With --trace 1
passes alternate between untraced and traced, and the metrics are the
per-layer ones, computed from spans the benchmark records around csop's
public functions.  Lines before the last give the same figures for people,
the environment, and the SHA-256 of every CLI job's output.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 5
MIN_PASSES = 3           # the warm-up pass plus two counted ones
PROBE_TIMEOUT_S = 120

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
    "pass_rate": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def blas_threads(module) -> int | None:
    """Thread count of the OpenBLAS bundled with numpy or scipy, if found."""
    pattern = os.path.join(os.path.dirname(module.__file__), "..", f"{module.__name__}.libs", "*openblas*")
    for path in glob.glob(pattern):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_numpy": blas_threads(numpy),
        "blas_threads_scipy": blas_threads(scipy),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": sys.version.split()[0],
        "csop_threads": os.environ.get("CSOP_THREADS"),
        "seed": seed,
    }


def setup_seconds(workdir: str) -> tuple[float, bool]:
    """Fresh interpreter to csop imported and warmed up, and whether the
    warm-up jobs passed their checks; raises if csop never became ready."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "probe.py"), workdir],
                            stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with code {code} before csop was ready")
    return elapsed, code == 0


class Tally:
    """Operations attempted and failed, and what the jobs observed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, str] = {}
        self.digests_stable = True
        self.rel_err = 0.0

    def run(self, jobs):
        state = {}
        for name, job in jobs:
            self.attempted += 1
            try:
                obs = job(state) or {}
            except Exception as exc:  # a failed job is counted, the run goes on
                self.failed += 1
                sys.stderr.write(f"job {name} failed: {exc!r}\n")
                continue
            if "digest" in obs:
                if self.digests.setdefault(name, obs["digest"]) != obs["digest"]:
                    self.digests_stable = False
            self.rel_err = max(self.rel_err, obs.get("sigma_min_rel_err", 0.0))


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system


def measure(args, workdir) -> int:
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}\n")
        return 2
    tally = Tally()
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            elapsed, ok = setup_seconds(workdir)
            setups.append(elapsed)
            tally.attempted += 1
            tally.failed += not ok

    warm = workloads.warmup_jobs(workdir)
    jobs = warm + workloads.build(args.workload, args.seed, workdir)
    tally.run(warm)

    tracer = spans.Tracer() if args.trace else None
    plain, traced, cpu, summaries = [], [], [], []
    start = time.perf_counter()
    last = 0.0
    i = 0
    while i < MIN_PASSES or time.perf_counter() - start + last <= args.seconds:
        use_trace = tracer is not None and i % 2 == 1
        if use_trace:
            tracer.reset()
            with tracer.installed():
                t0 = time.perf_counter()
                tally.run(jobs)
                last = time.perf_counter() - t0
            summaries.append(tracer.summary(last))
            traced.append(last)
        else:
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            tally.run(jobs)
            last = time.perf_counter() - t0
            if i > 0:
                plain.append(last)
                cpu.append(cpu_seconds() - c0)
        i += 1

    if args.trace:
        metrics = per_layer(tracer, summaries, traced, plain, tally)
        units = spans.per_layer_metric_units()
        unit = {name: units[name][0] for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(plain),
            "setup_s": statistics.median(setups),
            "cpu_s": statistics.median(cpu),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "pass_rate": 1.0 - tally.failed / tally.attempted,
        }
        unit = END_TO_END

    counted = len(plain) + len(traced)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{counted} counted passes after 1 warm-up pass, {tally.failed} of {tally.attempted} operations failed")
    for name, value in metrics.items():
        print(f"  {name:<52} {value:>14.6g} {unit[name]}")
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))
    print("digests " + json.dumps({"stable": tally.digests_stable, "sha256": tally.digests}, sort_keys=True))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def per_layer(tracer, summaries, traced, plain, tally) -> dict:
    import spans

    k = len(summaries)
    metrics = {}
    for name in spans.SPAN_NAMES:
        metrics[f"{name}.s"] = sum(s["self"][name] for s in summaries) / k
        metrics[f"{name}.calls"] = sum(s["calls"][name] for s in summaries) / k
    # a counter stays 0 only when the jobs feeding it failed, which the result reports
    c = tracer.counters

    def ratio(num, den):
        return c.get(num, 0.0) / c[den] if c.get(den) else 0.0

    metrics["scaling.classify_spectrum.useful_ratio"] = ratio("classify_candidates", "classify_eigenvalues")
    metrics["schrodinger.eigensystem.useful_ratio"] = ratio("eigen_useful", "eigen_total")
    metrics["decay.critical_q.per_energy"] = ratio("decay_critical_q_calls", "decay_rows")
    metrics["scaling.polish_eigenvalue.residual"] = c.get("polish_residual", 0.0)
    metrics["scaling.sigma_min.rel_err"] = tally.rel_err
    for name in spans.ALLOC_TRACKED:
        metrics[f"{name}.alloc_peak_mb"] = tracer.alloc_peak.get(name, 0) / 2**20
    metrics["span_coverage"] = statistics.median(s["coverage"] for s in summaries)
    metrics["trace_overhead"] = statistics.median(traced) / statistics.median(plain)
    return metrics


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "csop", "__init__.py")):
        sys.stderr.write(f"no csop sources under {SRC}; run from a checkout of the repository\n")
        return 2
    sys.path.insert(0, SRC)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
