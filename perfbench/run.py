"""Benchmark of rvqlab's preset runs, end to end and layer by layer.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all          # every workload in turn

One run measures one workload: it times fresh-interpreter imports (setup_s),
runs the preset once untimed to fill caches and fix the reference CSV, then
repeats ``harness.run`` for about ``--seconds`` seconds, timing each
repetition raw and scaled to a reference host speed (see HostSpeed).  Every
repetition's CSV must equal the reference byte for byte, and the reference
must pass the workload's output checks.  With ``--trace 1`` half the interval runs
untraced and half traced, and the per-layer metrics of the traced half are
reported.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.

BLAS and OpenMP are pinned to one thread before numpy loads, so that harness
threads x BLAS threads stays within the core count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 7
SETUP_SAMPLES = 5
IMPORT_CMD = "import rvqlab.cli, rvqlab.harness"
# reference-job CPU seconds that timings are scaled to (see HostSpeed);
# about what the job takes on a quiet 2.0 GHz x86 core
REFERENCE_S = 0.05
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# which end-to-end metric each per-layer metric should move, and where
LAYER_TARGETS = {
    "harness.self_s": "wall_s on every workload",
    "harness.cpu_per_wall": "wall_s of threaded runs (mc_channels' threads=2 twin)",
    "harness.task_imbalance": "wall_s of threaded runs, mc_channels and skew_design",
    "mc.codewords": "work count behind work_per_s on mc_codebooks and mc_channels",
    "mc.self_s": "wall_s, cpu_s, work_per_s on mc_codebooks, partly mc_channels",
    "mc.codewords_per_s": "wall_s, cpu_s, work_per_s on mc_codebooks, "
                          "partly mc_channels",
    "rng.derive_calls": "wall_s on mc_channels",
    "rng.derive_us": "wall_s on mc_channels",
    "rng.generator_calls": "wall_s on mc_channels",
    "rng.generator_us": "wall_s on mc_channels",
    "channel.sample_calls": "wall_s on mc_channels",
    "channel.sample_us": "wall_s on mc_channels",
    "linalg.eig_calls": "wall_s on skew_design, and mc_channels via channels",
    "linalg.eig_us": "wall_s on skew_design, and mc_channels via channels",
    "skew.optimizer_s": "wall_s on skew_design",
    "skew.objective_evals": "wall_s on skew_design",
    "skew.objective_us": "wall_s on skew_design",
    "wnorm.cdf_calls": "wall_s on oracle",
    "wnorm.cdf_us": "wall_s on oracle",
    "quadrature.self_s": "wall_s on oracle",
    "quadrature.evals_per_value": "wall_s on oracle",
    "closed.calls": "none predicted; shows closed-form slowdowns on mc_codebooks",
    "closed.us": "none predicted; shows closed-form slowdowns on mc_codebooks",
    "trace.overhead_frac": "none; traced wall_s / untraced wall_s - 1",
}


def _median(values):
    return statistics.median(values)


def _tail(values):
    """Highest percentile with at least ten samples beyond it, or None when
    that percentile would not lie above the median."""
    n = len(values)
    k = n - 10  # 1-based order statistic
    if 2 * k <= n:
        return None
    return {"percentile": round(100.0 * k / n, 1),
            "value": sorted(values)[k - 1], "n": n}


def _environment():
    import numpy as np
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
    }


def _reference_job():
    """CPU seconds of a fixed job that uses no rvqlab code: a pure-Python
    loop and numpy Philox draws with a complex einsum, the two kinds of work
    the package does."""
    import numpy as np
    gen = np.random.Generator(np.random.Philox(0))
    eye = np.eye(4, dtype=complex)
    c0 = time.process_time()
    acc = 0.0
    for i in range(300_000):
        acc += (i % 7) * 0.5
    for _ in range(20):
        g = gen.standard_normal((16, 256, 4, 2))
        f = g[..., 0] + 1j * g[..., 1]
        np.einsum("cki,ij,ckj->ck", f.conj(), eye, f)
    return time.process_time() - c0


class HostSpeed:
    """Puts timings on a fixed host speed.

    Shared hosts change speed by up to 2x within minutes, and a whole run can
    fall in a slow phase.  The reference job runs before the first timed
    sample and after each one, and a sample's wall and CPU seconds are both
    multiplied by REFERENCE_S / (mean CPU time of the reference jobs just
    before and after it).  The result is the time the run would take on a
    host where the reference job takes REFERENCE_S of CPU; a change to rvqlab
    moves it just as it moves the raw time, which the report also gives.
    The job's CPU time, not its wall time, sets the factor, because a burst
    of time stolen by the hypervisor during a 50 ms job would skew it.
    """

    def __init__(self):
        self.jobs = [_reference_job()]

    def scale(self, *seconds):
        self.jobs.append(_reference_job())
        factor = 2 * REFERENCE_S / (self.jobs[-2] + self.jobs[-1])
        return tuple(s * factor for s in seconds)


def measure_setup(samples, speed):
    """Seconds from a fresh interpreter until rvqlab.cli and rvqlab.harness
    are imported, each in a new process, as (raw, at reference speed); one
    untimed launch first compiles bytecode."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", IMPORT_CMD]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        wall = time.perf_counter() - t0
        times.append((wall,) + speed.scale(wall))
    return times


class Runner:
    """Runs one workload's config and compares each CSV with the first."""

    def __init__(self, config, harness, speed):
        self.config = config
        self.harness = harness
        self.speed = speed
        self.csv = Path(config.output_dir) / f"{config.experiment}.csv"
        self.reference = None
        self.attempted = 0
        self.failures = []

    def once(self, run=None):
        """One harness.run; returns (wall_s, cpu_s, and both at reference
        speed), or None when it failed.  ``run`` replaces ``harness.run``."""
        self.attempted += 1
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            (run or self.harness.run)(self.config)
        except Exception:  # a failed run is counted, and the benchmark goes on
            self.failures.append(traceback.format_exc(limit=3))
            return None
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        data = self.csv.read_bytes()
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            self.failures.append(f"{self.csv.name}: bytes differ from the first run")
            return None
        return (wall, cpu) + self.speed.scale(wall, cpu)

    def repeat(self, seconds, run=None, after=None):
        """Repeat for about ``seconds``: start another run only while it is
        expected to finish in time, and make at least one.  ``after`` is
        called, untimed, after each successful run."""
        samples = []
        t_end = time.perf_counter() + seconds
        while True:
            sample = self.once(run)
            if sample is not None:
                samples.append(sample)
                if after is not None:
                    after()
            left = t_end - time.perf_counter()
            typical = _median([s[0] for s in samples]) if samples else 0.0
            if left <= 0 or (samples and typical > left):
                return samples


def _summarize(samples):
    """Median and tail of each timing, at reference speed and raw."""
    out = {"n": len(samples)}
    for i, key in enumerate(("raw_wall_s", "raw_cpu_s", "wall_s", "cpu_s")):
        values = [s[i] for s in samples]
        out[key] = {"median": _median(values), "tail": _tail(values)}
    return out


def run_workload(args):
    speed = HostSpeed()
    setup = measure_setup(1 if args.smoke else SETUP_SAMPLES, speed)
    import rvqlab
    import rvqlab.harness
    import tracing
    from workloads import WORKLOADS, read_rows

    wl = WORKLOADS[args.workload]
    out_dir = OUT / "out" / wl.name
    config = wl.config(args.seed, args.smoke, str(out_dir))
    runner = Runner(config, rvqlab.harness, speed)
    env = _environment()
    env["loadavg_before"] = os.getloadavg()

    # untimed first run: lazy imports finish, and its CSV is the reference
    runner.once()
    checks = 0
    if runner.reference is not None:
        checks, check_failures = wl.check(config, read_rows(runner.csv))
        runner.failures += check_failures
    twin_sample = None
    if wl.twin_threads and runner.reference is not None:
        twin = Runner(replace(config, threads=wl.twin_threads,
                              output_dir=str(out_dir / "twin")),
                      rvqlab.harness, speed)
        twin.reference = runner.reference
        twin_sample = twin.once()
        runner.attempted += twin.attempted
        runner.failures += twin.failures

    layer, shares, traced = {}, {}, None
    if args.trace:
        samples = runner.repeat(args.seconds / 2)
        tracer = tracing.Tracer(rvqlab)
        per_run = []
        with tracer:
            traced_samples = runner.repeat(
                args.seconds / 2,
                run=lambda c: tracer.run_span(rvqlab.harness.run, c),
                after=lambda: per_run.append(
                    tracing.layer_metrics(tracer.spans, tracer.root)))
        if samples and traced_samples:
            tracer.dump(OUT / f"trace-{wl.name}.json")
            for key in per_run[0][0]:
                layer[key] = _median([m[key] for m, _ in per_run])
            shares = {k: _median([s[k] for _, s in per_run]) for k in per_run[0][1]}
            # the pool's CPU/wall where a multi-threaded twin ran, else 1 thread's
            pool = [twin_sample] if twin_sample else samples
            layer["harness.cpu_per_wall"] = _median([s[1] / s[0] for s in pool])
            layer["trace.overhead_frac"] = (
                _median([s[2] for s in traced_samples])
                / _median([s[2] for s in samples]) - 1.0)
            traced = _summarize(traced_samples)
    else:
        samples = runner.repeat(args.seconds)

    if not samples or (args.trace and len(layer) < len(LAYER_UNITS)):
        for failure in runner.failures:
            print(failure, file=sys.stderr)
        raise SystemExit("error: no repetition of the workload succeeded")

    env["loadavg_after"] = os.getloadavg()
    summary = _summarize(samples)
    wall = summary["wall_s"]["median"]
    work = wl.work(config)
    end_to_end = {
        "wall_s": wall,
        "cpu_s": summary["cpu_s"]["median"],
        "work_per_s": work / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": _median([scaled for _, scaled in setup]),
    }
    failed = len(runner.failures)
    attempted = runner.attempted + checks
    report = {
        "workload": wl.name, "seed": args.seed, "smoke": args.smoke,
        "trace": args.trace, "why": wl.why, "work": work,
        "work_unit": wl.work_unit, "checks": checks,
        "failed_frac": failed / attempted, "runs": summary,
        "traced_runs": traced, "setup_s_samples": setup,
        "raw_setup_s": _median([raw for raw, _ in setup]),
        "reference_s": REFERENCE_S,
        "reference_job_cpu_s": _median(speed.jobs),
        "layer_shares": shares, "environment": env,
        "failures": runner.failures,
    }
    if args.trace:
        metrics = {k: {"value": layer[k], "unit": LAYER_UNITS[k]} for k in LAYER_UNITS}
    else:
        metrics = {k: {"value": end_to_end[k], "unit": END_TO_END_UNITS[k]}
                   for k in END_TO_END_UNITS}
    _print_human(wl, summary, metrics, report)
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _print_human(wl, summary, metrics, report):
    print(f"# {wl.name} seed={report['seed']} runs={summary['n']} "
          f"checks={report['checks']} failed_frac={report['failed_frac']:.6g} "
          f"work={report['work']} {wl.work_unit}")
    for key in ("wall_s", "cpu_s", "raw_wall_s", "raw_cpu_s"):
        tail = summary[key]["tail"]
        extra = (f"p{tail['percentile']:g} {tail['value']:.6g} s"
                 if tail else "too few runs for a tail percentile")
        print(f"{key:28s} {summary[key]['median']:.6g} s median, {extra}, "
              f"n={summary['n']}")
    for name, m in metrics.items():
        if name in ("wall_s", "cpu_s"):
            continue
        target = f"  moves: {LAYER_TARGETS[name]}" if name in LAYER_TARGETS else ""
        print(f"{name:28s} {m['value']:.6g} {m['unit']}{target}")
    for name, share in report["layer_shares"].items():
        print(f"share {name:22s} {share:.3f} of thread-busy time")


def run_all(args, names):
    """Run every workload in its own process and print each one's metrics."""
    results = {}
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        results[name] = json.loads(lines[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "workloads": {n: r["metrics"] for n, r in results.items()}}))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, for the benchmark's own test")
    args = parser.parse_args(argv)
    # before numpy loads; the setup launches and workload runs inherit it
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "rvqlab" / "harness.py").is_file():
        print(f"error: no rvqlab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rvqlab
    if not Path(rvqlab.__file__).resolve().is_relative_to(SRC):
        print(f"error: rvqlab imported from {rvqlab.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
