"""The benchmark's workloads: one preset config each, its work count and the
checks its CSV must pass.

Each workload is one ``harness.run(ExperimentConfig)`` call.  The config is
made from the benchmark seed alone; the program receives nothing else.  Sizes
are cut from the paper presets so one run takes about 1 to 4 s on a 2-core
x86 host, which lets a measured interval hold several runs and report their
median.  ``smoke`` sizes exist only for the benchmark's own test.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Callable

from rvqlab import loss, ordering
from rvqlab.errors import DegenerateSpectrumError
from rvqlab.harness import ExperimentConfig

# fig2's frozen spectra, keyed by antenna count (the n_t column)
FIG2_SPECTRA = {2: [2.0, 1.0], 3: [3.0, 2.0, 1.0], 4: [4.0, 3.0, 2.0, 1.0]}
FIG4_PROFILES = 4
FIG6D_CANDIDATES = 8
FIG6D_ALPHAS = 3
# the oracle's own absolute tolerance, which widens fig3's bracket
QUADRATURE_TOL = 1e-12


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    config: Callable      # (seed, smoke, output_dir) -> ExperimentConfig
    work: Callable        # config -> units of work in one run
    check: Callable       # (config, rows) -> (checks made, failure messages)
    # threads of one untimed run whose CSV must match the timed runs' bytes
    twin_threads: int | None = None


def _float(v):
    return float(v) if v != "" else math.nan


def _fig2_config(seed, smoke, out):
    return ExperimentConfig(experiment="fig2", seed=seed,
                            bits_range=[2, 3] if smoke else [10, 12],
                            trials={"codebooks": 20 if smoke else 200},
                            output_dir=out, threads=1)


def _fig2_work(config):
    return len(FIG2_SPECTRA) * sum(config.trials["codebooks"] << b
                                   for b in config.bits_range)


def _fig2_check(config, rows):
    """|mc - closed| <= 4 stderr, widened by epsilon_b * closed for n = 4,
    where the closed form is the approximant."""
    failures = []
    expected = [(n, b) for n in FIG2_SPECTRA for b in config.bits_range]
    got = [(int(r["n_t"]), int(r["b"])) for r in rows]
    if got != expected:
        failures.append(f"fig2: rows {got} != {expected}")
    for r in rows:
        n, b = int(r["n_t"]), int(r["b"])
        mc, se, closed = (_float(r["delta1_mc"]), _float(r["stderr"]),
                          _float(r["delta1_exact_or_appx"]))
        tol = 4.0 * se
        if n == 4:
            tol += loss.epsilon_b(FIG2_SPECTRA[n], b) * closed
        if not (se > 0 and abs(mc - closed) <= tol):
            failures.append(f"fig2 n={n} b={b}: |{mc} - {closed}| > {tol}")
    return 1 + len(rows), failures


def _fig3_config(seed, smoke, out):
    return ExperimentConfig(experiment="fig3", seed=seed,
                            bits_range=[1] if smoke else [2],
                            output_dir=out, threads=1)


def _fig3_work(config):
    return len(ordering.schur_family()) * len(config.bits_range)


def _fig3_check(config, rows):
    """Each value lies in [appx - tol, appx (1 + epsilon_b) + tol] wherever
    delta1_appx is defined (the flat x = 0.75 profile has no top gap), and
    each b column strictly decreases in x."""
    family = ordering.schur_family()
    failures = []
    if len(rows) != len(family) * len(config.bits_range):
        failures.append(f"fig3: {len(rows)} rows")
        return 1, failures
    checks = 1
    for i, r in enumerate(rows):
        prof, b = family[i % len(family)], int(r["b"])
        x, value = _float(r["x"]), _float(r["delta1"])
        if b != config.bits_range[i // len(family)] or x != 1.0 - prof[0]:
            failures.append(f"fig3 row {i}: x={x} b={b} out of order")
            continue
        if i % len(family) and not value < _float(rows[i - 1]["delta1"]):
            failures.append(f"fig3 b={b}: not decreasing at x={x}")
        checks += 1
        try:
            appx = loss.delta1_appx(prof, b).value
        except DegenerateSpectrumError:
            if prof[0] - prof[1] > 1e-9 * prof[0]:
                failures.append(f"fig3 x={x} b={b}: appx undefined with a top gap")
            continue
        hi = appx * (1.0 + loss.epsilon_b(prof, b)) + QUADRATURE_TOL
        if not appx - QUADRATURE_TOL <= value <= hi:
            failures.append(f"fig3 x={x} b={b}: {value} outside [{appx}, {hi}]")
    return checks, failures


def _fig4b_config(seed, smoke, out):
    return ExperimentConfig(experiment="fig4b", seed=seed,
                            bits_range=[1, 2] if smoke else [1, 2, 3, 4, 5, 6],
                            rho=10.0,
                            trials={"channels": 3 if smoke else 30,
                                    "codebooks": 10 if smoke else 100},
                            output_dir=out, threads=1)


def _fig4b_work(config):
    t = config.trials
    return FIG4_PROFILES * sum(t["channels"] * t["codebooks"] << b
                               for b in config.bits_range)


def _fig4b_check(config, rows):
    """Rate losses are finite and non-negative with a positive stderr, one
    row per rank profile and b."""
    failures = []
    got = [int(r["b"]) for r in rows]
    if got != list(config.bits_range) * FIG4_PROFILES:
        failures.append(f"fig4b: b column {got}")
    for r in rows:
        value, se = _float(r["delta_mi"]), _float(r["stderr"])
        if not (_float(r["rho"]) == config.rho and 0.0 <= value < math.inf
                and 0.0 < se < math.inf):
            failures.append(f"fig4b rank={r['rank_sigma_t']} b={r['b']}: "
                            f"delta_mi={value} stderr={se}")
    return 1 + len(rows), failures


def _fig6d_config(seed, smoke, out):
    return ExperimentConfig(experiment="fig6d", seed=seed, bits_range=[1, 2],
                            trials={"channels": 3 if smoke else 50,
                                    "codebooks": 4 if smoke else 20,
                                    "samples": 16 if smoke else 240},
                            output_dir=out, threads=1)


def _fig6d_work(config):
    return FIG6D_ALPHAS * config.trials["samples"]


def _fig6d_check(config, rows):
    """Gain losses lie in [0, 1] with a positive stderr, one row per
    candidate and b."""
    failures = []
    got = [int(r["b"]) for r in rows]
    if got != [b for b in config.bits_range for _ in range(FIG6D_CANDIDATES)]:
        failures.append(f"fig6d: b column {got}")
    for r in rows:
        value, se = _float(r["delta_snr"]), _float(r["stderr"])
        if not (0.0 <= value <= 1.0 and 0.0 < se < math.inf):
            failures.append(f"fig6d {r['candidate']} alpha={r['alpha']} "
                            f"b={r['b']}: delta_snr={value} stderr={se}")
    return 1 + len(rows), failures


WORKLOADS = {w.name: w for w in (
    Workload("mc_channels",
             "fig4b rate loss, 30 channels x 100 codebooks, bits 1-6: many "
             "small Monte Carlo calls on fresh channels, so per-channel "
             "overhead shows; a threads=2 twin run checks the pool",
             "codewords", _fig4b_config, _fig4b_work, _fig4b_check,
             twin_threads=2),
    Workload("mc_codebooks",
             "fig2 at bits 10 and 12, 200 codebooks, threads=1: the gain-loss "
             "kernel on a few huge codebooks with no channel sampling",
             "codewords", _fig2_config, _fig2_work, _fig2_check),
    Workload("oracle",
             "fig3 at b=2 over 149 Schur profiles: scalar wnorm.cdf calls from "
             "adaptive Simpson; bypasses the Monte Carlo kernel and the RNG",
             "loss values", _fig3_config, _fig3_work, _fig3_check),
    Workload("skew_design",
             "fig6d at bits 1-2 with a 240-evaluation skew budget: the skew "
             "optimizer and its per-channel hermitian_eig loop",
             "objective evaluations", _fig6d_config, _fig6d_work, _fig6d_check),
)}


def read_rows(path):
    """CSV data rows as dicts, without the trailing manifest comment."""
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [line for line in fh if not line.startswith("#")]
    return list(csv.DictReader(lines))
