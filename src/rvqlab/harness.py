"""Experiment presets, config handling, CSV emission, and the run manifest.

Determinism contract: a (config, seed) pair fully determines every output
byte regardless of worker count.  Each task derives its random stream from
the master seed and a stable task label, results are assembled in task
order, and floats are rendered with 17 significant digits.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict
from pathlib import Path

import numpy as np
import scipy

from . import loss, ordering, skew
from .channel import (FixedSpectrumModel, IIDModel, KroneckerModel,
                      MAX_ENERGY, mean_energy, normalize_power,
                      sample_channel)
from .errors import RvqlabError
from .linalg import MAX_DIM
from .rng import RngStream
from .wnorm import WeightedNormLaw, cdf, empirical_cdf, empirical_cdf_eval

PRESET_NAMES = ("fig1", "fig2", "fig3", "fig4a", "fig4b", "fig5a", "fig5b",
                "fig6a", "fig6b", "fig6c", "fig6d", "custom")

_FIXED_SPECTRA = ([2.0, 1.0], [3.0, 2.0, 1.0], [4.0, 3.0, 2.0, 1.0])
_ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
_BETA_GRID = (0.5, 1.0, 1.5, 2.0)

# transmit/receive eigenvalue splits for the correlated presets; the physical
# ensemble only depends on their outer product, scaled so E[Tr H'H] = 16
_FIG4_LAM_R = [1.6, 1.2, 0.8, 0.4]
_FIG4_PROFILES = ([16.0, 0.0, 0.0, 0.0], [8.0, 8.0, 0.0, 0.0],
                  [16.0 / 3] * 3 + [0.0], [4.0, 4.0, 4.0, 4.0])
_FIG6_MODEL = KroneckerModel(lambda_t=np.array([1.6, 1.2, 0.8, 0.4]),
                             lambda_r=np.array([1.75, 1.25, 0.75, 0.25]))
_FIG6_SIGMA_T = np.diag([6.4, 4.8, 3.2, 1.6])


class ConfigError(RvqlabError):
    pass


@dataclass
class ExperimentConfig:
    experiment: str
    seed: int = 20240701
    bits_range: list = None
    rho: float = None
    trials: dict = field(default_factory=dict)
    model: dict = None
    output_dir: str = "out"
    threads: int = 1

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentConfig":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError(f"config is not valid JSON: {e}") from None
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object")
        known = {f for f in cls.__dataclass_fields__}
        for k in raw:
            if k not in known:
                raise ConfigError(f"unknown field: {k}")
        if "experiment" not in raw:
            raise ConfigError("missing field: experiment")
        return cls(**raw)


def _trial(config: ExperimentConfig, key: str, default: int) -> int:
    return int(config.trials.get(key, default)) if config.trials else default


def _bits(config: ExperimentConfig, default) -> list:
    if config.bits_range is None:
        return list(default)
    return [int(b) for b in config.bits_range]


def _is(v, kind) -> bool:
    """isinstance that does not let a bool pass for a number."""
    return isinstance(v, kind) and not isinstance(v, bool)


def validate(config: ExperimentConfig) -> list:
    """Collect config violations without running anything."""
    issues = []
    exp = config.experiment
    if not isinstance(exp, str) or exp not in PRESET_NAMES:
        issues.append(f"experiment: unknown preset {exp!r}")
    if not _is(config.seed, int) or not 0 <= config.seed < 2 ** 64:
        issues.append("seed: must be a 64-bit unsigned integer")
    bits = config.bits_range
    if bits is not None and (not isinstance(bits, list) or not bits):
        issues.append("bits_range: must be a nonempty list of integers")
    for b in bits if isinstance(bits, list) else ():
        if not _is(b, int) or b < 0:
            issues.append(f"bits_range: bad entry {b!r}")
        elif b > 24:
            issues.append(f"bits_range: {b} exceeds the generation cap 24")
        elif b > loss.MAX_CLOSED_FORM_BITS and exp in ("fig2", "fig5a", "fig5b"):
            issues.append(f"bits_range: {b} exceeds the closed-form cap "
                          f"{loss.MAX_CLOSED_FORM_BITS}")
    if exp == "fig5b" and isinstance(bits, list) and len(bits) > 1:
        issues.append("bits_range: fig5b takes a single entry")
    if config.rho is not None and not (_is(config.rho, (int, float))
                                       and 0 < config.rho < math.inf):
        issues.append("rho: must be a positive finite number")
    trials = config.trials if isinstance(config.trials, dict) else {}
    if config.trials is not None and not isinstance(config.trials, dict):
        issues.append("trials: must be an object")
    for key, v in trials.items():
        if key not in ("channels", "codebooks", "samples"):
            issues.append(f"trials.{key}: unknown key")
        elif not _is(v, int) or v < 1:
            issues.append(f"trials.{key}: must be a positive integer")
    if exp not in ("fig1", "fig3") and trials.get("codebooks") == 1:
        issues.append("trials.codebooks: at least 2 needed for a standard error")
    if (exp in ("fig4a", "fig4b", "fig6c", "fig6d", "custom")
            and trials.get("channels") == 1):
        issues.append("trials.channels: at least 2 needed for a standard error")
    if exp == "custom" and config.model is None:
        issues.append("model: required for the custom preset")
    if config.model is not None:
        try:
            model_from_dict(config.model)
        except ConfigError as e:
            issues.append(str(e))
    if not isinstance(config.output_dir, str):
        issues.append("output_dir: must be a string")
    if not _is(config.threads, int) or config.threads < 1:
        issues.append("threads: must be a positive integer")
    return issues


def model_from_dict(desc: dict):
    """Channel model of a config's ``model`` object; any defect is a ConfigError."""
    if not isinstance(desc, dict):
        raise ConfigError("model: must be an object")
    try:
        kind = desc["kind"]
        for key in ("n_t", "n_r"):  # counts are checked, never truncated
            v = desc.get(key)
            if v is not None and not (_is(v, (int, float)) and float(v).is_integer()):
                raise ValueError(f"{key} must be a whole number, got {v!r}")
        if not isinstance(desc.get("frozen", False), bool):
            raise ValueError("frozen must be true or false")
        if kind == "iid":
            m = IIDModel(n_t=int(desc["n_t"]), n_r=int(desc["n_r"]))
        elif kind == "kronecker":
            m = KroneckerModel(lambda_t=np.asarray(desc["lambda_t"], dtype=float),
                               lambda_r=np.asarray(desc["lambda_r"], dtype=float))
        elif kind == "fixed_spectrum":
            m = FixedSpectrumModel(lam=np.asarray(desc["lam"], dtype=float),
                                   n_r=desc.get("n_r"),
                                   frozen=desc.get("frozen", False))
        else:
            raise ValueError(f"unknown kind {kind!r}")
        if m.n_t > MAX_DIM:
            raise ValueError(f"transmit dimension {m.n_t} exceeds the cap {MAX_DIM}")
        if "rho_c" in desc:
            m = normalize_power(m, float(desc["rho_c"]))
        with np.errstate(over="ignore"):  # an overflow is refused just below
            energy = mean_energy(m)
        if not energy <= MAX_ENERGY:
            raise ValueError(f"mean channel energy {energy:g} exceeds {MAX_ENERGY:g}")
    except KeyError as e:
        raise ConfigError(f"model: missing field {e}") from None
    except (TypeError, ValueError, OverflowError) as e:
        raise ConfigError(f"model: {e}") from None
    return m


# ---------------------------------------------------------------------------
# shared evaluation helpers


def _frozen_realization(lam):
    return sample_channel(FixedSpectrumModel(lam=np.asarray(lam, dtype=float),
                                             frozen=True),
                          RngStream(0).generator())


def skew_candidates_avg(model, candidates, bits, n_channels, n_codebooks,
                        stream: RngStream):
    """Channel-averaged gain loss of (label, SkewMatrix-or-None) candidates
    on shared random draws, as [(label, mean, stderr)]; None is plain RVQ."""
    ests = loss.channel_averaged_losses(
        model, [None if sk is None else sk.a for _, sk in candidates], bits,
        n_channels, n_codebooks, stream)
    return [(label, est.value, est.stderr)
            for (label, _), est in zip(candidates, ests)]


# ---------------------------------------------------------------------------
# presets: each builder returns (columns, [(task_label, fn(stream) -> rows)])


def _build_fig1(config):
    n_samples = _trial(config, "samples", 10 ** 5)
    n_grid = 201

    def task(lam):
        def fn(stream):
            law = WeightedNormLaw(lam)
            xs = np.linspace(law.lam[-1], law.lam[0], n_grid)
            samples = empirical_cdf(law, n_samples, stream)
            emp = empirical_cdf_eval(samples, xs)
            return [[len(lam), x, c, e] for x, c, e in zip(xs, cdf(law, xs), emp)]
        return fn

    tasks = [(f"fig1/n{len(lam)}", task(lam)) for lam in _FIXED_SPECTRA]
    return ["n_t", "x", "cdf_exact", "cdf_empirical"], tasks


def _asympt_or_exact_trend(lam, b):
    lam = np.asarray(lam, dtype=float)
    if lam.size == 2:
        return (1.0 - lam[1] / lam[0]) * 2.0 ** (-b)
    return loss.delta1_asympt(lam, b).value


def _build_fig2(config):
    bits = _bits(config, range(1, 9))
    n_codebooks = _trial(config, "codebooks", 1000)

    def task(lam, b):
        def fn(stream):
            ch = _frozen_realization(lam)
            est = loss.delta1_mc(ch, b, n_codebooks, stream)
            closed = loss.delta1_closed(lam, b)
            return [[len(lam), b, est.value, est.stderr, closed.value,
                     _asympt_or_exact_trend(lam, b)]]
        return fn

    tasks = [(f"fig2/n{len(lam)}/b{b}", task(lam, b))
             for lam in _FIXED_SPECTRA for b in bits]
    return ["n_t", "b", "delta1_mc", "stderr", "delta1_exact_or_appx",
            "delta1_asympt"], tasks


def _build_fig3(config):
    bits = _bits(config, (2, 4, 6))
    family = ordering.schur_family()

    def task(b):
        def fn(stream):
            rows = []
            for prof in family:
                x = float(1.0 - prof[0])
                rows.append([x, b, loss.delta1_quadrature(prof, b).value])
            return rows
        return fn

    return ["x", "b", "delta1"], [(f"fig3/b{b}", task(b)) for b in bits]


def _fig4_model(profile):
    return KroneckerModel(lambda_t=np.asarray(profile, dtype=float) / 4.0,
                          lambda_r=np.asarray(_FIG4_LAM_R, dtype=float))


def _build_fig4a(config):
    bits = _bits(config, range(1, 7))
    n_ch = _trial(config, "channels", 200)
    n_cb = _trial(config, "codebooks", 100)

    def task(profile, b):
        def fn(stream):
            est = loss.avg_delta_snr(_fig4_model(profile), b, n_ch, n_cb, stream)
            rank = int(np.sum(np.asarray(profile) > 0))
            return [[rank, b, est.value, est.stderr]]
        return fn

    tasks = [(f"fig4a/rank{int(np.sum(np.asarray(p) > 0))}/b{b}", task(p, b))
             for p in _FIG4_PROFILES for b in bits]
    return ["rank_sigma_t", "b", "delta_snr", "stderr"], tasks


def _build_fig4b(config):
    bits = _bits(config, range(1, 7))
    rho = config.rho if config.rho is not None else 10.0
    n_ch = _trial(config, "channels", 200)
    n_cb = _trial(config, "codebooks", 100)

    def task(profile, b):
        def fn(stream):
            est = loss.avg_delta_mi(_fig4_model(profile), rho, b, n_ch, n_cb, stream)
            rank = int(np.sum(np.asarray(profile) > 0))
            return [[rank, b, rho, est.value, est.stderr]]
        return fn

    tasks = [(f"fig4b/rank{int(np.sum(np.asarray(p) > 0))}/b{b}", task(p, b))
             for p in _FIG4_PROFILES for b in bits]
    return ["rank_sigma_t", "b", "rho", "delta_mi", "stderr"], tasks


def _delta2_closed(lam, rho, b):
    lam = np.asarray(lam, dtype=float)
    if lam.size == 2:
        return loss.delta2_exact2(lam, rho, b).value
    return loss.delta2_appx(lam, rho, b).value


def _build_fig5a(config):
    bits = _bits(config, range(1, 9))
    rho = config.rho if config.rho is not None else 1.0
    n_cb = _trial(config, "codebooks", 1000)

    def task(lam, b):
        def fn(stream):
            ch = _frozen_realization(lam)
            est = loss.delta2_mc(ch, rho, b, n_cb, stream)
            closed = _delta2_closed(lam, rho, b)
            a3 = loss.delta2_asympt(lam, rho, b, method="prop3").value
            c3 = loss.delta2_asympt(lam, rho, b, method="corollary3").value
            return [[len(lam), b, rho, est.value, est.stderr, closed, a3, c3]]
        return fn

    tasks = [(f"fig5a/n{len(lam)}/b{b}", task(lam, b))
             for lam in _FIXED_SPECTRA for b in bits]
    return ["n_t", "b", "rho", "delta2_mc", "stderr", "delta2_closed",
            "delta2_asympt_prop", "delta2_asympt_cor"], tasks


def _build_fig5b(config):
    b = _bits(config, [4])[0]
    rhos = (0.1, 0.31622776601683794, 1.0, 3.1622776601683795, 10.0,
            31.622776601683793, 100.0)
    n_cb = _trial(config, "codebooks", 1000)

    def task(lam, rho):
        def fn(stream):
            ch = _frozen_realization(lam)
            est = loss.delta2_mc(ch, rho, b, n_cb, stream)
            return [[len(lam), rho, b, est.value, est.stderr,
                     _delta2_closed(lam, rho, b)]]
        return fn

    tasks = [(f"fig5b/n{len(lam)}/rho{i}", task(lam, rho))
             for lam in _FIXED_SPECTRA for i, rho in enumerate(rhos)]
    return ["n_t", "rho", "b", "delta2_mc", "stderr", "delta2_closed"], tasks


def _build_fig6_frozen(config, lam, tag):
    bits = _bits(config, range(1, 7))
    n_cb = _trial(config, "codebooks", 1000)
    budget = _trial(config, "samples", 1600)
    ch = _frozen_realization(lam)
    model = FixedSpectrumModel(lam=np.asarray(lam, dtype=float), frozen=True)
    candidates = [("rvq", None, "")]
    seed_stream = RngStream(config.seed).derive(f"{tag}-design")
    for alpha in _ALPHA_GRID:
        res = skew.optimize_skew_a1(model, alpha, 1,
                                    seed_stream.derive(f"alpha{alpha}"), budget)
        candidates.append(("a1", res.skew.a, alpha))

    def task(b):
        def fn(stream):
            ests = loss.sampled_losses(ch, [c[1] for c in candidates], b, n_cb,
                                       stream)
            return [[label, alpha, b, est.value, est.stderr]
                    for (label, _, alpha), est in zip(candidates, ests)]
        return fn

    tasks = [(f"{tag}/b{b}", task(b)) for b in bits]
    return ["candidate", "alpha", "b", "delta1", "stderr"], tasks


def _build_fig6a(config):
    return _build_fig6_frozen(config, [4.0, 3.0, 2.0, 1.0], "fig6a")


def _build_fig6b(config):
    return _build_fig6_frozen(config, [1.6, 1.4, 1.2, 1.0], "fig6b")


def _skew_average_tasks(tag, model, candidates, bits, n_ch, n_cb):
    """fig6c/fig6d: one channel-averaged row per (label, skew, alpha, beta)."""
    def task(b):
        def fn(stream):
            triples = skew_candidates_avg(model, [c[:2] for c in candidates],
                                          b, n_ch, n_cb, stream)
            return [[c[0], c[2], c[3], b, mean, se]
                    for c, (_, mean, se) in zip(candidates, triples)]
        return fn

    tasks = [(f"{tag}/b{b}", task(b)) for b in bits]
    return ["candidate", "alpha", "beta", "b", "delta_snr", "stderr"], tasks


def _build_fig6c(config):
    candidates = [("rvq", None, "", "")]
    for beta in _BETA_GRID:
        for alpha in _ALPHA_GRID:
            sk = skew.build_skew_a2(_FIG6_SIGMA_T, alpha, beta)
            candidates.append(("a2", sk, alpha, beta))
    return _skew_average_tasks("fig6c", _FIG6_MODEL, candidates,
                               _bits(config, (1, 4)),
                               _trial(config, "channels", 400),
                               _trial(config, "codebooks", 100))


def _build_fig6d(config):
    budget = _trial(config, "samples", 2400)
    design = RngStream(config.seed).derive("fig6d-design")
    candidates = [("rvq", None, "", "")]
    for alpha in (1.0, 0.5, 0.0):
        res = skew.optimize_skew_a1(_FIG6_MODEL, alpha, 64,
                                    design.derive(f"alpha{alpha}"), budget)
        candidates.append(("a1", res.skew, alpha, ""))
    for beta in _BETA_GRID:
        candidates.append(("a2", skew.build_skew_a2(_FIG6_SIGMA_T, 1.0, beta),
                           1.0, beta))
    return _skew_average_tasks("fig6d", _FIG6_MODEL, candidates,
                               _bits(config, range(1, 7)),
                               _trial(config, "channels", 1000),
                               _trial(config, "codebooks", 100))


def _build_custom(config):
    model = model_from_dict(config.model)
    bits = _bits(config, range(1, 7))
    rho = config.rho if config.rho is not None else 1.0
    n_ch = _trial(config, "channels", 100)
    n_cb = _trial(config, "codebooks", 100)

    def task(b):
        def fn(stream):
            snr = loss.avg_delta_snr(model, b, n_ch, n_cb, stream.derive("snr"))
            mi = loss.avg_delta_mi(model, rho, b, n_ch, n_cb, stream.derive("mi"))
            return [[b, rho, snr.value, snr.stderr, mi.value, mi.stderr]]
        return fn

    tasks = [(f"custom/b{b}", task(b)) for b in bits]
    return ["b", "rho", "delta_snr", "stderr_snr", "delta_mi", "stderr_mi"], tasks


_BUILDERS = {
    "fig1": _build_fig1, "fig2": _build_fig2, "fig3": _build_fig3,
    "fig4a": _build_fig4a, "fig4b": _build_fig4b,
    "fig5a": _build_fig5a, "fig5b": _build_fig5b,
    "fig6a": _build_fig6a, "fig6b": _build_fig6b,
    "fig6c": _build_fig6c, "fig6d": _build_fig6d,
    "custom": _build_custom,
}


# ---------------------------------------------------------------------------
# execution


def _render(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def run(config: ExperimentConfig):
    """Execute a preset: write its CSV and manifest, return the manifest."""
    issues = validate(config)
    if issues:
        raise ConfigError("; ".join(issues))
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_name = f"{config.experiment}.csv"
    manifest_name = f"{config.experiment}_manifest.json"
    config_dict = asdict(config)
    manifest = {
        "experiment": config.experiment,
        "config": config_dict,
        "config_sha256": hashlib.sha256(
            json.dumps(config_dict, sort_keys=True).encode()).hexdigest(),
        "seed": config.seed,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "rvqlab": _package_version(),
        },
        "complete": False,
        "files": {},
    }
    t0 = time.monotonic()
    try:
        columns, tasks = _BUILDERS[config.experiment](config)
        master = RngStream(config.seed)
        results = [None] * len(tasks)

        def execute(idx):
            label, fn = tasks[idx]
            results[idx] = fn(master.derive(label))

        if config.threads > 1:
            with ThreadPoolExecutor(max_workers=config.threads) as pool:
                list(pool.map(execute, range(len(tasks))))
        else:
            for i in range(len(tasks)):
                execute(i)
        lines = [",".join(columns)]
        n_rows = 0
        for rows in results:
            for row in rows:
                lines.append(",".join(_render(v) for v in row))
                n_rows += 1
        lines.append(f"# manifest: {manifest_name}")
        (out_dir / csv_name).write_text("\n".join(lines) + "\n",
                                        encoding="utf-8", newline="\n")
        manifest["files"][csv_name] = n_rows
        manifest["complete"] = True
    except BaseException as e:
        manifest["error"] = f"{type(e).__name__}: {e}"
        raise
    finally:
        manifest["wall_time_s"] = time.monotonic() - t0
        (out_dir / manifest_name).write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            encoding="utf-8", newline="\n")
    return manifest


def _package_version() -> str:
    from . import __version__
    return __version__
