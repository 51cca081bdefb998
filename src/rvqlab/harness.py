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
from dataclasses import dataclass, field, fields, asdict
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import loss, ordering, skew
from .channel import (FixedSpectrumModel, IIDModel, KroneckerModel,
                      MAX_ENERGY, mean_energy, normalize_power,
                      sample_channel)
from .errors import RvqlabError
from .linalg import MAX_DIM
from .rng import RngStream
from .wnorm import WeightedNormLaw, cdf, empirical_cdf, empirical_cdf_eval

_FIXED_SPECTRA = ([2.0, 1.0], [3.0, 2.0, 1.0], [4.0, 3.0, 2.0, 1.0])
_ALPHA_GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
_BETA_GRID = (0.5, 1.0, 1.5, 2.0)

# transmit/receive eigenvalue splits for the correlated presets; the physical
# ensemble only depends on their outer product, scaled so E[Tr H'H] = 16
_FIG4_LAM_R = [1.6, 1.2, 0.8, 0.4]
_FIG4_PROFILES = {1: [16.0, 0.0, 0.0, 0.0], 2: [8.0, 8.0, 0.0, 0.0],  # by rank
                  3: [16.0 / 3] * 3 + [0.0], 4: [4.0, 4.0, 4.0, 4.0]}
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


def _is(v, kind) -> bool:
    """isinstance that does not let a bool pass for a number."""
    return isinstance(v, kind) and not isinstance(v, bool)


def validate(config: ExperimentConfig) -> list:
    """Collect config violations without running anything.  A field the
    preset does not read is refused, so no setting is silently ignored."""
    issues = []
    exp = config.experiment
    if not _is(config.seed, int) or not 0 <= config.seed < 2 ** 64:
        issues.append("seed: must be a 64-bit unsigned integer")
    if config.trials is not None and not isinstance(config.trials, dict):
        issues.append("trials: must be an object")
    if not isinstance(config.output_dir, str):
        issues.append("output_dir: must be a string")
    if not _is(config.threads, int) or config.threads < 1:
        issues.append("threads: must be a positive integer")
    preset = _PRESETS.get(exp) if isinstance(exp, str) else None
    if preset is None:  # the other fields mean what the preset makes of them
        return [f"experiment: unknown preset {exp!r}"] + issues

    def given(name, value, read):  # value if read, else a refusal if set
        if value is not None and not read:
            issues.append(f"{name}: not read by the {exp} preset")
        return value if read else None

    bits = given("bits_range", config.bits_range, preset.bits is not None)
    if bits is not None and (not isinstance(bits, list) or not bits):
        issues.append("bits_range: must be a nonempty list of integers")
    for b in bits if isinstance(bits, list) else ():
        if not _is(b, int) or b < 0:
            issues.append(f"bits_range: bad entry {b!r}")
        elif b > 24:
            issues.append(f"bits_range: {b} exceeds the generation cap 24")
        elif b > loss.MAX_CLOSED_FORM_BITS and preset.closed_form:
            issues.append(f"bits_range: {b} exceeds the closed-form cap "
                          f"{loss.MAX_CLOSED_FORM_BITS}")
    if isinstance(bits, list):  # a repeated b would rerun its random stream
        ints = [b for b in bits if _is(b, int)]  # 1.0 and True are bad entries
        issues += [f"bits_range: repeated entry {b}" for b in
                   sorted({b for b in ints if ints.count(b) > 1})]
    if preset.single_b and isinstance(bits, list) and len(bits) > 1:
        issues.append(f"bits_range: {exp} takes a single entry")
    rho = given("rho", config.rho, preset.rho is not None)
    if rho is not None and not (_is(rho, (int, float)) and 0 < rho < math.inf):
        issues.append("rho: must be a positive finite number")
    for key, v in (config.trials if isinstance(config.trials, dict) else {}).items():
        if key not in ("channels", "codebooks", "samples"):
            issues.append(f"trials.{key}: unknown key")
        elif key not in preset.trials:
            issues.append(f"trials.{key}: not read by the {exp} preset")
        elif not _is(v, int) or v < 1:
            issues.append(f"trials.{key}: must be a positive integer")
        elif v == 1 and key != "samples":  # channels and codebooks feed stderrs
            issues.append(f"trials.{key}: at least 2 needed for a standard error")
    model = given("model", config.model, preset.model)
    if preset.model and model is None:
        issues.append(f"model: required for the {exp} preset")
    if model is not None:
        try:
            model_from_dict(model)
        except ConfigError as e:
            issues.append(str(e))
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
        # besides kind and rho_c, a kind reads its model's fields
        unread = sorted(set(desc) - {"kind", "rho_c"} - {f.name for f in fields(m)})
        if unread:
            raise ValueError(f"{unread[0]} is not read by kind {kind!r}")
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


def _each_distinct(evaluate, skews, *args):
    """evaluate(distinct, *args) on the distinct skew matrices (None is plain
    RVQ) in first-seen order, one result per skew: a repeat copies its first's."""
    keys = [None if a is None else a.tobytes() for a in skews]
    distinct = dict(zip(keys, skews))  # equal bytes, equal matrices
    results = dict(zip(distinct, evaluate(list(distinct.values()), *args)))
    return [results[k] for k in keys]


def skew_candidates_avg(model, candidates, bits, n_channels, n_codebooks,
                        stream: RngStream):
    """Channel-averaged gain loss of (label, SkewMatrix-or-None) candidates
    on shared random draws, as [(label, mean, stderr)]; None is plain RVQ."""
    ests = _each_distinct(partial(loss.channel_averaged_losses, model),
                          [None if sk is None else sk.a for _, sk in candidates],
                          bits, n_channels, n_codebooks, stream)
    return [(label, est.value, est.stderr)
            for (label, _), est in zip(candidates, ests)]


# ---------------------------------------------------------------------------
# presets: each builder returns (columns, [(task_label, fn(stream) -> rows)])


def _build_fig1(config, samples):
    n_grid = 201

    def task(lam):
        def fn(stream):
            law = WeightedNormLaw(lam)
            xs = np.linspace(law.lam[-1], law.lam[0], n_grid)
            emp = empirical_cdf_eval(empirical_cdf(law, samples, stream), xs)
            return [[len(lam), x, c, e] for x, c, e in zip(xs, cdf(law, xs), emp)]
        return fn

    tasks = [(f"fig1/n{len(lam)}", task(lam)) for lam in _FIXED_SPECTRA]
    return ["n_t", "x", "cdf_exact", "cdf_empirical"], tasks


def _build_fig2(config, bits, codebooks):
    def task(lam, b):
        def fn(stream):
            ch = _frozen_realization(lam)
            est = loss.delta1_mc(ch, b, codebooks, stream)
            closed = loss.delta1_closed(lam, b)
            return [[len(lam), b, est.value, est.stderr, closed.value,
                     loss.delta1_asympt(lam, b).value]]
        return fn

    tasks = [(f"fig2/n{len(lam)}/b{b}", task(lam, b))
             for lam in _FIXED_SPECTRA for b in bits]
    return ["n_t", "b", "delta1_mc", "stderr", "delta1_exact_or_appx",
            "delta1_asympt"], tasks


def _build_fig3(config, bits):
    family = ordering.schur_family()

    def task(b):
        def fn(stream):
            return [[float(1.0 - prof[0]), b, est.value]
                    for prof, est in zip(family, loss.delta1_quadrature(family, b))]
        return fn

    return ["x", "b", "delta1"], [(f"fig3/b{b}", task(b)) for b in bits]


def _fig4_model(profile):
    return KroneckerModel(lambda_t=np.asarray(profile, dtype=float) / 4.0,
                          lambda_r=np.asarray(_FIG4_LAM_R, dtype=float))


def _build_fig4a(config, bits, channels, codebooks):
    def task(rank, profile, b):
        def fn(stream):
            est = loss.avg_delta_snr(_fig4_model(profile), b, channels, codebooks,
                                     stream)
            return [[rank, b, est.value, est.stderr]]
        return fn

    tasks = [(f"fig4a/rank{rank}/b{b}", task(rank, p, b))
             for rank, p in _FIG4_PROFILES.items() for b in bits]
    return ["rank_sigma_t", "b", "delta_snr", "stderr"], tasks


def _build_fig4b(config, bits, rho, channels, codebooks):
    def task(rank, profile, b):
        def fn(stream):
            est = loss.avg_delta_mi(_fig4_model(profile), rho, b, channels, codebooks,
                                    stream)
            return [[rank, b, rho, est.value, est.stderr]]
        return fn

    tasks = [(f"fig4b/rank{rank}/b{b}", task(rank, p, b))
             for rank, p in _FIG4_PROFILES.items() for b in bits]
    return ["rank_sigma_t", "b", "rho", "delta_mi", "stderr"], tasks


def _delta2_closed(lam, rho, b):
    lam = np.asarray(lam, dtype=float)
    if lam.size == 2:
        return loss.delta2_exact2(lam, rho, b).value
    return loss.delta2_appx(lam, rho, b).value


def _build_fig5a(config, bits, rho, codebooks):
    def task(lam, b):
        def fn(stream):
            ch = _frozen_realization(lam)
            est = loss.delta2_mc(ch, rho, b, codebooks, stream)
            closed = _delta2_closed(lam, rho, b)
            a3 = loss.delta2_asympt(lam, rho, b, method="prop3").value
            c3 = loss.delta2_asympt(lam, rho, b, method="corollary3").value
            return [[len(lam), b, rho, est.value, est.stderr, closed, a3, c3]]
        return fn

    tasks = [(f"fig5a/n{len(lam)}/b{b}", task(lam, b))
             for lam in _FIXED_SPECTRA for b in bits]
    return ["n_t", "b", "rho", "delta2_mc", "stderr", "delta2_closed",
            "delta2_asympt_prop", "delta2_asympt_cor"], tasks


def _build_fig5b(config, bits, codebooks):
    (b,) = bits
    rhos = (0.1, 0.31622776601683794, 1.0, 3.1622776601683795, 10.0,
            31.622776601683793, 100.0)

    def task(lam, rho):
        def fn(stream):
            ch = _frozen_realization(lam)
            est = loss.delta2_mc(ch, rho, b, codebooks, stream)
            return [[len(lam), rho, b, est.value, est.stderr,
                     _delta2_closed(lam, rho, b)]]
        return fn

    tasks = [(f"fig5b/n{len(lam)}/rho{i}", task(lam, rho))
             for lam in _FIXED_SPECTRA for i, rho in enumerate(rhos)]
    return ["n_t", "rho", "b", "delta2_mc", "stderr", "delta2_closed"], tasks


def _build_fig6_frozen(config, bits, codebooks, lam):
    """fig6a/fig6b: closed-form a1 skews for one frozen channel of spectrum lam."""
    ch = _frozen_realization(lam)
    candidates = [("rvq", None, "")] + [
        ("a1", skew.closed_form_skew_a1(ch, alpha).skew.a, alpha) for alpha in _ALPHA_GRID]

    def task(b):
        def fn(stream):
            ests = _each_distinct(partial(loss.sampled_losses, ch),
                                  [c[1] for c in candidates], b, codebooks, stream)
            return [[label, alpha, b, est.value, est.stderr]
                    for (label, _, alpha), est in zip(candidates, ests)]
        return fn

    tasks = [(f"{config.experiment}/b{b}", task(b)) for b in bits]
    return ["candidate", "alpha", "b", "delta1", "stderr"], tasks


def _skew_average_tasks(config, candidates, bits, channels, codebooks):
    """fig6c/fig6d: one channel-averaged row per (label, skew, alpha, beta)."""
    def task(b):
        def fn(stream):
            triples = skew_candidates_avg(_FIG6_MODEL, [c[:2] for c in candidates],
                                          b, channels, codebooks, stream)
            return [[c[0], c[2], c[3], b, mean, se]
                    for c, (_, mean, se) in zip(candidates, triples)]
        return fn

    tasks = [(f"{config.experiment}/b{b}", task(b)) for b in bits]
    return ["candidate", "alpha", "beta", "b", "delta_snr", "stderr"], tasks


def _build_fig6c(config, bits, channels, codebooks):
    candidates = [("rvq", None, "", "")]
    for beta in _BETA_GRID:
        for alpha in _ALPHA_GRID:
            sk = skew.build_skew_a2(_FIG6_SIGMA_T, alpha, beta)
            candidates.append(("a2", sk, alpha, beta))
    return _skew_average_tasks(config, candidates, bits, channels, codebooks)


def _build_fig6d(config, bits, channels, codebooks, samples):
    design = RngStream(config.seed).derive("fig6d-design")
    # every skew has m1 >= 0 and the identity m1 = 0: it is the alpha = 1
    # minimizer, the limit of the minimizers as alpha -> 1
    candidates = [("rvq", None, "", ""),
                  ("a1", skew.SkewMatrix(np.eye(_FIG6_MODEL.n_t)), 1.0, "")]
    for alpha in (0.5, 0.0):
        res = skew.optimize_skew_a1(_FIG6_MODEL, alpha, 64,
                                    design.derive(f"alpha{alpha}"), samples)
        candidates.append(("a1", res.skew, alpha, ""))
    for beta in _BETA_GRID:
        candidates.append(("a2", skew.build_skew_a2(_FIG6_SIGMA_T, 1.0, beta),
                           1.0, beta))
    return _skew_average_tasks(config, candidates, bits, channels, codebooks)


def _build_custom(config, bits, rho, channels, codebooks, model):
    def task(b):
        def fn(stream):
            snr = loss.avg_delta_snr(model, b, channels, codebooks,
                                     stream.derive("snr"))
            mi = loss.avg_delta_mi(model, rho, b, channels, codebooks,
                                   stream.derive("mi"))
            return [[b, rho, snr.value, snr.stderr, mi.value, mi.stderr]]
        return fn

    tasks = [(f"custom/b{b}", task(b)) for b in bits]
    return ["b", "rho", "delta_snr", "stderr_snr", "delta_mi", "stderr_mi"], tasks


class _Preset(NamedTuple):
    """What a preset reads of the config, with its defaults.  build(config,
    **values) gets each field read, as bits, rho, model or its trial key."""
    build: Callable
    bits: tuple = None         # default bits_range; None: bits_range unread
    trials: dict = {}          # the trial keys read, with their defaults
    rho: float = None          # default rho; None: rho unread
    model: bool = False        # reads a model, which it needs
    closed_form: bool = False  # every b within loss.MAX_CLOSED_FORM_BITS
    single_b: bool = False     # bits_range holds one b

    def configured(self, config):
        """build(config, ...) given each field read: the config's or the default."""
        values = {k: (config.trials or {}).get(k, d) for k, d in self.trials.items()}
        if self.bits is not None:
            values["bits"] = list(config.bits_range or self.bits)
        if self.rho is not None:
            values["rho"] = self.rho if config.rho is None else config.rho
        if self.model:
            values["model"] = model_from_dict(config.model)
        return self.build(config, **values)


_PRESETS = {
    "fig1": _Preset(_build_fig1, None, {"samples": 10 ** 5}),
    "fig2": _Preset(_build_fig2, range(1, 9), {"codebooks": 1000}, closed_form=True),
    "fig3": _Preset(_build_fig3, (2, 4, 6)),
    "fig4a": _Preset(_build_fig4a, range(1, 7), {"channels": 200, "codebooks": 100}),
    "fig4b": _Preset(_build_fig4b, range(1, 7), {"channels": 200, "codebooks": 100},
                     rho=10.0),
    "fig5a": _Preset(_build_fig5a, range(1, 9), {"codebooks": 1000}, rho=1.0,
                     closed_form=True),
    "fig5b": _Preset(_build_fig5b, (4,), {"codebooks": 1000}, closed_form=True,
                     single_b=True),
    "fig6a": _Preset(partial(_build_fig6_frozen, lam=[4.0, 3.0, 2.0, 1.0]),
                     range(1, 7), {"codebooks": 1000}),
    "fig6b": _Preset(partial(_build_fig6_frozen, lam=[1.6, 1.4, 1.2, 1.0]),
                     range(1, 7), {"codebooks": 1000}),
    "fig6c": _Preset(_build_fig6c, (1, 4), {"channels": 400, "codebooks": 100}),
    "fig6d": _Preset(_build_fig6d, range(1, 7),
                     {"channels": 1000, "codebooks": 100, "samples": 64}),
    "custom": _Preset(_build_custom, range(1, 7), {"channels": 100, "codebooks": 100},
                      rho=1.0, model=True),
}
PRESET_NAMES = tuple(_PRESETS)


# build(config) -> (columns, tasks) of each preset, looked up on every run
_BUILDERS = {name: preset.configured for name, preset in _PRESETS.items()}


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
            from concurrent.futures import ThreadPoolExecutor
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
