"""Tests for experiment configs, the preset runner, and the CLI."""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import rvqlab
from rvqlab.channel import FixedSpectrumModel, IIDModel, KroneckerModel
from rvqlab import harness
from rvqlab.cli import main
from rvqlab.harness import (PRESET_NAMES, ConfigError, ExperimentConfig,
                            model_from_dict, run, validate)


def test_config_round_trip():
    cfg = ExperimentConfig(experiment="fig2", seed=7, bits_range=[1, 2, 3],
                           rho=0.5, trials={"codebooks": 10},
                           output_dir="somewhere", threads=2)
    back = ExperimentConfig.from_json(cfg.to_json())
    assert back == cfg


def test_config_rejects_bad_input():
    with pytest.raises(ConfigError, match="unknown field"):
        ExperimentConfig.from_json('{"experiment": "fig1", "bogus": 1}')
    with pytest.raises(ConfigError, match="missing field"):
        ExperimentConfig.from_json('{"seed": 1}')
    with pytest.raises(ConfigError, match="valid JSON"):
        ExperimentConfig.from_json("{not json")
    with pytest.raises(ConfigError, match="object"):
        ExperimentConfig.from_json("[1, 2]")


def test_validate_flags_problems():
    assert any("unknown preset" in s
               for s in validate(ExperimentConfig(experiment="fig9")))
    assert any("generation cap" in s
               for s in validate(ExperimentConfig(experiment="fig3",
                                                  bits_range=[30])))
    assert any("closed-form cap" in s
               for s in validate(ExperimentConfig(experiment="fig2",
                                                  bits_range=[21])))
    assert any("codebooks" in s
               for s in validate(ExperimentConfig(experiment="fig2",
                                                  trials={"codebooks": 1})))
    assert any("model" in s
               for s in validate(ExperimentConfig(experiment="custom")))
    assert any("rho" in s
               for s in validate(ExperimentConfig(experiment="fig5a", rho=-1.0)))
    assert any("threads" in s
               for s in validate(ExperimentConfig(experiment="fig1", threads=0)))
    assert any("seed" in s
               for s in validate(ExperimentConfig(experiment="fig1", seed=-3)))


def test_validate_clean_config():
    assert validate(ExperimentConfig(experiment="fig6d")) == []


@pytest.mark.parametrize("bits, want", [
    ([1, 1, 2], ["bits_range: repeated entry 1"]),
    ([1, 1.0], ["bits_range: bad entry 1.0"]),
    ([1, True], ["bits_range: bad entry True"]),
])
def test_validate_refuses_each_bad_or_repeated_entry_once(bits, want):
    assert validate(ExperimentConfig(experiment="fig2", bits_range=bits)) == want


_IID2 = {"kind": "iid", "n_t": 2, "n_r": 2}
# every field each preset reads, with its default (a model has none: custom
# needs one); every other field is refused
_R6, _R8 = [1, 2, 3, 4, 5, 6], [1, 2, 3, 4, 5, 6, 7, 8]
_READS = {
    "fig1": {"trials.samples": 100000},
    "fig2": {"bits_range": _R8, "trials.codebooks": 1000},
    "fig3": {"bits_range": [2, 4, 6]},
    "fig4a": {"bits_range": _R6, "trials.channels": 200, "trials.codebooks": 100},
    "fig4b": {"bits_range": _R6, "rho": 10.0, "trials.channels": 200,
              "trials.codebooks": 100},
    "fig5a": {"bits_range": _R8, "rho": 1.0, "trials.codebooks": 1000},
    "fig5b": {"bits_range": [4], "trials.codebooks": 1000},
    "fig6a": {"bits_range": _R6, "trials.codebooks": 1000},
    "fig6b": {"bits_range": _R6, "trials.codebooks": 1000},
    "fig6c": {"bits_range": [1, 4], "trials.channels": 400, "trials.codebooks": 100},
    "fig6d": {"bits_range": _R6, "trials.channels": 1000, "trials.codebooks": 100,
              "trials.samples": 64},
    "custom": {"bits_range": _R6, "rho": 1.0, "trials.channels": 100,
               "trials.codebooks": 100, "model": None},
}
# a valid setting of each field, as ExperimentConfig keyword arguments
_SETTINGS = {"bits_range": {"bits_range": [2]}, "rho": {"rho": 2.0},
             "trials.channels": {"trials": {"channels": 3}},
             "trials.codebooks": {"trials": {"codebooks": 3}},
             "trials.samples": {"trials": {"samples": 3}},
             "model": {"model": _IID2}}


def _config(preset, *fields):
    """The preset's config with the given fields set (custom gets a model)."""
    kwargs = {"model": _IID2} if preset == "custom" else {}
    for name in fields:
        kwargs.update(_SETTINGS[name])
    return ExperimentConfig(experiment=preset, **kwargs)


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_builder_receives_the_preset_defaults(preset):
    seen = {}

    def record(config, **values):
        seen.update(values)
        return [], []

    harness._PRESETS[preset]._replace(build=record).configured(_config(preset))
    assert isinstance(seen.pop("model", None), IIDModel) == (preset == "custom")
    # builder arguments are named bits, rho and after the trial keys
    assert seen == {name.removeprefix("trials.").replace("bits_range", "bits"): v
                    for name, v in _READS[preset].items() if name != "model"}


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_every_unread_field_is_refused(tmp_path, monkeypatch, capsys, preset):
    monkeypatch.chdir(tmp_path)
    assert validate(_config(preset)) == []
    for name in _SETTINGS:
        config = _config(preset, name)
        if name in _READS[preset]:
            assert validate(config) == []
            continue
        issues = validate(config)
        assert len(issues) == 1 and issues[0].startswith(f"{name}: "), issues
        path = tmp_path / "unread.json"
        path.write_text(config.to_json())
        assert main(["validate", "--config", str(path)]) == 1
        assert main(["run", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert name in out and "error:" in err
        assert "Traceback" not in out + err
        assert not (tmp_path / "out").exists()


_BAD_CONFIGS = [
    ('{"experiment": "fig1", "threads": "4"}', "threads"),
    ('{"experiment": "fig1", "trials": [1]}', "trials"),
    ('{"experiment": "fig2", "bits_range": 5}', "bits_range"),
    ('{"experiment": "fig5b", "bits_range": []}', "bits_range"),
    ('{"experiment": "fig5a", "rho": "x"}', "rho"),
    ('{"experiment": "fig1", "seed": true}', "seed"),
    ('{"experiment": "fig2", "trials": {"codebook": 5}}', "trials.codebook"),
    ('{"experiment": "fig1", "output_dir": 5}', "output_dir"),
    ('{"experiment": ["fig1"]}', "experiment"),
    ('{"experiment": "custom", "model": {"kind": "iid"}}', "model"),
    ('{"experiment": "custom", "model": {"kind": "kronecker", '
     '"lambda_t": [1.0, 0.5]}}', "model"),
    ('{"experiment": "custom", "model": {"kind": "iid", "n_t": "x", '
     '"n_r": 2}}', "model"),
    ('{"experiment": "fig5b", "bits_range": [3, 5]}', "bits_range"),
    ('{"experiment": "fig2", "bits_range": [1, 1]}', "bits_range"),
    ('{"experiment": "custom", "model": {"kind": "iid", "n_t": 2.7, '
     '"n_r": 2}}', "model"),
    ('{"experiment": "custom", "model": {"kind": "iid", "n_t": 2, '
     '"n_r": true}}', "model"),
    ('{"experiment": "custom", "model": {"kind": "fixed_spectrum", '
     '"lam": [2.0, 1.0], "frozen": 1}}', "model"),
    ('{"experiment": "custom", "model": {"kind": "fixed_spectrum", '
     '"lam": [NaN, 1]}}', "model"),
    ('{"experiment": "custom", "model": {"kind": "kronecker", '
     '"lambda_t": [1e400, 1], "lambda_r": [1]}}', "model"),
    ('{"experiment": "custom", "model": {"kind": "fixed_spectrum", '
     '"lam": [2, 1], "rho_c": 1e400}}', "model"),
    ('{"experiment": "custom", "model": {"kind": "iid", "n_t": 65, '
     '"n_r": 2}}', "model"),
    ('{"experiment": "custom", "model": {"kind": "fixed_spectrum", '
     '"lam": [1e308, 1e308]}}', "model"),
    ('{"experiment": "custom", "model": {"kind": "kronecker", '
     '"lambda_t": [1e200, 1], "lambda_r": [1e200], "rho_c": 1}}', "model"),
    ('{"experiment": "custom", "model": {"kind": "kronecker", '
     '"lambda_t": [2, 1], "lambda_r": [1], "n_t": 7}}', "model"),
    ('{"experiment": "custom", "model": {"kind": "iid", "n_t": 2, "n_r": 2, '
     '"lam": [5, 1], "frozen": true}}', "model"),
]


@pytest.mark.parametrize("text,field", _BAD_CONFIGS)
def test_bad_config_exits_cleanly(tmp_path, monkeypatch, capsys, text, field):
    monkeypatch.chdir(tmp_path)
    assert any(s.startswith(field) for s in
               validate(ExperimentConfig.from_json(text)))
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert main(["validate", "--config", str(path)]) == 1
    assert main(["run", "--config", str(path)]) == 1
    out, err = capsys.readouterr()
    assert field in out and "error:" in err
    assert "Traceback" not in out + err
    assert not (tmp_path / "out").exists()


def test_model_from_dict_kinds():
    m = model_from_dict({"kind": "iid", "n_t": 4, "n_r": 2})
    assert isinstance(m, IIDModel) and m.n_t == 4 and m.n_r == 2
    k = model_from_dict({"kind": "kronecker", "lambda_t": [1.6, 1.2, 0.8, 0.4],
                         "lambda_r": [1.75, 1.25, 0.75, 0.25]})
    assert isinstance(k, KroneckerModel)
    f = model_from_dict({"kind": "fixed_spectrum", "lam": [2.0, 1.0],
                         "frozen": True})
    assert isinstance(f, FixedSpectrumModel) and f.frozen
    with pytest.raises(ConfigError):
        model_from_dict({"kind": "laplacian"})
    with pytest.raises(ConfigError):
        model_from_dict({"n_t": 4})


@pytest.mark.parametrize("desc", [
    {"kind": "fixed_spectrum", "lam": [1e308, 1e308]},
    {"kind": "fixed_spectrum", "lam": [8e307, 8e307], "frozen": True},
    {"kind": "kronecker", "lambda_t": [1e200, 1], "lambda_r": [1e200]},
    {"kind": "kronecker", "lambda_t": [1e200, 1], "lambda_r": [1e200],
     "rho_c": 1},
    {"kind": "fixed_spectrum", "lam": [5e-324], "rho_c": 1},
])
def test_overflowing_model_is_refused_by_its_energy(desc):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="model: mean channel energy"):
            model_from_dict(desc)


def _tiny_fig1(out, seed=20240701, threads=1):
    return ExperimentConfig(experiment="fig1", seed=seed,
                            trials={"samples": 2000}, output_dir=str(out),
                            threads=threads)


def test_run_writes_csv_and_manifest(tmp_path):
    manifest = run(_tiny_fig1(tmp_path))
    text = (tmp_path / "fig1.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "n_t,x,cdf_exact,cdf_empirical"
    assert lines[-1] == "# manifest: fig1_manifest.json"
    assert manifest["complete"]
    assert manifest["files"] == {"fig1.csv": 603}
    assert set(manifest["versions"]) == {"python", "numpy", "rvqlab"}
    on_disk = json.loads((tmp_path / "fig1_manifest.json").read_text())
    assert on_disk == manifest


def test_run_is_seed_reproducible(tmp_path):
    run(_tiny_fig1(tmp_path / "a"))
    run(_tiny_fig1(tmp_path / "b"))
    run(_tiny_fig1(tmp_path / "c", seed=1))
    a = (tmp_path / "a" / "fig1.csv").read_bytes()
    b = (tmp_path / "b" / "fig1.csv").read_bytes()
    c = (tmp_path / "c" / "fig1.csv").read_bytes()
    assert a == b
    assert a != c


def test_run_thread_count_does_not_change_output(tmp_path):
    run(_tiny_fig1(tmp_path / "t1", threads=1))
    run(_tiny_fig1(tmp_path / "t2", threads=2))
    assert (tmp_path / "t1" / "fig1.csv").read_bytes() == \
        (tmp_path / "t2" / "fig1.csv").read_bytes()


def test_run_fig2_tiny(tmp_path):
    cfg = ExperimentConfig(experiment="fig2", bits_range=[1, 2],
                           trials={"codebooks": 40}, output_dir=str(tmp_path))
    manifest = run(cfg)
    lines = (tmp_path / "fig2.csv").read_text().splitlines()
    assert lines[0] == ("n_t,b,delta1_mc,stderr,delta1_exact_or_appx,"
                        "delta1_asympt")
    assert manifest["files"] == {"fig2.csv": 6}


def test_run_refuses_invalid_config(tmp_path):
    cfg = ExperimentConfig(experiment="fig2", trials={"codebooks": 1},
                           output_dir=str(tmp_path))
    with pytest.raises(ConfigError):
        run(cfg)


def test_cli_validate(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(_tiny_fig1(tmp_path).to_json())
    assert main(["validate", "--config", str(good)]) == 0
    assert capsys.readouterr().out.strip() == "ok"
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "fig9"}')
    assert main(["validate", "--config", str(bad)]) == 1
    assert "unknown preset" in capsys.readouterr().out


def test_cli_run(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(_tiny_fig1(tmp_path / "out").to_json())
    assert main(["run", "--config", str(path)]) == 0
    assert "wrote" in capsys.readouterr().out
    assert (tmp_path / "out" / "fig1.csv").exists()


def test_cli_run_seed_override(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(_tiny_fig1(tmp_path / "o1").to_json())
    assert main(["run", "--config", str(path), "--seed", "5",
                 "--out", str(tmp_path / "o2")]) == 0
    manifest = json.loads((tmp_path / "o2" / "fig1_manifest.json").read_text())
    assert manifest["seed"] == 5


@pytest.mark.parametrize("rho", [1e5, 1e6])
def test_cli_runs_fig5a_near_z_one(tmp_path, rho):
    # at these powers [2, 1] has z within 1e-5 of 1, where an alternating
    # series in z does not converge within a million terms
    path = tmp_path / "cfg.json"
    path.write_text(ExperimentConfig(
        experiment="fig5a", rho=rho, bits_range=[1, 12], trials={"codebooks": 4},
        output_dir=str(tmp_path / "out")).to_json())
    assert main(["run", "--config", str(path)]) == 0
    lines = (tmp_path / "out" / "fig5a.csv").read_text().splitlines()
    rows = list(csv.DictReader(s for s in lines if not s.startswith("#")))
    assert len(rows) == 6
    assert all(math.isfinite(float(r["delta2_closed"])) for r in rows)


def test_cli_reports_missing_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def _fresh_python(*args, cwd=None):
    """Run a new interpreter on this checkout's rvqlab; returns the process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(rvqlab.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


def _imported(importtime_stderr):
    """Module names in ``python -X importtime`` output."""
    return {line.rsplit("|", 1)[1].strip()
            for line in importtime_stderr.splitlines()
            if line.startswith("import time:") and "|" in line}


def _is_scipy(name):
    return name == "scipy" or name.startswith("scipy.")


def test_cli_import_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency, and the thread pool loads only
    # where threads > 1.  The test modules import scipy, so only a fresh
    # interpreter sees what the import itself loads
    probe = ("import json, sys, rvqlab.cli, rvqlab.harness; "
             "print(json.dumps(sorted(sys.modules)))")
    proc = _fresh_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "rvqlab.harness" in loaded
    assert not {m for m in loaded if _is_scipy(m)}
    assert not loaded & {"numpy.f2py", "numpy.testing", "concurrent.futures"}
    # a bad config exits 1, not with a traceback, from either command
    bad = tmp_path / "bad.json"
    bad.write_text('{"experiment": "fig2", "trials": {"codebooks": 1}}')
    for command in ("validate", "run"):
        proc = _fresh_python("-X", "importtime", "-m", "rvqlab.cli", command,
                             "--config", str(bad), cwd=tmp_path)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr, proc.stderr
        imported = _imported(proc.stderr)
        assert "rvqlab.harness" in imported
        assert not {m for m in imported if _is_scipy(m)}


def test_a_sampled_preset_never_loads_scipy_special(tmp_path):
    # every preset, sampled or closed-form, runs on numpy alone; fig4b at
    # threads 2 also runs its tasks on the thread pool.  A fresh interpreter
    # sees what the runs load
    configs = [ExperimentConfig(experiment=preset, seed=3, output_dir=preset,
                                threads=2 if preset == "fig4b" else 1,
                                **_TINY[preset]).to_json()
               for preset in PRESET_NAMES]
    probe = f"""
import hashlib, json, sys
from pathlib import Path
from rvqlab.harness import ExperimentConfig, run
digests = {{}}
for text in {configs!r}:
    config = ExperimentConfig.from_json(text)
    run(config)
    digests[config.experiment] = hashlib.sha256(Path(
        config.output_dir, config.experiment + ".csv").read_bytes()).hexdigest()
print(json.dumps([digests, sorted(sys.modules)]))
"""
    proc = _fresh_python("-c", probe, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    digests, loaded = json.loads(proc.stdout)
    assert digests == _TINY_SHA256
    assert not [m for m in loaded if _is_scipy(m)]


_IID = {"kind": "iid", "n_t": 3, "n_r": 2}
_TINY = {
    "fig1": dict(trials={"samples": 500}),
    "fig2": dict(bits_range=[1, 3], trials={"codebooks": 10}),
    "fig3": dict(bits_range=[0, 1]),
    "fig4a": dict(bits_range=[1, 2], trials={"channels": 2, "codebooks": 4}),
    "fig4b": dict(bits_range=[1, 2], trials={"channels": 2, "codebooks": 4}),
    "fig5a": dict(bits_range=[1, 2], trials={"codebooks": 4}),
    "fig5b": dict(bits_range=[2], trials={"codebooks": 4}),
    "fig6a": dict(bits_range=[1, 2], trials={"codebooks": 4}),
    "fig6b": dict(bits_range=[1, 2], trials={"codebooks": 4}),
    # 300 codebooks at b=6 span two kernel chunks
    "fig6c": dict(bits_range=[1, 6], trials={"channels": 2, "codebooks": 300}),
    "fig6d": dict(bits_range=[1, 2],
                  trials={"channels": 2, "codebooks": 4, "samples": 16}),
    "custom": dict(model=_IID, bits_range=[1, 2],
                   trials={"channels": 2, "codebooks": 4}),
}


# sha256 of each _TINY CSV at seed 3.  The sampled columns are draws of the
# SFC64 streams.  A channel-averaged task draws its channels in groups of
# ``codebook.group_width`` (those whose codewords fit in one kernel block):
# group g reads its channels from the "channel" child of stream.derive(g),
# in one stacked draw, and its codewords from the "codebooks" child, channel
# after channel, in one kernel call.  A one-channel loss reads its codewords
# from its own stream.  The kernel draws each codeword on its Gram's
# eigenbasis: simplex weights, the spacings of n - 1 sorted uniforms (n
# Exp(1) draws, normalized, past 8 antennas), which alone give a plain RVQ
# row, and, when a skew shares the call, the phases of normals from a
# "phase" child stream.  A slice lays its codewords out codeword-major,
# codebook t taking every take-th column from t.  A skewed row is one
# batched real matrix product per slice on the embeddings
# [[Re M, -Im M], [Im M, Re M]], so its bytes also depend on the BLAS GEMM
# kernel.  fig1's empirical CDF is the kernel's plain rows of one-codeword
# codebooks.  The closed-form columns of fig2, fig5a and fig5b
# (and of the sliced fig2 pin below) are those of the graded-panel integral
# that delta1_exact and delta1_appx take the theorem sum as and delta2_appx
# shares, and of the Gauss-Laguerre rate loss, with 1 - d carried as the
# product prod_j (l1-l2)/(l1-lj).
# fig1's exact CDF and fig3's oracle values are those of the de Boor-Cox
# recursion.  Every integral sums each panel's Gauss-Legendre nodes, and a
# row's panels, on their own, in panel order (not by a BLAS product).
# fig6d's alpha = 0.5 and 0 skews are the lower-triangular factors that a
# quasi-Newton search on the spectra of L'GL (LAPACK's eigh) reaches within
# its 16-evaluation budget, short of convergence; its alpha = 1 skew is the
# identity.
# fig6a and fig6b take their skews in
# closed form, the whitener or the identity; their tiny pins do not reach
# the alpha = 1 degeneracy, where every skew with m1 = 0 is optimal and a
# long enough search stops on one whose m1 rounds below 0.
# Recorded with numpy 2.4 and OpenBLAS 0.3.31 (Haswell kernels)
# on x86-64: another libm or BLAS may round differently.
_TINY_SHA256 = {
    "fig1": "cd491fb43195268a4ee651b9931a45a99e5b247d882ee397e4de5f4ec4e1f952",
    "fig2": "4e7f9170c56e7ebb29fe649d9396a8e9cc77e0a88430a3583b53892b809ce1d9",
    "fig3": "9bad3fcb4d067af3032d0b8d97e3b58fcf7814f276ed1bc5902d6578d4bf4ad9",
    "fig4a": "e17ddf3d5b7d6f431324c3073d4316bcd45a1e79d87253f4ad14a2d31a1cf17d",
    "fig4b": "258c84375461233c40dd057b7ad4e9a61ccac14de5177973f6ae35e64faca912",
    "fig5a": "1c4f32a540a254836028a21f97ce87aadcaf1072b3e8f0e7f84027be4b2d3b7f",
    "fig5b": "9270ac77718e3fe8f3c6ef2f99fc482fea48a692eb294c647c3680a4f79e35e0",
    "fig6a": "b56d6a203dac5d3b0e43df6121964b5422af6677b1a612bdf716b41b0959faf3",
    "fig6b": "0a4647e02c9eaf61743cd319619d127d8a4b48f6d0ee14261a9372334fa04313",
    "fig6c": "ec6ad1e4a0cff94f1ae24a5cd4315cd4c04c900358ef52f2668e11415c5fd480",
    "fig6d": "9c73cc4203de31950b3ddc37af189e2022ccf37dee3748ac05588e69e15c0ae3",
    "custom": "949f56667e87a1c668175b472dbf953f20a527f1109dcffef25c7723772fa800",
}


def _preset_bytes(tmp_path, preset, **kwargs):
    """CSV bytes of one run at threads 1 and at threads 2, seed 3."""
    outs = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}"
        run(ExperimentConfig(experiment=preset, seed=3, output_dir=str(out),
                             threads=threads, **kwargs))
        outs.append((out / f"{preset}.csv").read_bytes())
    return outs


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_every_preset_is_thread_invariant(tmp_path, preset):
    outs = _preset_bytes(tmp_path, preset, **_TINY[preset])
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == _TINY_SHA256[preset]


def test_codeword_sliced_preset_keeps_its_bytes(tmp_path):
    # at bits 15 each fig2 codebook is drawn in codeword slices
    outs = _preset_bytes(tmp_path, "fig2", bits_range=[15],
                         trials={"codebooks": 2})
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == (
        "32cc1f5e8de4773e2d640adb55019c4400b325aa55637e786fae7b066f48b837")


def test_custom_past_eight_antennas_keeps_its_bytes(tmp_path):
    # an iid 9x9 model draws each codeword's weights as n Exp(1) variates,
    # the kernel path that no _TINY preset reaches
    outs = _preset_bytes(tmp_path, "custom", model={"kind": "iid", "n_t": 9, "n_r": 9},
                         bits_range=[1, 2], trials={"channels": 2, "codebooks": 4})
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0]).hexdigest() == (
        "f7995662a5496a9e7df3364aee3cc5da7ce6068c912b38a911ec57f132fb323e")
