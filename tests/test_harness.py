"""Tests for experiment configs, the preset runner, and the CLI."""

import hashlib
import json
import warnings

import pytest

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
    "fig6a": {"bits_range": _R6, "trials.codebooks": 1000, "trials.samples": 1600},
    "fig6b": {"bits_range": _R6, "trials.codebooks": 1000, "trials.samples": 1600},
    "fig6c": {"bits_range": [1, 4], "trials.channels": 400, "trials.codebooks": 100},
    "fig6d": {"bits_range": _R6, "trials.channels": 1000, "trials.codebooks": 100,
              "trials.samples": 2400},
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
    assert set(manifest["versions"]) == {"python", "numpy", "scipy", "rvqlab"}
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


def test_cli_reports_missing_file(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


_IID = {"kind": "iid", "n_t": 3, "n_r": 2}
_TINY = {
    "fig1": dict(trials={"samples": 500}),
    "fig2": dict(bits_range=[1, 3], trials={"codebooks": 10}),
    "fig3": dict(bits_range=[0, 1]),
    "fig4a": dict(bits_range=[1, 2], trials={"channels": 2, "codebooks": 4}),
    "fig4b": dict(bits_range=[1, 2], trials={"channels": 2, "codebooks": 4}),
    "fig5a": dict(bits_range=[1, 2], trials={"codebooks": 4}),
    "fig5b": dict(bits_range=[2], trials={"codebooks": 4}),
    "fig6a": dict(bits_range=[1, 2], trials={"codebooks": 4, "samples": 16}),
    "fig6b": dict(bits_range=[1, 2], trials={"codebooks": 4, "samples": 16}),
    # 300 codebooks at b=6 span two kernel chunks
    "fig6c": dict(bits_range=[1, 6], trials={"channels": 2, "codebooks": 300}),
    "fig6d": dict(bits_range=[1, 2],
                  trials={"channels": 2, "codebooks": 4, "samples": 16}),
    "custom": dict(model=_IID, bits_range=[1, 2],
                   trials={"channels": 2, "codebooks": 4}),
}


# sha256 of each _TINY CSV at seed 3, as the complex-einsum Monte Carlo kernel
# wrote them; the real-arithmetic kernel keeps every byte.  Recorded with
# numpy 2.4 and scipy 1.17 on x86-64: another libm may round differently.
_TINY_SHA256 = {
    "fig1": "4d7620e79aa8063c9327614f4dd38c43eb2470dfca2b8693eb20e26d3bf3d56d",
    "fig2": "75d2a68f5e5a60c2a524217108dcbbfcae456ab63d46f643cea2f6bd57b3d34a",
    "fig3": "a0ae53757cb7a4071f865b1d914eee424d9ec43935f223b1a14be86e9aa7e81c",
    "fig4a": "092929a840fa1044e35b105c55b2b6408d25f881314469bb561047ed64d57901",
    "fig4b": "f09f9586b418757e6a929c019136e683741c0cc3501d0488004b4c45293404ff",
    "fig5a": "68ac7aea90f47671696678c37a0bfa6d98e3066db040ed0e24bcf642da6c391e",
    "fig5b": "dd71034ae203eb4802b4b36e1381a01ab00243f64f309cac0a33c87f7cdb79f6",
    "fig6a": "a9bec67bb5037ec34aadfc6129a5c4758e06be6c8788ae55e4fb9d224bb96eb9",
    "fig6b": "104045cc2dc64d0db29e7af285d380333cc9c412a154c93415ad70f6158535dc",
    "fig6c": "6bfce21f4701d9ed9fcbf6170aae372a925ebac31e29c48d4f9c6f9965bcec05",
    "fig6d": "53cbc17a0d6f0b7cc7c33f526150ee19ebc447f3447f2c8b99a4dfe1c4c84141",
    "custom": "87419fc1be01b529848b89ab6fa2af14d8db9349b39a6a64c1e14e5321940b02",
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
        "56e7ce83b2a0052dcde2e26549fcfe9fd35c8f4591c0484d17a5684665dc8e94")
