import inspect
import json
import shutil
import struct

import numpy as np
import pytest

from gradfx import analysis as A
from gradfx import cli
from gradfx import data as D
from gradfx import models as M
from gradfx import tensor as T
from gradfx import training as tr
from gradfx.config import _RULES, ConfigError, load_config
from gradfx.models import ModelSpec, load_checkpoint, save_checkpoint
from gradfx.tensor import Tensor
from oracles import freqz_cascade, logs_match, rbj_coeffs


def _write_dataset(root, n_files=5, length=8192, gain=0.5, fs=48000,
                   identity=False):
    rng = np.random.default_rng(42)
    entries = []
    for i in range(n_files):
        x = (rng.standard_normal(length) * 0.25).astype(np.float32)
        D.save_wav(root / f"in_{i}.wav", x, fs, bitdepth="float32")
        if identity:
            entries.append({"input": f"in_{i}.wav", "target": f"in_{i}.wav"})
        else:
            D.save_wav(root / f"out_{i}.wav", (gain * x).astype(np.float32),
                       fs, bitdepth="float32")
            entries.append({"input": f"in_{i}.wav",
                            "target": f"out_{i}.wav"})
    man = root / "manifest.json"
    man.write_text(json.dumps({"sample_rate": fs, "entries": entries}))
    return man


def _gain_model_doc(num_controls=0, controller="static"):
    return {"kind": "graybox", "sample_rate": 48000.0,
            "num_controls": num_controls,
            "graybox": {"stages": [{"processor": "gain",
                                    "controller": controller}],
                        "block_size": 128}}


def _write_config(path, model=None, extra=None, with_data=True):
    doc = {"model": model or _gain_model_doc(),
           "train": {"max_steps": 12, "lr": 0.01, "validate_every": 6,
                     "seed": 1},
           "analysis": {"f1": 100.0, "steps": 6, "T": 1.0, "warmup": 0.05},
           "output_dir": "out"}
    if with_data:
        doc["data"] = {"manifest": "manifest.json", "segment_len": 2048,
                       "fractions": [0.6, 0.2, 0.2], "seed": 0}
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc))
    return path


def test_load_config_valid(tmp_path):
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json")
    cfg = load_config(cfg_path)
    assert isinstance(cfg.model_spec, ModelSpec)
    assert cfg.model_spec.kind == "graybox"
    assert cfg.train_cfg.max_steps == 12
    assert cfg.sweep_cfg.fs == 48000.0  # inherited from the model
    assert cfg.output_dir == tmp_path / "out"
    assert cfg.data["manifest"] == tmp_path / "manifest.json"


def test_load_config_accepts_an_analysis_fs_equal_to_the_model_rate(tmp_path):
    cfg_path = _write_config(tmp_path / "exp.json",
                             extra={"analysis": {"fs": 48000, "f1": 100.0,
                                                 "steps": 6, "T": 1.0}},
                             with_data=False)
    assert load_config(cfg_path).sweep_cfg.fs == 48000.0


def test_load_config_env_output_root(tmp_path, monkeypatch):
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json")
    doc = json.loads(cfg_path.read_text())
    del doc["output_dir"]
    cfg_path.write_text(json.dumps(doc))
    monkeypatch.setenv("GRADFX_OUTPUT_ROOT", str(tmp_path / "roots"))
    cfg = load_config(cfg_path)
    assert cfg.output_dir == tmp_path / "roots" / "exp"


def test_load_config_reports_every_problem(tmp_path):
    doc = {"model": {"kind": "zzz"},
           "data": {"manifest": "nope.json"},
           "train": {"bogus": 1},
           "mystery": {}}
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ConfigError) as exc:
        load_config(p)
    msg = str(exc.value)
    for pointer in ("/model", "/data/manifest", "/train/bogus", "/mystery"):
        assert pointer in msg
    assert "nope.json" in msg


def test_load_config_rejects_garbage(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{ nope")
    with pytest.raises(ConfigError):
        load_config(p)
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.json")


def test_cli_train_smoke(tmp_path):
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json")
    rc = cli.main(["train", "--config", str(cfg_path)])
    assert rc == 0
    out = tmp_path / "out"
    assert (out / "run_log.csv").exists()
    assert (out / "checkpoint.json").exists()
    assert (out / "metrics.csv").exists()
    header = (out / "metrics.csv").read_text().splitlines()[0]
    assert header == "model,tot,l1,mrstft"
    log = tr.RunLog.from_csv(out / "run_log.csv")
    assert [r["step"] for r in log.rows] == list(range(1, 13))


def test_cli_seed_override_changes_log(tmp_path):
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json")
    logs = []
    for seed in (5, 6):
        out = tmp_path / f"run{seed}"
        rc = cli.main(["train", "--config", str(cfg_path),
                       "--seed", str(seed), "--output-dir", str(out)])
        assert rc == 0
        logs.append(tr.RunLog.from_csv(out / "run_log.csv"))
    assert not logs_match(logs[0], logs[1])


def test_cli_missing_manifest_exit2(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "exp.json")  # no dataset written
    rc = cli.main(["train", "--config", str(cfg_path)])
    assert rc == 2
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("train, message", [
    ({"batch_size": 0}, "/train/batch_size: expected an integer >= 1, got 0"),
    ({"validate_every": 0},
     "/train/validate_every: expected an integer >= 1, got 0"),
    ({"lr": 0.0}, "/train/lr: expected a number > 0, got 0.0"),
    ({"lr": -0.01}, "/train/lr: expected a number > 0, got -0.01"),
    ({"tbptt": True, "batch_size": 2}, "batch_size must be 1 when tbptt"),
    # the data section's segments are 2048 samples long
    ({"mrstft_resolutions": [[4096, 1024, 4096]], "w_mrstft": 0.0},
     "/data/segment_len: 2048 is shorter than the largest MR-STFT fft "
     "size 4096"),
    ({"tbptt": True, "chunk_len": 1024, "warmup_len": 0},
     "/train/chunk_len: 1024 is shorter than the largest MR-STFT fft "
     "size 2048"),
    ({"tbptt": True, "chunk_len": 2048, "warmup_len": 1},
     "/train/warmup_len: warmup_len + chunk_len = 2049 exceeds "
     "/data/segment_len 2048"),
    ({"tbptt": True, "warmup_len": "long"},
     "/train/warmup_len: expected a nonnegative integer"),
    ({"max_steps": 2.5},
     "/train/max_steps: expected an integer >= 1, got 2.5"),
    ({"stop_metric": "foo", "stop_value": 0.1},
     "/train/stop_metric: expected one of tot, l1, mrstft, esr"),
    ({"beta1": 2.0}, "/train/beta1: expected a number in [0, 1), got 2.0"),
    ({"beta2": -0.1}, "/train/beta2: expected a number in [0, 1), got -0.1"),
    ({"beta1": 1}, "/train/beta1: expected a number in [0, 1), got 1"),
    ({"eps": -1}, "/train/eps: expected a number > 0, got -1"),
    ({"eps": 0.0}, "/train/eps: expected a number > 0, got 0.0"),
    ({"seed": "x"}, "/train/seed: expected a nonnegative integer, got 'x'"),
    ({"seed": 1.5}, "/train/seed: expected a nonnegative integer, got 1.5"),
    ({"lr": "fast"}, "/train/lr: expected a number > 0, got 'fast'"),
    ({"tbptt": True, "chunk_len": 2048.5},
     "/train/chunk_len: expected an integer >= 1, got 2048.5"),
    ({"batch_size": 2.5}, "/train/batch_size: expected an integer >= 1, got 2.5"),
    ({"validate_every": 2.5},
     "/train/validate_every: expected an integer >= 1, got 2.5"),
    ({"batch_size": True},
     "/train/batch_size: expected an integer >= 1, got True"),
    ({"max_steps": 0}, "/train/max_steps: expected an integer >= 1, got 0"),
    ({"tbptt": True, "chunk_len": 0},
     "/train/chunk_len: expected an integer >= 1, got 0"),
    ({"stop_metric": "esr", "stop_value": "0.1"},
     "/train/stop_value: expected a number or null, got '0.1'"),
    ({"tbptt": "no"}, "/train/tbptt: expected true or false, got 'no'"),
    ({"seed": -1}, "/train/seed: expected a nonnegative integer, got -1"),
    ({"w_l1": "1"}, "/train/w_l1: expected a number >= 0, got '1'"),
    ({"w_mrstft": -1}, "/train/w_mrstft: expected a number >= 0, got -1"),
    ({"mrstft_resolutions": [[1024, 256]]},
     "/train/mrstft_resolutions: expected a non-empty list of [fft, hop, "
     "window] integer triples, got [[1024, 256]]"),
])
def test_cli_rejects_bad_train_values_exit2(tmp_path, capsys, train, message):
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json")
    doc = json.loads(cfg_path.read_text())
    doc["train"].update(train)
    cfg_path.write_text(json.dumps(doc))
    rc = cli.main(["train", "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err
    pointed = message if message.startswith("/") else f"/train: {message}"
    assert pointed in err
    assert not (tmp_path / "out" / "run_log.csv").exists()


def test_cli_reports_every_data_problem_without_a_manifest(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "exp.json")
    doc = json.loads(cfg_path.read_text())
    doc["data"] = {"segment_len": -3, "fractions": [1.5, -0.5, 0]}
    cfg_path.write_text(json.dumps(doc))
    rc = cli.main(["train", "--config", str(cfg_path)])
    assert rc == 2
    err = capsys.readouterr().err
    for pointer in ("/data/manifest: required string path",
                    "/data/segment_len: expected positive integer",
                    "/data/fractions: expected [train, val, test]"):
        assert pointer in err


@pytest.mark.parametrize("data, message", [
    ({"hop": True}, "/data/hop: expected positive integer or null, got True"),
    ({"seed": "x"}, "/data/seed: expected a nonnegative integer, got 'x'"),
    ({"seed": 1.5}, "/data/seed: expected a nonnegative integer, got 1.5"),
    ({"seed": -1}, "/data/seed: expected a nonnegative integer, got -1"),
])
def test_cli_rejects_bad_data_values_exit2(tmp_path, capsys, data, message):
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json")
    doc = json.loads(cfg_path.read_text())
    doc["data"].update(data)
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "run_log.csv").exists()


def _with_controls(*controls):
    """A manifest edit: entry i gets controls[i % len(controls)]."""
    return lambda m: json.dumps(dict(m, entries=[
        dict(e, controls=controls[i % len(controls)])
        for i, e in enumerate(m["entries"])]))


@pytest.mark.parametrize("command, edit, data, argv, message", [
    ("train", _with_controls([1.5]), {}, [],
     "/data/manifest: entry 0: controls must lie in [0, 1]"),
    ("train", _with_controls(["abc"]), {}, [],
     "/data/manifest: entry 0: controls must be a list of numbers, "
     "got ['abc']"),
    ("train", lambda m: "{ nope", {}, [],
     "/data/manifest: Expecting property name"),
    ("train", lambda m: json.dumps({"entries": m["entries"]}), {}, [],
     "/data/manifest: manifest needs sample_rate and entries"),
    ("train", lambda m: json.dumps(dict(m, entries=[])), {}, [],
     "/data/manifest: manifest has no entries"),
    ("train", _with_controls([], [0.5]), {}, [],
     "/data/manifest: entries disagree on controls arity: [0, 1]"),
    ("train", None, {"segment_len": 16384}, [],
     "/data/manifest: entry 2: file shorter than seg_len (8192 < 16384)"),
    ("train", None, {"fractions": [0.1, 0.45, 0.45]}, [],
     "/data/fractions: [0.1, 0.45, 0.45] leaves no train file of 5"),
    ("test", None, {"fractions": [0.6, 0.4, 0.0]}, [],
     "/data/fractions: [0.6, 0.4, 0.0] leaves no test file of 5"),
    ("train", None, {}, ["--seed", "-1"],
     "--seed: expected a nonnegative integer, got -1"),
    ("train", lambda m: json.dumps(dict(m, entries=5)), {}, [],
     "/data/manifest: entries must be a list, got 5"),
    ("train", lambda m: json.dumps(dict(m, entries=["a"])), {}, [],
     "/data/manifest: entry 0: expected an object, got 'a'"),
    ("train", lambda m: json.dumps(dict(m, entries=[{"input": 5}])), {}, [],
     "/data/manifest: entry 0: input must be a path, got 5"),
    ("train", _with_controls([None]), {}, [],
     "/data/manifest: entry 0: controls must be a list of numbers, "
     "got [None]"),
    ("train", lambda m: json.dumps(dict(m, sample_rate=None)), {}, [],
     "/data/manifest: sample_rate must be a whole number of Hz > 0, got None"),
    ("train", lambda m: json.dumps(dict(m, sample_rate=float("inf"))), {}, [],
     "/data/manifest: sample_rate must be a whole number of Hz > 0, got inf"),
    ("train", lambda m: json.dumps(dict(m, sample_rate=float("nan"))), {}, [],
     "/data/manifest: sample_rate must be a whole number of Hz > 0, got nan"),
    ("train", lambda m: json.dumps(dict(m, sample_rate=48000.5)), {}, [],
     "/data/manifest: sample_rate must be a whole number of Hz > 0, "
     "got 48000.5"),
    ("train", _with_controls([True]), {}, [],
     "/data/manifest: entry 0: controls must be a list of numbers, "
     "got [True]"),
    ("train", _with_controls([False]), {}, [],
     "/data/manifest: entry 0: controls must be a list of numbers, "
     "got [False]"),
    ("train", _with_controls(["0.5"]), {}, [],
     "/data/manifest: entry 0: controls must be a list of numbers, "
     "got ['0.5']"),
    ("train", lambda m: json.dumps(dict(m, entries=[
        dict(m["entries"][0], input=".")])), {}, [],
     "/data/manifest: entry 0: cannot read "),
    ("train", lambda m: json.dumps(dict(m, entries=[
        dict(m["entries"][0], target="gone.wav")])), {}, [],
     "/data/manifest: entry 0: "),
])
def test_cli_rejects_bad_inputs_read_after_load_exit2(
        tmp_path, capsys, command, edit, data, argv, message):
    man = _write_dataset(tmp_path)
    if edit is not None:
        man.write_text(edit(json.loads(man.read_text())))
    cfg_path = _write_config(tmp_path / "exp.json")
    doc = json.loads(cfg_path.read_text())
    doc["data"].update(data)
    cfg_path.write_text(json.dumps(doc))
    if command == "test":
        spec = ModelSpec.from_dict(doc["model"])
        save_checkpoint(tmp_path / "ckpt.json",
                        spec.build(np.random.default_rng(0)), spec)
        argv = argv + ["--checkpoint", str(tmp_path / "ckpt.json")]
    assert cli.main([command, "--config", str(cfg_path)] + argv) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, split", [("train", 1), ("train", 2),
                                            ("test", 2)],
                         ids=["train_val", "train_test", "test_test"])
def test_cli_rejects_a_silent_target_that_evaluate_reads_exit2(
        tmp_path, capsys, command, split):
    # esr and dc are undefined on a target with no energy: refused at
    # load, not after training up to the first validation
    _write_dataset(tmp_path)
    i = D.split_entries(5, (0.6, 0.2, 0.2), seed=0)[split][0]
    target = tmp_path / f"out_{i}.wav"
    y, fs = D.load_wav(target)
    y[2048:4096] = 0.0
    D.save_wav(target, y, fs, bitdepth="float32")
    cfg_path = _write_config(tmp_path / "exp.json")
    argv = [command, "--config", str(cfg_path)]
    if command == "test":
        spec = ModelSpec.from_dict(_gain_model_doc())
        save_checkpoint(tmp_path / "ckpt.json",
                        spec.build(np.random.default_rng(0)), spec)
        argv += ["--checkpoint", str(tmp_path / "ckpt.json")]
    assert cli.main(argv) == 2
    assert (f"/data/manifest: entry {i}: target at offset 2048: metric "
            f"undefined for a silent target") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_trains_on_a_silent_train_target(tmp_path):
    # train segments only feed the losses, which a silent target leaves
    # defined
    _write_dataset(tmp_path)
    i = D.split_entries(5, (0.6, 0.2, 0.2), seed=0)[0][0]
    D.save_wav(tmp_path / f"out_{i}.wav", np.zeros(8192), 48000,
               bitdepth="float32")
    assert cli.main(["train", "--config",
                     str(_write_config(tmp_path / "exp.json"))]) == 0


@pytest.mark.parametrize("fractions", [
    [1.5, -0.5, 0], [0.5, 0.5, 0.5], [0.6, 0.4], [0.6, 0.2, "0.2"],
    [0.6, 0.2, None], 0.8, "0.8,0.1,0.1", [True, 0, 0]])
def test_cli_rejects_bad_data_fractions_exit2(tmp_path, capsys, fractions):
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json")
    doc = json.loads(cfg_path.read_text())
    doc["data"]["fractions"] = fractions
    cfg_path.write_text(json.dumps(doc))
    rc = cli.main(["train", "--config", str(cfg_path)])
    assert rc == 2
    assert (f"/data/fractions: expected [train, val, test], three numbers in "
            f"[0, 1] summing to 1, got {fractions!r}"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "run_log.csv").exists()


@pytest.mark.parametrize("kind", ["tcn", "gcn"])
@pytest.mark.parametrize("cond", ["film", "tfilm", "ttfilm"])
def test_cli_rejects_control_conditioning_without_controls_exit2(
        tmp_path, capsys, kind, cond):
    _write_dataset(tmp_path)
    model = {"kind": kind, "sample_rate": 48000.0, "num_controls": 0,
             kind: {"blocks": 2, "kernel": 3, "dilation_growth": 2,
                    "channels": 4, "cond": cond}}
    cfg_path = _write_config(tmp_path / "exp.json", model=model)
    rc = cli.main(["train", "--config", str(cfg_path)])
    assert rc == 2
    assert (f"/model: cond '{cond}' needs num_controls >= 1"
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "run_log.csv").exists()


@pytest.mark.parametrize("command", ["train", "analyze"])
@pytest.mark.parametrize("lstm, message", [
    ({"hidden": 4, "cond_mode": "bogus"}, "/model: unknown cond_mode 'bogus'"),
    ({"hidden": 4, "cond_mode": "concat"},
     "/model: conditioned model needs num_controls >= 1"),
    ({"hidden": 2.5}, "/model: lstm hidden must be an integer >= 1, got 2.5"),
    ({"hiden": 4}, "/model: unknown lstm field 'hiden'"),
])
def test_cli_rejects_bad_lstm_sections_exit2(tmp_path, capsys, command, lstm,
                                             message):
    _write_dataset(tmp_path)
    model = {"kind": "lstm", "sample_rate": 48000.0, "num_controls": 0,
             "lstm": lstm}
    cfg_path = _write_config(tmp_path / "exp.json", model=model)
    assert cli.main([command, "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["tcn", "gcn"])
@pytest.mark.parametrize("field, value, message", [
    ("blocks", 2.5, "blocks must be an integer >= 1, got 2.5"),
    ("kernel", 3.0, "kernel must be an integer >= 1, got 3.0"),
    ("channels", True, "channels must be an integer >= 1, got True"),
    ("dilation_growth", "2",
     "dilation_growth must be an integer >= 1, got '2'"),
    ("batchnorm", 1, "batchnorm must be true or false, got 1"),
])
def test_cli_rejects_non_integer_conv_sizes_exit2(tmp_path, capsys, kind,
                                                  field, value, message):
    _write_dataset(tmp_path)
    section = {"blocks": 2, "kernel": 3, "dilation_growth": 2, "channels": 4}
    model = {"kind": kind, "sample_rate": 48000.0, "num_controls": 0,
             kind: dict(section, **{field: value})}
    cfg_path = _write_config(tmp_path / "exp.json", model=model)
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    assert f"/model: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "run_log.csv").exists()


def _stage(processor, controller="static", **opts):
    return {"kind": "graybox", "sample_rate": 48000.0, "num_controls": 1,
            "graybox": {"stages": [dict(processor=processor,
                                        controller=controller, **opts)],
                        "block_size": 128}}


@pytest.mark.parametrize("model, message", [
    (_stage("gain", processor_opts={"ranges": [[20, 1000]]}),
     "/model: gain processor_opts: unknown option 'ranges'"),
    (_stage("gain", processor_opts={"foo": 1}),
     "/model: gain processor_opts: unknown option 'foo'"),
    (_stage("parametric_eq", processor_opts={"ranges": None}),
     "/model: parametric_eq processor_opts: unknown option 'ranges'"),
    (_stage("fir", "dummy", processor_opts={"num_taps": 2.5}),
     "/model: fir processor_opts num_taps must be an integer >= 1, got 2.5"),
    (_stage("rational", "dummy", processor_opts={"coeffs": [1, 2]}),
     "/model: rational processor_opts coeffs must be {numerator: 7 numbers, "
     "denominator: 5 numbers}, got [1, 2]"),
    (_stage("gain", "static_cond", controller_opts={"hidden": 0}),
     "/model: static_cond controller_opts hidden must be an integer >= 1, "
     "got 0"),
    (_stage("gain", "dynamic", controller_opts={"block_size": 64}),
     "/model: dynamic controller_opts: unknown option 'block_size'"),
    (_stage("gain", processor_opts=[1]),
     "/model: gain processor_opts must be an object, got [1]"),
])
def test_cli_rejects_bad_stage_options_exit2(tmp_path, capsys, model,
                                             message):
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json", model=model)
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    # each message is reported under the pointer of the stage that breaks it
    assert (message.replace("/model:", "/model/graybox/stages/0:")
            in capsys.readouterr().err)
    assert not (tmp_path / "out" / "run_log.csv").exists()


def _ttfilm_doc(channels):
    return {"kind": "tcn", "sample_rate": 48000.0, "num_controls": 1,
            "tcn": {"blocks": 2, "kernel": 3, "dilation_growth": 2,
                    "channels": channels, "cond": "ttfilm"}}


@pytest.mark.parametrize("command", ["train", "analyze"])
@pytest.mark.parametrize("model, message", [
    (_stage("fir", "static"),
     "/model/graybox/stages/0: fir has no controlled parameters; use the "
     "dummy controller"),
    (_stage("gain", "dummy"), "/model/graybox/stages/0: gain has 1 controlled "
                              "parameters; a dummy controller cannot drive it"),
    (_gain_model_doc(0, "static_cond"),
     "/model/graybox/stages/0: a static_cond controller needs num_controls >= 1"),
    (_gain_model_doc(0, "dynamic_cond"),
     "/model/graybox/stages/0: a dynamic_cond controller needs num_controls "
     ">= 1"),
    (_ttfilm_doc(4), "/model: reduced width must be smaller than channels"),
    (_ttfilm_doc(8), "/model: reduced width must be smaller than channels"),
], ids=["fir-static", "gain-dummy", "static_cond-0", "dynamic_cond-0",
        "ttfilm-4", "ttfilm-8"])
def test_cli_rejects_models_that_cannot_build_exit2(tmp_path, capsys, command,
                                                    model, message):
    # each of these used to load and then fail while the model was built
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json", model=model)
    assert cli.main([command, "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("processor", ["parametric_eq", "shelving_eq"])
def test_cli_rejects_an_eq_stage_below_its_frequency_range_exit2(
        tmp_path, capsys, processor):
    # at 40 Hz an EQ's f0 range would be 20 Hz to 0.95 * 20 Hz
    model = _gain_model_doc()
    model["sample_rate"] = 40.0
    model["graybox"]["stages"].append({"processor": processor})
    cfg_path = _write_config(tmp_path / "exp.json", model=model,
                             with_data=False)
    assert cli.main(["analyze", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert (f"/model/graybox/stages/1: {processor} cannot run at sample_rate "
            f"40: ParamRange needs min < max, got [20.0, 19.0]") in err
    assert not (tmp_path / "out").exists()
    model["sample_rate"] = 43.0  # the range is not empty from 42.2 Hz up
    assert ModelSpec.from_dict(model).build().processors[1].fs == 43.0


@pytest.mark.parametrize("controller, message", [
    ("dummy", "/model/graybox/stages/1: gain has 1 controlled parameters; "
              "a dummy controller cannot drive it"),
    ("static_cond", "/model/graybox/stages/1: a static_cond controller "
                    "needs num_controls >= 1"),
])
def test_cli_stage_rules_name_the_stage_exit2(tmp_path, capsys, controller,
                                              message):
    # two gain stages: only the index tells which one breaks the rule
    model = _gain_model_doc()
    model["graybox"]["stages"].append({"processor": "gain",
                                       "controller": controller})
    cfg_path = _write_config(tmp_path / "exp.json", model=model,
                             with_data=False)
    assert cli.main(["analyze", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err.splitlines()[1:] == [f"  {message}"]
    assert not (tmp_path / "out").exists()


def _lstm_doc(lstm):
    return {"kind": "lstm", "sample_rate": 48000.0, "num_controls": 0,
            "lstm": lstm}


def _tcn_doc(tcn):
    return {"kind": "tcn", "sample_rate": 48000.0, "num_controls": 0,
            "tcn": tcn}


def _gain_model_with(graybox=None, stage=None, **model):
    """The one-gain-stage model with edits to /model, its graybox section
    and its stage."""
    doc = dict(_gain_model_doc(), **model)
    doc["graybox"] = dict(doc["graybox"], **(graybox or {}))
    doc["graybox"]["stages"] = [dict(doc["graybox"]["stages"][0],
                                     **(stage or {}))]
    return doc


@pytest.mark.parametrize("model, message", [
    (_gain_model_with({"block_size": 0}),
     "/model: graybox block_size must be an integer >= 1, got 0"),
    (_gain_model_with({"block_size": 2.5}),
     "/model: graybox block_size must be an integer >= 1, got 2.5"),
    (_gain_model_with(num_controls=1.5),
     "/model: num_controls must be a nonnegative integer, got 1.5"),
    (_gain_model_with(num_controls=True),
     "/model: num_controls must be a nonnegative integer, got True"),
    (_gain_model_with(num_controls=-1),
     "/model: num_controls must be a nonnegative integer, got -1"),
    (_gain_model_with({"foo": 1}), "/model: unknown graybox field 'foo'"),
    (_gain_model_with(stage={"bar": 2}),
     "/model/graybox/stages/0: unknown stage field 'bar'"),
    (_gain_model_with({"sample_rate": 8000}),
     "/model: graybox sample_rate 8000.0 differs from the model's 48000.0"),
    (_gain_model_with({"num_controls": 1}),
     "/model: graybox num_controls 1 differs from the model's 0"),
    (_gain_model_with({"num_controls": 1.5}),
     "/model: graybox num_controls must be a nonnegative integer, got 1.5"),
    (_gain_model_with(sample_rate=0),
     "/model: sample_rate must be a number > 0, got 0"),
    (_gain_model_with(lstm={"hidden": 4}), "/model: unknown model field 'lstm'"),
    (dict(_gain_model_doc(), graybox=[1]),
     "/model: graybox section must be an object, got [1]"),
    (dict(_gain_model_doc(), graybox={"stages": [5]}),
     "/model/graybox/stages/0: stage section must be an object, got 5"),
    # these read Python-internal text or named no field before
    (_tcn_doc({"foo": 1}), "/model: unknown tcn field 'foo'"),
    (_tcn_doc(5), "/model: tcn section must be an object, got 5"),
    (_lstm_doc(5), "/model: lstm section must be an object, got 5"),
    (_lstm_doc([1]), "/model: lstm section must be an object, got [1]"),
    (_lstm_doc(None), "/model: lstm section must be an object, got None"),
    (dict(_gain_model_doc(), graybox={"stages": 5}),
     "/model: graybox stages must be a non-empty list, got 5"),
    (dict(_gain_model_doc(), graybox={"stages": "x"}),
     "/model: graybox stages must be a non-empty list, got 'x'"),
    (dict(_gain_model_doc(), graybox={"stages": {"a": 1}}),
     "/model: graybox stages must be a non-empty list, got {'a': 1}"),
    (_gain_model_with(stage={"processor": ["gain"]}),
     "/model/graybox/stages/0: unknown processor kind ['gain']"),
    (_gain_model_with(stage={"controller": "bogus"}),
     "/model/graybox/stages/0: unknown controller kind 'bogus'"),
])
def test_cli_rejects_bad_model_fields_exit2(tmp_path, capsys, model, message):
    cfg_path = _write_config(tmp_path / "exp.json", model=model,
                             with_data=False)
    assert cli.main(["analyze", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("written", [{"hidden": 4},
                                     {"hidden": 4, "cond_mode": "none"}])
def test_lstm_sections_that_spell_out_defaults_match_one_checkpoint(
        tmp_path, capsys, written):
    # the spec fills the section's defaults, so a checkpoint made from one
    # spelling loads under the other; one that stored the section as
    # written before the defaults were filled loads too
    _write_dataset(tmp_path, n_files=2, length=4096)
    train = _write_config(tmp_path / "train.json", model=_lstm_doc(written))
    test = _write_config(tmp_path / "test.json",
                         model=_lstm_doc({"hidden": 4, "block_size": 128}))
    doc = json.loads(train.read_text())
    doc["train"]["max_steps"] = 1
    train.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(train)]) == 0
    ckpt = tmp_path / "out" / "checkpoint.json"
    assert cli.main(["test", "--config", str(test), "--checkpoint",
                     str(ckpt)]) == 0
    payload = json.loads(ckpt.read_text())
    payload["spec"]["lstm"] = written
    ckpt.write_text(json.dumps(payload))
    assert cli.main(["test", "--config", str(test), "--checkpoint",
                     str(ckpt)]) == 0
    assert ModelSpec.from_dict(_lstm_doc(written)).to_dict()["lstm"] == \
        M.LSTM_DEFAULTS | {"hidden": 4}


def test_cli_train_rejects_a_model_with_nothing_to_train_exit2(tmp_path,
                                                                capsys):
    _write_dataset(tmp_path)
    model = _gain_model_with(stage={"processor": "tanh",
                                    "controller": "dummy"})
    cfg_path = _write_config(tmp_path / "exp.json", model=model)
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    assert ("/model: the model has no trainable parameters; nothing to train"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()  # made only at the first write
    # a fixed chain can still be measured and run
    assert cli.main(["analyze", "--config", str(cfg_path)]) == 0
    D.save_wav(tmp_path / "probe.wav", np.zeros(256, np.float32), 48000,
               bitdepth="float32")
    assert cli.main(["render", "--config", str(cfg_path),
                     "--input", str(tmp_path / "probe.wav")]) == 0


def test_load_config_accepts_graybox_copies_of_model_fields(tmp_path):
    # checkpoints store the model's rate and control count in both places
    model = _gain_model_with({"sample_rate": 48000, "num_controls": 0})
    cfg = load_config(_write_config(tmp_path / "exp.json", model=model,
                                    with_data=False))
    want = ModelSpec.from_dict(_gain_model_doc()).to_dict()
    assert cfg.model_spec.to_dict() == want
    assert ModelSpec.from_dict(want).to_dict() == want


@pytest.mark.parametrize("model", [
    _gain_model_doc(),
    {"kind": "tcn", "sample_rate": 48000.0, "num_controls": 0,
     "tcn": {"blocks": 2, "kernel": 3, "dilation_growth": 2, "channels": 4}},
    {"kind": "gcn", "sample_rate": 48000.0, "num_controls": 0,
     "gcn": {"blocks": 2, "kernel": 3, "dilation_growth": 2, "channels": 4}},
], ids=["graybox", "tcn", "gcn"])
def test_cli_rejects_tbptt_for_stateless_models_exit2(tmp_path, capsys,
                                                      model):
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json", model=model)
    doc = json.loads(cfg_path.read_text())
    doc["train"].update(tbptt=True, chunk_len=2048, warmup_len=0)
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    assert (f"/train/tbptt: truncated BPTT trains lstm models only, not a "
            f"{model['kind']} model" in capsys.readouterr().err)
    assert not (tmp_path / "out" / "run_log.csv").exists()


def _tbptt_doc(tmp_path, warmup_len, chunk_len):
    """A tvcond lstm (control blocks of 128) under truncated BPTT."""
    model = {"kind": "lstm", "sample_rate": 48000.0, "num_controls": 1,
             "lstm": {"hidden": 4, "cond_mode": "tvcond", "block_size": 128}}
    cfg_path = _write_config(tmp_path / "exp.json", model=model)
    doc = json.loads(cfg_path.read_text())
    doc["train"].update(tbptt=True, warmup_len=warmup_len,
                        chunk_len=chunk_len)
    doc["data"]["segment_len"] = 8192
    cfg_path.write_text(json.dumps(doc))
    return cfg_path


@pytest.mark.parametrize("warmup_len, chunk_len, message", [
    (1000, 2048, "/train/warmup_len: 1000 is not a multiple of the model's "
                 "control block of 128 samples"),
    (1024, 2100, "/train/chunk_len: 2100 is not a multiple of the model's "
                 "control block of 128 samples"),
])
def test_cli_rejects_tbptt_splits_inside_a_control_block_exit2(
        tmp_path, capsys, warmup_len, chunk_len, message):
    # a piece that ends inside a block would change the output
    _write_dataset(tmp_path, length=16384)
    cfg_path = _tbptt_doc(tmp_path, warmup_len, chunk_len)
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "run_log.csv").exists()


def test_load_config_accepts_tbptt_splits_on_the_control_blocks(tmp_path):
    _write_dataset(tmp_path, length=16384)
    cfg = load_config(_tbptt_doc(tmp_path, 1024, 2048))
    assert (cfg.train_cfg.warmup_len, cfg.train_cfg.chunk_len) == (1024, 2048)
    assert cfg.model_spec.build().stream_unit == 128


@pytest.mark.parametrize("model, message", [
    ({"sample_rate": 48000.0, "graybox": {"stages": []}},
     "/model/kind: required field missing"),
    ({"kind": "graybox", "graybox": {"block_size": 128}},
     "/model/graybox/stages: required field missing"),
    ({"kind": "graybox", "graybox": {"stages": [{"controller": "static"}]}},
     "/model/graybox/stages/0/processor: required field missing"),
    ({"kind": "tcn"}, "/model/tcn: required field missing"),
], ids=["kind", "stages", "processor", "section"])
def test_cli_reports_missing_required_model_fields_exit2(tmp_path, capsys,
                                                         model, message):
    cfg_path = _write_config(tmp_path / "exp.json", model=model,
                             with_data=False)
    assert cli.main(["analyze", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert message in err and "KeyError" not in err
    assert not (tmp_path / "out").exists()


def test_cli_test_identity_zero_metrics(tmp_path):
    _write_dataset(tmp_path, identity=True)
    cfg_path = _write_config(tmp_path / "exp.json")
    cfg = load_config(cfg_path)
    # a fresh gain stage sits at 0 dB, so the chain is already the identity
    model = cfg.model_spec.build(np.random.default_rng(0))
    opt = tr.Adam(model.parameters())
    ckpt = tmp_path / "ident.json"
    tr.save_training_checkpoint(ckpt, model, cfg.model_spec, opt, 0)

    outputs = []
    for run in range(2):
        rc = cli.main(["test", "--config", str(cfg_path),
                       "--checkpoint", str(ckpt)])
        assert rc == 0
        outputs.append((tmp_path / "out" / "metrics.csv").read_text())
    assert outputs[0] == outputs[1]  # byte-for-byte repeatable
    row = outputs[0].splitlines()[1].split(",")
    assert row[0] == "graybox"
    assert all(abs(float(v)) < 1e-9 for v in row[1:])


_FIR_MODEL = {"kind": "graybox", "sample_rate": 48000.0, "num_controls": 0,
              "graybox": {"stages": [
                  {"processor": "gain", "controller": "static"},
                  {"processor": "fir", "controller": "dummy",
                   "processor_opts": {"num_taps": 8, "width": 4}}],
                          "block_size": 128}}
_BN_TCN_MODEL = _tcn_doc({"blocks": 2, "kernel": 3, "dilation_growth": 2,
                          "channels": 4, "batchnorm": True})
_DROP = object()


def _edit(*path, value=_DROP):
    """A checkpoint edit: drop the entry at path, or set it to value (a
    function of the saved entry when callable)."""
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        if value is _DROP:
            del doc[last]
        else:
            doc[last] = value(doc[last]) if callable(value) else value
    return edit


def _recoded(change):
    """Set a saved array to change(the decoded array)."""
    return lambda d: M._encode_array(change(M._decode_array(d)))


def _with_nan(a):
    a = a.copy()
    a.flat[0] = np.nan
    return a


_ALL = ("train", "test", "analyze", "render")


def _model_state_cases(model, name, param, buffer):
    """Drop a parameter or a buffer, give either a wrong shape, and put a
    NaN in the parameter or save it as int32, in every command."""
    wrong = M._encode_array(np.zeros((3, 7), dtype=np.float32))
    cases = [(_edit("state", param), "drop-param", param),
             (_edit("state", buffer), "drop-buffer", buffer),
             (_edit("state", param, value=wrong), "shape-param", param),
             (_edit("state", buffer, value=wrong), "shape-buffer", buffer),
             (_edit("state", param, value=_recoded(_with_nan)), "nan-param",
              param),
             (_edit("state", param,
                    value=_recoded(lambda a: a.astype(np.int32))),
              "int32-param", "int32")]
    return [pytest.param(model, edit, _ALL, message, id=f"{name}-{case}")
            for edit, case, message in cases]


def _resume_cases():
    """Resume fields that are missing or of the wrong kind, in train."""
    opt = ("extra", "optimizer")
    cases = [(_edit(*opt, "t"), "no-t", "'t'"),
             (_edit(*opt, "m", 0, "data"), "no-moment-data", "'data'"),
             (_edit("extra", "best", value=[1]), "best-list", "best"),
             (_edit(*opt, value=[1]), "optimizer-list", "optimizer"),
             (_edit("extra", value=[1]), "extra-list", "extra"),
             (_edit(*opt, "t", value=-5), "negative-t", "optimizer t"),
             (_edit("extra", "step", value=2.7), "fractional-step", "step")]
    return [pytest.param(_FIR_MODEL, edit, ("train",), message,
                         id=f"resume-{case}")
            for edit, case, message in cases]


@pytest.mark.parametrize("model, checkpoint, commands, message", [
    pytest.param(None, text, _ALL, "", id=name)
    for name, text in (("not_json", "definitely { not json"),
                       ("empty_object", "{}"), ("list", "[]"),
                       ("int_spec", '{"spec": 5, "state": {}}'))
] + _model_state_cases(_FIR_MODEL, "fir", "controllers.0.b",
                       "processors.1._buf_positions")
  + _model_state_cases(_BN_TCN_MODEL, "bn_tcn", "mixer.w",
                       "stack.norms.0._buf_running_mean")
  + [pytest.param(_BN_TCN_MODEL, _edit(
      "state", "stack.norms.0._buf_running_var"), _ALL,
      "stack.norms.0._buf_running_var", id="bn_tcn-drop-running-var")]
  + _resume_cases())
def test_cli_rejects_a_corrupt_checkpoint_alike_in_every_command_exit2(
        tmp_path, capsys, model, checkpoint, commands, message):
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json", model=model)
    ckpt = tmp_path / "bad.json"
    if callable(checkpoint):  # an edit of a real checkpoint of the model
        spec = load_config(cfg_path).model_spec
        net = spec.build(np.random.default_rng(0))
        tr.save_training_checkpoint(ckpt, net, spec,
                                    tr.Adam(net.parameters()), 4, 0.5)
        doc = json.loads(ckpt.read_text())
        checkpoint(doc)
        checkpoint = json.dumps(doc)
    ckpt.write_text(checkpoint)
    for command in commands:
        wav = ["--input", str(tmp_path / "in_0.wav")] * (command == "render")
        rc = cli.main([command, *wav, "--config", str(cfg_path),
                       "--checkpoint", str(ckpt)])
        assert rc == 2, command
        err = capsys.readouterr().err
        assert (f"--checkpoint: corrupt or unreadable checkpoint {ckpt}"
                in err), command
        assert message in err and "Traceback" not in err, command
    assert not (tmp_path / "out").exists()


def test_cli_restores_the_default_dtype(tmp_path, capsys):
    # --precision f64 must not leak into the caller's later tensors, on
    # success or on an error after the setup
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    old = T.default_dtype()
    try:
        for argv, rc in ((["analyze"], 0),
                         (["test", "--checkpoint", str(bad)], 2)):
            assert cli.main([*argv, "--config", str(cfg_path),
                             "--precision", "f64"]) == rc
            assert T.default_dtype() is old
    finally:
        T.set_default_dtype(old)


def test_cli_test_checkpoint_mismatch_exit2(tmp_path, capsys):
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json")
    lstm_spec = ModelSpec(sample_rate=48000.0, num_controls=0,
                          lstm={"hidden": 4, "cond_mode": "none"})
    model = lstm_spec.build(np.random.default_rng(0))
    ckpt = tmp_path / "lstm.json"
    tr.save_training_checkpoint(ckpt, model, lstm_spec,
                                tr.Adam(model.parameters()), 0)
    rc = cli.main(["test", "--config", str(cfg_path),
                   "--checkpoint", str(ckpt)])
    assert rc == 2
    assert "does not match" in capsys.readouterr().err


def test_cli_analyze_graybox_stage_files(tmp_path):
    model = {"kind": "graybox", "sample_rate": 48000.0, "num_controls": 0,
             "graybox": {"stages": [
                 {"processor": "parametric_eq", "controller": "static"},
                 {"processor": "gain", "controller": "static"},
                 {"processor": "dc_offset", "controller": "static"},
                 {"processor": "tanh", "controller": "dummy"},
                 {"processor": "gain", "controller": "static"},
                 {"processor": "shelving_eq", "controller": "static"},
             ], "block_size": 128}}
    cfg_path = _write_config(tmp_path / "exp.json", model=model,
                             with_data=False)
    rc = cli.main(["analyze", "--config", str(cfg_path)])
    assert rc == 0
    out = tmp_path / "out"
    stage_files = sorted(out.glob("stage_*.csv"))
    assert len(stage_files) == 6
    assert (out / "response_model.csv").exists()
    assert (out / "response_model.svg").exists()
    # fresh gain stages sit mid-range: exactly 0 dB
    gain_lines = (out / "stage_1_gain.csv").read_text().splitlines()
    assert gain_lines[0] == "gain_db"
    assert len(gain_lines) == 2 and float(gain_lines[1]) == 0.0
    # EQ stages report a frequency response on the sweep grid
    eq_text = (out / "stage_0_parametric_eq.csv").read_text()
    assert eq_text.splitlines()[0] == "freq_hz,mag_db,phase_rad"
    assert len(eq_text.splitlines()) == 1 + 6


def test_cli_analyze_eq_stage_reports_match_the_oracle(tmp_path):
    # static EQ stages at random controller biases: each stage file is the
    # cookbook cascade's response at the stage's denormalized values
    model = {"kind": "graybox", "sample_rate": 48000.0, "num_controls": 0,
             "graybox": {"stages": [{"processor": "parametric_eq"},
                                    {"processor": "shelving_eq"}],
                         "block_size": 128}}
    cfg_path = _write_config(tmp_path / "exp.json", model=model,
                             with_data=False)
    spec = ModelSpec.from_dict(model)
    T.set_default_dtype(np.float64)
    try:
        chain = spec.build(np.random.default_rng(0))
        rng = np.random.default_rng(45)
        for k in chain.controllers:
            k.b.data = rng.uniform(-2.5, 2.5, k.b.data.shape)
        save_checkpoint(tmp_path / "ckpt.json", chain, spec)
        assert cli.main(["analyze", "--config", str(cfg_path), "--checkpoint",
                         str(tmp_path / "ckpt.json"), "--precision",
                         "f64"]) == 0
        freqs = load_config(cfg_path).sweep_cfg.frequencies
        for i, (proc, k) in enumerate(zip(chain.processors,
                                          chain.controllers)):
            u = k()[0].data
            phys = [r.denormalize(Tensor(u[j])).item()
                    for j, r in enumerate(proc.ranges)]
            coeffs = []
            for kind in proc.layout:  # f0, the gain if it has one, Q
                f0 = phys.pop(0)
                gain = phys.pop(0) if kind in ("lowshelf", "highshelf",
                                               "peak") else 0.0
                coeffs.append(rbj_coeffs(kind, f0, phys.pop(0), gain, 48000.0))
            h = freqz_cascade(coeffs, freqs, 48000.0)
            got = np.loadtxt(tmp_path / "out" / f"stage_{i}_{proc.name}.csv",
                             delimiter=",", skiprows=1)
            assert np.max(np.abs(got[:, 1] - 20 * np.log10(np.abs(h)))) < 1e-9
            assert np.max(np.abs(got[:, 2] - np.unwrap(np.angle(h)))) < 1e-9
    finally:
        T.set_default_dtype(np.float32)


def test_cli_analyze_blackbox_whole_model_only(tmp_path):
    model = {"kind": "lstm", "sample_rate": 8000.0, "num_controls": 0,
             "lstm": {"hidden": 4, "cond_mode": "none"}}
    cfg_path = _write_config(tmp_path / "exp.json", model=model,
                             extra={"analysis": {"f1": 200.0, "steps": 4,
                                                 "T": 1.0, "warmup": 0.02}},
                             with_data=False)
    rc = cli.main(["analyze", "--config", str(cfg_path)])
    assert rc == 0
    out = tmp_path / "out"
    assert (out / "response_model.csv").exists()
    assert list(out.glob("stage_*.csv")) == []


def test_cli_analyze_measures_a_batchnorm_model_in_eval_mode(tmp_path):
    # in training mode batch norm would normalize by each tone's own
    # statistics, and move the running ones
    model_doc = {"kind": "tcn", "sample_rate": 48000.0, "num_controls": 0,
                 "tcn": {"blocks": 2, "kernel": 3, "dilation_growth": 2,
                         "channels": 4, "batchnorm": True}}
    spec = ModelSpec.from_dict(model_doc)
    model = spec.build(np.random.default_rng(7))
    rng = np.random.default_rng(8)
    for _ in range(3):  # running statistics away from their start
        model.forward(Tensor((0.5 * rng.standard_normal(4096) + 0.2)
                             .astype(np.float32)))
    ckpt = tmp_path / "bn.json"
    save_checkpoint(ckpt, model, spec)
    cfg_path = _write_config(tmp_path / "exp.json", model=model_doc,
                             extra={"analysis": {"f1": 100.0, "f2": 4000.0,
                                                 "steps": 3, "T": 1.0,
                                                 "warmup": 0.05}},
                             with_data=False)
    assert cli.main(["analyze", "--config", str(cfg_path),
                     "--checkpoint", str(ckpt)]) == 0
    ref, _, _ = load_checkpoint(ckpt)
    ref.eval()
    A.emit_plot_data(A.stepped_sine_response(ref, load_config(cfg_path)
                                             .sweep_cfg),
                     tmp_path / "ref.csv")
    assert ((tmp_path / "out" / "response_model.csv").read_text()
            == (tmp_path / "ref.csv").read_text())


def test_cli_analyze_rejects_a_tail_without_a_period_exit2(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "exp.json",
                             extra={"analysis": {"f1": 100.0, "f2": 1000.0,
                                                 "steps": 2, "T": 0.5}},
                             with_data=False)
    assert cli.main(["analyze", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "/analysis: analysis tail of 240 samples holds no full period" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("analysis, message", [
    ({"steps": 2.5}, "/analysis/steps: expected an integer >= 2, got 2.5"),
    ({"steps": "6"}, "/analysis/steps: expected an integer >= 2, got '6'"),
    ({"T": True}, "/analysis/T: expected a number > 0, got True"),
    ({"amplitude": -1}, "/analysis/amplitude: expected a number > 0, got -1"),
    ({"warmup": -1}, "/analysis/warmup: expected a number >= 0, got -1"),
    # the tones would be labelled with frequencies the model never saw
    ({"fs": 44100}, "/analysis/fs: 44100 != model sample_rate 48000"),
])
def test_cli_analyze_rejects_bad_values_exit2(tmp_path, capsys, analysis,
                                              message):
    cfg_path = _write_config(tmp_path / "exp.json", with_data=False)
    doc = json.loads(cfg_path.read_text())
    doc["analysis"].update(analysis)
    cfg_path.write_text(json.dumps(doc))
    assert cli.main(["analyze", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("analysis, message", [
    ('"T": 1e308', "/analysis: T = 1e+308 s is not a finite number of "
                   "samples at 48000 Hz"),
    ('"warmup": 1e306', "/analysis: warmup = 1e+306 s is not a finite "
                        "number of samples at 48000 Hz"),
    # fs / f1 overflows the tail length
    ('"f1": 1e-320', "/analysis: cannot convert float infinity to integer"),
], ids=["T-1e308", "warmup-1e306", "f1-subnormal"])
def test_cli_analyze_rejects_sweep_lengths_past_a_float_exit2(
        tmp_path, capsys, analysis, message):
    # finite values whose sample counts overflow; these used to exit 3
    cfg_path = _write_config(tmp_path / "exp.json", with_data=False)
    doc = json.loads(cfg_path.read_text())
    del doc["analysis"][analysis.split('"')[1]]
    text = json.dumps(doc).replace('"analysis": {', '"analysis": {'
                                   + analysis + ", ")
    cfg_path.write_text(text)
    assert cli.main(["analyze", "--config", str(cfg_path)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, value, message", [
    ("warmup", 1e20, "6 tones of 4.8e+24 samples exceed"),
    ("warmup", 1e6, "6 tones of 4.8e+10 samples exceed"),
    ("sample_rate", 1e12, "6 tones of 2.05e+12 samples exceed"),
], ids=["warmup-1e20", "warmup-1e6", "sample_rate-1e12"])
def test_cli_analyze_rejects_a_sweep_past_the_sample_limit_exit2(
        tmp_path, capsys, field, value, message):
    # finite sweeps too large to render; these used to exit 3 in the sweep
    model = _gain_model_doc()
    model["graybox"]["stages"].append({"processor": "tanh",
                                       "controller": "dummy"})
    analysis = {"f1": 100.0, "steps": 6, "T": 2.0, "warmup": 0.05}
    (analysis if field == "warmup" else model)[field] = value
    cfg_path = _write_config(tmp_path / "exp.json", model=model,
                             extra={"analysis": analysis}, with_data=False)
    assert cli.main(["analyze", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"/analysis: {message} the sweep limit of {M.MAX_SAMPLES} " \
           f"samples" in err
    assert not (tmp_path / "out").exists()


_HUGE = 10 ** 12


@pytest.mark.parametrize("model, message", [
    (_gain_model_with({"block_size": _HUGE}, {"controller": "dynamic"}),
     f"/model: graybox block_size of {_HUGE} samples exceeds"),
    ({"kind": "lstm", "sample_rate": 48000.0, "num_controls": 1,
      "lstm": {"hidden": 4, "cond_mode": "tvcond", "block_size": _HUGE}},
     f"/model: lstm block_size of {_HUGE} samples exceeds"),
    ({"kind": "tcn", "sample_rate": 48000.0, "num_controls": 0,
      "tcn": {"blocks": 3, "kernel": 7, "dilation_growth": 10 ** 6}},
     "/model: receptive field (blocks 3, kernel 7, dilation_growth 1000000) "
     "of 6000006000007 samples exceeds"),
], ids=["graybox-block_size", "lstm-block_size", "tcn-receptive_field"])
def test_cli_analyze_rejects_a_model_span_past_the_sample_limit_exit2(
        tmp_path, capsys, model, message):
    # a forward pads to whole blocks and by each conv's context; these
    # used to exit 3 partway through the sweep, unable to allocate TiBs
    cfg_path = _write_config(tmp_path / "exp.json", model=model,
                             with_data=False)
    assert cli.main(["analyze", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{message} the limit of {M.MAX_SAMPLES} samples" in err
    assert not (tmp_path / "out").exists()


def test_model_spans_at_the_sample_limit_load():
    lim = M.MAX_SAMPLES
    ok = [_gain_model_with({"block_size": lim}),
          {"kind": "lstm", "lstm": {"block_size": lim}},
          {"kind": "gcn", "gcn": {"blocks": 1, "kernel": lim}}]
    for doc in ok:
        ModelSpec.from_dict(doc)
    for doc in (_gain_model_with({"block_size": lim + 1}),
                {"kind": "lstm", "lstm": {"block_size": lim + 1}},
                {"kind": "gcn", "gcn": {"blocks": 1, "kernel": lim + 1}}):
        with pytest.raises(ValueError, match=f"of {lim + 1} samples exceeds"):
            ModelSpec.from_dict(doc)


def test_rule_table_names_every_config_parameter():
    # a new TrainConfig or SweepConfig parameter cannot skip its load rule
    for section, cls in (("train", tr.TrainConfig),
                         ("analysis", A.SweepConfig)):
        params = set(inspect.signature(cls.__init__).parameters) - {"self"}
        assert set(_RULES[section]) == params, section


def test_cli_render_identity(tmp_path):
    cfg_path = _write_config(tmp_path / "exp.json", with_data=False)
    t = np.arange(4000) / 48000.0
    x = (0.5 * np.sin(2 * np.pi * 440.0 * t)).astype(np.float32)
    D.save_wav(tmp_path / "probe.wav", x, 48000, bitdepth=16)
    rc = cli.main(["render", "--config", str(cfg_path),
                   "--input", str(tmp_path / "probe.wav")])
    assert rc == 0
    y, fs = D.load_wav(tmp_path / "out" / "rendered.wav")
    x_back, _ = D.load_wav(tmp_path / "probe.wav")
    assert fs == 48000
    assert len(y) == len(x_back)
    assert np.max(np.abs(y - x_back)) <= 1.0 / 32768.0


def test_cli_render_nested_output_path(tmp_path):
    cfg_path = _write_config(tmp_path / "exp.json", with_data=False)
    x = (0.25 * np.ones(2048)).astype(np.float32)
    D.save_wav(tmp_path / "probe.wav", x, 48000, bitdepth=16)
    rc = cli.main(["render", "--config", str(cfg_path),
                   "--input", str(tmp_path / "probe.wav"),
                   "--output", "stems/take1.wav", "--bitdepth", "24"])
    assert rc == 0
    y, fs = D.load_wav(tmp_path / "out" / "stems" / "take1.wav")
    assert fs == 48000 and len(y) == len(x)


def test_cli_render_control_errors(tmp_path):
    cfg_path = _write_config(tmp_path / "exp.json", with_data=False)
    x = np.zeros(2048, dtype=np.float32)
    D.save_wav(tmp_path / "probe.wav", x, 48000, bitdepth=16)
    # arity: this model takes no controls
    rc = cli.main(["render", "--config", str(cfg_path),
                   "--input", str(tmp_path / "probe.wav"),
                   "--controls", "0.5"])
    assert rc == 2

    cond = _write_config(tmp_path / "cond.json",
                         model=_gain_model_doc(1, "static_cond"),
                         with_data=False)
    rc = cli.main(["render", "--config", str(cond),
                   "--input", str(tmp_path / "probe.wav"),
                   "--controls", "1.5"])
    assert rc == 2  # out of [0, 1]
    rc = cli.main(["render", "--config", str(cond),
                   "--input", str(tmp_path / "probe.wav"),
                   "--controls", "0.7"])
    assert rc == 0


def _fmt_field(offset, value):
    """An edit of one 16-bit fmt field of a file save_wav wrote: the
    channel count at byte 22, bits per sample at byte 34."""
    def edit(path):
        b = bytearray(path.read_bytes())
        struct.pack_into("<H", b, offset, value)
        path.write_bytes(bytes(b))
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.write_bytes(b"not a wave file at all"),
     "not a RIFF/WAVE file"),
    (_fmt_field(22, 2), "2 channels, only mono is supported"),
    (_fmt_field(34, 24), "data chunk of 4096 bytes is not a whole number of "
                         "24-bit samples"),
    (_fmt_field(34, 0), "unsupported WAV encoding: format 1, 0-bit"),
], ids=["not_riff", "stereo", "partial_sample", "zero_bits"])
def test_cli_render_rejects_bad_input_files_exit2(tmp_path, capsys, edit,
                                                  message):
    cfg_path = _write_config(tmp_path / "exp.json", with_data=False)
    probe = tmp_path / "probe.wav"
    D.save_wav(probe, np.zeros(2048, dtype=np.float32), 48000, bitdepth=16)
    edit(probe)
    rc = cli.main(["render", "--config", str(cfg_path),
                   "--input", str(probe)])
    assert rc == 2
    assert f"--input: {probe}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out" / "rendered.wav").exists()


def test_cli_render_rejects_an_unreadable_input_exit2(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "exp.json", with_data=False)
    for path in (tmp_path / "gone.wav", tmp_path):  # missing, a directory
        assert cli.main(["render", "--config", str(cfg_path),
                         "--input", str(path)]) == 2
        assert "--input: [Errno" in capsys.readouterr().err


def test_cli_rejects_a_zero_bit_manifest_entry_exit2(tmp_path, capsys):
    man = _write_dataset(tmp_path)
    _fmt_field(34, 0)(tmp_path / "in_2.wav")
    cfg_path = _write_config(tmp_path / "exp.json")
    assert cli.main(["train", "--config", str(cfg_path)]) == 2
    assert (f"/data/manifest: {man.parent / 'in_2.wav'}: unsupported WAV "
            f"encoding: format 3, 0-bit" in capsys.readouterr().err)
    assert not (tmp_path / "out" / "run_log.csv").exists()


def test_cli_render_rate_mismatch(tmp_path, capsys):
    cfg_path = _write_config(tmp_path / "exp.json", with_data=False)
    D.save_wav(tmp_path / "probe.wav", np.zeros(1024, dtype=np.float32),
               44100, bitdepth=16)
    rc = cli.main(["render", "--config", str(cfg_path),
                   "--input", str(tmp_path / "probe.wav")])
    assert rc == 2
    assert "44100" in capsys.readouterr().err


def _resume_doc(max_steps):
    # no val/test split: the saved checkpoint is then the final train state
    return {"train": {"max_steps": max_steps, "lr": 0.01,
                      "validate_every": 50, "seed": 1},
            "data": {"manifest": "manifest.json", "segment_len": 2048,
                     "fractions": [1.0, 0.0, 0.0], "seed": 0}}


def test_cli_train_resume_continues_exactly(tmp_path):
    _write_dataset(tmp_path)
    full = _write_config(tmp_path / "full.json",
                         extra=dict(_resume_doc(24), output_dir="full_out"))
    assert cli.main(["train", "--config", str(full)]) == 0

    first = _write_config(tmp_path / "first.json",
                          extra=dict(_resume_doc(12), output_dir="first_out"))
    assert cli.main(["train", "--config", str(first)]) == 0

    resumed = _write_config(tmp_path / "resumed.json",
                            extra=dict(_resume_doc(24),
                                       output_dir="resumed_out"))
    rc = cli.main(["train", "--config", str(resumed), "--checkpoint",
                   str(tmp_path / "first_out" / "checkpoint.json")])
    assert rc == 0

    ref = tr.RunLog.from_csv(tmp_path / "full_out" / "run_log.csv")
    res = tr.RunLog.from_csv(tmp_path / "resumed_out" / "run_log.csv")
    assert [r["step"] for r in res.rows] == list(range(13, 25))
    for ra, rb in zip(ref.rows[12:], res.rows):
        assert abs(ra["loss_tot"] - rb["loss_tot"]) <= 1e-6


def test_cli_train_resume_exhausted_checkpoint_exit2(tmp_path, capsys):
    _write_dataset(tmp_path)
    first = _write_config(tmp_path / "first.json",
                          extra=dict(_resume_doc(12), output_dir="first_out"))
    assert cli.main(["train", "--config", str(first)]) == 0
    rc = cli.main(["train", "--config", str(first), "--checkpoint",
                   str(tmp_path / "first_out" / "checkpoint.json")])
    assert rc == 2
    assert "max_steps" in capsys.readouterr().err


def test_cli_train_resume_without_validation_saves_the_final_state(tmp_path):
    _write_dataset(tmp_path)
    full = _write_config(tmp_path / "full.json",
                         extra=dict(_resume_doc(12), output_dir="full_out"))
    assert cli.main(["train", "--config", str(full)]) == 0
    first = _write_config(tmp_path / "first.json",
                          extra=dict(_resume_doc(6), output_dir="out"))
    assert cli.main(["train", "--config", str(first)]) == 0
    resumed = _write_config(tmp_path / "resumed.json",
                            extra=dict(_resume_doc(12), output_dir="out"))
    assert cli.main(["train", "--config", str(resumed), "--checkpoint",
                     str(tmp_path / "out" / "checkpoint.json")]) == 0
    assert ((tmp_path / "out" / "checkpoint.json").read_bytes()
            == (tmp_path / "full_out" / "checkpoint.json").read_bytes())


def test_cli_train_resume_keeps_the_run_log(tmp_path, capsys):
    _write_dataset(tmp_path)
    full = _write_config(tmp_path / "full.json",
                         extra=dict(_resume_doc(12), output_dir="full_out"))
    assert cli.main(["train", "--config", str(full)]) == 0
    first = _write_config(tmp_path / "first.json",
                          extra=dict(_resume_doc(6), output_dir="out"))
    assert cli.main(["train", "--config", str(first)]) == 0
    ckpt6 = tmp_path / "ckpt6.json"
    shutil.copy(tmp_path / "out" / "checkpoint.json", ckpt6)
    ref = tr.RunLog.from_csv(tmp_path / "full_out" / "run_log.csv")

    # 6 + 6 steps into the same directory keep rows 1-6; and into a
    # directory whose log already runs to step 12, rows past 6 are dropped
    for out in ("out", "full_out"):
        resumed = _write_config(tmp_path / "resumed.json",
                                extra=dict(_resume_doc(12), output_dir=out))
        assert cli.main(["train", "--config", str(resumed),
                         "--checkpoint", str(ckpt6)]) == 0
        log = tr.RunLog.from_csv(tmp_path / out / "run_log.csv")
        assert [r["step"] for r in log.rows] == list(range(1, 13))
        for ra, rb in zip(ref.rows, log.rows):
            assert abs(ra["loss_tot"] - rb["loss_tot"]) <= 1e-6

    (tmp_path / "full_out" / "run_log.csv").write_text("not,a,run,log\n")
    rc = cli.main(["train", "--config", str(resumed),
                   "--checkpoint", str(ckpt6)])
    assert rc == 2
    assert "--checkpoint: cannot continue" in capsys.readouterr().err


class _Killed(BaseException):
    """The process dying at a write: no handler in the CLI catches it."""


def _kill_on_call(monkeypatch, owner, name, n):
    """Make owner.name raise _Killed on its nth call, before it writes
    (never for n = 0); returns the list that grows by one per call."""
    real, calls = getattr(owner, name), []

    def wrapper(*args, **kwargs):
        calls.append(None)
        if len(calls) == n:
            raise _Killed
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return calls


# a hidden-8 lstm trained by truncated BPTT: two 896-sample chunks after a
# 256-sample warm-up per 2048-sample segment, spectral frames within a
# chunk; three validations keep its run short
_TBPTT_LSTM = ({"kind": "lstm", "sample_rate": 48000.0, "num_controls": 0,
                "lstm": {"hidden": 8}},
               {"max_steps": 6, "validate_every": 2, "tbptt": True,
                "warmup_len": 256, "chunk_len": 896,
                "mrstft_resolutions": [[256, 64, 256], [512, 128, 512]]})


@pytest.mark.parametrize("owner, name, model, train_doc", [
    (tr.RunLog, "to_csv", None, {}),
    (tr, "save_training_checkpoint", None, {}),
    (tr.RunLog, "to_csv", *_TBPTT_LSTM),
    (tr, "save_training_checkpoint", *_TBPTT_LSTM),
], ids=["log", "checkpoint", "lstm_tbptt-log", "lstm_tbptt-checkpoint"])
def test_cli_train_resumed_after_a_kill_matches_the_uninterrupted_run(
        tmp_path, monkeypatch, owner, name, model, train_doc):
    # a kill before any of the run's writes, then a resume into the same
    # directory, leaves the files an uninterrupted run leaves
    _write_dataset(tmp_path)
    train = {"max_steps": 12, "lr": 0.01, "validate_every": 3, "seed": 1,
             **train_doc}
    ref = _write_config(tmp_path / "ref.json", model=model,
                        extra={"train": train, "output_dir": "ref"})
    with monkeypatch.context() as m:
        writes = _kill_on_call(m, owner, name, 0)
        assert cli.main(["train", "--config", str(ref)]) == 0
    # one per validation
    assert len(writes) == train["max_steps"] // train["validate_every"]
    ref_log = tr.RunLog.from_csv(tmp_path / "ref" / "run_log.csv")
    for n in range(1, len(writes) + 1):
        out = tmp_path / f"killed_{n}"
        cfg = _write_config(tmp_path / f"killed_{n}.json", model=model,
                            extra={"train": train, "output_dir": out.name})
        with monkeypatch.context() as m:
            _kill_on_call(m, owner, name, n)
            with pytest.raises(_Killed):
                cli.main(["train", "--config", str(cfg)])
        resume = (["--checkpoint", str(out / "checkpoint.json")]
                  if (out / "checkpoint.json").exists() else [])
        assert cli.main(["train", "--config", str(cfg)] + resume) == 0
        assert logs_match(tr.RunLog.from_csv(out / "run_log.csv"), ref_log), n
        for f in ("checkpoint.json", "metrics.csv"):
            assert (out / f).read_bytes() == (tmp_path / "ref" / f).read_bytes()


def _eq_model_doc():
    # one static EQ: a single [15] parameter
    return {"kind": "graybox", "sample_rate": 48000.0, "num_controls": 0,
            "graybox": {"stages": [{"processor": "parametric_eq",
                                    "controller": "static"}],
                        "block_size": 128}}


@pytest.mark.parametrize("bad", ["m_shape", "v_count"])
def test_cli_train_rejects_mismatched_optimizer_moments_exit2(tmp_path, capsys,
                                                              bad):
    # unchecked, a moment of the wrong shape fails at the first Adam step
    # (exit 3) and a short v list lets the step's zip skip parameters
    _write_dataset(tmp_path)
    cfg_path = _write_config(tmp_path / "exp.json", model=_eq_model_doc(),
                             extra=_resume_doc(6))
    cfg = load_config(cfg_path)
    model = cfg.model_spec.build(np.random.default_rng(0))
    opt = tr.Adam(model.parameters())
    if bad == "m_shape":
        opt.m[0] = np.zeros(16, dtype=np.float32)
    else:
        opt.v = opt.v[:-1]
    ckpt = tmp_path / "ckpt.json"
    tr.save_training_checkpoint(ckpt, model, cfg.model_spec, opt, 0)
    rc = cli.main(["train", "--config", str(cfg_path), "--checkpoint",
                   str(ckpt)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--checkpoint:" in err and "optimizer" in err
    assert not (tmp_path / "out" / "run_log.csv").exists()


def test_cli_train_resumed_at_f32_from_an_f64_run_stays_f32(tmp_path):
    # float64 moments on float32 parameters would make the parameters
    # float64 at the first update
    _write_dataset(tmp_path)
    first = _write_config(tmp_path / "first.json",
                          extra=dict(_resume_doc(6), output_dir="first_out"))
    try:
        assert cli.main(["train", "--config", str(first),
                         "--precision", "f64"]) == 0
    finally:
        T.set_default_dtype(np.float32)
    saved = json.loads((tmp_path / "first_out" / "checkpoint.json").read_text())
    assert saved["extra"]["optimizer"]["m"][0]["dtype"] == "float64"
    resumed = _write_config(tmp_path / "resumed.json",
                            extra=dict(_resume_doc(12), output_dir="out"))
    assert cli.main(["train", "--config", str(resumed), "--checkpoint",
                     str(tmp_path / "first_out" / "checkpoint.json")]) == 0
    doc = json.loads((tmp_path / "out" / "checkpoint.json").read_text())
    opt = doc["extra"]["optimizer"]
    assert doc["extra"]["step"] == 12
    assert {a["dtype"] for a in list(doc["state"].values())
            + opt["m"] + opt["v"]} == {"float32"}
