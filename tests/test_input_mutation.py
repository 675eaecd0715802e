"""Input mutation: a gradfx command with one input field changed at a time
exits 0, or 2 with a line that points at the field; never 3 and never with
a traceback.

- `gradfx train` on a tiny corpus, one manifest field changed: every field
  crossed with deleting it, or setting it to null, a bool, a string, a
  negative number, 0, 1e308, Infinity, NaN, a list, an object or the path
  of a directory. Exit 2 reads a `/data/manifest` line.
- `gradfx analyze` with a tiny sweep, one `/model` field changed: every
  key of an lstm, a tcn and a gray-box model crossed with deleting it, or
  setting it to null, a bool, a string, -1, 0, 1e308, a list or an object.
  Every `/model` line of exit 2 names the key, its section or its stage.
"""

import json

import numpy as np
import pytest

from gradfx import cli
from gradfx import data as D

_DELETE, _DIRECTORY = object(), object()
MUTATIONS = {"delete": _DELETE, "null": None, "bool": True, "string": "abc",
             "negative": -1, "zero": 0, "1e308": 1e308,
             "infinity": float("inf"), "nan": float("nan"), "list": [0.5],
             "object": {"a": 1}, "directory": _DIRECTORY}
# JSON-pointer paths into the manifest
FIELDS = ("sample_rate", "entries", "entries/0", "entries/0/input",
          "entries/0/target", "entries/0/controls", "entries/0/controls/0")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """A valid manifest of two 2,048-sample pairs with one control each;
    its file paths are absolute, so a mutated copy may sit anywhere."""
    root = tmp_path_factory.mktemp("corpus")
    rng = np.random.default_rng(61)
    entries = []
    for i in range(2):
        x = (rng.standard_normal(2048) * 0.25).astype(np.float32)
        D.save_wav(root / f"in_{i}.wav", x, 48000)
        D.save_wav(root / f"out_{i}.wav", 0.5 * x, 48000)
        entries.append({"input": str(root / f"in_{i}.wav"),
                        "target": str(root / f"out_{i}.wav"),
                        "controls": [0.25 + 0.5 * i]})
    return {"sample_rate": 48000, "entries": entries}


def _mutate(doc, pointer, value):
    doc = json.loads(json.dumps(doc))
    *path, last = pointer.split("/")
    parent = doc
    for key in path:
        parent = parent[int(key) if isinstance(parent, list) else key]
    key = int(last) if isinstance(parent, list) else last
    if value is _DELETE:
        del parent[key]
    else:
        parent[key] = value
    return doc


@pytest.mark.parametrize("mutation", MUTATIONS)
@pytest.mark.parametrize("field", FIELDS)
def test_train_on_a_mutated_manifest_exits_0_or_2(tmp_path, capsys, corpus,
                                                   field, mutation):
    value = MUTATIONS[mutation]
    if value is _DIRECTORY:
        value = str(tmp_path)
    man = tmp_path / "manifest.json"
    man.write_text(json.dumps(_mutate(corpus, field, value)))
    model = {"kind": "graybox", "sample_rate": 48000.0, "num_controls": 1,
             "graybox": {"stages": [{"processor": "gain",
                                     "controller": "static_cond"}],
                         "block_size": 128}}
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "model": model,
        "train": {"max_steps": 2, "lr": 0.01, "validate_every": 2,
                  "seed": 1},
        "data": {"manifest": str(man), "segment_len": 2048,
                 "fractions": [1.0, 0.0, 0.0], "seed": 0},
        "output_dir": "out"}))
    rc = cli.main(["train", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert rc in (0, 2), err
    if rc == 2:
        assert any(line.strip().startswith("/data/manifest: ")
                   for line in err.splitlines()), err


MODEL_MUTATIONS = {k: MUTATIONS[k] for k in (
    "delete", "null", "bool", "string", "negative", "zero", "1e308", "list",
    "object")}
# 1 kHz keeps each model's sweep at two tones of 1,000 samples
MODELS = {
    "lstm": {"kind": "lstm", "sample_rate": 1000.0, "num_controls": 1,
             "lstm": {"hidden": 2, "cond_mode": "concat"}},
    "tcn": {"kind": "tcn", "sample_rate": 1000.0, "num_controls": 1,
            "tcn": {"blocks": 2, "kernel": 3, "dilation_growth": 2,
                    "channels": 2, "cond": "film", "batchnorm": False}},
    "graybox": {"kind": "graybox", "sample_rate": 1000.0, "num_controls": 0,
                "graybox": {"stages": [
                    {"processor": "parametric_eq", "controller": "dynamic"},
                    {"processor": "tanh", "controller": "dummy"}],
                    "block_size": 16}},
}


def _pointers(doc, prefix=""):
    """The JSON pointer of every key and list item below doc, outer first."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, v in items:
        pointer = f"{prefix}{key}"
        yield pointer
        yield from _pointers(v, pointer + "/")


def _names(model: dict, pointer: str):
    """What an exit-2 line about the field may name: the key (not a list
    index), and the stage it belongs to or else its section."""
    parts = pointer.split("/")
    names = set() if parts[-1].isdigit() else {parts[-1]}
    if "stages" in parts[:-1]:
        return names | {"stages/" + parts[parts.index("stages") + 1]}
    return names | {model["kind"]}


MODEL_FIELDS = [(name, pointer) for name, model in MODELS.items()
                for pointer in _pointers(model)]


@pytest.mark.parametrize("mutation", MODEL_MUTATIONS)
@pytest.mark.parametrize("name,field", MODEL_FIELDS)
def test_analyze_with_a_mutated_model_exits_0_or_2(tmp_path, capsys, name,
                                                   field, mutation):
    model = _mutate(MODELS[name], field, MODEL_MUTATIONS[mutation])
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({
        "model": model, "output_dir": "out",
        "analysis": {"f1": 50.0, "steps": 2, "T": 1.0, "warmup": 0.0}}))
    rc = cli.main(["analyze", "--config", str(cfg)])
    out, err = capsys.readouterr()
    assert "Traceback" not in out + err
    assert rc in (0, 2), err
    if rc == 2:
        lines = [ln.strip() for ln in err.splitlines()
                 if ln.strip().startswith("/model")]
        names = _names(MODELS[name], field)
        for line in lines:
            assert any(n in line for n in names), (names, line)
