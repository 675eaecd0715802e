"""Input mutation: `gradfx train` on a tiny corpus, with one manifest field
changed at a time, exits 0, or 2 with a `/data/manifest` line; never 3 and
never with a traceback.

The cases are every field crossed with every mutation: deleting the field,
or setting it to null, a bool, a string, a negative number, 0, 1e308,
Infinity, NaN, a list, an object or the path of a directory.
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
