"""Experiment configuration: one JSON document, validated up front.

Every problem is reported with a JSON-pointer-style path (/train/lr and
the like) before any compute starts.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .analysis import SweepConfig
from .models import ModelSpec
from .training import EVAL_COLUMNS, TrainConfig

OUTPUT_ROOT_ENV = "GRADFX_OUTPUT_ROOT"

_TRAIN_KEYS = {"max_steps", "batch_size", "lr", "beta1", "beta2", "eps",
               "w_l1", "w_mrstft", "mrstft_resolutions", "tbptt",
               "chunk_len", "warmup_len", "validate_every", "seed",
               "stop_metric", "stop_value"}

# /train values TrainConfig would take and then fail on mid-run:
# field -> (check on the JSON value, what the field must hold)
_NUMBER = (int, float)
_TRAIN_RULES = {
    "max_steps": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "batch_size": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "validate_every": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "seed": (lambda v: type(v) is int, "an integer"),
    "lr": (lambda v: type(v) in _NUMBER and v > 0, "a number > 0"),
    "beta1": (lambda v: type(v) in _NUMBER and 0 <= v < 1, "a number in [0, 1)"),
    "beta2": (lambda v: type(v) in _NUMBER and 0 <= v < 1, "a number in [0, 1)"),
    "eps": (lambda v: type(v) in _NUMBER and v > 0, "a number > 0"),
    "chunk_len": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "warmup_len": (lambda v: type(v) is int and v >= 0, "a nonnegative integer"),
    "stop_metric": (lambda v: v is None or v in EVAL_COLUMNS,
                    "one of " + ", ".join(EVAL_COLUMNS)),
}

_SWEEP_KEYS = {"fs", "f1", "f2", "steps", "T", "amplitude", "warmup"}
_DATA_KEYS = {"manifest", "segment_len", "hop", "fractions", "seed"}


class ConfigError(ValueError):
    """One or more invalid fields; message lists every pointer found."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("invalid config:\n" +
                         "\n".join(f"  {p}" for p in self.problems))


class ExperimentConfig:
    def __init__(self, model_spec: ModelSpec, data: dict | None,
                 train_cfg: TrainConfig, sweep_cfg: SweepConfig,
                 output_dir: Path):
        self.model_spec = model_spec
        self.data = data
        self.train_cfg = train_cfg
        self.sweep_cfg = sweep_cfg
        self.output_dir = Path(output_dir)


def _check_data(d, base: Path, problems) -> dict | None:
    if not isinstance(d, dict):
        problems.append("/data: expected an object")
        return None
    for key in d:
        if key not in _DATA_KEYS:
            problems.append(f"/data/{key}: unknown field")
    out = {"segment_len": d.get("segment_len", 48000),
           "hop": d.get("hop"), "fractions": d.get("fractions",
                                                   (0.8, 0.1, 0.1)),
           "seed": d.get("seed", 0)}
    if not isinstance(out["segment_len"], int) or out["segment_len"] < 1:
        problems.append("/data/segment_len: expected positive integer")
    if out["hop"] is not None and (not isinstance(out["hop"], int)
                                   or out["hop"] < 1):
        problems.append("/data/hop: expected positive integer")
    fr = out["fractions"]
    if not (isinstance(fr, (list, tuple)) and len(fr) == 3
            and all(type(v) in _NUMBER and 0 <= v <= 1 for v in fr)
            and abs(sum(fr) - 1.0) <= 1e-9):
        problems.append("/data/fractions: expected [train, val, test], three "
                        f"numbers in [0, 1] summing to 1, got {fr!r}")
    man = d.get("manifest")
    if not isinstance(man, str):
        problems.append("/data/manifest: required string path")
        return out
    path = Path(man)
    if not path.is_absolute():
        path = base / path
    if not path.exists():
        problems.append(f"/data/manifest: file not found: {path}")
    out["manifest"] = path
    return out


def _check_lengths(data: dict | None, tc: TrainConfig, problems) -> None:
    """Lengths the losses need: every segment is evaluated with MR-STFT,
    and truncated BPTT needs a warm-up plus one whole chunk per segment."""
    fft = tc.mrstft_cfg.max_fft
    seg = data["segment_len"] if data is not None else None
    if not isinstance(seg, int) or seg < 1:
        seg = None  # absent, or already reported
    if seg is not None and seg < fft:
        problems.append(f"/data/segment_len: {seg} is shorter than the "
                        f"largest MR-STFT fft size {fft}")
    if not tc.tbptt:
        return
    if tc.weights.w_mrstft > 0 and tc.chunk_len < fft:
        problems.append(f"/train/chunk_len: {tc.chunk_len} is shorter than "
                        f"the largest MR-STFT fft size {fft}")
    if seg is not None and tc.warmup_len + tc.chunk_len > seg:
        problems.append(f"/train/warmup_len: warmup_len + chunk_len = "
                        f"{tc.warmup_len + tc.chunk_len} exceeds "
                        f"/data/segment_len {seg}")


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file; raises ConfigError with every
    offending field's pointer, never a partial object."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except FileNotFoundError:
        raise ConfigError([f"/: config file not found: {path}"])
    except json.JSONDecodeError as e:
        raise ConfigError([f"/: not valid JSON ({e})"])
    if not isinstance(doc, dict):
        raise ConfigError(["/: expected a JSON object"])

    problems = []
    for key in doc:
        if key not in ("model", "data", "train", "analysis", "output_dir"):
            problems.append(f"/{key}: unknown section")

    model_spec = None
    if "model" not in doc:
        problems.append("/model: required section")
    else:
        try:
            model_spec = ModelSpec.from_dict(doc["model"])
        except (ValueError, KeyError, TypeError) as e:
            problems.append(f"/model: {e}")

    data = None
    if "data" in doc:
        data = _check_data(doc["data"], path.parent, problems)

    train_cfg = None
    tdoc = doc.get("train", {})
    if not isinstance(tdoc, dict):
        problems.append("/train: expected an object")
    else:
        bad = False
        for key, value in tdoc.items():
            if key not in _TRAIN_KEYS:
                problems.append(f"/train/{key}: unknown field")
                bad = True
            elif key in _TRAIN_RULES and not _TRAIN_RULES[key][0](value):
                problems.append(f"/train/{key}: expected "
                                f"{_TRAIN_RULES[key][1]}, got {value!r}")
                bad = True
        if not bad:
            try:
                kwargs = dict(tdoc)
                if "mrstft_resolutions" in kwargs:
                    kwargs["mrstft_resolutions"] = tuple(
                        tuple(r) for r in kwargs["mrstft_resolutions"])
                train_cfg = TrainConfig(**kwargs)
            except (ValueError, TypeError) as e:
                problems.append(f"/train: {e}")
            else:
                _check_lengths(data, train_cfg, problems)

    sweep_cfg = None
    adoc = doc.get("analysis", {})
    if not isinstance(adoc, dict):
        problems.append("/analysis: expected an object")
    else:
        bad = False
        for key in adoc:
            if key not in _SWEEP_KEYS:
                problems.append(f"/analysis/{key}: unknown field")
                bad = True
        if not bad:
            try:
                kwargs = dict(adoc)
                if "fs" not in kwargs and model_spec is not None:
                    kwargs["fs"] = model_spec.sample_rate
                sweep_cfg = SweepConfig(**kwargs)
            except (ValueError, TypeError) as e:
                problems.append(f"/analysis: {e}")

    out_dir = doc.get("output_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        problems.append("/output_dir: expected a string")
        out_dir = None

    if problems:
        raise ConfigError(problems)

    root = Path(os.environ.get(OUTPUT_ROOT_ENV, "runs"))
    output_dir = Path(out_dir) if out_dir else root / path.stem
    if not output_dir.is_absolute():
        output_dir = path.parent / output_dir
    return ExperimentConfig(model_spec, data, train_cfg, sweep_cfg,
                            output_dir)
