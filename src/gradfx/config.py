"""Experiment configuration: one JSON document, validated up front.

Every problem is reported with a JSON-pointer-style path (/train/lr and
the like) before any compute starts.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from .analysis import SweepConfig
from .models import _COUNT, _NATURAL, _POSITIVE, ModelSpec, StageError, _number
from .training import EVAL_COLUMNS, TrainConfig

OUTPUT_ROOT_ENV = "GRADFX_OUTPUT_ROOT"

_NONNEGATIVE = (lambda v: _number(v) and v >= 0, "a number >= 0")
_UNIT = (lambda v: _number(v) and 0 <= v < 1, "a number in [0, 1)")

# Every field of /train, /data and /analysis: field -> (check on the JSON
# value, what it must hold). The keys are the accepted fields; checks that
# span fields, and the defaults, stay with the objects the sections build.
_RULES = {
    "train": {
        "max_steps": _COUNT, "batch_size": _COUNT, "lr": _POSITIVE,
        "beta1": _UNIT, "beta2": _UNIT, "eps": _POSITIVE,
        "w_l1": _NONNEGATIVE, "w_mrstft": _NONNEGATIVE,
        "mrstft_resolutions": (
            lambda v: type(v) is list and len(v) > 0 and all(
                type(r) is list and len(r) == 3
                and all(type(n) is int for n in r) for r in v),
            "a non-empty list of [fft, hop, window] integer triples"),
        "tbptt": (lambda v: type(v) is bool, "true or false"),
        "chunk_len": _COUNT, "warmup_len": _NATURAL,
        "validate_every": _COUNT, "seed": _NATURAL,
        "stop_metric": (lambda v: v is None or v in EVAL_COLUMNS,
                        "one of " + ", ".join(EVAL_COLUMNS)),
        "stop_value": (lambda v: v is None or _number(v), "a number or null"),
    },
    "data": {
        "manifest": (lambda v: type(v) is str, "a string path"),
        "segment_len": (_COUNT[0], "positive integer"),
        "hop": (lambda v: v is None or _COUNT[0](v), "positive integer or null"),
        "fractions": (
            lambda v: type(v) is list and len(v) == 3
            and all(_number(f) and 0 <= f <= 1 for f in v)
            and abs(sum(v) - 1.0) <= 1e-9,
            "[train, val, test], three numbers in [0, 1] summing to 1"),
        "seed": _NATURAL,
    },
    "analysis": {
        "fs": _POSITIVE, "f1": _POSITIVE,
        "f2": (lambda v: v is None or _POSITIVE[0](v), "a number > 0 or null"),
        "steps": (lambda v: type(v) is int and v >= 2, "an integer >= 2"),
        "T": _POSITIVE, "amplitude": _POSITIVE, "warmup": _NONNEGATIVE,
    },
}


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


def _check_fields(section: str, doc, problems) -> bool:
    """Report each unknown field and bad value; True when there is none."""
    if not isinstance(doc, dict):
        problems.append(f"/{section}: expected an object")
        return False
    rules = _RULES[section]
    before = len(problems)
    for key, value in doc.items():
        if key not in rules:
            problems.append(f"/{section}/{key}: unknown field")
        elif not rules[key][0](value):
            problems.append(f"/{section}/{key}: expected {rules[key][1]}, "
                            f"got {value!r}")
    return len(problems) == before


def _check_data(d, base: Path, problems) -> dict | None:
    """/data with defaults and the manifest path; None if a field is bad."""
    valid = _check_fields("data", d, problems)
    if not isinstance(d, dict):
        return None
    if "manifest" not in d:
        problems.append("/data/manifest: required string path")
    elif type(d["manifest"]) is str:
        d = dict(d, manifest=base / d["manifest"])  # unless absolute
        if not d["manifest"].exists():
            problems.append(f"/data/manifest: file not found: {d['manifest']}")
    return ({"segment_len": 48000, "hop": None, "fractions": (0.8, 0.1, 0.1),
             "seed": 0, **d} if valid else None)


def _check_lengths(data: dict | None, tc: TrainConfig, problems) -> None:
    """Lengths the losses need: every segment is evaluated with MR-STFT,
    and truncated BPTT needs a warm-up plus one whole chunk per segment."""
    fft = tc.mrstft_cfg.max_fft
    seg = data["segment_len"] if data is not None else None
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


def _check_tbptt(spec: ModelSpec, tc: TrainConfig, problems) -> None:
    """Truncated BPTT trains an lstm model on pieces split at warmup_len and
    every chunk_len, which must be whole units of its stream: a piece
    that ends inside a control block changes the output."""
    if spec.kind != "lstm":
        problems.append(f"/train/tbptt: truncated BPTT trains lstm models "
                        f"only, not a {spec.kind} model")
        return
    unit = spec.build().stream_unit
    for key in ("warmup_len", "chunk_len"):
        v = getattr(tc, key)
        if v % unit:
            problems.append(f"/train/{key}: {v} is not a multiple of the "
                            f"model's control block of {unit} samples")


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
        except KeyError as e:
            problems.append(f"/model/{e.args[0]}: required field missing")
        except StageError as e:
            problems.append(f"/model/{e.path}: {e}")
        except (ValueError, TypeError) as e:
            problems.append(f"/model: {e}")

    data = None
    if "data" in doc:
        data = _check_data(doc["data"], path.parent, problems)

    train_cfg = None
    tdoc = doc.get("train", {})
    if _check_fields("train", tdoc, problems):
        try:
            train_cfg = TrainConfig(**tdoc)
        except ValueError as e:
            problems.append(f"/train: {e}")
        else:
            _check_lengths(data, train_cfg, problems)
            if train_cfg.tbptt and model_spec is not None:
                _check_tbptt(model_spec, train_cfg, problems)

    sweep_cfg = None
    adoc = doc.get("analysis", {})
    if _check_fields("analysis", adoc, problems):
        if model_spec is not None:
            # the tones are labelled in Hz at fs; the model runs at its rate
            rate = model_spec.sample_rate
            if adoc.get("fs", rate) != rate:
                problems.append(f"/analysis/fs: {adoc['fs']:g} != model "
                                f"sample_rate {rate:g}")
            adoc = dict(adoc, fs=rate)
        try:
            sweep_cfg = SweepConfig(**adoc)
        except (ValueError, OverflowError) as e:
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
