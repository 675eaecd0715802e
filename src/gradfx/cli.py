"""Command line front end: train, test, analyze, render.

Exit codes: 0 success, 2 invalid config or inputs, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import analysis as A
from . import data as D
from . import losses as L
from . import tensor as T
from . import training as tr
from .config import ConfigError, load_config
from .models import GrayBoxChain, load_checkpoint, render
from .tensor import Tensor

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

METRIC_COLUMNS = ("model", "tot", "l1", "mrstft")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="gradfx",
        description="Train, evaluate, and inspect differentiable "
                    "audio effect models.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, checkpoint_required=False):
        p.add_argument("--config", required=True, help="experiment JSON")
        p.add_argument("--checkpoint", required=checkpoint_required,
                       help="model checkpoint JSON")
        p.add_argument("--seed", type=int, default=None,
                       help="override the training seed")
        p.add_argument("--output-dir", default=None,
                       help="override the config's output directory")
        p.add_argument("--precision", choices=("f32", "f64"), default="f32")

    common(sub.add_parser("train", help="fit the configured model"))
    common(sub.add_parser("test", help="evaluate a checkpoint on the "
                                       "test split"), True)
    common(sub.add_parser("analyze", help="emit response curves and "
                                          "stage parameter reports"))
    render = sub.add_parser("render", help="process a WAV through the model")
    common(render)
    render.add_argument("--input", required=True, help="input WAV path")
    render.add_argument("--controls", type=float, nargs="*", default=[],
                        help="normalized control values in [0,1]")
    render.add_argument("--output", default="rendered.wav",
                        help="output file name under the output dir")
    render.add_argument("--bitdepth", default="24",
                        choices=("16", "24", "float32"))
    return ap


def _setup(args):
    if args.seed is not None and args.seed < 0:
        raise ConfigError([f"--seed: expected a nonnegative integer, "
                           f"got {args.seed}"])
    cfg = load_config(args.config)
    if args.output_dir:
        cfg.output_dir = Path(args.output_dir)
    if args.seed is not None:
        cfg.train_cfg.seed = args.seed
    T.set_default_dtype(np.float64 if args.precision == "f64"
                        else np.float32)
    return cfg


def _load_splits(cfg, need: str) -> dict:
    """Segments per split; the split named by `need` must not be empty."""
    if cfg.data is None:
        raise ConfigError(["/data: required for this command"])
    try:
        manifest = D.load_manifest(cfg.data["manifest"])
        splits = D.segment(manifest, cfg.data["segment_len"],
                           cfg.data["hop"], cfg.data["fractions"],
                           cfg.data["seed"])
    except (ValueError, OSError) as e:
        raise ConfigError([f"/data/manifest: {e}"])
    if manifest.sample_rate != cfg.model_spec.sample_rate:
        raise ConfigError([f"/data/manifest: sample rate "
                           f"{manifest.sample_rate} != model rate "
                           f"{cfg.model_spec.sample_rate:g}"])
    if manifest.num_controls != cfg.model_spec.num_controls:
        raise ConfigError([f"/data/manifest: {manifest.num_controls} "
                           f"controls != model's "
                           f"{cfg.model_spec.num_controls}"])
    if not splits[need]:
        raise ConfigError([f"/data/fractions: {cfg.data['fractions']!r} "
                           f"leaves no {need} file of {len(manifest)}"])
    # what evaluate reads: train validates on val and reports on test, or
    # on train without a test file; test reports on test
    read = splits["val"] + (splits["test"] or splits["train"]) \
        if need == "train" else splits["test"]
    dt = T.default_dtype()
    for seg in read:
        try:
            L.target_energy(Tensor(np.asarray(seg.y, dtype=dt)))
        except ValueError as e:
            raise ConfigError([f"/data/manifest: entry {seg.entry_index}: "
                               f"target at offset {seg.offset}: {e}"])
    return splits


def _check_spec(cfg, spec, checkpoint_path) -> None:
    if spec.to_dict() != cfg.model_spec.to_dict():
        raise ConfigError(["/model: config does not match the model spec stored "
                           f"in {checkpoint_path}"])


def _model(cfg, checkpoint_path):
    """The checkpoint's model, or a fresh one seeded by the training seed."""
    if not checkpoint_path:
        return cfg.model_spec.build(np.random.default_rng(cfg.train_cfg.seed))
    try:
        model, spec, _ = load_checkpoint(checkpoint_path)
    except ValueError as e:
        raise ConfigError([f"--checkpoint: {e}"])
    _check_spec(cfg, spec, checkpoint_path)
    return model


def _write_metrics(path, kind: str, metrics: dict) -> None:
    with D.atomic_open(path) as f:
        f.write(",".join(METRIC_COLUMNS) + "\n")
        f.write(f"{kind}," + ",".join(f"{metrics[k]:.10g}"
                                      for k in METRIC_COLUMNS[1:]) + "\n")


def _resumed_log(path, step: int):
    """The run log already in the output directory, without its rows past
    the checkpoint's step; None when there is none."""
    if not path.exists():
        return None
    try:
        log = tr.RunLog.from_csv(path)
    except (ValueError, OSError) as e:
        raise ConfigError([f"--checkpoint: cannot continue {path}: {e}"])
    log.rows = [r for r in log.rows if r["step"] <= step]
    return log


def cmd_train(cfg, args) -> int:
    splits = _load_splits(cfg, "train")
    out = cfg.output_dir
    ckpt = out / "checkpoint.json"
    start_step, best, log = 0, np.inf, None
    if args.checkpoint:
        try:
            model, spec, optimizer, start_step, best = tr.restore_training(
                args.checkpoint, cfg.train_cfg)
        except ValueError as e:
            raise ConfigError([f"--checkpoint: {e}"])
        _check_spec(cfg, spec, args.checkpoint)
        if start_step >= cfg.train_cfg.max_steps:
            raise ConfigError([f"--checkpoint: saved step {start_step} is "
                               f"not before train.max_steps "
                               f"{cfg.train_cfg.max_steps}"])
        log = _resumed_log(out / "run_log.csv", start_step)
    else:
        model = _model(cfg, None)
        optimizer = tr.Adam(model.parameters(), cfg.train_cfg.lr,
                            cfg.train_cfg.beta1, cfg.train_cfg.beta2,
                            cfg.train_cfg.eps)
    if not model.parameters():
        raise ConfigError(["/model: the model has no trainable parameters; "
                           "nothing to train"])
    log = tr.fit(model, cfg.model_spec, splits["train"], cfg.train_cfg,
                 val_segments=splits["val"] or None,
                 log_path=out / "run_log.csv", checkpoint_path=ckpt,
                 optimizer=optimizer, start_step=start_step, best=best,
                 log=log)
    if not splits["val"] or not ckpt.exists():
        # without validation nothing else saves the final state
        tr.save_training_checkpoint(ckpt, model, cfg.model_spec, optimizer,
                                    log.rows[-1]["step"])
    final = splits["test"] or splits["train"]
    metrics = tr.evaluate(model, final, cfg.train_cfg.weights,
                          cfg.train_cfg.mrstft_cfg)
    _write_metrics(out / "metrics.csv", cfg.model_spec.kind, metrics)
    print(f"trained {log.rows[-1]['step']} steps; outputs in {out}")
    print(tr.format_table(metrics))
    return EXIT_OK


def cmd_test(cfg, args) -> int:
    model = _model(cfg, args.checkpoint)
    splits = _load_splits(cfg, "test")
    metrics = tr.evaluate(model, splits["test"], cfg.train_cfg.weights,
                          cfg.train_cfg.mrstft_cfg)
    _write_metrics(cfg.output_dir / "metrics.csv", cfg.model_spec.kind,
                   metrics)
    print(tr.format_table(metrics))
    return EXIT_OK


def cmd_analyze(cfg, args) -> int:
    model = _model(cfg, args.checkpoint)
    model.eval()
    c = None
    if cfg.model_spec.num_controls:
        c = Tensor(np.full(cfg.model_spec.num_controls, 0.5,
                           dtype=T.default_dtype()))
    curve = A.stepped_sine_response(model, cfg.sweep_cfg, c)
    A.emit_plot_data(curve, cfg.output_dir / "response_model.csv")
    A.emit_plot_data(curve, cfg.output_dir / "response_model.svg",
                     format="svg")
    written = [cfg.output_dir / "response_model.csv"]
    if isinstance(model, GrayBoxChain):
        for i, (proc, ctrl) in enumerate(zip(model.processors,
                                             model.controllers)):
            path = cfg.output_dir / f"stage_{i}_{proc.name}.csv"
            A.emit_plot_data(A.stage_report(proc, ctrl, c, cfg.sweep_cfg),
                             path)
            written.append(path)
    for p in written:
        print(p)
    return EXIT_OK


def cmd_render(cfg, args) -> int:
    try:
        x, fs = D.load_wav(args.input)
    except (ValueError, OSError) as e:
        raise ConfigError([f"--input: {e}"])
    if fs != cfg.model_spec.sample_rate:
        raise ConfigError([f"/: input rate {fs} != model rate "
                           f"{cfg.model_spec.sample_rate:g}"])
    controls = list(args.controls)
    if len(controls) != cfg.model_spec.num_controls:
        raise ConfigError([f"/: got {len(controls)} controls, model takes "
                           f"{cfg.model_spec.num_controls}"])
    if any(not 0.0 <= v <= 1.0 for v in controls):
        raise ConfigError(["/: controls must lie in [0, 1]"])
    model = _model(cfg, args.checkpoint)
    model.eval()
    c = Tensor(np.asarray(controls, dtype=T.default_dtype())) \
        if controls else None
    y = render(model, x, c, np.empty(len(x)))
    out_path = cfg.output_dir / args.output
    depth = args.bitdepth if args.bitdepth == "float32" else int(args.bitdepth)
    D.save_wav(out_path, y, fs, bitdepth=depth)
    print(out_path)
    return EXIT_OK


_COMMANDS = {"train": cmd_train, "test": cmd_test, "analyze": cmd_analyze,
             "render": cmd_render}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    dtype = T.default_dtype()
    try:
        cfg = _setup(args)
        return _COMMANDS[args.command](cfg, args)
    except ConfigError as e:
        print(e, file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as e:  # noqa: BLE001 - boundary: report, don't crash
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        T.set_default_dtype(dtype)


if __name__ == "__main__":
    sys.exit(main())
