"""One workload run: set-up, train, render, analyze, and output checks.

Every step, validation, render and analyze call is an operation. An
operation fails when it raises, exits nonzero, skips its update, yields
a non-finite value, or fails an output check. The run is correct only
when no operation fails.
"""

from __future__ import annotations

import contextlib
import io
import math
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from statistics import median, quantiles

import numpy as np

import gradfx.cli as cli
import gradfx.config as config
import gradfx.data as D
import gradfx.models as M
import gradfx.training as tr
from gradfx.tensor import Tensor

import corpus as corpus_mod
import spans as S

FS = corpus_mod.FS


class Ops:
    """Attempted operations and the reasons of those that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, kind: str, problem: str | None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{kind}: {problem}")


def setup_once(config_path: Path):
    """What `gradfx train` does before its first step; returns seconds."""
    t0 = time.perf_counter()
    cfg = config.load_config(config_path)
    manifest = D.load_manifest(cfg.data["manifest"])
    D.segment(manifest, cfg.data["segment_len"], cfg.data["hop"],
              cfg.data["fractions"], cfg.data["seed"])
    model = cfg.model_spec.build(np.random.default_rng(cfg.train_cfg.seed))
    tc = cfg.train_cfg
    tr.Adam(model.parameters(), tc.lr, tc.beta1, tc.beta2, tc.eps)
    return time.perf_counter() - t0


def run_cli(argv) -> tuple[int, str]:
    """Run a gradfx command in this process; returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        rc = cli.main([str(a) for a in argv])
    return rc, err.getvalue().strip()


def step_problem(rec) -> str | None:
    extra = rec[S.EXTRA]
    if extra is None or "error" in (extra or {}):
        return (extra or {}).get("error", "no result")
    if not math.isfinite(extra["loss"]):
        return f"non-finite loss {extra['loss']}"
    if extra["applied"] != extra["attempted"]:
        return f"{extra['attempted'] - extra['applied']} update(s) skipped"
    return None


def eval_problem(rec) -> str | None:
    extra = rec[S.EXTRA]
    if extra is None or "error" in extra:
        return (extra or {}).get("error", "no result")
    bad = [k for k, v in extra["metrics"].items() if not math.isfinite(v)]
    return f"non-finite {bad}" if bad else None


def esr_problem(model, val_segments, pairs, val_esr) -> str | None:
    """Recompute the validation ESR from the benchmark's own copy of the
    audio and an f64 numpy formula; it must match `fit`'s to 1e-5."""
    model.eval()
    ratios = []
    for seg in val_segments:
        x_all, y_all, controls = pairs[seg.entry_index]
        sl = slice(seg.offset, seg.offset + len(seg.x))
        x, y = x_all[sl], y_all[sl].astype(np.float64)
        if not (np.array_equal(seg.x, x) and np.array_equal(seg.y, y_all[sl])):
            return f"segment of entry {seg.entry_index} decoded wrongly"
        c = Tensor(np.asarray(controls, dtype=np.float32)) if controls \
            else None
        y_hat = np.asarray(model.forward(Tensor(x), c, None)[0].data,
                           dtype=np.float64)
        ratios.append(np.sum((y - y_hat) ** 2) / np.sum(y ** 2))
    mine = float(np.mean(ratios))
    if not (math.isfinite(val_esr) and abs(mine - val_esr) <= 1e-5 * val_esr):
        return f"val_esr {val_esr!r} but recomputed {mine!r}"
    return None


def render_problem(path: Path, reference: np.ndarray) -> str | None:
    """A float32 render must equal an in-process forward bit for bit."""
    try:
        got = corpus_mod.read_float32_wav(path)
    except (OSError, ValueError) as e:
        return str(e)
    if not np.all(np.isfinite(got)):
        return "non-finite samples"
    if got.shape != reference.shape or not np.array_equal(got, reference):
        return "differs from the in-process forward of the checkpoint"
    return None


def csv_problem(path: Path) -> str | None:
    """Exists, has at least one value, and every numeric cell is finite."""
    if not path.is_file():
        return f"{path.name} missing"
    values = []
    for line in path.read_text().splitlines()[1:]:
        cells = line.split(",")
        for k, cell in enumerate(cells):
            try:
                values.append(float(cell))
            except ValueError:
                if k:  # only a leading label column may be text
                    return f"{path.name}: bad cell {cell!r}"
    if not values or not all(math.isfinite(v) for v in values):
        return f"{path.name}: empty or non-finite"
    return None


def analyze_problems(out_dir: Path, wl) -> list:
    files = [out_dir / "response_model.csv"]
    if wl.model["kind"] == "graybox":
        files += [out_dir / f"stage_{i}_{st['processor']}.csv"
                  for i, st in enumerate(wl.model["graybox"]["stages"])]
    return [p for p in (csv_problem(f) for f in files) if p]


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import gradfx.cli; "
                "print(time.perf_counter() - t)")


def import_once(src: Path) -> float:
    """Seconds a fresh interpreter takes to import gradfx (numpy too)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout)


def run_workload(wl, seed: int, seconds: float, traced: bool,
                 workdir: Path, src: Path) -> dict:
    """Run every phase of `wl`; returns metrics, counts and the trace."""
    data = corpus_mod.make_corpus(workdir / "corpus", wl, seed)
    out_dir = data.root / "out"
    ckpt = out_dir / "checkpoint.json"
    ops = Ops()
    imports = [import_once(src) for _ in range(wl.setup_reps)]
    tracer = S.Tracer(layers=traced)
    try:
        setups = [setup_once(data.config) for _ in range(wl.setup_reps)]

        # train: `gradfx train` runs fit with validation and a checkpoint
        rc, err = run_cli(["train", "--config", data.config])
        fits = tracer.find("training.fit")
        if rc != 0 or not fits or "log" not in (fits[-1][S.EXTRA] or {}):
            raise RuntimeError(f"gradfx train failed: exit {rc}: {err}")
        fit = fits[-1]
        fit_idx = tracer.spans.index(fit)
        log = fit[S.EXTRA]["log"]
        model, _spec, train_segs, cfg = fit[S.EXTRA]["args"][:4]
        kw = fit[S.EXTRA]["kwargs"]
        fit_steps = [s for s in tracer.find(S.STEP_SPAN)
                     if s[S.PARENT] == fit_idx]
        for s in fit_steps:
            ops.record("train step", step_problem(s))
        for s in tracer.find("training.evaluate"):
            ops.record("validation", eval_problem(s))
        val_esr = log.rows[-1].get("val_esr", float("nan"))
        with tracer.paused():
            ops.record("val_esr check", esr_problem(
                model, kw["val_segments"], data.pairs, val_esr))
            ref_model, _, _ = M.load_checkpoint(ckpt)
            ref_model.eval()
            c = Tensor(np.asarray(data.render_controls, dtype=np.float32)) \
                if data.render_controls else None
            reference = np.asarray(
                ref_model.forward(Tensor(data.render_x), c)[0].data,
                dtype=np.float32)

        # Rounds of: more train steps (continuing fit's batch schedule), one
        # render, one analyze. Spreading each metric's samples over the
        # whole run keeps a minute-long slowdown of the shared machine
        # from landing on one metric only. Steps run until `seconds` of
        # step time (fit's included) are sampled. A traced run alternates
        # tracing on and off between steps to measure its own overhead.
        step_fn = tr.tbptt_train_step if cfg.tbptt else tr.train_step
        optimizer = kw["optimizer"]
        k = cfg.max_steps

        def next_batch():
            idx = tr.batch_indices(cfg.seed, k, len(train_segs),
                                   cfg.batch_size)
            return train_segs[idx[0]] if cfg.tbptt \
                else [train_segs[i] for i in idx]

        steps = fit_steps[1:]  # the first step also warms caches
        traced_ids = [s[S.STEP] for s in fit_steps]
        untraced = []
        sampled = sum(s[S.END] - s[S.START] for s in fit_steps)
        controls = ["--controls", *data.render_controls] \
            if data.render_controls else []
        render_times, analyze_times = [], []
        for r in range(1, wl.rounds + 1):
            while (len(steps) < wl.min_steps * r / wl.rounds
                   or sampled < seconds * r / wl.rounds) \
                    and len(steps) < 50 * wl.min_steps:
                k += 1
                layers_on = traced and k % 2 == 0
                tracer.set_layers(layers_on)
                try:
                    step_fn(model, next_batch(), optimizer, cfg)
                except Exception:  # noqa: BLE001 - counted by step_problem
                    pass
                rec = tracer.find(S.STEP_SPAN)[-1]
                sampled += rec[S.END] - rec[S.START]
                ops.record("train step", step_problem(rec))
                if not traced or layers_on:
                    steps.append(rec)
                    traced_ids.append(rec[S.STEP])
                else:
                    untraced.append(rec)
            tracer.set_layers(traced)

            # `gradfx render` to float32, checked against the forward
            out = out_dir / f"render_{r}.wav"
            t0 = time.perf_counter()
            rc, err = run_cli(["render", "--config", data.config,
                               "--checkpoint", ckpt, "--input",
                               data.render_input, "--output", out.name,
                               "--bitdepth", "float32", *controls])
            render_times.append(time.perf_counter() - t0)
            ops.record("render", f"exit {rc}: {err}" if rc
                       else render_problem(out, reference))

            # `gradfx analyze` on the checkpoint, small fixed sweep
            t0 = time.perf_counter()
            rc, err = run_cli(["analyze", "--config", data.config,
                               "--checkpoint", ckpt])
            analyze_times.append(time.perf_counter() - t0)
            problems = [f"exit {rc}: {err}"] if rc else \
                analyze_problems(out_dir, wl)
            ops.record("analyze", "; ".join(problems) or None)

        # peak traced memory of one more step, outside the timed steps
        k += 1
        with tracer.paused():
            tracemalloc.start()
            try:
                res = step_fn(model, next_batch(), optimizer, cfg)
                peak = tracemalloc.get_traced_memory()[1]
                problem = None if math.isfinite(res["loss_tot"]) \
                    else "non-finite loss"
            except Exception as e:  # noqa: BLE001 - counted as a failure
                peak, problem = float("nan"), f"{type(e).__name__}: {e}"
            finally:
                tracemalloc.stop()
        ops.record("peak-memory step", problem)
    finally:
        tracer.close()

    durs = [s[S.END] - s[S.START] for s in steps]
    # fit's wall time with each step's time replaced by the run's median
    # step time, so that a few descheduled steps do not swing throughput
    fit_durs = [s[S.END] - s[S.START] for s in fit_steps]
    fit_s = fit[S.END] - fit[S.START] - sum(fit_durs) \
        + len(fit_durs) * median(durs)
    audio_s = sum(s[S.EXTRA]["audio"] for s in fit_steps) / FS
    metrics = {
        "setup_s": (median(imports) + median(setups), "s"),
        "train_step_p50_ms": (1e3 * median(durs), "ms"),
        "train_audio_per_s": (audio_s / fit_s, "audio_s/s"),
        "val_esr": (val_esr, "ratio"),
        "train_peak_mb": (peak / 1e6, "MB"),
        "render_rtf": (wl.render_seconds / median(render_times),
                       "audio_s/s"),
        "analyze_s": (median(analyze_times), "s"),
        "error_rate": (len(ops.failures) / ops.attempted, "fraction"),
    }
    if len(durs) >= 100:  # at least ten samples beyond the p90
        metrics["train_step_p90_ms"] = (
            1e3 * quantiles(durs, n=10)[-1], "ms")
    counts = {"setup_s": len(setups), "train_step_p50_ms": len(durs),
              "train_step_p90_ms": len(durs),
              "render_rtf": len(render_times),
              "analyze_s": len(analyze_times),
              "train_audio_per_s": len(fit_steps)}
    result = {"metrics": metrics, "counts": counts, "ops": ops}
    if traced:
        result["layers"] = S.layer_table(tracer, traced_ids)
        result["trace"] = tracer
        extra = [s for s in steps if s[S.PARENT] != fit_idx]
        if untraced and extra:
            result["overhead_ms"] = 1e3 * (
                median(s[S.END] - s[S.START] for s in extra)
                - median(s[S.END] - s[S.START] for s in untraced))
            result["overhead_counts"] = (len(extra), len(untraced))
    return result
