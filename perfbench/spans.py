"""Outside-in tracing: spans around calls into gradfx's public API.

Nothing under src/ is edited. `Tracer` replaces public functions and
methods of each gradfx layer with wrappers that record a span (name,
start, end, parent span, train-step id, phase) and puts the originals
back on `close()`. Spans stay in memory until the run ends.

Two sets of wrappers exist. The step set (train steps, `fit`,
`evaluate`) is installed in every run, because the end-to-end metrics
are read from it. The layer set covers every other layer and is
installed only in a traced run; its cost is the tracing overhead.

A span's phase says what the work was for: `train` (a tape is
recording), `warmup` (untaped forward inside a train step, as in the
truncated-BPTT warm-up), `eval`, `render`, `analyze`, or `train_cmd`
(the glue of `gradfx train` outside the steps).
"""

from __future__ import annotations

import os
import sys
import time
from contextlib import contextmanager
from statistics import median

import gradfx.analysis as A
import gradfx.cli as cli
import gradfx.conditioning as cond
import gradfx.config as config
import gradfx.controllers as C
import gradfx.data as D
import gradfx.losses as L
import gradfx.models as M
import gradfx.nn as nn
import gradfx.processors as P
import gradfx.tensor as T
import gradfx.training as tr

# span record fields
NAME, START, END, PARENT, STEP, PHASE, EXTRA = range(7)

STEP_SPAN = "training.step"


def _eq_name(args, kwargs):
    g01 = args[2] if len(args) > 2 else kwargs.get("g01")
    return ("processors.eq_block" if g01 is not None and g01.data.ndim == 2
            else "processors.eq_static")


def _cli_phase(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return {"train": "train_cmd"}.get(argv[0], argv[0])


# (owner, attribute, span name or name function, explicit phase)
STEP_SET = [
    (tr, "train_step", STEP_SPAN, "train"),
    (tr, "tbptt_train_step", STEP_SPAN, "train"),
    (tr, "fit", "training.fit", "train_cmd"),
    (tr, "evaluate", "training.evaluate", "eval"),
]

LAYER_SET = [
    (cli, "main", "cli.main", _cli_phase),
    (config, "load_config", "config.load", None),
    (D, "segment", "data.segment", None),
    (D, "load_wav", "data.wav_read", None),
    (D, "save_wav", "data.wav_write", None),
    (tr.Adam, "step", "training.adam", None),
    (tr, "save_training_checkpoint", "training.checkpoint", None),
    (T.Tape, "backward", "tensor.backward", None),
    (L, "l1", "losses.l1", None),
    (L, "mrstft", "losses.mrstft", None),
    (M.LSTMModel, "forward", "models.forward", None),
    (M.TCN, "forward", "models.forward", None),
    (M.GrayBoxChain, "forward", "models.forward", None),
    (P.ParametricEQ, "apply", _eq_name, None),
    (P.Gain, "apply", "processors.gain_offset", None),
    (P.DCOffset, "apply", "processors.gain_offset", None),
    (P.RationalNL, "apply", "processors.waveshaper", None),
    (C.StaticController, "forward", "controllers.static", None),
    (C.DynamicController, "forward", "controllers.dynamic", None),
    (cond.FiLM, "latent", "conditioning.film", None),
    (cond.FiLM, "modulate", "conditioning.film", None),
    (nn.Conv1d, "forward", "nn.conv1d", None),
    (nn.LSTM, "forward", "nn.lstm", None),
    (A, "stepped_sine_response", "analysis.stepped_sine", None),
    (A, "amplitude_response", "analysis.stage_report", None),
    (A, "time_trace", "analysis.stage_report", None),
    (P, "frequency_response", "analysis.stage_report", None),
]


def _modules():
    return [m for k, m in sys.modules.items()
            if (k == "gradfx" or k.startswith("gradfx.")) and m is not None]


class Tracer:
    """Span recorder that patches gradfx entry points while it is open."""

    def __init__(self, layers: bool):
        self.spans = []
        self.step = None
        self.steps = 0
        self._stack = []
        self._paused = 0
        self._patches = {"step": [], "layer": []}
        self._install("step", STEP_SET)
        if layers:
            self.set_layers(True)

    # -- patching -----------------------------------------------------------

    def _install(self, group, table):
        for owner, attr, name, phase in table:
            if isinstance(owner, type):
                orig = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(orig, name, phase))
                self._patches[group].append((owner, attr, orig))
                continue
            # a function is replaced wherever gradfx bound it, so calls
            # through `from .x import f` names are seen too
            orig = getattr(owner, attr)
            wrapped = self._wrap(orig, name, phase)
            for mod in _modules():
                if mod.__dict__.get(attr) is orig:
                    setattr(mod, attr, wrapped)
                    self._patches[group].append((mod, attr, orig))

    def _uninstall(self, group):
        for owner, attr, orig in reversed(self._patches[group]):
            setattr(owner, attr, orig)
        self._patches[group] = []

    def set_layers(self, on: bool):
        if on and not self._patches["layer"]:
            self._install("layer", LAYER_SET)
        elif not on:
            self._uninstall("layer")

    def close(self):
        self._uninstall("layer")
        self._uninstall("step")

    @contextmanager
    def paused(self):
        """Calls made here (output checks) record nothing."""
        self._paused += 1
        try:
            yield
        finally:
            self._paused -= 1

    # -- recording ----------------------------------------------------------

    def _wrap(self, fn, name, phase):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._paused:
                return fn(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            if callable(phase):
                ph = phase(args, kwargs)
            elif phase is not None:
                ph = phase
            elif T.active_tape() is not None:
                ph = "train"
            elif tracer._stack:
                ph = tracer.spans[tracer._stack[-1]][PHASE]
                ph = "warmup" if ph == "train" else ph
            else:
                ph = "other"
            opens_step = span_name == STEP_SPAN and tracer.step is None
            if opens_step:
                tracer.steps += 1
                tracer.step = tracer.steps
            rec = [span_name, 0.0, 0.0,
                   tracer._stack[-1] if tracer._stack else None,
                   tracer.step, ph, None]
            idx = len(tracer.spans)
            tracer.spans.append(rec)
            tracer._stack.append(idx)
            rec[START] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except BaseException as e:
                rec[EXTRA] = {"error": f"{type(e).__name__}: {e}"}
                raise
            finally:
                rec[END] = time.perf_counter()
                tracer._stack.pop()
                if opens_step:
                    tracer.step = None
            rec[EXTRA] = tracer._extra(span_name, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    @staticmethod
    def _extra(name, args, kwargs, out):
        """Counts taken at the boundary where the work happens."""
        if name == STEP_SPAN:
            if "updates" in out:  # truncated BPTT: one update per chunk
                seg, cfg = args[1], args[3]
                chunks = (len(seg.x) - cfg.warmup_len) // cfg.chunk_len
                return {"attempted": chunks, "applied": out["updates"],
                        "audio": out["updates"] * cfg.chunk_len,
                        "loss": out["loss_tot"]}
            batch = args[1]
            return {"attempted": 1, "applied": int(out["applied"]),
                    "audio": int(out["applied"]) * sum(len(s.x) for s in batch),
                    "loss": out["loss_tot"]}
        if name == "tensor.backward":
            return {"nodes": len(args[0].nodes)}
        if name == "training.checkpoint":
            return {"bytes": os.path.getsize(args[0])}
        if name == "training.fit":
            return {"log": out, "args": args, "kwargs": kwargs}
        if name == "training.evaluate":
            return {"metrics": out}
        return None

    # -- queries ------------------------------------------------------------

    def find(self, name):
        return [s for s in self.spans if s[NAME] == name]

    def self_times(self):
        """Span index -> duration minus the durations of its children."""
        out = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] is not None:
                out[s[PARENT]] -= s[END] - s[START]
        return out

    def descendants(self, root):
        """Indices of `root` and every span opened inside it."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][PARENT] in inside:
                inside.add(i)
        return sorted(inside)

    def dump(self):
        return [[s[NAME], s[START], s[END], s[PARENT], s[STEP], s[PHASE]]
                for s in self.spans]


# -- per-layer table ----------------------------------------------------------

# metric -> (span name, phase, how). "step": sum of self time in each
# traced train step, median over steps. "update": the same divided by the
# updates attempted in the step. "call": self time per call. "incl":
# duration per call, children included. "command": sum of self time in
# each render or analyze command, median over commands; "command_incl":
# the same with children included.
LAYER_METRICS = {
    "models.forward.train_ms": ("models.forward", "train", "step"),
    "models.forward.render_ms": ("models.forward", "render", "command"),
    "processors.eq_static.train_ms": ("processors.eq_static", "train", "step"),
    "processors.eq_static.render_ms": ("processors.eq_static", "render",
                                       "command"),
    "processors.eq_block.train_ms": ("processors.eq_block", "train", "step"),
    "processors.eq_block.render_ms": ("processors.eq_block", "render",
                                      "command"),
    "processors.waveshaper.train_ms": ("processors.waveshaper", "train",
                                       "step"),
    "processors.waveshaper.render_ms": ("processors.waveshaper", "render",
                                        "command"),
    "processors.gain_offset.train_ms": ("processors.gain_offset", "train",
                                        "step"),
    "controllers.dynamic.train_ms": ("controllers.dynamic", "train", "step"),
    "controllers.dynamic.render_ms": ("controllers.dynamic", "render",
                                      "command"),
    "controllers.static.train_ms": ("controllers.static", "train", "step"),
    "conditioning.film.train_ms": ("conditioning.film", "train", "step"),
    "nn.conv1d.train_ms": ("nn.conv1d", "train", "step"),
    "nn.conv1d.render_ms": ("nn.conv1d", "render", "command"),
    "nn.lstm.train_ms": ("nn.lstm", "train", "step"),
    "nn.lstm.warmup_ms": ("nn.lstm", "warmup", "step"),
    "nn.lstm.render_ms": ("nn.lstm", "render", "command"),
    "losses.mrstft_ms": ("losses.mrstft", "train", "update"),
    "losses.l1_ms": ("losses.l1", "train", "update"),
    "tensor.backward_ms": ("tensor.backward", "train", "call"),
    "training.adam_ms": ("training.adam", "train", "call"),
    "training.step_self_ms": (STEP_SPAN, "train", "call"),
    "training.evaluate_ms": ("training.evaluate", "eval", "incl"),
    "training.checkpoint_ms": ("training.checkpoint", None, "incl"),
    "data.segment_ms": ("data.segment", None, "call"),
    "data.wav_read_ms": ("data.wav_read", None, "call"),
    "data.wav_write_ms": ("data.wav_write", None, "call"),
    "config.load_ms": ("config.load", None, "call"),
    "cli.train_self_ms": ("cli.main", "train_cmd", "call"),
    "cli.render_self_ms": ("cli.main", "render", "call"),
    "analysis.stepped_sine_ms": ("analysis.stepped_sine", "analyze", "incl"),
    "analysis.stage_report_ms": ("analysis.stage_report", "analyze",
                                 "command_incl"),
}


def layer_table(tr_: Tracer, step_ids) -> dict:
    """Per-layer metrics from the traced steps `step_ids` and commands.

    A metric whose layer never ran in this workload is left out.
    """
    spans = tr_.spans
    selft = tr_.self_times()
    step_ids = set(step_ids)
    attempted = {}
    for s in spans:
        if s[NAME] == STEP_SPAN and s[STEP] in step_ids \
                and "attempted" in (s[EXTRA] or {}):
            attempted[s[STEP]] = s[EXTRA]["attempted"]
    commands = {}
    for i, s in enumerate(spans):
        if s[NAME] == "cli.main" and s[PHASE] in ("render", "analyze"):
            for j in tr_.descendants(i):
                commands[j] = i
    out = {}
    for metric, (name, phase, how) in LAYER_METRICS.items():
        hits = [i for i, s in enumerate(spans) if s[NAME] == name
                and (phase is None or s[PHASE] == phase)]
        if how in ("step", "update"):
            hits = [i for i in hits if spans[i][STEP] in attempted]
        if not hits:
            continue
        if how in ("step", "update"):
            per = dict.fromkeys(attempted, 0.0)
            for i in hits:
                per[spans[i][STEP]] += selft[i]
            if how == "update":
                per = {k: v / max(attempted[k], 1) for k, v in per.items()}
            vals = list(per.values())
        elif how in ("command", "command_incl"):
            per = {}
            for i in hits:
                key = commands.get(i)
                if key is not None:
                    t = selft[i] if how == "command" \
                        else spans[i][END] - spans[i][START]
                    per[key] = per.get(key, 0.0) + t
            vals = list(per.values())
        elif how == "incl":
            vals = [spans[i][END] - spans[i][START] for i in hits]
        else:
            vals = [selft[i] for i in hits]
        if vals:
            out[metric] = (1e3 * median(vals), "ms")
    backs = [s[EXTRA]["nodes"] for s in spans
             if s[NAME] == "tensor.backward" and s[STEP] in step_ids
             and "nodes" in (s[EXTRA] or {})]
    if backs:
        out["tensor.tape_nodes"] = (median(backs), "count")
    ck = [s[EXTRA]["bytes"] for s in spans
          if s[NAME] == "training.checkpoint" and "bytes" in (s[EXTRA] or {})]
    if ck:
        out["training.checkpoint_bytes"] = (median(ck), "bytes")
    steps = [s[EXTRA] for s in spans
             if s[NAME] == STEP_SPAN and "attempted" in (s[EXTRA] or {})]
    if steps:
        out["training.applied_ratio"] = (
            sum(e["applied"] for e in steps)
            / max(sum(e["attempted"] for e in steps), 1), "ratio")
    return out
