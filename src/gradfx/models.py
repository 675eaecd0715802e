"""Model assembly.

Black boxes: a recurrent model (LSTM -> linear -> tanh) and two causal
convolutional models (TCN with plain blocks, GCN with gated blocks),
each optionally conditioned on a control vector. Gray boxes: ordered
chains of DSP processors, each stage driven by a controller that emits
its normalized parameters.

Every model exposes forward(x, c, state) -> (y, state) over 1-D float
signals so the training loop does not care which family it holds. The
state holds everything a model remembers of the signal (recurrent
states, conv inputs, filter histories); None is the zero state. Pieces
of a signal fed in order with the state carried give the output of one
call when every split point is a multiple of the model's `stream_unit`
(its control block, 1 when it has none); bit for bit when the split
points are also multiples of RENDER_ALIGN, the blocks the kernels work
in. Beside `stream_unit`, each model has a `receptive_field`: how many
past input samples, the current one included, one output sample can
depend on in eval mode, or None when that is unbounded (recurrent
states, IIR filters, temporal conditioners, training-mode batch norm).

`render` runs a whole file in chunks of bounded size. A model with a
bounded receptive field (TCN and GCN without a conditioner or with FiLM,
in eval mode) renders independent pieces from zero state, each call
starting a lead of at least `receptive_field - 1` samples early on the
kernels' grid, on one worker thread per available CPU when BLAS runs a
call on one thread; otherwise the chunks stream in order with the state
carried. Either way the output equals one call bit for bit, and memory
is bounded by one chunk per thread.
"""

from __future__ import annotations

import base64
import ctypes
import json
import math
import os
import threading

import numpy as np

from . import conditioning as cond
from . import controllers as ctrl
from . import nn
from . import processors as proc
from . import tensor as T
from .data import _is_number, atomic_open
from .tensor import Tensor

COND_MODES = ("none", "film", "tfilm", "ttfilm", "tvfilm")
# Samples a control block or a receptive field may span, and a sweep may
# render in all: about 23 min at 48 kHz. A forward pads a signal to whole
# blocks and a conv's input by its context, so neither may grow unbounded.
MAX_SAMPLES = 2 ** 26


# JSON-value rules: (check on the value, what it must hold)
_COUNT = (lambda v: type(v) is int and v >= 1, "an integer >= 1")
_NATURAL = (lambda v: type(v) is int and v >= 0, "a nonnegative integer")
_POSITIVE = (lambda v: _is_number(v) and v > 0, "a number > 0")


def _check(rule, name: str, v) -> None:
    if not rule[0](v):
        raise ValueError(f"{name} must be {rule[1]}, got {v!r}")


def _check_span(name: str, n: int) -> None:
    if n > MAX_SAMPLES:
        raise ValueError(f"{name} of {n} samples exceeds the limit of "
                         f"{MAX_SAMPLES} samples")


def _check_keys(name: str, d, known) -> None:
    """Raise unless d is an object whose every key is in known."""
    if not isinstance(d, dict):
        raise ValueError(f"{name} section must be an object, got {d!r}")
    for key in d:
        if key not in known:
            raise ValueError(f"unknown {name} field {key!r}")


def receptive_field(blocks: int, kernel: int, growth: int) -> int:
    """Past samples influencing one output sample of a dilated conv stack."""
    if blocks < 1 or kernel < 1 or growth < 1:
        raise ValueError("blocks, kernel and growth must all be >= 1")
    return 1 + (kernel - 1) * sum(growth ** i for i in range(blocks))


# -- recurrent ---------------------------------------------------------------

# The fields of an lstm section and their defaults, which LSTMModel takes
LSTM_DEFAULTS = {"hidden": 32, "cond_mode": "none", "block_size": 128,
                 "tvcond_latent": 16}


def _check_lstm(num_controls: int, cfg: dict) -> None:
    """The rules of an lstm section, shared by ModelSpec and LSTMModel."""
    _check_keys("lstm", cfg, LSTM_DEFAULTS)
    for key, v in cfg.items():
        if key == "cond_mode":
            if v not in ("none", "concat", "tvcond"):
                raise ValueError(f"unknown cond_mode {v!r}")
            if v != "none" and num_controls < 1:
                raise ValueError("conditioned model needs num_controls >= 1")
        else:
            _check(_COUNT, f"lstm {key}", v)
            if key == "block_size":
                _check_span("lstm block_size", v)


class LSTMModel(nn.Module):
    """Single LSTM layer, linear projection, tanh. No residual path.

    cond_mode "concat" appends the control vector to every input sample;
    "tvcond" appends a learned time-varying sequence derived from the
    input signal and controls.
    """

    receptive_field = None

    def __init__(self, num_controls: int = 0,
                 hidden: int = LSTM_DEFAULTS["hidden"],
                 cond_mode: str = LSTM_DEFAULTS["cond_mode"],
                 rng: np.random.Generator | None = None,
                 block_size: int = LSTM_DEFAULTS["block_size"],
                 tvcond_latent: int = LSTM_DEFAULTS["tvcond_latent"]):
        _check_lstm(num_controls, {"hidden": hidden, "cond_mode": cond_mode,
                                   "block_size": block_size,
                                   "tvcond_latent": tvcond_latent})
        rng = rng if rng is not None else np.random.default_rng()
        self.cond_mode = cond_mode
        self.num_controls = num_controls
        input_dim = 1
        if cond_mode == "concat":
            input_dim += num_controls
        elif cond_mode == "tvcond":
            self.generator = cond.TVCond(num_controls, rng, block_size,
                                         tvcond_latent)
            input_dim += tvcond_latent
        self.lstm = nn.LSTM(input_dim, hidden, rng)
        self.out = nn.Linear(hidden, 1, rng)

    @property
    def stream_unit(self) -> int:
        return self.generator.block_size if self.cond_mode == "tvcond" else 1

    def forward(self, x: Tensor, c: Tensor | None = None, state=None):
        """x [T], or B signals [B, T] sharing the controls c (inference
        only) -> (y of x's shape, state)."""
        lstm_state, gen_state = state if state is not None else (None, None)
        feats = ctrl.time_major(x)
        if self.cond_mode == "concat":
            feats = ctrl.append_controls(feats, c, self.num_controls)
        elif self.cond_mode == "tvcond":
            z, gen_state = self.generator.generate(x, c, gen_state)
            feats = T.concat([feats, z], axis=-1)
        hs, lstm_state = self.lstm(feats, lstm_state)
        if x.data.ndim == 2:
            hs = T.transpose(hs, (1, 0, 2))  # [B, T, H]: one GEMV per signal
        y = T.reshape(self.out(hs), x.data.shape)
        return T.tanh(y), (lstm_state, gen_state)


# -- convolutional -----------------------------------------------------------

class TCNConfig:
    """Shape of a dilated conv stack: blocks, kernel, growth, channels."""

    def __init__(self, blocks: int = 5, kernel: int = 7,
                 dilation_growth: int = 4, channels: int = 16,
                 cond: str = "none", batchnorm: bool = False):
        for key, v in (("blocks", blocks), ("kernel", kernel),
                       ("dilation_growth", dilation_growth),
                       ("channels", channels)):
            _check(_COUNT, key, v)
        if cond not in COND_MODES:
            raise ValueError(f"cond must be one of {COND_MODES}")
        if type(batchnorm) is not bool:
            raise ValueError(f"batchnorm must be true or false, got {batchnorm!r}")
        _check_span(f"receptive field (blocks {blocks}, kernel {kernel}, "
                    f"dilation_growth {dilation_growth})",
                    receptive_field(blocks, kernel, dilation_growth))
        self.blocks = blocks
        self.kernel = kernel
        self.dilation_growth = dilation_growth
        self.channels = channels
        self.cond = cond
        self.batchnorm = batchnorm

    @property
    def receptive_field(self) -> int:
        return receptive_field(self.blocks, self.kernel, self.dilation_growth)

    def to_dict(self) -> dict:
        return {"blocks": self.blocks, "kernel": self.kernel,
                "dilation_growth": self.dilation_growth,
                "channels": self.channels, "cond": self.cond,
                "batchnorm": self.batchnorm}

    @classmethod
    def from_dict(cls, d: dict, name: str = "tcn") -> "TCNConfig":
        """The section d of a `name` (tcn or gcn) model."""
        _check_keys(name, d, cls().to_dict())
        return cls(**d)


_CONDITIONERS = {"film": cond.FiLM, "tfilm": cond.TFiLM,
                 "ttfilm": cond.TTFiLM, "tvfilm": cond.TVFiLM}


class _ConvStack(nn.Module):
    """The block loop TCN and GCN share: conv list, norms, conditioner.

    Each block runs shortcut (first block only), conv, norm, activation
    (gated tanh * sigmoid before the modulation for GCN, tanh after it
    for TCN), modulation and the residual add. The conditioner, if any,
    computes its context z once per call and modulates every block. The
    state is (conditioner state, each conv's last context_len inputs).
    """

    def __init__(self, cfg: TCNConfig, num_controls: int, rng, gate: bool):
        self.cfg = cfg
        self.gate = gate
        ch = cfg.channels
        out_mult = 2 if gate else 1
        self.convs = []
        in_ch = 1
        for i in range(cfg.blocks):
            dil = cfg.dilation_growth ** i
            self.convs.append(nn.Conv1d(in_ch, ch * out_mult, cfg.kernel,
                                        rng, dilation=dil))
            in_ch = ch
        # shortcut only where channel counts differ (the input block)
        self.shortcut = nn.Conv1d(1, ch, 1, rng)
        self.norms = ([nn.BatchNorm1d(ch * out_mult) for _ in range(cfg.blocks)]
                      if cfg.batchnorm else None)
        make = _CONDITIONERS.get(cfg.cond)
        self.conditioner = (make(num_controls, ch, cfg.blocks, rng)
                            if make is not None else None)

    @property
    def stream_unit(self) -> int:
        return getattr(self.conditioner, "block_size", 1)

    @property
    def receptive_field(self) -> int | None:
        """The convolutions' receptive field, unless a temporal conditioner
        or training-mode batch norm lets each output see the whole call."""
        if (self.cfg.cond not in ("none", "film")
                or self.norms is not None and self.training):
            return None
        return self.cfg.receptive_field

    def forward(self, x: Tensor, c: Tensor | None, state):
        """Returns (last block's output, every block's activation when
        gated, else [], state). Under a tape the state keeps no conv
        contexts, which no taped caller carries (truncated BPTT trains
        LSTM models only), and cannot be passed back in."""
        ch = self.cfg.channels
        h = T.reshape(x, (1, x.data.shape[-1]))
        cond_state, contexts = (state if state is not None
                                else (None, [None] * len(self.convs)))
        if contexts is None:
            raise ValueError("a taped forward's state keeps no conv contexts")
        conditioner = self.conditioner
        if conditioner is not None:
            z, cond_state = conditioner.latents(x, c, cond_state)
        acts = []
        after = [] if T.active_tape() is None else None
        for k, conv in enumerate(self.convs):
            residual = self.shortcut(h) if k == 0 else h
            if after is not None:
                after.append(T.last_samples(contexts[k], h.data,
                                            conv.context_len))
            h = conv(h, contexts[k])
            if self.norms is not None:
                h = self.norms[k](h)
            if self.gate:
                h = T.mul(T.tanh(h[0:ch]), T.sigmoid(h[ch:2 * ch]))
            if conditioner is not None:
                h = conditioner.modulate(k, h, z)
            if not self.gate:
                h = T.tanh(h)
            if self.gate:
                acts.append(h)
            h = T.add(h, residual)
        return h, acts, (cond_state, after)


class TCN(nn.Module):
    """Causal dilated conv stack with residual blocks and a 1x1 mixer over
    the last block's output, or over every block's output when `gated`."""

    gated = False

    def __init__(self, cfg: TCNConfig, num_controls: int = 0,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng()
        self.stack = _ConvStack(cfg, num_controls, rng, gate=self.gated)
        self.mixer = nn.Conv1d(cfg.channels * (cfg.blocks if self.gated
                                               else 1), 1, 1, rng)

    @property
    def stream_unit(self) -> int:
        return self.stack.stream_unit

    @property
    def receptive_field(self) -> int | None:
        return self.stack.receptive_field

    def forward(self, x: Tensor, c: Tensor | None = None, state=None):
        h, skips, state = self.stack(x, c, state)
        y = self.mixer(T.concat(skips, axis=0) if self.gated else h)
        return T.reshape(y, (x.data.shape[-1],)), state


class GCN(TCN):
    """Gated conv stack: tanh/sigmoid branches, skip outputs into a mixer."""

    gated = True


# -- gray box ----------------------------------------------------------------

# The options a stage's processor or controller takes from a config, per
# kind: option -> (check on the JSON value, what it must hold)
_STAGE_OPTS = {
    "fir": {"num_taps": _COUNT, "width": _COUNT, "depth": _COUNT,
            "w0": _POSITIVE},
    "rational": {"coeffs": (
        lambda v: type(v) is dict and set(v) == {"numerator", "denominator"}
        and all(type(v[k]) is list and len(v[k]) == n
                and all(map(_is_number, v[k]))
                for k, n in (("numerator", 7), ("denominator", 5))),
        "{numerator: 7 numbers, denominator: 5 numbers}")},
    "static_cond": {"layers": _COUNT, "hidden": _COUNT},
}


def _check_opts(kind: str, field: str, opts) -> dict:
    if not isinstance(opts, dict):
        raise ValueError(f"{kind} {field} must be an object, got {opts!r}")
    rules = _STAGE_OPTS.get(kind, {})
    for key, v in opts.items():
        if key not in rules:
            raise ValueError(f"{kind} {field}: unknown option {key!r}")
        _check(rules[key], f"{kind} {field} {key}", v)
    return dict(opts)


class StageError(ValueError):
    """A rule a chain stage breaks; `path` points at the stage below the
    model section once the enclosing specs have filled it in. A stage's
    own rules raise ValueError, which GrayBoxSpec turns into this."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


class StageSpec:
    """One chain stage: a processor kind plus the controller that drives it,
    `dummy` exactly when the processor has no controlled parameters."""

    def __init__(self, processor: str, controller: str = "static",
                 processor_opts: dict | None = None,
                 controller_opts: dict | None = None):
        if (not isinstance(processor, str)
                or processor not in proc.PROCESSOR_KINDS):
            raise ValueError(f"unknown processor kind {processor!r}")
        if controller not in ctrl.CONTROLLER_KINDS:
            raise ValueError(f"unknown controller kind {controller!r}")
        p = proc.PROCESSOR_KINDS[processor]
        if p.num_params == 0 and controller != "dummy":
            raise ValueError(f"{p.name} has no controlled parameters; "
                             f"use the dummy controller")
        if p.num_params and controller == "dummy":
            raise ValueError(f"{p.name} has {p.num_params} controlled "
                             f"parameters; a dummy controller cannot drive it")
        self.processor = processor
        self.controller = controller
        self.processor_opts = _check_opts(processor, "processor_opts",
                                          processor_opts or {})
        self.controller_opts = _check_opts(controller, "controller_opts",
                                           controller_opts or {})

    def to_dict(self) -> dict:
        return {"processor": self.processor, "controller": self.controller,
                "processor_opts": self.processor_opts,
                "controller_opts": self.controller_opts}

    @classmethod
    def from_dict(cls, d: dict) -> "StageSpec":
        _check_keys("stage", d, ("processor", "controller", "processor_opts",
                                 "controller_opts"))
        return cls(d["processor"], d.get("controller", "static"),
                   d.get("processor_opts"), d.get("controller_opts"))


class GrayBoxSpec:
    """Ordered processor chain description."""

    def __init__(self, stages, sample_rate: float = 48000.0,
                 num_controls: int = 0, block_size: int = 128):
        if not isinstance(stages, list) or not stages:
            raise ValueError(f"graybox stages must be a non-empty list, got "
                             f"{stages!r}")
        self.stages = []
        for i, s in enumerate(stages):
            try:
                self.stages.append(s if isinstance(s, StageSpec)
                                   else StageSpec.from_dict(s))
            except KeyError as e:
                raise KeyError(f"stages/{i}/{e.args[0]}") from None
            except ValueError as e:
                raise StageError(str(e), f"stages/{i}") from None
        for key, v, rule in (("sample_rate", sample_rate, _POSITIVE),
                             ("num_controls", num_controls, _NATURAL),
                             ("block_size", block_size, _COUNT)):
            _check(rule, f"graybox {key}", v)
        _check_span("graybox block_size", block_size)
        for i, st in enumerate(self.stages):
            if num_controls < 1 and st.controller.endswith("_cond"):
                raise StageError(f"a {st.controller} controller needs "
                                 f"num_controls >= 1", f"stages/{i}")
        self.sample_rate = float(sample_rate)
        self.num_controls = num_controls
        self.block_size = block_size

    def to_dict(self) -> dict:
        return {"stages": [s.to_dict() for s in self.stages],
                "sample_rate": self.sample_rate,
                "num_controls": self.num_controls,
                "block_size": self.block_size}

    @classmethod
    def from_dict(cls, d: dict, sample_rate: float = 48000.0,
                  num_controls: int = 0) -> "GrayBoxSpec":
        """The section d; sample_rate and num_controls where d has none."""
        _check_keys("graybox", d, ("stages", "sample_rate", "num_controls",
                                   "block_size"))
        return cls(d["stages"], d.get("sample_rate", sample_rate),
                   d.get("num_controls", num_controls),
                   d.get("block_size", 128))


def _build_processor(st: StageSpec, spec: GrayBoxSpec, rng) -> proc.Processor:
    kind = st.processor
    cls = proc.PROCESSOR_KINDS[kind]
    if kind in ("parametric_eq", "shelving_eq"):
        return cls(spec.sample_rate)
    if kind == "fir":
        return cls(rng, **st.processor_opts)
    return cls(**st.processor_opts)


def _build_controller(st: StageSpec, p: proc.Processor, spec: GrayBoxSpec,
                      rng) -> nn.Module:
    kind = st.controller
    if kind == "dummy":
        return ctrl.DummyController()
    if kind == "static":
        return ctrl.StaticController(p.num_params)
    if kind == "static_cond":
        return ctrl.StaticCondController(spec.num_controls, p.num_params,
                                         rng, **st.controller_opts)
    return ctrl.DynamicController(
        p.num_params, rng, block_size=spec.block_size,
        num_controls=spec.num_controls if kind == "dynamic_cond" else 0)


class GrayBoxChain(nn.Module):
    """Processors applied in order, each fed by its controller's output.
    The state is one (controller state, processor state) pair per stage."""

    receptive_field = None  # recursive EQs and recurrent controllers

    def __init__(self, spec: GrayBoxSpec, rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng()
        self.processors = []
        self.controllers = []
        for st in spec.stages:
            p = _build_processor(st, spec, rng)
            self.processors.append(p)
            self.controllers.append(_build_controller(st, p, spec, rng))

    @property
    def stream_unit(self) -> int:
        return math.lcm(*(getattr(k, "block_size", 1)
                          for k in self.controllers))

    def forward(self, x: Tensor, c: Tensor | None = None, state=None):
        states = ([(None, None)] * len(self.processors) if state is None
                  else state)
        h, after = x, []
        for p, k, (ks, ps) in zip(self.processors, self.controllers, states):
            g01, ks = k(x=h, c=c, state=ks)
            h, ps = p.apply(h, g01, getattr(k, "block_size", None), ps)
            after.append((ks, ps))
        return h, after


# -- tagged union + factory --------------------------------------------------

class ModelSpec:
    """Exactly one model variant plus the audio rate it runs at."""

    KINDS = ("lstm", "tcn", "gcn", "graybox")

    def __init__(self, sample_rate: float = 48000.0, num_controls: int = 0,
                 lstm: dict | None = None, tcn: TCNConfig | dict | None = None,
                 gcn: TCNConfig | dict | None = None,
                 graybox: GrayBoxSpec | dict | None = None):
        given = {"lstm": lstm, "tcn": tcn, "gcn": gcn, "graybox": graybox}
        chosen = [k for k, v in given.items() if v is not None]
        if len(chosen) != 1:
            raise ValueError(f"exactly one model variant required, got {chosen}")
        self.kind = chosen[0]
        _check(_POSITIVE, "sample_rate", sample_rate)
        _check(_NATURAL, "num_controls", num_controls)
        self.sample_rate = float(sample_rate)
        self.num_controls = num_controls
        v = given[self.kind]
        if self.kind in ("tcn", "gcn"):
            self.config = (v if isinstance(v, TCNConfig)
                           else TCNConfig.from_dict(v, self.kind))
            if self.config.cond in ("film", "tfilm", "ttfilm") and num_controls < 1:
                raise ValueError(f"cond {self.config.cond!r} needs num_controls >= 1")
            if (self.config.cond == "ttfilm"
                    and self.config.channels <= cond.TTFILM_REDUCED):
                raise ValueError(f"reduced width must be smaller than channels "
                                 f"({cond.TTFILM_REDUCED} for ttfilm)")
        elif self.kind == "graybox":
            if not isinstance(v, GrayBoxSpec):
                v = GrayBoxSpec.from_dict(v, sample_rate, num_controls)
            for key in ("sample_rate", "num_controls"):
                if getattr(v, key) != getattr(self, key):
                    raise ValueError(f"graybox {key} {getattr(v, key)!r} "
                                     f"differs from the model's "
                                     f"{getattr(self, key)!r}")
            self.config = v
        else:
            _check_lstm(num_controls, v)
            self.config = {**LSTM_DEFAULTS, **v}

    def to_dict(self) -> dict:
        if self.kind == "lstm":
            cfg = dict(self.config)
        else:
            cfg = self.config.to_dict()
        return {"kind": self.kind, "sample_rate": self.sample_rate,
                "num_controls": self.num_controls, self.kind: cfg}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        """A missing required field raises KeyError with its path below
        the model section, e.g. 'kind' or 'graybox/stages'."""
        kind = d["kind"]
        if kind not in cls.KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        _check_keys("model", d, ("kind", "sample_rate", "num_controls", kind))
        section = d[kind]
        if not isinstance(section, dict):
            raise ValueError(f"{kind} section must be an object, got "
                             f"{section!r}")
        try:
            return cls(sample_rate=d.get("sample_rate", 48000.0),
                       num_controls=d.get("num_controls", 0),
                       **{kind: section})
        except KeyError as e:
            raise KeyError(f"{kind}/{e.args[0]}") from None
        except StageError as e:
            raise StageError(str(e), f"{kind}/{e.path}") from None

    def build(self, rng: np.random.Generator | None = None) -> nn.Module:
        rng = rng if rng is not None else np.random.default_rng()
        if self.kind == "lstm":
            return LSTMModel(num_controls=self.num_controls, rng=rng,
                             **self.config)
        if self.kind == "tcn":
            return TCN(self.config, self.num_controls, rng)
        if self.kind == "gcn":
            return GCN(self.config, self.num_controls, rng)
        return GrayBoxChain(self.config, rng)


# -- streaming ---------------------------------------------------------------

# Split points that keep every kernel's blocks where one call has them: the
# conv im2col spans, the biquad solver blocks and the 16-row groups in
# which BLAS rounds a GEMV
RENDER_ALIGN = math.lcm(T._CONV_CHUNK, T._BIQUAD_BLOCK, 16)
# Samples a render chunk holds at least
RENDER_MIN = 65536


def render_chunk(stream_unit: int) -> int:
    """Samples per render chunk: the smallest multiple of RENDER_ALIGN and
    stream_unit that holds at least RENDER_MIN samples."""
    unit = math.lcm(RENDER_ALIGN, stream_unit)
    return -(-RENDER_MIN // unit) * unit


def available_cpus() -> list:
    """Ids of the CPUs this process may run on."""
    try:
        return sorted(os.sched_getaffinity(0))
    except AttributeError:  # no affinity on this platform
        return list(range(os.cpu_count() or 1))


def blas_threads() -> int | None:
    """Threads the OpenBLAS that numpy bundles runs one call on, or None
    when numpy bundles none that says."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                        "numpy.libs")
    names = sorted(os.listdir(libs)) if os.path.isdir(libs) else []
    for name in (n for n in names if "openblas" in n):
        lib = ctypes.CDLL(os.path.join(libs, name))
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def render(model: nn.Module, x: np.ndarray, c: Tensor | None,
           out: np.ndarray) -> np.ndarray:
    """model's output for the signal x, written into out; equal to one
    call bit for bit, with no call longer than one chunk of
    `render_chunk(model.stream_unit)` samples.

    When the model bounds its `receptive_field`, out is cut into pieces
    of `chunk - lead` samples, lead being `receptive_field - 1` rounded
    up to the grid lcm(RENDER_ALIGN, stream_unit). Each piece [a, a +
    piece) is one zero-state call over [a - lead, a + piece), clipped at
    0, of which it keeps the last `piece` outputs: every call starts on
    the kernels' grid and sees the whole receptive field, so its outputs
    are those of one call. One thread per available CPU, pinned to it,
    takes pieces until none is left; the BLAS calls that dominate a
    piece release the GIL, and memory is bounded by one chunk per
    thread. Otherwise the chunks run in order with the state carried, in
    the memory of one chunk: for an unbounded receptive field, a lead
    not shorter than a chunk, one CPU, or a BLAS not known to run a call
    on one thread, whose own threads would share the CPUs with the
    workers. A worker's exception is raised here once every thread has
    stopped. Under the calling thread's active tape this raises
    ValueError: the chunks in order would record onto it, and the
    worker threads, which have no tape, would not.
    """
    if T.active_tape() is not None:
        raise ValueError("render cannot run under this thread's active tape")
    unit = math.lcm(RENDER_ALIGN, model.stream_unit)
    chunk = render_chunk(model.stream_unit)
    dt, rf = T.default_dtype(), model.receptive_field
    lead = -(-(rf - 1) // unit) * unit if rf is not None else chunk
    piece = chunk - lead
    starts = range(0, len(x), piece) if piece > 0 else range(0)
    cpus = available_cpus()[:len(starts)]
    if len(cpus) < 2 or blas_threads() != 1:
        state = None
        for a in range(0, len(x), chunk):
            y, state = model.forward(Tensor(x[a:a + chunk].astype(dt)), c,
                                     state)
            out[a:a + chunk] = y.data
        return out
    todo, lock, errors = iter(starts), threading.Lock(), []

    def run(cpu):
        try:
            # unpinned, threads that hand the GIL to each other tend to
            # be woken on one CPU, where they take turns
            if hasattr(os, "sched_setaffinity"):
                os.sched_setaffinity(0, {cpu})
            while not errors:
                with lock:
                    a = next(todo, None)
                if a is None:
                    return
                s = max(a - lead, 0)
                y, _ = model.forward(Tensor(x[s:a + piece].astype(dt)), c)
                out[a:a + piece] = y.data[a - s:]
        except Exception as e:  # noqa: BLE001 - raised by the caller
            errors.append(e)

    threads = [threading.Thread(target=run, args=(cpu,)) for cpu in cpus]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return out


# -- checkpoints -------------------------------------------------------------

def _encode_array(a: np.ndarray) -> dict:
    a = np.ascontiguousarray(a)
    return {"dtype": str(a.dtype), "shape": list(a.shape),
            "data": base64.b64encode(a.tobytes()).decode("ascii")}


def _decode_array(d: dict) -> np.ndarray:
    raw = base64.b64decode(d["data"])
    a = np.frombuffer(raw, dtype=np.dtype(d["dtype"]))
    return a.reshape(d["shape"]).copy()


def save_checkpoint(path, model: nn.Module, spec: ModelSpec,
                    extra: dict | None = None) -> None:
    """JSON checkpoint: spec + raw parameter bytes. Bit-exact round trip."""
    payload = {
        "spec": spec.to_dict(),
        "state": {k: _encode_array(v) for k, v in model.state_dict().items()},
    }
    if extra:
        payload["extra"] = extra
    with atomic_open(path) as f:
        json.dump(payload, f)


def load_checkpoint(path, rng: np.random.Generator | None = None):
    """Returns (model, spec, extra). Parameters match the saved bytes. A
    file that cannot be read or is not a checkpoint raises ValueError."""
    try:
        with open(path) as f:
            payload = json.load(f)
        spec = ModelSpec.from_dict(payload["spec"])
        model = spec.build(rng if rng is not None else np.random.default_rng(0))
        model.load_state_dict({k: _decode_array(v)
                               for k, v in payload["state"].items()})
    except (json.JSONDecodeError, KeyError, TypeError, AttributeError,
            OSError) as e:  # not JSON, a missing field, or a wrong type
        raise ValueError(f"corrupt or unreadable checkpoint {path}: {e}") from e
    return model, spec, payload.get("extra")
