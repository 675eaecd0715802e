"""Differentiable audio processors: basic ops, biquad EQs, nonlinearities.

Filters are second-order sections from the Bristow-Johnson cookbook,
applied by exact recursive filtering: a whole cascade is one
direct-form-I `tensor.biquad` node over an [S, 5] (or per-block
[nb, S, 5]) coefficient operand, so the IIR tail is kept whole and
per-block (time-varying) coefficients act on the filter state carried
across blocks. The coefficients are designed over a section axis: each
cookbook formula runs once per group of kinds that share it, and one
division normalizes by a0. The filter is differentiable in (f0, gain, Q)
through those formulas, which stay on the tape.

An EQ is a layout, a tuple of section kinds. `ParametricEQ.design` turns
its physical parameters into one [..., S, 6] design (b0, b1, b2, a1, a2,
a0 per section), which feeds both the filter (`apply`, one `biquad` node)
and the analysis-side `frequency_response`.

Controlled processors expose `num_params` physical parameters, each with
a name and a ParamRange mapping a controller's [0,1] output to physical
units; `Processor.physical` is the one place that applies them.
"""

from __future__ import annotations

import json
import math
import warnings
from importlib import resources

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor

LN10 = math.log(10.0)


def _const(value, dtype) -> Tensor:
    return Tensor(np.asarray(value, dtype=dtype))


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(np.asarray(value, dtype=T.default_dtype()))


# ---------------------------------------------------------------------------
# parameter ranges

class ParamRange:
    """Maps normalized [0,1] controls to a physical range.

    linear: min + u*(max-min); logarithmic: min*(max/min)^u.
    """

    def __init__(self, lo: float, hi: float, scale: str = "linear"):
        if not lo < hi:
            raise ValueError(f"ParamRange needs min < max, got [{lo}, {hi}]")
        if scale not in ("linear", "logarithmic"):
            raise ValueError(f"unknown scale {scale!r}")
        if scale == "logarithmic" and lo <= 0:
            raise ValueError("logarithmic range requires min > 0")
        self.lo = float(lo)
        self.hi = float(hi)
        self.scale = scale

    def denormalize(self, u):
        u = _as_tensor(u)
        if np.any(u.data < 0.0) or np.any(u.data > 1.0):
            warnings.warn("control value outside [0,1]; clamping", RuntimeWarning)
            u = T.clip(u, 0.0, 1.0)
        dt = u.data.dtype
        if self.scale == "linear":
            return T.add(_const(self.lo, dt), T.mul(u, _const(self.hi - self.lo, dt)))
        return T.mul(_const(self.lo, dt),
                     T.exp(T.mul(u, _const(math.log(self.hi / self.lo), dt))))

    def __repr__(self):
        return f"ParamRange({self.lo}, {self.hi}, {self.scale!r})"


def freq_range(fs: float) -> ParamRange:
    return ParamRange(20.0, 0.95 * fs / 2.0, "logarithmic")


def filter_gain_range() -> ParamRange:
    return ParamRange(-24.0, 24.0, "linear")


def q_range() -> ParamRange:
    return ParamRange(0.3, 10.0, "logarithmic")


def chain_gain_range() -> ParamRange:
    return ParamRange(-40.0, 40.0, "linear")


def offset_range() -> ParamRange:
    return ParamRange(-1.0, 1.0, "linear")


# ---------------------------------------------------------------------------
# biquad sections

GAIN_KINDS = ("lowshelf", "highshelf", "peak")


# b1 sign of each kind: lowpass and highpass differ only in it and the sign
# of cos w0 in 1 -/+ cos w0, and so do the low and high shelf
_SIGN = {"lowpass": 1.0, "highpass": -1.0, "lowshelf": 1.0, "highshelf": -1.0}


def _lp_hp(one, two, cosw, alpha, A, sg):
    c = T.sub(one, T.mul(cosw, sg))                 # 1 -/+ cos
    b0 = T.div(c, two)
    b1 = T.mul(c, sg)
    a0 = T.add(one, alpha)
    return b0, b1, b0, T.mul(T.neg(two), cosw), T.sub(one, alpha), a0


def _peak(one, two, cosw, alpha, A, sg):
    aA = T.mul(alpha, A)
    adA = T.div(alpha, A)
    m2c = T.mul(T.neg(two), cosw)
    b0, b2 = T.add(one, aA), T.sub(one, aA)
    a0 = T.add(one, adA)
    return b0, m2c, b2, m2c, T.sub(one, adA), a0


def _shelves(one, two, cosw, alpha, A, sg):
    ap1 = T.add(A, one)
    am1 = T.sub(A, one)
    s = T.mul(T.mul(two, T.sqrt(A)), alpha)         # 2*sqrt(A)*alpha
    sc = T.mul(cosw, sg)                            # +/- cos
    ap1c = T.mul(ap1, sc)
    am1c = T.mul(am1, sc)
    two_sg = T.mul(two, sg)
    b0 = T.mul(A, T.add(T.sub(ap1, am1c), s))
    b1 = T.mul(T.mul(two_sg, A), T.sub(am1, ap1c))
    b2 = T.mul(A, T.sub(T.sub(ap1, am1c), s))
    a0 = T.add(T.add(ap1, am1c), s)
    a1 = T.mul(T.neg(two_sg), T.add(am1, ap1c))
    return b0, b1, b2, a1, T.sub(T.add(ap1, am1c), s), a0


_GROUPS = ((("lowpass", "highpass"), _lp_hp), (("peak",), _peak),
           (("lowshelf", "highshelf"), _shelves))


def _pick(t: Tensor, idx: list, n: int) -> Tensor:
    """Entries idx of t's last axis of n; t itself when that is all of them."""
    return t if idx == list(range(n)) else T.take(t, (Ellipsis, np.array(idx)))


def _design(kinds, f0: Tensor, gain, q: Tensor, fs: float) -> Tensor:
    """Cookbook coefficients of the sections `kinds` over a section axis.

    f0, q: [..., S]; gain: [..., G] over the sections of a GAIN_KINDS kind,
    in order, or None when there is none. Each group of kinds that shares a
    formula runs it once over its sections, with the kinds' signs as a
    constant. Returns [..., S, 6]: b0, b1, b2, a1, a2, a0 per section.
    Differentiable w.r.t. f0 / gain / Q.
    """
    unknown = set(kinds).difference(*(group for group, _ in _GROUPS))
    if unknown:
        raise ValueError(f"unknown filter kind {sorted(unknown)[0]!r}")
    if np.any(f0.data <= 0.0) or np.any(f0.data >= fs / 2.0):
        raise ValueError(f"filter frequency must lie in (0, fs/2), got {f0.data}")
    if np.any(q.data <= 0.0):
        raise ValueError("Q must be positive")
    dt = f0.data.dtype
    one, two = _const(1.0, dt), _const(2.0, dt)
    w0 = T.mul(f0, _const(2.0 * math.pi / fs, dt))
    cosw = T.cos(w0)
    alpha = T.div(T.sin(w0), T.mul(q, two))
    gained = [i for i, k in enumerate(kinds) if k in GAIN_KINDS]
    A = T.exp(T.mul(gain, _const(LN10 / 40.0, dt))) if gained else None
    parts, pos, off = [], np.empty((len(kinds), 6), dtype=np.intp), 0
    for group, formula in _GROUPS:
        idx = [i for i, k in enumerate(kinds) if k in group]
        if not idx:
            continue
        a = (_pick(A, [gained.index(i) for i in idx], len(gained))
             if group[0] in GAIN_KINDS else None)
        sg = _const([_SIGN.get(kinds[i], 1.0) for i in idx], dt)
        parts += formula(one, two, _pick(cosw, idx, len(kinds)),
                         _pick(alpha, idx, len(kinds)), a, sg)
        for j, i in enumerate(idx):  # coefficient k of section i in parts
            pos[i] = off + j + len(idx) * np.arange(6)
        off += 6 * len(idx)
    return T.take(T.concat(parts, axis=-1), (Ellipsis, pos))


def _normalize(raw: Tensor) -> Tensor:
    """[..., S, 6] design -> the [..., S, 5] a0-normalized biquad operand.

    The division runs over the reversed columns, so a0's gradient sums its
    five terms from a2 down to b0, as five separate divisions would.
    """
    return T.div(raw[..., 4::-1], raw[..., 5:])[..., ::-1]


def frequency_response(design, freqs, fs: float) -> np.ndarray:
    """Cascade response H(e^{jw}) of a static [S, 6] design (b0, b1, b2,
    a1, a2, a0 per section) at the given frequencies (numpy, complex).

    This is the analysis-side view of the filter, separate from the
    differentiable signal path.
    """
    design = np.asarray(design)
    if design.ndim != 2 or design.shape[1] != 6 or not len(design):
        raise ValueError(f"frequency_response expects a static [S, 6] "
                         f"design with S >= 1, got shape {design.shape}")
    freqs = np.asarray(freqs, dtype=np.float64)
    z1 = np.exp(-1j * 2.0 * np.pi * freqs / fs)
    z2 = z1 * z1
    h = np.ones_like(z1)
    for row in design:
        b0, b1, b2, a1, a2, a0 = (float(c) for c in row)
        h = h * (b0 + b1 * z1 + b2 * z2) / (a0 + a1 * z1 + a2 * z2)
    return h


def _eq_size(layout) -> int:
    """Parameter count of a layout of kinds: 3 per GAIN_KINDS kind, else 2."""
    return sum(3 if kind in GAIN_KINDS else 2 for kind in layout)


def _eq_columns(layout) -> tuple:
    """Column indices of a layout's f0, gain and Q parameters, one array
    per kind (gain over the sections that have one, None if none does)."""
    cols, i = ([], [], []), 0
    for kind in layout:
        gained = kind in GAIN_KINDS
        cols[0].append(i)
        if gained:
            cols[1].append(i + 1)
        cols[2].append(i + 1 + gained)
        i += 2 + gained
    return tuple(np.array(c) if c else None for c in cols)


# low shelf + three peaks + high shelf; (f0, gain_dB, Q) per section
PARAMETRIC_EQ_LAYOUT = ("lowshelf", "peak", "peak", "peak", "highshelf")
# hp(f0, Q), low shelf(f0, gain_dB, Q), high shelf(f0, gain_dB, Q), lp(f0, Q)
SHELVING_EQ_LAYOUT = ("highpass", "lowshelf", "highshelf", "lowpass")


# ---------------------------------------------------------------------------
# basic operators

def _expand_param(param: Tensor, n: int, block_size: int | None) -> Tensor:
    """Scalar stays scalar; per-block [nb] is held over its block."""
    if param.data.ndim == 0 or param.data.size == 1:
        return param if param.data.ndim == 0 else param[0]
    if block_size is None:
        raise ValueError("per-block parameter requires block_size")
    nb = -(-n // block_size)
    if param.data.shape[-1] != nb:
        raise ValueError(f"parameter has {param.data.shape[-1]} blocks, signal needs {nb}")
    return T.upsample1d(param, block_size)[0:n]


# ---------------------------------------------------------------------------
# FIR

def fir_apply(x: Tensor, taps: Tensor, context=None) -> Tensor:
    """Causal FIR: y[n] = sum_i taps[i] * x[n-i], with the K - 1 inputs
    before x taken from `context` [1, K - 1] (zeros when None)."""
    k = taps.data.shape[0]
    n = x.data.shape[-1]
    w = T.reshape(taps[::-1], (1, 1, k))
    y = T.conv1d(T.reshape(x, (1, n)), w, context=context)
    return T.reshape(y, (n,))


def _load_prefit(name: str) -> dict:
    path = resources.files("gradfx").joinpath(f"prefit/{name}")
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# processor classes (controller-facing)

class Processor(nn.Module):
    """A stage in a chain: `num_params` controlled values in [0,1].

    apply(x, g01, block_size, state) -> (y, state): g01 is [num_params]
    (static) or [nb, num_params] (per-block), or None when num_params ==
    0; state is what the processor remembers of the signal before x, None
    for the zero state and always None for a memoryless processor.
    `ranges` holds one ParamRange per control column, and `columns` the
    column indices of each kind of control, whose columns share a range.
    """

    name = "processor"
    num_params = 0
    ranges: tuple = ()
    columns: tuple = ()
    param_names: tuple = ()

    def apply(self, x: Tensor, g01=None, block_size: int | None = None,
              state=None):
        raise NotImplementedError

    def physical(self, g01: Tensor):
        """Each kind of control in g01 in physical units: its columns,
        denormalized by the range of the first of them."""
        got = None if g01 is None else g01.data.shape[-1]
        if got != self.num_params:
            raise ValueError(f"{self.name} expects {self.num_params} controls, "
                             f"got {got}")
        return [self.ranges[np.ravel(c)[0]].denormalize(g01[..., c])
                for c in self.columns]


class PhaseInvert(Processor):
    name = "phase_inv"

    def apply(self, x, g01=None, block_size=None, state=None):
        return T.neg(x), None


class Gain(Processor):
    name = "gain"
    num_params = 1
    ranges = (chain_gain_range(),)
    columns = (0,)
    param_names = ("gain_db",)

    def apply(self, x, g01=None, block_size=None, state=None):
        """y = x * 10^(gain_dB / 20)."""
        (g_db,) = self.physical(g01)
        g_db = _expand_param(g_db, x.data.shape[-1], block_size)
        return T.mul(x, T.exp(T.mul(g_db, _const(LN10 / 20.0,
                                                 g_db.data.dtype)))), None


class DCOffset(Processor):
    name = "dc_offset"
    num_params = 1
    ranges = (offset_range(),)
    columns = (0,)
    param_names = ("offset",)

    def apply(self, x, g01=None, block_size=None, state=None):
        """y = x + offset."""
        (off,) = self.physical(g01)
        return T.add(x, _expand_param(off, x.data.shape[-1], block_size)), None


class ParametricEQ(Processor):
    """Biquad-cascade EQ over `layout`: low shelf + three peaks + high
    shelf, 15 controlled params, (f0, gain, Q) per section. A parameter is
    named after its section, and a kind the layout repeats is numbered
    from 1: lowshelf_f0_hz, ..., peak1_q, ..."""

    name = "parametric_eq"
    layout = PARAMETRIC_EQ_LAYOUT
    num_params = _eq_size(layout)

    def __init__(self, fs: float):
        self.fs = float(fs)
        self.columns = _eq_columns(self.layout)
        by_kind = (freq_range(fs), filter_gain_range(), q_range())
        sections = [f"{kind}{self.layout[:i].count(kind) + 1}"
                    if self.layout.count(kind) > 1 else kind
                    for i, kind in enumerate(self.layout)]
        self.param_names, self.ranges = zip(*[
            (f"{section}_{unit}", by_kind[j])
            for section, kind in zip(sections, self.layout)
            for j, unit in ((0, "f0_hz"), (1, "gain_db"), (2, "q"))
            if j != 1 or kind in GAIN_KINDS])

    def design(self, g01):
        """[..., S, 6] design of the controls g01."""
        return _design(self.layout, *self.physical(g01), self.fs)

    def apply(self, x, g01=None, block_size=None, state=None):
        """The state is the cascade's [S, 4] filter history."""
        return T.biquad(x, _normalize(self.design(g01)), block_size, state)


class ShelvingEQ(ParametricEQ):
    """hp + low shelf + high shelf + lp; 10 controlled params."""

    name = "shelving_eq"
    layout = SHELVING_EQ_LAYOUT
    num_params = _eq_size(layout)


class FIRSiren(Processor):
    """Static FIR whose taps come from a sine-activation net.

    The net maps tap position, normalized to [-1,1], to the tap value;
    its weights are the trainable state.
    """

    name = "fir"

    def __init__(self, rng: np.random.Generator, num_taps: int = 64,
                 width: int = 32, depth: int = 2, w0: float = 30.0):
        self.num_taps = num_taps
        self.net = nn.SirenMLP([1] + [width] * depth + [1], rng, w0=w0)
        self._buf_positions = np.linspace(-1.0, 1.0, num_taps,
                                          dtype=T.default_dtype())[:, None]

    def taps(self) -> Tensor:
        out = self.net(Tensor(self._buf_positions))
        return T.reshape(out, (self.num_taps,))

    def apply(self, x, g01=None, block_size=None, state=None):
        """The state is the [1, num_taps - 1] inputs before the next call."""
        y = fir_apply(x, self.taps(), state)
        return y, T.last_samples(state, x.data[None], self.num_taps - 1)


class TanhNL(Processor):
    name = "tanh"

    def apply(self, x, g01=None, block_size=None, state=None):
        return T.tanh(x), None


class RationalNL(Processor):
    """Trainable order-[6,5] rational nonlinearity, tanh at init.

    Input is clamped to [-8,8]: the committed fit guarantees the
    denominator stays positive there, so no epsilon is added to it.
    """

    name = "rational"

    def __init__(self, coeffs: dict | None = None):
        if coeffs is None:
            coeffs = _load_prefit("rational_tanh.json")
        dt = T.default_dtype()
        self.num = Tensor(np.asarray(coeffs["numerator"], dtype=dt), requires_grad=True)
        self.den = Tensor(np.asarray(coeffs["denominator"], dtype=dt), requires_grad=True)

    def apply(self, x, g01=None, block_size=None, state=None):
        return T.rational(T.clip(x, -8.0, 8.0), self.num, self.den), None


class MLPNL(Processor):
    """Sine-activation MLP nonlinearity, pre-fit to tanh.

    Input is clamped to the fit domain [-4,4]; outside it a sinusoidal
    net extrapolates wildly.
    """

    name = "mlp"

    def __init__(self, weights: dict | None = None):
        if weights is None:
            weights = _load_prefit("mlp_tanh.json")
        rng = np.random.default_rng(0)  # immediately overwritten
        self.net = nn.SirenMLP(weights["sizes"], rng, w0=weights["w0"])
        dt = T.default_dtype()
        for layer, saved in zip(self.net.layers, weights["layers"]):
            layer.w.data = np.asarray(saved["w"], dtype=dt)
            layer.b.data = np.asarray(saved["b"], dtype=dt)

    def apply(self, x, g01=None, block_size=None, state=None):
        n = x.data.shape[-1]
        xc = T.clip(x, -4.0, 4.0)
        y = self.net(T.reshape(xc, (n, 1)))
        return T.reshape(y, (n,)), None


PROCESSOR_KINDS = {
    "phase_inv": PhaseInvert,
    "gain": Gain,
    "dc_offset": DCOffset,
    "parametric_eq": ParametricEQ,
    "shelving_eq": ShelvingEQ,
    "fir": FIRSiren,
    "tanh": TanhNL,
    "rational": RationalNL,
    "mlp": MLPNL,
}
