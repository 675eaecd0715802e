"""Response measurement: stepped sines, amplitude curves, time traces.

The stepped-sine analyzer drives a model with one sinusoid per grid
frequency and reads magnitude and phase off the final segment of the
render, so transients and recurrent warm-up never contaminate the
estimate. `stage_report` picks the plot that describes one gray-box
stage. Plots can be written to CSV or a small self-contained SVG.
"""

from __future__ import annotations

import math

import numpy as np

from . import controllers as C
from . import processors as P
from . import tensor as T
from .data import atomic_open
from .models import RENDER_ALIGN, LSTMModel
from .tensor import Tensor


class SweepConfig:
    """Grid and render settings for the stepped-sine measurement."""

    def __init__(self, fs: float = 48000.0, f1: float = 10.0,
                 f2: float | None = None, steps: int = 50, T: float = 5.0,
                 amplitude: float = 0.1, warmup: float = 1.0):
        self.fs = float(fs)
        self.f1 = float(f1)
        self.f2 = float(f2) if f2 is not None else 0.45 * self.fs
        self.steps = int(steps)
        self.T = float(T)
        self.amplitude = float(amplitude)
        self.warmup = float(warmup)
        if not (0 < self.f1 < self.f2 < self.fs / 2):
            raise ValueError("need 0 < f1 < f2 < fs/2")
        if self.steps < 2:
            raise ValueError("need at least 2 frequency steps")
        if self.T * self.fs < 2 * self.tail_length:
            raise ValueError("render shorter than twice the analysis tail")
        if math.floor(self.tail_length * self.f1 / self.fs) < 1:
            raise ValueError(f"analysis tail of {self.tail_length} samples "
                             f"holds no full period of f1 = {self.f1:g} Hz")

    @property
    def tail_length(self) -> int:
        """Final-segment length in samples: T * floor(fs / f1), as printed."""
        return int(self.T * math.floor(self.fs / self.f1))

    @property
    def frequencies(self) -> np.ndarray:
        return np.geomspace(self.f1, self.f2, self.steps)


class ResponseCurve:
    """Magnitude/phase response on a fixed frequency grid."""

    columns = ("freq_hz", "mag_db", "phase_rad")

    def __init__(self, freqs, magnitude_db, phase_rad):
        self.freqs = np.asarray(freqs, dtype=np.float64)
        self.magnitude_db = np.asarray(magnitude_db, dtype=np.float64)
        self.phase_rad = np.asarray(phase_rad, dtype=np.float64)
        if not (len(self.freqs) == len(self.magnitude_db) == len(self.phase_rad)):
            raise ValueError("curve columns must have equal lengths")
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("frequencies must be strictly increasing")

    def rows(self):
        return np.stack([self.freqs, self.magnitude_db, self.phase_rad], axis=1)


class AmplitudeCurve:
    """Memoryless transfer curve y = f(x) with a tanh reference."""

    columns = ("input", "output", "reference")

    def __init__(self, x, y, reference):
        self.x = np.asarray(x, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.reference = np.asarray(reference, dtype=np.float64)

    def rows(self):
        return np.stack([self.x, self.y, self.reference], axis=1)


class TimeTrace:
    """Input signal alongside a stage's parameter trajectory over time."""

    def __init__(self, x, params, names):
        self.x = np.asarray(x, dtype=np.float64)
        self.params = np.asarray(params, dtype=np.float64)
        self.columns = ("input", *names)

    def rows(self):
        return np.concatenate([self.x[:, None], self.params], axis=1)


class ParamValues:
    """A static stage's parameters in physical units: one named column
    each, one row."""

    def __init__(self, names, values):
        self.columns = tuple(names)
        self.values = np.asarray(values, dtype=np.float64)

    def rows(self):
        return self.values[None]


def _response(freqs, h, floor: float = 0.0) -> ResponseCurve:
    """Magnitude (dB of |h| + floor) and unwrapped phase of h."""
    return ResponseCurve(freqs, 20.0 * np.log10(np.abs(h) + floor),
                         np.unwrap(np.angle(h)))


def _project(signal: np.ndarray, freq: float, fs: float) -> complex:
    """Single-bin Fourier projection over whole periods of `freq`."""
    n = len(signal)
    periods = int(math.floor(n * freq / fs))
    if periods < 1:
        raise ValueError(f"tail holds no full period of {freq} Hz")
    span = min(n, int(round(periods * fs / freq)))
    seg = signal[-span:].astype(np.float64)
    t = np.arange(span, dtype=np.float64) / fs
    basis = np.exp(-2j * np.pi * freq * t)
    return 2.0 * np.dot(seg, basis) / span


def _render(model, cfg: SweepConfig, freqs, edges, c, tail: int,
            batched: bool):
    """Tones at `freqs` through the model over the pieces between
    consecutive `edges`, from zero state at edges[0], state carried;
    their last `tail` samples, input and output, one row per frequency.
    A tone's sample i is the same whatever edges[0], so the tail is too
    when edges[0] leaves the model's `receptive_field - 1` samples before
    it and keeps the kernels' blocks where they were. Batched, the model
    takes all rows in one call per piece; otherwise `freqs` holds one
    frequency."""
    dt = T.default_dtype()
    start = edges[-1] - tail
    x_tail = np.empty((len(freqs), tail))
    y_tail = np.empty((len(freqs), tail), dtype=dt)
    state = None
    for a, e in zip(edges, edges[1:]):
        t = np.arange(a, e, dtype=np.float64) / cfg.fs
        x = cfg.amplitude * np.sin(2 * np.pi * freqs[:, None] * t)
        y, state = model.forward(Tensor((x if batched else x[0]).astype(dt)),
                                 c, state)
        j = max(a, start)
        if j < e:
            x_tail[:, j - start:e - start] = x[:, j - a:]
            y_tail[:, j - start:e - start] = y.data[..., j - a:]
    return x_tail, y_tail


def stepped_sine_response(model, cfg: SweepConfig,
                          c: Tensor | None = None) -> ResponseCurve:
    """Measure magnitude/phase at exponentially spaced frequencies.

    Each tone runs through a warm-up that settles the state (rounded up
    to whole `stream_unit`s, so the split does not change the output),
    phase-continuous, and then the measured render. An `LSTMModel`, whose
    cost is per call and step, renders all frequencies at once as a batch:
    warm-up and measurement form one signal, fed in time chunks that hold
    no more samples in all than one frequency's render. Any other model,
    whose cost is per sample, renders one frequency after another: over
    the warm-up and then the measurement, or, when the model bounds its
    `receptive_field`, from zero state over [s, n] alone. s is the latest
    point with s <= n - tail - (receptive_field - 1) on the grid
    n_warm + k * lcm(RENDER_ALIGN, stream_unit), k >= 0, on which the
    measured call's im2col spans already lie, so the tail is the same bit
    for bit; without such a point the tone runs whole.
    """
    tail = cfg.tail_length
    n_meas = int(round(cfg.T * cfg.fs))
    if tail > n_meas:
        raise ValueError(f"analysis tail {tail} exceeds rendered "
                         f"length {n_meas}")
    unit = model.stream_unit
    n_warm = -(-int(round(cfg.warmup * cfg.fs)) // unit) * unit
    freqs, n = cfg.frequencies, n_warm + n_meas
    if isinstance(model, LSTMModel):
        # f32 GEMV rows round alike when chunk edges sit on multiples of 16
        unit = math.lcm(64, unit)
        chunk = max(unit, n // len(freqs) // unit * unit)
        x_tail, y_tail = _render(model, cfg, freqs, [*range(0, n, chunk), n],
                                 c, tail, batched=True)
    else:
        edges = [0, n_warm, n] if n_warm else [0, n]
        rf = model.receptive_field
        if rf is not None:
            step = math.lcm(RENDER_ALIGN, unit)
            k = (n - tail - (rf - 1) - n_warm) // step
            if k >= 0:
                edges = [n_warm + k * step, n]
        tails = [_render(model, cfg, freqs[i:i + 1], edges, c, tail,
                         batched=False) for i in range(len(freqs))]
        x_tail, y_tail = (np.concatenate(p) for p in zip(*tails))
    h = np.array([_project(y, f, cfg.fs) / _project(x, f, cfg.fs)
                  for x, y, f in zip(x_tail, y_tail, freqs)])
    return _response(freqs, h)


def amplitude_response(processor, points: int = 200,
                       lo: float = -1.0, hi: float = 1.0) -> AmplitudeCurve:
    """Static transfer curve of a memoryless stage, with tanh alongside."""
    grid = np.linspace(lo, hi, points)
    y, _ = processor.apply(Tensor(grid.astype(T.default_dtype())))
    return AmplitudeCurve(grid, np.asarray(y.data, dtype=np.float64),
                          np.tanh(grid))


def time_trace(processor, controller, x, c: Tensor | None = None,
               state=None) -> TimeTrace:
    """Block-rate parameter trajectory of a dynamic stage, sample-aligned."""
    x = np.asarray(x)
    out, _ = controller(x=Tensor(x.astype(T.default_dtype())), c=c,
                        state=state)
    if not out.is_dynamic:
        raise ValueError("stage parameters are static; read them from the "
                         "controller directly instead of tracing")
    vals = Tensor(np.asarray(out.values.data, dtype=np.float64))  # [nb, P]
    phys = np.stack([p.data for p in processor.physical(vals)], axis=1)
    held = np.repeat(phys, out.block_size, axis=0)[:len(x)]
    return TimeTrace(x, held, processor.param_names)


def stage_report(processor, controller, c: Tensor | None,
                 sweep: SweepConfig):
    """The plot that describes a chain stage best: a waveshaper's transfer
    curve, a dynamic stage's trace over a fixed noise probe, a static EQ's
    or the FIR's response on the sweep grid, or else the stage's
    parameter values."""
    if processor.name in ("tanh", "rational", "mlp", "phase_inv"):
        return amplitude_response(processor)
    if isinstance(controller, C.DynamicController):
        probe = np.random.default_rng(0).standard_normal(8192) * 0.1
        return time_trace(processor, controller, probe, c)
    out, _ = controller(c=c)
    freqs = sweep.frequencies
    if isinstance(processor, P.ParametricEQ):
        design = processor.design(out.values).data
        return _response(freqs, P.frequency_response(design, freqs,
                                                     processor.fs))
    if isinstance(processor, P.FIRSiren):
        k = np.arange(processor.num_taps)
        taps = np.asarray(processor.taps().data, dtype=np.float64)
        h = np.exp(-2j * np.pi * np.outer(freqs / sweep.fs, k)) @ taps
        return _response(freqs, h, floor=1e-12)
    phys = processor.physical(Tensor(out.values.data.astype(np.float64)))
    return ParamValues(processor.param_names, [p.item() for p in phys])


# -- emission ----------------------------------------------------------------

def _emit_csv(obj, path) -> None:
    """Header, then one line per row, each value written f"{v:.12g}".

    Each column formats each of its distinct values once, and every row
    that holds the value reuses the string: a dynamic stage's trace holds
    one value per control block, repeated over the block's samples.
    Values are told apart by their float64 bit pattern, so -0.0 and 0.0
    stay "-0" and "0", and NaN and +-inf still read "nan" and "inf".
    """
    cols = np.ascontiguousarray(np.asarray(obj.rows(), np.float64).T)
    text = []
    for col in cols:
        bits, where = np.unique(col.view(np.int64), return_inverse=True)
        fmt = np.array([f"{v:.12g}" for v in bits.view(np.float64).tolist()],
                       dtype=object)
        text.append(fmt[where])
    with atomic_open(path) as f:
        f.write(",".join(obj.columns) + "\n")
        f.writelines(",".join(row) + "\n" for row in zip(*text))


def _polyline(xs, ys, x0, x1, y0, y1, width, height, pad=50):
    """Map data into SVG viewport coordinates (y axis points down)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    sx = (width - 2 * pad) / (x1 - x0) if x1 > x0 else 1.0
    sy = (height - 2 * pad) / (y1 - y0) if y1 > y0 else 1.0
    px = pad + (xs - x0) * sx
    py = height - pad - (ys - y0) * sy
    return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))


def _emit_svg(obj, path) -> None:
    w, h = 800, 480
    if isinstance(obj, ResponseCurve):
        xs = np.log10(obj.freqs)
        series = [("#d62728", obj.magnitude_db, "mag (dB)"),
                  ("#1f77b4", obj.phase_rad, "phase (rad)")]
        xlabel = "log10 frequency (Hz)"
    elif isinstance(obj, AmplitudeCurve):
        xs = obj.x
        series = [("#d62728", obj.y, "output"),
                  ("#999999", obj.reference, "tanh")]
        xlabel = "input"
    elif isinstance(obj, TimeTrace):
        xs = np.arange(len(obj.x), dtype=np.float64)
        series = [("#999999", obj.x, "input")]
        for j, name in enumerate(obj.columns[1:]):
            series.append(("#d62728", obj.params[:, j], name))
        xlabel = "sample"
    else:
        raise TypeError(f"no SVG plot for a {type(obj).__name__}")
    x0, x1 = float(xs.min()), float(xs.max())
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" '
             f'height="{h}" viewBox="0 0 {w} {h}">',
             f'<rect x="50" y="50" width="{w - 100}" height="{h - 100}" '
             f'fill="none" stroke="#333"/>']
    for k, (color, ys, label) in enumerate(series):
        y0, y1 = float(np.min(ys)), float(np.max(ys))
        if y1 - y0 < 1e-12:
            y0, y1 = y0 - 1.0, y1 + 1.0
        pts = _polyline(xs, ys, x0, x1, y0, y1, w, h)
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        parts.append(f'<text x="{60 + 140 * k}" y="30" fill="{color}" '
                     f'font-size="14">{label}</text>')
    parts.append(f'<text x="{w // 2}" y="{h - 15}" fill="#333" '
                 f'font-size="14" text-anchor="middle">{xlabel}</text>')
    parts.append("</svg>")
    with atomic_open(path) as f:
        f.write("\n".join(parts))


def emit_plot_data(obj, path, format: str = "csv") -> None:
    if format == "csv":
        _emit_csv(obj, path)
    elif format == "svg":
        _emit_svg(obj, path)
    else:
        raise ValueError(f"unknown plot format {format!r}")
