"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with plain numpy/scipy floats,
not with the package's own tensor ops, so the two routes share no code.
The exceptions are `one_tape_step`, a reference for the train step's
bookkeeping: it runs a whole batch on one of the package's tapes;
`rational_composed`, the rational ratio as the graph of slice, mul, add
and div nodes the one-node `rational` replaced; and `eq_design` and
`apply_eq`, which drive an EQ layout's physical parameters through the
package's own design and filter steps, the path the EQ processors take
after `Processor.physical`.
"""

import numpy as np
import scipy.signal

from gradfx import tensor as T
from gradfx.processors import _design, _eq_columns, _eq_size, _normalize
from gradfx.tensor import Tensor


def rbj_coeffs(kind, f0, q, gain_db=0.0, fs=48000.0):
    """Cookbook biquad coefficients, straight transcription in floats."""
    w0 = 2.0 * np.pi * f0 / fs
    cw = np.cos(w0)
    sw = np.sin(w0)
    alpha = sw / (2.0 * q)
    A = 10.0 ** (gain_db / 40.0)
    if kind == "lowpass":
        b = np.array([(1 - cw) / 2, 1 - cw, (1 - cw) / 2])
        a = np.array([1 + alpha, -2 * cw, 1 - alpha])
    elif kind == "highpass":
        b = np.array([(1 + cw) / 2, -(1 + cw), (1 + cw) / 2])
        a = np.array([1 + alpha, -2 * cw, 1 - alpha])
    elif kind == "peak":
        b = np.array([1 + alpha * A, -2 * cw, 1 - alpha * A])
        a = np.array([1 + alpha / A, -2 * cw, 1 - alpha / A])
    elif kind == "lowshelf":
        sq = 2.0 * np.sqrt(A) * alpha
        b = A * np.array([(A + 1) - (A - 1) * cw + sq,
                          2 * ((A - 1) - (A + 1) * cw),
                          (A + 1) - (A - 1) * cw - sq])
        a = np.array([(A + 1) + (A - 1) * cw + sq,
                      -2 * ((A - 1) + (A + 1) * cw),
                      (A + 1) + (A - 1) * cw - sq])
    elif kind == "highshelf":
        sq = 2.0 * np.sqrt(A) * alpha
        b = A * np.array([(A + 1) + (A - 1) * cw + sq,
                          -2 * ((A - 1) + (A + 1) * cw),
                          (A + 1) + (A - 1) * cw - sq])
        a = np.array([(A + 1) - (A - 1) * cw + sq,
                      2 * ((A - 1) - (A + 1) * cw),
                      (A + 1) - (A - 1) * cw - sq])
    else:
        raise ValueError(kind)
    return b, a


def lfilter_cascade(x, coeff_list):
    """Time-domain second-order recursion, section after section."""
    y = np.asarray(x, dtype=np.float64)
    for b, a in coeff_list:
        y = scipy.signal.lfilter(np.asarray(b, np.float64), np.asarray(a, np.float64), y)
    return y


def df1_blocks(x, sections, block):
    """Per-sample direct-form-I cascade with per-block coefficients.

    sections: (b0, b1, b2, a1, a2) a0-normalized arrays of one value per
    block of `block` samples. x and y history carry across blocks.
    """
    y = [float(v) for v in x]
    for b0, b1, b2, a1, a2 in sections:
        x1 = x2 = y1 = y2 = 0.0
        for t in range(len(y)):
            k = t // block
            xt = y[t]
            yt = b0[k] * xt + b1[k] * x1 + b2[k] * x2 - a1[k] * y1 - a2[k] * y2
            x2, x1, y2, y1 = x1, xt, y1, yt
            y[t] = yt
    return np.array(y)


def freqz_cascade(coeff_list, freqs, fs):
    h = np.ones(len(freqs), dtype=np.complex128)
    for b, a in coeff_list:
        _, hk = scipy.signal.freqz(b, a, worN=freqs, fs=fs)
        h = h * hk
    return h


def draw_filter_params(rng, kind, fs=48000.0):
    """Random parameters inside the default physical ranges."""
    f0 = 20.0 * (0.95 * fs / 2.0 / 20.0) ** rng.uniform()
    q = 0.3 * (10.0 / 0.3) ** rng.uniform()
    gain = rng.uniform(-24.0, 24.0)
    if kind in ("lowpass", "highpass"):
        return {"f0": f0, "q": q}
    return {"f0": f0, "q": q, "gain_db": gain}


def rel_l2(y, ref):
    ref = np.asarray(ref, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(np.linalg.norm(y - ref) / np.linalg.norm(ref))


def stft_mag(x, fft_size, hop):
    """Magnitude STFT: periodic Hann frames from sample 0, no centering."""
    x = np.asarray(x, dtype=np.float64)
    win = np.hanning(fft_size + 1)[:-1]
    frames = []
    start = 0
    while start + fft_size <= len(x):
        frames.append(np.abs(np.fft.rfft(x[start:start + fft_size] * win)))
        start += hop
    return np.stack(frames, axis=0)


def conv1d_direct(x, w, dilation):
    """Causal dilated convolution as a plain sum over taps, in float64."""
    x = np.asarray(x, dtype=np.float64)
    w = np.asarray(w, dtype=np.float64)
    (c_in, t), k = x.shape, w.shape[2]
    xp = np.concatenate([np.zeros((c_in, (k - 1) * dilation)), x], axis=1)
    y = np.zeros((w.shape[0], t))
    for o in range(w.shape[0]):
        for i in range(k):
            for c in range(c_in):
                y[o] += w[o, c, i] * xp[c, i * dilation:i * dilation + t]
    return y


def conv1d_im2col(x, w, dilation, g):
    """One-GEMM im2col convolution over the whole signal: the output for
    x [C_in, T], w [C_out, C_in, K], and (dx, dw) for output gradient g."""
    c_in, t = x.shape
    k = w.shape[2]
    pad = (k - 1) * dilation
    xp = np.pad(x, ((0, 0), (pad, 0)))
    sc, st = xp.strides
    cols = np.lib.stride_tricks.as_strided(
        xp, shape=(c_in, k, t), strides=(sc, st * dilation, st))
    y = np.tensordot(w, cols, axes=([1, 2], [0, 1]))
    dw = np.tensordot(g, np.ascontiguousarray(cols), axes=([1], [2]))
    dcols = np.tensordot(w, g, axes=([0], [0]))
    dxp = np.zeros_like(xp)
    for i in range(k):
        dxp[:, i * dilation:i * dilation + t] += dcols[:, i, :]
    return y, dxp[:, pad:], dw


def stft_mag_composed(x, window, fft_size, hop, floor, g):
    """Magnitude STFT and its gradient for output gradient g, step by step
    in the order a tape of take/mul/pad_end/rfft/slice/sqrt nodes computes
    them, in the dtype of x: (magnitude, dL/dx)."""
    dt = x.dtype
    win = window.shape[0]
    num = (x.shape[0] - win) // hop + 1
    idx = np.arange(win)[None, :] + hop * np.arange(num)[:, None]
    frames = np.pad(x[idx] * window, ((0, 0), (0, fft_size - win)))
    spec = np.fft.rfft(frames, axis=-1)
    ri = np.stack([spec.real, spec.imag], axis=0).astype(dt, copy=False)
    re, im = ri[0], ri[1]
    mag = np.sqrt((re * re + im * im) + np.asarray(floor ** 2, dtype=dt))
    gs = g * (0.5 / mag)
    # the four slice nodes scatter into zeros, latest node first
    gri = None
    for part, value in ((1, im), (1, im), (0, re), (0, re)):
        z = np.zeros_like(ri)
        z[part] += gs * value
        gri = z if gri is None else gri + z
    c = np.zeros((num, fft_size), dtype=np.complex128)
    c[:, :gri.shape[-1]] = gri[0] + 1j * gri[1]
    gp = (fft_size * np.fft.ifft(c, axis=-1).real).astype(dt, copy=False)
    gx = np.zeros_like(x)
    np.add.at(gx, idx, gp[:, :win] * window)
    return mag, gx


def rational_composed(x: Tensor, num: Tensor, den: Tensor) -> Tensor:
    """(a0 + a1 x + ... + am x^m) / (1 + b1 x + ... + bk x^k) by Horner's
    rule, one tape node per slice, product, sum and the quotient."""
    n = num[num.data.shape[0] - 1]
    for i in range(num.data.shape[0] - 2, -1, -1):
        n = T.add(T.mul(n, x), num[i])
    d = den[den.data.shape[0] - 1]
    for i in range(den.data.shape[0] - 2, -1, -1):
        d = T.add(T.mul(d, x), den[i])
    d = T.add(T.mul(d, x), Tensor(np.asarray(1.0, dtype=x.data.dtype)))
    return T.div(n, d)


def plot_csv(obj):
    """A plot CSV as the per-value writer wrote it: header, then every
    value of every row formatted on its own."""
    lines = [",".join(obj.columns) + "\n"]
    for row in obj.rows():
        lines.append(",".join(f"{v:.12g}" for v in row) + "\n")
    return "".join(lines)


def logs_match(a, b) -> bool:
    """Exact equality of every value two run logs hold, wall clock aside."""
    if len(a.rows) != len(b.rows):
        return False
    for ra, rb in zip(a.rows, b.rows):
        for k in (set(ra) | set(rb)) - {"wall_clock"}:
            if ra.get(k) != rb.get(k):
                return False
    return True


def one_tape_step(model, segs, optimizer, cfg):
    """The plain train step with every segment on one tape: the mean loss
    over `segs`, one backward from it and one Adam step, the update
    skipped and counted when the loss is not finite. Returns (loss value,
    whether the update applied)."""
    from gradfx import losses as L
    from gradfx import tensor as T

    model.train()
    with T.Tape() as tape:
        tot = None
        for s in segs:
            c = None
            if getattr(s, "controls", None) is not None and len(s.controls):
                c = T.Tensor(np.asarray(s.controls, dtype=T.default_dtype()))
            x = T.Tensor(np.asarray(s.x, dtype=T.default_dtype()))
            y_hat, _ = model.forward(x, c, None)
            y = T.Tensor(np.asarray(s.y, dtype=y_hat.data.dtype))
            t = L.weighted_loss(y, y_hat, cfg.weights, cfg.mrstft_cfg)[0]
            tot = t if tot is None else T.add(tot, t)
        if len(segs) > 1:
            tot = T.mul(tot, T.Tensor(np.asarray(1.0 / len(segs),
                                                 dtype=tot.data.dtype)))
        loss_val = tot.item()
        if not np.isfinite(loss_val):
            optimizer.skipped += 1
            return loss_val, False
        return loss_val, optimizer.step(tape.backward(tot, optimizer.params))


def eq_design(params: Tensor, layout, fs: float) -> Tensor:
    """[..., S, 6] design of a layout over physical params [P] or [nb, P]:
    each section's f0, its gain if its kind is in GAIN_KINDS, then its Q."""
    if params.data.shape[-1] != _eq_size(layout):
        raise ValueError(f"expected {_eq_size(layout)} parameters, "
                         f"got {params.data.shape[-1]}")
    return _design(layout, *(None if c is None else params[..., c]
                             for c in _eq_columns(layout)), fs)


def apply_eq(x: Tensor, params: Tensor, layout, fs: float,
             block_size: int | None = None, history=None):
    """Biquad cascade of `eq_design(params, layout, fs)` over a 1-D signal,
    by exact direct-form-I recursion in one `T.biquad` node. Per-block
    params [nb, P] hold one coefficient set per `block_size` samples,
    applied to the history carried across blocks. Returns (y, the [S, 4]
    filter history after x); `history` is the one before x (None: zeros).
    """
    return T.biquad(x, _normalize(eq_design(params, layout, fs)),
                    block_size, history)
