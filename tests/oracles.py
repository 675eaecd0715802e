"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written with plain numpy/scipy floats,
not with the package's own tensor ops, so the two routes share no code.
"""

import numpy as np
import scipy.signal


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
