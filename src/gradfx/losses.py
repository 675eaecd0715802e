"""Training losses and evaluation metrics over 1-D signals.

Everything here is a pure function of two equal-length signals and
differentiates through the tape. Metrics accept Tensors or plain arrays.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

MAG_FLOOR = 1e-8


def _pair(y, y_hat):
    y = y if isinstance(y, Tensor) else Tensor(np.asarray(y))
    y_hat = y_hat if isinstance(y_hat, Tensor) else Tensor(np.asarray(y_hat))
    if y.data.shape != y_hat.data.shape:
        raise ValueError(f"length mismatch: {y.data.shape} vs {y_hat.data.shape}")
    return y, y_hat


def l1(y, y_hat) -> Tensor:
    y, y_hat = _pair(y, y_hat)
    return T.mean_(T.abs_(T.sub(y, y_hat)))


def mse(y, y_hat) -> Tensor:
    y, y_hat = _pair(y, y_hat)
    d = T.sub(y, y_hat)
    return T.mean_(T.mul(d, d))


def mape(y, y_hat) -> Tensor:
    """Mean absolute percentage error; denominator floored at 1e-8."""
    y, y_hat = _pair(y, y_hat)
    denom = T.clip(T.abs_(y), lo=1e-8)
    return T.mean_(T.div(T.abs_(T.sub(y, y_hat)), denom))


def target_energy(y: Tensor) -> Tensor:
    """sum(y^2), the denominator of esr and dc_loss; a silent target
    raises ValueError."""
    e = T.sum_(T.mul(y, y))
    if float(e.data) == 0.0:
        raise ValueError("metric undefined for a silent target")
    return e


def esr(y, y_hat) -> Tensor:
    """Error-to-signal ratio: sum((y - y_hat)^2) / sum(y^2)."""
    y, y_hat = _pair(y, y_hat)
    e = target_energy(y)
    d = T.sub(y, y_hat)
    return T.div(T.sum_(T.mul(d, d)), e)


def dc_loss(y, y_hat) -> Tensor:
    """(mean(y) - mean(y_hat))^2 / mean(y^2)."""
    y, y_hat = _pair(y, y_hat)
    e = target_energy(y)
    n = float(y.data.size)
    d = T.sub(T.mean_(y), T.mean_(y_hat))
    return T.div(T.mul(d, d), T.div(e, Tensor(np.asarray(n, dtype=y.data.dtype))))


# -- multi-resolution spectral loss ------------------------------------------

class MRSTFTConfig:
    """STFT resolutions as (fft_size, hop, window_len) triples."""

    DEFAULT = ((1024, 256, 1024), (2048, 512, 2048), (512, 128, 512))

    def __init__(self, resolutions=DEFAULT):
        self.resolutions = tuple(tuple(int(v) for v in r) for r in resolutions)
        for fft_size, hop, win_len in self.resolutions:
            if not (fft_size >= win_len > hop > 0):
                raise ValueError(f"need fft >= window > hop > 0, got "
                                 f"({fft_size}, {hop}, {win_len})")

    @property
    def max_fft(self) -> int:
        return max(r[0] for r in self.resolutions)


def _hann(n: int, dtype) -> np.ndarray:
    # periodic window (N+1-point symmetric Hann minus the last sample)
    return np.hanning(n + 1)[:-1].astype(dtype)


def stft_mag(x: Tensor, fft_size: int, hop: int,
             win_len: int | None = None) -> Tensor:
    """Magnitude spectrogram [frames, bins]; frames start at sample 0."""
    win_len = fft_size if win_len is None else win_len
    n = x.data.shape[-1]
    if n < win_len:
        raise ValueError(f"signal length {n} shorter than window {win_len}")
    # the floor keeps sqrt differentiable and the magnitude >= the floor
    return T.stft_mag(x, _hann(win_len, x.data.dtype), fft_size, hop,
                      MAG_FLOOR)


def mrstft(y, y_hat, cfg: MRSTFTConfig | None = None) -> Tensor:
    """Mean over resolutions of spectral convergence + log-magnitude error."""
    cfg = cfg or MRSTFTConfig()
    y, y_hat = _pair(y, y_hat)
    if y.data.shape[-1] < cfg.max_fft:
        raise ValueError(f"signal length {y.data.shape[-1]} shorter than the "
                         f"largest fft size {cfg.max_fft}")
    total = None
    for fft_size, hop, win_len in cfg.resolutions:
        my = stft_mag(y, fft_size, hop, win_len)
        mh = stft_mag(y_hat, fft_size, hop, win_len)
        diff = T.sub(my, mh)
        sc = T.div(T.sqrt(T.sum_(T.mul(diff, diff))),
                   T.sqrt(T.sum_(T.mul(my, my))))
        logmag = T.mean_(T.abs_(T.sub(T.log(my), T.log(mh))))
        term = T.add(sc, logmag)
        total = term if total is None else T.add(total, term)
    k = np.asarray(1.0 / len(cfg.resolutions), dtype=y.data.dtype)
    return T.mul(total, Tensor(k))


class LossWeights:
    def __init__(self, w_l1: float = 1.0, w_mrstft: float = 1.0):
        if w_l1 < 0 or w_mrstft < 0:
            raise ValueError("loss weights must be nonnegative")
        if w_l1 == 0 and w_mrstft == 0:
            raise ValueError("at least one loss weight must be positive")
        self.w_l1 = float(w_l1)
        self.w_mrstft = float(w_mrstft)


def weighted_loss(y, y_hat, weights: LossWeights | None = None,
                  cfg: MRSTFTConfig | None = None):
    """w_l1 * l1 + w_mrstft * mrstft -> (taped total, l1 value, mrstft value).

    A zero-weight term is skipped, not computed, and its value reads 0.0.
    """
    w = weights or LossWeights()
    y, y_hat = _pair(y, y_hat)
    dt = y_hat.data.dtype
    parts = (l1(y, y_hat) if w.w_l1 > 0 else None,
             mrstft(y, y_hat, cfg) if w.w_mrstft > 0 else None)
    tot = None
    for part, weight in zip(parts, (w.w_l1, w.w_mrstft)):
        if part is not None:
            term = T.mul(part, Tensor(np.asarray(weight, dtype=dt)))
            tot = term if tot is None else T.add(tot, term)
    return (tot,) + tuple(0.0 if p is None else p.item() for p in parts)
