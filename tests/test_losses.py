"""Losses and metrics against closed forms and the STFT oracle."""

import numpy as np
import pytest

import gradfx.tensor as T
from gradfx import losses as L
from gradfx.tensor import Tensor, grad_check

from oracles import stft_mag as oracle_stft, stft_mag_composed


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64))


def test_pointwise_metrics_closed_forms():
    y = np.array([1.0, 1.0])
    assert L.l1(y, np.zeros(2)).item() == pytest.approx(1.0)
    assert L.mse(y, np.zeros(2)).item() == pytest.approx(1.0)
    assert L.l1(y, y).item() == 0.0
    assert L.mape(np.array([2.0]), np.array([1.0])).item() == pytest.approx(0.5)
    with pytest.raises(ValueError):
        L.l1(np.zeros(3), np.zeros(4))


def test_esr_closed_forms():
    rng = np.random.default_rng(110)
    y = rng.standard_normal(100)
    assert L.esr(y, y).item() == 0.0
    assert L.esr(y, np.zeros_like(y)).item() == pytest.approx(1.0)
    assert L.esr(y, 2 * y).item() == pytest.approx(1.0)
    # jointly scale-invariant
    yh = rng.standard_normal(100)
    assert L.esr(3.7 * y, 3.7 * yh).item() == pytest.approx(
        L.esr(y, yh).item(), rel=1e-10)
    with pytest.raises(ValueError):
        L.esr(np.zeros(8), np.ones(8))


def test_dc_loss_closed_forms():
    rng = np.random.default_rng(111)
    y = rng.standard_normal(1000)
    y = y - y.mean()
    y = y / np.sqrt(np.mean(y ** 2))  # mean 0, power 1
    assert L.dc_loss(y, y).item() == 0.0
    assert L.dc_loss(y, y + 0.1).item() == pytest.approx(0.01, rel=1e-6)
    yh = rng.standard_normal(1000)
    assert L.dc_loss(y, yh - yh.mean()).item() == pytest.approx(0.0, abs=1e-12)


def test_mrstft_config_validation():
    with pytest.raises(ValueError):
        L.MRSTFTConfig([(512, 512, 512)])  # hop == window
    with pytest.raises(ValueError):
        L.MRSTFTConfig([(256, 128, 512)])  # window > fft
    cfg = L.MRSTFTConfig()
    assert cfg.max_fft == 2048


def test_stft_matches_oracle():
    rng = np.random.default_rng(112)
    x = rng.standard_normal(4096)
    for fft_size, hop in ((1024, 256), (2048, 512), (512, 128)):
        mine = L.stft_mag(t64(x), fft_size, hop).data
        ref = oracle_stft(x, fft_size, hop)
        assert mine.shape == ref.shape
        assert np.max(np.abs(mine - ref)) < 1e-7


def test_mrstft_matches_composed_stft_f64():
    rng = np.random.default_rng(118)
    y = rng.standard_normal(4096)
    yh = y + 0.1 * rng.standard_normal(4096)
    cfg = L.MRSTFTConfig(L.MRSTFTConfig.DEFAULT + ((512, 96, 400),))
    ref = 0.0
    for fft_size, hop, win_len in cfg.resolutions:
        win = np.hanning(win_len + 1)[:-1]
        g = np.zeros(((4096 - win_len) // hop + 1, fft_size // 2 + 1))
        my, _ = stft_mag_composed(y, win, fft_size, hop, L.MAG_FLOOR, g)
        mh, _ = stft_mag_composed(yh, win, fft_size, hop, L.MAG_FLOOR, g)
        mine = L.stft_mag(t64(yh), fft_size, hop, win_len).data
        assert np.max(np.abs(mine - mh) / mh) < 1e-12
        ref += (np.linalg.norm(my - mh) / np.linalg.norm(my)
                + np.mean(np.abs(np.log(my) - np.log(mh))))
    ref /= len(cfg.resolutions)
    assert abs(L.mrstft(t64(y), t64(yh), cfg).item() - ref) < 1e-12 * ref


def test_mrstft_properties():
    rng = np.random.default_rng(113)
    y = rng.standard_normal(4096)
    assert L.mrstft(t64(y), t64(y)).item() == pytest.approx(0.0, abs=1e-9)
    # phase-blind: a sign flip leaves magnitudes untouched
    assert L.mrstft(t64(y), t64(-y)).item() == pytest.approx(0.0, abs=1e-9)
    # noise vs silence is clearly nonzero
    assert L.mrstft(t64(y), t64(np.zeros_like(y))).item() > 0.1
    with pytest.raises(ValueError):
        L.mrstft(t64(y[:1024]), t64(y[:1024]))  # shorter than largest fft


def test_combined_loss_weights():
    rng = np.random.default_rng(114)
    y = rng.standard_normal(4096)
    yh = y + 0.1 * rng.standard_normal(4096)
    only_l1, l1_val, mr_val = L.weighted_loss(t64(y), t64(yh),
                                              L.LossWeights(1.0, 0.0))
    assert only_l1.item() == pytest.approx(L.l1(t64(y), t64(yh)).item())
    assert l1_val == only_l1.item() and mr_val == 0.0  # zero weight: skipped
    assert L.weighted_loss(t64(y), t64(y))[0].item() == pytest.approx(0.0, abs=1e-9)

    tot, l1_val, mr_val = L.weighted_loss(t64(y), t64(yh))
    parts = L.l1(t64(y), t64(yh)).item() + L.mrstft(t64(y), t64(yh)).item()
    assert abs(tot.item() - parts) < 1e-9
    assert abs(l1_val + mr_val - parts) < 1e-9

    with pytest.raises(ValueError):
        L.LossWeights(0.0, 0.0)
    with pytest.raises(ValueError):
        L.LossWeights(-1.0, 1.0)


def test_losses_nonnegative_and_zero_iff_equal():
    rng = np.random.default_rng(115)
    y = rng.standard_normal(600)
    yh = y + 1e-3 * rng.standard_normal(600)
    for fn in (L.l1, L.mse, L.esr):
        assert fn(y, yh).item() > 0
        assert fn(y, y).item() == 0.0


def test_combined_loss_gradient():
    rng = np.random.default_rng(116)
    y = rng.standard_normal(600)
    cfg = L.MRSTFTConfig([(256, 64, 256), (128, 32, 128)])

    def f(ts):
        return L.weighted_loss(Tensor(y), ts[0], cfg=cfg)[0]

    # scaled target keeps every |log|Y|-log|Y_hat|| at log 2: central
    # differences are meaningless at the abs() kink, so stay off it
    yh = t64(2.0 * y)
    assert grad_check(f, [yh]) < 1e-4

    def f_mr(ts):
        return L.mrstft(Tensor(y), ts[0], cfg)

    assert grad_check(f_mr, [t64(2.0 * y)]) < 1e-4


def test_metric_gradients():
    rng = np.random.default_rng(117)
    y = rng.standard_normal(64)
    yh0 = y + 0.3 * rng.standard_normal(64)
    for fn in (L.mse, L.esr, L.dc_loss, L.mape):
        def f(ts, fn=fn):
            return fn(Tensor(y), ts[0])
        assert grad_check(f, [t64(yh0)]) < 1e-4, fn.__name__
