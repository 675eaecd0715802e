"""Checkpoint compatibility: state_dict keys and seeded initial weights.

A checkpoint stores parameters by state_dict() key, and a seed fixes the
initial weights through the order of RNG draws at build time. Both are
pinned here for every model kind, so a refactor that renames a key,
reorders parameters or draws from the generator in another order fails
loudly instead of breaking old checkpoints or seeded runs.
"""

import hashlib

import numpy as np
import pytest

from gradfx import models as M

SEED = 7

STACK = ["stack.convs.0.w", "stack.convs.0.b", "stack.convs.1.w",
         "stack.convs.1.b", "stack.shortcut.w", "stack.shortcut.b"]
MIXER = ["mixer.w", "mixer.b"]
LSTM = ["lstm.cell.w_x", "lstm.cell.w_h", "lstm.cell.b"]


def _lstm(prefix):
    return [prefix + k for k in LSTM]


def _layers(prefix, n):
    return [f"{prefix}layers.{i}.{p}" for i in range(n) for p in ("w", "b")]


def _per_block(prefix, suffixes):
    return [f"{prefix}{k}.{s}" for k in range(2) for s in suffixes]


FILM = (_layers("stack.conditioner.generator.", 2)
        + _per_block("stack.conditioner.heads.", ("w", "b")))
TFILM = (_per_block("stack.conditioner.lstms.", ("cell.w_x", "cell.w_h", "cell.b"))
         + _per_block("stack.conditioner.heads.", ("w", "b")))
TTFILM = (_per_block("stack.conditioner.reduce.", ("w", "b"))
          + _per_block("stack.conditioner.lstms.", ("cell.w_x", "cell.w_h", "cell.b"))
          + _layers("stack.conditioner.expand.0.", 2)
          + _layers("stack.conditioner.expand.1.", 2))
TVFILM = (_lstm("stack.conditioner.controller.")
          + _per_block("stack.conditioner.heads.", ("w", "b")))

GRAYBOX_STAGES = [
    {"processor": "phase_inv", "controller": "dummy"},
    {"processor": "gain", "controller": "static"},
    {"processor": "parametric_eq", "controller": "static_cond"},
    {"processor": "dc_offset", "controller": "dynamic"},
    {"processor": "shelving_eq", "controller": "dynamic_cond"},
    {"processor": "fir", "processor_opts": {"num_taps": 8, "width": 4},
     "controller": "dummy"},
    {"processor": "rational", "controller": "dummy"},
    {"processor": "mlp", "controller": "dummy"},
    {"processor": "tanh", "controller": "dummy"},
]


def _conv(cond, **kw):
    return dict(blocks=2, kernel=3, dilation_growth=2, channels=12, cond=cond,
                **kw)


# name -> (spec kwargs, state_dict keys in order, sha256 of initial weights)
CASES = {
    "lstm_none": (
        dict(lstm={"hidden": 4, "cond_mode": "none"}),
        LSTM + ["out.w", "out.b"],
        "76444718e36f7879148fdd2b3a1036ab22dbe280067312a7c949801f02062dea"),
    "lstm_concat": (
        dict(num_controls=2, lstm={"hidden": 4, "cond_mode": "concat"}),
        LSTM + ["out.w", "out.b"],
        "6c674e8617b19e6cfbdde1d8c7761e3960a918be2c2384ba15cdeaea0dfb2cc3"),
    "lstm_tvcond": (
        dict(num_controls=2, lstm={"hidden": 4, "cond_mode": "tvcond"}),
        _lstm("generator.controller.") + LSTM + ["out.w", "out.b"],
        "b7ed9def62709a2e96b4356bca28ddd0cd4d928c2b135f102173465eaf8e0926"),
    "tcn_none": (
        dict(num_controls=2, tcn=_conv("none")), STACK + MIXER,
        "b293128ffb77efd6f47d68a2d85bb0a4cf892f174a1d77c9efaf341c46b1d2d5"),
    "tcn_film": (
        dict(num_controls=2, tcn=_conv("film")), STACK + FILM + MIXER,
        "575f0b939b02e270b81a456154028f08b3d45e79ab54dcc9e8bb2a4ab84f8fca"),
    "tcn_tfilm": (
        dict(num_controls=2, tcn=_conv("tfilm")), STACK + TFILM + MIXER,
        "145852e08e57ba595701cd3db87139dded85d0d9d8184e598bc39cbbeb1c836d"),
    "tcn_ttfilm": (
        dict(num_controls=2, tcn=_conv("ttfilm")), STACK + TTFILM + MIXER,
        "c3a9df6db99e8353c2cd69eba4c74670f23ff0af7b7d56d915924699b511af5d"),
    "tcn_tvfilm": (
        dict(num_controls=2, tcn=_conv("tvfilm")), STACK + TVFILM + MIXER,
        "57d045bb1638464352e2053f13545ba1de32cbbc672b5bc3c7d08fe66a9ae28e"),
    "tcn_batchnorm": (
        dict(tcn=dict(blocks=2, kernel=3, dilation_growth=2, channels=4,
                      batchnorm=True)),
        STACK + _per_block("stack.norms.", ("gamma", "beta")) + MIXER
        + _per_block("stack.norms.", ("_buf_running_mean", "_buf_running_var")),
        "3dcc4bb803ece0aaece7c0b422567c48b0319a20963f8479a24b2fcf4629ffd0"),
    "gcn_none": (
        dict(num_controls=2, gcn=_conv("none")), STACK + MIXER,
        "89414cadc82598f06697aa56d32c3c87bc0bf40739a6015d09302197b529af55"),
    "gcn_film": (
        dict(num_controls=2, gcn=_conv("film")), STACK + FILM + MIXER,
        "b2b1933ec5c4826492babb4521ff2f9181490f0b7dbb690f8ff89004e90a9478"),
    "gcn_tfilm": (
        dict(num_controls=2, gcn=_conv("tfilm")), STACK + TFILM + MIXER,
        "a1b88eea268ef4be20754ac2416f0b2d0525df40d2363d92604d90cf9f1c5667"),
    "gcn_ttfilm": (
        dict(num_controls=2, gcn=_conv("ttfilm")), STACK + TTFILM + MIXER,
        "b1b16b5bd59792f7c0230837c50d0071b1e8ecf419dd0ae5bd5a75762bff8e83"),
    "gcn_tvfilm": (
        dict(num_controls=2, gcn=_conv("tvfilm")), STACK + TVFILM + MIXER,
        "1ef0274bfe6b09ce5eb8ab7dc6340aa909ee670c9b19cdb85228491e35474db3"),
    "graybox_all_controllers": (
        dict(num_controls=2, graybox={"stages": GRAYBOX_STAGES}),
        _layers("processors.5.net.", 3)
        + ["processors.6.num", "processors.6.den"]
        + _layers("processors.7.net.", 3)
        + ["controllers.1.b"]
        + _layers("controllers.2.net.", 3)
        + _lstm("controllers.3.") + _lstm("controllers.4.")
        + ["processors.5._buf_positions"],
        "4b83a98ed2368a41fdb27a52c1a2007f47c8f25b04873bd545580a56f89ff0c9"),
}


def _digest(state: dict) -> str:
    h = hashlib.sha256()
    for k, v in state.items():
        a = np.ascontiguousarray(v)
        h.update(f"{k}:{a.dtype}:{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_state_dict_keys_and_seeded_weights_are_pinned(name):
    kwargs, keys, digest = CASES[name]
    state = M.ModelSpec(**kwargs).build(np.random.default_rng(SEED)).state_dict()
    assert list(state) == keys
    assert _digest(state) == digest
