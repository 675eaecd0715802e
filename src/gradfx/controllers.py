"""Controllers: map nothing/controls/signal to normalized [0,1] parameters.

Five kinds. Static ones emit one value per controlled parameter; dynamic
ones emit one value per control block (non-overlapping block means of
the signal, default 128 samples, zero-padded final block) through an
LSTM whose hidden size equals the number of controlled parameters.

Every controller shares the call shape of every other gradfx module:
controller(x, c, state) -> (values, new_state), where values is None
(dummy), a [num_params] tensor (static) or a [num_blocks, num_params]
tensor (dynamic) and state None is the zero state. A dynamic
controller's values hold one row per `block_size` samples, an attribute
only it has.
"""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor


def num_blocks(signal_len: int, block_size: int) -> int:
    return -(-signal_len // block_size)


def time_major(x: Tensor) -> Tensor:
    """A signal [T] or B signals [B, T] as an LSTM input feature [T, 1] or
    [T, B, 1]."""
    if x.data.ndim == 2:
        x = T.transpose(x)
    return T.reshape(x, x.data.shape + (1,))


def block_means(x: Tensor, block_size: int) -> Tensor:
    """Non-overlapping block means of a signal [T] or signals [B, T] as a
    feature [nb, 1] or [nb, B, 1]."""
    return time_major(T.blockmean1d(x, block_size))


def _check_controls(c, num_controls: int) -> None:
    if c is None or c.data.shape[-1] != num_controls:
        got = None if c is None else c.data.shape[-1]
        raise ValueError(f"expected {num_controls} controls, got {got}")


def append_controls(feats: Tensor, c, num_controls: int) -> Tensor:
    """Concatenate the checked controls, repeated over time (and batch), to
    [T, (B,) F] features; with num_controls 0 the features pass and c is
    ignored."""
    if num_controls == 0:
        return feats
    _check_controls(c, num_controls)
    for n in reversed(feats.data.shape[:-1]):
        c = T.repeat_new_axis(c, n, axis=0)
    return T.concat([feats, c], axis=-1)


class DummyController(nn.Module):
    """Placeholder for processors with no controlled parameters."""

    def forward(self, x=None, c=None, state=None):
        return None, None


class StaticController(nn.Module):
    """g = sigmoid(b) with trainable b; starts at 0.5 (b = 0)."""

    def __init__(self, num_params: int):
        self.b = Tensor(np.zeros(num_params, dtype=T.default_dtype()),
                        requires_grad=True)

    def forward(self, x=None, c=None, state=None):
        return T.sigmoid(self.b), None


class StaticCondController(nn.Module):
    """g = sigmoid(MLP(c)); tanh hidden layers."""

    def __init__(self, num_controls: int, num_params: int, rng: np.random.Generator,
                 layers: int = 3, hidden: int = 16):
        self.num_controls = num_controls
        sizes = [num_controls] + [hidden] * (layers - 1) + [num_params]
        self.net = nn.MLP(sizes, rng)

    def forward(self, x=None, c=None, state=None):
        _check_controls(c, self.num_controls)
        return T.sigmoid(self.net(c)), None


class BlockLSTM(nn.Module):
    """Block-rate LSTM: block means of the signal (+ controls) -> LSTM,
    one [hidden] row per control block. Controls are required when
    num_controls > 0."""

    def __init__(self, hidden: int, rng: np.random.Generator,
                 block_size: int = 128, num_controls: int = 0):
        self.num_controls = num_controls
        self.block_size = block_size
        self.lstm = nn.LSTM(1 + num_controls, hidden, rng)

    def forward(self, x=None, c=None, state=None):
        if x is None:
            raise ValueError("a block-rate controller needs the signal")
        feats = append_controls(block_means(x, self.block_size), c,
                                self.num_controls)
        return self.lstm(feats, state)


class DynamicController(BlockLSTM):
    """Signal-driven: a BlockLSTM with hidden = num params, then sigmoid."""

    def forward(self, x=None, c=None, state=None):
        hs, state = super().forward(x, c, state)
        return T.sigmoid(hs), state


CONTROLLER_KINDS = ("dummy", "static", "static_cond", "dynamic",
                    "dynamic_cond")
