"""Controllers: map nothing/controls/signal to normalized [0,1] parameters.

Five kinds. Static ones emit one value per controlled parameter; dynamic
ones emit one value per control block (non-overlapping block means of
the signal, default 128 samples, zero-padded final block) through an
LSTM whose hidden size equals the number of controlled parameters.

Every controller shares one call shape so chains can thread them
uniformly:  controller(x, c, state) -> (ControlOutput, new_state).
"""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as T
from .tensor import Tensor


class ControlOutput:
    """values: [num_params] (static) or [num_blocks, num_params] (dynamic)."""

    def __init__(self, values, block_size=None):
        self.values = values
        self.block_size = block_size

    @property
    def is_dynamic(self):
        return self.values is not None and self.values.data.ndim == 2


def num_blocks(signal_len: int, block_size: int) -> int:
    return -(-signal_len // block_size)


def block_means(x: Tensor, block_size: int) -> Tensor:
    """Non-overlapping block means of a 1-D signal as an [nb, 1] feature."""
    nb = num_blocks(x.data.shape[-1], block_size)
    return T.reshape(T.blockmean1d(x, block_size), (nb, 1))


def append_controls(feats: Tensor, c) -> Tensor:
    """Concatenate the control vector, repeated over time, to [T, F] features."""
    if c is None or not c.data.size:
        return feats
    return T.concat([feats, T.repeat_new_axis(c, feats.data.shape[0], axis=0)],
                    axis=1)


def _check_controls(c, num_controls: int) -> None:
    if c is None or c.data.shape[-1] != num_controls:
        got = None if c is None else c.data.shape[-1]
        raise ValueError(f"expected {num_controls} controls, got {got}")


class Controller(nn.Module):
    num_params: int = 0

    def __call__(self, x=None, c=None, state=None):
        return self.forward(x=x, c=c, state=state)


class DummyController(Controller):
    """Placeholder for processors with no controlled parameters."""

    num_params = 0

    def forward(self, x=None, c=None, state=None):
        return ControlOutput(None), None


class StaticController(Controller):
    """g = sigmoid(b) with trainable b; starts at 0.5 (b = 0)."""

    def __init__(self, num_params: int):
        self.num_params = num_params
        self.b = Tensor(np.zeros(num_params, dtype=T.default_dtype()),
                        requires_grad=True)

    def forward(self, x=None, c=None, state=None):
        return ControlOutput(T.sigmoid(self.b)), None


class StaticCondController(Controller):
    """g = sigmoid(MLP(c)); tanh hidden layers."""

    def __init__(self, num_controls: int, num_params: int, rng: np.random.Generator,
                 layers: int = 3, hidden: int = 16):
        self.num_params = num_params
        self.num_controls = num_controls
        sizes = [num_controls] + [hidden] * (layers - 1) + [num_params]
        self.net = nn.MLP(sizes, rng)

    def forward(self, x=None, c=None, state=None):
        _check_controls(c, self.num_controls)
        return ControlOutput(T.sigmoid(self.net(c))), None


class DynamicController(Controller):
    """Signal-driven: block means (+ controls) -> LSTM (hidden = num
    params) -> sigmoid. Controls are required when num_controls > 0."""

    def __init__(self, num_params: int, rng: np.random.Generator,
                 block_size: int = 128, num_controls: int = 0):
        self.num_params = num_params
        self.num_controls = num_controls
        self.block_size = block_size
        self.lstm = nn.LSTM(1 + num_controls, num_params, rng)

    def zero_state(self, dtype=None):
        return self.lstm.zero_state(dtype)

    def forward(self, x=None, c=None, state=None):
        if x is None:
            raise ValueError("dynamic controller needs the signal")
        feats = block_means(x, self.block_size)
        if self.num_controls > 0:
            _check_controls(c, self.num_controls)
            feats = append_controls(feats, c)
        hs, state = self.lstm(feats, state)
        return ControlOutput(T.sigmoid(hs), self.block_size), state


class DynamicCondController(DynamicController):
    """DynamicController with controls appended to each block feature."""

    def __init__(self, num_params: int, num_controls: int, rng: np.random.Generator,
                 block_size: int = 128):
        super().__init__(num_params, rng, block_size, num_controls)


CONTROLLER_KINDS = {
    "dummy": DummyController,
    "static": StaticController,
    "static_cond": StaticCondController,
    "dynamic": DynamicController,
    "dynamic_cond": DynamicCondController,
}
