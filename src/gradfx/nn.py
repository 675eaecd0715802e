"""Neural building blocks on top of the tape: linear, conv, LSTM, MLP.

Parameter containers walk their attributes in definition order, so
named_parameters / state_dict ordering is deterministic for a given
architecture. Weights initialize uniform in +/- sqrt(1/fan_in).
"""

from __future__ import annotations

import math

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _uniform(rng: np.random.Generator, shape, fan_in: int, dtype=None) -> Tensor:
    bound = math.sqrt(1.0 / fan_in)
    data = rng.uniform(-bound, bound, size=shape)
    return Tensor(data.astype(dtype or T.default_dtype()), requires_grad=True)


def load_arrays(live, saved: dict, what: str) -> None:
    """Write each saved array into the live (name, array) of its name, in
    place and in the live dtype. Raises ValueError naming an entry, before
    any write, unless both sides name the same arrays, pairs of one shape."""
    live = dict(live)
    for name in dict.fromkeys([*live, *saved]):
        if name not in live or name not in saved:
            raise ValueError(f"{what} entry {name} is "
                             f"{'missing' if name in live else 'unknown'}")
        if np.shape(saved[name]) != live[name].shape:
            raise ValueError(f"{what} entry {name} has shape "
                             f"{np.shape(saved[name])}, expected "
                             f"{live[name].shape}")
    for name, a in live.items():
        a[...] = saved[name]


class Module:
    """Base class: parameter discovery, mode flags, checkpoint dicts."""

    training: bool = True

    def _walk(self, prefix: str = ""):
        """(dotted name, value) for every attribute and every item of a
        list or tuple attribute, depth-first in definition order, entering
        each Module found."""
        for name, value in vars(self).items():
            full = prefix + name
            entries = [(full, value)]
            if isinstance(value, (list, tuple)):
                entries += [(f"{full}.{i}", item) for i, item in enumerate(value)]
            for key, item in entries:
                yield key, item
                if isinstance(item, Module):
                    yield from item._walk(key + ".")

    def named_parameters(self):
        """Trainable tensors; a name starting with "_" hides its subtree."""
        return [(k, v) for k, v in self._walk()
                if isinstance(v, Tensor) and v.requires_grad
                and not any(part.startswith("_") for part in k.split("."))]

    def parameters(self):
        return [p for _, p in self.named_parameters()]

    def modules(self):
        yield self
        for _, v in self._walk():
            if isinstance(v, Module):
                yield v

    def train(self, mode: bool = True):
        for m in self.modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def named_buffers(self):
        """Attributes named _buf_*, at any depth."""
        return [(k, v) for k, v in self._walk()
                if k.rpartition(".")[2].startswith("_buf_")]

    def named_arrays(self):
        """(name, array) of each parameter's data, then each buffer."""
        return ([(k, p.data) for k, p in self.named_parameters()]
                + self.named_buffers())

    def state_dict(self) -> dict:
        return {name: np.array(a) for name, a in self.named_arrays()}

    def load_state_dict(self, state: dict) -> None:
        """Write saved arrays into the live ones (see load_arrays)."""
        load_arrays(self.named_arrays(), state, "state")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine map. Weight stored [in, out] so x @ w works without transpose."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator):
        self.w = _uniform(rng, (in_features, out_features), in_features)
        self.b = Tensor(np.zeros(out_features, dtype=T.default_dtype()),
                        requires_grad=True)

    def forward(self, x: Tensor) -> Tensor:
        return T.add(T.matmul(x, self.w), self.b)


class Conv1d(Module):
    """Causal dilated conv over [C_in, T] -> [C_out, T], stride 1."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 rng: np.random.Generator, dilation: int = 1):
        self.dilation = dilation
        self.w = _uniform(rng, (out_channels, in_channels, kernel_size),
                          in_channels * kernel_size)
        self.b = Tensor(np.zeros(out_channels, dtype=T.default_dtype()),
                        requires_grad=True)

    @property
    def context_len(self) -> int:
        """Inputs before x each call needs: (kernel_size - 1) * dilation."""
        return (self.w.data.shape[-1] - 1) * self.dilation

    def forward(self, x: Tensor, context=None) -> Tensor:
        """context: the [C_in, context_len] inputs before x, zeros when None."""
        return T.conv1d(x, self.w, self.b, dilation=self.dilation,
                        context=context)


class LSTMCell(Module):
    """LSTM weights, gates ordered (input, forget, cell, output).

    Forget-gate bias starts at 1.0 so early training does not flush state.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.hidden_size = hidden_size
        h = hidden_size
        self.w_x = _uniform(rng, (input_size, 4 * h), input_size)
        self.w_h = _uniform(rng, (h, 4 * h), h)
        b = np.zeros(4 * h, dtype=T.default_dtype())
        b[h:2 * h] = 1.0
        self.b = Tensor(b, requires_grad=True)


class LSTM(Module):
    """Runs an LSTMCell across [T, in] -> [T, hidden], or B sequences at
    once across [T, B, in] -> [T, B, hidden], with explicit state.

    The whole layer, input projection and recurrence, is the `lstm`
    primitive: one tape node per call whether or not a tape is recording,
    so training and inference run the same loop. The batched form is
    inference only: `lstm` records no gradient for it.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: np.random.Generator):
        self.cell = LSTMCell(input_size, hidden_size, rng)

    def zero_state(self, dtype=None, batch=()):
        z = np.zeros(tuple(batch) + (self.cell.hidden_size,),
                     dtype=dtype or T.default_dtype())
        return (Tensor(z), Tensor(z.copy()))

    def forward(self, x: Tensor, state=None):
        """State (h, c) is [hidden] or [B, hidden]; None is zeros."""
        xd = x.data
        n = xd.shape[0]
        if state is None:
            state = self.zero_state(xd.dtype, xd.shape[1:-1])
        cell = self.cell
        out = T.lstm(x, cell.w_x, cell.b, cell.w_h, *state)  # [T + 2, H]
        y, h, c = out[0:n], out[n], out[n + 1]
        # a carried state that holds no view of the whole sequence
        h.data, c.data = h.data.copy(), c.data.copy()
        return y, (h, c)


class MLP(Module):
    """Stack of Linear layers with tanh between them; linear output."""

    def __init__(self, sizes, rng: np.random.Generator):
        if len(sizes) < 2:
            raise ValueError("MLP needs at least input and output sizes")
        self.layers = [Linear(sizes[i], sizes[i + 1], rng)
                       for i in range(len(sizes) - 1)]

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers[:-1]:
            x = T.tanh(layer(x))
        return self.layers[-1](x)


class SirenMLP(Module):
    """MLP with sine activations; first layer pre-activation scaled by w0.

    Matches the shape of the stored tanh surrogate weights, so the prefit
    JSON can be loaded directly.
    """

    def __init__(self, sizes, rng: np.random.Generator, w0: float = 30.0):
        self.layers = [Linear(sizes[i], sizes[i + 1], rng)
                       for i in range(len(sizes) - 1)]
        self.w0 = w0

    def forward(self, x: Tensor) -> Tensor:
        for idx, layer in enumerate(self.layers[:-1]):
            z = layer(x)
            if idx == 0:
                z = T.mul(z, Tensor(np.asarray(self.w0, dtype=z.data.dtype)))
            x = T.sin(z)
        return self.layers[-1](x)


class BatchNorm1d(Module):
    """Channel-wise normalization over the time axis of [C, T].

    Training uses current statistics and updates running averages; eval
    uses the running averages.
    """

    def __init__(self, channels: int, momentum: float = 0.1, eps: float = 1e-5):
        self.channels = channels
        self.momentum = momentum
        self.eps = eps
        dt = T.default_dtype()
        self.gamma = Tensor(np.ones((channels, 1), dtype=dt), requires_grad=True)
        self.beta = Tensor(np.zeros((channels, 1), dtype=dt), requires_grad=True)
        self._buf_running_mean = np.zeros((channels, 1), dtype=dt)
        self._buf_running_var = np.ones((channels, 1), dtype=dt)

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            mu = T.mean_(x, axis=1, keepdims=True)
            xc = T.sub(x, mu)
            var = T.mean_(T.mul(xc, xc), axis=1, keepdims=True)
            m = self.momentum
            self._buf_running_mean = (1 - m) * self._buf_running_mean + m * mu.data
            self._buf_running_var = (1 - m) * self._buf_running_var + m * var.data
            inv = T.div(Tensor(np.asarray(1.0, dtype=x.data.dtype)),
                        T.sqrt(T.add(var, Tensor(np.asarray(self.eps, dtype=x.data.dtype)))))
            xn = T.mul(xc, inv)
        else:
            mu = Tensor(self._buf_running_mean.astype(x.data.dtype))
            std = Tensor(np.sqrt(self._buf_running_var + self.eps).astype(x.data.dtype))
            xn = T.div(T.sub(x, mu), std)
        return T.add(T.mul(xn, self.gamma), self.beta)
