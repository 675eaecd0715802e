"""Conditioning for black-box backbones: FiLM and its temporal variants.

All variants modulate activations h[channels, time] with a per-channel
affine (gamma * h + beta). They differ in where (gamma, beta) come from:

  FiLM     one MLP latent from the controls; a linear head per network
           block emits static (gamma, beta)
  TFiLM    per network block: max-pooled activations (+controls) drive
           an LSTM; per-time-block (gamma, beta)
  TTFiLM   TFiLM with the LSTM squeezed to r channels by a linear layer
           and widened back by a small MLP
  TVFiLM   one shared LSTM over the downsampled model input emits a
           time-varying latent; per-block linear heads emit (gamma, beta)
  TVCond   the same shared controller, but its latent is upsampled and
           concatenated to a recurrent model's input instead

The four FiLM variants share one call shape: latents(x, c, state) ->
(z, state) once per forward, then modulate(k, h, z) -> h once per
network block. State None is the zero state. Every gamma-producing
head starts as the identity (zero weights, gamma bias 1, beta bias 0).
The constructors build what they are given: which sizes and control
counts make a valid model is decided by `models.ModelSpec` at load.
"""

from __future__ import annotations

import numpy as np

from . import nn
from . import tensor as T
from .controllers import BlockLSTM, _check_controls, append_controls, num_blocks
from .tensor import Tensor

# Width TTFiLM's LSTM works at, which a model's channels must exceed
TTFILM_REDUCED = 8


def film_apply(h: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Per-channel affine over [channels, time]; gamma/beta are [channels]."""
    if gamma.data.shape[-1] != h.data.shape[0]:
        raise ValueError(f"channel mismatch: h has {h.data.shape[0]}, "
                         f"gamma has {gamma.data.shape[-1]}")
    c = h.data.shape[0]
    return T.add(T.mul(h, T.reshape(gamma, (c, 1))), T.reshape(beta, (c, 1)))


def blockwise_affine(h: Tensor, gamma_seq: Tensor, beta_seq: Tensor,
                     block_size: int) -> Tensor:
    """Apply per-time-block (gamma, beta) [Tb, C] to h [C, T], held per block."""
    c, t = h.data.shape
    tb = gamma_seq.data.shape[0]
    if tb != num_blocks(t, block_size):
        raise ValueError(f"got {tb} modulation blocks, signal needs "
                         f"{num_blocks(t, block_size)}")
    gs = T.upsample1d(T.transpose(gamma_seq), block_size)[:, 0:t]
    bs = T.upsample1d(T.transpose(beta_seq), block_size)[:, 0:t]
    return T.add(T.mul(h, gs), bs)


def _identity_head(layer: nn.Linear, channels: int) -> nn.Linear:
    """Zero weights; bias = [1]*C (gamma) + [0]*C (beta)."""
    layer.w.data = np.zeros_like(layer.w.data)
    b = np.zeros(2 * channels, dtype=layer.b.data.dtype)
    b[:channels] = 1.0
    layer.b.data = b
    return layer


def _split_gamma_beta(gb: Tensor, channels: int):
    if gb.data.ndim == 1:
        return gb[0:channels], gb[channels:2 * channels]
    return gb[:, 0:channels], gb[:, channels:2 * channels]


class FiLM(nn.Module):
    """Static conditioning: z = MLP(c); per-block heads z -> (gamma, beta)."""

    def __init__(self, num_controls: int, channels: int, net_blocks: int,
                 rng: np.random.Generator, hidden: int = 16, latent: int = 32):
        self.channels = channels
        self.num_controls = num_controls
        self.generator = nn.MLP([num_controls, hidden, latent], rng)
        self.heads = [_identity_head(nn.Linear(latent, 2 * channels, rng), channels)
                      for _ in range(net_blocks)]

    def latents(self, x: Tensor, c, state):
        _check_controls(c, self.num_controls)
        return self.latent(c), None

    def latent(self, c: Tensor) -> Tensor:
        return self.generator(c)

    def modulate(self, k: int, h: Tensor, z: Tensor) -> Tensor:
        gamma, beta = _split_gamma_beta(self.heads[k](z), self.channels)
        return film_apply(h, gamma, beta)


class TFiLM(nn.Module):
    """Per-block temporal FiLM: pooled activations (+c) -> LSTM -> heads.

    The context is (c, per-block LSTM states); each block's new state is
    written into it, so the states returned by `latents` fill up as the
    blocks run and the caller's list is never touched.
    """

    def __init__(self, num_controls: int, channels: int, net_blocks: int,
                 rng: np.random.Generator, block_size: int = 128):
        self.channels = channels
        self.num_controls = num_controls
        self.block_size = block_size
        self.lstms = [nn.LSTM(channels + num_controls, 2 * channels, rng)
                      for _ in range(net_blocks)]
        self.heads = [_identity_head(nn.Linear(2 * channels, 2 * channels, rng), channels)
                      for _ in range(net_blocks)]

    def latents(self, x: Tensor, c, state):
        states = [None] * len(self.lstms) if state is None else list(state)
        return (c, states), states

    def _squeeze(self, k: int, pooled: Tensor) -> Tensor:
        return pooled

    def _widen(self, k: int, hs: Tensor) -> Tensor:
        return self.heads[k](hs)

    def modulate(self, k: int, h: Tensor, z) -> Tensor:
        c, states = z
        pooled = T.transpose(T.maxpool1d(h, self.block_size))  # [Tb, C]
        feats = append_controls(self._squeeze(k, pooled), c, self.num_controls)
        hs, states[k] = self.lstms[k](feats, states[k])
        gamma, beta = _split_gamma_beta(self._widen(k, hs), self.channels)
        return blockwise_affine(h, gamma, beta, self.block_size)


class TTFiLM(TFiLM):
    """TFiLM with a reduced-width LSTM: C -> r before, MLP r -> 2C after."""

    def __init__(self, num_controls: int, channels: int, net_blocks: int,
                 rng: np.random.Generator, block_size: int = 128,
                 reduced: int = TTFILM_REDUCED, expand_hidden: int = 24):
        self.channels = channels
        self.num_controls = num_controls
        self.block_size = block_size
        self.reduce = [nn.Linear(channels, reduced, rng) for _ in range(net_blocks)]
        self.lstms = [nn.LSTM(reduced + num_controls, reduced, rng)
                      for _ in range(net_blocks)]
        self.expand = []
        for _ in range(net_blocks):
            mlp = nn.MLP([reduced, expand_hidden, 2 * channels], rng)
            _identity_head(mlp.layers[-1], channels)
            self.expand.append(mlp)

    def _squeeze(self, k: int, pooled: Tensor) -> Tensor:
        return self.reduce[k](pooled)

    def _widen(self, k: int, hs: Tensor) -> Tensor:
        return self.expand[k](hs)


class TVFiLM(nn.Module):
    """Time-varying FiLM: shared latent sequence, per-block identity heads."""

    def __init__(self, num_controls: int, channels: int, net_blocks: int,
                 rng: np.random.Generator, block_size: int = 128, latent: int = 32):
        self.channels = channels
        self.block_size = block_size
        self.controller = BlockLSTM(latent, rng, block_size, num_controls)
        self.heads = [_identity_head(nn.Linear(latent, 2 * channels, rng), channels)
                      for _ in range(net_blocks)]

    def latents(self, x: Tensor, c, state):
        return self.controller(x, c, state)

    def modulate(self, k: int, h: Tensor, z_seq: Tensor) -> Tensor:
        tb = z_seq.data.shape[0]
        if tb != num_blocks(h.data.shape[-1], self.block_size):
            raise ValueError(f"latent has {tb} blocks, activations need "
                             f"{num_blocks(h.data.shape[-1], self.block_size)}")
        gamma, beta = _split_gamma_beta(self.heads[k](z_seq), self.channels)
        return blockwise_affine(h, gamma, beta, self.block_size)


class TVCond(nn.Module):
    """Shared controller latent, upsampled and concatenated to model input."""

    def __init__(self, num_controls: int, rng: np.random.Generator,
                 block_size: int = 128, latent: int = 16):
        self.controller = BlockLSTM(latent, rng, block_size, num_controls)
        self.block_size = block_size

    def generate(self, x: Tensor, c, state):
        """Returns [T, latent] for x [T], or [T, B, latent] for x [B, T],
        ready to concatenate on the feature dim."""
        n = x.data.shape[-1]
        z, state = self.controller(x, c, state)
        up = T.upsample1d(T.transpose(z), self.block_size)
        zs = T.transpose(up[(slice(None),) * (up.data.ndim - 1) + (slice(0, n),)])
        return zs, state
