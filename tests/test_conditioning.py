"""Feature modulation layers: identity at init, shapes, state handling."""

import numpy as np
import pytest

import gradfx.tensor as T
from gradfx import conditioning as F
from gradfx.controllers import BlockLSTM
from gradfx.models import ModelSpec
from gradfx.tensor import Tensor, Tape, grad_check


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64))


# -- affine helpers ----------------------------------------------------------

def test_film_apply_examples():
    h = Tensor(np.full((2, 4), 0.5, dtype=np.float32))
    two = Tensor(np.array([2.0, 2.0], dtype=np.float32))
    one = Tensor(np.array([1.0, 1.0], dtype=np.float32))
    zero = Tensor(np.array([0.0, 0.0], dtype=np.float32))
    assert np.allclose(F.film_apply(h, two, one).data, 2.0)
    assert np.array_equal(F.film_apply(h, one, zero).data, h.data)

    beta = Tensor(np.array([3.0, -1.0], dtype=np.float32))
    out = F.film_apply(h, zero, beta).data
    assert np.allclose(out[0], 3.0) and np.allclose(out[1], -1.0)

    with pytest.raises(ValueError):
        F.film_apply(h, Tensor(np.zeros(3, dtype=np.float32)), beta)


def test_blockwise_affine_upsamples_and_crops():
    h = Tensor(np.ones((2, 10), dtype=np.float32))
    # 3 blocks of 4 cover 10 samples, last block truncated
    g = Tensor(np.array([[1.0, 1.0], [2.0, 2.0], [0.0, 0.0]],
                        dtype=np.float32))
    b = Tensor(np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0]],
                        dtype=np.float32))
    out = F.blockwise_affine(h, g, b, 4).data
    assert out.shape == (2, 10)
    assert np.allclose(out[:, :4], 1.0)
    assert np.allclose(out[:, 4:8], 2.0)
    assert np.allclose(out[:, 8:], 5.0)

    with pytest.raises(ValueError):
        F.blockwise_affine(h, g[0:2], b[0:2], 4)


# -- static FiLM -------------------------------------------------------------

def test_film_identity_at_init():
    rng = np.random.default_rng(60)
    film = F.FiLM(2, channels=8, net_blocks=3, rng=rng)
    c = Tensor(np.array([0.3, 0.9], dtype=np.float32))
    z = film.latent(c)
    h = Tensor(rng.standard_normal((8, 32)).astype(np.float32))
    for k in range(3):
        out = film.modulate(k, h, z)
        assert np.array_equal(out.data, h.data)


def test_film_gradient_to_controls():
    rng = np.random.default_rng(61)
    T.set_default_dtype(np.float64)
    try:
        film = F.FiLM(2, channels=4, net_blocks=2, rng=rng)
    finally:
        T.set_default_dtype(np.float32)
    # identity init has zero head weights, gradient would vanish; perturb
    for head in film.heads:
        head.w.data = rng.standard_normal(head.w.data.shape) * 0.3
    h = rng.standard_normal((4, 8))
    w = rng.standard_normal((4, 8))

    def f(ts):
        z = film.latent(ts[0])
        out = film.modulate(0, Tensor(h), z)
        out = film.modulate(1, out, z)
        return T.sum_(T.mul(out, Tensor(w)))

    assert grad_check(f, [t64([0.4, 0.7])]) < 1e-4


# -- temporal FiLM -----------------------------------------------------------

def test_tfilm_identity_at_init():
    rng = np.random.default_rng(62)
    tf = F.TFiLM(2, channels=6, net_blocks=2, rng=rng, block_size=8)
    h = Tensor(rng.standard_normal((6, 24)).astype(np.float32))
    c = Tensor(np.array([0.5, 0.5], dtype=np.float32))
    z, state = tf.latents(None, c, None)
    out = tf.modulate(0, h, z)
    assert np.array_equal(out.data, h.data)
    assert state[0] is not None


def test_tfilm_full_length_block_is_single_step():
    rng = np.random.default_rng(63)
    tf = F.TFiLM(1, channels=4, net_blocks=1, rng=rng, block_size=16)
    h = Tensor(rng.standard_normal((4, 16)).astype(np.float32))
    c = Tensor(np.array([0.2], dtype=np.float32))
    z, st = tf.latents(None, c, None)
    tf.modulate(0, h, z)
    hn, cn = st[0]
    assert hn.data.shape == (8,)  # hidden 2*channels after the single block


def test_tfilm_chunked_equals_one_shot():
    rng = np.random.default_rng(64)
    tf = F.TFiLM(1, channels=4, net_blocks=1, rng=rng, block_size=8)
    # non-identity behavior: randomize head so modulation actually varies
    tf.heads[0].w.data = (rng.standard_normal(tf.heads[0].w.data.shape)
                          * 0.2).astype(np.float32)
    h = rng.standard_normal((4, 64)).astype(np.float32)
    c = Tensor(np.array([0.8], dtype=np.float32))
    full = tf.modulate(0, Tensor(h), tf.latents(None, c, None)[0])
    z, st = tf.latents(None, c, None)
    a = tf.modulate(0, Tensor(h[:, :32]), z)
    b = tf.modulate(0, Tensor(h[:, 32:]), tf.latents(None, c, st)[0])
    stitched = np.concatenate([a.data, b.data], axis=1)
    assert np.max(np.abs(stitched - full.data)) < 1e-6


def test_ttfilm_identity_and_reduction_guard():
    rng = np.random.default_rng(65)
    ttf = F.TTFiLM(2, channels=12, net_blocks=2, rng=rng, block_size=8,
                   reduced=4)
    h = Tensor(rng.standard_normal((12, 32)).astype(np.float32))
    c = Tensor(np.array([0.1, 0.6], dtype=np.float32))
    out = ttf.modulate(0, h, ttf.latents(None, c, None)[0])
    assert np.array_equal(out.data, h.data)

    # the guard lives in the model spec, which rejects it at load
    with pytest.raises(ValueError, match="reduced width must be smaller"):
        ModelSpec(num_controls=2, tcn={"channels": 4, "cond": "ttfilm"})


def test_ttfilm_cheaper_than_tfilm():
    rng = np.random.default_rng(66)
    kw = dict(num_controls=2, channels=16, net_blocks=5, rng=rng)
    tf = F.TFiLM(**kw)
    ttf = F.TTFiLM(**kw)
    assert (sum(p.data.size for p in ttf.parameters())
            < sum(p.data.size for p in tf.parameters()))


# -- time-varying FiLM with shared controller --------------------------------

def test_tvfilm_identity_at_init():
    rng = np.random.default_rng(67)
    tv = F.TVFiLM(2, channels=8, net_blocks=3, rng=rng, block_size=8)
    x = Tensor(rng.standard_normal(40).astype(np.float32))
    c = Tensor(np.array([0.4, 0.2], dtype=np.float32))
    z, _ = tv.latents(x, c, None)
    assert z.data.shape == (5, tv.controller.lstm.cell.hidden_size)
    h = Tensor(rng.standard_normal((8, 40)).astype(np.float32))
    for k in range(3):
        out = tv.modulate(k, h, z)
        assert np.array_equal(out.data, h.data)


def test_tvfilm_rejects_misaligned_latents():
    rng = np.random.default_rng(68)
    tv = F.TVFiLM(1, channels=4, net_blocks=1, rng=rng, block_size=8)
    h = Tensor(np.ones((4, 40), dtype=np.float32))
    z = Tensor(np.ones((3, tv.controller.lstm.cell.hidden_size), dtype=np.float32))
    with pytest.raises(ValueError):
        tv.modulate(0, h, z)


def test_tvfilm_latents_settle_on_constant_input():
    rng = np.random.default_rng(69)
    tv = BlockLSTM(8, rng, block_size=8, num_controls=1)
    x = Tensor(np.zeros(8 * 200, dtype=np.float32))
    c = Tensor(np.array([0.5], dtype=np.float32))
    z, _ = tv(x, c, None)
    tail = z.data[-30:]
    assert np.max(tail.max(axis=0) - tail.min(axis=0)) < 1e-3


def test_tvfilm_chunked_equals_one_shot():
    rng = np.random.default_rng(70)
    tv = F.TVFiLM(1, channels=4, net_blocks=1, rng=rng, block_size=8)
    tv.heads[0].w.data = (rng.standard_normal(tv.heads[0].w.data.shape)
                          * 0.2).astype(np.float32)
    x = rng.standard_normal(64).astype(np.float32)
    h = rng.standard_normal((4, 64)).astype(np.float32)
    c = Tensor(np.array([0.3], dtype=np.float32))

    z, _ = tv.latents(Tensor(x), c, None)
    full = tv.modulate(0, Tensor(h), z)

    z1, st = tv.latents(Tensor(x[:32]), c, None)
    z2, _ = tv.latents(Tensor(x[32:]), c, st)
    a = tv.modulate(0, Tensor(h[:, :32]), z1)
    b = tv.modulate(0, Tensor(h[:, 32:]), z2)
    stitched = np.concatenate([a.data, b.data], axis=1)
    assert np.max(np.abs(stitched - full.data)) < 1e-6


def test_tvcond_sequence_generation():
    rng = np.random.default_rng(71)
    gen = F.TVCond(2, rng, block_size=16, latent=6)
    x = Tensor(rng.standard_normal(80).astype(np.float32))
    c1 = Tensor(np.array([0.2, 0.9], dtype=np.float32))
    z, state = gen.generate(x, c1, None)
    assert z.data.shape == (80, 6)
    assert state is not None
    # zero-order hold: constant within each block
    blk = z.data[:16]
    assert np.allclose(blk, blk[0])

    z2, _ = gen.generate(x, Tensor(np.array([0.9, 0.2], dtype=np.float32)),
                         None)
    assert not np.allclose(z.data, z2.data, atol=1e-4)

    whole, _ = gen.generate(Tensor(np.ones(32, dtype=np.float32)), c1, None,
                            )
    # block covering everything -> one latent held for the full signal
    g2 = F.TVCond(2, rng, block_size=32, latent=6)
    zc, _ = g2.generate(Tensor(np.ones(32, dtype=np.float32)), c1, None)
    assert np.allclose(zc.data, zc.data[0])


def test_tfilm_gradient_through_modulation():
    rng = np.random.default_rng(72)
    T.set_default_dtype(np.float64)
    try:
        tf = F.TFiLM(1, channels=3, net_blocks=1, rng=rng, block_size=4)
    finally:
        T.set_default_dtype(np.float32)
    tf.heads[0].w.data = rng.standard_normal(tf.heads[0].w.data.shape) * 0.3
    c = Tensor(np.array([0.5], dtype=np.float64))
    w = rng.standard_normal((3, 8))

    def f(ts):
        out = tf.modulate(0, ts[0], tf.latents(None, c, None)[0])
        return T.sum_(T.mul(out, Tensor(w)))

    assert grad_check(f, [t64(rng.standard_normal((3, 8)))]) < 1e-4
