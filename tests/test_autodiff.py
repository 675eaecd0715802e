"""Finite-difference verification of every primitive, plus tape mechanics.

All gradient checks run in float64: central differences at 32-bit lose
too many digits to certify anything.
"""

import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import gradfx.tensor as T
from gradfx.tensor import Tensor, Tape, grad_check
from gradfx import nn
from gradfx import processors as P
from gradfx.models import ModelSpec

import oracles

TOL = 1e-4  # max relative error, 64-bit


def t64(arr):
    return Tensor(np.asarray(arr, dtype=np.float64))


def randt(rng, *shape):
    return t64(rng.standard_normal(shape))


def project(y, w):
    """Random linear functional -> scalar, so every output element matters."""
    return T.sum_(T.mul(y, t64(w)))


# ---------------------------------------------------------------------------
# elementwise

def test_add_sub_mul_div_broadcast():
    rng = np.random.default_rng(0)
    a = randt(rng, 3, 4)
    b = randt(rng, 4)
    b.data += 3.0  # keep divisors away from zero
    w = rng.standard_normal((3, 4))
    for op in (T.add, T.sub, T.mul, T.div):
        err = grad_check(lambda ts: project(op(ts[0], ts[1]), w), [a, b])
        assert err < TOL, (op.__name__, err)


def test_neg():
    rng = np.random.default_rng(1)
    x = randt(rng, 5)
    x.data += 2.0
    w = rng.standard_normal(5)
    assert grad_check(lambda ts: project(T.neg(ts[0]), w), [x]) < TOL


def test_transcendental():
    rng = np.random.default_rng(2)
    x = t64(rng.uniform(-2.5, 2.5, size=7))
    w = rng.standard_normal(7)
    for op in (T.tanh, T.sigmoid, T.sin, T.cos, T.exp):
        err = grad_check(lambda ts: project(op(ts[0]), w), [x])
        assert err < TOL, (op.__name__, err)
    xp = t64(rng.uniform(0.2, 3.0, size=7))
    for op in (T.log, T.sqrt):
        err = grad_check(lambda ts: project(op(ts[0]), w), [xp])
        assert err < TOL, (op.__name__, err)


def test_abs_and_clip_away_from_kinks():
    rng = np.random.default_rng(3)
    x = t64(np.concatenate([rng.uniform(0.5, 2.0, 4), rng.uniform(-2.0, -0.5, 4)]))
    w = rng.standard_normal(8)
    assert grad_check(lambda ts: project(T.abs_(ts[0]), w), [x]) < TOL
    err = grad_check(lambda ts: project(T.clip(ts[0], -1.2, 1.2), w), [x])
    assert err < TOL
    # clipped entries contribute zero gradient
    with Tape() as tape:
        xx = t64([-3.0, 0.5, 3.0])
        xx.requires_grad = True
        y = T.sum_(T.clip(xx, -1.0, 1.0))
    g, = tape.backward(y, [xx])
    assert np.array_equal(g, [0.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# reductions, indexing, shape

def test_sum_mean_axes():
    rng = np.random.default_rng(4)
    x = randt(rng, 3, 5)
    w0 = rng.standard_normal(5)
    w1 = rng.standard_normal((3, 1))
    assert grad_check(lambda ts: T.sum_(ts[0]), [x]) < TOL
    assert grad_check(lambda ts: T.mean_(ts[0]), [x]) < TOL
    assert grad_check(lambda ts: project(T.sum_(ts[0], axis=0), w0), [x]) < TOL
    assert grad_check(lambda ts: project(T.mean_(ts[0], axis=1, keepdims=True), w1), [x]) < TOL


def test_slice_concat_reshape_repeat():
    rng = np.random.default_rng(5)
    x = randt(rng, 4, 6)
    y = randt(rng, 2, 6)
    w = rng.standard_normal((2, 3))
    assert grad_check(lambda ts: project(ts[0][1:3, ::2], w), [x]) < TOL
    wc = rng.standard_normal((6, 6))
    assert grad_check(lambda ts: project(T.concat([ts[0], ts[1]], axis=0), wc), [x, y]) < TOL
    wr = rng.standard_normal(24)
    assert grad_check(lambda ts: project(T.reshape(ts[0], (24,)), wr), [x]) < TOL
    v = randt(rng, 3)
    wrep = rng.standard_normal((5, 3))
    assert grad_check(lambda ts: project(T.repeat_new_axis(ts[0], 5, axis=0), wrep), [v]) < TOL


def test_transpose():
    rng = np.random.default_rng(40)
    x = randt(rng, 3, 5)
    w = rng.standard_normal((5, 3))
    assert grad_check(lambda ts: project(T.transpose(ts[0]), w), [x]) < TOL
    y = randt(rng, 2, 3, 4)
    w3 = rng.standard_normal((4, 2, 3))
    assert grad_check(lambda ts: project(T.transpose(ts[0], (2, 0, 1)), w3), [y]) < TOL


def test_upsample_pad_maxpool_blockmean():
    rng = np.random.default_rng(6)
    x = randt(rng, 2, 6)
    wu = rng.standard_normal((2, 18))
    assert grad_check(lambda ts: project(T.upsample1d(ts[0], 3), wu), [x]) < TOL
    # zero-order hold content
    up = T.upsample1d(x, 3).data
    assert np.array_equal(up[:, 0:3], np.repeat(x.data[:, 0:1], 3, axis=1))

    wp = rng.standard_normal((2, 9))
    assert grad_check(lambda ts: project(T.pad_end(ts[0], 9), wp), [x]) < TOL
    assert np.all(T.pad_end(x, 9).data[:, 6:] == 0.0)

    x7 = randt(rng, 7)  # partial final block exercises the zero pad
    wm = rng.standard_normal(3)
    assert grad_check(lambda ts: project(T.maxpool1d(ts[0], 3), wm), [x7]) < TOL
    assert grad_check(lambda ts: project(T.blockmean1d(ts[0], 3), wm), [x7]) < TOL
    bm = T.blockmean1d(x7, 3).data
    assert bm[2] == pytest.approx(x7.data[6] / 3.0)  # padded zeros count in the mean


# ---------------------------------------------------------------------------
# linear algebra, convolution

def test_matmul_shapes():
    rng = np.random.default_rng(7)
    a = randt(rng, 3, 4)
    b = randt(rng, 4, 2)
    v = randt(rng, 4)
    u = randt(rng, 3)
    w22 = rng.standard_normal((3, 2))
    assert grad_check(lambda ts: project(T.matmul(ts[0], ts[1]), w22), [a, b]) < TOL
    wv = rng.standard_normal(3)
    assert grad_check(lambda ts: project(T.matmul(ts[0], ts[1]), wv), [a, v]) < TOL
    wu = rng.standard_normal(4)
    assert grad_check(lambda ts: project(T.matmul(ts[0], ts[1]), wu), [u, a]) < TOL
    assert grad_check(lambda ts: T.matmul(ts[0], ts[1]), [v, v]) < TOL


def test_conv1d_gradients_and_causality():
    rng = np.random.default_rng(8)
    x = randt(rng, 2, 16)
    w = randt(rng, 3, 2, 3)
    b = randt(rng, 3)
    proj = rng.standard_normal((3, 16))
    err = grad_check(lambda ts: project(T.conv1d(ts[0], ts[1], ts[2], dilation=2), proj),
                     [x, w, b])
    assert err < TOL
    err = grad_check(lambda ts: project(T.conv1d(ts[0], ts[1], dilation=1), proj), [x, w])
    assert err < TOL

    # causality: perturbing x at n touches exactly y[n + k*d], nothing earlier
    y0 = T.conv1d(x, w, b, dilation=2).data.copy()
    x.data[:, 10] += 1.0
    y1 = T.conv1d(x, w, b, dilation=2).data
    changed = sorted(set(np.nonzero(np.any(y0 != y1, axis=0))[0]))
    assert changed == [10, 12, 14]


def test_conv1d_matches_direct_sum():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((1, 12))
    w = rng.standard_normal((1, 1, 4))
    d = 3
    y = T.conv1d(t64(x), t64(w), dilation=d).data[0]
    pad = (w.shape[2] - 1) * d
    xp = np.concatenate([np.zeros(pad), x[0]])
    ref = np.array([sum(w[0, 0, k] * xp[t + k * d] for k in range(4)) for t in range(12)])
    assert np.allclose(y, ref, atol=1e-12)


@pytest.mark.parametrize("t, dilation", [(23, 1), (23, 7), (20, 2), (9, 12)])
def test_conv1d_chunks_match_direct_sum(monkeypatch, t, dilation):
    # five-sample chunks: T not a multiple of the chunk, taps reaching
    # back past whole chunks, dilation longer than the signal
    monkeypatch.setattr(T, "_CONV_CHUNK", 5)
    rng = np.random.default_rng(11)
    x, w, b = randt(rng, 2, t), randt(rng, 3, 2, 3), randt(rng, 3)
    y = T.conv1d(x, w, b, dilation=dilation).data
    ref = oracles.conv1d_direct(x.data, w.data, dilation) + b.data[:, None]
    assert np.max(np.abs(y - ref)) < 1e-12
    proj = rng.standard_normal((3, t))
    err = grad_check(
        lambda ts: project(T.conv1d(ts[0], ts[1], ts[2], dilation=dilation), proj),
        [x, w, b])
    assert err < TOL


@pytest.mark.parametrize("c_in, c_out, k, dilation, t, flip", [
    (16, 16, 7, 64, 4096, False), (1, 16, 7, 1, 4096, False),
    (16, 1, 1, 1, 1000, False), (2, 3, 3, 2, 17, False),
    (1, 1, 16, 1, 256, True)])  # FIR: reversed taps, a strided view
def test_conv1d_one_chunk_equals_im2col_tensordot(c_in, c_out, k, dilation, t,
                                                  flip):
    rng = np.random.default_rng(12)
    x = Tensor(rng.standard_normal((c_in, t)).astype(np.float32))
    wd = rng.standard_normal((c_out, c_in, k)).astype(np.float32)
    w = Tensor(wd[:, :, ::-1] if flip else wd)
    g = rng.standard_normal((c_out, t)).astype(np.float32)
    x.requires_grad = w.requires_grad = True
    with Tape() as tape:
        y = T.conv1d(x, w, dilation=dilation)
        s = T.sum_(T.mul(y, Tensor(g)))
    dx, dw = tape.backward(s, [x, w])
    ref_y, ref_dx, ref_dw = oracles.conv1d_im2col(x.data, w.data, dilation, g)
    assert np.array_equal(y.data, ref_y)
    assert np.array_equal(dx, ref_dx)
    assert np.array_equal(dw, ref_dw)


def test_take_basic_keys_assign_and_array_keys_accumulate():
    rng = np.random.default_rng(13)
    x = randt(rng, 4, 6)
    for key in (2, np.int64(-1), slice(1, None, 2), (1, slice(None, None, -1)),
                (slice(0, 3), 4)):
        assert T._is_basic(key)
        g = rng.standard_normal(x.data[key].shape)
        err = grad_check(lambda ts: project(ts[0][key], g), [x])
        assert err < TOL, key
    for key in (np.array([0, 0, 3]), [1, 1], True, (slice(None), [2, 2])):
        assert not T._is_basic(key)
    # a repeated row collects both gradients
    with Tape() as tape:
        xt = t64(np.arange(4.0))
        xt.requires_grad = True
        s = T.sum_(T.take(xt, np.array([1, 1, 2])))
    assert np.array_equal(tape.backward(s, [xt])[0], [0.0, 2.0, 1.0, 0.0])


# ---------------------------------------------------------------------------
# magnitude STFT

def test_stft_mag_gradients_window_shorter_than_fft():
    rng = np.random.default_rng(10)
    x = randt(rng, 40)
    win = np.hanning(11)[:-1]
    m = T.stft_mag(x, win, 16, 4, 1e-8)
    assert m.data.shape == (8, 9)
    ref = np.abs(np.fft.rfft(x.data[8:18] * win, 16))
    assert np.max(np.abs(m.data[2] - ref)) < 1e-12
    w = rng.standard_normal((8, 9))
    assert grad_check(lambda ts: project(T.stft_mag(ts[0], win, 16, 4, 1e-8), w),
                      [x]) < TOL


@pytest.mark.parametrize("n, fft_size, hop, win_len", [
    (4096, 1024, 256, 1024), (4096, 512, 128, 512), (600, 256, 64, 200),
    (1000, 128, 48, 100),
    # 1, 8, 9 and 17 frames: one block, one whole block, a frame past it,
    # a frame past two (29 frames, (4096, 512, 128, 512), ends mid-block)
    (200, 256, 64, 200), (648, 256, 64, 200), (484, 128, 48, 100),
    (868, 128, 48, 100)])
def test_stft_mag_vjp_equals_composed_order_f32(n, fft_size, hop, win_len):
    rng = np.random.default_rng(14)
    x = Tensor(rng.standard_normal(n).astype(np.float32), requires_grad=True)
    window = (np.hanning(win_len + 1)[:-1]).astype(np.float32)
    num = (n - win_len) // hop + 1
    g = rng.standard_normal((num, fft_size // 2 + 1)).astype(np.float32)
    with Tape() as tape:
        m = T.stft_mag(x, window, fft_size, hop, 1e-8)
        s = T.sum_(T.mul(m, Tensor(g)))
    gx, = tape.backward(s, [x])
    ref_m, ref_gx = oracles.stft_mag_composed(x.data, window, fft_size, hop,
                                              1e-8, g)
    assert m.data.dtype == gx.dtype == np.float32
    assert np.array_equal(m.data, ref_m)
    assert np.array_equal(gx, ref_gx)


# ---------------------------------------------------------------------------
# sigmoid helper

def _sigmoid_mask(z):
    """The boolean-mask sigmoid the shared helper replaced."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_helper_matches_mask_formula_bitwise(dtype):
    edge = [0.0, -0.0, 1e-30, -1e-30, 20.0, -20.0, 100.0, -100.0,
            np.inf, -np.inf, np.nan]
    rand = np.random.default_rng(30).standard_normal(10 ** 5) * 10.0
    z = np.concatenate([edge, rand]).astype(dtype)
    with np.errstate(invalid="ignore"):
        got = T._sigmoid(z)
        want = _sigmoid_mask(z)
    assert got.dtype == dtype
    # only the sign bit of NaN may differ, which array_equal ignores
    assert np.array_equal(got, want, equal_nan=True)


# ---------------------------------------------------------------------------
# LSTM: fused primitive against the per-step composition of tape ops

def _composed_lstm(lstm, x, state):
    """The recurrence as ~17 tape nodes per step; reference for T.lstm."""
    cell = lstm.cell
    hs = cell.hidden_size
    xz = T.add(T.matmul(x, cell.w_x), cell.b)
    h, c = state
    outs = []
    for t in range(x.data.shape[0]):
        z = T.add(xz[t], T.matmul(h, cell.w_h))
        i = T.sigmoid(z[0:hs])
        f = T.sigmoid(z[hs:2 * hs])
        g = T.tanh(z[2 * hs:3 * hs])
        o = T.sigmoid(z[3 * hs:4 * hs])
        c = T.add(T.mul(f, c), T.mul(i, g))
        h = T.mul(o, T.tanh(c))
        outs.append(T.reshape(h, (1, hs)))
    y = T.concat(outs, axis=0) if len(outs) > 1 else outs[0]
    return y, (h, c)


def _lstm_case(dtype, n, hidden, inputs, seed, state_scale=0.0):
    """An LSTM with its input, initial state and loss weights."""
    rng = np.random.default_rng(seed)
    old = T.default_dtype()
    T.set_default_dtype(dtype)
    try:
        lstm = nn.LSTM(inputs, hidden, rng)
    finally:
        T.set_default_dtype(old)
    x = Tensor(rng.standard_normal((n, inputs)).astype(dtype))
    h0 = Tensor((state_scale * rng.standard_normal(hidden)).astype(dtype))
    c0 = Tensor((state_scale * rng.standard_normal(hidden)).astype(dtype))
    ws = [Tensor(rng.standard_normal(shape).astype(dtype))
          for shape in ((n, hidden), (hidden,), (hidden,))]
    return lstm, x, h0, c0, ws


def _lstm_run(forward, lstm, x, h0, c0, ws, wrt):
    """Output, final state and gradients wrt `wrt` of a loss on y, h and c."""
    for t in wrt:
        t.requires_grad = True
    with Tape() as tape:
        y, (h, c) = forward(lstm, x, (h0, c0))
        loss = T.add(T.sum_(T.mul(y, ws[0])),
                     T.add(T.sum_(T.mul(h, ws[1])), T.sum_(T.mul(c, ws[2]))))
        grads = tape.backward(loss, wrt)
    return [y.data, h.data, c.data] + grads


def _lstm_xz(xz, w_h, h0, c0):
    """T.lstm on a given projection xz: x = xz through w_x = I and b = 0,
    which form it exactly."""
    d = xz.data.shape[-1]
    dt = xz.data.dtype
    return T.lstm(xz, Tensor(np.eye(d, dtype=dt)), Tensor(np.zeros(d, dtype=dt)),
                  w_h, h0, c0)


def test_lstm_fused_is_bit_identical_to_composed_f32():
    lstm, x, h0, c0, ws = _lstm_case(np.float32, 2048, 32, 1, seed=16)
    params = [lstm.cell.w_x, lstm.cell.w_h, lstm.cell.b]
    want = _lstm_run(_composed_lstm, lstm, x, h0, c0, ws, params)
    got = _lstm_run(nn.LSTM.forward, lstm, x, h0, c0, ws, params)
    for name, a, b in zip(["y", "h", "c", "w_x", "w_h", "b"], got, want):
        assert a.dtype == np.float32, name
        assert np.array_equal(a, b), name


def test_lstm_fused_state_gradients_match_composed_f64():
    lstm, x, h0, c0, ws = _lstm_case(np.float64, 300, 7, 3, seed=17,
                                     state_scale=0.5)
    wrt = [x, h0, c0] + lstm.parameters()
    want = _lstm_run(_composed_lstm, lstm, x, h0, c0, ws, wrt)
    got = _lstm_run(nn.LSTM.forward, lstm, x, h0, c0, ws, wrt)
    for a, b in zip(got, want):
        assert np.allclose(a, b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [1, 15, 16, 17, 300])
def test_lstm_fused_matches_composed_f32_around_backward_blocks(n):
    # lengths on either side of T._LSTM_BLOCK, with a nonzero initial state
    lstm, x, h0, c0, ws = _lstm_case(np.float32, n, 7, 3, seed=20 + n,
                                     state_scale=0.5)
    wrt = [x, h0, c0] + lstm.parameters()
    want = _lstm_run(_composed_lstm, lstm, x, h0, c0, ws, wrt)
    got = _lstm_run(nn.LSTM.forward, lstm, x, h0, c0, ws, wrt)
    names = ["y", "h", "c", "x", "h0", "c0", "w_x", "w_h", "b"]
    for name, a, b in zip(names, got, want, strict=True):
        assert a.dtype == np.float32, name
        assert np.array_equal(a, b), name


def test_lstm_gradients_across_backward_blocks(monkeypatch):
    # blocks of 4 over 11 steps: two block edges and a short last block
    monkeypatch.setattr(T, "_LSTM_BLOCK", 4)
    lstm, x, h0, c0, ws = _lstm_case(np.float64, 11, 5, 2, seed=19,
                                     state_scale=0.5)

    def loss(y, h, c):
        return T.add(project(y, ws[0].data),
                     T.add(project(h, ws[1].data), project(c, ws[2].data)))

    def f(ts):
        y, (h, c) = lstm.forward(ts[0], (ts[1], ts[2]))
        return loss(y, h, c)

    assert grad_check(f, [x, h0, c0]) < TOL

    def fp(ts):
        y, (h, c) = lstm.forward(x, (Tensor(h0.data), Tensor(c0.data)))
        return loss(y, h, c)

    assert grad_check(fp, lstm.parameters()) < TOL


def test_lstm_empty_sequence_returns_initial_state():
    rng = np.random.default_rng(21)
    w_h, h0, c0 = randt(rng, 3, 12), randt(rng, 3), randt(rng, 3)
    out = _lstm_xz(t64(np.zeros((0, 12))), w_h, h0, c0)
    assert np.array_equal(out.data, np.stack([h0.data, c0.data]))
    w = rng.standard_normal((2, 3))
    h0.requires_grad = c0.requires_grad = True
    with Tape() as tape:
        dh0, dc0 = tape.backward(project(_lstm_xz(t64(np.zeros((0, 12))), w_h,
                                                  h0, c0), w), [h0, c0])
    assert np.array_equal(dh0, w[0])
    assert np.array_equal(dc0, w[1])


def test_lstm_tape_node_count_does_not_grow_with_length():
    counts = []
    for n in (64, 2048):
        lstm, x, h0, c0, _ = _lstm_case(np.float32, n, 32, 1, seed=18)
        with Tape() as tape:
            lstm.forward(x, (h0, c0))
        counts.append(len(tape.nodes))
    assert counts[0] == counts[1], counts


def test_lstm_cell_gradients():
    # one step through the fused primitive, wrt input, state and weights
    lstm, x, h0, c0, ws = _lstm_case(np.float64, 1, 4, 3, seed=13,
                                     state_scale=1.0)

    def f(ts):
        y, (_, c) = lstm.forward(ts[0], (ts[1], ts[2]))
        return T.add(project(y, ws[0].data), project(c, ws[2].data))

    assert grad_check(f, [x, h0, c0]) < TOL

    def fp(ts):
        y, (_, c) = lstm.forward(x, (Tensor(h0.data), Tensor(c0.data)))
        return T.add(project(y, ws[0].data), project(c, ws[2].data))

    assert grad_check(fp, lstm.parameters()) < TOL


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("b, n, hidden", [(1, 1, 7), (2, 300, 7), (5, 2048, 32)])
def test_lstm_batched_rows_match_unbatched(dtype, b, n, hidden):
    rng = np.random.default_rng(40 + b)
    xz = (rng.standard_normal((n, b, 4 * hidden))).astype(dtype)
    w_h = Tensor((0.3 * rng.standard_normal((hidden, 4 * hidden))).astype(dtype))
    h0 = (0.5 * rng.standard_normal((b, hidden))).astype(dtype)
    c0 = (0.5 * rng.standard_normal((b, hidden))).astype(dtype)
    assert len({row.tobytes() for row in h0}) == b  # distinct rows
    out = _lstm_xz(Tensor(xz), w_h, Tensor(h0), Tensor(c0)).data
    assert out.shape == (n + 2, b, hidden) and out.dtype == dtype
    for k in range(b):
        ref = _lstm_xz(Tensor(np.ascontiguousarray(xz[:, k])), w_h,
                       Tensor(h0[k]), Tensor(c0[k])).data
        if dtype == np.float32:
            assert np.array_equal(out[:, k], ref), k
        else:
            assert np.max(np.abs(out[:, k] - ref)) <= 1e-12, k


def test_lstm_batched_records_no_gradient():
    rng = np.random.default_rng(44)
    xz, w_h = randt(rng, 5, 2, 12), randt(rng, 3, 12)
    h0, c0 = randt(rng, 2, 3), randt(rng, 2, 3)
    w_h.requires_grad = True
    with Tape():
        with pytest.raises(ValueError, match="batched"):
            _lstm_xz(xz, w_h, h0, c0)
    # untracked inputs under a tape, and no tape at all, run
    w_h.requires_grad = False
    with Tape() as tape:
        taped = _lstm_xz(xz, w_h, h0, c0)
    assert tape.nodes == []
    assert np.array_equal(taped.data, _lstm_xz(xz, w_h, h0, c0).data)


def test_lstm_layer_fast_path_matches_taped():
    rng = np.random.default_rng(14)
    T.set_default_dtype(np.float64)
    try:
        lstm = nn.LSTM(2, 5, rng)
    finally:
        T.set_default_dtype(np.float32)
    x = randt(rng, 11, 2)
    y_fast, (h_f, c_f) = lstm.forward(x)
    with Tape():
        y_taped, (h_t, c_t) = lstm.forward(x)
    assert np.array_equal(y_fast.data, y_taped.data)
    assert np.array_equal(h_f.data, h_t.data)
    assert np.array_equal(c_f.data, c_t.data)
    # and both equal the composed reference
    with Tape():
        y_ref, (h_r, c_r) = _composed_lstm(lstm, x, lstm.zero_state(np.float64))
    assert np.array_equal(y_fast.data, y_ref.data)
    assert np.array_equal(c_f.data, c_r.data)

    # forget bias starts at one
    hs = lstm.cell.hidden_size
    assert np.all(lstm.cell.b.data[hs:2 * hs] == 1.0)


def test_lstm_layer_gradients():
    rng = np.random.default_rng(15)
    T.set_default_dtype(np.float64)
    try:
        lstm = nn.LSTM(1, 3, rng)
    finally:
        T.set_default_dtype(np.float32)
    x = randt(rng, 6, 1)
    w = rng.standard_normal((6, 3))

    def f(ts):
        y, _ = lstm.forward(ts[0])
        return project(y, w)

    assert grad_check(f, [x]) < TOL
    params = lstm.parameters()

    def fp(ts):
        y, _ = lstm.forward(x)
        return project(y, w)

    assert grad_check(fp, params) < TOL


# ---------------------------------------------------------------------------
# tape mechanics

def test_backward_requires_scalar_root():
    with Tape() as tape:
        x = t64([1.0, 2.0])
        x.requires_grad = True
        y = T.mul(x, x)
    with pytest.raises(ValueError):
        tape.backward(y, [x])


def test_off_tape_gradient_is_none():
    with Tape() as tape:
        x = t64([1.0, 2.0])
        x.requires_grad = True
        y = T.sum_(T.mul(x, x))
    stranger = t64([3.0])
    stranger.requires_grad = True
    assert tape.backward(y, [stranger]) == [None]


def test_unused_leaf_gets_zero_gradient():
    with Tape() as tape:
        x = t64([1.0, 2.0])
        x.requires_grad = True
        y = T.sum_(x[0:1])  # second element never reaches the root
    g, = tape.backward(y, [x])
    assert np.array_equal(g, [1.0, 0.0])


def test_intermediate_gradient_raises():
    with Tape() as tape:
        x = t64([1.0, 2.0])
        x.requires_grad = True
        h = T.mul(x, x)
        h.requires_grad = True  # the node's op decides, not the flag
        y = T.sum_(h)
    for t in (h, y):
        with pytest.raises(KeyError, match="leaf"):
            tape.backward(y, [x, t])
    assert np.array_equal(tape.backward(y, [x])[0], [2.0, 4.0])


def test_second_backward_raises_and_nodes_stay():
    with Tape() as tape:
        x = t64([1.0, 2.0])
        x.requires_grad = True
        y = T.sum_(T.tanh(T.mul(x, x)))
    count = len(tape.nodes)
    tape.backward(y, [x])
    # perfbench's tensor.tape_nodes reads the count after backward
    assert len(tape.nodes) == count
    with pytest.raises(RuntimeError, match="backward already ran"):
        tape.backward(y, [x])


def test_backward_frees_as_it_goes():
    # a chain of 32 tanh nodes saves 32 outputs; a backward that kept
    # every gradient and closure until it returned would add ~32 arrays
    n, depth = 16_384, 32
    x = Tensor(np.linspace(-1.0, 1.0, n), requires_grad=True)
    tracemalloc.start()
    try:
        with Tape() as tape:
            y = x
            for _ in range(depth):
                y = T.tanh(y)
            root = T.sum_(y)
        del y
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g, = tape.backward(root, [x])
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert g.shape == (n,)
    assert extra < 4 * 8 * n, extra / (8 * n)


def _taped_eq_bytes_per_sample(per_block):
    """Bytes a tape keeps after a 5-section EQ forward over 16,384 float32
    samples, per sample: per-block coefficients at block 128, or static."""
    n, block = 16_384, 128
    vals = np.array([82.0, 19.0, 7.0, 400.0, -3.0, 2.0, 1000.0, 2.0, 0.7,
                     3000.0, -6.0, 1.5, 8000.0, 4.0, 0.8], dtype=np.float32)
    if per_block:
        vals = vals * np.linspace(0.9, 1.1, n // block, dtype=np.float32)[:, None]
    x = Tensor((np.random.default_rng(44).standard_normal(n) * 0.25)
               .astype(np.float32))
    params = Tensor(vals, requires_grad=True)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            y = oracles.apply_eq(x, params, P.PARAMETRIC_EQ_LAYOUT,
                                 48000.0, block if per_block else None)[0]
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(tape.nodes) > 1 and y.data.dtype == np.float32
    return kept / n


def test_taped_per_block_eq_keeps_what_its_backward_cannot_rebuild():
    # each section keeps its float64 output and taps (~111 B/sample in
    # all); keeping its float64 input lags and tap spectra too reads ~232
    per_sample = _taped_eq_bytes_per_sample(per_block=True)
    assert per_sample < 160, per_sample


def test_taped_static_eq_keeps_what_its_backward_cannot_rebuild():
    # ~63 B/sample; ~104 with the float64 input lags kept
    per_sample = _taped_eq_bytes_per_sample(per_block=False)
    assert per_sample < 80, per_sample


def test_stft_mag_backward_peak_is_bounded_by_its_complex_buffer():
    # the vjp frees its [frames, fft] complex spectrum once the inverse FFT
    # returns (~2.1 buffers of extra peak); keeping it alive reads ~2.9
    n, fft, hop = 16_384, 1024, 256
    x = Tensor(np.random.default_rng(45).standard_normal(n).astype(np.float32),
               requires_grad=True)
    window = np.hanning(fft).astype(np.float32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            root = T.sum_(T.stft_mag(x, window, fft, hop, 1e-8))
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g, = tape.backward(root, [x])
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert g.shape == (n,)
    buffer = ((n - fft) // hop + 1) * fft * 16
    assert extra < 2.5 * buffer, extra / buffer


def test_stft_mag_backward_peak_is_bounded_by_one_block():
    # the vjp works through blocks of 8 frames: at 128 frames its extra
    # peak is one block's complex buffers plus the signal-length
    # overlap-add and gradient arrays (~0.76 of this bound); one pass over
    # every frame reads ~7.5
    fft, hop, frames = 1024, 256, 128
    n = fft + (frames - 1) * hop
    x = Tensor(np.random.default_rng(46).standard_normal(n).astype(np.float32),
               requires_grad=True)
    window = np.hanning(fft).astype(np.float32)
    tracemalloc.start()
    try:
        with Tape() as tape:
            root = T.sum_(T.stft_mag(x, window, fft, hop, 1e-8))
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        g, = tape.backward(root, [x])
        extra = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert g.shape == (n,)
    bound = 2.5 * 8 * fft * 16 + 2 * n * 4
    assert extra < bound, extra / bound


def test_taped_rational_stage_keeps_no_horner_values():
    # the node keeps references to its operands only: the stage holds the
    # clip's output and mask and its own output (~9 B/sample); the 35-node
    # composed ratio also kept ~11 signal-length Horner values (~54)
    n = 16_384
    x = Tensor(np.random.default_rng(47).uniform(-9.0, 9.0, n)
               .astype(np.float32), requires_grad=True)
    rat = P.RationalNL()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        with Tape() as tape:
            y = rat.apply(x)[0]
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert y.data.dtype == np.float32 and len(tape.nodes) == 5
    assert kept / n < 12, kept / n


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rational_equals_composed_graph_to_the_bit(dtype):
    # inputs past the clamp on both sides, coefficients moved off the prefit
    rng = np.random.default_rng(48)
    rat = P.RationalNL()
    xs = rng.uniform(-10.0, 10.0, 4096).astype(dtype)
    num = (rat.num.data * (1 + 0.01 * rng.standard_normal(7))).astype(dtype)
    den = (rat.den.data * (1 + 0.01 * rng.standard_normal(5))).astype(dtype)
    w = Tensor(rng.standard_normal(4096).astype(dtype))
    results = []
    for ratio in (T.rational, oracles.rational_composed):
        ts = [Tensor(v.copy(), requires_grad=True) for v in (xs, num, den)]
        with Tape() as tape:
            y = ratio(T.clip(ts[0], -8.0, 8.0), ts[1], ts[2])
            root = T.sum_(T.mul(y, w))
        results.append([y.data] + tape.backward(root, ts))
    for mine, ref in zip(*results):
        assert mine.dtype == ref.dtype == dtype
        assert np.all(np.isfinite(mine))
        assert np.array_equal(mine, ref)


def test_backward_releases_every_vjp_and_unreached_saved_arrays():
    # the unreached product saves `side`; so do nodes recorded after root
    x = t64([1.0, 2.0])
    x.requires_grad = True
    side = np.full(2, 3.0)
    freed = weakref.ref(side)
    with Tape() as tape:
        root = T.sum_(T.tanh(x))
        T.mul(x, Tensor(side))
        T.exp(root)
    del side
    assert freed() is not None  # the closure of the unreached mul holds it
    tape.backward(root, [x])
    assert all(node.vjp is None for node in tape.nodes)
    assert freed() is None


def test_reused_operand_accumulates():
    with Tape() as tape:
        x = t64([2.0])
        x.requires_grad = True
        y = T.sum_(T.add(T.mul(x, x), x))  # x^2 + x -> 2x + 1 = 5
    assert tape.backward(y, [x])[0][0] == pytest.approx(5.0)


def test_tapes_do_not_nest():
    with Tape():
        with pytest.raises(RuntimeError):
            with Tape():
                pass
        assert T.active_tape() is not None


def _tcn_film():
    """The benchmark's FiLM TCN shape, one control."""
    return ModelSpec.from_dict(
        {"kind": "tcn", "sample_rate": 48000.0, "num_controls": 1,
         "tcn": {"blocks": 5, "kernel": 7, "dilation_growth": 4,
                 "channels": 16, "cond": "film"}}).build(
        np.random.default_rng(0))


def test_a_dropped_tape_is_freed_without_backward():
    # the parameters a forward read keep no hold on its tape
    model = _tcn_film()
    x = Tensor(0.3 * np.random.default_rng(1).standard_normal(4096))
    with Tape() as tape:
        y, state = model.forward(x, Tensor(np.full(1, 0.5)))
    assert len(tape.nodes) > 0
    alive = weakref.ref(tape)
    del tape, y, state
    assert alive() is None


def test_threads_record_their_own_tapes_over_shared_parameters():
    # more threads than cores, switching often: each thread's gradients
    # equal those of the same forward run alone
    model = _tcn_film()
    params = model.parameters()
    rng = np.random.default_rng(2)
    xs = [Tensor((0.3 * rng.standard_normal(2048)).astype(np.float32))
          for _ in range(4)]
    c = Tensor(np.full(1, 0.5, dtype=np.float32))
    all_open = threading.Barrier(len(xs), timeout=30)
    out, errors = [None] * len(xs), []

    def grads(x, barrier=None):
        with Tape() as tape:
            y = model.forward(x, c)[0]
            loss = T.mean_(T.mul(y, y))
            if barrier is not None:
                barrier.wait()  # every tape is open and recorded
            return tape.backward(loss, params)

    def run(i):
        try:
            out[i] = grads(xs[i], all_open)
        except Exception as e:  # noqa: BLE001 - raised below
            errors.append(e)

    alone = [grads(x) for x in xs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,))
                   for i in range(len(xs))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    for seq, par in zip(alone, out):
        assert len(seq) == len(par) == len(params)
        for a, b in zip(seq, par):
            assert np.array_equal(a, b)


def test_constants_are_not_tracked():
    with Tape() as tape:
        x = t64([1.0, 2.0])
        x.requires_grad = True
        k = t64([5.0, 5.0])  # constant: no requires_grad
        y = T.sum_(T.mul(x, k))
    gx, gk = tape.backward(y, [x, k])
    assert np.array_equal(gx, [5.0, 5.0])
    assert gk is None


def test_dtype_policy():
    assert Tensor([1.0, 2.0]).data.dtype == np.float32
    assert Tensor(np.zeros(3, dtype=np.float64)).data.dtype == np.float64
    T.set_default_dtype(np.float64)
    try:
        assert Tensor([1.0]).data.dtype == np.float64
    finally:
        T.set_default_dtype(np.float32)
    with pytest.raises(ValueError):
        T.set_default_dtype(np.int32)


def test_gradients_match_leaf_shapes():
    rng = np.random.default_rng(16)
    with Tape() as tape:
        a = randt(rng, 3, 1)
        b = randt(rng, 4)
        a.requires_grad = b.requires_grad = True
        y = T.sum_(T.mul(a, b))  # broadcast to (3,4)
    ga, gb = tape.backward(y, [a, b])
    assert ga.shape == (3, 1)
    assert gb.shape == (4,)
