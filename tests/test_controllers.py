"""Controller behavior: ranges, shapes, state continuity."""

import numpy as np
import pytest

import gradfx.tensor as T
from gradfx import controllers as C
from gradfx.tensor import Tensor, Tape, grad_check


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64))


def test_dummy_controller_is_empty():
    ctrl = C.DummyController()
    out, state = ctrl()
    assert out is None
    assert state is None
    assert sum(p.data.size for p in ctrl.parameters()) == 0


def test_static_controller_midpoint_and_bounds():
    ctrl = C.StaticController(3)
    out, _ = ctrl()
    assert np.array_equal(out.data, [0.5, 0.5, 0.5])
    ctrl.b.data = np.array([50.0, -50.0, 0.0], dtype=np.float32)
    out, _ = ctrl()
    v = out.data
    assert v[0] == pytest.approx(1.0, abs=1e-6) and 0 < v[0] <= 1.0
    assert v[1] == pytest.approx(0.0, abs=1e-6) and v[1] > 0.0
    assert out.data.ndim == 1


def test_static_controller_gradient_is_sigmoid_derivative():
    ctrl = C.StaticController(2)
    ctrl.b.data = np.array([0.3, -1.1], dtype=np.float64)
    with Tape() as tape:
        out, _ = ctrl()
        s = T.sum_(out)
    g, = tape.backward(s, [ctrl.b])
    sig = 1 / (1 + np.exp(-ctrl.b.data))
    assert np.allclose(g, sig * (1 - sig), atol=1e-12)

    def f(ts):
        return T.sum_(T.sigmoid(ts[0]))

    assert grad_check(f, [t64([0.3, -1.1])]) < 1e-4


def test_static_cond_controller():
    rng = np.random.default_rng(50)
    ctrl = C.StaticCondController(2, 5, rng)
    c = Tensor(np.array([0.2, 0.8], dtype=np.float32))
    out, _ = ctrl(c=c)
    assert out.data.shape == (5,)
    assert np.all((out.data > 0) & (out.data < 1))

    for layer in ctrl.net.layers:
        layer.w.data = np.zeros_like(layer.w.data)
        layer.b.data = np.zeros_like(layer.b.data)
    out, _ = ctrl(c=c)
    assert np.allclose(out.data, 0.5)

    with pytest.raises(ValueError):
        ctrl(c=Tensor(np.array([0.5, 0.5, 0.5])))
    with pytest.raises(ValueError):
        ctrl(c=None)


def test_static_cond_gradient_to_controls():
    rng = np.random.default_rng(51)
    T.set_default_dtype(np.float64)
    try:
        ctrl = C.StaticCondController(2, 3, rng)
    finally:
        T.set_default_dtype(np.float32)
    w = rng.standard_normal(3)

    def f(ts):
        out, _ = ctrl(c=ts[0])
        return T.sum_(T.mul(out, Tensor(w)))

    assert grad_check(f, [t64([0.3, 0.6])]) < 1e-4


def test_dynamic_controller_block_counts():
    rng = np.random.default_rng(52)
    ctrl = C.DynamicController(4, rng, block_size=128)
    x = Tensor(rng.standard_normal(1280).astype(np.float32))
    out, state = ctrl(x=x)
    assert out.data.shape == (10, 4)
    assert ctrl.block_size == 128
    assert out.data.ndim == 2
    assert state is not None

    short, _ = ctrl(x=Tensor(np.zeros(100, dtype=np.float32)))
    assert short.data.shape == (1, 4)
    with pytest.raises(ValueError):
        ctrl(x=None)


def test_dynamic_controller_uses_block_means():
    rng = np.random.default_rng(53)
    ctrl = C.DynamicController(1, rng, block_size=4)
    x = rng.standard_normal(12).astype(np.float32)
    feats = C.block_means(Tensor(x), ctrl.block_size).data
    assert np.allclose(feats[:, 0], x.reshape(3, 4).mean(axis=1), atol=1e-6)


def test_dynamic_controller_steady_state_on_constant_input():
    rng = np.random.default_rng(54)
    ctrl = C.DynamicController(2, rng, block_size=16)
    x = Tensor(np.full(16 * 300, 0.25, dtype=np.float32))
    out, _ = ctrl(x=x)
    tail = out.data[-50:]
    assert np.max(tail.max(axis=0) - tail.min(axis=0)) < 1e-3
    assert np.all((out.data > 0) & (out.data < 1))


def test_dynamic_cond_controller_shapes_and_sensitivity():
    rng = np.random.default_rng(55)
    ctrl = C.DynamicController(3, rng, block_size=128, num_controls=2)
    assert ctrl.lstm.cell.w_x.data.shape[0] == 3  # block mean + 2 controls
    x = Tensor(rng.standard_normal(1280).astype(np.float32))
    out1, _ = ctrl(x=x, c=Tensor(np.array([0.1, 0.9], dtype=np.float32)))
    out2, _ = ctrl(x=x, c=Tensor(np.array([0.9, 0.1], dtype=np.float32)))
    assert out1.data.shape == (10, 3)
    assert not np.allclose(out1.data, out2.data, atol=1e-4)
    with pytest.raises(ValueError):
        ctrl(x=x, c=Tensor(np.array([0.5])))


def test_dynamic_chunked_equals_one_shot():
    rng = np.random.default_rng(56)
    ctrl = C.DynamicController(2, rng, block_size=128, num_controls=1)
    x = rng.standard_normal(1280).astype(np.float32)
    c = Tensor(np.array([0.7], dtype=np.float32))
    full, _ = ctrl(x=Tensor(x), c=c)
    half1, st = ctrl(x=Tensor(x[:640]), c=c)
    half2, _ = ctrl(x=Tensor(x[640:]), c=c, state=st)
    stitched = np.concatenate([half1.data, half2.data], axis=0)
    assert np.max(np.abs(stitched - full.data)) < 1e-6


def test_controller_registry():
    assert set(C.CONTROLLER_KINDS) == {"dummy", "static", "static_cond",
                                       "dynamic", "dynamic_cond"}
