"""Streaming contract: a signal fed in pieces with the state carried gives
the output of one call, and `render` streams a file in bounded memory:
in order, or in zero-state pieces on worker threads when the model's
receptive field is bounded.

Every model kind, conditioner and gray-box processor and controller kind
runs with perturbed weights (identity heads and zero biases would hide a
dropped state). Split points are random multiples of the render chunk's
alignment, where every kernel block lines up: the pieces must equal one
call bit for bit in float32 and within 1e-12 in float64.
"""

import json
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np
import pytest

import gradfx.tensor as T
from gradfx import analysis as A
from gradfx import cli
from gradfx import data as D
from gradfx import models as M
from gradfx.tensor import Tensor

FS = 48000.0
NUM_CONTROLS = 2


@contextmanager
def _dtype(dt):
    saved = T.default_dtype()
    T.set_default_dtype(dt)
    try:
        yield
    finally:
        T.set_default_dtype(saved)


def _conv(kind, cond, batchnorm=False):
    return {"kind": kind, "sample_rate": FS, "num_controls": NUM_CONTROLS,
            kind: {"blocks": 3, "kernel": 3, "dilation_growth": 3,
                   "channels": 10, "cond": cond, "batchnorm": batchnorm}}


def _lstm(cond_mode):
    return {"kind": "lstm", "sample_rate": FS, "num_controls": NUM_CONTROLS,
            "lstm": {"hidden": 4, "cond_mode": cond_mode, "block_size": 128,
                     "tvcond_latent": 3}}


def _chain(stages, block_size=128):
    return {"kind": "graybox", "sample_rate": FS, "num_controls": NUM_CONTROLS,
            "graybox": {"stages": [{"processor": p, "controller": k}
                                   for p, k in stages],
                        "block_size": block_size}}


# every processor and controller kind, the EQs both static and per block
CHAINS = {
    "eq_dynamics": _chain([("parametric_eq", "static"), ("gain", "dynamic"),
                           ("dc_offset", "static_cond"),
                           ("rational", "dummy"),
                           ("shelving_eq", "dynamic_cond"),
                           ("parametric_eq", "dynamic")]),
    "nonlinear": _chain([("fir", "dummy"), ("tanh", "dummy"),
                         ("mlp", "dummy"), ("phase_inv", "dummy"),
                         ("shelving_eq", "static_cond"),
                         ("dc_offset", "dynamic")], block_size=256),
}

MODELS = {
    **{f"lstm-{m}": _lstm(m) for m in ("none", "concat", "tvcond")},
    **{f"{k}-{c}": _conv(k, c) for k in ("tcn", "gcn")
       for c in ("none", "film", "tfilm", "ttfilm", "tvfilm")},
    "tcn-film-batchnorm": _conv("tcn", "film", batchnorm=True),
    **{f"graybox-{name}": doc for name, doc in CHAINS.items()},
}


def _model(doc, seed=0):
    """The model of doc with every parameter moved off its initial value,
    in eval mode."""
    rng = np.random.default_rng(seed)
    model = M.ModelSpec.from_dict(doc).build(rng)
    scale = 0.02 if doc["kind"] == "graybox" else 0.2
    for p in model.parameters():
        p.data = p.data + (scale * rng.standard_normal(p.data.shape)).astype(
            p.data.dtype)
    return model.eval()


def _pieces(model, x, c, edges):
    state, out = None, []
    for a, b in zip(edges, edges[1:]):
        y, state = model.forward(Tensor(x[a:b]), c, state)
        out.append(y.data)
    return np.concatenate(out)


@pytest.mark.parametrize("dt", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("name", list(MODELS))
def test_pieces_with_carried_state_equal_one_call(name, dt):
    rng = np.random.default_rng([list(MODELS).index(name), dt is np.float64])
    with _dtype(dt):
        model = _model(MODELS[name])
        # a ragged final control block, and splits on the alignment
        n = 3 * M.RENDER_ALIGN + 700
        x = (0.3 * rng.standard_normal(n)).astype(dt)
        c = Tensor(rng.uniform(0.0, 1.0, NUM_CONTROLS).astype(dt))
        splits = sorted(rng.choice([1, 2, 3], size=rng.integers(1, 4),
                                   replace=False) * M.RENDER_ALIGN)
        whole = model.forward(Tensor(x), c)[0].data
        split = _pieces(model, x, c, [0, *splits, n])
    assert whole.dtype == split.dtype == dt
    if dt is np.float32:
        assert np.array_equal(whole, split), (splits, np.abs(whole - split).max())
    else:
        assert np.allclose(whole, split, rtol=0.0, atol=1e-12), splits


@pytest.mark.parametrize("name", ["lstm-tvcond", "tcn-tvfilm", "gcn-tfilm",
                                  "graybox-eq_dynamics", "graybox-nonlinear"])
def test_pieces_on_the_stream_unit_equal_one_call_f64(name):
    # off the kernels' blocks the pieces round differently, but no more
    rng = np.random.default_rng(7)
    with _dtype(np.float64):
        model = _model(MODELS[name])
        unit = model.stream_unit
        n = 40 * unit + 77
        x = 0.3 * rng.standard_normal(n)
        c = Tensor(rng.uniform(0.0, 1.0, NUM_CONTROLS))
        edges = [0, 3 * unit, 17 * unit, 18 * unit, n]
        whole = model.forward(Tensor(x), c)[0].data
        assert np.allclose(whole, _pieces(model, x, c, edges), rtol=0.0,
                           atol=1e-12)


def test_stream_units():
    units = {name: _model(doc).stream_unit for name, doc in MODELS.items()}
    assert units == {"lstm-none": 1, "lstm-concat": 1, "lstm-tvcond": 128,
                     "tcn-none": 1, "tcn-film": 1, "tcn-tfilm": 128,
                     "tcn-ttfilm": 128, "tcn-tvfilm": 128, "gcn-none": 1,
                     "gcn-film": 1, "gcn-tfilm": 128, "gcn-ttfilm": 128,
                     "gcn-tvfilm": 128, "tcn-film-batchnorm": 1,
                     "graybox-eq_dynamics": 128, "graybox-nonlinear": 256}
    static = _chain([("parametric_eq", "static"), ("gain", "static_cond")])
    assert _model(static).stream_unit == 1


def test_render_chunk_keeps_every_kernel_block_whole():
    # perfbench compares a streamed float32 render with one call bit for
    # bit: the chunk edges must stay on the conv im2col spans, the biquad
    # solver blocks and BLAS's 16-row GEMV groups whatever those are tuned to
    for unit in (1, 16, 100, 128, 256, 384, 1000, 4096, 5000):
        chunk = M.render_chunk(unit)
        assert chunk >= M.RENDER_MIN and chunk % unit == 0
        # the smallest such multiple
        assert chunk - np.lcm(M.RENDER_ALIGN, unit) < M.RENDER_MIN
        for block in (T._CONV_CHUNK, T._BIQUAD_BLOCK, 16):
            assert chunk % block == 0, (unit, block)
    assert M.render_chunk(1) == M.render_chunk(128) == 65536


@pytest.mark.parametrize("name", ["lstm-tvcond", "tcn-film", "gcn-tvfilm",
                                  "graybox-eq_dynamics"])
def test_render_memory_is_bounded_by_one_chunk(name, monkeypatch):
    # chunks of RENDER_ALIGN samples keep the test small
    monkeypatch.setattr(M, "RENDER_MIN", 1)
    model = _model(MODELS[name])
    chunk = M.render_chunk(model.stream_unit)
    c = Tensor(np.full(NUM_CONTROLS, 0.5, dtype=np.float32))
    x = 0.3 * np.random.default_rng(3).standard_normal(8 * chunk)

    def peak(chunks):
        out = np.empty(chunks * chunk)  # the output file's buffer
        tracemalloc.start()
        try:
            M.render(model, x[:chunks * chunk], c, out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)  # caches and first-call allocations
    two, eight = peak(2), peak(8)
    assert eight <= 1.05 * two, (two, eight)


# chunks of three RENDER_ALIGN blocks: a conv model below, whose receptive
# field of 27 samples needs one block of lead, renders pieces of two
THREADED_MIN = 3 * M.RENDER_ALIGN
# a CPU this process may run on: tests run any number of workers on it
_ONE_CPU = M.available_cpus()[:1]


def _cpus(monkeypatch, n, blas=1):
    """Render as if on n CPUs, all of them _ONE_CPU, beside a BLAS that
    runs a call on `blas` threads."""
    monkeypatch.setattr(M, "available_cpus", lambda: n * _ONE_CPU)
    monkeypatch.setattr(M, "blas_threads", lambda: blas)


def _calls(model):
    """Record (thread, length, state given) for each of model's forwards."""
    calls, forward = [], model.forward

    def spy(x, c=None, state=None):
        calls.append((threading.current_thread(), x.data.shape[-1],
                      state is not None))
        return forward(x, c, state)

    model.forward = spy
    return calls


@pytest.mark.parametrize("dt", [np.float32, np.float64], ids=["f32", "f64"])
@pytest.mark.parametrize("name", ["tcn-film", "gcn-film"])
def test_threaded_render_equals_one_call(name, dt, monkeypatch):
    monkeypatch.setattr(M, "RENDER_MIN", THREADED_MIN)
    _cpus(monkeypatch, 2)
    rng = np.random.default_rng(11)
    with _dtype(dt):
        model = _model(MODELS[name])
        chunk = M.render_chunk(model.stream_unit)
        piece = chunk - M.RENDER_ALIGN
        # four whole pieces and a partial fifth
        n = 4 * piece + 700
        x = 0.3 * rng.standard_normal(n)
        c = Tensor(rng.uniform(0.0, 1.0, NUM_CONTROLS).astype(dt))
        one = model.forward(Tensor(x.astype(dt)), c)[0].data
        calls = _calls(model)
        out = M.render(model, x, c, np.empty(n, dtype=dt))
    assert np.array_equal(out, one), np.abs(out - one).max()
    # five zero-state calls of at most one chunk, on worker threads
    assert len(calls) == 5 and not any(given for _, _, given in calls)
    assert max(length for _, length, _ in calls) == chunk
    assert threading.current_thread() not in {t for t, _, _ in calls}


def test_threaded_render_with_more_workers_than_cores_equals_one_call(
        monkeypatch):
    # eight threads switching every microsecond write disjoint slices of
    # one output; a lost or misplaced write shows as a difference
    monkeypatch.setattr(M, "RENDER_MIN", THREADED_MIN)
    _cpus(monkeypatch, 8)
    model = _model(MODELS["gcn-film"])
    piece = M.render_chunk(model.stream_unit) - M.RENDER_ALIGN
    x = 0.3 * np.random.default_rng(14).standard_normal(12 * piece - 300)
    c = Tensor(np.array([0.6, 0.1], dtype=np.float32))
    one = model.forward(Tensor(x.astype(np.float32)), c)[0].data
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        t0 = time.perf_counter()
        out = M.render(model, x, c, np.full(len(x), np.nan))
        took = time.perf_counter() - t0
    finally:
        sys.setswitchinterval(switch)
    assert np.array_equal(out, one)
    assert took < 60.0


@pytest.mark.parametrize("cpus, blas", [(1, 1), (2, 2), (2, None)],
                         ids=["one-cpu", "blas-threads", "blas-unknown"])
def test_render_streams_in_order_unless_threads_can_share_cpus(
        monkeypatch, cpus, blas):
    monkeypatch.setattr(M, "RENDER_MIN", THREADED_MIN)
    model = _model(MODELS["tcn-film"])
    chunk = M.render_chunk(model.stream_unit)
    x = 0.3 * np.random.default_rng(12).standard_normal(3 * chunk + 500)
    c = Tensor(np.array([0.3, 0.8], dtype=np.float32))
    _cpus(monkeypatch, 2)
    threaded = M.render(model, x, c, np.empty(len(x)))
    _cpus(monkeypatch, cpus, blas)
    calls = _calls(model)
    ordered = M.render(model, x, c, np.empty(len(x)))
    assert np.array_equal(ordered, threaded)
    # four chunks with the state carried, all on this thread
    assert [(length, given) for _, length, given in calls] == [
        (chunk, False), (chunk, True), (chunk, True), (500, True)]
    assert {t for t, _, _ in calls} == {threading.current_thread()}


def test_threaded_render_memory_is_bounded_by_one_chunk_per_worker(
        monkeypatch):
    monkeypatch.setattr(M, "RENDER_MIN", THREADED_MIN)
    _cpus(monkeypatch, 2)
    model = _model(MODELS["tcn-film"])
    chunk = M.render_chunk(model.stream_unit)
    piece = chunk - M.RENDER_ALIGN
    c = Tensor(np.full(NUM_CONTROLS, 0.5, dtype=np.float32))
    x = 0.3 * np.random.default_rng(13).standard_normal(16 * piece)

    def peak(run):
        tracemalloc.start()
        try:
            run()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def render(pieces):
        out = np.empty(pieces * piece)  # the output file's buffer
        return peak(lambda: M.render(model, x[:pieces * piece], c, out))

    def one_chunk():
        return model.forward(Tensor(x[:chunk].astype(np.float32)), c)

    render(2)  # caches and first-call allocations
    forward = peak(one_chunk)
    # eight chunks of signal in the memory of two forwards, whatever
    # the threads' overlap
    sixteen = render(16)
    assert sixteen <= 1.05 * 2 * forward, (forward, sixteen)


def test_render_raises_an_error_from_a_worker_thread(monkeypatch):
    monkeypatch.setattr(M, "RENDER_MIN", THREADED_MIN)
    _cpus(monkeypatch, 2)
    model = _model(MODELS["gcn-film"])
    forward = model.forward

    def fail_off_main(x, c=None, state=None):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        return forward(x, c, state)

    model.forward = fail_off_main
    x = np.zeros(4 * M.render_chunk(1))
    with pytest.raises(RuntimeError, match="worker failed"):
        M.render(model, x, Tensor(np.full(NUM_CONTROLS, 0.5)), np.empty(len(x)))


def test_render_refuses_an_active_tape():
    # worker threads would record onto the caller's tape
    model = _model(MODELS["tcn-film"])
    x = np.zeros(1000)
    c = Tensor(np.full(NUM_CONTROLS, 0.5, dtype=np.float32))
    with T.Tape() as tape:
        with pytest.raises(ValueError, match="active tape"):
            M.render(model, x, c, np.empty(len(x)))
    assert tape.nodes == []


def _render_cli(tmp_path, name, n):
    """`gradfx render` of n samples of noise through _model(name) at
    controls (0.25, 0.75), float32: (exit code, model, input)."""
    doc = MODELS[name]
    model = _model(doc)
    ckpt = tmp_path / "model.json"
    M.save_checkpoint(ckpt, model, M.ModelSpec.from_dict(doc))
    x = (0.3 * np.random.default_rng(4).standard_normal(n)).astype(np.float32)
    D.save_wav(tmp_path / "in.wav", x, int(FS), bitdepth="float32")
    cfg = tmp_path / "exp.json"
    cfg.write_text(json.dumps({"model": doc, "output_dir": "out"}))
    rc = cli.main(["render", "--config", str(cfg), "--checkpoint", str(ckpt),
                   "--input", str(tmp_path / "in.wav"),
                   "--controls", "0.25", "0.75", "--bitdepth", "float32"])
    return rc, model, x


@pytest.mark.parametrize("name", ["graybox-eq_dynamics", "tcn-film"])
def test_cli_render_streams_a_long_file_bit_for_bit(tmp_path, monkeypatch,
                                                    name):
    # two and a half chunks through a per-block EQ chain with controls,
    # two and a half pieces through a TCN on two threads
    _cpus(monkeypatch, 2)
    unit = _model(MODELS[name]).stream_unit
    span = M.render_chunk(unit) - (M.RENDER_ALIGN if name == "tcn-film" else 0)
    rc, model, x = _render_cli(tmp_path, name, 2 * span + 1000)
    assert rc == 0
    got, _ = D.load_wav(tmp_path / "out" / "rendered.wav")
    c = Tensor(np.array([0.25, 0.75], dtype=np.float32))
    one = model.forward(Tensor(x), c)[0].data
    assert np.array_equal(got.astype(np.float32), one)


def test_cli_render_exits_3_without_a_file_when_a_worker_fails(
        tmp_path, monkeypatch, capsys):
    _cpus(monkeypatch, 2)
    forward = M.TCN.forward

    def fail_off_main(self, x, c=None, state=None):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("worker failed")
        return forward(self, x, c, state)

    monkeypatch.setattr(M.TCN, "forward", fail_off_main)
    rc, _, _ = _render_cli(tmp_path, "tcn-film", 3 * M.render_chunk(1))
    assert rc == 3
    assert "worker failed" in capsys.readouterr().err
    assert not (tmp_path / "out" / "rendered.wav").exists()


def test_sweep_warmup_fills_the_state_of_one_call():
    # the warm-up is rounded up to whole control blocks, so warm-up and
    # measurement together render as one call would
    with _dtype(np.float64):
        model = _model(MODELS["tcn-tvfilm"])
        cfg = A.SweepConfig(fs=FS, f1=200.0, f2=8000.0, steps=3, T=1.0,
                            warmup=0.01)
        c = Tensor(np.array([0.4, 0.6]))
        curve = A.stepped_sine_response(model, cfg, c)
        n_warm = 512  # 480 samples rounded up to blocks of 128
        n = n_warm + int(round(cfg.T * cfg.fs))
        t = np.arange(n) / cfg.fs
        tail = cfg.tail_length
        want = []
        for f in curve.freqs:
            x = cfg.amplitude * np.sin(2 * np.pi * f * t)
            y = model.forward(Tensor(x), c)[0].data
            want.append(A._project(y[-tail:], f, cfg.fs)
                        / A._project(x[-tail:], f, cfg.fs))
        assert np.allclose(curve.magnitude_db, 20 * np.log10(np.abs(want)),
                           rtol=0.0, atol=1e-9)
