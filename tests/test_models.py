"""Model assembly: receptive fields, causality, chains, checkpoints."""

import tracemalloc

import numpy as np
import pytest

import gradfx.tensor as T
from gradfx import controllers as C
from gradfx import models as M
from gradfx import nn
from gradfx import processors as P
from gradfx.tensor import Tape, Tensor, grad_check


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64))


def small_cfg(**kw):
    base = dict(blocks=2, kernel=3, dilation_growth=2, channels=4)
    base.update(kw)
    return M.TCNConfig(**base)


# -- receptive field ---------------------------------------------------------

def test_receptive_field_values():
    assert M.receptive_field(5, 7, 4) == 2047
    assert M.receptive_field(1, 1, 1) == 1
    assert M.receptive_field(2, 3, 2) == 7
    assert M.receptive_field(1, 2, 1) == 2
    with pytest.raises(ValueError):
        M.receptive_field(0, 3, 2)


def test_tcn_config_validation():
    with pytest.raises(ValueError):
        M.TCNConfig(blocks=0)
    with pytest.raises(ValueError):
        M.TCNConfig(channels=0)
    with pytest.raises(ValueError):
        M.TCNConfig(cond="nope")
    cfg = M.TCNConfig()
    assert cfg.receptive_field == 2047
    assert M.TCNConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()


# -- parameter counts --------------------------------------------------------

def test_tcn_param_counts_within_bands():
    rng = np.random.default_rng(80)
    counts = {}
    for mode in ("film", "tfilm", "ttfilm", "tvfilm"):
        cfg = M.TCNConfig(blocks=5, kernel=7, dilation_growth=4, channels=16,
                          cond=mode)
        model = M.TCN(cfg, num_controls=2, rng=rng)
        counts[mode] = sum(p.data.size for p in model.parameters())
    bands = {"film": 15000, "tfilm": 42000, "ttfilm": 17300, "tvfilm": 17700}
    for mode, target in bands.items():
        assert abs(counts[mode] - target) <= 0.15 * target, (mode, counts[mode])
    assert counts["film"] < counts["ttfilm"] < counts["tvfilm"] < counts["tfilm"]


def test_trivial_linear_param_count():
    from gradfx import nn
    lin = nn.Linear(4, 2, np.random.default_rng(0))
    assert sum(p.data.size for p in lin.parameters()) == 10


# -- LSTM backbone -----------------------------------------------------------

def test_lstm_zero_weights_is_constant_tanh_bias():
    rng = np.random.default_rng(81)
    model = M.LSTMModel(hidden=8, rng=rng)
    for p in model.parameters():
        p.data = np.zeros_like(p.data)
    model.out.b.data = np.array([0.7], dtype=np.float32)
    y, _ = model.forward(Tensor(np.random.default_rng(0)
                                .standard_normal(40).astype(np.float32)))
    assert np.allclose(y.data, np.tanh(0.7), atol=1e-6)


def test_lstm_concat_mode_feature_dim():
    rng = np.random.default_rng(82)
    model = M.LSTMModel(num_controls=2, hidden=8, cond_mode="concat", rng=rng)
    assert model.lstm.cell.w_x.data.shape[0] == 3
    x = Tensor(np.zeros(16, dtype=np.float32))
    with pytest.raises(ValueError):
        model.forward(x)
    y, state = model.forward(x, Tensor(np.array([0.5, 0.5], dtype=np.float32)))
    assert y.data.shape == (16,)
    assert state[0] is not None

    with pytest.raises(ValueError):
        M.LSTMModel(cond_mode="concat")  # no controls
    with pytest.raises(ValueError):
        M.LSTMModel(cond_mode="weird", num_controls=1)


def test_lstm_chunked_equals_one_shot():
    rng = np.random.default_rng(83)
    model = M.LSTMModel(num_controls=1, hidden=12, cond_mode="concat", rng=rng)
    x = rng.standard_normal(200).astype(np.float32)
    c = Tensor(np.array([0.3], dtype=np.float32))
    full, _ = model.forward(Tensor(x), c)
    a, st = model.forward(Tensor(x[:70]), c)
    b, _ = model.forward(Tensor(x[70:]), c, state=st)
    stitched = np.concatenate([a.data, b.data])
    assert np.max(np.abs(stitched - full.data)) < 1e-6


def test_lstm_tvcond_chunked_on_block_boundary():
    rng = np.random.default_rng(84)
    model = M.LSTMModel(num_controls=1, hidden=8, cond_mode="tvcond", rng=rng,
                        block_size=32, tvcond_latent=4)
    assert model.lstm.cell.w_x.data.shape[0] == 5
    x = rng.standard_normal(128).astype(np.float32)
    c = Tensor(np.array([0.8], dtype=np.float32))
    full, _ = model.forward(Tensor(x), c)
    a, st = model.forward(Tensor(x[:64]), c)
    b, _ = model.forward(Tensor(x[64:]), c, state=st)
    stitched = np.concatenate([a.data, b.data])
    assert np.max(np.abs(stitched - full.data)) < 1e-6


def test_untaped_lstm_forward_keeps_no_per_step_gates():
    # inference holds the input projection and the output, 5H floats per
    # sample; per-step gates and factors would add 8H more
    hidden, n = 32, 48000
    model = M.LSTMModel(hidden=hidden, rng=np.random.default_rng(90))
    x = Tensor((0.1 * np.random.default_rng(91).standard_normal(n))
               .astype(np.float32))
    tracemalloc.start()
    try:
        model.forward(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * hidden * 4 * n, peak / (hidden * 4 * n)


def test_taped_lstm_keeps_six_floats_per_unit_and_sample():
    # a taped layer keeps 6H floats per sample, its gates in the rows of the
    # input projection and two factors, and its vjp writes the gate
    # adjoints over the gates; with the output, the loss's and the slice's
    # gradients and one backward block that peaks near 10 [T, H] arrays.
    # Gates, factors and adjoints each in a buffer of their own would
    # reach about 15.5
    hidden, n = 32, 2048
    rng = np.random.default_rng(92)
    lstm = nn.LSTM(1, hidden, rng)
    x = Tensor((0.1 * rng.standard_normal((n, 1))).astype(np.float32))
    w = Tensor(rng.standard_normal((n, hidden)).astype(np.float32))

    def step():
        with Tape() as tape:
            y, _ = lstm.forward(x)
            tape.backward(T.sum_(T.mul(y, w)), lstm.parameters())

    step()  # caches and first-call allocations
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11 * hidden * 4 * n, peak / (hidden * 4 * n)


# -- causality ---------------------------------------------------------------

def _perturb_tail_invariance(model, n=96, cut=48, c=None):
    """x[cut:] moves y[cut:] and nothing before; with a bounded
    receptive_field r, x[cut] alone moves y[cut + r - 1] and nothing
    from y[cut + r] on."""
    rng = np.random.default_rng(85)
    x = rng.standard_normal(n).astype(np.float32)
    x2 = x.copy()
    x2[cut:] += 1.0
    y1, _ = model.forward(Tensor(x), c)
    y2, _ = model.forward(Tensor(x2), c)
    assert np.array_equal(y1.data[:cut], y2.data[:cut])
    assert not np.allclose(y1.data[cut:], y2.data[cut:])
    r = model.receptive_field
    if r is not None:
        x3 = x.copy()
        x3[cut] += 1.0
        y3, _ = model.forward(Tensor(x3), c)
        assert np.array_equal(y1.data[cut + r:], y3.data[cut + r:])
        assert y1.data[cut + r - 1] != y3.data[cut + r - 1]


def test_models_are_causal():
    rng = np.random.default_rng(86)
    _perturb_tail_invariance(M.LSTMModel(hidden=8, rng=rng))
    _perturb_tail_invariance(M.TCN(small_cfg(), rng=rng))
    _perturb_tail_invariance(M.GCN(small_cfg(), rng=rng))
    c = Tensor(np.array([0.4, 0.9], dtype=np.float32))
    _perturb_tail_invariance(M.TCN(small_cfg(cond="film"), 2, rng), c=c)
    _perturb_tail_invariance(M.GCN(small_cfg(cond="film"), 2, rng), c=c)


def test_tcn_receptive_field_bound_is_tight():
    # the bound the stepped-sine sweep trusts, read off each model
    rng = np.random.default_rng(87)
    c = Tensor(np.array([0.4, 0.9], dtype=np.float32))
    for cls in (M.TCN, M.GCN):
        for cond in ("none", "film"):
            cfg = small_cfg(cond=cond)  # RF = 1 + 2*(1+2) = 7
            model = cls(cfg, 2, rng)
            rf = model.receptive_field
            assert rf == cfg.receptive_field == 7
            x = rng.standard_normal(64).astype(np.float32)
            x2 = x.copy()
            x2[0] += 1.0
            y1, _ = model.forward(Tensor(x), c)
            y2, _ = model.forward(Tensor(x2), c)
            assert np.array_equal(y1.data[rf:], y2.data[rf:]), (cls, cond)
            assert abs(y1.data[rf - 1] - y2.data[rf - 1]) > 0, (cls, cond)


def test_conv_models_preserve_length():
    rng = np.random.default_rng(88)
    for cls in (M.TCN, M.GCN):
        model = cls(small_cfg(), rng=rng)
        y, _ = model.forward(Tensor(np.ones(77, dtype=np.float32)))
        assert y.data.shape == (77,)


def test_gcn_same_rf_formula_and_conditioning():
    rng = np.random.default_rng(89)
    cfg = small_cfg(cond="tvfilm", channels=6)
    model = M.GCN(cfg, num_controls=1, rng=rng)
    x = Tensor(np.random.default_rng(1).standard_normal(256).astype(np.float32))
    y, state = model.forward(x, Tensor(np.array([0.5], dtype=np.float32)))
    assert y.data.shape == (256,)


@pytest.mark.parametrize("cls", [M.TCN, M.GCN])
@pytest.mark.parametrize("cond", ["tfilm", "ttfilm"])
def test_conv_forward_leaves_the_callers_state_alone(cls, cond):
    rng = np.random.default_rng(90)
    model = cls(small_cfg(cond=cond, channels=12), num_controls=1, rng=rng)
    for p in model.stack.conditioner.parameters():  # leave the identity
        p.data = p.data + rng.normal(0.0, 0.3, p.data.shape).astype(p.data.dtype)
    x = Tensor(rng.standard_normal(64).astype(np.float32))
    c = Tensor(np.array([0.6], dtype=np.float32))
    _, s = model.forward(x, c)
    before = [a.copy() for a in _state_arrays(s)]
    y1, s1 = model.forward(x, c, s)
    y2, _ = model.forward(x, c, s)
    assert np.array_equal(y1.data, y2.data)
    assert s1 is not s
    after = _state_arrays(s)
    assert len(after) == len(before) == 2 * 2 + 2  # (h, c) per block, contexts
    for a, b in zip(after, before):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("cls", [M.TCN, M.GCN])
@pytest.mark.parametrize("cond", ["none", "tfilm"])
def test_taped_conv_forward_keeps_no_contexts(cls, cond):
    rng = np.random.default_rng(92)
    model = cls(small_cfg(cond=cond), num_controls=1, rng=rng)
    x = Tensor(rng.standard_normal(64).astype(np.float32))
    c = Tensor(np.array([0.6], dtype=np.float32))
    y0, s0 = model.forward(x, c)
    with T.Tape():
        y1, s1 = model.forward(x, c)
    assert np.array_equal(y0.data, y1.data)
    assert len(s0[1]) == 2 and s1[1] is None
    assert (s1[0] is None) == (cond == "none")  # the conditioner's is kept
    with pytest.raises(ValueError, match="keeps no conv contexts"):
        model.forward(x, c, s1)


def _state_arrays(s) -> list:
    """Every array of a nested model state, in order."""
    if isinstance(s, (tuple, list)):
        return [a for v in s for a in _state_arrays(v)]
    return [] if s is None else [s.data if isinstance(s, Tensor) else s]


@pytest.mark.parametrize("make", [
    *[lambda rng, cond=cond: M.TCN(small_cfg(cond=cond, channels=12), 2, rng)
      for cond in ("film", "tfilm", "ttfilm", "tvfilm")],
    lambda rng: M.LSTMModel(num_controls=2, hidden=4, cond_mode="tvcond",
                            rng=rng),
], ids=["film", "tfilm", "ttfilm", "tvfilm", "tvcond"])
@pytest.mark.parametrize("c", [None, np.array([0.5, 0.5, 0.5], np.float32)],
                         ids=["missing", "three"])
def test_conditioners_reject_missing_or_wrong_length_controls(make, c):
    model = make(np.random.default_rng(91))
    x = Tensor(np.zeros(64, dtype=np.float32))
    got = None if c is None else 3
    with pytest.raises(ValueError, match=f"expected 2 controls, got {got}"):
        model.forward(x, None if c is None else Tensor(c))


# -- gray box ----------------------------------------------------------------

def test_graybox_identity_gain_chain():
    spec = M.GrayBoxSpec([M.StageSpec("gain", "static")])
    chain = M.GrayBoxChain(spec, np.random.default_rng(90))
    x = Tensor(np.random.default_rng(2).standard_normal(128).astype(np.float32))
    y, _ = chain.forward(x)
    assert np.array_equal(y.data, x.data)  # sigmoid(0) -> 0 dB -> exact


def test_graybox_fuzz_chain_structure():
    stages = [
        M.StageSpec("parametric_eq", "static_cond"),
        M.StageSpec("gain", "static_cond"),
        M.StageSpec("dc_offset", "dynamic_cond"),
        M.StageSpec("mlp", "dummy"),
        M.StageSpec("gain", "static_cond"),
        M.StageSpec("parametric_eq", "static_cond"),
    ]
    spec = M.GrayBoxSpec(stages, num_controls=2, block_size=128)
    chain = M.GrayBoxChain(spec, np.random.default_rng(91))
    assert sum(p.num_params for p in chain.processors) == 33
    x = Tensor(np.random.default_rng(3).standard_normal(512).astype(np.float32))
    c = Tensor(np.array([0.2, 0.7], dtype=np.float32))
    y, states = chain.forward(x, c)
    assert y.data.shape == (512,)
    assert states[2] is not None  # the dynamic stage carries state


def test_graybox_controller_processor_mismatch():
    with pytest.raises(ValueError):
        M.GrayBoxChain(M.GrayBoxSpec([M.StageSpec("tanh", "static")]),
                       np.random.default_rng(0))
    with pytest.raises(ValueError):
        M.GrayBoxChain(M.GrayBoxSpec([M.StageSpec("gain", "dummy")]),
                       np.random.default_rng(0))
    for kind in ("static_cond", "dynamic_cond"):  # no controls to condition on
        with pytest.raises(ValueError, match="num_controls"):
            M.GrayBoxChain(M.GrayBoxSpec([M.StageSpec("gain", kind)]),
                           np.random.default_rng(0))


def _graybox_doc(num_controls, block_size=128, **stage):
    return {"kind": "graybox", "num_controls": num_controls,
            "graybox": {"stages": [stage], "block_size": block_size}}


def _model_docs():
    """(model section, whether the rules allow it) over every processor x
    controller kind, every conv conditioner x width and every lstm
    cond_mode, each at 0 and 1 controls; then the smallest sizes allowed.
    The rules: a dummy controller exactly for a processor with no
    controlled parameters; conditioned controllers, film, tfilm, ttfilm
    and a conditioned lstm need controls; ttfilm needs more than its
    reduced width of 8 channels."""
    for nc in (0, 1):
        for p, cls in P.PROCESSOR_KINDS.items():
            for k in C.CONTROLLER_KINDS:
                yield (_graybox_doc(nc, processor=p, controller=k),
                       (k == "dummy") == (cls.num_params == 0)
                       and (nc > 0 or not k.endswith("_cond")))
        for kind in ("tcn", "gcn"):
            for cond in M.COND_MODES:
                for ch in (1, 8, 9):
                    yield ({"kind": kind, "num_controls": nc,
                            kind: {"blocks": 2, "kernel": 3,
                                   "dilation_growth": 2, "channels": ch,
                                   "cond": cond}},
                           (nc > 0 or cond in ("none", "tvfilm"))
                           and (cond != "ttfilm" or ch > 8))
        for mode in ("none", "concat", "tvcond"):
            yield ({"kind": "lstm", "num_controls": nc,
                    "lstm": {"hidden": 4, "cond_mode": mode}},
                   nc > 0 or mode == "none")
    yield _graybox_doc(0, processor="fir", controller="dummy",
                       processor_opts={"num_taps": 1}), True
    yield _graybox_doc(1, processor="gain", controller="static_cond",
                       controller_opts={"layers": 1}), True
    yield _graybox_doc(1, 1, processor="gain", controller="dynamic_cond"), True
    yield {"kind": "tcn", "tcn": {"blocks": 1, "kernel": 1,
                                  "dilation_growth": 1, "channels": 1}}, True
    yield ({"kind": "lstm", "num_controls": 1,
            "lstm": {"hidden": 1, "cond_mode": "tvcond", "block_size": 1,
                     "tvcond_latent": 1}}, True)


def test_every_model_spec_that_loads_builds_and_runs():
    # the spec is the one place that decides validity: a spec the rules
    # forbid fails at load, and one they allow builds and runs
    x = Tensor(np.random.default_rng(5).standard_normal(512)
               .astype(np.float32))
    wrong = []
    for doc, valid in _model_docs():
        try:
            spec = M.ModelSpec.from_dict(doc)
        except ValueError as e:
            if valid:
                wrong.append((doc, f"rejected: {e}"))
            continue
        if not valid:
            wrong.append((doc, "loaded"))
            continue
        c = (Tensor(np.full(spec.num_controls, 0.5, np.float32))
             if spec.num_controls else None)
        try:
            y, _ = spec.build(np.random.default_rng(0)).forward(x, c)
        except ValueError as e:
            wrong.append((doc, f"build or forward failed: {e}"))
            continue
        if y.data.shape != (512,) or not np.all(np.isfinite(y.data)):
            wrong.append((doc, "bad output"))
    assert not wrong, wrong


def test_graybox_reordered_gains_commute():
    rng = np.random.default_rng(92)
    spec = M.GrayBoxSpec([M.StageSpec("gain", "static"),
                          M.StageSpec("gain", "static")])
    a = M.GrayBoxChain(spec, rng)
    a.controllers[0].b.data = np.array([0.9], dtype=np.float32)
    a.controllers[1].b.data = np.array([-0.4], dtype=np.float32)
    b = M.GrayBoxChain(spec, rng)
    b.controllers[0].b.data = np.array([-0.4], dtype=np.float32)
    b.controllers[1].b.data = np.array([0.9], dtype=np.float32)
    x = Tensor(np.random.default_rng(4).standard_normal(256).astype(np.float32))
    ya, _ = a.forward(x)
    yb, _ = b.forward(x)
    assert np.max(np.abs(ya.data - yb.data)) < 1e-6


def test_graybox_split_chain_matches_whole():
    rng = np.random.default_rng(93)
    whole = M.GrayBoxChain(M.GrayBoxSpec([M.StageSpec("gain", "static"),
                                          M.StageSpec("tanh", "dummy")]), rng)
    whole.controllers[0].b.data = np.array([0.6], dtype=np.float32)
    first = M.GrayBoxChain(M.GrayBoxSpec([M.StageSpec("gain", "static")]),
                           np.random.default_rng(0))
    first.controllers[0].b.data = np.array([0.6], dtype=np.float32)
    second = M.GrayBoxChain(M.GrayBoxSpec([M.StageSpec("tanh", "dummy")]),
                            np.random.default_rng(0))
    x = Tensor(np.random.default_rng(5).standard_normal(128).astype(np.float32))
    y_whole, _ = whole.forward(x)
    mid, _ = first.forward(x)
    y_split, _ = second.forward(mid)
    assert np.array_equal(y_whole.data, y_split.data)


# -- end-to-end gradients ----------------------------------------------------

def _model_grad_check(build, n, c_vals=None, params_cap=None):
    T.set_default_dtype(np.float64)
    try:
        model = build()
    finally:
        T.set_default_dtype(np.float32)
    rng = np.random.default_rng(94)
    x = t64(rng.standard_normal(n) * 0.5)
    c = t64(c_vals) if c_vals is not None else None
    w = rng.standard_normal(n)
    params = model.parameters()
    if params_cap is not None:
        params = params[:params_cap]

    def f(ts):
        y, _ = model.forward(ts[-1], c)
        return T.sum_(T.mul(y, Tensor(w)))

    return grad_check(f, params + [x])


def test_lstm_end_to_end_gradients():
    err = _model_grad_check(
        lambda: M.LSTMModel(hidden=4, rng=np.random.default_rng(95)), 64)
    assert err < 1e-4


def test_tcn_film_end_to_end_gradients():
    err = _model_grad_check(
        lambda: M.TCN(small_cfg(cond="film"), 2, np.random.default_rng(96)),
        96, c_vals=[0.3, 0.8])
    assert err < 1e-4


def test_gcn_end_to_end_gradients():
    err = _model_grad_check(
        lambda: M.GCN(small_cfg(channels=3), rng=np.random.default_rng(97)), 96)
    assert err < 1e-4


def test_graybox_end_to_end_gradients():
    def build():
        spec = M.GrayBoxSpec([M.StageSpec("gain", "static"),
                              M.StageSpec("tanh", "dummy"),
                              M.StageSpec("dc_offset", "static")])
        return M.GrayBoxChain(spec, np.random.default_rng(98))

    assert _model_grad_check(build, 64) < 1e-4


# -- spec union + checkpoints ------------------------------------------------

def test_model_spec_exactly_one_variant():
    with pytest.raises(ValueError):
        M.ModelSpec()
    with pytest.raises(ValueError):
        M.ModelSpec(lstm={"hidden": 8}, tcn=M.TCNConfig())
    spec = M.ModelSpec(tcn=M.TCNConfig(), num_controls=0)
    assert spec.kind == "tcn"
    again = M.ModelSpec.from_dict(spec.to_dict())
    assert again.to_dict() == spec.to_dict()
    with pytest.raises(ValueError):
        M.ModelSpec.from_dict({"kind": "svm", "svm": {}})


def test_build_model_from_dict():
    d = {"kind": "lstm", "sample_rate": 44100.0, "num_controls": 1,
         "lstm": {"hidden": 6, "cond_mode": "concat"}}
    model = M.ModelSpec.from_dict(d).build(np.random.default_rng(99))
    y, _ = model.forward(Tensor(np.zeros(8, dtype=np.float32)),
                         Tensor(np.array([0.5], dtype=np.float32)))
    assert y.data.shape == (8,)


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(100)
    spec = M.ModelSpec(tcn=M.TCNConfig(blocks=2, kernel=3, dilation_growth=2,
                                       channels=4, cond="film"),
                       num_controls=2)
    model = spec.build(rng)
    path = tmp_path / "ckpt.json"
    M.save_checkpoint(path, model, spec, extra={"step": 17})
    loaded, spec2, extra = M.load_checkpoint(path)
    assert extra == {"step": 17}
    assert spec2.to_dict() == spec.to_dict()
    orig = model.state_dict()
    back = loaded.state_dict()
    assert set(orig) == set(back)
    for k in orig:
        assert orig[k].dtype == back[k].dtype
        assert np.array_equal(orig[k], back[k]), k
    x = Tensor(np.random.default_rng(6).standard_normal(64).astype(np.float32))
    c = Tensor(np.array([0.1, 0.9], dtype=np.float32))
    y1, _ = model.forward(x, c)
    y2, _ = loaded.forward(x, c)
    assert np.array_equal(y1.data, y2.data)


def test_graybox_checkpoint_roundtrip(tmp_path):
    spec = M.ModelSpec(graybox={"stages": [
        {"processor": "gain", "controller": "static"},
        {"processor": "parametric_eq", "controller": "static"},
    ]}, sample_rate=48000.0)
    model = spec.build(np.random.default_rng(101))
    model.controllers[0].b.data = np.array([0.25], dtype=np.float32)
    path = tmp_path / "gb.json"
    M.save_checkpoint(path, model, spec)
    loaded, _, _ = M.load_checkpoint(path)
    assert loaded.controllers[0].b.data[0] == np.float32(0.25)
    x = Tensor(np.random.default_rng(7).standard_normal(128).astype(np.float32))
    y1, _ = model.forward(x)
    y2, _ = loaded.forward(x)
    assert np.array_equal(y1.data, y2.data)


def test_graybox_spec_leaves_the_callers_dict_alone():
    d = {"stages": [{"processor": "gain"}]}
    a = M.ModelSpec(sample_rate=44100.0, graybox=d)
    b = M.ModelSpec(sample_rate=48000.0, num_controls=2, graybox=d)
    assert d == {"stages": [{"processor": "gain"}]}
    assert (a.config.sample_rate, a.config.num_controls) == (44100.0, 0)
    assert (b.config.sample_rate, b.config.num_controls) == (48000.0, 2)


def test_module_walk_name_rules():
    from gradfx import nn

    class Leaf(nn.Module):
        def __init__(self):
            self.w = Tensor(np.zeros(1), requires_grad=True)
            self._buf_n = np.zeros(1)

    class Root(nn.Module):
        def __init__(self):
            self.a = Leaf()
            self._hidden = Leaf()  # no parameters, but its buffers count
            self.items = [Leaf(), Tensor(np.ones(1), requires_grad=True),
                          Tensor(np.ones(1))]
            self.frozen = Tensor(np.ones(1))

    r = Root()
    assert [k for k, _ in r.named_parameters()] == ["a.w", "items.0.w",
                                                    "items.1"]
    assert [k for k, _ in r.named_buffers()] == [
        "a._buf_n", "_hidden._buf_n", "items.0._buf_n"]
    assert [type(m).__name__ for m in r.modules()] == ["Root", "Leaf", "Leaf",
                                                        "Leaf"]
    assert list(r.modules())[2] is r._hidden


def _bn_tcn():
    spec = M.ModelSpec(tcn=M.TCNConfig(blocks=2, kernel=3, dilation_growth=2,
                                       channels=4, batchnorm=True))
    return spec.build(np.random.default_rng(0))


def _wrong_shape(a):
    return np.zeros(a.shape + (2,), dtype=a.dtype)


@pytest.mark.parametrize("name", ["mixer.w", "stack.norms.0._buf_running_var"])
@pytest.mark.parametrize("edit, message", [
    (lambda s, k: s.pop(k), "entry {} is missing"),
    (lambda s, k: s.update({k + "x": s[k]}), "entry {}x is unknown"),
    (lambda s, k: s.update({k: _wrong_shape(s[k])}), "entry {} has shape"),
], ids=["missing", "unknown", "shape"])
def test_load_state_dict_names_a_bad_entry_and_writes_nothing(name, edit,
                                                              message):
    model = _bn_tcn()
    before = model.state_dict()
    state = {k: a + 1 for k, a in before.items()}
    edit(state, name)
    with pytest.raises(ValueError, match=message.format(name)):
        model.load_state_dict(state)
    after = model.state_dict()
    assert all(np.array_equal(after[k], before[k]) for k in before)


def test_load_state_dict_writes_in_place_in_the_live_dtype():
    model = _bn_tcn()
    live = dict(model.named_arrays())
    state = {k: (a + 1).astype(np.float64) for k, a in live.items()}
    model.load_state_dict(state)
    for k, a in model.named_arrays():
        assert a is live[k] and a.dtype == np.float32, k
        assert np.array_equal(a, state[k].astype(np.float32)), k
