import contextlib
import json
import tracemalloc

import numpy as np
import pytest

from gradfx import losses as L
from gradfx import tensor as T
from gradfx import training as tr
from gradfx.data import Segment
from gradfx.models import COND_MODES, GrayBoxSpec, ModelSpec, StageSpec
from gradfx.tensor import Tape, Tensor
from oracles import logs_match, one_tape_step


def _gain_spec():
    gb = GrayBoxSpec([StageSpec("gain", "static")], sample_rate=48000.0,
                     num_controls=0, block_size=128)
    return ModelSpec(sample_rate=48000.0, num_controls=0, graybox=gb)


def _segments(k, n=2048, seed=0, target_gain=0.5):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(k):
        x = (rng.standard_normal(n) * 0.3).astype(np.float32)
        out.append(Segment(x, (target_gain * x).astype(np.float32),
                           np.zeros(0), i, 0))
    return out


def _full(opt, value):
    """One gradient array per parameter, every entry `value`."""
    return [np.full_like(p.data, value, dtype=np.float64) for p in opt.params]


def test_config_validation():
    # per-field rules are checked at config load (tests/test_config_cli.py)
    with pytest.raises(ValueError):
        tr.TrainConfig(stop_metric="esr")  # missing stop_value
    with pytest.raises(ValueError):
        tr.TrainConfig(tbptt=True, batch_size=2)


def test_adam_matches_hand_iterates():
    w = Tensor(np.float64(1.0), requires_grad=True)
    opt = tr.Adam([w], lr=0.1)
    # replicate the recursion with plain floats
    wh, m, v = 1.0, 0.0, 0.0
    for t in range(1, 4):
        with Tape() as tape:
            loss = T.mul(w, w)
            grads = tape.backward(loss, [w])
        assert opt.step(grads)
        g = 2.0 * wh
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1.0 - 0.9 ** t)
        vhat = v / (1.0 - 0.999 ** t)
        wh = wh - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
        assert abs(w.item() - wh) < 1e-14
    assert opt.t == 3


def test_adam_zero_grad_keeps_params():
    w = Tensor(np.float64(2.5), requires_grad=True)
    opt = tr.Adam([w], lr=0.1)
    for _ in range(5):
        assert opt.step(_full(opt, 0.0))
    assert w.item() == 2.5
    assert opt.t == 5
    # after one real gradient the first moment decays under zero grads
    opt.step(_full(opt, 1.0))
    m1 = opt.m[0].copy()
    opt.step(_full(opt, 0.0))
    assert np.allclose(opt.m[0], 0.9 * m1)


def test_adam_skips_nonfinite():
    w = Tensor(np.float64(1.0), requires_grad=True)
    opt = tr.Adam([w], lr=0.1)
    assert not opt.step(_full(opt, np.nan))
    assert not opt.step(_full(opt, np.inf))
    assert w.item() == 1.0
    assert opt.t == 0
    assert opt.skipped == 2
    assert opt.step(_full(opt, 1.0))  # recovers on the next finite step
    assert opt.t == 1


def test_adam_missing_grad_treated_as_zero():
    w = Tensor(np.float64(1.0), requires_grad=True)
    u = Tensor(np.float64(3.0), requires_grad=True)
    opt = tr.Adam([w, u], lr=0.1)
    with Tape() as tape:
        loss = T.mul(w, w)  # u never touches the tape
        grads = tape.backward(loss, [w, u])
    assert grads[1] is None
    assert opt.step(grads)
    assert u.item() == 3.0
    assert w.item() != 1.0


def _adam_state(opt):
    return {"t": 3, "skipped": 1, "m": [np.ones_like(m) for m in opt.m],
            "v": [np.full_like(v, 2.0) for v in opt.v]}


@pytest.mark.parametrize("edit, message", [
    (lambda s: s["m"].pop(), r"optimizer entry m\[1\] is missing"),
    (lambda s: s["v"].append(np.zeros(1)),
     r"optimizer entry v\[2\] is unknown"),
    (lambda s: s["v"].__setitem__(0, np.zeros(3)),
     r"optimizer entry v\[0\] has shape \(3,\)"),
], ids=["missing", "unknown", "shape"])
def test_adam_load_state_dict_names_a_bad_entry_and_writes_nothing(edit,
                                                                   message):
    opt = tr.Adam([Tensor(np.zeros(2), requires_grad=True),
                   Tensor(np.zeros(()), requires_grad=True)])
    state = _adam_state(opt)
    edit(state)
    with pytest.raises(ValueError, match=message):
        opt.load_state_dict(state)
    assert (opt.t, opt.skipped) == (0, 0)
    assert not any(np.any(a) for a in opt.m + opt.v)


def test_adam_load_state_dict_writes_its_own_moments():
    opt = tr.Adam([Tensor(np.zeros(2, dtype=np.float32), requires_grad=True)])
    m, v = opt.m[0], opt.v[0]
    opt.load_state_dict({"t": 3, "skipped": 1, "m": [np.ones(2)],
                         "v": [np.full(2, 2.0)]})
    assert opt.m[0] is m and opt.v[0] is v and m.dtype == np.float32
    assert (opt.t, opt.skipped) == (3, 1)
    assert m.tolist() == [1.0, 1.0] and v.tolist() == [2.0, 2.0]


def test_train_step_converges_on_gain_task():
    spec = _gain_spec()
    model = spec.build(np.random.default_rng(0))
    cfg = tr.TrainConfig(max_steps=300, lr=5e-3, seed=0)
    opt = tr.Adam(model.parameters(), cfg.lr)
    segs = _segments(2, seed=1)
    last = None
    for step in range(1, 301):
        idx = tr.batch_indices(cfg.seed, step, len(segs), 1)
        last = tr.train_step(model, [segs[i] for i in idx], opt, cfg)
    assert last["loss_tot"] < 5e-3
    # the single static control should land on -6.02 dB, i.e. gain 0.5
    x = Tensor(np.ones(256, dtype=np.float32))
    y, _ = model.forward(x)
    assert abs(float(np.mean(y.data)) - 0.5) < 5e-3


def test_train_step_empty_batch():
    spec = _gain_spec()
    model = spec.build(np.random.default_rng(0))
    cfg = tr.TrainConfig()
    opt = tr.Adam(model.parameters())
    with pytest.raises(ValueError):
        tr.train_step(model, [], opt, cfg)


class _NaNModel:
    def train(self, mode=True):
        pass

    def eval(self):
        pass

    def forward(self, x, c=None, state=None):
        return Tensor(np.full(len(x.data), np.nan, dtype=np.float64)), None


def test_train_step_skips_nonfinite_loss():
    model = _NaNModel()
    cfg = tr.TrainConfig()
    opt = tr.Adam([Tensor(np.float64(1.0), requires_grad=True)])
    seg = _segments(1)[0]
    out = tr.train_step(model, [seg], opt, cfg)
    assert not out["applied"]
    assert opt.skipped == 1
    assert opt.t == 0


def test_grads_reach_every_parameter():
    from gradfx.models import TCN, TCNConfig

    cfg = TCNConfig(blocks=2, kernel=3, dilation_growth=2, channels=4,
                    cond="film")
    model = TCN(cfg, num_controls=2, rng=np.random.default_rng(0))
    x = Tensor(np.random.default_rng(1).standard_normal(64)
               .astype(np.float32))
    y = np.random.default_rng(2).standard_normal(64).astype(np.float32)
    c = Tensor(np.array([0.3, 0.8], dtype=np.float32))
    with Tape() as tape:
        y_hat, _ = model.forward(x, c)
        loss, _, _ = L.weighted_loss(Tensor(y), y_hat, L.LossWeights(1.0, 0.0))
        grads = tape.backward(loss, model.parameters())
    assert all(g is not None for g in grads)


def _tcn(cond, batchnorm):
    return {"blocks": 2, "kernel": 3, "dilation_growth": 2, "channels": 12,
            "cond": cond, "batchnorm": batchnorm}


def _every_stage_kind():
    stages = [("phase_inv", "dummy"), ("gain", "static"),
              ("dc_offset", "static_cond"), ("parametric_eq", "dynamic"),
              ("shelving_eq", "dynamic_cond"), ("fir", "dummy"),
              ("tanh", "dummy"), ("rational", "dummy"), ("mlp", "dummy")]
    return {"stages": [{"processor": p, "controller": c} for p, c in stages],
            "block_size": 128}


# the perfbench gray box: EQ, gain, offset, rational, gain, dynamic EQ
_BENCH_CHAIN = {"stages": [
    {"processor": "parametric_eq", "controller": "static"},
    {"processor": "gain", "controller": "static"},
    {"processor": "dc_offset", "controller": "static"},
    {"processor": "rational", "controller": "dummy"},
    {"processor": "gain", "controller": "static"},
    {"processor": "parametric_eq", "controller": "dynamic"}],
    "block_size": 128}

_STEP_KINDS = {
    **{f"{kind}_{cond}{'_bn' if bn else ''}": {kind: _tcn(cond, bn)}
       for kind in ("tcn", "gcn") for cond in COND_MODES
       for bn in (False, True)},
    **{f"lstm_{mode}": {"lstm": {"hidden": 4, "cond_mode": mode}}
       for mode in ("none", "concat", "tvcond")},
    "graybox_bench": {"graybox": _BENCH_CHAIN},
    "graybox_every_stage": {"graybox": _every_stage_kind()},
}


def _controlled_segments(k, n, seed, nan_target=None):
    rng = np.random.default_rng(seed)
    out = []
    for i in range(k):
        x = (rng.standard_normal(n) * 0.3).astype(np.float32)
        y = np.tanh(2.0 * x).astype(np.float32)
        if i == nan_target:
            y[n // 2] = np.nan
        out.append(Segment(x, y, rng.uniform(0, 1, 2).astype(np.float32),
                           i, 0))
    return out


@pytest.mark.parametrize("batch", [2, 3])
@pytest.mark.parametrize("kind", sorted(_STEP_KINDS))
def test_train_step_is_bit_identical_to_one_tape_over_the_batch(kind, batch):
    spec = ModelSpec(num_controls=2, **_STEP_KINDS[kind])
    segs = _controlled_segments(batch + 2, 2048, seed=len(kind))
    cfg = tr.TrainConfig(lr=1e-2)
    runs = []
    for step in (tr.train_step, one_tape_step):
        model = spec.build(np.random.default_rng(1))
        opt = tr.Adam(model.parameters(), cfg.lr)
        losses = [step(model, segs[i:i + batch], opt, cfg) for i in range(3)]
        runs.append((model.state_dict(), opt, losses))
    (new, opt, losses), (old, opt_old, losses_old) = runs
    assert [(d["loss_tot"], d["applied"]) for d in losses] == losses_old
    assert opt.t == opt_old.t == 3
    assert new.keys() == old.keys()
    for k in new:
        assert np.array_equal(new[k], old[k]), k
    for a, b in zip(opt.m + opt.v, opt_old.m + opt_old.v, strict=True):
        assert np.array_equal(a, b)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_step_skips_a_batch_with_one_nan_target_once():
    spec = ModelSpec(num_controls=2, tcn=_tcn("film", True))
    segs = _controlled_segments(3, 2048, seed=2, nan_target=1)
    cfg = tr.TrainConfig()
    runs = []
    for step in (tr.train_step, one_tape_step):
        model = spec.build(np.random.default_rng(1))
        opt = tr.Adam(model.parameters(), cfg.lr)
        before = model.state_dict()
        out = step(model, segs, opt, cfg)
        runs.append((model.state_dict(), opt))
        assert opt.skipped == 1 and opt.t == 0
        for k in before:
            if not k.endswith(("running_mean", "running_var")):
                assert np.array_equal(before[k], runs[-1][0][k]), k
    assert not out[1] and not tr.train_step(model, segs, opt, cfg)["applied"]
    assert opt.skipped == 2
    (new, _), (old, _) = runs
    for k in new:  # batch-norm statistics move in both, identically
        assert np.array_equal(new[k], old[k]), k


def test_train_step_memory_does_not_grow_with_the_batch():
    # one segment's graph is alive at a time, not the whole batch's
    spec = ModelSpec(num_controls=2, tcn=_tcn("film", False))
    model = spec.build(np.random.default_rng(0))
    cfg = tr.TrainConfig()
    opt = tr.Adam(model.parameters(), cfg.lr)
    segs = _controlled_segments(4, 8192, seed=3)
    tr.train_step(model, segs, opt, cfg)  # warm every cache first
    peaks = {}
    tracemalloc.start()
    try:
        for batch in (1, 4):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            tr.train_step(model, segs[:batch], opt, cfg)
            peaks[batch] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peaks[4] <= 1.5 * peaks[1], peaks[4] / peaks[1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_skipped_step_holds_no_graph():
    # a forward whose backward never runs must not stay alive through the
    # parameters it read, nor raise the next step's peak
    spec = ModelSpec(num_controls=2, tcn=_tcn("film", False))
    model = spec.build(np.random.default_rng(0))
    cfg = tr.TrainConfig()
    opt = tr.Adam(model.parameters(), cfg.lr)
    good = _controlled_segments(1, 4096, seed=5)
    bad = _controlled_segments(1, 4096, seed=5, nan_target=0)
    tr.train_step(model, good, opt, cfg)  # warm every cache first
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        tr.train_step(model, good, opt, cfg)
        normal = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        assert not tr.train_step(model, bad, opt, cfg)["applied"]
        held = tracemalloc.get_traced_memory()[0] - base
        tracemalloc.reset_peak()
        tr.train_step(model, good, opt, cfg)
        after = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert held < 0.02 * normal, (held, normal)
    assert after <= 1.05 * normal, after / normal


def _lstm_spec(hidden=4):
    return ModelSpec(sample_rate=48000.0, num_controls=0,
                     lstm={"hidden": hidden, "cond_mode": "none"})


def test_tbptt_single_chunk_matches_plain_step_lstm():
    seg = _segments(1, n=2048, seed=3)[0]
    outs = {}
    models = {}
    for mode in ("plain", "tbptt"):
        model = _lstm_spec().build(np.random.default_rng(11))
        cfg = tr.TrainConfig(tbptt=(mode == "tbptt"), chunk_len=2048,
                             warmup_len=0)
        opt = tr.Adam(model.parameters(), cfg.lr)
        if mode == "plain":
            outs[mode] = tr.train_step(model, [seg], opt, cfg)
        else:
            outs[mode] = tr.tbptt_train_step(model, seg, opt, cfg)
        models[mode] = model
    assert outs["plain"]["loss_tot"] == outs["tbptt"]["loss_tot"]
    for a, b in zip(models["plain"].parameters(),
                    models["tbptt"].parameters()):
        assert np.array_equal(a.data, b.data)


def test_tbptt_single_chunk_matches_plain_step_graybox_dynamic():
    gb = GrayBoxSpec([StageSpec("gain", "dynamic")], num_controls=0,
                     block_size=128)
    spec = ModelSpec(num_controls=0, graybox=gb)
    seg = _segments(1, n=2048, seed=4)[0]
    losses = {}
    for mode in ("plain", "tbptt"):
        model = spec.build(np.random.default_rng(5))
        cfg = tr.TrainConfig(tbptt=(mode == "tbptt"), chunk_len=2048,
                             warmup_len=0)
        opt = tr.Adam(model.parameters(), cfg.lr)
        if mode == "plain":
            losses[mode] = tr.train_step(model, [seg], opt, cfg)["loss_tot"]
        else:
            losses[mode] = tr.tbptt_train_step(model, seg, opt,
                                               cfg)["loss_tot"]
    assert losses["plain"] == losses["tbptt"]


def test_step_entry_points_return_their_key_sets():
    # perfbench's step span tells the two apart by "updates" in the result
    losses = {"loss_tot", "loss_l1", "loss_mrstft"}
    seg = _segments(1, n=2048 + 500, seed=6)[0]
    model = _lstm_spec().build(np.random.default_rng(2))
    cfg = tr.TrainConfig(chunk_len=2048, warmup_len=500)
    opt = tr.Adam(model.parameters(), cfg.lr)
    plain = tr.train_step(model, [seg], opt, cfg)
    assert set(plain) == losses | {"applied"}
    assert plain["applied"] is True
    tbptt = tr.tbptt_train_step(model, seg, opt, cfg)
    assert set(tbptt) == losses | {"updates"}
    assert tbptt["updates"] == 1


def test_tbptt_update_count_and_errors():
    # mrstft needs enough samples per chunk, so weight it away here
    seg = _segments(1, n=1000, seed=5)[0]
    model = _lstm_spec().build(np.random.default_rng(0))
    cfg = tr.TrainConfig(tbptt=True, chunk_len=200, warmup_len=100,
                         w_l1=1.0, w_mrstft=0.0,
                         mrstft_resolutions=((128, 32, 128),))
    opt = tr.Adam(model.parameters(), cfg.lr)
    out = tr.tbptt_train_step(model, seg, opt, cfg)
    assert out["updates"] == 4  # floor((1000 - 100) / 200)
    assert opt.t == 4

    with pytest.raises(ValueError):
        bad = tr.TrainConfig(tbptt=True, chunk_len=4096, warmup_len=0)
        tr.tbptt_train_step(model, seg, opt, bad)
    with pytest.raises(ValueError):
        bad = tr.TrainConfig(tbptt=True, chunk_len=200, warmup_len=900,
                             mrstft_resolutions=((128, 32, 128),))
        tr.tbptt_train_step(model, seg, opt, bad)


class _HalfModel:
    training = True

    def train(self, mode=True):
        pass

    def eval(self):
        pass

    def forward(self, x, c=None, state=None):
        return T.mul(x, Tensor(np.asarray(0.5, dtype=x.data.dtype))), None


def test_evaluate_restores_the_callers_mode():
    from gradfx.models import TCN, TCNConfig

    cfg = TCNConfig(blocks=2, kernel=3, dilation_growth=2, channels=4,
                    batchnorm=True)
    model = TCN(cfg, rng=np.random.default_rng(0))
    segs = _segments(2, n=2048, seed=7)
    model.train()
    model.forward(Tensor(segs[0].x))  # move running stats off their init
    model.eval()
    before = model.state_dict()
    tr.evaluate(model, segs)
    assert not any(m.training for m in model.modules())
    after = model.state_dict()
    assert all(np.array_equal(before[k], after[k]) for k in before)

    model.train()
    tr.evaluate(model, segs)
    assert all(m.training for m in model.modules())


def test_evaluate_restores_the_callers_mode_when_a_metric_raises():
    from gradfx.models import TCN, TCNConfig

    model = TCN(TCNConfig(blocks=2, kernel=3, dilation_growth=2, channels=4,
                          batchnorm=True), rng=np.random.default_rng(0))
    seg = _segments(1, n=2048, seed=7, target_gain=0.0)[0]
    model.train()
    with pytest.raises(ValueError, match="silent target"):
        tr.evaluate(model, [seg])
    assert all(m.training for m in model.modules())


def test_evaluate_against_hand_metrics():
    segs = _segments(2, n=2048, seed=6, target_gain=1.0)  # y == x
    model = _HalfModel()
    w = L.LossWeights(2.0, 3.0)
    m = tr.evaluate(model, segs, weights=w)
    x0 = np.concatenate([s.x.astype(np.float64) for s in segs])
    assert abs(m["esr"] - 0.25) < 1e-6
    assert abs(m["mape"] - 0.5) < 1e-6
    l1_hand = np.mean([np.mean(np.abs(0.5 * s.x)) for s in segs])
    assert abs(m["l1"] - l1_hand) < 1e-6
    mse_hand = np.mean([np.mean((0.5 * s.x) ** 2) for s in segs])
    assert abs(m["mse"] - mse_hand) < 1e-6
    assert abs(m["tot"] - (2.0 * m["l1"] + 3.0 * m["mrstft"])) < 1e-9
    assert m["mrstft"] > 0.1  # halving shifts every log magnitude
    assert x0.size  # silence would make esr/mape ill-posed

    with pytest.raises(ValueError):
        tr.evaluate(model, [])


def test_format_table_mentions_all_headline_metrics():
    m = {k: 0.0 for k in tr.EVAL_COLUMNS}
    s = tr.format_table(m)
    for name in ("Tot", "L1", "MR-STFT", "ESR"):
        assert name in s


def test_runlog_roundtrip_and_monotonicity(tmp_path):
    log = tr.RunLog()
    log.add(1, {"loss_tot": 0.5, "loss_l1": 0.3, "loss_mrstft": 0.2}, 0, 0.01)
    val = {k: 0.1 for k in tr.EVAL_COLUMNS}
    log.add(2, {"loss_tot": 0.4, "loss_l1": 0.25, "loss_mrstft": 0.15},
            1, 0.02, val)
    with pytest.raises(ValueError):
        log.add(2, {"loss_tot": 0.1, "loss_l1": 0.1, "loss_mrstft": 0.0},
                0, 0.03)

    path = tmp_path / "run.csv"
    log.to_csv(path)
    back = tr.RunLog.from_csv(path)
    assert logs_match(log, back)
    assert back.rows[0].get("val_tot") is None
    assert back.rows[1]["val_esr"] == 0.1

    back.rows[1]["loss_tot"] = 99.0
    assert not logs_match(log, back)
    back.rows[1]["loss_tot"] = 0.4
    back.rows[1]["wall_clock"] = 123.0  # timing differences are ignored
    assert logs_match(log, back)


def test_batch_indices_deterministic():
    a = tr.batch_indices(7, 3, 10, 4)
    b = tr.batch_indices(7, 3, 10, 4)
    assert a == b
    assert tr.batch_indices(8, 3, 10, 4) != a or \
        tr.batch_indices(8, 4, 10, 4) != tr.batch_indices(7, 4, 10, 4)
    assert all(0 <= i < 10 for i in a)


def test_fit_is_deterministic():
    spec = _gain_spec()
    segs = _segments(3, seed=7)
    logs = []
    for _ in range(2):
        model = spec.build(np.random.default_rng(3))
        cfg = tr.TrainConfig(max_steps=8, validate_every=4, batch_size=2,
                             seed=12)
        logs.append(tr.fit(model, spec, segs, cfg, val_segments=segs[:1]))
    assert logs_match(logs[0], logs[1])
    assert len(logs[0].rows) == 8
    assert "val_tot" in logs[0].rows[3]
    assert "val_tot" not in logs[0].rows[0]


def test_checkpoint_resume_reproduces_trajectory(tmp_path):
    spec = _gain_spec()
    segs = _segments(3, seed=8)

    def cfg(steps):
        return tr.TrainConfig(max_steps=steps, lr=1e-2, validate_every=5,
                              seed=21)

    model_a = spec.build(np.random.default_rng(3))
    opt_a = tr.Adam(model_a.parameters(), 1e-2)
    log_a = tr.fit(model_a, spec, segs, cfg(24), val_segments=segs[:1],
                   optimizer=opt_a)

    model_b = spec.build(np.random.default_rng(3))
    opt_b = tr.Adam(model_b.parameters(), 1e-2)
    tr.fit(model_b, spec, segs, cfg(12), val_segments=segs[:1],
           optimizer=opt_b)
    path = tmp_path / "ckpt.json"
    tr.save_training_checkpoint(path, model_b, spec, opt_b, 12)

    model_c, spec_c, opt_c, step_c, best_c = tr.restore_training(path,
                                                                 cfg(24))
    assert best_c == np.inf  # saved without a validation loss
    assert step_c == 12
    for a, b in zip(opt_b.m, opt_c.m):
        assert np.array_equal(a, b)
    for a, b in zip(model_b.parameters(), model_c.parameters()):
        assert np.array_equal(a.data, b.data)

    log_c = tr.fit(model_c, spec_c, segs, cfg(24), val_segments=segs[:1],
                   optimizer=opt_c, start_step=12)
    tail = log_a.rows[12:]
    assert len(log_c.rows) == len(tail) == 12
    for ra, rc in zip(tail, log_c.rows):
        assert ra["step"] == rc["step"]
        assert abs(ra["loss_tot"] - rc["loss_tot"]) < 1e-6
        assert abs(ra["loss_l1"] - rc["loss_l1"]) < 1e-6


def test_resume_keeps_better_checkpoint(tmp_path):
    spec = _gain_spec()
    segs = _segments(3, seed=8)
    path = tmp_path / "ckpt.json"
    model = spec.build(np.random.default_rng(3))
    log = tr.fit(model, spec, segs, tr.TrainConfig(max_steps=10, lr=1e-2,
                                                   validate_every=5, seed=21),
                 val_segments=segs[:1], checkpoint_path=path)
    kept = path.read_bytes()
    best = min(r["val_tot"] for r in log.rows if "val_tot" in r)

    # a step size that overshoots: the first validation after resume is worse
    cfg = tr.TrainConfig(max_steps=15, lr=3.0, validate_every=5, seed=21)
    model_c, spec_c, opt_c, step_c, best_c = tr.restore_training(path, cfg)
    assert best_c == best
    log_c = tr.fit(model_c, spec_c, segs, cfg, val_segments=segs[:1],
                   checkpoint_path=path, optimizer=opt_c, start_step=step_c,
                   best=best_c)
    assert log_c.rows[-1]["val_tot"] > best
    assert path.read_bytes() == kept


def test_failed_checkpoint_write_keeps_previous(tmp_path, monkeypatch):
    spec = _gain_spec()
    model = spec.build(np.random.default_rng(3))
    opt = tr.Adam(model.parameters())
    path = tmp_path / "ckpt.json"
    tr.save_training_checkpoint(path, model, spec, opt, 5, 0.25)
    kept = path.read_bytes()

    def dump_half(obj, f):
        f.write(json.dumps(obj)[:100])
        raise OSError("disk full")

    model.controllers[0].b.data = np.array([0.75], dtype=np.float32)
    monkeypatch.setattr(json, "dump", dump_half)
    with pytest.raises(OSError, match="disk full"):
        tr.save_training_checkpoint(path, model, spec, opt, 6, 0.2)
    monkeypatch.undo()
    assert path.read_bytes() == kept
    assert [p.name for p in tmp_path.iterdir()] == ["ckpt.json"]
    model_r, _, _, step, best = tr.restore_training(path, tr.TrainConfig())
    assert (step, best) == (5, 0.25)
    for a, b in zip(spec.build(np.random.default_rng(3)).parameters(),
                    model_r.parameters()):
        assert a.data.tobytes() == b.data.tobytes()


def test_fit_rewrites_run_log_at_each_validation(tmp_path, monkeypatch):
    spec = _gain_spec()
    segs = _segments(3, seed=8)
    cfg = tr.TrainConfig(max_steps=6, lr=1e-2, validate_every=2, seed=21)
    path = tmp_path / "run_log.csv"
    real_open, opened = tr.atomic_open, []

    class DiesMidWrite:
        def __init__(self, f):
            self.f = f

        def write(self, text):
            self.f.write(text[:10])
            raise OSError("disk full")

    @contextlib.contextmanager
    def second_dump_dies(p, mode="w"):
        opened.append(p)
        with real_open(p, mode) as f:
            yield f if len(opened) == 1 else DiesMidWrite(f)

    monkeypatch.setattr(tr, "atomic_open", second_dump_dies)
    with pytest.raises(OSError, match="disk full"):
        tr.fit(spec.build(np.random.default_rng(3)), spec, segs, cfg,
               val_segments=segs[:1], log_path=path)
    assert len(opened) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["run_log.csv"]
    log = tr.RunLog.from_csv(path)
    assert [r["step"] for r in log.rows] == [1, 2]
    assert "val_tot" in log.rows[-1]


def test_checkpoint_corrupt_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("definitely { not json")
    with pytest.raises(ValueError):
        tr.restore_training(path, tr.TrainConfig())


def test_checkpoint_wrong_spec_rejected(tmp_path):
    spec = _lstm_spec(hidden=4)
    model = spec.build(np.random.default_rng(0))
    opt = tr.Adam(model.parameters())
    path = tmp_path / "ok.json"
    tr.save_training_checkpoint(path, model, spec, opt, 5)

    blob = json.loads(path.read_text())
    blob["spec"]["lstm"]["hidden"] = 8
    path.write_text(json.dumps(blob))
    with pytest.raises((ValueError, KeyError)):
        tr.restore_training(path, tr.TrainConfig())


# the identity task matches exactly, so the spectral-convergence norm sits
# at its sqrt(0) kink; the resulting non-finite grads are skipped by design
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_fit_early_stop():
    spec = _gain_spec()
    segs = _segments(2, seed=9, target_gain=1.0)  # identity: already solved
    model = spec.build(np.random.default_rng(3))
    cfg = tr.TrainConfig(max_steps=50, validate_every=2, seed=0,
                         stop_metric="esr", stop_value=1e-3)
    log = tr.fit(model, spec, segs, cfg, val_segments=segs[:1])
    assert log.rows[-1]["step"] < 50
