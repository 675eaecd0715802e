"""Stepped-sine analyzer against analytic responses; plot emission."""

import json
import math
import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest
import scipy.signal

import gradfx.tensor as T
from gradfx import analysis as A
from gradfx import cli
from gradfx import controllers as C
from gradfx import models as M
from gradfx import processors as P
from gradfx.tensor import Tensor
from oracles import apply_eq, eq_design, plot_csv


class _ScaleModel:
    stream_unit = 1
    receptive_field = 1

    def __init__(self, g):
        self.g = g

    def forward(self, x, c=None, state=None):
        return T.mul(x, Tensor(np.asarray(self.g, dtype=x.data.dtype))), state


class _LTIModel:
    """Fixed gain -> biquad cascade rendered by the filter path."""

    stream_unit = 1
    receptive_field = None

    def __init__(self, params, layout, fs, gain_lin=1.0):
        self.params, self.layout, self.fs = params, layout, fs
        self.g = gain_lin

    def forward(self, x, c=None, state=None):
        y = T.mul(x, Tensor(np.asarray(self.g, dtype=x.data.dtype)))
        y = apply_eq(y, self.params, self.layout, self.fs)[0]
        return y, state


def test_sweep_config_validation_and_tail():
    cfg = A.SweepConfig()
    assert cfg.tail_length == 24000  # 5 * floor(48000 / 10)
    assert len(cfg.frequencies) == 50
    assert cfg.frequencies[0] == pytest.approx(10.0)
    with pytest.raises(ValueError):
        A.SweepConfig(f1=100.0, f2=50.0)
    with pytest.raises(ValueError):
        A.SweepConfig(steps=1)
    with pytest.raises(ValueError):
        A.SweepConfig(f1=1.5)  # tail would exceed half the render
    # a tail shorter than one period of f1 could not be measured
    with pytest.raises(ValueError, match="no full period of f1 = 100 Hz"):
        A.SweepConfig(f1=100.0, f2=1000.0, steps=2, T=0.5)
    with pytest.raises(ValueError, match="no full period of f1 = 7 Hz"):
        A.SweepConfig(f1=7.0, T=1.0)  # 48000 / 7 is no integer
    assert A.SweepConfig(f1=100.0, f2=1000.0, steps=2, T=1.0).tail_length == 480
    # lengths whose sample counts a float cannot hold
    for bad in ({"T": math.inf}, {"warmup": math.inf}, {"warmup": math.nan},
                {"warmup": 1e306}):
        with pytest.raises(ValueError, match="not a finite number of samples"):
            A.SweepConfig(**bad)


def test_flat_gain_measurement():
    cfg = A.SweepConfig(fs=8000.0, f1=20.0, f2=3000.0, steps=8, T=1.0,
                        warmup=0.1)
    g = 10 ** (-6.02 / 20.0)
    curve = A.stepped_sine_response(_ScaleModel(g), cfg)
    assert np.all(np.abs(curve.magnitude_db + 6.02) < 0.01)
    assert np.all(np.abs(curve.phase_rad) < 1e-3)


def test_phase_inversion_measurement():
    cfg = A.SweepConfig(fs=8000.0, f1=20.0, f2=3000.0, steps=6, T=1.0,
                        warmup=0.1)
    curve = A.stepped_sine_response(_ScaleModel(-1.0), cfg)
    assert np.all(np.abs(curve.magnitude_db) < 0.01)
    assert np.all(np.abs(np.abs(curve.phase_rad) - np.pi) < 1e-3)


def test_lti_chain_matches_analytic_response():
    fs = 48000.0
    params = Tensor(np.array([1000.0, 0.707], dtype=T.default_dtype()))
    gain = 10 ** (-6.02 / 20.0)
    cfg = A.SweepConfig(fs=fs, f1=20.0, steps=15, T=1.0, warmup=0.2)
    curve = A.stepped_sine_response(_LTIModel(params, ("lowpass",), fs, gain),
                                    cfg)

    design = eq_design(params, ("lowpass",), fs).data
    h = P.frequency_response(design, curve.freqs, fs) * gain
    mag_ref = 20 * np.log10(np.abs(h))
    ph_ref = np.unwrap(np.angle(h))
    assert np.max(np.abs(curve.magnitude_db - mag_ref)) < 0.05
    assert np.max(np.abs(curve.phase_rad - ph_ref)) < 0.02


def _per_frequency_sweep(model, cfg, c=None, freqs=None):
    """The sweep as one warm-up and one measured render per frequency: the
    loop the batched recurrent path replaced, kept as its oracle."""
    tail = cfg.tail_length
    n_meas = int(round(cfg.T * cfg.fs))
    n_warm = int(round(cfg.warmup * cfg.fs))
    dt = T.default_dtype()
    mags, phases = [], []
    for f in cfg.frequencies if freqs is None else freqs:
        t_all = np.arange(n_warm + n_meas, dtype=np.float64) / cfg.fs
        x_all = cfg.amplitude * np.sin(2 * np.pi * f * t_all)
        state = None
        if n_warm:
            _, state = model.forward(Tensor(x_all[:n_warm].astype(dt)), c,
                                     state)
        y, _ = model.forward(Tensor(x_all[n_warm:].astype(dt)), c, state)
        zx = A._project(x_all[n_warm:][-tail:], f, cfg.fs)
        zy = A._project(np.asarray(y.data, dtype=np.float64)[-tail:], f,
                        cfg.fs)
        mags.append(20.0 * np.log10(abs(zy / zx)))
        phases.append(np.angle(zy / zx))
    return np.array(mags), np.unwrap(phases)


def _lstm_model(mode):
    return M.LSTMModel(num_controls=0 if mode == "none" else 2, hidden=16,
                       cond_mode=mode, rng=np.random.default_rng(140))


# the warm-up, 1024 samples, is whole control blocks of the tvcond model:
# the oracle restarts its block grid there, the batched render does not
_LSTM_SWEEP = A.SweepConfig(fs=8000.0, f1=50.0, f2=3000.0, steps=5, T=1.0,
                            warmup=0.128)


@pytest.mark.parametrize("mode", ["none", "concat", "tvcond"])
def test_batched_lstm_sweep_matches_per_frequency_renders(mode):
    model = _lstm_model(mode)
    c = None if mode == "none" else Tensor(np.array([0.3, 0.8], dtype=np.float32))
    curve = A.stepped_sine_response(model, _LSTM_SWEEP, c)
    mags, phases = _per_frequency_sweep(model, _LSTM_SWEEP, c)
    assert np.max(np.abs(curve.magnitude_db - mags)) < 1e-6
    assert np.max(np.abs(curve.phase_rad - phases)) < 1e-6


def _traced_peak(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batched_lstm_sweep_holds_no_more_than_one_frequency():
    model = _lstm_model("none")
    cfg = A.SweepConfig(fs=8000.0, f1=50.0, f2=3000.0, steps=8, T=1.0,
                        warmup=0.128)
    batched = _traced_peak(lambda: A.stepped_sine_response(model, cfg))
    single = _traced_peak(lambda: _per_frequency_sweep(model, cfg,
                                                       freqs=[cfg.f1]))
    assert batched <= 1.25 * single, batched / single


class _Recorder:
    """A model seen through its forward calls, which it records by length;
    unbounded, it hides the model's receptive field from the sweep."""

    def __init__(self, model, unbounded=False):
        self.model, self.calls = model, []
        self.stream_unit = model.stream_unit
        self.receptive_field = None if unbounded else model.receptive_field

    def forward(self, x, c=None, state=None):
        self.calls.append(x.data.shape[-1])
        return self.model.forward(x, c, state)


def _conv_model(kind, cond="none", batchnorm=False, blocks=3, kernel=5,
                growth=3, seed=0):
    """A conv model with every parameter moved off its initial value (the
    identity FiLM heads included), in eval mode."""
    rng = np.random.default_rng(seed)
    model = M.ModelSpec.from_dict(
        {"kind": kind, "sample_rate": 8000.0, "num_controls": 2,
         kind: {"blocks": blocks, "kernel": kernel, "dilation_growth": growth,
                "channels": 10, "cond": cond, "batchnorm": batchnorm}}
    ).build(rng)
    for p in model.parameters():
        p.data = p.data + (0.2 * rng.standard_normal(p.data.shape)).astype(
            p.data.dtype)
    if batchnorm:  # running statistics away from their start
        for _ in range(3):
            model.forward(Tensor((0.5 * rng.standard_normal(4096) + 0.2)
                                 .astype(np.float32)))
    return model.eval()


_CONTROLS = Tensor(np.array([0.3, 0.8], dtype=np.float32))


def _sweep_both_ways(model, cfg):
    """The sweep's rows with the model's receptive field and without, and
    the forward-call lengths of each."""
    bounded, whole = _Recorder(model), _Recorder(model, unbounded=True)
    rows = [A.stepped_sine_response(m, cfg, _CONTROLS).rows()
            for m in (bounded, whole)]
    return rows, bounded.calls, whole.calls


# (fs, warm-up): the measured call starts one alignment step past the
# warm-up, or past 0 without one, or right at the warm-up's end (k = 0)
@pytest.mark.parametrize("fs, warmup", [(8000.0, 0.0), (8000.0, 0.1),
                                        (4000.0, 0.1)])
@pytest.mark.parametrize("kind, cond, batchnorm", [
    ("tcn", "none", False), ("tcn", "film", False), ("gcn", "none", False),
    ("gcn", "film", False), ("tcn", "none", True)])
def test_bounded_sweep_equals_whole_tones(kind, cond, batchnorm, fs, warmup):
    model = _conv_model(kind, cond, batchnorm)
    rf = model.receptive_field
    assert rf == 53  # 1 + 4 * (1 + 3 + 9)
    cfg = A.SweepConfig(fs=fs, f1=100.0, f2=0.4 * fs, steps=4, T=1.0,
                        warmup=warmup)
    (got, want), bounded, whole = _sweep_both_ways(model, cfg)
    assert np.array_equal(got, want)
    n_warm = round(warmup * fs)
    n = n_warm + round(cfg.T * fs)
    assert whole == ([n_warm, n - n_warm] if n_warm else [n]) * cfg.steps
    # one call per frequency, no longer than the tail needs plus one step
    step = math.lcm(M.RENDER_ALIGN, model.stream_unit)
    assert len(bounded) == cfg.steps
    assert max(bounded) <= min(n - n_warm, cfg.tail_length + rf - 1 + step)


@pytest.mark.parametrize("warmup", [0.0, 2.0])
def test_sweep_too_short_for_the_receptive_field_renders_whole_tones(warmup):
    # tail + receptive field is 2,146 samples: more than the 1,000-sample
    # measurement, and with a 2 s warm-up it fits from 0 but not after it
    model = _conv_model("tcn", "film", blocks=5, kernel=7, growth=4)
    assert model.receptive_field == 2047
    cfg = A.SweepConfig(fs=1000.0, f1=10.0, f2=400.0, steps=3, T=1.0,
                        warmup=warmup)
    (got, want), bounded, whole = _sweep_both_ways(model, cfg)
    assert np.array_equal(got, want)
    assert bounded == whole == ([2000, 1000] if warmup else [1000]) * 3


def test_receptive_field_is_bounded_only_for_stateless_conv_models():
    bounded = {(kind, cond): _conv_model(kind, cond).receptive_field
               for kind in ("tcn", "gcn")
               for cond in ("none", "film", "tfilm", "ttfilm", "tvfilm")}
    assert bounded == {(kind, cond): 53 if cond in ("none", "film") else None
                       for kind, cond in bounded}
    # training-mode batch norm normalizes by the whole call's statistics
    assert _conv_model("tcn", batchnorm=True).train().receptive_field is None
    for mode in ("none", "concat", "tvcond"):
        assert _lstm_model(mode).receptive_field is None
    chain = M.ModelSpec.from_dict({"kind": "graybox", "sample_rate": 8000.0,
                                   "graybox": {"stages": [
                                       {"processor": "gain",
                                        "controller": "static"},
                                       {"processor": "parametric_eq"}]}}
                                  ).build()
    assert chain.receptive_field is None


def test_amplitude_response_tanh_and_rational():
    curve = A.amplitude_response(P.TanhNL(), points=101)
    assert len(curve.x) == 101
    assert np.allclose(curve.y, curve.reference, atol=1e-6)

    rat = A.amplitude_response(P.RationalNL(), points=101)
    assert np.max(np.abs(rat.y - rat.reference)) < 1e-3


def test_time_trace_static_rejected_and_dynamic_shape():
    rng = np.random.default_rng(130)
    offset = P.DCOffset()
    with pytest.raises(ValueError, match="static"):
        A.time_trace(offset, C.StaticController(1), np.zeros(64))

    ctrl = C.DynamicController(1, rng, block_size=16)
    x = np.zeros(16 * 40, dtype=np.float32)
    trace = A.time_trace(offset, ctrl, x)
    assert trace.params.shape == (len(x), 1)
    assert len(trace.x) == len(x)
    # silence drives the recurrence to a fixed point: tail is near-constant
    tail = trace.params[-200:, 0]
    assert tail.max() - tail.min() < 1e-3


def test_stage_reports_equal_each_column_denormalized_by_its_range():
    # the reports denormalize one kind of control at a time, through
    # Processor.physical; each column must read as its own range gives it
    rng = np.random.default_rng(132)
    eq = P.ParametricEQ(48000.0)
    ctrl = C.DynamicController(15, rng, block_size=16)
    for p in ctrl.parameters():
        p.data = p.data + rng.normal(0.0, 0.5, p.data.shape).astype(p.data.dtype)
    x = rng.standard_normal(16 * 20) * 0.1
    u = Tensor(np.asarray(ctrl(x=Tensor(x.astype(T.default_dtype())))[0]
                          .data, dtype=np.float64))
    want = np.stack([r.denormalize(u[:, j]).data
                     for j, r in enumerate(eq.ranges)], axis=1)
    assert np.array_equal(A.time_trace(eq, ctrl, x).params,
                          np.repeat(want, 16, axis=0))

    sweep = A.SweepConfig(fs=8000.0, f1=100.0, steps=7, T=2.0, warmup=0.0)
    for proc, b in ((P.Gain(), -1.3), (P.DCOffset(), 0.7)):
        ctrl = C.StaticController(1)
        ctrl.b.data[:] = b
        u = Tensor(np.asarray(ctrl()[0].data, dtype=np.float64))
        report = A.stage_report(proc, ctrl, None, sweep)
        assert isinstance(report, A.ParamValues)
        assert np.array_equal(report.values,
                              [proc.ranges[0].denormalize(u[0]).item()])


def test_stage_report_of_a_fir_stage_is_its_tap_spectrum():
    fir = P.FIRSiren(np.random.default_rng(131), num_taps=16)
    sweep = A.SweepConfig(fs=8000.0, f1=100.0, steps=7, T=2.0, warmup=0.0)
    curve = A.stage_report(fir, C.DummyController(), None, sweep)
    taps = np.asarray(fir.taps().data, dtype=np.float64)
    _, h = scipy.signal.freqz(taps, worN=sweep.frequencies, fs=sweep.fs)
    assert np.array_equal(curve.freqs, sweep.frequencies)
    assert np.max(np.abs(curve.magnitude_db
                         - 20 * np.log10(np.abs(h) + 1e-12))) < 1e-9
    assert np.max(np.abs(curve.phase_rad - np.unwrap(np.angle(h)))) < 1e-9


def test_emit_csv_roundtrip(tmp_path):
    curve = A.ResponseCurve([10.0, 100.0, 1000.0],
                            [-1.234567890123, 0.5, 3.25],
                            [0.1, -0.2, 0.3])
    amp = A.amplitude_response(P.TanhNL(), points=33)
    ctrl = C.DynamicController(15, np.random.default_rng(150), block_size=16)
    trace = A.time_trace(P.ParametricEQ(48000.0), ctrl,
                         np.random.default_rng(151).standard_normal(200) * 0.1)
    params = ("lowshelf_f0_hz,lowshelf_gain_db,lowshelf_q,"
              + "".join(f"peak{k}_f0_hz,peak{k}_gain_db,peak{k}_q,"
                        for k in (1, 2, 3))
              + "highshelf_f0_hz,highshelf_gain_db,highshelf_q")
    for obj, header, n in ((curve, "freq_hz,mag_db,phase_rad", 3),
                           (amp, "input,output,reference", 33),
                           (trace, "input," + params, 200)):
        p = tmp_path / "curve.csv"
        A.emit_plot_data(obj, p, format="csv")
        lines = p.read_text().strip().split("\n")
        assert lines[0] == header
        assert len(lines) == 1 + n
        back = np.array([[float(v) for v in ln.split(",")]
                         for ln in lines[1:]])
        assert np.max(np.abs(back - obj.rows())) < 1e-9


def _assert_csv_matches_the_oracle(obj, path):
    A.emit_plot_data(obj, path)
    assert path.read_bytes() == plot_csv(obj).encode()


def test_emit_csv_special_values_match_the_oracle(tmp_path):
    neg_nan = -np.float64(np.nan)
    assert np.signbit(neg_nan)  # a second NaN bit pattern
    special = np.array([-0.0, 0.0, np.nan, neg_nan, np.inf, -np.inf,
                        5e-324, -2.5e-310, 1e300, -1e300, 1.0, -1.0])
    rng = np.random.default_rng(152)
    n = 3000
    # every special value, shuffled and in long runs, among plain ones
    mixed = np.concatenate([np.repeat(special, 100),
                            rng.standard_normal(n - 100 * len(special))])
    runs = np.repeat(rng.choice(special, 30), n // 30)
    obj = A.AmplitudeCurve(rng.permutation(mixed), runs, np.zeros(n))
    _assert_csv_matches_the_oracle(obj, tmp_path / "special.csv")
    text = (tmp_path / "special.csv").read_text()
    for s in ("-0", "0", "nan", "inf", "-inf", "4.94065645841e-324",
              "1e+300"):
        assert f",{s}," in text or f"\n{s}," in text


def test_emit_csv_curves_match_the_oracle(tmp_path):
    rng = np.random.default_rng(153)
    curve = A.stepped_sine_response(
        _ScaleModel(0.5), A.SweepConfig(fs=8000.0, f1=100.0, steps=7, T=2.0,
                                        warmup=0.0))
    amp = A.amplitude_response(P.TanhNL(), points=200)
    ctrl = C.DynamicController(15, rng, block_size=96)  # 8192 = 85 * 96 + 32
    for p in ctrl.parameters():
        p.data = p.data + rng.normal(0.0, 0.5, p.data.shape).astype(p.data.dtype)
    proc = P.ParametricEQ(48000.0)
    probe = rng.standard_normal(8192) * 0.1
    trace = A.time_trace(proc, ctrl, probe)
    assert trace.params.shape == (8192, 15)
    for i, obj in enumerate((curve, amp, trace)):
        _assert_csv_matches_the_oracle(obj, tmp_path / f"curve_{i}.csv")


def test_cli_analyze_graybox_files_match_the_oracle(tmp_path, monkeypatch):
    model = {"kind": "graybox", "sample_rate": 48000.0, "num_controls": 0,
             "graybox": {"stages": [
                 {"processor": "parametric_eq", "controller": "static"},
                 {"processor": "rational", "controller": "dummy"},
                 {"processor": "parametric_eq", "controller": "dynamic"},
                 {"processor": "gain", "controller": "static"},
                 {"processor": "dc_offset", "controller": "static"},
             ], "block_size": 100}}
    doc = {"model": model, "train": {"max_steps": 1, "seed": 0},
           "analysis": {"f1": 100.0, "steps": 6, "T": 1.0, "warmup": 0.05},
           "output_dir": "out"}
    (tmp_path / "exp.json").write_text(json.dumps(doc))
    spec = M.ModelSpec.from_dict(model)
    chain = spec.build(np.random.default_rng(0))
    rng = np.random.default_rng(154)
    for p in chain.parameters():
        p.data = p.data + rng.normal(0.0, 0.3, p.data.shape).astype(p.data.dtype)
    M.save_checkpoint(tmp_path / "ckpt.json", chain, spec)
    written = {}
    emit = A.emit_plot_data

    def record(obj, path, format="csv"):
        if format == "csv":
            written[path.name] = obj
        emit(obj, path, format)

    monkeypatch.setattr(A, "emit_plot_data", record)
    assert cli.main(["analyze", "--config", str(tmp_path / "exp.json"),
                     "--checkpoint", str(tmp_path / "ckpt.json")]) == 0
    out = tmp_path / "out"
    names = sorted(p.name for p in out.glob("*.csv"))
    assert names == ["response_model.csv", "stage_0_parametric_eq.csv",
                     "stage_1_rational.csv", "stage_2_parametric_eq.csv",
                     "stage_3_gain.csv", "stage_4_dc_offset.csv"]
    assert sorted(written) == names
    trace = written["stage_2_parametric_eq.csv"]
    assert trace.params.shape == (8192, 15)  # 8192 = 81 * 100 + 92
    for name in names:
        assert (out / name).read_bytes() == plot_csv(written[name]).encode()


def test_emit_svg_parses(tmp_path):
    curve = A.ResponseCurve(np.geomspace(10, 20000, 30),
                            np.linspace(-12, 0, 30),
                            np.linspace(-3, 0, 30))
    p = tmp_path / "curve.svg"
    A.emit_plot_data(curve, p, format="svg")
    root = ET.parse(p).getroot()
    assert root.tag.endswith("svg")
    assert root.get("width") == "800" and root.get("height") == "480"
    assert any(child.tag.endswith("polyline") for child in root)

    amp = A.amplitude_response(P.TanhNL(), points=32)
    q = tmp_path / "amp.svg"
    A.emit_plot_data(amp, q, format="svg")
    ET.parse(q)

    with pytest.raises(ValueError):
        A.emit_plot_data(curve, tmp_path / "x.bin", format="bin")


def test_emit_svg_draws_a_trace_and_names_a_type_it_cannot_draw(tmp_path):
    trace = A.TimeTrace(np.linspace(-1, 1, 16), np.ones((16, 2)),
                        ("gain_db", "offset"))
    p = tmp_path / "trace.svg"
    A.emit_plot_data(trace, p, format="svg")
    labels = [c.text for c in ET.parse(p).getroot() if c.tag.endswith("text")]
    assert labels[:3] == ["input", "gain_db", "offset"]

    q = tmp_path / "values.svg"
    with pytest.raises(TypeError, match="ParamValues"):
        A.emit_plot_data(A.ParamValues(["gain_db"], [0.0]), q, format="svg")
    assert not q.exists()


def test_curve_validation():
    with pytest.raises(ValueError):
        A.ResponseCurve([10.0, 10.0], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        A.ResponseCurve([10.0, 20.0], [0.0], [0.0, 0.0])
