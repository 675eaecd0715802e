"""Acceptance suite: eleven end-to-end checks, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every check exercises the public API only; reference values come
from closed-form math, scipy, or plain numpy recomputation.
"""

import time
from contextlib import contextmanager

import numpy as np
from scipy.signal import lfilter

from gradfx import analysis as A
from gradfx import conditioning as K
from gradfx import controllers as C
from gradfx import losses as L
from gradfx import models as M
from gradfx import processors as P
from gradfx import tensor as T
from gradfx import training as tr
from gradfx.data import Segment
from gradfx.models import GrayBoxSpec, ModelSpec, StageSpec
from gradfx.tensor import Tensor
from oracles import apply_eq, eq_design, logs_match

FS = 48000


def _report(num, ok, detail):
    print(f"\n[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@contextmanager
def _f64():
    old = T.default_dtype()
    T.set_default_dtype(np.float64)
    try:
        yield
    finally:
        T.set_default_dtype(old)


def _rel_l2(a, b):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12))


def _wsum(y, w):
    return T.sum_(T.mul(y, Tensor(np.asarray(w, dtype=np.float64))))


# --------------------------------------------------------------------------
# criterion 1: finite-difference gradient coverage


def _primitive_items(rng):
    items = []

    def it(name, fn, inputs):
        items.append(("op/" + name, fn, inputs, 1e-5))

    a = Tensor(rng.uniform(-1.0, 1.0, 7))
    b = Tensor(rng.uniform(0.5, 1.5, 7))
    w7 = rng.standard_normal(7)
    pos = Tensor(rng.uniform(0.5, 2.0, 7))
    # kinked ops need inputs bounded away from the kink
    signed = Tensor(rng.uniform(0.3, 1.0, 7) * rng.choice([-1.0, 1.0], 7))
    mid = Tensor(rng.uniform(-0.35, 0.65, 7))

    it("add", lambda ts: _wsum(T.add(ts[0], ts[1]), w7), [a, b])
    it("sub", lambda ts: _wsum(T.sub(ts[0], ts[1]), w7), [a, b])
    it("mul", lambda ts: _wsum(T.mul(ts[0], ts[1]), w7), [a, b])
    it("div", lambda ts: _wsum(T.div(ts[0], ts[1]), w7), [a, b])
    it("neg", lambda ts: _wsum(T.neg(ts[0]), w7), [a])
    it("tanh", lambda ts: _wsum(T.tanh(ts[0]), w7), [a])
    it("sigmoid", lambda ts: _wsum(T.sigmoid(ts[0]), w7), [a])
    it("sin", lambda ts: _wsum(T.sin(ts[0]), w7), [a])
    it("cos", lambda ts: _wsum(T.cos(ts[0]), w7), [a])
    it("exp", lambda ts: _wsum(T.exp(ts[0]), w7), [a])
    it("log", lambda ts: _wsum(T.log(ts[0]), w7), [pos])
    it("sqrt", lambda ts: _wsum(T.sqrt(ts[0]), w7), [pos])
    it("abs", lambda ts: _wsum(T.abs_(ts[0]), w7), [signed])
    it("clip", lambda ts: _wsum(T.clip(ts[0], lo=-0.5, hi=0.8), w7), [mid])
    it("sum", lambda ts: T.mul(T.sum_(ts[0]), T.sum_(ts[0])), [a])
    it("mean", lambda ts: T.mul(T.mean_(ts[0]), T.mean_(ts[0])), [a])

    m34 = Tensor(rng.uniform(-1.0, 1.0, (3, 4)))
    w26 = rng.standard_normal((2, 6))
    w43 = rng.standard_normal((4, 3))
    it("reshape", lambda ts: _wsum(T.reshape(ts[0], (2, 6)), w26), [m34])
    it("transpose", lambda ts: _wsum(T.transpose(ts[0]), w43), [m34])

    x10 = Tensor(rng.uniform(-1.0, 1.0, 10))
    idx = np.array([[0, 1, 2], [2, 3, 4], [4, 5, 6]])  # overlaps on purpose
    w33 = rng.standard_normal((3, 3))
    it("take", lambda ts: _wsum(T.take(ts[0], idx), w33), [x10])

    w14 = rng.standard_normal(14)
    it("concat", lambda ts: _wsum(T.concat([ts[0], ts[1]], axis=0), w14),
       [a, b])
    w37 = rng.standard_normal((3, 7))
    it("repeat_new_axis",
       lambda ts: _wsum(T.repeat_new_axis(ts[0], 3, axis=0), w37), [a])
    w21 = rng.standard_normal(21)
    it("upsample1d", lambda ts: _wsum(T.upsample1d(ts[0], 3), w21), [a])
    w12 = rng.standard_normal(12)
    it("pad_end", lambda ts: _wsum(T.pad_end(ts[0], 12), w12), [a])

    # distinct values with gaps far above the FD step, so no max ties
    perm = Tensor(rng.permutation(12).astype(np.float64) * 0.013)
    w3 = rng.standard_normal(3)
    it("maxpool1d", lambda ts: _wsum(T.maxpool1d(ts[0], 4), w3), [perm])
    it("blockmean1d", lambda ts: _wsum(T.blockmean1d(ts[0], 4), w3), [perm])

    m45 = Tensor(rng.uniform(-1.0, 1.0, (4, 5)))
    m53 = Tensor(rng.uniform(-1.0, 1.0, (5, 3)))
    wm = rng.standard_normal((4, 3))
    it("matmul", lambda ts: _wsum(T.matmul(ts[0], ts[1]), wm), [m45, m53])

    xc = Tensor(rng.uniform(-1.0, 1.0, (2, 16)))
    wc = Tensor(rng.standard_normal((3, 2, 3)) * 0.4)
    bc = Tensor(rng.standard_normal(3) * 0.1)
    wconv = rng.standard_normal((3, 16))
    it("conv1d",
       lambda ts: _wsum(T.conv1d(ts[0], ts[1], ts[2], dilation=2), wconv),
       [xc, wc, bc])

    # signal of the rfft item, which stft_mag replaced; its weights and the
    # inputs of the irfft and complex_mul items (ops the biquad replaced)
    # are still drawn so that every later item keeps its inputs
    x16 = Tensor(rng.uniform(-1.0, 1.0, 16))
    rng.standard_normal((2, 9))
    # four overlapping 7-sample frames zero-padded to 8 points; the window
    # is not a multiple of the hop
    ws = np.random.default_rng(113).standard_normal((4, 5))
    hann7 = np.hanning(8)[:-1]
    it("stft_mag", lambda ts: _wsum(T.stft_mag(ts[0], hann7, 8, 3, 1e-8), ws),
       [x16])
    rng.standard_normal((2, 9))
    rng.standard_normal((2, 9))
    rng.standard_normal(16)

    # own generator, stable poles. The static item spans three solver
    # blocks; the per-block item has three coefficient blocks, each held
    # over two solver blocks
    br = np.random.default_rng(112)

    def biquad_in(n, nb):
        r = br.uniform(0.5, 0.95, nb)
        th = br.uniform(0.05, 3.0, nb)
        shape = () if nb == 1 else (nb,)
        return ([Tensor(br.uniform(-1.0, 1.0, n))]
                + [Tensor(br.uniform(-1.0, 1.0, nb).reshape(shape))
                   for _ in range(3)]
                + [Tensor((-2.0 * r * np.cos(th)).reshape(shape)),
                   Tensor((r * r).reshape(shape))])

    def operand(ts):
        """x and the five coefficients as one section: [1, 5] or [nb, 1, 5]."""
        return [ts[0], Tensor(np.stack([t.data for t in ts[1:]],
                                       axis=-1)[..., None, :])]

    bq_static, bq_block = biquad_in(300, 1), biquad_in(700, 3)
    wb1, wb2 = br.standard_normal(300), br.standard_normal(700)
    it("biquad", lambda ts: _wsum(T.biquad(*ts)[0], wb1), operand(bq_static))
    it("biquad_block",
       lambda ts: _wsum(T.biquad(*ts, block=256)[0], wb2), operand(bq_block))

    # own generator: three sections, static over three solver blocks and
    # per-block over three coefficient blocks of two solver blocks each
    cr = np.random.default_rng(114)

    def cascade_in(n, shape):
        r = cr.uniform(0.5, 0.95, shape)
        th = cr.uniform(0.05, 3.0, shape)
        c = np.stack([cr.uniform(-1.0, 1.0, shape) for _ in range(3)]
                     + [-2.0 * r * np.cos(th), r * r], axis=-1)
        return [Tensor(cr.uniform(-1.0, 1.0, n)), Tensor(c)]

    cascade = cascade_in(300, (3,)) + cascade_in(700, (3, 3))
    wc1, wc2 = cr.standard_normal(300), cr.standard_normal(700)
    it("biquad_cascade",
       lambda ts: T.add(_wsum(T.biquad(ts[0], ts[1])[0], wc1),
                        _wsum(T.biquad(ts[2], ts[3], block=256)[0], wc2)),
       cascade)

    # own generator, so the items after these keep their inputs
    lr = np.random.default_rng(111)
    n, d, hs = 6, 2, 3
    lstm_in = [Tensor(lr.uniform(-1.0, 1.0, (n, d))),        # x
               Tensor(lr.uniform(-0.6, 0.6, (d, 4 * hs))),   # w_x
               Tensor(lr.uniform(-0.6, 0.6, (hs, 4 * hs))),  # w_h
               Tensor(lr.uniform(-0.3, 0.3, 4 * hs)),        # b
               Tensor(lr.uniform(-0.5, 0.5, hs)),            # h0
               Tensor(lr.uniform(-0.5, 0.5, hs))]            # c0
    wy = lr.standard_normal((n, hs))
    wh, wc = lr.standard_normal(hs), lr.standard_normal(hs)

    def lstm_out(ts):
        return T.lstm(ts[0], ts[1], ts[3], ts[2], ts[4], ts[5])  # [y; h_T; c_T]

    def lstm_state(ts):
        out = lstm_out(ts)
        return T.add(_wsum(out[0:n], wy),
                     T.add(_wsum(out[n], wh), _wsum(out[n + 1], wc)))

    it("lstm", lambda ts: _wsum(lstm_out(ts)[0:n], wy), lstm_in)
    it("lstm_state", lstm_state, lstm_in)
    return items


def _processor_items(rng):
    items = []

    def it(name, fn, inputs):
        items.append(("proc/" + name, fn, inputs, 1e-5))

    x = Tensor(rng.uniform(-0.8, 0.8, 256))
    wx = rng.standard_normal(256)

    inv = P.PhaseInvert()
    it("phase_inv", lambda ts: _wsum(inv.apply(ts[0])[0], wx), [x])
    gain = P.Gain()
    g1 = Tensor(np.array([0.6]))
    it("gain", lambda ts: _wsum(gain.apply(ts[0], ts[1])[0], wx), [x, g1])
    dc = P.DCOffset()
    g2 = Tensor(np.array([0.45]))
    it("dc_offset", lambda ts: _wsum(dc.apply(ts[0], ts[1])[0], wx), [x, g2])

    peq = P.ParametricEQ(float(FS))
    g15 = Tensor(rng.uniform(0.35, 0.65, 15))
    it("parametric_eq", lambda ts: _wsum(peq.apply(ts[0], ts[1])[0], wx),
       [x, g15])
    sheq = P.ShelvingEQ(float(FS))
    g10 = Tensor(rng.uniform(0.35, 0.65, 10))
    it("shelving_eq", lambda ts: _wsum(sheq.apply(ts[0], ts[1])[0], wx),
       [x, g10])

    fir = P.FIRSiren(np.random.default_rng(5), num_taps=16, width=8, depth=2)
    it("fir", lambda ts: _wsum(fir.apply(ts[0])[0], wx), [x] + fir.parameters())

    th = P.TanhNL()
    it("tanh_nl", lambda ts: _wsum(th.apply(ts[0])[0], wx), [x])
    rat = P.RationalNL()
    xr = Tensor(rng.uniform(-2.0, 2.0, 256))  # inside the clamp region
    it("rational", lambda ts: _wsum(rat.apply(ts[0])[0], wx),
       [xr] + rat.parameters())
    mlp = P.MLPNL()
    xm = Tensor(rng.uniform(-2.0, 2.0, 256))
    it("mlp_nl", lambda ts: _wsum(mlp.apply(ts[0])[0], wx),
       [xm] + mlp.parameters())
    return items


def _controller_items(rng):
    items = []

    # recurrent paths span long float-cancellation chains, so finite
    # differences need a coarser step to stay above roundoff
    def it(name, fn, inputs, eps=1e-5):
        items.append(("ctrl/" + name, fn, inputs, eps))

    w4 = rng.standard_normal(4)
    st = C.StaticController(4)
    st.b.data = rng.normal(0.0, 0.5, 4)  # move off the zero init
    it("static", lambda ts: _wsum(st()[0], w4), [st.b])

    w3 = rng.standard_normal(3)
    c2 = Tensor(rng.uniform(0.2, 0.8, 2))
    sc = C.StaticCondController(2, 3, rng)
    it("static_cond", lambda ts: _wsum(sc(c=c2)[0], w3),
       sc.parameters() + [c2])

    w43 = rng.standard_normal((4, 3))
    xd = Tensor(rng.uniform(-0.9, 0.9, 256))
    dy = C.DynamicController(3, rng, block_size=64)
    it("dynamic", lambda ts: _wsum(dy(x=xd)[0], w43),
       dy.parameters() + [xd], eps=3e-4)
    dyc = C.DynamicController(3, rng, block_size=64, num_controls=2)
    it("dynamic_cond", lambda ts: _wsum(dyc(x=xd, c=c2)[0], w43),
       dyc.parameters() + [xd, c2], eps=3e-4)
    return items


def _conditioning_items(rng):
    items = []

    def it(name, fn, inputs, eps=1e-5):
        items.append(("cond/" + name, fn, inputs, eps))

    # distinct entries with wide gaps keep the pooling argmax stable
    h = Tensor((rng.permutation(128).astype(np.float64) * 0.013)
               .reshape(4, 32))
    wh = rng.standard_normal((4, 32))
    c2 = Tensor(rng.uniform(0.2, 0.8, 2))

    fl = K.FiLM(2, 4, 1, rng)
    for hd in fl.heads:
        hd.w.data = rng.normal(0.0, 0.2, hd.w.data.shape)
    it("film", lambda ts: _wsum(fl.modulate(0, h, fl.latent(c2)), wh),
       fl.parameters() + [h, c2])

    tf = K.TFiLM(2, 4, 1, rng, block_size=8)
    for hd in tf.heads:
        hd.w.data = rng.normal(0.0, 0.2, hd.w.data.shape)
    it("tfilm",
       lambda ts: _wsum(tf.modulate(0, h, tf.latents(None, c2, None)[0]), wh),
       tf.parameters() + [h, c2], eps=3e-4)

    tt = K.TTFiLM(2, 4, 1, rng, block_size=8, reduced=2)
    for mlp in tt.expand:
        mlp.layers[-1].w.data = rng.normal(0.0, 0.2,
                                           mlp.layers[-1].w.data.shape)
    it("ttfilm",
       lambda ts: _wsum(tt.modulate(0, h, tt.latents(None, c2, None)[0]), wh),
       tt.parameters() + [h, c2], eps=3e-4)

    tv = K.TVFiLM(2, 4, 1, rng, block_size=8)
    for hd in tv.heads:
        hd.w.data = rng.normal(0.0, 0.2, hd.w.data.shape)
    xz = Tensor(rng.uniform(-1.0, 1.0, 32))

    def tv_fn(ts):
        z, _ = tv.latents(xz, c2, None)
        return _wsum(tv.modulate(0, h, z), wh)

    it("tvfilm", tv_fn, tv.parameters() + [h, xz, c2], eps=3e-4)
    return items


def test_01_gradient_coverage():
    t0 = time.time()
    with _f64():
        rng = np.random.default_rng(101)
        items = (_primitive_items(rng) + _processor_items(rng)
                 + _controller_items(rng) + _conditioning_items(rng))
        errs = {}
        for name, fn, inputs, eps in items:
            errs[name] = T.grad_check(fn, inputs, eps=eps)
    elapsed = time.time() - t0
    worst_name = max(errs, key=errs.get)
    bad = sorted(n for n, e in errs.items() if not e < 1e-4)
    ok = not bad and elapsed < 120.0
    _report(1, ok,
            f"{len(errs)} grad checks, worst rel err "
            f"{errs[worst_name]:.2e} ({worst_name}), {elapsed:.1f}s"
            + (f"; failing: {bad}" if bad else ""))


# --------------------------------------------------------------------------
# criterion 2: frequency-sampling filters match direct recursion


def test_02_frequency_sampling_matches_time_domain():
    t0 = time.time()
    with _f64():
        rng = np.random.default_rng(202)
        x = rng.standard_normal(FS) * 0.25
        xt = Tensor(x)
        worst, worst_kind = 0.0, ""
        for kind in ("lowpass", "highpass", "peak", "lowshelf", "highshelf"):
            for _ in range(20):
                f0 = float(np.exp(rng.uniform(np.log(20.0), np.log(21000.0))))
                q = float(np.exp(rng.uniform(np.log(0.3), np.log(10.0))))
                g = (float(rng.uniform(-24.0, 24.0))
                     if kind in ("peak", "lowshelf", "highshelf") else None)
                params = Tensor(np.array([f0, q] if g is None
                                         else [f0, g, q]))
                y = apply_eq(xt, params, (kind,), float(FS))[0].data
                b0, b1, b2, a1, a2, a0 = (float(v) for v in eq_design(
                    params, (kind,), float(FS)).data[0])
                ref = lfilter([b0 / a0, b1 / a0, b2 / a0],
                              [1.0, a1 / a0, a2 / a0], x)
                rel = _rel_l2(y, ref)
                if rel > worst:
                    worst, worst_kind = rel, kind
    elapsed = time.time() - t0
    ok = worst < 1e-3 and elapsed < 60.0
    _report(2, ok, f"100 random biquads on 1 s noise, worst rel L2 "
                   f"{worst:.2e} ({worst_kind}), {elapsed:.1f}s")


# --------------------------------------------------------------------------
# criterion 3: neutral settings pass audio through untouched


def test_03_identity_settings_pass_audio_through():
    with _f64():
        rng = np.random.default_rng(303)
        x = Tensor(rng.standard_normal(4096) * 0.4)
        rels = {}
        half = Tensor(np.array([0.5]))
        rels["gain"] = _rel_l2(P.Gain().apply(x, half)[0].data, x.data)
        rels["dc_offset"] = _rel_l2(P.DCOffset().apply(x, half)[0].data, x.data)

        g15 = rng.uniform(0.1, 0.9, 15)
        g15[[1, 4, 7, 10, 13]] = 0.5  # every section gain at 0 dB
        rels["parametric_eq"] = _rel_l2(
            P.ParametricEQ(float(FS)).apply(x, Tensor(g15))[0].data, x.data)

        for kind in ("peak", "lowshelf", "highshelf"):
            f0 = float(np.exp(rng.uniform(np.log(40.0), np.log(10000.0))))
            q = float(np.exp(rng.uniform(np.log(0.5), np.log(4.0))))
            params = Tensor(np.array([f0, 0.0, q]))
            rels[kind] = _rel_l2(
                apply_eq(x, params, (kind,), float(FS))[0].data, x.data)

        c = Tensor(rng.uniform(0.0, 1.0, 2))
        h = Tensor(rng.standard_normal((8, 256)))
        fl = K.FiLM(2, 8, 1, rng)
        rels["film"] = _rel_l2(fl.modulate(0, h, fl.latent(c)).data, h.data)
        tf = K.TFiLM(2, 8, 1, rng)
        rels["tfilm"] = _rel_l2(
            tf.modulate(0, h, tf.latents(None, c, None)[0]).data, h.data)
        tt = K.TTFiLM(2, 8, 1, rng, reduced=4)
        rels["ttfilm"] = _rel_l2(
            tt.modulate(0, h, tt.latents(None, c, None)[0]).data, h.data)
        tv = K.TVFiLM(2, 8, 1, rng)
        z, _ = tv.latents(Tensor(rng.standard_normal(256) * 0.5), c, None)
        rels["tvfilm"] = _rel_l2(tv.modulate(0, h, z).data, h.data)
    bad = sorted(k for k, v in rels.items() if not v <= 1e-6)
    ok = not bad
    _report(3, ok, f"{len(rels)} neutral settings, worst rel L2 "
                   f"{max(rels.values()):.2e}"
            + (f"; failing: {bad}" if bad else ""))


# --------------------------------------------------------------------------
# criterion 4: receptive field and parameter budgets


def test_04_receptive_field_and_parameter_budgets():
    rf = M.receptive_field(5, 7, 4)
    rng = np.random.default_rng(404)
    counts = {}
    for cond in ("film", "tfilm", "ttfilm", "tvfilm"):
        cfg = M.TCNConfig(blocks=5, kernel=7, dilation_growth=4,
                          channels=16, cond=cond)
        model = M.TCN(cfg, num_controls=2, rng=rng)
        counts[cond] = sum(p.data.size for p in model.parameters())
    budgets = {"film": 15000, "tfilm": 42000, "ttfilm": 17300,
               "tvfilm": 17700}
    over = sorted(k for k in budgets
                  if abs(counts[k] - budgets[k]) > 0.15 * budgets[k])
    ordered = (counts["film"] < counts["ttfilm"] < counts["tfilm"]
               and counts["film"] < counts["tvfilm"] < counts["tfilm"])
    ok = rf == 2047 and not over and ordered
    _report(4, ok, f"receptive field {rf} (want 2047); params "
            + ", ".join(f"{k}={v}" for k, v in counts.items())
            + (f"; outside 15% budget: {over}" if over else "")
            + ("" if ordered else "; size ordering violated"))


# --------------------------------------------------------------------------
# criterion 5: reported total is the weighted sum of its terms


def test_05_total_loss_is_sum_of_terms():
    spec = ModelSpec(sample_rate=float(FS), num_controls=0,
                     graybox=GrayBoxSpec([StageSpec("gain", "static")],
                                         sample_rate=float(FS),
                                         num_controls=0, block_size=128))
    model = spec.build(np.random.default_rng(1))
    rng = np.random.default_rng(505)
    segs = []
    for i in range(3):
        x = (rng.standard_normal(4096) * 0.3).astype(np.float32)
        segs.append(Segment(x, (0.65 * x).astype(np.float32),
                            np.zeros(0), i, 0))
    m = tr.evaluate(model, segs, weights=L.LossWeights(1.0, 1.0))
    gap = abs(m["tot"] - (m["l1"] + m["mrstft"]))
    ok = gap <= 1e-9
    _report(5, ok, f"|tot - (l1 + mrstft)| = {gap:.2e} at unit weights "
                   f"(tot {m['tot']:.6f})")


# --------------------------------------------------------------------------
# criterion 6: static chain learns a lowpassed clipper


def _dist_program(rng, n):
    """Broadband test signal: 1/f-weighted noise plus slow-AM tones.

    The 1/f tilt mirrors where the lowpassed target keeps its energy,
    so the fit is not dominated by unrecoverable highs.
    """
    white = rng.standard_normal(n)
    S = np.fft.rfft(white)
    f = np.fft.rfftfreq(n, 1.0 / FS)
    S = S / np.sqrt(np.maximum(f, 40.0))
    pink = np.fft.irfft(S, n)
    pink *= 0.25 / pink.std()
    t = np.arange(n) / FS
    tones = np.zeros(n)
    for k, f0 in enumerate((110.0, 220.0, 550.0, 1100.0)):
        am = np.sin(2 * np.pi * (0.13 + 0.11 * k) * t + k) ** 2
        tones += 0.06 * am * np.sin(2 * np.pi * f0 * t + 0.7 * k)
    env = 0.4 + 0.6 * np.sin(2 * np.pi * 0.25 * t + 1.0) ** 2
    return np.clip(env * (pink + tones), -1.0, 1.0)


def _rbj_lowpass(f0, q, fs):
    # independent of the package's own coefficient code
    w0 = 2.0 * np.pi * f0 / fs
    alpha = np.sin(w0) / (2.0 * q)
    cw = np.cos(w0)
    b = np.array([(1.0 - cw) / 2.0, 1.0 - cw, (1.0 - cw) / 2.0])
    a = np.array([1.0 + alpha, -2.0 * cw, 1.0 - alpha])
    return b / a[0], a / a[0]


def _lowpass_tanh_device(x):
    b, a = _rbj_lowpass(2000.0, 1.0 / np.sqrt(2.0), float(FS))
    return np.tanh(4.0 * lfilter(b, a, x))


def _device_segments(seed, seconds, seg=4096):
    rng = np.random.default_rng(seed)
    x = _dist_program(rng, seconds * FS)
    y = _lowpass_tanh_device(x)
    out = []
    for off in range(0, len(x) - seg + 1, seg):
        out.append(Segment(x[off:off + seg].astype(np.float32),
                           y[off:off + seg].astype(np.float32),
                           np.zeros(0), 0, off))
    return out


def test_06_static_chain_learns_lowpassed_clipper():
    t0 = time.time()
    gb = GrayBoxSpec([
        StageSpec("parametric_eq", "static"),
        StageSpec("gain", "static"),
        StageSpec("dc_offset", "static"),
        StageSpec("rational", "dummy"),
        StageSpec("gain", "static"),
        StageSpec("parametric_eq", "static"),
    ], sample_rate=float(FS), num_controls=0, block_size=128)
    spec = ModelSpec(sample_rate=float(FS), num_controls=0, graybox=gb)
    model = spec.build(np.random.default_rng(0))

    train = _device_segments(1, 48)
    val = _device_segments(2, 6)[:16]
    test = _device_segments(3, 6)

    cfg = tr.TrainConfig(max_steps=3000, lr=2e-3, validate_every=100,
                         seed=0, stop_metric="esr", stop_value=0.005)
    log = tr.fit(model, spec, train, cfg, val_segments=val)
    steps = log.rows[-1]["step"]
    esr = tr.evaluate(model, test)["esr"]
    elapsed = time.time() - t0
    ok = esr < 0.01 and steps <= 3000 and elapsed < 900.0
    _report(6, ok, f"chain fit of lowpass+tanh device: test ESR {esr:.4f} "
                   f"(< 0.01) after {steps} steps, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# criterion 7: conditioned model tracks and interpolates a drive control


def _drive_program(rng, n):
    white = rng.standard_normal(n)
    S = np.fft.rfft(white)
    f = np.fft.rfftfreq(n, 1.0 / FS)
    S = S / np.sqrt(np.maximum(f, 40.0))
    pink = np.fft.irfft(S, n)
    pink *= 0.2 / pink.std()
    t = np.arange(n) / FS
    tones = 0.08 * np.sin(2 * np.pi * 220.0 * t) \
        * np.sin(2 * np.pi * 0.21 * t) ** 2
    env = 0.35 + 0.65 * np.sin(2 * np.pi * 0.31 * t + 0.5) ** 2
    return np.clip(env * (pink + tones), -1.0, 1.0)


def _drive_segments(seed, seconds, settings, seg=4096):
    out = []
    for c01 in settings:
        rng = np.random.default_rng((seed, int(c01 * 100)))
        x = _drive_program(rng, seconds * FS)
        g = 10.0 ** (24.0 * c01 / 20.0)  # control span: 0..24 dB of drive
        y = np.tanh(g * x)
        ctrl = np.array([c01], dtype=np.float32)
        for off in range(0, len(x) - seg + 1, seg):
            out.append(Segment(x[off:off + seg].astype(np.float32),
                               y[off:off + seg].astype(np.float32),
                               ctrl, 0, off))
    return out


def test_07_conditioned_model_interpolates_drive():
    t0 = time.time()
    spec = ModelSpec(sample_rate=float(FS), num_controls=1,
                     tcn=M.TCNConfig(blocks=5, kernel=7, dilation_growth=4,
                                     channels=16, cond="film"))
    model = spec.build(np.random.default_rng(0))

    train = _drive_segments(1, 12, (0.0, 0.25, 0.75, 1.0))
    val = _drive_segments(2, 2, (0.0, 0.25, 0.75, 1.0))[:32]
    test_all = _drive_segments(3, 2, (0.0, 0.25, 0.5, 0.75, 1.0))
    test_mid = _drive_segments(3, 2, (0.5,))  # setting never trained on

    cfg = tr.TrainConfig(max_steps=5000, lr=2e-3, validate_every=250,
                         seed=0, stop_metric="esr", stop_value=0.02)
    log = tr.fit(model, spec, train, cfg, val_segments=val)
    esr_all = tr.evaluate(model, test_all)["esr"]
    esr_mid = tr.evaluate(model, test_mid)["esr"]
    steps = log.rows[-1]["step"]
    elapsed = time.time() - t0
    ok = (esr_all < 0.05 and esr_mid < 0.1 and steps <= 5000
          and elapsed < 1800.0)
    _report(7, ok, f"drive fit: ESR {esr_all:.4f} over five settings "
                   f"(< 0.05), {esr_mid:.4f} at held-out mid drive (< 0.1), "
                   f"{steps} steps, {elapsed:.0f}s")


# --------------------------------------------------------------------------
# criterion 8: one-chunk truncated training equals a plain step


def test_08_one_chunk_truncation_matches_plain_step():
    rng = np.random.default_rng(808)
    x = (rng.standard_normal(2048) * 0.3).astype(np.float32)
    seg = Segment(x, (0.5 * np.tanh(2.0 * x)).astype(np.float32),
                  np.zeros(0), 0, 0)
    cases = {
        "lstm": ModelSpec(sample_rate=float(FS), num_controls=0,
                          lstm={"hidden": 4, "cond_mode": "none"}),
        "graybox_dynamic": ModelSpec(
            sample_rate=float(FS), num_controls=0,
            graybox=GrayBoxSpec([StageSpec("gain", "dynamic")],
                                sample_rate=float(FS), num_controls=0,
                                block_size=128)),
    }
    worst = 0.0
    for name, spec in cases.items():
        losses, params = {}, {}
        for mode in ("plain", "tbptt"):
            model = spec.build(np.random.default_rng(7))
            cfg = tr.TrainConfig(tbptt=(mode == "tbptt"), chunk_len=2048,
                                 warmup_len=0)
            opt = tr.Adam(model.parameters(), cfg.lr)
            if mode == "plain":
                losses[mode] = tr.train_step(model, [seg], opt,
                                             cfg)["loss_tot"]
            else:
                losses[mode] = tr.tbptt_train_step(model, seg, opt,
                                                   cfg)["loss_tot"]
            params[mode] = [p.data.copy() for p in model.parameters()]
        dl = abs(losses["plain"] - losses["tbptt"])
        dp = max(float(np.max(np.abs(a - b)))
                 for a, b in zip(params["plain"], params["tbptt"]))
        worst = max(worst, dl, dp)
    ok = worst <= 1e-6
    _report(8, ok, f"single-chunk truncated step vs plain step "
                   f"(lstm, gray-box dynamic): max deviation {worst:.2e}")


# --------------------------------------------------------------------------
# criterion 9: stepped-sine measurement matches the analytic response


class _GainIntoLowpass:
    """-6.02 dB pad into a 1 kHz lowpass, rendered through the filter path."""

    stream_unit = 1
    receptive_field = None

    def __init__(self):
        self.scale = 10.0 ** (-6.02 / 20.0)
        self.params = Tensor(np.array([1000.0, 1.0 / np.sqrt(2.0)],
                                      dtype=T.default_dtype()))

    def forward(self, x, c=None, state=None):
        y = apply_eq(Tensor(x.data * self.scale), self.params,
                     ("lowpass",), float(FS))[0]
        return y, None


def test_09_stepped_sine_matches_analytic_response():
    t0 = time.time()
    with _f64():
        cfg = A.SweepConfig()
        chain = _GainIntoLowpass()
        curve = A.stepped_sine_response(chain, cfg)
        design = eq_design(chain.params, ("lowpass",), float(FS)).data
        href = chain.scale * P.frequency_response(design, curve.freqs,
                                                  float(FS))
        mag_err = float(np.max(np.abs(
            curve.magnitude_db - 20.0 * np.log10(np.abs(href)))))
        # compare phases on the circle; the curve itself is unwrapped
        dphi = np.angle(np.exp(1j * (curve.phase_rad - np.angle(href))))
        ph_err = float(np.max(np.abs(dphi)))
    elapsed = time.time() - t0
    ok = (cfg.tail_length == 24000 and len(curve.freqs) == 50
          and mag_err <= 0.05 and ph_err <= 0.02)
    _report(9, ok, f"sweep vs analytic over 50 points: tail "
                   f"{cfg.tail_length} (want 24000), max mag err "
                   f"{mag_err:.4f} dB (<= 0.05), max phase err "
                   f"{ph_err:.4f} rad (<= 0.02), {elapsed:.0f}s")


# --------------------------------------------------------------------------
# criterion 10: shipped nonlinearities track tanh


def test_10_fitted_nonlinearities_track_tanh():
    with _f64():
        grid = np.linspace(-3.0, 3.0, 601)
        ref = np.tanh(grid)
        err_r = float(np.max(np.abs(P.RationalNL().apply(Tensor(grid))[0].data
                                    - ref)))
        err_m = float(np.max(np.abs(P.MLPNL().apply(Tensor(grid))[0].data
                                    - ref)))
    ok = err_r <= 1e-3 and err_m <= 5e-3
    _report(10, ok, f"on [-3, 3]: rational max err {err_r:.2e} (<= 1e-3), "
                    f"mlp max err {err_m:.2e} (<= 5e-3)")


# --------------------------------------------------------------------------
# criterion 11: runs reproduce exactly and resume from checkpoints


def test_11_training_reproduces_and_resumes(tmp_path):
    spec = ModelSpec(sample_rate=float(FS), num_controls=0,
                     graybox=GrayBoxSpec([StageSpec("gain", "static")],
                                         sample_rate=float(FS),
                                         num_controls=0, block_size=128))
    rng = np.random.default_rng(1111)
    segs = []
    for i in range(3):
        x = (rng.standard_normal(2048) * 0.3).astype(np.float32)
        segs.append(Segment(x, (0.65 * x).astype(np.float32),
                            np.zeros(0), i, 0))

    def cfg(steps):
        return tr.TrainConfig(max_steps=steps, lr=1e-2, validate_every=6,
                              seed=33)

    logs = []
    for _ in range(2):
        model = spec.build(np.random.default_rng(4))
        logs.append(tr.fit(model, spec, segs, cfg(24),
                           val_segments=segs[:1]))
    repro = logs_match(logs[0], logs[1])

    model_b = spec.build(np.random.default_rng(4))
    opt_b = tr.Adam(model_b.parameters(), 1e-2)
    tr.fit(model_b, spec, segs, cfg(12), val_segments=segs[:1],
           optimizer=opt_b)
    path = tmp_path / "resume.json"
    tr.save_training_checkpoint(path, model_b, spec, opt_b, 12)

    model_c, spec_c, opt_c, step_c, _ = tr.restore_training(path, cfg(24))
    log_c = tr.fit(model_c, spec_c, segs, cfg(24), val_segments=segs[:1],
                   optimizer=opt_c, start_step=12)
    worst = 0.0
    for ra, rc in zip(logs[0].rows[12:], log_c.rows):
        worst = max(worst,
                    abs(ra["loss_tot"] - rc["loss_tot"]),
                    abs(ra["loss_l1"] - rc["loss_l1"]),
                    abs(ra["loss_mrstft"] - rc["loss_mrstft"]))
    ok = repro and step_c == 12 and len(log_c.rows) >= 10 and worst <= 1e-6
    _report(11, ok, f"identical reruns match; resumed steps 13-24 deviate "
                    f"by {worst:.2e} (<= 1e-6) over {len(log_c.rows)} steps")
