"""DSP processor checks against independent numpy/scipy references."""

import math

import numpy as np
import pytest

import gradfx.tensor as T
from gradfx import processors as P
from gradfx.tensor import Tensor, grad_check

from oracles import (rbj_coeffs, lfilter_cascade, freqz_cascade,
                     draw_filter_params, rel_l2, df1_blocks, apply_eq,
                     eq_design)

FS = 48000.0


def t64(a):
    return Tensor(np.asarray(a, dtype=np.float64))


def t32(a):
    return Tensor(np.asarray(a, dtype=np.float32))


# ---------------------------------------------------------------------------
# coefficient formulas

def _params(kind, d):
    """A one-section layout's params from drawn f0 / gain_db / Q."""
    return [d["f0"], d["gain_db"], d["q"]] if kind in P.GAIN_KINDS \
        else [d["f0"], d["q"]]


def test_lowpass_hand_evaluated_anchor():
    # f0 = fs/4: cos w0 = 0, sin w0 = 1, alpha = 1/(2Q) = sqrt(2)/2
    row = eq_design(t32([FS / 4, 1 / np.sqrt(2)]), ("lowpass",), FS).data[0]
    b0, b1, b2, a1, a2, a0 = (float(c) for c in row)
    assert (b0, b1, b2) == pytest.approx((0.5, 1.0, 0.5), abs=1e-4)
    assert (a0, a1, a2) == pytest.approx((1.7071, 0.0, 0.2929), abs=1e-4)


def test_peak_zero_gain_is_identity_section():
    b0, b1, b2, a1, a2, a0 = eq_design(t32([800.0, 0.0, 2.0]), ("peak",),
                                       FS).data[0]
    assert np.array_equal(b0, a0) and np.array_equal(b1, a1) and np.array_equal(b2, a2)


def test_highpass_blocks_dc():
    b0, b1, b2, *_ = eq_design(t32([500.0, 0.9]), ("highpass",), FS).data[0]
    assert b0 + b1 + b2 == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("kind", ["lowpass", "highpass", "lowshelf", "highshelf", "peak"])
def test_coefficients_match_reference_transcription(kind):
    rng = np.random.default_rng(hash(kind) % 2**32)
    for _ in range(10):
        d = draw_filter_params(rng, kind, FS)
        row = eq_design(t64(_params(kind, d)), (kind,), FS).data[0]
        got = np.array([float(row[k]) for k in (0, 1, 2, 5, 3, 4)])
        b, a = rbj_coeffs(kind, d["f0"], d["q"], d.get("gain_db", 0.0), FS)
        ref = np.concatenate([b, a])
        assert np.allclose(got, ref, rtol=1e-12, atol=1e-12), kind


def test_invalid_filter_params_raise():
    with pytest.raises(ValueError):
        eq_design(t32([FS / 2, 1.0]), ("lowpass",), FS)
    with pytest.raises(ValueError):
        eq_design(t32([-10.0, 1.0]), ("lowpass",), FS)
    with pytest.raises(ValueError):
        eq_design(t32([100.0, 3.0, 0.0]), ("peak",), FS)
    with pytest.raises(ValueError):
        eq_design(t32([100.0, 1.0]), ("peak",), FS)  # gain required
    with pytest.raises(ValueError):
        eq_design(t32([100.0, 1.0]), ("bandstop",), FS)


# ---------------------------------------------------------------------------
# frequency response

def test_identity_section_response_is_one():
    design = eq_design(t32([1000.0, 0.0, 1.0]), ("peak",), FS).data
    h = P.frequency_response(design, [10.0, 100.0, 1000.0, 20000.0], FS)
    assert np.allclose(h, 1.0 + 0j, atol=1e-15)


def test_lowpass_unity_at_dc():
    design = eq_design(t64([FS / 4, 1 / np.sqrt(2)]), ("lowpass",), FS).data
    h = P.frequency_response(design, [0.0], FS)
    assert abs(h[0]) == pytest.approx(1.0, abs=1e-12)


def test_cascade_is_product_of_sections():
    rng = np.random.default_rng(21)
    freqs = np.geomspace(20, 20000, 64)
    designs = []
    for kind in ("lowshelf", "peak", "highshelf"):
        d = draw_filter_params(rng, kind, FS)
        designs.append(eq_design(t32(_params(kind, d)), (kind,), FS).data)
    combined = P.frequency_response(np.concatenate(designs), freqs, FS)
    product = np.ones_like(combined)
    for s in designs:
        product = product * P.frequency_response(s, freqs, FS)
    assert np.max(np.abs(combined - product)) < 1e-9
    two = P.frequency_response(np.concatenate([designs[0]] * 2), freqs, FS)
    single = P.frequency_response(designs[0], freqs, FS)
    assert np.allclose(two, single**2, atol=1e-12)


def test_frequency_response_matches_scipy():
    rng = np.random.default_rng(22)
    freqs = np.geomspace(10, 23000, 200)
    coeffs = []
    rows = []
    for kind in ("lowpass", "peak", "highshelf"):
        d = draw_filter_params(rng, kind, FS)
        b, a = rbj_coeffs(kind, d["f0"], d["q"], d.get("gain_db", 0.0), FS)
        coeffs.append((b, a))
        rows.append([b[0], b[1], b[2], a[1], a[2], a[0]])
    got = P.frequency_response(np.array(rows), freqs, FS)
    ref = freqz_cascade(coeffs, freqs, FS)
    assert np.max(np.abs(got - ref)) < 1e-9


# ---------------------------------------------------------------------------
# recursive filtering vs independent references

def test_apply_filter_identity_section():
    rng = np.random.default_rng(24)
    x = Tensor(rng.standard_normal(1000).astype(np.float32))
    y = apply_eq(x, t32([440.0, 0.0, 3.0]), ("peak",), FS)[0]
    assert rel_l2(y.data, x.data) < 1e-6


@pytest.mark.parametrize("kind", ["lowpass", "highpass", "lowshelf", "highshelf", "peak"])
def test_apply_filter_matches_recursion(kind):
    rng = np.random.default_rng(hash(kind) % 1000 + 7)
    n = 12000
    x = rng.standard_normal(n)
    for _ in range(4):
        d = draw_filter_params(rng, kind, FS)
        params = t64(_params(kind, d))
        y = apply_eq(t64(x), params, (kind,), FS)[0].data
        b0, b1, b2, a1, a2, a0 = eq_design(params, (kind,), FS).data[0]
        ref = lfilter_cascade(x, [((b0, b1, b2), (a0, a1, a2))])
        assert rel_l2(y, ref) < 1e-3, (kind, d)


def test_apply_filter_argument_errors():
    x = Tensor(np.zeros(100, dtype=np.float32))
    params = t32([1000.0, 1.0])
    with pytest.raises(ValueError):
        apply_eq(Tensor(np.zeros((2, 50))), params, ("lowpass",), FS)  # not 1-D
    per_block = Tensor(np.tile([1000.0, 1.0], (4, 1)))
    with pytest.raises(ValueError):
        apply_eq(x, per_block, ("lowpass",), FS)                 # no block size
    with pytest.raises(ValueError):
        apply_eq(x, per_block, ("lowpass",), FS, block_size=50)  # 2 blocks, not 4


def test_apply_filter_gradients():
    rng = np.random.default_rng(25)
    x = t64(rng.standard_normal(32))
    params = t64([900.0, 4.5, 1.3])  # f0, gain_db, Q
    w = rng.standard_normal(32)

    def f(ts):
        y = apply_eq(ts[0], ts[1], ("lowshelf",), FS)[0]
        return T.sum_(T.mul(y, Tensor(w)))

    assert grad_check(f, [x, params]) < 1e-4


# ---------------------------------------------------------------------------
# EQ banks

def test_parametric_eq_zero_gain_is_identity():
    rng = np.random.default_rng(26)
    x = Tensor(rng.standard_normal(4096).astype(np.float32))
    params = []
    for _ in range(5):
        d = draw_filter_params(rng, "peak", FS)
        params += [d["f0"], 0.0, d["q"]]
    y = apply_eq(x, Tensor(np.array(params, dtype=np.float32)),
                 P.PARAMETRIC_EQ_LAYOUT, FS)[0]
    assert rel_l2(y.data, x.data) < 1e-4

    eq = P.ParametricEQ(FS)
    g01 = Tensor(np.full(15, 0.5, dtype=np.float32))
    y2 = eq.apply(x, g01)[0]
    assert rel_l2(y2.data, x.data) < 1e-4


def test_parametric_eq_flat_response_at_zero_gain():
    rng = np.random.default_rng(27)
    params = []
    for _ in range(5):
        d = draw_filter_params(rng, "peak", FS)
        params += [d["f0"], 0.0, d["q"]]
    design = eq_design(t32(params), ("peak",) * 5, FS).data
    h = P.frequency_response(design, np.geomspace(20, 22000, 128), FS)
    assert np.max(np.abs(20 * np.log10(np.abs(h)))) < 1e-6


def test_eq_param_count_errors():
    x = Tensor(np.zeros(64, dtype=np.float32))
    with pytest.raises(ValueError):
        apply_eq(x, Tensor(np.full(14, 0.5)), P.PARAMETRIC_EQ_LAYOUT, FS)
    with pytest.raises(ValueError):
        apply_eq(x, Tensor(np.full(9, 0.5)), P.SHELVING_EQ_LAYOUT, FS)


def test_shelving_eq_near_flat_passband():
    n = 8192
    impulse = np.zeros(n, dtype=np.float64)
    impulse[0] = 1.0
    lo, hi = 20.0, 0.95 * FS / 2
    params = [lo, 0.707, 200.0, 0.0, 0.707, 2000.0, 0.0, 0.707, hi, 0.707]
    y = apply_eq(t64(impulse), t64(np.array(params)), P.SHELVING_EQ_LAYOUT,
                 FS)[0].data
    spec = np.fft.rfft(y, n)
    freqs = np.arange(len(spec)) * FS / n
    band = (freqs >= 100.0) & (freqs <= FS / 4)
    dev_db = 20 * np.log10(np.abs(spec[band]))
    assert np.max(np.abs(dev_db)) < 0.5


def test_shelving_eq_gradients_all_params():
    rng = np.random.default_rng(28)
    x = t64(rng.standard_normal(24))
    vals = [120.0, 0.8, 300.0, 5.0, 1.1, 3000.0, -4.0, 0.9, 9000.0, 0.75]
    w = rng.standard_normal(24)

    def f(ts):
        y = apply_eq(x, ts[0], P.SHELVING_EQ_LAYOUT, FS)[0]
        return T.sum_(T.mul(y, Tensor(w)))

    assert grad_check(f, [t64(vals)]) < 1e-4


def test_time_varying_equals_static_at_full_block():
    rng = np.random.default_rng(29)
    n = 512
    x = t64(rng.standard_normal(n))
    vals = np.array([150.0, 6.0, 1.0, 400.0, -3.0, 2.0, 1000.0, 2.0, 0.7,
                     3000.0, -6.0, 1.5, 8000.0, 4.0, 0.8])
    y_static = apply_eq(x, t64(vals), P.PARAMETRIC_EQ_LAYOUT, FS)[0]
    y_tv = apply_eq(x, t64(vals[None, :]), P.PARAMETRIC_EQ_LAYOUT, FS,
                    block_size=n)[0]
    assert np.array_equal(y_static.data, y_tv.data)


def test_time_varying_blocks_use_their_own_params():
    # two blocks: unity peak then +24 dB low shelf far below: block outputs differ
    n = 256
    rng = np.random.default_rng(30)
    x = t64(np.ones(n))
    p_identity = [500.0, 0.0, 1.0]
    p_boost = [500.0, 24.0, 1.0]
    params = np.array([p_identity * 5, p_boost * 5])
    y = apply_eq(x, t64(params), P.PARAMETRIC_EQ_LAYOUT, FS, block_size=128)[0]
    first, second = y.data[:128], y.data[128:]
    assert rel_l2(first, np.ones(128)) < 1e-3
    assert np.abs(second).mean() > 1.5  # boosted well above unity


def _normalized(design):
    """Each section's a0-normalized (b0, b1, b2, a1, a2) as float64 arrays."""
    d = design.data
    return [[np.atleast_1d(d[..., s, k] / d[..., s, 5]).astype(np.float64)
             for k in range(5)] for s in range(d.shape[-2])]


@pytest.mark.parametrize("block", [128, 256, 100, 1])
def test_per_block_filter_matches_carried_state_recursion(block):
    # new coefficients every block; the exact filter carries x and y
    # history across each change
    rng = np.random.default_rng(36)
    n = 4096
    nb = -(-n // block)
    x = rng.standard_normal(n)
    params = np.empty((nb, 15))
    for k in range(nb):
        for i, kind in enumerate(("lowshelf", "peak", "peak", "peak", "highshelf")):
            d = draw_filter_params(rng, kind, FS)
            params[k, 3 * i:3 * i + 3] = d["f0"], d["gain_db"], d["q"]
    y = apply_eq(t64(x), t64(params), P.PARAMETRIC_EQ_LAYOUT, FS,
                 block_size=block)[0].data
    design = eq_design(t64(params), P.PARAMETRIC_EQ_LAYOUT, FS)
    ref = df1_blocks(x, _normalized(design), block)
    assert np.max(np.abs(y - ref)) / np.max(np.abs(ref)) < 1e-10


def _allpole_taps_expression(a1, a2, b):
    """The per-block taps as the expression the in-place loop replaced."""
    g = np.zeros((b + 2, a1.shape[0]))
    g[2] = 1.0
    for t in range(3, b + 2):
        g[t] = -a1 * g[t - 1] - a2 * g[t - 2]
    return np.ascontiguousarray(g.T)


def test_per_block_taps_equal_the_expression_they_replace():
    rng = np.random.default_rng(38)
    r, theta = rng.uniform(0.3, 0.999, 40), rng.uniform(0.0, np.pi, 40)
    a1, a2 = -2.0 * r * np.cos(theta), r * r  # distinct stable pole pairs
    g, spectrum = T._allpole_taps(a1, a2, T._BIQUAD_BLOCK)
    ref = _allpole_taps_expression(a1, a2, T._BIQUAD_BLOCK)
    assert np.array_equal(g, ref)
    assert np.array_equal(spectrum, np.fft.rfft(ref[:, 2:], n=2 * T._BIQUAD_BLOCK,
                                                axis=1))
    # a taped section's vjp rebuilds its rows of the spectrum from its taps
    # alone: one row per section (static) or one per block
    for rows in (1, 8):
        for a in range(0, 40, rows):
            assert np.array_equal(
                np.fft.rfft(g[a:a + rows, 2:], n=2 * T._BIQUAD_BLOCK, axis=1),
                spectrum[a:a + rows])


@pytest.mark.parametrize("block", [128, 256])
def test_per_block_constant_coefficients_equal_static_path(block):
    rng = np.random.default_rng(37)
    n = 4000
    x = t64(rng.standard_normal(n))
    vals = np.array([82.0, 19.0, 7.0, 400.0, -3.0, 2.0, 1000.0, 2.0, 0.7,
                     3000.0, -6.0, 1.5, 8000.0, 4.0, 0.8])
    y_static = apply_eq(x, t64(vals), P.PARAMETRIC_EQ_LAYOUT, FS)[0]
    nb = -(-n // block)
    y_tv = apply_eq(x, t64(np.tile(vals, (nb, 1))), P.PARAMETRIC_EQ_LAYOUT,
                    FS, block_size=block)[0]
    assert np.array_equal(y_static.data, y_tv.data)


def test_f32_resonant_cascade_matches_sosfilt():
    # float32 coefficients and signal; the recursion itself must run in
    # float64, or the resonant low peak drifts by about a percent
    from scipy.signal import sosfilt
    rng = np.random.default_rng(38)
    vals = np.array([82.0, 19.0, 7.0, 400.0, -3.0, 2.0, 1000.0, 2.0, 0.7,
                     3000.0, -6.0, 1.5, 8000.0, 4.0, 0.8], dtype=np.float32)
    x = Tensor((rng.standard_normal(48000) * 0.25).astype(np.float32))
    y = apply_eq(x, Tensor(vals), P.PARAMETRIC_EQ_LAYOUT, FS)[0].data
    assert y.dtype == np.float32
    design = eq_design(Tensor(vals), P.PARAMETRIC_EQ_LAYOUT, FS)
    sos = np.array([[b0[0], b1[0], b2[0], 1.0, a1[0], a2[0]]
                    for b0, b1, b2, a1, a2 in _normalized(design)])
    ref = sosfilt(sos, x.data.astype(np.float64))
    assert np.max(np.abs(y - ref)) / np.max(np.abs(ref)) < 1e-5


def _stable_sections(rng, shape):
    """Random a0-normalized sections [..., 5] with poles inside 0.95."""
    r, th = rng.uniform(0.3, 0.95, shape), rng.uniform(0.05, 3.0, shape)
    return np.stack([rng.uniform(-1.0, 1.0, shape) for _ in range(3)]
                    + [-2.0 * r * np.cos(th), r * r], axis=-1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("block", [None, 128, 256, 100])
def test_cascade_node_equals_chain_of_single_sections(dtype, block):
    # one node over four sections against four one-section nodes: output
    # and every gradient bit for bit
    rng = np.random.default_rng(40)
    n = 1000
    shape = (4,) if block is None else (-(-n // block), 4)
    coeffs = _stable_sections(rng, shape).astype(dtype)
    x0 = (rng.standard_normal(n) * 0.5).astype(dtype)
    w = Tensor(rng.standard_normal(n).astype(dtype))
    runs = []
    for chained in (False, True):
        x, c = Tensor(x0.copy(), requires_grad=True), Tensor(coeffs.copy(),
                                                             requires_grad=True)
        with T.Tape() as tape:
            if chained:
                y = x
                for s in range(4):
                    y = T.biquad(y, c[..., s:s + 1, :], block)[0]
            else:
                y = T.biquad(x, c, block)[0]
            loss = T.sum_(T.mul(y, w))
        dx, dc = tape.backward(loss, [x, c])
        runs.append((y.data, dx, dc))
        assert y.data.dtype == dtype and dc.dtype == dtype
    for one, chain in zip(*runs):
        assert np.array_equal(one, chain)
    # the untaped forward computes its taps per section: same output
    assert np.array_equal(T.biquad(Tensor(x0), Tensor(coeffs), block)[0].data,
                          runs[0][0])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_cascade_constant_per_block_coefficients_equal_static(dtype):
    rng = np.random.default_rng(41)
    n, block = 1000, 256
    coeffs = _stable_sections(rng, (3,)).astype(dtype)
    tiled = np.tile(coeffs, (-(-n // block), 1, 1))
    x0 = rng.standard_normal(n).astype(dtype)
    for taped in (False, True):
        outs = []
        for c, blk in ((coeffs, None), (tiled, block)):
            ct = Tensor(c, requires_grad=taped)
            with T.Tape():
                outs.append(T.biquad(Tensor(x0), ct, blk)[0].data)
        assert np.array_equal(*outs)


def _cookbook(kind, f0, q, gain, fs):
    """One section's (b0, b1, b2, a0, a1, a2) from scalar or [nb] tape
    ops, formula by formula."""
    def c(v):
        return Tensor(np.asarray(v, dtype=f0.data.dtype))
    one, two, m2 = c(1.0), c(2.0), c(-2.0)
    w0 = T.mul(f0, c(2.0 * math.pi / fs))
    cosw, sinw = T.cos(w0), T.sin(w0)
    alpha = T.div(sinw, T.mul(q, two))
    if kind in ("lowpass", "highpass"):
        low = kind == "lowpass"
        cc = T.sub(one, cosw) if low else T.add(one, cosw)
        b0 = T.div(cc, two)
        return (b0, cc if low else T.neg(cc), b0, T.add(one, alpha),
                T.mul(m2, cosw), T.sub(one, alpha))
    A = T.exp(T.mul(gain, c(math.log(10.0) / 40.0)))
    if kind == "peak":
        aA, adA, m2c = T.mul(alpha, A), T.div(alpha, A), T.mul(m2, cosw)
        return (T.add(one, aA), m2c, T.sub(one, aA), T.add(one, adA), m2c,
                T.sub(one, adA))
    ap1, am1 = T.add(A, one), T.sub(A, one)
    s = T.mul(T.mul(two, T.sqrt(A)), alpha)
    ap1c, am1c = T.mul(ap1, cosw), T.mul(am1, cosw)
    if kind == "lowshelf":
        return (T.mul(A, T.add(T.sub(ap1, am1c), s)),
                T.mul(T.mul(two, A), T.sub(am1, ap1c)),
                T.mul(A, T.sub(T.sub(ap1, am1c), s)),
                T.add(T.add(ap1, am1c), s), T.mul(m2, T.add(am1, ap1c)),
                T.sub(T.add(ap1, am1c), s))
    return (T.mul(A, T.add(T.add(ap1, am1c), s)),
            T.mul(T.mul(m2, A), T.add(am1, ap1c)),
            T.mul(A, T.sub(T.add(ap1, am1c), s)),
            T.add(T.sub(ap1, am1c), s), T.mul(two, T.sub(am1, ap1c)),
            T.sub(T.sub(ap1, am1c), s))


def _per_section_eq(eq, x, g01, block):
    """The EQ composed one section at a time: each control column
    denormalized alone, the section's cookbook formulas, five divisions by
    a0 and a one-section biquad node."""
    u = [eq.ranges[i].denormalize(g01[..., i]) for i in range(eq.num_params)]
    i = 0
    for kind in eq.layout:
        has_gain = kind in P.GAIN_KINDS
        f0, g, q = u[i:i + 3] if has_gain else (u[i], None, u[i + 1])
        i += 2 + has_gain
        b0, b1, b2, a0, a1, a2 = _cookbook(kind, f0, q, g, eq.fs)
        cols = [T.div(c, a0) for c in (b0, b1, b2, a1, a2)]
        op = T.concat([T.reshape(c, c.data.shape + (1, 1)) for c in cols],
                      axis=-1)
        x = T.biquad(x, op, block)[0]
    return x


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("block", [None, 128])
@pytest.mark.parametrize("cls", [P.ParametricEQ, P.ShelvingEQ])
def test_eq_design_matches_per_section_composition_bitwise(cls, block, dtype):
    # the section-axis design and cascade node against the EQ composed one
    # section at a time: output and the gradients of signal and controls
    # bit for bit
    rng = np.random.default_rng(43)
    n, eq = 1000, cls(FS)
    shape = (eq.num_params,) if block is None else (-(-n // block),
                                                    eq.num_params)
    g0 = rng.uniform(0.05, 0.95, shape).astype(dtype)
    x0 = (rng.standard_normal(n) * 0.5).astype(dtype)
    w = Tensor(rng.standard_normal(n).astype(dtype))
    runs = []
    for apply in (lambda x, g: eq.apply(x, g, block)[0],
                  lambda x, g: _per_section_eq(eq, x, g, block)):
        x, g = Tensor(x0.copy(), requires_grad=True), Tensor(g0.copy(),
                                                             requires_grad=True)
        with T.Tape() as tape:
            y = apply(x, g)
            loss = T.sum_(T.mul(y, w))
        runs.append((y.data, *tape.backward(loss, [x, g])))
    for got, want in zip(*runs):
        assert np.array_equal(got, want)


def test_eq_design_is_one_division_and_one_filter_node():
    x = Tensor(np.random.default_rng(42).standard_normal(512))
    for eq, nodes in ((P.ParametricEQ(FS), 63), (P.ShelvingEQ(FS), 61)):
        n = eq.num_params
        for g01 in (Tensor(np.full(n, 0.4), requires_grad=True),
                    Tensor(np.full((4, n), 0.4), requires_grad=True)):
            with T.Tape() as tape:
                eq.apply(x, g01, block_size=128)
            ops = [node.op for node in tape.nodes]
            # the divisions: sin / 2Q, the one by a0, and the peaks'
            # alpha / A or the lowpass and highpass (1 -/+ cos) / 2
            assert ops.count("biquad") == 1 and ops.count("div") == 3
            assert len(ops) == nodes


def test_cascade_operand_errors():
    x = Tensor(np.zeros(100))
    with pytest.raises(ValueError):
        T.biquad(x, Tensor(np.zeros((2, 6))))        # not five coefficients
    with pytest.raises(ValueError):
        T.biquad(x, Tensor(np.zeros(5)))             # no section axis


@pytest.mark.parametrize("block", [1, 2, 5])
def test_per_block_biquad_gradients_short_blocks(block):
    # blocks shorter than the two-sample history reach across block edges
    rng = np.random.default_rng(39)
    n = 23
    nb = -(-n // block)
    r = rng.uniform(0.3, 0.9, nb)
    th = rng.uniform(0.1, 3.0, nb)
    coeffs = [rng.standard_normal(nb) for _ in range(3)]
    coeffs += [-2.0 * r * np.cos(th), r * r]
    x = t64(rng.standard_normal(n))
    w = rng.standard_normal(n)

    def f(ts):
        return T.sum_(T.mul(T.biquad(ts[0], ts[1], block=block)[0], Tensor(w)))

    # one section: [nb, 1, 5]
    assert grad_check(f, [x, t64(np.stack(coeffs, axis=-1)[:, None])]) < 1e-4


# ---------------------------------------------------------------------------
# basic ops

def test_phase_inversion():
    y = P.PhaseInvert().apply(Tensor(np.array([0.3, -0.2], dtype=np.float32)))[0]
    assert np.allclose(y.data, [-0.3, 0.2])


def _gain_db(x, db):
    # control 0.5 is the midpoint of [db - 1, db + 1], exactly db
    gain = P.Gain()
    gain.ranges = [P.ParamRange(db - 1.0, db + 1.0)]
    return gain.apply(x, Tensor(np.array([0.5], dtype=np.float32)))[0]


def test_gain_values():
    x = Tensor(np.array([1.0], dtype=np.float32))
    assert np.array_equal(_gain_db(x, 0.0).data, x.data)
    assert _gain_db(x, -20.0).data[0] == pytest.approx(0.1, rel=1e-6)
    x2 = Tensor(np.array([0.5, -0.5], dtype=np.float32))
    assert np.allclose(_gain_db(x2, 6.0206).data, 2.0 * x2.data, rtol=1e-4)


def test_dc_offset_and_per_block_broadcast():
    x = Tensor(np.zeros(6, dtype=np.float32))
    off = P.DCOffset()  # offsets in [-1, 1]: controls 1, 0, 0.75 -> 1, -1, 0.5
    y = off.apply(x, Tensor(np.array([[1.0], [0.0], [0.75]], dtype=np.float32)),
                  block_size=2)[0]
    assert np.allclose(y.data, [1, 1, -1, -1, 0.5, 0.5])
    with pytest.raises(ValueError):
        off.apply(x, Tensor(np.array([[1.0], [0.5]])))  # no block size
    with pytest.raises(ValueError):
        P.Gain().apply(x, None)


# ---------------------------------------------------------------------------
# ranges

def test_denormalize_endpoints_and_log_midpoint():
    lin = P.ParamRange(-24.0, 24.0, "linear")
    assert lin.denormalize(0.0).data == pytest.approx(-24.0)
    assert lin.denormalize(1.0).data == pytest.approx(24.0)
    assert lin.denormalize(0.5).data == pytest.approx(0.0, abs=1e-12)
    log = P.ParamRange(20.0, 20000.0, "logarithmic")
    assert log.denormalize(0.0).data == pytest.approx(20.0, rel=1e-6)
    assert log.denormalize(1.0).data == pytest.approx(20000.0, rel=1e-6)
    assert log.denormalize(0.5).data == pytest.approx(632.455532, rel=1e-5)


def test_denormalize_clamps_and_warns():
    r = P.ParamRange(0.0, 10.0)
    with pytest.warns(RuntimeWarning):
        v = r.denormalize(1.5)
    assert v.data == pytest.approx(10.0)
    with pytest.warns(RuntimeWarning):
        v = r.denormalize(-0.2)
    assert v.data == pytest.approx(0.0)


def test_param_range_validation():
    with pytest.raises(ValueError):
        P.ParamRange(5.0, 1.0)
    with pytest.raises(ValueError):
        P.ParamRange(-1.0, 1.0, "logarithmic")
    with pytest.raises(ValueError):
        P.ParamRange(0.0, 1.0, "exponential")


# ---------------------------------------------------------------------------
# FIR from a sine net

def test_fir_delta_and_delay():
    rng = np.random.default_rng(31)
    x = Tensor(rng.standard_normal(50).astype(np.float32))
    delta = np.zeros(8, dtype=np.float32)
    delta[0] = 1.0
    assert np.allclose(P.fir_apply(x, Tensor(delta)).data, x.data, atol=1e-7)
    delay = np.zeros(8, dtype=np.float32)
    delay[1] = 1.0
    y = P.fir_apply(x, Tensor(delay)).data
    assert np.allclose(y[1:], x.data[:-1], atol=1e-7)
    assert y[0] == 0.0


def test_fir_siren_trains_roundtrip_gradient():
    rng = np.random.default_rng(32)
    T.set_default_dtype(np.float64)
    try:
        fir = P.FIRSiren(rng, num_taps=8, width=8, depth=2)
    finally:
        T.set_default_dtype(np.float32)
    x = t64(rng.standard_normal(20))
    w = rng.standard_normal(20)

    def f(ts):
        return T.sum_(T.mul(fir.apply(x)[0], Tensor(w)))

    assert grad_check(f, fir.parameters()) < 1e-4


# ---------------------------------------------------------------------------
# nonlinearities

def test_rational_prefit_matches_tanh():
    nl = P.RationalNL()
    xs = np.linspace(-3, 3, 4001)
    y = nl.apply(Tensor(xs))[0].data
    assert np.max(np.abs(y - np.tanh(xs))) <= 1e-3
    assert abs(float(nl.num.data[0])) < 1e-4  # odd function: a0 ~ 0


def test_rational_identity_coeffs():
    coeffs = {"numerator": [0, 1, 0, 0, 0, 0, 0], "denominator": [0, 0, 0, 0, 0]}
    nl = P.RationalNL(coeffs)
    xs = np.linspace(-2, 2, 11).astype(np.float32)
    assert np.allclose(nl.apply(Tensor(xs))[0].data, xs, atol=1e-7)


def test_rational_clamps_outside_fit_domain():
    nl = P.RationalNL()
    big = nl.apply(Tensor(np.array([50.0], dtype=np.float32)))[0].data[0]
    at8 = nl.apply(Tensor(np.array([8.0], dtype=np.float32)))[0].data[0]
    assert big == at8


def test_rational_gradients():
    rng = np.random.default_rng(33)
    T.set_default_dtype(np.float64)
    try:
        nl = P.RationalNL()
    finally:
        T.set_default_dtype(np.float32)
    x = t64(rng.uniform(-2, 2, size=16))
    w = rng.standard_normal(16)

    def f(ts):
        return T.sum_(T.mul(T.rational(ts[0], ts[1], ts[2]), Tensor(w)))

    assert grad_check(f, [x, nl.num, nl.den]) < 1e-4


def test_mlp_nonlinearity_prefit():
    nl = P.MLPNL()
    xs = np.linspace(-3, 3, 2001)
    y = nl.apply(Tensor(xs))[0].data
    assert np.max(np.abs(y - np.tanh(xs))) <= 5e-3
    v = [nl.apply(Tensor(np.array([xv], dtype=np.float32)))[0].data[0]
         for xv in (-1.0, 0.0, 1.0)]
    assert v[0] < v[1] < v[2]


def test_mlp_nonlinearity_weight_gradients():
    rng = np.random.default_rng(34)
    T.set_default_dtype(np.float64)
    try:
        nl = P.MLPNL()
    finally:
        T.set_default_dtype(np.float32)
    x = t64(rng.uniform(-2, 2, size=12))
    w = rng.standard_normal(12)

    def f(ts):
        return T.sum_(T.mul(nl.apply(x)[0], Tensor(w)))

    assert grad_check(f, nl.net.parameters()) < 1e-4


def test_processor_registry_and_param_counts():
    rng = np.random.default_rng(35)
    eq = P.ParametricEQ(FS)
    assert eq.num_params == 15 and len(eq.ranges) == 15
    sh = P.ShelvingEQ(FS)
    assert sh.num_params == 10 and len(sh.ranges) == 10
    for name in ("gain", "dc_offset"):
        cls = P.PROCESSOR_KINDS[name]
        assert cls().num_params == 1
    for name in ("phase_inv", "tanh", "rational", "mlp"):
        kwargs = {}
        cls = P.PROCESSOR_KINDS[name]
        proc = cls(**kwargs)
        assert proc.num_params == 0
    fir = P.FIRSiren(rng, num_taps=16)
    assert fir.num_params == 0 and sum(p.data.size for p in fir.parameters()) > 0
    procs = [eq, sh, fir] + [P.PROCESSOR_KINDS[name]() for name in (
        "gain", "dc_offset", "phase_inv", "tanh", "rational", "mlp")]
    assert sorted(p.name for p in procs) == sorted(P.PROCESSOR_KINDS)
    for proc in procs:
        assert len(proc.param_names) == proc.num_params
        assert len(set(proc.param_names)) == proc.num_params
    assert P.Gain().param_names == ("gain_db",)
    assert P.DCOffset().param_names == ("offset",)
    assert eq.param_names == (
        "lowshelf_f0_hz", "lowshelf_gain_db", "lowshelf_q",
        "peak1_f0_hz", "peak1_gain_db", "peak1_q",
        "peak2_f0_hz", "peak2_gain_db", "peak2_q",
        "peak3_f0_hz", "peak3_gain_db", "peak3_q",
        "highshelf_f0_hz", "highshelf_gain_db", "highshelf_q")
    assert sh.param_names == (
        "highpass_f0_hz", "highpass_q",
        "lowshelf_f0_hz", "lowshelf_gain_db", "lowshelf_q",
        "highshelf_f0_hz", "highshelf_gain_db", "highshelf_q",
        "lowpass_f0_hz", "lowpass_q")
