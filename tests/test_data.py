"""WAV round trips (cross-checked against scipy), manifests, segmentation."""

import json
import struct

import numpy as np
import pytest
import scipy.io.wavfile

from gradfx import data as D


def test_pcm16_full_scale_and_scipy_agreement(tmp_path):
    p = tmp_path / "a.wav"
    x = np.array([1.0, -1.0, 0.5, 0.0, 32767 / 32768.0], dtype=np.float32)
    D.save_wav(p, x, 48000, bitdepth=16)
    mine, fs = D.load_wav(p)
    assert fs == 48000
    assert mine[4] == pytest.approx(32767 / 32768.0, abs=1e-9)
    assert mine[0] == pytest.approx(32767 / 32768.0)  # +1.0 clips to max code

    sr, ref = scipy.io.wavfile.read(p)
    assert sr == 48000
    assert np.array_equal(mine, ref.astype(np.float32) / 32768.0)


def test_pcm24_against_scipy(tmp_path):
    p = tmp_path / "b.wav"
    rng = np.random.default_rng(120)
    x = np.tanh(rng.standard_normal(777) * 0.4).astype(np.float32) * 0.9
    D.save_wav(p, x, 44100, bitdepth=24)
    mine, fs = D.load_wav(p)
    assert fs == 44100
    # scipy widens 24-bit into the top bytes of int32
    sr, ref = scipy.io.wavfile.read(p)
    assert np.array_equal(mine, (ref >> 8).astype(np.float32) / 8388608.0)
    assert np.max(np.abs(mine - x)) < 1.0 / 8388608.0


def test_float32_roundtrip_bit_exact(tmp_path):
    p = tmp_path / "c.wav"
    rng = np.random.default_rng(121)
    x = rng.standard_normal(1001).astype(np.float32) * 1.7  # may exceed [-1,1]
    D.save_wav(p, x, 48000, bitdepth="float32")
    back, fs = D.load_wav(p)
    assert fs == 48000
    assert np.array_equal(back, x)
    assert back.dtype == np.float32

    sr, ref = scipy.io.wavfile.read(p)
    assert np.array_equal(ref, x)


def test_stereo_and_unsupported_rejected(tmp_path):
    p = tmp_path / "stereo.wav"
    scipy.io.wavfile.write(p, 48000, np.zeros((100, 2), dtype=np.int16))
    with pytest.raises(ValueError, match="mono"):
        D.load_wav(p)

    q = tmp_path / "pcm8.wav"
    scipy.io.wavfile.write(q, 48000, np.zeros(100, dtype=np.uint8))
    with pytest.raises(ValueError, match="unsupported"):
        D.load_wav(q)

    r = tmp_path / "junk.wav"
    r.write_bytes(b"not a wave file at all")
    with pytest.raises(ValueError):
        D.load_wav(r)


def _declare_bits(path, bits):
    """Rewrite the bits-per-sample field of a file save_wav wrote."""
    b = bytearray(path.read_bytes())
    struct.pack_into("<H", b, 34, bits)
    path.write_bytes(bytes(b))
    return path


@pytest.mark.parametrize("samples, depth, bits, message", [
    (100, 16, 0, "unsupported WAV encoding: format 1, 0-bit"),
    (3, 24, 16, "data chunk of 9 bytes is not a whole number of 16-bit "
                "samples"),
    (100, 16, 24, "data chunk of 200 bytes is not a whole number of 24-bit "
                  "samples"),
    (100, "float32", 64, "unsupported WAV encoding: format 3, 64-bit"),
])
def test_wav_rejects_bad_encodings_and_partial_samples(tmp_path, samples,
                                                       depth, bits, message):
    p = tmp_path / "bad.wav"
    D.save_wav(p, np.zeros(samples, dtype=np.float32), 48000, bitdepth=depth)
    _declare_bits(p, bits)
    for read in (D.load_wav, D.wav_info):
        with pytest.raises(ValueError) as e:
            read(p)
        assert str(e.value) == f"{p}: {message}"


def test_wav_info(tmp_path):
    p = tmp_path / "d.wav"
    D.save_wav(p, np.zeros(321, dtype=np.float32), 22050, bitdepth=16)
    fs, n = D.wav_info(p)
    assert (fs, n) == (22050, 321)


def _write_manifest(tmp_path, entries, fs=48000, name="m.json"):
    doc = {"sample_rate": fs, "entries": entries}
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


def _make_pair(tmp_path, stem, n=100, fs=48000):
    rng = np.random.default_rng(abs(hash(stem)) % 2 ** 31)
    x = (rng.standard_normal(n) * 0.1).astype(np.float32)
    D.save_wav(tmp_path / f"{stem}_in.wav", x, fs)
    D.save_wav(tmp_path / f"{stem}_out.wav", x + 0.01, fs)
    return {"input": f"{stem}_in.wav", "target": f"{stem}_out.wav"}


def test_manifest_load_and_validation(tmp_path):
    e1 = _make_pair(tmp_path, "a")
    e2 = _make_pair(tmp_path, "b")
    e1["controls"] = [0.5, 0.25]
    e2["controls"] = [1.0, 0.0]
    m = D.load_manifest(_write_manifest(tmp_path, [e1, e2]))
    assert len(m) == 2
    assert m.num_controls == 2
    assert m.sample_rate == 48000
    assert np.allclose(m.entries[0].controls, [0.5, 0.25])

    # non-parametric: empty controls everywhere
    m2 = D.load_manifest(_write_manifest(tmp_path, [_make_pair(tmp_path, "c")],
                                         name="m2.json"))
    assert m2.num_controls == 0


def test_manifest_errors(tmp_path):
    good = _make_pair(tmp_path, "g")
    with pytest.raises(ValueError, match="arity"):
        a = dict(good, controls=[0.5])
        b = dict(_make_pair(tmp_path, "h"), controls=[0.5, 0.5])
        D.load_manifest(_write_manifest(tmp_path, [a, b], name="e1.json"))
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        D.load_manifest(_write_manifest(tmp_path, [dict(good, controls=[1.5])],
                                        name="e2.json"))
    with pytest.raises(FileNotFoundError):
        D.load_manifest(_write_manifest(
            tmp_path, [{"input": "nope.wav", "target": "g_out.wav"}],
            name="e3.json"))
    with pytest.raises(ValueError, match="Hz"):
        D.load_manifest(_write_manifest(tmp_path, [good], fs=44100,
                                        name="e4.json"))


def test_manifest_sample_rate_may_be_a_whole_float(tmp_path):
    m = D.load_manifest(_write_manifest(tmp_path, [_make_pair(tmp_path, "w")],
                                        fs=48000.0))
    assert m.sample_rate == 48000 and type(m.sample_rate) is int


def test_segment_counts_and_alignment(tmp_path):
    seg = 50
    entry = _make_pair(tmp_path, "long", n=10 * seg)
    m = D.load_manifest(_write_manifest(tmp_path, [entry]))
    out = D.segment(m, seg_len=seg, fractions=(1.0, 0.0, 0.0))
    assert len(out["train"]) == 10 and not out["val"] and not out["test"]

    out2 = D.segment(m, seg_len=seg, hop=seg // 2, fractions=(1.0, 0.0, 0.0))
    assert len(out2["train"]) == 19

    for s in out2["train"]:
        # target was input + 0.01 at every sample: alignment check
        assert np.allclose(s.y - s.x, 0.01, atol=1e-6)
        assert len(s.x) == seg


def test_segment_split_determinism_and_disjointness(tmp_path):
    entries = [_make_pair(tmp_path, f"e{i}", n=60) for i in range(10)]
    m = D.load_manifest(_write_manifest(tmp_path, entries))
    a = D.segment(m, seg_len=60, fractions=(0.6, 0.2, 0.2), seed=7)
    b = D.segment(m, seg_len=60, fractions=(0.6, 0.2, 0.2), seed=7)
    for split in ("train", "val", "test"):
        assert [s.entry_index for s in a[split]] == \
               [s.entry_index for s in b[split]]
    ta = {s.entry_index for s in a["train"]}
    va = {s.entry_index for s in a["val"]}
    te = {s.entry_index for s in a["test"]}
    assert not (ta & va) and not (ta & te) and not (va & te)
    assert len(ta | va | te) == 10

    c = D.segment(m, seg_len=60, fractions=(0.6, 0.2, 0.2), seed=8)
    assert {s.entry_index for s in c["train"]} != ta  # seed actually matters


def test_segment_errors(tmp_path):
    m = D.load_manifest(_write_manifest(tmp_path,
                                        [_make_pair(tmp_path, "short", n=30)]))
    with pytest.raises(ValueError, match="shorter"):
        D.segment(m, seg_len=100)
    with pytest.raises(ValueError, match="fractions"):
        D.segment(m, seg_len=10, fractions=(0.5, 0.2, 0.2))


def test_atomic_open_interleaved_writes_of_one_path_both_complete(tmp_path):
    # each call writes its own temp file, so the inner write does not
    # truncate the outer one's; the last to close wins, no temp file stays
    p = tmp_path / "run_log.csv"
    with D.atomic_open(p) as first:
        first.write("first\n")
        with D.atomic_open(p) as second:
            second.write("second\n")
        assert p.read_text() == "second\n"
        first.write("more\n")
    assert p.read_text() == "first\nmore\n"
    assert [q.name for q in tmp_path.iterdir()] == ["run_log.csv"]


def test_atomic_open_failure_removes_only_its_own_temp_file(tmp_path):
    p = tmp_path / "checkpoint.json"
    p.write_text("old")
    with D.atomic_open(p) as kept:
        kept.write("new")
        with pytest.raises(RuntimeError):
            with D.atomic_open(p) as failed:
                failed.write("half")
                raise RuntimeError("mid-write")
        assert p.read_text() == "old"
        assert len(list(tmp_path.glob("*.tmp"))) == 1
    assert p.read_text() == "new"
    assert [q.name for q in tmp_path.iterdir()] == ["checkpoint.json"]


def test_atomic_open_gives_the_mode_of_a_plain_open(tmp_path):
    with open(tmp_path / "plain.wav", "wb"):
        pass
    with D.atomic_open(tmp_path / "atomic.wav", "wb") as f:
        f.write(b"RIFF")
    assert ((tmp_path / "atomic.wav").stat().st_mode
            == (tmp_path / "plain.wav").stat().st_mode)
