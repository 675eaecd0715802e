"""Seeded synthetic device data, written as the files gradfx reads.

The device is a lowpassed tanh clipper: a 2nd-order Butterworth lowpass
at 2 kHz followed by tanh with a drive gain of 0..24 dB set by one
normalized control. The seed picks the programs of the validation and
test files and of the render input. The training files, the device, the
file layout and the model initialisation do not depend on it: every
seed trains along the same path, so `val_esr` differs between seeds
only by the held-out audio it is measured on, and a change to training
numerics shows as a change of `val_esr` rather than as seed noise.

WAV files are written here, not by gradfx, in a rotating mix of 16-bit,
24-bit and float32 encodings. `Corpus.pairs` holds each file's samples
as a correct reader must decode them, so outputs can be checked against
data gradfx never touched.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np
from scipy import signal

from gradfx.data import split_entries

FS = 48000
FORMATS = ("pcm16", "pcm24", "float32")
LOWPASS = signal.butter(2, 2000.0, fs=FS, output="sos")
TRAIN_STREAM = 2**32 - 1  # seed-independent stream of the training files


def program(rng: np.random.Generator, n: int) -> np.ndarray:
    """1/f-tilted noise plus modulated tones under a 4 Hz envelope.

    Only noise and phases are random. Tone frequencies and the envelope
    rate are fixed, and the envelope cycles within every segment, so
    level and spectrum hold steady from seed to seed.
    """
    white = rng.standard_normal(n)
    f = np.fft.rfftfreq(n, 1.0 / FS)
    pink = np.fft.irfft(np.fft.rfft(white) / np.sqrt(np.maximum(f, 40.0)), n)
    pink *= 0.25 / pink.std()
    t = np.arange(n) / FS
    tones = np.zeros(n)
    for k, f0 in enumerate((110.0, 220.0, 550.0, 1100.0)):
        am = np.sin(2 * np.pi * (3.0 + k) * t + rng.uniform(0, 6.3)) ** 2
        tones += 0.06 * am * np.sin(2 * np.pi * f0 * t + rng.uniform(0, 6.3))
    env = 0.4 + 0.6 * np.sin(2 * np.pi * 6.0 * t + rng.uniform(0, 6.3)) ** 2
    return np.clip(env * (pink + tones), -1.0, 1.0)


def device(x: np.ndarray, drive01: float) -> np.ndarray:
    gain = 10.0 ** (24.0 * drive01 / 20.0)
    return np.tanh(gain * signal.sosfilt(LOWPASS, x))


def quantize(x: np.ndarray, fmt: str) -> np.ndarray:
    """Samples exactly as a correct reader decodes them (float32)."""
    if fmt == "pcm16":
        q = np.clip(np.round(x * 32768.0), -32768, 32767)
        return q.astype(np.float32) / np.float32(32768.0)
    if fmt == "pcm24":
        q = np.clip(np.round(x * 8388608.0), -8388608, 8388607)
        return q.astype(np.float32) / np.float32(8388608.0)
    return x.astype(np.float32)


def write_wav(path: Path, x: np.ndarray, fmt: str) -> None:
    """Mono RIFF/WAVE in one of FORMATS; `x` must already be quantized."""
    if fmt == "pcm16":
        payload = np.round(x.astype(np.float64) * 32768.0).astype("<i2").tobytes()
        code, bits = 1, 16
    elif fmt == "pcm24":
        q = np.round(x.astype(np.float64) * 8388608.0).astype("<i4")
        payload = q.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
        code, bits = 1, 24
    else:
        payload = x.astype("<f4").tobytes()
        code, bits = 3, 32
    block = bits // 8
    head = struct.pack("<4sI4s4sIHHIIHH4sI", b"RIFF", 36 + len(payload),
                       b"WAVE", b"fmt ", 16, code, 1, FS, FS * block, block,
                       bits, b"data", len(payload))
    path.write_bytes(head + payload + (b"\x00" if len(payload) & 1 else b""))


def read_float32_wav(path: Path) -> np.ndarray:
    """Payload of a float32 WAV as written by `gradfx render`."""
    buf = Path(path).read_bytes()
    if buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    pos, fmt, data = 12, None, None
    while pos + 8 <= len(buf):
        cid, size = struct.unpack_from("<4sI", buf, pos)
        if cid == b"fmt ":
            fmt = struct.unpack_from("<HHIIHH", buf, pos + 8)
        elif cid == b"data":
            data = buf[pos + 8:pos + 8 + size]
        pos += 8 + size + (size & 1)
    if fmt is None or data is None or fmt[0] != 3 or fmt[5] != 32:
        raise ValueError(f"{path}: not a float32 WAV")
    return np.frombuffer(data, dtype="<f4").copy()


class Corpus:
    """Files of one workload: manifest, experiment JSON, render input."""

    def __init__(self, root: Path, config: Path, pairs: list,
                 render_input: Path, render_x: np.ndarray,
                 render_controls: list):
        self.root = root
        self.config = config
        self.pairs = pairs  # manifest order: (x, y, controls) as decoded
        self.render_input = render_input
        self.render_x = render_x
        self.render_controls = render_controls


def make_corpus(root: Path, wl, seed: int) -> Corpus:
    """Write the workload's WAV pairs, manifest and experiment config."""
    root.mkdir(parents=True, exist_ok=True)
    pairs = []
    entries = []
    train = set(split_entries(wl.files, wl.fractions, seed=0)[0])
    for i in range(wl.files):
        rng = np.random.default_rng([i, TRAIN_STREAM] if i in train
                                    else [seed, i])
        drive = wl.drives[i % len(wl.drives)]
        x = program(rng, wl.file_len)
        entry = {}
        decoded = []
        for role, sig, fmt in (("input", x, FORMATS[i % 3]),
                               ("target", device(x, drive),
                                FORMATS[(i + 1) % 3])):
            q = quantize(sig, fmt)
            path = root / f"{i:02d}_{role}_{fmt}.wav"
            write_wav(path, q, fmt)
            decoded.append(q)
            entry[role] = path.name
        controls = [drive] if wl.num_controls else []
        if controls:
            entry["controls"] = controls
        entries.append(entry)
        pairs.append((decoded[0], decoded[1], controls))
    (root / "manifest.json").write_text(json.dumps(
        {"sample_rate": FS, "entries": entries}))

    render_len = int(round(wl.render_seconds * FS))
    xr = quantize(program(np.random.default_rng([seed, 10_000]), render_len),
                  "pcm24")
    render_input = root / "render_in.wav"
    write_wav(render_input, xr, "pcm24")

    config = root / "experiment.json"
    config.write_text(json.dumps({
        "model": wl.model,
        "data": {"manifest": "manifest.json", "segment_len": wl.seg_len,
                 "hop": wl.seg_len, "fractions": list(wl.fractions),
                 "seed": 0},
        "train": wl.train,
        "analysis": wl.sweep,
        "output_dir": "out",
    }, indent=1))
    return Corpus(root, config, pairs, render_input, xr,
                  [0.5] * wl.num_controls)
