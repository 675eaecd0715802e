"""Dataset ingestion: mono WAV files, JSON manifests, segmentation.

WAV support is deliberately narrow: RIFF, mono, PCM 16/24-bit or IEEE
float32. Everything is normalized to [-1, 1] on load. Controls live in
the manifest already normalized to [0, 1]; what they mean physically is
the model's business.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager

import numpy as np


@contextmanager
def atomic_open(path, mode: str = "w"):
    """Open a temp file next to path, for writing in mode "w" or "wb"; a
    clean exit moves it over path in one os.replace, so a crash mid-write
    leaves the previous file whole. Each call has its own temp name,
    created exclusively with the mode a plain open gives, so writers of
    one path do not share a temp file: the last to close wins. On failure
    only this call's temp file is removed. The directory is made here, at
    the first write into it."""
    tmp = f"{os.fspath(path)}.{os.urandom(6).hex()}.tmp"
    os.makedirs(os.path.dirname(tmp) or ".", exist_ok=True)
    f = open(tmp, mode.replace("w", "x"))
    try:
        with f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# -- WAV ---------------------------------------------------------------------

_FMT_PCM = 1
_FMT_FLOAT = 3
_FMT_EXTENSIBLE = 0xFFFE
_ENCODINGS = ((_FMT_PCM, 16), (_FMT_PCM, 24), (_FMT_FLOAT, 32))


def _walk_chunks(buf: bytes):
    pos = 12
    while pos + 8 <= len(buf):
        cid, size = struct.unpack_from("<4sI", buf, pos)
        body = buf[pos + 8:pos + 8 + size]
        yield cid, body
        pos += 8 + size + (size & 1)  # chunks are word-aligned


def _parse_fmt(body: bytes):
    if len(body) < 16:
        raise ValueError("fmt chunk too short")
    fmt, channels, fs, _rate, _align, bits = struct.unpack_from("<HHIIHH", body, 0)
    if fmt == _FMT_EXTENSIBLE and len(body) >= 26:
        fmt = struct.unpack_from("<H", body, 24)[0]
    return fmt, channels, fs, bits


def _decode(data: bytes, bits: int) -> np.ndarray:
    """Samples of one of _ENCODINGS, told apart by their width."""
    if bits == 32:
        return np.frombuffer(data, dtype="<f4").copy()
    if bits == 16:
        raw = np.frombuffer(data, dtype="<i2")
        return (raw.astype(np.float32) / 32768.0)
    b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
    val = (b[:, 0].astype(np.int32)
           | (b[:, 1].astype(np.int32) << 8)
           | (b[:, 2].astype(np.int32) << 16))
    val = np.where(val & 0x800000, val - 0x1000000, val)
    return (val.astype(np.float32) / 8388608.0)


def _read_wav(path):
    """((sample rate, bits), payload bytes) of a mono WAV file in one of
    _ENCODINGS whose payload holds a whole number of samples."""
    with open(path, "rb") as f:
        buf = f.read()
    if len(buf) < 12 or buf[:4] != b"RIFF" or buf[8:12] != b"WAVE":
        raise ValueError(f"{path}: not a RIFF/WAVE file")
    fmt = None
    data = None
    for cid, body in _walk_chunks(buf):
        if cid == b"fmt ":
            fmt = _parse_fmt(body)
        elif cid == b"data":
            data = body
    if fmt is None or data is None:
        raise ValueError(f"{path}: missing fmt or data chunk")
    kind, channels, fs, bits = fmt
    if channels != 1:
        raise ValueError(f"{path}: {channels} channels, only mono is supported")
    if (kind, bits) not in _ENCODINGS:
        raise ValueError(f"{path}: unsupported WAV encoding: format {kind}, "
                         f"{bits}-bit")
    if len(data) % (bits // 8):
        raise ValueError(f"{path}: data chunk of {len(data)} bytes is not a "
                         f"whole number of {bits}-bit samples")
    return (fs, bits), data


def load_wav(path) -> tuple[np.ndarray, int]:
    """Mono WAV -> (float32 samples in [-1, 1], sample rate)."""
    (fs, bits), data = _read_wav(path)
    return _decode(data, bits), fs


def wav_info(path) -> tuple[int, int]:
    """(sample_rate, num_samples) without decoding the payload."""
    (fs, bits), data = _read_wav(path)
    return fs, len(data) // (bits // 8)


def save_wav(path, samples, fs: int, bitdepth="float32") -> None:
    """Write mono WAV. bitdepth: 16, 24, or "float32" (bit-exact reload)."""
    samples = np.asarray(samples)
    if samples.ndim != 1:
        raise ValueError("save_wav writes mono 1-D signals")
    if bitdepth == "float32":
        payload = samples.astype("<f4").tobytes()
        fmt, bits = _FMT_FLOAT, 32
    elif bitdepth == 16:
        q = np.clip(np.round(samples * 32768.0), -32768, 32767).astype("<i2")
        payload = q.tobytes()
        fmt, bits = _FMT_PCM, 16
    elif bitdepth == 24:
        q = np.clip(np.round(samples * 8388608.0), -8388608, 8388607).astype(np.int32)
        b = np.empty((len(q), 3), dtype=np.uint8)
        b[:, 0] = q & 0xFF
        b[:, 1] = (q >> 8) & 0xFF
        b[:, 2] = (q >> 16) & 0xFF
        payload = b.tobytes()
        fmt, bits = _FMT_PCM, 24
    else:
        raise ValueError(f"unsupported bitdepth {bitdepth!r}")
    block = bits // 8
    header = struct.pack("<4sI4s", b"RIFF", 36 + len(payload), b"WAVE")
    fmt_chunk = struct.pack("<4sIHHIIHH", b"fmt ", 16, fmt, 1, fs,
                            fs * block, block, bits)
    data_hdr = struct.pack("<4sI", b"data", len(payload))
    with atomic_open(path, "wb") as f:
        f.write(header + fmt_chunk + data_hdr + payload)
        if len(payload) & 1:
            f.write(b"\x00")


# -- manifests ---------------------------------------------------------------

class ManifestEntry:
    def __init__(self, input_path: str, target_path: str, controls):
        self.input_path = input_path
        self.target_path = target_path
        self.controls = np.asarray(controls, dtype=np.float32)


class RunManifest:
    """Paired audio files plus normalized control settings."""

    def __init__(self, entries, sample_rate: int):
        if not entries:
            raise ValueError("manifest has no entries")
        self.entries = list(entries)
        self.sample_rate = int(sample_rate)
        arity = {len(e.controls) for e in self.entries}
        if len(arity) != 1:
            raise ValueError(f"entries disagree on controls arity: {sorted(arity)}")
        self.num_controls = arity.pop()

    def __len__(self):
        return len(self.entries)


def _is_number(v) -> bool:
    """A finite JSON number: not a bool, a string, NaN or an infinity."""
    return type(v) is int or type(v) is float and math.isfinite(v)


def load_manifest(path) -> RunManifest:
    """Parse and validate a manifest; relative paths resolve next to it."""
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict) or "sample_rate" not in doc \
            or "entries" not in doc:
        raise ValueError("manifest needs sample_rate and entries")
    fs = doc["sample_rate"]
    if not (_is_number(fs) and fs > 0 and fs == int(fs)):
        raise ValueError(f"sample_rate must be a whole number of Hz > 0, "
                         f"got {fs!r}")
    if not isinstance(doc["entries"], list):
        raise ValueError(f"entries must be a list, got {doc['entries']!r}")
    root = os.path.dirname(os.path.abspath(path))
    entries = []
    for i, e in enumerate(doc["entries"]):
        if not isinstance(e, dict):
            raise ValueError(f"entry {i}: expected an object, got {e!r}")
        controls = e.get("controls", [])
        if not isinstance(controls, list) or not all(map(_is_number,
                                                         controls)):
            raise ValueError(f"entry {i}: controls must be a list of "
                             f"numbers, got {controls!r}")
        if any(not (0.0 <= v <= 1.0) for v in controls):
            raise ValueError(f"entry {i}: controls must lie in [0, 1]")
        pair = []
        for key in ("input", "target"):
            if key not in e:
                raise ValueError(f"entry {i}: missing {key!r}")
            p = e[key]
            if not isinstance(p, str):
                raise ValueError(f"entry {i}: {key} must be a path, got {p!r}")
            if not os.path.isabs(p):
                p = os.path.join(root, p)
            if not os.path.exists(p):
                raise FileNotFoundError(f"entry {i}: {p} does not exist")
            try:
                file_fs, _ = wav_info(p)
            except OSError as err:
                raise ValueError(f"entry {i}: cannot read {p}: "
                                 f"{err.strerror or err}") from None
            if file_fs != fs:
                raise ValueError(f"entry {i}: {p} is {file_fs} Hz, manifest "
                                 f"says {fs}")
            pair.append(p)
        entries.append(ManifestEntry(pair[0], pair[1], controls))
    return RunManifest(entries, int(fs))


# -- segmentation ------------------------------------------------------------

class Segment:
    """One training example: aligned (x, y) windows plus the control vector."""

    def __init__(self, x, y, controls, entry_index: int, offset: int):
        if len(x) != len(y):
            raise ValueError("segment input/target lengths differ")
        self.x = x
        self.y = y
        self.controls = controls
        self.entry_index = entry_index
        self.offset = offset


def split_entries(n: int, fractions=(0.8, 0.1, 0.1), seed: int = 0):
    """Entry indices per split; disjoint, deterministic under the seed."""
    if abs(sum(fractions) - 1.0) > 1e-9 or len(fractions) != 3:
        raise ValueError("need (train, val, test) fractions summing to 1")
    order = np.random.default_rng(seed).permutation(n)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    return (order[:n_train].tolist(),
            order[n_train:n_train + n_val].tolist(),
            order[n_train + n_val:].tolist())


def segment(manifest: RunManifest, seg_len: int = 48000,
            hop: int | None = None, fractions=(0.8, 0.1, 0.1),
            seed: int = 0) -> dict:
    """Cut every entry into aligned windows; split train/val/test by entry.

    Splitting is at the file level on purpose: windows of one recording
    are strongly correlated, so sharing a file across splits would leak.
    """
    hop = seg_len if hop is None else hop
    if hop < 1 or seg_len < 1:
        raise ValueError("seg_len and hop must be positive")
    tr, va, te = split_entries(len(manifest), fractions, seed)
    out = {"train": [], "val": [], "test": []}
    for name, indices in (("train", tr), ("val", va), ("test", te)):
        for idx in sorted(indices):
            e = manifest.entries[idx]
            x, _ = load_wav(e.input_path)
            y, _ = load_wav(e.target_path)
            if len(x) != len(y):
                raise ValueError(f"entry {idx}: input and target lengths differ "
                                 f"({len(x)} vs {len(y)})")
            if len(x) < seg_len:
                raise ValueError(f"entry {idx}: file shorter than seg_len "
                                 f"({len(x)} < {seg_len})")
            for off in range(0, len(x) - seg_len + 1, hop):
                out[name].append(Segment(x[off:off + seg_len],
                                         y[off:off + seg_len],
                                         e.controls, idx, off))
    return out
