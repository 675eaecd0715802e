"""The three workloads: one per model family, each a full user path.

Sizes are fixed here, never derived from timings, so every run of a
workload does the same work apart from the number of extra train steps
sampled to fill `--seconds`. Why each workload exists and what it is
expected to show is in BENCHMARK.json and README.md.
"""

from __future__ import annotations

FS = 48000.0

_EQ_CHAIN = [
    {"processor": "parametric_eq", "controller": "static"},
    {"processor": "gain", "controller": "static"},
    {"processor": "dc_offset", "controller": "static"},
    {"processor": "rational", "controller": "dummy"},
    {"processor": "gain", "controller": "static"},
    {"processor": "parametric_eq", "controller": "dynamic"},
]


class Workload:
    def __init__(self, name, model, train, sweep, *, seg_len, files,
                 file_len, fractions, drives, render_seconds, rounds,
                 min_steps, setup_reps=5):
        self.name = name
        self.model = model
        self.train = train
        self.sweep = sweep
        self.seg_len = seg_len
        self.files = files
        self.file_len = file_len
        self.fractions = fractions
        self.drives = drives
        self.render_seconds = render_seconds
        self.rounds = rounds  # each: more steps, one render, one analyze
        self.min_steps = min_steps
        self.setup_reps = setup_reps

    @property
    def num_controls(self) -> int:
        return self.model.get("num_controls", 0)


WORKLOADS = {
    "graybox": Workload(
        "graybox",
        {"kind": "graybox", "sample_rate": FS, "num_controls": 0,
         "graybox": {"stages": _EQ_CHAIN, "block_size": 128}},
        {"max_steps": 40, "batch_size": 1, "lr": 1e-3, "validate_every": 20,
         "seed": 0},
        {"f1": 100.0, "f2": 12000.0, "steps": 4, "T": 1.0, "warmup": 0.05},
        seg_len=4096, files=10, file_len=6 * 4096, fractions=(0.7, 0.2, 0.1),
        drives=(0.5,), render_seconds=6.0, rounds=5, min_steps=100),
    "tcn_film": Workload(
        "tcn_film",
        {"kind": "tcn", "sample_rate": FS, "num_controls": 1,
         "tcn": {"blocks": 5, "kernel": 7, "dilation_growth": 4,
                 "channels": 16, "cond": "film"}},
        {"max_steps": 20, "batch_size": 4, "lr": 1e-3, "validate_every": 10,
         "seed": 0},
        {"f1": 100.0, "f2": 12000.0, "steps": 8, "T": 1.0, "warmup": 0.05},
        seg_len=4096, files=10, file_len=6 * 4096, fractions=(0.7, 0.2, 0.1),
        drives=(0.0, 0.25, 0.5, 0.75, 1.0), render_seconds=6.0, rounds=5,
        min_steps=100),
    "lstm_tbptt": Workload(
        "lstm_tbptt",
        {"kind": "lstm", "sample_rate": FS, "num_controls": 0,
         "lstm": {"hidden": 32, "cond_mode": "none"}},
        {"max_steps": 2, "batch_size": 1, "lr": 1e-3, "validate_every": 2,
         "seed": 0, "tbptt": True, "chunk_len": 2048, "warmup_len": 1000},
        {"f1": 100.0, "f2": 4000.0, "steps": 2, "T": 1.0, "warmup": 0.0},
        seg_len=1000 + 2 * 2048, files=5, file_len=2 * (1000 + 2 * 2048),
        fractions=(0.6, 0.2, 0.2), drives=(0.5,), render_seconds=0.5,
        rounds=3, min_steps=5),
}
