"""`scripts/bench_summary.py` pairs perfbench results by workload and seed."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_summary.py"
BASE = {"setup_s": 0.1, "train_step_p50_ms": 20.0, "train_audio_per_s": 3.5,
        "val_esr": 0.5, "train_peak_mb": 20.0, "render_rtf": 8.0,
        "analyze_s": 0.4}


def _module():
    spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _write_run(root, seed, **metrics):
    run = root / ".perfbench_runs" / f"graybox-seed{seed}-trace0"
    run.mkdir(parents=True)
    env = {"git_revision": None, "python": "3.11", "numpy": "2.4", "nproc": 2,
           "blas_threads_reported": 1}
    values = {**BASE, **metrics}
    run.joinpath("result.json").write_text(json.dumps({
        "workload": "graybox", "seed": seed, "seconds": 10.0, "trace": 0,
        "env": env, "failures": [],
        "metrics": {k: {"value": v} for k, v in values.items()}}))


def test_medians_wins_gain_and_bound(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed in range(1, 11):
        _write_run(parent, seed, render_rtf=8.0 + 0.1 * seed,
                   train_step_p50_ms=20.0 + 0.1 * seed)
        # renders 4x faster in every pair but one; train steps 30% slower
        _write_run(change, seed, render_rtf=7.0 if seed == 3 else 32.0,
                   train_step_p50_ms=26.0 + 0.1 * seed)
    _write_run(change, 11)  # no parent partner: left out
    out = _module().summarize(parent, change)
    wl = out["workloads"]["graybox"]
    assert wl["seeds"] == list(range(1, 11))
    rtf = wl["metrics"]["render_rtf"]
    assert rtf["parent"]["median"] == pytest.approx(8.55)
    assert rtf["change"]["median"] == 32.0
    assert (rtf["change_wins"], rtf["pairs"]) == (9, 10)
    assert rtf["gain_counts"] and rtf["within_bound"]
    step = wl["metrics"]["train_step_p50_ms"]
    assert step["change_wins"] == 0
    assert not step["gain_counts"] and not step["within_bound"]
    esr = wl["metrics"]["val_esr"]
    assert esr["change_wins"] == 0 and esr["within_bound"]  # ties count for neither
    assert out["env"]["numpy"] == ["2.4"] and out["env"]["nproc"] == ["2"]
