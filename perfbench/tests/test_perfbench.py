"""Self-tests of the benchmark, on shrunken copies of the workloads.

    python3 -m pytest -q perfbench/tests

Each run here keeps every phase of the real workload but with the
fewest steps, repeats and samples that still exercise it.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import bench  # noqa: E402
import run  # noqa: E402
import spans as S  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def shrunk(name):
    wl = copy.deepcopy(workloads.WORKLOADS[name])
    wl.train.update(max_steps=2, validate_every=1)
    wl.min_steps = 1
    wl.setup_reps = wl.rounds = 1
    wl.render_seconds = 0.1
    return wl


def run_main(monkeypatch, capsys, wl, seed=1, trace=0):
    monkeypatch.setitem(workloads.WORKLOADS, wl.name, wl)
    rc = run.main(["--workload", wl.name, "--seed", str(seed),
                   "--seconds", "0", "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    return rc, out, json.loads(out[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_minimal_run_prints_every_metric_with_unit(monkeypatch, capsys,
                                                   name):
    rc, lines, result = run_main(monkeypatch, capsys, shrunk(name))
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(line.split()[:1] == [m["name"]]
                   and m["unit"] in line.split() for line in lines)
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_corrupted_render_is_caught(monkeypatch, capsys):
    real = bench.run_cli

    def corrupting(argv):
        rc, err = real(argv)
        if argv[0] == "render":
            out = Path(argv[argv.index("--config") + 1]).parent / "out" \
                / argv[argv.index("--output") + 1]
            buf = bytearray(out.read_bytes())
            buf[-3] ^= 0x01  # one mantissa bit of the last sample
            out.write_bytes(bytes(buf))
        return rc, err

    monkeypatch.setattr(bench, "run_cli", corrupting)
    rc, lines, result = run_main(monkeypatch, capsys, shrunk("graybox"))
    assert rc != 0
    assert not result["correct"] and result["failed"] == 1
    assert any("FAILED render" in line for line in lines)


def test_tape_nodes_repeat_exactly(monkeypatch, capsys):
    counts = []
    for seed in (1, 2):
        rc, _, result = run_main(monkeypatch, capsys, shrunk("graybox"),
                                 seed=seed, trace=1)
        assert rc == 0
        counts.append(result["metrics"]["tensor.tape_nodes"]["value"])
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_layer_self_times_cover_the_step(tmp_path, name):
    wl = shrunk(name)
    res = bench.run_workload(wl, 1, 0.0, True, tmp_path, ROOT / "src")
    tracer = res["trace"]
    per_step = {(n, ph) for n, ph, how in S.LAYER_METRICS.values()
                if how in ("step", "update", "call")}
    selft = tracer.self_times()
    step = next(i for i, s in enumerate(tracer.spans)
                if s[S.NAME] == S.STEP_SPAN)
    covered = sum(selft[i] for i in tracer.descendants(step)
                  if (tracer.spans[i][S.NAME], tracer.spans[i][S.PHASE])
                  in per_step)
    span = tracer.spans[step][S.END] - tracer.spans[step][S.START]
    assert abs(covered - span) <= 0.05 * span
