"""The benchmark tracer patches gradfx by name; every name must resolve.

`perfbench/spans.py` replaces the methods and functions listed in its
tables with timing wrappers, reading a class entry from the class's own
`__dict__`. A refactor that moves or renames a traced method would only
show up in a traced benchmark run; this test makes it fail here.
"""

import inspect
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from gradfx import cli
from gradfx import processors as P
from gradfx import training as tr
from gradfx.data import Segment
from gradfx.models import ModelSpec

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def spans():
    sys.path.insert(0, str(PERFBENCH))
    write_bytecode = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # import it read-only
    try:
        import spans
    finally:
        sys.dont_write_bytecode = write_bytecode
        sys.path.remove(str(PERFBENCH))
    return spans


def test_every_traced_name_resolves(spans):
    missing = []
    for owner, attr, _, _ in spans.STEP_SET + spans.LAYER_SET:
        if isinstance(owner, type):
            ok = attr in owner.__dict__
        else:
            ok = callable(getattr(owner, attr, None))
        if not ok:
            missing.append(f"{owner.__name__}.{attr}")
    assert not missing, missing


def test_eq_span_reads_the_third_positional_argument(spans):
    params = list(inspect.signature(P.ParametricEQ.apply).parameters)
    assert params[:3] == ["self", "x", "g01"]


def test_analyze_records_one_stage_report_span_per_plotted_stage(spans,
                                                                  tmp_path):
    # the benchmark's analysis.stage_report_ms sums these spans; a static
    # gain stage reports its values without a traced call
    model = {"kind": "graybox", "sample_rate": 48000.0, "num_controls": 0,
             "graybox": {"stages": [
                 {"processor": "parametric_eq", "controller": "static"},
                 {"processor": "gain", "controller": "static"},
                 {"processor": "rational", "controller": "dummy"},
                 {"processor": "shelving_eq", "controller": "dynamic"},
             ], "block_size": 128}}
    doc = {"model": model, "train": {"max_steps": 1, "seed": 0},
           "analysis": {"f1": 100.0, "steps": 4, "T": 1.0, "warmup": 0.05},
           "output_dir": "out"}
    (tmp_path / "exp.json").write_text(json.dumps(doc))
    tracer = spans.Tracer(layers=True)
    try:
        assert cli.main(["analyze", "--config",
                         str(tmp_path / "exp.json")]) == 0
    finally:
        tracer.close()
    reports = tracer.find("analysis.stage_report")
    assert len(reports) == 3  # the EQ, the rational curve, the trace
    for s in reports:
        assert s[spans.PHASE] == "analyze"
        assert tracer.spans[s[spans.PARENT]][spans.NAME] == "cli.main"


def test_batch_train_step_records_one_backward_per_segment(spans):
    # tensor.backward_ms and tensor.tape_nodes count one segment per call
    spec = ModelSpec(num_controls=0, tcn={"blocks": 2, "kernel": 3,
                                          "dilation_growth": 2,
                                          "channels": 4})
    model = spec.build(np.random.default_rng(0))
    rng = np.random.default_rng(1)
    batch = []
    for i in range(3):
        x = (0.3 * rng.standard_normal(2048)).astype(np.float32)
        batch.append(Segment(x, np.tanh(x), np.zeros(0), i, 0))
    cfg = tr.TrainConfig()
    opt = tr.Adam(model.parameters(), cfg.lr)
    tracer = spans.Tracer(layers=True)
    try:
        tr.train_step(model, batch, opt, cfg)
    finally:
        tracer.close()
    steps = [i for i, s in enumerate(tracer.spans)
             if s[spans.NAME] == spans.STEP_SPAN]
    assert len(steps) == 1
    step = tracer.spans[steps[0]]
    assert {k: step[spans.EXTRA][k] for k in ("attempted", "applied",
                                              "audio")} == \
        {"attempted": 1, "applied": 1, "audio": 3 * 2048}
    inside = [tracer.spans[i] for i in tracer.descendants(steps[0])]
    backs = [s for s in inside if s[spans.NAME] == "tensor.backward"]
    assert len(backs) == 3
    assert all(s[spans.PHASE] == "train" for s in backs)
    # training.adam_ms reads the update in the train phase: under a tape
    assert [s[spans.PHASE] for s in inside
            if s[spans.NAME] == "training.adam"] == ["train"]
