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

import pytest

from gradfx import cli
from gradfx import processors as P

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
