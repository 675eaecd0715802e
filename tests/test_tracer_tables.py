"""The benchmark tracer patches gradfx by name; every name must resolve.

`perfbench/spans.py` replaces the methods and functions listed in its
tables with timing wrappers, reading a class entry from the class's own
`__dict__`. A refactor that moves or renames a traced method would only
show up in a traced benchmark run; this test makes it fail here.
"""

import inspect
import sys
from pathlib import Path

import pytest

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
