"""The benchmark's tracer wraps library functions by name; a rename in the
library must fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import pytest

import clausegraph.learner

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


@pytest.mark.parametrize("span, module, path",
                         [pytest.param(*entry, id=entry[0]) for entry in _traced()])
def test_traced_name_resolves(span, module, path):
    obj = importlib.import_module(f"clausegraph.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj), span


def test_coverage_span_name_resolves():
    # the tracer wraps the learner's own ``member`` name for its coverage span
    assert callable(clausegraph.learner.member)
