"""The benchmark's per-layer tracer wraps library names it cannot check itself."""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _wrapped():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", _TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.WRAPPED


@pytest.mark.parametrize("module_path,class_name,attr,layer", _wrapped())
def test_every_traced_name_exists(module_path, class_name, attr, layer):
    # `--trace 1` looks each one up in its owner's own namespace and fails
    # with a KeyError if a rename or removal left the tracer behind
    owner = importlib.import_module(module_path)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert attr in vars(owner), f"layer {layer}: {attr} is gone from {owner.__name__}"
