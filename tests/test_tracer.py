"""The benchmark's span tracer times public functions by name; each name it
lists must exist, or the traced benchmark run is the first to notice."""

import importlib
import importlib.util

import pytest

from tests.conftest import REPO_ROOT

_spec = importlib.util.spec_from_file_location("tracer", REPO_ROOT / "benchmarks" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("metric", sorted(tracer.LAYERS))
def test_every_traced_function_exists(metric):
    module_name, names = tracer.LAYERS[metric]
    module = importlib.import_module(module_name)
    assert names
    for name in names:
        assert callable(getattr(module, name, None)), f"{module_name}.{name}"
