"""Every name the benchmark's tracer wraps still exists in acouz.

`perfbench/tracing.py` wraps acouz functions and methods by name, so a
rename under src/ would break `perfbench/run.py --trace 1` without failing
any other test.  The lists are read from the tracer itself.
"""

import importlib
import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attr", [(m, a) for m, a, *_ in tracing.FUNCTIONS])
def test_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))


@pytest.mark.parametrize("module, cls_name, attr", [
    (m, c, a) for m, c, a, *_ in tracing.METHODS + tracing.COUNTED_METHODS])
def test_method_defined_on_class(module, cls_name, attr):
    cls = getattr(importlib.import_module(module), cls_name)
    # install() reads vars(cls)[attr]: the method must be the class's own
    assert attr in vars(cls)
