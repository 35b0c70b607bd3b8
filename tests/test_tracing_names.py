"""Every name the benchmark's tracer wraps still exists in acouz, and a
traced run records its spans.

`perfbench/tracing.py` wraps acouz functions and methods by name and reads
their arguments for span attributes, so a rename or a signature change
under src/ would break `perfbench/run.py --trace 1` without failing any
other test.  The lists are read from the tracer itself.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

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


SMOKE = """
import json, sys, tempfile
import acouz.harness as harness
import tracing

tracer = tracing.Tracer("smoke")
tracing.install(tracer)
configs = [
    {"experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.3},
     "params": {"impedance": {"kind": "constant", "z0": 1.0}}},
    {"experiment": "weyl", "geometry": {"kind": "sphere", "subdivisions": 3},
     "params": {"N": 40}},
]
failed = []
with tempfile.TemporaryDirectory() as out:
    for i, cfg in enumerate(configs):
        manifest = harness.run(harness.ExperimentConfig.from_dict(cfg), f"{out}/{i}")
        failed.append([a for a in manifest.assertions if not a["passed"]])
spans = [{"name": s["name"], "n": s.get("n")} for s in tracer.spans]
json.dump({"failed": failed, "spans": spans}, sys.stdout)
"""


def test_tracer_runs_acoustic_and_surface_spectra():
    # `perfbench/run.py --trace 1` in small: the wrapped functions must accept
    # what the package passes them, or a span attribute function such as
    # `_mesh_n` or `_pencil` raises mid-run
    root = os.path.join(os.path.dirname(__file__), os.pardir)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(root, "src"), os.path.join(root, "perfbench")]),
        "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, "-c", SMOKE], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["failed"] == [[], []]
    spans = out["spans"]
    for name in ("acoustic.assembly_s", "acoustic.trace_projection_s",
                 "acoustic.neumann_scale_s", "acoustic.solve_pencil_s",
                 "acoustic.certificate_s"):
        ns = [s["n"] for s in spans if s["name"] == name]
        assert ns and all(isinstance(n, int) and n > 0 for n in ns), name
    assert any(s["name"] == "boundary.surface_spectrum_s" for s in spans)
