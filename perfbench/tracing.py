"""Outside-in tracing of acouz: wrap public functions, keep spans in memory.

Nothing under src/ is edited.  `install` replaces each wrapped function in
every loaded acouz module that holds a reference to it (so `from x import f`
copies are covered), methods on their class, and the `scipy.sparse.linalg`
calls of `acouz.acoustic` through a proxy that only that module sees.

A span records name, start, end, parent span, workload, config and, where
they apply, n, N_b and N_trunc.  Hot calls (component lengths, LU solves,
`eigsh`) are only counted.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time
from collections import Counter


class Tracer:
    """Spans and counts of one process, kept in memory until it ends."""

    def __init__(self, workload):
        self.context = {"workload": workload, "config": None}
        self.spans = []
        self.counts = Counter()
        self._stack = []

    @contextlib.contextmanager
    def span(self, name, attrs=None):
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                **self.context, **(attrs or {})}
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()

    def span_wrapper(self, fn, name, attrs=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name, attrs(*args, **kwargs) if attrs else None):
                return fn(*args, **kwargs)
        return wrapper

    def count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper


def _pencil(pencil, *args, **kwargs):
    return {"n": pencil.n, "N_b": pencil.N_b}


def _mesh_n(mesh, *args, **kwargs):
    return {"n": mesh.n_vertices}


def _trace_projection(mesh, spec, N_b):
    return {"n": mesh.n_vertices, "N_b": N_b}


def _contract(tensor, coeffs, N_trunc):
    return {"N_trunc": int(N_trunc)}


def _n_trunc(phi, N_trunc=None, *args, **kwargs):
    return {"N_trunc": N_trunc} if N_trunc is not None else {}


# (module, attribute, span name, span attributes) of every wrapped function.
FUNCTIONS = [
    ("acouz.boundary", "build_curve_spectrum", "boundary.curve_spectrum_s", None),
    ("acouz.boundary", "build_surface_spectrum", "boundary.surface_spectrum_s", None),
    ("acouz.multipliers", "cantor_measure_coeffs", "multipliers.cantor_s", None),
    ("acouz.multipliers", "multiplier_norm", "multipliers.dense_linalg_s", None),
    ("acouz.multipliers", "compactness_profile", "multipliers.dense_linalg_s", None),
    ("acouz.multipliers", "positivity_test", "multipliers.dense_linalg_s", None),
    ("acouz.impedance", "impedance_from_config", "impedance.build_s", None),
    ("acouz.impedance", "multiplier_impedance", "impedance.build_s", _n_trunc),
    ("acouz.impedance", "is_accretive", "impedance.accretivity_s", None),
    ("acouz.fgf", "convergence_classifier", "fgf.classifier_s", None),
    ("acouz.fgf", "sample_random_impedance", "fgf.sample_s", None),
    ("acouz.acoustic", "disk_mesh", "acoustic.mesh_s", None),
    ("acouz.acoustic", "annulus_mesh", "acoustic.mesh_s", None),
    ("acouz.acoustic", "stiffness_matrix", "acoustic.assembly_s", _mesh_n),
    ("acouz.acoustic", "mass_matrix_2d", "acoustic.assembly_s", _mesh_n),
    ("acouz.acoustic", "trace_projection", "acoustic.trace_projection_s",
     _trace_projection),
    ("acouz.acoustic", "solve_pencil", "acoustic.solve_pencil_s", _pencil),
    ("acouz.acoustic", "neumann_scale", "acoustic.neumann_scale_s", _pencil),
    ("acouz.acoustic", "verify_mdissipativity", "acoustic.certificate_s", _pencil),
    ("acouz.acoustic", "_energy_reduction", "acoustic.energy_reduction_s", _pencil),
]
# (module, class, method, span name or, for a counted method, count name,
# span attributes)
METHODS = [
    ("acouz.multipliers", "TripleProductTensor", "contract",
     "multipliers.contract_s", _contract),
    ("acouz.boundary", "BoundarySpectrum", "dump_npz", "harness.spectrum_cache_s", None),
    ("acouz.boundary", "BoundarySpectrum", "load_npz", "harness.spectrum_cache_s", None),
]
COUNTED_METHODS = [
    ("acouz.boundary", "BoundaryGeometry", "component_lengths",
     "boundary.component_lengths_calls"),
]
LU_SOLVES = "acoustic.lu_solves"
EIGSH_CALLS = "acoustic.eigsh_calls"


class _Factor:
    """A SuperLU factor whose solves are counted."""

    def __init__(self, lu, counts):
        self._lu = lu
        self._counts = counts

    def solve(self, *args, **kwargs):
        self._counts[LU_SOLVES] += 1
        return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _SparseLinalg:
    """`scipy.sparse.linalg` as `acouz.acoustic` sees it while traced."""

    def __init__(self, spla, tracer):
        self._spla = spla
        self._tracer = tracer
        self.eigs = tracer.span_wrapper(spla.eigs, "acoustic.eigs_s")
        self.eigsh = tracer.count_wrapper(spla.eigsh, EIGSH_CALLS)

    def splu(self, A, *args, **kwargs):
        with self._tracer.span("acoustic.splu_s", {"n": A.shape[0]}) as span:
            lu = self._spla.splu(A, *args, **kwargs)
        span["lu_nnz"] = lu.L.nnz + lu.U.nnz
        return _Factor(lu, self._tracer.counts)

    def __getattr__(self, name):
        return getattr(self._spla, name)


def _replace_everywhere(original, replacement):
    for name, module in list(sys.modules.items()):
        if name == "acouz" or name.startswith("acouz."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer):
    """Wrap every traced acouz function for the rest of this process."""
    for module, attr, name, attrs in FUNCTIONS:
        fn = getattr(sys.modules[module], attr)
        _replace_everywhere(fn, tracer.span_wrapper(fn, name, attrs))
    for module, cls_name, attr, name, attrs in METHODS:
        cls = getattr(sys.modules[module], cls_name)
        raw = vars(cls)[attr]
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.span_wrapper(raw.__func__, name, attrs)))
        else:
            setattr(cls, attr, tracer.span_wrapper(raw, name, attrs))
    for module, cls_name, attr, name in COUNTED_METHODS:
        cls = getattr(sys.modules[module], cls_name)
        setattr(cls, attr, tracer.count_wrapper(vars(cls)[attr], name))
    acoustic = sys.modules["acouz.acoustic"]
    acoustic.spla = _SparseLinalg(acoustic.spla, tracer)


# ---------------------------------------------------------------------------
# per-layer metrics from one traced repetition
# ---------------------------------------------------------------------------

SELF_TIME = {"multipliers.dense_linalg_s"}
CALLS = {"multipliers.contract_calls": "multipliers.contract_s",
         "acoustic.solve_pencil_calls": "acoustic.solve_pencil_s",
         "acoustic.splu_calls": "acoustic.splu_s"}
# Mean seconds per call at each problem size: (metric, size attribute).
CURVES = [("acoustic.solve_pencil_s", "n"), ("acoustic.certificate_s", "n"),
          ("multipliers.contract_s", "N_trunc")]


def layer_metrics(spans, counts):
    """Seconds per layer, call counts and per-size curves of one repetition.

    A layer's time sums its outermost spans, so a wrapped function calling
    another of the same layer is not counted twice; the dense linear algebra
    of the multiplier profile is self time, its contractions excluded.
    `acoustic.lu_nnz` sums nnz(L) + nnz(U) over every factor, and a curve
    point `<metric>.n<n>` or `<metric>.N<N>` is the mean time of one call
    at that size.
    """
    by_id = {s["id"]: s for s in spans}
    child_time = Counter()
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def nested_in_same(s):
        p = s["parent"]
        while p is not None:
            if by_id[p]["name"] == s["name"]:
                return True
            p = by_id[p]["parent"]
        return False

    out = Counter(counts)
    sizes = {}
    for s in spans:
        dur = s["end"] - s["start"]
        if s["name"] in SELF_TIME:
            out[s["name"]] += dur - child_time[s["id"]]
        elif not nested_in_same(s):
            out[s["name"]] += dur
        out["acoustic.lu_nnz"] += s.get("lu_nnz", 0)
        for metric, key in CURVES:
            if s["name"] == metric and key in s:
                sizes.setdefault(f"{metric}.{key[0]}{s[key]}", []).append(dur)
    for calls, metric in CALLS.items():
        out[calls] = sum(1 for s in spans if s["name"] == metric)
    for name, durations in sizes.items():
        out[name] = statistics.fmean(durations)
    return dict(out)


def check_nesting(spans):
    """Spans that do not lie inside their parent span; [] when all do."""
    by_id = {s["id"]: s for s in spans}
    return [s for s in spans if s["parent"] is not None
            and not (by_id[s["parent"]]["start"] <= s["start"]
                     <= s["end"] <= by_id[s["parent"]]["end"])]
