"""Workloads of the acouz benchmark and the value checks on their outputs.

A workload is a list of ops.  Each op is one `acouz run <config>` call; the
workload seed reaches every config through `--seed`.  Ops marked
``timed=False`` run after the timed ones and stay out of `run_s`.

Every workload makes one layer do most of the work and bypasses the layers
the others stress, so a change to one layer shows on one workload and
leaves the others flat:

* ``multiplier``: triple-product contraction (no FEM, LU, ARPACK or
  certificate work);
* ``acoustic``: the dense m-dissipativity certificate over three meshes,
  the annulus taking the multi-component trace path;
* ``monte_carlo``: sparse LU and ARPACK per sample, at two sizes n, on both
  sides of the real-spectrum dichotomy;
* ``spectra``: the only workload that runs `build_surface_spectrum` and the
  field classifier.
"""

from __future__ import annotations

import csv
import json
import math
import os

# Checks by value against references.json.  Each tolerance is relative to
# max(|reference|, 1), set well above the jitter across seeds and repeated
# runs that make_references.py prints: <= 3e-11 for the acoustic eigenvalues
# (ARPACK's random start vector), <= 2.3e-9 for the Cantor norms and sigma_k
# (sampling), <= 1e-15 for the Weyl slope.  Content hashes cannot serve: they
# change from run to run and with the BLAS thread count.
REFERENCE_RTOL = {"eigenvalues": 1e-6, "norms": 1e-6, "sigma_k": 1e-6,
                  "slope": 1e-6}
# Outputs stored in references.json, per experiment.  Every timed op of these
# experiments must have them; the other experiments depend on the seed and
# are checked through their manifest assertions and residuals only.
STORED = {"acoustic_spectrum": ("eigenvalues",),
          "multiplier_profile": ("norms", "sigma_k"),
          "weyl": ("slope",)}
# Checked on every pencil solve, references or not.
MAX_RESIDUAL = 1e-8


def _acoustic(mesh, **params):
    return {"experiment": "acoustic_spectrum", "mesh": mesh,
            "params": {"impedance": {"kind": "constant", "z0": 1.0},
                       "resolvent": True, **params}}


def _op(name, config, timed=True):
    return {"name": name, "config": config, "timed": timed}


WORKLOADS = {
    "multiplier": {
        "dominant": ["multipliers.contract_s"],
        "ops": [_op("multiplier_profile", {
            "experiment": "multiplier_profile",
            "geometry": {"kind": "circle", "segments": 256},
            "params": {"phi": {"kind": "cantor", "samples": 100000},
                       "truncations": [256, 512]}})],
    },
    "acoustic": {
        "dominant": ["acoustic.certificate_s"],
        "ops": [
            _op("disk_h0.12", _acoustic({"kind": "disk", "h": 0.12})),
            _op("disk_h0.09", _acoustic({"kind": "disk", "h": 0.09})),
            _op("annulus_h0.12", _acoustic({"kind": "annulus", "h": 0.12},
                                           N_b=26)),
            # Defect probe: the annulus with default settings.  It raises
            # today (impedance truncation 26 below N_b=52); it runs untimed so
            # that its fix does not read as a run_s regression.
            _op("annulus_h0.12_default", {
                "experiment": "acoustic_spectrum",
                "mesh": {"kind": "annulus", "h": 0.12},
                "params": {"impedance": {"kind": "constant"}}}, timed=False),
        ],
    },
    "monte_carlo": {
        "dominant": ["acoustic.splu_s", "acoustic.eigs_s",
                     "acoustic.neumann_scale_s"],
        "ops": [
            # No kernel weights: Z is skew, so every spectrum is real.
            _op("disk_h0.06_skew", {
                "experiment": "monte_carlo",
                "mesh": {"kind": "disk", "h": 0.06},
                "params": {"n_samples": 20, "rspec": {"c": 1.0, "s": 0.3}}}),
            # One kernel weight: Z is accretive, so no spectrum is real.
            _op("disk_h0.03_accretive", {
                "experiment": "monte_carlo",
                "mesh": {"kind": "disk", "h": 0.03},
                "params": {"n_samples": 4,
                           "rspec": {"c": 1.0, "s": 0.3,
                                     "kernel_weights": [1.0]}}}),
        ],
    },
    "spectra": {
        "dominant": ["boundary.surface_spectrum_s"],
        "ops": [
            _op("weyl_sphere4", {
                "experiment": "weyl",
                "geometry": {"kind": "sphere", "subdivisions": 4},
                "params": {"N": 200}}),
            _op("fgf_circle", {
                "experiment": "fgf_convergence",
                "geometry": {"kind": "circle"},
                "params": {"seeds": 30}}),
        ],
    },
}


def load_references(path):
    with open(path) as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# observed values
# ---------------------------------------------------------------------------

def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def observe(experiment, out_dir):
    """The values of one run that the checks compare, read from its files."""
    def path(name):
        return os.path.join(out_dir, name)

    if experiment == "acoustic_spectrum":
        rows = _rows(path("eigenvalues.csv"))
        return {"eigenvalues": [[float(r["re"]), float(r["im"])] for r in rows],
                "max_residual": max(float(r["residual"]) for r in rows)}
    if experiment == "monte_carlo":
        rows = _rows(path("cloud.csv"))
        with open(path("ensemble.json")) as f:
            ens = json.load(f)
        return {"max_residual": max(float(r["residual"]) for r in rows),
                "n_samples": ens["n_samples"],
                "failed_samples": len(ens["failures"])}
    if experiment == "multiplier_profile":
        with open(path("summary.json")) as f:
            norms = json.load(f)["norms"]
        sigma = {}
        for r in _rows(path("profile.csv")):
            sigma.setdefault(r["N_trunc"], []).append(float(r["sigma_k"]))
        return {"norms": norms, "sigma_k": sigma}
    if experiment == "weyl":
        with open(path("weyl.json")) as f:
            return {"slope": json.load(f)["slope"]}
    return {}


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _match_eigenvalues(got, ref):
    """Worst distance, relative to max(|ref|, 1), of a greedy nearest
    matching of folded eigenvalues |Re| + i Im.

    The pencils are real, so eigenvalues come in mirror pairs lambda,
    -conj(lambda) at equal distance from the imaginary shift; ARPACK returns
    either one of a pair at the edge of the wanted window, and orders
    degenerate pairs at random.
    """
    left = [complex(abs(g[0]), g[1]) for g in got]
    worst = 0.0
    for r in (complex(abs(x[0]), x[1]) for x in ref):
        j = min(range(len(left)), key=lambda i: abs(left[i] - r))
        worst = max(worst, abs(left.pop(j) - r) / max(abs(r), 1.0))
    return worst


def _numbers(value):
    """A number, a list, or a dict of them keyed by truncation, flattened."""
    if isinstance(value, dict):
        return [x for k in sorted(value) for x in _numbers(value[k])]
    return list(value) if isinstance(value, list) else [value]


def deviation(key, got, ref):
    """Largest deviation of an observed value from its reference, relative
    to max(|reference|, 1); infinite when their shapes differ."""
    if key == "eigenvalues":
        return _match_eigenvalues(got, ref) if len(got) == len(ref) else math.inf
    if isinstance(ref, dict) and sorted(got) != sorted(ref):
        return math.inf
    g, r = _numbers(got), _numbers(ref)
    if len(g) != len(r):
        return math.inf
    return max(abs(a - b) / max(abs(b), 1.0) for a, b in zip(g, r))


def check(observed, reference):
    """Errors of one op's observed values against its reference; [] passes."""
    errors = []
    if observed.get("max_residual", 0.0) > MAX_RESIDUAL:
        errors.append(f"max residual {observed['max_residual']:.2e} "
                      f"above {MAX_RESIDUAL:.0e}")
    for key, ref in (reference or {}).items():
        rtol = REFERENCE_RTOL[key]
        dev = deviation(key, observed[key], ref) if key in observed else math.inf
        if not dev <= rtol:
            errors.append(f"{key}: off by {dev:.2e} relative, tolerance {rtol:.0e}")
    return errors
