"""Configuration-driven experiment runner.

A run takes one JSON config, executes the named experiment, writes CSV/JSON
artifacts plus a manifest with per-file checksums, and fails closed: any
violated built-in assertion makes the run (and the CLI) report failure.
Identical config + seed reproduce identical artifact checksums at any worker
count: random draws come from a counter-based sampler, and every ARPACK solve
starts from a fixed vector.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

from . import shapes
from .boundary import (
    BoundaryGeometry, SpectrumError, build_curve_spectrum, build_surface_spectrum,
    weyl_diagnostic,
)
from .fgf import RandomImpedanceSpec, convergence_classifier
from .impedance import (
    IMPEDANCE_KINDS, MULTIPLIER_KINDS, cayley, impedance_from_config,
    inverse_cayley, is_accretive, phi_from_config, selfadjointness_criterion,
)
from .multipliers import (
    TripleProductTensor, build_multiplier, compactness_profile, multiplier_norm,
    positivity_test, psd_tolerance,
)
from . import acoustic as ac

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
RUNNER_ERROR = "runner_error"


class ConfigError(ValueError):
    """Invalid experiment configuration; carries the full error list."""

    def __init__(self, errors):
        super().__init__("; ".join(errors))
        self.errors = list(errors)


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------

def usable_cpus():
    """The default worker count: the CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


@dataclass
class ExperimentConfig:
    experiment: str
    params: dict = field(default_factory=dict)
    geometry: dict | None = None
    mesh: dict | None = None
    seed: int = 0
    tolerances: dict = field(default_factory=dict)
    out_dir: str = "runs"
    workers: int = field(default_factory=usable_cpus)
    schema_version: int = SCHEMA_VERSION

    def to_dict(self):
        return {"schema_version": self.schema_version,
                "experiment": self.experiment, "params": self.params,
                "geometry": self.geometry, "mesh": self.mesh,
                "seed": self.seed, "tolerances": self.tolerances,
                "out_dir": self.out_dir, "workers": self.workers}

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError([f"config must be a JSON object, not {type(d).__name__}"])
        known = {"schema_version", "experiment", "params", "geometry", "mesh",
                 "seed", "tolerances", "out_dir", "workers"}
        unknown = set(d) - known
        if unknown:
            raise ConfigError([f"unknown config keys: {sorted(unknown)}"])
        errors = [f"{key} must be a JSON object"
                  for key in ("params", "geometry", "mesh", "tolerances")
                  if not isinstance(d.get(key), (dict, type(None)))]
        if not isinstance(d.get("out_dir", ""), str):
            errors.append("out_dir must be a string")
        ints = {}
        for key in ("seed", "workers", "schema_version"):
            if key not in d:        # the dataclass default
                continue
            try:
                ints[key] = int(d[key])
            except (TypeError, ValueError):
                errors.append(f"{key} must be an integer, not {d[key]!r}")
        if errors:
            raise ConfigError(errors)
        return cls(experiment=d.get("experiment", ""),
                   params=d.get("params", {}) or {},
                   geometry=d.get("geometry"), mesh=d.get("mesh"),
                   tolerances=d.get("tolerances", {}) or {},
                   out_dir=d.get("out_dir", "runs"), **ints)

    def canonical_json(self):
        """Experiment identity: excludes output location and worker count,
        neither of which may influence results."""
        d = self.to_dict()
        d.pop("out_dir", None)
        d.pop("workers", None)
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    def content_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def run_dir(self):
        """Where a run writes when no output directory is given."""
        return os.path.join(self.out_dir,
                            f"{self.experiment}_{self.content_hash()[:10]}")


def _phi_errors(name, block, kinds):
    """Errors of an impedance or phi block: its kind, and a Cantor ratio."""
    if not isinstance(block, dict) or block.get("kind") not in kinds:
        return [f"{name}.kind must be one of {list(kinds)}"]
    ratio = block.get("ratio", 1.0 / 3.0)
    if block["kind"] == "cantor" and not (isinstance(ratio, (int, float))
                                          and 0.0 < ratio < 0.5):
        return [f"{name}.ratio must lie in (0, 1/2), not {ratio!r}"]
    return []


def validate_config(config):
    """All validation errors at once; empty list means runnable."""
    errors = []
    if config.schema_version != SCHEMA_VERSION:
        errors.append(f"unsupported schema_version {config.schema_version}")
    if config.experiment not in EXPERIMENTS:
        errors.append(f"unknown experiment {config.experiment!r} "
                      f"(choose from {', '.join(EXPERIMENTS)})")
    else:
        block = _RUNNERS[config.experiment][1]
        if not getattr(config, block):
            errors.append(f"experiment {config.experiment!r} needs a {block} block")
    for block, builder in (("geometry", _geometry_kinds), ("mesh", _mesh_kinds)):
        spec = getattr(config, block)
        if spec is not None:
            kind = spec.get("kind")
            if kind not in builder:
                errors.append(f"{block}.kind must be one of {sorted(builder)}")
            elif kind == "file" and not os.path.exists(spec.get("path", "")):
                errors.append(f"{block} file {spec.get('path')!r} does not exist")
    impedance = config.params.get("impedance")
    if config.experiment == "impedance_check" and impedance is None:
        errors.append("experiment 'impedance_check' needs params.impedance")
    if impedance is not None:
        errors += _phi_errors("params.impedance", impedance, IMPEDANCE_KINDS)
    if "phi" in config.params:      # a phi without a kind runs as cantor
        phi = config.params["phi"]
        errors += _phi_errors("params.phi", {"kind": "cantor", **phi}
                              if isinstance(phi, dict) else phi, MULTIPLIER_KINDS)
    if config.workers < 1:
        errors.append("workers must be >= 1")
    for key in ("s_values", "t_offsets", "truncations", "ranks"):
        if key in config.params and not config.params[key]:
            errors.append(f"params.{key} must be non-empty")
    return errors


def apply_overrides(config_dict, overrides):
    """Apply 'dot.path=json-value' overrides to a raw config dict."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError([f"override {item!r} is not key=value"])
        path, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = config_dict
        *parents, last = path.split(".")
        for k in parents:
            node = node.setdefault(k, {}) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            raise ConfigError([f"override {item!r} sets a key inside a value "
                               f"that is not a JSON object"])
        node[last] = value
    return config_dict


# ---------------------------------------------------------------------------
# geometry / mesh builders
# ---------------------------------------------------------------------------

def _geom_circle(spec):
    return shapes.scaled_circle_by_perimeter(
        spec.get("perimeter", 2 * math.pi), n_segments=spec.get("segments", 256))


def _geom_polygon(spec):
    return shapes.regular_polygon_geometry(
        spec.get("sides", 12), circumradius=spec.get("circumradius", 1.0))


def _geom_sphere(spec):
    return shapes.icosphere(spec.get("subdivisions", 4),
                            radius=spec.get("radius", 1.0))


def _geom_file(spec):
    return BoundaryGeometry.load_json(spec["path"])


_geometry_kinds = {"circle": _geom_circle, "polygon": _geom_polygon,
                   "sphere": _geom_sphere, "file": _geom_file}


def build_geometry(spec):
    return _geometry_kinds[spec["kind"]](spec)


def _mesh_disk(spec):
    return ac.disk_mesh(spec.get("h", 0.1), radius=spec.get("radius", 1.0))


def _mesh_annulus(spec):
    return ac.annulus_mesh(spec.get("h", 0.1), r_inner=spec.get("r_inner", 0.5),
                           r_outer=spec.get("r_outer", 1.0))


def _mesh_polygon(spec):
    return ac.convex_polygon_mesh(np.asarray(spec["corners"], dtype=float),
                                  spec.get("h", 0.1))


def _mesh_file(spec):
    return ac.DomainMesh.load_json(spec["path"])


_mesh_kinds = {"disk": _mesh_disk, "annulus": _mesh_annulus,
               "polygon": _mesh_polygon, "file": _mesh_file}


def build_mesh(spec):
    return _mesh_kinds[spec["kind"]](spec)


def build_spectrum(geom, N, modes=False):
    """Boundary spectrum truncated at N: analytic and gridless on curves,
    the cotangent FEM eigensolve on surfaces, with its Ritz vectors only
    when ``modes`` asks for them (surface triple products need them)."""
    if geom.dim_ambient == 2:
        return build_curve_spectrum(geom, N)
    return build_surface_spectrum(geom, N, store_modes=modes)


# ---------------------------------------------------------------------------
# artifacts and manifest
# ---------------------------------------------------------------------------

def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=1)


def _write_csv(path, header, rows):
    with open(path, "w") as f:
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(repr(float(x)) if isinstance(x, (float, np.floating))
                             else str(x) for x in row) + "\n")


@dataclass
class RunManifest:
    config_hash: str
    version: str
    started: float
    finished: float
    artifacts: list
    assertions: list

    @property
    def passed(self):
        return all(a["passed"] for a in self.assertions)

    def content_hash(self):
        """Deterministic hash (timestamps excluded)."""
        payload = json.dumps(
            {"config": self.config_hash,
             "artifacts": [(a["id"], a["sha256"]) for a in self.artifacts],
             "assertions": [(a["name"], a["passed"]) for a in self.assertions]},
            sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()

    def to_dict(self):
        return {"config_hash": self.config_hash, "version": self.version,
                "started": self.started, "finished": self.finished,
                "artifacts": self.artifacts, "assertions": self.assertions,
                "passed": self.passed, "content_hash": self.content_hash()}

    def save(self, path):
        _write_json(path, self.to_dict())

    @classmethod
    def load(cls, path):
        with open(path) as f:
            d = json.load(f)
        return cls(config_hash=d["config_hash"], version=d["version"],
                   started=d["started"], finished=d["finished"],
                   artifacts=d["artifacts"], assertions=d["assertions"])


class _Run:
    def __init__(self, config, out_dir):
        self.config = config
        self.out_dir = out_dir
        self.artifacts = []
        self.assertions = []
        os.makedirs(out_dir, exist_ok=True)

    def add_csv(self, art_id, header, rows):
        path = os.path.join(self.out_dir, art_id + ".csv")
        _write_csv(path, header, rows)
        self.artifacts.append({"id": art_id, "path": path, "sha256": _sha256(path)})

    def add_json(self, art_id, obj):
        path = os.path.join(self.out_dir, art_id + ".json")
        _write_json(path, obj)
        self.artifacts.append({"id": art_id, "path": path, "sha256": _sha256(path)})

    def check(self, name, passed, detail=""):
        self.assertions.append({"name": name, "passed": bool(passed),
                                "detail": str(detail)})


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _run_weyl(run):
    cfg = run.config
    p = cfg.params
    geom = build_geometry(cfg.geometry)
    N = p.get("N", 400)
    spec = build_spectrum(geom, N)
    lo, hi = p.get("fit_range", [21, min(200, N)])
    diag = weyl_diagnostic(spec, (lo, hi))
    expect = p.get("expect_slope", 2.0 / (geom.dim_ambient - 1))
    tol = p.get("slope_tol", 0.05 if geom.dim_ambient == 2 else 0.15)
    run.add_csv("spectrum", ["n", "mu_n"],
                [(n + 1, float(m)) for n, m in enumerate(spec.mu)])
    run.add_json("weyl", {**diag, "fit_range": [lo, hi], "expect_slope": expect,
                          "slope_tol": tol, "dim": geom.dim_ambient})
    run.check("weyl_slope", abs(diag["slope"] - expect) <= tol,
              f"slope={diag['slope']:.4f} expect {expect}+-{tol}")


def _run_fgf(run):
    cfg = run.config
    p = cfg.params
    geom = build_geometry(cfg.geometry)
    checkpoints = p.get("checkpoints", [64, 128, 256, 512, 1024, 2048, 4096])
    N = max(checkpoints)
    spec = build_spectrum(geom, N)
    d = geom.dim_ambient
    rows, verdicts = [], []
    all_match = True
    for s in p.get("s_values", [0.5, 1.0, 2.0]):
        threshold = s - (d - 1) / 2.0
        for t in p.get("t_values", [threshold + off for off in
                                    p.get("t_offsets", [-0.3, -0.25, 0.25, 0.3])]):
            r = convergence_classifier(spec, s, t, seeds=p.get("seeds", 50),
                                       checkpoints=checkpoints, seed0=cfg.seed)
            theory = "converges" if t < threshold else "diverges"
            in_band = abs(t - threshold) < r["margin"] - 1e-9
            match = True if in_band else (r["verdict"] == theory)
            all_match = all_match and match
            verdicts.append({"s": s, "t": t, "verdict": r["verdict"],
                             "theory": theory, "median_ratio": r["median_ratio"],
                             "in_margin_band": in_band})
            rows.append((s, t, r["median_ratio"], r["verdict"], theory))
    run.add_csv("ratios", ["s", "t", "median_ratio", "verdict", "theory"], rows)
    run.add_json("verdicts", {"cells": verdicts, "checkpoints": checkpoints})
    run.check("classifier_matches_theory", all_match,
              f"{sum(v['verdict'] == v['theory'] for v in verdicts)}/{len(verdicts)}")


def _run_multiplier(run):
    cfg = run.config
    p = cfg.params
    geom = build_geometry(cfg.geometry)
    truncs = p.get("truncations", [256, 512])
    N = int(2.2 * max(truncs)) + 8
    spec = build_spectrum(geom, N, modes=True)
    tensor = TripleProductTensor(spec)
    phi = phi_from_config(spec, {"kind": "cantor", **p.get("phi", {})})
    s1, s2 = p.get("s1", 0.5), p.get("s2", 0.5)
    ranks = p.get("ranks", [1, 2, 4, 8, 16, 32, 64])
    rows, norms = [], []
    for Nt in truncs:
        A = build_multiplier(phi, s1, s2, Nt, tensor=tensor)
        norms.append(multiplier_norm(A))
        kept = [r for r in ranks if r <= Nt]
        rows.extend((k, sv, Nt) for k, sv in zip(kept, compactness_profile(A, kept)))
        if Nt == min(truncs):
            pos = positivity_test(A, tol=cfg.tolerances.get("psd_tol"))
    run.add_csv("profile", ["k", "sigma_k", "N_trunc"], rows)
    run.add_json("summary", {"norms": dict(zip(map(str, truncs), norms)),
                             "norm": norms[-1], "min_eig": pos["min_eig"],
                             "is_nonneg": pos["nonneg"], "s1": s1, "s2": s2})
    if len(norms) >= 2 and "stability_tol" in p:
        rel = abs(norms[-1] - norms[-2]) / norms[-2]
        run.check("norm_stabilizes", rel <= p["stability_tol"],
                  f"rel change {rel:.4f}")


def _run_impedance(run):
    cfg = run.config
    p = cfg.params
    geom = build_geometry(cfg.geometry)
    N = p.get("N", 128)
    spec = build_spectrum(geom, N, modes=True)
    Z = impedance_from_config(spec, p["impedance"], N_trunc=p.get("N_trunc", 64))
    acc = is_accretive(Z)
    sa = selfadjointness_criterion(Z)
    report = {"accretive": acc["nonneg"], "min_herm_eig": acc["min_eig"],
              "selfadjoint": sa}
    try:
        cp = cayley(Z)
        rt = float(np.linalg.norm(inverse_cayley(cp.K) - cp.Z_tilde, 2)
                   / max(1.0, np.linalg.norm(cp.Z_tilde, 2)))
        report.update({"cayley_norm": cp.norm_K, "cayley_roundtrip": rt})
        run.check("cayley_contraction_iff_accretive",
                  (cp.norm_K <= 1 + 1e-10) == acc["nonneg"],
                  f"|K|={cp.norm_K:.6f}")
    except (SpectrumError, np.linalg.LinAlgError) as err:
        report["cayley_error"] = str(err)
        run.check("cayley_defined_for_accretive", not acc["nonneg"], str(err))
    run.add_json("impedance", report)


def _acoustic_setup(cfg, p):
    mesh = build_mesh(cfg.mesh)
    return mesh, build_spectrum(mesh.boundary_geometry(), p.get("N_spec", 160))


def _run_acoustic(run):
    cfg = run.config
    p = cfg.params
    mesh, spec = _acoustic_setup(cfg, p)
    pencil = ac.assemble_pencil(mesh, spec, N_b=p.get("N_b"))
    Z = impedance_from_config(spec, p.get("impedance", {"kind": "zero"}),
                              N_trunc=pencil.N_b)
    pencil = pencil.with_impedance(Z)
    report = ac.solve_pencil(pencil, n_wanted=p.get("n_wanted", 14))
    ver = ac.verify_mdissipativity(pencil, report)
    run.add_csv("eigenvalues", ["re", "im", "residual", "q_factor", "certified",
                                 "sample_id"], report.rows())
    run.add_json("mdiss", ver | {"zero_cluster": report.zero_cluster_size})
    run.check("residuals_certified",
              bool(np.all(report.residuals <= report.residual_tol)),
              f"max residual {report.residuals.max():.2e}")
    acc = is_accretive(Z)
    if acc["nonneg"]:
        run.check("halfplane_confinement", report.in_lower_halfplane(),
                  f"max Im = {ver['halfplane_check']:.2e}")
        tol = psd_tolerance(ver["s_norm"] * acc["norm"])
        run.check("resolvent_bound", ver["omega_h"] <= tol,
                  f"omega_h {ver['omega_h']:.2e}, tolerance {tol:.2e}")


def _run_monte_carlo(run):
    cfg = run.config
    p = cfg.params
    mesh, spec = _acoustic_setup(cfg, p)
    r = p.get("rspec", {})
    rspec = RandomImpedanceSpec(c=r.get("c", 1.0), s=r.get("s", 0.3),
                                kernel_weights=tuple(r.get("kernel_weights", [])))
    out = ac.monte_carlo_spectrum(mesh, spec, rspec,
                                  n_samples=p.get("n_samples", 50),
                                  seed0=cfg.seed, N_b=p.get("N_b"),
                                  n_wanted=p.get("n_wanted", 14),
                                  workers=cfg.workers)
    rows = [row for s in out["samples"] for row in s["rows"]]
    run.add_csv("cloud", ["re", "im", "residual", "q_factor", "certified",
                           "sample_id"], rows)
    run.add_json("ensemble", out["summary"])
    s = out["summary"]
    run.check("all_samples_solved", s["n_solved"] == s["n_samples"],
              f"{s['n_solved']}/{s['n_samples']}")
    run.check("halfplane_fraction_one", s["fraction_halfplane"] == 1.0,
              f"{s['fraction_halfplane']}")
    expect_real = 1.0 if not any(rspec.kernel_weights) else 0.0
    run.check("real_spectrum_dichotomy",
              s["fraction_real_spectrum"] == expect_real,
              f"got {s['fraction_real_spectrum']}, expect {expect_real}")


# Each experiment once: its runner and the config block it builds from.
_RUNNERS = {"weyl": (_run_weyl, "geometry"),
            "fgf_convergence": (_run_fgf, "geometry"),
            "multiplier_profile": (_run_multiplier, "geometry"),
            "impedance_check": (_run_impedance, "geometry"),
            "acoustic_spectrum": (_run_acoustic, "mesh"),
            "monte_carlo": (_run_monte_carlo, "mesh")}
EXPERIMENTS = tuple(_RUNNERS)


def run(config, out_dir=None):
    """Execute one experiment; returns the saved RunManifest.  An exception
    inside the runner becomes the failed assertion ``runner_error``."""
    errors = validate_config(config)
    if errors:
        raise ConfigError(errors)
    from . import __version__
    out_dir = out_dir or config.run_dir()
    started = time.time()
    r = _Run(config, out_dir)
    try:
        _RUNNERS[config.experiment][0](r)
    except Exception as err:    # fail closed: the manifest is still written
        log.exception("%s runner failed", config.experiment)
        r.check(RUNNER_ERROR, False, f"{type(err).__name__}: {err}")
    manifest = RunManifest(config_hash=config.content_hash(),
                           version=__version__, started=started,
                           finished=time.time(), artifacts=r.artifacts,
                           assertions=r.assertions)
    manifest.save(os.path.join(out_dir, "manifest.json"))
    return manifest


# ---------------------------------------------------------------------------
# plot-data emission
# ---------------------------------------------------------------------------

def emit_plotdata(manifest, artifact_id, out_path=None):
    """Re-shape one artifact as long-format (series, x, y) CSV."""
    art = next((a for a in manifest.artifacts if a["id"] == artifact_id), None)
    if art is None:
        raise ConfigError([f"unknown artifact id {artifact_id!r} "
                           f"(have {[a['id'] for a in manifest.artifacts]})"])
    rows = []
    if artifact_id == "spectrum":
        data = np.genfromtxt(art["path"], delimiter=",", names=True)
        n, mu = data["n"], data["mu_n"]
        rows += [("mu", int(a), float(b)) for a, b in zip(n, mu)]
        pos = mu > 0
        if pos.sum() >= 2:
            slope, logc = np.polyfit(np.log(n[pos]), np.log(mu[pos]), 1)
            rows += [("fit", int(a), float(math.exp(logc) * a ** slope))
                     for a in n[pos]]
    elif artifact_id in ("eigenvalues", "cloud"):
        data = np.genfromtxt(art["path"], delimiter=",", names=True)
        for re_, im_, sid in zip(np.atleast_1d(data["re"]),
                                 np.atleast_1d(data["im"]),
                                 np.atleast_1d(data["sample_id"])):
            rows.append((int(sid), float(re_), float(im_)))
    elif artifact_id == "profile":
        data = np.genfromtxt(art["path"], delimiter=",", names=True)
        for k, sv, nt in zip(np.atleast_1d(data["k"]),
                             np.atleast_1d(data["sigma_k"]),
                             np.atleast_1d(data["N_trunc"])):
            rows.append((int(nt), int(k), float(sv)))
    elif artifact_id == "ratios":
        with open(art["path"]) as f:
            next(f)
            for line in f:
                s, t, ratio = line.split(",")[:3]
                rows.append((f"s={s}", float(t), float(ratio)))
    else:
        raise ConfigError([f"artifact {artifact_id!r} has no plot-data mapping"])
    out_path = out_path or os.path.join(os.path.dirname(art["path"]),
                                        f"plot_{artifact_id}.csv")
    _write_csv(out_path, ["series", "x", "y"], rows)
    return out_path
