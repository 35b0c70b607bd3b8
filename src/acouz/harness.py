"""Configuration-driven experiment runner.

A run takes one JSON config, executes the named experiment, writes CSV/JSON
artifacts plus a manifest with per-file checksums, and fails closed: any
violated built-in assertion makes the run (and the CLI) report failure.
Each experiment is one function of the config and its built geometry or
mesh: it reads and checks every value its run uses, each once through the
one reader, ``config.read`` (an ``impedance`` or ``phi`` block through
``impedance.param_block``), before anything is written, and returns that run,
which uses the checked values; a key or block it does not use is unread.
Identical config + seed reproduce identical artifact checksums at any worker
count: random draws come from a counter-based sampler, every ARPACK solve
starts from a fixed vector, and the workers only share out Monte Carlo
samples and surface spectrum windows whose number the worker count never
sets.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import shapes
from .boundary import (
    BoundaryGeometry, SpectrumError, build_curve_spectrum, build_surface_spectrum,
    check_fit_range, check_surface_truncation, check_truncation,
    surface_truncation_cap, weyl_diagnostic,
)
from .config import ConfigError, read
from .fgf import (
    FGF_CHECKPOINTS, FGF_SEEDS, RandomImpedanceSpec, check_classifier_schedule,
    convergence_classifier, gaussian_paths,
)
from .impedance import (
    CAYLEY_CONTRACTION_SLACK, cayley, check_impedance_config, impedance_from_config,
    inverse_cayley, is_accretive, param_block, phi_from_config,
    selfadjointness_criterion, spectrum_modes,
)
from .multipliers import (
    TripleProductTensor, build_multiplier, check_ranks, compactness_profile,
    multiplier_norm, positivity_test, psd_tolerance, svdvals_by_block,
)
from . import acoustic as ac

log = logging.getLogger(__name__)

SCHEMA_VERSION = 1
RUNNER_ERROR = "runner_error"


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
    out_dir: str = "runs"
    workers: int = field(default_factory=usable_cpus)
    schema_version: int = SCHEMA_VERSION

    @classmethod
    def from_dict(cls, d):
        if not isinstance(d, dict):
            raise ConfigError([f"config must be a JSON object, not {type(d).__name__}"])
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError([f"unknown config keys: {sorted(unknown)}"])
        # absent keys take the dataclass defaults
        ints = {key: read(d, key, 0, "integer")
                for key in ("seed", "workers", "schema_version") if key in d}
        return cls(experiment=read(d, "experiment", "", "string"),
                   params=read(d, "params", None, "object") or {},
                   geometry=read(d, "geometry", None, "object"),
                   mesh=read(d, "mesh", None, "object"),
                   out_dir=read(d, "out_dir", "runs", "string"), **ints)

    def canonical_json(self):
        """Experiment identity: excludes output location and worker count,
        neither of which may influence results."""
        d = asdict(self)
        del d["out_dir"], d["workers"]
        return json.dumps(d, sort_keys=True, separators=(",", ":"))

    def content_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def run_dir(self):
        """Where a run writes when no output directory is given."""
        return os.path.join(self.out_dir,
                            f"{self.experiment}_{self.content_hash()[:10]}")


def _config_errors(config):
    """The errors found in the config alone, all at once."""
    errors = []
    if config.schema_version != SCHEMA_VERSION:
        errors.append(f"unsupported schema_version {config.schema_version}")
    if config.experiment not in _RUNNERS:
        errors.append(f"unknown experiment {config.experiment!r} "
                      f"(choose from {', '.join(_RUNNERS)})")
    else:
        block = _RUNNERS[config.experiment][0]
        if not getattr(config, block):
            errors.append(f"experiment {config.experiment!r} needs a {block} block")
    for block, builder in (("geometry", _geometry_kinds), ("mesh", _mesh_kinds)):
        spec = getattr(config, block)
        # a tuple compares the kind, so an unhashable one is an error, not a crash
        if spec is not None and spec.get("kind") not in tuple(builder):
            errors.append(f"{block}.kind must be one of {sorted(builder)}")
    if config.workers < 1:
        errors.append("workers must be >= 1")
    return errors


def _sized_block(p, name, N_trunc, geom):
    """``params.<name>`` parsed once and the spectrum size its operator at
    N_trunc reads on ``geom`` (``spectrum_modes``, within the surface cap),
    checked there; its errors name ``params.<name>``."""
    try:
        block = param_block(p, name)
        N = spectrum_modes(block, N_trunc, geom.n_components)
        check_surface_truncation(N, geom)
        check_impedance_config(block, N_trunc, N, geom)
        return block, N
    except (LookupError, TypeError, ValueError) as err:
        raise ConfigError([f"params.{name}: {type(err).__name__}: {err}"]) from None


def _stream_seeds(config, count, name):
    """range(seed, seed + count), the keys of the ``count`` random streams a
    run draws; ConfigError naming ``seed`` unless each is a uint64."""
    last = config.seed + count - 1
    if config.seed < 0 or last > np.iinfo(np.uint64).max:
        raise ConfigError([f"seed: the stream keys seed..seed + {name} - 1 = "
                           f"{config.seed}..{last} must lie in 0..2**64 - 1"])
    return range(config.seed, last + 1)


def prepare(config):
    """The config's run, a function of the open ``_Run``, or ConfigError.
    The only reader of a config: checks what the config alone decides, builds
    the geometry or mesh once and calls the experiment, which reads, defaults
    and checks once each value its run uses, and the run's preconditions on
    the built block, before anything is written, and returns the run."""
    errors = _config_errors(config)
    if errors:
        raise ConfigError(errors)
    block, experiment = _RUNNERS[config.experiment]
    try:
        built = (build_geometry if block == "geometry" else build_mesh)(
            getattr(config, block))
    except (OSError, LookupError, TypeError, ValueError) as err:
        raise ConfigError([f"cannot build the {block} block: "
                           f"{type(err).__name__}: {err}"]) from None
    try:
        return experiment(config, built)
    except ConfigError:
        raise
    except (LookupError, TypeError, ValueError) as err:
        raise ConfigError([f"{type(err).__name__}: {err}"]) from None


def validate_config(config):
    """Every error of the config alone, else the first precondition the built
    geometry or mesh breaks; an empty list means runnable."""
    try:
        prepare(config)
    except ConfigError as err:
        return err.errors
    return []


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

# kind -> builder of a geometry or a mesh block of that kind
_geometry_kinds = {
    "circle": lambda spec: shapes.scaled_circle_by_perimeter(
        read(spec, "perimeter", 2 * math.pi, "positive"),
        n_segments=read(spec, "segments", 256, "count")),
    "polygon": lambda spec: shapes.regular_polygon_geometry(
        read(spec, "sides", 12, "count"),
        circumradius=read(spec, "circumradius", 1.0, "positive")),
    "sphere": lambda spec: shapes.icosphere(read(spec, "subdivisions", 4, "integer"),
                                            radius=read(spec, "radius", 1.0, "positive")),
    "file": lambda spec: BoundaryGeometry.load_json(read(spec, "path", kind="string")),
}
_mesh_kinds = {
    "disk": lambda spec: ac.disk_mesh(read(spec, "h", 0.1, "positive"),
                                      radius=read(spec, "radius", 1.0, "positive")),
    "annulus": lambda spec: ac.annulus_mesh(read(spec, "h", 0.1, "positive"),
                                            r_inner=read(spec, "r_inner", 0.5),
                                            r_outer=read(spec, "r_outer", 1.0)),
    "polygon": lambda spec: ac.convex_polygon_mesh(read(spec, "corners", many=2),
                                                   read(spec, "h", 0.1, "positive")),
    "file": lambda spec: ac.DomainMesh.load_json(read(spec, "path", kind="string")),
}


def build_geometry(spec):
    return _geometry_kinds[spec["kind"]](spec)


def build_mesh(spec):
    return _mesh_kinds[spec["kind"]](spec)


def build_spectrum(geom, N, modes=False, workers=1):
    """Boundary spectrum truncated at N: analytic and gridless on curves;
    on surfaces the cotangent FEM eigensolve, sliced into windows that
    ``workers`` forked processes solve, with its Ritz vectors only when
    ``modes`` asks for them (surface triple products need them)."""
    if geom.dim_ambient == 2:
        return build_curve_spectrum(geom, N)
    return build_surface_spectrum(geom, N, store_modes=modes, workers=workers)


# ---------------------------------------------------------------------------
# artifacts and manifest
# ---------------------------------------------------------------------------

def _sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


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

    def save(self, path):
        _write_json(path, {**asdict(self), "passed": self.passed,
                           "content_hash": self.content_hash()})

    @classmethod
    def load(cls, path):
        """The manifest at ``path``; each artifact path is the file of that
        name beside it, where the run directory is now."""
        with open(path) as f:
            d = json.load(f)
        for art in d["artifacts"]:
            art["path"] = os.path.join(os.path.dirname(path), os.path.basename(art["path"]))
        return cls(**{f.name: d[f.name] for f in fields(cls)})


class _Run:
    def __init__(self, out_dir):
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

def _weyl(config, geom):
    p, d = config.params, geom.dim_ambient
    N = read(p, "params.N", min(400, surface_truncation_cap(geom)), "count")
    fit_range = read(p, "params.fit_range", [21, min(200, N)], "count", many=True)
    check_surface_truncation(N, geom)
    try:
        check_fit_range(fit_range, geom.n_components, N)
    except SpectrumError as err:
        raise ConfigError([f"params.fit_range: {err}"]) from None
    expect = read(p, "params.expect_slope", 2.0 / (d - 1))
    tol = read(p, "params.slope_tol", 0.05 if d == 2 else 0.15)

    def run(r):
        spec = build_spectrum(geom, N, workers=config.workers)
        diag = weyl_diagnostic(spec, fit_range)
        r.add_csv("spectrum", ["n", "mu_n"],
                  [(n + 1, float(m)) for n, m in enumerate(spec.mu)])
        r.add_json("weyl", {**diag, "fit_range": fit_range, "expect_slope": expect,
                            "slope_tol": tol, "dim": d})
        r.check("weyl_slope", abs(diag["slope"] - expect) <= tol,
                f"slope={diag['slope']:.4f} expect {expect}+-{tol}")
    return run


def _fgf(config, geom):
    """The classifier schedule and the (s, t) grid: each s of ``s_values`` with
    each of ``t_values``, else with s - (d-1)/2 plus each of ``t_offsets``."""
    p = config.params
    n_seeds = read(p, "params.seeds", FGF_SEEDS, "count")
    checkpoints = read(p, "params.checkpoints", FGF_CHECKPOINTS, "count", many=True)
    check_surface_truncation(checkpoints[-1], geom)
    check_classifier_schedule(n_seeds, checkpoints)
    t_values = read(p, "params.t_values", None, many=True)
    offsets = read(p, "params.t_offsets", [-0.3, -0.25, 0.25, 0.3], many=True)
    d = geom.dim_ambient
    cells = [(s, t) for s in read(p, "params.s_values", [0.5, 1.0, 2.0], many=True)
             for t in t_values or [s - (d - 1) / 2.0 + off for off in offsets]]
    seeds = _stream_seeds(config, n_seeds, "params.seeds")

    def run(r):
        spec = build_spectrum(geom, checkpoints[-1], workers=config.workers)
        # every (s, t) cell reads the same Gaussian paths: drawn once per run
        paths = gaussian_paths(seeds, checkpoints[-1])
        rows, verdicts = [], []
        for s, t in cells:
            c = convergence_classifier(spec, s, t, paths=paths, checkpoints=checkpoints)
            theory = "converges" if t < c["threshold"] else "diverges"
            verdicts.append({"s": s, "t": t, "verdict": c["verdict"],
                             "theory": theory, "median_ratio": c["median_ratio"],
                             "in_margin_band": c["verdict"] == "indeterminate"})
            rows.append((s, t, c["median_ratio"], c["verdict"], theory))
        r.add_csv("ratios", ["s", "t", "median_ratio", "verdict", "theory"], rows)
        r.add_json("verdicts", {"cells": verdicts, "checkpoints": checkpoints})
        r.check("classifier_matches_theory",
                all(v["in_margin_band"] or v["verdict"] == v["theory"] for v in verdicts),
                f"{sum(v['verdict'] == v['theory'] for v in verdicts)}/{len(verdicts)}")
    return run


def _multiplier(config, geom):
    """Truncations, ranks and ``_sized_block`` of ``phi`` at the largest."""
    p = config.params
    truncs = read(p, "params.truncations", [256, 512], "integer", many=True)
    ranks = read(p, "params.ranks", [1, 2, 4, 8, 16, 32, 64], "integer", many=True)
    phi_block, N = _sized_block(p, "phi", max(truncs), geom)
    for Nt in truncs:
        check_truncation(Nt, N)
        check_ranks([k for k in ranks if k <= Nt], Nt)
    s1, s2 = read(p, "params.s1", 0.5), read(p, "params.s2", 0.5)
    stability_tol = read(p, "params.stability_tol", None)

    def run(r):
        spec = build_spectrum(geom, N, modes=True, workers=config.workers)
        tensor = TripleProductTensor(spec)
        phi = phi_from_config(spec, phi_block)
        rows, norms = [], []
        for Nt in truncs:
            A = build_multiplier(phi, s1, s2, Nt, tensor=tensor)
            norms.append(multiplier_norm(A))
            kept = [k for k in ranks if k <= Nt]
            rows.extend((k, sv, Nt) for k, sv in zip(kept, compactness_profile(A, kept)))
            if Nt == min(truncs):
                pos = positivity_test(A)
        r.add_csv("profile", ["k", "sigma_k", "N_trunc"], rows)
        r.add_json("summary", {"norms": dict(zip(map(str, truncs), norms)),
                               "norm": norms[-1], "min_eig": pos["min_eig"],
                               "is_nonneg": pos["nonneg"], "s1": s1, "s2": s2})
        if len(norms) >= 2 and stability_tol is not None:
            rel = abs(norms[-1] - norms[-2]) / norms[-2]
            r.check("norm_stabilizes", rel <= stability_tol, f"rel change {rel:.4f}")
    return run


def _impedance(config, geom):
    """N_trunc and ``_sized_block`` of the impedance, required here."""
    p = config.params
    if "impedance" not in p:
        raise ConfigError(["experiment 'impedance_check' needs params.impedance"])
    N_trunc = read(p, "params.N_trunc", 64, "count")
    impedance, N = _sized_block(p, "impedance", N_trunc, geom)

    def run(r):
        spec = build_spectrum(geom, N, modes=True, workers=config.workers)
        Z = impedance_from_config(spec, impedance, N_trunc=N_trunc)
        acc = is_accretive(Z)
        report = {"accretive": acc["nonneg"], "min_herm_eig": acc["min_eig"],
                  "selfadjoint": selfadjointness_criterion(Z)}
        try:
            cp = cayley(Z)
            rt = float(svdvals_by_block(inverse_cayley(cp.K) - cp.Z_tilde)[0]
                       / max(1.0, svdvals_by_block(cp.Z_tilde)[0]))
            report.update({"cayley_norm": cp.norm_K, "cayley_roundtrip": rt})
            r.check("cayley_contraction_iff_accretive",
                    (cp.norm_K <= 1 + CAYLEY_CONTRACTION_SLACK) == acc["nonneg"],
                    f"|K|={cp.norm_K:.6f}")
        except (SpectrumError, np.linalg.LinAlgError) as err:
            report["cayley_error"] = str(err)
            r.check("cayley_defined_for_accretive", not acc["nonneg"], str(err))
        r.add_json("impedance", report)
    return run


def _mesh_params(p, mesh):
    """(N_b, n_wanted): the trace truncation (default ``acoustic.default_N_b``)
    checked against the boundary dofs, and the eigenvalue count (default
    ``acoustic.N_WANTED``)."""
    N_b = read(p, "params.N_b", ac.default_N_b(mesh), "integer")
    ac.check_trace_truncation(N_b, mesh.boundary_dofs.size)
    return N_b, read(p, "params.n_wanted", ac.N_WANTED, "count")


def _acoustic(config, mesh):
    """``_mesh_params`` and ``_sized_block`` of the impedance, which covers N_b."""
    N_b, n_wanted = _mesh_params(config.params, mesh)
    geom = mesh.boundary_geometry()
    impedance, N = _sized_block(config.params, "impedance", N_b, geom)
    ac.check_impedance_truncation(impedance.truncation(N_b), N_b)
    spec = build_spectrum(geom, N)

    def run(r):
        Z = impedance_from_config(spec, impedance, N_trunc=N_b)
        pencil = ac.assemble_pencil(mesh, spec, N_b=N_b).with_impedance(Z)
        report = ac.solve_pencil(pencil, n_wanted=n_wanted)
        ver = ac.verify_mdissipativity(pencil, report)
        r.add_csv("eigenvalues", ac.EigenReport.COLUMNS, report.rows())
        r.add_json("mdiss", ver | {"zero_cluster": report.zero_cluster_size})
        r.check("residuals_certified",
                bool(np.all(report.residuals <= ac.RESIDUAL_TOL)),
                f"max residual {report.residuals.max():.2e}")
        certified = report.certified().size
        r.check("certified_nonempty", certified > 0,
                f"{certified} certified off the zero cluster")
        acc = is_accretive(Z)
        if acc["nonneg"]:
            r.check("halfplane_confinement", ver["halfplane_ok"],
                    f"max Im = {ver['halfplane_check']:.2e}")
            tol = psd_tolerance(ver["s_norm"] * acc["norm"])
            r.check("resolvent_bound", ver["omega_h"] <= tol,
                    f"omega_h {ver['omega_h']:.2e}, tolerance {tol:.2e}")
    return run


def _monte_carlo(config, mesh):
    p = config.params
    rs = read(p, "params.rspec", {}, "object")
    rspec = RandomImpedanceSpec(
        c=read(rs, "params.rspec.c", 1.0), s=read(rs, "params.rspec.s", 0.3),
        kernel_weights=read(rs, "params.rspec.kernel_weights", (), many=True))
    rspec.check_kernel_weights(len(mesh.boundary_loops))
    n_samples = read(p, "params.n_samples", ac.N_SAMPLES, "count")
    (N_b, n_wanted), geom = _mesh_params(p, mesh), mesh.boundary_geometry()
    spec = build_spectrum(geom, spectrum_modes(None, N_b, geom.n_components))
    seed0 = _stream_seeds(config, n_samples, "params.n_samples").start

    def run(r):
        out = ac.monte_carlo_spectrum(mesh, spec, rspec, n_samples=n_samples,
                                      seed0=seed0, N_b=N_b, n_wanted=n_wanted,
                                      workers=config.workers)
        r.add_csv("cloud", ac.EigenReport.COLUMNS,
                  [row for s in out["samples"] for row in s["rows"]])
        s = out["summary"]
        r.add_json("ensemble", s)
        r.check("all_samples_solved", s["n_solved"] == s["n_samples"],
                f"{s['n_solved']}/{s['n_samples']}")
        r.check("halfplane_fraction_one", s["fraction_halfplane"] == 1.0,
                f"{s['fraction_halfplane']}")
        expect_real = 1.0 if not any(rspec.kernel_weights) else 0.0
        r.check("real_spectrum_dichotomy",
                s["fraction_real_spectrum"] == expect_real,
                f"got {s['fraction_real_spectrum']}, expect {expect_real}")
    return run


# Each experiment once: the config block it builds from, and the function
# that reads and checks, from the config and the built block, every value
# its run uses, and returns that run, a function of the open ``_Run``.
_RUNNERS = {"weyl": ("geometry", _weyl),
            "fgf_convergence": ("geometry", _fgf),
            "multiplier_profile": ("geometry", _multiplier),
            "impedance_check": ("geometry", _impedance),
            "acoustic_spectrum": ("mesh", _acoustic),
            "monte_carlo": ("mesh", _monte_carlo)}


def run(config, out_dir=None):
    """Execute one experiment; returns the saved RunManifest.  A config that
    cannot run raises ConfigError before anything is written (``prepare``);
    an exception inside the experiment's run becomes the failed assertion
    ``runner_error``."""
    experiment_run = prepare(config)
    from . import __version__
    out_dir = out_dir or config.run_dir()
    started = time.time()
    r = _Run(out_dir)
    try:
        experiment_run(r)
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

# artifact id -> (column, type) of the series, x and y of its plot data
_PLOT_COLUMNS = {"eigenvalues": (("sample_id", int), ("re", float), ("im", float)),
                 "profile": (("N_trunc", int), ("k", int), ("sigma_k", float))}
_PLOT_COLUMNS["cloud"] = _PLOT_COLUMNS["eigenvalues"]


def emit_plotdata(manifest, artifact_id, out_path=None):
    """Re-shape one artifact as long-format (series, x, y) CSV.  A weyl
    spectrum gets the series ``fit``, exp(log_c) n^slope over the fit range:
    the fit that the run's ``weyl.json`` records and its assertion checks."""
    arts = {a["id"]: a for a in manifest.artifacts}
    if artifact_id not in arts:
        raise ConfigError([f"unknown artifact id {artifact_id!r} (have {list(arts)})"])
    art = arts[artifact_id]
    if artifact_id not in ("spectrum", "ratios", *_PLOT_COLUMNS):
        raise ConfigError([f"artifact {artifact_id!r} has no plot-data mapping"])
    with open(art["path"]) as f:
        table = list(csv.DictReader(f))
    if artifact_id == "spectrum":
        with open(arts["weyl"]["path"]) as f:
            weyl = json.load(f)
        lo, hi = weyl["fit_range"]
        rows = [("mu", int(r["n"]), float(r["mu_n"])) for r in table]
        rows += [("fit", n, math.exp(weyl["log_c"]) * n ** weyl["slope"])
                 for n in range(lo, hi + 1)]
    elif artifact_id == "ratios":
        rows = [(f"s={r['s']}", float(r["t"]), float(r["median_ratio"])) for r in table]
    else:
        rows = [tuple(kind(r[c]) for c, kind in _PLOT_COLUMNS[artifact_id])
                for r in table]
    out_path = out_path or os.path.join(os.path.dirname(art["path"]),
                                        f"plot_{artifact_id}.csv")
    _write_csv(out_path, ["series", "x", "y"], rows)
    return out_path
