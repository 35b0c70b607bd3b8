import csv
import dataclasses
import importlib.util
import json
import math
import multiprocessing
import os

import numpy as np
import pytest

from acouz import acoustic as ac
from acouz import cli, fgf, harness, shapes
from acouz import impedance as imp
from acouz.boundary import weyl_diagnostic
from acouz.harness import build_geometry, build_spectrum
from acouz.impedance import (
    IMPEDANCE_KINDS, MULTIPLIER_KINDS, impedance_from_config, param_block,
)
from acouz.multipliers import TripleProductTensor


def _content_hash(config, workers, out_dir):
    cfg = harness.ExperimentConfig.from_dict({**config, "workers": workers})
    manifest = harness.run(cfg, str(out_dir))
    assert manifest.passed, manifest.assertions
    return manifest.content_hash()


@pytest.mark.parametrize("config", [
    {"experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.3},
     "params": {"n_samples": 4, "rspec": {"c": 1.0, "s": 0.3}}},
    {"experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.3},
     "params": {"impedance": {"kind": "constant"}}},
    # two boundary components, one kernel weight each
    {"experiment": "monte_carlo", "mesh": {"kind": "annulus", "h": 0.2},
     "params": {"n_samples": 3,
                "rspec": {"c": 1.0, "s": 0.3, "kernel_weights": [1.0, 1.0]}}},
], ids=["monte_carlo", "acoustic_spectrum", "monte_carlo_annulus"])
def test_same_config_same_checksums(config, tmp_path):
    hashes = {_content_hash(config, workers, tmp_path / f"{workers}_{rep}")
              for workers in (1, 2) for rep in range(2)}
    assert len(hashes) == 1


WEYL_CIRCLE = {"experiment": "weyl", "geometry": {"kind": "circle"},
               "params": {"N": 400}}
BOGUS_IMPEDANCE = {"experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.3},
                   "params": {"impedance": {"kind": "bogus"}}}
# A 1x1 matrix is shorter than the pencil's N_b: a config error.
SHORT_IMPEDANCE = {**BOGUS_IMPEDANCE,
                   "params": {"impedance": {"kind": "matrix", "re": [[1.0]]}}}


def _planted_failure(*args, **kwargs):
    raise RuntimeError("planted")


def test_runner_error_writes_failed_manifest(tmp_path, monkeypatch):
    monkeypatch.setattr(harness, "weyl_diagnostic", _planted_failure)
    cfg = harness.ExperimentConfig.from_dict(WEYL_CIRCLE)
    manifest = harness.run(cfg, str(tmp_path))
    saved = json.loads((tmp_path / "manifest.json").read_text())
    assert saved["passed"] is False and not manifest.passed
    [error] = [a for a in saved["assertions"] if a["name"] == harness.RUNNER_ERROR]
    assert not error["passed"]
    assert error["detail"] == "RuntimeError: planted"


@pytest.mark.parametrize("config, code", [
    (WEYL_CIRCLE, 0),
    ({**WEYL_CIRCLE, "experiment": "no_such_experiment"}, 1),
    ({**WEYL_CIRCLE, "params": {"N": 400, "expect_slope": 3.0}}, 2),
    (WEYL_CIRCLE, 3),
    (BOGUS_IMPEDANCE, 1),
    (SHORT_IMPEDANCE, 1),
], ids=["passed", "config_error", "failed_assertion", "runner_error",
        "impedance_kind", "short_impedance"])
def test_cli_exit_codes(config, code, tmp_path, monkeypatch):
    if code == 3:   # a failure inside the runner
        monkeypatch.setattr(harness, "weyl_diagnostic", _planted_failure)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == code


def _run_cli(config, tmp_path):
    """Exit code of `acouz run` on ``config`` and the assertions it saved."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    saved = json.loads((tmp_path / "out" / "manifest.json").read_text())
    return code, saved["assertions"]


@pytest.mark.parametrize("error, code", [(None, 0), (TypeError, 3)],
                         ids=["singular_shift", "bug_in_cayley"])
def test_impedance_check_catches_only_solver_errors(error, code, tmp_path,
                                                    monkeypatch):
    # z0 = -1 puts the eigenvalue -1 on Ztilde + I: cayley raises
    # SpectrumError, which a non-accretive Z may do; any other exception
    # from cayley is a bug and fails the run
    if error is not None:
        def broken(Z):
            raise error("planted")
        monkeypatch.setattr(harness, "cayley", broken)
    code_got, assertions = _run_cli(
        {"experiment": "impedance_check", "geometry": {"kind": "circle"},
         "params": {"impedance": {"kind": "constant", "z0": -1.0}}}, tmp_path)
    assert code_got == code
    names = [a["name"] for a in assertions]
    assert names == (["cayley_defined_for_accretive"] if error is None
                     else [harness.RUNNER_ERROR])


@pytest.mark.parametrize("params", [
    {"impedance": {"kind": "constant", "z0": 0.5}},
    {"N_b": 20, "impedance": {"kind": "cantor"}},
], ids=["constant", "cantor"])
def test_accretive_impedance_reaches_every_check(params, tmp_path):
    # the half-plane and resolvent checks run only for an accretive Z: an
    # impedance accretive by construction must reach and pass all four
    code, assertions = _run_cli({"experiment": "acoustic_spectrum",
                                 "mesh": {"kind": "disk", "h": 0.3},
                                 "params": params}, tmp_path)
    assert code == 0
    assert sorted(a["name"] for a in assertions) == [
        "certified_nonempty", "halfplane_confinement", "residuals_certified",
        "resolvent_bound"]
    assert all(a["passed"] for a in assertions)


def test_run_that_certifies_nothing_fails(tmp_path, monkeypatch):
    # an ARPACK stop certifies no eigenvalue, with no residual above tolerance
    solve = ac.solve_pencil

    def unconverged(pencil, n_wanted):
        return dataclasses.replace(solve(pencil, n_wanted), converged=False)

    monkeypatch.setattr(ac, "solve_pencil", unconverged)
    code, assertions = _run_cli({"experiment": "acoustic_spectrum",
                                 "mesh": {"kind": "disk", "h": 0.3},
                                 "params": {"impedance": {"kind": "constant"}}}, tmp_path)
    assert code == 2
    assert [a["name"] for a in assertions if not a["passed"]] == ["certified_nonempty"]


@pytest.mark.parametrize("config", [
    {"N_trunc": 64},
    # a spectrum of 128 modes read min_herm_eig -0.016 and cayley_norm 1.0012
    {"N_trunc": 100},
    {"impedance": {"kind": "cantor", "component": 1}},
], ids=["N_trunc_64", "N_trunc_100", "annulus_component_1"])
def test_cantor_impedance_reads_accretive(config, tmp_path, monkeypatch):
    # the spectrum holds every mode that the products of the kept modes
    # reach, so the compression of a positive measure is accretive
    monkeypatch.chdir(tmp_path)
    ac.annulus_mesh(0.3).boundary_geometry().save_json(ANNULUS_FILE)
    geometry = {"kind": "file", "path": ANNULUS_FILE} if "impedance" in config \
        else {"kind": "circle"}
    cfg = harness.ExperimentConfig.from_dict(
        {"experiment": "impedance_check", "geometry": geometry,
         "params": {"impedance": {"kind": "cantor"}, **config}})
    assert harness.run(cfg, "out").passed
    with open("out/impedance.json") as f:
        report = json.load(f)
    assert report["accretive"] and report["cayley_norm"] <= 1.0 + 1e-10, report


MONTE_CARLO = {"experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.3},
               "params": {"n_samples": 3}}
FGF_CIRCLE = {"experiment": "fgf_convergence", "geometry": {"kind": "circle"},
              "params": {"seeds": 30}}


@pytest.mark.parametrize("config, seed, message", [
    (MONTE_CARLO, -1, "-1..1"),
    (MONTE_CARLO, 2 ** 64 - 2, "18446744073709551614..18446744073709551616"),
    (FGF_CIRCLE, -1, "-1..28"),
    (FGF_CIRCLE, 2 ** 64 - 29, "18446744073709551587..18446744073709551616"),
], ids=["monte_carlo_negative", "monte_carlo_past_uint64", "fgf_negative",
        "fgf_past_uint64"])
@pytest.mark.parametrize("where", ["config", "option"])
def test_seed_that_cannot_key_a_stream_rejected_before_the_run(
        config, seed, message, where, tmp_path, monkeypatch, capsys):
    # validate printed `ok`; the Monte Carlo run failed every sample ("out of
    # bounds for uint64") and the classifier run ended in runner_error
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(
        json.dumps({**config, "seed": seed} if where == "config" else config))
    option = ["--seed", str(seed)] if where == "option" else []
    for command in ("validate", "run"):
        assert cli.main([command, "config.json", "--out", "out", *option]) == 1
        err = capsys.readouterr().err
        assert "config error: seed: the stream keys" in err and message in err
    assert not (tmp_path / "out").exists()
    # the last key that fits validates
    assert cli.main(["validate", "config.json", "--seed", str(2 ** 64 - 30)]) == 0


def test_kernel_weight_count_is_a_config_error(tmp_path, capsys):
    # the annulus has b0 = 2: one kernel weight is a config fault, reported
    # before the run, not as a failure of every sample
    path = tmp_path / "config.json"
    path.write_text(json.dumps(
        {"experiment": "monte_carlo", "mesh": {"kind": "annulus", "h": 0.2},
         "params": {"n_samples": 3,
                    "rspec": {"c": 1.0, "s": 0.3, "kernel_weights": [1.0]}}}))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == ("config error: ValueError: need zero or "
                                       "exactly b0=2 kernel weights, got 1\n")
    assert not (tmp_path / "out").exists()


def test_child_that_dies_is_a_runner_error(tmp_path, monkeypatch):
    parent = os.getpid()

    def dying(pencil, n_wanted=12):
        if os.getpid() == parent:
            raise AssertionError("a sample was solved in the parent process")
        os._exit(7)

    monkeypatch.setattr(ac, "solve_pencil", dying)
    code, assertions = _run_cli(
        {"experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.3},
         "workers": 2, "params": {"n_samples": 3, "rspec": {"c": 1.0, "s": 0.3}}},
        tmp_path)
    assert code == 3
    [error] = assertions
    assert error["name"] == harness.RUNNER_ERROR
    assert error["detail"].startswith("BrokenProcessPool: ")
    assert multiprocessing.active_children() == []


def test_workers_default_to_the_usable_cpus(monkeypatch):
    assert (harness.ExperimentConfig.from_dict(WEYL_CIRCLE).workers
            == len(os.sched_getaffinity(0)))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
    default = harness.ExperimentConfig.from_dict(WEYL_CIRCLE)
    assert default.workers == harness.ExperimentConfig("weyl").workers == 3
    one = harness.ExperimentConfig.from_dict({**WEYL_CIRCLE, "workers": 1})
    assert one.workers == 1
    assert one.content_hash() == default.content_hash()
    assert harness.validate_config(
        harness.ExperimentConfig.from_dict({**WEYL_CIRCLE, "workers": 0})
    ) == ["workers must be >= 1"]


def test_validate_rejects_bad_impedance_blocks(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BOGUS_IMPEDANCE))
    assert cli.main(["validate", str(path)]) == 1
    missing = harness.ExperimentConfig.from_dict(
        {"experiment": "impedance_check", "geometry": {"kind": "circle"}})
    assert harness.validate_config(missing) == [
        "experiment 'impedance_check' needs params.impedance"]


SPHERE_FILE = "sphere2.json"     # icosphere(2), 162 vertices: N <= 16


@pytest.mark.parametrize("config, message", [
    ({"experiment": "weyl", "geometry": {"kind": "sphere", "subdivisions": 3},
      "params": {"N": 400}}, "N=400 too large for a mesh with 642 vertices"),
    ({"experiment": "fgf_convergence", "geometry": {"kind": "sphere"}},
     "N=4096 too large for a mesh with 2562 vertices"),
    ({"experiment": "multiplier_profile",
      "geometry": {"kind": "sphere", "subdivisions": 3},
      "params": {"truncations": [32, 64]}},
     "N=148 too large for a mesh with 642 vertices"),
    ({"experiment": "weyl", "geometry": {"kind": "file", "path": SPHERE_FILE},
      "params": {"N": 40}}, "N=40 too large for a mesh with 162 vertices"),
    ({"experiment": "weyl", "geometry": {"kind": "file", "path": "broken.json"}},
     "cannot build the geometry block: JSONDecodeError"),
], ids=["weyl", "fgf_default_checkpoints", "multiplier_profile", "weyl_file",
        "unreadable_file"])
def test_surface_truncation_rejected_before_the_run(config, message, tmp_path,
                                                    monkeypatch, capsys):
    # the n/10 cap of build_surface_spectrum, read from the config alone
    monkeypatch.chdir(tmp_path)
    shapes.icosphere(2).save_json(SPHERE_FILE)
    (tmp_path / "broken.json").write_text("{")
    (tmp_path / "config.json").write_text(json.dumps(config))
    for command in ("validate", "run"):
        assert cli.main([command, "config.json", "--out", "out"]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "runs").exists()


def _malformed(block, vertex=None, value=None, append=False, collapse=False,
               field=None, count=None, loops=None, corner=None, pad=None):
    """The JSON of icosphere(3) (a geometry block) or of disk_mesh(0.3) (a
    mesh block) with one vertex set to ``value``, one vertex in no triangle
    appended, triangle 0 collapsed onto the midpoint of an edge, the
    material ``field`` set to ``value`` on ``count`` triangles (default all),
    the boundary loops ``loops(loop)`` of the disk's one loop, the last
    corner of triangle 1 set to ``corner``, or a 0 appended to each row of
    the array ``pad``."""
    d = (shapes.icosphere(3) if block == "geometry" else ac.disk_mesh(0.3)).to_dict()
    if corner is not None:
        d["triangles"][1][2] = corner
    if pad is not None:
        d[pad] = [[*row, 0] for row in d[pad]]
    if loops is not None:
        d["boundary_loops"] = loops(d["boundary_loops"][0])
    if field is not None:
        d[field] = [value] * (count or len(d["triangles"]))
        return d
    if vertex is not None:
        d["vertices"][vertex][0] = value
    if append:
        d["vertices"].append([2.0] * len(d["vertices"][0]))
    if collapse:
        a, b, c = d["triangles"][0]
        d["vertices"][c] = [(x + y) / 2 for x, y in zip(d["vertices"][a], d["vertices"][b])]
    return d


BAD_LOOPS = "boundary_loops are not the boundary of the triangulation"
MALFORMED_CURVE = {"dim": 2, "components": [[[0, 0], [1, 0], [math.inf, 1], [0, 1]]]}


@pytest.mark.parametrize("block, data, message", [
    ("geometry", _malformed("geometry", vertex=5, value=math.nan),
     "vertex 5 is not finite"),
    ("mesh", _malformed("mesh", vertex=5, value=math.nan), "vertex 5 is not finite"),
    ("geometry", MALFORMED_CURVE, "component 0 vertex 2 is not finite"),
    ("geometry", _malformed("geometry", append=True),
     "vertex 642 is a corner of no triangle"),
    ("mesh", _malformed("mesh", append=True), "is a corner of no triangle"),
    ("geometry", _malformed("geometry", collapse=True), "triangle 0 is degenerate"),
    # these three ran into a broadcast ValueError, or for the non-symmetric
    # tensor into a non-symmetric K that failed halfplane_confinement
    ("mesh", _malformed("mesh", field="alpha", value=1.0, count=3),
     "alpha has shape (3,), not (63,) or (63, 2, 2)"),
    ("mesh", _malformed("mesh", field="beta", value=1.0, count=3),
     "beta has shape (3,), not (63,)"),
    ("mesh", _malformed("mesh", field="alpha", value=[[1.0, 5.0], [0.0, 1.0]]),
     "alpha must be symmetric"),
    # the first two ran, and passed every assertion, on another problem; the
    # third failed in the solve with "Matrix is not positive definite"
    ("mesh", _malformed("mesh", loops=lambda loop: [loop[1:]]), BAD_LOOPS),
    ("mesh", _malformed("mesh", loops=lambda loop: [[0, *loop]]), BAD_LOOPS),
    ("mesh", _malformed("mesh", loops=lambda loop: [loop, loop]), BAD_LOOPS),
    ("mesh", _malformed("mesh", loops=lambda loop: [[*loop, 43]]),
     "boundary loop vertex 43 is not one of the 43 vertices"),
    # the first three failed with numpy's own messages, on a bincount or an
    # index; the fourth in a broadcast; the fifth built a mesh
    ("mesh", _malformed("mesh", corner=-1), "triangle 1 has a corner outside 0..42"),
    ("geometry", _malformed("geometry", corner=-1),
     "triangle 1 has a corner outside 0..641"),
    ("mesh", _malformed("mesh", corner=43), "triangle 1 has a corner outside 0..42"),
    ("mesh", _malformed("mesh", pad="triangles"),
     "a mesh needs (n,2) vertices and (m,3) triangles"),
    ("mesh", _malformed("mesh", pad="vertices"),
     "a mesh needs (n,2) vertices and (m,3) triangles"),
], ids=["surface_nan", "mesh_nan", "curve_inf", "surface_stray", "mesh_stray",
        "surface_zero_area", "alpha_length", "beta_length", "alpha_not_symmetric",
        "loop_vertex_dropped", "loop_interior_vertex", "loop_twice", "loop_out_of_range",
        "mesh_corner_negative", "surface_corner_negative", "mesh_corner_past_end",
        "mesh_four_corners", "mesh_three_coordinates"])
def test_malformed_file_rejected_before_the_run(block, data, message, tmp_path,
                                                monkeypatch, capsys):
    # each passes every check of the config alone; unless the geometry or
    # mesh build rejects it, validate prints ok and the solvers fail
    monkeypatch.chdir(tmp_path)
    (tmp_path / "shape.json").write_text(json.dumps(data))
    experiment = "weyl" if block == "geometry" else "acoustic_spectrum"
    (tmp_path / "config.json").write_text(json.dumps(
        {"experiment": experiment, block: {"kind": "file", "path": "shape.json"}}))
    for command in ("validate", "run"):
        assert cli.main([command, "config.json", "--out", "out"]) == 1
        err = capsys.readouterr().err
        assert f"cannot build the {block} block" in err and message in err
    assert not (tmp_path / "out").exists() and not (tmp_path / "runs").exists()


@pytest.mark.parametrize("params, message", [
    ({"seeds": 10}, "need at least 30 seeds"),
    ({"checkpoints": [64, 128, 256, 512]}, "need at least 4 doubling checkpoints"),
    ({"checkpoints": [64, 128, 256, 512, 1024, 1500]},
     "the last two checkpoints must be a doubling"),
    ({"checkpoints": [2048, 64, 128, 256, 512, 1024, 2048]},
     "checkpoints must be strictly increasing"),
], ids=["seeds", "doublings", "last_pair", "increasing"])
def test_classifier_schedule_rejected_before_the_run(params, message, tmp_path,
                                                     monkeypatch, capsys):
    # the seed, order and doubling rules of convergence_classifier, read from
    # the config
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(
        {"experiment": "fgf_convergence", "geometry": {"kind": "circle"},
         "params": params}))
    for command in ("validate", "run"):
        assert cli.main([command, "config.json", "--out", "out"]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "runs").exists()


@pytest.mark.parametrize("experiment", ["acoustic_spectrum", "monte_carlo"])
def test_trace_truncation_rejected_before_the_run(experiment, tmp_path, capsys,
                                                  monkeypatch):
    # N_b above the boundary dofs, read from the config: the spectrum follows N_b
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(
        {"experiment": experiment, "mesh": {"kind": "disk", "h": 0.3},
         "params": {"N_b": 500}}))
    for command in ("validate", "run"):
        assert cli.main([command, "config.json", "--out", "out"]) == 1
        assert "N_b=500 exceeds the 21 boundary dofs" in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "runs").exists()


ANNULUS_FILE = "annulus.json"     # two boundary components: b0 = 2


@pytest.mark.parametrize("config, message", [
    ({"experiment": "weyl", "geometry": {"kind": "circle"}, "params": {"N": 30}},
     "fit range too short"),
    ({"experiment": "weyl", "geometry": {"kind": "circle"},
      "params": {"N": 30, "fit_range": [21, 30]}}, "fit range too short"),
    ({"experiment": "weyl", "geometry": {"kind": "file", "path": ANNULUS_FILE},
      "params": {"N": 40, "fit_range": [2, 40]}}, "fit range must lie inside (b0, N]"),
    # used to end in "ValueError: too many values to unpack", naming no key
    ({"experiment": "weyl", "geometry": {"kind": "circle"},
      "params": {"N": 400, "fit_range": [21, 100, 200]}},
     "params.fit_range: fit range needs two indices [lo, hi]"),
    ({"experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.3},
      "params": {"N_b": 100}}, "N_b=100 exceeds the 21 boundary dofs"),
    ({"experiment": "monte_carlo", "mesh": {"kind": "annulus", "h": 0.3},
      "params": {"N_b": 50}}, "N_b=50 exceeds the 42 boundary dofs"),
    ({"experiment": "acoustic_spectrum",
      "mesh": {"kind": "polygon", "h": 0.3,
               "corners": [[0, 0], [1, 0], [1.2, 0.8], [0.1, 1]]},
      "params": {"N_b": 14}}, "N_b=14 exceeds the 13 boundary dofs"),
    ({"experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.3},
      "params": {"N_b": 0}}, "N_b=0 must be at least 1"),
    ({"experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.2},
      "params": {"rspec": {"c": 1.0, "s": 0.3, "kernel_weights": [1.0, 1.0]}}},
     "need zero or exactly b0=1 kernel weights, got 2"),
    ({"experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.2},
      "params": {"rspec": {"s": -1}}}, "the field index s must be positive"),
    ({"experiment": "acoustic_spectrum",
      "mesh": {"kind": "annulus", "h": 0.2, "r_inner": 1.2}},
     "cannot build the mesh block: MeshError: need 0 < r_inner < r_outer"),
    ({"experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.2},
      "params": {"impedance": {"kind": "matrix", "re": np.eye(2).tolist()}}},
     "impedance truncation 2 below N_b=15"),
    ({"experiment": "multiplier_profile", "geometry": {"kind": "circle"},
      "params": {"phi": {"component": 3}}},
     "component 3 is not one of the 1 boundary components"),
    ({"experiment": "multiplier_profile",
      "geometry": {"kind": "sphere", "subdivisions": 3},
      "params": {"truncations": [16, 24]}},
     "cantor_measure_coeffs needs a curve spectrum"),
], ids=["weyl_default_fit_range", "weyl_fit_range", "weyl_file_b0",
        "weyl_fit_range_length", "disk_N_b", "annulus_N_b", "polygon_N_b", "zero_N_b",
        "kernel_weight_count", "negative_field_index", "annulus_radii",
        "matrix_below_N_b", "cantor_component", "cantor_on_sphere"])
def test_runner_preconditions_rejected_before_the_run(config, message, tmp_path,
                                                      monkeypatch, capsys):
    # each precondition of a runner that a config can break, checked on the
    # built geometry or mesh before the run
    monkeypatch.chdir(tmp_path)
    ac.annulus_mesh(0.3).boundary_geometry().save_json(ANNULUS_FILE)
    (tmp_path / "config.json").write_text(json.dumps(config))
    for command in ("validate", "run"):
        assert cli.main([command, "config.json", "--out", "out"]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "runs").exists()


def test_run_builds_and_checks_once(tmp_path, monkeypatch):
    # one precondition pass per run: the polygon mesh built once, the file
    # geometry loaded once
    calls = []

    def counting(name, fn):
        return lambda *args, **kwargs: calls.append(name) or fn(*args, **kwargs)

    monkeypatch.setattr(harness, "prepare", counting("prepare", harness.prepare))
    monkeypatch.setattr(ac, "convex_polygon_mesh",
                        counting("polygon", ac.convex_polygon_mesh))
    monkeypatch.setattr(harness.BoundaryGeometry, "load_json",
                        counting("file", harness.BoundaryGeometry.load_json))
    shapes.regular_polygon_geometry(12).save_json(tmp_path / "polygon.json")
    for config, built in [
        ({"experiment": "acoustic_spectrum",
          "mesh": {"kind": "polygon", "h": 0.3,
                   "corners": [[0, 0], [1, 0], [1.2, 0.8], [0.1, 1]]}}, "polygon"),
        ({"experiment": "weyl", "geometry": {"kind": "file",
                                             "path": str(tmp_path / "polygon.json")}},
         "file")]:
        calls.clear()
        (tmp_path / built).mkdir()
        code, assertions = _run_cli(config, tmp_path / built)
        assert code == 0, assertions
        assert calls == ["prepare", built]


def test_fgf_defaults_read_once_by_validate_and_run(tmp_path, monkeypatch):
    # the seed count and checkpoints that validate checks are those run uses
    checked, classified = [], []
    schedule, classifier = harness.check_classifier_schedule, harness.convergence_classifier

    def checking(seeds, checkpoints):
        checked.append((seeds, list(checkpoints)))
        return schedule(seeds, checkpoints)

    def classifying(spec, s, t, checkpoints, paths, **kwargs):
        classified.append((len(paths), list(checkpoints)))
        return classifier(spec, s, t, checkpoints=checkpoints, paths=paths, **kwargs)

    monkeypatch.setattr(harness, "check_classifier_schedule", checking)
    monkeypatch.setattr(harness, "convergence_classifier", classifying)
    code, assertions = _run_cli({"experiment": "fgf_convergence",
                                 "geometry": {"kind": "circle"},
                                 "params": {"s_values": [1.0]}}, tmp_path)
    assert code == 0, assertions
    defaults = (fgf.FGF_SEEDS, list(fgf.FGF_CHECKPOINTS))
    assert checked and set(map(repr, checked)) == {repr(defaults)}
    assert len(classified) == 4 and set(map(repr, classified)) == {repr(defaults)}


def test_fgf_run_draws_each_path_once(tmp_path, monkeypatch):
    # one Gaussian stream per seed for all (s, t) cells, and the ratios of
    # a classifier that draws its own paths, byte for byte
    config = {"experiment": "fgf_convergence", "geometry": {"kind": "circle"},
              "seed": 7, "params": {"seeds": 30, "s_values": [1.0, 2.0]}}
    drawn = []
    stream = fgf.gaussian_stream
    monkeypatch.setattr(fgf, "gaussian_stream",
                        lambda seed, count: drawn.append(seed) or stream(seed, count))
    code, assertions = _run_cli(config, tmp_path)
    assert code == 0, assertions
    assert drawn == list(range(7, 37))
    with open(tmp_path / "out" / "ratios.csv") as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 8
    spec = build_spectrum(build_geometry(config["geometry"]), 4096)
    for row in rows:
        r = fgf.convergence_classifier(spec, float(row["s"]), float(row["t"]),
                                       fgf.gaussian_paths(range(7, 37), 4096))
        assert row["median_ratio"] == repr(r["median_ratio"])
        assert row["verdict"] == r["verdict"]


def test_default_sphere_weyl_runs_at_the_cap(tmp_path):
    # N defaults to min(400, vertices/10) on a surface: 256 on icosphere(4)
    code, assertions = _run_cli({"experiment": "weyl", "geometry": {"kind": "sphere"}},
                                tmp_path)
    assert code == 0, assertions
    with open(tmp_path / "out" / "spectrum.csv") as f:
        assert len(list(csv.DictReader(f))) == 256


def test_worker_count_changes_no_surface_hash(tmp_path):
    # the benchmark's weyl_sphere4 op: one window per child at two workers
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "weyl",
                                "geometry": {"kind": "sphere", "subdivisions": 4},
                                "params": {"N": 200}}))
    hashes = set()
    for workers in (1, 2):
        out = tmp_path / str(workers)
        assert cli.main(["run", str(path), "--seed", "3", "--workers", str(workers),
                         "--out", str(out)]) == 0
        hashes.add(json.loads((out / "manifest.json").read_text())["content_hash"])
        assert multiprocessing.active_children() == []
    assert len(hashes) == 1


PROFILE = {"experiment": "multiplier_profile", "geometry": {"kind": "circle"},
           "params": {"truncations": [16, 32], "ranks": [1, 2]}}
IMPEDANCE_N8 = {"experiment": "impedance_check", "geometry": {"kind": "circle"},
                "params": {"N_trunc": 8}}


@pytest.mark.parametrize("block", [
    {"phi": {"ratio": 0.6}},
    {"phi": {"kind": "cantor", "ratio": 0.0}},
    {"phi": {"kind": "cantor", "ratio": "third"}},
    {"phi": {"kind": "bogus"}},
    {"phi": {"kind": "symbol", "c1": 1.0, "c2": 1.0, "t": 0.5}},
    {"phi": [1, 2]},
    {"impedance": {"kind": "cantor", "ratio": 0.5}},
], ids=["phi_ratio", "phi_ratio_zero", "phi_ratio_string", "phi_kind",
        "phi_not_a_multiplier", "phi_list", "impedance_ratio"])
def test_validate_rejects_bad_phi_blocks(block, tmp_path, capsys):
    # each block in the experiment that reads it: a multiplier profile reads
    # phi, an impedance check its impedance
    [key] = block
    config = PROFILE if key == "phi" else IMPEDANCE_N8
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**config, "params": {**config["params"], **block}}))
    assert cli.main(["validate", str(path)]) == 1
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    name = "params." + key
    assert any(line.startswith("config error: ") and name in line
               for line in capsys.readouterr().err.splitlines())


def _params(config, **params):
    return {**config, "params": {**config["params"], **params}}


DISK_IMPEDANCE = {"experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.3},
                  "params": {}}


@pytest.mark.parametrize("config, parses", [
    (_params(DISK_IMPEDANCE, impedance={"kind": "constant"}), 1),
    (_params(DISK_IMPEDANCE, impedance={"kind": "matrix", "re": np.eye(10).tolist()}), 1),
    (_params(IMPEDANCE_N8, impedance={"kind": "cantor"}), 1),
    (PROFILE, 1),
    (WEYL_CIRCLE, 0),
    # blocks an experiment does not use are unread keys, as unknown keys are
    (_params(PROFILE, impedance={"kind": "bogus"}), 1),
    (_params(WEYL_CIRCLE, impedance={"kind": "bogus"}, phi=[1, 2]), 0),
], ids=["acoustic_constant", "acoustic_matrix", "impedance_check_cantor",
        "multiplier_profile", "weyl", "multiplier_profile_unused_impedance",
        "weyl_unused_blocks"])
def test_each_used_block_parsed_once(config, parses, tmp_path, monkeypatch):
    # validate and run each parse once each block their experiment uses: the
    # prepare step parses it, and the runner builds from that parse
    calls = []
    block_args = imp._block_args
    monkeypatch.setattr(imp, "_block_args",
                        lambda *args: calls.append(args) or block_args(*args))
    (tmp_path / "config.json").write_text(json.dumps(config))
    for command in ("validate", "run"):
        calls.clear()
        assert cli.main([command, str(tmp_path / "config.json"),
                         "--out", str(tmp_path / "out")]) == 0
        assert len(calls) == parses, command


@pytest.mark.parametrize("config, message", [
    (_params(IMPEDANCE_N8, impedance={"kind": "multiplier", "coeffs_re": [1.0, 0.0, 0.0],
                                      "coeffs_im": [0.0, 0.0]}),
     "params.impedance: SpectrumError: coeffs_re and coeffs_im differ in shape"),
    (_params(IMPEDANCE_N8, impedance={"kind": "matrix", "re": [[1, 0, 0], [0, 1, 0]]}),
     "params.impedance: SpectrumError: impedance matrix must be square"),
    (_params(IMPEDANCE_N8, impedance={"kind": "symbol", "c1": -1, "c2": 1, "t": 1}),
     "params.impedance: SpectrumError: symbol shift c1 must be nonnegative"),
    # a 1x2 im used to broadcast row-wise onto the 2x2 re, and the run passed
    (_params(IMPEDANCE_N8, impedance={"kind": "matrix", "re": [[1, 0], [0, 1]],
                                      "im": [[1, 2]]}),
     "params.impedance: SpectrumError: re and im differ in shape"),
    (_params(PROFILE, ranks=[0, 1]), "rank 0 outside 1..16"),
    (_params(PROFILE, truncations=[0, 16]), "truncation 0 must be at least 1"),
    ({"experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.3},
      "params": {"n_wanted": 0}}, "params.n_wanted must be at least 1"),
    ({"experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.3},
      "params": {"n_samples": 0, "rspec": {"c": 1.0, "s": 0.3}}},
     "params.n_samples must be at least 1"),
    # each of these also printed `ok`, and its run ended in runner_error
    (_params(PROFILE, ranks=[1.5, 2]), "each entry of params.ranks must be an integer"),
    ({"experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.3},
      "params": {"n_wanted": 2.5}}, "params.n_wanted must be an integer, not 2.5"),
    ({"experiment": "weyl", "geometry": {"kind": "circle"},
      "params": {"slope_tol": "abc"}}, "params.slope_tol must be a real number"),
    ({"experiment": "fgf_convergence", "geometry": {"kind": "circle"},
      "params": {"seeds": 30.5}}, "params.seeds must be an integer, not 30.5"),
    ({"experiment": "fgf_convergence", "geometry": {"kind": "circle"},
      "params": {"s_values": ["a"]}}, "each entry of params.s_values must be a real number"),
    (_params(PROFILE, s1="x"), "params.s1 must be a real number"),
    ({"experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.3},
      "params": {"n_samples": 2.5}}, "params.n_samples must be an integer, not 2.5"),
    (_params(IMPEDANCE_N8, N_trunc=4.5, impedance={"kind": "constant"}),
     "params.N_trunc must be an integer, not 4.5"),
    # the tolerances block is gone: positivity_test derives its tolerance
    ({**PROFILE, "tolerances": {"psd_tol": "tiny"}},
     "unknown config keys: ['tolerances']"),
    (_params(PROFILE, stability_tol=[0.1]), "params.stability_tol must be a real number"),
    # a JSON bool or a float of integer value is not a count either
    (_params(IMPEDANCE_N8, N_trunc=2.0, impedance={"kind": "constant"}),
     "params.N_trunc must be an integer, not 2.0"),
    ({"experiment": "fgf_convergence", "geometry": {"kind": "circle"},
      "params": {"seeds": True}}, "params.seeds must be an integer, not True"),
    # an empty t_values used to run no cell and pass
    ({"experiment": "fgf_convergence", "geometry": {"kind": "circle"},
      "params": {"t_values": []}}, "params.t_values must be a non-empty list"),
    # used to end in an AttributeError traceback from both commands
    ({"experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.3},
      "params": {"rspec": [1.0, 0.3]}}, "params.rspec must be a JSON object"),
    # the fit rules of a block name it, as the rules that need no spectrum do
    (_params(IMPEDANCE_N8, impedance={"kind": "cantor", "component": 3}),
     "params.impedance: SpectrumError: component 3 is not one of"),
    (_params(PROFILE, phi={"component": 3}),
     "params.phi: SpectrumError: component 3 is not one of"),
    ({"experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.3},
      "params": {"impedance": {"kind": "cantor", "component": 1}}},
     "params.impedance: SpectrumError: component 1 is not one of"),
    # (mu + 0)^(t/2) is infinite at mu = 0: the first wrote accretive and
    # selfadjoint true, the second ended in a singular P(shift)
    (_params(IMPEDANCE_N8, impedance={"kind": "symbol", "c1": 0, "c2": 1, "t": -1}),
     "params.impedance: SpectrumError: symbol shift c1 must be positive when t < 0"),
    ({"experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.3},
      "params": {"impedance": {"kind": "symbol", "c1": 0.0, "c2": 1.0, "t": -1.0}}},
     "params.impedance: SpectrumError: symbol shift c1 must be positive when t < 0"),
    # the first two ended in a QhullError traceback, the third ran on a mesh
    # with no interior vertex
    ({"experiment": "acoustic_spectrum",
      "mesh": {"kind": "polygon", "h": 0.2, "corners": [[0, 0], [1, 0]]}},
     "cannot build the mesh block: MeshError: a polygon needs at least 3 corners"),
    ({"experiment": "acoustic_spectrum",
      "mesh": {"kind": "polygon", "h": 0.2, "corners": [[0, 0], [1, 0], [2, 0]]}},
     "cannot build the mesh block: MeshError: polygon corners must form"),
    ({"experiment": "acoustic_spectrum",
      "mesh": {"kind": "polygon", "h": 0.2, "corners": [[0, 0], [0, 1], [1, 1], [1, 0]]}},
     "cannot build the mesh block: MeshError: polygon corners must form"),
], ids=["coeffs_unequal", "matrix_not_square",
        "symbol_shift", "matrix_im_shape", "rank_zero",
        "truncation_zero", "n_wanted_zero", "n_samples_zero", "rank_float",
        "n_wanted_float", "slope_tol_string", "seeds_float", "s_values_string",
        "s1_string", "n_samples_float", "N_trunc_float", "psd_tol_string",
        "stability_tol_list", "N_trunc_integral_float", "seeds_bool", "t_values_empty",
        "rspec_list", "impedance_named", "phi_named", "acoustic_impedance_named",
        "symbol_zero_shift_negative_t", "acoustic_symbol_zero_shift_negative_t",
        "polygon_two_corners", "polygon_collinear",
        "polygon_clockwise"])
def test_block_and_count_rules_rejected_before_the_run(config, message, tmp_path,
                                                       monkeypatch, capsys):
    # each config printed `ok` from validate, and its run failed or, for the
    # im of another shape, built an operator the config does not describe
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(config))
    for command in ("validate", "run"):
        assert cli.main([command, "config.json", "--out", "out"]) == 1
        assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists() and not (tmp_path / "runs").exists()


PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")


def _perfbench_workloads():
    """``perfbench/workloads.py``, read from the file without importing the
    benchmark package."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(PERFBENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _perfbench_workloads()


def _benchmark_ops():
    """(workload, op) of every op of the benchmark."""
    return [(name, op) for name, w in workloads.WORKLOADS.items() for op in w["ops"]]


@pytest.mark.parametrize("workload, op", _benchmark_ops(),
                         ids=lambda x: x if isinstance(x, str) else x["name"])
def test_benchmark_configs_validate(workload, op):
    # the benchmark runs these configs as they are, with keys such as
    # "resolvent" and a Cantor "samples" that no code reads: a stricter
    # config reader must still accept every one
    assert harness.validate_config(harness.ExperimentConfig.from_dict(op["config"])) == []


BENCHMARK_REFERENCES = workloads.load_references(
    os.path.join(PERFBENCH, "references.json"))


@pytest.mark.parametrize("name", sorted(BENCHMARK_REFERENCES))
def test_benchmark_references_hold(name, tmp_path):
    # every op with stored values, run and checked as the benchmark checks
    # it, so that a drift past the benchmark's tolerance fails here
    [op] = [op for _, op in _benchmark_ops() if op["name"] == name]
    cfg = harness.ExperimentConfig.from_dict(op["config"])
    manifest = harness.run(cfg, str(tmp_path))
    assert manifest.passed, manifest.assertions
    observed = workloads.observe(cfg.experiment, str(tmp_path))
    assert workloads.check(observed, BENCHMARK_REFERENCES[name]) == []


def test_multiplier_profile_ignores_the_seed(tmp_path):
    # the Cantor coefficients are exact: the former sampler keys are accepted
    # and ignored, and every artifact is the same at any seed (the manifest's
    # content_hash also covers the config, and so the seed)
    config = {**PROFILE, "params": {**PROFILE["params"],
                                    "phi": {"kind": "cantor", "samples": 1000}}}
    artifacts = []
    for seed in (0, 5):
        cfg = harness.ExperimentConfig.from_dict({**config, "seed": seed})
        manifest = harness.run(cfg, str(tmp_path / str(seed)))
        assert manifest.passed, manifest.assertions
        artifacts.append([(a["id"], a["sha256"]) for a in manifest.artifacts])
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("command, text, extra", [
    ("run", json.dumps({**WEYL_CIRCLE, "seed": "abc"}), []),
    ("validate", json.dumps({**WEYL_CIRCLE, "seed": 2.5}), []),
    ("run", json.dumps({**WEYL_CIRCLE, "params": [1, 2]}), []),
    ("run", json.dumps({**WEYL_CIRCLE, "out_dir": 5}), []),
    ("validate", json.dumps({**WEYL_CIRCLE, "geometry": "circle"}), []),
    # an unhashable kind used to end in a TypeError traceback
    ("validate", json.dumps({**WEYL_CIRCLE, "geometry": {"kind": ["circle"]}}), []),
    ("run", json.dumps(WEYL_CIRCLE), ["--override", "seed.x=1"]),
    ("run", json.dumps(WEYL_CIRCLE), ["--override", "params.N.x=3"]),
    ("run", "{not json", []),
    ("run", None, []),
], ids=["seed_string", "seed_float", "params_list", "out_dir_number", "geometry_string",
        "geometry_kind_list", "override_seed", "override_through_int", "invalid_json",
        "missing_file"])
def test_malformed_config_is_a_config_error(command, text, extra, tmp_path, capsys):
    path = tmp_path / "config.json"
    if text is not None:
        path.write_text(text)
    argv = [command, str(path), *extra]
    assert cli.main(argv) == 1
    assert any(line.startswith("config error: ")
               for line in capsys.readouterr().err.splitlines())


MINIMAL_IMPEDANCE = {
    "zero": {},
    "constant": {},
    "multiplier": {"coeffs_re": [1.0], "coeffs_im": [0.5]},
    "cantor": {"samples": 1000},
    "symbol": {"c1": 1.0, "c2": 1.0, "t": 0.5},
    "matrix": {"re": [[1.0, 0.0], [0.0, 2.0]]},
}


@pytest.mark.parametrize("kind", IMPEDANCE_KINDS)
def test_every_impedance_kind_validates_and_builds(kind):
    impedance = {"kind": kind, **MINIMAL_IMPEDANCE[kind]}
    cfg = harness.ExperimentConfig.from_dict({
        "experiment": "impedance_check", "geometry": {"kind": "circle"},
        "params": {"impedance": impedance}})
    assert harness.validate_config(cfg) == []
    spec = build_spectrum(build_geometry(cfg.geometry), 16)
    block = param_block(cfg.params, "impedance")
    assert impedance_from_config(spec, block, N_trunc=2).N_trunc == 2


CIRCLE_FILE, DISK_FILE = "circle.json", "disk.json"
# (block, kind) -> each key the config reader types: a value that validates,
# and its rule
TYPED_KEYS = {
    ("geometry", "circle"): {"perimeter": (6.0, "positive"),
                             "segments": (64, "integer")},
    ("geometry", "polygon"): {"sides": (64, "integer"),
                              "circumradius": (1.0, "positive")},
    ("geometry", "sphere"): {"subdivisions": (2, "integer"),
                             "radius": (1.0, "positive")},
    ("geometry", "file"): {"path": (CIRCLE_FILE, "string")},
    ("mesh", "disk"): {"h": (0.3, "positive"), "radius": (1.0, "positive")},
    ("mesh", "annulus"): {"h": (0.3, "positive"), "r_inner": (0.5, "real"),
                          "r_outer": (1.0, "real")},
    ("mesh", "polygon"): {"corners": ([[0, 0], [1, 0], [1, 1], [0, 1]], "list"),
                          "h": (0.3, "positive")},
    ("mesh", "file"): {"path": (DISK_FILE, "string")},
    ("impedance", "zero"): {},
    ("impedance", "constant"): {"z0": (2.0, "real")},
    ("impedance", "multiplier"): {"coeffs_re": ([1.0], "list"),
                                  "coeffs_im": ([0.5], "list")},
    ("impedance", "cantor"): {"ratio": (0.25, "real"), "component": (0, "integer"),
                              "scale_re": (1.0, "real"), "scale_im": (0.0, "real")},
    ("impedance", "symbol"): {"c1": (1.0, "real"), "c2": (1.0, "real"),
                              "t": (0.5, "real"), "sign": (-1, "real"),
                              "imaginary": (True, "bool")},
    ("impedance", "matrix"): {"re": ([[1.0, 0.0], [0.0, 2.0]], "list"),
                              "im": ([[0.0, 1.0], [-1.0, 0.0]], "list")},
    ("rspec", None): {"c": (1.0, "real"), "s": (0.3, "real"),
                      "kernel_weights": ([1.0], "list")},
}
TYPED_KEYS.update({("phi", kind): TYPED_KEYS["impedance", kind]
                   for kind in MULTIPLIER_KINDS})


def _first_number(value, bad):
    """``value``, a number or a list of them (perhaps of lists), with its
    first number set to ``bad``."""
    return [_first_number(value[0], bad), *value[1:]] if isinstance(value, list) else bad


# rule -> values of another type: a string or a number where the rule wants
# the other, a bool, a fraction or a negative where it wants an integer, a
# non-finite number (json.load reads NaN and Infinity) where it wants a real,
# and zero or a negative where it wants a length or a mesh size; a list also
# takes a string and a bool as its first number
NON_FINITE = [math.nan, math.inf, -math.inf]
BAD_VALUES = {"real": ["1.5", True, *NON_FINITE],
              "positive": ["1.5", True, 0, -0.1, -1, -6.0, *NON_FINITE],
              "integer": ["2", True, 2.5, -1],
              "string": [0, True], "bool": ["false", 1], "list": ["1.5", True, 1.5]}


def _typed_config(block, kind, **values):
    """A config whose ``block`` of ``kind`` carries ``values`` over the
    valid value of each typed key."""
    spec = {**({} if kind is None else {"kind": kind}),
            **{key: v for key, (v, _) in TYPED_KEYS[block, kind].items()}, **values}
    if block == "geometry":
        return {**_params(IMPEDANCE_N8, impedance={"kind": "zero"}), "geometry": spec}
    if block == "mesh":
        return {"experiment": "acoustic_spectrum", "mesh": spec}
    if block == "rspec":
        return {"experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.3},
                "params": {"rspec": spec}}
    return _params(IMPEDANCE_N8 if block == "impedance" else PROFILE, **{block: spec})


def _typed_cases():
    for (block, kind), keys in TYPED_KEYS.items():
        for key, (valid, rule) in keys.items():
            entries = ([_first_number(valid, x) for x in ("1.5", True)]
                       if rule == "list" else [])
            for bad in BAD_VALUES[rule] + entries:
                yield pytest.param(block, kind, key, bad,
                                   id=f"{block}-{kind}-{key}-{json.dumps(bad)}")


def _write_typed_files(tmp_path):
    shapes.scaled_circle_by_perimeter(6.0, n_segments=64).save_json(
        str(tmp_path / CIRCLE_FILE))
    ac.disk_mesh(0.3).save_json(str(tmp_path / DISK_FILE))


def test_typed_keys_cover_every_kind():
    # a kind added later without its typed keys fails here
    for name, kinds in (("geometry", harness._geometry_kinds),
                        ("mesh", harness._mesh_kinds), ("impedance", IMPEDANCE_KINDS)):
        assert {kind for block, kind in TYPED_KEYS if block == name} == set(kinds)


@pytest.mark.parametrize("block, kind", list(TYPED_KEYS))
def test_typed_keys_validate_as_given(block, kind, tmp_path, monkeypatch):
    # the baseline of the next test: with every typed key valid, each config
    # validates
    monkeypatch.chdir(tmp_path)
    _write_typed_files(tmp_path)
    cfg = harness.ExperimentConfig.from_dict(_typed_config(block, kind))
    assert harness.validate_config(cfg) == []


@pytest.mark.parametrize("block, kind, key, bad", _typed_cases())
def test_every_typed_key_rejects_another_type(block, kind, key, bad, tmp_path,
                                              monkeypatch, capsys):
    # most of these printed `ok` from validate before one reader typed every
    # value (a "path": 0 read its JSON from stdin); the reader rejects each
    # before anything is built or opened
    monkeypatch.chdir(tmp_path)
    _write_typed_files(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(_typed_config(block, kind,
                                                                   **{key: bad})))
    for command in ("validate", "run"):
        assert cli.main([command, "config.json", "--out", "out"]) == 1
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("config error: ") and key in line, line
    assert not (tmp_path / "out").exists() and not (tmp_path / "runs").exists()


def test_run_without_out_prints_existing_manifest(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**WEYL_CIRCLE, "out_dir": str(tmp_path / "runs")}))
    assert cli.main(["run", str(path)]) == 0
    [line] = [l for l in capsys.readouterr().out.splitlines()
              if l.startswith("manifest: ")]
    manifest = line.removeprefix("manifest: ")
    assert manifest.startswith(str(tmp_path / "runs")) and os.path.exists(manifest)


@pytest.mark.parametrize("config, artifacts", [
    (WEYL_CIRCLE, {"spectrum", "weyl"}),
    ({"experiment": "fgf_convergence", "geometry": {"kind": "circle"},
      "params": {"seeds": 30, "s_values": [1.0]}}, {"ratios", "verdicts"}),
    ({"experiment": "multiplier_profile", "geometry": {"kind": "circle"},
      "params": {"phi": {"kind": "cantor"},
                 "truncations": [32, 64], "ranks": [1, 2, 4]}},
     {"profile", "summary"}),
    ({"experiment": "impedance_check", "geometry": {"kind": "circle"},
      "params": {"N_trunc": 32, "impedance": {"kind": "constant"}}},
     {"impedance"}),
    ({"experiment": "impedance_check", "geometry": {"kind": "sphere", "subdivisions": 2},
      "params": {"N_trunc": 8, "impedance": {"kind": "constant"}}},
     {"impedance"}),
], ids=["weyl", "fgf_convergence", "multiplier_profile", "impedance_check",
        "impedance_check_sphere"])
def test_manifest_roundtrip(config, artifacts, tmp_path):
    cfg = harness.ExperimentConfig.from_dict(config)
    manifest = harness.run(cfg, str(tmp_path))
    assert manifest.passed, manifest.assertions
    assert {a["id"] for a in manifest.artifacts} == artifacts
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        [f"{a['id']}.{a['path'].rsplit('.', 1)[1]}" for a in manifest.artifacts]
        + ["manifest.json"])
    back = harness.RunManifest.load(tmp_path / "manifest.json")
    assert back.content_hash() == manifest.content_hash()


def test_weyl_on_surface_reads_mu_without_modes():
    geom = build_geometry({"kind": "sphere", "subdivisions": 3})
    lean, full = build_spectrum(geom, 64), build_spectrum(geom, 64, modes=True)
    assert lean.modes is None and full.modes is not None
    assert np.abs(lean.mu - full.mu).max() <= 1e-12 * full.mu.max()
    fit = (21, 64)
    assert weyl_diagnostic(lean, fit)["slope"] == pytest.approx(
        weyl_diagnostic(full, fit)["slope"], abs=1e-12)


def test_profile_rows_labelled_with_their_rank(tmp_path):
    # ranks past the smaller truncation are dropped, and not in ascending order
    cfg = harness.ExperimentConfig.from_dict({
        "experiment": "multiplier_profile", "geometry": {"kind": "circle"},
        "params": {"phi": {"kind": "cantor"},
                   "truncations": [16, 32], "ranks": [32, 1]}})
    manifest = harness.run(cfg, str(tmp_path))
    assert manifest.passed, manifest.assertions
    with open(tmp_path / "profile.csv") as f:
        rows = list(csv.DictReader(f))
    norms = json.loads((tmp_path / "summary.json").read_text())["norms"]
    assert [(r["k"], r["N_trunc"]) for r in rows] == [("1", "16"), ("32", "32"),
                                                      ("1", "32")]
    for r in rows:
        if r["k"] == "1":
            assert float(r["sigma_k"]) == pytest.approx(norms[r["N_trunc"]], rel=1e-12)


def test_one_contraction_per_truncation(tmp_path, monkeypatch):
    # positivity reads the compression the profile loop built at min(truncations)
    calls = []
    contract = TripleProductTensor.contract

    def counting(self, coeffs, N_trunc):
        calls.append(N_trunc)
        return contract(self, coeffs, N_trunc)

    monkeypatch.setattr(TripleProductTensor, "contract", counting)
    cfg = harness.ExperimentConfig.from_dict({
        "experiment": "multiplier_profile", "geometry": {"kind": "circle"},
        "params": {"phi": {"kind": "cantor"},
                   "truncations": [16, 32], "ranks": [1, 2]}})
    manifest = harness.run(cfg, str(tmp_path))
    assert manifest.passed, manifest.assertions
    assert calls == [16, 32]


def test_monte_carlo_accretive_side_has_no_real_spectrum(tmp_path):
    cfg = harness.ExperimentConfig.from_dict({
        "experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.3},
        "params": {"n_samples": 3,
                   "rspec": {"c": 1.0, "s": 0.3, "kernel_weights": [1.0]}}})
    manifest = harness.run(cfg, str(tmp_path))
    assert manifest.passed, manifest.assertions
    summary = json.loads((tmp_path / "ensemble.json").read_text())
    assert summary["n_solved"] == 3
    assert summary["fraction_real_spectrum"] == 0
    assert summary["fraction_halfplane"] == 1


EMIT_PLOT_RUNS = [
    ("spectrum", WEYL_CIRCLE),
    ("ratios", {"experiment": "fgf_convergence", "geometry": {"kind": "circle"},
                "params": {"seeds": 30, "s_values": [1.0]}}),
    ("profile", {"experiment": "multiplier_profile", "geometry": {"kind": "circle"},
                 "params": {"phi": {"kind": "cantor"},
                            "truncations": [32, 64], "ranks": [1, 2, 4]}}),
    ("eigenvalues", {"experiment": "acoustic_spectrum",
                     "mesh": {"kind": "disk", "h": 0.3},
                     "params": {"impedance": {"kind": "constant"}}}),
    ("cloud", {"experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.3},
               "params": {"n_samples": 2, "rspec": {"c": 1.0, "s": 0.3}}}),
]


@pytest.mark.parametrize("artifact, config", EMIT_PLOT_RUNS,
                         ids=[a for a, _ in EMIT_PLOT_RUNS])
def test_emit_plot_writes_long_format(artifact, config, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
    manifest = str(tmp_path / "out" / "manifest.json")
    capsys.readouterr()
    assert cli.main(["emit-plot", manifest, artifact]) == 0
    plot = capsys.readouterr().out.strip()
    assert plot == str(tmp_path / "out" / f"plot_{artifact}.csv")
    with open(plot) as f:
        header, *rows = f.read().splitlines()
    assert header == "series,x,y"
    assert len(rows) > 0
    assert cli.main(["emit-plot", manifest, "no_such_artifact"]) == 1


def test_emit_plot_draws_the_asserted_weyl_fit(tmp_path):
    # the fit series is the line of weyl.json over its fit range: a refit
    # over every positive mu_n drew slope 1.00235 here, against 0.98522
    manifest = harness.run(harness.ExperimentConfig.from_dict(
        {"experiment": "weyl", "geometry": {"kind": "sphere", "subdivisions": 4}}),
        str(tmp_path))
    assert manifest.passed, manifest.assertions
    weyl = json.loads((tmp_path / "weyl.json").read_text())
    with open(harness.emit_plotdata(manifest, "spectrum")) as f:
        fit = [(int(r["x"]), float(r["y"])) for r in csv.DictReader(f)
               if r["series"] == "fit"]
    n, y = np.array(fit).T
    lo, hi = weyl["fit_range"]
    assert n.tolist() == list(range(lo, hi + 1))
    slope, log_c = np.polyfit(np.log(n), np.log(y), 1)
    assert slope == pytest.approx(weyl["slope"], abs=1e-12)
    assert log_c == pytest.approx(weyl["log_c"], abs=1e-12)


@pytest.mark.parametrize("text", [None, "{not json", "{}"],
                         ids=["missing", "invalid_json", "not_a_manifest"])
def test_emit_plot_bad_manifest_is_an_error(text, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["emit-plot", str(path), "spectrum"]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot load {path}: ")


def test_emit_plot_reads_the_run_it_is_given(tmp_path, monkeypatch, capsys):
    # the manifest records paths relative to where the run was started: a
    # moved run, or one read from another directory, ended in a
    # FileNotFoundError traceback for run1/spectrum.csv
    monkeypatch.chdir(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(WEYL_CIRCLE))
    assert cli.main(["run", "config.json", "--out", "run1"]) == 0
    os.rename("run1", "run2")
    capsys.readouterr()
    assert cli.main(["emit-plot", os.path.join("run2", "manifest.json"), "spectrum"]) == 0
    assert capsys.readouterr().out.strip() == os.path.join("run2", "plot_spectrum.csv")
    os.remove(os.path.join("run2", "plot_spectrum.csv"))
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    manifest = os.path.join(os.pardir, "run2", "manifest.json")
    assert cli.main(["emit-plot", manifest, "spectrum"]) == 0
    assert (tmp_path / "run2" / "plot_spectrum.csv").is_file()
    capsys.readouterr()
    os.remove(os.path.join(os.pardir, "run2", "spectrum.csv"))
    assert cli.main(["emit-plot", manifest, "spectrum"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "spectrum.csv" in err


@pytest.mark.parametrize("stability_tol, code", [(0.05, 0), (0.01, 2)])
def test_norm_stabilizes_checked(stability_tol, code, tmp_path):
    # the Cantor norms at truncations 32 and 64 differ by 0.0144 relative
    config = _params(EMIT_PLOT_RUNS[2][1], stability_tol=stability_tol)
    (tmp_path / "config.json").write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main(["run", str(tmp_path / "config.json"), "--out", str(out)]) == code
    assertions = json.loads((out / "manifest.json").read_text())["assertions"]
    [check] = [a for a in assertions if a["name"] == "norm_stabilizes"]
    assert check["detail"] == "rel change 0.0144"
    assert [a["name"] for a in assertions if not a["passed"]] == (
        ["norm_stabilizes"] if code else [])
