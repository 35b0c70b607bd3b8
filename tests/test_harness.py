import csv
import json
import multiprocessing
import os

import numpy as np
import pytest

from acouz import acoustic as ac
from acouz import cli, harness
from acouz.boundary import weyl_diagnostic
from acouz.harness import build_geometry, build_spectrum
from acouz.impedance import IMPEDANCE_KINDS, impedance_from_config
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
# Valid, but a 1x1 matrix is shorter than the pencil's N_b: only the run finds it.
SHORT_IMPEDANCE = {**BOGUS_IMPEDANCE,
                   "params": {"impedance": {"kind": "matrix", "re": [[1.0]]}}}


def test_runner_error_writes_failed_manifest(tmp_path):
    cfg = harness.ExperimentConfig.from_dict(SHORT_IMPEDANCE)
    manifest = harness.run(cfg, str(tmp_path))
    saved = json.loads((tmp_path / "manifest.json").read_text())
    assert saved["passed"] is False and not manifest.passed
    [error] = [a for a in saved["assertions"] if a["name"] == harness.RUNNER_ERROR]
    assert not error["passed"]
    assert error["detail"] == "SpectrumError: impedance truncation 1 below N_b=10"


@pytest.mark.parametrize("config, code", [
    (WEYL_CIRCLE, 0),
    ({**WEYL_CIRCLE, "experiment": "no_such_experiment"}, 1),
    ({**WEYL_CIRCLE, "params": {"N": 400, "expect_slope": 3.0}}, 2),
    (SHORT_IMPEDANCE, 3),
    (BOGUS_IMPEDANCE, 1),
], ids=["passed", "config_error", "failed_assertion", "runner_error",
        "impedance_kind"])
def test_cli_exit_codes(config, code, tmp_path):
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


def test_kernel_weight_count_is_one_runner_error(tmp_path):
    # the annulus has b0 = 2: one kernel weight is a config fault, reported
    # once before any sample is drawn, not as a failure of every sample
    code, assertions = _run_cli(
        {"experiment": "monte_carlo", "mesh": {"kind": "annulus", "h": 0.2},
         "params": {"n_samples": 3,
                    "rspec": {"c": 1.0, "s": 0.3, "kernel_weights": [1.0]}}},
        tmp_path)
    assert code == 3
    [error] = assertions
    assert error["name"] == harness.RUNNER_ERROR
    assert error["detail"] == ("ValueError: need zero or exactly b0=2 kernel "
                               "weights, got 1")


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


PROFILE = {"experiment": "multiplier_profile", "geometry": {"kind": "circle"},
           "params": {"truncations": [16, 32], "ranks": [1, 2]}}


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
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**PROFILE, "params": {**PROFILE["params"], **block}}))
    assert cli.main(["validate", str(path)]) == 1
    assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    name = "params." + next(iter(block))
    assert any(line.startswith("config error: ") and name in line
               for line in capsys.readouterr().err.splitlines())


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
    ("run", json.dumps({**WEYL_CIRCLE, "params": [1, 2]}), []),
    ("run", json.dumps({**WEYL_CIRCLE, "out_dir": 5}), []),
    ("validate", json.dumps({**WEYL_CIRCLE, "geometry": "circle"}), []),
    ("run", json.dumps(WEYL_CIRCLE), ["--override", "seed.x=1"]),
    ("run", json.dumps(WEYL_CIRCLE), ["--override", "params.N.x=3"]),
    ("run", "{not json", []),
    ("run", None, []),
], ids=["seed_string", "params_list", "out_dir_number", "geometry_string",
        "override_seed", "override_through_int", "invalid_json", "missing_file"])
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
    assert impedance_from_config(spec, impedance, N_trunc=2).N_trunc == 2


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
      "params": {"N": 64, "N_trunc": 32, "impedance": {"kind": "constant"}}},
     {"impedance"}),
    ({"experiment": "impedance_check", "geometry": {"kind": "sphere", "subdivisions": 2},
      "params": {"N": 16, "N_trunc": 8, "impedance": {"kind": "constant"}}},
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


@pytest.mark.parametrize("text", [None, "{not json", "{}"],
                         ids=["missing", "invalid_json", "not_a_manifest"])
def test_emit_plot_bad_manifest_is_an_error(text, tmp_path, capsys):
    path = tmp_path / "manifest.json"
    if text is not None:
        path.write_text(text)
    assert cli.main(["emit-plot", str(path), "spectrum"]) == 1
    assert capsys.readouterr().err.startswith(f"error: cannot load {path}: ")
