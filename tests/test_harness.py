import json
import os

import pytest

from acouz import cli, harness
from acouz.harness import build_geometry, build_spectrum
from acouz.impedance import IMPEDANCE_KINDS, impedance_from_config


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
], ids=["monte_carlo", "acoustic_spectrum"])
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


def test_validate_rejects_bad_impedance_blocks(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(BOGUS_IMPEDANCE))
    assert cli.main(["validate", str(path)]) == 1
    missing = harness.ExperimentConfig.from_dict(
        {"experiment": "impedance_check", "geometry": {"kind": "circle"}})
    assert harness.validate_config(missing) == [
        "experiment 'impedance_check' needs params.impedance"]


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
      "params": {"phi": {"kind": "cantor", "samples": 10000},
                 "truncations": [32, 64], "ranks": [1, 2, 4]}},
     {"profile", "summary"}),
    ({"experiment": "impedance_check", "geometry": {"kind": "circle"},
      "params": {"N": 64, "N_trunc": 32, "impedance": {"kind": "constant"}}},
     {"impedance"}),
], ids=["weyl", "fgf_convergence", "multiplier_profile", "impedance_check"])
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
                 "params": {"phi": {"kind": "cantor", "samples": 10000},
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
