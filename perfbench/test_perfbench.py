"""Smoke tests of the benchmark on tiny configs.

    python3 -m pytest perfbench
"""

import argparse
import copy
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
import tracing
import workloads

REPO = os.path.dirname(run.HERE)
with open(os.path.join(REPO, "BENCHMARK.json")) as f:
    DEFINITION = json.load(f)

TINY = {"tiny": {
    "dominant": ["acoustic.certificate_s"],
    "ops": [
        {"name": "multiplier", "timed": True, "config": {
            "experiment": "multiplier_profile",
            "geometry": {"kind": "circle", "segments": 64},
            "params": {"phi": {"kind": "cantor", "samples": 1000},
                       "truncations": [8, 16], "ranks": [1, 2, 4]}}},
        {"name": "acoustic", "timed": True, "config": {
            "experiment": "acoustic_spectrum", "mesh": {"kind": "disk", "h": 0.3},
            "params": {"impedance": {"kind": "constant", "z0": 1.0}}}},
        {"name": "monte_carlo", "timed": True, "config": {
            "experiment": "monte_carlo", "mesh": {"kind": "disk", "h": 0.3},
            "params": {"n_samples": 2, "rspec": {"c": 1.0, "s": 0.3}}}},
        {"name": "weyl", "timed": True, "config": {
            "experiment": "weyl", "geometry": {"kind": "sphere", "subdivisions": 3},
            "params": {"N": 40}}},
        # Raises like the acoustic defect probe: Z truncated below N_b.
        {"name": "probe", "timed": False, "config": {
            "experiment": "acoustic_spectrum", "mesh": {"kind": "annulus", "h": 0.3},
            "params": {"impedance": {"kind": "constant"}}}},
    ],
}}


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    """A checkout with the acouz sources, writable for the benchmark."""
    path = tmp_path_factory.mktemp("checkout")
    os.symlink(os.path.join(REPO, "src"), path / "src")
    return str(path)


@pytest.fixture(scope="module")
def references(root):
    """The tiny ops' own outputs, as the references to check against."""
    work_dir = os.path.join(root, "refs")
    os.makedirs(work_dir)
    ops = [{**op, "reference": None} for op in TINY["tiny"]["ops"]]
    rep = run.spawn({"workload": "tiny", "seed": 0, "trace": False, "ops": ops,
                     "work_dir": work_dir}, root, work_dir, time.monotonic() + 120)
    assert [r["errors"] for r in rep["ops"]][:4] == [[]] * 4
    return {op["name"]: {k: r["observed"][k]
                         for k in workloads.STORED[op["config"]["experiment"]]}
            for op, r in zip(ops, rep["ops"])
            if op["timed"] and op["config"]["experiment"] in workloads.STORED}


def _bench(root, refs, trace):
    args = argparse.Namespace(workload="tiny", seed=0, seconds=0.1, trace=trace)
    return run.bench(args, root, TINY, refs)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(root, references, capsys, trace, section):
    result = _bench(root, references, trace)
    printed = capsys.readouterr().out
    assert result["correct"] and result["failed"] == 0
    # 4 timed runs and 2 samples per repetition; traced runs make 2 + 2
    assert result["attempted"] == (4 + 2) * (4 if trace else 1)
    for metric in DEFINITION[section]:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], (int, float))
        assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                   for line in printed.splitlines()), name
    if trace == 0:
        # the untimed probe fails and shows only in ok_frac
        assert result["metrics"]["ok_frac"]["value"] == pytest.approx(1 - 1 / 7)
        assert all(result["metrics"][m]["value"] > 0
                   for m in ("setup_s", "run_s", "peak_rss_mb"))


def test_perturbed_reference_fails_an_op(root, references, capsys):
    refs = copy.deepcopy(references)
    re, im = refs["acoustic"]["eigenvalues"][-1]
    refs["acoustic"]["eigenvalues"][-1] = [re * (1 + 1e-4), im]
    result = _bench(root, refs, 0)
    assert "FAILED acoustic: eigenvalues: off by" in capsys.readouterr().out
    assert result["failed"] == 1 and not result["correct"]


def test_missing_reference_is_refused(root, references):
    refs = copy.deepcopy(references)
    del refs["multiplier"]["sigma_k"]
    with pytest.raises(run.BenchError, match="lacks norms, sigma_k for multiplier"):
        _bench(root, refs, 0)


def test_checks_tolerate_jitter_and_mirror_pairs():
    ref = [[0.0, 0.0], [2.0, -1.0], [2.0, -1.0], [-3.0, -0.5]]
    got = [[-2.0, -1.0 + 1e-9], [3.0, -0.5], [0.0, 1e-12], [2.0 + 1e-9, -1.0]]
    assert workloads.check({"eigenvalues": got}, {"eigenvalues": ref}) == []
    assert workloads.check({"eigenvalues": got[:3]}, {"eigenvalues": ref})
    assert workloads.check({"slope": 1.0 + 1e-3}, {"slope": 1.0})
    assert workloads.check({"max_residual": 1e-7}, None)


def test_spans_lie_inside_their_parents(root, references):
    _bench(root, references, 1)
    with open(os.path.join(root, ".perfbench", "report-tiny-seed0-trace1.json")) as f:
        repetitions = json.load(f)["spans"]
    assert len(repetitions) == 2
    for spans in repetitions:
        names = {s["name"] for s in spans}
        assert {"run", "acoustic.certificate_s", "acoustic.splu_s",
                "multipliers.contract_s", "boundary.surface_spectrum_s"} <= names
        assert tracing.check_nesting(spans) == []
        by_id = {s["id"]: s for s in spans}
        for s in spans:     # every span descends from the root span of its run
            top = s
            while top["parent"] is not None:
                top = by_id[top["parent"]]
            assert top["name"] == "run" and top["op"] == s["config"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(REPO, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "spectra", "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
