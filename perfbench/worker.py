"""One repetition of a workload, in a fresh Python process.

    python worker.py <spec.json> <result.json> <spawn time>

The spawn time is the parent's `time.time()` just before it started this
process, so `setup_s` covers the interpreter, numpy, scipy and acouz.  The
spec lists the ops; with no ops the process only measures its set-up.
"""

import sys
import time

import acouz.cli

SETUP_S = time.time() - float(sys.argv[3])

import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def run_op(op, seed, work_dir, tracer):
    """Run one config through `acouz.cli.main`, time it, check its outputs."""
    name = op["name"]
    cfg_path = os.path.join(work_dir, name + ".json")
    with open(cfg_path, "w") as f:
        json.dump(op["config"], f)
    out = tempfile.mkdtemp(prefix=name + "-", dir=work_dir)
    argv = ["run", cfg_path, "--seed", str(seed), "--out", out]
    result = {"name": name, "timed": op["timed"], "errors": [], "samples": 0,
              "failed_samples": 0, "observed": {}, "content_hash": None}
    if tracer:
        tracer.context["config"] = name
    start = time.perf_counter()
    try:
        with tracer.span("run", {"op": name}) if tracer else contextlib.nullcontext():
            code = acouz.cli.main(argv)
    except Exception as err:   # a raising run is one failed op
        code = None
        result["errors"].append(f"{type(err).__name__}: {err}")
    result["run_s"] = time.perf_counter() - start

    if code not in (0, None):
        result["errors"].append(f"exit code {code}")
    manifest_path = os.path.join(out, "manifest.json")
    if code is not None and os.path.exists(manifest_path):
        with open(manifest_path) as f:
            manifest = json.load(f)
        result["content_hash"] = manifest["content_hash"]
        result["errors"] += [f"assertion {a['name']} failed: {a['detail']}"
                             for a in manifest["assertions"] if not a["passed"]]
        try:
            observed = workloads.observe(op["config"]["experiment"], out)
        except (OSError, KeyError, ValueError) as err:
            result["errors"].append(f"outputs unreadable: {err}")
        else:
            result["observed"] = observed
            result["samples"] = observed.get("n_samples", 0)
            result["failed_samples"] = observed.get("failed_samples", 0)
            result["errors"] += workloads.check(observed, op.get("reference"))
    result["bytes_written"] = _dir_bytes(out)
    shutil.rmtree(out)
    os.remove(cfg_path)
    return result


def main(spec_path, result_path):
    with open(spec_path) as f:
        spec = json.load(f)
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer(spec["workload"])
        tracing.install(tracer)
    # acouz.cli prints each run's assertions; the result file is the output.
    with open(os.devnull, "w") as devnull, contextlib.redirect_stdout(devnull):
        ops = [run_op(op, spec["seed"], spec["work_dir"], tracer)
               for op in spec["ops"]]
    result = {"setup_s": SETUP_S, "ops": ops,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "acouz_file": acouz.cli.__file__}
    if tracer:
        result["spans"] = tracer.spans
        result["counts"] = dict(tracer.counts)
    with open(result_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
