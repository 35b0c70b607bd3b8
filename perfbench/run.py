"""The acouz benchmark: what a user waits for in `acouz run <config>`.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each repetition is one fresh
Python process (a closed loop with one client) that imports acouz from
`src/` and calls `acouz.cli.main(["run", cfg, "--seed", N, "--out", dir])`
once per config of the workload, each into a fresh output directory so the
spectrum cache starts cold.  Repetitions run one after another until S
seconds have passed.  BLAS and OpenMP run on one thread: the thread count
changes both the timings and the bits of the results.

With `--trace 0` the last line of standard output is a JSON object with
the end-to-end metrics (medians over the repetitions); with `--trace 1`,
traced and untraced repetitions alternate, at least two of each, and it
holds the per-layer metrics.  Spans and a report are written to `.perfbench/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"
# Import-only processes per run, besides the one set-up each repetition
# pays, so that setup_s is a median of several cold starts.
SETUP_PROBES = 4
# A run must end within 180 s; no repetition may start past this.
HARD_LIMIT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here; it prints no result."""


def _env(root):
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "ACOUZ_WORKERS")}
    env.update({var: THREADS for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    return env


def spawn(spec, root, work_dir, deadline):
    """Run one worker process on `spec`; returns its result dict."""
    fd, spec_path = tempfile.mkstemp(suffix=".json", dir=work_dir)
    with os.fdopen(fd, "w") as f:
        json.dump(spec, f)
    result_path = spec_path[:-5] + ".result.json"
    argv = [sys.executable, os.path.join(HERE, "worker.py"), spec_path,
            result_path]
    proc = subprocess.Popen(argv + [repr(time.time())], cwd=root,
                            env=_env(root), stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a repetition ran past the time limit") from None
    if proc.returncode != 0 or not os.path.exists(result_path):
        raise BenchError(f"worker exited with code {proc.returncode}:\n"
                         f"{err[-2000:]}")
    with open(result_path) as f:
        result = json.load(f)
    os.remove(spec_path)
    os.remove(result_path)
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(result["acouz_file"]).startswith(src + os.sep):
        raise BenchError(f"acouz was imported from {result['acouz_file']}, "
                         f"not from {src}")
    return result


def environment(root):
    """Versions, thread pins and the source revision, for the report."""
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": os.cpu_count(), "threads": {v: THREADS for v in THREAD_VARS},
            "git_sha": _git_sha(root)}


def _git_sha(root):
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.exists(head_path):
        return "unknown (not a git checkout)"
    with open(head_path) as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.exists(ref_path):
        with open(ref_path) as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return "unknown"


def _ops(workload, refs):
    """The workload's ops, each with its stored reference values.

    Raises BenchError when a timed op of an experiment in workloads.STORED
    lacks any of its stored values, so that a renamed op or a partly
    regenerated references.json cannot silently skip a value check.
    """
    ops = []
    for op in workload["ops"]:
        keys = workloads.STORED.get(op["config"]["experiment"], ())
        if op["timed"] and keys and set(refs.get(op["name"], ())) != set(keys):
            raise BenchError(f"references.json lacks {', '.join(keys)} for "
                             f"{op['name']}; regenerate it with "
                             f"perfbench/make_references.py")
        ops.append({**op, "reference": refs.get(op["name"])})
    return ops


def run_workload(name, workload, refs, seed, seconds, trace, root, out_dir):
    """Repeat the workload for `seconds`; returns its report."""
    start = time.monotonic()
    hard_deadline = start + HARD_LIMIT_S
    os.makedirs(out_dir, exist_ok=True)
    ops = _ops(workload, refs)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=out_dir)
    setups = [spawn({"workload": name, "seed": seed, "trace": False, "ops": [],
                     "work_dir": work_dir}, root, work_dir, hard_deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    reps = []
    while True:
        traced = trace and len(reps) % 2 == 1
        rep = spawn({"workload": name, "seed": seed, "trace": traced,
                     "ops": ops, "work_dir": work_dir},
                    root, work_dir, hard_deadline)
        rep["traced"] = traced
        reps.append(rep)
        setups.append(rep["setup_s"])
        # Two traced repetitions at least, so lu_solves_spread can show.
        enough = not trace or sum(r["traced"] for r in reps) >= 2
        now = time.monotonic()
        if enough and (now - start >= seconds or now >= hard_deadline):
            break
    os.rmdir(work_dir)
    return summarize(name, workload, reps, setups)


def summarize(name, workload, reps, setups):
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]

    def run_s(rep):
        return sum(op["run_s"] for op in rep["ops"] if op["timed"])

    timed_ops = [op for r in reps for op in r["ops"] if op["timed"]]
    all_ops = [op for r in reps for op in r["ops"]]

    def tally(ops):
        attempted = sum(1 + op["samples"] for op in ops)
        failed = sum(bool(op["errors"]) + op["failed_samples"] for op in ops)
        return attempted, failed

    attempted, failed = tally(timed_ops)
    all_attempted, all_failed = tally(all_ops)
    run_s_samples = [run_s(r) for r in untraced]
    end_to_end = {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(run_s_samples),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
        "ok_frac": 1.0 - all_failed / all_attempted,
    }
    per_layer, trace_summary = {}, {}
    traced_run_s_samples = [run_s(r) for r in traced]
    if traced:
        layers = [tracing.layer_metrics(r["spans"], r["counts"])
                  | {"harness.bytes_written": sum(op["bytes_written"]
                                                  for op in r["ops"])}
                  for r in traced]
        for key in set().union(*layers):
            per_layer[key] = statistics.median(m.get(key, 0) for m in layers)
        lu = [m.get(tracing.LU_SOLVES, 0) for m in layers]
        per_layer["acoustic.lu_solves_spread"] = max(lu) - min(lu)
        # Report only: they check the workload's sizing and the tracer,
        # not a layer's speed.
        traced_run_s = statistics.median(traced_run_s_samples)
        dominant = sum(per_layer.get(k, 0.0) for k in workload["dominant"])
        trace_summary = {"run_s": traced_run_s,
                         "overhead_s": traced_run_s - end_to_end["run_s"],
                         "dominant_share": dominant / traced_run_s}
    report = {
        "workload": name, "repetitions": len(untraced),
        "traced_repetitions": len(traced), "setup_samples": setups,
        "run_s_samples": run_s_samples,
        "traced_run_s_samples": traced_run_s_samples,
        "attempted": attempted, "failed": failed,
        "correct": failed == 0,
        "end_to_end": end_to_end, "per_layer": per_layer,
        "trace_summary": trace_summary,
        "errors": sorted({f"{op['name']}{'' if op['timed'] else ' (untimed)'}: {e}"
                          for op in all_ops for e in op["errors"]}),
        "content_hashes": {op["name"]: sorted({o["content_hash"] for o in all_ops
                                               if o["name"] == op["name"]
                                               and o["content_hash"]})
                           for op in workload["ops"]},
        # One list per traced repetition: span ids are unique per process.
        "spans": [r["spans"] for r in traced],
    }
    return report


def _record_hashes(path, name, seed, hashes):
    """Distinct manifest content hashes per config and seed, across runs."""
    seen = {}
    if os.path.exists(path):
        with open(path) as f:
            seen = json.load(f)
    counts = {}
    for config, values in hashes.items():
        key = f"{name}/{config}/seed{seed}"
        seen[key] = sorted(set(seen.get(key, [])) | set(values))
        counts[config] = len(seen[key])
    with open(path, "w") as f:
        json.dump(seen, f, indent=1, sort_keys=True)
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    try:
        result = bench(args, root, workloads.WORKLOADS)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


def bench(args, root, table, refs=None):
    """Run one workload as `args` asks; prints the report, returns the
    result object the benchmark's last line holds."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        definition = json.load(f)
    if args.workload not in table:
        raise BenchError(f"unknown workload {args.workload!r} "
                         f"(choose from {', '.join(table)})")
    if not os.path.exists(os.path.join(root, "src", "acouz", "cli.py")):
        raise BenchError(f"no acouz source under {root}/src")
    if not 0 <= args.seed < 2 ** 63:
        raise BenchError("the seed must lie in [0, 2**63)")
    if refs is None:
        refs = workloads.load_references(os.path.join(HERE, "references.json"))
    out_dir = os.path.join(root, ".perfbench")
    report = run_workload(args.workload, table[args.workload], refs, args.seed,
                          args.seconds, bool(args.trace), root, out_dir)
    report["environment"] = environment(root)
    report["seed"] = args.seed
    report["distinct_content_hashes"] = _record_hashes(
        os.path.join(out_dir, "content_hashes.json"), args.workload, args.seed,
        report.pop("content_hashes"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(out_dir, f"report-{tag}.json"), "w") as f:
        json.dump(report, f, indent=1)

    section = "per_layer" if args.trace else "end_to_end"
    values = report[section]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in definition[section]}
    _print_report(report, metrics, table[args.workload])
    return {"correct": report["correct"], "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}


def _print_report(report, metrics, workload):
    env = report["environment"]
    print(f"workload {report['workload']}  seed {report['seed']}  "
          f"repetitions {report['repetitions']} untraced, "
          f"{report['traced_repetitions']} traced, "
          f"{len(report['setup_samples'])} set-ups (metrics are medians)")
    print("environment " + json.dumps(env, sort_keys=True))
    for err in report["errors"]:
        print(f"FAILED {err}")
    print("distinct content hashes per config (informational): "
          + json.dumps(report["distinct_content_hashes"], sort_keys=True))
    if report["trace_summary"]:
        ts, pl = report["trace_summary"], report["per_layer"]
        print(f"dominant layer {' + '.join(workload['dominant'])}: "
              f"{ts['dominant_share']:.1%} of traced run_s "
              f"({ts['run_s']:.3f} s); trace overhead "
              f"{ts['overhead_s']:+.3f} s")
        extra = sorted(k for k in pl if k not in metrics and k != "run")
        for key in extra:
            print(f"  (not in BENCHMARK.json) {key} = {pl[key]:.6g}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")


if __name__ == "__main__":
    sys.exit(main())
