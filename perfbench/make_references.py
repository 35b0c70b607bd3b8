"""Regenerate references.json, the values the benchmark checks outputs against.

    python3 perfbench/make_references.py

Run from the root of a source checkout.  Runs every op that has stored
references once per seed in SEEDS, keeps the first seed's values and prints
the largest deviation the other seeds show, against which the tolerances in
workloads.REFERENCE_RTOL are set.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import run
import workloads

SEEDS = (0, 1, 2)


def main():
    root = os.getcwd()
    refs, worst = {}, {}
    for name, workload in workloads.WORKLOADS.items():
        ops = [{**op, "reference": None} for op in workload["ops"]
               if op["timed"] and op["config"]["experiment"] in workloads.STORED]
        if not ops:
            continue
        for seed in SEEDS:
            out_dir = os.path.join(root, ".perfbench")
            os.makedirs(out_dir, exist_ok=True)
            work_dir = tempfile.mkdtemp(dir=out_dir)
            rep = run.spawn({"workload": name, "seed": seed, "trace": False,
                             "ops": ops, "work_dir": work_dir}, root, work_dir,
                            time.monotonic() + 600)
            os.rmdir(work_dir)
            for op, res in zip(ops, rep["ops"]):
                if res["errors"]:
                    raise SystemExit(f"{op['name']} seed {seed}: {res['errors']}")
                keys = workloads.STORED[op["config"]["experiment"]]
                observed = {k: res["observed"][k] for k in keys}
                if op["name"] not in refs:
                    refs[op["name"]] = observed
                else:
                    dev = max(workloads.deviation(k, observed[k], ref)
                              for k, ref in refs[op["name"]].items())
                    worst[op["name"]] = max(worst.get(op["name"], 0.0), dev)
    with open(os.path.join(run.HERE, "references.json"), "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
    for name, dev in sorted(worst.items()):
        print(f"{name}: largest relative deviation across seeds {dev:.2e}")


if __name__ == "__main__":
    main()
