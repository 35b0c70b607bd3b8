"""Command-line entry point: acouz run | validate | emit-plot.

Exit codes: 0 passed, 1 config error, 2 a failed assertion, 3 an exception
inside the experiment runner (its manifest is still written).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .harness import (
    RUNNER_ERROR, ConfigError, ExperimentConfig, RunManifest, apply_overrides,
    emit_plotdata, run, usable_cpus, validate_config,
)


def _load_config(args):
    try:
        with open(args.config) as f:
            raw = json.load(f)
    except (OSError, ValueError) as err:    # unreadable file or invalid JSON
        raise ConfigError([f"cannot load {args.config}: {err}"]) from None
    if args.override:
        raw = apply_overrides(raw, args.override)
    cfg = ExperimentConfig.from_dict(raw)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.workers is not None:
        cfg.workers = args.workers
    return cfg


def main(argv=None):
    parser = argparse.ArgumentParser(prog="acouz",
                                     description="boundary-spectrum / impedance "
                                                 "/ acoustic experiment runner")
    sub = parser.add_subparsers(dest="command", required=True)

    config_args = argparse.ArgumentParser(add_help=False)
    config_args.add_argument("config")
    config_args.add_argument("--out", default=None, help="output directory")
    config_args.add_argument(
        "--workers", type=int, default=None,
        help="processes that solve Monte Carlo samples and surface spectrum "
             "windows; the worker count does not change results (default: "
             "the config's workers, else the CPUs this process may use, "
             f"{usable_cpus()} here)")
    config_args.add_argument("--seed", type=int, default=None)
    config_args.add_argument("--override", action="append", default=[],
                             metavar="KEY=VALUE", help="dotted-path config override")
    sub.add_parser("run", parents=[config_args], help="execute an experiment config")
    sub.add_parser("validate", parents=[config_args],
                   help="validate a config: list its config errors, else the "
                        "first precondition its built geometry or mesh breaks")

    p_plot = sub.add_parser("emit-plot", help="emit long-format plot data")
    p_plot.add_argument("manifest")
    p_plot.add_argument("artifact")
    p_plot.add_argument("--out", default=None)

    args = parser.parse_args(argv)

    if args.command == "emit-plot":
        try:
            manifest = RunManifest.load(args.manifest)
        except (OSError, ValueError, KeyError) as err:   # unreadable, not a manifest
            print(f"error: cannot load {args.manifest}: {err}", file=sys.stderr)
            return 1
        try:
            path = emit_plotdata(manifest, args.artifact, out_path=args.out)
        except ConfigError as err:
            print("error:", err, file=sys.stderr)
            return 1
        print(path)
        return 0

    errors = []
    try:
        cfg = _load_config(args)
        if args.command == "validate":
            errors = validate_config(cfg)
        else:   # run checks the config before it writes anything
            out_dir = args.out or cfg.run_dir()
            manifest = run(cfg, out_dir=out_dir)
    except ConfigError as err:
        errors = err.errors
    for e in errors:
        print("config error:", e, file=sys.stderr)
    if errors:
        return 1
    if args.command == "validate":
        print("ok")
        return 0
    for a in manifest.assertions:
        status = "pass" if a["passed"] else "FAIL"
        print(f"[{status}] {a['name']}: {a['detail']}")
    print("manifest:", os.path.join(out_dir, "manifest.json"))
    if manifest.passed:
        return 0
    return 3 if any(a["name"] == RUNNER_ERROR for a in manifest.assertions) else 2


if __name__ == "__main__":
    sys.exit(main())
