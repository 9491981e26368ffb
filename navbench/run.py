"""The repository benchmark: one command per workload.

Run from the root of a checkout::

    python3 navbench/run.py --workload tables --seed 1 --seconds 20 --trace 0

It prints notes (``#`` lines: sample counts, host-speed probe, the
daemon's BLAS environment, any problem), a table of metrics with
units, and as its last line one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` the per-layer
ones, from a separate run with spans installed. See navbench/README.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

import common

WORKLOADS = ("tables", "serve_small", "serve_blocks")
#: Per-layer metric prefixes a workload never exercises; they read 0.
IDLE_LAYERS = {
    "tables": ("serve.", "fabric.wire.", "fabric.controller.", "navp.",
               "resilience.", "analysis."),
    "serve_small": ("perfmodel.", "matmul.", "fabric.sim.", "fabric.desim."),
    "serve_blocks": ("perfmodel.", "matmul.", "fabric.sim.",
                     "fabric.desim."),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="navbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--break-reference", action="store_true",
                        help="self-test: check against one deliberately "
                             "wrong reference (ok_share must drop)")
    args = parser.parse_args(argv)

    root = os.getcwd()
    needed = [os.path.join("src", "repro", "__init__.py"),
              os.path.join("tests", "goldens", "table_times.json"),
              "BENCHMARK.json"]
    absent = [p for p in needed if not os.path.isfile(os.path.join(root, p))]
    if absent:
        print(f"navbench: run from the root of a checkout; missing "
              f"{', '.join(absent)}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(root, "src"))
    spec = common.load_spec(root)
    trace = bool(args.trace)
    try:
        if args.workload == "tables":
            import tables_load
            out = tables_load.run(root, args.seed, args.seconds, trace,
                                  args.break_reference)
        else:
            import serve_load
            out = serve_load.run(root, args.workload, args.seed,
                                 args.seconds, trace, args.break_reference)
    finally:
        shutil.rmtree(common.work_dir(root), ignore_errors=True)
    values = out["values"]
    if trace:
        idle = IDLE_LAYERS[args.workload]
        for m in spec["per_layer"]:
            if m["name"] not in values and m["name"].startswith(idle):
                values[m["name"]] = 0.0
    return common.emit(spec, trace, out["attempted"], out["failed"],
                       out["correct"], values, out["notes"])


if __name__ == "__main__":
    sys.exit(main())
