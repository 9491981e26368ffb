"""The benchmark's own self-test.

Run from the root of a checkout::

    python3 navbench/selftest.py

For every workload it makes a shortest-length run (``--seconds 1``)
untraced and traced, and checks that each prints every metric
``BENCHMARK.json`` names, with ``ok_share`` 1. It then runs each
workload against one deliberately wrong reference (``--break-reference``:
a flipped golden cell or a reversed digest, in a temporary copy) and
checks that ``ok_share`` drops below 1, which proves the correctness
checks can fail. Last, it runs the command in a directory that holds
only ``BENCHMARK.json`` and ``navbench/`` and checks that it fails
without printing a result. Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ("tables", "serve_small", "serve_blocks")


def run(root: str, workload: str, trace: int, *extra) -> tuple:
    cmd = [sys.executable, "navbench/run.py", "--workload", workload,
           "--seed", "1", "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                          timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return proc, result


def main() -> int:
    root = os.getcwd()
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []

    def check(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc, result = run(root, workload, trace)
            label = f"{workload} --trace {trace}"
            check(proc.returncode == 0 and result is not None,
                  f"{label}: exits 0 with a result")
            if result is None:
                print(proc.stderr[-2000:])
                continue
            names = {m["name"] for m in spec[kind]}
            check(set(result["metrics"]) == names,
                  f"{label}: prints every {kind} metric")
            check(result["correct"] and result["failed"] == 0,
                  f"{label}: every op correct")
            if trace == 0:
                check(result["metrics"]["ok_share"]["value"] == 1.0,
                      f"{label}: ok_share is 1")
        proc, result = run(root, workload, 0, "--break-reference")
        check(result is not None
              and result["metrics"]["ok_share"]["value"] < 1.0
              and not result["correct"] and result["failed"] > 0,
              f"{workload} --break-reference: ok_share below 1")

    bare = tempfile.mkdtemp(prefix="navbench-bare-", dir=root)
    try:
        shutil.copy(os.path.join(root, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(root, "navbench"),
                        os.path.join(bare, "navbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc, result = run(bare, "tables", 0)
        check(proc.returncode != 0 and result is None,
              "bare directory: fails without a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"self-test: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
