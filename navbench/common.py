"""Helpers shared by every workload: statistics, the host-speed probe,
``/proc`` readers for the processes under test, and result assembly.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

CLK_TCK = os.sysconf("SC_CLK_TCK")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


# -- statistics -------------------------------------------------------------

def median(values, default=0.0) -> float:
    values = list(values)
    return statistics.median(values) if values else default


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: a value that was actually observed."""
    xs = sorted(values)
    if not xs:
        return 0.0
    return xs[max(1, math.ceil(p / 100.0 * len(xs))) - 1]


def beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank
    ``p``-th percentile's position."""
    return n - max(1, math.ceil(p / 100.0 * n)) if n else 0


#: What :func:`spin_ms` reads on the reference host. Host-normalised
#: times (``tables``, ``serve_small``) are scaled by ``REF_SPIN_MS`` over
#: the probe readings next to them, so they read as milliseconds on a
#: host where the probe takes this long.
REF_SPIN_MS = 7.5


def spin_ms() -> float:
    """Median of three timings of a fixed pure-Python loop: the
    host-speed probe. It never runs while an op is being timed."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(100_000):
            acc += i * i
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


def spin_ms_all_cpus() -> float:
    """Mean of :func:`spin_ms` on each CPU this process may use: the
    probe for load that spans processes on every core."""
    cpus = os.sched_getaffinity(0)
    try:
        readings = []
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            readings.append(spin_ms())
    finally:
        os.sched_setaffinity(0, cpus)
    return sum(readings) / len(readings)


# -- /proc ------------------------------------------------------------------

def _stat_fields(pid: int) -> list | None:
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as fh:
            text = fh.read()
    except OSError:
        return None
    # comm may hold spaces and parentheses: split after the last ')'
    return text[text.rindex(")") + 2:].split()


def group_pids(pgid: int) -> list:
    """Live pids of one process group."""
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _stat_fields(int(entry))
            if fields is not None and int(fields[2]) == pgid \
                    and fields[0] != "Z":
                out.append(int(entry))
    return out


def cpu_s(pid: int) -> float:
    """User plus system CPU seconds of one live process."""
    fields = _stat_fields(pid)
    if fields is None:
        return 0.0
    return (int(fields[11]) + int(fields[12])) / CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of one live process, in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def dir_mb(path: str) -> float:
    total = 0
    for base, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(base, name))
            except OSError:
                pass
    return total / 2**20


def work_dir(root: str) -> str:
    """The benchmark's scratch directory inside the checkout."""
    path = os.path.join(root, ".navbench_work")
    os.makedirs(path, exist_ok=True)
    return path


# -- results ----------------------------------------------------------------

def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def latency_metrics(latencies_s, attempted: int, ok: int,
                    elapsed_s: float, cpu_total_s: float,
                    rss_mb: float, setup_s: float) -> dict:
    """The end-to-end metrics every workload reports, as raw values."""
    ms = [x * 1e3 for x in latencies_s]
    return {
        "setup_s": setup_s,
        "throughput_ops_s": len(ms) / elapsed_s if elapsed_s > 0 else 0.0,
        "latency_p50_ms": percentile(ms, 50),
        "latency_p90_ms": percentile(ms, 90),
        "cpu_ms_per_op": cpu_total_s * 1e3 / max(1, len(ms)),
        "peak_rss_mb": rss_mb,
        "ok_share": ok / attempted if attempted else 0.0,
    }


def emit(spec: dict, trace: bool, attempted: int, failed: int,
         correct: bool, values: dict, notes: list) -> int:
    """Print the notes, a metric table with units, then the one-line
    JSON result. Returns the exit code: non-zero if the workload did
    not produce exactly the metrics ``BENCHMARK.json`` names."""
    wanted = spec["per_layer" if trace else "end_to_end"]
    for line in notes:
        print(line)
    missing = [m["name"] for m in wanted if m["name"] not in values]
    for m in wanted:
        if m["name"] in values:
            print(f"  {m['name']:<44} {values[m['name']]:>14.6g} "
                  f"{m['unit']}")
    metrics = {m["name"]: {"value": float(values[m["name"]]),
                           "unit": m["unit"]}
               for m in wanted if m["name"] in values}
    print(json.dumps({"correct": bool(correct) and not missing,
                      "attempted": int(max(1, attempted)),
                      "failed": int(failed), "metrics": metrics}),
          flush=True)
    if missing:
        print(f"navbench: no value for {', '.join(missing)}",
              file=sys.stderr)
        return 1
    return 0
