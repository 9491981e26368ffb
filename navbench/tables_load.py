"""The ``tables`` workload: repeated checked sweeps of Tables 1-4.

The parent (:func:`run`) starts fresh interpreters of this file, one
after another. Each imports the package and runs one checked sweep —
that is set-up — and prints a ``ready`` line; the parent times set-up
from process start to ``ready``, so it includes the interpreter. The
child then times the host-speed probe. The last child sweeps until its
deadline, timing the probe again after every sweep, and prints one
JSON line with every sweep.

A sweep calls the public builders ``build_table1..4`` (shadow mode,
SimFabric). The seed draws the order; each timed sweep rotates it by
one, so every run times each rotation equally. A sweep is correct when all 98
cells equal ``tests/goldens/table_times.json`` bit for bit (through
``float.hex``) and each table executed exactly its known number of
DES events.

Every time this workload reports is host-normalised: in a timed sweep
the probe runs after each table build, and the build's time is scaled
by ``REF_SPIN_MS`` over the mean of the probes just before and just
after it; a set-up is scaled by the mean of the probes just before
and just after it. A sweep is
single-threaded, CPU-bound Python whose speed on a shared host drifts
by up to 2x within minutes; the probe drifts with it, so the scaled
times stay comparable between runs. Probes are never inside a timed
interval. The raw medians are printed as notes.
"""

from __future__ import annotations

import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time

import common

GOLDENS = os.path.join("tests", "goldens", "table_times.json")
TABLES = ("table1", "table2", "table3", "table4")
#: DES events one build of each table executes (exact, shadow mode).
EVENTS = {"table1": 12778, "table2": 4028, "table3": 27173,
          "table4": 83776}
SETUPS = 3


# -- child: one interpreter ------------------------------------------------

def _child(root: str, goldens_path: str, order: list, seconds: float,
           timed: bool, trace: bool) -> None:
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.fabric import desim
    from repro.perfmodel import tables

    with open(goldens_path, encoding="utf-8") as fh:
        goldens = json.load(fh)
    state = {"sweep": 0}

    def sweep(names, probe_ms=None) -> dict:
        """One checked sweep of ``names``, in order. Given ``probe_ms``,
        the probe read just before it, the probe runs again after every
        build, and each build's time is scaled by the mean of the
        probes around it."""
        events = {}
        results = []
        wall = scaled = cpu = 0.0
        for name in names:
            e0 = desim.PERF_STATS["events"]
            c0 = time.process_time()
            t0 = time.perf_counter()
            results.append((name, getattr(tables, f"build_{name}")()))
            dt = time.perf_counter() - t0
            cpu += time.process_time() - c0
            events[name] = desim.PERF_STATS["events"] - e0
            wall += dt
            if probe_ms is not None:
                after = common.spin_ms()
                scaled += dt * _scale((probe_ms + after) / 2)
                probe_ms = after
        problems = []
        for name, comparison in results:
            seen = {}
            for row in comparison.rows:
                prefix = f"n{row.n}/ab{row.ab}"
                seen[f"{prefix}/sequential"] = row.seq_model.hex()
                for variant, cell in row.cells.items():
                    seen[f"{prefix}/{variant}"] = cell.model_time.hex()
            if seen != goldens[name]:
                bad = sorted(k for k in set(seen) | set(goldens[name])
                             if seen.get(k) != goldens[name].get(k))
                problems.append(f"{name}: {len(bad)} cell(s) differ, "
                                f"first {bad[0]}")
            if events[name] != EVENTS[name]:
                problems.append(f"{name}: {events[name]} DES events, "
                                f"expected {EVENTS[name]}")
        return {"s": wall, "scaled_s": scaled, "cpu_s": cpu,
                "probe_ms": probe_ms, "problems": problems,
                "events": sum(events.values())}

    first = sweep(order)
    print(json.dumps({"ready": True, "problems": first["problems"]}),
          flush=True)
    probe = common.spin_ms()
    out = {"probe_ms": probe}
    if timed:
        rec = None
        if trace:
            import spans
            rec = spans.Recorder()
        sweeps = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not sweeps:
            traced = rec is not None and len(sweeps) % 2 == 1
            if traced:
                spans.install_tables(rec, lambda: state["sweep"])
            state["sweep"] = len(sweeps)
            k = len(sweeps) % len(order)
            one = sweep(order[k:] + order[:k], probe)
            if traced:
                rec.uninstall()
            one["traced"] = traced
            sweeps.append(one)
            probe = one["probe_ms"]
        out["sweeps"] = sweeps
        out["maxrss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if rec is not None:
            out["keyed"] = {str(k): v for k, v in rec.keyed.items()}
    print(json.dumps(out), flush=True)


def _scale(probe_ms: float) -> float:
    """The host-normalisation factor for a time measured next to a
    probe that read ``probe_ms``."""
    return common.REF_SPIN_MS / probe_ms


# -- parent ---------------------------------------------------------------

def run(root: str, seed: int, seconds: float, trace: bool,
        break_reference: bool) -> dict:
    order = list(TABLES)
    random.Random(seed).shuffle(order)
    goldens_path = os.path.join(root, GOLDENS)
    tmp = None
    if break_reference:
        # self-test: one flipped golden cell, in a temporary copy
        tmp = tempfile.mkdtemp(dir=common.work_dir(root))
        with open(goldens_path, encoding="utf-8") as fh:
            goldens = json.load(fh)
        cell = sorted(goldens["table1"])[0]
        value = goldens["table1"][cell]
        goldens["table1"][cell] = value[:-1] + (
            "0" if value[-1] != "0" else "1")
        goldens_path = os.path.join(tmp, "table_times.json")
        with open(goldens_path, "w", encoding="utf-8") as fh:
            json.dump(goldens, fh)
    try:
        return _run(root, goldens_path, order, seconds, trace)
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)


def _one_child(root, goldens_path, order, seconds, timed, trace) -> tuple:
    """Start one child; returns (set-up s, ready line, result line)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--child", root,
           goldens_path, ",".join(order), str(seconds), str(int(timed)),
           str(int(trace))]
    t_spawn = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            cwd=root)
    try:
        line = proc.stdout.readline()
        setup_s = time.perf_counter() - t_spawn
        result = proc.stdout.readline()
    finally:
        proc.stdout.close()
        try:
            rc = proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            rc = proc.wait()
    if rc != 0 or not line or not result:
        raise RuntimeError(f"tables child exited {rc} without its results")
    return setup_s, json.loads(line), json.loads(result)


def _run(root, goldens_path, order, seconds, trace) -> dict:
    setups, problems, attempted, ok = [], [], 0, 0
    for i in range(SETUPS):
        timed = i == SETUPS - 1
        before = common.spin_ms()
        setup_s, ready, result = _one_child(root, goldens_path, order,
                                            seconds, timed, trace)
        setups.append((setup_s, (before + result["probe_ms"]) / 2))
        attempted += 1
        ok += not ready["problems"]
        problems += ready["problems"]

    sweeps = result["sweeps"]
    attempted += len(sweeps)
    ok += sum(1 for s in sweeps if not s["problems"])
    for s in sweeps:
        problems += s["problems"]
    plain = [s for s in sweeps if not s["traced"]]
    latencies = [s["scaled_s"] for s in plain]
    cpu_s = sum(s["cpu_s"] * s["scaled_s"] / s["s"] for s in plain)
    setup_scaled = [s * _scale(p) for s, p in setups]
    values = common.latency_metrics(
        latencies, attempted, ok, sum(latencies), cpu_s,
        result["maxrss_mb"], common.median(setup_scaled))
    probes = [p for _s, p in setups] + [s["probe_ms"] for s in sweeps]
    raw_p50 = common.percentile([s["s"] * 1e3 for s in plain], 50)
    notes = [
        f"# tables: order {','.join(order)}, {len(sweeps)} timed sweeps, "
        f"{ok} of {attempted} sweeps correct (set-up sweeps included)",
        f"# host-normalised to a {common.REF_SPIN_MS} ms probe; probe "
        f"median {common.median(probes):.2f} ms (min {min(probes):.2f}, "
        f"max {max(probes):.2f}); raw latency p50 {raw_p50:.1f} ms; raw "
        f"set-up {', '.join(f'{s:.3f}' for s, _p in setups)} s",
        f"# samples: latency n={len(plain)}, beyond p90 "
        f"{common.beyond(len(plain), 90)}; setup_s n={len(setups)}",
    ]
    notes += [f"# problem: {p}" for p in sorted(set(problems))[:10]]
    if trace:
        values.update(_layers(result, probes))
    return {"attempted": attempted, "failed": attempted - ok,
            "correct": not problems and ok == attempted,
            "values": values, "notes": notes}


def _layers(result, probes) -> dict:
    """Per-layer medians over the traced sweeps (per sweep totals)."""
    sweeps = result["sweeps"]
    keyed = result.get("keyed", {})
    per = [(keyed.get(str(i), {}), s["scaled_s"] / s["s"])
           for i, s in enumerate(sweeps) if s["traced"]]

    def ms(name, part=1):
        return common.median(p.get(name, [0, 0.0, 0.0])[part] * f * 1e3
                             for p, f in per)

    traced = common.median(s["scaled_s"] for s in sweeps if s["traced"])
    plain = common.median(s["scaled_s"] for s in sweeps if not s["traced"])
    desim_ms = ms("fabric.desim.run")
    events = common.median(s["events"] for s in sweeps)
    out = {f"perfmodel.tables.table{i}_ms":
           ms(f"perfmodel.tables.table{i}") for i in range(1, 5)}
    out.update({
        "matmul.runner.run_variant_ms": ms("matmul.runner.run_variant"),
        "fabric.sim.run_ms": ms("fabric.sim.run"),
        "fabric.desim.run_self_ms": ms("fabric.desim.run", 2),
        "fabric.desim.events_per_sweep": events,
        "fabric.desim.events_per_s":
            events / desim_ms * 1e3 if desim_ms else 0.0,
        "host.spin_ms": common.median(probes),
        "trace.overhead_share": traced / plain - 1.0 if plain else 0.0,
    })
    return out


if __name__ == "__main__":
    if len(sys.argv) == 8 and sys.argv[1] == "--child":
        _child(sys.argv[2], sys.argv[3], sys.argv[4].split(","),
               float(sys.argv[5]), sys.argv[6] == "1", sys.argv[7] == "1")
    else:
        sys.exit("usage: run through navbench/run.py")
