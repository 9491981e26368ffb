"""Per-layer spans recorded from outside the program.

Nothing under ``src/`` is edited: :meth:`Recorder.wrap` replaces a
public callable (a module function, a class method, a kernel's ``fn``)
with a wrapper that times the call and hands it to the recorder. The
``install_*`` functions name the callables of each layer.

A span keeps no per-call record. Each closes into two aggregates:

* **time buckets** — per span name and quarter second of the shared
  monotonic clock: calls, total and self seconds, bytes. The benchmark
  cuts the timed phase (and its quarters) out of these afterwards.
* **keys** — per job id (or sweep index): calls, total and self
  seconds, first start and last end of each span name. Spans with no
  key of their own (an admission verdict inside a submit) are charged
  to the nearest keyed ancestor.

Self time is a span's duration minus its direct child spans, so a
layer's self time never double counts a layer it calls.
``time.perf_counter`` is ``CLOCK_MONOTONIC`` on Linux, shared by the
daemon, its forked workers and the benchmark's clients.
"""

from __future__ import annotations

import functools
import json
import math
import os
import threading
import time
from time import perf_counter

BUCKET_S = 0.25


class Recorder:
    def __init__(self):
        self._patches: list = []
        self.reset()

    def reset(self) -> None:
        """Forget every aggregate (a forked worker starts clean)."""
        self.lock = threading.Lock()
        self.tls = threading.local()
        self.buckets: dict = {}   # name -> {bucket: [calls, tot, self, B]}
        self.keyed: dict = {}     # key -> {name: [calls, tot, self, t0, t1]}

    # -- installation ------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, key=None, nbytes=None,
             counters=None, cpu: bool = False) -> None:
        """Time every call of ``owner.attr`` as span ``name``.

        ``key(args, result)`` names the job the call belongs to;
        ``nbytes(args, result)`` the bytes it moved; ``counters(args,
        result)`` yields ``(counter_name, increment)`` pairs. With
        ``cpu`` the thread CPU time of the call is recorded as the
        span ``name + ".cpu"``.
        """
        fn = getattr(owner, attr)
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(rec.tls, "stack", None)
            if stack is None:
                stack = rec.tls.stack = []
            frame = [0.0, {}]          # child seconds, unkeyed descendants
            stack.append(frame)
            result = None
            c0 = time.thread_time() if cpu else 0.0
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                rec._close(name, stack, frame, t0, t1, args, result,
                           key, nbytes, counters,
                           time.thread_time() - c0 if cpu else None)

        self._patches.append((owner, attr, fn))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    # -- recording ---------------------------------------------------------
    def _close(self, name, stack, frame, t0, t1, args, result, key_fn,
               nbytes_fn, counters_fn, cpu_s) -> None:
        dur = t1 - t0
        own = dur - frame[0]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[0] += dur
        key = key_fn(args, result) if key_fn is not None else None
        nb = nbytes_fn(args, result) if nbytes_fn is not None else 0
        bucket = int(t0 / BUCKET_S)
        with self.lock:
            _bump(self.buckets, name, bucket, 1, dur, own, nb)
            if cpu_s is not None:
                _bump(self.buckets, name + ".cpu", bucket, 1, cpu_s,
                      cpu_s, 0)
            if counters_fn is not None:
                for cname, inc in counters_fn(args, result):
                    _bump(self.buckets, cname, bucket, inc, 0.0, 0.0, 0)
            entry = (name, 1, dur, own, t0, t1)
            if key is not None:
                per = self.keyed.setdefault(key, {})
                _merge(per, entry)
                if cpu_s is not None:
                    _merge(per, (name + ".cpu", 1, cpu_s, cpu_s, t0, t1))
                for sub in frame[1].items():
                    _merge(per, (sub[0], *sub[1]))
            elif parent is not None:
                _merge(parent[1], entry)
                for sub in frame[1].items():
                    _merge(parent[1], (sub[0], *sub[1]))

    def dump(self, path: str, role: str) -> None:
        with self.lock:
            data = {
                "role": role, "pid": os.getpid(),
                "buckets": {n: [[b] + v for b, v in per.items()]
                            for n, per in self.buckets.items()},
                "keyed": {str(k): {n: list(v) for n, v in per.items()}
                          for k, per in self.keyed.items()},
            }
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        os.replace(tmp, path)


def _bump(buckets, name, bucket, calls, tot, own, nbytes) -> None:
    row = buckets.setdefault(name, {}).get(bucket)
    if row is None:
        buckets[name][bucket] = [calls, tot, own, nbytes]
    else:
        row[0] += calls
        row[1] += tot
        row[2] += own
        row[3] += nbytes


def _merge(per: dict, entry) -> None:
    name, calls, tot, own, t0, t1 = entry
    row = per.get(name)
    if row is None:
        per[name] = [calls, tot, own, t0, t1]
    else:
        row[0] += calls
        row[1] += tot
        row[2] += own
        row[3] = min(row[3], t0)
        row[4] = max(row[4], t1)


def _thread_jid(_args, _result):
    """Job id of a ``JobRun`` thread (named ``jobrun-<jid>``)."""
    name = threading.current_thread().name
    return name[7:] if name.startswith("jobrun-") else None


# -- the layers of each process -------------------------------------------

def install_tables(rec: Recorder, sweep) -> None:
    """The ``tables`` path: table builders, the variant runner, the sim
    fabric and the DES kernel. ``sweep()`` gives the current sweep."""
    from repro.fabric import desim, sim
    from repro.perfmodel import tables

    def key(_args, _result):
        return sweep()

    for i in range(1, 5):
        rec.wrap(tables, f"build_table{i}", f"perfmodel.tables.table{i}",
                 key=key)
    rec.wrap(tables, "run_variant", "matmul.runner.run_variant", key=key)
    rec.wrap(sim.SimFabric, "run", "fabric.sim.run", key=key)
    rec.wrap(desim.Simulator, "run", "fabric.desim.run", key=key)


def install_daemon(rec: Recorder, trace_dir: str) -> None:
    """The serve daemon (control plane) and, inherited through fork, its
    pool workers (data plane)."""
    from repro.analysis import protocol_mc
    from repro.fabric import controller, wire
    from repro.navp.kernels import KERNELS
    from repro.resilience.checkpoint import DiskStore
    from repro.serve import ledger, pool, scheduler, service, worker

    def submitted_jid(_args, result):
        return result.get("job") if isinstance(result, dict) else None

    def record_jid(args, _result):
        return args[1].get("jid") if isinstance(args[1], dict) else None

    def inconclusive(_args, result):
        status = getattr(result, "status", None)
        yield "serve.catalog.verdict_inconclusive", int(
            status == "INCONCLUSIVE")

    def frame_bytes(_args, result):
        return result if isinstance(result, int) else 0

    def bundle_bytes(args, _result):
        try:
            return os.path.getsize(args[0]._path(args[1]))
        except (AttributeError, OSError):
            return 0

    rec.wrap(service.ServeService, "submit", "serve.service.submit",
             key=submitted_jid)
    rec.wrap(ledger.JobLedger, "append", "serve.ledger.append",
             key=record_jid)
    rec.wrap(service, "admission_verdict",
             "serve.catalog.admission_verdict")
    # admission_verdict is cached: count the verdicts actually computed
    rec.wrap(protocol_mc, "model_check", "analysis.protocol_mc.model_check",
             counters=inconclusive)
    rec.wrap(scheduler, "build_job_suite", "serve.catalog.build_job_suite",
             key=_thread_jid)
    rec.wrap(scheduler.JobRun, "run", "serve.scheduler.run",
             key=lambda args, _r: args[0].record.jid, cpu=True)
    rec.wrap(pool.WorkerPool, "send", "serve.pool.send", key=_thread_jid)
    rec.wrap(pool.WorkerPool, "ship", "serve.pool.ship", key=_thread_jid)
    rec.wrap(DiskStore, "save", "resilience.checkpoint.save",
             key=_thread_jid, nbytes=bundle_bytes)
    rec.wrap(wire.FrameSocket, "send", "fabric.wire.send",
             nbytes=frame_bytes)
    # worker side: only pool workers run cores and kernels
    rec.wrap(controller.WorkerCore, "handle", "fabric.controller.handle")
    rec.wrap(controller.WorkerCore, "step", "fabric.controller.handle")
    for kernel in KERNELS.values():
        rec.wrap(kernel, "fn", "navp.kernels")

    worker_main = worker.pool_worker_main

    def traced_worker_main(*args, **kwargs):
        rec.reset()   # forked from the daemon: drop its aggregates
        try:
            return worker_main(*args, **kwargs)
        finally:
            rec.dump(os.path.join(trace_dir, f"worker-{os.getpid()}.json"),
                     "worker")

    worker.pool_worker_main = traced_worker_main


# -- reading the dumps back ------------------------------------------------

def load_dir(trace_dir: str) -> list:
    out = []
    for name in sorted(os.listdir(trace_dir)):
        if name.endswith(".json"):
            with open(os.path.join(trace_dir, name), encoding="utf-8") as fh:
                out.append(json.load(fh))
    return out


def window_sum(dumps, name: str, t0: float, t1: float):
    """``[calls, total_s, self_s, bytes]`` of span ``name`` over the
    buckets that lie wholly inside ``[t0, t1)``."""
    lo, hi = t0 / BUCKET_S, t1 / BUCKET_S
    acc = [0, 0.0, 0.0, 0]
    for dump in dumps:
        for b, calls, tot, own, nb in dump["buckets"].get(name, ()):
            if b >= lo and b + 1 <= hi:
                acc[0] += calls
                acc[1] += tot
                acc[2] += own
                acc[3] += nb
    return acc


def bucket_window(t0: float, t1: float) -> tuple:
    """The part of ``[t0, t1)`` that whole buckets cover."""
    return (math.ceil(t0 / BUCKET_S) * BUCKET_S,
            math.floor(t1 / BUCKET_S) * BUCKET_S)
