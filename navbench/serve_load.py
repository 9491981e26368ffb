"""The serve workloads: a real ``repro serve`` daemon under a closed loop.

A session starts ``python -m repro serve --pool 2 --state-dir DIR``
daemons one after another, each in its own process group on a fresh
state directory inside the checkout. Each is loaded only through
:class:`repro.serve.ServeClient` and ends with a drained ``shutdown``.
Teardown is part of the check: the daemon must exit 0, its ledger must
replay as cleanly closed and its process group must be empty. A
session with a daemon that fails any of these counts every one of its
ops as failed and prints the daemon's log tail.

Clients are threads of this process (at most ``nproc`` = 2). Each
submits a job and waits for it, as ``repro submit --wait`` does, then
submits the next. A job is correct when it completed, its result was
verified by the daemon and its digest equals a SimFabric run of the
same ``(program, g, seed, ab)``; those references are computed before
any daemon starts, from a pool of job seeds drawn from ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

import common
import spans

PROGRAMS = ("navp-2d-dsc", "navp-2d-pipeline", "mpi-gentleman")
POOL = 2
SEED_POOL = 4
#: Ledger counters of ``repro status`` summed over the timed phase.
LEDGER_STATS = ("appends", "fsyncs", "group_committed")
#: BLAS thread settings removed from the daemon's environment so it
#: runs with library defaults, as from a user's shell. Never set to 1:
#: that would hide the oversubscription a later change should fix.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


#: Daemons per untraced run; ``setup_s`` is the median of their set-ups.
SETUPS = 3
#: The timed phase runs in slices of this length. Between slices the
#: clients pause and the host probe runs with the daemon idle.
SLICE_S = 2.0


@dataclass(frozen=True)
class Shape:
    g: int
    ab: int
    workers: int      # lease width
    clients: int
    #: Scale the timed phase by the host probe (:func:`_timed_figures`).
    #: Only where the job time tracks the probe: `serve_small`'s
    #: throughput fell 1.5x when the probe slowed 1.54x, while
    #: `serve_blocks`' p50 held at 57-58.5 ms as the probe moved 1.4x.
    scaled: bool


WORKLOADS = {
    "serve_small": Shape(g=3, ab=4, workers=1, clients=2, scaled=True),
    "serve_blocks": Shape(g=2, ab=128, workers=2, clients=1, scaled=False),
}


@dataclass
class Op:
    program: str
    seed: int
    jid: str | None
    c0: float         # submit called
    c1: float         # submit returned
    c2: float         # wait returned
    problem: str | None
    slice: int = -1   # timed slice, -1 for a set-up job


# -- references -----------------------------------------------------------

def references(shape: Shape, seeds: list) -> dict:
    """SimFabric digests of every job the run can submit."""
    from repro.matmul import run_ir2d_suite
    from repro.serve import build_job_suite

    refs = {}
    for program in PROGRAMS:
        for seed in seeds:
            suite, _a, _b = build_job_suite(program, shape.g, seed, shape.ab)
            c, _res = run_ir2d_suite(suite, "sim")
            refs[(program, seed)] = hashlib.sha256(c.tobytes()).hexdigest()
    return refs


# -- one daemon -----------------------------------------------------------

def daemon_env(root: str, trace_dir: str | None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["TMPDIR"] = common.work_dir(root)
    if trace_dir is not None:
        env["NAVBENCH_TRACE_DIR"] = trace_dir
    return env


def blas_probe(root: str) -> dict:
    """The BLAS settings a daemon started with :func:`daemon_env` gets."""
    code = (
        "import json, os, ctypes, numpy\n"
        "libs = [l.split()[-1] for l in open('/proc/self/maps')\n"
        "        if 'openblas' in l and '.so' in l]\n"
        "n = None\n"
        "for lib in dict.fromkeys(libs):\n"
        "    for sym in ('scipy_openblas_get_num_threads64_',\n"
        "                'openblas_get_num_threads64_',\n"
        "                'openblas_get_num_threads'):\n"
        "        fn = getattr(ctypes.CDLL(lib), sym, None)\n"
        "        if fn is not None and n is None:\n"
        "            n = fn()\n"
        f"env = {{k: os.environ.get(k, 'unset') for k in {BLAS_VARS!r}}}\n"
        "print(json.dumps({'env': env, 'openblas_threads': n,\n"
        "                  'nproc': os.cpu_count()}))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=root,
                         env=daemon_env(root, None), capture_output=True,
                         text=True, timeout=30)
    try:
        return json.loads(out.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": out.stderr.strip()[-200:]}


class Daemon:
    """One ``repro serve`` process group on a fresh state directory."""

    def __init__(self, root: str, trace_dir: str | None):
        self.root = root
        self.trace_dir = trace_dir
        self.dir = tempfile.mkdtemp(prefix="serve-",
                                    dir=common.work_dir(root))
        self.state_dir = os.path.join(self.dir, "state")
        self.addr_file = os.path.join(self.dir, "addr")
        self.log_path = os.path.join(self.dir, "daemon.log")
        self.proc = None
        self.addr = None
        self.state_mb = 0.0

    def start(self) -> None:
        from repro.serve.client import resolve_addr

        args = ["serve", "--pool", str(POOL), "--state-dir",
                self.state_dir, "--addr-file", self.addr_file]
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "repro"] + args
        else:
            cmd = [sys.executable,
                   os.path.join(common.BENCH_DIR, "launcher.py")] + args
        with open(self.log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                cmd, cwd=self.root, env=daemon_env(self.root, self.trace_dir),
                stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True)
        deadline = time.monotonic() + 30
        while True:
            try:
                with open(self.addr_file, encoding="utf-8") as fh:
                    if fh.read().endswith("\n"):
                        break
            except OSError:
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError("daemon did not come up:\n"
                                   + self.log_tail())
            time.sleep(0.01)
        self.addr = resolve_addr(None, self.addr_file)

    def pids(self) -> list:
        return common.group_pids(self.proc.pid)

    def stop(self) -> list:
        """Drained shutdown plus the teardown checks; returns problems."""
        from repro.errors import ServeError
        from repro.serve import ServeClient
        from repro.serve.ledger import replay_ledger

        if self.proc is None:
            return ["daemon was never started"]
        problems = []
        if self.addr is None:
            problems.append("daemon never listened")
        else:
            try:
                with ServeClient(self.addr, timeout=30) as client:
                    client.shutdown(drain=True)
            except ServeError as exc:
                problems.append(f"shutdown failed: {exc}")
            try:
                rc = self.proc.wait(timeout=30)
                if rc != 0:
                    problems.append(f"daemon exited {rc}")
            except subprocess.TimeoutExpired:
                problems.append("daemon still running 30 s after shutdown")
        deadline = time.monotonic() + 5
        while self.pids() and time.monotonic() < deadline:
            time.sleep(0.05)
        left = self.pids()
        if left or self.proc.poll() is None:
            problems.append(f"process group not empty after shutdown "
                            f"(pids {left}); sent SIGKILL")
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait(timeout=30)
        try:
            if not replay_ledger(os.path.join(self.state_dir,
                                              "wal")).clean_close:
                problems.append("ledger not cleanly closed")
        except ServeError as exc:
            problems.append(f"ledger replay failed: {exc}")
        self.state_mb = common.dir_mb(self.state_dir)
        return problems

    def log_tail(self, lines: int = 20) -> str:
        try:
            with open(self.log_path, encoding="utf-8",
                      errors="replace") as fh:
                return "".join(fh.readlines()[-lines:])
        except OSError:
            return ""

    def remove(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


# -- load -----------------------------------------------------------------

def one_job(client, shape: Shape, program: str, seed: int, tenant: str,
            refs: dict) -> Op:
    from repro.errors import ServeError

    c0 = time.perf_counter()
    jid, c1 = None, c0
    try:
        jid = client.submit_info(program, g=shape.g, seed=seed, ab=shape.ab,
                                 workers=shape.workers,
                                 tenant=tenant)["job"]
        c1 = time.perf_counter()
        record = client.wait(jid, timeout=20)
        problem = None
        if record.get("timed_out"):
            problem = "timed out"
        elif record["state"] != "completed":
            problem = f"{record['state']}: {record['reason']}"
        elif not record["ok"]:
            problem = "daemon could not verify the product"
        elif record["digest"] != refs[(program, seed)]:
            problem = "digest differs from the SimFabric reference"
    except ServeError as exc:   # AdmissionError included: a refusal
        problem = f"{type(exc).__name__}: {exc}"
    c2 = time.perf_counter()
    return Op(program, seed, jid, c0, max(c1, c0), c2,
              None if problem is None else f"{program} seed {seed} "
              f"{jid}: {problem}")


def client_loop(client, cid: int, shape: Shape, seeds: list, refs: dict,
                deadline: float, ops: list, slice_no: int,
                turns: list) -> None:
    """One closed-loop client until ``deadline``: fixed program
    rotation over the seed pool, resumed from ``turns[cid]``."""
    i = turns[cid]
    while time.perf_counter() < deadline:
        program = PROGRAMS[(i + cid) % len(PROGRAMS)]
        seed = seeds[(i // len(PROGRAMS) + cid) % len(seeds)]
        op = one_job(client, shape, program, seed, f"tenant{cid}", refs)
        op.slice = slice_no
        ops.append(op)
        i += 1
    turns[cid] = i


def session(root: str, shape: Shape, seeds: list, refs: dict,
            seconds: float, setups: int, traced: bool) -> dict:
    """``setups`` daemons, one after another; each is set up and then
    serves an equal share of the ``seconds`` of the timed phase, so the
    figures pool the placement luck of several daemons.

    Set-up is daemon start plus one admitted, completed job of every
    program of the mix, so admission verdicts and worker program caches
    are paid there, not in latency."""
    from repro.serve import ServeClient

    out = {"setups": [], "setup_ops": [], "problems": [], "ops": [],
           "slices": [], "daemon_cpu_s": 0.0, "workers_cpu_s": 0.0,
           "rss_mb": 0.0, "state_mb": 0.0,
           "ledger": dict.fromkeys(LEDGER_STATS, 0)}
    for i in range(setups):
        last = i == setups - 1
        trace_dir = None
        if traced and last:
            trace_dir = tempfile.mkdtemp(prefix="trace-",
                                         dir=common.work_dir(root))
        daemon = Daemon(root, trace_dir)
        try:
            t_spawn = time.perf_counter()
            daemon.start()
            with ServeClient(daemon.addr, timeout=30) as client:
                for program in PROGRAMS:
                    out["setup_ops"].append(one_job(
                        client, shape, program, seeds[0], "setup", refs))
            t_ready = time.perf_counter()
            out["setups"].append(t_ready - t_spawn)
            out["t_ready"] = t_ready
            _timed(daemon, shape, seeds, refs, seconds / setups, out)
        finally:
            problems = daemon.stop()
            if problems:
                out["teardown_failed"] = True
                print(f"navbench: teardown problems: {problems}\n"
                      f"daemon log tail:\n{daemon.log_tail()}",
                      file=sys.stderr)
            out["problems"] += problems
            out["state_mb"] = max(out["state_mb"], daemon.state_mb)
            daemon.remove()
        if trace_dir is not None:
            out["dumps"] = spans.load_dir(trace_dir)
            shutil.rmtree(trace_dir, ignore_errors=True)
    return out


def _timed(daemon: Daemon, shape, seeds, refs, seconds, out) -> None:
    """One daemon's share of the timed phase: closed-loop slices of
    ``SLICE_S``, with the host probe between slices and around the
    share, never during a slice. Adds to ``out``'s totals."""
    from repro.serve import ServeClient

    clients = [ServeClient(daemon.addr, timeout=30)
               for _ in range(shape.clients)]
    turns = [0] * shape.clients
    slices = out["slices"]
    first = len(slices)
    try:
        status0 = clients[0].status()
        pids = daemon.pids()
        cpu0 = {pid: common.cpu_s(pid) for pid in pids}
        t_start = time.perf_counter()
        end = t_start + seconds
        probe = common.spin_ms_all_cpus()
        while len(slices) == first or time.perf_counter() < end:
            s0 = time.perf_counter()
            threads = [threading.Thread(
                target=client_loop,
                args=(clients[cid], cid, shape, seeds, refs,
                      min(s0 + SLICE_S, end), out["ops"], len(slices),
                      turns)) for cid in range(shape.clients)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            s1 = time.perf_counter()
            after = common.spin_ms_all_cpus()
            slices.append({"t0": s0, "t1": s1,
                           "probe_ms": (probe + after) / 2})
            probe = after
        t_end = time.perf_counter()
        pids = daemon.pids()
        cpu1 = {pid: common.cpu_s(pid) for pid in pids}
        out["rss_mb"] = max(out["rss_mb"], sum(common.peak_rss_mb(pid)
                                               for pid in pids))
        status1 = clients[0].status()
    finally:
        for client in clients:
            client.close()
    delta = {pid: cpu1[pid] - cpu0.get(pid, 0.0) for pid in cpu1}
    out["daemon_cpu_s"] += delta.get(daemon.proc.pid, 0.0)
    out["workers_cpu_s"] += sum(v for pid, v in delta.items()
                                if pid != daemon.proc.pid)
    led0 = status0["durability"]["ledger"]
    led1 = status1["durability"]["ledger"]
    for k in LEDGER_STATS:
        out["ledger"][k] += led1[k] - led0[k]
    out["t_start"], out["t_end"] = t_start, t_end


# -- the workload ---------------------------------------------------------

def run(root: str, workload: str, seed: int, seconds: float, trace: bool,
        break_reference: bool) -> dict:
    shape = WORKLOADS[workload]
    seeds = random.Random(seed).sample(range(1, 1_000_000), SEED_POOL)
    refs = references(shape, seeds)
    if break_reference:
        # self-test: one wrong reference digest
        key = (PROGRAMS[0], seeds[0])
        refs[key] = refs[key][::-1]
    env = blas_probe(root)
    spin_before = common.spin_ms()
    if trace:
        plain = session(root, shape, seeds, refs, seconds / 2, 1, False)
        main = session(root, shape, seeds, refs, seconds / 2, 1, True)
        sessions = [plain, main]
    else:
        main = session(root, shape, seeds, refs, seconds, SETUPS,
                       False)
        sessions = [main]
    spin_after = common.spin_ms()

    attempted = failed = 0
    problems = []
    for s in sessions:
        ops = s["setup_ops"] + s["ops"]
        attempted += len(ops)
        failed += len(ops) if s.get("teardown_failed") else sum(
            1 for op in ops if op.problem)
        problems += s["problems"] + [op.problem for op in ops
                                     if op.problem]
    ops = main["ops"]
    latencies, busy_s, raw_busy_s = _timed_figures(main, shape)
    n = len(latencies)
    values = common.latency_metrics(
        latencies, attempted, attempted - failed, busy_s,
        (main["daemon_cpu_s"] + main["workers_cpu_s"]) * busy_s / raw_busy_s,
        main["rss_mb"], common.median(main["setups"]))
    probes = [sl["probe_ms"] for sl in main["slices"]]
    raw = [(op.c2 - op.c0) * 1e3 for op in ops if not op.problem]
    notes = [
        f"# {workload}: g={shape.g} ab={shape.ab} lease={shape.workers} "
        f"clients={shape.clients} pool={POOL}; job seeds {seeds}",
        f"# daemon BLAS environment: {json.dumps(env)}",
        f"# {len(ops)} timed jobs in {len(probes)} slices, "
        f"{raw_busy_s:.1f} s, {n} correct; set-up "
        f"{', '.join(f'{s:.3f}' for s in main['setups'])} s",
        f"# samples: latency n={n}, beyond p90 {common.beyond(n, 90)}; "
        f"setup_s n={len(main['setups'])}",
        f"# host.spin_ms before {spin_before:.2f}, after {spin_after:.2f}, "
        f"between slices {min(probes):.2f}-{max(probes):.2f}; "
        + (f"timed phase host-normalised to {common.REF_SPIN_MS} ms: raw "
           f"p50 {common.percentile(raw, 50):.3f} ms, raw throughput "
           f"{n / raw_busy_s:.2f}/s" if shape.scaled else
           "timed phase not normalised"),
        f"# state dir at shutdown {main['state_mb']:.1f} MB; ledger over "
        f"the timed phase {main['ledger']}",
    ]
    notes += [f"# problem: {p}" for p in problems[:10]]
    if trace:
        layers, timeline = _layers(main, shape)
        # before and after the run only: on serve_blocks the readings
        # between slices still meet the workers' spinning BLAS threads
        layers["host.spin_ms"] = (spin_before + spin_after) / 2
        p50_plain = common.median(_timed_figures(plain, shape)[0])
        p50_traced = common.median(latencies)
        layers["trace.overhead_share"] = (
            p50_traced / p50_plain - 1.0 if p50_plain else 0.0)
        values.update(layers)
        notes.append(timeline)
    return {"attempted": attempted, "failed": failed,
            "correct": failed == 0 and not problems,
            "values": values, "notes": notes}


def _timed_figures(s: dict, shape: Shape) -> tuple:
    """Latencies (s) of a session's correct timed jobs, and the busy
    seconds of its slices: scaled by each slice's host factor
    ``REF_SPIN_MS / probe`` when ``shape.scaled``, and the raw busy
    seconds."""
    factors = [common.REF_SPIN_MS / sl["probe_ms"] if shape.scaled else 1.0
               for sl in s["slices"]]
    latencies = [(op.c2 - op.c0) * factors[op.slice] for op in s["ops"]
                 if not op.problem]
    spans_s = [sl["t1"] - sl["t0"] for sl in s["slices"]]
    return (latencies, sum(d * f for d, f in zip(spans_s, factors)),
            sum(spans_s))


def _layers(s: dict, shape: Shape) -> tuple:
    """Per-layer metrics of a traced session, and its job timeline."""
    dumps = s["dumps"]
    daemon = [d for d in dumps if d["role"] == "daemon"]
    keyed = daemon[0]["keyed"] if daemon else {}
    w0, w1 = spans.bucket_window(s["t_start"], s["t_end"])
    ops = [op for op in s["ops"]
           if not op.problem and w0 <= op.c2 <= w1 and op.jid in keyed]
    jobs = max(1, len(ops))
    timed_jobs = max(1, sum(1 for op in s["ops"] if not op.problem))
    setup_end = (int(s["t_ready"] / spans.BUCKET_S) + 1) * spans.BUCKET_S

    def per_job(name, part=1, scale=1e3):
        return common.median(keyed[op.jid].get(name, [0, 0.0, 0.0])[part]
                             * scale for op in ops)

    def window(name, t0=w0, t1=w1):
        return spans.window_sum(dumps, name, t0, t1)

    stages = {"client_to_daemon": [], "service_submit": [],
              "queue_wait": [], "run": [], "unattributed": []}
    for op in ops:
        k = keyed[op.jid]
        s0, s1 = k["serve.service.submit"][3:5]
        r0, r1 = k["serve.scheduler.run"][3:5] if (
            "serve.scheduler.run" in k) else (s1, s1)
        wall = op.c2 - op.c0
        covered = max(0.0, min(r1, op.c2) - max(s0, op.c0))
        stages["client_to_daemon"].append(max(0.0, s0 - op.c0))
        stages["service_submit"].append(s1 - s0)
        stages["queue_wait"].append(max(0.0, r0 - s1))
        stages["run"].append(max(0.0, min(r1, op.c2) - max(r0, s1)))
        stages["unattributed"].append(max(0.0, wall - covered))
    med = {k: common.median(v) * 1e3 for k, v in stages.items()}

    wire = window("fabric.wire.send")
    core = window("fabric.controller.handle")
    kern = window("navp.kernels")
    save = window("resilience.checkpoint.save")
    quarter = (w1 - w0) / 4
    first = window("resilience.checkpoint.save", w0, w0 + quarter)
    last = window("resilience.checkpoint.save", w1 - quarter, w1)
    led = s["ledger"]
    out = {
        "serve.client.submit_ms": common.median(
            (op.c1 - op.c0) * 1e3 for op in ops),
        "serve.client.wait_ms": common.median(
            (op.c2 - op.c1) * 1e3 for op in ops),
        "serve.service.submit_self_ms": per_job("serve.service.submit", 2),
        "serve.queue.wait_ms": med["queue_wait"],
        "serve.ledger.append_ms": per_job("serve.ledger.append"),
        "serve.ledger.appends_per_job": led["appends"] / timed_jobs,
        "serve.ledger.fsyncs_per_job": led["fsyncs"] / timed_jobs,
        "serve.ledger.group_committed_share":
            led["group_committed"] / max(1, led["appends"]),
        "serve.catalog.admission_verdict_ms": window(
            "serve.catalog.admission_verdict", 0.0, setup_end)[1] * 1e3,
        "serve.catalog.verdict_inconclusive": window(
            "serve.catalog.verdict_inconclusive", 0.0, setup_end)[0],
        "analysis.protocol_mc.model_check_ms": window(
            "analysis.protocol_mc.model_check", 0.0, setup_end)[1] * 1e3,
        "serve.catalog.build_job_suite_ms":
            per_job("serve.catalog.build_job_suite"),
        "serve.scheduler.run_ms": per_job("serve.scheduler.run"),
        "serve.scheduler.self_ms": per_job("serve.scheduler.run", 2),
        "serve.scheduler.run_cpu_ms": per_job("serve.scheduler.run.cpu"),
        "serve.pool.send_ms": per_job("serve.pool.send"),
        "serve.pool.sends_per_job": per_job("serve.pool.send", 0, 1),
        "serve.pool.ship_ms": per_job("serve.pool.ship"),
        "fabric.wire.frames_per_job": wire[0] / jobs,
        "fabric.wire.bytes_per_job": wire[3] / jobs,
        "fabric.wire.send_ms": wire[1] * 1e3 / jobs,
        "fabric.controller.handle_self_ms": core[2] * 1e3 / jobs,
        "navp.kernels.ms": kern[1] * 1e3 / jobs,
        "navp.kernels.calls": kern[0] / jobs,
        "resilience.checkpoint.save_ms":
            save[1] * 1e3 / save[0] if save[0] else 0.0,
        "resilience.checkpoint.saves_per_job": save[0] / jobs,
        "resilience.checkpoint.bytes_per_job": save[3] / jobs,
        "resilience.checkpoint.save_ms_first_quarter":
            first[1] * 1e3 / first[0] if first[0] else 0.0,
        "resilience.checkpoint.save_ms_last_quarter":
            last[1] * 1e3 / last[0] if last[0] else 0.0,
        "resilience.checkpoint.state_dir_mb": s["state_mb"],
        "serve.daemon_cpu_ms_per_job": s["daemon_cpu_s"] * 1e3 / timed_jobs,
        "serve.workers_cpu_ms_per_job":
            s["workers_cpu_s"] * 1e3 / timed_jobs,
        "serve.job.unattributed_ms": med["unattributed"],
    }
    wall = common.median((op.c2 - op.c0) * 1e3 for op in ops)
    timeline = (
        f"# job timeline, medians over {len(ops)} jobs (ms): wall "
        f"{wall:.3f} = client->daemon {med['client_to_daemon']:.3f}, "
        f"service.submit {med['service_submit']:.3f}, queue wait "
        f"{med['queue_wait']:.3f}, scheduler.run {med['run']:.3f}, "
        f"unattributed (reply, client, wire) {med['unattributed']:.3f}")
    return out, timeline
