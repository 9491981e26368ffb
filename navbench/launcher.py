"""Start ``repro``'s command line with the benchmark's spans installed.

``python navbench/launcher.py serve ARGS`` behaves as
``python -m repro serve ARGS`` (with ``src`` on ``PYTHONPATH``), except
that the wrappers of :func:`spans.install_daemon` are in place before
``repro``'s main runs, so the pool workers it forks inherit them. The
daemon's aggregates are written to ``$NAVBENCH_TRACE_DIR`` when main
returns; each worker writes its own as it exits.
"""

import os
import sys

import spans


def main() -> int:
    trace_dir = os.environ["NAVBENCH_TRACE_DIR"]
    rec = spans.Recorder()
    spans.install_daemon(rec, trace_dir)
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[1:])
    finally:
        rec.dump(os.path.join(trace_dir, f"daemon-{os.getpid()}.json"),
                 "daemon")


if __name__ == "__main__":
    sys.exit(main())
