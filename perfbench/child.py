"""Run one workload once in a fresh interpreter and write its record.

Usage (``run.py`` is the normal caller)::

    PYTHONPATH=src python perfbench/child.py --workload raresim_z \\
        --seed 3 --work-dir /tmp/w --out /tmp/w/record.json [--trace]

The record holds the output checks, the timestamps the parent turns
into end-to-end metrics (``time.monotonic`` is system-wide, so parent
and child readings compare), and, with ``--trace``, per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import time

from workloads import WORKLOADS, check_golden, program_inputs, run_simulation


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true",
                        help="serve_mixed: start and stop the server only")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    inputs = program_inputs(args.workload, args.scale, args.seed)
    if args.workload == "serve_mixed":
        from serveload import run_serve

        record = run_serve(inputs["jobs"], args.work_dir, args.trace,
                           args.setup_only)
    else:
        record = run_simulation(args.workload, inputs, args.work_dir,
                                args.trace)
        record["failures"] += check_golden(
            args.workload, args.scale, args.seed, record["digest"]
        )
    record["t_end"] = time.monotonic()
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
