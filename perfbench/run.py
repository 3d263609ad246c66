"""End-to-end benchmark of the repro package: one workload per command.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload campaign_z_hot --seed 3 \\
        --seconds 10 --trace 0

Every timed run is a fresh interpreter (``perfbench/child.py``) calling
one public entry point; the parent turns the child's timestamps into
metrics, summarises them over the runs, prints one line per metric with
its unit, and ends with one JSON result line.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates untraced and traced
runs and reports the per-layer metrics plus the tracing overhead.
Exit status is 0 only when every output check passed.  See
``perfbench/README.md`` for the workloads, metrics and layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    CAMPAIGN_SHARDS,
    DEFAULT_SEED,
    KIND,
    WORKLOADS,
    quantile,
)

#: The workloads that call a simulation entry point in-process.
SIMULATIONS = tuple(KIND)

#: (name, unit, better, workloads) of every end-to-end metric.  A job
#: is a serve submission, so the job metrics exist on serve_mixed only.
END_TO_END: List[Tuple[str, str, str, Tuple[str, ...]]] = [
    ("wall_s", "s", "lower", WORKLOADS),
    ("setup_s", "s", "lower", WORKLOADS),
    ("units_per_s", "1/s", "higher", SIMULATIONS),
    ("jobs_per_s", "1/s", "higher", ("serve_mixed",)),
    ("job_latency_p50_s", "s", "lower", ("serve_mixed",)),
    ("job_latency_p90_s", "s", "lower", ("serve_mixed",)),
    ("peak_rss_mb", "MB", "lower", WORKLOADS),
]


def end_to_end_metrics(workload: str) -> List[Tuple[str, str, str]]:
    """(name, unit, better) of the end-to-end metrics ``workload`` reports."""
    return [(name, unit, better) for name, unit, better, where in END_TO_END
            if workload in where]


_CORE_SETUP = "setup_s on scenario_z_64k; units_per_s on raresim_z (encode)"
_INTERVAL = "units_per_s on campaign_z_hot and scenario_z_64k"
_KERNEL = "units_per_s on campaign_z_hot (large batches) and raresim_z (small)"
_SIM = "units_per_s on campaign_z_hot, scenario_z_64k and raresim_z"
_SHARDS = "wall_s and units_per_s on campaign_z_hot"
_SERVE = "job_latency_p50_s, job_latency_p90_s and jobs_per_s on serve_mixed"

#: (name, unit, the end-to-end metric and workload it should move).
PER_LAYER: List[Tuple[str, str, str]] = [
    ("cli.help_s", "s", "setup_s on every workload"),
    ("cli.import_s", "s",
     "setup_s on every workload, most on campaign_z_hot, raresim_z, serve_mixed"),
    ("core.build_s", "s", _CORE_SETUP),
    ("core.write_data.calls", "count", _CORE_SETUP),
    ("core.write_data.s", "s", _CORE_SETUP),
    ("core.initialize_parities.calls", "count", _CORE_SETUP),
    ("core.initialize_parities.s", "s", _CORE_SETUP),
    ("core.encode.calls", "count", _CORE_SETUP),
    ("core.encode.s", "s", _CORE_SETUP),
    ("core.scrub_frames.calls", "count", _INTERVAL),
    ("core.scrub_frames.frames", "frames", _INTERVAL),
    ("core.scrub_frames.s", "s", _INTERVAL),
    ("core.visit_ratio", "ratio", _INTERVAL),
]
for _name in ("batch_decode", "batch_decode_clean"):
    PER_LAYER += [
        (f"kernels.{_name}.calls", "count", _KERNEL),
        (f"kernels.{_name}.words", "words", _KERNEL),
        (f"kernels.{_name}.s", "s", _KERNEL),
    ]
for _name in ("batch_verify", "xor_fold", "scatter_fault_vectors",
              "fold_line_masks"):
    PER_LAYER += [
        (f"kernels.{_name}.calls", "count", _KERNEL),
        (f"kernels.{_name}.s", "s", _KERNEL),
    ]
PER_LAYER += [
    ("sttram.inject_frames.calls", "count", _INTERVAL),
    ("sttram.inject_frames.dirty", "frames", _INTERVAL),
    ("sttram.inject_frames.s", "s", _INTERVAL),
    ("sttram.dirty_frames.calls", "count", _INTERVAL),
    ("sttram.dirty_frames.s", "s", _INTERVAL),
    ("reliability.phase_inject.s", "s", _SIM),
    ("reliability.phase_scrub.s", "s", _SIM),
    ("reliability.phase_correct.s", "s", _SIM),
    ("reliability.heal.calls", "count", _SIM),
    ("reliability.heal.s", "s", _SIM),
    ("reliability.trial.calls", "count", "units_per_s on raresim_z"),
    ("reliability.trial.s", "s", "units_per_s on raresim_z"),
    ("reliability.first_unit_s", "s", _SIM + "; setup_s on scenario_z_64k"),
    ("parallel.shard_busy_max_s", "s", _SHARDS),
    ("parallel.shard_busy_mean_s", "s", _SHARDS),
    ("parallel.overhead_s", "s", _SHARDS),
    ("parallel.merge.s", "s", _SHARDS),
    ("resilience.checkpoint_save.calls", "count",
     "units_per_s on campaign_z_hot; job_latency_p50_s on serve_mixed"),
    ("resilience.checkpoint_save.s", "s",
     "units_per_s on campaign_z_hot; job_latency_p50_s on serve_mixed"),
    ("resilience.checkpoint_save.bytes", "bytes",
     "units_per_s on campaign_z_hot; job_latency_p50_s on serve_mixed"),
    ("serve.ready_s", "s", "setup_s on serve_mixed"),
    ("serve.queue_wait_p50_s", "s", _SERVE),
    ("serve.run_p50_s", "s", _SERVE),
    ("serve.hit_p50_s", "s", _SERVE),
    ("serve.http_rtt_p50_s", "s", _SERVE),
    ("serve.dedup_ratio", "ratio", _SERVE),
    ("obs.trace_overhead", "ratio",
     "none; bounds how far the per-layer figures can be trusted"),
]

#: Fewest timed runs per workload, whatever ``--seconds`` says.  One
#: serve_mixed run already holds over a hundred timed submissions.
MIN_RUNS = {"campaign_z_hot": 2, "scenario_z_64k": 2, "raresim_z": 2,
            "serve_mixed": 1}

#: Server start-ups per serve_mixed run whose ready time makes setup_s.
SERVE_SETUPS = 3

#: Fresh ``python -m repro --help`` runs per traced run.
HELP_RUNS = 3

#: Wall-clock budget of one command; children are killed past it.
BUDGET_S = 170.0


class Bench:
    """Runs children for one workload and tallies their checks."""

    def __init__(self, workload: str, seed: int, work_root: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.work_root = work_root
        self.deadline = time.monotonic() + BUDGET_S
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self._count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )

    def _spawn(self, command: List[str], log_path: Path) -> Tuple[float, int]:
        """Run ``command`` in its own process group; (start, exit code)."""
        with open(log_path, "wb") as log:
            started = time.monotonic()
            process = subprocess.Popen(
                command, env=self.env, cwd=str(ROOT), stdout=log,
                stderr=log, start_new_session=True,
            )
            try:
                code = process.wait(timeout=max(1.0, self.deadline - started))
            except subprocess.TimeoutExpired:
                code = -1
            try:  # stop anything left in the group (shards, the server)
                os.killpg(process.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            process.wait()
        return started, code

    def child(self, scale: str = "full", seed: Optional[int] = None,
              trace: bool = False, setup_only: bool = False):
        """One fresh-interpreter run; returns (start time, record or None)."""
        self._count += 1
        work = self.work_root / f"run{self._count}"
        work.mkdir(parents=True)
        out = work / "record.json"
        command = [
            sys.executable, str(HERE / "child.py"),
            "--workload", self.workload, "--scale", scale,
            "--seed", str(self.seed if seed is None else seed),
            "--work-dir", str(work), "--out", str(out),
        ]
        command += ["--trace"] * trace + ["--setup-only"] * setup_only
        started, code = self._spawn(command, work / "child.log")
        record = None
        if code == 0 and out.exists():
            record = json.loads(out.read_text(encoding="utf-8"))
        self._tally(record, work / "child.log", code)
        return started, record

    def _tally(self, record, log_path: Path, code: int) -> None:
        if record is None:
            self.attempted += 1
            self.failed += 1
            tail = log_path.read_text(errors="replace").strip().splitlines()[-5:]
            self.messages.append(f"child exited {code}: " + " | ".join(tail))
            return
        self.attempted += int(record.get("attempted", 1))
        failures = record.get("failures", [])
        self.failed += int(record.get("failed", 1 if failures else 0))
        self.messages.extend(failures)

    def time_left(self, estimate: float) -> bool:
        return time.monotonic() + estimate < self.deadline

    def help_s(self) -> float:
        """Median wall time of a fresh ``python -m repro --help``."""
        times = []
        for _ in range(HELP_RUNS):
            log = self.work_root / "help.log"
            started, code = self._spawn(
                [sys.executable, "-m", "repro", "--help"], log
            )
            times.append(time.monotonic() - started)
            self.attempted += 1
            if code != 0:
                self.failed += 1
                self.messages.append(f"repro --help exited {code}")
        return statistics.median(times)


def rep_metrics(workload: str, started: float, record: Dict) -> Dict:
    """End-to-end figures of one run, plus serve job latencies (README.md)."""
    if workload == "serve_mixed":
        wall = record["wall_s"]
        return {
            "wall_s": wall,
            "setup_s": record["setup_s"],
            "jobs_per_s": record["completed"] / wall,
            "peak_rss_mb": record["peak_rss_mb"],
            "latencies": record["latencies"],
        }
    wall = record["t_end"] - started
    setup = record["first_progress"] - started
    return {
        "wall_s": wall,
        "setup_s": setup,
        "units_per_s": record["units"] / (wall - setup),
        "peak_rss_mb": record["peak_rss_mb"],
    }


def environment_stamp(workload: str, seed: int) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "backend": "numpy",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
    }


def measure(bench: Bench, seconds: float, trace: bool):
    """Timed runs for about ``seconds``, and at least MIN_RUNS tries.

    A run starts only if, at its typical length, it ends less than half
    a run past ``seconds``, so the measured window is ``seconds`` long
    on average instead of always overshooting by the last run.  Runs
    that fail count as tried, so a program that fails every run still
    ends the command.  Traced runs alternate with untraced ones, so the
    overhead ratio compares runs made under the same conditions.
    """
    plain: List[Tuple[float, Dict]] = []
    traced: List[Tuple[float, Dict]] = []
    began = time.monotonic()
    steps: List[float] = []
    while True:
        typical = statistics.median(steps) if steps else 0.0
        if (len(steps) >= MIN_RUNS[bench.workload]
                and time.monotonic() - began + typical / 2 >= seconds):
            break
        if not bench.time_left(max(steps, default=0.0) * 1.5):
            break
        step = time.monotonic()
        for traced_run in ([False, True] if trace else [False]):
            started, record = bench.child(trace=traced_run)
            if record is not None:
                (traced if traced_run else plain).append((started, record))
        steps.append(time.monotonic() - step)
    return plain, traced


def interquartile_mean(values: List[float]) -> float:
    """Mean of the middle half of ``values`` (of all, when under four)."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def summary_metrics(workload: str, runs) -> Dict[str, float]:
    """One figure per metric over the runs (README.md, "Length").

    ``setup_s`` is the median of the runs' set-ups; the other metrics
    are interquartile means, which average over more of the window than
    a median while still dropping the slowest and fastest quarter.
    Serve latency quantiles pool every run's jobs.
    """
    per_run = [rep_metrics(workload, started, record) for started, record in runs]
    summary = {
        name: (statistics.median if name == "setup_s" else interquartile_mean)(
            [run[name] for run in per_run]
        )
        for name in per_run[0] if name != "latencies"
    }
    if workload == "serve_mixed":
        pooled = [value for run in per_run for value in run["latencies"]]
        summary["job_latency_p50_s"] = quantile(pooled, 50)
        summary["job_latency_p90_s"] = quantile(pooled, 90)
        summary["latency_samples"] = len(pooled)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    stamp = environment_stamp(args.workload, args.seed)
    print("environment " + json.dumps(stamp, sort_keys=True))
    if args.workload == "campaign_z_hot" and stamp["nproc"] < CAMPAIGN_SHARDS:
        print(f"campaign_z_hot: unmeasured, nproc {stamp['nproc']} < "
              f"{CAMPAIGN_SHARDS} shards")
        return 3
    work_root = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    bench = Bench(args.workload, args.seed, work_root)
    try:
        # Untimed warm-up: compiles bytecode and checks the tiny golden.
        bench.child(scale="tiny", seed=DEFAULT_SEED)
        plain, traced = measure(bench, args.seconds, bool(args.trace))
        setups = []
        if args.workload == "serve_mixed" and not args.trace:
            setups = [bench.child(setup_only=True)[1]
                      for _ in range(SERVE_SETUPS - len(plain))]
        help_s = bench.help_s() if args.trace else 0.0
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            work_root.parent.rmdir()  # only when no other run is using it
        except OSError:
            pass
    for message in bench.messages:
        print(f"check failed: {message}")
    metrics: Dict[str, Dict[str, float]] = {}
    if plain and traced:
        metrics = layer_report(args.workload, plain, traced, help_s)
    elif plain and not args.trace:
        metrics = end_to_end_report(args.workload, args.seed, plain, setups)
    correct = bench.failed == 0 and bool(metrics)
    failed_frac = bench.failed / max(1, bench.attempted)
    print(f"  {'failed_frac':<20} {failed_frac:>12.6g} ratio "
          f"({bench.failed} of {bench.attempted})")
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def end_to_end_report(workload: str, seed: int, plain, setups):
    """End-to-end figures over the timed runs, printed with their units."""
    summary = summary_metrics(workload, plain)
    if setups:
        summary["setup_s"] = statistics.median(
            [record["setup_s"] for record in setups if record]
            + [record["setup_s"] for _, record in plain]
        )
    print(f"{workload} seed={seed}: {len(plain)} fresh-interpreter runs "
          f"(setup_s median, others interquartile mean)")
    metrics = {}
    for name, unit, _ in end_to_end_metrics(workload):
        metrics[name] = {"value": summary[name], "unit": unit}
        print(f"  {name:<20} {summary[name]:>12.6g} {unit}")
    if "latency_samples" in summary:
        print(f"  (job latency samples: {summary['latency_samples']})")
    return metrics


def layer_report(workload: str, plain, traced, help_s: float):
    """Per-layer medians over the traced runs, printed with their targets."""
    layers = [record.get("layers", {}) for _, record in traced]
    walls = [rep_metrics(workload, s, r)["wall_s"] for s, r in traced]
    untraced = summary_metrics(workload, plain)["wall_s"]
    values = {
        name: statistics.median(layer.get(name, 0.0) for layer in layers)
        for name, _, _ in PER_LAYER
    }
    values["cli.help_s"] = help_s
    values["obs.trace_overhead"] = interquartile_mean(walls) / untraced - 1.0
    if workload == "serve_mixed":
        values["serve.ready_s"] = statistics.median(
            record["setup_s"] for _, record in traced
        )
    print(f"{workload}: per-layer medians of {len(traced)} traced runs "
          f"(value unit -> end-to-end metric it should move)")
    metrics = {}
    for name, unit, target in PER_LAYER:
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<34} {values[name]:>12.6g} {unit:<6} -> {target}")
    return metrics


if __name__ == "__main__":
    raise SystemExit(main())
