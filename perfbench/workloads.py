"""The benchmark's workloads: program inputs, entry-point calls, checks.

Each workload turns the benchmark seed into the inputs it hands the
program, calls one public entry point, and checks the output.  The
``full`` scale is what the benchmark times; the ``tiny`` scale runs the
same code paths in about a second, for the untimed warm-up and the
benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import resource
import statistics
import time
from typing import Dict, List, Optional

#: Seed whose full-scale and tiny-scale results are pinned in golden.json.
DEFAULT_SEED = 0

#: Shards of campaign_z_hot; the workload is unmeasured below this many cores.
CAMPAIGN_SHARDS = 2

#: Every workload the benchmark knows, in documentation order.
WORKLOADS = ("campaign_z_hot", "scenario_z_64k", "raresim_z", "serve_mixed")

#: Which serve job kind each simulation workload is, for the shared checks.
KIND = {
    "campaign_z_hot": "campaign",
    "scenario_z_64k": "scenario",
    "raresim_z": "raresim",
}

#: The nominal-BER mixed scenario of scenario_z_64k: transient flips at
#: the paper's 5.3e-6 per bit per scrub, two- and four-bit bursts, and a
#: 1 ppm stuck-at map.
NOMINAL_SCENARIO = {
    "transient_ber": 5.3e-6,
    "burst": {"rate": 1e-4, "length_pmf": {"2": 0.5, "4": 0.5}},
    "stuck": {"ppm": 1.0},
}

#: An accelerated scenario for small geometries, so every correction
#: path runs (the nominal one injects almost nothing into 64 lines).
ACCELERATED_SCENARIO = {
    "transient_ber": 1e-3,
    "burst": {"rate": 1e-2, "length_pmf": {"2": 0.5, "4": 0.5}},
    "stuck": {"ppm": 100.0},
}

SIZES: Dict[str, Dict[str, Dict[str, object]]] = {
    "campaign_z_hot": {
        "full": {"ber": 8e-4, "group_size": 32, "intervals": 100,
                 "checkpoint_every": 25},
        "tiny": {"ber": 8e-4, "group_size": 8, "intervals": 8,
                 "checkpoint_every": 2},
    },
    "scenario_z_64k": {
        "full": {"scenario": NOMINAL_SCENARIO, "group_size": 256,
                 "intervals": 200},
        "tiny": {"scenario": ACCELERATED_SCENARIO, "group_size": 8,
                 "intervals": 8},
    },
    "raresim_z": {
        "full": {"ber": 1e-4, "group_size": 64, "trials": 300},
        "tiny": {"ber": 1e-4, "group_size": 16, "trials": 8},
    },
    "serve_mixed": {
        "full": {"fresh_per_kind": 34},
        "tiny": {"fresh_per_kind": 2},
    },
}

_HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(_HERE, "golden.json")


def program_inputs(workload: str, scale: str, seed: int) -> Dict[str, object]:
    """The inputs the program receives, a pure function of the seed."""
    rng = random.Random(f"{workload}/{scale}/{seed}")
    if workload == "serve_mixed":
        from serveload import job_list

        return {"jobs": job_list(rng, **SIZES[workload][scale])}
    params = dict(SIZES[workload][scale])
    params["seed"] = rng.getrandbits(32)
    return params


def result_digest(result: Dict[str, object]) -> str:
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def check_output(kind: str, params: Dict, result: Dict) -> List[str]:
    """Failures of one campaign/raresim/scenario result, as messages.

    Any seed must complete every requested unit untruncated; campaign
    and scenario results must also account every line of every interval
    and show no silent data corruption.
    """
    failures = []
    units = "trials" if kind == "raresim" else "intervals"
    if result.get(units) != params[units]:
        failures.append(
            f"{units} completed {result.get(units)} != requested {params[units]}"
        )
    if result.get("truncated") or result.get("stop_reason"):
        failures.append(f"truncated ({result.get('stop_reason')!r})")
    if kind == "raresim":
        failed = result.get("conditional_failures", -1)
        if not 0 <= failed <= params[units]:
            failures.append(f"conditional_failures {failed} out of range")
        return failures
    lines = int(params["group_size"]) ** 2
    outcomes = result.get("outcomes", {})
    if result.get("lines") != lines:
        failures.append(f"lines {result.get('lines')} != {lines}")
    if outcomes.get("sdc", 0):
        failures.append(f"{outcomes['sdc']} silent data corruptions")
    total = sum(outcomes.values())
    if total != lines * params[units]:
        failures.append(
            f"outcome total {total} != lines x intervals {lines * params[units]}"
        )
    return failures


def check_golden(workload: str, scale: str, seed: int, digest: str) -> List[str]:
    """The default-seed result must match the committed digest."""
    if seed != DEFAULT_SEED:
        return []
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        golden = json.load(handle)
    expected = golden.get(f"{workload}/{scale}")
    if expected != digest:
        return [f"digest {digest[:16]} != golden {str(expected)[:16]}"]
    return []


class FirstReport:
    """A ``progress=`` hook that records when the first report arrived."""

    enabled = True

    def __init__(self) -> None:
        self.at: Optional[float] = None

    def update(self, done: Optional[int] = None, advance: int = 1) -> None:
        if self.at is None:
            self.at = time.monotonic()

    def note_resumed(self, units: int) -> None:
        pass

    def finish(self) -> None:
        pass


def quantile(values: List[float], q: int) -> float:
    """The q-th percentile (1..99) by the inclusive method, 0 if empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    """Largest resident set of this process or any waited-for descendant."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def run_simulation(workload: str, params: Dict, work_dir: str,
                   trace: bool) -> Dict[str, object]:
    """Call the workload's entry point once; returns the child record."""
    started = time.monotonic()
    from repro.obs import Telemetry
    from repro.parallel import (
        run_sharded_campaign,
        run_sharded_raresim,
        run_sharded_scenario,
    )
    from repro.reliability.scenario import FaultScenario

    import_s = time.monotonic() - started
    recorder = telemetry = None
    if trace:
        from layers import LayerRecorder, install_layers

        recorder = LayerRecorder(work_dir)
        install_layers(recorder)
        telemetry = Telemetry.create(span_capacity=1_000_000)
    progress = FirstReport()
    called = time.monotonic()
    if workload == "campaign_z_hot":
        result = run_sharded_campaign(
            "Z", params["ber"], params["intervals"], params["group_size"],
            shards=CAMPAIGN_SHARDS, seed=params["seed"], backend="numpy",
            checkpoint_path=os.path.join(work_dir, "campaign.ck.json"),
            checkpoint_every=params["checkpoint_every"],
            telemetry=telemetry, progress=progress,
        )
    elif workload == "scenario_z_64k":
        result = run_sharded_scenario(
            "Z", FaultScenario.from_dict(params["scenario"]),
            params["intervals"], params["group_size"], seed=params["seed"],
            backend="numpy", telemetry=telemetry, progress=progress,
        )
    else:
        result = run_sharded_raresim(
            "Z", params["ber"], params["trials"], params["group_size"],
            seed=params["seed"], backend="numpy", telemetry=telemetry,
            progress=progress,
        )
    returned = time.monotonic()
    payload = result.as_dict()
    units = params["trials" if workload == "raresim_z" else "intervals"]
    record: Dict[str, object] = {
        "units": units,
        "first_progress": progress.at if progress.at is not None else returned,
        "digest": result_digest(payload),
        "result": payload,
        "failures": check_output(KIND[workload], params, payload),
    }
    if recorder is not None:
        recorder.collect_shards()
        record["layers"] = layer_metrics(
            recorder, telemetry, params, units, import_s,
            entry_s=returned - called,
            first_unit_s=record["first_progress"] - called,
        )
    record["peak_rss_mb"] = peak_rss_mb()
    return record


def layer_metrics(recorder, telemetry, params: Dict, units: int,
                  import_s: float, entry_s: float,
                  first_unit_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced simulation call."""
    from layers import span_self_times

    layers = recorder.metrics()
    frames = layers.get("core.scrub_frames.frames", 0.0)
    busy = recorder.shard_busy
    layers.update({
        "cli.import_s": import_s,
        "core.build_s": layers.get("core.build.s", 0.0),
        "core.visit_ratio": frames / (int(params["group_size"]) ** 2 * units),
        "reliability.first_unit_s": first_unit_s,
        "parallel.shard_busy_max_s": max(busy, default=0.0),
        "parallel.shard_busy_mean_s": statistics.fmean(busy) if busy else 0.0,
        "parallel.overhead_s": entry_s - max(busy) if busy else 0.0,
    })
    self_times = span_self_times(telemetry.tracer)
    for phase in ("inject", "scrub", "correct"):
        layers[f"reliability.phase_{phase}.s"] = self_times.get(
            f"phase_{phase}", 0.0
        )
    return layers
