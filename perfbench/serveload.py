"""serve_mixed: a ``repro serve`` subprocess under closed-loop clients.

The load generator starts the server with ``--port 0 --ready-file``,
then runs :data:`CLIENTS` client threads.  Each client takes the next
submission from a shared seed-generated list, POSTs it, follows the
job's Server-Sent Events until a terminal event, and fetches the result
bytes; only then does it take the next submission (a closed loop).
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

from workloads import ACCELERATED_SCENARIO, check_output, peak_rss_mb, quantile

#: Closed-loop clients; each has at most one submission outstanding.
CLIENTS = 2

#: ``repro serve --workers``.
SERVER_WORKERS = 2

_TERMINAL = ("done", "failed", "cancelled")
_TIMEOUT_S = 60.0


def job_list(rng, fresh_per_kind: int) -> List[Dict[str, object]]:
    """Tiny jobs of each kind, each followed later by one repeat.

    Every fresh spec needs simulation; its repeat lands either right
    after it, where the other client usually joins the job in flight,
    or at a random later slot, where the store usually answers it.
    """
    fresh: List[Dict[str, object]] = []
    for _ in range(fresh_per_kind):
        fresh.append({"kind": "campaign", "level": "Z", "ber": 2e-3,
                      "intervals": 20, "group_size": 8})
        fresh.append({"kind": "raresim", "level": "Z", "ber": 1e-4,
                      "trials": 20, "group_size": 16, "num_groups": 64})
        fresh.append({"kind": "scenario", "scheme": "Z",
                      "scenario": ACCELERATED_SCENARIO, "intervals": 10,
                      "group_size": 8})
    for spec in fresh:
        spec["seed"] = rng.getrandbits(31)
        spec["backend"] = "numpy"
    rng.shuffle(fresh)
    jobs = list(fresh)
    for spec in fresh:
        first = jobs.index(spec)
        if rng.random() < 0.5:
            slot = first + 1
        else:
            slot = rng.randint(first + 1, len(jobs))
        jobs.insert(slot, spec)
    return jobs


class _Client:
    """Blocking HTTP/1.1 calls against the server (one connection each)."""

    def __init__(self, port: int) -> None:
        self.port = port

    def request(self, method: str, path: str,
                body: Optional[Dict] = None) -> Tuple[int, bytes]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=_TIMEOUT_S
        )
        try:
            payload = json.dumps(body).encode("utf-8") if body is not None else None
            connection.request(method, path, body=payload)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def events(self, job_id: str) -> Dict[str, float]:
        """Arrival time of each event type until the job is terminal."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=_TIMEOUT_S
        )
        seen: Dict[str, float] = {}
        try:
            connection.request("GET", f"/v1/jobs/{job_id}/events")
            response = connection.getresponse()
            if response.status != 200:
                return seen
            event = ""
            while True:
                line = response.fp.readline()
                if not line:
                    return seen
                text = line.decode("utf-8").strip()
                if text.startswith("event:"):
                    event = text.split(":", 1)[1].strip()
                    seen.setdefault(event, time.monotonic())
                elif not text and event in _TERMINAL:
                    seen["terminal:" + event] = seen[event]
                    return seen
        finally:
            connection.close()


class _LoadState:
    """Everything the client threads share, behind one lock."""

    def __init__(self, jobs: List[Dict[str, object]]) -> None:
        self.jobs = jobs
        self.next = 0
        self.lock = threading.Lock()
        self.first_bytes: Dict[str, bytes] = {}
        self.samples: List[Dict[str, object]] = []

    def take(self) -> Optional[Dict[str, object]]:
        with self.lock:
            if self.next >= len(self.jobs):
                return None
            self.next += 1
            return self.jobs[self.next - 1]


def _units(spec: Dict[str, object]) -> int:
    return int(spec["trials" if spec["kind"] == "raresim" else "intervals"])


def _submit(client: _Client, state: _LoadState, spec: Dict[str, object],
            probe_health: bool) -> Dict[str, object]:
    """One closed-loop submission; returns its sample record."""
    sample: Dict[str, object] = {"units": _units(spec), "failures": []}
    failures: List[str] = sample["failures"]
    if probe_health:
        probed = time.monotonic()
        status, _ = client.request("GET", "/healthz")
        sample["healthz_s"] = time.monotonic() - probed
        if status != 200:
            failures.append(f"/healthz returned {status}")
    submitted = time.monotonic()
    sample["submitted"] = submitted
    status, body = client.request("POST", "/v1/jobs", spec)
    if status not in (200, 202):
        failures.append(f"POST /v1/jobs returned {status}")
        return sample
    job = json.loads(body)
    sample["created"] = bool(job.get("created"))
    sample["cached"] = bool(job.get("cached"))
    if job.get("status") != "done":
        seen = client.events(job["job_id"])
        if "terminal:done" not in seen:
            failures.append(f"job {job['job_id']} ended {sorted(seen)}")
            return sample
        if "running" in seen:
            sample["queue_wait_s"] = seen["running"] - submitted
            sample["run_s"] = seen["done"] - seen["running"]
    status, raw = client.request("GET", f"/v1/results/{job['digest']}")
    sample["fetched"] = time.monotonic()
    sample["latency_s"] = sample["fetched"] - submitted
    if status != 200:
        failures.append(f"GET result returned {status}")
        return sample
    with state.lock:
        first = state.first_bytes.setdefault(job["digest"], raw)
    if raw != first:
        failures.append(f"repeat of {job['digest'][:12]} returned other bytes")
    record = json.loads(raw)
    failures.extend(check_output(spec["kind"], spec, record["result"]))
    return sample


def _client_loop(port: int, state: _LoadState, probe_health: bool) -> None:
    client = _Client(port)
    while True:
        spec = state.take()
        if spec is None:
            return
        try:
            sample = _submit(client, state, spec, probe_health)
        except (OSError, ValueError, KeyError, http.client.HTTPException) as error:
            sample = {"units": _units(spec), "failures": [repr(error)]}
        with state.lock:
            state.samples.append(sample)


def _wait_ready(server: subprocess.Popen, ready_file: str) -> None:
    deadline = time.monotonic() + _TIMEOUT_S
    while not os.path.exists(ready_file):
        if server.poll() is not None:
            raise RuntimeError(f"server exited with code {server.returncode}")
        if time.monotonic() > deadline:
            raise RuntimeError("server not ready in time")
        time.sleep(0.005)


def _stop(server: subprocess.Popen) -> None:
    if server.poll() is None:
        server.send_signal(signal.SIGTERM)
    try:
        server.wait(timeout=_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        server.kill()
        server.wait()


def _simulated_units(client: _Client) -> float:
    status, body = client.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics returned {status}")
    for series in json.loads(body)["series"]:
        if series["name"] == "serve_units_simulated_total":
            return float(series["value"])
    return 0.0


def run_serve(jobs: List[Dict[str, object]], work_dir: str, trace: bool,
              setup_only: bool) -> Dict[str, object]:
    """Start the server, optionally drive the job list, stop it."""
    imported = 0.0
    if trace:
        started = time.monotonic()
        import repro.serve.app  # noqa: F401  (the server's entry module)

        imported = time.monotonic() - started
    ready_file = os.path.join(work_dir, "ready.json")
    command = [
        sys.executable, "-m", "repro", "serve", "--port", "0",
        "--workers", str(SERVER_WORKERS),
        "--store-dir", os.path.join(work_dir, "store"),
        "--checkpoint-dir", os.path.join(work_dir, "checkpoints"),
        "--ready-file", ready_file,
    ]
    # Wall clock, to compare with the ready file's modification time.
    spawned_wall = time.time()
    with open(os.path.join(work_dir, "server.log"), "wb") as log:
        server = subprocess.Popen(command, stdout=log, stderr=log)
    try:
        _wait_ready(server, ready_file)
        record: Dict[str, object] = {
            "setup_s": os.stat(ready_file).st_mtime - spawned_wall,
        }
        if setup_only:
            return record
        with open(ready_file, encoding="utf-8") as handle:
            port = int(json.load(handle)["port"])
        state = _LoadState(jobs)
        threads = [
            threading.Thread(target=_client_loop, args=(port, state, trace))
            for _ in range(CLIENTS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        simulated = _simulated_units(_Client(port))
    finally:
        _stop(server)
    record.update(summarize(state.samples, jobs, simulated, trace))
    if trace:
        record["layers"]["cli.import_s"] = imported
    record["peak_rss_mb"] = peak_rss_mb()
    return record


def summarize(samples: List[Dict[str, object]], jobs: List[Dict[str, object]],
              simulated: float, trace: bool) -> Dict[str, object]:
    """End-to-end (and, traced, per-layer) figures of one load run."""
    failures = [f for sample in samples for f in sample["failures"]]
    good = [s for s in samples if not s["failures"]]
    failed = len(samples) - len(good)
    unique = {json.dumps(spec, sort_keys=True): _units(spec) for spec in jobs}
    expected = float(sum(unique.values()))
    if simulated != expected:
        failed += 1
        failures.append(
            f"serve_units_simulated_total {simulated:g} != {expected:g} "
            "units of distinct specs (store hits must add zero)"
        )
    fresh = [s["latency_s"] for s in good if s.get("created")]
    fetched = [s for s in samples if "fetched" in s]
    span = (max(s["fetched"] for s in fetched) - min(s["submitted"] for s in fetched)
            if fetched else 0.0)
    requested = sum(s["units"] for s in good)
    record: Dict[str, object] = {
        "wall_s": span,
        "completed": len(good),
        "attempted": len(samples) + 1,
        "failed": failed,
        "failures": failures,
        "latencies": fresh,
    }
    if trace:
        def p50(key, keep=lambda s: True):
            return quantile([s[key] for s in good if key in s and keep(s)], 50)

        record["layers"] = {
            "serve.queue_wait_p50_s": p50("queue_wait_s"),
            "serve.run_p50_s": p50("run_s"),
            "serve.hit_p50_s": p50("latency_s", lambda s: s.get("cached")),
            "serve.http_rtt_p50_s": p50("healthz_s"),
            "serve.dedup_ratio": simulated / requested if requested else 0.0,
        }
    return record
