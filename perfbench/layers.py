"""Per-layer tracing from outside the program.

The traced run wraps public functions and methods of each layer in a
timer before the workload starts, then reads the program's own
``phase_*`` spans from the ``telemetry=`` bundle it passes in.  Nothing
in ``src/`` changes: wrappers are installed by rebinding attributes on
the already-imported modules and classes.

Fork safety: the sharded executors fork their shard workers after the
wrappers are installed, so the wrappers also run in the shards.  A
fork handler clears the child's copy of the counters; when a shard's
entry call returns, the shard writes its counters to ``dump_dir`` and
the parent folds them in after the sharded call (the executor joins its
workers before returning, so every file is complete by then).
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List

#: Counter slots per key: calls, seconds inside the call, work count.
_CALLS, _SECONDS, _WORK = 0, 1, 2


class LayerRecorder:
    """Wraps layer entry points and accumulates calls / time / work."""

    def __init__(self, dump_dir: str) -> None:
        self.dump_dir = dump_dir
        self.root_pid = os.getpid()
        self.stats: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0])
        self.shard_busy: List[float] = []
        self.work_names: Dict[str, str] = {}
        self._depth: Dict[str, int] = defaultdict(int)
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        self.stats = defaultdict(lambda: [0, 0.0, 0])
        self.shard_busy = []
        self._depth = defaultdict(int)

    # -- installing wrappers -------------------------------------------------------

    def _timed(self, key: str, original: Callable, work=None,
               entry: bool = False):
        """A wrapper counting only the outermost call per key.

        Overrides that chain through ``super()`` and helpers that call
        each other (``build_scheme`` -> ``build_engine``) would otherwise
        count the same work twice.  ``work`` is ``(name, fn)``: ``fn(args,
        result)`` is the work count reported as ``<key>.<name>``.
        """
        recorder = self
        if work is not None:
            self.work_names[key], work = work

        def wrapper(*args, **kwargs):
            depth = recorder._depth
            if depth[key]:
                return original(*args, **kwargs)
            depth[key] += 1
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                depth[key] -= 1
            slot = recorder.stats[key]
            slot[_CALLS] += 1
            slot[_SECONDS] += elapsed
            if work is not None:
                slot[_WORK] += work(args, result)
            if entry and os.getpid() != recorder.root_pid:
                recorder.shard_busy.append(elapsed)
                recorder._dump()
            return result

        return wrapper

    def wrap_function(self, module_name: str, name: str, key: str,
                      work=None, entry: bool = False) -> None:
        """Wrap a function at every ``repro`` module binding of it.

        Functions imported by name (``from x import f``) are bound in
        several modules; rebinding each one catches every call site.
        """
        original = getattr(sys.modules[module_name], name)
        wrapper = self._timed(key, original, work, entry)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)

    def wrap_method(self, cls: type, name: str, key: str,
                    work=None, entry: bool = False) -> None:
        """Wrap ``name`` on ``cls`` and every subclass that overrides it."""
        pending, seen = [cls], set()
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            original = klass.__dict__.get(name)
            if original is None:
                continue
            setattr(klass, name, self._timed(key, original, work, entry))

    # -- shard records -------------------------------------------------------------

    def _dump(self) -> None:
        payload = {"stats": dict(self.stats), "busy": self.shard_busy}
        path = os.path.join(self.dump_dir, f"shard-{os.getpid()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

    def collect_shards(self) -> None:
        """Fold every shard's dumped counters into this process's."""
        for name in sorted(os.listdir(self.dump_dir)):
            if not name.startswith("shard-"):
                continue
            with open(os.path.join(self.dump_dir, name), encoding="utf-8") as handle:
                payload = json.load(handle)
            for key, values in payload["stats"].items():
                slot = self.stats[key]
                for index in (_CALLS, _SECONDS, _WORK):
                    slot[index] += values[index]
            self.shard_busy.extend(payload["busy"])

    def metrics(self) -> Dict[str, float]:
        """``<key>.calls``, ``<key>.s`` and ``<key>.<work>`` per key."""
        flat: Dict[str, float] = {}
        for key, slot in self.stats.items():
            flat[f"{key}.calls"] = float(slot[_CALLS])
            flat[f"{key}.s"] = float(slot[_SECONDS])
            if key in self.work_names:
                flat[f"{key}.{self.work_names[key]}"] = float(slot[_WORK])
        return flat


def _size(args, index: int) -> int:
    value = args[index] if len(args) > index else ()
    return len(value) if hasattr(value, "__len__") else 0


def _checkpoint_bytes(args, _result) -> int:
    path = getattr(args[0], "path", "")
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def install_layers(recorder: LayerRecorder) -> None:
    """Wrap the public entry points of every simulated layer."""
    from repro.core.engine import SuDokuEngine
    from repro.core.linecodec import LineCodec
    from repro.kernels import KernelBackend
    from repro.reliability.raresim import ConditionalGroupSimulator
    from repro.resilience.checkpoint import Checkpointer
    from repro.sttram.array import STTRAMArray
    from repro.sttram.faults import BurstFaultInjector, TransientFaultInjector

    recorder.wrap_function("repro.core.engine", "build_engine", "core.build")
    recorder.wrap_function("repro.reliability.scenario", "build_scheme",
                           "core.build")
    recorder.wrap_method(SuDokuEngine, "write_data", "core.write_data")
    recorder.wrap_method(SuDokuEngine, "initialize_parities",
                         "core.initialize_parities")
    recorder.wrap_method(LineCodec, "encode", "core.encode")
    recorder.wrap_method(SuDokuEngine, "scrub_frames", "core.scrub_frames",
                         work=("frames", lambda args, _r: _size(args, 1)))
    for name in ("batch_decode", "batch_decode_clean"):
        recorder.wrap_method(KernelBackend, name, f"kernels.{name}",
                             work=("words", lambda args, _r: _size(args, 2)))
    for name in ("batch_verify", "xor_fold", "scatter_fault_vectors",
                 "fold_line_masks"):
        recorder.wrap_method(KernelBackend, name, f"kernels.{name}")
    for injector in (TransientFaultInjector, BurstFaultInjector):
        recorder.wrap_method(injector, "inject_frames", "sttram.inject_frames",
                             work=("dirty", lambda _a, result: len(result)))
    recorder.wrap_method(STTRAMArray, "dirty_frames", "sttram.dirty_frames")
    recorder.wrap_function("repro.reliability.montecarlo", "heal",
                           "reliability.heal")
    recorder.wrap_method(ConditionalGroupSimulator, "trial_z",
                         "reliability.trial")
    recorder.wrap_method(Checkpointer, "save", "resilience.checkpoint_save",
                         work=("bytes", _checkpoint_bytes))
    recorder.wrap_function("repro.parallel.merge", "merge_campaign_results",
                           "parallel.merge")
    recorder.wrap_function("repro.parallel.merge", "merge_conditional_results",
                           "parallel.merge")
    # Shard entry points: their duration in a shard process is that
    # shard's busy time, and their return ships the shard's counters.
    recorder.wrap_function("repro.reliability.montecarlo",
                           "run_group_campaign", "parallel.shard", entry=True)
    recorder.wrap_function("repro.reliability.scenario",
                           "run_scenario_campaign", "parallel.shard",
                           entry=True)
    recorder.wrap_method(ConditionalGroupSimulator, "run", "parallel.shard",
                         entry=True)


def span_self_times(tracer) -> Dict[str, float]:
    """Summed self time per span name (duration minus child spans)."""
    spans = list(tracer)
    child_time: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] += span.duration_s
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration_s - child_time[span.span_id]
    return dict(totals)
