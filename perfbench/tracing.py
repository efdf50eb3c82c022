"""Outside-in per-layer tracing: span-recording wrappers around each layer.

The wrappers are installed from the benchmark's own files, onto the
module attributes and class methods through which the layers call each
other, for the duration of one traced call (:meth:`Tracer.recording`).
Each call of a wrapped function records one span -- name, start, end,
thread and parent span -- in memory.  Self times are computed per
thread: a span's self time is its duration minus that of its direct
children, which by construction ran on the same thread, so the
checkpoint writer thread's ``put_payload`` spans are never subtracted
from the main thread's spans.

Layer -> wrapped entry point:

=============  ===========================================================
capability     ``repro.engine.vector.analyze_sweep``
vector         ``compile_sweep`` and ``VectorProgram.run``
scheduler      ``Engine.run`` (the scalar scheduler and its kernels)
shard          ``run_many_sharded`` and ``make_chunks``
store          ``ArtifactStore.put_payload`` / ``get_payload``
sweep          ``run_many`` (each module that imported it) and
               ``eta_monte_carlo``
experiments    ``repro.api.experiment``
gc             ``gc.callbacks``
=============  ===========================================================
"""

from __future__ import annotations

import gc
import importlib
import json
import os
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from workloads import execution_counts


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    thread: int = 0
    parent: Optional[int] = None
    children_s: float = 0.0
    #: Facts about the call's result (counts, bytes), filled by the wrapper.
    info: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


def _count_runs(result, span: Span) -> None:
    span.info.update(execution_counts(run.execution for run in result))
    span.info["runs"] = len(result)


def _count_execution(result, span: Span) -> None:
    span.info.update(execution_counts([result]))


def _count_payload_write(result, span: Span) -> None:
    span.info["bytes"] = os.path.getsize(result)


def _count_payload_read(result, span: Span) -> None:
    span.info["hit"] = result is not None


def _count_shard(result, span: Span) -> None:
    records = result.shard_report.records
    computed = [r for r in records if not r.resumed]
    span.info.update(
        chunks=len(records),
        chunks_resumed=len(records) - len(computed),
        chunks_vector=sum(1 for r in computed if r.backend == "vector"),
        chunks_computed=len(computed),
    )


#: (module, attribute path, span name, result counter).
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("repro.engine.vector", "analyze_sweep", "capability.analyze_sweep", None),
    ("repro.engine.vector", "compile_sweep", "vector.compile_sweep", None),
    ("repro.engine.vector", "VectorProgram.run", "vector.run", _count_runs),
    ("repro.engine.scheduler", "Engine.run", "scheduler.run", _count_execution),
    ("repro.engine.shard", "run_many_sharded", "shard.run_many_sharded", _count_shard),
    ("repro.engine.shard", "make_chunks", "shard.make_chunks", None),
    ("repro.store", "ArtifactStore.put_payload", "store.put_payload", _count_payload_write),
    ("repro.store", "ArtifactStore.get_payload", "store.get_payload", _count_payload_read),
    ("repro.engine.sweep", "run_many", "sweep.run_many", None),
    ("repro.api", "run_many", "sweep.run_many", None),
    ("repro.experiments.theorem9", "run_many", "sweep.run_many", None),
    ("repro.api", "eta_monte_carlo", "sweep.eta_monte_carlo", None),
    ("repro.api", "experiment", "experiments.experiment", None),
)


class Tracer:
    """Records spans of wrapped layer entry points while :meth:`recording`."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.gc_pauses: List[float] = []
        self._local = threading.local()
        self._gc_start = 0.0

    def _wrap(self, original: Callable, name: str, counter: Optional[Callable]):
        spans, local = self.spans, self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(
                name,
                0.0,
                thread=threading.get_ident(),
                parent=stack[-1] if stack else None,
            )
            spans.append(span)
            index = len(spans) - 1
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    spans[span.parent].children_s += span.duration
            if counter is not None:
                counter(result, span)
            return result

        return wrapper

    def _on_gc(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_pauses.append(time.perf_counter() - self._gc_start)

    @staticmethod
    def _resolve() -> List[Tuple[Any, str, Callable, str, Optional[Callable]]]:
        """Every target's owner and current attribute.

        All target modules are imported here, before any wrapper goes in:
        a module imported while wrappers are installed would bind a
        wrapper into its own namespace by ``from ... import`` and keep it.
        """
        resolved = []
        for module_name, path, span_name, counter in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            resolved.append((owner, attr, original, span_name, counter))
        return resolved

    @contextmanager
    def recording(self):
        """Install every wrapper (and the gc callback); remove them on exit."""
        resolved = self._resolve()
        try:
            for owner, attr, original, span_name, counter in resolved:
                setattr(owner, attr, self._wrap(original, span_name, counter))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original, _, _ in resolved:
                setattr(owner, attr, original)

    def take(self) -> Tuple[List[Span], List[float]]:
        """Hand over (and forget) the spans and gc pauses recorded so far."""
        spans, pauses = list(self.spans), list(self.gc_pauses)
        self.spans.clear()
        self.gc_pauses.clear()
        return spans, pauses


def write_spans(path, calls: List[Tuple[str, List[Span]]]) -> None:
    """Write every recorded span as one JSON line, grouped by call label."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as out:
        for label, spans in calls:
            for index, span in enumerate(spans):
                record = {
                    "call": label,
                    "span": index,
                    "name": span.name,
                    "start": span.start,
                    "end": span.end,
                    "thread": span.thread,
                    "parent": span.parent,
                    **span.info,
                }
                out.write(json.dumps(record) + "\n")


def _of(spans: List[Span], name: str) -> List[Span]:
    return [s for s in spans if s.name == name]


def _total(spans: List[Span], name: str, *, self_time: bool = False) -> float:
    return sum((s.self_s if self_time else s.duration for s in _of(spans, name)), 0.0)


def _info(spans: List[Span], name: str, key: str) -> int:
    return sum(s.info.get(key, 0) for s in _of(spans, name))


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def call_layers(spans: List[Span], pauses: List[float]) -> Dict[str, float]:
    """Per-layer metrics of one traced call (0 where a layer did not run)."""
    vector_run_s = _total(spans, "vector.run")
    scheduler_run_s = _total(spans, "scheduler.run")
    scheduler_runs = len(_of(spans, "scheduler.run"))
    scheduler_events = _info(spans, "scheduler.run", "events")
    transitions_out = _info(spans, "vector.run", "transitions")
    chunks_computed = _info(spans, "shard.run_many_sharded", "chunks_computed")
    chunks_vector = _info(spans, "shard.run_many_sharded", "chunks_vector")
    reads = _of(spans, "store.get_payload")
    resumes = [
        s
        for s in _of(spans, "shard.run_many_sharded")
        if s.info.get("chunks") and s.info.get("chunks_resumed") == s.info["chunks"]
    ]
    return {
        "capability.analyze_s": _total(spans, "capability.analyze_sweep"),
        "capability.calls": len(_of(spans, "capability.analyze_sweep")),
        "vector.compile_s": _total(spans, "vector.compile_sweep", self_time=True),
        "vector.programs": len(_of(spans, "vector.run")),
        "vector.run_s": vector_run_s,
        "vector.transitions_out": transitions_out,
        "vector.transitions_per_s": _ratio(transitions_out, vector_run_s),
        "scheduler.run_s": scheduler_run_s,
        "scheduler.runs": scheduler_runs,
        "scheduler.events": scheduler_events,
        "scheduler.us_per_run": 1e6 * _ratio(scheduler_run_s, scheduler_runs),
        "scheduler.events_per_s": _ratio(scheduler_events, scheduler_run_s),
        "shard.self_s": _total(spans, "shard.run_many_sharded", self_time=True),
        "shard.make_chunks_s": _total(spans, "shard.make_chunks"),
        "shard.chunks": _info(spans, "shard.run_many_sharded", "chunks"),
        "shard.chunks_vector": chunks_vector,
        "shard.chunks_resumed": _info(spans, "shard.run_many_sharded", "chunks_resumed"),
        "shard.fallback_chunks": chunks_computed - chunks_vector,
        "shard.vector_ratio": _ratio(chunks_vector, chunks_computed),
        "shard.resume_s": sum((s.duration for s in resumes), 0.0),
        "shard.resume_self_s": sum((s.self_s for s in resumes), 0.0),
        "store.write_s": _total(spans, "store.put_payload"),
        "store.writes": len(_of(spans, "store.put_payload")),
        "store.bytes_written": _info(spans, "store.put_payload", "bytes"),
        "store.read_s": _total(spans, "store.get_payload"),
        "store.reads": len(reads),
        "store.hit_ratio": _ratio(sum(1 for s in reads if s.info.get("hit")), len(reads)),
        "sweep.self_s": _total(spans, "sweep.run_many", self_time=True),
        "experiments.self_s": _total(spans, "experiments.experiment", self_time=True),
        "gc.pause_s": sum(pauses, 0.0),
        "gc.collections": len(pauses),
    }


def engine_counts(spans: List[Span]) -> Dict[str, int]:
    """Events and transitions of every execution either engine produced."""
    engines = ("scheduler.run", "vector.run")
    return {
        key: sum(_info(spans, name, key) for name in engines)
        for key in ("events", "transitions")
    }


#: Per-call counts that must repeat exactly between traced calls.
EXACT_LAYER_COUNTS = (
    "capability.calls",
    "vector.programs",
    "vector.transitions_out",
    "scheduler.runs",
    "scheduler.events",
    "shard.chunks",
    "shard.chunks_vector",
    "shard.chunks_resumed",
    "store.writes",
    "store.reads",
)


def median_layers(per_call: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of every per-layer metric over the traced calls."""
    return {
        key: statistics.median(call[key] for call in per_call) for key in per_call[0]
    }
