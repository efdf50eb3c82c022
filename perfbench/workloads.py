"""The benchmark's workloads: inputs, the timed call, and its checks.

Every workload drives the public API (``repro.api.sweep`` or
``repro.api.experiment``) from one closed-loop client.  A workload is
built (:meth:`Workload.build`, a few times over for the set-up samples),
then its timed call (:meth:`Workload.call`) is repeated; after every call
:meth:`Workload.check` reduces the result to a digest plus a few exact
counts, which ``run.py`` compares against the ``backend="sequential"``
reference (:meth:`Workload.reference`).

Workloads
---------
``eta_mc_vector``
    The 120-scenario eta Monte Carlo sweep over a 32-stage
    eta-involution inverter chain (72-pulse surviving train), one
    ``backend="vector"`` batch.  Few long scenarios.
``loop_ckpt_resume``
    The same chain ending in the Theorem 9 storage loop (OR2 latch fed
    back through a slow buffer), so the sweep is cyclic; 32 scenarios in
    2 chunks of 16 through ``backend="auto"`` into an empty checkpoint
    directory, then the same sweep again, resumed from that checkpoint.
``theorem9_dense``
    ``api.experiment("theorem9")`` on its default ``sequential`` backend
    over 2,500 pulse lengths x 4 adversaries: many tiny scenarios.
``theorem9_auto``
    The registered theorem9 defaults (72 scenarios) on ``backend="auto"``,
    so every chunk runs the vector fixpoint on a loop-only circuit.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import struct
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: Seed of the pinned reference digests (``digests.json``).  It is also the
#: random adversary seed of the registered theorem9 defaults.
DEFAULT_SEED = 7

STAGES = 32
PULSES = 72
ETA_MC_SCENARIOS = 120
LOOP_SCENARIOS = 32
LOOP_CHUNK_SIZE = 16
DENSE_PULSE_LENGTHS = 2500


# --------------------------------------------------------------------------- #
# Digests and exact counts
# --------------------------------------------------------------------------- #


def _hash_signal(h, name: str, signal) -> int:
    transitions = signal.transitions
    h.update(name.encode())
    h.update(struct.pack("<bq", signal.initial_value, len(transitions)))
    h.update(struct.pack(f"<{len(transitions)}d", *signal.transition_times()))
    h.update(bytes(t.value for t in transitions))
    return len(transitions)


def sweep_digest(result) -> Dict[str, Any]:
    """SHA-256 over every node and edge signal plus event/dropped counts.

    Scenarios are taken in sweep order and signals in name order, so the
    digest pins the whole execution of every scenario bit for bit.
    """
    h = hashlib.sha256()
    events = transitions = 0
    for run in result.runs:
        execution = run.execution
        h.update(run.scenario.name.encode())
        for kind, signals in (
            ("node", execution.node_signals),
            ("edge", execution.edge_signals),
        ):
            h.update(kind.encode())
            for name in sorted(signals):
                transitions += _hash_signal(h, name, signals[name])
        h.update(
            struct.pack("<qq", execution.event_count, execution.dropped_transitions)
        )
        events += execution.event_count
    return {
        "digest": h.hexdigest(),
        "runs": len(result.runs),
        "events": events,
        "transitions": transitions,
    }


def rows_digest(rows: List[Dict[str, Any]]) -> str:
    """SHA-256 over an experiment's rows in canonical JSON."""
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def execution_counts(executions) -> Dict[str, int]:
    """Events and transitions summed over executions (node + edge signals)."""
    events = transitions = 0
    for execution in executions:
        events += execution.event_count
        for signals in (execution.node_signals, execution.edge_signals):
            transitions += sum(len(s) for s in signals.values())
    return {"events": events, "transitions": transitions}


# --------------------------------------------------------------------------- #
# Inputs
# --------------------------------------------------------------------------- #


def storage_chain(loop: bool):
    """The 32-stage eta-involution inverter chain, optionally ending in the
    Theorem 9 storage loop; returns ``(circuit, inputs, end_time)``."""
    from repro.circuits import BUF, OR2, inverter_chain
    from repro.core import (
        EtaInvolutionChannel,
        InvolutionPair,
        PureDelayChannel,
        Signal,
        ZeroAdversary,
        admissible_eta_bound,
    )

    pair = InvolutionPair.exp_channel(tau=1.0, t_p=0.5)
    eta = admissible_eta_bound(pair, eta_plus=0.05)
    circuit = inverter_chain(
        STAGES, lambda: EtaInvolutionChannel(pair, eta, ZeroAdversary())
    )
    if loop:
        circuit.add_gate("latch", OR2, initial_value=0)
        circuit.add_gate("hold", BUF, initial_value=0)
        circuit.add_output("stored")
        circuit.connect(
            f"inv{STAGES}",
            "latch",
            EtaInvolutionChannel(pair, eta, ZeroAdversary()),
            pin=0,
            name="into_loop",
        )
        circuit.connect("latch", "hold", PureDelayChannel(45.0), pin=0, name="fwd")
        circuit.connect("hold", "latch", PureDelayChannel(45.0), pin=1, name="back")
        circuit.connect("latch", "stored")
    unit = pair.delta_up_inf + pair.delta_down_inf
    inputs = {
        "in": Signal.pulse_train(
            1.0, [2.0 * unit] * PULSES, [3.0 * unit] * (PULSES - 1)
        )
    }
    end_time = 1.0 + 5.0 * unit * PULSES + 10.0 * STAGES * pair.delta_up_inf
    return circuit, inputs, end_time


def theorem9_adversaries(seed: int) -> Dict[str, Dict[str, Any]]:
    """The theorem9 adversary set with the random adversary seeded by ``seed``."""
    return {
        "zero": {"kind": "zero"},
        "worst": {"kind": "worst"},
        "best": {"kind": "best"},
        "random": {"kind": "random", "seed": int(seed)},
    }


def dense_pulse_lengths(count: int) -> List[float]:
    """``count`` pulse lengths from 0.25x the cancel bound to 1.6x the latch
    bound of the registered theorem9 pair (the same bounds its default
    18-point grid uses)."""
    import numpy as np

    from repro.core import admissible_eta_bound
    from repro.specs import as_pair
    from repro.spf import SPFAnalysis

    pair = as_pair({"kind": "exp", "tau": 1.0, "t_p": 0.5, "v_th": 0.5})
    analysis = SPFAnalysis(pair, admissible_eta_bound(pair, 0.05))
    low = max(analysis.cancel_threshold, 0.05 * analysis.delta_min)
    high = analysis.latch_threshold
    return [float(x) for x in np.linspace(0.25 * low, 1.6 * high, count)]


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #


class Workload:
    """One benchmark workload; subclasses fill in the three hooks."""

    name = ""
    #: Keys of :meth:`check`'s counts that must repeat exactly.
    exact = ("runs", "events", "transitions")
    #: The result carries no executions: traced calls take events and
    #: transitions from the engines' spans instead.
    counts_from_engines = False

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = int(seed)
        self.scratch = scratch

    def build(self) -> None:
        """Construct inputs and warm up (the set-up ``setup_s`` times)."""
        raise NotImplementedError


    def call(self):
        """The timed call; returns its result."""
        raise NotImplementedError

    def before_call(self) -> None:
        """Untimed per-call preparation."""

    def after_call(self) -> None:
        """Untimed per-call cleanup."""

    def close(self) -> None:
        """Remove whatever the workload left in the scratch directory."""

    def check(self, result) -> Dict[str, Any]:
        """Digest and exact counts of one call's result."""
        raise NotImplementedError

    def reference(self) -> Dict[str, Any]:
        """Digest and exact counts of the same inputs on ``sequential``."""
        raise NotImplementedError

    def problems(self, result, got: Dict[str, Any], ref: Dict[str, Any]) -> List[str]:
        """Why a call's result is wrong (empty when it is correct)."""
        problems = []
        if got["digest"] != ref["digest"]:
            problems.append(f"digest {got['digest'][:12]} != {ref['digest'][:12]}")
        for key in self.exact:
            if key in got and key in ref and got[key] != ref[key]:
                problems.append(f"{key} {got[key]} != {ref[key]}")
        return problems


class _SweepWorkload(Workload):
    loop = False
    scenarios_n = 0

    def _make_inputs(self) -> None:
        from repro import api

        circuit, inputs, end_time = storage_chain(self.loop)
        self.circuit, self.scenarios = api.monte_carlo(
            circuit, inputs, end_time, self.scenarios_n, seed=self.seed
        )

    def check(self, result) -> Dict[str, Any]:
        return sweep_digest(result)

    def reference(self) -> Dict[str, Any]:
        from repro import api

        self._make_inputs()
        return sweep_digest(api.sweep(self.circuit, self.scenarios))


class EtaMcVector(_SweepWorkload):
    name = "eta_mc_vector"
    scenarios_n = ETA_MC_SCENARIOS

    def build(self) -> None:
        from repro import api

        self._make_inputs()
        api.sweep(self.circuit, self.scenarios[:4], backend="vector")

    def call(self):
        from repro import api

        return api.sweep(self.circuit, self.scenarios, backend="vector")

    def problems(self, result, got, ref):
        problems = super().problems(result, got, ref)
        if result.backend != "vector":
            problems.append(f"ran on {result.backend!r}, not the vector engine")
        return problems


class LoopCkptResume(_SweepWorkload):
    """A fresh checkpointed sweep and its resume, as one timed call."""

    name = "loop_ckpt_resume"
    loop = True
    scenarios_n = LOOP_SCENARIOS
    exact = _SweepWorkload.exact + ("chunks", "chunks_resumed")
    store: Optional[str] = None

    @property
    def chunks(self) -> int:
        return math.ceil(self.scenarios_n / LOOP_CHUNK_SIZE)

    def _new_store(self) -> str:
        self.scratch.mkdir(parents=True, exist_ok=True)
        return tempfile.mkdtemp(prefix="ckpt-", dir=self.scratch)

    def _drop_store(self) -> None:
        if self.store is not None:
            shutil.rmtree(self.store, ignore_errors=True)
            self.store = None

    def _sweep(self, scenarios):
        from repro import api

        return api.sweep(
            self.circuit,
            scenarios,
            backend="auto",
            checkpoint=self.store,
            chunk_size=LOOP_CHUNK_SIZE,
        )

    def build(self) -> None:
        self._make_inputs()
        self.store = self._new_store()
        self._sweep(self.scenarios[:4])
        self._drop_store()

    def before_call(self) -> None:
        self.store = self._new_store()

    def call(self):
        fresh = self._sweep(self.scenarios)
        return fresh, self._sweep(self.scenarios)

    def after_call(self) -> None:
        self._drop_store()

    def close(self) -> None:
        self._drop_store()

    def check(self, result) -> Dict[str, Any]:
        fresh, resumed = result
        got = sweep_digest(fresh)
        got["resumed_digest"] = sweep_digest(resumed)["digest"]
        got["chunks"] = len(resumed.shard_report.records)
        got["chunks_resumed"] = resumed.shard_report.resumed
        got["fresh_resumed"] = fresh.shard_report.resumed
        return got

    def problems(self, result, got, ref):
        problems = super().problems(result, got, ref)
        if got["resumed_digest"] != ref["digest"]:
            problems.append(
                f"resumed digest {got['resumed_digest'][:12]} != {ref['digest'][:12]}"
            )
        if got["fresh_resumed"]:
            problems.append(f"the fresh sweep resumed {got['fresh_resumed']} chunk(s)")
        return problems

    def reference(self) -> Dict[str, Any]:
        ref = super().reference()
        ref.update(chunks=self.chunks, chunks_resumed=self.chunks)
        return ref


class _Theorem9Workload(Workload):
    counts_from_engines = True
    backend = "sequential"

    def params(self) -> Dict[str, Any]:
        return {"adversaries": theorem9_adversaries(self.seed)}

    def build(self) -> None:
        from repro import api

        self._params = self.params()
        warm = dict(self._params, pulse_lengths=dense_pulse_lengths(4))
        api.experiment("theorem9", warm, backend=self.backend)

    def call(self):
        from repro import api

        return api.experiment("theorem9", self._params, backend=self.backend)

    def check(self, result) -> Dict[str, Any]:
        return {"digest": rows_digest(result.rows), "runs": len(result.rows)}

    def problems(self, result, got, ref):
        problems = super().problems(result, got, ref)
        inconsistent = sum(1 for row in result.rows if not row["consistent"])
        if inconsistent:
            problems.append(f"{inconsistent} row(s) inconsistent with Theorem 9")
        return problems

    def reference(self) -> Dict[str, Any]:
        """Rows digest plus the scalar engine's exact event/transition counts."""
        from repro import api
        from tracing import Tracer, engine_counts

        tracer = Tracer()
        with tracer.recording():
            result = api.experiment("theorem9", self.params())
        spans, _ = tracer.take()
        ref = self.check(result)
        ref.update(engine_counts(spans))
        return ref


class Theorem9Dense(_Theorem9Workload):
    name = "theorem9_dense"

    def params(self) -> Dict[str, Any]:
        return dict(
            super().params(), pulse_lengths=dense_pulse_lengths(DENSE_PULSE_LENGTHS)
        )


class Theorem9Auto(_Theorem9Workload):
    name = "theorem9_auto"
    backend = "auto"


WORKLOADS: Dict[str, Callable[[int, Path], Workload]] = {
    cls.name: cls
    for cls in (EtaMcVector, LoopCkptResume, Theorem9Dense, Theorem9Auto)
}
