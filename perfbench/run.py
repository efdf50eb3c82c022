"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload eta_mc_vector --seed 7 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics (``run_s``, ``setup_s``,
``events_per_s``, ``peak_rss_mb``) with no tracing installed; ``--trace 1``
alternates untraced and traced calls and reports the per-layer metrics
(see ``tracing.py``) plus ``trace.overhead``.  The metric names and units
are read from ``BENCHMARK.json``.  Every call's output is checked against
the ``backend="sequential"`` reference: the pinned digest in
``digests.json`` for the default seed, a reference computed in a child
process (outside every timed metric) for any other seed.

Times are host-normalised.  The speed of a shared host drifts by half
within minutes, and a second process does not see the drift of this one's
core, so a fixed reference loop (:func:`host_tick`) is timed right before
and right after every call, and the call's wall time is scaled by
``NOMINAL_TICK_S`` over the mean of the two ticks: a time in seconds at
the speed where one tick takes ``NOMINAL_TICK_S``.  The raw wall times
are printed on the ``# detail`` line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit and sample count, and the host facts.
The exit code is 0 when every call was correct, 1 when any was not, and
2 when the program's source (``src/repro``) is not in the checkout.

``python3 perfbench/run.py --pin`` recomputes ``digests.json``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Dict, List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
SCRATCH = ROOT / ".perfbench_tmp"
#: Traced runs write their spans here, one JSON line per span.
SPANS = ROOT / ".perfbench_spans"

#: Timed calls made even when one call outlasts ``--seconds``.  The peak
#: memory is read after this many, so that it does not grow with the number
#: of calls a faster host fits into a run.
MIN_CALLS = 3
#: Set-ups behind ``setup_s`` (the imports are timed once).
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 120

#: Size of the reference work :func:`host_tick` times, and its duration at
#: the nominal host speed the reported times are scaled to.
TICK_STEPS = 6000
TICK_ARRAY = 1_000_000
NOMINAL_TICK_S = 0.1


def declared_units(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``kind`` metrics declared in ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def host_tick() -> float:
    """Wall time of fixed reference work: small NumPy steps (the shape of
    the vector engine's lockstep), a dict-and-tuple loop (the scalar
    engine's kind of interpreter work), passes over an array larger than
    the caches, and many small allocations, so that it slows with the host
    however the calls do.  The garbage collector is off meanwhile: a
    collection would walk the workload's heap and tie the tick to it."""
    import numpy as np

    values = np.arange(120, dtype=float)
    matrix = np.zeros((120, 8))
    table: Dict[int, tuple] = {}
    big = np.linspace(0.0, 1.0, TICK_ARRAY)
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(TICK_STEPS):
            values = np.where(values > 3.0, values * 0.5, values + 1.0)
            matrix[:, 3] = values
        for i in range(20 * TICK_STEPS):
            table[i & 1023] = (i, str(i & 7))
        for _ in range(16):
            float((big * 1.0001).sum())
        [(i, [i]) for i in range(3 * TICK_STEPS)]
        return time.perf_counter() - start
    finally:
        gc.enable()


def max_rss_mb() -> float:
    """Peak resident memory of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def normalised(seconds: float, ticks: List[float]) -> float:
    """``seconds`` scaled to the nominal host speed by the ``ticks`` timed
    around them."""
    return seconds * NOMINAL_TICK_S / statistics.fmean(ticks)


def normalised_layers(values: Dict[str, float], units, ticks) -> Dict[str, float]:
    """Per-layer ``values`` with times (units ``s``, ``us``) and rates
    (unit ``1/s``) normalised like :func:`normalised`; counts unchanged."""
    scale = normalised(1.0, ticks)
    factors = {"s": scale, "us": scale, "1/s": 1.0 / scale}
    return {key: value * factors.get(units[key], 1.0) for key, value in values.items()}


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import ``repro`` from it."""
    package = SRC / "repro"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no program source at {package}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != package.resolve():
        print(f"perfbench: imported repro from {repro.__file__}", file=sys.stderr)
        raise SystemExit(2)


def host_facts() -> Dict[str, Any]:
    """Git sha (read from ``.git`` when the checkout has one) and versions."""
    import numpy

    sha = "unknown"
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = git / ref
            if ref_file.is_file():
                sha = ref_file.read_text().strip()
            else:
                for line in (git / "packed-refs").read_text().splitlines():
                    if line.endswith(" " + ref):
                        sha = line.split()[0]
        else:
            sha = head
    except OSError:
        pass
    return {
        "git_sha": sha,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def reference_child(args) -> Dict[str, Any]:
    """The sequential reference of ``args``' workload and seed, computed by
    this script in a fresh child process (its last stdout line)."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--reference",
    ]
    done = subprocess.run(
        command,
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def load_reference(args) -> Dict[str, Any]:
    """The pinned reference for the default seed, else a fresh one from a child."""
    from workloads import DEFAULT_SEED

    if args.seed == DEFAULT_SEED:
        return json.loads(DIGESTS.read_text())[args.workload]
    return reference_child(args)


def set_up(workload, tracer) -> tuple:
    """Build the workload; return ``(setup_s, set-up spans, ticks)``.

    ``setup_s`` is the import time (process start to the program imported)
    plus the median of ``SETUP_REPEATS`` builds, normalised by the ticks
    timed between them.  A traced run builds once, under the tracer, for
    the set-up spans, and reports no ``setup_s``.
    """
    if tracer is not None:
        ticks = [host_tick()]
        with tracer.recording():
            workload.build()
        ticks.append(host_tick())
        spans, _ = tracer.take()
        return 0.0, spans, ticks
    import_s = time.perf_counter() - _T0
    ticks = [host_tick()]
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.build()
        builds.append(time.perf_counter() - start)
        ticks.append(host_tick())
    return normalised(import_s + statistics.median(builds), ticks), [], ticks


def timed_call(workload, tracer=None) -> tuple:
    """One timed call after freeing the previous result and collecting.

    With a ``tracer`` the call runs with every layer wrapper installed; the
    wrappers go in before the clock starts and come out after it stops.
    """
    workload.before_call()
    gc.collect()
    try:
        if tracer is None:
            start = time.perf_counter()
            result = workload.call()
            return result, time.perf_counter() - start
        with tracer.recording():
            start = time.perf_counter()
            result = workload.call()
            return result, time.perf_counter() - start
    finally:
        workload.after_call()


def measure(args, workload, reference, tracer, units) -> Dict[str, Any]:
    """Repeat the timed call for ``--seconds``; check every result.

    A host tick is timed between every two calls, so each call is
    normalised by the ticks right before and right after it, and so are
    the layer times of a traced call.  Traced runs alternate an untraced
    and a traced call, taking turns at going first, so both sample the
    same stretch of the host's load.  Counts recorded by the traces must
    repeat exactly from one traced call to the next.
    """
    from tracing import EXACT_LAYER_COUNTS, call_layers, engine_counts

    untraced: List[float] = []
    traced: List[float] = []
    wall: List[float] = []
    layers: List[Dict[str, float]] = []
    spans_by_call = []
    attempted = failed = rounds = 0
    peak_rss_mb = 0.0
    tick = host_tick()
    deadline = time.perf_counter() + args.seconds
    while True:
        if tracer is None:
            order = (False,)
        else:
            order = (False, True) if rounds % 2 == 0 else (True, False)
        rounds += 1
        for with_trace in order:
            attempted += 1
            result = None
            try:
                result, elapsed = timed_call(workload, tracer if with_trace else None)
                ticks = [tick, host_tick()]
                tick = ticks[-1]
                seconds = normalised(elapsed, ticks)
                got = workload.check(result)
                if not with_trace:
                    problems = workload.problems(result, got, reference)
                    untraced.append(seconds)
                    wall.append(elapsed)
                    if len(untraced) == MIN_CALLS:
                        peak_rss_mb = max_rss_mb()
                else:
                    spans, pauses = tracer.take()
                    spans_by_call.append((f"call{attempted}", spans))
                    call = normalised_layers(call_layers(spans, pauses), units, ticks)
                    if workload.counts_from_engines:
                        got.update(engine_counts(spans))
                    problems = workload.problems(result, got, reference)
                    if layers:
                        problems += [
                            f"{key} {call[key]} != {layers[0][key]} of the first traced call"
                            for key in EXACT_LAYER_COUNTS
                            if call[key] != layers[0][key]
                        ]
                    layers.append(call)
                    traced.append(seconds)
            except Exception:  # noqa: BLE001 - a failed call is counted, not fatal
                traceback.print_exc()
                problems = ["call raised"]
                if tracer:
                    tracer.take()
                tick = host_tick()
            if problems:
                failed += 1
                print(
                    f"# {workload.name} call {attempted}: {'; '.join(problems)}",
                    file=sys.stderr,
                )
            del result
        if time.perf_counter() >= deadline and len(untraced) >= MIN_CALLS:
            break
        if attempted >= 4 * MIN_CALLS and not untraced:
            break
    return {
        "attempted": attempted,
        "failed": failed,
        "untraced": untraced,
        "traced": traced,
        "wall": wall,
        "peak_rss_mb": peak_rss_mb or max_rss_mb(),
        "layers": layers,
        "spans": spans_by_call,
    }


def end_to_end(reference, setup_s, timings) -> Dict[str, tuple]:
    run_s = statistics.median(timings["untraced"])
    n = len(timings["untraced"])
    return {
        "run_s": (run_s, n),
        "setup_s": (setup_s, SETUP_REPEATS),
        "events_per_s": (reference["events"] / run_s, n),
        "peak_rss_mb": (timings["peak_rss_mb"], MIN_CALLS),
    }


def per_layer(setup_spans, setup_ticks, timings) -> Dict[str, tuple]:
    from tracing import median_layers

    n = len(timings["layers"])
    values = {key: (value, n) for key, value in median_layers(timings["layers"]).items()}
    scenario_gen_s = sum(s.duration for s in setup_spans if s.name == "sweep.eta_monte_carlo")
    values["sweep.scenario_gen_s"] = (normalised(scenario_gen_s, setup_ticks), 1)
    overhead = statistics.median(timings["traced"]) / statistics.median(timings["untraced"]) - 1.0
    values["trace.overhead"] = (overhead, n)
    return values


def pin() -> None:
    """Recompute every workload's sequential reference for the default seed."""
    from workloads import DEFAULT_SEED, WORKLOADS

    pinned = {}
    for name, cls in WORKLOADS.items():
        workload = cls(DEFAULT_SEED, SCRATCH)
        pinned[name] = workload.reference()
        print(name, pinned[name], flush=True)
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pin", action="store_true", help="rewrite digests.json")
    args = parser.parse_args(argv)

    import_program()
    from workloads import DEFAULT_SEED, WORKLOADS

    if args.pin:
        pin()
        return 0
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seed is None:
        args.seed = DEFAULT_SEED
    if args.reference:
        print(json.dumps(WORKLOADS[args.workload](args.seed, SCRATCH).reference()))
        return 0
    kind = "per_layer" if args.trace else "end_to_end"
    units = declared_units(kind)

    scratch = SCRATCH / f"run-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, scratch)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    try:
        setup_s, setup_spans, setup_ticks = set_up(workload, tracer)
        reference = load_reference(args)
        timings = measure(args, workload, reference, tracer, units)
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass

    if not timings["untraced"]:
        print(f"perfbench: every call of {args.workload} failed", file=sys.stderr)
        return 1
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    if args.trace:
        from tracing import write_spans

        spans_file = SPANS / f"{args.workload}-seed{args.seed}.jsonl"
        write_spans(spans_file, [("setup", setup_spans)] + timings["spans"])
        detail["spans"] = str(spans_file.relative_to(ROOT))
        values = per_layer(setup_spans, setup_ticks, timings)
    else:
        values = end_to_end(reference, setup_s, timings)
    if set(values) != set(units):
        raise SystemExit(
            f"perfbench: measured {sorted(values)} but BENCHMARK.json declares "
            f"{sorted(units)} as {kind} metrics"
        )
    print(f"# {args.workload} seed={args.seed} trace={args.trace}")
    for name, (value, samples) in values.items():
        print(f"# {name:28s} {value:>16.6g} {units[name]:6s} n={samples}")
    detail.update(
        host=host_facts(),
        samples={name: samples for name, (_, samples) in values.items()},
        calls_s=timings["untraced"],
        wall_calls_s=timings["wall"],
    )
    print(f"# detail {json.dumps(detail)}")
    correct = timings["failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": timings["attempted"],
                "failed": timings["failed"],
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, (value, _) in values.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
