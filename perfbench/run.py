"""Run one workload of the repository benchmark and print its metrics.

    python3 perfbench/run.py --workload cold-unique --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The run pins the string-hash seed (it restarts itself with
``PYTHONHASHSEED=0``), so that work counts repeat across processes.

With ``--trace 0`` the run sets up the workload's front door three times,
once before the timed window and twice after it (``setup_s`` is their
median), drives it for ``--seconds`` (longer only until each reported
percentile has ten samples beyond it), applies the write probe of the
read-only workloads, and checks every answer against the ``EnumMatcher``
oracle.  Every time it reports is in reference seconds: wall time scaled
by the machine's speed, sampled between steps (see ``pace.py``); the
summary lines give the wall times beside them.

With ``--trace 1`` three front doors serve a fixed prefix of the workload,
taking turns block by block: one traced, one untraced, one traced again,
with spans around every layer's entry points in the traced ones.  It
reports the per-layer metrics of the last door, writes its spans under
``perfbench/out/``, and fails unless the two traced doors count exactly the
same work, and the same work as any earlier traced run of the same program
at the same seed in this checkout (recorded under ``perfbench/out/``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every answer matched the oracle and every metric was measured.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import List, Optional

from pace import Pacer
from stats import error_rate, percentile, samples_needed
from tracing import DoorFacts, SpanRecorder, deterministic_counts, installed, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

SETUP_REPEATS = 3
#: Seconds of serving between two samples of the machine's speed.
SLICE_S = 0.2
#: String-hash seed the run pins, so that work counts repeat across processes.
HASH_SEED = "0"
#: A window short of samples is extended by at most this many seconds.
MAX_EXTENSION_S = 60
#: Fixed prefix, in operations, that each front door of the traced run serves,
#: in TRACE_BLOCKS turns, before a write probe of TRACE_PROBE deltas.
TRACE_OPS = {"cold-unique": 30, "zipf-fleet": 8000, "churn-yago2": 240}
TRACE_BLOCKS = 5
TRACE_PROBE = 20

END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "update_p50_ms": "ms",
    "update_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "index.build_calls": "count",
    "index.window_build_calls": "count",
    "index.build_s": "s",
    "index.refresh_calls": "count",
    "index.refresh_s": "s",
    "parallel.partition_s": "s",
    "parallel.replication": "ratio",
    "parallel.tasks_per_query": "count",
    "parallel.round_s": "s",
    "matching.calls": "count",
    "matching.self_s": "s",
    "matching.work": "count",
    "matching.verifications": "count",
    "matching.extensions": "count",
    "matching.answer_ratio": "ratio",
    "plan.lookups": "count",
    "plan.compiles": "count",
    "plan.hit_ratio": "ratio",
    "plan.self_s": "s",
    "service.canonicalize_calls": "count",
    "service.canonicalize_s": "s",
    "service.memo_hit_ratio": "ratio",
    "service.lookup_s": "s",
    "service.hit_ratio": "ratio",
    "service.self_s": "s",
    "service.cold_tax_ratio": "ratio",
    "serve.admission_wait_s": "s",
    "serve.batch_size_mean": "count",
    "serve.dedup_ratio": "ratio",
    "serve.rejected": "count",
    "serve.fanout_rounds": "count",
    "serve.self_s": "s",
    "delta.apply_self_s": "s",
    "delta.touched_nodes": "count",
    "delta.refresh_ratio": "ratio",
    "delta.carry_ratio": "ratio",
    "bench.trace_overhead_ratio": "ratio",
}


class Incomplete(Exception):
    """A metric could not be measured (too few samples)."""


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Slice:
    """Positions ``[first, last)`` of a ledger, sent in one stretch of
    *wall* seconds, the factor that scales them to reference time, and the
    peak memory at its end."""

    first: int
    last: int
    wall: float
    scale: float
    rss_mb: float = field(default_factory=peak_rss_mb)


def set_up(workload, pacer: Pacer):
    """Build a front door on a fresh copy of the graph and warm it, pacing
    between the steps; returns (door, reference seconds from the copied
    graph to ready, cold (pattern, reference seconds) samples)."""
    graph = workload.graph.copy()
    gc.collect()
    pacer.begin()
    started = perf_counter()
    door = workload.open(graph)
    seconds = (perf_counter() - started) * pacer.scale()
    cold = []
    for pattern in workload.warm_patterns():
        started = perf_counter()
        door.evaluate(pattern)
        latency = (perf_counter() - started) * pacer.scale()
        seconds += latency
        cold.append((pattern, latency))
    return door, seconds, cold if workload.cold_warmup else []


def timed_stop(seconds: float, needs):
    """Stop after *seconds*, once ``needs(ledger)`` holds or at the hard stop."""
    started = perf_counter()
    deadline = started + seconds
    hard_stop = deadline + MAX_EXTENSION_S

    def stop(ledger) -> bool:
        now = perf_counter()
        return now >= hard_stop or (now >= deadline and needs(ledger))

    return stop


def count_stop(count: int):
    return lambda ledger: len(ledger) >= count


def drive(workload, door, ledger, pacer: Pacer, stop) -> List[Slice]:
    """Serve the workload in slices of about SLICE_S seconds until
    ``stop(ledger)``, sampling the machine's speed between slices."""
    slices = []
    pacer.begin()
    while not stop(ledger):
        first = len(ledger)
        ends = perf_counter() + SLICE_S
        wall = workload.run(door, ledger, lambda ledger: perf_counter() >= ends or stop(ledger))
        slices.append(Slice(first, len(ledger), wall, pacer.scale()))
        if len(ledger) == first:  # the stream ran out
            break
    return slices


def memory_mb(workload, window: List[Slice]) -> float:
    """Peak memory at the end of the first slice by which the window had
    sent ``workload.memory_ops`` operations.

    The program keeps memory for every delta it applies and every new
    pattern it answers, so memory is read after a fixed count of
    operations, not at the end of a window that a faster program fills
    with more.
    """
    return next(
        (piece.rss_mb for piece in window if piece.last >= workload.memory_ops), peak_rss_mb()
    )


def refusals(ledger) -> int:
    """Failed operations; an exception that is not a typed refusal ends the run."""
    from repro.utils.errors import ReproError

    for failure in ledger.failures.values():
        if not isinstance(failure, ReproError):
            raise failure
    return len(ledger.failures)


def latencies_ms(ledger, slices, update: bool, reference: bool = True) -> List[float]:
    """Latencies of the served queries (or updates) in *slices*, in
    reference or wall milliseconds."""
    return [
        ledger.latencies[position] * (piece.scale if reference else 1.0) * 1e3
        for piece in slices
        for position in ledger.served(piece.first, piece.last)
        if ledger.is_update(position) == update
    ]


def measure(workload, seconds: float, pacer: Pacer):
    """The untraced run: returns (result, lines for the human summary)."""
    from workloads import Ledger, check

    door, seconds_to_ready, _ = set_up(workload, pacer)
    setups = [seconds_to_ready]

    tail = samples_needed(0.9)

    def needs(ledger) -> bool:
        served = ledger.served()
        updates = sum(1 for position in served if ledger.is_update(position))
        return (
            len(served) - updates >= tail
            and (updates >= tail or not workload.writes)
            and len(ledger) >= workload.memory_ops
        )

    ledger = Ledger(workload.capacity)
    gc.collect()
    window = drive(workload, door, ledger, pacer, timed_stop(seconds, needs))
    rss = memory_mb(workload, window)
    probe = []
    pacer.begin()
    for item, call, delta in workload.probe(door, workload.probe_size):
        position = ledger.call(item, call, delta)
        probe.append(Slice(position, position + 1, ledger.latencies[position], pacer.scale()))
    door.close()
    # Machine speed can drift over seconds: set-ups spread over the run make
    # their median depend less on one slow stretch.
    for _ in range(SETUP_REPEATS - 1):
        spare, seconds_to_ready, _ = set_up(workload, pacer)
        spare.close()
        setups.append(seconds_to_ready)

    failed = refusals(ledger)
    mismatches = check(workload, ledger)
    completed = sum(len(ledger.served(piece.first, piece.last)) for piece in window)
    elapsed = {
        reference: sum(piece.wall * (piece.scale if reference else 1.0) for piece in window)
        for reference in (True, False)
    }
    values, walls = {}, {}
    for reference, into in ((True, values), (False, walls)):
        queries = latencies_ms(ledger, window, update=False, reference=reference)
        updates = latencies_ms(ledger, window + probe, update=True, reference=reference)
        into.update({  # reference times are reported; wall times only shown
            "throughput_ops_s": completed / elapsed[reference],
            "query_p50_ms": percentile(queries, 0.5),
            "query_p90_ms": percentile(queries, 0.9),
            "update_p50_ms": percentile(updates, 0.5),
            "update_p90_ms": percentile(updates, 0.9),
        })
    values["setup_s"] = median(setups)
    values["peak_rss_mb"] = rss
    counts = {
        "setup_s": len(setups),
        "throughput_ops_s": completed,
        "query_p50_ms": len(queries),
        "query_p90_ms": len(queries),
        "update_p50_ms": len(updates),
        "update_p90_ms": len(updates),
        "peak_rss_mb": 1,
    }
    lines = []
    for name in END_TO_END:
        wall = f", wall {_show(walls[name])}" if name in walls else ""
        lines.append(
            f"{workload.name}: {name} = {_show(values[name])} {END_TO_END[name]} "
            f"(n={counts[name]}{wall})"
        )
    speeds = sorted(piece.scale for piece in window + probe)
    lines.append(
        f"{workload.name}: machine speed = {speeds[len(speeds) // 2]:.4f} of the reference "
        f"(median of {len(speeds)} slices, {speeds[0]:.4f} to {speeds[-1]:.4f})"
    )
    lines.append(
        f"{workload.name}: error_rate = {error_rate(len(ledger), failed):.4f} fraction "
        f"({failed} of {len(ledger)} operations refused)"
    )
    lines.extend(mismatches)
    missing = [name for name in END_TO_END if values[name] is None]
    if missing:
        print("\n".join(lines), file=sys.stderr)
        raise Incomplete(f"too few samples for {', '.join(missing)}")
    metrics = {name: {"value": values[name], "unit": END_TO_END[name]} for name in END_TO_END}
    result = {
        "correct": not mismatches,
        "attempted": len(ledger),
        "failed": failed,
        "metrics": metrics,
    }
    return result, lines


def _show(value) -> str:
    return "unreported" if value is None else f"{value:.4f}"


@dataclass
class Lane:
    """One front door of the traced run, and what it served."""

    recorder: Optional[SpanRecorder]
    ledger: object
    door: object = None
    cold: list = field(default_factory=list)
    replication: float = 0.0
    warm_queries: int = 0
    slices: list = field(default_factory=list)
    block_seconds: list = field(default_factory=list)

    def hooks(self, phase: str):
        if self.recorder is None:
            return nullcontext()
        self.recorder.phase = phase
        return installed(self.recorder)


def open_lane(workload, recorder: Optional[SpanRecorder], pacer: Pacer) -> Lane:
    from workloads import Ledger

    lane = Lane(recorder, Ledger(workload.capacity))
    with lane.hooks("setup"):
        lane.door, _, lane.cold = set_up(workload, pacer)
    lane.replication = workload.replication(lane.door)
    lane.warm_queries = len(workload.warm_patterns())
    return lane


def lane_metrics(workload, lane: Lane, cold_tax: float):
    """(per-layer metrics, deterministic counts) of one traced lane."""
    answers = lane.ledger.query_answers()
    facts = DoorFacts(
        queries=lane.warm_queries + len(answers),
        answer_sizes=tuple(len(answer) if answer is not None else -1 for answer in answers),
        replication=lane.replication,
        cold_tax_ratio=cold_tax,
        services=workload.services(lane.door),
        fleet=workload.fleet(lane.door),
    )
    metrics = layer_metrics(lane.recorder, facts)
    return metrics, deterministic_counts(metrics, facts)


def program_digest() -> str:
    """Digest of the program's source, naming the program a count belongs to."""
    digest = hashlib.sha256()
    source = ROOT / "src" / "repro"
    for path in sorted(source.rglob("*.py")):
        digest.update(str(path.relative_to(source)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def repeated_counts(workload, counts) -> List[str]:
    """Compare *counts* with those an earlier traced run of the same program
    recorded at this seed, or record them if none did; returns one line per
    count that differs."""
    path = OUT / f"counts-{workload.name}-seed{workload.seed}-{program_digest()}.json"
    current = json.loads(json.dumps(counts))
    if not path.exists():
        OUT.mkdir(exist_ok=True)
        path.write_text(json.dumps(current))
        return []
    earlier = json.loads(path.read_text())
    return [
        f"{name} differs from an earlier traced run at this seed ({path.name})"
        for name in current
        if earlier.get(name) != current[name]
    ]


def trace(workload, pacer: Pacer):
    """The traced run: returns (result, lines for the human summary).

    Three front doors serve the same fixed prefix: traced, untraced, traced.
    They take turns block by block, so that the machine's drift over seconds
    cancels out of the per-block ratio between the untraced door and the
    traced door that follows it; each block is paced like a window.
    """
    from workloads import check, cold_tax_ratio

    first, plain, last = lanes = [
        open_lane(workload, recorder, pacer) for recorder in (SpanRecorder(), None, SpanRecorder())
    ]
    block = TRACE_OPS[workload.name] // TRACE_BLOCKS
    for number in range(TRACE_BLOCKS):
        for lane in lanes:
            with lane.hooks("window"):
                gc.collect()
                slices = drive(workload, lane.door, lane.ledger, pacer, count_stop((number + 1) * block))
            lane.slices.extend(slices)
            lane.block_seconds.append(sum(piece.wall * piece.scale for piece in slices))
    for lane in lanes:
        with lane.hooks("probe"):
            for item, call, delta in workload.probe(lane.door, TRACE_PROBE):
                lane.ledger.call(item, call, delta)
            lane.door.close()

    mismatches = check(workload, plain.ledger)
    for traced in (first, last):
        if traced.ledger.query_answers() != plain.ledger.query_answers():
            mismatches.append("a traced door answered differently from the untraced door")
    if not plain.cold:
        plain.cold = [
            (workload.pool[plain.ledger.items[position]], plain.ledger.latencies[position] * piece.scale)
            for piece in plain.slices
            for position in plain.ledger.served(piece.first, piece.last)
        ]
    cold_tax = cold_tax_ratio(workload, plain.cold, pacer)
    _, first_counts = lane_metrics(workload, first, cold_tax)
    metrics, counts = lane_metrics(workload, last, cold_tax)
    metrics["bench.trace_overhead_ratio"] = median(
        traced / untraced for traced, untraced in zip(last.block_seconds, plain.block_seconds)
    )
    for name in counts:
        if counts[name] != first_counts[name]:
            mismatches.append(f"{name} differs between two traced doors at one seed")
    mismatches.extend(repeated_counts(workload, counts))

    lines = [f"{workload.name}: {name} = {metrics[name]:.6g} {PER_LAYER[name]}" for name in PER_LAYER]
    lines.extend(mismatches)
    OUT.mkdir(exist_ok=True)
    dump = OUT / f"spans-{workload.name}-seed{workload.seed}.json"
    dump.write_text(json.dumps([record.as_dict() for record in last.recorder.spans], default=str))
    lines.append(f"{workload.name}: {len(last.recorder.spans)} spans written to {os.path.relpath(dump)}")
    result = {
        "correct": not mismatches,
        "attempted": sum(len(lane.ledger) for lane in lanes),
        "failed": sum(refusals(lane.ledger) for lane in lanes),
        "metrics": {name: {"value": metrics[name], "unit": PER_LAYER[name]} for name in PER_LAYER},
    }
    return result, lines


def execute(workload, seconds: float, traced: bool) -> int:
    """Run *workload*, print the summary and the result line; returns the exit code."""
    try:
        with Pacer() as pacer:
            result, lines = trace(workload, pacer) if traced else measure(workload, seconds, pacer)
    except Incomplete as error:
        print(f"{workload.name}: {error}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # Work counts follow set iteration order, which follows string hashes.
        os.execve(
            sys.executable,
            [sys.executable, str(Path(__file__).resolve()), *argv],
            {**os.environ, "PYTHONHASHSEED": HASH_SEED},
        )
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    return execute(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
