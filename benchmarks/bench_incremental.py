"""Incremental figure: graph updates without cold starts (repro.delta).

Before the delta layer, one edge insert cost a cold start: full
``GraphIndex.build``, every cache entry unreachable, partition re-built,
process pool re-created and re-shipped.  This benchmark drives an interleaved
update/query stream (:func:`repro.datasets.update_workload` — Zipf-skewed
queries × uniform edge churn) and measures the three layers the subsystem
accelerates:

* ``index-rebuild``   — replay every update batch with a from-scratch
  ``GraphIndex.build`` after each (the pre-delta baseline);
* ``index-refresh``   — replay the same batches with
  ``GraphIndex.refreshed(delta)`` (bounded CSR/signature patching);
* ``qmatch-replay``   — the answer oracle: a bare sequential QMatch
  re-evaluating every query cold on the mutating graph (no service, no
  partition — the floor any serving layer must match answer-for-answer);
* ``serve-cold``      — the pre-delta serving story: the *same*
  :class:`QueryService`, but every update mutates the graph outside the
  delta protocol, so the version-keyed stack cold-starts — the compiled
  index recompiles and every cache entry goes unreachable (the serial
  service evaluates misses once on the served graph, so it keeps no
  partition to rebuild);
* ``serve-delta``     — the same stream through the same service, updates
  arriving as :meth:`QueryService.apply_delta` batches (index refresh,
  selective cache migration, standing-query maintenance).  ``serve-delta``
  vs ``serve-cold`` isolates exactly what the delta layer buys.  In-place
  partition maintenance is exercised by the process-backend segment, the
  only backend that fans out to fragments.

Assertions (the acceptance bar of the delta layer):

* every refreshed snapshot is **wire-byte-identical** to the from-scratch
  rebuild at the same stream position;
* incremental refresh is **≥ 3×** faster than rebuild-per-update over the
  whole stream;
* the delta-served stream beats the cold-start service (``SERVE_SPEEDUP_FLOOR``);
* every served answer is byte-identical to a cold re-evaluation of the same
  query at the same stream position;
* a process-backend segment applies a delta mid-stream and keeps
  ``last_worker_rebuilds == 0`` with the **same pool object** — the mutation
  ships as a delta chain, not as re-shipped fragments.
"""

from __future__ import annotations

import pytest

from repro.datasets import paper_pattern, update_workload, workload_patterns
from repro.delta import GraphDelta, apply_delta, refresh_rebuild_count
from repro.index.serialize import to_bytes
from repro.index.snapshot import GraphIndex, build_call_count
from repro.matching.qmatch import QMatch
from repro.parallel import PQMatch
from repro.service import QueryService
from repro.utils import Timer

STREAM_LENGTH = 72
UPDATE_FRACTION = 0.3
OPS_PER_UPDATE = 2
REFRESH_SPEEDUP_FLOOR = 3.0
SERVE_SPEEDUP_FLOOR = 1.5

HEADERS = [
    "engine", "stream_ops", "updates", "queries", "wall_seconds",
    "speedup_vs_baseline", "rebuild_fallbacks", "worker_rebuilds",
]


def _structural_bytes(index):
    """The wire encoding of the snapshot's structural sections only.

    Derived sections (merged CSR, row-store manifest) are materialised
    lazily, so a refreshed snapshot may carry them while a cold build does
    not; byte-identity is asserted over what both must agree on.
    """
    return to_bytes(index, include_neighborhoods=False, include_compiled_rows=False)


def _unique_patterns(graph):
    uniques = [paper_pattern("Q1"), paper_pattern("Q3", p=2)] + workload_patterns(
        graph, count=4, seed=3
    )
    for position, pattern in enumerate(uniques):
        pattern.name = f"U{position}-{pattern.name}"
    return uniques


def _index_maintenance_segment(graph, deltas, phases):
    """Refresh vs rebuild-per-update over the stream's update batches."""
    # Same name on purpose: the wire format encodes it, and the byte-identity
    # assertion below compares the two replayed graphs' snapshots.
    rebuild_graph = graph.copy(name="incremental-index")
    refresh_graph = graph.copy(name="incremental-index")

    rebuilt = GraphIndex.build(rebuild_graph)
    with Timer() as rebuild_timer:
        for delta in deltas:
            apply_delta(rebuild_graph, delta)
            rebuilt = GraphIndex.build(rebuild_graph)

    refreshed = GraphIndex.build(refresh_graph)
    fallbacks_before = refresh_rebuild_count()
    with Timer() as refresh_timer:
        for delta in deltas:
            apply_delta(refresh_graph, delta)
            refreshed = refreshed.refreshed(delta)
    fallbacks = refresh_rebuild_count() - fallbacks_before

    assert _structural_bytes(refreshed) == _structural_bytes(rebuilt), (
        "refreshed snapshot diverged from the from-scratch rebuild"
    )
    speedup = (
        rebuild_timer.elapsed / refresh_timer.elapsed
        if refresh_timer.elapsed
        else float("inf")
    )
    assert speedup >= REFRESH_SPEEDUP_FLOOR, (
        f"incremental refresh only {speedup:.2f}x faster than rebuild-per-update "
        f"(floor {REFRESH_SPEEDUP_FLOOR}x; rebuild {rebuild_timer.elapsed:.3f}s, "
        f"refresh {refresh_timer.elapsed:.3f}s)"
    )
    phases["index-rebuild-seconds"] = round(rebuild_timer.elapsed, 6)
    phases["index-refresh-seconds"] = round(refresh_timer.elapsed, 6)
    phases["index-refresh-speedup"] = round(speedup, 2)
    return rebuild_timer.elapsed, refresh_timer.elapsed, fallbacks


def _replay_qmatch(graph, stream):
    """The answer oracle: every query re-evaluated cold on the mutating graph."""
    replay = graph.copy(name="incremental-oracle")
    answers = []
    with Timer() as timer:
        for op in stream:
            if op.is_update:
                apply_delta(replay, op.delta)
            else:
                answers.append(frozenset(QMatch().evaluate_answer(op.pattern, replay)))
    return answers, timer.elapsed


def _serve_cold(graph, stream):
    """Pre-delta serving baseline: same service, cold start on every update.

    The batch mutates the served graph *outside* the delta protocol — exactly
    what a pre-``repro.delta`` deployment had to do — so each subsequent query
    pays the full invalidation: version-keyed cache entries unreachable,
    compiled index rebuilt, d-hop partition re-built from scratch.
    """
    replay = graph.copy(name="incremental-cold")
    answers = []
    with QueryService(
        replay, PQMatch(num_workers=4, d=2), name="incremental-cold"
    ) as service:
        with Timer() as timer:
            for op in stream:
                if op.is_update:
                    apply_delta(replay, op.delta)
                else:
                    answers.append(service.evaluate(op.pattern).answer)
    return answers, timer.elapsed


def _serve_stream(graph, stream, phases):
    """The delta-served run, plus a standing query maintained throughout."""
    served_graph = graph.copy(name="incremental-served")
    standing = paper_pattern("Q1")
    answers = []
    with QueryService(
        served_graph, PQMatch(num_workers=4, d=2), name="incremental"
    ) as service:
        subscription = service.subscribe(standing)
        with Timer() as timer:
            for op in stream:
                if op.is_update:
                    service.apply_delta(op.delta)
                else:
                    answers.append(service.evaluate(op.pattern).answer)
        # The standing query must equal a cold evaluation of the final state.
        cold_standing = frozenset(QMatch().evaluate_answer(standing, served_graph))
        assert subscription.answer == cold_standing
        stats = service.stats_snapshot()
        phases["serve-cache-hits"] = int(stats["cache_hits"])
        phases["serve-cache-carried"] = int(stats["delta_cache_carried"])
        phases["serve-cache-dropped"] = int(stats["delta_cache_dropped"])
        phases["serve-subscription-updates"] = int(stats["delta_subscription_updates"])
        assert service.worker_rebuilds == 0
    return answers, timer.elapsed


def _process_segment(graph, patterns, delta, phases):
    """One mutation on the process backend: delta chain, not a re-ship."""
    process_graph = graph.copy(name="incremental-process")
    with QueryService(
        process_graph,
        PQMatch(num_workers=2, d=2, executor="process"),
        name="incremental-process",
    ) as service:
        first = [service.evaluate(pattern).answer for pattern in patterns]
        executor = service.coordinator.executor
        pool_before = executor._pool
        with Timer() as timer:
            service.apply_delta(delta)
            second = [service.evaluate(pattern).answer for pattern in patterns]
        for pattern, answer in zip(patterns, second):
            assert answer == frozenset(QMatch().evaluate_answer(pattern, process_graph))
        assert executor._pool is pool_before, "mutation recreated the pool"
        assert executor.deltas_shipped > 0, "mutation did not ship as a delta"
        assert service.worker_rebuilds == 0, (
            f"{service.worker_rebuilds} worker rebuilds across the mutation"
        )
        phases["process-delta-roundtrip-seconds"] = round(timer.elapsed, 6)
        phases["process-deltas-shipped"] = executor.deltas_shipped
    return first, second


@pytest.mark.benchmark(group="incremental")
def test_incremental_update_stream(benchmark, pokec_graph, record_figure):
    # The session fixture is shared with other figures — never mutate it.
    graph = pokec_graph.copy(name="pokec-incremental")
    uniques = _unique_patterns(graph)
    stream = update_workload(
        graph,
        uniques,
        STREAM_LENGTH,
        update_fraction=UPDATE_FRACTION,
        ops_per_update=OPS_PER_UPDATE,
        seed=11,
    )
    deltas = [op.delta for op in stream if op.is_update]
    queries = len(stream) - len(deltas)
    assert deltas, "the stream drew no update batches; raise STREAM_LENGTH"

    phases = {
        "stream-length": len(stream),
        "updates": len(deltas),
        "queries": queries,
        "ops-per-update": OPS_PER_UPDATE,
    }

    rebuild_elapsed, refresh_elapsed, fallbacks = _index_maintenance_segment(
        graph, deltas, phases
    )

    oracle_answers, oracle_elapsed = _replay_qmatch(graph, stream)
    cold_answers, cold_elapsed = _serve_cold(graph, stream)
    assert cold_answers == oracle_answers, (
        "cold-start service answers diverged from the sequential oracle"
    )
    builds_before = build_call_count()
    served_answers, served_elapsed = benchmark.pedantic(
        _serve_stream, args=(graph, stream, phases), rounds=1, iterations=1
    )
    phases["serve-builds"] = build_call_count() - builds_before
    assert served_answers == oracle_answers, (
        "served answers diverged from cold re-evaluation of the same stream"
    )
    serve_speedup = cold_elapsed / served_elapsed if served_elapsed else float("inf")
    assert serve_speedup >= SERVE_SPEEDUP_FLOOR, (
        f"delta-served stream only {serve_speedup:.2f}x over the cold-start "
        f"service (floor {SERVE_SPEEDUP_FLOOR}x; cold {cold_elapsed:.3f}s, "
        f"served {served_elapsed:.3f}s)"
    )

    process_delta = deltas[0]
    _process_segment(graph, uniques[:3], process_delta, phases)

    rows = [
        ["index-rebuild", len(deltas), len(deltas), 0, round(rebuild_elapsed, 4), 1.0, 0, 0],
        ["index-refresh", len(deltas), len(deltas), 0, round(refresh_elapsed, 4),
         round(rebuild_elapsed / refresh_elapsed, 2) if refresh_elapsed else 0.0,
         fallbacks, 0],
        ["qmatch-replay", len(stream), len(deltas), queries, round(oracle_elapsed, 4), 1.0, 0, 0],
        ["serve-cold", len(stream), len(deltas), queries, round(cold_elapsed, 4), 1.0, 0, 0],
        ["serve-delta", len(stream), len(deltas), queries, round(served_elapsed, 4),
         round(serve_speedup, 2), 0, 0],
    ]
    record_figure(
        "incremental",
        HEADERS,
        rows,
        title="Incremental — interleaved update/query stream (delta layer vs cold starts)",
        phases=phases,
    )
