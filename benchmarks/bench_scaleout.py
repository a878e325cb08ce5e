"""Scale-out figure: Zipf traffic over a 4-shard fleet, cold vs shared-cache warm.

The scale-out story of the serving tier is a *restart* story: a fleet that
dies takes its in-memory caches with it, but not the cross-process sqlite
result store.  This benchmark plays it out end to end:

* ``fleet-cold``   — a 4-shard :class:`ShardedService` serving a Zipf-skewed
  stream from nothing, writing every computed answer through to a shared
  sqlite store;
* ``fleet-warm``   — a **freshly built** fleet over the same graph (same
  deterministic shards, same version vector) serving the identical stream:
  every unique pattern must come out of the shared store without a single
  fan-out round;
* ``oracle``       — a single ``QueryService`` on the union graph, the
  byte-identity referee; its ``oracle-single`` row times a **fresh** oracle
  serving the same stream from cold in the same batches, so it compares like
  with like against ``fleet-cold``.

Assertions (the acceptance bar of the scale-out tier):

* every fleet answer — cold and warm — is byte-identical to the oracle's;
* the warm fleet performs **zero** fan-out rounds and **zero** worker
  rebuilds: restarts ride the shared store, they do not recompute;
* warm serving clears **≥ 3×** the cold fleet's wall clock on the stream;
* the shared store reports zero degraded reads (this is the healthy-path
  figure; ``tests/test_serve_faults.py`` owns the unhealthy paths).

CI runs this entry point at ``REPRO_BENCH_SCALE=0.2`` as a smoke test.
"""

from __future__ import annotations

import pytest

from repro.datasets import paper_pattern, workload_patterns, zipf_workload
from repro.serve import ShardedService
from repro.service import QueryService
from repro.utils import Timer

STREAM_LENGTH = 48
ZIPF_EXPONENT = 1.1
NUM_SHARDS = 4
BATCH_SIZE = 8
WARM_SPEEDUP_FLOOR = 3.0

HEADERS = [
    "engine", "queries", "wall_seconds", "qps", "speedup_vs_cold",
    "fanout_rounds", "shared_hits", "shared_stores", "l1_hits", "worker_rebuilds",
]


def _unique_patterns(graph):
    uniques = [
        paper_pattern("Q2"),
        paper_pattern("Q3", p=2),
    ] + workload_patterns(graph, count=4, seed=13)
    for index, pattern in enumerate(uniques):
        pattern.name = f"U{index}-{pattern.name}"
    return uniques


def _serve(fleet, stream):
    answers = []
    with Timer() as timer:
        for start in range(0, len(stream), BATCH_SIZE):
            for result in fleet.evaluate_many(stream[start : start + BATCH_SIZE]):
                answers.append(result.answer)
    return answers, timer.elapsed


def _fleet_row(name, fleet, elapsed, cold_elapsed, queries):
    stats = fleet.stats_snapshot()
    return [
        name,
        queries,
        round(elapsed, 4),
        round(queries / elapsed, 1) if elapsed else 0.0,
        round(cold_elapsed / elapsed, 2) if elapsed else 0.0,
        int(stats["fanout_rounds"]),
        int(stats["shared_hits"]),
        int(stats["shared_cache_stores"]),
        int(stats["cache_hits"]),
        int(stats["worker_rebuilds"]),
    ]


@pytest.mark.benchmark(group="scaleout")
def test_scaleout_shared_cache_restart(benchmark, pokec_graph, record_figure, tmp_path):
    graph = pokec_graph
    uniques = _unique_patterns(graph)
    stream = zipf_workload(uniques, STREAM_LENGTH, exponent=ZIPF_EXPONENT, seed=7)
    store_path = str(tmp_path / "scaleout.sqlite")

    # ------------------------------------------------------------ oracle
    with QueryService(graph, name="scaleout-oracle") as oracle:
        expected = {id(p): oracle.evaluate(p).answer for p in uniques}
    # The timed oracle starts cold, like the cold fleet it is compared with.
    with QueryService(graph, name="scaleout-oracle-cold") as oracle:
        oracle_answers, oracle_elapsed = _serve(oracle, stream)
    assert oracle_answers == [expected[id(p)] for p in stream]

    # ------------------------------------------------- cold fleet (writes L2)
    cold_fleet = ShardedService(
        graph, num_shards=NUM_SHARDS, shared_cache=store_path, name="scaleout-cold"
    )
    cold_answers, cold_elapsed = benchmark.pedantic(
        _serve, args=(cold_fleet, stream), rounds=1, iterations=1
    )
    assert cold_answers == [expected[id(p)] for p in stream]
    assert cold_fleet.stats_snapshot()["worker_rebuilds"] == 0
    store_entries = cold_fleet.shared.entry_count()
    assert store_entries == len(uniques)
    cold_vector = cold_fleet.version_vector
    cold_fleet.close()

    # ------------------------------------------ warm fleet (a fresh restart)
    warm_fleet = ShardedService(
        graph, num_shards=NUM_SHARDS, shared_cache=store_path, name="scaleout-warm"
    )
    # Deterministic shard construction: the rebuilt fleet lands on the exact
    # version vector the cold fleet wrote its entries under.
    assert warm_fleet.version_vector == cold_vector
    warm_answers, warm_elapsed = _serve(warm_fleet, stream)
    assert warm_answers == cold_answers
    warm_stats = warm_fleet.stats_snapshot()
    # The restart recomputed nothing at all.
    assert warm_stats["fanout_rounds"] == 0
    assert warm_stats["worker_rebuilds"] == 0
    assert warm_stats["shared_hits"] == len(uniques)
    assert warm_stats["shared_cache_degraded"] == 0
    warm_fleet.close()

    rows = [
        ["oracle-single", len(stream), round(oracle_elapsed, 4),
         round(len(stream) / oracle_elapsed, 1) if oracle_elapsed else 0.0,
         round(cold_elapsed / oracle_elapsed, 2) if oracle_elapsed else 0.0,
         0, 0, 0, 0, 0],
        _fleet_row("fleet-cold", cold_fleet, cold_elapsed, cold_elapsed, len(stream)),
        _fleet_row("fleet-warm", warm_fleet, warm_elapsed, cold_elapsed, len(stream)),
    ]

    record_figure(
        "scaleout",
        HEADERS,
        rows,
        title="Scale-out — 4-shard fleet, cold vs shared-cache warm restart",
        phases={
            "stream-length": len(stream),
            "unique-patterns": len(uniques),
            "zipf-exponent": ZIPF_EXPONENT,
            "num-shards": NUM_SHARDS,
            "store-entries": store_entries,
            "cold-seconds": round(cold_elapsed, 6),
            "warm-seconds": round(warm_elapsed, 6),
        },
    )

    speedup = cold_elapsed / warm_elapsed if warm_elapsed else float("inf")
    assert speedup >= WARM_SPEEDUP_FLOOR, (
        f"shared-cache warm restart {speedup:.2f}x below the "
        f"{WARM_SPEEDUP_FLOOR}x floor "
        f"(cold {cold_elapsed:.3f}s vs warm {warm_elapsed:.3f}s)"
    )
