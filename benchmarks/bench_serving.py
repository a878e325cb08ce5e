"""Serving figure: Zipf repeated-query throughput, QueryService vs cold PQMatch.

Production traffic is not a stream of fresh queries: a few hot patterns
dominate while a long tail keeps arriving, and many requests are different
*spellings* of the same query.  This benchmark drives exactly that workload —
a Zipf-skewed stream over a small pool of unique patterns, with a third of
the requests re-spelled under renamed variables — through three engines:

* ``PQMatch-cold``        — the parallel coordinator evaluating every request
  from scratch (the pre-service baseline);
* ``QueryService``        — the full serving layer: canonical fingerprints,
  the version-aware LRU answer cache, per-batch dedupe and one executor
  round per batch of misses (requests arrive in batches of 16);
* ``QueryService-single`` — the same service fed one request at a time, to
  separate what the cache buys from what batching buys.

Assertions (the acceptance bar of the serving layer):

* every served answer is byte-identical to the cold coordinator's answer for
  the same request;
* the batched service clears **≥ 5×** the cold throughput on the skewed
  stream;
* the measured serving sweep triggers **zero** ``GraphIndex.build`` calls
  (the served graph's snapshot was warmed once) and
  zero worker-side rebuilds (``last_worker_rebuilds == 0`` — on the process
  backend below, fragments reach workers as decoded snapshots only).

A separate process-backend segment serves a smaller batch twice through a
``ProcessExecutor`` coordinator: the second pass must be answered entirely
from cache, and the pool workers must report zero rebuilds.
"""

from __future__ import annotations

import pytest

from repro.datasets import paper_pattern, workload_patterns, zipf_workload
from repro.index.snapshot import build_call_count
from repro.parallel import PQMatch
from repro.service import QueryService
from repro.utils import Timer

STREAM_LENGTH = 96
ZIPF_EXPONENT = 1.1
BATCH_SIZE = 16
SPEEDUP_FLOOR = 5.0

HEADERS = [
    "engine", "queries", "wall_seconds", "qps", "speedup_vs_cold",
    "cache_hits", "cache_misses", "computed", "dispatch_rounds", "worker_rebuilds",
]


def _unique_patterns(graph):
    """The unique-query pool: the paper's Pokec examples + generated workload."""
    uniques = [
        paper_pattern("Q1"),
        paper_pattern("Q2"),
        paper_pattern("Q3", p=2),
    ] + workload_patterns(graph, count=5, seed=3)
    for index, pattern in enumerate(uniques):
        pattern.name = f"U{index}-{pattern.name}"
    return uniques


def _respelled(pattern, tag):
    """A renamed spelling of *pattern* (same semantics, different variables)."""
    renamed = pattern.relabel_nodes({node: f"{tag}_{node}" for node in pattern.nodes()})
    renamed.name = f"{pattern.name}#respelled"
    return renamed


def _request_stream(uniques):
    """Zipf-skewed request stream with every third request re-spelled."""
    stream = zipf_workload(uniques, STREAM_LENGTH, exponent=ZIPF_EXPONENT, seed=7)
    respelled = {id(pattern): _respelled(pattern, "ren") for pattern in uniques}
    return [
        respelled[id(pattern)] if position % 3 == 2 else pattern
        for position, pattern in enumerate(stream)
    ]


def _serve(service, stream, batch_size):
    """Serve the whole stream in batches, returning per-request answers."""
    answers = []
    with Timer() as timer:
        for start in range(0, len(stream), batch_size):
            for result in service.evaluate_many(stream[start : start + batch_size]):
                answers.append(result.answer)
    return answers, timer.elapsed


def _service_row(name, service, elapsed, cold_elapsed, queries):
    stats = service.stats_snapshot()
    return [
        name,
        queries,
        round(elapsed, 4),
        round(queries / elapsed, 1) if elapsed else 0.0,
        round(cold_elapsed / elapsed, 2) if elapsed else 0.0,
        int(stats["cache_hits"]),
        int(stats["cache_misses"]),
        int(stats["computed"]),
        int(stats["dispatch_rounds"]),
        int(stats["worker_rebuilds"]),
    ]


def _process_segment(graph, pool, expected, phases):
    """Serve a small batch twice over the process backend: snapshots only.

    The second pass must be pure cache; the pool workers must never call
    ``GraphIndex.build`` (fragments arrive as version-2 snapshots whose
    compiled-rows manifest the workers materialise at decode time).
    """
    with QueryService(
        graph, PQMatch(num_workers=2, d=2, executor="process"), name="serving-process"
    ) as service:
        with Timer() as cold_timer:
            first = service.evaluate_many(pool)
        with Timer() as warm_timer:
            second = service.evaluate_many(pool)
        assert [r.answer for r in first] == [r.answer for r in second]
        assert [set(r.answer) for r in first] == [expected[id(p)] for p in pool]
        assert all(r.cached for r in second)
        assert service.worker_rebuilds == 0
        phases["process-first-batch-seconds"] = round(cold_timer.elapsed, 6)
        phases["process-cached-batch-seconds"] = round(warm_timer.elapsed, 6)


@pytest.mark.benchmark(group="serving")
def test_serving_zipf_throughput(benchmark, pokec_graph, record_figure):
    graph = pokec_graph
    uniques = _unique_patterns(graph)
    stream = _request_stream(uniques)

    # ---------------------------------------------------------- cold baseline
    cold = PQMatch(num_workers=4, d=2)
    cold.evaluate(uniques[0], graph)  # warm partition/fragments/indexes
    cold_answers = []
    with Timer() as cold_timer:
        for pattern in stream:
            cold_answers.append(cold.evaluate_answer(pattern, graph))
    cold_elapsed = cold_timer.elapsed

    # --------------------------------------------------------- batched service
    service = QueryService(graph, PQMatch(num_workers=4, d=2), name="serving")
    service.evaluate(uniques[0])  # warm the compiled graph index
    service.cache.clear()

    builds_before = build_call_count()
    served_answers, served_elapsed = benchmark.pedantic(
        _serve, args=(service, stream, BATCH_SIZE), rounds=1, iterations=1
    )
    # Zero rebuilds during serving: every miss ran against warm fragment
    # snapshots, every hit never reached the matching layer at all.
    assert build_call_count() == builds_before
    assert service.worker_rebuilds == 0
    # Byte-identical to cold execution, request by request.
    assert [set(answer) for answer in served_answers] == cold_answers

    # ----------------------------------------------------- unbatched service
    single = QueryService(graph, PQMatch(num_workers=4, d=2), name="serving-single")
    single.evaluate(uniques[0])
    single.cache.clear()
    single_answers, single_elapsed = _serve(single, stream, 1)
    assert [set(answer) for answer in single_answers] == cold_answers

    rows = [
        ["PQMatch-cold", len(stream), round(cold_elapsed, 4),
         round(len(stream) / cold_elapsed, 1) if cold_elapsed else 0.0,
         1.0, 0, 0, len(stream), len(stream), 0],
        _service_row("QueryService", service, served_elapsed, cold_elapsed, len(stream)),
        _service_row("QueryService-single", single, single_elapsed, cold_elapsed, len(stream)),
    ]

    phases = {
        "stream-length": len(stream),
        "unique-patterns": len(uniques),
        "zipf-exponent": ZIPF_EXPONENT,
        "batch-size": BATCH_SIZE,
        "cold-seconds-per-query": round(cold_elapsed / len(stream), 6),
        "served-hit-rate": service.cache.stats.hit_rate,
    }
    pool = uniques[:4]
    expected = {id(pattern): cold.evaluate_answer(pattern, graph) for pattern in pool}
    _process_segment(graph, pool, expected, phases)

    record_figure(
        "serving",
        HEADERS,
        rows,
        title="Serving — Zipf repeated-query throughput (QueryService vs cold PQMatch)",
        phases=phases,
    )

    speedup = cold_elapsed / served_elapsed if served_elapsed else float("inf")
    assert speedup >= SPEEDUP_FLOOR, (
        f"serving speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x floor "
        f"(cold {cold_elapsed:.3f}s vs served {served_elapsed:.3f}s)"
    )
