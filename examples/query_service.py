#!/usr/bin/env python3
"""Serve repeated quantified-pattern traffic through the query-serving layer.

The scenario: a small social platform answers the same handful of marketing
queries thousands of times a day, spelled slightly differently by different
callers, against a graph that occasionally changes.  Instead of walking the
full PQMatch pipeline per request, a :class:`repro.service.QueryService`

1. canonicalizes every request (renamed variables, reordered edges and
   ``> p`` vs ``≥ p+1`` spellings collapse to one fingerprint),
2. serves repeats from a version-aware LRU cache,
3. deduplicates the misses of each batch and evaluates them in a single
   round — once each on the served graph with the default serial
   coordinator, fanned out to fragments only on a process pool,
4. recomputes automatically once the graph structurally changes — and keeps
   the cache warm across attribute-only updates.

Run it with ``python examples/query_service.py``.
"""

from __future__ import annotations

from repro import PQMatch, QueryService
from repro.datasets import benchmark_graph, paper_pattern, zipf_workload


def respell(pattern, tag):
    """The same query as another caller would write it (fresh variable names)."""
    renamed = pattern.relabel_nodes({node: f"{tag}_{node}" for node in pattern.nodes()})
    renamed.name = f"{pattern.name}@{tag}"
    return renamed


def main() -> None:
    graph = benchmark_graph("pokec", scale=1.0, seed=1)
    print(f"serving graph: {graph.name} ({graph.num_nodes} nodes, {graph.num_edges} edges)")

    hot = paper_pattern("Q1")           # the hot marketing query
    warm = paper_pattern("Q3", p=2)     # occasionally asked, with negation
    traffic = zipf_workload([hot, warm], length=20, seed=4)
    # a third of the requests arrive re-spelled by a different client
    traffic = [
        respell(pattern, "client2") if position % 3 == 2 else pattern
        for position, pattern in enumerate(traffic)
    ]

    with QueryService(graph, PQMatch(num_workers=4, d=2)) as service:
        # --- a batch of requests: misses are deduplicated and shipped once
        batch = service.evaluate_many(traffic[:8])
        for result in batch[:4]:
            print(f"  {result.pattern:<16} cached={result.cached!s:<5} |answer|={len(result)}")
        print(f"batch of 8 -> dispatch rounds: {service.stats.dispatch_rounds}, "
              f"computed: {service.stats.computed}")

        # --- the rest of the stream rides the cache
        for pattern in traffic[8:]:
            service.evaluate(pattern)
        stats = service.stats_snapshot()
        print(f"after {stats['served']:.0f} requests: "
              f"{stats['cache_hits']:.0f} hits / {stats['cache_misses']:.0f} misses "
              f"(hit rate {stats['cache_hit_rate']:.0%}), "
              f"unique computations: {stats['computed']:.0f}")

        # --- structural mutation: stale answers become unreachable
        graph.add_node("new-user", "person")
        refreshed = service.evaluate(hot)
        print(f"after adding a node: cached={refreshed.cached} (recomputed)")

        # --- attribute updates keep the cache warm
        graph.set_node_attr("new-user", "city", "Edinburgh")
        print(f"after an attribute update: cached={service.evaluate(hot).cached}")

        # concurrent callers would use service.submit(pattern) -> Future;
        # queued submissions coalesce into one deduplicated batch.


if __name__ == "__main__":
    main()
