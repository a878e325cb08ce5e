"""The benchmark's three workloads.

Each workload makes all of its inputs from one seed with ``repro.datasets``,
builds its front door (``QueryService`` or ``ShardedService``, default serial
executor), drives it as a closed loop from this process, and keeps every
answer so that :func:`check` can compare it with the ``EnumMatcher`` oracle
on the same graph state once the timed window is over.

* ``cold-unique``: one client, one request outstanding, every pattern new.
  Every request misses every cache, so index, matching, plan and parallel do
  the work.
* ``zipf-fleet``: a hot set warmed during set-up, then a Zipf stream through
  ``ShardedService.submit`` with a window of requests outstanding, each
  completion submitting the next request; every third request is a freshly
  re-spelled copy.  Every request hits, so serve
  and service do the work and matching does none.
* ``churn-yago2``: the only workload that writes: a replay of
  ``update_workload`` on YAGO2, a quarter of it edge-churn deltas.

Every operation is recorded in a :class:`Ledger`.  Refusals (``ReproError``
and its subclasses ``ServiceError`` and ``Overloaded``) are recorded there
and count as failed; any other exception ends the run.
"""

from __future__ import annotations

import threading
from array import array
from functools import partial
from itertools import zip_longest
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.datasets import (
    benchmark_graph,
    paper_pattern,
    update_workload,
    workload_patterns,
    zipf_workload,
)
from repro.delta import apply_delta
from repro.index import GraphIndex
from repro.matching import EnumMatcher, QMatch
from repro.serve import ShardedService
from repro.service import QueryService, canonicalize
from repro.utils.errors import ReproError

#: Wider patterns make QueryService re-partition at d=3 and the d=2 fleet refuses them.
MAX_RADIUS = 2

#: (pattern nodes, pattern edges, negated edges) cells the generated patterns cycle through.
MIXED_GRID = ((3, 3, 0), (4, 4, 1), (4, 5, 0), (5, 6, 1), (5, 7, 2), (6, 8, 1))
#: Cheaper cells for the zipf hot set, which is computed cold during every set-up.
SMALL_GRID = ((3, 3, 0), (4, 4, 0), (4, 4, 1), (4, 5, 0))
#: Pattern seed of the hot sets.  They are the same for every run so that the
#: run seed changes only the request stream: per-pattern costs differ by up to
#: 60x on yago2, and a hot set drawn per run seed spread churn-yago2's query
#: p50 by 97% of its median over five seeds.
HOT_SET_SEED = 0


class Ledger:
    """Every operation sent to one front door, in order, and what came back.

    Records live in arrays reserved when the ledger is made, so the
    benchmark's own bookkeeping takes the same memory whatever the
    throughput.  An answer is kept once per distinct answer object: cache
    hits share one.  Refusals and updates are rare and sit in dictionaries.
    """

    def __init__(self, capacity: int) -> None:
        self.count = 0
        self.items = array("i", bytes(4 * capacity))  # pattern index; -1 for an update
        self.latencies = array("d", bytes(8 * capacity))  # wall seconds
        self.answer_ids = array("i", bytes(4 * capacity))  # into self.answers; -1 for none
        self.answers: List[frozenset] = []
        self.deltas: Dict[int, object] = {}
        self.failures: Dict[int, BaseException] = {}
        self._answer_ids: Dict[int, int] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return self.count

    def open(self, item: int, delta: object = None) -> int:
        """Reserve the next record; returns its position."""
        position = self.count
        if position == len(self.items):
            for column in (self.items, self.latencies, self.answer_ids):
                column.extend(column)
        self.items[position] = item
        self.answer_ids[position] = -1
        if delta is not None:
            self.deltas[position] = delta
        self.count = position + 1
        return position

    def close(self, position: int, latency: float, answer=None, failure=None) -> None:
        self.latencies[position] = latency
        if failure is not None:
            self.failures[position] = failure
        elif answer is not None:
            with self._lock:
                known = self._answer_ids.get(id(answer))
                if known is None:
                    known = self._answer_ids[id(answer)] = len(self.answers)
                    self.answers.append(answer)
            self.answer_ids[position] = known

    def call(self, item: int, call: Callable[[], object], delta: object = None) -> int:
        """Send one operation and wait for it; a typed refusal is recorded."""
        position = self.open(item, delta)
        started = perf_counter()
        try:
            result = call()
        except ReproError as refusal:
            self.close(position, perf_counter() - started, failure=refusal)
        else:
            answer = result.answer if delta is None else None
            self.close(position, perf_counter() - started, answer=answer)
        return position

    def is_update(self, position: int) -> bool:
        return position in self.deltas

    def answer(self, position: int) -> Optional[frozenset]:
        known = self.answer_ids[position]
        return self.answers[known] if known >= 0 else None

    def served(self, first: int = 0, last: Optional[int] = None) -> List[int]:
        """Positions in ``[first, last)`` that were not refused."""
        last = self.count if last is None else last
        return [position for position in range(first, last) if position not in self.failures]

    def query_answers(self) -> List[Optional[frozenset]]:
        return [self.answer(position) for position in range(self.count) if position not in self.deltas]


def unique_patterns(graph, count: int, grid, seed: int, exclude=()) -> list:
    """*count* patterns cycling over *grid*, with duplicate fingerprints (also
    those of *exclude*), radius above :data:`MAX_RADIUS` and invalid patterns
    removed."""
    per_cell = 2 * (-(-count // len(grid))) + 4
    cells = [
        workload_patterns(
            graph, count=per_cell, num_nodes=nodes, num_edges=edges,
            num_negated=negated, seed=seed * 101 + position,
        )
        for position, (nodes, edges, negated) in enumerate(grid)
    ]
    seen = {canonicalize(pattern).fingerprint for pattern in exclude}
    patterns = []
    for row in zip_longest(*cells):
        for pattern in row:
            if pattern is None or pattern.radius() > MAX_RADIUS:
                continue
            try:
                pattern.validate()
            except ReproError:
                continue
            fingerprint = canonicalize(pattern).fingerprint
            if fingerprint in seen:
                continue
            seen.add(fingerprint)
            patterns.append(pattern)
            if len(patterns) == count:
                return patterns
    raise RuntimeError(f"only {len(patterns)} of {count} unique patterns could be generated")


def respelled(pattern, tag: object):
    """An equivalent pattern as a fresh object with renamed variables."""
    return pattern.relabel_nodes({node: f"{tag}.{node}" for node in pattern.nodes()})


def churn_deltas(graph, patterns, count: int, seed: int) -> list:
    """*count* edge-churn deltas that apply in order to *graph*."""
    stream = update_workload(graph, patterns, 2 * count, update_fraction=0.9, seed=seed)
    deltas = [op.delta for op in stream if op.is_update][:count]
    if len(deltas) < count:
        raise RuntimeError(f"only {len(deltas)} of {count} deltas could be generated")
    return deltas


class Workload:
    """Inputs from a seed, and the calls that drive one front door."""

    name = ""
    dataset = ""
    #: Edge-churn deltas applied after the timed window: the update latency
    #: samples of the read-only workloads, and more of them on the others.
    probe_size = 100
    #: Whether the timed window itself writes.
    writes = False
    #: Records the window's ledger reserves up front.
    capacity = 1 << 13
    #: Operations the window sends before its peak memory is read.
    memory_ops = 100
    #: Whether the warm-up queries are cold samples for the cold tax.
    cold_warmup = True

    def __init__(self, seed: int, scale: float = 3.0) -> None:
        self.seed = seed
        self.graph = benchmark_graph(self.dataset, scale=scale)
        self.pool: list = []

    # ------------------------------------------------------------- front door

    def open(self, graph):
        return QueryService(graph)

    def warm_patterns(self) -> list:
        """Patterns the front door answers during set-up, one at a time."""
        return self.pool

    def run(self, door, ledger: Ledger, stop: Callable[[Ledger], bool]) -> float:
        """Send operations from position ``len(ledger)`` of the workload's
        stream until ``stop(ledger)`` holds or the stream ends; returns the
        seconds until the last answer came back."""
        raise NotImplementedError

    def probe(self, door, count: int) -> List[Tuple[int, Callable[[], object], object]]:
        """(item, call, delta) steps after the window: edge churn through
        the front door, then one query so the oracle sees the post-churn
        state."""
        steps = [
            (-1, partial(door.apply_delta, delta), delta)
            for delta in churn_deltas(door.graph, self.pool[:4], count, self.seed)
        ]
        steps.append((0, partial(door.evaluate, self.pool[0]), None))
        return steps

    # ------------------------------------------------------------- telemetry

    @staticmethod
    def services(door) -> list:
        return list(getattr(door, "services", [door]))

    @staticmethod
    def fleet(door):
        return door if isinstance(door, ShardedService) else None

    def replication(self, door) -> float:
        """Nodes stored across all fragments over nodes of the served graph."""
        stored = sum(
            fragment.size
            for service in self.services(door)
            for fragment in service.coordinator.partition(service.graph).fragments
        )
        return stored / door.graph.num_nodes


class ColdUnique(Workload):
    name = "cold-unique"
    dataset = "pokec"
    pool_size = 400
    probe_size = 250
    cold_warmup = False

    def __init__(self, seed: int, scale: float = 3.0) -> None:
        super().__init__(seed, scale)
        self.warmup_patterns = [paper_pattern(name) for name in ("Q1", "Q2", "Q3")]
        self.pool = unique_patterns(
            self.graph, self.pool_size, MIXED_GRID, seed, exclude=self.warmup_patterns
        )

    def warm_patterns(self) -> list:
        return self.warmup_patterns

    def run(self, door, ledger, stop) -> float:
        started = perf_counter()
        for item in range(len(ledger), len(self.pool)):
            if stop(ledger):
                break
            ledger.call(item, partial(door.evaluate, self.pool[item]))
        return perf_counter() - started


class ZipfFleet(Workload):
    name = "zipf-fleet"
    dataset = "pokec"
    hot_size = 16
    outstanding = 16
    exponent = 1.1
    stream_length = 1 << 16
    capacity = 1 << 19
    memory_ops = 100_000

    def __init__(self, seed: int, scale: float = 3.0) -> None:
        super().__init__(seed, scale)
        self.pool = unique_patterns(self.graph, self.hot_size, SMALL_GRID, HOT_SET_SEED)
        position = {id(pattern): item for item, pattern in enumerate(self.pool)}
        self.stream = [
            position[id(pattern)]
            for pattern in zipf_workload(
                self.pool, self.stream_length, exponent=self.exponent, seed=seed
            )
        ]

    def open(self, graph):
        return ShardedService(graph, num_shards=2)

    def run(self, door, ledger, stop) -> float:
        """Keep ``outstanding`` requests in flight; each completion submits
        the next request from its callback, on the fleet's dispatcher
        thread.  A separate client thread would hand the interpreter lock
        back and forth with the dispatcher on every request: on a 2-vCPU VM
        that design served anywhere from 86k to 242k requests in 20-s runs."""
        lock = threading.Lock()
        drained = threading.Event()
        in_flight = [self.outstanding]
        finished = [0.0]

        def send() -> None:
            while True:
                with lock:
                    if stop(ledger):
                        in_flight[0] -= 1
                        if not in_flight[0]:
                            drained.set()
                        return
                    position = ledger.open(self.stream[len(ledger) % len(self.stream)])
                pattern = self.pool[ledger.items[position]]
                if position % 3 == 2:
                    pattern = respelled(pattern, position)
                submitted = perf_counter()
                try:
                    future = door.submit(pattern)
                except ReproError as refusal:
                    ledger.close(position, 0.0, failure=refusal)
                    continue
                future.add_done_callback(partial(done, position, submitted))
                return

        def done(position: int, submitted: float, future) -> None:
            now = perf_counter()
            error = future.exception()
            if error is None:
                ledger.close(position, now - submitted, answer=future.result().answer)
            else:
                ledger.close(position, now - submitted, failure=error)
            finished[0] = max(finished[0], now)
            send()

        started = perf_counter()
        for _ in range(self.outstanding):
            send()
        if not drained.wait(timeout=150):
            raise RuntimeError("zipf-fleet requests did not complete within 150 s")
        return max(finished[0], started) - started


class ChurnYago2(Workload):
    name = "churn-yago2"
    dataset = "yago2"
    hot_size = 12
    stream_length = 4000
    probe_size = 200
    writes = True
    memory_ops = 600

    def __init__(self, seed: int, scale: float = 3.0) -> None:
        super().__init__(seed, scale)
        self.pool = unique_patterns(self.graph, self.hot_size, MIXED_GRID, HOT_SET_SEED)
        position = {id(pattern): item for item, pattern in enumerate(self.pool)}
        #: (pattern index, None) for a query, (-1, delta) for an update.
        self.stream = [
            (-1, op.delta) if op.is_update else (position[id(op.pattern)], None)
            for op in update_workload(
                self.graph, self.pool, self.stream_length,
                update_fraction=0.25, exponent=1.1, seed=seed,
            )
        ]

    def run(self, door, ledger, stop) -> float:
        started = perf_counter()
        for item, delta in self.stream[len(ledger):]:
            if stop(ledger):
                break
            if delta is not None:
                ledger.call(item, partial(door.apply_delta, delta), delta)
            else:
                ledger.call(item, partial(door.evaluate, self.pool[item]))
        return perf_counter() - started


WORKLOADS: Dict[str, type] = {
    workload.name: workload for workload in (ColdUnique, ZipfFleet, ChurnYago2)
}


# ------------------------------------------------------------------ oracle


def check(workload: Workload, ledger: Ledger) -> List[str]:
    """Compare every answer with ``EnumMatcher`` on the graph state it was
    served from; returns one line per mismatch.  Deltas are replayed on a
    copy of the workload's graph; a refused delta is not replayed."""
    graph = workload.graph.copy()
    oracle = EnumMatcher()
    expected: Dict[Tuple[int, int], frozenset] = {}
    verified = set()
    state = 0
    mismatches = []
    for position in ledger.served():
        if ledger.is_update(position):
            apply_delta(graph, ledger.deltas[position])
            state += 1
            continue
        item = ledger.items[position]
        key = (state, item)
        if (key, ledger.answer_ids[position]) in verified:
            continue
        if key not in expected:
            pattern = workload.pool[item]
            expected[key] = frozenset(oracle.evaluate(pattern, graph).answer)
        answer = ledger.answer(position)
        if answer == expected[key]:
            verified.add((key, ledger.answer_ids[position]))
        else:
            mismatches.append(
                f"op {position}: pattern {item} after {state} deltas answered "
                f"{'no' if answer is None else len(answer)} nodes, oracle {len(expected[key])}"
            )
    return mismatches


def cold_tax_ratio(workload: Workload, samples: Sequence[Tuple[object, float]], pacer) -> float:
    """Median over cold queries of front-door latency ÷ direct ``QMatch``
    on an indexed copy of the same graph, both in reference seconds."""
    graph = workload.graph.copy()
    GraphIndex.for_graph(graph)
    engine = QMatch()
    ratios = []
    pacer.begin()
    for pattern, latency in samples[:16]:
        started = perf_counter()
        engine.evaluate(pattern, graph)
        ratios.append(latency / ((perf_counter() - started) * pacer.scale()))
    ratios.sort()
    return ratios[len(ratios) // 2] if ratios else 0.0
