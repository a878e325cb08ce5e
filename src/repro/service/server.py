"""The query-serving façade: canonicalize → cache → batched dispatch.

:class:`QueryService` is the request-level layer in front of
:class:`~repro.parallel.coordinator.PQMatch`.  Where the coordinator answers
one pattern per call — walking candidate filtering, DMatch and the negated
edges from scratch every time — the service recognises *traffic*:

1. every incoming pattern is **canonicalized**
   (:mod:`repro.service.patterns`), so syntactically different spellings of
   one query share a single identity (its fingerprint);
2. answers are served from a **version-aware LRU cache**
   (:mod:`repro.service.cache`) keyed on the graph's mutation counter —
   structural mutations invalidate by unreachability, attribute updates keep
   the cache warm;
3. cache misses inside one batch are **deduplicated** by fingerprint and
   evaluated as one dispatch round.  An in-process coordinator (``serial``
   — the default — ``thread`` or ``simulated``) evaluates each unique miss
   **once on the served graph**: ownership partitions the nodes, so the
   whole-graph answer is exactly the union of the owned-restricted fragment
   answers, while in-process fragments would only redo work on their
   overlapping halos.  Only the ``process`` backend fans out — one
   :class:`~repro.parallel.worker.FragmentTask` per (unique pattern ×
   fragment), all submitted to the persistent pool at once; the fragments
   themselves were shipped at pool creation, so a serving round moves only
   patterns and answers.

The partition and the pool exist only for the process backend.  They are
owned by the wrapped coordinator and reused for the service's lifetime (close
the service — or use it as a context manager — to release pool processes).

Concurrency model: :meth:`QueryService.evaluate` and
:meth:`~QueryService.evaluate_many` serialise on an internal lock (the
matching engines are not thread-safe), while :meth:`QueryService.submit` is
the thread-safe entry point — it enqueues the query and returns a
:class:`concurrent.futures.Future`; a single dispatcher thread drains the
queue and evaluates whatever accumulated as **one batch**, so concurrent
callers amortise dispatch and share cache fills for duplicate queries.
"""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from concurrent.futures import Future
from time import perf_counter
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from repro.graph.digraph import PropertyGraph
from repro.matching.qmatch import QMatch
from repro.obs.explain import ExplainReport, StatsRegistry, build_report
from repro.obs.flight import FlightRecorder
from repro.obs.introspect import ServiceIntrospection
from repro.obs.metrics import get_registry
from repro.obs.trace import TraceContext, get_tracer, span
from repro.parallel.coordinator import PQMatch
from repro.parallel.worker import FragmentTask, engine_to_spec, options_key_from_spec
from repro.patterns.qgp import QuantifiedGraphPattern
from repro.plan.cache import PlanCache
from repro.service.cache import ResultCache
from repro.service.patterns import CanonicalPattern, canonicalize
from repro.utils.counters import WorkCounter
from repro.utils.errors import ReproError
from repro.utils.timing import Timer

__all__ = [
    "QueryService",
    "ServiceResult",
    "ServiceStats",
    "Subscription",
    "DeltaNotification",
]


@dataclass(frozen=True)
class ServiceResult:
    """One served answer.

    ``answer`` is a frozenset — cached and freshly computed answers are the
    same immutable object family, so callers can compare them byte-for-byte
    with a cold :class:`~repro.parallel.coordinator.PQMatch` run.

    ``counter`` carries the merged :class:`~repro.utils.counters.WorkCounter`
    of the dispatch that computed the answer — ``None`` for cache hits (no
    matching work ran).  The scale-out router sums these across shards and
    the oracle tests assert the sum against the per-shard parts.
    """

    pattern: str
    fingerprint: str
    answer: FrozenSet
    cached: bool
    elapsed: float = 0.0
    counter: Optional[WorkCounter] = None

    def __len__(self) -> int:
        return len(self.answer)

    def __contains__(self, node: object) -> bool:
        return node in self.answer


@dataclass
class ServiceStats:
    """Lifetime counters of one :class:`QueryService`.

    ``deduplicated`` counts queries answered by sharing another query's
    computation *within the same batch* (cache hits are counted by the cache
    itself); ``dispatch_rounds`` counts dispatch rounds (one per batch with
    misses) — the quantity batching minimises; ``computed`` counts unique
    patterns that actually reached the matching layer.  ``memo_hits`` counts canonicalizations skipped by the
    per-pattern-object memo; the ``delta_*`` family describes update batches:
    batches applied, cache entries carried across a version vs dropped, and
    standing-query answers delta-maintained.

    The object doubles as the service's introspection entry point: *reading*
    attributes (``service.stats.computed``) gives the lifetime counters, while
    *calling* it (``service.stats()``) returns the full introspection snapshot
    — per-fingerprint p50/p99 latencies, cache occupancy and hit rate, pool
    epoch, standing-query counts and the slow-query log — via the owning
    service's :meth:`QueryService.introspect`.
    """

    served: int = 0
    batches: int = 0
    dispatch_rounds: int = 0
    computed: int = 0
    deduplicated: int = 0
    submitted: int = 0
    memo_hits: int = 0
    deltas_applied: int = 0
    delta_cache_carried: int = 0
    delta_cache_dropped: int = 0
    delta_subscription_updates: int = 0

    def as_dict(self) -> Dict[str, float]:
        return {
            "served": self.served,
            "batches": self.batches,
            "dispatch_rounds": self.dispatch_rounds,
            "computed": self.computed,
            "deduplicated": self.deduplicated,
            "submitted": self.submitted,
            "memo_hits": self.memo_hits,
            "deltas_applied": self.deltas_applied,
            "delta_cache_carried": self.delta_cache_carried,
            "delta_cache_dropped": self.delta_cache_dropped,
            "delta_subscription_updates": self.delta_subscription_updates,
        }

    def __call__(self) -> Dict[str, object]:
        provider = getattr(self, "_snapshot_provider", None)
        if provider is None:
            return dict(self.as_dict())
        return provider()


@dataclass(frozen=True)
class DeltaNotification:
    """One standing-query answer change, as delivered to subscribers.

    ``version`` is the graph version the new answer holds for; ``added`` and
    ``removed`` are the answer diff against the previous version.
    """

    version: int
    added: FrozenSet
    removed: FrozenSet
    aff_size: int = 0

    def __bool__(self) -> bool:
        return bool(self.added or self.removed)


class Subscription:
    """A standing query: its answer is *maintained* across graph deltas.

    Created by :meth:`QueryService.subscribe`.  ``answer`` always reflects the
    service graph's current version; every structural batch the service
    applies re-verifies only the affected area (:func:`repro.delta.inc_qmatch_delta`)
    and, when the answer changed, appends a :class:`DeltaNotification` to
    ``notifications`` and invokes the optional callback.  Cancel with
    :meth:`cancel` (idempotent) to stop maintenance.
    """

    def __init__(
        self,
        service: "QueryService",
        pattern: QuantifiedGraphPattern,
        fingerprint: str,
        answer: FrozenSet,
        version: int,
        callback: Optional[Callable[["Subscription", DeltaNotification], None]] = None,
    ) -> None:
        self.pattern = pattern
        self.fingerprint = fingerprint
        self.answer = answer
        self.version = version
        self.callback = callback
        self.notifications: List[DeltaNotification] = []
        self.active = True
        self._service = service

    def cancel(self) -> None:
        """Stop maintaining this subscription (safe to call twice)."""
        if self.active:
            self.active = False
            self._service._drop_subscription(self)

    def __repr__(self) -> str:
        return (
            f"Subscription(pattern={self.pattern.name!r}, |answer|={len(self.answer)}, "
            f"version={self.version}, active={self.active})"
        )


def _engine_options_key(engine: object) -> Hashable:
    """A hashable identity for the engine configuration part of cache keys.

    Answers are engine-independent by the equivalence theorems the test suite
    pins down, but the cache still refuses to *assume* that: results computed
    under one engine configuration are never served for another.  The standard
    :class:`~repro.matching.qmatch.QMatch` maps to its full option tuple
    (``DMatchOptions`` is a frozen, hashable dataclass); anything else maps to
    its type identity.
    """
    return options_key_from_spec(engine_to_spec(engine))


class QueryService:
    """Serve quantified-pattern queries against one graph, with reuse.

    Parameters
    ----------
    graph:
        The live :class:`~repro.graph.PropertyGraph` being served.  The
        service reads its mutation counter on every batch, so structural
        updates between batches are picked up automatically (stale cache
        entries become unreachable; on the process backend the coordinator
        re-partitions and re-ships fragments).
    coordinator:
        The :class:`~repro.parallel.coordinator.PQMatch` whose engine
        evaluates cache misses; defaults to a fresh serial-executor
        coordinator.  Its ``executor_kind`` picks the route: in-process
        kinds evaluate each miss once on the served graph, ``"process"``
        fans out to the fragments of its partition.  The service owns it:
        :meth:`close` closes it.
    cache_capacity:
        Bound on the number of cached answers (LRU beyond it).
    use_plans:
        Compile each unique fingerprint once into a
        :class:`repro.plan.CompiledPlan` (cached in a bounded
        :class:`repro.plan.PlanCache` beside the result cache) and hand it to
        the dispatch, so a result-cache miss still hits a warm plan.  Only
        effective with the standard :class:`QMatch` engine; answers and work
        counters are byte-identical either way.
    plan_cache_capacity:
        Bound on the plan cache (both epoch entries and compiled programs).

    >>> from repro.graph.generators import small_world_social_graph
    >>> from repro.datasets.workloads import workload_patterns
    >>> graph = small_world_social_graph(60, 150, seed=3)
    >>> queries = workload_patterns(graph, count=2, seed=5)
    >>> with QueryService(graph) as service:
    ...     first = service.evaluate_many(queries + queries)
    ...     again = service.evaluate(queries[0])
    >>> [r.cached for r in first], again.cached
    ([False, False, True, True], True)
    """

    def __init__(
        self,
        graph: PropertyGraph,
        coordinator: Optional[PQMatch] = None,
        cache_capacity: int = 1024,
        name: str = "QueryService",
        slow_query_threshold: Optional[float] = None,
        introspection_capacity: int = 512,
        slow_query_capacity: int = 64,
        use_plans: bool = True,
        plan_cache_capacity: int = 256,
        flight_capacity: int = 256,
        stats_registry_capacity: int = 256,
    ) -> None:
        self.graph = graph
        self.coordinator = coordinator if coordinator is not None else PQMatch(
            num_workers=4, d=2, engine=QMatch()
        )
        self.cache = ResultCache(cache_capacity)
        self.plans = PlanCache(plan_cache_capacity)
        self.name = name
        self.stats = ServiceStats()
        # Calling service.stats() (vs reading its counter attributes) yields
        # the full introspection snapshot.
        self.stats._snapshot_provider = self.introspect
        # Request-level accounting: per-fingerprint traffic + latency
        # histograms and the (opt-in via slow_query_threshold) slow-query log.
        self.introspection = ServiceIntrospection(
            capacity=introspection_capacity,
            slow_query_threshold=slow_query_threshold,
            slow_query_capacity=slow_query_capacity,
        )
        # Always-on, bounded post-mortem ring buffers (capacity 0 disables).
        self.flight = FlightRecorder(flight_capacity)
        # The per-fingerprint estimated-vs-observed feed behind explain() —
        # epoch key is the graph version each computed answer ran against.
        self.stats_registry = StatsRegistry(stats_registry_capacity)
        self._options_key = _engine_options_key(self.coordinator.engine)
        # Plans are only wired through for the standard QMatch engine: an
        # opaque engine would reject the plan keyword (and, inside
        # match_fragment's TypeError fallback, lose its focus restriction).
        self._plans_enabled = bool(use_plans) and self._options_key[0] == "qmatch"
        # Prepared-statement style canonicalization memo: repeat submissions
        # of the *same pattern object* skip the ~50µs canonicalize.  Weak keys
        # so the memo never pins a caller's pattern; callers must treat a
        # submitted pattern as frozen (mutating it would stale the memo — the
        # same contract a prepared statement has).
        self._canonical_memo: "weakref.WeakKeyDictionary[QuantifiedGraphPattern, CanonicalPattern]" = (
            weakref.WeakKeyDictionary()
        )
        # fingerprint -> representative pattern object, kept so update batches
        # can reason per cached entry (radius, focus label) during migration.
        # Bounded like the answer cache; an evicted representative only costs
        # a dropped carry-forward.
        self._patterns: "OrderedDict[str, QuantifiedGraphPattern]" = OrderedDict()
        self._subscriptions: List[Subscription] = []
        # Serialises evaluation (engines, partition and executor are not
        # thread-safe); submit() only ever touches it via the dispatcher.
        self._evaluate_lock = threading.RLock()
        # submit() machinery: pending (pattern, future, trace context,
        # enqueue wall/perf timestamps) tuples drained in batches by a single
        # lazily started dispatcher thread.
        self._pending: List[
            Tuple[QuantifiedGraphPattern, Future, TraceContext, float, float]
        ] = []
        self._pending_lock = threading.Lock()
        self._pending_signal = threading.Event()
        self._dispatcher: Optional[threading.Thread] = None
        self._closed = False

    # -------------------------------------------------------------- one query

    def evaluate(self, pattern: QuantifiedGraphPattern) -> ServiceResult:
        """Serve one pattern (cache → canonical dedupe → dispatch)."""
        return self.evaluate_many([pattern])[0]

    def evaluate_answer(self, pattern: QuantifiedGraphPattern, graph=None) -> FrozenSet:
        """Engine-interface parity helper returning only the answer set.

        ``graph`` must be the served graph when given — a service is bound to
        one graph; passing another is almost certainly a bug, so it raises.
        """
        if graph is not None and graph is not self.graph:
            raise ReproError(
                f"{self.name} serves graph {self.graph.name!r}; "
                f"got a query for {graph.name!r}"
            )
        return self.evaluate(pattern).answer

    # ------------------------------------------------------------- batch path

    def evaluate_many(
        self, patterns: Sequence[QuantifiedGraphPattern]
    ) -> List[ServiceResult]:
        """Serve a batch of patterns, in input order.

        Duplicate (equivalent) patterns inside the batch are computed once;
        all cache misses are evaluated in a single round.  The call is
        all-or-nothing: an invalid pattern anywhere in the batch raises (the
        :meth:`submit` path isolates failures per request instead, so one
        caller's bad pattern never fails a coalesced stranger's).
        """
        with self._evaluate_lock:
            # The closed-check must share the evaluation lock that close()
            # takes around the executor shutdown: a caller that passed an
            # unlocked check could otherwise resume after close() finished
            # and lazily resurrect a fresh process pool nothing would ever
            # shut down.
            if self._closed:
                raise ReproError(f"{self.name} is closed")
            return self._evaluate_batch(list(patterns))

    def _serve_batch(
        self,
        patterns: Sequence[QuantifiedGraphPattern],
        waits: Optional[List[float]] = None,
    ) -> List[ServiceResult]:
        """The closed-check-free batch path: the dispatcher drains queued
        submissions through this while :meth:`close` is joining it (close
        shuts the executor down only after the join returns)."""
        with self._evaluate_lock:
            return self._evaluate_batch(list(patterns), waits=waits)

    def _evaluate_batch(
        self,
        patterns: List[QuantifiedGraphPattern],
        waits: Optional[List[float]] = None,
    ) -> List[ServiceResult]:
        if not patterns:
            return []
        graph = self.graph
        # The graph version is read ONCE per batch: answers computed for the
        # misses below are filed under this version even if the owning thread
        # mutates the graph while the dispatch runs — a concurrent mutation
        # must never let a pre-mutation answer masquerade as a fresh one.
        version = graph.version
        results: List[Optional[ServiceResult]] = [None] * len(patterns)
        # fingerprint -> (representative pattern, canonical form, positions
        # awaiting it) — the form rides along so dispatch can attach the
        # compiled plan without re-canonicalizing.
        missing: Dict[str, Tuple[QuantifiedGraphPattern, CanonicalPattern, List[int]]] = {}
        # Per-request service time: a hit costs its lookup; a miss costs the
        # lookup plus its fingerprint's share of the dispatch round (its
        # evaluation time, summed over fragments on the pool) — this feeds the
        # per-fingerprint p50/p99 and the slow-query log.
        request_elapsed: List[float] = [0.0] * len(patterns)
        compute_counters: Dict[str, WorkCounter] = {}
        with span("service.batch", size=len(patterns)), Timer() as timer:
            forms = [self._canonical(pattern) for pattern in patterns]
            for position, (pattern, form) in enumerate(zip(patterns, forms)):
                lookup_started = perf_counter()
                answer = self.cache.lookup(
                    graph, form.fingerprint, self._options_key, version=version
                )
                request_elapsed[position] = perf_counter() - lookup_started
                if answer is not None:
                    results[position] = ServiceResult(
                        pattern=pattern.name,
                        fingerprint=form.fingerprint,
                        answer=answer,
                        cached=True,
                    )
                else:
                    entry = missing.setdefault(form.fingerprint, (pattern, form, []))
                    entry[2].append(position)

            plan_labels: Dict[str, str] = {}
            if missing:
                unique = [
                    (fingerprint, pattern, form)
                    for fingerprint, (pattern, form, _) in missing.items()
                ]
                answers, timings, compute_counters, plan_labels = self._dispatch_batch(
                    graph, unique
                )
                for fingerprint, (pattern, form, positions) in missing.items():
                    answer = self.cache.store(
                        graph,
                        fingerprint,
                        answers[fingerprint],
                        self._options_key,
                        version=version,
                    )
                    self.stats_registry.record(
                        fingerprint,
                        pattern.name,
                        version,
                        counter=compute_counters.get(fingerprint),
                        answer_size=len(answer),
                        elapsed=timings.get(fingerprint, 0.0),
                    )
                    for position in positions:
                        request_elapsed[position] += timings.get(fingerprint, 0.0)
                        results[position] = ServiceResult(
                            pattern=patterns[position].name,
                            fingerprint=fingerprint,
                            answer=answer,
                            cached=False,
                            counter=compute_counters.get(fingerprint),
                        )
                self.stats.computed += len(missing)
                self.stats.deduplicated += sum(
                    len(positions) - 1 for _, _, positions in missing.values()
                )

        self.stats.served += len(patterns)
        self.stats.batches += 1
        elapsed = timer.elapsed
        batch_size = len(patterns)
        flight = self.flight
        for position, result in enumerate(results):
            cache_route = "l1" if result.cached else "compute"
            admission_wait = waits[position] if waits is not None else 0.0
            slow = self.introspection.observe(
                fingerprint=result.fingerprint,
                pattern_name=result.pattern,
                elapsed=request_elapsed[position],
                cached=result.cached,
                counter=None if result.cached else compute_counters.get(result.fingerprint),
                batch_size=batch_size,
                plan="" if result.cached else plan_labels.get(result.fingerprint, ""),
                cache_route=cache_route,
                admission_wait=admission_wait,
            )
            if flight and not result.cached:
                # Computed-work grain only: L1 hits stay off the recorder so
                # the default hot path costs two falsy checks, not an event.
                flight.record(
                    "query",
                    service=self.name,
                    fingerprint=result.fingerprint,
                    pattern=result.pattern,
                    cached=result.cached,
                    cache_route=cache_route,
                    elapsed=request_elapsed[position],
                    batch_size=batch_size,
                    admission_wait=admission_wait,
                )
            if flight and slow is not None:
                flight.record("slow_query", service=self.name, **slow.as_dict())
        registry = get_registry()
        if registry:
            registry.counter("service.batches").inc()
            registry.counter("service.served").inc(batch_size)
            registry.histogram("service.batch_seconds").observe(elapsed)
        return [
            ServiceResult(
                pattern=result.pattern,
                fingerprint=result.fingerprint,
                answer=result.answer,
                cached=result.cached,
                elapsed=elapsed,
                counter=result.counter,
            )
            for result in results
        ]

    def _dispatch_batch(
        self,
        graph: PropertyGraph,
        unique: List[Tuple[str, QuantifiedGraphPattern, CanonicalPattern]],
    ) -> Tuple[
        Dict[str, FrozenSet], Dict[str, float], Dict[str, WorkCounter], Dict[str, str]
    ]:
        """Evaluate the unique cache misses of one batch as one dispatch round.

        With plans enabled, each unique fingerprint is first resolved through
        the service's :class:`PlanCache` (compile once, reuse thereafter) and
        handed to the evaluation with its canonical binding.

        An in-process coordinator (``serial``, ``thread``, ``simulated``)
        evaluates each miss **once on the served graph**.  Ownership
        partitions the nodes, so the whole-graph answer is exactly the union
        of the owned-restricted fragment answers (Lemma 9), and in-process
        fragments cannot overlap in time for pure-Python matching while their
        halos overlap in work — the fan-out could only add cost.  Such a
        service therefore never builds or maintains a partition.

        Only the ``process`` backend fans out: it composes
        :meth:`PQMatch.fragment_tasks` / ``run_fragment_tasks`` — the code
        :meth:`PQMatch.evaluate` uses — but concatenates *every* pattern's
        tasks into a single pool round, so the round-trip is paid once per
        batch instead of once per query.

        Returns ``(answers, timings, counters, plan_labels)``: per
        fingerprint, the frozen answer, its evaluation seconds (summed over
        fragments on the pool — the introspection layer's compute-latency
        sample), the merged work counters, and the serving plan's compact
        label for the slow-query log.
        """
        for _, pattern, _ in unique:
            pattern.validate()

        plans: Dict[str, object] = {}
        plan_labels: Dict[str, str] = {}
        if self._plans_enabled:
            for fingerprint, pattern, form in unique:
                plan = self.plans.plan_for(
                    graph, fingerprint, self._options_key, pattern, form=form
                )
                plans[fingerprint] = plan
                plan_labels[fingerprint] = (
                    f"{fingerprint[:12]} {plan.order_label(graph)}"
                )

        self.stats.dispatch_rounds += 1
        if self.coordinator.executor_kind == "process":
            answers, timings, counters = self._fan_out(graph, unique, plans)
        else:
            answers, timings, counters = self._evaluate_once(graph, unique, plans)
        return answers, timings, counters, plan_labels

    def _evaluate_once(
        self,
        graph: PropertyGraph,
        unique: List[Tuple[str, QuantifiedGraphPattern, CanonicalPattern]],
        plans: Dict[str, object],
    ) -> Tuple[Dict[str, FrozenSet], Dict[str, float], Dict[str, WorkCounter]]:
        """One engine call per unique miss on the whole served graph."""
        engine = self.coordinator.engine
        answers: Dict[str, FrozenSet] = {}
        timings: Dict[str, float] = {}
        counters: Dict[str, WorkCounter] = {}
        with span("service.dispatch", patterns=len(unique), tasks=0):
            for fingerprint, pattern, form in unique:
                plan = plans.get(fingerprint)
                with Timer() as timer:
                    if plan is not None:
                        result = engine.evaluate(
                            pattern, graph, plan=plan, plan_binding=form.order
                        )
                    else:
                        result = engine.evaluate(pattern, graph)
                answers[fingerprint] = frozenset(result.answer)
                timings[fingerprint] = timer.elapsed
                counters[fingerprint] = result.counter
        return answers, timings, counters

    def _fan_out(
        self,
        graph: PropertyGraph,
        unique: List[Tuple[str, QuantifiedGraphPattern, CanonicalPattern]],
        plans: Dict[str, object],
    ) -> Tuple[Dict[str, FrozenSet], Dict[str, float], Dict[str, WorkCounter]]:
        """One pool round of (unique pattern × fragment) tasks, merged."""
        coordinator = self.coordinator
        radius = max(pattern.radius() for _, pattern, _ in unique)
        partition = coordinator.ensure_radius(graph, radius)
        tasks: List[FragmentTask] = []
        owners: List[str] = []
        for fingerprint, pattern, form in unique:
            pattern_tasks = coordinator.fragment_tasks(
                pattern,
                partition,
                fingerprint=fingerprint if self._plans_enabled else None,
                plan=plans.get(fingerprint),
                plan_binding=form.order if self._plans_enabled else None,
            )
            tasks.extend(pattern_tasks)
            owners.extend([fingerprint] * len(pattern_tasks))

        with span("service.dispatch", patterns=len(unique), tasks=len(tasks)):
            fragment_results = coordinator.run_fragment_tasks(tasks)

        answers: Dict[str, set] = {fingerprint: set() for fingerprint, _, _ in unique}
        timings: Dict[str, float] = {fingerprint: 0.0 for fingerprint, _, _ in unique}
        counters: Dict[str, WorkCounter] = {
            fingerprint: WorkCounter() for fingerprint, _, _ in unique
        }
        for fingerprint, fragment_result in zip(owners, fragment_results):
            answers[fingerprint] |= fragment_result.answer
            timings[fingerprint] += fragment_result.elapsed
            counters[fingerprint].merge(fragment_result.counter)
        return (
            {fingerprint: frozenset(nodes) for fingerprint, nodes in answers.items()},
            timings,
            counters,
        )

    # -------------------------------------------------------- canonicalization

    def _canonical(self, pattern: QuantifiedGraphPattern) -> CanonicalPattern:
        """Canonicalize with the per-pattern-object memo (prepared statements).

        Repeat submissions of the same object skip the colour-refinement
        canonicalization entirely; distinct-but-equivalent objects still meet
        at the fingerprint, exactly as before.  Also records the pattern as
        the representative of its fingerprint for delta-time migration.
        """
        form = self._canonical_memo.get(pattern)
        if form is not None:
            self.stats.memo_hits += 1
            # Keep the representative registry's LRU order tracking real
            # traffic: without this, the hottest (always-memo-hit) patterns
            # would be the first evicted and lose delta-time carry-forward.
            self._patterns[form.fingerprint] = pattern
            self._patterns.move_to_end(form.fingerprint)
            return form
        form = canonicalize(pattern)
        try:
            self._canonical_memo[pattern] = form
        except TypeError:
            pass  # unhashable/unweakrefable pattern subclass: just skip the memo
        self._patterns[form.fingerprint] = pattern
        self._patterns.move_to_end(form.fingerprint)
        while len(self._patterns) > self.cache.capacity:
            self._patterns.popitem(last=False)
        return form

    # ----------------------------------------------------------------- updates

    def apply_delta(self, delta) -> "GraphDelta":
        """Apply one :class:`~repro.delta.GraphDelta` batch to the served graph.

        This is the single write entry point of the service, and it threads
        the batch through every layer instead of cold-starting any of them:

        1. the graph mutates once (one version bump) via
           :func:`repro.delta.apply_delta`;
        2. the compiled full-graph index is **refreshed**, not rebuilt;
        3. on the process backend, the coordinator maintains its partition
           in place and the executor re-keys shipped fragments to delta
           chains (:meth:`PQMatch.apply_delta`) — no re-partition, no
           re-ship, zero worker rebuilds.  In-process coordinators hold no
           partition, so this step is a no-op for them;
        4. cached answers migrate *selectively*: an entry whose pattern's
           affected area contains **no node carrying its focus label** cannot
           have changed (any focus candidate whose answer flipped is inside
           AFF) and is carried to the new version for free; entries the area
           might touch are dropped and recomputed on next request.  Note the
           focus-label guard is what makes the carry sound — an empty
           ``AFF ∩ answer`` alone would miss *newly created* matches;
        5. standing queries (:meth:`subscribe`) are delta-maintained via
           :func:`repro.delta.inc_qmatch_delta` and notified of their diff.

        Serialises with :meth:`evaluate_many`/:meth:`submit` on the evaluation
        lock, so every served answer reflects the graph strictly before or
        strictly after the batch — never a mix.  Returns the inverse batch;
        applying it rolls everything back (it is just another delta).
        """
        from repro.delta.matching import affected_area
        from repro.delta.ops import apply_delta as apply_graph_delta
        from repro.index.snapshot import GraphIndex

        with self._evaluate_lock, span(
            "service.delta", service=self.name, size=delta.size
        ) as delta_span:
            if self._closed:
                raise ReproError(f"{self.name} is closed")
            graph = self.graph
            old_version = graph.version
            inverse = apply_graph_delta(graph, delta)
            if not delta.is_structural():
                delta_span.annotate(structural=False)
                return inverse
            new_version = graph.version

            cached = graph.cached_index()
            if cached is not None and cached.version == old_version:
                index = cached.refreshed(delta)
                index_route = "refreshed"
            else:
                index = GraphIndex.for_graph(graph)
                index_route = "rebuilt"
            self.coordinator.apply_delta(graph, delta, inverse)

            # ---------------------------------------------- cache migration
            areas: Dict[int, set] = {}
            labels_in_area: Dict[int, set] = {}
            carried: List[Tuple[str, Hashable]] = []
            deleted = set(delta.node_deletes)
            dropped = 0
            for fingerprint, options_key in self.cache.fingerprints_for(graph, old_version):
                pattern = self._patterns.get(fingerprint)
                if pattern is None or options_key != self._options_key:
                    dropped += 1
                    continue
                radius = pattern.radius()
                if radius not in areas:
                    areas[radius] = affected_area(
                        graph, delta, radius, inverse=inverse, index=index
                    )
                    labels_in_area[radius] = {
                        graph.node_label(node) for node in areas[radius]
                    }
                focus_label = pattern.node_label(pattern.focus)
                if focus_label in labels_in_area[radius]:
                    dropped += 1
                    continue
                if deleted:
                    # Deleted nodes are *not* in AFF (they no longer exist),
                    # so the label guard above cannot see a cached match the
                    # batch itself deleted — same blind spot inc_qmatch_delta
                    # covers by subtracting node_deletes before carrying.
                    answer = self.cache.peek(
                        graph, fingerprint, options_key, version=old_version
                    )
                    if answer is None or not deleted.isdisjoint(answer):
                        dropped += 1
                        continue
                carried.append((fingerprint, options_key))
            if carried:
                self.cache.carry_forward(graph, carried, old_version, new_version)
            self.stats.delta_cache_carried += len(carried)
            self.stats.delta_cache_dropped += dropped

            # ------------------------------------------------- subscriptions
            self._maintain_subscriptions(delta, inverse, index, new_version)
            self.stats.deltas_applied += 1
            delta_span.annotate(
                index=index_route, carried=len(carried), dropped=dropped
            )
            if self.flight:
                self.flight.record(
                    "delta",
                    service=self.name,
                    graph=graph.name,
                    version=new_version,
                    size=delta.size,
                    index=index_route,
                    carried=len(carried),
                    dropped=dropped,
                )
            return inverse

    def subscribe(
        self,
        pattern: QuantifiedGraphPattern,
        callback: Optional[Callable[[Subscription, DeltaNotification], None]] = None,
    ) -> Subscription:
        """Register *pattern* as a standing query.

        The initial answer is served through the normal path (cache, batch
        dispatch); from then on every :meth:`apply_delta` batch maintains the
        answer incrementally — re-verifying only the affected area — instead
        of recomputing it, keeps the result cache warm at the new version,
        and notifies the subscription (list + optional callback) of the diff.
        """
        with self._evaluate_lock:
            if self._closed:
                raise ReproError(f"{self.name} is closed")
            result = self._evaluate_batch([pattern])[0]
            subscription = Subscription(
                service=self,
                pattern=pattern,
                fingerprint=result.fingerprint,
                answer=result.answer,
                version=self.graph.version,
                callback=callback,
            )
            self._subscriptions.append(subscription)
            return subscription

    def _drop_subscription(self, subscription: Subscription) -> None:
        try:
            self._subscriptions.remove(subscription)
        except ValueError:
            pass

    def _maintenance_engine(self) -> Tuple[QMatch, bool]:
        """The sequential engine used to maintain standing queries.

        Returns ``(engine, cacheable)``: *cacheable* marks that the engine is
        equivalent to the coordinator's (the standard QMatch rebuilt from its
        options), so maintained answers may be filed into the result cache
        under the service's options key.  Opaque engines maintain answers with
        a default QMatch — answers are engine-independent — but never touch
        the cache, honouring its never-cross-options discipline.
        """
        spec = engine_to_spec(self.coordinator.engine)
        if spec[0] == "qmatch":
            _, use_incremental, options, name = spec
            return QMatch(use_incremental=use_incremental, options=options, name=name), True
        return QMatch(), False

    def _maintain_subscriptions(self, delta, inverse, index, new_version: int) -> None:
        if not self._subscriptions:
            return
        from repro.delta.matching import inc_qmatch_delta

        engine, cacheable = self._maintenance_engine()
        for subscription in list(self._subscriptions):
            if not subscription.active:
                continue
            maintain_started = perf_counter()
            answer, stats = inc_qmatch_delta(
                subscription.pattern,
                self.graph,
                delta,
                subscription.answer,
                inverse=inverse,
                engine=engine,
                index=index,
            )
            self.introspection.slow_queries.record(
                subscription.fingerprint,
                subscription.pattern.name,
                perf_counter() - maintain_started,
                cached=False,
                counter=WorkCounter(verifications=stats.verifications),
                aff_size=stats.aff_size,
            )
            if cacheable:
                answer = self.cache.store(
                    self.graph,
                    subscription.fingerprint,
                    answer,
                    self._options_key,
                    version=new_version,
                )
            subscription.answer = answer
            subscription.version = new_version
            self.stats.delta_subscription_updates += 1
            if stats.added or stats.removed:
                notification = DeltaNotification(
                    version=new_version,
                    added=frozenset(stats.added),
                    removed=frozenset(stats.removed),
                    aff_size=stats.aff_size,
                )
                subscription.notifications.append(notification)
                if subscription.callback is not None:
                    subscription.callback(subscription, notification)

    # ------------------------------------------------------------- submission

    def submit(self, pattern: QuantifiedGraphPattern) -> "Future[ServiceResult]":
        """Thread-safe asynchronous entry point.

        Enqueues the query and returns a future; a single dispatcher thread
        drains the queue, so queries submitted concurrently coalesce into one
        batch (deduplicated and dispatched together).  Call from any thread.
        Cancelling the returned future before the dispatcher picks it up is
        honoured (the query is skipped).
        """
        future: "Future[ServiceResult]" = Future()
        # The submit span is the root the dispatcher's batch spans parent
        # under (via attach), so one submitted query reads as one tree even
        # though serving happens on another thread.  Context + timestamps are
        # captured inside the span; the enqueue timestamps are always taken —
        # they feed the always-on admission-wait field of the slow-query log.
        with span("service.submit", service=self.name, pattern=pattern.name):
            context = get_tracer().current_context()
            enqueued_wall = time.time()
            enqueued_perf = perf_counter()
            with self._pending_lock:
                # Closed-check and enqueue share the lock close() takes, so a
                # submit racing close() either lands before it (and is
                # drained) or observes _closed — it can never restart the
                # dispatcher and resurrect the coordinator's executor after
                # shutdown.
                if self._closed:
                    raise ReproError(f"{self.name} is closed")
                self._pending.append(
                    (pattern, future, context, enqueued_wall, enqueued_perf)
                )
                self._ensure_dispatcher()
                self._pending_signal.set()
                self.stats.submitted += 1
        return future

    def _ensure_dispatcher(self) -> None:
        if self._dispatcher is None or not self._dispatcher.is_alive():
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, name=f"{self.name}-dispatcher", daemon=True
            )
            self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while True:
            # A plain blocking wait: submit() always sets the signal under
            # the pending lock after appending and close() sets it too, so
            # there is no lost-wakeup window and no idle polling.
            self._pending_signal.wait()
            with self._pending_lock:
                batch = self._pending
                self._pending = []
                if not self._closed:
                    self._pending_signal.clear()
                # else: leave the signal set so the next wait() returns
                # immediately and the empty drain below terminates the loop.
            if not batch:
                if self._closed:
                    return
                continue
            # Claim each future; ones cancelled while queued are skipped (and
            # must not poison the rest of the batch — a dead dispatcher would
            # orphan every later future).
            claimed = [
                request
                for request in batch
                if request[1].set_running_or_notify_cancel()
            ]
            if not claimed:
                continue
            patterns = [request[0] for request in claimed]
            # Pending-queue wait per claimed request: always computed (it
            # feeds the slow-query log), and — when the submitter captured a
            # live trace — also filed as a synthetic span under its submit
            # span, so queueing time shows up in the tree it delayed.
            claimed_at = perf_counter()
            waits = [claimed_at - request[4] for request in claimed]
            tracer = get_tracer()
            if tracer.enabled:
                for request, wait in zip(claimed, waits):
                    if request[2].enabled:
                        tracer.record_span(
                            "service.pending.wait",
                            start=request[3],
                            wall=wait,
                            context=request[2],
                            pattern=request[0].name,
                        )
            try:
                # The coalesced batch runs once; its spans parent under the
                # first claimant's submit span (the others' trees keep their
                # submit root + wait span and share the served work).
                with tracer.attach(claimed[0][2]):
                    served = self._serve_batch(patterns, waits=waits)
            except BaseException:
                # The coalesced batch mixes unrelated callers, so a failure
                # (typically one invalid pattern) must not fan out: fall back
                # to serving each request on its own and fail only the
                # request that is actually broken.  Valid requests stay cheap
                # — whatever the failed round cached is reused.
                for request, wait in zip(claimed, waits):
                    pattern, future = request[0], request[1]
                    try:
                        with tracer.attach(request[2]):
                            result = self._serve_batch([pattern], waits=[wait])[0]
                    except BaseException as error:
                        if not future.done():
                            future.set_exception(error)
                    else:
                        if not future.done():
                            future.set_result(result)
            else:
                for request, result in zip(claimed, served):
                    future = request[1]
                    if not future.done():
                        future.set_result(result)

    # -------------------------------------------------------------- telemetry

    def explain(
        self,
        query,
        analyze: bool = False,
        analyze_limit: Optional[int] = None,
    ) -> ExplainReport:
        """EXPLAIN (ANALYZE) one query: the compiled plan with per-step
        estimated vs observed cardinalities.

        *query* is a pattern object or the canonical fingerprint of one this
        service has seen (the representative registry keeps one live pattern
        per served fingerprint).  Estimates come from the graph's
        :class:`~repro.graph.statistics.CardinalityModel`; observations come
        from the :class:`StatsRegistry` traffic averages and — with
        ``analyze=True`` — from re-running the enumeration with a per-depth
        probe profile (``analyze_limit`` caps the embeddings enumerated).
        """
        from repro.plan.compile import compile_plan

        with self._evaluate_lock:
            if self._closed:
                raise ReproError(f"{self.name} is closed")
            if isinstance(query, str):
                pattern = self._patterns.get(query)
                if pattern is None:
                    raise ReproError(
                        f"{self.name} has no pattern registered for "
                        f"fingerprint {query!r}"
                    )
            else:
                pattern = query
            form = self._canonical(pattern)
            fingerprint = form.fingerprint
            if self._plans_enabled:
                plan = self.plans.plan_for(
                    self.graph, fingerprint, self._options_key, pattern, form=form
                )
            else:
                plan = compile_plan(
                    pattern,
                    fingerprint=fingerprint,
                    options_key=self._options_key,
                    form=form,
                )
            return build_report(
                plan,
                self.graph,
                pattern=pattern,
                traffic=self.stats_registry.observed(fingerprint),
                analyze=analyze,
                analyze_limit=analyze_limit,
            )

    @property
    def worker_rebuilds(self) -> int:
        """``GraphIndex.build`` calls reported by pool workers (0 otherwise).

        The process executor aggregates worker-side build counts; serving must
        keep it at zero — fragments reach workers as decoded snapshots, never
        as recompilation work.  Serial/threaded backends trivially report 0.
        Reads the coordinator's executor *if one exists* — telemetry must not
        lazily create (or, after close, resurrect) a pool.
        """
        return getattr(self.coordinator.current_executor, "last_worker_rebuilds", 0)

    def stats_snapshot(self) -> Dict[str, float]:
        """Service + cache counters in one flat dict (bench/figure friendly)."""
        merged = {f"cache_{key}": value for key, value in self.cache.stats.as_dict().items()}
        merged.update(
            {f"plan_{key}": value for key, value in self.plans.stats.as_dict().items()}
        )
        merged.update(self.stats.as_dict())
        merged["worker_rebuilds"] = float(self.worker_rebuilds)
        return merged

    def introspect(self) -> Dict[str, object]:
        """The full operator-facing snapshot (also what ``stats()`` returns).

        One nested dict answering the runtime questions in one read: lifetime
        service counters, cache occupancy/capacity/hit-rate, the live pool's
        backend and payload epoch, active standing-query count, per-fingerprint
        traffic with p50/p99 latency, and the slow-query log.
        """
        executor = self.coordinator.current_executor
        epoch = getattr(executor, "pool_epoch", None)
        cache_stats = self.cache.stats.as_dict()
        cache_stats["entries"] = len(self.cache)
        cache_stats["capacity"] = self.cache.capacity
        return {
            "service": self.stats.as_dict(),
            "cache": cache_stats,
            "plans": self.plans.describe(),
            "pool": {
                "backend": getattr(executor, "name", None),
                "epoch_fragments": len(epoch) if epoch else 0,
                "worker_rebuilds": self.worker_rebuilds,
                "deltas_shipped": getattr(executor, "deltas_shipped", 0),
                "worker_plan_hits": getattr(executor, "last_worker_plan_hits", 0),
                "worker_plan_compiles": getattr(
                    executor, "last_worker_plan_compiles", 0
                ),
            },
            "graph": {"name": self.graph.name, "version": self.graph.version},
            "subscriptions": sum(1 for s in self._subscriptions if s.active),
            "fingerprints": self.introspection.snapshot(),
            "slow_queries": [
                record.as_dict()
                for record in self.introspection.slow_queries.records()
            ],
            "explain": self.stats_registry.snapshot(),
            "flight": self.flight.snapshot(),
        }

    # -------------------------------------------------------------- lifecycle

    def close(self) -> None:
        """Stop the dispatcher (draining queued work) and release the executor.

        The join is unbounded on purpose: close() promises queued submissions
        are drained, and shutting the executor down under a timed-out join
        would race the still-running dispatcher.  The executor shutdown takes
        the evaluation lock, so an in-flight ``evaluate_many`` that passed its
        closed-check first finishes before the pool goes down — and can never
        resurrect it afterwards.
        """
        with self._pending_lock:
            self._closed = True
        dispatcher = self._dispatcher
        if dispatcher is not None and dispatcher.is_alive():
            self._pending_signal.set()
            dispatcher.join()
        self._dispatcher = None
        with self._evaluate_lock:
            self.coordinator.close()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryService(graph={self.graph.name!r}, served={self.stats.served}, "
            f"cache={len(self.cache)}/{self.cache.capacity})"
        )
