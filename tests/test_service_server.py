"""The QueryService façade (:mod:`repro.service.server`).

Contracts under test: served answers are byte-identical to cold PQMatch runs,
equivalent queries share one computation (cache across batches, dedupe within
a batch), all misses of a batch run in one dispatch round, mutation triggers
recomputation while attribute updates do not, concurrent ``submit`` calls are
safe and coalesce, in-process coordinators evaluate each miss once on the
served graph (no partition, no executor), and process-backend serving never
rebuilds indexes inside pool workers.
"""

from __future__ import annotations

import threading

import pytest

from repro.datasets import benchmark_graph, paper_pattern, workload_patterns
from repro.delta import GraphDelta
from repro.graph import PropertyGraph
from repro.index.snapshot import build_call_count
from repro.matching import EnumMatcher, QMatch
from repro.parallel import PQMatch
from repro.patterns import QuantifiedGraphPattern
from repro.service import QueryService, ServiceResult
from repro.utils.errors import ReproError


@pytest.fixture(scope="module")
def served_graph():
    return benchmark_graph("pokec", scale=1.0, seed=1)


@pytest.fixture(scope="module")
def queries(served_graph):
    return [
        paper_pattern("Q1"),
        paper_pattern("Q2"),
        paper_pattern("Q3", p=2),
    ] + workload_patterns(served_graph, count=2, seed=5)


@pytest.fixture(scope="module")
def cold_answers(served_graph, queries):
    cold = PQMatch(num_workers=4, d=2)
    return [cold.evaluate_answer(pattern, served_graph) for pattern in queries]


def _renamed(pattern):
    clone = pattern.relabel_nodes({node: f"alias_{node}" for node in pattern.nodes()})
    clone.name = f"{pattern.name}#alias"
    return clone


class TestServing:
    def test_answers_byte_identical_to_cold_pqmatch(self, served_graph, queries, cold_answers):
        with QueryService(served_graph) as service:
            served = service.evaluate_many(queries)
            assert [set(result.answer) for result in served] == cold_answers
            assert all(isinstance(result, ServiceResult) for result in served)
            assert all(isinstance(result.answer, frozenset) for result in served)

    def test_repeat_is_served_from_cache(self, served_graph, queries, cold_answers):
        with QueryService(served_graph) as service:
            first = service.evaluate(queries[0])
            second = service.evaluate(queries[0])
            assert not first.cached and second.cached
            assert second.answer == first.answer == frozenset(cold_answers[0])

    def test_renamed_spelling_hits_the_same_entry(self, served_graph, queries, cold_answers):
        with QueryService(served_graph) as service:
            first = service.evaluate(queries[0])
            respelled = service.evaluate(_renamed(queries[0]))
            assert respelled.cached
            assert respelled.fingerprint == first.fingerprint
            assert set(respelled.answer) == cold_answers[0]

    def test_in_batch_dedupe_computes_once(self, served_graph, queries):
        with QueryService(served_graph) as service:
            batch = [queries[0], _renamed(queries[0]), queries[0]]
            served = service.evaluate_many(batch)
            assert len({result.fingerprint for result in served}) == 1
            assert [result.answer for result in served] == [served[0].answer] * 3
            assert service.stats.computed == 1
            assert service.stats.deduplicated == 2
            assert service.stats.dispatch_rounds == 1

    def test_batch_misses_ship_in_one_round(self, served_graph, queries, cold_answers):
        with QueryService(served_graph) as service:
            served = service.evaluate_many(queries)
            assert service.stats.dispatch_rounds == 1
            assert service.stats.computed == len(queries)
            assert [set(result.answer) for result in served] == cold_answers

    def test_empty_batch(self, served_graph):
        with QueryService(served_graph) as service:
            assert service.evaluate_many([]) == []

    def test_zero_builds_when_warm(self, served_graph, queries):
        with QueryService(served_graph) as service:
            service.evaluate_many(queries)  # warm partition, fragments, indexes
            before = build_call_count()
            service.cache.clear()
            service.evaluate_many(queries)  # recompute everything, warm machinery
            assert build_call_count() == before
            assert service.worker_rebuilds == 0


class TestInvalidation:
    def test_structural_mutation_recomputes(self, queries):
        graph = benchmark_graph("pokec", scale=1.0, seed=1)
        with QueryService(graph) as service:
            service.evaluate(queries[0])
            graph.add_node("mutation-probe", "person")
            refreshed = service.evaluate(queries[0])
            assert not refreshed.cached
            cold = PQMatch(num_workers=4, d=2)
            assert set(refreshed.answer) == cold.evaluate_answer(queries[0], graph)

    def test_attribute_update_keeps_cache_warm(self, queries):
        graph = benchmark_graph("pokec", scale=1.0, seed=1)
        some_node = next(iter(graph.nodes()))
        with QueryService(graph) as service:
            service.evaluate(queries[0])
            graph.set_node_attr(some_node, "note", "attribute-only")
            assert service.evaluate(queries[0]).cached

    def test_mutation_during_dispatch_cannot_poison_the_cache(self, queries):
        """The batch pins the version it looked up under: an answer computed
        while a mutation interleaves is filed under the OLD version, so the
        next request recomputes instead of being served a stale answer."""
        graph = benchmark_graph("pokec", scale=1.0, seed=1)
        with QueryService(graph) as service:
            original_dispatch = service._dispatch_batch

            def mutating_dispatch(dispatch_graph, unique):
                dispatch_graph.add_node(
                    f"interloper-{dispatch_graph.version}", "person"
                )
                return original_dispatch(dispatch_graph, unique)

            service._dispatch_batch = mutating_dispatch
            service.evaluate(queries[0])  # computed while the graph mutates
            service._dispatch_batch = original_dispatch
            refreshed = service.evaluate(queries[0])
            assert not refreshed.cached  # stale answer was unreachable
            cold = PQMatch(num_workers=4, d=2)
            assert set(refreshed.answer) == cold.evaluate_answer(queries[0], graph)


class TestSubmit:
    def test_concurrent_submit_is_correct_and_coalesces(
        self, served_graph, queries, cold_answers
    ):
        stream = (queries * 3)[:12]
        expected = (cold_answers * 3)[:12]
        with QueryService(served_graph) as service:
            futures = [None] * len(stream)

            def submit(position):
                futures[position] = service.submit(stream[position])

            threads = [
                threading.Thread(target=submit, args=(position,))
                for position in range(len(stream))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            results = [future.result(timeout=60) for future in futures]
            assert [set(result.answer) for result in results] == expected
            assert service.stats.submitted == len(stream)
            # every unique pattern was computed exactly once, regardless of
            # how the dispatcher grouped the submissions into batches
            assert service.stats.computed == len(queries)

    def test_cancelled_future_does_not_kill_the_dispatcher(
        self, served_graph, queries, cold_answers
    ):
        """A future cancelled while queued is skipped; the dispatcher must
        survive and resolve the rest of the batch (a dead dispatcher would
        orphan every later future)."""
        import time

        with QueryService(served_graph) as service:
            # Block the dispatcher inside its first batch by holding the
            # evaluation lock, so later submissions stay queued.
            service._evaluate_lock.acquire()
            try:
                blocked = service.submit(queries[0])
                deadline = time.monotonic() + 10
                while blocked._state == "PENDING" and time.monotonic() < deadline:
                    time.sleep(0.005)  # wait until the dispatcher claimed it
                doomed = service.submit(queries[1])
                survivor = service.submit(queries[2])
                assert doomed.cancel()  # still queued: cancellable
            finally:
                service._evaluate_lock.release()
            assert set(blocked.result(timeout=60).answer) == cold_answers[0]
            assert set(survivor.result(timeout=60).answer) == cold_answers[2]
            assert doomed.cancelled()

    def test_submit_after_close_raises(self, served_graph, queries):
        service = QueryService(served_graph)
        service.close()
        with pytest.raises(ReproError):
            service.submit(queries[0])

    def test_evaluate_after_close_raises_and_never_resurrects_the_pool(
        self, served_graph, queries
    ):
        service = QueryService(served_graph)
        service.evaluate(queries[0])
        service.close()
        with pytest.raises(ReproError):
            service.evaluate(queries[0])
        with pytest.raises(ReproError):
            service.evaluate_many(queries[:2])
        service.stats_snapshot()  # telemetry stays readable after close...
        assert service.coordinator.current_executor is None  # ...pool stays down

    def test_close_concurrent_with_evaluate_never_resurrects_the_pool(
        self, queries
    ):
        """close() must wait for an in-flight evaluation (which passed its
        closed-check first) and only then shut the executor down — the late
        evaluation must not re-create a pool nothing would release."""
        import time

        graph = benchmark_graph("pokec", scale=0.5, seed=1)
        service = QueryService(graph)
        service.evaluate(queries[0])  # warm partition + executor
        service.cache.clear()
        entered = threading.Event()
        original_dispatch = service._dispatch_batch

        def slow_dispatch(dispatch_graph, unique):
            entered.set()
            time.sleep(0.2)
            return original_dispatch(dispatch_graph, unique)

        service._dispatch_batch = slow_dispatch
        outcome = {}

        def worker():
            try:
                outcome["answer"] = set(service.evaluate(queries[0]).answer)
            except ReproError:
                outcome["closed"] = True

        thread = threading.Thread(target=worker)
        thread.start()
        assert entered.wait(timeout=30)  # worker holds the evaluation lock
        service.close()                  # blocks until the worker finishes
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert service.coordinator.current_executor is None
        assert "answer" in outcome or "closed" in outcome

    def test_one_bad_submission_fails_only_its_own_future(
        self, served_graph, queries, cold_answers
    ):
        """Coalesced batches mix unrelated callers: an invalid pattern must
        fail its own future and leave the strangers' requests served."""
        import time

        from repro.patterns.qgp import QuantifiedGraphPattern

        broken = QuantifiedGraphPattern(name="no-focus")
        broken.add_node("x", "person")
        with QueryService(served_graph) as service:
            # Hold the evaluation lock so all three submissions coalesce
            # into the dispatcher's next batch.
            service._evaluate_lock.acquire()
            try:
                first = service.submit(queries[0])
                deadline = time.monotonic() + 10
                while first._state == "PENDING" and time.monotonic() < deadline:
                    time.sleep(0.005)
                good = service.submit(queries[1])
                bad = service.submit(broken)
                also_good = service.submit(queries[2])
            finally:
                service._evaluate_lock.release()
            assert set(first.result(timeout=60).answer) == cold_answers[0]
            assert set(good.result(timeout=60).answer) == cold_answers[1]
            assert set(also_good.result(timeout=60).answer) == cold_answers[2]
            with pytest.raises(Exception):
                bad.result(timeout=60)

    def test_invalid_pattern_propagates_through_future(self, served_graph):
        from repro.patterns.qgp import QuantifiedGraphPattern

        broken = QuantifiedGraphPattern(name="no-focus")
        broken.add_node("x", "person")
        with QueryService(served_graph) as service:
            future = service.submit(broken)
            with pytest.raises(Exception):
                future.result(timeout=60)


class TestLifecycle:
    def test_evaluate_answer_rejects_other_graphs(self, served_graph, queries):
        other = benchmark_graph("yago2", scale=1.0, seed=1)
        with QueryService(served_graph) as service:
            with pytest.raises(ReproError):
                service.evaluate_answer(queries[0], other)
            assert service.evaluate_answer(queries[0], served_graph) == frozenset(
                service.evaluate(queries[0]).answer
            )

    def test_stats_snapshot_is_flat_and_complete(self, served_graph, queries):
        with QueryService(served_graph) as service:
            service.evaluate_many(queries[:2])
            snapshot = service.stats_snapshot()
            for key in (
                "served", "batches", "dispatch_rounds", "computed",
                "deduplicated", "cache_hits", "cache_misses", "worker_rebuilds",
            ):
                assert key in snapshot
            assert snapshot["served"] == 2
            assert snapshot["worker_rebuilds"] == 0

    def test_context_manager_closes_executor(self, served_graph, queries):
        with QueryService(served_graph) as service:
            service.evaluate(queries[0])
            coordinator = service.coordinator
        assert coordinator._executor is None  # released by close()


class TestServedGraphEvaluation:
    @pytest.mark.parametrize("executor", ["serial", "thread", "simulated"])
    def test_in_process_service_never_partitions_nor_starts_an_executor(
        self, queries, executor
    ):
        graph = benchmark_graph("pokec", scale=0.3, seed=1)
        coordinator = PQMatch(num_workers=4, d=2, executor=executor)
        with QueryService(graph, coordinator) as service:
            service.evaluate(queries[0])
            service.submit(queries[1]).result(timeout=60)
            subscription = service.subscribe(queries[2])
            source, target = next(
                (s, t) for s in graph.nodes() for t in graph.nodes()
                if s != t and not graph.has_edge(s, t, "follow")
            )
            service.apply_delta(GraphDelta.build(edge_inserts=[(source, target, "follow")]))
            assert subscription.answer == QMatch().evaluate_answer(queries[2], graph)
            assert service.evaluate(queries[0]).answer == QMatch().evaluate_answer(
                queries[0], graph
            )
            assert coordinator._partition is None
            assert coordinator.current_executor is None
            assert service.stats.dispatch_rounds >= 3
            assert service.introspect()["pool"]["backend"] is None

    def test_pattern_wider_than_d_answers_like_enum_without_repartition(self):
        graph = PropertyGraph("chain")
        for index in range(8):
            graph.add_node(f"p{index}", "person")
        for index in range(7):
            graph.add_edge(f"p{index}", f"p{index + 1}", "follow")
        graph.add_edge("p0", "p5", "follow")
        pattern = QuantifiedGraphPattern(name="path-3")
        for node in ("x", "y", "z", "w"):
            pattern.add_node(node, "person")
        pattern.set_focus("x")
        pattern.add_edge("x", "y", "follow")
        pattern.add_edge("y", "z", "follow")
        pattern.add_edge("z", "w", "follow")
        assert pattern.radius() == 3
        coordinator = PQMatch(num_workers=2, d=2)
        with QueryService(graph, coordinator) as service:
            served = service.evaluate(pattern)
            assert served.answer == EnumMatcher().evaluate_answer(pattern, graph)
            assert served.answer
            assert coordinator._partition is None

    def test_miss_counter_equals_direct_qmatch(self, served_graph, queries):
        with QueryService(served_graph) as service:
            for pattern, served in zip(queries, service.evaluate_many(queries)):
                assert not served.cached
                assert served.counter == QMatch().evaluate(pattern, served_graph).counter


class TestProcessBackend:
    def test_process_serving_never_rebuilds_in_workers(self, queries):
        graph = benchmark_graph("pokec", scale=0.3, seed=1)
        serial_service = QueryService(graph, PQMatch(num_workers=2, d=2))
        expected = [
            set(result.answer) for result in serial_service.evaluate_many(queries[:2])
        ]
        serial_service.close()
        with QueryService(
            graph, PQMatch(num_workers=2, d=2, executor="process")
        ) as service:
            first = service.evaluate_many(queries[:2])
            again = service.evaluate_many(queries[:2])
            assert [set(result.answer) for result in first] == expected
            assert all(result.cached for result in again)
            assert service.worker_rebuilds == 0
