"""Fault injection: every way the shared store lies or a pool worker dies,
serving survives.

The asymmetric contract under test (see ``repro/serve/shared_cache.py``): a
hit is served only after every integrity gate passes; ANY read failure —
flipped bytes, truncation, a peer's lock, unpicklable payloads, schema skew —
degrades to a recompute.  Degraded is observable (``serve.cache.degraded``
moves, ``last_degraded_reason`` names the gate) and never wrong: each test
pins the served answer against a fresh single-service oracle.

The process pool gets the same treatment: a pool whose workers were killed is
replaced once per round, and a pool that breaks again fails only that round,
with a typed :class:`~repro.utils.errors.ServiceError`.
"""

from __future__ import annotations

import os
import pickle
import signal
import sqlite3
import zlib

import pytest

from fixtures import build_paper_g1, build_q2, build_q3
from repro.delta import GraphDelta
from repro.matching import EnumMatcher
from repro.obs.metrics import active_metrics
from repro.parallel import PQMatch
from repro.serve import ShardedService, SharedResultCache
from repro.service import QueryService
from repro.utils.errors import ServiceError


def _oracle_answer(graph, pattern):
    with QueryService(graph.copy()) as oracle:
        return oracle.evaluate(pattern).answer


@pytest.fixture
def warmed(tmp_path):
    """A shared store warmed by a producer fleet, plus the expected answers."""
    path = str(tmp_path / "shared.sqlite")
    expected = {
        "q2": _oracle_answer(build_paper_g1(), build_q2()),
        "q3": _oracle_answer(build_paper_g1(), build_q3(2)),
    }
    with ShardedService(build_paper_g1(), num_shards=2, shared_cache=path) as producer:
        producer.evaluate(build_q2())
        producer.evaluate(build_q3(2))
    return path, expected


def _consumer(path):
    return ShardedService(build_paper_g1(), num_shards=2, shared_cache=path)


def _rows(path):
    connection = sqlite3.connect(path)
    rows = connection.execute("SELECT cache_key, crc, payload FROM entries").fetchall()
    connection.close()
    return rows


# ---------------------------------------------------------------------------
# Corrupt payloads
# ---------------------------------------------------------------------------


def test_flipped_payload_byte_degrades_to_recompute(warmed):
    path, expected = warmed
    connection = sqlite3.connect(path)
    with connection:
        for key, _crc, payload in _rows(path):
            mangled = bytes([payload[0] ^ 0xFF]) + payload[1:]
            connection.execute(
                "UPDATE entries SET payload = ? WHERE cache_key = ?", (mangled, key)
            )
    connection.close()
    with active_metrics() as registry, _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]
        assert fleet.evaluate(build_q3(2)).answer == expected["q3"]
        assert fleet.shared.stats.degraded >= 2
        assert fleet.shared.last_degraded_reason == "payload CRC mismatch"
        assert registry.counter("serve.cache.degraded").value >= 2
        # Recompute repaired the rows: a second consumer gets clean hits.
    with _consumer(path) as healed:
        assert healed.evaluate(build_q2()).answer == expected["q2"]
        assert healed.shared.stats.degraded == 0 and healed.stats.shared_hits == 1


def test_crc_consistent_garbage_fails_the_unpickle_gate(warmed):
    """Corruption that rewrites the CRC too must still die — at pickle."""
    path, expected = warmed
    garbage = b"\x80\x04not really a pickle stream"
    connection = sqlite3.connect(path)
    with connection:
        connection.execute(
            "UPDATE entries SET payload = ?, crc = ?", (garbage, zlib.crc32(garbage))
        )
    connection.close()
    with _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]
        assert fleet.shared.stats.degraded >= 1
        assert fleet.shared.last_degraded_reason.startswith("read:")


def test_transplanted_blob_fails_the_embedded_key_gate(warmed):
    """CRC-valid, unpickles fine, wrong row: the last gate catches it."""
    path, expected = warmed
    rows = _rows(path)
    assert len(rows) == 2
    connection = sqlite3.connect(path)
    with connection:
        # File q3's (differing) payload under q2's key, CRC intact.
        (key_a, _crc_a, _payload_a), (_key_b, crc_b, payload_b) = rows
        connection.execute(
            "UPDATE entries SET crc = ?, payload = ? WHERE cache_key = ?",
            (crc_b, payload_b, key_a),
        )
    connection.close()
    with _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]
        assert fleet.evaluate(build_q3(2)).answer == expected["q3"]
        assert fleet.shared.stats.degraded == 1
        assert fleet.shared.last_degraded_reason == "embedded key mismatch"


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------


def test_truncated_database_file_degrades_not_crashes(warmed):
    path, expected = warmed
    with open(path, "r+b") as handle:
        handle.truncate(600)  # slice through the first page's btree content
    with active_metrics() as registry, _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]
        assert fleet.evaluate(build_q3(2)).answer == expected["q3"]
        assert registry.counter("serve.cache.degraded").value >= 1


def test_zero_length_database_file_is_reinitialised(warmed):
    path, expected = warmed
    with open(path, "wb"):
        pass  # sqlite treats an empty file as a fresh database
    with _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]
        assert fleet.shared.stats.stores >= 1  # schema rebuilt, row restored


# ---------------------------------------------------------------------------
# Locks: a peer holding the database mid-read and mid-write
# ---------------------------------------------------------------------------


def test_peer_exclusive_lock_degrades_reads_and_writes(warmed):
    path, expected = warmed
    blocker = sqlite3.connect(path)
    blocker.execute("BEGIN EXCLUSIVE")
    try:
        with active_metrics() as registry, _consumer(path) as fleet:
            # Mid-read: the warm entry exists but the lock makes it a miss...
            assert fleet.evaluate(build_q2()).answer == expected["q2"]
            # ...and mid-write: storing the recompute degrades too.
            degraded = fleet.shared.stats.degraded
            assert degraded >= 2
            assert registry.counter("serve.cache.degraded").value == degraded
            assert fleet.stats.shared_hits == 0
    finally:
        blocker.rollback()
        blocker.close()
    # Lock released: the original producer's row is intact and served.
    with _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]
        assert fleet.stats.shared_hits == 1


def test_lock_appearing_mid_run_only_degrades_that_window(warmed):
    path, expected = warmed
    with _consumer(path) as fleet:
        assert fleet.evaluate(build_q2()).answer == expected["q2"]  # clean hit
        blocker = sqlite3.connect(path)
        blocker.execute("BEGIN EXCLUSIVE")
        try:
            assert fleet.evaluate(build_q3(2)).answer == expected["q3"]
            assert fleet.shared.stats.degraded >= 1
        finally:
            blocker.rollback()
            blocker.close()
        assert fleet.stats.shared_hits == 1  # the pre-lock hit still counted


# ---------------------------------------------------------------------------
# Staleness: the version check keeps poisoned-by-time entries unreachable
# ---------------------------------------------------------------------------


def test_stale_vector_entries_are_unreachable_after_delta(warmed):
    path, expected = warmed
    with _consumer(path) as fleet:
        fleet.apply_delta(
            GraphDelta.build(edge_inserts=[("x1", "v1", "follow")])
        )
        served = fleet.evaluate(build_q2())
        # The store holds only pre-delta entries; the moved vector keys them
        # out, so this was a plain miss + recompute — and it is correct.
        assert not served.cached
        assert fleet.stats.shared_hits == 0
        assert served.answer == _oracle_answer(fleet.graph, build_q2())
        assert fleet.shared.stats.degraded == 0  # staleness is not a fault


# ---------------------------------------------------------------------------
# Pool workers die: the next round recovers on a fresh pool
# ---------------------------------------------------------------------------

_TEST_PROCESS = os.getpid()


class _WorkerKiller:
    """An engine that SIGKILLs the pool worker evaluating it."""

    name = "worker-killer"

    def evaluate(self, pattern, graph, focus_restriction=None):
        if os.getpid() == _TEST_PROCESS:
            raise AssertionError("the killer engine must only run in pool workers")
        os.kill(os.getpid(), signal.SIGKILL)


def _kill_workers(executor):
    processes = list(executor._pool._processes.values())
    assert processes
    for process in processes:
        os.kill(process.pid, signal.SIGKILL)
    for process in processes:
        process.join(timeout=30)
        assert not process.is_alive()
    return {process.pid for process in processes}


def test_killed_pool_workers_recover_on_the_next_miss():
    graph = build_paper_g1()
    coordinator = PQMatch(num_workers=2, d=2, executor="process")
    with QueryService(graph, coordinator) as service:
        first = service.evaluate(build_q2())
        assert first.answer == EnumMatcher().evaluate(build_q2(), graph).answer
        killed = _kill_workers(coordinator.executor)

        served = service.evaluate(build_q3(2))
        assert not served.cached
        assert served.answer == EnumMatcher().evaluate(build_q3(2), graph).answer
        assert killed.isdisjoint(coordinator.executor._pool._processes)

        # Later misses keep working on the replacement pool.
        service.cache.clear()
        for pattern in (build_q2(), build_q3(1)):
            result = service.evaluate(pattern)
            assert not result.cached
            assert result.answer == EnumMatcher().evaluate(pattern, graph).answer
        assert service.worker_rebuilds == 0


def test_pool_that_breaks_twice_fails_only_that_round():
    coordinator = PQMatch(num_workers=2, d=2, executor="process", engine=_WorkerKiller())
    with QueryService(build_paper_g1(), coordinator) as service:
        with pytest.raises(ServiceError, match="broke twice"):
            service.evaluate(build_q2())
        assert coordinator.executor.pool_epoch is None  # the broken pool is gone
        # The failure stays with its request: a submission fails its own
        # future and the dispatcher lives on to serve the next one.
        with pytest.raises(ServiceError):
            service.submit(build_q2()).result(timeout=120)
        with pytest.raises(ServiceError):
            service.submit(build_q3(2)).result(timeout=120)
        assert service.worker_rebuilds == 0
