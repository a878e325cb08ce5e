"""Tests of the benchmark's own code: reporting rules, span accounting, the
answer oracle and refusal counting.  They drive tiny graphs, not the
benchmark's workloads.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
import stats  # noqa: E402
from tracing import Span, SpanRecorder, installed, self_time  # noqa: E402
from pace import REFERENCE_S, Pacer  # noqa: E402
from workloads import ChurnYago2, ColdUnique, Ledger, WORKLOADS, check  # noqa: E402

from repro.matching import QMatch  # noqa: E402
from repro.utils.errors import Overloaded  # noqa: E402


# ------------------------------------------------------------------ stats


def test_percentile_needs_ten_samples_beyond_it():
    assert stats.samples_needed(0.5) == 20
    assert stats.samples_needed(0.9) == 100
    assert stats.percentile(list(range(100)), 0.9) == 89
    assert stats.percentile(list(range(99)), 0.9) is None
    assert stats.percentile(list(range(20)), 0.5) == 9
    assert stats.percentile(list(range(19)), 0.5) is None
    assert stats.percentile([], 0.5) is None


def test_error_rate_and_spread():
    assert stats.error_rate(8, 2) == 0.25
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    assert stats.spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert stats.spread([9.0, 10.0, 10.0, 11.0]) > 0.0


# ---------------------------------------------------------------- tracing


def test_self_time_subtracts_covered_part_once():
    assert self_time(0.0, 10.0, []) == 10.0
    assert self_time(0.0, 10.0, [(2.0, 5.0)]) == 7.0
    # overlapping children are not subtracted twice
    assert self_time(0.0, 10.0, [(2.0, 5.0), (4.0, 7.0)]) == 5.0
    # a child inside another child adds nothing
    assert self_time(0.0, 10.0, [(1.0, 8.0), (2.0, 3.0)]) == 3.0
    # only the part inside the parent counts
    assert self_time(0.0, 10.0, [(8.0, 12.0), (-1.0, 1.0)]) == 7.0


def test_recorder_self_times_with_nested_and_overlapping_children():
    recorder = SpanRecorder()
    layout = [  # id, parent, start, end
        (0, None, 0.0, 10.0),
        (1, 0, 1.0, 4.0),
        (2, 1, 2.0, 3.0),  # grandchild: already covered by its parent
        (3, 0, 3.0, 6.0),  # overlaps span 1, as a span from another thread would
    ]
    for span_id, parent, start, end in layout:
        recorder.spans.append(Span(span_id, f"s{span_id}", start, end, parent, None, "window"))
    assert recorder.self_times() == {0: 5.0, 1: 2.0, 2: 1.0, 3: 3.0}


def test_recorder_parents_spans_and_hooks_are_restored():
    original = QMatch.__dict__["evaluate"]
    recorder = SpanRecorder()
    with installed(recorder):
        assert QMatch.__dict__["evaluate"] is not original
        with recorder.span("outer"):
            with recorder.span("inner"):
                pass
        with recorder.span("next"):
            pass
    assert QMatch.__dict__["evaluate"] is original
    outer, inner, following = recorder.spans
    assert inner.parent == outer.span_id and outer.parent is None
    assert inner.request == outer.request != following.request
    assert outer.start <= inner.start <= inner.end <= outer.end


# ----------------------------------------------------------------- oracle


class TinyCold(ColdUnique):
    pool_size = 24
    probe_size = 10

    def __init__(self, seed, door_factory):
        self.door_factory = door_factory
        super().__init__(seed, scale=0.3)

    def open(self, graph):
        return self.door_factory(super().open(graph))


class FakeDoor:
    """A front door that forwards to a real service but may misbehave."""

    def __init__(self, service, wrong_call=None, refuse=()):
        self.service = service
        self.wrong_call = wrong_call
        self.refuse = refuse
        self.calls = 0

    def evaluate(self, pattern):
        if any(pattern is refused for refused in self.refuse):
            raise Overloaded("refused by the fake front door")
        result = self.service.evaluate(pattern)
        self.calls += 1
        if self.calls == self.wrong_call:
            return replace(result, answer=result.answer | {"no-such-node"})
        return result

    def __getattr__(self, name):
        return getattr(self.service, name)


@pytest.fixture
def few_samples(monkeypatch):
    """Report percentiles from ten samples so tiny runs stay fast."""
    monkeypatch.setattr(stats, "MIN_BEYOND", 1)


def _result_line(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_faithful_door_passes(few_samples, capsys):
    workload = TinyCold(3, FakeDoor)
    assert bench.execute(workload, 0.01, traced=False) == 0
    result = _result_line(capsys)
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == set(bench.END_TO_END)


def test_one_wrong_answer_fails_the_run(few_samples, capsys):
    workload = TinyCold(3, lambda service: FakeDoor(service, wrong_call=len(workload.warmup_patterns) + 2))
    assert bench.execute(workload, 0.01, traced=False) == 1
    assert _result_line(capsys)["correct"] is False


def test_refusals_count_into_error_rate(few_samples, capsys):
    holder = {}
    workload = TinyCold(3, lambda service: FakeDoor(service, refuse=holder["refuse"]))
    holder["refuse"] = (workload.pool[1], workload.pool[4])
    assert bench.execute(workload, 0.01, traced=False) == 0
    output = capsys.readouterr().out
    result = json.loads(output.strip().splitlines()[-1])
    assert result["failed"] == 2 and result["correct"] is True
    assert f"error_rate = {2 / result['attempted']:.4f}" in output


def _refused(failure):
    def call():
        raise failure
    return call


def test_untyped_exception_is_not_a_refusal():
    ledger = Ledger(4)
    ledger.call(0, _refused(Overloaded("x")))
    ledger.call(1, lambda: None, delta="a delta")
    assert bench.refusals(ledger) == 1
    with pytest.raises(KeyError):
        ledger.call(2, _refused(KeyError("x")))


def test_ledger_reserves_its_records_and_keeps_each_answer_once():
    ledger = Ledger(2)
    shared = frozenset({"a", "b"})
    hit = type("Result", (), {"answer": shared})()
    for item in range(5):  # grows past its capacity
        ledger.call(item % 2, lambda: hit)
    ledger.call(-1, lambda: None, delta="a delta")
    assert len(ledger) == 6 and len(ledger.items) >= 6
    assert ledger.answers == [shared]
    assert ledger.query_answers() == [shared] * 5
    assert ledger.is_update(5) and ledger.answer(5) is None
    assert list(ledger.items[:6]) == [0, 1, 0, 1, 0, -1]


def test_memory_is_read_after_a_fixed_count_of_operations():
    slices = [bench.Slice(0, 40, 1.0, 1.0, 50.0), bench.Slice(40, 120, 1.0, 1.0, 60.0),
              bench.Slice(120, 400, 1.0, 1.0, 70.0)]
    assert bench.memory_mb(ColdUnique, slices) == 60.0  # memory_ops = 100


def test_pacer_scales_by_the_speed_around_each_step():
    with Pacer() as pacer:
        assert 0 < pacer.sample() < 1.0
        samples = iter([2 * REFERENCE_S, 4 * REFERENCE_S])
        pacer.sample = lambda: next(samples)
        pacer.begin()
        assert pacer.scale() == pytest.approx(1 / 3)
    assert pacer._child.poll() is not None


def test_oracle_replays_only_the_deltas_the_service_accepted():
    workload = ChurnYago2(5, scale=0.3)
    door = workload.open(workload.graph.copy())
    ledger = Ledger(8)
    skipped = None
    for item, delta in workload.stream[:60]:
        if delta is None:
            ledger.call(item, lambda: door.evaluate(workload.pool[item]))
        elif skipped is None:
            skipped = Overloaded("pretend the service refused it")
            ledger.call(item, _refused(skipped), delta)
        else:  # it may depend on the skipped delta, and be refused
            ledger.call(item, lambda: door.apply_delta(delta), delta)
    door.close()
    assert skipped is not None
    assert sum(1 for position in ledger.served() if ledger.is_update(position)) > 0
    assert check(workload, ledger) == []
    last_query = max(position for position in ledger.served() if not ledger.is_update(position))
    ledger.close(last_query, 0.0, answer=ledger.answer(last_query) | {"no-such-node"})
    assert len(check(workload, ledger)) == 1


# ------------------------------------------------------------ traced run


def test_traced_run_repeats_its_counts(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench, "OUT", tmp_path)
    monkeypatch.setitem(bench.TRACE_OPS, "churn-yago2", 30)
    monkeypatch.setattr(bench, "TRACE_PROBE", 0)
    workload = ChurnYago2(2, scale=0.3)
    assert bench.execute(workload, 0.01, traced=True) == 0
    result = _result_line(capsys)
    assert set(result["metrics"]) == set(bench.PER_LAYER)
    assert result["metrics"]["matching.work"]["value"] > 0
    spans = json.loads((tmp_path / "spans-churn-yago2-seed2.json").read_text())
    assert {"id", "name", "start", "end", "parent", "request"} <= set(spans[0])
    # a second traced run of the same program at the same seed must count
    # the same work as the first
    [recorded] = tmp_path.glob("counts-churn-yago2-seed2-*.json")
    assert bench.execute(workload, 0.01, traced=True) == 0
    counts = json.loads(recorded.read_text())
    counts["matching.work"] += 1
    recorded.write_text(json.dumps(counts))
    assert bench.execute(workload, 0.01, traced=True) == 1
    assert "matching.work differs from an earlier traced run" in capsys.readouterr().out


# ------------------------------------------------------ BENCHMARK.json


def test_benchmark_json_matches_what_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
    assert all(bound < bounds["setup_s"] for name, bound in bounds.items() if name != "setup_s")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]] + list(WORKLOADS)
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name) for name in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
