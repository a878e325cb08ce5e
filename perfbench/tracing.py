"""Spans around the public entry points of each layer, and the per-layer
metrics derived from them.

The program under test is not instrumented for this: :func:`installed`
wraps the layer entry points from the outside while a traced front door is
served, and restores them afterwards.  Spans stay in memory and are written
out by the caller when the run ends.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import mean
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    """One timed call into a layer."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[int]
    phase: str
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict[str, object]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "phase": self.phase,
            "attrs": self.attrs,
        }


def self_time(start: float, end: float, children: Iterable[Tuple[float, float]]) -> float:
    """``end - start`` minus the part of that interval the children cover.

    Children may nest or overlap each other (spans recorded by other
    threads) and may stick out of the parent; only the covered part of
    ``[start, end]`` is subtracted, once.
    """
    covered = 0.0
    reach = start
    for child_start, child_end in sorted(children):
        child_start = max(child_start, reach)
        child_end = min(child_end, end)
        if child_end > child_start:
            covered += child_end - child_start
            reach = child_end
    return (end - start) - covered


class SpanRecorder:
    """Collects spans.

    A span's parent is the innermost open span on the same thread.  A span
    without a parent opens a new request id, which its descendants share:
    one front-door call, or one batch drained by a dispatcher thread.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.phase = "setup"
        self._ids = itertools.count()
        self._requests = itertools.count()
        self._local = threading.local()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = Span(
            span_id=next(self._ids),
            name=name,
            start=perf_counter(),
            end=0.0,
            parent=parent.span_id if parent is not None else None,
            request=parent.request if parent is not None else next(self._requests),
            phase=self.phase,
            attrs=dict(attrs),
        )
        self.spans.append(record)
        stack.append(record)
        try:
            yield record
        finally:
            record.end = perf_counter()
            stack.pop()

    def children(self) -> Dict[int, List[Span]]:
        by_parent: Dict[int, List[Span]] = {}
        for record in self.spans:
            if record.parent is not None:
                by_parent.setdefault(record.parent, []).append(record)
        return by_parent

    def self_times(self) -> Dict[int, float]:
        by_parent = self.children()
        return {
            record.span_id: self_time(
                record.start,
                record.end,
                ((child.start, child.end) for child in by_parent.get(record.span_id, ())),
            )
            for record in self.spans
        }


# ------------------------------------------------------------------ hooks


def _wrap_method(recorder: SpanRecorder, owner: type, attr: str, name: str, describe=None):
    original = owner.__dict__[attr]

    def wrapper(self, *args, **kwargs):
        with recorder.span(name) as record:
            result = original(self, *args, **kwargs)
            if describe is not None:
                record.attrs.update(describe(self, args, kwargs, result))
            return result

    return owner, attr, original, wrapper


def _plan_for(recorder: SpanRecorder, owner: type):
    original = owner.__dict__["plan_for"]

    def wrapper(self, *args, **kwargs):
        compiles, hits = self.stats.compiles, self.stats.hits
        with recorder.span("plan.plan_for") as record:
            result = original(self, *args, **kwargs)
            record.attrs["compiled"] = self.stats.compiles - compiles
            record.attrs["hit"] = self.stats.hits - hits
            return result

    return owner, "plan_for", original, wrapper


def _function(recorder: SpanRecorder, module, attr: str, name: str, where: str):
    original = module.__dict__[attr]

    def wrapper(*args, **kwargs):
        with recorder.span(name, where=where):
            return original(*args, **kwargs)

    return module, attr, original, wrapper


def _index_build(recorder: SpanRecorder, owner: type):
    original = owner.__dict__["build"]

    def build(cls, graph):
        with recorder.span("index.build", nodes=graph.num_nodes):
            return original.__func__(cls, graph)

    return owner, "build", original, classmethod(build)


def _hooks(recorder: SpanRecorder) -> list:
    import repro.serve.router as router_module
    import repro.service.server as server_module
    from repro.index.snapshot import GraphIndex
    from repro.matching.qmatch import QMatch
    from repro.parallel.coordinator import PQMatch
    from repro.plan.cache import PlanCache
    from repro.serve.admission import AdmissionQueue
    from repro.serve.router import ShardedService
    from repro.service.cache import ResultCache
    from repro.service.server import QueryService

    def work(_self, _args, _kwargs, result):
        counter = result.counter
        return {
            "work": counter.total_work(),
            "verifications": counter.verifications,
            "extensions": counter.extensions,
            "answers": len(result.answer),
        }

    def tasks(_self, args, kwargs, _result):
        batch = args[0] if args else kwargs["tasks"]
        return {"tasks": len(batch), "patterns": len({id(task.pattern) for task in batch})}

    def touched(_self, args, kwargs, _result):
        delta = args[0] if args else kwargs["delta"]
        return {"touched": len(delta.touched_nodes())}

    return [
        _index_build(recorder, GraphIndex),
        _wrap_method(recorder, GraphIndex, "refreshed", "index.refreshed"),
        _wrap_method(recorder, PQMatch, "ensure_radius", "parallel.ensure_radius"),
        _wrap_method(recorder, PQMatch, "run_fragment_tasks", "parallel.round", tasks),
        _wrap_method(recorder, QMatch, "evaluate", "matching.evaluate", work),
        _plan_for(recorder, PlanCache),
        _function(recorder, server_module, "canonicalize", "service.canonicalize", "service"),
        _function(recorder, router_module, "canonicalize", "service.canonicalize", "serve"),
        _wrap_method(
            recorder, ResultCache, "lookup", "service.lookup",
            lambda _s, _a, _k, result: {"hit": result is not None},
        ),
        _wrap_method(recorder, QueryService, "evaluate_many", "service.evaluate_many"),
        _wrap_method(recorder, QueryService, "apply_delta", "delta.apply", touched),
        _wrap_method(
            recorder, AdmissionQueue, "drain", "serve.drain",
            lambda _s, _a, _k, result: {"size": len(result)},
        ),
        _wrap_method(recorder, ShardedService, "evaluate_many", "serve.batch"),
        _wrap_method(recorder, ShardedService, "_serve_batch", "serve.batch"),
        _wrap_method(recorder, ShardedService, "apply_delta", "delta.apply", touched),
    ]


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Route the layer entry points through *recorder* inside the block."""
    hooks = _hooks(recorder)
    try:
        for owner, attr, _original, wrapper in hooks:
            setattr(owner, attr, wrapper)
        yield recorder
    finally:
        for owner, attr, original, _wrapper in reversed(hooks):
            setattr(owner, attr, original)


# ------------------------------------------------------- per-layer metrics


@dataclass
class DoorFacts:
    """What the run knows about one traced front door beyond its spans."""

    queries: int
    answer_sizes: Tuple[int, ...]
    replication: float
    cold_tax_ratio: float
    services: Sequence[object] = ()
    fleet: Optional[object] = None


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(recorder: SpanRecorder, facts: DoorFacts) -> Dict[str, float]:
    """Every per-layer metric of one traced front door (setup, window and probe)."""
    spans = recorder.spans
    own = recorder.self_times()
    by_name: Dict[str, List[Span]] = {}
    for record in spans:
        by_name.setdefault(record.name, []).append(record)

    def named(name: str) -> List[Span]:
        return by_name.get(name, [])

    def total(name: str, key: str) -> float:
        return sum(record.attrs.get(key, 0) for record in named(name))

    def self_s(*names: str) -> float:
        return sum(own[record.span_id] for name in names for record in named(name))

    builds = named("index.build")
    rounds = named("parallel.round")
    plans = named("plan.plan_for")
    lookups = named("service.lookup")
    drains = [record for record in named("serve.drain") if record.attrs["size"]]
    front_door = "serve" if facts.fleet is not None else "service"
    front_door_canonicalize = sum(
        1 for record in named("service.canonicalize") if record.attrs["where"] == front_door
    )

    # An index refresh that fell back to a full build counts as a rebuild, as
    # does a build under a delta that bypassed the refresh.
    by_id = {record.span_id: record for record in spans}

    def ancestors(record: Span) -> Iterator[Span]:
        while record.parent is not None:
            record = by_id[record.parent]
            yield record

    refreshes = named("index.refreshed")
    fell_back = {record.parent for record in builds if record.parent is not None}
    refreshed = sum(1 for record in refreshes if record.span_id not in fell_back)
    rebuilt = len(refreshes) - refreshed + sum(
        1
        for record in builds
        if any(parent.name == "delta.apply" for parent in ancestors(record))
        and not any(parent.name == "index.refreshed" for parent in ancestors(record))
    )
    deltas = [
        record
        for record in named("delta.apply")
        if not any(parent.name == "delta.apply" for parent in ancestors(record))
    ]

    carried = sum(service.stats.delta_cache_carried for service in facts.services)
    dropped = sum(service.stats.delta_cache_dropped for service in facts.services)
    fleet = facts.fleet
    if fleet is not None:
        admission = fleet.admission.stats
        admission_wait = _ratio(admission.wait_seconds_total, admission.drained)
        dedup_ratio = _ratio(
            fleet.stats.deduplicated, fleet.stats.deduplicated + fleet.stats.submitted
        )
        rejected, fanout_rounds = admission.rejected, fleet.stats.fanout_rounds
    else:
        admission_wait = dedup_ratio = 0.0
        rejected = fanout_rounds = 0

    return {
        "index.build_calls": len(builds),
        "index.window_build_calls": sum(1 for record in builds if record.phase == "window"),
        "index.build_s": sum(record.duration for record in builds),
        "index.refresh_calls": len(refreshes),
        "index.refresh_s": self_s("index.refreshed"),
        "parallel.partition_s": self_s("parallel.ensure_radius"),
        "parallel.replication": facts.replication,
        "parallel.tasks_per_query": _ratio(
            total("parallel.round", "tasks"), total("parallel.round", "patterns")
        ),
        "parallel.round_s": mean(record.duration for record in rounds) if rounds else 0.0,
        "matching.calls": len(named("matching.evaluate")),
        "matching.self_s": self_s("matching.evaluate"),
        "matching.work": total("matching.evaluate", "work"),
        "matching.verifications": total("matching.evaluate", "verifications"),
        "matching.extensions": total("matching.evaluate", "extensions"),
        "matching.answer_ratio": _ratio(
            total("matching.evaluate", "answers"), total("matching.evaluate", "verifications")
        ),
        "plan.lookups": len(plans),
        "plan.compiles": total("plan.plan_for", "compiled"),
        "plan.hit_ratio": _ratio(total("plan.plan_for", "hit"), len(plans)),
        "plan.self_s": self_s("plan.plan_for"),
        "service.canonicalize_calls": len(named("service.canonicalize")),
        "service.canonicalize_s": sum(record.duration for record in named("service.canonicalize")),
        "service.memo_hit_ratio": 1.0 - _ratio(front_door_canonicalize, facts.queries),
        "service.lookup_s": sum(record.duration for record in lookups),
        "service.hit_ratio": _ratio(sum(1 for record in lookups if record.attrs["hit"]), len(lookups)),
        "service.self_s": self_s("service.evaluate_many"),
        "service.cold_tax_ratio": facts.cold_tax_ratio,
        "serve.admission_wait_s": admission_wait,
        "serve.batch_size_mean": mean(record.attrs["size"] for record in drains) if drains else 0.0,
        "serve.dedup_ratio": dedup_ratio,
        "serve.rejected": rejected,
        "serve.fanout_rounds": fanout_rounds,
        "serve.self_s": self_s("serve.batch"),
        "delta.apply_self_s": self_s("delta.apply"),
        "delta.touched_nodes": sum(record.attrs["touched"] for record in deltas),
        "delta.refresh_ratio": _ratio(refreshed, refreshed + rebuilt),
        "delta.carry_ratio": _ratio(carried, carried + dropped),
    }


#: Counts that must repeat exactly between two traced front doors at one seed.
DETERMINISTIC = (
    "matching.work",
    "matching.verifications",
    "matching.extensions",
    "index.build_calls",
    "plan.compiles",
    "parallel.tasks_per_query",
    "delta.touched_nodes",
)


def deterministic_counts(metrics: Dict[str, float], facts: DoorFacts) -> Dict[str, object]:
    counts: Dict[str, object] = {name: metrics[name] for name in DETERMINISTIC}
    counts["answer_sizes"] = list(facts.answer_sizes)
    return counts
