"""Importable builders for the paper's example graphs and patterns.

This module exists so that both the test suite and the benchmarks can import
the shared builders **explicitly** (``from fixtures import build_q3``).  The
builders used to live in ``tests/conftest.py``, but pytest imports every
``conftest.py`` under the top-level module name ``conftest`` — with both
``tests/conftest.py`` and ``benchmarks/conftest.py`` present, whichever is
imported first shadows the other, and ``from conftest import build_q3``
resolved to the *benchmarks* conftest.  A plainly named helper module has no
such collision.

Everything here is a plain function (no pytest dependency); the fixtures in
``tests/conftest.py`` are thin wrappers around these builders.
"""

from __future__ import annotations

import random
import threading
from typing import Callable, List, Optional, Sequence

from repro.graph import PropertyGraph
from repro.patterns import CountingQuantifier, PatternBuilder, QuantifiedGraphPattern
from repro.utils import WorkCounter

__all__ = [
    "build_paper_g1",
    "build_paper_g2",
    "build_q2",
    "build_q3",
    "build_q4",
    "build_triangle",
    "quantifier",
    "social_graph",
    "quantified_patterns",
    "counter_fields",
    "FakeClock",
    "ThreadHarness",
    "run_threads",
]


# --------------------------------------------------------------------------
# Paper Figure 2, graph G1: a small social graph around the "Redmi 2A" phone.
# --------------------------------------------------------------------------


def build_paper_g1() -> PropertyGraph:
    """G1 of Fig. 2: x1–x3 follow reviewers v0–v4 of the Redmi 2A phone.

    * x1 follows v0; v0 recommends the phone.
    * x2 follows v1 and v2; both recommend the phone.
    * x3 follows v2, v3 and v4; v2 and v3 recommend it, v4 gives a bad rating.
    """
    graph = PropertyGraph("paper-G1")
    for person in ("x1", "x2", "x3", "v0", "v1", "v2", "v3", "v4"):
        graph.add_node(person, "person")
    graph.add_node("redmi", "Redmi_2A")
    graph.add_edge("x1", "v0", "follow")
    graph.add_edge("x2", "v1", "follow")
    graph.add_edge("x2", "v2", "follow")
    graph.add_edge("x3", "v2", "follow")
    graph.add_edge("x3", "v3", "follow")
    graph.add_edge("x3", "v4", "follow")
    for reviewer in ("v0", "v1", "v2", "v3"):
        graph.add_edge(reviewer, "redmi", "recom")
    graph.add_edge("v4", "redmi", "bad_rating")
    return graph


def build_q2():
    """Q2 of the paper: everyone xo follows recommends the Redmi 2A."""
    return (
        PatternBuilder("Q2")
        .focus("xo", "person")
        .node("z", "person")
        .node("redmi", "Redmi_2A")
        .edge("xo", "z", "follow", universal=True)
        .edge("z", "redmi", "recom")
        .build()
    )


def build_q3(p: int = 2):
    """Q3 of the paper: ≥ p followees recommend the phone, none gives a bad rating."""
    return (
        PatternBuilder("Q3")
        .focus("xo", "person")
        .node("z1", "person")
        .node("z2", "person")
        .node("redmi", "Redmi_2A")
        .edge("xo", "z1", "follow", at_least=p)
        .edge("z1", "redmi", "recom")
        .edge("xo", "z2", "follow", negated=True)
        .edge("z2", "redmi", "bad_rating")
        .build()
    )


# --------------------------------------------------------------------------
# Paper Figure 2, graph G2: a small knowledge graph of professors/advisees.
# --------------------------------------------------------------------------


def build_paper_g2() -> PropertyGraph:
    """G2 of Fig. 2: UK professors x4–x6 and the students v5–v9 they advised.

    x4, x5 and x6 are UK professors who each advised two students that are UK
    professors themselves; only x4 additionally holds a PhD, so with p = 2 the
    pattern Q4 answers {x5, x6} (Example 4 of the paper).
    """
    graph = PropertyGraph("paper-G2")
    for person in ("x4", "x5", "x6", "v5", "v6", "v7", "v8", "v9"):
        graph.add_node(person, "person")
    graph.add_node("prof", "prof")
    graph.add_node("phd", "PhD")
    graph.add_node("uk", "UK")
    for professor in ("x4", "x5", "x6", "v5", "v6", "v7", "v8", "v9"):
        graph.add_edge(professor, "prof", "is_a")
        graph.add_edge(professor, "uk", "in")
    graph.add_edge("x4", "phd", "is_a")
    graph.add_edge("v5", "phd", "is_a")
    advisor_pairs = [
        ("x4", "v5"),
        ("x4", "v6"),
        ("x5", "v6"),
        ("x5", "v7"),
        ("x6", "v8"),
        ("x6", "v9"),
    ]
    for advisor, student in advisor_pairs:
        graph.add_edge(advisor, student, "advisor")
    return graph


def build_q4(p: int = 2):
    """Q4 of the paper over the conftest vocabulary ('advisor' edges)."""
    return (
        PatternBuilder("Q4")
        .focus("xo", "person")
        .node("prof", "prof")
        .node("uk", "UK")
        .node("phd", "PhD")
        .node("z", "person")
        .edge("xo", "prof", "is_a")
        .edge("xo", "uk", "in")
        .edge("xo", "phd", "is_a", negated=True)
        .edge("xo", "z", "advisor", at_least=p)
        .edge("z", "prof", "is_a")
        .edge("z", "uk", "in")
        .build()
    )


# --------------------------------------------------------------------------
# Miscellaneous helpers
# --------------------------------------------------------------------------


def build_triangle() -> PropertyGraph:
    """A 3-cycle with one label; handy for exercising the generic engine."""
    graph = PropertyGraph("triangle")
    for node in ("a", "b", "c"):
        graph.add_node(node, "N")
    graph.add_edge("a", "b", "e")
    graph.add_edge("b", "c", "e")
    graph.add_edge("c", "a", "e")
    return graph


def quantifier(op: str, value, is_ratio: bool = False) -> CountingQuantifier:
    """Terse quantifier constructor used by a few parametrized tests."""
    return CountingQuantifier(op, value, is_ratio)


# --------------------------------------------------------------------------
# A random social graph and quantified patterns over it (equivalence suites)
# --------------------------------------------------------------------------


def social_graph(seed: int, nodes: int = 60, edges: int = 900) -> PropertyGraph:
    """A dense random person/product graph with follow/like/recom edges."""
    rng = random.Random(seed)
    graph = PropertyGraph()
    for index in range(nodes):
        graph.add_node(f"n{index}", label="person" if index % 3 else "product")
    for _ in range(edges):
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            try:
                graph.add_edge(
                    f"n{a}",
                    f"n{b}",
                    label=rng.choice(["follow", "like", "recom"]),
                )
            except Exception:
                pass
    return graph


def quantified_patterns():
    """Three positive QGPs over :func:`social_graph`: a chain with a numeric
    quantifier, an exact count and a ratio quantifier."""
    quantifier = CountingQuantifier
    chain = QuantifiedGraphPattern(name="chain")
    chain.add_node("x", "person")
    chain.add_node("y", "person")
    chain.add_node("p", "product")
    chain.add_edge("x", "y", "follow", quantifier.at_least(2))
    chain.add_edge("y", "p", "like", quantifier.existential())
    chain.set_focus("x")

    exact = QuantifiedGraphPattern(name="exact")
    exact.add_node("x", "person")
    exact.add_node("z", "person")
    exact.add_edge("x", "z", "follow", quantifier.exactly(1))
    exact.set_focus("x")

    ratio = QuantifiedGraphPattern(name="ratio")
    ratio.add_node("x", "person")
    ratio.add_node("y", "person")
    ratio.add_node("p", "product")
    ratio.add_edge("x", "y", "follow", quantifier.at_least(1))
    ratio.add_edge("x", "p", "recom", quantifier.ratio_at_least(20.0))
    ratio.set_focus("x")
    return [chain, exact, ratio]


def counter_fields(counter: WorkCounter):
    """The enumeration work fields two equivalent paths must agree on."""
    return (counter.verifications, counter.extensions, counter.quantifier_checks)


# --------------------------------------------------------------------------
# Deterministic concurrency helpers (the serve-tier stress/fault suites)
# --------------------------------------------------------------------------


class FakeClock:
    """A manually advanced clock for deterministic time-dependent tests.

    ``clock()`` returns the current fake time; :meth:`advance` moves it.
    Thread-safe, monotone by construction — tests control exactly when time
    passes instead of sleeping and hoping.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("a clock cannot go backwards")
        with self._lock:
            self._now += seconds
            return self._now


class ThreadHarness:
    """Run worker callables in lockstep with a barrier, join with a deadline.

    The stress suites need two properties no bare ``threading.Thread`` gives:

    * a **start barrier** so every worker begins its hammering at the same
      instant (maximising interleavings instead of accidentally serialising);
    * a **deadline on join** — a worker deadlocking must fail the test with a
      named culprit, never hang the whole pytest process.

    Worker exceptions are captured and re-raised (first one wins) from
    :meth:`join`, so assertion failures inside threads fail the test.
    """

    def __init__(self, workers: Sequence[Callable[[], None]], name: str = "stress") -> None:
        self._barrier = threading.Barrier(len(workers))
        self._errors: List[BaseException] = []
        self._errors_lock = threading.Lock()
        self._threads = [
            threading.Thread(
                target=self._run, args=(worker,), name=f"{name}-{index}", daemon=True
            )
            for index, worker in enumerate(workers)
        ]

    def _run(self, worker: Callable[[], None]) -> None:
        try:
            self._barrier.wait(timeout=30.0)
            worker()
        except BaseException as error:  # noqa: BLE001 — reported via join()
            with self._errors_lock:
                self._errors.append(error)

    def start(self) -> "ThreadHarness":
        for thread in self._threads:
            thread.start()
        return self

    def join(self, timeout: float = 60.0) -> None:
        """Join every worker within *timeout* total; raise on stragglers.

        Raises ``AssertionError`` naming the stuck threads on deadline, and
        re-raises the first captured worker exception otherwise.
        """
        import time

        end = time.monotonic() + timeout
        stuck = []
        for thread in self._threads:
            remaining = end - time.monotonic()
            thread.join(timeout=max(0.0, remaining))
            if thread.is_alive():
                stuck.append(thread.name)
        if stuck:
            raise AssertionError(f"threads did not finish within {timeout}s: {stuck}")
        with self._errors_lock:
            if self._errors:
                raise self._errors[0]


def run_threads(
    workers: Sequence[Callable[[], None]],
    timeout: float = 60.0,
    name: str = "stress",
) -> None:
    """Barrier-start *workers*, join them under *timeout*, re-raise failures."""
    ThreadHarness(workers, name=name).start().join(timeout=timeout)
