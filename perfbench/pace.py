"""The machine's speed, sampled between the benchmark's timed steps.

The machine a benchmark shares with other tenants can change speed by half
within a second and stay there for minutes.  Wall times taken minutes apart
then differ by as much as any regression worth catching.  So the benchmark
scales every timed step to a reference speed:

* a child process runs a fixed pure-Python loop (breadth-first search over a
  fixed random graph of dicts and sets, about a millisecond) on request, and
  reports the fastest of three runs;
* the run asks for a sample before a sequence of steps and after each step,
  while the program under test is idle;
* a step's reference time is its wall time times
  ``REFERENCE_S / (mean of the samples before and after it)``.

A program that gets slower reads slower in reference time too: the loop is
the benchmark's own code and runs in its own process, so the program can
neither speed it up nor slow it down, not even by holding the interpreter
lock in a thread of its own.

    python3 perfbench/pace.py    # the child: one sample per byte on stdin
"""

from __future__ import annotations

import random
import subprocess
import sys
from pathlib import Path
from time import perf_counter

#: Loop time, in seconds, at the reference speed.
REFERENCE_S = 1e-3
#: Runs of the loop per sample; the fastest counts.
RUNS = 3


def _graph(nodes: int = 3000, degree: int = 8) -> dict:
    rng = random.Random(7)
    return {node: set(rng.sample(range(nodes), degree)) for node in range(nodes)}


def loop(graph: dict) -> int:
    """Three-hop breadth-first searches from ten fixed sources."""
    reached = 0
    for source in range(0, len(graph), len(graph) // 10):
        seen = {source}
        frontier = [source]
        for _ in range(3):
            following = []
            for node in frontier:
                for neighbour in graph[node]:
                    if neighbour not in seen:
                        seen.add(neighbour)
                        following.append(neighbour)
            frontier = following
        reached += len(seen)
    return reached


def serve() -> None:
    """Answer each byte read from stdin with one sample, until stdin closes."""
    graph = _graph()
    while sys.stdin.buffer.read(1):
        best = float("inf")
        for _ in range(RUNS):
            started = perf_counter()
            loop(graph)
            best = min(best, perf_counter() - started)
        sys.stdout.write(f"{best!r}\n")
        sys.stdout.flush()


class Pacer:
    """Samples the machine's speed from a child process.

    Call :meth:`begin` before a sequence of timed steps and :meth:`scale`
    after each of them.
    """

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve())],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        self._before = self.sample()

    def sample(self) -> float:
        """Seconds the loop takes now."""
        self._child.stdin.write(b".")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("the speed sampler exited")
        return float(line)

    def begin(self) -> None:
        """Sample the speed before the first step of a sequence."""
        self._before = self.sample()

    def scale(self) -> float:
        """Factor from wall time to reference time for the step that just ended."""
        after = self.sample()
        factor = REFERENCE_S * 2.0 / (self._before + after)
        self._before = after
        return factor

    def close(self) -> None:
        """Stop the child and wait until it has ended."""
        self._child.stdin.close()
        if self._child.poll() is None:
            try:
                self._child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._child.kill()
                self._child.wait()
        self._child.stdout.close()

    def __enter__(self) -> "Pacer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
