"""Reproduce the two serve-tier baseline findings quoted in NOTES.md.

    python3 perfbench/findings.py --seed 1

On a warmed zipf-fleet front door it measures (1) the per-request cost of a
cache hit through ``ShardedService.submit`` against ``evaluate_many``, one
request at a time, and (2) the throughput of the zipf stream driven by two
client threads that each block on their own request, over consecutive
two-second windows, instead of the benchmark's window of outstanding
requests.
"""

from __future__ import annotations

import argparse
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from pace import Pacer  # noqa: E402
from run import set_up  # noqa: E402
from workloads import ZipfFleet  # noqa: E402

REQUESTS = 3000
WINDOWS = 6
WINDOW_SECONDS = 2.0


def per_request_cost(call, patterns) -> float:
    started = perf_counter()
    for pattern in patterns:
        call(pattern)
    return (perf_counter() - started) / len(patterns)


def blocking_clients_throughput(fleet, patterns, clients: int = 2) -> float:
    deadline = perf_counter() + WINDOW_SECONDS
    counts = [0] * clients

    def client(slot: int) -> None:
        position = slot
        while perf_counter() < deadline:
            fleet.submit(patterns[position % len(patterns)]).result()
            counts[slot] += 1
            position += clients

    threads = [threading.Thread(target=client, args=(slot,)) for slot in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        if thread.is_alive():
            raise RuntimeError("a client thread did not finish")
    return sum(counts) / WINDOW_SECONDS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    workload = ZipfFleet(args.seed)
    with Pacer() as pacer:
        fleet, _, _ = set_up(workload, pacer)
    try:
        patterns = [workload.pool[item] for item in workload.stream[:REQUESTS]]
        batch = per_request_cost(lambda pattern: fleet.evaluate_many([pattern]), patterns)
        submit = per_request_cost(lambda pattern: fleet.submit(pattern).result(), patterns)
        print(
            f"hit cost: evaluate_many {batch * 1e6:.1f} us, submit {submit * 1e6:.1f} us, "
            f"ratio {submit / batch:.2f}"
        )
        rates = [blocking_clients_throughput(fleet, patterns) for _ in range(WINDOWS)]
        print(
            "two blocking clients, req/s per 2 s window: "
            + ", ".join(f"{rate:.0f}" for rate in rates)
            + f" (max/min {max(rates) / min(rates):.2f})"
        )
    finally:
        fleet.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
