"""What each drawn input costs: the seed should only pick among equals.

    python3 perfbench/drawcost.py [--rounds 8]

Runs every variant of every request that has a drawn field (a rational
``r`` or a driving sequence) ``--rounds`` times, round-robin in this one
process, and prints each variant's median time on the work clock and
the gap between the variants of a request as a share of the workload's
pass.  Run from the root of a checkout.
"""

from __future__ import annotations

import argparse
import statistics
import sys

import workloads
from hostspeed import WorkClock
from worker import import_sepkit, run_request

SEEDS = range(1, 41)  # enough seeds to draw every variant


def variants() -> dict:
    """(workload, request id) -> {drawn value: request}."""
    found = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for request in workloads.build(workload, seed):
                drawn = request.get("sequence") or request.get("r")
                if drawn is not None:
                    found.setdefault((workload, request["id"]), {})[drawn] = request
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=8)
    args = parser.parse_args(argv)
    sepkit = import_sepkit()
    found = variants()
    times = {key: {drawn: [] for drawn in values} for key, values in found.items()}
    whole = {workload: [] for workload in workloads.WORKLOADS}
    clock = WorkClock()
    clock.start()
    for _ in range(args.rounds):
        for key, values in found.items():
            for drawn, request in values.items():
                times[key][drawn].append(run_request(sepkit, request, clock)[3])
        for workload in workloads.WORKLOADS:
            whole[workload].append(sum(run_request(sepkit, request, clock)[3]
                                       for request in workloads.build(workload, 1)))
    clock.stop()
    for (workload, rid), by_draw in times.items():
        medians = {drawn: statistics.median(values) for drawn, values in by_draw.items()}
        gap = (max(medians.values()) - min(medians.values())) / statistics.median(whole[workload])
        cells = "  ".join(f"{drawn} {median:.4f} s" for drawn, median in medians.items())
        print(f"{workload:<10} {rid:<18} {cells}  gap {gap:.2%} of a pass")
    return 0


if __name__ == "__main__":
    sys.exit(main())
