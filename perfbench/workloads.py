"""The four workloads: their requests, and what a seed draws.

A request is one ``sepkit`` CLI invocation (``argv``) or one public
library call (``call``).  The seed draws only the request order, the
rational parameter values of the library calls, and the driving
sequence of requests whose known answer holds for both aperiodic
sequences.  Every pair of candidates costs the same to within half a
percent of a pass; ``drawcost.py`` measures it.
"""

from __future__ import annotations

import random

RENDER_DIR = ".perfbench/render"
OUT_DIR = ".perfbench/out"
LEVELS_RATIONAL = 600
RATIONAL_DRAWS = {1: ("1/8", "41/56"), 2: ("1/32", "3/64")}
SEQUENCES = ("thue-morse", "fibonacci")

# id -> argv template; "{seq}" marks a drawn driving sequence
CLI = {
    "census": {
        "wsp-ex2-50": "wsp --example 2 --max-level 50",
        "wsp-ex1-10": "wsp --example 1 --max-level 10 --sequence {seq}",
        "types-ex1-80": "types --example 1 --levels 80",
        "types-ex2-30": "types --example 2 --levels 30 --sequence {seq}",
        "construct-ex1-40": "construct --example 1 --depth 40 --digits 10",
        "construct-ex1-500":
            "construct --example 1 --depth 60 --digits 500 --oracle-budget 5000 --json",
        "distinct-ex1-12": "verify distinctness --example 1 --levels 12 --sequence {seq}",
        "distinct-ex1-200": "verify distinctness --example 1 --levels 200",
        "render-ex1-6": f"render --example 1 --levels 6 --out {RENDER_DIR}",
        "dimension-ex1": "dimension --example 1",
    },
    "rational": {
        "types-periodic-10": "types --example 1 --sequence periodic:01 --levels 10",
        "wsp-periodic-10": "wsp --example 1 --sequence periodic:01 --max-level 10",
    },
    "enumerate": {
        "osc-ex1-7": "verify osc --example 1 --seed 3/7:4/7 --depth 7",
        "osc-ex2-4": "verify osc --example 2 --depth 4",
        "overlaps-ex2-2": "verify overlaps --example 2 --max-level 2",
        "overlaps-ex2-5": "verify overlaps --example 2 --max-level 5",
        "endpoints-ex1-8": "verify endpoints --example 1 --max-level 8 --c 4/7 --sequence {seq}",
        "endpoints-ex2-5": "verify endpoints --example 2 --max-level 5 --c 4/7",
    },
    "openset": {
        "constructed-ex1-30":
            "types --example 1 --open-set constructed --seed 3/7:4/7 --levels 30 --truncation 32",
        "constructed-ex2-14":
            "types --example 2 --open-set constructed --seed 7/16:8/16 --levels 14 --truncation 16",
        "constructed-ex2-8":
            "types --example 2 --open-set constructed --seed 7/16:8/16 --levels 8 "
            "--truncation 10 --sequence {seq}",
    },
}

# library calls, made the way scripts/census_growth.py makes them
CALLS = {
    "rational": {
        "census-ex1-r": ("convex_type_census", 1),
        "census-ex2-r": ("convex_type_census", 2),
        "wsp-ex1-r": ("wsp_min_displacement", 1),
        "wsp-ex2-r": ("wsp_min_displacement", 2),
    },
}

WORKLOADS = tuple(CLI)


def build(workload: str, seed: int) -> list[dict]:
    """The requests of one workload for a seed, in the order they run."""
    if workload not in CLI:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    rational = {ex: rng.choice(values) for ex, values in RATIONAL_DRAWS.items()}
    requests = []
    for rid, template in CLI[workload].items():
        request = {"id": rid}
        if "{seq}" in template:
            request["sequence"] = rng.choice(SEQUENCES)
        request["argv"] = template.format(seq=request.get("sequence")).split()
        requests.append(request)
    for rid, (function, example) in CALLS.get(workload, {}).items():
        requests.append({"id": rid, "call": function, "example": example,
                         "r": rational[example], "levels": LEVELS_RATIONAL})
    rng.shuffle(requests)
    return requests


def undrawn(request: dict) -> dict:
    """A request with its drawn fields taken out."""
    drawn = {"sequence", "r"}
    out = {k: v for k, v in request.items() if k not in drawn}
    if "sequence" in request:
        out["argv"] = [a for a in request["argv"] if a != request["sequence"]]
    return out
