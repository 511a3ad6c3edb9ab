"""Checks of the benchmark itself.

    python3 perfbench/selfcheck.py [--workload openset]

* the same seed draws the same requests, and another seed changes only
  the drawn fields (order, rational r, driving sequence);
* every request has a known answer, and the reference code reproduces
  the figures ROADMAP.md quotes;
* ``BENCHMARK.json`` names exactly the metrics the benchmark reports;
* two traced passes with the same seed give identical per-layer
  counters, and every sepkit attribute is the original object after
  each pass.

Prints one PASS/FAIL line per check and exits 1 if any fails.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import checks
import reference
import run
import tracer
import workloads

FAILED = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILED.append(name)


def check_draws() -> None:
    for workload in workloads.WORKLOADS:
        first, again = workloads.build(workload, 1), workloads.build(workload, 1)
        check(f"{workload}: the same seed draws the same requests", first == again)
        other = workloads.build(workload, 2)
        key = lambda request: request["id"]  # noqa: E731
        same = ([workloads.undrawn(r) for r in sorted(first, key=key)]
                == [workloads.undrawn(r) for r in sorted(other, key=key)])
        check(f"{workload}: another seed changes only the drawn fields", same)


def check_answers() -> None:
    ids = {rid for workload in workloads.WORKLOADS for rid in workloads.CLI[workload]}
    ids |= {rid for calls in workloads.CALLS.values() for rid in calls}
    check("every request has exactly one known answer", ids == set(checks.EXPECTED),
          f"{sorted(ids ^ set(checks.EXPECTED))}")
    for example, values in workloads.RATIONAL_DRAWS.items():
        check(f"example {example}: every drawn r is admissible",
              all(reference.admissible(example, Fraction(r)) for r in values))
    derived = sum(n for level, n in enumerate(reference.overlap_pair_counts(7), start=1)
                  if level > 2)
    check("25,376 derived overlap pairs up to level 7", derived == 25376, str(derived))
    check("periodic:01 pins a = 16/119", reference.periodic_limit(1, "01") == Fraction(16, 119))
    counts = reference.rational_type_counts(1, reference.periodic_limit(1, "01"), 4)
    check("counts 3, 5, 6, 6 at a = 16/119", counts == [3, 5, 6, 6], str(counts))
    counts = reference.rational_type_counts(1, Fraction(1, 8), 12)
    check("the automaton saturates at 7 states at a = 1/8", counts[-1] == 7, str(counts))
    check("a = 0.1354645854", reference.decimal_at(
        1, "thue-morse", Fraction(0), Fraction(1), 10) == "0.1354645854")


def check_manifest() -> None:
    path = run.ROOT / "BENCHMARK.json"
    if not path.is_file():
        check("BENCHMARK.json is present", False)
        return
    manifest = json.loads(path.read_text())
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    check("BENCHMARK.json lists the end-to-end metrics", end_to_end == run.END_TO_END,
          str(end_to_end))
    names = [*tracer.Tracer().metrics(), "cli.output_bytes", "trace.overhead_s"]
    layers = {m["name"]: m["unit"] for m in manifest["per_layer"]}
    check("BENCHMARK.json lists the per-layer metrics",
          layers == {name: run.per_layer_unit(name) for name in names}, str(layers))
    check("BENCHMARK.json lists the workloads",
          [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS))
    check("run.py measures for BENCHMARK.json's run_seconds by default",
          manifest["run_seconds"] == run.RUN_SECONDS, str(manifest["run_seconds"]))


def check_traced(workload: str) -> None:
    requests = workloads.build(workload, 1)
    answers = checks.known_answers(requests)
    passes = [run.run_pass(requests, answers, traced, None) for traced in (False, True, True)]
    check(f"{workload}: every pass leaves sepkit's attributes untouched",
          all(p["restored"] for p in passes))
    check(f"{workload}: an untraced pass records no layers", passes[0]["layers"] is None)
    _, steady = run.per_layer(passes[:1], passes[1:])
    check(f"{workload}: two traced passes give identical counters", steady)
    check(f"{workload}: every verdict is ok or a recorded defect",
          all(s["verdict"] != "wrong" for p in passes for s in p["requests"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="openset", choices=workloads.WORKLOADS,
                        help="workload for the traced-pass checks")
    args = parser.parse_args(argv)
    check_draws()
    check_answers()
    check_manifest()
    check_traced(args.workload)
    print(f"{len(FAILED)} failed")
    return 1 if FAILED else 0


if __name__ == "__main__":
    sys.exit(main())
