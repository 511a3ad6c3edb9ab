"""sepkit benchmark: one workload, measured for a fixed time.

    python3 perfbench/run.py --workload census --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1

Run from the root of a checkout.  A pass runs one workload's requests in
order in a fresh worker process (one pass at a time, no threads); passes
repeat while another one fits in ``--seconds``.  Between passes the
set-up time is measured in fresh interpreters.  Every request's verdict
is checked against its known answer.  Times are read from
``hostspeed.WorkClock``: seconds at a reference speed, with the host's
momentary slowdowns taken out; the plain wall-clock figures are printed
beside them.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` untraced and traced passes
alternate and it holds the per-layer metrics.  Lines before it are a
readable summary.  Request digests and verdicts go to a results file
under ``.perfbench/`` (see ``compare.py``), spans of the last traced
pass to ``.perfbench/spans-<workload>.tsv``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ".perfbench"
SETUP_SAMPLES = 15
SETUP_PER_PASS = 3
RUN_SECONDS = 20
PASS_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "request_s.p50": "s",
    "peak_rss_mb": "MB",
    "verdict_ok_share": "ratio",
    "decided_share": "ratio",
}

# argv[1] is the parent's perf_counter when it started the interpreter
SETUP_CODE = (
    "import sys; sys.path[:0] = ['src', 'perfbench']; import hostspeed; "
    "clock = hostspeed.WorkClock(); clock.start(float(sys.argv[1])); "
    "import sepkit.cli; sepkit.cli.build_parser(); "
    "seconds = clock.now(); clock.stop(); print('ready', seconds, flush=True)"
)


class BenchError(Exception):
    pass


def child_env() -> dict:
    # a fixed hash seed keeps set and dict order, and so the counters, repeatable
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_seconds(count: int) -> list[tuple[float, float]]:
    """Fresh interpreter until ``sepkit.cli`` is imported and the parser
    built: (seconds on the work clock, seconds on ``perf_counter``).

    The interpreter's own start-up, before its clock runs, is counted
    at the speed its clock samples first.
    """
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE, repr(start)], cwd=ROOT,
                                stdout=subprocess.PIPE, env=child_env(), text=True)
        line = proc.stdout.readline().split()
        raw = time.perf_counter() - start
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or len(line) != 2 or line[0] != "ready":
            raise BenchError("sepkit.cli did not import")
        samples.append((float(line[1]), raw))
    return samples


def run_pass(requests: list[dict], answers: dict, trace: bool, spans: str | None) -> dict:
    job = {"requests": requests, "trace": trace, "spans": spans}
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py")], cwd=ROOT,
                              input=json.dumps(job), capture_output=True, text=True,
                              env=child_env(), timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"a pass ran past {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout)
    for summary in result["requests"]:
        checks.inspect(summary, answers[summary["id"]]["paths"], ROOT)
        summary["verdict"] = checks.verdict(answers[summary["id"]], summary)
    if trace:
        result["layers"]["cli.output_bytes"] = sum(
            s["stdout_bytes"] for s, r in zip(result["requests"], requests) if "argv" in r)
    return result


def schedule(seconds: float, trace: bool):
    """Pass kinds (traced or not) while another pass fits in ``seconds``."""
    start = time.perf_counter()
    longest = 0.0
    index = 0
    while True:
        began = time.perf_counter()
        traced = trace and index % 2 == 1
        yield traced
        longest = max(longest, time.perf_counter() - began)
        index += 1
        if trace and index < 2:
            continue
        if time.perf_counter() - start + longest > seconds:
            return


def end_to_end(setup: list[tuple[float, float]], passes: list[dict]) -> tuple[dict, dict]:
    summaries = [s for p in passes for s in p["requests"]]
    attempted = len(summaries)
    ok = sum(s["verdict"] == "ok" for s in summaries)
    undecided = sum(s["exit"] == 3 for s in summaries)
    values = {
        "setup_s": statistics.median([work for work, _ in setup]),
        "wall_s": statistics.median([p["wall_s"] for p in passes]),
        # each pass's median request, then the median over passes
        "request_s.p50": statistics.median(
            [statistics.median([s["seconds"] for s in p["requests"]]) for p in passes]),
        "peak_rss_mb": statistics.median([p["peak_rss_mb"] for p in passes]),
        "verdict_ok_share": ok / attempted,
        "decided_share": (attempted - undecided) / attempted,
    }
    extra = {"request_s.n": len(passes[0]["requests"]),
             "undecided_share": undecided / attempted,
             "setup_raw_s": statistics.median([raw for _, raw in setup]),
             "wall_raw_s": statistics.median([p["wall_raw_s"] for p in passes]),
             "slowdown": statistics.median([p["slowdown"] for p in passes])}
    return values, extra


def per_layer(untraced: list[dict], traced: list[dict]) -> tuple[dict, bool]:
    """Counters of the first traced pass and median self times; and whether
    every traced pass gave the same counters."""
    layers = [p["layers"] for p in traced]
    values = {}
    for name in layers[0]:
        if name.endswith("self_s"):
            values[name] = statistics.median([layer[name] for layer in layers])
        else:
            values[name] = layers[0][name]
    steady = all({k: v for k, v in layer.items() if not k.endswith("self_s")}
                 == {k: v for k, v in layers[0].items() if not k.endswith("self_s")}
                 for layer in layers)
    values["trace.overhead_s"] = (statistics.median([p["wall_s"] for p in traced])
                                  - statistics.median([p["wall_s"] for p in untraced]))
    return values, steady


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "per_miss")):
        return "ratio"
    if name.endswith("bytes"):
        return "bytes"
    return "count"


def run_workload(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> dict:
    requests = workloads.build(workload, seed)
    answers = checks.known_answers(requests)
    setup_seconds(1)  # compiles the sources; not counted
    setup = []
    spans = f"{STATE}/spans-{workload}.tsv" if trace else None
    passes = []
    for traced in schedule(seconds, trace):
        # set-up samples spread over the run, not bunched at its start
        setup += setup_seconds(SETUP_PER_PASS)
        result = run_pass(requests, answers, traced, spans if traced else None)
        result["traced"] = traced
        passes.append(result)
    setup += setup_seconds(max(0, SETUP_SAMPLES - len(setup)))
    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    values, extra = end_to_end(setup, untraced)
    summaries = [s for p in passes for s in p["requests"]]
    failed = sum(s["verdict"] == "wrong" for s in summaries)
    problems = [f"{s['id']}: {s['verdict']} (exit {s['exit']}) {s['stderr'].strip()[:120]}".rstrip()
                for s in passes[0]["requests"] if s["verdict"] != "ok"]
    report = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "requests": requests, "setup_s": [work for work, _ in setup],
        "setup_raw_s": [raw for _, raw in setup], "end_to_end": values, **extra,
        "passes": [{key: p[key] for key in ("traced", "wall_s", "wall_raw_s", "slowdown",
                                            "peak_rss_mb", "requests")} for p in passes],
    }
    restored = all(p["restored"] for p in passes)
    report["originals_restored"] = restored
    if not restored:
        problems.append("a sepkit attribute was left replaced after a pass")
    correct = failed == 0 and restored
    if trace:
        layers, steady = per_layer(untraced, traced_passes)
        report.update(per_layer=layers, counters_repeat=steady)
        correct = correct and steady
        if not steady:
            problems.append("per-layer counters differ between traced passes")
        metrics = {name: {"value": value, "unit": per_layer_unit(name)}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    report.update(correct=correct, attempted=len(summaries), failed=failed, problems=problems)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")

    print(f"== {workload} (seed {seed}, {len(untraced)} untraced and "
          f"{len(traced_passes)} traced passes, {len(requests)} requests each)")
    raw = {"setup_s": "setup_raw_s", "wall_s": "wall_raw_s"}
    for name, unit in END_TO_END.items():
        note = f"  (n={extra['request_s.n']} per pass)" if name == "request_s.p50" else ""
        if name in raw:
            note = f"  (wall clock {extra[raw[name]]:.6f} s)"
        print(f"  {name:<18} {values[name]:>14.6f} {unit}{note}")
    print(f"  {'undecided_share':<18} {extra['undecided_share']:>14.6f} ratio")
    print(f"  {'host slowdown':<18} {extra['slowdown']:>14.6f} x (median work-clock sample)")
    if trace:
        for name, metric in metrics.items():
            print(f"  {name:<40} {metric['value']:>16.6f} {metric['unit']}")
    for problem in problems:
        print(f"  not ok: {problem}")
    print(f"  results: {out}")
    return {"correct": correct, "attempted": len(summaries), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sepkit" / "cli.py").is_file():
        print(f"perfbench: no sepkit sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            out = ROOT / STATE / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), out)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
