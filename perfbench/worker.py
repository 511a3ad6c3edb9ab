"""One pass: a workload's requests, in order, in this fresh process.

Reads a job as JSON on stdin and prints the pass as JSON on stdout::

    {"requests": [...], "trace": false, "spans": null}

sepkit is imported from the checkout's ``src`` directory.  CLI requests
go through ``sepkit.cli.main(argv)`` with stdout and stderr captured;
library calls go through the package namespace.  Request times are
read from a :class:`hostspeed.WorkClock`, which discounts the host's
momentary slowdowns; the plain ``perf_counter`` times are kept beside
them as ``raw_seconds``.  After each request its
output is written to ``.perfbench/out/<index>.txt`` and dropped, so no
request runs with an earlier one's output still held, and the peak RSS
does not depend on the order.  The caller parses and checks the files.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

from hostspeed import WorkClock
from tracer import Tracer, snapshot
from workloads import OUT_DIR, RENDER_DIR

ROOT = Path(__file__).resolve().parent.parent


def import_sepkit():
    sys.path.insert(0, str(ROOT / "src"))
    import sepkit
    # load every module, so the tracer sees every namespace
    from sepkit import cli, construction, exact, ifs, openset, render, separation  # noqa: F401

    where = Path(sepkit.__file__).resolve().parent
    if where != ROOT / "src" / "sepkit":
        raise SystemExit(f"sepkit imported from {where}, not from this checkout")
    return sepkit


def library_report(result) -> dict:
    """The public fields of a census or WSP result, without formatting.

    ``to_json`` would evaluate a decimal for every entry, which the CLI
    does and a library caller does not.
    """
    if hasattr(result, "counts"):
        return {"results": {"counts": list(result.counts)}}

    def entry(item):
        if item is None:
            return None
        return {"level": item.level, "abs_value": item.abs_value.to_json(),
                "witness": [str(w) for w in item.displacement.witness]}

    return {"results": {"max_level": result.max_level, "minimum": entry(result.minimum),
                        "per_level": [entry(item) for item in result.per_level]}}


def run_request(sepkit, request: dict, clock: WorkClock):
    """(exit code or None on a crash, output, stderr text, seconds on
    ``clock``, seconds on ``perf_counter``)."""
    out, err = io.StringIO(), io.StringIO()
    output = None
    clock.sample()  # a short request may otherwise run on a stale speed
    start, raw_start = clock.now(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if "argv" in request:
                code = sepkit.cli.main(request["argv"])
            else:
                pt = sepkit.RationalParam(Fraction(request["r"]))
                system = sepkit.example_system(request["example"])
                function = getattr(sepkit, request["call"])
                output = function(system, pt, request["levels"])
                code = 0
    except sepkit.Undecided as exc:
        code = 3
        err.write(f"undecided: {exc}\n")
    except Exception:  # a crash is a result here: it counts as not ok
        code = None
        err.write(traceback.format_exc())
    raw_seconds = time.perf_counter() - raw_start
    seconds = clock.now() - start
    if output is not None:
        text = json.dumps(library_report(output), indent=2) + "\n"
        return code, text, err.getvalue(), seconds, raw_seconds
    return code, out.getvalue(), err.getvalue(), seconds, raw_seconds


def main() -> int:
    job = json.load(sys.stdin)
    sepkit = import_sepkit()
    for directory in (RENDER_DIR, OUT_DIR):
        shutil.rmtree(ROOT / directory, ignore_errors=True)
    (ROOT / OUT_DIR).mkdir(parents=True)
    before = snapshot()
    clock = WorkClock()
    clock.start()
    tracer = None
    if job["trace"]:
        tracer = Tracer(clock.now)
        tracer.install()
    summaries = []
    for index, request in enumerate(job["requests"]):
        if tracer is not None:
            tracer.request = index
        code, text, stderr, seconds, raw_seconds = run_request(sepkit, request, clock)
        output = f"{OUT_DIR}/{index}.txt"
        (ROOT / output).write_text(text, encoding="utf-8")
        del text
        summaries.append({"id": request["id"], "exit": code, "seconds": seconds,
                          "raw_seconds": raw_seconds, "stderr": stderr, "output": output})
    clock.stop()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
        if job.get("spans"):
            tracer.write_spans(ROOT / job["spans"])
    after = snapshot()
    restored = before.keys() == after.keys() and all(
        after[key] is value for key, value in before.items())
    json.dump({"wall_s": sum(s["seconds"] for s in summaries),
               "wall_raw_s": sum(s["raw_seconds"] for s in summaries),
               "slowdown": statistics.median(clock.samples), "peak_rss_mb": peak_mb,
               "requests": summaries, "layers": layers, "restored": restored}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
