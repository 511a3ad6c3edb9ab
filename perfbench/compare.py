"""List the requests whose output digests differ between two results files.

    python3 perfbench/compare.py .perfbench/results/census-seed1-trace0.json other.json

A digest is the sha256 of a request's stdout (for a library call, of its
JSON report) and of every SVG it wrote.  Compare files made with the
same workload and seed: the seed draws some request arguments.  The
listing is a report, not a gate, and the exit code is 0 either way.  A
request whose digests differ between the passes of one file is listed
as unstable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def digests(report: dict) -> dict:
    """Request id -> the set of distinct digests over the file's passes."""
    seen: dict = {}
    for run in report["passes"]:
        for request in run["requests"]:
            digest = (request["stdout_sha256"], tuple(sorted(request["files"].items())))
            seen.setdefault(request["id"], set()).add(digest)
    return seen


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    reports = [json.loads(Path(path).read_text()) for path in (args.before, args.after)]
    if (reports[0]["workload"], reports[0]["seed"]) != (reports[1]["workload"], reports[1]["seed"]):
        print("note: the files differ in workload or seed, so drawn arguments differ too")
    before, after = (digests(report) for report in reports)
    differ = 0
    for rid in sorted(before.keys() | after.keys()):
        if len(before.get(rid, ())) > 1 or len(after.get(rid, ())) > 1:
            print(f"unstable  {rid}")
            differ += 1
        elif before.get(rid) != after.get(rid):
            print(f"differs   {rid}")
            differ += 1
    print(f"{differ} of {len(before.keys() | after.keys())} requests differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
