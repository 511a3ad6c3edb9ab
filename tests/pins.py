"""The table of pinned outputs, ``pins.json``, and the two checks it is read by.

Each entry pins one request: its ``id``, its ``argv``, its ``exit`` code,
the ``sha256`` of its stdout and a one-line ``why``.  ``max_bytes``, when
present, bounds the size of its stdout, and ``max_peak_mb`` its own peak
RSS.  ``check_report`` runs a request in this process; ``check_peaks``
runs each bounded request in a child of its own.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from sepkit.cli import main

ROOT = Path(__file__).resolve().parents[1]

#: the entries in table order, and by id
ENTRIES = json.loads((ROOT / "tests" / "pins.json").read_text())
PINS = {entry["id"]: entry for entry in ENTRIES}

#: runs each argv of a JSON list as ``sepkit.cli.main`` in its own child,
#: with stdout sent to the null device, and prints that child's exit code
#: and peak RSS in kB, read with ``wait4``.  A child starts with the peak
#: of the process that forks it, so the children start from this small
#: launcher and not from the test process
LAUNCHER = """
import json, os, sys
request = "import sys; from sepkit.cli import main; sys.exit(main(sys.argv[1:]))"
null = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
for argv in json.loads(sys.argv[1]):
    pid = os.posix_spawn(sys.executable, [sys.executable, "-c", request, *argv],
                         os.environ, file_actions=null)
    _, status, usage = os.wait4(pid, 0)
    print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def check_report(entry):
    """Run the entry's request in this process and check its exit code,
    its stdout digest and its ``max_bytes``; returns the stdout."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(list(entry["argv"]))
    out = stdout.getvalue()
    data = out.encode("utf-8")
    assert code == entry["exit"], (entry["id"], code)
    assert hashlib.sha256(data).hexdigest() == entry["sha256"], entry["id"]
    if "max_bytes" in entry:
        assert len(data) < entry["max_bytes"], (entry["id"], len(data))
    return out


def check_peaks(entries):
    """Run each entry's request in its own child of a small launcher and
    check its exit code and its ``max_peak_mb``."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", LAUNCHER, json.dumps([entry["argv"] for entry in entries])],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, check=True,
        timeout=600,
    )
    for entry, line in zip(entries, done.stdout.splitlines(), strict=True):
        code, peak_kb = map(int, line.split())
        assert code == entry["exit"], (entry["id"], code)
        assert peak_kb / 1024 < entry["max_peak_mb"], (entry["id"], peak_kb / 1024)
