"""The example scripts run end to end and print what they printed before.

Each script runs in a subprocess with ``src`` on its path; the digests
are sha256 sums of stdout.  The scripts print witnesses and counts
through the public API, so these pin what the README's scripts show.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SCRIPTS = [
    pytest.param(
        ["census_growth.py"],
        "bc9eb1b9b3b07a2449483e398b69922e089ad03e44bfb49ddedee9804a8734ce",
        id="census_growth",
    ),
    pytest.param(
        ["reproduce_values.py"],
        "7ae57631cbf984290c63e624db06ed41ab16be90d9c84a37622fd7ebb4d95227",
        id="reproduce_values",
    ),
    pytest.param(
        ["render_figures.py", "--out", "figs"],
        "e7da57659815cc7334a2e655ee050d480a82115c31ccf4d390ab904ab1b47a1c",
        id="render_figures",
    ),
]


@pytest.mark.parametrize("argv,digest", SCRIPTS)
def test_script_output_unchanged(tmp_path, argv, digest):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    assert hashlib.sha256(done.stdout).hexdigest() == digest
