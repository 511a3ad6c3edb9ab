"""The names the benchmark tracer patches must exist where it looks for them.

``perfbench/tracer.py`` replaces functions and methods by their
(module, qualified name); a name deleted or moved in ``src/`` makes
``Tracer.install`` fail with a ``KeyError``, and with it every traced
benchmark run.  Its counters read what sepkit hands back, and reading it
must cost no more than the request does.  The tracer is loaded from its
file and only read.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from sepkit import cli
from sepkit.ifs import Word

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_names", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_traced_name_is_defined_on_its_owner():
    tracer = _load_tracer()
    targets = [*tracer.FUNCTIONS, tracer.CENSUS_STATES, tracer.COMPONENTS]
    missing = []
    for module, qualname in targets:
        owner = importlib.import_module(module)
        *path, name = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if name not in vars(owner):
            missing.append(f"{module}:{qualname}")
    assert missing == []


def test_traced_overlap_listing_counts_its_pairs_and_builds_no_word(capsys, monkeypatch):
    # the tracer counts the pairs of the scan's result by their number; a
    # traced request builds as many words as an untraced one
    tracer = _load_tracer().Tracer()
    built = []

    def counted(self, *args, _init=Word.__init__, **kwargs):
        built.append(self)
        _init(self, *args, **kwargs)

    monkeypatch.setattr(Word, "__init__", counted)
    argv = ["verify", "overlaps", "--example", "2", "--max-level", "6"]
    runs = []
    for traced in (False, True):
        built.clear()
        if traced:
            tracer.install()
        try:
            code = cli.main(argv)
        finally:
            tracer.uninstall()
        runs.append((code, capsys.readouterr().out, len(built)))
    (plain_code, plain_out, plain_words), traced_run = runs
    assert traced_run == (plain_code, plain_out, plain_words) and plain_code == 0
    results = json.loads(plain_out)["results"]
    listed = len(results["overlaps"]) + len(results["derived"])
    assert listed > 1000
    assert tracer.counts["separation.overlap_scan.pairs"] == listed
