"""The names the benchmark tracer patches must exist where it looks for them.

``perfbench/tracer.py`` replaces functions and methods by their
(module, qualified name); a name deleted or moved in ``src/`` makes
``Tracer.install`` fail with a ``KeyError``, and with it every traced
benchmark run.  The tracer is loaded from its file and only read.
"""

import importlib
import importlib.util
from pathlib import Path

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
