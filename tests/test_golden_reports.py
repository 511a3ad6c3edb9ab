"""Pinned outputs: every request of ``pins.json`` and every figure of ``render``.

``pins.json`` is the one table of pinned requests (``tests/pins.py``
describes an entry).  It holds the benchmark CLI requests whose answer
is right, taken from the recorded benchmark baseline (seed 1, with the
driving sequence drawn there), the periodic census and WSP (pinned at
their exact limit 16/119, where ``perfbench/expected.json`` checks their
answers, since the baseline records the wrong ones), and deep requests
beyond the benchmark.  The code behind them may change; their reports
may not.  A declared output change edits the entry's digest and records
the old and new digests in CHANGES.md.  The census reports changed
format once, to a value table, a type table and levels as columns of
indices; ``PER_ENTRY_GOLDEN`` keeps each one's digest from before that
change, which its expansion must still match.  Distinctness at 200
levels, which the benchmark marks as a known defect, is left out: fixing
it changes its output.  ``SVG_GOLDEN`` pins the bytes of every figure
``render`` writes for both examples at six levels.
"""

import hashlib
import json
import re

import pytest

from sepkit.cli import build_parser, main

from bruteforce import expand_census_report
from pins import ENTRIES, PINS, check_peaks, check_report


# the census reports in the per-entry layout they had before the value
# and type tables, as digests of their expansion
PER_ENTRY_GOLDEN = {
    "constructed-ex1-30": "b418c5af6d8a54ab9ebd0f7eda4a7fa083354811286f6b93bc70f3eb3ed334fc",
    "constructed-ex2-14": "c56c13dc65f2e5c9f801fde790fd06d4e1310a6dbed3c835e1c0212070a4f3c9",
    "constructed-ex2-8": "a73627a51bae0b49186a9ed3ec891f1e86a4bb43ce0935b4ebb32146d18c6d91",
    "constructed-ex1-100": "705e3f3f4ed263870c988f5d141d816b825b4ea9e56d15c29b2f870ec8120533",
    "types-ex1-80": "74180b4041247d7e6d48e5bcab8c295fc81ebba83095a39e46d51eec44852cd8",
    "types-ex2-30": "af2bd397e3fa80be3052041b3a5d41b851e526c4a7404ebe76ea11bbabaac78b",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("entry", ENTRIES, ids=[entry["id"] for entry in ENTRIES])
def test_reports_unchanged(entry):
    out = check_report(entry)
    per_entry = PER_ENTRY_GOLDEN.get(entry["id"])
    if per_entry is not None:
        report = json.loads(out)
        report["results"] = expand_census_report(report["results"])
        assert _sha256(json.dumps(report, indent=2) + "\n") == per_entry


def test_peaks_stay_under_their_bounds():
    check_peaks([entry for entry in ENTRIES if "max_peak_mb" in entry])


def test_table_entries_are_well_formed():
    ids = [entry["id"] for entry in ENTRIES]
    assert len(ids) == len(set(ids))
    fields = {"id", "argv", "exit", "sha256", "why"}
    parser = build_parser()
    for entry in ENTRIES:
        assert fields <= set(entry) <= fields | {"max_bytes", "max_peak_mb"}, entry["id"]
        try:
            parser.parse_args(entry["argv"])
        except SystemExit:
            pytest.fail(f"{entry['id']}: its argv does not parse")
        assert type(entry["exit"]) is int, entry["id"]
        assert entry["why"].strip(), entry["id"]
        assert re.fullmatch("[0-9a-f]{64}", entry["sha256"]), entry["id"]
        for bound in ("max_bytes", "max_peak_mb"):
            value = entry.get(bound, 1)
            assert type(value) in (int, float) and value > 0, (entry["id"], bound)


def test_report_check_fails_on_a_wrong_pin():
    entry = PINS["dimension-ex1"]
    size = len(check_report(entry).encode("utf-8"))
    check_report(dict(entry, max_bytes=size + 1))
    for wrong in ({"sha256": "0" * 64}, {"exit": 1}, {"max_bytes": size}):
        with pytest.raises(AssertionError):
            check_report(dict(entry, **wrong))


def test_peak_check_fails_below_the_measured_peak():
    # a Python process alone takes several MB
    with pytest.raises(AssertionError):
        check_peaks([dict(PINS["dimension-ex1"], max_peak_mb=1)])


#: the benchmark's census, WSP, construction, distinctness, dimension,
#: overlap-scan and endpoint requests, and six deep ones beyond it
REPEATED = [
    "types-ex1-80", "types-ex2-30", "wsp-ex2-50", "wsp-ex1-10", "construct-ex1-40",
    "construct-ex1-500", "distinct-ex1-12", "dimension-ex1", "overlaps-ex2-2",
    "overlaps-ex2-5", "endpoints-ex1-8", "endpoints-ex2-5", "types-periodic-10",
    "wsp-periodic-10", "wsp-ex1-300", "wsp-ex2-300", "construct-ex1-600",
    "construct-ex2-300", "distinct-ex1-150", "distinct-periodic-150",
]


def test_reports_unchanged_when_repeated_in_one_process():
    # every request, twice over, in one process: no module-level state (the
    # shared parser, the Fibonacci word cache) carries into the next request
    for _ in range(2):
        for ident in REPEATED:
            check_report(PINS[ident])


SVG_GOLDEN = {
    1: [
        "a26dc4f5d016a1eeeae102243949b9c66ede4082c13095f13278c61cba9196b5",
        "c426d72e516dc26a9bdcc2fc38334f001fb3601d11f228cfc36cb0abea06ad13",
        "0386d05ed7ca740545124aa68239d6110052c1d9c6035d0b04ff682e692cf184",
        "63ba251910187a6a6884340ebcae1260288b095045672feb5064cef06a8fa58e",
        "1a0d1c74953f9936dac81c016b35fccf74fb1b74bc13367bc7a1b316c8375a8a",
        "94f30edb53e816375bf557fe5d9903799b818f7e931e975979aec5c7dc0c28c8",
    ],
    2: [
        "8f3e1d192ad47e5361547e35587d8e8f6e0367ee50e51ac7ce8d230458da5600",
        "90962aebf4db086fc14a88eca7430bfb405f43dc21b4aa85d8f9d1bbbeaab4e7",
        "30bc783a08fd51c13e1ba75b99232afce17790ab23f645e2b493ec390f8d1f0b",
        "791eca6ca6847fda622cce432ff2eed1559adbb863a4e0ea8b2f76583b340695",
        "16ff6e1f386488f43b21d38b4becc63e127b1925bb09bd739be62ec153027fc3",
        "1be4e3c6cf8ccfb30322c55a0e3f7040ba0e8310b8437595fbd3bfdc64f730d6",
    ],
}


@pytest.mark.parametrize("example", sorted(SVG_GOLDEN))
def test_render_files_unchanged(capsys, tmp_path, example):
    code = main(["render", "--example", str(example), "--levels", "6", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    names = [f"example{example}-level{level}.svg" for level in range(1, 7)]
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in names]
    assert digests == SVG_GOLDEN[example]
