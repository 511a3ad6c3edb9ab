"""Pinned stdout digests of every benchmark CLI request whose answer is right.

Each case is an argv, its exit code and the sha256 of its stdout, taken
from the recorded benchmark baseline (seed 1, with the driving sequence
drawn there); the ids are its request ids.  ``ORACLE_GOLDEN`` holds the
requests that run the overlap oracle, ``GOLDEN`` the census, WSP,
construction, distinctness, dimension, overlap-scan and endpoint
requests, the periodic census and WSP (pinned at their exact limit
16/119, where ``perfbench/expected.json`` checks their answers, since
the baseline records the wrong ones), and deep requests beyond the
benchmark: two WSP runs, two long constructions and distinctness at 150
levels, on the grouped path at a flagged point and at a periodic limit.
The code behind them may change; their reports may not.  A declared
output change updates the digests here.  The census reports changed
format once, to a value table, a type table and levels as columns of
indices; ``PER_ENTRY_GOLDEN`` keeps each one's digest from before that
change, which its expansion must still match.  Distinctness at 200
levels, which the benchmark marks as a known defect, is left out: fixing
it changes its output.  ``SVG_GOLDEN`` pins the bytes of every figure
``render`` writes for both examples at six levels.
"""

import hashlib
import json

import pytest

from sepkit.cli import main

from bruteforce import expand_census_report

ORACLE_GOLDEN = [
    pytest.param(
        ["types", "--example", "1", "--open-set", "constructed", "--seed", "3/7:4/7",
         "--levels", "30", "--truncation", "32"],
        0,
        "822e34fec2b281a05d52a258c36ace3141315705fe2eabd2ad146580dc745385",
        id="constructed-ex1-30",
    ),
    pytest.param(
        ["types", "--example", "2", "--open-set", "constructed", "--seed", "7/16:8/16",
         "--levels", "14", "--truncation", "16"],
        0,
        "3787831bc12135bd4a6bbf5537aca616f9adcd08d0cd616f25f55fb2180251f8",
        id="constructed-ex2-14",
    ),
    pytest.param(
        ["types", "--example", "2", "--open-set", "constructed", "--seed", "7/16:8/16",
         "--levels", "8", "--truncation", "10", "--sequence", "thue-morse"],
        0,
        "b4265d2623070ab973ec4fe1f6bc2767184df4857f98c196a8e9d63f993690a1",
        id="constructed-ex2-8",
    ),
    pytest.param(
        ["verify", "osc", "--example", "2", "--depth", "4"],
        1,
        "c25e6fb924e9adae91c87dc4c78b4e77a873fea22847510226706a15dc2d9e8e",
        id="osc-ex2-4",
    ),
    pytest.param(
        ["verify", "osc", "--example", "1", "--seed", "3/7:4/7", "--depth", "7"],
        0,
        "f9a94d8d20573e44273e530caf5dd705a85a8c017fa27927a64b6e3515f9f363",
        id="osc-ex1-7",
    ),
    pytest.param(
        ["types", "--example", "1", "--open-set", "constructed", "--seed", "3/7:4/7",
         "--levels", "100", "--oracle-budget", "5000"],
        0,
        "58d9c04aef219eb3cdbe5c459e206c268359c59fbba152e45dfcf5f19ac3defe",
        id="constructed-ex1-100",
    ),
    pytest.param(
        ["verify", "osc", "--example", "2", "--depth", "30"],
        1,
        "043600e329895c9b0833b5a29c8ecee20eaa4c1472c28ebdcd4b8e51cad36d1a",
        id="osc-ex2-30",
    ),
    pytest.param(
        ["types", "--example", "1", "--open-set", "constructed", "--seed", "3/7:4/7",
         "--levels", "300", "--truncation", "302", "--oracle-budget", "5000"],
        0,
        "a50c097cef55f34573065b0a646d16855c8b462463bb2b4d1236d8152450be01",
        id="constructed-ex1-300",
    ),
]

GOLDEN = [
    pytest.param(
        ["types", "--example", "1", "--levels", "80"],
        0,
        "7fca46317d2077c0738dfda8d29c29259dc737192c4a0f8c9c5c077a2f35799d",
        id="types-ex1-80",
    ),
    pytest.param(
        ["types", "--example", "2", "--levels", "30", "--sequence", "thue-morse"],
        0,
        "7fca427880b03ffcc6de6d33aefe73793a7ea6a6946e949aa2b01790bb65ee34",
        id="types-ex2-30",
    ),
    pytest.param(
        ["wsp", "--example", "2", "--max-level", "50"],
        0,
        "e65ffead047955b1269823ade2846fb040288a30833dbea59379f895a99b72ed",
        id="wsp-ex2-50",
    ),
    pytest.param(
        ["wsp", "--example", "1", "--max-level", "10", "--sequence", "fibonacci"],
        0,
        "bb448bea1819b6ae42c20bdca2a8a883c2febc0ca57bb851a80a8f3547a412c2",
        id="wsp-ex1-10",
    ),
    pytest.param(
        ["construct", "--example", "1", "--depth", "40", "--digits", "10"],
        0,
        "757ee61ea966abefece2ece805fa42155ea22681b539e67e612bb079c4657913",
        id="construct-ex1-40",
    ),
    pytest.param(
        ["construct", "--example", "1", "--depth", "60", "--digits", "500",
         "--oracle-budget", "5000", "--json"],
        0,
        "efc789ee291e2550f248a663a3496a49cf98088732ea560452d03231e56aad36",
        id="construct-ex1-500",
    ),
    pytest.param(
        ["verify", "distinctness", "--example", "1", "--levels", "12",
         "--sequence", "fibonacci"],
        0,
        "d191d31b06011e0e8dbf28df60aaa756227c81da052bdacb4ed4bd76081679eb",
        id="distinct-ex1-12",
    ),
    pytest.param(
        ["dimension", "--example", "1"],
        0,
        "424ee8a94fb25d7c21bc50f2f99a05fabf9fdc167bb921fc34a3c75208036082",
        id="dimension-ex1",
    ),
    pytest.param(
        ["verify", "overlaps", "--example", "2", "--max-level", "2"],
        0,
        "eed1ee6a1531e181d6f8ff65036838fceb53cab2deb1cc7b9260d8ebd30f2e9b",
        id="overlaps-ex2-2",
    ),
    pytest.param(
        ["verify", "overlaps", "--example", "2", "--max-level", "5"],
        0,
        "598fff859ab3d4b176c94424c384ff1841670093bf20867dd76f88f97655fb52",
        id="overlaps-ex2-5",
    ),
    pytest.param(
        ["verify", "endpoints", "--example", "1", "--max-level", "8", "--c", "4/7",
         "--sequence", "thue-morse"],
        0,
        "bb0dfb04d753dc067371b932bb8f351793436ba60be1e894655f6bf94fe341cb",
        id="endpoints-ex1-8",
    ),
    pytest.param(
        ["verify", "endpoints", "--example", "2", "--max-level", "5", "--c", "4/7"],
        0,
        "2ac95c3a218fc61834a4f21ceee786f91b9be897f673275b58b1a1ff6ea12d41",
        id="endpoints-ex2-5",
    ),
    pytest.param(
        ["types", "--example", "1", "--sequence", "periodic:01", "--levels", "10"],
        0,
        "6d65d038b151869435241ea52656156d3f72933ef36d9c3c368e3841aac29955",
        id="types-periodic-10",
    ),
    pytest.param(
        ["wsp", "--example", "1", "--sequence", "periodic:01", "--max-level", "10"],
        0,
        "96ccea301c9961f0e31a774e5cd210572fbf41f9a9a095e4930fbb65a89c43a1",
        id="wsp-periodic-10",
    ),
    # deep requests, where witness words are up to 300 symbols long
    pytest.param(
        ["wsp", "--example", "1", "--max-level", "300", "--oracle-budget", "5000"],
        0,
        "098881f4426ae22b3f957890a4be9d8b371dca488b71a0630bb11a77ff207c96",
        id="wsp-ex1-300",
    ),
    pytest.param(
        ["wsp", "--example", "2", "--max-level", "300", "--oracle-budget", "5000"],
        0,
        "11e370eefc24d8b3c98860a1b3718aec7512f88b1e7bdf4921d0a1f5d97d1c14",
        id="wsp-ex2-300",
    ),
    pytest.param(
        ["construct", "--example", "1", "--depth", "600", "--digits", "10",
         "--oracle-budget", "5000", "--json"],
        0,
        "a0bcf06ca182c5ab41bbc661a18be4219d3b0dbbf2c6a8bef738efe72ef59019",
        id="construct-ex1-600",
    ),
    pytest.param(
        ["construct", "--example", "2", "--depth", "300", "--digits", "200",
         "--oracle-budget", "5000", "--json"],
        0,
        "a3e479457c74b2600d75c6dd260e5a5f34688f55d4dda7805155e224c7168461",
        id="construct-ex2-300",
    ),
    pytest.param(
        ["verify", "distinctness", "--example", "1", "--levels", "150"],
        0,
        "aea68cf6b845fb0f94f17ab9001fa843c87671f6159512834f37eb1ecdcef80d",
        id="distinct-ex1-150",
    ),
    pytest.param(
        ["verify", "distinctness", "--example", "1", "--levels", "150",
         "--sequence", "periodic:01"],
        1,
        "2dffefe1c039b9161dcf8d8dfa626abc6fead0da57a3a4b7ca7e2159d48e150f",
        id="distinct-periodic-150",
    ),
]


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


def _check_digest(request, capsys, argv, exit_code, digest):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == exit_code
    assert _sha256(out) == digest
    per_entry = PER_ENTRY_GOLDEN.get(request.node.callspec.id)
    if per_entry is not None:
        report = json.loads(out)
        report["results"] = expand_census_report(report["results"])
        assert _sha256(json.dumps(report, indent=2) + "\n") == per_entry


@pytest.mark.parametrize("argv,exit_code,digest", ORACLE_GOLDEN)
def test_oracle_reports_unchanged(request, capsys, argv, exit_code, digest):
    _check_digest(request, capsys, argv, exit_code, digest)


@pytest.mark.parametrize("argv,exit_code,digest", GOLDEN)
def test_reports_unchanged(request, capsys, argv, exit_code, digest):
    _check_digest(request, capsys, argv, exit_code, digest)


def test_reports_unchanged_when_repeated_in_one_process(capsys):
    # every request, twice over, in one process: no module-level state (the
    # shared parser, the Fibonacci word cache) carries into the next request
    for _ in range(2):
        for case in GOLDEN:
            argv, exit_code, digest = case.values
            code = main(list(argv))
            out = capsys.readouterr().out
            assert (case.id, code, _sha256(out)) == (case.id, exit_code, digest)


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
