import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

from fractions import Fraction

import pytest

from sepkit import RationalParam, convex_type_census, example_system, wsp_min_displacement
from sepkit.cli import build_parser, main
from sepkit.construction import PERIODIC_WARNING, RefinementEngine, thue_morse_bit
from sepkit.exact import ParamPoint
from sepkit.ifs import Word

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def readme_commands() -> list[list[str]]:
    """The arguments of each ``sepkit`` line in the shell block under README's CLI heading."""
    section = README.read_text().split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("sepkit ")]


def src_env() -> dict:
    """The environment of a fresh ``sepkit`` process: this checkout's sources, default budget."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("SEPKIT_ORACLE_BUDGET", None)
    return env


def test_readme_cli_commands_run(capsys, tmp_path):
    commands = readme_commands()
    assert len(commands) == 11
    for argv in commands:
        if "--out" in argv:
            argv[argv.index("--out") + 1] = str(tmp_path)
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


def test_construct_prints_decimal(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--example", "1", "--sequence", "thue-morse",
        "--depth", "40", "--digits", "10",
    )
    assert code == 0
    assert out.strip() == "0.1354645854"


def test_construct_json_report(capsys):
    code, out, _ = run_cli(
        capsys, "construct", "--example", "1", "--depth", "3", "--digits", "10", "--json",
    )
    assert code == 0
    report = json.loads(out)
    assert report["config"]["command"] == "construct"
    assert report["parameter_decimal"] == "0.1354645854"
    assert [lv["n"] for lv in report["levels"]] == [1, 2, 3]
    assert report["levels"][2]["sigma"] == "212"
    assert report["levels"][2]["J"] == {"lo": "47/350", "hi": "24/175"}
    assert report["levels"][2]["T"] == {"p": "48/343", "q": "-50/49"}


def test_construct_deterministic_output(capsys):
    _, first, _ = run_cli(capsys, "construct", "--example", "2", "--depth", "5", "--json")
    _, second, _ = run_cli(capsys, "construct", "--example", "2", "--depth", "5", "--json")
    assert first == second


def test_verify_overlaps_example2(capsys):
    code, out, _ = run_cli(capsys, "verify", "overlaps", "--example", "2", "--max-level", "2")
    assert code == 0
    report = json.loads(out)
    assert report["results"]["overlaps"] == [{"sigma": "15", "tau": "23", "level": 2}]


def test_bad_example_is_usage_error(capsys):
    code, _, _ = run_cli(capsys, "types", "--example", "does-not-exist")
    assert code == 2


def test_missing_selector_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "wsp")
    assert code == 2
    assert "example" in err


def test_verify_osc_pass_and_fail(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "osc", "--example", "1", "--seed", "3/7:4/7", "--depth", "3",
    )
    assert code == 0
    assert json.loads(out)["results"]["passed"] is True
    code, out, _ = run_cli(
        capsys, "verify", "osc", "--example", "2", "--seed", "7/16:8/16", "--depth", "3",
    )
    assert code == 1
    report = json.loads(out)
    assert report["results"]["violations"][0]["components"] == ["15", "23"]


def test_verify_osc_runs_deep_under_a_small_recursion_limit():
    # the overlap oracle searches on explicit stacks, so the truncation
    # depth is not bounded by the Python stack
    program = (
        "import sys\n"
        "sys.setrecursionlimit(150)\n"
        "from sepkit.cli import main\n"
        "sys.exit(main(['verify', 'osc', '--example', '1', '--seed', '3/7:4/7',\n"
        "               '--depth', '600', '--oracle-budget', '5000']))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", program],
        env=src_env(),
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    results = json.loads(done.stdout)["results"]
    assert (results["depth"], results["passed"]) == (600, True)


def test_memory_exhaustion_is_undecided():
    # example 2's endpoint check lists its equal word pairs, about six times
    # more per level; under a cap on the address space, set by the child on
    # itself 100 MB above what its imports take, the listing runs out of
    # memory within seconds.  With the C library's allocator the exhaustion
    # is a MemoryError raised where an allocation fails; Python's own small
    # object allocator can fail inside the interpreter's unwinding instead,
    # where no handler sees it
    resource = pytest.importorskip("resource")
    status = Path("/proc/self/status")
    if not status.exists():
        pytest.skip("the imports' address space is read from /proc")
    env = dict(src_env(), PYTHONMALLOC="malloc")
    probe = (
        "import sepkit.cli\n"
        "print(next(line.split()[1] for line in open('/proc/self/status')\n"
        "           if line.startswith('VmPeak:')))\n"
    )
    imports = int(subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, check=True, timeout=60
    ).stdout)
    limit = imports * 1024 + 100 * 2**20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    done = subprocess.run(
        [sys.executable, "-m", "sepkit.cli", "verify", "endpoints", "--example", "2",
         "--max-level", "10", "--c", "4/7", "--oracle-budget", "12"],
        env=env, capture_output=True, preexec_fn=cap, timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr.decode()) == (
        3, b"", "sepkit: undecided (verify endpoints, oracle budget 12): out of memory\n"
    )


def test_verify_endpoints_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "endpoints", "--example", "1", "--max-level", "2", "--c", "4/7",
    )
    assert code == 0
    code, _, _ = run_cli(
        capsys, "verify", "endpoints", "--example", "1", "--max-level", "1", "--c", "2",
    )
    assert code == 1


def test_verify_distinctness(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "distinctness", "--example", "1", "--levels", "6",
    )
    assert code == 0
    assert json.loads(out)["results"]["all_distinct"] is True


def test_types_convex(capsys):
    code, out, _ = run_cli(capsys, "types", "--example", "1", "--levels", "3")
    assert code == 0
    assert json.loads(out)["results"]["counts"] == [3, 5, 7]


def test_types_constructed(capsys):
    code, out, _ = run_cli(
        capsys, "types", "--example", "2", "--open-set", "constructed",
        "--seed", "7/16:8/16", "--levels", "3", "--truncation", "5",
    )
    assert code == 0
    assert json.loads(out)["results"]["counts"] == [3, 3, 3]


@pytest.mark.parametrize(
    "open_set",
    [
        ["--levels", "4"],
        ["--open-set", "constructed", "--seed", "3/7:4/7", "--levels", "4", "--truncation", "6"],
    ],
    ids=["convex", "constructed"],
)
def test_types_periodic_carries_warning(capsys, open_set):
    reports = {}
    for sequence in ("thue-morse", "periodic:01"):
        code, out, _ = run_cli(capsys, "types", "--example", "1", "--sequence", sequence,
                               *open_set)
        assert code == 0
        reports[sequence] = json.loads(out)["results"]
    aperiodic, periodic = reports["thue-morse"], reports["periodic:01"]
    assert PERIODIC_WARNING not in aperiodic["caveats"]
    assert periodic["caveats"] == [*aperiodic["caveats"], PERIODIC_WARNING]


def test_types_periodic_counts_at_the_exact_limit(capsys):
    code, out, _ = run_cli(capsys, "types", "--example", "1", "--sequence", "periodic:01",
                           "--levels", "10")
    assert code == 0
    exact = convex_type_census(example_system(1), RationalParam(Fraction(16, 119)), 10)
    counts = json.loads(out)["results"]["counts"]
    assert counts == list(exact.counts) == [3, 5] + [6] * 8


def test_wsp_periodic_decides_at_the_exact_limit(capsys):
    # 336 - 2499a, exactly 0 at 16/119, no longer runs the sign budget out
    code, out, err = run_cli(capsys, "wsp", "--example", "1", "--sequence", "periodic:01",
                             "--max-level", "10")
    assert code == 0, err
    exact = wsp_min_displacement(example_system(1), RationalParam(Fraction(16, 119)), 10)
    per_level = json.loads(out)["results"]["per_level"]
    assert [e["abs_value"] for e in per_level] == [
        e.abs_value.to_json() for e in exact.per_level
    ]


@pytest.mark.parametrize("example,candidate", [("1", "1/7"), ("2", "3/64")])
def test_periodic_windows_closing_on_an_end_exit_2(capsys, example, candidate):
    code, out, err = run_cli(capsys, "types", "--example", example, "--sequence", "periodic:0",
                             "--levels", "5")
    assert (code, out) == (2, "")
    assert err.startswith("sepkit: empty refinement: the periodic windows close on no parameter")
    assert f"only candidate, {candidate}," in err


def test_wsp_report(capsys):
    code, out, _ = run_cli(capsys, "wsp", "--example", "1", "--max-level", "2")
    assert code == 0
    minimum = json.loads(out)["results"]["minimum"]
    assert minimum["level"] == 2
    assert minimum["witness"] == ["13", "21"]
    assert minimum["abs_value"] == {"p": "-6/1", "q": "49/1"}


def test_dimension(capsys):
    code, out, _ = run_cli(capsys, "dimension", "--example", "1", "--digits", "6")
    assert code == 0
    assert json.loads(out)["results"]["decimal"] == "0.564575"


def test_render_files(tmp_path, capsys):
    out_dir = tmp_path / "figs"
    code, out, _ = run_cli(
        capsys, "render", "--example", "1", "--levels", "2", "--out", str(out_dir),
    )
    assert code == 0
    first = (out_dir / "example1-level1.svg").read_bytes()
    assert (out_dir / "example1-level2.svg").exists()
    run_cli(capsys, "render", "--example", "1", "--levels", "2", "--out", str(out_dir))
    assert (out_dir / "example1-level1.svg").read_bytes() == first


@pytest.mark.parametrize("name", ["../escaped", "a/b", "a\\b", "..", ".", ""])
def test_render_refuses_a_name_outside_out(tmp_path, capsys, name):
    # a template name is one plain path component, so no file lands beside --out
    template = tmp_path / "template.json"
    template.write_text(json.dumps({**SEVENTHS, "name": name}))
    code, out, err = run_cli(
        capsys, "render", "--template", str(template), "--levels", "1",
        "--out", str(tmp_path / "figs"),
    )
    assert (code, out) == (2, "")
    assert err == f"sepkit: name {name!r} is not one plain path component\n"
    assert sorted(tmp_path.iterdir()) == [template]


@pytest.mark.parametrize(
    "out,denied,reason",
    [("afile", False, "File exists"), ("afile/figs", False, "Not a directory"),
     ("figs", True, "Permission denied")],
    ids=["existing-file", "under-a-file", "unwritable"],
)
def test_render_unwritable_out_is_usage_error(capsys, monkeypatch, tmp_path, out, denied, reason):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").touch()
    if denied:  # the tests may run as root, which a read-only directory does not stop
        def write_text(self, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "write_text", write_text)
    code, stdout, err = run_cli(capsys, "render", "--example", "1", "--levels", "2", "--out", out)
    assert (code, stdout, err) == (2, "", f"sepkit: cannot write --out {out}: {reason}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--example", "1", "--depth", "40", "--json"],
        ["verify", "distinctness", "--example", "1", "--levels", "12"],
        ["render", "--example", "2", "--levels", "2", "--out", "figs"],
        ["construct", "--example", "1", "--depth", "40", "--json", "--sequence", "periodic:01"],
    ],
    ids=["construct", "distinctness", "render", "construct-periodic"],
)
def test_one_window_chain_per_request(capsys, monkeypatch, tmp_path, argv):
    built = []
    init = RefinementEngine.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(RefinementEngine, "__init__", counting_init)
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, *argv)
    assert (code, len(built)) == (0, 1), err


@pytest.mark.parametrize("argv, reads", [
    ("types --example 1 --levels 80", 241),
    ("types --example 1 --open-set constructed --seed 3/7:4/7 --levels 30 --truncation 32", 63),
    ("wsp --example 2 --max-level 50", 52),
    ("verify endpoints --example 2 --max-level 5 --c 4/7", 9),
], ids=["types-ex1-80", "constructed-ex1-30", "wsp-ex2-50", "endpoints-ex2-5"])
def test_chain_reads_per_request(capsys, monkeypatch, argv, reads):
    # a work counter, not a timer: the window-chain reads (ParamPoint._refine)
    # of four benchmark requests at the default budget; a query decided on the
    # window the point holds reads no chain
    monkeypatch.delenv("SEPKIT_ORACLE_BUDGET", raising=False)
    read, refine = 0, ParamPoint._refine

    def counted(self, *args, **kwargs):
        nonlocal read
        read += 1
        return refine(self, *args, **kwargs)

    monkeypatch.setattr(ParamPoint, "_refine", counted)
    code, _, err = run_cli(capsys, *argv.split())
    assert (code, read) == (0, reads), err


def test_oracle_budget_env_undecided(capsys, monkeypatch):
    monkeypatch.setenv("SEPKIT_ORACLE_BUDGET", "3")
    code, _, err = run_cli(
        capsys, "construct", "--example", "1", "--depth", "40", "--digits", "25",
    )
    assert code == 3
    assert "undecided" in err.lower()


def test_undecided_names_command_and_budget(capsys, monkeypatch):
    # a level-k form needs windows about k deep, so the default budget stops near level 190
    code, out, err = run_cli(capsys, "types", "--example", "1", "--levels", "200")
    assert code == 3
    assert out == ""
    assert err.startswith("sepkit: undecided (types, oracle budget 200): ")
    # the census names the level it was building
    assert err.endswith(" (refined to depth 200) at level 200\n")
    monkeypatch.setenv("SEPKIT_ORACLE_BUDGET", "3")
    code, _, err = run_cli(capsys, "verify", "distinctness", "--example", "1", "--levels", "12")
    assert code == 3
    assert err.startswith("sepkit: undecided (verify distinctness, oracle budget 3): ")
    # a decimal of the report names the level of the gap it belongs to
    assert err.endswith(" (refined to depth 3) at level 1\n")


@pytest.mark.parametrize("digits,code,out,err", [
    # the chain of the 30-bit prefix ends at level 31, the first window to
    # decide 26 digits; a query needing more reads that window, then gives up
    ("26", 0, "0.13546458535407347981096157\n", ""),
    ("35", 3, "", "sepkit: undecided (construct, oracle budget 200): "
                  "decimal value of 1*a undecided (refined to depth 30)\n"),
])
def test_construct_on_a_finite_prefix_reads_its_last_window(capsys, digits, code, out, err):
    bits = "bits:011010011001011010010110011010"
    argv = ("construct", "--example", "1", "--sequence", bits, "--depth", "1", "--digits", digits)
    assert run_cli(capsys, *argv) == (code, out, err)


@pytest.mark.parametrize("command,budget,level", [
    # the default budget runs out on the decimal of the level-186 gap
    ("verify distinctness --example 1 --levels 200", "200", 186),
    # the search decides, the decimal of the level-5 minimum does not
    ("wsp --example 1 --max-level 10", "14", 5),
    # the endpoint tests decide, the decimal of the level-3 minimum does not
    ("verify endpoints --example 1 --max-level 3", "5", 3),
])
def test_undecided_report_decimal_names_its_level(capsys, monkeypatch, command, budget, level):
    monkeypatch.setenv("SEPKIT_ORACLE_BUDGET", budget)
    code, out, err = run_cli(capsys, *command.split())
    assert (code, out) == (3, "")
    name = " ".join(command.split()[:-4])
    assert err.startswith(f"sepkit: undecided ({name}, oracle budget {budget}): decimal value of ")
    assert err.endswith(f" undecided within budget (refined to depth {budget}) at level {level}\n")


@pytest.mark.parametrize("command,budget,where", [
    ("verify osc --example 1 --seed 3/7:4/7 --depth 20", "6",
     ' at word pair ("33233", "12311")'),
    # the constructed census names the level it was building as well
    ("types --example 1 --open-set constructed --seed 3/7:4/7 --levels 6", "10",
     ' at level 2, word pair ("32331123", "23123331")'),
    # the endpoint check names the entry whose test stayed undecided
    ("verify endpoints --example 1 --max-level 3 --c 3/2", "3",
     ' at level 3, word pair ("211", "133")'),
])
def test_undecided_oracle_names_the_word_pair(capsys, monkeypatch, command, budget, where):
    monkeypatch.setenv("SEPKIT_ORACLE_BUDGET", budget)
    code, out, err = run_cli(capsys, *command.split())
    assert (code, out) == (3, "")
    assert err.endswith(f" undecided within budget (refined to depth {budget}){where}\n")


def test_exhausted_prefix_is_undecided(capsys):
    code, _, err = run_cli(
        capsys, "construct", "--example", "1", "--sequence", "bits:01", "--depth", "40",
    )
    assert code == 3
    assert "undecided" in err


def test_sequence_from_file(tmp_path, capsys):
    bits = tmp_path / "bits.txt"
    bits.write_text("0 1 1 0\n")
    code, out, _ = run_cli(
        capsys, "construct", "--example", "1", "--sequence", f"file:{bits}",
        "--depth", "4", "--digits", "2",
    )
    assert code == 0


SEVENTHS = {
    "name": "sevenths",
    "system": {
        "ratio_denominator": 7,
        "offsets": [
            {"p": "0/1", "q": "0/1"},
            {"p": "0/1", "q": "1/1"},
            {"p": "6/7", "q": "0/1"},
        ],
    },
    "initial_sigma": "1",
    "initial_tau": "2",
    "initial_J": {"lo": "0/1", "hi": "1/7"},
    "option1": {"swap": False, "append_sigma": 3, "append_tau": 1},
    "option2": {"swap": True, "append_sigma": 2, "append_tau": 3},
}


def test_template_file_roundtrip(tmp_path, capsys):
    path = tmp_path / "template.json"
    path.write_text(json.dumps(SEVENTHS))
    code, out, _ = run_cli(
        capsys, "construct", "--template", str(path), "--depth", "40", "--digits", "10",
    )
    assert code == 0
    assert out.strip() == "0.1354645854"


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"initial_tau": "21"}, "initial words must be non-empty and of equal length"),
        ({"initial_sigma": "", "initial_tau": ""},
         "initial words must be non-empty and of equal length"),
        ({"initial_tau": "1"}, "initial words must start with distinct symbols"),
        ({"initial_tau": "3"}, "initial gap must depend on the parameter"),
        ({"initial_J": {"lo": "0/1", "hi": "1/2"}},
         "initial window is not contained in the overlap band"),
    ],
    ids=["unequal", "empty", "same-first-symbol", "constant-gap", "window-outside-band"],
)
def test_template_refused_by_initial_state(tmp_path, capsys, fields, message):
    path = tmp_path / "template.json"
    path.write_text(json.dumps({**SEVENTHS, **fields}))
    code, out, err = run_cli(capsys, "construct", "--template", str(path), "--depth", "3")
    assert code == 2
    assert out == ""
    assert err == f"sepkit: {message}\n"


@pytest.mark.parametrize(
    "fields,text",
    [
        ({"initial_J": {"lo": "0/1", "hi": "1/0"}}, "1/0"),
        ({"initial_J": {"lo": "0/0", "hi": "1/7"}}, "0/0"),
        ({"system": {**SEVENTHS["system"],
                     "offsets": [{"p": "0/1", "q": "0/1"}, {"p": "0/1", "q": "1/0"},
                                 {"p": "6/7", "q": "0/1"}]}}, "1/0"),
    ],
    ids=["window-end", "window-zero-over-zero", "offset"],
)
def test_template_zero_denominator_is_usage_error(tmp_path, capsys, fields, text):
    path = tmp_path / "template.json"
    path.write_text(json.dumps({**SEVENTHS, **fields}))
    code, out, err = run_cli(capsys, "construct", "--template", str(path), "--depth", "3")
    assert code == 2
    assert out == ""
    assert err == f"sepkit: bad template: zero denominator in {text!r}\n"


def _offsets(first_p):
    return {**SEVENTHS["system"], "offsets": [{"p": first_p, "q": "0/1"},
                                              *SEVENTHS["system"]["offsets"][1:]]}


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"system": _offsets(0.857)}, "rational 0.857 is not a string such as '3/7'"),
        ({"initial_sigma": 1}, "word 1 is not a string such as '12'"),
        ({"initial_J": {"lo": 0, "hi": "1/7"}}, "rational 0 is not a string such as '3/7'"),
        ({"option1": {**SEVENTHS["option1"], "swap": "false"}},
         'swap "false" is not a JSON boolean'),
        ({"option2": {**SEVENTHS["option2"], "append_sigma": 3.9}},
         "append_sigma 3.9 is not a JSON integer"),
        ({"option1": {**SEVENTHS["option1"], "append_tau": True}},
         "append_tau true is not a JSON integer"),
        ({"system": {**SEVENTHS["system"], "ratio_denominator": 7.5}},
         "ratio_denominator 7.5 is not a JSON integer"),
        ({"name": 5}, "name 5 is not a JSON string"),
    ],
    ids=["number-rational", "number-word", "number-window-end", "string-swap",
         "float-append", "boolean-append", "float-denominator", "number-name"],
)
def test_template_field_of_the_wrong_json_type_is_usage_error(tmp_path, capsys, fields, message):
    # a number where a string belongs, or a string where a boolean belongs,
    # is refused by name instead of being read as some other value
    path = tmp_path / "template.json"
    path.write_text(json.dumps({**SEVENTHS, **fields}))
    code, out, err = run_cli(capsys, "construct", "--template", str(path), "--depth", "3")
    assert (code, out) == (2, "")
    assert err == f"sepkit: bad template: {message}\n"


@pytest.mark.parametrize(
    "fields,message",
    [
        ({"system": {**SEVENTHS["system"], "offsets": "abc"}},
         'offsets "abc" is not a JSON array'),
        ({"system": {**SEVENTHS["system"], "offsets": [7]}}, "offset 7 is not a JSON object"),
        ({"fixed_prefix": {"swap": False}},
         'fixed_prefix {"swap": false} is not a JSON array'),
        ({"fixed_prefix": [[]]}, "fixed_prefix entry [] is not a JSON object"),
        ({"initial_J": "0:1/7"}, 'initial_J "0:1/7" is not a JSON object'),
        ({"option1": [1]}, "option1 [1] is not a JSON object"),
        ({"system": [1]}, "system [1] is not a JSON object"),
        ({"option2": {"append_sigma": 2, "append_tau": 3}}, 'field "swap" is missing'),
        ({"initial_J": {"lo": "0/1"}}, 'field "hi" is missing'),
    ],
    ids=["string-offsets", "number-offset", "object-prefix", "array-prefix-entry",
         "string-window", "array-option", "array-system", "missing-swap", "missing-hi"],
)
def test_template_object_or_array_of_the_wrong_json_type_is_usage_error(
    tmp_path, capsys, fields, message
):
    # the field and its value are named, not Python's indexing error
    path = tmp_path / "template.json"
    path.write_text(json.dumps({**SEVENTHS, **fields}))
    code, out, err = run_cli(capsys, "construct", "--template", str(path), "--depth", "3")
    assert (code, out) == (2, "")
    assert err == f"sepkit: bad template: {message}\n"


def test_template_that_is_not_an_object_is_usage_error(tmp_path, capsys):
    path = tmp_path / "template.json"
    path.write_text("[1]")
    code, out, err = run_cli(capsys, "construct", "--template", str(path), "--depth", "3")
    assert (code, out) == (2, "")
    assert err == "sepkit: bad template: template [1] is not a JSON object\n"


def test_zero_denominator_threshold_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "verify", "endpoints", "--example", "1", "--c", "1/0")
    assert code == 2
    assert out == ""
    assert err == "sepkit: zero denominator in '1/0'\n"


def test_huge_literals_are_usage_errors(tmp_path, capsys):
    # refused before the integer 10^999999 is built, not after seconds of work
    code, out, err = run_cli(
        capsys, "verify", "endpoints", "--example", "1", "--max-level", "3", "--c", "1e999999"
    )
    assert (code, out) == (2, "")
    assert err == "sepkit: rational '1e999999' exceeds 4300 digits\n"
    code, out, err = run_cli(
        capsys, "verify", "osc", "--example", "1", "--seed", "1e-99999:1/2", "--depth", "2"
    )
    assert (code, out) == (2, "")
    assert err == "sepkit: bad seed '1e-99999:1/2': rational '1e-99999' exceeds 4300 digits\n"
    path = tmp_path / "template.json"
    path.write_text(json.dumps({**SEVENTHS, "initial_J": {"lo": "0/1", "hi": "1e99999"}}))
    code, out, err = run_cli(capsys, "construct", "--template", str(path), "--depth", "3")
    assert (code, out) == (2, "")
    assert err == "sepkit: bad template: rational '1e99999' exceeds 4300 digits\n"


@pytest.mark.parametrize("spec,cause", [
    ("3/7", "; expected LO:HI rationals"),
    ("3/7:1/2:4/7", "; expected LO:HI rationals"),
    ("1e-99999:1/2", ": rational '1e-99999' exceeds 4300 digits"),
    ("1/0:1/2", ": zero denominator in '1/0'"),
    ("1/2:1/3", ": empty interval (1/2, 1/3)"),
    ("x:1/2", ": Invalid literal for Fraction: 'x'"),
])
def test_bad_seed_names_its_cause(capsys, spec, cause):
    # a seed of two parts is refused for the cause the parser or the interval gives
    code, out, err = run_cli(
        capsys, "verify", "osc", "--example", "1", "--seed", spec, "--depth", "2"
    )
    assert (code, out) == (2, "")
    assert err == f"sepkit: bad seed {spec!r}{cause}\n"


def test_empty_driving_sequence_is_usage_error(tmp_path, capsys):
    empty = tmp_path / "bits.txt"
    empty.write_text(" \n")
    for spec in ("bits:", f"file:{empty}"):
        code, out, err = run_cli(
            capsys, "types", "--example", "1", "--levels", "3", "--sequence", spec
        )
        assert (code, out) == (2, "")
        assert err == f"sepkit: sequence {spec!r} has no bits; expected a non-empty 0/1 string\n"


def test_template_and_example_conflict(tmp_path, capsys):
    path = tmp_path / "t.json"
    path.write_text("{}")
    code, _, err = run_cli(
        capsys, "construct", "--example", "1", "--template", str(path),
    )
    assert code == 2


def test_template_with_more_than_255_maps_is_usage_error(tmp_path, capsys):
    m = 257
    template = {
        "system": {
            "ratio_denominator": m,
            "offsets": [{"p": f"{i}/{m}", "q": "0/1"} for i in range(256)],
        },
        "initial_sigma": "1",
        "initial_tau": "2",
        "initial_J": {"lo": "0/1", "hi": "1/7"},
        "option1": {"swap": False, "append_sigma": 3, "append_tau": 1},
        "option2": {"swap": True, "append_sigma": 2, "append_tau": 3},
    }
    path = tmp_path / "template.json"
    path.write_text(json.dumps(template))
    code, out, err = run_cli(capsys, "construct", "--template", str(path), "--depth", "4")
    assert code == 2
    assert out == ""
    assert "at most 255" in err


def test_one_parser_serves_many_requests(capsys, monkeypatch):
    assert build_parser() is build_parser()
    monkeypatch.delenv("SEPKIT_ORACLE_BUDGET", raising=False)
    code, out, _ = run_cli(capsys, "types", "--example", "1", "--levels", "3",
                           "--sequence", "fibonacci", "--oracle-budget", "50")
    assert code == 0
    assert json.loads(out)["config"]["oracle_budget"] == 50
    code, out, err = run_cli(capsys, "types", "--example", "1", "--levels", "x")
    assert (code, out) == (2, "")
    assert "invalid int value: 'x'" in err
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert out.startswith("usage: sepkit ")
    # the defaults come back: levels 10, thue-morse, budget 200
    code, out, _ = run_cli(capsys, "types", "--example", "1")
    assert code == 0
    config = json.loads(out)["config"]
    assert (config["levels"], config["sequence"], config["oracle_budget"]) == (
        10, "thue-morse", 200,
    )
    fresh = subprocess.run(
        [sys.executable, "-m", "sepkit.cli", "types", "--example", "1"],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert fresh.returncode == 0, fresh.stderr
    assert out == fresh.stdout


@pytest.mark.parametrize(
    "argv,message",
    [
        (["types", "--example", "1", "--levels", "-3"], "--levels must be >= 1"),
        (["types", "--example", "1", "--levels", "0"], "--levels must be >= 1"),
        (["types", "--example", "1", "--open-set", "constructed", "--seed", "3/7:4/7",
          "--levels", "0"], "--levels must be >= 1"),
        (["wsp", "--example", "1", "--max-level", "0"], "--max-level must be >= 1"),
        (["wsp", "--example", "1", "--max-level", "-1"], "--max-level must be >= 1"),
        (["render", "--example", "1", "--levels", "0", "--out", "figs"], "--levels must be >= 1"),
        (["render", "--example", "1", "--levels", "-2", "--out", "figs"],
         "--levels must be >= 1"),
        (["render", "--example", "1", "--out", "figs", "--scale", "0"], "--scale must be >= 1"),
        (["render", "--example", "1", "--out", "figs", "--scale", "-5"], "--scale must be >= 1"),
        (["render", "--example", "1", "--out", "figs", "--decimals", "0"],
         "--decimals must be >= 1"),
        (["render", "--example", "1", "--out", "figs", "--decimals", "-1"],
         "--decimals must be >= 1"),
        (["construct", "--example", "1", "--depth", "0"], "--depth must be >= 1"),
        (["construct", "--example", "1", "--digits", "0"], "--digits must be >= 1"),
        (["types", "--example", "1", "--open-set", "constructed", "--truncation", "-1"],
         "--truncation must be >= 0"),
        (["verify", "osc", "--example", "1", "--depth", "-1"], "--depth must be >= 0"),
        (["verify", "overlaps", "--example", "2", "--max-level", "0"],
         "--max-level must be >= 1"),
        (["verify", "distinctness", "--example", "1", "--levels", "0"], "--levels must be >= 1"),
        (["verify", "endpoints", "--example", "1", "--max-level", "0"],
         "--max-level must be >= 1"),
        (["dimension", "--example", "1", "--digits", "0"], "--digits must be >= 1"),
    ],
    ids=["types-negative", "types-zero", "constructed-zero", "wsp-zero", "wsp-negative",
         "render-zero", "render-negative", "render-scale-zero", "render-scale-negative",
         "render-decimals-zero", "render-decimals-negative", "construct-depth",
         "construct-digits", "truncation", "osc-depth", "overlaps-level", "distinctness-levels",
         "endpoints-level", "dimension-digits"],
)
def test_fewer_than_one_level_is_usage_error(capsys, monkeypatch, tmp_path, argv, message):
    # the line names the option as typed, not the library parameter it feeds
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"sepkit: {message}\n")
    assert not (tmp_path / "figs").exists()


@pytest.mark.parametrize(
    "extra,flag",
    [
        (["--seed", "garbage"], "--seed"),
        (["--seed", "1/4:3/4"], "--seed"),
        (["--truncation", "7"], "--truncation"),
        (["--open-set", "convex", "--truncation", "0"], "--truncation"),
        (["--seed", "3/7:4/7", "--truncation", "7"], "--seed"),
    ],
    ids=["seed-garbage", "seed", "truncation", "truncation-explicit-convex", "both"],
)
def test_constructed_only_option_on_convex_census_is_usage_error(capsys, extra, flag):
    # the convex census uses no seed and no truncation; it refuses them rather
    # than run without them and record them in its report's config
    code, out, err = run_cli(capsys, "types", "--example", "1", "--levels", "1", *extra)
    assert (code, out, err) == (2, "", f"sepkit: {flag} needs --open-set constructed\n")


@pytest.mark.parametrize("verifier", ["overlaps", "endpoints"])
def test_overlap_listing_builds_no_object_per_pair(capsys, monkeypatch, verifier):
    # example 2's pairs stay symbol bytes from the scan to the report: the
    # words a request builds do not grow with the pairs it lists
    built = {Word: 0}
    for cls in built:
        def counted(self, *args, _init=cls.__init__, _cls=cls, **kwargs):
            built[_cls] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    seen = []
    for level in ("4", "6"):
        built.update(dict.fromkeys(built, 0))
        code, out, _ = run_cli(capsys, "verify", verifier, "--example", "2", "--max-level", level)
        assert code == 0
        results = json.loads(out)["results"]
        listed = results["derived"] if verifier == "overlaps" else results["equal_pairs"]
        seen.append((len(listed), dict(built)))
    (fewer, at_4), (more, at_6) = seen
    assert more > 40 * fewer > 0
    assert at_4 == at_6
    assert sum(at_6.values()) <= 10


def test_census_decimal_names_the_level_where_it_first_appears(capsys, monkeypatch):
    # the value 7a first appears at level 1; its decimal alone stays undecided
    monkeypatch.delenv("SEPKIT_ORACLE_BUDGET", raising=False)
    code, out, err = run_cli(
        capsys, "types", "--example", "1", "--levels", "12", "--oracle-budget", "14"
    )
    assert (code, out) == (3, "")
    assert err == (
        "sepkit: undecided (types, oracle budget 14): decimal value of 7*a undecided "
        "within budget (refined to depth 14) at level 1\n"
    )


@pytest.mark.parametrize("example,count,first", [("1", 30, (1, 3)), ("2", 25, (2, 4))])
def test_distinctness_with_only_undecided_pairs_is_undecided(capsys, monkeypatch, example, count,
                                                              first):
    # an unflagged bits: prefix compares its gaps pairwise with the sign oracle
    monkeypatch.delenv("SEPKIT_ORACLE_BUDGET", raising=False)
    argv = ("verify", "distinctness", "--example", example, "--levels", "12", "--sequence")
    code, out, err = run_cli(capsys, *argv, "bits:" + "01" * 14)
    results = json.loads(out)["results"]
    assert (code, results["collisions"], len(results["undecided"])) == (3, [], count)
    assert err == (
        f"sepkit: undecided (verify distinctness, oracle budget 200): {count} gap pairs "
        f"undecided, the first at levels {first[0]} and {first[1]}\n"
    )
    # the pairs left undecided are exactly those equal at the periodic limit
    code, out, _ = run_cli(capsys, *argv, "periodic:01")
    assert code == 1
    assert json.loads(out)["results"]["collisions"] == results["undecided"]
    # a Thue-Morse prefix tells every pair apart
    bits = "".join(str(thue_morse_bit(k)) for k in range(1, 81))
    code, out, err = run_cli(capsys, *argv, "bits:" + bits)
    results = json.loads(out)["results"]
    assert (code, err, results["collisions"], results["undecided"]) == (0, "", [], [])


def test_unexpected_exception_is_an_internal_error(capsys, monkeypatch):
    def broken(sys, max_level):
        raise RuntimeError("scan broke")

    monkeypatch.setattr("sepkit.cli.exact_overlap_scan", broken)
    code, out, err = run_cli(capsys, "verify", "overlaps", "--example", "2")
    assert (code, out) == (4, "")
    lines = err.splitlines()
    assert lines[0] == "Traceback (most recent call last):"
    assert lines[-2:] == [
        "RuntimeError: scan broke",
        "sepkit: internal error (verify overlaps): RuntimeError: scan broke",
    ]
    assert sum(line.startswith("sepkit:") for line in lines) == 1


def test_closed_stdout_exits_141_quietly():
    # the reader of stdout is gone before the report is written: the request
    # exits with the shell's code for a SIGPIPE death and writes no traceback
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "sepkit.cli", "types", "--example", "1", "--levels", "60"],
            env=src_env(), stdout=write, stderr=subprocess.PIPE, timeout=120,
        )
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, b"")


class _Head:
    """A stdout that keeps the first ``size`` characters written to it."""

    def __init__(self, size: int):
        self.size, self.pieces, self.kept, self.writes = size, [], 0, 0

    def write(self, text: str) -> None:
        self.writes += 1
        if self.kept < self.size:
            self.pieces.append(text[:self.size - self.kept])
            self.kept += len(self.pieces[-1])

    def flush(self) -> None:
        pass


def test_stdout_closed_mid_report_exits_141_quietly(monkeypatch):
    # the reader takes the first 64 KiB of a 26.5 MB census report and goes
    # away: the request stops writing, exits with the shell's code for a
    # SIGPIPE death and writes no traceback, and what was read is the
    # report's start
    argv = ["types", "--example", "1", "--levels", "300", "--oracle-budget", "5000"]
    size = 64 * 1024
    with subprocess.Popen([sys.executable, "-m", "sepkit.cli", *argv], env=src_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        try:
            head = proc.stdout.read(size)
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=120)
        finally:
            proc.kill()
    assert (code, stderr, len(head)) == (141, b"", size)
    # the report is written in pieces, not as one string
    report = _Head(size)
    monkeypatch.setattr(sys, "stdout", report)
    assert main(argv) == 0
    assert head == "".join(report.pieces).encode("ascii")
    assert report.writes > 1000


def test_timestamps_append_only_generated_at(capsys):
    argv = ("types", "--example", "1", "--levels", "3")
    code, plain, _ = run_cli(capsys, *argv)
    assert code == 0
    code, stamped, _ = run_cli(capsys, *argv, "--timestamps")
    assert code == 0
    report = json.loads(stamped)
    assert list(report)[-1] == "generated_at"
    stamp = report["generated_at"]
    assert re.fullmatch(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", stamp)
    time.strptime(stamp, "%Y-%m-%dT%H:%M:%SZ")
    assert stamped == plain[:-len("\n}\n")] + f',\n  "generated_at": "{stamp}"\n}}\n'


#: (argv after ``construct --depth 3``, SEPKIT_ORACLE_BUDGET, the refusal); a
#: refusal that ends in a newline is the whole of stderr, any other its start
REFUSALS = {
    "unknown sequence": (["--example", "1", "--sequence", "nope"], None,
                         "sepkit: unknown sequence spec 'nope'\n"),
    "unreadable file": (["--example", "1", "--sequence", "file:{tmp}/missing.txt"], None,
                        "sepkit: cannot read sequence file: "),
    "unreadable template": (["--template", "{tmp}/missing.json"], None,
                            "sepkit: cannot load template: "),
    "invalid template": (["--template", "{tmp}/invalid.json"], None,
                         "sepkit: system fails validation: "),
    "bad env budget": (["--example", "1"], "x", "sepkit: bad SEPKIT_ORACLE_BUDGET 'x'\n"),
    "env budget 0": (["--example", "1"], "0", "sepkit: SEPKIT_ORACLE_BUDGET must be >= 1\n"),
    "budget 0": (["--example", "1", "--oracle-budget", "0"], "5",
                 "sepkit: --oracle-budget must be >= 1\n"),
    "bad bits": (["--example", "1", "--sequence", "bits:01x"], None,
                 "sepkit: bad sequence 'bits:01x': driving bits must be 0 or 1\n"),
    "empty pattern": (["--example", "1", "--sequence", "periodic:"], None,
                      "sepkit: sequence 'periodic:' has no bits; expected a non-empty 0/1 "
                      "string\n"),
    "bad pattern": (["--example", "1", "--sequence", "periodic:012"], None,
                    "sepkit: bad sequence 'periodic:012': driving bits must be 0 or 1\n"),
    "bad file bits": (["--example", "1", "--sequence", "file:{tmp}/bits.txt"], None,
                      "sepkit: bad sequence 'file:{tmp}/bits.txt': driving bits must be 0 or 1\n"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_refused_input_exits_2_with_one_line(capsys, monkeypatch, tmp_path, case):
    argv, budget, refusal = REFUSALS[case]
    # a template whose last offset is 5/7, not 6/7, builds its point and fails validation
    invalid = json.loads(json.dumps(SEVENTHS))
    invalid["system"]["offsets"][2]["p"] = "5/7"
    (tmp_path / "invalid.json").write_text(json.dumps(invalid))
    (tmp_path / "bits.txt").write_text("01x\n")
    if budget is None:
        monkeypatch.delenv("SEPKIT_ORACLE_BUDGET", raising=False)
    else:
        monkeypatch.setenv("SEPKIT_ORACLE_BUDGET", budget)
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(capsys, "construct", "--depth", "3", *argv)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1 and err.endswith("\n")
    refusal = refusal.replace("{tmp}", str(tmp_path))
    assert err == refusal if refusal.endswith("\n") else err.startswith(refusal)
