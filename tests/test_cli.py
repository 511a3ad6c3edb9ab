import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from sepkit.cli import build_parser, main
from sepkit.construction import PERIODIC_WARNING, RefinementEngine

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


@pytest.mark.parametrize(
    "argv",
    [
        ["construct", "--example", "1", "--depth", "40", "--json"],
        ["verify", "distinctness", "--example", "1", "--levels", "12"],
        ["render", "--example", "2", "--levels", "2", "--out", "figs"],
    ],
    ids=["construct", "distinctness", "render"],
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
    # a decimal of the report belongs to no search level
    assert " at level " not in err


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
        (["types", "--example", "1", "--levels", "-3"], "max_level must be >= 1"),
        (["types", "--example", "1", "--levels", "0"], "max_level must be >= 1"),
        (["types", "--example", "1", "--open-set", "constructed", "--seed", "3/7:4/7",
          "--levels", "0"], "max_level must be >= 1"),
        (["wsp", "--example", "1", "--max-level", "0"], "max_level must be >= 1"),
        (["wsp", "--example", "1", "--max-level", "-1"], "max_level must be >= 1"),
        (["render", "--example", "1", "--levels", "0", "--out", "figs"], "depth must be >= 1"),
        (["render", "--example", "1", "--levels", "-2", "--out", "figs"], "depth must be >= 1"),
    ],
    ids=["types-negative", "types-zero", "constructed-zero", "wsp-zero", "wsp-negative",
         "render-zero", "render-negative"],
)
def test_fewer_than_one_level_is_usage_error(capsys, monkeypatch, tmp_path, argv, message):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"sepkit: {message}\n")
    assert not (tmp_path / "figs").exists()
