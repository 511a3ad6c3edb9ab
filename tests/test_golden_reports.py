"""Pinned stdout digests of the CLI requests that run the overlap oracle.

Each case is an argv, its exit code and the sha256 of its stdout, taken
from the recorded benchmark baseline (seed 1); the ids are its request
ids.  The oracle may change inside; its reports may not.  A declared
output change updates the digests here.
"""

import hashlib

import pytest

from sepkit.cli import main

GOLDEN = [
    pytest.param(
        ["types", "--example", "1", "--open-set", "constructed", "--seed", "3/7:4/7",
         "--levels", "30", "--truncation", "32"],
        0,
        "b418c5af6d8a54ab9ebd0f7eda4a7fa083354811286f6b93bc70f3eb3ed334fc",
        id="constructed-ex1-30",
    ),
    pytest.param(
        ["types", "--example", "2", "--open-set", "constructed", "--seed", "7/16:8/16",
         "--levels", "14", "--truncation", "16"],
        0,
        "c56c13dc65f2e5c9f801fde790fd06d4e1310a6dbed3c835e1c0212070a4f3c9",
        id="constructed-ex2-14",
    ),
    pytest.param(
        ["types", "--example", "2", "--open-set", "constructed", "--seed", "7/16:8/16",
         "--levels", "8", "--truncation", "10", "--sequence", "thue-morse"],
        0,
        "a73627a51bae0b49186a9ed3ec891f1e86a4bb43ce0935b4ebb32146d18c6d91",
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
]


@pytest.mark.parametrize("argv,exit_code,digest", GOLDEN)
def test_oracle_reports_unchanged(capsys, argv, exit_code, digest):
    code = main(list(argv))
    out = capsys.readouterr().out
    assert code == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
