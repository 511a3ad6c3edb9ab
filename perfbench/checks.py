"""Verdicts: a request's report fields against its known answer.

``expected.json`` holds the hand-written answers.  Rules in it are
resolved here, once per run, into predicates over the fields the worker
extracts; the values behind the rules come from ``reference.py``, never
from sepkit.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import reference

EXPECTED = json.loads(Path(__file__).with_name("expected.json").read_text())["requests"]


def _option(request: dict, flag: str):
    argv = request.get("argv", [])
    return argv[argv.index(flag) + 1] if flag in argv else None


def _example(request: dict) -> int:
    return request.get("example") or int(_option(request, "--example"))


def _sequence(request: dict) -> str:
    return _option(request, "--sequence") or "thue-morse"


def _rational_point(request: dict) -> Fraction:
    """The drawn r, or the exact limit of a periodic driving sequence."""
    if "r" in request:
        return Fraction(request["r"])
    return reference.periodic_limit(_example(request), _sequence(request)[len("periodic:"):])


def _levels(request: dict) -> int:
    return request.get("levels") or int(_option(request, "--levels") or _option(request, "--max-level"))


RULES = {"odd_counts", "constant_counts", "decimal", "interval_minimum",
         "rational_counts", "rational_minima", "derived_levels"}


def _resolve(rule, request: dict):
    """A predicate over the extracted field value."""
    if not (isinstance(rule, dict) and len(rule) == 1 and set(rule) <= RULES):
        return _equals(rule)
    (name, arg), = rule.items()
    if name == "odd_counts":
        return _equals([2 * level + 1 for level in range(1, arg + 1)])
    if name == "constant_counts":
        return _equals([arg[0]] * arg[1])
    if name == "decimal":
        return _equals(reference.decimal_at(
            _example(request), _sequence(request),
            Fraction(arg["p"]), Fraction(arg["q"]), arg["digits"]))
    if name == "interval_minimum":
        return _equals(reference.interval_minimum(
            _example(request), _sequence(request), arg["levels"], arg["digits"]))
    if name == "rational_counts":
        return _equals(reference.rational_type_counts(
            _example(request), _rational_point(request), _levels(request)))
    if name == "rational_minima":
        r = _rational_point(request)
        minima = reference.rational_level_minima(_example(request), r, _levels(request))

        def matches(forms) -> bool:
            values = [None if f is None else Fraction(f["p"]) + Fraction(f["q"]) * r
                      for f in forms]
            return values == minima

        return lambda value: isinstance(value, list) and matches(value)
    if name == "derived_levels":
        pairs = reference.overlap_pair_counts(arg)
        # the one primitive pair, 15/23, is the only equal pair at level 2
        derived = {level: n for level, n in enumerate(pairs, start=1) if level != 2 and n}
        return lambda value: isinstance(value, list) and dict(Counter(value)) == derived
    raise AssertionError(name)


def _equals(expected):
    return lambda value: value == expected


def _answer(spec: dict, request: dict) -> dict:
    return {"exit": spec["exit"],
            "fields": {path: _resolve(rule, request) for path, rule in spec.get("fields", {}).items()}}


def known_answers(requests: list[dict]) -> dict:
    """Per request id: its answer, its recorded defect if any, and the paths to extract."""
    answers = {}
    for request in requests:
        spec = EXPECTED[request["id"]]
        defect = spec.get("defect")
        answers[request["id"]] = {
            "answer": _answer(spec, request),
            "defect": None if defect is None else _answer(defect, request),
            "paths": sorted(set(spec.get("fields", {})) | set((defect or {}).get("fields", {}))),
        }
    return answers


def _matches(answer: dict, summary: dict) -> bool:
    if summary["exit"] != answer["exit"]:
        return False
    return all(check(summary["fields"].get(path)) for path, check in answer["fields"].items())


def extract(doc, path: str):
    """Dotted path into a report; ``*`` maps over a list, ``key#`` is a length."""
    node = doc
    parts = path.split(".")
    for index, part in enumerate(parts):
        if part == "*":
            rest = ".".join(parts[index + 1:])
            return [extract(item, rest) if rest else item for item in node]
        if part.endswith("#"):
            node = len(node[part[:-1]])
        elif isinstance(node, list):
            node = node[int(part)]
        else:
            node = node[part]
    return node


def inspect(summary: dict, paths: list[str], root: Path) -> None:
    """Add the output's digests and the fields at ``paths`` to a request summary.

    ``svg`` reads the files a render request lists; ``stdout`` is the
    whole output; any other path goes into the JSON report.
    """
    data = (root / summary["output"]).read_bytes()
    text = data.decode("utf-8")
    summary.update(stdout_bytes=len(data), stdout_sha256=hashlib.sha256(data).hexdigest(),
                   files={}, fields={})
    doc = None
    for path in paths:
        try:
            if path == "stdout":
                value = text
            elif path == "svg":
                value = []
                for line in text.splitlines():
                    svg = (root / line).read_bytes()
                    name = Path(line).name
                    summary["files"][name] = hashlib.sha256(svg).hexdigest()
                    value.append({"name": name, "rects": svg.count(b"<rect"),
                                  "lines": svg.count(b"<line")})
            else:
                doc = json.loads(text) if doc is None else doc
                value = extract(doc, path)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            value = {"missing": f"{path}: {type(exc).__name__}"}
        summary["fields"][path] = value


def verdict(known: dict, summary: dict) -> str:
    """``ok``: the known answer.  ``defect``: undecided, or the wrong answer
    recorded for a known defect.  ``wrong``: anything else, a crash included."""
    if _matches(known["answer"], summary):
        return "ok"
    if known["defect"] is not None and (
            summary["exit"] == 3 or _matches(known["defect"], summary)):
        return "defect"
    return "wrong"
