"""Command-line entry point.

Subcommands: construct, types, wsp, verify {osc|overlaps|distinctness|
endpoints}, render, dimension.  Reports are JSON with deterministic key
order and embed the resolved run configuration; identical invocations
produce byte-identical output (opt in to timestamps with --timestamps).

Exit codes: 0 success/pass, 1 property violation reported, 2 usage or
input error, 3 undecided within the refinement budget.

``main(argv)`` may be called any number of times in one process.  It
reuses one parser, built on first use: ``build_parser()`` returns that
shared parser, and callers must not modify it.  Parsing returns a fresh
namespace and no default reads the environment (``SEPKIT_ORACLE_BUDGET``
is read when a command runs), so a request's report does not depend on
the requests before it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .construction import (
    ConstructionTemplate,
    DrivingSequence,
    EmptyRefinement,
    RefinementOption,
    example_template,
    param_point,
)
from .exact import (
    DEFAULT_SIGN_BUDGET,
    AffineExpr,
    Param,
    RationalInterval,
    RefinementExhausted,
    Undecided,
    rational_from_str,
)
from .ifs import IfsSystem, Word, validate_system
from .openset import OpenSetApprox, constructed_v_type_census, verify_osc_open_set
from .render import render_levels
from .separation import (
    convex_type_census,
    distinctness_check,
    endpoint_separation,
    exact_overlap_scan,
    osc_dimension,
    wsp_min_displacement,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_UNDECIDED = 3


class UsageError(Exception):
    pass


def parse_sequence(spec: str) -> DrivingSequence:
    if spec == "thue-morse":
        return DrivingSequence.thue_morse()
    if spec == "fibonacci":
        return DrivingSequence.fibonacci()
    if spec.startswith("periodic:"):
        return DrivingSequence.periodic(spec[len("periodic:"):])
    if spec.startswith("bits:"):
        bits = spec[len("bits:"):]
    elif spec.startswith("file:"):
        path = spec[len("file:"):]
        try:
            with open(path) as handle:
                bits = "".join(handle.read().split())
        except OSError as exc:
            raise UsageError(f"cannot read sequence file: {exc}") from exc
    else:
        raise UsageError(f"unknown sequence spec {spec!r}")
    # an empty prefix cannot refine past the initial window
    if not bits:
        raise UsageError(f"sequence {spec!r} has no bits; expected a non-empty 0/1 string")
    return DrivingSequence.from_bits(bits)


def parse_seed(spec: str) -> RationalInterval:
    ends = spec.split(":")
    if len(ends) != 2:
        raise UsageError(f"bad seed {spec!r}; expected LO:HI rationals")
    try:
        return RationalInterval(*map(rational_from_str, ends))
    except ValueError as exc:  # the cause: a bad rational, or an empty interval
        raise UsageError(f"bad seed {spec!r}: {exc}") from exc


def load_template(path: str) -> ConstructionTemplate:
    try:
        with open(path) as handle:
            data = json.loads(handle.read())
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot load template: {exc}") from exc

    def field(entry, key: str, kind: type, name: str):
        # JSON true is a Python int, so the type is matched exactly
        if type(entry[key]) is not kind:
            raise ValueError(f"{key} {json.dumps(entry[key])} is not a JSON {name}")
        return entry[key]

    def objects(entry, key: str, name: str) -> list:
        """A JSON array of objects, each called ``name`` if it is refused."""
        items = field(entry, key, list, "array")
        for item in items:
            field({name: item}, name, dict, "object")
        return items

    def option(entry) -> RefinementOption:
        return RefinementOption(
            swap=field(entry, "swap", bool, "boolean"),
            append_left=field(entry, "append_sigma", int, "integer"),
            append_right=field(entry, "append_tau", int, "integer"),
        )

    try:
        data = field({"template": data}, "template", dict, "object")
        system = field(data, "system", dict, "object")
        objects(system, "offsets", "offset")
        prefix = {"fixed_prefix": [], **data}
        return ConstructionTemplate(
            system=IfsSystem.from_json(system),
            initial_left=Word.parse(data["initial_sigma"]),
            initial_right=Word.parse(data["initial_tau"]),
            initial_window=RationalInterval.from_json(field(data, "initial_J", dict, "object")),
            option1=option(field(data, "option1", dict, "object")),
            option2=option(field(data, "option2", dict, "object")),
            fixed_prefix=tuple(map(option, objects(prefix, "fixed_prefix", "fixed_prefix entry"))),
            name=field({"name": "custom", **data}, "name", str, "string"),
        )
    except KeyError as exc:
        raise UsageError(f"bad template: field {json.dumps(exc.args[0])} is missing") from exc
    except (ValueError, TypeError) as exc:
        raise UsageError(f"bad template: {exc}") from exc


def resolve_template(args) -> ConstructionTemplate:
    if getattr(args, "template", None):
        if getattr(args, "example", None):
            raise UsageError("give exactly one of --example / --template")
        return load_template(args.template)
    if getattr(args, "example", None) is None:
        raise UsageError("give exactly one of --example / --template")
    return example_template(args.example)


def oracle_budget(args) -> int:
    value = args.oracle_budget
    if value is None:
        env = os.environ.get("SEPKIT_ORACLE_BUDGET")
        if env:
            try:
                value = int(env)
            except ValueError as exc:
                raise UsageError(f"bad SEPKIT_ORACLE_BUDGET {env!r}") from exc
    if value is None:
        return DEFAULT_SIGN_BUDGET
    if value < 1:
        raise UsageError("oracle budget must be >= 1")
    return value


def build_point(args, tmpl: ConstructionTemplate) -> Param:
    """The request's parameter point; its refiner is the request's one window chain."""
    pt = param_point(tmpl, parse_sequence(args.sequence), budget=oracle_budget(args))
    report = validate_system(tmpl.system, pt)
    if not report.valid:
        raise UsageError(f"system fails validation: {json.dumps(report.to_json())}")
    return pt


def run_config(args, command: str, **extra) -> dict:
    config = {"command": command}
    for key in (
        "example",
        "template",
        "sequence",
        "depth",
        "digits",
        "levels",
        "max_level",
        "truncation",
        "seed",
        "c",
        "open_set",
        "out",
        "scale",
        "decimals",
        "mixed",
    ):
        if hasattr(args, key) and getattr(args, key) is not None:
            config[key] = getattr(args, key)
    config["oracle_budget"] = oracle_budget(args)
    config.update(extra)
    return config


def encode_report(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)``, built as one list of pieces.

    No report shares a container between two places (a census report
    writes each displacement and each type once, as a table that the
    levels index), so each container is encoded where it appears.  A
    list whose items are all ``str``, or all exact ``int`` (not
    ``bool``), such as a census level's columns, is written with one
    ``join``.  So is a list of flat records, such as the word pairs of
    an overlap or endpoint report: dicts with one key order, each key's
    values all ``str`` or all exact ``int``, each dict written by one
    format string (``_flat_records``).
    """
    pieces: list[str] = []
    append = pieces.append

    def write(obj, depth: int) -> None:
        if isinstance(obj, str):
            append(encode_basestring_ascii(obj))
        elif obj is None:
            append("null")
        elif obj is True:
            append("true")
        elif obj is False:
            append("false")
        elif isinstance(obj, int):
            append(int.__repr__(obj))
        elif not isinstance(obj, (dict, list, tuple)):
            append(json.dumps(obj))
        elif not obj:
            append("{}" if isinstance(obj, dict) else "[]")
        else:
            write_container(obj, depth)

    def write_container(obj, depth: int) -> None:
        inner = "\n" + "  " * (depth + 1)
        between = "," + inner
        sep = inner
        if isinstance(obj, dict):
            append("{")
            for k, v in obj.items():
                if not isinstance(k, str):
                    if not (k is None or isinstance(k, (int, float))):
                        raise TypeError(
                            f"keys must be str, int, float, bool or None, not {type(k).__name__}"
                        )
                    k = json.dumps(k)
                append(sep + encode_basestring_ascii(k) + ": ")
                write(v, depth + 1)
                sep = between
            append("\n" + "  " * depth + "}")
        else:
            close = "\n" + "  " * depth + "]"
            kinds = set(map(type, obj))
            if kinds == {str}:
                append("[" + inner + between.join(map(encode_basestring_ascii, obj)) + close)
            elif kinds == {int}:
                append("[" + inner + between.join(map(int.__repr__, obj)) + close)
            elif kinds == {dict} and (records := _flat_records(obj, depth + 1)) is not None:
                append("[" + inner + between.join(records) + close)
            else:
                append("[")
                for v in obj:
                    append(sep)
                    write(v, depth + 1)
                    sep = between
                append(close)

    write(obj, 0)
    return "".join(pieces)


def _flat_records(records, depth: int):
    """The JSON texts of dicts at ``depth`` that share one key order, or None.

    Each dict must be non-empty, with ``str`` keys, and each key's
    values must be all ``str`` or all exact ``int``; the texts are then
    one format string filled with each record's values, written column
    by column.
    """
    keys = tuple(records[0])
    if not keys or not all(type(k) is str for k in keys):
        return None
    if not all(map(keys.__eq__, map(tuple, records))):
        return None
    columns = []
    for key in keys:
        values = [record[key] for record in records]
        kinds = set(map(type, values))
        if kinds == {str}:
            columns.append(map(encode_basestring_ascii, values))
        elif kinds == {int}:
            columns.append(map(int.__repr__, values))
        else:
            return None
    inner = "\n" + "  " * (depth + 1)
    fields = [inner + encode_basestring_ascii(k).replace("%", "%%") + ": %s" for k in keys]
    return map(("{" + ",".join(fields) + "\n" + "  " * depth + "}").__mod__, zip(*columns))


def emit(args, report: dict) -> None:
    if args.timestamps:
        report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    sys.stdout.write(encode_report(report))
    sys.stdout.write("\n")


def emit_results(args, command: str, prop: str, results) -> None:
    """Write the report envelope of a verifier: its config, property and results."""
    emit(args, {"config": run_config(args, command), "property": prop, "results": results})


def cmd_construct(args) -> int:
    tmpl = resolve_template(args)
    pt = build_point(args, tmpl)
    run = pt.refiner.run(args.depth)
    decimal = pt.eval_decimal(AffineExpr.parameter(), args.digits)
    if not args.json:
        sys.stdout.write(decimal + "\n")
        return EXIT_OK
    report = {
        "config": run_config(args, "construct"),
        "system": tmpl.system.to_json(),
        "levels": [s.to_json() for s in run.states],
        "parameter_decimal": decimal,
        "warnings": list(run.warnings),
    }
    emit(args, report)
    return EXIT_OK


def cmd_types(args) -> int:
    if args.open_set == "convex":
        for flag in ("--seed", "--truncation"):
            if getattr(args, flag[2:]) is not None:
                raise UsageError(f"{flag} needs --open-set constructed")
    tmpl = resolve_template(args)
    pt = build_point(args, tmpl)
    if args.open_set == "convex":
        census = convex_type_census(tmpl.system, pt, args.levels)
    else:
        seed = parse_seed(args.seed) if args.seed else default_seed(tmpl.system)
        truncation = args.truncation if args.truncation is not None else args.levels + 2
        open_set = OpenSetApprox(tmpl.system, seed, truncation)
        census = constructed_v_type_census(tmpl.system, pt, open_set, args.levels)
    report = census.to_json(pt)
    report["caveats"].extend(pt.refiner.warnings)
    emit_results(args, "types", "neighbourhood-types", report)
    return EXIT_OK


def default_seed(sys: IfsSystem) -> RationalInterval:
    m = sys.ratio_denominator
    mid = (m - 1) // 2
    return RationalInterval(Fraction(mid, m), Fraction(mid + 1, m))


def cmd_wsp(args) -> int:
    tmpl = resolve_template(args)
    pt = build_point(args, tmpl)
    result = wsp_min_displacement(tmpl.system, pt, args.max_level)
    emit_results(args, "wsp", "weak-separation-minimum", result.to_json(pt))
    return EXIT_OK


def cmd_verify_osc(args) -> int:
    tmpl = resolve_template(args)
    pt = build_point(args, tmpl)
    seed = parse_seed(args.seed) if args.seed else default_seed(tmpl.system)
    result = verify_osc_open_set(tmpl.system, pt, seed, args.depth)
    emit_results(args, "verify-osc", "open-set-condition", result.to_json())
    return EXIT_OK if result.passed else EXIT_VIOLATION


def cmd_verify_overlaps(args) -> int:
    tmpl = resolve_template(args)
    result = exact_overlap_scan(tmpl.system, args.max_level)
    emit_results(args, "verify-overlaps", "exact-overlaps", result.to_json())
    return EXIT_OK


def cmd_verify_distinctness(args) -> int:
    tmpl = resolve_template(args)
    pt = build_point(args, tmpl)
    result = distinctness_check(pt.refiner.run(args.levels), pt)
    emit_results(args, "verify-distinctness", "scaled-gap-distinctness", result.to_json(pt))
    return EXIT_OK if result.all_distinct else EXIT_VIOLATION


def cmd_verify_endpoints(args) -> int:
    tmpl = resolve_template(args)
    pt = build_point(args, tmpl)
    result = endpoint_separation(
        tmpl.system,
        pt,
        args.max_level,
        rational_from_str(args.c),
        include_mixed_in_verdict=args.mixed,
    )
    emit_results(args, "verify-endpoints", "endpoint-separation", result.to_json(pt))
    return EXIT_OK if result.passed else EXIT_VIOLATION


def cmd_render(args) -> int:
    tmpl = resolve_template(args)
    pt = build_point(args, tmpl)
    name = f"example{args.example}" if args.example else tmpl.name
    try:
        paths = render_levels(
            tmpl.system, pt, pt.refiner.run(args.levels), args.levels, args.out, name,
            scale=args.scale, decimals=args.decimals,
        )
    except OSError as exc:
        raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc
    for path in paths:
        sys.stdout.write(str(path) + "\n")
    return EXIT_OK


def cmd_dimension(args) -> int:
    tmpl = resolve_template(args)
    value = osc_dimension(tmpl.system, args.digits)
    emit_results(args, "dimension", "similarity-dimension", {
        "alphabet_size": tmpl.system.alphabet_size,
        "ratio_denominator": tmpl.system.ratio_denominator,
        "decimal": value,
    })
    return EXIT_OK


def _add_common(parser, sequence=True):
    parser.add_argument("--example", type=int, choices=(1, 2))
    parser.add_argument("--template", help="JSON template file")
    if sequence:
        parser.add_argument("--sequence", default="thue-morse",
                            help="thue-morse | fibonacci | bits:0110 | periodic:01 | file:PATH")
    parser.add_argument("--oracle-budget", type=int, default=None,
                        help="max refinement depth for sign/decimal queries")
    parser.add_argument("--timestamps", action="store_true")


def _count(parser, flag: str, default: int | None, least: int) -> None:
    """Add an integer option that ``main`` refuses, naming ``flag``, below ``least``."""
    parser.add_argument(flag, type=int, default=default)
    parser.set_defaults(least={**(parser.get_default("least") or {}), flag: least})


def check_counts(args) -> None:
    """Refuse a count option below its least value, by the flag the user typed."""
    for flag, least in getattr(args, "least", {}).items():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None and value < least:
            raise UsageError(f"{flag} must be >= {least}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one ``sepkit`` parser, built on first use; do not modify it."""
    parser = argparse.ArgumentParser(
        prog="sepkit",
        description="Exact separation-property toolkit for parameterized "
                    "iterated function systems on the line.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("construct", help="run the refinement and print the parameter")
    _add_common(p)
    _count(p, "--depth", 60, least=1)
    _count(p, "--digits", 10, least=1)
    p.add_argument("--json", action="store_true", help="emit the full per-level report")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("types", help="neighbourhood-type census")
    _add_common(p)
    p.add_argument("--open-set", choices=("convex", "constructed"), default="convex")
    _count(p, "--levels", 10, least=1)
    p.add_argument("--seed", help="seed interval LO:HI for the constructed open set")
    _count(p, "--truncation", None, least=0)
    p.set_defaults(func=cmd_types)

    p = sub.add_parser("wsp", help="smallest nonzero normalized displacement")
    _add_common(p)
    _count(p, "--max-level", 10, least=1)
    p.set_defaults(func=cmd_wsp)

    verify = sub.add_parser("verify", help="run a separation verifier")
    vsub = verify.add_subparsers(dest="verifier", required=True)

    p = vsub.add_parser("osc", help="open set condition at finite depth")
    _add_common(p)
    p.add_argument("--seed", help="seed interval LO:HI (defaults per system)")
    _count(p, "--depth", 8, least=0)
    p.set_defaults(func=cmd_verify_osc)

    p = vsub.add_parser("overlaps", help="exact overlap scan")
    _add_common(p, sequence=False)
    _count(p, "--max-level", 2, least=1)
    p.set_defaults(func=cmd_verify_overlaps)

    p = vsub.add_parser("distinctness", help="scaled-gap distinctness")
    _add_common(p)
    _count(p, "--levels", 12, least=1)
    p.set_defaults(func=cmd_verify_distinctness)

    p = vsub.add_parser("endpoints", help="endpoint separation bound")
    _add_common(p)
    _count(p, "--max-level", 8, least=1)
    p.add_argument("--c", default="4/7", help="separation constant (rational)")
    p.add_argument("--mixed", action="store_true",
                   help="fold mixed-endpoint gaps into the verdict")
    p.set_defaults(func=cmd_verify_endpoints)

    p = sub.add_parser("render", help="emit cylinder diagrams as SVG")
    _add_common(p)
    _count(p, "--levels", 2, least=1)
    p.add_argument("--out", required=True)
    _count(p, "--scale", 900, least=1)
    _count(p, "--decimals", 12, least=1)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("dimension", help="similarity dimension log(n)/log(m)")
    _add_common(p, sequence=False)
    _count(p, "--digits", 6, least=1)
    p.set_defaults(func=cmd_dimension)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        check_counts(args)
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"sepkit: {exc}\n")
        return EXIT_USAGE
    except EmptyRefinement as exc:
        sys.stderr.write(f"sepkit: empty refinement: {exc}\n")
        return EXIT_USAGE
    except (Undecided, RefinementExhausted) as exc:
        where = [] if getattr(exc, "level", None) is None else [f"level {exc.level}"]
        if getattr(exc, "words", None) is not None:
            where.append('word pair ("{}", "{}")'.format(*exc.words))
        at = f" at {', '.join(where)}" if where else ""
        return _undecided(args, f"{exc}{at}")
    except ValueError as exc:
        sys.stderr.write(f"sepkit: {exc}\n")
        return EXIT_USAGE
    except MemoryError:
        # the answer needs more memory than the process may take, which is no
        # violation; it is reported once the handler has let go of the
        # traceback, and with it of the frames that hold that memory
        pass
    return _undecided(args, "out of memory")


def _undecided(args, reason: str) -> int:
    """Report an undecided run on one stderr line naming the command and the budget."""
    command = " ".join(filter(None, (args.subcommand, getattr(args, "verifier", None))))
    budget = oracle_budget(args)
    sys.stderr.write(f"sepkit: undecided ({command}, oracle budget {budget}): {reason}\n")
    return EXIT_UNDECIDED


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
