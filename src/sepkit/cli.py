"""Command-line entry point.

Subcommands: construct, types, wsp, verify {osc|overlaps|distinctness|
endpoints}, render, dimension.  Reports are JSON with deterministic key
order and embed the resolved run configuration; identical invocations
produce byte-identical output (opt in to timestamps with --timestamps).

A report is decided in full before its first byte: every value that can
stay undecided (a census decimal, an endpoint minimum) is evaluated when
the command builds it, so an undecided run prints nothing on stdout.  It
is then streamed to stdout piece by piece (``write_report``), its large
lists written straight from the typed columns of the result (census
levels, word pairs), so the text is never held whole.

Exit codes: 0 success/pass, 1 property violation reported, 2 usage or
input error, 3 undecided within the refinement budget (or out of
memory), 4 internal error, 141 stdout closed by its reader (the code of a
process killed by SIGPIPE).  ``verify distinctness`` exits 1 only for a
collision it found; pairs it could not tell apart exit 3.

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
from .ifs import DIGITS, IfsSystem, Word, digit_texts, validate_system
from .openset import OpenSetApprox, constructed_v_type_census, verify_osc_open_set
from .render import render_levels
from .separation import (
    IntColumn,
    PairRecords,
    WordColumn,
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
EXIT_INTERNAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as the shell reports a process that signal killed


class UsageError(Exception):
    pass


def parse_sequence(spec: str) -> DrivingSequence:
    if spec == "thue-morse":
        return DrivingSequence.thue_morse()
    if spec == "fibonacci":
        return DrivingSequence.fibonacci()
    make = DrivingSequence.from_bits
    if spec.startswith("periodic:"):
        make, bits = DrivingSequence.periodic, spec[len("periodic:"):]
    elif spec.startswith("bits:"):
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
    # an empty prefix cannot refine past the initial window, and an empty
    # pattern has nothing to repeat
    if not bits:
        raise UsageError(f"sequence {spec!r} has no bits; expected a non-empty 0/1 string")
    if not set(bits) <= {"0", "1"}:
        raise UsageError(f"bad sequence {spec!r}: driving bits must be 0 or 1")
    return make(bits)


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
    value, source = args.oracle_budget, "--oracle-budget"
    if value is None:
        env, source = os.environ.get("SEPKIT_ORACLE_BUDGET"), "SEPKIT_ORACLE_BUDGET"
        if env:
            try:
                value = int(env)
            except ValueError as exc:
                raise UsageError(f"bad SEPKIT_ORACLE_BUDGET {env!r}") from exc
    if value is None:
        return DEFAULT_SIGN_BUDGET
    if value < 1:
        raise UsageError(f"{source} must be >= 1")
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


#: records per piece of a ``PairRecords`` list
PAIR_BATCH = 1024


def write_report(obj, write) -> None:
    """Write exactly ``json.dumps(obj, indent=2)`` through ``write``, a piece at a time.

    No report shares a container between two places (a census report
    writes each displacement and each type once, as a table that the
    levels index), so each container is written where it appears.
    Scalars, dicts, lists and tuples take the general path; a report's
    typed columns are written without looking at their items:
    - an ``IntColumn`` with one join;
    - a ``WordColumn`` with one join, translation and decode
      (``digit_texts``);
    - ``PairRecords`` record by record, one format string per record,
      ``PAIR_BATCH`` records per piece.
    So the text is never held whole: its largest piece is one column or
    one batch of records.
    """

    def write_value(obj, depth: int) -> None:
        if isinstance(obj, str):
            write(encode_basestring_ascii(obj))
        elif obj is None:
            write("null")
        elif obj is True:
            write("true")
        elif obj is False:
            write("false")
        elif isinstance(obj, int):
            write(int.__repr__(obj))
        elif not isinstance(obj, (dict, list, tuple, PairRecords)):
            write(json.dumps(obj))
        elif not obj:
            write("{}" if isinstance(obj, dict) else "[]")
        else:
            write_container(obj, depth)

    def write_container(obj, depth: int) -> None:
        sep = "\n" + "  " * (depth + 1)
        between = "," + sep
        if isinstance(obj, dict):
            write("{")
            for k, v in obj.items():
                if not isinstance(k, str):
                    if not (k is None or isinstance(k, (int, float))):
                        raise TypeError(
                            f"keys must be str, int, float, bool or None, not {type(k).__name__}"
                        )
                    k = json.dumps(k)
                write(sep + encode_basestring_ascii(k) + ": ")
                write_value(v, depth + 1)
                sep = between
            write("\n" + "  " * depth + "}")
            return
        write("[")
        column = _COLUMNS.get(type(obj))
        if column is not None:
            write(sep)
            for piece in column(obj, sep):
                write(piece)
        else:
            for v in obj:
                write(sep)
                write_value(v, depth + 1)
                sep = between
        write("\n" + "  " * depth + "]")

    write_value(obj, 0)


def _ints(column: IntColumn, sep: str):
    yield ("," + sep).join(map(int.__repr__, column))


def _words(column: WordColumn, sep: str):
    between = ('",' + sep + '"').encode()
    yield '"' + between.join(digit_texts(column)).translate(DIGITS).decode() + '"'


def _pairs(records: PairRecords, sep: str):
    """Each record filled into one bytes format, its words as ``digit_texts``,
    so that each batch of records is translated and decoded once."""
    pairs, field = records.pairs, sep + "  "
    key = encode_basestring_ascii(records.key).replace("%", "%%")
    form = ("{" + field + '"sigma": "%s",' + field + '"tau": "%s",' + field + key + ": %d"
            + sep + "}").encode()
    between = ("," + sep).encode()
    for start in range(0, len(pairs), PAIR_BATCH):
        stop = start + PAIR_BATCH
        rows = zip(digit_texts(pairs.sigma[start:stop]), digit_texts(pairs.tau[start:stop]),
                   pairs.value[start:stop])
        text = between.join(map(form.__mod__, rows)).translate(DIGITS).decode()
        yield text if start == 0 else "," + sep + text


#: each column's items, as the pieces that go between its brackets
_COLUMNS = {IntColumn: _ints, WordColumn: _words, PairRecords: _pairs}


def encode_report(obj) -> str:
    """Exactly ``json.dumps(obj, indent=2)``: ``write_report``'s pieces, joined."""
    pieces: list[str] = []
    write_report(obj, pieces.append)
    return "".join(pieces)


def emit(args, report: dict) -> None:
    """Stream the report to stdout; every value in it is decided before the first byte."""
    if args.timestamps:
        report["generated_at"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    write_report(report, sys.stdout.write)
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
    if result.collisions:
        return EXIT_VIOLATION
    if result.undecided:  # no collision was found, but some pairs stay undecided
        pairs, (a, b) = len(result.undecided), result.undecided[0]
        return _undecided(args, f"{pairs} gap pairs undecided, the first at levels {a} and {b}")
    return EXIT_OK


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
        code = args.func(args)
        sys.stdout.flush()  # a reader that went away is caught below, not at exit
        return code
    except BrokenPipeError:
        # the reader of stdout went away, which is no fault of sepkit: nothing is
        # written to stderr, and fd 1 goes to the null device so that the
        # interpreter's flush at exit finds no closed pipe either
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, 1)
        os.close(null)
        return EXIT_BROKEN_PIPE
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
    except Exception as exc:
        # a fault of sepkit's own is no violation either; ``traceback`` is
        # imported only here, so start-up does not pay for it
        import traceback

        traceback.print_exc()
        failure = f"{type(exc).__name__}: {exc}"
        sys.stderr.write(f"sepkit: internal error ({_command(args)}): {failure}\n")
        return EXIT_INTERNAL
    return _undecided(args, "out of memory")


def _command(args) -> str:
    return " ".join(filter(None, (args.subcommand, getattr(args, "verifier", None))))


def _undecided(args, reason: str) -> int:
    """Report an undecided run on one stderr line naming the command and the budget."""
    budget = oracle_budget(args)
    sys.stderr.write(f"sepkit: undecided ({_command(args)}, oracle budget {budget}): {reason}\n")
    return EXIT_UNDECIDED


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
