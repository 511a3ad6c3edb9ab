"""The report writer against its oracle, ``json.dumps(obj, indent=2)``,
on plain data and on every typed column expanded to plain lists, and the
compact census report against its per-entry expansion."""

import json
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sepkit import (
    DrivingSequence,
    OpenSetApprox,
    RationalInterval,
    constructed_v_type_census,
    convex_type_census,
    param_point,
)
from sepkit.cli import PAIR_BATCH, encode_report, write_report
from sepkit.separation import IntColumn, PairColumns, PairRecords, WordColumn

from bruteforce import census_report_per_entry, expand_census_report, plain

# every code point, surrogates and control characters included
ANY_TEXT = st.text(st.characters(blacklist_categories=()))
TEXT = st.one_of(ANY_TEXT, st.sampled_from(['"', "\\", "\x00", "\x1f\x7f", "é\n\t", "\U0001f600"]))
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(-(10**400), 10**400),
    st.floats(),
    TEXT,
)
KEYS = st.one_of(TEXT, st.integers(), st.booleans(), st.none(), st.floats())
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=20,
)


@given(JSON)
def test_writer_matches_json_dumps(value):
    assert encode_report(value) == json.dumps(value, indent=2)


@given(JSON)
def test_shared_parts_match_at_each_depth(part):
    # the same object twice at one depth, and again one and two levels deeper
    value = {"a": part, "b": [part, (part,)], "c": part, "d": [part, part]}
    assert encode_report(value) == json.dumps(value, indent=2)
    assert encode_report([value, value]) == json.dumps([value, value], indent=2)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"": {}}, [(), {}, []], [1, [2, [3, [4]]]],
])
def test_empty_and_nested_containers(value):
    assert encode_report(value) == json.dumps(value, indent=2)


class _Symbol(str):
    pass


@given(st.one_of(
    st.lists(TEXT, min_size=1, max_size=6),
    st.lists(st.integers(-(10**400), 10**400), min_size=1, max_size=6),
    st.lists(st.one_of(st.integers(), st.booleans()), min_size=1, max_size=6),
    st.lists(st.one_of(st.integers(), TEXT), min_size=1, max_size=6).map(tuple),
))
def test_flat_lists_match_json_dumps(items):
    # plain lists take the general path whatever their items: only typed
    # columns are joined in one pass
    for value in (items, {"level": 3, "column": items}, [[items]]):
        assert encode_report(value) == json.dumps(value, indent=2)


INT_VALUES = st.one_of(st.integers(), st.integers(-(10**400), 10**400))
RECORD_KEYS = st.one_of(TEXT, st.sampled_from(["%", "%s", "%(sigma)s", "sigma", "level"]))


@st.composite
def flat_records(draw):
    """A list of dicts that share one key order and hold, under each key,
    only str or only int values, but for a flaw, if drawn, that sets one
    record apart: a bool, None or float value, a key whose values mix str
    and int, a key missing or added, or the keys of one record reordered."""
    keys = draw(st.lists(RECORD_KEYS, min_size=1, max_size=4, unique=True))
    kinds = {key: draw(st.sampled_from([INT_VALUES, TEXT])) for key in keys}
    records = [
        {key: draw(kinds[key]) for key in keys} for _ in range(draw(st.integers(1, 5)))
    ]
    flaw = draw(st.sampled_from(
        [None, "bool", "none", "float", "mixed", "missing", "added", "reordered"]))
    record = records[draw(st.integers(0, len(records) - 1))]
    key = draw(st.sampled_from(keys))
    # a mixed key or a key flaw sets one record apart from another
    apart = len(records) > 1
    if flaw in ("bool", "none", "float"):
        record[key] = draw({"bool": st.booleans(), "none": st.none(), "float": st.floats()}[flaw])
    elif flaw == "mixed" and apart:
        record[key] = draw(TEXT if kinds[key] is INT_VALUES else INT_VALUES)
    elif flaw == "missing" and apart:
        del record[key]
    elif flaw == "added" and apart:
        record[draw(RECORD_KEYS.filter(lambda k: k not in keys))] = 0
    elif flaw == "reordered" and apart and len(keys) > 1:
        items = list(record.items())
        record.clear()
        record.update(items[1:] + items[:1])
    return records


@given(flat_records())
def test_flat_records_match_json_dumps(records):
    # plain records take the general path, flawed or not; the pair records
    # of a report are a typed column (below)
    for value in (records, {"pairs": records}, [[records, records]]):
        assert encode_report(value) == json.dumps(value, indent=2)


#: words of any symbol bytes, so 0 and symbols above 9 (comma lists) too,
#: and words of symbols 0..9, written as digits
ANY_WORD = st.binary(max_size=5)
DIGIT_WORD = ANY_WORD.map(lambda word: bytes(symbol % 10 for symbol in word))
WORDS = st.lists(st.one_of(DIGIT_WORD, ANY_WORD), max_size=6)
COLUMNS = st.one_of(
    st.lists(INT_VALUES, max_size=6).map(IntColumn),
    WORDS.map(WordColumn),
    st.builds(
        lambda rows, key: PairRecords(PairColumns(*map(list, zip(*rows))) if rows
                                      else PairColumns([], [], []), key),
        st.lists(st.tuples(st.one_of(DIGIT_WORD, ANY_WORD), st.one_of(DIGIT_WORD, ANY_WORD),
                           INT_VALUES), max_size=5),
        RECORD_KEYS.filter(lambda key: key not in ("sigma", "tau")),
    ),
)


@given(COLUMNS)
def test_columns_match_json_dumps(column):
    # every column kind, empty or not, at several depths and beside its twin
    for value in (column, {"level": 3, "column": column}, [[column, column]],
                  {"a": [column], "b": (column,)}):
        assert encode_report(value) == json.dumps(plain(value), indent=2)


def test_pair_records_are_written_in_batches():
    # three batches, the middle one holding a symbol above 9: each batch picks
    # its own path, records join across batch ends, and no piece holds more
    # than one batch
    n = 2 * PAIR_BATCH + 5
    sigma = [bytes((1 + k % 9, 2)) for k in range(n)]
    tau = [bytes((3, 1 + k % 7)) for k in range(n)]
    tau[PAIR_BATCH + 7] = bytes((12, 3))
    value = {"pairs": PairRecords(PairColumns(sigma, tau, list(range(n))), "level")}
    pieces = []
    write_report(value, pieces.append)
    assert "".join(pieces) == json.dumps(plain(value), indent=2)
    assert max(piece.count('"sigma"') for piece in pieces) == PAIR_BATCH


@pytest.mark.parametrize("value", [
    [True, False], [1, True], [False, 0], [IntEnum("E", "A B").B, 3], [_Symbol("x"), "y"],
])
def test_int_and_str_subclasses_match_json_dumps(value):
    assert encode_report(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    object(),
    {"a": [1, Fraction(1, 3)]},
    [{1, 2}],
    {(1, 2): "tuple key"},
])
def test_non_json_values_raise_type_error(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        encode_report(value)


@pytest.fixture(scope="module")
def censuses(ex1_template, ex1_sys, ex1_pt, ex2_sys, ex2_pt, eighth_pt):
    periodic_pt = param_point(ex1_template, DrivingSequence.periodic("01"))
    seed = RationalInterval(Fraction(3, 7), Fraction(4, 7))
    return {
        "convex-ex1": (convex_type_census(ex1_sys, ex1_pt, 12), ex1_pt),
        "convex-ex2": (convex_type_census(ex2_sys, ex2_pt, 8), ex2_pt),
        "convex-eighth": (convex_type_census(ex1_sys, eighth_pt, 10), eighth_pt),
        "convex-periodic": (convex_type_census(ex1_sys, periodic_pt, 10), periodic_pt),
        "constructed-ex1": (
            constructed_v_type_census(ex1_sys, ex1_pt, OpenSetApprox(ex1_sys, seed, 10), 8),
            ex1_pt,
        ),
    }


def test_census_report_expands_to_per_entry_report(censuses):
    # the levels' columns, expanded word by word, rebuild the per-entry report
    for census, pt in censuses.values():
        report = census.to_json(pt)
        assert expand_census_report(plain(report)) == census_report_per_entry(census, pt)
        assert encode_report(report) == json.dumps(plain(report), indent=2)


def test_census_report_writes_each_value_and_type_once(censuses, ex1_sys, ex2_sys):
    alphabet = {"convex-ex1": ex1_sys.alphabet_size, "convex-ex2": ex2_sys.alphabet_size}
    for name, (census, pt) in censuses.items():
        report = plain(census.to_json(pt))
        values, types = report["values"], report["types"]
        assert len({json.dumps(v, sort_keys=True) for v in values}) == len(values)
        assert len({tuple(t) for t in types}) == len(types)
        assert all(0 <= i < len(values) for t in types for i in t)
        for lv in report["levels"]:
            assert all(0 <= t < len(types) for t in lv["types"])
            assert len(lv["types"]) == lv["distinct_types"] == report["counts"][lv["level"] - 1]
            assert len(lv["word_counts"]) == len(lv["witnesses"]) == len(lv["types"])
            if name in alphabet:
                # every word of the level has exactly one type
                assert sum(lv["word_counts"]) == alphabet[name] ** lv["level"]
