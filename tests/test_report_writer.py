"""The report writer against its oracle, ``json.dumps(obj, indent=2)``."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sepkit import (
    OpenSetApprox,
    RationalInterval,
    constructed_v_type_census,
    convex_type_census,
)
from sepkit.cli import encode_report
from sepkit.separation import DISPLAY_DIGITS

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


def _census_report_per_entry(census, pt) -> dict:
    """The census report with every entry formatted on its own."""
    return {
        "open_set": census.open_set,
        "counts": list(census.counts),
        "levels": [
            {
                "level": lv.level,
                "distinct_types": len(lv.types),
                "types": [
                    {
                        "displacements": [
                            {"value": v.to_json(), "decimal": pt.eval_decimal(v, DISPLAY_DIGITS)}
                            for v in t.displacements
                        ],
                        "count": t.count,
                        "witness": str(t.witness),
                    }
                    for t in lv.types
                ],
            }
            for lv in census.levels
        ],
        "caveats": list(census.caveats),
    }


def test_census_report_shares_one_list_per_type(ex1_sys, ex1_pt, ex2_sys, ex2_pt, eighth_pt):
    seed = RationalInterval(Fraction(3, 7), Fraction(4, 7))
    for census, pt in [
        (convex_type_census(ex1_sys, ex1_pt, 12), ex1_pt),
        (convex_type_census(ex2_sys, ex2_pt, 8), ex2_pt),
        (convex_type_census(ex1_sys, eighth_pt, 10), eighth_pt),
        (constructed_v_type_census(ex1_sys, ex1_pt, OpenSetApprox(ex1_sys, seed, 10), 8), ex1_pt),
    ]:
        report = census.to_json(pt)
        assert report == _census_report_per_entry(census, pt)
        assert encode_report(report) == json.dumps(report, indent=2)
        lists = {}
        for lv, level_json in zip(census.levels, report["levels"]):
            for entry, entry_json in zip(lv.types, level_json["types"]):
                lists.setdefault(id(entry.displacements), entry_json["displacements"])
                assert entry_json["displacements"] is lists[id(entry.displacements)]
        assert len(lists) < sum(len(lv.types) for lv in census.levels)
