import xml.etree.ElementTree as ET
from fractions import Fraction as F

import pytest

from sepkit import (
    AffineExpr,
    Word,
    cylinder,
    diagram_for_level,
    emit_svg,
    render_levels,
    run_construction,
)


@pytest.fixture(scope="module")
def ex1_run(ex1_template, tm):
    return run_construction(ex1_template, tm, 4)


@pytest.fixture(scope="module")
def ex2_run(ex2_template, tm):
    return run_construction(ex2_template, tm, 3)


def test_diagram_level1_example1(ex1_sys, ex1_pt, ex1_run):
    d = diagram_for_level(ex1_sys, ex1_pt, ex1_run, 1)
    assert len(d.rows) == 1
    label, cylinders = d.rows[0]
    assert [str(c.word) for c in cylinders] == ["1", "2", "3"]
    assert d.markers == (AffineExpr.parameter(), AffineExpr.constant(F(1, 7)))


def test_diagram_level2_example1(ex1_sys, ex1_pt, ex1_run):
    d = diagram_for_level(ex1_sys, ex1_pt, ex1_run, 2)
    assert len(d.rows) == 2
    assert [str(c.word) for c in d.rows[0][1]] == ["11", "12", "13"]
    assert [str(c.word) for c in d.rows[1][1]] == ["21", "22", "23"]
    # overlap of the tracked pair ("13", "21"): [S_21(0), S_13(1)]
    assert d.markers == (
        cylinder(ex1_sys, Word.parse("21")).left,
        cylinder(ex1_sys, Word.parse("13")).right,
    )


def test_diagram_level1_example2(ex2_sys, ex2_pt, ex2_run):
    d = diagram_for_level(ex2_sys, ex2_pt, ex2_run, 1)
    assert len(d.rows[0][1]) == 5
    assert d.markers == (AffineExpr.parameter(), AffineExpr.constant(F(1, 16)))


def test_diagram_level_out_of_range(ex1_sys, ex1_pt, ex1_run):
    with pytest.raises(ValueError):
        diagram_for_level(ex1_sys, ex1_pt, ex1_run, 9)
    with pytest.raises(ValueError):
        diagram_for_level(ex1_sys, ex1_pt, ex1_run, 0)



@pytest.mark.parametrize("levels", [0, -2])
def test_render_levels_below_one_writes_nothing(ex1_sys, ex1_pt, ex1_run, tmp_path, levels):
    with pytest.raises(ValueError):
        render_levels(ex1_sys, ex1_pt, ex1_run, levels, tmp_path / "figs", "example1")
    assert not (tmp_path / "figs").exists()


@pytest.mark.parametrize("option", ["scale", "decimals"])
def test_render_bad_option_names_itself(ex1_sys, ex1_pt, ex1_run, tmp_path, option):
    # each refusal names the argument it refuses, before the directory is made
    with pytest.raises(ValueError, match=f"^{option} must be >= 1$"):
        render_levels(ex1_sys, ex1_pt, ex1_run, 2, tmp_path / "figs", "example1", **{option: 0})
    assert not (tmp_path / "figs").exists()


def _counts(path):
    text = path.read_text()
    return text.count("<rect"), text.count("<line")


def test_svg_structure_counts(tmp_path, ex1_sys, ex1_pt, ex1_run):
    d1 = diagram_for_level(ex1_sys, ex1_pt, ex1_run, 1)
    p1 = emit_svg(d1, tmp_path / "level1.svg")
    assert _counts(p1) == (3, 2)
    d2 = diagram_for_level(ex1_sys, ex1_pt, ex1_run, 2)
    p2 = emit_svg(d2, tmp_path / "level2.svg")
    assert _counts(p2) == (6, 2)
    assert p2.read_text().count("<g ") == 2


def test_svg_is_wellformed_xml(tmp_path, ex1_sys, ex1_pt, ex1_run):
    d = diagram_for_level(ex1_sys, ex1_pt, ex1_run, 2)
    path = emit_svg(d, tmp_path / "check.svg")
    root = ET.parse(path).getroot()
    assert root.tag.endswith("svg")


def test_svg_deterministic(tmp_path, ex1_sys, ex1_pt, ex1_run):
    d = diagram_for_level(ex1_sys, ex1_pt, ex1_run, 2)
    a = emit_svg(d, tmp_path / "a.svg").read_bytes()
    b = emit_svg(d, tmp_path / "b.svg").read_bytes()
    assert a == b


def test_svg_coordinates_match_exact_values(tmp_path, ex1_sys, ex1_pt, ex1_run):
    d = diagram_for_level(ex1_sys, ex1_pt, ex1_run, 1)
    path = emit_svg(d, tmp_path / "coords.svg")
    root = ET.parse(path).getroot()
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    by_word = {el.attrib["data-word"]: el for el in rects}
    # x(S_2) = margin + a * scale, rounded to the configured digits
    expected = ex1_pt.eval_decimal(AffineExpr.parameter(d.scale).shift(40), d.decimals)
    assert by_word["2"].attrib["x"] == expected
    assert by_word["1"].attrib["width"] == ex1_pt.eval_decimal(
        AffineExpr.constant(F(d.scale, 7)), d.decimals
    )


def test_svg_marker_positions(tmp_path, ex1_sys, ex1_pt, ex1_run):
    d = diagram_for_level(ex1_sys, ex1_pt, ex1_run, 2)
    path = emit_svg(d, tmp_path / "markers.svg")
    root = ET.parse(path).getroot()
    lines = [el for el in root.iter() if el.tag.endswith("line")]
    xs = {el.attrib["x1"] for el in lines}
    expected = {
        ex1_pt.eval_decimal(marker.scale(d.scale).shift(40), d.decimals)
        for marker in d.markers
    }
    assert xs == expected
