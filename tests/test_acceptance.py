"""Acceptance suite: one test per acceptance criterion, printed pass/fail lines.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  Each check runs at its stated tolerance and time budget.
"""

import time
from fractions import Fraction as F

import pytest

from sepkit import (
    AffineExpr,
    DrivingSequence,
    OpenSetApprox,
    RationalInterval,
    RationalParam,
    constructed_v_type_census,
    convex_type_census,
    diagram_for_level,
    distinctness_check,
    emit_svg,
    endpoint_separation,
    exact_overlap_scan,
    example_template,
    map_at_zero,
    osc_dimension,
    param_point,
    run_construction,
    verify_osc_open_set,
    wsp_min_displacement,
)
from sepkit.separation import displacement_levels

from bruteforce import affine_bounds, brute_force_displacements, contains_interval

RECORDED_PREFIX = format(0xC96C5795D7870F42, "064b")


def check(criterion: str, description: str, ok: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {criterion}: {description}"


# --- criterion 1: parameter reproduction, example 1 ---------------------------


def test_criterion_01_example1_parameter_decimal(ex1_template, tm):
    start = time.perf_counter()
    pt = param_point(ex1_template, tm, budget=60)
    value = pt.eval_decimal(AffineExpr.parameter(), 10)
    elapsed = time.perf_counter() - start
    check("1 (a)", f"eval_decimal(a, 10) = {value} in {elapsed:.3f}s",
          value == "0.1354645854" and elapsed < 1.0)


@pytest.mark.xfail(
    strict=True,
    reason="the printed reference value 0.9482520978 equals 7 x 0.1354645854, i.e. "
    "it was produced by scaling an already-rounded quantity; the exact product "
    "7a = 0.9482520974785... correctly rounds to 0.9482520975 (see the companion "
    "regression test, which pins the exact rounding and proves the reference "
    "value is not a correct rounding)",
)
def test_criterion_01_example1_seven_a_printed_value(ex1_pt):
    value = ex1_pt.eval_decimal(AffineExpr.parameter(7), 10)
    check("1 (7a)", f"eval_decimal(7a, 10) = {value}, required 0.9482520978",
          value == "0.9482520978")


def test_criterion_01_companion_seven_a_exact_rounding(ex1_pt):
    value = ex1_pt.eval_decimal(AffineExpr.parameter(7), 10)
    # exact window bounds prove 7a < 0.94825209775, so no correct rounding
    # to 10 digits can end in ...78
    lo, hi = affine_bounds(AffineExpr.parameter(7), ex1_pt.window(40))
    check(
        "1 (7a, exact)",
        f"eval_decimal(7a, 10) = {value}; window bound 7a <= {float(hi):.13f}",
        value == "0.9482520975" and hi < F("0.94825209775"),
    )


# --- criterion 2: parameter reproduction, example 2 ---------------------------


def test_criterion_02_example2_decimals(ex2_pt):
    start = time.perf_counter()
    sixteen_a = ex2_pt.eval_decimal(AffineExpr.parameter(16), 10)
    a = ex2_pt.eval_decimal(AffineExpr.parameter(), 10)
    third = ex2_pt.eval_decimal(AffineExpr(F(15, 16), F(-16)), 10)
    elapsed = time.perf_counter() - start
    ok = (
        sixteen_a == "0.7493705552"
        and a == "0.0468356597"
        and third == "0.1881294448"
        and elapsed < 1.0
    )
    check("2", f"16a={sixteen_a}, a={a}, 15/16-16a={third} in {elapsed:.3f}s", ok)


# --- criterion 3: weak separation bound, example 1 ----------------------------


def _brute_min_displacement_60_digits(sys, pt, max_level):
    """Independent oracle: full enumeration + interval evaluation at 60 digits."""
    level = 1
    while pt.window(level).width >= F(1, 10**60):
        level += 1
    window = pt.window(level)
    distinct = {}
    m = sys.ratio_denominator
    for k in range(1, max_level + 1):
        origins = [map_at_zero(sys, w) for w in sys.words(k)]
        scale = m**k
        for va in origins:
            for vb in origins:
                e = (vb - va).scale(scale)
                if e.p == 0 and e.q == 0:
                    continue
                distinct.setdefault((e.p, e.q), e)
    best = None  # (abs_lo, abs_hi, expr)
    for e in distinct.values():
        lo, hi = affine_bounds(e, window)
        if lo > 0:
            interval, abs_expr = (lo, hi), e
        elif hi < 0:
            interval, abs_expr = (-hi, -lo), -e
        else:
            raise AssertionError(f"60-digit window cannot resolve the sign of {e}")
        if best is None or interval[1] < best[0]:
            best = (*interval, abs_expr)
        elif interval[0] <= best[1] and (abs_expr.p, abs_expr.q) != (best[2].p, best[2].q):
            raise AssertionError("distinct candidates too close to order at 60 digits")
    return best[2]


def test_criterion_03_wsp_bound_and_bruteforce(ex1_sys, ex1_pt):
    start = time.perf_counter()
    result = wsp_min_displacement(ex1_sys, ex1_pt, 10)
    bound_ok = ex1_pt.sign(result.minimum.abs_value - AffineExpr.constant(F(4, 7))) > 0
    brute = _brute_min_displacement_60_digits(ex1_sys, ex1_pt, 5)
    bfs5 = wsp_min_displacement(ex1_sys, ex1_pt, 5).minimum.abs_value
    sets_ok = all(
        set(level_map) == set(brute_force_displacements(ex1_sys, ex1_pt, k))
        for k, level_map in enumerate(displacement_levels(ex1_sys, ex1_pt, 5), start=1)
    )
    elapsed = time.perf_counter() - start
    ok = bound_ok and bfs5 == brute and sets_ok and elapsed < 30.0
    check(
        "3",
        f"min|displacement| at K=10 is {ex1_pt.eval_decimal(result.minimum.abs_value, 10)} "
        f">= 4/7; BFS matches 3^K x 3^K brute force for K<=5 in {elapsed:.1f}s",
        ok,
    )


# --- criterion 4: exact overlaps ----------------------------------------------


def test_criterion_04_exact_overlaps(ex1_sys, ex2_sys):
    start = time.perf_counter()
    ex2_level2 = exact_overlap_scan(ex2_sys, 2)
    ex2_level1 = exact_overlap_scan(ex2_sys, 1)
    ex1_scan = exact_overlap_scan(ex1_sys, 4)
    elapsed = time.perf_counter() - start
    ok = (
        [(str(o.left), str(o.right)) for o in ex2_level2.overlaps] == [("15", "23")]
        and ex2_level1.overlaps == ()
        and ex1_scan.overlaps == ()
        and ex1_scan.derived == ()
        and elapsed < 10.0
    )
    check("4", f"example 2 overlap exactly ('15','23') at K=2, none at K=1; "
               f"example 1 none at K=4 ({elapsed:.1f}s)", ok)


# --- criterion 5: convex finite-type dichotomy --------------------------------


def test_criterion_05_ftc_co_dichotomy(ex1_sys, ex1_pt, ex1_template, tm):
    start = time.perf_counter()
    counts = convex_type_census(ex1_sys, ex1_pt, 10).counts
    increasing = all(b > a for a, b in zip(counts, counts[1:]))
    run = run_construction(ex1_template, tm, 12)
    distinct = distinctness_check(run, ex1_pt).all_distinct
    control = RationalParam(F(1, 8))
    control_census = convex_type_census(ex1_sys, control, 10)
    control_counts = control_census.counts
    saturated = any(
        control_counts[i] == control_counts[i + 1] == control_counts[i + 2]
        for i in range(len(control_counts) - 2)
    )
    # denominator certificate: every displacement value lies in (1/8)Z
    denominators_ok = all(
        (v.evaluate(F(1, 8)) * 8).denominator == 1
        for level in control_census.levels
        for entry in level.types
        for v in entry.displacements
    )
    elapsed = time.perf_counter() - start
    ok = increasing and distinct and saturated and denominators_ok and elapsed < 60.0
    check(
        "5",
        f"type counts {counts} strictly increase; gaps distinct to level 12; "
        f"a=1/8 control saturates {control_counts} with all displacements in (1/8)Z "
        f"({elapsed:.1f}s)",
        ok,
    )


# --- criterion 6: finite type with the constructed open set -------------------


def test_criterion_06_constructed_open_set_types(ex2_sys, ex2_pt):
    start = time.perf_counter()
    open_set = OpenSetApprox(ex2_sys, RationalInterval.make(F(7, 16), F(8, 16)), 10)
    census = constructed_v_type_census(ex2_sys, ex2_pt, open_set, 8)
    shapes = {
        tuple(str(v) for v in entry.displacements)
        for level in census.levels
        for entry in level.types
    }
    elapsed = time.perf_counter() - start
    ok = (
        census.counts == (3,) * 8
        and shapes == {("0",), ("0", "16*a"), ("-16*a", "0")}
        and elapsed < 60.0
    )
    check("6", f"levels 1-8 at truncation 10 give exactly the three types "
               f"{{0}}, {{0,16a}}, {{0,-16a}} ({elapsed:.1f}s)", ok)


# --- criterion 7: open set condition, example 1 --------------------------------


def test_criterion_07_osc(ex1_sys, ex1_pt):
    start = time.perf_counter()
    good = verify_osc_open_set(ex1_sys, ex1_pt, RationalInterval.make(F(3, 7), F(4, 7)), 8)
    convex = verify_osc_open_set(ex1_sys, ex1_pt, RationalInterval.make(0, 1), 0)
    elapsed = time.perf_counter() - start
    ok = (
        good.passed
        and not convex.passed
        and (convex.violations[0].map_left, convex.violations[0].map_right) == (1, 2)
        and elapsed < 30.0
    )
    check("7", f"seed (3/7,4/7) passes at depth 8; convex seed (0,1) fails at "
               f"depth 0 on maps (1,2) ({elapsed:.1f}s)", ok)


# --- criterion 8: endpoint separation ------------------------------------------


def test_criterion_08_endpoint_separation(ex1_sys, ex1_pt):
    start = time.perf_counter()
    report = endpoint_separation(ex1_sys, ex1_pt, 8, F(4, 7))
    elapsed = time.perf_counter() - start
    ok = report.passed and elapsed < 60.0
    min_dec = ex1_pt.eval_decimal(report.corresponding.min_abs, 10)
    check("8", f"levels <= 8 with c = 4/7: corresponding endpoints equal or "
               f"separated (min {min_dec} > 4/7 ~ 0.5714285714) ({elapsed:.1f}s)", ok)


# --- criterion 9: dimension ------------------------------------------------------


def test_criterion_09_dimension(ex1_sys):
    value = F(osc_dimension(ex1_sys, 12))
    ok = abs(value - F("0.564575")) < F(1, 10**6) and 0 < value < 1
    check("9", f"log(3)/log(7) = {float(value):.9f}, within 1e-6 of 0.564575, in (0,1)", ok)


# --- criterion 10: construction invariants ---------------------------------------


def test_criterion_10_construction_invariants():
    start = time.perf_counter()
    sequences = (
        DrivingSequence.thue_morse(),
        DrivingSequence.fibonacci(),
        DrivingSequence.from_bits(RECORDED_PREFIX),
    )
    ok = True
    for which in (1, 2):
        tmpl = example_template(which)
        m = tmpl.system.ratio_denominator
        for seq in sequences:
            depth = 65 if seq.kind == "explicit-prefix" else 25
            run = run_construction(tmpl, seq, depth)
            for prev, state in zip(run.states, run.states[1:]):
                ok &= contains_interval(prev.window, state.window)
                images = {
                    state.gap.evaluate(state.window.lo),
                    state.gap.evaluate(state.window.hi),
                }
                ok &= images == {F(0), F(1, m**state.level)}
                if which == 1 and state.choice == "option1":
                    ok &= state.gap == prev.gap + AffineExpr.constant(F(-6, 7**state.level))
                if which == 1 and state.choice == "option2":
                    ok &= state.gap == (
                        -prev.gap
                        + AffineExpr.constant(F(6, 7**state.level))
                        - AffineExpr.parameter(F(1, 7 ** (state.level - 1)))
                    )
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 10.0
    check("10", f"nesting, exact endpoint images, and option recurrences hold for "
                f"both systems x (thue-morse, fibonacci, recorded 64-bit prefix) "
                f"({elapsed:.1f}s)", ok)


# --- criterion 11: renderer -------------------------------------------------------


def test_criterion_11_renderer(tmp_path, ex1_sys, ex1_pt, ex1_template, tm):
    run = run_construction(ex1_template, tm, 3)
    d1 = diagram_for_level(ex1_sys, ex1_pt, run, 1)
    d2 = diagram_for_level(ex1_sys, ex1_pt, run, 2)
    p1 = emit_svg(d1, tmp_path / "example1-level1.svg")
    p2 = emit_svg(d2, tmp_path / "example1-level2.svg")
    text1, text2 = p1.read_text(), p2.read_text()
    again = emit_svg(d1, tmp_path / "again.svg").read_text()
    # markers: overlap of ("1","2") is [a, 1/7]; of ("13","21") also [a, 1/7]
    marker_a = ex1_pt.eval_decimal(AffineExpr.parameter(d1.scale).shift(40), d1.decimals)
    marker_b = ex1_pt.eval_decimal(AffineExpr.constant(F(d1.scale, 7)).shift(40), d1.decimals)
    ok = (
        text1.count("<rect") == 3
        and text2.count("<rect") == 6
        and text1.count("<line") == 2
        and text2.count("<line") == 2
        and d1.markers == (AffineExpr.parameter(), AffineExpr.constant(F(1, 7)))
        and d2.markers == (AffineExpr.parameter(), AffineExpr.constant(F(1, 7)))
        and f'x1="{marker_a}"' in text1
        and f'x1="{marker_b}"' in text1
        and f'x1="{marker_a}"' in text2
        and again == text1
    )
    check("11", "3 and 6 cylinder rects, markers at the exact overlap endpoints, "
                "byte-identical re-render", ok)
