from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from sepkit import (
    AffineExpr,
    ParamPoint,
    RationalInterval,
    RationalParam,
    Undecided,
    rational_from_str,
    rational_to_str,
    round_decimal,
)
from sepkit.exact import DEFAULT_SIGN_BUDGET, RefinementExhausted

from bruteforce import (
    StaticRefiner,
    abs_expr,
    affine_bounds,
    compare,
    contains,
    contains_interval,
    intersect,
    midpoint,
    solve_affine_band,
)

rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)
affines = st.builds(AffineExpr, rationals, rationals)


def test_rational_serialization_examples():
    assert rational_to_str(F(47, 350)) == "47/350"
    assert rational_to_str(F(7)) == "7/1"
    assert rational_from_str("47/350") == F(47, 350)
    assert rational_from_str("-3") == F(-3)


@given(rationals)
def test_rational_roundtrip(x):
    assert rational_from_str(rational_to_str(x)) == x


def test_round_decimal_basics():
    assert round_decimal(F(1, 2), 3) == "0.500"
    assert round_decimal(F(1, 3), 4) == "0.3333"
    assert round_decimal(F(2, 3), 4) == "0.6667"
    assert round_decimal(F(-1, 3), 2) == "-0.33"
    assert round_decimal(F(-1, 10**9), 3) == "0.000"  # no negative zero
    with pytest.raises(ValueError):
        round_decimal(F(1), 0)


def test_round_decimal_half_to_even():
    assert round_decimal(F(25, 1000), 2) == "0.02"
    assert round_decimal(F(35, 1000), 2) == "0.04"


@given(affines, affines, rationals)
def test_affine_ring_ops_match_evaluation(e1, e2, a):
    assert (e1 + e2).evaluate(a) == e1.evaluate(a) + e2.evaluate(a)
    assert (e1 - e2).evaluate(a) == e1.evaluate(a) - e2.evaluate(a)
    assert (-e1).evaluate(a) == -e1.evaluate(a)
    assert e1.scale(F(3, 2)).evaluate(a) == e1.evaluate(a) * F(3, 2)
    assert e1.shift(F(1, 3)).evaluate(a) == e1.evaluate(a) + F(1, 3)


def test_affine_json_roundtrip():
    e = AffineExpr(F(48, 343), F(-50, 49))
    assert AffineExpr.from_json(e.to_json()) == e
    assert e.to_json() == {"p": "48/343", "q": "-50/49"}


@given(affines, rationals, rationals)
def test_solve_affine_band(e, lo, hi):
    if e.q == 0 or lo >= hi:
        return
    band = solve_affine_band(e, lo, hi)
    assert band is not None
    # endpoints map exactly onto the band limits
    assert sorted([e.evaluate(band.lo), e.evaluate(band.hi)]) == sorted([lo, hi])
    assert lo < e.evaluate(midpoint(band)) < hi


def test_interval_basics():
    j = RationalInterval.make(0, F(1, 7))
    assert j.width == F(1, 7)
    assert contains(j, F(1, 10))
    assert not contains(j, F(0))
    assert intersect(j, RationalInterval.make(F(1, 14), 1)) == RationalInterval.make(
        F(1, 14), F(1, 7)
    )
    assert intersect(j, RationalInterval.make(F(1, 7), 1)) is None
    assert contains_interval(j, j)
    assert contains_interval(j, RationalInterval.make(F(1, 14), F(1, 7)))
    assert not contains_interval(j, RationalInterval.make(F(1, 14), F(1, 6)))
    with pytest.raises(ValueError):
        RationalInterval.make(1, 0)


# --- sign oracle ------------------------------------------------------------


def test_sign_constant_expression(ex1_pt):
    assert ex1_pt.sign(AffineExpr.constant(F(1, 2))) == 1
    assert ex1_pt.sign(AffineExpr.constant(F(-1, 2))) == -1
    assert ex1_pt.sign(AffineExpr.constant(0)) == 0


def test_sign_at_example1_parameter(ex1_pt):
    assert ex1_pt.sign(AffineExpr.parameter()) == 1  # a > 0
    assert ex1_pt.sign(AffineExpr(F(-1, 7), F(1))) == -1  # a < 1/7
    assert ex1_pt.sign(AffineExpr(F(-47, 350), F(1))) == 1  # a > lo(J_3)


def test_sign_never_zero_for_nonconstant_when_irrational(ex1_pt):
    assert ex1_pt.irrationality_assumed
    for e in (AffineExpr(F(1, 3), F(-2)), AffineExpr(F(-47, 350), F(1))):
        assert ex1_pt.sign(e) in (-1, 1)


def test_sign_undecided_on_exhausted_chain():
    refiner = StaticRefiner([RationalInterval.make(0, 1), RationalInterval.make(F(1, 4), F(3, 4))])
    pt = ParamPoint(refiner, label="stub")
    # root 1/2 stays inside both windows and the chain cannot extend
    with pytest.raises(Undecided):
        pt.sign(AffineExpr(F(-1, 2), F(1)))
    # but a separated root decides fine
    assert pt.sign(AffineExpr(F(-7, 8), F(1))) == -1


def test_sign_undecided_on_budget(ex1_template, tm):
    from sepkit import param_point

    pt = param_point(ex1_template, tm, budget=3)
    # root extremely close to the parameter needs more depth than allowed
    win = param_point(ex1_template, tm).window(30)
    with pytest.raises(Undecided):
        pt.sign(AffineExpr(-midpoint(win), F(1)))


# --- the integer window walk against the Fraction window walks ----------------


def _reference_sign(pt, e):
    """The window walk ``ParamPoint.sign`` used before its integer test.

    It builds the root of ``e`` as a Fraction and decides when a whole
    window lies on one side of it; nothing is cached.
    """
    if e.q == 0:
        return (e.p > 0) - (e.p < 0)
    budget = pt.budget
    rho = -e.p / e.q
    qsign = 1 if e.q > 0 else -1
    level = max(1, pt.refiner.depth)
    while True:
        try:
            win = pt.window(level)
        except RefinementExhausted as exc:
            raise Undecided(f"sign of {e} undecided", exc.depth) from exc
        if win.hi <= rho:
            return -qsign
        if win.lo >= rho:
            return qsign
        if level >= budget:
            raise Undecided(f"sign of {e} undecided within budget", budget)
        level += 1


def _reference_decimal(pt, e, digits):
    """The window walk ``ParamPoint.eval_decimal`` used before the shared loop.

    It evaluates ``e`` as a Fraction at both ends of each window and
    decides when the two round alike; nothing is cached.
    """
    if e.q == 0:
        return round_decimal(e.p, digits)
    level = max(1, pt.refiner.depth)
    while True:
        try:
            win = pt.window(level)
        except RefinementExhausted as exc:
            raise Undecided(f"decimal value of {e} undecided", exc.depth) from exc
        v0, v1 = e.evaluate(win.lo), e.evaluate(win.hi)
        lo, hi = (v0, v1) if v0 <= v1 else (v1, v0)
        s_lo = round_decimal(lo, digits)
        if s_lo == round_decimal(hi, digits):
            return s_lo
        if level >= pt.budget:
            raise Undecided(f"decimal value of {e} undecided within budget", pt.budget)
        level += 1


class _GrowingRefiner:
    """A finite window chain that, like the construction, deepens on demand."""

    def __init__(self, windows):
        self._windows = windows
        self.depth = 0

    def window(self, level):
        if level > len(self._windows):
            raise RefinementExhausted(len(self._windows))
        self.depth = max(self.depth, level)
        return self._windows[level - 1]


def _outcome(call, *args):
    try:
        return ("decided", call(*args))
    except Undecided as exc:
        return ("undecided", str(exc), exc.depth)


nonzero = rationals.filter(lambda x: x != 0)
unit_fractions = st.fractions(min_value=0, max_value=1, max_denominator=40)


@st.composite
def sign_cases(draw):
    """A nested window chain and a form, often with its root at a window end."""
    lo = draw(rationals)
    windows = [RationalInterval(lo, lo + draw(rationals.filter(lambda x: x > 0)))]
    for _ in range(draw(st.integers(0, 4))):
        outer = windows[-1]
        t0, t1 = sorted(draw(st.lists(unit_fractions, min_size=2, max_size=2, unique=True)))
        windows.append(
            RationalInterval(outer.lo + t0 * outer.width, outer.lo + t1 * outer.width)
        )
    if draw(st.booleans()):
        win = draw(st.sampled_from(windows))
        root = draw(st.sampled_from([win.lo, win.hi, midpoint(win)]))
        c = draw(nonzero)
        return windows, AffineExpr(-c * root, c)
    return windows, draw(affines)


@given(sign_cases(), st.integers(1, 6), st.integers(1, 6), st.integers(1, 6))
def test_integer_sign_matches_the_fraction_root_walk(case, budget, kp, kq):
    windows, e = case
    expected = _outcome(_reference_sign, ParamPoint(_GrowingRefiner(windows), budget=budget), e)
    assert _outcome(ParamPoint(_GrowingRefiner(windows), budget=budget).sign, e) == expected
    # the same form given by integers that are not in lowest terms
    scaled = (e.p.numerator * kp, e.p.denominator * kp, e.q.numerator * kq, e.q.denominator * kq)
    pt = ParamPoint(_GrowingRefiner(windows), budget=budget)
    assert _outcome(pt.sign_lattice, *scaled) == expected
    # a decided sign of a non-constant form is remembered, an undecided
    # one is asked again
    assert _outcome(pt.sign_lattice, *scaled) == expected
    assert (scaled in pt._sign_cache) == (e.q != 0 and expected[0] == "decided")


@given(sign_cases(), st.integers(1, 12), st.integers(1, 6))
def test_integer_decimal_matches_the_fraction_window_walk(case, digits, budget):
    windows, e = case
    expected = _outcome(
        _reference_decimal, ParamPoint(_GrowingRefiner(windows), budget=budget), e, digits
    )
    pt = ParamPoint(_GrowingRefiner(windows), budget=budget)
    assert _outcome(pt.eval_decimal, e, digits) == expected
    # asked again on the deeper chain: the remembered answer, or the same failure
    assert _outcome(pt.eval_decimal, e, digits) == expected


@given(rationals, rationals, st.integers(1, 6), st.booleans())
def test_rational_param_integer_sign(value, c, k, through_root):
    e = AffineExpr(-c * value, c) if through_root else AffineExpr(c, value + 1)
    pt = RationalParam(value)
    at_value = e.evaluate(value)
    expected = (at_value > 0) - (at_value < 0)
    assert pt.sign(e) == expected
    assert pt.sign_lattice(
        e.p.numerator * k, e.p.denominator * k, e.q.numerator * k, e.q.denominator * k
    ) == expected
    if through_root:
        assert pt.sign(e) == 0


def test_integer_sign_undecided_messages_match_the_reference(ex1_template, tm):
    from sepkit import param_point

    # a chain cut at two windows, root 1/2 inside both
    chain = [RationalInterval.make(0, 1), RationalInterval.make(F(1, 4), F(3, 4))]
    e = AffineExpr(F(-1, 2), F(1))
    got = _outcome(ParamPoint(StaticRefiner(chain)).sign, e)
    assert got == _outcome(_reference_sign, ParamPoint(StaticRefiner(chain)), e)
    assert got[0] == "undecided" and "sign of -1/2 + 1*a undecided" in got[1]
    # a budget of three windows against a root close to the parameter
    win = param_point(ex1_template, tm).window(30)
    e = AffineExpr(3 * midpoint(win), F(-3))
    got = _outcome(param_point(ex1_template, tm, budget=3).sign, e)
    assert got == _outcome(_reference_sign, param_point(ex1_template, tm, budget=3), e)
    assert got[0] == "undecided" and "within budget" in got[1]


def test_undecided_sign_is_not_cached(ex1_template, tm):
    from sepkit import param_point

    e = AffineExpr(-midpoint(param_point(ex1_template, tm).window(30)), F(1))
    pt = param_point(ex1_template, tm, budget=3)
    with pytest.raises(Undecided) as first:
        pt.sign(e)
    assert not pt._sign_cache
    # nothing was remembered, so the same budget fails the same way again
    with pytest.raises(Undecided) as again:
        pt.sign(e)
    assert str(again.value) == str(first.value)
    pt.budget = DEFAULT_SIGN_BUDGET
    assert pt.sign(e) == param_point(ex1_template, tm).sign(e)


def test_sign_and_decimal_misses_fetch_windows_through_window(ex1_template, tm, monkeypatch):
    # the benchmark tracer counts window fetches by patching ParamPoint.window
    from sepkit import param_point

    e = AffineExpr(-midpoint(param_point(ex1_template, tm).window(12)), F(1))
    fetched = []
    window = ParamPoint.window

    def counted(self, level):
        fetched.append(level)
        return window(self, level)

    monkeypatch.setattr(ParamPoint, "window", counted)
    pt = param_point(ex1_template, tm)
    pt.sign(e)
    assert len(fetched) > 1 and fetched == list(range(1, len(fetched) + 1))
    # a decimal miss starts at the deepest window computed so far
    deepest = fetched[-1]
    fetched.clear()
    pt.eval_decimal(AffineExpr.parameter(7), 20)
    assert len(fetched) > 1 and fetched == list(range(deepest, deepest + len(fetched)))
    fetched.clear()
    fresh = param_point(ex1_template, tm)
    fresh.eval_decimal(AffineExpr.parameter(7), 20)
    assert len(fetched) > 1 and fetched == list(range(1, len(fetched) + 1))


# --- decimal evaluation -----------------------------------------------------


def test_eval_decimal_reference_values(ex1_pt, ex2_pt):
    assert ex1_pt.eval_decimal(AffineExpr.parameter(), 10) == "0.1354645854"
    assert ex2_pt.eval_decimal(AffineExpr.parameter(16), 10) == "0.7493705552"
    assert ex2_pt.eval_decimal(AffineExpr(F(15, 16), F(-16)), 10) == "0.1881294448"


def test_eval_decimal_constant(ex1_pt):
    assert ex1_pt.eval_decimal(AffineExpr.constant(F(1, 2)), 3) == "0.500"


def test_eval_decimal_prefix_consistency(ex1_pt):
    # rounding the deeper answer reproduces the shallower answer
    for digits in (2, 5, 8, 11):
        deep = F(ex1_pt.eval_decimal(AffineExpr.parameter(7), 30))
        assert round_decimal(deep, digits) == ex1_pt.eval_decimal(
            AffineExpr.parameter(7), digits
        )


def test_eval_decimal_memo_matches_fresh_points(ex1_template, tm):
    # a remembered answer is what a fresh point gives, however deep the
    # chain has been refined since; the digit count is part of the key
    from sepkit import param_point

    forms = [AffineExpr(F(-n, 7 * n + 1), F(n)) for n in range(1, 20)]
    pt = param_point(ex1_template, tm)
    first = [pt.eval_decimal(e, 12) for e in forms]
    pt.window(60)
    again = [pt.eval_decimal(e, 12) for e in forms]
    fresh = param_point(ex1_template, tm)
    assert first == again == [fresh.eval_decimal(e, 12) for e in forms]
    assert pt.eval_decimal(forms[0], 5) == fresh.eval_decimal(forms[0], 5)
    assert pt.eval_decimal(forms[0], 5) != pt.eval_decimal(forms[0], 12)


def test_eval_decimal_undecided_is_not_remembered(ex1_template, tm):
    from sepkit import param_point

    pt = param_point(ex1_template, tm, budget=2)
    seven_a = AffineExpr.parameter(7)
    with pytest.raises(Undecided):
        pt.eval_decimal(seven_a, 40)
    assert not pt._decimal_cache
    pt.budget = DEFAULT_SIGN_BUDGET
    assert pt.eval_decimal(seven_a, 40) == param_point(ex1_template, tm).eval_decimal(
        seven_a, 40
    )


def test_rational_param_is_exact():
    pt = RationalParam(F(1, 8))
    assert pt.sign(AffineExpr(F(-1, 8), F(1))) == 0
    assert pt.eval_decimal(AffineExpr(F(0), F(56)), 2) == "7.00"
    assert pt.canonical_key(AffineExpr(F(1, 8), F(-1))) == F(0)


# --- window chain invariants ------------------------------------------------


def test_windows_nested_and_shrinking(ex1_pt):
    widths = []
    previous = None
    for level in range(1, 25):
        win = ex1_pt.window(level)
        if previous is not None:
            assert previous.lo <= win.lo and win.hi <= previous.hi
        widths.append(win.width)
        previous = win
    assert widths[-1] < F(1, 10**15)
    assert all(b <= a for a, b in zip(widths, widths[1:]))


def test_value_always_inside_image_interval(ex1_pt):
    # interval images at deeper levels stay inside shallower ones
    e = AffineExpr(F(-6, 49), F(1)) + AffineExpr(F(0), F(2))
    outer = affine_bounds(e, ex1_pt.window(2))
    for level in (3, 6, 12, 20):
        inner = affine_bounds(e, ex1_pt.window(level))
        assert outer[0] <= inner[0] <= inner[1] <= outer[1]
    # and the decided sign agrees with any level whose image excludes 0
    for level in range(1, 20):
        lo, hi = affine_bounds(e, ex1_pt.window(level))
        if lo > 0 or hi < 0:
            assert ex1_pt.sign(e) == (1 if lo > 0 else -1)


def test_compare_and_abs(ex1_pt):
    seven_a = AffineExpr.parameter(7)
    one = AffineExpr.constant(1)
    assert compare(ex1_pt, seven_a, one) == -1
    assert abs_expr(ex1_pt, seven_a - one) == one - seven_a


def test_concurrent_sign_queries_are_consistent(ex1_template, tm):
    # refinement is serialized; concurrent readers get the same answers
    # a sequential run would produce
    from concurrent.futures import ThreadPoolExecutor

    from sepkit import param_point

    queries = [AffineExpr(F(-n, 7 * n + 1), F(1)) for n in range(1, 40)]
    sequential = param_point(ex1_template, tm)
    expected = [sequential.sign(e) for e in queries]
    for _ in range(3):
        fresh = param_point(ex1_template, tm)
        with ThreadPoolExecutor(max_workers=8) as pool:
            got = list(pool.map(fresh.sign, queries))
        assert got == expected
