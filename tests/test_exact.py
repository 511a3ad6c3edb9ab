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
    window_ends,
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
    pt = ParamPoint(refiner)
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
    """A finite window chain that, like the construction, deepens on demand.

    A read past the end builds the whole chain, as the engine does
    before its driving data runs out.
    """

    def __init__(self, windows):
        self._windows = windows
        self.depth = 0

    def window(self, level):
        self.depth = max(self.depth, min(level, len(self._windows)))
        if level > len(self._windows):
            raise RefinementExhausted(len(self._windows))
        return self._windows[level - 1]

    def ends(self, level):
        return window_ends(self.window(level))


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
    # asked again, the form is decided again, to the same outcome
    assert _outcome(pt.sign_lattice, *scaled) == expected


@given(sign_cases(), st.integers(1, 12), st.integers(1, 6))
def test_integer_decimal_matches_the_fraction_window_walk(case, digits, budget):
    windows, e = case
    expected = _outcome(
        _reference_decimal, ParamPoint(_GrowingRefiner(windows), budget=budget), e, digits
    )
    pt = ParamPoint(_GrowingRefiner(windows), budget=budget)
    assert _outcome(pt.eval_decimal, e, digits) == expected
    # asked again on the deeper chain: the same answer, or the same failure
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
    # nothing is remembered, so the same budget fails the same way again
    with pytest.raises(Undecided) as again:
        pt.sign(e)
    assert str(again.value) == str(first.value)
    pt.budget = DEFAULT_SIGN_BUDGET
    assert pt.sign(e) == param_point(ex1_template, tm).sign(e)


def test_sign_and_decimal_misses_read_integer_window_ends(ex1_template, tm, monkeypatch):
    # every query reads its windows as integer ends through the refiner
    from sepkit import param_point
    from sepkit.construction import RefinementEngine

    e = AffineExpr(-midpoint(param_point(ex1_template, tm).window(12)), F(1))
    fetched = []
    ends = RefinementEngine.ends

    def counted(self, level):
        fetched.append(level)
        return ends(self, level)

    monkeypatch.setattr(RefinementEngine, "ends", counted)
    monkeypatch.setattr(ParamPoint, "window", None)
    pt = param_point(ex1_template, tm)
    pt.sign(e)
    # a sign miss walks the chain one level at a time
    assert len(fetched) > 1 and fetched == list(range(1, len(fetched) + 1))
    # a decimal miss starts at the deepest window computed so far and
    # reads deeper windows only, possibly skipping levels
    deepest = fetched[-1]
    fetched.clear()
    pt.eval_decimal(AffineExpr.parameter(7), 20)
    assert len(fetched) > 1 and fetched[0] == deepest
    assert all(a < b for a, b in zip(fetched, fetched[1:]))
    fetched.clear()
    fresh = param_point(ex1_template, tm)
    fresh.eval_decimal(AffineExpr.parameter(7), 20)
    assert len(fetched) > 1 and fetched[0] == 1
    assert all(a < b for a, b in zip(fetched, fetched[1:]))


# --- the held window: the deepest window a point's queries have read ---------


def test_sign_miss_decided_by_the_held_window_reads_no_window(ex1_template, tm, monkeypatch):
    from sepkit import param_point
    from sepkit.construction import RefinementEngine

    chain = param_point(ex1_template, tm)
    near = [AffineExpr(-midpoint(chain.window(k)), F(1)) for k in (6, 12, 20)]
    expected = [chain.sign(e) for e in near]
    fetched = []
    ends = RefinementEngine.ends
    monkeypatch.setattr(RefinementEngine, "ends", lambda self, level: fetched.append(level)
                        or ends(self, level))
    pt = param_point(ex1_template, tm)
    assert pt.sign(near[1]) == expected[1]
    deepest = fetched[-1]
    fetched.clear()
    # a form whose root the held window already leaves out
    assert pt.sign(near[0]) == expected[0]
    # the same form again: a point keeps no answers, and the held window decides it
    assert pt.sign(near[1]) == expected[1]
    assert fetched == []
    # a miss the held window leaves open reads the chain from one level deeper
    assert pt.sign(near[2]) == expected[2]
    assert fetched[0] == deepest + 1
    assert fetched == list(range(deepest + 1, deepest + 1 + len(fetched)))


def test_sign_after_the_budget_is_lowered_below_the_held_window(ex1_template, tm):
    from sepkit import param_point

    chain = param_point(ex1_template, tm)
    deep = AffineExpr(-midpoint(chain.window(30)), F(1))
    forms = [AffineExpr(-midpoint(chain.window(k)), F(1)) for k in (2, 5, 9, 20)]
    outcomes = []
    for budget in (1, 3, 12, 25):
        pt = param_point(ex1_template, tm)
        pt.sign(deep)
        pt.budget = budget
        fresh = param_point(ex1_template, tm, budget=budget)
        outcomes.append([_outcome(pt.sign, e) for e in forms])
        assert outcomes[-1] == [_outcome(fresh.sign, e) for e in forms]
    # the held window decides every form, the chain up to budget 3 only one
    assert [o[0] for o in outcomes[1]] == ["decided"] + ["undecided"] * 3
    assert [o[0] for o in outcomes[3]] == ["decided"] * 4


@st.composite
def shared_point_cases(draw):
    """One window chain, and forms on it each asked at its own budget."""
    windows, first = draw(sign_cases())
    forms = [first]
    for _ in range(draw(st.integers(1, 7))):
        if draw(st.booleans()):
            win = draw(st.sampled_from(windows))
            root = draw(st.sampled_from([win.lo, win.hi, midpoint(win)]))
            c = draw(nonzero)
            forms.append(AffineExpr(-c * root, c))
        else:
            forms.append(draw(affines))
    order = draw(st.permutations(forms + forms[: draw(st.integers(0, len(forms)))]))
    return windows, [(e, draw(st.integers(1, 6))) for e in order]


@given(shared_point_cases())
def test_signs_on_a_shared_point_match_the_fraction_root_walk(case):
    # queries in any order, at budgets raised and lowered in between, on one point
    # each outcome is a fresh point's at the budget of the moment: nothing
    # is remembered, and a held window deeper than the budget is not read
    windows, queries = case
    pt = ParamPoint(_GrowingRefiner(windows))
    for e, budget in queries:
        pt.budget = budget
        expected = _outcome(_reference_sign, ParamPoint(_GrowingRefiner(windows), budget=budget), e)
        assert _outcome(pt.sign, e) == expected


# --- decimals that jump ahead, against the level-by-level walk ---------------

JUMP_FORMS = (AffineExpr.parameter(), AffineExpr(F(1, 5), F(-3)))


def _needed_level(which, e, digits):
    """The level of the first window that decides ``e`` to ``digits`` digits."""
    from sepkit import example_point

    pt = example_point(which, budget=5000)
    _reference_decimal(pt, e, digits)
    return pt.refiner.depth


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("digits", [1, 2, 9, 64, 333, 600])
@pytest.mark.parametrize("start", [1, 40])
def test_decimal_jump_matches_the_walk_on_engine_chains(which, digits, start):
    # budgets just below, at and above the level the answer needs, on a
    # fresh chain and on one a run has built to level 40
    from sepkit import example_point

    for e in JUMP_FORMS:
        needed = _needed_level(which, e, digits)
        for budget in sorted({max(start, needed + d) for d in (-1, 0, 1)}):
            walked, jumped = example_point(which, budget=budget), example_point(which, budget=budget)
            walked.refiner.run(start)
            jumped.refiner.run(start)
            expected = _outcome(_reference_decimal, walked, e, digits)
            assert _outcome(jumped.eval_decimal, e, digits) == expected
            assert expected[0] == ("decided" if budget >= needed else "undecided")
            # the jumps build no level the walk does not
            assert jumped.refiner.depth <= walked.refiner.depth


# the first 30 Thue-Morse bits: the chain of this prefix ends at level 31,
# which is the first window to decide 26 digits of a; 35 digits need level 42
THUE_MORSE_30 = "011010011001011010010110011010"


@pytest.mark.parametrize("digits", [26, 35])
def test_decimal_jump_on_a_finite_prefix_reads_its_last_window(ex1_template, digits, monkeypatch):
    from sepkit import DrivingSequence, param_point
    from sepkit.construction import RefinementEngine

    seq = DrivingSequence.from_bits(THUE_MORSE_30)
    e = AffineExpr.parameter()
    expected = _outcome(_reference_decimal, param_point(ex1_template, seq), e, digits)
    read = []
    ends = RefinementEngine.ends
    monkeypatch.setattr(RefinementEngine, "ends", lambda self, level: read.append(level) or ends(self, level))
    assert _outcome(param_point(ex1_template, seq).eval_decimal, e, digits) == expected
    if digits == 26:
        assert expected == ("decided", "0.13546458535407347981096157")
        assert read[-1] == 31
    else:
        # a jump went past the end of the chain, and the last window was
        # read before the query gave up
        assert expected == ("undecided", "decimal value of 1*a undecided (refined to depth 30)", 30)
        assert read[read.index(31) - 1] > 31


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
    # an answer asked again is what a fresh point gives, however deep the
    # chain has been refined since, and it depends on the digit count
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
    with pytest.raises(Undecided) as first:
        pt.eval_decimal(seven_a, 40)
    with pytest.raises(Undecided) as again:
        pt.eval_decimal(seven_a, 40)
    assert str(again.value) == str(first.value)
    pt.budget = DEFAULT_SIGN_BUDGET
    assert pt.eval_decimal(seven_a, 40) == param_point(ex1_template, tm).eval_decimal(
        seven_a, 40
    )


def test_rational_literal_size_is_capped():
    from sepkit.exact import MAX_LITERAL_DIGITS, rational_from_str

    assert MAX_LITERAL_DIGITS == 4300
    # the text's length plus its exponent: 6 + 4294
    assert rational_from_str("1e4294") == 10**4294
    assert rational_from_str("-2.5E-3") == F(-1, 400)
    assert rational_from_str(" 3/7 ") == F(3, 7)
    for text in ("1e4295", "1E-4295", "0.5e+4299", "7" * 4301, "1/" + "7" * 4299,
                 "1e" + "9" * 5000):
        with pytest.raises(ValueError, match="exceeds 4300 digits"):
            rational_from_str(text)
    with pytest.raises(ValueError):
        rational_from_str("1e")


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


def test_concurrent_sign_misses_share_the_held_window(ex1_template, tm):
    # threads that deepen and read the held window at once still get the
    # sequential answers, and the held window stays a window of the chain
    import random
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from sepkit import param_point

    chain = param_point(ex1_template, tm)
    queries = [AffineExpr(-midpoint(chain.window(k)), F(1)) for k in range(2, 40)]
    queries += [AffineExpr(-chain.window(k).lo, F(1)) for k in range(2, 40)]
    expected = {e: chain.sign(e) for e in queries}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(3):
            random.Random(seed).shuffle(queries)
            fresh = param_point(ex1_template, tm)
            with ThreadPoolExecutor(max_workers=8) as pool:
                got = list(pool.map(fresh.sign, queries, timeout=60))
            assert got == [expected[e] for e in queries]
            level, *ends = fresh._held
            assert level > 1 and tuple(ends) == fresh.refiner.ends(level)
    finally:
        sys.setswitchinterval(interval)
