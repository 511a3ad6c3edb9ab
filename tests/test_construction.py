import importlib.util
import json
from dataclasses import replace
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sepkit import (
    AffineExpr,
    DrivingSequence,
    EmptyRefinement,
    IfsSystem,
    ParamPoint,
    RationalInterval,
    RationalParam,
    Undecided,
    Word,
    example_template,
    fibonacci_bit,
    map_at_zero,
    param_point,
    refine_step,
    run_construction,
    thue_morse_bit,
    translation_amount,
)
from sepkit.cli import load_template
from sepkit.construction import (
    PERIODIC_WARNING,
    ConstructionTemplate,
    PeriodicLimit,
    RefinementEngine,
    RefinementOption,
)

from bruteforce import (
    contains_interval,
    cross_multiplying_step,
    refine_step_fractions,
    solve_affine_band,
    strictly_inside,
)

README = Path(__file__).resolve().parents[1] / "README.md"
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.py"

# fixed, recorded 64-bit driving prefix for the construction invariants
RECORDED_PREFIX = format(0xC96C5795D7870F42, "064b")


def test_thue_morse_first_choices():
    assert [thue_morse_bit(n) for n in range(1, 6)] == [0, 1, 1, 0, 1]
    assert thue_morse_bit(8) == 1
    bits = "".join(str(thue_morse_bit(n)) for n in range(1, 17))
    assert bits == "0110100110010110"


@given(st.integers(1, 10**6))
def test_thue_morse_recurrence(k):
    # with t(n) = bit(n+1): t(2k) = t(k) and t(2k+1) = 1 - t(k)
    assert thue_morse_bit(2 * k + 1) == thue_morse_bit(k + 1)
    assert thue_morse_bit(2 * k + 2) == 1 - thue_morse_bit(k + 1)


def test_fibonacci_bits_prefix():
    bits = [fibonacci_bit(n) for n in range(1, 14)]
    assert bits == [0, 1, 0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 1]


def test_driving_sequence_kinds():
    assert DrivingSequence.thue_morse().aperiodic
    assert DrivingSequence.fibonacci().aperiodic
    assert DrivingSequence("thue-morse").aperiodic
    explicit = DrivingSequence.from_bits("0011")
    assert not explicit.aperiodic
    # the kind decides: a periodic sequence cannot be built flagged aperiodic
    assert not DrivingSequence("periodic", (0, 1)).aperiodic
    assert [explicit.bit(k) for k in range(1, 5)] == [0, 0, 1, 1]
    periodic = DrivingSequence.periodic("01")
    assert [periodic.bit(k) for k in range(1, 5)] == [0, 1, 0, 1]
    with pytest.raises(ValueError):
        DrivingSequence.from_bits("012")


@pytest.mark.parametrize(
    "kind,prefix,message",
    [
        ("thue_morse", (), "unknown driving sequence kind 'thue_morse'"),
        ("", (), "unknown driving sequence kind ''"),
        ("periodic", (), "pattern must be a non-empty 0/1 string"),
        ("periodic", (0, 2), "pattern must be a non-empty 0/1 string"),
        ("explicit-prefix", (1, -1), "driving bits must be 0 or 1"),
        ("explicit-prefix", ("0", "1"), "driving bits must be 0 or 1"),
    ],
)
def test_driving_sequence_refuses_bad_raw_input(kind, prefix, message):
    # refused when built, not with a ZeroDivisionError at the first bit,
    # so param_point never returns a point for it
    with pytest.raises(ValueError, match=message):
        DrivingSequence(kind, prefix)


def test_driving_sequence_factories_build_valid_sequences(ex1_template):
    for seq in (DrivingSequence.thue_morse(), DrivingSequence.fibonacci(),
                DrivingSequence.from_bits("0110"), DrivingSequence.periodic("01"),
                DrivingSequence("periodic", (1,))):
        assert seq == DrivingSequence(seq.kind, seq.prefix)
        assert seq.bit(1) in (0, 1)
    assert DrivingSequence.from_bits("").prefix == ()
    for bad in ("", "012"):
        with pytest.raises(ValueError, match="pattern must be a non-empty 0/1 string"):
            DrivingSequence.periodic(bad)
    with pytest.raises(ValueError, match="driving bits must be 0 or 1"):
        DrivingSequence.from_bits("012")
    assert param_point(ex1_template, DrivingSequence.periodic("01")).sign(
        AffineExpr(F(-16, 119), F(1))) == 0


def test_refine_step_example1_option1(ex1_template):
    state = ex1_template.initial_state()
    assert (state.level, str(state.left), str(state.right)) == (1, "1", "2")
    assert state.window == RationalInterval.make(0, F(1, 7))
    assert state.gap == AffineExpr.parameter()

    nxt = refine_step(state, ex1_template.option1)
    assert (str(nxt.left), str(nxt.right)) == ("13", "21")
    assert nxt.window == RationalInterval.make(F(6, 49), F(1, 7))
    assert nxt.gap == AffineExpr(F(-6, 49), F(1))


def test_refine_step_example1_option2(ex1_template):
    state = ex1_template.initial_state()
    level2 = refine_step(state, ex1_template.option1)
    level3 = refine_step(level2, ex1_template.option2)
    assert (str(level3.left), str(level3.right)) == ("212", "133")
    assert level3.gap == AffineExpr(F(48, 343), F(-50, 49))
    assert level3.window == RationalInterval.make(F(47, 350), F(24, 175))


def test_refine_step_labels_its_state(ex1_template):
    state = ex1_template.initial_state()
    assert refine_step(state, ex1_template.option1, choice="option1").choice == "option1"
    assert refine_step(state, ex1_template.option1).choice is None
    with pytest.raises(TypeError):
        refine_step(state, ex1_template.option1, ex1_template)


def test_refine_step_example2_fixed_prefix(ex2_template):
    state = ex2_template.initial_state()
    nxt = refine_step(state, ex2_template.fixed_prefix[0])
    assert (str(nxt.left), str(nxt.right)) == ("14", "21")
    assert nxt.window == RationalInterval.make(F(11, 256), F(12, 256))
    assert nxt.gap == AffineExpr(F(-11, 256), F(1))


def test_run_construction_example1_depths(ex1_template, tm):
    run = run_construction(ex1_template, tm, 4)
    windows = [s.window for s in run.states]
    assert windows[0] == RationalInterval.make(0, F(1, 7))
    assert windows[1] == RationalInterval.make(F(6, 49), F(1, 7))
    assert windows[2] == RationalInterval.make(F(47, 350), F(24, 175))
    assert windows[3] == RationalInterval.make(F(330, 2443), F(331, 2443))
    assert [s.choice for s in run.states] == [None, "option1", "option2", "option2"]


def test_run_construction_example2_depths(ex2_template, tm):
    run = run_construction(ex2_template, tm, 4)
    assert run.states[1].window == RationalInterval.make(F(11, 256), F(12, 256))
    assert run.states[1].choice == "prefix"
    assert run.states[2].window == RationalInterval.make(F(191, 4096), F(3, 64))
    assert run.states[2].choice == "option1"
    assert run.states[3].window == RationalInterval.make(F(3070, 65552), F(3071, 65552))


def test_engine_run_reads_the_engine_chain(ex1_template, tm):
    engine = RefinementEngine(ex1_template, tm)
    engine.states_up_to(30)
    run = engine.run(12)
    assert run == run_construction(ex1_template, tm, 12)
    assert run.states == engine.states_up_to(12)
    assert engine.depth == 30
    with pytest.raises(ValueError):
        engine.run(0)


def test_query_never_reads_a_window_beyond_its_budget(ex1_template, tm, monkeypatch):
    # a run over the point's chain may build it past the budget; the
    # budget still caps the windows a query reads
    engine = RefinementEngine(ex1_template, tm)
    engine.states_up_to(40)
    asked = []
    ends = engine.ends
    monkeypatch.setattr(engine, "ends", lambda level: asked.append(level) or ends(level))
    pt = ParamPoint(engine, budget=3)
    with pytest.raises(Undecided):
        pt.eval_decimal(AffineExpr.parameter(), 25)
    assert asked and max(asked) <= 3


def test_periodic_sequence_is_flagged(ex1_template):
    run = run_construction(ex1_template, DrivingSequence.periodic("0"), 5)
    assert PERIODIC_WARNING in run.warnings
    assert run.states[-1].level == 5


def test_empty_refinement_detected(ex1_template):
    state = ex1_template.initial_state()
    bad = RefinementOption(swap=True, append_left=3, append_right=1)
    with pytest.raises(EmptyRefinement):
        refine_step(state, bad)


def test_param_point_decimals(ex1_pt, ex2_pt):
    assert ex1_pt.eval_decimal(AffineExpr.parameter(), 10) == "0.1354645854"
    assert ex2_pt.eval_decimal(AffineExpr.parameter(), 10) == "0.0468356597"


def test_param_point_finite_prefix_undecided(ex1_template):
    pt = param_point(ex1_template, DrivingSequence.from_bits("00"))
    assert not pt.irrationality_assumed
    with pytest.raises(Undecided):
        pt.eval_decimal(AffineExpr.parameter(), 12)


def test_irrationality_flag_override(ex1_template, tm):
    assert param_point(ex1_template, tm).irrationality_assumed
    assert not param_point(ex1_template, tm, irrationality_assumed=False).irrationality_assumed
    assert param_point(
        ex1_template, DrivingSequence.periodic("01")
    ).irrationality_assumed is False
    # a periodic chain flagged by the caller stays a window chain, as the flag asks
    flagged = param_point(ex1_template, DrivingSequence.periodic("01"), irrationality_assumed=True)
    assert type(flagged) is ParamPoint and flagged.irrationality_assumed


def _load_reference():
    """``perfbench/reference.py``, the independent ``Fraction`` reference, loaded and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_reference", REFERENCE)
    reference = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(reference)
    return reference


PERIODIC_LIMITS = {
    (1, "01"): F(16, 119), (1, "1"): F(2, 21), (1, "0110"): F(386, 2849),
    (2, "01"): F(1541, 32904), (2, "1"): F(101, 2184), (2, "0110"): F(13099, 279680),
}


def test_periodic_points_sit_at_the_reference_limit():
    reference = _load_reference()
    for (example, pattern), limit in PERIODIC_LIMITS.items():
        pt = param_point(example_template(example), DrivingSequence.periodic(pattern))
        assert isinstance(pt, PeriodicLimit)
        assert pt.value == limit == reference.periodic_limit(example, pattern)
        assert not pt.irrationality_assumed


def test_periodic_limit_answers_as_its_rational_value(ex1_template):
    seq = DrivingSequence.periodic("01")
    pt, exact = param_point(ex1_template, seq), RationalParam(F(16, 119))
    # 336 - 2499a vanishes at the limit: a window chain never decides its sign
    forms = [AffineExpr(F(336), F(-2499)), AffineExpr(F(1, 3), F(-2)), AffineExpr.parameter()]
    for e in forms:
        assert pt.sign(e) == exact.sign(e)
        assert pt.eval_decimal(e, 40) == exact.eval_decimal(e, 40)
        assert pt.canonical_key(e) == exact.canonical_key(e)
    assert pt.sign(forms[0]) == 0
    # the point keeps its chain: runs and caveats read the same windows
    assert isinstance(pt.refiner, RefinementEngine)
    assert pt.refiner.run(6).states == run_construction(ex1_template, seq, 6).states
    assert pt.refiner.warnings == (PERIODIC_WARNING,)
    for state in pt.refiner.states_up_to(40):
        assert state.window.lo < pt.value < state.window.hi


@pytest.mark.parametrize("example,pattern,needed", [(1, "0110", 5), (2, "01", 4), (1, "1", 2)])
def test_periodic_limit_needs_its_first_period_within_budget(example, pattern, needed):
    # the limit is read at level 1 + len(fixed prefix) + period, never beyond the budget
    tmpl, seq = example_template(example), DrivingSequence.periodic(pattern)
    below = param_point(tmpl, seq, budget=needed - 1)
    assert type(below) is ParamPoint and below.budget == needed - 1
    assert below.refiner.depth == 1  # no window was built to look for the limit
    assert isinstance(param_point(tmpl, seq, budget=needed), PeriodicLimit)


@pytest.mark.parametrize("example,closing_end", [(1, F(1, 7)), (2, F(3, 64))])
def test_periodic_windows_closing_on_a_window_end_are_refused(example, closing_end):
    # periodic:0 windows shrink onto their common right end: their open
    # intersection is empty, so no parameter satisfies the construction
    tmpl, seq = example_template(example), DrivingSequence.periodic("0")
    with pytest.raises(EmptyRefinement, match="close on no parameter"):
        param_point(tmpl, seq)
    states = run_construction(tmpl, seq, 12).states
    assert all(s.window.hi == closing_end for s in states[len(tmpl.fixed_prefix) + 1:])


def _sequences_for_invariants():
    return (
        DrivingSequence.thue_morse(),
        DrivingSequence.fibonacci(),
        DrivingSequence.from_bits(RECORDED_PREFIX),
    )


@pytest.mark.parametrize("which,depth", [(1, 20), (2, 20)])
def test_refinement_invariants_all_sequences(which, depth):
    tmpl = example_template(which)
    m = tmpl.system.ratio_denominator
    for seq in _sequences_for_invariants():
        run = run_construction(tmpl, seq, depth)
        for prev, state in zip(run.states, run.states[1:]):
            # nesting
            assert contains_interval(prev.window, state.window)
            # the gap maps the window endpoints exactly onto 0 and m^-(n+1)
            values = {
                state.gap.evaluate(state.window.lo),
                state.gap.evaluate(state.window.hi),
            }
            assert values == {F(0), F(1, m**state.level)}
            # gap stays non-constant and words keep distinct initials
            assert state.gap.q != 0
            assert state.left.symbols[0] != state.right.symbols[0]
            # independent route: recompute the gap from the words
            assert state.gap == map_at_zero(tmpl.system, state.right) - map_at_zero(
                tmpl.system, state.left
            )


def test_example1_option_recurrences(ex1_template):
    for seq in _sequences_for_invariants():
        run = run_construction(ex1_template, seq, 20)
        for prev, state in zip(run.states, run.states[1:]):
            n1 = state.level
            if state.choice == "option1":
                assert state.gap == prev.gap + AffineExpr.constant(F(-6, 7**n1))
            else:
                assert state.choice == "option2"
                assert state.gap == (
                    -prev.gap
                    + AffineExpr.constant(F(6, 7**n1))
                    - AffineExpr.parameter(F(1, 7 ** (n1 - 1)))
                )


def test_option2_strictly_shrinks_window_closure(ex1_template, tm):
    run = run_construction(ex1_template, tm, 15)
    for prev, state in zip(run.states, run.states[1:]):
        assert state.window.width < prev.window.width
        if state.choice == "option2":
            assert strictly_inside(state.window, prev.window)


def test_window_width_vanishes_along_thue_morse(ex1_template, tm):
    run = run_construction(ex1_template, tm, 20)
    assert run.states[-1].window.width < F(1, 10**10)


def test_gap_positive_on_window_samples(ex1_template, tm):
    run = run_construction(ex1_template, tm, 8)
    for state in run.states:
        m = ex1_template.system.ratio_denominator
        for t in (F(1, 4), F(1, 2), F(3, 4)):
            sample = state.window.lo + t * state.window.width
            assert 0 < state.gap.evaluate(sample) < F(1, m**state.level)


def test_initial_state_validation():
    tmpl = example_template(1)
    bad = type(tmpl)(
        system=tmpl.system,
        initial_left=Word.of(1),
        initial_right=Word.of(2),
        initial_window=RationalInterval.make(0, F(1, 2)),  # too wide
        option1=tmpl.option1,
        option2=tmpl.option2,
        name="bad",
    )
    with pytest.raises(ValueError):
        bad.initial_state()


@pytest.mark.parametrize(
    "changes,message",
    [
        ({"initial_right": Word.of(2, 1)}, "initial words must be non-empty and of equal length"),
        ({"initial_left": Word(), "initial_right": Word()},
         "initial words must be non-empty and of equal length"),
        ({"initial_right": Word.of(1)}, "initial words must start with distinct symbols"),
        ({"initial_right": Word.of(3)}, "initial gap must depend on the parameter"),
        ({"initial_window": RationalInterval.make(F(-1, 7), F(1, 14))},
         "initial window is not contained in the overlap band"),
        ({"initial_left": Word.of(2), "initial_right": Word.of(1)},
         "initial window is not contained in the overlap band"),
    ],
    ids=["unequal", "empty", "same-first-symbol", "constant-gap", "window-below-band",
         "negative-gap"],
)
def test_initial_state_refusals(changes, message):
    with pytest.raises(ValueError) as excinfo:
        replace(example_template(1), **changes).initial_state()
    assert str(excinfo.value) == message


@settings(max_examples=150, deadline=None)
@given(
    which=st.integers(0, 4),
    shift_lo=st.fractions(-1, 1, max_denominator=3),
    shift_hi=st.fractions(-1, 1, max_denominator=3),
)
def test_initial_window_check_matches_fraction_band(which, shift_lo, shift_hi):
    # a window is accepted exactly when the band 0 < gap < m^-level contains it, ends included
    ex1, ex2 = example_template(1), example_template(2)
    tmpl, left, right = [
        (ex1, "1", "2"),
        (ex1, "2", "1"),
        (ex1, "212", "133"),
        (ex2, "14", "21"),
        (_fractional_template(), "3", "2"),
    ][which]
    tmpl = replace(tmpl, initial_left=Word.parse(left), initial_right=Word.parse(right))
    sys = tmpl.system
    gap = map_at_zero(sys, tmpl.initial_right) - map_at_zero(sys, tmpl.initial_left)
    band = solve_affine_band(gap, 0, F(1, sys.ratio_denominator ** len(left)))
    lo, hi = band.lo + shift_lo * band.width, band.hi + shift_hi * band.width
    if lo >= hi:
        return
    window = RationalInterval(lo, hi)
    try:
        state = replace(tmpl, initial_window=window).initial_state()
    except ValueError as exc:
        assert str(exc) == "initial window is not contained in the overlap band"
        assert not contains_interval(band, window)
    else:
        assert contains_interval(band, window)
        assert state.gap == gap
        assert state.scaled_gap == gap.scale(sys.ratio_denominator ** len(left))


def _fractional_template() -> ConstructionTemplate:
    """Example 1's options on offsets (0, a/2, 6/7 - a/3): the lattice has Lq = 6."""
    sys = IfsSystem(
        7,
        (
            AffineExpr.constant(0),
            AffineExpr.parameter(F(1, 2)),
            AffineExpr(F(6, 7), F(-1, 3)),
        ),
    )
    ex1 = example_template(1)
    return replace(ex1, system=sys, initial_window=RationalInterval.make(0, F(2, 7)),
                   name="fractional")


@pytest.fixture(scope="module")
def lattice_step_templates(tmp_path_factory):
    """Templates whose chains the lattice step must reproduce.

    Both examples, README's "sevenths" template file, and the
    fractional one, whose parameter parts are not integers; then
    three that fail: two leave no window at varying levels, and one
    makes the gap constant after its first step (16a - 16a).
    """
    block = README.read_text().split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block)["name"] == "sevenths"
    path = tmp_path_factory.mktemp("template") / "sevenths.json"
    path.write_text(block)
    ex1, ex2, fractional = example_template(1), example_template(2), _fractional_template()
    assert fractional.initial_state().lattice.lq == 6
    return [
        ex1,
        ex2,
        load_template(str(path)),
        fractional,
        replace(ex1, option2=RefinementOption(swap=True, append_left=1, append_right=2)),
        replace(fractional, option1=RefinementOption(swap=False, append_left=1, append_right=2)),
        replace(ex2, fixed_prefix=(),
                option2=RefinementOption(swap=False, append_left=1, append_right=3)),
    ]


def _fraction_chain(tmpl: ConstructionTemplate, opts: list[RefinementOption]):
    """The reference chain of a list of steps and the message of the step that failed, if any.

    Each reference state is a ``(level, left, right, window, gap)`` tuple.
    """
    first = tmpl.initial_state()
    states = [(first.level, first.left, first.right, first.window, first.gap)]
    try:
        for opt in opts:
            states.append(refine_step_fractions(states[-1], opt, tmpl))
    except EmptyRefinement as exc:
        return states, str(exc)
    return states, None


@settings(max_examples=120, deadline=None)
@given(which=st.integers(0, 6), length=st.integers(0, 200), value=st.integers(0, 2**200 - 1))
def test_lattice_step_matches_fraction_step(lattice_step_templates, which, length, value):
    tmpl = lattice_step_templates[which]
    bits = format(value, "0200b")[:length]
    opts = [*tmpl.fixed_prefix, *(tmpl.option2 if b == "1" else tmpl.option1 for b in bits)]
    expected, expected_error = _fraction_chain(tmpl, opts)
    engine = RefinementEngine(tmpl, DrivingSequence.from_bits(bits))
    error = None
    try:
        engine.states_up_to(expected[0][0] + len(tmpl.fixed_prefix) + len(bits))
    except EmptyRefinement as exc:
        error = str(exc)
    states = engine.states_up_to(engine.depth)
    assert error == expected_error
    assert [(s.level, s.left, s.right, s.window, s.gap) for s in states] == expected
    # S_w(0) of both words, carried in Fractions: S_ws(0) = S_w(0) + d_s * m^-|w|
    sys, m = tmpl.system, tmpl.system.ratio_denominator
    s_left, s_right = map_at_zero(sys, states[0].left), map_at_zero(sys, states[0].right)
    for state, opt in zip(states, [None, *opts]):
        if opt is not None:
            if opt.swap:
                s_left, s_right = s_right, s_left
            scale = F(1, m ** (state.level - 1))
            s_left = s_left + sys.offset(opt.append_left).scale(scale)
            s_right = s_right + sys.offset(opt.append_right).scale(scale)
        assert state.scaled_gap == (s_right - s_left).scale(m**state.level)
    last = states[-1]
    assert last.scaled_gap == translation_amount(sys, last.left, last.right)


def _cross_multiplied_chain(tmpl: ConstructionTemplate, seq: DrivingSequence, depth: int):
    """The (point, ends) of every level to ``depth`` by ``cross_multiplying_step``, and the
    message of the step that failed, if any."""
    first = tmpl.initial_state()
    chain, level = [(first.point, first.ends)], first.level
    opts = iter(tmpl.fixed_prefix)
    try:
        for k in range(1, depth - level + 1):
            opt = next(opts, None) or (tmpl.option2 if seq.bit(k - len(tmpl.fixed_prefix))
                                       else tmpl.option1)
            chain.append(cross_multiplying_step(first.lattice, level, *chain[-1], opt))
            level += 1
    except EmptyRefinement as exc:
        return chain, str(exc)
    return chain, None


def _longest_unclipped_run(states) -> int:
    """The most levels in a row over which one window end keeps its ints."""
    longest = 0
    for side in (slice(0, 2), slice(2, 4)):
        run = 0
        for before, after in zip(states, states[1:]):
            run = run + 1 if after.ends[side] == before.ends[side] else 0
            longest = max(longest, run)
    return longest


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("seq, longest", [
    (DrivingSequence.thue_morse(), 2),
    (DrivingSequence.fibonacci(), 2),
    (DrivingSequence.periodic("01"), 1),
    (DrivingSequence.periodic("0110"), 2),
], ids=["thue-morse", "fibonacci", "periodic-01", "periodic-0110"])
def test_carried_determinants_match_cross_multiplication(which, seq, longest):
    """The engine's points and raw window ends equal the cross-multiplying step's at
    every level to 2,400; an end held for two levels in a row carries its
    determinant on from a nonzero value."""
    tmpl = example_template(which)
    expected, expected_error = _cross_multiplied_chain(tmpl, seq, 2400)
    states = RefinementEngine(tmpl, seq).states_up_to(2400)
    assert expected_error is None
    assert [(s.point, s.ends) for s in states] == expected
    assert _longest_unclipped_run(states) == longest


@pytest.mark.parametrize("which, seq", [
    (4, DrivingSequence.thue_morse()),
    (4, DrivingSequence.fibonacci()),
    (5, DrivingSequence.thue_morse()),
    (5, DrivingSequence.fibonacci()),
    (6, DrivingSequence.periodic("1")),
], ids=["no-window-thue-morse", "no-window-fibonacci", "fractional-thue-morse",
        "fractional-fibonacci", "constant-gap"])
def test_carried_determinants_fail_where_cross_multiplication_fails(
        lattice_step_templates, which, seq):
    """Both steps leave no window, or a constant gap, at the same level, with one message."""
    tmpl = lattice_step_templates[which]
    expected, expected_error = _cross_multiplied_chain(tmpl, seq, 200)
    engine = RefinementEngine(tmpl, seq)
    with pytest.raises(EmptyRefinement) as caught:
        engine.state(200)
    assert str(caught.value) == expected_error
    assert [(s.point, s.ends) for s in engine.states_up_to(engine.depth)] == expected
