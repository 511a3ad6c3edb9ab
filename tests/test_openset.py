import hashlib
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from sys import gettrace, settrace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import sepkit
from sepkit import (
    AffineExpr,
    IfsSystem,
    OpenSetApprox,
    OverlapOracle,
    ParamPoint,
    RationalInterval,
    RationalParam,
    Undecided,
    Word,
    constructed_v_type_census,
    convex_type_census,
    example_point,
    example_template,
    validate_system,
    verify_osc_open_set,
)
from sepkit import ifs as ifs_module
from sepkit import openset as openset_module
from sepkit.cli import main
from sepkit.exact import AFFINE_ZERO
from sepkit.ifs import EMPTY_WORD
from sepkit.openset import MATERIALIZE_LIMIT, containment_identity_holds
from sepkit.separation import DisplacementLattice, displacement_levels

from bruteforce import RecursiveOverlapOracle, StaticRefiner, small_systems

SEED1 = RationalInterval.make(F(3, 7), F(4, 7))
SEED2 = RationalInterval.make(F(7, 16), F(8, 16))
#: A seed whose ends are off the offsets' lattice of both examples.
OFF_SEED = RationalInterval.make(F(2, 9), F(5, 11))


def test_component_endpoints_exact(ex1_sys):
    oset = OpenSetApprox(ex1_sys, SEED1, 2)
    lo, hi = oset.component(Word.parse("21"))
    # S_21(x) = x/49 + a
    assert lo == AffineExpr(F(3, 343), F(1))
    assert hi == AffineExpr(F(4, 343), F(1))
    assert oset.component_count == 1 + 3 + 9
    assert len(list(oset.components())) == 13


def test_component_enumeration_guarded(ex2_sys):
    oset = OpenSetApprox(ex2_sys, SEED2, 10)
    with pytest.raises(ValueError):
        list(oset.components())


def _explicit_overlap(oset, pt, v):
    comps = [(lo, hi) for _, lo, hi in oset.components()]
    for lo1, hi1 in comps:
        for lo2, hi2 in comps:
            lo2v, hi2v = lo2 + v, hi2 + v
            if pt.sign(hi2v - lo1) > 0 and pt.sign(hi1 - lo2v) > 0:
                return True
    return False


@pytest.mark.parametrize("which,seed,depth", [(1, SEED1, 3), (2, SEED2, 2)])
def test_oracle_matches_explicit_enumeration(which, seed, depth, ex1_pt, ex2_pt):
    tmpl = example_template(which)
    pt = ex1_pt if which == 1 else ex2_pt
    oset = OpenSetApprox(tmpl.system, seed, depth)
    oracle = OverlapOracle(oset, pt)
    candidates = [AffineExpr.constant(0)]
    for level_map in displacement_levels(tmpl.system, pt, 3):
        candidates.extend(AffineExpr(p, q) for (p, q) in level_map)
    candidates.extend(
        AffineExpr.constant(c) for c in (F(1, 2), F(-1, 2), F(9, 10), F(1, 100))
    )
    for v in candidates:
        explicit = _explicit_overlap(oset, pt, v)
        assert (oracle.overlaps(v) is not None) == explicit, str(v)


def test_oracle_deeper_explicit_cross_check_example1(ex1_sys, ex1_pt):
    oset = OpenSetApprox(ex1_sys, SEED1, 4)
    oracle = OverlapOracle(oset, ex1_pt)
    candidates = [AffineExpr(p, q) for level_map in
                  displacement_levels(ex1_sys, ex1_pt, 4) for (p, q) in level_map]
    for v in candidates:
        explicit = _explicit_overlap(oset, ex1_pt, v)
        assert (oracle.overlaps(v) is not None) == explicit, str(v)


def test_oracle_monotone_in_truncation_depth(ex2_sys, ex2_pt):
    # growing the family can only create intersections, never remove them;
    # a witness found at one depth stays valid at every deeper truncation
    candidates = [AffineExpr(p, q) for level_map in
                  displacement_levels(ex2_sys, ex2_pt, 3) for (p, q) in level_map]
    depths = (0, 1, 2, 3, 4, 6, 10)
    for v in candidates:
        seen = False
        for depth in depths:
            oracle = OverlapOracle(OpenSetApprox(ex2_sys, SEED2, depth), ex2_pt)
            hit = oracle.overlaps(v) is not None
            assert not (seen and not hit), f"{v} lost at depth {depth}"
            seen = seen or hit


def test_oracle_witness_components_really_meet(ex2_pt, ex2_sys):
    oset = OpenSetApprox(ex2_sys, SEED2, 4)
    oracle = OverlapOracle(oset, ex2_pt)
    v = AffineExpr.parameter(16)  # the level-1 pair displacement
    witness = oracle.overlaps(v)
    assert witness is not None
    w1, w2 = witness
    lo1, hi1 = oset.component(w1)
    lo2, hi2 = oset.component(w2)
    lo2, hi2 = lo2 + v, hi2 + v
    assert ex2_pt.sign(hi2 - lo1) > 0 and ex2_pt.sign(hi1 - lo2) > 0


def test_osc_example1_passes(ex1_sys, ex1_pt):
    report = verify_osc_open_set(ex1_sys, ex1_pt, SEED1, 4)
    assert report.passed
    assert report.containment_ok and report.disjointness_ok
    assert report.containment_checked == 3 * (1 + 3 + 9 + 27 + 81)


def _explicit_containment_ok(oset):
    """Map every component by every S_i and compare with the deeper family."""
    sys = oset.system
    deeper = OpenSetApprox(sys, oset.seed, oset.depth + 1)
    inv = F(1, sys.ratio_denominator)
    return all(
        (lo.scale(inv) + sys.offset(i), hi.scale(inv) + sys.offset(i))
        == deeper.component(Word.of(i) + word)
        for word, lo, hi in oset.components()
        for i in sys.symbols
    )


@pytest.mark.parametrize("which,seed", [(1, SEED1), (2, SEED2)])
@pytest.mark.parametrize("depth", [0, 2, 4])
def test_symbolic_containment_matches_explicit(which, seed, depth, ex1_pt, ex2_pt):
    tmpl = example_template(which)
    pt = ex1_pt if which == 1 else ex2_pt
    oset = OpenSetApprox(tmpl.system, seed, depth)
    report = verify_osc_open_set(tmpl.system, pt, seed, depth)
    assert report.containment_ok == _explicit_containment_ok(oset)
    assert report.containment_checked == tmpl.system.alphabet_size * len(list(oset.components()))


def test_symbolic_containment_catches_a_broken_fold(ex1_sys, monkeypatch):
    # a fold step that drifts on map 2 breaks S_i(S_w(seed)) = S_iw(seed);
    # the symbolic identity and the explicit enumeration both see it
    def drifting(sys, symbol, x):
        exact = x.scale(F(1, sys.ratio_denominator)) + sys.offset(symbol)
        return exact.shift(F(1, 1000)) if symbol == 2 else exact

    monkeypatch.setattr(ifs_module, "apply_map", drifting)
    monkeypatch.setattr(openset_module, "apply_map", drifting)
    assert not containment_identity_holds(ex1_sys, SEED1)
    assert not _explicit_containment_ok(OpenSetApprox(ex1_sys, SEED1, 2))


def test_osc_example1_depth_beyond_materialize_limit(ex1_sys, ex1_pt):
    oset = OpenSetApprox(ex1_sys, SEED1, 20)
    assert oset.component_count > MATERIALIZE_LIMIT
    report = verify_osc_open_set(ex1_sys, ex1_pt, SEED1, 20)
    assert report.passed
    assert report.containment_checked == 3 * sum(3**k for k in range(21))


def test_osc_convex_seed_fails_immediately(ex1_sys, ex1_pt):
    report = verify_osc_open_set(ex1_sys, ex1_pt, RationalInterval.make(0, 1), 0)
    assert not report.passed
    assert [ (v.map_left, v.map_right) for v in report.violations ] == [(1, 2)]


def test_osc_example2_reveals_exact_overlap(ex2_sys, ex2_pt):
    report = verify_osc_open_set(ex2_sys, ex2_pt, SEED2, 3)
    assert not report.passed
    first = report.violations[0]
    assert (first.map_left, first.map_right) == (1, 2)
    assert (str(first.component_left), str(first.component_right)) == ("15", "23")
    assert first.components_coincide


def test_constructed_census_example2_three_types(ex2_sys, ex2_pt):
    oset = OpenSetApprox(ex2_sys, SEED2, 6)
    census = constructed_v_type_census(ex2_sys, ex2_pt, oset, 4)
    assert census.counts == (3, 3, 3, 3)
    for level in census.levels:
        shapes = {
            tuple(str(v) for v in displacements) for displacements in level.type_column
        }
        assert shapes == {("0",), ("0", "16*a"), ("-16*a", "0")}
    assert any("truncat" in c for c in census.caveats)


def test_constructed_census_example1_level1_separated(ex1_sys, ex1_pt):
    oset = OpenSetApprox(ex1_sys, SEED1, 8)
    census = constructed_v_type_census(ex1_sys, ex1_pt, oset, 1)
    assert census.counts == (1,)
    assert [str(v) for v in census.levels[0].type_column[0]] == ["0"]


def _assert_full_seed_matches_convex_census(sys, pt, levels):
    # the seed (0, 1) at truncation 0 keeps every member of every convex
    # state, so each class is one state and each row is the convex census's:
    # the same types, word counts and witnesses, in the same order
    oset = OpenSetApprox(sys, RationalInterval.make(0, 1), 0)
    constructed = constructed_v_type_census(sys, pt, oset, levels)
    convex = convex_type_census(sys, pt, levels)
    assert constructed.counts == convex.counts
    assert constructed.levels == convex.levels


@pytest.mark.parametrize("which", [1, 2])
def test_full_seed_depth0_matches_convex_census(which, ex1_pt, ex2_pt):
    pt = ex1_pt if which == 1 else ex2_pt
    _assert_full_seed_matches_convex_census(example_template(which).system, pt, 6)


@settings(max_examples=300, deadline=None)
@given(
    small_systems(),
    st.fractions(min_value=0, max_value=1, max_denominator=16).map(RationalParam),
    st.integers(1, 6),
)
def test_full_seed_depth0_matches_convex_census_random_systems(sys, pt, levels):
    _assert_full_seed_matches_convex_census(sys, pt, levels)


def test_seed_validation():
    tmpl = example_template(1)
    with pytest.raises(ValueError):
        OpenSetApprox(tmpl.system, RationalInterval.make(F(-1, 2), F(1, 2)), 2)
    with pytest.raises(ValueError):
        OpenSetApprox(tmpl.system, SEED1, -1)


# --- the overlap oracle against its earlier form -----------------------------------


class _OracleOverlapOracle:
    """The overlap oracle before its two recursions were merged (test oracle).

    It keeps a separate seed-versus-family recursion and three
    hand-written memos; ``overlaps`` must return the same witness tuple.
    """

    def __init__(self, open_set, pt):
        self.open_set = open_set
        self.sys = open_set.system
        self.pt = pt
        self._family_memo = {}
        self._seed_memo = {}
        self._walk_memo = {}

    def overlaps(self, v):
        return self._family_vs_family(v, self.open_set.depth)

    def _key(self, e):
        return (e.p, e.q)

    def _open_intervals_meet(self, lo1, hi1, lo2, hi2):
        return self.pt.sign(hi2 - lo1) > 0 and self.pt.sign(hi1 - lo2) > 0

    def _seed_pair_meets(self, v):
        width = self.open_set.seed.width
        return (
            self.pt.sign(v.shift(width)) > 0
            and self.pt.sign(AffineExpr.constant(width) - v) > 0
        )

    def _family_vs_family(self, v, budget):
        memo_key = (self._key(v), budget)
        if memo_key in self._family_memo:
            return self._family_memo[memo_key]
        result = self._family_vs_family_raw(v, budget)
        self._family_memo[memo_key] = result
        return result

    def _family_vs_family_raw(self, v, budget):
        pt = self.pt
        if pt.sign(v.shift(1)) <= 0 or pt.sign(AffineExpr.constant(1) - v) <= 0:
            return None
        if self._seed_pair_meets(v):
            return (EMPTY_WORD, EMPTY_WORD)
        if budget == 0:
            return None
        for n in range(1, budget + 1):
            hit = self._seed_vs_family(v, n)
            if hit is not None:
                return (EMPTY_WORD, hit)
        for n in range(1, budget + 1):
            hit = self._seed_vs_family(-v, n)
            if hit is not None:
                return (hit, EMPTY_WORD)
        m = self.sys.ratio_denominator
        for i in self.sys.symbols:
            for j in self.sys.symbols:
                child = (v + self.sys.offset(j) - self.sys.offset(i)).scale(m)
                sub = self._family_vs_family(child, budget - 1)
                if sub is not None:
                    return (Word.of(i) + sub[0], Word.of(j) + sub[1])
        return None

    def _seed_vs_family(self, v, n):
        memo_key = (self._key(v), n)
        if memo_key in self._seed_memo:
            return self._seed_memo[memo_key]
        m = self.sys.ratio_denominator
        seed = self.open_set.seed
        result = None
        for j in self.sys.symbols:
            shift = self.sys.offset(j) + v
            lo = (AffineExpr.constant(seed.lo) - shift).scale(m)
            hi = (AffineExpr.constant(seed.hi) - shift).scale(m)
            sub = self._interval_vs_family(lo, hi, n - 1)
            if sub is not None:
                result = Word.of(j) + sub
                break
        self._seed_memo[memo_key] = result
        return result

    def _interval_vs_family(self, lo, hi, n):
        memo_key = (self._key(lo), self._key(hi), n)
        if memo_key in self._walk_memo:
            return self._walk_memo[memo_key]
        result = self._interval_vs_family_raw(lo, hi, n)
        self._walk_memo[memo_key] = result
        return result

    def _interval_vs_family_raw(self, lo, hi, n):
        pt = self.pt
        if pt.sign(AffineExpr.constant(1) - lo) <= 0 or pt.sign(hi) <= 0:
            return None
        if n == 0:
            seed = self.open_set.seed
            if self._open_intervals_meet(
                lo, hi, AffineExpr.constant(seed.lo), AffineExpr.constant(seed.hi)
            ):
                return EMPTY_WORD
            return None
        if pt.sign(lo) <= 0 and pt.sign(hi - AffineExpr.constant(1)) >= 0:
            return Word((1,) * n)
        m = self.sys.ratio_denominator
        for j in self.sys.symbols:
            d_j = self.sys.offset(j)
            sub = self._interval_vs_family((lo - d_j).scale(m), (hi - d_j).scale(m), n - 1)
            if sub is not None:
                return Word.of(j) + sub
        return None


#: Shifts off the displacement lattice, on both sides of the bounds, with
#: and without a parameter part.
OFF_LATTICE = tuple(
    AffineExpr.constant(c) for c in (F(1, 2), F(-1, 2), F(9, 10), F(1, 100), F(1), F(-1))
) + (AffineExpr.parameter(F(1, 3)), AffineExpr(F(1, 7), F(-2, 5)))


def _queries(sys, pt, levels):
    """Zero, every displacement of levels 1..``levels`` and the off-lattice shifts."""
    found = [AFFINE_ZERO]
    for level_map in displacement_levels(sys, pt, levels):
        found.extend(d.value for d in level_map.values())
    return found + list(OFF_LATTICE)


def _assert_same_witnesses(open_set, pt, queries):
    oracle = OverlapOracle(open_set, pt)
    reference = _OracleOverlapOracle(open_set, pt)
    for v in queries:
        assert oracle.overlaps(v) == reference.overlaps(v), str(v)


def _assert_same_osc_report(sys, pt, seed, depth):
    report = verify_osc_open_set(sys, pt, seed, depth)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(openset_module, "OverlapOracle", _OracleOverlapOracle)
        expected = verify_osc_open_set(sys, pt, seed, depth)
    assert report.violations == expected.violations
    assert report == expected


WITNESS_SEEDS = [(1, SEED1), (2, SEED2), (1, OFF_SEED), (2, OFF_SEED)]
#: (depth, index in WITNESS_SEEDS): every seed to depth 6, and the
#: deeper walks of example 1's seed
WITNESS_CASES = [(d, k) for d in range(7) for k in range(4)] + [(8, 0), (12, 0)]


@pytest.mark.parametrize(
    "depth,which,seed",
    [(d, *WITNESS_SEEDS[k]) for d, k in WITNESS_CASES],
    ids=[f"{d}-{WITNESS_SEEDS[k][0]}-seed{k}" for d, k in WITNESS_CASES],
)
def test_oracle_witnesses_match_the_earlier_oracle(which, seed, depth, ex1_pt, ex2_pt):
    sys = example_template(which).system
    pt = ex1_pt if which == 1 else ex2_pt
    _assert_same_witnesses(OpenSetApprox(sys, seed, depth), pt, _queries(sys, pt, 4))
    _assert_same_osc_report(sys, pt, seed, depth)


@pytest.mark.parametrize("which", [1, 2])
@pytest.mark.parametrize("depth", [0, 3])
def test_oracle_full_seed_matches_the_earlier_oracle(which, depth, ex1_pt, ex2_pt):
    sys = example_template(which).system
    pt = ex1_pt if which == 1 else ex2_pt
    full = RationalInterval.make(0, 1)
    _assert_same_witnesses(OpenSetApprox(sys, full, depth), pt, _queries(sys, pt, 4))
    _assert_same_osc_report(sys, pt, full, depth)


@st.composite
def valid_open_sets(draw, depths=st.integers(0, 3)):
    """A system valid at a RationalParam point (d_1 = 0, d_n = 1 - 1/m,
    every offset in [0, 1 - 1/m]) with a seed and a truncation depth."""
    m = draw(st.integers(2, 5))
    top = 1 - F(1, m)
    pt = RationalParam(draw(st.sampled_from([F(1, 8), F(1, 3), F(2, 5), F(41, 56)])))
    inner = st.builds(
        AffineExpr,
        st.integers(0, m * m - m).map(lambda k: F(k, m * m)),
        st.sampled_from([F(0), F(1, 2 * m), F(-1, 2 * m)]),
    ).filter(lambda d: 0 <= d.evaluate(pt.value) <= top)
    middle = draw(st.lists(inner, max_size=2))
    sys = IfsSystem(m, (AFFINE_ZERO, *middle, AffineExpr.constant(top)))
    seed = draw(st.sampled_from(
        [RationalInterval.make(0, 1), SEED1, SEED2, RationalInterval.make(F(1, 4), F(1, 2)),
         OFF_SEED]
    ))
    return sys, pt, OpenSetApprox(sys, seed, draw(depths))


@settings(max_examples=50, deadline=None)
@given(valid_open_sets())
def test_oracle_matches_the_earlier_oracle_random_systems(case):
    sys, pt, open_set = case
    assert validate_system(sys, pt).valid
    queries = _queries(sys, pt, 3)
    _assert_same_witnesses(open_set, pt, queries)
    _assert_witnesses_in_either_order(open_set, pt, queries)
    _assert_same_osc_report(sys, pt, open_set.seed, open_set.depth)


# --- the overlap oracle against its recursive form ---------------------------------

#: (example, seed, truncation depth), deeper than the earlier oracle's cases
#: example 1 at depth 64 follows runs of single-child points far deeper
#: than the queries' levels, in both query orders: a run asked at a budget
#: shorter than itself, and a run whose end turns out single-child later
RECURSIVE_CASES = [(1, SEED1, 32), (2, SEED2, 16), (1, SEED1, 64)]


def _assert_witnesses_in_either_order(open_set, pt, queries):
    """One oracle answers the queries in order and a fresh one in reverse;
    both give the recursive oracle's witnesses, so no hit kept at one
    budget leaks into another budget's answer."""
    reference = RecursiveOverlapOracle(open_set, pt)
    expected = [reference.overlaps(v) for v in queries]
    forward = OverlapOracle(open_set, pt)
    assert [forward.overlaps(v) for v in queries] == expected
    backward = OverlapOracle(open_set, pt)
    assert [backward.overlaps(v) for v in reversed(queries)] == expected[::-1]


@pytest.mark.parametrize("which,seed,depth", RECURSIVE_CASES)
def test_oracle_witnesses_match_the_recursive_oracle(which, seed, depth, ex1_pt, ex2_pt):
    sys = example_template(which).system
    pt = ex1_pt if which == 1 else ex2_pt
    open_set = OpenSetApprox(sys, seed, depth)
    _assert_witnesses_in_either_order(open_set, pt, _queries(sys, pt, 6))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(valid_open_sets(st.integers(4, 12)), st.randoms(use_true_random=False))
def test_oracle_matches_the_recursion_at_every_budget_random_systems(case, rng):
    # one oracle asked every point at every budget, in a shuffled order: runs
    # asked short of their length, runs whose end is searched deeper later,
    # and hits found behind a run; then all of it again, so that each hit is
    # also found on an oracle that has answered the same question before
    sys, pt, open_set = case
    oracle = OverlapOracle(open_set, pt)
    reference = RecursiveOverlapOracle(open_set, pt)
    points = {oracle.lattice.point(v) for v in _queries(sys, pt, 2)} - {None}
    asks = [(point, budget) for point in sorted(points) for budget in range(open_set.depth + 1)]
    rng.shuffle(asks)
    for (P, Q), budget in asks * 2:
        assert oracle._family_vs_family(P, Q, budget) == reference._family_vs_family(P, Q, budget)


@pytest.mark.parametrize("which,seed,depth", RECURSIVE_CASES)
def test_oracle_asks_only_sign_queries_the_recursion_asks(which, seed, depth):
    # at a computable point any extra query may raise Undecided, so
    # deciding each point once must not ask what the recursion never asks
    sys = example_template(which).system
    queries = _queries(sys, example_point(which), 6)
    asked = []
    for oracle_type in (OverlapOracle, RecursiveOverlapOracle):
        pt = _RecordingPoint(example_point(which))
        oracle = oracle_type(OpenSetApprox(sys, seed, depth), pt)
        for v in queries:
            oracle.overlaps(v)
        asked.append(pt.asked)
    assert asked[0] <= asked[1]


class _RecordingPoint:
    """A point that answers as ``pt`` and keeps the non-constant sign queries
    it is asked, as ``(P, Lp, Q, Lq)``."""

    def __init__(self, pt):
        self.pt, self.asked = pt, set()

    def __getattr__(self, name):
        return getattr(self.pt, name)

    def sign(self, e):
        return self.sign_lattice(e.p.numerator, e.p.denominator, e.q.numerator, e.q.denominator)

    def sign_lattice(self, P, Lp, Q, Lq):
        if Q != 0:
            self.asked.add((P, Lp, Q, Lq))
        return self.pt.sign_lattice(P, Lp, Q, Lq)


def test_undecided_query_is_not_remembered():
    full = example_point(1)
    # three windows decide 7*a against 1 but not the deeper interval tests
    short = ParamPoint(
        StaticRefiner([full.window(k) for k in range(1, 4)]), irrationality_assumed=True
    )
    open_set = OpenSetApprox(example_template(1).system, SEED1, 2)
    v = AffineExpr.parameter(7)
    oracle = OverlapOracle(open_set, short)
    with pytest.raises(Undecided) as first:
        oracle.overlaps(v)
    with pytest.raises(Undecided) as again:
        oracle.overlaps(v)
    assert str(again.value) == str(first.value)
    with pytest.raises(Undecided) as expected:
        _OracleOverlapOracle(open_set, short).overlaps(v)
    assert str(first.value) == str(expected.value)
    assert oracle.overlaps(AFFINE_ZERO) == (EMPTY_WORD, EMPTY_WORD)


class _Tripwire:
    """A parameter point that answers as ``pt``, except that the sign query
    ``trip``, or the ``limit``-th distinct one it is asked, stays undecided."""

    def __init__(self, pt, limit=None, trip=None):
        self.pt, self.asked, self.limit, self.trip = pt, set(), limit, trip

    def sign_lattice(self, *form):
        if form == self.trip or (form not in self.asked and len(self.asked) == self.limit):
            self.trip = form
            raise Undecided(f"sign of {form} tripped", 0)
        self.asked.add(form)
        return self.pt.sign_lattice(*form)

    def held_ends(self):
        # no window to screen on: every bound test is a sign query, through the trip
        return None


def _peel(sys, v, w1, w2):
    """The shift the family search reaches from v by peeling the word pair."""
    for i, j in zip(w1, w2):
        v = (v + sys.offset(j) - sys.offset(i)).scale(sys.ratio_denominator)
    return v


def test_undecided_names_the_word_pair():
    full = example_point(1)
    short = ParamPoint(
        StaticRefiner([full.window(k) for k in range(1, 7)]), irrationality_assumed=True
    )
    sys = example_template(1).system
    v = AffineExpr.parameter(7)
    with pytest.raises(Undecided) as caught:
        OverlapOracle(OpenSetApprox(sys, SEED1, 12), short).overlaps(v)
    w1, w2 = caught.value.words
    assert (str(w1), str(w2)) == ("33233", "12311")
    assert caught.value.level is None
    # the pair peels down to the point whose own test stayed undecided
    with pytest.raises(Undecided) as again:
        OverlapOracle(OpenSetApprox(sys, SEED1, 12 - len(w1)), short).overlaps(
            _peel(sys, v, w1, w2)
        )
    assert again.value.words == (EMPTY_WORD, EMPTY_WORD)
    assert str(again.value) == str(caught.value)
    # the constructed census names the level it was building as well
    with pytest.raises(Undecided) as census:
        constructed_v_type_census(sys, short, OpenSetApprox(sys, SEED1, 12), 4)
    assert census.value.level == 1
    assert census.value.words is not None


@pytest.mark.parametrize("which,seed,depth", [(1, SEED1, 40), (2, SEED2, 20)])
def test_undecided_word_pair_leads_to_the_undecided_test(which, seed, depth):
    # each pass fails at a different sign query: at the root, on a frame's
    # step, in a child's walks, behind runs that earlier queries left; the
    # word pair always peels down to a point whose own test asks that query
    sys = example_template(which).system
    pt = example_point(which, budget=5000)
    queries = _queries(sys, pt, 6)[:-len(OFF_LATTICE)]
    open_set = OpenSetApprox(sys, seed, depth)
    counting = _Tripwire(pt)
    oracle = OverlapOracle(open_set, counting)
    for v in queries:
        oracle.overlaps(v)
    for limit in range(0, len(counting.asked), 3):
        tripwire = _Tripwire(pt, limit=limit)
        oracle = OverlapOracle(open_set, tripwire)
        with pytest.raises(Undecided) as caught:
            for v in queries:
                oracle.overlaps(v)
        w1, w2 = caught.value.words
        fresh = _Tripwire(pt, trip=tripwire.trip)
        with pytest.raises(Undecided) as again:
            OverlapOracle(OpenSetApprox(sys, seed, depth - len(w1)), fresh).overlaps(
                _peel(sys, v, w1, w2)
            )
        assert again.value.words == (EMPTY_WORD, EMPTY_WORD)
        assert str(again.value) == str(caught.value)


# --- runs of single-child points ------------------------------------------------


def _constructed_census_decisions(which, seed, levels):
    """Point decisions the overlap oracle makes in a constructed-set census."""
    sys = example_template(which).system
    pt = example_point(which, budget=5000)
    decisions = 0
    known = OverlapOracle._known_family

    def counting(self, *args):
        nonlocal decisions
        decisions += 1
        return known(self, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(OverlapOracle, "_known_family", counting)
        constructed_v_type_census(sys, pt, OpenSetApprox(sys, seed, levels + 2), levels)
    return decisions


@pytest.mark.parametrize("which,seed,levels", [(1, SEED1, 50), (2, SEED2, 30)])
def test_oracle_work_grows_linearly_with_the_levels(which, seed, levels):
    # a run of single-child points is answered in one step, so a point met
    # again at a budget one larger is not searched down its whole run again
    once = _constructed_census_decisions(which, seed, levels)
    twice = _constructed_census_decisions(which, seed, 2 * levels)
    assert twice <= 2.2 * once, (once, twice)


def test_oracle_decisions_in_a_deep_constructed_census():
    assert _constructed_census_decisions(1, SEED1, 200) <= 2500


def _lines_run(fn, *args) -> int:
    """The lines of sepkit code ``fn(*args)`` runs, counted by a trace function."""
    root, count = str(Path(sepkit.__file__).parent), 0

    def line(frame, event, arg):
        nonlocal count
        count += event == "line"
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(root) else None

    previous = gettrace()
    settrace(call)
    try:
        fn(*args)
    finally:
        settrace(previous)
    return count


@pytest.mark.parametrize("which,seed", [(1, SEED1), (2, SEED2)])
def test_constructed_census_work_grows_linearly_with_the_levels(which, seed):
    # a level steps its classes (1 on example 1, 3 on example 2) and only the
    # states new at it, not the 2k + 1 convex states, so twice the levels run
    # about twice the code; stepping every state runs 2.6x to 2.7x as much
    sys = example_template(which).system

    def lines(levels):
        open_set = OpenSetApprox(sys, seed, levels + 2)
        pt = example_point(which, budget=5000)
        return _lines_run(constructed_v_type_census, sys, pt, open_set, levels)

    once, twice = lines(60), lines(120)
    assert twice <= 2.2 * once, (once, twice)


#: at truncation 1 the seed 1/4:3/4 keeps the same members of convex states
#: whose successors are kept differently, so merging them would be unsound
CLASSES_SPLIT = ["types", "--example", "1", "--open-set", "constructed", "--seed", "1/4:3/4",
                 "--truncation", "1", "--levels", "12"]


def test_census_steps_every_state_where_classes_split(capsys):
    # the census then steps every state, and its report is the one the state
    # loop gave before classes were stepped
    state_levels = openset_module._state_levels
    with mock.patch.object(openset_module, "_state_levels", wraps=state_levels) as states:
        code = main(CLASSES_SPLIT)
    out, err = capsys.readouterr()
    assert states.call_count == 1
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1012e1cc9a49c6deca27159753b0fe29a5123812de46bc70e443670865801642"
    )


@pytest.mark.parametrize("which,seed,levels", [(1, SEED1, 30), (2, SEED2, 14)])
def test_family_search_asks_each_near_test_once(which, seed, levels):
    # the family search asks a point's near test through ``within`` when it
    # first reaches the point, and it reaches every point its cache builds
    sys = example_template(which).system
    asked, oracles = Counter(), []
    within, init = DisplacementLattice.within, OverlapOracle.__init__

    def tested(lattice, pt, point, bound, *args):
        if bound == seed.width:
            asked[(lattice.lp, lattice.lq, point)] += 1
        return within(lattice, pt, point, bound, *args)

    def kept(oracle, *args):
        init(oracle, *args)
        oracles.append(oracle)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DisplacementLattice, "within", tested)
        patch.setattr(OverlapOracle, "__init__", kept)
        constructed_v_type_census(
            sys, example_point(which), OpenSetApprox(sys, seed, levels + 2), levels
        )
    nodes = sum(node is not None for oracle in oracles for node in oracle._points.values())
    assert max(asked.values()) == 1
    assert sum(asked.values()) == nodes == {1: 125, 2: 61}[which]


#: a system with one middle map whose point 3/5 is its own only child, and
#: one whose points 3/5 and -3/5 are each other's, both far from the seed
CLOSED_RUNS = [F(8, 25), F(2, 25)]


@pytest.mark.parametrize("middle", CLOSED_RUNS)
def test_closed_run_is_disjoint_at_every_budget(middle):
    sys = IfsSystem(5, tuple(AffineExpr.constant(d) for d in (0, middle, F(4, 5))))
    pt = RationalParam(F(1, 3))
    assert validate_system(sys, pt).valid
    open_set = OpenSetApprox(sys, RationalInterval.make(F(9, 20), F(11, 20)), 20)
    queries = [AffineExpr.constant(c) for c in (F(3, 5), F(-3, 5), F(1, 5), F(2, 5))]
    queries += _queries(sys, pt, 3)
    _assert_witnesses_in_either_order(open_set, pt, queries)
    oracle = OverlapOracle(open_set, pt)
    assert oracle.overlaps(AffineExpr.constant(F(3, 5))) is None
    # a deeper open set asks the closed run at budgets it has not met
    assert OverlapOracle(OpenSetApprox(sys, open_set.seed, 40), pt).overlaps(
        AffineExpr.constant(F(-3, 5))
    ) is None
