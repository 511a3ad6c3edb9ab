import tracemalloc
from collections import Counter
from fractions import Fraction as F
from functools import cmp_to_key
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from sepkit import (
    AffineExpr,
    DrivingSequence,
    IfsSystem,
    OpenSetApprox,
    Param,
    ParamPoint,
    RationalInterval,
    RationalParam,
    Undecided,
    Word,
    constructed_v_type_census,
    convex_type_census,
    displacement_levels,
    distinctness_check,
    endpoint_separation,
    exact_overlap_scan,
    example_point,
    example_template,
    map_at_zero,
    osc_dimension,
    param_point,
    run_construction,
    translation_amount,
    wsp_min_displacement,
)
from sepkit import openset, separation
from sepkit.construction import PERIODIC_WARNING
from sepkit.ifs import word_text
from sepkit.openset import OverlapOracle, _FamilyMemo
from sepkit.separation import (
    Displacement,
    DisplacementLattice,
    EndpointBucket,
    EndpointReport,
    OverlapPair,
    OverlapScanResult,
    TypeAutomaton,
    WspLevelMinimum,
    WspResult,
)

from bruteforce import (
    abs_expr,
    brute_force_displacements,
    compare,
    endpoint_separation_bruteforce,
    ReferenceTypeAutomaton,
    reference_search,
    small_systems,
    sorting_wsp_min_displacement,
    StaticRefiner,
    word_type,
)

SEVEN_A = AffineExpr.parameter(7)


# --- displacement BFS vs brute force -----------------------------------------


@pytest.mark.parametrize("which,levels", [(1, 3), (2, 3)])
def test_bfs_matches_bruteforce(which, levels, ex1_pt, ex2_pt):
    tmpl = example_template(which)
    pt = ex1_pt if which == 1 else ex2_pt
    per_level = displacement_levels(tmpl.system, pt, levels)
    for level, found in enumerate(per_level, start=1):
        brute = brute_force_displacements(tmpl.system, pt, level)
        assert set(found) == set(brute)


def test_bfs_matches_bruteforce_rational_control(ex1_sys, eighth_pt):
    per_level = displacement_levels(ex1_sys, eighth_pt, 4)
    for level, found in enumerate(per_level, start=1):
        brute = brute_force_displacements(ex1_sys, eighth_pt, level)
        assert set(found) == set(brute)


# --- weak separation minimum --------------------------------------------------


def test_wsp_level1_example1(ex1_sys, ex1_pt):
    result = wsp_min_displacement(ex1_sys, ex1_pt, 1)
    assert result.minimum.abs_value == SEVEN_A
    assert tuple(map(str, result.minimum.displacement.witness)) == ("1", "2")
    assert ex1_pt.eval_decimal(result.minimum.abs_value, 10) == "0.9482520975"


def test_wsp_monotone_in_level(ex1_sys, ex1_pt):
    previous = None
    for level in range(1, 7):
        current = wsp_min_displacement(ex1_sys, ex1_pt, level).minimum.abs_value
        if previous is not None:
            assert compare(ex1_pt, current, previous) <= 0
        previous = current


def _brute_min_abs(sys, pt, max_level):
    best = None
    for level in range(1, max_level + 1):
        for key, disp in brute_force_displacements(sys, pt, level).items():
            if key == pt.canonical_key(AffineExpr.constant(0)):
                continue
            value = abs_expr(pt, disp.value)
            if best is None or compare(pt, value, best) < 0:
                best = value
    return best


@pytest.mark.parametrize("which,max_level", [(1, 3), (2, 2)])
def test_wsp_matches_bruteforce(which, max_level, ex1_pt, ex2_pt):
    tmpl = example_template(which)
    pt = ex1_pt if which == 1 else ex2_pt
    result = wsp_min_displacement(tmpl.system, pt, max_level)
    assert result.minimum.abs_value == _brute_min_abs(tmpl.system, pt, max_level)


@pytest.mark.parametrize(
    "which,value", [(1, F(1, 8)), (1, F(41, 56)), (2, F(1, 32)), (2, F(3, 64))]
)
def test_wsp_running_minimum_matches_sorting_every_level(which, value):
    # at a rational point one value has many forms, and v ties with -v
    sys = example_template(which).system
    pt = RationalParam(value)
    assert wsp_min_displacement(sys, pt, 600) == sorting_wsp_min_displacement(sys, pt, 600)


@pytest.mark.parametrize("which,value,calls", [(1, F(1, 8), 7), (2, F(1, 32), 3)])
def test_wsp_asks_no_sign_once_the_levels_saturate(which, value, calls):
    # at a rational point the displacement set stops growing after a few
    # levels; a level that adds no value asks no sign, since each tied value
    # keeps the sign asked when it first appeared; every bound test, the
    # root's too, is read off the point's degenerate window
    sys = example_template(which).system
    sign_lattice = RationalParam.sign_lattice
    counts = []
    for levels in (20, 600):
        asked = []

        def counted(self, *args):
            asked.append(args)
            return sign_lattice(self, *args)

        with mock.patch.object(RationalParam, "sign_lattice", counted):
            wsp_min_displacement(sys, RationalParam(value), levels)
        counts.append(len(asked))
    assert counts == [calls, calls]


@pytest.mark.parametrize("which,levels", [(1, 300), (2, 50)])
def test_wsp_report_evaluates_each_minimum_once(which, levels):
    # the per-level entries repeat the running minimum, so the report asks
    # one decimal per distinct |v| (4 and 1 here), not one per level
    sys, pt = example_template(which).system, example_point(which, budget=5000)
    result = wsp_min_displacement(sys, pt, levels)
    distinct = {item.abs_value for item in (result.minimum, *result.per_level) if item}
    with mock.patch.object(pt, "eval_decimal", wraps=pt.eval_decimal) as asked:
        report = result.to_json(pt)
    assert asked.call_count == len(distinct) <= 4
    assert [item["abs_decimal"] for item in report["per_level"]] == [
        pt.eval_decimal(item.abs_value, separation.DISPLAY_DIGITS) for item in result.per_level
    ]


@pytest.mark.parametrize("which,value,levels", [(1, F(1, 8), 300), (2, None, 100)])
def test_wsp_sign_queries_grow_with_the_levels(which, value, levels):
    # each value is compared when it first appears, so doubling the levels
    # about doubles the sign queries, not quadruples them
    sys = example_template(which).system
    inner = example_point(which, budget=5000) if value is None else RationalParam(value)
    calls = []
    for depth in (levels, 2 * levels):
        pt = _CountingParam(inner)
        wsp_min_displacement(sys, pt, depth)
        calls.append(sum(pt.queries.values()))
    assert 0 < calls[1] <= 2.2 * calls[0]


def _constructed_census(sys, pt, levels):
    """The census over the grown open set of the seed 3/7:4/7."""
    open_set = OpenSetApprox(sys, RationalInterval.make(F(3, 7), F(4, 7)), levels + 2)
    return constructed_v_type_census(sys, pt, open_set, levels)


@pytest.mark.parametrize(
    "census", [convex_type_census, _constructed_census], ids=["convex", "constructed"]
)
def test_census_looks_up_each_state_once(census, ex1_sys, eighth_pt):
    def lookups(levels):
        """The census's successor calls per (state, symbol), the states they
        reach, the root, its filters per state, the members each filter sent
        to the oracle next to the state's members, and all oracle calls."""
        calls, reached, roots, filtered, members, asked = Counter(), set(), set(), Counter(), {}, []
        successor, kept, overlaps = TypeAutomaton.successor, openset._kept, OverlapOracle.overlaps

        def counted(self, key, symbol):
            calls[key, symbol] += 1
            child = successor(self, key, symbol)
            reached.add(child)
            roots.add(self.root_key)
            return child

        def filter_counted(oracle, automaton, key, level):
            filtered[key] += 1
            start = len(asked)
            result = kept(oracle, automaton, key, level)
            members[key] = (tuple(asked[start:]), automaton.type_of(key))
            return result

        def asked_counted(oracle, v):
            asked.append(v)
            return overlaps(oracle, v)

        with mock.patch.object(TypeAutomaton, "successor", counted), mock.patch.object(
            openset, "_kept", filter_counted
        ), mock.patch.object(OverlapOracle, "overlaps", asked_counted):
            census(ex1_sys, eighth_pt, levels)
        return calls, reached, roots, filtered, members, len(asked)

    calls, reached, roots, filtered, members, asked = lookups(600)
    assert max(calls.values()) == 1
    assert len(calls) <= len(reached | roots) * ex1_sys.alphabet_size
    if census is _constructed_census:
        # each state a word of length 1 or more has is filtered once, and
        # sends each of its members to the oracle once
        assert filtered == Counter(reached)
        assert all(sent == held for sent, held in members.values())
        assert asked == sum(len(held) for _, held in members.values())
    else:
        assert filtered == Counter() and asked == 0
    # the seven states at a = 1/8 are all met by level 60
    assert lookups(60) == (calls, reached, roots, filtered, members, asked)


def test_automaton_sorts_each_state_once(ex1_sys, eighth_pt):
    # a found set is put in canonical order only when it is a new state
    sorts, automata = [], []

    def counted(order):
        sorts.append(order)
        return cmp_to_key(order)

    class KeptAutomaton(TypeAutomaton):
        def __init__(self, *args):
            super().__init__(*args)
            automata.append(self)

    with mock.patch.multiple(separation, cmp_to_key=counted, TypeAutomaton=KeptAutomaton):
        result = convex_type_census(ex1_sys, eighth_pt, 600)
    (automaton,) = automata
    assert result == convex_type_census(ex1_sys, eighth_pt, 600)
    assert len(sorts) == len(automaton._types) == len(set(automaton._value_ids))


@pytest.mark.parametrize("symbols", [3, 9, 10, 12])
def test_census_witness_column_is_each_word_text(symbols):
    # one joined translation when every symbol is at most 9, comma lists
    # otherwise; the last map overlaps the one before it, so only words
    # that use it have their own types
    m = symbols + 1
    sys = IfsSystem(m, tuple(AffineExpr.constant(F(k, m)) for k in range(symbols - 1))
                    + (AffineExpr(F(symbols - 2, m), F(1, m)),))
    result = convex_type_census(sys, RationalParam(F(1, 3)), 3)
    report = result.to_json(RationalParam(F(1, 3)))
    for level, lv in zip(report["levels"], result.levels):
        assert level["witnesses"] == list(map(word_text, lv.witnesses))
    assert (symbols >= 10) == any("," in w for level in report["levels"]
                                  for w in level["witnesses"])


@pytest.mark.parametrize("which", [1, 2])
def test_displacement_sets_grow_by_the_scaled_gap(which):
    # D_k = D_(k-1) + {u_k, -u_k}, so |D_k| = 2k + 1 (ROADMAP fact B)
    tmpl = example_template(which)
    pt = example_point(which)
    run = run_construction(tmpl, DrivingSequence.thue_morse(), 100)
    memo = separation._PointMemo(separation.DisplacementLattice(tmpl.system), pt, F(1), True)
    zero = pt.canonical_key(AffineExpr.constant(0))
    previous = {zero}
    levels = separation._search(memo, 100)
    for k, ((level, _), state) in enumerate(zip(levels, run.states), start=1):
        assert state.level == k
        values = {memo.keys[ident] for ident in level}
        u = state.scaled_gap
        assert values == previous | {pt.canonical_key(u), pt.canonical_key(-u)}
        assert len(values) == 2 * k + 1
        previous = values


def test_example2_zero_displacement_witness(ex2_sys):
    scan = exact_overlap_scan(ex2_sys, 2)
    assert [(str(o.left), str(o.right)) for o in scan.overlaps] == [("15", "23")]


# --- convex neighbourhood-type census ------------------------------------------


def test_census_level1_example1(ex1_sys, ex1_pt):
    census = convex_type_census(ex1_sys, ex1_pt, 1)
    level = census.levels[0]
    types = {
        str(Word(witness)): [str(v) for v in displacements]
        for displacements, witness in zip(level.type_column, level.witnesses)
    }
    assert types == {"1": ["0", "7*a"], "2": ["-7*a", "0"], "3": ["0"]}
    assert level.distinct_count == 3


def test_census_strictly_increasing_example1(ex1_sys, ex1_pt):
    counts = convex_type_census(ex1_sys, ex1_pt, 8).counts
    assert counts == (3, 5, 7, 9, 11, 13, 15, 17)


def test_census_saturates_at_rational_control(ex1_sys, eighth_pt):
    counts = convex_type_census(ex1_sys, eighth_pt, 10).counts
    assert counts == (3, 5, 7, 7, 7, 7, 7, 7, 7, 7)


@pytest.mark.parametrize("max_level", [0, -3])
def test_level_searches_refuse_fewer_than_one_level(ex1_sys, ex1_pt, max_level):
    # as exact_overlap_scan does, instead of an empty report
    oset = OpenSetApprox(ex1_sys, RationalInterval.make(F(3, 7), F(4, 7)), 2)
    calls = [
        lambda: convex_type_census(ex1_sys, ex1_pt, max_level),
        lambda: constructed_v_type_census(ex1_sys, ex1_pt, oset, max_level),
        lambda: wsp_min_displacement(ex1_sys, ex1_pt, max_level),
        lambda: exact_overlap_scan(ex1_sys, max_level),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="max_level must be >= 1"):
            call()


def _brute_word_type(sys, pt, word, words_same_level):
    values = {}
    for tau in words_same_level:
        value = translation_amount(sys, word, tau)
        if (
            pt.sign(value.shift(1)) > 0
            and pt.sign(AffineExpr.constant(1) - value) > 0
        ):
            values.setdefault(pt.canonical_key(value), value)
    return set(values)


@pytest.mark.parametrize("which,levels", [(1, 4), (2, 3)])
def test_automaton_types_match_bruteforce(which, levels, ex1_pt, ex2_pt):
    tmpl = example_template(which)
    pt = ex1_pt if which == 1 else ex2_pt
    automaton = TypeAutomaton(tmpl.system, pt)
    for level in range(1, levels + 1):
        words = list(tmpl.system.words(level))
        for word in words:
            expected = _brute_word_type(tmpl.system, pt, word, words)
            got = {pt.canonical_key(v) for v in word_type(automaton, word)}
            assert got == expected


def test_automaton_types_match_bruteforce_rational(ex1_sys, eighth_pt):
    automaton = TypeAutomaton(ex1_sys, eighth_pt)
    for level in range(1, 5):
        words = list(ex1_sys.words(level))
        for word in words:
            expected = _brute_word_type(ex1_sys, eighth_pt, word, words)
            got = {eighth_pt.canonical_key(v) for v in word_type(automaton, word)}
            assert got == expected


def test_displacements_closed_under_negation(ex1_sys, ex1_pt):
    # swapping the words of a pair negates its displacement, so each
    # level's displacement value set is symmetric about zero
    for level_map in displacement_levels(ex1_sys, ex1_pt, 6):
        values = {ex1_pt.canonical_key(AffineExpr(p, q)) for (p, q) in level_map}
        mirrored = {ex1_pt.canonical_key(AffineExpr(-p, -q)) for (p, q) in level_map}
        assert values == mirrored


# --- exact overlap scan --------------------------------------------------------


def _brute_force_overlap_scan(sys, max_level):
    """Word-enumerating oracle: group every word of each level by its map.

    A pair is derived when some split gives equal maps on both the
    prefix pair and the suffix pair; groups come in order of their
    smallest word, pairs in (sigma, tau) order.
    """
    origin_of = {Word(): AffineExpr.constant(0)}
    primitive, derived = [], []
    for level in range(1, max_level + 1):
        groups = {}
        for word in sys.words(level):
            origin = map_at_zero(sys, word)
            origin_of[word] = origin
            groups.setdefault((origin.p, origin.q), []).append(word)
        for words in groups.values():
            words.sort()
            for a, sigma in enumerate(words):
                for tau in words[a + 1:]:
                    factors = any(
                        origin_of[Word(sigma.symbols[:s])] == origin_of[Word(tau.symbols[:s])]
                        and origin_of[Word(sigma.symbols[s:])] == origin_of[Word(tau.symbols[s:])]
                        for s in range(1, level)
                    )
                    (derived if factors else primitive).append(OverlapPair(sigma, tau, level))
    return OverlapScanResult(max_level, tuple(primitive), tuple(derived))


@pytest.mark.parametrize("which,max_level", [(1, 6), (2, 5)])
def test_overlap_scan_matches_bruteforce(which, max_level):
    sys = example_template(which).system
    for level in range(1, max_level + 1):
        assert exact_overlap_scan(sys, level) == _brute_force_overlap_scan(sys, level)


@settings(max_examples=60, deadline=None)
@given(small_systems(), st.integers(1, 4))
def test_overlap_scan_matches_bruteforce_random_systems(sys, max_level):
    assert exact_overlap_scan(sys, max_level) == _brute_force_overlap_scan(sys, max_level)



@pytest.mark.parametrize(
    "last,first_pair",
    [(F(9, 11), ("10,", "11,")), (F(100, 121), ("10,2", "11,1"))],
    ids=["equal-offsets", "cancelling-offsets"],
)
def test_overlap_scan_symbols_above_nine(last, first_pair):
    # eleven maps: witnesses hold symbols >= 10, written as comma lists
    sys = IfsSystem(11, tuple(AffineExpr.constant(F(k, 11)) for k in range(10))
                    + (AffineExpr.constant(last),))
    for level in (1, 2):
        assert exact_overlap_scan(sys, level) == _brute_force_overlap_scan(sys, level)
    first = exact_overlap_scan(sys, 2).overlaps[0]
    assert (str(first.left), str(first.right)) == first_pair


def test_overlap_scan_example2(ex2_sys):
    scan1 = exact_overlap_scan(ex2_sys, 1)
    assert scan1.overlaps == ()
    scan2 = exact_overlap_scan(ex2_sys, 2)
    assert [(str(o.left), str(o.right), o.level) for o in scan2.overlaps] == [
        ("15", "23", 2)
    ]


def test_held_pair_columns_match_built_tuples(ex1_sys, ex2_sys, ex2_pt):
    # the scan and the endpoint check hand their pairs over as columns; the
    # report, the fields, equality and hash are those of a result built with
    # tuples (at a = 1/8 example 1 has touching picks, listed with delta +-1)
    eighth = RationalParam(F(1, 8))
    cases = [
        (exact_overlap_scan(ex2_sys, 4), _brute_force_overlap_scan(ex2_sys, 4), (),
         {"overlaps": "level", "derived": "level"}),
        (endpoint_separation(ex2_sys, ex2_pt, 4, F(4, 7)),
         _oracle_endpoint_separation(ex2_sys, ex2_pt, 4, F(4, 7)), (ex2_pt,),
         {"equal_pairs": "endpoint_delta"}),
        (endpoint_separation(ex1_sys, eighth, 2, F(4, 7)),
         _oracle_endpoint_separation(ex1_sys, eighth, 2, F(4, 7)), (eighth,),
         {"equal_pairs": "endpoint_delta"}),
    ]
    for held, built, json_args, names in cases:
        # each pair written as one record of its words' texts and its int
        report = held.to_json(*json_args)
        for name, key in names.items():
            rows = [(p.left, p.right, p.level) if isinstance(p, OverlapPair) else p
                    for p in getattr(built, name)]
            assert rows and report[name] == [
                {"sigma": str(sigma), "tau": str(tau), key: value} for sigma, tau, value in rows
            ]
        assert held == built and hash(held) == hash(built) and repr(held) == repr(built)
        for name in names:
            rows = getattr(held, name)
            assert type(rows) is tuple and rows == getattr(built, name)
            assert getattr(held, name) is rows
    with pytest.raises(AttributeError):
        exact_overlap_scan(ex2_sys, 2).pairs


def test_overlap_scan_example1_empty(ex1_sys):
    scan = exact_overlap_scan(ex1_sys, 4)
    assert scan.overlaps == () and scan.derived == ()


def test_overlap_scan_duplicate_map():
    dup = IfsSystem(
        7,
        (AffineExpr.constant(0), AffineExpr.constant(0), AffineExpr.constant(F(6, 7))),
    )
    scan = exact_overlap_scan(dup, 1)
    assert [(str(o.left), str(o.right)) for o in scan.overlaps] == [("1", "2")]
    for level in range(1, 4):
        assert exact_overlap_scan(dup, level) == _brute_force_overlap_scan(dup, level)


def test_overlap_extensions_are_derived(ex2_sys):
    scan = exact_overlap_scan(ex2_sys, 3)
    assert [(str(o.left), str(o.right)) for o in scan.overlaps] == [("15", "23")]
    derived = {(str(o.left), str(o.right)) for o in scan.derived}
    # same-suffix and same-prefix extensions of the level-2 overlap
    assert ("151", "231") in derived
    assert ("115", "123") in derived


def test_zero_displacement_propagates_to_extensions(ex2_sys):
    sigma, tau = Word.parse("15"), Word.parse("23")
    assert translation_amount(ex2_sys, sigma, tau) == AffineExpr.constant(0)
    for rho in list(ex2_sys.words(1)) + list(ex2_sys.words(2)):
        assert translation_amount(ex2_sys, sigma + rho, tau + rho) == AffineExpr.constant(0)


# --- the integer-lattice core against the Fraction-valued search ----------------


def _oracle_inside(pt, value, bound, strict):
    least = 1 if strict else 0
    return (
        pt.sign(value.shift(bound)) >= least
        and pt.sign(AffineExpr.constant(bound) - value) >= least
    )


def _oracle_displacement_levels(sys, pt, max_level, bound=F(1), strict=True):
    """The Fraction-valued BFS: one AffineExpr and one bound test per child."""
    m = sys.ratio_denominator
    zero = AffineExpr.constant(0)
    current = {pt.canonical_key(zero): Displacement(zero, (Word(), Word()))}
    levels = []
    for _ in range(max_level):
        nxt = {}
        for parent in sorted(current.values(), key=lambda d: d.witness):
            for i in sys.symbols:
                for j in sys.symbols:
                    child = (parent.value + sys.offset(j) - sys.offset(i)).scale(m)
                    if not _oracle_inside(pt, child, bound, strict):
                        continue
                    key = pt.canonical_key(child)
                    if key not in nxt:
                        sigma, tau = parent.witness
                        nxt[key] = Displacement(child, (sigma.append(i), tau.append(j)))
        levels.append(nxt)
        current = nxt
    return levels


def _oracle_wsp_min_displacement(sys, pt, max_level):
    """The Fraction-valued WSP minimum: |v| and every comparison as forms."""
    levels = _oracle_displacement_levels(sys, pt, max_level)
    zero_key = pt.canonical_key(AffineExpr.constant(0))
    best = None
    per_level = []
    for index, level_map in enumerate(levels, start=1):
        level_best = None
        for key, disp in sorted(level_map.items(), key=lambda kv: kv[1].witness):
            if key == zero_key:
                continue
            abs_value = abs_expr(pt, disp.value)
            if level_best is None or compare(pt, abs_value, level_best.abs_value) < 0:
                level_best = WspLevelMinimum(index, disp, abs_value)
        per_level.append(level_best)
        if level_best is not None and (
            best is None or compare(pt, level_best.abs_value, best.abs_value) < 0
        ):
            best = level_best
    return WspResult(max_level, best, tuple(per_level))


def _oracle_endpoint_separation(sys, pt, max_level, threshold, include_mixed_in_verdict=False):
    """The Fraction-valued endpoint check: shifted values, |v| and tests as forms."""
    threshold = F(threshold)
    levels = _oracle_displacement_levels(sys, pt, max_level, bound=1 + threshold, strict=False)
    scan = exact_overlap_scan(sys, max_level)
    equal_pairs = [(o.left, o.right, 0) for o in scan.overlaps + scan.derived]
    same, mixed = [], []
    for level_map in levels:
        for disp in level_map.values():
            for delta in (-1, 0, 1):
                value = disp.value.shift(delta)
                witness = (disp.witness[1], disp.witness[0], delta)
                if pt.sign(value) == 0:
                    if delta != 0:
                        equal_pairs.append(witness)
                    continue
                (mixed if delta else same).append((abs_expr(pt, value), witness))

    def bucket(entries):
        least, witness, violations = None, None, 0
        for abs_value, pick in entries:
            if least is None or compare(pt, abs_value, least) < 0:
                least, witness = abs_value, pick
            if pt.sign(abs_value - AffineExpr.constant(threshold)) <= 0:
                violations += 1
        return EndpointBucket(violations == 0, least, witness, violations)

    return EndpointReport(
        max_level, threshold, bucket(same), bucket(mixed), tuple(equal_pairs),
        include_mixed_in_verdict,
    )


class _OracleTypeAutomaton:
    """The Fraction-valued automaton, keyed by tuples of canonical keys; it
    keeps no child cache, so it ignores one it is handed."""

    def __init__(self, sys, pt, memo=None):
        self.sys = sys
        self.pt = pt
        self._types = {}
        self._transitions = {}
        self.root_key = self._intern([AffineExpr.constant(0)])

    def _intern(self, values):
        dedup = {}
        for v in values:
            dedup.setdefault(self.pt.canonical_key(v), v)
        ordered = tuple(sorted(dedup.values(), key=cmp_to_key(lambda x, y: compare(self.pt, x, y))))
        key = tuple(self.pt.canonical_key(v) for v in ordered)
        self._types.setdefault(key, ordered)
        return key

    def type_of(self, key):
        return self._types[key]

    def value_ids(self, key):
        return key

    def successor(self, key, symbol):
        if (key, symbol) not in self._transitions:
            m = self.sys.ratio_denominator
            d_i = self.sys.offset(symbol)
            children = [
                child
                for v in self.type_of(key)
                for j in self.sys.symbols
                for child in [(v + self.sys.offset(j) - d_i).scale(m)]
                if _oracle_inside(self.pt, child, F(1), True)
            ]
            self._transitions[(key, symbol)] = self._intern(children)
        return self._transitions[(key, symbol)]


def _oracle_census(sys, pt, max_level):
    with mock.patch.object(separation, "TypeAutomaton", _OracleTypeAutomaton):
        return convex_type_census(sys, pt, max_level)


def _states_in_order(sys, pt, max_level):
    """Every level's (type, count, witness) in ``census_states`` order."""
    return [
        [(automaton.type_of(key), count, witness) for count, witness, key in states.values()]
        for _, automaton, states in separation.census_states(
            separation.TypeAutomaton(sys, pt), max_level
        )
    ]


def _in_order(levels):
    return [list(level.items()) for level in levels]


def _assert_witness_order(sys, pt, max_level, census):
    """``census_states`` dicts and census entries come in strictly increasing witness order."""
    for _, _, states in separation.census_states(TypeAutomaton(sys, pt), max_level):
        witnesses = [witness for _, witness, _ in states.values()]
        assert all(a < b for a, b in zip(witnesses, witnesses[1:]))
    for level in census.levels:
        witnesses = level.witnesses
        assert all(a < b for a, b in zip(witnesses, witnesses[1:]))


def _outcome(fn, *args, **kwargs):
    """A call's result, or the message of the ``Undecided`` it raised."""
    try:
        return fn(*args, **kwargs)
    except Undecided as exc:
        return ("undecided", str(exc))


#: (example, point, levels): both examples at their points, and rational
#: points where distinct lattice points collapse onto one value
ORACLE_CASES = [
    (1, "ex1", 6),
    (2, "ex2", 3),
    (1, F(1, 8), 12),
    (1, F(41, 56), 12),
    (2, F(1, 32), 6),
    (2, F(3, 64), 6),
]


def _case_point(label, ex1_pt, ex2_pt):
    return {"ex1": ex1_pt, "ex2": ex2_pt}.get(label) or RationalParam(label)


@pytest.mark.parametrize("which,label,levels", ORACLE_CASES)
def test_bfs_matches_fraction_oracle(which, label, levels, ex1_pt, ex2_pt):
    sys = example_template(which).system
    pt = _case_point(label, ex1_pt, ex2_pt)
    # keys, insertion order, representative values and witnesses
    assert _in_order(displacement_levels(sys, pt, levels)) == _in_order(
        _oracle_displacement_levels(sys, pt, levels)
    )


@pytest.mark.parametrize("which,levels", [(1, 5), (2, 3)])
def test_bfs_closed_endpoint_bound_matches_fraction_oracle(which, levels, ex1_pt, ex2_pt):
    # the closed bound endpoint_separation prunes at
    sys = example_template(which).system
    pt = ex1_pt if which == 1 else ex2_pt
    bound = 1 + F(4, 7)
    got = displacement_levels(sys, pt, levels, bound=bound, strict=False)
    expected = _oracle_displacement_levels(sys, pt, levels, bound=bound, strict=False)
    assert _in_order(got) == _in_order(expected)
    rational = RationalParam(F(1, 8))
    got = displacement_levels(sys, rational, levels, bound=bound, strict=False)
    expected = _oracle_displacement_levels(sys, rational, levels, bound=bound, strict=False)
    assert _in_order(got) == _in_order(expected)


@pytest.mark.parametrize("which,label,levels", ORACLE_CASES)
def test_census_matches_fraction_oracle(which, label, levels, ex1_pt, ex2_pt):
    sys = example_template(which).system
    pt = _case_point(label, ex1_pt, ex2_pt)
    census = convex_type_census(sys, pt, levels)
    oracle = _oracle_census(sys, pt, levels)
    assert census.counts == oracle.counts
    # types (representative values in canonical order), counts, witnesses
    assert census == oracle
    with mock.patch.object(separation, "TypeAutomaton", _OracleTypeAutomaton):
        expected = _states_in_order(sys, pt, levels)
    assert _states_in_order(sys, pt, levels) == expected
    _assert_witness_order(sys, pt, levels, census)


@pytest.mark.parametrize("which,label,levels", ORACLE_CASES)
def test_wsp_and_endpoints_match_fraction_oracle(which, label, levels, ex1_pt, ex2_pt):
    sys = example_template(which).system
    pt = _case_point(label, ex1_pt, ex2_pt)
    # values, witnesses and minima, per level and overall
    assert wsp_min_displacement(sys, pt, levels) == _oracle_wsp_min_displacement(
        sys, pt, levels
    )
    # 1/8 is the magnitude of a mixed pick of example 1 at a = 1/8: |v| = threshold
    for threshold in (F(4, 7), F(1, 10), F(1, 8)):
        got = endpoint_separation(sys, pt, levels, threshold)
        assert got == _oracle_endpoint_separation(sys, pt, levels, threshold)


def test_constructed_census_matches_fraction_oracle(ex1_sys, ex1_pt):
    oset = OpenSetApprox(ex1_sys, RationalInterval.make(F(3, 7), F(4, 7)), 6)
    census = constructed_v_type_census(ex1_sys, ex1_pt, oset, 5)
    # the class census builds its automaton in ``openset``, the state loop in ``separation``
    with mock.patch.object(separation, "TypeAutomaton", _OracleTypeAutomaton), \
            mock.patch.object(openset, "TypeAutomaton", _OracleTypeAutomaton):
        assert census == constructed_v_type_census(ex1_sys, ex1_pt, oset, 5)
    _assert_witness_order(ex1_sys, ex1_pt, 5, census)


#: systems where children of later parents sort before those of earlier
#: ones, so the search must expand each level in witness order
REORDERING_SYSTEMS = [
    (IfsSystem(3, (AffineExpr(F(2, 3), F(-1)), AffineExpr(F(1, 3), F(1)),
                   AffineExpr(F(1, 3), F(-1)))), "ex1"),
    (IfsSystem(3, (AffineExpr(F(1, 3), F(-1)), AffineExpr(F(1, 3), F(0)),
                   AffineExpr(F(0), F(-1)))), F(1, 8)),
]


@pytest.mark.parametrize("sys,label", REORDERING_SYSTEMS)
def test_parent_order_matches_fraction_oracle(sys, label, ex1_pt, ex2_pt):
    pt = _case_point(label, ex1_pt, ex2_pt)
    got = _in_order(displacement_levels(sys, pt, 4))
    assert got == _in_order(_oracle_displacement_levels(sys, pt, 4))
    assert any(
        [w for _, w in pairs] != sorted(w for _, w in pairs)
        for pairs in ([(k, d.witness) for k, d in level] for level in got)
    )
    census = convex_type_census(sys, pt, 4)
    assert census == _oracle_census(sys, pt, 4)
    _assert_witness_order(sys, pt, 4, census)
    assert wsp_min_displacement(sys, pt, 4) == _oracle_wsp_min_displacement(sys, pt, 4)
    assert endpoint_separation(sys, pt, 4, F(4, 7)) == _oracle_endpoint_separation(
        sys, pt, 4, F(4, 7)
    )


def test_wsp_level_minimum_is_first_in_witness_order():
    # v and -v tie in magnitude; here the pair of the later-discovered one
    # is the lexicographically smaller witness
    sys = IfsSystem(2, (AffineExpr(F(1, 2), F(0)), AffineExpr(F(1, 2), F(1)),
                        AffineExpr(F(0), F(0))))
    pt = RationalParam(F(2, 5))
    assert wsp_min_displacement(sys, pt, 4) == _oracle_wsp_min_displacement(sys, pt, 4)


@settings(max_examples=50, deadline=None)
@given(
    small_systems(),
    st.integers(1, 4),
    st.sampled_from([F(1, 8), F(41, 56), F(1, 3), F(2, 5), None]),
)
def test_lattice_core_matches_fraction_oracle_random_systems(ex1_pt, sys, levels, value):
    pt = ex1_pt if value is None else RationalParam(value)
    assert _outcome(lambda: _in_order(displacement_levels(sys, pt, levels))) == _outcome(
        lambda: _in_order(_oracle_displacement_levels(sys, pt, levels))
    )
    bound = 1 + F(4, 7)
    assert _outcome(
        lambda: _in_order(displacement_levels(sys, pt, levels, bound=bound, strict=False))
    ) == _outcome(
        lambda: _in_order(_oracle_displacement_levels(sys, pt, levels, bound=bound, strict=False))
    )
    assert _outcome(convex_type_census, sys, pt, levels) == _outcome(
        _oracle_census, sys, pt, levels
    )
    assert _outcome(wsp_min_displacement, sys, pt, levels) == _outcome(
        _oracle_wsp_min_displacement, sys, pt, levels
    )
    assert _outcome(wsp_min_displacement, sys, pt, levels) == _outcome(
        sorting_wsp_min_displacement, sys, pt, levels
    )
    assert _outcome(endpoint_separation, sys, pt, levels, F(4, 7)) == _outcome(
        _oracle_endpoint_separation, sys, pt, levels, F(4, 7)
    )


# --- the lattice memo -------------------------------------------------------------


class _CountingParam(Param):
    """A point that counts its sign queries per form and delegates the rest."""

    def __init__(self, inner):
        self.inner = inner
        self.irrationality_assumed = inner.irrationality_assumed
        self.queries = Counter()

    def sign(self, e):
        self.queries[(e.p, e.q)] += 1
        return self.inner.sign(e)

    def sign_lattice(self, P, Lp, Q, Lq):
        self.queries[(F(P, Lp), F(Q, Lq))] += 1
        return self.inner.sign_lattice(P, Lp, Q, Lq)

    def eval_decimal(self, e, digits):
        return self.inner.eval_decimal(e, digits)

    def canonical_key(self, e):
        return self.inner.canonical_key(e)


@pytest.mark.parametrize("which,label,levels", ORACLE_CASES)
def test_bfs_decides_each_lattice_point_once(which, label, levels, ex1_pt, ex2_pt):
    sys = example_template(which).system
    pt = _case_point(label, ex1_pt, ex2_pt)
    counting = _CountingParam(pt)
    displacement_levels(sys, counting, levels)
    # every child the search generates: each parent of each level, all (i, j)
    m = sys.ratio_denominator
    zero = AffineExpr.constant(0)
    parents = [[zero]] + [
        [d.value for d in level.values()]
        for level in _oracle_displacement_levels(sys, pt, levels - 1)
    ]
    children = {
        (v + sys.offset(j) - sys.offset(i)).scale(m)
        for layer in parents
        for v in layer
        for i in sys.symbols
        for j in sys.symbols
    }
    # one bound test per distinct child: v + 1 > 0, then 1 - v > 0
    expected = Counter()
    for v in children:
        expected[(v.p + 1, v.q)] += 1
        if pt.sign(v.shift(1)) > 0:
            expected[(1 - v.p, -v.q)] += 1
    assert counting.queries == expected
    again = _CountingParam(pt)
    displacement_levels(sys, again, levels)
    assert again.queries == counting.queries


def _lattice_decisions(sys, pt, levels, census=convex_type_census):
    """(bound verdicts per displacement value, census, exact tests) of one census.

    A verdict is an exact bound test (``within`` at the bound 1), a node
    built on a verdict read off the held window, or a child first put
    out of bound on the window; a later scan that meets that child
    again reads the same integer ends, as a cache hit reads a stored
    verdict.  Values are counted over every child cache the census
    builds, the overlap oracle's too.
    """
    seen, out, exact = Counter(), set(), []
    memo_cls, within = separation._PointMemo, separation.DisplacementLattice.within
    nodes, children = {cls: cls._node for cls in (memo_cls, _FamilyMemo)}, memo_cls.children

    def key(lattice, point):
        value = lattice.form(point)
        return (value.p, value.q)

    def tested(lattice, point_at, point, bound, *args):
        if bound == 1:
            seen[key(lattice, point)] += 1
            exact.append(point)
        return within(lattice, point_at, point, bound, *args)

    def building(node):
        def built(memo, point):
            # a node ``within`` did not just test was built on the window's verdict
            if exact[-1:] != [point]:
                seen[key(memo.lattice, point)] += 1
            return node(memo, point)
        return built

    def scanned(memo, point, *args, **kwargs):
        start = memo[point].scanned
        found = children(memo, point, *args, **kwargs)
        m, steps = memo.lattice.m, memo.lattice.steps
        for _, _, dp, dq in steps[start:memo[point].scanned]:
            child = (m * point[0] + dp, m * point[1] + dq)
            if child not in memo and child not in out:
                out.add(child)
                seen[key(memo.lattice, child)] += 1
        return found

    with mock.patch.object(separation.DisplacementLattice, "within", tested), \
            mock.patch.object(memo_cls, "_node", building(nodes[memo_cls])), \
            mock.patch.object(_FamilyMemo, "_node", building(nodes[_FamilyMemo])), \
            mock.patch.object(memo_cls, "children", scanned):
        result = census(sys, pt, levels)
    return seen, result, len(exact)


@pytest.mark.parametrize("which,label,levels", ORACLE_CASES)
def test_automaton_decides_each_lattice_point_once(which, label, levels, ex1_pt, ex2_pt):
    sys = example_template(which).system
    pt = _case_point(label, ex1_pt, ex2_pt)

    seen, census, tested = _lattice_decisions(sys, pt, levels)
    assert seen and max(seen.values()) == 1
    assert _lattice_decisions(sys, pt, levels)[:2] == (seen, census)
    # the held window decides most children, so few reach the exact test
    assert tested < sum(seen.values())

    oracle_seen, inside = Counter(), _oracle_inside

    def counted(point_at, value, *args):
        oracle_seen[(value.p, value.q)] += 1
        return inside(point_at, value, *args)

    with mock.patch(f"{__name__}._oracle_inside", counted), \
            mock.patch.object(separation, "TypeAutomaton", _OracleTypeAutomaton):
        oracle = convex_type_census(sys, pt, levels)
    assert census == oracle
    # the same lattice points are tested, the oracle once per child
    assert set(seen) == set(oracle_seen)
    assert sum(oracle_seen.values()) >= sum(seen.values())


@pytest.mark.parametrize("which,label,levels", [(1, "ex1", 12), (2, "ex2", 6), (1, F(1, 8), 12)])
def test_constructed_census_decides_each_lattice_point_once(which, label, levels, ex1_pt, ex2_pt):
    # the automaton and the overlap oracle share one child cache, so a point
    # both of them reach is decided once, not once in each
    sys = example_template(which).system
    pt = _case_point(label, ex1_pt, ex2_pt)
    seed = RationalInterval.make(F(3, 7), F(4, 7))

    def census(sys, pt, levels):
        return constructed_v_type_census(sys, pt, OpenSetApprox(sys, seed, levels + 2), levels)

    seen, result, _ = _lattice_decisions(sys, pt, levels, census)
    assert seen and max(seen.values()) == 1
    assert result == census(sys, pt, levels)


def test_census_decides_children_on_the_held_window():
    # without the window screen this census made 1,113 exact bound tests;
    # the screen reads no window of its own, so the chain reads stay 81
    calls = Counter()
    within, refine = separation.DisplacementLattice.within, ParamPoint._refine

    def tested(*args):
        calls["within"] += 1
        return within(*args)

    def refined(*args, **kwargs):
        calls["refine"] += 1
        return refine(*args, **kwargs)

    with mock.patch.object(separation.DisplacementLattice, "within", tested), \
            mock.patch.object(ParamPoint, "_refine", refined):
        convex_type_census(example_template(1).system, example_point(1), 80)
    assert calls["within"] <= 300
    assert calls["refine"] == 81


def _short_point(which, depth):
    """A point whose window chain stops after ``depth`` windows."""
    full = example_point(which)
    windows = [full.window(k) for k in range(1, depth + 1)]
    return ParamPoint(StaticRefiner(windows), irrationality_assumed=True)


def _screen_point(kind, depth):
    """A fresh point for the window-screen equivalence test.

    "short": example 1's chain cut after ``depth`` windows; "lowered": its
    full chain, read about 15 levels deep by a decimal, then the budget
    lowered below the held level; "full": its full chain; a Fraction: that
    rational point.  Each side of the test builds its own, so both start
    from the same held window.
    """
    if kind == "short":
        return _short_point(1, depth)
    if kind in ("lowered", "full"):
        pt = example_point(1)
        if kind == "lowered":
            pt.eval_decimal(AffineExpr.parameter(1), 12)
            pt.budget = pt.held_ends()[0] - 1
            assert pt.held_ends() is None
        return pt
    return RationalParam(kind)


def _memo_walk(memo, levels):
    """The memo's children (i, j, point) of every point reached in ``levels`` steps,
    its in-bound points with how far each scan got; the walk stops at the
    first ``Undecided``."""
    rows, current, outcome = [], [separation._ZERO_STATE], "decided"
    try:
        for _ in range(levels):
            reached = {}
            for point in current:
                kids = [(i, j, child) for i, j, child, _ in memo.children(point)]
                rows.append((point, kids))
                reached.update(dict.fromkeys(child for _, _, child in kids))
            current = list(reached)
    except Undecided as exc:
        outcome = ("undecided", str(exc), exc.depth)
    kept = {point: node.scanned for point, node in memo.items() if node is not None}
    return outcome, rows, kept


def _stamped(fn, *args):
    """A call's result, or the message, depth, level and words of its ``Undecided``."""
    try:
        return ("decided", fn(*args))
    except Undecided as exc:
        return ("undecided", str(exc), exc.depth, exc.level, exc.words)


def _screen_uses(sys, pt, levels, c, seed):
    """Everything the screen serves, run in turn on one point: the bound 1,
    strict; the endpoint check's 1 + c, not strict; the family search's
    bound 1 on its own lattice.  The family search asks its near test at
    the seed width itself, so the constructed census compares it end to end."""
    lattice = DisplacementLattice(sys)
    open_set = OpenSetApprox(sys, seed, levels + 2)
    family = OverlapOracle(open_set, pt).lattice
    return [
        _memo_walk(separation._PointMemo(lattice, pt, F(1), True), levels),
        _memo_walk(separation._PointMemo(lattice, pt, 1 + c, False), levels),
        _memo_walk(_FamilyMemo(family, pt, F(1), True), levels),
        _stamped(convex_type_census, sys, pt, levels),
        _stamped(endpoint_separation, sys, pt, levels, c),
        _stamped(constructed_v_type_census, sys, pt, open_set, levels),
    ]


@settings(max_examples=80, deadline=None)
@given(
    small_systems(),
    st.integers(1, 4),
    st.sampled_from(["short", "lowered", "full", F(1, 8), F(2, 5), F(1, 3), F(0)]),
    st.integers(2, 8),
    # bounds and seed widths that rational points with m <= 5 can meet exactly
    st.sampled_from([F(4, 7), F(1, 2), F(1)]),
    st.sampled_from([(F(3, 7), F(4, 7)), (F(1, 4), F(3, 4)), (F(1, 2), F(3, 4))]),
)
def test_window_screen_matches_the_exact_path(sys, levels, kind, depth, c, ends):
    # the counting wrapper holds no window, so every bound test is exact there
    seed = RationalInterval.make(*ends)
    screened = _screen_uses(sys, _screen_point(kind, depth), levels, c, seed)
    exact = _screen_uses(sys, _CountingParam(_screen_point(kind, depth)), levels, c, seed)
    assert screened == exact


@settings(max_examples=80, deadline=None)
@given(
    small_systems(),
    st.integers(1, 5),
    st.sampled_from(["short", "lowered", "full", F(1, 8), F(2, 5), F(1, 3), F(0)]),
    st.integers(2, 8),
    st.sampled_from([(F(3, 7), F(4, 7)), (F(1, 4), F(3, 4)), (F(1, 2), F(3, 4)), (F(0), F(1))]),
    st.integers(0, 3),
)
# example 1 at the seed 1/4:3/4: classes that step apart at truncation 1, and
# a short chain that leaves a bound test undecided at truncation 0
@example(example_template(1).system, 3, "full", 2, (F(1, 4), F(3, 4)), 1)
@example(example_template(1).system, 4, "short", 4, (F(1, 4), F(3, 4)), 0)
def test_class_stepping_matches_the_state_loop(sys, levels, kind, depth, ends, truncation):
    # the constructed census steps classes, or every state where a class's
    # states step apart; its report, or its Undecided, is the state loop's
    open_set = OpenSetApprox(sys, RationalInterval.make(*ends), truncation)
    got = _stamped(constructed_v_type_census, sys, _screen_point(kind, depth), open_set, levels)
    census_states = separation.census_states

    def split_at_once(automaton, max_level, class_of=None):
        if class_of is not None:
            raise separation.ClassSplit
        return census_states(automaton, max_level)

    with mock.patch.object(separation, "census_states", split_at_once):
        expected = _stamped(
            constructed_v_type_census, sys, _screen_point(kind, depth), open_set, levels
        )
    assert got == expected


# --- the shared child cache against the loops that re-expand every parent ---------


class _RecordingParam(_CountingParam):
    """A counting point that also keeps its sign queries in the order asked."""

    def __init__(self, inner):
        super().__init__(inner)
        self.asked = []

    def sign_lattice(self, P, Lp, Q, Lq):
        self.asked.append((P, Lp, Q, Lq))
        return super().sign_lattice(P, Lp, Q, Lq)


def _reference_loops():
    return mock.patch.multiple(
        separation, _search=reference_search, TypeAutomaton=ReferenceTypeAutomaton
    )


#: every user of the displacement recursion at a parameter point
CACHE_USERS = {
    "levels": lambda sys, pt, levels: _in_order(displacement_levels(sys, pt, levels)),
    "wsp": wsp_min_displacement,
    "endpoints": lambda sys, pt, levels: endpoint_separation(sys, pt, levels, F(4, 7)),
    "census": convex_type_census,
}


def _recorded(fn, sys, make_point, levels):
    """(outcome, sign queries in order) of one call on a fresh point."""
    pt = _RecordingParam(make_point())
    return _outcome(fn, sys, pt, levels), pt.asked


@pytest.mark.parametrize("user", sorted(CACHE_USERS))
@pytest.mark.parametrize(
    # example 2's endpoint check lists its overlap pairs, which grow about 6x per level
    "which,label,levels", [(1, "ex1", 12), (2, "ex2", 6), (1, F(1, 8), 12), (2, F(3, 64), 6)]
)
def test_child_cache_matches_the_reference_loops(user, which, label, levels):
    sys = example_template(which).system
    fn = CACHE_USERS[user]

    def make_point():
        return example_point(which) if label in ("ex1", "ex2") else RationalParam(label)

    got = _recorded(fn, sys, make_point, levels)
    with _reference_loops():
        expected = _recorded(fn, sys, make_point, levels)
    # per-level dicts or reports, and every sign query in the order asked
    assert got == expected
    assert got[1]


@pytest.mark.parametrize("user", sorted(CACHE_USERS))
@pytest.mark.parametrize("which,depth,levels", [(1, 3, 8), (1, 6, 10), (2, 3, 6)])
def test_child_cache_undecided_like_the_reference_loops(user, which, depth, levels):
    sys = example_template(which).system
    fn = CACHE_USERS[user]
    got = _recorded(fn, sys, lambda: _short_point(which, depth), levels)
    with _reference_loops():
        expected = _recorded(fn, sys, lambda: _short_point(which, depth), levels)
    assert got == expected
    assert got[0][0] == "undecided"
    # nothing undecided is kept, so the same point fails the same way again
    pt = _short_point(which, depth)
    assert _outcome(fn, sys, pt, levels) == got[0]
    assert _outcome(fn, sys, pt, levels) == got[0]


@pytest.mark.parametrize("which,depth", [(1, 3), (1, 6), (2, 3)])
def test_automaton_retries_an_undecided_successor(which, depth):
    # a scan stopped by Undecided resumes at the step that raised
    sys = example_template(which).system

    def walk(automaton):
        keys = [automaton.root_key]
        for _ in range(12):
            keys = list(dict.fromkeys(
                automaton.successor(key, i) for key in keys for i in sys.symbols
            ))

    messages = []
    for automaton_cls in (TypeAutomaton, ReferenceTypeAutomaton):
        automaton = automaton_cls(sys, _short_point(which, depth))
        for _ in range(2):
            with pytest.raises(Undecided) as raised:
                walk(automaton)
            messages.append(str(raised.value))
    assert len(set(messages)) == 1


def test_automaton_refuses_a_symbol_outside_the_alphabet(ex1_sys, ex1_pt):
    # a prefix scan through a symbol that does not exist would read as the empty type
    automaton = TypeAutomaton(ex1_sys, ex1_pt)
    for symbol in (0, ex1_sys.alphabet_size + 1):
        with pytest.raises(ValueError):
            automaton.successor(automaton.root_key, symbol)


def test_wsp_expands_each_lattice_point_once():
    sys = example_template(2).system
    added = Counter()

    class Step(int):
        """A step that counts the child points it is added into."""

        def __radd__(self, other):
            added["children"] += 1
            return other + int(self)

        __add__ = __radd__

    class CountingLattice(separation.DisplacementLattice):
        def __init__(self, *args):
            super().__init__(*args)
            self.steps = [(i, j, Step(dp), dq) for i, j, dp, dq in self.steps]

    memos = []

    class KeptMemo(separation._PointMemo):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            memos.append(self)

    with mock.patch.multiple(
        separation, DisplacementLattice=CountingLattice, _PointMemo=KeptMemo
    ):
        result = wsp_min_displacement(sys, example_point(2), 60)
    assert result == wsp_min_displacement(sys, example_point(2), 60)
    (memo,) = memos
    inside = sum(node is not None for node in memo.values())
    assert inside > 60
    # no in-bound point's steps are scanned twice, and no other point's at all
    n = sys.alphabet_size
    assert 0 < added["children"] <= n * n * inside


@pytest.mark.parametrize("which,depth,levels", [(1, 3, 8), (1, 6, 8), (2, 3, 4)])
def test_short_refiner_undecided_like_the_oracle(which, depth, levels):
    sys = example_template(which).system
    with pytest.raises(Undecided) as got:
        displacement_levels(sys, _short_point(which, depth), levels)
    with pytest.raises(Undecided) as expected:
        _oracle_displacement_levels(sys, _short_point(which, depth), levels)
    assert str(got.value) == str(expected.value)
    with pytest.raises(Undecided) as got:
        convex_type_census(sys, _short_point(which, depth), levels)
    with pytest.raises(Undecided) as expected:
        _oracle_census(sys, _short_point(which, depth), levels)
    assert str(got.value) == str(expected.value)


def _first_undecided_level(fn, sys, make_point, levels):
    """The smallest number of levels at which ``fn`` raises ``Undecided``."""
    for level in range(1, levels + 1):
        try:
            fn(sys, make_point(), level)
        except Undecided:
            return level
    return None


@pytest.mark.parametrize("which,depth,levels", [(1, 3, 8), (1, 6, 8), (2, 3, 4)])
def test_undecided_names_the_level(which, depth, levels):
    # the level the search was building when a sign query stayed undecided
    sys = example_template(which).system
    for fn, oracle in (
        (displacement_levels, _oracle_displacement_levels),
        (convex_type_census, _oracle_census),
    ):
        with pytest.raises(Undecided) as raised:
            fn(sys, _short_point(which, depth), levels)
        expected = _first_undecided_level(oracle, sys, lambda: _short_point(which, depth), levels)
        assert raised.value.level == expected


@pytest.mark.parametrize("which,depth", [(1, 3), (1, 6), (2, 3), (2, 6)])
def test_short_refiner_wsp_and_endpoints_undecided_like_the_oracle(which, depth):
    sys = example_template(which).system
    outcomes = []
    for levels in range(1, 8):
        for fast, oracle, extra in (
            (wsp_min_displacement, _oracle_wsp_min_displacement, ()),
            (endpoint_separation, _oracle_endpoint_separation, (F(4, 7),)),
        ):
            got = _outcome(fast, sys, _short_point(which, depth), levels, *extra)
            assert got == _outcome(oracle, sys, _short_point(which, depth), levels, *extra)
            outcomes.append(got)
    assert any(isinstance(got, tuple) and got[0] == "undecided" for got in outcomes)


def test_endpoint_undecided_names_the_entry():
    # each short point decides the search but not a later test of one entry:
    # its sign, its threshold test, its comparison with the bucket's minimum
    sys = example_template(1).system
    for depth, levels, threshold, form, level, words in (
        (2, 2, F(3, 2), "-7 + 56*a", 2, ("22", "13")),
        (1, 1, F(4, 7), "-4/7 + 7*a", 1, ("2", "1")),
        (4, 3, F(1, 10), "54 - 399*a", 3, ("212", "133")),
    ):
        found = displacement_levels(sys, _short_point(1, depth), levels, 1 + threshold, False)
        with pytest.raises(Undecided) as raised:
            endpoint_separation(sys, _short_point(1, depth), levels, threshold)
        assert str(raised.value) == f"sign of {form} undecided (refined to depth {depth})"
        assert raised.value.level == level
        assert tuple(map(str, raised.value.words)) == words
        # the pair is the report witness's (tau, sigma) of an entry of that level
        tau, sigma = map(Word.parse, words)
        assert (sigma, tau) in [d.witness for d in found[level - 1].values()]
    # the decimal of a bucket's minimum names the minimum's level
    pt = _short_point(1, 2)
    report = endpoint_separation(sys, pt, 1, F(4, 7))
    with pytest.raises(Undecided) as raised:
        report.to_json(pt)
    assert raised.value.level == 1


class _TrippingPoint:
    """A point that answers as ``pt``, except that the sign queries ``trips``
    stay undecided; it holds no window, so every bound test is a sign query."""

    def __init__(self, pt, trips):
        self.pt, self.trips = pt, trips

    def sign_lattice(self, *form):
        if form in self.trips:
            raise Undecided(f"sign of {form} tripped", 0)
        return self.pt.sign_lattice(*form)

    def held_ends(self):
        return None

    def canonical_key(self, e):
        return self.pt.canonical_key(e)


def test_endpoint_check_raises_a_later_bound_test_before_its_own():
    # a pick's sign stays undecided at level 2 and a child's bound test at
    # level 4: the search runs every bound test before the check's own
    # Undecided is raised, so the level-4 test's is, as when every level
    # was searched before any pick was tested
    sys, threshold = example_template(1).system, F(4, 7)
    bound = 1 + threshold
    lattice = DisplacementLattice(sys)
    lp, lq, n, d = lattice.lp, lattice.lq, bound.numerator, bound.denominator
    found = displacement_levels(sys, example_point(1), 4, bound, False)

    def first_new_point(level):
        new = [disp for key, disp in found[level - 1].items() if key not in found[level - 2]]
        return lattice.point(new[0].value)

    P, Q = first_new_point(2)
    pick = (P, lp, Q, lq)  # its corresponding pick's sign
    P, Q = first_new_point(4)
    test = (P * d + n * lp, lp * d, Q, lq)  # the first half of its bound test
    with pytest.raises(Undecided) as raised:
        endpoint_separation(sys, _TrippingPoint(example_point(1), {pick, test}), 4, threshold)
    assert str(raised.value) == f"sign of {test} tripped (refined to depth 0)"
    assert (raised.value.level, raised.value.words) == (4, None)
    # alone, the pick's sign is the check's own, named by its entry
    with pytest.raises(Undecided) as raised:
        endpoint_separation(sys, _TrippingPoint(example_point(1), {pick}), 4, threshold)
    assert str(raised.value) == f"sign of {pick} tripped (refined to depth 0)"
    assert raised.value.level == 2
    tau, sigma = raised.value.words
    assert (sigma, tau) in [disp.witness for disp in found[1].values()]


@pytest.mark.parametrize("fn,which,extra", [
    (wsp_min_displacement, 1, ()),
    (wsp_min_displacement, 2, ()),
    (endpoint_separation, 1, (F(4, 7),)),
])
def test_deep_search_readers_hold_one_level(fn, which, extra):
    # WSP and the endpoint check read each level as the search finds it and
    # drop it: at 120 levels they peak near 0.6 MB, and holding every level
    # would take 5 to 7 MB
    sys, pt = example_template(which).system, example_point(which)
    tracemalloc.start()
    try:
        fn(sys, pt, 120, *extra)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


# --- distinctness ---------------------------------------------------------------


def test_distinctness_thue_morse(ex1_template, ex1_pt, tm):
    run = run_construction(ex1_template, tm, 12)
    report = distinctness_check(run, ex1_pt)
    assert report.all_distinct
    assert report.collisions == ()
    assert len(report.scaled_gaps) == 12


def test_distinctness_periodic_flagged(ex1_template):
    seq = DrivingSequence.periodic("01")
    pt = param_point(ex1_template, seq)
    run = run_construction(ex1_template, seq, 8)
    report = distinctness_check(run, pt)
    assert PERIODIC_WARNING in report.warnings


def test_distinctness_groups_like_pairwise_signs(ex1_template):
    # at the periodic:01 limit the scaled gaps alternate between two values
    run = run_construction(ex1_template, DrivingSequence.periodic("01"), 12)
    pt = RationalParam(F(16, 119))
    expected = tuple(
        (s.level, t.level)
        for k, s in enumerate(run.states)
        for t in run.states[k + 1:]
        if pt.sign(s.scaled_gap - t.scaled_gap) == 0
    )
    assert len(expected) == 30
    assert distinctness_check(run, pt).collisions == expected


def test_distinctness_at_a_flagged_point_asks_no_sign(ex1_template, tm):
    pt = param_point(ex1_template, tm)
    run = run_construction(ex1_template, tm, 40)
    with mock.patch.object(pt, "sign", side_effect=AssertionError("sign query")):
        report = distinctness_check(run, pt)
    assert report.all_distinct


def test_distinctness_excludes_self_pairs(ex1_template, ex1_pt, tm):
    run = run_construction(ex1_template, tm, 3)
    report = distinctness_check(run, ex1_pt)
    assert all(a != b for a, b in report.collisions + report.undecided)


# --- endpoint separation ---------------------------------------------------------


def test_endpoint_separation_example1(ex1_sys, ex1_pt):
    report = endpoint_separation(ex1_sys, ex1_pt, 8, F(4, 7) - F(1, 100))
    assert report.passed
    assert report.corresponding.passed


def test_endpoint_separation_large_constant_fails(ex1_sys, ex1_pt):
    report = endpoint_separation(ex1_sys, ex1_pt, 1, F(2))
    assert not report.passed
    assert report.corresponding.min_abs == SEVEN_A


def test_endpoint_separation_example2(ex2_sys, ex2_pt):
    report = endpoint_separation(ex2_sys, ex2_pt, 6, F(1, 10))
    assert report.passed
    equal = {(str(a), str(b)) for a, b, d in report.equal_pairs if d == 0}
    scan = _brute_force_overlap_scan(ex2_sys, 6)
    expected = {(str(o.left), str(o.right)) for o in scan.overlaps + scan.derived}
    assert equal == expected


def test_endpoint_mixed_gaps_are_small_and_reported(ex1_sys, ex1_pt):
    # overlap widths sit far below the corresponding-endpoint bound
    report = endpoint_separation(ex1_sys, ex1_pt, 2, F(4, 7))
    assert report.passed and not report.mixed.passed
    one_minus_7a = AffineExpr.constant(1) - SEVEN_A
    assert report.mixed.min_abs == one_minus_7a
    strict = endpoint_separation(ex1_sys, ex1_pt, 2, F(4, 7), include_mixed_in_verdict=True)
    assert not strict.passed


def test_endpoint_pick_of_value_zero_is_an_equal_pair(ex1_sys):
    # at a = 1/8 the mixed pick -7 + 56*a of ("22", "13") is exactly 0: the
    # cylinders touch end to end, which is allowed, not a violation of size 0
    report = endpoint_separation(ex1_sys, RationalParam(F(1, 8)), 2, F(4, 7))
    assert report.mixed.min_abs == AffineExpr(F(1), F(-7))
    assert tuple(map(str, report.mixed.min_witness[:2])) == ("2", "1")
    assert report.mixed.min_witness[2] == -1
    assert report.mixed.violations == 4
    assert [(str(s), str(t), d) for s, t, d in report.equal_pairs] == [
        ("22", "13", -1), ("13", "22", 1)
    ]


def test_endpoint_check_tests_each_value_once(monkeypatch):
    # each level adds a few new values, and each value is tested at its
    # first level only, so doubling the levels about doubles the sign
    # queries; testing every value at every level makes it about four times
    sys, counts = example_template(1).system, []
    sign_lattice = ParamPoint.sign_lattice

    def counted(self, *form):
        counts[-1] += 1
        return sign_lattice(self, *form)

    monkeypatch.setattr(ParamPoint, "sign_lattice", counted)
    for levels in (50, 100, 200):
        counts.append(0)
        endpoint_separation(sys, example_point(1, budget=5000), levels, F(4, 7))
    assert counts[1] <= 2.2 * counts[0] and counts[2] <= 2.2 * counts[1]
    assert counts[2] <= 6000


@pytest.mark.parametrize("which,level", [(1, 3), (2, 2)])
@pytest.mark.parametrize("threshold", [F(1, 3), F(19, 20)])
def test_endpoint_bruteforce_agreement(which, level, threshold, ex1_pt, ex2_pt):
    tmpl = example_template(which)
    pt = ex1_pt if which == 1 else ex2_pt
    brute_all = all(
        endpoint_separation_bruteforce(tmpl.system, pt, k, threshold)[0]
        for k in range(1, level + 1)
    )
    fast = endpoint_separation(tmpl.system, pt, level, threshold)
    assert fast.corresponding.passed == brute_all


# --- dimension -------------------------------------------------------------------


def test_dimension_example1(ex1_sys):
    assert osc_dimension(ex1_sys, 6) == "0.564575"
    assert osc_dimension(ex1_sys, 12) == "0.564575034054"


def test_dimension_independent_check(ex1_sys):
    import math

    value = F(osc_dimension(ex1_sys, 15))
    assert abs(float(value) - math.log(3) / math.log(7)) < 1e-12


def test_dimension_degenerate_cases():
    full = IfsSystem(3, tuple(AffineExpr.constant(F(i, 3)) for i in range(3)))
    assert osc_dimension(full, 4) == "1.0000"
    single = IfsSystem(5, (AffineExpr.constant(0),))
    assert osc_dimension(single, 4) == "0.0000"
