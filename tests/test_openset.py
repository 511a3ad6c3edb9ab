from fractions import Fraction as F

import pytest

from sepkit import (
    AffineExpr,
    OpenSetApprox,
    OverlapOracle,
    RationalInterval,
    Word,
    constructed_v_type_census,
    convex_type_census,
    example_template,
    verify_osc_open_set,
)
from sepkit import ifs as ifs_module
from sepkit import openset as openset_module
from sepkit.openset import MATERIALIZE_LIMIT, containment_identity_holds
from sepkit.separation import displacement_levels

SEED1 = RationalInterval.make(F(3, 7), F(4, 7))
SEED2 = RationalInterval.make(F(7, 16), F(8, 16))


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
            tuple(str(v) for v in entry.displacements) for entry in level.types
        }
        assert shapes == {("0",), ("0", "16*a"), ("-16*a", "0")}
    assert any("truncat" in c for c in census.caveats)


def test_constructed_census_example1_level1_separated(ex1_sys, ex1_pt):
    oset = OpenSetApprox(ex1_sys, SEED1, 8)
    census = constructed_v_type_census(ex1_sys, ex1_pt, oset, 1)
    assert census.counts == (1,)
    assert [str(v) for v in census.levels[0].types[0].displacements] == ["0"]


@pytest.mark.parametrize("which", [1, 2])
def test_full_seed_depth0_matches_convex_census(which, ex1_pt, ex2_pt):
    tmpl = example_template(which)
    pt = ex1_pt if which == 1 else ex2_pt
    oset = OpenSetApprox(tmpl.system, RationalInterval.make(0, 1), 0)
    constructed = constructed_v_type_census(tmpl.system, pt, oset, 3)
    convex = convex_type_census(tmpl.system, pt, 3)
    assert constructed.counts == convex.counts
    for lv_a, lv_b in zip(constructed.levels, convex.levels):
        types_a = {tuple(pt.canonical_key(v) for v in t.displacements) for t in lv_a.types}
        types_b = {tuple(pt.canonical_key(v) for v in t.displacements) for t in lv_b.types}
        assert types_a == types_b


def test_seed_validation():
    tmpl = example_template(1)
    with pytest.raises(ValueError):
        OpenSetApprox(tmpl.system, RationalInterval.make(F(-1, 2), F(1, 2)), 2)
    with pytest.raises(ValueError):
        OpenSetApprox(tmpl.system, SEED1, -1)
