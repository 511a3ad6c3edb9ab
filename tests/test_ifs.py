from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from sepkit import (
    AffineExpr,
    IfsSystem,
    Word,
    cylinder,
    map_at_zero,
    translation_amount,
    validate_system,
)

from bruteforce import TupleWord


def test_word_parse_and_str():
    assert str(Word.parse("132")) == "132"
    assert Word.parse("") == Word()
    assert str(Word.of(1, 12, 3)) == "1,12,3"
    assert Word.parse("1,12,3") == Word.of(1, 12, 3)
    assert len(Word.parse("132")) == 3


def test_word_with_one_wide_symbol_round_trips():
    assert str(Word.of(12)) == "12,"
    assert Word.parse(str(Word.of(12))) == Word.of(12)
    assert Word.parse("12") == Word.of(1, 2)
    assert Word.parse("1,12,") == Word.of(1, 12)


@pytest.mark.parametrize("symbols,text", [
    ((), ""),
    ((7,), "7"),
    ((1, 2, 3, 9, 1), "12391"),
    ((10,), "10,"),
    ((9, 10), "9,10"),
    ((3, 123, 1), "3,123,1"),
])
def test_word_str(symbols, text):
    assert str(Word(symbols)) == text


@given(st.lists(st.integers(1, 40), max_size=8))
def test_word_str_matches_the_symbol_form(symbols):
    # digits run together unless some symbol needs two or more of them;
    # a lone such symbol is followed by a comma
    word = Word(tuple(symbols))
    if any(s > 9 for s in symbols):
        tail = "," if len(symbols) == 1 else ""
        assert str(word) == ",".join(str(s) for s in symbols) + tail
    else:
        assert str(word) == "".join(str(s) for s in symbols)


@given(st.lists(st.integers(1, 3), max_size=5), st.lists(st.integers(1, 3), max_size=5),
       st.lists(st.integers(1, 3), max_size=5))
def test_word_concat_associative(a, b, c):
    wa, wb, wc = Word(tuple(a)), Word(tuple(b)), Word(tuple(c))
    assert (wa + wb) + wc == wa + (wb + wc)
    assert wa + Word() == wa
    assert Word() + wa == wa


#: symbol tuples over 1..255: mostly digits, sometimes a symbol of 10 or more
symbol_tuples = st.one_of(
    st.lists(st.integers(1, 9), max_size=700),
    st.lists(st.integers(1, 255), max_size=700),
    st.lists(st.sampled_from([1, 2, 9, 10, 255]), max_size=12),
).map(tuple)


@settings(max_examples=150, deadline=None)
@given(symbol_tuples, symbol_tuples, st.integers(1, 255))
def test_word_matches_the_tuple_reference(a, b, symbol):
    wa, wb = Word(a), Word(b)
    ra, rb = TupleWord(a), TupleWord(b)
    assert isinstance(wa.symbols, bytes)
    assert (wa == wb) == (ra == rb)
    assert (wa < wb) == (ra < rb)
    assert (wa <= wb) == (ra <= rb)
    assert wa == Word(list(a)) and hash(wa) == hash(Word(list(a)))
    assert (wa + wb).symbols == bytes((ra + rb).symbols)
    assert wa.append(symbol).symbols == bytes(ra.append(symbol).symbols)
    assert len(wa) == len(ra)
    assert list(wa) == list(ra)
    assert str(wa) == str(ra)
    assert Word.parse(str(wa)).symbols == bytes(TupleWord.parse(str(ra)).symbols)
    assert Word.parse(str(wa)) == wa
    assert Word.of(*a) == wa


@pytest.mark.parametrize("symbols", [(256,), (1, 300, 2), (-1,)])
def test_word_refuses_a_symbol_a_byte_cannot_hold(symbols):
    with pytest.raises(ValueError, match="one byte per symbol"):
        Word(symbols)
    with pytest.raises(ValueError, match="one byte per symbol"):
        Word.of(1).append(symbols[-1] if symbols[-1] < 0 else max(symbols))
    with pytest.raises(ValueError, match="one byte per symbol"):
        Word.parse(",".join(map(str, symbols)) + ",1")


def test_system_refuses_more_than_255_maps():
    m = 257
    IfsSystem(m, tuple(AffineExpr.constant(F(i, m)) for i in range(255)))
    with pytest.raises(ValueError, match="at most 255"):
        IfsSystem(m, tuple(AffineExpr.constant(F(i, m)) for i in range(256)))


def test_map_at_zero_examples(ex1_sys, ex2_sys):
    assert map_at_zero(ex1_sys, Word.parse("13")) == AffineExpr.constant(F(6, 49))
    assert map_at_zero(ex1_sys, Word.parse("21")) == AffineExpr.parameter()
    # the a-terms cancel exactly; this cancellation is the overlap mechanism
    assert map_at_zero(ex2_sys, Word.parse("23")) == AffineExpr.constant(F(15, 256))
    assert map_at_zero(ex2_sys, Word.parse("15")) == AffineExpr.constant(F(15, 256))


def test_map_at_zero_parameter_coefficient_formula(ex1_sys):
    # q-coefficient collects 1/7^(i-1) over positions carrying the parameter
    for text in ("2", "12", "22", "321", "2222", "13231"):
        word = Word.parse(text)
        expected = sum(
            (F(1, 7) ** i for i, s in enumerate(word) if s == 2), start=F(0)
        )
        assert map_at_zero(ex1_sys, word).q == expected


def test_translation_amount_examples(ex1_sys, ex2_sys):
    assert translation_amount(ex1_sys, Word.parse("1"), Word.parse("2")) == AffineExpr.parameter(7)
    assert translation_amount(ex1_sys, Word.parse("13"), Word.parse("13")) == AffineExpr.constant(0)
    assert translation_amount(ex2_sys, Word.parse("15"), Word.parse("23")) == AffineExpr.constant(0)
    with pytest.raises(ValueError):
        translation_amount(ex1_sys, Word.parse("1"), Word.parse("12"))


words3 = st.lists(st.integers(1, 3), min_size=0, max_size=4).map(lambda s: Word(tuple(s)))


@given(words3, words3)
def test_translation_antisymmetry(ex1_sys, sigma, tau):
    if len(sigma) != len(tau):
        return
    assert translation_amount(ex1_sys, sigma, tau) == -translation_amount(ex1_sys, tau, sigma)


def _cocycle_route(sys, sigma, tau, i, j):
    m = sys.ratio_denominator
    direct = translation_amount(sys, sigma.append(i), tau.append(j))
    recurrence = translation_amount(sys, sigma, tau).scale(m) + (
        sys.offset(j) - sys.offset(i)
    ).scale(m)
    return direct, recurrence


def test_cocycle_identity_exhaustive(ex1_sys):
    # two computation routes agree on every pair up to length 4
    for k in range(0, 4):
        words = list(ex1_sys.words(k))
        for sigma in words:
            for tau in words:
                for i in ex1_sys.symbols:
                    for j in ex1_sys.symbols:
                        direct, recurrence = _cocycle_route(ex1_sys, sigma, tau, i, j)
                        assert direct == recurrence


def test_cocycle_identity_example2(ex2_sys):
    for k in range(0, 3):
        words = list(ex2_sys.words(k))
        for sigma in words:
            for tau in words:
                for i in (1, 2, 5):
                    for j in (2, 3, 4):
                        direct, recurrence = _cocycle_route(ex2_sys, sigma, tau, i, j)
                        assert direct == recurrence


def test_cylinder_examples(ex1_sys, ex2_sys):
    c = cylinder(ex1_sys, Word.parse("3"))
    assert c.left == AffineExpr.constant(F(6, 7))
    assert c.right == AffineExpr.constant(1)
    c = cylinder(ex1_sys, Word())
    assert (c.left, c.right) == (AffineExpr.constant(0), AffineExpr.constant(1))
    c = cylinder(ex2_sys, Word.parse("4"))
    assert (c.left, c.right) == (
        AffineExpr.constant(F(11, 16)),
        AffineExpr.constant(F(12, 16)),
    )


@given(words3)
def test_cylinder_width_exact(ex1_sys, word):
    c = cylinder(ex1_sys, word)
    assert c.right - c.left == AffineExpr.constant(F(1, 7 ** len(word)))


def test_symbol_range_errors(ex1_sys):
    with pytest.raises(ValueError):
        map_at_zero(ex1_sys, Word.of(4))
    with pytest.raises(ValueError):
        ex1_sys.offset(0)


def test_validate_example_systems(ex1_sys, ex1_pt, ex2_sys, ex2_pt):
    assert validate_system(ex1_sys, ex1_pt).valid
    report = validate_system(ex2_sys, ex2_pt)
    assert report.valid  # includes 15/16 - 16a >= 0 via the sign oracle


def test_validate_rejects_out_of_range_offset(ex1_pt):
    bad = IfsSystem(
        7,
        (AffineExpr.constant(0), AffineExpr.constant(2), AffineExpr.constant(F(6, 7))),
    )
    report = validate_system(bad, ex1_pt)
    assert not report.valid
    failing = [c.label for c in report.checks if not c.passed]
    assert "offset 2 <= 6/7" in failing


def test_system_json_roundtrip(ex2_sys):
    data = ex2_sys.to_json()
    assert IfsSystem.from_json(data).offsets == ex2_sys.offsets


def test_wide_alphabet_uses_comma_serialization():
    # twelve maps: symbols beyond 9 force the comma word form everywhere
    m = 13
    offsets = tuple(AffineExpr.constant(F(i, m)) for i in range(12))
    sys_ = IfsSystem(m, offsets)
    word = Word.of(1, 11, 12)
    assert str(word) == "1,11,12"
    assert Word.parse(str(word)) == word
    assert map_at_zero(sys_, word) == AffineExpr.constant(
        F(0, 1) + F(10, 13) / 13 + F(11, 13) / 169
    )
