"""Exact arithmetic layer.

Everything downstream is built on three value types and one oracle:

* ``Rational`` -- arbitrary-precision rationals (``fractions.Fraction``,
  which already guarantees lowest terms and a positive denominator).
* ``AffineExpr`` -- exact linear forms ``p + q*a`` in one real parameter
  ``a``.  Cylinder endpoints, translation amounts and refinement gaps are
  all values of this type.
* ``RationalInterval`` -- open intervals with rational endpoints.

The parameter ``a`` itself is a computable real: a ``ParamPoint`` wraps a
refiner that produces a strictly nested chain of open rational windows
containing ``a``.  Every sign query comes down to one integer routine,
``sign_lattice``: the form P/Lp + (Q/Lq)*a is given by four integers, and
its sign is read off the window ends by integer cross-multiplication,
refining until the form's root falls outside the current window.
``sign`` splits an ``AffineExpr`` into those integers; the lattice-based
searches call ``sign_lattice`` on their integer points directly, without
building forms.  Sign and decimal queries read the chain in one loop,
``ParamPoint._refine``: it reads each window as integer ends
(``Refiner.ends``), hands the form's integer numerator at each end to
the query's test and raises ``Undecided`` when the chain or the point's
refinement budget runs out.  A sign steps one level at a time; a
decimal, decided once the image interval rounds unambiguously, jumps
ahead.  A point holds the deepest window any of its queries has read,
and a sign query tries it before the loop: most are decided there,
without a chain read.  It keeps no answers, only that window and the
chain: a sign asked again is decided on the held window, and a decimal
on its first window read, unless the budget has since been lowered.
The child cache of the lattice searches reads the held window too
(``held_ends``), to decide most bound tests on its ends without a sign
query.  No floating point is used anywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol

Rational = Fraction

#: Default cap on refinement depth for sign and decimal queries.
DEFAULT_SIGN_BUDGET = 200

#: The most characters plus decimal exponent that ``rational_from_str``
#: reads: Python's default limit for converting between int and str.
MAX_LITERAL_DIGITS = 4300
_EXPONENT = re.compile(r"[eE]([-+]?\d+)")


class Undecided(Exception):
    """A query could not be settled within its refinement budget.

    ``level`` is the word level a level-by-level search was building
    when the query came up, or the level of the report entry whose
    decimal or test it is; None elsewhere.  ``words`` is the word pair
    from the shift an overlap oracle was asked about to the point whose
    test stayed undecided, or the word pair of the endpoint check's
    entry whose test it is; None elsewhere.
    """

    def __init__(self, message: str, depth: int):
        super().__init__(f"{message} (refined to depth {depth})")
        self.depth = depth
        self.level: int | None = None
        self.words = None


class EmptyRefinement(Exception):
    """A refinement step produced an empty window (bad template)."""


class RefinementExhausted(Exception):
    """The driving data behind a refiner ran out (finite prefix)."""

    def __init__(self, depth: int):
        super().__init__(f"refinement data exhausted at depth {depth}")
        self.depth = depth


def rational_to_str(x: Fraction) -> str:
    """Serialize a rational as ``"num/den"`` (denominator always printed)."""
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(text: str) -> Fraction:
    """Parse ``"num/den"`` (or a bare integer / decimal literal).

    Raises ``ValueError`` for a value that is not a string (a JSON
    number included), for text that is not a rational, a zero
    denominator included, and, before any integer is built, for text
    whose length plus its decimal exponent exceeds
    ``MAX_LITERAL_DIGITS``: no numerator or denominator the text stands
    for has more digits than that sum.
    """
    if not isinstance(text, str):
        raise ValueError(f"rational {text!r} is not a string such as '3/7'")
    text = text.strip()
    exponent = _EXPONENT.search(text) if len(text) <= MAX_LITERAL_DIGITS else None
    if len(text) + (abs(int(exponent[1])) if exponent else 0) > MAX_LITERAL_DIGITS:
        raise ValueError(f"rational {text!r} exceeds {MAX_LITERAL_DIGITS} digits")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None


def round_decimal(x: Fraction, digits: int) -> str:
    """Exactly rounded decimal string with ``digits`` fractional digits.

    Ties round half-to-even.  ``digits`` must be >= 1.
    """
    if digits < 1:
        raise ValueError("digits must be >= 1")
    return _format_scaled(_round_scaled(x.numerator, x.denominator, digits), digits)


def _round_scaled(num: int, den: int, digits: int) -> int:
    """``num/den * 10^digits`` rounded half-to-even, for ``den > 0``.

    ``num/den`` need not be reduced.  The result determines ``round_decimal(num/den, digits)``: a
    negative value is printed with a minus sign, and a value that
    rounds to 0 without one.
    """
    whole, rem = divmod(abs(num) * 10**digits, den)
    if 2 * rem > den or (2 * rem == den and whole % 2 == 1):
        whole += 1
    return -whole if num < 0 else whole


def _format_scaled(scaled: int, digits: int) -> str:
    """The decimal string of ``scaled / 10^digits`` with ``digits`` fractional digits."""
    s = str(abs(scaled)).rjust(digits + 1, "0")
    return f"{'-' if scaled < 0 else ''}{s[:-digits]}.{s[-digits:]}"


@dataclass(frozen=True)
class AffineExpr:
    """Exact linear form ``p + q*a`` in the parameter ``a``."""

    p: Fraction
    q: Fraction

    @staticmethod
    def constant(value) -> "AffineExpr":
        return AffineExpr(Fraction(value), Fraction(0))

    @staticmethod
    def parameter(coefficient=1) -> "AffineExpr":
        return AffineExpr(Fraction(0), Fraction(coefficient))

    def __add__(self, other: "AffineExpr") -> "AffineExpr":
        return AffineExpr(self.p + other.p, self.q + other.q)

    def __sub__(self, other: "AffineExpr") -> "AffineExpr":
        return AffineExpr(self.p - other.p, self.q - other.q)

    def __neg__(self) -> "AffineExpr":
        return AffineExpr(-self.p, -self.q)

    def scale(self, c) -> "AffineExpr":
        c = Fraction(c)
        return AffineExpr(self.p * c, self.q * c)

    def shift(self, c) -> "AffineExpr":
        return AffineExpr(self.p + Fraction(c), self.q)

    def evaluate(self, a: Fraction) -> Fraction:
        return self.p + self.q * a

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        if self.p == 0:
            return f"{self.q}*a"
        op = "-" if self.q < 0 else "+"
        return f"{self.p} {op} {abs(self.q)}*a"

    def to_json(self) -> dict:
        return {"p": rational_to_str(self.p), "q": rational_to_str(self.q)}

    @staticmethod
    def from_json(data: dict) -> "AffineExpr":
        return AffineExpr(rational_from_str(data["p"]), rational_from_str(data["q"]))


AFFINE_ZERO = AffineExpr.constant(0)


def _form(P: int, Lp: int, Q: int, Lq: int) -> AffineExpr:
    """The form ``P/Lp + (Q/Lq)*a`` a ``sign_lattice`` query stands for."""
    return AffineExpr(Fraction(P, Lp), Fraction(Q, Lq))


@dataclass(frozen=True)
class RationalInterval:
    """Open interval ``(lo, hi)`` with rational endpoints.

    Every interval in this package is open on both sides; closures are
    only ever used implicitly in the sign oracle's endpoint tests.
    """

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError(f"empty interval ({self.lo}, {self.hi})")

    @staticmethod
    def make(lo, hi) -> "RationalInterval":
        return RationalInterval(Fraction(lo), Fraction(hi))

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def to_json(self) -> dict:
        return {"lo": rational_to_str(self.lo), "hi": rational_to_str(self.hi)}

    @staticmethod
    def from_json(data: dict) -> "RationalInterval":
        return RationalInterval(rational_from_str(data["lo"]), rational_from_str(data["hi"]))

    def __str__(self) -> str:
        return f"({self.lo}, {self.hi})"


class Refiner(Protocol):
    """Produces the nested parameter windows J_1 ⊃ J_2 ⊃ ...

    ``ends(level)`` is window ``level`` as ints ``(lo_num, lo_den,
    hi_num, hi_den)``, denominators positive: the one read of the
    chain.  After a read fails because the chain ends, ``depth`` is its
    last level.
    """

    def ends(self, level: int) -> tuple[int, int, int, int]: ...

    @property
    def depth(self) -> int: ...


class _ParamBase:
    """The queries every parameter point answers."""

    irrationality_assumed: bool

    def sign(self, e: AffineExpr) -> int:
        raise NotImplementedError

    def sign_lattice(self, P: int, Lp: int, Q: int, Lq: int) -> int:
        """Sign of the form ``P/Lp + (Q/Lq)*a`` given by integers, ``Lp``, ``Lq`` > 0."""
        raise NotImplementedError

    def eval_decimal(self, e: AffineExpr, digits: int) -> str:
        raise NotImplementedError

    def canonical_key(self, e: AffineExpr):
        raise NotImplementedError

    def held_ends(self) -> tuple[int, int, int, int, int] | None:
        """A window known to hold the point, as ``(level, lo_num, lo_den, hi_num,
        hi_den)``, the same tuple until it changes; None when a query must
        take the exact path (``sign_lattice``)."""
        return None


#: Annotation alias: anything answering sign/decimal/key queries at a point.
Param = _ParamBase


def _sign_at_ends(f_lo: int, d_lo: int, f_hi: int, d_hi: int) -> int | None:
    """The sign at a point inside a window whose ends give ``f_lo``, ``f_hi``.

    The window decides unless f(lo) and f(hi) are strictly opposite:
    the point lies inside every open window, so its sign is then f(lo),
    or f(hi) when f(lo) is 0.
    """
    s_lo = (f_lo > 0) - (f_lo < 0)
    s_hi = (f_hi > 0) - (f_hi < 0)
    return (s_lo or s_hi) if s_lo != -s_hi else None


class ParamPoint(_ParamBase):
    """A computable real defined by a nested chain of rational windows.

    ``refiner`` lazily extends the chain; queries refine only as deep as
    they need, and no query reads a window beyond level ``budget``, even
    where a construction run has built the chain deeper.  When
    ``irrationality_assumed`` is set, a non-constant affine expression
    is taken to be nonzero at the point, which makes componentwise
    identity of (p, q) pairs coincide with equality of values; the flag
    is recorded, not proven, and can be disabled.

    A point keeps no answers: a query asked again is decided again, on
    the held window or the chain, so its outcome depends only on the
    form, the window chain and the budget, never on what was asked
    before.  Refinement is serialized inside the refiner; all cached
    windows are immutable, so concurrent readers always see a
    consistent prefix of the chain and ask deterministic questions of
    it.  The held window (see ``sign_lattice``) is replaced as one
    tuple, so a reader always finds some window of the chain there.
    ``held_ends`` hands it to the child cache of the displacement
    searches, which decides a child's bound test on its integer ends
    and sends only a child whose test straddles it to ``sign_lattice``;
    while the budget is lowered below the held level it hands out None,
    and every test is a sign query.

    A chain that pins down a known rational value needs no refining:
    ``construction.param_point`` answers a periodic driving sequence at
    its exact limit (``construction.PeriodicLimit``, a ``RationalParam``
    that keeps the chain as its ``refiner``) and builds this class only
    where that limit is not read off within the budget.
    """

    def __init__(
        self,
        refiner: Refiner,
        irrationality_assumed: bool = False,
        budget: int = DEFAULT_SIGN_BUDGET,
    ):
        self.refiner = refiner
        self.irrationality_assumed = irrationality_assumed
        self.budget = budget
        # the deepest window a query has read: (level, lo_num, lo_den, hi_num, hi_den)
        self._held: tuple[int, int, int, int, int] = (0, 0, 1, 0, 1)

    def window(self, level: int) -> RationalInterval:
        """Window ``level`` as an interval, built from ``refiner.ends(level)``;
        queries read the ends themselves."""
        lo_num, lo_den, hi_num, hi_den = self.refiner.ends(level)
        return RationalInterval(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den))

    def held_ends(self) -> tuple[int, int, int, int, int] | None:
        """The held window while its level is within the budget, else None.

        A sign read off its ends is the one ``sign_lattice`` gives, which
        tries the same window first; at level 0 nothing has been read yet,
        and after the budget is lowered below its level the chain is read
        afresh.
        """
        held = self._held
        return held if 0 < held[0] <= self.budget else None

    def _refine(self, P: int, Lp: int, Q: int, Lq: int, decide, what: str, ahead=None,
                tried: int = 0):
        """The first answer ``decide(f_lo, d_lo, f_hi, d_hi)`` gives on the window chain.

        Windows are read as integer ends, from the deepest one built so
        far but never beyond window ``budget``; where that is window
        ``tried``, which the caller has read without an answer, the
        first read is one level deeper.  A read deeper than the held
        window becomes the held window.  At a window end n/d the
        form ``P/Lp + (Q/Lq)*a`` is ``f / (Lp*Lq*d)`` with
        ``f = P*Lq*d + Q*Lp*n``; ``decide`` returns None while the window
        is too wide to answer.  The next read is one level deeper, or
        ``ahead(level, f_lo, d_lo, f_hi, d_hi)`` levels, but not past the
        budget, and where the chain ends first (it runs out, or a step
        leaves no window) its last window is read.  The windows nest, so
        a window that answers gives the first answering window's answer,
        and one that does not shows that no shallower window answers.
        Raises ``Undecided`` about ``what`` when the chain runs out or the
        budget is reached.
        """
        A, B = P * Lq, Q * Lp
        refiner, budget = self.refiner, self.budget
        level, read = min(max(1, refiner.depth), budget), 0
        if level == tried:
            read, level = level, level + 1
        while True:
            if read >= budget:
                raise Undecided(
                    f"{what} of {_form(P, Lp, Q, Lq)} undecided within budget", budget
                )
            try:
                lo_num, lo_den, hi_num, hi_den = refiner.ends(level)
            except (RefinementExhausted, EmptyRefinement) as exc:
                if refiner.depth > read:
                    level = refiner.depth
                    continue
                if isinstance(exc, EmptyRefinement):
                    raise
                raise Undecided(f"{what} of {_form(P, Lp, Q, Lq)} undecided", exc.depth) from exc
            if level > self._held[0]:
                self._held = (level, lo_num, lo_den, hi_num, hi_den)
            f_lo, f_hi = A * lo_den + B * lo_num, A * hi_den + B * hi_num
            answer = decide(f_lo, lo_den, f_hi, hi_den)
            if answer is not None:
                return answer
            read = level
            level = min(budget, level + (ahead(level, f_lo, lo_den, f_hi, hi_den) if ahead else 1))

    def sign(self, e: AffineExpr) -> int:
        """Sign of ``e`` at the point, in {-1, 0, +1}; see ``sign_lattice``."""
        return self.sign_lattice(e.p.numerator, e.p.denominator, e.q.numerator, e.q.denominator)

    def sign_lattice(self, P: int, Lp: int, Q: int, Lq: int) -> int:
        """Sign of ``P/Lp + (Q/Lq)*a`` at the point, for ``Lp``, ``Lq`` > 0.

        Constant forms are decided immediately.  Otherwise the window
        chain is refined until the root of the form falls on one side of
        the whole open window (see ``_sign_at_ends``).  A form is first
        tried on the held window, the deepest any query on the point has
        read, unless the budget has since been lowered below its level;
        the windows nest, so an answer there is the one the chain gives,
        and the chain is read, from one level deeper where it can be,
        only when the held window does not answer.  No answer is kept:
        asked again, a form is decided again, so its outcome depends
        only on the form, the window chain and the budget.
        """
        if Q == 0:
            return (P > 0) - (P < 0)
        level, lo_num, lo_den, hi_num, hi_den = self._held
        if 0 < level <= self.budget:
            A, B = P * Lq, Q * Lp
            sign = _sign_at_ends(A * lo_den + B * lo_num, lo_den, A * hi_den + B * hi_num, hi_den)
            if sign is not None:
                return sign
        # a held window beyond the budget is not the chain's first read
        return self._refine(P, Lp, Q, Lq, _sign_at_ends, "sign", tried=level)

    def eval_decimal(self, e: AffineExpr, digits: int) -> str:
        """Correctly rounded decimal value of ``e`` at the point.

        Decided on a window whose exact image interval has both ends
        round to the same signed integer multiple of ``10^-digits``, which
        that of the enclosed true value then must equal; only that answer
        is formatted as a string.  The windows nest and rounding is
        monotone, so every deeper window rounds to it as well, and levels
        may be skipped: from a window that does not decide, the query
        jumps by the levels that bring the image width below
        ``10^-digits`` at the rate (bits per level, about log2 m) that the
        image has shrunk since the first window read, bit lengths rounded
        so that a steadily shrinking chain is not jumped past that level.
        No answer is kept; the chain's windows are, so asking again starts
        at the deepest window built and usually decides on its first read.
        """
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if e.q == 0:
            return round_decimal(e.p, digits)
        P, Lp, Q, Lq = e.p.numerator, e.p.denominator, e.q.numerator, e.q.denominator
        L = Lp * Lq
        scale_bits, first = (10**digits).bit_length(), []  # log2(10^digits) < scale_bits

        def rounds_alike(f_lo, d_lo, f_hi, d_hi):
            r_lo = _round_scaled(f_lo, L * d_lo, digits)
            return r_lo if r_lo == _round_scaled(f_hi, L * d_hi, digits) else None

        def ahead(level, f_lo, d_lo, f_hi, d_hi):
            # log2 of the image width lies strictly between width_bits and width_bits + 2
            width_bits = (abs(f_hi * d_lo - f_lo * d_hi).bit_length()
                          - (L * d_lo * d_hi).bit_length() - 1)
            if not first:
                first.extend((level, width_bits))
                return 1
            # bits shed since the first window, bounded above; bits still to shed, below
            shrunk, needed = first[1] - width_bits + 2, width_bits + scale_bits - 1
            return max(1, needed * (level - first[0]) // shrunk) if needed > 0 else 1

        scaled = self._refine(P, Lp, Q, Lq, rounds_alike, "decimal value", ahead)
        return _format_scaled(scaled, digits)

    def canonical_key(self, e: AffineExpr):
        """Hashable identity for the value of ``e`` at the point.

        Distinct (p, q) pairs denote distinct affine functions, hence
        distinct values whenever the point is irrational; dedup by the
        pair is always sound and, under the flag, also complete.
        """
        return (e.p, e.q)


class RationalParam(_ParamBase):
    """An exact rational parameter value (control experiments).

    Every query is answered by direct evaluation; nothing is refined
    and ``sign`` may legitimately return 0.
    """

    def __init__(self, value):
        self.value = Fraction(value)
        self.irrationality_assumed = False
        n, d = self.value.numerator, self.value.denominator
        self._ends = (0, n, d, n, d)

    def held_ends(self) -> tuple[int, int, int, int, int]:
        """The degenerate window (r, r): a form's value at its ends is its value."""
        return self._ends

    def sign(self, e: AffineExpr) -> int:
        return self.sign_lattice(e.p.numerator, e.p.denominator, e.q.numerator, e.q.denominator)

    def sign_lattice(self, P: int, Lp: int, Q: int, Lq: int) -> int:
        n, d = self.value.numerator, self.value.denominator
        f = P * Lq * d + Q * Lp * n
        return (f > 0) - (f < 0)

    def eval_decimal(self, e: AffineExpr, digits: int) -> str:
        return round_decimal(e.evaluate(self.value), digits)

    def canonical_key(self, e: AffineExpr):
        return e.evaluate(self.value)
