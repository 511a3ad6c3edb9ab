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
building forms.  Sign and decimal queries walk the chain in one loop,
``ParamPoint._refine``: it hands the form's integer numerator at each
window end to the query's test and raises ``Undecided`` when the chain
or the point's refinement budget runs out.  A decimal is decided once
the image interval rounds unambiguously.  No floating point is used
anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Protocol

Rational = Fraction

#: Default cap on refinement depth for sign and decimal queries.
DEFAULT_SIGN_BUDGET = 200


class Undecided(Exception):
    """A query could not be settled within its refinement budget.

    ``level`` is the word level a level-by-level search was building
    when the query came up, set by that search; None elsewhere.
    """

    def __init__(self, message: str, depth: int):
        super().__init__(f"{message} (refined to depth {depth})")
        self.depth = depth
        self.level: int | None = None


class RefinementExhausted(Exception):
    """The driving data behind a refiner ran out (finite prefix)."""

    def __init__(self, depth: int):
        super().__init__(f"refinement data exhausted at depth {depth}")
        self.depth = depth


def rational_to_str(x: Fraction) -> str:
    """Serialize a rational as ``"num/den"`` (denominator always printed)."""
    return f"{x.numerator}/{x.denominator}"


def rational_from_str(text: str) -> Fraction:
    """Parse ``"num/den"`` (or a bare integer / decimal literal)."""
    return Fraction(text.strip())


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
    """Produces the nested parameter windows J_1 ⊃ J_2 ⊃ ..."""

    def window(self, level: int) -> RationalInterval: ...

    @property
    def depth(self) -> int: ...


class _ParamBase:
    """The queries every parameter point answers."""

    label: str
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

    Refinement is serialized inside the refiner; all cached windows are
    immutable, so concurrent readers always see a consistent prefix of
    the chain and ask deterministic questions of it.
    """

    def __init__(
        self,
        refiner: Refiner,
        irrationality_assumed: bool = False,
        label: str = "a",
        budget: int = DEFAULT_SIGN_BUDGET,
    ):
        self.refiner = refiner
        self.irrationality_assumed = irrationality_assumed
        self.label = label
        self.budget = budget
        self._sign_cache: dict[tuple[int, int, int, int], int] = {}
        self._decimal_cache: dict[tuple[Fraction, Fraction, int], str] = {}

    def window(self, level: int) -> RationalInterval:
        return self.refiner.window(level)

    def _refine(self, P: int, Lp: int, Q: int, Lq: int, decide, what: str):
        """The first answer ``decide(f_lo, d_lo, f_hi, d_hi)`` gives on the window chain.

        Windows are fetched from the deepest one computed so far, but
        never beyond window ``budget``; the windows nest, so where the
        walk starts changes no answer.  At a window end n/d the form
        ``P/Lp + (Q/Lq)*a`` is ``f / (Lp*Lq*d)`` with
        ``f = P*Lq*d + Q*Lp*n``; ``decide`` returns None while the window
        is too wide to answer.  Raises ``Undecided`` about
        ``what`` when the chain runs out or the budget is reached.
        """
        A, B = P * Lq, Q * Lp
        level = min(max(1, self.refiner.depth), self.budget)
        while True:
            try:
                win = self.window(level)
            except RefinementExhausted as exc:
                raise Undecided(f"{what} of {_form(P, Lp, Q, Lq)} undecided", exc.depth) from exc
            lo, hi = win.lo, win.hi
            answer = decide(A * lo.denominator + B * lo.numerator, lo.denominator,
                            A * hi.denominator + B * hi.numerator, hi.denominator)
            if answer is not None:
                return answer
            if level >= self.budget:
                raise Undecided(
                    f"{what} of {_form(P, Lp, Q, Lq)} undecided within budget", self.budget
                )
            level += 1

    def sign(self, e: AffineExpr) -> int:
        """Sign of ``e`` at the point, in {-1, 0, +1}; see ``sign_lattice``."""
        return self.sign_lattice(e.p.numerator, e.p.denominator, e.q.numerator, e.q.denominator)

    def sign_lattice(self, P: int, Lp: int, Q: int, Lq: int) -> int:
        """Sign of ``P/Lp + (Q/Lq)*a`` at the point, for ``Lp``, ``Lq`` > 0.

        Constant forms are decided immediately.  Otherwise the window
        chain is refined until the root of the form falls on one side of
        the whole open window (see ``_sign_at_ends``).  Only decided
        signs are cached.
        """
        if Q == 0:
            return (P > 0) - (P < 0)
        key = (P, Lp, Q, Lq)
        cached = self._sign_cache.get(key)
        if cached is None:
            cached = self._sign_cache[key] = self._refine(P, Lp, Q, Lq, _sign_at_ends, "sign")
        return cached

    def eval_decimal(self, e: AffineExpr, digits: int) -> str:
        """Correctly rounded decimal value of ``e`` at the point.

        Refines until both endpoints of the exact image interval round
        to the same signed integer multiple of ``10^-digits``, which that
        of the enclosed true value then must equal; only that answer is
        formatted as a string.  The windows nest, so every deeper window
        rounds to it as well; a remembered answer is what a fresh call
        would return, and only answers are remembered.
        """
        if digits < 1:
            raise ValueError("digits must be >= 1")
        if e.q == 0:
            return round_decimal(e.p, digits)
        key = (e.p, e.q, digits)
        cached = self._decimal_cache.get(key)
        if cached is not None:
            return cached
        P, Lp, Q, Lq = e.p.numerator, e.p.denominator, e.q.numerator, e.q.denominator
        L = Lp * Lq

        def rounds_alike(f_lo, d_lo, f_hi, d_hi):
            r_lo = _round_scaled(f_lo, L * d_lo, digits)
            return r_lo if r_lo == _round_scaled(f_hi, L * d_hi, digits) else None

        scaled = self._refine(P, Lp, Q, Lq, rounds_alike, "decimal value")
        cached = self._decimal_cache[key] = _format_scaled(scaled, digits)
        return cached

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

    def __init__(self, value, label: str | None = None):
        self.value = Fraction(value)
        self.label = label or f"a={self.value}"
        self.irrationality_assumed = False

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
