"""Test-only helpers: full-enumeration oracles and small exact utilities.

The oracles for the displacement search and the endpoint check
enumerate every word pair of one level, so they cost n^(2k) and serve
only as independent cross-checks at small levels.
``refine_step_fractions`` is the ``Fraction`` reference for the
refinement step, built on the band solver and interval helpers here.
The interval, image and automaton helpers are what only the tests ask
of those types, and ``StaticRefiner`` gives a point a fixed, finite
window chain.
"""

from dataclasses import dataclass
from fractions import Fraction

from sepkit import AffineExpr, IfsSystem, Param, RationalInterval, Word, map_at_zero
from sepkit.construction import ConstructionTemplate, EmptyRefinement, RefinementOption
from sepkit.exact import RefinementExhausted
from sepkit.separation import Displacement, DisplacementLattice, TypeAutomaton


def compare(pt: Param, e1: AffineExpr, e2: AffineExpr) -> int:
    """Sign of e1 - e2 at the parameter."""
    return pt.sign(e1 - e2)


def abs_expr(pt: Param, e: AffineExpr) -> AffineExpr:
    """``e`` or ``-e``, whichever is >= 0 at the parameter."""
    return -e if pt.sign(e) < 0 else e


class StaticRefiner:
    """Refiner over a precomputed, finite window chain."""

    def __init__(self, windows: list[RationalInterval]):
        if not windows:
            raise ValueError("need at least one window")
        self._windows = list(windows)

    @property
    def depth(self) -> int:
        return len(self._windows)

    def window(self, level: int) -> RationalInterval:
        if level < 1:
            raise ValueError("levels are 1-based")
        if level > len(self._windows):
            raise RefinementExhausted(len(self._windows))
        return self._windows[level - 1]


def refine_step_fractions(
    state: tuple, opt: RefinementOption, tmpl: ConstructionTemplate
) -> tuple:
    """One refinement step on the unscaled gap in ``Fraction`` arithmetic.

    ``state`` and the result are ``(level, left, right, window, gap)``
    tuples.  The new window is the old one intersected with the exact
    solution set of ``0 < gap' < m^-(level+1)``.
    """
    n, left, right, window, gap = state
    sys = tmpl.system
    m = sys.ratio_denominator
    if opt.swap:
        left, right, gap = right, left, -gap
    step = (sys.offset(opt.append_right) - sys.offset(opt.append_left)).scale(
        Fraction(1, m**n)
    )
    gap = gap + step
    if gap.q == 0:
        raise EmptyRefinement("gap became constant; cannot solve for the parameter")
    band = solve_affine_band(gap, 0, Fraction(1, m ** (n + 1)))
    window = None if band is None else intersect(window, band)
    if window is None:
        raise EmptyRefinement(
            f"step from level {n} leaves no parameter window (option {opt})"
        )
    return (n + 1, left.append(opt.append_left), right.append(opt.append_right), window, gap)


@dataclass(frozen=True, order=True)
class TupleWord:
    """The tuple-backed word: the reference for ``Word``'s bytes storage."""

    symbols: tuple[int, ...] = ()

    @staticmethod
    def parse(text: str) -> "TupleWord":
        text = text.strip()
        if not text:
            return TupleWord()
        if "," in text:
            return TupleWord(tuple(int(part) for part in text.removesuffix(",").split(",")))
        return TupleWord(tuple(int(ch) for ch in text))

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __add__(self, other: "TupleWord") -> "TupleWord":
        return TupleWord(self.symbols + other.symbols)

    def append(self, symbol: int) -> "TupleWord":
        return TupleWord(self.symbols + (symbol,))

    def __str__(self) -> str:
        if max(self.symbols, default=0) > 9:
            return ",".join(map(str, self.symbols)) + ("," if len(self.symbols) == 1 else "")
        return "".join(map(str, self.symbols))


def midpoint(interval: RationalInterval) -> Fraction:
    return (interval.lo + interval.hi) / 2


def contains(interval: RationalInterval, x: Fraction) -> bool:
    return interval.lo < x < interval.hi


def contains_interval(outer: RationalInterval, inner: RationalInterval) -> bool:
    """True when ``inner`` lies in ``outer``; the ends may coincide."""
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def intersect(a: RationalInterval, b: RationalInterval) -> RationalInterval | None:
    """The open interval ``a ∩ b``, or None when it is empty."""
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo >= hi:
        return None
    return RationalInterval(lo, hi)


def solve_affine_band(e: AffineExpr, lo, hi) -> RationalInterval | None:
    """Exact solution set of ``lo < e(a) < hi`` for non-constant ``e``.

    The solution of a strict two-sided linear inequality is an open
    rational interval (possibly empty, returned as None).
    """
    lo = Fraction(lo)
    hi = Fraction(hi)
    if e.q == 0:
        raise ValueError("band solving needs a non-constant form")
    r0 = (lo - e.p) / e.q
    r1 = (hi - e.p) / e.q
    if r0 > r1:
        r0, r1 = r1, r0
    if r0 >= r1:
        return None
    return RationalInterval(r0, r1)


def strictly_inside(inner: RationalInterval, outer: RationalInterval) -> bool:
    """True when the closure of ``inner`` sits inside the open ``outer``."""
    return outer.lo < inner.lo and inner.hi < outer.hi


def affine_bounds(e: AffineExpr, window: RationalInterval) -> tuple[Fraction, Fraction]:
    """Exact (lo, hi) of the image of an open window under ``e``."""
    v0 = e.evaluate(window.lo)
    v1 = e.evaluate(window.hi)
    return (v0, v1) if v0 <= v1 else (v1, v0)


def word_type(automaton: TypeAutomaton, word: Word) -> tuple[AffineExpr, ...]:
    """The neighbourhood type the automaton reaches by reading ``word``."""
    key = automaton.root_key
    for s in word:
        key = automaton.successor(key, s)
    return automaton.type_of(key)


def brute_force_displacements(
    sys: IfsSystem, pt: Param, level: int, bound: Fraction = Fraction(1)
) -> dict:
    """Independent oracle: enumerate all word pairs of one level directly."""
    m = sys.ratio_denominator
    lattice = DisplacementLattice(sys)
    words = list(sys.words(level))
    origins = [(w, map_at_zero(sys, w)) for w in words]
    found: dict = {}
    for sigma, s_val in origins:
        for tau, t_val in origins:
            value = (t_val - s_val).scale(m**level)
            if not lattice.within(pt, lattice.point(value), bound):
                continue
            key = pt.canonical_key(value)
            if key not in found:
                found[key] = Displacement(value, (sigma, tau))
    return found


def endpoint_separation_bruteforce(
    sys: IfsSystem, pt: Param, level: int, threshold
) -> tuple[bool, int]:
    """Full-enumeration self-check of one level (small levels only).

    Returns (corresponding-endpoint verdict, number of equal pairs).
    """
    threshold = Fraction(threshold)
    m = sys.ratio_denominator
    origins = [(w, map_at_zero(sys, w)) for w in sys.words(level)]
    passed = True
    equal = 0
    for sigma, s_val in origins:
        for tau, t_val in origins:
            value = (s_val - t_val).scale(m**level)
            if value.p == 0 and value.q == 0:
                if sigma != tau:
                    equal += 1
                continue
            abs_value = abs_expr(pt, value)
            if pt.sign(abs_value - AffineExpr.constant(threshold)) <= 0:
                passed = False
    return passed, equal
