"""Test-only helpers: full-enumeration oracles and small exact utilities.

The oracles for the displacement search and the endpoint check
enumerate every word pair of one level, so they cost n^(2k) and serve
only as independent cross-checks at small levels.
``refine_step_fractions`` is the ``Fraction`` reference for the
refinement step, built on the band solver and interval helpers here.
``RecursiveOverlapOracle`` is the recursive, per-budget memoized form
of the overlap oracle, the reference for its explicit stacks.
``reference_search`` and ``ReferenceTypeAutomaton`` step every parent
through its children afresh each time, the reference for the shared
child cache that expands each lattice point once.
``sorting_wsp_min_displacement`` sorts and compares every value of
every level, the reference for the running minimum over new values.
``census_report_per_entry`` is the census report with every entry's
displacements written out in full, the reference that
``expand_census_report`` rebuilds from the compact report.
The interval, image and automaton helpers are what only the tests ask
of those types, and ``StaticRefiner`` gives a point a fixed, finite
window chain.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import wraps

from sepkit import (
    AffineExpr,
    IfsSystem,
    OpenSetApprox,
    Param,
    RationalInterval,
    Word,
    map_at_zero,
)
from sepkit.construction import ConstructionTemplate, EmptyRefinement, RefinementOption
from sepkit.exact import AFFINE_ZERO, RefinementExhausted
from sepkit.ifs import EMPTY_WORD
from sepkit.separation import (
    DISPLAY_DIGITS,
    Displacement,
    DisplacementLattice,
    TypeAutomaton,
    WspLevelMinimum,
    WspResult,
    _PointMemo,
    _search,
)


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


def reference_search(memo, max_level: int):
    """The displacement search that re-expands every in-bound parent at every level.

    A drop-in for ``separation._search``: the same levels, in the same
    order, from the same bound tests, but each parent's children are
    stepped and looked up in ``memo`` afresh, level after level.
    """
    lattice = memo.lattice
    m = lattice.m
    steps = [(bytes((i,)), bytes((j,)), dp, dq) for i, j, dp, dq in lattice.steps]
    current = [(b"", b"", (0, 0))]
    for _ in range(max_level):
        nxt: dict = {}
        for sigma, tau, (vp, vq) in current:
            vp, vq = m * vp, m * vq
            for i, j, dp, dq in steps:
                point = (vp + dp, vq + dq)
                node = memo[point]
                if node is not None and node.ident not in nxt:
                    nxt[node.ident] = (sigma + i, tau + j, point, node.form)
        yield nxt
        current = sorted(entry[:3] for entry in nxt.values())


class ReferenceTypeAutomaton(TypeAutomaton):
    """The automaton that steps every member through one symbol's steps itself."""

    def successor(self, key: int, symbol: int) -> int:
        memo_key = (key, symbol)
        cached = self._transitions.get(memo_key)
        if cached is not None:
            return cached
        memo = self._memo
        m = memo.lattice.m
        steps = [(dp, dq) for i, _, dp, dq in memo.lattice.steps if i == symbol]
        found: dict = {}
        for vp, vq in self._members[key]:
            vp, vq = m * vp, m * vq
            for dp, dq in steps:
                point = (vp + dp, vq + dq)
                node = memo[point]
                if node is not None and node.ident not in found:
                    found[node.ident] = (point, node.form)
        result = self._intern(found)
        self._transitions[memo_key] = result
        return result


def sorting_wsp_min_displacement(sys: IfsSystem, pt: Param, max_level: int) -> WspResult:
    """``wsp_min_displacement`` re-sorting and re-comparing every value at every level.

    Each level's nonzero values are walked in witness order and the
    first smallest |v| is kept; a level's minimum replaces the overall
    one when it is strictly smaller.  All bound tests run first.
    """
    lattice = DisplacementLattice(sys)
    lp, lq = lattice.lp, lattice.lq
    memo = _PointMemo(lattice, pt, Fraction(1), strict=True)
    zero = memo.value_id(AFFINE_ZERO)
    levels = list(_search(memo, max_level))
    best = None  # (|v| as a lattice point, its WspLevelMinimum)
    per_level = []
    for index, level in enumerate(levels, start=1):
        least = None  # (|v| as a lattice point, entry)
        for entry in sorted(entry for ident, entry in level.items() if ident != zero):
            P, Q = entry[2]
            if pt.sign_lattice(P, lp, Q, lq) < 0:
                P, Q = -P, -Q
            if least is None or pt.sign_lattice(P - least[0][0], lp, Q - least[0][1], lq) < 0:
                least = ((P, Q), entry)
        if least is None:
            per_level.append(None)
            continue
        point, (sigma, tau, _, form) = least
        level_best = WspLevelMinimum(
            index, Displacement(form, (Word(sigma), Word(tau))), lattice.form(point)
        )
        per_level.append(level_best)
        if best is None or pt.sign_lattice(
            point[0] - best[0][0], lp, point[1] - best[0][1], lq
        ) < 0:
            best = (point, level_best)
    return WspResult(max_level, None if best is None else best[1], tuple(per_level))


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


def _memoized(method):
    """Remember a method's results per instance, keyed by its arguments.

    A call that raises stores nothing.
    """
    name = "_memo_" + method.__name__

    @wraps(method)
    def memoized(self, *args):
        memo = self.__dict__.setdefault(name, {})
        try:
            return memo[args]
        except KeyError:
            result = memo[args] = method(self, *args)
            return result

    return memoized


class RecursiveOverlapOracle:
    """The overlap oracle as two recursions memoized per (arguments, budget).

    The reference for ``OverlapOracle``'s explicit stacks: the family
    recursion peels one map off each side, and the interval walk finds,
    within a depth budget, the lexicographically first of the shortest
    words whose component meets an interval.  Both recurse in Python,
    about two frames per unit of truncation depth, so they serve only at
    shallow depths.
    """

    def __init__(
        self, open_set: OpenSetApprox, pt: Param, lattice: DisplacementLattice | None = None
    ):
        self.open_set = open_set
        self.sys = open_set.system
        self.pt = pt
        seed = open_set.seed
        self._ends = (AffineExpr.constant(seed.lo), AffineExpr.constant(seed.hi))
        self.lattice = lattice or DisplacementLattice(self.sys, self._ends)
        self._seed = tuple(self.lattice.point(end)[0] for end in self._ends)
        self._width = seed.width
        self._wider: dict = {}

    def overlaps(self, v: AffineExpr) -> tuple[Word, Word] | None:
        oracle, point = self, self.lattice.point(v)
        if point is None:
            lattice = DisplacementLattice(self.sys, (*self._ends, v))
            key = (lattice.lp, lattice.lq)
            if key not in self._wider:
                self._wider[key] = RecursiveOverlapOracle(self.open_set, self.pt, lattice)
            oracle = self._wider[key]
            point = lattice.point(v)
        return oracle._family_vs_family(*point, self.open_set.depth)

    @_memoized
    def _family_vs_family(self, P: int, Q: int, budget: int) -> tuple[Word, Word] | None:
        lattice, pt = self.lattice, self.pt
        if not lattice.within(pt, (P, Q), 1):
            return None
        if lattice.within(pt, (P, Q), self._width):
            return (EMPTY_WORD, EMPTY_WORD)
        if budget == 0:
            return None
        lo, hi = self._seed
        hit = self._interval_vs_family(lo - P, hi - P, -Q, budget)
        if hit is not None:
            return (EMPTY_WORD, hit)
        hit = self._interval_vs_family(P + lo, P + hi, Q, budget)
        if hit is not None:
            return (hit, EMPTY_WORD)
        m = lattice.m
        for i, j, dp, dq in lattice.steps:
            sub = self._family_vs_family(m * P + dp, m * Q + dq, budget - 1)
            if sub is not None:
                return (Word.of(i) + sub[0], Word.of(j) + sub[1])
        return None

    @_memoized
    def _interval_vs_family(self, lo: int, hi: int, Q: int, budget: int) -> Word | None:
        sign, lp, lq = self.pt.sign_lattice, self.lattice.lp, self.lattice.lq
        if sign(lp - lo, lp, -Q, lq) <= 0 or sign(hi, lp, Q, lq) <= 0:
            return None
        seed_lo, seed_hi = self._seed
        if sign(seed_hi - lo, lp, -Q, lq) > 0 and sign(hi - seed_lo, lp, Q, lq) > 0:
            return EMPTY_WORD
        m, ps, qs = self.lattice.m, self.lattice.ps, self.lattice.qs
        best = None
        for j, p_j, q_j in zip(self.sys.symbols, ps, qs):
            if budget == 0:
                break
            sub = self._interval_vs_family(
                m * (lo - p_j), m * (hi - p_j), m * (Q - q_j), budget - 1
            )
            if sub is not None:
                best = Word.of(j) + sub
                budget = len(sub)
        return best


def census_report_per_entry(census, pt: Param) -> dict:
    """The census report with every entry formatted on its own."""
    return {
        "open_set": census.open_set,
        "counts": list(census.counts),
        "levels": [
            {
                "level": lv.level,
                "distinct_types": len(lv.types),
                "types": [
                    {
                        "displacements": [
                            {"value": v.to_json(), "decimal": pt.eval_decimal(v, DISPLAY_DIGITS)}
                            for v in t.displacements
                        ],
                        "count": t.count,
                        "witness": str(t.witness),
                    }
                    for t in lv.types
                ],
            }
            for lv in census.levels
        ],
        "caveats": list(census.caveats),
    }


def expand_census_report(report: dict) -> dict:
    """The per-entry layout of a compact census report: every index replaced by what it names."""
    values, types = report["values"], report["types"]
    return {
        "open_set": report["open_set"],
        "counts": report["counts"],
        "levels": [
            {
                "level": lv["level"],
                "distinct_types": lv["distinct_types"],
                "types": [
                    {
                        "displacements": [values[i] for i in types[t]],
                        "count": count,
                        "witness": witness,
                    }
                    for t, count, witness in zip(
                        lv["types"], lv["word_counts"], lv["witnesses"], strict=True
                    )
                ],
            }
            for lv in report["levels"]
        ],
        "caveats": report["caveats"],
    }
