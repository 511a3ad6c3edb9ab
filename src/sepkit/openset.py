"""Constructed open sets and the separation checks that use them.

The open set is a truncated union V^D = union over words of length at
most D of S_word(seed), for an open rational seed interval inside
(0, 1).  Family-level questions never enumerate the (exponentially
many) components: peeling one map off each side turns the question
whether V^D meets V^D + v into the same question about the child
m*v + m*(d_j - d_i) one level down, so the family search reads its
lattice points and their children from the displacement search's child
cache (``_PointMemo``), on a lattice with the seed ends' denominators
joined in.  The base cases, the seed against the deeper family
translated by v, are one walk down the cylinder tree started at
seed - v.  Every comparison is one integer sign query at the parameter
point; both searches run depth first on explicit stacks, so the
truncation depth is not bounded by the Python stack.  Everything is
exact; truncation can only under-report intersections, so every report
carries the truncation depth as a caveat.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from .exact import AFFINE_ZERO, AffineExpr, Param, RationalInterval
from .ifs import EMPTY_WORD, IfsSystem, Word, apply_map, map_at_zero
from .separation import (
    CensusLevel,
    CensusResult,
    DisplacementLattice,
    _Node,
    _PointMemo,
    census_states,
)

#: Explicit component enumeration is refused beyond this many components.
MATERIALIZE_LIMIT = 1_000_000


@dataclass(frozen=True)
class OpenSetApprox:
    """Depth-D truncation of the invariant open set grown from a seed.

    Components are the intervals S_word(seed) over words of length at
    most ``depth``; they are produced lazily because realistic
    truncation depths have millions of components.
    """

    system: IfsSystem
    seed: RationalInterval
    depth: int

    def __post_init__(self):
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if not (0 <= self.seed.lo and self.seed.hi <= 1):
            raise ValueError("seed must sit inside [0, 1]")

    @property
    def component_count(self) -> int:
        n = self.system.alphabet_size
        return sum(n**k for k in range(self.depth + 1))

    def component(self, word: Word) -> tuple[AffineExpr, AffineExpr]:
        """Endpoints of S_word(seed) as exact affine forms."""
        scale = Fraction(1, self.system.ratio_denominator ** len(word))
        origin = map_at_zero(self.system, word)
        return origin.shift(self.seed.lo * scale), origin.shift(self.seed.hi * scale)

    def components(self):
        """All (word, lo, hi) components, lexicographic within each level."""
        if self.component_count > MATERIALIZE_LIMIT:
            raise ValueError(
                f"{self.component_count} components exceed the enumeration limit; "
                "use the overlap oracle instead"
            )
        for length in range(self.depth + 1):
            for word in self.system.words(length):
                lo, hi = self.component(word)
                yield word, lo, hi


#: What ``_known_family`` and ``_known_walk`` return when the answer
#: needs a search one level down.
_SEARCH = object()


class _Family(_Node):
    """A node of the family search: what it has decided about one in-bound point."""

    __slots__ = ("near", "empty")

    def __init__(self, near: bool):
        super().__init__()
        #: |v| below the seed width: seed ∩ (seed + v) != 0 at every budget
        self.near = near
        #: the largest budget at which the families are proved disjoint
        self.empty = 0


class _FamilyMemo(_PointMemo):
    """The family search's child cache: families live in (0,1), so the bound is 1."""

    def __init__(self, lattice: DisplacementLattice, pt: Param, width: Fraction):
        super().__init__(lattice, pt, Fraction(1), strict=True)
        self.width = width

    def _node(self, point: tuple[int, int]) -> _Family:
        # seed ∩ (seed + v): |v| below the seed width
        return _Family(self.lattice.within(self.pt, point, self.width))


class OverlapOracle:
    """Exact decision procedure for V^D ∩ (V^D + v) at a parameter point.

    ``overlaps`` returns a witnessing pair of component words when the
    translated families meet, or None when they are disjoint at this
    truncation depth.  Two searches do the work: the family search
    peels one map off each side, and the interval walk finds, within a
    depth budget, the shortest word whose component meets an interval
    (of the shortest, the lexicographically first).  The seed against
    the deeper family translated by v is one walk from seed - v.

    Both run on the lattice of ``DisplacementLattice`` with the seed
    ends' denominators joined in: a shift is a lattice point (P, Q), an
    interval is (Plo, Phi, Q), and every comparison is one integer sign
    query at the point, so answers are exact for the computable parameter.

    Each lattice point is decided once, in the child cache: in bound,
    near, its in-bound children as far as the search reached them, and
    the largest budget at which its families are proved disjoint (a
    smaller budget searches a subset).  Its rare hits are kept per
    budget, since their witness depends on it.  An interval keeps its
    shortest word, which no budget changes, or the largest budget proved
    empty.  Both searches run depth first on explicit stacks, in the
    order of the recursion they replace, so the witness is the first on
    that order.  Only decided answers are kept.  A shift off the lattice
    is answered by an oracle on a lattice whose denominators cover its
    own too (the ``lattice`` argument), with caches of its own.
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
        self._points = _FamilyMemo(self.lattice, pt, seed.width)
        #: (P, Q, budget) -> witness, for budgets at which a child search hit
        self._hits: dict[tuple[int, int, int], tuple[Word, Word]] = {}
        #: interval (lo, hi, Q) -> its shortest word, or the largest budget
        #: proved empty (infinite for an interval missing (0,1))
        self._walks: dict[tuple[int, int, int], Word | int | float] = {}
        #: oracles for shifts off this lattice, by their lattice's (Lp, Lq)
        self._wider: dict[tuple[int, int], OverlapOracle] = {}

    def overlaps(self, v: AffineExpr) -> tuple[Word, Word] | None:
        """Witness words (w1, w2) with S_w1(seed) ∩ (S_w2(seed) + v) != 0."""
        oracle, point = self, self.lattice.point(v)
        if point is None:
            lattice = DisplacementLattice(self.sys, (*self._ends, v))
            key = (lattice.lp, lattice.lq)
            if key not in self._wider:
                self._wider[key] = OverlapOracle(self.open_set, self.pt, lattice)
            oracle = self._wider[key]
            point = lattice.point(v)
        return oracle._family_vs_family(*point, self.open_set.depth)

    def _family_vs_family(self, P: int, Q: int, budget: int) -> tuple[Word, Word] | None:
        """Does any V_n1 meet any V_n2 + v, for n1, n2 <= budget?

        A depth-first search over the children on a stack of
        [point, node, budget, next child] frames; the first hit is the
        first on every frame's path, so it winds straight up.
        """
        point, points = (P, Q), self._points
        node = points[point]
        answer = self._known_family(point, node, budget)
        if answer is not _SEARCH:
            return answer
        stack = [[point, node, budget, 0]]
        while stack:
            frame = stack[-1]
            point, node, budget, k = frame
            children = points.children(point, need=k + 1)
            if k == len(children):
                # every child's families are disjoint one level down
                node.empty = budget
                stack.pop()
                continue
            frame[3] = k + 1
            _, _, point, node = children[k]
            answer = self._known_family(point, node, budget - 1)
            if answer is _SEARCH:
                stack.append([point, node, budget - 1, 0])
            elif answer is not None:
                w1, w2 = answer
                for point, node, budget, k in reversed(stack):
                    i, j, _, _ = node.children[k - 1]
                    w1, w2 = Word.of(i) + w1, Word.of(j) + w2
                    self._hits[(*point, budget)] = (w1, w2)
                return (w1, w2)
        return None

    def _known_family(self, point: tuple[int, int], node: _Family | None, budget: int):
        """The answer at ``budget`` when it needs no search of the children, else ``_SEARCH``."""
        if node is None:
            return None
        if node.near:
            return (EMPTY_WORD, EMPTY_WORD)
        if budget <= node.empty:
            return None
        P, Q = point
        hit = self._hits.get((P, Q, budget))
        if hit is not None:
            return hit
        # seed against the deeper translated family, both ways round:
        # seed meets S_w(seed) + v exactly when seed - v meets S_w(seed)
        lo, hi = self._seed
        hit = self._interval_vs_family(lo - P, hi - P, -Q, budget)
        if hit is not None:
            return (EMPTY_WORD, hit)
        hit = self._interval_vs_family(P + lo, P + hi, Q, budget)
        if hit is not None:
            return (hit, EMPTY_WORD)
        return _SEARCH

    def _interval_vs_family(self, lo: int, hi: int, Q: int, budget: int) -> Word | None:
        """Shortest word w, |w| <= budget, with (lo, hi) ∩ S_w(seed) != 0, if any.

        Of the shortest such words it is the lexicographically first.
        The interval's ends are the lattice points (lo, Q) and (hi, Q).
        A depth-first walk over the symbols on a stack of
        [interval, budget asked, budget left, next symbol, best word]
        frames.
        """
        interval = (lo, hi, Q)
        answer = self._known_walk(interval, budget)
        if answer is not _SEARCH:
            return answer
        m, ps, qs, symbols = self.lattice.m, self.lattice.ps, self.lattice.qs, self.sys.symbols
        stack = [[interval, budget, budget, 0, None]]
        while True:
            frame = stack[-1]
            interval, asked, left, k, best = frame
            if k == len(ps) or left == 0:
                # the shortest word, or none within the budget asked
                self._walks[interval] = asked if best is None else best
                stack.pop()
                if not stack:
                    return best
                frame, sub = stack[-1], best
            else:
                frame[3] = k + 1
                lo, hi, Q = interval
                child = (m * (lo - ps[k]), m * (hi - ps[k]), m * (Q - qs[k]))
                sub = self._known_walk(child, left - 1)
                if sub is _SEARCH:
                    stack.append([child, left - 1, left - 1, 0, None])
                    continue
            if sub is not None:
                # a later symbol wins only with a strictly shorter word
                frame[4] = Word.of(symbols[frame[3] - 1]) + sub
                frame[2] = len(sub)

    def _known_walk(self, interval: tuple[int, int, int], budget: int):
        """The walk's answer at ``budget`` when it needs no search deeper, else ``_SEARCH``."""
        known = self._walks.get(interval)
        if known is None:
            sign, lp, lq = self.pt.sign_lattice, self.lattice.lp, self.lattice.lq
            lo, hi, Q = interval
            seed_lo, seed_hi = self._seed
            # every component sits inside (0,1)
            if sign(lp - lo, lp, -Q, lq) <= 0 or sign(hi, lp, Q, lq) <= 0:
                known = inf
            # the interval meets the seed itself
            elif sign(seed_hi - lo, lp, -Q, lq) > 0 and sign(hi - seed_lo, lp, Q, lq) > 0:
                known = EMPTY_WORD
            else:
                known = 0
            self._walks[interval] = known
        if type(known) is Word:
            return known if len(known) <= budget else None
        return None if budget <= known else _SEARCH


@dataclass(frozen=True)
class OscViolation:
    map_left: int
    map_right: int
    component_left: Word
    component_right: Word
    components_coincide: bool

    def to_json(self) -> dict:
        return {
            "maps": [self.map_left, self.map_right],
            "components": [str(self.component_left), str(self.component_right)],
            "components_coincide": self.components_coincide,
        }


@dataclass(frozen=True)
class OscReport:
    seed: RationalInterval
    depth: int
    containment_ok: bool
    containment_checked: int
    disjointness_ok: bool
    violations: tuple[OscViolation, ...]
    caveats: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.containment_ok and self.disjointness_ok

    def to_json(self) -> dict:
        return {
            "seed": self.seed.to_json(),
            "depth": self.depth,
            "passed": self.passed,
            "containment": {"ok": self.containment_ok, "images_checked": self.containment_checked},
            "disjointness": {"ok": self.disjointness_ok},
            "violations": [v.to_json() for v in self.violations],
            "caveats": list(self.caveats),
        }


def containment_identity_holds(sys: IfsSystem, seed: RationalInterval) -> bool:
    """S_i(S_w(seed)) = S_{iw}(seed) for every word w, checked once per map.

    Write the component of a word w as S_w(seed) with S_w(x) = s*x + X,
    X = S_w(0) and s = m^-|w|.  Mapping its endpoints by S_i gives
    (X + s*e)/m + d_i for e a seed end; the deeper component S_{iw}(seed)
    has origin S_{iw}(0) = S_i(X), the step ``map_at_zero`` folds with,
    and scale s/m.  Both routes are affine in (X, s), so they agree for
    every word at every depth exactly when they agree at the three
    affinely independent points (X, s) = (0, 1), (1, 1), (0, 1/m).
    """
    m = sys.ratio_denominator
    inv = Fraction(1, m)
    one = AffineExpr.constant(1)
    points = ((AFFINE_ZERO, Fraction(1)), (one, Fraction(1)), (AFFINE_ZERO, inv))
    ends = (seed.lo, seed.hi)
    for i in sys.symbols:
        for origin, scale in points:
            image = tuple(origin.shift(scale * e).scale(inv) + sys.offset(i) for e in ends)
            deeper_origin = apply_map(sys, i, origin)
            deeper = tuple(deeper_origin.shift(scale * inv * e) for e in ends)
            if image != deeper:
                return False
    return True


def verify_osc_open_set(
    sys: IfsSystem, pt: Param, seed: RationalInterval, depth: int
) -> OscReport:
    """Finite-depth open set condition check for the grown open set.

    Containment: the image of every depth-D component under every map
    must be, exactly, the matching component of the depth-(D+1) family.
    That is one affine identity in the component's origin and scale,
    certified symbolically per map by ``containment_identity_holds``;
    ``images_checked`` counts the n * (component count) images it
    covers.  Disjointness: for every map pair i < j, the translated
    families must not meet, decided by the overlap oracle.  A depth-D
    pass certifies the inequalities it checked; deeper overlaps are
    outside the truncation and noted as a caveat.
    """
    open_set = OpenSetApprox(sys, seed, depth)
    oracle = OverlapOracle(open_set, pt)
    m = sys.ratio_denominator
    containment_ok = containment_identity_holds(sys, seed)
    checked = sys.alphabet_size * open_set.component_count
    violations = []
    for i in sys.symbols:
        for j in sys.symbols:
            if i >= j:
                continue
            shift = (sys.offset(j) - sys.offset(i)).scale(m)
            witness = oracle.overlaps(shift)
            if witness is None:
                continue
            comp_left = Word.of(i) + witness[0]
            comp_right = Word.of(j) + witness[1]
            coincide = open_set_components_equal(sys, comp_left, comp_right)
            violations.append(OscViolation(i, j, comp_left, comp_right, coincide))
    caveats = (
        f"verified at truncation depth {depth}; deeper components are not examined",
    )
    return OscReport(
        seed,
        depth,
        containment_ok,
        checked,
        not violations,
        tuple(violations),
        caveats,
    )


def open_set_components_equal(sys: IfsSystem, w1: Word, w2: Word) -> bool:
    if len(w1) != len(w2):
        return False
    return map_at_zero(sys, w1) == map_at_zero(sys, w2)


def constructed_v_type_census(
    sys: IfsSystem,
    pt: Param,
    open_set: OpenSetApprox,
    max_level: int,
) -> CensusResult:
    """Neighbourhood-type census with respect to the grown open set.

    Candidate displacement sets come from the same automaton as the
    convex census (a displacement at or beyond 1 can never join any
    type); each candidate is then kept only if the translated family
    intersection is non-empty at this truncation depth.  Words whose
    candidate sets differ may collapse to one type here.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    oracle = OverlapOracle(open_set, pt)
    # automaton state -> (kept displacements, their value ids), one tuple
    # per state, so the report formats each distinct type once
    kept: dict[int, tuple] = {}
    levels = []
    for level, automaton, states in census_states(sys, pt, max_level):
        merged: dict[tuple, list] = {}
        # states come in witness order (see ``census_states``), so each
        # merged row keeps its smallest witness and ``merged`` keeps that order
        for key, (count, witness) in states.items():
            if key not in kept:
                members = zip(automaton.type_of(key), automaton.value_ids(key))
                pairs = [(v, ident) for v, ident in members if oracle.overlaps(v) is not None]
                kept[key] = tuple(zip(*pairs)) or ((), ())
            filtered, fkey = kept[key]
            row = merged.get(fkey)
            if row is None:
                merged[fkey] = [filtered, count, witness]
            else:
                row[1] += count
        levels.append(CensusLevel(level, *zip(*merged.values())))
    caveats = (
        f"neighbour test truncated at depth {open_set.depth}; truncation can only "
        "under-report neighbours",
    )
    return CensusResult(f"constructed seed {open_set.seed}", tuple(levels), caveats)
