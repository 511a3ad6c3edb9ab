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
point, except the child cache's bound tests, which are mostly decided
on the integer ends of the window the point holds; the family search
asks a point's near test (|v| below the seed width) itself, when it
first reaches the point.  Both searches run depth first on explicit
stacks, so the truncation depth is not bounded by the Python stack.
Nearly every point
the family search expands is pass-through, with one child in bound and
no walk to start, and a run of such points, as long as the truncation
depth, is answered in one step at any budget.  Everything is
exact; truncation can only under-report intersections, so every report
carries the truncation depth as a caveat.

The constructed census runs the convex census's stepper
(``separation.census_states``) with the oracle filter as its class
function: each convex state of the type automaton is filtered once, and
the states with the same kept members form a class, one report row.
Each level steps the classes, with their word counts and smallest
witnesses, and builds and filters only the states new at it; a state
whose successors fall in other classes than its class's do sends the
stepper round again with each state as its own class, and the census
merges the states of each class.  The automaton runs on the oracle's
lattice and child cache, so each point is decided once for both, and a
node gets its value id and form only when the automaton reads it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from . import separation
from .exact import AFFINE_ZERO, AffineExpr, Param, RationalInterval, Undecided
from .ifs import EMPTY_WORD, IfsSystem, Word, apply_map, map_at_zero
from .separation import (
    CensusLevel,
    CensusResult,
    ClassSplit,
    DisplacementLattice,
    TypeAutomaton,
    _Node,
    _PointMemo,
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


#: What ``_known_walk`` returns when the answer needs a search deeper.
_SEARCH = object()


class _Family(_Node):
    """A node of the family search: what it has decided about one in-bound point.

    The child cache builds it from the point alone; the search decides
    near when it first reaches the point, and the rest as it goes.  It
    is the one node type of the cache the constructed census's automaton
    shares, which fills in the value id and form of ``_Node``.
    """

    __slots__ = ("near", "empty", "run")

    def __init__(self):
        super().__init__()
        #: |v| below the seed width, so seed ∩ (seed + v) != 0 at every
        #: budget; None until the search first reaches the point
        self.near = None
        #: the largest budget at which the families are proved disjoint
        self.empty = 0
        #: for a pass-through point, (end point, end node, length) of the
        #: run of pass-through points it starts, else None
        self.run = None


class _FamilyMemo(_PointMemo):
    """The family search's child cache, built with the bound 1 (families live
    in (0,1)); it keeps only its node type, ``_Family``, whose near test the
    search asks when it first reaches the point.  The constructed census's
    automaton reads the same cache, and a node gets the value id and form
    that automaton keeps only when it first reads the node
    (``_PointMemo.value``)."""

    def _node(self, point: tuple[int, int]) -> _Family:
        return _Family()


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
    query at the point, or integer comparisons on the ends of a window
    that holds it (the child cache's bound test), so answers are exact
    for the computable parameter.

    Each lattice point is decided once: in bound, by the child cache,
    which builds its node from the point alone; near, by the search
    when it first reaches the point, through ``DisplacementLattice.within``
    at the seed width; its in-bound children as far as the search
    reached them; and the largest budget at which its families are
    proved disjoint (a smaller budget searches a subset).  A hit is not
    kept, since its witness depends on the budget: asked again, it is
    found again from these facts and the cached walks.  A pass-through
    point (not near, both walk intervals missing (0,1), every step scanned and
    exactly one child in bound) answers at budget b what its child
    answers at b - 1, so a run of them is answered in one step: the
    run's first point keeps its end and its length d, and answers None
    below budget d and else the end's answer at b - d behind the run's
    words, read off the run's single children only when an answer needs
    them.  Runs join when their end turns out pass-through too, and a
    follow points every point on the way at the final end, as union-find
    compresses paths (``_run_end``); a run that closes on itself is
    disjoint at every budget.  Branch points are searched again at each
    larger budget.  An interval keeps its shortest word, which no budget
    changes, or the largest budget proved empty.  Both searches run
    depth first on explicit stacks, in the order of the recursion they
    replace, so the witness is the first on that order and no sign query
    is asked that the recursion would not ask.  Only decided answers are
    kept; an ``Undecided`` raised in the family search carries in
    ``words`` the word pair from the queried shift to the point whose
    test stayed undecided.  A shift off the lattice is answered by an
    oracle on a lattice whose denominators cover its own too (the
    ``lattice`` argument), with caches of its own.
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
        # the near test's bound, kept since ``width`` subtracts on every read
        self._width = seed.width
        self._points = _FamilyMemo(self.lattice, pt, Fraction(1), strict=True)
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
        [point, node, budget, next child, run] frames, ``run`` the
        (first node, length) of the run that led to the frame's point;
        the first hit is the first on every frame's path, so it winds
        straight up, and its words are read off that path (``_path``).
        """
        points, stack = self._points, []
        # the child (i, j, point, node) under test below the top frame, or
        # None while the top frame scans its steps
        probe = None
        try:
            answer = self._known_family((P, Q), points[(P, Q)], budget)
            if type(answer) is not list:
                return answer
            stack.append(answer)
            while stack:
                frame = stack[-1]
                point, node, budget, k, _ = frame
                probe = None
                children = points.children(point, need=k + 1)
                if k == len(children):
                    # every child's families are disjoint one level down
                    node.empty = budget
                    self._pass_through(point, node)
                    stack.pop()
                    continue
                frame[3] = k + 1
                probe = children[k]
                i, j, point, node = probe
                answer = self._known_family(point, node, budget - 1)
                if type(answer) is list:
                    stack.append(answer)
                elif answer is not None:
                    return _path(stack, i, j, *answer)
            return None
        except Undecided as exc:
            exc.words = self._undecided_words((P, Q), stack, probe)
            raise

    def _known_family(self, point: tuple[int, int], node: _Family | None, budget: int, run=None):
        """The answer at ``budget`` when it needs no search of the children, else the
        [point, node, budget, 0, run] frame that searches them, past the point's run."""
        if node is None:
            return None
        if node.near is None:
            # seed ∩ (seed + v): |v| below the seed width
            node.near = self.lattice.within(self.pt, point, self._width)
        if node.near:
            answer = (EMPTY_WORD, EMPTY_WORD)
        elif budget <= node.empty:
            return None
        elif node.run is not None:
            end, end_node, d = _run_end(node)
            if budget < d:
                return None
            # the run's end is not pass-through, so this goes one level deep
            return self._known_family(end, end_node, budget - d, (node, d))
        else:
            P, Q = point
            # seed against the deeper translated family, both ways round:
            # seed meets S_w(seed) + v exactly when seed - v meets S_w(seed)
            lo, hi = self._seed
            hit = self._interval_vs_family(lo - P, hi - P, -Q, budget)
            if hit is not None:
                answer = (EMPTY_WORD, hit)
            else:
                hit = self._interval_vs_family(P + lo, P + hi, Q, budget)
                if hit is None:
                    return [point, node, budget, 0, run]
                answer = (hit, EMPTY_WORD)
        return answer if run is None else _behind(run, *answer)

    def _pass_through(self, point: tuple[int, int], node: _Family) -> None:
        """Start a run at a searched point whose steps are all scanned, if it passes through."""
        if len(node.children) != 1:
            return
        P, Q = point
        lo, hi = self._seed
        if self._walks[(lo - P, hi - P, -Q)] == self._walks[(P + lo, P + hi, Q)] == inf:
            child, child_node = node.children[0][2:]
            end_node = child_node if child_node.run is None else _run_end(child_node)[1]
            if end_node is node:
                # a closed run never reaches a point that could meet
                node.empty = inf
            else:
                node.run = (child, child_node, 1)

    def _undecided_words(self, root: tuple[int, int], stack: list, probe) -> tuple[Word, Word]:
        """The word pair from the queried shift to the point whose test stayed undecided:
        the probe, else the step the top frame was scanning, else the root."""
        if probe is not None:
            i, j, _, node = probe
        elif stack:
            (i, j, _, _), node = self.lattice.steps[stack[-1][1].scanned], None
        else:
            i, j, node = None, None, self._points.get(root)
        w1 = w2 = EMPTY_WORD
        if node is not None and node.run is not None:
            # a run is followed to its end before the end is tested
            w1, w2 = _behind((node, node.run[2]), w1, w2)
        return _path(stack, i, j, w1, w2)

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
            known = self._walks[interval] = self._walk_start(interval)
        if type(known) is Word:
            return known if len(known) <= budget else None
        return None if budget <= known else _SEARCH

    def _walk_start(self, interval: tuple[int, int, int]) -> Word | int | float:
        """What a new interval's walk knows before it searches: infinite when the
        interval misses (0,1), where every component sits, the empty word when
        it meets the seed itself, else 0.

        Four sign queries decide it, in order: the interval's low end below 1
        and its high end above 0, then its low end below the seed's high end
        and its high end above the seed's low end.
        """
        lp, lq = self.lattice.lp, self.lattice.lq
        lo, hi, Q = interval
        seed_lo, seed_hi = self._seed
        for k, (P, s) in enumerate(((lp - lo, -1), (hi, 1), (seed_hi - lo, -1), (hi - seed_lo, 1))):
            if self.pt.sign_lattice(P, lp, s * Q, lq) <= 0:
                return inf if k < 2 else 0
        return EMPTY_WORD


def _run_end(node: _Family) -> tuple:
    """The (end point, end node, length) of a pass-through node's run.

    The run is followed through ends that turned out pass-through too,
    and every node on the way is pointed at the final end, as union-find
    compresses paths; the loop stays flat however long the run.
    """
    run = node.run
    if run[1].run is None:
        return run
    path, d = [], 0
    while node.run is not None:
        path.append((node, d))
        end, node, step = node.run
        d += step
    for start, at in path:
        start.run = (end, node, d - at)
    return path[0][0].run


def _path(stack: list, i: int, j: int, w1: Word, w2: Word) -> tuple[Word, Word]:
    """(w1, w2) behind the words of the search path to the step (i, j) out of the
    top frame: each frame's step up and the run that led to the frame."""
    for depth, (_, node, _, k, run) in enumerate(reversed(stack)):
        if depth:
            i, j, _, _ = node.children[k - 1]
        w1, w2 = Word.of(i) + w1, Word.of(j) + w2
        if run is not None:
            w1, w2 = _behind(run, w1, w2)
    return w1, w2


def _behind(run: tuple, w1: Word, w2: Word) -> tuple[Word, Word]:
    """(w1, w2) behind the words of a run given as (first node, length)."""
    node, d = run
    run1, run2 = bytearray(), bytearray()
    for _ in range(d):
        i, j, _, node = node.children[0]
        run1.append(i)
        run2.append(j)
    return Word(bytes(run1) + w1.symbols), Word(bytes(run2) + w2.symbols)


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
    candidate sets differ may collapse to one type here: a class is the
    convex states with the same kept value ids, one report row.

    The census stepper (``census_states``) steps the classes, with their
    word counts and smallest witnesses, not the 2k + 1 convex states;
    its class function is the oracle filter, asked once per state.  The
    automaton shares the oracle's child cache.  A state whose successors
    fall in other classes than its class's do would make merging
    unsound; then the stepper runs again with each state as its own
    class (``_state_levels``), on the same automaton and filters, and
    the census merges the states with the same kept members.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    oracle = OverlapOracle(open_set, pt)
    automaton = TypeAutomaton(sys, pt, oracle._points)
    # state -> (kept forms, their value ids), one tuple per state, so the
    # report formats each distinct type once; the ids name the state's class
    kept: dict[int, tuple] = {}

    def class_of(key: int, level: int) -> tuple:
        if key not in kept:
            kept[key] = _kept(oracle, automaton, key, level)
        return kept[key][1]

    # ``census_states`` is looked up on its module at call time, so a
    # wrapper set there (as perfbench's tracer sets one) sees this census too
    try:
        levels = [
            CensusLevel(level, *zip(*[
                (kept[key][0], count, witness) for count, witness, key in classes.values()
            ]))
            for level, _, classes in separation.census_states(automaton, max_level, class_of)
        ]
    except ClassSplit:
        levels = _state_levels(automaton, max_level, class_of, kept)
    caveats = (
        f"neighbour test truncated at depth {open_set.depth}; truncation can only "
        "under-report neighbours",
    )
    return CensusResult(f"constructed seed {open_set.seed}", tuple(levels), caveats)


def _kept(oracle: OverlapOracle, automaton, key: int, level: int) -> tuple:
    """A state's members whose translated families meet, as (forms, value ids)."""
    members = zip(automaton.type_of(key), automaton.value_ids(key))
    try:
        pairs = [(v, ident) for v, ident in members if oracle.overlaps(v) is not None]
    except Undecided as exc:
        exc.level = level
        raise
    return tuple(zip(*pairs)) or ((), ())


def _state_levels(automaton, max_level: int, class_of, kept: dict) -> list[CensusLevel]:
    """The census levels, stepping every state (``census_states`` with no
    class function) and merging the states of each class into one row."""
    levels = []
    for level, _, states in separation.census_states(automaton, max_level):
        merged: dict[tuple, list] = {}
        # states come in witness order (see ``census_states``), so each
        # merged row keeps its smallest witness and ``merged`` keeps that order
        for count, witness, key in states.values():
            fkey = class_of(key, level)
            row = merged.get(fkey)
            if row is None:
                merged[fkey] = [kept[key][0], count, witness]
            else:
                row[1] += count
        levels.append(CensusLevel(level, *zip(*merged.values())))
    return levels
