"""Separation-property verifiers built on normalized displacements.

For equal-length words the relative map S_sigma^{-1} o S_tau is a pure
translation; its amount is the *normalized displacement*.  Appending
symbols i (to sigma) and j (to tau) turns a displacement v into
m*v + m*(d_j - d_i), and any displacement whose magnitude reaches the
prune bound only ever produces children at or beyond it, so a
breadth-first search over in-bound displacement values reaches exactly
the displacement set of every level.

The recursion runs on an integer lattice (``DisplacementLattice``):
with Lp and Lq the common denominators of the offsets' constant and
parameter parts, every displacement is P/Lp + (Q/Lq)*a for integers P
and Q, and a step is integer arithmetic on (P, Q).  One child cache,
``_PointMemo``, decides whether each child lies within the bound and
expands each in-bound point once.  It steps the recursion on the values
at the two integer ends of the window the parameter point holds, so
nearly every child is decided by integer comparisons; only a child
whose bound test straddles that window, or every child at a point that
holds no window within its budget, takes the two integer sign queries
on (P, Q), and that verdict is kept.  The displacement search (behind
the smallest displacement and the endpoint check), the convex
neighbourhood-type automaton and the open-set overlap oracle all read
their children from it; the exact overlap scan needs no parameter
point at all.

The displacement search hands each level to its reader as it finds it,
with the ids of the values that level adds.  The smallest displacement
and the endpoint check read each level once and drop it, so they hold
one level at a time; the search alone decides which ``Undecided`` a
request raises when a bound test and a reader's own test both stay
undecided.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import starmap
from math import lcm
from typing import NamedTuple

from .exact import AFFINE_ZERO, AffineExpr, Param, RationalParam, Undecided, rational_to_str
from .ifs import IfsSystem, Word, word_texts

DISPLAY_DIGITS = 12


class DisplacementLattice:
    """The integer lattice the displacements of one system live on.

    With Lp and Lq the common denominators of the constant and the
    parameter parts of the offsets (and of any extra ``forms``, such as
    the ends of a seed interval), the lattice point (P, Q) stands for
    the displacement P/Lp + (Q/Lq)*a.  Appending symbols (i, j) sends
    (P, Q) to (m*P + dP, m*Q + dQ), with (dP, dQ) the integer step of
    m*(d_j - d_i); no parameter point is involved.
    """

    def __init__(self, sys: IfsSystem, forms: tuple[AffineExpr, ...] = ()):
        m = sys.ratio_denominator
        self.m = m
        joined = (*sys.offsets, *forms)
        self.lp = lcm(*(d.p.denominator for d in joined))
        self.lq = lcm(*(d.q.denominator for d in joined))
        self.ps = [int(d.p * self.lp) for d in sys.offsets]
        self.qs = [int(d.q * self.lq) for d in sys.offsets]
        #: (i, j, dP, dQ) for every symbol pair, in (i, j) order
        self.steps = [
            (i, j, m * (self.ps[j - 1] - self.ps[i - 1]), m * (self.qs[j - 1] - self.qs[i - 1]))
            for i in sys.symbols
            for j in sys.symbols
        ]

    def step(self, i: int, j: int) -> tuple[int, int]:
        """The integer step (dP, dQ) of appending symbols (i, j)."""
        n = len(self.ps)
        for symbol in (i, j):
            if not 1 <= symbol <= n:
                raise ValueError(f"symbol {symbol} out of range 1..{n}")
        _, _, dp, dq = self.steps[(i - 1) * n + j - 1]
        return dp, dq

    def form(self, point: tuple[int, int]) -> AffineExpr:
        """The exact displacement a lattice point stands for."""
        return AffineExpr(Fraction(point[0], self.lp), Fraction(point[1], self.lq))

    def point(self, form: AffineExpr) -> tuple[int, int] | None:
        """The lattice point standing for ``form``, or None when it is off the lattice."""
        p, q = form.p, form.q
        if self.lp % p.denominator or self.lq % q.denominator:
            return None
        return (p.numerator * (self.lp // p.denominator), q.numerator * (self.lq // q.denominator))

    def within(
        self, pt: Param, point: tuple[int, int], bound: Fraction, strict: bool = True
    ) -> bool:
        """|v| < bound at the point for the lattice point v, or |v| <= bound when not strict.

        The two tests are v + bound > 0 and bound - v > 0.  Both are
        first decided on the integer ends of the window the point holds,
        read once (``_inside_at_ends``), as the child cache's screen
        decides them; the window decides both or neither, since a test
        at most 0 at both ends leaves the other above 0 there.  Only
        where the window straddles, or none is held, are they integer
        sign queries over the denominator Lp times that of the bound, in
        that order.
        """
        (P, Q), n, d = point, bound.numerator, bound.denominator
        lp, lq = self.lp, self.lq
        window = pt.held_ends()
        if window is not None:
            _, lo_num, lo_den, hi_num, hi_den = window
            inside = _inside_at_ends(
                d * (P * lq * lo_den + Q * lp * lo_num), d * (P * lq * hi_den + Q * lp * hi_num),
                n * lp * lq * lo_den, n * lp * lq * hi_den, strict,
            )
            if inside is not None:
                return inside
        least = 1 if strict else 0
        return (
            pt.sign_lattice(P * d + n * lp, lp * d, Q, lq) >= least
            and pt.sign_lattice(n * lp - P * d, lp * d, -Q, lq) >= least
        )


#: The zero displacement as a lattice point.
_ZERO_STATE = (0, 0)
#: Each symbol as the one-byte string a word appends.
_SYMBOL = [bytes((s,)) for s in range(256)]


class _Node:
    """An in-bound point of the child cache: its in-bound children (i, j, point,
    node) in (i, j) order, found over the first ``scanned`` of the lattice's steps,
    and its displacement's value id and exact form, None until first asked
    (``_PointMemo.value``)."""

    __slots__ = ("children", "scanned", "ident", "form")

    def __init__(self, ident: int | None = None, form: AffineExpr | None = None):
        self.children, self.scanned = [], 0
        self.ident, self.form = ident, form


def _inside_at_ends(g_lo: int, g_hi: int, t_lo: int, t_hi: int, strict: bool) -> bool | None:
    """|v| < t at the point (|v| <= t when not strict), read off a window's ends.

    ``g_*`` is the displacement v and ``t_*`` the bound t at a window end,
    on one positive scale per end.  Both tests t - v >= 0 and t + v >= 0
    hold at the point when they hold at both ends, and fail when one is
    at most 0 at both ends: v is affine in a, and the point lies inside
    the window, or is its one value.  A test that holds with equality at
    both ends holds with equality at the point.  None when the window
    does not decide, the root of a test falling inside it.
    """
    closed = -t_lo <= g_lo <= t_lo and -t_hi <= g_hi <= t_hi
    beyond = g_lo >= t_lo and g_hi >= t_hi or g_lo <= -t_lo and g_hi <= -t_hi
    if closed and beyond:
        return not strict  # |v| = t
    return True if closed else False if beyond else None


class _PointMemo(dict):
    """The child cache of the displacement recursion at one parameter point.

    Maps each lattice point (P, Q) to None when its displacement lies
    outside the bound, else to its node, decided once; ``_node`` builds
    the node from the point alone, whichever test put it in bound.
    ``children`` scans a node's steps on from where the last call
    stopped, so no point is expanded twice.  Value ids are small ints,
    equal exactly when the canonical keys are equal; ``keys[id]`` gives
    the key back.  Only decided verdicts are stored: a point whose sign
    test raised ``Undecided`` is tested again when it comes up again.

    A child is first tested on the window the parameter point holds
    (``Param.held_ends``), read once per scan: the recursion evaluated
    at the window's two integer ends, the parent's value there times m
    plus the step's end terms, gives the child's, and integer
    comparisons with the bound's ends put it in bound, out of bound or
    straddling (``_inside_at_ends``).  Only a straddling child takes the
    exact test, ``DisplacementLattice.within``.  A child put out of
    bound on the window is not stored, since meeting it again costs the
    same few comparisons.  A point that holds no window within its
    budget (None) sends every child to the exact test.  The windows nest
    and the exact test tries the held window first, so both give one
    verdict, and the screen reads no window that the exact test would
    not read.
    """

    def __init__(self, lattice: DisplacementLattice, pt: Param, bound: Fraction, strict: bool):
        super().__init__()
        self.lattice = lattice
        self.pt = pt
        self.bound = bound
        self.strict = strict
        self.keys: list = []
        self._ids: dict = {}
        #: the held window the screen is built for, and the screen: the
        #: bound's value at its ends, the coefficients of P and Q in a
        #: point's value at its ends, and each step's end terms
        self._window = None
        self._limits = self._coef = self._terms = None

    def value_id(self, form: AffineExpr) -> int:
        key = self.pt.canonical_key(form)
        ident = self._ids.get(key)
        if ident is None:
            ident = self._ids[key] = len(self.keys)
            self.keys.append(key)
        return ident

    def _node(self, point: tuple[int, int]) -> _Node:
        """An in-bound point's node, built from the point alone; subclasses
        keep what their search needs."""
        form = self.lattice.form(point)
        return _Node(self.value_id(form), form)

    def value(self, point: tuple[int, int], node: _Node) -> int:
        """An in-bound point's value id; a node built without one gets it,
        and its form, when first asked."""
        if node.ident is None:
            node.form = self.lattice.form(point)
            node.ident = self.value_id(node.form)
        return node.ident

    def __missing__(self, point: tuple[int, int]):
        inside = self.lattice.within(self.pt, point, self.bound, self.strict)
        node = self[point] = self._node(point) if inside else None
        return node

    def _hold(self, window: tuple[int, int, int, int, int]) -> None:
        """Build the screen for a held window.

        At a window end x = num/den the lattice point (P, Q) stands for
        v(x) = (P*Lq*den + Q*Lp*num) / (Lp*Lq*den), and |v| against the
        bound n/d compares d times that numerator with n*Lp*Lq*den.
        """
        _, lo_num, lo_den, hi_num, hi_den = window
        lattice, n, d = self.lattice, self.bound.numerator, self.bound.denominator
        lp, lq = lattice.lp, lattice.lq
        self._coef = cp_lo, cq_lo, cp_hi, cq_hi = (
            d * lq * lo_den, d * lp * lo_num, d * lq * hi_den, d * lp * hi_num
        )
        self._terms = [
            (dp * cp_lo + dq * cq_lo, dp * cp_hi + dq * cq_hi) for _, _, dp, dq in lattice.steps
        ]
        self._limits = (n * lp * lq * lo_den, n * lp * lq * hi_den)
        self._window = window

    def children(self, point: tuple[int, int], upto: int | None = None, need: int | None = None):
        """The point's children, scanned through step ``upto`` or until ``need`` are found.

        A step counts as scanned once its child is decided, so an exact
        test that raises ``Undecided`` leaves the scan at its step.
        """
        node = self[point]
        found, steps = node.children, self.lattice.steps
        stop = len(steps) if upto is None else upto
        need = stop if need is None else need
        if node.scanned >= stop or len(found) >= need:
            return found
        m, (P, Q), strict = self.lattice.m, point, self.strict
        window = self.pt.held_ends()
        if window is not None:
            if window is not self._window:
                self._hold(window)
            terms, (t_lo, t_hi) = self._terms, self._limits
            cp_lo, cq_lo, cp_hi, cq_hi = self._coef
            a_lo, a_hi = m * (P * cp_lo + Q * cq_lo), m * (P * cp_hi + Q * cq_hi)
        while node.scanned < stop and len(found) < need:
            k = node.scanned
            i, j, dp, dq = steps[k]
            inside = None
            if window is not None:
                e_lo, e_hi = terms[k]
                g_lo, g_hi = a_lo + e_lo, a_hi + e_hi
                inside = _inside_at_ends(g_lo, g_hi, t_lo, t_hi, strict)
                if inside is False:
                    node.scanned = k + 1
                    continue
            child = (m * P + dp, m * Q + dq)
            if inside is None:
                child_node = self[child]
            else:
                # a cached verdict agrees with the window's, so None here is a miss
                child_node = self.get(child)
                if child_node is None:
                    child_node = self[child] = self._node(child)
            node.scanned = k + 1
            if child_node is not None:
                found.append((i, j, child, child_node))
        return found


#: A neighbourhood type: canonically ordered displacements, always holding
#: zero (a word neighbours itself), all strictly inside (-1, 1) at the point.
NeighborhoodType = tuple[AffineExpr, ...]


@dataclass(frozen=True)
class Displacement:
    """A normalized displacement with one witnessing word pair."""

    value: AffineExpr
    witness: tuple[Word, Word]


def _search(memo: _PointMemo, max_level: int):
    """Yield each level's in-bound displacements, levels 1..max_level, as they are found.

    A level comes as (level, new): the level is {value id: (sigma, tau,
    (P, Q), node)} in discovery order, where parents are expanded in
    witness order, each with its children in (i, j) order, and a value
    keeps the first pair that reaches it; ``node.form`` is the value.
    The words sigma and tau are bytes, one byte per symbol.  Prefixing
    one symbol to both words keeps a displacement, so each level holds
    every value of the levels before it, and ``new``, the range of ids
    the level assigns, is exactly its new values in discovery order.  A
    bound test that stays undecided raises ``Undecided`` naming the
    level.

    The next level's parents are this level's entries, sorted as they
    are.  A parent whose node has scanned every step gives its children
    straight off the node; only the others, the lattice points first
    reached at the level before, go through ``_PointMemo.children``, so
    every bound test comes at the same place in the same order.  Where
    the levels stop growing, a level costs a walk over its entries and
    no exact arithmetic.

    A reader whose own test of a level stays undecided hands that
    ``Undecided`` back with ``throw``.  The search then yields no more
    levels but runs the bound tests of the rest, raises the first that
    stays undecided, and otherwise raises the reader's; so a request
    reports the error it would report had every bound test run first,
    however its levels are read.
    """
    symbol = _SYMBOL
    # zero's node is the memo's to build, inside level 1; a fresh node,
    # scanned through no step, sends the search there
    current = [(b"", b"", _ZERO_STATE, _Node())]
    scanned = len(memo.lattice.steps)
    held = None  # the reader's Undecided, raised once every bound test has run
    for level in range(1, max_level + 1):
        start, nxt = len(memo.keys), {}
        try:
            for sigma, tau, point, parent in current:
                found = parent.children if parent.scanned == scanned else memo.children(point)
                for i, j, child, node in found:
                    if node.ident not in nxt:
                        nxt[node.ident] = (sigma + symbol[i], tau + symbol[j], child, node)
        except Undecided as exc:
            exc.level = level
            raise
        if held is None:
            try:
                yield nxt, range(start, len(memo.keys))
            except Undecided as exc:
                held = exc
        current = sorted(nxt.values())  # (sigma, tau) names an entry, so no node is compared
    if held is not None:
        raise held


def displacement_levels(
    sys: IfsSystem,
    pt: Param,
    max_level: int,
    bound: Fraction = Fraction(1),
    strict: bool = True,
) -> list[dict]:
    """Per-level displacement sets (levels 1..max_level) within the bound.

    Deduplication is by canonical value key, so the result is exactly
    the set of values {a_{sigma,tau} : |a| < bound}, each with the first
    witness in lexicographic BFS order.  The prune is sound for any
    bound >= 1: a parent outside it only produces children outside it.
    """
    if bound < 1:
        raise ValueError("prune bound must be >= 1 for a complete search")
    memo = _PointMemo(DisplacementLattice(sys), pt, bound, strict)
    return [
        {
            memo.keys[ident]: Displacement(node.form, (Word(sigma), Word(tau)))
            for ident, (sigma, tau, _, node) in level.items()
        }
        for level, _ in _search(memo, max_level)
    ]


def _decimal_at(pt: Param, value: AffineExpr, level: int) -> str:
    """The display decimal of a report entry; one that stays undecided names ``level``."""
    try:
        return pt.eval_decimal(value, DISPLAY_DIGITS)
    except Undecided as exc:
        exc.level = level
        raise


@dataclass(frozen=True)
class WspLevelMinimum:
    level: int
    displacement: Displacement
    abs_value: AffineExpr


@dataclass(frozen=True)
class WspResult:
    max_level: int
    minimum: WspLevelMinimum | None
    per_level: tuple[WspLevelMinimum | None, ...]

    def to_json(self, pt: Param) -> dict:
        """The report; the entries share a few minima, so each |v| gets its decimal once."""
        decimals: dict[AffineExpr, str] = {}

        def entry(item):
            if item is None:
                return None
            if item.abs_value not in decimals:
                decimals[item.abs_value] = _decimal_at(pt, item.abs_value, item.level)
            return {
                "level": item.level,
                "abs_value": item.abs_value.to_json(),
                "abs_decimal": decimals[item.abs_value],
                "witness": [str(item.displacement.witness[0]), str(item.displacement.witness[1])],
            }

        return {
            "max_level": self.max_level,
            "minimum": entry(self.minimum),
            "per_level": [entry(x) for x in self.per_level],
        }


def wsp_min_displacement(sys: IfsSystem, pt: Param, max_level: int) -> WspResult:
    """Smallest nonzero |displacement| over levels 1..max_level.

    Only values inside (-1, 1) can compete (anything at or beyond 1 is
    never smaller than them once any in-bound value exists); if a level
    has no nonzero in-bound value its per-level entry is None.
    Prefixing one symbol to both words keeps a displacement, so every
    level holds all values of the levels before it, and a level's
    smallest |v| is a running minimum: each value is compared once, at
    the level where it first appears, against the smallest |v| so far,
    and the values tied at that magnitude (v and -v) are kept, each
    with the sign asked when it first appeared.  Magnitudes and their
    comparisons are sign queries on integer lattice points, asked only
    of new values, so a level that adds none asks no sign.  Within a
    level the tied entry with the first witness wins, and its |v| is
    its own lattice point, negated when the value's kept sign is
    negative: at a rational point one value has many lattice points,
    and equal values have equal signs.  Each reported |v| point is
    built as a form once; only the reported minima are built as words.
    Each level is read once, as the search finds it, and then dropped;
    a comparison that stays undecided names its level and is handed
    back to the search, which runs the remaining bound tests first
    (``_search``).
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    lattice = DisplacementLattice(sys)
    lp, lq, sign = lattice.lp, lattice.lq, pt.sign_lattice
    memo = _PointMemo(lattice, pt, Fraction(1), strict=True)
    memo.value_id(AFFINE_ZERO)
    least = None  # the smallest |v| so far, as a lattice point
    tied: dict[int, bool] = {}  # the value ids at that magnitude: is the value negative
    best_level = 0  # where the smallest |v| of all first appears
    forms: dict[tuple[int, int], AffineExpr] = {}  # each reported |v| point's form
    per_level: list[WspLevelMinimum | None] = []
    levels = _search(memo, max_level)
    for index, (level, new) in enumerate(levels, start=1):
        try:
            for ident in new:
                P, Q = level[ident][2]
                negative = sign(P, lp, Q, lq) < 0
                if negative:
                    P, Q = -P, -Q
                order = -1 if least is None else sign(P - least[0], lp, Q - least[1], lq)
                if order < 0:
                    least, tied, best_level = (P, Q), {ident: negative}, index
                elif order == 0:
                    tied[ident] = negative
        except Undecided as exc:
            exc.level = index
            levels.throw(exc)  # raises, after the remaining bound tests
        if not tied:
            per_level.append(None)
            continue
        # equal ids are equal values, so this level's point has the sign kept for the id
        ident = min(tied, key=lambda i: level[i][:2])
        sigma, tau, (P, Q), node = level[ident]
        point = (-P, -Q) if tied[ident] else (P, Q)
        abs_value = forms.get(point)
        if abs_value is None:
            abs_value = forms[point] = lattice.form(point)
        per_level.append(WspLevelMinimum(
            index, Displacement(node.form, (Word(sigma), Word(tau))), abs_value
        ))
    minimum = per_level[best_level - 1] if best_level else None
    return WspResult(max_level, minimum, tuple(per_level))


class TypeAutomaton:
    """Neighbourhood-type automaton over displacement sets.

    A state is the canonically ordered set of in-(-1,1) displacements a
    word can reach; the successor under symbol i is every member's
    in-bound children under (i, j) over all j, from the child cache.
    State identity uses the parameter point's canonical value keys, so
    rational control points collapse displacement expressions by value
    while irrational points compare componentwise.  States are interned
    as small ints by the set of their members' value ids, and a set is
    sorted into canonical order only when it is a new state; each keeps
    the value ids, lattice points and exact forms of the members it was
    first built from, in that order.

    The first ``successor`` call for a state builds its whole row, its
    successor under every symbol, symbol by symbol: a member's children
    of symbol i are one contiguous run of its (i, j)-ordered list,
    scanned through symbol i's steps, so bound tests and new states
    come in the order of one call per symbol in turn.  Later calls read
    the row.  The automaton builds its own child cache, or shares the
    one it is given (``memo``, with the bound 1, strict), whose nodes
    may hold what another search keeps and get their value id and form
    only when the automaton first reads them.
    """

    def __init__(self, sys: IfsSystem, pt: Param, memo: _PointMemo | None = None):
        self.sys = sys
        self.pt = pt
        if memo is None:
            memo = _PointMemo(DisplacementLattice(sys), pt, Fraction(1), strict=True)
        self._memo = memo
        self._lp, self._lq = memo.lattice.lp, memo.lattice.lq
        self._states: dict[frozenset[int], int] = {}
        self._value_ids: list[tuple[int, ...]] = []
        self._members: list[tuple[tuple[int, int], ...]] = []
        self._types: list[tuple[AffineExpr, ...]] = []
        self._rows: list[tuple[int, ...] | None] = []
        zero = memo.value_id(AFFINE_ZERO)
        self.root_key = self._intern({zero: (_ZERO_STATE, AFFINE_ZERO)})

    def _intern(self, found: dict) -> int:
        """The state of {value id: (lattice point, form)}.

        Distinct ids are distinct values, so the set of ids names the
        state.  A new state's members are put in canonical order, by the
        sign of the difference of their lattice points.
        """
        key = frozenset(found)
        state = self._states.get(key)
        if state is None:
            sign, lp, lq = self.pt.sign_lattice, self._lp, self._lq

            def order(x, y):
                (xp, xq), (yp, yq) = x[1][0], y[1][0]
                return sign(xp - yp, lp, xq - yq, lq)

            ordered = sorted(found.items(), key=cmp_to_key(order))
            state = self._states[key] = len(self._types)
            self._value_ids.append(tuple(ident for ident, _ in ordered))
            self._members.append(tuple(point for _, (point, _) in ordered))
            self._types.append(tuple(form for _, (_, form) in ordered))
            self._rows.append(None)
        return state

    def type_of(self, key: int) -> tuple[AffineExpr, ...]:
        return self._types[key]

    def value_ids(self, key: int) -> tuple[int, ...]:
        """The members' value ids, in the order of ``type_of``; equal ids, equal values."""
        return self._value_ids[key]

    def successor(self, key: int, symbol: int) -> int:
        """The state after ``symbol``; the first call for a state builds its row."""
        index = self.sys.symbols.index(symbol)
        row = self._rows[key]
        if row is None:
            row = self._rows[key] = self._row(key)
        return row[index]

    def _row(self, key: int) -> tuple[int, ...]:
        """The successors of a state under every symbol, in symbol order.

        An ``Undecided`` leaves no row: asked again, the scan resumes at
        the step that raised, and the states built before it are found
        again.
        """
        memo, n = self._memo, self.sys.alphabet_size
        points = self._members[key]
        members = [memo[point] for point in points]
        read = [0] * len(members)  # each member's children read so far
        row = []
        for symbol in self.sys.symbols:
            # symbol i's steps are the i-th run of n in (i, j) order
            upto, found = symbol * n, {}
            for k, member in enumerate(members):
                if member.scanned < upto:
                    memo.children(points[k], upto)
                for i, _, child, node in member.children[read[k]:]:
                    if i != symbol:
                        break
                    read[k] += 1
                    ident = node.ident
                    if ident is None:
                        ident = memo.value(child, node)
                    if ident not in found:
                        found[ident] = (child, node.form)
            row.append(self._intern(found))
        return tuple(row)


@dataclass(frozen=True)
class CensusLevel:
    """One census level as parallel columns, one row per entry in witness order.

    ``type_column`` holds each entry's neighbourhood type, ``word_counts``
    how many words have it, and ``witnesses`` its lex-first word as
    symbol bytes, one byte per symbol.
    """

    level: int
    type_column: tuple[NeighborhoodType, ...]
    word_counts: tuple[int, ...]
    witnesses: tuple[bytes, ...]

    @property
    def distinct_count(self) -> int:
        return len(self.type_column)


@dataclass(frozen=True)
class CensusResult:
    open_set: str
    levels: tuple[CensusLevel, ...]
    caveats: tuple[str, ...] = ()

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(lv.distinct_count for lv in self.levels)

    def to_json(self, pt: Param) -> dict:
        """The report: a value table, a type table, and each level as columns of indices.

        ``values`` holds each distinct displacement form once, as
        ``{"value", "decimal"}``, in order of first appearance, and
        ``types`` each distinct type once, as the indices of its values
        in the type's canonical order.  A level's ``types``,
        ``word_counts`` and ``witnesses`` are parallel columns, one row
        per entry in witness order: the entry's index into ``types``,
        how many words have it, and its lex-first witness.

        A census builds one type tuple per automaton state, so a type
        is looked up by the id of its tuple, and only a type met for
        the first time has its forms looked up (and a new form its
        decimal evaluated).
        """
        values: list[dict] = []
        value_index: dict[AffineExpr, int] = {}
        types: list[list[int]] = []
        type_index: dict[tuple[int, ...], int] = {}
        by_id: dict[int, int] = {}

        def type_of(displacements: NeighborhoodType) -> int:
            index = by_id.get(id(displacements))
            if index is not None:
                return index
            indices = []
            for v in displacements:
                i = value_index.get(v)
                if i is None:
                    i = value_index[v] = len(values)
                    values.append(
                        {"value": v.to_json(), "decimal": pt.eval_decimal(v, DISPLAY_DIGITS)}
                    )
                indices.append(i)
            key = tuple(indices)
            index = type_index.get(key)
            if index is None:
                index = type_index[key] = len(types)
                types.append(indices)
            by_id[id(displacements)] = index
            return index

        levels = [
            {
                "level": lv.level,
                "distinct_types": len(lv.type_column),
                "types": list(map(type_of, lv.type_column)),
                "word_counts": list(lv.word_counts),
                "witnesses": word_texts(lv.witnesses),
            }
            for lv in self.levels
        ]
        return {
            "open_set": self.open_set,
            "counts": list(self.counts),
            "values": values,
            "types": types,
            "levels": levels,
            "caveats": list(self.caveats),
        }


class ClassSplit(Exception):
    """A census state's successors fall in other classes than its class's do."""


def census_states(automaton: TypeAutomaton, max_level: int, class_of=None):
    """Per-level census of the automaton's words: word counts and smallest witnesses.

    Yields (level, automaton, entries), where ``entries`` maps each class
    present at the level to [word count, smallest witness, the witness's
    state], the witness as symbol bytes.  ``class_of(state, level)``
    names a state's class; it is asked once per state, at the first
    level from 1 that holds the state.  Without it, each state is its
    own class.

    Each dict is in strictly increasing witness order: the entries are
    stepped in that order and each appends its symbols in ascending
    order, so a class is first reached through its smallest witness.
    Only the frontier, the states first present at the level before,
    has its row built, since a state's successors are all present one
    level after it is; stepping the frontier in witness order meets the
    new states in witness order too, so every row and every class is
    asked at the same level and in the same order as if every state
    were stepped.  A state's row mapped to classes must be its class's
    row: while it is, the words of a class go to one class under each
    symbol, so a class steps as one entry, along with the state of its
    smallest witness.  A state whose row differs raises ``ClassSplit``;
    a sign query that stays undecided raises ``Undecided`` naming the
    level.
    """
    symbols, root = automaton.sys.symbols, automaton.root_key
    tails = [bytes((i,)) for i in symbols]
    classes: dict[int, object] = {}  # state -> its class
    class_rows: dict = {}  # class -> the classes its words go to
    rows: dict[int, tuple] = {}  # state -> (child's class, child, appended byte) per symbol
    frontier = [root]
    current = {root: [1, b"", root]}
    for level in range(1, max_level + 1):
        if frontier:
            try:
                built = [(key, [automaton.successor(key, i) for i in symbols]) for key in frontier]
            except Undecided as exc:
                exc.level = level
                raise
            reached = dict.fromkeys(child for _, children in built for child in children)
            fresh = [key for key in reached if key not in classes]
            for key in fresh:
                classes[key] = key if class_of is None else class_of(key, level)
            for key, children in built:
                rows[key] = tuple(zip(map(classes.__getitem__, children), children, tails))
            # a state is checked once its row and its class are known (the
            # root's class is asked at the first level from 1 that holds it);
            # with each state its own class, every check passes
            if class_of is not None:
                for key in (*frontier, *fresh):
                    if key in rows and key in classes:
                        stepped = tuple(cls for cls, _, _ in rows[key])
                        if class_rows.setdefault(classes[key], stepped) != stepped:
                            raise ClassSplit(f"state {key} leaves its class's row at level {level}")
            # the root is present at level 0 and its row built at level 1
            frontier = [key for key in fresh if key != root]
        nxt: dict = {}
        for count, witness, key in current.values():
            for cls, child, tail in rows[key]:
                entry = nxt.get(cls)
                if entry is None:
                    nxt[cls] = [count, witness + tail, child]
                else:
                    entry[0] += count
        current = nxt
        yield level, automaton, current


def convex_type_census(sys: IfsSystem, pt: Param, max_level: int) -> CensusResult:
    """Distinct neighbourhood types per level for the open set (0, 1).

    With unit hull and equal cylinder lengths, two same-level words are
    neighbours exactly when their displacement lies in (-1, 1), so the
    census never needs the attractor itself.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    levels = []
    for level, automaton, states in census_states(TypeAutomaton(sys, pt), max_level):
        counts, witnesses, keys = zip(*states.values())
        levels.append(CensusLevel(level, tuple(map(automaton.type_of, keys)), counts, witnesses))
    return CensusResult("convex (0,1)", tuple(levels))


@dataclass(frozen=True)
class OverlapPair:
    left: Word
    right: Word
    level: int


class _PairColumns(NamedTuple):
    """Word pairs in report order as three columns: the symbol bytes of
    each pair's sigma and tau, and one int each (a level or an endpoint
    delta)."""

    sigma: list
    tau: list
    value: list

    def records(self, key: str) -> list[dict]:
        """The report records {"sigma", "tau", key}, one ``word_texts`` per word column."""
        return [
            {"sigma": s, "tau": t, key: v}
            for s, t, v in zip(word_texts(self.sigma), word_texts(self.tau), self.value)
        ]


class _HeldPairs:
    """A frozen dataclass whose word-pair fields may be held as columns.

    ``_held`` makes an instance that holds named fields as
    ``_PairColumns`` instead of tuples, kept in ``_columns``; such a
    field is built (by ``_row``) on its first read and kept, so a report
    written from ``_columns`` builds no object per pair.  Values, types
    and equality are those of an instance built with the tuples.
    """

    #: the type of a pair field's items, called with (Word, Word, int); None keeps the tuple
    _row = None

    def __getattr__(self, name: str):
        held = vars(self).get("_columns", {})
        if name not in held:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        sigma, tau, value = held[name]
        rows = zip(map(Word, sigma), map(Word, tau), value)
        rows = tuple(rows if self._row is None else starmap(self._row, rows))
        object.__setattr__(self, name, rows)
        return rows

    @classmethod
    def _held(cls, columns: dict[str, _PairColumns], **fields):
        self = object.__new__(cls)
        for name, value in {**fields, "_columns": columns}.items():
            object.__setattr__(self, name, value)
        return self


@dataclass(frozen=True)
class OverlapScanResult(_HeldPairs):
    """The pairs of ``exact_overlap_scan``, primitive and derived, in report order.

    The scan's own result holds both fields as symbol-byte columns
    (``_HeldPairs``): ``to_json`` writes them with one ``word_texts``
    call per word column, and the ``OverlapPair`` tuples are built on
    first read.  A result built with tuples is equal to one built from
    the same pairs as columns; ``to_json`` reads the columns, so it
    writes only the scan's own result.
    """

    max_level: int
    overlaps: tuple[OverlapPair, ...]
    derived: tuple[OverlapPair, ...]

    _row = OverlapPair

    def to_json(self) -> dict:
        return {
            "max_level": self.max_level,
            "overlaps": self._columns["overlaps"].records("level"),
            "derived": self._columns["derived"].records("level"),
        }


def _return_walks(sys: IfsSystem) -> tuple[dict, dict]:
    """The finite displacement graph of walks that can come back to 0.

    Each component (P and Q) of a lattice point follows
    v -> m*v + (the integer step of (i, j)) on its own, see
    ``DisplacementLattice``.  With D the largest step of a component,
    (m - 1)*|v| > D forces |v'| > |v|, so a walk that leaves that box
    never returns to 0 and the reachable in-box states are finitely
    many.  Returns (edges, distance): for every state that can still
    return, its steps (i, j, next state) into returning states, and the
    fewest steps it needs to reach 0.  No parameter point is involved:
    the components are exact.
    """
    lattice = DisplacementLattice(sys)
    m, steps = lattice.m, lattice.steps
    p_limit = m * (max(lattice.ps) - min(lattice.ps))
    q_limit = m * (max(lattice.qs) - min(lattice.qs))
    graph: dict = {_ZERO_STATE: []}
    pending = [_ZERO_STATE]
    while pending:
        vp, vq = state = pending.pop()
        for i, j, dp, dq in steps:
            nxt = (m * vp + dp, m * vq + dq)
            if (m - 1) * abs(nxt[0]) > p_limit or (m - 1) * abs(nxt[1]) > q_limit:
                continue
            graph[state].append((i, j, nxt))
            if nxt not in graph:
                graph[nxt] = []
                pending.append(nxt)
    # backward search from 0: states that return within r steps
    incoming: dict = {}
    for state, out in graph.items():
        for _, _, nxt in out:
            incoming.setdefault(nxt, []).append(state)
    distance = {_ZERO_STATE: 0}
    frontier = [_ZERO_STATE]
    while frontier:
        layer = []
        for state in frontier:
            for prev in incoming.get(state, ()):
                if prev not in distance:
                    distance[prev] = distance[state] + 1
                    layer.append(prev)
        frontier = layer
    edges = {
        state: [e for e in graph[state] if e[2] in distance] for state in distance
    }
    return edges, distance


def exact_overlap_scan(sys: IfsSystem, max_level: int) -> OverlapScanResult:
    """Word pairs with identically zero displacement, levels 1..max_level.

    Purely symbolic: S_sigma = S_tau exactly when the displacement walk
    of (sigma, tau) ends at 0 componentwise, so the pairs are the closed
    walks 0 -> ... -> 0 on the finite graph of ``_return_walks``, read
    with sigma < tau (i < j at the first difference).  The walks are
    stepped a level at a time, as symbol-byte columns grouped by their
    state, so that each step of a group is one pass over its columns.
    While sigma = tau the pair is a shared prefix: it diverges by an
    (i, j) step with i < j, and it is extended by an (s, s) step only
    while the shortest diverging return still fits in the level budget.
    Once the words differ, a walk is extended only while it can still
    return within the budget.  Since v_k = m^(k-s) * v_s + v(tail), a
    pair factors through a shorter overlap (same map on a prefix pair
    and on the suffix pair) exactly when its walk is at 0 at an interior
    position; such pairs, shared prefixes included, are reported
    separately as derived.  Within a level, pairs are grouped by their
    common map, groups in order of their smallest word, pairs in
    (sigma, tau) order.

    The result holds the pairs as symbol-byte columns and builds its
    ``OverlapPair`` tuples only when they are read (``_HeldPairs``), so
    a report written from it builds no object per pair.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    edges, distance = _return_walks(sys)
    symbol = _SYMBOL
    shortest = min(
        (1 + distance[nxt] for i, j, nxt in edges[_ZERO_STATE] if i < j), default=max_level
    )
    repeats = [symbol[i] for i, j, _ in edges[_ZERO_STATE] if i == j]
    columns = {False: _PairColumns([], [], []), True: _PairColumns([], [], [])}
    shared = [b""]  # the shared prefixes, at state 0

    def step(groups: dict, key, sigmas: list, taus: list, i: int, j: int) -> None:
        held, step_i, step_j = groups.setdefault(key, ([], [])), symbol[i], symbol[j]
        held[0].extend([sigma + step_i for sigma in sigmas])
        held[1].extend([tau + step_j for tau in taus])

    # (state, whether the walk was at 0 at an interior position) -> (sigmas, taus)
    walks: dict = {}
    for level in range(1, max_level + 1):
        if not shared and not any(sigmas for sigmas, _ in walks.values()):
            break  # no walk left to return to 0
        budget = max_level - level
        stepped: dict = {}
        for (state, seen), (sigmas, taus) in walks.items():
            for i, j, nxt in edges[state]:
                if distance[nxt] <= budget:
                    step(stepped, (nxt, seen), sigmas, taus, i, j)
        for i, j, nxt in edges[_ZERO_STATE]:
            if i < j and distance[nxt] <= budget:
                step(stepped, (nxt, level > 1), shared, shared, i, j)
        shared = [p + s for p in shared for s in repeats] if shortest <= budget else []
        # the pairs of this level are the walks back at 0; they go on as derived
        back = {seen: stepped.pop((_ZERO_STATE, seen), ([], [])) for seen in (False, True)}
        stepped[_ZERO_STATE, True] = (back[False][0] + back[True][0], back[False][1] + back[True][1])
        walks = stepped
        # equal maps form cliques: a word's group starts at its smallest partner
        smallest: dict = {}
        for sigmas, taus in back.values():
            for sigma, tau in zip(sigmas, taus):
                if sigma < smallest.get(tau, tau):
                    smallest[tau] = sigma
        # each sort key is (group, sigma, tau) as one string of three equal-length words
        for seen, (sigmas, taus) in back.items():
            keys = sorted(map(b"".join, zip(map(smallest.get, sigmas, sigmas), sigmas, taus)))
            out = columns[seen]
            out.sigma.extend([key[level:2 * level] for key in keys])
            out.tau.extend([key[2 * level:] for key in keys])
            out.value.extend([level] * len(keys))
    return OverlapScanResult._held(
        {"overlaps": columns[False], "derived": columns[True]}, max_level=max_level
    )


@dataclass(frozen=True)
class DistinctnessReport:
    levels: tuple[int, ...]
    scaled_gaps: tuple[AffineExpr, ...]
    collisions: tuple[tuple[int, int], ...]
    undecided: tuple[tuple[int, int], ...]
    warnings: tuple[str, ...]

    @property
    def all_distinct(self) -> bool:
        return not self.collisions and not self.undecided

    def to_json(self, pt: Param) -> dict:
        return {
            "levels": list(self.levels),
            "scaled_gaps": [
                {"level": n, "value": u.to_json(), "decimal": _decimal_at(pt, u, n)}
                for n, u in zip(self.levels, self.scaled_gaps)
            ],
            "all_distinct": self.all_distinct,
            "collisions": [list(c) for c in self.collisions],
            "undecided": [list(c) for c in self.undecided],
            "warnings": list(self.warnings),
        }


def distinctness_check(run, pt: Param) -> DistinctnessReport:
    """Pairwise distinctness of the normalized gaps m^n * gap_n.

    A collision between two levels would certify that the option
    choices repeat with a fixed period from those levels on, i.e. the
    driving sequence is eventually periodic.  Where values have exact
    identities -- a flagged point, whose distinct componentwise forms
    are distinct numbers, or a rational one, which evaluates them --
    the gaps are grouped by ``canonical_key`` and every pair within a
    group collides.  Without that flag the sign oracle must separate
    each pair, and pairs it cannot separate within budget are reported
    as undecided together with the candidate collision value.
    """
    states = run.states
    levels = tuple(s.level for s in states)
    gaps = tuple(s.scaled_gap for s in states)
    if pt.irrationality_assumed or isinstance(pt, RationalParam):
        groups: dict = {}
        for n, u in zip(levels, gaps):
            groups.setdefault(pt.canonical_key(u), []).append(n)
        collisions = sorted(
            (a, b)
            for group in groups.values()
            for k, a in enumerate(group)
            for b in group[k + 1:]
        )
        return DistinctnessReport(levels, gaps, tuple(collisions), (), run.warnings)
    collisions = []
    undecided = []
    for a in range(len(gaps)):
        for b in range(a + 1, len(gaps)):
            try:
                if pt.sign(gaps[a] - gaps[b]) == 0:
                    collisions.append((levels[a], levels[b]))
            except Undecided:
                undecided.append((levels[a], levels[b]))
    return DistinctnessReport(levels, gaps, tuple(collisions), tuple(undecided), run.warnings)


@dataclass(frozen=True)
class EndpointBucket:
    """Verdict for one family of endpoint differences."""

    passed: bool
    min_abs: AffineExpr | None
    min_witness: tuple[Word, Word, int] | None  # words and endpoint delta z - w
    violations: int

    def to_json(self, pt: Param) -> dict:
        out = {"passed": self.passed, "violations": self.violations}
        if self.min_abs is not None:
            out["min_abs"] = self.min_abs.to_json()
            out["min_decimal"] = _decimal_at(pt, self.min_abs, len(self.min_witness[0]))
            out["witness"] = {
                "sigma": str(self.min_witness[0]),
                "tau": str(self.min_witness[1]),
                "endpoint_delta": self.min_witness[2],
            }
        return out


@dataclass(frozen=True)
class EndpointReport(_HeldPairs):
    """The verdict of ``endpoint_separation``.

    ``equal_pairs`` lists (sigma, tau, endpoint delta) for every pick of
    value exactly 0: the overlap scan's pairs with delta 0, then the
    touching mixed picks level by level.  ``endpoint_separation`` hands
    them over as symbol-byte columns (``_HeldPairs``), which ``to_json``
    writes directly (so it writes only a report that function made); the
    tuple of ``Word`` pairs is built on first read.
    """

    max_level: int
    threshold: Fraction
    corresponding: EndpointBucket
    mixed: EndpointBucket
    equal_pairs: tuple[tuple[Word, Word, int], ...]
    include_mixed_in_verdict: bool

    @property
    def passed(self) -> bool:
        if self.include_mixed_in_verdict:
            return self.corresponding.passed and self.mixed.passed
        return self.corresponding.passed

    def to_json(self, pt: Param) -> dict:
        return {
            "max_level": self.max_level,
            "threshold": rational_to_str(self.threshold),
            "passed": self.passed,
            "corresponding_endpoints": self.corresponding.to_json(pt),
            "mixed_endpoints": self.mixed.to_json(pt),
            "mixed_in_verdict": self.include_mixed_in_verdict,
            "equal_pairs": self._columns["equal_pairs"].records("endpoint_delta"),
            "notes": [
                "differences are scaled by m^level before comparison with the threshold",
                "mixed-endpoint gaps measure cylinder overlap widths and are reported "
                "separately from the verdict unless requested",
            ],
        }


def endpoint_separation(
    sys: IfsSystem,
    pt: Param,
    max_level: int,
    threshold,
    include_mixed_in_verdict: bool = False,
) -> EndpointReport:
    """Scaled endpoint gaps over levels 1..max_level versus a threshold.

    For words sigma, tau of level k and endpoint picks z, w in {0, 1},
    m^k (S_sigma(z) - S_tau(w)) = v + (z - w) with v the displacement of
    (tau, sigma).  Every such quantity must be exactly zero or exceed
    the threshold in magnitude.  Corresponding picks (z = w) reduce to
    the displacements themselves; mixed picks measure how far cylinder
    interiors overlap and are tracked as their own bucket.  A pick whose
    value is exactly 0 (its sign is 0) is an equal pair, not a bucket
    entry.  No word pair is enumerated: the gaps come from the
    displacement frontier pruned at 1 + threshold, which is closed under
    extension, and the pairs with identical maps from the closed walks
    of ``exact_overlap_scan``.

    Each level holds every value of the levels before it, so each value
    is tested once, at the level where it first appears, with that
    level's first witness: its sign, its comparison with the bucket's
    smallest |value| so far and its threshold test.  A value that
    violates counts once for each level from its first to ``max_level``,
    and a touching value lists an equal pair at each of them.  Each
    level is read once, as the search finds it, and then dropped: its new
    values' signs are asked and its touching values' equal pairs listed
    in that pass, and only each value's bucket entry is kept for the
    comparisons and threshold tests that follow.  A test of an entry
    that stays undecided raises ``Undecided`` naming the entry's level
    and its word pair, in its report witness's order; a sign asked
    during the pass is handed back to the search, which runs the
    remaining bound tests first (``_search``).
    """
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    lattice = DisplacementLattice(sys)
    lp, lq = lattice.lp, lattice.lq
    memo = _PointMemo(lattice, pt, 1 + threshold, strict=False)
    # identical endpoints come from identical maps (zero displacement) or
    # from cylinders touching end to end (a mixed pick of value exactly 0)
    scan = exact_overlap_scan(sys, max_level)
    found, extended = scan._columns["overlaps"], scan._columns["derived"]
    equal = _PairColumns(found.sigma + extended.sigma, found.tau + extended.tau,
                         [0] * (len(found.value) + len(extended.value)))
    # (|value| as a lattice point, sigma, tau, delta) for corresponding
    # and for mixed picks, each value's at its first level; the value of
    # (sigma, tau) shifted by delta
    same, mixed = [], []
    touching: dict[int, int] = {}  # value id -> delta of its mixed pick of value 0
    levels = _search(memo, max_level)
    for level, new in levels:
        for ident in new:
            sigma, tau, (P, Q), _ = level[ident]
            for delta in (-1, 0, 1):
                shifted = P + delta * lp
                try:
                    sign = pt.sign_lattice(shifted, lp, Q, lq)
                except Undecided as exc:
                    exc.level, exc.words = len(sigma), (Word(tau), Word(sigma))
                    levels.throw(exc)  # raises, after the remaining bound tests
                if sign == 0:
                    if delta != 0:
                        touching[ident] = delta
                    continue
                point = (shifted, Q) if sign > 0 else (-shifted, -Q)
                (mixed if delta else same).append((point, sigma, tau, delta))
        if touching:  # listed at every level, with that level's words
            for ident, (sigma, tau, _, _) in level.items():
                if ident in touching:
                    equal.sigma.append(tau)
                    equal.tau.append(sigma)
                    equal.value.append(touching[ident])

    # |value| <= threshold is the sign of |value| - n/d over Lp*d, as in ``within``
    n, d = threshold.numerator, threshold.denominator

    def bucket(entries) -> EndpointBucket:
        least, violations = None, 0
        for entry in entries:
            (P, Q), sigma, tau, _ = entry
            try:
                if least is None or pt.sign_lattice(P - least[0][0], lp, Q - least[0][1], lq) < 0:
                    least = entry
                if pt.sign_lattice(P * d - n * lp, lp * d, Q, lq) <= 0:
                    # the value is at every level from its first
                    violations += max_level - len(sigma) + 1
            except Undecided as exc:
                exc.level, exc.words = len(sigma), (Word(tau), Word(sigma))
                raise
        if least is None:
            return EndpointBucket(True, None, None, 0)
        point, sigma, tau, delta = least
        witness = (Word(tau), Word(sigma), delta)
        return EndpointBucket(violations == 0, lattice.form(point), witness, violations)

    return EndpointReport._held(
        {"equal_pairs": equal},
        max_level=max_level,
        threshold=threshold,
        corresponding=bucket(same),
        mixed=bucket(mixed),
        include_mixed_in_verdict=include_mixed_in_verdict,
    )


def _ln_bounds(n: int, terms: int) -> tuple[Fraction, Fraction]:
    """Rigorous rational enclosure of ln(n) via the atanh series."""
    if n < 2:
        raise ValueError("need n >= 2")
    y = Fraction(n - 1, n + 1)
    y2 = y * y
    total = Fraction(0)
    power = y
    for k in range(terms):
        total += power / (2 * k + 1)
        power *= y2
    # remaining tail is positive and below a geometric bound
    tail = power / ((2 * terms + 1) * (1 - y2))
    return 2 * total, 2 * (total + tail)


def osc_dimension(sys: IfsSystem, digits: int = 6) -> str:
    """Similarity dimension log(n)/log(m) as an exactly rounded decimal.

    Meaningful as the attractor dimension only when the system has been
    verified to satisfy the open set condition; the formula itself is
    computed regardless.  Uses rigorous rational log enclosures and
    widens the series until both interval ends round identically.
    """
    from .exact import round_decimal

    n = sys.alphabet_size
    m = sys.ratio_denominator
    if n == 1:
        return round_decimal(Fraction(0), digits)
    if n == m:
        return round_decimal(Fraction(1), digits)
    terms = 8
    while True:
        num_lo, num_hi = _ln_bounds(n, terms)
        den_lo, den_hi = _ln_bounds(m, terms)
        lo = num_lo / den_hi
        hi = num_hi / den_lo
        s_lo = round_decimal(lo, digits)
        s_hi = round_decimal(hi, digits)
        if s_lo == s_hi:
            return s_lo
        terms *= 2
