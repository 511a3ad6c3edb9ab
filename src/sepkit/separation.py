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
``_PointMemo``, decides each distinct lattice point once at the
parameter point (two integer sign queries on (P, Q)) and expands each
in-bound point once.  The displacement search (behind the smallest
displacement and the endpoint check), the convex neighbourhood-type
automaton and the open-set overlap oracle all read their children from
it; the exact overlap scan needs no parameter point at all.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from math import lcm
from operator import itemgetter

from .exact import AFFINE_ZERO, AffineExpr, Param, RationalParam, Undecided, rational_to_str
from .ifs import IfsSystem, Word, word_text

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

        The two tests are v + bound > 0, then bound - v > 0, as integer
        sign queries over the denominator Lp times that of the bound.
        """
        least = 1 if strict else 0
        (P, Q), n, d = point, bound.numerator, bound.denominator
        lp, lq = self.lp * d, self.lq
        return (
            pt.sign_lattice(P * d + n * self.lp, lp, Q, lq) >= least
            and pt.sign_lattice(n * self.lp - P * d, lp, -Q, lq) >= least
        )


#: The zero displacement as a lattice point.
_ZERO_STATE = (0, 0)


class _Node:
    """An in-bound point of the child cache: its in-bound children (i, j, point,
    node) in (i, j) order, found over the first ``scanned`` of the lattice's steps."""

    __slots__ = ("children", "scanned")

    def __init__(self):
        self.children, self.scanned = [], 0


class _Value(_Node):
    """A node with its displacement's value id and exact form."""

    __slots__ = ("ident", "form")

    def __init__(self, ident: int, form: AffineExpr):
        super().__init__()
        self.ident, self.form = ident, form


class _PointMemo(dict):
    """The child cache of the displacement recursion at one parameter point.

    Maps each lattice point (P, Q) to None when its displacement lies
    outside the bound, else to its node (``_node`` builds it), decided
    once.  ``children`` scans a node's steps on from where the last call
    stopped, so no point is expanded twice.  Value ids are small ints,
    equal exactly when the canonical keys are equal; ``keys[id]`` gives
    the key back.  Only decided verdicts are stored: a point whose sign
    test raised ``Undecided`` is tested again when it comes up again.
    """

    def __init__(self, lattice: DisplacementLattice, pt: Param, bound: Fraction, strict: bool):
        super().__init__()
        self.lattice = lattice
        self.pt = pt
        self.bound = bound
        self.strict = strict
        self.keys: list = []
        self._ids: dict = {}

    def value_id(self, form: AffineExpr) -> int:
        key = self.pt.canonical_key(form)
        ident = self._ids.get(key)
        if ident is None:
            ident = self._ids[key] = len(self.keys)
            self.keys.append(key)
        return ident

    def _node(self, point: tuple[int, int]) -> _Node:
        """An in-bound point's node; subclasses keep what their search needs."""
        form = self.lattice.form(point)
        return _Value(self.value_id(form), form)

    def __missing__(self, point: tuple[int, int]):
        inside = self.lattice.within(self.pt, point, self.bound, self.strict)
        node = self[point] = self._node(point) if inside else None
        return node

    def children(self, point: tuple[int, int], upto: int | None = None, need: int | None = None):
        """The point's children, scanned through step ``upto`` or until ``need`` are found."""
        node = self[point]
        found, steps, m = node.children, self.lattice.steps, self.lattice.m
        stop = len(steps) if upto is None else upto
        need = stop if need is None else need
        while node.scanned < stop and len(found) < need:
            i, j, dp, dq = steps[node.scanned]
            child = (m * point[0] + dp, m * point[1] + dq)
            child_node = self[child]
            node.scanned += 1
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
    """Yield each level's in-bound displacements, levels 1..max_level.

    A level is {value id: (sigma, tau, (P, Q), form)} in discovery
    order: parents are expanded in witness order, each with its children
    in (i, j) order, and a value keeps the first pair that reaches it.
    The words sigma and tau are bytes, one byte per symbol.  A bound
    test that stays undecided raises ``Undecided`` naming the level.
    """
    symbol = [bytes((s,)) for s in range(256)]
    current = [(b"", b"", _ZERO_STATE)]
    for level in range(1, max_level + 1):
        nxt: dict = {}
        try:
            for sigma, tau, point in current:
                for i, j, child, node in memo.children(point):
                    if node.ident not in nxt:
                        nxt[node.ident] = (sigma + symbol[i], tau + symbol[j], child, node.form)
        except Undecided as exc:
            exc.level = level
            raise
        yield nxt
        current = sorted(entry[:3] for entry in nxt.values())


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
            memo.keys[ident]: Displacement(form, (Word(sigma), Word(tau)))
            for ident, (sigma, tau, _, form) in level.items()
        }
        for level in _search(memo, max_level)
    ]


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
        def entry(item):
            if item is None:
                return None
            return {
                "level": item.level,
                "abs_value": item.abs_value.to_json(),
                "abs_decimal": pt.eval_decimal(item.abs_value, DISPLAY_DIGITS),
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
    and the values tied at that magnitude (v and -v) are kept.  Within a
    level the tied entry with the first witness wins, and its |v| is read
    from its own lattice point, since at a rational point one value has
    many forms.  Magnitudes and their comparisons are sign queries on
    integer lattice points; only the reported minima are built as forms
    and words.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    lattice = DisplacementLattice(sys)
    lp, lq, sign = lattice.lp, lattice.lq, pt.sign_lattice
    memo = _PointMemo(lattice, pt, Fraction(1), strict=True)
    memo.value_id(AFFINE_ZERO)
    # all bound tests run before any comparison, so the first sign query
    # that stays undecided does not depend on how the levels are consumed;
    # the value ids that a level's search assigns are that level's new values
    levels, first_ids = [], [len(memo.keys)]
    for level in _search(memo, max_level):
        levels.append(level)
        first_ids.append(len(memo.keys))
    least = None  # the smallest |v| so far, as a lattice point
    tied: list[int] = []  # the value ids at that magnitude
    best_level = 0  # where the smallest |v| of all first appears
    per_level: list[WspLevelMinimum | None] = []
    for index, level in enumerate(levels, start=1):
        try:
            for ident in range(first_ids[index - 1], first_ids[index]):
                P, Q = level[ident][2]
                if sign(P, lp, Q, lq) < 0:
                    P, Q = -P, -Q
                order = -1 if least is None else sign(P - least[0], lp, Q - least[1], lq)
                if order < 0:
                    least, tied, best_level = (P, Q), [ident], index
                elif order == 0:
                    tied.append(ident)
            if not tied:
                per_level.append(None)
                continue
            entries = (level[ident] for ident in tied)
            sigma, tau, (P, Q), form = min(entries, key=itemgetter(0, 1))
            if sign(P, lp, Q, lq) < 0:
                P, Q = -P, -Q
        except Undecided as exc:
            exc.level = index
            raise
        per_level.append(WspLevelMinimum(
            index, Displacement(form, (Word(sigma), Word(tau))), lattice.form((P, Q))
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
    as small ints; each keeps the value ids, lattice points and exact
    forms of the members it was first built from.
    """

    def __init__(self, sys: IfsSystem, pt: Param):
        self.sys = sys
        self.pt = pt
        lattice = DisplacementLattice(sys)
        self._lp, self._lq = lattice.lp, lattice.lq
        self._memo = _PointMemo(lattice, pt, Fraction(1), strict=True)
        self._states: dict[tuple[int, ...], int] = {}
        self._value_ids: list[tuple[int, ...]] = []
        self._members: list[tuple[tuple[int, int], ...]] = []
        self._types: list[tuple[AffineExpr, ...]] = []
        self._transitions: dict[tuple[int, int], int] = {}
        zero = self._memo.value_id(AFFINE_ZERO)
        self.root_key = self._intern({zero: (_ZERO_STATE, AFFINE_ZERO)})

    def _intern(self, found: dict) -> int:
        """The state of {value id: (lattice point, form)}, in canonical order.

        Members are ordered by the sign of the difference of their
        lattice points.
        """
        sign, lp, lq = self.pt.sign_lattice, self._lp, self._lq

        def order(x, y):
            (xp, xq), (yp, yq) = x[1][0], y[1][0]
            return sign(xp - yp, lp, xq - yq, lq)

        ordered = sorted(found.items(), key=cmp_to_key(order))
        key = tuple(ident for ident, _ in ordered)
        state = self._states.get(key)
        if state is None:
            state = self._states[key] = len(self._types)
            self._value_ids.append(key)
            self._members.append(tuple(point for _, (point, _) in ordered))
            self._types.append(tuple(form for _, (_, form) in ordered))
        return state

    def type_of(self, key: int) -> tuple[AffineExpr, ...]:
        return self._types[key]

    def value_ids(self, key: int) -> tuple[int, ...]:
        """The members' value ids, in the order of ``type_of``; equal ids, equal values."""
        return self._value_ids[key]

    def successor(self, key: int, symbol: int) -> int:
        memo_key = (key, symbol)
        cached = self._transitions.get(memo_key)
        if cached is not None:
            return cached
        # a member is scanned through the steps of symbols <= symbol, resuming where it stopped
        memo, upto = self._memo, (self.sys.symbols.index(symbol) + 1) * self.sys.alphabet_size
        found: dict = {}
        for point in self._members[key]:
            for i, _, child, node in memo.children(point, upto):
                if i == symbol and node.ident not in found:
                    found[node.ident] = (child, node.form)
        result = self._intern(found)
        self._transitions[memo_key] = result
        return result


@dataclass(frozen=True)
class TypeEntry:
    displacements: NeighborhoodType
    count: int
    witness: Word


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
    def types(self) -> tuple[TypeEntry, ...]:
        """The rows as entries, each witness as a ``Word``."""
        return tuple(
            map(TypeEntry, self.type_column, self.word_counts, map(Word, self.witnesses))
        )

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
                "witnesses": list(map(word_text, lv.witnesses)),
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


def census_states(sys: IfsSystem, pt: Param, max_level: int):
    """Per-level automaton census with word counts and lex-first witnesses.

    Yields (level, automaton, {state key: (count, witness)}), each
    witness the word's symbol bytes.  Each dict is in strictly
    increasing witness order: the parents are walked in that order and
    each appends its symbols in ascending order, so a state is first
    reached through its smallest witness, and a dict keeps insertion
    order.  A state's successors are looked up once, as a row of
    (child, appended symbol byte); a sign query that stays undecided
    raises ``Undecided`` naming the level.
    """
    automaton = TypeAutomaton(sys, pt)
    tails = [(i, bytes((i,))) for i in sys.symbols]
    rows: dict[int, list[tuple[int, bytes]]] = {}
    current: dict[int, tuple[int, bytes]] = {automaton.root_key: (1, b"")}
    for level in range(1, max_level + 1):
        nxt: dict[int, tuple[int, bytes]] = {}
        for key, (count, witness) in current.items():
            row = rows.get(key)
            if row is None:
                try:
                    row = [(automaton.successor(key, i), tail) for i, tail in tails]
                except Undecided as exc:
                    exc.level = level
                    raise
                rows[key] = row
            for child, tail in row:
                entry = nxt.get(child)
                if entry is None:
                    nxt[child] = (count, witness + tail)
                else:
                    nxt[child] = (entry[0] + count, entry[1])
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
    for level, automaton, states in census_states(sys, pt, max_level):
        counts, witnesses = zip(*states.values())
        levels.append(
            CensusLevel(level, tuple(map(automaton.type_of, states)), counts, witnesses)
        )
    return CensusResult("convex (0,1)", tuple(levels))


@dataclass(frozen=True)
class OverlapPair:
    left: Word
    right: Word
    level: int

    def to_json(self) -> dict:
        return {"sigma": str(self.left), "tau": str(self.right), "level": self.level}


@dataclass(frozen=True)
class OverlapScanResult:
    max_level: int
    overlaps: tuple[OverlapPair, ...]
    derived: tuple[OverlapPair, ...]

    def to_json(self) -> dict:
        return {
            "max_level": self.max_level,
            "overlaps": [o.to_json() for o in self.overlaps],
            "derived": [o.to_json() for o in self.derived],
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
    with sigma < tau (i < j at the first difference).  A prefix is only
    extended while its walk can still return within the level budget.
    Since v_k = m^(k-s) * v_s + v(tail), a pair factors through a
    shorter overlap (same map on a prefix pair and on the suffix pair)
    exactly when its walk is at 0 at an interior position; such pairs,
    shared prefixes included, are reported separately as derived.
    Within a level, pairs are grouped by their common map, groups in
    order of their smallest word, pairs in (sigma, tau) order.
    """
    if max_level < 1:
        raise ValueError("max_level must be >= 1")
    edges, distance = _return_walks(sys)
    found: list[list] = [[] for _ in range(max_level + 1)]

    def reach(sigma, tau, state, zero_seen):
        level = len(sigma)
        if state == _ZERO_STATE:
            found[level].append((sigma, tau, zero_seen))
            zero_seen = True
        budget = max_level - level - 1
        for i, j, nxt in edges[state]:
            if distance[nxt] <= budget:
                reach(sigma + (i,), tau + (j,), nxt, zero_seen)

    # the first differing symbols decide sigma < tau
    diverge = [e for e in edges[_ZERO_STATE] if e[0] < e[1]]
    shortest = min((1 + distance[nxt] for _, _, nxt in diverge), default=None)

    def shared(prefix):
        level = len(prefix) + 1
        budget = max_level - level
        for i, j, nxt in diverge:
            if distance[nxt] <= budget:
                reach(prefix + (i,), prefix + (j,), nxt, bool(prefix))
        if level + shortest <= max_level:
            for s in sys.symbols:
                shared(prefix + (s,))

    if shortest is not None:
        shared(())
    primitive: list[OverlapPair] = []
    derived: list[OverlapPair] = []
    for level in range(1, max_level + 1):
        pairs = found[level]
        # equal maps form cliques: a word's group starts at its smallest partner
        smallest: dict = {}
        for sigma, tau, _ in pairs:
            if sigma < smallest.get(tau, tau):
                smallest[tau] = sigma
        pairs.sort(key=lambda e: (smallest.get(e[0], e[0]), e[0], e[1]))
        for sigma, tau, is_derived in pairs:
            pair = OverlapPair(Word(sigma), Word(tau), level)
            (derived if is_derived else primitive).append(pair)
    return OverlapScanResult(max_level, tuple(primitive), tuple(derived))


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
                {"level": n, "value": u.to_json(), "decimal": pt.eval_decimal(u, DISPLAY_DIGITS)}
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
            diff = gaps[a] - gaps[b]
            if diff.p == 0 and diff.q == 0:
                collisions.append((levels[a], levels[b]))
                continue
            try:
                if pt.sign(diff) == 0:
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
            out["min_decimal"] = pt.eval_decimal(self.min_abs, DISPLAY_DIGITS)
            out["witness"] = {
                "sigma": str(self.min_witness[0]),
                "tau": str(self.min_witness[1]),
                "endpoint_delta": self.min_witness[2],
            }
        return out


@dataclass(frozen=True)
class EndpointReport:
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
            "equal_pairs": [
                {"sigma": str(s), "tau": str(t), "endpoint_delta": d}
                for s, t, d in self.equal_pairs
            ],
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
    interiors overlap and are tracked as their own bucket.  No word pair
    is enumerated: the gaps come from the displacement frontier pruned
    at 1 + threshold, which is closed under extension, and the pairs
    with identical maps from the closed walks of ``exact_overlap_scan``.
    """
    threshold = Fraction(threshold)
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    lattice = DisplacementLattice(sys)
    lp, lq = lattice.lp, lattice.lq
    memo = _PointMemo(lattice, pt, 1 + threshold, strict=False)
    levels = list(_search(memo, max_level))  # all bound tests first, as in WSP
    # identical endpoints come from identical maps (zero displacement) or
    # from cylinders touching end to end (displacement exactly -+1)
    scan = exact_overlap_scan(sys, max_level)
    equal_pairs: list[tuple[Word, Word, int]] = [
        (o.left, o.right, 0) for o in scan.overlaps + scan.derived
    ]
    # (|value| as a lattice point, sigma, tau, delta) for corresponding
    # and for mixed picks; the value of (sigma, tau) shifted by delta
    same: list[tuple] = []
    mixed: list[tuple] = []
    for level in levels:
        for sigma, tau, (P, Q), _ in level.values():
            for delta in (-1, 0, 1):
                shifted = P + delta * lp
                if shifted == 0 and Q == 0:
                    if delta != 0:
                        equal_pairs.append((Word(tau), Word(sigma), delta))
                    continue
                point = (shifted, Q)
                if pt.sign_lattice(shifted, lp, Q, lq) < 0:
                    point = (-shifted, -Q)
                (mixed if delta else same).append((point, sigma, tau, delta))

    # |value| <= threshold is the sign of |value| - n/d over Lp*d, as in ``within``
    n, d = threshold.numerator, threshold.denominator

    def bucket(entries) -> EndpointBucket:
        least, violations = None, 0
        for entry in entries:
            P, Q = entry[0]
            if least is None or pt.sign_lattice(P - least[0][0], lp, Q - least[0][1], lq) < 0:
                least = entry
            if pt.sign_lattice(P * d - n * lp, lp * d, Q, lq) <= 0:
                violations += 1
        if least is None:
            return EndpointBucket(True, None, None, 0)
        point, sigma, tau, delta = least
        witness = (Word(tau), Word(sigma), delta)
        return EndpointBucket(violations == 0, lattice.form(point), witness, violations)

    return EndpointReport(
        max_level,
        threshold,
        bucket(same),
        bucket(mixed),
        tuple(equal_pairs),
        include_mixed_in_verdict,
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
