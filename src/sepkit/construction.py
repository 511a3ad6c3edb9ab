"""Inductive parameter construction by nested window refinement.

A construction tracks two equal-length words whose cylinders must keep
overlapping: writing ``gap = S_right(0) - S_left(0)``, the level-n state
is valid on the open parameter window where ``0 < gap < m^-n``.  Each
step appends one symbol to both words (optionally swapping their roles
first) and shrinks the window to the exact solution set of the next
overlap inequality.  A state holds the gap only as the scaled gap
``m^n * gap``, a point of the system's integer displacement lattice
(:class:`~sepkit.separation.DisplacementLattice`): it follows the
displacement recursion from level to level.  The window ends are kept
as integer numerators and denominators.  Every end is a band end of
some lattice point, the initial window's ends included, and keeps a 2x2
determinant against the current point, carried from level to level,
which decides each new cut with integers of the size of the point (see
``refine_step``).
Driving the binary choice of step with an aperiodic sequence pins the
window chain down to a single parameter value, which is exposed as a
:class:`~sepkit.exact.ParamPoint`; a periodic sequence pins down a
rational value, which is solved for exactly (:class:`PeriodicLimit`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .exact import (
    DEFAULT_SIGN_BUDGET,
    AffineExpr,
    EmptyRefinement,
    Param,
    ParamPoint,
    RationalInterval,
    RationalParam,
    RefinementExhausted,
)
from .ifs import IfsSystem, Word, translation_amount
from .separation import DisplacementLattice

PERIODIC_WARNING = (
    "driving sequence is eventually periodic: the singleton-intersection and "
    "unbounded-type-growth guarantees do not apply"
)


def thue_morse_bit(n: int) -> int:
    """n-th driving bit (n >= 1): parity of the binary weight of n-1.

    The first five values are 0, 1, 1, 0, 1.
    """
    if n < 1:
        raise ValueError("driving steps are 1-based")
    return bin(n - 1).count("1") % 2


_FIB_CACHE = ["0"]


def fibonacci_bit(n: int) -> int:
    """n-th letter (n >= 1) of the fixed point of 0 -> 01, 1 -> 0."""
    if n < 1:
        raise ValueError("driving steps are 1-based")
    word = _FIB_CACHE[0]
    while len(word) < n:
        word = word.replace("0", "2").replace("1", "0").replace("2", "01")
        _FIB_CACHE[0] = word
    return int(word[n - 1])


_SEQUENCE_KINDS = ("thue-morse", "fibonacci", "periodic", "explicit-prefix")


@dataclass(frozen=True)
class DrivingSequence:
    """Binary choice stream: bit k selects option 1 (0) or option 2 (1).

    ``prefix`` holds the bits of a ``"periodic"`` pattern or of an
    ``"explicit-prefix"`` sequence.  ``aperiodic``, read off ``kind``,
    marks the generators known to be non-eventually-periodic; only
    those justify treating the constructed parameter as irrational.
    An unknown ``kind``, a bit other than 0 or 1, or a periodic
    sequence without a pattern raises ``ValueError``.
    """

    kind: str
    prefix: tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in _SEQUENCE_KINDS:
            raise ValueError(f"unknown driving sequence kind {self.kind!r}")
        if self.kind == "periodic":
            if not self.prefix or any(b not in (0, 1) for b in self.prefix):
                raise ValueError("pattern must be a non-empty 0/1 string")
        elif any(b not in (0, 1) for b in self.prefix):
            raise ValueError("driving bits must be 0 or 1")

    @property
    def aperiodic(self) -> bool:
        return self.kind in ("thue-morse", "fibonacci")

    def bit(self, k: int) -> int:
        if k < 1:
            raise ValueError("driving steps are 1-based")
        return self.reader()(k)

    def reader(self):
        """The function k -> bit k, for k >= 1, of this sequence's kind: chosen
        once by a caller that reads one bit per level."""
        if self.kind == "thue-morse":
            return thue_morse_bit
        if self.kind == "fibonacci":
            return fibonacci_bit
        bits = self.prefix
        if self.kind == "periodic":
            return lambda k: bits[(k - 1) % len(bits)]

        def explicit(k: int) -> int:
            if k > len(bits):
                raise RefinementExhausted(len(bits))
            return bits[k - 1]

        return explicit

    @staticmethod
    def thue_morse() -> "DrivingSequence":
        return DrivingSequence("thue-morse")

    @staticmethod
    def fibonacci() -> "DrivingSequence":
        return DrivingSequence("fibonacci")

    @staticmethod
    def from_bits(bits) -> "DrivingSequence":
        return DrivingSequence("explicit-prefix", tuple(int(b) for b in bits))

    @staticmethod
    def periodic(pattern) -> "DrivingSequence":
        return DrivingSequence("periodic", tuple(int(b) for b in pattern))


@dataclass(frozen=True)
class RefinementOption:
    """One way to extend the tracked pair.

    With ``swap`` set, the former right word becomes the new left parent.
    ``append_left``/``append_right`` are the symbols appended to the new
    left/right parents.
    """

    swap: bool
    append_left: int
    append_right: int


class ConstructionState:
    """Level-n snapshot of the refinement.

    ``point`` is the scaled gap m^level * (S_right(0) - S_left(0)) as a
    point (P, Q) of the system's displacement ``lattice``; on ``window``
    it takes values in (0, 1), which is exactly the condition that the
    two cylinders overlap with the right one's origin inside the left
    one.  The state keeps the window as ``ends``, four ints
    ``(lo_num, lo_den, hi_num, hi_den)`` with positive, not necessarily
    reduced denominators, and its words as its parent and the ``option``
    taken from it; ``window``, ``left`` and ``right`` are built on first
    read, once.  ``==`` compares all but the lattice.

    Each window end is a band end of a lattice point p_j = (P_j, Q_j),
    its owner: with p = (P, Q) standing for ``u(a) = P/Lp + (Q/Lq)*a``,
    the roots of u = t are ``r_t(p) = Lq*(t*Lp - P)/(Lp*Q)`` for t in
    {0, 1}, and the lower band end is r_0 when Q > 0, else r_1.  An end
    cut by a level's band is owned by that level's point; an initial
    end n/d by a point of its own (see ``ConstructionTemplate.initial_state``).
    The state keeps each end's owner and the determinant
    ``D = det(p_j, p) = P_j*Q - Q_j*P`` against its own point, from
    which ``refine_step`` decides the next cuts in O(k) integer work
    per level, for k-digit points.
    """

    __slots__ = ("level", "point", "ends", "lattice", "choice",
                 "_parent", "_option", "_words", "_window",
                 "_lo_owner", "_lo_det", "_hi_owner", "_hi_det")

    def __init__(self, level: int, point: tuple[int, int], ends: tuple[int, int, int, int],
                 lattice: DisplacementLattice, choice: str | None,
                 parent: ConstructionState | None, option: RefinementOption | None,
                 lo_owner: tuple[int, int], lo_det: int, hi_owner: tuple[int, int], hi_det: int):
        self.level, self.point, self.ends, self.lattice = level, point, ends, lattice
        self.choice, self._parent, self._option = choice, parent, option
        self._lo_owner, self._lo_det, self._hi_owner, self._hi_det = (
            lo_owner, lo_det, hi_owner, hi_det)
        self._words = self._window = None

    @property
    def window(self) -> RationalInterval:
        if self._window is None:
            lo_num, lo_den, hi_num, hi_den = self.ends
            self._window = RationalInterval(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den))
        return self._window

    left = property(lambda self: self._built_words()[0])
    right = property(lambda self: self._built_words()[1])

    def _built_words(self) -> tuple[Word, Word]:
        """The words, replayed in a loop (chains reach thousands of levels)."""
        if self._words is None:
            options, state = [], self
            while state._words is None:
                options.append(state._option)
                state = state._parent
            left, right = (bytearray(w.symbols) for w in state._words)
            for opt in reversed(options):
                if opt.swap:
                    left, right = right, left
                left.append(opt.append_left)
                right.append(opt.append_right)
            self._words = (Word(bytes(left)), Word(bytes(right)))
        return self._words

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.level, self.point, self.choice, self.window, self._built_words())
                == (other.level, other.point, other.choice, other.window, other._built_words()))

    def __hash__(self) -> int:
        return hash((self.level, self.point, self.choice))

    @property
    def scaled_gap(self) -> AffineExpr:
        """m^level * gap: the normalized displacement of the tracked pair."""
        return self.lattice.form(self.point)

    @property
    def gap(self) -> AffineExpr:
        """S_right(0) - S_left(0), reduced from the point when read."""
        return self.scaled_gap.scale(Fraction(1, self.lattice.m**self.level))

    def to_json(self) -> dict:
        return {
            "n": self.level,
            "sigma": str(self.left),
            "tau": str(self.right),
            "J": self.window.to_json(),
            "T": self.gap.to_json(),
            "choice": self.choice,
        }


def _band(lattice: DisplacementLattice, P: int, Q: int) -> tuple[int, int, int]:
    """``(lo_num, hi_num, den)``, den > 0: where ``0 < P/Lp + (Q/Lq)*a < 1``, for Q != 0.

    The ends are the roots r_0 and r_1 of the form (see
    ``ConstructionState``), lower first, over one common denominator.
    """
    lp, lq = lattice.lp, lattice.lq
    b0, b1, den = -P * lq, (lp - P) * lq, lp * Q
    if den < 0:
        b0, b1, den = -b1, -b0, -den
    return b0, b1, den


@dataclass(frozen=True)
class ConstructionTemplate:
    """Everything needed to run a construction.

    ``fixed_prefix`` steps are applied before the driving sequence's
    two-option alternation starts.
    """

    system: IfsSystem
    initial_left: Word
    initial_right: Word
    initial_window: RationalInterval
    option1: RefinementOption
    option2: RefinementOption
    fixed_prefix: tuple[RefinementOption, ...] = ()
    name: str = "template"

    def initial_state(self) -> ConstructionState:
        """The first state.  Its lower end n/d is r_0 of the point
        (-n*Lp, d*Lq), and its upper end r_0 of (n*Lp, -d*Lq), the band
        ends that own them."""
        left, right, window = self.initial_left, self.initial_right, self.initial_window
        if len(left) != len(right) or len(left) == 0:
            raise ValueError("initial words must be non-empty and of equal length")
        if left.symbols[0] == right.symbols[0]:
            raise ValueError("initial words must start with distinct symbols")
        lattice = DisplacementLattice(self.system)
        point = lattice.point(translation_amount(self.system, left, right))
        if point[1] == 0:
            raise ValueError("initial gap must depend on the parameter")
        ends = (window.lo.numerator, window.lo.denominator,
                window.hi.numerator, window.hi.denominator)
        lo, hi, den = _band(lattice, *point)
        if lo * ends[1] > ends[0] * den or hi * ends[3] < ends[2] * den:
            raise ValueError("initial window is not contained in the overlap band")
        (P, Q), lp, lq = point, lattice.lp, lattice.lq
        lo_owner, hi_owner = (-ends[0] * lp, ends[1] * lq), (ends[2] * lp, -ends[3] * lq)
        lo_det, hi_det = (P_j * Q - Q_j * P for P_j, Q_j in (lo_owner, hi_owner))
        state = ConstructionState(len(left), point, ends, lattice, None, None, None,
                                  lo_owner, lo_det, hi_owner, hi_det)
        state._words = (left, right)  # the first state's words are given, not replayed
        return state


def refine_step(
    state: ConstructionState, opt: RefinementOption, *, choice: str | None = None,
    step: tuple[int, int] | None = None,
) -> ConstructionState:
    """One refinement step: extend both words, solve the next inequality.

    The scaled gap u = m^level * gap steps on the state's displacement
    lattice, p' = mu*p + (dP, dQ) with mu = m, or -m on a swap, and the
    new window is the old one cut down to the exact solution set of
    ``0 < u' < 1``, that is ``0 < gap' < m^-(level+1)``: integer
    arithmetic only, on the point and the window ends.  The words are
    not built here (see ``ConstructionState``).

    Each window end is a root r_s(p_j) of its owner p_j and carries
    ``D = det(p_j, p)``, which steps as ``D' = mu*D + P_j*dQ - Q_j*dP``;
    then ``sign(r_t(p') - r_s(p_j)) = sign(Lp*(t*Q_j - s*Q') + D') *
    sign(Q'*Q_j)`` says whether the new band end is tighter and, where
    one end is new and the other kept, whether the window is empty.
    Every product has a factor of bounded size, so a level costs O(k)
    integer work for k-digit points.  A new end is stored as the band's
    ints and a kept end keeps its ints, so the ends are those that
    cutting the window by cross-multiplication gives.  Emptiness means
    the template does not support the step and raises
    :class:`EmptyRefinement`.  ``choice`` labels the new state, and
    ``step``, when given, is the option's lattice step (dP, dQ), which a
    caller taking one option many times resolves once.
    """
    lattice = state.lattice
    mu = -lattice.m if opt.swap else lattice.m
    dP, dQ = lattice.step(opt.append_left, opt.append_right) if step is None else step
    P, Q = state.point
    P, Q = mu * P + dP, mu * Q + dQ
    if Q == 0:
        raise EmptyRefinement("gap became constant; cannot solve for the parameter")
    point = (P, Q)
    b_lo, b_hi, den = _band(lattice, P, Q)
    lo_num, lo_den, hi_num, hi_den = state.ends
    lo_owner, hi_owner = state._lo_owner, state._hi_owner
    (lo_P, lo_Q), (hi_P, hi_Q) = lo_owner, hi_owner
    lo_det = mu * state._lo_det + lo_P * dQ - lo_Q * dP
    hi_det = mu * state._hi_det + hi_P * dQ - hi_Q * dP
    # p's lower band end is r_t(p) with t = lo_t, its upper one has t = not lo_t, and
    # r_t(p) - r_s(p_j) has the sign of f = Lp*(t*Q_j - s*Q) + D times that of Q*Q_j
    lp, lo_t = lattice.lp, Q < 0
    lo_flip, hi_flip = (lo_Q < 0) != lo_t, (hi_Q < 0) != lo_t  # Q*Q_j < 0
    f = lp * ((lo_Q if lo_t else 0) - (Q if lo_Q < 0 else 0)) + lo_det
    cut_lo = f < 0 if lo_flip else f > 0
    f = lp * ((0 if lo_t else hi_Q) - (Q if hi_Q > 0 else 0)) + hi_det
    cut_hi = f > 0 if hi_flip else f < 0
    # two new ends are the band and two kept ends the last window, neither empty
    if cut_lo == cut_hi:
        empty = False
    elif cut_lo:
        f = lp * ((hi_Q if lo_t else 0) - (Q if hi_Q > 0 else 0)) + hi_det
        empty = f <= 0 if hi_flip else f >= 0
    else:
        f = lp * ((0 if lo_t else lo_Q) - (Q if lo_Q < 0 else 0)) + lo_det
        empty = f >= 0 if lo_flip else f <= 0
    if empty:
        raise EmptyRefinement(
            f"step from level {state.level} leaves no parameter window (option {opt})"
        )
    if cut_lo:
        lo_num, lo_den, lo_owner, lo_det = b_lo, den, point, 0
    if cut_hi:
        hi_num, hi_den, hi_owner, hi_det = b_hi, den, point, 0
    return ConstructionState(state.level + 1, point, (lo_num, lo_den, hi_num, hi_den), lattice,
                             choice, state, opt, lo_owner, lo_det, hi_owner, hi_det)


@dataclass(frozen=True)
class ConstructionRun:
    template: ConstructionTemplate
    sequence: DrivingSequence
    states: tuple[ConstructionState, ...]
    warnings: tuple[str, ...] = ()

    def state(self, level: int) -> ConstructionState:
        base = self.states[0].level
        if not base <= level <= self.states[-1].level:
            raise ValueError(f"level {level} outside computed range")
        return self.states[level - base]


def run_construction(
    tmpl: ConstructionTemplate, seq: DrivingSequence, depth: int
) -> ConstructionRun:
    """Deterministic state chain for levels 1..depth, on a fresh engine.

    A caller holding the point reads ``pt.refiner.run(depth)`` instead,
    so that the run and the point's queries share one chain.
    """
    return RefinementEngine(tmpl, seq).run(depth)


class RefinementEngine:
    """Lazy, append-only extension of a construction run.

    ``state(level)`` is a level's state, and ``ends(level)`` its window
    as integer ends, the one read every query makes; a window as an
    interval is ``state(level).window``.  Extension is serialized under
    a lock; readers of already-produced windows never block and always
    see an immutable prefix.
    """

    def __init__(self, template: ConstructionTemplate, sequence: DrivingSequence):
        self.template = template
        self.sequence = sequence
        self._lock = threading.Lock()
        self._states: list[ConstructionState] = [template.initial_state()]
        self._bit = sequence.reader()
        #: per driving bit, (option, label, lattice step), resolved when first taken
        self._options: list[tuple | None] = [None, None]

    @property
    def depth(self) -> int:
        return self._states[-1].level

    @property
    def warnings(self) -> tuple[str, ...]:
        """The caveats of every run of this chain: a periodic sequence voids the guarantees."""
        return (PERIODIC_WARNING,) if self.sequence.kind == "periodic" else ()

    def run(self, depth: int) -> ConstructionRun:
        """The run of levels 1..depth, read off this chain (extended as needed)."""
        if depth < 1:
            raise ValueError("depth must be >= 1")
        return ConstructionRun(self.template, self.sequence, self.states_up_to(depth),
                               self.warnings)

    def state(self, level: int) -> ConstructionState:
        self._extend_to(level)
        base = self._states[0].level
        if level < base:
            raise ValueError(f"levels start at {base}")
        return self._states[level - base]

    def ends(self, level: int) -> tuple[int, int, int, int]:
        """The window at ``level`` as ints ``(lo_num, lo_den, hi_num, hi_den)``."""
        return self.state(level).ends

    def states_up_to(self, level: int) -> tuple[ConstructionState, ...]:
        self._extend_to(level)
        return tuple(s for s in self._states if s.level <= level)

    def _extend_to(self, level: int) -> None:
        if self._states[-1].level >= level:
            return
        with self._lock:
            states, prefix = self._states, self.template.fixed_prefix
            while states[-1].level < level:
                taken = len(states) - 1  # refinement steps so far
                if taken < len(prefix):
                    states.append(refine_step(states[-1], prefix[taken], choice="prefix"))
                    continue
                bit = self._bit(taken - len(prefix) + 1)  # may raise RefinementExhausted
                resolved = self._options[bit]
                if resolved is None:
                    opt = self.template.option2 if bit else self.template.option1
                    step = states[-1].lattice.step(opt.append_left, opt.append_right)
                    resolved = self._options[bit] = (opt, f"option{bit + 1}", step)
                opt, choice, step = resolved
                states.append(refine_step(states[-1], opt, choice=choice, step=step))


class PeriodicLimit(RationalParam):
    """The exact rational limit of a periodic construction.

    Every query is answered by evaluation at ``value``, as at any
    ``RationalParam``; ``refiner`` is the window chain the limit was
    read from, so runs, renders and caveats read the same levels as at
    a ``ParamPoint``.
    """

    def __init__(self, value: Fraction, refiner: RefinementEngine):
        super().__init__(value)
        self.refiner = refiner


def _periodic_limit(engine: RefinementEngine, budget: int) -> Fraction | None:
    """The parameter a periodic chain pins down, read off its first period.

    Write b for the chain's first level, s for the length of the fixed
    prefix and T for the period.  From level b+s on the steps repeat
    every T levels, and the period map takes the scaled gap u_{b+s} to
    u_{b+s+T} = A*u_{b+s} + B + C*a with |A| = m^T > 1, so only the
    orbit it fixes stays in (0, 1): a parameter in every window solves
    the linear equation u_{b+s+T} = u_{b+s}.  If its solution lies
    strictly inside window b+s+T, every later level repeats one of
    levels b+s..b+s+T there, so it lies in every window and is the
    limit.  If it does not, no parameter lies in every window, and
    ``EmptyRefinement`` is raised.  None when the equation is degenerate
    or level b+s+T lies beyond ``budget``, which no query may read.
    """
    tmpl = engine.template
    start = len(tmpl.initial_left) + len(tmpl.fixed_prefix)
    end = start + len(engine.sequence.prefix)
    if end > budget:
        return None
    last = engine.state(end)
    (p0, q0), (p1, q1) = engine.state(start).point, last.point
    if q0 == q1:
        return None
    limit = Fraction((p0 - p1) * last.lattice.lq, (q1 - q0) * last.lattice.lp)
    if not last.window.lo < limit < last.window.hi:
        raise EmptyRefinement(
            f"the periodic windows close on no parameter: their only candidate, {limit}, "
            f"is not inside the window {last.window} at level {end}"
        )
    return limit


def param_point(
    tmpl: ConstructionTemplate,
    seq: DrivingSequence,
    irrationality_assumed: bool | None = None,
    budget: int = DEFAULT_SIGN_BUDGET,
) -> Param:
    """The parameter pinned down by a template and a driving sequence.

    The irrationality flag defaults to True exactly for recognized
    aperiodic generators: an eventually periodic choice sequence forces
    a rational limit, while an aperiodic one is inconsistent with any
    rational value (a rational parameter bounds the displacement
    denominators and hence the number of neighbourhood types, making
    the choice sequence eventually periodic).  The default can be
    overridden in either direction.

    An unflagged periodic sequence gives a :class:`PeriodicLimit` at its
    exact rational limit (see ``_periodic_limit``), found on the point's
    own chain when the point is built; where the limit is not read off
    within ``budget`` levels, and for every other sequence, the point
    is a :class:`~sepkit.exact.ParamPoint` on that chain.  Raises
    ``EmptyRefinement`` when a periodic chain's windows close on no
    parameter.
    """
    engine = RefinementEngine(tmpl, seq)
    assumed = seq.aperiodic if irrationality_assumed is None else irrationality_assumed
    if seq.kind == "periodic" and not assumed:
        limit = _periodic_limit(engine, budget)
        if limit is not None:
            return PeriodicLimit(limit, engine)
    return ParamPoint(engine, irrationality_assumed=assumed, budget=budget)


def example_template(which: int) -> ConstructionTemplate:
    """The two built-in systems.

    Example 1: three maps of ratio 1/7 with offsets (0, a, 6/7).
    Example 2: five maps of ratio 1/16 with offsets
    (0, a, 15/16 - 16a, 11/16, 15/16); the a-cancellation in the third
    offset forces the exact overlap of the level-2 cylinders "15"/"23".
    """
    if which == 1:
        sys = IfsSystem(
            7,
            (
                AffineExpr.constant(0),
                AffineExpr.parameter(),
                AffineExpr.constant(Fraction(6, 7)),
            ),
        )
        return ConstructionTemplate(
            system=sys,
            initial_left=Word.of(1),
            initial_right=Word.of(2),
            initial_window=RationalInterval.make(0, Fraction(1, 7)),
            option1=RefinementOption(swap=False, append_left=3, append_right=1),
            option2=RefinementOption(swap=True, append_left=2, append_right=3),
            name="example-1",
        )
    if which == 2:
        sys = IfsSystem(
            16,
            (
                AffineExpr.constant(0),
                AffineExpr.parameter(),
                AffineExpr(Fraction(15, 16), Fraction(-16)),
                AffineExpr.constant(Fraction(11, 16)),
                AffineExpr.constant(Fraction(15, 16)),
            ),
        )
        return ConstructionTemplate(
            system=sys,
            initial_left=Word.of(1),
            initial_right=Word.of(2),
            initial_window=RationalInterval.make(0, Fraction(1, 16)),
            option1=RefinementOption(swap=False, append_left=5, append_right=1),
            option2=RefinementOption(swap=True, append_left=2, append_right=5),
            fixed_prefix=(RefinementOption(swap=False, append_left=4, append_right=1),),
            name="example-2",
        )
    raise ValueError("example selector must be 1 or 2")


def example_system(which: int) -> IfsSystem:
    return example_template(which).system


def example_point(which: int, seq: DrivingSequence | None = None,
                  budget: int = DEFAULT_SIGN_BUDGET) -> Param:
    seq = seq or DrivingSequence.thue_morse()
    return param_point(example_template(which), seq, budget=budget)
