"""Inductive parameter construction by nested window refinement.

A construction tracks two equal-length words whose cylinders must keep
overlapping: writing ``gap = S_right(0) - S_left(0)``, the level-n state
is valid on the open parameter window where ``0 < gap < m^-n``.  Each
step appends one symbol to both words (optionally swapping their roles
first) and shrinks the window to the exact solution set of the next
overlap inequality.  A state holds the gap only as the scaled gap
``m^n * gap``, a point of the system's integer displacement lattice
(:class:`~sepkit.separation.DisplacementLattice`): it follows the
displacement recursion from level to level, and the window ends are
compared with the band ``0 < m^n * gap < 1`` by integer
cross-multiplication, at the first level and at every step alike.
Driving the binary choice of step with an aperiodic sequence pins the
window chain down to a single parameter value, which is exposed as a
:class:`~sepkit.exact.ParamPoint`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction

from .exact import (
    DEFAULT_SIGN_BUDGET,
    AffineExpr,
    ParamPoint,
    RationalInterval,
    RefinementExhausted,
)
from .ifs import IfsSystem, Word, translation_amount
from .separation import DisplacementLattice

PERIODIC_WARNING = (
    "driving sequence is eventually periodic: the singleton-intersection and "
    "unbounded-type-growth guarantees do not apply"
)


class EmptyRefinement(Exception):
    """A refinement step produced an empty window (bad template)."""


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


@dataclass(frozen=True)
class DrivingSequence:
    """Binary choice stream: bit k selects option 1 (0) or option 2 (1).

    ``aperiodic`` marks generators known to be non-eventually-periodic;
    only those justify treating the constructed parameter as irrational.
    """

    kind: str
    label: str
    aperiodic: bool
    prefix: tuple[int, ...] = ()

    def bit(self, k: int) -> int:
        if k < 1:
            raise ValueError("driving steps are 1-based")
        if self.kind == "thue-morse":
            return thue_morse_bit(k)
        if self.kind == "fibonacci":
            return fibonacci_bit(k)
        if self.kind == "periodic":
            return self.prefix[(k - 1) % len(self.prefix)]
        if self.kind == "explicit-prefix":
            if k > len(self.prefix):
                raise RefinementExhausted(len(self.prefix))
            return self.prefix[k - 1]
        raise ValueError(f"unknown driving sequence kind {self.kind!r}")

    @staticmethod
    def thue_morse() -> "DrivingSequence":
        return DrivingSequence("thue-morse", "thue-morse", aperiodic=True)

    @staticmethod
    def fibonacci() -> "DrivingSequence":
        return DrivingSequence("fibonacci", "fibonacci", aperiodic=True)

    @staticmethod
    def from_bits(bits) -> "DrivingSequence":
        seq = tuple(int(b) for b in bits)
        if any(b not in (0, 1) for b in seq):
            raise ValueError("driving bits must be 0 or 1")
        return DrivingSequence(
            "explicit-prefix", f"bits:{''.join(map(str, seq))}", aperiodic=False, prefix=seq
        )

    @staticmethod
    def periodic(pattern) -> "DrivingSequence":
        seq = tuple(int(b) for b in pattern)
        if not seq or any(b not in (0, 1) for b in seq):
            raise ValueError("pattern must be a non-empty 0/1 string")
        return DrivingSequence(
            "periodic", f"periodic:{''.join(map(str, seq))}", aperiodic=False, prefix=seq
        )


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


@dataclass(frozen=True)
class ConstructionState:
    """Level-n snapshot of the refinement.

    ``point`` is the scaled gap m^level * (S_right(0) - S_left(0)) as a
    point (P, Q) of the system's displacement ``lattice``; on ``window``
    it takes values in (0, 1), which is exactly the condition that the
    two cylinders overlap with the right one's origin inside the left
    one.  ``==`` compares the point, not the lattice.
    """

    level: int
    left: Word
    right: Word
    window: RationalInterval
    point: tuple[int, int]
    lattice: DisplacementLattice = field(compare=False, repr=False)
    choice: str | None = None

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


def _clip_to_band(
    lattice: DisplacementLattice, point: tuple[int, int], window: RationalInterval
) -> tuple[Fraction, Fraction]:
    """The ends of ``window`` cut down to where the point lies in (0, 1); maybe empty.

    For Q != 0, ``0 < P/Lp + (Q/Lq)*a < 1`` holds exactly for a strictly
    between b0/den and b1/den.  Each window end is compared with its
    bound by integer cross-multiplication; only an end that moves is
    built as a ``Fraction``, so the window lies in the band exactly
    when both ends come back unchanged.
    """
    P, Q = point
    lp, lq = lattice.lp, lattice.lq
    b0, b1, den = -P * lq, (lp - P) * lq, lp * Q
    if den < 0:
        b0, b1, den = -b1, -b0, -den
    lo, hi = window.lo, window.hi
    if b0 * lo.denominator > lo.numerator * den:
        lo = Fraction(b0, den)
    if b1 * hi.denominator < hi.numerator * den:
        hi = Fraction(b1, den)
    return lo, hi


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
        left, right, window = self.initial_left, self.initial_right, self.initial_window
        if len(left) != len(right) or len(left) == 0:
            raise ValueError("initial words must be non-empty and of equal length")
        if left.symbols[0] == right.symbols[0]:
            raise ValueError("initial words must start with distinct symbols")
        lattice = DisplacementLattice(self.system)
        point = lattice.point(translation_amount(self.system, left, right))
        if point[1] == 0:
            raise ValueError("initial gap must depend on the parameter")
        if _clip_to_band(lattice, point, window) != (window.lo, window.hi):
            raise ValueError("initial window is not contained in the overlap band")
        return ConstructionState(len(left), left, right, window, point, lattice)


def refine_step(
    state: ConstructionState, opt: RefinementOption, *, choice: str | None = None
) -> ConstructionState:
    """One refinement step: extend both words, solve the next inequality.

    The scaled gap u = m^level * gap steps on the state's displacement
    lattice, u' = m*(+-u) + m*(d_right - d_left) with the sign flipped
    on a swap, so no rational arithmetic runs between levels.  The new
    window is the old one cut down to the exact solution set of
    ``0 < u' < 1``, that is ``0 < gap' < m^-(level+1)``.  Emptiness
    means the template does not support the step and raises
    :class:`EmptyRefinement`.  ``choice`` labels the new state.
    """
    lattice = state.lattice
    left, right = (state.right, state.left) if opt.swap else (state.left, state.right)
    new_left = left.append(opt.append_left)
    new_right = right.append(opt.append_right)
    P, Q = state.point
    if opt.swap:
        P, Q = -P, -Q
    dP, dQ = lattice.step(opt.append_left, opt.append_right)
    m = lattice.m
    point = (m * P + dP, m * Q + dQ)
    if point[1] == 0:
        raise EmptyRefinement("gap became constant; cannot solve for the parameter")
    lo, hi = _clip_to_band(lattice, point, state.window)
    if lo >= hi:
        raise EmptyRefinement(
            f"step from level {state.level} leaves no parameter window (option {opt})"
        )
    return ConstructionState(state.level + 1, new_left, new_right,
                             RationalInterval(lo, hi), point, lattice, choice)


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

    Extension is serialized under a lock; readers of already-produced
    windows never block and always see an immutable prefix.
    """

    def __init__(self, template: ConstructionTemplate, sequence: DrivingSequence):
        self.template = template
        self.sequence = sequence
        self._lock = threading.Lock()
        self._states: list[ConstructionState] = [template.initial_state()]
        self._step_index = 0

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

    def window(self, level: int) -> RationalInterval:
        return self.state(level).window

    def states_up_to(self, level: int) -> tuple[ConstructionState, ...]:
        self._extend_to(level)
        return tuple(s for s in self._states if s.level <= level)

    def _extend_to(self, level: int) -> None:
        if self._states[-1].level >= level:
            return
        with self._lock:
            while self._states[-1].level < level:
                if self._step_index < len(self.template.fixed_prefix):
                    opt = self.template.fixed_prefix[self._step_index]
                    choice = "prefix"
                else:
                    k = self._step_index - len(self.template.fixed_prefix) + 1
                    bit = self.sequence.bit(k)  # may raise RefinementExhausted
                    opt = self.template.option2 if bit else self.template.option1
                    choice = f"option{bit + 1}"
                self._states.append(refine_step(self._states[-1], opt, choice=choice))
                self._step_index += 1


def param_point(
    tmpl: ConstructionTemplate,
    seq: DrivingSequence,
    irrationality_assumed: bool | None = None,
    budget: int = DEFAULT_SIGN_BUDGET,
) -> ParamPoint:
    """The parameter pinned down by a template and a driving sequence.

    The irrationality flag defaults to True exactly for recognized
    aperiodic generators: an eventually periodic choice sequence forces
    a rational limit, while an aperiodic one is inconsistent with any
    rational value (a rational parameter bounds the displacement
    denominators and hence the number of neighbourhood types, making
    the choice sequence eventually periodic).  The default can be
    overridden in either direction.
    """
    engine = RefinementEngine(tmpl, seq)
    assumed = seq.aperiodic if irrationality_assumed is None else irrationality_assumed
    return ParamPoint(
        engine, irrationality_assumed=assumed, label=f"{tmpl.name}+{seq.label}", budget=budget
    )


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
            name="example-1",
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
            name="example-2",
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
                  budget: int = DEFAULT_SIGN_BUDGET) -> ParamPoint:
    seq = seq or DrivingSequence.thue_morse()
    return param_point(example_template(which), seq, budget=budget)
