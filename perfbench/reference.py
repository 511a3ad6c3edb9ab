"""Known answers computed without sepkit, by exact ``Fraction`` arithmetic.

Nothing here imports sepkit.  The two built-in systems and their
refinement templates are written out again from their published
definitions, and every value is derived from them directly:

* the constructed parameter, refined window by window, for decimal
  checks of irrational points;
* the exact rational limit of an eventually periodic driving sequence;
* convex type counts and per-level smallest displacements at a rational
  parameter, where the level sets eventually cycle and can be
  extrapolated to any depth;
* the number of word pairs indexing identical maps in example 2.
"""

from __future__ import annotations

from fractions import Fraction as F
from math import lcm

# Offsets d_i = p + q*a as (p, q), with the contraction ratio 1/m.
# Example 1: ratio 1/7, offsets (0, a, 6/7).
# Example 2: ratio 1/16, offsets (0, a, 15/16 - 16a, 11/16, 15/16).
SYSTEMS = {
    1: (7, ((F(0), F(0)), (F(0), F(1)), (F(6, 7), F(0)))),
    2: (16, ((F(0), F(0)), (F(0), F(1)), (F(15, 16), F(-16)),
             (F(11, 16), F(0)), (F(15, 16), F(0)))),
}

# Refinement templates: the level-1 pair (left, right), the fixed prefix
# steps and the two options, each step written (swap, append_left,
# append_right).  Driving bit 0 selects the first option, bit 1 the second.
TEMPLATES = {
    1: {"start": (1, 2), "window": (F(0), F(1, 7)), "prefix": (),
        "options": ((False, 3, 1), (True, 2, 3))},
    2: {"start": (1, 2), "window": (F(0), F(1, 16)), "prefix": ((False, 4, 1),),
        "options": ((False, 5, 1), (True, 2, 5))},
}


def thue_morse(k: int) -> int:
    return bin(k - 1).count("1") % 2


def fibonacci_word(length: int) -> str:
    word = "0"
    while len(word) < length:
        word = "".join("01" if c == "0" else "0" for c in word)
    return word


def driving_bits(sequence: str, count: int) -> list[int]:
    if sequence == "thue-morse":
        return [thue_morse(k) for k in range(1, count + 1)]
    if sequence == "fibonacci":
        return [int(c) for c in fibonacci_word(count)[:count]]
    if sequence.startswith("periodic:"):
        pattern = sequence[len("periodic:"):]
        return [int(pattern[k % len(pattern)]) for k in range(count)]
    raise ValueError(f"no reference for sequence {sequence!r}")


def _steps(example: int, sequence: str, count: int):
    tmpl = TEMPLATES[example]
    steps = list(tmpl["prefix"])
    bits = driving_bits(sequence, max(0, count - len(steps)))
    steps += [tmpl["options"][b] for b in bits]
    return steps[:count]


def _step(example: int, u: tuple[F, F], step) -> tuple[F, F]:
    """u' = m * (+-u + d_right - d_left) for the normalized gap u = (p, q)."""
    m, offsets = SYSTEMS[example]
    swap, left, right = step
    sign = -1 if swap else 1
    dl, dr = offsets[left - 1], offsets[right - 1]
    return (m * (sign * u[0] + dr[0] - dl[0]), m * (sign * u[1] + dr[1] - dl[1]))


def _initial_gap(example: int) -> tuple[F, F]:
    m, offsets = SYSTEMS[example]
    left, right = TEMPLATES[example]["start"]
    dl, dr = offsets[left - 1], offsets[right - 1]
    return (m * (dr[0] - dl[0]), m * (dr[1] - dl[1]))


def parameter_windows(example: int, sequence: str, levels: int):
    """Windows J_1, ..., J_levels on which 0 < u_n(a) < 1 at every level."""
    lo, hi = TEMPLATES[example]["window"]
    u = _initial_gap(example)
    windows = [(lo, hi)]
    for step in _steps(example, sequence, levels - 1):
        u = _step(example, u, step)
        r0, r1 = sorted(((0 - u[0]) / u[1], (1 - u[0]) / u[1]))
        lo, hi = max(lo, r0), min(hi, r1)
        if lo >= hi:
            raise ValueError("empty refinement window")
        windows.append((lo, hi))
    return windows


def round_half_even(x: F, digits: int) -> str:
    scaled = abs(x) * 10**digits
    whole, rem = divmod(scaled.numerator, scaled.denominator)
    if 2 * rem > scaled.denominator or (2 * rem == scaled.denominator and whole % 2):
        whole += 1
    text = str(whole).rjust(digits + 1, "0")
    text = f"{text[:-digits]}.{text[-digits:]}"
    return "-" + text if x < 0 and whole else text


def decimal_at(example: int, sequence: str, p: F, q: F, digits: int) -> str:
    """Correct rounding of p + q*a at the constructed parameter."""
    levels = 16
    while True:
        lo, hi = parameter_windows(example, sequence, levels)[-1]
        ends = {round_half_even(p + q * lo, digits), round_half_even(p + q * hi, digits)}
        if len(ends) == 1:
            return ends.pop()
        levels *= 2


def periodic_limit(example: int, pattern: str) -> F:
    """The rational parameter pinned down by a purely periodic pattern.

    The normalized gap follows an expanding affine map each step, so the
    only orbit that stays in (0, 1) is the periodic one: the gap at the
    start of the driving part must be the fixed point of the composed
    period map, which is a linear equation in a.
    """
    u = _initial_gap(example)
    for step in TEMPLATES[example]["prefix"]:
        u = _step(example, u, step)
    # compose the period map v -> A*v + (B + C*a) on a symbolic v
    A, B, C = F(1), F(0), F(0)
    m, _ = SYSTEMS[example]
    for bit in pattern:
        swap, left, right = TEMPLATES[example]["options"][int(bit)]
        sign = -1 if swap else 1
        shift = _step(example, (F(0), F(0)), (False, left, right))
        A, B, C = m * sign * A, m * sign * B + shift[0], m * sign * C + shift[1]
    # u0 + u1*a = A*(u0 + u1*a) + B + C*a
    a = (B - (1 - A) * u[0]) / ((1 - A) * u[1] - C)
    for lo, hi in parameter_windows(example, f"periodic:{pattern}", 60):
        if not lo <= a <= hi:
            raise ValueError("periodic limit escapes the refinement windows")
    return a


def offsets_at(example: int, r: F) -> list[F]:
    _, offsets = SYSTEMS[example]
    return [p + q * r for p, q in offsets]


def admissible(example: int, r: F) -> bool:
    m, _ = SYSTEMS[example]
    return all(0 <= d <= 1 - F(1, m) for d in offsets_at(example, r))


def _integer_system(example: int, r: F):
    """Offsets scaled to integers: displacement v is represented by v*D."""
    m, _ = SYSTEMS[example]
    ds = offsets_at(example, r)
    scale = lcm(*(d.denominator for d in ds))
    return m, [int(d * scale) for d in ds], scale


def _extrapolate(first_sets, levels: int, value):
    """Apply ``value`` to level sets 1..levels of an eventually cyclic chain."""
    seen: dict = {}
    values: list = []
    for index, current in enumerate(first_sets):
        if current in seen:
            start = seen[current]
            period = index - start
            return [values[k] if k < index else values[start + (k - start) % period]
                    for k in range(levels)]
        if index == levels:
            return values
        seen[current] = index
        values.append(value(current))
    return values


def rational_type_counts(example: int, r: F, levels: int) -> list[int]:
    """Distinct convex neighbourhood types per level at a rational a."""
    m, ds, scale = _integer_system(example, r)
    moves = [[dj - di for dj in ds] for di in ds]

    def successor(state: frozenset, i: int) -> frozenset:
        return frozenset(
            child for v in state for shift in moves[i]
            if -scale < (child := m * (v + shift)) < scale
        )

    def chain():
        current = frozenset({frozenset({0})})
        while True:
            current = frozenset(successor(s, i) for s in current for i in range(len(ds)))
            yield current

    return _extrapolate(chain(), levels, len)


def rational_level_minima(example: int, r: F, levels: int) -> list[F | None]:
    """Smallest nonzero |displacement| strictly inside (-1, 1), per level."""
    m, ds, scale = _integer_system(example, r)
    shifts = sorted({dj - di for di in ds for dj in ds})

    def chain():
        current = frozenset({0})
        while True:
            current = frozenset(
                child for v in current for shift in shifts
                if -scale < (child := m * (v + shift)) < scale
            )
            yield current

    def minimum(values: frozenset):
        nonzero = [abs(v) for v in values if v]
        return F(min(nonzero), scale) if nonzero else None

    return _extrapolate(chain(), levels, minimum)


def overlap_pair_counts(levels: int) -> list[int]:
    """Unordered word pairs of example 2 indexing one map, per level 1..levels.

    With ``15``/``23`` as the only primitive overlap, two words index the
    same map exactly when they differ by swapping some occurrences of
    ``15`` and ``23``.  Those occurrences never overlap each other and a
    swap creates or destroys none, so a word with t occurrences has a
    class of 2**t words.  Counting words by t gives the pairs.
    """
    tiles = {(1, 5), (2, 3)}
    # by_last[s][t]: words ending in symbol s with t occurrences
    by_last = {s: {0: 1} for s in range(1, 6)}
    counts = [0]
    for _ in range(2, levels + 1):
        nxt = {s: {} for s in range(1, 6)}
        for last, table in by_last.items():
            for t, n in table.items():
                for s in range(1, 6):
                    t2 = t + ((last, s) in tiles)
                    nxt[s][t2] = nxt[s].get(t2, 0) + n
        by_last = nxt
        counts.append(sum(n * (2**t - 1) for table in by_last.values()
                          for t, n in table.items()) // 2)
    return counts[:levels]


def interval_minimum(example: int, sequence: str, levels: int, digits: int) -> str:
    """Smallest nonzero |displacement| over levels 1..levels, rounded.

    A breadth-first search over displacement forms p + q*a, with every
    sign read off a parameter window narrow enough to decide it.
    """
    m, offsets = SYSTEMS[example]
    shifts = {(dj[0] - di[0], dj[1] - di[1]) for di in offsets for dj in offsets}
    lo, hi = parameter_windows(example, sequence, 200)[-1]

    def sign(p: F, q: F) -> int:
        ends = (p + q * lo, p + q * hi)
        if min(ends) > 0:
            return 1
        if max(ends) < 0:
            return -1
        if p == 0 and q == 0:
            return 0
        raise ValueError("window too wide to decide a sign")

    current = {(F(0), F(0))}
    best = None
    for _ in range(levels):
        current = {
            (cp, cq) for p, q in current for sp, sq in shifts
            for cp, cq in [(m * (p + sp), m * (q + sq))]
            if sign(cp + 1, cq) > 0 and sign(1 - cp, -cq) > 0
        }
        for p, q in current:
            if p == 0 and q == 0:
                continue
            if sign(p, q) < 0:
                p, q = -p, -q
            if best is None or sign(p - best[0], q - best[1]) < 0:
                best = (p, q)
    return round_half_even(best[0] + best[1] * lo, digits)
