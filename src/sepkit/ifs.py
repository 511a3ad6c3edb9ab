"""Words, equicontractive map families and cylinder geometry.

A system is a finite family S_i(x) = x/m + d_i of orientation-preserving
contractions with one shared ratio 1/m; offsets d_i may depend affinely
on the parameter ``a``.  Words over the 1-based alphabet {1..n} index
compositions; all cylinder arithmetic stays in ``AffineExpr`` form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exact import AFFINE_ZERO, AffineExpr, Param, rational_to_str


#: Byte-to-digit table for words whose symbols are all at most 9.
_DIGITS = bytes.maketrans(bytes(range(10)), b"0123456789")
#: The symbols a word can write as one digit each.
_ONE_DIGIT = bytes(range(10))

#: The largest symbol, and so the largest alphabet, a word can hold.
MAX_SYMBOL = 255


@dataclass(frozen=True, order=True)
class Word:
    """Finite word over {1..n}; concatenation is associative, () is identity.

    The symbols are stored as ``bytes``, one byte per symbol, so
    appending and concatenating copy bytes and ordering compares them
    in C.  Any other iterable of ints in 0..255 is converted on
    construction.
    """

    symbols: bytes = b""

    def __post_init__(self):
        if type(self.symbols) is not bytes:
            object.__setattr__(self, "symbols", _symbol_bytes(self.symbols))

    @staticmethod
    def of(*symbols: int) -> "Word":
        return Word(symbols)

    @staticmethod
    def parse(text: str) -> "Word":
        """Parse the string form: digit string, or comma-separated symbols.

        One trailing comma is allowed; ``str`` writes one after a lone
        symbol of 10 or more, so that ``"10,"`` is one symbol, not ``1, 0``.
        """
        text = text.strip()
        if not text:
            return Word()
        if "," in text:
            return Word([int(part) for part in text.removesuffix(",").split(",")])
        return Word([int(ch) for ch in text])

    def __len__(self) -> int:
        return len(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.symbols + other.symbols)

    def append(self, symbol: int) -> "Word":
        return Word(self.symbols + _symbol_bytes((symbol,)))

    def __str__(self) -> str:
        return word_text(self.symbols)


def word_text(symbols: bytes) -> str:
    """The string form of a word's symbol bytes, which ``Word.parse`` reads back.

    A digit string when every symbol is at most 9; otherwise the symbols
    comma-separated, with a trailing comma after a lone symbol.
    """
    if symbols.translate(None, _ONE_DIGIT):
        return ",".join(map(str, symbols)) + ("," if len(symbols) == 1 else "")
    return symbols.translate(_DIGITS).decode()


def _symbol_bytes(symbols) -> bytes:
    try:
        return bytes(symbols)
    except ValueError:
        raise ValueError(
            f"word symbols must lie in 0..{MAX_SYMBOL}: a word stores one byte per symbol"
        ) from None


EMPTY_WORD = Word()


@dataclass(frozen=True)
class IfsSystem:
    """Equicontractive family S_i(x) = x/m + d_i, i = 1..n.

    Only positive-orientation maps are representable; the ratio is the
    reciprocal of ``ratio_denominator``.  Offset validity at a concrete
    parameter point is checked by :func:`validate_system`, not here, so
    that invalid configurations can be constructed and then reported.
    """

    ratio_denominator: int
    offsets: tuple[AffineExpr, ...]
    name: str = "ifs"

    def __post_init__(self):
        if self.ratio_denominator < 2:
            raise ValueError("ratio denominator must be >= 2")
        if not self.offsets:
            raise ValueError("need at least one map")
        if len(self.offsets) > MAX_SYMBOL:
            raise ValueError(
                f"{len(self.offsets)} maps: at most {MAX_SYMBOL} are supported, "
                "since a word stores one byte per symbol"
            )

    @property
    def alphabet_size(self) -> int:
        return len(self.offsets)

    @property
    def symbols(self) -> range:
        return range(1, len(self.offsets) + 1)

    @property
    def ratio(self) -> Fraction:
        return Fraction(1, self.ratio_denominator)

    def offset(self, symbol: int) -> AffineExpr:
        if not 1 <= symbol <= len(self.offsets):
            raise ValueError(f"symbol {symbol} out of range 1..{len(self.offsets)}")
        return self.offsets[symbol - 1]

    def words(self, length: int):
        """All words of the given length, in lexicographic order."""
        if length == 0:
            yield EMPTY_WORD
            return
        for prefix in self.words(length - 1):
            for s in self.symbols:
                yield prefix.append(s)

    def to_json(self) -> dict:
        return {
            "ratio_denominator": self.ratio_denominator,
            "offsets": [d.to_json() for d in self.offsets],
        }

    @staticmethod
    def from_json(data: dict, name: str = "ifs") -> "IfsSystem":
        return IfsSystem(
            int(data["ratio_denominator"]),
            tuple(AffineExpr.from_json(entry) for entry in data["offsets"]),
            name=name,
        )


@dataclass(frozen=True)
class Cylinder:
    """Image of [0,1] under the composition indexed by ``word``."""

    word: Word
    left: AffineExpr
    right: AffineExpr


def apply_map(sys: IfsSystem, symbol: int, x: AffineExpr) -> AffineExpr:
    """S_symbol(x) = x/m + d_symbol."""
    return x.scale(Fraction(1, sys.ratio_denominator)) + sys.offset(symbol)


def map_at_zero(sys: IfsSystem, word: Word) -> AffineExpr:
    """S_word(0) = sum over positions i of d_{s_i} / m^(i-1), exactly.

    Computed right to left: S_{s w'}(0) = S_s(S_{w'}(0)).
    """
    acc = AFFINE_ZERO
    for s in reversed(word.symbols):
        acc = apply_map(sys, s, acc)
    return acc


def translation_amount(sys: IfsSystem, sigma: Word, tau: Word) -> AffineExpr:
    """The translation amount of S_sigma^{-1} o S_tau for equal lengths.

    Equals m^k (S_tau(0) - S_sigma(0)); antisymmetric in its arguments.
    """
    if len(sigma) != len(tau):
        raise ValueError("translation amount needs equal-length words")
    k = len(sigma)
    return (map_at_zero(sys, tau) - map_at_zero(sys, sigma)).scale(sys.ratio_denominator**k)


def cylinder(sys: IfsSystem, word: Word) -> Cylinder:
    left = map_at_zero(sys, word)
    width = Fraction(1, sys.ratio_denominator ** len(word))
    return Cylinder(word, left, left.shift(width))


@dataclass(frozen=True)
class ValidationCheck:
    label: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"label": self.label, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    checks: tuple[ValidationCheck, ...]

    def to_json(self) -> dict:
        return {"valid": self.valid, "checks": [c.to_json() for c in self.checks]}


def validate_system(sys: IfsSystem, pt: Param) -> ValidationReport:
    """Check the shape invariants of a system at a parameter point.

    Verifies 0 <= d_i <= 1 - 1/m for every offset (so the attractor
    stays inside [0,1]), d_1 = 0 and d_n = 1 - 1/m (so 0 and 1 belong
    to the attractor and its hull is all of [0,1]).  Oracle failures
    propagate as ``Undecided``.
    """
    top = Fraction(1) - sys.ratio
    checks: list[ValidationCheck] = []
    for i, d in enumerate(sys.offsets, start=1):
        lower_ok = pt.sign(d) >= 0
        checks.append(ValidationCheck(f"offset {i} >= 0", lower_ok, str(d)))
        upper_ok = pt.sign(AffineExpr.constant(top) - d) >= 0
        checks.append(
            ValidationCheck(f"offset {i} <= {rational_to_str(top)}", upper_ok, str(d))
        )
    checks.append(
        ValidationCheck("first offset is 0", sys.offsets[0] == AFFINE_ZERO)
    )
    checks.append(
        ValidationCheck(
            f"last offset is {rational_to_str(top)}",
            sys.offsets[-1] == AffineExpr.constant(top),
        )
    )
    return ValidationReport(all(c.passed for c in checks), tuple(checks))
