"""Quantum symbols: finite vocabularies one-hot-mapped onto basis vectors.

A vocabulary of d distinct symbols spans a d-dimensional state space, with
symbol i encoded as the basis vector |i⟩. On top of that sit probabilistic
symbol ensembles, grammar-closure validation for strings over a symbol set,
and the horizontal/vertical entropy-scaling calculators (entropy growth with
string length at fixed base versus growth with base at fixed length).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Mapping, Sequence, Tuple

from .errors import (
    DimensionMismatchError,
    DuplicateSymbolError,
    EmptyVocabularyError,
    MalformedTokenError,
    ProbabilityMismatchError,
    SourceEncodingError,
    UnknownSymbolError,
)

if TYPE_CHECKING:
    from .qla import DensityMatrix, StateVector

# a namespaced symbol ``ns:Value``: the form of every token in the source files
TOKEN_PATTERN = re.compile(r"[A-Za-z][A-Za-z0-9_]*:[A-Za-z0-9_]+")


# the only separators in a source line; any other character, other Unicode spaces
# included, belongs to the token or field it touches
SEPARATORS = " \t"


def _split_lines(text: str) -> list[str]:
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def read_source(path: str | Path, split_lines: Callable[[str], list] = _split_lines) -> str:
    """The text of a UTF-8 source file, without a leading byte-order mark and
    with its line ends as written.

    Bytes that are not UTF-8 raise ``SourceEncodingError`` at the line and
    column of the first one, counting the lines that ``split_lines`` splits.
    """
    try:
        return Path(path).read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # exc.object is the file after its byte-order mark, valid UTF-8 up to exc.start
        lines = split_lines(exc.object[: exc.start].decode("utf-8"))
        raise SourceEncodingError(
            f"byte 0x{exc.object[exc.start]:02x} is not UTF-8 ({exc.reason})",
            len(lines),
            len(lines[-1]) + 1,
        ) from None


def source_lines(text: str) -> Iterator[Tuple[int, str]]:
    """(line number, line) for each line of a source file that is neither
    blank nor a ``#`` comment. Only LF, CR LF and CR end a line, and only
    ``SEPARATORS`` make a line blank."""
    for lineno, line in enumerate(_split_lines(text), start=1):
        stripped = line.lstrip(SEPARATORS)
        if stripped and not stripped.startswith("#"):
            yield lineno, line


def _check_symbol(symbol: str) -> str:
    if not isinstance(symbol, str):
        raise ValueError(f"symbols must be str, got {symbol!r}")
    if not symbol:
        raise ValueError("symbols must be non-empty")
    if symbol.split() != [symbol]:
        raise ValueError(f"symbols must not contain whitespace: {symbol!r}")
    return symbol


@dataclass(frozen=True)
class Vocabulary:
    """Ordered set of distinct symbols; position in ``entries`` is the basis index."""

    entries: Tuple[str, ...]
    _index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = self.entries
        if not entries:
            raise EmptyVocabularyError("vocabulary needs at least one symbol")
        try:  # C-level checks first: each entry one whitespace-free word, no entry twice
            index = dict(zip(entries, range(len(entries)))) \
                if " ".join(entries).split() == list(entries) else {}
        except TypeError:  # an entry that is not a str
            index = {}
        if len(index) != len(entries):  # the loop names the first fault
            index = {}
            for i, symbol in enumerate(entries):
                _check_symbol(symbol)
                if symbol in index:
                    raise DuplicateSymbolError(f"duplicate symbol {symbol!r}")
                index[symbol] = i
        object.__setattr__(self, "_index", index)

    @property
    def d(self) -> int:
        return len(self.entries)

    def index(self, symbol: str) -> int:
        try:
            return self._index[symbol]
        except KeyError:
            raise UnknownSymbolError(f"symbol {symbol!r} not in vocabulary") from None

    def symbol(self, index: int) -> str:
        return self.entries[index]

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._index

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def serialize(self) -> str:
        """Canonical text: one entry per line in basis order, LF endings."""
        return "".join(f"{s}\n" for s in self.entries)


def checked_vocabulary(
    entries: Sequence[str] | Vocabulary, where: Callable[[int], Tuple[int, int]] = lambda k: (k + 1, 1)
) -> Vocabulary:
    """The vocabulary of a file's entries. The first entry, in line order, that is not a
    namespaced token or that repeats an earlier one raises at ``where(k)``, the (line, column)
    of entry k: by default line k + 1, column 1, as in a canonical file. A ``Vocabulary``
    whose entries are all tokens is returned as it is."""
    if all(map(TOKEN_PATTERN.fullmatch, entries)):  # C-level checks; the loop below only names a fault
        try:
            return entries if isinstance(entries, Vocabulary) else Vocabulary(tuple(entries))
        except DuplicateSymbolError:
            pass
    first = {}  # entry -> its first position
    for k, entry in enumerate(entries):
        if not TOKEN_PATTERN.fullmatch(entry):
            raise MalformedTokenError(f"vocabulary entry {entry!r} is not a namespaced symbol", *where(k))
        if first.setdefault(entry, k) != k:
            raise DuplicateSymbolError(f"duplicate symbol {entry!r}", *where(k))
    return Vocabulary(tuple(entries))


@dataclass(frozen=True)
class Qusym:
    """A vocabulary together with a state over its basis vectors."""

    vocabulary: Vocabulary
    state: StateVector

    def __post_init__(self):
        if self.state.dim != self.vocabulary.d:
            raise DimensionMismatchError(
                f"state dim {self.state.dim} != vocabulary size {self.vocabulary.d}"
            )


def vocabulary_from_symbols(symbols: Iterable[str]) -> Vocabulary:
    """Build a vocabulary mapping symbol i to basis vector |i⟩."""
    return Vocabulary(tuple(symbols))


def encode_symbol(voc: Vocabulary, symbol: str) -> Qusym:
    """One-hot encode a symbol as the pure basis state at its index."""
    from .qla import basis_state

    return Qusym(voc, basis_state(voc.d, voc.index(symbol)))


def qusym_ensemble(voc: Vocabulary, weights: Mapping[str, float]) -> DensityMatrix:
    """Diagonal density matrix of a probabilistic selection over the vocabulary.

    ``weights`` maps symbols to selection probabilities (missing symbols get
    0); they must be non-negative and sum to 1 within tolerance. A dense
    reference, d² memory and an O(d³) eigensolve for its entropy, that no CLI
    command or script reaches.
    """
    import numpy as np

    from .qla import NORM_TOL, DensityMatrix

    probs = np.zeros(voc.d, dtype=float)
    for symbol, p in weights.items():
        if not p >= 0:  # NaN fails it
            raise ProbabilityMismatchError(f"weight for {symbol!r} must be a non-negative number, got {p!r}")
        probs[voc.index(symbol)] = p
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= NORM_TOL:
        raise ProbabilityMismatchError(f"weights sum to {total!r}, expected 1")
    return DensityMatrix(np.diag(probs / total).astype(complex))


def log_of_base(base: float) -> float:
    """Natural logarithm of an entropy base; the base must be a finite number above 1."""
    if not 1.0 < base < math.inf:  # NaN fails both comparisons
        raise ValueError(f"logarithm base must be a finite number above 1, got {base!r}")
    return math.log(base)


def uniform_entropy(d: int, base: float = 2.0) -> float:
    """``log_base d``: the entropy of a uniform draw over d outcomes.

    Equals the von Neumann entropy of the maximally mixed d x d state.
    """
    return math.log(d) / log_of_base(base)


@dataclass(frozen=True)
class StringEntropy:
    """Entropy (bits) of a string of given length over a base-d symbol set,
    plus the exact count of such strings."""

    bits: float
    count: int


def string_entropy(length: int, base: int) -> StringEntropy:
    """Total information of a length-L string over d symbols: L·log2(d) bits.

    ``count`` is the exact number of distinct strings, d**L (arbitrary
    precision, never overflows).
    """
    if length < 1:
        raise ValueError(f"length must be positive, got {length}")
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    return StringEntropy(bits=length * math.log2(base), count=base**length)


@dataclass(frozen=True)
class ScalingRow:
    length: int
    base: int
    entropy_bits: float
    string_count: int


def scaling_table(lengths: Sequence[int], bases: Sequence[int]) -> Tuple[ScalingRow, ...]:
    """Cross product of lengths and bases with entropy and string count per cell.

    Rows grow exponentially along the length axis at fixed base (horizontal
    scaling) and as a power law along the base axis at fixed length
    (vertical scaling).
    """
    if not lengths or not bases:
        raise ValueError("lengths and bases must be non-empty")
    rows = []
    for length in lengths:
        for base in bases:
            se = string_entropy(length, base)
            rows.append(ScalingRow(length, base, se.bits, se.count))
    return tuple(rows)


@dataclass(frozen=True)
class Grammar:
    """Symbol set plus named closure rules a string must satisfy.

    Rules are checked in declaration order; each is a named predicate over
    the full candidate string.
    """

    symbols: frozenset
    rules: Tuple[Tuple[str, Callable[[str], bool]], ...] = ()

    def __post_init__(self):
        for symbol in self.symbols:
            _check_symbol(symbol)


@dataclass(frozen=True)
class StringValidation:
    accepted: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.accepted


def validate_string(grammar: Grammar, candidate: str) -> StringValidation:
    """Accept iff the candidate factors into grammar symbols and all rules pass.

    Membership uses dynamic programming over string positions, so multi-
    character symbols are handled exactly (no greedy-match false rejects).
    Rejections carry the first failure: either the position where no symbol
    matches or the name of the first failing rule.
    """
    symbols = sorted(grammar.symbols, key=len, reverse=True)
    reachable = [False] * (len(candidate) + 1)
    reachable[0] = True
    furthest = 0
    for i in range(len(candidate)):
        if not reachable[i]:
            continue
        furthest = max(furthest, i)
        for symbol in symbols:
            if candidate.startswith(symbol, i):
                reachable[i + len(symbol)] = True
    if not reachable[len(candidate)]:
        at = max(furthest, 0)
        return StringValidation(
            False, f"no vocabulary symbol matches {candidate!r} at position {at}"
        )
    for name, predicate in grammar.rules:
        if not predicate(candidate):
            return StringValidation(False, f"rule {name!r} failed")
    return StringValidation(True)


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Read a vocabulary file: one symbol per line, ``#`` lines are comments,
    spaces and tabs around a symbol are dropped.

    Symbol lines are numbered consecutively (comments and blanks skipped),
    and that position is the basis index. ``checked_vocabulary`` rejects the
    first entry, in line order, that is not a namespaced token, the only form
    a triple can name, or that repeats an earlier one, at its line and column.
    """
    lines = list(source_lines(read_source(path)))
    entries = [raw.strip(SEPARATORS) for _, raw in lines]
    return checked_vocabulary(entries, lambda k: (lines[k][0], lines[k][1].find(entries[k]) + 1))


def save_vocabulary(voc: Vocabulary, path: str | Path) -> None:
    """Write entries one per line in basis order (canonical form, LF endings)."""
    Path(path).write_text(voc.serialize(), encoding="utf-8")
