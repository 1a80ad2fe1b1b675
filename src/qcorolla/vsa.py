"""Vector Symbolic Architecture operators over binary hypervectors.

XOR binding is commutative and exactly invertible (unbinding is the same
elementwise XOR). Tensor binding maps the bits through the bipolar
encoding {0 -> -1, 1 -> +1} and forms the full n x n outer product, which
is generally non-commutative; ``compress_outer`` folds it back to
dimension n by summing anti-diagonals (circular convolution) and
thresholding on the sign, with ties going to 0.

Hypervectors serialize as hex strings, four bits per character with the
first bit most significant, for CLI interchange.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError

_HEX_BITS = {ch: [int(bit) for bit in f"{int(ch, 16):04b}"] for ch in "0123456789abcdefABCDEF"}


def _frozen_bits(values) -> np.ndarray:
    bits = np.asarray(values, dtype=np.uint8)
    if bits.ndim != 1 or bits.size < 1:
        raise ValueError("hypervector needs at least one bit")
    if np.any(bits > 1):
        raise ValueError("hypervector bits must be 0 or 1")
    bits = bits.copy()
    bits.setflags(write=False)
    return bits


@dataclass(frozen=True, eq=False)
class HyperVector:
    """Fixed-dimension binary vector; all operands in an operation share n."""

    bits: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "bits", _frozen_bits(self.bits))

    @property
    def n(self) -> int:
        return self.bits.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, HyperVector):
            return NotImplemented
        return self.n == other.n and bool(np.array_equal(self.bits, other.bits))

    def __hash__(self) -> int:
        return hash((self.n, self.bits.tobytes()))

    def to_hex(self) -> str:
        """Hex serialization, 4 bits per character, most significant first.

        When n is not a multiple of 4 the last character is padded with
        zero bits in its low positions.
        """
        padded = np.zeros(-(-self.n // 4) * 4, dtype=np.uint8)
        padded[: self.n] = self.bits
        nibbles = padded.reshape(-1, 4) @ np.array([8, 4, 2, 1], dtype=np.uint8)
        return "".join(f"{v:x}" for v in nibbles)

    @classmethod
    def from_hex(cls, text: str, n: int | None = None) -> "HyperVector":
        """Parse a hex serialization of ASCII ``0-9a-fA-F``; ``n`` defaults to 4 bits per character."""
        if not text:
            raise ValueError("empty hex string")
        for at, ch in enumerate(text, 1):
            if ch not in _HEX_BITS:
                raise ValueError(f"{ch!r} (U+{ord(ch):04X}) at position {at} is not a hex digit 0-9, a-f or A-F")
        bits = np.array([bit for ch in text for bit in _HEX_BITS[ch]], dtype=np.uint8)
        size = 4 * len(text) if n is None else n
        if size < 1 or size > bits.size:
            raise ValueError(f"cannot take {size} bits from {len(text)} hex characters")
        return cls(bits[:size])

    @classmethod
    def zero(cls, n: int) -> "HyperVector":
        return cls(np.zeros(n, dtype=np.uint8))


@dataclass(frozen=True, eq=False)
class OuterProduct:
    """n x n matrix of bipolar bit products from tensor binding."""

    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries)
        if not np.issubdtype(mat.dtype, np.integer):
            mat = mat.astype(np.int64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise DimensionMismatchError(f"outer product must be square, got {mat.shape}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def n(self) -> int:
        return self.entries.shape[0]


def _check_same_n(a: HyperVector, b: HyperVector) -> int:
    if a.n != b.n:
        raise DimensionMismatchError(f"operand dimensions differ: {a.n} vs {b.n}")
    return a.n


def random_hypervector(n: int, seed: int) -> HyperVector:
    """I.i.d. uniform bits from a per-call PCG64 generator."""
    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    rng = np.random.default_rng(seed)
    return HyperVector(rng.integers(0, 2, size=n, dtype=np.uint8))


def bind_xor(a: HyperVector, b: HyperVector) -> HyperVector:
    """Elementwise XOR; commutative, dimension-preserving binding."""
    _check_same_n(a, b)
    return HyperVector(np.bitwise_xor(a.bits, b.bits))


def unbind_xor(a: HyperVector, c: HyperVector) -> HyperVector:
    """XOR unbinding: ``unbind_xor(a, bind_xor(a, b)) == b`` exactly."""
    return bind_xor(a, c)


def _bipolar(bits: np.ndarray) -> np.ndarray:
    return (bits.astype(np.int8) << 1) - 1


def bind_tensor(a: HyperVector, b: HyperVector) -> OuterProduct:
    """Bipolar outer product; dimensionality n², generally non-commutative."""
    _check_same_n(a, b)
    return OuterProduct(np.outer(_bipolar(a.bits), _bipolar(b.bits)))


def compress_outer(op: OuterProduct) -> HyperVector:
    """Fold an n x n product back to n bits by circular convolution.

    Component k is the sign of the sum over entries with i + j = k (mod n),
    mapped to a bit: positive -> 1, zero or negative -> 0. The sums are
    exact int64 sums, and no n x n index or float array is built.
    """
    n = op.n
    wide = np.concatenate((op.entries, op.entries), axis=1)
    row, col = wide.strides
    # row i of this view starts at column n - i of [E | E], so column k of it
    # holds E[i, (k - i) mod n]: the whole anti-diagonal k runs down column k
    diagonals = np.lib.stride_tricks.as_strided(
        wide[:, n:], shape=(n, n), strides=(row - col, col), writeable=False
    )
    sums = diagonals.sum(axis=0, dtype=np.int64)
    return HyperVector((sums > 0).astype(np.uint8))


def similarity(a: HyperVector, b: HyperVector) -> float:
    """Fraction of agreeing positions, in [0, 1]."""
    n = _check_same_n(a, b)
    return float(np.count_nonzero(a.bits == b.bits)) / n


def bundle_majority(vectors: Sequence[HyperVector] | Iterable[HyperVector]) -> HyperVector:
    """Majority-vote superposition of hypervectors; ties resolve to 0.

    Extension utility beyond the core binding algebra.
    """
    vs = list(vectors)
    if not vs:
        raise ValueError("cannot bundle an empty sequence")
    n = vs[0].n
    for v in vs:
        if v.n != n:
            raise DimensionMismatchError("bundled vectors must share one dimension")
    totals = np.sum([v.bits.astype(np.int64) for v in vs], axis=0)
    return HyperVector((2 * totals > len(vs)).astype(np.uint8))
