"""Vector Symbolic Architecture operators over binary hypervectors.

A hypervector of dimension n is held as one Python int: bit i of the
vector is bit n - 1 - i of the int, the order of its hex string. XOR
binding, equality, hashing, similarity and hex serialization are integer
operations; the uint8 array ``HyperVector.bits`` is built, with numpy,
only when read.

XOR binding is commutative and exactly invertible (unbinding is the same
elementwise XOR). Tensor binding maps the bits through the bipolar
encoding {0 -> -1, 1 -> +1}; its n x n outer product is generally
non-commutative. ``compress_outer`` folds it back to dimension n by
summing anti-diagonals (circular convolution) and thresholding on the
sign, with ties going to 0: Plate's compressed tensor binding
("Holographic Reduced Representations", IEEE Trans. Neural Networks 6(3),
1995). A product made by ``bind_tensor`` keeps its two factors and is
folded in closed form by one big-int multiplication, so neither the n²
matrix nor numpy is needed; the matrix (``OuterProduct.entries``) is built
only when read, and an ``OuterProduct`` given an explicit matrix is folded
from it as the dense reference.

Hypervectors serialize as hex strings, four bits per character with the
first bit most significant, for CLI interchange.
"""

from __future__ import annotations

import functools
import sys
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence, Tuple

from .errors import DimensionMismatchError

if TYPE_CHECKING:
    import numpy as np

_HEX_DIGITS = frozenset("0123456789abcdefABCDEF")
_BIT_CHAR = {0: "0", 1: "1"}
_ASCII_BIT = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True, init=False, repr=False)
class HyperVector:
    """Fixed-dimension binary vector; all operands in an operation share n.

    ``HyperVector(bits)`` takes a sequence of 0/1 values, first bit first.
    """

    n: int
    value: int

    def __init__(self, bits: Iterable[int]):
        try:
            text = "".join([_BIT_CHAR[bit] for bit in bits])
        except (KeyError, TypeError):
            raise ValueError("hypervector bits must be 0 or 1") from None
        if not text:
            raise ValueError("hypervector needs at least one bit")
        object.__setattr__(self, "n", len(text))
        object.__setattr__(self, "value", int(text, 2))

    @classmethod
    def _of(cls, n: int, value: int) -> "HyperVector":
        hv = cls.__new__(cls)
        object.__setattr__(hv, "n", n)
        object.__setattr__(hv, "value", value)
        return hv

    @functools.cached_property
    def bits(self) -> "np.ndarray":
        """Read-only uint8 array of the n bits: the dense view, built on first read."""
        import numpy as np

        return np.frombuffer(self._digits(), dtype=np.uint8)  # over immutable bytes, so read-only

    def _digits(self) -> bytes:
        """The n bits as bytes 0 or 1, first bit first."""
        return f"{self.value:0{self.n}b}".encode().translate(_ASCII_BIT)

    def __repr__(self) -> str:
        # the value's decimal form would pass int's 4300-digit conversion limit from about 14 000 bits
        return f"HyperVector.from_hex({self.to_hex()!r}, n={self.n})"

    def to_hex(self) -> str:
        """Hex serialization, 4 bits per character, most significant first.

        When n is not a multiple of 4 the last character is padded with
        zero bits in its low positions.
        """
        width = -(-self.n // 4)
        return f"{self.value << (4 * width - self.n):0{width}x}"

    @classmethod
    def from_hex(cls, text: str, n: int | None = None) -> "HyperVector":
        """Parse a hex serialization of ASCII ``0-9a-fA-F``; ``n`` defaults to 4 bits per character."""
        if not text:
            raise ValueError("empty hex string")
        # int(text, 16) would also take '_', a 0x prefix, whitespace and any Unicode digit
        for at, ch in enumerate(text, 1):
            if ch not in _HEX_DIGITS:
                raise ValueError(f"{ch!r} (U+{ord(ch):04X}) at position {at} is not a hex digit 0-9, a-f or A-F")
        available = 4 * len(text)
        size = available if n is None else n
        if size < 1 or size > available:
            raise ValueError(f"cannot take {size} bits from {len(text)} hex characters")
        return cls._of(size, int(text, 16) >> (available - size))

    @classmethod
    def zero(cls, n: int) -> "HyperVector":
        if n < 1:
            raise ValueError("hypervector needs at least one bit")
        return cls._of(n, 0)


@dataclass(frozen=True, eq=False, init=False)
class OuterProduct:
    """n x n matrix of bipolar bit products from tensor binding.

    ``OuterProduct(entries)`` holds an explicit integer matrix. A product
    made by ``bind_tensor`` holds its two ``factors`` instead and builds
    ``entries`` only when it is read.
    """

    n: int
    factors: Tuple[HyperVector, HyperVector] | None

    def __init__(self, entries):
        import numpy as np

        mat = np.asarray(entries)
        if not np.issubdtype(mat.dtype, np.integer):
            mat = mat.astype(np.int64)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise DimensionMismatchError(f"outer product must be square, got {mat.shape}")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "n", mat.shape[0])
        object.__setattr__(self, "factors", None)
        self.__dict__["entries"] = mat

    @classmethod
    def _of(cls, a: HyperVector, b: HyperVector) -> "OuterProduct":
        op = cls.__new__(cls)
        object.__setattr__(op, "n", a.n)
        object.__setattr__(op, "factors", (a, b))
        return op

    @functools.cached_property
    def entries(self) -> "np.ndarray":
        """The n x n matrix, int8 for a factored product: the dense view, n² memory,
        that no CLI command or script reaches (``bind --tensor`` folds by ``compress_outer``)."""
        import numpy as np

        a, b = self.factors
        mat = np.outer(_bipolar(a.bits), _bipolar(b.bits))
        mat.setflags(write=False)
        return mat


def _check_same_n(a: HyperVector, b: HyperVector) -> int:
    if a.n != b.n:
        raise DimensionMismatchError(f"operand dimensions differ: {a.n} vs {b.n}")
    return a.n


def random_hypervector(n: int, seed: int) -> HyperVector:
    """I.i.d. uniform bits from a per-call PCG64 generator."""
    import numpy as np

    if n < 1:
        raise ValueError(f"dimension must be positive, got {n}")
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    return HyperVector._of(n, int((bits + ord("0")).tobytes(), 2))


def bind_xor(a: HyperVector, b: HyperVector) -> HyperVector:
    """Elementwise XOR; commutative, dimension-preserving binding."""
    n = _check_same_n(a, b)
    return HyperVector._of(n, a.value ^ b.value)


def unbind_xor(a: HyperVector, c: HyperVector) -> HyperVector:
    """XOR unbinding: ``unbind_xor(a, bind_xor(a, b)) == b`` exactly."""
    return bind_xor(a, c)


def _bipolar(bits: "np.ndarray") -> "np.ndarray":
    return (bits.astype("int8") << 1) - 1


def bind_tensor(a: HyperVector, b: HyperVector) -> OuterProduct:
    """Bipolar outer product; dimensionality n², generally non-commutative."""
    _check_same_n(a, b)
    return OuterProduct._of(a, b)


def compress_outer(op: OuterProduct) -> HyperVector:
    """Fold an n x n product back to n bits by circular convolution.

    Component k is the sign of the sum over entries with i + j = k (mod n),
    mapped to a bit: positive -> 1, zero or negative -> 0. The sums are
    exact. A factored product is folded in closed form; an explicit matrix
    by exact int64 sums over a strided view of it.
    """
    if op.factors is None:
        return _fold_entries(op.entries)
    return _fold_factors(*op.factors)


def _fold_factors(a: HyperVector, b: HyperVector) -> HyperVector:
    """Closed-form fold of the bipolar product of ``a`` and ``b``.

    With x = 2a - 1 and y = 2b - 1, anti-diagonal k sums to
    4·s_k - 2|a| - 2|b| + n, where |a| and |b| are popcounts and s_k counts
    the pairs i + j = k (mod n) with a_i = b_j = 1. Bit i of each operand
    goes into field i of a little-endian int of fixed-width fields, so the
    product of the two ints has c_m = #{i + j = m : a_i = b_j = 1} in field
    m, and s_k = c_k + c_{k+n}. A c_m is at most n, so a field holds it
    without a carry into the next when it has n.bit_length() bits.
    """
    n = a.n
    code = next(code for code in "BHILQ" if 8 * array(code).itemsize >= n.bit_length())
    width = array(code).itemsize
    fields = []
    for v in (a, b):
        spread = bytearray(n * width)
        spread[::width] = v._digits()
        fields.append(int.from_bytes(spread, "little"))
    coeffs = array(code, (fields[0] * fields[1]).to_bytes(2 * n * width, "little"))
    if sys.byteorder == "big":
        coeffs.byteswap()
    limit = 2 * (a.value.bit_count() + b.value.bit_count()) - n
    bits = "".join("1" if 4 * (low + high) > limit else "0" for low, high in zip(coeffs, coeffs[n:]))
    return HyperVector._of(n, int(bits, 2))


def _fold_entries(entries: "np.ndarray") -> HyperVector:
    """Anti-diagonal sums of an explicit matrix: the dense reference for ``_fold_factors``.

    The sums are exact int64 sums, and no n x n index or float array is built.
    """
    import numpy as np

    n = entries.shape[0]
    wide = np.concatenate((entries, entries), axis=1)
    row, col = wide.strides
    # row i of this view starts at column n - i of [E | E], so column k of it
    # holds E[i, (k - i) mod n]: the whole anti-diagonal k runs down column k
    diagonals = np.lib.stride_tricks.as_strided(
        wide[:, n:], shape=(n, n), strides=(row - col, col), writeable=False
    )
    sums = diagonals.sum(axis=0, dtype=np.int64)
    return HyperVector(sums > 0)


def similarity(a: HyperVector, b: HyperVector) -> float:
    """Fraction of agreeing positions, in [0, 1]."""
    n = _check_same_n(a, b)
    return (n - (a.value ^ b.value).bit_count()) / n


def bundle_majority(vectors: Sequence[HyperVector] | Iterable[HyperVector]) -> HyperVector:
    """Majority-vote superposition of hypervectors; ties resolve to 0.

    Extension utility beyond the core binding algebra.
    """
    import numpy as np

    vs = list(vectors)
    if not vs:
        raise ValueError("cannot bundle an empty sequence")
    n = vs[0].n
    for v in vs:
        if v.n != n:
            raise DimensionMismatchError("bundled vectors must share one dimension")
    totals = np.sum([v.bits.astype(np.int64) for v in vs], axis=0)
    return HyperVector(2 * totals > len(vs))
