"""Physical layer: joint states whose entanglement entropy encodes predicates.

A triple's registered weight p in [0, 1] bits is realized as a two-term
Schmidt state ``√λ |iL⟩⊗|iR⟩ + √(1−λ) |jL⟩⊗|jR⟩`` with λ in [0, 0.5]
solving H2(λ) = p, where H2 is the binary entropy in bits. Two Schmidt
terms are the minimal family covering every entropy in [0, 1], matching
the Bell-state ceiling of one bit.

Also here: the four Bell states, the configurable triple-metapattern to
Bell-state assignment, seeded projective measurement sampling, and the
tessellated rounding of noisy vectors onto a vocabulary basis.

Every draw comes from a generator seeded per call with the caller's seed;
there is no global generator state. A ``JointState`` is sampled by
``pcg64.multinomial``, a plain-Python port of numpy's PCG64 multinomial
sampler, so its counts equal those of ``numpy.random.default_rng(seed)``
on the dense state. Synthesis, entropy, joint-state sampling and rounding
are plain Python: numpy and ``qla`` are imported only by the functions that
build or sample dense vectors.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Dict, Mapping, NamedTuple, Sequence, Tuple

from .errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    UnknownPatternError,
    WeightOutOfRangeError,
    ZeroVectorError,
    read_only,
)
from .qusym import Vocabulary, log_of_base

if TYPE_CHECKING:
    import numpy as np

    from .corolla import CorollaGraph
    from .qla import StateVector

ENTROPY_TOL = 1e-12

# the largest sample count numpy's sampler and its port in pcg64 accept (int64)
MAX_SHOTS = 2**63 - 1

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")

# Placeholder metapattern tags; the tag -> Bell assignment is configuration
# data, with this declaration order fixing the default.
DEFAULT_PATTERN_TAGS = ("pattern-1", "pattern-2", "pattern-3", "pattern-4")

BasisChoice = Tuple[int, int, int, int]


class BellState(NamedTuple):
    """One of the four maximally entangled two-qubit states."""

    label: str
    state: StateVector


class JointState:
    """Two-term Schmidt state ``√λ |iL⟩⊗|iR⟩ + √(1−λ) |jL⟩⊗|jR⟩`` carrying a
    triple's target entanglement entropy (bits).

    Stored in closed form: ``basis`` is ``(iL, jL, iR, jR)`` and ``dims`` is
    ``(d_L, d_R)``. The dense ``d_L·d_R`` amplitudes are built only when
    ``state`` is first read. Read-only; two are equal when these four fields are.
    """

    __setattr__ = read_only

    def __init__(self, lam: float, basis: BasisChoice, dims: Tuple[int, int], target_entropy: float):
        if not 0.0 <= target_entropy <= 1.0:
            raise WeightOutOfRangeError(f"target entropy must lie in [0, 1] bits, got {target_entropy!r}")
        il, jl, ir, jr = basis
        if il == jl or ir == jr:
            raise DegenerateBasisError(f"basis indices must differ per side, got {basis}")
        for index, d in ((il, dims[0]), (jl, dims[0]), (ir, dims[1]), (jr, dims[1])):
            if not 0 <= index < d:
                raise DimensionMismatchError(f"basis index {index} out of range for d={d}")
        if not 0.0 <= lam <= 1.0:
            raise ValueError(f"Schmidt weight must lie in [0, 1], got {lam!r}")
        measured = binary_entropy(lam)
        if abs(measured - target_entropy) > ENTROPY_TOL:
            raise ValueError(f"state entropy {measured!r} misses target {target_entropy!r}")
        self.__dict__.update(lam=lam, basis=basis, dims=dims, target_entropy=target_entropy)

    def __eq__(self, other):
        if type(other) is not JointState:
            return NotImplemented
        return (self.lam, self.basis, self.dims, self.target_entropy) == \
            (other.lam, other.basis, other.dims, other.target_entropy)

    def support(self) -> Tuple[Tuple[int, float], Tuple[int, float]]:
        """The two Schmidt terms as (flat index ``i·d_R + j``, amplitude), by index."""
        il, jl, ir, jr = self.basis
        d_right = self.dims[1]
        first = (il * d_right + ir, math.sqrt(self.lam))
        second = (jl * d_right + jr, math.sqrt(1.0 - self.lam))
        return (first, second) if first[0] < second[0] else (second, first)

    @functools.cached_property
    def state(self) -> StateVector:
        """The dense joint state over all ``d_L·d_R`` basis products.

        A dense reference, d_L·d_R amplitudes in memory, that no CLI command or
        script reaches: they read the two Schmidt terms of ``support``. The
        amplitudes are written once: the array built here is frozen and handed
        to ``StateVector``, which keeps it rather than copying it.
        """
        import numpy as np

        from .qla import StateVector

        amps = np.zeros(self.dims[0] * self.dims[1], dtype=complex)
        for index, amplitude in self.support():
            amps[index] = amplitude
        amps.setflags(write=False)
        return StateVector(amps)


class MeasurementRecord:
    """Counts of projective-measurement outcomes from ``shots`` seeded draws.
    Read-only; two are equal when their fields are."""

    __setattr__ = read_only

    def __init__(self, shots: int, counts: Mapping[int, int], seed: int):
        if sum(counts.values()) != shots:
            raise ValueError("counts must sum to shots")
        self.__dict__.update(shots=shots, counts=counts, seed=seed)

    def __eq__(self, other):
        if type(other) is not MeasurementRecord:
            return NotImplemented
        return (self.shots, self.counts, self.seed) == (other.shots, other.counts, other.seed)

    def as_dict(self) -> Dict:
        """JSON-ready form with the exact key set {seed, shots, counts}."""
        return {
            "seed": self.seed,
            "shots": self.shots,
            "counts": {str(k): v for k, v in sorted(self.counts.items())},
        }


def binary_entropy(lam: float) -> float:
    """H2(λ) = −λ log2 λ − (1−λ) log2 (1−λ), with H2(0) = H2(1) = 0."""
    if lam <= 0.0 or lam >= 1.0:
        return 0.0
    # log1p keeps the second term (about λ/ln 2) for small λ, where 1 − λ rounds to 1
    return -lam * math.log2(lam) - (1.0 - lam) * math.log1p(-lam) / math.log(2.0)


@functools.lru_cache(maxsize=4096)
def invert_binary_entropy(p: float) -> float:
    """The λ in [0, 0.5] with H2(λ) = p, to the nearest float.

    H2 is strictly increasing on [0, 0.5], so bisection is branch-safe; it
    runs until the bracket's ends are adjacent floats and returns the end
    nearer p in H2. Results are cached, so each registered weight is
    inverted once.
    """
    if not 0.0 <= p <= 1.0:
        raise WeightOutOfRangeError(f"entropy target must lie in [0, 1], got {p!r}")
    if p == 0.0:
        return 0.0
    if p == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    while lo < (mid := (lo + hi) / 2.0) < hi:
        if binary_entropy(mid) < p:
            lo = mid
        else:
            hi = mid
    return min(lo, hi, key=lambda lam: abs(binary_entropy(lam) - p))


def _default_basis(d: int, i: int, j: int) -> BasisChoice:
    if d < 2:
        raise DegenerateBasisError("node vocabulary needs d >= 2 for a two-term state")
    if i == j:
        i, j = 0, 1  # self-referential triple: fall back to the first two basis states
    return (i, j, i, j)


def triple_joint_state(
    d: int,
    subject_index: int,
    object_index: int,
    weight: float,
    basis_choice: BasisChoice | None = None,
) -> JointState:
    """The state realizing a triple's weight over a d-symbol vocabulary, by
    default supported on its subject's and object's basis indices."""
    basis = basis_choice if basis_choice is not None else _default_basis(d, subject_index, object_index)
    return JointState(
        lam=invert_binary_entropy(weight),
        basis=tuple(basis),
        dims=(d, d),
        target_entropy=weight,
    )


def synthesize_joint_state(
    graph: CorollaGraph,
    triple_id: str,
    basis_choice: BasisChoice | None = None,
) -> JointState:
    """Prepare the bipartite state realizing a triple's registered weight.

    The state is ``√λ |iL⟩⊗|iR⟩ + √(1−λ) |jL⟩⊗|jR⟩`` with H2(λ) equal to
    the converse pair's total weight. By default the support indices are
    the subject and object symbols' basis indices on both sides.
    """
    s, p, o = graph.triple(triple_id)
    voc = graph.node_vocabulary
    return triple_joint_state(voc.d, voc.index(s), voc.index(o), graph.registry.total_weight(p), basis_choice)


def measure_entanglement(joint: JointState, base: float = 2.0) -> float:
    """Entanglement entropy of the joint state: the entropy of its Schmidt weights."""
    total = 0.0
    for _, amplitude in joint.support():
        weight = amplitude * amplitude
        if weight > 0.0:
            total -= weight * math.log(weight)
    return total / log_of_base(base) + 0.0  # never -0.0


def bell_states() -> Tuple[BellState, BellState, BellState, BellState]:
    """The four Bell states Φ± = (|00⟩ ± |11⟩)/√2, Ψ± = (|01⟩ ± |10⟩)/√2."""
    from .qla import StateVector

    r = 1.0 / math.sqrt(2.0)
    return (
        BellState("phi+", StateVector([r, 0, 0, r])),
        BellState("phi-", StateVector([r, 0, 0, -r])),
        BellState("psi+", StateVector([0, r, r, 0])),
        BellState("psi-", StateVector([0, r, -r, 0])),
    )


def default_pattern_config() -> Dict[str, str]:
    """Default tag -> Bell label assignment, in declaration order."""
    return dict(zip(DEFAULT_PATTERN_TAGS, BELL_LABELS))


def map_triple_pattern(pattern: str, config: Mapping[str, str] | None = None) -> BellState:
    """Bell state assigned to a triple metapattern tag by the configuration."""
    mapping = default_pattern_config() if config is None else config
    if pattern not in mapping:
        raise UnknownPatternError(f"metapattern {pattern!r} not configured")
    label = mapping[pattern]
    by_label = {b.label: b for b in bell_states()}
    if label not in by_label:
        raise UnknownPatternError(f"configured label {label!r} is not a Bell label")
    return by_label[label]


def measure(state: StateVector | JointState, shots: int, seed: int) -> MeasurementRecord:
    """Sample ``shots`` independent outcomes with probabilities |a_i|².

    The counts are those of ``numpy.random.default_rng(seed).multinomial``
    over the dense probabilities normalized by their sum, for every shot
    count up to ``MAX_SHOTS``. numpy's sampler draws a binomial for each
    category but the last in turn, draws nothing for a category of
    probability 0, and puts whatever is left on the last category, which can
    hold counts at a probability of 0. So both paths sample only the nonzero
    categories plus the last index, and get the full vector's counts.

    A ``JointState`` is sampled from its two Schmidt terms, outcomes being
    flat indices ``i·d_R + j`` and the last one ``d_L·d_R − 1``, without
    numpy, through ``pcg64.multinomial``. A ``StateVector`` is sampled by
    numpy: a dense reference, d² amplitudes for a joint state, that no CLI
    command or script reaches. Beside the state it allocates one float per
    amplitude, the probabilities, and one byte per amplitude, the mask its
    nonzero scan reads: numpy scans a boolean mask several times faster than
    the floats, and each further d²-sized temporary is freed memory that the
    allocator can return to the OS and fault back in on the next call.
    Identical seeds give identical records. Only outcomes that occurred
    appear in ``counts``, as builtin ints. A negative seed raises
    ``ValueError``.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must lie in [1, {MAX_SHOTS}], got {shots}")
    if isinstance(state, JointState):
        from .pcg64 import multinomial

        (first, a), (second, b) = state.support()
        # the probabilities normalized as numpy normalizes them on the dense path
        total = a * a + b * b
        outcomes, probs = [first, second], [a * a / total, b * b / total]
        last = state.dims[0] * state.dims[1] - 1
        if second != last:
            outcomes.append(last)
            probs.append(0.0)
        hits = multinomial(seed, shots, probs)
        counts = {outcome: n for outcome, n in zip(outcomes, hits) if n}
        return MeasurementRecord(shots=shots, counts=counts, seed=seed)
    import numpy as np

    probs = state.probabilities()
    total = probs.sum()
    # probabilities are finite and >= 0, so the mask keeps what flatnonzero(probs) keeps, scanned faster
    keep = np.flatnonzero(probs != 0)  # never empty: the state's norm is 1
    if keep[-1] != probs.size - 1:
        keep = np.append(keep, probs.size - 1)
    draws = np.random.default_rng(seed).multinomial(shots, probs[keep] / total)
    counts = {i: n for i, n in zip(keep.tolist(), draws.tolist()) if n}
    return MeasurementRecord(shots=shots, counts=counts, seed=seed)


def tessellate_round(
    noisy: Sequence[complex] | np.ndarray, voc: Vocabulary
) -> Tuple[str, float]:
    """Round a noisy (possibly unnormalized) vector onto the vocabulary basis.

    Returns the symbol whose basis state maximizes the fidelity |⟨i|ψ⟩|²
    together with that fidelity; ties break to the lowest index. It
    normalizes as ``qla.make_state`` does, in plain Python, and rejects a
    zero vector or a NaN or infinite amplitude with the same errors.
    """
    amps = [complex(a) for a in noisy]
    if len(amps) != voc.d:
        raise DimensionMismatchError(f"vector length {len(amps)} != vocabulary size {voc.d}")
    parts = [x for a in amps for x in (a.real, a.imag)]
    if not all(map(math.isfinite, parts)):
        raise ValueError("amplitudes must be finite numbers")
    # scaling by the largest part first keeps every finite norm finite and nonzero
    scale = max(map(abs, parts))
    if scale == 0.0:
        raise ZeroVectorError("cannot normalize the zero vector")
    parts = [x / scale for x in parts]
    # numpy divides a complex array by its norm as a multiplication by 1/norm; so does this
    inverse = 1.0 / math.hypot(*parts)
    overlaps = [abs(complex(re * inverse, im * inverse)) ** 2 for re, im in zip(parts[::2], parts[1::2])]
    index = overlaps.index(max(overlaps))  # the first maximum
    return voc.symbol(index), overlaps[index]


def bell_fidelity(a: BellState, b: BellState) -> float:
    """Squared overlap between two Bell states (0 for distinct labels)."""
    from .qla import fidelity

    return fidelity(a.state, b.state)


def __getattr__(name: str):
    # perfbench/tracing.py rebinds ``entangle.entanglement_entropy``; serve it from qla on demand
    if name == "entanglement_entropy":
        from .qla import entanglement_entropy

        return entanglement_entropy
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
