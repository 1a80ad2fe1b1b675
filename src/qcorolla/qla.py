"""Complex linear-algebra substrate for the quantum-symbol model.

State vectors, density matrices, tensor products, partial traces, Schmidt
decompositions, and entropy functionals with a configurable logarithm base.
All containers are immutable after construction and every operation is a
pure function, so unrestricted parallel use is safe. A container holds a
read-only array. It copies what it is given, except a read-only ndarray of
its dtype that owns its data: that array is shared with the caller, not
copied, and handing it over is a promise not to write to it again.
``basis_state``, ``make_state``, ``tensor``, ``outer`` and ``mix`` hand over
the fresh arrays they build that way.

Conventions:

* Tensor index ordering is row-major with the left factor most significant:
  the amplitude of ``a ⊗ b`` at flattened index ``i * b.dim + j`` is
  ``a[i] * b[j]``.
* State equality is physical: global phase is quotiented out, so two states
  are "equal" when their fidelity ``|⟨a|b⟩|²`` is within tolerance of 1.
* Entropies use base 2 (bits) by default; every entropy function takes an
  explicit ``base`` so any base-d unit system can be requested.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    EmptyVectorError,
    ProbabilityMismatchError,
    ZeroVectorError,
    read_only,
)
from .qusym import log_of_base

# each tolerance check reads ``not |error| <= TOL``, which NaN fails
NORM_TOL = 1e-9
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
FIDELITY_TOL = 1e-9


def _frozen_array(values, dtype) -> np.ndarray:
    """``values`` as a read-only ndarray of ``dtype``.

    A read-only ndarray of that dtype that owns its data is returned as is,
    not copied: the caller hands it over. Anything else, a list, a writeable
    array or a view of another array, is copied and the copy frozen, so a
    later write to the caller's array never reaches the result.
    """
    if (type(values) is np.ndarray and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A builder's fresh array, made read-only so ``_frozen_array`` keeps it."""
    arr.setflags(write=False)
    return arr


class StateVector:
    """Unit vector of complex amplitudes over a d-dimensional basis.

    The squared moduli of the amplitudes sum to 1 within ``NORM_TOL``;
    use :func:`make_state` to build one from unnormalized input.
    """

    __setattr__ = read_only

    def __init__(self, amplitudes: np.ndarray):
        amps = _frozen_array(amplitudes, complex)
        if amps.ndim != 1 or amps.size < 1:
            raise EmptyVectorError("state vector needs at least one amplitude")
        # one pass and no temporaries; NaN and inf still fail the check below
        norm_sq = float(np.vdot(amps, amps).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValueError(f"state vector not normalized: sum |a|^2 = {norm_sq!r}")
        self.__dict__.update(amplitudes=amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def probabilities(self) -> np.ndarray:
        """Born-rule outcome probabilities |a_i|^2.

        The moduli are squared in place, so the result is the one float array
        allocated: ``np.abs(a) ** 2`` gives the same floats but holds a second
        temporary of the same size while it squares.
        """
        probs = np.abs(self.amplitudes)
        return np.square(probs, out=probs)


class DensityMatrix:
    """Hermitian, trace-1, positive-semidefinite matrix of selection weights."""

    __setattr__ = read_only

    def __init__(self, entries: np.ndarray):
        mat = _frozen_array(entries, complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 1:
            raise DimensionMismatchError(f"density matrix must be square, got shape {mat.shape}")
        if not np.max(np.abs(mat - mat.conj().T)) <= HERMITIAN_TOL:
            raise ValueError("density matrix is not Hermitian")
        trace = complex(np.trace(mat))
        if not abs(trace - 1.0) <= TRACE_TOL:
            raise ValueError(f"density matrix trace is {trace!r}, expected 1")
        spectrum = np.linalg.eigvalsh(mat)
        if float(np.min(spectrum)) < -PSD_TOL:
            raise ValueError("density matrix has a significantly negative eigenvalue")
        self.__dict__.update(entries=mat, _spectrum=spectrum)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def eigenvalues(self) -> np.ndarray:
        """Real spectrum, ascending, with round-off negatives clamped to 0."""
        return np.clip(self._spectrum, 0.0, None)


class SchmidtDecomposition:
    """Bipartite pure state written as ``Σ λ_i |μ_i⟩ ⊗ |v_i⟩``.

    ``coefficients`` are non-negative and non-increasing with squares summing
    to 1; the per-side bases are orthonormal.
    """

    __setattr__ = read_only

    def __init__(self, coefficients: np.ndarray, left_basis: Tuple[StateVector, ...],
                 right_basis: Tuple[StateVector, ...]):
        coeffs = _frozen_array(coefficients, float)
        if not (np.all(coeffs >= 0) and np.all(np.diff(coeffs) <= 0)):
            raise ValueError("Schmidt coefficients must be non-negative and non-increasing")
        if not abs(float(np.sum(coeffs**2)) - 1.0) <= NORM_TOL:
            raise ValueError("Schmidt coefficients must square-sum to 1")
        for basis in (left_basis, right_basis):
            mat = np.stack([s.amplitudes for s in basis])
            if not np.max(np.abs(mat @ mat.conj().T - np.eye(len(basis)))) <= NORM_TOL:
                raise ValueError("Schmidt bases must be orthonormal")
        self.__dict__.update(coefficients=coeffs, left_basis=left_basis, right_basis=right_basis)

    def reconstruct(self) -> StateVector:
        """Rebuild the joint state ``Σ λ_i |μ_i⟩ ⊗ |v_i⟩``."""
        left = np.stack([s.amplitudes for s in self.left_basis])
        right = np.stack([s.amplitudes for s in self.right_basis])
        joint = np.einsum("k,ki,kj->ij", self.coefficients, left, right).reshape(-1)
        return StateVector(joint)


def make_state(amplitudes: Sequence[complex] | np.ndarray) -> StateVector:
    """Normalize an amplitude sequence into a unit state vector.

    Raises ``EmptyVectorError`` on empty input, ``ZeroVectorError`` when
    the input has zero norm and ``ValueError`` on a NaN or infinite amplitude.
    Scaling by the largest real or imaginary part first keeps every finite norm finite and nonzero.
    """
    amps = np.asarray(amplitudes, dtype=complex)
    if amps.ndim != 1 or amps.size < 1:
        raise EmptyVectorError("need at least one amplitude")
    if not np.isfinite(amps).all():
        raise ValueError("amplitudes must be finite numbers")
    scale = max(float(np.max(np.abs(amps.real))), float(np.max(np.abs(amps.imag))))
    if scale == 0.0:
        raise ZeroVectorError("cannot normalize the zero vector")
    # part by part: a complex division multiplies by 1/scale, which is inf for a subnormal scale
    amps = amps.real / scale + 1j * (amps.imag / scale)
    return StateVector(_frozen(amps / np.linalg.norm(amps)))


def basis_state(dim: int, index: int) -> StateVector:
    """The computational basis vector |index⟩ in dimension ``dim``."""
    if not 0 <= index < dim:
        raise DimensionMismatchError(f"basis index {index} out of range for dim {dim}")
    amps = np.zeros(dim, dtype=complex)
    amps[index] = 1.0
    return StateVector(_frozen(amps))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product with the left factor as the most significant index."""
    # np.kron's own multiply, flattened in place, so the array still owns its data and is handed over
    amps = np.multiply(a.amplitudes[:, None], b.amplitudes[None, :])
    amps.shape = (amps.size,)
    return StateVector(_frozen(amps))


def outer(state: StateVector) -> DensityMatrix:
    """Rank-1 projector |ψ⟩⟨ψ| onto a pure state."""
    return DensityMatrix(_frozen(np.outer(state.amplitudes, state.amplitudes.conj())))


def mix(ensemble: Iterable[Tuple[float, StateVector]]) -> DensityMatrix:
    """Probability-weighted mixture ``Σ p_k |ψ_k⟩⟨ψ_k|`` of pure states.

    Probabilities must be non-negative and sum to 1 within ``NORM_TOL``;
    they are rescaled by their exact sum so the result's trace meets the
    stricter ``DensityMatrix`` trace tolerance.
    """
    items = list(ensemble)
    if not items:
        raise ProbabilityMismatchError("ensemble is empty")
    probs = np.array([p for p, _ in items], dtype=float)
    if not np.all(probs >= 0):
        raise ProbabilityMismatchError("ensemble probabilities must be non-negative numbers")
    total = float(np.sum(probs))
    if not abs(total - 1.0) <= NORM_TOL:
        raise ProbabilityMismatchError(f"probabilities sum to {total!r}, expected 1")
    dim = items[0][1].dim
    if any(state.dim != dim for _, state in items):
        raise DimensionMismatchError("ensemble states must share one dimension")
    rho = np.zeros((dim, dim), dtype=complex)
    for p, state in items:
        rho += (p / total) * np.outer(state.amplitudes, state.amplitudes.conj())
    return DensityMatrix(_frozen(rho))


def _split_dims(total: int, dims: Tuple[int, int]) -> Tuple[int, int]:
    da, db = dims
    if da < 1 or db < 1 or da * db != total:
        raise DimensionMismatchError(f"dims {dims} do not factor dimension {total}")
    return da, db


def partial_trace(rho: DensityMatrix, dims: Tuple[int, int], keep: str) -> DensityMatrix:
    """Reduced density matrix of one subsystem of a bipartite state.

    ``keep`` is ``"A"`` (trace out B) or ``"B"`` (trace out A); ``dims``
    gives the (dA, dB) factorization of ``rho.dim``.
    """
    da, db = _split_dims(rho.dim, dims)
    tens = rho.entries.reshape(da, db, da, db)
    if keep == "A":
        reduced = np.einsum("ijkj->ik", tens)
    elif keep == "B":
        reduced = np.einsum("ijil->jl", tens)
    else:
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    return DensityMatrix(reduced)


def schmidt(state: StateVector, dims: Tuple[int, int]) -> SchmidtDecomposition:
    """Schmidt decomposition of a bipartite pure state via SVD.

    The amplitude vector is reshaped to a dA x dB matrix whose singular
    values are the Schmidt coefficients (non-increasing).
    """
    da, db = _split_dims(state.dim, dims)
    matrix = state.amplitudes.reshape(da, db)
    u, s, vh = np.linalg.svd(matrix, full_matrices=False)
    left = tuple(StateVector(u[:, k]) for k in range(s.size))
    right = tuple(StateVector(vh[k, :]) for k in range(s.size))
    return SchmidtDecomposition(s, left, right)


def shannon_entropy(probs: Sequence[float] | np.ndarray, base: float = 2.0) -> float:
    """``H = -Σ p_i log_base p_i`` of a probability vector, with 0 log 0 = 0.

    Negative round-off entries are clamped to 0 before the logarithm.
    """
    p = np.clip(np.asarray(probs, dtype=float), 0.0, None)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log(p)) / log_of_base(base)) + 0.0  # never -0.0


def von_neumann_entropy(rho: DensityMatrix, base: float = 2.0) -> float:
    """``S = -Σ λ_i log_base λ_i`` over the spectrum of ``rho``.

    Eigenvalues in [-PSD_TOL, 0) from round-off are clamped to 0 before the
    logarithm. The result is non-negative and at most 1 when ``base`` equals
    the matrix dimension.
    """
    return shannon_entropy(rho.eigenvalues(), base)


def entanglement_entropy(state: StateVector, dims: Tuple[int, int], base: float = 2.0) -> float:
    """Entropy of entanglement ``-Σ |λ_i|² log_base |λ_i|²`` across a bipartition.

    Computed from the Schmidt coefficients; equals the von Neumann entropy
    of either reduced density matrix.
    """
    decomposition = schmidt(state, dims)
    return shannon_entropy(decomposition.coefficients**2, base)


def fidelity(a: StateVector, b: StateVector) -> float:
    """Squared overlap ``|⟨a|b⟩|²`` between two pure states."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"fidelity needs equal dims, got {a.dim} and {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def states_equal(a: StateVector, b: StateVector, tol: float = FIDELITY_TOL) -> bool:
    """Physical equality up to global phase: fidelity within ``tol`` of 1."""
    return fidelity(a, b) >= 1.0 - tol
