"""Linear-algebra substrate: states, density matrices, Schmidt, entropies."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import EXTREME_AMPLITUDES
from qcorolla.errors import (
    DimensionMismatchError,
    EmptyVectorError,
    ProbabilityMismatchError,
    ZeroVectorError,
)
from qcorolla.entangle import triple_joint_state
from qcorolla.qla import (
    NORM_TOL,
    DensityMatrix,
    SchmidtDecomposition,
    StateVector,
    basis_state,
    entanglement_entropy,
    fidelity,
    make_state,
    mix,
    outer,
    partial_trace,
    schmidt,
    states_equal,
    tensor,
    von_neumann_entropy,
)
from qcorolla.qusym import qusym_ensemble, uniform_entropy, vocabulary_from_symbols

BELL = make_state([1, 0, 0, 1])
ASYMMETRIC = make_state([0.6, 0, 0, 0.8])  # sqrt(0.36)|00> + sqrt(0.64)|11>


def random_state(rng, dim):
    return make_state(rng.normal(size=dim) + 1j * rng.normal(size=dim))


# --- make_state -------------------------------------------------------------

def test_make_state_basis():
    s = make_state([1, 0])
    assert np.allclose(s.amplitudes, [1, 0])


def test_make_state_equal_weights():
    s = make_state([1, 1])
    assert np.allclose(s.amplitudes, [1 / math.sqrt(2)] * 2)


def test_make_state_zero_vector():
    with pytest.raises(ZeroVectorError):
        make_state([0, 0])


def test_make_state_empty():
    with pytest.raises(EmptyVectorError):
        make_state([])
    with pytest.raises(EmptyVectorError):
        StateVector(np.array([]))


@given(
    st.lists(
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=16,
    ).filter(lambda xs: np.linalg.norm(xs) > 1e-6)
)
def test_make_state_normalizes(amplitudes):
    s = make_state(amplitudes)
    assert abs(np.sum(np.abs(s.amplitudes) ** 2) - 1.0) <= 1e-9


@pytest.mark.parametrize("case", sorted(EXTREME_AMPLITUDES))
def test_make_state_normalizes_without_overflow_or_underflow(case):
    amplitudes, probabilities = EXTREME_AMPLITUDES[case]
    assert make_state(amplitudes).probabilities() == pytest.approx(probabilities, abs=1e-12)


def test_statevector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))


# --- tensor -------------------------------------------------------------------

def test_basis_state_index_out_of_range():
    with pytest.raises(DimensionMismatchError, match="basis index 2 out of range for dim 2"):
        basis_state(2, 2)


def test_tensor_basis_product():
    s = tensor(basis_state(2, 0), basis_state(2, 1))
    assert np.allclose(s.amplitudes, [0, 1, 0, 0])


def test_tensor_distributes():
    s = tensor(make_state([1, 1]), basis_state(2, 0))
    r = 1 / math.sqrt(2)
    assert np.allclose(s.amplitudes, [r, 0, r, 0])


def test_tensor_dim_product():
    assert tensor(basis_state(3, 0), basis_state(4, 0)).dim == 12


# --- outer / mix -----------------------------------------------------------------

def test_outer_basis():
    rho = outer(basis_state(2, 0))
    assert np.allclose(rho.entries, [[1, 0], [0, 0]])


def test_outer_uniform():
    rho = outer(make_state([1, 1]))
    assert np.allclose(rho.entries, 0.5)


def test_outer_trace_one():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 5):
        rho = outer(random_state(rng, dim))
        assert abs(np.trace(rho.entries) - 1.0) < 1e-12


def test_mix_single_element_equals_outer_exactly():
    s = make_state([0.3, 0.4, 0.5, 0.1 + 0.2j])
    assert np.array_equal(mix([(1.0, s)]).entries, outer(s).entries)


def test_mix_maximally_mixed():
    rho = mix([(0.5, basis_state(2, 0)), (0.5, basis_state(2, 1))])
    assert np.allclose(rho.entries, np.eye(2) / 2)


def test_mix_probability_mismatch():
    with pytest.raises(ProbabilityMismatchError):
        mix([(0.5, basis_state(2, 0)), (0.6, basis_state(2, 1))])
    with pytest.raises(ProbabilityMismatchError, match="ensemble is empty"):
        mix([])


def test_mix_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        mix([(0.5, basis_state(2, 0)), (0.5, basis_state(3, 0))])


# --- partial trace ----------------------------------------------------------------

def test_partial_trace_product_state():
    rho = partial_trace(outer(tensor(basis_state(2, 0), basis_state(2, 1))), (2, 2), "A")
    assert np.allclose(rho.entries, [[1, 0], [0, 0]])


def test_partial_trace_bell():
    rho = partial_trace(outer(BELL), (2, 2), "B")
    assert np.allclose(rho.entries, np.eye(2) / 2)


def test_partial_trace_dim_mismatch():
    rho = DensityMatrix(np.eye(5) / 5)
    with pytest.raises(DimensionMismatchError):
        partial_trace(rho, (3, 2), "A")
    with pytest.raises(ValueError, match="keep must be 'A' or 'B', got 'C'"):
        partial_trace(outer(BELL), (2, 2), "C")


def test_partial_trace_preserves_trace():
    rng = np.random.default_rng(11)
    for dims in ((2, 2), (3, 4), (2, 5)):
        rho = outer(random_state(rng, dims[0] * dims[1]))
        for keep in ("A", "B"):
            reduced = partial_trace(rho, dims, keep)
            assert abs(np.trace(reduced.entries) - 1.0) <= 1e-12


# --- Schmidt decomposition ------------------------------------------------------

def test_schmidt_product_state():
    sd = schmidt(tensor(basis_state(2, 0), basis_state(2, 1)), (2, 2))
    assert np.allclose(sd.coefficients, [1.0, 0.0], atol=1e-12)


def test_schmidt_bell():
    sd = schmidt(BELL, (2, 2))
    assert np.allclose(sd.coefficients, [1 / math.sqrt(2)] * 2)


def test_schmidt_asymmetric_coefficients():
    # independent oracle: singular values via the spectrum of M M^dagger
    matrix = ASYMMETRIC.amplitudes.reshape(2, 2)
    gram_eigs = np.linalg.eigvalsh(matrix @ matrix.conj().T)
    oracle = np.sqrt(np.clip(gram_eigs[::-1], 0, None))
    assert np.allclose(oracle, [0.8, 0.6], atol=1e-12)

    sd = schmidt(ASYMMETRIC, (2, 2))
    assert np.allclose(sd.coefficients, oracle, atol=1e-9)


def test_schmidt_reconstruction_identity():
    rng = np.random.default_rng(13)
    for dims in ((2, 2), (3, 4), (4, 4)):
        for _ in range(1000):
            state = random_state(rng, dims[0] * dims[1])
            rebuilt = schmidt(state, dims).reconstruct()
            assert fidelity(rebuilt, state) >= 1.0 - 1e-9


def test_schmidt_decomposition_checks_coefficients_and_bases():
    basis = (basis_state(2, 0), basis_state(2, 1))
    with pytest.raises(ValueError, match="non-negative and non-increasing"):
        SchmidtDecomposition(np.array([0.6, 0.8]), basis, basis)
    with pytest.raises(ValueError, match="square-sum to 1"):
        SchmidtDecomposition(np.array([0.5, 0.5]), basis, basis)
    with pytest.raises(ValueError, match="orthonormal"):
        SchmidtDecomposition(np.array([0.8, 0.6]), basis, (basis[0], basis[0]))


def test_schmidt_bases_orthonormal():
    rng = np.random.default_rng(17)
    sd = schmidt(random_state(rng, 12), (3, 4))
    for states in (sd.left_basis, sd.right_basis):
        mat = np.stack([s.amplitudes for s in states])
        assert np.allclose(mat @ mat.conj().T, np.eye(len(states)), atol=1e-9)


# --- entropies -----------------------------------------------------------------

def test_von_neumann_pure_is_zero():
    rho = outer(make_state([0.6, 0.8]))
    for base in (2.0, math.e, 7.5):
        assert von_neumann_entropy(rho, base) == pytest.approx(0.0, abs=1e-9)


def test_von_neumann_maximally_mixed():
    assert von_neumann_entropy(DensityMatrix(np.eye(2) / 2), 2.0) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("d", range(2, 17))
def test_von_neumann_base_d_unit(d):
    rho = DensityMatrix(np.eye(d) / d)
    assert von_neumann_entropy(rho, float(d)) == pytest.approx(1.0, abs=1e-12)


def test_von_neumann_rejects_base_one():
    with pytest.raises(ValueError):
        von_neumann_entropy(DensityMatrix(np.eye(2) / 2), 1.0)


@pytest.mark.parametrize("d", [1, 2, 3, 16, 64])
def test_uniform_entropy_matches_maximally_mixed(d):
    rho = DensityMatrix(np.eye(d) / d)
    for base in (2.0, 3.0, 10.0, float(max(d, 2))):
        assert uniform_entropy(d, base) == pytest.approx(von_neumann_entropy(rho, base), abs=1e-12)
    with pytest.raises(ValueError):
        uniform_entropy(d, 1.0)


def test_density_matrix_decomposes_once(monkeypatch):
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda mat: calls.append(mat) or eigvalsh(mat))
    rho = DensityMatrix(np.diag([0.25, 0.75]).astype(complex))
    assert np.allclose(rho.eigenvalues(), [0.25, 0.75])
    von_neumann_entropy(rho)
    assert len(calls) == 1


def test_von_neumann_unitary_invariance():
    rng = np.random.default_rng(19)
    rho = mix([(0.2, basis_state(3, 0)), (0.3, basis_state(3, 1)), (0.5, basis_state(3, 2))])
    s0 = von_neumann_entropy(rho)
    for _ in range(20):
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rotated = DensityMatrix(q @ rho.entries @ q.conj().T)
        assert von_neumann_entropy(rotated) == pytest.approx(s0, abs=1e-9)


def test_entanglement_entropy_bell():
    assert entanglement_entropy(BELL, (2, 2), 2.0) == pytest.approx(1.0, abs=1e-9)


def test_entanglement_entropy_product_states():
    rng = np.random.default_rng(23)
    for dims in ((2, 2), (3, 4)):
        product = tensor(random_state(rng, dims[0]), random_state(rng, dims[1]))
        assert abs(entanglement_entropy(product, dims, 2.0)) <= 1e-9


def test_entanglement_entropy_asymmetric():
    # hand-evaluated two-term binary entropy as the oracle
    oracle = -0.36 * math.log2(0.36) - 0.64 * math.log2(0.64)
    assert oracle == pytest.approx(0.9427, abs=1e-4)
    assert entanglement_entropy(ASYMMETRIC, (2, 2), 2.0) == pytest.approx(oracle, abs=1e-9)


def test_entanglement_entropy_matches_both_reductions():
    rng = np.random.default_rng(29)
    for dims in ((2, 2), (3, 4), (2, 5)):
        state = random_state(rng, dims[0] * dims[1])
        via_schmidt = entanglement_entropy(state, dims, 2.0)
        for keep in ("A", "B"):
            via_reduction = von_neumann_entropy(partial_trace(outer(state), dims, keep), 2.0)
            assert via_schmidt == pytest.approx(via_reduction, abs=1e-9)


def test_entanglement_entropy_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        entanglement_entropy(BELL, (3, 2), 2.0)


# --- density matrix invariants ------------------------------------------------------

def test_density_matrix_rejects_non_hermitian():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))


def test_density_matrix_rejects_non_square():
    with pytest.raises(DimensionMismatchError, match="must be square"):
        DensityMatrix(np.ones((2, 3)) / 2)


def test_density_matrix_rejects_bad_trace():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(2))


def test_density_matrix_rejects_negative_eigenvalue():
    with pytest.raises(ValueError):
        DensityMatrix(np.array([[1.5, 0.0], [0.0, -0.5]]))


# --- physical equality ------------------------------------------------------------

def test_states_equal_quotients_global_phase():
    s = make_state([0.6, 0.8j])
    rotated = StateVector(np.exp(1j * 0.7) * s.amplitudes)
    assert states_equal(s, rotated)
    assert not states_equal(s, basis_state(2, 0))


@settings(max_examples=50)
@given(st.floats(min_value=0.0, max_value=2 * math.pi))
def test_fidelity_phase_invariant(theta):
    s = make_state([1, 1j, -1])
    assert fidelity(s, StateVector(np.exp(1j * theta) * s.amplitudes)) == pytest.approx(1.0)


def test_fidelity_needs_equal_dims():
    with pytest.raises(DimensionMismatchError, match="fidelity needs equal dims, got 2 and 3"):
        fidelity(basis_state(2, 0), basis_state(3, 0))


# --- non-finite input ------------------------------------------------------------------

NAN = float("nan")


@pytest.mark.parametrize(
    "build",
    [
        lambda: StateVector([NAN, 0]),
        lambda: make_state([NAN, 1]),
        lambda: make_state([math.inf, 1]),
        lambda: DensityMatrix([[NAN, 0], [0, 1]]),
        lambda: DensityMatrix([[1, 0], [0, NAN]]),
        lambda: mix([(NAN, basis_state(2, 0)), (1.0, basis_state(2, 1))]),
        lambda: qusym_ensemble(vocabulary_from_symbols(["a:A", "a:B"]), {"a:A": NAN, "a:B": 1.0}),
    ],
    ids=["state vector", "make_state nan", "make_state inf", "density off-trace", "density trace", "mix", "ensemble"],
)
def test_nan_fails_the_norm_trace_and_hermitian_checks(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("base", [NAN, math.inf, float("1e400"), -math.inf, 1.0], ids=["nan", "inf", "1e400", "-inf", "1"])
def test_entropy_base_must_be_finite_and_above_one(base):
    with pytest.raises(ValueError, match="finite number above 1"):
        von_neumann_entropy(outer(BELL), base=base)
    with pytest.raises(ValueError, match="finite number above 1"):
        uniform_entropy(4, base=base)


# --- hand-over of read-only arrays ------------------------------------------------

def test_a_writeable_input_is_copied():
    arr = np.array([1.0, 0.0], dtype=complex)
    state = StateVector(arr)
    arr[:] = [0.0, 1.0]
    assert state.amplitudes is not arr
    assert state.amplitudes.tolist() == [1.0, 0.0]


def test_a_read_only_view_is_copied():
    base = np.array([1.0, 0.0, 0.0], dtype=complex)
    view = base[:2]
    view.setflags(write=False)
    state = StateVector(view)
    base[:2] = [0.0, 1.0]
    assert state.amplitudes is not view
    assert state.amplitudes.tolist() == [1.0, 0.0]


def test_a_read_only_array_of_another_dtype_is_copied():
    arr = np.array([0.6, 0.8])
    arr.setflags(write=False)
    state = StateVector(arr)
    assert state.amplitudes is not arr
    assert state.amplitudes.dtype == complex


def test_a_read_only_array_that_owns_its_data_is_kept():
    arr = np.array([0.6, 0.8j])
    arr.setflags(write=False)
    assert StateVector(arr).amplitudes is arr
    mat = np.diag([0.5, 0.5]).astype(complex)
    mat.setflags(write=False)
    assert DensityMatrix(mat).entries is mat


@pytest.mark.parametrize(
    "build",
    [
        lambda: StateVector(np.array([1.0, 0.0], dtype=complex)).amplitudes,
        lambda: StateVector([0.6, 0.8]).amplitudes,
        lambda: basis_state(3, 1).amplitudes,
        lambda: make_state([1, 2j, 3]).amplitudes,
        lambda: tensor(BELL, ASYMMETRIC).amplitudes,
        lambda: triple_joint_state(8, 2, 5, 0.4).state.amplitudes,
        lambda: outer(BELL).entries,
        lambda: mix([(0.5, BELL), (0.5, ASYMMETRIC)]).entries,
        lambda: qusym_ensemble(vocabulary_from_symbols(["a:A", "a:B"]), {"a:A": 0.5, "a:B": 0.5}).entries,
    ],
    ids=["writeable", "list", "basis_state", "make_state", "tensor", "joint state", "outer", "mix", "ensemble"],
)
def test_every_container_holds_a_read_only_array(build):
    arr = build()
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 0.0


def test_the_norm_check_keeps_its_tolerance_and_message():
    StateVector([math.sqrt(1.0 + NORM_TOL / 2), 0.0])
    StateVector([math.sqrt(1.0 - NORM_TOL / 2), 0.0])
    for bad in (math.sqrt(1.0 + 2 * NORM_TOL), math.sqrt(1.0 - 2 * NORM_TOL), NAN, math.inf):
        with pytest.raises(ValueError, match=r"^state vector not normalized: sum \|a\|\^2 = "):
            StateVector([bad, 0.0])
