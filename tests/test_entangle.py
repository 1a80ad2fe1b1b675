"""Joint-state synthesis, Bell states, measurement sampling, tessellation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EXTREME_AMPLITUDES, build_kinship_graph
from qcorolla.corolla import ConverseRegistry, CorollaGraph
from qcorolla.entangle import (
    BELL_LABELS,
    DEFAULT_PATTERN_TAGS,
    ENTROPY_TOL,
    JointState,
    MeasurementRecord,
    bell_fidelity,
    bell_states,
    binary_entropy,
    default_pattern_config,
    invert_binary_entropy,
    map_triple_pattern,
    measure,
    measure_entanglement,
    synthesize_joint_state,
    tessellate_round,
    triple_joint_state,
)
from qcorolla.errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    UnknownPatternError,
    WeightOutOfRangeError,
    ZeroVectorError,
)
from qcorolla.qla import (
    basis_state,
    entanglement_entropy,
    make_state,
    outer,
    partial_trace,
    shannon_entropy,
)
from qcorolla.qusym import vocabulary_from_symbols


def oracle_lambda(p: float) -> float:
    """Independent bisection for H2(lam) = p, written without the library."""
    lo, hi = 0.0, 0.5
    for _ in range(200):
        mid = (lo + hi) / 2
        h = 0.0 if mid in (0.0, 1.0) else -mid * math.log2(mid) - (1 - mid) * math.log2(1 - mid)
        if h < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def weighted_graph(weights):
    """One triple per weight between the same node pair, predicates rel:F<k>."""
    voc = vocabulary_from_symbols(["x:A", "x:B"])
    registry = ConverseRegistry()
    graph = CorollaGraph(voc, registry)
    ids = []
    for k, weight in enumerate(weights):
        registry.register_converse(f"rel:F{k}", f"rel:B{k}", weight)
        left = graph.make_corolla("x:A", f"rel:F{k}")
        right = graph.make_corolla("x:B", f"rel:B{k}")
        ids.append(graph.join(left, right))
    return graph, ids


# --- binary entropy inversion -----------------------------------------------

def test_binary_entropy_endpoints():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0


def test_binary_entropy_symmetry():
    for x in (0.1, 0.25, 0.4):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-15)


def test_invert_binary_entropy_against_oracle():
    for p in (0.05, 0.2, 0.4, 0.7, 0.95):
        assert invert_binary_entropy(p) == pytest.approx(oracle_lambda(p), abs=1e-9)


def test_invert_binary_entropy_worked_value():
    lam = invert_binary_entropy(0.4)
    assert lam == pytest.approx(0.0793826004806491, abs=1e-9)  # frozen from the oracle
    assert binary_entropy(lam) == pytest.approx(0.4, abs=1e-9)


def test_invert_binary_entropy_endpoints_exact():
    assert invert_binary_entropy(0.0) == 0.0
    assert invert_binary_entropy(1.0) == 0.5


def test_invert_binary_entropy_within_ulps_of_exact():
    mpmath = pytest.importorskip("mpmath")

    def exact_h2(lam):
        lam = mpmath.mpf(lam)
        if lam == 0:
            return lam
        return (-lam * mpmath.log(lam) - (1 - lam) * mpmath.log1p(-lam)) / mpmath.log(2)

    rng = np.random.default_rng(67)
    # below p ≈ 1e-305 the nearest λ is subnormal, and its neighbours sit
    # more than a few ulp of p apart in H2
    targets = [k / 1000 for k in range(1001)] + [1.0 - 2.0**-e for e in range(1, 54)]
    targets += [float(p) for p in rng.uniform(size=300)] + [float(10.0**-e) for e in rng.uniform(0, 300, 300)]
    with mpmath.workprec(200):
        for p in targets:
            assert abs(exact_h2(invert_binary_entropy(p)) - p) <= 4 * math.ulp(p), p


def test_invert_binary_entropy_range_check():
    with pytest.raises(WeightOutOfRangeError):
        invert_binary_entropy(1.2)


# --- synthesis -----------------------------------------------------------------

def test_synthesize_zero_weight_is_product_state():
    graph, ids = weighted_graph([0.0])
    joint = synthesize_joint_state(graph, ids[0])
    # lam = 0: all mass on |jL> (x) |jR>
    assert np.allclose(joint.state.amplitudes, [0, 0, 0, 1])
    assert measure_entanglement(joint) == pytest.approx(0.0, abs=1e-9)


def test_synthesize_unit_weight_is_bell_type():
    graph, ids = weighted_graph([1.0])
    joint = synthesize_joint_state(graph, ids[0])
    r = 1 / math.sqrt(2)
    assert np.allclose(joint.state.amplitudes, [r, 0, 0, r])
    assert measure_entanglement(joint) == pytest.approx(1.0, abs=1e-9)


def test_synthesize_worked_weight():
    graph, ids = weighted_graph([0.4])
    joint = synthesize_joint_state(graph, ids[0])
    lam = abs(joint.state.amplitudes[0]) ** 2
    assert lam == pytest.approx(oracle_lambda(0.4), abs=1e-9)
    assert measure_entanglement(joint) == pytest.approx(0.4, abs=1e-6)


def test_synthesis_roundtrip_grid():
    weights = [k / 10 for k in range(11)]
    graph, ids = weighted_graph(weights)
    for weight, tid in zip(weights, ids):
        joint = synthesize_joint_state(graph, tid)
        assert abs(measure_entanglement(joint) - weight) <= 1e-6


def test_synthesize_default_basis_uses_node_indices():
    graph = build_kinship_graph()
    tid = graph.triple_id_of(("person:Bob", "kin:ParentOf", "person:Alice"))
    joint = synthesize_joint_state(graph, tid)
    assert joint.basis == (0, 1, 0, 1)  # Bob is basis 0, Alice basis 1
    assert joint.dims == (3, 3)
    support = {i for i, a in enumerate(joint.state.amplitudes) if a != 0}
    assert support == {0, 4}  # (0,0) and (1,1) in a 3x3 joint space


def test_synthesize_explicit_basis():
    graph, ids = weighted_graph([1.0])
    joint = synthesize_joint_state(graph, ids[0], basis_choice=(1, 0, 0, 1))
    r = 1 / math.sqrt(2)
    assert np.allclose(joint.state.amplitudes, [0, r, r, 0])  # psi+ pattern


def test_synthesize_degenerate_basis_rejected():
    graph, ids = weighted_graph([0.5])
    with pytest.raises(DegenerateBasisError):
        synthesize_joint_state(graph, ids[0], basis_choice=(0, 0, 0, 1))


def test_self_loop_falls_back_to_the_first_two_basis_states():
    joint = triple_joint_state(3, 2, 2, 0.4)  # subject and object are basis state 2
    assert joint.basis == (0, 1, 0, 1)
    assert joint.target_entropy == 0.4
    assert abs(measure_entanglement(joint) - 0.4) <= ENTROPY_TOL
    with pytest.raises(DegenerateBasisError):
        triple_joint_state(1, 0, 0, 0.4)


def test_synthesize_basis_out_of_range():
    graph, ids = weighted_graph([0.5])
    with pytest.raises(DimensionMismatchError):
        synthesize_joint_state(graph, ids[0], basis_choice=(0, 5, 0, 1))


def test_joint_state_validates_target():
    with pytest.raises(WeightOutOfRangeError):
        JointState(0.5, (0, 1, 0, 1), (2, 2), target_entropy=1.2)
    with pytest.raises(ValueError, match="misses target"):
        JointState(0.5, (0, 1, 0, 1), (2, 2), target_entropy=0.3)
    for lam in (-0.1, 1.5):
        with pytest.raises(ValueError, match="Schmidt weight must lie in"):
            JointState(lam, (0, 1, 0, 1), (2, 2), target_entropy=0.5)


def test_maximally_entangled_reduction_is_balanced():
    graph, ids = weighted_graph([1.0])
    joint = synthesize_joint_state(graph, ids[0])
    for keep in ("A", "B"):
        reduced = partial_trace(outer(joint.state), joint.dims, keep)
        eigs = np.sort(np.linalg.eigvalsh(reduced.entries))[::-1]
        assert np.allclose(eigs[:2], [0.5, 0.5], atol=1e-9)
        assert np.allclose(eigs[2:], 0.0, atol=1e-12)


# --- closed form against the dense qla oracle ------------------------------------

def random_joint(rng, lam: float) -> JointState:
    """A two-term state with random d_L, d_R <= 64 and random support indices."""
    dl, dr = (int(d) for d in rng.integers(2, 65, size=2))
    il, jl = (int(i) for i in rng.choice(dl, 2, replace=False))
    ir, jr = (int(i) for i in rng.choice(dr, 2, replace=False))
    return JointState(lam, (il, jl, ir, jr), (dl, dr), binary_entropy(lam))


def oracle_lambdas(rng, count):
    """λ = 0, λ = 1 and random λ in turn."""
    return [(0.0, 1.0, float(rng.uniform()))[k % 3] for k in range(count)]


@pytest.mark.parametrize("base", [2.0, 3.0, 10.0])
def test_measure_entanglement_matches_dense_oracle(base):
    rng = np.random.default_rng(59)
    for lam in oracle_lambdas(rng, 90):
        joint = random_joint(rng, lam)
        dense = entanglement_entropy(joint.state, joint.dims, base)
        assert measure_entanglement(joint, base) == pytest.approx(dense, abs=1e-12)


@pytest.mark.parametrize("base", [2.0, 3.0, 10.0, math.e])
def test_measure_entanglement_matches_numpy_shannon_entropy(base):
    rng = np.random.default_rng(71)
    lams = [0.0, 1.0, 0.5, 1e-300, *rng.uniform(size=5_000), *10.0 ** rng.uniform(-300, 0, size=4_996)]
    for lam in lams:
        joint = JointState(float(lam), (0, 1, 0, 1), (2, 2), binary_entropy(lam))
        _, amplitudes = zip(*joint.support())
        expected = shannon_entropy(np.square(amplitudes), base)
        assert abs(measure_entanglement(joint, base) - expected) <= 4 * math.ulp(expected)


def test_measure_joint_matches_dense_oracle():
    # at large shot counts numpy can leave a rest on the last flat index, off the two terms' support
    rng = np.random.default_rng(61)
    for trial, lam in enumerate(oracle_lambdas(rng, 600)):
        joint = random_joint(rng, lam)
        for shots in (int(rng.integers(1, 200_000)), 10**14, 10**15, 10**17, 2**62):
            assert measure(joint, shots, seed=trial) == measure(joint.state, shots, seed=trial), (trial, shots)


def full_vector_counts(state, shots: int, seed: int) -> dict:
    """numpy's multinomial over every category of a dense state, the reference for ``measure``'s
    draw over the nonzero categories and the last index."""
    probs = state.probabilities()
    draws = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    return {int(k): int(draws[k]) for k in np.flatnonzero(draws)}


ORACLE_SHOTS = (1, 7, 10**3, 10**6, 10**12, 10**15)


def sparse_states(rng, count):
    """Dense states of 1 to 300 amplitudes with 1 to 6 nonzero, half of them nonzero at the last
    index; a third of those with two or more hold one amplitude of 1e-170, whose |a|² underflows to 0."""
    for _ in range(count):
        d = int(rng.integers(1, 301))
        k = int(rng.integers(1, min(d, 6) + 1))
        if rng.uniform() < 0.5:
            support = [*rng.choice(d - 1, k - 1, replace=False), d - 1]
        else:
            support = list(rng.choice(d, k, replace=False))
        amps = np.zeros(d, dtype=complex)
        amps[support] = rng.normal(size=k) + 1j * rng.normal(size=k)
        if k > 1 and rng.uniform() < 1 / 3:
            amps[support[int(rng.integers(k))]] = 1e-170
        yield make_state(amps)


def test_measure_dense_matches_the_full_vector_draw():
    rng = np.random.default_rng(83)
    underflowed = leftovers = 0
    for state in sparse_states(rng, 2_000):
        probs = state.probabilities()
        underflowed += bool(np.any((probs == 0) & (state.amplitudes != 0)))
        for shots in ORACLE_SHOTS:
            seed = int(rng.integers(2**32))
            expected = full_vector_counts(state, shots, seed)
            assert measure(state, shots, seed).counts == expected, (state.dim, shots, seed)
            leftovers += any(probs[k] == 0 for k in expected)
    # the table reaches both cases the narrowed draw must keep: a count numpy leaves on a
    # zero-probability last index, and a nonzero amplitude whose probability is 0
    assert underflowed > 0 and leftovers > 0


def test_measure_dense_joint_states_match_the_full_vector_draw():
    # shaped like the entangle_wide benchmark's states: d = 128, default support, weights 0, 1 or between
    rng = np.random.default_rng(89)
    for trial in range(200):
        weight = (0.0, 1.0, float(rng.uniform()))[trial % 3]
        subject, obj = (int(i) for i in rng.integers(128, size=2))
        state = triple_joint_state(128, subject, obj, weight).state
        for shots in (10_000, *ORACLE_SHOTS):
            assert measure(state, shots, trial).counts == full_vector_counts(state, shots, trial), (trial, shots)


def test_joint_state_support_matches_dense_amplitudes():
    rng = np.random.default_rng(67)
    for lam in oracle_lambdas(rng, 30):
        joint = random_joint(rng, lam)
        dense = {i: a for i, a in enumerate(joint.state.amplitudes) if a != 0}
        assert dense == {i: a for i, a in joint.support() if a != 0}
        assert [i for i, _ in joint.support()] == sorted(i for i, _ in joint.support())


def test_wide_vocabulary_never_builds_dense_amplitudes(monkeypatch):
    d = 20_000
    voc = vocabulary_from_symbols([f"x:S{i}" for i in range(d)])
    registry = ConverseRegistry()
    registry.register_converse("rel:F", "rel:B", 0.4)
    graph = CorollaGraph(voc, registry)
    tid = graph.join(graph.make_corolla("x:S7", "rel:F"), graph.make_corolla(f"x:S{d - 1}", "rel:B"))
    monkeypatch.setattr(JointState, "state", property(lambda _: pytest.fail("dense amplitudes built")))
    tracemalloc.start()
    try:
        joint = synthesize_joint_state(graph, tid)
        entropy = measure_entanglement(joint)
        record = measure(joint, shots=10_000, seed=5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # the dense state alone would take d² · 16 B = 6.4 GB
    assert joint.dims == (d, d)
    assert entropy == pytest.approx(0.4, abs=1e-6)
    assert sum(record.counts.values()) == 10_000
    assert set(record.counts) == {7 * d + 7, (d - 1) * d + d - 1}


def test_measure_rejects_out_of_range_shots():
    for shots in (0, 2**63, 10**20):
        with pytest.raises(ValueError, match="shots"):
            measure(basis_state(2, 0), shots=shots, seed=1)


# --- Bell states -----------------------------------------------------------------

def test_bell_state_amplitudes():
    r = 1 / math.sqrt(2)
    by_label = {b.label: b.state.amplitudes for b in bell_states()}
    assert np.allclose(by_label["phi+"], [r, 0, 0, r])
    assert np.allclose(by_label["phi-"], [r, 0, 0, -r])
    assert np.allclose(by_label["psi+"], [0, r, r, 0])
    assert np.allclose(by_label["psi-"], [0, r, -r, 0])


def test_bell_states_unit_entanglement():
    from qcorolla.qla import entanglement_entropy

    for bell in bell_states():
        assert entanglement_entropy(bell.state, (2, 2), 2.0) == pytest.approx(1.0, abs=1e-9)


def test_bell_states_pairwise_orthogonal():
    states = bell_states()
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            expected = 1.0 if i == j else 0.0
            assert bell_fidelity(a, b) == pytest.approx(expected, abs=1e-12)


# --- metapattern mapping -------------------------------------------------------------

def test_default_pattern_assignment_in_order():
    assert map_triple_pattern(DEFAULT_PATTERN_TAGS[0]).label == "phi+"
    assert [map_triple_pattern(t).label for t in DEFAULT_PATTERN_TAGS] == list(BELL_LABELS)


def test_swapped_pattern_config_honored():
    config = default_pattern_config()
    config[DEFAULT_PATTERN_TAGS[0]] = "psi-"
    assert map_triple_pattern(DEFAULT_PATTERN_TAGS[0], config).label == "psi-"


def test_unknown_pattern_rejected():
    with pytest.raises(UnknownPatternError):
        map_triple_pattern("pattern-9")
    with pytest.raises(UnknownPatternError, match="configured label 'phi0' is not a Bell label"):
        map_triple_pattern(DEFAULT_PATTERN_TAGS[0], {DEFAULT_PATTERN_TAGS[0]: "phi0"})


# --- measurement ----------------------------------------------------------------------

def test_measure_deterministic_state():
    record = measure(basis_state(2, 0), shots=1000, seed=3)
    assert record.counts == {0: 1000}


def test_measure_biased_state_frequency():
    record = measure(make_state([0.6, 0.8]), shots=100_000, seed=99)
    assert abs(record.counts[0] / record.shots - 0.36) <= 0.01


def test_measure_seed_reproducibility():
    a = measure(make_state([1, 1, 1, 1]), shots=5000, seed=1234)
    b = measure(make_state([1, 1, 1, 1]), shots=5000, seed=1234)
    assert a == b


def test_measure_counts_sum_to_shots():
    rng = np.random.default_rng(43)
    for trial in range(50):
        state = make_state(rng.normal(size=4) + 1j * rng.normal(size=4))
        record = measure(state, shots=1000, seed=trial)
        assert sum(record.counts.values()) == 1000
    with pytest.raises(ValueError, match="counts must sum to shots"):
        MeasurementRecord(shots=10, counts={0: 9}, seed=0)


def test_measure_frequencies_converge():
    rng = np.random.default_rng(47)
    for trial in range(1000):
        state = make_state(rng.normal(size=4) + 1j * rng.normal(size=4))
        record = measure(state, shots=100_000, seed=trial)
        probs = state.probabilities()
        for i in range(4):
            assert abs(record.counts.get(i, 0) / record.shots - probs[i]) <= 0.01


def test_measure_record_json_shape():
    record = measure(make_state([0.6, 0.8]), shots=10, seed=5)
    payload = record.as_dict()
    assert set(payload) == {"seed", "shots", "counts"}
    assert all(isinstance(k, str) for k in payload["counts"])


# --- tessellated rounding ----------------------------------------------------------------

VOC3 = vocabulary_from_symbols(["sym:a", "sym:b", "sym:c"])


def test_round_exact_basis_vector():
    symbol, fid = tessellate_round([0, 0, 1], VOC3)
    assert symbol == "sym:c"
    assert fid == 1.0


def test_round_noisy_vector_dominant_component():
    noisy = [0.9, 0.1, 0.05]
    overlaps = np.abs(noisy) ** 2 / np.sum(np.abs(noisy) ** 2)  # hand oracle
    assert int(np.argmax(overlaps)) == 0
    symbol, fid = tessellate_round(noisy, VOC3)
    assert symbol == "sym:a"
    assert fid == pytest.approx(overlaps[0], abs=1e-12)


def test_round_tie_breaks_to_lowest_index():
    voc = vocabulary_from_symbols(["sym:a", "sym:b"])
    symbol, fid = tessellate_round([1 / math.sqrt(2), 1 / math.sqrt(2)], voc)
    assert symbol == "sym:a"
    assert fid == pytest.approx(0.5)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0, float("nan"))])
def test_round_rejects_a_non_finite_amplitude(bad):
    with pytest.raises(ValueError, match="^amplitudes must be finite numbers$"):
        tessellate_round([bad, 0, 0], VOC3)


def test_round_is_idempotent():
    rng = np.random.default_rng(53)
    for _ in range(100):
        noisy = rng.normal(size=3) + 1j * rng.normal(size=3)
        symbol, _ = tessellate_round(noisy, VOC3)
        basis = np.zeros(3)
        basis[VOC3.index(symbol)] = 1.0
        again, fid = tessellate_round(basis, VOC3)
        assert again == symbol
        assert fid == 1.0


def test_round_rejects_zero_vector():
    with pytest.raises(ZeroVectorError, match="^cannot normalize the zero vector$"):
        tessellate_round([0, 0j, -0.0], VOC3)


def test_round_rejects_wrong_length():
    for vector in ([1, 0], [1, 0, 0, 0]):
        with pytest.raises(DimensionMismatchError, match=rf"^vector length {len(vector)} != vocabulary size 3$"):
            tessellate_round(vector, VOC3)


@pytest.mark.parametrize("case", sorted(EXTREME_AMPLITUDES))
def test_round_normalizes_without_overflow_or_underflow(case):
    amplitudes, probabilities = EXTREME_AMPLITUDES[case]
    k = int(np.argmax(probabilities))  # the first maximum, as ties break to the lowest index
    symbol, fid = tessellate_round(amplitudes, VOC3)
    assert symbol == VOC3.symbol(k)
    assert fid == pytest.approx(probabilities[k], abs=1e-12)


finite_parts = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from([0.0, 1.0, -1.0, 5e-324]))


@settings(max_examples=400, deadline=None)
@given(st.lists(st.builds(complex, finite_parts, finite_parts), min_size=1, max_size=8))
@example([7153540749557368j, 89636249 + 7153540749557368j])  # fidelities within an ulp: numpy ties them
def test_round_matches_the_dense_oracle(amplitudes):
    voc = vocabulary_from_symbols([f"sym:S{i}" for i in range(len(amplitudes))])
    if not any(amplitudes):
        with pytest.raises(ZeroVectorError, match="^cannot normalize the zero vector$"):
            tessellate_round(amplitudes, voc)
        return
    overlaps = make_state(amplitudes).probabilities()
    k = int(np.argmax(overlaps))  # the first maximum
    symbol, fid = tessellate_round(amplitudes, voc)
    assert abs(fid - overlaps[k]) <= 1e-12
    # the same symbol, unless two fidelities lie within rounding of each other, where numpy's own
    # complex abs (not libm's hypot) decides which is larger
    assert symbol == voc.symbol(k) or overlaps[k] - overlaps[voc.index(symbol)] <= 4 * math.ulp(overlaps[k])


def test_round_unnormalized_input_normalized():
    symbol, fid = tessellate_round([0, 10.0, 0], VOC3)
    assert symbol == "sym:b"
    assert fid == 1.0
