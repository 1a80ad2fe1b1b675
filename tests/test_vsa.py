"""VSA binding algebra: XOR group structure, tensor products, compression."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcorolla.errors import DimensionMismatchError
from qcorolla.vsa import (
    HyperVector,
    OuterProduct,
    bind_tensor,
    bind_xor,
    bundle_majority,
    compress_outer,
    random_hypervector,
    similarity,
    unbind_xor,
)

bit_lists = st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=64)


def paired_bits(draw_size=64):
    return st.integers(min_value=1, max_value=draw_size).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
            st.lists(st.integers(0, 1), min_size=n, max_size=n),
        )
    )


# --- generation ---------------------------------------------------------------

def test_random_hypervector_seed_determinism():
    assert random_hypervector(1024, 7) == random_hypervector(1024, 7)


def test_random_hypervector_weight_concentration():
    weight = int(np.sum(random_hypervector(1024, 7).bits))
    assert 412 <= weight <= 612  # > 6 sigma bounds of Binomial(1024, 1/2)


def test_random_hypervector_rejects_zero_dim():
    with pytest.raises(ValueError):
        random_hypervector(0, 1)
    with pytest.raises(ValueError, match="at least one bit"):
        HyperVector.zero(0)


def test_hypervector_rejects_non_binary():
    with pytest.raises(ValueError):
        HyperVector(np.array([0, 2, 1]))
    with pytest.raises(ValueError, match="at least one bit"):
        HyperVector([])


# --- XOR binding ------------------------------------------------------------------

def test_bind_xor_self_inverse():
    a = random_hypervector(256, 1)
    assert bind_xor(a, a) == HyperVector.zero(256)


def test_bind_xor_identity_element():
    a = random_hypervector(256, 2)
    assert bind_xor(a, HyperVector.zero(256)) == a


def test_bind_xor_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        bind_xor(random_hypervector(8, 1), random_hypervector(16, 1))


def test_xor_commutativity_batch():
    for seed in range(1000):
        a = random_hypervector(64, 2 * seed)
        b = random_hypervector(64, 2 * seed + 1)
        assert bind_xor(a, b) == bind_xor(b, a)


def test_unbind_recovers_exactly():
    a = random_hypervector(1024, 10)
    b = random_hypervector(1024, 11)
    assert unbind_xor(a, bind_xor(a, b)) == b


def test_unbind_self_gives_zero():
    a = random_hypervector(128, 12)
    assert unbind_xor(a, a) == HyperVector.zero(128)


def test_xor_roundtrip_batch_exact():
    for seed in range(1000):
        a = random_hypervector(1024, 3 * seed)
        b = random_hypervector(1024, 3 * seed + 1)
        recovered = unbind_xor(a, bind_xor(a, b))
        assert np.array_equal(recovered.bits, b.bits)


@given(paired_bits())
def test_xor_commutes(pair):
    a, b = HyperVector(np.array(pair[0])), HyperVector(np.array(pair[1]))
    assert bind_xor(a, b) == bind_xor(b, a)


@given(
    st.integers(min_value=1, max_value=32).flatmap(
        lambda n: st.tuples(
            *[st.lists(st.integers(0, 1), min_size=n, max_size=n) for _ in range(3)]
        )
    )
)
def test_xor_associates(triple):
    a, b, c = (HyperVector(np.array(bits)) for bits in triple)
    assert bind_xor(bind_xor(a, b), c) == bind_xor(a, bind_xor(b, c))


@given(bit_lists)
def test_xor_group_inverse_and_identity(bits):
    a = HyperVector(np.array(bits))
    zero = HyperVector.zero(a.n)
    assert bind_xor(a, a) == zero
    assert bind_xor(a, zero) == a


# --- tensor binding ---------------------------------------------------------------

def test_bind_tensor_shape():
    op = bind_tensor(random_hypervector(4, 20), random_hypervector(4, 21))
    assert op.entries.shape == (4, 4)
    assert op.entries.size == 16


def test_bind_tensor_self_symmetric():
    a = random_hypervector(16, 22)
    op = bind_tensor(a, a)
    assert np.array_equal(op.entries, op.entries.T)


def test_bind_tensor_bipolar_values():
    op = bind_tensor(random_hypervector(8, 23), random_hypervector(8, 24))
    assert set(np.unique(op.entries)) <= {-1, 1}


def test_outer_product_holds_a_square_integer_matrix():
    op = OuterProduct(np.array([[1.0, -1.0], [-1.0, 1.0]]))
    assert op.entries.dtype == np.int64 and op.entries.tolist() == [[1, -1], [-1, 1]]
    with pytest.raises(DimensionMismatchError, match="must be square"):
        OuterProduct([[1, -1, 1]])


def test_bind_tensor_non_commutative_witness():
    found = 0
    for seed in range(100):
        a = random_hypervector(8, 1000 + 2 * seed)
        b = random_hypervector(8, 1001 + 2 * seed)
        ab, ba = bind_tensor(a, b).entries, bind_tensor(b, a).entries
        # oracle: scan for the first differing entry
        witness = next(
            ((i, j) for i in range(8) for j in range(8) if ab[i, j] != ba[i, j]), None
        )
        if witness is not None:
            assert ab[witness] != ba[witness]
            found += 1
    assert found > 0


# --- compression ---------------------------------------------------------------------

@pytest.mark.parametrize("n", [4, 64, 1024])
def test_compress_outer_dimension(n):
    a = random_hypervector(n, 30)
    b = random_hypervector(n, 31)
    assert compress_outer(bind_tensor(a, b)).n == n


def test_compress_outer_deterministic():
    a = random_hypervector(256, 32)
    b = random_hypervector(256, 33)
    assert compress_outer(bind_tensor(a, b)) == compress_outer(bind_tensor(a, b))


def test_compress_outer_known_small_case():
    # n = 2, a = (1, 0) -> (+1, -1), b = (1, 1) -> (+1, +1)
    # entries [[+1, +1], [-1, -1]]; anti-diagonal sums: k=0: E00+E11 = 0 -> 0
    # k=1: E01+E10 = 0 -> 0
    op = bind_tensor(HyperVector(np.array([1, 0])), HyperVector(np.array([1, 1])))
    assert compress_outer(op) == HyperVector.zero(2)


def test_compress_outer_sign_threshold():
    op = OuterProduct(np.array([[2, 1], [1, -1]]))
    # k=0 sum: 2 + (-1) = 1 -> 1 ; k=1 sum: 1 + 1 = 2 -> 1
    assert np.array_equal(compress_outer(op).bits, [1, 1])


def test_compress_outer_quasi_orthogonal_to_random():
    sims = []
    for seed in range(1000):
        a = random_hypervector(1024, 5 * seed)
        b = random_hypervector(1024, 5 * seed + 1)
        unrelated = random_hypervector(1024, 5 * seed + 2)
        sims.append(similarity(compress_outer(bind_tensor(a, b)), unrelated))
    assert abs(float(np.mean(sims)) - 0.5) <= 0.06


def bincount_compress(entries: np.ndarray) -> np.ndarray:
    """Anti-diagonal sums by an n² index and float64 weights, as a reference."""
    n = entries.shape[0]
    i = np.arange(n)
    index = ((i[:, None] + i[None, :]) % n).reshape(-1)
    sums = np.bincount(index, weights=entries.reshape(-1), minlength=n)
    return (sums > 0).astype(np.uint8)


def test_compress_outer_matches_bincount_reference():
    rng = np.random.default_rng(47)
    for n in range(1, 81):
        for _ in range(4):
            entries = rng.integers(-5, 6, size=(n, n))
            assert np.array_equal(compress_outer(OuterProduct(entries)).bits, bincount_compress(entries))


def test_compress_outer_is_circular_convolution_at_4096():
    a = random_hypervector(4096, 48)
    b = random_hypervector(4096, 49)
    x, y = (2.0 * v.bits - 1.0 for v in (a, b))
    sums = np.rint(np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(y), n=4096))
    assert np.array_equal(compress_outer(bind_tensor(a, b)).bits, (sums > 0).astype(np.uint8))


def test_tensor_fold_builds_no_wide_temporaries():
    a = random_hypervector(4096, 50)
    b = random_hypervector(4096, 51)
    tracemalloc.start()
    try:
        compress_outer(bind_tensor(a, b))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the int8 product is 16 MiB; one n² int64 or float64 array alone would be 128 MiB
    assert peak < 64 << 20


def fft_fold(a: HyperVector, b: HyperVector) -> np.ndarray:
    """Circular convolution of the bipolar vectors through the FFT, thresholded at > 0."""
    x, y = (2.0 * v.bits - 1.0 for v in (a, b))
    sums = np.rint(np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(y), n=a.n))
    return (sums > 0).astype(np.uint8)


hex_operands = st.integers(min_value=1, max_value=300).flatmap(
    lambda n: st.tuples(
        st.just(n),
        *[st.text("0123456789abcdefABCDEF", min_size=-(-n // 4), max_size=-(-n // 4))] * 2,
    )
)


@settings(deadline=None, max_examples=300)
@given(hex_operands)
def test_factored_fold_matches_the_dense_fold_and_the_fft(case):
    n, a_hex, b_hex = case
    a, b = HyperVector.from_hex(a_hex, n=n), HyperVector.from_hex(b_hex, n=n)
    op = bind_tensor(a, b)
    folded = compress_outer(op)
    assert folded == compress_outer(OuterProduct(op.entries))
    assert np.array_equal(folded.bits, fft_fold(a, b))


@pytest.mark.parametrize("n", [255, 256, 257])
def test_factored_fold_at_the_field_width_edges(n):
    # all ones puts n, the largest coefficient, in the middle field of the product
    ones = HyperVector([1] * n)
    one_zero = HyperVector([1] * (n - 1) + [0])
    pairs = [(ones, ones), (ones, one_zero), (one_zero, one_zero),
             (random_hypervector(n, 60), random_hypervector(n, 61))]
    for a, b in pairs:
        op = bind_tensor(a, b)
        folded = compress_outer(op)
        assert folded == compress_outer(OuterProduct(op.entries))
        assert np.array_equal(folded.bits, fft_fold(a, b))


def test_factored_fold_at_70000_matches_the_fft():
    a, b = random_hypervector(70_000, 62), random_hypervector(70_000, 63)
    assert np.array_equal(compress_outer(bind_tensor(a, b)).bits, fft_fold(a, b))


def test_factored_fold_at_4096_builds_no_matrix():
    op = bind_tensor(random_hypervector(4096, 64), random_hypervector(4096, 65))
    tracemalloc.start()
    try:
        compress_outer(op)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "entries" not in op.__dict__


# --- similarity -------------------------------------------------------------------------

def test_similarity_identical():
    a = random_hypervector(512, 40)
    assert similarity(a, a) == 1.0


def test_similarity_complement():
    a = random_hypervector(512, 41)
    assert similarity(a, HyperVector(1 - a.bits)) == 0.0


def test_similarity_random_pairs_mean():
    sims = [
        similarity(random_hypervector(1024, 7 * s), random_hypervector(1024, 7 * s + 3))
        for s in range(1000)
    ]
    assert abs(float(np.mean(sims)) - 0.5) <= 0.05


# --- serialization -----------------------------------------------------------------------

def test_hex_known_value():
    hv = HyperVector(np.array([1, 1, 0, 1, 1, 1, 1, 0]))
    assert hv.to_hex() == "de"
    assert HyperVector.from_hex("de") == hv


def test_hex_roundtrip_batch():
    for seed in range(100):
        hv = random_hypervector(1024, seed)
        assert HyperVector.from_hex(hv.to_hex()) == hv


def test_hex_non_multiple_of_four_pads():
    hv = HyperVector(np.array([1, 0, 1, 1, 0, 1]))  # 6 bits -> "b4"
    assert hv.to_hex() == "b4"
    assert HyperVector.from_hex("b4", n=6) == hv
    assert repr(hv) == "HyperVector.from_hex('b4', n=6)"
    assert eval(repr(hv), {"HyperVector": HyperVector}) == hv


def test_bits_are_built_once_and_read_only():
    hv = HyperVector.from_hex("b4", n=6)
    assert "bits" not in hv.__dict__
    assert hv.bits is hv.bits
    assert not hv.bits.flags.writeable
    assert hv.bits.tolist() == [1, 0, 1, 1, 0, 1]


def test_from_hex_rejects_bad_sizes():
    with pytest.raises(ValueError):
        HyperVector.from_hex("")
    with pytest.raises(ValueError):
        HyperVector.from_hex("ab", n=9)


# --- bundling (extension utility) ------------------------------------------------------------

def test_bundle_majority_vote():
    vs = [
        HyperVector(np.array([1, 1, 0, 0])),
        HyperVector(np.array([1, 0, 1, 0])),
        HyperVector(np.array([1, 1, 0, 0])),
    ]
    assert np.array_equal(bundle_majority(vs).bits, [1, 1, 0, 0])


def test_bundle_majority_rejects_an_empty_or_mixed_sequence():
    with pytest.raises(ValueError, match="empty sequence"):
        bundle_majority([])
    with pytest.raises(DimensionMismatchError, match="share one dimension"):
        bundle_majority([HyperVector.zero(2), HyperVector.zero(3)])


def test_bundle_majority_tie_resolves_to_zero():
    vs = [HyperVector(np.array([1, 0])), HyperVector(np.array([0, 1]))]
    assert bundle_majority(vs) == HyperVector.zero(2)


@settings(deadline=None)
@given(paired_bits(32))
def test_bundle_of_identical_pair_is_identity(pair):
    a = HyperVector(np.array(pair[0]))
    assert bundle_majority([a, a]) == a
