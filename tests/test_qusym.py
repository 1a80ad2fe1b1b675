"""Vocabularies, symbol encoding, ensembles, grammar closure, entropy scaling."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qcorolla.errors import (
    DimensionMismatchError,
    DuplicateSymbolError,
    EmptyVocabularyError,
    MalformedTokenError,
    ProbabilityMismatchError,
    UnknownSymbolError,
)
from qcorolla.qla import make_state, von_neumann_entropy
from qcorolla.qusym import (
    Grammar,
    Qusym,
    Vocabulary,
    checked_vocabulary,
    load_vocabulary,
    qusym_ensemble,
    save_vocabulary,
    scaling_table,
    string_entropy,
    validate_string,
    vocabulary_from_symbols,
    encode_symbol,
)

PEOPLE = vocabulary_from_symbols(["person:Bob", "person:Alice", "person:Mary"])


# --- vocabularies ----------------------------------------------------------

def test_binary_vocabulary():
    voc = vocabulary_from_symbols(["0", "1"])
    assert voc.d == len(voc) == 2
    assert voc.index("0") == 0 and voc.index("1") == 1


def test_ascii_sized_vocabulary():
    voc = vocabulary_from_symbols([f"ch{i}" for i in range(128)])
    assert voc.d == 128


def test_duplicate_symbol_rejected():
    with pytest.raises(DuplicateSymbolError):
        vocabulary_from_symbols(["a", "a"])


def test_empty_vocabulary_rejected():
    with pytest.raises(EmptyVocabularyError):
        vocabulary_from_symbols([])


def test_whitespace_symbol_rejected():
    with pytest.raises(ValueError):
        vocabulary_from_symbols(["a b"])


@pytest.mark.parametrize("entry", [b"b", 5, None], ids=repr)
def test_symbol_that_is_not_a_str_rejected(entry):
    for make in (Vocabulary, lambda symbols: Grammar(frozenset(symbols))):
        with pytest.raises(ValueError) as caught:
            make(("a", entry))
        assert str(caught.value) == f"symbols must be str, got {entry!r}"


def first_vocabulary_fault(entries):
    """Oracle: the first entry-by-entry fault as (error type, message), or None."""
    seen = set()
    for symbol in entries:
        if not symbol:
            return ValueError, "symbols must be non-empty"
        if symbol.split() != [symbol]:
            return ValueError, f"symbols must not contain whitespace: {symbol!r}"
        if symbol in seen:
            return DuplicateSymbolError, f"duplicate symbol {symbol!r}"
        seen.add(symbol)
    return None


@given(st.lists(st.text(alphabet="ab \t\n\u00a0\u2003", max_size=3), min_size=1, max_size=6))
def test_vocabulary_checks_name_the_first_fault(entries):
    fault = first_vocabulary_fault(entries)
    if fault is None:
        voc = Vocabulary(tuple(entries))
        assert [voc.index(symbol) for symbol in entries] == list(range(len(entries)))
        return
    with pytest.raises(fault[0]) as caught:
        Vocabulary(tuple(entries))
    assert type(caught.value) is fault[0] and str(caught.value) == fault[1]


def test_single_symbol_degenerate_space():
    voc = vocabulary_from_symbols(["only"])
    assert voc.d == 1
    rho = qusym_ensemble(voc, {"only": 1.0})
    assert von_neumann_entropy(rho, 2.0) == pytest.approx(0.0, abs=1e-12)


# --- encoding ------------------------------------------------------------------

def test_encode_symbol_one_hot():
    assert np.allclose(encode_symbol(PEOPLE, "person:Alice").state.amplitudes, [0, 1, 0])
    assert np.allclose(encode_symbol(PEOPLE, "person:Bob").state.amplitudes, [1, 0, 0])


def test_encode_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        encode_symbol(PEOPLE, "person:Carol")
    with pytest.raises(DimensionMismatchError, match="state dim 2 != vocabulary size 3"):
        Qusym(PEOPLE, make_state([1, 0]))


def test_encode_decode_roundtrip_large_vocabulary():
    rng = np.random.default_rng(31)
    names = [f"v:S{i}_{rng.integers(1_000_000)}" for i in range(1000)]
    voc = vocabulary_from_symbols(names)
    for symbol in names:
        q = encode_symbol(voc, symbol)
        assert voc.symbol(int(np.argmax(np.abs(q.state.amplitudes)))) == symbol


# --- ensembles -------------------------------------------------------------------

def test_uniform_ensemble_maximally_mixed():
    voc = vocabulary_from_symbols(["a", "b", "c", "d"])
    rho = qusym_ensemble(voc, {s: 0.25 for s in voc})
    assert np.allclose(rho.entries, np.eye(4) / 4)
    assert von_neumann_entropy(rho, 4.0) == pytest.approx(1.0, abs=1e-12)


def test_point_mass_ensemble_zero_entropy():
    rho = qusym_ensemble(PEOPLE, {"person:Bob": 1.0})
    assert von_neumann_entropy(rho, 2.0) == pytest.approx(0.0, abs=1e-12)


def test_ensemble_weight_sum_checked():
    with pytest.raises(ProbabilityMismatchError):
        qusym_ensemble(PEOPLE, {"person:Bob": 0.5, "person:Alice": 0.4})


def test_ensemble_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        qusym_ensemble(PEOPLE, {"person:Zed": 1.0})


def test_ensemble_entropy_matches_shannon():
    rng = np.random.default_rng(37)
    for d in (2, 4, 8):
        voc = vocabulary_from_symbols([f"s:{i}" for i in range(d)])
        probs = rng.dirichlet(np.ones(d))
        rho = qusym_ensemble(voc, dict(zip(voc, probs)))
        shannon = -sum(p * math.log(p, d) for p in probs if p > 0)
        assert von_neumann_entropy(rho, float(d)) == pytest.approx(shannon, abs=1e-9)


# --- string entropy and scaling ------------------------------------------------------

def test_string_entropy_coin_toss():
    assert string_entropy(1, 2).bits == 1.0
    assert string_entropy(1, 2).count == 2


def test_string_entropy_ascii_symbol():
    result = string_entropy(1, 128)
    assert result.bits == 7.0
    assert result.count == 128


def test_string_entropy_byte():
    result = string_entropy(8, 2)
    assert result.bits == 8.0
    assert result.count == 256


def test_string_entropy_and_scaling_table_reject_out_of_range_input():
    with pytest.raises(ValueError, match="length must be positive, got 0"):
        string_entropy(0, 2)
    with pytest.raises(ValueError, match="base must be at least 2, got 1"):
        string_entropy(1, 1)
    with pytest.raises(ValueError, match="lengths and bases must be non-empty"):
        scaling_table([], [2])


def test_string_entropy_huge_count_is_exact():
    result = string_entropy(300, 10)
    assert result.count == 10**300  # arbitrary-precision, no overflow


@given(st.integers(min_value=1, max_value=64), st.integers(min_value=2, max_value=256))
def test_string_entropy_linear_in_length(length, base):
    assert string_entropy(length, base).bits == pytest.approx(
        length * string_entropy(1, base).bits, abs=1e-12
    )


def test_scaling_table_horizontal_growth():
    rows = scaling_table([1, 2, 3, 4], [2])
    assert [r.string_count for r in rows] == [2, 4, 8, 16]


def test_scaling_table_vertical_growth():
    rows = scaling_table([1], [2, 4, 8, 16])
    assert [r.string_count for r in rows] == [2, 4, 8, 16]


def test_scaling_table_derived_cell():
    oracle = 2 * math.log2(3)  # independent arithmetic for the (2, 3) cell
    assert oracle == pytest.approx(3.1699, abs=1e-4)
    (row,) = scaling_table([2], [3])
    assert row.entropy_bits == pytest.approx(oracle, abs=1e-12)


def test_scaling_table_monotone_both_axes():
    lengths, bases = [1, 2, 3], [2, 3, 4]
    rows = {(r.length, r.base): r for r in scaling_table(lengths, bases)}
    assert len(rows) == 9
    for length in lengths:
        for lo, hi in zip(bases, bases[1:]):
            assert rows[(length, hi)].entropy_bits > rows[(length, lo)].entropy_bits
            assert rows[(length, hi)].string_count > rows[(length, lo)].string_count
    for base in bases:
        for lo, hi in zip(lengths, lengths[1:]):
            assert rows[(hi, base)].entropy_bits > rows[(lo, base)].entropy_bits
            assert rows[(hi, base)].string_count > rows[(lo, base)].string_count


# --- grammar validation -------------------------------------------------------------

AB = Grammar(symbols=frozenset({"a", "b"}))


def test_validate_string_accepts_member():
    assert validate_string(AB, "abba").accepted
    assert validate_string(AB, "abba")


def test_validate_string_rejects_foreign_symbol():
    result = validate_string(AB, "abc")
    assert not result.accepted
    assert not result
    assert "position 2" in result.reason


def test_validate_string_reports_failing_rule():
    grammar = Grammar(
        symbols=frozenset({"a", "b"}),
        rules=(("even length", lambda s: len(s) % 2 == 0),),
    )
    result = validate_string(grammar, "aba")
    assert not result.accepted
    assert "even length" in result.reason


def test_validate_string_multicharacter_symbols_exact():
    # greedy matching would take "ab" then fail; the DP finds "a" + "bb"
    grammar = Grammar(symbols=frozenset({"ab", "a", "bb"}))
    assert validate_string(grammar, "abb").accepted
    assert not validate_string(grammar, "ba").accepted


@given(
    st.sets(st.sampled_from("ab"), min_size=1).map(frozenset),
    st.text(alphabet="abc", max_size=12),
)
def test_validate_string_matches_bruteforce_scan(symbols, candidate):
    expected = all(ch in symbols for ch in candidate)
    assert validate_string(Grammar(symbols=symbols), candidate).accepted == expected


# --- vocabulary files -----------------------------------------------------------------

def test_load_vocabulary_skips_comments(tmp_path):
    path = tmp_path / "voc.txt"
    path.write_text("# header\nperson:Bob\n\nperson:Alice\n# tail\n", encoding="utf-8")
    voc = load_vocabulary(path)
    assert voc.entries == ("person:Bob", "person:Alice")
    assert voc.index("person:Alice") == 1


def test_vocabulary_file_roundtrip(tmp_path):
    path = tmp_path / "voc.txt"
    save_vocabulary(PEOPLE, path)
    assert load_vocabulary(path).entries == PEOPLE.entries


def test_load_vocabulary_rejects_bare_entry(tmp_path):
    path = tmp_path / "voc.txt"
    path.write_text("Bob\nperson:Alice\n", encoding="utf-8")
    with pytest.raises(MalformedTokenError, match="'Bob'") as info:
        load_vocabulary(path)
    assert (info.value.line, info.value.column) == (1, 1)


def test_load_vocabulary_reports_file_line_after_comments(tmp_path):
    path = tmp_path / "voc.txt"
    path.write_text("# people\n\nperson:Bob\n# more\n  person:Al ice\n", encoding="utf-8")
    with pytest.raises(MalformedTokenError) as info:
        load_vocabulary(path)
    assert (info.value.line, info.value.column) == (5, 3)


@given(st.lists(st.sampled_from(["a:A", "a:B", "b:C", "A", "a:A b", ""]), min_size=1, max_size=6))
def test_checked_vocabulary_names_the_first_fault_in_line_order(entries):
    seen, fault = set(), None  # oracle: entry by entry, (error type, index) of the first fault
    for k, entry in enumerate(entries):
        if entry not in ("a:A", "a:B", "b:C"):
            fault = MalformedTokenError, k, f"vocabulary entry {entry!r} is not a namespaced symbol"
        elif entry in seen:
            fault = DuplicateSymbolError, k, f"duplicate symbol {entry!r}"
        if fault:
            break
        seen.add(entry)

    def where(k):  # any map from an entry to its place
        return 2 * k + 1, k + 3

    if fault is None:
        voc = checked_vocabulary(entries, where)
        assert voc.entries == tuple(entries)
        assert checked_vocabulary(voc) is voc
        return
    error, k, message = fault
    with pytest.raises(error) as caught:
        checked_vocabulary(entries, where)
    assert type(caught.value) is error and str(caught.value) == f"line {2 * k + 1}, column {k + 3}: {message}"
