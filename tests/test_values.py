"""The contract of the package's value classes: read-only fields, equality, copies, and
the inputs each rejects, with the error class and message, checks run in their order."""

import copy
import pickle

import pytest

from qcorolla.corolla import BACKWARD, FORWARD, Corolla, DirectedPredicate, ValidationReport
from qcorolla.entangle import BellState, JointState, MeasurementRecord
from qcorolla.errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    DuplicateSymbolError,
    EmptyVocabularyError,
    WeightOutOfRangeError,
)
from qcorolla.qusym import Grammar, ScalingRow, StringEntropy, StringValidation, Vocabulary
from qcorolla.store import IngestResult, NodeReport, Statement
from qcorolla.vsa import HyperVector, OuterProduct, bind_tensor

# a value of each class whose fields are read-only, with one of its fields
READ_ONLY = {
    "Vocabulary": (lambda: Vocabulary(("a:A", "a:B")), "entries"),
    "Grammar": (lambda: Grammar(frozenset({"a"})), "symbols"),
    "DirectedPredicate": (lambda: DirectedPredicate("r:F", 0.2, FORWARD), "half_weight"),
    "JointState": (lambda: JointState(0.5, (0, 1, 0, 1), (2, 2), 1.0), "lam"),
    "MeasurementRecord": (lambda: MeasurementRecord(2, {0: 2}, 7), "shots"),
    "HyperVector": (lambda: HyperVector([1, 0, 1]), "value"),
    "OuterProduct": (lambda: bind_tensor(HyperVector([1, 0]), HyperVector([0, 1])), "factors"),
    # named tuples
    "StringEntropy": (lambda: StringEntropy(1.0, 2), "bits"),
    "ScalingRow": (lambda: ScalingRow(1, 2, 1.0, 2), "base"),
    "StringValidation": (lambda: StringValidation(True), "accepted"),
    "BellState": (lambda: BellState("phi+", None), "label"),
    "ValidationReport": (lambda: ValidationReport([], [], [], []), "unpaired"),
    "IngestResult": (lambda: IngestResult(None, 0, 0, 0), "statements"),
    "NodeReport": (lambda: NodeReport("a:A", (), ()), "corollas"),
}


@pytest.mark.parametrize("name", sorted(READ_ONLY))
def test_assignment_raises_attribute_error(name):
    make, field = READ_ONLY[name]
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    with pytest.raises(AttributeError):
        setattr(value, "other", 1)
    assert getattr(value, field) is before


def test_read_only_classes_name_the_field():
    with pytest.raises(AttributeError, match=r"^cannot assign to field 'entries'$"):
        Vocabulary(("a:A",)).entries = ("a:B",)


def test_cached_properties_fill_a_read_only_value():
    joint = JointState(0.5, (0, 1, 0, 1), (2, 2), 1.0)
    assert joint.state is joint.state and joint == JointState(0.5, (0, 1, 0, 1), (2, 2), 1.0)
    vector = HyperVector([1, 0, 1])
    assert vector.bits is vector.bits and vector.bits.tolist() == [1, 0, 1]


def test_statement_equality_ignores_columns():
    assert Statement("a:X", "r:F", "a:Y", 2, (1, 5, 9)) == Statement("a:X", "r:F", "a:Y", 2)
    assert Statement("a:X", "r:F", "a:Y", 2) != Statement("a:X", "r:F", "a:Y", 3)
    assert Statement("a:X", "r:F", "a:Y", 2) != ("a:X", "r:F", "a:Y", 2)


def test_vocabulary_equality_ignores_its_index():
    voc, other = Vocabulary(("a:A", "a:B")), Vocabulary(("a:A", "a:B"))
    object.__setattr__(other, "_index", {})
    assert voc == other and voc != Vocabulary(("a:B", "a:A")) and voc != ("a:A", "a:B")


def test_equal_fields_make_equal_values():
    forward = DirectedPredicate("r:F", 0.2, FORWARD)
    assert forward == DirectedPredicate("r:F", 0.2, FORWARD) != DirectedPredicate("r:F", 0.3, FORWARD)
    corolla = Corolla("a:A", forward, 1)
    assert corolla == Corolla("a:A", DirectedPredicate("r:F", 0.2, FORWARD), 1) != Corolla("a:A", forward, 2)
    assert {corolla, Corolla("a:A", forward, 1)} == {corolla}
    assert MeasurementRecord(2, {0: 2}, 7) == MeasurementRecord(2, {0: 2}, 7) != MeasurementRecord(2, {0: 2}, 8)
    assert JointState(0.5, (0, 1, 0, 1), (2, 2), 1.0) != JointState(0.5, (0, 1, 1, 0), (2, 2), 1.0)
    assert HyperVector([1, 0, 1]) == HyperVector.from_hex("a", n=3) != HyperVector([1, 0, 1, 0])
    assert hash(HyperVector([1, 0, 1])) == hash(HyperVector.from_hex("a", n=3))
    product = OuterProduct([[1, -1], [-1, 1]])
    assert product == product != OuterProduct([[1, -1], [-1, 1]])  # compared by identity


def test_copies_and_pickles_equal_the_original():
    forward = DirectedPredicate("r:F", 0.2, FORWARD)
    values = [forward, Corolla("a:A", forward, 1), Statement("a:X", "r:F", "a:Y", 2), Vocabulary(("a:A", "a:B")),
              JointState(0.5, (0, 1, 0, 1), (2, 2), 1.0), MeasurementRecord(2, {0: 2}, 7), HyperVector([1, 0, 1])]
    for value in values:
        assert copy.deepcopy(value) == value == pickle.loads(pickle.dumps(value)), value


# (constructor call, error class, message): each check in its order, the first failing one named
REJECTED = {
    "joint: target above 1, before a degenerate basis": (
        lambda: JointState(0.5, (0, 0, 0, 1), (2, 2), 1.2),
        WeightOutOfRangeError, "target entropy must lie in [0, 1] bits, got 1.2"),
    "joint: degenerate basis, before an index out of range": (
        lambda: JointState(0.5, (0, 1, 5, 5), (2, 2), 1.0),
        DegenerateBasisError, "basis indices must differ per side, got (0, 1, 5, 5)"),
    "joint: index out of range, before a bad weight": (
        lambda: JointState(2.0, (0, 1, 0, 2), (2, 2), 1.0),
        DimensionMismatchError, "basis index 2 out of range for d=2"),
    "joint: Schmidt weight": (
        lambda: JointState(-0.1, (0, 1, 0, 1), (2, 2), 0.5),
        ValueError, "Schmidt weight must lie in [0, 1], got -0.1"),
    "joint: entropy off target": (
        lambda: JointState(0.5, (0, 1, 0, 1), (2, 2), 0.3),
        ValueError, "state entropy 1.0 misses target 0.3"),
    "record: counts": (
        lambda: MeasurementRecord(shots=10, counts={0: 9}, seed=0), ValueError, "counts must sum to shots"),
    "predicate: direction, before its sign": (
        lambda: DirectedPredicate("x:S", -1.0, "sideways"),
        ValueError, "direction must be forward|backward, got 'sideways'"),
    "predicate: negative forward": (
        lambda: DirectedPredicate("x:F", -0.1, FORWARD), ValueError, "forward predicates need a non-negative half-weight"),
    "predicate: positive backward": (
        lambda: DirectedPredicate("x:B", 0.1, BACKWARD), ValueError, "backward predicates need a non-positive half-weight"),
    "vocabulary: empty": (lambda: Vocabulary(()), EmptyVocabularyError, "vocabulary needs at least one symbol"),
    "vocabulary: not a str": (lambda: Vocabulary(("a", 5)), ValueError, "symbols must be str, got 5"),
    "vocabulary: empty symbol": (lambda: Vocabulary(("a", "")), ValueError, "symbols must be non-empty"),
    "vocabulary: whitespace, before a later repeat": (
        lambda: Vocabulary(("a b", "c", "c")), ValueError, "symbols must not contain whitespace: 'a b'"),
    "vocabulary: repeat, before later whitespace": (
        lambda: Vocabulary(("c", "c", "a b")), DuplicateSymbolError, "duplicate symbol 'c'"),
    "grammar: not a str": (lambda: Grammar(frozenset({None})), ValueError, "symbols must be str, got None"),
    "grammar: empty symbol": (lambda: Grammar(frozenset({""})), ValueError, "symbols must be non-empty"),
    "grammar: whitespace": (lambda: Grammar(frozenset({"a\tb"})), ValueError, "symbols must not contain whitespace: 'a\\tb'"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_constructors_reject_with_the_same_error_and_message(case):
    make, error, message = REJECTED[case]
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error and str(caught.value) == message
