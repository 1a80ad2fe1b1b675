"""The contract of the package's value classes: read-only fields, equality, copies, and
the inputs each rejects, with the error class and message, checks run in their order."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qcorolla
from qcorolla.corolla import BACKWARD, FORWARD, Corolla, DirectedPredicate, NodeReport, ValidationReport
from qcorolla.entangle import BellState, JointState, MeasurementRecord
from qcorolla.errors import (
    DegenerateBasisError,
    DimensionMismatchError,
    DuplicateSymbolError,
    EmptyVectorError,
    EmptyVocabularyError,
    WeightOutOfRangeError,
)
from qcorolla.qla import DensityMatrix, SchmidtDecomposition, StateVector, basis_state, outer, schmidt
from qcorolla.qusym import Grammar, ScalingRow, StringEntropy, StringValidation, Vocabulary
from qcorolla.store import IngestResult, Statement
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
    "StateVector": (lambda: basis_state(2, 1), "amplitudes"),
    "DensityMatrix": (lambda: outer(basis_state(2, 1)), "entries"),
    "SchmidtDecomposition": (lambda: schmidt(basis_state(4, 1), (2, 2)), "coefficients"),
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


# the READ_ONLY classes whose __init__ checks their fields: one form, fields in __dict__ and a read-only __setattr__
CHECKED = ("Vocabulary", "Grammar", "DirectedPredicate", "JointState", "MeasurementRecord", "HyperVector",
           "OuterProduct", "StateVector", "DensityMatrix", "SchmidtDecomposition")


@pytest.mark.parametrize("name", CHECKED)
def test_every_checked_value_names_the_field_it_keeps(name):
    make, field = READ_ONLY[name]
    value = make()
    with pytest.raises(AttributeError, match=rf"^cannot assign to field '{field}'$"):
        setattr(value, field, None)
    assert "__slots__" not in vars(type(value)) and field in vars(value)


def test_no_module_loads_dataclasses():
    # numpy first, so that only what qcorolla's own modules load is counted
    code = ("import sys, pkgutil, importlib, numpy, qcorolla\n"
            "before = set(sys.modules)\n"
            "for module in pkgutil.iter_modules(qcorolla.__path__):\n"
            "    importlib.import_module('qcorolla.' + module.name)\n"
            "print(*sorted(set(sys.modules) - before))")
    src = str(Path(qcorolla.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = done.stdout.split()
    assert "qcorolla.qla" in loaded and "qcorolla.cli" in loaded
    assert "dataclasses" not in loaded


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


def plain(value):
    """A value's fields as lists, dicts and scalars, so that two values of a class compared by identity
    can be compared by what they hold."""
    if isinstance(value, np.ndarray):
        return [value.dtype.str, value.tolist()]
    if isinstance(value, tuple):
        return [plain(item) for item in value]
    if hasattr(value, "__dict__"):
        return {name: plain(field) for name, field in vars(value).items()}
    return value


def test_copies_and_pickles_of_the_linear_algebra_records_hold_their_fields():
    state = StateVector([0.6, 0.8j])
    values = [state, outer(state), schmidt(StateVector([0.6, 0.0, 0.0, 0.8]), (2, 2))]
    for value in values:
        for other in (copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(other) is type(value) and other is not value and other != value  # compared by identity
            assert plain(other) == plain(value), value
            with pytest.raises(AttributeError):
                other.other = 1


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
    "state: empty": (lambda: StateVector([]), EmptyVectorError, "state vector needs at least one amplitude"),
    "state: not a vector": (lambda: StateVector([[1.0]]), EmptyVectorError, "state vector needs at least one amplitude"),
    "state: norm": (lambda: StateVector([1.0, 1.0]), ValueError, "state vector not normalized: sum |a|^2 = 2.0"),
    "density: shape, before the other checks": (
        lambda: DensityMatrix([[1.0, 2.0]]), DimensionMismatchError, "density matrix must be square, got shape (1, 2)"),
    "density: Hermitian, before the trace": (
        lambda: DensityMatrix([[2.0, 1.0], [0.0, 2.0]]), ValueError, "density matrix is not Hermitian"),
    "density: trace, before the spectrum": (
        lambda: DensityMatrix([[2.0, 0.0], [0.0, -2.0]]), ValueError, "density matrix trace is 0j, expected 1"),
    "density: spectrum": (
        lambda: DensityMatrix([[1.5, 0.0], [0.0, -0.5]]), ValueError,
        "density matrix has a significantly negative eigenvalue"),
    "schmidt: order, before the square sum": (
        lambda: SchmidtDecomposition([0.1, 0.2], (), ()), ValueError,
        "Schmidt coefficients must be non-negative and non-increasing"),
    "schmidt: square sum, before the bases": (
        lambda: SchmidtDecomposition([0.5, 0.5], (basis_state(2, 0),) * 2, (basis_state(2, 0),) * 2), ValueError,
        "Schmidt coefficients must square-sum to 1"),
    "schmidt: left basis": (
        lambda: SchmidtDecomposition([1.0, 0.0], (basis_state(2, 0),) * 2, (basis_state(2, 0), basis_state(2, 1))),
        ValueError, "Schmidt bases must be orthonormal"),
    "schmidt: right basis": (
        lambda: SchmidtDecomposition([1.0, 0.0], (basis_state(2, 0), basis_state(2, 1)), (basis_state(2, 1),) * 2),
        ValueError, "Schmidt bases must be orthonormal"),
}


@pytest.mark.parametrize("case", sorted(REJECTED))
def test_constructors_reject_with_the_same_error_and_message(case):
    make, error, message = REJECTED[case]
    with pytest.raises(error) as caught:
        make()
    assert type(caught.value) is error and str(caught.value) == message
