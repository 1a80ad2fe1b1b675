"""The package namespace: every public name resolves lazily to its submodule's object."""

import importlib

import pytest

import qcorolla

# the names the package has always exported
PUBLIC_NAMES = {
    "BellState", "ConverseRegistry", "Corolla", "CorollaGraph", "DensityMatrix",
    "DirectedPredicate", "Grammar", "HyperVector", "IngestResult", "JointState",
    "MeasurementRecord", "NodeRef", "OuterProduct", "Qusym", "SchmidtDecomposition",
    "Statement", "StateVector", "StringEntropy", "TripleDocument", "ValidationReport",
    "Vocabulary", "basis_state", "bell_states", "binary_entropy", "bind_tensor", "bind_xor",
    "bundle_majority", "compress_outer", "converse_statement", "encode_symbol",
    "entanglement_entropy", "export_jsonl", "fidelity", "ingest", "ingest_document",
    "invert_binary_entropy", "load_registry", "load_snapshot", "load_triples",
    "load_vocabulary", "make_state", "map_triple_pattern", "measure", "measure_entanglement",
    "mix", "outer", "parse_triple_line", "parse_triples_text", "partial_trace",
    "query_node", "qusym_ensemble", "random_hypervector", "save_registry", "save_snapshot",
    "save_vocabulary", "scaling_table", "schmidt", "similarity", "states_equal",
    "string_entropy", "synthesize_joint_state", "tensor", "tessellate_round", "unbind_xor",
    "validate_string", "vocabulary_from_symbols", "von_neumann_entropy",
}


def test_all_lists_every_public_name():
    assert set(qcorolla.__all__) == PUBLIC_NAMES


def test_public_names_are_their_submodule_objects():
    for name in qcorolla.__all__:
        value = getattr(qcorolla, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("qcorolla."), name
        assert getattr(home, name) is value, name


def test_from_import_form():
    namespace = {}
    exec("from qcorolla import CorollaGraph, measure_entanglement", namespace)
    assert namespace["CorollaGraph"] is importlib.import_module("qcorolla.corolla").CorollaGraph


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        qcorolla.no_such_name
    with pytest.raises(ImportError):
        exec("from qcorolla import no_such_name", {})
