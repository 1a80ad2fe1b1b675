"""Quantum-symbol simulation engine for semantic triples.

Finite vocabularies are one-hot-encoded as basis states of a d-dimensional
space; semantic triples are pairs of corollas (node + signed directed
predicate) joined by a half-edge involution, and each edge's predicate
weight is realized physically as the entanglement entropy of a synthesized
bipartite state. VSA binding operators and a triple-store file format with
a CLI round out the engine.

The public names below are imported from their submodules on first access,
so ``import qcorolla`` loads no submodule, and numpy arrives only with the
first name that needs it.
"""

import importlib

_SUBMODULE_NAMES = {
    "corolla": (
        "ConverseRegistry", "Corolla", "CorollaGraph", "DirectedPredicate", "NodeRef",
        "ValidationReport", "converse_statement", "load_registry", "save_registry",
    ),
    "entangle": (
        "BellState", "JointState", "MeasurementRecord", "bell_states", "binary_entropy",
        "invert_binary_entropy", "map_triple_pattern", "measure", "measure_entanglement",
        "synthesize_joint_state", "tessellate_round",
    ),
    "qla": (
        "DensityMatrix", "SchmidtDecomposition", "StateVector", "basis_state",
        "entanglement_entropy", "fidelity", "make_state", "mix", "outer", "partial_trace",
        "schmidt", "states_equal", "tensor", "von_neumann_entropy",
    ),
    "qusym": (
        "Grammar", "Qusym", "StringEntropy", "Vocabulary", "encode_symbol", "load_vocabulary",
        "qusym_ensemble", "save_vocabulary", "scaling_table", "string_entropy",
        "validate_string", "vocabulary_from_symbols",
    ),
    "store": (
        "IngestResult", "Statement", "TripleDocument", "export_jsonl", "ingest",
        "ingest_document", "load_snapshot", "load_triples", "parse_triple_line",
        "parse_triples_text", "query_node", "save_snapshot",
    ),
    "vsa": (
        "HyperVector", "OuterProduct", "bind_tensor", "bind_xor", "bundle_majority",
        "compress_outer", "random_hypervector", "similarity", "unbind_xor",
    ),
}

_SUBMODULE_OF = {name: module for module, names in _SUBMODULE_NAMES.items() for name in names}

__all__ = sorted(_SUBMODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SUBMODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
