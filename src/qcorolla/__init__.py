"""Quantum-symbol simulation engine for semantic triples.

Finite vocabularies are one-hot-encoded as basis states of a d-dimensional
space; semantic triples are pairs of corollas (node + signed directed
predicate) joined by a half-edge involution, and each edge's predicate
weight is realized physically as the entanglement entropy of a synthesized
bipartite state. VSA binding operators and a triple-store file format with
a CLI round out the engine.

Public names are imported from their submodules, e.g.
``from qcorolla.corolla import CorollaGraph``; ``import qcorolla`` loads none.
"""

__version__ = "0.1.0"
