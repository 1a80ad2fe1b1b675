"""Shared fixtures: the kinship corpus files and a random-graph builder."""

from __future__ import annotations

import numpy as np
import pytest

from qcorolla.corolla import ConverseRegistry, CorollaGraph
from qcorolla.qusym import vocabulary_from_symbols

KINSHIP_VOCAB = """\
# kinship node vocabulary
person:Bob
person:Alice
person:Mary
"""

KINSHIP_REGISTRY = """\
# converse predicate pairs with total entanglement weight (bits)
kin:ParentOf <-> kin:ChildOf = 0.4
kin:HusbandOf <-> kin:WifeOf = 1.0
"""

KINSHIP_TRIPLES = """\
person:Bob kin:ParentOf person:Alice .
person:Alice kin:ChildOf person:Bob .
person:Bob kin:HusbandOf person:Mary .
person:Mary kin:WifeOf person:Bob .
"""

# vectors far from unit scale, each with the probabilities it normalizes to
EXTREME_AMPLITUDES = {
    "1e200 beside 1e300": ([1e200, 1e300, 0], [0.0, 1.0, 0.0]),
    "1e-200 and 3e-200": ([1e-200, 3e-200, 0], [0.1, 0.9, 0.0]),
    "1e-300 twice": ([0, 1e-300, 1e-300], [0.0, 0.5, 0.5]),
    "1e300 and 2e300": ([1e300, 2e300, 0], [0.2, 0.8, 0.0]),
    "1e308 twice": ([1e308, 0, 1e308], [0.5, 0.0, 0.5]),
    "complex parts near 1.5e308": ([1.5e308 + 1.5e308j, 0, 1.5e308j], [2 / 3, 0.0, 1 / 3]),
    "subnormal parts": ([5e-324, 1e-323j, 0], [0.2, 0.8, 0.0]),
}


@pytest.fixture
def kinship_paths(tmp_path):
    """(vocab, registry, triples) files for the Bob/Alice/Mary corpus."""
    vocab = tmp_path / "vocabulary.txt"
    registry = tmp_path / "registry.txt"
    triples = tmp_path / "triples.nt"
    vocab.write_text(KINSHIP_VOCAB, encoding="utf-8")
    registry.write_text(KINSHIP_REGISTRY, encoding="utf-8")
    triples.write_text(KINSHIP_TRIPLES, encoding="utf-8")
    return vocab, registry, triples


def build_kinship_graph() -> CorollaGraph:
    """The kinship corpus built directly through the graph API."""
    voc = vocabulary_from_symbols(["person:Bob", "person:Alice", "person:Mary"])
    registry = ConverseRegistry()
    registry.register_converse("kin:ParentOf", "kin:ChildOf", 0.4)
    registry.register_converse("kin:HusbandOf", "kin:WifeOf", 1.0)
    graph = CorollaGraph(voc, registry)
    graph.join(
        graph.make_corolla("person:Bob", "kin:ParentOf"),
        graph.make_corolla("person:Alice", "kin:ChildOf"),
    )
    graph.join(
        graph.make_corolla("person:Bob", "kin:HusbandOf"),
        graph.make_corolla("person:Mary", "kin:WifeOf"),
    )
    return graph


@pytest.fixture
def kinship_graph() -> CorollaGraph:
    return build_kinship_graph()


def build_random_graph(n_triples: int, seed: int) -> CorollaGraph:
    """A random multigraph with ``n_triples`` distinct edges."""
    rng = np.random.default_rng(seed)
    node_symbols = [f"ns:N{i:03d}" for i in range(100)]
    voc = vocabulary_from_symbols(node_symbols)
    registry = ConverseRegistry()
    forwards = []
    for k in range(40):
        weight = float(rng.uniform(0.0, 1.0))
        registry.register_converse(f"rel:F{k:02d}", f"rel:B{k:02d}", weight)
        forwards.append(f"rel:F{k:02d}")
    keys = {}  # distinct keys in the order they are drawn
    while len(keys) < n_triples:
        s = node_symbols[rng.integers(len(node_symbols))]
        p = forwards[rng.integers(len(forwards))]
        o = node_symbols[rng.integers(len(node_symbols))]
        keys[(s, p, o)] = None
    return join_statements(voc, registry, keys)


@pytest.fixture(scope="session")
def large_random_graph() -> CorollaGraph:
    """One 10^4-triple graph shared by the heavyweight structural checks."""
    return build_random_graph(10_000, seed=20260810)


def join_statements(vocabulary, registry, triples) -> CorollaGraph:
    """The graph that ``make_corolla`` and ``join`` build from (s, p, o) triples in order,
    skipping a converse restatement (a backward predicate) and an exact repeat: the
    reference for the store's ingest and snapshot load. A backward statement is not checked
    for an edge to fold onto; a caller that wants that check uses ``store.ingest_document``."""
    graph = CorollaGraph(vocabulary, registry)
    for s, p, o in triples:
        if not registry.is_backward(p) and graph.triple_id_of((s, p, o)) is None:
            graph.join(graph.make_corolla(s, p), graph.make_corolla(o, registry.converse_name(p)))
    return graph
