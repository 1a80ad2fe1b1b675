"""The seeded corpus generator: determinism, seed sensitivity and exact counts."""

from __future__ import annotations

import random

import pytest

from corpus import CorpusSpec, generate
from qcorolla import store

SPEC = CorpusSpec(nodes=120, edges=400, pairs=6, d=160)
FILES = ("vocabulary.txt", "registry.txt", "triples.nt", "expected.json")


def _bytes(root):
    return {name: (root / name).read_bytes() for name in FILES}


def test_equal_arguments_give_byte_identical_files(tmp_path):
    a = generate(SPEC, 7, tmp_path / "a")
    b = generate(SPEC, 7, tmp_path / "b")
    assert _bytes(a.root) == _bytes(b.root)


def test_another_seed_gives_another_corpus(tmp_path):
    a = generate(SPEC, 7, tmp_path / "a")
    b = generate(SPEC, 8, tmp_path / "b")
    assert (a.root / "triples.nt").read_bytes() != (b.root / "triples.nt").read_bytes()
    assert a.expected["degree"] != b.expected["degree"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ingest_reproduces_the_expected_counts(tmp_path, seed):
    corpus = generate(SPEC, seed, tmp_path)
    exp = corpus.expected
    result = store.ingest(corpus.vocabulary, corpus.registry, corpus.triples)
    graph = result.graph
    assert result.statements == exp["statements"]
    assert graph.edge_count == exp["edges"] == SPEC.edges
    assert result.folded == exp["folded"] > 0
    assert result.duplicates == exp["duplicates"] > 0
    assert graph.node_count == exp["nodes"] == SPEC.nodes
    assert len(graph.validate().inert_edges) == exp["inert_edges"]
    for symbol, degree in exp["degree"].items():
        assert len(graph.corollas_of(symbol)) == degree


def test_shape_of_a_corpus(tmp_path):
    corpus = generate(SPEC, 5, tmp_path)
    exp = corpus.expected
    weights = [float(line.rsplit("=", 1)[1]) for line in corpus.registry.read_text().splitlines()]
    assert weights[:2] == [0.0, 1.0]
    assert exp["self_loops"] >= 1 and exp["inert_edges"] >= 1
    assert exp["folded"] == round(SPEC.edges * 0.20 / 0.75)
    assert exp["duplicates"] == round(SPEC.edges * 0.05 / 0.75)
    degrees = sorted(exp["degree"].values(), reverse=True)
    assert degrees[0] >= 5 * degrees[len(degrees) // 2]  # Zipf subjects make hubs
    draws = corpus.draw_subjects(random.Random(1), 400)
    assert draws == corpus.draw_subjects(random.Random(1), 400)
    assert draws.count(exp["rank"][0]) > 400 / SPEC.nodes * 10  # traffic follows the same law
