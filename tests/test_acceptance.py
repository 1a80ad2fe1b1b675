"""Acceptance criteria, one test per criterion at its stated tolerance.

Each test prints a PASS line on success (run with ``pytest -s`` to see them;
a failed assertion marks the criterion failed). Every stochastic check is
seeded, so the suite is fully deterministic.
"""

import math

import numpy as np
import pytest

from qcorolla.corolla import ConverseRegistry, CorollaGraph
from qcorolla.entangle import (
    bell_states,
    measure,
    measure_entanglement,
    synthesize_joint_state,
    tessellate_round,
)
from qcorolla.errors import MalformedTokenError, MissingTerminatorError
from qcorolla.qla import (
    DensityMatrix,
    entanglement_entropy,
    make_state,
    tensor,
    von_neumann_entropy,
)
from qcorolla.qusym import qusym_ensemble, string_entropy, scaling_table, vocabulary_from_symbols
from qcorolla.store import ingest, parse_triples_text, query_node
from qcorolla.vsa import bind_tensor, bind_xor, compress_outer, random_hypervector, unbind_xor

SEED = 20260810


def report(number: int, message: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {message}")


def test_criterion_01_normalization():
    rng = np.random.default_rng(SEED)
    for _ in range(1000):
        dim = int(rng.integers(1, 17))
        state = make_state(rng.normal(size=dim) + 1j * rng.normal(size=dim))
        assert abs(float(np.sum(np.abs(state.amplitudes) ** 2)) - 1.0) <= 1e-9
    report(1, "1000 random states satisfy sum |a|^2 = 1 within 1e-9")


def test_criterion_02_diagonal_ensembles():
    rng = np.random.default_rng(SEED + 1)
    for d in (2, 4, 8, 128):
        voc = vocabulary_from_symbols([f"s:{i}" for i in range(d)])
        weights = rng.dirichlet(np.ones(d))
        rho = qusym_ensemble(voc, dict(zip(voc, weights)))
        shannon = -sum(w * math.log(w, d) for w in weights if w > 0)
        assert von_neumann_entropy(rho, float(d)) == pytest.approx(shannon, abs=1e-9)

        uniform = qusym_ensemble(voc, {s: 1.0 / d for s in voc})
        assert von_neumann_entropy(uniform, float(d)) == pytest.approx(1.0, abs=1e-12)
        assert von_neumann_entropy(DensityMatrix(np.eye(d) / d), float(d)) == pytest.approx(
            1.0, abs=1e-12
        )
    report(2, "diagonal ensembles match Shannon entropy; maximally mixed gives 1.0 in base d")


def test_criterion_03_entanglement_entropy_fixed_points():
    for bell in bell_states():
        assert entanglement_entropy(bell.state, (2, 2), 2.0) == pytest.approx(1.0, abs=1e-9)

    rng = np.random.default_rng(SEED + 2)
    for da, db in ((2, 2), (3, 4), (4, 2)):
        a = make_state(rng.normal(size=da) + 1j * rng.normal(size=da))
        b = make_state(rng.normal(size=db) + 1j * rng.normal(size=db))
        assert abs(entanglement_entropy(tensor(a, b), (da, db), 2.0)) <= 1e-9

    oracle = -0.36 * math.log2(0.36) - 0.64 * math.log2(0.64)  # hand-computed
    measured = entanglement_entropy(make_state([0.6, 0, 0, 0.8]), (2, 2), 2.0)
    assert measured == pytest.approx(0.9427, abs=1e-4)
    assert measured == pytest.approx(oracle, abs=1e-9)
    report(3, "Bell states give 1, products give 0, biased state matches binary entropy")


def test_criterion_04_signed_half_weight_ledger(large_random_graph):
    graph = large_random_graph
    assert graph.edge_count == 10_000
    edges = 0
    for node in graph.nodes():
        for corolla, _, left, right in graph.walk_half_edges(node):
            if corolla is left:  # each edge once, at its forward half-edge
                edges += 1
                assert left.predicate.half_weight + right.predicate.half_weight == 0.0
                registered = graph.registry.total_weight(left.predicate.name)
                assert abs(left.predicate.half_weight) + abs(right.predicate.half_weight) == registered
    assert edges == 10_000

    registry = ConverseRegistry()
    registry.register_converse("kin:ParentOf", "kin:ChildOf", 0.4)
    assert registry.directed("kin:ParentOf").half_weight == 0.2
    assert registry.directed("kin:ChildOf").half_weight == -0.2
    assert registry.total_weight("kin:ParentOf") == 0.4
    report(4, "10^4 edges: halves cancel exactly and moduli sum to p; 0.4 -> +0.2/-0.2 exact")


def test_criterion_05_synthesis_roundtrip():
    voc = vocabulary_from_symbols(["x:A", "x:B"])
    registry = ConverseRegistry()
    graph = CorollaGraph(voc, registry)
    for k in range(11):
        weight = k / 10
        registry.register_converse(f"r:F{k}", f"r:B{k}", weight)
        tid = graph.join(
            graph.make_corolla("x:A", f"r:F{k}"), graph.make_corolla("x:B", f"r:B{k}")
        )
        joint = synthesize_joint_state(graph, tid)
        assert abs(measure_entanglement(joint) - weight) <= 1e-6
    report(5, "synthesis/measurement roundtrip within 1e-6 across p = 0.0 .. 1.0")


def test_criterion_06_involution_laws(large_random_graph):
    graph = large_random_graph
    involution = graph.involution()
    assert all(involution[involution[f]] == f for f in involution)
    assert all(involution[f] != f for f in involution)
    assert graph.edge_count == len(involution) // 2
    assert graph.half_edge_count == 2 * graph.edge_count
    report(6, "I o I = id, no fixed points, triple count = half-edge pairs on 10^4 triples")


def test_criterion_07_vsa_binding():
    for trial in range(1000):
        a = random_hypervector(1024, SEED + 2 * trial)
        b = random_hypervector(1024, SEED + 2 * trial + 1)
        bound = bind_xor(a, b)
        assert bind_xor(b, a) == bound
        assert unbind_xor(a, bound) == b

    witnesses = 0
    for trial in range(100):
        a = random_hypervector(8, SEED + 3000 + 2 * trial)
        b = random_hypervector(8, SEED + 3001 + 2 * trial)
        if not np.array_equal(bind_tensor(a, b).entries, bind_tensor(b, a).entries):
            witnesses += 1
    assert witnesses > 0

    for n in (4, 64, 1024):
        a = random_hypervector(n, SEED + 5000)
        b = random_hypervector(n, SEED + 5001)
        product = bind_tensor(a, b)
        assert product.entries.size == n * n
        assert compress_outer(product).n == n
    report(7, "XOR bind/unbind exact on 1000 pairs; tensor non-commutativity witnessed")


def test_criterion_08_measurement_statistics():
    state = make_state([0.6, 0.8])  # probabilities (0.36, 0.64)
    first = measure(state, shots=100_000, seed=SEED)
    second = measure(state, shots=100_000, seed=SEED)
    assert first == second
    assert abs(first.counts[0] / first.shots - 0.36) <= 0.01
    report(8, "10^5 seeded shots of a (0.36, 0.64) state: frequency within 0.01, reproducible")


def test_criterion_09_tessellated_rounding():
    voc = vocabulary_from_symbols([f"sym:{i}" for i in range(5)])
    for i in range(5):
        basis = np.zeros(5)
        basis[i] = 1.0
        symbol, fid = tessellate_round(basis, voc)
        assert symbol == f"sym:{i}"
        assert fid == 1.0
        again, fid_again = tessellate_round(basis, voc)
        assert (again, fid_again) == (symbol, fid)

    rng = np.random.default_rng(SEED + 9)
    for _ in range(50):
        noisy = rng.normal(size=5) + 1j * rng.normal(size=5)
        symbol, _ = tessellate_round(noisy, voc)
        rounded = np.zeros(5)
        rounded[voc.index(symbol)] = 1.0
        assert tessellate_round(rounded, voc) == (symbol, 1.0)

    pair = vocabulary_from_symbols(["sym:first", "sym:second"])
    tied, _ = tessellate_round([1 / math.sqrt(2), 1 / math.sqrt(2)], pair)
    assert tied == "sym:first"
    report(9, "basis vectors round to their own symbols; idempotent; ties go to lowest index")


def test_criterion_10_entropy_scaling():
    assert string_entropy(1, 128).bits == 7.0

    lengths, bases = [1, 2, 3, 4, 5], [2, 3, 4, 8]
    rows = {(r.length, r.base): r for r in scaling_table(lengths, bases)}
    for base in bases:
        for length in lengths[:-1]:
            # exponential along length: a constant multiplicative step
            assert rows[(length + 1, base)].string_count == base * rows[(length, base)].string_count
    for length in lengths:
        for base in bases:
            # power law along base: count is the degree-L monomial b**L
            assert rows[(length, base)].string_count == base**length
    report(10, "string_entropy(1, 128) = 7 bits; counts exponential in length, power-law in base")


def test_criterion_11_kinship_corpus(kinship_paths):
    result = ingest(*kinship_paths)
    graph = result.graph
    assert graph.validate().is_valid
    assert graph.node_count == 3
    assert graph.edge_count == 2

    corollas = {(v.predicate, v.partner) for v in query_node(graph, "person:Bob").corollas}
    assert corollas == {
        ("kin:ParentOf", "person:Alice"),
        ("kin:HusbandOf", "person:Mary"),
    }

    surface_readings = set()
    for tid in graph.triple_ids():
        surface_readings.add(graph.triple(tid))
        surface_readings.add(graph.converse_of(tid))
    assert surface_readings == {
        ("person:Bob", "kin:ParentOf", "person:Alice"),
        ("person:Alice", "kin:ChildOf", "person:Bob"),
        ("person:Bob", "kin:HusbandOf", "person:Mary"),
        ("person:Mary", "kin:WifeOf", "person:Bob"),
    }
    report(11, "kinship corpus: 3 nodes / 2 edges, Bob's two corollas, four surface readings")


def test_criterion_12_parser_idempotence():
    rng = np.random.default_rng(SEED + 12)
    lines = [
        f"ns{rng.integers(50)}:S{i} rel{rng.integers(9)}:P{rng.integers(40)} "
        f"ns{rng.integers(50)}:O{i} ."
        for i in range(10_000)
    ]
    canonical = "".join(line + "\n" for line in lines)
    assert "".join(f"{s.serialize()}\n" for s in parse_triples_text(canonical)) == canonical

    with pytest.raises(MalformedTokenError) as bad_token:
        list(parse_triples_text("Bob kin:ParentOf person:Alice ."))
    assert (bad_token.value.line, bad_token.value.column) == (1, 1)
    with pytest.raises(MissingTerminatorError) as bad_end:
        list(parse_triples_text("ok:a ok:b ok:c .\nx:a y:b z:c"))
    assert bad_end.value.line == 2
    report(12, "10^4-line corpus parse/serialize fixed point; malformed lines located")
