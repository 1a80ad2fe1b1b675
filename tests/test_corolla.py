"""Graph layer: converse registry, corollas, joining, involution laws."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_kinship_graph, build_random_graph
from qcorolla.corolla import (
    BACKWARD,
    FORWARD,
    ConverseRegistry,
    CorollaGraph,
    DirectedPredicate,
    converse_statement,
    load_registry,
    save_registry,
)
from qcorolla.errors import (
    AlreadyPairedError,
    AlreadyRegisteredError,
    MalformedTokenError,
    NotConverseError,
    SelfConverseError,
    SelfJoinError,
    UnknownNodeError,
    UnknownNodeSymbolError,
    UnknownPredicateError,
    WeightOutOfRangeError,
    WrongOrientationError,
)
from qcorolla.qusym import vocabulary_from_symbols


def kinship_registry():
    registry = ConverseRegistry()
    registry.register_converse("kin:ParentOf", "kin:ChildOf", 0.4)
    registry.register_converse("kin:HusbandOf", "kin:WifeOf", 1.0)
    return registry


def fresh_graph():
    voc = vocabulary_from_symbols(["person:Bob", "person:Alice", "person:Mary"])
    return CorollaGraph(voc, kinship_registry())


# --- registry -----------------------------------------------------------------

def test_register_converse_worked_constant():
    registry = kinship_registry()
    assert registry.directed("kin:ParentOf").half_weight == 0.2
    assert registry.directed("kin:ChildOf").half_weight == -0.2
    assert registry.total_weight("kin:ChildOf") == 0.4


def test_register_converse_maximal():
    registry = kinship_registry()
    assert registry.directed("kin:HusbandOf").half_weight == 0.5
    assert registry.directed("kin:WifeOf").half_weight == -0.5


def test_register_self_converse_rejected():
    with pytest.raises(SelfConverseError):
        ConverseRegistry().register_converse("x:R", "x:R", 0.3)


def test_register_weight_out_of_range():
    registry = ConverseRegistry()
    with pytest.raises(WeightOutOfRangeError):
        registry.register_converse("x:F", "x:B", 1.5)
    with pytest.raises(WeightOutOfRangeError):
        registry.register_converse("x:F", "x:B", -0.1)


def test_register_duplicate_name_rejected():
    registry = kinship_registry()
    with pytest.raises(AlreadyRegisteredError):
        registry.register_converse("kin:ParentOf", "kin:Other", 0.1)
    with pytest.raises(AlreadyRegisteredError):
        registry.register_converse("kin:Other", "kin:ChildOf", 0.1)


def test_registry_degenerate_zero_weight_accepted():
    registry = ConverseRegistry()
    registry.register_converse("x:F", "x:B", 0.0)
    assert registry.directed("x:F").half_weight == 0.0


# halving is exact for every non-subnormal double, so the ledger identities
# hold with == rather than a tolerance
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_subnormal=False))
def test_half_weights_cancel_exactly(weight):
    registry = ConverseRegistry()
    registry.register_converse("x:F", "x:B", weight)
    fwd, bwd = registry.directed("x:F"), registry.directed("x:B")
    assert fwd.half_weight + bwd.half_weight == 0.0
    assert abs(fwd.half_weight) + abs(bwd.half_weight) == weight


# registered weights span [0, 1], both ends included
pair_weights = st.floats(min_value=0.0, max_value=1.0) | st.sampled_from([0.0, 1.0])


@given(st.lists(pair_weights, max_size=8))
def test_registry_matches_list_of_registered_pairs(weights):
    pairs = [(f"f:P{k}", f"b:P{k}", w) for k, w in enumerate(weights)]
    registry = ConverseRegistry()
    for forward, backward, weight in pairs:
        registry.register_converse(forward, backward, weight)
    assert list(registry.pairs()) == pairs
    assert len(registry) == len(pairs)
    for forward, backward, weight in pairs:
        for name, converse, sign, direction in (
            (forward, backward, 1.0, FORWARD),
            (backward, forward, -1.0, BACKWARD),
        ):
            assert name in registry
            directed = registry.directed(name)
            assert directed is registry.directed(name)
            assert (directed.name, directed.half_weight, directed.direction) == (
                name, sign * weight / 2.0, direction
            )
            assert registry.converse_name(name) == converse
            assert registry.converse_name(registry.converse_name(name)) == name
            assert registry.is_backward(name) == (direction == BACKWARD)
            assert registry.total_weight(name) == weight
    assert "x:Unknown" not in registry
    assert not registry.is_backward("x:Unknown")
    for lookup in (registry.directed, registry.converse_name, registry.total_weight):
        with pytest.raises(UnknownPredicateError):
            lookup("x:Unknown")
    for forward, backward, _ in pairs:
        for clash in ((forward, "x:Other", 0.5), ("x:Other", backward, 0.5)):
            with pytest.raises(AlreadyRegisteredError):
                registry.register_converse(*clash)
            assert "x:Other" not in registry
            assert list(registry.pairs()) == pairs and len(registry) == len(pairs)


def test_directed_predicate_sign_convention():
    with pytest.raises(ValueError):
        DirectedPredicate("x:F", -0.1, FORWARD)
    with pytest.raises(ValueError):
        DirectedPredicate("x:B", 0.1, BACKWARD)


# --- corolla creation ---------------------------------------------------------------

def test_make_corolla_forward():
    corolla = fresh_graph().make_corolla("person:Bob", "kin:ParentOf")
    assert corolla.predicate.half_weight == 0.2
    assert corolla.predicate.direction == FORWARD


def test_make_corolla_backward():
    corolla = fresh_graph().make_corolla("person:Alice", "kin:ChildOf")
    assert corolla.predicate.half_weight == -0.2
    assert corolla.predicate.direction == BACKWARD


def test_make_corolla_unknown_node():
    with pytest.raises(UnknownNodeSymbolError):
        fresh_graph().make_corolla("person:Zed", "kin:ParentOf")


def test_make_corolla_unknown_predicate():
    with pytest.raises(UnknownPredicateError):
        fresh_graph().make_corolla("person:Bob", "kin:CousinOf")


def test_failed_make_corolla_changes_nothing():
    graph = fresh_graph()
    with pytest.raises(UnknownPredicateError):
        graph.make_corolla("person:Bob", "kin:CousinOf")
    assert graph.node_count == 0
    assert graph.nodes() == ()
    assert graph.half_edge_count == 0
    with pytest.raises(UnknownNodeError):
        graph.walk_half_edges("person:Bob")
    assert graph.make_corolla("person:Alice", "kin:ChildOf").half_edge_id == 1


# --- joining -----------------------------------------------------------------------

def test_join_kinship_triple():
    graph = fresh_graph()
    tid = graph.join(
        graph.make_corolla("person:Bob", "kin:ParentOf"),
        graph.make_corolla("person:Alice", "kin:ChildOf"),
    )
    assert graph.triple(tid) == ("person:Bob", "kin:ParentOf", "person:Alice")


def test_join_not_converse():
    graph = fresh_graph()
    with pytest.raises(NotConverseError):
        graph.join(
            graph.make_corolla("person:Bob", "kin:ParentOf"),
            graph.make_corolla("person:Alice", "kin:WifeOf"),
        )


def test_join_self():
    graph = fresh_graph()
    corolla = graph.make_corolla("person:Bob", "kin:ParentOf")
    with pytest.raises(SelfJoinError):
        graph.join(corolla, corolla)


def test_join_wrong_orientation():
    graph = fresh_graph()
    backward = graph.make_corolla("person:Alice", "kin:ChildOf")
    forward = graph.make_corolla("person:Bob", "kin:ParentOf")
    with pytest.raises(WrongOrientationError):
        graph.join(backward, forward)


def test_join_already_paired_half_edge():
    graph = fresh_graph()
    left = graph.make_corolla("person:Bob", "kin:ParentOf")
    graph.join(left, graph.make_corolla("person:Alice", "kin:ChildOf"))
    with pytest.raises(AlreadyPairedError):
        graph.join(left, graph.make_corolla("person:Mary", "kin:ChildOf"))


def test_join_rejects_a_corolla_of_another_graph():
    graph, other = fresh_graph(), fresh_graph()
    left = graph.make_corolla("person:Bob", "kin:ParentOf")
    right = graph.make_corolla("person:Alice", "kin:ChildOf")
    other.make_corolla("person:Bob", "kin:ParentOf")
    lookalike = other.make_corolla("person:Alice", "kin:ChildOf")  # id 2, as right's is
    beyond = other.make_corolla("person:Mary", "kin:ChildOf")  # id 3, past graph's last half-edge
    assert lookalike == right
    for foreign in (lookalike, beyond):
        with pytest.raises(UnknownNodeError):
            graph.join(left, foreign)
    assert graph.edge_count == 0 and graph.involution() == {}
    assert graph.join(left, right) == "t1"


def test_join_duplicate_triple_with_fresh_corollas():
    graph = fresh_graph()
    graph.join(
        graph.make_corolla("person:Bob", "kin:ParentOf"),
        graph.make_corolla("person:Alice", "kin:ChildOf"),
    )
    with pytest.raises(AlreadyPairedError):
        graph.join(
            graph.make_corolla("person:Bob", "kin:ParentOf"),
            graph.make_corolla("person:Alice", "kin:ChildOf"),
        )


def test_multigraph_distinct_predicates_allowed():
    graph = fresh_graph()
    graph.join(
        graph.make_corolla("person:Bob", "kin:ParentOf"),
        graph.make_corolla("person:Mary", "kin:ChildOf"),
    )
    graph.join(
        graph.make_corolla("person:Bob", "kin:HusbandOf"),
        graph.make_corolla("person:Mary", "kin:WifeOf"),
    )
    assert graph.edge_count == 2


def test_ids_are_consecutive_in_creation_order():
    graph = fresh_graph()
    made = [
        graph.make_corolla("person:Bob", "kin:ParentOf"),
        graph.make_corolla("person:Mary", "kin:WifeOf"),  # stays unpaired
        graph.make_corolla("person:Alice", "kin:ChildOf"),
        graph.make_corolla("person:Alice", "kin:WifeOf"),  # stays unpaired
    ]
    bob_parent, _, alice_child, alice_wife = made
    with pytest.raises(NotConverseError):
        graph.join(bob_parent, alice_wife)
    with pytest.raises(SelfJoinError):
        graph.join(bob_parent, bob_parent)
    assert graph.join(bob_parent, alice_child) == "t1"
    with pytest.raises(AlreadyPairedError):
        graph.join(bob_parent, alice_child)
    made += [graph.make_corolla("person:Bob", "kin:ParentOf"),
             graph.make_corolla("person:Alice", "kin:ChildOf")]  # a restatement: stays unpaired
    with pytest.raises(AlreadyPairedError):
        graph.join(made[-2], made[-1])
    made += [graph.make_corolla("person:Bob", "kin:HusbandOf"),
             graph.make_corolla("person:Mary", "kin:WifeOf")]
    assert graph.join(made[-2], made[-1]) == "t2"
    assert [c.half_edge_id for c in made] == list(range(1, 9))
    assert graph.half_edge_count == 8
    assert graph.triple_ids() == ("t1", "t2")


# --- converse readings -----------------------------------------------------------------

def test_converse_of_parent_child():
    graph = build_kinship_graph()
    tid = graph.triple_id_of(("person:Bob", "kin:ParentOf", "person:Alice"))
    assert graph.converse_of(tid) == ("person:Alice", "kin:ChildOf", "person:Bob")


def test_converse_of_husband_wife():
    graph = build_kinship_graph()
    tid = graph.triple_id_of(("person:Bob", "kin:HusbandOf", "person:Mary"))
    assert graph.converse_of(tid) == ("person:Mary", "kin:WifeOf", "person:Bob")


def test_converse_statement_is_involution():
    registry = kinship_registry()
    triple = ("person:Bob", "kin:ParentOf", "person:Alice")
    assert converse_statement(registry, converse_statement(registry, triple)) == triple


# --- node queries --------------------------------------------------------------------

def test_corollas_of_bob_after_both_joins():
    graph = build_kinship_graph()
    names = {c.predicate.name for c in graph.corollas_of("person:Bob")}
    assert names == {"kin:ParentOf", "kin:HusbandOf"}


def test_corollas_of_isolated_node():
    graph = fresh_graph()
    graph.add_node("person:Mary")
    assert graph.corollas_of("person:Mary") == set()


def test_corollas_of_unknown_node():
    with pytest.raises(UnknownNodeError):
        fresh_graph().corollas_of("person:Zed")


def test_vocabulary_symbol_outside_graph_is_unknown_node():
    graph = fresh_graph()
    graph.add_node("person:Bob")
    for lookup in (graph.corollas_of, graph.walk_half_edges):
        with pytest.raises(UnknownNodeError):
            lookup("person:Mary")


def test_walk_half_edges_in_ascending_id_order():
    graph = build_kinship_graph()
    dangling = graph.make_corolla("person:Bob", "kin:WifeOf")
    walked = list(graph.walk_half_edges("person:Bob"))
    assert [corolla.half_edge_id for corolla, _, _, _ in walked] == [1, 3, dangling.half_edge_id]
    assert walked[-1] == (dangling, None, None, None)


def test_self_loop_node_owns_both_half_edges():
    graph = fresh_graph()
    left = graph.make_corolla("person:Bob", "kin:ParentOf")
    right = graph.make_corolla("person:Bob", "kin:ChildOf")
    tid = graph.join(left, right)
    walked = list(graph.walk_half_edges("person:Bob"))
    assert walked == [(left, tid, left, right), (right, tid, left, right)]
    assert all(a is b for row in walked for a, b in zip(row[2:], (left, right)))
    assert graph.corollas_of("person:Bob") == {left, right}
    assert graph.involution() == {left.half_edge_id: right.half_edge_id, right.half_edge_id: left.half_edge_id}


def test_directed_predicate_shared_per_name():
    registry = kinship_registry()
    assert registry.directed("kin:ParentOf") is registry.directed("kin:ParentOf")
    graph = CorollaGraph(vocabulary_from_symbols(["person:Bob", "person:Alice"]), registry)
    first = graph.make_corolla("person:Bob", "kin:ChildOf")
    second = graph.make_corolla("person:Alice", "kin:ChildOf")
    assert first.predicate is second.predicate is registry.directed("kin:ChildOf")


def scanned_corollas(graph, symbol):
    """Brute-force oracle: every half-edge whose owner is ``symbol``, in id order."""
    return [c for c in sorted(graph._half_edges, key=lambda c: c.half_edge_id) if c.node == symbol]


def assert_index_matches_scan(graph):
    assert [c.half_edge_id for c in graph._half_edges] == list(range(1, graph.half_edge_count + 1))
    for node in graph.nodes():
        scanned = scanned_corollas(graph, node)
        assert graph.corollas_of(node) == set(scanned)
        assert [corolla for corolla, _, _, _ in graph.walk_half_edges(node)] == scanned


# --- validation -------------------------------------------------------------------------

def test_validate_kinship_graph_clean():
    report = build_kinship_graph().validate()
    assert report.is_valid
    assert report.lines() == []


def test_validate_reports_dangling_corolla():
    graph = build_kinship_graph()
    graph.make_corolla("person:Mary", "kin:ParentOf")
    report = graph.validate()
    assert not report.is_valid
    assert len(report.unpaired) == 1


def test_validate_flags_corrupted_weight():
    # (side of the edge, field of its predicate replaced, with what) and the lines validate reports
    cases = [
        ((2, "half_weight", -0.19), ["half-weights sum to 0.010000000000000009, not 0", "moduli sum 0.39 != registered 0.4"]),
        ((1, "name", "kin:Gone"), ["predicate 'kin:Gone' not registered"]),  # its half-weight kept
    ]
    for (side, name, value), findings in cases:
        graph = build_kinship_graph()
        tid = graph.triple_id_of(("person:Bob", "kin:ParentOf", "person:Alice"))
        half_edge_id = graph._triples[int(tid[1:]) - 1][side]
        corolla = graph._half_edges[half_edge_id - 1]
        graph._half_edges[half_edge_id - 1] = dataclasses.replace(
            corolla, predicate=dataclasses.replace(corolla.predicate, **{name: value})
        )
        assert graph.validate().lines() == [f"edge {tid}: {finding}" for finding in findings]


def test_validate_flags_involution_fixed_point():
    graph = build_kinship_graph()
    tid, left_id, right_id = graph._triples[0]
    # the edge record is shared by the triple list and both half-edges: replace it in all three
    graph._triples[0] = graph._edge_of[left_id - 1] = graph._edge_of[right_id - 1] = (tid, left_id, left_id)
    report = graph.validate()
    assert not report.is_valid
    assert report.lines() == [
        f"involution fixed point at half-edge {left_id}",
        f"involution not self-inverse at half-edge {right_id}",
        f"edge {tid}: half-weights sum to 0.4, not 0",
    ]


def test_validate_flags_involution_not_self_inverse():
    graph = build_kinship_graph()
    first, second = graph._triples
    _, left_id, right_id = first
    graph._edge_of[left_id - 1] = second
    report = graph.validate()
    assert not report.is_valid
    assert report.lines() == [
        f"involution not self-inverse at half-edge {left_id}",
        f"involution not self-inverse at half-edge {right_id}",
    ]


def test_validate_flags_inert_edge_as_warning():
    voc = vocabulary_from_symbols(["a:X", "a:Y"])
    registry = ConverseRegistry()
    registry.register_converse("r:F", "r:B", 0.0)
    graph = CorollaGraph(voc, registry)
    graph.join(graph.make_corolla("a:X", "r:F"), graph.make_corolla("a:Y", "r:B"))
    report = graph.validate()
    assert report.is_valid
    assert report.inert_edges == ["t1"]
    assert any("inert" in line for line in report.lines())


# --- structural properties ----------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=2**31))
def test_involution_laws_random_graphs(n_triples, seed):
    graph = build_random_graph(n_triples, seed) if n_triples else fresh_graph()
    involution = graph.involution()
    assert all(involution[involution[f]] == f for f in involution)
    assert all(involution[f] != f for f in involution)
    assert graph.edge_count * 2 == len(involution)
    assert graph.validate().is_valid or graph.half_edge_count == 0


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=2**31))
def test_node_index_matches_scan_random_graphs(n_triples, seed):
    graph = build_random_graph(n_triples, seed) if n_triples else fresh_graph()
    # an unpaired half-edge and a node with no half-edges are indexed too
    forward, _, _ = next(graph.registry.pairs())
    graph.make_corolla(graph.node_vocabulary.symbol(0), forward)
    graph.add_node(graph.node_vocabulary.symbol(1))
    assert_index_matches_scan(graph)


def test_node_index_matches_scan_large_graph(large_random_graph):
    assert_index_matches_scan(large_random_graph)


def assert_walk_matches_lookups(graph):
    """Each walked half-edge is one end of the triple its id names: ``triple`` and
    ``triple_id_of`` agree with the graph's own forward and backward corollas, and
    the involution pairs those two."""
    involution = graph.involution()
    for node in graph.nodes():
        for corolla, triple_id, forward, backward in graph.walk_half_edges(node):
            assert corolla is graph._half_edges[corolla.half_edge_id - 1] and corolla.node == node
            if triple_id is None:
                assert forward is None and backward is None
                assert corolla.half_edge_id not in involution
                continue
            assert corolla is forward or corolla is backward
            assert forward is graph._half_edges[forward.half_edge_id - 1]
            assert backward is graph._half_edges[backward.half_edge_id - 1]
            s, p, o = graph.triple(triple_id)
            assert (forward.node, forward.predicate.name, backward.node) == (s, p, o)
            assert backward.predicate.name == graph.registry.converse_name(p)
            assert graph.triple_id_of((s, p, o)) == triple_id
            assert involution[forward.half_edge_id] == backward.half_edge_id


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=2**31))
def test_walk_half_edges_matches_lookups_random_graphs(n_triples, seed):
    graph = build_random_graph(n_triples, seed) if n_triples else fresh_graph()
    forward, _, _ = next(graph.registry.pairs())
    graph.make_corolla(graph.node_vocabulary.symbol(0), forward)
    graph.add_node(graph.node_vocabulary.symbol(1))
    assert_walk_matches_lookups(graph)


def test_walk_half_edges_matches_lookups_large_graph(large_random_graph):
    assert_walk_matches_lookups(large_random_graph)


def test_walk_half_edges_unknown_node_raises_on_call():
    graph = fresh_graph()
    graph.add_node("person:Bob")
    with pytest.raises(UnknownNodeError):
        graph.walk_half_edges("person:Mary")  # raised before any iteration


def test_edge_conservation_large_graph(large_random_graph):
    graph = large_random_graph
    assert graph.edge_count == 10_000
    for _, left_id, right_id in graph._triples:
        left, right = graph._half_edges[left_id - 1], graph._half_edges[right_id - 1]
        assert left.predicate.half_weight + right.predicate.half_weight == 0.0
        registered = graph.registry.total_weight(left.predicate.name)
        assert abs(left.predicate.half_weight) + abs(right.predicate.half_weight) == registered


def test_triple_count_is_half_pair_count(large_random_graph):
    graph = large_random_graph
    assert graph.edge_count == len(graph.involution()) // 2
    assert graph.half_edge_count == 2 * graph.edge_count


def test_converse_of_involution_on_triple_set(large_random_graph):
    graph = large_random_graph
    for tid in list(graph.triple_ids())[:100]:
        reading = graph.converse_of(tid)
        assert converse_statement(graph.registry, reading) == graph.triple(tid)


# --- registry file format --------------------------------------------------------------------

def test_registry_file_roundtrip(tmp_path):
    registry = kinship_registry()
    path = tmp_path / "registry.txt"
    save_registry(registry, path)
    loaded = load_registry(path)
    assert sorted(loaded.pairs()) == sorted(registry.pairs())


def test_registry_file_comments_and_errors(tmp_path):
    path = tmp_path / "registry.txt"
    path.write_text("# comment\nkin:ParentOf <-> kin:ChildOf = 0.4\n", encoding="utf-8")
    assert load_registry(path).total_weight("kin:ParentOf") == 0.4

    path.write_text("not a registry line\n", encoding="utf-8")
    with pytest.raises(MalformedTokenError) as excinfo:
        load_registry(path)
    assert excinfo.value.line == 1


def test_registry_file_rejects_plain_token(tmp_path):
    path = tmp_path / "registry.txt"
    path.write_text("ParentOf <-> ChildOf = 0.4\n", encoding="utf-8")
    with pytest.raises(MalformedTokenError):
        load_registry(path)


def test_weights_survive_file_roundtrip_exactly(tmp_path):
    rng = np.random.default_rng(41)
    registry = ConverseRegistry()
    for k in range(50):
        registry.register_converse(f"r:F{k}", f"r:B{k}", float(rng.uniform(0, 1)))
    path = tmp_path / "registry.txt"
    save_registry(registry, path)
    loaded = load_registry(path)
    for fwd, _, weight in registry.pairs():
        assert loaded.total_weight(fwd) == weight


# source position of each registry fault: (line 2 of the file, column)
REGISTRY_FAULTS = {
    "duplicate": ("kin:Sib <-> kin:ParentOf = 0.5", AlreadyRegisteredError, 13),
    "self-converse": ("kin:Sib <-> kin:Sib = 0.5", SelfConverseError, 13),
    "weight above 1": ("kin:A <-> kin:B =\t1.5", WeightOutOfRangeError, 19),
    "weight not a number": ("kin:A <-> kin:B = 1..5", MalformedTokenError, 19),
}


@pytest.mark.parametrize("fault", sorted(REGISTRY_FAULTS))
def test_registry_file_fault_has_line_and_column(tmp_path, fault):
    line, error, column = REGISTRY_FAULTS[fault]
    path = tmp_path / "registry.txt"
    path.write_text(f"kin:ParentOf <-> kin:ChildOf = 0.4\n{line}\n", encoding="utf-8")
    with pytest.raises(error) as excinfo:
        load_registry(path)
    assert (excinfo.value.line, excinfo.value.column) == (2, column)
    assert str(excinfo.value).startswith(f"line 2, column {column}: ")
