"""Snapshot format 2: checked files, one bulk load, one-line triple reads, atomic saves."""

import gc
import json
import os
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_kinship_graph, build_random_graph, join_statements

from qcorolla.cli import cli_dispatch
from qcorolla.corolla import ConverseRegistry, CorollaGraph, load_registry
from qcorolla.entangle import synthesize_joint_state, triple_joint_state
from qcorolla.errors import (
    AlreadyPairedError,
    DuplicateSymbolError,
    MalformedTokenError,
    MissingTerminatorError,
    QcorollaError,
    SnapshotError,
    UnknownNodeError,
    UnknownNodeSymbolError,
    UnknownPredicateError,
    UnknownTripleError,
    WrongOrientationError,
)
from qcorolla.qusym import Vocabulary, load_vocabulary, vocabulary_from_symbols
from qcorolla.store import (
    export_jsonl,
    ingest,
    ingest_document,
    load_snapshot,
    load_triples,
    open_snapshot,
    parse_triples_text,
    query_node,
    read_triple,
    save_snapshot,
)

INDEXES = ("_owned", "_half_edges", "_edge_of", "_triples", "_triple_keys")
SNAPSHOT_FILES = ("vocabulary.txt", "registry.txt", "triples.nt", "snapshot.json")


def reingested(directory):
    """What ``ingest_document`` builds from a snapshot's own files."""
    return ingest_document(
        load_vocabulary(directory / "vocabulary.txt"),
        load_registry(directory / "registry.txt"),
        load_triples(directory / "triples.nt"),
    ).graph


def as_list(index):
    """A list index as it is, a dict one as its list of items, so insertion order counts."""
    return list(index.items()) if isinstance(index, dict) else index


def assert_same_indexes(loaded, expected):
    for name in INDEXES:
        assert as_list(getattr(loaded, name)) == as_list(getattr(expected, name)), name
    assert loaded.nodes() == expected.nodes()
    assert loaded.node_vocabulary == expected.node_vocabulary
    assert list(loaded.registry.pairs()) == list(expected.registry.pairs())


# --- bulk load ---------------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=80), st.integers(min_value=0, max_value=2**31))
def test_bulk_load_equals_reingest_random_graphs(tmp_path_factory, n_triples, seed):
    directory = tmp_path_factory.mktemp("snap")
    save_snapshot(build_random_graph(n_triples, seed), directory)
    assert_same_indexes(load_snapshot(directory), reingested(directory))


def test_bulk_load_equals_reingest_kinship(kinship_paths, tmp_path):
    save_snapshot(ingest(*kinship_paths).graph, tmp_path)
    loaded = load_snapshot(tmp_path)
    assert_same_indexes(loaded, reingested(tmp_path))
    assert loaded.nodes() == ("person:Bob", "person:Mary", "person:Alice")


def test_bulk_load_equals_reingest_large_graph(large_random_graph, tmp_path):
    save_snapshot(large_random_graph, tmp_path)
    loaded = load_snapshot(tmp_path)
    assert_same_indexes(loaded, reingested(tmp_path))
    assert loaded.validate().is_valid


def test_triple_k_is_line_k(tmp_path):
    save_snapshot(build_random_graph(300, seed=11), tmp_path)
    lines = (tmp_path / "triples.nt").read_text(encoding="utf-8").splitlines()
    graph = load_snapshot(tmp_path)
    assert [f"{s} {p} {o} ." for s, p, o in (graph.triple(f"t{k}") for k in range(1, 301))] == lines


def assert_one_string_per_name(graph):
    """Each node string in the graph's indexes is its vocabulary's own object, and each predicate its registry's."""
    entries = {symbol: symbol for symbol in graph.node_vocabulary.entries}
    names = {name: name for name, _, _ in graph.registry.pairs()}
    for corolla in graph._half_edges:
        assert corolla.node is entries[corolla.node]
        assert corolla.predicate is graph.registry.directed(corolla.predicate.name)
    for symbol in graph._owned:
        assert symbol is entries[symbol]
    for s, p, o in graph._triple_keys:
        assert s is entries[s] and o is entries[o] and p is names[p]


def test_bulk_load_keeps_one_string_per_symbol_and_predicate(tmp_path):
    save_snapshot(build_random_graph(200, seed=3), tmp_path)
    assert_one_string_per_name(load_snapshot(tmp_path))


def test_ingest_make_corolla_and_add_edge_keep_one_string_per_symbol_and_predicate():
    reference = build_random_graph(200, seed=3)
    vocabulary, registry = reference.node_vocabulary, reference.registry
    triples = list(reference.triples().values())
    assert any(s == o for s, _, o in triples)  # a self-loop's two half-edges share its node's string
    # parsed text, with each edge's converse reading folded onto it
    text = "".join(f"{s} {p} {o} .\n{o} {registry.converse_name(p)} {s} .\n" for s, p, o in triples)
    # equal strings that are not the vocabulary's or the registry's objects
    copies = [tuple("".join([name[:1], name[1:]]) for name in triple) for triple in triples]
    assert not any(a is b for copy, triple in zip(copies, triples) for a, b in zip(copy, triple))
    by_add_edge = CorollaGraph(vocabulary, registry)
    for s, p, o in copies:
        by_add_edge.add_edge(s, p, o)
    for graph in (
        ingest_document(vocabulary, registry, parse_triples_text(text)).graph,
        join_statements(vocabulary, registry, copies),  # make_corolla and join
        by_add_edge,
    ):
        assert graph.triples() == reference.triples()
        assert_one_string_per_name(graph)


# faults a crafted snapshot could hold under a matching CRC: (triples text, error, line, column)
CANONICAL_FAULTS = {
    "unknown predicate": ("person:Bob kin:Foo person:Alice .\n", UnknownPredicateError, 1, 12),
    "backward predicate": ("person:Alice kin:ChildOf person:Bob .\n", MalformedTokenError, 1, 14),
    "unknown subject": ("person:Zed kin:ParentOf person:Alice .\n", UnknownNodeSymbolError, 1, 1),
    "unknown object": ("person:Bob kin:ParentOf person:Zed .\n", UnknownNodeSymbolError, 1, 25),
    "two spaces": ("person:Bob  kin:ParentOf person:Alice .\n", MalformedTokenError, 1, 1),
    "no dot": ("person:Bob kin:ParentOf person:Alice !\n", MalformedTokenError, 1, 1),
    "empty object": ("person:Bob kin:ParentOf  .\n", UnknownNodeSymbolError, 1, 25),
    "second line": (
        "person:Bob kin:HusbandOf person:Mary .\nperson:Bob kin:ParentOf person:Eve .\n",
        UnknownNodeSymbolError,
        2,
        25,
    ),
}


def rewrite_with_crc(directory, name, text):
    """Replace one snapshot file and record its CRC, as a crafted store would."""
    data = text.encode("utf-8")
    (directory / name).write_bytes(data)
    meta = json.loads((directory / "snapshot.json").read_text(encoding="utf-8"))
    meta["crc32"][name] = zlib.crc32(data)
    if name == "triples.nt":
        meta["edges"] = text.count("\n")
    (directory / "snapshot.json").write_text(json.dumps(meta) + "\n", encoding="utf-8")


@pytest.mark.parametrize("case", sorted(CANONICAL_FAULTS))
def test_bulk_load_rejects_a_bad_line_at_its_position(tmp_path, case):
    text, error, line, column = CANONICAL_FAULTS[case]
    save_snapshot(build_kinship_graph(), tmp_path)
    rewrite_with_crc(tmp_path, "triples.nt", text)
    with pytest.raises(error) as excinfo:
        load_snapshot(tmp_path)
    assert (excinfo.value.line, excinfo.value.column) == (line, column)
    assert gc.isenabled()


def test_bulk_load_rejects_a_repeated_line(tmp_path):
    save_snapshot(build_kinship_graph(), tmp_path)
    rewrite_with_crc(tmp_path, "triples.nt", "person:Bob kin:ParentOf person:Alice .\n" * 2)
    with pytest.raises(AlreadyPairedError):
        load_snapshot(tmp_path)


def test_bulk_load_names_the_repeated_line(tmp_path):
    save_snapshot(build_kinship_graph(), tmp_path)
    first, second = (tmp_path / "triples.nt").read_text(encoding="utf-8").splitlines(keepends=True)
    rewrite_with_crc(tmp_path, "triples.nt", first + second + first)
    with pytest.raises(AlreadyPairedError) as excinfo:
        load_snapshot(tmp_path)
    assert (excinfo.value.line, excinfo.value.column) == (3, 1)
    assert str(excinfo.value).startswith("line 3, column 1: triple (") and "already present as t1" in str(excinfo.value)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**31), st.data())
def test_bulk_load_never_returns_an_invalid_graph(tmp_path_factory, n_triples, seed, data):
    directory = tmp_path_factory.mktemp("snap")
    graph = build_random_graph(n_triples, seed)
    save_snapshot(graph, directory)
    lines = (directory / "triples.nt").read_text(encoding="utf-8").splitlines(keepends=True)
    k = data.draw(st.integers(0, len(lines) - 1), label="line")
    edit = data.draw(st.sampled_from(["shuffle", "repeat", "swap"]), label="edit")
    if edit == "swap":  # for a symbol or a predicate, forward or backward, in any of the three places
        tokens = lines[k].split(" ")
        names = [*graph.node_vocabulary.entries, *(name for pair in graph.registry.pairs() for name in pair[:2])]
        tokens[data.draw(st.integers(0, 2), label="token")] = data.draw(st.sampled_from(names), label="for")
        lines[k] = " ".join(tokens)
    else:
        line = lines.pop(k) if edit == "shuffle" else lines[k]
        lines.insert(data.draw(st.integers(0, len(lines)), label="to"), line)
    rewrite_with_crc(directory, "triples.nt", "".join(lines))
    try:
        loaded = load_snapshot(directory)
    except QcorollaError as exc:
        assert exc.line is not None, exc
    else:
        assert loaded.validate().is_valid


def test_bulk_load_rejects_a_vocabulary_entry_that_is_not_a_token(tmp_path):
    save_snapshot(build_kinship_graph(), tmp_path)
    rewrite_with_crc(tmp_path, "vocabulary.txt", "person:Bob\nAlice\nperson:Mary\n")
    with pytest.raises(MalformedTokenError) as excinfo:
        load_snapshot(tmp_path)
    assert excinfo.value.line == 2


def test_bulk_load_names_the_line_of_a_repeated_vocabulary_entry(tmp_path, capsys):
    save_snapshot(build_kinship_graph(), tmp_path)
    rewrite_with_crc(tmp_path, "vocabulary.txt", "person:Bob\nperson:Alice\nperson:Bob\n")
    with pytest.raises(DuplicateSymbolError) as excinfo:
        load_snapshot(tmp_path)
    assert (excinfo.value.line, excinfo.value.column) == (3, 1)
    for argv in (["validate"], ["query", "person:Bob"]):
        assert cli_dispatch(argv + ["--store", str(tmp_path)]) == 1
        assert capsys.readouterr() == ("", "error: line 3, column 1: duplicate symbol 'person:Bob'\n")


# vocabularies with a fault, as a source file and as a snapshot's vocabulary.txt of d = 3:
# (text, error, message, line); every entry starts at column 1, so both readers name the same place
VOCABULARY_FAULTS = {
    "bad token": ("person:Bob\nAlice\nperson:Mary\n", MalformedTokenError,
                  "vocabulary entry 'Alice' is not a namespaced symbol", 2),
    "repeat": ("person:Bob\nperson:Alice\nperson:Bob\n", DuplicateSymbolError,
               "duplicate symbol 'person:Bob'", 3),
    "repeat before a bad token": ("person:Bob\nperson:Bob\nAlice\n", DuplicateSymbolError,
                                  "duplicate symbol 'person:Bob'", 2),
    "bad token before a repeat": ("Alice\nperson:Bob\nperson:Bob\n", MalformedTokenError,
                                  "vocabulary entry 'Alice' is not a namespaced symbol", 1),
    "fault on the last line": ("person:Bob\nperson:Alice\nperson:Mary\tx\n", MalformedTokenError,
                               "vocabulary entry 'person:Mary\\tx' is not a namespaced symbol", 3),
}


@pytest.mark.parametrize("case", sorted(VOCABULARY_FAULTS))
def test_a_vocabulary_fault_has_one_diagnosis_in_a_source_file_and_a_snapshot(kinship_paths, tmp_path, capsys, case):
    text, error, message, line = VOCABULARY_FAULTS[case]
    expected = f"line {line}, column 1: {message}"
    vocab, registry, triples = kinship_paths
    vocab.write_text(text, encoding="utf-8")
    with pytest.raises(error) as from_file:
        load_vocabulary(vocab)
    store = tmp_path / "store"
    save_snapshot(build_kinship_graph(), store)
    rewrite_with_crc(store, "vocabulary.txt", text)
    with pytest.raises(error) as from_snapshot:
        load_snapshot(store)
    for caught in (from_file, from_snapshot):
        assert type(caught.value) is error and str(caught.value) == expected
        assert (caught.value.line, caught.value.column) == (line, 1)
    ingest_argv = ["ingest", "--vocab", str(vocab), "--registry", str(registry), "--triples", str(triples)]
    for argv in (ingest_argv + ["--store", str(tmp_path / "fresh")], ["validate", "--store", str(store)],
                 ["query", "person:Bob", "--store", str(store)],
                 ["export", "--jsonl", str(tmp_path / "out.jsonl"), "--store", str(store)]):
        assert cli_dispatch(argv) == 1, argv
        assert capsys.readouterr() == ("", f"error: {expected}\n"), argv
    assert not (tmp_path / "fresh").exists() and not (tmp_path / "out.jsonl").exists()


@pytest.mark.parametrize("case", sorted(CANONICAL_FAULTS))
def test_one_line_commands_reject_a_bad_line_as_validate_does(tmp_path, capsys, case):
    text, _, line, column = CANONICAL_FAULTS[case]
    save_snapshot(build_kinship_graph(), tmp_path)
    rewrite_with_crc(tmp_path, "triples.nt", text)
    store_ = ["--store", str(tmp_path)]
    assert cli_dispatch(["validate", *store_]) == 1
    _, expected = capsys.readouterr()
    assert expected.startswith(f"error: line {line}, column {column}: ")
    for argv in (["entangle", f"t{line}"], ["measure", f"t{line}"], ["entropy", "--triple", f"t{line}"]):
        assert cli_dispatch(argv + store_) == 1, argv
        assert capsys.readouterr() == ("", expected), argv


def test_one_line_commands_read_only_their_own_line(tmp_path, capsys):
    save_snapshot(build_kinship_graph(), tmp_path)
    rewrite_with_crc(tmp_path, "triples.nt", CANONICAL_FAULTS["second line"][0])  # line 2 is bad
    assert cli_dispatch(["entangle", "t1", "--store", str(tmp_path)]) == 0
    assert json.loads(capsys.readouterr().out)["statement"] == ["person:Bob", "kin:HusbandOf", "person:Mary"]


# (vocabulary.txt, triples line 1, stderr) of a store whose line 1 names an entry that is not a token
NAMED_ENTRY_FAULTS = {
    "object": ("person:Bob\nAlice\nperson:Mary\n", "person:Bob kin:ParentOf Alice .",
               "error: line 2, column 1: vocabulary entry 'Alice' is not a namespaced symbol\n"),
    # both are bad: the first in vocabulary line order is named, as validate names it
    "both, in vocabulary line order": ("Bob\nAlice\nperson:Mary\n", "Alice kin:ParentOf Bob .",
                                       "error: line 1, column 1: vocabulary entry 'Bob' is not a namespaced symbol\n"),
}


@pytest.mark.parametrize("case", sorted(NAMED_ENTRY_FAULTS))
def test_one_line_commands_check_the_vocabulary_entries_their_line_names(tmp_path, capsys, case):
    vocabulary, line, expected = NAMED_ENTRY_FAULTS[case]
    save_snapshot(build_kinship_graph(), tmp_path)
    rewrite_with_crc(tmp_path, "vocabulary.txt", vocabulary)
    rewrite_with_crc(tmp_path, "triples.nt", f"{line}\nperson:Bob kin:HusbandOf person:Mary .\n")
    store_ = ["--store", str(tmp_path)]
    for argv in (["validate"], ["entangle", "t1"], ["measure", "t1"], ["entropy", "--triple", "t1"]):
        assert cli_dispatch(argv + store_) == 1, argv
        assert capsys.readouterr() == ("", expected), argv


# --- one writer per edge: add_edge, checked against make_corolla and join ------------------

def assert_same_graph(built, expected):
    """``built`` holds, index by index, what ``expected`` holds; each half-edge holds the
    registry's own predicate object, and each (s, p, o) key the registry's own name."""
    assert as_list(built._owned) == as_list(expected._owned)
    assert [(c.node, c.predicate, c.half_edge_id) for c in built._half_edges] == \
        [(c.node, c.predicate, c.half_edge_id) for c in expected._half_edges]
    assert all(c.predicate is built.registry.directed(c.predicate.name) for c in built._half_edges)
    assert built._edge_of == expected._edge_of
    assert built._triples == expected._triples
    assert as_list(built._triple_keys) == as_list(expected._triple_keys)
    assert all(p is built.registry.directed(p).name for _, p, _ in built._triple_keys)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=2**31), st.data())
def test_ingest_and_load_build_what_make_corolla_and_join_build(tmp_path_factory, n_triples, seed, data):
    graph = build_random_graph(n_triples, seed)
    vocabulary, registry = graph.node_vocabulary, graph.registry
    statements = list(graph.triples().values())
    for symbol in data.draw(st.lists(st.sampled_from(vocabulary.entries), max_size=3), label="self-loops"):
        statements.insert(data.draw(st.integers(0, len(statements)), label="at"), (symbol, "rel:F00", symbol))
    for _ in range(data.draw(st.integers(0, 12), label="restatements") if statements else 0):
        k = data.draw(st.integers(0, len(statements) - 1), label="of")
        s, p, o = statements[k]
        if not registry.is_backward(p):  # a converse restatement or an exact repeat, after the line it restates
            extra = data.draw(st.sampled_from([(s, p, o), (o, registry.converse_name(p), s)]), label="as")
            statements.insert(data.draw(st.integers(k + 1, len(statements)), label="at"), extra)
    text = "".join(f"{s} {p} {o} .\n" for s, p, o in statements)
    result = ingest_document(vocabulary, registry, parse_triples_text(text))
    expected = join_statements(vocabulary, registry, statements)
    assert_same_graph(result.graph, expected)
    backward = sum(registry.is_backward(p) for _, p, _ in statements)
    assert (result.statements, result.folded, result.duplicates) == \
        (len(statements), backward, len(statements) - backward - expected.edge_count)

    directory = tmp_path_factory.mktemp("snap")
    save_snapshot(result.graph, directory)
    loaded = load_snapshot(directory)
    assert_same_graph(loaded, join_statements(loaded.node_vocabulary, loaded.registry,
                                              sorted(expected.triples().values())))


def index_copy(graph):
    """Every index of a graph as a value that a later write to the graph cannot change."""
    copy = {name: list(as_list(getattr(graph, name))) for name in INDEXES}
    copy["_owned"] = [(node, list(ids)) for node, ids in copy["_owned"]]
    return copy


def unused_symbol(graph):
    return next(symbol for symbol in graph.node_vocabulary.entries if symbol not in graph.nodes())


# (subject, predicate, object) of a call that raises, each with one fault, on build_random_graph(30, 5)
ADD_EDGE_FAULTS = {
    "unknown predicate": lambda g: ("ns:N000", "rel:Zed", "ns:N001"),
    "backward name": lambda g: ("ns:N000", "rel:B03", "ns:N001"),
    "unknown subject": lambda g: ("ns:Zed", "rel:F03", "ns:N001"),
    "unknown object": lambda g: ("ns:N000", "rel:F03", "ns:Zed"),
    "unknown self-loop": lambda g: ("ns:Zed", "rel:F03", "ns:Zed"),
    # make_corolla would have added the new subject before the object's check
    "new subject, unknown object": lambda g: (unused_symbol(g), "rel:F03", "ns:Zed"),
    "repeated triple": lambda g: g.triple("t7"),
}


@pytest.mark.parametrize("case", sorted(ADD_EDGE_FAULTS))
def test_a_raising_add_edge_leaves_every_index_and_raises_what_join_raises(case):
    graph, twin = build_random_graph(30, seed=5), build_random_graph(30, seed=5)
    s, p, o = ADD_EDGE_FAULTS[case](graph)
    before = index_copy(graph)
    with pytest.raises(QcorollaError) as fused:
        graph.add_edge(s, p, o)
    assert index_copy(graph) == before
    with pytest.raises(QcorollaError) as joined:
        converse = twin.registry.converse_name(p) if p in twin.registry else p
        twin.join(twin.make_corolla(s, p), twin.make_corolla(o, converse))
    assert (type(fused.value), str(fused.value)) == (type(joined.value), str(joined.value))


def test_add_edge_names_a_fault_of_the_predicate_before_one_of_a_node():
    graph = build_random_graph(30, seed=5)
    before = index_copy(graph)
    with pytest.raises(WrongOrientationError, match="'rel:F03' is the forward predicate"):
        graph.add_edge("ns:Zed", "rel:B03", "ns:Zed")
    with pytest.raises(UnknownPredicateError):
        graph.add_edge("ns:Zed", "rel:Zed", "ns:Zed")
    with pytest.raises(UnknownNodeSymbolError, match="'ns:Zed'"):
        graph.add_edge("ns:Zed", "rel:F03", "ns:Yod")
    assert index_copy(graph) == before


def test_add_edge_returns_the_triple_id_join_returns():
    graph, twin = build_random_graph(30, seed=5), build_random_graph(30, seed=5)
    fresh, node = unused_symbol(graph), graph.nodes()[0]
    for s, p, o in ((fresh, "rel:F03", node), (node, "rel:F03", fresh), (fresh, "rel:F04", fresh)):
        assert graph.add_edge(s, p, o) == twin.join(twin.make_corolla(s, p), twin.make_corolla(o, twin.registry.converse_name(p)))
    assert_same_graph(graph, twin)


def assert_one_int_object_per_half_edge(graph):
    """Every index holds a half-edge's id as the very int object its Corolla holds,
    and a triple's id string and edge record are each one object wherever held.

    Ids above 256 are not cached by CPython, so this needs graphs of more than 128
    edges. Sharing the object is measured, not cosmetic: with the id computed a
    second time for the index keys, ``graph_build`` ``op_p50_ms`` and ``wall_s``
    read 7-8% higher in 6 of 6 benchmark pairs, and in four alternating in-process
    rounds 400 Zipf queries took 313-333 ms against 264-315 ms with one shared
    object. The mechanism was not isolated: a bare dict lookup by an equal but
    distinct int costs only about 3 ns more.
    """
    keys = {c.half_edge_id: c.half_edge_id for c in graph._half_edges}  # each id to its Corolla's object
    assert len(keys) > 256
    assert list(keys) == list(range(1, graph.half_edge_count + 1))
    for ids in graph._owned.values():
        assert all(h is keys[h] for h in ids)
    for triple_id, left, right in graph._triples:
        assert left is keys[left] and right is keys[right]
        assert graph._edge_of[left - 1] is graph._edge_of[right - 1] is graph._triples[int(triple_id[1:]) - 1]
    for triple_id in graph._triple_keys.values():
        assert triple_id is graph._triples[int(triple_id[1:]) - 1][0]


def test_loaded_and_ingested_graphs_share_each_half_edge_id(tmp_path):
    save_snapshot(build_random_graph(300, seed=17), tmp_path)
    assert_one_int_object_per_half_edge(load_snapshot(tmp_path))
    assert_one_int_object_per_half_edge(reingested(tmp_path))


def test_load_and_ingest_pause_the_collector_while_joining(kinship_paths, tmp_path, monkeypatch):
    collecting = []
    add_edge = CorollaGraph.add_edge
    monkeypatch.setattr(CorollaGraph, "add_edge", lambda graph, s, p, o: (
        collecting.append(gc.isenabled()), add_edge(graph, s, p, o))[1])
    save_snapshot(ingest(*kinship_paths).graph, tmp_path)
    load_snapshot(tmp_path)
    assert collecting == [False] * 4 and gc.isenabled()


def collections_started(call):
    """How many collections start during ``call()`` at threshold 1, where every other new tracked object starts one."""
    started = []

    def count(phase, _info):
        if phase == "start":
            started.append(phase)

    threshold = gc.get_threshold()
    gc.collect()  # zeroes the allocation count, so each call starts from the same state
    gc.callbacks.append(count)
    gc.set_threshold(1)
    try:
        call()
    finally:
        gc.set_threshold(*threshold)
        gc.callbacks.remove(count)
    return len(started)


def hub_and_leaf():
    """A random graph, its node of highest degree and a node given one paired corolla."""
    graph = build_random_graph(300, seed=3)
    hub = max(graph.nodes(), key=lambda node: len(query_node(graph, node).corollas))
    leaf = next(symbol for symbol in graph.node_vocabulary.entries if symbol not in graph.nodes())
    other = next(node for node in graph.nodes() if node != hub)
    graph.join(graph.make_corolla(leaf, "rel:F00"), graph.make_corolla(other, "rel:B00"))
    return graph, hub, leaf


def test_query_starts_no_more_collections_on_a_hub_than_on_a_leaf():
    graph, hub, leaf = hub_and_leaf()
    assert len(query_node(graph, hub).corollas) == 12 and len(query_node(graph, leaf).corollas) == 1
    # the report is built with the collector paused, so its tuples set off no collection
    hub_collections = collections_started(lambda: query_node(graph, hub))
    assert hub_collections <= collections_started(lambda: query_node(graph, leaf))


def test_query_leaves_the_collector_as_it_found_it():
    graph, hub, _ = hub_and_leaf()
    query_node(graph, hub)
    assert gc.isenabled()
    with pytest.raises(UnknownNodeError):
        query_node(graph, "ns:Zed")
    assert gc.isenabled()
    gc.disable()  # as cli.main runs every command
    try:
        query_node(graph, hub)
        assert not gc.isenabled()
        with pytest.raises(UnknownNodeError):
            query_node(graph, "ns:Zed")
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_ingest_fault_leaves_the_collector_enabled(kinship_paths):
    vocabulary, registry, _ = kinship_paths
    document = parse_triples_text("person:Bob kin:HusbandOf person:Mary .\nperson:Bob kin:ParentOf person:Zed .\n")
    with pytest.raises(UnknownNodeSymbolError) as excinfo:
        ingest_document(load_vocabulary(vocabulary), load_registry(registry), document)
    assert (excinfo.value.line, excinfo.value.column) == (2, 25)
    assert gc.isenabled()



def test_parse_fault_on_the_last_line_leaves_the_collector_enabled(kinship_paths, monkeypatch):
    collecting = []
    add_edge = CorollaGraph.add_edge
    monkeypatch.setattr(CorollaGraph, "add_edge", lambda graph, s, p, o: (
        collecting.append(gc.isenabled()), add_edge(graph, s, p, o))[1])
    triples = kinship_paths[2]
    with triples.open("a", encoding="utf-8") as out:
        out.write("person:Bob kin:ParentOf person:Alice\n")
    with pytest.raises(MissingTerminatorError) as excinfo:
        ingest(*kinship_paths)
    assert (excinfo.value.line, excinfo.value.column) == (5, 37)
    # the edges of lines 1 and 3 were added as they were parsed, with the collector paused
    assert collecting == [False] * 2 and gc.isenabled()


# --- save refuses what no store command can open ------------------------------------------

UNSAVEABLE = {  # (vocabulary, forward, backward): the API accepts them, a snapshot cannot hold them
    "symbols and predicates": (["Bob", "Alice"], "ParentOf", "ChildOf"),
    "symbols": (["Bob", "Alice"], "kin:ParentOf", "kin:ChildOf"),
    "forward predicate": (["person:Bob", "person:Alice"], "ParentOf", "kin:ChildOf"),
    "backward predicate": (["person:Bob", "person:Alice"], "kin:ParentOf", "Child Of"),
}


@pytest.mark.parametrize("case", sorted(UNSAVEABLE))
def test_save_refuses_a_name_a_snapshot_cannot_hold(kinship_paths, tmp_path, case):
    symbols, forward, backward = UNSAVEABLE[case]
    save_snapshot(ingest(*kinship_paths).graph, tmp_path)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    graph = CorollaGraph(vocabulary_from_symbols(symbols), ConverseRegistry().register_converse(forward, backward, 0.4))
    graph.join(graph.make_corolla(symbols[0], forward), graph.make_corolla(symbols[1], backward))
    with pytest.raises(MalformedTokenError):
        save_snapshot(graph, tmp_path)
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before
    assert load_snapshot(tmp_path).edge_count == 2


# --- the format-2 files -----------------------------------------------------------------

def test_snapshot_json_records_d_edges_and_crc32(tmp_path):
    graph = build_random_graph(40, seed=5)
    save_snapshot(graph, tmp_path)
    meta = json.loads((tmp_path / "snapshot.json").read_text(encoding="utf-8"))
    assert meta == {
        "crc32": {
            name: zlib.crc32((tmp_path / name).read_bytes())
            for name in ("registry.txt", "triples.nt", "vocabulary.txt")
        },
        "d": 100,
        "edges": 40,
        "format_version": 2,
    }
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "registry.txt", "snapshot.json", "triples.nt", "vocabulary.txt"
    ]  # no temporary file is left behind
    snapshot = open_snapshot(tmp_path)
    assert (snapshot.d, snapshot.edges) == (100, 40)


def test_empty_graph_round_trips(tmp_path):
    graph = CorollaGraph(vocabulary_from_symbols(["n:X"]), ConverseRegistry())
    save_snapshot(graph, tmp_path)
    loaded = load_snapshot(tmp_path)
    assert (loaded.edge_count, loaded.nodes()) == (0, ())


def test_read_triple_matches_synthesis_on_the_loaded_graph(tmp_path):
    save_snapshot(build_random_graph(120, seed=9), tmp_path)
    graph = load_snapshot(tmp_path)
    voc = graph.node_vocabulary
    for tid in graph.triple_ids():
        triple = read_triple(tmp_path, tid)
        s, p, o = graph.triple(tid)
        assert triple.statement == (s, p, o)
        assert (triple.subject_index, triple.object_index, triple.d) == (voc.index(s), voc.index(o), voc.d)
        assert triple.weight == graph.registry.total_weight(p)
        joint = triple_joint_state(triple.d, triple.subject_index, triple.object_index, triple.weight)
        assert joint == synthesize_joint_state(graph, tid)


# --- the seven store command forms on a store that fails its check ----------------------

def store_commands(directory, out):
    st_ = str(directory)
    return {
        "validate": ["validate", "--store", st_],
        "query": ["query", "person:Bob", "--store", st_],
        "entangle": ["entangle", "t1", "--store", st_],
        "measure": ["measure", "t1", "--store", st_],
        "entropy --triple": ["entropy", "--triple", "t1", "--store", st_],
        "entropy --node-vocab": ["entropy", "--node-vocab", "--store", st_],
        "export": ["export", "--jsonl", str(out), "--store", st_],
    }


def assert_every_command_fails(directory, tmp_path, capsys, expect=""):
    for name, argv in store_commands(directory, tmp_path / "out.jsonl").items():
        code = cli_dispatch(argv)
        out, err = capsys.readouterr()
        assert code == 1, name
        assert out == "", name
        assert err.startswith("error: ") and err.count("\n") == 1, (name, err)
        assert expect in err, (name, err)
        assert "Traceback" not in err


def kinship_store(kinship_paths, directory):
    save_snapshot(ingest(*kinship_paths).graph, directory)
    return directory


def flip_one_byte(path):
    data = bytearray(path.read_bytes())
    data[5] ^= 0x20  # 'n' <-> 'N': same length, still UTF-8
    path.write_bytes(bytes(data))


CORRUPTIONS = {
    "crc mismatch in triples": (lambda d: flip_one_byte(d / "triples.nt"), "CRC-32"),
    "crc mismatch in vocabulary": (lambda d: flip_one_byte(d / "vocabulary.txt"), "CRC-32"),
    "crc mismatch in registry": (lambda d: flip_one_byte(d / "registry.txt"), "CRC-32"),
    "truncated triples": (
        lambda d: (d / "triples.nt").write_bytes((d / "triples.nt").read_bytes()[:-10]),
        "CRC-32",
    ),
    "missing triples": (lambda d: (d / "triples.nt").unlink(), "snapshot file missing"),
    "missing snapshot.json": (lambda d: (d / "snapshot.json").unlink(), "snapshot file missing"),
    "format version 1": (
        lambda d: (d / "snapshot.json").write_text('{"format_version": 1}\n', encoding="utf-8"),
        "unsupported snapshot format version 1 (this qcorolla reads 2); re-run 'qcorolla ingest'",
    ),
    "snapshot.json not JSON": (
        lambda d: (d / "snapshot.json").write_text("{", encoding="utf-8"),
        "re-run 'qcorolla ingest'",
    ),
    "snapshot.json nested too deep": (
        lambda d: (d / "snapshot.json").write_text("[" * 200_000, encoding="utf-8"),
        "unsupported snapshot format version None (this qcorolla reads 2); re-run 'qcorolla ingest'",
    ),
    "snapshot.json without crc32": (
        lambda d: (d / "snapshot.json").write_text('{"format_version": 2}\n', encoding="utf-8"),
        "lacks crc32, d or edges",
    ),
}


@pytest.mark.parametrize("case", sorted(CORRUPTIONS))
def test_every_store_command_rejects_a_bad_store(kinship_paths, tmp_path, capsys, case):
    corrupt, expect = CORRUPTIONS[case]
    directory = kinship_store(kinship_paths, tmp_path / "store")
    corrupt(directory)
    assert_every_command_fails(directory, tmp_path, capsys, expect)


def rewrite_unterminated(directory, name, count_key):
    """Drop a file's final LF and record its CRC and a line count of -1, as a crafted store could."""
    data = (directory / name).read_bytes()[:-1]
    (directory / name).write_bytes(data)
    meta = json.loads((directory / "snapshot.json").read_text(encoding="utf-8"))
    meta["crc32"][name], meta[count_key] = zlib.crc32(data), -1
    (directory / "snapshot.json").write_text(json.dumps(meta) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name, count_key", [("vocabulary.txt", "d"), ("triples.nt", "edges")])
def test_every_store_command_rejects_an_unterminated_last_line(kinship_paths, tmp_path, capsys, name, count_key):
    directory = kinship_store(kinship_paths, tmp_path / "store")
    rewrite_unterminated(directory, name, count_key)
    assert_every_command_fails(directory, tmp_path, capsys, "does not hold d = ")


def test_load_snapshot_raises_snapshot_error_for_format_1(kinship_paths, tmp_path):
    directory = kinship_store(kinship_paths, tmp_path / "store")
    (directory / "snapshot.json").write_text('{"format_version": 1}\n', encoding="utf-8")
    with pytest.raises(SnapshotError, match="re-run 'qcorolla ingest'"):
        load_snapshot(directory)


def test_torn_save_is_rejected_and_a_completed_save_loads(kinship_paths, tmp_path, capsys, monkeypatch):
    directory = kinship_store(kinship_paths, tmp_path / "store")
    replacement = build_random_graph(30, seed=1)
    real_replace = os.replace

    def cut_after_triples(source, target):
        real_replace(source, target)
        if os.path.basename(target) == "triples.nt":
            raise OSError("cut short")

    monkeypatch.setattr(os, "replace", cut_after_triples)
    with pytest.raises(OSError, match="cut short"):
        save_snapshot(replacement, directory)
    monkeypatch.setattr(os, "replace", real_replace)
    assert_every_command_fails(directory, tmp_path, capsys, "CRC-32")

    save_snapshot(replacement, directory)
    assert_same_indexes(load_snapshot(directory), reingested(directory))
    assert cli_dispatch(["validate", "--store", str(directory)]) == 0
    assert capsys.readouterr().out == f"graph valid: {replacement.node_count} nodes, 30 edges\n"


def test_a_save_that_fails_before_its_renames_leaves_the_old_store_whole(kinship_paths, tmp_path, capsys):
    directory = kinship_store(kinship_paths, tmp_path / "store")
    before = {name: (directory / name).read_bytes() for name in SNAPSHOT_FILES}
    (directory / "triples.nt.tmp").mkdir()  # its write fails after vocabulary.txt.tmp and registry.txt.tmp
    with pytest.raises(OSError):
        save_snapshot(build_random_graph(30, seed=1), directory)
    assert {name: (directory / name).read_bytes() for name in SNAPSHOT_FILES} == before
    kinship = ingest(*kinship_paths).graph
    assert sorted(load_snapshot(directory).triples().values()) == sorted(kinship.triples().values())

    vocab, registry, triples = kinship_paths
    with vocab.open("a", encoding="utf-8") as file:
        file.write("person:Zoe\n")  # a vocabulary.txt renamed over the old one would fail its CRC-32 check
    argv = ["--vocab", vocab, "--registry", registry, "--triples", triples, "--store", directory]
    assert cli_dispatch(["ingest", *map(str, argv)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    assert cli_dispatch(["validate", "--store", str(directory)]) == 0
    assert capsys.readouterr().out == "graph valid: 3 nodes, 2 edges\n"


# --- triple ids are read by line number -------------------------------------------------

# each id with the one line it prints; the kinship store has 2 edges, so t3 is one past the last
BAD_TRIPLE_IDS = {
    "t0": "error: no triple 't0'\n",
    "t01": "error: no triple 't01'\n",
    "t+1": "error: no triple 't+1'\n",
    "t1_0": "error: no triple 't1_0'\n",
    "t 1": "error: no triple 't 1'\n",
    "T1": "error: no triple 'T1'\n",
    "t": "error: no triple 't'\n",
    "t\u0661": "error: no triple 't\u0661'\n",
    "t3": "error: no triple 't3'\n",
    "t-1": "error: no triple 't-1'\n",
    "1": "error: no triple '1'\n",
}


@pytest.mark.parametrize("triple_id", sorted(BAD_TRIPLE_IDS))
@pytest.mark.parametrize("command", ["entangle", "measure", "entropy"])
def test_bad_triple_id_prints_no_triple(kinship_paths, tmp_path, capsys, command, triple_id):
    directory = kinship_store(kinship_paths, tmp_path / "store")
    argv = [command, "--triple", triple_id] if command == "entropy" else [command, triple_id]
    code = cli_dispatch(argv + ["--store", str(directory)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", BAD_TRIPLE_IDS[triple_id])


@pytest.mark.parametrize("triple_id", sorted(BAD_TRIPLE_IDS))
def test_bad_triple_id_is_no_triple_in_the_graph(kinship_paths, triple_id):
    """``CorollaGraph.triple`` parses an id as the CLI does, with the same message."""
    graph = ingest(*kinship_paths).graph
    for read in (graph.triple, graph.converse_of):
        with pytest.raises(UnknownTripleError) as caught:
            read(triple_id)
        assert f"error: {caught.value}\n" == BAD_TRIPLE_IDS[triple_id]


def test_non_str_triple_id_is_no_triple(kinship_paths, tmp_path):
    graph = ingest(*kinship_paths).graph
    directory = kinship_store(kinship_paths, tmp_path / "store")
    for read in (graph.triple, lambda triple_id: read_triple(directory, triple_id)):
        with pytest.raises(UnknownTripleError, match=r"^no triple 1$"):
            read(1)


def test_empty_triple_id_is_no_triple(kinship_paths, tmp_path, capsys):
    directory = kinship_store(kinship_paths, tmp_path / "store")
    for argv in (["entangle", ""], ["measure", ""], ["entropy", "--triple", ""]):
        assert cli_dispatch(argv + ["--store", str(directory)]) == 1
        assert capsys.readouterr() == ("", "error: no triple ''\n")


def test_triple_commands_build_no_graph_and_no_vocabulary(kinship_paths, tmp_path, capsys, monkeypatch):
    directory = kinship_store(kinship_paths, tmp_path / "store")
    commands = {k: v for k, v in store_commands(directory, tmp_path / "x").items()
                if k in ("entangle", "measure", "entropy --triple", "entropy --node-vocab")}
    expected = {}
    for name, argv in commands.items():
        assert cli_dispatch(argv) == 0
        expected[name] = capsys.readouterr().out

    def refuse(*_args, **_kwargs):
        raise AssertionError("built a graph or a vocabulary")

    monkeypatch.setattr(CorollaGraph, "__init__", refuse)
    monkeypatch.setattr(Vocabulary, "__init__", refuse)
    for name, argv in commands.items():
        assert cli_dispatch(argv) == 0, name
        assert capsys.readouterr().out == expected[name]


# --- streamed export ------------------------------------------------------------------

def export_oracle(graph):
    records = []
    for tid in graph.triple_ids():
        s, p, o = graph.triple(tid)
        weight = graph.registry.total_weight(p)
        records.append({"s": s, "p": p, "o": o, "converse_p": graph.registry.converse_name(p),
                        "total_weight": weight, "target_entropy": weight})
    records.sort(key=lambda r: (r["s"], r["p"], r["o"]))
    return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def assert_export_matches_oracle(graph, path):
    assert export_jsonl(graph, path) == graph.edge_count
    assert path.read_bytes() == export_oracle(graph).encode("utf-8")


def test_export_matches_json_dumps_kinship(kinship_paths, tmp_path):
    assert_export_matches_oracle(ingest(*kinship_paths).graph, tmp_path / "out.jsonl")


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=80), st.integers(min_value=0, max_value=2**31))
def test_export_matches_json_dumps_random_graphs(tmp_path_factory, n_triples, seed):
    path = tmp_path_factory.mktemp("export") / "out.jsonl"
    assert_export_matches_oracle(build_random_graph(n_triples, seed), path)


def test_export_matches_json_dumps_with_escaped_symbols(tmp_path):
    symbols = ['q:"quoted"', "b:back\\slash", "e:caf\u00e9", "z:\x7f"]
    registry = ConverseRegistry()
    registry.register_converse('r:"says"', "r:sa\\id", 0.3)
    registry.register_converse("r:\u00e9t\u00e9", "r:\U0001f600", 1.0)
    graph = CorollaGraph(vocabulary_from_symbols(symbols), registry)
    for k, s in enumerate(symbols):
        for p in ('r:"says"', "r:\u00e9t\u00e9"):
            o = symbols[(k + 1) % len(symbols)]
            graph.join(graph.make_corolla(s, p), graph.make_corolla(o, registry.converse_name(p)))
    assert_export_matches_oracle(graph, tmp_path / "out.jsonl")
