"""Parsers, ingestion with converse folding, queries, export, snapshots."""

import hashlib
import json
import string

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_kinship_graph, build_random_graph

from qcorolla.errors import (
    BackwardPredicateInSubjectPositionError,
    MalformedTokenError,
    MissingTerminatorError,
    ParseError,
    QcorollaError,
    SourceEncodingError,
    UnknownNodeSymbolError,
    UnknownPredicateError,
)
from qcorolla.store import (
    Statement,
    export_jsonl,
    ingest,
    ingest_document,
    load_jsonl,
    load_snapshot,
    parse_triple_line,
    parse_triples_text,
    query_node,
    save_snapshot,
)
from qcorolla.corolla import ConverseRegistry, CorollaView, NodeReport, load_registry
from qcorolla.qusym import load_vocabulary, source_lines, vocabulary_from_symbols


# --- line parser ---------------------------------------------------------------

def test_parse_kinship_triple():
    statement = parse_triple_line("person:Bob kin:ParentOf person:Alice .")
    assert statement.triple == ("person:Bob", "kin:ParentOf", "person:Alice")


def test_parse_skips_comments_and_blanks():
    assert parse_triple_line("# comment") is None
    assert parse_triple_line("   ") is None


def test_parse_rejects_missing_namespace():
    with pytest.raises(MalformedTokenError) as excinfo:
        parse_triple_line("Bob ParentOf Alice .", lineno=7)
    assert excinfo.value.line == 7
    assert excinfo.value.column == 1


def test_parse_reports_column_of_bad_token():
    with pytest.raises(MalformedTokenError) as excinfo:
        parse_triple_line("person:Bob ParentOf person:Alice .", lineno=3)
    assert excinfo.value.line == 3
    assert excinfo.value.column == 12


def test_parse_rejects_missing_terminator():
    with pytest.raises(MissingTerminatorError):
        parse_triple_line("person:Bob kin:ParentOf person:Alice")


def test_parse_rejects_wrong_arity():
    with pytest.raises(MalformedTokenError):
        parse_triple_line("person:Bob kin:ParentOf .")
    with pytest.raises(MalformedTokenError):
        parse_triple_line("a:b c:d e:f g:h .")


def test_parse_tolerates_crlf_and_padding():
    statement = parse_triple_line("  person:Bob  kin:ParentOf person:Alice  .\r")
    assert statement.triple == ("person:Bob", "kin:ParentOf", "person:Alice")


def test_parse_accepts_tab_separators():
    statement = parse_triple_line("a:X\tr:F\ta:Y .")
    assert statement.triple == ("a:X", "r:F", "a:Y")
    statement = parse_triple_line("\ta:X \t r:F\t\ta:Y\t.")
    assert statement.triple == ("a:X", "r:F", "a:Y")


def test_parse_reports_column_of_bad_token_after_tab():
    with pytest.raises(MalformedTokenError) as excinfo:
        parse_triple_line("a:X\tF\ta:Y .", lineno=4)
    assert (excinfo.value.line, excinfo.value.column) == (4, 5)
    with pytest.raises(MalformedTokenError) as excinfo:
        parse_triple_line("a:X \t\tr:F\ta:Y\tb:Z .")
    assert excinfo.value.column == 15


def serialize(statements):
    """Canonical text of statements: one per line, single spaces, LF endings."""
    return "".join(f"{s.serialize()}\n" for s in statements)


def test_parse_serialize_idempotent_corpus():
    rng = np.random.default_rng(61)
    lines = [
        f"n{rng.integers(100)}:S{i} r{rng.integers(10)}:P{rng.integers(50)} "
        f"n{rng.integers(100)}:O{i} ."
        for i in range(10_000)
    ]
    canonical = "".join(line + "\n" for line in lines)
    serialized = serialize(parse_triples_text(canonical))
    assert serialized == canonical
    # a second pass is a fixed point
    assert serialize(parse_triples_text(serialized)) == canonical


def test_parse_rejects_exactly_bad_lines():
    text = "person:Bob kin:ParentOf person:Alice .\nbad line here .\n"
    with pytest.raises(MalformedTokenError) as excinfo:
        list(parse_triples_text(text))
    assert excinfo.value.line == 2


@pytest.mark.parametrize("kind", ["vocabulary", "registry", "triples"])
def test_ingest_skips_byte_order_mark(kinship_paths, kind):
    paths = dict(zip(("vocabulary", "registry", "triples"), kinship_paths))
    path = paths[kind]
    # drop the comments so that the mark sits right before the first entry
    lines = [line for line in path.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    path.write_text("\ufeff" + "\n".join(lines) + "\n", encoding="utf-8")
    result = ingest(*kinship_paths)
    assert (result.statements, result.graph.node_count, result.graph.edge_count) == (4, 3, 2)


# Unicode line breaks other than LF, CR LF and CR: VT, FF, FS, GS, RS, NEL, LS, PS
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# source kind -> (line 1 with the character at {}, column of the diagnostic)
BROKEN_LINE = {
    "vocabulary": ("person:Bob{}person:Alice\nperson:Mary\n", 1),
    "registry": ("kin:ParentOf <-> kin:ChildOf = 0.{}4\n", 1),
    "triples": ("person:Bob kin:ParentOf person:{}Alice .\n", 25),
}


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("kind", sorted(BROKEN_LINE))
def test_only_lf_cr_lf_and_cr_end_a_line(kinship_paths, char, kind):
    paths = dict(zip(("vocabulary", "registry", "triples"), kinship_paths))
    text, column = BROKEN_LINE[kind]
    paths[kind].write_text(text.format(char), encoding="utf-8")
    with pytest.raises(MalformedTokenError) as excinfo:
        ingest(*kinship_paths)
    assert (excinfo.value.line, excinfo.value.column) == (1, column)


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_cr_lf_and_cr_sources_load_like_lf(kinship_paths, ending):
    expected = ingest(*kinship_paths)
    text = kinship_paths[2].read_text(encoding="utf-8")
    for path in kinship_paths:
        path.write_bytes(path.read_bytes().replace(b"\n", ending.encode()))
    result = ingest(*kinship_paths)
    assert result.graph.node_vocabulary.entries == expected.graph.node_vocabulary.entries
    assert list(result.graph.registry.pairs()) == list(expected.graph.registry.pairs())
    assert result.graph.triples() == expected.graph.triples()
    assert list(parse_triples_text(text.replace("\n", ending))) == list(parse_triples_text(text))
    with pytest.raises(MalformedTokenError) as excinfo:
        list(parse_triples_text(f"a:X r:F a:Y .{ending}bad .{ending}"))
    assert excinfo.value.line == 2


# Unicode spaces that separate nothing: NBSP, VT, FF, NEL, LS and the ideographic space
NOT_SEPARATORS = ["\xa0", "\x0b", "\x0c", "\x85", "\u2028", "\u3000"]

# source kind -> (lines 1 and 2 with the character at {}, column of the diagnostic on line 2)
SPACED_LINE = {
    "vocabulary leading": ("person:Bob\n{}person:Alice\nperson:Mary\n", 1),
    "vocabulary trailing": ("person:Bob\nperson:Alice{}\nperson:Mary\n", 1),
    "vocabulary alone": ("person:Bob\n{}\nperson:Alice\nperson:Mary\n", 1),
    "registry": ("kin:HusbandOf <-> kin:WifeOf = 1.0\nkin:ParentOf{}<-> kin:ChildOf = 0.4\n", 1),
    "registry alone": ("kin:HusbandOf <-> kin:WifeOf = 1.0\n{}\nkin:ParentOf <-> kin:ChildOf = 0.4\n", 1),
    "triples leading": ("person:Bob kin:ParentOf person:Alice .\n{}person:Bob kin:HusbandOf person:Mary .\n", 1),
    # the line is not blank, and its statement lacks the '.' after the character
    "triples alone": ("person:Bob kin:ParentOf person:Alice .\n{}\n", 2),
    # the line ends in the character, which is reported where it stands
    "triples trailing": ("person:Bob kin:ParentOf person:Alice .\nperson:Bob kin:HusbandOf person:Mary .{}\n", 39),
    "triples trailing spaced": ("person:Bob kin:ParentOf person:Alice .\nperson:Bob kin:HusbandOf person:Mary . \t{} \n", 41),
}


@pytest.mark.parametrize("char", NOT_SEPARATORS, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("case", sorted(SPACED_LINE))
def test_only_space_and_tab_separate(kinship_paths, char, case):
    paths = dict(zip(("vocabulary", "registry", "triples"), kinship_paths))
    text, column = SPACED_LINE[case]
    paths[case.split()[0]].write_text(text.format(char), encoding="utf-8")
    with pytest.raises(ParseError) as excinfo:
        ingest(*kinship_paths)
    assert (excinfo.value.line, excinfo.value.column) == (2, column)
    if case.startswith("triples trailing"):
        assert f"U+{ord(char):04X}" in str(excinfo.value)


def test_space_and_tab_still_separate(kinship_paths):
    expected = ingest(*kinship_paths)
    vocab, registry, _ = kinship_paths
    vocab.write_text(" \tperson:Bob\t\nperson:Alice  \n \t \nperson:Mary\n", encoding="utf-8")
    registry.write_text("\tkin:ParentOf <->\tkin:ChildOf = 0.4 \nkin:HusbandOf<->kin:WifeOf=1.0\n",
                        encoding="utf-8")
    result = ingest(*kinship_paths)
    assert result.graph.node_vocabulary.entries == expected.graph.node_vocabulary.entries
    assert list(result.graph.registry.pairs()) == list(expected.graph.registry.pairs())


LINE_PIECES = ["a:X", "r:F", "x", ":", ".", " ", "\t", "#", "\n", "\r", "\x0b", "\x85", "\u2028", "\ufeff"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), st.lists(st.sampled_from(LINE_PIECES), max_size=16).map("".join)))
def test_parser_raises_only_parse_error(text):
    for parse in (parse_triple_line, lambda t: list(parse_triples_text(t))):
        try:
            parse(text)
        except ParseError:
            pass


# the compiled fast path of parse_triples_text against parse_triple_line, line by line: tokens,
# separators, terminators, comment marks, and characters that look like spaces, line breaks,
# letters or digits but are none of the grammar's
PARSE_ALPHABET = string.ascii_letters + string.digits + ":_.# \t\xa0\u3000\u2028\u00e9\u0661"
WORD = string.ascii_letters + string.digits + "_"
TOKENS = st.tuples(st.sampled_from(string.ascii_letters), st.text(WORD, max_size=2), st.text(WORD, min_size=1, max_size=3)
                   ).map("{0[0]}{0[1]}:{0[2]}".format)  # what TOKEN_PATTERN matches
GAPS = st.sampled_from(["", " ", "\t", " \t "])
WELL_FORMED = st.tuples(GAPS, TOKENS, GAPS.map(" {}".format), TOKENS, GAPS.map("\t{}".format), TOKENS,
                        GAPS, st.just("."), GAPS).map("".join)
# a well-formed line as it is or with one character of the alphabet put in or put for another, or any
# string over the alphabet
LINES = st.one_of(
    WELL_FORMED,
    st.tuples(WELL_FORMED, st.integers(0, 60), st.sampled_from(PARSE_ALPHABET), st.integers(0, 1)).map(
        lambda edit: edit[0][: edit[1]] + edit[2] + edit[0][edit[1] + edit[3]:]),
    st.text(alphabet=PARSE_ALPHABET, max_size=40),
)


def parse_outcome(statements):
    """Each statement's tokens, line and columns as drawn, then the error that stops the parse, if
    one does: its class, message, line and column."""
    drawn = []
    try:
        for statement in statements:
            drawn.append((statement.triple, statement.line, statement.columns))
    except ParseError as exc:
        drawn.append((type(exc), str(exc), exc.line, exc.column))
    return drawn


@settings(max_examples=400, deadline=None)
@given(st.lists(LINES, max_size=6), st.sampled_from(["\n", "\r\n", "\r"]))
def test_fast_parse_agrees_with_the_line_parser(lines, end):
    text = end.join(lines)
    expected = parse_outcome(parse_triple_line(line, n) for n, line in source_lines(text))
    assert parse_outcome(parse_triples_text(text)) == expected


# --- ingestion -----------------------------------------------------------------

def test_ingest_kinship_corpus(kinship_paths):
    result = ingest(*kinship_paths)
    graph = result.graph
    assert result.statements == 4
    assert result.folded == 2
    assert result.duplicates == 0
    assert graph.node_count == 3
    assert graph.edge_count == 2
    assert graph.half_edge_count == 4
    assert graph.validate().is_valid


def test_ingest_empty_triples_file(kinship_paths):
    vocab, registry, triples = kinship_paths
    triples.write_text("# nothing here\n", encoding="utf-8")
    result = ingest(vocab, registry, triples)
    assert result.graph.edge_count == 0
    assert result.graph.validate().is_valid


def test_ingest_duplicate_statement_warned(kinship_paths):
    vocab, registry, triples = kinship_paths
    triples.write_text(
        "person:Bob kin:ParentOf person:Alice .\n" * 3, encoding="utf-8"
    )
    result = ingest(vocab, registry, triples)
    assert result.duplicates == 2
    assert result.graph.edge_count == 1


def test_ingest_backward_predicate_without_forward_edge(kinship_paths):
    vocab, registry, triples = kinship_paths
    triples.write_text("person:Alice kin:ChildOf person:Bob .\n", encoding="utf-8")
    with pytest.raises(BackwardPredicateInSubjectPositionError):
        ingest(vocab, registry, triples)


def test_ingest_unknown_predicate(kinship_paths):
    vocab, registry, triples = kinship_paths
    triples.write_text("person:Bob kin:CousinOf person:Alice .\n", encoding="utf-8")
    with pytest.raises(UnknownPredicateError):
        ingest(vocab, registry, triples)


def test_ingest_unknown_node(kinship_paths):
    vocab, registry, triples = kinship_paths
    triples.write_text("person:Zed kin:ParentOf person:Alice .\n", encoding="utf-8")
    with pytest.raises(UnknownNodeSymbolError):
        ingest(vocab, registry, triples)


# (triples line, error, column of the offending token); tabs and double spaces move the columns
TRIPLE_FAULTS = {
    "unknown subject": ("person:Zed kin:ParentOf person:Alice .", UnknownNodeSymbolError, 1),
    "unknown object": ("person:Bob\tkin:ParentOf  person:Zed .", UnknownNodeSymbolError, 26),
    "unknown predicate": ("person:Bob  kin:Foo person:Alice .", UnknownPredicateError, 13),
    "backward predicate": ("person:Alice kin:ChildOf person:Bob .", BackwardPredicateInSubjectPositionError, 14),
}


@pytest.mark.parametrize("fault", sorted(TRIPLE_FAULTS))
def test_ingest_fault_has_line_and_column(kinship_paths, fault):
    line, error, column = TRIPLE_FAULTS[fault]
    vocab, registry, triples = kinship_paths
    triples.write_text(f"# first line\n\n{line}\n", encoding="utf-8")
    with pytest.raises(error) as excinfo:
        ingest(vocab, registry, triples)
    assert (excinfo.value.line, excinfo.value.column) == (3, column)
    assert str(excinfo.value).startswith(f"line 3, column {column}: ")


def test_ingest_raises_the_first_fault_in_line_order(kinship_paths):
    vocab, registry, triples = kinship_paths
    # an unknown predicate on line 1, a missing '.' on line 2
    triples.write_text("person:Bob kin:Foo person:Alice .\nperson:Bob kin:ParentOf person:Alice\n", encoding="utf-8")
    with pytest.raises(UnknownPredicateError) as excinfo:
        ingest(vocab, registry, triples)
    assert str(excinfo.value) == "line 1, column 12: predicate 'kin:Foo' not registered"


def test_ingest_counts_a_one_shot_generator(kinship_paths):
    vocab, registry, triples = kinship_paths
    statements = parse_triples_text(triples.read_text(encoding="utf-8"))
    result = ingest_document(load_vocabulary(vocab), load_registry(registry), statements)
    assert (result.statements, result.folded, result.graph.edge_count) == (4, 2, 2)
    assert next(statements, None) is None  # consumed once, to its end


KINSHIP = build_kinship_graph()
KINSHIP_NODES = KINSHIP.node_vocabulary.entries
# every forward statement over the kinship corpus and its converse restatement: 18 of each, so
# a text of a dozen lines drawn from them holds exact duplicates and folds as well as new edges
FORWARD_LINES = [f"{s} {f} {o} ." for s in KINSHIP_NODES for f, _, _ in KINSHIP.registry.pairs() for o in KINSHIP_NODES]
CONVERSE_LINES = [f"{o} {b} {s} ." for s in KINSHIP_NODES for _, b, _ in KINSHIP.registry.pairs() for o in KINSHIP_NODES]
FAULT_LINES = [line for line, _, _ in TRIPLE_FAULTS.values()] + ["person:Bob kin:ParentOf person:Alice"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(FORWARD_LINES + CONVERSE_LINES + FAULT_LINES), max_size=12))
def test_ingest_never_returns_an_invalid_graph(lines):
    text = "".join(f"{line}\n" for line in lines)
    try:
        graph = ingest_document(KINSHIP.node_vocabulary, KINSHIP.registry, parse_triples_text(text)).graph
    except QcorollaError as exc:
        assert exc.line is not None, exc
    else:
        assert graph.validate().is_valid


def test_statement_keeps_its_token_columns():
    canonical = parse_triple_line("a:X r:F a:Y .", lineno=2)
    spaced = parse_triple_line("  a:X\tr:F  a:Y .", lineno=2)
    assert canonical.columns == (1, 5, 9)
    assert spaced.columns == (3, 7, 12)
    # the compiled fast path of a triples text reads the same columns
    assert [statement.columns for statement in parse_triples_text("\na:X r:F a:Y .\n  a:X\tr:F  a:Y .")] == \
        [(1, 5, 9), (3, 7, 12)]
    # columns are where a statement was written, not what it says
    assert canonical == spaced == Statement("a:X", "r:F", "a:Y", 2)


def test_exported_statement_fault_names_only_its_line(kinship_paths, tmp_path):
    vocab, registry, _ = kinship_paths
    path = tmp_path / "edges.jsonl"
    path.write_text(json.dumps({"s": "person:Bob", "p": "kin:Foo", "o": "person:Alice"}) + "\n")
    statements = load_jsonl(path)
    assert statements[0].columns is None
    with pytest.raises(UnknownPredicateError) as excinfo:
        ingest_document(load_vocabulary(vocab), load_registry(registry), statements)
    assert (excinfo.value.line, excinfo.value.column) == (1, None)
    assert str(excinfo.value) == "line 1: predicate 'kin:Foo' not registered"

    # only LF ends a record: a raw U+2028 in a string and a CR before the LF leave it whole
    good = json.dumps({"s": "person:Bob", "p": "kin:ParentOf", "o": "person:Alice"})
    spaced = json.dumps({"s": "person:Bob", "p": "kin:Foo\u2028", "o": "person:Alice"}, ensure_ascii=False)
    path.write_bytes(f"{good}\r\n{spaced}\r\n".encode("utf-8"))
    statements = load_jsonl(path)
    assert [statement.line for statement in statements] == [1, 2]
    with pytest.raises(UnknownPredicateError) as excinfo:
        ingest_document(load_vocabulary(vocab), load_registry(registry), statements)
    assert str(excinfo.value) == "line 2: predicate 'kin:Foo\\u2028' not registered"

    # a line that is not a JSON object with string s, p and o is rejected at its line
    for bad in ('{"s": "person:Bob", "o": "person:Alice"}', '{"s": "person:Bob", "p": 1, "o": "person:Alice"}',
                '["person:Bob", "kin:ParentOf", "person:Alice"]', '{"s": "person:Bob"', f"{good}\r{good}"):
        path.write_text(f"{good}\n\n{bad}\n", encoding="utf-8")
        with pytest.raises(MalformedTokenError) as excinfo:
            load_jsonl(path)
        assert (excinfo.value.line, excinfo.value.column) == (3, None), bad
        assert str(excinfo.value).startswith("line 3: "), bad


def test_a_record_nested_too_deep_is_rejected_at_its_line(tmp_path):
    good = json.dumps({"s": "person:Bob", "p": "kin:ParentOf", "o": "person:Alice"})
    path = tmp_path / "edges.jsonl"
    path.write_text(f'{good}\n{{"s": {"[" * 200_000}\n{good}\n', encoding="utf-8")
    with pytest.raises(MalformedTokenError) as excinfo:
        load_jsonl(path)
    assert str(excinfo.value) == "line 2: expected a JSON object with string 's', 'p' and 'o'"


@pytest.mark.parametrize("space", ["\f", "\v", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"],
                         ids=["FF", "VT", "FS", "NEL", "NBSP", "LS", "ideographic space"])
def test_only_json_whitespace_makes_a_line_blank(tmp_path, space):
    good = json.dumps({"s": "person:Bob", "p": "kin:ParentOf", "o": "person:Alice"})
    path = tmp_path / "edges.jsonl"
    path.write_bytes(f"{good}\n{space}\n{good}\n".encode("utf-8"))
    with pytest.raises(MalformedTokenError) as excinfo:
        load_jsonl(path)
    assert (excinfo.value.line, excinfo.value.column) == (2, None)
    path.write_bytes(f"{good}\n\n \t\r \n\r\n{good}\n\t".encode("utf-8"))
    assert [statement.line for statement in load_jsonl(path)] == [1, 5]


def test_export_is_read_as_every_source_file_is(tmp_path):
    good = json.dumps({"s": "person:Bob", "p": "kin:ParentOf", "o": "person:Alice"})
    path = tmp_path / "edges.jsonl"
    path.write_bytes(f"{good}\n".encode("utf-8") + b'{"s": "person:B\xffob", "p": "kin:ParentOf", "o": "person:Alice"}\n')
    with pytest.raises(SourceEncodingError) as excinfo:
        load_jsonl(path)
    assert str(excinfo.value) == "line 2, column 16: byte 0xff is not UTF-8 (invalid start byte)"
    path.write_bytes(b"\xef\xbb\xbf" + f"{good}\n{good}\n".encode("utf-8"))  # an export behind a byte-order mark
    assert load_jsonl(path) == [Statement("person:Bob", "kin:ParentOf", "person:Alice", k) for k in (1, 2)]


def test_a_cr_inside_a_record_does_not_move_the_line_of_a_bad_byte(tmp_path):
    path = tmp_path / "edges.jsonl"
    # a CR is JSON whitespace inside record 1; only LF ends a record, so the bad byte is on line 2
    path.write_bytes(b'{"s": "person:Bob",\r"p": "kin:ParentOf", "o": "person:Alice"}\n'
                     b'{"s": "person:Bob", "p": "kin:Paren\xfftOf", "o": "person:Alice"}\n')
    with pytest.raises(SourceEncodingError) as excinfo:
        load_jsonl(path)
    assert str(excinfo.value) == "line 2, column 36: byte 0xff is not UTF-8 (invalid start byte)"


def test_ingest_every_statement_yields_one_edge():
    voc = vocabulary_from_symbols([f"n:X{i}" for i in range(20)])
    registry = ConverseRegistry()
    registry.register_converse("r:F", "r:B", 0.5)
    statements = tuple(
        Statement(f"n:X{i}", "r:F", f"n:X{(i + 1) % 20}", i + 1) for i in range(20)
    )
    result = ingest_document(voc, registry, statements)
    assert result.graph.edge_count == 20
    assert result.graph.half_edge_count == 40
    assert result.graph.validate().is_valid


def test_ingest_computes_no_digest(tmp_path, monkeypatch):
    d, nodes = 20_000, 2_000
    rng = np.random.default_rng(83)
    vocab, registry, triples = (tmp_path / n for n in ("voc.txt", "reg.txt", "triples.nt"))
    vocab.write_text("".join(f"n:X{i}\n" for i in range(d)), encoding="utf-8")
    registry.write_text("r:F <-> r:B = 0.5\n", encoding="utf-8")
    triples.write_text(
        "".join(f"n:X{i} r:F n:X{rng.integers(nodes)} .\n" for i in range(nodes)),
        encoding="utf-8",
    )

    def no_digest(*args, **kwargs):
        raise AssertionError("ingest computed a sha256 digest")

    monkeypatch.setattr(hashlib, "sha256", no_digest)
    graph = ingest(vocab, registry, triples).graph
    assert (graph.node_count, graph.edge_count) == (nodes, nodes)
    assert graph.validate().is_valid


# --- queries -----------------------------------------------------------------------

def test_query_bob_lists_both_corollas(kinship_paths):
    graph = ingest(*kinship_paths).graph
    report = query_node(graph, "person:Bob")
    assert {(v.predicate, v.partner) for v in report.corollas} == {
        ("kin:ParentOf", "person:Alice"),
        ("kin:HusbandOf", "person:Mary"),
    }
    assert ("person:Bob", "kin:ParentOf", "person:Alice") in report.readings
    assert ("person:Alice", "kin:ChildOf", "person:Bob") in report.readings


def test_query_alice_shows_converse_side(kinship_paths):
    graph = ingest(*kinship_paths).graph
    report = query_node(graph, "person:Alice")
    assert [(v.predicate, v.direction) for v in report.corollas] == [
        ("kin:ChildOf", "backward")
    ]
    assert report.corollas[0].partner == "person:Bob"


def test_query_unknown_node(kinship_paths):
    graph = ingest(*kinship_paths).graph
    from qcorolla.errors import UnknownNodeError

    with pytest.raises(UnknownNodeError):
        query_node(graph, "person:Zed")


def test_query_self_loop_lists_both_half_edges_once():
    voc = vocabulary_from_symbols(["a:X", "a:Y"])
    registry = ConverseRegistry().register_converse("r:F", "r:B", 0.5)
    graph = ingest_document(voc, registry, parse_triples_text("a:X r:F a:X .\n")).graph
    report = query_node(graph, "a:X")
    assert [(v.predicate, v.partner, v.triple_id) for v in report.corollas] == [
        ("r:F", "a:X", "t1"),
        ("r:B", "a:X", "t1"),
    ]
    assert report.readings == (("a:X", "r:F", "a:X"), ("a:X", "r:B", "a:X"))


def test_query_self_loop_made_backward_first_reads_triple_at_lower_id():
    voc = vocabulary_from_symbols(["a:X", "a:Y"])
    registry = ConverseRegistry().register_converse("r:F", "r:B", 0.5)
    graph = ingest_document(voc, registry, parse_triples_text("a:Y r:F a:X .\n")).graph
    backward = graph.make_corolla("a:X", "r:B")
    graph.join(graph.make_corolla("a:X", "r:F"), backward)
    report = query_node(graph, "a:X")
    assert [(v.predicate, v.triple_id) for v in report.corollas] == [("r:B", "t1"), ("r:B", "t2"), ("r:F", "t2")]
    assert report.readings == (
        ("a:Y", "r:F", "a:X"), ("a:X", "r:B", "a:Y"), ("a:X", "r:F", "a:X"), ("a:X", "r:B", "a:X"),
    )
    assert_query_matches_scan(graph)


def test_corolla_view_is_an_immutable_value():
    view = CorollaView("r:F", "forward", 0.25, "a:Y", "t1")
    assert view == CorollaView(predicate="r:F", direction="forward", half_weight=0.25,
                               partner="a:Y", triple_id="t1")
    assert view == ("r:F", "forward", 0.25, "a:Y", "t1")
    assert view._fields == ("predicate", "direction", "half_weight", "partner", "triple_id")
    with pytest.raises(AttributeError):
        view.partner = "a:Z"


def scan_and_sort_query_node(graph, symbol):
    """Oracle: the query as a scan of every half-edge, sorted by id, with each
    partner found by a scan of every edge record, each triple id looked up by
    its (s, p, o) key and the readings deduplicated."""
    partners = {}  # half-edge id -> the other end of its edge
    for _, forward_id, backward_id in graph._triples:
        partners[forward_id] = graph._half_edges[backward_id - 1]
        partners[backward_id] = graph._half_edges[forward_id - 1]
    views = []
    readings = []
    owned = [c for c in graph._half_edges if c.node == symbol]
    for corolla in sorted(owned, key=lambda c: c.half_edge_id):
        partner = partners.get(corolla.half_edge_id)
        triple_id = None
        if partner is not None:
            forward = corolla if corolla.predicate.direction == "forward" else partner
            triple_id = graph.triple_id_of(
                (forward.node, forward.predicate.name, partners[forward.half_edge_id].node)
            )
        views.append(
            CorollaView(
                predicate=corolla.predicate.name,
                direction=corolla.predicate.direction,
                half_weight=corolla.predicate.half_weight,
                partner=None if partner is None else partner.node,
                triple_id=triple_id,
            )
        )
        if triple_id is not None:
            readings.append(graph.triple(triple_id))
            readings.append(graph.converse_of(triple_id))
    unique_readings = tuple(dict.fromkeys(readings))
    return NodeReport(symbol=symbol, corollas=tuple(views), readings=unique_readings)


def assert_query_matches_scan(graph):
    """Whole reports compared, views and readings, not only the lines they print, which
    leave out ``direction`` and print ``half_weight`` rounded."""
    for node in graph.nodes():
        report = query_node(graph, node)
        assert report == scan_and_sort_query_node(graph, node)
        assert all(type(view) is CorollaView for view in report.corollas)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**31))
def test_query_node_matches_scan_random_graphs(n_triples, seed):
    graph = build_random_graph(n_triples, seed)
    graph.make_corolla("ns:N000", "rel:B00")  # one unpaired half-edge
    assert_query_matches_scan(graph)


def test_query_node_matches_scan_large_graph(large_random_graph):
    assert_query_matches_scan(large_random_graph)


# --- export ---------------------------------------------------------------------------

def test_export_kinship_corpus(kinship_paths, tmp_path):
    graph = ingest(*kinship_paths).graph
    out = tmp_path / "edges.jsonl"
    assert export_jsonl(graph, out) == 2
    records = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(records) == 2
    for record in records:
        assert set(record) == {"s", "p", "o", "converse_p", "total_weight", "target_entropy"}
    assert records[0]["s"] <= records[1]["s"]
    husband = next(r for r in records if r["p"] == "kin:HusbandOf")
    assert husband["converse_p"] == "kin:WifeOf"
    assert husband["total_weight"] == 1.0
    assert husband["target_entropy"] == 1.0


def test_export_empty_graph(tmp_path):
    voc = vocabulary_from_symbols(["n:X"])
    graph = ingest_document(voc, ConverseRegistry(), ()).graph
    out = tmp_path / "edges.jsonl"
    assert export_jsonl(graph, out) == 0
    assert out.read_text() == ""


def test_export_reingest_roundtrip_byte_identical(kinship_paths, tmp_path):
    vocab, registry, _ = kinship_paths
    graph = ingest(*kinship_paths).graph
    first = tmp_path / "first.jsonl"
    export_jsonl(graph, first)

    statements = load_jsonl(first)
    from qcorolla.qusym import load_vocabulary
    from qcorolla.corolla import load_registry

    result = ingest_document(load_vocabulary(vocab), load_registry(registry), statements)
    second = tmp_path / "second.jsonl"
    export_jsonl(result.graph, second)
    assert first.read_bytes() == second.read_bytes()


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=80), st.integers(min_value=0, max_value=2**31))
def test_export_reingest_export_is_a_fixed_point(tmp_path_factory, n_triples, seed):
    graph = build_random_graph(n_triples, seed)
    first = tmp_path_factory.mktemp("export") / "first.jsonl"
    assert export_jsonl(graph, first) == n_triples
    result = ingest_document(graph.node_vocabulary, graph.registry, load_jsonl(first))
    assert (result.duplicates, result.folded) == (0, 0)
    second = first.with_name("second.jsonl")
    export_jsonl(result.graph, second)
    assert first.read_bytes() == second.read_bytes()


# --- snapshots ---------------------------------------------------------------------------

def test_snapshot_save_load_save_byte_identical(kinship_paths, tmp_path):
    graph = ingest(*kinship_paths).graph
    first = tmp_path / "store1"
    save_snapshot(graph, first)
    reloaded = load_snapshot(first)
    second = tmp_path / "store2"
    save_snapshot(reloaded, second)
    for name in ("vocabulary.txt", "registry.txt", "triples.nt", "snapshot.json"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_snapshot_determinism_across_ingests(kinship_paths, tmp_path):
    export_a = tmp_path / "a.jsonl"
    export_b = tmp_path / "b.jsonl"
    export_jsonl(ingest(*kinship_paths).graph, export_a)
    export_jsonl(ingest(*kinship_paths).graph, export_b)
    assert export_a.read_bytes() == export_b.read_bytes()


def test_snapshot_rejects_missing_file(kinship_paths, tmp_path):
    graph = ingest(*kinship_paths).graph
    store_dir = tmp_path / "store"
    save_snapshot(graph, store_dir)
    (store_dir / "registry.txt").unlink()
    with pytest.raises(FileNotFoundError):
        load_snapshot(store_dir)


def test_snapshot_rejects_unknown_version(kinship_paths, tmp_path):
    graph = ingest(*kinship_paths).graph
    store_dir = tmp_path / "store"
    save_snapshot(graph, store_dir)
    (store_dir / "snapshot.json").write_text('{"format_version": 99}\n', encoding="utf-8")
    with pytest.raises(ValueError):
        load_snapshot(store_dir)
