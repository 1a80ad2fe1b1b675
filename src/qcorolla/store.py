"""Triple-store plumbing: file formats, ingestion, queries, export, snapshots.

Source files use an N-Triples-like line grammar::

    subject WS predicate WS object WS? '.'

where WS is one or more spaces or tabs (no other Unicode space separates
tokens) and every token is a namespaced symbol ``ns:Value`` matching
``[A-Za-z][A-Za-z0-9_]*:[A-Za-z0-9_]+``.
``#`` lines are comments, and a leading UTF-8 byte-order mark is skipped.
Only LF, CR LF and CR end a line (``qusym.source_lines``).
Only forward predicate names are legal in the predicate position; a statement
whose predicate is a backward name is accepted only as the converse
reading of an edge already in the graph, and is folded into that edge
rather than creating a new one. Ingest is one pass: each statement is joined
as it is parsed, and a file is rejected at its first fault in line order.

Snapshots are a directory of human-readable canonical files (vocabulary,
registry, triples) and ``snapshot.json``, which holds the format version,
d, the edge count and each file's CRC-32; loading and re-saving one is
byte-identical. Triple ``tK`` is line K of the triples file.
"""

from __future__ import annotations

import json
import os
import re
import zlib
from json.encoder import encode_basestring_ascii as quote  # how json.dumps quotes a str
from pathlib import Path
from typing import Container, Dict, Iterable, Iterator, List, NamedTuple, Tuple

from .corolla import (  # the query API (query_node and its views) lives beside the id lists it reads
    ConverseRegistry,
    CorollaGraph,
    CorollaView,
    NodeReport,
    _CollectorPaused,
    load_registry,
    parse_registry,
    query_node,
    triple_number,
)
from .errors import (
    AlreadyPairedError,
    BackwardPredicateInSubjectPositionError,
    MalformedTokenError,
    MissingTerminatorError,
    QcorollaError,
    SnapshotError,
    UnknownNodeSymbolError,
    UnknownPredicateError,
)
from .qusym import (
    SEPARATORS,
    TOKEN_PATTERN,
    Vocabulary,
    checked_vocabulary,
    load_vocabulary,
    read_source,
    source_lines,
)

SNAPSHOT_FORMAT_VERSION = 2


class Statement:
    """One parsed (subject, predicate, object) line with its source position.

    ``columns`` holds the columns of the subject, predicate and object in a
    triples line; a statement read from another source (``load_jsonl``) has
    none, and its faults name only the line. Two statements are equal when
    all but their columns are. Like ``Corolla``, one is built per line, so
    its fields are plain slots.
    """

    __slots__ = ("subject", "predicate", "object", "line", "columns")

    def __init__(self, subject: str, predicate: str, object: str, line: int = 0,
                 columns: Tuple[int, int, int] | None = None):
        self.subject = subject
        self.predicate = predicate
        self.object = object
        self.line = line
        self.columns = columns

    def __eq__(self, other):
        if type(other) is not Statement:
            return NotImplemented
        return (self.subject, self.predicate, self.object, self.line) == \
            (other.subject, other.predicate, other.object, other.line)

    @property
    def triple(self) -> Tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)

    def serialize(self) -> str:
        return f"{self.subject} {self.predicate} {self.object} ."


def parse_triple_line(line: str, lineno: int = 1) -> Statement | None:
    """Parse one source line; returns None for blank and comment lines.

    Only spaces and tabs separate tokens. Raises ``MalformedTokenError`` or
    ``MissingTerminatorError`` with the line and column of the fault.
    """
    body = line.rstrip(SEPARATORS + "\r\n")  # a line passed in with its line end
    stripped = body.lstrip(SEPARATORS)
    if not stripped or stripped.startswith("#"):
        return None
    if not body.endswith("."):
        dot = body.rfind(".")
        if dot < 0:
            raise MissingTerminatorError("statement must end with '.'", lineno, len(body) + 1)
        after = body[dot + 1 :]
        at = dot + 1 + len(after) - len(after.lstrip(SEPARATORS))
        raise MissingTerminatorError(
            f"statement must end with '.', but {body[at]!r} (U+{ord(body[at]):04X}) follows it",
            lineno,
            at + 1,
        )
    body = body[:-1]
    tokens: List[Tuple[str, int]] = []
    column = 1
    # a tab is one column wide, so swapping it for a space keeps every column
    for part in body.replace("\t", " ").split(" "):
        if part:
            tokens.append((part, column))
        column += len(part) + 1
    if len(tokens) != 3:
        at = tokens[3][1] if len(tokens) > 3 else column
        raise MalformedTokenError(
            f"expected 'subject predicate object .', got {len(tokens)} tokens", lineno, at
        )
    for token, col in tokens:
        if not TOKEN_PATTERN.fullmatch(token):
            raise MalformedTokenError(
                f"token {token!r} is not a namespaced symbol", lineno, col
            )
    (s, s_column), (p, p_column), (o, o_column) = tokens
    return Statement(s, p, o, lineno, (s_column, p_column, o_column))


# a well-formed triples line; re.compile caches it at its first use, so importing store costs no compile
_TRIPLE_LINE = r"[ \t]*({0})[ \t]+({0})[ \t]+({0})[ \t]*\.[ \t]*".format(TOKEN_PATTERN.pattern)


def parse_triples_text(text: str) -> Iterator[Statement]:
    """The statements of a triples text in line order, each parsed, and any fault raised, as it is drawn.

    A line that ``_TRIPLE_LINE`` matches is read from the match; any other goes
    through ``parse_triple_line``, which names its fault, so both yield the
    same statement with the same columns.
    """
    fullmatch = re.compile(_TRIPLE_LINE).fullmatch
    for lineno, line in source_lines(text):
        match = fullmatch(line)
        if match is None:
            yield parse_triple_line(line, lineno)
        else:
            yield Statement(*match.groups(), lineno, (match.start(1) + 1, match.start(2) + 1, match.start(3) + 1))


def load_triples(path: str | Path) -> Iterator[Statement]:
    """``parse_triples_text`` of a file read at the call, so a missing file or a non-UTF-8 byte raises here."""
    return parse_triples_text(read_source(path))


class IngestResult(NamedTuple):
    """Graph built from one ingestion plus its dedup/fold accounting."""

    graph: CorollaGraph
    statements: int
    duplicates: int
    folded: int


def _column(statement: Statement, index: int) -> int | None:
    return statement.columns[index] if statement.columns else None


def ingest_document(
    vocabulary: Vocabulary, registry: ConverseRegistry, statements: Iterable[Statement]
) -> IngestResult:
    """Add an edge per statement (``CorollaGraph.add_edge``), folding converse restatements.

    ``statements`` is consumed once and counted as it goes; those from
    ``parse_triples_text`` are parsed as they are added, so the first fault
    in line order is raised. Exact duplicate statements are skipped with a
    warning count. A statement whose predicate is a backward name must match
    an existing edge's converse reading; otherwise it is rejected. Every rejection
    carries the statement's line and, for a statement read from triples
    text, the column of the offending token: an unregistered predicate, a
    backward one with no edge to fold onto, then an unknown subject or object
    symbol. ``add_edge`` runs every check of ``make_corolla`` and ``join``
    but once per edge, so the graph returned is valid by construction
    (``CorollaGraph.validate``) and equals what joining each statement's
    corollas builds.
    """
    graph = CorollaGraph(vocabulary, registry)
    add_edge, triple_id_of = graph.add_edge, graph.triple_id_of
    forward_of = {backward: forward for forward, backward, _ in registry.pairs()}  # backward name -> forward
    count = duplicates = folded = 0
    with _CollectorPaused():
        for count, statement in enumerate(statements, 1):
            s, p, o = statement.subject, statement.predicate, statement.object
            forward = forward_of.get(p)
            if forward is not None:
                if triple_id_of((o, forward, s)) is not None:
                    folded += 1
                    continue
                raise BackwardPredicateInSubjectPositionError(
                    f"{p!r} is a backward predicate and no edge {(o, forward, s)} exists to fold onto",
                    statement.line,
                    _column(statement, 1),
                )
            try:
                add_edge(s, p, o)
            except AlreadyPairedError:  # an exact duplicate: its key is the one check add_edge can fail here
                duplicates += 1
            except UnknownPredicateError as exc:
                raise UnknownPredicateError(str(exc), statement.line, _column(statement, 1)) from None
            except UnknownNodeSymbolError as exc:
                at = _column(statement, 0 if s not in vocabulary else 2)
                raise UnknownNodeSymbolError(str(exc), statement.line, at) from None
    return IngestResult(graph=graph, statements=count, duplicates=duplicates, folded=folded)


def ingest(
    voc_path: str | Path, registry_path: str | Path, triples_path: str | Path
) -> IngestResult:
    """Parse the three source files and assemble the corolla graph."""
    vocabulary = load_vocabulary(voc_path)
    registry = load_registry(registry_path)
    return ingest_document(vocabulary, registry, load_triples(triples_path))


# -- export -------------------------------------------------------------------


def export_jsonl(graph: CorollaGraph, path: str | Path) -> int:
    """Write one JSON object per edge in lexicographic (s, p, o) order.

    Each line equals ``json.dumps(record, sort_keys=True)`` of the record
    ``{s, p, o, converse_p, total_weight, target_entropy}``; it is streamed
    from a per-predicate cache of its fixed parts, with no record built.
    Returns the statement count. Re-ingesting the export reproduces an
    isomorphic graph.
    """
    parts: Dict[str, Tuple[str, str, str]] = {}  # predicate -> text before o, between o and s, after s
    statements = sorted(graph._triple_keys)  # every stored (s, p, o), read from the key index

    def lines():
        for s, p, o in statements:
            fixed = parts.get(p)
            if fixed is None:
                weight = json.dumps(graph.registry.total_weight(p))
                fixed = parts[p] = (
                    f'{{"converse_p": {quote(graph.registry.converse_name(p))}, "o": ',
                    f', "p": {quote(p)}, "s": ',
                    f', "target_entropy": {weight}, "total_weight": {weight}}}\n',
                )
            yield f"{fixed[0]}{quote(o)}{fixed[1]}{quote(s)}{fixed[2]}"

    with open(path, "w", encoding="utf-8") as out:
        out.writelines(lines())
    return len(statements)


def load_jsonl(path: str | Path) -> List[Statement]:
    """Read an export back into its forward statements, through ``read_source`` as a source file
    is, but only LF ends a record (a CR before it is JSON whitespace); a line that is not a JSON
    object with string ``s``, ``p`` and ``o`` raises ``MalformedTokenError`` at its line."""
    statements = []
    text = read_source(path, lambda text: text.split("\n"))  # a byte that is not UTF-8 is located by record
    for lineno, raw in enumerate(text.split("\n"), start=1):
        if not raw.strip():
            continue
        try:
            record = json.loads(raw)
        except ValueError:
            record = None
        if not (isinstance(record, dict) and all(isinstance(record.get(key), str) for key in "spo")):
            raise MalformedTokenError("expected a JSON object with string 's', 'p' and 'o'", lineno)
        statements.append(Statement(record["s"], record["p"], record["o"], lineno))
    return statements


# -- snapshots ------------------------------------------------------------------

# the three files that snapshot.json checks, in the order they are written and read
_CHECKED_FILES = ("vocabulary.txt", "registry.txt", "triples.nt")
_SNAPSHOT_FILES = _CHECKED_FILES + ("snapshot.json",)
_REINGEST = "re-run 'qcorolla ingest'"


class Snapshot(NamedTuple):
    """The checked contents of a snapshot directory."""

    d: int
    edges: int
    vocabulary: str
    registry: str
    triples: str


class SnapshotTriple(NamedTuple):
    """A triple as read from one line of a snapshot, with what its joint state needs."""

    statement: Tuple[str, str, str]
    weight: float
    subject_index: int
    object_index: int
    d: int


def save_snapshot(graph: CorollaGraph, directory: str | Path) -> None:
    """Write the canonical on-disk form of a graph to a directory.

    Files: vocabulary (basis order), registry (sorted by forward name),
    triples (sorted lexicographically, so line K is triple ``tK`` once
    loaded), then ``snapshot.json`` with the format version, d, the edge
    count and the CRC-32 of each other file. Every file's bytes are built,
    then written to a ``.tmp`` sibling, and only then renamed over the old
    files, ``snapshot.json`` last. A save that fails before its renames
    leaves the old snapshot whole (a ``.tmp`` file it wrote stays until the
    next save); one cut short during them leaves files that fail their
    check. Saving the result of ``load_snapshot`` is byte-identical. A name
    ``load_snapshot`` would refuse, not a namespaced token, raises
    ``MalformedTokenError`` before any file is written; a vocabulary entry
    is named by ``checked_vocabulary``, as on load.
    """
    checked_vocabulary(graph.node_vocabulary)
    registry = graph.registry.serialize()
    parse_registry(registry)
    data = [  # in _SNAPSHOT_FILES order, each text dropped once encoded
        graph.node_vocabulary.serialize().encode("utf-8"),
        registry.encode("utf-8"),
        "".join(f"{s} {p} {o} .\n" for s, p, o in sorted(graph._triple_keys)).encode("utf-8"),
    ]
    meta = {
        "crc32": {name: zlib.crc32(content) for name, content in zip(_CHECKED_FILES, data)},
        "d": graph.node_vocabulary.d,
        "edges": graph.edge_count,
        "format_version": SNAPSHOT_FORMAT_VERSION,
    }
    data.append(f"{json.dumps(meta, sort_keys=True)}\n".encode("utf-8"))
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    for name, content in zip(_SNAPSHOT_FILES, data):
        (root / f"{name}.tmp").write_bytes(content)
    for name in _SNAPSHOT_FILES:
        os.replace(root / f"{name}.tmp", root / name)


def _line_count(text: str) -> int:
    """Lines of a text whose every line ends with LF, or None if the last does not."""
    return text.count("\n") if text.endswith("\n") or not text else None


def open_snapshot(directory: str | Path) -> Snapshot:
    """Read a snapshot directory's files once and check them.

    ``snapshot.json`` must hold this format version, and each other file
    its recorded CRC-32 and line count; any other version, a missing file,
    or a torn or partial save raises.
    """
    root = Path(directory)
    for name in _SNAPSHOT_FILES:
        if not (root / name).exists():
            raise FileNotFoundError(f"snapshot file missing: {root / name}")
    try:
        meta = json.loads((root / "snapshot.json").read_bytes())
    except ValueError:
        meta = None
    version = meta.get("format_version") if isinstance(meta, dict) else None
    if version != SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"unsupported snapshot format version {version!r} (this qcorolla reads "
            f"{SNAPSHOT_FORMAT_VERSION}); {_REINGEST}"
        )
    crc32, d, edges = meta.get("crc32"), meta.get("d"), meta.get("edges")
    if not (isinstance(crc32, dict) and type(d) is int and type(edges) is int):
        raise SnapshotError(f"{root / 'snapshot.json'} lacks crc32, d or edges; {_REINGEST}")
    texts = []
    for name in _CHECKED_FILES:
        data = (root / name).read_bytes()
        if zlib.crc32(data) != crc32.get(name):
            raise SnapshotError(f"{root / name} fails its CRC-32 check (torn or partial save); {_REINGEST}")
        texts.append(data.decode("utf-8"))
        del data  # hold at most one file's bytes
    vocabulary, registry, triples = texts
    if _line_count(vocabulary) != d or _line_count(triples) != edges:
        raise SnapshotError(f"{root} does not hold d = {d} symbols and {edges} edges; {_REINGEST}")
    return Snapshot(d, edges, vocabulary, registry, triples)


def load_snapshot(directory: str | Path) -> CorollaGraph:
    """Rebuild a graph from a snapshot directory, equal to re-ingesting its triples:
    each checked line ``s p o .`` (line K is ``tK``) adds its edge through
    ``CorollaGraph.add_edge``, which checks its names and keeps the vocabulary's and
    registry's own strings. A bad or repeated line, or vocabulary entry (``checked_vocabulary``),
    raises at its line, so the graph returned is valid by construction (``CorollaGraph.validate``)."""
    _, _, vocabulary, registry, triples = open_snapshot(directory)
    entries = vocabulary.split("\n")
    entries.pop()  # the empty string after the last LF
    graph = CorollaGraph(checked_vocabulary(entries), parse_registry(registry))
    add_edge = graph.add_edge
    lines = triples.split("\n")
    del triples  # hold the text or its lines, not both
    lines.pop()
    with _CollectorPaused():
        for line in lines:
            try:
                s, p, o, dot = line.split(" ")
                if dot != ".":
                    raise ValueError(dot)
                add_edge(s, p, o)  # checks the predicate, its direction, s, then o: _line_fault's order
            except AlreadyPairedError as exc:
                raise AlreadyPairedError(str(exc), graph.edge_count + 1, 1) from None
            except (LookupError, ValueError):
                raise _line_fault(line, graph.edge_count + 1, graph.registry, graph.node_vocabulary) from None
    return graph


def _line_fault(line: str, lineno: int, registry: ConverseRegistry, symbols: Container[str]) -> QcorollaError:
    """The first fault of a snapshot triples line that fails a check: not ``s p o .`` with single
    spaces, a predicate that is not a registered forward name, or a symbol not in ``symbols``."""
    tokens = line.split(" ")
    if len(tokens) != 4 or tokens[3] != ".":
        return MalformedTokenError(f"expected canonical 's p o .', got {line!r}", lineno, 1)
    s, p, o, _ = tokens
    p_column, o_column = len(s) + 2, len(s) + len(p) + 3
    if p not in registry:
        return UnknownPredicateError(f"predicate {p!r} not registered", lineno, p_column)
    if registry.is_backward(p):
        return MalformedTokenError(f"{p!r} is a backward predicate", lineno, p_column)
    symbol, at = (s, 1) if s not in symbols else (o, o_column)
    return UnknownNodeSymbolError(f"node symbol {symbol!r} not in vocabulary", lineno, at)


def read_triple(directory: str | Path, triple_id: str) -> SnapshotTriple:
    """Triple ``tK`` of a snapshot from line K of its triples file, with its
    weight and basis indices, building no graph and no vocabulary. Only line K
    and the two vocabulary entries it names are checked, as ``load_snapshot``
    checks them and with the same diagnosis: the entries first, in line order."""
    snapshot = open_snapshot(directory)
    k = triple_number(triple_id, snapshot.edges)
    line = snapshot.triples.split("\n", k)[k - 1]
    registry = parse_registry(snapshot.registry)
    lines = "\n" + snapshot.vocabulary  # each entry, the first too, is "\n" + entry + "\n" in it
    try:
        s, p, o, dot = line.split(" ")
        subject_index, object_index = _line_index(lines, s), _line_index(lines, o)
    except ValueError:
        dot = None  # not four tokens, or a symbol on no vocabulary line
    else:
        for index, entry in sorted(((subject_index, s), (object_index, o))):
            if not TOKEN_PATTERN.fullmatch(entry):
                raise MalformedTokenError(f"vocabulary entry {entry!r} is not a namespaced symbol", index + 1, 1)
    if dot != "." or p not in registry or registry.is_backward(p):
        # only now are the entries split, to name the fault
        raise _line_fault(line, k, registry, snapshot.vocabulary.split("\n")[:-1])
    return SnapshotTriple((s, p, o), registry.total_weight(p), subject_index, object_index, snapshot.d)


def _line_index(lines: str, symbol: str) -> int:
    """0-based index of line ``symbol`` among the LF-ended lines after the first LF; ValueError if none."""
    at = lines.find(f"\n{symbol}\n")
    if at < 0:
        raise ValueError(symbol)
    return lines.count("\n", 0, at)
