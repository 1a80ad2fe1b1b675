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
rather than creating a new one.

Snapshots are a directory of human-readable canonical files (vocabulary,
registry, triples, version tag); loading and re-saving one is
byte-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

from .corolla import (
    ConverseRegistry,
    CorollaGraph,
    converse_statement,
    load_registry,
    save_registry,
)
from .errors import (
    BackwardPredicateInSubjectPositionError,
    MalformedTokenError,
    MissingTerminatorError,
    UnknownNodeSymbolError,
    UnknownPredicateError,
)
from .qusym import (
    SEPARATORS,
    TOKEN_PATTERN,
    Vocabulary,
    load_vocabulary,
    read_source,
    save_vocabulary,
    source_lines,
)

SNAPSHOT_FORMAT_VERSION = 1


@dataclass(frozen=True, slots=True)
class Statement:
    """One parsed (subject, predicate, object) line with its source position.

    ``columns`` holds the columns of the subject, predicate and object in a
    triples line; a statement read from another source (``load_jsonl``) has
    none, and its faults name only the line.
    """

    subject: str
    predicate: str
    object: str
    line: int = 0
    columns: Tuple[int, int, int] | None = field(default=None, compare=False)

    @property
    def triple(self) -> Tuple[str, str, str]:
        return (self.subject, self.predicate, self.object)

    def serialize(self) -> str:
        return f"{self.subject} {self.predicate} {self.object} ."


@dataclass(frozen=True)
class TripleDocument:
    """Statements of one source text, in document order."""

    statements: Tuple[Statement, ...]

    def serialize(self) -> str:
        """Canonical text: one statement per line, single spaces, LF endings."""
        return "".join(f"{s.serialize()}\n" for s in self.statements)


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


def parse_triples_text(text: str) -> TripleDocument:
    return TripleDocument(tuple(parse_triple_line(line, lineno) for lineno, line in source_lines(text)))


def load_triples(path: str | Path) -> TripleDocument:
    return parse_triples_text(read_source(path))


@dataclass
class IngestResult:
    """Graph built from one ingestion plus its dedup/fold accounting."""

    graph: CorollaGraph
    statements: int
    duplicates: int
    folded: int


def _column(statement: Statement, index: int) -> int | None:
    return statement.columns[index] if statement.columns else None


def ingest_document(
    vocabulary: Vocabulary, registry: ConverseRegistry, document: TripleDocument
) -> IngestResult:
    """Join a corolla pair per statement, folding converse restatements.

    Exact duplicate statements are skipped with a warning count. A
    statement whose predicate is a backward name must match an existing
    edge's converse reading; otherwise it is rejected. Every rejection
    carries the statement's line and, for a statement read from triples
    text, the column of the offending token.
    """
    graph = CorollaGraph(vocabulary, registry)
    duplicates = 0
    folded = 0
    for statement in document.statements:
        s, p, o = statement.triple
        if p not in registry:
            raise UnknownPredicateError(
                f"predicate {p!r} not registered", statement.line, _column(statement, 1)
            )
        if registry.is_backward(p):
            forward_key = converse_statement(registry, (s, p, o))
            if graph.triple_id_of(forward_key) is not None:
                folded += 1
                continue
            raise BackwardPredicateInSubjectPositionError(
                f"{p!r} is a backward predicate and no edge {forward_key} exists to fold onto",
                statement.line,
                _column(statement, 1),
            )
        if graph.triple_id_of((s, p, o)) is not None:
            duplicates += 1
            continue
        try:
            left = graph.make_corolla(s, p)
            right = graph.make_corolla(o, registry.converse_name(p))
        except UnknownNodeSymbolError as exc:
            at = _column(statement, 0 if s not in vocabulary else 2)
            raise UnknownNodeSymbolError(str(exc), statement.line, at) from None
        graph.join(left, right)
    return IngestResult(
        graph=graph,
        statements=len(document.statements),
        duplicates=duplicates,
        folded=folded,
    )


def ingest(
    voc_path: str | Path, registry_path: str | Path, triples_path: str | Path
) -> IngestResult:
    """Parse the three source files and assemble the corolla graph."""
    vocabulary = load_vocabulary(voc_path)
    registry = load_registry(registry_path)
    document = load_triples(triples_path)
    return ingest_document(vocabulary, registry, document)


# -- queries -----------------------------------------------------------------


class CorollaView(NamedTuple):
    """One half-edge of a node, with its pairing if joined (an immutable named tuple)."""

    predicate: str
    direction: str
    half_weight: float
    partner: str | None
    triple_id: str | None


@dataclass(frozen=True)
class NodeReport:
    symbol: str
    corollas: Tuple[CorollaView, ...]
    readings: Tuple[Tuple[str, str, str], ...]  # forward and converse of each triple

    def lines(self) -> List[str]:
        out = [f"node {self.symbol}: {len(self.corollas)} corolla(s)"]
        for view in self.corollas:
            pairing = f" -> {view.partner} [{view.triple_id}]" if view.partner else " (unpaired)"
            out.append(
                f"  ({self.symbol}, {view.predicate}) half-weight {view.half_weight:+g}{pairing}"
            )
        for s, p, o in self.readings:
            out.append(f"  {s} {p} {o} .")
        return out


def query_node(graph: CorollaGraph, symbol: str) -> NodeReport:
    """Owned corollas in id order, their partners, and both orientations of each triple."""
    views = []
    readings = []  # forward then converse reading of each triple, at its first half-edge
    for corolla, triple_id, forward, backward in graph.walk_half_edges(symbol):
        predicate = corolla.predicate
        partner = None
        if triple_id is not None:
            other = backward if corolla is forward else forward
            partner = other.node
            # both half-edges of a self-loop are the node's: read its triple at the lower id
            if partner != symbol or corolla.half_edge_id < other.half_edge_id:
                s, o = forward.node, backward.node
                readings += ((s, forward.predicate.name, o), (o, backward.predicate.name, s))
        views.append(CorollaView(predicate.name, predicate.direction, predicate.half_weight, partner, triple_id))
    return NodeReport(symbol=symbol, corollas=tuple(views), readings=tuple(readings))


# -- export -------------------------------------------------------------------


def _edge_record(graph: CorollaGraph, triple_id: str) -> Dict:
    s, p, o = graph.triple(triple_id)
    weight = graph.registry.total_weight(p)
    return {
        "s": s,
        "p": p,
        "o": o,
        "converse_p": graph.registry.converse_name(p),
        "total_weight": weight,
        "target_entropy": weight,
    }


def export_jsonl(graph: CorollaGraph, path: str | Path) -> int:
    """Write one JSON object per edge in lexicographic (s, p, o) order.

    Returns the statement count. Re-ingesting the export reproduces an
    isomorphic graph.
    """
    records = sorted(
        (_edge_record(graph, tid) for tid in graph.triple_ids()),
        key=lambda r: (r["s"], r["p"], r["o"]),
    )
    text = "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    Path(path).write_text(text, encoding="utf-8")
    return len(records)


def load_jsonl(path: str | Path) -> TripleDocument:
    """Read an export back into a document of forward statements."""
    statements = []
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip():
            continue
        record = json.loads(raw)
        statements.append(Statement(record["s"], record["p"], record["o"], lineno))
    return TripleDocument(tuple(statements))


# -- snapshots ------------------------------------------------------------------

_SNAPSHOT_FILES = ("vocabulary.txt", "registry.txt", "triples.nt", "snapshot.json")


def save_snapshot(graph: CorollaGraph, directory: str | Path) -> None:
    """Write the canonical on-disk form of a graph to a directory.

    Files: vocabulary (basis order), registry (sorted by forward name),
    triples (sorted lexicographically), and a version tag. Saving the
    result of ``load_snapshot`` is byte-identical.
    """
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    save_vocabulary(graph.node_vocabulary, root / "vocabulary.txt")
    save_registry(graph.registry, root / "registry.txt")
    statements = sorted(graph.triples().values())
    document = TripleDocument(tuple(Statement(*t, line=i + 1) for i, t in enumerate(statements)))
    (root / "triples.nt").write_text(document.serialize(), encoding="utf-8")
    meta = {"format_version": SNAPSHOT_FORMAT_VERSION}
    (root / "snapshot.json").write_text(json.dumps(meta, sort_keys=True) + "\n", encoding="utf-8")


def load_snapshot(directory: str | Path) -> CorollaGraph:
    """Rebuild a graph from a snapshot directory."""
    root = Path(directory)
    for name in _SNAPSHOT_FILES:
        if not (root / name).exists():
            raise FileNotFoundError(f"snapshot file missing: {root / name}")
    meta = json.loads((root / "snapshot.json").read_text(encoding="utf-8"))
    version = meta.get("format_version")
    if version != SNAPSHOT_FORMAT_VERSION:
        raise ValueError(f"unsupported snapshot format version: {version!r}")
    result = ingest(root / "vocabulary.txt", root / "registry.txt", root / "triples.nt")
    return result.graph
