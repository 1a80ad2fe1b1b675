"""Semantic graph layer: nodes, signed directed predicates, and corollas.

A corolla is a node paired with one owned directed predicate: half of a
semantic triple. Converse predicate pairs (e.g. ParentOf/ChildOf) are
registered with a total entanglement weight p in [0, 1] bits; the forward
side carries +p/2 and the backward side -p/2, so the signed halves of every
edge cancel exactly while their moduli sum to p.

Joining two converse corollas extends a self-inverse, fixed-point-free
involution over half-edges; each involution pair is one edge, read as the
triple (subject, forward predicate, object) with the positive corolla as
subject.

Concurrency: mutating operations (``register_converse``, ``add_node``,
``make_corolla``, ``join``) require exclusive access; queries are safe
concurrently between mutations.
"""

from __future__ import annotations

import gc
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

from .errors import (
    AlreadyPairedError,
    AlreadyRegisteredError,
    MalformedTokenError,
    NotConverseError,
    QcorollaError,
    SelfConverseError,
    SelfJoinError,
    UnknownNodeError,
    UnknownNodeSymbolError,
    UnknownPredicateError,
    UnknownTripleError,
    WeightOutOfRangeError,
    WrongOrientationError,
)
from .qusym import SEPARATORS, TOKEN_PATTERN, Vocabulary, read_source, source_lines

FORWARD = "forward"
BACKWARD = "backward"

WEIGHT_TOL = 1e-12

Triple = Tuple[str, str, str]


@dataclass(frozen=True, slots=True)
class DirectedPredicate:
    """One direction of a converse pair with its signed half-weight (bits).

    Forward predicates carry +p/2, backward predicates -p/2; 0 is allowed
    only for the degenerate unentangled predicate.
    """

    name: str
    half_weight: float
    direction: str

    def __post_init__(self):
        if self.direction not in (FORWARD, BACKWARD):
            raise ValueError(f"direction must be forward|backward, got {self.direction!r}")
        if self.direction == FORWARD and self.half_weight < 0:
            raise ValueError("forward predicates need a non-negative half-weight")
        if self.direction == BACKWARD and self.half_weight > 0:
            raise ValueError("backward predicates need a non-positive half-weight")


@dataclass(frozen=True, slots=True)
class Corolla:
    """A node symbol plus one owned directed predicate: half of a triple."""

    node: str
    predicate: DirectedPredicate
    half_edge_id: int


@dataclass
class ValidationReport:
    """Outcome of a whole-graph consistency sweep.

    ``is_valid`` is true iff no unpaired half-edges, involution violations,
    or weight-conservation violations exist. Edges with total weight 0 are
    listed separately as semantically inert warnings; they do not affect
    validity.
    """

    unpaired: List[int] = field(default_factory=list)
    involution_violations: List[str] = field(default_factory=list)
    weight_violations: List[str] = field(default_factory=list)
    inert_edges: List[str] = field(default_factory=list)

    @property
    def is_valid(self) -> bool:
        return not (self.unpaired or self.involution_violations or self.weight_violations)

    def lines(self) -> List[str]:
        out = []
        for hid in self.unpaired:
            out.append(f"unpaired half-edge {hid}")
        out.extend(self.involution_violations)
        out.extend(self.weight_violations)
        for tid in self.inert_edges:
            out.append(f"warning: edge {tid} is semantically inert (weight 0)")
        return out


class ConverseRegistry:
    """Bijective pairing of forward/backward predicate names with one total
    entanglement weight per pair, in one map keyed by either name: name ->
    (its DirectedPredicate, its converse's, the pair's total weight)."""

    def __init__(self):
        self._pairs: Dict[str, Tuple[DirectedPredicate, DirectedPredicate, float]] = {}

    def register_converse(self, forward: str, backward: str, total_weight: float) -> "ConverseRegistry":
        """Bind a converse pair; forward gets +total/2, backward -total/2."""
        if forward == backward:
            raise SelfConverseError(f"{forward!r} cannot be its own converse")
        if not 0.0 <= total_weight <= 1.0:
            raise WeightOutOfRangeError(f"total weight must lie in [0, 1], got {total_weight!r}")
        for name in (forward, backward):
            if name in self._pairs:
                raise AlreadyRegisteredError(f"predicate {name!r} already registered")
        fwd = DirectedPredicate(forward, total_weight / 2.0, FORWARD)
        bwd = DirectedPredicate(backward, -total_weight / 2.0, BACKWARD)
        self._pairs[forward] = (fwd, bwd, total_weight)
        self._pairs[backward] = (bwd, fwd, total_weight)
        return self

    def _entry(self, name: str) -> Tuple[DirectedPredicate, DirectedPredicate, float]:
        try:
            return self._pairs[name]
        except KeyError:
            raise UnknownPredicateError(f"predicate {name!r} not registered") from None

    def directed(self, name: str) -> DirectedPredicate:
        """The signed directed predicate for either name of a pair, one object per name."""
        try:  # _entry inlined: ingest calls this once per corolla
            return self._pairs[name][0]
        except KeyError:
            raise UnknownPredicateError(f"predicate {name!r} not registered") from None

    def is_backward(self, name: str) -> bool:
        entry = self._pairs.get(name)
        return entry is not None and entry[0].direction == BACKWARD

    def __contains__(self, name: str) -> bool:
        return name in self._pairs

    def converse_name(self, name: str) -> str:
        return self._entry(name)[1].name

    def total_weight(self, name: str) -> float:
        return self._entry(name)[2]

    def pairs(self) -> Iterator[Tuple[str, str, float]]:
        """(forward, backward, total_weight) triples in registration order."""
        for own, converse, weight in self._pairs.values():
            if own.direction == FORWARD:
                yield own.name, converse.name, weight

    def __len__(self) -> int:
        return len(self._pairs) // 2

    def serialize(self) -> str:
        """Canonical text: ``forward <-> backward = p`` lines sorted by forward name, LF endings."""
        return "".join(sorted(f"{f} <-> {b} = {w!r}\n" for f, b, w in self.pairs()))


def converse_statement(registry: ConverseRegistry, triple: Triple) -> Triple:
    """The converse reading (o, converse predicate, s); an involution."""
    s, p, o = triple
    return (o, registry.converse_name(p), s)


class CorollaGraph:
    """Half-edge graph over a node vocabulary and a converse registry.

    One index per fact: ``_owned`` (node symbol -> its half-edge ids,
    ascending), ``_half_edges`` (id -> Corolla), ``_edge_of``
    (paired half-edge id -> triple id), ``_triples`` (triple id -> forward
    and backward half-edge ids), ``_triple_keys`` ((s, p, o) -> triple id).
    Ids are consecutive and never freed, so the next one is the map's size
    + 1. The involution is derived from ``_edge_of`` and ``_triples``.
    Mutations cost O(1); ``half_edges_of``, ``corollas_of`` and
    ``walk_half_edges`` O(degree).

    Single-writer / multi-reader: mutations need exclusive access.
    """

    def __init__(self, node_vocabulary: Vocabulary, registry: ConverseRegistry):
        self.node_vocabulary = node_vocabulary
        self.registry = registry
        self._owned: Dict[str, List[int]] = {}
        self._half_edges: Dict[int, Corolla] = {}
        self._edge_of: Dict[int, str] = {}
        self._triples: Dict[str, Tuple[int, int]] = {}
        self._triple_keys: Dict[Triple, str] = {}

    @classmethod
    def from_canonical_lines(
        cls, node_vocabulary: Vocabulary, registry: ConverseRegistry, lines: List[str]
    ) -> "CorollaGraph":
        """The graph that ingesting canonical triples lines builds, index for index.

        Each line is ``s p o .`` with single spaces and a forward predicate,
        no line repeats, and line K becomes triple ``tK`` with half-edges
        2K - 1 (subject) and 2K (object), as ``join`` numbers them. The five
        indexes are filled directly: each token costs one dict lookup, with
        no token regex and no per-join converse or duplicate check. A symbol
        or predicate that is not known raises with its line and column, and
        a repeated line raises ``AlreadyPairedError``. The garbage collector
        is paused while the indexes grow.
        """
        graph = cls(node_vocabulary, registry)
        # each node keeps the vocabulary's own string and each key the registry's name
        symbols = dict(zip(node_vocabulary.entries, node_vocabulary.entries))
        forward = {f: (registry.directed(f), registry.directed(b)) for f, b, _ in registry.pairs()}
        owned, half_edges, edge_of = graph._owned, graph._half_edges, graph._edge_of
        triples, keys = graph._triples, graph._triple_keys
        collecting = gc.isenabled()
        gc.disable()
        try:
            for k, line in enumerate(lines, start=1):
                try:
                    s, p, o, dot = line.split(" ")
                    fwd, bwd = forward[p]
                    s, o = symbols[s], symbols[o]
                except (ValueError, KeyError):
                    raise _line_fault(graph, line, k) from None
                if dot != ".":
                    raise _line_fault(graph, line, k)
                tid = f"t{k}"
                left = 2 * k - 1
                half_edges[left] = Corolla(s, fwd, left)
                half_edges[left + 1] = Corolla(o, bwd, left + 1)
                edge_of[left] = edge_of[left + 1] = tid
                triples[tid] = (left, left + 1)
                keys[(s, fwd.name, o)] = tid
                for node, h in ((s, left), (o, left + 1)):
                    ids = owned.get(node)
                    if ids is None:
                        owned[node] = [h]
                    else:
                        ids.append(h)
        finally:
            if collecting:
                gc.enable()
        if len(keys) != len(triples):
            raise AlreadyPairedError(f"{len(triples) - len(keys)} triple line(s) repeat an earlier one")
        return graph

    # -- nodes ---------------------------------------------------------

    def add_node(self, symbol: str) -> str:
        """Register a node of the graph; idempotent per symbol."""
        if symbol not in self._owned:
            if symbol not in self.node_vocabulary:
                raise UnknownNodeSymbolError(f"node symbol {symbol!r} not in vocabulary")
            self._owned[symbol] = []
        return symbol

    def nodes(self) -> Tuple[str, ...]:
        return tuple(self._owned)

    @property
    def node_count(self) -> int:
        return len(self._owned)

    # -- corollas --------------------------------------------------------

    def make_corolla(self, node: str, predicate_name: str) -> Corolla:
        """Create an unpaired half-edge owned by ``node``.

        The predicate may be either side of a registered pair; its sign
        follows its direction.
        """
        predicate = self.registry.directed(predicate_name)
        corolla = Corolla(self.add_node(node), predicate, len(self._half_edges) + 1)
        self._half_edges[corolla.half_edge_id] = corolla
        self._owned[node].append(corolla.half_edge_id)
        return corolla

    def half_edges_of(self, node: str) -> Tuple[Corolla, ...]:
        """The half-edges a node owns, paired or not, in ascending id order."""
        if node not in self._owned:
            raise UnknownNodeError(f"node {node!r} not in graph")
        return tuple(self._half_edges[h] for h in self._owned[node])

    def corollas_of(self, node: str) -> Set[Corolla]:
        """All half-edges owned by a node, paired or not."""
        return set(self.half_edges_of(node))

    def walk_half_edges(
        self, node: str
    ) -> Iterator[Tuple[Corolla, str | None, Corolla | None, Corolla | None]]:
        """(half-edge, triple id, forward corolla, backward corolla) for each
        half-edge a node owns, in ascending id order; the last three are None
        while the half-edge is unpaired. One O(degree) pass over the indexes."""
        owned = self._owned.get(node)
        if owned is None:
            raise UnknownNodeError(f"node {node!r} not in graph")
        return self._walk(owned)

    def _walk(self, owned: List[int]):
        half_edges, edge_of, triples = self._half_edges, self._edge_of, self._triples
        for h in owned:
            triple_id = edge_of.get(h)
            if triple_id is None:
                yield half_edges[h], None, None, None
            else:
                forward_id, backward_id = triples[triple_id]
                yield half_edges[h], triple_id, half_edges[forward_id], half_edges[backward_id]

    def partner_of(self, corolla: Corolla) -> Corolla | None:
        """The involution image of a half-edge, or None while unpaired."""
        image = self._image(corolla.half_edge_id)
        return None if image is None else self._half_edges[image]

    def edge_of(self, corolla: Corolla) -> str | None:
        """Id of the triple a half-edge belongs to, or None while unpaired."""
        return self._edge_of.get(corolla.half_edge_id)

    def involution(self) -> Dict[int, int]:
        """The half-edge pairing map (both directions of every edge)."""
        return {f: self._image(f) for f in self._edge_of}

    def _image(self, half_edge_id: int) -> int | None:
        triple_id = self._edge_of.get(half_edge_id)
        if triple_id is None:
            return None
        left_id, right_id = self._triples[triple_id]
        return right_id if half_edge_id == left_id else left_id

    @property
    def half_edge_count(self) -> int:
        return len(self._half_edges)

    # -- joining ---------------------------------------------------------

    def join(self, left: Corolla, right: Corolla) -> str:
        """Pair two converse corollas into one edge; returns the triple id.

        ``left`` must be the forward (positive) side; its node becomes the
        subject. The involution is extended with I(left) = right and
        I(right) = left.
        """
        for corolla in (left, right):
            if self._half_edges.get(corolla.half_edge_id) is not corolla:
                raise UnknownNodeError("corolla does not belong to this graph")
        if left.half_edge_id == right.half_edge_id:
            raise SelfJoinError("cannot join a corolla with itself")
        for corolla in (left, right):
            if corolla.half_edge_id in self._edge_of:
                raise AlreadyPairedError(f"half-edge {corolla.half_edge_id} already paired")

        lp, rp = left.predicate, right.predicate
        if lp.direction == BACKWARD and rp.direction == FORWARD \
                and self.registry.converse_name(rp.name) == lp.name:
            raise WrongOrientationError(
                f"swapped sides: {rp.name!r} is the forward predicate and must come first"
            )
        if lp.direction != FORWARD or rp.direction != BACKWARD \
                or self.registry.converse_name(lp.name) != rp.name:
            raise NotConverseError(f"{lp.name!r} and {rp.name!r} are not a converse pair")

        key = (left.node, lp.name, right.node)
        if key in self._triple_keys:
            raise AlreadyPairedError(
                f"triple {key} already present as {self._triple_keys[key]}"
            )

        triple_id = f"t{len(self._triples) + 1}"
        self._edge_of[left.half_edge_id] = triple_id
        self._edge_of[right.half_edge_id] = triple_id
        self._triples[triple_id] = (left.half_edge_id, right.half_edge_id)
        self._triple_keys[key] = triple_id
        return triple_id

    # -- triples -----------------------------------------------------------

    def triple(self, triple_id: str) -> Triple:
        """The stored orientation (subject, forward predicate, object)."""
        left, right = self.edge_corollas(triple_id)
        return (left.node, left.predicate.name, right.node)

    def converse_of(self, triple_id: str) -> Triple:
        """The converse reading (object, backward predicate, subject)."""
        return converse_statement(self.registry, self.triple(triple_id))

    def triple_id_of(self, triple: Triple) -> str | None:
        """Id of a stored (s, p, o), or None."""
        return self._triple_keys.get(triple)

    def triples(self) -> Dict[str, Triple]:
        """Every stored (s, p, o) by triple id, in id order."""
        return {tid: triple for triple, tid in self._triple_keys.items()}

    def triple_ids(self) -> Tuple[str, ...]:
        return tuple(self._triples)

    def edge_corollas(self, triple_id: str) -> Tuple[Corolla, Corolla]:
        if triple_id not in self._triples:
            raise UnknownTripleError(f"no triple {triple_id!r}")
        left_id, right_id = self._triples[triple_id]
        return self._half_edges[left_id], self._half_edges[right_id]

    @property
    def edge_count(self) -> int:
        return len(self._triples)

    # -- validation ----------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Sweep the whole graph for structural and conservation violations.

        Checks: every half-edge is paired; the involution is self-inverse
        and fixed-point free; per edge, the signed half-weights sum to 0
        exactly and their moduli sum to the registered total within
        ``WEIGHT_TOL``. Weight-0 edges are flagged as inert warnings.
        """
        report = ValidationReport()
        involution = self.involution()
        report.unpaired = sorted(set(self._half_edges) - set(involution))
        for f, f_prime in involution.items():
            if f_prime == f:
                report.involution_violations.append(f"involution fixed point at half-edge {f}")
            elif involution.get(f_prime) != f:
                report.involution_violations.append(
                    f"involution not self-inverse at half-edge {f}"
                )
        for triple_id, (left_id, right_id) in self._triples.items():
            left, right = self._half_edges[left_id], self._half_edges[right_id]
            signed_sum = left.predicate.half_weight + right.predicate.half_weight
            if signed_sum != 0.0:
                report.weight_violations.append(
                    f"edge {triple_id}: half-weights sum to {signed_sum!r}, not 0"
                )
            moduli = abs(left.predicate.half_weight) + abs(right.predicate.half_weight)
            try:
                registered = self.registry.total_weight(left.predicate.name)
            except UnknownPredicateError:
                report.weight_violations.append(
                    f"edge {triple_id}: predicate {left.predicate.name!r} not registered"
                )
                continue
            if abs(moduli - registered) > WEIGHT_TOL:
                report.weight_violations.append(
                    f"edge {triple_id}: moduli sum {moduli!r} != registered {registered!r}"
                )
            if registered == 0.0:
                report.inert_edges.append(triple_id)
        return report


def _line_fault(graph: CorollaGraph, line: str, lineno: int) -> QcorollaError:
    """The first fault of a triples line that ``from_canonical_lines`` rejected."""
    tokens = line.split(" ")
    if len(tokens) != 4 or tokens[3] != ".":
        return MalformedTokenError(f"expected canonical 's p o .', got {line!r}", lineno, 1)
    s, p, o, _ = tokens
    p_column, o_column = len(s) + 2, len(s) + len(p) + 3
    if p not in graph.registry:
        return UnknownPredicateError(f"predicate {p!r} not registered", lineno, p_column)
    if graph.registry.is_backward(p):
        return MalformedTokenError(f"{p!r} is a backward predicate", lineno, p_column)
    symbol, at = (s, 1) if s not in graph.node_vocabulary else (o, o_column)
    return UnknownNodeSymbolError(f"node symbol {symbol!r} not in vocabulary", lineno, at)


# -- registry file format ----------------------------------------------------

# fields are separated by spaces and tabs only (qusym.SEPARATORS)
_REGISTRY_LINE = re.compile(
    r"[ \t]*(?P<fwd>\S+)[ \t]*<->[ \t]*(?P<bwd>\S+)[ \t]*=[ \t]*(?P<weight>[0-9.eE+-]+)[ \t]*"
)


def load_registry(path: str | Path) -> ConverseRegistry:
    """Read converse pairs from a file of ``forward <-> backward = p`` lines."""
    return parse_registry(read_source(path))


def parse_registry(text: str) -> ConverseRegistry:
    """Converse pairs from ``forward <-> backward = p`` lines.

    ``#`` lines are comments; predicate names use the namespaced token form.
    Every fault raises with its line and column in the text.
    """
    registry = ConverseRegistry()
    for lineno, raw in source_lines(text):
        match = _REGISTRY_LINE.fullmatch(raw)
        if not match:
            raise MalformedTokenError(
                f"expected 'forward <-> backward = p', got {raw.strip(SEPARATORS)!r}", lineno, 1
            )
        fwd, bwd = match.group("fwd"), match.group("bwd")
        for group in ("fwd", "bwd"):
            if not TOKEN_PATTERN.fullmatch(match.group(group)):
                raise MalformedTokenError(
                    f"predicate {match.group(group)!r} is not a namespaced token",
                    lineno,
                    match.start(group) + 1,
                )
        try:
            weight = float(match.group("weight"))
        except ValueError:
            raise MalformedTokenError(
                f"weight {match.group('weight')!r} is not a number", lineno, match.start("weight") + 1
            ) from None
        try:
            registry.register_converse(fwd, bwd, weight)
        except WeightOutOfRangeError as exc:
            raise WeightOutOfRangeError(str(exc), lineno, match.start("weight") + 1) from None
        except (SelfConverseError, AlreadyRegisteredError) as exc:
            at = match.start("fwd" if fwd in registry else "bwd") + 1
            raise type(exc)(str(exc), lineno, at) from None
    return registry


def save_registry(registry: ConverseRegistry, path: str | Path) -> None:
    """Write pairs sorted by forward name (canonical form, LF endings)."""
    Path(path).write_text(registry.serialize(), encoding="utf-8")
