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
``make_corolla``, ``join``, ``add_edge``) require exclusive access; queries
are safe concurrently between mutations.
"""

from __future__ import annotations

import gc
import re
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Set, Tuple

from .errors import (
    AlreadyPairedError,
    AlreadyRegisteredError,
    MalformedTokenError,
    NotConverseError,
    SelfConverseError,
    SelfJoinError,
    UnknownNodeError,
    UnknownNodeSymbolError,
    UnknownPredicateError,
    UnknownTripleError,
    WeightOutOfRangeError,
    WrongOrientationError,
    read_only,
)
from .qusym import SEPARATORS, TOKEN_PATTERN, Vocabulary, read_source, source_lines

FORWARD = "forward"
BACKWARD = "backward"

WEIGHT_TOL = 1e-12

Triple = Tuple[str, str, str]
Edge = Tuple[str, int, int]  # (triple id, forward half-edge id, backward half-edge id)


class DirectedPredicate:
    """One direction of a converse pair with its signed half-weight (bits).

    Forward predicates carry +p/2, backward predicates -p/2; 0 is allowed
    only for the degenerate unentangled predicate. Read-only, since every
    corolla of the name shares it; two are equal when their fields are.
    """

    __slots__ = ("name", "half_weight", "direction")
    __setattr__ = read_only

    def __init__(self, name: str, half_weight: float, direction: str):
        if direction not in (FORWARD, BACKWARD):
            raise ValueError(f"direction must be forward|backward, got {direction!r}")
        if direction == FORWARD and half_weight < 0:
            raise ValueError("forward predicates need a non-negative half-weight")
        if direction == BACKWARD and half_weight > 0:
            raise ValueError("backward predicates need a non-positive half-weight")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "half_weight", half_weight)
        object.__setattr__(self, "direction", direction)

    def __eq__(self, other):
        if type(other) is not DirectedPredicate:
            return NotImplemented
        return (self.name, self.half_weight, self.direction) == (other.name, other.half_weight, other.direction)

    def __reduce__(self):  # copy and pickle rebuild it through __init__, as its slots are read-only
        return DirectedPredicate, (self.name, self.half_weight, self.direction)


class Corolla:
    """A node symbol plus one owned directed predicate: half of a triple.

    Two are equal when their fields are; a corolla hashes as its half-edge id.
    It checks nothing, so its fields are plain slots: read-only ones would
    cost each half-edge a third of a microsecond more to build.
    """

    __slots__ = ("node", "predicate", "half_edge_id")

    def __init__(self, node: str, predicate: DirectedPredicate, half_edge_id: int):
        self.node = node
        self.predicate = predicate
        self.half_edge_id = half_edge_id

    def __eq__(self, other):
        if type(other) is not Corolla:
            return NotImplemented
        return (self.node, self.predicate, self.half_edge_id) == (other.node, other.predicate, other.half_edge_id)

    def __hash__(self) -> int:
        return hash(self.half_edge_id)


class ValidationReport(NamedTuple):
    """Outcome of a whole-graph consistency sweep.

    ``is_valid`` is true iff no unpaired half-edges, involution violations,
    or weight-conservation violations exist. Edges with total weight 0 are
    listed separately as semantically inert warnings; they do not affect
    validity.
    """

    unpaired: List[int]
    involution_violations: List[str]
    weight_violations: List[str]
    inert_edges: List[str]

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
        return self._entry(name)[0]

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


def triple_number(triple_id: str, edges: int) -> int:
    """K of a triple id ``tK``; only the exact form of 1 <= K <= edges is one."""
    try:
        k = int(triple_id[1:])
    except (TypeError, ValueError):  # TypeError: an id that is not a str
        k = 0
    if not 1 <= k <= edges or triple_id != f"t{k}":
        raise UnknownTripleError(f"no triple {triple_id!r}")
    return k


class CorollaGraph:
    """Half-edge graph over a node vocabulary and a converse registry.

    Ids are list positions, consecutive from 1 and never freed:
    ``_half_edges[h - 1]`` is half-edge h's Corolla, ``_edge_of[h - 1]`` its
    edge record or None while it is unpaired, and ``_triples[K - 1]`` the
    edge record of ``tK``. An edge record is one tuple (triple id, forward
    id, backward id) made by ``join`` or ``add_edge`` and shared by both
    half-edges and the triple list, so each pairing is stored once and the
    involution is read from it: ``validate`` in a single pass over the
    records, with no map, and ``involution()`` builds the map only for a
    caller that asks for it. ``_owned`` maps a node symbol to its
    half-edge ids, ascending, and ``_triple_keys`` an (s, p, o) to its triple
    id. Every node string in the indexes is the vocabulary's own object and
    every predicate the registry's, however the graph was built: ``add_node``
    and ``add_edge`` (``make_corolla`` through ``add_node``) look each symbol
    up in the vocabulary once, which both checks and interns it, and ``join``
    reads its corollas' nodes. Only ``make_corolla`` (with ``add_node``),
    ``join`` and ``add_edge`` write the indexes; ``add_edge`` writes, in one
    step, what ``join`` of two fresh ``make_corolla`` results writes, and is
    what the store's ingest and snapshot load call per edge. ``query_node``
    reads ``_owned``, ``_half_edges`` and ``_edge_of`` directly. Mutations
    cost O(1); ``walk_half_edges``, ``corollas_of`` and ``query_node``
    O(degree).

    Single-writer / multi-reader: mutations need exclusive access.
    """

    def __init__(self, node_vocabulary: Vocabulary, registry: ConverseRegistry):
        self.node_vocabulary = node_vocabulary
        self.registry = registry
        self._owned: Dict[str, List[int]] = {}
        self._half_edges: List[Corolla] = []
        self._edge_of: List[Edge | None] = []
        self._triples: List[Edge] = []
        self._triple_keys: Dict[Triple, str] = {}

    # -- nodes ---------------------------------------------------------

    def add_node(self, symbol: str) -> str:
        """Register a node of the graph, idempotent per symbol; returns the
        vocabulary's own string for it, the one the graph keeps."""
        vocabulary = self.node_vocabulary
        try:  # one lookup: the vocabulary check and the intern
            symbol = vocabulary.entries[vocabulary._index[symbol]]
        except KeyError:
            raise UnknownNodeSymbolError(f"node symbol {symbol!r} not in vocabulary") from None
        self._owned.setdefault(symbol, [])
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
        node = self.add_node(node)
        half_edge_id = len(self._half_edges) + 1  # one int object for the Corolla and every index
        corolla = Corolla(node, predicate, half_edge_id)
        self._half_edges.append(corolla)
        self._edge_of.append(None)
        self._owned[node].append(half_edge_id)
        return corolla

    def corollas_of(self, node: str) -> Set[Corolla]:
        """All half-edges owned by a node, paired or not."""
        return {corolla for corolla, _, _, _ in self.walk_half_edges(node)}

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
        half_edges, edge_of = self._half_edges, self._edge_of
        for h in owned:
            edge = edge_of[h - 1]
            if edge is None:
                yield half_edges[h - 1], None, None, None
            else:
                triple_id, forward_id, backward_id = edge
                yield half_edges[h - 1], triple_id, half_edges[forward_id - 1], half_edges[backward_id - 1]

    def involution(self) -> Dict[int, int]:
        """The half-edge pairing map (both directions of every edge), in id order."""
        return {h: edge[2] if h == edge[1] else edge[1] for h, edge in enumerate(self._edge_of, 1) if edge}

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
        left_id, right_id = left.half_edge_id, right.half_edge_id
        half_edges, edge_of = self._half_edges, self._edge_of
        n = len(half_edges)
        if not (0 < left_id <= n and 0 < right_id <= n) \
                or half_edges[left_id - 1] is not left or half_edges[right_id - 1] is not right:
            raise UnknownNodeError("corolla does not belong to this graph")
        if left_id == right_id:
            raise SelfJoinError("cannot join a corolla with itself")
        if edge_of[left_id - 1] or edge_of[right_id - 1]:
            raise AlreadyPairedError(f"half-edge {left_id if edge_of[left_id - 1] else right_id} already paired")

        lp, rp = left.predicate, right.predicate
        if lp.direction != FORWARD or rp.direction != BACKWARD \
                or self.registry.converse_name(lp.name) != rp.name:
            if lp.direction == BACKWARD and self.registry.converse_name(lp.name) == rp.name:
                raise WrongOrientationError(
                    f"swapped sides: {rp.name!r} is the forward predicate and must come first"
                )
            raise NotConverseError(f"{lp.name!r} and {rp.name!r} are not a converse pair")

        key = (left.node, lp.name, right.node)
        triple_keys = self._triple_keys
        if key in triple_keys:
            raise AlreadyPairedError(f"triple {key} already present as {triple_keys[key]}")

        triple_id = f"t{len(self._triples) + 1}"
        edge = edge_of[left_id - 1] = edge_of[right_id - 1] = (triple_id, left_id, right_id)
        self._triples.append(edge)
        triple_keys[key] = triple_id
        return triple_id

    def add_edge(self, subject: str, forward_predicate: str, object: str) -> str:
        """Add the edge (subject, forward predicate, object); returns its triple id.

        Builds what ``join(make_corolla(subject, p), make_corolla(object,
        converse of p))`` builds, index by index, in one step: one registry
        lookup, one vocabulary lookup per node, which checks its symbol and
        gives the vocabulary's own string, the one the graph keeps, and one
        key check. A call with one fault raises what that sequence raises; with
        several, the first of: an unregistered predicate, a backward name,
        the subject's symbol missing from the vocabulary, the object's, a
        repeated (s, p, o). Every check runs before any index is written, so
        a call that raises leaves the graph as it was.
        """
        entry = self.registry._pairs.get(forward_predicate)
        if entry is None:
            raise UnknownPredicateError(f"predicate {forward_predicate!r} not registered")
        forward, backward, _ = entry
        if forward.direction != FORWARD:
            raise WrongOrientationError(
                f"swapped sides: {backward.name!r} is the forward predicate and must come first"
            )
        vocabulary = self.node_vocabulary
        index, entries = vocabulary._index, vocabulary.entries
        try:  # add_node's lookup, inlined: one per node, the vocabulary check and the intern
            subject = entries[index[subject]]
            object = entries[index[object]]
        except KeyError as missing:
            raise UnknownNodeSymbolError(f"node symbol {missing.args[0]!r} not in vocabulary") from None
        key = (subject, forward.name, object)  # the registry's own string, as join keys it
        triple_keys = self._triple_keys
        if key in triple_keys:
            raise AlreadyPairedError(f"triple {key} already present as {triple_keys[key]}")

        half_edges, edge_of, triples = self._half_edges, self._edge_of, self._triples
        left_id = len(half_edges) + 1  # one int object per id for the Corolla and every index
        right_id = left_id + 1
        half_edges += (Corolla(subject, forward, left_id), Corolla(object, backward, right_id))
        triple_id = f"t{len(triples) + 1}"
        edge = (triple_id, left_id, right_id)
        edge_of += (edge, edge)
        triples.append(edge)
        triple_keys[key] = triple_id
        self._owned.setdefault(subject, []).append(left_id)
        self._owned.setdefault(object, []).append(right_id)
        return triple_id

    # -- triples -----------------------------------------------------------

    def triple(self, triple_id: str) -> Triple:
        """The stored orientation (subject, forward predicate, object)."""
        _, left_id, right_id = self._triples[triple_number(triple_id, len(self._triples)) - 1]
        left = self._half_edges[left_id - 1]
        return (left.node, left.predicate.name, self._half_edges[right_id - 1].node)

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
        return tuple(triple_id for triple_id, _, _ in self._triples)

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

        The involution checks are a single pass over the stored edge records,
        with no map built: a half-edge's partner is its record's other id,
        and it is self-inverse when that id lies in ``1..half_edge_count`` and
        the partner's own record names it back. The report lists what
        ``involution()`` would show, in half-edge id order.

        A graph whose indexes only ``make_corolla``, ``join`` and ``add_edge``
        wrote, and whose every corolla was joined, passes every check: each edge
        pairs two fresh converse corollas carrying +p/2 and -p/2. So
        ``store.ingest_document`` and ``store.load_snapshot``, which ``add_edge``
        each line that passes their checks and raise at the first that does not,
        never return a graph with a finding other than an inert edge; the checks
        stay for graphs whose indexes were written some other way.
        """
        report = ValidationReport([], [], [], [])
        half_edges, edge_of = self._half_edges, self._edge_of
        for h, edge in enumerate(edge_of, 1):
            if edge is None:
                report.unpaired.append(h)
                continue
            partner = edge[2] if h == edge[1] else edge[1]  # as involution() reads it
            if partner == h:
                report.involution_violations.append(f"involution fixed point at half-edge {h}")
            elif not 0 < partner <= len(edge_of) or (back := edge_of[partner - 1]) is None \
                    or (back[2] if partner == back[1] else back[1]) != h:  # range first: edge_of[-k] wraps
                report.involution_violations.append(f"involution not self-inverse at half-edge {h}")
        for triple_id, left_id, right_id in self._triples:
            left, right = half_edges[left_id - 1], half_edges[right_id - 1]
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


# -- queries -----------------------------------------------------------------


class _CollectorPaused:
    """Pauses the cyclic GC while a graph grows or a query builds its report: neither holds
    cycles to free. Not a ``contextlib.contextmanager``, whose exit allocates once the GC is
    back on and so runs the collection then owed inside the build: at 10^5 edges that made
    ``load_snapshot`` take 1.31 s instead of 1.18 s (8 alternating in-process runs)."""

    def __enter__(self):
        self.collecting = gc.isenabled()
        gc.disable()

    def __exit__(self, exc_type, exc, traceback):
        if self.collecting:
            gc.enable()


class CorollaView(NamedTuple):
    """One half-edge of a node, with its pairing if joined (an immutable named tuple)."""

    predicate: str
    direction: str
    half_weight: float
    partner: str | None
    triple_id: str | None


class NodeReport(NamedTuple):
    symbol: str
    corollas: Tuple[CorollaView, ...]
    readings: Tuple[Triple, ...]  # forward and converse of each triple

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
    """Owned corollas in id order, their partners, and both orientations of each triple.

    One pass over the node's half-edge ids, reading each one's corolla, edge
    record and partner by position, with the collector paused: a hub's report
    is three tracked tuples per corolla and holds no cycles. Each view is
    built by ``tuple.__new__``, skipping the named tuple's Python-level
    ``__new__``, the largest cost per corolla.
    """
    owned = graph._owned.get(symbol)
    if owned is None:
        raise UnknownNodeError(f"node {symbol!r} not in graph")
    half_edges, edge_of, new = graph._half_edges, graph._edge_of, tuple.__new__
    views = []
    readings = []  # forward then converse reading of each triple, at its first half-edge
    with _CollectorPaused():
        for h in owned:
            predicate = half_edges[h - 1].predicate
            name, edge = predicate.name, edge_of[h - 1]
            if edge is None:
                partner = triple_id = None
            else:
                triple_id, forward_id, backward_id = edge
                other_id = backward_id if h == forward_id else forward_id
                other = half_edges[other_id - 1]
                partner = other.node
                # both half-edges of a self-loop are the node's: read its triple at the lower id
                if partner != symbol or h < other_id:
                    converse = other.predicate.name
                    readings += ((symbol, name, partner), (partner, converse, symbol)) if h == forward_id \
                        else ((partner, converse, symbol), (symbol, name, partner))
            views.append(new(CorollaView, (name, predicate.direction, predicate.half_weight, partner, triple_id)))
        return NodeReport(symbol, tuple(views), tuple(readings))


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
