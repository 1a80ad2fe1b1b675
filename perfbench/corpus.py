"""Seeded synthetic corpus for the qcorolla benchmark.

A corpus is the three source files the engine reads (``vocabulary.txt``,
``registry.txt``, ``triples.nt``) plus ``expected.json``, the counts an
ingest must reproduce: statements, distinct edges, folded converse
restatements, exact duplicates, nodes, inert (weight-0) edges,
self-referential edges and every node's degree (half-edges it owns).

Shape of a corpus:

* ``d`` vocabulary symbols; ``nodes`` of them, picked by the seed, carry
  edges, and every one of those appears in at least one edge.
* ``pairs`` converse predicate pairs. Pair 0 has weight 0 (the inert
  edge) and pair 1 weight 1.0 (the Bell case); the rest are drawn from
  (0.05, 0.95).
* ``edges`` distinct forward statements. Subjects follow a Zipf law of
  exponent ``skew`` over the node pool, so a few nodes are hubs; objects
  are uniform. About 1% of edges are self-referential (subject ==
  object), which sends the joint-state synthesis to its ``i == j`` basis
  fallback.
* Extra statements make up ``restate`` (converse restatements ``o B s .``)
  and ``duplicate`` (exact repeats) of all statements; each comes after
  the statement it restates, so ingest folds or skips it.

Only ``random.Random(seed)`` draws numbers, so equal arguments give
byte-identical files. ``expected.json`` also keeps the Zipf rank order of
the node pool, so workloads can draw their traffic from the same law.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

SELF_LOOP_SHARE = 0.01

Triple = Tuple[str, str, str]


@dataclass(frozen=True)
class CorpusSpec:
    """Size and shape of a generated corpus."""

    nodes: int
    edges: int
    pairs: int
    d: int
    restate: float = 0.20
    duplicate: float = 0.05
    skew: float = 1.1

    def __post_init__(self):
        if not 2 <= self.nodes <= self.d:
            raise ValueError("need 2 <= nodes <= d")
        if self.edges < self.nodes:
            raise ValueError("need edges >= nodes so every node has an edge")
        if self.pairs < 2:
            raise ValueError("need at least two predicate pairs (weights 0 and 1)")
        if self.restate < 0 or self.duplicate < 0 or self.restate + self.duplicate >= 1:
            raise ValueError("restate and duplicate shares must be >= 0 and sum below 1")


@dataclass(frozen=True)
class Corpus:
    """Paths of a written corpus and the counts an ingest must reproduce."""

    root: Path
    expected: Dict

    @property
    def vocabulary(self) -> Path:
        return self.root / "vocabulary.txt"

    @property
    def registry(self) -> Path:
        return self.root / "registry.txt"

    @property
    def triples(self) -> Path:
        return self.root / "triples.nt"

    def draw_subjects(self, rng: random.Random, k: int) -> List[str]:
        """``k`` nodes drawn by the corpus's own subject law (Zipf over the pool)."""
        ranked = self.expected["rank"]
        return rng.choices(ranked, cum_weights=_zipf_cum_weights(len(ranked), self.expected["skew"]), k=k)


def _zipf_cum_weights(n: int, skew: float) -> List[float]:
    """Cumulative weights of ranks 1..n with P(rank r) proportional to 1 / r**skew."""
    return list(itertools.accumulate(1.0 / rank**skew for rank in range(1, n + 1)))


def _symbol(i: int, width: int) -> str:
    return f"sym:S{i:0{width}d}"


def _registry(rng: random.Random, pairs: int) -> List[Tuple[str, str, float]]:
    out = []
    for k in range(pairs):
        if k == 0:
            weight = 0.0
        elif k == 1:
            weight = 1.0
        else:
            weight = round(rng.uniform(0.05, 0.95), 6)
        out.append((f"rel:F{k:02d}", f"rel:B{k:02d}", weight))
    return out


def _edges(rng: random.Random, spec: CorpusSpec, pool: List[str], predicates: List[str]) -> List[Triple]:
    """Distinct forward triples; the first ``nodes`` cover every pool node as object."""
    cumulative = _zipf_cum_weights(len(pool), spec.skew)

    def hub() -> str:
        return rng.choices(pool, cum_weights=cumulative)[0]

    seen = set()
    edges: List[Triple] = []

    def add(s: str, o: str) -> bool:
        triple = (s, predicates[rng.randrange(len(predicates))], o)
        if triple in seen:
            return False
        seen.add(triple)
        edges.append(triple)
        return True

    for obj in pool:
        while not add(hub(), obj):
            pass
    self_loops = max(1, round(spec.edges * SELF_LOOP_SHARE))
    while len(edges) < spec.nodes + self_loops:
        node = hub()
        add(node, node)
    while len(edges) < spec.edges:
        add(hub(), pool[rng.randrange(len(pool))])
    return edges


def generate(spec: CorpusSpec, seed: int, out: str | Path) -> Corpus:
    """Write the corpus for ``(spec, seed)`` into ``out`` and return it."""
    rng = random.Random(seed)
    width = len(str(spec.d - 1))
    vocabulary = [_symbol(i, width) for i in range(spec.d)]
    pool = rng.sample(vocabulary, spec.nodes)  # pool order is the Zipf rank
    registry = _registry(rng, spec.pairs)
    converse = {fwd: bwd for fwd, bwd, _ in registry}
    weight = {fwd: w for fwd, _, w in registry}
    edges = _edges(rng, spec, pool, [fwd for fwd, _, _ in registry])
    rng.shuffle(edges)

    kept = 1.0 - spec.restate - spec.duplicate
    n_restate = round(len(edges) * spec.restate / kept)
    n_duplicate = round(len(edges) * spec.duplicate / kept)
    # ((sort key, tiebreak), line): an extra statement sorts after its original
    keyed = [((float(i), 0), f"{s} {p} {o} .") for i, (s, p, o) in enumerate(edges)]
    for j in range(n_restate + n_duplicate):
        k = rng.randrange(len(edges))
        s, p, o = edges[k]
        line = f"{o} {converse[p]} {s} ." if j < n_restate else f"{s} {p} {o} ."
        keyed.append(((k + rng.random() * (len(edges) - k), 1 + j), line))
    keyed.sort(key=lambda item: item[0])

    degree: Dict[str, int] = {}
    for s, _, o in edges:
        degree[s] = degree.get(s, 0) + 1
        degree[o] = degree.get(o, 0) + 1
    expected = {
        "d": spec.d,
        "pairs": spec.pairs,
        "statements": len(keyed),
        "edges": len(edges),
        "folded": n_restate,
        "duplicates": n_duplicate,
        "nodes": len(degree),
        "inert_edges": sum(1 for _, p, _ in edges if weight[p] == 0.0),
        "self_loops": sum(1 for s, _, o in edges if s == o),
        "degree": dict(sorted(degree.items())),
        "rank": pool,
        "skew": spec.skew,
    }

    root = Path(out)
    root.mkdir(parents=True, exist_ok=True)
    (root / "vocabulary.txt").write_text("".join(f"{v}\n" for v in vocabulary), encoding="utf-8")
    (root / "registry.txt").write_text(
        "".join(f"{f} <-> {b} = {w!r}\n" for f, b, w in registry), encoding="utf-8"
    )
    (root / "triples.nt").write_text("".join(f"{line}\n" for _, line in keyed), encoding="utf-8")
    (root / "expected.json").write_text(json.dumps(expected, sort_keys=True) + "\n", encoding="utf-8")
    return Corpus(root, expected)
