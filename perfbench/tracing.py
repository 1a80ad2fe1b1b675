"""In-memory spans around calls into the qcorolla modules.

The benchmark records spans from outside the package: ``instrument``
rebinds each traced public function (and every module-level name another
module calls it through, such as ``store.load_vocabulary`` or
``entangle.entanglement_entropy``) to a wrapper that opens a span, and
restores the originals on exit. Nothing under ``src/`` changes.

A span is ``(name, start, end, parent)``; its self time is its duration
minus the durations of its direct children. Counters (statements read,
bytes written, corollas returned, ...) are recorded by the same wrappers
from the values the wrapped calls return.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List

from qcorolla import cli, corolla, entangle, qla, qusym, store, vsa

CLI_COMMANDS = ("ingest", "validate", "query", "entangle", "measure", "entropy", "export", "bind", "round")
MODULES = ("store", "corolla", "qusym", "entangle", "qla", "vsa")


class Tracer:
    """Span and counter recorder; spans stay in memory until ``write``."""

    def __init__(self):
        self.spans: List[list] = []  # [name, start, end, parent index or None]
        self.counters: Counter = Counter()
        self.maxima: Dict[str, int] = {}
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name: str, amount: int) -> None:
        self.counters[name] += amount

    def peak(self, name: str, value: int) -> None:
        self.maxima[name] = max(self.maxima.get(name, 0), value)

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """``fn`` inside a span; ``after(args, result)`` records counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return traced

    def write(self, path: str | Path) -> None:
        """One JSON line per span: name, start, end (seconds), parent index."""
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _size(path) -> int:
    return os.path.getsize(path)


def _tree_size(directory) -> int:
    return sum(p.stat().st_size for p in Path(directory).iterdir() if p.is_file())


@contextmanager
def instrument(tracer: Tracer) -> Iterator[Tracer]:
    """Rebind the traced qcorolla names to span wrappers for the block's duration."""

    def read_bytes(args, _result):
        tracer.count("store.bytes_read", _size(args[0]))

    def ingested(_args, result):
        tracer.count("store.statements", result.statements)
        tracer.count("store.duplicates", result.duplicates)
        tracer.count("store.folded", result.folded)
        tracer.peak("corolla.nodes", result.graph.node_count)
        tracer.peak("corolla.edges", result.graph.edge_count)
        tracer.peak("corolla.half_edges", result.graph.half_edge_count)

    def saved(args, _result):
        tracer.count("store.bytes_written", _tree_size(args[1]))

    def exported(args, _result):
        tracer.count("store.bytes_written", _size(args[1]))

    def queried(_args, report):
        tracer.count("store.query_corollas", len(report.corollas))

    def synthesized(_args, joint):
        tracer.peak("entangle.state_bytes", joint.state.amplitudes.nbytes)

    # (span name, wrapper hook, owners that hold the name); attribute name is the span's tail
    table = [
        ("qusym.load_vocabulary", read_bytes, [qusym, store]),
        ("corolla.load_registry", read_bytes, [corolla, store]),
        ("store.load_triples", read_bytes, [store]),
        ("store.parse_triples_text", None, [store]),
        ("store.ingest_document", ingested, [store]),
        ("store.ingest", None, [store]),
        ("store.save_snapshot", saved, [store]),
        ("store.load_snapshot", None, [store]),
        ("store.query_node", queried, [store]),
        ("store.export_jsonl", exported, [store]),
        ("qusym.qusym_ensemble", None, [qusym]),
        ("entangle.synthesize_joint_state", synthesized, [entangle]),
        ("entangle.measure_entanglement", None, [entangle]),
        ("entangle.measure", None, [entangle]),
        ("entangle.tessellate_round", None, [entangle]),
        ("qla.entanglement_entropy", None, [qla, entangle, cli]),
        ("qla.schmidt", None, [qla]),
        ("qla.von_neumann_entropy", None, [qla, cli]),
        ("vsa.bind_xor", None, [vsa]),
        ("vsa.bind_tensor", None, [vsa]),
        ("vsa.compress_outer", None, [vsa]),
    ]
    saved_attrs = []
    handlers = dict(cli._HANDLERS)
    try:
        for name, hook, owners in table:
            attr = name.split(".", 1)[1]
            wrapper = tracer.wrap(name, getattr(owners[0], attr), hook)
            for owner in owners:
                saved_attrs.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        validate = corolla.CorollaGraph.validate
        saved_attrs.append((corolla.CorollaGraph, "validate", validate))
        corolla.CorollaGraph.validate = tracer.wrap("corolla.validate", validate)
        from_hex = vsa.HyperVector.__dict__["from_hex"]
        saved_attrs.append((vsa.HyperVector, "from_hex", from_hex))
        vsa.HyperVector.from_hex = classmethod(tracer.wrap("vsa.from_hex", from_hex.__func__))
        for command, handler in handlers.items():
            cli._HANDLERS[command] = tracer.wrap(f"cli.{command}", handler)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved_attrs):
            setattr(owner, attr, value)
        cli._HANDLERS.update(handlers)


# -- reduction to per-layer metrics ---------------------------------------------


def _durations(spans: List[list]) -> Dict[str, List[float]]:
    out: Dict[str, List[float]] = defaultdict(list)
    for name, start, end, _ in spans:
        out[name].append(end - start)
    return out


def _self_times(spans: List[list]) -> List[float]:
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, passes: int) -> Dict[str, float]:
    """Per-layer metrics of ``passes`` traced passes recorded in ``tracer``.

    Times are medians per call, except ``<module>.self_s`` and
    ``cli.dispatch_self_ms``, which are totals per pass. Counters are
    totals per pass, every pass doing the same work (``corolla.*`` and
    ``entangle.state_bytes``: the largest value seen). A layer the
    workload never calls reports 0.
    """
    spans = tracer.spans
    durations = _durations(spans)
    own = _self_times(spans)
    per_pass = 1.0 / max(passes, 1)

    def med(name: str, scale: float) -> float:
        return _median(durations.get(name, [])) * scale

    metrics = {
        "store.parse_s": med("store.parse_triples_text", 1.0),
        "store.ingest_document_s": med("store.ingest_document", 1.0),
        "store.save_snapshot_s": med("store.save_snapshot", 1.0),
        "store.load_snapshot_s": med("store.load_snapshot", 1.0),
        "store.export_jsonl_s": med("store.export_jsonl", 1.0),
        "store.query_node_ms": med("store.query_node", 1e3),
        "corolla.validate_s": med("corolla.validate", 1.0),
        "qusym.load_vocabulary_s": med("qusym.load_vocabulary", 1.0),
        "entangle.synthesize_ms": med("entangle.synthesize_joint_state", 1e3),
        "entangle.measure_entanglement_ms": med("entangle.measure_entanglement", 1e3),
        "entangle.measure_ms": med("entangle.measure", 1e3),
        "entangle.tessellate_round_ms": med("entangle.tessellate_round", 1e3),
        "qla.entanglement_entropy_ms": med("qla.entanglement_entropy", 1e3),
        "qla.schmidt_ms": med("qla.schmidt", 1e3),
        "qla.von_neumann_entropy_ms": med("qla.von_neumann_entropy", 1e3),
        "vsa.from_hex_ms": med("vsa.from_hex", 1e3),
        "vsa.bind_xor_us": med("vsa.bind_xor", 1e6),
        "vsa.bind_tensor_ms": med("vsa.bind_tensor", 1e3),
        "vsa.compress_outer_ms": med("vsa.compress_outer", 1e3),
    }
    query_total = sum(durations.get("store.query_node", []))
    corollas = tracer.counters["store.query_corollas"]
    metrics["store.query_node_us_per_corolla"] = query_total * 1e6 / corollas if corollas else 0.0

    # the uniform-ensemble entropy is qusym_ensemble plus the von Neumann entropy of its result
    by_parent: Dict[int, float] = defaultdict(float)
    ensemble_parents = {p for n, _, _, p in spans if n == "qusym.qusym_ensemble"}
    for name, start, end, parent in spans:
        if parent in ensemble_parents and name in ("qusym.qusym_ensemble", "qla.von_neumann_entropy"):
            by_parent[parent] += end - start
    metrics["qusym.ensemble_entropy_ms"] = _median(list(by_parent.values())) * 1e3

    for command in CLI_COMMANDS:
        metrics[f"cli.{command}_ms"] = med(f"cli.{command}", 1e3)
    handler_self = sum(o for (n, *_), o in zip(spans, own) if n.startswith("cli."))
    metrics["cli.dispatch_self_ms"] = handler_self * 1e3 * per_pass

    module_self: Dict[str, float] = defaultdict(float)
    for (name, *_), o in zip(spans, own):
        module_self[name.split(".", 1)[0]] += o
    for module in MODULES:
        metrics[f"{module}.self_s"] = module_self.get(module, 0.0) * per_pass

    for name in ("store.statements", "store.duplicates", "store.folded", "store.bytes_read", "store.bytes_written"):
        metrics[name] = tracer.counters[name] // max(passes, 1)
    for name in ("corolla.nodes", "corolla.edges", "corolla.half_edges", "entangle.state_bytes"):
        metrics[name] = tracer.maxima.get(name, 0)
    metrics["trace.spans"] = len(spans) // max(passes, 1)
    return metrics
