"""The traced run emits every per-layer metric and leaves the package as it found it."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
import tracing
from qcorolla import cli, entangle, qla, store, vsa
from test_bench_checks import SMALL
from workloads import CliSession, EntangleWide, GraphBuild

ROOT = Path(__file__).resolve().parent.parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

# the layers each workload calls: their time metrics must be positive
EXERCISED = {
    GraphBuild: ("store.parse_s", "store.ingest_document_s", "store.save_snapshot_s", "store.load_snapshot_s",
                 "store.export_jsonl_s", "store.query_node_ms", "store.query_node_us_per_corolla",
                 "corolla.validate_s", "qusym.load_vocabulary_s"),
    EntangleWide: ("entangle.synthesize_ms", "entangle.measure_entanglement_ms", "entangle.measure_ms",
                   "entangle.tessellate_round_ms", "qla.entanglement_entropy_ms", "qla.schmidt_ms",
                   "qla.von_neumann_entropy_ms", "qusym.ensemble_entropy_ms"),
    CliSession: tuple(f"cli.{c}_ms" for c in tracing.CLI_COMMANDS)
    + ("cli.import_ms", "cli.dispatch_self_ms", "vsa.from_hex_ms", "vsa.bind_xor_us", "vsa.bind_tensor_ms",
       "vsa.compress_outer_ms", "store.load_snapshot_s", "qusym.ensemble_entropy_ms"),
}


@pytest.mark.parametrize("cls", [GraphBuild, EntangleWide, CliSession])
def test_traced_run_reports_every_per_layer_metric(cls, tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    workload = cls(tmp_path / "work", 5, SMALL[cls])
    (tmp_path / "work").mkdir()
    metrics, _, ops = run.measure_layers(workload, 0.0, tmp_path / "trace.jsonl")
    assert ops.failures == []
    assert set(metrics) == set(PER_LAYER)
    for name in EXERCISED[cls]:
        assert metrics[name] > 0, name
    assert metrics["trace.overhead_ratio"] > 0
    spans = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert spans and all(s["end"] >= s["start"] for s in spans)


def test_counters_repeat_exactly(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    runs = []
    for k in range(2):
        workload = GraphBuild(tmp_path / f"w{k}", 5, SMALL[GraphBuild])
        (tmp_path / f"w{k}").mkdir()
        metrics, _, _ = run.measure_layers(workload, 0.0, tmp_path / "trace.jsonl")
        runs.append({n: v for n, v in metrics.items() if PER_LAYER[n] in ("count", "bytes")})
    assert runs[0] == runs[1]
    assert runs[0]["corolla.edges"] == SMALL[GraphBuild].edges


def test_instrument_restores_the_package():
    names = [(store, "load_snapshot"), (store, "load_vocabulary"), (entangle, "entanglement_entropy"),
             (qla, "schmidt"), (cli, "von_neumann_entropy"), (vsa, "bind_tensor")]
    before = [getattr(owner, attr) for owner, attr in names]
    from_hex = vsa.HyperVector.__dict__["from_hex"]
    handlers = dict(cli._HANDLERS)
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert store.load_snapshot is not before[0]
        vsa.HyperVector.from_hex("ff")
    assert [getattr(owner, attr) for owner, attr in names] == before
    assert vsa.HyperVector.__dict__["from_hex"] is from_hex
    assert cli._HANDLERS == handlers
    assert [s[0] for s in tracer.spans] == ["vsa.from_hex"]


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    tracer.spans = [["a", 0.0, 10.0, None], ["b", 1.0, 4.0, 0], ["c", 5.0, 6.0, 0], ["d", 2.0, 3.0, 1]]
    assert tracing._self_times(tracer.spans) == [6.0, 2.0, 1.0, 1.0]
