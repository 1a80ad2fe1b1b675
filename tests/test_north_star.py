"""The store commands on a corpus of the shape the roadmap aims at, each output checked byte for byte.

The corpus is the benchmark's generator at 10^4 edges over d = 10^4 symbols: Zipf hubs,
self-loops, inert edges, converse restatements and exact duplicates. Each command runs
through ``cli_dispatch``; the references are ``expected.json`` and a graph built through
``make_corolla`` and ``join`` (``conftest.join_statements``). No timing is asserted here.
"""

import importlib.util
import io
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import join_statements

from qcorolla.cli import cli_dispatch
from qcorolla.corolla import load_registry
from qcorolla.qusym import load_vocabulary, read_source, source_lines
from qcorolla.store import export_jsonl, load_snapshot, parse_triple_line, query_node, save_snapshot

SNAPSHOT_FILES = ("vocabulary.txt", "registry.txt", "triples.nt", "snapshot.json")


def benchmark_corpus_module():
    """``perfbench/corpus.py``, which needs only the standard library, imported from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("qcorolla_bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks its module up while it builds the classes
    spec.loader.exec_module(module)
    return module


def run(argv):
    """(exit code, stdout, stderr) of one command."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_dispatch(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def north_star(tmp_path_factory):
    """The corpus, what ``ingest`` printed, its store, and the reference graph in snapshot order."""
    bench = benchmark_corpus_module()
    root = tmp_path_factory.mktemp("north_star")
    corpus = bench.generate(bench.CorpusSpec(nodes=5000, edges=10000, pairs=20, d=10000), 20261020, root / "corpus")
    store = root / "store"
    ingested = run(["ingest", "--vocab", str(corpus.vocabulary), "--registry", str(corpus.registry),
                    "--triples", str(corpus.triples), "--store", str(store)])
    vocabulary, registry = load_vocabulary(corpus.vocabulary), load_registry(corpus.registry)
    parsed = [parse_triple_line(line, n).triple for n, line in source_lines(read_source(corpus.triples))]
    by_joins = join_statements(vocabulary, registry, parsed)
    reference = join_statements(vocabulary, registry, sorted(by_joins.triples().values()))
    return corpus, ingested, store, by_joins, reference


def test_ingest_prints_the_corpus_counts_and_writes_what_save_snapshot_writes(north_star, tmp_path):
    corpus, ingested, store, by_joins, _ = north_star
    exp = corpus.expected
    assert ingested == (
        0,
        f"ingested {exp['statements']} statements: {exp['nodes']} nodes, {exp['edges']} edges\n",
        f"warning: {exp['duplicates']} duplicate statement(s) skipped\n"
        f"note: {exp['folded']} converse statement(s) folded\n",
    )
    save_snapshot(by_joins, tmp_path)
    for name in SNAPSHOT_FILES:
        assert (store / name).read_bytes() == (tmp_path / name).read_bytes(), name


def test_validate_prints_the_reference_report(north_star):
    corpus, _, store, _, reference = north_star
    exp = corpus.expected
    report = reference.validate()
    assert report.is_valid and len(report.inert_edges) == exp["inert_edges"] > 0
    assert run(["validate", "--store", str(store)]) == (
        0,
        f"graph valid: {exp['nodes']} nodes, {exp['edges']} edges\n",
        "".join(f"{line}\n" for line in report.lines()),
    )
    assert load_snapshot(store).validate() == report


def test_query_of_the_hubs_and_of_a_self_loop_prints_the_reference_report(north_star):
    corpus, _, store, _, reference = north_star
    exp = corpus.expected
    self_loop = min(s for s, _, o in reference.triples().values() if s == o)
    assert exp["self_loops"] > 0
    for symbol in [*exp["rank"][:5], self_loop]:
        report = query_node(reference, symbol)
        assert len(report.corollas) == exp["degree"][symbol], symbol
        assert run(["query", symbol, "--store", str(store)]) == (0, "".join(f"{line}\n" for line in report.lines()), "")


def test_export_writes_the_reference_export(north_star, tmp_path):
    corpus, _, store, _, reference = north_star
    edges = corpus.expected["edges"]
    path = tmp_path / "cli.jsonl"
    assert run(["export", "--jsonl", str(path), "--store", str(store)]) == (0, f"exported {edges} statements to {path}\n", "")
    assert export_jsonl(reference, tmp_path / "reference.jsonl") == edges
    assert path.read_bytes() == (tmp_path / "reference.jsonl").read_bytes()
