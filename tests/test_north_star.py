"""The store commands on a corpus of the shape the roadmap aims at, each output checked byte for byte.

The corpus is the benchmark's generator at 10^4 edges over d = 10^4 symbols: Zipf hubs,
self-loops, inert edges, converse restatements and exact duplicates. Each command runs
through ``cli_dispatch``; the references are ``expected.json``, a graph built through
``make_corolla`` and ``join`` (``conftest.join_statements``) and, for the one-triple commands,
the closed-form ``JointState`` that ``synthesize_joint_state`` makes from that graph: its dense
state would hold 10^8 amplitudes. No timing is asserted here.
"""

import importlib.util
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from conftest import join_statements

from qcorolla.cli import cli_dispatch
from qcorolla.corolla import load_registry
from qcorolla.entangle import measure, measure_entanglement, synthesize_joint_state
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


# the one-triple commands' four kinds of triple; the corpus gives pair 0 weight 0 and pair 1 weight 1
TRIPLE_CASES = {
    "top hub's first line": lambda hub, s, p, o: s == hub,
    "self-loop": lambda hub, s, p, o: s == o,
    "inert": lambda hub, s, p, o: p == "rel:F00",
    "Bell": lambda hub, s, p, o: p == "rel:F01",
}


@pytest.mark.parametrize("case", TRIPLE_CASES)
def test_entangle_measure_and_entropy_print_what_the_closed_form_state_gives(north_star, case):
    corpus, _, store, _, reference = north_star
    hub = corpus.expected["rank"][0]
    triple_id = next(t for t, triple in reference.triples().items() if TRIPLE_CASES[case](hub, *triple))
    seed = list(TRIPLE_CASES).index(case) + 1
    joint = synthesize_joint_state(reference, triple_id)
    if case == "self-loop":
        assert joint.basis == (0, 1, 0, 1)  # i == j falls back to the first two basis states
    if case in ("inert", "Bell"):
        assert joint.target_entropy == (case == "Bell")
    entangled = {
        "triple": triple_id,
        "statement": list(reference.triple(triple_id)),
        "dims": [10000, 10000],
        "basis": list(joint.basis),
        "target_entropy": joint.target_entropy,
        "measured_entropy": measure_entanglement(joint),
        "amplitudes": {str(i): [a, 0.0] for i, a in joint.support() if a != 0},
    }
    assert run(["entangle", triple_id, "--store", str(store)]) == (0, f"{json.dumps(entangled, sort_keys=True)}\n", "")
    measured = measure(joint, shots=10000, seed=seed).as_dict()
    assert sum(measured["counts"].values()) == 10000
    assert run(["measure", triple_id, "--shots", "10000", "--seed", str(seed), "--store", str(store)]) == (
        0,
        f"{json.dumps(measured, sort_keys=True)}\n",
        "",
    )
    for base in ("2", "3"):
        expected = f"{measure_entanglement(joint, base=float(base)):.6f}\n"
        assert run(["entropy", "--triple", triple_id, "--base", base, "--store", str(store)]) == (0, expected, "")
