"""The benchmark's three closed-loop workloads (one client, one process).

Each workload generates its corpus from the seed in ``setup`` and then
runs a fixed script per ``run_pass``. Every step of the script is checked;
a step that raises or whose output check fails counts as failed. Op
latencies are recorded for the workload's op:

* ``graph_build``: one ``query_node`` call;
* ``entangle_wide``: synthesize -> measure_entanglement -> measure for one triple;
* ``cli_session``: one CLI command.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from corpus import Corpus, CorpusSpec, generate
from qcorolla import cli, corolla, entangle, qla, qusym, store

SHOTS = 10_000
ENTROPY_TOL = 1e-6
CHILD_TIMEOUT_S = 60


class CheckFailed(Exception):
    """An output check of the benchmark did not hold."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


class Ops:
    """Attempted/failed accounting and op latencies of one run.

    ``tracer`` (a ``tracing.Tracer``) is set only for traced passes; each
    step then gets a ``bench.<label>`` span so layer spans have a parent.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.op_ms: List[float] = []
        self.tracer = None

    def step(self, label: str, fn: Callable, verify: Callable | None = None, op: bool = False):
        """Run ``fn``, then ``verify(result)``; returns the result or None on failure."""
        self.attempted += 1
        span = self.tracer.span(f"bench.{label}") if self.tracer is not None else nullcontext()
        try:
            with span:
                start = time.perf_counter()
                result = fn()
                elapsed = time.perf_counter() - start
            if op:
                self.op_ms.append(elapsed * 1e3)
            if verify is not None:
                verify(result)
            return result
        except Exception as exc:  # any failure of the program or a check is one failed op
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


def _symbol_index(symbol: str) -> int:
    """Basis index of a generated symbol ``sym:S<i>`` (vocabulary is in index order)."""
    return int(symbol.split(":S", 1)[1])


def _registry_weights(corpus: Corpus) -> Dict[str, float]:
    weights = {}
    for line in corpus.registry.read_text(encoding="utf-8").splitlines():
        fwd, rest = line.split(" <-> ")
        bwd, weight = rest.split(" = ")
        weights[fwd] = weights[bwd] = float(weight)
    return weights


def _support(s: str, o: str, d: int) -> set:
    i, j = _symbol_index(s), _symbol_index(o)
    if i == j:
        i, j = 0, 1
    return {i * d + i, j * d + j}


class Workload:
    name = ""
    spec: CorpusSpec
    op_label = ""

    def __init__(self, work: Path, seed: int, spec: CorpusSpec | None = None):
        self.work = Path(work)
        self.seed = seed
        if spec is not None:
            self.spec = spec
        self.corpus: Corpus | None = None

    def setup(self) -> float:
        """Generate inputs and build what the pass needs; returns the timed set-up seconds."""
        raise NotImplementedError

    def run_pass(self, ops: Ops, in_process: bool = False) -> None:
        raise NotImplementedError


class GraphBuild(Workload):
    """Parse, ingest, validate, snapshot round trip, queries and export of a large corpus.

    5k nodes keep a pass near 3.5 s, so a 35 s run holds about ten passes; with
    10k nodes a run held three or four, and the query latency of whole runs
    differed by up to 30% on a shared host.
    """

    name = "graph_build"
    spec = CorpusSpec(nodes=5_000, edges=10_000, pairs=20, d=5_000)
    op_label = "query_node"
    # Assumed traffic: a node is asked about as often as it states something, so query
    # subjects are drawn by the corpus's own subject law. Not measured on real traffic.
    query_count = 400

    def setup(self) -> float:
        start = time.perf_counter()
        self.corpus = generate(self.spec, self.seed, self.work / "corpus")
        elapsed = time.perf_counter() - start
        self.queries = self.corpus.draw_subjects(random.Random(self.seed), self.query_count)
        return elapsed

    def run_pass(self, ops: Ops, in_process: bool = False) -> None:
        c, exp = self.corpus, self.corpus.expected
        snap_a, snap_b = self.work / "snap_a", self.work / "snap_b"

        def verify_ingest(result):
            check(result.statements == exp["statements"], f"statements {result.statements} != {exp['statements']}")
            check(result.graph.edge_count == exp["edges"], f"edges {result.graph.edge_count} != {exp['edges']}")
            check(result.folded == exp["folded"], f"folded {result.folded} != {exp['folded']}")
            check(result.duplicates == exp["duplicates"], f"duplicates {result.duplicates} != {exp['duplicates']}")
            check(result.graph.node_count == exp["nodes"], f"nodes {result.graph.node_count} != {exp['nodes']}")

        def verify_report(report):
            check(report.is_valid, "graph does not validate")
            check(len(report.inert_edges) == exp["inert_edges"], "inert edge count differs")

        def verify_round_trip(_):
            for name in ("vocabulary.txt", "registry.txt", "triples.nt", "snapshot.json"):
                check((snap_a / name).read_bytes() == (snap_b / name).read_bytes(), f"{name} differs after save-load-save")

        def verify_export(count):
            lines = (self.work / "export.jsonl").read_text(encoding="utf-8").count("\n")
            check(count == exp["edges"] and lines == exp["edges"], f"export wrote {count} records / {lines} lines")

        voc = ops.step("load_vocabulary", lambda: qusym.load_vocabulary(c.vocabulary),
                       lambda v: check(v.d == exp["d"], "vocabulary size differs"))
        registry = ops.step("load_registry", lambda: corolla.load_registry(c.registry),
                            lambda r: check(len(r) == exp["pairs"], "registry size differs"))
        document = ops.step("load_triples", lambda: store.load_triples(c.triples))
        result = ops.step("ingest_document", lambda: store.ingest_document(voc, registry, document), verify_ingest)
        ops.step("validate", lambda: result.graph.validate(), verify_report)
        ops.step("save_snapshot", lambda: store.save_snapshot(result.graph, snap_a))
        graph = ops.step("load_snapshot", lambda: store.load_snapshot(snap_a),
                         lambda g: check(g.edge_count == exp["edges"], "loaded edge count differs"))
        ops.step("save_snapshot_again", lambda: store.save_snapshot(graph, snap_b), verify_round_trip)
        for symbol in self.queries:
            ops.step("query_node", lambda: store.query_node(graph, symbol),
                     lambda r: check(len(r.corollas) == exp["degree"][symbol],
                                     f"{symbol}: {len(r.corollas)} corollas, expected {exp['degree'][symbol]}"),
                     op=True)
        ops.step("export_jsonl", lambda: store.export_jsonl(graph, self.work / "export.jsonl"), verify_export)


class EntangleWide(Workload):
    """Joint-state synthesis, entropy and sampling per triple on a small graph.

    d = 128 keeps the d x d amplitude matrix (256 KiB) inside a core's L2
    cache; at d = 256 the run-to-run spread on a shared host was four times
    wider, while the d^2 state and the SVD still do the work.
    """

    name = "entangle_wide"
    spec = CorpusSpec(nodes=120, edges=400, pairs=20, d=128)
    op_label = "triple"
    ops_per_pass = 100

    def setup(self) -> float:
        start = time.perf_counter()
        self.corpus = generate(self.spec, self.seed, self.work / "corpus")
        self.graph = store.ingest(self.corpus.vocabulary, self.corpus.registry, self.corpus.triples).graph
        elapsed = time.perf_counter() - start
        weights = _registry_weights(self.corpus)
        triples = self.graph.triples()
        rng = random.Random(self.seed)
        inert = [t for t, (_, p, _) in triples.items() if weights[p] == 0.0]
        bell = [t for t, (_, p, _) in triples.items() if weights[p] == 1.0]
        loops = [t for t, (s, _, o) in triples.items() if s == o]
        chosen = [rng.choice(group) for group in (inert, bell, loops) if group]
        rest = [t for t in sorted(triples) if t not in chosen]
        chosen += rng.sample(rest, min(self.ops_per_pass - len(chosen), len(rest)))
        self.cases = [(t, weights[triples[t][1]], _support(triples[t][0], triples[t][2], self.spec.d)) for t in chosen]
        d = self.spec.d
        self.planted = rng.randrange(d)
        noise = np.random.default_rng(self.seed)
        self.noisy = noise.normal(0.0, 0.05, d) + 1j * noise.normal(0.0, 0.05, d)
        self.noisy[self.planted] += 1.0
        return elapsed

    def run_pass(self, ops: Ops, in_process: bool = False) -> None:
        voc = self.graph.node_vocabulary
        for k, (tid, weight, support) in enumerate(self.cases):
            seed = self.seed * 1000 + k

            def op(tid=tid, seed=seed):
                joint = entangle.synthesize_joint_state(self.graph, tid)
                return joint, entangle.measure_entanglement(joint), entangle.measure(joint.state, SHOTS, seed)

            def verify(result, tid=tid, weight=weight, support=support, seed=seed, k=k):
                joint, entropy, record = result
                check(abs(entropy - weight) <= ENTROPY_TOL, f"{tid}: entropy {entropy!r} != target {weight!r}")
                check(sum(record.counts.values()) == SHOTS, f"{tid}: counts do not sum to {SHOTS}")
                check(set(record.counts) <= support, f"{tid}: outcomes {sorted(record.counts)} off support {sorted(support)}")
                if k % 10 == 0:
                    again = entangle.measure(joint.state, SHOTS, seed)
                    check(dict(again.counts) == dict(record.counts), f"{tid}: counts differ for a fixed seed")

            ops.step("triple", op, verify, op=True)

        uniform = {symbol: 1.0 / voc.d for symbol in voc}
        ops.step("ensemble_entropy", lambda: qla.von_neumann_entropy(qusym.qusym_ensemble(voc, uniform)),
                 lambda h: check(abs(h - math.log2(voc.d)) <= 1e-9, f"ensemble entropy {h!r} != log2 d"))
        ops.step("tessellate_round", lambda: entangle.tessellate_round(self.noisy, voc),
                 lambda r: check(r[0] == voc.symbol(self.planted), f"rounded to {r[0]}, planted {voc.symbol(self.planted)}"))


def _bipolar(hex_text: str) -> np.ndarray:
    bits = np.array([(int(ch, 16) >> s) & 1 for ch in hex_text for s in (3, 2, 1, 0)], dtype=np.float64)
    return 2.0 * bits - 1.0


def _tensor_bind_oracle(a: str, b: str) -> str:
    """Circular convolution of the bipolar vectors via FFT, thresholded at > 0, as hex."""
    x, y = _bipolar(a), _bipolar(b)
    sums = np.rint(np.fft.irfft(np.fft.rfft(x) * np.fft.rfft(y), n=x.size))
    bits = (sums > 0).astype(int)
    return "".join(f"{int(''.join(map(str, bits[i:i + 4])), 2):x}" for i in range(0, bits.size, 4))


class CliSession(Workload):
    """A fixed script of CLI commands, each a fresh ``python -m qcorolla.cli`` process."""

    name = "cli_session"
    spec = CorpusSpec(nodes=250, edges=1500, pairs=20, d=256)
    op_label = "command"
    # Assumed traffic, not measured: each of the eleven well-formed command forms gets the same
    # share, so seven of eleven commands read the store, one writes a store (ingest) and three
    # only compute (bind twice, round). Six planted bad inputs are added on top.
    per_form = 9
    hex_chars = 1024

    def __init__(self, work: Path, seed: int, spec: CorpusSpec | None = None):
        super().__init__(work, seed, spec)
        self.digests: Dict[int, str] = {}  # stdout digest per script index, kept across set-ups and passes

    def setup(self) -> float:
        start = time.perf_counter()
        self.corpus = generate(self.spec, self.seed, self.work / "corpus")
        graph = store.ingest(self.corpus.vocabulary, self.corpus.registry, self.corpus.triples).graph
        self.store_dir = self.work / "store"
        store.save_snapshot(graph, self.store_dir)
        elapsed = time.perf_counter() - start
        # triple ids are assigned in snapshot order, which is what the CLI sees
        self.script = self._script(store.load_snapshot(self.store_dir))
        return elapsed

    def _script(self, graph) -> List[Tuple[List[str], int, Callable[[str], None]]]:
        """(argv, expected exit code, stdout check) for every command of a pass."""
        exp, d, rng = self.corpus.expected, self.spec.d, random.Random(self.seed)
        st, work = str(self.store_dir), self.work
        weights = _registry_weights(self.corpus)
        triples = graph.triples()
        tids = sorted(triples)
        script = []

        def exact(text: str) -> Callable[[str], None]:
            return lambda out: check(out == text, f"stdout {out[:80]!r} != {text[:80]!r}")

        def query(symbol):
            first = f"node {symbol}: {exp['degree'][symbol]} corolla(s)"
            return (["query", symbol, "--store", st], 0,
                    lambda out: check(out.split("\n", 1)[0] == first, f"query {symbol}: {out[:60]!r}"))

        def on_support(tid, keys):
            s, _, o = triples[tid]
            check({int(k) for k in keys} <= _support(s, o, d), f"{tid}: outcomes off the support")

        def entangle_check(tid):
            def verify(out):
                payload = json.loads(out)
                check(abs(payload["measured_entropy"] - weights[triples[tid][1]]) <= ENTROPY_TOL, f"{tid}: entropy")
                on_support(tid, payload["amplitudes"])
            return verify

        def measure_check(tid):
            def verify(out):
                counts = json.loads(out)["counts"]
                check(sum(counts.values()) == SHOTS, f"{tid}: counts do not sum to {SHOTS}")
                on_support(tid, counts)
            return verify

        def value_check(expected):
            return lambda out: check(abs(float(out) - expected) <= ENTROPY_TOL, f"{out.strip()} != {expected}")

        for symbol in self.corpus.draw_subjects(rng, self.per_form):
            script.append(query(symbol))
        for _ in range(self.per_form):
            script.append((["validate", "--store", st], 0, exact(f"graph valid: {exp['nodes']} nodes, {exp['edges']} edges\n")))
        for k in range(self.per_form):
            path = str(work / f"export_{k}.jsonl")
            script.append((["export", "--jsonl", path, "--store", st], 0,
                           exact(f"exported {exp['edges']} statements to {path}\n")))
        for k in range(self.per_form):
            script.append((["ingest", "--vocab", str(self.corpus.vocabulary), "--registry", str(self.corpus.registry),
                            "--triples", str(self.corpus.triples), "--store", str(work / f"ingest_{k}")], 0,
                           exact(f"ingested {exp['statements']} statements: {exp['nodes']} nodes, {exp['edges']} edges\n")))
        for _ in range(self.per_form):
            tid = rng.choice(tids)
            script.append((["entangle", tid, "--store", st], 0, entangle_check(tid)))
        for _ in range(self.per_form):
            tid = rng.choice(tids)
            script.append((["measure", tid, "--store", st, "--shots", str(SHOTS), "--seed", str(rng.randrange(1 << 30))],
                           0, measure_check(tid)))
        for _ in range(self.per_form):
            tid = rng.choice(tids)
            script.append((["entropy", "--triple", tid, "--store", st], 0, value_check(weights[triples[tid][1]])))
        for k in range(self.per_form):
            base = (2.0, 10.0)[k % 2]
            script.append((["entropy", "--node-vocab", "--store", st, "--base", str(base)], 0,
                           value_check(math.log(d) / math.log(base))))
        for kind in ("bind_xor", "bind_tensor"):
            for _ in range(self.per_form):
                a = "".join(rng.choice("0123456789abcdef") for _ in range(self.hex_chars))
                b = "".join(rng.choice("0123456789abcdef") for _ in range(self.hex_chars))
                if kind == "bind_xor":
                    want = f"{int(a, 16) ^ int(b, 16):0{self.hex_chars}x}\n"
                    script.append((["bind", "--xor", a, b], 0, exact(want)))
                else:
                    script.append((["bind", "--tensor", a, b], 0, exact(_tensor_bind_oracle(a, b) + "\n")))
        for _ in range(self.per_form):
            planted = rng.randrange(d)
            vector = [round(rng.gauss(0.0, 0.05), 4) for _ in range(d)]
            vector[planted] = 1.0
            symbol = graph.node_vocabulary.symbol(planted)
            # '=' keeps argparse from reading a leading '-0.1,...' as an option
            script.append((["round", "--vector=" + ",".join(map(repr, vector)), "--vocab", str(self.corpus.vocabulary)], 0,
                           lambda out, symbol=symbol: check(out.split(" ")[0] == symbol, f"rounded to {out.strip()}")))

        bad_triples = work / "bad.nt"
        bad_triples.write_text("sym:S0 rel:F02 sym:S1\n", encoding="utf-8")  # no terminating '.'
        empty = exact("")
        script += [
            (["query", "sym:Missing", "--store", st], 1, empty),
            (["entangle", f"t{len(tids) + 1}", "--store", st], 1, empty),
            (["measure", tids[0], "--store", st, "--shots", "0"], 1, empty),
            (["ingest", "--vocab", str(self.corpus.vocabulary), "--registry", str(self.corpus.registry),
              "--triples", str(bad_triples), "--store", str(work / "ingest_bad")], 1, empty),
            (["bind", "--xor", "ab", "abc"], 1, empty),
            (["round", "--vector", "1,0,0", "--vocab", str(self.corpus.vocabulary)], 1, empty),
        ]
        rng.shuffle(script)
        return script

    def _run(self, argv: List[str], in_process: bool) -> Tuple[int, str, str]:
        """Exit code, stdout and stderr of one command."""
        if in_process:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.cli_dispatch(argv)
            return code, out.getvalue(), err.getvalue()
        env = dict(os.environ, PYTHONPATH="src")
        done = subprocess.run([sys.executable, "-m", "qcorolla.cli", *argv], env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        return done.returncode, done.stdout, done.stderr

    def run_pass(self, ops: Ops, in_process: bool = False) -> None:
        for k in range(self.per_form):
            shutil.rmtree(self.work / f"ingest_{k}", ignore_errors=True)
        for index, (argv, code, verify_stdout) in enumerate(self.script):

            def verify(result, index=index, code=code, verify_stdout=verify_stdout, kind=argv[0]):
                got, out, err = result
                check(got == code, f"{kind}: exit {got}, expected {code}")
                # a crash also exits 1 with empty stdout; only a handled error prints 'error: ...'
                check("Traceback" not in err and (code == 0 or err.startswith("error: ")),
                      f"{kind}: stderr {err[-200:]!r}")
                verify_stdout(out)
                digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
                check(self.digests.setdefault(index, digest) == digest, f"{kind}: stdout differs from an earlier pass")

            ops.step(f"cli.{argv[0]}", lambda argv=argv: self._run(argv, in_process), verify, op=True)


WORKLOADS = {w.name: w for w in (GraphBuild, EntangleWide, CliSession)}
