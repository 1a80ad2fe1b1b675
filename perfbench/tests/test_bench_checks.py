"""Output checks feed the error rate: clean runs pass, planted wrong expectations fail."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from corpus import CorpusSpec
from workloads import CliSession, EntangleWide, GraphBuild, Ops

BENCH = Path(__file__).resolve().parent.parent
SMALL = {
    GraphBuild: CorpusSpec(nodes=400, edges=900, pairs=6, d=420),
    EntangleWide: CorpusSpec(nodes=40, edges=120, pairs=6, d=48),
    CliSession: CorpusSpec(nodes=40, edges=120, pairs=6, d=48),
}


def _workload(cls, tmp_path, seed=4):
    workload = cls(tmp_path, seed, SMALL[cls])
    workload.setup()
    return workload


@pytest.mark.parametrize("cls", [GraphBuild, EntangleWide, CliSession])
def test_clean_pass_has_no_failures(cls, tmp_path):
    workload, ops = _workload(cls, tmp_path), Ops()
    workload.run_pass(ops, in_process=True)
    assert ops.failures == []
    assert ops.attempted >= 100 and len(ops.op_ms) >= 100


@pytest.mark.parametrize("key", ["edges", "folded", "duplicates", "statements"])
def test_off_by_one_count_in_graph_build_fails(tmp_path, key):
    workload, ops = _workload(GraphBuild, tmp_path), Ops()
    workload.corpus.expected[key] += 1
    workload.run_pass(ops)
    assert ops.failed / ops.attempted > 0


def test_wrong_degree_fails_one_query(tmp_path):
    workload, ops = _workload(GraphBuild, tmp_path), Ops()
    leaf = next(s for s in workload.queries if workload.queries.count(s) == 1)
    workload.corpus.expected["degree"][leaf] += 1
    workload.run_pass(ops)
    assert ops.failed == 1


def test_wrong_target_entropy_fails(tmp_path):
    workload, ops = _workload(EntangleWide, tmp_path), Ops()
    tid, weight, support = workload.cases[0]
    workload.cases[0] = (tid, weight + 0.01, support)
    workload.run_pass(ops)
    assert ops.failed == 1


def test_wrong_exit_code_and_changed_stdout_fail(tmp_path):
    workload, ops = _workload(CliSession, tmp_path), Ops()
    argv, code, verify = workload.script[0]
    workload.script[0] = (argv, 1 - code, verify)
    workload.run_pass(ops, in_process=True)
    assert ops.failed == 1
    workload.script[0] = (argv, code, verify)
    workload.digests[1] = "0" * 64  # an earlier pass printed something else
    workload.run_pass(ops, in_process=True)
    assert ops.failed == 2


def test_crash_with_exit_code_one_fails(tmp_path, monkeypatch):
    workload, ops = _workload(CliSession, tmp_path), Ops()
    crash = (1, "", "Traceback (most recent call last):\nRuntimeError: boom\n")
    monkeypatch.setattr(workload, "_run", lambda argv, in_process: crash)
    workload.run_pass(ops, in_process=True)
    assert ops.failed == ops.attempted == len(workload.script)


def test_run_refuses_a_directory_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((BENCH.parent / "BENCHMARK.json").read_bytes())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "graph_build", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
