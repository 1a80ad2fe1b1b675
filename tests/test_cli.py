"""CLI contract: subcommands, exit codes, stream separation, determinism."""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qcorolla
from qcorolla import cli
from qcorolla.cli import cli_dispatch
from qcorolla.corolla import CorollaGraph


@pytest.fixture
def store_dir(kinship_paths, tmp_path):
    vocab, registry, triples = kinship_paths
    target = tmp_path / "store"
    code = cli_dispatch(
        [
            "ingest",
            "--vocab", str(vocab),
            "--registry", str(registry),
            "--triples", str(triples),
            "--store", str(target),
        ]
    )
    assert code == 0
    return target


def test_ingest_reports_counts(kinship_paths, tmp_path, capsys):
    vocab, registry, triples = kinship_paths
    code = cli_dispatch(
        [
            "ingest",
            "--vocab", str(vocab),
            "--registry", str(registry),
            "--triples", str(triples),
            "--store", str(tmp_path / "store"),
        ]
    )
    out, err = capsys.readouterr()
    assert code == 0
    assert "ingested 4 statements: 3 nodes, 2 edges" in out
    assert "2 converse statement(s) folded" in err

    with triples.open("a", encoding="utf-8") as file:
        file.write("person:Bob kin:ParentOf person:Alice .\n")
    code = cli_dispatch(["ingest", "--vocab", str(vocab), "--registry", str(registry),
                         "--triples", str(triples), "--store", str(tmp_path / "store")])
    assert (code, *capsys.readouterr()) == (
        0,
        "ingested 5 statements: 3 nodes, 2 edges\n",
        "warning: 1 duplicate statement(s) skipped\nnote: 2 converse statement(s) folded\n",
    )


def test_validate_kinship_corpus(store_dir, capsys):
    code = cli_dispatch(["validate", "--store", str(store_dir)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "graph valid: 3 nodes, 2 edges" in out


def test_query_node(store_dir, capsys):
    code = cli_dispatch(["query", "person:Bob", "--store", str(store_dir)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "kin:ParentOf" in out and "kin:HusbandOf" in out
    assert "person:Alice kin:ChildOf person:Bob ." in out


def test_query_unknown_node_exits_one(store_dir, capsys):
    code = cli_dispatch(["query", "person:Zed", "--store", str(store_dir)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "person:Zed" in err
    assert "Traceback" not in err


def test_a_node_is_a_symbol_that_some_triple_names(kinship_paths, tmp_path, capsys):
    vocab, registry, triples = kinship_paths
    with vocab.open("a", encoding="utf-8") as out:
        out.write("person:Zoe\n")
    store = str(tmp_path / "store")
    assert cli_dispatch(["ingest", "--vocab", str(vocab), "--registry", str(registry),
                         "--triples", str(triples), "--store", store]) == 0
    assert capsys.readouterr().out == "ingested 4 statements: 3 nodes, 2 edges\n"
    assert cli_dispatch(["validate", "--store", store]) == 0
    assert capsys.readouterr() == ("graph valid: 3 nodes, 2 edges\n", "")
    assert cli_dispatch(["query", "person:Zoe", "--store", store]) == 1
    assert capsys.readouterr() == ("", "error: node 'person:Zoe' not in graph\n")


def test_entangle_emits_state_json(store_dir, capsys):
    # snapshots sort triples, so t2 is the ParentOf edge (weight 0.4)
    code = cli_dispatch(["entangle", "t2", "--store", str(store_dir)])
    out, _ = capsys.readouterr()
    assert code == 0
    payload = json.loads(out)
    assert payload["statement"] == ["person:Bob", "kin:ParentOf", "person:Alice"]
    assert payload["target_entropy"] == 0.4
    assert abs(payload["measured_entropy"] - 0.4) <= 1e-6


def test_measure_seeded_determinism(store_dir, capsys):
    argv = ["measure", "t1", "--shots", "100000", "--seed", "42", "--store", str(store_dir)]
    assert cli_dispatch(argv) == 0
    first, _ = capsys.readouterr()
    assert cli_dispatch(argv) == 0
    second, _ = capsys.readouterr()
    assert first == second
    payload = json.loads(first)
    assert set(payload) == {"seed", "shots", "counts"}
    assert sum(payload["counts"].values()) == 100_000


def test_entropy_triple_prints_weight(store_dir, capsys):
    code = cli_dispatch(["entropy", "--triple", "t2", "--base", "2", "--store", str(store_dir)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert abs(float(out.strip()) - 0.4) <= 1e-6
    assert out.strip() == "0.400000"


def test_entropy_node_vocab(store_dir, capsys):
    code = cli_dispatch(["entropy", "--node-vocab", "--base", "3", "--store", str(store_dir)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.strip() == "1.000000"  # uniform over 3 symbols in base 3


def test_entropy_triple_base_conversion(store_dir, capsys):
    # t1 is the HusbandOf edge (1 bit); in base 4 that is half a unit
    code = cli_dispatch(["entropy", "--triple", "t1", "--base", "4", "--store", str(store_dir)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.strip() == "0.500000"


def test_bind_xor_hex(capsys):
    code = cli_dispatch(["bind", "--xor", "deadbeef", "cafebabe"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.strip() == "14530451"


# only ASCII 0-9a-fA-F is hex: int(ch, 16) would also take any Unicode decimal digit
BAD_HEX = {
    "arabic-indic digits": (["\u0663\u0663", "00"], "operand a: '\u0663' (U+0663) at position 1"),
    "mathematical digits": (["\U0001d7d9\U0001d7d8", "00"], "operand a: '\U0001d7d9' (U+1D7D9) at position 1"),
    "letters past f": (["zz", "00"], "operand a: 'z' (U+007A) at position 1"),
    "letters past f in b": (["00", "zz"], "operand b: 'z' (U+007A) at position 1"),
    # int(text, 16) accepts each of these, so the ASCII check must come first
    "underscore": (["de_ad", "0000"], "operand a: '_' (U+005F) at position 3"),
    "0x prefix": (["0xab", "0000"], "operand a: 'x' (U+0078) at position 2"),
    "leading space": ([" ab", "000"], "operand a: ' ' (U+0020) at position 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_HEX))
def test_bind_rejects_a_character_that_is_not_ascii_hex(capsys, case):
    operands, fault = BAD_HEX[case]
    code = cli_dispatch(["bind", "--xor", *operands])
    assert (code, *capsys.readouterr()) == (1, "", f"error: {fault} is not a hex digit 0-9, a-f or A-F\n")


def test_bind_tensor_compresses_to_n(capsys):
    code = cli_dispatch(["bind", "--tensor", "deadbeef", "cafebabe"])
    out, _ = capsys.readouterr()
    assert code == 0
    assert len(out.strip()) == 8  # 32 bits -> 8 hex characters


def test_export_jsonl(store_dir, tmp_path, capsys):
    out_path = tmp_path / "edges.jsonl"
    code = cli_dispatch(["export", "--jsonl", str(out_path), "--store", str(store_dir)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert "exported 2 statements" in out
    assert len(out_path.read_text().splitlines()) == 2


def test_round_vector(kinship_paths, capsys):
    vocab, _, _ = kinship_paths
    code = cli_dispatch(["round", "--vector", "0.9,0.1,0.05", "--vocab", str(vocab)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out.strip() == "person:Bob 0.984802"


def test_usage_error_exit_code():
    assert cli_dispatch(["no-such-command"]) == 2
    assert cli_dispatch(["measure"]) == 2
    assert cli_dispatch([]) == 2


BAD_BASIS = {
    "three indices": ("0,1,2", "--basis needs exactly four comma-separated indices"),
    "not an integer": ("0,1,x,2", "--basis needs integer indices, got '0,1,x,2'"),
}


@pytest.mark.parametrize("case", sorted(BAD_BASIS))
def test_bad_basis_prints_its_own_diagnosis(store_dir, capsys, case):
    basis, diagnosis = BAD_BASIS[case]
    assert cli_dispatch(["entangle", "t1", "--store", str(store_dir), "--basis", basis]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines()[-1] == f"qcorolla entangle: error: argument --basis: {diagnosis}"


def test_help_exits_zero():
    assert cli_dispatch(["--help"]) == 0


def test_data_failure_exit_code(tmp_path, capsys):
    code = cli_dispatch(["validate", "--store", str(tmp_path / "missing")])
    _, err = capsys.readouterr()
    assert code == 1
    assert "error:" in err


def test_parse_failure_reports_location(kinship_paths, tmp_path, capsys):
    vocab, registry, triples = kinship_paths
    triples.write_text("person:Bob kin:ParentOf person:Alice\n", encoding="utf-8")
    code = cli_dispatch(
        [
            "ingest",
            "--vocab", str(vocab),
            "--registry", str(registry),
            "--triples", str(triples),
            "--store", str(tmp_path / "store"),
        ]
    )
    _, err = capsys.readouterr()
    assert code == 1
    assert "line 1" in err


def test_unknown_triple_id(store_dir, capsys):
    code = cli_dispatch(["entangle", "t99", "--store", str(store_dir)])
    _, err = capsys.readouterr()
    assert code == 1
    assert "t99" in err


def test_measure_rejects_oversized_shots(store_dir, capsys):
    code = cli_dispatch(["measure", "t1", "--shots", "99999999999999999999", "--store", str(store_dir)])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error:")


# stdout of the dense (SVD and d²-amplitude) implementation on the kinship corpus;
# the closed-form joint state must reproduce it byte for byte
KINSHIP_STDOUT = {
    "entangle t1": '{"amplitudes": {"0": [0.7071067811865476, 0.0], "8": [0.7071067811865476, 0.0]}, '
    '"basis": [0, 2, 0, 2], "dims": [3, 3], "measured_entropy": 0.9999999999999999, '
    '"statement": ["person:Bob", "kin:HusbandOf", "person:Mary"], "target_entropy": 1.0, "triple": "t1"}\n',
    "entangle t1 --basis 2,0,1,2": '{"amplitudes": {"2": [0.7071067811865476, 0.0], "7": [0.7071067811865476, 0.0]}, '
    '"basis": [2, 0, 1, 2], "dims": [3, 3], "measured_entropy": 0.9999999999999999, '
    '"statement": ["person:Bob", "kin:HusbandOf", "person:Mary"], "target_entropy": 1.0, "triple": "t1"}\n',
    "entangle t2": '{"amplitudes": {"0": [0.28174918008869004, 0.0], "4": [0.959488092432288, 0.0]}, '
    '"basis": [0, 1, 0, 1], "dims": [3, 3], "measured_entropy": 0.3999999999999999, '
    '"statement": ["person:Bob", "kin:ParentOf", "person:Alice"], "target_entropy": 0.4, "triple": "t2"}\n',
    "measure t1 --seed 0 --shots 1000": '{"counts": {"0": 521, "8": 479}, "seed": 0, "shots": 1000}\n',
    "measure t1 --seed 42 --shots 100000": '{"counts": {"0": 49707, "8": 50293}, "seed": 42, "shots": 100000}\n',
    "measure t1 --seed 7 --shots 1": '{"counts": {"0": 1}, "seed": 7, "shots": 1}\n',
    "measure t2 --seed 0 --shots 1000": '{"counts": {"0": 74, "4": 926}, "seed": 0, "shots": 1000}\n',
    "measure t2 --seed 42 --shots 100000": '{"counts": {"0": 7782, "4": 92218}, "seed": 42, "shots": 100000}\n',
    "measure t2 --seed 7 --shots 1": '{"counts": {"4": 1}, "seed": 7, "shots": 1}\n',
    "entropy --triple t1 --base 2": "1.000000\n",
    "entropy --triple t1 --base 3": "0.630930\n",
    "entropy --triple t1 --base 10": "0.301030\n",
    "entropy --triple t2 --base 2": "0.400000\n",
    "entropy --triple t2 --base 3": "0.252372\n",
    "entropy --triple t2 --base 10": "0.120412\n",
    "entropy --node-vocab --base 1.5": "2.709511\n",
    "entropy --node-vocab --base 2": "1.584963\n",
    "entropy --node-vocab --base 2.718281828459045": "1.098612\n",
    "entropy --node-vocab --base 10": "0.477121\n",
}


@pytest.mark.parametrize("command", sorted(KINSHIP_STDOUT))
def test_kinship_stdout_matches_dense_implementation(store_dir, capsys, command):
    code = cli_dispatch([*command.split(), "--store", str(store_dir)])
    out, _ = capsys.readouterr()
    assert code == 0
    assert out == KINSHIP_STDOUT[command]


@pytest.mark.parametrize("command", ["ingest", "round"])
def test_bare_vocabulary_entry_exits_one(kinship_paths, tmp_path, capsys, command):
    vocab, registry, triples = kinship_paths
    vocab.write_text("person:Bob\nAlice\nperson:Mary\n", encoding="utf-8")
    argv = {
        "ingest": ["ingest", "--vocab", str(vocab), "--registry", str(registry),
                   "--triples", str(triples), "--store", str(tmp_path / "store")],
        "round": ["round", "--vector", "0.9,0.1,0.05", "--vocab", str(vocab)],
    }[command]
    code = cli_dispatch(argv)
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.startswith("error: line 2, column 1:")
    assert "Traceback" not in err


# bad source file -> (file index: 0 vocabulary, 1 registry, 2 triples, its bytes, stderr's first line)
BAD_SOURCES = {
    "unknown node symbol": (
        2, b"person:Bob kin:ParentOf person:Alice .\nperson:Bob kin:HusbandOf  person:Zed .\n",
        "error: line 2, column 27: node symbol 'person:Zed' not in vocabulary",
    ),
    "unknown predicate": (
        2, b"person:Bob\tkin:Foo person:Alice .\n",
        "error: line 1, column 12: predicate 'kin:Foo' not registered",
    ),
    "duplicate vocabulary symbol": (
        0, b"person:Bob\nperson:Alice\n# again\n  person:Bob\n",
        "error: line 4, column 3: duplicate symbol 'person:Bob'",
    ),
    "predicate registered twice": (
        1, b"kin:ParentOf <-> kin:ChildOf = 0.4\nkin:A <-> kin:B = 1.0\nkin:A <-> kin:C = 0.5\n",
        "error: line 3, column 1: predicate 'kin:A' already registered",
    ),
    # the first fault in line order is reported: an unknown predicate before a missing '.'
    "several faults": (
        2, b"person:Bob kin:Foo person:Alice .\nperson:Bob kin:ParentOf person:Alice\n",
        "error: line 1, column 12: predicate 'kin:Foo' not registered",
    ),
    "invalid utf-8": (
        2, b"person:Bob kin:ParentOf person:Alice .\r\nperson:Bob kin:HusbandOf person:M\xffary .\r\n",
        "error: line 2, column 34: byte 0xff is not UTF-8 (invalid start byte)",
    ),
    "invalid utf-8 after a byte-order mark": (
        0, b"\xef\xbb\xbfperson:Bob\xc3\n",
        "error: line 1, column 11: byte 0xc3 is not UTF-8 (invalid continuation byte)",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SOURCES))
def test_bad_source_reports_line_and_column(kinship_paths, tmp_path, capsys, case):
    index, content, first_line = BAD_SOURCES[case]
    kinship_paths[index].write_bytes(content)
    vocab, registry, triples = kinship_paths
    code = cli_dispatch(["ingest", "--vocab", str(vocab), "--registry", str(registry),
                         "--triples", str(triples), "--store", str(tmp_path / "store")])
    out, err = capsys.readouterr()
    assert code == 1
    assert out == ""
    assert err.splitlines() == [first_line]
    assert not (tmp_path / "store").exists()


def test_parse_fault_on_the_last_line_leaves_the_store(store_dir, kinship_paths, capsys, monkeypatch):
    before = {path.name: path.read_bytes() for path in store_dir.iterdir()}
    joined = []
    add_edge = CorollaGraph.add_edge
    monkeypatch.setattr(CorollaGraph, "add_edge", lambda graph, s, p, o: (
        joined.append(s), add_edge(graph, s, p, o))[1])
    vocab, registry, triples = kinship_paths
    with triples.open("a", encoding="utf-8") as out:
        out.write("person:Bob kin:ParentOf person:Alice\n")
    code = cli_dispatch(["ingest", "--vocab", str(vocab), "--registry", str(registry),
                         "--triples", str(triples), "--store", str(store_dir)])
    assert (code, *capsys.readouterr()) == (1, "", "error: line 5, column 37: statement must end with '.'\n")
    assert joined == ["person:Bob"] * 2  # the edges of the lines before the fault were added as they were parsed
    assert {path.name: path.read_bytes() for path in store_dir.iterdir()} == before


def test_main_dispatches_with_the_collector_off(monkeypatch):
    collecting = []
    monkeypatch.setattr(sys, "argv", ["qcorolla", "--help"])
    monkeypatch.setattr(cli, "cli_dispatch", lambda argv: collecting.append(gc.isenabled()) or 0)
    try:
        with pytest.raises(SystemExit) as exit_:
            cli.main()
    finally:
        gc.enable()
    assert (exit_.value.code, collecting) == (0, [False])


# commands that must run without importing numpy, dataclasses or inspect, with the arguments
# after the command name
NUMPY_FREE = {
    "query": ["person:Bob"],
    "validate": [],
    "export": ["--jsonl", "{tmp}/out.jsonl"],
    "ingest": ["--vocab", "{vocab}", "--registry", "{registry}", "--triples", "{triples}"],
    "entangle": ["t1"],
    "entropy --triple": ["t2", "--base", "3"],
    "entropy --node-vocab": [],
    "bind --xor": ["deadbeef", "cafebabe"],
    "bind --tensor": ["deadbeef", "cafebabe"],
    "measure": ["t1", "--shots", "1000", "--seed", "0"],
    "measure --shots 0": ["t1"],
    "measure --seed -1": ["t1"],
    "round": ["--vector", "0.9,0.1,0.05", "--vocab", "{vocab}"],
}
# commands of NUMPY_FREE that are rejected, with the diagnosis each prints
NUMPY_FREE_EXIT_1 = {
    "measure --shots 0": f"error: shots must lie in [1, {2**63 - 1}], got 0",
    "measure --seed -1": "error: expected non-negative integer",
}

# modules no command needs: numpy serves only the dense paths, and dataclasses (which loads
# inspect) only qla
HEAVY = {"numpy", "dataclasses", "inspect"}


@pytest.mark.parametrize("command", sorted(NUMPY_FREE))
def test_command_runs_without_numpy(store_dir, kinship_paths, tmp_path, command):
    vocab, registry, triples = kinship_paths
    places = {"tmp": tmp_path, "vocab": vocab, "registry": registry, "triples": triples}
    store = tmp_path / "fresh" if command == "ingest" else store_dir
    argv = [*command.split(), *(a.format(**places) for a in NUMPY_FREE[command])]
    if not command.startswith(("bind", "round")):
        argv += ["--store", str(store)]
    src = str(Path(qcorolla.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "qcorolla.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == (1 if command in NUMPY_FREE_EXIT_1 else 0), done.stderr
    imported, diagnostics = set(), []
    for line in done.stderr.splitlines():  # "import time: self | cumulative | name", one per module loaded
        if line.startswith("import time:"):
            imported.add(line.rsplit("|", 1)[1].strip())
        else:
            diagnostics.append(line)
    assert "qcorolla.errors" in imported and not imported & HEAVY, imported & HEAVY
    if command in NUMPY_FREE_EXIT_1:
        assert diagnostics == [NUMPY_FREE_EXIT_1[command]]


# commands with their arguments, and the layers each must not load because it does not run them
UNLOADED = {
    "bind --xor": (["deadbeef", "cafebabe"], {"qcorolla.store", "qcorolla.corolla", "qcorolla.qusym", "json"}),
    "bind --tensor": (["deadbeef", "cafebabe"], {"qcorolla.store", "qcorolla.corolla", "qcorolla.qusym", "json"}),
    "round": (["--vector", "0.9,0.1,0.05", "--vocab", "{vocab}"], {"qcorolla.store", "qcorolla.corolla", "json"}),
}

_LAYER_PROBE = """import sys
from qcorolla.cli import cli_dispatch
code = cli_dispatch(sys.argv[1:])
print(*sorted(sys.modules), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("command", sorted(UNLOADED))
def test_command_loads_only_the_layers_it_runs(kinship_paths, command):
    args, unloaded = UNLOADED[command]
    argv = [*command.split(), *(a.format(vocab=kinship_paths[0]) for a in args)]
    src = str(Path(qcorolla.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", _LAYER_PROBE, *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stderr.split())
    assert "qcorolla.cli" in loaded and not loaded & unloaded, loaded


def test_validate_warns_of_each_inert_edge_in_line_order(kinship_paths, tmp_path, capsys):
    vocab, registry, triples = kinship_paths
    registry.write_text("kin:ParentOf <-> kin:ChildOf = 0\nkin:HusbandOf <-> kin:WifeOf = 1.0\n", encoding="utf-8")
    triples.write_text("person:Mary kin:ParentOf person:Alice .\nperson:Bob kin:ParentOf person:Alice .\n"
                       "person:Bob kin:HusbandOf person:Mary .\n", encoding="utf-8")
    store = str(tmp_path / "store")
    assert cli_dispatch(["ingest", "--vocab", str(vocab), "--registry", str(registry),
                         "--triples", str(triples), "--store", store]) == 0
    capsys.readouterr()
    # line order: t1 Bob HusbandOf Mary, t2 Bob ParentOf Alice, t3 Mary ParentOf Alice
    assert cli_dispatch(["validate", "--store", store]) == 0
    assert capsys.readouterr() == (
        "graph valid: 3 nodes, 3 edges\n",
        "warning: edge t2 is semantically inert (weight 0)\nwarning: edge t3 is semantically inert (weight 0)\n",
    )


NON_FINITE = {
    "node-vocab base nan": ["entropy", "--node-vocab", "--base", "nan"],
    "node-vocab base inf": ["entropy", "--node-vocab", "--base", "inf"],
    "node-vocab base 1e400": ["entropy", "--node-vocab", "--base", "1e400"],
    "triple base nan": ["entropy", "--triple", "t1", "--base", "nan"],
    "triple base inf": ["entropy", "--triple", "t1", "--base", "inf"],
    "triple base 1e400": ["entropy", "--triple", "t1", "--base", "1e400"],
    "round nan": ["round", "--vector=nan,0,0"],
    "round inf": ["round", "--vector=0,inf,0"],
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_numbers_exit_1_without_a_warning(store_dir, kinship_paths, case):
    argv = NON_FINITE[case]
    argv = argv + (["--vocab", str(kinship_paths[0])] if argv[0] == "round" else ["--store", str(store_dir)])
    src = str(Path(qcorolla.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "qcorolla.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and len(done.stderr.splitlines()) == 1
    assert "Warning" not in done.stderr and "Traceback" not in done.stderr
