"""Command-line driver for the triple store and the simulation layers.

Exit codes: 0 success, 1 validation/data failure, 2 usage error. All
diagnostics go to stderr; machine-readable data goes to stdout. The only
entropy source is the ``--seed`` flag, so identical invocations produce
identical output.

Each handler imports only the layers its command runs: the module itself
loads none, so ``bind`` loads only ``vsa`` and ``round`` no ``store``. No
command loads ``dataclasses``, and only those that read ``snapshot.json``
or print JSON load ``json``. No command loads numpy: ``bind``'s XOR and
tensor fold are integer operations, ``measure`` samples through ``pcg64``,
a plain-Python port of numpy's seeded binomial stream, and ``round``
normalizes in plain Python. Every store command opens
the snapshot through ``store.open_snapshot``; only ``validate``, ``query``
and ``export`` build the graph, while ``entangle``, ``measure`` and
``entropy --triple`` read one line of it and ``entropy --node-vocab`` only d.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import QcorollaError


def basis_indices(text: str) -> tuple:
    # argparse prints an ArgumentTypeError's own text, but replaces a ValueError's
    parts = text.split(",")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("--basis needs exactly four comma-separated indices")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--basis needs integer indices, got {text!r}") from None


def amplitude_list(text: str) -> list:
    return [complex(p.strip()) for p in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qcorolla",
        description="Quantum-symbol triple store: ingest, validate, entangle, measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse source files and write a store snapshot")
    p.add_argument("--vocab", required=True, help="node vocabulary file (one symbol per line)")
    p.add_argument("--registry", required=True, help="converse registry file (f <-> b = p lines)")
    p.add_argument("--triples", required=True, help="triples file (s p o . lines)")
    p.add_argument("--store", required=True, help="snapshot directory to create")

    p = sub.add_parser("validate", help="check a store snapshot's graph invariants")
    p.add_argument("--store", required=True)

    p = sub.add_parser("query", help="report a node's corollas and triples")
    p.add_argument("node")
    p.add_argument("--store", required=True)

    p = sub.add_parser("entangle", help="synthesize a triple's joint state")
    p.add_argument("triple")
    p.add_argument("--store", required=True)
    p.add_argument("--basis", type=basis_indices, help="explicit basis indices iL,jL,iR,jR")

    p = sub.add_parser("measure", help="sample projective measurements of a triple's state")
    p.add_argument("triple")
    p.add_argument("--store", required=True)
    p.add_argument("--shots", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("entropy", help="report an entropy in a chosen base")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--triple", help="entanglement entropy of this triple's state")
    group.add_argument(
        "--node-vocab",
        action="store_true",
        help="entropy of a uniform draw from the node vocabulary",
    )
    p.add_argument("--store", required=True)
    p.add_argument("--base", type=float, default=2.0)

    p = sub.add_parser("bind", help="bind two hex-encoded hypervectors")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--xor", action="store_true", help="XOR binding (dimension-preserving)")
    group.add_argument(
        "--tensor",
        action="store_true",
        help="tensor binding compressed back to dimension n",
    )
    p.add_argument("a")
    p.add_argument("b")

    p = sub.add_parser("export", help="export the store's edges as JSON lines")
    p.add_argument("--jsonl", required=True, help="output path")
    p.add_argument("--store", required=True)

    p = sub.add_parser("round", help="round a noisy vector onto a vocabulary basis")
    p.add_argument("--vector", required=True, type=amplitude_list,
                   help="comma-separated amplitudes")
    p.add_argument("--vocab", required=True, help="vocabulary file")

    return parser


def _cmd_ingest(args) -> int:
    from . import store

    result = store.ingest(args.vocab, args.registry, args.triples)
    store.save_snapshot(result.graph, args.store)
    if result.duplicates:
        print(f"warning: {result.duplicates} duplicate statement(s) skipped", file=sys.stderr)
    if result.folded:
        print(f"note: {result.folded} converse statement(s) folded", file=sys.stderr)
    print(
        f"ingested {result.statements} statements: "
        f"{result.graph.node_count} nodes, {result.graph.edge_count} edges"
    )
    return 0


def _cmd_validate(args) -> int:
    from . import store

    graph = store.load_snapshot(args.store)
    for line in graph.validate().lines():  # a loaded graph is valid: these can only be inert-edge warnings
        print(line, file=sys.stderr)
    print(f"graph valid: {graph.node_count} nodes, {graph.edge_count} edges")
    return 0


def _cmd_query(args) -> int:
    from . import store

    graph = store.load_snapshot(args.store)
    for line in store.query_node(graph, args.node).lines():
        print(line)
    return 0


def _triple_state(args, basis_choice=None):
    """The triple named on the command line and its joint state, read
    straight from the snapshot's files."""
    from . import entangle, store

    triple = store.read_triple(args.store, args.triple)
    joint = entangle.triple_joint_state(
        triple.d, triple.subject_index, triple.object_index, triple.weight, basis_choice
    )
    return triple, joint


def _cmd_entangle(args) -> int:
    import json

    from . import entangle

    triple, joint = _triple_state(args, args.basis)
    # the synthesized amplitudes are real, and only the two Schmidt terms can be nonzero
    amplitudes = {str(i): [a, 0.0] for i, a in joint.support() if a != 0}
    payload = {
        "triple": args.triple,
        "statement": list(triple.statement),
        "dims": list(joint.dims),
        "basis": list(joint.basis),
        "target_entropy": joint.target_entropy,
        "measured_entropy": entangle.measure_entanglement(joint),
        "amplitudes": amplitudes,
    }
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_measure(args) -> int:
    import json

    from . import entangle

    _, joint = _triple_state(args)
    record = entangle.measure(joint, shots=args.shots, seed=args.seed)
    print(json.dumps(record.as_dict(), sort_keys=True))
    return 0


def _cmd_entropy(args) -> int:
    if args.triple is not None:
        from . import entangle

        _, joint = _triple_state(args)
        value = entangle.measure_entanglement(joint, base=args.base)
    else:
        from . import qusym, store

        value = qusym.uniform_entropy(store.open_snapshot(args.store).d, base=args.base)
    print(f"{value:.6f}")
    return 0


def _cmd_bind(args) -> int:
    from . import vsa

    operands = []
    for name, text in (("a", args.a), ("b", args.b)):
        try:
            operands.append(vsa.HyperVector.from_hex(text))
        except ValueError as exc:
            raise ValueError(f"operand {name}: {exc}") from None
    a, b = operands
    if args.xor:
        print(vsa.bind_xor(a, b).to_hex())
    else:
        # the tensor product is folded back to n bits for hex interchange; its n^2 matrix is never built
        print(vsa.compress_outer(vsa.bind_tensor(a, b)).to_hex())
    return 0


def _cmd_export(args) -> int:
    from . import store

    graph = store.load_snapshot(args.store)
    count = store.export_jsonl(graph, args.jsonl)
    print(f"exported {count} statements to {args.jsonl}")
    return 0


def _cmd_round(args) -> int:
    from . import entangle, qusym

    voc = qusym.load_vocabulary(args.vocab)
    symbol, fidelity = entangle.tessellate_round(args.vector, voc)
    print(f"{symbol} {fidelity:.6f}")
    return 0


_HANDLERS = {
    "ingest": _cmd_ingest,
    "validate": _cmd_validate,
    "query": _cmd_query,
    "entangle": _cmd_entangle,
    "measure": _cmd_measure,
    "entropy": _cmd_entropy,
    "bind": _cmd_bind,
    "export": _cmd_export,
    "round": _cmd_round,
}


def cli_dispatch(argv: list[str]) -> int:
    """Run one CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse exits 2 on usage errors, 0 on --help
        return int(exit_.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except (QcorollaError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def __getattr__(name: str):
    # perfbench/tracing.py rebinds these two names; serve them from qla on demand
    if name in ("entanglement_entropy", "von_neumann_entropy"):
        from . import qla

        return getattr(qla, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def main() -> None:
    gc.disable()  # one command per process, freed at exit: no collection need walk the graph it built
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
