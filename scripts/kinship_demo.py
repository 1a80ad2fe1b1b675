#!/usr/bin/env python3
"""End-to-end walkthrough on the kinship corpus in data/kinship.

Ingests the corpus, validates the graph, queries a node, synthesizes each
edge's joint state, and samples seeded measurements.
"""

import argparse
import json
from pathlib import Path

from qcorolla.entangle import measure, measure_entanglement, synthesize_joint_state
from qcorolla.store import ingest, query_node

DATA = Path(__file__).resolve().parents[1] / "data" / "kinship"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shots", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    result = ingest(DATA / "vocabulary.txt", DATA / "registry.txt", DATA / "triples.nt")
    graph = result.graph
    print(f"ingested {result.statements} statements "
          f"({result.folded} converse folds, {result.duplicates} duplicates)")
    report = graph.validate()
    print(f"graph valid: {report.is_valid} "
          f"({graph.node_count} nodes, {graph.edge_count} edges)")

    print("\nquery person:Bob")
    for line in query_node(graph, "person:Bob").lines():
        print(" ", line)

    for tid in graph.triple_ids():
        s, p, o = graph.triple(tid)
        joint = synthesize_joint_state(graph, tid)
        record = measure(joint, shots=args.shots, seed=args.seed)
        print(f"\n{tid}: {s} {p} {o} .")
        print(f"  converse reading : {' '.join(graph.converse_of(tid))} .")
        print(f"  target entropy   : {joint.target_entropy:.6f} bits")
        print(f"  measured entropy : {measure_entanglement(joint):.6f} bits")
        print(f"  {args.shots} shots  : {json.dumps(record.as_dict()['counts'])}")


if __name__ == "__main__":
    main()
