"""Fixtures shared by several test modules."""

import sys
from pathlib import Path

import pytest

from closurekb import corpus
from closurekb import retrieval as rt


@pytest.fixture(scope="session")
def benchmark_graphs(tmp_path_factory):
    """The set-up graph, request seeds and request texts of each benchmark workload."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import bench_inputs
    finally:
        sys.path.pop(0)
    graphs = {}
    for name, build in sorted(bench_inputs.BUILDERS.items()):
        workload = build(tmp_path_factory.mktemp(name), 1)
        graph, _ = corpus.ingest_corpus([str(p) for p in workload.inputs])
        seeds = [rt.select_seeds(rt.understand_query(r.text, graph), graph) for r in workload.requests]
        graphs[name] = (graph, seeds, [r.text for r in workload.requests])
    return graphs
