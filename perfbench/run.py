"""closurekb benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload kb-scale --seed 1 --seconds 20 --trace 0

Builds the workload's input files from the seed, then sets up the graph the
way `closurekb ingest` followed by `closurekb generate` does (ingest, save,
JSON file, load, freeze, index) at least five times and for at least two
seconds, and keeps the median. It then answers whole rounds of the
workload's instructions through `codegen.repair_loop`, one at a time, until
`--seconds` have passed, and checks every answer against facts derived from
the inputs.

Prints each metric by name with its unit, and as the last line one JSON
object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
metrics with `--trace 0`, the per-layer metrics with `--trace 1`). The
traced run also writes its spans to `perfbench/out/trace-<workload>-seed<n>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
if not (SRC / "closurekb" / "__init__.py").is_file():
    sys.exit(f"closurekb sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import bench_checks  # noqa: E402
import bench_generators  # noqa: E402
import bench_inputs  # noqa: E402
import bench_trace  # noqa: E402
from closurekb import codegen, corpus, retrieval  # noqa: E402
from closurekb import knowledge_graph as kg  # noqa: E402

# Set up at least this many times and for at least this long; report the median.
SETUP_REPEATS = 5
SETUP_SECONDS = 2.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench_inputs.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def set_up(workload, workdir: Path, span):
    """Input files -> frozen, aligned, indexed graph, as the CLI does it."""
    with span("corpus.ingest_corpus"):
        graph, _alignment = corpus.ingest_corpus([str(p) for p in workload.inputs])
    document = kg.save(graph)
    del graph
    path = workdir / "graph.kg.json"
    with span("setup.json_io"):
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        del document
        document = json.loads(path.read_text(encoding="utf-8"))
    graph = kg.load(document)
    graph.freeze()
    return graph, retrieval.index_snippets(graph)


def tail_line(latencies_ms: list[float]) -> str:
    """The highest of p99.9/p99/p90 with at least ten samples beyond it."""
    n = len(latencies_ms)
    ordered = sorted(latencies_ms)
    for p in (99.9, 99.0, 90.0):
        beyond = n - math.ceil(p / 100 * n)
        if beyond >= 10:
            value = ordered[n - beyond - 1]
            return f"request_ms_p{p:g}: {value:.4f} ms (n={n}, {beyond} beyond; failed requests count as inf)"
    return f"no tail percentile: {n} samples"


def measure(args, workdir: Path) -> dict:
    workload = bench_inputs.BUILDERS[args.workload](workdir, args.seed)
    tracer = None
    span = lambda _name: contextlib.nullcontext()  # noqa: E731
    if args.trace:
        tracer = bench_trace.Tracer()
        tracer.install()
        span = tracer.span

    setup_s: list[float] = []
    while len(setup_s) < SETUP_REPEATS or sum(setup_s) < SETUP_SECONDS:
        graph = index = None
        start = time.perf_counter()
        graph, index = set_up(workload, workdir, span)
        setup_s.append(time.perf_counter() - start)
    problems = []
    size = (len(graph), len(index.doc_ids))
    if size != (workload.facts["entities"], workload.facts["snippet_docs"]):
        problems.append(f"graph has (entities, snippet docs) {size}, expected {workload.facts}")

    # Checks inside the loop are cheap comparisons with the first answer; the
    # content of each first answer is checked once, after the loop.
    requests = workload.requests
    first: list = [None] * len(requests)  # (code, snippet ids)
    code_by_text: dict[str, str] = {}
    latencies_ms: list[float] = []
    passed: list[bool] = []  # per answer, in loop order
    prompt_bytes = 0
    rounds_done = 0
    if tracer:
        tracer.phase = "loop"
    loop_start = time.perf_counter()
    while True:
        for i, request in enumerate(requests):
            flaky = request.flaky
            generator = bench_generators.DroppingGenerator() if flaky else bench_generators.RenderingGenerator()
            if tracer:
                tracer.request = len(latencies_ms)
            start = time.perf_counter()
            code, report, rounds = codegen.repair_loop(request.text, graph, index, generator)
            latencies_ms.append((time.perf_counter() - start) * 1000)
            prompt_bytes += generator.prompt_bytes
            if first[i] is None:
                first[i] = (code, generator.snippet_ids)
            same = code == code_by_text.setdefault(request.text, code) and generator.snippet_ids == first[i][1]
            repaired = request.kept_failing or rounds == (2 if flaky else 1)
            passed.append(bool(report.ok and code and same and repaired))
        rounds_done += 1
        if time.perf_counter() - loop_start >= args.seconds:
            break
    elapsed = time.perf_counter() - loop_start

    for i, request in enumerate(requests):
        found = bench_checks.CHECKS[request.expect](first[i][0], request.facts, first[i][1])
        answers = range(i, len(passed), len(requests))
        if found:
            for n in answers:
                passed[n] = False
        if all(passed[n] for n in answers):
            continue
        if request.kept_failing:
            print(f"kept-failing request {request.text!r}: {found}", file=sys.stderr)
        else:
            problems.append(f"{request.text!r}: {found or 'wrong status, rounds or bytes on a repetition'}")
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    failed = passed.count(False)
    # A failed request misses any latency limit: it counts as slower than all.
    latencies_ms = [t if ok else math.inf for t, ok in zip(latencies_ms, passed)]

    attempted = rounds_done * len(requests)
    print(f"workload {args.workload} seed {args.seed}: {attempted} requests in {elapsed:.2f} s")
    if tracer:
        metrics = bench_trace.layer_metrics(tracer, attempted, len(setup_s), graph, index)
        trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        header = {
            "workload": args.workload,
            "seed": args.seed,
            "setups": len(setup_s),
            "requests": attempted,
            "setup_s": statistics.median(setup_s),
            "request_ms_p50": statistics.median(latencies_ms),
            "requests_per_s": attempted / elapsed,
        }
        tracer.write(trace_path, header)
        print(f"trace: {trace_path.relative_to(HERE.parent)}")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "request_ms_p50": (statistics.median(latencies_ms), "ms"),
            "requests_per_s": (attempted / elapsed, "1/s"),
            "prompt_kb_per_request": (prompt_bytes / attempted / 1000, "KB"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    if not tracer:
        print(tail_line(latencies_ms))
    print(f"attempted {attempted}, failed {failed}")
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        result = measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
