"""Command-line surface for the pipeline.

Exit codes: 0 success, 1 validation/feasibility failure, 2 usage or parse
error, 3 generator unavailable. Setting CLOSUREKB_GENERATOR_ENDPOINT switches
`generate` to the external generator exchange.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import ablation, battery, closure, codegen, corpus, fjsp
from . import knowledge_graph as kg
from . import model_dsl, retrieval
from .errors import ClosureKbError, GeneratorUnavailable, TooLarge

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_GENERATOR = 3

ENDPOINT_ENV = "CLOSUREKB_GENERATOR_ENDPOINT"


def _load_graph(path: str) -> kg.KnowledgeGraph:
    graph = kg.load(kg.read_json(path))
    graph.freeze()
    return graph


def _positive_int(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer of at least 1")
    return value


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True, allow_nan=False))
    else:
        for line in text_lines:
            print(line)


def cmd_ingest(args) -> int:
    if not args.inputs:
        print("ingest: no input files given", file=sys.stderr)
        return EXIT_USAGE
    graph, alignment = corpus.ingest_corpus(args.inputs, sources=args.sources)
    document = kg.save(graph)
    out = Path(args.graph)
    out.write_text(json.dumps(document, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    n_edges = len(graph.edges)
    payload = {
        "graph": str(out),
        "entities": len(graph),
        "edges": n_edges,
        "alignments": len(alignment.edges),
        "ambiguities": [[pid, list(cands)] for pid, cands in alignment.ambiguities],
    }
    _emit(args, payload, [
        f"graph={out}",
        f"entities={len(graph)}",
        f"edges={n_edges}",
        f"alignments={len(alignment.edges)}",
        f"ambiguities={len(alignment.ambiguities)}",
    ])
    return EXIT_OK


def cmd_query(args) -> int:
    graph = _load_graph(args.graph)
    index = retrieval.index_snippets(graph)
    run = codegen.run_pipeline(args.text, graph, index, codegen.TemplateGenerator(), max_rounds=1)
    parsed, seeds, fused = run.parsed, run.seeds, run.retrieval
    payload = {
        "intents": list(parsed.intents),
        "entities": [
            {"surface": e.surface, "entity_id": e.entity_id, "kind": e.kind, "slots": e.slots}
            for e in parsed.entities
        ],
        "numeric_payloads": [[v, u] for v, u in parsed.numeric_payloads],
        "seeds": seeds,
        "structural": sorted(fused.structural),
        "snippets": [[d, s, t] for d, s, t in fused.snippets],
    }
    lines = [f"intents={','.join(parsed.intents)}"]
    for e in parsed.entities:
        lines.append(f"entity surface={e.surface!r} id={e.entity_id} kind={e.kind}")
    lines.append(f"seeds={','.join(seeds) if seeds else '-'}")
    lines.append(f"structural={','.join(sorted(fused.structural)) if fused.structural else '-'}")
    for doc_id, score, _text in fused.snippets:
        lines.append(f"snippet id={doc_id} score={score:.4f}")
    _emit(args, payload, lines)
    return EXIT_OK if seeds else EXIT_FAILED


def cmd_closure(args) -> int:
    graph = _load_graph(args.graph)
    result = closure.closure(graph, args.target)
    payload = {
        "target": args.target,
        "members": sorted(result.members),
        "visit_order": list(result.visit_order),
        "edge_count": result.edge_count,
    }
    _emit(args, payload, [
        f"target={args.target}",
        f"members={','.join(sorted(result.members))}",
        f"visit_order={','.join(result.visit_order)}",
        f"edge_count={result.edge_count}",
    ])
    return EXIT_OK


def _select_generator(args):
    endpoint = os.environ.get(ENDPOINT_ENV)
    if args.generator == "endpoint" or (args.generator == "auto" and endpoint):
        if not endpoint:
            raise GeneratorUnavailable(f"{ENDPOINT_ENV} is not set")
        return codegen.ExternalEndpointGenerator(endpoint)
    return codegen.TemplateGenerator()


def cmd_generate(args) -> int:
    graph = _load_graph(args.graph)
    index = retrieval.index_snippets(graph)
    generator = _select_generator(args)
    run = codegen.run_pipeline(args.text, graph, index, generator, max_rounds=args.max_rounds)
    code, report, rounds = run.code, run.report, run.rounds
    output_code = code
    if report.ok and args.dialect == model_dsl.LINGO_FLAVORED:
        output_code = model_dsl.emit_model(model_dsl.parse_model(code), model_dsl.LINGO_FLAVORED)
    if args.out:
        code_path = Path(args.out)
        code_path.write_text(output_code, encoding="utf-8")
        report_path = Path(str(code_path) + ".report.json")
        report_path.write_text(
            json.dumps({"rounds": rounds, **report.to_dict()}, indent=2, sort_keys=True, allow_nan=False)
            + "\n",
            encoding="utf-8",
        )
    payload = {"rounds": rounds, "code": output_code, **report.to_dict()}
    lines = [f"status={report.status}", f"rounds={rounds}"]
    if report.missing_declarations:
        lines.append(f"missing={','.join(report.missing_declarations)}")
    if report.parse_error:
        lines.append(f"parse_error={report.parse_error}")
    if not args.out:
        lines.append(output_code)
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_FAILED


def cmd_validate(args) -> int:
    code = Path(args.code).read_text(encoding="utf-8")
    graph = _load_graph(args.graph) if args.graph else None
    report = codegen.validate(code, graph)
    payload = report.to_dict()
    lines = [f"status={report.status}"]
    if report.missing_declarations:
        lines.append(f"missing={','.join(report.missing_declarations)}")
    for name, expected, actual in report.kind_mismatches:
        lines.append(f"kind_mismatch name={name} expected={expected} actual={actual}")
    for name, declared, used in report.arity_mismatches:
        lines.append(f"arity_mismatch name={name} declared={declared} used={used}")
    if report.parse_error:
        lines.append(f"parse_error={report.parse_error}")
    _emit(args, payload, lines)
    return EXIT_OK if report.ok else EXIT_FAILED


def _eval_battery(args) -> int:
    data, event = battery.data_from_json(kg.read_json(args.instance))
    if args.brute_force:
        result = battery.brute_force_optimum(data, event)
        payload = {
            "status": result.status,
            "objective": result.objective,
            "schedule": {name: list(series) for name, series in result.schedule.y.items()}
            if result.schedule
            else None,
        }
        lines = [f"status={result.status}"]
        if result.objective is not None:
            lines.append(f"objective={result.objective}")
        _emit(args, payload, lines)
        return EXIT_OK if result.status == "optimal" else EXIT_FAILED
    sched = battery.schedule_from_json(kg.read_json(args.solution))
    feasible = True
    lines = []
    payload = {}
    value = battery.objective_baseline(data, sched)
    payload["objective_baseline"] = value
    lines.append(f"objective_baseline={value}")
    if event is not None:
        payload["objective_dr"] = battery.objective_dr(data, sched, event)
        payload["incentive_payment"] = battery.incentive_payment(data, sched, event)
        payload["load_reduction_ok"] = battery.check_load_reduction(data, sched, event)
        lines.append(f"objective_dr={payload['objective_dr']}")
        lines.append(f"incentive_payment={payload['incentive_payment']}")
        lines.append(f"load_reduction_ok={payload['load_reduction_ok']}")
        feasible = feasible and payload["load_reduction_ok"]
    if sched.buffers is not None:
        ok, violation = battery.starvation_feasible(data, sched)
        payload["starvation_ok"] = ok
        payload["starvation_violation"] = list(violation) if violation else None
        lines.append(f"starvation_ok={ok}")
        feasible = feasible and ok
    payload["feasible"] = feasible
    lines.append(f"feasible={feasible}")
    _emit(args, payload, lines)
    return EXIT_OK if feasible else EXIT_FAILED


def _eval_fjsp(args) -> int:
    instance = fjsp.parse_fjs(Path(args.instance).read_text(encoding="utf-8"))
    if args.windows:
        windows = fjsp.windows_from_json(kg.read_json(args.windows))
        instance = fjsp.with_windows(instance, windows)
    if args.brute_force:
        value, solution = fjsp.brute_force_solution(instance)
        payload = {"optimal_makespan": value, "solution": fjsp.solution_to_json(solution)}
        _emit(args, payload, [f"optimal_makespan={value}"])
        return EXIT_OK
    sol = fjsp.solution_from_json(kg.read_json(args.solution))
    report = fjsp.check_solution(instance, sol)
    payload = {
        "feasible": report.feasible,
        "makespan": report.makespan,
        "violations": list(report.violations),
    }
    lines = [f"feasible={report.feasible}", f"makespan={report.makespan}"]
    lines.extend(f"violation={v}" for v in report.violations)
    _emit(args, payload, lines)
    return EXIT_OK if report.feasible else EXIT_FAILED


def cmd_eval(args) -> int:
    if not args.brute_force and not args.solution:
        print("eval: need --solution or --brute-force", file=sys.stderr)
        return EXIT_USAGE
    if args.case == "battery":
        return _eval_battery(args)
    return _eval_fjsp(args)


def cmd_ablate(args) -> int:
    config = ablation.config_from_json(kg.read_json(args.config))
    report = ablation.run_ablation(config, args.corpus)
    if args.out:
        Path(args.out).write_text(report.to_text(), encoding="utf-8")
        Path(str(args.out) + ".json").write_text(
            json.dumps(report.to_json(), indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8"
        )
    _emit(args, report.to_json(), report.to_text().splitlines())
    return EXIT_OK


def cmd_fjsp_gen(args) -> int:
    if args.p_min > args.p_max:
        print(f"fjsp-gen: --p-min {args.p_min} exceeds --p-max {args.p_max}", file=sys.stderr)
        return EXIT_USAGE
    # Below this bound every time fits a float; their sum, rounded as
    # parse_fjs adds it, can still pass the largest float.
    if args.jobs * args.ops * args.p_max > sys.float_info.max:
        print("fjsp-gen: --jobs x --ops x --p-max exceeds the largest float", file=sys.stderr)
        return EXIT_USAGE
    text = fjsp.generate_fjs(
        n_jobs=args.jobs,
        n_machines=args.machines,
        ops_per_job=args.ops,
        flexibility=args.flex,
        seed=args.seed,
        p_min=args.p_min,
        p_max=args.p_max,
    )
    fjsp.parse_fjs(text)  # fjsp-gen writes only what ingest reads
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        _emit(args, {"out": args.out}, [f"out={args.out}"])
    else:
        print(text, end="")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="closurekb")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["text", "json"], default="text")

    p = sub.add_parser("ingest", help="build and persist a knowledge graph")
    p.add_argument("inputs", nargs="*")
    p.add_argument("--graph", required=True)
    p.add_argument("--sources", choices=list(corpus.SOURCE_MODES), default=corpus.HETEROGENEOUS)
    add_common(p)
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("query", help="parse a query and preview retrieval")
    p.add_argument("text")
    p.add_argument("--graph", required=True)
    add_common(p)
    p.set_defaults(func=cmd_query)

    p = sub.add_parser("closure", help="dependency closure of one entity")
    p.add_argument("--graph", required=True)
    p.add_argument("--target", required=True)
    add_common(p)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("generate", help="generate solver code for a query")
    p.add_argument("text")
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.add_argument("--dialect", choices=list(model_dsl.DIALECTS), default=model_dsl.CANONICAL)
    p.add_argument("--generator", choices=["auto", "template", "endpoint"], default="auto")
    p.add_argument("--max-rounds", type=_positive_int, default=codegen.DEFAULT_MAX_ROUNDS)
    add_common(p)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("validate", help="validate model code")
    p.add_argument("code")
    p.add_argument("--graph")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("eval", help="evaluate a case instance/solution")
    p.add_argument("case", choices=["battery", "fjsp"])
    p.add_argument("instance")
    p.add_argument("--solution")
    p.add_argument("--windows")
    p.add_argument("--brute-force", action="store_true")
    add_common(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the ablation harness")
    p.add_argument("corpus")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("fjsp-gen", help="generate a random .fjs instance")
    p.add_argument("--jobs", type=_positive_int, required=True)
    p.add_argument("--machines", type=_positive_int, required=True)
    p.add_argument("--ops", type=_positive_int, default=2)
    p.add_argument("--flex", type=_positive_int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--p-min", type=_positive_int, default=1)
    p.add_argument("--p-max", type=_positive_int, default=20)
    p.add_argument("--out")
    add_common(p)
    p.set_defaults(func=cmd_fjsp_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except GeneratorUnavailable as exc:
        print(f"generator unavailable: {exc}", file=sys.stderr)
        return EXIT_GENERATOR
    except TooLarge as exc:
        print(f"instance too large: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ClosureKbError, OSError, ValueError) as exc:  # ValueError: bad UTF-8, integer or inf
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
