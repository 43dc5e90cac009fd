"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are pinned here; nothing is deferred to calibration.
"""

import itertools
import json
import random
import time
from contextlib import contextmanager

from closurekb import ablation, battery, codegen, corpus, fjsp
from closurekb import knowledge_graph as kg
from closurekb import model_dsl as md
from closurekb import retrieval as rt
from closurekb.cli import EXIT_OK, main
from closurekb.closure import closure, is_well_defined

from test_closure import random_digraph, reachable_by_relaxation
from test_model_dsl import random_model


@contextmanager
def criterion(number, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {number}: PASS - {description} ({elapsed:.2f}s)")


# --- Criterion 1 -----------------------------------------------------------------

def test_criterion_1_closure_oracle_equivalence():
    with criterion(1, "closure equals brute-force reachability on 1000 digraphs, <10s"):
        start = time.perf_counter()
        rng = random.Random(1001)
        for _ in range(1000):
            graph, n = random_digraph(rng)
            target = f"n{rng.randint(0, n - 1):02d}"
            result = closure(graph, target)
            assert result.members == reachable_by_relaxation(graph, target)
            # Idempotence.
            assert closure(graph, target).members == result.members
            ok, violations = is_well_defined(graph, result.members)
            assert ok and violations == []
        # Monotonicity spot suite.
        for _ in range(100):
            graph, n = random_digraph(rng)
            target = f"n{rng.randint(0, n - 1):02d}"
            before = closure(graph, target).members
            ids = graph.sorted_ids()
            if len(ids) < 2:
                continue
            src, dst = rng.sample(ids, 2)
            bigger = kg.KnowledgeGraph()
            for entity_id in ids:
                bigger.add_entity(graph.entities[entity_id])
            for edge in graph.edges:
                bigger.add_edge(edge.src, edge.dst, edge.kind)
            bigger.add_edge(src, dst, kg.DEPENDS_ON)
            assert closure(bigger, target).members >= before
        assert time.perf_counter() - start < 10.0


# --- Criterion 2 -----------------------------------------------------------------

def battery_pipeline_fixture():
    data = battery.paper_case_data()
    event = battery.paper_event()
    graph = battery.build_battery_kg(data, event)
    kg.ingest_concept_cards(battery.battery_concept_cards(), graph)
    kg.align(graph)
    graph.freeze()
    return data, graph, rt.index_snippets(graph)


def test_criterion_2_battery_scenario():
    with criterion(2, "load-reduction closure set equality + validated 0.54 / RHS 10 code, <5s"):
        start = time.perf_counter()
        data, graph, index = battery_pipeline_fixture()
        result = closure(graph, battery.LOAD_REDUCTION_CONSTRAINT)
        assert result.members == battery.expected_load_reduction_closure(data)
        code, report, _rounds = codegen.repair_loop(
            "Add a load-reduction constraint for the demand-response event",
            graph, index, codegen.TemplateGenerator(),
        )
        assert report.status == "ok"
        assert "0.54" in code
        constraint_line = next(
            line for line in code.splitlines() if line.startswith("con loadReduction")
        )
        assert constraint_line.endswith(">= 10;")
        assert time.perf_counter() - start < 5.0


# --- Criterion 3 -----------------------------------------------------------------

def test_criterion_3_equation_identities():
    with criterion(3, "lambda_energy boundaries + objective identities over 1000 schedules at 1e-12"):
        assert battery.lambda_energy(2.0, 0.5, 1) == 2.0
        assert battery.lambda_energy(2.0, 0.5, 0) == 0.5
        assert battery.lambda_energy(0.7, 0.7, 0) == battery.lambda_energy(0.7, 0.7, 1)
        rng = random.Random(303)
        from test_battery import random_toy

        for _ in range(1000):
            data, event, sched = random_toy(rng)
            zero = battery.DrEvent(slots=event.slots, lambda_rate=0.0,
                                   b_ref=event.b_ref, delta_l_min=event.delta_l_min)
            baseline = battery.objective_baseline(data, sched)
            assert abs(battery.objective_dr(data, sched, zero) - baseline) <= 1e-12
            decomposition = baseline + battery.incentive_payment(data, sched, event)
            assert abs(battery.objective_dr(data, sched, event) - decomposition) <= 1e-12


# --- Criterion 4 -----------------------------------------------------------------

def enumerate_schedules(data):
    names = data.machine_names
    for bits in itertools.product((0, 1), repeat=len(names) * data.n_slots):
        yield battery.Schedule(
            y={
                name: tuple(bits[i * data.n_slots : (i + 1) * data.n_slots])
                for i, name in enumerate(names)
            }
        )


def test_criterion_4_battery_desk_scale_optimum_and_full_scale_model():
    with criterion(4, "oracle maximizer re-confirmed on toy instances; full-scale model validates"):
        from test_battery import random_toy

        rng = random.Random(404)
        confirmed = 0
        while confirmed < 8:
            data, event, _sched = random_toy(rng)
            if len(data.machines) * data.n_slots > 9:
                continue
            result = battery.brute_force_optimum(data, event)
            feasible = [
                s for s in enumerate_schedules(data)
                if battery.check_load_reduction(data, s, event)
            ]
            if not feasible:
                assert result.status == "infeasible"
                continue
            best = max(battery.objective_dr(data, s, event) for s in feasible)
            assert result.status == "optimal"
            assert result.objective == best
            assert battery.objective_dr(data, result.schedule, event) == best
            confirmed += 1

        # Full-scale substitute for the solver-dependent paper outcomes:
        # the 144-slot model emitted from the graph is symbol-complete.
        data = battery.paper_case_data()
        graph = battery.build_battery_kg(data, battery.paper_event())
        members = set(graph.entities) - {battery.BASELINE_OBJECTIVE}
        package = codegen.build_context_from_members(graph, members, [], "full model")
        code = codegen.TemplateGenerator()(package)
        report = codegen.validate(code)
        assert report.status == "ok"
        assert report.missing_declarations == ()
        ast = md.parse_model(code)
        assert ast.sets[0].hi == 144 or any(s.hi == 144 for s in ast.sets)
        assert ast.objective is not None and ast.objective.name == battery.DR_OBJECTIVE


# --- Criterion 5 -----------------------------------------------------------------

def random_feasible_candidate(rng, inst):
    """List-scheduling with a random order/assignment: feasible by construction."""
    order = []
    pending = [0] * inst.n_jobs
    total = inst.total_ops
    while len(order) < total:
        job = rng.randrange(inst.n_jobs)
        if pending[job] < len(inst.jobs[job]):
            order.append((job, pending[job]))
            pending[job] += 1
    machine_free = {}
    job_ready = [0.0] * inst.n_jobs
    assignment = {}
    starts = {}
    for i, j in order:
        machine, ptime = rng.choice(inst.jobs[i][j].eligible)
        lb = max(job_ready[i], machine_free.get(machine, 0.0))
        start = fjsp._earliest_start(lb, ptime, inst.windows_on(machine))
        assignment[(i, j)] = machine
        starts[(i, j)] = start
        job_ready[i] = machine_free[machine] = start + ptime
    return fjsp.solution_from_assignment(inst, assignment, starts)


def test_criterion_5_fjsp_oracle_equivalence_and_behnke_models():
    with criterion(5, "oracle bounds 50 instances; window examples; Behnke-dim models validate"):
        from test_fjsp import random_oracle_instance

        rng = random.Random(505)
        for _ in range(50):
            inst = random_oracle_instance(rng)
            optimum, solution = fjsp.brute_force_solution(inst)
            report = fjsp.check_solution(inst, solution)
            assert report.feasible
            assert abs(report.makespan - optimum) <= fjsp.EPS
            for _ in range(3):
                candidate = random_feasible_candidate(rng, inst)
                verdict = fjsp.check_solution(inst, candidate)
                assert verdict.feasible
                assert verdict.makespan >= optimum - fjsp.EPS

        # Listing-style window semantics, all three examples.
        windowed = fjsp.with_windows(fjsp.parse_fjs("1 1\n1 1 1 3\n"), {1: [(2.0, 5.0)]})
        at_zero = fjsp.solution_from_assignment(windowed, {(0, 0): 1}, {(0, 0): 0.0})
        at_five = fjsp.solution_from_assignment(windowed, {(0, 0): 1}, {(0, 0): 5.0})
        assert not fjsp.check_solution(windowed, at_zero).feasible
        assert fjsp.check_solution(windowed, at_five).feasible
        early = fjsp.with_windows(fjsp.parse_fjs("1 1\n1 1 1 3\n"), {1: [(0.0, 4.0)]})
        assert fjsp.brute_force_makespan(early) == 7.0

        # Behnke-scale optima need an external solver; the desk substitute is
        # symbol-complete emission at the benchmark dimensions.
        for jobs, machines, seed in ((10, 20, 1), (20, 20, 8), (50, 20, 15)):
            inst = fjsp.parse_fjs(fjsp.generate_fjs(jobs, machines, 2, 2, seed=seed))
            assert inst.n_jobs == jobs and inst.n_machines == machines
            ast = fjsp.build_fjsp_model(inst)
            report = codegen.validate(md.emit_model(ast))
            assert report.status == "ok"
            assert report.missing_declarations == ()
            n_ops = inst.total_ops
            pairs = sum(
                len(shared) * (len(shared) - 1) // 2
                for shared in (
                    [
                        o
                        for o, (_i, _j, op) in enumerate(inst.op_list(), start=1)
                        if machine in {m for m, _p in op.eligible}
                    ]
                    for machine in range(1, machines + 1)
                )
            )
            assert ast.sets[0].hi == n_ops
            assert ast.sets[1].hi == machines
            assert len(ast.vars) == 3 + pairs
            assert len(ast.constraints) == 4 + 2 * pairs


# --- Criterion 6 -----------------------------------------------------------------

def test_criterion_6_closure_completeness_theorem():
    with criterion(6, "template output validates ok on 500 random well-formed KGs, <30s"):
        start = time.perf_counter()
        rng = random.Random(606)
        generator = codegen.TemplateGenerator()
        failures = 0
        for _ in range(500):
            ast = random_model(rng)
            graph = kg.KnowledgeGraph()
            kg.ingest_model(ast, graph)
            targets = [c.name for c in ast.constraints]
            if ast.objective is not None:
                targets.append(ast.objective.name)
            target = rng.choice(targets)
            members = closure(graph, target).members
            package = codegen.build_context_from_members(graph, members, [], "x")
            report = codegen.validate(generator(package))
            if report.status != "ok":
                failures += 1
        assert failures == 0
        assert time.perf_counter() - start < 30.0


# --- Criterion 7 -----------------------------------------------------------------

def test_criterion_7_table5_contrast(tmp_path):
    with criterion(7, "dispersed fixture: closure 5/5 validated, window(k=3) 0/5 with missing"):
        corpus.write_dispersed_corpus(tmp_path)
        closure_report = ablation.run_ablation(
            ablation.AblationConfig(retrieval_mode=ablation.CLOSURE_MODE, runs=5), tmp_path
        )
        assert closure_report.ok_runs == 5
        assert len(closure_report.rows) == 5
        window_report = ablation.run_ablation(
            ablation.AblationConfig(retrieval_mode=ablation.WINDOW_MODE, window_k=3, runs=5),
            tmp_path,
        )
        assert window_report.ok_runs == 0
        assert len(window_report.rows) == 5
        assert all(len(row.missing) >= 1 for row in window_report.rows)


# --- Criterion 8 -----------------------------------------------------------------

def test_criterion_8_knowledge_source_contrast(tmp_path):
    with criterion(8, "papers_only fails generation; code_only flags empty snippets; "
                      "heterogeneous emits all three m01 inequalities"):
        corpus.write_battery_corpus(tmp_path)
        papers = ablation.run_ablation(
            ablation.AblationConfig(knowledge_sources=corpus.PAPERS_ONLY, runs=1), tmp_path
        )
        assert papers.rows[0].status == "generation_failed"

        code_only = ablation.run_ablation(
            ablation.AblationConfig(knowledge_sources=corpus.CODE_ONLY, runs=1), tmp_path
        )
        assert code_only.rows[0].status == "ok"
        assert code_only.rows[0].empty_snippets is True

        hetero = ablation.run_ablation(
            ablation.AblationConfig(knowledge_sources=corpus.HETEROGENEOUS, runs=1), tmp_path
        )
        assert hetero.rows[0].status == "ok"
        assert hetero.rows[0].empty_snippets is False

        # Structural string check on the generated model itself.
        _data, graph, index = battery_pipeline_fixture()
        code, report, _rounds = codegen.repair_loop(
            corpus.BATTERY_QUERY, graph, index, codegen.TemplateGenerator()
        )
        assert report.status == "ok"
        for buf in ("B13", "B22", "B31"):
            assert f"con m01NoStarve{buf}{{t in timeSequence : t >= 2}}: m01[t] <= {buf}[t-1];" in code
        lingo = md.emit_model(md.parse_model(code), md.LINGO_FLAVORED)
        assert "@for(timeSequence(t)|t#ge#2: m01(t) <= B13(t-1));" in lingo


# --- Criterion 9 -----------------------------------------------------------------

def test_criterion_9_round_trip_and_determinism(tmp_path, capsys):
    with criterion(9, "1000 AST round trips; 200-entity KG persistence; byte-identical pipeline"):
        rng = random.Random(909)
        for _ in range(1000):
            ast = random_model(rng)
            assert md.parse_model(md.emit_model(ast)) == ast

        from test_knowledge_graph import random_graph

        graph = random_graph(random.Random(910), 200)
        assert kg.load(kg.save(graph)) == graph

        corpus_dir = tmp_path / "corpus"
        files = corpus.write_battery_corpus(corpus_dir)
        graph_path = tmp_path / "battery.kg.json"
        assert main(["ingest", str(files[0]), str(files[1]), "--graph", str(graph_path)]) == EXIT_OK
        outputs = []
        for name in ("first.mm", "second.mm"):
            out = tmp_path / name
            assert main([
                "generate", "Add a load-reduction constraint for the demand-response event",
                "--graph", str(graph_path), "--out", str(out),
            ]) == EXIT_OK
            outputs.append(out.read_bytes() + (tmp_path / (name + ".report.json")).read_bytes())
        assert outputs[0] == outputs[1]

        graph_path2 = tmp_path / "battery2.kg.json"
        assert main(["ingest", str(files[0]), str(files[1]), "--graph", str(graph_path2)]) == EXIT_OK
        assert graph_path.read_bytes() == graph_path2.read_bytes()
        capsys.readouterr()
