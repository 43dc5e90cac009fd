"""FJSP parsing, model emission, checking, and the exhaustive oracle."""

import hashlib
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurekb import codegen, fjsp
from closurekb import knowledge_graph as kg
from closurekb import model_dsl as md
from closurekb.errors import ClosureKbError, MalformedInstance, MissingWindows, SchemaViolation, TooLarge

TWO_JOBS_ONE_MACHINE = "2 1\n1 1 1 3\n1 1 1 4\n"


# --- Parsing -----------------------------------------------------------------

def test_parse_minimal_instance():
    inst = fjsp.parse_fjs("1 1\n1 1 1 5\n")
    assert inst.n_jobs == 1 and inst.n_machines == 1
    assert inst.jobs == ((fjsp.Operation(eligible=((1, 5.0),)),),)


def test_parse_header_job_count_mismatch():
    with pytest.raises(MalformedInstance):
        fjsp.parse_fjs("2 1\n1 1 1 5\n")


def test_parse_reports_line_numbers():
    with pytest.raises(MalformedInstance) as excinfo:
        fjsp.parse_fjs("1 1\n1 1 1\n")
    assert excinfo.value.line == 2


def test_parse_rejects_bad_machine_index_and_nonpositive_time():
    with pytest.raises(MalformedInstance):
        fjsp.parse_fjs("1 1\n1 1 2 5\n")
    with pytest.raises(MalformedInstance):
        fjsp.parse_fjs("1 1\n1 1 1 0\n")


def test_parse_rejects_a_processing_time_no_float_can_hold():
    with pytest.raises(MalformedInstance) as excinfo:
        fjsp.parse_fjs("1 1\n1 1 1 " + "9" * 400 + "\n")
    assert excinfo.value.line == 2
    assert "finite float" in str(excinfo.value)
    (op,), = fjsp.parse_fjs("1 1\n1 1 1 " + "9" * 308 + "\n").jobs
    assert op.eligible == ((1, 1e308),)


# A .fjs processing time: small, or past the largest float (above 10**309).
FJS_TIMES = st.one_of(st.integers(1, 20), st.integers(10**300, 10**400)).map(str)
# Any .fjs field: small integers, such times, and fields that are no integer.
FJS_FIELDS = st.one_of(
    st.integers(-2, 30).map(str),
    FJS_TIMES,
    st.sampled_from(["x", "1.5", "nan", "1e400", "-", "\u0663"]),
)


@st.composite
def fjs_like_texts(draw):
    """A .fjs layout with drawn counts, machine indices and processing times
    (in half the texts, small ones only), then up to two fields replaced,
    inserted or deleted."""
    n_jobs, n_machines = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    times = draw(st.sampled_from([st.integers(1, 20).map(str), FJS_TIMES]))
    rows = [[str(n_jobs), str(n_machines)]]
    for _ in range(n_jobs):
        n_ops = draw(st.integers(1, 2))
        row = [str(n_ops)]
        for _ in range(n_ops):
            n_eligible = draw(st.integers(1, 2))
            row.append(str(n_eligible))
            for _ in range(n_eligible):
                row += [str(draw(st.integers(1, n_machines))), draw(times)]
        rows.append(row)
    edits = st.tuples(st.integers(0, 99), st.integers(0, 99), st.sampled_from("rid"), FJS_FIELDS)
    for row_at, field_at, edit, field in draw(st.lists(edits, max_size=2)):
        row = rows[row_at % len(rows)]
        at = field_at % (len(row) + 1)
        if edit == "i":
            row.insert(at, field)
        elif at < len(row):
            row[at:at + 1] = [field] if edit == "r" else []
    return "\n".join(" ".join(row) for row in rows)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), fjs_like_texts()))
def test_parse_fjs_returns_an_instance_or_raises_only_closurekb_errors(text):
    try:
        inst = fjsp.parse_fjs(text)
    except ClosureKbError:
        return
    assert len(inst.jobs) == inst.n_jobs
    for ops in inst.jobs:
        for op in ops:
            for machine, ptime in op.eligible:
                assert 1 <= machine <= inst.n_machines
                assert math.isfinite(ptime) and ptime > 0


def fjs_job_line(ops) -> str:
    """A parsed job as the .fjs line it came from (integer processing times)."""
    fields = [len(ops)]
    for op in ops:
        fields.append(len(op.eligible))
        for machine, ptime in op.eligible:
            fields += [machine, int(ptime)]
    return " ".join(map(str, fields))


@settings(max_examples=200, deadline=None)
@given(
    n_jobs=st.integers(1, 6),
    n_machines=st.integers(1, 6),
    ops_per_job=st.integers(1, 4),
    flexibility=st.integers(1, 6),
    seed=st.integers(0, 2**32),
    times=st.lists(st.integers(1, 2**53), min_size=2, max_size=2).map(sorted),
)
def test_parse_fjs_reads_back_what_generate_fjs_writes(n_jobs, n_machines, ops_per_job, flexibility, seed, times):
    text = fjsp.generate_fjs(n_jobs, n_machines, ops_per_job, flexibility, seed, *times)
    inst = fjsp.parse_fjs(text)
    assert (inst.n_jobs, inst.n_machines) == (n_jobs, n_machines)
    assert [fjs_job_line(ops) for ops in inst.jobs] == text.splitlines()[1:]
    for ops in inst.jobs:
        assert len(ops) == ops_per_job
        for op in ops:
            assert len(op.eligible) == min(flexibility, n_machines)
            assert all(times[0] <= ptime <= times[1] for _machine, ptime in op.eligible)


def test_parse_benchmark_dimension_instance():
    text = fjsp.generate_fjs(n_jobs=10, n_machines=20, ops_per_job=2, flexibility=2, seed=1)
    inst = fjsp.parse_fjs(text)
    assert inst.n_jobs == 10 and inst.n_machines == 20
    assert inst.total_ops == 20


def test_generate_fjs_deterministic():
    a = fjsp.generate_fjs(5, 6, 2, 2, seed=42)
    b = fjsp.generate_fjs(5, 6, 2, 2, seed=42)
    assert a == b


# --- Model building -----------------------------------------------------------

def test_baseline_model_validates_with_zero_missing():
    inst = fjsp.parse_fjs(TWO_JOBS_ONE_MACHINE)
    code = md.emit_model(fjsp.build_fjsp_model(inst))
    report = codegen.validate(code)
    assert report.status == "ok"
    assert report.missing_declarations == ()


def test_baseline_model_validates_on_random_instances():
    rng = random.Random(3)
    for _ in range(10):
        text = fjsp.generate_fjs(
            n_jobs=rng.randint(1, 4),
            n_machines=rng.randint(1, 5),
            ops_per_job=rng.randint(1, 3),
            flexibility=rng.randint(1, 3),
            seed=rng.randint(0, 999),
        )
        inst = fjsp.parse_fjs(text)
        report = codegen.validate(md.emit_model(fjsp.build_fjsp_model(inst)))
        assert report.status == "ok", report


def test_unavailability_variant_matches_indicator_pattern():
    inst = fjsp.with_windows(fjsp.parse_fjs("1 1\n1 1 1 3\n"), {1: [(2.0, 5.0)]})
    ast = fjsp.build_fjsp_model(inst, fjsp.UNAVAILABILITY)
    code = md.emit_model(ast)
    assert codegen.validate(code).status == "ok"
    # Complete before the window (z=1) or start after it (z=0), gated by assignment.
    assert "con win_1_1_1_before: s[1] + p[1,1] <= 2 + bigM*(1 - z_1_1_1) + bigM*(1 - x[1,1]);" in code
    assert "con win_1_1_1_after: s[1] >= 5 - bigM*z_1_1_1 - bigM*(1 - x[1,1]);" in code


def test_unavailability_variant_requires_windows():
    inst = fjsp.parse_fjs("1 1\n1 1 1 3\n")
    with pytest.raises(MissingWindows):
        fjsp.build_fjsp_model(inst, fjsp.UNAVAILABILITY)


def test_alt_terms_is_a_name_bijection():
    inst = fjsp.parse_fjs(TWO_JOBS_ONE_MACHINE)
    baseline = fjsp.build_fjsp_model(inst)
    alt = fjsp.build_fjsp_model(inst, fjsp.ALT_TERMS)
    mapping = fjsp.name_bijection(inst)
    assert md.rename_symbols(baseline, mapping) == alt
    assert md.rename_symbols(alt, {v: k for k, v in mapping.items()}) == baseline
    assert codegen.validate(md.emit_model(alt)).status == "ok"


# The alternate-vocabulary model of TWO_JOBS_ONE_MACHINE, as emitted when each
# vocabulary had its own builder.
ALT_TERMS_TWO_JOBS_ONE_MACHINE = """\
set TASKS = 1..2;
set WORKCENTERS = 1..1;
param taskDuration{TASKS, WORKCENTERS} = [3, 4];
param eligibleWorkcenter{TASKS, WORKCENTERS} = [1, 1];
param finalTask{TASKS} = [1, 1];
param bigNumber = 7;
var taskAssign{TASKS, WORKCENTERS} binary;
var taskBegin{TASKS} continuous in [0, 7];
var completionSpan continuous in [0, 7];
var before_1_2_1 binary;
con taskAssignment{o in TASKS}: sum{k in WORKCENTERS : eligibleWorkcenter[o,k] = 1}(taskAssign[o,k]) = 1;
con noForeignWorkcenter{o in TASKS}: sum{k in WORKCENTERS : eligibleWorkcenter[o,k] = 0}(taskAssign[o,k]) = 0;
con taskOrder{o in TASKS : finalTask[o] = 0}: taskBegin[o+1] >= taskBegin[o] + sum{k in WORKCENTERS}(taskDuration[o,k]*taskAssign[o,k]);
con workcenterBusy_1_2_1_1: taskBegin[1] + taskDuration[1,1] <= taskBegin[2] + bigNumber*(1 - before_1_2_1) + bigNumber*(1 - taskAssign[1,1]) + bigNumber*(1 - taskAssign[2,1]);
con workcenterBusy_1_2_1_2: taskBegin[2] + taskDuration[2,1] <= taskBegin[1] + bigNumber*before_1_2_1 + bigNumber*(1 - taskAssign[1,1]) + bigNumber*(1 - taskAssign[2,1]);
con spanBound{o in TASKS : finalTask[o] = 1}: completionSpan >= taskBegin[o] + sum{k in WORKCENTERS}(taskDuration[o,k]*taskAssign[o,k]);
min spanObjective: completionSpan;
"""


def test_alt_terms_emits_the_pinned_alternate_vocabulary():
    inst = fjsp.parse_fjs(TWO_JOBS_ONE_MACHINE)
    assert md.emit_model(fjsp.build_fjsp_model(inst, fjsp.ALT_TERMS)) == ALT_TERMS_TWO_JOBS_ONE_MACHINE


def test_name_bijection_renames_the_unavailability_model_to_pinned_statements():
    inst = fjsp.with_windows(fjsp.parse_fjs("1 1\n1 1 1 3\n"), {1: [(2.0, 5.0)]})
    mapping = fjsp.name_bijection(inst, fjsp.UNAVAILABILITY)
    code = md.emit_model(md.rename_symbols(fjsp.build_fjsp_model(inst, fjsp.UNAVAILABILITY), mapping))
    assert (
        "con maintenance_1_1_1_before: taskBegin[1] + taskDuration[1,1] <= 2"
        " + bigNumber*(1 - beforeWindow_1_1_1) + bigNumber*(1 - taskAssign[1,1]);"
    ) in code
    assert (
        "con maintenance_1_1_1_after: taskBegin[1] >= 5 - bigNumber*beforeWindow_1_1_1"
        " - bigNumber*(1 - taskAssign[1,1]);"
    ) in code
    assert len(set(mapping.values())) == len(mapping)
    assert codegen.validate(code).status == "ok"


def test_terminology_cards_align_to_standard_symbols():
    inst = fjsp.parse_fjs(TWO_JOBS_ONE_MACHINE)
    ast = fjsp.build_fjsp_model(inst)
    graph = kg.KnowledgeGraph()
    kg.ingest_model(ast, graph)
    kg.ingest_concept_cards(fjsp.fjsp_terminology_cards(), graph)
    result = kg.align(graph)
    pairs = {(e.src, e.dst) for e in result.edges}
    assert (f"paper:{fjsp.ALTERNATE_NAME['OPS']}", "OPS") in pairs
    assert (f"paper:{fjsp.ALTERNATE_NAME['x']}", "x") in pairs
    assert len(pairs) == 9


def test_terminology_cards_and_name_bijections_keep_their_bytes():
    # SHA-256 of the JSON of the cards and of every variant's bijection (in
    # its dict order), recorded before the two role-keyed vocabulary tables
    # became the one ALTERNATE_NAME map.
    def digest(value):
        return hashlib.sha256(json.dumps(value).encode("utf-8")).hexdigest()

    inst = fjsp.with_windows(
        fjsp.parse_fjs(fjsp.generate_fjs(4, 3, 3, 2, seed=14)),
        {1: [(2.0, 5.0)], 3: [(4.0, 9.0), (12.0, 15.0)]},
    )
    bijections = [list(fjsp.name_bijection(inst, variant).items()) for variant in fjsp.VARIANTS]
    assert digest(kg.cards_to_json(fjsp.fjsp_terminology_cards())) == (
        "3e60c4676e4595a0184ab23506390ab2c8e4a72cd5aa7c3713436af75140650c"
    )
    assert digest(bijections) == "7e4df8c91ff6006f40c11481b5ace1168e034bbbeaacfed8514d2992814626f6"


def test_model_counts_match_instance_dimensions():
    inst = fjsp.parse_fjs(fjsp.generate_fjs(4, 3, 2, 2, seed=9))
    ast = fjsp.build_fjsp_model(inst)
    n_ops = inst.total_ops
    pairs = 0
    for machine in range(1, inst.n_machines + 1):
        sharing = [
            1
            for _i, _j, op in inst.op_list()
            if machine in {m for m, _p in op.eligible}
        ]
        pairs += len(sharing) * (len(sharing) - 1) // 2
    assert ast.sets[0].hi == n_ops
    assert ast.sets[1].hi == inst.n_machines
    assert len(ast.vars) == 3 + pairs  # x, s, cmax + ordering binaries
    assert len(ast.constraints) == 4 + 2 * pairs  # assign/noInelig/prec/finish + pairs


# --- Checking -----------------------------------------------------------------

def test_check_solution_sequential_feasible():
    inst = fjsp.parse_fjs(TWO_JOBS_ONE_MACHINE)
    sol = fjsp.solution_from_assignment(inst, {(0, 0): 1, (1, 0): 1}, {(0, 0): 0.0, (1, 0): 3.0})
    report = fjsp.check_solution(inst, sol)
    assert report.feasible and report.makespan == 7.0


def test_check_solution_overlap_is_capacity_violation():
    inst = fjsp.parse_fjs(TWO_JOBS_ONE_MACHINE)
    sol = fjsp.solution_from_assignment(inst, {(0, 0): 1, (1, 0): 1}, {(0, 0): 0.0, (1, 0): 2.0})
    report = fjsp.check_solution(inst, sol)
    assert not report.feasible
    assert any(v.startswith("capacity") for v in report.violations)


def test_check_solution_window_semantics_half_open():
    inst = fjsp.with_windows(fjsp.parse_fjs("1 1\n1 1 1 3\n"), {1: [(2.0, 5.0)]})
    at_zero = fjsp.solution_from_assignment(inst, {(0, 0): 1}, {(0, 0): 0.0})
    at_five = fjsp.solution_from_assignment(inst, {(0, 0): 1}, {(0, 0): 5.0})
    assert not fjsp.check_solution(inst, at_zero).feasible
    assert fjsp.check_solution(inst, at_five).feasible
    # Ending exactly at the window start is allowed for a length-2 operation.
    inst2 = fjsp.with_windows(fjsp.parse_fjs("1 1\n1 1 1 2\n"), {1: [(2.0, 5.0)]})
    at_start = fjsp.solution_from_assignment(inst2, {(0, 0): 1}, {(0, 0): 0.0})
    assert fjsp.check_solution(inst2, at_start).feasible


def test_check_solution_precedence_and_eligibility():
    inst = fjsp.parse_fjs("1 2\n2 1 1 3 1 2 4\n")
    bad_order = fjsp.solution_from_assignment(
        inst, {(0, 0): 1, (0, 1): 2}, {(0, 0): 0.0, (0, 1): 1.0}
    )
    report = fjsp.check_solution(inst, bad_order)
    assert any(v.startswith("precedence") for v in report.violations)
    wrong_machine = fjsp.solution_from_assignment(
        inst, {(0, 0): 2, (0, 1): 2}, {(0, 0): 0.0, (0, 1): 3.0}
    )
    report2 = fjsp.check_solution(inst, wrong_machine)
    assert any(v.startswith("assignment") for v in report2.violations)


def test_check_solution_makespan_bound():
    inst = fjsp.parse_fjs("1 1\n1 1 1 3\n")
    sol = fjsp.FjspSolution(x=(((1,),),), s=((0.0,),), makespan=2.0)
    report = fjsp.check_solution(inst, sol)
    assert any(v.startswith("makespan") for v in report.violations)


# --- Oracle ------------------------------------------------------------------

def test_oracle_two_jobs_one_machine():
    assert fjsp.brute_force_makespan(fjsp.parse_fjs(TWO_JOBS_ONE_MACHINE)) == 7.0


def test_oracle_picks_faster_machine():
    assert fjsp.brute_force_makespan(fjsp.parse_fjs("1 2\n1 2 1 5 2 3\n")) == 3.0


def test_oracle_window_forces_late_start():
    inst = fjsp.with_windows(fjsp.parse_fjs("1 1\n1 1 1 3\n"), {1: [(0.0, 4.0)]})
    assert fjsp.brute_force_makespan(inst) == 7.0


def test_oracle_bound_enforced():
    text = fjsp.generate_fjs(4, 2, 2, 1, seed=0)
    with pytest.raises(TooLarge):
        fjsp.brute_force_makespan(fjsp.parse_fjs(text))


def random_oracle_instance(rng):
    n_jobs = rng.randint(1, 3)
    n_machines = rng.randint(1, 3)
    remaining = 6
    jobs = []
    for j in range(n_jobs):
        max_ops = max(1, min(remaining - (n_jobs - j - 1), 3))
        n_ops = rng.randint(1, max_ops)
        remaining -= n_ops
        ops = []
        for _ in range(n_ops):
            n_eligible = rng.randint(1, n_machines)
            machines = rng.sample(range(1, n_machines + 1), n_eligible)
            ops.append(
                fjsp.Operation(
                    eligible=tuple((m, float(rng.randint(1, 9))) for m in sorted(machines))
                )
            )
        jobs.append(tuple(ops))
    inst = fjsp.FjspInstance(n_jobs=n_jobs, n_machines=n_machines, jobs=tuple(jobs))
    if rng.random() < 0.5:
        windows = {}
        for machine in range(1, n_machines + 1):
            if rng.random() < 0.5:
                start = float(rng.randint(0, 6))
                windows[machine] = [(start, start + rng.randint(1, 4))]
        if windows:
            inst = fjsp.with_windows(inst, windows)
    return inst


def test_oracle_bounds_feasible_solutions_on_50_instances():
    rng = random.Random(2024)
    for _ in range(50):
        inst = random_oracle_instance(rng)
        optimum, solution = fjsp.brute_force_solution(inst)
        report = fjsp.check_solution(inst, solution)
        assert report.feasible, report.violations
        assert abs(report.makespan - optimum) <= fjsp.EPS
        # Any feasible perturbation cannot beat the oracle: delay a random op.
        delayed = [list(job) for job in solution.s]
        i = rng.randrange(inst.n_jobs)
        j = len(inst.jobs[i]) - 1
        delayed[i][j] += float(rng.randint(0, 3))
        candidate = fjsp.FjspSolution(
            x=solution.x, s=tuple(tuple(job) for job in delayed), makespan=None
        )
        verdict = fjsp.check_solution(inst, candidate)
        if verdict.feasible:
            assert verdict.makespan >= optimum - fjsp.EPS


def test_big_m_sufficiency_on_window_instances():
    rng = random.Random(11)
    for _ in range(20):
        inst = random_oracle_instance(rng)
        if not inst.windows:
            inst = fjsp.with_windows(inst, {1: [(1.0, 3.0)]})
        big_m = fjsp.big_m_value(inst)
        optimum, solution = fjsp.brute_force_solution(inst)
        for i, ops in enumerate(inst.jobs):
            for j, op in enumerate(ops):
                machine = solution.assigned_machine(i, j)
                start = solution.s[i][j]
                ptime = dict(op.eligible)[machine]
                for k in range(1, inst.n_machines + 1):
                    x_val = 1 if k == machine else 0
                    p_k = dict(op.eligible).get(k, 0.0)
                    for w_start, w_end in inst.windows_on(k):
                        z = 1 if (x_val and start + ptime <= w_start + fjsp.EPS) else 0
                        assert start + p_k <= w_start + big_m * (1 - z) + big_m * (1 - x_val) + fjsp.EPS
                        assert start >= w_end - big_m * z - big_m * (1 - x_val) - fjsp.EPS


def test_off_by_one_generator_fault_is_caught_by_checker_not_validator():
    # A scripted-mock failure class: loop bound drops the processing time, so
    # the emitted model is symbol-complete (validate passes) yet semantically
    # wrong; the checker/oracle layer is what detects it.
    inst = fjsp.parse_fjs("1 2\n2 1 1 3 1 2 4\n")
    good = md.emit_model(fjsp.build_fjsp_model(inst))
    broken = good.replace(
        "con prec{o in OPS : last[o] = 0}: s[o+1] >= s[o] + sum{k in M}(p[o,k]*x[o,k]);",
        "con prec{o in OPS : last[o] = 0}: s[o+1] >= s[o];",
    )
    assert broken != good
    assert codegen.validate(broken).status == "ok"
    overlapping = fjsp.solution_from_assignment(
        inst, {(0, 0): 1, (0, 1): 2}, {(0, 0): 0.0, (0, 1): 0.0}
    )
    report = fjsp.check_solution(inst, overlapping)
    assert not report.feasible
    assert report.makespan < fjsp.brute_force_makespan(inst)


def test_solution_json_round_trip():
    inst = fjsp.parse_fjs(TWO_JOBS_ONE_MACHINE)
    _optimum, solution = fjsp.brute_force_solution(inst)
    doc = fjsp.solution_to_json(solution)
    assert fjsp.solution_from_json(doc) == solution
    assert "z" not in doc
    assert fjsp.solution_from_json({**doc, "z": None}) == solution  # written before z was dropped


@pytest.mark.parametrize("doc", [
    [1, 2],
    {"x": 5, "s": []},
    {"x": [[[1]]]},
    {"x": [[1]], "s": [[0]]},
    {"x": [[["1"]]], "s": [[0]]},
    {"x": [[[1]]], "s": [[0]], "makespan": "7"},
], ids=["list", "int-x", "no-s", "shallow-x", "string-flag", "string-makespan"])
def test_solution_from_json_rejects_malformed_documents(doc):
    with pytest.raises(SchemaViolation):
        fjsp.solution_from_json(doc)


@pytest.mark.parametrize("doc", [
    [{"machine": "a", "w_start": 1, "w_end": 2}],
    [5],
    {"machine": 1, "w_start": 1, "w_end": 2},
    [{"machine": 1, "w_start": 1}],
], ids=["string-machine", "int-record", "object", "no-w_end"])
def test_windows_from_json_rejects_malformed_documents(doc):
    with pytest.raises(SchemaViolation):
        fjsp.windows_from_json(doc)


def test_windows_from_json_groups_windows_by_machine():
    doc = [{"machine": 2, "w_start": 1, "w_end": 3}, {"machine": 2, "w_start": 5, "w_end": 6.5}]
    assert fjsp.windows_from_json(doc) == {2: [(1.0, 3.0), (5.0, 6.5)]}
