"""Flexible job shop scheduling family.

`.fjs` instance ingestion, MILP model emission in three variants (baseline
makespan minimization, machine unavailability windows via big-M indicator
pairs, alternate industrial terminology), feasibility checking with makespan
evaluation, and a small exhaustive oracle. Models are built in the standard
vocabulary; the alternate terminology is the baseline model renamed by
`name_bijection`, which reads one table, ALTERNATE_NAME (standard name ->
alternate name). The terminology cards read the same table.

Operations are numbered globally 1..O in job-major order so that job
precedence is `o -> o+1` guarded by a final-operation flag. Pairwise machine
capacity and window-avoidance constraints are emitted one statement per tuple
(the modeling language quantifies over a single index). Windows are half-open
[w_start, w_end): an operation may end exactly at the start of a window or
begin exactly at its end.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace

from . import knowledge_graph as kg
from . import model_dsl
from .errors import DimensionMismatch, MalformedInstance, MissingWindows, SchemaViolation, TooLarge
from .knowledge_graph import ConceptCard, json_field
from .model_dsl import (
    BinOp,
    Compare,
    Constraint,
    Index,
    ModelAst,
    Num,
    Objective,
    ParamDecl,
    Predicate,
    Quantifier,
    Ref,
    SetDecl,
    Sum,
    VarDecl,
)

EPS = 1e-9

BASELINE = "baseline"
UNAVAILABILITY = "unavailability"
ALT_TERMS = "alt_terms"
VARIANTS = (BASELINE, UNAVAILABILITY, ALT_TERMS)

# Standard -> alternate name of every vocabulary symbol (a generated name is
# renamed by its prefix, see _alternate_names).
ALTERNATE_NAME = {
    "OPS": "TASKS",
    "M": "WORKCENTERS",
    "x": "taskAssign",
    "s": "taskBegin",
    "cmax": "completionSpan",
    "p": "taskDuration",
    "elig": "eligibleWorkcenter",
    "last": "finalTask",
    "bigM": "bigNumber",
    "assign": "taskAssignment",
    "noInelig": "noForeignWorkcenter",
    "prec": "taskOrder",
    "finish": "spanBound",
    "obj": "spanObjective",
    "seq": "before",
    "cap": "workcenterBusy",
    "z": "beforeWindow",
    "win": "maintenance",
}


# --- Instance model -----------------------------------------------------------

@dataclass(frozen=True)
class Operation:
    eligible: tuple[tuple[int, float], ...]  # (machine 1-based, processing time > 0)


@dataclass(frozen=True)
class FjspInstance:
    n_jobs: int
    n_machines: int
    jobs: tuple[tuple[Operation, ...], ...]
    windows: dict[int, tuple[tuple[float, float], ...]] | None = None

    @property
    def total_ops(self) -> int:
        return sum(len(ops) for ops in self.jobs)

    def op_list(self) -> list[tuple[int, int, Operation]]:
        """Global op order: (job index, position) in job-major order."""
        out = []
        for i, ops in enumerate(self.jobs):
            for j, op in enumerate(ops):
                out.append((i, j, op))
        return out

    def windows_on(self, machine: int) -> tuple[tuple[float, float], ...]:
        if not self.windows:
            return ()
        return tuple(self.windows.get(machine, ()))


def with_windows(instance: FjspInstance, windows: dict[int, list[tuple[float, float]]]) -> FjspInstance:
    checked: dict[int, tuple[tuple[float, float], ...]] = {}
    for machine, spans in windows.items():
        if not 1 <= machine <= instance.n_machines:
            raise DimensionMismatch(f"window machine {machine} outside 1..{instance.n_machines}")
        for w_start, w_end in spans:
            if not w_start < w_end:
                raise DimensionMismatch(f"degenerate window [{w_start}, {w_end}) on machine {machine}")
        checked[machine] = tuple(tuple(span) for span in spans)
    return replace(instance, windows=checked)


def parse_fjs(text: str) -> FjspInstance:
    """Parse the standard `.fjs` layout (1-based machine indices)."""
    lines = [(i + 1, line.split()) for i, line in enumerate(text.splitlines())]
    rows = [(no, toks) for no, toks in lines if toks]
    if not rows:
        raise MalformedInstance("empty instance", 1)
    header_no, header = rows[0]
    if len(header) not in (2, 3):
        raise MalformedInstance("header must be 'n_jobs n_machines [flexibility]'", header_no)
    try:
        n_jobs, n_machines = int(header[0]), int(header[1])
        if len(header) == 3:
            float(header[2])
    except ValueError:
        raise MalformedInstance("header fields must be numeric", header_no) from None
    if n_jobs <= 0 or n_machines <= 0:
        raise MalformedInstance("job and machine counts must be positive", header_no)
    job_rows = rows[1:]
    if len(job_rows) != n_jobs:
        last_no = job_rows[-1][0] if job_rows else header_no
        raise MalformedInstance(
            f"header claims {n_jobs} jobs but found {len(job_rows)} job lines", last_no
        )
    jobs: list[tuple[Operation, ...]] = []
    for line_no, tokens in job_rows:
        try:
            values = [int(tok) for tok in tokens]
        except ValueError:
            raise MalformedInstance("job line fields must be integers", line_no) from None
        cursor = 0

        def take(what: str) -> int:
            nonlocal cursor
            if cursor >= len(values):
                raise MalformedInstance(f"job line truncated while reading {what}", line_no)
            value = values[cursor]
            cursor += 1
            return value

        n_ops = take("operation count")
        if n_ops <= 0:
            raise MalformedInstance("operation count must be positive", line_no)
        ops = []
        for _ in range(n_ops):
            n_eligible = take("eligible-machine count")
            if n_eligible <= 0:
                raise MalformedInstance("every operation needs an eligible machine", line_no)
            eligible = []
            for _ in range(n_eligible):
                machine = take("machine index")
                ptime = take("processing time")
                if not 1 <= machine <= n_machines:
                    raise MalformedInstance(
                        f"machine index {machine} outside 1..{n_machines}", line_no
                    )
                if ptime <= 0:
                    raise MalformedInstance("processing times must be positive", line_no)
                try:
                    eligible.append((machine, float(ptime)))
                except OverflowError:
                    raise MalformedInstance(
                        "processing time does not fit a finite float", line_no
                    ) from None
            ops.append(Operation(eligible=tuple(eligible)))
        if cursor != len(values):
            raise MalformedInstance("trailing fields on job line", line_no)
        jobs.append(tuple(ops))
    return FjspInstance(n_jobs=n_jobs, n_machines=n_machines, jobs=tuple(jobs))


def generate_fjs(
    n_jobs: int,
    n_machines: int,
    ops_per_job: int,
    flexibility: int,
    seed: int,
    p_min: int = 1,
    p_max: int = 20,
) -> str:
    """Deterministic random instance in `.fjs` layout (benchmark-style dims)."""
    rng = random.Random(seed)
    flexibility = min(flexibility, n_machines)
    lines = [f"{n_jobs} {n_machines} {float(flexibility)}"]
    for _ in range(n_jobs):
        fields = [str(ops_per_job)]
        for _ in range(ops_per_job):
            machines = sorted(rng.sample(range(1, n_machines + 1), flexibility))
            fields.append(str(flexibility))
            for machine in machines:
                fields.append(str(machine))
                fields.append(str(rng.randint(p_min, p_max)))
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


# --- Model builder ---------------------------------------------------------------

def big_m_value(instance: FjspInstance) -> float:
    """Sum of per-operation max eligible processing times plus the latest
    window end; dominates every start time the checker can accept."""
    horizon = sum(max(p for _m, p in op.eligible) for _i, _j, op in instance.op_list())
    max_window_end = 0.0
    if instance.windows:
        for spans in instance.windows.values():
            for _start, end in spans:
                max_window_end = max(max_window_end, end)
    return float(horizon + max_window_end)


def _one_minus(name: str, indices: tuple[Index, ...] = ()) -> BinOp:
    return BinOp("-", Num(1.0), Ref(name, indices))


def _big_m(expr: model_dsl.Expr) -> BinOp:
    return BinOp("*", Ref("bigM"), expr)


def _completion(o_idx: Index, machine: Index) -> BinOp:
    return BinOp("+", Ref("s", (o_idx,)), Ref("p", (o_idx, machine)))


def build_fjsp_model(instance: FjspInstance, variant: str = BASELINE) -> ModelAst:
    """Emit the MILP for one variant. The model is built in the standard
    vocabulary; alt_terms is the baseline model renamed by `name_bijection`."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    if variant == UNAVAILABILITY and not instance.windows:
        raise MissingWindows("unavailability variant requires a windows side file")
    ops = instance.op_list()
    n_ops = len(ops)
    n_machines = instance.n_machines
    big_m = big_m_value(instance)

    ptab = {}
    for o_idx, (_i, _j, op) in enumerate(ops, start=1):
        for machine, ptime in op.eligible:
            ptab[(o_idx, machine)] = ptime
    cells = [(o_idx, m) for o_idx in range(1, n_ops + 1) for m in range(1, n_machines + 1)]
    sets = (SetDecl("OPS", lo=1, hi=n_ops), SetDecl("M", lo=1, hi=n_machines))
    params = (
        ParamDecl("p", index_sets=("OPS", "M"), data=tuple(float(ptab.get(c, 0.0)) for c in cells)),
        ParamDecl("elig", index_sets=("OPS", "M"), data=tuple(float(c in ptab) for c in cells)),
        ParamDecl(
            "last",
            index_sets=("OPS",),
            data=tuple(1.0 if j == len(instance.jobs[i]) - 1 else 0.0 for i, j, _op in ops),
        ),
        ParamDecl("bigM", data=big_m),
    )
    variables = [
        VarDecl("x", index_sets=("OPS", "M"), domain=model_dsl.BINARY),
        VarDecl("s", index_sets=("OPS",), domain=model_dsl.CONTINUOUS, bounds=(0.0, big_m)),
        VarDecl("cmax", domain=model_dsl.CONTINUOUS, bounds=(0.0, big_m)),
    ]

    o, k = Index("o", 0), Index("k", 0)

    def where(name: str, indices: tuple[Index, ...], value: float) -> Predicate:
        return Predicate((Compare("=", Ref(name, indices), Num(value)),))

    def machines_with_elig(value: float) -> Quantifier:
        return Quantifier("k", "M", where("elig", (o, k), value))

    def ops_with_last(value: float) -> Quantifier:
        return Quantifier("o", "OPS", where("last", (o,), value))

    # assign: one eligible machine per operation; noInelig: no ineligible one.
    constraints = [
        Constraint(name, Quantifier("o", "OPS"), Sum(machines_with_elig(value), Ref("x", (o, k))), "=", Num(value))
        for name, value in (("assign", 1.0), ("noInelig", 0.0))
    ]
    # prec and finish bound the completion of a non-final / final operation.
    work = Sum(Quantifier("k", "M"), BinOp("*", Ref("p", (o, k)), Ref("x", (o, k))))
    done = BinOp("+", Ref("s", (o,)), work)
    constraints.append(Constraint("prec", ops_with_last(0.0), Ref("s", (Index("o", 1),)), ">=", done))

    # Pairwise machine capacity: one ordering binary and two big-M inequalities
    # per machine-shared operation pair, active only when both are assigned.
    for machine in range(1, n_machines + 1):
        m = Index(None, machine)
        sharing = [o_idx for o_idx in range(1, n_ops + 1) if (o_idx, machine) in ptab]
        for a, b in itertools.combinations(sharing, 2):
            seq = f"seq_{a}_{b}_{machine}"
            variables.append(VarDecl(seq, domain=model_dsl.BINARY))
            unassigned = [_big_m(_one_minus("x", (Index(None, member), m))) for member in (a, b)]
            # seq = 1 puts a first, seq = 0 puts b first.
            orderings = ((a, b, _one_minus(seq)), (b, a, Ref(seq)))
            for side, (first, then, gate) in enumerate(orderings, start=1):
                constraints.append(Constraint(
                    f"cap_{a}_{b}_{machine}_{side}",
                    None,
                    _completion(Index(None, first), m),
                    "<=",
                    model_dsl.chain("+", [Ref("s", (Index(None, then),)), _big_m(gate), *unassigned]),
                ))

    constraints.append(Constraint("finish", ops_with_last(1.0), Ref("cmax"), ">=", done))

    if variant == UNAVAILABILITY:
        # Listing-style indicator pair per (operation, eligible machine, window):
        # complete before the window starts (z=1) or begin after it ends (z=0),
        # both disabled when the operation is not assigned to the machine.
        for o_idx, machine in sorted(ptab):
            at, m = Index(None, o_idx), Index(None, machine)
            unassigned = _big_m(_one_minus("x", (at, m)))
            for w_idx, (w_start, w_end) in enumerate(instance.windows_on(machine), start=1):
                z = f"z_{o_idx}_{machine}_{w_idx}"
                variables.append(VarDecl(z, domain=model_dsl.BINARY))
                constraints.append(Constraint(
                    f"win_{o_idx}_{machine}_{w_idx}_before",
                    None,
                    _completion(at, m),
                    "<=",
                    model_dsl.chain("+", [Num(float(w_start)), _big_m(_one_minus(z)), unassigned]),
                ))
                constraints.append(Constraint(
                    f"win_{o_idx}_{machine}_{w_idx}_after",
                    None,
                    Ref("s", (at,)),
                    ">=",
                    model_dsl.chain("-", [Num(float(w_end)), _big_m(Ref(z)), unassigned]),
                ))

    model = ModelAst(sets, params, tuple(variables), tuple(constraints), Objective("min", "obj", Ref("cmax")))
    if variant == ALT_TERMS:
        return model_dsl.rename_symbols(model, _alternate_names(model))
    return model


def _alternate_names(model: ModelAst) -> dict[str, str]:
    """Standard -> alternate name of every declaration of a standard model. A
    generated name (`seq_1_2_1`, `cap_…`, `z_…`, `win_…`) keeps what follows
    its vocabulary prefix."""
    mapping = {}
    for decl in model.sets + model.params + model.vars + model.constraints + (model.objective,):
        prefix, sep, suffix = decl.name.partition("_")
        mapping[decl.name] = ALTERNATE_NAME[prefix] + sep + suffix
    return mapping


def name_bijection(instance: FjspInstance, variant: str = BASELINE) -> dict[str, str]:
    """Standard -> alternate name of every declaration of the variant's model
    (for alt_terms, of the baseline model it renames)."""
    return _alternate_names(build_fjsp_model(instance, BASELINE if variant == ALT_TERMS else variant))


def fjsp_terminology_cards() -> list[ConceptCard]:
    """Alternate-vocabulary concepts hinted at their standard realizations, so
    alignment stores the terminology bijection as aligns_to edges."""
    concepts = (
        ("x", kg.DECISION_VARIABLE, "Chooses the workcenter that executes each task."),
        ("bigM", kg.PARAMETER, "Large constant used to switch disjunctions."),
        ("elig", kg.PARAMETER, "Which workcenters may execute which task."),
        ("last", kg.PARAMETER, "Marks the final task of each work order."),
        ("M", kg.INDEX_SET, "Workcenters available on the shop floor."),
        ("cmax", kg.DECISION_VARIABLE, "Completion span of the whole work order set."),
        ("OPS", kg.INDEX_SET, "Work-order tasks to be dispatched."),
        ("p", kg.PARAMETER, "Duration of a task on a given workcenter."),
        ("s", kg.DECISION_VARIABLE, "Moment each task begins processing."),
    )
    return [
        ConceptCard(
            name=ALTERNATE_NAME[symbol],
            kind=kind,
            description=blurb,
            solver_symbol_hint=symbol,
            snippet=blurb,
        )
        for symbol, kind, blurb in concepts
    ]


# --- Solutions and checking ---------------------------------------------------------

@dataclass(frozen=True)
class FjspSolution:
    x: tuple[tuple[tuple[int, ...], ...], ...]  # x[i][j][k-1]
    s: tuple[tuple[float, ...], ...]
    makespan: float | None = None

    def assigned_machine(self, i: int, j: int) -> int | None:
        row = self.x[i][j]
        chosen = [k + 1 for k, flag in enumerate(row) if flag == 1]
        return chosen[0] if len(chosen) == 1 else None


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    violations: tuple[str, ...]
    makespan: float


def solution_from_assignment(
    instance: FjspInstance,
    assignment: dict[tuple[int, int], int],
    starts: dict[tuple[int, int], float],
    makespan: float | None = None,
) -> FjspSolution:
    x = tuple(
        tuple(
            tuple(1 if assignment[(i, j)] == k else 0 for k in range(1, instance.n_machines + 1))
            for j in range(len(instance.jobs[i]))
        )
        for i in range(instance.n_jobs)
    )
    s = tuple(
        tuple(float(starts[(i, j)]) for j in range(len(instance.jobs[i])))
        for i in range(instance.n_jobs)
    )
    return FjspSolution(x=x, s=s, makespan=makespan)


def _overlaps(start_a: float, end_a: float, start_b: float, end_b: float) -> bool:
    return start_a < end_b - EPS and start_b < end_a - EPS


def check_solution(instance: FjspInstance, sol: FjspSolution) -> FeasibilityReport:
    """Verify assignment uniqueness/eligibility, job precedence, one-at-a-time
    machine capacity, window avoidance, and the stated makespan bound."""
    if len(sol.x) != instance.n_jobs or len(sol.s) != instance.n_jobs:
        raise DimensionMismatch("solution job count does not match instance")
    for i, ops in enumerate(instance.jobs):
        if len(sol.x[i]) != len(ops) or len(sol.s[i]) != len(ops):
            raise DimensionMismatch(f"solution operation count differs for job {i + 1}")
        for j in range(len(ops)):
            if len(sol.x[i][j]) != instance.n_machines:
                raise DimensionMismatch("assignment rows must span all machines")

    violations: list[str] = []
    intervals: dict[int, list[tuple[float, float, str]]] = {}
    completions: list[float] = []

    for i, ops in enumerate(instance.jobs):
        for j, op in enumerate(ops):
            label = f"job {i + 1} op {j + 1}"
            row = sol.x[i][j]
            if any(flag not in (0, 1) for flag in row) or sum(row) != 1:
                violations.append(f"assignment: {label} must pick exactly one machine")
                continue
            machine = sol.assigned_machine(i, j)
            eligible = {m for m, _p in op.eligible}
            if machine not in eligible:
                violations.append(f"assignment: {label} assigned to ineligible machine {machine}")
                continue
            ptime = dict(op.eligible)[machine]
            start = sol.s[i][j]
            if start < -EPS:
                violations.append(f"start: {label} begins before time zero")
            end = start + ptime
            completions.append(end)
            intervals.setdefault(machine, []).append((start, end, label))
            if j > 0:
                prev_machine = sol.assigned_machine(i, j - 1)
                if prev_machine in {m for m, _p in ops[j - 1].eligible}:
                    prev_end = sol.s[i][j - 1] + dict(ops[j - 1].eligible)[prev_machine]
                    if start < prev_end - EPS:
                        violations.append(
                            f"precedence: {label} starts before completion of its predecessor"
                        )
            for w_start, w_end in instance.windows_on(machine):
                if _overlaps(start, end, w_start, w_end):
                    violations.append(
                        f"window: {label} intrudes into [{w_start}, {w_end}) on machine {machine}"
                    )

    for machine in sorted(intervals):
        spans = sorted(intervals[machine])
        for (start_a, end_a, label_a), (start_b, end_b, label_b) in zip(spans, spans[1:]):
            if _overlaps(start_a, end_a, start_b, end_b):
                violations.append(
                    f"capacity: {label_a} and {label_b} overlap on machine {machine}"
                )

    achieved = max(completions) if completions else 0.0
    if sol.makespan is not None and sol.makespan < achieved - EPS:
        violations.append(
            f"makespan: stated value {sol.makespan} below achieved completion {achieved}"
        )
    return FeasibilityReport(
        feasible=not violations, violations=tuple(violations), makespan=achieved
    )


# --- Brute-force oracle ---------------------------------------------------------

ORACLE_OP_BOUND = 6
ORACLE_COMBINATION_BOUND = 10**6


def _linear_extensions(counts: list[int]):
    """All job-major-respecting orders of operations, as (job, pos) sequences."""
    total = sum(counts)
    progress = [0] * len(counts)
    sequence: list[tuple[int, int]] = []

    def recurse():
        if len(sequence) == total:
            yield tuple(sequence)
            return
        for job in range(len(counts)):
            if progress[job] < counts[job]:
                sequence.append((job, progress[job]))
                progress[job] += 1
                yield from recurse()
                progress[job] -= 1
                sequence.pop()

    yield from recurse()


def _earliest_start(lb: float, ptime: float, windows) -> float:
    start = lb
    moved = True
    while moved:
        moved = False
        for w_start, w_end in windows:
            if start < w_end - EPS and start + ptime > w_start + EPS:
                start = w_end
                moved = True
    return start


def _count_extensions(counts: list[int]) -> int:
    total = math.factorial(sum(counts))
    for c in counts:
        total //= math.factorial(c)
    return total


def brute_force_makespan(instance: FjspInstance) -> float:
    """The optimum of `brute_force_solution`."""
    return brute_force_solution(instance)[0]


def brute_force_solution(instance: FjspInstance) -> tuple[float, FjspSolution]:
    """Optimal makespan and a schedule achieving it, by exhausting assignments
    and sequencing orders with earliest-feasible start times; TooLarge beyond
    the enumeration bound."""
    ops = instance.op_list()
    if len(ops) > ORACLE_OP_BOUND:
        raise TooLarge(f"{len(ops)} operations exceed the oracle bound of {ORACLE_OP_BOUND}")
    counts = [len(job) for job in instance.jobs]
    assignment_space = 1
    for _i, _j, op in ops:
        assignment_space *= len(op.eligible)
    if assignment_space * _count_extensions(counts) > ORACLE_COMBINATION_BOUND:
        raise TooLarge("assignments x orderings exceed the enumeration bound")

    op_options = [[(machine, ptime) for machine, ptime in op.eligible] for _i, _j, op in ops]
    op_index = {(i, j): idx for idx, (i, j, _op) in enumerate(ops)}

    best_value: float | None = None
    best_assignment = None
    best_starts = None
    for choice in itertools.product(*op_options):
        for order in _linear_extensions(counts):
            machine_free: dict[int, float] = {}
            job_ready = [0.0] * instance.n_jobs
            starts: dict[tuple[int, int], float] = {}
            for i, j in order:
                machine, ptime = choice[op_index[(i, j)]]
                lb = max(job_ready[i], machine_free.get(machine, 0.0))
                start = _earliest_start(lb, ptime, instance.windows_on(machine))
                starts[(i, j)] = start
                job_ready[i] = machine_free[machine] = start + ptime
            value = max(job_ready) if job_ready else 0.0
            if best_value is None or value < best_value - EPS:
                best_value = value
                best_assignment = {
                    (i, j): choice[op_index[(i, j)]][0] for i, j, _op in ops
                }
                best_starts = dict(starts)
    solution = solution_from_assignment(instance, best_assignment, best_starts, makespan=best_value)
    return best_value, solution


# --- JSON interchange ------------------------------------------------------------

def solution_to_json(sol: FjspSolution) -> dict:
    return {
        "x": [[list(row) for row in job] for job in sol.x],
        "s": [list(job) for job in sol.s],
        "makespan": sol.makespan,
    }


def _number_table(doc: dict, key: str, depth: int) -> tuple:
    """doc[key] as tuples of numbers nested `depth` lists deep."""

    def rows(value, depth: int) -> tuple:
        if depth == 1:
            return tuple(json_field({key: value}, key, [float]))
        return tuple(rows(item, depth - 1) for item in json_field({key: value}, key, [list]))

    return rows(doc.get(key), depth)


def solution_from_json(doc: dict) -> FjspSolution:
    """Solution from solution_to_json's document: `x` is flags by job,
    operation and machine, `s` start times by job and operation;
    SchemaViolation otherwise. The window-side binaries `z` follow from `x`
    and `s`, so a solution holds none: a document may give `"z": null`."""
    if not isinstance(doc, dict):
        raise SchemaViolation("FJSP solution must be an object")
    if doc.get("z") is not None:
        raise SchemaViolation("FJSP solution field 'z' must be null or absent")
    return FjspSolution(
        x=_number_table(doc, "x", 3),
        s=_number_table(doc, "s", 2),
        makespan=json_field(doc, "makespan", float, None),
    )


def windows_from_json(doc: list) -> dict[int, list[tuple[float, float]]]:
    """Windows by machine from a list of {machine, w_start, w_end} objects;
    SchemaViolation otherwise."""
    if not isinstance(doc, list):
        raise SchemaViolation("windows file must hold a list of windows")
    windows: dict[int, list[tuple[float, float]]] = {}
    for record in doc:
        if not isinstance(record, dict):
            raise SchemaViolation("each window must be an object")
        windows.setdefault(json_field(record, "machine", int), []).append(
            (float(json_field(record, "w_start", float)), float(json_field(record, "w_end", float)))
        )
    return windows
