"""Battery demand-response MILP family.

Data model and exact evaluators for the baseline profit objective, the
incentive payment, the event-modified objective, the minimum load-reduction
check, and the upstream-buffer starvation pattern; a knowledge-graph builder
that declares the family as a MiniModel AST and ingests it like any parsed
model, so closure queries retrieve exactly the set needed to state the
load-reduction constraint; and a small brute-force schedule oracle for
desk-scale instances.

Slots are 1-based throughout the public API; per-slot series are 0-indexed
tuples internally. All energies are kWh per slot (hourly inputs are expanded
at data-construction time).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from . import knowledge_graph as kg
from . import model_dsl
from .errors import DimensionMismatch, MissingBufferSeries, SchemaViolation, TooLarge
from .knowledge_graph import ConceptCard, KnowledgeGraph, json_field
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

TIME_SET = "timeSequence"
EVENT_SET = "drWindow"
PRICE_PARAM = "slotPrice"
BASELINE_PARAM = "Bref"
MIN_REDUCTION_PARAM = "deltaLmin"
RATE_PARAM = "lambdaRate"
SLOTS_PER_HOUR_PARAM = "slotsPerHour"
LOAD_REDUCTION_CONSTRAINT = "loadReduction"
BASELINE_OBJECTIVE = "baselineProfit"
DR_OBJECTIVE = "drProfit"


# --- Data model ----------------------------------------------------------------

@dataclass(frozen=True)
class Machine:
    name: str
    branch: int
    p_on: float
    p_off: float
    upstream: tuple[str, ...] = ()

    def __post_init__(self):
        if self.p_on < 0 or self.p_off < 0:
            raise DimensionMismatch(f"machine {self.name}: powers must be >= 0")
        if self.p_on < self.p_off:
            raise DimensionMismatch(f"machine {self.name}: requires p_on >= p_off")


@dataclass(frozen=True)
class Product:
    price: float
    quantity: float | None = None
    quantity_buffer: tuple[str, int] | None = None  # (buffer name, slot)

    def __post_init__(self):
        if (self.quantity is None) == (self.quantity_buffer is None):
            raise DimensionMismatch("product needs exactly one of quantity / quantity_buffer")
        if self.price < 0 or (self.quantity is not None and self.quantity < 0):
            raise DimensionMismatch("product price and quantity must be >= 0")


@dataclass(frozen=True)
class Material:
    cost: float
    quantity: float

    def __post_init__(self):
        if self.cost < 0 or self.quantity < 0:
            raise DimensionMismatch("material cost and quantity must be >= 0")


@dataclass(frozen=True)
class BatteryCaseData:
    n_slots: int
    slots_per_hour: int
    machines: tuple[Machine, ...]
    prices: tuple[float, ...]
    products: tuple[Product, ...] = ()
    materials: tuple[Material, ...] = ()
    minutes_per_slot: int = 10

    def __post_init__(self):
        if len(self.prices) != self.n_slots:
            raise DimensionMismatch(
                f"expected {self.n_slots} slot prices, got {len(self.prices)}"
            )
        if any(p < 0 for p in self.prices):
            raise DimensionMismatch("prices must be >= 0")
        names = [m.name for m in self.machines]
        if len(set(names)) != len(names):
            raise DimensionMismatch("machine names must be unique")
        for product in self.products:
            if product.quantity_buffer is not None and not 1 <= product.quantity_buffer[1] <= self.n_slots:
                raise DimensionMismatch(
                    f"product buffer slot {product.quantity_buffer[1]} outside 1..{self.n_slots}"
                )
        try:
            fixed = sum(p.price * p.quantity for p in self.products if p.quantity is not None)
            materials = sum(m.cost * m.quantity for m in self.materials)
            finite = math.isfinite(fixed) and math.isfinite(materials)
            # A schedule is 0/1, so a slot draws at most each machine's larger power.
            peak = sum(max(m.p_on, m.p_off) for m in self.machines)
            energy_finite = math.isfinite(sum(price * peak for price in self.prices))
        except OverflowError:  # an integer past the float range
            finite = energy_finite = False
        if not finite:
            raise DimensionMismatch("fixed product revenue and material cost must sum to finite numbers")
        if not energy_finite:
            raise DimensionMismatch("slot prices times the largest slot energy must sum to a finite number")

    @property
    def machine_names(self) -> tuple[str, ...]:
        return tuple(m.name for m in self.machines)

    @property
    def buffer_names(self) -> tuple[str, ...]:
        found: list[str] = []
        for machine in self.machines:
            for buf in machine.upstream:
                if buf not in found:
                    found.append(buf)
        for product in self.products:
            if product.quantity_buffer is not None and product.quantity_buffer[0] not in found:
                found.append(product.quantity_buffer[0])
        return tuple(found)


@dataclass(frozen=True)
class DrEvent:
    slots: tuple[int, ...]  # 1-based event slots
    lambda_rate: float
    b_ref: tuple[float, ...]  # kWh per slot, aligned with `slots`
    delta_l_min: float

    def __post_init__(self):
        if self.lambda_rate < 0:
            raise DimensionMismatch("lambda_rate must be >= 0")
        if len(set(self.slots)) != len(self.slots):
            raise DimensionMismatch("event slots must be distinct")
        if len(self.b_ref) != len(self.slots):
            raise DimensionMismatch("b_ref must cover every event slot")

    def baseline_at(self, slot: int) -> float:
        return self.b_ref[self.slots.index(slot)]


@dataclass(frozen=True)
class Schedule:
    y: dict[str, tuple[int, ...]]
    buffers: dict[str, tuple[int, ...]] | None = None


def expand_hourly(hourly: list[float], slots_per_hour: int) -> tuple[float, ...]:
    """Repeat each hourly value over its slots (for $/kWh prices)."""
    out: list[float] = []
    for value in hourly:
        out.extend([value] * slots_per_hour)
    return tuple(out)


def expand_hourly_baseline(hourly: dict[int, float], slots_per_hour: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
    """Split per-hour baseline energy evenly across that hour's slots.

    Returns (event slots, per-slot b_ref) for the hours given (1-based hours).
    """
    slots: list[int] = []
    values: list[float] = []
    for hour in sorted(hourly):
        for offset in range(slots_per_hour):
            slots.append((hour - 1) * slots_per_hour + offset + 1)
            values.append(hourly[hour] / slots_per_hour)
    return tuple(slots), tuple(values)


# --- Evaluators -------------------------------------------------------------------

def lambda_energy(p_on: float, p_off: float, y: int) -> float:
    """Actual per-slot energy of one machine: active or low-power draw."""
    if p_on < 0 or p_off < 0:
        raise DimensionMismatch("powers must be >= 0")
    return p_on * y + p_off * (1 - y)


def _check_schedule(data: BatteryCaseData, sched: Schedule) -> None:
    if set(sched.y) != set(data.machine_names):
        raise DimensionMismatch("schedule machines do not match case data")
    for name, series in sched.y.items():
        if len(series) != data.n_slots:
            raise DimensionMismatch(f"schedule for {name} has {len(series)} slots")
        if any(v not in (0, 1) for v in series):
            raise DimensionMismatch(f"schedule for {name} must be 0/1")


def _check_event(data: BatteryCaseData, event: DrEvent) -> None:
    for slot in event.slots:
        if not 1 <= slot <= data.n_slots:
            raise DimensionMismatch(f"event slot {slot} outside 1..{data.n_slots}")


def _slot_energy(data: BatteryCaseData, sched: Schedule, slot: int) -> float:
    return sum(
        lambda_energy(m.p_on, m.p_off, sched.y[m.name][slot - 1]) for m in data.machines
    )


def _product_quantity(product: Product, sched: Schedule) -> float:
    if product.quantity is not None:
        return product.quantity
    buffer_name, slot = product.quantity_buffer
    if sched.buffers is None or buffer_name not in sched.buffers:
        raise MissingBufferSeries(f"no series for buffer {buffer_name!r}")
    return sched.buffers[buffer_name][slot - 1]


def _revenue_less_materials(data: BatteryCaseData, sched: Schedule) -> float:
    revenue = sum(p.price * _product_quantity(p, sched) for p in data.products)
    materials = sum(m.cost * m.quantity for m in data.materials)
    return revenue - materials


def _energy_cost(data: BatteryCaseData, sched: Schedule) -> float:
    return sum(
        data.prices[slot - 1] * _slot_energy(data, sched, slot)
        for slot in range(1, data.n_slots + 1)
    )


def objective_baseline(data: BatteryCaseData, sched: Schedule) -> float:
    """Profit without an event: revenue - material cost - energy cost."""
    _check_schedule(data, sched)
    return _revenue_less_materials(data, sched) - _energy_cost(data, sched)


def _event_reduction(data: BatteryCaseData, sched: Schedule, event: DrEvent) -> float:
    """Baseline energy less actual energy, summed over the event window."""
    _check_schedule(data, sched)
    _check_event(data, event)
    return sum(event.baseline_at(slot) - _slot_energy(data, sched, slot) for slot in event.slots)


def incentive_payment(data: BatteryCaseData, sched: Schedule, event: DrEvent) -> float:
    """Event payment: rate times (baseline energy - actual energy) over the
    event window; may be negative when consumption exceeds the baseline."""
    return event.lambda_rate * _event_reduction(data, sched, event)


def objective_dr(data: BatteryCaseData, sched: Schedule, event: DrEvent) -> float:
    """Event-modified profit; with a zero rate it equals objective_baseline."""
    _check_event(data, event)
    return objective_baseline(data, sched) + incentive_payment(data, sched, event)


def check_load_reduction(data: BatteryCaseData, sched: Schedule, event: DrEvent) -> bool:
    """True iff total event-window reduction meets the minimum (non-strict)."""
    return _event_reduction(data, sched, event) >= event.delta_l_min


def starvation_feasible(
    data: BatteryCaseData, sched: Schedule
) -> tuple[bool, tuple[str, int] | None]:
    """Check the upstream-buffer starvation pattern.

    A machine with upstream buffers must be off in slot 1 and may run in slot
    i >= 2 only if every upstream buffer held stock at slot i-1. Returns the
    first violation in slot-major order.
    """
    _check_schedule(data, sched)
    gated = [m for m in data.machines if m.upstream]
    for machine in gated:
        for buf in machine.upstream:
            if sched.buffers is None or buf not in sched.buffers:
                raise MissingBufferSeries(f"no series for buffer {buf!r}")
            if len(sched.buffers[buf]) != data.n_slots:
                raise DimensionMismatch(f"buffer series {buf!r} has wrong length")
    for slot in range(1, data.n_slots + 1):
        for machine in gated:
            y = sched.y[machine.name][slot - 1]
            if slot == 1:
                if y != 0:
                    return False, (machine.name, 1)
                continue
            for buf in machine.upstream:
                if y > sched.buffers[buf][slot - 2]:
                    return False, (machine.name, slot)
    return True, None


# --- Brute-force oracle ---------------------------------------------------------

ENUMERATION_BOUND_BITS = 20


@dataclass(frozen=True)
class BatteryOptResult:
    status: str  # optimal | infeasible
    schedule: Schedule | None
    objective: float | None


def brute_force_optimum(
    data: BatteryCaseData,
    event: DrEvent | None = None,
    buffers: dict[str, tuple[int, ...]] | None = None,
) -> BatteryOptResult:
    """Exhaustive enumeration of all on/off schedules, machine-major order.

    With an event, only schedules satisfying the load-reduction constraint are
    considered (participation is mandatory). Ties keep the first maximizer in
    enumeration order, i.e. the lexicographically smallest schedule.
    """
    if event is not None:
        _check_event(data, event)
    n_bits = len(data.machines) * data.n_slots
    if n_bits > ENUMERATION_BOUND_BITS:
        raise TooLarge(f"{n_bits} binary cells exceed the {ENUMERATION_BOUND_BITS}-bit bound")
    names = data.machine_names
    best_value = None
    best_schedule = None
    for bits in itertools.product((0, 1), repeat=n_bits):
        y = {
            name: tuple(bits[i * data.n_slots : (i + 1) * data.n_slots])
            for i, name in enumerate(names)
        }
        sched = Schedule(y=y, buffers=buffers)
        if event is not None:
            if not check_load_reduction(data, sched, event):
                continue
            value = objective_dr(data, sched, event)
        else:
            value = objective_baseline(data, sched)
        if best_value is None or value > best_value:
            best_value = value
            best_schedule = sched
    if best_schedule is None:
        return BatteryOptResult(status="infeasible", schedule=None, objective=None)
    return BatteryOptResult(status="optimal", schedule=best_schedule, objective=best_value)


# --- Expression builders -----------------------------------------------------------

def _machine_energy_expr(machine: Machine, binder: str) -> model_dsl.Expr:
    on = BinOp("*", Ref(f"{machine.name}PowerOn"), Ref(machine.name, (Index(binder, 0),)))
    off = BinOp(
        "*",
        Ref(f"{machine.name}PowerOff"),
        BinOp("-", Num(1.0), Ref(machine.name, (Index(binder, 0),))),
    )
    return BinOp("+", on, off)


def _total_energy_expr(data: BatteryCaseData, binder: str) -> model_dsl.Expr:
    return model_dsl.chain("+", [_machine_energy_expr(m, binder) for m in data.machines])


def _revenue_expr(data: BatteryCaseData) -> model_dsl.Expr:
    fixed = sum(p.price * p.quantity for p in data.products if p.quantity is not None)
    terms: list[model_dsl.Expr] = []
    for product in data.products:
        if product.quantity_buffer is not None:
            buf, slot = product.quantity_buffer
            terms.append(BinOp("*", Num(product.price), Ref(buf, (Index(None, slot),))))
    if fixed or not terms:
        terms.insert(0, Num(float(fixed)))
    expr = model_dsl.chain("+", terms)
    materials = sum(m.cost * m.quantity for m in data.materials)
    if materials:
        expr = BinOp("-", expr, Num(float(materials)))
    return expr


def load_reduction_constraint_ast(data: BatteryCaseData, event: DrEvent) -> Constraint:
    """`sum over the event window of (baseline - actual energy) >= minimum`,
    with the minimum inlined as a literal (mirrors generated solver code)."""
    body = BinOp(
        "-", Ref(BASELINE_PARAM, (Index("t", 0),)), _total_energy_expr(data, "t")
    )
    return Constraint(
        name=LOAD_REDUCTION_CONSTRAINT,
        quantifier=None,
        left=Sum(Quantifier("t", EVENT_SET), body),
        op=">=",
        right=Num(float(event.delta_l_min)),
    )


def _profit_expr(data: BatteryCaseData) -> model_dsl.Expr:
    """Revenue less materials less the energy cost over every slot."""
    energy = Sum(
        Quantifier("t", TIME_SET),
        BinOp("*", Ref(PRICE_PARAM, (Index("t", 0),)), _total_energy_expr(data, "t")),
    )
    return BinOp("-", _revenue_expr(data), energy)


def baseline_objective_ast(data: BatteryCaseData) -> Objective:
    return Objective(sense="max", name=BASELINE_OBJECTIVE, expr=_profit_expr(data))


def dr_objective_ast(data: BatteryCaseData, event: DrEvent) -> Objective:
    omega = BinOp(
        "*",
        Num(float(event.lambda_rate)),
        BinOp(
            "-",
            Sum(Quantifier("t", EVENT_SET), Ref(BASELINE_PARAM, (Index("t", 0),))),
            Sum(Quantifier("t", EVENT_SET), _total_energy_expr(data, "t")),
        ),
    )
    return Objective(sense="max", name=DR_OBJECTIVE, expr=BinOp("+", _profit_expr(data), omega))


def starvation_constraint_asts(data: BatteryCaseData) -> list[Constraint]:
    """Listing-style starvation pattern: off at slot 1, then gated per upstream
    buffer by the previous slot's level."""
    constraints: list[Constraint] = []
    for machine in data.machines:
        if not machine.upstream:
            continue
        constraints.append(
            Constraint(
                name=f"{machine.name}InitOff",
                quantifier=None,
                left=Ref(machine.name, (Index(None, 1),)),
                op="=",
                right=Num(0.0),
            )
        )
        for buf in machine.upstream:
            constraints.append(
                Constraint(
                    name=f"{machine.name}NoStarve{buf}",
                    quantifier=Quantifier(
                        "t", TIME_SET, Predicate((Compare(">=", Ref("t"), Num(2.0)),))
                    ),
                    left=Ref(machine.name, (Index("t", 0),)),
                    op="<=",
                    right=Ref(buf, (Index("t", -1),)),
                )
            )
    return constraints


# --- Knowledge graph builder ---------------------------------------------------------

def _check_family_inputs(data: BatteryCaseData, event: DrEvent) -> None:
    """What the battery family needs of its inputs: at least one machine, and
    machine and buffer names that MiniModel reads as names, neither a keyword
    nor the slot binder `t` (SchemaViolation); event slots inside the horizon
    that form a non-empty contiguous range (DimensionMismatch). A name that
    is another family symbol is rejected when the family is ingested."""
    if not data.machines:
        raise SchemaViolation("battery instance has no machines")
    for name in data.machine_names + data.buffer_names:
        # Inside the family's sums and quantifiers, `t` names the slot.
        if not model_dsl.NAME_RE.fullmatch(name) or name in model_dsl.KEYWORDS or name == "t":
            raise SchemaViolation(
                f"machine or buffer name {name!r} is not a MiniModel name"
                " (a letter, then letters, digits or '_'; no keyword, not 't')"
            )
    if not event.slots:
        raise DimensionMismatch("event window has no slots")
    _check_event(data, event)
    if list(event.slots) != list(range(min(event.slots), max(event.slots) + 1)):
        raise DimensionMismatch("event slots must form a contiguous range")


def build_battery_kg(data: BatteryCaseData, event: DrEvent) -> KnowledgeGraph:
    """Knowledge graph containing every symbol of the battery family.

    The family is a MiniModel AST ingested by `kg.ingest_model`; a model holds
    one objective, so the event-modified one is ingested second. Closure of
    the load-reduction constraint yields exactly: the constraint, every
    machine on/off variable, every per-machine power parameter, the
    baseline/minimum-reduction/rate parameters, and the two slot sets. The
    event window must be a contiguous slot range (it is declared as a range
    set). Code entities carry empty descriptions: solver code contributes
    structure, concept cards contribute prose.
    """
    _check_family_inputs(data, event)
    powers = []
    for machine in data.machines:
        powers.append(ParamDecl(f"{machine.name}PowerOn", data=machine.p_on))
        powers.append(ParamDecl(f"{machine.name}PowerOff", data=machine.p_off))
    family = ModelAst(
        sets=(
            SetDecl(TIME_SET, lo=1, hi=data.n_slots),
            SetDecl(EVENT_SET, lo=min(event.slots), hi=max(event.slots)),
        ),
        params=(
            ParamDecl(SLOTS_PER_HOUR_PARAM, data=data.slots_per_hour),
            ParamDecl(PRICE_PARAM, (TIME_SET,), data.prices),
            *powers,
            *(ParamDecl(buf, (TIME_SET,)) for buf in data.buffer_names),
            ParamDecl(BASELINE_PARAM, (EVENT_SET,), event.b_ref),
            ParamDecl(MIN_REDUCTION_PARAM, data=event.delta_l_min),
            ParamDecl(RATE_PARAM, data=event.lambda_rate),
        ),
        vars=tuple(VarDecl(m.name, (TIME_SET,), model_dsl.BINARY) for m in data.machines),
        constraints=(
            load_reduction_constraint_ast(data, event),
            *starvation_constraint_asts(data),
        ),
        objective=baseline_objective_ast(data),
    )
    graph = KnowledgeGraph()
    for ast in (family, ModelAst(objective=dr_objective_ast(data, event))):
        kg.ingest_model(ast, graph)
    # The constraint qualifies the incentive payment, so the full event
    # definition is a requirement even though the inequality inlines the
    # minimum as a literal; the event objective inlines the rate likewise.
    graph.add_all(edges=(
        kg.Edge(LOAD_REDUCTION_CONSTRAINT, MIN_REDUCTION_PARAM, kg.DEPENDS_ON),
        kg.Edge(LOAD_REDUCTION_CONSTRAINT, RATE_PARAM, kg.DEPENDS_ON),
        kg.Edge(DR_OBJECTIVE, RATE_PARAM, kg.DEPENDS_ON),
    ))
    return graph


def expected_load_reduction_closure(data: BatteryCaseData) -> frozenset[str]:
    """The documented member set for the load-reduction closure."""
    members = {LOAD_REDUCTION_CONSTRAINT, TIME_SET, EVENT_SET,
               BASELINE_PARAM, MIN_REDUCTION_PARAM, RATE_PARAM}
    for machine in data.machines:
        members.add(machine.name)
        members.add(f"{machine.name}PowerOn")
        members.add(f"{machine.name}PowerOff")
    return frozenset(members)


# --- Concept cards --------------------------------------------------------------

def battery_concept_cards() -> list[ConceptCard]:
    """Paper-side knowledge for the battery case: the semantic stream and the
    alignment targets used by queries and by the source-ablation harness."""
    return [
        ConceptCard(
            name="incentive price",
            kind=kg.PARAMETER,
            description="Rate paid per kWh of verified load reduction.",
            solver_symbol_hint=RATE_PARAM,
            snippet=(
                "The grid operator offers an incentive price of 0.54 dollars per "
                "kWh for load reduced below the customer baseline during the "
                "demand response event."
            ),
        ),
        ConceptCard(
            name="customer baseline",
            kind=kg.PARAMETER,
            description="Reference consumption against which reduction is measured.",
            solver_symbol_hint=BASELINE_PARAM,
            snippet=(
                "The customer baseline load gives the reference energy per slot, "
                "estimated from historical consumption, against which event-window "
                "reduction is credited."
            ),
        ),
        ConceptCard(
            name="minimum load reduction",
            kind=kg.PARAMETER,
            description="Smallest qualifying reduction over the event window.",
            solver_symbol_hint=MIN_REDUCTION_PARAM,
            snippet=(
                "Participants must reduce load by at least 10 kW over the event "
                "window to qualify for incentive payments."
            ),
        ),
        ConceptCard(
            name="demand response event",
            kind=kg.AUXILIARY_RULE,
            description="Event window during which reduction is rewarded.",
            solver_symbol_hint=EVENT_SET,
            snippet=(
                "A demand response event is issued for the 16th and 17th hours, "
                "time slots 91 to 102; during these slots the manufacturer is paid "
                "for consuming less than its baseline."
            ),
            relations=(("depends_on", "incentive price"),),
        ),
        ConceptCard(
            name="load reduction",
            kind=kg.CONSTRAINT,
            description="Qualifying inequality for event participation.",
            solver_symbol_hint=LOAD_REDUCTION_CONSTRAINT,
            snippet=(
                "The load reduction constraint requires total baseline-minus-actual "
                "energy over the event slots to reach the minimum reduction."
            ),
            relations=(("depends_on", "demand response event"),),
        ),
        ConceptCard(
            name="incentive mechanism",
            kind=kg.CONCEPT,
            description="How demand-response payments reward load reduction.",
            snippet=(
                "Incentive-based demand response pays a reward proportional to the "
                "energy saved below the baseline during the event; the payment "
                "offsets lost production when machines are turned off."
            ),
        ),
        ConceptCard(
            name="machine m01",
            kind=kg.DECISION_VARIABLE,
            description="First machine of the core assembly line.",
            solver_symbol_hint="m01",
            snippet=(
                "Machine m01 heads the core assembly line and consumes parts from "
                "the three upstream production branches."
            ),
        ),
        ConceptCard(
            name="buffer B13",
            kind=kg.PARAMETER,
            description="Output buffer of the first upstream branch.",
            solver_symbol_hint="B13",
            snippet="Buffer B13 stores intermediate products from the first branch.",
        ),
        ConceptCard(
            name="buffer B22",
            kind=kg.PARAMETER,
            description="Output buffer of the second upstream branch.",
            solver_symbol_hint="B22",
            snippet="Buffer B22 stores intermediate products from the second branch.",
        ),
        ConceptCard(
            name="buffer B31",
            kind=kg.PARAMETER,
            description="Output buffer of the third upstream branch.",
            solver_symbol_hint="B31",
            snippet="Buffer B31 stores intermediate products from the third branch.",
        ),
        ConceptCard(
            name="machine m01 starvation rule",
            kind=kg.CONSTRAINT,
            description="m01 may run only if upstream buffers held stock.",
            snippet=(
                "At every time step the machine m01 can only operate if the "
                "inventory levels of buffers B13, B22 and B31 at the previous time "
                "step meet its production requirement; at the first step it stays off."
            ),
            relations=(
                ("used_in", "machine m01"),
                ("used_in", "buffer B13"),
                ("used_in", "buffer B22"),
                ("used_in", "buffer B31"),
            ),
        ),
    ]


# --- Reference fixtures -------------------------------------------------------------

HOURLY_PRICES = (
    0.30, 0.30, 0.30, 0.30, 0.30, 0.30, 0.30,
    0.45, 0.45, 0.45, 0.45,
    0.60, 0.60, 0.60,
    0.50,
    0.70, 0.70,
    0.55, 0.55, 0.55,
    0.40, 0.40,
    0.32, 0.32,
)


def paper_case_data() -> BatteryCaseData:
    """Full layout: three upstream branches converging on the core line,
    144 ten-minute slots. Power ratings are synthetic desk values."""
    machines = (
        Machine("m11", 1, 2.0, 0.2),
        Machine("m12", 1, 1.5, 0.1, upstream=("B11",)),
        Machine("m13", 1, 1.8, 0.2, upstream=("B12",)),
        Machine("m21", 2, 2.2, 0.2),
        Machine("m22", 2, 1.6, 0.1, upstream=("B21",)),
        Machine("m31", 3, 2.4, 0.3),
        Machine("m01", 0, 3.0, 0.3, upstream=("B13", "B22", "B31")),
        Machine("m02", 0, 2.5, 0.2, upstream=("B01",)),
        Machine("m03", 0, 2.0, 0.2, upstream=("B02",)),
        Machine("m04", 0, 2.8, 0.3, upstream=("B03",)),
    )
    return BatteryCaseData(
        n_slots=144,
        slots_per_hour=6,
        machines=machines,
        prices=expand_hourly(list(HOURLY_PRICES), 6),
        products=(Product(price=5.0, quantity_buffer=("B04", 144)),),
        materials=(),
    )


def paper_event() -> DrEvent:
    slots, b_ref = expand_hourly_baseline({16: 12.0, 17: 12.0}, 6)
    return DrEvent(slots=slots, lambda_rate=0.54, b_ref=b_ref, delta_l_min=10.0)


def toy_case_data() -> BatteryCaseData:
    """One machine, two slots: small enough to audit every term by hand."""
    return BatteryCaseData(
        n_slots=2,
        slots_per_hour=1,
        machines=(Machine("m11", 1, 2.0, 0.0),),
        prices=(0.1, 0.2),
        products=(Product(price=5.0, quantity=2.0),),
        materials=(Material(cost=1.0, quantity=3.0),),
    )


# --- JSON interchange ------------------------------------------------------------

def data_to_json(data: BatteryCaseData, event: DrEvent | None = None) -> dict:
    doc = {
        "n_slots": data.n_slots,
        "slots_per_hour": data.slots_per_hour,
        "minutes_per_slot": data.minutes_per_slot,
        "prices": list(data.prices),
        "machines": [
            {
                "name": m.name,
                "branch": m.branch,
                "p_on": m.p_on,
                "p_off": m.p_off,
                "upstream": list(m.upstream),
            }
            for m in data.machines
        ],
        "products": [
            {
                "price": p.price,
                "quantity": p.quantity,
                "quantity_buffer": list(p.quantity_buffer) if p.quantity_buffer else None,
            }
            for p in data.products
        ],
        "materials": [{"cost": m.cost, "quantity": m.quantity} for m in data.materials],
    }
    if event is not None:
        doc["event"] = {
            "slots": list(event.slots),
            "lambda_rate": event.lambda_rate,
            "b_ref": list(event.b_ref),
            "delta_l_min": event.delta_l_min,
        }
    return doc


def data_from_json(doc: dict) -> tuple[BatteryCaseData, DrEvent | None]:
    """Case data and event from data_to_json's document; SchemaViolation on a
    missing field or a field of the wrong type."""
    if not isinstance(doc, dict):
        raise SchemaViolation("battery instance must be an object")
    machines = tuple(
        Machine(
            name=json_field(m, "name", str),
            branch=json_field(m, "branch", int, 0),
            p_on=json_field(m, "p_on", float),
            p_off=json_field(m, "p_off", float),
            upstream=tuple(json_field(m, "upstream", [str], ())),
        )
        for m in json_field(doc, "machines", [dict])
    )
    products = []
    for p in json_field(doc, "products", [dict], ()):
        buffer = json_field(p, "quantity_buffer", list, None)
        if buffer is not None and [type(v) for v in buffer] != [str, int]:
            raise SchemaViolation("field 'quantity_buffer' must be a [buffer name, slot] pair")
        products.append(
            Product(
                price=json_field(p, "price", float),
                quantity=json_field(p, "quantity", float, None),
                quantity_buffer=tuple(buffer) if buffer else None,
            )
        )
    materials = tuple(
        Material(cost=json_field(m, "cost", float), quantity=json_field(m, "quantity", float))
        for m in json_field(doc, "materials", [dict], ())
    )
    data = BatteryCaseData(
        n_slots=json_field(doc, "n_slots", int),
        slots_per_hour=json_field(doc, "slots_per_hour", int),
        machines=machines,
        prices=tuple(json_field(doc, "prices", [float])),
        products=tuple(products),
        materials=materials,
        minutes_per_slot=json_field(doc, "minutes_per_slot", int, 10),
    )
    event = None
    raw = json_field(doc, "event", dict, None)
    if raw:
        event = DrEvent(
            slots=tuple(json_field(raw, "slots", [int])),
            lambda_rate=json_field(raw, "lambda_rate", float),
            b_ref=tuple(json_field(raw, "b_ref", [float])),
            delta_l_min=json_field(raw, "delta_l_min", float),
        )
    return data, event


def schedule_from_json(doc: dict) -> Schedule:
    """Schedule from a solution document: `y`, and `buffers` when present,
    are objects of numeric series; SchemaViolation otherwise."""
    if not isinstance(doc, dict):
        raise SchemaViolation("battery solution must be an object")

    def series_by_name(raw: dict) -> dict[str, tuple]:
        return {name: tuple(json_field(raw, name, [float])) for name in raw}

    buffers = json_field(doc, "buffers", dict, None)
    return Schedule(
        y=series_by_name(json_field(doc, "y", dict)),
        buffers=series_by_name(buffers) if buffers else None,
    )
