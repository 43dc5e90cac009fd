"""Battery evaluators against hand-computed oracles, equation identities,
the brute-force optimizer, and the knowledge-graph builder."""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurekb import battery as bt
from closurekb import codegen
from closurekb import knowledge_graph as kg
from closurekb import model_dsl as md
from closurekb import retrieval as rt
from closurekb.closure import closure
from closurekb.errors import (
    ClosureKbError,
    DimensionMismatch,
    MissingBufferSeries,
    SchemaViolation,
    TooLarge,
)

from test_knowledge_graph import JSON_VALUES


def toy_schedule(y=(1, 0)):
    return bt.Schedule(y={"m11": tuple(y)})


# --- lambda_energy -----------------------------------------------------------

def test_lambda_energy_selects_active_term():
    assert bt.lambda_energy(2.0, 0.5, 1) == 2.0


def test_lambda_energy_selects_idle_term():
    assert bt.lambda_energy(2.0, 0.5, 0) == 0.5


def test_lambda_energy_symmetric_when_equal():
    assert bt.lambda_energy(0.7, 0.7, 0) == bt.lambda_energy(0.7, 0.7, 1) == 0.7


def test_lambda_energy_rejects_negative_power():
    with pytest.raises(DimensionMismatch):
        bt.lambda_energy(-1.0, 0.0, 1)


# --- objective_baseline ------------------------------------------------------

def test_objective_baseline_toy_value():
    # Independent oracle, term by term: revenue 5*2, materials 1*3,
    # energy 0.1*(2*1 + 0*(1-1)) + 0.2*(2*0 + 0*(1-0)).
    expected = 5 * 2 - 1 * 3 - (0.1 * 2.0 + 0.2 * 0.0)
    assert bt.objective_baseline(bt.toy_case_data(), toy_schedule()) == expected
    assert expected == 6.8


def test_objective_baseline_zero_prices_and_powers():
    data = bt.BatteryCaseData(
        n_slots=2,
        slots_per_hour=1,
        machines=(bt.Machine("m11", 1, 0.0, 0.0),),
        prices=(0.0, 0.0),
        products=(bt.Product(price=5.0, quantity=2.0),),
        materials=(bt.Material(cost=1.0, quantity=3.0),),
    )
    assert bt.objective_baseline(data, toy_schedule((1, 1))) == 5 * 2 - 1 * 3


def test_objective_baseline_all_off_no_products():
    data = bt.BatteryCaseData(
        n_slots=2,
        slots_per_hour=1,
        machines=(bt.Machine("m11", 1, 2.0, 0.0),),
        prices=(0.1, 0.2),
    )
    assert bt.objective_baseline(data, toy_schedule((0, 0))) == 0.0


def test_objective_baseline_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        bt.objective_baseline(bt.toy_case_data(), bt.Schedule(y={"m11": (1,)}))
    with pytest.raises(DimensionMismatch):
        bt.objective_baseline(bt.toy_case_data(), bt.Schedule(y={"mXX": (1, 0)}))


def test_product_quantity_from_buffer_series():
    data = bt.BatteryCaseData(
        n_slots=2,
        slots_per_hour=1,
        machines=(bt.Machine("m11", 1, 0.0, 0.0),),
        prices=(0.0, 0.0),
        products=(bt.Product(price=5.0, quantity_buffer=("B04", 2)),),
    )
    sched = bt.Schedule(y={"m11": (0, 0)}, buffers={"B04": (0, 7)})
    assert bt.objective_baseline(data, sched) == 35.0
    with pytest.raises(MissingBufferSeries):
        bt.objective_baseline(data, bt.Schedule(y={"m11": (0, 0)}))


# --- incentive payment and identities ---------------------------------------------

def two_slot_event(lambda_rate=0.54, b_ref=(50.0, 50.0), delta=10.0):
    return bt.DrEvent(slots=(1, 2), lambda_rate=lambda_rate, b_ref=b_ref, delta_l_min=delta)


def test_incentive_payment_zero_when_consumption_equals_baseline():
    data = bt.BatteryCaseData(
        n_slots=2, slots_per_hour=1,
        machines=(bt.Machine("m11", 1, 2.0, 2.0),),
        prices=(0.0, 0.0),
    )
    event = two_slot_event(b_ref=(2.0, 2.0))
    assert bt.incentive_payment(data, toy_schedule((1, 0)), event) == 0.0


def test_incentive_payment_direct_value():
    # Sum B_ref = 100 kWh, sum of actual energy = 88 kWh, rate 0.54 -> 6.48.
    data = bt.BatteryCaseData(
        n_slots=2, slots_per_hour=1,
        machines=(bt.Machine("m11", 1, 44.0, 44.0),),
        prices=(0.0, 0.0),
    )
    payment = bt.incentive_payment(data, toy_schedule((1, 1)), two_slot_event())
    assert payment == 0.54 * (100 - 88)
    assert abs(payment - 6.48) < 1e-12


def test_incentive_payment_empty_event_window():
    data = bt.toy_case_data()
    event = bt.DrEvent(slots=(), lambda_rate=0.54, b_ref=(), delta_l_min=0.0)
    assert bt.incentive_payment(data, toy_schedule(), event) == 0.0


def test_objective_dr_composes_baseline_plus_incentive():
    data = bt.toy_case_data()
    event = bt.DrEvent(slots=(2,), lambda_rate=0.54, b_ref=(1.0,), delta_l_min=0.0)
    value = bt.objective_dr(data, toy_schedule((1, 0)), event)
    assert value == 6.8 + 0.54 * 1.0
    assert abs(value - 7.34) < 1e-12


def random_toy(rng):
    n_slots = rng.randint(1, 3)
    machines = []
    for i in range(rng.randint(1, 3)):
        p_off = round(rng.uniform(0, 1), 3)
        machines.append(
            bt.Machine(f"m{i}", 1, p_off + round(rng.uniform(0, 3), 3), p_off)
        )
    data = bt.BatteryCaseData(
        n_slots=n_slots,
        slots_per_hour=1,
        machines=tuple(machines),
        prices=tuple(round(rng.uniform(0, 1), 3) for _ in range(n_slots)),
        products=(bt.Product(price=float(rng.randint(0, 9)), quantity=float(rng.randint(0, 5))),),
        materials=(bt.Material(cost=float(rng.randint(0, 3)), quantity=float(rng.randint(0, 4))),),
    )
    slots = tuple(s for s in range(1, n_slots + 1) if rng.random() < 0.7)
    event = bt.DrEvent(
        slots=slots,
        lambda_rate=round(rng.uniform(0, 2), 3),
        b_ref=tuple(round(rng.uniform(0, 5), 3) for _ in slots),
        delta_l_min=round(rng.uniform(0, 3), 3),
    )
    y = {m.name: tuple(rng.randint(0, 1) for _ in range(n_slots)) for m in machines}
    return data, event, bt.Schedule(y=y)


def test_equation_identities_over_1000_random_schedules():
    rng = random.Random(55)
    for _ in range(1000):
        data, event, sched = random_toy(rng)
        zero_event = bt.DrEvent(
            slots=event.slots, lambda_rate=0.0, b_ref=event.b_ref,
            delta_l_min=event.delta_l_min,
        )
        baseline = bt.objective_baseline(data, sched)
        assert abs(bt.objective_dr(data, sched, zero_event) - baseline) <= 1e-12
        decomposition = baseline + bt.incentive_payment(data, sched, event)
        assert abs(bt.objective_dr(data, sched, event) - decomposition) <= 1e-12
        # Linearity in the rate: doubling the rate doubles the payment, exactly.
        doubled = bt.DrEvent(
            slots=event.slots, lambda_rate=2 * event.lambda_rate, b_ref=event.b_ref,
            delta_l_min=event.delta_l_min,
        )
        assert bt.incentive_payment(data, sched, doubled) == 2 * bt.incentive_payment(
            data, sched, event
        )


def test_turning_machine_off_in_event_slot_never_decreases_payment():
    # Holds because construction asserts p_on >= p_off.
    rng = random.Random(606)
    for _ in range(200):
        data, event, sched = random_toy(rng)
        if not event.slots:
            continue
        slot = rng.choice(event.slots)
        machine = rng.choice(data.machines).name
        if sched.y[machine][slot - 1] == 0:
            continue
        flipped_series = list(sched.y[machine])
        flipped_series[slot - 1] = 0
        flipped = bt.Schedule(y={**sched.y, machine: tuple(flipped_series)})
        assert bt.incentive_payment(data, flipped, event) >= bt.incentive_payment(
            data, sched, event
        )


# --- load reduction check -----------------------------------------------------------

def reduction_case(total_reduction):
    # One machine, one event slot; baseline fixes the reduction exactly.
    data = bt.BatteryCaseData(
        n_slots=1, slots_per_hour=1,
        machines=(bt.Machine("m11", 1, 1.0, 1.0),),
        prices=(0.0,),
    )
    event = bt.DrEvent(
        slots=(1,), lambda_rate=0.54,
        b_ref=(1.0 + total_reduction,), delta_l_min=10.0,
    )
    return data, event, bt.Schedule(y={"m11": (1,)})


def test_check_load_reduction_meets_minimum():
    data, event, sched = reduction_case(12.0)
    assert bt.check_load_reduction(data, sched, event) is True


def test_check_load_reduction_shortfall():
    data, event, sched = reduction_case(9.0)
    assert bt.check_load_reduction(data, sched, event) is False


def test_check_load_reduction_boundary_is_non_strict():
    data, event, sched = reduction_case(10.0)
    assert bt.check_load_reduction(data, sched, event) is True


# --- starvation -----------------------------------------------------------------

def starvation_data():
    return bt.BatteryCaseData(
        n_slots=2, slots_per_hour=1,
        machines=(bt.Machine("m01", 0, 1.0, 0.0, upstream=("B13", "B22", "B31")),),
        prices=(0.0, 0.0),
    )


def test_starvation_ok_when_buffers_stocked():
    sched = bt.Schedule(
        y={"m01": (0, 1)},
        buffers={"B13": (1, 1), "B22": (1, 1), "B31": (1, 1)},
    )
    assert bt.starvation_feasible(starvation_data(), sched) == (True, None)


def test_starvation_first_slot_must_be_off():
    sched = bt.Schedule(
        y={"m01": (1, 0)},
        buffers={"B13": (1, 1), "B22": (1, 1), "B31": (1, 1)},
    )
    assert bt.starvation_feasible(starvation_data(), sched) == (False, ("m01", 1))


def test_starvation_empty_upstream_is_vacuous():
    data = bt.BatteryCaseData(
        n_slots=2, slots_per_hour=1,
        machines=(bt.Machine("m11", 1, 1.0, 0.0),),
        prices=(0.0, 0.0),
    )
    assert bt.starvation_feasible(data, toy_schedule((1, 1))) == (True, None)


def test_starvation_detects_empty_buffer_and_missing_series():
    sched = bt.Schedule(
        y={"m01": (0, 1)},
        buffers={"B13": (0, 1), "B22": (1, 1), "B31": (1, 1)},
    )
    assert bt.starvation_feasible(starvation_data(), sched) == (False, ("m01", 2))
    with pytest.raises(MissingBufferSeries):
        bt.starvation_feasible(starvation_data(), bt.Schedule(y={"m01": (0, 0)}))


# --- brute force -----------------------------------------------------------------

def enumerate_schedules(data):
    names = data.machine_names
    for bits in itertools.product((0, 1), repeat=len(names) * data.n_slots):
        yield bt.Schedule(
            y={
                name: tuple(bits[i * data.n_slots : (i + 1) * data.n_slots])
                for i, name in enumerate(names)
            }
        )


def test_brute_force_matches_independent_enumeration_no_event():
    data = bt.toy_case_data()
    result = bt.brute_force_optimum(data)
    best = max(bt.objective_baseline(data, s) for s in enumerate_schedules(data))
    assert result.status == "optimal"
    assert result.objective == best
    assert bt.objective_baseline(data, result.schedule) == best


def test_brute_force_infeasible_when_minimum_unreachable():
    data, event, _sched = reduction_case(0.0)
    impossible = bt.DrEvent(slots=event.slots, lambda_rate=event.lambda_rate,
                            b_ref=event.b_ref, delta_l_min=999.0)
    assert bt.brute_force_optimum(data, impossible).status == "infeasible"


def test_brute_force_huge_rate_turns_event_machines_off():
    data = bt.BatteryCaseData(
        n_slots=2, slots_per_hour=1,
        machines=(bt.Machine("m11", 1, 2.0, 0.0),),
        prices=(0.1, 0.1),
        products=(bt.Product(price=1.0, quantity=1.0),),
    )
    event = bt.DrEvent(slots=(2,), lambda_rate=1000.0, b_ref=(5.0,), delta_l_min=0.0)
    result = bt.brute_force_optimum(data, event)
    assert result.schedule.y["m11"][1] == 0


def test_brute_force_respects_enumeration_bound():
    with pytest.raises(TooLarge):
        bt.brute_force_optimum(bt.paper_case_data(), bt.paper_event())


def test_brute_force_maximizer_confirmed_by_reenumeration_with_event():
    rng = random.Random(7)
    for _ in range(10):
        data, event, _sched = random_toy(rng)
        if len(data.machines) * data.n_slots > 8:
            continue
        result = bt.brute_force_optimum(data, event)
        feasible = [
            s for s in enumerate_schedules(data) if bt.check_load_reduction(data, s, event)
        ]
        if not feasible:
            assert result.status == "infeasible"
            continue
        best = max(bt.objective_dr(data, s, event) for s in feasible)
        assert result.objective == best


def test_brute_force_tie_break_lexicographic():
    # All-zero cost landscape: every schedule scores 0; first in machine-major
    # lexicographic order is all-off.
    data = bt.BatteryCaseData(
        n_slots=2, slots_per_hour=1,
        machines=(bt.Machine("m11", 1, 0.0, 0.0),),
        prices=(0.0, 0.0),
    )
    result = bt.brute_force_optimum(data)
    assert result.schedule.y["m11"] == (0, 0)


# --- knowledge graph builder -----------------------------------------------------

def hand_wired_battery_kg(data, event):
    """Reference: the battery graph wired entity by entity and edge by edge,
    as `build_battery_kg` did before it declared the family as a MiniModel AST."""
    bt._check_family_inputs(data, event)
    graph = kg.KnowledgeGraph()

    def add(entity_id, kind, fields):
        fields = dict(fields)
        fields.setdefault("solver_symbol", entity_id)
        graph.add_entity(
            kg.Entity(id=entity_id, kind=kind, name=entity_id, fields=fields, source=kg.SOURCE_CODE)
        )

    def wire(statement):
        if isinstance(statement, md.Constraint):
            facts = md.extract_symbols(md.ModelAst(constraints=(statement,)))
        else:
            facts = md.extract_symbols(md.ModelAst(objective=statement))
        for ref in facts.references:
            if ref.name != statement.name and ref.name in graph:
                graph.add_edge(statement.name, ref.name, kg.USED_IN)
        for _site, set_name in facts.iterations:
            if set_name in graph:
                graph.add_edge(statement.name, set_name, kg.DEPENDS_ON)

    add(bt.TIME_SET, kg.INDEX_SET, {"lo": 1, "hi": data.n_slots})
    add(bt.EVENT_SET, kg.INDEX_SET, {"lo": min(event.slots), "hi": max(event.slots)})
    add(bt.SLOTS_PER_HOUR_PARAM, kg.PARAMETER, {"index_sets": [], "data": data.slots_per_hour})
    add(bt.PRICE_PARAM, kg.PARAMETER, {"index_sets": [bt.TIME_SET], "data": list(data.prices)})
    graph.add_edge(bt.PRICE_PARAM, bt.TIME_SET, kg.DEPENDS_ON)
    for machine in data.machines:
        add(machine.name, kg.DECISION_VARIABLE, {"index_sets": [bt.TIME_SET], "domain": md.BINARY})
        graph.add_edge(machine.name, bt.TIME_SET, kg.DEPENDS_ON)
        add(f"{machine.name}PowerOn", kg.PARAMETER, {"index_sets": [], "data": machine.p_on})
        add(f"{machine.name}PowerOff", kg.PARAMETER, {"index_sets": [], "data": machine.p_off})
    for buf in data.buffer_names:
        add(buf, kg.PARAMETER, {"index_sets": [bt.TIME_SET]})
        graph.add_edge(buf, bt.TIME_SET, kg.DEPENDS_ON)
    add(bt.BASELINE_PARAM, kg.PARAMETER, {"index_sets": [bt.EVENT_SET], "data": list(event.b_ref)})
    graph.add_edge(bt.BASELINE_PARAM, bt.EVENT_SET, kg.DEPENDS_ON)
    add(bt.MIN_REDUCTION_PARAM, kg.PARAMETER, {"index_sets": [], "data": event.delta_l_min})
    add(bt.RATE_PARAM, kg.PARAMETER, {"index_sets": [], "data": event.lambda_rate})

    constraint = bt.load_reduction_constraint_ast(data, event)
    add(bt.LOAD_REDUCTION_CONSTRAINT, kg.CONSTRAINT, {"expression": md.emit_constraint(constraint)})
    wire(constraint)
    graph.add_edge(bt.LOAD_REDUCTION_CONSTRAINT, bt.MIN_REDUCTION_PARAM, kg.DEPENDS_ON)
    graph.add_edge(bt.LOAD_REDUCTION_CONSTRAINT, bt.RATE_PARAM, kg.DEPENDS_ON)
    for objective in (bt.baseline_objective_ast(data), bt.dr_objective_ast(data, event)):
        add(objective.name, kg.OBJECTIVE,
            {"expression": md.emit_objective(objective), "sense": "max"})
        wire(objective)
    graph.add_edge(bt.DR_OBJECTIVE, bt.RATE_PARAM, kg.DEPENDS_ON)
    for con in bt.starvation_constraint_asts(data):
        add(con.name, kg.CONSTRAINT, {"expression": md.emit_constraint(con)})
        wire(con)
    return graph


def random_layout(rng):
    """A random case with upstream buffers and a buffer-counted product, so
    the starvation constraints and buffer parameters are exercised."""
    n_slots = rng.randint(2, 6)
    buffers = [f"B{i}" for i in range(rng.randint(1, 4))]
    machines = tuple(
        bt.Machine(f"m{i}", i, rng.choice((0, 1, 2.5)), 0.0,
                   upstream=tuple(rng.sample(buffers, rng.randint(0, len(buffers)))))
        for i in range(rng.randint(1, 4))
    )
    data = bt.BatteryCaseData(
        n_slots=n_slots,
        slots_per_hour=rng.randint(1, 6),
        machines=machines,
        prices=tuple(rng.choice((0, 0.25, 1)) for _ in range(n_slots)),
        products=(bt.Product(price=2.0, quantity_buffer=(rng.choice(buffers), n_slots)),),
        materials=(bt.Material(cost=1.0, quantity=float(rng.randint(0, 2))),) * rng.randint(0, 1),
    )
    lo = rng.randint(1, n_slots)
    slots = tuple(range(lo, rng.randint(lo, n_slots) + 1))
    event = bt.DrEvent(
        slots=slots,
        lambda_rate=rng.choice((0, 0.5, 1.25)),
        b_ref=tuple(rng.choice((1, 2.5)) for _ in slots),
        delta_l_min=rng.choice((0, 3.0)),
    )
    return data, event


def saved_bytes_or_error(build, data, event):
    try:
        return json.dumps(kg.save(build(data, event)), indent=2)
    except Exception as exc:  # the exception type is what both sides must share
        return type(exc)


def test_battery_kg_saves_byte_identical_to_hand_wired_reference():
    cases = [
        (bt.paper_case_data(), bt.paper_event()),
        (bt.toy_case_data(), bt.DrEvent(slots=(1, 2), lambda_rate=0.54, b_ref=(2.0, 2.0), delta_l_min=1.0)),
    ]
    rng = random.Random(2024)
    cases += [random_toy(rng)[:2] for _ in range(1000)]
    cases += [random_layout(rng) for _ in range(200)]
    raised = set()
    for data, event in cases:
        expected = saved_bytes_or_error(hand_wired_battery_kg, data, event)
        assert saved_bytes_or_error(bt.build_battery_kg, data, event) == expected
        if not isinstance(expected, str):
            raised.add(expected)
    assert raised == {DimensionMismatch}  # an empty and a gappy event window
    paper = bt.build_battery_kg(*cases[0])
    assert (len(paper.entities), len(paper.edges)) == (66, 159)


def test_battery_kg_closure_matches_documented_member_set():
    data = bt.paper_case_data()
    graph = bt.build_battery_kg(data, bt.paper_event())
    result = closure(graph, bt.LOAD_REDUCTION_CONSTRAINT)
    assert result.members == bt.expected_load_reduction_closure(data)
    assert all(
        "solver_symbol" in ent.fields for ent in graph.entities.values() if ent.source == kg.SOURCE_CODE
    )


def test_battery_kg_price_parameter_closure():
    graph = bt.build_battery_kg(bt.paper_case_data(), bt.paper_event())
    assert closure(graph, bt.PRICE_PARAM).members == frozenset({bt.PRICE_PARAM, bt.TIME_SET})


def test_battery_kg_dr_objective_generates_valid_code():
    graph = bt.build_battery_kg(bt.paper_case_data(), bt.paper_event())
    members = closure(graph, bt.DR_OBJECTIVE).members
    package = codegen.build_context_from_members(graph, members, [], "dr objective")
    code = codegen.TemplateGenerator()(package)
    assert codegen.validate(code).status == "ok"
    assert "0.54*" in code


def test_battery_kg_requires_contiguous_event_slots():
    data = bt.toy_case_data()
    event = bt.DrEvent(slots=(1,), lambda_rate=0.1, b_ref=(1.0,), delta_l_min=0.0)
    bt.build_battery_kg(data, event)
    gappy = bt.DrEvent(slots=(1, 3), lambda_rate=0.1, b_ref=(1.0, 1.0), delta_l_min=0.0)
    data3 = bt.BatteryCaseData(
        n_slots=3, slots_per_hour=1,
        machines=(bt.Machine("m11", 1, 1.0, 0.0),),
        prices=(0.0, 0.0, 0.0),
    )
    with pytest.raises(DimensionMismatch):
        bt.build_battery_kg(data3, gappy)


def test_battery_kg_rejects_an_instance_without_machines():
    data = bt.BatteryCaseData(n_slots=2, slots_per_hour=1, machines=(), prices=(0.0, 0.0))
    event = bt.DrEvent(slots=(1,), lambda_rate=0.1, b_ref=(1.0,), delta_l_min=0.0)
    with pytest.raises(SchemaViolation):
        bt.build_battery_kg(data, event)


def test_battery_kg_rejects_an_empty_event_window():
    event = bt.DrEvent(slots=(), lambda_rate=0.1, b_ref=(), delta_l_min=0.0)
    with pytest.raises(DimensionMismatch):
        bt.build_battery_kg(bt.toy_case_data(), event)


def test_battery_query_end_to_end_structural_and_snippets():
    from closurekb import retrieval as rt

    data = bt.paper_case_data()
    graph = bt.build_battery_kg(data, bt.paper_event())
    kg.ingest_concept_cards(bt.battery_concept_cards(), graph)
    kg.align(graph)
    graph.freeze()
    index = rt.index_snippets(graph)
    query = "Add a load-reduction constraint for the demand-response event"
    parsed = rt.understand_query(query, graph)
    seeds = rt.select_seeds(parsed, graph)
    structural = rt.structural_retrieve(graph, seeds)
    fused = rt.fuse(structural, rt.semantic_search(index, query, 5))
    documented = bt.expected_load_reduction_closure(data)
    assert documented <= fused.structural
    extras = fused.structural - documented
    assert all(graph.entity(i).source == kg.SOURCE_PAPER for i in extras)
    snippet_ids = {doc_id for doc_id, _score, _text in fused.snippets}
    assert "paper:incentive mechanism" in snippet_ids


def test_objective_modification_query_yields_coefficient_form():
    from closurekb import codegen, retrieval as rt

    graph = bt.build_battery_kg(bt.paper_case_data(), bt.paper_event())
    kg.ingest_concept_cards(bt.battery_concept_cards(), graph)
    kg.align(graph)
    graph.freeze()
    index = rt.index_snippets(graph)
    code, report, rounds = codegen.repair_loop(
        "modify the objective with the incentive reward for the demand response event",
        graph, index, codegen.TemplateGenerator(),
    )
    assert report.status == "ok" and rounds == 1
    assert "max drProfit:" in code
    assert "0.54*(" in code  # incentive rate as a genuine coefficient
    assert "5*B04[144]" in code  # product revenue from the final buffer count


def test_hourly_expansion_helpers():
    assert bt.expand_hourly([0.3, 0.7], 3) == (0.3, 0.3, 0.3, 0.7, 0.7, 0.7)
    slots, values = bt.expand_hourly_baseline({16: 12.0}, 6)
    assert slots == (91, 92, 93, 94, 95, 96)
    assert values == (2.0,) * 6


def test_data_json_round_trip():
    data = bt.paper_case_data()
    event = bt.paper_event()
    doc = bt.data_to_json(data, event)
    data2, event2 = bt.data_from_json(doc)
    assert data2 == data
    assert event2 == event


def test_battery_kg_save_load_round_trip():
    graph = bt.build_battery_kg(bt.paper_case_data(), bt.paper_event())
    kg.ingest_concept_cards(bt.battery_concept_cards(), graph)
    kg.align(graph)
    assert kg.load(kg.save(graph)) == graph


def paper_doc():
    return bt.data_to_json(bt.paper_case_data(), bt.paper_event())


@pytest.mark.parametrize("path, value", [
    (("n_slots",), None),
    (("machines", 0, "p_on"), None),
    (("event", "b_ref"), None),
    (("products", 0, "price"), None),
    (("event", "b_ref"), "x"),
    (("event", "b_ref"), ["x"] * 12),
    (("prices",), 0.3),
    (("n_slots",), 144.0),
    (("slots_per_hour",), True),
    (("machines", 0, "name"), 11),
    (("machines", 0, "upstream"), "B11"),
    (("machines",), [None]),
    (("products", 0, "quantity_buffer"), ["B04"]),
    (("materials",), {"cost": 1}),
    (("event",), [1, 2]),
], ids=lambda part: "-".join(map(str, part)) if isinstance(part, tuple) else repr(part)[:12])
def test_data_from_json_rejects_missing_or_mistyped_fields(path, value):
    doc = paper_doc()
    record = doc
    for key in path[:-1]:
        record = record[key]
    if value is None:
        del record[path[-1]]
    else:
        record[path[-1]] = value
    with pytest.raises(SchemaViolation):
        bt.data_from_json(doc)


def test_data_from_json_defaults_and_null_optional_fields():
    doc = {"n_slots": 1, "slots_per_hour": 1, "prices": [0.5], "event": None,
           "machines": [{"name": "m", "p_on": 1, "p_off": 0, "upstream": None}]}
    data, event = bt.data_from_json(doc)
    assert event is None
    assert data == bt.BatteryCaseData(1, 1, (bt.Machine("m", 0, 1, 0),), (0.5,))


@st.composite
def mutated_paper_docs(draw):
    """The paper instance with one field, at any depth, replaced or deleted."""
    doc = paper_doc()
    doc["machines"] = doc["machines"][:2]
    record = doc
    while True:
        keys = list(record) if isinstance(record, dict) else list(range(len(record)))
        key = draw(st.sampled_from(keys))
        if isinstance(record[key], (dict, list)) and record[key] and draw(st.booleans()):
            record = record[key]
            continue
        if isinstance(record, dict) and draw(st.booleans()):
            del record[key]
        else:
            record[key] = draw(JSON_VALUES)
        return doc


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES | mutated_paper_docs())
def test_data_from_json_raises_only_closurekb_errors(doc):
    try:
        data, event = bt.data_from_json(doc)
    except ClosureKbError:
        return
    assert bt.data_from_json(bt.data_to_json(data, event)) == (data, event)


@settings(max_examples=300, deadline=None)
@given(mutated_paper_docs())
def test_build_battery_kg_of_any_read_instance_raises_only_closurekb_errors(doc):
    try:
        data, event = bt.data_from_json(doc)
        if event is not None:
            bt.build_battery_kg(data, event)
    except ClosureKbError:
        pass


# A price, cost or quantity whose product with another passes the largest
# float, as a JSON float or integer.
HUGE_NUMBERS = st.floats(min_value=1e155, max_value=1e308) | st.integers(min_value=10 ** 155, max_value=10 ** 308)


@st.composite
def overflowing_paper_docs(draw):
    """The paper instance whose products have fixed quantities and whose
    materials are drawn from HUGE_NUMBERS; at least one of either."""
    doc = paper_doc()
    doc["products"] = [
        {"price": draw(HUGE_NUMBERS), "quantity": draw(HUGE_NUMBERS), "quantity_buffer": None}
        for _ in range(draw(st.integers(0, 2)))
    ]
    doc["materials"] = [
        {"cost": draw(HUGE_NUMBERS), "quantity": draw(HUGE_NUMBERS)}
        for _ in range(draw(st.integers(0 if doc["products"] else 1, 2)))
    ]
    return doc


@settings(max_examples=50, deadline=None)
@given(overflowing_paper_docs())
def test_battery_instance_whose_fixed_revenue_or_material_cost_overflows_raises_a_closurekb_error(doc):
    with pytest.raises(ClosureKbError):
        data, event = bt.data_from_json(doc)
        bt.build_battery_kg(data, event)


# Machine and buffer names: keywords, the family's own symbols (and its slot
# binder), text MiniModel does not read as one name, and plain names.
LAYOUT_NAMES = st.sampled_from(["m0", "m1", "B0", "B1"]) | st.sampled_from([
    *sorted(md.KEYWORDS),
    bt.TIME_SET, bt.EVENT_SET, bt.PRICE_PARAM, bt.BASELINE_PARAM, bt.MIN_REDUCTION_PARAM,
    bt.RATE_PARAM, bt.SLOTS_PER_HOUR_PARAM, bt.LOAD_REDUCTION_CONSTRAINT,
    bt.BASELINE_OBJECTIVE, bt.DR_OBJECTIVE, "t", "m0PowerOn", "m0InitOff", "m0NoStarveB0",
    "m 1", "1m", "", "m01[1]", "x-y", "ŷ",
])


@st.composite
def named_layouts(draw):
    """A two-slot case whose machine and buffer names are LAYOUT_NAMES."""
    machines = tuple(
        bt.Machine(name, 0, 2.0, 0.5, upstream=tuple(draw(st.lists(LAYOUT_NAMES, max_size=1))))
        for name in draw(st.lists(LAYOUT_NAMES, min_size=1, max_size=2, unique=True))
    )
    products = ()
    if draw(st.booleans()):
        products = (bt.Product(price=2.0, quantity_buffer=(draw(LAYOUT_NAMES), 2)),)
    data = bt.BatteryCaseData(n_slots=2, slots_per_hour=1, machines=machines, prices=(0.1, 0.2),
                              products=products)
    return data, bt.DrEvent(slots=(1, 2), lambda_rate=0.5, b_ref=(1.0, 2.5), delta_l_min=0.0)


@settings(max_examples=200, deadline=None)
@given(named_layouts())
def test_battery_names_either_are_rejected_or_generate_the_load_reduction_model(layout):
    data, event = layout
    try:
        graph = bt.build_battery_kg(data, event)
    except ClosureKbError:
        return
    kg.ingest_concept_cards(bt.battery_concept_cards(), graph)
    kg.align(graph)
    graph.freeze()
    code, report, _rounds = codegen.repair_loop(
        "Add a load-reduction constraint for the demand-response event",
        graph, rt.index_snippets(graph), codegen.TemplateGenerator(),
    )
    assert report.status == "ok", report
    lines = code.splitlines()
    assert "param Bref{drWindow} = [1, 2.5];" in lines
    assert all(f"var {name}{{timeSequence}} binary;" in lines for name in data.machine_names)


@pytest.mark.parametrize("doc", [
    None,
    [],
    {},
    {"y": None},
    {"y": [0, 1]},
    {"y": {"m01": None}},
    {"y": {"m01": "01"}},
    {"y": {"m01": [0, True]}},
    {"y": {"m01": [0, 1]}, "buffers": [1, 2]},
    {"y": {"m01": [0, 1]}, "buffers": {"B11": [1, "2"]}},
], ids=["null", "list", "no-y", "null-y", "list-y", "null-series", "string-series",
        "boolean-value", "list-buffers", "string-buffer-value"])
def test_schedule_from_json_rejects_misshapen_solutions(doc):
    with pytest.raises(SchemaViolation):
        bt.schedule_from_json(doc)


def test_schedule_from_json_reads_series():
    doc = {"y": {"m01": [0, 1]}, "buffers": {"B11": [2, 3.5]}}
    assert bt.schedule_from_json(doc) == bt.Schedule(y={"m01": (0, 1)}, buffers={"B11": (2, 3.5)})
    assert bt.schedule_from_json({"y": {}, "buffers": {}}) == bt.Schedule(y={})
