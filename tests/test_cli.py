"""Command-line pipeline tests: exit-code discipline and byte determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import closurekb
from closurekb import battery, corpus, fjsp, model_dsl
from closurekb import knowledge_graph as kg
from closurekb.cli import (
    EXIT_FAILED,
    EXIT_GENERATOR,
    EXIT_OK,
    EXIT_USAGE,
    main,
)
from test_knowledge_graph import UNREADABLE_CARDS, json_documents

QUERY = "Add a load-reduction constraint for the demand-response event"


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture(scope="module")
def battery_graph(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli_battery")
    files = corpus.write_battery_corpus(directory)
    graph_path = directory / "battery.kg.json"
    code = main(["ingest", str(files[0]), str(files[1]), "--graph", str(graph_path)])
    assert code == EXIT_OK
    return graph_path


def test_ingest_empty_input_is_usage_error(tmp_path):
    assert main(["ingest", "--graph", str(tmp_path / "g.json")]) == EXIT_USAGE


def test_ingest_duplicate_declaration_nonzero_exit(tmp_path, capsys):
    bad = tmp_path / "bad.mm"
    bad.write_text("var y binary; var y binary; min obj: y;", encoding="utf-8")
    code = main(["ingest", str(bad), "--graph", str(tmp_path / "g.json")])
    captured = capsys.readouterr()
    assert code == EXIT_USAGE
    assert "duplicate declaration" in captured.err


def test_closure_command_lists_documented_members(battery_graph, capsys):
    code = main(["closure", "--graph", str(battery_graph), "--target", "loadReduction",
                 "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    expected = battery.expected_load_reduction_closure(battery.paper_case_data())
    assert set(payload["members"]) == set(expected)


def test_closure_unknown_target_is_usage_error(battery_graph):
    assert main(["closure", "--graph", str(battery_graph), "--target", "nope"]) == EXIT_USAGE


def test_query_command(battery_graph, capsys):
    code = main(["query", QUERY, "--graph", str(battery_graph), "--format", "json"])
    captured = capsys.readouterr()
    assert code == EXIT_OK
    payload = json.loads(captured.out)
    assert payload["intents"] == ["add_constraint"]
    assert "loadReduction" in payload["seeds"]


def test_query_with_a_number_past_the_float_range_prints_strict_json(battery_graph, capsys):
    text = "add the load reduction constraint of " + "9" * 400 + " kW"
    assert main(["query", text, "--graph", str(battery_graph), "--format", "json"]) == EXIT_OK
    payload = strict_json(capsys.readouterr().out)
    assert payload["numeric_payloads"] == []
    assert [e["kind"] for e in payload["entities"]].count("numeric_with_unit") == 1


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_query_resolving_no_entity_exits_failed_and_still_previews_snippets(battery_graph, capsys, fmt):
    code = main(["query", "what is the price", "--graph", str(battery_graph), "--format", fmt])
    out = capsys.readouterr().out
    assert code == EXIT_FAILED
    if fmt == "json":
        payload = json.loads(out)
        assert (payload["seeds"], payload["structural"]) == ([], [])
        assert payload["snippets"]
    else:
        assert "seeds=-\nstructural=-\nsnippet id=" in out


def test_generate_ok_and_byte_identical(battery_graph, tmp_path, capsys):
    out1 = tmp_path / "a.mm"
    out2 = tmp_path / "b.mm"
    assert main(["generate", QUERY, "--graph", str(battery_graph), "--out", str(out1)]) == EXIT_OK
    assert main(["generate", QUERY, "--graph", str(battery_graph), "--out", str(out2)]) == EXIT_OK
    capsys.readouterr()
    assert out1.read_bytes() == out2.read_bytes()
    report1 = (tmp_path / "a.mm.report.json").read_bytes()
    report2 = (tmp_path / "b.mm.report.json").read_bytes()
    assert report1 == report2
    code = out1.read_text(encoding="utf-8")
    assert "0.54" in code and ">= 10" in code
    report = json.loads(report1)
    assert report["status"] == "ok"


def test_generate_query_resolving_no_entity_fails(battery_graph, tmp_path, capsys):
    out = tmp_path / "none.mm"
    code = main(["generate", "hello world", "--graph", str(battery_graph), "--out", str(out)])
    captured = capsys.readouterr()
    assert code == EXIT_FAILED
    assert "status=unresolved" in captured.out
    assert out.read_text(encoding="utf-8") == ""
    assert json.loads((tmp_path / "none.mm.report.json").read_text())["status"] == "unresolved"


def test_generate_lingo_dialect(battery_graph, tmp_path, capsys):
    out = tmp_path / "dr.lng"
    assert main([
        "generate", QUERY, "--graph", str(battery_graph), "--out", str(out),
        "--dialect", "lingo_flavored",
    ]) == EXIT_OK
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    assert "@sum(drWindow(t):" in text
    assert "@bin(" in text


def test_generate_failure_exit_code(battery_graph, tmp_path, capsys, monkeypatch):
    # An endpoint naming no executable is 'unavailable'.
    monkeypatch.setenv("CLOSUREKB_GENERATOR_ENDPOINT", str(tmp_path / "no-such-generator"))
    code = main(["generate", QUERY, "--graph", str(battery_graph), "--out", str(tmp_path / "x.mm")])
    assert code == EXIT_GENERATOR
    assert "Traceback" not in capsys.readouterr().err


def test_generate_with_an_empty_endpoint_setting_runs_the_template(battery_graph, capsys, monkeypatch):
    monkeypatch.setenv("CLOSUREKB_GENERATOR_ENDPOINT", "")
    assert main(["generate", QUERY, "--graph", str(battery_graph)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("status=ok\n")


def test_generate_has_no_generator_option(battery_graph, capsys):
    assert main(["generate", QUERY, "--graph", str(battery_graph), "--generator", "template"]) == EXIT_USAGE
    capsys.readouterr()
    assert main(["generate", "--help"]) == EXIT_OK
    assert "--generator" not in capsys.readouterr().out


@pytest.mark.parametrize("version", [True, 1.0], ids=["true", "float"])
def test_generate_on_a_graph_whose_version_only_equals_1_is_a_usage_error(
    battery_graph, tmp_path, capsys, version
):
    document = json.loads(battery_graph.read_text(encoding="utf-8"))
    graph = tmp_path / "version.kg.json"
    graph.write_text(json.dumps(dict(document, version=version)), encoding="utf-8")
    assert main(["generate", QUERY, "--graph", str(graph)]) == EXIT_USAGE
    assert "field 'version' must be an integer" in capsys.readouterr().err


def test_generate_with_process_endpoint(battery_graph, tmp_path, capsys, monkeypatch):
    script = tmp_path / "mockgen.sh"
    script.write_text("#!/bin/sh\ncat > /dev/null\necho 'param q = 1;'\n", encoding="utf-8")
    script.chmod(0o755)
    monkeypatch.setenv("CLOSUREKB_GENERATOR_ENDPOINT", str(script))
    out = tmp_path / "ep.mm"
    code = main(["generate", QUERY, "--graph", str(battery_graph), "--out", str(out)])
    capsys.readouterr()
    assert code == EXIT_OK
    assert out.read_text(encoding="utf-8").strip() == "param q = 1;"


def test_generate_missing_symbol_mock_fails_with_budget_one(battery_graph, tmp_path, capsys,
                                                            monkeypatch):
    script = tmp_path / "badgen.sh"
    script.write_text(
        "#!/bin/sh\ncat > /dev/null\necho 'con ghost: phantomSymbol <= 1;'\n", encoding="utf-8"
    )
    script.chmod(0o755)
    monkeypatch.setenv("CLOSUREKB_GENERATOR_ENDPOINT", str(script))
    out = tmp_path / "bad.mm"
    code = main([
        "generate", QUERY, "--graph", str(battery_graph),
        "--out", str(out), "--max-rounds", "1", "--format", "json",
    ])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_FAILED
    assert payload["status"] == "failed"
    assert "phantomSymbol" in payload["missing_declarations"]
    assert payload["rounds"] == 1


def test_validate_command_exit_codes(battery_graph, tmp_path, capsys):
    good = tmp_path / "good.mm"
    good.write_text("param q = 1;\n", encoding="utf-8")
    assert main(["validate", str(good)]) == EXIT_OK
    bad = tmp_path / "bad.mm"
    bad.write_text("con c: ghost <= 1;\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == EXIT_FAILED
    capsys.readouterr()
    # Fragment mode: the battery graph supplies the missing context.
    fragment = tmp_path / "fragment.mm"
    fragment.write_text("con extra: deltaLmin <= 20;\n", encoding="utf-8")
    assert main(["validate", str(fragment)]) == EXIT_FAILED
    assert main(["validate", str(fragment), "--graph", str(battery_graph)]) == EXIT_OK
    capsys.readouterr()


def test_eval_battery_brute_force(tmp_path, capsys):
    instance = tmp_path / "toy.battery.json"
    instance.write_text(
        json.dumps(battery.data_to_json(battery.toy_case_data())), encoding="utf-8"
    )
    assert main(["eval", "battery", str(instance), "--brute-force", "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "optimal"
    assert payload["objective"] == 7.0  # all-off keeps revenue and spends nothing


def test_eval_battery_requires_solution_or_flag(tmp_path):
    instance = tmp_path / "toy.battery.json"
    instance.write_text(
        json.dumps(battery.data_to_json(battery.toy_case_data())), encoding="utf-8"
    )
    assert main(["eval", "battery", str(instance)]) == EXIT_USAGE


def test_eval_fjsp_solution_and_violations(tmp_path, capsys):
    instance = tmp_path / "two.fjs"
    instance.write_text("2 1\n1 1 1 3\n1 1 1 4\n", encoding="utf-8")
    inst = fjsp.parse_fjs(instance.read_text(encoding="utf-8"))
    good = fjsp.solution_from_assignment(inst, {(0, 0): 1, (1, 0): 1}, {(0, 0): 0.0, (1, 0): 3.0})
    good_path = tmp_path / "good.json"
    good_path.write_text(json.dumps(fjsp.solution_to_json(good)), encoding="utf-8")
    assert main(["eval", "fjsp", str(instance), "--solution", str(good_path),
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["feasible"] is True and payload["makespan"] == 7.0

    bad = fjsp.solution_from_assignment(inst, {(0, 0): 1, (1, 0): 1}, {(0, 0): 0.0, (1, 0): 2.0})
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(fjsp.solution_to_json(bad)), encoding="utf-8")
    assert main(["eval", "fjsp", str(instance), "--solution", str(bad_path)]) == EXIT_FAILED
    capsys.readouterr()


def test_eval_battery_with_event_and_starvation(tmp_path, capsys):
    instance = tmp_path / "gated.battery.json"
    instance.write_text(
        json.dumps(
            {
                "n_slots": 2,
                "slots_per_hour": 1,
                "prices": [0.0, 0.0],
                "machines": [
                    {"name": "m01", "branch": 0, "p_on": 1.0, "p_off": 0.0,
                     "upstream": ["B13"]}
                ],
                "products": [],
                "materials": [],
                "event": {"slots": [2], "lambda_rate": 0.54, "b_ref": [5.0],
                          "delta_l_min": 0.0},
            }
        ),
        encoding="utf-8",
    )
    solution = tmp_path / "sched.json"
    solution.write_text(
        json.dumps({"y": {"m01": [0, 1]}, "buffers": {"B13": [1, 1]}}), encoding="utf-8"
    )
    assert main(["eval", "battery", str(instance), "--solution", str(solution),
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert payload["starvation_ok"] is True and payload["load_reduction_ok"] is True

    starved = tmp_path / "starved.json"
    starved.write_text(
        json.dumps({"y": {"m01": [1, 1]}, "buffers": {"B13": [1, 1]}}), encoding="utf-8"
    )
    assert main(["eval", "battery", str(instance), "--solution", str(starved)]) == EXIT_FAILED
    capsys.readouterr()


def test_ingest_fjs_instance_builds_model_graph(tmp_path, capsys):
    fjs = tmp_path / "two.fjs"
    fjs.write_text("2 1\n1 1 1 3\n1 1 1 4\n", encoding="utf-8")
    graph_path = tmp_path / "shop.kg.json"
    assert main(["ingest", str(fjs), "--graph", str(graph_path)]) == EXIT_OK
    capsys.readouterr()
    assert main(["closure", "--graph", str(graph_path), "--target", "finish",
                 "--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert {"finish", "cmax", "s", "p", "x", "last", "OPS", "M"} <= set(payload["members"])


def test_eval_fjsp_brute_force_too_large_is_usage(tmp_path, capsys):
    instance = tmp_path / "big.fjs"
    instance.write_text(fjsp.generate_fjs(5, 3, 2, 2, seed=0), encoding="utf-8")
    assert main(["eval", "fjsp", str(instance), "--brute-force"]) == EXIT_USAGE
    capsys.readouterr()


def test_ablate_command_writes_report_twin(tmp_path, capsys):
    corpus_dir = tmp_path / "corpus"
    corpus.write_dispersed_corpus(corpus_dir)
    config_path = tmp_path / "config.json"
    config_path.write_text(
        json.dumps({"retrieval_mode": "window", "window_k": 3, "runs": 2}), encoding="utf-8"
    )
    out = tmp_path / "report.txt"
    assert main(["ablate", str(corpus_dir), "--config", str(config_path),
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert "ok_runs=0/2" in out.read_text(encoding="utf-8")
    twin = json.loads((tmp_path / "report.txt.json").read_text(encoding="utf-8"))
    assert twin["ok_runs"] == 0


def test_fjsp_gen_command(tmp_path, capsys):
    out = tmp_path / "gen.fjs"
    assert main(["fjsp-gen", "--jobs", "3", "--machines", "4", "--seed", "7",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    inst = fjsp.parse_fjs(out.read_text(encoding="utf-8"))
    assert inst.n_jobs == 3 and inst.n_machines == 4


FJSP_GEN = ["fjsp-gen", "--jobs", "2", "--machines", "2"]


@pytest.mark.parametrize("argv", [
    [*FJSP_GEN, "--p-min", "5", "--p-max", "1"],
    ["fjsp-gen", "--jobs", "2", "--machines", "-1"],
    ["fjsp-gen", "--jobs", "0", "--machines", "2"],
    [*FJSP_GEN, "--ops", "0"],
    [*FJSP_GEN, "--flex", "0"],
    [*FJSP_GEN, "--p-min", "0"],
    [*FJSP_GEN, "--p-max", "0"],
    [*FJSP_GEN, "--ops", "x"],
    [*FJSP_GEN, "--p-min", str(10**309), "--p-max", str(10**309)],
    ["fjsp-gen", "--jobs", "3", "--machines", "1", "--ops", "1",
     "--p-min", str(10**308), "--p-max", str(10**308)],
    # Three times of a third of the largest float each: their float sum rounds past it.
    ["fjsp-gen", "--jobs", "1", "--machines", "1", "--ops", "3",
     "--p-min", str(int(sys.float_info.max) // 3), "--p-max", str(int(sys.float_info.max) // 3)],
], ids=["p-min-above-p-max", "negative-machines", "zero-jobs", "zero-ops", "zero-flex", "zero-p-min",
        "zero-p-max", "non-integer-ops", "time-past-float", "horizon-past-float", "rounded-horizon-past-float"])
def test_fjsp_gen_bad_numeric_option_is_a_usage_error_without_traceback(tmp_path, capsys, argv):
    out = tmp_path / "gen.fjs"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, text, query", [
    ("tiny.mm", "param q = 0.00001; var x continuous; con c: x <= q;\n", "add the c constraint"),
    ("big.fjs", "2 1\n1 1 1 9007199254740993\n1 1 1 9007199254740993\n",
     "explain the constraints of x and generate code"),
], ids=["param-below-1e-5", "times-past-2-53"])
def test_generate_reads_back_numbers_in_exponent_form(tmp_path, capsys, name, text, query):
    source = tmp_path / name
    source.write_text(text, encoding="utf-8")
    graph = tmp_path / "g.kg.json"
    assert main(["ingest", str(source), "--graph", str(graph)]) == EXIT_OK
    capsys.readouterr()
    assert main(["generate", query, "--graph", str(graph)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[:2] == ["status=ok", "rounds=1"]


def test_validate_reads_a_negative_window_start(tmp_path, capsys):
    instance = fjsp.with_windows(fjsp.parse_fjs("2 1\n1 1 1 3\n1 1 1 4\n"), {1: [(-2.0, 1.0)]})
    code = tmp_path / "unavailability.mm"
    model = fjsp.build_fjsp_model(instance, fjsp.UNAVAILABILITY)
    code.write_text(model_dsl.emit_model(model), encoding="utf-8")
    assert main(["validate", str(code)]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == ["status=ok"]


def test_generate_with_zero_rounds_is_a_usage_error_without_traceback(battery_graph, capsys):
    assert main(["generate", QUERY, "--graph", str(battery_graph), "--max-rounds", "0"]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--max-rounds: '0' is not an integer of at least 1" in err
    assert "Traceback" not in err


def test_usage_error_on_unknown_command(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("code", [
    "con c: x <= " + "9" * 400 + ";",
    "con c: x <= " + "(" * 3000 + "1" + ")" * 3000 + ";",
], ids=["400-digits", "3000-parentheses"])
def test_validate_command_on_extreme_input_fails_without_traceback(tmp_path, code):
    path = tmp_path / "extreme.mm"
    path.write_text(code, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "closurekb.cli", "validate", str(path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(closurekb.__file__).parents[1])},
        timeout=60,
    )
    assert proc.returncode == EXIT_FAILED
    assert "status=failed" in proc.stdout
    assert "Traceback" not in proc.stderr + proc.stdout


def run_cli(*args, entry=("-m", "closurekb.cli")):
    """Run the command line in a fresh interpreter, as a user would."""
    return subprocess.run(
        [sys.executable, *entry, *map(str, args)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(Path(closurekb.__file__).parents[1])},
        timeout=60,
    )


@pytest.mark.parametrize("command", [["ingest"], ["eval", "fjsp"]], ids=["ingest", "eval fjsp"])
def test_fjs_processing_time_past_the_largest_float_exits_2_without_traceback(tmp_path, command):
    path = tmp_path / "big.fjs"
    path.write_text("1 1\n1 1 1 " + "9" * 400 + "\n", encoding="utf-8")
    extra = ["--graph", tmp_path / "big.kg.json"] if command == ["ingest"] else ["--brute-force"]
    proc = run_cli(*command, path, *extra)
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert "processing time does not fit a finite float at line 2" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


@pytest.mark.parametrize("command", [["ingest"], ["eval", "fjsp"]], ids=["ingest", "eval fjsp"])
def test_fjs_processing_times_summing_past_the_largest_float_exit_2_without_traceback(tmp_path, command):
    path = tmp_path / "sum.fjs"
    path.write_text("2 1\n" + ("1 1 1 " + "9" * 308 + "\n") * 2, encoding="utf-8")
    out = tmp_path / "sum.kg.json"
    extra = ["--graph", out] if command == ["ingest"] else ["--brute-force"]
    proc = run_cli(*command, path, *extra)
    assert proc.returncode == EXIT_USAGE, proc.stdout
    assert "processing times sum past the largest float at line 3" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout
    assert not out.exists()


def test_importing_the_cli_loads_no_network_or_process_module():
    probe = "import sys, closurekb.cli; print(sorted({'ssl', 'http.client', 'urllib.request', 'subprocess'} & set(sys.modules)))"
    proc = run_cli(entry=("-c", probe))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_ingest_of_a_1500_term_sum_succeeds(tmp_path):
    path = tmp_path / "long.mm"
    path.write_text("var x continuous; con c: " + " + ".join(["x"] * 1500) + " <= 1;", encoding="utf-8")
    proc = run_cli("ingest", path, "--graph", tmp_path / "g.json")
    assert proc.returncode == EXIT_OK, proc.stderr
    assert "entities=2" in proc.stdout
    assert json.loads((tmp_path / "g.json").read_text(encoding="utf-8"))["entities"][0]["id"] == "c"


def broken_battery_doc(path, value):
    doc = battery.data_to_json(battery.toy_case_data(), battery.DrEvent((1, 2), 0.5, (1.0, 1.0), 0.0))
    record = doc
    for key in path[:-1]:
        record = record[key]
    if value is None:
        del record[path[-1]]
    else:
        record[path[-1]] = value
    return doc


@pytest.mark.parametrize("name, document, message", [
    ("bad.cards.json", [None], "each concept card must be an object"),
    ("bad.cards.json", [{"kind": "concept"}], "missing field 'name'"),
    ("bad.kg.json", {"version": 1, "entities": None, "edges": []}, "entities and edges must be lists"),
    ("bad.battery.json", broken_battery_doc(("event", "b_ref"), "xy"), "field 'b_ref' must be a list of numbers"),
    ("bad.battery.json", broken_battery_doc(("machines", 0, "p_on"), None), "missing field 'p_on'"),
    ("bad.cards.json", UNREADABLE_CARDS, "concept card name 'rate, cap' holds ',' or '->'"),
], ids=["null-card", "card-without-name", "null-entities", "string-b_ref", "no-p_on", "comma-card-name"])
def test_ingest_of_malformed_input_is_a_usage_error_without_traceback(tmp_path, name, document, message):
    path = tmp_path / name
    path.write_text(json.dumps(document), encoding="utf-8")
    proc = run_cli("ingest", path, "--graph", tmp_path / "g.json")
    assert proc.returncode == EXIT_USAGE
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


@pytest.mark.parametrize("path, value", [
    (("n_slots",), None),
    (("event", "b_ref"), "xy"),
], ids=["no-n_slots", "string-b_ref"])
def test_eval_battery_of_malformed_instance_is_a_usage_error_without_traceback(tmp_path, path, value):
    instance = tmp_path / "bad.json"
    instance.write_text(json.dumps(broken_battery_doc(path, value)), encoding="utf-8")
    proc = run_cli("eval", "battery", instance, "--brute-force")
    assert proc.returncode == EXIT_USAGE
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


def test_console_main_exits_with_the_command_status(tmp_path):
    entry = ("-c", "from closurekb.cli import console_main; console_main()")
    out = tmp_path / "tiny.fjs"
    proc = run_cli("fjsp-gen", "--jobs", 2, "--machines", 2, "--out", out, entry=entry)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert fjsp.parse_fjs(out.read_text(encoding="utf-8")).n_jobs == 2
    assert run_cli("closure", "--graph", tmp_path / "missing.json", "--target", "x",
                   entry=entry).returncode == EXIT_USAGE


def test_eval_battery_of_misshapen_solution_is_a_usage_error_without_traceback(tmp_path):
    instance = tmp_path / "toy.json"
    instance.write_text(json.dumps(broken_battery_doc(("n_slots",), 2)), encoding="utf-8")
    solution = tmp_path / "s.json"
    solution.write_text(json.dumps({"y": None}), encoding="utf-8")
    proc = run_cli("eval", "battery", instance, "--solution", solution)
    assert proc.returncode == EXIT_USAGE
    assert "error:" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


@pytest.mark.parametrize("path, value, message", [
    (("machines",), [], "battery instance has no machines"),
    (("event",), {"slots": [], "lambda_rate": 0.5, "b_ref": [], "delta_l_min": 0.0},
     "event window has no slots"),
    (("machines", 0, "upstream"), ["Bref"], "duplicate declaration of 'Bref'"),
    (("machines", 0, "upstream"), ["slotPrice"], "duplicate declaration of 'slotPrice'"),
    (("machines", 0, "upstream"), ["m11PowerOn"], "duplicate declaration of 'm11PowerOn'"),
    (("machines", 0, "name"), "sum", "machine or buffer name 'sum' is not a MiniModel name"),
    (("machines", 0, "name"), "m 1", "machine or buffer name 'm 1' is not a MiniModel name"),
    (("machines", 0, "name"), "1m", "machine or buffer name '1m' is not a MiniModel name"),
    (("machines", 0, "name"), "", "machine or buffer name '' is not a MiniModel name"),
    (("machines", 0, "upstream"), ["m01[1]"], "machine or buffer name 'm01[1]' is not a MiniModel name"),
    (("products",), [{"price": 1e200, "quantity": 1e200, "quantity_buffer": None}],
     "fixed product revenue and material cost must sum to finite numbers"),
    (("materials",), [{"cost": 1e200, "quantity": 1e200}],
     "fixed product revenue and material cost must sum to finite numbers"),
], ids=["no-machines", "empty-event-window", "buffer-named-Bref", "buffer-named-slotPrice",
        "buffer-named-m11PowerOn", "machine-named-sum", "machine-name-with-space",
        "machine-name-with-leading-digit", "empty-machine-name", "buffer-name-with-brackets",
        "product-revenue-past-the-largest-float", "material-cost-past-the-largest-float"])
def test_ingest_of_battery_instance_the_family_cannot_hold_is_a_usage_error(tmp_path, path, value, message):
    path_in = tmp_path / "bad.battery.json"
    path_in.write_text(json.dumps(broken_battery_doc(path, value)), encoding="utf-8")
    proc = run_cli("ingest", path_in, "--graph", tmp_path / "g.json")
    assert proc.returncode == EXIT_USAGE
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


def paper_battery_files(tmp_path, edit, y, buffers=None):
    """The paper battery instance as changed in place by `edit`, and a
    solution where every machine runs y (0 or 1) in every slot, with the
    given buffer series."""
    data = battery.paper_case_data()
    doc = battery.data_to_json(data, battery.paper_event())
    edit(doc)
    instance = tmp_path / "paper.battery.json"
    instance.write_text(json.dumps(doc), encoding="utf-8")
    solution = tmp_path / "s.json"
    schedule = {"y": {name: [y] * data.n_slots for name in data.machine_names}, "buffers": buffers}
    solution.write_text(json.dumps(schedule), encoding="utf-8")
    return instance, solution


@pytest.mark.parametrize("command", ["ingest", "eval battery"])
def test_battery_energy_cost_past_the_largest_float_is_a_usage_error(tmp_path, command):
    def edit(doc):
        doc.update(prices=[1e308] * len(doc["prices"]), products=[])
    instance, solution = paper_battery_files(tmp_path, edit, 1)
    if command == "ingest":
        proc = run_cli("ingest", instance, "--graph", tmp_path / "g.json")
    else:
        proc = run_cli("eval", "battery", instance, "--solution", solution, "--format", "json")
    assert proc.returncode == EXIT_USAGE, proc.stdout
    assert "slot prices times the largest slot energy must sum to a finite number" in proc.stderr
    assert "Infinity" not in proc.stdout
    assert "Traceback" not in proc.stderr + proc.stdout


def test_eval_battery_json_of_an_objective_past_the_largest_float_is_a_usage_error(tmp_path):
    # Product revenue from a buffer's series: no data check can bound it.
    data = battery.paper_case_data()
    buffers = {name: [0.0] * data.n_slots for name in data.buffer_names}
    buffers[data.products[0].quantity_buffer[0]] = [1e308] * data.n_slots
    instance, solution = paper_battery_files(tmp_path, lambda doc: doc["products"][0].update(price=1e308), 0, buffers)
    proc = run_cli("eval", "battery", instance, "--solution", solution, "--format", "json")
    assert proc.returncode == EXIT_USAGE, proc.stdout
    assert "error: Out of range float values are not JSON compliant" in proc.stderr
    assert "Infinity" not in proc.stdout
    assert "Traceback" not in proc.stderr + proc.stdout


@pytest.mark.parametrize("fields, description", [
    ({}, 5),
    ({"snippet": 7}, "a note"),
], ids=["int-description", "int-snippet"])
@pytest.mark.parametrize("command", ["generate", "query"])
def test_graph_with_non_string_text_is_a_usage_error_without_traceback(tmp_path, command, fields, description):
    document = {"version": 1, "edges": [], "entities": [
        {"id": "x", "kind": "parameter", "name": "x", "description": description,
         "source": "code", "fields": {"solver_symbol": "x", **fields}},
    ]}
    graph = tmp_path / "g.kg.json"
    graph.write_text(json.dumps(document), encoding="utf-8")
    proc = run_cli(command, "what is the value of x", "--graph", graph)
    assert proc.returncode == EXIT_USAGE
    assert "must be a string" in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


# Two models that declare T and p differently, and a reference to q that
# another model declares.
REDECLARING_MODELS = {
    "a.mm": "set T = 1..2; param p{T} = [1, 2]; var x{T} continuous; con a: sum{t in T} p[t]*x[t] <= 1;",
    "b.mm": "set T = 1..3; param p{T} = [5, 6, 7]; var x{T} continuous; con b: sum{t in T} p[t]*x[t] <= 2;",
    "use.mm": "var x continuous; con c: x <= q;",
    "decl.mm": "param q = 3;",
}


@pytest.fixture
def redeclaring_models(tmp_path):
    for name, text in REDECLARING_MODELS.items():
        (tmp_path / name).write_text(text + "\n", encoding="utf-8")
    return tmp_path


@pytest.mark.parametrize("first, second, message", [
    ("a.mm", "b.mm", "entity 'T' is already ingested as index_set with different fields"),
    ("use.mm", "decl.mm", "ingest the input that declares it first"),
], ids=["set-redeclared", "declared-after-a-reference"])
def test_ingest_of_a_name_held_as_another_entity_is_a_usage_error(redeclaring_models, first, second, message):
    proc = run_cli("ingest", redeclaring_models / first, redeclaring_models / second,
                   "--graph", redeclaring_models / "g.kg.json")
    assert proc.returncode == EXIT_USAGE
    assert "error:" in proc.stderr and message in proc.stderr
    assert "Traceback" not in proc.stderr + proc.stdout


def test_ingest_of_a_declaration_before_its_reference_generates_it(redeclaring_models, capsys):
    directory = redeclaring_models
    graph = directory / "g.kg.json"
    assert main(["ingest", str(directory / "decl.mm"), str(directory / "use.mm"), "--graph", str(graph)]) == EXIT_OK
    assert main(["generate", "add the c constraint", "--graph", str(graph)]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert "status=ok" in lines and "param q = 3;" in lines


MODEL = "set T = 1..2; param cap{T} = [1, 2]; var x{T} continuous in [0, 5]; con limit{t in T}: x[t] <= cap[t];"


@pytest.mark.parametrize("entity_id, key, raw", [
    ("cap", "data", "1e400"),
    ("cap", "data", "[1, 1e400]"),
    ("x", "bounds", "5"),
    ("T", "members", "5"),
    ("cap", "index_sets", "[5]"),
    ("limit", "expression", "5"),
    ("cap", "solver_symbol", '["cap"]'),
    ("x", "domain", '"real"'),
], ids=["data-1e400", "data-list-1e400", "int-bounds", "int-members", "int-index-set",
        "int-expression", "list-solver_symbol", "unknown-domain"])
@pytest.mark.parametrize("argv", [
    ("ingest", "{graph}", "--graph", "{out}"),
    ("query", "what is the value of cap", "--graph", "{graph}"),
    ("generate", "what is the value of cap", "--graph", "{graph}"),
    ("validate", "{code}", "--graph", "{graph}"),
], ids=["ingest", "query", "generate", "validate"])
def test_graph_with_malformed_declaration_field_is_a_usage_error_without_traceback(
    tmp_path, capsys, entity_id, key, raw, argv
):
    source = tmp_path / "model.mm"
    source.write_text(MODEL, encoding="utf-8")
    graph = tmp_path / "g.kg.json"
    assert main(["ingest", str(source), "--graph", str(graph)]) == EXIT_OK
    document = json.loads(graph.read_text(encoding="utf-8"))
    fields = next(e["fields"] for e in document["entities"] if e["id"] == entity_id)
    fields[key] = "@malformed@"
    graph.write_text(json.dumps(document).replace('"@malformed@"', raw), encoding="utf-8")
    capsys.readouterr()
    paths = {"graph": graph, "out": tmp_path / "out.kg.json", "code": source}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: entity {entity_id!r}: field {key!r}")
    assert "Traceback" not in captured.err + captured.out


NOT_UTF8 = b'{"x": "\xff\xfe"}'
# More digits than json.loads converts to an int (a plain ValueError).
HUGE_INT = b"9" * 5000
# Nested deeper than json.loads recurses (a RecursionError).
DEEP = b"[" * 100000 + b"]" * 100000


@pytest.fixture(scope="module")
def good_inputs(tmp_path_factory):
    """One well-formed input of each kind a subcommand reads."""
    directory = tmp_path_factory.mktemp("cli_inputs")
    fjs = directory / "two.fjs"
    fjs.write_text("2 1\n1 1 1 3\n1 1 1 4\n", encoding="utf-8")
    toy = directory / "toy.json"
    toy.write_text(json.dumps(battery.data_to_json(battery.toy_case_data())), encoding="utf-8")
    buffered = directory / "buffered.json"
    buffered.write_text(json.dumps({"y": {"m11": [1, 0]}, "buffers": {"B04": [1, 2]}}), encoding="utf-8")
    code = directory / "q.mm"
    code.write_text("param q = 1;\n", encoding="utf-8")
    graph = directory / "two.kg.json"
    assert main(["ingest", str(fjs), "--graph", str(graph)]) == EXIT_OK
    corpus.write_dispersed_corpus(directory / "corpus")
    return {"fjs": fjs, "toy": toy, "buffered": buffered, "code": code, "graph": graph,
            "corpus": directory / "corpus"}


SLOT_99 = {**battery.data_to_json(battery.toy_case_data()),
           "products": [{"price": 5.0, "quantity_buffer": ["B04", 99]}]}
FJSP_SOLUTION = ("eval", "fjsp", "{fjs}", "--solution", "{bad}")
FJSP_WINDOWS = ("eval", "fjsp", "{fjs}", "--windows", "{bad}", "--brute-force")
ABLATE_CONFIG = ("ablate", "{corpus}", "--config", "{bad}")
ABLATE_SCRIPT = ("ablate", "{corpus}", "--config", "{script_config}")


@pytest.mark.parametrize("argv, name, content", [
    (FJSP_SOLUTION, "s.json", [1, 2]),
    (FJSP_SOLUTION, "s.json", {"x": 5, "s": []}),
    (FJSP_SOLUTION, "s.json", NOT_UTF8),
    (FJSP_WINDOWS, "w.json", [{"machine": "a", "w_start": 1, "w_end": 2}]),
    (FJSP_WINDOWS, "w.json", [5]),
    (FJSP_WINDOWS, "w.json", NOT_UTF8),
    (FJSP_WINDOWS, "w.json", b'[{"machine": 1, "w_start": 1, "w_end": 1e400}]'),
    (FJSP_SOLUTION, "s.json", b'{"x": [[[1]], [[1]]], "s": [[0], [1e400]]}'),
    (FJSP_SOLUTION, "s.json", b'{"x": [[[1]], [[1]]], "s": [[0], [3]], "z": [["a", 1e400]]}'),
    (("eval", "battery", "{bad}", "--solution", "{buffered}"), "bad.json", SLOT_99),
    (("eval", "fjsp", "{bad}", "--brute-force"), "bad.fjs", NOT_UTF8),
    (("eval", "battery", "{bad}", "--brute-force"), "bad.json", NOT_UTF8),
    (("eval", "battery", "{toy}", "--solution", "{bad}"), "s.json", NOT_UTF8),
    (ABLATE_CONFIG, "config.json", {"runs": "2"}),
    (ABLATE_CONFIG, "config.json", {"window_k": "3", "retrieval_mode": "window"}),
    (ABLATE_CONFIG, "config.json", [1]),
    (ABLATE_CONFIG, "config.json", NOT_UTF8),
    (ABLATE_SCRIPT, "mock.json", {"responses": 5}),
    (ABLATE_SCRIPT, "mock.json", {"responses": [5]}),
    (ABLATE_SCRIPT, "mock.json", NOT_UTF8),
    (("validate", "{bad}"), "bad.mm", NOT_UTF8),
    (("validate", "{code}", "--graph", "{bad}"), "bad.kg.json", NOT_UTF8),
    (("query", "explain x", "--graph", "{bad}"), "bad.kg.json", NOT_UTF8),
    (("generate", "explain x", "--graph", "{bad}"), "bad.kg.json", NOT_UTF8),
    (("closure", "--graph", "{bad}", "--target", "x"), "bad.kg.json", NOT_UTF8),
    (("ingest", "{bad}", "--graph", "{out}"), "bad.kg.json", NOT_UTF8),
    (("ingest", "{bad}", "--graph", "{out}"), "bad.cards.json", NOT_UTF8),
    (("ingest", "{bad}", "--graph", "{out}"), "bad.battery.json", NOT_UTF8),
    (("ingest", "{bad}", "--graph", "{out}"), "bad.fjs", NOT_UTF8),
    (("ingest", "{bad}", "--graph", "{out}"), "bad.mm", NOT_UTF8),
    (FJSP_WINDOWS, "w.json", HUGE_INT),
    (ABLATE_CONFIG, "config.json", HUGE_INT),
    (("ingest", "{bad}", "--graph", "{out}"), "bad.cards.json", HUGE_INT),
    (FJSP_SOLUTION, "s.json", DEEP),
    (FJSP_WINDOWS, "w.json", DEEP),
    (("eval", "battery", "{bad}", "--brute-force"), "bad.json", DEEP),
    (("eval", "battery", "{toy}", "--solution", "{bad}"), "s.json", DEEP),
    (ABLATE_CONFIG, "config.json", DEEP),
    (ABLATE_SCRIPT, "mock.json", DEEP),
    (("closure", "--graph", "{bad}", "--target", "x"), "bad.kg.json", DEEP),
    (("ingest", "{bad}", "--graph", "{out}"), "bad.kg.json", DEEP),
    (("ingest", "{bad}", "--graph", "{out}"), "bad.cards.json", DEEP),
    (("ingest", "{bad}", "--graph", "{out}"), "bad.battery.json", DEEP),
], ids=[
    "solution-list", "solution-int-x", "solution-not-utf8",
    "windows-string-machine", "windows-int-record", "windows-not-utf8",
    "windows-1e400-end", "solution-1e400-start", "solution-with-z", "battery-slot-outside-horizon",
    "fjs-not-utf8", "battery-not-utf8", "battery-solution-not-utf8",
    "config-string-runs", "config-string-window_k", "config-list", "config-not-utf8",
    "script-int", "script-list-of-int", "script-not-utf8",
    "validate-not-utf8", "validate-graph-not-utf8", "query-graph-not-utf8",
    "generate-graph-not-utf8", "closure-graph-not-utf8",
    "ingest-kg-not-utf8", "ingest-cards-not-utf8", "ingest-battery-not-utf8",
    "ingest-fjs-not-utf8", "ingest-mm-not-utf8",
    "windows-5000-digit-int", "config-5000-digit-int", "ingest-cards-5000-digit-int",
    "solution-deep", "windows-deep", "battery-deep", "battery-solution-deep", "config-deep",
    "script-deep", "closure-graph-deep", "ingest-kg-deep", "ingest-cards-deep", "ingest-battery-deep",
])
def test_malformed_or_non_utf8_input_file_is_a_usage_error_without_traceback(
    good_inputs, tmp_path, capsys, argv, name, content
):
    bad = tmp_path / name
    bad.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    script_config = tmp_path / "script-config.json"
    script_config.write_text(json.dumps({"generator": str(bad)}), encoding="utf-8")
    paths = {**good_inputs, "bad": bad, "script_config": script_config, "out": tmp_path / "g.json"}
    assert main([arg.format(**paths) for arg in argv]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err + captured.out



WINDOW_KEYS = ("machine", "w_start", "w_end")
SOLUTION_KEYS = ("x", "s", "makespan", "z")
# A config field's value of the wrong type, or of no known name.
JUNK = st.none() | st.booleans() | st.floats() | st.text(max_size=4) | st.lists(st.integers(0, 3), max_size=2)
CONFIG_DOCS = st.fixed_dictionaries({}, optional={
    "knowledge_sources": st.sampled_from(corpus.SOURCE_MODES) | JUNK,
    "retrieval_mode": st.sampled_from(["closure", "window"]) | JUNK,
    "window_k": st.integers(-2, 4) | JUNK,
    "runs": st.integers(-1, 3) | JUNK,  # a large count is a long loop, not an escape
    "generator": st.just("template") | JUNK,
})
SMALL_INTS = st.integers(-2, 4).map(str)
# Numbers as a query writes them, some past the float range, with a unit the
# query parser reads (kW, kWh, $/kWh) or one it does not (MW).
QUERY_NUMBERS = st.tuples(
    st.integers(0, 10**6).map(str) | st.sampled_from([309, 400]).map(lambda n: "9" * n),
    st.sampled_from(["", ".5"]),
    st.sampled_from(["kW", "kWh", "$/kWh", "MW"]),
).map(lambda parts: f"{parts[0]}{parts[1]} {parts[2]}")


# An id whose "_"-separated parts are each letters of one case then digits.
ONE_CASE_PART = r"(?:[a-z]+[0-9]*|[A-Z]+[0-9]*|[0-9]+)"
ONE_CASE_PARTS = re.compile(rf"{ONE_CASE_PART}(?:_{ONE_CASE_PART})*")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_cli_on_drawn_bad_files_and_fjsp_gen_integers_returns_a_status(good_inputs, data):
    directory = good_inputs["corpus"].parent
    drawn = directory / "drawn.json"
    command = data.draw(
        st.sampled_from(["windows", "solution", "ablate", "fjsp-gen", "closure", "query"]), label="command"
    )
    if command == "fjsp-gen":
        out = directory / "drawn.fjs"
        out.unlink(missing_ok=True)
        options = data.draw(st.fixed_dictionaries(
            {"--jobs": SMALL_INTS, "--machines": SMALL_INTS},
            optional={"--ops": SMALL_INTS, "--flex": SMALL_INTS, "--p-min": SMALL_INTS,
                      "--p-max": SMALL_INTS | st.sampled_from([str(10**308), str(10**309)])},
        ), label="options")
        argv = ["fjsp-gen", *(part for item in options.items() for part in item), "--out", str(out)]
    elif command in ("closure", "query"):
        ids = kg.load(json.loads(good_inputs["graph"].read_text(encoding="utf-8"))).sorted_ids()
        # A query resolves a name of ONE_CASE_PARTS (seq_1_2_1); camelCase
        # ones (bigM) do not resolve yet.
        named = ids if command == "closure" else [i for i in ids if ONE_CASE_PARTS.fullmatch(i)]
        name = data.draw(st.sampled_from(named) | st.text(max_size=6), label="name")
        if command == "closure":
            argv = ["closure", "--graph", str(good_inputs["graph"]), "--target", name]
        else:
            text = f"add the {name} constraint of {data.draw(QUERY_NUMBERS, label='number')}"
            argv = ["query", text, "--graph", str(good_inputs["graph"])]
    else:
        doc = data.draw(
            {"windows": json_documents(WINDOW_KEYS), "solution": json_documents(SOLUTION_KEYS),
             "ablate": CONFIG_DOCS | json_documents()}[command],
            label="document",
        )
        drawn.write_text(json.dumps(doc), encoding="utf-8")
        argv = {
            "windows": ["eval", "fjsp", str(good_inputs["fjs"]), "--windows", str(drawn), "--brute-force"],
            "solution": ["eval", "fjsp", str(good_inputs["fjs"]), "--solution", str(drawn)],
            "ablate": ["ablate", str(good_inputs["corpus"]), "--config", str(drawn)],
        }[command]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        status = main([*argv, "--format", "json"])
    event(f"{command} exits {status}")
    assert status in (EXIT_OK, EXIT_FAILED, EXIT_USAGE)
    if command == "query" and name in named:
        assert status == EXIT_OK  # a query naming an entity resolves a seed
    if status == EXIT_OK:
        strict_json(stdout.getvalue())
    if command == "fjsp-gen" and status == EXIT_OK:
        fjsp.parse_fjs(out.read_text(encoding="utf-8"))  # what fjsp-gen writes, ingest reads
