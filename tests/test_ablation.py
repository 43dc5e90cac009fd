"""Knowledge-source and retrieval-mode ablation contrasts."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurekb import ablation, codegen, corpus, fjsp, retrieval
from closurekb.errors import ClosureKbError, SchemaViolation
from test_knowledge_graph import json_documents


@pytest.fixture(scope="module")
def dispersed_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("dispersed")
    corpus.write_dispersed_corpus(directory)
    return directory


@pytest.fixture(scope="module")
def battery_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("battery")
    corpus.write_battery_corpus(directory)
    return directory


def test_closure_mode_validates_all_runs(dispersed_dir):
    config = ablation.AblationConfig(retrieval_mode=ablation.CLOSURE_MODE, runs=5)
    report = ablation.run_ablation(config, dispersed_dir)
    assert report.ok_runs == 5
    assert all(row.status == "ok" for row in report.rows)


def test_window_mode_fails_all_runs_with_missing_declarations(dispersed_dir):
    config = ablation.AblationConfig(
        retrieval_mode=ablation.WINDOW_MODE, window_k=3, runs=5
    )
    report = ablation.run_ablation(config, dispersed_dir)
    assert report.ok_runs == 0
    for row in report.rows:
        assert row.status == "failed"
        assert len(row.missing) >= 1


def test_a_second_window_round_adds_the_closures_of_the_missing_names(dispersed_dir):
    graph, _alignment = corpus.ingest_corpus([dispersed_dir / "dispersed.kg.json"])
    index = retrieval.index_snippets(graph)
    one, two = (
        codegen.run_pipeline(corpus.DISPERSED_QUERY, graph, index, codegen.TemplateGenerator(),
                             max_rounds, window_k=3)
        for max_rounds in (1, 2)
    )
    assert one.report.missing_declarations and not one.report.ok
    assert (two.report.ok, two.rounds, two.seeds) == (True, 2, ())
    assert two.retrieval.structural > one.retrieval.structural


def test_papers_only_generation_failure(battery_dir):
    config = ablation.AblationConfig(knowledge_sources=corpus.PAPERS_ONLY, runs=1)
    report = ablation.run_ablation(config, battery_dir)
    assert report.rows[0].status == "generation_failed"
    assert "no stored expression" in report.rows[0].detail


def test_code_only_validates_with_empty_snippets_flag(battery_dir):
    config = ablation.AblationConfig(knowledge_sources=corpus.CODE_ONLY, runs=1)
    report = ablation.run_ablation(config, battery_dir)
    row = report.rows[0]
    assert row.status == "ok"
    assert row.empty_snippets is True


def test_heterogeneous_validates_with_snippets(battery_dir):
    config = ablation.AblationConfig(knowledge_sources=corpus.HETEROGENEOUS, runs=1)
    report = ablation.run_ablation(config, battery_dir)
    row = report.rows[0]
    assert row.status == "ok"
    assert row.empty_snippets is False


def test_window_rendering_no_code_fails(battery_dir):
    config = ablation.AblationConfig(
        knowledge_sources=corpus.CODE_ONLY, retrieval_mode=ablation.WINDOW_MODE, runs=2
    )
    report = ablation.run_ablation(config, battery_dir)
    assert report.ok_runs == 0
    assert [(row.status, row.detail) for row in report.rows] == [("failed", "model has no statement")] * 2


def test_report_bytes_deterministic(dispersed_dir):
    config = ablation.AblationConfig(retrieval_mode=ablation.WINDOW_MODE, window_k=3, runs=3)
    first = ablation.run_ablation(config, dispersed_dir)
    second = ablation.run_ablation(config, dispersed_dir)
    assert first.to_text() == second.to_text()
    assert json.dumps(first.to_json(), sort_keys=True) == json.dumps(
        second.to_json(), sort_keys=True
    )


def test_scripted_generator_cycles_responses(tmp_path, dispersed_dir):
    script = tmp_path / "mock.json"
    script.write_text(
        json.dumps({"responses": ["con bad: nothing <= 1;", "param q = 1;"]}),
        encoding="utf-8",
    )
    config = ablation.AblationConfig(
        retrieval_mode=ablation.CLOSURE_MODE, runs=2, generator=str(script)
    )
    report = ablation.run_ablation(config, dispersed_dir)
    assert [row.status for row in report.rows] == ["failed", "ok"]
    assert report.rows[0].missing == ("nothing",)


def test_config_validation():
    with pytest.raises(ClosureKbError):
        ablation.AblationConfig(knowledge_sources="everything")
    with pytest.raises(ClosureKbError):
        ablation.AblationConfig(retrieval_mode="window", window_k=0)
    with pytest.raises(ClosureKbError):
        ablation.AblationConfig(runs=0)


@pytest.mark.parametrize("doc", [
    {"runs": "2"},
    {"window_k": "3", "retrieval_mode": "window"},
    [1],
    {"retreival_mode": "window", "runs": 2},
], ids=["string-runs", "string-window_k", "list", "misspelled-key"])
def test_config_from_json_rejects_malformed_documents(doc):
    with pytest.raises(SchemaViolation):
        ablation.config_from_json(doc)


def test_config_from_json_names_every_unknown_key():
    with pytest.raises(SchemaViolation, match=r"\['retreival_mode', 'rnus'\]"):
        ablation.config_from_json({"rnus": 2, "retreival_mode": "window", "runs": 2})


def test_config_from_json_reads_every_field():
    doc = {"knowledge_sources": "code_only", "retrieval_mode": "window", "window_k": 2,
           "runs": 3, "generator": "mock.json"}
    assert ablation.config_from_json(doc) == ablation.AblationConfig(
        corpus.CODE_ONLY, ablation.WINDOW_MODE, 2, 3, "mock.json"
    )
    assert ablation.config_from_json({}) == ablation.AblationConfig()


CONFIG_FIELDS = ("knowledge_sources", "retrieval_mode", "window_k", "runs", "generator")
CONFIG_WORDS = (*corpus.SOURCE_MODES, ablation.CLOSURE_MODE, ablation.WINDOW_MODE, "template")


@settings(max_examples=300, deadline=None)
@given(json_documents(CONFIG_FIELDS, CONFIG_WORDS))
def test_config_from_json_returns_a_config_or_raises_only_closurekb_errors(doc):
    try:
        config = ablation.config_from_json(json.loads(json.dumps(doc)))
    except ClosureKbError:
        return
    assert ablation.config_from_json(ablation.AblationReport(config, ()).to_json()["config"]) == config


@st.composite
def valid_configs(draw):
    mode = draw(st.sampled_from((ablation.CLOSURE_MODE, ablation.WINDOW_MODE)))
    return ablation.AblationConfig(
        knowledge_sources=draw(st.sampled_from(corpus.SOURCE_MODES)),
        retrieval_mode=mode,
        window_k=draw(st.integers(1 if mode == ablation.WINDOW_MODE else -5, 10**20)),
        runs=draw(st.integers(1, 10**20)),
        generator=draw(st.text()),
    )


@settings(max_examples=200, deadline=None)
@given(valid_configs())
def test_config_from_json_reads_back_the_report_config(config):
    doc = json.loads(json.dumps(ablation.AblationReport(config, ()).to_json()["config"]))
    assert ablation.config_from_json(doc) == config


@settings(max_examples=200, deadline=None)
@given(json_documents(("responses",), ("param q = 1;", "con c: q <= 1;")))
def test_scripted_generator_from_path_returns_a_generator_or_raises_only_closurekb_errors(tmp_path_factory, doc):
    script = tmp_path_factory.getbasetemp() / "drawn-script.json"
    script.write_text(json.dumps(doc), encoding="utf-8")
    try:
        generator = ablation.ScriptedGenerator.from_path(script)
    except ClosureKbError:
        return
    assert generator.responses == doc["responses"]


@pytest.mark.parametrize("doc", [
    {"responses": 5},
    {"responses": [5]},
    {"responses": []},
    ["param q = 1;"],
], ids=["int", "list-of-int", "empty", "list"])
def test_scripted_generator_rejects_malformed_scripts(tmp_path, doc):
    script = tmp_path / "mock.json"
    script.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ClosureKbError):
        ablation.ScriptedGenerator.from_path(script)


def test_missing_query_file_is_an_error(tmp_path):
    with pytest.raises(ClosureKbError):
        ablation.run_ablation(ablation.AblationConfig(), tmp_path)


def test_closure_mode_query_resolving_no_entity_is_unresolved(tmp_path):
    (tmp_path / "two.fjs").write_text(fjsp.generate_fjs(2, 2, 2, 2, seed=1), encoding="utf-8")
    (tmp_path / "query.txt").write_text("zzz qqq\n", encoding="utf-8")
    report = ablation.run_ablation(ablation.AblationConfig(runs=2), tmp_path)
    assert [row.status for row in report.rows] == ["unresolved", "unresolved"]
    assert report.ok_runs == 0
    graph, _alignment = corpus.ingest_corpus([tmp_path / "two.fjs"])
    _code, loop_report, _rounds = codegen.repair_loop(
        "zzz qqq", graph, retrieval.index_snippets(graph), codegen.TemplateGenerator()
    )
    assert loop_report.status == "unresolved"
