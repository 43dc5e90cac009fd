"""Each output check of the benchmark rejects a deliberately broken output.

Run with `PYTHONPATH=src python -m pytest perfbench`.
"""

from __future__ import annotations

import random

import bench_checks
import bench_generators
import bench_inputs
from closurekb import codegen, corpus, fjsp, model_dsl, retrieval


def _answers(workdir, build):
    """First-round answers of a workload: (request, code, report, snippet ids)."""
    workload = build(workdir, 7)
    graph, _ = corpus.ingest_corpus([str(p) for p in workload.inputs])
    index = retrieval.index_snippets(graph)
    out = []
    for request in workload.requests:
        generator = bench_generators.RenderingGenerator()
        code, report, _rounds = codegen.repair_loop(request.text, graph, index, generator)
        out.append((request, code, report, generator.snippet_ids))
    return out


def _drop_first(code: str, prefix: str) -> str:
    lines = code.splitlines(keepends=True)
    lines.remove(next(line for line in lines if line.startswith(prefix)))
    return "".join(lines)


def test_battery_checks_pass_real_output_and_reject_a_dropped_declaration(tmp_path):
    for request, code, report, snippets in _answers(tmp_path, bench_inputs.build_battery):
        check = bench_checks.CHECKS[request.expect]
        if request.kept_failing:
            # Reported ok, yet the constraint the user asked for is absent.
            assert report.ok
            assert check(code, request.facts, snippets)
            continue
        assert check(code, request.facts, snippets) == []
        broken = _drop_first(code, "var ")
        assert any("undeclared symbols" in p for p in check(broken, request.facts, snippets))


def test_empty_code_fails_every_check():
    facts = {
        "battery_load_reduction": {"lambda_rate": 0.54, "delta_l_min": 10.0, "machines": ["m01"]},
        "battery_starvation": {"machine": "m01", "upstream": ["B13"], "time_set": "timeSequence"},
        "kb_constraint": {
            "declarations": {"set": ["S"], "param": ["p"], "var": ["v"], "con": ["c"]},
            "statement": "con c{t in S}: v[t] <= p[t];",
            "planted_doc": "paper:x",
        },
        "fjsp_whole": {"vars": 3, "cons": 4},
        "fjsp_part": {"statement": "con prec"},
    }
    for expect, check in bench_checks.CHECKS.items():
        assert "empty code" in check("", facts[expect], ("paper:x",))


def test_kb_check_rejects_extra_declaration_and_misranked_snippet(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_inputs, "KB_MODELS", 20)
    monkeypatch.setattr(bench_inputs, "KB_REQUESTS", 3)
    for request, code, report, snippets in _answers(tmp_path, bench_inputs.build_kb_scale):
        assert report.ok
        assert bench_checks.check_kb_constraint(code, request.facts, snippets) == []
        extra = code + "param strayPar = 1;\n"
        assert bench_checks.check_kb_constraint(extra, request.facts, snippets)
        assert bench_checks.check_kb_constraint(code, request.facts, snippets[::-1] + ("paper:other",))
        assert bench_checks.check_kb_constraint(_drop_first(code, "var "), request.facts, snippets)


def test_fjsp_whole_check_counts_pairs_like_criterion_5():
    text = bench_inputs.behnke_like_fjs(random.Random(3), jobs=3, ops=2, flex=2, machines=4)
    instance = fjsp.parse_fjs(text)
    pairs = bench_inputs.machine_pairs(text)
    assert pairs == 4 * 3  # every machine is eligible for 3 operations
    code = model_dsl.emit_model(fjsp.build_fjsp_model(instance))
    facts = {"vars": 3 + pairs, "cons": 4 + 2 * pairs}
    assert bench_checks.check_fjsp_whole(code, facts) == []
    wrong = _drop_first(code, "con cap_")
    assert any("expected" in p for p in bench_checks.check_fjsp_whole(wrong, facts))


def test_dropping_generator_omits_a_declaration_once():
    class Package:
        snippets = ()

        def render(self):
            return "prompt"

    generator = bench_generators.DroppingGenerator()
    generator._template = lambda _package: "set S = 1..2;\nvar v{S} binary;\ncon c{t in S}: v[t] <= 1;\n"
    first, second = generator(Package()), generator(Package())
    assert bench_checks.undeclared_references(first) == ["v"]
    assert bench_checks.undeclared_references(second) == []
    assert generator.prompt_bytes == 2 * len("prompt")


def test_scanner_skips_bound_names_numbers_and_set_members():
    code = (
        "set S = {a, b};\nparam p{S} = [1e-05, 2];\nvar v{S} continuous in [0, 5];\n"
        "con c{t in S : t >= 2}: sum{k in S}(v[k]) <= p[t-1];\nmin obj: sum{t in S}(v[t]);\n"
    )
    assert bench_checks.undeclared_references(code) == []
    assert bench_checks.undeclared_references(code.replace("param p", "param q")) == ["p"]
