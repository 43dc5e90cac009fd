"""`codegen.validate` reads symbol facts line by line through a memo and
checks each distinct reference once; these tests hold it, report for report,
to the whole-source parse it stands in for and to a loop over every
reference and iteration in turn."""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurekb import battery, codegen
from closurekb import knowledge_graph as kg
from closurekb import model_dsl as md
from closurekb.closure import closure
from closurekb.errors import DuplicateDeclaration, ParseError

from test_model_dsl import random_model
from test_retrieval import fjsp_graph


def whole_source_report(code, graph=None):
    """validate() with the line memo switched off: one whole-source parse."""
    with mock.patch.object(md, "symbol_facts_by_line", lambda _source: None):
        return codegen.validate(code, graph)


def every_reference_report(code, graph=None):
    """Reference: one whole-source parse, then every reference and every
    iteration checked in turn, repeats included."""
    try:
        facts = md.extract_symbols(md.parse_model(code))
    except (ParseError, DuplicateDeclaration) as exc:
        return codegen.ValidationReport(status="failed", parse_error=str(exc))
    if not facts.declarations:
        return codegen.ValidationReport(status="failed", parse_error="model has no statement")
    declared = {decl.name: (decl.kind, decl.arity) for decl in facts.declarations}

    def resolve(name):
        if name in declared:
            return declared[name]
        found = graph.find_by_name(name) if graph is not None else []
        return (found[0].kind, len(getattr(kg.declaration(found[0]), "index_sets", ()))) if found else None

    missing, kinds, arities = set(), set(), set()
    for ref in facts.references:
        resolution = resolve(ref.name)
        if resolution is None:
            missing.add(ref.name)
        elif resolution[0] not in (kg.DECISION_VARIABLE, kg.PARAMETER):
            kinds.add((ref.name, codegen.VALUE_EXPECTATION, resolution[0]))
        elif resolution[1] != ref.arity:
            arities.add((ref.name, resolution[1], ref.arity))
    for _site, name in facts.iterations:
        resolution = resolve(name)
        if resolution is None:
            missing.add(name)
        elif resolution[0] != kg.INDEX_SET:
            kinds.add((name, kg.INDEX_SET, resolution[0]))
    return codegen.ValidationReport(
        status="failed" if missing or kinds or arities else "ok",
        missing_declarations=tuple(sorted(missing)),
        kind_mismatches=tuple(sorted(kinds)),
        arity_mismatches=tuple(sorted(arities)),
    )


def assert_same_reports(code, graph):
    for with_graph in (None, graph):
        report = codegen.validate(code, with_graph)
        assert report == whole_source_report(code, with_graph), repr(code)
        assert report == every_reference_report(code, with_graph), repr(code)


def model_and_graph(seed):
    ast = random_model(random.Random(seed))
    graph = kg.KnowledgeGraph()
    kg.ingest_model(ast, graph)
    return md.emit_model(ast), graph


# Characters a one-character edit puts in: statement and comment syntax, the
# line break, and whitespace that str.splitlines() would also break at.
EDIT_CHARS = st.sampled_from([";", ":", "{", "}", "[", "]", ",", "!", "\n", "\r", " ", "\x1c", "\x85",
                              "x", "T", "S0", "P0", "V0", "1", "0", ".", "-", "@"])


@st.composite
def mutated_model(draw):
    """(code, graph): a random model with one to three mutations, and the
    graph ingested from the model before it was mutated."""
    code, graph = model_and_graph(draw(st.integers(0, 10_000)))
    for _ in range(draw(st.integers(1, 3))):
        lines = code.split("\n")
        at = draw(st.integers(0, len(lines) - 1))
        mutation = draw(st.sampled_from([
            "delete-line", "duplicate-line", "edit-char", "split-statement", "second-objective",
            "redeclare", "crlf", "comment-line", "comment-out", "odd-whitespace",
        ]))
        if mutation == "delete-line":
            del lines[at]
        elif mutation == "duplicate-line":
            lines.insert(draw(st.integers(0, len(lines))), lines[at])
        elif mutation == "edit-char":
            line = lines[at]
            cut = draw(st.integers(0, len(line)))
            keep = draw(st.integers(0, 1)) if cut < len(line) else 0
            lines[at] = line[:cut] + draw(EDIT_CHARS) + line[cut + 1 - keep:]
        elif mutation == "split-statement":
            line = lines[at]
            cut = draw(st.integers(0, len(line)))
            lines[at] = line[:cut] + "\n" + line[cut:]
        elif mutation == "second-objective":
            lines.insert(at, draw(st.sampled_from(["max extra: 1;", "min extra: S0;", "min OBJ: 2;"])))
        elif mutation == "redeclare":
            name = draw(st.sampled_from(["S0", "P0", "V0", "C0", "OBJ"]))
            lines.insert(at, draw(st.sampled_from([f"param {name};", f"set {name} = 1..2;"])))
        elif mutation == "crlf":
            lines = [line + "\r" for line in lines]
        elif mutation == "comment-line":
            lines.insert(at, draw(st.sampled_from(["! a comment", "!", "  ! con c: x <= 1;", ""])))
        elif mutation == "comment-out":
            # The comment runs to the line break, past any other separator.
            lines[at] = "! off" + draw(st.sampled_from(["\x1c", "\x85", "\r", " "])) + lines[at]
        else:
            line = lines[at]
            cut = draw(st.integers(0, len(line)))
            lines[at] = line[:cut] + draw(st.sampled_from(["\x1c", "\x1d", "\x1e", "\x85"])) + line[cut:]
        code = "\n".join(lines)
    return code, graph


@settings(max_examples=400, deadline=None)
@given(mutated_model())
def test_line_memo_reports_equal_whole_source_reports(case):
    code, graph = case
    assert_same_reports(code, graph)


def test_unmutated_models_take_the_line_path():
    for seed in range(50):
        code, graph = model_and_graph(seed)
        assert md.symbol_facts_by_line(code) is not None
        assert_same_reports(code, graph)


@pytest.mark.parametrize("code, fast", [
    ("set T = 1..2;\nvar y{T} binary;\ncon c: y[1] <= ;\n", False),
    ("set T = 1..2;\ncon c:\n  T <= 1;\n", False),
    ("var y binary;\nmax a: y;\nmin b: y;\n", False),
    ("var y binary;\nparam y;\n", False),
    ("set T = 1..2;\x85var y{T} binary;\x1ccon c{t in T}: y[t] <= 1;\n", True),
    ("set T = 1..2;\r\n! T is the horizon\r\nvar y{T} binary; ! on/off\r\n", True),
    ("set T = 1..2; ! off\x85con c: T <= 1;\n! off\rcon d: T <= 1;\n", True),
    ("", True),
    ("set T = 1..2;\nvar y{T} binary;\ncon c: y + y[1, 1] + y <= T[2];\n", True),
], ids=["error-on-line-3", "statement-over-lines", "second-objective", "redeclared",
        "unicode-separators", "crlf-and-comments", "separator-in-comment", "empty",
        "one-name-at-two-arities"])
def test_line_path_or_fallback_matches_the_whole_source(code, fast):
    assert (md.symbol_facts_by_line(code) is not None) == fast
    assert_same_reports(code, None)


def test_parse_error_keeps_whole_source_line_and_column():
    report = codegen.validate("set T = 1..2;\nvar y{T} binary;\ncon c: y[1] <= ;\n")
    assert report.parse_error == "unexpected token ';' at line 3, column 16 (expected: (, IDENT, NUMBER, sum)"


def test_fjsp_and_battery_template_code_matches_the_whole_source():
    graphs = [fjsp_graph(), battery.build_battery_kg(battery.paper_case_data(), battery.paper_event())]
    for graph in graphs:
        for entity_id in graph.sorted_ids():
            if graph.entity(entity_id).kind not in (kg.CONSTRAINT, kg.OBJECTIVE):
                continue
            members = closure(graph, entity_id).members
            package = codegen.build_context_from_members(graph, members, [], "build it")
            code = codegen.TemplateGenerator()(package)
            assert md.symbol_facts_by_line(code) is not None
            assert_same_reports(code, graph)


def test_a_model_longer_than_the_memo_validates_the_same_twice():
    bound = md._line_facts.cache_info().maxsize
    lines = ["set T = 1..2;"]
    lines += [f"param p{i}{{T}} = [{i}, 1];" for i in range(bound + 500)]
    lines += [f"con c{i}{{t in T}}: p{i}[t] <= q;" for i in range(0, bound + 500, 97)]
    code = "\n".join(lines) + "\n"
    first = codegen.validate(code)
    assert first == codegen.validate(code)
    assert first == whole_source_report(code)
    assert first.missing_declarations == ("q",)
    assert md._line_facts.cache_info().currsize <= bound
