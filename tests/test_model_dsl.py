"""Parser, symbol facts, and emitter tests, including the random round-trip suite."""

import math
import random
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closurekb import model_dsl as md
from closurekb.errors import ClosureKbError, DuplicateDeclaration, ParseError

LISTING_STYLE = (
    "set T = 1..4; var y{T} binary; param B13{T};"
    " con c{t in T : t >= 2}: y[t] <= B13[t-1];"
)


def test_parse_minimal_model():
    ast = md.parse_model("set T = 1..2; var y{T} binary; max obj: y[1];")
    assert len(ast.sets) == 1
    assert ast.sets[0] == md.SetDecl("T", lo=1, hi=2)
    assert len(ast.vars) == 1
    assert ast.vars[0].domain == md.BINARY
    assert ast.vars[0].index_sets == ("T",)
    assert ast.objective.sense == "max"
    assert ast.objective.expr == md.Ref("y", (md.Index(None, 1),))


def test_parse_quantified_constraint_with_filter():
    ast = md.parse_model(LISTING_STYLE)
    con = ast.constraints[0]
    assert con.quantifier.index == "t"
    assert con.quantifier.over == "T"
    assert con.quantifier.where == md.Predicate(
        (md.Compare(">=", md.Ref("t"), md.Num(2.0)),)
    )
    assert con.right == md.Ref("B13", (md.Index("t", -1),))


def test_duplicate_declaration_rejected():
    with pytest.raises(DuplicateDeclaration) as excinfo:
        md.parse_model("var y binary; var y binary; min obj: y;")
    assert excinfo.value.name == "y"


def test_parse_error_carries_location_and_expected():
    with pytest.raises(ParseError) as excinfo:
        md.parse_model("set T = 1..2")
    err = excinfo.value
    assert err.line == 1
    assert ";" in err.expected


def test_multiple_objectives_rejected():
    with pytest.raises(ParseError):
        md.parse_model("var x binary; max a: x; min b: x;")


def test_member_set_and_param_data():
    ast = md.parse_model("set S = {alpha, beta}; param p{S} = [1, 2.5]; param q = 3;")
    assert ast.sets[0].members == ("alpha", "beta")
    assert ast.params[0].data == (1.0, 2.5)
    assert ast.params[1].data == 3.0


def test_comments_and_whitespace_ignored():
    src = "! leading comment\nset T = 1..2; ! trailing\nvar y{T} binary;\n"
    ast = md.parse_model(src)
    assert len(ast.sets) == 1 and len(ast.vars) == 1


def test_index_arithmetic_limited_to_name_plus_integer():
    with pytest.raises(ParseError):
        md.parse_model("set T = 1..3; var y{T} binary; con c{t in T}: y[t-t] <= 1;")


def test_empty_model_parses_to_empty_tables():
    ast = md.parse_model("")
    assert ast == md.ModelAst()
    assert md.extract_symbols(ast) == md.SymbolFacts((), (), ())


def test_extract_symbols_declarations_and_references():
    ast = md.parse_model("set T = 1..2; var y{T} binary; max obj: y[1];")
    facts = md.extract_symbols(ast)
    assert facts.declarations == (
        md.Declaration("T", md.SET, 0),
        md.Declaration("y", md.VAR, 1),
        md.Declaration("obj", md.OBJECTIVE, 0),
    )
    assert facts.references == (md.Reference("y", 1, "obj"),)


def test_extract_symbols_undeclared_reference_is_reported_not_raised():
    ast = md.parse_model("set T = 1..3; var y{T} binary; con c{t in T}: y[t] <= B13[t-1];")
    facts = md.extract_symbols(ast)
    assert "B13" not in {decl.name for decl in facts.declarations}
    assert md.Reference("B13", 1, "c") in facts.references


def test_extract_symbols_bound_indices_are_not_references():
    ast = md.parse_model(LISTING_STYLE)
    names = {r.name for r in md.extract_symbols(ast).references}
    assert names == {"y", "B13"}


def test_extract_symbols_sum_filter_references():
    src = (
        "set O = 1..2; set M = 1..2; param e{O, M} = [1, 0, 0, 1];"
        " var x{O, M} binary;"
        " con a{o in O}: sum{k in M : e[o,k] = 1}(x[o,k]) = 1;"
    )
    pairs = {(r.name, r.arity) for r in md.extract_symbols(md.parse_model(src)).references}
    assert pairs == {("e", 2), ("x", 2)}


def test_iteration_sets_cover_quantifier_and_sums():
    ast = md.parse_model(
        "set T = 1..2; set S = 1..2; var y{T} binary;"
        " con c{t in T}: sum{s in S}(y[t]) <= 1;"
        " con d{t in T : sum{s in S}(y[s]) >= 1}: y[t] <= 1;"
        " max obj: sum{t in T}(y[t]);"
    )
    assert md.extract_symbols(ast).iterations == (
        ("y", "T"), ("c", "T"), ("c", "S"), ("d", "T"), ("d", "S"), ("obj", "T"),
    )


# --- Errors: messages, positions, totality ----------------------------------------

# Line and column are worked out from a token's offset only when an error is
# raised; this table pins str(exc), line, column and expected for each kind of
# error, across newlines, CRLF, tabs and comments.
ERROR_CASES = [
    ("set T = 1..2",
     ParseError, "unexpected end of input at line 1, column 13 (expected: ;)", 1, 13, (";",)),
    ("set T = 1..2;\nvar y{T} binary\ncon c: y[1] <= 1;",
     ParseError, "unexpected token 'con' at line 3, column 1 (expected: ;)", 3, 1, (";",)),
    ("set T = 1..2; ! a comment ; here\n  var y{T} @binary;",
     ParseError, "unexpected character '@' at line 2, column 12", 2, 12, ()),
    ("! only a comment\n\n   param p = ;",
     ParseError, "unexpected token ';' at line 3, column 14 (expected: NUMBER)", 3, 14, ("NUMBER",)),
    ("set T = 1.5..3;",
     ParseError, "set range bounds must be integers at line 1, column 9", 1, 9, ()),
    ("set T = 1..2;\nvar y{T} binary;\ncon c{t in T}: y[1.5] <= 1;",
     ParseError, "index literals must be integers at line 3, column 18", 3, 18, ()),
    ("set T = 1..2;\ncon c{t in T}:\n    y[t+0.5] <= 1;",
     ParseError, "index offsets must be integer literals at line 3, column 9", 3, 9, ()),
    ("var y binary;\n! second\nvar y binary;",
     DuplicateDeclaration, "duplicate declaration of 'y' at line 3", 3, None, ()),
    ("var x binary; max a: x;\n  min b: x;",
     ParseError, "multiple objectives at line 2, column 3", 2, 3, ()),
    ("con c: x <= ",
     ParseError, "unexpected end of input at line 1, column 13 (expected: (, IDENT, NUMBER, sum)",
     1, 13, ("(", "IDENT", "NUMBER", "sum")),
    ("con c: x[ ] <= 1;",
     ParseError, "unexpected token ']' in index at line 1, column 11 (expected: IDENT, NUMBER)",
     1, 11, ("IDENT", "NUMBER")),
    ("param p{S = [1];",
     ParseError, "unexpected token '=' at line 1, column 11 (expected: })", 1, 11, ("}",)),
    ("set S = {a, 1};",
     ParseError, "unexpected token '1' at line 1, column 13 (expected: IDENT)", 1, 13, ("IDENT",)),
    ("\n\nfoo",
     ParseError, "unexpected token 'foo' at line 3, column 1 (expected: con, max, min, param, set, var)",
     3, 1, ("con", "max", "min", "param", "set", "var")),
    ("var y{T} real;",
     ParseError, "unexpected token 'real' at line 1, column 10 (expected: binary, continuous, integer)",
     1, 10, ("binary", "continuous", "integer")),
    ("set T = 1..2;\r\n\tvar y{T} binary;\r\n\tcon c{t in T : t >= 2 and}: y[t] <= 1;",
     ParseError, "unexpected token '}' at line 3, column 27 (expected: (, IDENT, NUMBER, sum)",
     3, 27, ("(", "IDENT", "NUMBER", "sum")),
    ("set T = 1..2; ! x\n! y\n\t\t  con c: y[t] # 1;",
     ParseError, "unexpected character '#' at line 3, column 17", 3, 17, ()),
    ("con c: y[t-t] <= 1;",
     ParseError, "unexpected token 't' at line 1, column 12 (expected: NUMBER)", 1, 12, ("NUMBER",)),
    ("set T = 1..2;\nvar ŷ binary;",
     ParseError, "unexpected character 'ŷ' at line 2, column 5", 2, 5, ()),
    ("param p = [1, 2,\n  3,\n  -];",
     ParseError, "unexpected token ']' at line 3, column 4 (expected: NUMBER)", 3, 4, ("NUMBER",)),
]


@pytest.mark.parametrize("source, error, message, line, column, expected", ERROR_CASES)
def test_error_message_and_position(source, error, message, line, column, expected):
    with pytest.raises(error) as excinfo:
        md.parse_model(source)
    err = excinfo.value
    assert type(err) is error
    assert str(err) == message
    assert err.line == line
    assert getattr(err, "column", None) == column
    assert getattr(err, "expected", ()) == expected


@pytest.mark.parametrize("source", [
    "param p = " + "9" * 400 + ";",
    "param p{S} = [1, -" + "9" * 400 + "];",
    "con c: x <= " + "9" * 400 + ";",
    "con c: x <= " + "9" * 5000 + ";",
    "con c: x <= " + "9" * 400 + ".5;",
], ids=["param-400-digits", "list-400-digits", "num-400-digits", "num-5000-digits", "decimal-400-digits"])
def test_number_too_large_for_a_float_is_a_parse_error(source):
    with pytest.raises(ParseError, match="number out of range at line 1"):
        md.parse_model(source)


@pytest.mark.parametrize("source", [
    "set T = 1.." + "9" * 5000 + ";",
    "con c: x[" + "9" * 5000 + "] <= 1;",
    "con c: x[t-" + "9" * 5000 + "] <= 1;",
], ids=["set-bound", "index-literal", "index-offset"])
def test_integer_too_long_for_int_is_a_parse_error(source):
    # Interpreters without a digit limit on int() parse these.
    try:
        md.parse_model(source)
    except ParseError as exc:
        assert "integer literal too long at line 1" in str(exc)


@pytest.mark.parametrize("source", [
    "con c: x <= " + "(" * 3000 + "1" + ")" * 3000 + ";",
    "con c: x <= " + "sum{i in S}" * 3000 + "1;",
], ids=["3000-parentheses", "3000-sums"])
def test_nesting_deeper_than_the_stack_is_a_parse_error(source):
    with pytest.raises(ParseError, match="expression nested too deeply"):
        md.parse_model(source)


def test_long_left_deep_sum_parses_and_walks_without_recursion():
    source = "var x continuous; con c: " + " + ".join(["x"] * 1500) + " <= 1;"
    facts = md.extract_symbols(md.parse_model(source))
    assert facts.references == (md.Reference("x", 0, "c"),)
    assert facts.iterations == ()


@pytest.mark.parametrize("chain", [
    " + ".join(["x"] * 1500),
    "*".join(["x"] * 1500),
    " - ".join(["x*2"] * 750) + "/x",
    "(" + " + ".join(["x"] * 1500) + ")*x",
], ids=["1500-term-sum", "1500-factor-product", "mixed-chain", "parenthesized-sum"])
def test_long_left_deep_chain_emits_without_recursion(chain):
    source = f"var x continuous; con c: {chain} <= 1;"
    ast = md.parse_model(source)
    assert md.emit_constraint(ast.constraints[0]) == f"con c: {chain} <= 1;"
    assert md.emit_model(ast) == source.replace("; ", ";\n", 1) + "\n"
    lingo = md.emit_model(ast, md.LINGO_FLAVORED)
    assert chain in lingo


_PIECES = st.sampled_from([
    "set", "param", "var", "con", "max", "min", "sum", "in", "and", "binary",
    "x", "T", "t", "S1", "1", "2.5", "9" * 400, "..", "<=", ">=", "<", ">", "=",
    ";", ":", ",", "{", "}", "[", "]", "(", ")", "+", "-", "*", "/",
    "!", "\n", " ", "\t", ".", "@", "ŷ", "٣",
])


@st.composite
def spliced_models(draw):
    """A valid random model with a few tokens spliced in or put in place of a number."""
    text = md.emit_model(random_model(random.Random(draw(st.integers(0, 10_000)))))
    numbers = [m.span() for m in re.finditer(r"\d+", text)]
    cut = end = draw(st.integers(0, len(text)))
    if numbers and draw(st.booleans()):
        cut, end = draw(st.sampled_from(numbers))
    return text[:cut] + "".join(draw(st.lists(_PIECES, min_size=1, max_size=4))) + text[end:]


MALFORMED_SOURCES = st.one_of(
    st.text(max_size=80),
    st.lists(_PIECES, max_size=60).map("".join),
    st.lists(_PIECES, max_size=60).map(" ".join),
    spliced_models(),
)


@settings(max_examples=400, deadline=None)
@given(MALFORMED_SOURCES)
def test_parse_model_raises_only_closurekb_errors(source):
    try:
        md.parse_model(source)
    except ClosureKbError:
        pass


# --- Emission ------------------------------------------------------------------

def test_emit_lingo_quantifier_and_filter():
    ast = md.parse_model(LISTING_STYLE)
    text = md.emit_model(ast, md.LINGO_FLAVORED)
    assert "@for(T(t)|t#ge#2: y(t) <= B13(t-1));" in text


def test_emit_lingo_objective_form():
    text = md.emit_model(md.parse_model("max obj: 5*x;"), md.LINGO_FLAVORED)
    assert text.startswith("max = 5*x")


def test_emit_lingo_sum_and_conjunction():
    src = (
        "set T = 1..12; var y{T} binary;"
        " con c: sum{i in T : i > 6 and i <= 12}(y[i]) <= 3;"
    )
    text = md.emit_model(md.parse_model(src), md.LINGO_FLAVORED)
    assert "@sum(T(i)|(i#gt#6)#and#(i#le#12): y(i))" in text


# The LINGO domain and bound statements of `var x{index} domain bounds;`, as
# emitted after the sets section. An indexed declaration iterates its leading
# set only, and a binary variable's bounds are implied by @bin.
LINGO_VAR_MARKERS = [
    ('', 'binary', '', '@bin(x);\n'),
    ('', 'binary', ' in [0, 5]', '@bin(x);\n'),
    ('', 'binary', ' in [-1.5, 2]', '@bin(x);\n'),
    ('', 'integer', '', '@gin(x);\n'),
    ('', 'integer', ' in [0, 5]', '@gin(x);\n@bnd(0, x, 5);\n'),
    ('', 'integer', ' in [-1.5, 2]', '@gin(x);\n@bnd(-1.5, x, 2);\n'),
    ('', 'continuous', '', ''),
    ('', 'continuous', ' in [0, 5]', '@bnd(0, x, 5);\n'),
    ('', 'continuous', ' in [-1.5, 2]', '@bnd(-1.5, x, 2);\n'),
    ('{S}', 'binary', '', '@for(S(t): @bin(x(t)));\n'),
    ('{S}', 'binary', ' in [0, 5]', '@for(S(t): @bin(x(t)));\n'),
    ('{S}', 'binary', ' in [-1.5, 2]', '@for(S(t): @bin(x(t)));\n'),
    ('{S}', 'integer', '', '@for(S(t): @gin(x(t)));\n'),
    ('{S}', 'integer', ' in [0, 5]', '@for(S(t): @gin(x(t)));\n@for(S(t): @bnd(0, x(t), 5));\n'),
    ('{S}', 'integer', ' in [-1.5, 2]', '@for(S(t): @gin(x(t)));\n@for(S(t): @bnd(-1.5, x(t), 2));\n'),
    ('{S}', 'continuous', '', ''),
    ('{S}', 'continuous', ' in [0, 5]', '@for(S(t): @bnd(0, x(t), 5));\n'),
    ('{S}', 'continuous', ' in [-1.5, 2]', '@for(S(t): @bnd(-1.5, x(t), 2));\n'),
    ('{S, R}', 'binary', '', '@for(S(t): @bin(x(t)));\n'),
    ('{S, R}', 'binary', ' in [0, 5]', '@for(S(t): @bin(x(t)));\n'),
    ('{S, R}', 'binary', ' in [-1.5, 2]', '@for(S(t): @bin(x(t)));\n'),
    ('{S, R}', 'integer', '', '@for(S(t): @gin(x(t)));\n'),
    ('{S, R}', 'integer', ' in [0, 5]', '@for(S(t): @gin(x(t)));\n@for(S(t): @bnd(0, x(t), 5));\n'),
    ('{S, R}', 'integer', ' in [-1.5, 2]', '@for(S(t): @gin(x(t)));\n@for(S(t): @bnd(-1.5, x(t), 2));\n'),
    ('{S, R}', 'continuous', '', ''),
    ('{S, R}', 'continuous', ' in [0, 5]', '@for(S(t): @bnd(0, x(t), 5));\n'),
    ('{S, R}', 'continuous', ' in [-1.5, 2]', '@for(S(t): @bnd(-1.5, x(t), 2));\n'),
]


@pytest.mark.parametrize("index, domain, bounds, expected", LINGO_VAR_MARKERS)
def test_emit_lingo_domain_and_bound_statements(index, domain, bounds, expected):
    src = f"set S = 1..2; set R = 1..3; var x{index} {domain}{bounds};"
    text = md.emit_model(md.parse_model(src), md.LINGO_FLAVORED)
    assert text == "sets:\nS /1..2/;\nR /1..3/;\nendsets\n" + expected


def test_emit_is_deterministic():
    ast = md.parse_model(LISTING_STYLE)
    assert md.emit_model(ast) == md.emit_model(ast)
    assert md.emit_model(ast, md.LINGO_FLAVORED) == md.emit_model(ast, md.LINGO_FLAVORED)


def test_round_trip_listing_style():
    ast = md.parse_model(LISTING_STYLE)
    assert md.parse_model(md.emit_model(ast)) == ast


def test_unknown_dialect_rejected():
    with pytest.raises(ValueError):
        md.emit_model(md.ModelAst(), "gurobi")


# --- Random model generator (shared with other suites) -----------------------------

def random_model(rng: random.Random) -> md.ModelAst:
    """Arity-consistent random model: every reference resolves to a declaration."""
    sets = []
    for i in range(rng.randint(1, 3)):
        lo = rng.randint(1, 3)
        sets.append(md.SetDecl(f"S{i}", lo=lo, hi=lo + rng.randint(1, 4)))
    set_names = [s.name for s in sets]

    params = []
    for i in range(rng.randint(0, 3)):
        index_sets = tuple(
            rng.choice(set_names) for _ in range(rng.randint(0, 2))
        )
        data = None
        if not index_sets and rng.random() < 0.6:
            data = float(rng.randint(0, 9))
        elif index_sets and rng.random() < 0.4:
            data = tuple(float(rng.randint(0, 9)) for _ in range(rng.randint(1, 4)))
        params.append(md.ParamDecl(f"P{i}", index_sets=index_sets, data=data))

    variables = []
    for i in range(rng.randint(1, 3)):
        index_sets = tuple(
            rng.choice(set_names) for _ in range(rng.randint(0, 2))
        )
        domain = rng.choice(md.VAR_DOMAINS)
        bounds = (0.0, float(rng.randint(1, 20))) if rng.random() < 0.3 else None
        variables.append(md.VarDecl(f"V{i}", index_sets=index_sets, domain=domain, bounds=bounds))

    symbols = [(p.name, len(p.index_sets)) for p in params] + [
        (v.name, len(v.index_sets)) for v in variables
    ]

    counter = [0]

    def make_ref(binders):
        name, arity = rng.choice(symbols)
        indices = []
        for _ in range(arity):
            if binders and rng.random() < 0.8:
                indices.append(md.Index(rng.choice(binders), rng.randint(-1, 1)))
            else:
                indices.append(md.Index(None, rng.randint(1, 3)))
        return md.Ref(name, tuple(indices))

    def make_expr(binders, depth):
        roll = rng.random()
        if depth <= 0 or roll < 0.3:
            if rng.random() < 0.4:
                return md.Num(float(rng.choice([0, 1, 2, 3, 5])))
            return make_ref(binders)
        if roll < 0.75:
            op = rng.choice(["+", "-", "*", "/"])
            return md.BinOp(op, make_expr(binders, depth - 1), make_expr(binders, depth - 1))
        counter[0] += 1
        binder = f"j{counter[0]}"
        over = rng.choice(set_names)
        where = None
        if rng.random() < 0.4:
            where = md.Predicate(
                (md.Compare(rng.choice(["<=", ">=", "<", ">", "="]),
                            md.Ref(binder), md.Num(float(rng.randint(1, 4)))),)
            )
        return md.Sum(md.Quantifier(binder, over, where), make_expr(binders + [binder], depth - 1))

    constraints = []
    for i in range(rng.randint(1, 3)):
        quantifier = None
        binders: list[str] = []
        if rng.random() < 0.6:
            counter[0] += 1
            binder = f"q{counter[0]}"
            where = None
            if rng.random() < 0.5:
                where = md.Predicate(
                    (md.Compare(">=", md.Ref(binder), md.Num(float(rng.randint(1, 3)))),)
                )
            quantifier = md.Quantifier(binder, rng.choice(set_names), where)
            binders = [binder]
        constraints.append(
            md.Constraint(
                f"C{i}",
                quantifier,
                make_expr(binders, 2),
                rng.choice(["<=", "=", ">="]),
                make_expr(binders, 1),
            )
        )

    objective = None
    if rng.random() < 0.8:
        objective = md.Objective(rng.choice(["max", "min"]), "OBJ", make_expr([], 2))

    return md.ModelAst(
        sets=tuple(sets),
        params=tuple(params),
        vars=tuple(variables),
        constraints=tuple(constraints),
        objective=objective,
    )


def test_round_trip_on_1000_random_models():
    rng = random.Random(20260810)
    for _ in range(1000):
        ast = random_model(rng)
        emitted = md.emit_model(ast)
        assert md.parse_model(emitted) == ast
        assert md.emit_model(md.parse_model(emitted)) == emitted


FINITE_DOUBLES = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0]
).filter(math.isfinite)


@settings(max_examples=500, deadline=None)
@given(FINITE_DOUBLES)
def test_every_finite_double_reads_back_as_written(value):
    text = md.format_number(value)
    assert md.parse_model(f"param q = {text};").params[0].data == value
    num = md.Num(value)
    con = md.Constraint("c", None, md.BinOp("-", num, num), "<=", md.BinOp("*", num, num))
    assert md.parse_model(md.emit_constraint(con)).constraints == (con,)


def test_reference_completeness_on_random_models():
    rng = random.Random(4242)
    for _ in range(200):
        ast = random_model(rng)
        facts = md.extract_symbols(ast)
        declared = {decl.name: decl for decl in facts.declarations}
        for ref in facts.references:
            assert ref.name in declared
            assert declared[ref.name].arity == ref.arity
