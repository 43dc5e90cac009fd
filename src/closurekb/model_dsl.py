"""MiniModel: a minimal canonical optimization-modeling language.

Parses `;`-terminated declarations (sets, params, vars, constraints, one
objective) into an immutable AST, extracts its symbol facts, and emits text in
the canonical dialect (round-trips through the parser) or a LINGO-flavored
dialect (`@for`/`@sum`/`#ge#` style). Comments run from `!` to end of line.

The lexer is one regex scan into plain `(kind, text, offset)` tuples; a
token's line and column are worked out from its offset only when an error is
raised. Malformed text of any kind raises ParseError or DuplicateDeclaration.

Resolution of names to declarations is deliberately NOT done here; the parser
only enforces grammar and name uniqueness. Kind/arity checking lives in the
code validator so that broken generated code can be diagnosed rather than
rejected outright.

The validator reads a source's symbol facts (declarations, references and
iterations) line by line through a memo keyed by the exact text of
one line (`str.split("\n")`, not `splitlines()`), bounded at 8,192 lines. An
entry holds code facts only: no AST and nothing of a graph. A line that does
not parse on its own, a name declared on two lines or a second objective
sends the validator back to one whole-source parse, so every error message,
line and column is the whole source's. Ingest parses through `parse_model`
and `extract_symbols`, which are not memoised.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass

from .errors import DuplicateDeclaration, ParseError, UnsupportedConstruct

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"
VAR_DOMAINS = (BINARY, INTEGER, CONTINUOUS)

CANONICAL = "canonical"
LINGO_FLAVORED = "lingo_flavored"
DIALECTS = (CANONICAL, LINGO_FLAVORED)


# --- AST -------------------------------------------------------------------

@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Index:
    """Index expression: `name`, `name +/- k`, or a bare integer literal.

    base is None for a pure literal; offset then holds the literal value.
    """

    base: str | None
    offset: int


@dataclass(frozen=True)
class Ref:
    name: str
    indices: tuple[Index, ...] = ()


@dataclass(frozen=True)
class BinOp:
    op: str  # + - * /
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Compare:
    op: str  # <= >= < > =
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Predicate:
    """Conjunction of comparisons (single comparison is the common case)."""

    parts: tuple[Compare, ...]


@dataclass(frozen=True)
class Quantifier:
    index: str
    over: str
    where: Predicate | None = None


@dataclass(frozen=True)
class Sum:
    quantifier: Quantifier
    body: "Expr"


Expr = Num | Ref | BinOp | Sum


def chain(op: str, terms: list[Expr]) -> Expr:
    """Left-deep `terms[0] op terms[1] op ...`, the tree the parser builds for
    a run of one operator."""
    expr = terms[0]
    for term in terms[1:]:
        expr = BinOp(op, expr, term)
    return expr


@dataclass(frozen=True)
class SetDecl:
    name: str
    lo: int | None = None
    hi: int | None = None
    members: tuple[str, ...] | None = None


@dataclass(frozen=True)
class ParamDecl:
    name: str
    index_sets: tuple[str, ...] = ()
    data: float | tuple[float, ...] | None = None


@dataclass(frozen=True)
class VarDecl:
    name: str
    index_sets: tuple[str, ...] = ()
    domain: str = CONTINUOUS
    bounds: tuple[float, float] | None = None


@dataclass(frozen=True)
class Constraint:
    name: str
    quantifier: Quantifier | None
    left: Expr
    op: str  # <= = >=
    right: Expr


@dataclass(frozen=True)
class Objective:
    sense: str  # max | min
    name: str
    expr: Expr


@dataclass(frozen=True)
class ModelAst:
    sets: tuple[SetDecl, ...] = ()
    params: tuple[ParamDecl, ...] = ()
    vars: tuple[VarDecl, ...] = ()
    constraints: tuple[Constraint, ...] = ()
    objective: Objective | None = None


# --- Symbol facts ------------------------------------------------------------

# Declaration kinds, spelled as the knowledge graph's entity kinds.
SET = "index_set"
PARAM = "parameter"
VAR = "decision_variable"
CONSTRAINT = "constraint"
OBJECTIVE = "objective"


@dataclass(frozen=True)
class Declaration:
    name: str
    kind: str  # SET | PARAM | VAR | CONSTRAINT | OBJECTIVE
    arity: int


@dataclass(frozen=True)
class Reference:
    name: str
    arity: int
    site: str  # constraint or objective name


@dataclass(frozen=True)
class SymbolFacts:
    """What a parsed model declares and uses: its declarations (sets, params,
    vars, constraints, objective), its references deduplicated on (name,
    arity, site), and the sets it iterates over as (site, set) pairs: param
    and var index sets first, then each constraint's quantifier and sum sets,
    then the objective's."""

    declarations: tuple[Declaration, ...]
    references: tuple[Reference, ...]
    iterations: tuple[tuple[str, str], ...]


# --- Lexer -------------------------------------------------------------------

KEYWORDS = {
    "set", "param", "var", "con", "max", "min", "sum", "in", "and",
    "binary", "integer", "continuous",
}

# A name, or a keyword, as the lexer reads it.
NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")

# One match per token: the whitespace and comments before a token belong to
# its match, so they never reach the token list. Group 1 is a number, group 2
# a name, keyword or symbol, group 3 any other character (an error), and the
# empty match at the end of the input is the EOF token.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:![^\n]*\s*)*
    (?:
        (\d+(?:\.\d+)?(?:[eE][+-]?\d+)?)
      | (""" + NAME_RE.pattern + r"""|\.\.|<=|>=|[;:,{}\[\]()=+\-*/<>])
      | (.)
      | \Z
    )
    """,
    re.VERBOSE,
)

# Keywords and symbols are their own token kind; other names are IDENT.
_KINDS = {text: text for text in KEYWORDS | {"..", "<=", ">=", *";:,{}[]()=+-*/<>"}}


def _position(source: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of a character offset."""
    return source.count("\n", 0, offset) + 1, offset - source.rfind("\n", 0, offset)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) tokens, ending with ("EOF", "", len(source)).

    kind is the keyword or symbol text itself, or NUMBER / IDENT / EOF.
    """
    tokens = []
    append = tokens.append
    for m in _TOKEN_RE.finditer(source):
        group = m.lastindex
        if group == 2:
            text = m[2]
            append((_KINDS.get(text, "IDENT"), text, m.start(2)))
        elif group == 1:
            append(("NUMBER", m[1], m.start(1)))
        elif group is None:
            append(("EOF", "", m.end()))
            break
        else:
            raise ParseError(f"unexpected character {m[3]!r}", *_position(source, m.start(3)))
    return tokens


# --- Parser ------------------------------------------------------------------

class _Parser:
    """Recursive descent over the token list; self.pos indexes the next token.

    Positions are worked out from a token's offset only when an error is raised.
    """

    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0
        self.declared: set[str] = set()

    def error(self, message: str, offset: int, expected=()) -> ParseError:
        return ParseError(message, *_position(self.source, offset), expected=expected)

    def unexpected(self, expected) -> ParseError:
        kind, text, offset = self.tokens[self.pos]
        message = f"unexpected token {text!r}" if kind != "EOF" else "unexpected end of input"
        return self.error(message, offset, expected)

    def accept(self, kind: str) -> bool:
        if self.tokens[self.pos][0] == kind:
            self.pos += 1
            return True
        return False

    def expect(self, *kinds: str) -> tuple[str, str, int]:
        tok = self.tokens[self.pos]
        if tok[0] not in kinds:
            raise self.unexpected(kinds)
        self.pos += 1
        return tok

    def declare(self) -> str:
        name, offset = self.expect("IDENT")[1:]
        if name in self.declared:
            raise DuplicateDeclaration(name, _position(self.source, offset)[0])
        self.declared.add(name)
        return name

    def integer(self, message: str) -> int:
        """An integer NUMBER token; `message` is the error for any other one."""
        text, offset = self.expect("NUMBER")[1:]
        if not text.isdigit():
            raise self.error(message, offset)
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            raise self.error("integer literal too long", offset) from None

    def number(self, text: str, offset: int) -> float:
        value = float(text)
        if math.isinf(value):
            raise self.error("number out of range", offset)
        return value

    # statements

    def parse_model(self) -> ModelAst:
        sets: list[SetDecl] = []
        params: list[ParamDecl] = []
        var_decls: list[VarDecl] = []
        constraints: list[Constraint] = []
        objective: Objective | None = None
        while True:
            kind, text, offset = self.tokens[self.pos]
            if kind == "con":
                constraints.append(self.parse_constraint())
            elif kind == "var":
                var_decls.append(self.parse_var())
            elif kind == "param":
                params.append(self.parse_param())
            elif kind == "set":
                sets.append(self.parse_set())
            elif kind in ("max", "min"):
                if objective is not None:
                    raise self.error("multiple objectives", offset)
                objective = self.parse_objective()
            elif kind == "EOF":
                break
            else:
                raise self.error(
                    f"unexpected token {text!r}",
                    offset,
                    expected=("set", "param", "var", "con", "max", "min"),
                )
        return ModelAst(
            sets=tuple(sets),
            params=tuple(params),
            vars=tuple(var_decls),
            constraints=tuple(constraints),
            objective=objective,
        )

    def parse_names(self) -> tuple[str, ...]:
        """`IDENT, ... }` after an opening brace."""
        names = [self.expect("IDENT")[1]]
        while self.accept(","):
            names.append(self.expect("IDENT")[1])
        self.expect("}")
        return tuple(names)

    def parse_set(self) -> SetDecl:
        self.pos += 1  # set
        name = self.declare()
        self.expect("=")
        if self.accept("{"):
            members = self.parse_names()
            self.expect(";")
            return SetDecl(name, members=members)
        lo = self.integer("set range bounds must be integers")
        self.expect("..")
        hi = self.integer("set range bounds must be integers")
        self.expect(";")
        return SetDecl(name, lo=lo, hi=hi)

    def parse_index_sets(self) -> tuple[str, ...]:
        return self.parse_names() if self.accept("{") else ()

    def parse_signed_number(self) -> float:
        kind, text, offset = self.tokens[self.pos]
        negative = kind == "-"
        if negative:
            self.pos += 1
            kind, text, offset = self.tokens[self.pos]
        if kind != "NUMBER":
            raise self.unexpected(("NUMBER",))
        self.pos += 1
        value = self.number(text, offset)
        return -value if negative else value

    def parse_param(self) -> ParamDecl:
        self.pos += 1  # param
        name = self.declare()
        index_sets = self.parse_index_sets()
        data: float | tuple[float, ...] | None = None
        if self.accept("="):
            if self.accept("["):
                values = [self.parse_signed_number()]
                while self.accept(","):
                    values.append(self.parse_signed_number())
                self.expect("]")
                data = tuple(values)
            else:
                data = self.parse_signed_number()
        self.expect(";")
        return ParamDecl(name, index_sets=index_sets, data=data)

    def parse_var(self) -> VarDecl:
        self.pos += 1  # var
        name = self.declare()
        index_sets = self.parse_index_sets()
        domain = self.expect(*VAR_DOMAINS)[0]
        bounds = None
        if self.accept("in"):
            self.expect("[")
            lo = self.parse_signed_number()
            self.expect(",")
            hi = self.parse_signed_number()
            self.expect("]")
            bounds = (lo, hi)
        self.expect(";")
        return VarDecl(name, index_sets=index_sets, domain=domain, bounds=bounds)

    def parse_quantifier(self) -> Quantifier:
        self.expect("{")
        index = self.expect("IDENT")[1]
        self.expect("in")
        over = self.expect("IDENT")[1]
        where = self.parse_predicate() if self.accept(":") else None
        self.expect("}")
        return Quantifier(index=index, over=over, where=where)

    def parse_predicate(self) -> Predicate:
        parts = [self.parse_comparison()]
        while self.accept("and"):
            parts.append(self.parse_comparison())
        return Predicate(parts=tuple(parts))

    def parse_comparison(self) -> Compare:
        left = self.parse_expr()
        op = self.expect("<=", ">=", "<", ">", "=")[0]
        return Compare(op=op, left=left, right=self.parse_expr())

    def parse_constraint(self) -> Constraint:
        self.pos += 1  # con
        name = self.declare()
        quantifier = self.parse_quantifier() if self.tokens[self.pos][0] == "{" else None
        self.expect(":")
        left = self.parse_expr()
        op = self.expect("<=", "=", ">=")[0]
        right = self.parse_expr()
        self.expect(";")
        return Constraint(name=name, quantifier=quantifier, left=left, op=op, right=right)

    def parse_objective(self) -> Objective:
        sense = self.tokens[self.pos][0]
        self.pos += 1
        name = self.declare()
        self.expect(":")
        expr = self.parse_expr()
        self.expect(";")
        return Objective(sense=sense, name=name, expr=expr)

    # expressions

    def parse_expr(self) -> Expr:
        left = self.parse_term()
        tokens = self.tokens
        while (op := tokens[self.pos][0]) == "+" or op == "-":
            self.pos += 1
            left = BinOp(op, left, self.parse_term())
        return left

    def parse_term(self) -> Expr:
        left = self.parse_primary()
        tokens = self.tokens
        while (op := tokens[self.pos][0]) == "*" or op == "/":
            self.pos += 1
            left = BinOp(op, left, self.parse_primary())
        return left

    def parse_primary(self) -> Expr:
        kind, text, offset = self.tokens[self.pos]
        if kind == "IDENT":
            self.pos += 1
            if self.tokens[self.pos][0] != "[":
                return Ref(text)
            self.pos += 1
            indices = [self.parse_index()]
            while self.accept(","):
                indices.append(self.parse_index())
            self.expect("]")
            return Ref(text, tuple(indices))
        if kind == "NUMBER":
            self.pos += 1
            return Num(self.number(text, offset))
        if kind == "-" and self.tokens[self.pos + 1][0] == "NUMBER":
            return Num(self.parse_signed_number())
        if kind == "(":
            self.pos += 1
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if kind == "sum":
            self.pos += 1
            quantifier = self.parse_quantifier()
            return Sum(quantifier=quantifier, body=self.parse_primary())
        raise self.unexpected(("NUMBER", "IDENT", "sum", "("))

    def parse_index(self) -> Index:
        kind, text, offset = self.tokens[self.pos]
        if kind == "IDENT":
            self.pos += 1
            sign = self.tokens[self.pos][0]
            if sign != "+" and sign != "-":
                return Index(text, 0)
            self.pos += 1
            value = self.integer("index offsets must be integer literals")
            return Index(text, value if sign == "+" else -value)
        if kind == "NUMBER":
            return Index(None, self.integer("index literals must be integers"))
        raise self.error(f"unexpected token {text!r} in index", offset, ("NUMBER", "IDENT"))


def parse_model(source: str) -> ModelAst:
    """Parse MiniModel source text into an AST.

    Raises ParseError or DuplicateDeclaration, also for a number too large
    for a float, an integer literal longer than int() converts, and nesting
    deeper than the interpreter's stack allows.
    """
    parser = _Parser(source)
    try:
        return parser.parse_model()
    except RecursionError:
        offset = parser.tokens[parser.pos][2]
        raise parser.error("expression nested too deeply", offset) from None


# --- Symbol extraction ---------------------------------------------------------

def _sides(where: Predicate | None) -> list[Expr]:
    """Both sides of every comparison in a filter, in source order."""
    if where is None:
        return []
    return [side for cmp in where.parts for side in (cmp.left, cmp.right)]


def _statement_uses(
    quantifier: Quantifier | None, exprs: list[Expr]
) -> tuple[list[tuple[str, int]], list[str]]:
    """What one statement uses: (name, arity) for every free symbol, and the
    names of the sets it iterates over, each in source order.

    Names bound by enclosing quantifiers/sums are local and skipped; a bound
    name used inside an index expression is likewise not a symbol reference.
    A quantifier's or sum's set is an iteration, not a reference; that holds
    for a sum inside a filter too. The walk keeps its own stack, so a long
    chain of `+` or `*` cannot exhaust the interpreter's.
    """
    refs: list[tuple[str, int]] = []
    sets: list[str] = []
    bound: frozenset[str] = frozenset()
    if quantifier is not None:
        bound = frozenset({quantifier.index})
        sets.append(quantifier.over)
        exprs = _sides(quantifier.where) + list(exprs)
    stack = [(expr, bound) for expr in reversed(exprs)]
    while stack:
        expr, bound = stack.pop()
        if isinstance(expr, Ref):
            if expr.name not in bound:
                refs.append((expr.name, len(expr.indices)))
            for index in expr.indices:
                if index.base is not None and index.base not in bound:
                    refs.append((index.base, 0))
        elif isinstance(expr, BinOp):
            stack += ((expr.right, bound), (expr.left, bound))
        elif isinstance(expr, Sum):
            sets.append(expr.quantifier.over)
            inner = bound | {expr.quantifier.index}
            stack.append((expr.body, inner))
            stack += ((side, inner) for side in reversed(_sides(expr.quantifier.where)))
        elif not isinstance(expr, Num):
            raise TypeError(f"unknown expression node {type(expr).__name__}")
    return refs, sets


def extract_symbols(ast: ModelAst) -> SymbolFacts:
    """Read declarations, references and iterations out of a parsed model."""
    declarations = [Declaration(decl.name, SET, 0) for decl in ast.sets]
    declarations += (Declaration(decl.name, PARAM, len(decl.index_sets)) for decl in ast.params)
    declarations += (Declaration(decl.name, VAR, len(decl.index_sets)) for decl in ast.vars)
    declarations += (Declaration(con.name, CONSTRAINT, 0) for con in ast.constraints)
    iterations = [(decl.name, set_name) for decl in ast.params + ast.vars for set_name in decl.index_sets]
    statements = [(con.name, con.quantifier, [con.left, con.right]) for con in ast.constraints]
    if ast.objective is not None:
        obj = ast.objective
        declarations.append(Declaration(obj.name, OBJECTIVE, 0))
        statements.append((obj.name, None, [obj.expr]))

    references: list[Reference] = []
    seen: set[tuple[str, int, str]] = set()
    for site, quantifier, exprs in statements:
        refs, sets = _statement_uses(quantifier, exprs)
        for name, arity in refs:
            key = (name, arity, site)
            if key not in seen:
                seen.add(key)
                references.append(Reference(name=name, arity=arity, site=site))
        iterations += ((site, set_name) for set_name in sets)
    return SymbolFacts(tuple(declarations), tuple(references), tuple(iterations))


@functools.lru_cache(maxsize=8192)
def _line_facts(line: str) -> SymbolFacts:
    """extract_symbols of one source line, memoised by the line's exact text.

    Holds at most 8,192 lines, the least recently used leaving first; the
    whole model of the benchmark's FJSP instance has 1,094. An error
    propagates and is not memoised.
    """
    return extract_symbols(parse_model(line))


def symbol_facts_by_line(source: str) -> SymbolFacts | None:
    """extract_symbols(parse_model(source)) up to order, assembled from
    memoised lines.

    Tokens never span a line, so when every line parses on its own the whole
    source parses to the same statements. Returns None where only a
    whole-source parse can tell: a line that does not parse on its own (a
    statement split over lines, or an error), a name declared on two lines,
    or a second objective.
    """
    declared: set[str] = set()
    declarations: list[Declaration] = []
    references: list[Reference] = []
    iterations: list[tuple[str, str]] = []
    objectives = 0
    for line in source.split("\n"):
        try:
            facts = _line_facts(line)
        except (ParseError, DuplicateDeclaration):
            return None
        for decl in facts.declarations:
            if decl.name in declared:
                return None
            declared.add(decl.name)
            objectives += decl.kind == OBJECTIVE
        if objectives > 1:
            return None
        declarations += facts.declarations
        references += facts.references
        iterations += facts.iterations
    return SymbolFacts(tuple(declarations), tuple(references), tuple(iterations))


# --- Emission -----------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2}

_LINGO_CMP = {"<=": "#le#", ">=": "#ge#", "<": "#lt#", ">": "#gt#", "=": "#eq#"}


def format_number(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def _fmt_index(index: Index) -> str:
    if index.base is None:
        return str(index.offset)
    if index.offset == 0:
        return index.base
    if index.offset > 0:
        return f"{index.base}+{index.offset}"
    return f"{index.base}-{-index.offset}"


def _emit_expr(expr: Expr, dialect: str, parent_prec: int = 0, right_side: bool = False) -> str:
    if isinstance(expr, Num):
        return format_number(expr.value)
    if isinstance(expr, Ref):
        if not expr.indices:
            return expr.name
        inner = ",".join(_fmt_index(i) for i in expr.indices)
        if dialect == LINGO_FLAVORED:
            return f"{expr.name}({inner})"
        return f"{expr.name}[{inner}]"
    if isinstance(expr, BinOp):
        # A long sum or product is a left-deep chain: walk its left spine in a
        # loop, so only right operands cost a stack frame.
        spine = []
        while isinstance(expr, BinOp):
            spine.append(expr)
            expr = expr.left
        text = _emit_expr(expr, dialect)
        prec = None
        for node in reversed(spine):
            # `text` is this operator's left operand; it needs parentheses
            # when it binds more loosely.
            child_prec, prec = prec, _PRECEDENCE[node.op]
            if child_prec is not None and child_prec < prec:
                text = f"({text})"
            joiner = node.op if node.op in ("*", "/") else f" {node.op} "
            text = f"{text}{joiner}{_emit_expr(node.right, dialect, prec, True)}"
        # Parsing is left-associative, so a right child at equal precedence
        # must keep its parentheses for the round trip to be structural.
        if prec < parent_prec or (right_side and prec == parent_prec):
            text = f"({text})"
        return text
    if isinstance(expr, Sum):
        if dialect == LINGO_FLAVORED:
            header = _lingo_quantifier(expr.quantifier)
            body = _emit_expr(expr.body, dialect)
            return f"@sum({header}: {body})"
        header = _canonical_quantifier(expr.quantifier)
        body = _emit_expr(expr.body, dialect)
        return f"sum{header}({body})"
    raise UnsupportedConstruct(f"no rendering for {type(expr).__name__}")


def _canonical_predicate(pred: Predicate) -> str:
    parts = [
        f"{_emit_expr(c.left, CANONICAL)} {c.op} {_emit_expr(c.right, CANONICAL)}"
        for c in pred.parts
    ]
    return " and ".join(parts)


def _canonical_quantifier(q: Quantifier) -> str:
    text = f"{{{q.index} in {q.over}"
    if q.where is not None:
        text += f" : {_canonical_predicate(q.where)}"
    return text + "}"


def _lingo_quantifier(q: Quantifier) -> str:
    text = f"{q.over}({q.index})"
    if q.where is not None:
        comparisons = [
            f"{_emit_expr(c.left, LINGO_FLAVORED)}{_LINGO_CMP[c.op]}{_emit_expr(c.right, LINGO_FLAVORED)}"
            for c in q.where.parts
        ]
        if len(comparisons) == 1:
            text += f"|{comparisons[0]}"
        else:
            text += "|" + "#and#".join(f"({c})" for c in comparisons)
    return text


def _emit_data(data: float | tuple[float, ...]) -> str:
    if isinstance(data, tuple):
        return "[" + ", ".join(format_number(v) for v in data) + "]"
    return format_number(data)


def emit_set(decl: SetDecl) -> str:
    if decl.members is not None:
        return f"set {decl.name} = {{{', '.join(decl.members)}}};"
    return f"set {decl.name} = {decl.lo}..{decl.hi};"


def emit_param(decl: ParamDecl) -> str:
    text = f"param {decl.name}"
    if decl.index_sets:
        text += "{" + ", ".join(decl.index_sets) + "}"
    if decl.data is not None:
        text += f" = {_emit_data(decl.data)}"
    return text + ";"


def emit_var(decl: VarDecl) -> str:
    text = f"var {decl.name}"
    if decl.index_sets:
        text += "{" + ", ".join(decl.index_sets) + "}"
    text += f" {decl.domain}"
    if decl.bounds is not None:
        text += f" in [{format_number(decl.bounds[0])}, {format_number(decl.bounds[1])}]"
    return text + ";"


def emit_constraint(con: Constraint) -> str:
    text = f"con {con.name}"
    if con.quantifier is not None:
        text += _canonical_quantifier(con.quantifier)
    left = _emit_expr(con.left, CANONICAL)
    right = _emit_expr(con.right, CANONICAL)
    return f"{text}: {left} {con.op} {right};"


def emit_objective(obj: Objective) -> str:
    return f"{obj.sense} {obj.name}: {_emit_expr(obj.expr, CANONICAL)};"


def _emit_canonical(ast: ModelAst) -> str:
    lines: list[str] = []
    lines.extend(emit_set(d) for d in ast.sets)
    lines.extend(emit_param(d) for d in ast.params)
    lines.extend(emit_var(d) for d in ast.vars)
    lines.extend(emit_constraint(c) for c in ast.constraints)
    if ast.objective is not None:
        lines.append(emit_objective(ast.objective))
    return "\n".join(lines) + ("\n" if lines else "")


def _lingo_constraint(con: Constraint) -> str:
    left = _emit_expr(con.left, LINGO_FLAVORED)
    right = _emit_expr(con.right, LINGO_FLAVORED)
    body = f"{left} {con.op} {right}"
    if con.quantifier is not None:
        return f"@for({_lingo_quantifier(con.quantifier)}: {body});"
    return f"{body};"


def _lingo_domain_marker(decl: VarDecl) -> list[str]:
    # Iterates over the leading index set only; nested derived-set iteration
    # is not reproduced in the flavored dialect.
    ref = f"{decl.name}(t)" if decl.index_sets else decl.name
    statements = []
    marker = {BINARY: "@bin", INTEGER: "@gin"}.get(decl.domain)
    if marker is not None:
        statements.append(f"{marker}({ref})")
    if decl.bounds is not None and decl.domain != BINARY:
        lo, hi = map(format_number, decl.bounds)
        statements.append(f"@bnd({lo}, {ref}, {hi})")
    if decl.index_sets:
        return [f"@for({decl.index_sets[0]}(t): {statement});" for statement in statements]
    return [f"{statement};" for statement in statements]


def _emit_lingo(ast: ModelAst) -> str:
    lines: list[str] = []
    if ast.sets:
        lines.append("sets:")
        for decl in ast.sets:
            if decl.members is not None:
                lines.append(f"{decl.name} /{' '.join(decl.members)}/;")
            else:
                lines.append(f"{decl.name} /{decl.lo}..{decl.hi}/;")
        lines.append("endsets")
    with_data = [d for d in ast.params if d.data is not None]
    without_data = [d for d in ast.params if d.data is None]
    if with_data:
        lines.append("data:")
        for decl in with_data:
            if isinstance(decl.data, tuple):
                lines.append(f"{decl.name} = {' '.join(format_number(v) for v in decl.data)};")
            else:
                lines.append(f"{decl.name} = {format_number(decl.data)};")
        lines.append("enddata")
    for decl in without_data:
        sets = "(" + ", ".join(decl.index_sets) + ")" if decl.index_sets else ""
        lines.append(f"! parameter {decl.name}{sets} supplied externally;")
    for decl in ast.vars:
        lines.extend(_lingo_domain_marker(decl))
    for con in ast.constraints:
        lines.append(_lingo_constraint(con))
    if ast.objective is not None:
        lines.append(
            f"{ast.objective.sense} = {_emit_expr(ast.objective.expr, LINGO_FLAVORED)};"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def emit_model(ast: ModelAst, dialect: str = CANONICAL) -> str:
    """Emit a model as text; the canonical dialect round-trips through parse_model."""
    if dialect == CANONICAL:
        return _emit_canonical(ast)
    if dialect == LINGO_FLAVORED:
        return _emit_lingo(ast)
    raise ValueError(f"unknown dialect {dialect!r}")
