"""Context packaging, code generation, static validation, corrective re-retrieval.

The context package lists typed entities dependencies-first, a run of
neighbours with one `kind : domain : {sets}` signature on one
`n1, n2 : kind : domain : {sets}` line (`typed_lines`), writes the induced
dependency subgraph one `src, src -kind-> dst, dst` line per edge kind and
target list (ContextPackage), and appends background snippets plus the
instruction. Both texts are written once, when the package is built. It
reads what the graph keeps: each member's executability targets and their
`-kind-> dst, dst` tails, and the graph-wide dependency rank, which orders
every package, closed or open (`dependency_order`). The first package after
a change to the graph pays for rebuilding them (the rank visits every
entity); later packages cost only their members. Each entity's text (its
typed signature, and its template statement) is made once and kept on the
entity. The default generator is a deterministic template that declares
every set/param/var in the package and renders stored constraint/objective
statements; an external generator is a wire contract (the rendered package
is the request body, code text the response) exercised through mocks or
the CLOSUREKB_GENERATOR_ENDPOINT setting.

Validation is static symbol checking: every referenced name must be declared
in the code itself or, when a graph is supplied (fragment mode), exist there
with a compatible kind and arity. The pipeline validates generated models
self-contained, because the solver only ever sees the code.

`run_pipeline` is the one path from a query to validated code: CLI `generate`
and `query`, the ablation in both modes and `repair_loop` (its tuple form).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import knowledge_graph as kg
from . import model_dsl
from .closure import is_well_defined
from .errors import DuplicateDeclaration, GeneratorUnavailable, MissingExpression, NotClosed, ParseError
from .knowledge_graph import Entity, KnowledgeGraph
from .retrieval import (
    DEFAULT_SNIPPET_K,
    ParsedQuery,
    RetrievalResult,
    fuse,
    select_seeds,
    semantic_search,
    structural_retrieve,
    understand_query,
)

DEFAULT_MAX_ROUNDS = 3
# Largest generator response accepted, in bytes: above the 14.6 MB source of
# the largest FJSP model built here (60 jobs, 20 machines, 5x5 operations).
MAX_RESPONSE_BYTES = 16 * 1024 * 1024


# --- Context package ---------------------------------------------------------

@dataclass(frozen=True)
class ContextPackage:
    """A context package. `typed_entities` are the members, dependencies
    first; `typed_description` is their TYPED ENTITIES text (`typed_lines`)
    and `subgraph_description` their DEPENDENCY SUBGRAPH text: one
    `s1, s2 -kind-> d1, d2` line per kind and target list, which each of its
    sources has, read back by splitting at "-> ", the last " -" and ", ";
    sources sorted, lines by first source, then kind. Both are written once
    when the package is built, so `render` only joins sections."""

    instruction: str
    typed_entities: tuple[Entity, ...]  # dependencies first
    typed_description: str
    subgraph_description: str
    snippets: tuple[tuple[str, float, str], ...]

    def render(self) -> str:
        lines = ["TYPED ENTITIES"]
        if self.typed_description:
            lines.append(self.typed_description)
        lines.append("")
        lines.append("DEPENDENCY SUBGRAPH")
        lines.append(self.subgraph_description if self.subgraph_description else "(none)")
        lines.append("")
        lines.append("BACKGROUND SNIPPETS")
        if self.snippets:
            for doc_id, score, text in self.snippets:
                lines.append(f"- [{doc_id}] ({score:.4f}) {text}")
        else:
            lines.append("(none)")
        lines.append("")
        lines.append("INSTRUCTION")
        lines.append(self.instruction)
        return "\n".join(lines) + "\n"


def dependency_order(graph: KnowledgeGraph, members) -> list[str]:
    """Members dependencies-first: the graph's dependency rank
    (KnowledgeGraph.rank, a dict in rank order) seen on the set, by
    knowledge_graph.in_kept_order. UnknownEntity for the smallest member not
    in the graph. perfbench's tracer times it by this name."""
    member_set = frozenset(members)
    rank = graph.rank()
    if not rank.keys() >= member_set:
        graph.entity(min(member_set - rank.keys()))  # raises UnknownEntity
    return kg.in_kept_order(member_set, rank, rank.__getitem__)


# The domain label by kind, for a parameter and for an entity with no declaration.
_KIND_DOMAIN = {kg.DECISION_VARIABLE: model_dsl.CONTINUOUS, kg.PARAMETER: "numeric"}


def _domain_label(kind: str, decl) -> str:
    if isinstance(decl, model_dsl.VarDecl):
        label = decl.domain
        if decl.bounds is not None:
            lo, hi = map(model_dsl.format_number, decl.bounds)
            label += f" in [{lo}, {hi}]"
        return label
    if isinstance(decl, model_dsl.SetDecl):
        if decl.members:
            return "{" + ", ".join(decl.members) + "}"
        return f"{decl.lo}..{decl.hi}"
    return _KIND_DOMAIN.get(kind, "-")


def typed_signature(entity: Entity) -> tuple[str, str | None]:
    """The entity's `kind : domain : {index sets}` text, and the solver symbol
    its TYPED ENTITIES line ends with: None when the entity can join a run,
    since its symbol is its name and that name is a MiniModel name. Made
    once and kept on the entity."""
    typed = entity._typed
    if typed is None:
        decl = kg.declaration(entity)
        sets = ", ".join(getattr(decl, "index_sets", ()))
        symbol = entity.fields.get("solver_symbol") or entity.fields.get("solver_symbol_hint") or "-"
        if symbol == entity.name and model_dsl.NAME_RE.fullmatch(symbol):
            symbol = None
        typed = entity._typed = (f"{entity.kind} : {_domain_label(entity.kind, decl)} : {{{sets}}}", symbol)
    return typed


def typed_lines(entities) -> str:
    """The TYPED ENTITIES text of `entities`, in their order. Neighbours that
    can join a run (typed_signature) and share a signature make one
    `n1, n2 : kind : domain : {sets}` line; every other entity makes one
    `name : kind : domain : {sets} : symbol` line. "" for no entity."""
    lines: list[str] = []
    names: list[str] = []  # the run being written
    run = None  # its signature
    for entity in entities:
        # The kept pair read in place: a call per member would double the cost.
        signature, symbol = entity._typed or typed_signature(entity)
        if symbol is None and signature == run:
            names.append(entity.name)
            continue
        if names:
            lines.append(f"{', '.join(names)} : {run}")
        if symbol is None:
            names, run = [entity.name], signature
        else:
            names, run = [], None
            lines.append(f"{entity.name} : {signature} : {symbol}")
    if names:
        lines.append(f"{', '.join(names)} : {run}")
    return "\n".join(lines)


def build_context_from_members(
    graph: KnowledgeGraph,
    members,
    snippets,
    instruction: str,
    check_closed: bool = True,
) -> ContextPackage:
    """The context package of `members`. UnknownEntity for a member not in
    the graph.

    One walk over the members in sorted-id order (KnowledgeGraph.in_id_order)
    reads each one's executability targets and `-kind-> dst, dst` tails
    (KnowledgeGraph.exec_out); a member not in the graph has neither, so the
    walk sees the same lines whether that order keeps it or not. When
    `check_closed` is set, the first member whose targets escape the set
    raises NotClosed with the escaping (src, dst) pairs that
    `closure.is_well_defined` reports, before any ordering and before
    UnknownEntity; a closed set never runs that check. Only an open set,
    which window mode (run_pipeline's one open-package call) builds, has a
    member with a target outside it; its tails are made again by
    `knowledge_graph.arrow_tails` from its executability edges to members.
    The walk groups the members by tail, in one dict, into subgraph lines;
    the typed text is `typed_lines` of the `dependency_order`."""
    member_set = frozenset(members)
    exec_out = graph.exec_out
    sources: dict[str, list[str]] = {}  # tail -> its sources: one line each
    for src in graph.in_id_order(member_set):
        targets, tails = exec_out(src)
        if not member_set.issuperset(targets):
            if check_closed:
                raise NotClosed(is_well_defined(graph, member_set)[1])
            tails = kg.arrow_tails(
                e for e in graph.edges_from(src) if e.kind in kg.EXEC_KINDS and e.dst in member_set
            )
        for tail in tails:
            sources.setdefault(tail, []).append(src)
    typed = tuple(map(graph.entities.__getitem__, dependency_order(graph, member_set)))
    return ContextPackage(
        instruction=instruction,
        typed_entities=typed,
        typed_description=typed_lines(typed),
        subgraph_description="\n".join(f"{', '.join(srcs)} {tail}" for tail, srcs in sources.items()),
        snippets=tuple(snippets),
    )


def build_context(graph: KnowledgeGraph, retrieval: RetrievalResult, instruction: str) -> ContextPackage:
    """Assemble the dependency-closed context package for a retrieval result."""
    return build_context_from_members(
        graph, retrieval.structural, retrieval.snippets, instruction, check_closed=True
    )


# --- Generators ------------------------------------------------------------------

def _template_statement(entity: Entity) -> str:
    """The set, param or var statement an entity declares, "" for none,
    made once and kept on the entity. Paper entities declare nothing: they
    realize through their aligned code entities."""
    statement = entity._statement
    if statement is None:
        decl = kg.declaration(entity)
        if isinstance(decl, model_dsl.SetDecl):
            statement = model_dsl.emit_set(decl)
        elif isinstance(decl, model_dsl.ParamDecl):
            statement = model_dsl.emit_param(decl)
        elif decl is not None:
            statement = model_dsl.emit_var(decl)
        else:
            statement = ""
        entity._statement = statement
    return statement


class TemplateGenerator:
    """Deterministic generator: declarations in dependency order, then stored
    constraint statements, then one stored objective statement.

    Raises MissingExpression when a constraint or objective entity in the
    package has no stored expression (paper-only knowledge has nothing
    executable to render). When several objectives are present only the
    smallest-id one is rendered, since a model admits a single objective.
    """

    def __call__(self, package: ContextPackage) -> str:
        declarations: list[str] = []
        constraints: list[str] = []
        objectives: list[tuple[str, str]] = []
        for entity in package.typed_entities:
            if entity.kind in (kg.CONSTRAINT, kg.OBJECTIVE):
                expression = entity.fields.get("expression")
                if not expression:
                    raise MissingExpression(entity.id)
                if entity.kind == kg.CONSTRAINT:
                    constraints.append(expression)
                else:
                    objectives.append((entity.id, expression))
                continue
            statement = _template_statement(entity)
            if statement:
                declarations.append(statement)
        lines = declarations + constraints
        if objectives:
            objectives.sort()
            lines.append(objectives[0][1])
        return "\n".join(lines) + ("\n" if lines else "")


class ExternalEndpointGenerator:
    """Client for the external generator exchange: request body is the rendered
    package (UTF-8), response body is code text. http(s) endpoints are POSTed;
    any other endpoint string is run as a local process with the package on
    stdin. Non-success, timeout, a response over MAX_RESPONSE_BYTES or one
    that is not UTF-8 raises GeneratorUnavailable."""

    def __init__(self, endpoint: str, timeout: float = 30.0):
        self.endpoint = endpoint
        self.timeout = timeout

    def __call__(self, package: ContextPackage) -> str:
        # Imported here: only this generator needs them (ssl alone costs
        # several MB and milliseconds in every process that imports codegen).
        import http.client
        import subprocess
        import urllib.error
        import urllib.request

        body = package.render().encode("utf-8")
        if self.endpoint.startswith("http://") or self.endpoint.startswith("https://"):
            request = urllib.request.Request(
                self.endpoint, data=body, headers={"Content-Type": "text/plain; charset=utf-8"}
            )
            try:
                with urllib.request.urlopen(request, timeout=self.timeout) as response:
                    if not 200 <= response.status < 300:
                        raise GeneratorUnavailable(
                            f"endpoint returned status {response.status}"
                        )
                    return _decode_response(response.read(MAX_RESPONSE_BYTES + 1))
            except (urllib.error.URLError, http.client.HTTPException, OSError) as exc:
                raise GeneratorUnavailable(f"endpoint unreachable: {exc}") from exc
        try:
            proc = subprocess.run(
                [self.endpoint],
                input=body,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                timeout=self.timeout,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise GeneratorUnavailable(f"generator process failed: {exc}") from exc
        if proc.returncode != 0:
            raise GeneratorUnavailable(
                f"generator process exited with status {proc.returncode}"
            )
        return _decode_response(proc.stdout)


def _decode_response(raw: bytes) -> str:
    if len(raw) > MAX_RESPONSE_BYTES:
        raise GeneratorUnavailable(f"generator response exceeds {MAX_RESPONSE_BYTES} bytes")
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GeneratorUnavailable(f"generator response is not UTF-8: {exc}") from None


def generate(package: ContextPackage, generator) -> str:
    """Run a generator over the package; external output is returned verbatim."""
    return generator(package)


# --- Validation ------------------------------------------------------------------

VALUE_EXPECTATION = "variable_or_parameter"

@dataclass(frozen=True)
class ValidationReport:
    """The verdict on generated code. "ok" means a usable model: at least one
    statement and every reference resolved. Code with no statement (empty or
    comments only) fails with parse_error "model has no statement"."""

    status: str  # ok | failed | unresolved (the query named no entity)
    missing_declarations: tuple[str, ...] = ()
    kind_mismatches: tuple[tuple[str, str, str], ...] = ()
    arity_mismatches: tuple[tuple[str, int, int], ...] = ()
    parse_error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "missing_declarations": list(self.missing_declarations),
            "kind_mismatches": [list(t) for t in self.kind_mismatches],
            "arity_mismatches": [list(t) for t in self.arity_mismatches],
            "parse_error": self.parse_error,
        }


def _graph_resolution(graph: KnowledgeGraph | None, name: str) -> tuple[str, int] | None:
    """(kind, arity) of the best graph match for an identifier, if any."""
    found = graph.find_by_name(name) if graph is not None else ()
    if not found:
        return None
    return found[0].kind, len(getattr(kg.declaration(found[0]), "index_sets", ()))


def validate(code: str, graph: KnowledgeGraph | None = None) -> ValidationReport:
    """Static symbolic-completeness check of generated code.

    Every referenced symbol must be declared in the code or, when a graph is
    supplied, exist there with a compatible kind: value positions accept
    variables/parameters, iteration positions accept index sets only, and the
    used arity must match the declared arity.

    The code's symbol uses come line by line from a memo keyed by each
    line's exact text and bounded at 8,192 lines, merged by set union
    (`model_dsl.uses_by_line`), so each distinct reference and iterated set
    is checked once however many lines repeat it. The memo holds code facts
    only, so graph resolution runs on every call and no entry goes stale.
    When the lines cannot stand alone (a parse error, a statement over
    several lines, a name declared twice, a second objective), the whole
    source's uses are read once instead (`model_dsl.source_uses`), and a
    parse error is reported exactly as that parse raises it.
    """
    uses = model_dsl.uses_by_line(code)
    if uses is None:
        try:
            uses = model_dsl.source_uses(code)
        except (ParseError, DuplicateDeclaration) as exc:
            return ValidationReport(status="failed", parse_error=str(exc))
    if not uses.declarations:
        return ValidationReport(status="failed", parse_error="model has no statement")

    declared = {decl.name: decl for decl in uses.declarations}
    missing: set[str] = set()
    kind_mismatches: set[tuple[str, str, str]] = set()
    arity_mismatches: set[tuple[str, int, int]] = set()

    def resolve(name: str) -> tuple[str, int] | None:
        decl = declared.get(name)
        if decl is not None:
            return decl.kind, decl.arity
        return _graph_resolution(graph, name)

    # The findings are sets, sorted into the report, so the hash order of
    # the uses does not reach it.
    for name, arity in uses.references:
        resolution = resolve(name)
        if resolution is None:
            missing.add(name)
            continue
        kind_label, declared_arity = resolution
        if kind_label not in (kg.DECISION_VARIABLE, kg.PARAMETER):
            kind_mismatches.add((name, VALUE_EXPECTATION, kind_label))
            continue
        if declared_arity != arity:
            arity_mismatches.add((name, declared_arity, arity))

    for name in uses.iterated:
        resolution = resolve(name)
        if resolution is None:
            missing.add(name)
            continue
        kind_label, _arity = resolution
        if kind_label != kg.INDEX_SET:
            kind_mismatches.add((name, kg.INDEX_SET, kind_label))

    report_ok = not missing and not kind_mismatches and not arity_mismatches
    return ValidationReport(
        status="ok" if report_ok else "failed",
        missing_declarations=tuple(sorted(missing)),
        kind_mismatches=tuple(sorted(kind_mismatches)),
        arity_mismatches=tuple(sorted(arity_mismatches)),
    )


# --- Corrective re-retrieval loop ---------------------------------------------------

def resolve_missing_name(graph: KnowledgeGraph, name: str) -> str | None:
    """Entity id for a missing symbol, by name, solver symbol, or hint."""
    direct = graph.find_by_name(name)
    if direct:
        return direct[0].id
    hinted = graph.names().by_hint.get(name)
    return hinted[0].id if hinted else None


@dataclass(frozen=True)
class PipelineRun:
    """One pipeline run. `retrieval` is the last round's members and snippets
    (for an unresolved query, no members plus the search hits);
    `generation_error` is the last round's MissingExpression text, or None."""

    parsed: ParsedQuery
    seeds: tuple[str, ...]
    retrieval: RetrievalResult
    code: str
    report: ValidationReport
    rounds: int
    generation_error: str | None


def run_pipeline(query: str, graph: KnowledgeGraph, index, generator,
                 max_rounds: int = DEFAULT_MAX_ROUNDS, window_k: int | None = None) -> PipelineRun:
    """retrieve -> build -> generate -> validate, re-retrieving missing symbols.

    On missing declarations, each name is looked up in the graph and its
    closure unioned into the structural set for the next round; the context
    set therefore never shrinks. Stops on an ok report or budget exhaustion
    and returns the last code and report. Generated code is validated
    self-contained (no graph assist): the solver only sees the code.

    The structural set is kept across rounds: round 1 walks the seeds, and a
    later round walks only the found entities not walked before, unioning
    their closure into the kept set. The closure of a union of targets is
    the union of their closures, so the set is the one a walk from the
    seeds and every found entity gives. The fused result and the package
    are rebuilt only when the set grew; otherwise the generator is asked
    again with the same package.

    A query that resolves no seed entity has nothing to build from: it
    returns empty code, an `unresolved` report and zero rounds.

    Member selection is the one stage that varies. `window_k` None is the
    closure above. An integer is the ablation's top-k window: the members
    are the `semantic_search` hits held in the graph, with no seeds (so never
    `unresolved`), in an open package whose snippets are the unfused hits.
    """
    if max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    parsed = understand_query(query, graph)
    if window_k is None:
        snippets = semantic_search(index, query, DEFAULT_SNIPPET_K)
        seeds = tuple(select_seeds(parsed, graph))
        if not seeds:
            unresolved = ValidationReport(status="unresolved")
            return PipelineRun(parsed, seeds, fuse((), snippets), "", unresolved, 0, None)
        structural = structural_retrieve(graph, seeds)
    else:
        snippets = tuple(semantic_search(index, query, window_k))
        seeds = ()
        structural = frozenset(doc_id for doc_id, _score, _text in snippets if doc_id in graph)
    walked = set(seeds)
    extra: set[str] = set()
    fused = package = None
    code = ""
    for rounds in range(1, max_rounds + 1):
        unwalked = extra - walked
        if unwalked:
            walked |= unwalked
            structural |= structural_retrieve(graph, sorted(unwalked))
        if package is None or len(structural) > len(fused.structural):
            if window_k is None:
                fused = fuse(structural, snippets)
                package = build_context(graph, fused, query)
            else:
                fused = RetrievalResult(structural, snippets)
                package = build_context_from_members(graph, structural, snippets, query, check_closed=False)
        try:
            code = generate(package, generator)
        except MissingExpression as exc:
            error = str(exc)
            report = ValidationReport(status="failed", parse_error=f"generation failed: {error}")
            continue
        error = None
        report = validate(code)
        if report.ok:
            break
        for name in report.missing_declarations:
            found = resolve_missing_name(graph, name)
            if found is not None:
                extra.add(found)
    return PipelineRun(parsed, seeds, fused, code, report, rounds, error)


def repair_loop(query, graph, index, generator, max_rounds=DEFAULT_MAX_ROUNDS):
    """run_pipeline as a (code, report, rounds) tuple."""
    run = run_pipeline(query, graph, index, generator, max_rounds)
    return run.code, run.report, run.rounds
