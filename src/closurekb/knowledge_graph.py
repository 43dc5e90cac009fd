"""Typed knowledge graph: entities, executability edges, ingestion, alignment.

Entities carry one of seven kinds; edges carry one of three kinds. All
executability edges (used_in, depends_on) are stored in REQUIREMENT direction:
src requires dst to be well-defined (constraint -> variable, variable ->
index set). Ingestion of parsed models and concept cards normalizes into that
direction so that dependency closure is a plain forward traversal. Each edge
is stored once, in its source's out-set and its target's in-set; `edges`
reads them in (src, dst, kind) order.

Every writer hands its entities and edges to one `KnowledgeGraph.add_all`
call, which checks the whole batch first, so a write that raises leaves the
graph as it was.

The graph keeps what requests read again and again, each built on first read
and dropped by the next add_all: the name lookup, the sorted ids
(sorted_ids), each entity's sorted neighbors per (edge kinds, direction),
its executability targets and edge lines, and the dependency rank (the
position of every entity in one dependencies-first order of the whole
graph). Loading and freezing a graph build none of them. Sorted out-edges
(edges_from) are not kept: they are sorted per call.

`in_kept_order` puts a member set in a kept order (the sorted ids, or the
rank): a large set filters the order, a small one is sorted by position
(`filter_beats_sort`: n log2 n >= N for n members of N).

Persistence is a versioned JSON knowledge-unit document; unknown top-level
keys and unknown kind strings are rejected.
"""

from __future__ import annotations

import heapq
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from . import model_dsl
from .errors import (
    ConflictingEntity,
    DanglingRelation,
    DuplicateDeclaration,
    FrozenGraphError,
    SchemaViolation,
    UnknownEntity,
)
from .model_dsl import Constraint, ModelAst, Objective, ParamDecl, SetDecl, VarDecl

# The five statement kinds are MiniModel's declaration kinds.
DECISION_VARIABLE = model_dsl.VAR
PARAMETER = model_dsl.PARAM
INDEX_SET = model_dsl.SET
CONSTRAINT = model_dsl.CONSTRAINT
OBJECTIVE = model_dsl.OBJECTIVE
AUXILIARY_RULE = "auxiliary_rule"
CONCEPT = "concept"

ENTITY_KINDS = (
    DECISION_VARIABLE,
    PARAMETER,
    INDEX_SET,
    CONSTRAINT,
    OBJECTIVE,
    AUXILIARY_RULE,
    CONCEPT,
)

USED_IN = "used_in"
DEPENDS_ON = "depends_on"
ALIGNS_TO = "aligns_to"
EDGE_KINDS = (USED_IN, DEPENDS_ON, ALIGNS_TO)
EXEC_KINDS = frozenset({USED_IN, DEPENDS_ON})

SOURCE_CODE = "code"
SOURCE_PAPER = "paper"
SOURCES = (SOURCE_CODE, SOURCE_PAPER)

_UNREAD = object()


@dataclass
class Entity:
    id: str
    kind: str
    name: str
    description: str = ""
    fields: dict = field(default_factory=dict)
    source: str = SOURCE_CODE
    # Text derived from fields, made once and kept, since an entity is not
    # mutated once made: what declaration() read, the package's definition
    # line (codegen.formal_definition) and the template's set/param/var
    # statement (codegen._template_statement; "" when it declares nothing).
    _declaration: object = field(default=_UNREAD, init=False, repr=False, compare=False)
    _definition: str | None = field(default=None, init=False, repr=False, compare=False)
    _statement: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in ENTITY_KINDS:
            raise SchemaViolation(f"unknown entity kind {self.kind!r}")
        if self.source not in SOURCES:
            raise SchemaViolation(f"unknown entity source {self.source!r}")


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    kind: str

    def __post_init__(self):
        if self.kind not in EDGE_KINDS:
            raise SchemaViolation(f"unknown edge kind {self.kind!r}")


@dataclass(frozen=True)
class ConceptCard:
    """Structured stand-in for a parsed paper concept."""

    name: str
    kind: str
    description: str = ""
    solver_symbol_hint: str | None = None
    snippet: str = ""
    relations: tuple[tuple[str, str], ...] = ()  # (relation kind, target card name)

    def __post_init__(self):
        if not self.name:
            raise SchemaViolation("concept card name must be nonempty")
        if "," in self.name or "->" in self.name:
            # Either would break the package's `src -kind-> dst, dst` lines.
            raise SchemaViolation(f"concept card name {self.name!r} holds ',' or '->'")
        if self.kind not in ENTITY_KINDS:
            raise SchemaViolation(f"unknown concept card kind {self.kind!r}")
        for rel_kind, _target in self.relations:
            if rel_kind not in (USED_IN, DEPENDS_ON):
                raise SchemaViolation(
                    f"concept card relation kind must be used_in/depends_on, got {rel_kind!r}"
                )


def concept_entity_id(name: str) -> str:
    return f"paper:{name}"


class KnowledgeGraph:
    """In-memory typed graph with deterministic adjacency."""

    def __init__(self):
        self.entities: dict[str, Entity] = {}
        self._out: dict[str, set[Edge]] = {}
        self._in: dict[str, set[Edge]] = {}
        self._exec_out: dict[str, tuple[tuple[str, ...], str]] = {}
        self._neighbors: dict[tuple[str, frozenset, str], tuple[str, ...]] = {}
        self._ids: tuple[str, ...] | None = None
        self._names: NameLookup | None = None
        self._rank: dict[str, int] | None = None
        self.frozen = False

    # -- mutation ------------------------------------------------------------

    def _check_writable(self):
        if self.frozen:
            raise FrozenGraphError("graph is frozen")

    def add_all(self, entities=(), edges=()) -> None:
        """Insert a batch of entities and Edges; every check runs before the
        graph is touched. An entity equal to one held or earlier in the batch
        is shared, and a different one under its id raises ConflictingEntity.
        Each edge's endpoints must be held or in the batch (UnknownEntity),
        and an edge may not loop (SchemaViolation)."""
        self._check_writable()
        edges = tuple(edges)
        new: dict[str, Entity] = {}
        for entity in entities:
            held = self.entities.get(entity.id, new.get(entity.id))
            if held is None:
                new[entity.id] = entity
            elif held != entity:
                if held.fields.get("inferred"):
                    reason = "is referenced before its declaration; ingest the input that declares it first"
                elif held.kind != entity.kind:
                    reason = f"is already ingested as {held.kind}, got {entity.kind}"
                else:
                    reason = f"is already ingested as {held.kind} with different fields"
                raise ConflictingEntity(entity.id, reason)
        for edge in edges:
            if edge.src not in self.entities and edge.src not in new:
                raise UnknownEntity(f"edge source {edge.src!r} not in graph")
            if edge.dst not in self.entities and edge.dst not in new:
                raise UnknownEntity(f"edge target {edge.dst!r} not in graph")
            if edge.src == edge.dst:
                raise SchemaViolation(f"self-loop on {edge.src!r} rejected")
        for entity_id, entity in new.items():
            self.entities[entity_id] = entity
            self._out[entity_id] = set()
            self._in[entity_id] = set()
        for edge in edges:
            self._out[edge.src].add(edge)
            self._in[edge.dst].add(edge)
        self._exec_out.clear()
        self._neighbors.clear()
        self._ids = self._names = self._rank = None

    def add_entity(self, entity: Entity) -> None:
        """add_all of one entity."""
        self.add_all((entity,))

    def add_edge(self, src: str, dst: str, kind: str) -> Edge:
        """add_all of one edge; returns it."""
        edge = Edge(src=src, dst=dst, kind=kind)
        self.add_all(edges=(edge,))
        return edge

    def freeze(self) -> "KnowledgeGraph":
        self.frozen = True
        return self

    # -- queries ---------------------------------------------------------------

    def __contains__(self, entity_id: str) -> bool:
        return entity_id in self.entities

    def __len__(self) -> int:
        return len(self.entities)

    def entity(self, entity_id: str) -> Entity:
        try:
            return self.entities[entity_id]
        except KeyError:
            raise UnknownEntity(f"no entity with id {entity_id!r}") from None

    def sorted_ids(self) -> tuple[str, ...]:
        """Every entity id, sorted; kept from the first read until the next
        add_all."""
        if self._ids is None:
            self._ids = tuple(sorted(self.entities))
        return self._ids

    def in_id_order(self, members) -> list[str]:
        """`members`, a set of ids of this graph, in sorted-id order
        (`in_kept_order` of the sorted ids)."""
        return in_kept_order(members, self.sorted_ids())

    @property
    def edges(self) -> tuple[Edge, ...]:
        """Every edge in (src, dst, kind) order. Each edge is stored once, in
        its source's out-set and its target's in-set; this reads the out-sets."""
        return tuple(e for entity_id in self.sorted_ids() for e in self.edges_from(entity_id))

    def neighbors(self, entity_id: str, kinds, direction: str = "out") -> list[str]:
        """Endpoint ids of matching edges, sorted for determinism. The
        sorted answer is kept per (id, kinds, direction) until the next
        add_all; each call returns a fresh list of it."""
        kinds = frozenset(kinds)
        key = (entity_id, kinds, direction)
        kept = self._neighbors.get(key)
        if kept is None:
            self.entity(entity_id)  # UnknownEntity for an unknown id
            if direction == "out":
                found = {e.dst for e in self._out[entity_id] if e.kind in kinds}
            elif direction == "in":
                found = {e.src for e in self._in[entity_id] if e.kind in kinds}
            else:
                raise ValueError(f"direction must be 'out' or 'in', got {direction!r}")
            kept = self._neighbors[key] = tuple(sorted(found))
        return list(kept)

    def edges_from(self, entity_id: str) -> tuple[Edge, ...]:
        """Out-edges sorted by (dst, kind), sorted on each call (not kept);
        () for an unknown id."""
        return tuple(sorted(self._out.get(entity_id, ()), key=lambda e: (e.dst, e.kind)))

    def exec_out(self, entity_id: str) -> tuple[tuple[str, ...], str]:
        """The targets of the entity's executability out-edges in edges_from
        order (a target reached by both kinds comes twice), and the edges'
        package text (`edge_lines`: one line per edge kind); built on first
        read and kept until the next add_all. ((), "") for an unknown id."""
        kept = self._exec_out.get(entity_id)
        if kept is None:
            if entity_id not in self._out:
                return (), ""
            edges = [e for e in self.edges_from(entity_id) if e.kind in EXEC_KINDS]
            kept = self._exec_out[entity_id] = (tuple(e.dst for e in edges), edge_lines(edges))
        return kept

    def rank(self) -> dict[str, int]:
        """Each entity's position in the dependencies-first order of the whole
        graph (`dependencies_first` over every entity), built on first use
        after the last add_all."""
        if self._rank is None:
            ordered = self.sorted_ids()
            deps = {
                entity_id: [e.dst for e in self._out[entity_id] if e.kind in EXEC_KINDS]
                for entity_id in ordered
            }
            self._rank = {entity_id: i for i, entity_id in enumerate(dependencies_first(ordered, deps))}
        return self._rank

    def names(self) -> "NameLookup":
        """The name lookup, built on first use after the last add_all.

        Entities are never mutated once added, so only add_all drops it.
        """
        if self._names is None:
            self._names = NameLookup(self)
        return self._names

    def find_by_name(self, name: str) -> list[Entity]:
        """Entities whose name or solver_symbol equals `name`, code entities first."""
        return list(self.names().by_name.get(name, ()))

    def __eq__(self, other):
        if not isinstance(other, KnowledgeGraph):
            return NotImplemented
        return self.entities == other.entities and self.edges == other.edges


def edge_lines(edges) -> str:
    """The dependency-subgraph text of `edges`: one `src -kind-> dst, dst`
    line per (source, edge kind), sources and then kinds in sorted order,
    each line's targets sorted and joined by ", ". "" for no edge."""
    targets: dict[tuple[str, str], list[str]] = {}
    for edge in sorted(edges, key=lambda e: (e.src, e.kind, e.dst)):
        targets.setdefault((edge.src, edge.kind), []).append(edge.dst)
    return "\n".join(f"{src} -{kind}-> {', '.join(dsts)}" for (src, kind), dsts in targets.items())


def filter_beats_sort(n: int, total: int) -> bool:
    """Whether n members of a kept order of `total` ids are put in that
    order faster by filtering the order (`total` set lookups) than by
    sorting them (about n log2 n comparisons): n log2 n >= total. A rule on
    input size only: a few members of a large graph are sorted, most of a
    graph filtered."""
    return n > 1 and n * math.log2(n) >= total


def in_kept_order(members, order, position=None) -> list[str]:
    """`members`, a set of keys of the kept `order` (a sequence, or a dict
    iterated in its order), in that order: the order filtered through the
    set when `filter_beats_sort`, the members sorted by `position` (their
    natural order when None) otherwise."""
    if filter_beats_sort(len(members), len(order)):
        return [key for key in order if key in members]
    return sorted(members, key=position)


def dependencies_first(ordered: tuple[str, ...], deps: dict[str, list[str]]) -> list[str]:
    """Kahn's algorithm over the sorted ids `ordered`, where deps[m] lists
    m's dependencies among them in any order (a repeat is counted and
    released alike): the smallest ready id (every dependency emitted) comes
    next; when none is ready, the smallest id not yet emitted, which breaks
    a cycle.
    """
    waiting: dict[str, int] = {}  # id -> its dependencies not yet emitted
    dependents: dict[str, list[str]] = {member: [] for member in ordered}
    for member in ordered:
        waiting[member] = len(deps[member])
        for dep in deps[member]:
            dependents[dep].append(member)
    ready = [member for member in ordered if not waiting[member]]  # sorted, so a heap
    emitted: set[str] = set()
    order: list[str] = []
    cursor = 0
    while len(order) < len(ordered):
        if ready:
            pick = heapq.heappop(ready)
        else:
            while ordered[cursor] in emitted:
                cursor += 1
            pick = ordered[cursor]
        order.append(pick)
        emitted.add(pick)
        for dependent in dependents[pick]:
            waiting[dependent] -= 1
            # An id emitted early to break a cycle stays out of the heap.
            if not waiting[dependent] and dependent not in emitted:
                heapq.heappush(ready, dependent)
    return order


class NameLookup:
    """Entity lookups by name, built in one pass over the graph.

    by_name and by_hint map a name, solver_symbol or solver_symbol_hint to
    its entities, code entities first, then by id. by_first_token maps the
    first split_name_tokens() token of each name to (tokens, id, priority)
    in sorted-id order, where priority 0 marks code entities.
    """

    def __init__(self, graph: KnowledgeGraph):
        self.by_name: dict[str, list[Entity]] = {}
        self.by_hint: dict[str, list[Entity]] = {}
        self.by_first_token: dict[str, list[tuple[tuple[str, ...], str, int]]] = {}
        for entity_id in graph.sorted_ids():
            ent = graph.entities[entity_id]
            for key in {ent.name, ent.fields.get("solver_symbol", ent.name)}:
                self.by_name.setdefault(key, []).append(ent)
            hint = ent.fields.get("solver_symbol_hint")
            if hint is not None:
                self.by_hint.setdefault(hint, []).append(ent)
            tokens = split_name_tokens(ent.name)
            if tokens:
                priority = 0 if ent.source == SOURCE_CODE else 1
                self.by_first_token.setdefault(tokens[0], []).append((tokens, entity_id, priority))
        for hits in (*self.by_name.values(), *self.by_hint.values()):
            hits.sort(key=lambda e: e.source != SOURCE_CODE)


# --- Ingestion ------------------------------------------------------------------

def ingest_model(ast: ModelAst, graph: KnowledgeGraph) -> None:
    """Ingest a parsed model: one entity per declaration, requirement-direction edges.

    The edges come from `model_dsl.extract_symbols(ast)`: each reference from a
    constraint/objective gives a site -(used_in)-> name edge, and each
    iteration (a param/var index set, a quantifier or sum set) a site
    -(depends_on)-> set edge. A reference to a name with no declaration still
    becomes an entity (kind parameter, flagged inferred) so that every edge
    is representable.

    A name the model declares with two kinds raises ConflictingEntity, and
    twice with one kind DuplicateDeclaration (the parser's rule). The rest
    is one `KnowledgeGraph.add_all` batch: a model ingested twice changes
    nothing, and any error leaves the graph untouched.
    """
    objective = (ast.objective,) if ast.objective is not None else ()
    statements = (*ast.sets, *ast.params, *ast.vars, *ast.constraints, *objective)
    entities = [_code_entity(stmt) for stmt in statements]
    facts = model_dsl.extract_symbols(ast)

    kinds: dict[str, str] = {}  # kind of each name this model declared so far
    for entity in entities:
        known = kinds.get(entity.id)
        if known == entity.kind:
            raise DuplicateDeclaration(entity.id)
        if known is not None:
            raise ConflictingEntity(entity.id, f"is declared as {known}, then as {entity.kind}")
        kinds[entity.id] = entity.kind

    edges = [Edge(ref.site, ref.name, USED_IN) for ref in facts.references if ref.name != ref.site]
    edges += [Edge(site, set_name, DEPENDS_ON) for site, set_name in facts.iterations]
    for edge in edges:
        if edge.dst not in kinds and edge.dst not in graph:
            # Referenced but never declared: keep the reference representable.
            fields = {"solver_symbol": edge.dst, "inferred": True}
            entities.append(Entity(id=edge.dst, kind=PARAMETER, name=edge.dst, fields=fields))
    graph.add_all(entities, edges)


# --- Code declarations ----------------------------------------------------------
# A code entity's fields hold its statement (README, "Knowledge units"):
# `_code_entity` writes them, `declaration` reads a set, param or var back.

def _code_entity(stmt) -> Entity:
    """The code entity of one parsed statement."""
    if isinstance(stmt, SetDecl):
        kind = INDEX_SET
        fields = {"lo": stmt.lo, "hi": stmt.hi} if stmt.members is None else {"members": list(stmt.members)}
    elif isinstance(stmt, ParamDecl):
        kind, fields = PARAMETER, {"index_sets": list(stmt.index_sets)}
        if stmt.data is not None:
            fields["data"] = list(stmt.data) if isinstance(stmt.data, tuple) else stmt.data
    elif isinstance(stmt, VarDecl):
        kind, fields = DECISION_VARIABLE, {"index_sets": list(stmt.index_sets), "domain": stmt.domain}
        if stmt.bounds is not None:
            fields["bounds"] = list(stmt.bounds)
    elif isinstance(stmt, Constraint):
        kind, fields = CONSTRAINT, {"expression": model_dsl.emit_constraint(stmt)}
    else:
        kind, fields = OBJECTIVE, {"expression": model_dsl.emit_objective(stmt), "sense": stmt.sense}
    fields["solver_symbol"] = stmt.name
    return Entity(id=stmt.name, kind=kind, name=stmt.name, fields=fields, source=SOURCE_CODE)


def declaration(entity: Entity) -> SetDecl | ParamDecl | VarDecl | None:
    """The set, param or var statement a code entity declares, named by its
    id and read from its fields once; None for any other entity and for an
    index set with neither members nor a range. SchemaViolation on a
    malformed field."""
    decl = entity._declaration
    if decl is _UNREAD:
        decl = entity._declaration = _read_declaration(entity)
    return decl


def _read_declaration(entity: Entity) -> SetDecl | ParamDecl | VarDecl | None:
    if entity.source != SOURCE_CODE:
        return None
    fields = entity.fields
    if entity.kind == INDEX_SET:
        members = json_field(fields, "members", [str], None)
        if members:
            return SetDecl(entity.id, members=tuple(members))
        lo, hi = json_field(fields, "lo", int, None), json_field(fields, "hi", int, None)
        if (lo is None) != (hi is None):
            raise SchemaViolation("an index set range needs both 'lo' and 'hi'")
        return SetDecl(entity.id, lo=lo, hi=hi) if lo is not None else None
    if entity.kind == PARAMETER:
        data = json_field(fields, "data", [float] if isinstance(fields.get("data"), list) else float, None)
        if data is not None:
            data = tuple(map(float, data)) if isinstance(data, list) else float(data)
        return ParamDecl(entity.id, tuple(json_field(fields, "index_sets", [str], ())), data)
    if entity.kind == DECISION_VARIABLE:
        domain = json_field(fields, "domain", str, model_dsl.CONTINUOUS)
        if domain not in model_dsl.VAR_DOMAINS:
            raise SchemaViolation(f"field 'domain' must be one of {', '.join(model_dsl.VAR_DOMAINS)}")
        bounds = json_field(fields, "bounds", [float], None)
        if bounds is not None and len(bounds) != 2:
            raise SchemaViolation("field 'bounds' must be a [lower, upper] pair")
        index_sets = tuple(json_field(fields, "index_sets", [str], ()))
        return VarDecl(entity.id, index_sets, domain, tuple(bounds) if bounds is not None else None)
    return None


def ingest_concept_cards(cards, graph: KnowledgeGraph) -> None:
    """Ingest concept cards as paper-source entities plus their relations, as
    one `KnowledgeGraph.add_all` batch. A relation to a concept neither the
    graph nor the cards hold raises DanglingRelation; it and any add_all
    error leave the graph untouched."""
    entities = []
    edges = []
    for card in cards:
        fields = {"snippet": card.snippet}
        if card.solver_symbol_hint:
            fields["solver_symbol_hint"] = card.solver_symbol_hint
        entities.append(Entity(
            id=concept_entity_id(card.name),
            kind=card.kind,
            name=card.name,
            description=card.description,
            fields=fields,
            source=SOURCE_PAPER,
        ))
    names = {card.name for card in cards}
    for card in cards:
        for rel_kind, target_name in card.relations:
            dst = concept_entity_id(target_name)
            if target_name not in names and dst not in graph:
                raise DanglingRelation(
                    f"card {card.name!r} relates to unknown concept {target_name!r}"
                )
            edges.append(Edge(concept_entity_id(card.name), dst, rel_kind))
    graph.add_all(entities, edges)


def cards_to_json(cards) -> list[dict]:
    return [
        {
            "name": card.name,
            "kind": card.kind,
            "description": card.description,
            "solver_symbol_hint": card.solver_symbol_hint,
            "snippet": card.snippet,
            "relations": [list(rel) for rel in card.relations],
        }
        for card in cards
    ]


def cards_from_json(doc) -> list[ConceptCard]:
    """Concept cards from cards_to_json's document; SchemaViolation on a
    missing name or kind, or a field of the wrong type."""
    if not isinstance(doc, list):
        raise SchemaViolation("concept card file must hold a list of cards")
    cards = []
    for raw in doc:
        if not isinstance(raw, dict):
            raise SchemaViolation("each concept card must be an object")
        relations = json_field(raw, "relations", [list], [])
        if any([type(part) for part in rel] != [str, str] for rel in relations):
            raise SchemaViolation("card relations must be [kind, target name] pairs")
        cards.append(
            ConceptCard(
                name=json_field(raw, "name", str),
                kind=json_field(raw, "kind", str),
                description=json_field(raw, "description", str, ""),
                solver_symbol_hint=json_field(raw, "solver_symbol_hint", str, None),
                snippet=json_field(raw, "snippet", str, ""),
                relations=tuple(tuple(rel) for rel in relations),
            )
        )
    return cards


_REQUIRED = object()
# kind -> (the exact types it accepts: float is any JSON number, never a boolean; its names)
_JSON_KINDS = {
    int: ({int}, "an integer", "integers"),
    float: ({int, float}, "a number", "numbers"),
    str: ({str}, "a string", "strings"),
    list: ({list}, "a list", "lists"),
    dict: ({dict}, "an object", "objects"),
}


def _finite(numbers) -> bool:
    try:
        return all(map(math.isfinite, numbers))
    except OverflowError:  # an integer past the float range
        return False


def json_field(record: dict, key: str, kind, default=_REQUIRED):
    """record[key], checked to be of `kind` (int, float, str, list or dict),
    or a list of them when `kind` is `[item kind]`. A number must be finite:
    JSON's 1e400 reads as infinity.

    A missing or null field gives `default`; without one it raises
    SchemaViolation, as does a field of the wrong kind.
    """
    value = record.get(key)
    if value is None:
        if default is _REQUIRED:
            raise SchemaViolation(f"missing field {key!r}")
        return default
    if isinstance(kind, list):
        types, _one, many = _JSON_KINDS[kind[0]]
        ok = type(value) is list and all(map(types.__contains__, map(type, value)))
        ok = ok and (kind[0] is not float or _finite(value))
        expected = "a list of " + many
    else:
        types, expected, _many = _JSON_KINDS[kind]
        ok = type(value) in types and (kind is not float or _finite((value,)))
    if not ok:
        raise SchemaViolation(f"field {key!r} must be {expected}")
    return value


def read_json(path):
    """The JSON document in the file at `path`, the one reader of every JSON
    input. SchemaViolation for text that is not UTF-8, is not JSON (an
    integer past Python's digit limit included) or nests deeper than the
    decoder's recursion limit allows (about 1,000 levels, less the caller's
    stack depth); OSError for a file that cannot be read."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError among them
        raise SchemaViolation(f"{path}: {exc}") from None
    except RecursionError:
        raise SchemaViolation(f"{path}: JSON nested too deeply") from None


# --- Alignment ------------------------------------------------------------------

def normalize_name(name: str) -> str:
    """Case-fold and strip underscores, spaces, and other subscript markers."""
    return "".join(ch for ch in name.casefold() if ch.isalnum())


_NAME_PART_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z]?[a-z0-9]+|\d+")


def split_name_tokens(name: str) -> tuple[str, ...]:
    """Split an entity name into lowercase tokens at non-alphanumerics and
    camelCase boundaries; an all-caps run is one token, and digits stay
    attached to the letters they touch, so B13 and m01 are one token each
    and seq_1_2_1 is four, as a query writes them."""
    merged: list[str] = []
    end = -1
    for match in _NAME_PART_RE.finditer(name):
        part = match.group()
        if part.isdigit() and match.start() == end:
            merged[-1] += part
        else:
            merged.append(part)
        end = match.end()
    return tuple(p.lower() for p in merged)


@dataclass(frozen=True)
class AlignResult:
    edges: tuple[Edge, ...]
    ambiguities: tuple[tuple[str, tuple[str, ...]], ...]  # (paper id, candidate ids)


def align(graph: KnowledgeGraph) -> AlignResult:
    """Link each paper entity to its unique code realization, if any.

    A solver_symbol_hint that exactly matches a code entity's solver symbol
    takes precedence over name normalization. Ambiguous matches (two or more
    candidates) are reported and produce no edge.
    """
    code_by_symbol: dict[str, list[str]] = {}
    code_by_norm: dict[str, list[str]] = {}
    for entity_id in graph.sorted_ids():
        ent = graph.entities[entity_id]
        if ent.source != SOURCE_CODE:
            continue
        symbol = ent.fields.get("solver_symbol", ent.name)
        code_by_symbol.setdefault(symbol, []).append(entity_id)
        code_by_norm.setdefault(normalize_name(ent.name), []).append(entity_id)

    edges: list[Edge] = []
    ambiguities: list[tuple[str, tuple[str, ...]]] = []
    for entity_id in graph.sorted_ids():
        ent = graph.entities[entity_id]
        if ent.source != SOURCE_PAPER:
            continue
        hint = ent.fields.get("solver_symbol_hint")
        candidates = code_by_symbol.get(hint, []) if hint else []
        if not candidates:
            candidates = code_by_norm.get(normalize_name(ent.name), [])
        candidates = sorted(set(candidates))
        if len(candidates) == 1:
            edges.append(Edge(entity_id, candidates[0], ALIGNS_TO))
        elif len(candidates) >= 2:
            ambiguities.append((entity_id, tuple(candidates)))
    graph.add_all(edges=edges)
    return AlignResult(edges=tuple(edges), ambiguities=tuple(ambiguities))


# --- Persistence ----------------------------------------------------------------

_DOC_KEYS = {"version", "entities", "edges"}
_ENTITY_KEYS = {"id", "kind", "name", "description", "source", "fields"}
_EDGE_KEYS = {"src", "dst", "kind"}
_TEXT_FIELDS = frozenset({"snippet", "expression", "solver_symbol", "solver_symbol_hint"})


def save(graph: KnowledgeGraph) -> dict:
    """Serialize to a knowledge-unit document (JSON-compatible dict)."""
    return {
        "version": 1,
        "entities": [
            {
                "id": ent.id,
                "kind": ent.kind,
                "name": ent.name,
                "description": ent.description,
                "source": ent.source,
                "fields": ent.fields,
            }
            for ent in (graph.entities[i] for i in graph.sorted_ids())
        ],
        "edges": [{"src": e.src, "dst": e.dst, "kind": e.kind} for e in graph.edges],
    }


def load(document: dict) -> KnowledgeGraph:
    """Rebuild a graph from a knowledge-unit document; SchemaViolation on
    malformed input, a code entity's declaration fields included. Every
    record is checked, then the graph is filled by one add_all."""
    if not isinstance(document, dict):
        raise SchemaViolation("knowledge-unit document must be an object")
    unknown = set(document) - _DOC_KEYS
    if unknown:
        raise SchemaViolation(f"unknown top-level keys: {sorted(unknown)}")
    missing = _DOC_KEYS - set(document)
    if missing:
        raise SchemaViolation(f"missing top-level keys: {sorted(missing)}")
    if json_field(document, "version", int) != 1:
        raise SchemaViolation(f"unsupported version {document['version']!r}")

    if not isinstance(document["entities"], list) or not isinstance(document["edges"], list):
        raise SchemaViolation("entities and edges must be lists")

    entities: dict[str, Entity] = {}
    for raw in document["entities"]:
        if not isinstance(raw, dict) or set(raw) != _ENTITY_KEYS:
            raise SchemaViolation(f"entity record keys must be {sorted(_ENTITY_KEYS)}")
        if not isinstance(raw["id"], str):
            raise SchemaViolation(f"entity id must be a string, got {type(raw['id']).__name__}")
        if not isinstance(raw["fields"], dict):
            raise SchemaViolation("entity fields must be an object")
        for label, text in (("name", raw["name"]), ("description", raw["description"])):
            if not isinstance(text, str):
                raise SchemaViolation(f"entity {label} must be a string, got {type(text).__name__}")
        if raw["id"] in entities:
            raise SchemaViolation(f"duplicate entity id {raw['id']!r}")
        entity = Entity(**raw)
        try:
            for key, value in entity.fields.items():
                if key in _TEXT_FIELDS and type(value) is not str:
                    raise SchemaViolation(f"field {key!r} must be a string")
            declaration(entity)
        except SchemaViolation as exc:
            raise SchemaViolation(f"entity {entity.id!r}: {exc}") from None
        entities[entity.id] = entity
    edges = []
    for raw in document["edges"]:
        if not isinstance(raw, dict) or set(raw) != _EDGE_KEYS:
            raise SchemaViolation(f"edge record keys must be {sorted(_EDGE_KEYS)}")
        if not isinstance(raw["src"], str) or not isinstance(raw["dst"], str):
            raise SchemaViolation("edge endpoints must be entity id strings")
        edges.append(Edge(**raw))
    graph = KnowledgeGraph()
    try:
        graph.add_all(entities.values(), edges)
    except UnknownEntity as exc:
        raise SchemaViolation(str(exc)) from None
    return graph
