"""Query understanding plus the two retrieval streams (semantic and structural).

The semantic stream is a deterministic TF-IDF index over entity snippets and
descriptions. Its vocabulary is one table from term to idf, in sorted term
order, and every other table of the index is keyed by term too. Its weights
are stored once, as postings from each term to {doc id: weight}, beside
per-document norms and per-term score bounds, so a top-k search stops
reading postings once the query terms left cannot lift an unseen document
into the top k, then re-scores the documents it keeps from the same
postings. The structural stream is the dependency closure of the entities
resolved in the query, one closure.closure walk from all of them, with
aligns_to followed one hop from paper seeds so concepts pull in their
executable realizations. The seed expansion reads each anchor's in-neighbors
as the graph keeps them (KnowledgeGraph.neighbors), into a set. Entity names
are matched through the graph's name lookup (KnowledgeGraph.names()).
"""

from __future__ import annotations

import heapq
import math
import re
from collections import Counter
from dataclasses import dataclass, field

from . import battery
from . import knowledge_graph as kg
from .closure import closure
from .errors import EmptyQuery
from .knowledge_graph import EXEC_KINDS, KnowledgeGraph

ADD_CONSTRAINT = "add_constraint"
MODIFY_OBJECTIVE = "modify_objective"
EXPLAIN_CONSTRAINT = "explain_constraint"
PARAMETER_QUERY = "parameter_query"
GENERATE_MODEL = "generate_model"
UNKNOWN = "unknown"

NAME_MATCH = "name_match"
NUMERIC_WITH_UNIT = "numeric_with_unit"
TIME_WINDOW = "time_window"

DEFAULT_SNIPPET_K = 5


@dataclass(frozen=True)
class ExtractedEntity:
    surface: str
    entity_id: str | None
    kind: str  # name_match | numeric_with_unit | time_window
    slots: tuple[int, int] | None = None  # populated for time windows


@dataclass(frozen=True)
class ParsedQuery:
    intents: tuple[str, ...]
    entities: tuple[ExtractedEntity, ...]
    numeric_payloads: tuple[tuple[float, str], ...]

    def resolved_ids(self) -> list[str]:
        seen = []
        for ent in self.entities:
            if ent.entity_id is not None and ent.entity_id not in seen:
                seen.append(ent.entity_id)
        return seen


@dataclass(frozen=True)
class RetrievalResult:
    structural: frozenset[str]
    snippets: tuple[tuple[str, float, str], ...]  # (doc id, score, text)


# --- Query understanding ----------------------------------------------------

# Intent table: an intent fires when any trigger from each group is present;
# intents are ordered by the position of their earliest trigger match.
_INTENT_TABLE = (
    (ADD_CONSTRAINT, (("add", "introduce"), ("constraint",))),
    (MODIFY_OBJECTIVE, (("modify", "change", "incentive", "reward"), ("objective", "profit"))),
    (EXPLAIN_CONSTRAINT, (("explain",),)),
    (PARAMETER_QUERY, (("what is", "value of"),)),
    (GENERATE_MODEL, (("generate", "code", "model"),)),
)

_WORD_RE = re.compile(r"[a-z0-9]+")
_UNIT_RE = re.compile(r"(\d+(?:\.\d+)?)\s*(\$/kWh|kWh|kW)\b")
_NTH_HOUR_RE = re.compile(r"(\d+)(?:st|nd|rd|th)\s+hour", re.IGNORECASE)
_HOUR_RANGE_RE = re.compile(r"hours?\s+(\d+)\s*(?:–|—|-|to)\s*(\d+)", re.IGNORECASE)


def _tokens_with_spans(text: str) -> list[tuple[str, int, int]]:
    return [(m.group(), m.start(), m.end()) for m in _WORD_RE.finditer(text.lower())]


# Each trigger as a whole word with an optional plural, so "address" never
# fires "add" but "constraints" still fires "constraint"; compiled once.
_INTENT_PATTERNS = tuple(
    (intent, tuple(tuple(re.compile(rf"\b{re.escape(trigger)}(?:s|es)?\b") for trigger in group)
                   for group in groups))
    for intent, groups in _INTENT_TABLE
)


def _match_intents(text: str) -> tuple[str, ...]:
    lowered = text.lower()
    matched: list[tuple[int, str]] = []
    for intent, groups in _INTENT_PATTERNS:
        positions = []
        for group in groups:
            best = None
            for pattern in group:
                m = pattern.search(lowered)
                if m is not None and (best is None or m.start() < best):
                    best = m.start()
            if best is None:
                positions = None
                break
            positions.append(best)
        if positions is not None:
            matched.append((min(positions), intent))
    matched.sort(key=lambda item: item[0])
    if not matched:
        return (UNKNOWN,)
    return tuple(intent for _pos, intent in matched)


def _time_axis(graph: KnowledgeGraph) -> tuple[int | None, int | None]:
    """(slots per hour, last slot) of the battery time axis: the first
    positive data of `slotsPerHour` and the first `hi` of `timeSequence`, a
    range set, each found by its exact name; None where there is none."""
    sph = last_slot = None
    for ent in graph.find_by_name(battery.SLOTS_PER_HOUR_PARAM):
        data = getattr(kg.declaration(ent), "data", None)
        if isinstance(data, float) and data > 0:
            sph = int(data)
            break
    for ent in graph.find_by_name(battery.TIME_SET):
        last_slot = getattr(kg.declaration(ent), "hi", None)
        if last_slot is not None:
            break
    return sph, last_slot


def _hour_slots(first: str, last: str, sph: int | None, last_slot: int | None) -> tuple[int, int] | None:
    """The slots of hours first..last, given as digit strings (hour 1 holds
    slots 1..sph); None without slots per hour, and for a window that starts
    before hour 1, runs backwards, ends past `last_slot` (when known) or has
    an hour too long for int()."""
    try:
        first_hour, last_hour = int(first), int(last)
    except ValueError:  # more digits than sys.get_int_max_str_digits()
        return None
    if not sph or first_hour < 1 or last_hour < first_hour:
        return None
    if last_slot is not None and last_hour * sph > last_slot:
        return None
    return (first_hour - 1) * sph + 1, last_hour * sph


def _extract_name_matches(text: str, graph: KnowledgeGraph) -> list[ExtractedEntity]:
    """Longest contiguous token match against entity names; overlapping matches
    are resolved by preferring code entities, then longer, earlier, smaller id."""
    tokens = _tokens_with_spans(text)
    token_values = tuple(t[0] for t in tokens)
    by_first_token = graph.names().by_first_token
    candidates: list[tuple[int, int, int, str]] = []
    for start, first in enumerate(token_values):
        for name_tokens, entity_id, priority in by_first_token.get(first, ()):
            width = len(name_tokens)
            if token_values[start : start + width] == name_tokens:
                candidates.append((priority, -width, start, entity_id))
    candidates.sort()
    taken: list[tuple[int, int]] = []
    chosen: list[tuple[int, int, str]] = []
    for _priority, neg_width, start, entity_id in candidates:
        width = -neg_width
        span = (start, start + width)
        if any(s < span[1] and span[0] < e for s, e in taken):
            continue
        if any(entity_id == c[2] for c in chosen):
            continue
        taken.append(span)
        chosen.append((start, width, entity_id))
    chosen.sort()
    out = []
    for start, width, entity_id in chosen:
        char_start = tokens[start][1]
        char_end = tokens[start + width - 1][2]
        out.append(
            ExtractedEntity(
                surface=text[char_start:char_end], entity_id=entity_id, kind=NAME_MATCH
            )
        )
    return out


def understand_query(text: str, graph: KnowledgeGraph) -> ParsedQuery:
    """Parse a natural-language instruction into intents, entities, and payloads."""
    if not text or not text.strip():
        raise EmptyQuery("query text is empty")

    entities: list[ExtractedEntity] = list(_extract_name_matches(text, graph))

    payloads: list[tuple[float, str]] = []
    for m in _UNIT_RE.finditer(text):
        value = float(m.group(1))
        if math.isfinite(value):  # a number past the float range reads as inf
            payloads.append((value, m.group(2)))
        entities.append(
            ExtractedEntity(surface=m.group(), entity_id=None, kind=NUMERIC_WITH_UNIT)
        )

    sph, last_slot = _time_axis(graph)
    for m in (*_NTH_HOUR_RE.finditer(text), *_HOUR_RANGE_RE.finditer(text)):
        # An nth-hour window has one group, a range two: its first and last hour.
        slots = _hour_slots(m.group(1), m.group(m.lastindex), sph, last_slot)
        entities.append(
            ExtractedEntity(surface=m.group(), entity_id=None, kind=TIME_WINDOW, slots=slots)
        )

    return ParsedQuery(
        intents=_match_intents(text),
        entities=tuple(entities),
        numeric_payloads=tuple(payloads),
    )


# --- Semantic index -----------------------------------------------------------

class TfidfEmbedder:
    """Deterministic TF-IDF embedder over lowercased alphanumeric tokens.

    After fitting, vocabulary maps each corpus term to its smoothed idf, in
    sorted term order, and weights() maps any UTF-8 text to its nonzero
    (term, weight) pairs.
    """

    def __init__(self):
        self.vocabulary: dict[str, float] = {}

    @staticmethod
    def tokenize(text: str) -> list[str]:
        return _WORD_RE.findall(text.lower())

    def fit(self, corpus: list[str]) -> "TfidfEmbedder":
        doc_freq: Counter = Counter()
        for text in corpus:
            doc_freq.update(set(self.tokenize(text)))
        n_docs = len(corpus)
        self.vocabulary = {
            term: math.log((n_docs + 1) / (doc_freq[term] + 1)) + 1.0 for term in sorted(doc_freq)
        }
        return self

    def weights(self, text: str) -> list[tuple[str, float]]:
        """Nonzero (term, weight) pairs of the text, in ascending term order.

        Every weight is at least 1: both the log term frequency factor and
        the smoothed idf are.
        """
        pairs = []
        for term, count in Counter(self.tokenize(text)).items():
            idf = self.vocabulary.get(term)
            if idf is not None:
                pairs.append((term, (1.0 + math.log(count)) * idf))
        pairs.sort()
        return pairs


def _norm(pairs) -> float:
    return math.sqrt(sum(w * w for _term, w in pairs))


@dataclass
class SemanticIndex:
    """Sparse TF-IDF index over the snippet documents.

    postings, the one store of the weights, maps a term to {doc id: weight}
    of every document holding it, inserted (and so iterated) in ascending
    doc id; norms maps a document to its Euclidean norm. term_bounds maps a
    term to the largest weight / norm over its postings, so a query term of
    weight q adds at most q * term_bound / query_norm to any document's
    cosine. semantic_search prunes with that bound, less a relative margin
    of 1e-9 for rounding, and re-scores the documents it keeps exactly by
    looking each query term's weight up in its postings.
    """

    doc_ids: list[str] = field(default_factory=list)
    texts: dict[str, str] = field(default_factory=dict)
    postings: dict[str, dict[str, float]] = field(default_factory=dict)
    norms: dict[str, float] = field(default_factory=dict)
    term_bounds: dict[str, float] = field(default_factory=dict)
    embedder: TfidfEmbedder | None = None


def snippet_text(entity) -> str:
    return entity.fields.get("snippet") or entity.description or ""


def index_snippets(graph: KnowledgeGraph) -> SemanticIndex:
    """Build the semantic index from entity descriptions/snippets. Insertion
    order independent: documents are filled in sorted-id order."""
    docs: dict[str, str] = {}
    for entity_id in graph.sorted_ids():
        text = snippet_text(graph.entities[entity_id])
        if text:
            docs[entity_id] = text
    doc_ids = list(docs)
    embedder = TfidfEmbedder().fit([docs[i] for i in doc_ids])
    postings: dict[str, dict[str, float]] = {}
    norms: dict[str, float] = {}
    term_bounds: dict[str, float] = {}
    for doc_id in doc_ids:
        pairs = embedder.weights(docs[doc_id])
        norm = norms[doc_id] = _norm(pairs)
        for term, weight in pairs:
            postings.setdefault(term, {})[doc_id] = weight
            term_bounds[term] = max(term_bounds.get(term, 0.0), weight / norm)
    return SemanticIndex(
        doc_ids=doc_ids,
        texts=docs,
        postings=postings,
        norms=norms,
        term_bounds=term_bounds,
        embedder=embedder,
    )


# Relative slack of the pruning test: partial cosines and bounds are rounded
# differently from the exact scores, so each may be a few ulps off.
_PRUNE_MARGIN = 1e-9


def semantic_search(index: SemanticIndex, text: str, k: int) -> list[tuple[str, float, str]]:
    """Top-k snippets by cosine similarity; zero-score documents are dropped,
    ties broken by smaller doc id. k == 0 returns []; k < 0 raises ValueError.

    Max-score pruning, term at a time: query terms are walked from the
    shortest posting list up, accumulating each document's partial cosine.
    The terms not yet walked can add at most the sum of their
    query_weight * term_bound / query_norm to any document; once k documents
    have a partial cosine and that sum is below the k-th largest by a
    relative margin of 1e-9, no document outside them can reach the top k,
    and the walk stops. The same test drops the candidates whose partial
    cosine plus that sum is below it (after the last term the sum is 0).

    Every remaining candidate is then re-scored exactly: its dot product is
    summed left to right over the query's terms in ascending order, reading
    each term's weight from its postings, the same additions a dense dot
    product makes once its zero terms are left out, so scores are
    bit-identical to scoring every document and do not depend on the pruning
    or index layout.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    query = index.embedder.weights(text)
    if k == 0 or not query:
        return []
    query_norm = _norm(query)
    postings, norms = index.postings, index.norms
    terms = sorted(query, key=lambda pair: (len(postings[pair[0]]), pair[0]))
    scales = [query_weight / query_norm for _term, query_weight in terms]
    # rest[i]: the most the terms after the i-th can add to any cosine
    rest = [0.0] * len(terms)
    for i in range(len(terms) - 1, 0, -1):
        rest[i - 1] = rest[i] + scales[i] * index.term_bounds[terms[i][0]]
    partial: dict[str, float] = {}
    floor = 0.0  # a candidate whose partial cosine is below it cannot reach the top k
    for (term, _query_weight), scale, bound in zip(terms, scales, rest):
        for doc_id, weight in postings[term].items():
            partial[doc_id] = partial.get(doc_id, 0.0) + scale * (weight / norms[doc_id])
        if len(partial) >= k:
            kth = (1.0 - _PRUNE_MARGIN) * heapq.nlargest(k, partial.values())[-1]
            if bound < kth:
                floor = kth - bound
                break
    query_postings = [(postings[term], query_weight) for term, query_weight in query]
    ranked = []
    for doc_id, partial_score in partial.items():
        if partial_score < floor:
            continue
        dot = 0.0
        for posting, query_weight in query_postings:
            weight = posting.get(doc_id)
            if weight is not None:
                dot += query_weight * weight
        ranked.append((-(dot / (query_norm * norms[doc_id])), doc_id))
    return [
        (doc_id, -neg_score, index.texts[doc_id])
        for neg_score, doc_id in heapq.nsmallest(k, ranked)
    ]


# --- Structural stream -----------------------------------------------------------

_ALIGNS = frozenset({kg.ALIGNS_TO})
_USED_IN = frozenset({kg.USED_IN})


def _realized(graph: KnowledgeGraph, seeds):
    """Each seed and, for a paper seed, its aligns_to targets (one hop), so a
    concept pulls in its code realizations. Raises UnknownEntity for the
    first unknown seed."""
    for seed in seeds:
        yield seed
        if graph.entity(seed).source == kg.SOURCE_PAPER:
            yield from graph.neighbors(seed, _ALIGNS, "out")


def structural_retrieve(graph: KnowledgeGraph, seeds) -> frozenset[str]:
    """Members of the dependency closure of the seeds and their realizations
    (_realized): one closure.closure walk from all of them, in seed order.
    Only the members are returned, so the seeds' order does not change the
    answer."""
    return closure(graph, *_realized(graph, seeds)).members


def _dependents_of_kind(graph: KnowledgeGraph, seeds, edge_kinds, wanted_kind) -> set[str]:
    """The entities of `wanted_kind` with an `edge_kinds` edge into a seed or
    a realization that is not of that kind."""
    entities = graph.entities
    found: set[str] = set()
    for anchor in _realized(graph, seeds):
        if entities[anchor].kind == wanted_kind:
            continue
        for user in graph.neighbors(anchor, edge_kinds, "in"):
            if entities[user].kind == wanted_kind:
                found.add(user)
    return found


def select_seeds(parsed: ParsedQuery, graph: KnowledgeGraph) -> list[str]:
    """Seed entities for the structural stream.

    Starts from the ids resolved in the query, then expands by intent: the
    constraint intents (add/explain) pull in the constraints that use each
    non-constraint seed (used_in in-edges), so "constraints of machine X"
    reaches the constraint nodes; modify_objective pulls in the objectives
    depending on a seed, so an event-modification request reaches the
    event-modified objective. Requirement-direction closure alone cannot walk
    from a symbol up to its dependents. The expansion follows the resolved
    ids in sorted-id order (KnowledgeGraph.in_id_order).
    """
    seeds = list(parsed.resolved_ids())
    expansion: set[str] = set()
    if any(i in (ADD_CONSTRAINT, EXPLAIN_CONSTRAINT) for i in parsed.intents):
        expansion |= _dependents_of_kind(graph, seeds, _USED_IN, kg.CONSTRAINT)
    if MODIFY_OBJECTIVE in parsed.intents:
        expansion |= _dependents_of_kind(graph, seeds, EXEC_KINDS, kg.OBJECTIVE)
    expansion.difference_update(seeds)
    seeds += graph.in_id_order(expansion)
    return seeds


def fuse(structural, snippets) -> RetrievalResult:
    """Fuse the two streams: the structural set, plus the snippets of entities
    outside it. Closedness is checked where the set becomes a context package
    (codegen.build_context)."""
    structural = frozenset(structural)
    kept = tuple(hit for hit in snippets if hit[0] not in structural)
    return RetrievalResult(structural=structural, snippets=kept)
