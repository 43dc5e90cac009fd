"""Seeded input builders for the three benchmark workloads.

Each builder writes the files a user would hand to `closurekb ingest` into a
work directory and returns a `Workload`: the input paths, the closed loop of
requests, and the facts the output checks compare against. The facts are
derived here from the generated inputs, never from the program's output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

from closurekb import battery, corpus, fjsp, model_dsl
from closurekb import knowledge_graph as kg


@dataclass(frozen=True)
class Request:
    """One instruction in the closed loop.

    `flaky` routes it through the stand-in that drops a declaration on the
    first call. `expect` names the check applied to its code; `facts` carries
    what that check needs.
    """

    text: str
    expect: str
    facts: dict
    flaky: bool = False
    kept_failing: bool = False


@dataclass(frozen=True)
class Workload:
    inputs: tuple[Path, ...]
    requests: tuple[Request, ...]  # one round; the loop repeats whole rounds
    facts: dict  # entity and snippet-doc counts of the set-up graph


# --- battery-paper ------------------------------------------------------------------

README_QUERY = "Add a load-reduction constraint for the demand-response event"
# The identifier typed as written tokenises to one word that no entity name
# matches, so retrieval finds only the event window and the code lacks the
# constraint. It stays in the loop, counted as failed, until that is mended.
KEPT_FAILING_QUERY = "Add the loadReduction constraint for the demand-response event"


def build_battery(workdir: Path, seed: int) -> Workload:
    """The paper case. The data are fixed; the seed only orders each round."""
    data, event = battery.paper_case_data(), battery.paper_event()
    instance = workdir / "battery.battery.json"
    instance.write_text(json.dumps(battery.data_to_json(data, event), indent=2) + "\n", encoding="utf-8")
    cards = workdir / "battery.cards.json"
    cards.write_text(
        json.dumps(kg.cards_to_json(battery.battery_concept_cards()), indent=2) + "\n", encoding="utf-8"
    )
    m01 = next(m for m in data.machines if m.name == "m01")
    load_facts = {
        "lambda_rate": event.lambda_rate,
        "delta_l_min": event.delta_l_min,
        "machines": [m.name for m in data.machines],
    }
    starve_facts = {"machine": m01.name, "upstream": list(m01.upstream), "time_set": battery.TIME_SET}
    # One-round, two-round and failed answers in equal numbers, so the median
    # latency falls in the middle of the two-round answers, not between groups.
    requests = [
        Request(README_QUERY, "battery_load_reduction", load_facts),
        Request(corpus.BATTERY_QUERY, "battery_starvation", starve_facts, flaky=True),
        Request(KEPT_FAILING_QUERY, "battery_load_reduction", load_facts, kept_failing=True),
    ]
    random.Random(seed).shuffle(requests)
    return Workload((instance, cards), tuple(requests), {"entities": 77, "snippet_docs": 11})


# --- kb-scale -------------------------------------------------------------------------

KB_MODELS = 500
KB_SLOTS = 6
KB_REQUESTS = 5  # per round; the last one goes through the flaky stand-in

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


def _pseudo_words(rng: random.Random, count: int, syllables: int) -> list[str]:
    """`count` distinct lowercase consonant-vowel words; none is an English
    trigger word of the query parser, and all are the same length, so the
    vocabulary size does not depend on the seed."""
    space = (len(_CONSONANTS) * len(_VOWELS)) ** syllables
    words = []
    for code in rng.sample(range(space), count):
        letters = []
        for _ in range(syllables):
            code, syl = divmod(code, len(_CONSONANTS) * len(_VOWELS))
            letters.append(_CONSONANTS[syl // len(_VOWELS)] + _VOWELS[syl % len(_VOWELS)])
        words.append("".join(letters))
    return words


def _cap(word: str) -> str:
    return word[0].upper() + word[1:]


def build_kb_scale(workdir: Path, seed: int) -> Workload:
    """500 small MiniModel models plus one concept card per constraint.

    Per model: 3 range sets, 6 parameters and 6 binary variables indexed by
    the first set, 4 constraints `var[t] <= par[t]`, and 4 concept cards whose
    one-sentence snippets each carry a token found in no other snippet.
    """
    rng = random.Random(seed)
    # Disjoint draws: 3-syllable prefixes, topic and rule words; 4-syllable
    # nonces, so no nonce equals any other word.
    three = _pseudo_words(rng, KB_MODELS * 3 + 240, 3)
    prefixes, topics, rule_words = three[:KB_MODELS], three[KB_MODELS : KB_MODELS * 3], three[KB_MODELS * 3 :]
    nonces = _pseudo_words(rng, KB_MODELS * 4, 4)
    models_dir = workdir / "models"
    models_dir.mkdir()
    inputs: list[Path] = []
    cards: list[kg.ConceptCard] = []
    constraints: dict[str, dict] = {}
    for i, prefix in enumerate(prefixes):
        slots = f"{prefix}Slots"
        lines = [f"set {slots} = 1..{KB_SLOTS};", f"set {prefix}Sites = 1..3;", f"set {prefix}Modes = 1..2;"]
        for k in range(1, 7):
            data = ", ".join(str(rng.randint(1, 9)) for _ in range(KB_SLOTS))
            lines.append(f"param {prefix}Par{k}{{{slots}}} = [{data}];")
        for k in range(1, 7):
            lines.append(f"var {prefix}Use{k}{{{slots}}} binary;")
        firsts = rng.sample(rule_words, 4)
        topic_a, topic_b = topics[2 * i], topics[2 * i + 1]
        for j in range(4):
            second = rng.choice(rule_words)
            name = f"{prefix}{_cap(firsts[j])}{_cap(second)}"
            var, par = f"{prefix}Use{rng.randint(1, 6)}", f"{prefix}Par{rng.randint(1, 6)}"
            statement = f"con {name}{{t in {slots}}}: {var}[t] <= {par}[t];"
            lines.append(statement)
            card_name = f"{prefix} {firsts[j]} rule"
            nonce = nonces[4 * i + j]
            cards.append(
                kg.ConceptCard(
                    name=card_name,
                    kind=kg.CONCEPT,
                    solver_symbol_hint=name,
                    snippet=(
                        f"The {prefix} {firsts[j]} {second} rule keeps {topic_a} use within the "
                        f"{topic_b} allowance across every slot {nonce}."
                    ),
                )
            )
            constraints[name] = {
                "model": i,
                "words": (prefix, firsts[j], second),
                "card": card_name,
                "nonce": nonce,
                "statement": statement,
                "declarations": {"set": [slots], "param": [par], "var": [var], "con": [name]},
            }
        path = models_dir / f"model{i:03d}.mm"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        inputs.append(path)
    cards_path = workdir / "kb.cards.json"
    cards_path.write_text(json.dumps(kg.cards_to_json(cards), indent=2) + "\n", encoding="utf-8")
    inputs.append(cards_path)

    requests = []
    by_model: dict[int, list[str]] = {}
    for name, info in constraints.items():
        by_model.setdefault(info["model"], []).append(name)
    for n, model in enumerate(rng.sample(range(KB_MODELS), KB_REQUESTS)):
        own, sibling = rng.sample(by_model[model], 2)
        info = constraints[own]
        prefix, first, second = info["words"]
        if n % 2 == 0:
            # Names the constraint; its own concept snippet carries the token.
            text = f"add the {prefix} {first} {second} constraint, see {info['nonce']}"
            planted = info["card"]
        else:
            # Names the concept. Its own snippet joins the structural set and
            # is fused away, so the token sits in a sibling's snippet.
            text = f"explain the {prefix} {first} rule and generate code, see {constraints[sibling]['nonce']}"
            planted = constraints[sibling]["card"]
        facts = dict(info, planted_doc=kg.concept_entity_id(planted))
        requests.append(Request(text, "kb_constraint", facts, flaky=n == KB_REQUESTS - 1))
    return Workload(tuple(inputs), tuple(requests), {"entities": KB_MODELS * 23, "snippet_docs": KB_MODELS * 4})


# --- fjsp-full-model ------------------------------------------------------------------

FJSP_JOBS = 10
FJSP_OPS = 3
FJSP_FLEX = 3
FJSP_MACHINES = 10


def behnke_like_fjs(rng: random.Random, jobs: int, ops: int, flex: int, machines: int) -> str:
    """A `.fjs` instance in which every machine is eligible for the same
    number of operations, so the model's size is the same for every seed
    while eligibility and processing times vary with it."""
    n_ops = jobs * ops
    if (n_ops * flex) % machines:
        raise ValueError("jobs*ops*flex must be a multiple of machines")
    per_machine = n_ops * flex // machines
    while True:
        slots = [m for m in range(1, machines + 1) for _ in range(per_machine)]
        rng.shuffle(slots)
        eligible = [sorted(slots[o * flex : (o + 1) * flex]) for o in range(n_ops)]
        if all(len(set(e)) == flex for e in eligible):
            break
    lines = [f"{jobs} {machines} {float(flex)}"]
    for j in range(jobs):
        fields = [str(ops)]
        for e in eligible[j * ops : (j + 1) * ops]:
            fields.append(str(flex))
            for machine in e:
                fields += [str(machine), str(rng.randint(1, 20))]
        lines.append(" ".join(fields))
    return "\n".join(lines) + "\n"


def machine_pairs(fjs_text: str) -> int:
    """Operation pairs that share an eligible machine, read from the `.fjs`
    text the way acceptance criterion 5 counts them from the instance."""
    rows = fjs_text.split("\n")
    machines = int(rows[0].split()[1])
    ops_on: dict[int, int] = {m: 0 for m in range(1, machines + 1)}
    for row in rows[1:]:
        values = [int(v) for v in row.split()]
        if not values:
            continue
        cursor = 1
        for _ in range(values[0]):
            n_eligible = values[cursor]
            for e in range(n_eligible):
                ops_on[values[cursor + 1 + 2 * e]] += 1
            cursor += 1 + 2 * n_eligible
    return sum(n * (n - 1) // 2 for n in ops_on.values())


WHOLE_MODEL_QUERY = "explain the constraints of x and generate code"


def build_fjsp(workdir: Path, seed: int) -> Workload:
    """One Behnke-like instance, emitted as MiniModel source, plus the
    alternate-terminology cards. Set-up parses the source."""
    fjs_text = behnke_like_fjs(random.Random(seed), FJSP_JOBS, FJSP_OPS, FJSP_FLEX, FJSP_MACHINES)
    (workdir / "instance.fjs").write_text(fjs_text, encoding="utf-8")
    ast = fjsp.build_fjsp_model(fjsp.parse_fjs(fjs_text), fjsp.BASELINE)
    source = workdir / "fjsp.mm"
    source.write_text(model_dsl.emit_model(ast), encoding="utf-8")
    cards = workdir / "fjsp.cards.json"
    cards.write_text(json.dumps(kg.cards_to_json(fjsp.fjsp_terminology_cards()), indent=2) + "\n", encoding="utf-8")
    pairs = machine_pairs(fjs_text)
    whole = {"vars": 3 + pairs, "cons": 4 + 2 * pairs}
    # As many small parts as two-round whole models, so the median latency is
    # that of a one-round whole-model request, the middle of the ordering.
    requests = (
        Request(WHOLE_MODEL_QUERY, "fjsp_whole", whole),
        Request("add the prec constraint", "fjsp_part", {"statement": "con prec"}),
        Request(WHOLE_MODEL_QUERY, "fjsp_whole", whole),
        Request(WHOLE_MODEL_QUERY, "fjsp_whole", whole, flaky=True),
        Request("modify the objective using cmax", "fjsp_part", {"statement": "min obj: cmax;"}, flaky=True),
        Request(WHOLE_MODEL_QUERY, "fjsp_whole", whole),
        Request(WHOLE_MODEL_QUERY, "fjsp_whole", whole, flaky=True),
        Request(WHOLE_MODEL_QUERY, "fjsp_whole", whole),
    )
    n_entities = 2 + 4 + 3 + pairs + 4 + 2 * pairs + 1 + 9
    return Workload((source, cards), requests, {"entities": n_entities, "snippet_docs": 9})


BUILDERS = {
    "battery-paper": build_battery,
    "kb-scale": build_kb_scale,
    "fjsp-full-model": build_fjsp,
}
