"""Output checks made apart from the program.

Every check reads the generated MiniModel text with its own small scanner
and compares it with facts the input builders derived from the inputs. None
of them calls into closurekb, so a fault in the parser or the validator
cannot hide a fault in the code they pass. Each check returns a list of
problems; an empty list means the output passed.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|[A-Za-z][A-Za-z0-9_]*")
_BOUND = re.compile(r"([A-Za-z][A-Za-z0-9_]*)\s+in\b")
_KEYWORDS = {
    "set", "param", "var", "con", "max", "min", "sum", "in", "and",
    "binary", "integer", "continuous",
}
DECLARING = ("set", "param", "var", "con", "min", "max")


def _names(text: str) -> list[str]:
    """Identifiers in order; numbers such as `1e-05` are skipped whole."""
    return [t for t in _TOKEN.findall(text) if not t[0].isdigit()]


def statements(code: str) -> list[str]:
    return [s.strip() for s in code.split(";") if s.strip()]


def declarations(code: str) -> dict[str, list[str]]:
    """Declared names by statement keyword (`min`/`max` under `obj`)."""
    found: dict[str, list[str]] = {}
    for stmt in statements(code):
        words = _names(stmt)
        if len(words) < 2 or words[0] not in DECLARING:
            continue
        kind = "obj" if words[0] in ("min", "max") else words[0]
        found.setdefault(kind, []).append(words[1])
    return found


def undeclared_references(code: str) -> list[str]:
    """Names a statement uses that no statement of the code declares."""
    declared = {name for names in declarations(code).values() for name in names}
    missing: set[str] = set()
    for stmt in statements(code):
        words = _names(stmt)
        if not words or words[0] not in DECLARING:
            missing.add(f"<statement {stmt[:40]!r}>")
            continue
        if words[0] == "set":
            continue  # a set's right-hand side holds members, not references
        body = stmt.split(None, 1)[1]
        bound = set(_BOUND.findall(body))
        for name in _names(body)[1:]:
            if name not in _KEYWORDS and name not in bound and name not in declared:
                missing.add(name)
    return sorted(missing)


def _closed(code: str) -> list[str]:
    if not code.strip():
        return ["empty code"]
    missing = undeclared_references(code)
    return [f"undeclared symbols {missing}"] if missing else []


def _number(value: float) -> str:
    return f"{value:g}"


def check_battery_load_reduction(code: str, facts: dict, snippet_ids=()) -> list[str]:
    problems = _closed(code)
    if _number(facts["lambda_rate"]) not in code:
        problems.append(f"incentive rate {_number(facts['lambda_rate'])} absent")
    lines = [s for s in statements(code) if s.startswith("con loadReduction")]
    if len(lines) != 1:
        problems.append(f"{len(lines)} loadReduction constraints")
    else:
        if not lines[0].endswith(f">= {_number(facts['delta_l_min'])}"):
            problems.append("loadReduction does not end with the minimum reduction")
        absent = [m for m in facts["machines"] if f"{m}[t]" not in lines[0]]
        if absent:
            problems.append(f"loadReduction misses machines {absent}")
    return problems


def check_battery_starvation(code: str, facts: dict, snippet_ids=()) -> list[str]:
    problems = _closed(code)
    machine, time_set = facts["machine"], facts["time_set"]
    for buf in facts["upstream"]:
        line = f"con {machine}NoStarve{buf}{{t in {time_set} : t >= 2}}: {machine}[t] <= {buf}[t-1]"
        if line not in statements(code):
            problems.append(f"missing {machine}NoStarve{buf}")
    return problems


def check_kb_constraint(code: str, facts: dict, snippet_ids=()) -> list[str]:
    problems = _closed(code)
    got = {kind: sorted(names) for kind, names in declarations(code).items()}
    want = {kind: sorted(names) for kind, names in facts["declarations"].items()}
    if got != want:
        problems.append(f"declarations {got} != {want}")
    if facts["statement"].rstrip(";") not in statements(code):
        problems.append("requested constraint absent")
    if not snippet_ids or snippet_ids[0] != facts["planted_doc"]:
        problems.append(f"planted snippet {facts['planted_doc']!r} not first in {list(snippet_ids)[:3]}")
    return problems


def check_fjsp_whole(code: str, facts: dict, snippet_ids=()) -> list[str]:
    problems = _closed(code)
    decls = declarations(code)
    n_vars, n_cons = len(decls.get("var", [])), len(decls.get("con", []))
    if (n_vars, n_cons) != (facts["vars"], facts["cons"]):
        problems.append(f"{n_vars} var / {n_cons} con, expected {facts['vars']} / {facts['cons']}")
    return problems


def check_fjsp_part(code: str, facts: dict, snippet_ids=()) -> list[str]:
    problems = _closed(code)
    if not any(s.startswith(facts["statement"].rstrip(";")) for s in statements(code)):
        problems.append(f"{facts['statement']!r} absent")
    return problems


CHECKS = {
    "battery_load_reduction": check_battery_load_reduction,
    "kb_constraint": check_kb_constraint,
    "battery_starvation": check_battery_starvation,
    "fjsp_whole": check_fjsp_whole,
    "fjsp_part": check_fjsp_part,
}

