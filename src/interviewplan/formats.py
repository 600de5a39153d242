"""Text formats for instances, strict profiles, matchings, interview sets,
graphs, and solve certificates.

All formats are line based, UTF-8, with ``#`` starting a comment that runs
to end of line.  Writers emit a canonical ordering so that equal values
serialize to identical bytes.
"""

from __future__ import annotations

from typing import Iterable

from .errors import InvalidInstance, ParseError
from .model import (
    MAN,
    WOMAN,
    Agent,
    Instance,
    Matching,
    Pair,
    Relation,
    StrictProfile,
    couple,
    detect_tie_structure,
    tie_relation,
    validate_instance,
)


def _strip(line: str) -> str:
    return line.split("#", 1)[0].strip()


def parse_agent(token: str, line: int | None = None) -> Agent:
    side = token[:1]
    if side not in (MAN, WOMAN) or not token[1:].isdecimal():
        raise ParseError(f"bad agent token {token!r}", line)
    return Agent(side, int(token[1:]))


def _agent(seen: dict[str, Agent], token: str, line: int) -> Agent:
    """``parse_agent`` with the agents of one file kept by token, so that
    each distinct token is parsed once; a bad token is never kept, so it
    raises where it first appears."""
    a = seen.get(token)
    if a is None:
        a = seen[token] = parse_agent(token, line)
    return a


# ---------------------------------------------------------------------------
# instances


def parse_instance(text: str, base: bool = True,
                   warnings: list[str] | None = None) -> Instance:
    """Parse an instance file.

    Header lines ``kind:``, ``men:`` and ``women:`` must precede the body.
    The ``smti`` body lists each agent's classes best first with ties in
    parentheses (``m1: (w2 w3) w1``); the ``smpi`` body uses ``accepts:``
    and ``prefers:`` lines with explicit ``a > b`` comparisons.

    One-sided acceptability is dropped during normalization, appending a
    note to ``warnings`` when a list is given.  Base instances that are not
    partial orders are rejected.
    """
    kind = n_men = n_women = None
    accepts: dict[Agent, list[Agent]] = {}
    classes: dict[Agent, list[list[Agent]]] = {}
    prefers: dict[Agent, list[Pair]] = {}
    seen: dict[str, Agent] = {}

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if line.startswith("kind:"):
            kind = line.split(":", 1)[1].strip().lower()
            if kind not in ("smti", "smpi"):
                raise ParseError(f"unknown kind {kind!r}", line_no)
            continue
        if line.startswith("men:"):
            n_men = _parse_count(line, line_no)
            continue
        if line.startswith("women:"):
            n_women = _parse_count(line, line_no)
            continue
        if kind is None or n_men is None or n_women is None:
            raise ParseError("body before kind/men/women header", line_no)
        if kind == "smti":
            _parse_smti_line(line, line_no, classes, seen)
        else:
            _parse_smpi_line(line, line_no, accepts, prefers, seen)

    if kind is None or n_men is None or n_women is None:
        raise ParseError("missing kind/men/women header")

    rels: dict[Agent, Relation] = {}
    if kind == "smti":
        for a, cls in classes.items():
            rels[a] = tie_relation(a, cls)
    else:
        for a, acc in accepts.items():
            rels[a] = Relation(a, frozenset(acc), frozenset(prefers.get(a, ())))
        for a in list(prefers):
            if a not in rels:
                raise ParseError(f"prefers line for {a} without accepts line")

    instance = Instance(n_men, n_women, rels, base=base)
    instance = _normalize_mutual(instance, warnings)
    report = validate_instance(instance)
    if not report.ok:
        raise InvalidInstance(report)
    return instance


def _parse_count(line: str, line_no: int) -> int:
    value = line.split(":", 1)[1].strip()
    if not value.isdecimal():
        raise ParseError(f"bad count {value!r}", line_no)
    return int(value)


def _parse_smti_line(line: str, line_no: int,
                     classes: dict[Agent, list[list[Agent]]],
                     seen: dict[str, Agent]) -> None:
    if ":" not in line:
        raise ParseError("expected 'agent: classes'", line_no)
    head, _, body = line.partition(":")
    a = _agent(seen, head.strip(), line_no)
    if a in classes:
        raise ParseError(f"duplicate line for {a}", line_no)
    out: list[list[Agent]] = []
    tokens = body.replace("(", " ( ").replace(")", " ) ").split()
    group: list[Agent] | None = None
    for tok in tokens:
        if tok == "(":
            if group is not None:
                raise ParseError("nested parenthesis", line_no)
            group = []
        elif tok == ")":
            if group is None or not group:
                raise ParseError("empty or unmatched parenthesis", line_no)
            out.append(sorted(group))
            group = None
        else:
            c = _agent(seen, tok, line_no)
            if group is None:
                out.append([c])
            else:
                group.append(c)
    if group is not None:
        raise ParseError("unclosed parenthesis", line_no)
    flat = [c for g in out for c in g]
    if len(set(flat)) != len(flat):
        raise ParseError(f"candidate repeated for {a}", line_no)
    classes[a] = out


def _parse_smpi_line(line: str, line_no: int,
                     accepts: dict[Agent, list[Agent]],
                     prefers: dict[Agent, list[Pair]],
                     seen: dict[str, Agent]) -> None:
    if "accepts:" in line:
        head, _, body = line.partition("accepts:")
        a = _agent(seen, head.strip(), line_no)
        if a in accepts:
            raise ParseError(f"duplicate accepts line for {a}", line_no)
        cands = [_agent(seen, t, line_no) for t in body.split()]
        if len(set(cands)) != len(cands):
            raise ParseError(f"candidate repeated for {a}", line_no)
        accepts[a] = cands
    elif "prefers:" in line:
        head, _, body = line.partition("prefers:")
        a = _agent(seen, head.strip(), line_no)
        for chunk in body.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = [p.strip() for p in chunk.split(">")]
            if len(parts) != 2:
                raise ParseError(f"expected 'c1 > c2', got {chunk!r}", line_no)
            prefers.setdefault(a, []).append(
                (_agent(seen, parts[0], line_no), _agent(seen, parts[1], line_no)))
    else:
        raise ParseError("expected an 'accepts:' or 'prefers:' line", line_no)


def _normalize_mutual(instance: Instance, warnings: list[str] | None) -> Instance:
    rels = {}
    changed = False
    for a in instance.agents():
        rel = instance.relations[a]
        keep = frozenset(c for c in rel.acceptable
                         if c in instance.relations
                         and a in instance.relations[c].acceptable)
        if keep != rel.acceptable:
            changed = True
            dropped = sorted(rel.acceptable - keep)
            if warnings is not None:
                warnings.append(
                    f"{a}: dropped one-sided acceptability toward "
                    + " ".join(str(c) for c in dropped))
            rels[a] = rel.restricted(keep)
        else:
            rels[a] = rel
    if not changed:
        return instance
    return Instance(instance.n_men, instance.n_women, rels, base=instance.base)


def format_classes(classes: tuple[frozenset[Agent], ...]) -> str:
    """Classes best first, each tie of two or more in parentheses."""
    members = [" ".join(str(c) for c in sorted(cls)) for cls in classes]
    return " ".join(m if len(cls) == 1 else f"({m})" for m, cls in zip(members, classes))


def format_instance(instance: Instance, style: str | None = None) -> str:
    """Serialize an instance; ``style`` forces ``smti`` or ``smpi`` bodies.

    By default the tie format is used whenever every agent's knowledge
    state decomposes into ordered classes, else the explicit-edge format.
    """
    ties = detect_tie_structure(instance)
    if style is None:
        style = "smti" if all(t is not None for t in ties.values()) else "smpi"
    if style == "smti" and any(t is None for t in ties.values()):
        raise ValueError("instance is not tie-shaped; use the smpi style")
    lines = [f"kind: {style}", f"men: {instance.n_men}", f"women: {instance.n_women}"]
    if style == "smti":
        for a in instance.agents():
            lines.append(f"{a}: {format_classes(ties[a])}".rstrip())
    else:
        for a in instance.agents():
            rel = instance.relations[a]
            acc = " ".join(str(c) for c in sorted(rel.acceptable))
            lines.append(f"{a} accepts: {acc}".rstrip())
        for a in instance.agents():
            edges = instance.relations[a].edges
            if edges:
                body = ", ".join(f"{c1} > {c2}" for c1, c2 in sorted(edges))
                lines.append(f"{a} prefers: {body}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# strict profiles, matchings, interview sets


def parse_truth(text: str) -> StrictProfile:
    ranking: dict[Agent, tuple[Agent, ...]] = {}
    seen: dict[str, Agent] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if ":" not in line:
            raise ParseError("expected 'agent: candidates'", line_no)
        head, _, body = line.partition(":")
        a = _agent(seen, head.strip(), line_no)
        if a in ranking:
            raise ParseError(f"duplicate ranking for {a}", line_no)
        seq = tuple(_agent(seen, t, line_no) for t in body.split())
        if len(set(seq)) != len(seq):
            raise ParseError(f"candidate repeated for {a}", line_no)
        ranking[a] = seq
    return StrictProfile(ranking)


def format_truth(profile: StrictProfile) -> str:
    lines = []
    for a in sorted(profile.ranking):
        seq = " ".join(str(c) for c in profile.ranking[a])
        lines.append(f"{a}: {seq}".rstrip())
    return "\n".join(lines) + "\n"


def _parse_pair(line: str, line_no: int) -> Pair:
    """One ``man woman`` line, the two in either order, as a (man, woman)
    pair."""
    tokens = line.split()
    if len(tokens) != 2:
        raise ParseError("expected 'man woman' per line", line_no)
    a, b = (parse_agent(t, line_no) for t in tokens)
    if a.side == b.side:
        raise ParseError("pair is not man-woman", line_no)
    return couple(a, b)


def _parse_pairs(text: str) -> list[Pair]:
    pairs = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if line:
            pairs.append(_parse_pair(line, line_no))
    return pairs


def parse_matching(text: str) -> Matching:
    return Matching(_parse_pairs(text))


def format_matching(matching: Matching) -> str:
    return format_interviews(matching.pairs)


def parse_interviews(text: str) -> frozenset[Pair]:
    return frozenset(_parse_pairs(text))


def format_interviews(interviews: Iterable[Pair]) -> str:
    pairs = sorted(interviews)
    if not pairs:
        return ""
    return "\n".join(f"{m} {w}" for m, w in pairs) + "\n"


# ---------------------------------------------------------------------------
# graphs


def parse_graph(text: str):
    from .generators import SimpleGraph

    n = None
    declared = None
    edges = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip(raw)
        if not line:
            continue
        if n is None:
            tokens = line.split()
            if (len(tokens) != 3 or tokens[0] != "graph"
                    or not (tokens[1].isdecimal() and tokens[2].isdecimal())):
                raise ParseError("expected header 'graph <n> <m>'", line_no)
            n, declared = int(tokens[1]), int(tokens[2])
            continue
        tokens = line.split()
        if len(tokens) != 2 or not (tokens[0].isdecimal() and tokens[1].isdecimal()):
            raise ParseError("expected 'u v' per line", line_no)
        u, v = int(tokens[0]), int(tokens[1])
        if not (1 <= u <= n and 1 <= v <= n) or u == v:
            raise ParseError(f"bad edge {u} {v}", line_no)
        edges.add((min(u, v), max(u, v)))
    if n is None:
        raise ParseError("missing graph header")
    if declared != len(edges):
        raise ParseError(f"header declares {declared} edges, found {len(edges)}")
    return SimpleGraph(n, frozenset(edges))


def format_graph(graph) -> str:
    lines = [f"graph {graph.n} {len(graph.edges)}"]
    lines.extend(f"{u} {v}" for u, v in sorted(graph.edges))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# solve certificates


def format_certificate(plan, naive: int | None = None) -> str:
    """Serialize an interview plan: cost, breakdown, schedule, and the
    refined instance it produces."""
    lines = [
        f"cost: {plan.cost}",
        f"blockers: {plan.blocker_count}",
        f"mandated: {plan.mandated_count}",
        f"cover: {plan.cover_size}",
        f"structure: {plan.structure.value}",
    ]
    if naive is not None:
        lines.append(f"naive: {naive}")
    lines.append("interviews:")
    lines.extend(f"{m} {w}" for m, w in sorted(plan.interviews))
    lines.append("refined:")
    return "\n".join(lines) + "\n" + format_instance(plan.refined)


def parse_certificate(text: str) -> tuple[dict[str, int | str], frozenset[Pair], Instance]:
    meta: dict[str, int | str] = {}
    interviews: set[Pair] = set()
    refined_lines: list[str] = []
    section = "meta"
    for line_no, raw in enumerate(text.splitlines(), start=1):
        if section == "refined":
            refined_lines.append(raw)
            continue
        line = _strip(raw)
        if not line:
            continue
        if line == "interviews:":
            section = "interviews"
            continue
        if line == "refined:":
            section = "refined"
            continue
        if section == "meta":
            key, _, value = line.partition(":")
            value = value.strip()
            meta[key.strip()] = int(value) if value.isdecimal() else value
        else:
            interviews.add(_parse_pair(line, line_no))
    if section != "refined":
        raise ParseError("certificate has no refined section")
    refined = parse_instance("\n".join(refined_lines), base=False)
    return meta, frozenset(interviews), refined
