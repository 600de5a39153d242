"""Outside-in layer trace: spans and counts recorded at the boundaries
between the library's modules, from the benchmark's own files.

``Tracer.install`` replaces module attributes (and one method) of a loaded
library with wrappers that record a span per call; ``uninstall`` puts the
originals back, so an untraced pass runs exactly the code an untraced run
does.  Spans stay in memory as tuples and are written out once, at the end.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# ---------------------------------------------------------------------------
# counters, each fed the wrapped call's arguments and result


def _count_report(counts, args, report):
    counts["model.acceptable_pairs"] += len(args[0].acceptable_pairs())
    counts["blockers.degree1"] += len(report.degree1)
    counts["blockers.degree2"] += len(report.degree2)
    counts["blockers.mandated"] += len(report.mandated_men)
    counts["blockers.open_mutual"] += len(report.open_mutual)


def _count_graph(counts, args, graph):
    counts["blockers.cover_vertices"] += len(graph.vertices)
    counts["blockers.cover_edges"] += len(graph.edges)


def _count_cover(counts, args, cover):
    graph = args[0]
    parent = {v: v for v in graph.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in graph.edges:
        parent[find(u)] = find(v)
    sizes = defaultdict(int)
    for v in graph.vertices:
        sizes[find(v)] += 1
    counts["solvers.cover_components"] += len(sizes)
    counts["solvers.max_component_vertices"] = max(
        counts["solvers.max_component_vertices"], max(sizes.values(), default=0))
    counts["solvers.cover_size"] += len(cover)


def _count_plan(counts, args, plan):
    counts["solvers.interviews"] += plan.cost
    counts["solvers.naive_cost"] += len(args[0].acceptable_pairs())
    counts[f"solvers.structure.{plan.structure.value}"] += 1


def _count_stable(counts, args, found):
    counts["stability.stable_found"] += len(found)


# (module, attribute, span name, counter).  Names in the solvers, blockers
# and cli namespaces are the calls that plan_for_matching, best_plan,
# analyze_blockers and the bench command make; the rest are the public
# entry points the benchmark itself calls.
PATCHES = (
    ("solvers", "plan_for_matching", "solvers.plan", _count_plan),
    ("solvers", "best_plan", "solvers.best_plan", None),
    ("solvers", "analyze_blockers", "blockers.analyze", _count_report),
    ("solvers", "cover_graph", "blockers.cover_graph", _count_graph),
    ("solvers", "min_vertex_cover", "solvers.min_vertex_cover", _count_cover),
    ("solvers", "apply_interviews", "interviews.apply", None),
    ("solvers", "is_stable", "stability.super_check", None),
    ("solvers", "detect_structure", "solvers.detect_structure", None),
    ("solvers", "stable_matchings", "stability.stable_matchings", _count_stable),
    ("blockers", "check_matching", "stability.check_matching", None),
    ("blockers", "weakly_stable_under", "stability.weakly_stable", None),
    ("model.StrictProfile", "refines", "model.refines", None),
    ("generators", "generate", "generators.generate", None),
    ("generators", "cover_market_smti", "generators.cover_market", None),
    ("stability", "gale_shapley", "stability.gale_shapley", None),
    ("interviews", "interview_cost", "interviews.interview_cost", None),
    ("cli", "main", "cli.bench_row", None),
    ("cli", "generate", "generators.generate", None),
    ("cli", "gale_shapley", "stability.gale_shapley", None),
    ("cli", "analyze_blockers", "blockers.analyze", _count_report),
    ("cli", "plan_for_matching", "solvers.plan", _count_plan),
)

# span names whose median duration is reported as "<name>_ms"
TIMED = ("solvers.plan", "solvers.best_plan", "blockers.analyze",
         "solvers.min_vertex_cover", "interviews.apply", "stability.super_check",
         "solvers.detect_structure", "stability.stable_matchings",
         "stability.check_matching", "stability.weakly_stable", "model.refines",
         "generators.generate", "generators.cover_market", "stability.gale_shapley",
         "interviews.interview_cost", "cli.bench_row")
# metrics reported as the median self time of a span
SELF_TIMED = {"blockers.classify_self_ms": "blockers.analyze",
              "solvers.plan_unaccounted_ms": "solvers.plan"}
COUNTS = ("model.acceptable_pairs", "blockers.degree1", "blockers.degree2",
          "blockers.mandated", "blockers.open_mutual", "blockers.cover_vertices",
          "blockers.cover_edges", "solvers.cover_components",
          "solvers.max_component_vertices", "solvers.cover_size", "solvers.interviews",
          "solvers.naive_cost", "solvers.structure.one_side_strict",
          "solvers.structure.ties_at_most_2", "solvers.structure.master_ties",
          "solvers.structure.general_exact_vc", "solvers.fallback_fired",
          "stability.stable_found")
# phases whose spans give a workload's per-layer timings; the desk-scale
# cross-check only stands in for a layer the workload never calls
WORKLOAD_PHASES = ("setup", "verify", "loop")


class Tracer:
    """Spans as (name, start, end, parent index, solve id, phase) tuples,
    plus exact counts taken while ``counting`` is set."""

    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.phase = "setup"
        self.solve_id = -1
        self.counting = False
        self.counts: dict = defaultdict(int)
        self._saved: list = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.solve_id, self.phase)
            if counter is not None and self.counting:
                counter(self.counts, args, result)
            return result
        return traced

    def install(self, lib) -> None:
        if self._saved:
            return
        for where, attr, name, counter in PATCHES:
            owner = lib
            for part in where.split("."):
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @contextlib.contextmanager
    def suspended(self, lib):
        self.uninstall()
        try:
            yield
        finally:
            self.install(lib)

    # -- reporting ---------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def layer_metrics(self) -> dict[str, float]:
        """Median per call, in ms, of each timed span and self time.  A layer
        the workload never calls is timed on the desk-scale cross-check."""
        own = self.self_times()
        durations = defaultdict(lambda: defaultdict(list))
        selfs = defaultdict(lambda: defaultdict(list))
        for i, (name, start, end, _, _, phase) in enumerate(self.spans):
            group = "workload" if phase in WORKLOAD_PHASES else phase
            durations[name][group].append(end - start)
            selfs[name][group].append(own[i])

        def median_ms(samples):
            for group in ("workload", "desk"):
                if samples[group]:
                    return statistics.median(samples[group]) * 1000
            return 0.0

        out = {f"{name}_ms": median_ms(durations[name]) for name in TIMED}
        out.update({metric: median_ms(selfs[name]) for metric, name in SELF_TIMED.items()})
        return out

    def self_time_table(self, phase: str = "loop") -> list[tuple[str, int, float]]:
        """Per span name: calls and total self time (s) within one phase."""
        own = self.self_times()
        calls, total = defaultdict(int), defaultdict(float)
        for i, span in enumerate(self.spans):
            if span[5] == phase:
                calls[span[0]] += 1
                total[span[0]] += own[i]
        return sorted(((n, calls[n], total[n]) for n in calls), key=lambda r: -r[2])

    def totals(self, phase: str = "loop") -> dict[str, float]:
        """Per span name: total inclusive time (s) within one phase."""
        out = defaultdict(float)
        for name, start, end, _, _, span_phase in self.spans:
            if span_phase == phase:
                out[name] += end - start
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"fields": ["name", "start", "end", "parent", "solve", "phase"],\n'
                     ' "spans": [\n')
            fh.write(",\n".join(json.dumps(s) for s in self.spans))
            fh.write("\n]}\n")
