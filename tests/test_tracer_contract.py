"""The benchmark's layer tracer patches library names by module attribute;
a rename in the library must fail here, not first in the benchmark."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

from interviewplan.generators import SimpleGraph, cover_market_smti

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# every span plan_for_matching opens below its own
PLAN_SPANS = ("blockers.analyze", "blockers.cover_graph", "solvers.min_vertex_cover",
              "interviews.apply", "stability.super_check", "solvers.detect_structure",
              "stability.check_matching", "stability.weakly_stable", "model.refines")


def load_tracer():
    """The tracer module, read from its file without writing bytecode next
    to it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def library(patches):
    """The already imported library modules the patches name, in the
    namespace shape ``Tracer.install`` takes."""
    names = {where.split(".")[0] for where, _, _, _ in patches}
    return SimpleNamespace(**{m: importlib.import_module(f"interviewplan.{m}")
                              for m in names})


def test_every_patched_name_resolves():
    patches = load_tracer().PATCHES
    lib = library(patches)
    for where, attr, name, _ in patches:
        owner = lib
        for part in where.split("."):
            owner = getattr(owner, part)
        assert callable(getattr(owner, attr, None)), (where, attr, name)


def test_every_plan_span_fires():
    tracer_module = load_tracer()
    lib = library(tracer_module.PATCHES)
    # a cover market whose cover graph has edges, so every layer does work
    g = SimpleGraph(5, frozenset({(1, 2), (1, 3), (1, 4), (2, 3), (4, 5)}))
    instance, truth, matching, _ = cover_market_smti(g)
    original = lib.solvers.plan_for_matching
    tracer = tracer_module.Tracer()
    tracer.install(lib)
    try:
        plan = lib.solvers.plan_for_matching(instance, truth, matching)
    finally:
        tracer.uninstall()
    assert lib.solvers.plan_for_matching is original
    assert plan.cover_size > 0
    spans = tracer.spans
    (root,) = [i for i, span in enumerate(spans) if span[0] == "solvers.plan"]

    def under_plan(i):
        while i >= 0:
            if i == root:
                return True
            i = spans[i][3]
        return False

    fired = {span[0] for i, span in enumerate(spans) if i != root and under_plan(i)}
    assert set(PLAN_SPANS) <= fired, sorted(set(PLAN_SPANS) - fired)
