"""Solver benchmark: seeded market pools timed through the library's public
entry points, with every schedule checked against a pinned reference.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense-plan --seed 1 --seconds 15 --trace 0

One process, one thread, closed loop: each solve starts when the previous
one returns.  The loop cycles the workload's fixed pool in an order drawn
from ``--seed``, in whole passes, until ``--seconds`` have passed on the
loop clock, at least ``MIN_SOLVES`` solves completed and every market was
solved ``MIN_PASSES`` times.  The first pass also re-verifies every result,
off the loop clock.

Each market's solve time is the median of its repeats.  The shared host
this was tuned on runs at two speeds about 1.6x apart: mostly the slower,
with bursts of the faster lasting milliseconds to seconds, and a changing
share of them from one minute to the next.  The fastest repeat of a market
lands in whichever burst it happened to catch, and the median of all solves
falls between the clusters of the pool's solve times: across 30-second
stretches of one long run they spread by a quarter and by a half.  The median of each market's repeats settles on the
prevailing speed.  The end-to-end figures are taken over these per-market
times: ``solves_per_s`` is the pool size over their sum, ``solve_ms_p50``
and ``solve_ms_p90`` are their median and 90th percentile.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` is the separate
traced run: the first pass is traced and counted, then untraced and traced
passes alternate for the overhead figure, and the per-layer metrics are
printed; the spans are written to ``perfbench/out/`` at the end.  The last
line of standard output is one JSON object; the exit code is 1 when any
check fails.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import statistics
import sys
import tempfile
import warnings
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

from tracer import COUNTS, Tracer  # noqa: E402
from workloads import WORKLOADS, desk_check  # noqa: E402

SETUP_REPEATS = 5
MIN_SOLVES = 100
MIN_PASSES = 5
DESK_SIZES = (3,)
MODULES = ("model", "stability", "blockers", "interviews", "solvers",
           "generators", "oracles", "cli")


def load_library() -> SimpleNamespace:
    """Import ``interviewplan`` from this checkout's ``src``, dropping any
    copy imported before, so that every set-up pays the import."""
    src = ROOT / "src"
    if not (src / "interviewplan" / "__init__.py").is_file():
        raise SystemExit(f"error: no interviewplan sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules
                 if m == "interviewplan" or m.startswith("interviewplan.")]:
        del sys.modules[name]
    package = importlib.import_module("interviewplan")
    if not Path(package.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: imported {package.__file__}, not the copy under {src}")
    return SimpleNamespace(**{m: importlib.import_module(f"interviewplan.{m}")
                              for m in MODULES})


class Run:
    """Solves of one benchmark run, with their checks and failures."""

    def __init__(self, workload, lib, reference, tracer):
        self.workload, self.lib = workload, lib
        self.reference, self.tracer = reference, tracer
        self.attempted = 0
        self.problems: list[str] = []
        self.check_seconds = 0.0

    def solve(self, item, verify: bool, count: bool = False) -> float | None:
        """One solve, timed alone.  The digest check follows it; with
        ``verify`` the result is re-verified too, and that time is added to
        ``check_seconds``.  Returns the solve's wall time, or None when it
        raised."""
        wl, lib, tracer = self.workload, self.lib, self.tracer
        call = wl.call(lib, item)
        if tracer:
            tracer.solve_id = self.attempted
        self.attempted += 1
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            started = perf_counter()
            try:
                result = call()
            except Exception as err:  # a raising solve is a failed solve
                self.problems.append(f"{item.id}: {type(err).__name__}: {err}")
                return None
            finally:
                elapsed = perf_counter() - started
        if count:
            tracer.counts["solvers.fallback_fired"] += sum(
                issubclass(w.category, RuntimeWarning) for w in caught)
        issues = []
        if wl.digest(item, result) != self.reference.get(item.id):
            issues.append("differs from the pinned reference")
        if verify:
            checked = perf_counter()
            if tracer:
                tracer.phase, phase = "verify", tracer.phase
            issues += wl.verify(lib, item, result)
            if tracer:
                tracer.phase = phase
            self.check_seconds += perf_counter() - checked
        if issues:
            self.problems.append(f"{item.id}: {'; '.join(issues)}")
        return elapsed

    def failed_frac(self) -> float:
        return len(self.problems) / self.attempted

    def one_pass(self, order, times: dict, verify: bool = False,
                 count: bool = False) -> int:
        """Solve every item once, appending each time to ``times`` (item id
        to list of times); returns the number of solves that completed."""
        done = 0
        for item in order:
            elapsed = self.solve(item, verify, count)
            if elapsed is not None:
                times.setdefault(item.id, []).append(elapsed)
                done += 1
        return done


def per_market(times: dict) -> list[float]:
    """Each market's median solve time."""
    return [statistics.median(repeats) for repeats in times.values()]


def setup(workload, workdir: Path, tracer: Tracer | None):
    """Import, build the pool (markets and targets) and warm up with one
    solve; returns the library, the pool and the seconds it took."""
    started = perf_counter()
    lib = load_library()
    if tracer:
        tracer.install(lib)
        tracer.phase = "setup"
    pool = workload.build(lib, workdir)
    if tracer:
        tracer.phase = "warmup"
    workload.call(lib, pool[0])()
    if tracer:
        tracer.uninstall()
    return lib, pool, perf_counter() - started


def end_to_end(run: Run, order, seconds: float, setup_times) -> dict:
    times: dict[str, list[float]] = {}
    solves = passes = 0
    wall = 0.0
    while passes < MIN_PASSES or solves < MIN_SOLVES or wall < seconds:
        checks_before = run.check_seconds
        started = perf_counter()
        solves += run.one_pass(order, times, verify=passes == 0)
        wall += perf_counter() - started - (run.check_seconds - checks_before)
        passes += 1
    print(f"{solves} solves in {passes} passes of {len(order)}, "
          f"{wall:.2f} s on the loop clock")
    medians = per_market(times)
    return {
        "solves_per_s": (len(medians) / sum(medians), "1/s"),
        "solve_ms_p50": (statistics.median(medians) * 1000, "ms"),
        "solve_ms_p90": (statistics.quantiles(medians, n=10)[-1] * 1000, "ms"),
        "failed_frac": (run.failed_frac(), "frac"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced(run: Run, tracer: Tracer, order, seconds: float) -> float:
    """First pass traced and counted, then untraced and traced passes in
    turn until ``seconds`` have passed.  Returns the tracing overhead:
    traced over untraced time of the pool at per-market medians, minus 1."""
    lib = run.lib
    started = perf_counter()
    tracer.install(lib)
    tracer.phase, tracer.counting = "count", True
    run.one_pass(order, {}, verify=True, count=True)
    tracer.counting = False
    untraced: dict[str, list[float]] = {}
    traced_times: dict[str, list[float]] = {}
    while not traced_times or perf_counter() - started < seconds:
        tracer.uninstall()
        run.one_pass(order, untraced)
        tracer.install(lib)
        tracer.phase = "loop"
        run.one_pass(order, traced_times)
    return sum(per_market(traced_times)) / sum(per_market(untraced)) - 1


def per_layer(tracer: Tracer, overhead: float) -> dict:
    metrics = {name: (value, "ms") for name, value in tracer.layer_metrics().items()}
    metrics["trace.overhead_frac"] = (overhead, "ratio")
    for name in COUNTS:
        metrics[name] = (tracer.counts[name], "count")
    naive = tracer.counts["solvers.naive_cost"]
    metrics["solvers.cost_over_naive"] = (
        tracer.counts["solvers.interviews"] / naive if naive else 0.0, "ratio")
    return metrics


def print_layer_table(tracer: Tracer) -> None:
    """Self time per layer over the traced loop passes, and each layer's
    inclusive share of the time spent in top-level solves."""
    roots = sum(end - start for _, start, end, parent, _, phase in tracer.spans
                if parent < 0 and phase == "loop")
    inclusive = tracer.totals("loop")
    print(f"{'layer (traced loop passes)':32} {'calls':>7} {'self_s':>9} "
          f"{'self%':>6} {'incl%':>6}")
    for name, calls, own in tracer.self_time_table("loop"):
        print(f"{name:32} {calls:7d} {own:9.4f} {100 * own / roots:6.1f} "
              f"{100 * inclusive[name] / roots:6.1f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    reference = json.loads((HERE / "reference.json").read_text())[workload.name]
    tracer = Tracer() if args.trace else None

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            lib, pool, took = setup(workload, Path(workdir), tracer)
            setup_times.append(took)
        # The pool outlives every solve; keep the collector from rescanning
        # it, as it would not exist for a caller solving one market.
        gc.collect()
        gc.freeze()
        order = list(pool)
        random.Random(args.seed).shuffle(order)
        run = Run(workload, lib, reference, tracer)
        if tracer:
            overhead = traced(run, tracer, order, args.seconds)
            tracer.phase = "desk"
            checks, desk_problems = desk_check(lib, DESK_SIZES,
                                               lambda: tracer.suspended(lib))
            tracer.uninstall()
            metrics = per_layer(tracer, overhead)
        else:
            metrics = end_to_end(run, order, args.seconds, setup_times)
            checks, desk_problems = desk_check(lib, DESK_SIZES)

    print(f"desk-scale oracle cross-check: {checks} comparisons, "
          f"{len(desk_problems)} problems")
    problems = run.problems + desk_problems
    for problem in problems[:20]:
        print(f"FAILED {problem}")
    if tracer:
        print_layer_table(tracer)
        spans = OUT / f"spans-{workload.name}-seed{args.seed}.json"
        tracer.write(spans)
        print(f"wrote {len(tracer.spans)} spans to {spans.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    if not tracer:
        del metrics["failed_frac"]  # carried by "attempted" and "failed"
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted + checks,
        "failed": len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
