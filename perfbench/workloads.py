"""Seeded market pools, solve calls and correctness checks for the four
benchmark workloads.

Every pool is fixed: its markets come from contiguous generator seeds, so
each schedule it yields has a pinned digest in ``reference.json``.  The
library is passed in as ``lib`` (see ``run.load_library``) rather than
imported here, because each set-up repetition imports it afresh.

Each solve gets fresh ``Instance``, ``StrictProfile`` and ``Matching``
objects, so per-object caches in the library never carry over from one
cycle of the pool to the next: every solve costs what a new market costs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

# The four generator families that dense-plan and best-plan-small draw from.
FAMILIES = (("random_smti", {"density": 0.5}), ("master_ties", {}),
            ("tiered", {}), ("one_side_strict", {}))

# Pool sizes trade markets for repeats: a market's solve time is the median
# of its repeats (see run.py), and it settles only after several of them.
DENSE_N = 50
DENSE_SEEDS = range(3)
COVER_NS = (30, 40)
COVER_SEEDS = range(20)
BEST_N = 6
BEST_SEEDS = range(6)
CLI_N = 40
CLI_SEEDS = range(12)
DESK_SEEDS = range(3)
DESK_COVER_N = 8


@dataclass
class Item:
    """One entry of a workload's pool: what a solve needs, plus its id."""

    id: str
    instance: Any = None
    truth: Any = None
    target: Any = None
    extra: dict = field(default_factory=dict)


def _pairs_str(pairs) -> str:
    return " ".join(f"{m}-{w}" for m, w in sorted(pairs))


def plan_digest(item_id: str, target, plan, witness) -> str:
    """Digest of market id, target, cost, breakdown, sorted interview set
    and witness matching."""
    text = "|".join((
        item_id,
        _pairs_str(target.pairs),
        str(plan.cost),
        ",".join(str(x) for x in plan.breakdown),
        _pairs_str(plan.interviews),
        _pairs_str(witness.pairs),
    ))
    return hashlib.sha256(text.encode()).hexdigest()


def fresh(lib, item: Item):
    """Copies of the item's market objects with empty caches."""
    inst = item.instance
    return (lib.model.Instance(inst.n_men, inst.n_women, inst.relations, base=inst.base),
            lib.model.StrictProfile(item.truth.ranking),
            lib.model.Matching(item.target.pairs) if item.target is not None else None)


def verify_plan(lib, instance, target, plan) -> list[str]:
    """Re-check one schedule from outside: the refined state makes the
    target super-stable, and recovering the interview set from that state
    gives back the plan's cost."""
    problems = []
    if not lib.stability.is_stable(plan.refined, target, lib.stability.Stability.SUPER):
        problems.append("target is not super-stable after the schedule")
    recovered, _ = lib.interviews.interview_cost(instance, plan.refined)
    if recovered != plan.cost:
        problems.append(f"interview_cost gives {recovered}, plan says {plan.cost}")
    return problems


class Workload:
    """A pool of markets and the public call that solves one of them."""

    name: str

    def build(self, lib, workdir: Path) -> list[Item]:
        raise NotImplementedError

    def call(self, lib, item: Item) -> Callable[[], Any]:
        """A zero-argument callable that performs exactly one solve."""
        raise NotImplementedError

    def digest(self, item: Item, result) -> str:
        raise NotImplementedError

    def verify(self, lib, item: Item, result) -> list[str]:
        raise NotImplementedError


class DensePlan(Workload):
    name = "dense-plan"

    def build(self, lib, workdir):
        items = []
        for family, kw in FAMILIES:
            for seed in DENSE_SEEDS:
                instance, truth = lib.generators.generate(family, n=DENSE_N, seed=seed, **kw)
                for side in (lib.model.MAN, lib.model.WOMAN):
                    target = lib.stability.gale_shapley(truth, side)
                    items.append(Item(f"{family}-n{DENSE_N}-s{seed}-{side}opt",
                                      instance, truth, target))
        return items

    def call(self, lib, item):
        instance, truth, target = fresh(lib, item)
        return lambda: lib.solvers.plan_for_matching(instance, truth, target)

    def digest(self, item, plan):
        return plan_digest(item.id, item.target, plan, item.target)

    def verify(self, lib, item, plan):
        return verify_plan(lib, item.instance, item.target, plan)


class CoverBB(DensePlan):
    name = "cover-bb"

    def build(self, lib, workdir):
        items = []
        for n in COVER_NS:
            for seed in COVER_SEEDS:
                graph = lib.generators.random_bounded_graph(n, 3, seed)
                instance, truth, matching, _ = lib.generators.cover_market_smti(graph)
                items.append(Item(f"vc3-n{n}-s{seed}", instance, truth, matching,
                                  {"edges": len(graph.edges)}))
        return items

    def verify(self, lib, item, plan):
        problems = verify_plan(lib, item.instance, item.target, plan)
        if plan.cost != plan.cover_size + item.extra["edges"]:
            problems.append(f"cost {plan.cost} != cover {plan.cover_size} "
                            f"+ |E| {item.extra['edges']}")
        return problems


class BestPlanSmall(Workload):
    name = "best-plan-small"

    def build(self, lib, workdir):
        items = []
        for family, kw in FAMILIES:
            for seed in BEST_SEEDS:
                instance, truth = lib.generators.generate(family, n=BEST_N, seed=seed, **kw)
                items.append(Item(f"{family}-n{BEST_N}-s{seed}", instance, truth))
        return items

    def call(self, lib, item):
        instance, truth, _ = fresh(lib, item)
        return lambda: lib.solvers.best_plan(instance, truth)

    def digest(self, item, result):
        plan, witness = result
        return plan_digest(item.id, witness, plan, witness)

    def verify(self, lib, item, result):
        plan, witness = result
        return verify_plan(lib, item.instance, witness, plan)


class CliBench(Workload):
    """``interviewplan bench`` called in-process, one trial per call."""

    name = "cli-bench"

    def build(self, lib, workdir):
        return [Item(f"master-ties-n{CLI_N}-s{seed}",
                     extra={"seed": seed, "csv": workdir / "bench.csv"})
                for seed in CLI_SEEDS]

    def call(self, lib, item):
        csv_path = item.extra["csv"]
        argv = ["bench", "--family", "master-ties", "--n", str(CLI_N),
                "--trials", "1", "--seed", str(item.extra["seed"]),
                "--omit-runtime", "--out", str(csv_path)]

        def run():
            # the command prints "wrote <path>"; keep stdout for the result
            with contextlib.redirect_stdout(io.StringIO()):
                code = lib.cli.main(argv)
            return code, csv_path.read_bytes()
        return run

    def digest(self, item, result):
        code, data = result
        return hashlib.sha256(b"%d|" % code + data).hexdigest()

    def verify(self, lib, item, result):
        code, data = result
        problems = [] if code == 0 else [f"exit code {code}"]
        rows = data.decode().splitlines()
        if len(rows) != 2 or not rows[1].endswith(",,"):
            problems.append(f"expected one error-free row, got {rows[1:]}")
        return problems


WORKLOADS = {w.name: w for w in (DensePlan(), CoverBB(), BestPlanSmall(), CliBench())}


# ---------------------------------------------------------------------------
# desk-scale cross-check against the brute-force oracles


def desk_check(lib, sizes, untraced=contextlib.nullcontext) -> tuple[int, list[str]]:
    """Solve desk-scale copies of every workload's markets and compare with
    the oracles.  Returns the number of comparisons and the problems found.

    ``untraced`` is a context factory entered around each oracle call, so
    that a traced run never times the reference.
    """
    gen, solvers, oracles = lib.generators, lib.solvers, lib.oracles
    checks, problems = 0, []
    for n in sizes:
        for family, kw in FAMILIES:
            for seed in DESK_SEEDS:
                where = f"{family} n={n} seed={seed}"
                instance, truth = gen.generate(family, n=n, seed=seed, **kw)
                for side in (lib.model.MAN, lib.model.WOMAN):
                    target = lib.stability.gale_shapley(truth, side)
                    plan = solvers.plan_for_matching(instance, truth, target)
                    problems += verify_plan(lib, instance, target, plan)
                    with untraced():
                        cost, _ = oracles.oracle_plan_for_matching(instance, truth, target)
                    checks += 1
                    if cost != plan.cost:
                        problems.append(f"{where} {side}-optimal: solver {plan.cost}, "
                                        f"oracle {cost}")
                plan, witness = solvers.best_plan(instance, truth)
                problems += verify_plan(lib, instance, witness, plan)
                with untraced():
                    cost, _, _ = oracles.oracle_best_plan(instance, truth)
                checks += 1
                if cost != plan.cost:
                    problems.append(f"{where} best plan: solver {plan.cost}, oracle {cost}")
    for seed in DESK_SEEDS:
        graph = gen.random_bounded_graph(DESK_COVER_N, 3, seed)
        instance, truth, matching, cost_of = gen.cover_market_smti(graph)
        plan = solvers.plan_for_matching(instance, truth, matching)
        problems += verify_plan(lib, instance, matching, plan)
        with untraced():
            cover = oracles.brute_force_cover(graph)
        checks += 1
        if plan.cost != cost_of(len(cover)):
            problems.append(f"vc3 n={DESK_COVER_N} seed={seed}: solver {plan.cost}, "
                            f"brute-force cover gives {cost_of(len(cover))}")
    for n in sizes:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = lib.cli.main(["bench", "--family", "master-ties", "--n", str(n),
                                 "--trials", str(len(DESK_SEEDS)), "--omit-runtime"])
        rows = out.getvalue().splitlines()
        header = rows[0].split(",")
        for row in rows[1:]:
            cells = dict(zip(header, row.split(",")))
            checks += 1
            if code != 0 or cells["error"] or cells["solver_cost"] != cells["oracle_cost"]:
                problems.append(f"bench master-ties n={n}: {row}")
    return checks, problems
