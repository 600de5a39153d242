"""Command-line workbench.

Subcommands: ``gen`` (write instance/truth files for a market family or a
graph-backed construction), ``check`` (validate files and report
refinement, compatibility, cost and stability), ``solve`` (compute an
optimal schedule and optionally a certificate file), ``oracle`` (brute
force reference answers), and ``bench`` (CSV sweeps).

Exit codes: 0 on success and agreement, 1 on a semantic failure such as
instability, incompatibility or oracle disagreement, 2 on usage or parse
errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import itertools
import sys
import time
from pathlib import Path

from . import __version__
from .blockers import analyze_blockers, format_blocker_report
from .errors import (
    BadParams,
    InterviewPlanError,
    InvalidInstance,
    ParseError,
    SizeLimitExceeded,
)
from .formats import (
    format_certificate,
    format_classes,
    format_instance,
    format_matching,
    format_truth,
    parse_graph,
    parse_instance,
    parse_matching,
    parse_truth,
)
from .generators import (
    connected_small_graphs,
    cover_market_smt,
    cover_market_smti,
    generate,
)
from .interviews import interview_compatibility, interview_cost
from .model import detect_tie_structure
from .oracles import (
    extension_agreement,
    find_super_stable,
    oracle_best_plan,
    oracle_plan_for_matching,
)
from .solvers import best_plan, naive_cost, plan_for_matching
from .stability import Stability, check_matching, gale_shapley, is_stable

GEN_FAMILIES = ("tiered", "random-smti", "master-ties", "one-side-strict",
                "vc3-smti", "vc3-smt")
# the graph-backed families, by the market construction each runs
GRAPH_BUILDERS = {"vc3-smti": cover_market_smti, "vc3-smt": cover_market_smt}

# completions scanned by the check command's consistency cross-check
EXTENSION_PRODUCT_CAP = 100000


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _load_instance(path: str, base: bool = True):
    warnings: list[str] = []
    instance = parse_instance(_read(path), base=base, warnings=warnings)
    for w in warnings:
        print(f"warning: {path}: {w}", file=sys.stderr)
    return instance


def _matching_str(matching) -> str:
    return "; ".join(f"{m} {w}" for m, w in matching.pairs) or "(empty)"


def _generated(args, seeds):
    """One (instance, truth) of a random family per seed, from the
    ``gen``/``bench`` options; checks them even for no seeds."""
    if args.n is None:
        raise BadParams("--n is required for random families")
    tiers = args.tiers.split(",") if args.tiers else None
    if tiers is not None:
        if not all(t.isdecimal() for t in tiers):
            raise BadParams(f"--tiers takes comma-separated sizes, not {args.tiers!r}")
        tiers = list(map(int, tiers))
    for seed in seeds:
        yield generate(args.family.replace("-", "_"), n=args.n, seed=seed,
                       tiers=tiers, tie_cap=args.tie_cap, density=args.density)


def _size_cap(args) -> dict:
    """``--cap`` as the oracles' ``size_cap`` keyword; 0 leaves their
    default."""
    return {"size_cap": args.cap} if args.cap else {}


# ---------------------------------------------------------------------------
# gen


def cmd_gen(args) -> int:
    header = [f"# generated: family={args.family} seed={args.seed}"]
    build = GRAPH_BUILDERS.get(args.family)
    if build:
        if not args.graph:
            print("error: --graph is required for graph-backed families", file=sys.stderr)
            return 2
        graph = parse_graph(_read(args.graph))
        instance, truth, matching, _ = build(graph)
        header.append(f"# graph: {args.graph} ({graph.n} vertices, {len(graph.edges)} edges)")
    else:
        (instance, truth), = _generated(args, [args.seed])
        matching = None
        header.append(f"# params: n={args.n} tiers={args.tiers or '-'} "
                      f"tie_cap={args.tie_cap} density={args.density}")

    prefix = Path(args.out)
    head = "\n".join(header) + "\n"
    paths = []
    for suffix, text in (
        ("instance", head + format_instance(instance, style=args.format)),
        ("truth", head + format_truth(truth)),
        ("matching", head + format_matching(matching) if matching else None),
    ):
        if text is None:
            continue
        path = prefix.with_name(prefix.name + f".{suffix}")
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    print("wrote " + " ".join(paths))
    return 0


# ---------------------------------------------------------------------------
# check


def cmd_check(args) -> int:
    failed = False
    try:
        instance = _load_instance(args.instance)
    except InvalidInstance as err:
        print("instance: INVALID")
        print(err.report)
        return 1
    print(f"instance: ok (kind: {instance.kind}, "
          f"{instance.n_men} men, {instance.n_women} women)")
    for a, classes in detect_tie_structure(instance).items():
        if classes is None:
            print(f"  {a}: general partial order")
        else:
            groups = format_classes(classes)
            print(f"  {a}: {groups}" if groups else f"  {a}: (empty list)")

    truth = parse_truth(_read(args.truth)) if args.truth else None
    if truth is not None:
        ok = truth.refines(instance)
        print(f"truth refines instance: {'yes' if ok else 'NO'}")
        failed |= not ok

    refined = None
    if args.refined:
        refined = parse_instance(_read(args.refined), base=False)
        try:
            witness = interview_compatibility(instance, refined)
        except InterviewPlanError as err:
            print(f"refinement: NO ({err})")
            return 1
        print("refinement: yes")
        if witness.compatible:
            cost, pairs = interview_cost(instance, refined)
            print(f"interview-compatible: yes (cost {cost})")
            print("  interviews: " + ("; ".join(f"{m} {w}" for m, w in sorted(pairs)) or "(none)"))
        else:
            agent, (c1, c2) = witness.offender
            print(f"interview-compatible: NO ({agent} would know something about "
                  f"{c1} and {c2} without being able to compare them)")
            failed = True
        if truth is not None:
            ok = truth.refines(refined)
            print(f"truth refines refined: {'yes' if ok else 'NO'}")
            failed |= not ok

    matching = parse_matching(_read(args.matching)) if args.matching else None
    if matching is not None:
        try:
            check_matching(instance, matching)
        except InterviewPlanError as err:
            print(f"matching: INVALID ({err})")
            return 1
        print(f"matching: ok ({_matching_str(matching)})")
        for level in (Stability.WEAK, Stability.STRONG, Stability.SUPER):
            verdict = is_stable(instance, matching, level)
            print(f"  {level.value}-stable in instance: {'yes' if verdict else 'no'}")
        if truth is not None and truth.refines(instance):
            try:
                report = analyze_blockers(instance, truth, matching)
            except InterviewPlanError as err:
                print(f"blocker analysis: unavailable ({err})")
            else:
                print(format_blocker_report(report, matching), end="")
        try:
            agree = extension_agreement(instance, matching,
                                        product_cap=EXTENSION_PRODUCT_CAP)
            print(f"  super-stability matches every-completion stability: "
                  f"{'yes' if agree else 'NO'}")
            failed |= not agree
        except SizeLimitExceeded as err:
            print(f"  super-stability vs completions: skipped ({err})")

    if refined is not None and matching is not None:
        verdict = is_stable(refined, matching, Stability.SUPER)
        print(f"refined super-stable for matching: {'yes' if verdict else 'NO'}")
        failed |= not verdict
    elif refined is not None:
        try:
            found = find_super_stable(refined, size_cap=args.cap)
        except SizeLimitExceeded as err:
            print(f"refined admits super-stable matching: skipped ({err})")
        else:
            if found is None:
                print("refined admits super-stable matching: NO")
                failed = True
            else:
                print(f"refined admits super-stable matching: yes ({_matching_str(found)})")

    return 1 if failed else 0


# ---------------------------------------------------------------------------
# solve


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    truth = parse_truth(_read(args.truth))
    baseline = naive_cost(instance)

    if args.min_icr:
        plan, matching = best_plan(instance, truth, size_cap=args.cap)
        print(f"matching: {_matching_str(matching)}")
    else:
        if not args.matching:
            print("error: a matching file is required without --min-icr", file=sys.stderr)
            return 2
        matching = parse_matching(_read(args.matching))
        plan = plan_for_matching(instance, truth, matching)

    b, m, c = plan.breakdown
    print(f"cost={plan.cost} breakdown={b}+{m}+{c} "
          f"structure={plan.structure.value} naive={baseline}")

    if args.out:
        Path(args.out).write_text(format_certificate(plan, naive=baseline),
                                  encoding="utf-8")
        print(f"wrote {args.out}")

    if args.oracle_verify:
        try:
            if args.min_icr:
                oracle_cost = oracle_best_plan(instance, truth)[0]
            else:
                oracle_cost = oracle_plan_for_matching(instance, truth, matching)[0]
        except SizeLimitExceeded as err:
            print(f"oracle: skipped ({err})")
            return 0
        agree = oracle_cost == plan.cost
        print(f"oracle: {'agree' if agree else 'DISAGREE'} (cost={oracle_cost})")
        return 0 if agree else 1
    return 0


# ---------------------------------------------------------------------------
# oracle


def cmd_oracle(args) -> int:
    instance = _load_instance(args.instance)
    truth = parse_truth(_read(args.truth))
    if args.min_icr:
        cost, interviews, matching = oracle_best_plan(instance, truth, **_size_cap(args))
        print(f"cost={cost}")
        print(f"matching: {_matching_str(matching)}")
    else:
        if not args.matching:
            print("error: a matching file is required without --min-icr", file=sys.stderr)
            return 2
        matching = parse_matching(_read(args.matching))
        cost, interviews = oracle_plan_for_matching(
            instance, truth, matching, mode=args.mode, **_size_cap(args))
        print(f"cost={cost} mode={args.mode}")
    print("interviews: " + ("; ".join(f"{m} {w}" for m, w in sorted(interviews)) or "(none)"))
    return 0


# ---------------------------------------------------------------------------
# bench

BENCH_COLUMNS = ("instance_id", "family", "n_men", "n_women", "pbp_count",
                 "pbp1_count", "pbp2_count", "m_prime_size", "vc_size",
                 "solver_cost", "oracle_cost", "naive_cost", "structure_used",
                 "runtime_ms", "error")


def _bench_trials(args):
    """Yield (instance_id, family, instance, truth, matching|None).  Every
    option is checked, and a graph family's graphs are read and its markets
    built, before the first trial is yielded."""
    build = GRAPH_BUILDERS.get(args.family)
    if build:
        if args.graph_dir:
            paths = sorted(Path(args.graph_dir).glob("*.graph"))
            graphs = [parse_graph(p.read_text(encoding="utf-8")) for p in paths]
            ids = [p.stem for p in paths]
        elif args.max_n:
            graphs = connected_small_graphs(args.max_n)
            ids = [f"graph{i:03d}" for i in range(len(graphs))]
        else:
            raise BadParams("graph-backed families need --graph-dir or --max-n")
        markets = [build(graph)[:3] for graph in graphs]
        for gid, (instance, truth, matching) in zip(ids, markets):
            yield gid, args.family, instance, truth, matching
    else:
        seeds = range(args.seed, args.seed + args.trials)
        for trial, (instance, truth) in enumerate(_generated(args, seeds)):
            yield f"{args.family}-{trial:04d}", args.family, instance, truth, None


def cmd_bench(args) -> int:
    # a usage error raises by the first trial, before --out is opened and
    # emptied, so it leaves an existing file as it was
    trials = _bench_trials(args)
    first = list(itertools.islice(trials, 1))
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    writer = csv.writer(out)
    writer.writerow(BENCH_COLUMNS)
    try:
        for instance_id, family, instance, truth, matching in itertools.chain(first, trials):
            row = {"instance_id": instance_id, "family": family,
                   "n_men": instance.n_men, "n_women": instance.n_women,
                   "naive_cost": naive_cost(instance), "error": ""}
            try:
                if matching is None:
                    matching = gale_shapley(truth)
                started = time.perf_counter()
                plan = plan_for_matching(instance, truth, matching)
                elapsed_ms = round((time.perf_counter() - started) * 1000)
                report = plan.report
                row.update({
                    "pbp_count": len(report.blockers),
                    "pbp1_count": len(report.degree1),
                    "pbp2_count": len(report.degree2),
                    "m_prime_size": len(report.mandated_men),
                    "vc_size": plan.cover_size,
                    "solver_cost": plan.cost,
                    "structure_used": plan.structure.value,
                    "runtime_ms": "" if args.omit_runtime else elapsed_ms,
                })
                try:
                    oracle_cost, _ = oracle_plan_for_matching(
                        instance, truth, matching, **_size_cap(args))
                    row["oracle_cost"] = oracle_cost
                except SizeLimitExceeded:
                    row["oracle_cost"] = ""
            except InterviewPlanError as err:
                row["error"] = str(err)
            writer.writerow([row.get(col, "") for col in BENCH_COLUMNS])
    finally:
        if args.out:
            out.close()
    if args.out:
        print(f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interviewplan",
        description="Optimal interview schedules for matching markets "
                    "with partial preference information.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate instance/truth files")
    p.add_argument("--family", choices=GEN_FAMILIES, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--tiers", help="comma-separated tier sizes, e.g. 2,2")
    p.add_argument("--tie-cap", type=int, default=3)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--graph", help="graph file for graph-backed families")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("smti", "smpi"), default=None)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="validate files and report stability")
    p.add_argument("instance")
    p.add_argument("--refined")
    p.add_argument("--truth")
    p.add_argument("--matching")
    p.add_argument("--cap", type=int, default=8,
                   help="most agents per side for the super-stable search of --refined "
                        "without --matching (0 skips it on any non-empty market)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="compute an optimal interview schedule")
    p.add_argument("instance")
    p.add_argument("truth")
    p.add_argument("--matching")
    p.add_argument("--min-icr", action="store_true",
                   help="minimize over all admissible target matchings")
    p.add_argument("--oracle-verify", action="store_true")
    p.add_argument("--cap", type=int, default=8,
                   help="most agents per side for the stable-matching screen of "
                        "--min-icr (0 refuses any non-empty market)")
    p.add_argument("--out", help="certificate output path")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("oracle", help="brute-force reference answers")
    p.add_argument("instance")
    p.add_argument("truth")
    p.add_argument("--matching")
    p.add_argument("--min-icr", action="store_true")
    p.add_argument("--mode", choices=("pure", "pruned"), default="pruned")
    p.add_argument("--cap", type=int, default=0,
                   help="most acceptable pairs the search runs on (0 keeps the default)")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("bench", help="run seeded sweeps, write CSV")
    p.add_argument("--family", choices=GEN_FAMILIES, required=True)
    p.add_argument("--n", type=int)
    p.add_argument("--tiers")
    p.add_argument("--tie-cap", type=int, default=3)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--graph-dir")
    p.add_argument("--max-n", type=int,
                   help="sweep all connected max-degree-3 graphs up to this size")
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=int, default=0,
                   help="most acceptable pairs the oracle_cost search runs on, blank "
                        "above it (0 keeps the default)")
    p.add_argument("--omit-runtime", action="store_true",
                   help="blank the runtime column for byte-reproducible CSVs")
    p.add_argument("--out", help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bench)
    return parser


# Built on the first call to main, not at import, and kept for the
# process: parse_args returns a fresh namespace each time and leaves the
# parser as it found it.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "cap", 0) < 0:
            raise BadParams(f"--cap takes a count of 0 or more, not {args.cap}")
        return args.func(args)
    except (ParseError, BadParams) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except InvalidInstance as err:
        print(f"error: invalid instance:\n{err.report}", file=sys.stderr)
        return 2
    except InterviewPlanError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
