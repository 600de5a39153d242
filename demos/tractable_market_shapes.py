"""The three market shapes whose schedules come out of closed-form cover
rules, demonstrated on generated instances.

* one side fully strict: the cover graph is always empty, so the schedule
  is exactly the forced interviews;
* indifference classes of size at most 2: the cover graph decomposes into
  paths and cycles, covered by the every-other-vertex rule;
* one shared class structure per side: the cover graph decomposes into
  cliques, covered by all-but-one per clique.
"""

from interviewplan import (
    analyze_blockers,
    cover_graph,
    gale_shapley,
    generate,
    naive_cost,
    plan_for_matching,
)
from interviewplan.oracles import brute_force_cover, oracle_plan_for_matching

# covers every market below (the tiered n=6 one has 36 acceptable pairs);
# the forced interviews settle these markets, so the pruned search is quick
ORACLE_PAIR_CAP = 36


def describe(family, **kwargs):
    inst, truth = generate(family, **kwargs)
    target = gale_shapley(truth)
    report = analyze_blockers(inst, truth, target)
    graph = cover_graph(report, target)
    plan = plan_for_matching(inst, truth, target)
    oracle_cost, _ = oracle_plan_for_matching(inst, truth, target,
                                              size_cap=ORACLE_PAIR_CAP)

    print(f"--- {family} (n={kwargs['n']}, seed={kwargs['seed']}) ---")
    print(f"potential blockers: {len(report.blockers)} "
          f"({len(report.degree1)} one-sided, {len(report.degree2)} mutual)")
    print(f"mandated matched pairs: {len(report.mandated_men)}")
    degs = sorted(graph.degree(v) for v in graph.vertices)
    print(f"cover graph: {len(graph.vertices)} vertices, "
          f"{len(graph.edges)} edges, degrees {degs or '[]'}")
    print(f"schedule: cost {plan.cost} = {plan.breakdown[0]} + "
          f"{plan.breakdown[1]} + {plan.breakdown[2]} "
          f"(structure: {plan.structure.value})")
    print(f"brute-force check: {oracle_cost} "
          f"({'agree' if oracle_cost == plan.cost else 'DISAGREE'})")
    print(f"naive baseline: {naive_cost(inst)}")
    if graph.vertices:
        cover = brute_force_cover(graph)
        print(f"brute-force cover size: {len(cover)}")
    print()


def main():
    describe("one_side_strict", n=4, seed=8, tie_cap=3, density=0.9)
    describe("random_smti", n=4, seed=6, tie_cap=2, density=0.9)
    describe("master_ties", n=4, seed=12, tie_cap=4)
    describe("tiered", n=6, seed=3, tiers=[2, 2, 2])
    print("Tiered markets never schedule an interview across tiers: every "
          "stable matching pairs like-ranked agents, so cross-tier pairs "
          "are never potential blockers.")


if __name__ == "__main__":
    main()
