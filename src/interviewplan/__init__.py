"""interviewplan: optimal offline interview schedules for two-sided matching
markets with partially ordered preferences.

Agents start out with partial knowledge of their own preferences and refine
it through pairwise interviews, each informative to both participants.  The
library models these knowledge states, decides which refinements a set of
interviews can reach and at what cost, checks weak, strong and super
stability, and computes minimum-cost interview schedules that make a target
matching (or some matching) super-stable, validated against brute-force
oracles.
"""

from .blockers import (
    BlockerReport,
    CoverGraph,
    PotentialBlocker,
    analyze_blockers,
    cover_graph,
    format_blocker_report,
    is_resolved,
)
from .errors import (
    BadParams,
    DegreeTooHigh,
    InternalAssumptionViolated,
    InterviewPlanError,
    InvalidInstance,
    InvalidMatching,
    MatchingNotWeaklyStable,
    NotARefinement,
    NotInterviewCompatible,
    ParseError,
    ShapeMismatch,
    SizeLimitExceeded,
    TruthInconsistent,
    UnacceptableCandidate,
    UnacceptablePair,
)
from .generators import (
    OrientedGraph,
    SimpleGraph,
    connected_small_graphs,
    cover_market_smt,
    cover_market_smti,
    generate,
    orient_bounded_degree,
    random_bounded_graph,
)
from .interviews import (
    CompatibilityWitness,
    apply_interviews,
    interview_compatibility,
    interview_cost,
)
from .model import (
    MAN,
    WOMAN,
    Agent,
    Comparison,
    Instance,
    Matching,
    Pair,
    Relation,
    StrictProfile,
    ValidationReport,
    compare,
    couple,
    detect_tie_structure,
    interview_set,
    is_refinement,
    man,
    validate_instance,
    woman,
)
from .oracles import (
    brute_force_cover,
    extension_agreement,
    find_super_stable,
    linear_extensions,
    oracle_best_plan,
    oracle_plan_for_matching,
    stable_matchings,
)
from .solvers import (
    InterviewPlan,
    PlanStructure,
    best_plan,
    detect_structure,
    min_vertex_cover,
    naive_cost,
    plan_for_matching,
)
from .stability import (
    Attitude,
    Blocking,
    BlockingPair,
    Stability,
    blocking_pairs,
    gale_shapley,
    is_stable,
)

__version__ = "0.1.0"
