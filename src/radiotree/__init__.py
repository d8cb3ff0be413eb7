"""Radio labelling of two-branch trees: bounds, certificates, families, and
an exact solver for small instances."""

from .bounds import (
    bound_report,
    certify_tightness,
    liu_bound_even,
    liu_bound_odd,
    lower_bound_basic,
    lower_bound_improved,
    strict_gap_predicate,
)
from .errors import (
    BadEdge,
    BadParams,
    BadVertex,
    CertificationFailure,
    DiameterTooSmall,
    DuplicateLabel,
    ExhaustedAttempts,
    InfeasibleASequence,
    LengthMismatch,
    MissingLabel,
    NegativeLabel,
    NonIntegerLabel,
    NotAPermutation,
    NotATree,
    NotOmegaTree,
    NotTwoBranch,
    OrderTooLarge,
    OutOfRange,
    RadioTreeError,
    SparseIds,
    UnsupportedParams,
)
from .families import (
    FamilyInstance,
    gen_caterpillar,
    gen_levelwise,
    gen_lmh,
    gen_path,
    gen_random_two_branch,
    proof_order_caterpillar,
    proof_order_levelwise,
    proof_order_lmh,
    rn_binary,
    rn_caterpillar,
    rn_levelwise,
    rn_lmh,
    rn_path,
)
from .labelling import (
    JfProfile,
    RadioLabelling,
    format_labels_text,
    greedy_label_from_order,
    jf_profile,
    label_from_order,
    order_of,
    parse_labels_text,
    verify_labelling,
)
from .orders import (
    ASequence,
    a_sequence,
    check_condition_a,
    check_condition_b,
    check_ddb_conditions,
    check_order,
    is_admissible,
    is_feasible,
    maximal_remote_intervals,
)
from .solver import (
    SolveResult,
    SolveStats,
    exact_rn,
    kernel_name,
)
from .tree import (
    Tree,
    TreeMetrics,
    build_tree,
    distance_matrix,
    format_tree_text,
    metrics,
    parse_tree_text,
)

__version__ = "0.1.0"
