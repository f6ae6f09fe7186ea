"""Shapley value computation and estimation for cooperative games over data points."""

from .analytics import (
    AdditivityReport,
    LogisticModel,
    StabilityProfile,
    additivity_violation,
    fit_logistic,
    influence_removal_logistic,
    lambda_stable_gap_bound,
    largest_s_values,
    leave_one_out_marginals,
    stability_value_gap_bound,
    uniform_division,
)
from .compressive import (
    CompressiveState,
    MeasurementMatrix,
    bpdn_solve,
    compressive_sample,
    estimate_compressive,
    required_t_compressive,
    sample_bernoulli_matrix,
    sigma_k,
)
from .errors import (
    ConfigError,
    ShapvalError,
    SizeGuardError,
    UnknownMethodError,
    UtilityRangeError,
)
from .games import (
    Game,
    ValueVector,
    exact_shapley_difference,
    exact_shapley_permutations,
    exact_shapley_subsets,
    make_additive_game,
    make_glove_game,
    make_random_game,
    make_symmetric_game,
    make_voting_game,
)
from .group_testing import (
    BaselineSplit,
    GroupTestPlan,
    build_plan,
    estimate_group_testing,
    optimize_split_constants,
    recover_feasibility,
    required_tests,
    run_tests,
)
from .knn import (
    KnnInstance,
    knn_game,
    knn_shapley_exact,
    knn_shapley_testset,
)
from .permutation import (
    PermutationBudget,
    estimate_permutation,
    required_permutations,
    sample_permutation_marginals,
)

__version__ = "0.1.0"
