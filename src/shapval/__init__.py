"""Shapley value computation and estimation for cooperative games over data points.

Submodules, and the names re-exported here, load on first access
(PEP 562), so a process imports only the modules it uses:
``import shapval`` loads nothing else, ``shapval.knn`` loads the KNN
module and what it imports.
"""

__version__ = "0.1.0"

# submodule -> the names it re-exports
_EXPORTS = {
    "analytics": (
        "AdditivityReport",
        "LogisticModel",
        "additivity_violation",
        "fit_logistic",
        "influence_removal_logistic",
        "lambda_stable_gap_bound",
        "largest_s_values",
        "leave_one_out_marginals",
        "stability_value_gap_bound",
        "uniform_division",
    ),
    "compressive": (
        "bpdn_solve",
        "compressive_sample",
        "estimate_compressive",
        "required_t_compressive",
        "sample_bernoulli_matrix",
        "sigma_k",
    ),
    "errors": (
        "ConfigError",
        "ShapvalError",
        "SizeGuardError",
        "UnknownMethodError",
        "UtilityRangeError",
    ),
    "games": (
        "Game",
        "ValueVector",
        "exact_shapley_difference",
        "exact_shapley_permutations",
        "exact_shapley_subsets",
        "make_additive_game",
        "make_glove_game",
        "make_random_game",
        "make_symmetric_game",
        "make_voting_game",
    ),
    "group_testing": (
        "BaselineSplit",
        "GroupTestPlan",
        "estimate_group_testing",
        "optimize_split_constants",
        "recover_feasibility",
        "required_tests",
        "run_tests",
    ),
    "knn": (
        "KnnInstance",
        "knn_game",
        "knn_shapley_exact",
        "knn_shapley_testset",
    ),
    "parallel": (),
    "permutation": (
        "PermutationBudget",
        "estimate_permutation",
        "required_permutations",
    ),
    "rng": (),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}
# the star import binds these modules and names; cli, datasets and results
# load on access but stay out of it
__all__ = [*_EXPORTS, *_ORIGIN]
_SUBMODULES = {*_EXPORTS, "cli", "datasets", "results"}


def __getattr__(name: str):
    module = _ORIGIN.get(name, name)
    if module not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ returns the submodule itself given a fromlist; unlike
    # importlib.import_module, its imports show in ``python -X importtime``
    value = __import__(f"{__name__}.{module}", fromlist=[name])
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
