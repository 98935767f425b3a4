"""Counterfactual user-preference simulation for top-N recommendation.

Learns stochastic impression/selection models of an observed log, abducts
their exogenous noise posteriors, intervenes on recommendation lists with a
learned Gaussian policy, filters the simulated feedback by confidence, and
retrains target ranking models on the augmented data. Sample-complexity
bounds for the voting and noisy-ERM guarantees ship with Monte-Carlo
verification.

The names below load their module on first use, so importing the package
loads no numpy: the `cfrank` command (`cfrank.__main__`) sets its BLAS
thread default before that happens.
"""

import importlib

# module -> the public names it exports here
_EXPORTS = {
    "corpus": (
        "ColdnessBuckets", "InteractionLog", "ParseError", "Record",
        "SplitPair", "coldness_buckets", "leave_one_out_split",
        "load_mind_behaviors", "load_native_log", "save_native_log",
    ),
    "evalkit": (
        "EvalReport", "coldness_report", "evaluate", "hr_at_n", "ndcg_at_n",
    ),
    "intervention": (
        "CounterfactualBatch", "Episode", "GaussianPolicy", "pretrain_policy",
        "random_list", "realize_list", "reinforce_update",
        "run_intervention_round",
    ),
    "mathcore": (
        "AdamState", "RandomStream", "TrainingError", "adam_step", "softmax",
    ),
    "rankers": (
        "RankerHyper", "TrainingData", "loss_pairwise", "loss_pointwise",
        "make_model", "recommend_topn", "train_pairwise", "train_pointwise",
    ),
    "simulator": (
        "ImpressionHyper", "PosteriorHyper", "SelectionHyper", "SimParams",
        "VariationalPosterior", "counterfactual_select", "fit_posterior",
        "slot_probs", "train_impression_model", "train_selection_model",
    ),
    "synthgen": (
        "SyntheticWorld", "emit_dataset", "impression_score", "kappa1",
        "kappa2", "kappa3", "make_world", "sample_impressions", "user_feedback",
    ),
    "theorylab": (
        "bound_theorem1", "bound_theorem2", "exact_voting_failure",
        "simulate_noisy_erm", "simulate_voting",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_MODULE_OF))
