"""Counterfactual user-preference simulation for top-N recommendation.

Learns stochastic impression/selection models of an observed log, abducts
their exogenous noise posteriors, intervenes on recommendation lists with a
learned Gaussian policy, filters the simulated feedback by confidence, and
retrains target ranking models on the augmented data. Sample-complexity
bounds for the voting and noisy-ERM guarantees ship with Monte-Carlo
verification.
"""

from .corpus import (
    ColdnessBuckets,
    InteractionLog,
    ParseError,
    Record,
    SplitPair,
    coldness_buckets,
    leave_one_out_split,
    load_mind_behaviors,
    load_native_log,
    save_native_log,
)
from .evalkit import EvalReport, coldness_report, evaluate, hr_at_n, ndcg_at_n
from .intervention import (
    CounterfactualBatch,
    Episode,
    GaussianPolicy,
    build_samples,
    pretrain_policy,
    random_list,
    realize_list,
    reinforce_update,
    run_intervention_round,
)
from .mathcore import (
    AdamState,
    RandomStream,
    TrainingError,
    adam_step,
    finite_diff_check,
    softmax,
)
from .rankers import (
    RankerHyper,
    TrainBatchSource,
    loss_pairwise,
    loss_pointwise,
    make_model,
    recommend_topn,
    train_pairwise,
    train_pointwise,
)
from .simulator import (
    ImpressionHyper,
    PosteriorHyper,
    SelectionHyper,
    SimParams,
    VariationalPosterior,
    counterfactual_select,
    fit_posterior,
    impression_logit,
    slot_probs,
    train_impression_model,
    train_selection_model,
)
from .synthgen import (
    SyntheticWorld,
    emit_dataset,
    impression_score,
    kappa1,
    kappa2,
    kappa3,
    make_world,
    sample_impressions,
    user_feedback,
)
from .theorylab import (
    bound_theorem1,
    bound_theorem2,
    exact_voting_failure,
    simulate_noisy_erm,
    simulate_voting,
)

__version__ = "0.1.0"
