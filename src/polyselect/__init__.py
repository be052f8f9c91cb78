"""Polythetic few-shot classification on raw feature vectors.

Attentional classifiers and prototype baselines, a within-class
self-attention feature-selection procedure, analytic misclassification
statistics with exhaustive and Monte-Carlo oracles, and an exact Boolean
threshold-function lab, plus a seeded benchmark harness and CLI.
"""

from .bench import METHODS, RECIPES, SweepSpec, reproduce, run_sweep
from .boolefn import (
    BooleanFunction,
    ThresholdWitness,
    best_threshold_agreement,
    count_threshold,
    threshold_stats,
    verify_xor_worst,
    xor_function,
    xor_max_accuracy,
)
from .core import (
    Encoding,
    LabeledSet,
    Task,
    TaskMeta,
    encode_bits,
    one_hot,
    rng_for,
    task_from_json,
    task_seed,
    task_to_json,
)
from .kernels import (
    AttentionConfig,
    Kernel,
    attend_probs,
    predict,
    softmax_rows,
)
from .prototypes import build_prototypes, proto_classify
from .selection import (
    SelectionConfig,
    feature_scores,
    self_attention_round,
    standardize,
)
from .tasks import (
    BooleanTaskSpec,
    SphereTaskSpec,
    gen_boolean_task,
    gen_sphere_task,
    parity,
    parity_label,
)
from .theory import (
    MCResult,
    ScoreStats,
    TheoryParams,
    and_boundary,
    exhaustive_stats,
    mc_misclassification,
    pbar,
    qbar,
    snr_growth,
    support_sum_stats,
)

__version__ = "0.1.0"
