"""Stochastic subnetwork annealing at desk scale.

Probabilistic subnetwork masks annealed toward deterministic binary masks
during fine-tuning, the one-shot and iterative pruning baselines, and
stochastic prune-and-tune ensembles, on a small numpy training core.
"""

__version__ = "0.4.0"

from .annealing import (
    AnnealController,
    FixedMaskController,
    IterativeController,
    anti_probability,
    init_random,
    init_temperature,
    probs_at_epoch,
    tune,
)
from .ensemble import (
    corrupt,
    member_controller,
    score_ensemble,
    train_parent,
)
from .masks import (
    MaskSet,
    ProbabilitySet,
    apply_mask,
    load_mask_set,
    load_weights,
    masked_grad,
    realize,
    save_mask_set,
    save_weights,
)
from .metrics import MetricsRecord, accuracy, ece, evaluate, softmax
from .pruning import (
    PruneSpec,
    SeveredLayerError,
    magnitude_mask,
    make_iterative_schedule,
    prune_increment,
    random_mask,
)
from .rng import substream
from .training import DivergenceError, finalize, predict_logits

__all__ = [
    "AnnealController",
    "DivergenceError",
    "FixedMaskController",
    "IterativeController",
    "MaskSet",
    "MetricsRecord",
    "ProbabilitySet",
    "PruneSpec",
    "SeveredLayerError",
    "accuracy",
    "anti_probability",
    "apply_mask",
    "corrupt",
    "ece",
    "evaluate",
    "finalize",
    "init_random",
    "init_temperature",
    "load_mask_set",
    "load_weights",
    "magnitude_mask",
    "make_iterative_schedule",
    "masked_grad",
    "member_controller",
    "predict_logits",
    "probs_at_epoch",
    "prune_increment",
    "random_mask",
    "realize",
    "save_mask_set",
    "save_weights",
    "score_ensemble",
    "softmax",
    "substream",
    "train_parent",
    "tune",
]
