"""Stochastic subnetwork annealing at desk scale.

Probabilistic subnetwork masks annealed toward deterministic binary masks
during fine-tuning, the one-shot and iterative pruning baselines, and
stochastic prune-and-tune ensembles, on a small numpy training core.
"""

__version__ = "0.3.0"

from .annealing import (
    AnnealController,
    AnnealSchedule,
    FixedMaskController,
    IterativeController,
    RandomAnnealConfig,
    TemperatureConfig,
    anti_controller,
    anti_probability,
    init_random,
    init_temperature,
    probs_at_epoch,
    random_anneal_controller,
    schedule_value,
    temperature_controller,
    tune,
)
from .ensemble import (
    corrupt,
    predict,
    score_ensemble,
    spawn_children,
    train_parent,
    tune_children,
)
from .masks import (
    MaskSet,
    ProbabilitySet,
    apply_mask,
    load_mask_set,
    load_probability_set,
    load_weights,
    masked_grad,
    realize,
    save_mask_set,
    save_probability_set,
    save_weights,
)
from .metrics import MetricsRecord, accuracy, ece, evaluate, nll
from .pruning import (
    PruneSpec,
    SeveredLayerError,
    magnitude_mask,
    make_iterative_schedule,
    prune_increment,
    random_mask,
)
from .rng import substream
from .training import DivergenceError, finalize, predict_logits, softmax

__all__ = [
    "AnnealController",
    "AnnealSchedule",
    "DivergenceError",
    "FixedMaskController",
    "IterativeController",
    "MaskSet",
    "MetricsRecord",
    "ProbabilitySet",
    "PruneSpec",
    "RandomAnnealConfig",
    "SeveredLayerError",
    "TemperatureConfig",
    "anti_controller",
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
    "load_probability_set",
    "load_weights",
    "magnitude_mask",
    "make_iterative_schedule",
    "masked_grad",
    "nll",
    "predict",
    "predict_logits",
    "probs_at_epoch",
    "prune_increment",
    "random_anneal_controller",
    "random_mask",
    "realize",
    "save_mask_set",
    "save_probability_set",
    "save_weights",
    "schedule_value",
    "score_ensemble",
    "softmax",
    "spawn_children",
    "substream",
    "temperature_controller",
    "train_parent",
    "tune",
    "tune_children",
]
