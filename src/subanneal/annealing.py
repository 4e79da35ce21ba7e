"""Stochastic subnetwork annealing.

Subnetworks are represented by per-parameter retention probabilities that
decay toward a binary terminal mask over a fixed number of annealing epochs.
Two constructions are provided:

* temperature annealing: start from a binary target mask and give the
  masked-off entries an initial temperature tau0 (the reverse-dropout variant
  keeps target entries always active; full scaling also perturbs them), or
* random annealing: draw initial probabilities from a uniform or bimodal
  Gaussian distribution and anneal each entry toward 0 or 1.

``tune`` drives a network through the stochastic fine-tuning loop: update the
probabilities once per epoch, draw one Bernoulli mask per mini-batch, and
finally burn the terminal mask into the weights.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .masks import MaskSet, ProbabilitySet, full_mask, realize
from .pruning import PruneSpec, make_iterative_schedule, prune_increment
from .training import finalize, predict_logits, run_epoch, softmax

log = logging.getLogger(__name__)

LINEAR = "linear"
COSINE = "cosine"
REVERSE_DROPOUT = "reverse-dropout"
FULL_SCALING = "full-scaling"
UNIFORM = "uniform"
BIMODAL = "bimodal"


@dataclass(frozen=True)
class AnnealSchedule:
    """Monotone decay from tau_max at step 0 to tau_min at step total_steps."""

    kind: str
    tau_max: float
    tau_min: float
    total_steps: int

    def __post_init__(self):
        if self.kind not in (LINEAR, COSINE):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not self.tau_max >= self.tau_min >= 0.0:
            raise ValueError("need tau_max >= tau_min >= 0")
        if self.total_steps < 0:
            raise ValueError("total_steps must be nonnegative")


def schedule_value(s: AnnealSchedule, t: int) -> float:
    """Schedule value at step t; t past the end clamps to tau_min.

    The endpoints are exact: t=0 returns tau_max and t=total_steps returns
    tau_min without floating-point drift.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if t == 0 and s.total_steps > 0:
        return s.tau_max
    if t >= s.total_steps:
        return s.tau_min
    x = t / s.total_steps
    if s.kind == LINEAR:
        return s.tau_max - (s.tau_max - s.tau_min) * x
    return s.tau_min + 0.5 * (s.tau_max - s.tau_min) * (1.0 + math.cos(math.pi * x))


def decay_fraction(kind: str, epoch: int, anneal_epochs: int) -> float:
    """Remaining stochasticity in [0,1]: 1 at epoch 0, 0 from epoch phi on."""
    return schedule_value(AnnealSchedule(kind, 1.0, 0.0, anneal_epochs), epoch)


@dataclass(frozen=True)
class TemperatureConfig:
    tau0: float = 0.5
    variant: str = REVERSE_DROPOUT
    decay: str = COSINE
    anneal_epochs: int = 5

    def __post_init__(self):
        if not 0.0 <= self.tau0 <= 1.0:
            raise ValueError("tau0 must lie in [0, 1]")
        if self.variant not in (REVERSE_DROPOUT, FULL_SCALING):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.decay not in (LINEAR, COSINE):
            raise ValueError(f"unknown decay {self.decay!r}")
        if self.anneal_epochs < 0:
            raise ValueError("anneal_epochs must be nonnegative")


@dataclass(frozen=True)
class RandomAnnealConfig:
    rho: float
    anneal_epochs: int = 5
    distribution: str = UNIFORM
    decay: str = LINEAR
    mu1: float = 0.25
    sigma1: float = 0.15
    mu2: float = 0.75
    sigma2: float = 0.15

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.distribution not in (UNIFORM, BIMODAL):
            raise ValueError(f"unknown distribution {self.distribution!r}")
        if self.decay not in (LINEAR, COSINE):
            raise ValueError(f"unknown decay {self.decay!r}")
        if self.anneal_epochs < 0:
            raise ValueError("anneal_epochs must be nonnegative")
        if self.distribution == BIMODAL and (self.sigma1 <= 0 or self.sigma2 <= 0):
            raise ValueError("bimodal sigmas must be positive")


def init_temperature(target: MaskSet, cfg: TemperatureConfig) -> ProbabilitySet:
    """Probabilities for a binary target mask at temperature tau0.

    Reverse dropout keeps target entries at probability 1 and lifts pruned
    entries to tau0 so they can pop back in; full scaling also drops the
    target entries to 1 - tau0.
    """
    probs = {}
    for name, m in target.items():
        mf = m.astype(np.float64)
        if cfg.variant == REVERSE_DROPOUT:
            probs[name] = mf + (1.0 - mf) * cfg.tau0
        else:
            probs[name] = mf * (1.0 - cfg.tau0) + (1.0 - mf) * cfg.tau0
    return ProbabilitySet(probs, target.copy())


def init_random(shapes: dict, cfg: RandomAnnealConfig,
                rng: np.random.Generator) -> ProbabilitySet:
    """Randomly assigned initial probabilities plus their terminal targets.

    Uniform: P ~ U[0,1]; entries below the sparsity target anneal to 0,
    the rest to 1. Bimodal: an index matrix with keep probability 1 - rho
    selects between two Gaussians, clamped into [0,1]; the index matrix is
    the terminal mask.
    """
    probs = {}
    terminal = {}
    clamped = total = 0
    for name, shape in shapes.items():
        if cfg.distribution == UNIFORM:
            p = rng.random(shape)
            t = (p >= cfg.rho).astype(np.uint8)
        else:
            t = (rng.random(shape) < (1.0 - cfg.rho)).astype(np.uint8)
            draws0 = rng.normal(cfg.mu1, cfg.sigma1, shape)
            draws1 = rng.normal(cfg.mu2, cfg.sigma2, shape)
            raw = np.where(t == 1, draws1, draws0)
            p = np.clip(raw, 0.0, 1.0)
            clamped += int(((raw < 0.0) | (raw > 1.0)).sum())
            total += raw.size
        probs[name] = p
        terminal[name] = t
    if total:
        # clamping (not resampling) biases the tails; worth seeing in logs
        log.info("bimodal init: clamped %.2f%% of draws into [0, 1]",
                 100.0 * clamped / total)
    return ProbabilitySet(probs, MaskSet(terminal))


def probs_at_epoch(init: ProbabilitySet, decay: str, anneal_epochs: int,
                   epoch: int) -> ProbabilitySet:
    """Interpolate every entry from its initial value toward its target.

    Epoch 0 returns the initial probabilities unchanged; epoch >= phi returns
    the terminal mask exactly (and stays there). In between, an entry carries
    ``terminal + (init - terminal) * d`` with d the remaining decay fraction,
    so pruned-target entries are nonincreasing and kept-target entries
    nondecreasing in the epoch. The difference form keeps entries whose
    initial value already equals their target exactly binary at every epoch
    (init == terminal gives terminal + 0*d with no rounding), which the
    degenerate tau0=0 equivalence relies on.
    """
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    if epoch == 0 and anneal_epochs > 0:
        return init.copy()
    d = decay_fraction(decay, epoch, anneal_epochs)
    if d == 0.0:
        return ProbabilitySet(
            {n: m.astype(np.float64) for n, m in init.terminal.items()},
            init.terminal.copy())
    probs = {n: init.terminal[n] + (p - init.terminal[n]) * d
             for n, p in init.items()}
    return ProbabilitySet(probs, init.terminal.copy())


def anti_probability(ps: ProbabilitySet) -> ProbabilitySet:
    """The mirrored set P' = 1 - P annealing to the complementary mask."""
    return ProbabilitySet({n: 1.0 - p for n, p in ps.items()},
                          ps.terminal.complement())


# --- subnetwork controllers --------------------------------------------------
#
# A controller is what ``tune`` trains under: ``begin_epoch(epoch)`` moves it
# to an epoch, ``batch_mask(rng)`` gives the mask of one forward pass, and two
# attributes describe it between batches. ``mask`` is the binary mask the
# subnetwork ends with (the current one for the binary controllers, the
# annealing target for ``AnnealController``); ``probs`` is the current
# ``ProbabilitySet``, or None when every batch gets ``mask`` itself.

class FixedMaskController:
    """A static binary mask: plain fine-tuning of a pruned subnetwork."""

    probs = None

    def __init__(self, mask: MaskSet):
        self.mask = mask

    def begin_epoch(self, epoch: int) -> None:
        pass

    def batch_mask(self, rng) -> MaskSet:
        return self.mask


class IterativeController:
    """Discrete pruning at the start of each of the first phi epochs."""

    probs = None

    def __init__(self, spec: PruneSpec, phi: int, weights: dict,
                 rng: np.random.Generator):
        self.spec = spec
        self.levels = make_iterative_schedule(spec.target_sparsity, phi)
        self.weights = weights  # live weight dict; magnitude reads current values
        self.rng = rng
        self.mask = full_mask({n: w.shape for n, w in weights.items()})

    def begin_epoch(self, epoch: int) -> None:
        if epoch < len(self.levels):
            params = self.weights if self.spec.selector == "magnitude" else None
            self.mask = prune_increment(self.mask, self.levels[epoch], self.spec,
                                        params=params, rng=self.rng)

    def batch_mask(self, rng) -> MaskSet:
        return self.mask


class AnnealController:
    """Probability-matrix annealing (temperature or random construction)."""

    def __init__(self, init: ProbabilitySet, decay: str, anneal_epochs: int):
        self.init = init
        self.decay = decay
        self.anneal_epochs = anneal_epochs
        self.mask = init.terminal
        self._set_probs(init)

    def _set_probs(self, probs: ProbabilitySet) -> None:
        self.probs = probs
        # Bernoulli of a 0/1 matrix is that matrix: build it once and skip
        # the per-batch draw.
        self._binary_mask = (MaskSet({n: p == 1.0 for n, p in probs.items()})
                             if probs.is_binary() else None)

    def begin_epoch(self, epoch: int) -> None:
        self._set_probs(probs_at_epoch(self.init, self.decay,
                                       self.anneal_epochs, epoch))

    def batch_mask(self, rng) -> MaskSet:
        if self._binary_mask is not None:
            return self._binary_mask
        return realize(self.probs, rng)


def temperature_controller(target: MaskSet,
                           cfg: TemperatureConfig) -> AnnealController:
    return AnnealController(init_temperature(target, cfg), cfg.decay,
                            cfg.anneal_epochs)


def random_anneal_controller(shapes: dict, cfg: RandomAnnealConfig,
                             rng: np.random.Generator) -> AnnealController:
    return AnnealController(init_random(shapes, cfg, rng), cfg.decay,
                            cfg.anneal_epochs)


def anti_controller(controller: AnnealController) -> AnnealController:
    """The partner controller whose probabilities mirror 1 - P every epoch."""
    return AnnealController(anti_probability(controller.init),
                            controller.decay, controller.anneal_epochs)


# --- the stochastic tuning loop ----------------------------------------------

def tune(net, controller, train_data, epochs: int, schedule, optimizer,
         batch_size: int, rng_shuffle: np.random.Generator,
         rng_mask: np.random.Generator | None = None, eval_data=None,
         eval_mode: str = "terminal"):
    """Fine-tune ``net`` under a subnetwork controller.

    Per epoch the controller updates its probabilities/mask, then every
    mini-batch samples a mask, trains with masked weights and masked
    gradients, and steps the optimizer. After the last epoch the terminal
    mask is burned into the weights. Returns per-epoch metric rows.

    ``eval_mode`` selects how test metrics are computed during the stochastic
    phase: "terminal" evaluates the revealed subnetwork, "expected" scales
    weights by the current probabilities instead.
    """
    if eval_mode not in ("terminal", "expected"):
        raise ValueError(f"unknown eval_mode {eval_mode!r}")
    x, y = train_data
    rows = []
    step = 0
    for epoch in range(epochs):
        controller.begin_epoch(epoch)
        mean_loss, steps, first_lr = run_epoch(
            net, x, y, optimizer, schedule, epoch, step, batch_size,
            rng_shuffle, controller=controller, rng_mask=rng_mask)
        step += steps
        sparsity = controller.mask.sparsity()
        row = {
            "epoch": epoch,
            "train_loss": mean_loss,
            "lr": first_lr,
            "realized_sparsity": sparsity,
            "mean_active_fraction": (1.0 - sparsity if controller.probs is None
                                     else controller.probs.mean()),
            "test_acc": None, "test_nll": None, "test_ece": None,
        }
        if eval_data is not None:
            row.update(_test_metrics(net, controller, eval_data, eval_mode))
        rows.append(row)
    finalize(net, controller.mask)
    return rows


def _test_metrics(net, controller, eval_data, eval_mode: str) -> dict:
    from .metrics import evaluate  # local import keeps module deps one-way

    xt, yt = eval_data
    if eval_mode == "expected" and controller.probs is not None:
        logits = predict_logits(net, xt, weight_scale=controller.probs.probs)
    else:
        logits = predict_logits(net, xt, mask=controller.mask)
    rec = evaluate(softmax(logits), yt)
    return {"test_acc": rec.accuracy, "test_nll": rec.nll, "test_ece": rec.ece}
