"""Stochastic subnetwork annealing.

Subnetworks are represented by per-parameter retention probabilities that
decay toward a binary terminal mask over a fixed number of annealing epochs.
Two constructions are provided:

* temperature annealing: start from a binary target mask and give the
  masked-off entries an initial temperature tau0 (the reverse-dropout variant
  keeps target entries always active; full scaling also perturbs them), or
* random annealing: draw initial probabilities from a uniform or bimodal
  Gaussian distribution and anneal each entry toward 0 or 1.

``tune`` drives a network through the stochastic fine-tuning loop
(``training.fit``): update the probabilities once per epoch, draw one
Bernoulli mask per mini-batch, and finally burn the terminal mask into the
weights. From epoch phi on the probabilities are the terminal mask itself,
so the mask is burned in as those epochs start and they train the plain
weights.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .masks import MaskSet, ProbabilitySet, full_mask, realize
from .pruning import PruneSpec, make_iterative_schedule, prune_increment
from .training import finalize, fit

log = logging.getLogger(__name__)

LINEAR = "linear"
COSINE = "cosine"
REVERSE_DROPOUT = "reverse-dropout"
FULL_SCALING = "full-scaling"
UNIFORM = "uniform"
BIMODAL = "bimodal"


def decay_fraction(kind: str, epoch: int, anneal_epochs: int) -> float:
    """Remaining stochasticity in [0,1]: 1 at epoch 0, 0 from epoch phi on.

    With x = epoch / anneal_epochs, the linear decay is 1 - x and the
    cosine decay 0.5 (1 + cos(pi x)). Both endpoints are exact: either
    formula gives 1.0 at epoch 0, and every epoch from ``anneal_epochs``
    on returns 0.0.
    """
    if kind not in (LINEAR, COSINE):
        raise ValueError(f"unknown schedule kind {kind!r}")
    if anneal_epochs < 0:
        raise ValueError("anneal_epochs must be nonnegative")
    if epoch < 0:
        raise ValueError("epoch must be nonnegative")
    if epoch >= anneal_epochs:
        return 0.0
    x = epoch / anneal_epochs
    if kind == LINEAR:
        return 1.0 - x
    return 0.5 * (1.0 + math.cos(math.pi * x))


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
    mf = target.flat.astype(np.float64)
    kept = mf if cfg.variant == REVERSE_DROPOUT else mf * (1.0 - cfg.tau0)
    # ufunc calls, not operators: numpy's operator reuse of a temporary of
    # 256 KiB or more first walks the C stack, faulting in library pages
    probs = np.add(kept, np.multiply(1.0 - mf, cfg.tau0))
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
    if epoch == 0 and anneal_epochs > 0:
        return init.copy()
    d = decay_fraction(decay, epoch, anneal_epochs)
    t = init.terminal.flat
    probs = (t.astype(np.float64) if d == 0.0
             else np.add(t, np.multiply(init.flat - t, d)))
    return ProbabilitySet(probs, init.terminal.copy())


def anti_probability(ps: ProbabilitySet) -> ProbabilitySet:
    """The mirrored set P' = 1 - P annealing to the complementary mask."""
    return ProbabilitySet(1.0 - ps.flat, ps.terminal.complement())


# --- subnetwork controllers --------------------------------------------------
#
# A controller is what ``tune`` trains under: ``begin_epoch(epoch)`` moves it
# to an epoch, ``batch_mask(rng)`` gives the mask of one forward pass, and two
# attributes describe it between batches. ``mask`` is the binary mask the
# subnetwork ends with (the current one for the binary controllers, the
# annealing target for ``AnnealController``); ``probs`` is the current
# ``ProbabilitySet``, or None when every batch gets ``mask`` itself.
# ``permanent`` says that every batch of the current epoch gets ``mask`` and
# that no later epoch re-admits an entry ``mask`` switches off, so
# ``run_epoch`` may burn ``mask`` into the weights once. Binary probabilities
# alone do not make a mask permanent: full scaling at tau0=1 starts from the
# complement of its target.

class FixedMaskController:
    """A static binary mask: plain fine-tuning of a pruned subnetwork."""

    probs = None
    permanent = True

    def __init__(self, mask: MaskSet):
        self.mask = mask

    def begin_epoch(self, epoch: int) -> None:
        pass

    def batch_mask(self, rng) -> MaskSet:
        return self.mask


class IterativeController:
    """Discrete pruning at the start of each of the first phi epochs; a
    step only removes entries, so the mask is always permanent."""

    probs = None
    permanent = True

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
        self.permanent = False
        self._set_probs(init)

    def _set_probs(self, probs: ProbabilitySet) -> None:
        self.probs = probs
        # Bernoulli of a 0/1 matrix is that matrix: build it once and skip
        # the per-batch draw.
        self._binary_mask = (MaskSet(probs.flat == 1.0, probs.shapes)
                             if probs.is_binary() else None)

    def begin_epoch(self, epoch: int) -> None:
        self._set_probs(probs_at_epoch(self.init, self.decay,
                                       self.anneal_epochs, epoch))
        # from phi on the probabilities are the terminal mask for good
        self.permanent = epoch >= self.anneal_epochs

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
    """Fine-tune ``net`` under a subnetwork controller (``training.fit``),
    then burn the terminal mask into the weights and leave the network
    holding only its parameters (``clear_cache``). Returns per-epoch
    metric rows.

    ``eval_mode`` selects how test metrics are computed during the stochastic
    phase: "terminal" evaluates the revealed subnetwork, "expected" scales
    weights by the current probabilities instead. After a permanent epoch
    the weights already carry the mask, and both evaluate them unmasked.
    """
    rows = fit(net, controller, train_data, epochs, schedule, optimizer,
               batch_size, rng_shuffle, rng_mask, eval_data, eval_mode)
    finalize(net, controller.mask)
    net.clear_cache()  # a masked evaluation refilled the masked-weight buffers
    return rows
