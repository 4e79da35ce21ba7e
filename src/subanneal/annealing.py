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

import math

import numpy as np

from .masks import MaskSet, ProbabilitySet, full_mask, realize
from .pruning import PruneSpec, make_iterative_schedule, prune_increment
from .training import finalize, fit

LINEAR = "linear"
COSINE = "cosine"
REVERSE_DROPOUT = "reverse-dropout"
FULL_SCALING = "full-scaling"


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


def init_temperature(target: MaskSet, tau0: float,
                     variant: str) -> ProbabilitySet:
    """Probabilities for a binary target mask at temperature tau0.

    Reverse dropout keeps target entries at probability 1 and lifts pruned
    entries to tau0 so they can pop back in; full scaling also drops the
    target entries to 1 - tau0.
    """
    if not 0.0 <= tau0 <= 1.0:
        raise ValueError("tau0 must lie in [0, 1]")
    if variant not in (REVERSE_DROPOUT, FULL_SCALING):
        raise ValueError(f"unknown variant {variant!r}")
    mf = target.flat.astype(np.float64)
    kept = mf if variant == REVERSE_DROPOUT else mf * (1.0 - tau0)
    # ufunc calls, not operators: numpy's operator reuse of a temporary of
    # 256 KiB or more first walks the C stack, faulting in library pages
    probs = np.add(kept, np.multiply(1.0 - mf, tau0))
    return ProbabilitySet(probs, target.copy())


def init_random(shapes: dict, rho: float, rng: np.random.Generator,
                bimodal: tuple | None = None) -> ProbabilitySet:
    """Randomly assigned initial probabilities plus their terminal targets.

    Uniform (``bimodal`` None): P ~ U[0,1]; entries below the sparsity
    target rho anneal to 0, the rest to 1. Bimodal, ``bimodal`` being
    ``(mu1, sigma1, mu2, sigma2)``: an index matrix with keep probability
    1 - rho selects between the two Gaussians, clamped into [0,1]; the
    index matrix is the terminal mask.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must lie in [0, 1)")
    if bimodal is not None:
        mu1, sigma1, mu2, sigma2 = bimodal
        if sigma1 <= 0 or sigma2 <= 0:
            raise ValueError("bimodal sigmas must be positive")
    probs = {}
    terminal = {}
    for name, shape in shapes.items():
        if bimodal is None:
            p = rng.random(shape)
            t = (p >= rho).astype(np.uint8)
        else:
            t = (rng.random(shape) < (1.0 - rho)).astype(np.uint8)
            draws0 = rng.normal(mu1, sigma1, shape)
            draws1 = rng.normal(mu2, sigma2, shape)
            p = np.clip(np.where(t == 1, draws1, draws0), 0.0, 1.0)
        probs[name] = p
        terminal[name] = t
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
    """Probability-matrix annealing from ``init`` (``init_temperature``,
    ``init_random`` or the ``anti_probability`` of either) to its terminal
    mask over ``anneal_epochs`` epochs of ``decay``."""

    def __init__(self, init: ProbabilitySet, decay: str, anneal_epochs: int):
        # an unknown decay or a negative phi fails here, not at epoch 1
        decay_fraction(decay, 0, anneal_epochs)
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
