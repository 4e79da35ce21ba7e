"""SGD (with Nesterov momentum) and Adam.

Weight decay couples into the gradient before the momentum update, the
classic formulation. Hyperparameters are fixed at construction; the learning
rate is supplied per step so schedules stay outside the optimizer.

A step updates the flat parameters from the flat gradient (``Network.flat``
and ``Network.grad``, laid out by ``nn.layers``) in one numpy call per
operation; velocity and moments are flat arrays of that layout.
``mask_state(mask)`` zeroes the state of masked-off weights, the prefix the
flat ``mask`` covers. With the weight itself zero and its gradient masked,
every later step leaves that entry's weight, velocity and moments at zero.
"""

import numpy as np


def _check(params: np.ndarray, grads: np.ndarray, lr: float) -> None:
    if lr <= 0:
        raise ValueError("lr must be positive")
    if grads.shape != params.shape:
        raise ValueError(f"grad shape {grads.shape} != {params.shape}")


class SGD:
    def __init__(self, lr: float, momentum: float = 0.0, nesterov: bool = False,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov requires momentum > 0")
        self.lr = lr
        self.momentum = momentum
        self.nesterov = nesterov
        self.weight_decay = weight_decay
        self._velocity = None
        # one work array, or two when weight decay and Nesterov both need
        # their own (decayed gradient, then the update)
        self._scratch = None

    def step(self, params: np.ndarray, grads: np.ndarray,
             lr: float | None = None) -> None:
        """Update the flat array ``params`` in place from ``grads``.

        All arithmetic happens in place, in the optimizer's own arrays; the
        operations and their rounding are those of ``p -= lr * d`` with
        ``g = g + wd * p``, ``v = momentum * v + g`` and ``d = g + momentum * v``
        (Nesterov) or ``d = v``. ``grads`` is never written.
        """
        lr = self.lr if lr is None else lr
        _check(params, grads, lr)
        if self._scratch is None:
            count = 2 if self.weight_decay and self.nesterov else 1
            self._scratch = [np.empty_like(params) for _ in range(count)]
        d = self._scratch[-1]
        g = grads
        if self.weight_decay:
            g = np.multiply(params, self.weight_decay, out=self._scratch[0])
            g += grads
        if self.momentum:
            if self._velocity is None:
                self._velocity = np.zeros_like(params)
            v = self._velocity
            v *= self.momentum
            v += g
            if self.nesterov:
                np.multiply(v, self.momentum, out=d)
                d += g
                d *= lr
            else:
                np.multiply(v, lr, out=d)
        else:
            np.multiply(g, lr, out=d)
        params -= d

    def mask_state(self, mask: np.ndarray) -> None:
        """Multiply the weights' velocity by the flat ``mask`` in place."""
        if self._velocity is not None:
            self._velocity[:mask.size] *= mask


class Adam:
    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError("lr must be positive")
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ValueError("betas must lie in [0, 1)")
        if weight_decay < 0:
            raise ValueError("weight_decay must be nonnegative")
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = self._v = None
        self._t = 0

    def step(self, params: np.ndarray, grads: np.ndarray,
             lr: float | None = None) -> None:
        """Update the flat array ``params`` in place from ``grads``."""
        lr = self.lr if lr is None else lr
        _check(params, grads, lr)
        self._t += 1
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        if self._m is None:
            self._m, self._v = np.zeros_like(params), np.zeros_like(params)
        m, v, g = self._m, self._v, grads
        if self.weight_decay:
            g = g + self.weight_decay * params
        m *= self.beta1
        m += (1.0 - self.beta1) * g
        v *= self.beta2
        v += (1.0 - self.beta2) * g * g
        params -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)

    def mask_state(self, mask: np.ndarray) -> None:
        """Multiply the weights' two moments by the flat ``mask`` in place."""
        if self._m is not None:
            self._m[:mask.size] *= mask
            self._v[:mask.size] *= mask


def make_optimizer(kind: str, lr: float, momentum: float = 0.9,
                   nesterov: bool = True, weight_decay: float = 0.0,
                   beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
    if kind == "sgd":
        return SGD(lr, momentum=momentum, nesterov=nesterov,
                   weight_decay=weight_decay)
    if kind == "adam":
        return Adam(lr, beta1=beta1, beta2=beta2, eps=eps,
                    weight_decay=weight_decay)
    raise ValueError(f"unknown optimizer kind {kind!r}")
