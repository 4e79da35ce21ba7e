"""SGD (with Nesterov momentum) and Adam.

Weight decay couples into the gradient before the momentum update, the
classic formulation. Hyperparameters are fixed at construction; the learning
rate is supplied per step so schedules stay outside the optimizer.
"""

import numpy as np


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
        self._velocity = {}
        # per-parameter work arrays: one, or two when weight decay and
        # Nesterov both need their own (decayed gradient, then the update)
        self._scratch = {}

    def step(self, params: dict, grads: dict, lr: float | None = None) -> None:
        """Update ``params`` in place from ``grads`` (both name -> array).

        All arithmetic happens in place, in the optimizer's own arrays; the
        operations and their rounding are those of ``p -= lr * d`` with
        ``g = g + wd * p``, ``v = momentum * v + g`` and ``d = g + momentum * v``
        (Nesterov) or ``d = v``. ``grads`` is never written.
        """
        lr = self.lr if lr is None else lr
        if lr <= 0:
            raise ValueError("lr must be positive")
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ValueError(f"{name}: grad shape {g.shape} != {p.shape}")
            scratch = self._scratch.get(name)
            if scratch is None:
                count = 2 if self.weight_decay and self.nesterov else 1
                scratch = [np.empty_like(p) for _ in range(count)]
                self._scratch[name] = scratch
            d = scratch[-1]
            if self.weight_decay:
                g = np.multiply(p, self.weight_decay, out=scratch[0])
                g += grads[name]
            if self.momentum:
                v = self._velocity.get(name)
                if v is None:
                    v = np.zeros_like(p)
                    self._velocity[name] = v
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
            p -= d


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
        self._m = {}
        self._v = {}
        self._t = 0

    def step(self, params: dict, grads: dict, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        if lr <= 0:
            raise ValueError("lr must be positive")
        self._t += 1
        bc1 = 1.0 - self.beta1 ** self._t
        bc2 = 1.0 - self.beta2 ** self._t
        for name, p in params.items():
            g = grads[name]
            if g.shape != p.shape:
                raise ValueError(f"{name}: grad shape {g.shape} != {p.shape}")
            if self.weight_decay:
                g = g + self.weight_decay * p
            m = self._m.setdefault(name, np.zeros_like(p))
            v = self._v.setdefault(name, np.zeros_like(p))
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


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
