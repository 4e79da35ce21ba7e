"""Central finite-difference oracle used by the gradient tests, and the
named gradients it is compared with."""

import numpy as np


def numerical_grad(f, arr, h=1e-5):
    """Central differences of scalar f with respect to every entry of arr."""
    grad = np.zeros_like(arr, dtype=np.float64)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def max_rel_error(analytic, numeric):
    denom = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-8)
    return np.abs(analytic - numeric).max() / denom


def named_grads(net) -> dict:
    """The gradients ``net.backward`` wrote, named like ``net.params()``:
    each parameter's ``grad_w``/``grad_b``, a view of ``net.grad``."""
    return {name: getattr(net.weight_layers[name.split(".")[0]],
                          "grad_" + name.split(".")[1])
            for name in net.params()}
