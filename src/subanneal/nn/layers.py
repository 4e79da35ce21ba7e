"""Layers and the sequential network container.

Everything is plain numpy with hand-written backward passes. Each layer
keeps what its backward pass needs from the last forward call in ``_cache``
(None when there is none), so a backward call is only valid after a forward
call on the same batch. A forward pass that no backward pass follows
(``Network.forward(x, keep_cache=False)``, as evaluation runs it) drops each
layer's cache as soon as that layer has run, and a training epoch clears
every cache when it ends, so a trained network holds no activations.
Double precision is the default; float32 can be selected per network for
speed.
"""

from __future__ import annotations

import copy

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Layer shapes do not compose."""


class Dense:
    """Fully connected layer: y = x @ w + b."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 dtype=np.float64):
        if in_features < 1 or out_features < 1:
            raise ShapeError("Dense features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.w = np.zeros((in_features, out_features), dtype=dtype)
        self.b = np.zeros(out_features, dtype=dtype) if bias else None
        self.grad_w = None
        self.grad_b = None
        self._cache = None  # the input

    def init_params(self, rng: np.random.Generator) -> None:
        # He initialization, suited to the ReLU nets built here.
        std = np.sqrt(2.0 / self.in_features)
        self.w[...] = rng.normal(0.0, std, self.w.shape)
        if self.b is not None:
            self.b[...] = 0.0

    def out_shape(self, in_shape):
        if in_shape != (self.in_features,):
            raise ShapeError(
                f"Dense expects input shape ({self.in_features},), got {in_shape}")
        return (self.out_features,)

    def forward_floats(self, in_shape) -> int:
        """Elements per example of the largest array ``forward`` allocates."""
        return self.out_features

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x
        y = x @ self.w
        if self.b is not None:
            y = y + self.b
        return y

    def backward(self, grad_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Set ``grad_w``/``grad_b``; return the input gradient, or None
        when ``input_grad`` is false and nothing upstream needs it."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        self.grad_w = self._cache.T @ grad_out
        if self.b is not None:
            self.grad_b = grad_out.sum(axis=0)
        if not input_grad:
            return None
        return grad_out @ self.w.T


class Conv2d:
    """2D convolution on NCHW input as one im2col matrix and one GEMM.

    Forward builds ``cols``, shape (C·k·k, N·H'·W'): row (c, i, j) holds
    input channel c at kernel offset (i, j) for every output position of
    every example. The output is ``w.reshape(O, -1) @ cols``, and backward
    is two more GEMMs against the same matrix plus a k² scatter-add.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, bias: bool = True,
                 dtype=np.float64):
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ShapeError("invalid Conv2d geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.w = np.zeros((out_channels, in_channels, kernel_size, kernel_size),
                          dtype=dtype)
        self.b = np.zeros(out_channels, dtype=dtype) if bias else None
        self.grad_w = None
        self.grad_b = None
        self._cache = None  # (cols, input shape)

    def init_params(self, rng: np.random.Generator) -> None:
        fan_in = self.in_channels * self.kernel_size * self.kernel_size
        std = np.sqrt(2.0 / fan_in)
        self.w[...] = rng.normal(0.0, std, self.w.shape)
        if self.b is not None:
            self.b[...] = 0.0

    def _out_hw(self, h: int, w: int):
        # floor mode: a ragged edge narrower than the stride is dropped
        k, s, p = self.kernel_size, self.stride, self.padding
        oh = (h + 2 * p - k) // s + 1
        ow = (w + 2 * p - k) // s + 1
        if oh < 1 or ow < 1:
            raise ShapeError(
                f"Conv2d geometry k={k} s={s} p={p} exceeds input {h}x{w}")
        return oh, ow

    def out_shape(self, in_shape):
        if len(in_shape) != 3 or in_shape[0] != self.in_channels:
            raise ShapeError(
                f"Conv2d expects input (C={self.in_channels}, H, W), got {in_shape}")
        oh, ow = self._out_hw(in_shape[1], in_shape[2])
        return (self.out_channels, oh, ow)

    def forward_floats(self, in_shape) -> int:
        """Elements per example of the largest array ``forward`` allocates:
        ``cols`` (C·k² per output position) or the output."""
        _, oh, ow = self.out_shape(in_shape)
        return max(self.in_channels * self.kernel_size ** 2,
                   self.out_channels) * oh * ow

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        oh, ow = self._out_hw(h, w)
        if p:
            xp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=x.dtype)
            xp[:, :, p:p + h, p:p + w] = x
        else:
            xp = x
        # an (n, c, oh, ow, k, k) view of the windows, copied once into
        # (c, k, k, n, oh, ow) order
        windows = sliding_window_view(xp, (k, k), axis=(2, 3))
        windows = windows[:, :, :s * oh:s, :s * ow:s]
        cols = np.empty((c, k, k, n, oh, ow), dtype=x.dtype)
        cols[...] = windows.transpose(1, 4, 5, 0, 2, 3)
        cols = cols.reshape(c * k * k, n * oh * ow)
        self._cache = (cols, x.shape)
        y = self.w.reshape(self.out_channels, -1) @ cols
        if self.b is not None:
            y += self.b[:, None]
        y = y.reshape(self.out_channels, n, oh, ow).transpose(1, 0, 2, 3)
        return np.ascontiguousarray(y)

    def backward(self, grad_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Set ``grad_w``/``grad_b``; return the input gradient, or None
        when ``input_grad`` is false and nothing upstream needs it."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        cols, (n, c, h, w) = self._cache
        k, s, p = self.kernel_size, self.stride, self.padding
        _, o, oh, ow = grad_out.shape
        g = grad_out.transpose(1, 0, 2, 3).reshape(o, -1)  # (O, N·H'·W')
        self.grad_w = (g @ cols.T).reshape(self.w.shape)
        if self.b is not None:
            self.grad_b = grad_out.sum(axis=(0, 2, 3))
        if not input_grad:
            return None
        gcols = (self.w.reshape(o, -1).T @ g).reshape(c, k, k, n, oh, ow)
        gxp = np.zeros((n, c, h + 2 * p, w + 2 * p), dtype=grad_out.dtype)
        for i in range(k):
            for j in range(k):
                gxp[:, :, i:i + s * oh:s, j:j + s * ow:s] += (
                    gcols[:, i, j].transpose(1, 0, 2, 3))
        return gxp[:, :, p:p + h, p:p + w] if p else gxp


class ReLU:
    def __init__(self):
        self._cache = None  # x > 0

    def out_shape(self, in_shape):
        return in_shape

    def forward_floats(self, in_shape) -> int:
        return int(np.prod(in_shape))

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x > 0
        return x * self._cache

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return grad_out * self._cache


class Flatten:
    def __init__(self):
        self._cache = None  # the input shape

    def out_shape(self, in_shape):
        return (int(np.prod(in_shape)),)

    def forward_floats(self, in_shape) -> int:
        return 0  # forward returns a view

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._cache = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad_out: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        return grad_out.reshape(self._cache)


#: Layers whose weight tensor is maskable. Biases are never masked.
WEIGHT_LAYERS = (Dense, Conv2d)


class Network:
    """Ordered layer stack with reverse-mode gradients.

    ``input_shape`` is the per-example shape (no batch axis); layer
    compatibility is checked at construction so shape mismatches fail before
    any training starts. ``mask_buffers`` holds one array per weight tensor
    that ``training.masked_weights`` writes the masked weights into; it
    belongs to this network alone and is kept across batches.
    ``row_floats`` is the size, in elements per example, of the largest
    array any layer allocates in a forward pass (each layer reports its own
    through ``forward_floats``). Evaluation sizes its chunks by it.
    """

    def __init__(self, layers, input_shape):
        self.layers = list(layers)
        self.input_shape = tuple(int(d) for d in input_shape)
        shape = self.input_shape
        self.row_floats = 1
        for layer in self.layers:
            self.row_floats = max(self.row_floats, layer.forward_floats(shape))
            shape = layer.out_shape(shape)
        self.output_shape = shape
        self.mask_buffers = {}

    def init_params(self, rng: np.random.Generator) -> None:
        for layer in self.layers:
            if isinstance(layer, WEIGHT_LAYERS):
                layer.init_params(rng)

    def forward(self, x: np.ndarray, *, keep_cache: bool = True) -> np.ndarray:
        """The network's output on the batch ``x``. With ``keep_cache``
        false, each layer's forward state is dropped right after that layer
        has run, so only the activations in flight are alive and a backward
        call fails afterwards."""
        if tuple(x.shape[1:]) != self.input_shape:
            raise ShapeError(
                f"batch shape {tuple(x.shape[1:])} != input shape {self.input_shape}")
        for layer in self.layers:
            x = layer.forward(x)
            if not keep_cache:
                layer._cache = None
        return x

    def clear_cache(self) -> None:
        """Drop every layer's forward state, so no activations stay alive;
        a backward call then fails until the next forward call. Training
        calls it when an epoch ends; evaluation needs no call, since it
        keeps no state (``forward(x, keep_cache=False)``)."""
        for layer in self.layers:
            layer._cache = None

    def backward(self, grad_logits: np.ndarray) -> dict:
        """Backpropagate and return {param name: gradient}.

        Backpropagation stops at the first weight layer: it computes only
        that layer's parameter gradients, and the layers before it (which
        hold no parameters) are not called, since no caller reads the
        gradient with respect to the network input.
        """
        first = next((i for i, layer in enumerate(self.layers)
                      if isinstance(layer, WEIGHT_LAYERS)), len(self.layers))
        g = grad_logits
        for layer in reversed(self.layers[first + 1:]):
            g = layer.backward(g)
        if first < len(self.layers):
            self.layers[first].backward(g, input_grad=False)
        return {name: grad for name, grad in self._iter_grads()}

    def _iter_grads(self):
        for i, layer in enumerate(self.layers):
            if isinstance(layer, WEIGHT_LAYERS):
                yield f"layer{i}.w", layer.grad_w
                if layer.b is not None:
                    yield f"layer{i}.b", layer.grad_b

    def params(self) -> dict:
        """All trainable parameters by name (live arrays, not copies)."""
        out = {}
        for i, layer in enumerate(self.layers):
            if isinstance(layer, WEIGHT_LAYERS):
                out[f"layer{i}.w"] = layer.w
                if layer.b is not None:
                    out[f"layer{i}.b"] = layer.b
        return out

    def set_param(self, name: str, value: np.ndarray) -> None:
        idx, attr = name.split(".")
        layer = self.layers[int(idx.removeprefix("layer"))]
        current = getattr(layer, attr)
        if current.shape != value.shape:
            raise ShapeError(f"{name}: shape {value.shape} != {current.shape}")
        setattr(layer, attr, np.array(value, dtype=current.dtype))

    def weights(self) -> dict:
        """Maskable weight tensors by name (live arrays). Biases excluded."""
        return {
            f"layer{i}.w": layer.w
            for i, layer in enumerate(self.layers)
            if isinstance(layer, WEIGHT_LAYERS)
        }

    def weight_shapes(self) -> dict:
        return {name: w.shape for name, w in self.weights().items()}

    def clone(self) -> "Network":
        """Structural copy with copied parameter values and no cached state."""
        copies = [copy.copy(layer) for layer in self.layers]
        for c in copies:
            if isinstance(c, WEIGHT_LAYERS):
                c.w = c.w.copy()
                if c.b is not None:
                    c.b = c.b.copy()
                c.grad_w = c.grad_b = None
        net = Network(copies, self.input_shape)
        net.clear_cache()
        return net
