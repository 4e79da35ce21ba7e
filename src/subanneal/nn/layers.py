"""Layers and the sequential network container.

Everything is plain numpy with hand-written backward passes. Each layer
keeps what its backward pass needs from the last forward call in ``_cache``
(None when there is none), so a backward call is only valid after a forward
call on the same batch. A forward pass that no backward pass follows
(``Network.forward(x, keep_cache=False)``, as evaluation runs it) stores no
cache in any layer, and a training epoch clears every cache when it ends,
so a trained network holds no activations.
Without a cache to keep, ``Conv2d`` lays out its columns and its output
batch-last, so its copies run over the batch (class docstring); an
activation may then be a strided view, and ``Flatten`` copies it into the
C-contiguous rows the Dense head gets in training too.
The constructors default to double precision, which the finite-difference
gradient checks need; a run builds its networks in the config's ``dtype``,
float32 unless it asks for float64.

A ``Network`` owns the parameter layout: one flat array, ``flat``, holds
every weight layer's ``w`` in layer order, then every ``b``, and each
layer's ``w``/``b`` is a view into it; ``backward`` writes the gradients
into views of one flat ``grad`` of the same layout. The weights are the
prefix ``flat[:n_weights]``, so masks and optimizers act on the whole
network in one numpy call per operation.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Layer shapes do not compose."""


def views(flat: np.ndarray, shapes) -> list:
    """Consecutive views of ``flat``, one shaped like each of ``shapes``."""
    out, start = [], 0
    for shape in shapes:
        out.append(flat[start:start + math.prod(shape)].reshape(shape))
        start += out[-1].size
    return out


class Dense:
    """Fully connected layer: y = x @ w + b."""

    def __init__(self, in_features: int, out_features: int, dtype=np.float64):
        if in_features < 1 or out_features < 1:
            raise ShapeError("Dense features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.w = np.zeros((in_features, out_features), dtype=dtype)
        self.b = np.zeros(out_features, dtype=dtype)
        self.grad_w = None
        self.grad_b = None
        self._cache = None  # the input

    def init_params(self, rng: np.random.Generator) -> None:
        # He initialization, suited to the ReLU nets built here.
        std = np.sqrt(2.0 / self.in_features)
        self.w[...] = rng.normal(0.0, std, self.w.shape)
        self.b[...] = 0.0

    def out_shape(self, in_shape):
        if in_shape != (self.in_features,):
            raise ShapeError(
                f"Dense expects input shape ({self.in_features},), got {in_shape}")
        return (self.out_features,)

    def forward_floats(self, in_shape) -> int:
        """Elements per example of the largest array ``forward`` allocates."""
        return self.out_features

    def forward(self, x: np.ndarray, keep_cache: bool = True) -> np.ndarray:
        self._cache = x if keep_cache else None
        # a ufunc call, not ``+``, as ``annealing.init_temperature`` explains
        return np.add(x @ self.w, self.b)

    def backward(self, grad_out: np.ndarray,
                 input_grad: bool = True) -> np.ndarray | None:
        """Set ``grad_w``/``grad_b``; return the input gradient, or None
        when ``input_grad`` is false and nothing upstream needs it."""
        if self._cache is None:
            raise RuntimeError("backward called before forward")
        self.grad_w = np.matmul(self._cache.T, grad_out, out=self.grad_w)
        self.grad_b = np.add.reduce(grad_out, axis=0, out=self.grad_b)
        if not input_grad:
            return None
        return grad_out @ self.w.T


class Conv2d:
    """2D convolution on NCHW input as one im2col matrix and one GEMM.

    Forward builds ``cols``: row (c, i, j) holds input channel c at kernel
    offset (i, j) for every output position of every example, and the
    output is ``w.reshape(O, -1) @ cols``. Its columns come in one of two
    orders, and every output value is the same sum of the same products in
    either:

    * (N·H'·W') in training (``keep_cache``), the order ``grad_w`` sums
      over. The output is contiguous NCHW, and backward is two more GEMMs
      plus a k² scatter-add. The input-gradient GEMM and scatter-add run
      batch-last, into a (C, H+2p, W+2p, N) buffer whose unpadded part is
      returned as an NCHW view.
    * (H'·W'·N) in evaluation, from a batch-last padded copy of the input.
      The output is an NCHW view of (O, H', W', N) memory, which the next
      conv reads batch-last too.

    Batch-last, the copies and adds run over N elements, not rows of W'.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, dtype=np.float64):
        if kernel_size < 1 or stride < 1 or padding < 0:
            raise ShapeError("invalid Conv2d geometry")
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.w = np.zeros((out_channels, in_channels, kernel_size, kernel_size),
                          dtype=dtype)
        self.b = np.zeros(out_channels, dtype=dtype)
        self.grad_w = None
        self.grad_b = None
        self._cache = None  # (cols, input shape)

    def init_params(self, rng: np.random.Generator) -> None:
        fan_in = self.in_channels * self.kernel_size * self.kernel_size
        std = np.sqrt(2.0 / fan_in)
        self.w[...] = rng.normal(0.0, std, self.w.shape)
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

    def forward(self, x: np.ndarray, keep_cache: bool = True) -> np.ndarray:
        n, c, h, w = x.shape
        k, s, p = self.kernel_size, self.stride, self.padding
        oh, ow = self._out_hw(h, w)
        # xc: a (C, H+2p, W+2p, N) view of the padded input, whose memory is
        # NCHW for training and batch-last when no backward follows
        if p or not keep_cache:
            xp = np.zeros((n, c, h + 2 * p, w + 2 * p) if keep_cache
                          else (c, h + 2 * p, w + 2 * p, n), dtype=x.dtype)
            xc = xp.transpose(1, 2, 3, 0) if keep_cache else xp
            xc[:, p:p + h, p:p + w] = x.transpose(1, 2, 3, 0)
        else:
            xc = x.transpose(1, 2, 3, 0)
        # a (C, H', W', N, k, k) view of the windows, copied once into
        # (C, k, k, N, H', W') order for training, (C, k, k, H', W', N) else
        windows = sliding_window_view(xc, (k, k), axis=(1, 2))
        windows = windows[:, :s * oh:s, :s * ow:s]
        order = (0, 4, 5, 3, 1, 2) if keep_cache else (0, 4, 5, 1, 2, 3)
        cols = windows.transpose(order).reshape(c * k * k, -1)
        y = self.w.reshape(self.out_channels, -1) @ cols
        y += self.b[:, None]
        if not keep_cache:
            self._cache = None
            # an NCHW view of (O, H', W', N) memory; Flatten makes rows of it
            return y.reshape(-1, oh, ow, n).transpose(3, 0, 1, 2)
        self._cache = (cols, x.shape)
        y = y.reshape(-1, n, oh, ow).transpose(1, 0, 2, 3)
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
        if self.grad_w is None:
            self.grad_w = np.empty_like(self.w)
        # (C·k·k, O) = cols @ g.T: the sums of g @ cols.T, which BLAS runs
        # more slowly
        self.grad_w.reshape(o, -1)[...] = (cols @ g.T).T
        self.grad_b = np.add.reduce(grad_out, axis=(0, 2, 3), out=self.grad_b)
        if not input_grad:
            return None
        g = grad_out.transpose(1, 2, 3, 0).reshape(o, -1)  # (O, H'·W'·N)
        gcols = (self.w.reshape(o, -1).T @ g).reshape(c, k, k, oh, ow, n)
        gxp = np.zeros((c, h + 2 * p, w + 2 * p, n), dtype=grad_out.dtype)
        for i in range(k):
            for j in range(k):
                gxp[:, i:i + s * oh:s, j:j + s * ow:s] += gcols[:, i, j]
        return gxp[:, p:p + h, p:p + w].transpose(3, 0, 1, 2)


class ReLU:
    def __init__(self):
        self._cache = None  # x > 0

    def out_shape(self, in_shape):
        return in_shape

    def forward_floats(self, in_shape) -> int:
        return int(np.prod(in_shape))

    def forward(self, x: np.ndarray, keep_cache: bool = True) -> np.ndarray:
        keep = x > 0
        self._cache = keep if keep_cache else None
        return x * keep

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
        return 0  # a view, or a copy the size of the layer before's output

    def forward(self, x: np.ndarray, keep_cache: bool = True) -> np.ndarray:
        self._cache = x.shape if keep_cache else None
        # C-contiguous rows whatever x's layout: the head's GEMM then sees
        # the same operand, and rounds the same, in training and evaluation
        return np.ascontiguousarray(x.reshape(len(x), -1))

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
    any training starts. ``weight_layers`` maps each weight layer's name
    prefix (``layer{i}``, i its position in the stack) to the layer, in
    order; a parameter is named by its layer's prefix and attribute
    (``layer0.w``, ``layer0.b``); ``flat`` holds them (module docstring).
    ``grad`` is the flat gradient while the network trains, else None.
    ``training.masked_weights`` writes masked weights into ``mask_buffer``
    (``mask_views`` per layer), kept across the batches of an epoch.
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
        self.weight_layers = {f"layer{i}": layer
                              for i, layer in enumerate(self.layers)
                              if isinstance(layer, WEIGHT_LAYERS)}
        with_w = list(self.weight_layers.values())
        # (layer, attribute) of every parameter, in the order of ``flat``
        self._slots = ([(layer, "w") for layer in with_w]
                       + [(layer, "b") for layer in with_w])
        self._shapes = [getattr(*slot).shape for slot in self._slots]
        self.n_weights = sum(layer.w.size for layer in with_w)
        self.flat = np.concatenate([getattr(*slot).ravel() for slot in self._slots]
                                   or [np.zeros(0)])
        for (layer, attr), view in zip(self._slots, views(self.flat, self._shapes)):
            setattr(layer, attr, view)
        self._first = self.layers.index(with_w[0]) if with_w else len(self.layers)
        self.grad = self.mask_buffer = self.mask_views = None

    def init_params(self, rng: np.random.Generator) -> None:
        for layer in self.weight_layers.values():
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
            x = layer.forward(x, keep_cache)
        return x

    def clear_cache(self) -> None:
        """Drop every layer's forward state, the flat gradient and the
        masked-weight buffer, so the network holds only its parameters; a
        backward call then fails until the next forward call. Training
        calls it when an epoch ends; evaluation needs no call, since it
        keeps no state (``forward(x, keep_cache=False)``)."""
        for layer in self.layers:
            layer._cache = None
        for layer in self.weight_layers.values():
            layer.grad_w = layer.grad_b = None
        self.grad = self.mask_buffer = self.mask_views = None

    def backward(self, grad_logits: np.ndarray) -> np.ndarray:
        """Backpropagate into the flat gradient ``grad`` (allocated after
        ``clear_cache``; each layer's ``grad_w``/``grad_b`` is a view of it)
        and return it.

        Backpropagation stops at the first weight layer: it computes only
        that layer's parameter gradients, and the layers before it (which
        hold no parameters) are not called, since no caller reads the
        gradient with respect to the network input.
        """
        if self.grad is None:
            self.grad = np.empty_like(self.flat)
            for (layer, attr), view in zip(self._slots,
                                           views(self.grad, self._shapes)):
                setattr(layer, "grad_" + attr, view)
        g = grad_logits
        for layer in self.layers[:self._first:-1]:
            g = layer.backward(g)
        if self._first < len(self.layers):
            self.layers[self._first].backward(g, input_grad=False)
        return self.grad

    def _named(self, w_attr: str, b_attr: str | None) -> dict:
        """Each weight layer's ``w_attr`` named ``<prefix>.w``, followed by
        its ``b_attr`` named ``<prefix>.b`` when ``b_attr`` is given, in
        layer order: the one place parameter names are built."""
        out = {}
        for prefix, layer in self.weight_layers.items():
            out[f"{prefix}.w"] = getattr(layer, w_attr)
            if b_attr is not None:
                out[f"{prefix}.b"] = getattr(layer, b_attr)
        return out

    def params(self) -> dict:
        """All trainable parameters by name (live views of ``flat``)."""
        return self._named("w", "b")

    def set_param(self, name: str, value: np.ndarray) -> None:
        prefix, attr = name.split(".")
        current = getattr(self.weight_layers[prefix], attr)
        if current.shape != value.shape:
            raise ShapeError(f"{name}: shape {value.shape} != {current.shape}")
        current[...] = value

    def weights(self) -> dict:
        """Maskable weight tensors by name (live arrays). Biases excluded."""
        return self._named("w", None)

    def weight_shapes(self) -> dict:
        return {name: w.shape for name, w in self.weights().items()}
