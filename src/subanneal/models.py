"""Model zoo: the MLP and the small strided conv net."""

from __future__ import annotations

import numpy as np

from .nn.layers import Conv2d, Dense, Flatten, Network, ReLU

HIDDEN = (300, 100)  # the MLP's hidden widths


def build_mlp(input_shape, num_classes: int, hidden=HIDDEN,
              dtype=np.float64) -> Network:
    """Flatten -> Dense/ReLU stack -> Dense logits."""
    in_features = int(np.prod(input_shape))
    layers = [Flatten()]
    prev = in_features
    for width in hidden:
        layers.append(Dense(prev, width, dtype=dtype))
        layers.append(ReLU())
        prev = width
    layers.append(Dense(prev, num_classes, dtype=dtype))
    return Network(layers, input_shape)


def build_small_conv(input_shape, num_classes: int, dtype=np.float64) -> Network:
    """Two strided 3x3 conv blocks then a linear head; LeNet-scale."""
    layers = [
        Conv2d(input_shape[0], 8, 3, stride=2, padding=1, dtype=dtype),
        ReLU(),
        Conv2d(8, 16, 3, stride=2, padding=1, dtype=dtype),
        ReLU(),
        Flatten(),
    ]
    shape = tuple(input_shape)  # the head's width is Flatten's output
    for layer in layers:
        shape = layer.out_shape(shape)
    layers.append(Dense(shape[0], num_classes, dtype=dtype))
    return Network(layers, input_shape)


def architecture(name: str, input_shape, num_classes: int,
                 dtype=np.float64, hidden=HIDDEN) -> Network:
    """Model ``name`` with every parameter zero: no random draw, for a
    network whose parameters are all set afterwards."""
    if name == "mlp":
        return build_mlp(input_shape, num_classes, hidden=hidden, dtype=dtype)
    if name == "smallconv":
        if len(input_shape) != 3:
            raise ValueError("smallconv needs (C, H, W) inputs")
        return build_small_conv(input_shape, num_classes, dtype=dtype)
    raise ValueError(f"unknown model {name!r}")


def build_model(name: str, input_shape, num_classes: int,
                rng: np.random.Generator, dtype=np.float64,
                hidden=HIDDEN) -> Network:
    net = architecture(name, input_shape, num_classes, dtype, hidden)
    net.init_params(rng)
    return net

