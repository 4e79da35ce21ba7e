from .layers import Conv2d, Dense, Flatten, Network, ReLU, ShapeError
from .losses import cross_entropy_softmax
from .optim import SGD, Adam, make_optimizer
from .schedules import (
    Constant,
    OneCycle,
    StepDecay,
    lr_at,
    parent_stepwise,
)

__all__ = [
    "Adam",
    "Constant",
    "Conv2d",
    "Dense",
    "Flatten",
    "Network",
    "OneCycle",
    "ReLU",
    "SGD",
    "ShapeError",
    "StepDecay",
    "cross_entropy_softmax",
    "lr_at",
    "make_optimizer",
    "parent_stepwise",
]
