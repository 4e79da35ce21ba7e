from .layers import Conv2d, Dense, Flatten, Network, ReLU, ShapeError
from .losses import cross_entropy_softmax
from .optim import SGD, Adam, make_optimizer
from .schedules import lr_schedule

__all__ = [
    "Adam",
    "Conv2d",
    "Dense",
    "Flatten",
    "Network",
    "ReLU",
    "SGD",
    "ShapeError",
    "cross_entropy_softmax",
    "lr_schedule",
    "make_optimizer",
]
