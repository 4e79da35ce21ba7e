"""Synthetic MNIST-shaped IDX files and CIFAR-shaped binary batches.

Every image is its class template plus Gaussian pixel noise, so the label
follows from the pixels. Templates are +-1 patterns scaled by ``contrast``
around mid-grey; ``contrast`` and ``noise`` (both on the 0-255
scale) set how hard the task is. They are chosen so that test accuracy sits
well between chance and 1: a saturated accuracy cannot show a regression.
Everything is drawn from the seed, so one seed always gives the same bytes.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

MNIST_SHAPE = (28, 28)
CIFAR_SHAPE = (3, 32, 32)
CIFAR_TRAIN_FILES = 5  # the loader reads data_batch_1.bin .. data_batch_5.bin
CHUNK = 1000  # images generated at once, to keep memory flat
BLOCK = 4  # template squares: coarse enough for strided 3x3 convs to see


def _images(rng, templates, n: int, contrast: float, noise: float):
    """(labels, uint8 images) for n examples drawn in chunks."""
    k = len(templates)
    labels = np.arange(n, dtype=np.int64) % k
    rng.shuffle(labels)
    for start in range(0, n, CHUNK):
        y = labels[start:start + CHUNK]
        x = 128.0 + contrast * templates[y] + rng.normal(0.0, noise,
                                                          (len(y),) + templates.shape[1:])
        yield y, np.clip(np.rint(x), 0, 255).astype(np.uint8)


def _templates(rng, k: int, shape, block: int) -> np.ndarray:
    """k +-1 patterns, constant over block x block pixel squares.

    The coarse patterns are k distinct rows of a Sylvester-Hadamard matrix
    (never the all-ones row) with their columns shuffled, so every pair of
    classes differs in about half the squares whatever the seed: the task is
    equally hard for every seed.
    """
    *lead, h, w = shape
    coarse = (*lead, h // block, w // block)
    size = int(np.prod(coarse))
    hadamard = np.ones((1, 1))
    while len(hadamard) < max(size, k + 1):
        hadamard = np.block([[hadamard, hadamard], [hadamard, -hadamard]])
    rows = 1 + rng.choice(len(hadamard) - 1, size=k, replace=False)
    cols = rng.permutation(len(hadamard))[:size]
    patterns = hadamard[np.ix_(rows, cols)].reshape((k,) + coarse)
    return patterns.repeat(block, axis=-2).repeat(block, axis=-1)


def _write_idx(path: Path, magic: int, dims, chunks) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">I", magic))
        for d in dims:
            fh.write(struct.pack(">I", d))
        for chunk in chunks:
            fh.write(chunk.tobytes())


def write_mnist(root: Path, seed: int, n_train: int, n_test: int,
                contrast: float, noise: float) -> None:
    """IDX image and label files under ``root/mnist``."""
    rng = np.random.default_rng([seed, 0x4D4E])
    templates = _templates(rng, 10, MNIST_SHAPE, BLOCK)
    out = Path(root) / "mnist"
    out.mkdir(parents=True, exist_ok=True)
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        pairs = list(_images(rng, templates, n, contrast, noise))
        _write_idx(out / f"{prefix}-images-idx3-ubyte", 0x00000803,
                   (n,) + MNIST_SHAPE, (x for _, x in pairs))
        _write_idx(out / f"{prefix}-labels-idx1-ubyte", 0x00000801, (n,),
                   (y.astype(np.uint8) for y, _ in pairs))


def write_cifar(root: Path, seed: int, n_train: int, n_test: int,
                contrast: float, noise: float) -> None:
    """Binary batches (1 label byte + 3072 pixel bytes per record) under
    ``root/cifar10``; the training records are split over five files."""
    if n_train % CIFAR_TRAIN_FILES:
        raise ValueError(f"n_train must be a multiple of {CIFAR_TRAIN_FILES}")
    rng = np.random.default_rng([seed, 0xC1FA])
    templates = _templates(rng, 10, CIFAR_SHAPE, BLOCK)
    out = Path(root) / "cifar10"
    out.mkdir(parents=True, exist_ok=True)
    per_file = n_train // CIFAR_TRAIN_FILES
    files = [(f"data_batch_{i}.bin", per_file)
             for i in range(1, CIFAR_TRAIN_FILES + 1)]
    files.append(("test_batch.bin", n_test))
    for name, n in files:
        with open(out / name, "wb") as fh:
            for y, x in _images(rng, templates, n, contrast, noise):
                records = np.empty((len(y), 1 + x[0].size), dtype=np.uint8)
                records[:, 0] = y
                records[:, 1:] = x.reshape(len(y), -1)
                fh.write(records.tobytes())
