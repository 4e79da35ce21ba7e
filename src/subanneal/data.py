"""Dataset ingestion: MNIST IDX files, CIFAR-10 binary batches, and
synthetic Gaussian blobs.

Image datasets load as unit-scale (N, C, H, W) float64 tensors; model inputs
are then mean-std normalized per channel with constants computed from the
training split. A loader's ``limit`` keeps the first examples of a split; the
image loaders still read and check whole files as bytes, but convert only the
kept rows to float, so a small subset of a large file costs float memory in
proportion to the subset. The dataset root directory comes from the
``SUBANNEAL_DATA`` environment variable unless passed explicitly.
"""

from __future__ import annotations

import gzip
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DATA_ROOT_ENV = "SUBANNEAL_DATA"

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

CIFAR_RECORD = 3073  # 1 label byte + 3*32*32 pixel bytes
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILES = ["test_batch.bin"]


class DatasetError(ValueError):
    """Malformed dataset file; the message names the failing byte offset."""


@dataclass
class Dataset:
    x: np.ndarray  # unit-scale inputs
    y: np.ndarray  # int64 class indices
    num_classes: int


def data_root(root=None) -> Path:
    if root is not None:
        return Path(root)
    env = os.environ.get(DATA_ROOT_ENV)
    if not env:
        raise FileNotFoundError(
            f"no dataset root: set ${DATA_ROOT_ENV} or pass root=")
    return Path(env)


def _open_maybe_gzip(path: Path):
    gz = path.with_name(path.name + ".gz")
    if path.exists():
        return open(path, "rb")
    if gz.exists():
        return gzip.open(gz, "rb")
    raise FileNotFoundError(f"{path} (or {gz.name}) not found")


def _read_exact(fh, n: int, offset: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise DatasetError(
            f"truncated IDX file: wanted {n} bytes for {what} at offset {offset}")
    return data


def load_idx(path) -> np.ndarray:
    """Parse one big-endian IDX file of unsigned bytes."""
    path = Path(path)
    with _open_maybe_gzip(path) as fh:
        (magic,) = struct.unpack(">I", _read_exact(fh, 4, 0, "magic"))
        if magic == IDX_IMAGES_MAGIC:
            ndim = 3
        elif magic == IDX_LABELS_MAGIC:
            ndim = 1
        else:
            raise DatasetError(
                f"bad IDX magic 0x{magic:08x} at offset 0 in {path.name}")
        dims = []
        for i in range(ndim):
            offset = 4 + 4 * i
            (d,) = struct.unpack(">I", _read_exact(fh, 4, offset, f"dim {i}"))
            dims.append(d)
        offset = 4 + 4 * ndim
        count = int(np.prod(dims))
        raw = _read_exact(fh, count, offset, f"{count} data bytes")
        extra = fh.read(1)
        if extra:
            raise DatasetError(
                f"trailing bytes at offset {offset + count} in {path.name}")
    return np.frombuffer(raw, dtype=np.uint8).reshape(dims)


def load_mnist(split: str, root=None, limit: int = 0) -> Dataset:
    """The first ``limit`` examples (all when 0); the whole files are read
    and checked, but only the kept rows are converted to float."""
    root = data_root(root) / "mnist"
    prefix = "train" if split == "train" else "t10k"
    images = load_idx(root / f"{prefix}-images-idx3-ubyte")
    labels = load_idx(root / f"{prefix}-labels-idx1-ubyte")
    if len(images) != len(labels):
        raise DatasetError(
            f"mnist {split}: {len(images)} images but {len(labels)} labels")
    if limit:
        images, labels = images[:limit], labels[:limit]
    x = images.astype(np.float64)[:, None, :, :]
    x /= 255.0
    return Dataset(x, labels.astype(np.int64), 10)


def load_cifar10(split: str, root=None, limit: int = 0) -> Dataset:
    """The first ``limit`` examples over the split's files in order (all
    when 0); every file is read and every label checked, but only the kept
    rows are converted to float."""
    root = data_root(root) / "cifar10"
    files = CIFAR_TRAIN_FILES if split == "train" else CIFAR_TEST_FILES
    xs, ys = [], []
    kept = 0
    for name in files:
        raw = (root / name).read_bytes()
        if len(raw) == 0 or len(raw) % CIFAR_RECORD:
            raise DatasetError(
                f"{name}: size {len(raw)} is not a multiple of {CIFAR_RECORD}; "
                f"first bad record at offset {len(raw) - len(raw) % CIFAR_RECORD}")
        records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
        labels = records[:, 0]
        bad = np.flatnonzero(labels > 9)
        if bad.size:
            raise DatasetError(
                f"{name}: label {labels[bad[0]]} out of range at offset "
                f"{int(bad[0]) * CIFAR_RECORD}")
        if limit:
            # a file past the limit keeps nothing, so nothing pins its bytes
            records = records[:limit - kept]
            if not len(records):
                continue
        xs.append(records[:, 1:].reshape(-1, 3, 32, 32))
        ys.append(records[:, 0])
        kept += len(records)
    x = np.concatenate(xs, dtype=np.float64)
    x /= 255.0
    y = np.concatenate(ys).astype(np.int64)
    return Dataset(x, y, 10)


def make_blobs(split: str, n: int = 2000, d: int = 16, k: int = 4,
               separation: float = 4.0, data_seed: int = 0) -> Dataset:
    """K unit-variance Gaussian clusters with the given minimum separation.

    The generator is seeded by ``data_seed`` (not the run seed) and the split
    only selects which slice of the stream is drawn, so every run sees the
    same data.
    """
    from .rng import substream

    rng = substream(data_seed, "blobs", d, k, separation)
    centers = rng.normal(0.0, 1.0, (k, d))
    dists = [np.linalg.norm(centers[i] - centers[j])
             for i in range(k) for j in range(i + 1, k)]
    centers *= separation / max(min(dists), 1e-9)
    rng_split = substream(data_seed, "blobs-split", split, d, k, separation)
    y = np.arange(n, dtype=np.int64) % k
    x = centers[y] + rng_split.normal(0.0, 1.0, (n, d))
    return Dataset(x, y, k)


def load_dataset(name: str, split: str, root=None, limit: int = 0,
                 **blob_kwargs) -> Dataset:
    """The first ``limit`` examples of a split (all of them when 0)."""
    if split not in ("train", "test"):
        raise ValueError(f"unknown split {split!r}")
    if name == "mnist":
        return load_mnist(split, root, limit)
    if name == "cifar10-subset":
        return load_cifar10(split, root, limit)
    if name == "synthetic-blobs":
        return subset(make_blobs(split, **blob_kwargs), limit)
    raise ValueError(f"unknown dataset {name!r}")


def normalization_stats(train_x: np.ndarray):
    """Per-channel mean and std over the training split (axis 1 is the
    channel axis for images and the feature axis for flat data)."""
    axes = tuple(i for i in range(train_x.ndim) if i != 1)
    mean = train_x.mean(axis=axes, keepdims=True)
    std = train_x.std(axis=axes, keepdims=True)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def normalize(x: np.ndarray, mean: np.ndarray, std: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """``(x - mean) / std``, written into ``out`` when given (``out`` may be
    ``x`` itself); returns the result."""
    out = np.subtract(x, mean, out=out)
    out /= std
    return out


def subset(ds: Dataset, limit: int) -> Dataset:
    """The first ``limit`` examples in file order (0 means everything)."""
    if limit and limit < len(ds.y):
        return Dataset(ds.x[:limit], ds.y[:limit], ds.num_classes)
    return ds
