"""Dataset ingestion: MNIST IDX files, CIFAR-10 binary batches, and
synthetic Gaussian blobs.

Image datasets load as their uint8 pixels, shaped (N, C, H, W); blobs load
as float64 features. ``to_float`` puts either on the float64 scale the model
works on (pixels divided by 255), and model inputs are mean-std normalized per
channel with constants computed from the training split (for pixels, from
counts of their values). ``NormalizedRows`` serves normalized training rows a
batch at a time, so no float copy of the training set is made. A loader's
``limit`` keeps the first examples of a split; the image loaders still read
and check whole files as bytes, but keep only the kept rows. The dataset root
directory comes from the ``SUBANNEAL_DATA`` environment variable unless
passed explicitly.
"""

from __future__ import annotations

import gzip
import math
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

# ``normalization_stats`` counts pixel values in blocks of whole rows of at
# most this many pixels of one channel (``np.bincount`` widens a block to
# intp, eight bytes a pixel).
STATS_BLOCK_PIXELS = 1 << 16


class DatasetError(ValueError):
    """Malformed dataset file; the message names the failing byte offset."""


@dataclass
class Dataset:
    x: np.ndarray  # uint8 pixels (N, C, H, W), or float64 blob features
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
    """``n`` bytes of ``fh`` at ``offset``: a plain file is read only if it
    holds that many, a gzip stream 1 MB at a time."""
    if isinstance(fh, gzip.GzipFile):
        data = bytearray()
        while len(data) < n and (piece := fh.read(min(n - len(data), 1 << 20))):
            data += piece
    else:
        data = fh.read(n) if n <= os.fstat(fh.fileno()).st_size - offset else b""
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
        count = math.prod(dims)  # exact: may exceed any numpy integer
        raw = _read_exact(fh, count, offset, f"{count} data bytes")
        if fh.read(1):
            raise DatasetError(
                f"trailing bytes at offset {offset + count} in {path.name}")
    try:
        return np.frombuffer(raw, dtype=np.uint8).reshape(dims)
    except ValueError as err:  # no bytes, but dims numpy cannot hold
        raise DatasetError(f"dims at offset 4 in {path.name} do not fit an "
                           f"array: {err}") from None


def load_mnist(split: str, root=None, limit: int = 0) -> Dataset:
    """The first ``limit`` examples (all when 0); the whole files are read
    and checked, but only the kept rows stay in memory."""
    root = data_root(root) / "mnist"
    prefix = "train" if split == "train" else "t10k"
    images = load_idx(root / f"{prefix}-images-idx3-ubyte")
    labels = load_idx(root / f"{prefix}-labels-idx1-ubyte")
    if len(images) != len(labels):
        raise DatasetError(
            f"mnist {split}: {len(images)} images but {len(labels)} labels")
    if limit and limit < len(images):
        # a copy, so the kept rows do not pin the whole file's bytes
        images, labels = images[:limit].copy(), labels[:limit]
    return Dataset(images[:, None, :, :], labels.astype(np.int64), 10)


def load_cifar10(split: str, root=None, limit: int = 0) -> Dataset:
    """The first ``limit`` examples over the split's files in order (all
    when 0); every file is read and every label checked, but only the kept
    rows stay in memory. The output is sized from the file sizes, and each
    file's kept rows are copied into it as the file is read, so at most one
    file's bytes are held at a time."""
    root = data_root(root) / "cifar10"
    paths = [root / name
             for name in (CIFAR_TRAIN_FILES if split == "train"
                          else CIFAR_TEST_FILES)]
    # a missing or malformed file raises below, in file order
    sizes = [path.stat().st_size if path.is_file() else 0 for path in paths]
    n = sum(size // CIFAR_RECORD for size in sizes)
    n = min(n, limit) if limit else n
    x = np.empty((n, 3, 32, 32), dtype=np.uint8)
    y = np.empty(n, dtype=np.int64)
    kept = 0
    for path, size in zip(paths, sizes):
        kept += _read_cifar_file(path, size, x[kept:], y[kept:])
    return Dataset(x, y, 10)


def _read_cifar_file(path: Path, size: int, x: np.ndarray,
                     y: np.ndarray) -> int:
    """Check one CIFAR-10 batch file of ``size`` bytes and copy its first
    records into the rows of ``x`` and ``y``, as many as fit; returns how
    many were copied."""
    name = path.name
    raw = path.read_bytes()
    if len(raw) == 0 or len(raw) % CIFAR_RECORD:
        raise DatasetError(
            f"{name}: size {len(raw)} is not a multiple of {CIFAR_RECORD}; "
            f"first bad record at offset {len(raw) - len(raw) % CIFAR_RECORD}")
    if len(raw) != size:
        raise DatasetError(f"{name}: size changed from {size} to {len(raw)} "
                           f"while loading")
    records = np.frombuffer(raw, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = records[:, 0]
    bad = np.flatnonzero(labels > 9)
    if bad.size:
        raise DatasetError(
            f"{name}: label {labels[bad[0]]} out of range at offset "
            f"{int(bad[0]) * CIFAR_RECORD}")
    records = records[:len(x)]
    x[:len(records)] = records[:, 1:].reshape(-1, 3, 32, 32)
    y[:len(records)] = records[:, 0]
    return len(records)


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


def to_float(x: np.ndarray) -> np.ndarray:
    """A float64 copy of loader output: uint8 pixels divided by 255 onto
    the unit scale, float features unchanged."""
    out = x.astype(np.float64)
    if x.dtype == np.uint8:
        out /= 255.0
    return out


def normalization_stats(train_x: np.ndarray):
    """Per-channel mean and std over the training split (axis 1 is the
    channel axis for images and the feature axis for flat data), on the
    scale ``to_float`` gives, as float64 arrays shaped like ``x.mean(axis,
    keepdims=True)``. A channel whose std is below 1e-12 gets std 1.

    uint8 pixels are counted per channel (``_pixel_counts``), and the
    population mean and std of their ``to_float`` values are computed
    exactly from the counts and rounded once: no float copy of the pixels
    is made. Float features get ``x.mean``/``x.std`` of ``x =
    to_float(train_x)``.
    """
    if train_x.dtype == np.uint8:
        mean, std = _exact_stats(_pixel_counts(train_x))
        shape = (1, -1) + (1,) * (train_x.ndim - 2)
        mean, std = mean.reshape(shape), std.reshape(shape)
    else:
        x = to_float(train_x)
        axes = tuple(i for i in range(x.ndim) if i != 1)
        mean = x.mean(axis=axes, keepdims=True)
        std = x.std(axis=axes, keepdims=True)
    std = np.where(std < 1e-12, 1.0, std)
    return mean, std


def _pixel_counts(x: np.ndarray) -> np.ndarray:
    """(C, 256) int64: how often each uint8 value occurs in each channel
    (axis 1) of ``x``, counted over row blocks of at most
    ``STATS_BLOCK_PIXELS`` pixels of a channel."""
    rows = max(1, STATS_BLOCK_PIXELS // math.prod(x.shape[2:]))
    counts = np.zeros((x.shape[1], 256), dtype=np.int64)
    for start in range(0, len(x), rows):
        block = x[start:start + rows]
        for c, channel in enumerate(counts):
            channel += np.bincount(block[:, c].ravel(), minlength=256)
    return counts


def _unit_integers():
    """(bits, values): ``to_float``'s value of each pixel 0..255, exactly,
    as ``values[v] / 2**bits``."""
    ratios = [u.as_integer_ratio()
              for u in to_float(np.arange(256, dtype=np.uint8)).tolist()]
    bits = max(den.bit_length() - 1 for _, den in ratios)
    return bits, [num << (bits - den.bit_length() + 1) for num, den in ratios]


def _exact_stats(counts: np.ndarray):
    """Float64 mean and std of ``to_float``'s pixel values weighted by
    ``counts`` (one row per channel), each the nearest float to the exact
    population value. The sums are Python integers over ``2**bits``, so
    nothing is rounded before the last step."""
    bits, unit = _unit_integers()
    means, stds = [], []
    for channel in counts.tolist():
        n = sum(channel)
        s1 = sum(k * a for k, a in zip(channel, unit))
        s2 = sum(k * a * a for k, a in zip(channel, unit))
        means.append(s1 / (n << bits))  # int division rounds once
        # var = s2 / n - (s1 / n)**2, over 2**(2 * bits)
        stds.append(_sqrt_ratio(n * s2 - s1 * s1, (n * n) << (2 * bits)))
    return np.array(means), np.array(stds)


def _sqrt_ratio(num: int, den: int) -> float:
    """The float nearest to sqrt(num / den), for integers num >= 0, den > 0.

    ``isqrt`` truncates, and rounding its result to a float could round a
    second time the wrong way. So the root is taken with at least 55 bits,
    which puts every rounding midpoint on an even integer, and a nonzero
    remainder sets its last bit: the float conversion then rounds the
    truncated root as it would the exact one.
    """
    k = max(0, (110 - num.bit_length() + den.bit_length()) // 2 + 1)
    q, rem = divmod(num << (2 * k), den)
    root = math.isqrt(q)
    if rem or root * root != q:
        root |= 1
    return math.ldexp(float(root), -k)


def normalize(x: np.ndarray, mean: np.ndarray, std: np.ndarray,
              out: np.ndarray | None = None) -> np.ndarray:
    """``(x - mean) / std``, written into ``out`` when given (``out`` may be
    ``x`` itself); returns the result. uint8 pixels are put on the unit
    scale first, in a fresh array that is also the result unless ``out`` is
    given."""
    if x.dtype == np.uint8:
        x = to_float(x)
        if out is None:
            out = x
    out = np.subtract(x, mean, out=out)
    out /= std
    return out


class NormalizedRows:
    """Read-only model inputs ``(x - mean) / std`` in ``dtype``, computed for
    the rows asked for; only the batch is ever held as float.

    In float64, ``rows[idx]`` takes the raw rows ``raw[idx]`` and applies
    ``normalize``'s operations in its order, so every element equals that of
    one whole normalized array. Any other dtype computes in that dtype
    alone, as ``raw[idx] * scale - shift`` with ``scale = 1 / (255 std)``
    (``1 / std`` for float features) and ``shift = mean / std`` rounded once
    to it: each element then lies within ``2**-21 * (|x| + |mean|) / std``
    (``x`` on the unit scale) of the exact value, instead of being that
    value's nearest float.
    """

    def __init__(self, raw: np.ndarray, mean: np.ndarray, std: np.ndarray,
                 dtype):
        self.raw = raw
        self.mean = mean
        self.std = std
        self.dtype = np.dtype(dtype)
        self.shape = raw.shape
        self.itemsize = self.dtype.itemsize
        if self.dtype != np.float64:
            unit = 255.0 if raw.dtype == np.uint8 else 1.0
            self.scale = (1.0 / (unit * std)).astype(self.dtype)
            self.shift = (mean / std).astype(self.dtype)

    def __len__(self) -> int:
        return len(self.raw)

    def __getitem__(self, idx) -> np.ndarray:
        rows = self.raw[idx]
        if self.dtype != np.float64:
            x = np.multiply(rows, self.scale, dtype=self.dtype)
            x -= self.shift
            return x
        if rows.dtype == np.uint8:
            # ``to_float``'s exact cast and one rounded division, in one pass
            x = np.divide(rows, 255.0, dtype=np.float64)
        else:
            # a gather owns its fresh rows and is normalized as it is; a
            # view (a slice) of ``raw`` is copied first
            x = rows.astype(np.float64, copy=rows.base is not None)
        x -= self.mean
        x /= self.std
        return x


def subset(ds: Dataset, limit: int) -> Dataset:
    """The first ``limit`` examples in file order (0 means everything)."""
    if limit and limit < len(ds.y):
        return Dataset(ds.x[:limit], ds.y[:limit], ds.num_classes)
    return ds
