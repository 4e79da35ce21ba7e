"""The data and evaluation path holds one copy of what it keeps plus a
bounded chunk, and computes the same numbers as the straightforward
formulas it replaced: whole float64 arrays, normalized all at once.
Trained networks keep no activations, gradients or masked weights.

The memory tests use ``tracemalloc``, which sees numpy's buffers, so their
peaks are deterministic byte counts rather than resident-set readings.
"""

import gzip
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from subanneal import data, ensemble, masks, runner, training
from subanneal.config import ExperimentConfig
from subanneal.data import (
    STATS_BLOCK_PIXELS,
    load_cifar10,
    load_dataset,
    load_idx,
    load_mnist,
    make_blobs,
    normalization_stats,
    normalize,
    to_float,
)
from subanneal.ensemble import (
    CORRUPT_BLOCK_BYTES,
    corrupt,
    member_controller,
    train_parent,
)
from subanneal.models import build_mlp, build_model, build_small_conv
from subanneal.nn.layers import Conv2d, Network
from subanneal.nn.optim import SGD
from subanneal.rng import substream
from subanneal.runner import RunData
from subanneal.training import (
    EVAL_BYTES,
    EVAL_CHUNK,
    DivergenceError,
    predict_logits,
    run_epoch,
)

from members import tune_member
from rates import constant
from test_data import make_mnist_dir

KIB = 1024


def _traced_peak(fn):
    """(fn(), peak bytes traced while it ran, its result included)."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def make_cifar_dir(root, per_file, n_test, seed=0):
    """Five training batch files of ``per_file`` records and one test file;
    returns the concatenated training records."""
    rng = np.random.default_rng(seed)
    d = root / "cifar10"
    d.mkdir(parents=True)
    train = []
    for name, n in [(f"data_batch_{i}.bin", per_file) for i in range(1, 6)] + [
            ("test_batch.bin", n_test)]:
        records = np.empty((n, 3073), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, n)
        records[:, 1:] = rng.integers(0, 256, (n, 3072))
        (d / name).write_bytes(records.tobytes())
        if name != "test_batch.bin":
            train.append(records)
    return np.concatenate(train)


# --- the formulas the loaders, RunData and corrupt used to compute ------------

def old_mnist(root, split, limit):
    prefix = "train" if split == "train" else "t10k"
    images = load_idx(root / "mnist" / f"{prefix}-images-idx3-ubyte")
    labels = load_idx(root / "mnist" / f"{prefix}-labels-idx1-ubyte")
    x = images.astype(np.float64)[:, None, :, :] / 255.0
    y = labels.astype(np.int64)
    return (x[:limit], y[:limit]) if limit else (x, y)


def old_cifar(records, limit):
    x = records[:, 1:].reshape(-1, 3, 32, 32).astype(np.float64) / 255.0
    y = records[:, 0].astype(np.int64)
    return (x[:limit], y[:limit]) if limit else (x, y)


def old_stats(x):
    axes = tuple(i for i in range(x.ndim) if i != 1)
    std = x.std(axis=axes, keepdims=True)
    return x.mean(axis=axes, keepdims=True), np.where(std < 1e-12, 1.0, std)


def nearest_sqrt(s, var):
    """Whether the float ``s`` is the float nearest to sqrt(``var``), a
    Fraction: ``var`` lies between the squares of the midpoints from ``s``
    to its neighbours."""
    below = (Fraction(s) + Fraction(math.nextafter(s, 0.0))) / 2
    above = (Fraction(s) + Fraction(math.nextafter(s, math.inf))) / 2
    return below * below <= var <= above * above


def exact_stats(pixels):
    """The mean and std ``normalization_stats`` gives uint8 ``pixels``:
    the population mean and std of their ``to_float`` values per channel,
    computed in Fractions and rounded once. Checks that the std is the
    nearest float to the exact one on the way."""
    means, stds = [], []
    for c in range(pixels.shape[1]):
        values, counts = np.unique(pixels[:, c], return_counts=True)
        n = int(counts.sum())
        xs = [Fraction(float(v) / 255.0) for v in values.tolist()]
        mean = sum(int(k) * x for k, x in zip(counts, xs)) / n
        var = sum(int(k) * (x - mean) ** 2 for k, x in zip(counts, xs)) / n
        std = float(var) ** 0.5
        # the float nearest the exact std is one of these three (a std
        # halfway between two floats is left to the explicit test)
        (std,) = {s for s in (math.nextafter(std, 0.0), std,
                              math.nextafter(std, math.inf))
                  if nearest_sqrt(s, var)}
        means.append(float(mean))
        stds.append(std if std >= 1e-12 else 1.0)
    shape = (1, -1) + (1,) * (pixels.ndim - 2)
    return np.array(means).reshape(shape), np.array(stds).reshape(shape)


def old_run_data(train_x, test_x, dtype, mean, std):
    return (((train_x - mean) / std).astype(dtype, copy=False),
            ((test_x - mean) / std).astype(dtype, copy=False))


def float32_inputs(raw, unit_x, mean, std):
    """The float32 model inputs of ``NormalizedRows`` as one whole array:
    ``raw * scale - shift`` in float32, with ``scale = 1 / (255 std)``
    (``1 / std`` for float features) and ``shift = mean / std`` rounded
    once. Checks its documented bound against the exact ``(unit_x - mean)
    / std`` of the unit-scaled ``unit_x`` on the way."""
    unit = 255.0 if raw.dtype == np.uint8 else 1.0
    x = np.multiply(raw, (1.0 / (unit * std)).astype(np.float32),
                    dtype=np.float32)
    x -= (mean / std).astype(np.float32)
    error = np.abs(x - (unit_x - mean) / std)
    assert np.all(error <= 2.0 ** -21 * (np.abs(unit_x) + np.abs(mean)) / std)
    return x


def _assert_same(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def _buffer_bytes(a):
    """The size of the memory ``a`` keeps alive: its root base's buffer."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return memoryview(a if a.base is None else a.base).nbytes


# --- bit equality ----------------------------------------------------------------

@pytest.mark.parametrize("limit", [0, 7, 40, 500])
def test_mnist_loader_matches_the_old_formula(tmp_path, limit):
    make_mnist_dir(tmp_path, n_train=40, n_test=16)
    ds = load_mnist("train", root=tmp_path, limit=limit)
    x, y = old_mnist(tmp_path, "train", limit)
    assert ds.x.dtype == np.uint8
    _assert_same(to_float(ds.x), x)
    _assert_same(ds.y, y)


@pytest.mark.parametrize("limit", [0, 3, 11, 20, 500])
def test_cifar_loader_matches_the_old_formula(tmp_path, limit):
    # 11 spans two of the five 4-record files
    records = make_cifar_dir(tmp_path, per_file=4, n_test=6)
    ds = load_cifar10("train", root=tmp_path, limit=limit)
    x, y = old_cifar(records, limit)
    assert ds.x.dtype == np.uint8
    _assert_same(to_float(ds.x), x)
    _assert_same(ds.y, y)


@pytest.mark.parametrize("limit", [0, 20, 100, 500])
@pytest.mark.parametrize("dataset", ["mnist", "cifar10-subset"])
def test_kept_pixels_own_no_larger_buffer(tmp_path, dataset, limit):
    # a 20-row subset of a 100-row file must not pin the file's bytes
    if dataset == "mnist":
        make_mnist_dir(tmp_path, n_train=100, n_test=4)
    else:
        make_cifar_dir(tmp_path, per_file=20, n_test=4)
    x = load_dataset(dataset, "train", root=tmp_path, limit=limit).x
    assert len(x) == min(limit or 100, 100)
    assert _buffer_bytes(x) == x.nbytes


@pytest.mark.parametrize("shape", [(2000, 1, 28, 28), (777, 1, 28, 28),
                                   (800, 3, 32, 32), (2000, 16), (15, 5)],
                         ids=["mnist", "mnist-odd", "cifar", "blobs",
                              "blobs-small"])
def test_normalization_stats_equal_numpy_mean_and_std(shape):
    # pixels: the exact mean and std of their unit-scale values, each
    # rounded once (numpy's own sums round as they go); float features:
    # numpy's x.mean / x.std bit for bit
    rng = np.random.default_rng(3)
    if len(shape) == 4:
        raw = rng.integers(0, 256, shape, dtype=np.uint8)
        want_mean, want_std = exact_stats(raw)
        np.testing.assert_allclose(want_std, old_stats(to_float(raw))[1],
                                   rtol=1e-13)
    else:
        raw = rng.normal(2.0, 3.0, shape)
        want_mean, want_std = old_stats(raw)
    before = raw.copy()
    mean, std = normalization_stats(raw)
    _assert_same(mean, want_mean)
    _assert_same(std, want_std)
    _assert_same(raw, before)


def test_normalization_stats_round_the_square_root_once():
    def stats(pixels):
        mean, std = normalization_stats(
            np.array(pixels, dtype=np.uint8).reshape(-1, 1, 1, 1))
        x = [Fraction(float(v) / 255.0) for v in pixels]
        var = ((x[1] - x[0]) / 2) ** 2
        assert mean[0, 0, 0, 0] == float((x[0] + x[1]) / 2)
        return std[0, 0, 0, 0], var

    # the square root of the variance rounded to a float rounds twice: it
    # misses the float nearest the exact std by one
    std, var = stats([18, 239])
    assert nearest_sqrt(std, var)
    assert math.sqrt(float(var)) == math.nextafter(std, 0.0)
    # this exact std lies halfway between two floats: the even one is taken
    std, var = stats([117, 255])
    assert nearest_sqrt(std, var)
    assert nearest_sqrt(math.nextafter(std, 0.0), var)
    assert std.hex() == "0x1.1515151515152p-2"


def test_the_exact_square_root_is_rounded_to_the_nearest_float():
    # random ratios of every size the stats produce, and exact squares;
    # without the remainder's sticky bit, about one in twenty of these
    # random ratios rounds the wrong way
    rng = np.random.default_rng(5)
    cases = [(0, 1), (1, 1), (4, 9), (2, 1), ((3 << 70) ** 2, 1 << 60)]
    for _ in range(2000):
        num_bits, den_bits = rng.integers(1, 260, 2)
        cases.append((int(rng.integers(1, 1 << 62)) << int(num_bits),
                      int(rng.integers(1, 1 << 62)) << int(den_bits)))
    for num, den in cases:
        s = data._sqrt_ratio(num, den)
        assert nearest_sqrt(s, Fraction(num, den)), (num, den)


def test_normalization_stats_keep_the_constant_channel_guard():
    x = np.zeros((6, 2, 3, 3), dtype=np.uint8)
    x[:, 1] = np.arange(6).reshape(6, 1, 1)
    mean, std = normalization_stats(x)
    assert std[0, 0, 0, 0] == 1.0 and mean[0, 0, 0, 0] == 0.0
    _assert_same(std[:, 1:], exact_stats(x)[1][:, 1:])


def test_cifar_limit_still_checks_every_label(tmp_path):
    d = tmp_path / "cifar10"
    d.mkdir()
    records = np.zeros((7, 3073), dtype=np.uint8)
    records[5, 0] = 10
    (d / "test_batch.bin").write_bytes(records.tobytes())
    with pytest.raises(data.DatasetError, match=f"offset {5 * 3073}"):
        load_cifar10("test", root=tmp_path, limit=2)


def test_cifar_limit_still_checks_the_files_past_it(tmp_path):
    make_cifar_dir(tmp_path, per_file=4, n_test=2)
    path = tmp_path / "cifar10" / "data_batch_4.bin"
    records = bytearray(path.read_bytes())
    records[3073] = 12
    path.write_bytes(bytes(records))
    with pytest.raises(data.DatasetError,
                       match="data_batch_4.bin: label 12 .* offset 3073"):
        load_cifar10("train", root=tmp_path, limit=3)


@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
def test_mnist_limit_still_checks_the_whole_file(tmp_path, gz):
    make_mnist_dir(tmp_path, n_train=10, n_test=4)
    path = tmp_path / "mnist" / "train-images-idx3-ubyte"
    full = path.read_bytes()
    path.unlink()

    def write(raw):
        if gz:
            with gzip.open(path.with_name(path.name + ".gz"), "wb") as fh:
                fh.write(raw)
        else:
            path.write_bytes(raw)

    write(full)
    assert load_mnist("train", root=tmp_path, limit=2).x.shape[0] == 2
    write(full[:-1])
    with pytest.raises(data.DatasetError, match="truncated.*offset 16"):
        load_mnist("train", root=tmp_path, limit=2)
    write(full + b"\x00")
    with pytest.raises(data.DatasetError, match="trailing"):
        load_mnist("train", root=tmp_path, limit=2)


# header dims whose byte count wraps an int64 to 0, overflows it or exceeds
# memory: each read must fail as truncated, allocating no more than the
# file holds. Dims with a 0 claim no bytes, so the file holds them all, but
# beside the 0 a dim or a product numpy cannot index: the reader's own
# error, naming the dims' offset.
@pytest.mark.parametrize("dims,error", [
    ((2 ** 31, 2 ** 31, 2 ** 31), "truncated .* at offset 16"),
    ((2 ** 20, 2 ** 10, 2 ** 4), "truncated .* at offset 16"),
    ((0, 2 ** 32 - 1, 2 ** 32 - 1), "dims at offset 4 .* do not fit"),
    ((2 ** 32 - 1, 0, 2 ** 32 - 1), "dims at offset 4 .* do not fit"),
], ids=["wraps", "huge", "zero-by-huge", "huge-by-zero"])
@pytest.mark.parametrize("gz", [False, True], ids=["plain", "gzip"])
def test_an_idx_header_larger_than_the_file_is_truncated(tmp_path, dims,
                                                         error, gz):
    data_bytes = b"\x00" * 100 if math.prod(dims) else b""
    raw = struct.pack(">IIII", 0x00000803, *dims) + data_bytes
    path = tmp_path / "crafted"
    if gz:
        with gzip.open(tmp_path / "crafted.gz", "wb") as fh:
            fh.write(raw)
    else:
        path.write_bytes(raw)

    def load():
        with pytest.raises(data.DatasetError, match=error):
            load_idx(path)
    assert _traced_peak(load)[1] < 4 << 20


TOO_BIG = "dims of 'a' at offset 21 do not fit an array"


@pytest.mark.parametrize("dims,error", [
    ((2 ** 32, 2 ** 32), "truncated .* at offset 37"),
    ((3, 2 ** 62), "truncated .* at offset 37"),
    ((2 ** 42,), "truncated .* at offset 29"),
    ((2 ** 64 - 1, 2 ** 64 - 1), "truncated .* at offset 37"),
    ((0, 2 ** 63), TOO_BIG),
    ((0, 2 ** 64 - 1), TOO_BIG),
    ((0, 2 ** 40, 2 ** 40), TOO_BIG),
    ((1,) * 70, TOO_BIG),
], ids=["wraps", "overflows", "huge", "u64-max", "zero-by-2^63",
        "zero-by-u64-max", "zero-by-huge", "rank-70"])
@pytest.mark.parametrize("kind", ["mask", "weights"])
def test_a_container_header_larger_than_the_file_is_truncated(tmp_path, dims,
                                                              error, kind):
    path = tmp_path / "crafted.ssam"
    values = b"\x00" * 64 if 0 not in dims else b""
    path.write_bytes(struct.pack("<4sIII", b"SSAM", 1, 1, 1) + b"a"
                     + struct.pack(f"<I{len(dims)}Q", len(dims), *dims)
                     + values)
    read = masks.load_mask_set if kind == "mask" else masks.load_weights

    def load():
        with pytest.raises(masks.ContainerError, match=error):
            read(path)
    assert _traced_peak(load)[1] < 1 << 20


def test_an_empty_container_entry_still_loads(tmp_path):
    path = tmp_path / "empty.ssam"
    masks.save_weights({"a": np.zeros((0, 5))}, path)
    assert masks.load_weights(path)["a"].shape == (0, 5)


def test_a_container_rank_larger_than_the_file_is_truncated(tmp_path):
    path = tmp_path / "rank.ssam"
    path.write_bytes(struct.pack("<4sIII", b"SSAM", 1, 1, 1) + b"a"
                     + struct.pack("<I", 2 ** 31) + b"\x00" * 64)

    def load():
        with pytest.raises(masks.ContainerError,
                           match="truncated .* bytes for dims at offset 21"):
            masks.load_mask_set(path)
    assert _traced_peak(load)[1] < 1 << 20

def test_mnist_limit_still_compares_the_record_counts(tmp_path):
    from test_data import write_idx_labels

    make_mnist_dir(tmp_path, n_train=10, n_test=4)
    write_idx_labels(tmp_path / "mnist" / "train-labels-idx1-ubyte",
                     np.zeros(9))
    with pytest.raises(data.DatasetError, match="10 images but 9 labels"):
        load_mnist("train", root=tmp_path, limit=3)


@pytest.mark.parametrize("limit", [0, 13])
def test_blobs_limit_matches_the_old_subset(limit):
    ds = load_dataset("synthetic-blobs", "train", limit=limit, n=50, d=4, k=3)
    full = make_blobs("train", n=50, d=4, k=3)
    _assert_same(ds.x, full.x[:limit] if limit else full.x)
    _assert_same(ds.y, full.y[:limit] if limit else full.y)


def _run_cfg(dataset, **extra):
    raw = {"task": "prune-tune", "dataset": dataset,
           "model": "mlp" if dataset != "cifar10-subset" else "smallconv",
           "blobs": {"n": 60, "d": 5, "k": 3, "separation": 4.0,
                     "data_seed": 0},
           "train_subset": 0}
    raw.update(extra)
    return ExperimentConfig.from_dict(raw)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("subsets", [(0, 0), (25, 9)], ids=["full", "subset"])
@pytest.mark.parametrize("dataset", ["mnist", "cifar10-subset",
                                     "synthetic-blobs"])
def test_run_data_matches_the_old_formulas(tmp_path, monkeypatch, dataset,
                                           subsets, dtype):
    train_subset, test_subset = subsets
    if dataset == "mnist":
        make_mnist_dir(tmp_path, n_train=40, n_test=16)
        train_x = old_mnist(tmp_path, "train", train_subset)[0]
        test_x = old_mnist(tmp_path, "test", test_subset)[0]
    elif dataset == "cifar10-subset":
        records = make_cifar_dir(tmp_path, per_file=8, n_test=12)
        train_x = old_cifar(records, train_subset)[0]
        test_x = old_cifar(np.frombuffer(
            (tmp_path / "cifar10" / "test_batch.bin").read_bytes(),
            dtype=np.uint8).reshape(-1, 3073), test_subset)[0]
    else:
        train_x = make_blobs("train", n=60, d=5, k=3).x
        test_x = make_blobs("test", n=15, d=5, k=3).x
        train_x = train_x[:train_subset] if train_subset else train_x
        test_x = test_x[:test_subset] if test_subset else test_x
    monkeypatch.setenv("SUBANNEAL_DATA", str(tmp_path))
    cfg = _run_cfg(dataset, train_subset=train_subset,
                   test_subset=test_subset, dtype=dtype)
    rd = RunData(cfg)
    if dataset == "synthetic-blobs":
        mean, std = old_stats(train_x)
    else:
        mean, std = exact_stats(np.rint(train_x * 255.0).astype(np.uint8))
    want_train, want_test = old_run_data(train_x, test_x, np.dtype(dtype),
                                         mean, std)
    if dtype == "float32":
        # float32 inputs are computed in float32, within a documented bound
        # of the float64 formula instead of its nearest floats
        want_train = float32_inputs(rd.x_train.raw, train_x, mean, std)
        want_test = float32_inputs(rd.x_test.raw, test_x, mean, std)
    assert len(rd.x_train) == len(want_train)
    assert rd.x_train.shape == want_train.shape
    assert rd.x_train.itemsize == want_train.itemsize
    # the batches run_epoch draws, and whole and partial slices
    order = np.random.default_rng(5).permutation(len(want_train))
    for start in range(0, len(order), 7):
        batch = order[start:start + 7]
        _assert_same(rd.x_train[batch], want_train[batch])
    _assert_same(rd.x_train[:], want_train)
    _assert_same(rd.x_train[3:11], want_train[3:11])
    # the test set as evaluation slices it: whole, and in the chunks
    # predict_logits draws under a 5-row budget, with the same logits
    assert len(rd.x_test) == len(want_test)
    assert rd.x_test.shape == want_test.shape
    assert rd.x_test.itemsize == want_test.itemsize
    _assert_same(rd.x_test[:], want_test)
    net = build_model(cfg.model, rd.input_shape, rd.num_classes,
                      substream(0, "init"), dtype=rd.dtype)
    monkeypatch.setattr(training, "EVAL_BYTES",
                        5 * net.row_floats * want_test.itemsize)
    for start in range(0, len(want_test), 5):
        _assert_same(rd.x_test[start:start + 5], want_test[start:start + 5])
    _assert_same(predict_logits(net, rd.x_test),
                 predict_logits(net, want_test))
    _assert_same(to_float(rd.x_test.raw), test_x)
    if dataset != "synthetic-blobs":
        assert rd.x_test.raw.dtype == np.uint8


def test_a_float_batch_is_normalized_in_its_own_gather():
    raw = np.random.default_rng(0).normal(size=(500, 64))
    keep = raw.copy()
    mean, std = normalization_stats(raw)
    rows = data.NormalizedRows(raw, mean, std, np.float64)
    idx = np.random.default_rng(1).permutation(500)[:200]
    rows[idx]  # warm-up
    batch, peak = _traced_peak(lambda: rows[idx])
    # the gathered rows become the batch, with no second float copy of
    # them (100 KiB here); the in-place broadcast steps take numpy's fixed
    # 64 KiB ufunc buffer
    assert peak <= batch.nbytes + 80 * KIB, (peak, batch.nbytes)
    _assert_same(batch, normalize(raw[idx], mean, std))
    # a slice is a view of the raw rows, so it is copied before normalizing
    _assert_same(rows[10:20], normalize(keep[10:20], mean, std))
    _assert_same(rows[:], normalize(keep, mean, std))
    _assert_same(raw, keep)


def _rows(x):
    """Float64 model inputs of ``x``, normalized with its own statistics."""
    mean, std = normalization_stats(x)
    return data.NormalizedRows(x, mean, std, np.float64)


def test_corrupt_matches_the_old_formula_and_leaves_x_alone():
    # pixels are clamped on their unit scale; features keep their own
    # scale, unclamped
    rng = np.random.default_rng(0)
    for x, unit, clamp in (
            (rng.integers(0, 256, (20, 3, 4, 4), dtype=np.uint8), 255.0, True),
            (rng.normal(0.0, 3.0, (20, 5)), 1.0, False)):
        rows = _rows(x)
        before = x.copy()
        got = corrupt(rows, 3, np.random.default_rng(7))
        noisy = x / unit + np.random.default_rng(7).normal(0.0, 0.04 * 3,
                                                           x.shape)
        if clamp:
            noisy = np.clip(noisy, 0.0, 1.0)
        _assert_same(got, (noisy - rows.mean) / rows.std)
        _assert_same(x, before)


@pytest.mark.parametrize("block_rows", [0, 1, 3], ids=["default", "1", "3"])
def test_corrupt_on_pixels_equals_corrupt_on_their_unit_scale(monkeypatch,
                                                              block_rows):
    # 3-row blocks leave a ragged last block of 2 rows
    x = np.random.default_rng(0).integers(0, 256, (20, 3, 4, 4),
                                          dtype=np.uint8)
    if block_rows:
        # a row's float64 noise and unit-scaled pixels: 16 bytes a pixel
        monkeypatch.setattr(ensemble, "CORRUPT_BLOCK_BYTES",
                            block_rows * 3 * 4 * 4 * 16)
    rows = _rows(x)
    before = x.copy()
    got = corrupt(rows, 3, np.random.default_rng(7))
    noise = np.random.default_rng(7).normal(0.0, 0.04 * 3, x.shape)
    unit = np.clip(to_float(x) + noise, 0.0, 1.0)
    _assert_same(got, (unit - rows.mean) / rows.std)
    _assert_same(x, before)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_run_data_corrupted_matches_the_old_formula(tmp_path, monkeypatch,
                                                    dtype):
    # the float64 formula, bit for bit; float32 inputs are that array
    # rounded once (its noise is float64, to keep the stream). Pixels are
    # clamped on their unit scale, blob features are not clamped.
    make_mnist_dir(tmp_path, n_train=40, n_test=16)
    monkeypatch.setenv("SUBANNEAL_DATA", str(tmp_path))
    for dataset in ("mnist", "synthetic-blobs"):
        rd = RunData(_run_cfg(dataset, dtype=dtype))
        raw = rd.x_test.raw.copy()
        noise = substream(3, "corrupt", 2).normal(0.0, 0.04 * 2, raw.shape)
        if dataset == "mnist":
            noisy = np.clip(old_mnist(tmp_path, "test", 0)[0] + noise, 0.0,
                            1.0)
        else:
            noisy = raw + noise
        want = (noisy - rd.x_test.mean) / rd.x_test.std
        _assert_same(rd.test_inputs(2, 3), want.astype(dtype))
        _assert_same(rd.x_test.raw, raw)


def test_run_data_corrupted_does_not_call_normalize(tmp_path, monkeypatch):
    # the benchmark's tracer counts normalize as data loading, and scoring
    # a corrupted test set is not loading
    make_mnist_dir(tmp_path, n_train=40, n_test=16)
    monkeypatch.setenv("SUBANNEAL_DATA", str(tmp_path))
    rd = RunData(_run_cfg("mnist"))

    def fail(*args, **kwargs):
        pytest.fail("RunData.test_inputs called normalize")

    monkeypatch.setattr(data, "normalize", fail)
    monkeypatch.setattr(runner, "normalize", fail, raising=False)
    assert rd.test_inputs(2, 3).shape == rd.x_test.shape


def test_normalize_writes_into_out_and_returns_it():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(30, 3, 2, 2))
    mean, std = normalization_stats(x)
    want = (x - mean) / std
    out = np.empty_like(x)
    assert normalize(x, mean, std, out=out) is out
    _assert_same(out, want)
    assert normalize(x, mean, std, out=x) is x
    _assert_same(x, want)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_mlp_logits_keep_the_old_4096_row_chunks(dtype):
    # MNIST-shaped MLP 300-100 on a full 10000-row t10k set, as the shipped
    # MNIST configs evaluate it. A BLAS may round a row differently with its
    # position in a GEMM, so only the old chunk boundaries give the old bits.
    net = build_mlp((1, 28, 28), 10, dtype=dtype)
    net.init_params(np.random.default_rng(0))
    x = np.random.default_rng(1).random((10000, 1, 28, 28)).astype(dtype)
    want = np.concatenate([net.forward(x[start:start + 4096])
                           for start in range(0, len(x), 4096)])
    net.clear_cache()
    _assert_same(predict_logits(net, x), want)


def test_mlp_logits_equal_one_forward_pass_at_the_benchmark_shape():
    # MNIST-shaped MLP 300-100 on a 2000-row test set: one chunk
    net = build_mlp((1, 28, 28), 10)
    net.init_params(np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(2000, 1, 28, 28))
    assert min(EVAL_CHUNK, EVAL_BYTES // (net.row_floats * x.itemsize)) \
        >= len(x)
    want = net.forward(x)
    net.clear_cache()
    _assert_same(predict_logits(net, x), want)


def test_smallconv_logits_match_one_forward_pass():
    net = build_small_conv((3, 32, 32), 10)
    net.init_params(np.random.default_rng(0))
    assert net.row_floats == 3 * 3 * 3 * 16 * 16  # conv1's cols per example
    x = np.random.default_rng(1).normal(size=(400, 3, 32, 32))
    want = net.forward(x)
    net.clear_cache()
    got = predict_logits(net, x)
    assert got.dtype == want.dtype
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)


def test_small_budget_chunks_give_the_same_logits(monkeypatch):
    net = build_mlp((6,), 4, hidden=(16,))
    net.init_params(np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(53, 6))
    want = net.forward(x)
    net.clear_cache()
    monkeypatch.setattr(training, "EVAL_BYTES", 16 * 8 * 5)  # 5-row chunks
    got = predict_logits(net, x)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
    assert all(layer._cache is None for layer in net.layers)


@pytest.mark.parametrize("build", [
    lambda: build_mlp((1, 28, 28), 10),
    lambda: build_small_conv((3, 32, 32), 10),
], ids=["mlp", "smallconv"])
def test_forward_floats_covers_every_array_a_layer_allocates(build):
    net = build()
    net.init_params(np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(1,) + net.input_shape)
    floats = []
    for layer in net.layers:
        want = layer.forward_floats(x.shape[1:])
        y = layer.forward(x)
        sizes = [0 if np.shares_memory(y, x) else y.size]
        if isinstance(layer, Conv2d):
            sizes.append(layer._cache[0].size)  # cols
        assert max(sizes) == want, layer
        floats.append(want)
        x = y
    assert net.row_floats == max(floats)


# --- memory ------------------------------------------------------------------------

def test_mnist_loader_converts_only_the_kept_rows(tmp_path):
    peaks = []
    for n in (100, 800):
        root = tmp_path / f"n{n}"
        make_mnist_dir(root, n_train=n, n_test=4)
        load_mnist("train", root=root, limit=20)  # warm-up
        ds, peak = _traced_peak(lambda: load_mnist("train", root=root,
                                                   limit=20))
        assert ds.x.shape == (20, 1, 28, 28)
        peaks.append(peak)
    # The 700 more rows are read as bytes (549 KiB) but not converted:
    # as float64 they would be 4.3 MiB.
    extra_floats = 700 * 28 * 28 * 8
    assert peaks[1] - peaks[0] < extra_floats // 4, peaks


def test_cifar_loader_converts_only_the_kept_rows(tmp_path):
    peaks = []
    for per_file in (40, 160):
        root = tmp_path / f"n{per_file}"
        make_cifar_dir(root, per_file=per_file, n_test=4)
        load_cifar10("train", root=root, limit=50)  # warm-up
        ds, peak = _traced_peak(lambda: load_cifar10("train", root=root,
                                                     limit=50))
        assert ds.x.shape == (50, 3, 32, 32)
        peaks.append(peak)
    # The 600 more records are read as bytes, one file at a time plus the
    # file the kept rows come from, but not converted: as float64 they
    # would be 14 MiB.
    extra_floats = 600 * 3072 * 8
    assert peaks[1] - peaks[0] < extra_floats // 4, peaks


def test_smallconv_evaluation_peak_is_bounded_by_the_budget():
    net = build_small_conv((3, 32, 32), 10)
    net.init_params(np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(800, 3, 32, 32))
    predict_logits(net, x[:8])  # warm-up
    logits, peak = _traced_peak(lambda: predict_logits(net, x))
    # Each layer's forward state is dropped as soon as that layer has run,
    # so conv1's cols block (at most EVAL_BYTES) is freed before conv2
    # builds its own. The peak is inside conv1: its padded input, its cols
    # and its output before and after the layout copy, about two budgets
    # (2.09 measured). Evaluating all 800 rows at once builds a 44 MB cols
    # block alone.
    assert peak < 2.5 * EVAL_BYTES + logits.nbytes, peak


@pytest.mark.parametrize("pixels", [False, True], ids=["array", "rows"])
def test_evaluation_runs_one_forward_call_per_chunk(monkeypatch, pixels):
    # the benchmark counts nn.forward calls and training.eval rows; freeing
    # each layer's state inside the one call must not split a chunk
    net = build_small_conv((3, 32, 32), 10)
    net.init_params(np.random.default_rng(0))
    raw = np.random.default_rng(1).integers(0, 256, (400, 3, 32, 32),
                                            dtype=np.uint8)
    x = to_float(raw)
    if pixels:
        mean, std = normalization_stats(raw)
        x = data.NormalizedRows(raw, mean, std, np.float64)
    rows = EVAL_BYTES // (net.row_floats * 8)
    calls = []
    forward = Network.forward

    def counted(self, batch, **kwargs):
        calls.append((len(batch), kwargs))
        return forward(self, batch, **kwargs)

    monkeypatch.setattr(Network, "forward", counted)
    predict_logits(net, x)
    sizes = [rows] * (400 // rows) + [400 % rows]
    assert calls == [(n, {"keep_cache": False}) for n in sizes]


def test_corrupt_on_pixels_builds_one_float_array():
    x = np.random.default_rng(0).integers(0, 256, (200, 3, 32, 32),
                                          dtype=np.uint8)
    rows = _rows(x)
    corrupt(_rows(x[:2]), 1, np.random.default_rng(7))  # warm-up
    rng = np.random.default_rng(7)
    out, peak = _traced_peak(lambda: corrupt(rows, 2, rng))
    # the noise array that becomes the output, plus one float64 row block
    # of at most CORRUPT_BLOCK_BYTES (a 4.9 MB array here, 1 MiB blocks);
    # unit-scaling the whole input first would add a second 4.9 MB
    assert out.nbytes == x.size * 8
    assert peak <= out.nbytes + CORRUPT_BLOCK_BYTES, peak


@pytest.mark.parametrize("sizes", [(1, 1, 1, 1), (3, 5), (2, 9, 1)])
def test_generator_normal_drawn_in_row_blocks_equals_one_draw(sizes):
    # corrupt draws its noise a row block at a time and relies on the
    # blocks continuing one stream; a numpy whose Generator.normal buffers
    # or skips between calls would change every corrupted test set
    shape = (sum(sizes), 3, 4, 4)
    want = np.random.default_rng(11).normal(0.0, 0.12, shape)
    rng = np.random.default_rng(11)
    got = np.concatenate([rng.normal(0.0, 0.12, (n,) + shape[1:])
                          for n in sizes])
    _assert_same(got, want)


def test_corrupt_in_float32_holds_the_output_and_one_block():
    x = np.random.default_rng(0).integers(0, 256, (200, 3, 32, 32),
                                          dtype=np.uint8)
    mean, std = normalization_stats(x)
    rows = data.NormalizedRows(x, mean, std, np.float32)
    corrupt(data.NormalizedRows(x[:2], mean, std, np.float32), 1,
            np.random.default_rng(7))  # warm-up
    out, peak = _traced_peak(lambda: corrupt(rows, 2,
                                             np.random.default_rng(7)))
    # the float32 output (2.5 MB here), plus one row block's float64 noise
    # and unit-scaled pixels; a whole float64 set would add 4.9 MB
    assert out.dtype == np.float32
    assert peak <= out.nbytes + CORRUPT_BLOCK_BYTES, peak
    want = corrupt(_rows(x), 2, np.random.default_rng(7))
    _assert_same(out, want.astype(np.float32))


@pytest.mark.parametrize("shape", [(2000, 1, 28, 28), (20000, 1, 28, 28),
                                   (1500, 3, 32, 32)],
                         ids=["mnist-2k", "mnist-20k", "cifar"])
def test_normalization_stats_peak_does_not_grow_with_the_split(shape):
    x = np.random.default_rng(0).integers(0, 256, shape, dtype=np.uint8)
    normalization_stats(x[:4])  # warm-up
    _, peak = _traced_peak(lambda: normalization_stats(x))
    # one block of one channel's pixels, copied out and widened to intp by
    # np.bincount; a float64 copy of the 2k-row split alone is 12.5 MB
    assert peak <= 9 * STATS_BLOCK_PIXELS + 64 * KIB, peak


def test_cifar_loader_holds_one_file_at_a_time(tmp_path):
    make_cifar_dir(tmp_path, per_file=100, n_test=4)
    load_cifar10("train", root=tmp_path)  # warm-up
    ds, peak = _traced_peak(lambda: load_cifar10("train", root=tmp_path))
    # the pixels and labels, plus the bytes of the file being read (300
    # KiB); holding every file until a final concatenation adds 1.2 MB
    assert peak <= ds.x.nbytes + ds.y.nbytes + 100 * 3073 + 64 * KIB, peak


def test_cifar_file_that_changes_size_while_loading_is_an_error(
        tmp_path, monkeypatch):
    # the output is sized from the file sizes before any file is read
    make_cifar_dir(tmp_path, per_file=4, n_test=2)
    read_bytes = type(tmp_path).read_bytes

    def grown(path):
        raw = read_bytes(path)
        return raw + raw[:3073] if path.name == "data_batch_2.bin" else raw

    monkeypatch.setattr(type(tmp_path), "read_bytes", grown)
    with pytest.raises(data.DatasetError,
                       match="data_batch_2.bin: size changed from 12292 to "
                             "15365"):
        load_cifar10("train", root=tmp_path)


def test_run_data_holds_at_most_one_train_sized_temporary(tmp_path,
                                                          monkeypatch):
    make_mnist_dir(tmp_path, n_train=2000, n_test=50)
    monkeypatch.setenv("SUBANNEAL_DATA", str(tmp_path))
    cfg = _run_cfg("mnist")
    RunData(cfg)  # warm-up
    tracemalloc.start()
    try:
        rd = RunData(cfg)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    pixels = 2000 * 28 * 28
    test_pixels = 50 * 28 * 28
    # both splits keep only their uint8 pixels
    assert rd.x_train.raw.dtype == np.uint8
    assert _buffer_bytes(rd.x_train.raw) <= pixels
    assert rd.x_test.raw.dtype == np.uint8
    assert _buffer_bytes(rd.x_test.raw) <= test_pixels
    assert kept <= pixels + test_pixels + 64 * KIB, (kept, pixels)
    # the pixels, normalization_stats' one counting block, and 64 KiB for
    # the rest: no float train-sized temporary (even float16 would be 3.1
    # MB here)
    assert peak <= (pixels + test_pixels + 9 * STATS_BLOCK_PIXELS
                    + 64 * KIB), (peak, pixels)


# --- trained networks keep only their parameters ------------------------------

def _no_caches(net):
    """No activations, parameter gradients (per layer or the flat array)
    or masked-weight buffer: only the flat parameters and their views."""
    return (all(getattr(layer, attr, None) is None for layer in net.layers
                for attr in ("_cache", "grad_w", "grad_b"))
            and net.grad is None and net.mask_buffer is None
            and all(np.shares_memory(p, net.flat)
                    for p in net.params().values()))


def _conv_data(n=96, shape=(3, 16, 16), k=3):
    rng = np.random.default_rng(4)
    return rng.normal(size=(n,) + shape), rng.integers(0, k, n)


def _conv_net(shape=(3, 16, 16), k=3):
    net = build_small_conv(shape, k)
    net.init_params(substream(0, "init"))
    return net


def _epoch(net, x, y, controller=None):
    return run_epoch(net, x, y, SGD(momentum=0.9), constant(0.01), 0, 0,
                     32, substream(1, "shuffle"), controller=controller,
                     rng_mask=substream(2, "bernoulli"))


def test_run_epoch_leaves_no_activation_caches():
    net = _conv_net()
    x, y = _conv_data()
    _epoch(net, x, y)
    assert _no_caches(net)


def test_a_diverged_epoch_leaves_no_activation_caches():
    net = _conv_net()
    x, y = _conv_data()
    x[:] = np.nan
    with pytest.raises(DivergenceError):
        _epoch(net, x, y)
    assert _no_caches(net)


def _tune_members(parent, n_members, x, y, batch_size, optimizer,
                  eval_data=None):
    """Members 0 .. n-1 of a partitioned ensemble, tuned one epoch each in
    turn; returns the tuned networks."""
    nets = []
    for i in range(n_members):
        controller = member_controller(parent.weight_shapes(), i, 0.5, True,
                                       0.5, "reverse-dropout", "cosine", 1,
                                       substream(1, "mask"))
        net, _ = tune_member(parent, i, controller, (x, y), 1,
                             constant(0.01), optimizer(), batch_size, seed=3,
                             eval_data=eval_data)
        nets.append(net)
    return nets


@pytest.mark.parametrize("evaluated", [False, True],
                         ids=["no-eval", "eval"])
def test_tuned_ensemble_networks_hold_no_caches(evaluated):
    x, y = _conv_data()
    eval_data = (x[:20], y[:20]) if evaluated else None
    parent = _conv_net()
    train_parent(parent, (x, y), 1, SGD(), constant(0.01), 32,
                 substream(1, "shuffle"), eval_data=eval_data)
    members = _tune_members(parent, 2, x, y, 32, lambda: SGD(),
                            eval_data=eval_data)
    for net in [parent, *members]:
        assert _no_caches(net)


def _tuning_peak(n_members):
    """Traced peak of tuning ``n_members`` smallconv members in turn, one
    full 96-row batch each, so a member's last batch is its largest."""
    x, y = _conv_data()
    parent = _conv_net()
    _, peak = _traced_peak(lambda: _tune_members(
        parent, n_members, x, y, 96, lambda: SGD(momentum=0.9)))
    return peak


def test_tuning_more_members_holds_no_more_activations():
    _tuning_peak(1)  # warm-up
    two, four = _tuning_peak(2), _tuning_peak(4)
    # Each finished member keeps its weights, but no activations,
    # gradients or masked-weight buffers; a member that kept its last
    # batch's caches would add 2.5 MB.
    assert four <= two + 256 * KIB, (two, four)
