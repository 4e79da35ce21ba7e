"""The data and evaluation path holds one copy of what it keeps plus a
bounded chunk, and computes the same numbers as the straightforward
formulas it replaced: whole float64 arrays, normalized all at once.
Trained networks keep no activations.

The memory tests use ``tracemalloc``, which sees numpy's buffers, so their
peaks are deterministic byte counts rather than resident-set readings.
"""

import gzip
import tracemalloc

import numpy as np
import pytest

from subanneal import data, ensemble, training
from subanneal.annealing import TemperatureConfig
from subanneal.config import ExperimentConfig
from subanneal.data import (
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
    spawn_children,
    train_parent,
    tune_children,
)
from subanneal.models import build_mlp, build_small_conv
from subanneal.nn.layers import Conv2d, Network
from subanneal.nn.optim import SGD
from subanneal.nn.schedules import Constant
from subanneal.rng import substream
from subanneal.runner import RunData, build_net
from subanneal.training import (
    EVAL_BYTES,
    EVAL_CHUNK,
    DivergenceError,
    predict_logits,
    run_epoch,
)
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


def old_run_data(train_x, test_x, dtype):
    mean, std = old_stats(train_x)
    return (((train_x - mean) / std).astype(dtype, copy=False),
            ((test_x - mean) / std).astype(dtype, copy=False))


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
    rng = np.random.default_rng(3)
    if len(shape) == 4:
        raw = rng.integers(0, 256, shape, dtype=np.uint8)
        x = raw.astype(np.float64) / 255.0
    else:
        raw = x = rng.normal(2.0, 3.0, shape)
    before = raw.copy()
    mean, std = normalization_stats(raw)
    want_mean, want_std = old_stats(x)
    _assert_same(mean, want_mean)
    _assert_same(std, want_std)
    _assert_same(raw, before)


def test_normalization_stats_keep_the_constant_channel_guard():
    x = np.zeros((6, 2, 3, 3), dtype=np.uint8)
    x[:, 1] = np.arange(6).reshape(6, 1, 1)
    mean, std = normalization_stats(x)
    assert std[0, 0, 0, 0] == 1.0 and mean[0, 0, 0, 0] == 0.0
    _assert_same(std[:, 1:], old_stats(to_float(x))[1][:, 1:])


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
    want_train, want_test = old_run_data(train_x, test_x, np.dtype(dtype))
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
    net = build_net(cfg, rd, 0)
    monkeypatch.setattr(training, "EVAL_BYTES",
                        5 * net.row_floats * want_test.itemsize)
    for start in range(0, len(want_test), 5):
        _assert_same(rd.x_test[start:start + 5], want_test[start:start + 5])
    _assert_same(predict_logits(net, rd.x_test),
                 predict_logits(net, want_test))
    _assert_same(to_float(rd.x_test_raw), test_x)
    if dataset != "synthetic-blobs":
        assert rd.x_test_raw.dtype == np.uint8


def test_corrupt_matches_the_old_formula_and_leaves_x_alone():
    x = np.random.default_rng(0).random((20, 3, 4, 4))
    before = x.copy()
    got = corrupt(x, 3, np.random.default_rng(7))
    noise = np.random.default_rng(7).normal(0.0, 0.04 * 3, x.shape)
    _assert_same(got, np.clip(x + noise, 0.0, 1.0))
    _assert_same(x, before)


@pytest.mark.parametrize("block_rows", [0, 1, 3], ids=["default", "1", "3"])
def test_corrupt_on_pixels_equals_corrupt_on_their_unit_scale(monkeypatch,
                                                              block_rows):
    # 3-row blocks leave a ragged last block of 2 rows
    x = np.random.default_rng(0).integers(0, 256, (20, 3, 4, 4),
                                          dtype=np.uint8)
    if block_rows:
        monkeypatch.setattr(ensemble, "CORRUPT_BLOCK_BYTES",
                            block_rows * 3 * 4 * 4 * 8)
    before = x.copy()
    got = corrupt(x, 3, np.random.default_rng(7))
    _assert_same(got, corrupt(to_float(x), 3, np.random.default_rng(7)))
    _assert_same(x, before)


def test_run_data_corrupted_matches_the_old_formula(tmp_path, monkeypatch):
    make_mnist_dir(tmp_path, n_train=40, n_test=16)
    monkeypatch.setenv("SUBANNEAL_DATA", str(tmp_path))
    for dataset in ("mnist", "synthetic-blobs"):
        rd = RunData(_run_cfg(dataset))
        raw = rd.x_test_raw.copy()
        unit = (old_mnist(tmp_path, "test", 0)[0] if dataset == "mnist"
                else raw)
        noise = substream(3, "corrupt", 2).normal(0.0, 0.04 * 2, raw.shape)
        want = ((np.clip(unit + noise, 0.0, 1.0) - rd.mean) / rd.std)
        _assert_same(rd.corrupted(2, 3), want)
        _assert_same(rd.x_test_raw, raw)


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
    corrupt(x[:2], 1, np.random.default_rng(7))  # warm-up
    rng = np.random.default_rng(7)
    out, peak = _traced_peak(lambda: corrupt(x, 2, rng))
    # the noise array that becomes the output, plus one float64 row block
    # of at most CORRUPT_BLOCK_BYTES (a 4.9 MB array here, 1 MiB blocks);
    # unit-scaling the whole input first would add a second 4.9 MB
    assert out.nbytes == x.size * 8
    assert peak <= out.nbytes + CORRUPT_BLOCK_BYTES, peak


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
    assert rd.x_test.raw is rd.x_test_raw
    assert rd.x_test_raw.dtype == np.uint8
    assert _buffer_bytes(rd.x_test_raw) <= test_pixels
    assert kept <= pixels + test_pixels + 64 * KIB, (kept, pixels)
    # the pixels, one float64 train-sized temporary (in
    # normalization_stats), and 64 KiB for the rest
    assert peak <= pixels + 8 * pixels + test_pixels + 64 * KIB, (peak,
                                                                  pixels)


# --- trained networks keep no activations -------------------------------------

def _no_caches(net):
    return all(layer._cache is None for layer in net.layers)


def _conv_data(n=96, shape=(3, 16, 16), k=3):
    rng = np.random.default_rng(4)
    return rng.normal(size=(n,) + shape), rng.integers(0, k, n)


def _conv_net(shape=(3, 16, 16), k=3):
    net = build_small_conv(shape, k)
    net.init_params(substream(0, "init"))
    return net


def _epoch(net, x, y, controller=None):
    return run_epoch(net, x, y, SGD(0.01, momentum=0.9), Constant(0.01), 0, 0,
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


@pytest.mark.parametrize("evaluated", [False, True],
                         ids=["no-eval", "eval"])
def test_tuned_ensemble_networks_hold_no_caches(evaluated):
    x, y = _conv_data()
    eval_data = (x[:20], y[:20]) if evaluated else None
    parent = _conv_net()
    train_parent(parent, (x, y), 1, SGD(0.01), Constant(0.01), 32,
                 substream(1, "shuffle"), eval_data=eval_data)
    children = spawn_children(parent, 2, 0.5, True, substream(1, "mask"))
    members, _, failures = tune_children(
        children, TemperatureConfig(tau0=0.5, anneal_epochs=1), True, (x, y),
        1, lambda: (Constant(0.01), SGD(0.01)), 32, seed=3,
        eval_data=eval_data)
    assert not failures and len(members) == 2
    for net in [parent, *(net for net, _ in members)]:
        assert _no_caches(net)


def _tuning_peak(n_members):
    """Traced peak of tuning ``n_members`` smallconv children, one full
    96-row batch each, so a member's last batch is its largest."""
    x, y = _conv_data()
    children = spawn_children(_conv_net(), n_members, 0.5, True,
                              substream(1, "mask"))
    _, peak = _traced_peak(lambda: tune_children(
        children, TemperatureConfig(tau0=0.5, anneal_epochs=1), True, (x, y),
        1, lambda: (Constant(0.01), SGD(0.01, momentum=0.9)), 96, seed=3))
    return peak


def test_tuning_more_members_holds_no_more_activations():
    _tuning_peak(1)  # warm-up
    two, four = _tuning_peak(2), _tuning_peak(4)
    # Each finished member keeps its weights' masks, probabilities and
    # masked-weight buffers (about 80 KB each here), but no activations;
    # a member that kept its last batch's caches would add 2.5 MB.
    assert four <= two + 256 * KIB, (two, four)
