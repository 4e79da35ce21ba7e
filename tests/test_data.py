import gzip
import struct

import numpy as np
import pytest

from subanneal.data import (
    DatasetError,
    load_cifar10,
    load_dataset,
    load_idx,
    load_mnist,
    make_blobs,
    normalization_stats,
    normalize,
    subset,
)
from subanneal.models import build_mlp
from subanneal.nn.optim import SGD
from subanneal.ensemble import train_parent
from subanneal.rng import substream
from subanneal.training import predict_logits

from rates import constant


def write_idx_images(path, images: np.ndarray) -> None:
    n, h, w = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, h, w))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(labels.astype(np.uint8).tobytes())


def make_mnist_dir(root, n_train=32, n_test=16, seed=0):
    rng = np.random.default_rng(seed)
    d = root / "mnist"
    d.mkdir(parents=True)
    for prefix, n in (("train", n_train), ("t10k", n_test)):
        write_idx_images(d / f"{prefix}-images-idx3-ubyte",
                         rng.integers(0, 256, (n, 28, 28)))
        write_idx_labels(d / f"{prefix}-labels-idx1-ubyte",
                         rng.integers(0, 10, n))
    return d


def idx_pixels(path) -> bytes:
    """The pixel bytes of an IDX image file: everything after its header."""
    return path.read_bytes()[16:]


class TestIdx:
    def test_roundtrip(self, tmp_path):
        images = np.arange(2 * 28 * 28, dtype=np.uint8).reshape(2, 28, 28)
        path = tmp_path / "imgs"
        write_idx_images(path, images)
        np.testing.assert_array_equal(load_idx(path), images)

    def test_gzip_transparent(self, tmp_path):
        labels = np.array([1, 2, 3], dtype=np.uint8)
        plain = tmp_path / "labels"
        write_idx_labels(plain, labels)
        gz = tmp_path / "labels2.gz"
        with gzip.open(gz, "wb") as fh:
            fh.write(plain.read_bytes())
        np.testing.assert_array_equal(load_idx(tmp_path / "labels2"), labels)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">I", 0xDEADBEEF) + b"\x00" * 8)
        with pytest.raises(DatasetError, match="offset 0"):
            load_idx(path)

    def test_truncated_header_names_offset(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(struct.pack(">I", 0x00000803) + b"\x00\x00")
        with pytest.raises(DatasetError, match="offset 4"):
            load_idx(path)

    def test_truncated_data_names_offset(self, tmp_path):
        path = tmp_path / "shortdata"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2, 28, 28) +
                         b"\x00" * 100)
        with pytest.raises(DatasetError, match="offset 16"):
            load_idx(path)


class TestMnist:
    def test_load_counts_and_scaling(self, tmp_path):
        # images load unscaled: the uint8 bytes of the file, exactly
        d = make_mnist_dir(tmp_path)
        ds = load_mnist("train", root=tmp_path)
        assert ds.x.shape == (32, 1, 28, 28)
        assert ds.y.shape == (32,)
        assert ds.num_classes == 10
        assert ds.x.dtype == np.uint8
        assert ds.x.tobytes() == idx_pixels(d / "train-images-idx3-ubyte")
        test = load_mnist("test", root=tmp_path)
        assert test.x.shape == (16, 1, 28, 28)
        assert test.x.tobytes() == idx_pixels(d / "t10k-images-idx3-ubyte")

    def test_env_var_root(self, tmp_path, monkeypatch):
        make_mnist_dir(tmp_path)
        monkeypatch.setenv("SUBANNEAL_DATA", str(tmp_path))
        ds = load_dataset("mnist", "train")
        assert len(ds.y) == 32

    def test_missing_root_is_informative(self, monkeypatch):
        monkeypatch.delenv("SUBANNEAL_DATA", raising=False)
        with pytest.raises(FileNotFoundError, match="SUBANNEAL_DATA"):
            load_dataset("mnist", "train")


class TestCifar:
    def _write_batch(self, path, n, seed=0):
        rng = np.random.default_rng(seed)
        records = np.empty((n, 3073), dtype=np.uint8)
        records[:, 0] = rng.integers(0, 10, n)
        records[:, 1:] = rng.integers(0, 256, (n, 3072))
        path.write_bytes(records.tobytes())
        return records

    def test_parse_batches(self, tmp_path):
        d = tmp_path / "cifar10"
        d.mkdir()
        recs = [self._write_batch(d / f"data_batch_{i}.bin", 4, seed=i)
                for i in range(1, 6)]
        test_recs = self._write_batch(d / "test_batch.bin", 6, seed=9)
        ds = load_cifar10("train", root=tmp_path)
        assert ds.x.shape == (20, 3, 32, 32)
        np.testing.assert_array_equal(ds.y[:4], recs[0][:, 0])
        assert ds.x.dtype == np.uint8
        assert ds.x.tobytes() == b"".join(r[:, 1:].tobytes() for r in recs)
        test = load_cifar10("test", root=tmp_path)
        assert test.x.shape == (6, 3, 32, 32)
        assert test.x.tobytes() == test_recs[:, 1:].tobytes()

    def test_bad_record_size_names_offset(self, tmp_path):
        d = tmp_path / "cifar10"
        d.mkdir()
        (d / "test_batch.bin").write_bytes(b"\x00" * 5000)
        with pytest.raises(DatasetError, match="offset"):
            load_cifar10("test", root=tmp_path)

    def test_label_out_of_range_names_offset(self, tmp_path):
        d = tmp_path / "cifar10"
        d.mkdir()
        records = np.zeros((2, 3073), dtype=np.uint8)
        records[1, 0] = 11
        (d / "test_batch.bin").write_bytes(records.tobytes())
        with pytest.raises(DatasetError, match="offset 3073"):
            load_cifar10("test", root=tmp_path)


class TestBlobs:
    def test_separable_blobs_reach_high_accuracy_with_linear_model(self):
        ds = make_blobs("train", n=200, d=8, k=2, separation=5.0)
        net = build_mlp((8,), 2, hidden=())  # single Dense layer
        net.init_params(substream(0, "init"))
        mean, std = normalization_stats(ds.x)
        x = normalize(ds.x, mean, std)
        train_parent(net, (x, ds.y), 10, SGD(momentum=0.9, nesterov=True),
                     constant(0.1), 32, substream(0, "s"))
        acc = float((predict_logits(net, x).argmax(1) == ds.y).mean())
        assert acc > 0.99

    def test_deterministic_given_data_seed(self):
        a = make_blobs("train", n=50, d=4, k=3, data_seed=1)
        b = make_blobs("train", n=50, d=4, k=3, data_seed=1)
        np.testing.assert_array_equal(a.x, b.x)
        c = make_blobs("train", n=50, d=4, k=3, data_seed=2)
        assert not np.array_equal(a.x, c.x)

    def test_train_and_test_splits_differ(self):
        a = make_blobs("train", n=50, d=4, k=3)
        b = make_blobs("test", n=50, d=4, k=3)
        assert not np.array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)  # balanced labels either way


class TestNormalization:
    def test_post_normalize_stats(self, tmp_path):
        make_mnist_dir(tmp_path, n_train=64)
        ds = load_mnist("train", root=tmp_path)
        mean, std = normalization_stats(ds.x)
        z = normalize(ds.x, mean, std)
        assert abs(z.mean()) < 1e-6
        assert abs(z.std() - 1.0) < 1e-3

    def test_per_channel_axes(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(100, 3, 4, 4)) * np.array([1, 5, 10]).reshape(1, 3, 1, 1)
        mean, std = normalization_stats(x)
        assert mean.shape == (1, 3, 1, 1)
        z = normalize(x, mean, std)
        for c in range(3):
            assert abs(z[:, c].mean()) < 1e-10
            assert abs(z[:, c].std() - 1.0) < 1e-10


def test_subset_takes_file_order_prefix():
    ds = make_blobs("train", n=50, d=4, k=2)
    small = subset(ds, 10)
    assert len(small.y) == 10
    np.testing.assert_array_equal(small.x, ds.x[:10])
    assert subset(ds, 0).x.shape == ds.x.shape


def test_unknown_dataset_and_split():
    with pytest.raises(ValueError):
        load_dataset("imagenet", "train")
    with pytest.raises(ValueError):
        load_dataset("mnist", "val")
