import numpy as np
import pytest

from subanneal.masks import (
    ContainerError,
    MaskSet,
    ProbabilitySet,
    apply_mask,
    full_mask,
    load_mask_set,
    load_weights,
    masked_grad,
    realize,
    save_mask_set,
    save_weights,
)
from subanneal.nn.layers import Dense, Network, ReLU
from subanneal.nn.losses import cross_entropy_softmax
from subanneal.rng import substream

from fd import numerical_grad
from maskcheck import same_mask


def _probset(value, shape=(100, 100)):
    p = np.full(shape, float(value))
    terminal = MaskSet({"layer0.w": (p >= 0.5).astype(np.uint8)})
    return ProbabilitySet(p.reshape(-1), terminal)


class TestRealize:
    def test_all_ones(self):
        ms = realize(_probset(1.0), substream(0, "t"))
        assert ms["layer0.w"].min() == 1

    def test_all_zeros(self):
        ms = realize(_probset(0.0), substream(0, "t"))
        assert ms["layer0.w"].max() == 0

    def test_half_probability_within_binomial_bound(self):
        ms = realize(_probset(0.5), substream(123, "t"))
        frac = ms["layer0.w"].mean()
        assert abs(frac - 0.5) < 0.015  # 3 sigma for n = 10,000

    def test_masks_are_the_uniform_draw_below_p(self):
        rng = np.random.default_rng(0)
        probs = {"layer0.w": rng.random((30, 20)), "layer2.w": rng.random(7)}
        terminal = MaskSet({n: p >= 0.5 for n, p in probs.items()})
        flat = np.concatenate([p.reshape(-1) for p in probs.values()])
        ms = realize(ProbabilitySet(flat, terminal), substream(4, "r"))
        twin = substream(4, "r")
        for name, p in probs.items():
            want = (twin.random(p.shape) < p).astype(np.uint8)
            assert ms[name].dtype == np.uint8
            assert np.array_equal(ms[name], want), name

    def test_fresh_draw_per_call(self):
        rng = substream(9, "t")
        a = realize(_probset(0.5), rng)
        b = realize(_probset(0.5), rng)
        assert not same_mask(a, b)

    def test_empirical_mean_tracks_p_over_many_draws(self):
        # exchangeability invariant: per-layer empirical mean within 3 sigma
        rng = substream(77, "t")
        p = 0.3
        shape = (20, 50)
        draws = 1000
        ps = _probset(p, shape)
        total = sum(realize(ps, rng)["layer0.w"].sum() for _ in range(draws))
        n = draws * shape[0] * shape[1]
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(total / n - p) < 3 * sigma


class TestApply:
    def test_identity(self):
        w = np.arange(6.0).reshape(2, 3)
        np.testing.assert_array_equal(apply_mask(w, np.ones((2, 3))), w)

    def test_zero(self):
        w = np.arange(6.0).reshape(2, 3)
        assert apply_mask(w, np.zeros((2, 3))).max() == 0.0

    def test_elementwise_definition(self):
        w = np.array([[2.0, -3.0], [4.0, 5.0]])
        m = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        np.testing.assert_array_equal(apply_mask(w, m), [[2.0, 0.0], [0.0, 5.0]])

    def test_w_not_modified(self):
        w = np.array([[2.0, -3.0]])
        apply_mask(w, np.array([[0, 0]], dtype=np.uint8))
        np.testing.assert_array_equal(w, [[2.0, -3.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            apply_mask(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_out_receives_the_product(self):
        w = np.array([[2.0, -3.0], [4.0, 5.0]])
        m = np.array([[1, 0], [0, 1]], dtype=np.uint8)
        out = np.full((2, 2), 7.0)
        assert apply_mask(w, m, out=out) is out
        np.testing.assert_array_equal(out, [[2.0, 0.0], [0.0, 5.0]])

    def test_out_float32_rounds_a_float64_scale_like_astype(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(5, 7)).astype(np.float32)
        p = rng.random((5, 7))
        out = np.empty_like(w)
        apply_mask(w, p, out=out)
        assert out.dtype == np.float32
        assert np.array_equal(out, (w * p).astype(np.float32))


class TestMaskedGrad:
    def test_identity(self):
        g = np.arange(4.0).reshape(2, 2)
        np.testing.assert_array_equal(masked_grad(g, np.ones((2, 2))), g)

    def test_zero(self):
        g = np.arange(4.0).reshape(2, 2)
        assert masked_grad(g, np.zeros((2, 2))).max() == 0.0

    def test_elementwise(self):
        g = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        np.testing.assert_array_equal(masked_grad(g, m), [[0.0, 2.0], [3.0, 0.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            masked_grad(np.zeros(3), np.zeros(4))

    def test_out_masks_in_place(self):
        g = np.array([[1.0, -2.0], [3.0, 4.0]])
        m = np.array([[0, 1], [1, 0]], dtype=np.uint8)
        want = masked_grad(g, m)
        assert masked_grad(g, m, out=g) is g
        assert np.array_equal(g, want)


class TestSparsityComplement:
    def test_all_ones_sparsity_zero(self):
        assert MaskSet({"a": np.ones((3, 3))}).sparsity() == 0.0

    def test_all_zeros_sparsity_one(self):
        assert MaskSet({"a": np.zeros((3, 3))}).sparsity() == 1.0

    def test_counting(self):
        m = np.ones(10)
        m[:3] = 0
        assert MaskSet({"a": m}).sparsity() == pytest.approx(0.3)

    def test_complement_identities(self):
        rng = substream(5, "c")
        m = MaskSet({"a": (rng.random(1000) < 0.4).astype(np.uint8)})
        comp = m.complement()
        assert same_mask(comp.complement(), m)
        assert m.sparsity() + comp.sparsity() == pytest.approx(1.0)
        np.testing.assert_array_equal(m["a"] + comp["a"], np.ones(1000))

    def test_small_complement(self):
        m = MaskSet({"a": np.array([1, 0, 1], dtype=np.uint8)})
        np.testing.assert_array_equal(m.complement()["a"], [0, 1, 0])

    def test_nonbinary_rejected(self):
        with pytest.raises(ValueError):
            MaskSet({"a": np.array([0.5, 1.0])})

    @pytest.mark.parametrize("values", [
        np.array([0, 2, 1], dtype=np.uint8),
        np.array([[0, 1], [255, 0]], dtype=np.uint8),
        np.array([1, -1], dtype=np.int64),
    ])
    def test_nonbinary_integers_rejected(self, values):
        with pytest.raises(ValueError):
            MaskSet({"a": values})

    @pytest.mark.parametrize("values", [
        np.array([True, False, True]),
        np.array([1, 0, 1], dtype=np.uint8),
        np.array([1.0, 0.0, 1.0]),
        np.zeros(0, dtype=np.uint8),
    ])
    def test_binary_input_stored_as_uint8(self, values):
        m = MaskSet({"a": values})["a"]
        assert m.dtype == np.uint8
        np.testing.assert_array_equal(m, values.astype(np.uint8))


def test_masked_off_weight_has_zero_fd_gradient():
    # the loss of the masked network must not depend on masked-off weights
    rng = substream(21, "fd")
    net = Network([Dense(4, 3), ReLU(), Dense(3, 2)], input_shape=(4,))
    net.init_params(rng)
    mask = MaskSet({
        "layer0.w": (rng.random((4, 3)) < 0.5).astype(np.uint8),
        "layer2.w": (rng.random((3, 2)) < 0.5).astype(np.uint8),
    })
    x = rng.normal(size=(5, 4))
    labels = rng.integers(0, 2, size=5)

    def masked_loss():
        w0, w2 = net.layers[0].w, net.layers[2].w
        net.layers[0].w = apply_mask(w0, mask["layer0.w"])
        net.layers[2].w = apply_mask(w2, mask["layer2.w"])
        loss, _ = cross_entropy_softmax(net.forward(x), labels)
        net.layers[0].w, net.layers[2].w = w0, w2
        return loss

    for name in ("layer0.w", "layer2.w"):
        num = numerical_grad(masked_loss, net.weights()[name])
        off = mask[name] == 0
        assert np.abs(num[off]).max() < 1e-10


def test_network_maskable_never_includes_biases():
    net = Network([Dense(5, 4), ReLU(), Dense(4, 3)], input_shape=(5,))
    ms = full_mask(net.weight_shapes())
    assert set(ms.masks) == {"layer0.w", "layer2.w"}
    # bias tensors are whole-kept by construction: sparsity over them is 0
    assert all(not name.endswith(".b") for name in ms.masks)


class TestContainer:
    def test_mask_roundtrip(self, tmp_path):
        rng = substream(1, "io")
        ms = MaskSet({
            "layer0.w": (rng.random((7, 5)) < 0.3).astype(np.uint8),
            "layer2.w": (rng.random((5, 2)) < 0.7).astype(np.uint8),
        })
        path = tmp_path / "m.ssam"
        save_mask_set(ms, path)
        loaded = load_mask_set(path)
        assert same_mask(loaded, ms)

    def test_weights_roundtrip(self, tmp_path):
        rng = substream(3, "io")
        params = {"layer0.w": rng.normal(size=(4, 3)),
                  "layer0.b": rng.normal(size=3)}
        path = tmp_path / "w.ssam"
        save_weights(params, path)
        loaded = load_weights(path)
        for name, value in params.items():
            np.testing.assert_array_equal(loaded[name], value)

    def test_bad_magic_names_offset(self, tmp_path):
        path = tmp_path / "bad.ssam"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(ContainerError, match="offset 0"):
            load_mask_set(path)

    @pytest.mark.parametrize("kind", ["mask", "weights"])
    def test_a_name_that_is_not_utf8_names_its_offset(self, tmp_path, kind):
        path = tmp_path / "name.ssam"
        if kind == "mask":
            save_mask_set(MaskSet({"a": np.ones(3, np.uint8)}), path)
        else:
            save_weights({"a": np.ones(3)}, path)
        raw = path.read_bytes()
        # magic, version, entry count and name length precede the name
        assert raw[16:17] == b"a"
        path.write_bytes(raw[:16] + b"\xff" + raw[17:])
        read = load_mask_set if kind == "mask" else load_weights
        with pytest.raises(ContainerError,
                           match="name at offset 16 is not UTF-8"):
            read(path)

    @pytest.mark.parametrize("kind", ["mask", "weights"])
    def test_every_cut_of_a_file_raises_container_error(self, tmp_path,
                                                        kind):
        rng = substream(5, "io")
        path = tmp_path / "cut.ssam"
        if kind == "mask":
            save_mask_set(MaskSet({
                "layer0.w": (rng.random((3, 2)) < 0.5).astype(np.uint8),
                "layer2.w": np.ones((2, 2), np.uint8)}), path)
            read = load_mask_set
        else:
            save_weights({"layer0.w": rng.normal(size=(3, 2)),
                          "layer0.b": rng.normal(size=2)}, path)
            read = load_weights
        raw = path.read_bytes()
        for cut in range(len(raw)):
            path.write_bytes(raw[:cut])
            with pytest.raises(ContainerError, match="offset"):
                read(path)

    def test_truncated_file_names_offset(self, tmp_path):
        ms = MaskSet({"layer0.w": np.ones((4, 4), dtype=np.uint8)})
        path = tmp_path / "trunc.ssam"
        save_mask_set(ms, path)
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ContainerError, match="offset"):
            load_mask_set(path)


def test_probability_set_validation():
    terminal = MaskSet({"a": np.ones((2, 2), dtype=np.uint8)})
    with pytest.raises(ValueError, match="outside"):
        ProbabilitySet(np.full(4, 1.5), terminal)
    with pytest.raises(ValueError, match="sizes differ"):
        ProbabilitySet(np.full(6, 0.5), terminal)
    # the flat form only: a per-layer array is not the terminal's layout
    with pytest.raises(ValueError, match="sizes differ"):
        ProbabilitySet(np.full((2, 2), 0.5), terminal)


class TestMasksAreReadOnlyValues:
    """A mask or probability set is never written after it is built, so
    one object can be shared by every holder without a copy."""

    SHAPES = {"layer0.w": (3, 4), "layer2.w": (5,)}

    def _built(self):
        ps = ProbabilitySet(np.full(17, 0.5), full_mask(self.SHAPES))
        return {
            "dict": MaskSet({n: np.ones(s, np.uint8)
                             for n, s in self.SHAPES.items()}),
            "flat uint8": MaskSet(np.ones(17, np.uint8), self.SHAPES),
            "flat bool": MaskSet(np.ones(17, bool), self.SHAPES),
            "full_mask": full_mask(self.SHAPES),
            "complement": full_mask(self.SHAPES).complement(),
            "realize": realize(ps, substream(3, "ro")),
        }

    def test_writing_into_a_mask_raises(self):
        for how, mask in self._built().items():
            before = mask.flat.copy()
            with pytest.raises(ValueError, match="read-only"):
                mask.flat[0] = 1 - mask.flat[0]
            for name in self.SHAPES:
                with pytest.raises(ValueError, match="read-only"):
                    mask[name][...] = 0
            assert np.array_equal(mask.flat, before), how

    def test_writing_into_probabilities_raises(self):
        ps = ProbabilitySet(np.full(17, 0.5), full_mask(self.SHAPES))
        with pytest.raises(ValueError, match="read-only"):
            ps.flat[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            ps.flat[:] = 0.25
        assert np.all(ps.flat == 0.5)
