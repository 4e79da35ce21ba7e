import numpy as np
import pytest

from subanneal.nn.optim import SGD, Adam, make_optimizer


def test_vanilla_sgd_is_w_minus_lr_g():
    opt = SGD(lr=0.1)
    params = np.array([1.0, -2.0, 3.0])
    opt.step(params, np.array([0.5, 0.5, -1.0]))
    np.testing.assert_allclose(params, [0.95, -2.05, 3.1], atol=1e-15)


def test_nesterov_two_steps_match_hand_unrolled_recurrence():
    # quadratic f(w) = 0.5*w^2, so grad = w; lr eta, momentum mu
    eta, mu = 0.1, 0.9
    w = 1.0
    opt = SGD(lr=eta, momentum=mu, nesterov=True)
    params = np.array([w])
    # hand-unrolled: v <- mu*v + g ; w <- w - eta*(g + mu*v)
    v_ref, w_ref = 0.0, w
    for _ in range(2):
        g = w_ref
        v_ref = mu * v_ref + g
        w_ref = w_ref - eta * (g + mu * v_ref)
        opt.step(params, params.copy())
    assert params[0] == pytest.approx(w_ref, abs=1e-15)


def test_plain_momentum_two_steps():
    eta, mu = 0.05, 0.8
    opt = SGD(lr=eta, momentum=mu)
    params = np.array([2.0])
    v_ref, w_ref = 0.0, 2.0
    for _ in range(2):
        g = w_ref
        v_ref = mu * v_ref + g
        w_ref = w_ref - eta * v_ref
        opt.step(params, params.copy())
    assert params[0] == pytest.approx(w_ref, abs=1e-15)


def test_adam_first_step_magnitude_is_lr():
    # bias correction makes the first update lr * g / (|g| + eps')
    lr = 0.01
    opt = Adam(lr=lr)
    params = np.array([0.0])
    opt.step(params, np.array([1.0]))
    m_hat = (1 - 0.9) * 1.0 / (1 - 0.9)
    v_hat = (1 - 0.999) * 1.0 / (1 - 0.999)
    expected = -lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert params[0] == pytest.approx(expected, abs=1e-15)
    assert abs(params[0]) == pytest.approx(lr, rel=1e-6)


def test_weight_decay_couples_into_gradient():
    opt = SGD(lr=1.0, weight_decay=0.1)
    params = np.array([2.0])
    opt.step(params, np.array([0.0]))
    # pure decay: w - lr*(g + wd*w) = 2 - 1*(0 + 0.2)
    assert params[0] == pytest.approx(1.8, abs=1e-15)


def test_nonpositive_lr_rejected():
    opt = SGD(lr=0.1)
    with pytest.raises(ValueError):
        opt.step(np.zeros(1), np.zeros(1), lr=0.0)
    with pytest.raises(ValueError):
        SGD(lr=-1.0)
    with pytest.raises(ValueError):
        Adam(lr=0.0)


def test_make_optimizer_dispatch():
    assert isinstance(make_optimizer("sgd", 0.1), SGD)
    assert isinstance(make_optimizer("adam", 0.1), Adam)
    with pytest.raises(ValueError):
        make_optimizer("lbfgs", 0.1)


def test_buffer_shapes_mirror_params():
    # one flat state array per kind, shaped like the flat parameters and
    # allocated once, at the first step
    for opt in (SGD(0.1, momentum=0.9), Adam(0.1)):
        params, grads = np.zeros(19), np.ones(19)
        opt.step(params, grads)
        states = ([opt._velocity] if isinstance(opt, SGD)
                  else [opt._m, opt._v])
        assert all(s.shape == (19,) for s in states)
        opt.step(params, grads)
        after = ([opt._velocity] if isinstance(opt, SGD)
                 else [opt._m, opt._v])
        assert all(a is s for a, s in zip(after, states))
        with pytest.raises(ValueError):
            opt.step(params, np.ones(18))


def _reference_adam_step(params, grads, state, lr, weight_decay):
    """The per-tensor Adam update, one temporary per operation."""
    state["t"] = state.get("t", 0) + 1
    b1, b2, eps = 0.9, 0.999, 1e-8
    bc1, bc2 = 1.0 - b1 ** state["t"], 1.0 - b2 ** state["t"]
    for name, p in params.items():
        g = grads[name]
        if weight_decay:
            g = g + weight_decay * p
        m = state.setdefault(("m", name), np.zeros_like(p))
        v = state.setdefault(("v", name), np.zeros_like(p))
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)


def _flat_and_views(arrays: dict):
    """One flat copy of ``arrays`` in order, and a view of it per name."""
    flat = np.concatenate([a.ravel() for a in arrays.values()])
    out, start = {}, 0
    for name, a in arrays.items():
        out[name] = flat[start:start + a.size].reshape(a.shape)
        start += a.size
    return flat, out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
def test_flat_adam_is_bit_identical_to_the_per_tensor_formula(weight_decay,
                                                              dtype):
    """One flat Adam step over views of every tensor gives the per-tensor
    reference's bits, over several steps and learning rates."""
    rng = np.random.default_rng(22)
    shapes = {"layer0.w": (7, 5), "layer2.w": (3, 2, 3, 3), "layer0.b": (5,),
              "layer2.b": (3,)}
    params = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
    ref = {n: p.copy() for n, p in params.items()}
    flat, views = _flat_and_views(params)
    state = {}
    opt = Adam(0.1, weight_decay=weight_decay)
    for lr in (0.1, 0.05, 0.3, 0.007, 0.05, 0.02):
        grads = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
        gflat, _ = _flat_and_views(grads)
        kept = gflat.copy()
        opt.step(flat, gflat, lr=lr)
        _reference_adam_step(ref, grads, state, lr, weight_decay)
        assert np.array_equal(gflat, kept)  # grads are not written
        assert flat.dtype == dtype
        for name in shapes:
            assert np.array_equal(views[name], ref[name]), name


def _reference_sgd_step(params, grads, velocity, lr, momentum, nesterov,
                        weight_decay):
    """The out-of-place update, one temporary per operation."""
    for name, p in params.items():
        g = grads[name]
        if weight_decay:
            g = g + weight_decay * p
        if momentum:
            v = velocity.setdefault(name, np.zeros_like(p))
            v *= momentum
            v += g
            d = g + momentum * v if nesterov else v
        else:
            d = g
        p -= lr * d


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("weight_decay", [0.0, 5e-4])
@pytest.mark.parametrize("momentum,nesterov", [(0.0, False), (0.9, False),
                                               (0.9, True)])
def test_in_place_sgd_is_bit_identical_to_the_formula(momentum, nesterov,
                                                      weight_decay, dtype):
    rng = np.random.default_rng(21)
    shapes = {"layer0.w": (7, 5), "layer0.b": (5,), "layer2.w": (3, 2, 3, 3)}
    params = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
    ref = {n: p.copy() for n, p in params.items()}
    flat, views = _flat_and_views(params)
    velocity = {}
    opt = SGD(0.1, momentum=momentum, nesterov=nesterov,
              weight_decay=weight_decay)
    for lr in (0.1, 0.05, 0.3, 0.007, 0.05):
        grads = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
        gflat, _ = _flat_and_views(grads)
        kept = gflat.copy()
        opt.step(flat, gflat, lr=lr)
        _reference_sgd_step(ref, grads, velocity, lr, momentum, nesterov,
                            weight_decay)
        assert np.array_equal(gflat, kept)  # grads are not written
        for name in shapes:
            assert np.array_equal(views[name], ref[name]), name
            assert views[name].dtype == dtype
    # the optimizer keeps one flat work array, two only when weight decay
    # and Nesterov both need one
    wanted = 2 if weight_decay and nesterov else 1
    assert len(opt._scratch) == wanted
    assert all(s.shape == flat.shape for s in opt._scratch)


@pytest.mark.parametrize("make", [
    lambda: SGD(0.1, momentum=0.9, nesterov=True, weight_decay=0.01),
    lambda: Adam(0.1, weight_decay=0.01),
], ids=["sgd", "adam"])
def test_mask_state_zeroes_only_the_masked_entries(make):
    # flat parameters: two weights (the prefix the mask covers), one bias
    opt = make()
    opt.mask_state(np.array([0, 1], dtype=np.uint8))  # no state yet
    params = np.array([1.0, -2.0, 0.5])
    opt.step(params, np.array([0.3, 0.4, 0.1]))
    states = ([opt._velocity] if isinstance(opt, SGD)
              else [opt._m, opt._v])
    before = [state.copy() for state in states]
    opt.mask_state(np.array([0, 1], dtype=np.uint8))
    for state, old in zip(states, before):
        assert state[0] == 0.0 and state[1] == old[1]
        assert state[2] == old[2]  # not covered by the mask
    # a zero weight with zero state and a masked (zero) gradient stays zero
    params[0] = 0.0
    for _ in range(3):
        opt.step(params, np.array([0.0, 0.4, 0.1]))
        assert params[0] == 0.0
        assert all(state[0] == 0.0 for state in states)
