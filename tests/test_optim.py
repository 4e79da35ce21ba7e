import numpy as np
import pytest

from subanneal.nn.optim import SGD, Adam, make_optimizer


def test_vanilla_sgd_is_w_minus_lr_g():
    opt = SGD(lr=0.1)
    params = {"w": np.array([1.0, -2.0, 3.0])}
    grads = {"w": np.array([0.5, 0.5, -1.0])}
    opt.step(params, grads)
    np.testing.assert_allclose(params["w"], [0.95, -2.05, 3.1], atol=1e-15)


def test_nesterov_two_steps_match_hand_unrolled_recurrence():
    # quadratic f(w) = 0.5*w^2, so grad = w; lr eta, momentum mu
    eta, mu = 0.1, 0.9
    w = 1.0
    opt = SGD(lr=eta, momentum=mu, nesterov=True)
    params = {"w": np.array([w])}
    # hand-unrolled: v <- mu*v + g ; w <- w - eta*(g + mu*v)
    v_ref, w_ref = 0.0, w
    for _ in range(2):
        g = w_ref
        v_ref = mu * v_ref + g
        w_ref = w_ref - eta * (g + mu * v_ref)
        opt.step(params, {"w": params["w"].copy()})
    assert params["w"][0] == pytest.approx(w_ref, abs=1e-15)


def test_plain_momentum_two_steps():
    eta, mu = 0.05, 0.8
    opt = SGD(lr=eta, momentum=mu)
    params = {"w": np.array([2.0])}
    v_ref, w_ref = 0.0, 2.0
    for _ in range(2):
        g = w_ref
        v_ref = mu * v_ref + g
        w_ref = w_ref - eta * v_ref
        opt.step(params, {"w": params["w"].copy()})
    assert params["w"][0] == pytest.approx(w_ref, abs=1e-15)


def test_adam_first_step_magnitude_is_lr():
    # bias correction makes the first update lr * g / (|g| + eps')
    lr = 0.01
    opt = Adam(lr=lr)
    params = {"w": np.array([0.0])}
    opt.step(params, {"w": np.array([1.0])})
    m_hat = (1 - 0.9) * 1.0 / (1 - 0.9)
    v_hat = (1 - 0.999) * 1.0 / (1 - 0.999)
    expected = -lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    assert params["w"][0] == pytest.approx(expected, abs=1e-15)
    assert abs(params["w"][0]) == pytest.approx(lr, rel=1e-6)


def test_weight_decay_couples_into_gradient():
    opt = SGD(lr=1.0, weight_decay=0.1)
    params = {"w": np.array([2.0])}
    opt.step(params, {"w": np.array([0.0])})
    # pure decay: w - lr*(g + wd*w) = 2 - 1*(0 + 0.2)
    assert params["w"][0] == pytest.approx(1.8, abs=1e-15)


def test_nonpositive_lr_rejected():
    opt = SGD(lr=0.1)
    with pytest.raises(ValueError):
        opt.step({"w": np.zeros(1)}, {"w": np.zeros(1)}, lr=0.0)
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
    opt = SGD(lr=0.1, momentum=0.9)
    params = {"a": np.zeros((3, 4)), "b": np.zeros(7)}
    grads = {"a": np.ones((3, 4)), "b": np.ones(7)}
    opt.step(params, grads)
    assert opt._velocity["a"].shape == (3, 4)
    assert opt._velocity["b"].shape == (7,)
    with pytest.raises(ValueError):
        opt.step(params, {"a": np.ones((4, 3)), "b": np.ones(7)})


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
    velocity = {}
    opt = SGD(0.1, momentum=momentum, nesterov=nesterov,
              weight_decay=weight_decay)
    for lr in (0.1, 0.05, 0.3, 0.007, 0.05):
        grads = {n: rng.normal(size=s).astype(dtype) for n, s in shapes.items()}
        kept = {n: g.copy() for n, g in grads.items()}
        opt.step(params, grads, lr=lr)
        _reference_sgd_step(ref, kept, velocity, lr, momentum, nesterov,
                            weight_decay)
        for name in shapes:
            assert np.array_equal(grads[name], kept[name])  # grads are not written
            assert np.array_equal(params[name], ref[name]), name
            assert params[name].dtype == dtype
    # the optimizer keeps one work array per parameter, two only when
    # weight decay and Nesterov both need one
    wanted = 2 if weight_decay and nesterov else 1
    assert all(len(s) == wanted for s in opt._scratch.values())
