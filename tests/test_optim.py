"""Optimizer update rules against hand-stepped traces."""
import numpy as np
import pytest

from hetsim.nn import Adam, NonFiniteError, RmsProp, Sgd, make_optimizer


def test_sgd_definition():
    theta = np.array([1.0])
    Sgd(learning_rate=0.1).step(theta, np.array([2.0]))
    assert theta[0] == pytest.approx(0.8)


def test_adam_zero_gradient_is_a_fixed_point():
    theta = np.array([1.0, -2.0, 3.5])
    opt = Adam(learning_rate=0.5)
    for _ in range(5):
        opt.step(theta, np.zeros(3))
    np.testing.assert_array_equal(theta, [1.0, -2.0, 3.5])


def test_adam_two_steps_constant_gradient_trace():
    # frozen from a hand-stepped computation of the Adam update with
    # g=2, lr=0.5, beta1=0.9, beta2=0.999, eps=1e-8, theta0=1
    theta = np.array([1.0])
    opt = Adam(learning_rate=0.5)
    opt.step(theta, np.array([2.0]))
    assert theta[0] == pytest.approx(0.5000000025, abs=1e-12)
    opt.step(theta, np.array([2.0]))
    assert theta[0] == pytest.approx(5.000003522326324e-09, abs=1e-15)


def test_rmsprop_three_step_trace_on_quadratic():
    # hand-stepped oracle: f(theta) = 0.5 theta^2 so grad = theta;
    # acc = 0.9 acc + 0.1 g^2 ; theta -= 0.1 g / (sqrt(acc) + 1e-7)
    expected = [0.6837723339831303, 0.4988707391005095, 0.36918069587998514]
    theta = np.array([1.0])
    opt = RmsProp(learning_rate=0.1, rho=0.9, eps=1e-7, decay=0.0)
    for want in expected:
        opt.step(theta, theta.copy())
        assert theta[0] == pytest.approx(want, abs=1e-15)


def test_learning_rate_decay_schedule():
    # lr_t = lr / (1 + decay * t) with t = 0 on the first step:
    # 0.1, 0.1/1.5, 0.1/2 -> cumulative -0.1, -0.16666..., -0.21666...
    theta = np.array([0.0])
    opt = Sgd(learning_rate=0.1, decay=0.5)
    marks = [-0.1, -0.16666666666666669, -0.21666666666666667]
    for want in marks:
        opt.step(theta, np.array([1.0]))
        assert theta[0] == pytest.approx(want, abs=1e-15)


def test_non_finite_gradient_aborts_before_mutation():
    theta = np.array([1.0, 2.0])
    opt = Adam(learning_rate=0.1)
    with pytest.raises(NonFiniteError):
        opt.step(theta, np.array([np.nan, 1.0]))
    np.testing.assert_array_equal(theta, [1.0, 2.0])
    assert opt.state_dict()["m"] is None  # no state was created


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        Sgd(0.1).step(np.zeros(3), np.zeros(4))


def test_make_optimizer_factory_and_defaults():
    adam = make_optimizer({"algorithm": "adam"})
    assert isinstance(adam, Adam) and adam.learning_rate == pytest.approx(0.00025)
    rms = make_optimizer({"algorithm": "rmsprop"})
    assert isinstance(rms, RmsProp)
    assert rms.learning_rate == pytest.approx(0.0001)
    assert rms.decay == pytest.approx(1e-6)
    with pytest.raises(ValueError):
        make_optimizer({"algorithm": "adagrad"})


def test_state_roundtrip_restores_trajectory():
    rng = np.random.default_rng(0)
    grads = [rng.normal(size=4) for _ in range(6)]
    a = RmsProp(learning_rate=0.01)
    theta_a = np.zeros(4)
    for g in grads[:3]:
        a.step(theta_a, g)
    snap = a.state_dict()
    theta_snap = theta_a.copy()

    b = RmsProp(learning_rate=0.01)
    b.load_state_dict(snap)
    theta_b = theta_snap.copy()
    for g in grads[3:]:
        a.step(theta_a, g)
        b.step(theta_b, g)
    np.testing.assert_array_equal(theta_a, theta_b)


# -- in-place moments: the same bits as the expression form ----------------------

def _adam_reference(theta, grads, lrs, b1=0.9, b2=0.999, eps=1e-8, m=None, v=None, t0=0):
    """The textbook expressions, evaluated as written, one step per gradient."""
    m = np.zeros_like(theta) if m is None else m
    v = np.zeros_like(theta) if v is None else v
    for t, (g, lr) in enumerate(zip(grads, lrs), start=t0 + 1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        theta -= lr * mhat / (np.sqrt(vhat) + eps)
    return m, v


def _rmsprop_reference(theta, grads, lrs, rho=0.9, eps=1e-7, acc=None):
    acc = np.zeros_like(theta) if acc is None else acc
    for g, lr in zip(grads, lrs):
        acc = rho * acc + (1 - rho) * g * g
        theta -= lr * g / (np.sqrt(acc) + eps)
    return acc


def _bits(a):
    return a.view(f"u{a.itemsize}")


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("algorithm", ["adam", "rmsprop"])
def test_in_place_steps_are_bit_identical_to_the_expression_form(algorithm, dtype):
    rng = np.random.default_rng(11)
    theta0 = rng.standard_normal(257).astype(dtype)
    grads = [(rng.standard_normal(257) * 10.0 ** rng.integers(-6, 3)).astype(dtype)
             for _ in range(10)]
    lr, decay = 0.003, 0.25
    lrs = [lr / (1.0 + decay * t) for t in range(10)]
    opt = make_optimizer({"algorithm": algorithm, "learning_rate": lr, "decay": decay})
    theta = theta0.copy()
    for g in grads[:5]:
        opt.step(theta, g)
    want = theta0.copy()
    if algorithm == "adam":
        state = _adam_reference(want, grads[:5], lrs[:5])
    else:
        state = _rmsprop_reference(want, grads[:5], lrs[:5])
    assert theta.dtype == dtype
    assert np.array_equal(_bits(theta), _bits(want))

    # five more steps from a state_dict round trip, on both sides
    again = make_optimizer({"algorithm": algorithm, "learning_rate": lr, "decay": decay})
    again.load_state_dict(opt.state_dict())
    for g in grads[5:]:
        again.step(theta, g)
    if algorithm == "adam":
        _adam_reference(want, grads[5:], lrs[5:], m=state[0], v=state[1], t0=5)
    else:
        _rmsprop_reference(want, grads[5:], lrs[5:], acc=state)
    assert np.array_equal(_bits(theta), _bits(want))


def test_state_dict_is_a_copy_of_the_in_place_moments():
    opt = Adam(learning_rate=0.1)
    theta = np.ones(3)
    opt.step(theta, np.ones(3))
    saved = opt.state_dict()
    m_then = saved["m"].copy()
    opt.step(theta, np.ones(3))
    np.testing.assert_array_equal(saved["m"], m_then)
    restored = Adam(learning_rate=0.1)
    restored.load_state_dict(saved)
    restored.step(theta, np.ones(3))
    np.testing.assert_array_equal(saved["m"], m_then)
