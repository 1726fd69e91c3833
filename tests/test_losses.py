"""Loss definitions, edge cases, and the fused cross-entropy gradient."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsim.nn import losses
from hetsim.nn.losses import cross_entropy, huber


def test_uniform_prediction_loss_is_log_k():
    probs = np.full((1, 10), 0.1)
    loss, _ = cross_entropy(probs, np.array([7]))
    assert loss == pytest.approx(np.log(10.0), abs=1e-12)


def test_perfect_prediction_loss_is_zero():
    probs = np.zeros((1, 4))
    probs[0, 2] = 1.0
    loss, _ = cross_entropy(probs, np.array([2]))
    assert loss == 0.0


def test_fused_gradient_is_probs_minus_onehot_over_n():
    probs = np.array([[0.2, 0.5, 0.3], [0.6, 0.1, 0.3]])
    _, dlogits = cross_entropy(probs, np.array([1, 0]))
    expected = probs.copy()
    expected[0, 1] -= 1.0
    expected[1, 0] -= 1.0
    np.testing.assert_allclose(dlogits, expected / 2)


def test_fused_gradient_matches_finite_differences_on_logits():
    rng = np.random.default_rng(17)
    logits = rng.normal(size=(3, 5))
    labels = np.array([0, 3, 2])

    def loss_of(z):
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        return -np.log(p[np.arange(3), labels]).mean()

    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)
    _, analytic = cross_entropy(probs, labels)

    h = 1e-6
    numeric = np.zeros_like(logits)
    for i in range(3):
        for j in range(5):
            up = logits.copy(); up[i, j] += h
            dn = logits.copy(); dn[i, j] -= h
            numeric[i, j] = (loss_of(up) - loss_of(dn)) / (2 * h)
    np.testing.assert_allclose(analytic, numeric, atol=1e-8)


def test_zero_probability_is_clamped_and_counted():
    losses.reset_clamp_warnings()
    probs = np.array([[1.0, 0.0]])
    loss, _ = cross_entropy(probs, np.array([1]))
    assert np.isfinite(loss) and loss == pytest.approx(-np.log(1e-12))
    assert losses.clamp_warning_count() == 1
    losses.reset_clamp_warnings()


def test_empty_batch_rejected():
    with pytest.raises(ValueError, match="empty batch"):
        cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


def _reference_cross_entropy(probs, labels):
    """The loss, gradient and clamp count as a mean over the picked
    log-probabilities, with a separate index array per use."""
    n = len(labels)
    picked = probs[np.arange(n), labels]
    n_clamped = int((picked < 1e-12).sum())
    if n_clamped:
        picked = np.maximum(picked, 1e-12)
    loss = float(-np.log(picked).mean())
    dlogits = probs.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    return loss, dlogits, n_clamped


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(2, 12),
       st.sampled_from([np.float32, np.float64]), st.sampled_from([1.0, 10.0, 80.0]))
def test_cross_entropy_matches_the_mean_form_bit_for_bit(seed, n, c, dtype, spread):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=spread, size=(n, c)).astype(dtype)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs = e / e.sum(axis=1, keepdims=True)  # wide spreads underflow: clamps
    labels = rng.integers(c, size=n)
    want_loss, want_grad, want_clamped = _reference_cross_entropy(probs, labels)
    losses.reset_clamp_warnings()
    loss, grad = cross_entropy(probs, labels)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.dtype == want_grad.dtype
    assert grad.tobytes() == want_grad.tobytes()
    assert losses.clamp_warning_count() == want_clamped
    losses.reset_clamp_warnings()


def test_unnormalized_probabilities_rejected():
    with pytest.raises(ValueError):
        cross_entropy(np.array([[0.5, 0.4]]), np.array([0]))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_row_sum_check_agrees_with_allclose_at_the_edge(dtype):
    # the tolerance is atol 1e-6 + rtol 1e-5 * 1.0; probe just inside and outside
    decisions = set()
    for sign in (1.0, -1.0):
        for gap in (1.0e-5, 1.09e-5, 1.1e-5 - 1e-12, 1.1e-5, 1.1e-5 + 1e-12, 1.11e-5,
                    1.2e-5, 2e-5):
            probs = np.array([[0.25, 0.75 + sign * gap], [0.5, 0.5]], dtype=dtype)
            accepted = np.allclose(probs.sum(axis=-1), 1.0, atol=1e-6)
            decisions.add(accepted)
            if accepted:
                cross_entropy(probs, np.array([0, 1]))
            else:
                with pytest.raises(ValueError, match="sum to 1"):
                    cross_entropy(probs, np.array([0, 1]))
    assert decisions == {True, False}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_rows_fail_the_sum_check(bad):
    with pytest.raises(ValueError, match="sum to 1"):
        cross_entropy(np.array([[bad, 0.5]]), np.array([1]))


def test_cross_entropy_is_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(50):
        z = rng.normal(size=(4, 6))
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        loss, _ = cross_entropy(p, rng.integers(0, 6, size=4))
        assert loss >= 0.0


# -- Huber ------------------------------------------------------------------

def test_huber_quadratic_region():
    loss, _ = huber(0.5, 0.0, delta=1.0)
    assert loss == pytest.approx(0.125)


def test_huber_linear_region():
    loss, _ = huber(2.0, 0.0, delta=1.0)
    assert loss == pytest.approx(1.5)


def test_huber_boundary_both_pieces_agree():
    loss, _ = huber(1.0, 0.0, delta=1.0)
    assert loss == pytest.approx(0.5)
    # the linear formula at |e| = delta gives the same value
    assert 1.0 * 1.0 - 0.5 * 1.0 ** 2 == pytest.approx(loss)


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.5])
def test_huber_is_c1_at_the_seam(delta):
    for sign in (+1.0, -1.0):
        e = sign * delta
        _, g_in = huber(e, 0.0, delta=delta)           # |e| == delta, quadratic side
        _, g_out = huber(e * (1 + 1e-12), 0.0, delta=delta)  # just outside
        assert g_in == pytest.approx(-delta * sign)
        assert g_out == pytest.approx(-delta * sign)


def test_huber_gradient_matches_finite_differences():
    rng = np.random.default_rng(8)
    y_true = rng.normal(size=20) * 3
    y_pred = rng.normal(size=20) * 3
    _, grad = huber(y_true, y_pred, delta=1.0)
    h = 1e-7
    lu, _ = huber(y_true, y_pred + h, delta=1.0)
    ld, _ = huber(y_true, y_pred - h, delta=1.0)
    np.testing.assert_allclose(grad, (lu - ld) / (2 * h), atol=1e-6)


def test_huber_delta_must_be_positive():
    with pytest.raises(ValueError):
        huber(1.0, 0.0, delta=0.0)
