"""Learner behaviour: replay ring, epsilon schedule, double-Q targets,
convergence on a known MDP, and the supervised round loop."""
import copy
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsim.config import RlConfig
from hetsim.learners import (
    DdqlLearner,
    ReplayBuffer,
    SupervisedTrainer,
    ddql_targets,
    explore_action,
    greedy_action,
)
from hetsim.nn import Adam, RmsProp, Sgd
from hetsim.nn import network as network_module
from hetsim.nn.network import ChainPlan, NonFiniteError
from hetsim.topology import DeviceNetwork, build_cascaded, build_share_first
from hetsim.nn import Dense, ReLU, Softmax

from one_device import forward_alone, one_device


# -- replay buffer ---------------------------------------------------------------

def test_replay_never_exceeds_capacity_and_drops_oldest():
    buf = ReplayBuffer(capacity=5)
    for i in range(8):
        buf.add(np.array([i]), 0, float(i), np.array([i + 1]), False)
    assert len(buf) == 5
    kept = sorted(buf.state_dict()["fields"][2].tolist())
    assert kept == [3.0, 4.0, 5.0, 6.0, 7.0]  # the oldest 3 are gone


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 20), st.integers(0, 60))
def test_replay_ring_property(capacity, n_adds):
    buf = ReplayBuffer(capacity)
    for i in range(n_adds):
        buf.add(np.zeros(1), 0, float(i), np.zeros(1), False)
    assert len(buf) == min(capacity, n_adds)
    if n_adds > capacity:
        rewards = set(buf.state_dict()["fields"][2].tolist())
        assert rewards == set(float(i) for i in range(n_adds - capacity, n_adds))


def test_replay_sample_without_replacement_within_batch():
    buf = ReplayBuffer(capacity=10)
    for i in range(10):
        buf.add(np.array([i]), 0, float(i), np.array([i]), False)
    rng = np.random.default_rng(0)
    for _ in range(20):
        states, *_ = buf.sample(rng, 10)
        assert sorted(states[:, 0].tolist()) == list(range(10))


def test_replay_sample_larger_than_size_rejected():
    buf = ReplayBuffer(capacity=10)
    buf.add(np.zeros(1), 0, 0.0, np.zeros(1), False)
    with pytest.raises(ValueError):
        buf.sample(np.random.default_rng(0), 2)


@pytest.mark.parametrize("filled", [0, 5])
@pytest.mark.parametrize("batch_size", [0, -1])
def test_replay_sample_rejects_a_batch_below_one(filled, batch_size):
    buf = ReplayBuffer(capacity=10)
    for i in range(filled):
        buf.add(np.array([i]), 0, 0.0, np.array([i]), False)
    with pytest.raises(ValueError, match="at least 1"):
        buf.sample(np.random.default_rng(0), batch_size)


def test_replay_sample_dtypes_and_shapes():
    buf = ReplayBuffer(capacity=8)
    for i in range(6):
        buf.add(np.full((2, 3), i, dtype=np.float32), i % 4, 0.5 * i,
                np.full((2, 3), i + 1, dtype=np.float32), i == 5)
    states, actions, rewards, next_states, terminals = buf.sample(
        np.random.default_rng(0), 4)
    assert states.shape == next_states.shape == (4, 2, 3)
    assert states.dtype == next_states.dtype == np.float32
    assert actions.shape == rewards.shape == terminals.shape == (4,)
    assert (actions.dtype, rewards.dtype, terminals.dtype) == (np.int64, np.float64, bool)
    np.testing.assert_array_equal(next_states, states + 1)
    np.testing.assert_array_equal(rewards, 0.5 * states[:, 0, 0])
    np.testing.assert_array_equal(terminals, states[:, 0, 0] == 5)


def test_replay_rejects_a_state_of_another_shape():
    buf = ReplayBuffer(capacity=4)
    buf.add(np.zeros(3), 0, 0.0, np.zeros(3), False)
    with pytest.raises(ValueError, match="shape"):
        buf.add(np.zeros(1), 0, 0.0, np.zeros(1), False)


@pytest.mark.parametrize("n_adds", [0, 3, 7])
def test_replay_state_dict_round_trip(n_adds):
    buf = ReplayBuffer(capacity=5)
    for i in range(n_adds):
        buf.add(np.array([i, -i], dtype=np.float64), i, float(i), np.array([i + 1, 0.0]),
                i % 2 == 0)
    state = buf.state_dict()
    assert state["size"] == min(n_adds, 5)
    assert (state["fields"] is None) == (n_adds == 0)
    again = ReplayBuffer(capacity=5)
    again.load_state_dict(state)
    assert len(again) == len(buf)
    if n_adds:
        assert all(len(f) == 5 for f in state["fields"])
        for a, b in zip(again.state_dict()["fields"], state["fields"]):
            assert a.dtype == b.dtype and np.array_equal(a, b)
    if n_adds >= 2:  # both sample the same rows from the same stream
        for x, y in zip(buf.sample(np.random.default_rng(4), 2),
                        again.sample(np.random.default_rng(4), 2)):
            np.testing.assert_array_equal(x, y)
    buf.add(np.ones(2), 1, 1.0, np.ones(2), True)
    again.add(np.ones(2), 1, 1.0, np.ones(2), True)
    assert buf.state_dict()["next"] == again.state_dict()["next"]


# -- epsilon schedule -------------------------------------------------------------

def _rl(**settings):
    """An ``rl`` section for a learner built by hand; the run length and
    sync period are the harness's, which a learner never reads."""
    return RlConfig(total_steps=1, sync_period=1, **settings)


def test_epsilon_endpoints_exact():
    rl = _rl(epsilon_start=1.0, epsilon_end=0.1, epsilon_decay_steps=1_000_000)
    assert rl.epsilon(0) == 1.0
    assert rl.epsilon(1_000_000) == 0.1
    assert rl.epsilon(5_000_000) == 0.1


def test_epsilon_piecewise_linear_and_non_increasing():
    rl = _rl(epsilon_start=1.0, epsilon_end=0.1, epsilon_decay_steps=100)
    values = [rl.epsilon(t) for t in range(0, 301)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert rl.epsilon(50) == pytest.approx(0.55)
    # linear on the decay segment: second differences vanish
    seg = values[:101]
    diffs = np.diff(seg)
    assert np.allclose(diffs, diffs[0])


def _epsilon_greedy(q_values, epsilon, rng):
    """The epsilon-greedy rule on one Q-row: a uniform action with
    probability epsilon, else the argmax."""
    action = explore_action(epsilon, q_values.size, rng)
    return greedy_action(q_values) if action is None else action


def test_greedy_action_argmax_and_tie_break():
    rng = np.random.default_rng(0)
    assert _epsilon_greedy(np.array([1.0, 3.0, 2.0]), 0.0, rng) == 1
    assert _epsilon_greedy(np.array([2.0, 2.0]), 0.0, rng) == 0  # lowest index


def test_epsilon_one_is_uniform_within_3_sigma():
    rng = np.random.default_rng(1)
    counts = np.zeros(4)
    n = 10_000
    for _ in range(n):
        counts[_epsilon_greedy(np.zeros(4), 1.0, rng)] += 1
    p = 1 / 4
    sigma = np.sqrt(n * p * (1 - p))
    assert np.all(np.abs(counts - n * p) < 3 * sigma)


# -- double-Q target semantics -----------------------------------------------------

def test_terminal_transition_ignores_q_values():
    y = ddql_targets(np.array([1.0]), None, np.array([True]), 0.99,
                     np.array([[5.0, 9.0]]), np.array([[100.0, 100.0]]))
    assert y[0] == 1.0


def test_double_q_uses_target_value_at_online_argmax():
    y = ddql_targets(np.array([0.0]), None, np.array([False]), 0.99,
                     q_next_online=np.array([[1.0, 5.0, 2.0]]),
                     q_next_target=np.array([[0.5, 2.0, 9.0]]))
    assert y[0] == pytest.approx(0.99 * 2.0)  # not 0.99 * 9.0


def test_double_q_disagreement_table():
    # online prefers action 0, target says action 1 is worth more; the
    # bootstrap must be target[argmax(online)] = target[0]
    y = ddql_targets(np.array([0.0]), None, np.array([False]), 0.5,
                     q_next_online=np.array([[3.0, 1.0]]),
                     q_next_target=np.array([[2.0, 50.0]]))
    assert y[0] == pytest.approx(1.0)


# -- DDQL on a known MDP --------------------------------------------------------------

class ToyMdp:
    """Two states, two actions, continuing (never terminal).

    s0: a0 -> s0 r=0.1 ; a1 -> s1 r=0.0
    s1: a0 -> s0 r=1.0 ; a1 -> s1 r=0.2
    """

    n_actions = 2
    state_dim = 2

    def __init__(self):
        self._s = 0

    def _encode(self, s):
        onehot = np.zeros(2)
        onehot[s] = 1.0
        return onehot

    def reset(self):
        self._s = 0
        return self._encode(self._s)

    def step(self, action):
        if self._s == 0:
            nxt, r = (0, 0.1) if action == 0 else (1, 0.0)
        else:
            nxt, r = (0, 1.0) if action == 0 else (1, 0.2)
        self._s = nxt
        return self._encode(nxt), r, False

    def state_dict(self):
        return {"s": self._s}

    def load_state_dict(self, state):
        self._s = state["s"]


def toy_mdp_q_star(gamma=0.9):
    """Value-iteration oracle over the known transition table."""
    q = np.zeros((2, 2))
    for _ in range(10_000):
        v = q.max(axis=1)
        new = np.array([
            [0.1 + gamma * v[0], 0.0 + gamma * v[1]],
            [1.0 + gamma * v[0], 0.2 + gamma * v[1]],
        ])
        if np.abs(new - q).max() < 1e-12:
            break
        q = new
    return q


def _q_learner(seed=0, gamma=0.9):
    topo = build_share_first([Dense(32), ReLU()], {"b": [Dense(2)]}, (2,))
    return DdqlLearner(
        one_device(DeviceNetwork(topo, "b"), np.random.default_rng(seed)),
        Adam(learning_rate=0.005),
        env=ToyMdp(), eval_env=ToyMdp(),
        replay=ReplayBuffer(500),
        rl=_rl(gamma=gamma, epsilon_start=1.0, epsilon_end=0.2, epsilon_decay_steps=1000,
               epsilon_test=0.0, batch_size=32, warmup_steps=64),
        act_rng=np.random.default_rng(seed + 1),
        replay_rng=np.random.default_rng(seed + 2),
        eval_rng=np.random.default_rng(seed + 3))


def test_ddql_converges_to_bellman_optimal_q():
    learner = _q_learner(seed=5)
    for step in range(6000):
        learner.interact()
        if (step + 1) % 100 == 0:
            learner.copy_target()
    states = np.eye(2)
    q_net = learner.q_of(learner.store.row(), states)
    q_star = toy_mdp_q_star()
    assert np.abs(q_net - q_star).max() < 0.05, (q_net, q_star)


def test_target_copy_makes_networks_identical():
    learner = _q_learner()
    for _ in range(100):
        learner.interact()
    assert not np.array_equal(learner.store.flat, learner.target_store.flat)
    learner.copy_target()
    np.testing.assert_array_equal(learner.store.flat, learner.target_store.flat)


# -- test epochs -----------------------------------------------------------------------

def _grid_learner(seed, test_epsilon=0.2):
    from hetsim.gridworld import GridWorld

    def grid(stream):
        return GridWorld(4, 4, start=(0, 0), goal=(3, 3), pits=[(1, 2)], slip=0.3,
                         max_episode_steps=15, rng=np.random.default_rng([seed, stream]))

    topo = build_share_first([Dense(12), ReLU()], {"b": [Dense(4)]}, (16,))
    return DdqlLearner(
        one_device(DeviceNetwork(topo, "b"), np.random.default_rng(seed)),
        Adam(learning_rate=0.01),
        env=grid(0), eval_env=grid(1), replay=ReplayBuffer(200),
        rl=_rl(gamma=0.99, epsilon_start=1.0, epsilon_end=0.1, epsilon_decay_steps=100,
               epsilon_test=test_epsilon, batch_size=8, warmup_steps=16),
        act_rng=np.random.default_rng([seed, 2]),
        replay_rng=np.random.default_rng([seed, 3]),
        eval_rng=np.random.default_rng([seed, 4]))


def _reference_test_epoch(learner, episodes):
    """The test epoch as one batch-1 pass per step, with no Q-row reuse."""
    total = 0.0
    for _ in range(episodes):
        state = learner.eval_env.reset()
        done = False
        ep = 0.0
        while not done:
            q = learner.q_of(learner.store.row(), state[None])[0]
            action = _epsilon_greedy(q, learner.rl.epsilon_test, learner.eval_rng)
            state, reward, done = learner.eval_env.step(action)
            ep += reward
        total += ep
    return total / episodes


@pytest.mark.parametrize("seed, test_epsilon",
                         [(0, 0.2), (1, 0.2), (2, 0.2), (3, 0.2), (4, 0.0), (5, 1.0)])
def test_test_epoch_passes_each_state_once_and_returns_what_a_pass_per_step_does(
        seed, test_epsilon, monkeypatch):
    learner = _grid_learner(seed, test_epsilon)
    reference = _grid_learner(seed, test_epsilon)
    passes = {learner: [], reference: []}
    q_of = DdqlLearner.q_of

    def counting(self, row, states):
        passes[self].append(states.tobytes())
        return q_of(self, row, states)

    monkeypatch.setattr(DdqlLearner, "q_of", counting)
    start = learner.eval_env.encode((0, 0)).tobytes()
    for _ in range(3):  # optimizer steps between the test epochs
        for _ in range(40):
            learner.interact()
            reference.interact()
        passes[learner].clear()
        passes[reference].clear()
        got = learner.test_epoch(episodes=3)
        assert got == _reference_test_epoch(reference, episodes=3)
        assert learner.eval_rng.bit_generator.state == reference.eval_rng.bit_generator.state
        assert len(set(passes[learner])) == len(passes[learner]) < len(passes[reference])
        if test_epsilon == 1.0:
            assert passes[learner] == []  # every step explores: no pass runs
        else:
            assert start in passes[learner]  # nothing carried over from the last call
        np.testing.assert_array_equal(learner.store.flat, reference.store.flat)


def _reference_act(learner, state, epsilon):
    """Acting as a forward pass, then the epsilon-greedy rule on the Q-row."""
    q = learner.q_of(learner.store.row(), state[None])[0]
    return _epsilon_greedy(q, epsilon, learner.act_rng)


@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0, None])  # None: decaying
def test_act_runs_the_network_only_on_exploit_steps_and_acts_as_before(
        epsilon, monkeypatch):
    schedule = (dict(epsilon_start=1.0, epsilon_end=0.05, epsilon_decay_steps=1500)
                if epsilon is None else
                dict(epsilon_start=epsilon, epsilon_end=epsilon, epsilon_decay_steps=1))
    learner, reference = _grid_learner(6), _grid_learner(6)
    learner.rl = reference.rl = dataclasses.replace(learner.rl, epsilon_test=0.2, **schedule)
    predicts = []
    predict = DeviceNetwork.predict

    def counting(self, row, x):
        predicts.append(x.shape[1])  # x has its device axis
        return predict(self, row, x)

    monkeypatch.setattr(DeviceNetwork, "predict", counting)
    got, want = [], []
    act_passes = exploits = 0

    def act(state, eps):
        nonlocal act_passes
        before = len(predicts)
        got.append(DdqlLearner.act(learner, state, eps))
        act_passes += len(predicts) - before
        return got[-1]

    def act_as_before(state, eps):
        nonlocal exploits
        exploits += not (eps > 0.0 and copy.deepcopy(reference.act_rng).random() < eps)
        want.append(_reference_act(reference, state, eps))
        return want[-1]

    learner.act, reference.act = act, act_as_before  # interact() calls self.act
    for _ in range(2000):
        learner.interact()
        reference.interact()
    assert got == want
    assert learner.act_rng.bit_generator.state == reference.act_rng.bit_generator.state
    assert learner.store.flat.tobytes() == reference.store.flat.tobytes()
    assert learner.env.state_dict() == reference.env.state_dict()
    assert act_passes == exploits
    if epsilon == 0.0:
        assert exploits == 2000
    elif epsilon == 1.0:
        assert exploits == 0
    else:
        assert 0 < exploits < 2000


def test_a_nan_parameter_raises_at_the_first_greedy_act():
    learner = _grid_learner(0)
    learner.store.flat[0] = np.nan  # a stem weight: every output row is NaN
    state = learner.env.reset()
    for _ in range(50):
        learner.act(state, 1.0)  # an exploring act reads no Q-values
    with pytest.raises(NonFiniteError):
        learner.act(state, 0.0)


def test_a_nan_parameter_raises_at_the_first_train_batch():
    learner = _grid_learner(0)
    learner.rl = dataclasses.replace(learner.rl, epsilon_start=1.0, epsilon_end=1.0,
                                     epsilon_decay_steps=1, epsilon_test=0.2)
    learner.store.flat[0] = np.nan
    for _ in range(learner.warmup_steps - 1):
        learner.interact()  # exploring acts, replay still cold: nothing reads Q
    with pytest.raises(NonFiniteError):
        learner.interact()  # the first warm step runs train_batch
    assert len(learner.replay) == learner.warmup_steps


# -- supervised rounds -----------------------------------------------------------------

def _blob_trainer(n_per_class=200, separation=100.0, lr=0.005, seed=0,
                  round_samples=2000):
    from hetsim.data import generate_synthetic_dataset
    ds = generate_synthetic_dataset(2, n_per_class, 4, separation, seed=seed)
    topo = build_share_first([Dense(16), ReLU()], {"b": [Dense(2), Softmax()]}, (4,))
    stack = one_device(DeviceNetwork(topo, "b"), np.random.default_rng(seed))
    n_train = int(0.8 * len(ds))
    return SupervisedTrainer(
        stack.networks[0], stack.stores[0], RmsProp(learning_rate=lr),
        ds.features[:n_train], ds.labels[:n_train],
        ds.features[n_train:], ds.labels[n_train:],
        rng=np.random.default_rng(seed + 1), round_samples=round_samples,
        minibatch_size=32, stack=stack, taken={})


def test_one_round_on_separable_blobs_reaches_95_percent():
    trainer = _blob_trainer()
    trainer.train_round()
    accuracy = trainer.evaluate(trainer.train_x, trainer.train_y)
    assert accuracy >= 0.95


def _cascade_trainer(seed=0):
    from hetsim.data import generate_synthetic_dataset
    ds = generate_synthetic_dataset(2, 100, 4, 3.0, seed=seed)
    topo = build_cascaded([Dense(6), ReLU()], [Dense(5), ReLU(), Dense(2)],
                          [Dense(2), Softmax()], 0.5, (4,))
    stack = one_device(DeviceNetwork(topo, "complex"), np.random.default_rng(seed))
    return SupervisedTrainer(
        stack.networks[0], stack.stores[0], RmsProp(learning_rate=0.01),
        ds.features[:150], ds.labels[:150], ds.features[150:], ds.labels[150:],
        rng=np.random.default_rng(seed + 1), round_samples=64, minibatch_size=32,
        stack=stack, taken={})


def test_eval_passes_build_no_cache_and_take_no_snapshot(monkeypatch):
    trainers = [_blob_trainer(), _cascade_trainer()]
    learner = _q_learner()
    for _ in range(80):
        learner.interact()  # warm: train_batch runs q_of beside its training forward
    grid_learner = _grid_learner(0)  # its episodes end, ToyMdp's never do

    def refuse(*args, **kwargs):
        raise AssertionError("an eval pass built a cache or copied parameters")

    # DeviceNetwork.forward and ChainPlan.forward are the only places that
    # build a ChainCache, and the ChainCache holds the parameter snapshot
    monkeypatch.setattr(DeviceNetwork, "forward", refuse)
    monkeypatch.setattr(ChainPlan, "forward", refuse)
    monkeypatch.setattr(network_module, "ChainCache", refuse)
    for trainer in trainers:
        before = trainer.store.flatten()
        trainer.evaluate(trainer.train_x, trainer.train_y, chunk=40)
        trainer.evaluate(trainer.val_x, trainer.val_y, flat=before + 0.5)
        trainer.validate_and_snapshot({})
        np.testing.assert_array_equal(trainer.store.flat, before)
    learner.act(np.array([1.0, 0.0]), 0.0)
    learner.q_of(learner.target_store.row(), np.eye(2))
    grid_learner.test_epoch(episodes=2)


@pytest.mark.parametrize("make", [_blob_trainer, _cascade_trainer])
def test_raising_evaluate_leaves_the_live_store_alone(make):
    trainer = make()
    trainer.store.flat[:3] = [-0.0, 0.0, -0.0]  # signed zeros must survive too
    before = trainer.store.flatten()
    poisoned = before.copy()
    poisoned[:] = np.nan
    with pytest.raises(NonFiniteError):
        trainer.evaluate(trainer.val_x, trainer.val_y, flat=poisoned)
    assert np.array_equal(trainer.store.flat.view(np.uint64), before.view(np.uint64))
    assert trainer.evaluate(trainer.val_x, trainer.val_y, flat=before) == \
        trainer.evaluate(trainer.val_x, trainer.val_y)


def test_singleton_shard_uses_replacement():
    trainer = _blob_trainer()
    trainer.train_x = trainer.train_x[:1]
    trainer.train_y = trainer.train_y[:1]
    idx = trainer._draw_round_indices()
    assert idx.shape == (2000,)
    assert np.all(idx == 0)


def test_zero_learning_rate_leaves_parameters_unchanged():
    trainer = _blob_trainer(lr=0.0)
    before = trainer.store.flatten()
    trainer.train_round()
    assert np.array_equal(trainer.store.flat.view(np.uint64), before.view(np.uint64))


def test_snapshot_tracks_best_validation_round():
    trainer = _blob_trainer()
    x = trainer.val_x[:10]
    preds_then = []

    def set_val_accuracy(target):
        # craft labels agreeing with the current model on a chosen fraction
        probs, _ = forward_alone(trainer.stack, x, mode="eval")
        pred = probs.argmax(axis=1)
        y = pred.copy()
        n_wrong = round((1 - target) * len(x))
        y[:n_wrong] = 1 - y[:n_wrong]
        trainer.val_x, trainer.val_y = x, y

    marks = []
    for accuracy in (0.5, 0.7, 0.6):
        set_val_accuracy(accuracy)
        trainer.store.flat += 0.01  # parameters move between rounds
        marks.append(trainer.store.flatten())
        got = trainer.validate_and_snapshot({})
        preds_then.append(got)
    assert preds_then == [0.5, 0.7, 0.6]
    np.testing.assert_array_equal(trainer.snapshot, marks[1])  # round 2 kept


def test_constant_accuracy_keeps_first_snapshot():
    trainer = _blob_trainer()
    marks = []
    for _ in range(3):
        trainer.store.flat += 0.01
        marks.append(trainer.store.flatten())
        trainer.validate_and_snapshot({})
    np.testing.assert_array_equal(trainer.snapshot, marks[0])


def test_initial_snapshot_is_initial_parameters():
    trainer = _blob_trainer()
    np.testing.assert_array_equal(trainer.snapshot, trainer.store.flatten())


def test_empty_shard_rejected():
    trainer = _blob_trainer()
    with pytest.raises(ValueError):
        SupervisedTrainer(trainer.network, trainer.store, Sgd(0.1),
                          trainer.train_x[:0], trainer.train_y[:0],
                          trainer.val_x, trainer.val_y, rng=np.random.default_rng(0),
                          round_samples=2000, minibatch_size=32, stack=trainer.stack,
                          taken={})
