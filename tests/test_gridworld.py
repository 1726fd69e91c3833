"""Gridworld dynamics against a value-iteration oracle."""
import numpy as np
import pytest

from hetsim.gridworld import GridWorld


def value_iteration(env: GridWorld, gamma: float = 1.0, sweeps: int = 500):
    """Optimal undiscounted state values of the gridworld MDP (slip = 0).

    Independent oracle: enumerates the known transition/reward structure
    directly rather than calling env.step().
    """
    w, h = env.width, env.height
    moves = {0: (0, -1), 1: (0, 1), 2: (-1, 0), 3: (1, 0)}
    values = np.zeros((h, w))
    terminal = {env.goal} | set(env.pits)
    for _ in range(sweeps):
        new = values.copy()
        for y in range(h):
            for x in range(w):
                if (x, y) in terminal:
                    new[y, x] = 0.0
                    continue
                best = -np.inf
                for dx, dy in moves.values():
                    nx = min(max(x + dx, 0), w - 1)
                    ny = min(max(y + dy, 0), h - 1)
                    if (nx, ny) == env.goal:
                        r, v = env.goal_reward, 0.0
                    elif (nx, ny) in env.pits:
                        r, v = env.pit_reward, 0.0
                    else:
                        r, v = env.step_penalty, values[ny, nx]
                    best = max(best, r + gamma * v)
                new[y, x] = best
        if np.allclose(new, values, atol=1e-12):
            break
        values = new
    return values


def optimal_return(env: GridWorld) -> float:
    return float(value_iteration(env)[env.start[1], env.start[0]])


def test_optimal_return_of_empty_5x5():
    env = GridWorld()
    # shortest path is 8 moves; the final move pays +1, the first 7 pay -0.01
    assert optimal_return(env) == pytest.approx(1.0 - 0.01 * 7)


def test_goal_adjacent_step_terminates_with_reward():
    env = GridWorld(start=(3, 4))
    env.reset()
    state, reward, done = env.step(3)  # move right into the goal
    assert done and reward == 1.0
    assert state[4 * 5 + 4] == 1.0


def test_wall_clamp_keeps_cell_and_pays_penalty():
    env = GridWorld()
    env.reset()
    state, reward, done = env.step(0)  # up from the top edge
    np.testing.assert_array_equal(state, env.encode((0, 0)))
    assert reward == pytest.approx(-0.01)
    assert not done


def test_pit_ends_episode_with_negative_reward():
    env = GridWorld(pits=[(1, 0)])
    env.reset()
    _, reward, done = env.step(3)
    assert done and reward == -1.0


def test_step_after_terminal_is_an_error():
    env = GridWorld(start=(3, 4))
    env.reset()
    env.step(3)
    with pytest.raises(RuntimeError):
        env.step(0)


def test_episode_cap():
    env = GridWorld(max_episode_steps=3)
    env.reset()
    done = False
    steps = 0
    while not done:
        _, _, done = env.step(0)  # bump the wall forever
        steps += 1
    assert steps == 3


def test_deterministic_trajectories_with_zero_slip():
    actions = [3, 1, 3, 1, 0, 2, 3, 1]
    def run():
        env = GridWorld(rng=np.random.default_rng(0))
        env.reset()
        out = []
        for a in actions:
            s, r, d = env.step(a)
            out.append((int(s.argmax()), r, d))
            if d:
                break
        return out
    assert run() == run()


def test_slip_changes_trajectories_but_stays_seeded():
    def run(seed):
        env = GridWorld(slip=0.5, rng=np.random.default_rng(seed))
        env.reset()
        cells = []
        for _ in range(20):
            state, _, done = env.step(3)
            cells.append(int(state.argmax()))
            if done:
                break
        return cells
    assert run(7) == run(7)
    assert run(7) != run(8)


def test_state_encoding_is_one_hot():
    env = GridWorld()
    state = env.reset()
    assert state.shape == (25,)
    assert state.sum() == 1.0 and state[0] == 1.0


def test_oracle_routes_around_pits():
    env = GridWorld(width=3, height=3, start=(0, 0), goal=(2, 0), pits=[(1, 0)])
    # the direct 2-move path crosses the pit; the detour via row 1 takes
    # 4 moves: three step penalties plus the goal reward
    assert optimal_return(env) == pytest.approx(1.0 - 0.01 * 3)
