import numpy as np
import pytest

from conftest import sparse_instance
from dmdp import (
    ConvergenceError,
    DmdpInstance,
    EMPTY_POLICY,
    TimeVaryingPolicy,
    ValueTable,
    bellman_policy_operator,
    bellman_value_operator,
    brute_force_optimal_value,
    evaluate_policy,
    generate,
    greedy_policy,
    make_static_gap_instance,
    optimal_values,
    pad_policy,
    policy_iteration,
    q_tables,
    q_values,
    sup_distance,
)
from dmdp.bellman import CONVERGENCE_TOL, evaluate_extensions
from dmdp.core import enumerate_decision_rules


def random_policy(instance, rng, length=None):
    n = instance.horizon if length is None else length
    return TimeVaryingPolicy.from_actions(
        rng.integers(0, instance.num_actions, size=(n, instance.num_states))
    )


def rollout_start_values(instance, policy, start, n_samples, seed):
    """Monte-Carlo estimate of the policy's start value: sampled
    discounted return over n_samples trajectories, plus its standard
    error.  Completely independent of the backward-induction code path."""
    rng = np.random.default_rng(seed)
    states = np.full(n_samples, start)
    returns = np.zeros(n_samples)
    for i, rule in enumerate(policy.rules):
        actions = np.asarray(rule)[states]
        returns += instance.gamma**i * instance.reward[i, states, actions]
        cum = np.cumsum(instance.transition[states, actions, :], axis=1)
        draws = rng.random(n_samples)
        states = np.minimum(
            (draws[:, None] > cum).sum(axis=1), instance.num_states - 1
        )
    return returns.mean(), returns.std(ddof=1) / np.sqrt(n_samples)


def test_static_gap_alternating_policy_value_is_exact():
    inst = make_static_gap_instance()
    alternating = TimeVaryingPolicy.from_actions([[1], [0]])
    table = evaluate_policy(inst, alternating)
    assert table.values[0, 0] == 1.0 + inst.gamma
    assert table.values[1, 0] == 1.0
    assert table.values[2, 0] == 0.0


def test_static_gap_static_policies_earn_one():
    # Both rule-repeating policies are worth 1 up to the discount's
    # deviation from 1, while alternating earns almost 2.
    inst = make_static_gap_instance()
    for a in (0, 1):
        static = TimeVaryingPolicy.from_actions([[a], [a]])
        value = evaluate_policy(inst, static).values[0, 0]
        assert abs(value - 1.0) <= 2e-9


def test_zero_rewards_give_zero_values():
    inst = generate(5, 3, 2, 4, 0.9)
    zeroed = DmdpInstance(
        num_states=3, num_actions=2, horizon=4, gamma=0.9, r_max=1.0,
        transition=inst.transition, reward=np.zeros((4, 3, 2)),
    )
    policy = TimeVaryingPolicy.from_actions([[0, 1, 0], [1, 1, 0], [0, 0, 0]])
    assert np.all(evaluate_policy(zeroed, policy).values == 0.0)


def test_evaluate_matches_monte_carlo():
    inst = generate(3, 3, 2, 3, 0.7)
    policy = TimeVaryingPolicy.from_actions([[0, 1, 1], [1, 0, 1]])
    exact = evaluate_policy(inst, policy).values[0, 1]
    mc, stderr = rollout_start_values(inst, policy, start=1, n_samples=10**6, seed=99)
    assert abs(exact - mc) <= 3 * stderr + 1e-12


def test_evaluate_start_time_reads_shifted_reward_rows():
    inst = generate(8, 2, 2, 4, 0.5)
    rule = TimeVaryingPolicy.from_actions([[0, 1]])
    shifted = evaluate_policy(inst, rule, start_time=2)
    expected = inst.reward[2, [0, 1], [0, 1]]
    assert np.array_equal(shifted.values[0], expected)


def test_evaluate_rejects_bad_policies():
    inst = generate(1, 2, 2, 2, 0.5)
    with pytest.raises(ValueError):
        evaluate_policy(inst, TimeVaryingPolicy.from_actions([[0]]))  # wrong width
    with pytest.raises(ValueError):
        evaluate_policy(inst, TimeVaryingPolicy.from_actions([[0, 3]]))  # bad action
    with pytest.raises(ValueError):
        evaluate_policy(inst, TimeVaryingPolicy.from_actions([[0, 0]] * 3))
    with pytest.raises(ValueError):
        evaluate_policy(inst, TimeVaryingPolicy.from_actions([[0, 0]] * 2), start_time=1)


def _with_negative_zero_rewards(instance, rng):
    """The instance with a third of its rewards replaced by -0.0."""
    reward = np.where(rng.random(instance.reward.shape) < 1 / 3, -0.0, instance.reward)
    return DmdpInstance(
        num_states=instance.num_states, num_actions=instance.num_actions,
        horizon=instance.horizon, gamma=instance.gamma, r_max=instance.r_max,
        transition=instance.transition, reward=reward, sign_mode=instance.sign_mode,
    )


def test_evaluate_extensions_is_bit_equal_to_evaluate_policy():
    # Random paths, random sets of last rules and suffixes of 0-2 random
    # rules, from every start state, on sparse and dense kernels; -0.0
    # rewards check the terminal step.
    rng = np.random.default_rng(0)
    instances = [sparse_instance(seed, 3, 2, 4) for seed in range(4)]
    instances += [generate(seed, 3, 2, 4, 0.5) for seed in range(4)]
    instances += [sparse_instance(9, 4, 2, 4, 0.3), generate(9, 4, 2, 3, 0.9)]
    instances += [_with_negative_zero_rewards(inst, rng) for inst in instances[:2]]
    checked = nonzero_tail = 0
    for inst in instances:
        actions = np.array(list(enumerate_decision_rules(inst)))
        for n in range(inst.horizon):
            for _ in range(3):
                path = rng.integers(len(actions), size=n)
                last = np.flatnonzero(rng.random(len(actions)) < 0.5)
                length = int(rng.integers(min(2, inst.horizon - n - 1) + 1))
                suffixes = rng.integers(len(actions), size=(int(rng.integers(1, 3)), length))
                tail = np.array([
                    evaluate_policy(inst, TimeVaryingPolicy.from_actions(actions[suffix]),
                                    start_time=n + 1).values[0]
                    for suffix in suffixes
                ])
                values = evaluate_extensions(inst, actions[path], actions[last], tail)
                assert values.shape == (len(last) * len(suffixes), inst.num_states)
                rows = iter(values.tolist())
                for rule in last:
                    for suffix in suffixes:
                        policy = TimeVaryingPolicy.from_actions(actions[[*path, rule, *suffix]])
                        exact = evaluate_policy(inst, policy).values[0].tolist()
                        row = next(rows)
                        assert [v.hex() for v in row] == [v.hex() for v in exact], (
                            path, rule, suffix)
                        checked += len(row)
                        nonzero_tail += bool(len(suffix))
    assert checked > 1000 and nonzero_tail > 100, (checked, nonzero_tail)


def test_value_table_requires_zero_terminal_row():
    with pytest.raises(ValueError):
        ValueTable(np.ones((3, 2)))


def test_values_bounded_for_nonpositive_rewards():
    for seed in range(20):
        inst = generate(seed, 3, 2, 3, 0.6)
        rng = np.random.default_rng(seed)
        table = evaluate_policy(inst, random_policy(inst, rng)).values
        lower = -inst.r_max / (1.0 - inst.gamma)
        assert np.all(table <= 0.0)
        assert np.all(table >= lower - 1e-12)


def test_q_values_against_hand_cases():
    inst = make_static_gap_instance()
    # Zero continuation: q reduces to the reward row.
    assert np.array_equal(q_values(inst, np.zeros(1), 0), inst.reward[0])
    assert np.array_equal(q_values(inst, np.zeros(1), 1), [[1.0, 0.0]])
    # Deterministic kernel: q = r + gamma * v[successor].
    P = np.zeros((2, 2, 2))
    P[0, 0, 1] = P[0, 1, 0] = P[1, 0, 0] = P[1, 1, 1] = 1.0
    det = DmdpInstance(
        num_states=2, num_actions=2, horizon=1, gamma=0.5, r_max=1.0,
        transition=P, reward=np.array([[[-0.25, -0.5], [-1.0, 0.0]]]),
    )
    v_next = np.array([2.0, -4.0])
    expected = det.reward[0] + 0.5 * np.array([[v_next[1], v_next[0]], [v_next[0], v_next[1]]])
    assert np.allclose(q_values(det, v_next, 0), expected, atol=0, rtol=0)


def test_q_values_rejects_bad_inputs():
    inst = make_static_gap_instance()
    with pytest.raises(ValueError):
        q_values(inst, np.zeros(2), 0)
    with pytest.raises(ValueError):
        q_values(inst, np.zeros(1), 2)


def test_value_operator_on_zero_table_is_reward_max():
    inst = generate(11, 3, 2, 3, 0.5)
    zero = ValueTable(np.zeros((4, 3)))
    out = bellman_value_operator(inst, zero)
    for t in range(3):
        assert np.array_equal(out.values[t], inst.reward[t].max(axis=1))
    assert np.all(out.values[3] == 0.0)


def test_value_operator_fixes_optimal_table():
    for seed in (0, 7, 23):
        inst = generate(seed, 3, 2, 4, 0.8)
        star = optimal_values(inst)
        assert sup_distance(bellman_value_operator(inst, star), star) <= 1e-12


def test_value_operator_is_a_contraction():
    rng = np.random.default_rng(2024)
    for k in range(100):
        gamma = [0.3, 0.5, 0.9, 0.95][k % 4]
        inst = generate(k, 3, 2, 4, gamma)
        rows = inst.horizon + 1
        a = np.vstack([rng.uniform(-5, 5, size=(rows - 1, 3)), np.zeros((1, 3))])
        b = np.vstack([rng.uniform(-5, 5, size=(rows - 1, 3)), np.zeros((1, 3))])
        va, vb = ValueTable(a), ValueTable(b)
        lhs = sup_distance(
            bellman_value_operator(inst, va), bellman_value_operator(inst, vb)
        )
        assert lhs <= gamma * sup_distance(va, vb) + 1e-12


def test_optimal_values_static_gap():
    inst = make_static_gap_instance()
    star = optimal_values(inst)
    assert star.values[0, 0] == 1.0 + inst.gamma
    assert star.values[1, 0] == 1.0


def test_optimal_values_constant_reward_geometric_sum():
    c, gamma, T = -0.75, 0.5, 6
    inst = DmdpInstance(
        num_states=2, num_actions=2, horizon=T, gamma=gamma, r_max=1.0,
        transition=np.full((2, 2, 2), 0.5), reward=np.full((T, 2, 2), c),
    )
    star = optimal_values(inst)
    expected = c * (1 - gamma**T) / (1 - gamma)
    assert np.allclose(star.values[0], expected, atol=1e-12, rtol=0)


def test_optimal_values_match_brute_force():
    for seed in (0, 3, 17):
        inst = generate(seed, 3, 2, 3, 0.5)
        brute = brute_force_optimal_value(inst)
        assert np.max(np.abs(optimal_values(inst).values[0] - brute)) <= 1e-12


def test_greedy_policy_static_gap_alternates():
    inst = make_static_gap_instance()
    greedy = greedy_policy(inst, optimal_values(inst))
    assert greedy.rules == ((1,), (0,))


def test_greedy_breaks_ties_toward_low_actions():
    inst = DmdpInstance(
        num_states=2, num_actions=3, horizon=2, gamma=0.5, r_max=1.0,
        transition=np.full((2, 3, 2), 0.5), reward=np.zeros((2, 2, 3)),
    )
    greedy = greedy_policy(inst, optimal_values(inst))
    assert greedy.rules == ((0, 0), (0, 0))
    assert greedy == greedy_policy(inst, optimal_values(inst))  # repeatable


def test_greedy_heads_for_the_free_action():
    # Deterministic chain 0 -> 1 -> 2 with a cost-free "advance" action and
    # a costly "stay"; the only zero-cost epoch move at the end state is
    # action 1.  Greedy should advance everywhere and finish optimally.
    P = np.zeros((3, 2, 3))
    for s in range(3):
        P[s, 0, s] = 1.0                      # stay
        P[s, 1, min(s + 1, 2)] = 1.0          # advance (2 self-loops)
    reward = np.full((3, 3, 2), -1.0)
    reward[:, :, 1] = -0.25                   # advancing is cheaper
    reward[:, 2, 1] = 0.0                     # free once at the end state
    inst = DmdpInstance(
        num_states=3, num_actions=2, horizon=3, gamma=0.9, r_max=1.0,
        transition=P, reward=reward, sign_mode="nonpositive",
    )
    star = optimal_values(inst)
    greedy = greedy_policy(inst, star)
    assert all(rule == (1, 1, 1) for rule in greedy.rules)
    assert evaluate_policy(inst, greedy).values[0, 0] == star.values[0, 0]


def test_policy_operator_static_gap_improves_static_policy():
    inst = make_static_gap_instance()
    static0 = TimeVaryingPolicy.from_actions([[0], [0]])
    assert bellman_policy_operator(inst, static0).rules == ((1,), (0,))


def test_policy_operator_pads_short_input():
    inst = generate(21, 2, 2, 3, 0.5)
    improved = bellman_policy_operator(inst, TimeVaryingPolicy.from_actions([[1, 1]]))
    assert len(improved) == inst.horizon


def test_policy_operator_never_hurts():
    for seed in range(100):
        gamma = [0.3, 0.6, 0.9][seed % 3]
        inst = generate(seed, 3, 2, 3, gamma)
        rng = np.random.default_rng(1000 + seed)
        policy = random_policy(inst, rng)
        before = evaluate_policy(inst, pad_policy(inst, policy)).values
        after = evaluate_policy(inst, bellman_policy_operator(inst, policy)).values
        assert np.all(after >= before - 1e-12)


def test_policy_operator_fixes_optimal_policy_values():
    inst = generate(33, 3, 2, 3, 0.7)
    star_policy = greedy_policy(inst, optimal_values(inst))
    again = bellman_policy_operator(inst, star_policy)
    v1 = evaluate_policy(inst, star_policy)
    v2 = evaluate_policy(inst, again)
    assert sup_distance(v1, v2) <= 1e-12


def test_policy_iteration_reaches_optimal_values():
    for seed in range(30):
        inst = generate(seed, 3, 2, 3, 0.6)
        rng = np.random.default_rng(seed)
        result = policy_iteration(inst, random_policy(inst, rng))
        assert sup_distance(result.values, optimal_values(inst)) <= 1e-9
        assert result.iterations <= inst.horizon * 3 * 2 + 1


def test_policy_iteration_converges_immediately_from_optimal():
    inst = generate(2, 3, 2, 3, 0.5)
    star_policy = greedy_policy(inst, optimal_values(inst))
    result = policy_iteration(inst, star_policy)
    assert result.iterations == 1


def test_policy_iteration_static_gap_from_static_start():
    inst = make_static_gap_instance()
    result = policy_iteration(inst, TimeVaryingPolicy.from_actions([[0], [0]]))
    assert result.values.values[0, 0] == 1.0 + inst.gamma


def test_policy_iteration_max_iters_guard():
    inst = make_static_gap_instance()
    with pytest.raises(ConvergenceError):
        policy_iteration(inst, TimeVaryingPolicy.from_actions([[0], [0]]), max_iters=1)
    with pytest.raises(ValueError):
        policy_iteration(inst, EMPTY_POLICY, max_iters=0)


# The per-epoch loops the exact sweeps ran before they were written on one
# action array per policy: one fancy-indexed reward row and kernel per rule,
# and one lookahead per epoch.  Every sweep must reproduce their bits.


def _reference_evaluate(instance, rules, start_time=0):
    idx = np.arange(instance.num_states)
    values = np.zeros((len(rules) + 1, instance.num_states))
    for i in reversed(range(len(rules))):
        actions = np.asarray(rules[i])
        r_pi = instance.reward[start_time + i, idx, actions]
        p_pi = instance.transition[idx, actions, :]
        values[i] = r_pi + instance.gamma * (p_pi @ values[i + 1])
    return values


def _reference_q(instance, values, t):
    return instance.reward[t] + instance.gamma * (instance.transition @ values[t + 1])


def _reference_q_tables(instance, values):
    return np.stack([_reference_q(instance, values, t) for t in range(instance.horizon)])


def _reference_greedy(instance, values):
    return tuple(map(tuple, np.argmax(_reference_q_tables(instance, values), axis=2).tolist()))


def _reference_optimal_values(instance):
    values = np.zeros((instance.horizon + 1, instance.num_states))
    for t in reversed(range(instance.horizon)):
        values[t] = _reference_q(instance, values, t).max(axis=1)
    return values


def _reference_policy_iteration(instance, init):
    filler = (0,) * instance.num_states
    values = _reference_evaluate(instance, init + (filler,) * (instance.horizon - len(init)))
    for iteration in range(1, instance.horizon * instance.num_states * instance.num_actions + 2):
        improved = _reference_greedy(instance, values)
        new_values = _reference_evaluate(instance, improved)
        if np.max(np.abs(new_values - values)) < CONVERGENCE_TOL:
            return improved, new_values, iteration
        values = new_values
    raise AssertionError("the reference did not converge")


def _with_twin_actions(instance):
    """The instance with action 1 a copy of action 0: the same kernel row
    and rewards, so their lookaheads tie exactly."""
    transition = instance.transition.copy()
    reward = instance.reward.copy()
    transition[:, 1] = transition[:, 0]
    reward[:, :, 1] = reward[:, :, 0]
    return DmdpInstance(
        num_states=instance.num_states, num_actions=instance.num_actions,
        horizon=instance.horizon, gamma=instance.gamma, r_max=instance.r_max,
        transition=transition, reward=reward, sign_mode=instance.sign_mode,
    )


def _sweep_instances():
    rng = np.random.default_rng(21)
    shapes = [(S, A, T) for S in (1, 2, 3, 5, 8) for A in (1, 2, 3, 5) for T in range(1, 7)]
    for k, (S, A, T) in enumerate(shapes):
        yield generate(k, S, A, T, [0.5, 0.9, 0.0][k % 3])
        yield sparse_instance(k, S, A, T, [0.3, 0.95][k % 2])
        if k % 5 == 0:
            yield _with_negative_zero_rewards(generate(k + 1, S, A, T, 0.7), rng)
    for seed in range(4):
        yield _with_twin_actions(generate(seed, 3, 3, 4, 0.5))
        yield _with_twin_actions(sparse_instance(seed, 5, 2, 5, 0.5))


def test_exact_sweeps_are_bit_equal_to_the_per_epoch_loops():
    rng = np.random.default_rng(7)
    ties = 0
    for inst in _sweep_instances():
        S, A, T = inst.num_states, inst.num_actions, inst.horizon
        star = _reference_optimal_values(inst)
        assert optimal_values(inst).values.tobytes() == star.tobytes()

        table = np.vstack([rng.uniform(-3, 3, size=(T, S)), np.zeros((1, S))])
        for values in (star, table):
            q = _reference_q_tables(inst, values)
            assert q_tables(inst, ValueTable(values)).tobytes() == q.tobytes()
            assert greedy_policy(inst, ValueTable(values)).rules == _reference_greedy(inst, values)
            assert (bellman_value_operator(inst, ValueTable(values)).values.tobytes()
                    == np.vstack([q.max(axis=2), np.zeros((1, S))]).tobytes())
            if A > 1:
                ties += int(np.sum(q[..., 0] == q[..., 1]))

        for length in {T, T - 1, 1, 0}:
            rules = tuple(map(tuple, rng.integers(A, size=(length, S)).tolist()))
            for start_time in range(T - length + 1):
                got = evaluate_policy(inst, TimeVaryingPolicy(rules), start_time=start_time)
                assert got.values.tobytes() == _reference_evaluate(inst, rules, start_time).tobytes()

        short = tuple(map(tuple, rng.integers(A, size=(T // 2, S)).tolist()))
        for init in ((), short, _reference_greedy(inst, star)):
            policy, values, iterations = _reference_policy_iteration(inst, init)
            result = policy_iteration(inst, TimeVaryingPolicy(init))
            assert result.policy.rules == policy
            assert result.values.values.tobytes() == values.tobytes()
            assert result.iterations == iterations
    assert ties > 100, ties


def test_policy_iteration_checks_only_its_init(monkeypatch):
    inst = generate(1, 200, 4, 50, 0.9)
    checked = []
    check_against = TimeVaryingPolicy.check_against

    def counted(policy, instance):
        checked.append(policy)
        check_against(policy, instance)

    monkeypatch.setattr(TimeVaryingPolicy, "check_against", counted)
    init = TimeVaryingPolicy.from_actions([[3] * 200] * 10)
    result = policy_iteration(inst, init)
    assert result.iterations > 1
    assert len(checked) == 1 and checked[0] is init
    for bad, message in [
        ([[0] * 199], "decision rule covers 199 states, instance has 200"),
        ([[0] * 7 + [4] + [0] * 192], "action 4 for state 7 out of range"),
        ([[0] * 200] * 51, "policy length 51 exceeds horizon 50"),
    ]:
        with pytest.raises(ValueError) as error:
            policy_iteration(inst, TimeVaryingPolicy.from_actions(bad))
        assert str(error.value) == message
