import itertools

import numpy as np
import pytest

from conftest import sparse_instance
from dmdp import (
    DmdpInstance,
    EMPTY_POLICY,
    GoalSet,
    TimeVaryingPolicy,
    concat,
    concat_value_check,
    evaluate_policy,
    generate,
    goal_set,
    make_static_gap_instance,
    propagate,
    truncate,
)
from dmdp.composition import _child_masks, _state_bits, satisfies, support_masks


def random_policy(instance, rng, length):
    return TimeVaryingPolicy.from_actions(
        rng.integers(0, instance.num_actions, size=(length, instance.num_states))
    )


def endpoint_states_by_paths(instance, policy, start):
    """Independent goal-set oracle: walk every trajectory whose one-step
    probabilities are all positive and collect the end states.  A state
    already walked at a depth is not walked again: its trajectories end
    where they ended the first time."""
    ends, walked = set(), set()

    def walk(state, depth):
        if (state, depth) in walked:
            return
        walked.add((state, depth))
        if depth == len(policy):
            ends.add(state)
            return
        row = instance.transition[state, policy.rules[depth][state]]
        for nxt in range(instance.num_states):
            if row[nxt] > 0.0:
                walk(nxt, depth + 1)

    walk(start, 0)
    return ends


# ---------------------------------------------------------------------------
# GoalSet


def test_goal_set_roundtrip_and_ops():
    g = GoalSet.from_states([2, 0], num_states=4)
    assert g.members() == (0, 2)
    assert 0 in g and 2 in g and 1 not in g
    assert len(g) == 2
    full = GoalSet.full(4)
    assert g.issubset(full) and g.is_proper_subset(full)
    assert not full.issubset(g)
    assert g.union(GoalSet.from_states([1], 4)).members() == (0, 1, 2)
    assert GoalSet.from_states([], 4).is_empty


def test_goal_set_bounds():
    with pytest.raises(ValueError):
        GoalSet.from_states([4], num_states=4)
    with pytest.raises(ValueError):
        GoalSet(0, num_states=0)
    assert GoalSet(0, num_states=65).is_empty
    with pytest.raises(ValueError):
        GoalSet.from_states([0], 2).issubset(GoalSet.from_states([0], 3))


def test_masks_are_uint64_words_up_to_64_states_and_python_ints_past_that():
    for num_states, dtype in ((64, np.uint64), (65, object)):
        assert _state_bits(num_states).dtype == dtype
        dists = np.eye(num_states)[[0, -1]]
        masks = support_masks(dists)
        assert masks.dtype == dtype and masks.tolist() == [1, 1 << (num_states - 1)]
        succ = support_masks(np.eye(num_states)[:, None, ::-1])
        assert _child_masks(succ, masks, np.zeros((1, num_states), int)).tolist() == [
            [1 << (num_states - 1)], [1]]


def test_satisfies_matches_set_semantics():
    # Every pair of masks over three states, both modes, strict off and on,
    # against Python sets: reach wants the goal inside the target, cover
    # around it.  The same pairs as uint64 arrays give the same answers.
    members = {m: {s for s in range(3) if m >> s & 1} for m in range(8)}
    pairs = list(itertools.product(range(8), repeat=2))
    for mode, strict in itertools.product(("reach", "cover"), (False, True)):
        expected = []
        for goal, target in pairs:
            inner, outer = members[goal], members[target]
            if mode == "cover":
                inner, outer = outer, inner
            expected.append(inner < outer if strict else inner <= outer)
        assert [satisfies(g, t, mode, strict) for g, t in pairs] == expected
        goals, targets = np.array(pairs, dtype=np.uint64).T
        assert satisfies(goals, targets, mode, strict).tolist() == expected


# ---------------------------------------------------------------------------
# concat / truncate


def test_concat_empty_identity():
    inst = generate(0, 2, 2, 3, 0.5)
    rng = np.random.default_rng(0)
    policy = random_policy(inst, rng, 2)
    assert concat(EMPTY_POLICY, policy) == policy
    assert concat(policy, EMPTY_POLICY) == policy


def test_concat_preserves_rule_provenance():
    inst = generate(1, 2, 2, 5, 0.5)
    rng = np.random.default_rng(1)
    first, second = random_policy(inst, rng, 2), random_policy(inst, rng, 3)
    combined = concat(first, second, horizon=inst.horizon)
    assert len(combined) == 5
    assert combined.rules[:2] == first.rules
    assert combined.rules[2:] == second.rules
    assert truncate(combined, 2) == first


def test_concat_horizon_overflow():
    rng = np.random.default_rng(2)
    inst = generate(2, 2, 2, 3, 0.5)
    first, second = random_policy(inst, rng, 2), random_policy(inst, rng, 2)
    with pytest.raises(ValueError):
        concat(first, second, horizon=3)


def test_truncate_bounds():
    rng = np.random.default_rng(3)
    inst = generate(3, 2, 2, 3, 0.5)
    policy = random_policy(inst, rng, 2)
    assert truncate(policy, 0) == EMPTY_POLICY
    with pytest.raises(ValueError):
        truncate(policy, 3)


# ---------------------------------------------------------------------------
# propagate / goal_set


def test_propagate_deterministic_chain_point_masses():
    P = np.zeros((3, 1, 3))
    P[0, 0, 1] = P[1, 0, 2] = P[2, 0, 2] = 1.0
    inst = DmdpInstance(
        num_states=3, num_actions=1, horizon=3, gamma=0.5, r_max=1.0,
        transition=P, reward=np.zeros((3, 3, 1)),
    )
    policy = TimeVaryingPolicy.from_actions([[0, 0, 0]] * 2)
    dists = propagate(inst, policy, start=0)
    assert dists.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert goal_set(inst, policy, 0).members() == (2,)


def test_propagate_uniform_two_state_single_step():
    inst = DmdpInstance(
        num_states=2, num_actions=1, horizon=1, gamma=0.5, r_max=1.0,
        transition=np.full((2, 1, 2), 0.5), reward=np.zeros((1, 2, 1)),
    )
    dists = propagate(inst, TimeVaryingPolicy.from_actions([[0, 0]]), start=0)
    assert dists[1].tolist() == [0.5, 0.5]


def test_propagate_rows_stay_distributions():
    for seed in range(20):
        inst = sparse_instance(seed)
        rng = np.random.default_rng(seed)
        policy = random_policy(inst, rng, inst.horizon)
        dists = propagate(inst, policy, start=int(rng.integers(3)))
        assert np.all(dists >= 0.0)
        assert np.allclose(dists.sum(axis=1), 1.0, atol=1e-9, rtol=0)


def test_propagate_matches_sampled_frequencies():
    inst = generate(6, 3, 2, 3, 0.5)
    policy = TimeVaryingPolicy.from_actions([[0, 1, 0], [1, 1, 0]])
    dists = propagate(inst, policy, start=0)
    n = 10**6
    rng = np.random.default_rng(123)
    states = np.zeros(n, dtype=int)
    for i, rule in enumerate(policy.rules):
        actions = np.asarray(rule)[states]
        cum = np.cumsum(inst.transition[states, actions, :], axis=1)
        states = np.minimum((rng.random(n)[:, None] > cum).sum(axis=1), 2)
        freq = np.bincount(states, minlength=3) / n
        for s in range(3):
            p = dists[i + 1, s]
            sigma = np.sqrt(max(p * (1 - p), 0.0) / n)
            assert abs(freq[s] - p) <= 3 * sigma + 1e-9


def test_goal_set_static_gap_is_the_single_state():
    inst = make_static_gap_instance()
    policy = TimeVaryingPolicy.from_actions([[1], [0]])
    assert goal_set(inst, policy, 0).members() == (0,)


def test_goal_set_matches_path_enumeration():
    for seed in range(25):
        inst = sparse_instance(seed, num_states=4, num_actions=2, horizon=3)
        rng = np.random.default_rng(100 + seed)
        policy = random_policy(inst, rng, 2)
        start = int(rng.integers(4))
        expected = endpoint_states_by_paths(inst, policy, start)
        assert set(goal_set(inst, policy, start).members()) == expected


def test_goal_set_matches_path_enumeration_at_long_horizons():
    # Fixed policies of 10 and 12 epochs from every start state: each
    # instance's narrowest and widest stationary rules (fewest and most
    # successors per state) and one random policy.  Random rows mix to the
    # full state set, so the stationary rules keep the goal sets varied,
    # and some end states keep only a sliver of mass.
    goals, least = set(), 1.0
    for num_states in (3, 4):
        for seed in range(30):
            inst = sparse_instance(seed, num_states, 2, 12)
            width = (inst.transition > 0).sum(axis=2)
            rng = np.random.default_rng(200 + seed)
            for length in (10, 12):
                policies = [TimeVaryingPolicy.from_actions(np.tile(rule, (length, 1)))
                            for rule in (width.argmin(axis=1), width.argmax(axis=1))]
                policies.append(random_policy(inst, rng, length))
                for policy, start in itertools.product(policies, range(num_states)):
                    expected = endpoint_states_by_paths(inst, policy, start)
                    found = goal_set(inst, policy, start)
                    assert set(found.members()) == expected
                    goals.add((num_states, found.mask))
                    least = min(least, propagate(inst, policy, start)[-1][list(expected)].min())
    assert len(goals) >= 15 and least < 1e-8


def test_goal_set_requires_nonempty_policy():
    inst = generate(4, 2, 2, 2, 0.5)
    with pytest.raises(ValueError):
        goal_set(inst, EMPTY_POLICY, 0)


# ---------------------------------------------------------------------------
# Concatenation value identity


def test_concat_value_split_forms_agree():
    checked = 0
    for k in range(200):
        gamma = [0.3, 0.5, 0.9, 0.95][k % 4]
        inst = generate(k, 3, 2, 5, gamma)
        rng = np.random.default_rng(k)
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, inst.horizon - n1 + 1))
        first, second = random_policy(inst, rng, n1), random_policy(inst, rng, n2)
        t = int(rng.integers(0, n1 + n2))
        start = int(rng.integers(3))
        lhs, rhs = concat_value_check(inst, first, second, t, start)
        assert abs(lhs - rhs) <= 1e-10
        checked += 1
    assert checked == 200


def test_concat_value_tail_epochs_are_exact():
    # At epochs inside the second policy, both sides reduce to the same
    # backward recursion and must agree to the last bit.
    inst = generate(9, 3, 2, 4, 0.8)
    rng = np.random.default_rng(9)
    first, second = random_policy(inst, rng, 2), random_policy(inst, rng, 2)
    for t in (2, 3):
        for start in range(3):
            lhs, rhs = concat_value_check(inst, first, second, t, start)
            assert lhs == rhs


def test_concat_value_zero_reward_suffix():
    base = generate(10, 3, 2, 4, 0.5)
    reward = base.reward.copy()
    reward[2:] = 0.0  # everything after the first policy's span is free
    inst = DmdpInstance(
        num_states=3, num_actions=2, horizon=4, gamma=0.5, r_max=1.0,
        transition=base.transition, reward=reward, sign_mode="nonpositive",
    )
    rng = np.random.default_rng(10)
    first, second = random_policy(inst, rng, 2), random_policy(inst, rng, 2)
    for start in range(3):
        lhs, rhs = concat_value_check(inst, first, second, 0, start)
        assert abs(lhs - rhs) <= 1e-12
        assert lhs == pytest.approx(
            evaluate_policy(inst, first).values[0, start], abs=1e-12
        )


def test_concat_value_check_rejects_out_of_range_epoch():
    inst = generate(11, 2, 2, 3, 0.5)
    rng = np.random.default_rng(11)
    first, second = random_policy(inst, rng, 1), random_policy(inst, rng, 1)
    with pytest.raises(ValueError):
        concat_value_check(inst, first, second, 2, 0)


# ---------------------------------------------------------------------------
# Goal sets under composition


def test_goal_dominance_survives_composition():
    # If one prefix's goal set contains another's, appending the same
    # suffix preserves the containment.
    found_pairs = 0
    for seed in range(60):
        inst = sparse_instance(seed)
        rng = np.random.default_rng(200 + seed)
        p1 = random_policy(inst, rng, 1)
        p1s = random_policy(inst, rng, 1)
        suffix = random_policy(inst, rng, 2)
        start = int(rng.integers(3))
        g1 = goal_set(inst, p1, start)
        g1s = goal_set(inst, p1s, start)
        if not g1.issubset(g1s):
            continue
        found_pairs += 1
        c1 = goal_set(inst, concat(p1, suffix), start)
        c1s = goal_set(inst, concat(p1s, suffix), start)
        assert c1.issubset(c1s)
    assert found_pairs >= 10


def test_goal_of_concat_is_union_over_intermediate_states():
    for seed in range(40):
        inst = sparse_instance(seed)
        rng = np.random.default_rng(300 + seed)
        first = random_policy(inst, rng, 2)
        second = random_policy(inst, rng, 1)
        start = int(rng.integers(3))
        combined = goal_set(inst, concat(first, second), start)
        union = GoalSet.from_states([], 3)
        for mid in goal_set(inst, first, start).members():
            union = union.union(goal_set(inst, second, mid))
        assert combined.mask == union.mask
