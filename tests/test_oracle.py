import dataclasses
import hashlib
import itertools
import json
import tracemalloc

import numpy as np
import pytest

from conftest import sparse_instance
from dmdp import (
    DmdpInstance,
    EnumerationCapExceeded,
    GoalSet,
    OracleBudgetExceeded,
    TimeVaryingPolicy,
    brute_force_cover,
    brute_force_optimal_value,
    brute_force_reach,
    count_policies,
    enumerate_policies,
    evaluate_policy,
    generate,
    goal_set,
    make_static_gap_instance,
    optimal_values,
    realizable_goal_sets,
)
from dmdp import oracle


def single_state_instance(horizon=2, gamma=0.5, num_actions=2, seed=0):
    rng = np.random.default_rng(seed)
    reward = -rng.uniform(0, 1, size=(horizon, 1, num_actions))
    return DmdpInstance(
        num_states=1, num_actions=num_actions, horizon=horizon, gamma=gamma,
        r_max=1.0, transition=np.ones((1, num_actions, 1)), reward=reward,
        sign_mode="nonpositive",
    )


def test_policy_counts():
    inst = single_state_instance(horizon=2, num_actions=2)
    assert count_policies(inst, 2) == 6
    assert len(list(enumerate_policies(inst, 2))) == 6
    inst4 = single_state_instance(horizon=2, num_actions=4)
    assert count_policies(inst4, 1) == 4
    two_state = generate(0, 2, 2, 2, 0.5)
    assert count_policies(two_state, 2) == 20
    assert len(list(enumerate_policies(two_state, 2))) == 20


def test_enumeration_order_shortest_first_then_lexicographic():
    inst = single_state_instance(horizon=2, num_actions=2)
    encodings = [p.rules for p in enumerate_policies(inst, 2)]
    assert encodings == [
        ((0,),), ((1,),),
        ((0,), (0,)), ((0,), (1,)), ((1,), (0,)), ((1,), (1,)),
    ]


def test_enumeration_budget_reports_required_count():
    inst = generate(0, 2, 2, 2, 0.5)
    with pytest.raises(OracleBudgetExceeded) as exc:
        list(enumerate_policies(inst, 2, budget=10))
    assert exc.value.required == 20
    with pytest.raises(ValueError):
        list(enumerate_policies(inst, 0))
    with pytest.raises(ValueError):
        list(enumerate_policies(inst, 3))


def test_single_state_reach_closed_form():
    inst = single_state_instance(horizon=3, gamma=0.5, seed=4)
    best = brute_force_reach(inst, 0, GoalSet.full(1), max_len=3)
    # With one state the best policy plays the cheapest action each epoch,
    # and longer policies only add cost, so the best length is 1.
    per_epoch = inst.reward[:, 0, :].max(axis=1)
    candidates = [
        sum(inst.gamma**t * per_epoch[t] for t in range(n)) for n in (1, 2, 3)
    ]
    assert best.value == pytest.approx(max(candidates), abs=1e-12)
    assert best.goal.members() == (0,)


def test_empty_target_reach_is_absent():
    inst = generate(1, 2, 2, 2, 0.5)
    assert brute_force_reach(inst, 0, GoalSet.from_states([], 2), 2) is None


def test_cover_absent_when_state_unreachable():
    P = np.zeros((2, 2, 2))
    P[:, :, 1] = 1.0  # state 0 unreachable after the first step
    inst = DmdpInstance(
        num_states=2, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
        transition=P, reward=np.full((2, 2, 2), -0.5), sign_mode="nonpositive",
    )
    assert brute_force_cover(inst, 0, GoalSet.full(2), 2) is None
    found = brute_force_cover(inst, 0, GoalSet.from_states([1], 2), 2)
    assert found is not None and found.goal.members() == (1,)


def test_brute_force_result_dominates_every_qualifying_policy():
    inst = generate(5, 2, 2, 3, 0.5)
    target = GoalSet.full(2)
    best = brute_force_reach(inst, 0, target, 3)
    for policy in enumerate_policies(inst, 3):
        if not goal_set(inst, policy, 0).issubset(target):
            continue
        value = evaluate_policy(inst, policy).values[0, 0]
        assert best.value >= value - 1e-12


def test_ties_keep_the_earliest_policy():
    inst = single_state_instance(horizon=2, num_actions=2)
    flat = DmdpInstance(
        num_states=1, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
        transition=inst.transition, reward=np.zeros((2, 1, 2)),
        sign_mode="nonpositive",
    )
    best = brute_force_reach(flat, 0, GoalSet.full(1), 2)
    assert best.policy.rules == (((0,),))  # first in canonical order


def test_brute_force_optimal_value_cases():
    flat = DmdpInstance(
        num_states=2, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
        transition=np.full((2, 2, 2), 0.5), reward=np.zeros((2, 2, 2)),
    )
    assert np.array_equal(brute_force_optimal_value(flat), [0.0, 0.0])
    gap = make_static_gap_instance()
    assert brute_force_optimal_value(gap)[0] == 1.0 + gap.gamma
    for seed in (2, 9):
        inst = generate(seed, 3, 2, 3, 0.7)
        diff = np.abs(brute_force_optimal_value(inst) - optimal_values(inst).values[0])
        assert np.max(diff) <= 1e-12


def test_brute_force_optimal_value_budget():
    inst = generate(0, 3, 2, 3, 0.5)
    with pytest.raises(OracleBudgetExceeded):
        brute_force_optimal_value(inst, budget=100)


def test_brute_force_validates_start():
    inst = generate(0, 2, 2, 2, 0.5)
    with pytest.raises(ValueError):
        brute_force_reach(inst, 9, GoalSet.full(2), 2)
    with pytest.raises(ValueError):
        brute_force_reach(inst, 0, GoalSet.full(3), 2)
    # The start is checked before the budget, as in brute_force_reach.
    with pytest.raises(ValueError, match="start state 9 out of range"):
        realizable_goal_sets(generate(1, 3, 2, 5, 0.5), 9, 5, budget=1)


def _pin_instances():
    """The first ten corpus instances, sparse 3x2x3, 4x2x3 and 5x2x2, and
    dense 8x2x1, each with its targets: every nonempty one up to four
    states, and on wider ones the singletons, their complements and the
    full set.

    The sparse ones use gamma 0.3, because scaling by a power of two such
    as the corpus's 0.5 is exact and would hide a change in the order of
    the products.  A last sparse instance with a free action ties many
    policies of different lengths at the same value, so the tie-break
    shows."""
    shapes = [generate(seed, 3, 2, 3, 0.5) for seed in range(10)]
    shapes += [sparse_instance(0, *shape, 0.3) for shape in ((3, 2, 3), (4, 2, 3), (5, 2, 2))]
    shapes.append(generate(0, 8, 2, 1, 0.5))
    tied = sparse_instance(1, 3, 2, 3, 0.3)
    reward = tied.reward.copy()
    reward[:, :, 0] = 0.0
    shapes.append(dataclasses.replace(tied, reward=reward))
    for inst in shapes:
        S = inst.num_states
        if S <= 4:
            targets = [
                GoalSet.from_states(c, S)
                for n in range(1, S + 1) for c in itertools.combinations(range(S), n)
            ]
        else:
            targets = [GoalSet.from_states([s], S) for s in range(S)]
            targets += [GoalSet.from_states([x for x in range(S) if x != s], S) for s in range(S)]
            targets.append(GoalSet.full(S))
        yield inst, targets


def _oracle_digest():
    """sha256 over every oracle answer of the pin sweep, floats as hex,
    and the number of records hashed."""
    h = hashlib.sha256()
    records = 0

    def add(record):
        nonlocal records
        h.update(json.dumps(record).encode() + b"\n")
        records += 1

    for inst, targets in _pin_instances():
        add([v.hex() for v in brute_force_optimal_value(inst).tolist()])
        for start in range(inst.num_states):
            for max_len in range(1, inst.horizon + 1):
                add([g.mask for g in realizable_goal_sets(inst, start, max_len)])
                for target in targets:
                    for brute in (brute_force_reach, brute_force_cover):
                        best = brute(inst, start, target, max_len)
                        add([False] if best is None else [
                            True, best.policy.rules, best.value.hex(), best.goal.mask,
                        ])
    return h.hexdigest(), records


PINNED_ORACLE_SHA256 = "c72fdb8587435e908dbbea8c023866be0cef65405fc26443cc4541f3f68aa918"


def test_oracle_answers_are_pinned():
    """Found, policy encoding, value bits and goal mask of every reach and
    cover answer, the bits of the optimal values and the order of the
    realizable goal sets, over the pin sweep.

    Recorded with the one-policy-at-a-time oracle (goal_set and
    evaluate_policy per enumerated policy). Like the search pins, it is
    tied to the rounding of the numpy/BLAS products it was recorded with
    (numpy 2.4 with OpenBLAS on x86_64).
    """
    assert _oracle_digest() == (PINNED_ORACLE_SHA256, 2517)


def test_block_size_does_not_change_the_answers(monkeypatch):
    # 64 splits every length above R**2 <= 64 into blocks: runs of rules
    # at one epoch behind a fixed prefix, and runs narrower than R itself
    # on the dense 8x2x1 instance (R = 256).
    monkeypatch.setattr(oracle, "POLICY_BLOCK", 64)
    assert _oracle_digest() == (PINNED_ORACLE_SHA256, 2517)


def test_memory_stays_bounded_on_two_million_policies():
    inst = single_state_instance(horizon=20)
    assert count_policies(inst, 20) == 2**21 - 2
    tracemalloc.start()
    try:
        best = brute_force_reach(inst, 0, GoalSet.full(1), 20)
        optimum = brute_force_optimal_value(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # Rewards are negative, so the best policy plays the best first action
    # and stops; a length-1 value is its reward exactly.
    assert best.value == inst.reward[0, 0].max()
    assert best.policy.rules == ((int(inst.reward[0, 0].argmax()),),)
    # With one state and a unit kernel, every policy's backup rounds like
    # backward induction's, and rounding is monotone, so the best value is
    # V* to the bit.
    assert np.array_equal(optimum, optimal_values(inst).values[0])
    # One array of the 2**20 length-20 values alone would take 8 MiB.
    assert peak < 2 * 2**20


def test_errors_keep_their_order():
    inst = generate(0, 3, 2, 3, 0.5)
    with pytest.raises(ValueError, match="start state"):
        brute_force_reach(inst, 3, GoalSet.full(3), 9, budget=1)
    with pytest.raises(ValueError, match="max_len"):
        brute_force_cover(inst, 0, GoalSet.full(3), 9, budget=1)
    with pytest.raises(OracleBudgetExceeded) as exc:
        brute_force_reach(inst, 0, GoalSet.full(3), 2, budget=71)
    assert exc.value.required == 72
    with pytest.raises(ValueError, match="start state"):
        realizable_goal_sets(inst, 3, 0, budget=1)
    with pytest.raises(ValueError, match="max_len"):
        realizable_goal_sets(inst, 0, 0, budget=1)
    with pytest.raises(OracleBudgetExceeded):
        realizable_goal_sets(inst, 0, 1, budget=7)
    with pytest.raises(EnumerationCapExceeded):
        brute_force_optimal_value(inst, budget=7)
    with pytest.raises(OracleBudgetExceeded):
        brute_force_optimal_value(inst, budget=8)
