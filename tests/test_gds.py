import dataclasses
import hashlib
import itertools
import json
import tracemalloc
import types

import numpy as np
import pytest

from conftest import sparse_instance
from dmdp import (
    DmdpInstance,
    EnumerationCapExceeded,
    GdsConfig,
    GoalSet,
    InstanceValidationError,
    NodeBudgetExceeded,
    QueueInvariantViolation,
    TimeVaryingPolicy,
    brute_force_cover,
    brute_force_reach,
    enumerate_policies,
    epsilon,
    evaluate_policy,
    gds_search,
    generate,
    goal_set,
    propagate,
    realizable_goal_sets,
    support_of,
)
from dmdp import composition, gds, save
from dmdp.cli import main
from dmdp.composition import satisfies, target_unreachable
from dmdp.core import RULE_ENUMERATION_CAP


def self_loop_instance():
    P = np.zeros((2, 2, 2))
    P[0, :, 0] = 1.0
    P[1, :, 1] = 1.0
    reward = np.array(
        [[[-0.3, -0.1], [-0.5, -0.2]], [[-0.4, -0.6], [-0.1, -0.7]]]
    )
    return DmdpInstance(
        num_states=2, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
        transition=P, reward=reward, sign_mode="nonpositive",
    )


def absorbing_instance():
    # Everything flows into state 1 and stays; state 0 is never seen again.
    P = np.zeros((2, 2, 2))
    P[:, :, 1] = 1.0
    return DmdpInstance(
        num_states=2, num_actions=2, horizon=3, gamma=0.5, r_max=1.0,
        transition=P, reward=np.full((3, 2, 2), -0.25), sign_mode="nonpositive",
    )


def pruning_instance():
    """Reach target {1} is unrealizable (every goal set is {0,1}), which
    the root verdict proves; verify mode drains the queue anyway, and with
    a free action next to a costly one, deep costly branches fall behind
    the recorded best by more than the depth-2 slack epsilon = 1 and get
    pruned."""
    P = np.zeros((2, 2, 2))
    P[0, 0] = P[0, 1] = [0.5, 0.5]
    P[1, 0] = [0.0, 1.0]
    P[1, 1] = [0.5, 0.5]
    reward = np.zeros((3, 2, 2))
    reward[:, :, 1] = -0.9
    return DmdpInstance(
        num_states=2, num_actions=2, horizon=3, gamma=0.5, r_max=1.0,
        transition=P, reward=reward, sign_mode="nonpositive",
    )


# ---------------------------------------------------------------------------
# epsilon schedule


def test_epsilon_closed_form_cases():
    inst = generate(0, 3, 2, 3, 0.5)
    assert epsilon(inst, 0) == 4.0
    assert epsilon(inst, 1) == 2.0
    assert epsilon(inst, 2) == 1.0


def test_epsilon_zero_reward_bound():
    inst = DmdpInstance(
        num_states=1, num_actions=1, horizon=1, gamma=0.5, r_max=0.0,
        transition=np.ones((1, 1, 1)), reward=np.zeros((1, 1, 1)),
    )
    assert epsilon(inst, 0) == 0.0 and epsilon(inst, 3) == 0.0


def test_epsilon_matches_partial_sums():
    for gamma in (0.3, 0.5, 0.9):
        inst = generate(1, 2, 2, 2, gamma)
        for t in range(6):
            tail = sum(gamma**i for i in range(t, 400))
            assert abs(epsilon(inst, t) - inst.r_max / (1 - gamma) * tail) <= 1e-12


def test_epsilon_recurrence():
    inst = generate(2, 2, 2, 2, 0.7)
    for t in range(8):
        step = inst.gamma**t * inst.r_max / (1 - inst.gamma)
        assert abs(epsilon(inst, t + 1) - (epsilon(inst, t) - step)) <= 1e-12


# ---------------------------------------------------------------------------
# termination behavior


def test_reach_own_state_on_self_loops_returns_one_step_policy():
    inst = self_loop_instance()
    result = gds_search(inst, GdsConfig(start=0, target=GoalSet.from_states([0], 2)))
    assert result.found
    assert len(result.policy) == 1
    assert result.value == -0.1  # best epoch-0 action at the start state
    assert result.goal.members() == (0,)
    assert result.nodes_popped == 2  # root, then the winning child


def test_full_target_found_at_depth_one():
    inst = generate(4, 3, 2, 3, 0.5)
    for mode in ("reach", "cover"):
        result = gds_search(
            inst, GdsConfig(start=0, target=GoalSet.full(3), mode=mode)
        )
        assert result.found and len(result.policy) == 1


def test_unreachable_reach_target_is_proved_without_popping():
    inst = pruning_instance()
    result = gds_search(
        inst, GdsConfig(start=0, target=GoalSet.from_states([1], 2), trace=True, node_budget=1)
    )
    assert not result.found
    assert result.policy is None and result.value is None and result.goal is None
    assert result.nodes_popped == 0 and result.nodes_pruned == 0
    assert result.trace == ({"event": "terminate", "reason": "target-unreachable"},)
    assert brute_force_reach(inst, 0, GoalSet.from_states([1], 2), 3) is None


def test_cover_absent_on_absorbing_instance():
    inst = absorbing_instance()
    target = GoalSet.full(2)
    result = gds_search(inst, GdsConfig(start=0, target=target, mode="cover"))
    assert not result.found
    assert brute_force_cover(inst, 0, target, 3) is None


# ---------------------------------------------------------------------------
# pruning


def test_pruning_fires_and_is_justified():
    inst = pruning_instance()
    config = GdsConfig(
        start=0, target=GoalSet.from_states([1], 2), trace=True, verify=True
    )
    result = gds_search(inst, config)
    assert not result.found
    assert result.nodes_pruned >= 1
    prunes = [e for e in result.trace if e["event"] == "prune"]
    assert len(prunes) == result.nodes_pruned
    for event in prunes:
        # the recorded rival's goal set is contained in the pruned node's
        assert set(event["record_goal"]) <= set(event["goal"])
        # and the node trails it by at least the remaining-value slack
        assert event["value"] <= event["record_value"] - event["epsilon"]
        assert event["epsilon"] == epsilon(inst, event["depth"])


def test_verify_mode_catches_an_unjustified_prune(monkeypatch):
    # An inclusion test that holds for every pair of goal sets apart from
    # the target lets any record prune any node: the search prunes the
    # branches that meet the cover target and finds nothing.  Verify mode
    # re-justifies each prune on the members and must see it.
    inst = sparse_instance(1, 3, 2, 4, 0.1)
    target = GoalSet.from_states([0, 1], 3)
    config = GdsConfig(start=0, target=target, mode="cover")
    assert gds_search(inst, config).found
    satisfies = gds.satisfies
    monkeypatch.setattr(gds, "satisfies", lambda goal, other, mode, strict: (
        satisfies(goal, other, mode, strict) if target.mask in (goal, other) else True
    ))
    mutated = gds_search(inst, config)
    assert not mutated.found and mutated.nodes_pruned > 0
    with pytest.raises(QueueInvariantViolation, match="unjustified prune at depth 2"):
        gds_search(inst, dataclasses.replace(config, verify=True))


def test_pruning_never_changes_the_answer():
    # A feasible reach query on which pruning fires: the pruned search
    # finds the value brute force finds by evaluating every policy, and a
    # traced rerun agrees with it event for event.
    inst = sparse_instance(7, 3, 2, 4, 0.1)
    target = GoalSet.from_states([0, 2], 3)
    config = GdsConfig(start=1, target=target, trace=True)
    first = gds_search(inst, config)
    assert first.found and first.nodes_popped > 0 and first.nodes_pruned > 0
    best = brute_force_reach(inst, 1, target, inst.horizon)
    assert abs(first.value - best.value) <= 1e-9
    assert first.goal.issubset(target)
    second = gds_search(inst, config)
    assert second == first
    assert sum(e["event"] == "prune" for e in second.trace) == first.nodes_pruned


@pytest.mark.xfail(strict=True, reason="epsilon pruning is unsound (ROADMAP item 3)")
def test_pruning_keeps_the_best_cover_on_sparse_3x2x4():
    # The record for goal {0} is the depth-1 node (1,0,0), whose own depth-2
    # child, the prefix of the optimal policy, is then pruned against it.
    # Today the search returns -0.33453 with ((1,0,0),(0,0,0)); brute force
    # finds -0.31433 with ((1,0,0),(1,0,0),(0,0,0)).  Once pruning is sound
    # this passes, and strict mode makes the run fail until the mark goes.
    inst = sparse_instance(1, 3, 2, 4, 0.1)
    target = GoalSet.from_states([1], 3)
    result = gds_search(inst, GdsConfig(start=0, target=target, mode="cover"))
    best = brute_force_cover(inst, 0, target, inst.horizon)
    assert result.found
    assert abs(result.value - best.value) <= 1e-9


# ---------------------------------------------------------------------------
# queue discipline


def test_pop_values_are_monotone_in_trace():
    for seed in (0, 5, 9):
        inst = sparse_instance(seed)
        config = GdsConfig(
            start=0, target=GoalSet.from_states([0], 3), trace=True
        )
        result = gds_search(inst, config)
        pops = [e["value"] for e in result.trace if e["event"] == "pop"]
        assert all(a >= b - 1e-12 for a, b in zip(pops, pops[1:]))


def test_each_pop_at_the_horizon_is_cut_off_once():
    # Verify mode drains both queries, which the root verdict proves
    # unreachable; the first also prunes.  A drained search pops no node
    # that meets the goal constraint, so every pop at the horizon is
    # followed by its cutoff, and nothing else is.
    kinds = set()
    for inst, start, target in ((pruning_instance(), 0, [1]), (sparse_instance(0), 0, [2])):
        config = GdsConfig(start=start, target=GoalSet.from_states(target, inst.num_states),
                           trace=True, verify=True)
        trace = gds_search(inst, config).trace
        kinds |= {e["event"] for e in trace}
        assert trace[-1] == {"event": "terminate", "reason": "queue-exhausted"}
        at_horizon = [i for i, e in enumerate(trace)
                      if e["event"] == "pop" and e["depth"] == inst.horizon]
        assert at_horizon
        assert [i for i, e in enumerate(trace) if e["event"] == "cutoff"] == [
            i + 1 for i in at_horizon
        ]
        for i in at_horizon:
            assert trace[i + 1] == {"event": "cutoff", "depth": inst.horizon,
                                    "policy": trace[i]["policy"]}
    assert kinds == {"pop", "push", "record", "prune", "cutoff", "terminate"}


def test_queued_values_match_exact_evaluation():
    # verify=True re-derives every pushed node's value by backward
    # induction and raises on disagreement beyond 1e-10.
    for seed in range(10):
        inst = sparse_instance(seed)
        for mode in ("reach", "cover"):
            gds_search(
                inst,
                GdsConfig(start=0, target=GoalSet.full(3), mode=mode, verify=True),
            )


def test_verify_mode_catches_a_wrong_queued_value(monkeypatch):
    # Kernels off by a factor 1 + 1e-6 in the search's forward arithmetic
    # alone: a child's distribution, and so the values below it, drift.
    # Verify mode must value the children from the instance, not from the
    # search's own kernels, rewards or distributions, to see it.
    inst = sparse_instance(7, 3, 2, 4, 0.1)
    config = GdsConfig(start=1, target=GoalSet.from_states([0, 2], 3))
    rule_kernel = gds._rule_kernel
    monkeypatch.setattr(gds, "_rule_kernel", lambda *args: rule_kernel(*args) * (1 + 1e-6))
    assert gds_search(inst, config).found
    with pytest.raises(QueueInvariantViolation, match="queued value"):
        gds_search(inst, dataclasses.replace(config, verify=True))


def test_verify_mode_catches_pops_out_of_value_order(monkeypatch):
    # A last-in-first-out queue in place of the heap (the seam the
    # benchmark's tracer also wraps) pops a child before better siblings.
    monkeypatch.setattr(gds, "heapq", types.SimpleNamespace(
        heappush=list.append, heappop=list.pop
    ))
    inst = sparse_instance(0, 3, 2, 3, 0.5)
    config = GdsConfig(start=0, target=GoalSet.from_states([0], 3), verify=True)
    with pytest.raises(QueueInvariantViolation, match="pop values increased"):
        gds_search(inst, config)


def test_found_value_equals_exact_policy_value():
    for seed in range(10):
        inst = sparse_instance(100 + seed)
        result = gds_search(inst, GdsConfig(start=0, target=GoalSet.full(3)))
        if not result.found:
            continue
        exact = evaluate_policy(inst, result.policy).values[0, 0]
        assert abs(result.value - exact) <= 1e-10


# ---------------------------------------------------------------------------
# oracle sweep


@pytest.fixture(scope="module")
def sparse_sweep():
    """(instance, start, targets, outcomes) for the 30-seed sparse sweep.

    outcomes lists (value, goal members) for every policy of length
    1..horizon from start; targets are the realized goal sets plus every
    singleton, realizable or not, so found-parity is probed too.
    """
    cases = []
    for seed in range(30):
        inst = sparse_instance(seed)
        for start in (0, 2):
            outcomes = [
                (
                    float(evaluate_policy(inst, policy).values[0, start]),
                    frozenset(goal_set(inst, policy, start).members()),
                )
                for policy in enumerate_policies(inst, inst.horizon)
            ]
            targets = {goal for _, goal in outcomes} | {frozenset([s]) for s in range(3)}
            cases.append((inst, start, sorted(targets, key=sorted), outcomes))
    return cases


# Every nonempty subset of three states.
EVERY_TARGET = [frozenset(c) for n in (1, 2, 3) for c in itertools.combinations(range(3), n)]


def _best(outcomes, members, mode, strict=False):
    """The best value among outcomes whose goal meets the target, or None."""
    values = []
    for value, goal in outcomes:
        inner, outer = (goal, members) if mode == "reach" else (members, goal)
        if inner < outer or (not strict and inner == outer):
            values.append(value)
    return max(values, default=None)


def test_search_matches_brute_force_on_sparse_sweep(sparse_sweep):
    # The fixture's outcomes, one evaluate_policy and goal_set per
    # enumerated policy, are the reference the batched oracle must equal.
    for inst, start, targets, outcomes in sparse_sweep:
        for members in targets:
            target = GoalSet.from_states(members, 3)
            for mode, brute in (("reach", brute_force_reach), ("cover", brute_force_cover)):
                expected = brute(inst, start, target, inst.horizon)
                best = _best(outcomes, members, mode)
                assert best == (None if expected is None else expected.value)
    total_targets = 0
    for inst, start, targets, outcomes in sparse_sweep:
        for members in targets:
            total_targets += 1
            target = GoalSet.from_states(members, 3)
            for mode in ("reach", "cover"):
                result = gds_search(inst, GdsConfig(start=start, target=target, mode=mode))
                best = _best(outcomes, members, mode)
                assert result.found == (best is not None)
                if best is None:
                    continue
                assert abs(result.value - best) <= 1e-9
                if mode == "reach":
                    assert result.goal.issubset(target)
                else:
                    assert target.issubset(result.goal)
    assert total_targets >= 100


def test_strict_search_matches_proper_inclusion_enumeration(sparse_sweep):
    searches = 0
    for inst, start, targets, outcomes in sparse_sweep:
        for members in targets:
            target = GoalSet.from_states(members, 3)
            for mode in ("reach", "cover"):
                best = _best(outcomes, members, mode, strict=True)
                result = gds_search(inst, GdsConfig(
                    start=start, target=target, mode=mode, strict_subset=True
                ))
                searches += 1
                assert result.found == (best is not None)
                if best is not None:
                    assert abs(result.value - best) <= 1e-9
    assert searches >= 600


def test_root_verdict_agrees_with_enumeration(sparse_sweep):
    # A verdict must be right; for reach it must also be given on every
    # infeasible query.  Cover only uses a necessary condition.
    verdicts = {}
    for inst, start, _, outcomes in sparse_sweep:
        for members in EVERY_TARGET:
            target = GoalSet.from_states(members, 3)
            for mode in ("reach", "cover"):
                for strict in (False, True):
                    proved = target_unreachable(inst, start, target, mode, strict)
                    infeasible = _best(outcomes, members, mode, strict) is None
                    if proved:
                        assert infeasible
                    elif mode == "reach":
                        assert not infeasible
                    verdicts[mode, strict] = verdicts.get((mode, strict), 0) + proved
    assert all(verdicts[key] > 0 for key in itertools.product(("reach", "cover"), (False, True)))


def test_tiny_mass_counts_toward_the_goal_set():
    # State 0 always leads to state 1 too, with mass 1e-13, which is still
    # mass: every goal set holds state 1, so reach {0} is impossible.
    P = np.zeros((2, 2, 2))
    P[0, :] = [1 - 1e-13, 1e-13]
    P[1, :] = [0.0, 1.0]
    inst = DmdpInstance(
        num_states=2, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
        transition=P, reward=np.full((2, 2, 2), -0.5), sign_mode="nonpositive",
    )
    target = GoalSet.from_states([0], 2)
    assert target_unreachable(inst, 0, target)
    drained = gds_search(inst, GdsConfig(start=0, target=target, verify=True))
    assert not drained.found and drained.nodes_popped > 0
    assert brute_force_reach(inst, 0, target, inst.horizon) is None


def leaky_chain_instance(p):
    """State 0 moves to state 1, or to state 2 with probability p; state 2
    moves to state 1, or to state 3 with probability p; states 1 and 3
    absorb.  Every two-step policy from state 0 puts mass p * p on state 3,
    whose computed value is 0 when it underflows."""
    P = np.zeros((4, 2, 4))
    P[0, :] = [0.0, 1 - p, p, 0.0]
    P[2, :] = [0.0, 1 - p, 0.0, p]
    P[1, :, 1] = P[3, :, 3] = 1.0
    reward = np.full((2, 4, 2), -0.5)
    reward[:, :, 1] = -0.25
    return DmdpInstance(
        num_states=4, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
        transition=P, reward=reward, sign_mode="nonpositive",
    )


# p * p underflows to 0 at 1e-170 and 1e-200.  sqrt(tiny) is 2 ** -511, so
# one ulp below it p * p is subnormal, and one ulp above it is normal.
_SQRT_TINY = np.sqrt(np.finfo(np.float64).tiny)
UNDERFLOW_PS = [1e-170, 1e-200, np.nextafter(_SQRT_TINY, 0.0), np.nextafter(_SQRT_TINY, 1.0)]


def test_root_verdict_holds_where_a_path_mass_underflows(tmp_path, capsys):
    # State 3 is structurally reachable in two steps whatever p * p
    # computes to, so no policy ends inside {1}: every solver says so.
    target = GoalSet.from_states([1], 4)
    assert UNDERFLOW_PS[2] ** 2 < _SQRT_TINY**2 <= UNDERFLOW_PS[3] ** 2
    for i, p in enumerate(UNDERFLOW_PS):
        inst = leaky_chain_instance(p)
        assert target_unreachable(inst, 0, target)
        assert brute_force_reach(inst, 0, target, inst.horizon) is None
        for verify in (False, True):
            result = gds_search(inst, GdsConfig(start=0, target=target, verify=verify))
            # Verify mode drains all 1 + 2 + 2 * 4 nodes.
            assert not result.found and result.nodes_popped == (11 if verify else 0)
        path = tmp_path / f"chain-{i}.json"
        save(inst, path)
        assert main(["solve-reach", str(path), "--start", "0", "--target", "1"]) == 2
        assert json.loads(capsys.readouterr().out)["result"]["found"] is False


@pytest.mark.parametrize("p", UNDERFLOW_PS)
def test_search_oracles_and_root_verdict_agree_where_path_masses_underflow(p):
    # Every nonempty target of the leaky chain, both modes, strict and not,
    # verify on and off.  The reference is one goal_set and evaluate_policy
    # per policy; brute force must match it where it applies (not strict).
    inst = leaky_chain_instance(p)
    outcomes = [
        (float(evaluate_policy(inst, policy).values[0, 0]),
         frozenset(goal_set(inst, policy, 0).members()))
        for policy in enumerate_policies(inst, inst.horizon)
    ]
    # The two-step goal sets hold state 3, though its computed mass is 0
    # for the first two values of p.
    assert {goal for _, goal in outcomes} == {frozenset([1, 2]), frozenset([1, 3])}
    for n in (1, 2, 3, 4):
        for members in itertools.combinations(range(4), n):
            target = GoalSet.from_states(members, 4)
            for mode, strict in itertools.product(("reach", "cover"), (False, True)):
                best = _best(outcomes, set(members), mode, strict)
                if target_unreachable(inst, 0, target, mode, strict):
                    assert best is None
                elif mode == "reach":
                    assert best is not None
                if not strict:
                    brute = (brute_force_reach if mode == "reach" else brute_force_cover)(
                        inst, 0, target, inst.horizon)
                    assert (None if brute is None else brute.value) == best
                    if brute is not None:
                        goal = goal_set(inst, brute.policy, 0)
                        assert brute.goal == goal and satisfies(goal.mask, target.mask, mode)
                for verify in (False, True):
                    result = gds_search(inst, GdsConfig(
                        start=0, target=target, mode=mode, strict_subset=strict, verify=verify
                    ))
                    assert result.found == (best is not None)
                    if result.found:
                        assert abs(result.value - best) <= 1e-12
                        if not strict:
                            assert (result.policy, result.value) == (brute.policy, brute.value)
                        goal = goal_set(inst, result.policy, 0)
                        assert result.goal == goal
                        assert satisfies(goal.mask, target.mask, mode, strict)


# ---------------------------------------------------------------------------
# Goal sets past 64 states: masks are Python ints, on the same code path


def padded(inst, num_states, labels=None):
    """inst with its states relabelled (kept by default) among num_states
    states; every other state absorbs under each action, at reward 0."""
    A = inst.num_actions
    labels = np.arange(inst.num_states) if labels is None else np.asarray(labels)
    P = np.zeros((num_states, A, num_states))
    P[np.arange(num_states), :, np.arange(num_states)] = 1.0
    P[labels] = 0.0
    P[np.ix_(labels, range(A), labels)] = inst.transition
    reward = np.zeros((inst.horizon, num_states, A))
    reward[:, labels] = inst.reward
    return dataclasses.replace(inst, num_states=num_states, transition=P, reward=reward)


@pytest.mark.parametrize("num_states", [4, 80])
def test_support_of_is_the_goal_set_less_what_underflows(num_states):
    # The float support of the chain's final distribution loses state 3
    # where p * p underflows to 0, and is the goal set everywhere else.  At
    # 80 states the chain's states 1 and 3 are relabelled 70 and 79.
    labels = [0, 1, 2, 3] if num_states == 4 else [0, 70, 2, 79]
    underflows = 0
    for p in UNDERFLOW_PS + [0.25]:
        inst = padded(leaky_chain_instance(p), num_states, labels)
        policy = TimeVaryingPolicy.from_actions(np.zeros((2, num_states), dtype=int))
        support = support_of(propagate(inst, policy, 0)[-1])
        goal = goal_set(inst, policy, 0)
        assert goal.members() == (labels[1], labels[3])
        if p * p == 0.0:
            underflows += 1
            assert support.members() == (labels[1],) and support.is_proper_subset(goal)
        else:
            assert support == goal
    assert underflows == 2


@pytest.mark.parametrize("num_states", [70, 200])
def test_padded_search_gives_the_answer_of_its_three_states(num_states):
    # The absorbing states that pad a 3-state instance are never reached
    # from states 0-2, so every search keeps its answer, its counters and
    # its policy on states 0-2, with action 0 on the padding.
    searches = pruned = 0
    for seed in (0, 1):
        small = sparse_instance(seed, 3, 2, 4, 0.1)
        wide = padded(small, num_states)
        for start, k in itertools.product(range(3), (1, 2, 3)):
            for members, mode, verify in itertools.product(
                itertools.combinations(range(3), k), ("reach", "cover"), (False, True)
            ):
                expected, result = (
                    gds_search(inst, GdsConfig(
                        start=start, target=GoalSet.from_states(members, inst.num_states),
                        mode=mode, verify=verify))
                    for inst in (small, wide)
                )
                searches += 1
                pruned += expected.nodes_pruned
                assert (result.found, result.value, result.nodes_popped, result.nodes_pruned) == (
                    expected.found, expected.value, expected.nodes_popped, expected.nodes_pruned)
                if expected.found:
                    assert result.goal.members() == expected.goal.members()
                    assert result.policy.rules == tuple(
                        rule + (0,) * (num_states - 3) for rule in expected.policy.rules)
    assert searches == 168 and pruned > 0


def test_wide_one_action_search_equals_brute_force():
    # One action over 70 states: state 0 splits between states 1 and 65,
    # which move on to state 2 and to states 66 and 69; every other state
    # absorbs.  Goal sets hold states on both sides of bit 64.
    rng = np.random.default_rng(5)
    P = np.zeros((70, 1, 70))
    P[np.arange(70), 0, np.arange(70)] = 1.0
    P[[0, 1, 65]] = 0.0
    P[0, 0, [1, 65]] = [0.25, 0.75]
    P[1, 0, 2] = 1.0
    P[65, 0, [66, 69]] = [0.5, 0.5]
    inst = DmdpInstance(
        num_states=70, num_actions=1, horizon=3, gamma=0.5, r_max=1.0,
        transition=P, reward=-rng.uniform(0.0, 1.0, (3, 70, 1)), sign_mode="nonpositive",
    )
    assert realizable_goal_sets(inst, 0, 3) == (
        GoalSet.from_states([1, 65], 70), GoalSet.from_states([2, 66, 69], 70))
    found = 0
    for members in ([1, 65], [2, 66, 69], [2, 5, 66, 69], [1], [65], [66], [2, 69]):
        target = GoalSet.from_states(members, 70)
        for mode, brute in (("reach", brute_force_reach), ("cover", brute_force_cover)):
            expected = brute(inst, 0, target, inst.horizon)
            result = gds_search(inst, GdsConfig(start=0, target=target, mode=mode, verify=True))
            assert result.found == (expected is not None)
            if expected is not None:
                found += 1
                assert (result.policy, result.value, result.goal) == expected
    assert found == 9


def tiny_mass_instance():
    """From state 0 every action puts mass 1e-13 on state 1, tiny but not
    zero, and the rest on state 2; the next step sends everything to state
    3.  State 1's action 1 is free where action 0 costs 1, so the best
    two-step policy takes action 1 on state 1 at epoch 1."""
    P = np.zeros((4, 2, 4))
    P[0, :] = [0.0, 1e-13, 1 - 1e-13, 0.0]
    P[1:, :, 3] = 1.0
    reward = np.full((2, 4, 2), -0.5)
    reward[:, :, 1] = -0.6
    reward[:, 1] = [-1.0, 0.0]
    return DmdpInstance(
        num_states=4, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
        transition=P, reward=reward, sign_mode="nonpositive",
    )


def test_rules_are_collapsed_on_exact_zeros_not_below_the_threshold():
    inst = tiny_mass_instance()
    target = GoalSet.from_states([3], 4)
    for mode, brute in (("reach", brute_force_reach), ("cover", brute_force_cover)):
        result = gds_search(inst, GdsConfig(start=0, target=target, mode=mode, verify=True))
        expected = brute(inst, 0, target, inst.horizon)
        assert result.found and result.policy == expected.policy
        assert result.value == expected.value
        assert result.goal == expected.goal == target
        assert result.policy.rules == ((0, 0, 0, 0), (0, 1, 0, 0))


def test_root_expands_one_rule_per_action_at_the_start():
    inst = sparse_instance(3, 3, 3, 3)
    for start in range(3):
        result = gds_search(inst, GdsConfig(
            start=start, target=GoalSet.full(3), trace=True
        ))
        assert result.trace[0]["event"] == "pop" and result.trace[0]["depth"] == 0
        root = []
        for event in result.trace[1:]:
            if event["event"] == "pop":
                break
            if event["event"] == "push":
                root.append(event["rule"])
        assert [rule[start] for rule in root] == [0, 1, 2]
        assert all(a == 0 for rule in root for s, a in enumerate(rule) if s != start)


def masks_above_1e_12(dists):
    """A mutant of support_masks that drops entries at or below 1e-12.  The
    search builds its successor masks with it, so they miss the 1e-13
    transitions below."""
    return composition.support_masks(np.where(np.asarray(dists) > 1e-12, dists, 0.0))


def test_verify_mode_catches_a_collapse_on_the_support_threshold(monkeypatch):
    # Successor masks that drop transitions at or below 1e-12 give goal
    # masks without state 1, which hold mass 1e-13 there: the search would
    # select rules by that threshold instead of the structural support,
    # skip state 1's free action at epoch 1 and return a worse policy.
    inst = tiny_mass_instance()
    target = GoalSet.from_states([3], 4)
    best = brute_force_reach(inst, 0, target, inst.horizon)
    monkeypatch.setattr(gds, "support_masks", masks_above_1e_12)
    mutated = gds_search(inst, GdsConfig(start=0, target=target))
    assert mutated.found and mutated.value < best.value
    with pytest.raises(QueueInvariantViolation, match="one per class"):
        gds_search(inst, GdsConfig(start=0, target=target, verify=True))


def test_verify_mode_catches_a_goal_mask_off_the_exact_zeros(monkeypatch):
    # From state 0, action 1 (cheaper) sends everything to state 2 and
    # action 0 leaks 1e-13 onto state 1; states 1-3 then move to state 3
    # whatever they play.  Under the mutant's successor masks both children
    # of the root have goal mask {2}, and the second reuses the first's
    # expansion: its children are bit-equal anyway, so only the check that
    # its mass outside the goal mask is exactly 0.0 shows that the classes
    # are wrong.
    P = np.zeros((4, 2, 4))
    P[0, 0] = [0.0, 1e-13, 1 - 1e-13, 0.0]
    P[0, 1] = [0.0, 0.0, 1.0, 0.0]
    P[1:, :, 3] = 1.0
    reward = np.full((2, 4, 2), -0.5)
    reward[0, 0, 1] = -0.25
    inst = DmdpInstance(
        num_states=4, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
        transition=P, reward=reward, sign_mode="nonpositive",
    )
    config = GdsConfig(start=0, target=GoalSet.from_states([3], 4), verify=True)
    expected = gds_search(inst, config)
    monkeypatch.setattr(gds, "support_masks", masks_above_1e_12)
    assert gds_search(inst, dataclasses.replace(config, verify=False)) == expected
    with pytest.raises(QueueInvariantViolation, match="one per class"):
        gds_search(inst, config)


def test_verify_mode_drains_and_checks_the_root_verdict(monkeypatch):
    inst = pruning_instance()
    unreachable = GdsConfig(start=0, target=GoalSet.from_states([1], 2), verify=True)
    drained = gds_search(inst, unreachable)
    assert not drained.found and drained.nodes_popped > 1
    # A verdict that wrongly rules out a feasible target is caught.
    monkeypatch.setattr(gds, "target_unreachable", lambda *args: True)
    feasible = GdsConfig(start=0, target=GoalSet.full(2))
    assert not gds_search(inst, feasible).found
    with pytest.raises(QueueInvariantViolation, match="proved unreachable"):
        gds_search(inst, dataclasses.replace(feasible, verify=True))


def test_every_prune_is_justified_by_set_semantics(sparse_sweep):
    # On the sweep every prune comes from an infeasible search, which the
    # root verdict now answers without popping.  Four-epoch instances with
    # gamma 0.1 add feasible searches on which pruning fires: seeds 0-9 in
    # reach and non-strict cover, seed 30 from start 2 in strict cover.
    # Where the root verdict leaves them open, they run again in verify
    # mode, whose own set-semantics check must pass each prune and leave
    # the answer, counters and trace as they were.
    cases = [(inst, start, targets, False) for inst, start, targets, _ in sparse_sweep]
    cases += [(sparse_instance(seed, 3, 2, 4, 0.1), start, EVERY_TARGET, True)
              for seed in range(10) for start in range(3)]
    cases.append((sparse_instance(30, 3, 2, 4, 0.1), 2, EVERY_TARGET, True))
    prunes = {}
    verified_prunes = {}
    for inst, start, targets, reverify in cases:
        for members in targets:
            target = GoalSet.from_states(members, 3)
            for mode in ("reach", "cover"):
                for strict in (False, True):
                    config = GdsConfig(start=start, target=target, mode=mode,
                                       strict_subset=strict, trace=True)
                    result = gds_search(inst, config)
                    events = [e for e in result.trace if e["event"] == "prune"]
                    assert len(events) == result.nodes_pruned
                    prunes[mode, strict] = prunes.get((mode, strict), 0) + len(events)
                    if reverify and not target_unreachable(inst, start, target, mode, strict):
                        verified = gds_search(inst, dataclasses.replace(config, verify=True))
                        assert verified == result
                        verified_prunes[mode, strict] = (
                            verified_prunes.get((mode, strict), 0) + verified.nodes_pruned
                        )
                    for e in events:
                        node, record = set(e["goal"]), set(e["record_goal"])
                        inner, outer = (record, node) if mode == "reach" else (node, record)
                        assert inner < outer if strict else inner <= outer
                        assert e["value"] <= e["record_value"] - e["epsilon"]
                        assert e["epsilon"] == epsilon(inst, e["depth"])
    assert prunes["reach", False] > 0
    assert prunes["reach", True] > 0
    assert prunes["cover", False] > 0
    assert prunes["cover", True] > 0
    assert verified_prunes == {("reach", False): 84, ("reach", True): 58,
                               ("cover", False): 21, ("cover", True): 4}


# The non-strict queries of the 3x2x4 gamma-0.1 family, (seed, start, mode,
# target), on which the search, through unsound epsilon pruning, returns a
# policy that brute force beats.  A sound search empties this set; no
# change may grow it.
KNOWN_WRONG = {
    (0, 2, "reach", (1, 2)),
    (1, 0, "reach", (2,)),
    (1, 0, "reach", (1, 2)),
    *((1, 0, "cover", target) for target in ((1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2))),
}


def test_search_is_wrong_exactly_on_the_known_queries():
    oracles = {"reach": brute_force_reach, "cover": brute_force_cover}
    wrong = set()
    for seed in range(4):
        inst = sparse_instance(seed, 3, 2, 4, 0.1)
        for start, members, mode in itertools.product(range(3), EVERY_TARGET, oracles):
            target = GoalSet.from_states(list(members), 3)
            result = gds_search(inst, GdsConfig(start=start, target=target, mode=mode))
            best = oracles[mode](inst, start, target, inst.horizon)
            assert result.found == (best is not None)
            if result.found and abs(result.value - best.value) > 1e-9:
                assert result.value < best.value
                wrong.add((seed, start, mode, tuple(sorted(members))))
    assert wrong == KNOWN_WRONG


# ---------------------------------------------------------------------------
# strictness switch


def test_strict_subset_changes_termination():
    inst = absorbing_instance()  # every goal set is exactly {1}
    singleton = GoalSet.from_states([1], 2)
    pair = GoalSet.full(2)

    # reach: {1} == {1} passes non-strict, fails strict.
    assert gds_search(inst, GdsConfig(start=0, target=singleton)).found
    assert not gds_search(
        inst, GdsConfig(start=0, target=singleton, strict_subset=True)
    ).found
    # reach with a wider target: {1} is a proper subset of {0,1}.
    strict_hit = gds_search(
        inst, GdsConfig(start=0, target=pair, strict_subset=True)
    )
    assert strict_hit.found and strict_hit.goal.members() == (1,)

    # cover: goal {1} contains target {1} non-strictly only.
    assert gds_search(inst, GdsConfig(start=0, target=singleton, mode="cover")).found
    assert not gds_search(
        inst, GdsConfig(start=0, target=singleton, mode="cover", strict_subset=True)
    ).found


# ---------------------------------------------------------------------------
# guards


def test_node_budget_exhaustion_raises():
    inst = pruning_instance()
    # Met at depth one, so the second pop, a child, passes the budget.
    config = GdsConfig(start=0, target=GoalSet.full(2), node_budget=1)
    with pytest.raises(NodeBudgetExceeded) as exc:
        gds_search(inst, config)
    assert exc.value.budget == 1


def test_narrow_nodes_are_searchable_when_the_rule_table_is_not():
    # 3^8 = 6,561 rules exceed the cap, but these searches only expand
    # nodes whose goal sets hold at most 7 states, so no node needs that many.
    inst = sparse_instance(2, 8, 3, 4, 0.3)
    assert inst.num_actions**inst.num_states > RULE_ENUMERATION_CAP
    for start, states in ((0, range(8)), (2, range(4)), (7, range(4, 8))):
        target = GoalSet.from_states(list(states), 8)
        for mode in ("reach", "cover"):
            result = gds_search(inst, GdsConfig(
                start=start, target=target, mode=mode, verify=True
            ))
            assert result.found
            exact = evaluate_policy(inst, result.policy).values[0, start]
            assert abs(result.value - exact) <= 1e-10
            inner, outer = (result.goal, target) if mode == "reach" else (target, result.goal)
            assert inner.issubset(outer)


def test_a_wide_node_raises_before_its_children_are_built():
    # Dense kernels: every node below the root has all 8 states in its goal set.
    # The root verdict proves reach {0} absent; verify mode searches past
    # it, so it reaches the first wide node.
    inst = generate(1, 8, 3, 12, 0.5)
    target = GoalSet.from_states([0], 8)
    proved = gds_search(inst, GdsConfig(start=0, target=target))
    assert not proved.found and proved.nodes_popped == 0
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapExceeded) as exc:
            gds_search(inst, GdsConfig(start=0, target=target, verify=True))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.required == 6561 and exc.value.cap == RULE_ENUMERATION_CAP
    assert peak < 1 << 20
    # Cover is met by a child of the root, before any wide node expands.
    cover = gds_search(inst, GdsConfig(start=0, target=target, mode="cover"))
    assert cover.found and cover.nodes_popped == 2


def test_search_requires_nonpositive_rewards():
    base = generate(3, 2, 2, 2, 0.5)
    reward = base.reward.copy()
    reward[0, 0, 0] = 0.5
    bad = DmdpInstance(
        num_states=2, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
        transition=base.transition, reward=reward,
    )
    with pytest.raises(InstanceValidationError):
        gds_search(bad, GdsConfig(start=0, target=GoalSet.full(2)))


def test_config_validation():
    with pytest.raises(ValueError):
        GdsConfig(start=0, target=GoalSet.from_states([], 2))
    with pytest.raises(ValueError):
        GdsConfig(start=0, target=GoalSet.full(2), mode="sideways")
    with pytest.raises(ValueError):
        GdsConfig(start=0, target=GoalSet.full(2), node_budget=0)
    inst = generate(0, 2, 2, 2, 0.5)
    with pytest.raises(ValueError):
        gds_search(inst, GdsConfig(start=5, target=GoalSet.full(2)))
    with pytest.raises(ValueError):
        gds_search(inst, GdsConfig(start=0, target=GoalSet.full(3)))


def test_search_is_deterministic_including_trace():
    inst = sparse_instance(7)
    config = GdsConfig(start=1, target=GoalSet.from_states([0, 1], 3), trace=True)
    assert gds_search(inst, config) == gds_search(inst, config)


# ---------------------------------------------------------------------------
# bit-exact regression pin


def _canonical(x):
    if x is None or isinstance(x, (bool, str)):
        return x
    if isinstance(x, float):
        return float(x).hex()
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (tuple, list)):
        return [_canonical(v) for v in x]
    if isinstance(x, dict):
        return [[k, _canonical(v)] for k, v in x.items()]
    raise TypeError(f"unexpected {type(x).__name__} in search output")


def _pin_searches():
    for seed in range(5):
        yield generate(seed, 3, 2, 3, 0.5), 0, GoalSet.full(3), ("reach", "cover")
    for seed in range(10):
        inst = sparse_instance(seed)
        for start in (0, 2):
            for s in range(3):
                yield inst, start, GoalSet.from_states([s], 3), ("reach", "cover")
    # Summing the child rewards over a contiguous copy of the reward rows
    # changes a returned value here.
    yield sparse_instance(0, 4, 2, 4, 0.3), 0, GoalSet.from_states([0], 4), ("reach",)


def _answer(r):
    """A search's answer alone: what a node-count change must not move."""
    return [
        r.found,
        r.policy.rules if r.found else None,
        r.value.hex() if r.found else None,
        r.goal.mask if r.found else None,
    ]


def _answers_digest(searches):
    """sha256 over the answers of (instance, start, target, modes), in
    both modes given and with strict inclusion off and on; and the count."""
    h = hashlib.sha256()
    count = 0
    for inst, start, target, modes in searches:
        for mode in modes:
            for strict in (False, True):
                r = gds_search(inst, GdsConfig(
                    start=start, target=target, mode=mode, strict_subset=strict,
                ))
                h.update(json.dumps(_canonical(_answer(r))).encode() + b"\n")
                count += 1
    return h.hexdigest(), count


def _sweep_searches():
    # Shapes with 27 and 16 rules per node, from every start, to every
    # target of one state and every target of all states but one.
    for shape in ((3, 3, 3), (4, 2, 4)):
        S = shape[0]
        targets = [GoalSet.from_states([s], S) for s in range(S)]
        targets += [GoalSet.from_states([x for x in range(S) if x != s], S) for s in range(S)]
        for seed in range(10):
            inst = sparse_instance(seed, *shape)
            for start in range(S):
                for target in targets:
                    yield inst, start, target, ("reach", "cover")


PINNED_ANSWERS_SHA256 = "ef50f7f9b062b059b161778a5b1414dd5cf5679ebc24328d895040c0836d866c"
PINNED_SWEEP_ANSWERS_SHA256 = "dc6c4f18a676a6f59cf511ebea85daa20ba5ab68fd5ba9b7356c7a0dde5fdddf"


def test_pinned_search_answers_are_unchanged():
    """The answers alone of the 262 pinned searches: found, policy
    encoding, value bits and goal mask, without counters or trace."""
    assert _answers_digest(_pin_searches()) == (PINNED_ANSWERS_SHA256, 262)


def test_sparse_sweep_answers_are_pinned():
    assert _answers_digest(_sweep_searches()) == (PINNED_SWEEP_ANSWERS_SHA256, 2000)


PINNED_SEARCH_SHA256 = "9cddbb6b8b8efa52df62978c00699060728ff0041c7229c58ed27374bfc1dffc"


def test_search_output_is_bit_identical_to_pinned_hash():
    """Hash every search's answer, counters and full trace, floats as hex.

    The digest was first recorded with the one-rule-at-a-time search that
    the batched expansion replaced, and recorded again when the 126
    infeasible searches here began to be proved at the root (counters 0, a
    one-event trace); the found-search pin below held across that change.
    Both were recorded again when each class of rules with bit-identical
    children began to be expanded once: counters and traces moved, and the
    answer pins above held.
    Like the benchmark's golden answers, it is tied to the rounding of the
    numpy/BLAS dot products it was recorded with (numpy 2.4 with OpenBLAS
    on x86_64): another BLAS may change the last bit of a value without
    anything being wrong.
    """
    h = hashlib.sha256()
    searches = 0
    for inst, start, target, modes in _pin_searches():
        for mode in modes:
            for strict in (False, True):
                r = gds_search(inst, GdsConfig(
                    start=start, target=target, mode=mode,
                    strict_subset=strict, trace=True,
                ))
                record = _answer(r) + [r.nodes_popped, r.nodes_pruned, list(r.trace)]
                h.update(json.dumps(_canonical(record)).encode() + b"\n")
                searches += 1
    assert searches == 262
    assert h.hexdigest() == PINNED_SEARCH_SHA256


PINNED_FOUND_SHA256 = "6f5bec88654e45a11f4adb85e4d23c0db837afc8b60824c577d948c289102fcb"


def test_found_searches_are_bit_identical_to_pinned_hash():
    """Hash the answer of every pinned search, and the counters and full
    trace of each one that finds a policy.

    Unlike the hash above, searches that find nothing contribute only their
    answer, so this pin holds for any change that proves a target
    unreachable without popping but leaves feasible searches alone.
    """
    h = hashlib.sha256()
    searches = found = 0
    for inst, start, target, modes in _pin_searches():
        for mode in modes:
            for strict in (False, True):
                r = gds_search(inst, GdsConfig(
                    start=start, target=target, mode=mode,
                    strict_subset=strict, trace=True,
                ))
                record = _answer(r)
                if r.found:
                    record += [r.nodes_popped, r.nodes_pruned, list(r.trace)]
                    found += 1
                h.update(json.dumps(_canonical(record)).encode() + b"\n")
                searches += 1
    assert searches == 262 and found == 136
    assert h.hexdigest() == PINNED_FOUND_SHA256


PINNED_VERIFY_SHA256 = "802b82a3fa280a4574e8cf030197bc5266eebaeb55044edb10b8b3e18f2226c5"


def test_verified_searches_are_bit_identical_to_pinned_hash():
    """Hash the answer, counters and full trace of every pinned search in
    verify mode, which also drains the 126 searches whose targets the root
    verdict proves unreachable.  Verify mode only checks: this pin was
    recorded with the one evaluate_policy call per pushed child that the
    batched backward pass replaced."""
    h = hashlib.sha256()
    searches = drained = 0
    for inst, start, target, modes in _pin_searches():
        for mode in modes:
            for strict in (False, True):
                r = gds_search(inst, GdsConfig(
                    start=start, target=target, mode=mode,
                    strict_subset=strict, trace=True, verify=True,
                ))
                record = _answer(r) + [r.nodes_popped, r.nodes_pruned, list(r.trace)]
                h.update(json.dumps(_canonical(record)).encode() + b"\n")
                searches += 1
                drained += r.trace[-1]["reason"] == "queue-exhausted"
    assert searches == 262 and drained == 126
    assert h.hexdigest() == PINNED_VERIFY_SHA256
