"""Exhaustive brute-force baselines for cross-checking the solvers.

Everything here enumerates whole policy spaces, so it is only usable on
tiny instances; the budget guard makes the blowup explicit instead of
letting a call run forever.

The oracles do not loop over policies one at a time.  They evaluate every
policy of one length n together, in blocks of at most POLICY_BLOCK
policies taken in enumeration order (shortest first, rules in
lexicographic order within a length), so memory stays bounded whatever
the budget allows.  A block's goal masks are built forward from the mask
its shared prefix reaches, through the kernel's successor masks as
composition.goal_set builds them, and its values backward from the
values of the shared suffixes by bellman.evaluate_extensions, one
matrix-vector product per rule.  evaluate_policy computes the same
products in the same order for a single policy, so every value is
bit-equal to its, and every goal set equals goal_set's.  Ties keep the
earliest policy in enumeration order.
"""

from __future__ import annotations

import itertools
from typing import Iterator, NamedTuple

import numpy as np

from .bellman import _backup, _rule_kernel, _rule_rewards, evaluate_extensions
from .composition import GoalSet, _child_masks, check_query, satisfies, support_masks
from .core import (
    DmdpError,
    DmdpInstance,
    EnumerationCapExceeded,
    TimeVaryingPolicy,
    enumerate_decision_rules,
    rule_actions,
)

# The benchmark's tracer (perfbench/tracing.py) wraps these names on this
# module, so they stay importable here though the oracles do not call them.
from .bellman import evaluate_policy  # noqa: F401
from .composition import goal_set  # noqa: F401

DEFAULT_POLICY_BUDGET = 10**7

# Most policies whose distributions or values one array holds at once.
POLICY_BLOCK = 1 << 14


class OracleBudgetExceeded(DmdpError):
    def __init__(self, required: int, budget: int):
        self.required = required
        self.budget = budget
        super().__init__(
            f"enumeration requires {required} policies, exceeding the budget of {budget}"
        )


def count_policies(instance: DmdpInstance, max_len: int) -> int:
    """Number of policies of length 1..max_len: sum of |A|^(|S|*n)."""
    per_epoch = instance.num_actions**instance.num_states
    return sum(per_epoch**n for n in range(1, max_len + 1))


def _check_budget(instance: DmdpInstance, max_len: int, budget: int) -> None:
    if not 1 <= max_len <= instance.horizon:
        raise ValueError(f"max_len must be in 1..{instance.horizon}, got {max_len}")
    required = count_policies(instance, max_len)
    if required > budget:
        raise OracleBudgetExceeded(required=required, budget=budget)


def enumerate_policies(
    instance: DmdpInstance,
    max_len: int,
    budget: int = DEFAULT_POLICY_BUDGET,
) -> Iterator[TimeVaryingPolicy]:
    """Yield every policy of length 1..max_len, shortest first, rules in
    lexicographic order within a length.  Raises OracleBudgetExceeded
    before yielding anything if the total count exceeds the budget."""
    _check_budget(instance, max_len, budget)
    rules = list(enumerate_decision_rules(instance, cap=budget))
    for n in range(1, max_len + 1):
        for policy in itertools.product(rules, repeat=n):
            yield TimeVaryingPolicy(policy)


def _blocks(
    instance: DmdpInstance, n: int, start: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (index of the first policy, masks of the goal sets from
    `start`, value rows) for the policies of length n, in consecutive
    blocks of at most POLICY_BLOCK in enumeration order.

    A block fixes the rules of the first j epochs, takes a run of rules at
    epoch j, and takes every rule at the m = n - 1 - j epochs after it.
    """
    S, gamma = instance.num_states, instance.gamma
    R = instance.num_actions**S
    succ = support_masks(instance.transition)
    m = 0
    while m < n - 1 and R ** (m + 1) <= POLICY_BLOCK:
        m += 1
    j, width = n - 1 - m, min(R, POLICY_BLOCK // R**m)
    # Values of every rule sequence over the last m epochs, shared by all blocks.
    tail = np.zeros((1, S))
    if m:
        every = rule_actions(instance, np.arange(R))
        kernels = _rule_kernel(instance, every)
        for t in reversed(range(j + 1, n)):
            tail = _backup(gamma, _rule_rewards(instance, every, t), kernels, tail)
    for p, prefix in enumerate(itertools.product(range(R), repeat=j)):
        prefix = rule_actions(instance, prefix)
        mask = 1 << start
        for rule in prefix:
            mask = _child_masks(succ, mask, rule[None])[0]
        for lo in range(0, R, width):
            run = rule_actions(instance, np.arange(lo, min(lo + width, R)))
            masks = _child_masks(succ, mask, run)
            for _ in range(m):
                masks = _child_masks(succ, masks, every).reshape(-1)
            values = evaluate_extensions(instance, prefix, run, tail)
            yield (p * R + lo) * R**m, masks, values


def _policy_at(instance: DmdpInstance, n: int, index: int) -> TimeVaryingPolicy:
    """The policy of length n at `index` in enumeration order."""
    R = instance.num_actions**instance.num_states
    rules = [index // R ** (n - 1 - t) % R for t in range(n)]
    return TimeVaryingPolicy.from_actions(rule_actions(instance, rules))


class BruteForceResult(NamedTuple):
    policy: TimeVaryingPolicy
    value: float
    goal: GoalSet


def _brute_force(
    instance: DmdpInstance,
    start: int,
    target: GoalSet,
    max_len: int,
    budget: int,
    mode: str,
) -> BruteForceResult | None:
    check_query(instance, start, target)
    _check_budget(instance, max_len, budget)
    target_mask = np.uint64(target.mask)
    best = None
    for n in range(1, max_len + 1):
        for first, masks, values in _blocks(instance, n, start):
            ok = np.flatnonzero(satisfies(masks, target_mask, mode))
            if not ok.size:
                continue
            i = ok[np.argmax(values[ok, start])]
            # Strict improvement keeps the earliest policy among ties, which
            # matches the enumeration's canonical order; argmax does the
            # same within a block.
            if best is None or values[i, start] > best[0]:
                best = (values[i, start], n, first + int(i), int(masks[i]))
    if best is None:
        return None
    value, n, index, mask = best
    return BruteForceResult(
        _policy_at(instance, n, index), float(value), GoalSet(mask, instance.num_states)
    )


def brute_force_reach(
    instance: DmdpInstance,
    start: int,
    target: GoalSet,
    max_len: int,
    budget: int = DEFAULT_POLICY_BUDGET,
) -> BruteForceResult | None:
    """Best policy whose goal set is contained in the target, or None."""
    return _brute_force(instance, start, target, max_len, budget, "reach")


def brute_force_cover(
    instance: DmdpInstance,
    start: int,
    target: GoalSet,
    max_len: int,
    budget: int = DEFAULT_POLICY_BUDGET,
) -> BruteForceResult | None:
    """Best policy whose goal set contains the target, or None."""
    return _brute_force(instance, start, target, max_len, budget, "cover")


def brute_force_optimal_value(
    instance: DmdpInstance, budget: int = DEFAULT_POLICY_BUDGET
) -> np.ndarray:
    """Unconstrained optimum per start state over all full-horizon
    policies — the slow mirror of the backward-induction V* row 0."""
    per_epoch = instance.num_actions**instance.num_states
    if per_epoch > budget:
        raise EnumerationCapExceeded(required=per_epoch, cap=budget)
    if per_epoch**instance.horizon > budget:
        raise OracleBudgetExceeded(per_epoch**instance.horizon, budget)
    best = np.full(instance.num_states, -np.inf)
    # Value rows cover every start state; the goal masks go unused.
    for _, _, values in _blocks(instance, instance.horizon, 0):
        best = np.maximum(best, values.max(axis=0))
    return best


def realizable_goal_sets(
    instance: DmdpInstance,
    start: int,
    max_len: int,
    budget: int = DEFAULT_POLICY_BUDGET,
) -> tuple[GoalSet, ...]:
    """Every goal set realized by some policy of length 1..max_len from
    `start`, in first-realized order."""
    check_query(instance, start)
    _check_budget(instance, max_len, budget)
    seen: dict[int, None] = {}
    for n in range(1, max_len + 1):
        for _, masks, _ in _blocks(instance, n, start):
            found, first = np.unique(masks, return_index=True)
            seen.update(dict.fromkeys(found[np.argsort(first)].tolist()))
    return tuple(GoalSet(mask, instance.num_states) for mask in seen)
