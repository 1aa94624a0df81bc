"""Policy composition, state-distribution propagation, and goal sets.

The goal set of a policy from a start state is the support of the state
distribution at the policy's final epoch — the set of states the policy
can land in.  It is structural: with succ = support_masks(transition),
the (S, A) masks of each state-action pair's successors (entries > 0),
the goal set starts as {start}, and each rule maps a set to the OR of
succ[s, rule[s]] over its states s.  Floats never enter it, so it is
exactly the states that positive-probability paths reach, even where
such a path's computed mass underflows to 0.0.  Every state outside it
has mass exactly 0.0, so the computed distribution's nonzero states lie
inside it.

`satisfies` is the goal constraint that the search, the oracles and
target_unreachable share: reach wants the goal set inside the target,
cover around it.  `check_query` checks a query's start state and target.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .bellman import evaluate_policy, _rule_kernel
from .core import DmdpInstance, TimeVaryingPolicy

# States are packed into an int bitmask; beyond this width the encoding
# (and exhaustive goal-set reasoning generally) stops being sensible.
MAX_MASK_STATES = 64


@dataclass(frozen=True)
class GoalSet:
    """An immutable set of states, encoded as a bitmask over state ids."""

    mask: int
    num_states: int

    def __post_init__(self):
        if not 1 <= self.num_states <= MAX_MASK_STATES:
            raise ValueError(
                f"goal sets support 1..{MAX_MASK_STATES} states, got {self.num_states}"
            )
        if not 0 <= self.mask < (1 << self.num_states):
            raise ValueError(f"mask {self.mask:#x} out of range for {self.num_states} states")

    @classmethod
    def from_states(cls, states, num_states: int) -> "GoalSet":
        mask = 0
        for s in states:
            s = int(s)
            if not 0 <= s < num_states:
                raise ValueError(f"state {s} out of range for {num_states} states")
            mask |= 1 << s
        return cls(mask, num_states)

    @classmethod
    def full(cls, num_states: int) -> "GoalSet":
        return cls((1 << num_states) - 1, num_states)

    def members(self) -> tuple[int, ...]:
        return tuple(s for s in range(self.num_states) if self.mask >> s & 1)

    def __contains__(self, state: int) -> bool:
        return 0 <= state < self.num_states and bool(self.mask >> state & 1)

    def __len__(self) -> int:
        return bin(self.mask).count("1")

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def issubset(self, other: "GoalSet") -> bool:
        self._check_same_space(other)
        return includes(self.mask, other.mask)

    def is_proper_subset(self, other: "GoalSet") -> bool:
        self._check_same_space(other)
        return includes(self.mask, other.mask, strict=True)

    def union(self, other: "GoalSet") -> "GoalSet":
        self._check_same_space(other)
        return GoalSet(self.mask | other.mask, self.num_states)

    def _check_same_space(self, other: "GoalSet") -> None:
        if self.num_states != other.num_states:
            raise ValueError("goal sets over different state spaces")


def includes(inner, outer, strict: bool = False):
    """Whether state bitmask inner is a subset of outer, a proper one when
    strict.  On ints, or elementwise on uint64 masks."""
    return ((inner & ~outer) == 0) & ((inner != outer) | (not strict))


def satisfies(goal, target, mode: str, strict: bool = False):
    """Whether goal set `goal` meets `target` under the search's goal
    constraint: inside it for reach, around it for cover, properly so when
    strict.  On int masks, or elementwise on uint64 masks."""
    return includes(goal, target, strict) if mode == "reach" else includes(target, goal, strict)


def check_query(instance: DmdpInstance, start: int, target: GoalSet | None = None) -> None:
    """Raise ValueError unless start is a state of the instance and target,
    when given, is a goal set over its states."""
    if not 0 <= start < instance.num_states:
        raise ValueError(f"start state {start} out of range")
    if target is not None and target.num_states != instance.num_states:
        raise ValueError("target goal set is over a different state space")


@functools.cache
def _state_bits(num_states: int) -> np.ndarray:
    bits = np.left_shift(np.uint64(1), np.arange(num_states, dtype=np.uint64))
    bits.flags.writeable = False
    return bits


def support_masks(dists: np.ndarray) -> np.ndarray:
    """Bitmask (uint64) of the states carrying any mass, for each
    distribution along the last axis."""
    dists = np.asarray(dists)
    return (dists > 0.0) @ _state_bits(dists.shape[-1])


def support_of(dist: np.ndarray) -> GoalSet:
    """States whose computed mass is > 0.0.  For a policy's final
    distribution this lies inside its goal set, and equals it unless a
    path's mass underflows to 0.0."""
    dist = np.asarray(dist)
    return GoalSet(int(support_masks(dist)), dist.shape[0])


def _child_masks(succ: np.ndarray, masks, actions) -> np.ndarray:
    """Goal masks one rule later: for each mask in `masks` and each rule in
    `actions`, an (R, S) array of action vectors, the OR of the successor
    masks succ[s, rule[s]] over the states s in the mask.  Shape
    masks.shape + (R,)."""
    num_states = succ.shape[0]
    taken = succ[np.arange(num_states), actions]
    inside = (np.asarray(masks, dtype=np.uint64)[..., None, None] & _state_bits(num_states)) != 0
    return np.bitwise_or.reduce(taken * inside, axis=-1)


def target_unreachable(
    instance: DmdpInstance,
    start: int,
    target: GoalSet,
    mode: str = "reach",
    strict: bool = False,
) -> bool:
    """Whether the kernel's structure proves that no policy of length
    1..horizon from start has a goal set inside target (reach) or around
    it (cover), properly so when strict.  For reach the test is exact;
    for cover, False gives no verdict.

    Goal sets do not depend on value, and a decision rule picks one action
    per state, so with supp P[s, a] the structural support (entries > 0):

    reach: the states from which some policy ends inside G_0 = target
      after exactly k steps are G_k = {s : some supp P[s, a] lies inside
      G_{k-1}}.  A goal set is a proper subset of the target iff it lies
      inside the target less one of its members, so strict reach runs that
      test once per member.  Goal sets are these same structural
      supports, so False means that some policy meets the constraint.
    cover: a goal set after k steps lies inside R_k, the states that some
      actions reach from start in exactly k steps, so the target must lie
      inside R_k (properly when strict) for some k.  This is a necessary
      condition only.
    """
    num_states, horizon = instance.num_states, instance.horizon
    structural = instance.transition > 0
    states = np.arange(num_states)
    if mode == "cover":
        successors, bits = structural.any(axis=1), _state_bits(num_states)
        reachable = states == start
        for _ in range(horizon):
            reachable = reachable @ successors
            if satisfies(int(reachable @ bits), target.mask, "cover", strict):
                return False
        return True
    in_target = np.array([s in target for s in range(num_states)])
    insides = [in_target & (states != t) for t in target.members()] if strict else [in_target]
    for goals in insides:
        for _ in range(horizon):
            # Some action keeps every successor of s inside goals.
            goals = ~(structural @ ~goals).all(axis=1)
            if goals[start]:
                return False
    return True


def concat(
    first: TimeVaryingPolicy,
    second: TimeVaryingPolicy,
    horizon: int | None = None,
) -> TimeVaryingPolicy:
    """Play `first` to completion, then `second`.

    The empty policy is the identity on either side.  If horizon is
    given, a combined length beyond it is an error.
    """
    combined = TimeVaryingPolicy(first.rules + second.rules)
    if horizon is not None and len(combined) > horizon:
        raise ValueError(
            f"concatenated length {len(combined)} exceeds horizon {horizon}"
        )
    return combined


def truncate(policy: TimeVaryingPolicy, length: int) -> TimeVaryingPolicy:
    """Keep only the first `length` rules."""
    if not 0 <= length <= len(policy):
        raise ValueError(f"cannot truncate length-{len(policy)} policy to {length}")
    return TimeVaryingPolicy(policy.rules[:length])


def propagate(
    instance: DmdpInstance, policy: TimeVaryingPolicy, start: int
) -> np.ndarray:
    """State distributions along a policy from a point mass at `start`.

    Returns an array of len(policy) + 1 rows; row i is the distribution
    at epoch i (row 0 is the point mass itself).
    """
    policy.check_against(instance)
    check_query(instance, start)
    dists = np.zeros((len(policy) + 1, instance.num_states))
    dists[0, start] = 1.0
    for i, rule in enumerate(policy.rules):
        dists[i + 1] = dists[i] @ _rule_kernel(instance, rule)
    return dists


def goal_set(instance: DmdpInstance, policy: TimeVaryingPolicy, start: int) -> GoalSet:
    """Support of the final state distribution of a nonempty policy: the
    states its positive-probability paths from start reach, propagated
    through the successor masks (see the module docstring)."""
    if policy.is_empty:
        raise ValueError("goal set requires a policy of length >= 1")
    policy.check_against(instance)
    check_query(instance, start)
    succ = support_masks(instance.transition)
    mask = 1 << start
    for rule in policy.rules:
        mask = _child_masks(succ, mask, [rule])[0]
    return GoalSet(int(mask), instance.num_states)


def concat_value_check(
    instance: DmdpInstance,
    first: TimeVaryingPolicy,
    second: TimeVaryingPolicy,
    t: int,
    start: int,
) -> tuple[float, float]:
    """Both sides of the concatenation value identity, for comparison.

    lhs: value of concat(first, second) at epoch t from `start`, read off
    the backward-induction table of the whole concatenation.

    rhs: the split form.  With n1 = len(first), for t < n1 it is
        V_t(first) + gamma^(n1-t) * E[V_0'(s_n1)]
    where V_0' values `second` placed at epoch n1 and s_n1 is drawn from
    the concatenation's distribution at epoch n1; for t >= n1 it is the
    tail value V_(t-n1)'(s_t) at the current state, i.e. its expectation
    under a point mass — both cases reduce to one expectation formula.
    """
    n1 = len(first)
    combined = concat(first, second, horizon=instance.horizon)
    if not 0 <= t < len(combined):
        raise ValueError(f"epoch {t} outside the concatenation's span")
    lhs = float(evaluate_policy(instance, combined).values[t, start])

    second_vals = evaluate_policy(instance, second, start_time=n1).values
    if t < n1:
        first_vals = evaluate_policy(instance, first).values
        # Distribution at epoch n1 conditioned on being at `start` at epoch t:
        # propagate the remaining first-part rules from a point mass (the
        # kernel is time-homogeneous, so placement does not matter here).
        tail = TimeVaryingPolicy(first.rules[t:])
        cond = propagate(instance, tail, start)[-1]
        rhs = float(
            first_vals[t, start]
            + instance.gamma ** (n1 - t) * float(cond @ second_vals[0])
        )
    else:
        rhs = float(second_vals[t - n1, start])
    return lhs, rhs
