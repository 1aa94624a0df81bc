"""Exact finite-horizon value computation and dynamic Bellman operators.

All values are expected discounted sums of the time-varying rewards.
Backward induction over the (epoch, state) grid is exact here — there is
no iterative approximation in the finite-horizon setting — so the value
operator's contraction property and the policy operator's improvement
property are numerical identities up to float rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import DmdpInstance, DmdpError, TimeVaryingPolicy

# Sup-norm change below which policy iteration declares a fixed point.
CONVERGENCE_TOL = 1e-12


class ConvergenceError(DmdpError):
    """Policy iteration hit max_iters without reaching a fixed point."""


@dataclass(frozen=True)
class ValueTable:
    """Values on the (epoch, state) grid.

    Row t holds the value of being in each state at epoch t; the final
    row is the terminal anchor and is identically zero (no reward is
    collected at or after the end of the table's span).
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[0] < 1:
            raise ValueError(f"value table must be 2-D with >= 1 row, got {values.shape}")
        if np.any(values[-1] != 0.0):
            raise ValueError("terminal row of a value table must be zero")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_rows(self) -> int:
        return self.values.shape[0]


def sup_distance(a: ValueTable, b: ValueTable) -> float:
    """Sup-norm distance over the whole grid (the contraction metric)."""
    if a.values.shape != b.values.shape:
        raise ValueError(f"shape mismatch {a.values.shape} vs {b.values.shape}")
    return float(np.max(np.abs(a.values - b.values)))


def q_values(instance: DmdpInstance, next_values: np.ndarray, t: int) -> np.ndarray:
    """One-step lookahead at epoch t against the epoch-(t+1) value row.

    Returns the (num_states, num_actions) matrix
    q[s][a] = reward[t][s][a] + gamma * sum_s' transition[s][a][s'] * next_values[s'].
    """
    next_values = np.asarray(next_values, dtype=np.float64)
    if next_values.shape != (instance.num_states,):
        raise ValueError(
            f"next_values shape {next_values.shape} != ({instance.num_states},)"
        )
    if not 0 <= t < instance.horizon:
        raise ValueError(f"epoch {t} outside horizon {instance.horizon}")
    return _q(instance, next_values, t)


def _q(instance: DmdpInstance, next_values: np.ndarray, t: int) -> np.ndarray:
    return instance.reward[t] + instance.gamma * (instance.transition @ next_values)


def _lookahead(instance: DmdpInstance, values: np.ndarray, out: np.ndarray, reduce=None):
    """For each epoch t from the last down to 0, out[t] = the lookahead q_t
    against the row values[t + 1], or reduce(q_t, axis=1).  out may be
    values itself: row t + 1 is then written before row t reads it, which
    is backward induction.  Returns out."""
    for t in reversed(range(instance.horizon)):
        q = _q(instance, values[t + 1], t)
        out[t] = q if reduce is None else reduce(q, axis=1)
    return out


def _actions(instance: DmdpInstance, policy: TimeVaryingPolicy, length: int) -> np.ndarray:
    """The policy's rules as one (length, S) int array, padded with
    action-0 rules.  The policy must pass check_against."""
    acts = np.zeros((length, instance.num_states), np.intp)
    if policy.rules:
        acts[: len(policy)] = policy.rules
    return acts


def _evaluate(instance: DmdpInstance, acts: np.ndarray, start_time: int = 0) -> np.ndarray:
    """Backward induction of the rules acts (n, S) placed at start_time:
    the (n + 1, S) value rows.  The rewards are gathered in one indexing
    op.  Each epoch's kernel is one take of rows of the (S * A, S) view of
    the transition: the C-contiguous (S, S) matrix that _rule_kernel
    builds, so each matrix-vector product has the bits of the product
    with _rule_kernel's matrix."""
    n, S = acts.shape
    rows = np.arange(0, S * instance.num_actions, instance.num_actions) + acts
    flat = instance.transition.reshape(-1, S)
    rewards = instance.reward.reshape(instance.horizon, -1)[
        np.arange(start_time, start_time + n)[:, None], rows]
    values = np.zeros((n + 1, S))
    for i in reversed(range(n)):
        values[i] = rewards[i] + instance.gamma * (flat.take(rows[i], axis=0) @ values[i + 1])
    return values


def _rule_kernel(instance: DmdpInstance, actions) -> np.ndarray:
    """Row-stochastic kernel matrix under a rule's action vector, or one
    matrix per rule for a stack of action vectors of shape (..., S)."""
    idx = np.arange(instance.num_states)
    return instance.transition[idx, np.asarray(actions), :]


def _rule_rewards(instance: DmdpInstance, actions, t=slice(None)) -> np.ndarray:
    """Reward vector at epoch t under a rule's action vector, or one row
    per rule for a stack of action vectors of shape (..., S).  Without t,
    the rows of every epoch, with the epochs on the leading axis."""
    idx = np.arange(instance.num_states)
    return instance.reward[t, idx, np.asarray(actions)]


def _backup(gamma: float, rewards: np.ndarray, kernels: np.ndarray, values: np.ndarray):
    """One backward step of evaluate_policy, r + gamma * (P @ v), for every
    (rule, value row) pair: (k, S) rewards and (k, S, S) kernels against
    (B, S) values give (k * B, S) values, rule-major.  Each product is one
    matrix-vector product, as in evaluate_policy, so the bits are its."""
    after = (kernels[:, None] @ values[None, :, :, None])[..., 0]
    return (rewards[:, None, :] + gamma * after).reshape(-1, values.shape[1])


def evaluate_policy(
    instance: DmdpInstance, policy: TimeVaryingPolicy, start_time: int = 0
) -> ValueTable:
    """Exact value of a policy by backward induction.

    The returned table has len(policy) + 1 rows; row i is the value of
    being in each state just before the policy's i-th rule fires, and the
    final row is zero.  start_time places the policy at a later epoch of
    the instance: rule i then collects reward row start_time + i, which
    is what composition needs when valuing a suffix policy on its own.
    """
    policy.check_against(instance)
    n = len(policy)
    if start_time < 0 or start_time + n > instance.horizon:
        raise ValueError(
            f"policy of length {n} at start_time {start_time} overruns "
            f"horizon {instance.horizon}"
        )
    return ValueTable(_evaluate(instance, _actions(instance, policy, n), start_time))


def evaluate_extensions(instance: DmdpInstance, prefix, rules, tail) -> np.ndarray:
    """Exact values of the policies prefix + (rule,) + suffix: `prefix`
    holds the action vectors (n, S) of the shared first n rules, `rules`
    the action vectors (k, S) played at epoch n, and `tail` the value rows
    (B, S) of the B suffixes from epoch n + 1 (one zero row for no suffix).

    One backward pass serves all k * B policies: a _backup of the rules
    against the tail, then one per prefix epoch from n - 1 down to 0.
    Returns the (k * B, S) rows, rule-major; row i * B + b is bit-equal to
    evaluate_policy(...).values[0] of the policy with rule i and suffix b.
    """
    n = len(prefix)
    values = _backup(instance.gamma, _rule_rewards(instance, rules, n),
                     _rule_kernel(instance, rules), tail)
    for t in reversed(range(n)):
        actions = prefix[t]
        values = _backup(instance.gamma, _rule_rewards(instance, actions, t)[None],
                         _rule_kernel(instance, actions)[None], values)
    return values


def bellman_value_operator(instance: DmdpInstance, values: ValueTable) -> ValueTable:
    """Dynamic Bellman backup: maximize the one-step lookahead at every
    epoch, anchoring on the input's epoch-(t+1) row.  The terminal row is
    copied unchanged.  A gamma-contraction in sup_distance."""
    if values.num_rows != instance.horizon + 1:
        raise ValueError(
            f"value table has {values.num_rows} rows, expected horizon+1 = "
            f"{instance.horizon + 1}"
        )
    return ValueTable(_lookahead(instance, values.values, np.zeros_like(values.values), np.ndarray.max))


def optimal_values(instance: DmdpInstance) -> ValueTable:
    """The optimal value table V*, by exact backward induction."""
    values = np.zeros((instance.horizon + 1, instance.num_states))
    return ValueTable(_lookahead(instance, values, values, np.ndarray.max))


def q_tables(instance: DmdpInstance, values: ValueTable) -> np.ndarray:
    """The one-step lookahead of every epoch, stacked: q[t, s, a]."""
    if values.num_rows != instance.horizon + 1:
        raise ValueError("q_tables requires a full-horizon value table")
    shape = (instance.horizon, instance.num_states, instance.num_actions)
    return _lookahead(instance, values.values, np.empty(shape))


def greedy_policy(instance: DmdpInstance, values: ValueTable) -> TimeVaryingPolicy:
    """Full-horizon policy that argmaxes the lookahead against `values`
    at every epoch.  Ties break toward the lowest action index."""
    return _policy(q_tables(instance, values).argmax(axis=2))


def _policy(acts: np.ndarray) -> TimeVaryingPolicy:
    return TimeVaryingPolicy(tuple(map(tuple, acts.tolist())))


def pad_policy(instance: DmdpInstance, policy: TimeVaryingPolicy) -> TimeVaryingPolicy:
    """Extend a short policy to the full horizon with action-0 rules."""
    policy.check_against(instance)
    filler = (0,) * instance.num_states
    return TimeVaryingPolicy(policy.rules + (filler,) * (instance.horizon - len(policy)))


def bellman_policy_operator(
    instance: DmdpInstance, policy: TimeVaryingPolicy
) -> TimeVaryingPolicy:
    """Greedy improvement: act greedily against the policy's own values.

    Policies shorter than the horizon are padded with action-0 rules
    before evaluation.  The result never does worse than the (padded)
    input at any (epoch, state), up to rounding.
    """
    padded = pad_policy(instance, policy)
    return greedy_policy(instance, evaluate_policy(instance, padded))


class PolicyIterationResult(NamedTuple):
    policy: TimeVaryingPolicy
    values: ValueTable
    iterations: int


def policy_iteration(
    instance: DmdpInstance,
    init: TimeVaryingPolicy,
    max_iters: int | None = None,
) -> PolicyIterationResult:
    """Iterate greedy improvement from `init` until values stop changing.

    The finite horizon guarantees convergence within
    horizon * num_states * num_actions improvements; exceeding max_iters
    therefore signals a bug and raises ConvergenceError.
    """
    if max_iters is None:
        max_iters = instance.horizon * instance.num_states * instance.num_actions + 1
    if max_iters < 1:
        raise ValueError("max_iters must be >= 1")
    init.check_against(instance)
    values = _evaluate(instance, _actions(instance, init, instance.horizon))
    q = np.empty((instance.horizon, instance.num_states, instance.num_actions))
    for iteration in range(1, max_iters + 1):
        acts = _lookahead(instance, values, q).argmax(axis=2)
        new_values = _evaluate(instance, acts)
        if np.max(np.abs(new_values - values)) < CONVERGENCE_TOL:
            return PolicyIterationResult(_policy(acts), ValueTable(new_values), iteration)
        values = new_values
    raise ConvergenceError(
        f"policy iteration did not converge within {max_iters} iterations"
    )
