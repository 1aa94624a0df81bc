"""Best-first search over one-step policy extensions for goal-set planning.

The search answers: from a start state, which policy of length 1..horizon
maximizes value subject to a constraint on its goal set (the support of
its final state distribution)?  Two modes:

  reach: the goal set must be contained in the target (the policy is
         guaranteed to end inside the target), and
  cover: the goal set must contain the target (every target state stays
         possible at the end).

Nodes are policies; a node's children append one decision rule.  Because
rewards are nonpositive, extending a policy never raises its value, so a
max-value priority queue pops candidates in non-increasing value order,
and without pruning the first popped node satisfying the goal constraint
would be optimal.  But the search prunes.  The first node expanded with
a given goal set records the best of its children's values, fixed from
then on.  A popped node is dropped unexpanded when a recorded goal set
lies inside its own (reach) or around it (cover) and its value is at
most that record less epsilon(depth), a slack meant to bound what any
continuation can still add.  Records are keyed by goal set alone, across
depths, so a record made at one depth does not bound a node at another:
pruning can drop the prefix of the optimal policy and return a worse
policy than brute force (ROADMAP item 3; the strict xfail
test_pruning_keeps_the_best_cover_on_sparse_3x2x4 reproduces it).
Before the first pop, a target that the kernel's structure alone proves
unreachable (composition.target_unreachable) is answered without
searching.

Rules that differ only on states where a node's distribution has exactly
zero mass give bit-identical children, so each such class of rules is
expanded once, through its canonical member: the rule taking action 0 on
every zero-mass state.  It is first of its class in rule order, and each
skipped twin would pop after it (same value and depth, later path), so
the returned policy, value and tie-breaks are those of expanding every
rule.  A node's nonzero states are its goal set, so its A^|goal set|
children come from its goal mask alone, never from all A^S rules; past
RULE_ENUMERATION_CAP they raise EnumerationCapExceeded.  nodes_popped and
nodes_pruned count canonical nodes only.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .bellman import _rule_kernel, _rule_rewards, evaluate_extensions
from .composition import (
    GoalSet,
    check_query,
    satisfies,
    support_masks,
    support_of,
    target_unreachable,
)
from .core import (
    RULE_ENUMERATION_CAP,
    DmdpError,
    DmdpInstance,
    EnumerationCapExceeded,
    TimeVaryingPolicy,
    validate,
)

# The benchmark's tracer (perfbench/tracing.py) wraps this name on this
# module, so it stays importable here though the search does not call it.
from .bellman import evaluate_policy  # noqa: F401

DEFAULT_NODE_BUDGET = 10**6

# Tolerance for the queue-value invariant checked in verify mode.
QUEUE_VALUE_TOL = 1e-10

SearchMode = Literal["reach", "cover"]


class NodeBudgetExceeded(DmdpError):
    """The search popped more nodes than the configured budget allows."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"search exceeded its node budget of {budget} pops")


class QueueInvariantViolation(DmdpError):
    """Verify mode found a node value disagreeing with exact evaluation."""


def _twins(instance: DmdpInstance, rows: list, zero: np.ndarray):
    """Whether `rows` are every rule playing action 0 on the `zero` states,
    once each and in rule order; and the kernels and reward rows of their
    twins that play b on those states, one batch per action b != 0."""
    acts = np.array(rows)
    complete = (len(rows) == instance.num_actions ** int((~zero).sum())
                and not acts[:, zero].any() and rows == sorted(set(rows)))
    twin_acts = np.repeat(acts[None], instance.num_actions - 1 if zero.any() else 0, axis=0)
    twin_acts[:, :, zero] = np.arange(1, len(twin_acts) + 1)[:, None, None]
    twin_acts = twin_acts.reshape(-1, instance.num_states)
    return complete, _rule_kernel(instance, twin_acts), _rule_rewards(instance, twin_acts)


def epsilon(instance: DmdpInstance, t: int) -> float:
    """Pruning slack at depth t.

    Bounds the discounted value any continuation after epoch t can still
    contribute, for |reward| <= r_max:
    r_max/(1-gamma) * sum_{i>=t} gamma^i  =  r_max * gamma^t / (1-gamma)^2.
    """
    if t < 0:
        raise ValueError("depth must be >= 0")
    return instance.r_max * instance.gamma**t / (1.0 - instance.gamma) ** 2


@dataclass(frozen=True)
class GdsConfig:
    """Search parameters.

    strict_subset switches composition.satisfies, the goal constraint that
    serves both termination (a node against the target) and pruning (a
    record against a node), from subset-or-equal to proper subset.
    verify re-derives every pushed node's value by exact backward
    induction and checks the pop order.  An expansion's children share
    their path up to the last rule, so one batched backward pass
    (bellman.evaluate_extensions) values them all, bit-equal to
    evaluate_policy on each.  Verify mode also searches targets proved
    unreachable at the root, and checks that the drain finds nothing.  It
    also re-derives each expansion's classes from exact zeros (dist == 0.0),
    and checks that each expanded rule's twins, which play one action b != 0
    on every zero-mass state, give children with bit-equal values and
    distributions.
    """

    start: int
    target: GoalSet
    mode: SearchMode = "reach"
    strict_subset: bool = False
    trace: bool = False
    verify: bool = False
    node_budget: int = DEFAULT_NODE_BUDGET

    def __post_init__(self):
        if self.mode not in ("reach", "cover"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.target.is_empty:
            raise ValueError("target goal set must be nonempty")
        if self.node_budget < 1:
            raise ValueError("node_budget must be >= 1")


@dataclass(frozen=True)
class GdsResult:
    found: bool
    policy: TimeVaryingPolicy | None
    value: float | None
    goal: GoalSet | None
    nodes_popped: int
    nodes_pruned: int
    trace: tuple[dict, ...] | None = None


def gds_search(instance: DmdpInstance, config: GdsConfig) -> GdsResult:
    """Run the search; see the module docstring for semantics.

    Requires a nonpositive-reward instance (the optimality argument needs
    values to be non-increasing along extensions).  Raises
    NodeBudgetExceeded when the pop count would pass config.node_budget;
    a drained queue instead returns found=False.  So does a target that
    composition.target_unreachable proves unreachable before the first
    pop: nothing is popped, and the trace is one terminate event.
    """
    validate(instance, sign_mode="nonpositive").require(
        "search requires a valid nonpositive-reward instance"
    )
    check_query(instance, config.start, config.target)

    S, A = instance.num_states, instance.num_actions
    mode, strict = config.mode, config.strict_subset
    # Per goal mask, filled on first use: the canonical rules, their
    # kernels and their reward rows [epoch, rule], whose strided rows BLAS
    # sums in another order than contiguous ones, so a copy would move last
    # bits (the pinned-hash test in test_gds.py shows it); in verify mode,
    # also the _twins tables.
    expansions: dict[int, tuple] = {}
    twins: dict[int, tuple] = {}

    def members(mask: int) -> tuple[int, ...]:
        return GoalSet(mask, S).members()

    events: list[dict] | None = [] if config.trace else None
    root_dist = np.zeros(S)
    root_dist[config.start] = 1.0
    # A target proved unreachable at the root leaves nothing to search;
    # verify mode searches anyway and checks the proof against the drain.
    unreachable = target_unreachable(instance, config.start, config.target, mode, strict)
    skip = unreachable and not config.verify
    # Max-value queue with deterministic ties: shallower first, then
    # lexicographic on the path (the policy's rules), which is rule
    # order.  Paths are distinct, so the order is total.
    heap = [] if skip else [(-0.0, 0, (), support_of(root_dist).mask, root_dist)]
    # Per goal-set mask, the best child value of the first expanded node
    # that carries it; fixed from then on.
    records: dict[int, float] = {}
    nodes_popped = 0
    nodes_pruned = 0
    last_value = np.inf
    found = False

    while heap:
        neg_value, depth, path, mask, dist = heapq.heappop(heap)
        value = -neg_value
        nodes_popped += 1
        if nodes_popped > config.node_budget:
            raise NodeBudgetExceeded(config.node_budget)
        if events is not None:
            events.append({"event": "pop", "depth": depth, "value": value,
                           "goal": members(mask), "policy": path})
        if config.verify and value > last_value + 1e-12:
            raise QueueInvariantViolation(f"pop values increased: {value!r} after {last_value!r}")
        last_value = value

        # The empty root never counts as a result: constrained policies
        # have length >= 1 by definition.
        if depth >= 1 and satisfies(mask, config.target.mask, mode, strict):
            found = True
            break

        if depth == instance.horizon:
            if events is not None:
                events.append({"event": "cutoff", "depth": depth, "policy": path})
            continue

        eps_t = epsilon(instance, depth)
        # A rival record's goal set lies inside this node's for reach,
        # around it for cover.
        rival = next((m for m in records
                      if satisfies(m, mask, mode, strict) and value <= records[m] - eps_t), None)
        if rival is not None:
            nodes_pruned += 1
            recorded = records[rival]
            if events is not None:
                events.append({"event": "prune", "depth": depth, "value": value,
                               "goal": members(mask), "record_goal": members(rival),
                               "record_value": recorded, "epsilon": eps_t})
            if config.verify:
                # Re-justify with set semantics on the members, not the
                # loop's own bit test.
                node_set, record_set = set(members(mask)), set(members(rival))
                inner, outer = (
                    (record_set, node_set) if mode == "reach" else (node_set, record_set)
                )
                if not (inner < outer if strict else inner <= outer) or value > recorded - eps_t:
                    raise QueueInvariantViolation(f"unjustified prune at depth {depth}")
            continue

        # Expand one rule per class at once: the children's distributions,
        # values and goal sets, in rule order.  Rules that agree on the goal
        # set give bit-identical children: validate keeps every entry of P
        # and R finite, so the other states contribute exact zeros.
        if mask not in expansions:
            required = A ** mask.bit_count()
            if required > RULE_ENUMERATION_CAP:
                raise EnumerationCapExceeded(required=required, cap=RULE_ENUMERATION_CAP)
            rows = list(itertools.product(*[range(A) if mask >> s & 1 else (0,)
                                            for s in range(S)]))
            expansions[mask] = rows, _rule_kernel(instance, rows), _rule_rewards(instance, rows)
        rows, kernels, rewards = expansions[mask]
        child_dists = dist @ kernels
        child_values = value + instance.gamma**depth * np.vecdot(rewards[depth], dist)
        if config.verify:
            # Re-derive the classes from exact zeros, not from the mask.  Once
            # they match it, the first node's tables for this mask hold.
            zero = dist == 0.0
            if mask not in twins:
                twins[mask] = _twins(instance, rows, zero)
            complete, twin_kernels, twin_rewards = twins[mask]
            twin_values = value + instance.gamma**depth * np.vecdot(twin_rewards[depth], dist)
            copies = len(twin_kernels) // len(rows)
            if not (complete and int(support_masks(~zero)) == mask
                    and (dist @ twin_kernels).tobytes() == child_dists.tobytes() * copies
                    and twin_values.tobytes() == child_values.tobytes() * copies):
                raise QueueInvariantViolation(
                    f"expanded rules {rows} are not one per class of rules "
                    f"with bit-equal children at depth {depth}"
                )
        child_values = child_values.tolist()
        child_masks = support_masks(child_dists).tolist()
        # Verify mode's exact values come from one backward pass over the
        # instance alone: none of the arrays above may feed it.  Without
        # verify, the queued values fill the slot and go unchecked.
        exact_values = (
            evaluate_extensions(instance, path, rows, np.zeros((1, S)))[:, config.start].tolist()
            if config.verify else child_values
        )
        for rule, child_value, child_mask, child_dist, exact in zip(
            rows, child_values, child_masks, child_dists, exact_values
        ):
            child_path = path + (rule,)
            heapq.heappush(heap, (-child_value, depth + 1, child_path, child_mask, child_dist))
            if events is not None:
                events.append({"event": "push", "depth": depth + 1, "value": child_value,
                               "goal": members(child_mask), "rule": rule})
            if config.verify and abs(child_value - exact) > QUEUE_VALUE_TOL:
                raise QueueInvariantViolation(
                    f"queued value {child_value!r} != exact value {exact!r} "
                    f"for policy {child_path}"
                )
        if mask not in records:
            records[mask] = max(child_values)
            if events is not None:
                events.append({"event": "record", "goal": members(mask), "value": records[mask]})

    # After a break, value, depth, path and mask describe the winning node.
    if found and unreachable:
        raise QueueInvariantViolation(
            f"found policy {path} for a target proved unreachable"
        )
    if events is not None:
        events.append(
            {"event": "terminate", "reason": "goal-constraint-met", "depth": depth, "value": value}
            if found
            else {"event": "terminate",
                  "reason": "target-unreachable" if skip else "queue-exhausted"}
        )
    return GdsResult(
        found=found,
        policy=TimeVaryingPolicy(path) if found else None,
        value=value if found else None,
        goal=GoalSet(mask, S) if found else None,
        nodes_popped=nodes_popped,
        nodes_pruned=nodes_pruned,
        trace=tuple(events) if events is not None else None,
    )
