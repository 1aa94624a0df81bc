"""Core model types: finite-horizon MDPs with time-varying rewards.

An instance bundles a time-homogeneous transition kernel with one reward
table per epoch.  Policies are finite sequences of decision rules, each a
tuple of actions with one action per state, so a policy of length n
controls epochs 0..n-1 of the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Literal

import numpy as np

# Tolerance for transition rows summing to one.  Loaded files round-trip
# decimal text, so row sums can be off by a few ulp.
STOCHASTIC_TOL = 1e-9

# Default ceiling on the decision rules enumerated at once.
RULE_ENUMERATION_CAP = 4096

SignMode = Literal["any", "nonpositive"]


class DmdpError(Exception):
    """Base class for errors raised by this package."""


class EnumerationCapExceeded(DmdpError):
    """Enumerating decision rules, all |A|^|S| of them or one search node's
    |A|^|nonzero states|, would exceed the configured cap."""

    def __init__(self, required: int, cap: int):
        self.required = required
        self.cap = cap
        super().__init__(
            f"enumerating decision rules requires {required} rules, "
            f"exceeding the cap of {cap}"
        )


class InstanceValidationError(DmdpError):
    """An instance failed validation where a valid one is required."""

    def __init__(self, report: "ValidationReport", context: str = ""):
        self.report = report
        head = context or "instance failed validation"
        lines = [
            f"{rule} at {loc}: {value!r}" for rule, loc, value in report.violations[:8]
        ]
        if len(report.violations) > 8:
            lines.append(f"... and {len(report.violations) - 8} more")
        super().__init__(head + ": " + "; ".join(lines))


@dataclass(frozen=True, eq=False)
class DmdpInstance:
    """A finite-horizon MDP with a stationary kernel and per-epoch rewards.

    transition has shape (num_states, num_actions, num_states); entry
    [s, a, s'] is the probability of moving to s' when playing a in s.
    reward has shape (horizon, num_states, num_actions).  r_max bounds
    |reward| and feeds the search pruning schedule.  sign_mode declares
    the intended reward sign regime ("nonpositive" for cost-style
    instances); it is an annotation checked by validate(), not enforced
    at construction.
    """

    num_states: int
    num_actions: int
    horizon: int
    gamma: float
    r_max: float
    transition: np.ndarray
    reward: np.ndarray
    sign_mode: SignMode = "any"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.num_states < 1 or self.num_actions < 1 or self.horizon < 1:
            raise ValueError("num_states, num_actions and horizon must be >= 1")
        transition = np.ascontiguousarray(self.transition, dtype=np.float64)
        reward = np.ascontiguousarray(self.reward, dtype=np.float64)
        expected_p = (self.num_states, self.num_actions, self.num_states)
        if transition.shape != expected_p:
            raise ValueError(
                f"transition shape {transition.shape} != expected {expected_p}"
            )
        expected_r = (self.horizon, self.num_states, self.num_actions)
        if reward.shape != expected_r:
            raise ValueError(f"reward shape {reward.shape} != expected {expected_r}")
        transition.setflags(write=False)
        reward.setflags(write=False)
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "r_max", float(self.r_max))


@dataclass(frozen=True)
class TimeVaryingPolicy:
    """A sequence of decision rules; rule i is played at the i-th epoch
    after the policy's placement time.  A decision rule is a tuple of
    actions, one per state, so `rules` is a pure-int tuple of tuples,
    usable as a deterministic sort key."""

    rules: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def is_empty(self) -> bool:
        return not self.rules

    def check_against(self, instance: DmdpInstance) -> None:
        if len(self.rules) > instance.horizon:
            raise ValueError(
                f"policy length {len(self.rules)} exceeds horizon {instance.horizon}"
            )
        for rule in self.rules:
            if len(rule) != instance.num_states:
                raise ValueError(
                    f"decision rule covers {len(rule)} states, "
                    f"instance has {instance.num_states}"
                )
            if min(rule) < 0 or max(rule) >= instance.num_actions:
                s, a = next((s, a) for s, a in enumerate(rule)
                            if not 0 <= a < instance.num_actions)
                raise ValueError(f"action {a} for state {s} out of range")

    @staticmethod
    def from_actions(actions) -> "TimeVaryingPolicy":
        """Build from an iterable of per-epoch action vectors."""
        return TimeVaryingPolicy(tuple(tuple(int(a) for a in row) for row in actions))


EMPTY_POLICY = TimeVaryingPolicy(())


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of validate(): the (rule, location, value) violations; ok
    when there are none."""

    violations: tuple[tuple[str, tuple, float], ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def require(self, context: str = "") -> None:
        """Raise InstanceValidationError, headed by context, unless ok."""
        if self.violations:
            raise InstanceValidationError(self, context)


def validate(instance: DmdpInstance, sign_mode: SignMode | None = None) -> ValidationReport:
    """Check model well-formedness; violations are data, not exceptions.

    Rules: every number is finite (a NaN or infinity is reported as
    non_finite in place of the other rules on that number); gamma in
    [0,1); r_max >= 0; every transition row is a distribution (entries in
    [0,1], sum within STOCHASTIC_TOL of 1); |reward| <= r_max; and, under
    sign_mode="nonpositive", reward <= 0.  sign_mode=None defers to the
    instance's declared sign_mode.
    """
    if sign_mode is None:
        sign_mode = instance.sign_mode
    if sign_mode not in ("any", "nonpositive"):
        raise ValueError(f"unknown sign_mode {sign_mode!r}")
    violations: list[tuple[str, tuple, float]] = []
    if not math.isfinite(instance.gamma):
        violations.append(("non_finite", (), instance.gamma))
    elif not 0.0 <= instance.gamma < 1.0:
        violations.append(("gamma_range", (), instance.gamma))
    if not math.isfinite(instance.r_max):
        violations.append(("non_finite", (), instance.r_max))
    elif instance.r_max < 0.0:
        violations.append(("r_max_nonnegative", (), instance.r_max))

    P, R = instance.transition, instance.reward
    with np.errstate(invalid="ignore"):
        totals = P.sum(axis=2)
    # A valid instance passes on whole-array reductions.  NaN fails every
    # comparison, so an instance with any violation, NaN or infinity
    # included, takes the per-cell masks below.
    if (
        not violations
        and 0.0 <= P.min()
        and P.max() <= 1.0
        and np.abs(totals - 1.0).max() <= STOCHASTIC_TOL
        and -instance.r_max <= R.min()
        and R.max() <= (0.0 if sign_mode == "nonpositive" else instance.r_max)
    ):
        return ValidationReport(())

    # Each rule is one mask; violations come out of np.flatnonzero over
    # masks stacked along a last axis, so C order reproduces the per-cell
    # order: a row's entries, then its stochasticity; a reward cell's
    # non_finite alone, else its bound, then its sign.
    S, A = instance.num_states, instance.num_actions
    finite = np.isfinite(P)
    checks = np.concatenate(
        [
            ~finite | (P < 0.0) | (P > 1.0),
            (np.abs(totals - 1.0) > STOCHASTIC_TOL)[:, :, None],
        ],
        axis=2,
    )
    for i in np.flatnonzero(checks).tolist():
        s, rest = divmod(i, A * (S + 1))
        a, sp = divmod(rest, S + 1)
        if sp == S:
            violations.append(("stochasticity", (s, a), float(totals[s, a])))
        else:
            p = float(P[s, a, sp])
            rule = "transition_range" if finite[s, a, sp] else "non_finite"
            violations.append((rule, (s, a, sp), p))

    finite = np.isfinite(R)
    rules = ("non_finite", "reward_bound", "reward_sign")
    checks = np.stack(
        [
            ~finite,
            finite & (np.abs(R) > instance.r_max),
            finite & (sign_mode == "nonpositive") & (R > 0.0),
        ],
        axis=3,
    )
    for i in np.flatnonzero(checks).tolist():
        cell, rule = divmod(i, 3)
        t, rest = divmod(cell, S * A)
        s, a = divmod(rest, A)
        violations.append((rules[rule], (t, s, a), float(R[t, s, a])))

    return ValidationReport(tuple(violations))


def make_static_gap_instance(gamma: float = 1.0 - 1e-9) -> DmdpInstance:
    """One state, two actions, two epochs, rewards swapping between epochs.

    The best static (rule repeated) policy earns 1, while alternating
    earns 1 + gamma: the canonical witness that time-varying policies
    strictly beat static ones under time-varying rewards.
    """
    transition = np.ones((1, 2, 1))
    reward = np.array([[[0.0, 1.0]], [[1.0, 0.0]]])
    return DmdpInstance(
        num_states=1,
        num_actions=2,
        horizon=2,
        gamma=gamma,
        r_max=1.0,
        transition=transition,
        reward=reward,
        sign_mode="any",
        metadata={"name": "static-gap"},
    )


def rule_actions(instance: DmdpInstance, rules) -> np.ndarray:
    """Action vectors (k, S) of the rules at the given indices.  Rule r is
    the r-th action vector in lexicographic order, so its actions are the
    base-|A| digits of r, state 0 most significant."""
    S, A = instance.num_states, instance.num_actions
    return np.asarray(rules, dtype=np.int64)[:, None] // A ** np.arange(S - 1, -1, -1) % A


def enumerate_decision_rules(
    instance: DmdpInstance, cap: int = RULE_ENUMERATION_CAP
) -> Iterator[tuple[int, ...]]:
    """Yield all |A|^|S| decision rules in lexicographic order of their
    state-indexed action vectors.  Raises EnumerationCapExceeded first if
    the count would exceed cap."""
    required = instance.num_actions**instance.num_states
    if required > cap:
        raise EnumerationCapExceeded(required=required, cap=cap)
    for actions in rule_actions(instance, np.arange(required)).tolist():
        yield tuple(actions)
