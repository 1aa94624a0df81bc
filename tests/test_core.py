import hashlib
import itertools
import math

import numpy as np
import pytest

from dmdp import (
    DmdpInstance,
    EnumerationCapExceeded,
    InstanceValidationError,
    TimeVaryingPolicy,
    ValidationReport,
    enumerate_decision_rules,
    make_static_gap_instance,
    validate,
)
from dmdp.core import STOCHASTIC_TOL, rule_actions


def uniform_instance(num_states=2, num_actions=2, horizon=2, gamma=0.5, reward=None):
    if reward is None:
        reward = np.zeros((horizon, num_states, num_actions))
    return DmdpInstance(
        num_states=num_states,
        num_actions=num_actions,
        horizon=horizon,
        gamma=gamma,
        r_max=1.0,
        transition=np.full((num_states, num_actions, num_states), 1.0 / num_states),
        reward=np.asarray(reward, dtype=float),
    )


def test_construction_rejects_bad_shapes():
    with pytest.raises(ValueError):
        DmdpInstance(
            num_states=2, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
            transition=np.zeros((2, 2)), reward=np.zeros((2, 2, 2)),
        )
    with pytest.raises(ValueError):
        DmdpInstance(
            num_states=2, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
            transition=np.full((2, 2, 2), 0.5), reward=np.zeros((3, 2, 2)),
        )
    with pytest.raises(ValueError):
        DmdpInstance(
            num_states=0, num_actions=1, horizon=1, gamma=0.5, r_max=1.0,
            transition=np.zeros((0, 1, 0)), reward=np.zeros((1, 0, 1)),
        )


def test_arrays_are_frozen():
    inst = uniform_instance()
    with pytest.raises(ValueError):
        inst.transition[0, 0, 0] = 0.7
    with pytest.raises(ValueError):
        inst.reward[0, 0, 0] = -1.0


def test_validate_static_gap_sign_modes():
    inst = make_static_gap_instance()
    assert validate(inst, sign_mode="any").ok
    report = validate(inst, sign_mode="nonpositive")
    assert not report.ok
    locations = {loc for rule, loc, _ in report.violations if rule == "reward_sign"}
    # The two +1 rewards: action 1 at epoch 0, action 0 at epoch 1.
    assert locations == {(0, 0, 1), (1, 0, 0)}


def test_validation_report_ok_and_require_follow_its_violations():
    clean = validate(uniform_instance())
    assert clean.ok and clean.require("unused") is None
    broken = ValidationReport((("gamma_range", (), 1.5),))
    assert not broken.ok
    with pytest.raises(InstanceValidationError, match=r"^loading: gamma_range at \(\): 1\.5$"):
        broken.require("loading")
    with pytest.raises(InstanceValidationError, match="^instance failed validation: gamma_range"):
        broken.require()


def test_validate_defaults_to_declared_sign_mode():
    inst = uniform_instance(reward=np.full((2, 2, 2), 0.5))
    assert validate(inst).ok  # declared sign_mode is "any"
    assert not validate(inst, sign_mode="nonpositive").ok


def test_validate_locates_broken_row_sum():
    transition = np.full((2, 2, 2), 0.5)
    transition[0, 0] = [0.4, 0.5]
    inst = DmdpInstance(
        num_states=2, num_actions=2, horizon=1, gamma=0.5, r_max=1.0,
        transition=transition, reward=np.zeros((1, 2, 2)),
    )
    report = validate(inst)
    assert not report.ok
    bad = [v for v in report.violations if v[0] == "stochasticity"]
    assert len(bad) == 1
    assert bad[0][1] == (0, 0)
    assert bad[0][2] == pytest.approx(0.9)


def test_validate_flags_entry_range_and_gamma_and_bound():
    transition = np.full((2, 2, 2), 0.5)
    transition[1, 1] = [1.5, -0.5]
    reward = np.zeros((1, 2, 2))
    reward[0, 0, 0] = -2.5  # exceeds r_max
    inst = DmdpInstance(
        num_states=2, num_actions=2, horizon=1, gamma=1.0, r_max=1.0,
        transition=transition, reward=reward,
    )
    report = validate(inst)
    rules = {v[0] for v in report.violations}
    assert "gamma_range" in rules
    assert "reward_bound" in rules
    range_locs = {v[1] for v in report.violations if v[0] == "transition_range"}
    assert range_locs == {(1, 1, 0), (1, 1, 1)}


def test_static_gap_instance_shape():
    inst = make_static_gap_instance()
    assert (inst.num_states, inst.num_actions, inst.horizon) == (1, 2, 2)
    assert inst.gamma == 1.0 - 1e-9
    assert np.all(inst.transition == 1.0)
    assert inst.reward.tolist() == [[[0.0, 1.0]], [[1.0, 0.0]]]
    inst2 = make_static_gap_instance(gamma=0.25)
    assert inst2.gamma == 0.25


def test_enumerate_rule_counts():
    assert len(list(enumerate_decision_rules(uniform_instance(num_states=1)))) == 2
    assert len(list(enumerate_decision_rules(uniform_instance(num_states=2)))) == 4
    inst = uniform_instance(num_states=3, num_actions=3)
    assert len(list(enumerate_decision_rules(inst))) == 27


# (num_states, num_actions) pairs for the rule index checks.
RULE_SHAPES = [(1, 1), (1, 3), (3, 2), (4, 3), (12, 2)]


def test_enumerate_rule_order_is_lexicographic():
    rules = list(enumerate_decision_rules(uniform_instance(num_states=2)))
    assert rules == [(0, 0), (0, 1), (1, 0), (1, 1)]
    # identical on repeat enumeration
    assert rules == list(enumerate_decision_rules(uniform_instance(num_states=2)))
    # Rule r is the r-th action vector in lexicographic order.
    for S, A in RULE_SHAPES:
        inst = uniform_instance(num_states=S, num_actions=A)
        expected = list(itertools.product(range(A), repeat=S))
        assert rule_actions(inst, np.arange(A**S)).tolist() == [list(a) for a in expected]
        assert list(enumerate_decision_rules(inst)) == expected


def test_enumerate_rule_cap():
    inst = uniform_instance(num_states=13, num_actions=2)
    with pytest.raises(EnumerationCapExceeded) as exc:
        list(enumerate_decision_rules(inst))
    assert exc.value.required == 2**13
    for S, A in RULE_SHAPES + [(13, 2)]:
        inst = uniform_instance(num_states=S, num_actions=A)
        for cap in (A**S - 1, 4096):
            if A**S <= cap:
                continue
            with pytest.raises(EnumerationCapExceeded) as exc:
                next(enumerate_decision_rules(inst, cap))
            assert exc.value.required == A**S and exc.value.cap == cap


def test_rule_and_policy_checks():
    inst = uniform_instance(num_states=2, horizon=2)
    with pytest.raises(ValueError, match="decision rule covers 1 states, instance has 2"):
        TimeVaryingPolicy(((0,),)).check_against(inst)
    with pytest.raises(ValueError, match="action 5 for state 1 out of range"):
        TimeVaryingPolicy(((0, 1), (0, 5))).check_against(inst)
    long_policy = TimeVaryingPolicy.from_actions([[0, 0]] * 3)
    with pytest.raises(ValueError):
        long_policy.check_against(inst)
    ok = TimeVaryingPolicy.from_actions([[0, 1], [1, 0]])
    ok.check_against(inst)
    assert len(ok) == 2 and not ok.is_empty
    assert ok.rules == ((0, 1), (1, 0))


@pytest.mark.parametrize(
    "field, index, bad, location",
    [
        ("gamma", None, np.nan, ()),
        ("r_max", None, np.inf, ()),
        ("transition", (1, 0, 1), np.nan, (1, 0, 1)),
        ("reward", (1, 1, 0), -np.inf, (1, 1, 0)),
    ],
)
def test_validate_reports_non_finite_numbers_at_their_location(field, index, bad, location):
    fields = dict(
        num_states=2, num_actions=2, horizon=2, gamma=0.5, r_max=1.0,
        transition=np.full((2, 2, 2), 0.5), reward=np.zeros((2, 2, 2)),
    )
    if index is None:
        fields[field] = bad
    else:
        fields[field][index] = bad
    report = validate(DmdpInstance(**fields))
    assert not report.ok
    located = [loc for rule, loc, _ in report.violations if rule == "non_finite"]
    assert located == [location]
    # The number is reported once, not again by the range or bound rules.
    assert not [v for v in report.violations if v[1] == location and v[0] != "non_finite"]


def test_validate_order_on_finite_input():
    transition = np.full((2, 2, 2), 0.5)
    transition[0, 1] = [1.25, -0.25]
    transition[1, 0] = [0.5, 0.25]
    reward = np.zeros((2, 2, 2))
    reward[0, 1, 1] = 2.0
    reward[1, 0, 0] = -3.0
    inst = DmdpInstance(
        num_states=2, num_actions=2, horizon=2, gamma=1.5, r_max=1.0,
        transition=transition, reward=reward,
    )
    assert validate(inst, sign_mode="nonpositive").violations == (
        ("gamma_range", (), 1.5),
        ("transition_range", (0, 1, 0), 1.25),
        ("transition_range", (0, 1, 1), -0.25),
        ("stochasticity", (1, 0), 0.75),
        ("reward_bound", (0, 1, 1), 2.0),
        ("reward_sign", (0, 1, 1), 2.0),
        ("reward_bound", (1, 0, 0), -3.0),
    )


def _broken_instances():
    """Seeded instances that break every rule validate knows, often at once:
    NaN and +-inf in gamma, r_max, transition and reward; out-of-range
    entries; rows whose sum is off, infinite or NaN; reward bound and
    sign breaches.  Some have more than 128 states, so row totals go past
    one block of numpy's pairwise summation."""
    for seed in range(40):
        rng = np.random.default_rng(seed)
        S = int(rng.integers(130, 150)) if seed % 10 == 9 else int(rng.integers(1, 13))
        A = int(rng.integers(1, 4))
        T = int(rng.integers(1, 5))
        P = rng.random((S, A, S)) + 0.01
        P /= P.sum(axis=2, keepdims=True)
        R = -rng.random((T, S, A))
        if seed % 7 == 3:
            # A clean instance now and then, so ok=True is pinned too.
            yield DmdpInstance(
                num_states=S, num_actions=A, horizon=T, gamma=0.5, r_max=1.0,
                transition=P, reward=R,
            )
            continue
        for _ in range(int(rng.integers(0, 2 * S + 2))):
            index = (int(rng.integers(S)), int(rng.integers(A)), int(rng.integers(S)))
            P[index] = rng.choice([np.nan, np.inf, -np.inf, 1.5, -0.25, 2.0, 0.0, 1.0])
        for _ in range(int(rng.integers(0, S * A + 1))):
            P[int(rng.integers(S)), int(rng.integers(A)), int(rng.integers(S))] += 1e-6
        for _ in range(int(rng.integers(0, T * S * A + 2))):
            index = (int(rng.integers(T)), int(rng.integers(S)), int(rng.integers(A)))
            R[index] = rng.choice([np.nan, np.inf, -np.inf, 0.25, 3.0, -3.0, -0.0, 1.0])
        gamma = float(rng.choice([0.5, 0.0, np.nan, np.inf, -np.inf, 1.0, -0.1]))
        r_max = float(rng.choice([1.0, 1.0, 0.5, np.nan, np.inf, -1.0, 0.0]))
        yield DmdpInstance(
            num_states=S, num_actions=A, horizon=T, gamma=gamma, r_max=r_max,
            transition=P, reward=R,
        )


def test_validate_violations_on_broken_input_are_pinned():
    # The hash was recorded with the per-cell loop implementation of
    # validate: rules, locations, order and the bits of every value.
    lines = []
    for inst in _broken_instances():
        for sign_mode in ("any", "nonpositive"):
            report = validate(inst, sign_mode=sign_mode)
            assert report.ok == (not report.violations)
            lines.append(f"ok={report.ok}")
            for rule, location, value in report.violations:
                assert type(value) is float
                assert all(type(i) is int for i in location)
                lines.append(f"{rule} {location} {value.hex()}")
    rules = {line.split()[0] for line in lines}
    assert rules >= {
        "non_finite", "gamma_range", "r_max_nonnegative", "transition_range",
        "stochasticity", "reward_bound", "reward_sign", "ok=True", "ok=False",
    }
    text = "\n".join(lines)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "dd21f7fdb9d22f039196577398196e131af22603451e4a97b12113b37fefe4cf"
    )


def _per_cell_violations(inst, sign_mode):
    """validate's rules applied to one number at a time, in its order."""
    violations = []
    if not math.isfinite(inst.gamma):
        violations.append(("non_finite", (), inst.gamma))
    elif not 0.0 <= inst.gamma < 1.0:
        violations.append(("gamma_range", (), inst.gamma))
    if not math.isfinite(inst.r_max):
        violations.append(("non_finite", (), inst.r_max))
    elif inst.r_max < 0.0:
        violations.append(("r_max_nonnegative", (), inst.r_max))
    P, R = inst.transition, inst.reward
    for s, a in itertools.product(range(inst.num_states), range(inst.num_actions)):
        for sp in range(inst.num_states):
            p = float(P[s, a, sp])
            if not math.isfinite(p):
                violations.append(("non_finite", (s, a, sp), p))
            elif not 0.0 <= p <= 1.0:
                violations.append(("transition_range", (s, a, sp), p))
        with np.errstate(invalid="ignore"):
            total = float(P[s, a].sum())
        if abs(total - 1.0) > STOCHASTIC_TOL:
            violations.append(("stochasticity", (s, a), total))
    for cell in itertools.product(*map(range, R.shape)):
        r = float(R[cell])
        if not math.isfinite(r):
            violations.append(("non_finite", cell, r))
            continue
        if abs(r) > inst.r_max:
            violations.append(("reward_bound", cell, r))
        if sign_mode == "nonpositive" and r > 0.0:
            violations.append(("reward_sign", cell, r))
    return violations


@pytest.mark.parametrize("diagonal", [True, False])
def test_validate_accepts_on_reductions_exactly_when_no_cell_fails(diagonal):
    # One number perturbed at a time, at the first and the last cell of each
    # array.  The kernel moves each state to itself (its first and last
    # cells are 1) or to the next state (they are 0); rewards are -0.5.
    S, A, T, r_max = 3, 2, 2, 2.0
    P = np.zeros((S, A, S))
    for s, a in itertools.product(range(S), range(A)):
        P[s, a, s if diagonal else (s + 1) % S] = 1.0
    R = np.full((T, S, A), -0.5)
    # A row summing to `close` is as far below one as a double can be
    # within STOCHASTIC_TOL; one ulp less and the row is off by just over it.
    close = 1.0 - math.floor(STOCHASTIC_TOL * 2**53) * 2**-53
    assert 1.0 - close <= STOCHASTIC_TOL < 1.0 - (close - 2**-53)
    tiny = 2**-52
    cases = [(None, None, None)]
    for index in ((0, 0, 0), (S - 1, A - 1, S - 1)):
        for bad in (np.nan, np.inf, -np.inf, -1e-300, 1.0 + tiny, close, close - 2**-53):
            cases.append(("transition", index, bad))
    for index in ((0, 0, 0), (T - 1, S - 1, A - 1)):
        for bad in (r_max, -r_max, r_max * (1 + tiny), -r_max * (1 + tiny), 0.0, -0.0,
                    np.nan):
            cases.append(("reward", index, bad))
    cases += [("r_max", None, np.nan), ("r_max", None, -1.0), ("gamma", None, 1.0)]
    outcomes = set()
    for field, index, bad in cases:
        fields = dict(num_states=S, num_actions=A, horizon=T, gamma=0.5, r_max=r_max,
                      transition=P.copy(), reward=R.copy())
        if index is not None:
            fields[field][index] = bad
        elif field is not None:
            fields[field] = bad
        inst = DmdpInstance(**fields)
        for sign_mode in ("any", "nonpositive"):
            report = validate(inst, sign_mode=sign_mode)
            expected = _per_cell_violations(inst, sign_mode)
            # repr tells -0.0 from 0.0 and lets NaN equal NaN.
            assert [(rule, loc, repr(v)) for rule, loc, v in report.violations] == [
                (rule, loc, repr(v)) for rule, loc, v in expected
            ], (field, index, bad, sign_mode)
            assert report.ok == (not expected)
            outcomes.add(report.ok)
    assert outcomes == {True, False}
