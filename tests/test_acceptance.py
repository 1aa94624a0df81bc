"""End-to-end acceptance checks.

One test per shipped guarantee, each printing a single PASS/FAIL line
(run with -s to see them live).  Tolerances and time limits are part of
the contract and are asserted, not just reported.
"""

import json
import time

import numpy as np

from conftest import run_cli
from dmdp import (
    GdsConfig,
    GoalSet,
    TimeVaryingPolicy,
    ValueTable,
    bellman_policy_operator,
    bellman_value_operator,
    brute_force_cover,
    brute_force_optimal_value,
    brute_force_reach,
    concat_value_check,
    dumps_json,
    evaluate_policy,
    gds_search,
    generate,
    optimal_values,
    pad_policy,
    policy_iteration,
    realizable_goal_sets,
    save,
    sup_distance,
)

GAMMAS = (0.3, 0.5, 0.9, 0.95)


def _report(name: str, ok: bool, detail: str):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _random_policy(instance, rng, length=None):
    n = instance.horizon if length is None else length
    return TimeVaryingPolicy.from_actions(
        rng.integers(0, instance.num_actions, size=(n, instance.num_states))
    )


def test_criterion_1_static_gap_demo():
    started = time.perf_counter()
    proc = run_cli("demo-static-gap")
    elapsed = time.perf_counter() - started
    gamma = 1.0 - 1e-9
    result = json.loads(proc.stdout)["result"]
    ok = (
        proc.returncode == 0
        and result["static_best"] == 1.0
        and result["dynamic_best"] == 1.0 + gamma
        and elapsed < 1.0
    )
    _report(
        "criterion-1 static-gap demo",
        ok,
        f"static={result['static_best']}, dynamic={result['dynamic_best']}, "
        f"{elapsed:.2f}s",
    )


def test_criterion_2_search_matches_oracle_on_corpus(corpus):
    started = time.perf_counter()
    worst = 0.0
    searches = 0
    for instance in corpus:
        for target in realizable_goal_sets(instance, start=0, max_len=instance.horizon):
            for mode, brute in (
                ("reach", brute_force_reach),
                ("cover", brute_force_cover),
            ):
                result = gds_search(instance, GdsConfig(start=0, target=target, mode=mode))
                expected = brute(instance, 0, target, instance.horizon)
                assert result.found and expected is not None
                worst = max(worst, abs(result.value - expected.value))
                searches += 1
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-9 and elapsed < 60.0 and searches >= 200
    _report(
        "criterion-2 search vs oracle on 100-seed corpus",
        ok,
        f"{searches} searches, worst |diff|={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_concatenation_value_identity():
    started = time.perf_counter()
    worst = 0.0
    for k in range(200):
        instance = generate(1000 + k, 3, 2, 5, GAMMAS[k % 4])
        rng = np.random.default_rng(k)
        n1 = int(rng.integers(1, 4))
        n2 = int(rng.integers(1, instance.horizon - n1 + 1))
        first = _random_policy(instance, rng, n1)
        second = _random_policy(instance, rng, n2)
        t = int(rng.integers(0, n1 + n2))
        start = int(rng.integers(3))
        lhs, rhs = concat_value_check(instance, first, second, t, start)
        worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(
        "criterion-3 concat value identity on 200 tuples",
        ok,
        f"worst |lhs-rhs|={worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_4_value_operator_contraction():
    started = time.perf_counter()
    ok = True
    worst_excess = -np.inf
    for k in range(100):
        gamma = GAMMAS[k % 4]
        instance = generate(2000 + k, 3, 2, 4, gamma)
        rng = np.random.default_rng(500 + k)
        rows = instance.horizon + 1
        tables = []
        for _ in range(2):
            grid = np.vstack(
                [rng.uniform(-5, 5, size=(rows - 1, 3)), np.zeros((1, 3))]
            )
            tables.append(ValueTable(grid))
        lhs = sup_distance(
            bellman_value_operator(instance, tables[0]),
            bellman_value_operator(instance, tables[1]),
        )
        bound = gamma * sup_distance(tables[0], tables[1]) + 1e-12
        worst_excess = max(worst_excess, lhs - bound)
        ok = ok and lhs <= bound
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 2.0
    _report(
        "criterion-4 contraction on 100 table pairs",
        ok,
        f"max(d(TV1,TV2) - bound)={worst_excess:.2e}, {elapsed:.2f}s",
    )


def test_criterion_5_policy_improvement():
    worst = np.inf
    for k in range(100):
        instance = generate(3000 + k, 3, 2, 3, GAMMAS[k % 4])
        rng = np.random.default_rng(700 + k)
        policy = _random_policy(instance, rng)
        before = evaluate_policy(instance, pad_policy(instance, policy)).values
        after = evaluate_policy(
            instance, bellman_policy_operator(instance, policy)
        ).values
        worst = min(worst, float(np.min(after - before)))
    ok = worst >= -1e-12
    _report(
        "criterion-5 policy improvement on 100 pairs",
        ok,
        f"min pointwise improvement={worst:.2e}",
    )


def test_criterion_6_policy_iteration_and_optimal_values(corpus):
    worst_pi = 0.0
    worst_brute = 0.0
    for k, instance in enumerate(corpus):
        rng = np.random.default_rng(900 + k)
        star = optimal_values(instance)
        result = policy_iteration(instance, _random_policy(instance, rng))
        worst_pi = max(worst_pi, sup_distance(result.values, star))
        brute = brute_force_optimal_value(instance)
        worst_brute = max(worst_brute, float(np.max(np.abs(star.values[0] - brute))))
    ok = worst_pi <= 1e-9 and worst_brute <= 1e-12
    _report(
        "criterion-6 policy iteration reaches the optimum",
        ok,
        f"worst |PI-V*|={worst_pi:.2e}, worst |V*-brute|={worst_brute:.2e}",
    )


def test_criterion_7_queue_invariant_in_verify_mode(corpus):
    searches = 0
    for instance in corpus:
        for target in realizable_goal_sets(instance, start=0, max_len=instance.horizon):
            for mode in ("reach", "cover"):
                # verify=True raises if any queued value strays more than
                # 1e-10 from exact evaluation or pops lose monotonicity.
                result = gds_search(
                    instance,
                    GdsConfig(start=0, target=target, mode=mode, verify=True),
                )
                assert result.found
                searches += 1
    _report(
        "criterion-7 queue invariant over the corpus",
        searches >= 200,
        f"{searches} verified searches, every push within 1e-10",
    )


def test_criterion_8_reports_are_deterministic(tmp_path, corpus):
    def stripped(stdout: str) -> str:
        report = json.loads(stdout)
        del report["timing"]
        return dumps_json(report)

    mismatches = 0
    compared = 0
    for seed in (0, 13, 42, 99):
        path = str(tmp_path / f"inst-{seed}.json")
        save(corpus[seed], path)
        for args in (
            ("solve-reach", path, "--start", "0", "--target", "0,1,2"),
            ("solve-cover", path, "--start", "0", "--target", "0,1,2"),
            ("brute-check", path, "--start", "0", "--target", "0,1,2"),
        ):
            # Separate processes: each has its own hash randomization.
            a, b = run_cli(*args, spawn=True), run_cli(*args, spawn=True)
            compared += 1
            if stripped(a.stdout) != stripped(b.stdout) or a.returncode != b.returncode:
                mismatches += 1
    # library-level repeatability, including node counts
    for seed in (0, 42):
        instance = corpus[seed]
        config = GdsConfig(start=0, target=GoalSet.full(3), trace=True)
        if gds_search(instance, config) != gds_search(instance, config):
            mismatches += 1
    ok = mismatches == 0 and compared == 12
    _report(
        "criterion-8 byte-identical reports modulo timing",
        ok,
        f"{compared} CLI pairs compared, {mismatches} mismatches",
    )
