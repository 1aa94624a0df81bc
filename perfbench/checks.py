"""Answer checks, run between ops and outside the timed region.

Every op on every seed is checked for self-consistency against the
library's exact evaluators:

- a returned policy's value equals `evaluate_policy` within 1e-10 and its
  recomputed goal set satisfies the target;
- policy-iter values equal value-star values within 1e-9;
- a verified search and brute-check of the same query agree on found and
  on the value within 1e-9;
- the report's instance digest equals the digest of the file the
  benchmark wrote.

Golden answers recorded from this benchmark's default seed add two more
checks.  On seed 0 the found flag, the value, the policy, the goal and
every value table must be bit-equal to them.  On a relabelled instance
(see workloads.py) the found flag must match and the value must match
within 1e-9 on every seed.  Node counts and report layout are never
compared, so a change to the search order or the report format does not
fail the check.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

VALUE_TOL = 1e-10
CROSS_TOL = 1e-9


def table_sha(table) -> str:
    return hashlib.sha256(np.asarray(table, dtype="<f8").tobytes()).hexdigest()


def _hex(value):
    return None if value is None else float(value).hex()


class Checker:
    """Checks each op's report; `answers` collects what golden files store."""

    def __init__(self, plan, instances: dict, golden: dict | None):
        self.plan = plan
        self.instances = instances
        self.golden = golden
        self.answers: dict[str, dict] = {}
        self._digests: dict[str, str] = {}
        self._tables: dict[tuple[str, str], np.ndarray] = {}
        self._found: dict[str, tuple[bool, float | None]] = {}

    def check(self, op, rc: int, stdout: str, stderr: str) -> list[str]:
        """Problems with one op's outcome; an empty list means it passed."""
        if op.expect == "budget-or-absent" and rc == 1:
            self.answers[op.key] = {"found": False}
            if "node budget" in stderr:
                return []
            return [f"exit 1 without a budget error: {stderr.strip()[:200]}"]
        if rc not in (0, 2):
            return [f"exit {rc}: {stderr.strip()[:200]}"]
        try:
            report = json.loads(stdout)
        except json.JSONDecodeError as e:
            return [f"report is not JSON: {e}"]
        instance = self.instances[op.file]
        problems = []
        if report.get("instance_digest") != self._digest(op.file):
            problems.append("instance digest differs from the file written")
        result = report["result"]
        answer = {"digest": report.get("instance_digest")}
        if op.cmd == "gen":
            problems += [] if rc == 0 else ["gen exited 2"]
        elif op.cmd == "validate":
            answer["ok"] = result["ok"]
            if rc != 0 or not result["ok"] or result["violations"]:
                problems.append("a generated instance failed validation")
        elif op.cmd in ("value-star", "policy-iter"):
            problems += self._check_tables(op, instance, result, answer)
        else:
            problems += self._check_search(op, instance, rc, result, answer)
        problems += self._compare_golden(op, answer)
        self.answers[op.key] = answer
        return problems

    def _digest(self, name: str) -> str:
        if name not in self._digests:
            from dmdp import digest

            self._digests[name] = digest(self.instances[name])
        return self._digests[name]

    def _check_tables(self, op, instance, result, answer) -> list[str]:
        from dmdp import TimeVaryingPolicy, evaluate_policy

        problems = []
        values = np.array(result["values"], dtype=np.float64)
        answer["values_sha256"] = table_sha(values)
        if op.cmd == "policy-iter":
            answer["policy_sha256"] = table_sha(result["policy"])
            policy = TimeVaryingPolicy.from_actions(result["policy"])
            exact = evaluate_policy(instance, policy).values
            if exact.shape != values.shape or np.max(np.abs(exact - values)) > VALUE_TOL:
                problems.append("policy-iter values differ from evaluate_policy(policy)")
        self._tables[(op.file, op.cmd)] = values
        other = self._tables.get((op.file, "policy-iter" if op.cmd == "value-star" else "value-star"))
        if other is not None and (
            other.shape != values.shape or np.max(np.abs(other - values)) > CROSS_TOL
        ):
            problems.append("policy-iter values differ from value-star")
        return problems

    def _check_search(self, op, instance, rc, result, answer) -> list[str]:
        from dmdp import GoalSet, TimeVaryingPolicy, evaluate_policy, goal_set

        found = bool(result["found"])
        relabel = self.plan.files[op.file].relabel
        answer.update(found=found, value=_hex(result["value"]), policy=None, goal=None)
        problems = []
        if rc != (0 if found else 2):
            problems.append(f"exit {rc} with found={found}")
        if op.expect != "any" and found:
            problems.append("found a policy for an infeasible query")
        if found:
            policy = TimeVaryingPolicy.from_actions(result["policy"])
            exact = float(evaluate_policy(instance, policy).values[0, op.start])
            if abs(exact - result["value"]) > VALUE_TOL:
                problems.append(f"value {result['value']!r} != evaluate_policy {exact!r}")
            goal = goal_set(instance, policy, op.start)
            target = GoalSet.from_states(op.target, instance.num_states)
            mode = op.mode or op.cmd.removeprefix("solve-")
            ok = goal.issubset(target) if mode == "reach" else target.issubset(goal)
            if list(goal.members()) != result["goal"] or not ok:
                problems.append(f"goal {result['goal']} does not {mode} target {list(op.target)}")
            answer["policy"] = relabel.policy_to_base(result["policy"]) if relabel else result["policy"]
            answer["goal"] = relabel.goal_to_base(result["goal"]) if relabel else result["goal"]
        if op.partner is not None and op.partner in self._found:
            p_found, p_value = self._found[op.partner]
            if p_found != found or (found and abs(p_value - result["value"]) > CROSS_TOL):
                problems.append("brute-check disagrees with the verified search")
        self._found[op.key] = (found, result["value"])
        return problems

    def _compare_golden(self, op, answer) -> list[str]:
        # The budget outcome may legitimately become "absent" when the
        # search learns to prove infeasibility, so it has no golden answer.
        if self.golden is None or op.expect == "budget-or-absent":
            return []
        want = self.golden.get(op.key)
        if want is None:
            return [f"no golden answer for {op.key!r}"]
        if self.plan.seed == 0:
            diffs = sorted(k for k in want if want[k] != answer.get(k))
            return [f"differs from the golden answer in {', '.join(diffs)}"] if diffs else []
        if self.plan.files[op.file].relabel is None or "found" not in want:
            return []
        if want["found"] != answer["found"]:
            return ["found flag differs from the base instance's answer"]
        if want["found"] and abs(float.fromhex(want["value"]) - float.fromhex(answer["value"])) > CROSS_TOL:
            return ["value differs from the base instance's answer"]
        return []
