import argparse
import contextlib
import hashlib
import io
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

from conftest import run_cli, sparse_instance

from dmdp import (
    DmdpInstance,
    GoalSet,
    TimeVaryingPolicy,
    brute_force_reach,
    digest,
    dumps_instance,
    evaluate_policy,
    generate,
    load,
    make_static_gap_instance,
    optimal_values,
    save,
)


def report_of(proc):
    return json.loads(proc.stdout)


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    save(generate(7, 3, 2, 3, 0.5), path)
    return str(path)


@pytest.fixture()
def wide_file(tmp_path):
    path = tmp_path / "wide.json"
    save(generate(1, 80, 2, 3, 0.5), path)
    return str(path)


def test_demo_static_gap_reports_the_gap():
    proc = run_cli("demo-static-gap")
    assert proc.returncode == 0
    result = report_of(proc)["result"]
    gamma = 1.0 - 1e-9
    assert result["static_best"] == 1.0
    assert result["dynamic_best"] == 1.0 + gamma
    assert result["static_values"] == {
        "static-action-0": gamma,
        "static-action-1": 1.0,
    }
    assert result["dynamic_policy"] == [[1], [0]]


def test_python_m_dmdp_runs_the_cli():
    proc = run_cli("--version", spawn=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "0.1.0\n"


def test_gen_is_reproducible_and_validates(tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    p1 = run_cli("gen", "--seed", "3", "--states", "3", "--actions", "2",
                 "--horizon", "3", "--gamma", "0.5", "-o", out1)
    p2 = run_cli("gen", "--seed", "3", "--states", "3", "--actions", "2",
                 "--horizon", "3", "--gamma", "0.5", "-o", out2)
    assert p1.returncode == p2.returncode == 0
    assert Path(out1).read_text() == Path(out2).read_text()
    rep = report_of(p1)
    assert rep["result"]["digest"] == digest(load(out1))
    assert run_cli("validate", out1).returncode == 0


def test_gen_serializes_once_and_reports_the_digest_of_its_bytes(tmp_path, monkeypatch):
    from dmdp import storage

    calls = []
    dumps = storage.dumps_json

    def counted(value):
        calls.append(type(value).__name__)
        return dumps(value)

    monkeypatch.setattr(storage, "dumps_json", counted)
    out = tmp_path / "g.json"
    argv = ["gen", "--seed", "9", "--states", "5", "--actions", "2",
            "--horizon", "4", "--gamma", "0.25", "-o", str(out)]
    proc = run_cli(*argv)
    assert proc.returncode == 0
    assert calls == ["dict"]  # save's; the digest is save's hash of its bytes
    report = json.loads(proc.stdout)
    written = hashlib.sha256(out.read_bytes()).hexdigest()
    assert report["instance_digest"] == report["result"]["digest"] == written
    assert written == digest(load(out))
    for inst in (generate(9, 5, 2, 4, 0.25), make_static_gap_instance(), sparse_instance(1)):
        path = tmp_path / "again.json"
        assert save(inst, path) == digest(inst)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest(inst)


def test_validate_reports_violations_and_exits_1(tmp_path):
    path = str(tmp_path / "gap.json")
    save(make_static_gap_instance(), path)
    ok = run_cli("validate", path)
    assert ok.returncode == 0 and report_of(ok)["result"]["ok"]
    bad = run_cli("validate", path, "--sign-mode", "nonpositive")
    assert bad.returncode == 1
    result = report_of(bad)["result"]
    assert not result["ok"]
    assert {tuple(v["location"]) for v in result["violations"]} == {(0, 0, 1), (1, 0, 0)}


def test_value_star_matches_library(instance_file):
    proc = run_cli("value-star", instance_file)
    assert proc.returncode == 0
    reported = report_of(proc)["result"]["values"]
    expected = optimal_values(load(instance_file)).values
    assert reported == expected.tolist()


def test_policy_iter_reaches_value_star(instance_file):
    star = optimal_values(load(instance_file)).values
    for init in ([], ["--init", "0,0,0;1,1,1;0,1,0"]):
        proc = run_cli("policy-iter", instance_file, *init)
        assert proc.returncode == 0
        result = report_of(proc)["result"]
        assert np.abs(np.array(result["values"]) - star).max() <= 1e-9
        assert result["iterations"] >= 1
        assert len(result["policy"]) == 3
    # The policy it returns, replayed as --init, is a fixed point.
    rules = ";".join(",".join(map(str, rule)) for rule in result["policy"])
    replay = report_of(run_cli("policy-iter", instance_file, "--init", rules))["result"]
    assert replay["iterations"] == 1 and replay["policy"] == result["policy"]


def test_solve_reach_agrees_with_brute_check(instance_file):
    solve = run_cli("solve-reach", instance_file, "--start", "0", "--target", "0,1,2")
    brute = run_cli("brute-check", instance_file, "--start", "0",
                    "--target", "0,1,2", "--mode", "reach")
    assert solve.returncode == 0 and brute.returncode == 0
    v1 = report_of(solve)["result"]["value"]
    v2 = report_of(brute)["result"]["value"]
    assert abs(v1 - v2) <= 1e-9


def test_solve_cover_runs(instance_file, wide_file):
    proc = run_cli("solve-cover", instance_file, "--start", "1", "--target", "0,1,2")
    assert proc.returncode == 0
    result = report_of(proc)["result"]
    assert result["found"] and set(result["goal"]) >= {0, 1, 2}
    # Past one uint64 word of goal-set mask: one step of the dense kernel
    # covers all 80 states.
    proc = run_cli("solve-cover", wide_file, "--start", "0", "--target", "79")
    assert proc.returncode == 0
    result = report_of(proc)["result"]
    assert result["found"] and result["goal"] == list(range(80))


def test_missing_solution_exits_2(instance_file, wide_file):
    # dense kernel: every goal set is the full state set, so reaching a
    # singleton is impossible
    for path in (instance_file, wide_file):
        solve = run_cli("solve-reach", path, "--start", "0", "--target", "1")
        assert solve.returncode == 2
        assert report_of(solve)["result"]["found"] is False
    brute = run_cli("brute-check", instance_file, "--start", "0", "--target", "1")
    assert brute.returncode == 2


def test_runtime_errors_exit_1(tmp_path):
    proc = run_cli("value-star", str(tmp_path / "missing.json"))
    assert proc.returncode == 1
    assert "error" in proc.stderr
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    proc = run_cli("value-star", str(bad))
    assert proc.returncode == 1
    assert "parse error" in proc.stderr
    doc = json.loads(dumps_instance(make_static_gap_instance()))
    doc["num_states"] = 2.7
    bad.write_text(json.dumps(doc))
    proc = run_cli("value-star", str(bad))
    assert proc.returncode == 1
    assert "'num_states' must be an integer, got 2.7" in proc.stderr
    for key, entry, shown in (("transition", "0.25", "'0.25'"), ("reward", True, "True"),
                              ("transition", None, "None")):
        doc = json.loads(dumps_instance(make_static_gap_instance()))
        doc[key][0][0][0] = entry
        bad.write_text(json.dumps(doc))
        proc = run_cli("validate", str(bad))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (
            f"error: key {key!r} entry [0, 0, 0] must be a number, got {shown}\n"
        )
    # json.loads raises RecursionError past its nesting limit
    bad.write_text('{"transition": ' + "[" * 100_000 + "]" * 100_000 + "}")
    proc = run_cli("validate", str(bad))
    assert proc.returncode == 1 and "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: parse error")


def test_ragged_arrays_and_non_finite_metadata_exit_1_with_their_location(tmp_path):
    path = tmp_path / "bad.json"
    doc = json.loads(dumps_instance(generate(7, 2, 2, 2, 0.5)))
    doc["transition"][1][0].append(0.0)
    path.write_text(json.dumps(doc))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: key 'transition' entry [1, 0] has 3 entries, expected 2\n"
    doc = json.loads(dumps_instance(generate(7, 2, 2, 2, 0.5)))
    doc["metadata"]["runs"] = [0.5, float("nan")]
    path.write_text(json.dumps(doc))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "error: key 'metadata' entry ['runs', 1] must be a finite number, got nan\n"
    )
    # Metadata that dumps_json cannot write back, in a file parsed whole and
    # in one whose arrays take the canonical reader, and a repeated key.
    deep = "[" * 600 + "]" * 600
    for command, shape in (("validate", (1, 3, 2, 3, 0.5)), ("value-star", (1, 16, 2, 8, 0.5))):
        path.write_text(dumps_instance(generate(*shape)).replace('"seed": 1', f'"seed": {deep}'))
        proc = run_cli(command, str(path))
        assert proc.returncode == 1 and proc.stdout == ""
        assert proc.stderr == (
            f"error: key 'metadata' entry {['seed'] + [0] * 100} is nested more than"
            " 100 levels deep\n"
        )
    text = dumps_instance(generate(7, 2, 2, 2, 0.5))
    path.write_text(text.replace('"gamma": 0.5,', '"gamma": 0.5,\n  "gamma": 0.25,'))
    proc = run_cli("validate", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: repeated key 'gamma'\n"


def test_trace_file_records_the_search(instance_file, tmp_path):
    trace_path = tmp_path / "trace.json"
    fresh_path = tmp_path / "fresh.json"
    # A longer file at the trace path is rewritten, not appended to.
    trace_path.write_bytes(b"x" * 1_000_000)
    for path in (trace_path, fresh_path):
        proc = run_cli("solve-reach", instance_file, "--start", "0",
                       "--target", "0,1,2", "--trace", str(path))
        assert proc.returncode == 0
    assert trace_path.read_bytes() == fresh_path.read_bytes()
    events = json.loads(trace_path.read_text())
    assert events[0]["event"] == "pop"
    assert events[-1]["event"] == "terminate"
    kinds = {e["event"] for e in events}
    assert "push" in kinds and "record" in kinds


def test_search_nodes_are_capped_one_at_a_time(tmp_path):
    # The rule table of both instances (3^8 = 6,561 rules) exceeds the
    # cap.  The root verdict proves the dense query absent without a pop;
    # verify mode searches past it and fails at its first wide node.  A
    # sparse instance whose expanded nodes stay narrow is answered.
    wide = tmp_path / "wide.json"
    save(generate(1, 8, 3, 12, 0.5), wide)
    proc = run_cli("solve-reach", str(wide), "--start", "0", "--target", "0")
    assert proc.returncode == 2
    result = report_of(proc)["result"]
    assert not result["found"] and result["nodes_popped"] == 0
    proc = run_cli("solve-reach", str(wide), "--start", "0", "--target", "0", "--verify")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == (
        "error: enumerating decision rules requires 6561 rules, exceeding the cap of 4096\n"
    )
    inst = sparse_instance(2, 8, 3, 4, 0.3)
    narrow = tmp_path / "narrow.json"
    save(inst, narrow)
    for mode in ("reach", "cover"):
        proc = run_cli(f"solve-{mode}", str(narrow), "--start", "2",
                       "--target", "0,1,2,3", "--verify")
        assert proc.returncode == 0
        result = report_of(proc)["result"]
        policy = TimeVaryingPolicy.from_actions(result["policy"])
        assert abs(result["value"] - evaluate_policy(inst, policy).values[0, 2]) <= 1e-10
        goal = set(result["goal"])
        assert goal <= {0, 1, 2, 3} if mode == "reach" else goal >= {0, 1, 2, 3}


def test_node_budget_flag(instance_file):
    argv = ["solve-reach", instance_file, "--start", "0", "--target", "0,1,2"]
    proc = run_cli(*argv, "--node-budget", "1")
    assert proc.returncode == 1
    assert "budget" in proc.stderr
    # the report echoes the budget the run used, from the flag or the default
    for flag, echoed in ((["--node-budget", "100000"], 100000), ([], 1000000)):
        proc = run_cli(*argv, *flag)
        assert proc.returncode == 0
        assert report_of(proc)["config"]["node_budget"] == echoed
    # a budget that is not a positive integer is a usage error
    for value in ("abc", "0"):
        proc = run_cli(*argv, "--node-budget", value)
        assert proc.returncode == 64
        assert "usage:" in proc.stderr and "--node-budget" in proc.stderr


def test_environment_does_not_set_the_node_budget(instance_file, monkeypatch):
    # The budget is an option like any other: GDS_NODE_BUDGET is not read.
    argv = ["solve-reach", instance_file, "--start", "0", "--target", "0,1,2"]
    monkeypatch.delenv("GDS_NODE_BUDGET", raising=False)
    plain = run_cli(*argv)
    monkeypatch.setenv("GDS_NODE_BUDGET", "1")
    tight = run_cli(*argv)
    assert plain.returncode == tight.returncode == 0, tight.stderr
    assert _report_without_timing(tight.stdout) == _report_without_timing(plain.stdout)


def test_non_finite_numbers_exit_1_with_their_location(tmp_path):
    inst = generate(7, 3, 2, 3, 0.5)
    path = tmp_path / "nan.json"
    save(inst, path)
    doc = json.loads(path.read_text())
    doc["reward"][1][2][0] = float("nan")
    path.write_text(json.dumps(doc))
    for command in ("validate", "value-star"):
        proc = run_cli(command, str(path))
        assert proc.returncode == 1
        assert "non_finite at (1, 2, 0): nan" in proc.stderr


REPLAYED_RUNS = [
    ["validate", "gap.json", "--sign-mode", "nonpositive"],
    ["value-star", "inst.json"],
    ["policy-iter", "inst.json", "--init", "0,0,0;1,1,1;0,1,0"],
    ["solve-reach", "sparse.json", "--start", "0", "--target", "0,2", "--strict",
     "--verify", "--trace", "trace.json"],
    ["solve-cover", "inst.json", "--start", "1", "--target", "0,1,2"],
    ["brute-check", "sparse.json", "--start", "0", "--target", "2"],
    ["brute-check", "inst.json", "--start", "0", "--target", "2", "--mode", "cover",
     "--max-len", "2", "--budget", "100"],
    ["gen", "--seed", "5", "--states", "4", "--actions", "3", "--horizon", "3",
     "--gamma", "0.75", "-o", "made.json"],
    ["demo-static-gap"],
]


def _argv_of(command, config):
    """The arguments a report's config stands for: `file` is positional,
    every other key is its option; true is a bare flag, false and null are
    left out, a list of ints is joined by ',' and a list of rules by ';'."""
    argv = [command]
    for key, value in config.items():
        option = "--" + key.replace("_", "-")
        if key == "file":
            argv.append(value)
        elif value is True:
            argv.append(option)
        elif value is not False and value is not None:
            if isinstance(value, list) and value and isinstance(value[0], list):
                value = ";".join(",".join(map(str, rule)) for rule in value)
            elif isinstance(value, list):
                value = ",".join(map(str, value))
            argv += [option, str(value)]
    return argv


def _option_dests(parser, command):
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [a.dest for a in subparsers.choices[command]._actions if a.dest != "help"]


def test_report_config_replays_to_the_same_result(tmp_path, monkeypatch):
    from dmdp import cli

    monkeypatch.chdir(tmp_path)
    save(generate(7, 3, 2, 3, 0.5), "inst.json")
    save(make_static_gap_instance(), "gap.json")
    save(sparse_instance(1), "sparse.json")
    for argv in REPLAYED_RUNS:
        proc = run_cli(*argv)
        first = proc.stdout
        config = json.loads(first)["config"]
        assert list(config) == _option_dests(cli.build_parser(), argv[0]), argv
        replay = _argv_of(argv[0], config)
        again = run_cli(*replay)
        assert again.returncode == proc.returncode, replay
        second = again.stdout
        assert _report_without_timing(second) == _report_without_timing(first), replay


def test_brute_check_respects_max_len(instance_file):
    proc = run_cli("brute-check", instance_file, "--start", "0",
                   "--target", "0,1,2", "--max-len", "1")
    assert proc.returncode == 0
    result = report_of(proc)["result"]
    inst = load(instance_file)
    expected = brute_force_reach(inst, 0, GoalSet.full(3), 1)
    assert result["value"] == expected.value
    assert len(result["policy"]) == 1


# The integer options, and spellings that int() would take but they refuse.
INTEGER_OPTIONS = {
    **dict.fromkeys(("--start", "--seed"), "an integer"),
    **dict.fromkeys(("--node-budget", "--budget", "--max-len", "--states", "--actions",
                     "--horizon"), "a positive integer"),
}
LOOSE_INTEGERS = ("0_0", "+0", " 0", "\u0660", "1_000", "+7", "\u0662", "\u0663", "0_2", "+2", " 2")
# Spellings of gamma that float() would take but --gamma refuses.
LOOSE_GAMMAS = ("0_5", "+0.5", " 0.5", "\u0660.\u0665", "nan", "inf")


def test_exit_code_matrix_covers_every_subcommand(instance_file, tmp_path):
    gap = str(tmp_path / "gap.json")
    save(make_static_gap_instance(), gap)
    # two disconnected self-loop states: the search can cover {0} from
    # state 0 but never {0,1}
    transition = np.zeros((2, 1, 2))
    transition[0, 0, 0] = 1.0
    transition[1, 0, 1] = 1.0
    frozen = str(tmp_path / "frozen.json")
    save(
        DmdpInstance(
            num_states=2,
            num_actions=1,
            horizon=2,
            gamma=0.5,
            r_max=1.0,
            transition=transition,
            reward=np.full((2, 2, 1), -0.25),
            sign_mode="nonpositive",
        ),
        frozen,
    )
    missing = str(tmp_path / "missing.json")
    out = str(tmp_path / "made.json")
    invalid = str(tmp_path / "invalid.json")

    matrix = [
        (64, []),
        (64, ["no-such-command"]),
        (0, ["validate", instance_file]),
        (1, ["validate", gap, "--sign-mode", "nonpositive"]),
        (64, ["validate"]),
        (0, ["value-star", instance_file]),
        (1, ["value-star", missing]),
        (0, ["policy-iter", instance_file]),
        (1, ["policy-iter", missing]),
        (64, ["policy-iter", instance_file, "--init", "0,x"]),
        (64, ["policy-iter", instance_file, "--init", "0,1,0;;1,1,1"]),
        (64, ["policy-iter", instance_file, "--init", "0,1,0;"]),
        (64, ["policy-iter", instance_file, "--init", "0,,1"]),
        (64, ["policy-iter", instance_file, "--init", "0,1,0;1,+1,1"]),
        (64, ["policy-iter", instance_file, "--init", "0,1,0;1,0_1,1"]),
        (64, ["policy-iter", instance_file, "--init", "0,1, 0"]),
        (1, ["policy-iter", instance_file, "--init", "0,1,-1"]),
        (0, ["policy-iter", instance_file, "--init", ""]),
        (0, ["solve-reach", instance_file, "--start", "0", "--target", "0,1,2"]),
        (2, ["solve-reach", instance_file, "--start", "0", "--target", "2"]),
        (1, ["solve-reach", gap, "--start", "0", "--target", "0"]),
        (64, ["solve-reach", instance_file, "--start", "0"]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", "0", "--bogus"]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", "a,b"]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", ""]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", "0,,1"]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", "0,1,"]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", "0_1, 2,+1"]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", "0_1"]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", "+1"]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", " 2"]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", "\u0661"]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", "0,1,0"]),
        (1, ["solve-reach", instance_file, "--start", "0", "--target", "-1"]),
        (1, ["solve-reach", instance_file, "--start", "-1", "--target", "0"]),
        (64, ["solve-reach", instance_file, "--start", "0_0", "--target", "0"]),
        (64, ["solve-reach", instance_file, "--start", "+0", "--target", "0"]),
        (64, ["solve-reach", instance_file, "--start", " 0", "--target", "0"]),
        (64, ["solve-reach", instance_file, "--start", "\u0660", "--target", "0"]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", "0",
              "--node-budget", "1_000"]),
        (64, ["solve-reach", instance_file, "--start", "0", "--target", "0",
              "--node-budget", "+7"]),
        (0, ["solve-cover", frozen, "--start", "0", "--target", "0"]),
        (2, ["solve-cover", frozen, "--start", "0", "--target", "0,1"]),
        (64, ["solve-cover", frozen, "--target", "0"]),
        (64, ["solve-cover", frozen, "--start", "0", "--target", ","]),
        (0, ["brute-check", instance_file, "--start", "0", "--target", "0,1,2"]),
        (2, ["brute-check", instance_file, "--start", "0", "--target", "2"]),
        (64, ["brute-check", instance_file, "--start", "0", "--target", ""]),
        (64, ["brute-check", instance_file, "--start", "0", "--target", ",2"]),
        (64, ["brute-check", instance_file, "--start", "0", "--target", "2,2"]),
        (64, ["brute-check", instance_file, "--start", "0", "--target", "1_0"]),
        (64, ["brute-check", instance_file, "--start", "0", "--target", "",
              "--mode", "cover"]),
        (64, ["brute-check", instance_file, "--start", "0", "--target", "0",
              "--mode", "nope"]),
        (64, ["brute-check", instance_file, "--start", "0", "--target", "0",
              "--budget", "0"]),
        (64, ["brute-check", instance_file, "--start", "0", "--target", "0",
              "--max-len", "0"]),
        (1, ["brute-check", instance_file, "--start", "0", "--target", "0",
             "--max-len", "4"]),
        (64, ["brute-check", instance_file, "--start", "0_0", "--target", "0"]),
        (64, ["brute-check", instance_file, "--start", "0", "--target", "0",
              "--budget", "1_000"]),
        (64, ["brute-check", instance_file, "--start", "0", "--target", "0",
              "--max-len", "\u0662"]),
        (0, ["gen", "--seed", "1", "--states", "2", "--actions", "2",
             "--horizon", "2", "--gamma", "0.5", "-o", out]),
        (1, ["gen", "--seed", "1", "--states", "2", "--actions", "2",
             "--horizon", "2", "--gamma", "0.5", "-o",
             str(tmp_path / "no-such-dir" / "x.json")]),
        (1, ["gen", "--seed", "1", "--states", "2", "--actions", "2",
             "--horizon", "2", "--gamma", "1.5", "-o", invalid]),
        (64, ["gen", "--seed", "1"]),
        (64, ["gen", "--seed", "\u0663", "--states", "2", "--actions", "2",
              "--horizon", "2", "--gamma", "0.5", "-o", out]),
        (64, ["gen", "--seed", "1", "--states", "0_2", "--actions", "2",
              "--horizon", "2", "--gamma", "0.5", "-o", out]),
        (64, ["gen", "--seed", "1", "--states", "2", "--actions", "+2",
              "--horizon", "2", "--gamma", "0.5", "-o", out]),
        (64, ["gen", "--seed", "1", "--states", "2", "--actions", "2",
              "--horizon", " 2", "--gamma", "0.5", "-o", out]),
        *[(64, ["gen", "--seed", "1", *sizes, "--gamma", "0.5", "-o", out])
          for sizes in (["--states", "-1", "--actions", "2", "--horizon", "2"],
                        ["--states", "0", "--actions", "2", "--horizon", "2"],
                        ["--states", "2", "--actions", "0", "--horizon", "2"],
                        ["--states", "2", "--actions", "2", "--horizon", "-3"])],
        *[(64, ["gen", "--seed", "1", "--states", "2", "--actions", "2",
                "--horizon", "2", "--gamma", gamma, "-o", out]) for gamma in LOOSE_GAMMAS],
        (1, ["gen", "--seed", "1", "--states", "2", "--actions", "2",
             "--horizon", "2", "--gamma", "-0.5", "-o", invalid]),
        (0, ["demo-static-gap"]),
        (0, ["demo-static-gap", "--gamma", "1e-05"]),
        (1, ["demo-static-gap", "--gamma", "2"]),
        (1, ["demo-static-gap", "--gamma", "1E+3"]),
        (64, ["demo-static-gap", "--gamma", "not-a-number"]),
        *[(64, ["demo-static-gap", "--gamma", gamma]) for gamma in LOOSE_GAMMAS],
    ]
    spawned = set()
    for expected, argv in matrix:
        # The first row of each exit status runs as `python -m dmdp`, so a
        # process is seen to exit with every status that cli.main returns.
        proc = run_cli(*argv, spawn=expected not in spawned)
        spawned.add(expected)
        assert proc.returncode == expected, (argv, proc.returncode, proc.stderr)
        # An uncaught exception also exits 1.
        assert "Traceback" not in proc.stderr, (argv, proc.stderr)
        if expected in (0, 2):
            assert report_of(proc)["command"] == argv[0]
        if expected == 64:
            assert proc.stdout == ""
        if "--target" in argv and argv[argv.index("--target") + 1] in (
            "", ",", "0,,1", "0,1,", ",2", "0_1, 2,+1", "0_1", "+1", " 2", "\u0661", "1_0"
        ):
            assert "--target: expected one or more comma-separated state ids" in proc.stderr
        if "--target" in argv and argv[argv.index("--target") + 1] in ("0,1,0", "2,2"):
            assert "--target: expected distinct state ids" in proc.stderr
        if argv[-1:] == ["--bogus"]:
            assert proc.stderr.endswith("\ndmdp: error: unrecognized arguments: --bogus\n")
        if argv[-2:] == ["--target", "-1"]:
            assert proc.stderr == "error: state -1 out of range for 3 states\n"
        if argv[2:4] == ["--start", "-1"]:
            assert proc.stderr == "error: start state -1 out of range\n"
        for option, kind in INTEGER_OPTIONS.items():
            spelling = argv[argv.index(option) + 1] if option in argv else None
            if spelling in LOOSE_INTEGERS or (kind == "a positive integer"
                                              and spelling in ("-1", "0", "-3")):
                assert f"argument {option}: expected {kind}, got {spelling!r}" in proc.stderr
        if argv[-2:] == ["--init", "0,1,-1"]:
            assert proc.stderr == "error: action -1 for state 2 out of range\n"
        if "--init" in argv and expected == 64:
            assert "--init: expected ';'-separated epochs" in proc.stderr
        if argv[-2:] == ["--init", ""]:
            assert report_of(proc)["config"]["init"] == []
        gamma = argv[argv.index("--gamma") + 1] if "--gamma" in argv else None
        if gamma in ("1.5", "2", "1E+3", "-0.5"):
            assert proc.stdout == ""
            assert f"gamma_range at (): {float(gamma)}" in proc.stderr
        if gamma in LOOSE_GAMMAS + ("not-a-number",):
            assert f"argument --gamma: expected a decimal number, got {gamma!r}" in proc.stderr
        if gamma == "1e-05":
            assert report_of(proc)["result"]["gamma"] == 1e-05
    assert not os.path.exists(invalid)


def test_main_parses_as_the_top_level_parser(instance_file):
    # main's parse hands a command's arguments straight to its parser; the
    # exit code, both streams and the namespace are those of parse_args.
    from dmdp import cli

    def outcome(parse, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                namespace, code = vars(parse(argv)), None
            except SystemExit as exc:
                namespace, code = None, exc.code
        return code, out.getvalue(), err.getvalue(), namespace

    target = ["--start", "0", "--target", "0,1"]
    matrix = [
        *REPLAYED_RUNS,
        ["solve-reach", instance_file, *target],
        ["solve-cover", instance_file, *target, "--node-budget", "7", "--strict"],
        ["solve-reach", instance_file, "--start", "0"],
        ["gen", "--seed", "1"],
        ["solve-reach", instance_file, "--start", "x", "--target", "0"],
        ["solve-reach", instance_file, *target, "--node-budget", "0"],
        ["solve-reach", instance_file, "--start", "0", "--target", "0_1"],
        ["validate", instance_file, "--sign-mode", "nope"],
        ["solve-reach", instance_file, *target, "--bogus"],
        ["solve-reach", instance_file, *target, "--bogus=1", "extra"],
        ["value-star", instance_file, "extra"],
        ["value-star", instance_file, "--", "extra"],
        ["value-star", "--", instance_file],
        ["solve-reach", instance_file, "--star", "0", "--target", "0"],
        ["solve-reach", instance_file, *target, "--version"],
        ["solve-reach", "-h"],
        ["gen", "--help"],
        ["--version"],
        ["-h"],
        [],
        ["no-such-command", instance_file],
        ["--", "value-star", instance_file],
        ["--version", "value-star", instance_file],
        ["--bogus", "value-star", instance_file],
    ]
    codes = set()
    for argv in matrix:
        got = outcome(cli._parse_args, argv)
        assert got == outcome(cli.build_parser().parse_args, argv), argv
        codes.add(got[0])
    assert codes == {None, 0, 64}


# ---------------------------------------------------------------------------
# byte pins of the run reports, timing removed, and of the files they write;
# like the search pin in test_gds.py, the floats are tied to the machine's
# numpy/BLAS rounding


def _report_without_timing(text):
    """The report's bytes up to its last key, `timing`, which is dropped."""
    head, sep, tail = text.rpartition(',\n  "timing": {\n    "seconds": ')
    assert sep and re.fullmatch(r"[0-9.e+-]+\n  }\n}\n", tail), text
    return head


PINNED_RUNS = [
    (0, ["validate", "inst.json"],
     "0a1d735f962949d4251d93fb21b89c6edbf3b57b84b0e471bcc30ef05b77c7ca"),
    (1, ["validate", "gap.json", "--sign-mode", "nonpositive"],
     "d5e625e0ab4478366381586317eedc1b45ad48375ee3d7a5d1e2e1e2637cdf14"),
    (0, ["value-star", "inst.json"],
     "7fab056d25d936fba9f2f83f04240df854deefb215390a15d8d90ed1f2bec689"),
    (0, ["policy-iter", "inst.json", "--init", "0,0,0;1,1,1;0,1,0"],
     "272a29a19ff19c241553debfd4c40f8615ded0b1ffee298f5203fddc470f5843"),
    (0, ["policy-iter", "sparse.json"],
     "36cfff83ef801655ba3b6491be3b20ee4cc584b902ef16541257efe6210cc496"),
    (0, ["solve-reach", "sparse.json", "--start", "0", "--target", "2",
         "--verify", "--trace", "trace.json"],
     "159eb55bc6de26ae699dd622ac8115de702088feb9c51936839380539b3a6ae0"),
    (2, ["solve-reach", "inst.json", "--start", "0", "--target", "2"],
     "72309a0eadc672df29cd491b2aa758dcec06ef1c9c83b683c5204407bda78157"),
    (0, ["solve-cover", "sparse.json", "--start", "0", "--target", "0", "--strict",
         "--node-budget", "500"],
     "3f6d0d6dad64227e6c164f747d6c08d7a35ab985e84ffbd0e95f2fc3ad97ff47"),
    (0, ["brute-check", "sparse.json", "--start", "0", "--target", "2"],
     "da455835a79c5da976db0eed4639b7feed04b4f88e2e6c3880acdfc3cf3edb97"),
    (0, ["brute-check", "inst.json", "--start", "0", "--target", "2", "--mode", "cover",
         "--max-len", "2", "--budget", "100"],
     "d1b2a7693f2c574ee4ea0b90b65a4e1d28fb205cb57c8c4dd0210bce4bb55b3b"),
    (0, ["gen", "--seed", "5", "--states", "4", "--actions", "3", "--horizon", "3",
         "--gamma", "0.75", "-o", "made.json"],
     "f4aecf65775957b54d54d27e31f093dea304daf844026b6bfb9caf9ee96352f2"),
    (0, ["demo-static-gap"],
     "1941c4b4a782945bb989b437bd18d4c93a3c842c42a098f9436c0dba8758d9b9"),
]

PINNED_FILES = {
    "trace.json": "272cfd609f01c376e128198347cb9b6765a0b494a400a72028221c35bd355ebd",
    "made.json": "a07662427284037a6d377c84da7df9c3bbf8fa303f9c8ac227aceaec6588c6af",
}


def test_reports_and_written_files_are_pinned(tmp_path, monkeypatch):
    # A fixed relative path keeps config.file and config.out stable.
    monkeypatch.chdir(tmp_path)
    save(generate(7, 3, 2, 3, 0.5), "inst.json")
    save(make_static_gap_instance(), "gap.json")
    save(sparse_instance(1), "sparse.json")
    for code, argv, expected in PINNED_RUNS:
        proc = run_cli(*argv)
        assert proc.returncode == code, argv
        report = _report_without_timing(proc.stdout)
        assert hashlib.sha256(report.encode("utf-8")).hexdigest() == expected, argv
    for name, expected in PINNED_FILES.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == expected, name


def test_cached_parser_gives_a_fresh_process_report_after_a_usage_error(instance_file):
    usage = run_cli("solve-reach", instance_file, "--start", "1", "--target", "0",
                    "--strict", "--node-budget", "0")
    assert usage.returncode == 64
    argv = ["solve-reach", instance_file, "--start", "0", "--target", "0,1,2"]
    proc = run_cli(*argv)
    assert proc.returncode == 0
    in_process = _report_without_timing(proc.stdout)
    fresh = run_cli(*argv, spawn=True)
    assert fresh.returncode == 0
    assert in_process == _report_without_timing(fresh.stdout)
