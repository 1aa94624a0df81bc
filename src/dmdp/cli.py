"""Command-line interface.

Every subcommand prints a single JSON run report to stdout: command,
library version, instance digest, config, the result payload, and
wall-clock timing.  The config holds every option of the subcommand, in
its parser's order, with the value the run used: `max_len` after the
horizon default.
Exit codes: 0 success, 2 when a requested solution does not exist, 1 on
errors, 64 on usage errors.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
import time

from . import __version__
from .bellman import evaluate_policy, optimal_values, policy_iteration
from .composition import GoalSet
from .core import (
    DmdpError,
    EMPTY_POLICY,
    InstanceValidationError,
    TimeVaryingPolicy,
    make_static_gap_instance,
    validate,
)
from .gds import DEFAULT_NODE_BUDGET, GdsConfig, gds_search
from .oracle import DEFAULT_POLICY_BUDGET, brute_force_cover, brute_force_reach
# load is not called here, but perfbench's tracer wraps cli.load by name.
from .storage import digest, dumps_json, generate, load, read, save, write_file  # noqa: F401


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; the contract says 64.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


# A state id or an action: ASCII digits, with a '-' that leaves a negative
# number to the range checks.  int() alone would also take '0_1', '+1',
# ' 2' and non-ASCII digits.
_INTEGER = re.compile(r"-?[0-9]+")


def _parse_ints(text: str, sep: str) -> tuple[int, ...]:
    # An empty part, as in '' or '0,,1', is malformed, not skipped.
    parts = text.split(sep)
    if not all(_INTEGER.fullmatch(part) for part in parts):
        raise ValueError(text)
    return tuple(map(int, parts))


def _parse_states(text: str) -> list[int]:
    try:
        states = list(_parse_ints(text, ","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected one or more comma-separated state ids, got {text!r}"
        )
    if len(set(states)) < len(states):
        raise argparse.ArgumentTypeError(f"expected distinct state ids, got {text!r}")
    return states


def _parse_policy(text: str) -> tuple[tuple[int, ...], ...]:
    # '' is the empty policy, which a replayed `init: []` passes; any other
    # empty part, as in '0;;1' or '0,1;', is malformed.
    if text == "":
        return ()
    try:
        return tuple(_parse_ints(epoch, ",") for epoch in text.split(";"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected ';'-separated epochs of comma-separated actions, got {text!r}"
        )


def _parse_positive(text: str) -> int:
    try:
        number = int(text)
    except ValueError:
        number = 0
    if number < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return number


def _answer(best) -> dict:
    """The answer fields of a solve or brute-check report, from a search or
    oracle result, or from None when no policy meets the goal constraint."""
    if best is None:
        return {"found": False, "policy": None, "value": None, "goal": None}
    return {
        "found": True,
        "policy": best.policy.rules,
        "value": best.value,
        "goal": list(best.goal.members()),
    }


# Each _cmd_* writes back into args the option values it resolves and
# returns (instance digest, result, exit code); main echoes args as the
# report's config, times the run and prints the report.


def _cmd_validate(args):
    instance, instance_digest = read(args.file, check=False)
    report = validate(instance, sign_mode=args.sign_mode)
    if any(rule == "non_finite" for rule, _, _ in report.violations):
        # JSON has no canonical spelling of NaN or infinity, so neither the
        # digest nor the report can be written.
        raise InstanceValidationError(report, "instance holds non-finite numbers")
    result = {
        "ok": report.ok,
        "sign_mode_checked": args.sign_mode or instance.sign_mode,
        "violations": [
            {"rule": rule, "location": list(loc), "value": value}
            for rule, loc, value in report.violations
        ],
    }
    return instance_digest, result, 0 if report.ok else 1


def _cmd_value_star(args):
    instance, instance_digest = read(args.file)
    values = optimal_values(instance)
    return instance_digest, {"values": values.values}, 0


def _cmd_policy_iter(args):
    instance, instance_digest = read(args.file)
    result = policy_iteration(instance, TimeVaryingPolicy(args.init or ()))
    payload = {
        "policy": result.policy.rules,
        "values": result.values.values,
        "iterations": result.iterations,
    }
    return instance_digest, payload, 0


def _cmd_solve(args):
    instance, instance_digest = read(args.file)
    config_obj = GdsConfig(
        start=args.start,
        target=GoalSet.from_states(args.target, instance.num_states),
        mode=args.command.removeprefix("solve-"),
        strict_subset=args.strict,
        trace=args.trace is not None,
        verify=args.verify,
        node_budget=args.node_budget,
    )
    result = gds_search(instance, config_obj)
    if args.trace is not None:
        write_file(args.trace, (dumps_json(list(result.trace)).encode(), b"\n"))
    payload = {
        **_answer(result if result.found else None),
        "nodes_popped": result.nodes_popped,
        "nodes_pruned": result.nodes_pruned,
    }
    return instance_digest, payload, 0 if result.found else 2


def _cmd_brute_check(args):
    instance, instance_digest = read(args.file)
    target = GoalSet.from_states(args.target, instance.num_states)
    if args.max_len is None:
        args.max_len = instance.horizon
    solver = brute_force_reach if args.mode == "reach" else brute_force_cover
    best = solver(instance, args.start, target, args.max_len, budget=args.budget)
    return instance_digest, _answer(best), 0 if best is not None else 2


def _cmd_gen(args):
    instance = generate(args.seed, args.states, args.actions, args.horizon, args.gamma)
    validate(instance).require()
    instance_digest = save(instance, args.out)
    return instance_digest, {"path": args.out, "digest": instance_digest}, 0


def _cmd_demo_static_gap(args):
    instance = make_static_gap_instance(gamma=args.gamma)
    validate(instance).require()
    statics = {}
    for a in range(instance.num_actions):
        policy = TimeVaryingPolicy.from_actions([[a]] * instance.horizon)
        statics[f"static-action-{a}"] = float(
            evaluate_policy(instance, policy).values[0, 0]
        )
    star = optimal_values(instance)
    result = policy_iteration(instance, EMPTY_POLICY)
    payload = {
        "gamma": instance.gamma,
        "static_values": statics,
        "static_best": max(statics.values()),
        "dynamic_best": float(star.values[0, 0]),
        "dynamic_policy": result.policy.rules,
    }
    return digest(instance), payload, 0


def _build_parsers():
    """The top-level parser and its subparsers by command name."""
    parser = _Parser(prog="dmdp", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("validate", help="check an instance file's model invariants")
    p.add_argument("file")
    p.add_argument("--sign-mode", choices=["any", "nonpositive"], default=None,
                   help="override the file's declared reward sign regime")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("value-star", help="optimal value table by backward induction")
    p.add_argument("file")
    p.set_defaults(func=_cmd_value_star)

    p = sub.add_parser("policy-iter", help="policy iteration to a fixed point")
    p.add_argument("file")
    p.add_argument("--init", type=_parse_policy, default=None,
                   help="initial policy, e.g. '0,1;1,0' (epochs ';', actions ',')")
    p.set_defaults(func=_cmd_policy_iter)

    for mode in ("reach", "cover"):
        p = sub.add_parser(
            f"solve-{mode}",
            help=f"best-first search for the best {mode}ing policy",
        )
        p.add_argument("file")
        p.add_argument("--start", type=int, required=True)
        p.add_argument("--target", type=_parse_states, required=True,
                       help="comma-separated state ids")
        p.add_argument("--strict", action="store_true",
                       help="use proper-subset goal inclusions")
        p.add_argument("--verify", action="store_true",
                       help="re-derive queued values by exact evaluation")
        p.add_argument("--node-budget", type=_parse_positive, default=DEFAULT_NODE_BUDGET)
        p.add_argument("--trace", default=None, metavar="PATH",
                       help="write the search event log to PATH")
        p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("brute-check", help="exhaustive baseline for solve results")
    p.add_argument("file")
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--target", type=_parse_states, required=True)
    p.add_argument("--mode", choices=["reach", "cover"], default="reach")
    p.add_argument("--max-len", type=_parse_positive, default=None)
    p.add_argument("--budget", type=_parse_positive, default=DEFAULT_POLICY_BUDGET)
    p.set_defaults(func=_cmd_brute_check)

    p = sub.add_parser("gen", help="generate a reproducible random instance file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--states", type=int, required=True)
    p.add_argument("--actions", type=int, required=True)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("-o", "--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser(
        "demo-static-gap",
        help="show time-varying policies beating every static one",
    )
    p.add_argument("--gamma", type=float, default=1.0 - 1e-9)
    p.set_defaults(func=_cmd_demo_static_gap)

    return parser, sub.choices


def build_parser() -> argparse.ArgumentParser:
    return _build_parsers()[0]


# Building the parsers costs far more than parsing with them, and parsing
# leaves them unchanged, so one set serves every call in a process.
_parsers = functools.cache(_build_parsers)


def _parse_args(argv) -> argparse.Namespace:
    """Parse argv as build_parser().parse_args does, with the same
    namespace, output and exit status.  After a command name, the top-level
    parser hands every argument to that command's parser; here they go to
    it directly, and the top-level parser reports only what it leaves."""
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, rest = commands[argv[0]].parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0])
    )
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    started = time.perf_counter()
    try:
        instance_digest, result, code = args.func(args)
        # Every attribute but those that pick and run the subcommand is an option.
        config = {key: value for key, value in vars(args).items()
                  if key not in ("command", "func")}
        report = {
            "command": args.command,
            "library_version": __version__,
            "instance_digest": instance_digest,
            "config": config,
            "result": result,
            "timing": {"seconds": time.perf_counter() - started},
        }
        print(dumps_json(report))
    except (DmdpError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
