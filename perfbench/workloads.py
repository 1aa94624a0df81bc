"""Workload plans: the instance files each workload writes and the CLI ops
one pass of it issues.

A plan is a pure function of (workload, seed): the same seed gives the
same files and the same op list.  How the seed is used differs by workload:

- io-large draws its `dmdp.generate` seeds from it.  Its cost depends on
  the file sizes, not on the drawn numbers, so the seed moves the data but
  not the work.
- The other workloads use a fixed family of base instances and let the
  seed pick a relabelling of states and of each state's actions.  A
  relabelled instance is isomorphic to its base, so the search does the
  same work on it and every answer maps back to the base answer, which is
  what lets the answer check compare values on any seed.  Random instances
  instead would make the cost of a pass vary several-fold from seed to
  seed (measured: 0.4 s to 7 s for 24 queries on one 3x3x4 shape), far
  more than the regressions the benchmark has to resolve.  Seed 0 uses the
  identity relabelling, so the default run reads the base instances.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from sparse import sparse_instance

WORKLOADS = ("io-large", "search-sparse", "search-dense-drain", "selfcheck")

# The ROADMAP's fixed search cases.  Neither depends on the seed.
ROADMAP_DRAIN = (1, 4, 2, 4, 0.5)  # reach {0} from 0: infeasible, drains 55,441 pops
ROADMAP_BUDGET = (1, 4, 3, 4, 0.5)  # reach {0} from 0: exceeds any small pop budget
BUDGET_POPS = 500


@dataclass(frozen=True)
class Relabel:
    """An isomorphism of an instance: base state s becomes states[s], and
    base action a at base state s becomes actions[s][a]."""

    states: tuple[int, ...]
    actions: tuple[tuple[int, ...], ...]

    @staticmethod
    def identity(num_states: int, num_actions: int) -> "Relabel":
        return Relabel(
            tuple(range(num_states)),
            tuple(tuple(range(num_actions)) for _ in range(num_states)),
        )

    @staticmethod
    def draw(rng: random.Random, num_states: int, num_actions: int) -> "Relabel":
        states = list(range(num_states))
        rng.shuffle(states)
        actions = []
        for _ in range(num_states):
            perm = list(range(num_actions))
            rng.shuffle(perm)
            actions.append(tuple(perm))
        return Relabel(tuple(states), tuple(actions))

    def apply(self, instance):
        from dmdp import DmdpInstance

        S, A = instance.num_states, instance.num_actions
        sigma = np.array(self.states)
        tau = np.array(self.actions)
        P = np.zeros_like(instance.transition)
        R = np.zeros_like(instance.reward)
        for s in range(S):
            for a in range(A):
                P[sigma[s], tau[s, a], sigma] = instance.transition[s, a]
                R[:, sigma[s], tau[s, a]] = instance.reward[:, s, a]
        return DmdpInstance(
            num_states=S,
            num_actions=A,
            horizon=instance.horizon,
            gamma=instance.gamma,
            r_max=instance.r_max,
            transition=P,
            reward=R,
            sign_mode=instance.sign_mode,
            metadata=dict(instance.metadata),
        )

    def goal_to_base(self, members) -> list[int]:
        inverse = {new: old for old, new in enumerate(self.states)}
        return sorted(inverse[s] for s in members)

    def policy_to_base(self, rows) -> list[list[int]]:
        base = []
        for row in rows:
            base.append([self.actions[s].index(row[self.states[s]]) for s in range(len(row))])
        return base


@dataclass(frozen=True)
class FileSpec:
    """One instance file of a workload.  gen_args is set when the file is
    exactly `dmdp.generate(*gen_args)`, which is what a `gen` op rewrites."""

    name: str
    make: Callable
    gen_args: tuple | None = None
    relabel: Relabel | None = None


@dataclass(frozen=True)
class Op:
    """One CLI call.  key names the op in base labels and is what golden
    answers and cross-checks are keyed by; start and target are in the
    file's own labels."""

    key: str
    cmd: str
    file: str
    start: int | None = None
    target: tuple[int, ...] | None = None
    mode: str | None = None
    extra: tuple[str, ...] = ()
    expect: str = "any"  # "any", "absent" or "budget-or-absent"
    partner: str | None = None  # op key whose answer this one must match

    @property
    def is_write(self) -> bool:
        return self.cmd == "gen"

    def argv(self, workdir: str, files: dict[str, FileSpec]) -> list[str]:
        path = f"{workdir}/{self.file}"
        if self.cmd == "gen":
            seed, S, A, T, gamma = files[self.file].gen_args
            return [
                "gen", "--seed", str(seed), "--states", str(S), "--actions", str(A),
                "--horizon", str(T), "--gamma", repr(gamma), "-o", path,
            ]
        argv = [self.cmd, path]
        if self.start is not None:
            argv += ["--start", str(self.start), "--target", ",".join(map(str, self.target))]
        if self.cmd == "brute-check":
            argv += ["--mode", self.mode]
        return argv + list(self.extra)


@dataclass
class Plan:
    workload: str
    seed: int
    files: dict[str, FileSpec] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)

    def add_file(self, spec: FileSpec) -> FileSpec:
        self.files[spec.name] = spec
        return spec


def _generated(name: str, args: tuple) -> FileSpec:
    return FileSpec(name, lambda: _generate(*args), gen_args=args)


def _relabelled(name: str, base: Callable, base_args: tuple, relabel: Relabel) -> FileSpec:
    return FileSpec(name, lambda: relabel.apply(base(*base_args)), relabel=relabel)


def _generate(*args):
    from dmdp import generate

    return generate(*args)


def _relabel_for(rng: random.Random, seed: int, num_states: int, num_actions: int) -> Relabel:
    if seed == 0:
        return Relabel.identity(num_states, num_actions)
    return Relabel.draw(rng, num_states, num_actions)


def _query(key_prefix, spec, cmd, start, target, mode=None, **kw) -> Op:
    relabel = spec.relabel
    s = relabel.states[start] if relabel else start
    t = tuple(sorted(relabel.states[x] for x in target)) if relabel else tuple(target)
    name = f"{cmd}-{mode}" if mode else cmd
    key = f"{key_prefix} {name} start={start} target={','.join(map(str, target))}"
    return Op(key=key, cmd=cmd, file=spec.name, start=s, target=t, mode=mode, **kw)


def _interleave_writes(reads: list[Op], writes: list[Op], every: int) -> list[Op]:
    """One write after every `every` reads, cycling through `writes`."""
    every = min(every, len(reads))
    ops, k = [], 0
    for i, op in enumerate(reads, 1):
        ops.append(op)
        if i % every == 0:
            ops.append(writes[k % len(writes)])
            k += 1
    return ops


# ---------------------------------------------------------------------------
# io-large: parse, validate, digest and report cost on big dense files.


def _io_large(plan: Plan, rng: random.Random, smoke: bool) -> None:
    small_shape, big_shape = ((8, 2, 5), (12, 2, 5)) if smoke else ((64, 4, 50), (200, 4, 50))
    gammas = (0.5, 0.9, 0.95, 0.99)
    small = [
        plan.add_file(_generated(f"io-{small_shape[0]}-{i}.json",
                                 (rng.randrange(2**31), *small_shape, gammas[i])))
        for i in range(1 if smoke else 4)
    ]
    big = plan.add_file(_generated(f"io-{big_shape[0]}.json",
                                   (rng.randrange(2**31), *big_shape, 0.95)))
    commands = ("validate", "value-star", "policy-iter")
    reads = []
    rounds = 1 if smoke else 6
    for r in range(rounds):
        for spec in small:
            reads += [Op(f"{c} {spec.name} round={r}", c, spec.name) for c in commands]
        # The S=200 file is read three times per pass, once per command.
        if r % 2 == 1 or smoke:
            c = commands[r // 2]
            reads.append(Op(f"{c} {big.name}", c, big.name))
    writes = [Op(f"gen {spec.name}", "gen", spec.name) for spec in small]
    # About one op in four writes a file.
    plan.ops = _interleave_writes(reads, writes, 3)


# ---------------------------------------------------------------------------
# search-sparse: goal sets that vary, so termination and pruning both fire.

SPARSE_SHAPES = ((3, 3, 4), (4, 2, 4), (5, 2, 3))
SPARSE_GAMMAS = (0.1, 0.3)


TARGET_CLASSES = ("single", "pair", "all-but-one")


def _target(S: int, start: int, cls: str) -> tuple[int, ...]:
    pivot = (start + 1) % S
    if cls == "single":
        return (start,)
    if cls == "pair":
        return tuple(sorted({start, pivot}))
    return tuple(x for x in range(S) if x != pivot)


def _search_sparse(plan: Plan, rng: random.Random, smoke: bool) -> None:
    shapes = ((3, 2, 2),) if smoke else SPARSE_SHAPES
    reads = []
    k = 0
    for S, A, T in shapes:
        for gamma in SPARSE_GAMMAS:
            spec = plan.add_file(_relabelled(
                f"sparse-{S}x{A}x{T}-g{gamma}.json", sparse_instance,
                (S * 10 + int(gamma * 10), S, A, T, gamma), _relabel_for(rng, plan.seed, S, A)))
            combos = itertools.product((0, 1), ("reach", "cover"), enumerate(TARGET_CLASSES))
            for start, mode, (ci, cls) in combos:
                # Half of the 12 (start, mode, class) combinations per
                # instance, alternating, keeps a pass near twelve seconds.
                if (start + (mode == "cover") + ci + k) % 2:
                    continue
                reads.append(_query(spec.name, spec, f"solve-{mode}", start,
                                    _target(S, start, cls)))
            k += 1
    budget = plan.add_file(_generated("roadmap-4x3x4.json", ROADMAP_BUDGET))
    # Dense rows make every goal set full, so the answer is "absent"; the
    # search cannot show that and exhausts its budget first.
    reads.append(Op("roadmap-4x3x4 solve-reach start=0 target=0 budget", "solve-reach",
                    budget.name, start=0, target=(0,),
                    extra=("--node-budget", str(BUDGET_POPS)), expect="budget-or-absent"))
    writes = [Op(f"gen {budget.name}", "gen", budget.name)]
    # A write after every read.  Two passes fit in a run, and the writes
    # bring them to 100 ops or more.  They also put the median inside the
    # dense cluster of millisecond ops: with one write per two reads it sat
    # at the cluster's upper edge, where the next query class starts, and
    # moved by 12% from run to run.
    plan.ops = _interleave_writes(reads, writes, 1)


# ---------------------------------------------------------------------------
# search-dense-drain: infeasible queries that pop every node.

DRAIN_BASES = ((11, 3, 2, 4), (12, 3, 2, 4), (13, 3, 2, 4), (14, 3, 2, 4), (11, 4, 2, 3),
               (12, 4, 2, 3), (11, 3, 3, 3))


def _search_dense_drain(plan: Plan, rng: random.Random, smoke: bool) -> None:
    bases = ((11, 3, 2, 2),) if smoke else DRAIN_BASES
    reads = []
    for b, S, A, T in bases:
        spec = plan.add_file(_relabelled(f"dense-{b}-{S}x{A}x{T}.json", _generate,
                                         (b, S, A, T, 0.5), _relabel_for(rng, plan.seed, S, A)))
        # The 4x2x3 queries, a fifth of the ops, hold the 90th percentile.
        # Only the 3x3x3 query and the ROADMAP query are slower, and they
        # are kept to 4% of the ops so that the quantile does not reach them.
        starts, targets_per_start = ((0,), 1) if A == 3 else ((0, 1), 3)
        for start in starts:
            # Proper subsets only: with dense rows the goal set of every
            # nonempty policy is the full state set, so none can be reached.
            proper = [t for n in range(1, S) for t in itertools.combinations(range(S), n)]
            for target in proper[start * 3: start * 3 + targets_per_start]:
                reads.append(_query(spec.name, spec, "solve-reach", start, target,
                                    expect="absent"))
    if not smoke:
        roadmap = plan.add_file(_generated("roadmap-4x2x4.json", ROADMAP_DRAIN))
        reads.append(Op("roadmap-4x2x4 solve-reach start=0 target=0", "solve-reach",
                        roadmap.name, start=0, target=(0,), expect="absent"))
        writes = [Op(f"gen {roadmap.name}", "gen", roadmap.name)]
    else:
        tiny = plan.add_file(_generated("tiny-3x2x2.json", (1, 3, 2, 2, 0.5)))
        writes = [Op(f"gen {tiny.name}", "gen", tiny.name)]
    # A pass takes about a third of a run; the writes, one after every
    # two reads, bring three passes to 100 ops or more and give
    # write_p50_s about 60 samples.
    plan.ops = _interleave_writes(reads, writes, 2)


# ---------------------------------------------------------------------------
# selfcheck: verify mode and the brute-force oracle on the same queries.


def _selfcheck(plan: Plan, rng: random.Random, smoke: bool) -> None:
    n = 1 if smoke else 4
    reads = []
    writes = []
    # The first acceptance-corpus instances, generate(c, 3, 2, 3, 0.5).  The
    # gen ops rewrite them; the queries read their relabelled copies.
    for c in range(n):
        base = plan.add_file(_generated(f"corpus-{c}.json", (c, 3, 2, 3, 0.5)))
        writes.append(Op(f"gen {base.name}", "gen", base.name))
        spec = plan.add_file(_relabelled(f"corpus-{c}-relabelled.json", _generate,
                                         base.gen_args, _relabel_for(rng, plan.seed, 3, 2)))
        # Found at depth one, found at depth one, and infeasible (drains).
        queries = (("reach", (0, 1, 2)), ("cover", (0,)), ("reach", (0,)))
        for mode, target in queries:
            reads += _verified_pair(f"corpus-{c}", spec, mode, 0, target)
    for i in range(n):
        spec = plan.add_file(_relabelled(f"small-sparse-{i}.json", sparse_instance,
                                         (500 + i, 3, 2, 3, 0.5), _relabel_for(rng, plan.seed, 3, 2)))
        for mode, cls in (("reach", "single"), ("cover", "pair"), ("reach", "all-but-one")):
            reads += _verified_pair(spec.name, spec, mode, i % 2, _target(3, i % 2, cls))
    plan.ops = _interleave_writes(reads, writes, 6)


def _verified_pair(prefix, spec, mode, start, target) -> list[Op]:
    solve = _query(prefix, spec, f"solve-{mode}", start, target, extra=("--verify",))
    brute = _query(prefix, spec, "brute-check", start, target, mode=mode,
                   partner=solve.key)
    return [solve, brute]


_BUILDERS = {
    "io-large": _io_large,
    "search-sparse": _search_sparse,
    "search-dense-drain": _search_dense_drain,
    "selfcheck": _selfcheck,
}


def build(workload: str, seed: int, smoke: bool = False) -> Plan:
    plan = Plan(workload, seed)
    _BUILDERS[workload](plan, random.Random(f"{workload}:{seed}"), smoke)
    return plan
