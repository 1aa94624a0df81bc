"""dmdp benchmark: one closed-loop client issuing in-process CLI calls.

Run from the root of a dmdp checkout:

    python3 perfbench/run.py --workload search-sparse --seed 3 --seconds 25 --trace 0

Each op is one `dmdp.cli.main(argv)` call with stdout captured, so it runs
the whole pipeline a user runs: load, validate, digest, solve and the JSON
report.  The program sees only the instance files written at set-up.  The
client runs whole passes over the workload's op list until --seconds is
used up, at least one pass, and starts no thread or process while it
times.  Every op's answer is checked between ops, outside the timed
region (checks.py).  Timings are reported in reference seconds, which
take out the drift of the host's speed (speed.py).

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and prints the per-layer metrics (tracing.py), each
averaged per traced pass.  The last stdout line is a JSON object with the
keys correct, attempted, failed and metrics; the lines before it record
the machine and the sample counts.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

from checks import Checker
from speed import Calibrator
from tracing import UNMEASURED, Recorder
from workloads import WORKLOADS, build

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
OUT = os.path.join(ROOT, ".perfbench_out")
GOLDEN = os.path.join(HERE, "golden")

SETUP_REPEATS = 5
SHORT_S = 0.02
SHORT_CALLS = 3

# name -> unit.  BENCHMARK.json lists the same names with the same units.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "write_p50_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.main_s": "s",
    "cli.self_s": "s",
    "storage.parse_s": "s",
    "storage.digest_s": "s",
    "storage.dumps_json_s": "s",
    "storage.bytes_read": "B",
    "storage.bytes_emitted": "B",
    "storage.generate_s": "s",
    "storage.save_s": "s",
    "storage.bytes_written": "B",
    "core.validate_s": "s",
    "core.validate_calls": "count",
    "core.us_per_cell": "us",
    "bellman.optimal_values_s": "s",
    "bellman.policy_iteration_s": "s",
    "bellman.pi_iterations": "count",
    "bellman.evaluate_policy_s": "s",
    "bellman.evaluate_policy_calls": "count",
    "bellman.us_per_eval_epoch": "us",
    "gds.search_s": "s",
    "gds.self_s": "s",
    "gds.heap_s": "s",
    "gds.us_per_push": "us",
    "gds.nodes_popped": "count",
    "gds.nodes_pushed": "count",
    "gds.nodes_pruned": "count",
    "gds.peak_heap": "count",
    "gds.pops_per_push": "frac",
    "gds.prunes_per_pop": "frac",
    "composition.support_of_s": "s",
    "composition.support_of_calls": "count",
    "composition.goal_set_s": "s",
    "composition.goal_set_calls": "count",
    "oracle.brute_s": "s",
    "oracle.policies_enumerated": "count",
    "oracle.us_per_policy": "us",
    "trace.overhead_frac": "frac",
    "trace.self_sum_frac": "frac",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="tiny instances and op lists, for the benchmark's own tests")
    p.add_argument("--record-golden", action="store_true",
                   help="run one pass on seed 0 and write its answers to golden/")
    p.add_argument("--setup-only", metavar="DIR",
                   help="write the instance files to DIR and run one warm-up op (used "
                        "by the parent run to time set-up in a fresh process)")
    return p.parse_args(argv)


def import_dmdp():
    """Import dmdp from this checkout's src/, never from an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "dmdp", "__init__.py")):
        raise SystemExit(f"error: no dmdp source under {SRC}; run from a dmdp checkout")
    sys.path.insert(0, SRC)
    import dmdp
    import dmdp.cli

    if os.path.dirname(os.path.dirname(os.path.abspath(dmdp.__file__))) != SRC:
        raise SystemExit(f"error: imported dmdp from {dmdp.__file__}, not from {SRC}")
    return dmdp


def run_op(dmdp, argv):
    """One CLI call; returns (exit code, start, end, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = dmdp.cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 1
        except Exception:  # an op that crashes counts as failed; keep the client running
            rc = -1
            traceback.print_exc()
        t1 = time.perf_counter()
    return rc, t0, t1, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# Set-up


def write_files(dmdp, plan, directory):
    os.makedirs(directory, exist_ok=True)
    for spec in plan.files.values():
        dmdp.save(spec.make(), os.path.join(directory, spec.name))


def setup_only(args) -> int:
    """Body of one timed set-up: runs in a fresh interpreter."""
    dmdp = import_dmdp()
    plan = build(args.workload, args.seed, args.smoke)
    write_files(dmdp, plan, args.setup_only)
    rc, _, _, _, err = run_op(dmdp, plan.ops[0].argv(args.setup_only, plan.files))
    # The timed runs check every answer; set-up only fails on a crash or a
    # usage error.
    if rc not in (0, 1, 2):
        sys.stderr.write(err)
        return 1
    return 0


def timed_setups(args, run_dir):
    """Median time, in reference seconds, of SETUP_REPEATS fresh-process
    set-ups; the files of the last one are the ones the run reads.  The
    kernel samples, taken while the child runs on the other vCPU, are
    not taken out of its time."""
    cal = Calibrator()
    spans = []
    with cal.sampling():
        # Set-up -1 is untimed: the first of a run took up to 40% longer
        # than the rest.
        for k in range(-1, SETUP_REPEATS):
            directory = os.path.join(run_dir, f"setup-{k}")
            cmd = [sys.executable, os.path.abspath(__file__), "--setup-only", directory,
                   "--workload", args.workload, "--seed", str(args.seed)]
            if args.smoke:
                cmd.append("--smoke")
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
            t1 = time.perf_counter()
            spans.append((t0, t1, t1 - t0))
            if proc.returncode != 0:
                raise SystemExit(f"error: set-up failed:\n{proc.stderr}")
            if k >= 0:
                shutil.rmtree(os.path.join(run_dir, f"setup-{k - 1}"))
    cal.sample()
    return statistics.median(cal.reference_seconds(*span) for span in spans[1:]), directory


# ---------------------------------------------------------------------------
# Passes


class Tally:
    def __init__(self):
        self.ops: list = []
        # (start, end, seconds) per op; seconds leaves out kernel samples.
        self.measured: list[tuple[float, float, float]] = []
        self.failed = 0
        self.problems: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.ops)

    def add(self, op, start, end, seconds, problems):
        self.ops.append(op)
        self.measured.append((start, end, seconds))
        if problems:
            self.failed += 1
            self.problems += [f"{op.key}: {p}" for p in problems]


def run_pass(dmdp, plan, argvs, checker, tally, calibrator, recorder=None, repeat=False):
    """One pass over the op list; the checks and the speed samples run
    between ops, outside the timed calls.  With `repeat`, an op whose call
    takes under SHORT_S is called SHORT_CALLS times in a row and its time
    is the median: on a shared host a single call that short is now and
    then twice as slow as the next, and with one call per op those
    outliers spread op_p50_s on search-sparse by 8% from run to run."""
    for i, op in enumerate(plan.ops):
        if recorder is not None:
            recorder.op = len(tally.ops)
        times, problems = [], []
        while True:
            # Start every call from an empty young generation, as a fresh
            # dmdp process would.  Otherwise whether a full collection
            # lands inside a call depends on every allocation before it,
            # including the checker's, and a 3 ms call sometimes takes
            # 90 ms more.
            gc.collect()
            rc, start, end, out, err = run_op(dmdp, argvs[i])
            times.append(end - start - calibrator.sampled_within(start, end))
            problems += checker.check(op, rc, out, err)
            if not repeat or times[0] >= SHORT_S or len(times) == SHORT_CALLS:
                break
        # The reference window is the last call's, which is as long as
        # the median's.
        tally.add(op, start, end, statistics.median(times), problems)
        calibrator.tick()


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: the mean of the order
    statistics weighted by a Beta(p(n+1), (1-p)(n+1)) distribution.  A
    workload's latencies cluster by query class, and a single order
    statistic jumps between clusters from run to run; the weighted mean
    moves smoothly."""
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # Beta mass of each interval ((i-1)/n, i/n], by the midpoint rule.
    steps = 200
    mid = (np.arange(steps * n) + 0.5) / (steps * n)
    log_pdf = ((a - 1) * np.log(mid) + (b - 1) * np.log1p(-mid)
               + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    mass = np.exp(log_pdf).reshape(n, steps).sum(axis=1)
    return float(mass @ x / mass.sum())


def passes_until(seconds, one_pass):
    """Run whole passes until the next one would end more than half a pass
    past `seconds`; always at least one."""
    started = time.perf_counter()
    passes = 0
    while True:
        one_pass()
        passes += 1
        elapsed = time.perf_counter() - started
        if elapsed + elapsed / passes / 2 > seconds:
            return passes, elapsed


def end_to_end(dmdp, plan, argvs, checker, seconds, setup_s):
    tally = Tally()
    cal = Calibrator()
    with cal.sampling():
        passes, wall = passes_until(
            seconds, lambda: run_pass(dmdp, plan, argvs, checker, tally, cal, repeat=True))
    cal.sample()
    lat = [cal.reference_seconds(*m) for m in tally.measured]
    writes = [x for x, op in zip(lat, tally.ops) if op.is_write]
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_s": quantile(lat, 0.5),
        "op_p90_s": quantile(lat, 0.9),
        "write_p50_s": quantile(writes, 0.5),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    raw = [s for _, _, s in tally.measured]
    samples = {
        "passes": passes,
        "ops": len(lat),
        "writes": len(writes),
        "beyond_p90": sum(1 for x in lat if x > metrics["op_p90_s"]),
        "wall_s": wall,
        "measured_ops_per_s": len(raw) / sum(raw),
        "measured_op_p50_s": statistics.median(raw),
        "kernel_median_s": statistics.median(cal.kernels),
        "kernel_samples": len(cal.kernels),
    }
    per_op = [{"key": op.key, "measured_s": s, "reference_s": x}
              for op, (_, _, s), x in zip(tally.ops, tally.measured, lat)]
    return tally, metrics, samples, per_op


def per_layer(dmdp, plan, argvs, checker, seconds):
    tally = Tally()
    rec = Recorder()
    cal = Calibrator()
    traced_ops: list[int] = []

    def pair():
        run_pass(dmdp, plan, argvs, checker, tally, cal)
        traced_ops[:] = range(len(tally.ops), len(tally.ops) + len(plan.ops))
        rec.install()
        try:
            run_pass(dmdp, plan, argvs, checker, tally, cal, rec)
        finally:
            rec.restore()

    passes, _ = passes_until(seconds, pair)
    cal.sample()
    # Overhead compares reference seconds, so host drift between the
    # untraced and the traced pass does not show up as tracing cost.
    ref = [cal.reference_seconds(*m) for m in tally.measured]
    is_traced = [(i // len(plan.ops)) % 2 == 1 for i in range(len(ref))]
    untraced = sum(x for x, t in zip(ref, is_traced) if not t)
    traced = sum(x for x, t in zip(ref, is_traced) if t)
    traced_measured = sum(s for (_, _, s), t in zip(tally.measured, is_traced) if t)

    own = rec.self_times()
    n = rec.count

    def ratio(a, b):
        return a / b if b else 0.0

    search_s = rec.total("gds.search")
    metrics = {name: own.get(name, 0.0) / passes for name in PER_LAYER if name.endswith("_s")}
    metrics.update({
        "cli.main_s": rec.total("cli.main") / passes,
        "gds.search_s": search_s / passes,
        "core.us_per_cell": 1e6 * ratio(own["core.validate_s"], n["core.cells"]),
        "bellman.us_per_eval_epoch": 1e6 * ratio(own["bellman.evaluate_policy_s"],
                                                 n["bellman.eval_epochs"]),
        "gds.us_per_push": 1e6 * ratio(search_s, n["gds.nodes_pushed"]),
        "gds.peak_heap": rec.peak_heap,
        "gds.pops_per_push": ratio(n["gds.nodes_popped"], n["gds.nodes_pushed"]),
        "gds.prunes_per_pop": ratio(n["gds.nodes_pruned"], n["gds.nodes_popped"]),
        "oracle.us_per_policy": 1e6 * ratio(rec.total("oracle.brute"),
                                            n["oracle.policies_enumerated"]),
        "trace.overhead_frac": traced / untraced - 1.0,
        "trace.self_sum_frac": sum(own.values()) / traced_measured,
    })
    for name, unit in PER_LAYER.items():
        if unit in ("count", "B") and name not in metrics:
            metrics[name] = n[name] / passes
    # Pops of the ROADMAP cases in the last traced pass.
    roadmap = {op.key: rec.op_pops.get(i, 0)
               for i, op in zip(traced_ops, plan.ops) if op.key.startswith("roadmap")}
    info = {"passes": passes, "traced_ops": len(ref) // 2,
            "untraced_busy_s": untraced, "traced_busy_s": traced,
            "unmeasured": UNMEASURED}
    return tally, metrics, info, rec, roadmap


# ---------------------------------------------------------------------------
# Machine stamp


def _commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        with open(os.path.join(ROOT, ".git", head[5:])) as f:
            return f.read().strip()
    except OSError:
        return None  # not a git checkout; source_sha256 identifies the code


def _source_sha256():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "dmdp", "*.py"))):
        h.update(os.path.basename(path).encode() + b"\0")
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def _blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    import numpy

    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def stamp(seed):
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": _commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                     if k in os.environ},
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    if args.record_golden and (args.seed != 0 or args.smoke):
        raise SystemExit("error: golden answers are recorded on seed 0 without --smoke")
    dmdp = import_dmdp()

    run_dir = os.path.join(WORK, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(OUT, exist_ok=True)
    try:
        setup_s, workdir = timed_setups(args, run_dir)
        plan = build(args.workload, args.seed, args.smoke)
        instances = {name: dmdp.load(os.path.join(workdir, name)) for name in plan.files}
        golden = None
        golden_path = os.path.join(GOLDEN, f"{args.workload}.json")
        if not args.smoke and not args.record_golden:
            with open(golden_path) as f:
                golden = json.load(f)["answers"]
        checker = Checker(plan, instances, golden)
        argvs = [op.argv(os.path.relpath(workdir, ROOT), plan.files) for op in plan.ops]
        run_op(dmdp, argvs[0])  # untimed warm-up

        env = stamp(args.seed)
        print(json.dumps({"stamp": env}))
        if args.record_golden:
            tally = Tally()
            run_pass(dmdp, plan, argvs, checker, tally, Calibrator())
            if tally.failed:
                raise SystemExit("error: not recording golden answers that fail their "
                                 "checks:\n" + "\n".join(tally.problems[:20]))
            os.makedirs(GOLDEN, exist_ok=True)
            with open(golden_path, "w") as f:
                json.dump({"workload": args.workload, "seed": 0, "answers": checker.answers},
                          f, indent=1, sort_keys=True)
                f.write("\n")
            print(json.dumps({"recorded": os.path.relpath(golden_path, ROOT),
                              "answers": len(checker.answers)}))
            return 0
        if args.trace:
            tally, metrics, info, rec, roadmap = per_layer(dmdp, plan, argvs, checker,
                                                           args.seconds)
            trace_path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.jsonl")
            rec.write(trace_path, {"stamp": env, "workload": args.workload, **info})
            info.update(trace_file=os.path.relpath(trace_path, ROOT), roadmap_pops=roadmap)
            print(json.dumps({"trace": info}))
            details = info
            units = PER_LAYER
        else:
            tally, metrics, samples, details = end_to_end(dmdp, plan, argvs, checker,
                                                          args.seconds, setup_s)
            print(json.dumps({"samples": samples}))
            units = END_TO_END
        for line in tally.problems[:20]:
            print(f"wrong answer: {line}", file=sys.stderr)
        result = {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units.items()},
        }
        with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as f:
            json.dump({"stamp": env, **result, "details": details}, f, indent=1)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
