import contextlib
import io
import subprocess
import sys

import numpy as np
import pytest

from dmdp import DmdpError, DmdpInstance, cli, digest, generate, load, read


def run_cli(*args, spawn=False):
    """Run `dmdp *args` and return its exit code and both streams as a
    subprocess.CompletedProcess.

    The CLI runs in this process: cli.main with stdout and stderr
    redirected, and argparse's SystemExit read by the interpreter's rule
    (None is 0, an int is itself).  An uncaught exception propagates and
    fails the test.  spawn=True runs `python -m dmdp` in a new process
    instead, for the tests whose subject is the process boundary.
    """
    if spawn:
        return subprocess.run([sys.executable, "-m", "dmdp", *args],
                              capture_output=True, text=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return subprocess.CompletedProcess(list(args), code, out.getvalue(), err.getvalue())


def sparse_instance(seed, num_states=3, num_actions=2, horizon=3, gamma=0.5):
    """Random instance whose kernel rows have random supports, so goal
    sets actually vary across policies (the packaged generator produces
    dense rows, where every goal set collapses to the full state set).
    Every positive entry exceeds 0.2 / num_states, so at the horizons the
    tests use no path's computed mass underflows, and a goal set is also
    the set of states with computed mass > 0."""
    rng = np.random.default_rng(seed)
    transition = np.zeros((num_states, num_actions, num_states))
    for s in range(num_states):
        for a in range(num_actions):
            k = int(rng.integers(1, num_states + 1))
            support = rng.choice(num_states, size=k, replace=False)
            weights = rng.uniform(0.2, 1.0, size=k)
            transition[s, a, support] = weights / weights.sum()
    reward = -rng.uniform(0.0, 1.0, size=(horizon, num_states, num_actions))
    return DmdpInstance(
        num_states=num_states,
        num_actions=num_actions,
        horizon=horizon,
        gamma=gamma,
        r_max=1.0,
        transition=transition,
        reward=reward,
        sign_mode="nonpositive",
    )


@pytest.fixture(scope="session")
def corpus():
    """The seeded random corpus used by the end-to-end checks."""
    return [generate(seed, 3, 2, 3, 0.5) for seed in range(100)]


@pytest.fixture(autouse=True)
def read_digest_is_the_digest(tmp_path):
    """After each test: read(p)[1] == digest(load(p)) for every instance
    file the test left in its tmp_path, canonical or not."""
    yield
    for path in sorted(tmp_path.rglob("*")):
        if not path.is_file():
            continue
        try:
            instance = load(path, check=False)
        except (DmdpError, ValueError):
            continue
        try:
            expected = digest(instance)
        except ValueError:  # NaN or infinity: no canonical text
            expected = None
        assert read(path, check=False)[1] == expected, path
