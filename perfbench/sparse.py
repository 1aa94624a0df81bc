"""Seeded sparse-kernel instances for the search workloads.

`dmdp.generate` only makes dense kernel rows, and with dense rows every
goal set is the full state set after one step, so goal-set constraints
never bind.  Here each row (s, a) has a random support of 1..MAX_SUPPORT
states, and every positive entry is at least MIN_PROB, so products along
a horizon of a few steps stay far above the 1e-12 support threshold and
no goal set is borderline.

The draws come from `random.Random(seed)`, whose `random()` sequence is
fixed across Python versions, so the same seed gives the same bytes.
"""

from __future__ import annotations

import random

import numpy as np

MIN_PROB = 0.05
MAX_SUPPORT = 2


def sparse_instance(seed, num_states, num_actions, horizon, gamma):
    """A nonpositive-reward instance with sparse random kernel rows."""
    from dmdp import DmdpInstance

    rng = random.Random(seed)
    transition = np.zeros((num_states, num_actions, num_states))
    for s in range(num_states):
        for a in range(num_actions):
            k = 1 + int(rng.random() * MAX_SUPPORT)
            support = sorted(rng.sample(range(num_states), k))
            weights = [1.0 - rng.random() for _ in range(k)]  # in (0, 1]
            total = sum(weights)
            spare = 1.0 - MIN_PROB * k
            for sp, w in zip(support, weights):
                transition[s, a, sp] = MIN_PROB + spare * w / total
    reward = np.zeros((horizon, num_states, num_actions))
    for t in range(horizon):
        for s in range(num_states):
            for a in range(num_actions):
                reward[t, s, a] = -rng.random()
    return DmdpInstance(
        num_states=num_states,
        num_actions=num_actions,
        horizon=horizon,
        gamma=gamma,
        r_max=1.0,
        transition=transition,
        reward=reward,
        sign_mode="nonpositive",
        metadata={"name": f"sparse-{seed}", "seed": seed},
    )
