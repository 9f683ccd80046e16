"""Lint fixture: a simulation helper that breaks the determinism rules.

This file is test data for the ``det`` pack — it is never imported.
"""

import random
import time

import numpy as np

rng = np.random.default_rng()  # DET001: no seed


def jitter() -> float:
    return random.uniform(0.0, 1.0) * time.time()  # unreachable: no DET010/011
