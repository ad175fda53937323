"""The small random start the theory tests solve from besides the default one."""

import numpy as np


def random_start(graph, d: int, seed: int) -> np.ndarray:
    """An n x d start of 0.01-scale standard normal draws from default_rng(seed)."""
    return 0.01 * np.random.default_rng(seed).standard_normal((graph.n, d))
