"""Oracles that only the tests use."""

import numpy as np


def pi_upper_dusart_floor(xs: np.ndarray) -> np.ndarray:
    """Vectorized sound lower bound of the pi_upper_dusart expression.

    Roughly ten float64 operations per point, each within 0.5 ulp, so the
    true expression exceeds the rounded result by at most ~2e-15 relative.
    The 1e-12 haircut below overshoots that budget by three orders of
    magnitude while staying far under the bound's distance to pi(x).
    """
    xs = np.asarray(xs, dtype=np.float64)
    if np.any(xs <= 1.0):
        raise ValueError("pi_upper_dusart_floor: all points must exceed 1")
    el = np.log(xs)
    expr = xs / el * (1.0 + 1.0 / el + 2.0 / el**2 + 7.59 / el**3)
    return expr * (1.0 - 1e-12)
