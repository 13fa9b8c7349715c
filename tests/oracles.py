"""Oracles that only the tests use."""

from typing import Optional

import numpy as np

from collisionlab import arith


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


def refute_window(q: int, window: tuple[int, int], bound: int) -> Optional[tuple[int, int]]:
    """(offset, prime) for the first element of q+a .. q+b with a prime factor above bound, or None.

    The scalar reference for the certificate's batched refutation: each
    element is trial-divided once; the witness is the smallest prime factor
    above the bound, read from that split.  It is re-verified on emission:
    it must divide its element, be prime, and exceed the bound.
    """
    a, b = window
    for offset in range(a, b + 1):
        value = q + offset
        if value < 2:
            continue
        split = arith.smooth_split(value, bound)
        if split.cofactor > 1:
            prime = split.least_prime_above
            if prime is None or value % prime or prime <= bound or not arith.is_prime(prime):
                raise AssertionError(f"witness extraction failed for {value}")
            return offset, prime
    return None
