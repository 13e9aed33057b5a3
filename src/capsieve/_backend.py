"""Hot numeric kernels in numpy: the incomplete-beta series and the cap CDF inversion.

Kernels here are deterministic transforms only; random numbers are always
drawn by callers with numpy Generators.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Incomplete beta  B_x(a,b) = x^a sum_m (1-b)_m x^m / (m! (a+m)).  Arguments
# above the mean a/(a+b) go through the reflection B(a,b) - B_{1-x}(b,a), so
# the series argument never exceeds max(a, b)/(a+b).
# ---------------------------------------------------------------------------


def _series_terms(x_bound: float, a: float, b: float) -> int:
    """Terms the B_x(a,b) series needs at arguments <= x_bound.

    The sum stops once the next coefficient drops below 1e-18 of the partial
    sum; for integer b the coefficients (1-b)_m vanish from m = b on, so the
    count is b and the series is exact.
    """
    s = 0.0
    p = 1.0
    for m in range(100000):
        s += p / (a + m)
        p *= (m + 1.0 - b) * x_bound / (m + 1.0)
        if abs(p) <= 1e-18 * abs(s) * (a + m + 1.0):
            return m + 1
    raise RuntimeError("incomplete beta series did not converge")  # pragma: no cover


def _beta_series(x, a, b, n_terms):
    s = np.zeros_like(x)
    p = np.ones_like(x)
    for m in range(n_terms):
        s += p / (a + m)
        p *= (m + 1.0 - b) * x / (m + 1.0)
    return s * x**a


def incomplete_beta_on(x_lo: float, x_hi: float, a: float, b: float, bab: float):
    """B_x(a,b) as a vectorized function of x in [x_lo, x_hi], given bab = B(a,b).

    Each branch sums the number of terms the convergence test asks for at its
    largest argument, counted once here rather than on every evaluation.
    """
    mean = a / (a + b)
    n_direct = _series_terms(min(x_hi, mean), a, b) if x_lo <= mean else 0
    n_reflected = _series_terms(1.0 - max(x_lo, mean), b, a) if x_hi > mean else 0

    def beta(x: np.ndarray) -> np.ndarray:
        out = np.empty_like(x)
        lo = x <= mean
        if lo.any():
            out[lo] = _beta_series(x[lo], a, b, n_direct)
        hi = ~lo
        if hi.any():
            out[hi] = bab - _beta_series(1.0 - x[hi], b, a, n_reflected)
        return out

    return beta


# ---------------------------------------------------------------------------
# Inverse CDF of the cap profile:  solve B_x(a,b) = u * B_xmax(a,b), x in
# [0, xmax], by bisection with a fixed iteration count.
# ---------------------------------------------------------------------------


def bisection_count(x_max: float) -> int:
    # bracket width 5e-13 in x gives 1e-12 in t = 1 - 2x
    if x_max <= 5e-13:
        return 1
    return int(math.ceil(math.log2(x_max / 5e-13)))


def invert_beta_tail_cdf(a: float, b: float, x_max: float,
                         u: np.ndarray) -> np.ndarray:
    """Quantiles of the density x^(a-1) (1-x)^(b-1) restricted to [0, x_max].

    Returns x with B_x(a,b) = u * B_{x_max}(a,b), resolved by bisection to a
    bracket of width <= 5e-13.  When x_max lies above the mean a/(a+b), the
    test at points above the mean compares the complement B_{1-x}(b,a) with
    B_{1-x_max}(b,a) + (1-u) B_{x_max}(a,b): the reflection
    B(a,b) - B_{1-x}(b,a) would lose the small complement near the top
    quantiles, where the density may vanish.
    """
    u = np.asarray(u, dtype=np.float64)
    bab = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    mean = a / (a + b)
    if x_max <= mean:
        beta = incomplete_beta_on(0.0, x_max, a, b, bab)
        target = u * float(beta(np.array([x_max]))[0])

        def below(x: np.ndarray) -> np.ndarray:
            return beta(x) < target
    else:
        beta = incomplete_beta_on(0.0, mean, a, b, bab)
        comp = incomplete_beta_on(1.0 - x_max, 1.0 - mean, b, a, bab)
        comp_top = float(comp(np.array([1.0 - x_max]))[0])
        target = u * (bab - comp_top)
        comp_target = comp_top + (1.0 - u) * (bab - comp_top)

        def below(x: np.ndarray) -> np.ndarray:
            out = np.empty(x.shape, dtype=bool)
            left = x <= mean
            out[left] = beta(x[left]) < target[left]
            right = ~left
            out[right] = comp(1.0 - x[right]) > comp_target[right]
            return out

    lo = np.zeros_like(u)
    hi = np.full_like(u, x_max)
    for _ in range(bisection_count(x_max)):
        mid = 0.5 * (lo + hi)
        mid_below = below(mid)
        lo = np.where(mid_below, mid, lo)
        hi = np.where(mid_below, hi, mid)
    return 0.5 * (lo + hi)
