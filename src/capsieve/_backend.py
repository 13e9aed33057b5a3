"""Hot numeric kernels in numpy: the incomplete-beta series and the cap CDF inversion.

Kernels here are deterministic transforms only; random numbers are always
drawn by callers with numpy Generators.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Incomplete beta  B_x(a,b) = x^a (1-x)^b / a * sum_m (a+b)_m / (a+1)_m x^m
# (DLMF 8.17.8).  Every term is positive, so nothing cancels.  Arguments above
# the mean a/(a+b) go through the reflection B(a,b) - B_{1-x}(b,a), so the
# series argument never exceeds max(a, b)/(a+b) and the term ratio
# x (a+b+m)/(a+1+m) stays below 1.
# ---------------------------------------------------------------------------


def _series(x: float, a: float, b: float) -> tuple[int, float]:
    """Terms the B_x(a,b) series needs at arguments <= x, and B_x(a,b) itself.

    The sum stops once the geometric bound on the rest, next term / (1 - r)
    with r the larger of the current term ratio and its limit x, drops below
    1e-17 of the partial sum.  The terms and their ratios grow with x, so the
    count holds for every smaller argument.
    """
    s = 0.0
    p = 1.0
    for m in range(100000):
        s += p
        ratio = x * (a + b + m) / (a + 1.0 + m)
        p *= ratio
        if p <= 1e-17 * s * (1.0 - max(ratio, x)):
            return m + 1, s * (x**a * (1.0 - x)**b / a)
    raise ValueError(f"the series of B_x(a, b) at x={x:g}, a={a:g}, b={b:g} needs > 100000 terms")


def _beta_series(x, a, b, n_terms):
    s = np.zeros_like(x)
    p = np.ones_like(x)
    for m in range(n_terms):
        s += p
        p *= x * ((a + b + m) / (a + 1.0 + m))
    return s * (x**a * (1.0 - x)**b / a)


def incomplete_beta(x: float, a: float, b: float) -> float:
    """B_x(a,b) at one x in [0, 1].

    Above the mean m = a/(a+b) this is B_m(a,b) + B_{1-m}(b,a) - B_{1-x}(b,a):
    the complete integral is summed at the two means, where the terms are
    positive, and so keeps the relative accuracy that
    exp(lgamma(a) + lgamma(b) - lgamma(a+b)) loses (1e-13 at a = b = 41).
    """
    mean = a / (a + b)
    if x <= mean:
        return _series(x, a, b)[1]
    return _series(mean, a, b)[1] + _series(1.0 - mean, b, a)[1] - _series(1.0 - x, b, a)[1]


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
    mean = a / (a + b)
    if x_max <= mean:
        n_terms, top = _series(x_max, a, b)
        target = u * top

        def below(x: np.ndarray) -> np.ndarray:
            return _beta_series(x, a, b, n_terms) < target
    else:
        # series counts at each branch's largest argument: the two means
        n_terms, below_mean = _series(mean, a, b)
        n_comp, above_mean = _series(1.0 - mean, b, a)
        comp_top = _series(1.0 - x_max, b, a)[1]
        total = below_mean + above_mean - comp_top
        target = u * total
        comp_target = comp_top + (1.0 - u) * total

        def below(x: np.ndarray) -> np.ndarray:
            out = np.empty(x.shape, dtype=bool)
            left = x <= mean
            out[left] = _beta_series(x[left], a, b, n_terms) < target[left]
            right = ~left
            out[right] = _beta_series(1.0 - x[right], b, a, n_comp) > comp_target[right]
            return out

    lo = np.zeros_like(u)
    hi = np.full_like(u, x_max)
    for _ in range(bisection_count(x_max)):
        mid = 0.5 * (lo + hi)
        mid_below = below(mid)
        lo = np.where(mid_below, mid, lo)
        hi = np.where(mid_below, hi, mid)
    return 0.5 * (lo + hi)
