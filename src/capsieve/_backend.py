"""Hot numeric kernels in numpy: the Legendre series and the cap CDF inversion.

Kernels here are deterministic transforms only; random numbers are always
drawn by callers with numpy Generators.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# Legendre series  sum_k c_k P_k(t)  (forward recurrence with accumulation)
# ---------------------------------------------------------------------------


def legendre_series(coeffs: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Evaluate sum_k coeffs[k] * P_k(t) for Legendre P_k, any t shape."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    acc = np.full(t.shape, coeffs[0], dtype=np.float64)
    n = coeffs.shape[0]
    if n == 1:
        return acc
    pm = np.ones_like(t)
    pc = t.copy()
    acc += coeffs[1] * pc
    for k in range(2, n):
        pm, pc = pc, ((2 * k - 1) * t * pc - (k - 1) * pm) / k
        acc += coeffs[k] * pc
    return acc


# ---------------------------------------------------------------------------
# Inverse CDF of the cap profile:  solve B_x(a,b) = u * B_xmax(a,b), x in
# [0, xmax], by bisection with a fixed iteration count.  The incomplete beta
# is summed by the hypergeometric series; arguments above 0.55 go through the
# reflection B_x(a,b) = B(a,b) - B_{1-x}(b,a) so the series length stays
# bounded.
# ---------------------------------------------------------------------------


def series_length(x_bound: float, shape_b: float) -> int:
    """Terms needed for the B_x hypergeometric series at arguments <= x_bound."""
    if shape_b == int(shape_b) and shape_b >= 1:
        return int(shape_b)  # (1-b)_m vanishes for m >= b: series is exact
    if x_bound <= 1e-6:
        return 12
    n = int(math.ceil(17.0 / max(-math.log10(x_bound), 0.05))) + 8
    return min(max(n, 12), 400)


def bisection_count(x_max: float) -> int:
    # bracket width 5e-13 in x gives 1e-12 in t = 1 - 2x
    if x_max <= 5e-13:
        return 1
    return int(math.ceil(math.log2(x_max / 5e-13)))


def _beta_series(x, a, b, n_terms):
    s = np.zeros_like(x)
    p = np.ones_like(x)
    for m in range(n_terms):
        s += p / (a + m)
        p *= (m + 1.0 - b) * x / (m + 1.0)
    return s * x**a


def _beta_tail(x, a, b, bab, nd, nr):
    out = np.empty_like(x)
    lo = x <= 0.55
    if lo.any():
        out[lo] = _beta_series(x[lo], a, b, nd)
    hi = ~lo
    if hi.any():
        out[hi] = bab - _beta_series(1.0 - x[hi], b, a, nr)
    return out


def invert_beta_tail_cdf(a: float, b: float, x_max: float,
                         u: np.ndarray) -> np.ndarray:
    """Quantiles of the density x^(a-1) (1-x)^(b-1) restricted to [0, x_max].

    Returns x with B_x(a,b) = u * B_{x_max}(a,b), resolved by bisection to a
    bracket of width <= 5e-13.
    """
    u = np.asarray(u, dtype=np.float64)
    bab = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
    nd = series_length(min(x_max, 0.55), b)
    nr = series_length(0.45, a) if x_max > 0.55 else 1
    target = u * float(_beta_tail(np.array([x_max]), a, b, bab, nd, nr)[0])
    lo = np.zeros_like(u)
    hi = np.full_like(u, x_max)
    for _ in range(bisection_count(x_max)):
        mid = 0.5 * (lo + hi)
        below = _beta_tail(mid, a, b, bab, nd, nr) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return 0.5 * (lo + hi)
