"""Concentration-bound engine.

Computes the sharp cap concentration constant T2(K, delta), the Nyquist
bound constant A_K and its large-K Bessel limit.  The suprema over cap
centres that these constants multiply live in ``region``.

Every constant at (space, K) rests on one row: the largest zero x_nn of
the Jacobi polynomial of degree n = space.degree(K), its cosine distance
t_KK, and the tail and cap integrals there, the integrals added when a
caller first needs them.  Rows live in one bounded cache keyed by
(alpha, beta, n); a table computes only its missing rows, their zeros in
one ``largest_zeros`` call and each tail from the terminating series of
r_n in u = 1 - x, on a Gauss rule sized to that series.  A row holds the
same doubles whether it was computed alone or in a batch, so a table reads
the same from a warm cache as from a cold one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._version import __version__
from .manifold import SpaceParams, cap_measure
from .specfun import (
    bessel_first_zero,
    bessel_j,
    gauss_jacobi_rule,
    incomplete_beta,
    jacobi_ratio_rows,
    largest_zeros,
    log_gamma,
    tail_quadrature,
)

__all__ = [
    "BoundReport",
    "t2_constant",
    "a_constant",
    "a_infinity",
    "bound_report",
    "constants_table",
    "nyquist_delta",
]

_DELTA_SLACK = 1e-12
_EPS = 2.0 ** -53
_SERIES_CUT = 7e-14  # rounding estimate of a series tail above which the row takes the recurrence
_RECURRENCE_NODES = 128  # nodes of the recurrence's tail rule
_ROWS_KEPT = 4096
# (alpha, beta, n) -> [x_nn, t_KK, tail integral at x_nn, cap integral at t_KK,
# nodes of the tail rule], the last three None until a caller needs them
_rows_cache: dict[tuple[float, float, int], list] = {}


def _rows(space: SpaceParams, ns, integrals: bool = True) -> list[list]:
    """[x_nn, t_KK, tail and cap integrals] for each degree n >= 1 of a nondecreasing ns.

    Rows come from the row cache, which keeps the last 4096 rows added.
    Missing rows get their zeros x_nn from one ``largest_zeros`` call, and
    t_KK = space.to_t(x_nn) as they enter; with ``integrals`` set, rows
    without integrals get their tails from one ``_tail_values`` pass.
    """
    alpha, beta = space.alpha, space.beta
    if integrals:  # before any zero is solved
        _check_alpha(space)
    found = {n: _rows_cache.get((alpha, beta, n)) for n in ns}
    missing = [n for n, row in found.items() if row is None]
    if missing:
        for n, x_nn in zip(missing, largest_zeros(alpha, beta, missing)):
            found[n] = _rows_cache[alpha, beta, n] = [x_nn, space.to_t(x_nn), None, None, None]
        while len(_rows_cache) > _ROWS_KEPT:
            del _rows_cache[next(iter(_rows_cache))]
    bare = [n for n, row in found.items() if integrals and row[2] is None]
    if bare:
        for n, (tail, nodes) in zip(bare, _tail_values(space, bare, [found[n][0] for n in bare])):
            found[n][2:] = tail, _cap_integral(space, space.gap(found[n][1])), nodes
    return [found[n] for n in ns]


def nyquist_delta(space: SpaceParams, K: int) -> float:
    """Largest zero t_KK of the space's degree-K zonal polynomial (t_min for K=0)."""
    if not space.in_index_set(K):
        raise ValueError(f"K={K} not in index set of {space.space_id}")
    return space.t_min if K == 0 else _rows(space, [space.degree(K)], integrals=False)[0][1]


def _tail_integral_sq(space: SpaceParams, ks, deltas) -> list[tuple[float, int]]:
    """(integral over [delta_i, 1] of r_{K_i}^2 against the weight, nodes of its rule) per row.

    Raises where the tail is unchecked (alpha > 80) or the integral leaves the double range.
    """
    _check_alpha(space)
    tails = _tail_values(space, [space.degree(k) for k in ks], [space.to_x(d) for d in deltas])
    return [(_checked_tail(space, delta, tail), nodes)
            for delta, (tail, nodes) in zip(deltas, tails)]


def _check_alpha(space: SpaceParams) -> None:
    if space.alpha > 80.0:  # 5e-12 off 40-digit mpmath at alpha = 80, 2e-10 at 100, 1e-3 at 149
        raise ValueError(f"alpha={space.alpha:g} of {space.space_id} exceeds 80: the tail rule "
                         "behind T2 and A_K is checked against mpmath only up to there")


def _checked_tail(space: SpaceParams, delta: float, tail: float) -> float:
    if not 0.0 < tail < math.inf:
        raise ValueError(f"delta={delta!r} is too close to 1 for {space.space_id}: the tail "
                         f"integral behind T2 and A_K underflows to {tail!r}, since "
                         f"(1 - delta)^(alpha + 1) leaves the double range")
    return tail


def _tail_values(space: SpaceParams, ns, xs) -> list[tuple[float, int]]:
    """(tail integral over [x_i, 1] of r_{n_i}^2 against the Jacobi weight, rule nodes), unchecked.

    Rows with n = 0 are cap integrals (r_0 = 1), taken in closed form with
    no rule: at x = -1 the factor (1+x)^beta vanishes at the far end of the
    tail, where a rule cannot absorb it (it is singular there for a
    half-integer beta, and for large beta the integral rests on the rule's
    smallest weights).  Every other row is ``_series_tail``'s.  Where that
    row's rounding estimate says its series cancels, the row takes the
    128-node tail rule at its x instead, all such rows mapped by one
    ``tail_quadrature`` call and evaluated in one pass of the recurrence.
    Each row's value depends on that row alone.
    """
    alpha, beta = space.alpha, space.beta
    out = [(_cap_integral(space, (1.0 - x) / 2.0), 0) if n == 0
           else _series_tail(alpha, beta, n, x) for n, x in zip(ns, xs)]
    cancel = [i for i, row in enumerate(out) if row is None]
    if cancel:
        rule = tail_quadrature(alpha, beta, [xs[i] for i in cancel], _RECURRENCE_NODES)
        vals = jacobi_ratio_rows(alpha, beta, [ns[i] for i in cancel], rule.nodes) ** 2
        for i, w, v in zip(cancel, rule.weights, vals):
            out[i] = float(np.dot(w, v)), _RECURRENCE_NODES
    return out


def _series_tail(alpha: float, beta: float, n: int, x: float) -> tuple[float, int] | None:
    """(tail integral over [x, 1] of r_n^2 against the Jacobi weight, rule nodes) from the series.

    In u = 1 - x, r_n(1 - u) = sum_j c_j (u/2)^j, c_0 = 1,
    c_{j+1}/c_j = (j-n)(j+n+alpha+beta+1) / ((j+alpha+1)(j+1)) (DLMF 18.5.7).
    P_n has no zero on (x_nn, 1], and by Mehler-Heine n^2 u stays bounded
    on the tail, so the terms t_j = c_j ((1-x)/2)^j peak and then fall
    faster than geometrically; the series stops at the first term below
    2^-53 past the peak, J terms in all, whatever n is.  At u = (1-x) s_i,
    s_i the nodes of an m-point (0, alpha) Gauss-Jacobi rule on [0, 1],
    r_n = sum_j t_j s_i^j is one product with the rule's table of powers;
    no node is rounded near x = 1.  For integer beta the integrand
    r^2 (2-u)^beta is a polynomial of degree 2(J-1) + beta in s, so
    2m - 1 >= 2(J-1) + beta makes the rule exact.  For other beta,
    (2-u)^beta is singular at s = 2/(1-x), and m gains the Bernstein-ellipse
    count ceil(37 / (2 ln rho)) that takes rho^-2m below e^-37.  m is
    rounded up to a multiple of 8, so a family needs few rules.

    The series alternates, and cancels for large alpha.  The same product
    gives S = sum_j |t_j| s_i^j, and eps int |r| S w / int r^2 w is the
    first-order rounding error of the integral: eps times the condition
    number of the sums (Higham, Accuracy and Stability of Numerical
    Algorithms, 3.1).  Where it exceeds 7e-14, None is returned.  It reads
    at most 4.0e-14 on s2, rp2, s3, cp4, hp8 and cay16 at any K (cay16,
    whose tails are within 3.1e-14 of 40-digit mpmath), and 1.4e-13 at
    s82, K = 4 and 1.2e-13 at s162, K = 3, the first rows where the
    recurrence is as accurate as the series; from s82, K = 5 on the series
    is 3.6e-13 off or more.  The worst-case bound, 2 J times this, would
    rank cay16's 24-term rows with those 5-term ones.
    """
    width = 1.0 - x
    half = 0.5 * width
    ab1 = alpha + beta + 1.0
    terms = [1.0]
    for j in range(n):
        terms.append(terms[-1] * (j - n) * (j + n + ab1) / ((j + alpha + 1.0) * (j + 1.0)) * half)
        if abs(terms[-1]) < min(abs(terms[-2]), _EPS):
            break
    size = len(terms)
    if beta == int(beta):
        m = size + max(0, math.ceil((beta - 1.0) / 2.0))
    else:
        r = 2.0 / half - 1.0  # the singularity on the rule's interval [-1, 1]
        m = size + math.ceil(18.5 / math.log(r + math.sqrt(r * r - 1.0)))
    m = -(-m // 8) * 8
    s, weights, powers = _series_rule(alpha, m)
    r_n, total = (powers[:, :size] @ np.array([terms, np.abs(terms)]).T).T
    w = weights * (2.0 - width * s) ** beta
    sq = float(np.dot(w, r_n * r_n))
    if not _EPS * float(np.dot(w, np.abs(r_n) * total)) <= _SERIES_CUT * sq:
        return None
    return sq * half ** (alpha + 1.0), m


@lru_cache(maxsize=64)
def _series_rule(alpha: float, m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes s_i in (0, 1) and weights of the m-point (0, alpha) Gauss-Jacobi rule, and s_i^j, j < m."""
    rule = gauss_jacobi_rule(0.0, alpha, m)
    s = 0.5 * (1.0 + rule.nodes)
    powers = np.vander(s, m, increasing=True)
    s.flags.writeable = powers.flags.writeable = False
    return s, rule.weights, powers


def _cap_integral(space: SpaceParams, gap: float) -> float:
    """Integral over [x, 1] of the Jacobi weight, 2^(alpha+beta+1) B_gap, gap = (1-x)/2."""
    alpha, beta = space.alpha, space.beta
    return 2.0 ** (alpha + beta + 1.0) * incomplete_beta(gap, alpha + 1.0, beta + 1.0)


def _check_delta(space: SpaceParams, K: int, delta: float) -> None:
    if not (math.isfinite(delta) and delta < 1.0):
        raise ValueError(f"delta must be finite and < 1, got {delta}")
    t_kk = nyquist_delta(space, K)
    if delta < t_kk - _DELTA_SLACK:
        raise ValueError(
            f"delta={delta} is below the largest Jacobi zero t_KK={t_kk:.15g}; "
            "the closed form only holds for t_KK <= delta < 1")


def t2_constant(space: SpaceParams, K: int, delta: float) -> float:
    """Sharp constant of the cap large-sieve inequality at band limit K.

    Equals the reciprocal of nu_perp times the tail integral of the squared
    normalized degree-K zonal polynomial.  Requires t_KK <= delta < 1.
    """
    return _t2(space, K, delta)[0]


def _t2(space: SpaceParams, K: int, delta: float) -> tuple[float, int]:
    """(T2(K, delta), nodes of the rule behind its tail integral; 0 for the closed form at K = 0)."""
    _check_delta(space, K, delta)
    if K >= 1 and delta == nyquist_delta(space, K):  # the cached row's tail
        _, _, tail, _, nodes = _rows(space, [space.degree(K)])[0]
        tail = _checked_tail(space, delta, tail)
    else:
        (tail, nodes), = _tail_integral_sq(space, [K], [delta])
    return 1.0 / (space.nu_perp * tail), nodes


def a_constant(space: SpaceParams, K: int) -> float:
    """Bound constant multiplying the maximum Nyquist density.

    Cap measure at t_KK times T2(K, t_KK); the nu_perp factors cancel, so
    this equals the direct incomplete-beta-over-tail-integral expression.
    """
    if K < 1 or not space.in_index_set(K):
        raise ValueError(f"K must be >= 1 and in the index set of {space.space_id}")
    _, t_kk, tail, cap, _ = _rows(space, [space.degree(K)])[0]
    return cap / _checked_tail(space, t_kk, tail)


def constants_table(space: SpaceParams, K_max: int) -> list[dict]:
    """Rows {K, t_KK, T2, A_K} for every K in 1..K_max of the space's index set.

    T2 is taken at delta = t_KK, and each row's T2 and A_K share one tail
    integral.  Only rows missing from the row cache are computed: their
    zeros in one solve, each tail from its own series, and the rows whose
    series cancels in one recurrence pass.
    """
    ks = space.index_set(K_max)[1:]  # the degrees 1, 2, ..., len(ks)
    if not ks:
        raise ValueError(f"K_max={K_max} leaves no K >= 1 in the index set of "
                         f"{space.space_id}; the smallest admissible K_max is {space.band(1)}")
    out = []
    for k, (_, t_kk, tail, cap, _) in zip(ks, _rows(space, range(1, len(ks) + 1))):
        tail = _checked_tail(space, t_kk, tail)
        out.append({"K": k, "t_KK": t_kk, "T2": 1.0 / (space.nu_perp * tail), "A_K": cap / tail})
    return out


def a_infinity(space: SpaceParams) -> float:
    """Large-K limit of a_constant: a Bessel expression depending on alpha only.

    Equals (j/2)^(2 alpha) / ((alpha+1) Gamma(alpha+1)^2 J_{alpha+1}(j)^2)
    with j the first positive zero of J_alpha.  The Gamma factor enters
    through the endpoint growth P_K(1) ~ K^alpha / Gamma(alpha+1) of the
    normalized polynomials; it is confirmed numerically by the convergence
    of a_constant over K for every family (limit_check).
    """
    alpha = space.alpha
    j1 = bessel_first_zero(alpha)
    log_root = (alpha * math.log(j1 / 2.0) - log_gamma(alpha + 1.0)
                - math.log(abs(bessel_j(alpha + 1.0, j1))))
    if 2.0 * log_root > math.log(sys.float_info.max):  # from alpha = 1094 on (rp2190)
        raise ValueError(f"A_infinity of {space.space_id} (alpha={alpha:g}) needs "
                         f"exp({2.0 * log_root:.0f}), beyond the double range")
    return math.exp(2.0 * log_root) / (alpha + 1.0)


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundReport:
    space: SpaceParams
    K: int
    delta: float
    t_KK: float
    T2: float
    cap_measure_at_tKK: float
    A_K: float
    A_infinity: float
    quadrature_nodes: int  # of the rule behind T2's tail; 0 for the closed form at K = 0

    def to_dict(self) -> dict:
        return {
            "space": self.space.space_id,
            "K": self.K,
            "delta": self.delta,
            "t_KK": self.t_KK,
            "T2": self.T2,
            "cap_measure_at_tKK": self.cap_measure_at_tKK,
            "A_K": self.A_K,
            "A_infinity": self.A_infinity,
            "quadrature_nodes": self.quadrature_nodes,
            "version": __version__,
        }


def bound_report(space: SpaceParams, K: int, delta: float | None = None) -> BoundReport:
    """Assemble the full constants report for one (space, K[, delta]).

    K = 0 is allowed: the Nyquist parameter degenerates to the left endpoint
    of the cosine-distance interval and the density bound constant is 1.
    """
    if not space.in_index_set(K):
        raise ValueError(f"K must lie in the index set of {space.space_id}")
    t_kk = nyquist_delta(space, K)
    if delta is None:
        delta = t_kk
    t2, nodes = _t2(space, K, delta)
    return BoundReport(
        space=space,
        K=K,
        delta=delta,
        t_KK=t_kk,
        T2=t2,
        cap_measure_at_tKK=cap_measure(space, t_kk),
        A_K=a_constant(space, K) if K >= 1 else 1.0,
        A_infinity=a_infinity(space),
        quadrature_nodes=nodes,
    )
