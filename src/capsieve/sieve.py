"""Concentration-bound engine.

Computes the sharp cap concentration constant T2(K, delta), the Nyquist
bound constant A_K, its large-K Bessel limit, and the L^p exponent
extension.  The suprema over cap centres that these constants multiply
live in ``region``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._version import __version__
from .manifold import SpaceParams, cap_measure
from .specfun import (
    JacobiIndex,
    bessel_first_zero,
    bessel_j,
    incomplete_beta,
    jacobi_at_one,
    jacobi_eval_rows,
    largest_zero,
    log_gamma,
    tail_quadrature,
)

__all__ = [
    "BoundReport",
    "t2_constant",
    "a_constant",
    "a_infinity",
    "lp_bound",
    "bound_report",
    "constants_table",
    "nyquist_delta",
]

_DELTA_SLACK = 1e-12
_TAIL_NODES = 128  # nodes of every tail rule from K = 32 on


@lru_cache(maxsize=4096)
def _largest_zero_t(alpha: float, beta: float, K: int) -> float:
    # every constant at (space, K) needs t_KK: solve once per (alpha, beta, K)
    return largest_zero(JacobiIndex(alpha, beta, K)).t_nn


def nyquist_delta(space: SpaceParams, K: int) -> float:
    """Largest zero t_KK of the space's degree-K Jacobi polynomial (t_min for K=0)."""
    if not space.in_index_set(K):
        raise ValueError(f"K={K} not in index set of {space.space_id}")
    if K == 0:
        return space.t_min
    return _largest_zero_t(space.alpha, space.beta, K)


def _node_count(K: int) -> int:
    """Nodes of the tail rule for (P_K/P_K(1))^2 on [delta, 1], delta >= t_KK.

    P_K has no zero on (t_KK, 1], and by Mehler-Heine P_K(1 - z^2/2K^2)
    behaves like z^-alpha J_alpha(z).  After t = 1 - (1-delta) x the
    integrand is therefore smooth and sign-definite on [0, 1], with Taylor
    coefficients that fall faster than geometrically, so 128 nodes reach the
    floor set by double-precision nodes near 1 and the P_K recurrence at
    every K; smaller K keep 2K+64.
    """
    return min(2 * K + 64, _TAIL_NODES)


def _tail_integral_sq(space: SpaceParams, ks, deltas) -> list[float]:
    """Integrals over [delta_i, 1] of (P_{K_i}(t)/P_{K_i}(1))^2 against the Jacobi weight.

    ``ks`` is nondecreasing.  All rows share one pass of the recurrence over
    a (rows x nodes) array of at most 128 columns; a row with fewer nodes is
    padded, and its integral is the dot product over its own nodes, so every
    row sums exactly as a one-row call would.  The rows with 128 nodes
    (K >= 32) get their rules from one ``tail_quadrature`` call.
    """
    if space.alpha > 80.0:  # 5e-12 off 40-digit mpmath at alpha = 80, 2e-10 at 100, 1e-3 at 149
        raise ValueError(f"alpha={space.alpha:g} of {space.space_id} exceeds 80: the tail rule "
                         "behind T2 and A_K is checked against mpmath only up to there")
    alpha, beta = space.alpha, space.beta
    counts = [_node_count(k) for k in ks]
    nodes = np.zeros((len(ks), max(counts)))
    weights = np.zeros_like(nodes)
    full = sum(m < _TAIL_NODES for m in counts)  # counts are nondecreasing
    for i in range(full):
        rule = tail_quadrature(alpha, beta, deltas[i], counts[i])
        nodes[i, :counts[i]], weights[i, :counts[i]] = rule.nodes, rule.weights
    if full < len(ks):
        rule = tail_quadrature(alpha, beta, deltas[full:], _TAIL_NODES)
        nodes[full:], weights[full:] = rule.nodes, rule.weights
    vals = np.ones_like(nodes)  # P_0 = 1
    first = int(np.searchsorted(ks, 1))
    if first < len(ks):
        pk1 = np.array([jacobi_at_one(JacobiIndex(alpha, beta, k)) for k in ks[first:]])
        pk = jacobi_eval_rows(alpha, beta, ks[first:], nodes[first:])
        vals[first:] = (pk / pk1[:, None]) ** 2
    return [float(np.dot(w[:m], v[:m])) for w, v, m in zip(weights, vals, counts)]


def _cap_integral(space: SpaceParams, delta: float) -> float:
    """Integral over [delta, 1] of the Jacobi weight, 2^(alpha+beta+1) B_{(1-delta)/2}."""
    alpha, beta = space.alpha, space.beta
    return 2.0 ** (alpha + beta + 1.0) * incomplete_beta((1.0 - delta) / 2.0,
                                                         alpha + 1.0, beta + 1.0)


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
    normalized degree-K Jacobi polynomial.  Requires t_KK <= delta < 1.
    """
    _check_delta(space, K, delta)
    return 1.0 / (space.nu_perp * _tail_integral_sq(space, [K], [delta])[0])


def a_constant(space: SpaceParams, K: int) -> float:
    """Bound constant multiplying the maximum Nyquist density.

    Cap measure at t_KK times T2(K, t_KK); the nu_perp factors cancel, so
    this equals the direct incomplete-beta-over-tail-integral expression.
    """
    if K < 1 or not space.in_index_set(K):
        raise ValueError(f"K must be >= 1 and in the index set of {space.space_id}")
    t_kk = nyquist_delta(space, K)
    return _cap_integral(space, t_kk) / _tail_integral_sq(space, [K], [t_kk])[0]


def constants_table(space: SpaceParams, K_max: int) -> list[dict]:
    """Rows {K, t_KK, T2, A_K} for every K in 1..K_max of the space's index set.

    T2 is taken at delta = t_KK, and each row's T2 and A_K share one tail
    integral; all rows share one pass of the Jacobi recurrence.
    """
    stride = space.index_stride
    if K_max < stride:
        raise ValueError(f"K_max={K_max} leaves no K >= 1 in the index set of "
                         f"{space.space_id}; the smallest admissible K_max is {stride}")
    ks = list(range(stride, K_max + 1, stride))
    t_kks = [nyquist_delta(space, k) for k in ks]
    tails = _tail_integral_sq(space, ks, t_kks)
    return [{"K": k, "t_KK": t_kk, "T2": 1.0 / (space.nu_perp * tail),
             "A_K": _cap_integral(space, t_kk) / tail}
            for k, t_kk, tail in zip(ks, t_kks, tails)]


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
    return math.exp(2.0 * log_root) / (alpha + 1.0)


def lp_bound(space: SpaceParams, K: int, rho: float, p: float) -> float:
    """L^p concentration bound min(1, (A_K rho)^min(p-1, 1)) for 1 < p < inf."""
    if not p > 1.0:
        raise ValueError("the L^p bound requires p > 1")
    if not (0.0 <= rho <= 1.0):
        raise ValueError("rho must lie in [0, 1]")
    if rho == 0.0:
        return 0.0
    expo = min(p - 1.0, 1.0)
    return min(1.0, (a_constant(space, K) * rho) ** expo)


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
    quadrature_nodes: int
    p_exponent_rule: str = field(default="min(p-1, 1)")

    def p_exponent(self, p: float) -> float:
        if not p > 1.0:
            raise ValueError("p must exceed 1")
        return min(p - 1.0, 1.0)

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
            "p_exponent": self.p_exponent_rule,
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
    _check_delta(space, K, delta)
    # one tail integral serves T2 and A_K unless delta moves off t_KK
    deltas = [t_kk] if delta == t_kk else [t_kk, delta]
    tails = _tail_integral_sq(space, [K] * len(deltas), deltas)
    return BoundReport(
        space=space,
        K=K,
        delta=delta,
        t_KK=t_kk,
        T2=1.0 / (space.nu_perp * tails[-1]),
        cap_measure_at_tKK=cap_measure(space, t_kk),
        A_K=_cap_integral(space, t_kk) / tails[0] if K >= 1 else 1.0,
        A_infinity=a_infinity(space),
        quadrature_nodes=_node_count(K),
    )
