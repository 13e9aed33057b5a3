"""Concentration-bound engine.

Computes the sharp cap concentration constant T2(K, delta), the Nyquist
bound constant A_K and its large-K Bessel limit.  The suprema over cap
centres that these constants multiply live in ``region``.

Every constant at (space, K) rests on one row: the largest zero x_nn of
the Jacobi polynomial of degree n = space.degree(K), its cosine distance
t_KK, and the tail and cap integrals there, the integrals added when a
caller first needs them.  Rows live in one bounded cache keyed by
(alpha, beta, n); a table computes only its missing rows, their zeros in
one ``largest_zeros`` call and their tails in one recurrence pass.  A row
holds the same doubles whether it was computed alone or in a batch, so a
table reads the same from a warm cache as from a cold one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from ._version import __version__
from .manifold import SpaceParams, cap_measure
from .specfun import (
    bessel_first_zero,
    bessel_j,
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
_TAIL_NODES = 128  # nodes of every tail rule
_ROWS_KEPT = 4096
# (alpha, beta, n) -> [x_nn, t_KK, tail integral at x_nn, cap integral at t_KK],
# the integrals None until a caller needs them
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
            found[n] = _rows_cache[alpha, beta, n] = [x_nn, space.to_t(x_nn), None, None]
        while len(_rows_cache) > _ROWS_KEPT:
            del _rows_cache[next(iter(_rows_cache))]
    bare = [n for n, row in found.items() if integrals and row[2] is None]
    if bare:
        for n, tail in zip(bare, _tail_values(space, bare, [found[n][0] for n in bare])):
            found[n][2:] = tail, _cap_integral(space, space.gap(found[n][1]))
    return [found[n] for n in ns]


def nyquist_delta(space: SpaceParams, K: int) -> float:
    """Largest zero t_KK of the space's degree-K zonal polynomial (t_min for K=0)."""
    if not space.in_index_set(K):
        raise ValueError(f"K={K} not in index set of {space.space_id}")
    return space.t_min if K == 0 else _rows(space, [space.degree(K)], integrals=False)[0][1]


def _tail_integral_sq(space: SpaceParams, ks, deltas) -> list[float]:
    """Integrals over [delta_i, 1] of r_{K_i}^2 against the weight, for a nondecreasing ks.

    Raises where the tail rule is unchecked (alpha > 80) or the integral leaves the double range.
    """
    _check_alpha(space)
    tails = _tail_values(space, [space.degree(k) for k in ks], [space.to_x(d) for d in deltas])
    return [_checked_tail(space, delta, tail) for delta, tail in zip(deltas, tails)]


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


def _tail_values(space: SpaceParams, ns, xs) -> list[float]:
    """Tail integrals over [x_i, 1] of r_{n_i}^2 against the Jacobi weight, unchecked.

    Rows with n = 0 are cap integrals (r_0 = 1), taken in closed form: at
    x = -1 the factor (1+x)^beta vanishes at the far end of the tail,
    where a rule cannot absorb it (it is singular there for a half-integer
    beta, and for large beta the integral rests on the rule's smallest
    weights).  Every other row uses the 128-node tail rule at its x, all
    mapped by one ``tail_quadrature`` call, and all rows share one pass of
    the recurrence.

    P_n has no zero on (x_nn, 1], and by Mehler-Heine P_n(1 - z^2/2n^2)
    behaves like z^-alpha J_alpha(z).  After x = 1 - (1-x_i) u the
    integrand is therefore smooth and sign-definite on [0, 1], with Taylor
    coefficients that fall faster than geometrically, so 128 nodes reach the
    floor set by double-precision nodes near 1 and the P_n recurrence at
    every n.
    """
    alpha, beta = space.alpha, space.beta
    first = ns.count(0)
    tails = [_cap_integral(space, (1.0 - x) / 2.0) for x in xs[:first]]
    if first < len(ns):
        rule = tail_quadrature(alpha, beta, xs[first:], _TAIL_NODES)
        vals = jacobi_ratio_rows(alpha, beta, ns[first:], rule.nodes) ** 2
        tails += [float(np.dot(w, v)) for w, v in zip(rule.weights, vals)]
    return tails


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
    _check_delta(space, K, delta)
    if K >= 1 and delta == nyquist_delta(space, K):  # the cached row's tail
        tail = _checked_tail(space, delta, _rows(space, [space.degree(K)])[0][2])
    else:
        tail = _tail_integral_sq(space, [K], [delta])[0]
    return 1.0 / (space.nu_perp * tail)


def a_constant(space: SpaceParams, K: int) -> float:
    """Bound constant multiplying the maximum Nyquist density.

    Cap measure at t_KK times T2(K, t_KK); the nu_perp factors cancel, so
    this equals the direct incomplete-beta-over-tail-integral expression.
    """
    if K < 1 or not space.in_index_set(K):
        raise ValueError(f"K must be >= 1 and in the index set of {space.space_id}")
    _, t_kk, tail, cap = _rows(space, [space.degree(K)])[0]
    return cap / _checked_tail(space, t_kk, tail)


def constants_table(space: SpaceParams, K_max: int) -> list[dict]:
    """Rows {K, t_KK, T2, A_K} for every K in 1..K_max of the space's index set.

    T2 is taken at delta = t_KK, and each row's T2 and A_K share one tail
    integral.  Only rows missing from the row cache are computed, all in one
    zero solve and one pass of the Jacobi recurrence.
    """
    ks = space.index_set(K_max)[1:]  # the degrees 1, 2, ..., len(ks)
    if not ks:
        raise ValueError(f"K_max={K_max} leaves no K >= 1 in the index set of "
                         f"{space.space_id}; the smallest admissible K_max is {space.band(1)}")
    out = []
    for k, (_, t_kk, tail, cap) in zip(ks, _rows(space, range(1, len(ks) + 1))):
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
    quadrature_nodes: int

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
    _check_delta(space, K, delta)
    return BoundReport(
        space=space,
        K=K,
        delta=delta,
        t_KK=t_kk,
        T2=t2_constant(space, K, delta),
        cap_measure_at_tKK=cap_measure(space, t_kk),
        A_K=a_constant(space, K) if K >= 1 else 1.0,
        A_infinity=a_infinity(space),
        quadrature_nodes=_TAIL_NODES,
    )
