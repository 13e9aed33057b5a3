"""Concentration-bound engine.

Computes the sharp cap concentration constant T2(K, delta), the Nyquist
bound constant A_K and its large-K Bessel limit.  The suprema over cap
centres that these constants multiply live in ``region``.

Every constant at (space, K) rests on one row: the largest Jacobi zero
t_KK and the tail and cap integrals at t_KK, the integrals added when a
caller first needs them.  Rows live in one bounded cache keyed by
(alpha, beta, K); a table computes only its missing rows, their zeros in
one ``largest_zeros`` call and their tails in one recurrence pass.  A row
holds the same doubles whether it was computed alone or in a batch, so a
table reads the same from a warm cache as from a cold one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
# (alpha, beta, K) -> [t_KK, tail integral at t_KK, cap integral at t_KK],
# the integrals None until a caller needs them
_rows_cache: dict[tuple[float, float, int], list] = {}


def _rows(space: SpaceParams, ks, integrals: bool = True) -> list[list]:
    """[t_KK, tail and cap integrals at t_KK] for each K >= 1 of a nondecreasing ks.

    Rows come from the row cache, which keeps the last 4096 rows added.
    Missing rows get their zeros from one ``largest_zeros`` call; with
    ``integrals`` set, rows without integrals get their tails from one
    ``_tail_values`` pass.
    """
    alpha, beta = space.alpha, space.beta
    found = {k: _rows_cache.get((alpha, beta, k)) for k in ks}
    missing = [k for k, row in found.items() if row is None]
    if missing:
        for k, t_kk in zip(missing, largest_zeros(alpha, beta, missing)):
            found[k] = _rows_cache[alpha, beta, k] = [t_kk, None, None]
        while len(_rows_cache) > _ROWS_KEPT:
            del _rows_cache[next(iter(_rows_cache))]
    bare = [k for k, row in found.items() if integrals and row[1] is None]
    if bare:
        _check_alpha(space)
        tails = _tail_values(space, bare, [found[k][0] for k in bare])
        for k, tail in zip(bare, tails):
            found[k][1:] = tail, _cap_integral(space, found[k][0])
    return [found[k] for k in ks]


def nyquist_delta(space: SpaceParams, K: int) -> float:
    """Largest zero t_KK of the space's degree-K Jacobi polynomial (t_min for K=0)."""
    if not space.in_index_set(K):
        raise ValueError(f"K={K} not in index set of {space.space_id}")
    if K == 0:
        return space.t_min
    return _rows(space, [K], integrals=False)[0][0]


def _tail_integral_sq(space: SpaceParams, ks, deltas) -> list[float]:
    """Integrals over [delta_i, 1] of (P_{K_i}(t)/P_{K_i}(1))^2 against the Jacobi weight.

    ``ks`` is nondecreasing.  Raises where the tail rule is unchecked
    (alpha > 80) or the integral leaves the double range.
    """
    _check_alpha(space)
    return [_checked_tail(space, delta, tail)
            for delta, tail in zip(deltas, _tail_values(space, ks, deltas))]


def _tail_at(space: SpaceParams, K: int, delta: float) -> float:
    """The tail integral at (K, delta), the cached row's when delta is t_KK."""
    if K >= 1 and delta == nyquist_delta(space, K):
        return _checked_tail(space, delta, _rows(space, [K])[0][1])
    return _tail_integral_sq(space, [K], [delta])[0]


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


def _tail_values(space: SpaceParams, ks, deltas) -> list[float]:
    """The tail integrals of _tail_integral_sq, unchecked.

    Rows with K = 0 are cap integrals (P_0 = 1), taken in closed form: at
    delta = -1 the factor (1+t)^beta vanishes at the far end of the tail,
    where a rule cannot absorb it (it is singular there for a half-integer
    beta, and for large beta the integral rests on the rule's smallest
    weights).  Every other row uses the 128-node tail rule at its delta, all
    mapped by one ``tail_quadrature`` call, and all rows share one pass of
    the recurrence.

    P_K has no zero on (t_KK, 1], and by Mehler-Heine P_K(1 - z^2/2K^2)
    behaves like z^-alpha J_alpha(z).  After t = 1 - (1-delta) x the
    integrand is therefore smooth and sign-definite on [0, 1], with Taylor
    coefficients that fall faster than geometrically, so 128 nodes reach the
    floor set by double-precision nodes near 1 and the P_K recurrence at
    every K.
    """
    alpha, beta = space.alpha, space.beta
    first = int(np.searchsorted(ks, 1))
    tails = [_cap_integral(space, delta) for delta in deltas[:first]]
    if first < len(ks):
        rule = tail_quadrature(alpha, beta, deltas[first:], _TAIL_NODES)
        pk1 = np.array([jacobi_at_one(JacobiIndex(alpha, beta, k)) for k in ks[first:]])
        vals = (jacobi_eval_rows(alpha, beta, ks[first:], rule.nodes) / pk1[:, None]) ** 2
        tails += [float(np.dot(w, v)) for w, v in zip(rule.weights, vals)]
    return tails


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
    return 1.0 / (space.nu_perp * _tail_at(space, K, delta))


def a_constant(space: SpaceParams, K: int) -> float:
    """Bound constant multiplying the maximum Nyquist density.

    Cap measure at t_KK times T2(K, t_KK); the nu_perp factors cancel, so
    this equals the direct incomplete-beta-over-tail-integral expression.
    """
    if K < 1 or not space.in_index_set(K):
        raise ValueError(f"K must be >= 1 and in the index set of {space.space_id}")
    t_kk, tail, cap = _rows(space, [K])[0]
    return cap / _checked_tail(space, t_kk, tail)


def constants_table(space: SpaceParams, K_max: int) -> list[dict]:
    """Rows {K, t_KK, T2, A_K} for every K in 1..K_max of the space's index set.

    T2 is taken at delta = t_KK, and each row's T2 and A_K share one tail
    integral.  Only rows missing from the row cache are computed, all in one
    zero solve and one pass of the Jacobi recurrence.
    """
    stride = space.index_stride
    if K_max < stride:
        raise ValueError(f"K_max={K_max} leaves no K >= 1 in the index set of "
                         f"{space.space_id}; the smallest admissible K_max is {stride}")
    ks = list(range(stride, K_max + 1, stride))
    out = []
    for k, (t_kk, tail, cap) in zip(ks, _rows(space, ks)):
        tail = _checked_tail(space, t_kk, tail)
        out.append({"K": k, "t_KK": t_kk, "T2": 1.0 / (space.nu_perp * tail),
                    "A_K": cap / tail})
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
