"""Independent verification oracles.

Nothing here reuses the closed forms it is meant to check: the extremal
constant is bracketed by certified primal and dual bounds on the discretized
problem over nonnegative cap profiles, concentration eigenvalues come from
the spherical-harmonic Gram matrix of a product quadrature grid of S^2, the
convolution identity is tested by explicit double integration over the
sphere, and the source paper's ordering of normalized Jacobi polynomials
near t = 1 is certified by two Sturm zero counts at t_KK.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import legval

from .manifold import Family, SpaceParams, eigenspace_info, make_space, zonal_coefficient
from .region import RegionSpec
from .sieve import a_constant, a_infinity, nyquist_delta
from .specfun import (
    JacobiIndex,
    gauss_jacobi_rule,
    jacobi_ratio_rows,
    jacobi_zero_count,
    tail_quadrature,
)

__all__ = [
    "ExtremalResult",
    "SpectralResult",
    "extremal_bruteforce",
    "sphere_harmonics",
    "concentration_eigenvalue",
    "convolution_check",
    "ordering_check",
    "limit_check",
]

@dataclass(frozen=True)
class ExtremalResult:
    T2_lower: float
    T2_upper: float
    minimizer_profile: np.ndarray
    K: int
    delta: float
    grid_size: int
    converged: bool


@dataclass(frozen=True)
class SpectralResult:
    lambda_max: float
    shannon_number: float
    n_nodes: int
    K: int
    region: dict


def extremal_bruteforce(space: SpaceParams, K: int, delta: float,
                        grid_size: int | None = None) -> ExtremalResult:
    """Certified primal-dual bounds on the discretized cap extremal problem.

    A zonal profile g >= 0 supported on [delta, 1] is represented by its
    values at the nodes of the tail rule, with weights W.  Scaled so that
    r_k'Wg >= 1 for every degree k <= n = space.degree(K), with
    r_k = P_k/P_k(1) at the nodes, T2 is min g'Wg / nu_perp: a convex QP.  Each primal vertex
    g_k = max(0, r_k) gives the upper bound g_k'Wg_k / min_j (r_j'Wg_k)^2,
    and each dual vertex lambda = e_k gives, by weak duality, the lower bound
    1 / ||max(0, r_k)||_W^2 (Boyd & Vandenberghe 2004, ch. 5).  Both are read
    from one matrix M = (R W) max(0, R)', whose entries are r_j'Wg_k and whose
    diagonal is ||g_k||_W^2.  The best bound of each kind is returned, and
    converged means a relative gap of at most 1e-12.  For delta >= t_KK the
    ordering r_k >= r_n >= 0 of the source paper (see ordering_check) is the
    KKT condition that closes the gap at the degree-n vertex, whose
    normalized profile is returned.
    """
    t_kk = nyquist_delta(space, K)
    if delta < t_kk - 1e-12 or not delta < 1.0:
        raise ValueError("need t_KK <= delta < 1")
    if grid_size is None:  # (1+x)^beta, beta < 0, is singular just below a small x_nn
        grid_size = max(4 * (K + 1), 48 if space.beta >= 0.0 else 64)
    if grid_size < 4 * (K + 1):
        raise ValueError("grid_size must be at least 4 (K + 1)")

    rule = tail_quadrature(space.alpha, space.beta, space.to_x(delta), grid_size)
    n = space.degree(K) + 1
    ratios = jacobi_ratio_rows(space.alpha, space.beta, range(n),
                               np.broadcast_to(rule.nodes, (n, grid_size)))
    vertices = np.maximum(ratios, 0.0)
    gram = (ratios * rule.weights) @ vertices.T
    norm2, proj = np.diag(gram), gram.min(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):  # an empty vertex has no bound
        upper = np.where(proj > 0.0, norm2 / proj ** 2, np.inf)
        lower = 1.0 / norm2.min()
    best = int(np.argmin(upper))
    t2_upper = float(upper[best]) / space.nu_perp
    t2_lower = float(lower) / space.nu_perp
    return ExtremalResult(
        T2_lower=t2_lower, T2_upper=t2_upper,
        minimizer_profile=vertices[best] / np.linalg.norm(vertices[best]), K=K,
        delta=delta, grid_size=grid_size,
        converged=bool(t2_upper - t2_lower <= 1e-12 * t2_lower))


# ---------------------------------------------------------------------------
# Spectral oracle on S^2
# ---------------------------------------------------------------------------


def sphere_grid(n_theta: int):
    """Product quadrature on S^2 (2 n_theta azimuths), weights normalized to total mass one."""
    n_phi = 2 * n_theta
    rule = gauss_jacobi_rule(0.0, 0.0, n_theta)
    z = rule.nodes
    wz = rule.weights / 2.0
    phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    x = np.outer(r, np.cos(phi)).ravel()
    y = np.outer(r, np.sin(phi)).ravel()
    zz = np.repeat(z, n_phi)
    pts = np.column_stack([x, y, zz])
    wts = np.repeat(wz / n_phi, n_phi)
    return pts, wts


def _harmonic_factors(K: int, rings: np.ndarray, azimuths: np.ndarray):
    """Legendre factor at the z of ``rings``, trig factor at the phi of ``azimuths``."""
    z = np.clip(rings[:, 2], -1.0, 1.0)
    s = np.hypot(rings[:, 0], rings[:, 1])
    phi = np.arctan2(azimuths[:, 1], azimuths[:, 0])
    leg, trig = [], []
    p_mm = np.ones_like(z)
    for m in range(K + 1):
        if m == 1:
            p_mm = math.sqrt(3.0) * s
        elif m > 1:
            p_mm = math.sqrt((2 * m + 1) / (2 * m)) * s * p_mm
        # P_lm for l = m..K by the three-term recurrence in l
        rows = [p_mm]
        if m < K:
            rows.append(math.sqrt(2 * m + 3) * z * p_mm)
        for l in range(m + 2, K + 1):
            a = math.sqrt((4 * l * l - 1) / ((l - m) * (l + m)))
            b = math.sqrt((2 * l + 1) * (l + m - 1) * (l - m - 1)
                          / ((l - m) * (l + m) * (2 * l - 3)))
            rows.append(a * z * rows[-1] - b * rows[-2])
        leg += rows + (rows if m else [])  # the cos(m phi) columns, then the sin(m phi) ones
        trig += [np.cos(m * phi)] * len(rows) + ([np.sin(m * phi)] * len(rows) if m else [])
    return np.column_stack(leg), np.column_stack(trig)


def sphere_harmonics(K: int, points: np.ndarray) -> np.ndarray:
    """Real spherical harmonics of degree <= K at unit vectors, one column each.

    Orthonormal for the mass-one invariant measure, so that for every
    degree l the columns of that degree satisfy the addition theorem
    sum_m Y_lm(x) Y_lm(y) = (2l + 1) P_l(<x, y>).  A column is the fully
    normalized P_lm(z), from the standard stable recurrences in l at fixed
    m, times 1, cos(m phi) or sin(m phi).  Returns shape (n, (K+1)^2).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return np.multiply(*_harmonic_factors(K, pts, pts))


@functools.lru_cache(maxsize=8)
def _grid_factors(K: int, n_theta: int):
    """sphere_grid(n_theta) with the factors of its rings and azimuths, all read-only."""
    pts, wts = sphere_grid(n_theta)
    out = (pts, wts, *_harmonic_factors(K, pts[::2 * n_theta], pts[:2 * n_theta]))
    for arr in out:
        arr.flags.writeable = False
    return out


def concentration_eigenvalue(region: RegionSpec, K: int, n_theta: int) -> SpectralResult:
    """Top eigenvalue of the discretized concentration operator on S^2.

    The operator sqrt(w_i w_j) k_K(<x_i, x_j>) on the region's grid nodes is
    A A^T, A = sqrt(w) Y with Y the real harmonics of degree <= K there
    (Simons, Dahlen & Wieczorek 2006).  Node ring * 2 n_theta + az has
    Y = leg[ring] * trig[az], factors cached per (K, n_theta).  A A^T and
    the Gram matrix A^T A share their nonzero eigenvalues: the smaller is
    solved densely, and its trace is the Shannon number.
    """
    if region.space.d != 2 or region.space.space_id != "s2":
        raise ValueError("the spectral oracle runs on S^2 only")
    if n_theta < 2 * K + 8:
        raise ValueError("n_theta must be at least 2K + 8")
    pts, wts, leg, trig = _grid_factors(K, n_theta)
    n_total = pts.shape[0]
    active = np.flatnonzero(region.contains(pts))
    summary = {"caps": len(region.caps), "complement": region.complement,
               "n_active": int(active.size)}
    if active.size == 0:
        return SpectralResult(lambda_max=0.0, shannon_number=0.0, n_nodes=n_total,
                              K=K, region=summary)
    ring, az = np.divmod(active, 2 * n_theta)
    a = leg[ring] * trig[az]
    a *= np.sqrt(wts[active])[:, None]
    gram = a @ a.T if active.size < a.shape[1] else a.T @ a
    return SpectralResult(lambda_max=float(np.linalg.eigvalsh(gram)[-1]),
                          shannon_number=float(np.trace(gram)), n_nodes=n_total,
                          K=K, region=summary)


def convolution_check(K: int, g_coeffs, h_coeffs, n_theta: int) -> float:
    """Max deviation from the convolution product rule on S^2.

    ``g_coeffs`` and ``h_coeffs`` are Legendre coefficients of zonal profiles
    about the north pole.  The convolution h * g is evaluated by explicit
    quadrature over the sphere at one grid node per polar ring (the product
    grid is azimuthally symmetric, so the remaining nodes carry identical
    values), its zonal coefficients are extracted from the same grid, and the
    largest mismatch against d_k^(-1/2) hhat(k,1) ghat(k,1) over k <= K is
    returned.
    """
    s2 = make_space(Family.SPHERE, 2)
    g_coeffs = np.asarray(g_coeffs, dtype=np.float64)
    h_coeffs = np.asarray(h_coeffs, dtype=np.float64)
    pts, wts = sphere_grid(n_theta)
    n_phi = 2 * n_theta
    tpole = np.clip(pts @ np.array([0.0, 0.0, 1.0]), -1.0, 1.0)
    h_vals = legval(tpole, h_coeffs)
    # c(x) = int h(y) G(<x, y>) dnu(y), at the first node of each ring
    reps = pts[::n_phi]
    dots = np.clip(reps @ pts.T, -1.0, 1.0)
    conv_ring = legval(dots, g_coeffs) @ (wts * h_vals)
    ring_w = np.add.reduceat(wts, np.arange(0, wts.size, n_phi))
    ring_t = tpole[::n_phi]
    worst = 0.0
    for k in range(K + 1):
        d_k = eigenspace_info(s2, k).d_k_raw
        unit = np.zeros(k + 1)
        unit[k] = 1.0
        y_k = math.sqrt(d_k) * legval(ring_t, unit)
        got = float(np.dot(ring_w, conv_ring * y_k))
        ghat = zonal_coefficient(s2, K, lambda t: legval(t, g_coeffs), k)
        hhat = zonal_coefficient(s2, K, lambda t: legval(t, h_coeffs), k)
        expect = ghat * hhat / math.sqrt(d_k)
        worst = max(worst, abs(got - expect))
    return worst


# ---------------------------------------------------------------------------
# Property suites
# ---------------------------------------------------------------------------


def ordering_check(space: SpaceParams, K: int) -> tuple[int, int]:
    """Zero counts that certify r_0 >= r_1 >= ... >= r_n >= 0 on [x, 1], r_j = P_j/P_j(1).

    Here n = space.degree(K) and x = space.to_x(t_KK), between the zero
    x_nn and the image of t_KK.  Returns the Sturm counts of the zeros of
    P_n^(alpha,beta) in (x, 1] and of P_{n-1}^(alpha+1,beta) in [x, 1];
    (0, 0) certifies the ordering.  The first gives r_n >= 0.  For the
    second, r_j - r_{j+1} is a positive multiple of (1 - x)
    P_j^(alpha+1,beta)(x) (DLMF 18.9.5), and the largest zero of
    P_j^(alpha+1,beta) grows with j (interlacing), so the top degree
    decides for every j < n.  On P^d(R) degree j is band index 2j.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    x, alpha, beta = space.to_x(nyquist_delta(space, K)), space.alpha, space.beta
    n = space.degree(K)
    return (jacobi_zero_count(JacobiIndex(alpha, beta, n), math.nextafter(x, 2.0)),
            jacobi_zero_count(JacobiIndex(alpha + 1.0, beta, n - 1), x))


def limit_check(space: SpaceParams, k_list) -> list[tuple[int, float, float]]:
    """Tabulate |A_K - A_inf| along increasing K; gap monotonicity is the caller's check."""
    ks = list(k_list)
    if ks != sorted(ks):
        raise ValueError("K_list must be increasing")
    a_inf = a_infinity(space)
    return [(k, a_k, abs(a_k - a_inf)) for k, a_k in ((k, a_constant(space, k)) for k in ks)]
