"""Reference helpers that only the tests use, built on capsieve's public functions.

Jacobi derivatives, squared norms and the Mehler-Heine residual, exact
rational constants of P^d(R) at integer alpha, the reproducing kernel of
S^2, and cap membership, sampling and intersection fractions on S^d and
P^d(R).  The cap helpers reuse the region module's
pole sample and reflections, so a sample here is the one the density
search scores; only s2_cap_fraction draws its own exact sample.
"""

import math
from fractions import Fraction

import numpy as np
from numpy.polynomial.legendre import legval

from capsieve import region
from capsieve.specfun import JacobiIndex, bessel_j, jacobi_eval, log_gamma


def jacobi_derivative(idx: JacobiIndex, t):
    """d/dt P_n^(alpha,beta)(t) = (n+alpha+beta+1)/2 * P_{n-1}^(alpha+1,beta+1)(t)."""
    if idx.n == 0:
        return 0.0 * jacobi_eval(idx, t)
    fac = 0.5 * (idx.n + idx.alpha + idx.beta + 1.0)
    return fac * jacobi_eval(JacobiIndex(idx.alpha + 1.0, idx.beta + 1.0, idx.n - 1), t)


def jacobi_norm_sq(idx: JacobiIndex) -> float:
    """Squared weighted L2 norm of P_n^(alpha,beta) over (-1, 1)."""
    n, alpha, beta = idx.n, idx.alpha, idx.beta
    lg = (log_gamma(n + alpha + 1.0) + log_gamma(n + beta + 1.0)
          - log_gamma(n + 1.0) - log_gamma(n + alpha + beta + 1.0))
    return math.exp((alpha + beta + 1.0) * math.log(2.0) + lg) / (2 * n + alpha + beta + 1.0)


def _integral(poly, w: Fraction) -> Fraction:
    """Integral over [0, w] of sum_i poly[i] u^i, by Horner's rule."""
    acc = Fraction(0)
    for i in range(len(poly) - 1, -1, -1):
        acc = acc * w + Fraction(poly[i]) / (i + 1)
    return acc * w


def _product(p, q) -> list:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _rp_series(alpha: int, K: int) -> list[Fraction]:
    """Coefficients in u = 1 - t of r_K = P_K^(alpha,alpha)(t) / P_K(1)."""
    series = [Fraction(1)]
    for j in range(K):
        series.append(series[-1] * (j - K) * (K + 2 * alpha + 1 + j)
                      / (2 * (alpha + 1 + j) * (j + 1)))
    return series


def rp_ratio(alpha: int, K: int, t: float) -> Fraction:
    """r_K(t) = P_K^(alpha,alpha)(t) / P_K(1) at a double t, exactly."""
    u, acc = 1 - Fraction(t), Fraction(0)
    for c in reversed(_rp_series(alpha, K)):
        acc = acc * u + c
    return acc


def rp_exact_constants(alpha: int, K: int, delta: float) -> tuple[Fraction, Fraction]:
    """Exact T2(K, delta) and A_K at delta on P^d(R), alpha = (d-2)/2 an integer, in t.

    The model is the one in t: r_K = P_K^(alpha,alpha)(t) / P_K(1) on (0, 1),
    the terminating series sum_j (-K)_j (K+2alpha+1)_j / ((alpha+1)_j j!) (u/2)^j
    in u = 1 - t (DLMF 18.5.7), against the weight (1 - t^2)^alpha = u^alpha (2 - u)^alpha.
    The double delta is a rational, so with w = 1 - delta both are rationals:
    T2 = int_0^1 weight / int_0^w r_K^2 weight, A_K = int_0^w weight / int_0^w r_K^2 weight.
    """
    series = _rp_series(alpha, K)
    weight = [0] * alpha + [math.comb(alpha, i) * 2 ** (alpha - i) * (-1) ** i
                            for i in range(alpha + 1)]
    w = 1 - Fraction(delta)
    tail = _integral(_product(_product(series, series), weight), w)
    return _integral(weight, Fraction(1)) / tail, _integral(weight, w) / tail


def mehler_heine_residual(idx: JacobiIndex, z: float) -> float:
    """|n^-alpha P_n(1 - z^2/(2 n^2)) - (2/z)^alpha J_alpha(z)|, 0 < z <= min(2n, 1e5)."""
    n, alpha = idx.n, idx.alpha
    z_max = min(2.0 * n, 1e5)  # 2n keeps t = 1 - z^2/(2 n^2) >= -1; bessel_j stops at 1e5
    if not (0.0 < z <= z_max):
        raise ValueError(f"z must lie in (0, min(2n, 100000)] = (0, {z_max:g}], got {z}")
    left = jacobi_eval(idx, 1.0 - z * z / (2.0 * n * n)) * math.exp(-alpha * math.log(n))
    right = (2.0 / z) ** alpha * bessel_j(alpha, z)
    return abs(left - right)


def sphere_kernel(K: int, t) -> np.ndarray | float:
    """Reproducing kernel of degree-<=K expansions on S^2 at cosine distance t."""
    coeffs = 2.0 * np.arange(K + 1, dtype=np.float64) + 1.0
    out = legval(np.asarray(t, dtype=np.float64), coeffs)
    if np.ndim(t) == 0:
        return float(out)
    return out


def cap_contains(space, center, delta: float, x) -> np.ndarray | bool:
    """Whether x lies in the cap of parameter delta around center (boundary included)."""
    pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
    inside = region.cos_distance(space, pts, region._as_unit(center)) >= delta
    if np.ndim(x) == 1:
        return bool(inside[0])
    return inside


def sample_cap(space, center, delta: float, n: int, seed: int) -> np.ndarray:
    """n points of the invariant measure restricted to a cap: the pole sample, reflected."""
    pts = region._pole_sample(space, delta, n, seed)
    return region._pole_to(region._as_unit(center)[None], pts)[0]


def sample_space(space, n: int, seed: int) -> np.ndarray:
    """n points from the invariant measure of the whole space."""
    g = np.random.default_rng(seed).standard_normal((n, space.d + 1))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _fraction(reg, center, pts: np.ndarray) -> tuple[float, float]:
    f = float(region._fractions(reg, region._as_unit(center)[None], pts)[0])
    return f, math.sqrt(f * (1.0 - f) / len(pts))


def cap_fraction(reg, center, delta: float, n: int, seed: int) -> tuple[float, float]:
    """Monte Carlo estimate of |Omega intersect cap| / |cap| with its std error.

    The cap sample is the region module's pole sample, the one the density
    search scores.
    """
    return _fraction(reg, center, region._pole_sample(reg.space, delta, n, seed))


def s2_cap_fraction(reg, center, delta: float, n: int, seed: int) -> tuple[float, float]:
    """cap_fraction on S^2 from a sample drawn here, exactly and without the program's CDF.

    By Archimedes, t = <x, e_0> of a uniform point of the cap around e_0 is
    uniform on [delta, 1], and its azimuth is uniform.
    """
    rng = np.random.default_rng(seed)
    t = rng.uniform(delta, 1.0, n)
    phi = rng.uniform(0.0, 2.0 * math.pi, n)
    r = np.sqrt(np.maximum(0.0, 1.0 - t * t))
    return _fraction(reg, center, np.column_stack([t, r * np.cos(phi), r * np.sin(phi)]))
