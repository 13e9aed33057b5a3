"""Special-function substrate.

Jacobi polynomials (values, endpoint values, derivatives, squared norms,
largest zeros), Gauss-Jacobi quadrature including tail rules on [delta, 1],
log-gamma, incomplete beta integrals, and Bessel functions of the first
kind with their first positive zero.

Everything is plain double precision; gamma ratios go through log-gamma
differences so endpoint values and norms stay finite for large degrees.
Bessel J is one backward recurrence (Miller) for every order >= -1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import _backend

__all__ = [
    "JacobiIndex",
    "ZeroResult",
    "QuadratureRule",
    "jacobi_eval",
    "jacobi_eval_rows",
    "jacobi_at_one",
    "jacobi_derivative",
    "jacobi_norm_sq",
    "euler_rayleigh_bound",
    "largest_zero",
    "gauss_jacobi_rule",
    "tail_quadrature",
    "log_gamma",
    "beta_function",
    "incomplete_beta",
    "bessel_j",
    "bessel_first_zero",
    "mehler_heine_residual",
]

_T_TOL = 1e-12


@dataclass(frozen=True)
class JacobiIndex:
    """Parameter pair (alpha, beta) plus degree n of a Jacobi polynomial."""

    alpha: float
    beta: float
    n: int

    def __post_init__(self) -> None:
        if not self.alpha >= -0.5:
            raise ValueError(f"alpha must be >= -1/2, got {self.alpha}")
        if not self.beta > -1.0:
            raise ValueError(f"beta must be > -1, got {self.beta}")
        if self.n < 0 or self.n != int(self.n):
            raise ValueError(f"degree must be a nonnegative integer, got {self.n}")


@dataclass(frozen=True)
class ZeroResult:
    """Largest zero of a Jacobi polynomial with its arccos and final bracket."""

    t_nn: float
    theta_n1: float
    bracket_width: float


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    exactness_degree: int


# ---------------------------------------------------------------------------
# log-gamma and beta integrals
# ---------------------------------------------------------------------------


def log_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0 (the C library's lgamma)."""
    if not x > 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


@lru_cache(maxsize=128)
def beta_function(a: float, b: float) -> float:
    """Complete beta integral B(a, b), the incomplete-beta series summed at the two means."""
    return incomplete_beta(1.0, a, b)


def incomplete_beta(x: float, a: float, b: float) -> float:
    """B_x(a,b) = integral of t^(a-1) (1-t)^(b-1) over [0, x].

    For x below the mean a/(a+b) the positive-term series
    x^a (1-x)^b / a * F(a+b, 1; a+1; x) is summed directly; otherwise the
    value is obtained through the reflection B(a,b) - B_{1-x}(b,a).
    """
    if not (0.0 <= x <= 1.0):
        raise ValueError(f"x must lie in [0, 1], got {x}")
    if not (a > 0.0 and b > 0.0):
        raise ValueError("a and b must be positive")
    return _backend.incomplete_beta(x, a, b)


# ---------------------------------------------------------------------------
# Jacobi polynomials
# ---------------------------------------------------------------------------


def _check_t(t):
    arr = np.asarray(t, dtype=np.float64)
    if np.any(arr > 1.0 + _T_TOL) or np.any(arr < -1.0 - _T_TOL):
        raise ValueError("argument outside [-1, 1]")
    return np.clip(arr, -1.0, 1.0)


def _jacobi_raw(alpha: float, beta: float, n, t):
    """Upward three-term recurrence.

    Either n is one degree and t a scalar or an ndarray, or n is a
    nondecreasing sequence of degrees >= 1, one per row of a 2-D t.  Row i
    is then taken when the recurrence reaches n[i], and finished rows leave
    the arithmetic, so one pass costs sum(n) * t.shape[1] steps.
    """
    ab = alpha + beta
    if isinstance(n, (int, np.integer)):
        if n == 0:
            return np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
        stops, counts, out = (n,), (1,), None
    else:
        if np.ndim(t) != 2 or len(n) != len(t) or n[0] < 1 or np.any(np.diff(n) < 0):
            raise ValueError("degrees must be >= 1, nondecreasing and one per row of a 2-D t")
        stops, counts = np.unique(n, return_counts=True)
        out = np.empty_like(t)
    pm = np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
    pc = 0.5 * ((ab + 2.0) * t + (alpha - beta))
    start, done = 1, 0
    for stop, count in zip(stops, counts):
        for k in range(start, stop):
            tmp = 2.0 * k + ab
            den = 2.0 * (k + 1.0) * (k + ab + 1.0)
            a_k = (tmp + 1.0) * (tmp + 2.0) / den
            b_k = (alpha * alpha - beta * beta) * (tmp + 1.0) / (den * tmp)
            c_k = (k + alpha) * (k + beta) * (tmp + 2.0) / (0.5 * den * tmp)
            pm, pc = pc, (a_k * t + b_k) * pc - c_k * pm
        if out is None:
            return pc
        out[done:done + count] = pc[:count]
        pm, pc, t = pm[count:], pc[count:], t[count:]
        start, done = stop, done + count
    return out


def jacobi_eval(idx: JacobiIndex, t):
    """P_n^(alpha,beta)(t) by upward recurrence; t scalar or array in [-1, 1]."""
    tt = _check_t(t)
    out = _jacobi_raw(idx.alpha, idx.beta, idx.n, tt)
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return out


def jacobi_eval_rows(alpha: float, beta: float, degrees, t) -> np.ndarray:
    """P_{n_i}^(alpha,beta) on row i of a 2-D t in [-1, 1], all rows in one recurrence pass.

    ``degrees`` holds one degree n_i >= 1 per row, in nondecreasing order.
    Each row equals jacobi_eval of its own degree bit for bit.
    """
    return _jacobi_raw(alpha, beta, degrees, _check_t(t))


def jacobi_at_one(idx: JacobiIndex) -> float:
    """P_n^(alpha,beta)(1) = Gamma(n+alpha+1) / (n! Gamma(alpha+1))."""
    n, alpha = idx.n, idx.alpha
    return math.exp(log_gamma(n + alpha + 1.0) - log_gamma(n + 1.0)
                    - log_gamma(alpha + 1.0))


def jacobi_derivative(idx: JacobiIndex, t):
    """d/dt P_n^(alpha,beta)(t) = (n+alpha+beta+1)/2 * P_{n-1}^(alpha+1,beta+1)(t)."""
    tt = _check_t(t)
    if idx.n == 0:
        out = np.zeros_like(tt)
    else:
        fac = 0.5 * (idx.n + idx.alpha + idx.beta + 1.0)
        out = fac * _jacobi_raw(idx.alpha + 1.0, idx.beta + 1.0, idx.n - 1, tt)
    if np.isscalar(t) or np.ndim(t) == 0:
        return float(out)
    return out


def jacobi_norm_sq(idx: JacobiIndex, projective: bool = False) -> float:
    """Squared weighted L2 norm of P_n^(alpha,beta).

    Standard form integrates over (-1, 1); with ``projective`` set the
    integral runs over (0, 1), which requires even degree and alpha == beta
    (the integrand is then even and the value halves).
    """
    n, alpha, beta = idx.n, idx.alpha, idx.beta
    if projective:
        if n % 2 != 0:
            raise ValueError("projective norm needs even degree")
        if alpha != beta:
            raise ValueError("projective norm needs alpha == beta")
    lg = (log_gamma(n + alpha + 1.0) + log_gamma(n + beta + 1.0)
          - log_gamma(n + 1.0) - log_gamma(n + alpha + beta + 1.0))
    val = math.exp((alpha + beta + 1.0) * math.log(2.0) + lg) / (2 * n + alpha + beta + 1.0)
    return 0.5 * val if projective else val


def euler_rayleigh_bound(idx: JacobiIndex) -> float:
    """Upper bound 1 - 2(alpha+1)/(n(n+alpha+beta+1)) on the largest zero."""
    n = idx.n
    if n < 1:
        raise ValueError("degree must be >= 1")
    return 1.0 - 2.0 * (idx.alpha + 1.0) / (n * (n + idx.alpha + idx.beta + 1.0))


def largest_zero(idx: JacobiIndex) -> ZeroResult:
    """Largest zero t_nn of P_n^(alpha,beta), n >= 1.

    Newton's method starts at the Euler-Rayleigh upper bound.  All zeros of
    P_n are real, so above the largest one P_n, P_n' and P_n'' are positive
    and Newton iterates fall monotonically onto t_nn.  The first iterate
    where P_n <= 0 (roundoff near the zero) closes a bracket with the
    previous one, which is bisected to width 1e-15.  The derivative is
    P_n' = (n+alpha+beta+1)/2 * P_{n-1}^(alpha+1,beta+1).
    """
    if idx.n < 1:
        raise ValueError("degree must be >= 1")
    alpha, beta, n = idx.alpha, idx.beta, idx.n
    fac = 0.5 * (n + alpha + beta + 1.0)

    def f(x: float) -> float:
        return float(_jacobi_raw(alpha, beta, n, x))

    hi = euler_rayleigh_bound(idx)
    f_hi = f(hi)
    if f_hi <= 0.0:
        # the bound itself sits on the zero to within roundoff (exact for n=1)
        return ZeroResult(t_nn=hi, theta_n1=math.acos(hi), bracket_width=0.0)

    for _step in range(200):
        lo = hi - f_hi / (fac * float(_jacobi_raw(alpha + 1.0, beta + 1.0, n - 1, hi)))
        if not lo < hi:  # the step fell below one ulp
            lo = math.nextafter(hi, -math.inf)
        f_lo = f(lo)
        if f_lo <= 0.0:
            break
        hi, f_hi = lo, f_lo
    else:  # pragma: no cover
        raise RuntimeError("Newton iteration for the largest zero did not stop")

    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    t = 0.5 * (lo + hi)
    return ZeroResult(t_nn=t, theta_n1=math.acos(min(t, 1.0)), bracket_width=hi - lo)


# ---------------------------------------------------------------------------
# Gauss-Jacobi quadrature (Golub-Welsch on the symmetric tridiagonal matrix)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)  # a table uses 32 node counts, 2K+64 for K <= 32, per family
def _gauss_jacobi_cached(alpha: float, beta: float, m: int):
    ab = alpha + beta
    diag = np.empty(m)
    diag[0] = (beta - alpha) / (ab + 2.0)
    if m > 1:
        i = np.arange(1, m, dtype=np.float64)
        diag[1:] = (beta * beta - alpha * alpha) / ((2 * i + ab) * (2 * i + ab + 2.0))
        off = np.empty(m - 1)
        # i = 1 written in cancelled form: (i + ab) / ((2i+ab)^2 - 1) has a
        # removable 0/0 at ab = -1
        off[0] = math.sqrt(4.0 * (1.0 + alpha) * (1.0 + beta)
                           / ((2.0 + ab) ** 2 * (3.0 + ab)))
        if m > 2:
            j = np.arange(2, m, dtype=np.float64)
            s = 2 * j + ab
            off[1:] = np.sqrt(4.0 * j * (j + alpha) * (j + beta) * (j + ab)
                              / (s * s * (s * s - 1.0)))
        jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    else:
        jac = diag.reshape(1, 1)
    nodes, vecs = np.linalg.eigh(jac)
    if not np.all(np.isfinite(nodes)):  # pragma: no cover
        raise RuntimeError("eigen solver failed to converge")
    mu0 = 2.0 ** (ab + 1.0) * beta_function(alpha + 1.0, beta + 1.0)
    weights = mu0 * vecs[0, :] ** 2
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def gauss_jacobi_rule(alpha: float, beta: float, m: int) -> QuadratureRule:
    """m-point rule for the weight (1-t)^alpha (1+t)^beta on (-1, 1).

    Exact for polynomial integrands up to degree 2m - 1.
    """
    if m < 1:
        raise ValueError("node count must be >= 1")
    if not (alpha > -1.0 and beta > -1.0):
        raise ValueError("alpha, beta must exceed -1")
    nodes, weights = _gauss_jacobi_cached(float(alpha), float(beta), int(m))
    return QuadratureRule(nodes=nodes, weights=weights, exactness_degree=2 * m - 1)


def tail_quadrature(alpha: float, beta: float, delta, m: int) -> QuadratureRule:
    """Rule for integrals of f(t) (1-t)^alpha (1+t)^beta over [delta, 1].

    The substitution t = 1 - (1-delta) x turns the (1-t)^alpha factor into
    x^alpha, handled exactly by a (0, alpha) Gauss-Jacobi rule; the remaining
    (1+t)^beta factor is analytic on the tail and folded into the weights.
    Weights therefore absorb the full weight function: sum_i w_i f(t_i)
    approximates the integral of f * omega.

    The error depends on how smooth f(1 - (1-delta) x) is on [0, 1], not on
    a polynomial degree of f.  For f = P_K^2 with delta >= t_KK this is a
    squared Bessel-like profile without a zero (Mehler-Heine), so a fixed m
    (128 for the sieve constants) reaches the floor set by rounding the
    nodes t near 1 at every K.

    ``delta`` may also be a 1-D sequence: then nodes and weights have one
    row per delta, each equal to the rule at that delta alone, all mapped
    from the one base rule in one array expression.
    """
    rows = np.ndim(delta) == 1
    deltas = [float(d) for d in delta] if rows else [float(delta)]
    if not all(-1.0 <= d < 1.0 for d in deltas):
        raise ValueError("delta must lie in [-1, 1)")
    base = gauss_jacobi_rule(0.0, alpha, m)
    x = 0.5 * (1.0 + base.nodes)  # in (0, 1), increasing
    # scalar powers: numpy's vector power differs in the last bit for ~5% of widths
    scale = [(1.0 - d) ** (alpha + 1.0) * 2.0 ** (-alpha - 1.0) for d in deltas]
    if rows:
        width, scale = 1.0 - np.array(deltas)[:, None], np.array(scale)[:, None]
    else:
        width, scale = 1.0 - deltas[0], scale[0]
    t = (1.0 - width * x)[..., ::-1].copy()
    w = (scale * base.weights * (2.0 - width * x) ** beta)[..., ::-1].copy()
    t.flags.writeable = False
    w.flags.writeable = False
    return QuadratureRule(nodes=t, weights=w, exactness_degree=2 * m - 1)


# ---------------------------------------------------------------------------
# Bessel J_alpha and its first positive zero
# ---------------------------------------------------------------------------


def _check_bessel_args(alpha: float, z: float = 0.0) -> None:
    if not (math.isfinite(alpha) and alpha >= -0.5 and math.isfinite(z) and z >= 0.0):
        raise ValueError(f"need a finite order >= -1/2 and argument >= 0, got {alpha}, {z}")


def _bessel_pair(alpha: float, z: float) -> tuple[float, float]:
    """(J_alpha(z), J_{alpha+1}(z)), z > 0, by Miller's algorithm (Gautschi 1967, SIAM Review 9).

    f_{m-1} = 2(alpha+m)/z f_m - f_{m+1} runs down from f_n = 1 at an even
    n = z + 3 sqrt(z) + 32, past the turning point, so it costs O(z) steps.
    The Neumann sum (z/2)^alpha / Gamma(alpha+1) = sum_k d_k J_{alpha+2k}(z),
    d_0 = 1, d_k = (alpha+2k) (alpha+1)_{k-1} / k!, fixes the scale; it is
    summed in Horner form in the same pass, so no d_k is formed.
    """
    # J = (f / sum) e^log_norm, |f / sum| <= 1 (DLMF 10.14.4); the power and
    # Gamma are joined in logs, and beyond e^600 f / sum is no longer normal
    log_norm = alpha * (math.log(z) - math.log(2.0)) - log_gamma(alpha + 1.0)
    if log_norm > 600.0:
        raise ValueError(f"J_alpha at order {alpha}, argument {z}: (z/2)^alpha / Gamma(alpha+1) "
                         f"= exp({log_norm:.0f}) is beyond double precision")
    n = 2 * int(0.5 * (z + 3.0 * math.sqrt(z))) + 32
    f_next, f, s = 0.0, 1.0, 0.0
    for m in range(n, 0, -1):
        if m % 2 == 0:  # m = 2k; d_k / (alpha+2k) grows by (alpha+k)/(k+1) per k
            s = (alpha + m) * f + (2.0 * alpha + m) / (m + 2) * s
        f_next, f = f, 2.0 * (alpha + m) / z * f - f_next
        big = max(abs(f), abs(s))
        if big > 1e200:  # f is inf where 2(alpha+m)/z overflows at tiny z
            f_next, s = f_next / big, s / big
            f = math.copysign(1.0, f) if big == abs(f) else f / big
    norm = math.exp(log_norm)
    return f / (f + s) * norm, f_next / (f + s) * norm


_BESSEL_Z_MAX = 1e5  # Miller's recurrence takes O(z) steps: 0.06 s at 1e5, 0.64 s at 1e6


def bessel_j(alpha: float, z: float) -> float:
    """Bessel function of the first kind J_alpha(z), alpha >= -1/2, 0 <= z <= 1e5."""
    _check_bessel_args(alpha, z)
    if z > _BESSEL_Z_MAX:
        raise ValueError(f"J_alpha argument {z} exceeds {_BESSEL_Z_MAX:g}: the recurrence "
                         "behind it costs O(z) steps")
    if z == 0.0:
        return 1.0 if alpha == 0.0 else 0.0
    return _bessel_pair(alpha, z)[0]


def bessel_first_zero(alpha: float) -> float:
    """Smallest positive zero j_{alpha,1} of J_alpha, alpha >= -1/2.

    Newton's method with J_alpha' = (alpha/z) J_alpha - J_{alpha+1}, both
    from one recurrence pass, starts at the larger of two lower bounds:
    Rayleigh's j^4 > 16 (alpha+1)^2 (alpha+2) and, for alpha > 0,
    j > alpha + 1.8557571 alpha^(1/3) (Qu & Wong 1999, Trans. AMS 351).
    It stops once a step is at most 4e-16 z.
    """
    _check_bessel_args(alpha)
    z = max((16.0 * (alpha + 1.0) ** 2 * (alpha + 2.0)) ** 0.25,
            alpha + 1.8557571 * max(alpha, 0.0) ** (1.0 / 3.0))
    for _step in range(100):
        j0, j1 = _bessel_pair(alpha, z)
        step = j0 / (alpha / z * j0 - j1)
        z -= step
        if abs(step) <= 4e-16 * z:
            return z
    raise RuntimeError("Newton iteration for j_{alpha,1} did not stop")  # pragma: no cover


def mehler_heine_residual(idx: JacobiIndex, z: float) -> float:
    """|n^-alpha P_n(1 - z^2/(2 n^2)) - (2/z)^alpha J_alpha(z)|, 0 < z <= min(2n, 1e5)."""
    n, alpha = idx.n, idx.alpha
    z_max = min(2.0 * n, _BESSEL_Z_MAX)  # 2n keeps t = 1 - z^2/(2 n^2) >= -1
    if not (0.0 < z <= z_max):
        raise ValueError(f"z must lie in (0, min(2n, {_BESSEL_Z_MAX:g})] = (0, {z_max:g}], "
                         f"got {z}")
    t = 1.0 - z * z / (2.0 * n * n)
    left = float(_jacobi_raw(idx.alpha, idx.beta, n, t)) * math.exp(-alpha * math.log(n))
    right = (2.0 / z) ** alpha * bessel_j(alpha, z)
    return abs(left - right)
