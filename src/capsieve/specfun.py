"""Special-function substrate.

Jacobi polynomials (values, endpoint values, zero counts, largest
zeros), Gauss-Jacobi quadrature including tail rules on [delta, 1],
log-gamma, incomplete beta integrals, and Bessel functions of the first
kind with their first positive zero.

Everything is plain double precision; gamma ratios go through log-gamma
differences so endpoint values and norms stay finite for large degrees.
One three-term recurrence, over coefficients tabulated once per family,
gives every Jacobi value and its Sturm count.  Largest zeros come from one
Newton body started at Gatteschi's asymptotic estimate, each certified to
one ulp by the Sturm counts of two passes.  Bessel J is one backward
recurrence (Miller) for every order >= -1/2.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from . import _backend

__all__ = [
    "JacobiIndex",
    "ZeroResult",
    "QuadratureRule",
    "jacobi_eval",
    "jacobi_eval_rows",
    "jacobi_ratio_rows",
    "jacobi_at_one",
    "jacobi_zero_count",
    "euler_rayleigh_bound",
    "largest_zero_estimate",
    "largest_zero",
    "largest_zeros",
    "gauss_jacobi_rule",
    "tail_quadrature",
    "log_gamma",
    "beta_function",
    "incomplete_beta",
    "bessel_j",
    "bessel_first_zero",
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


_TABLE_FAMILIES = 32  # recurrence tables kept; the oldest family goes first
_tables: dict[tuple[float, float], tuple[list, list, list]] = {}


def _recurrence(alpha: float, beta: float, n: int) -> tuple[list, list, list]:
    """(a_k, b_k, c_k) of P_{k+1} = (a_k t + b_k) P_k - c_k P_{k-1} for k = 1, 2, ...

    At least n - 1 entries of each, as lists of floats.  A family's table is
    built once and doubles when a degree outgrows it.
    """
    key = (float(alpha), float(beta))
    table = _tables.get(key)
    if table is None or len(table[0]) < n - 1:
        size = len(table[0]) if table else 64
        while size < n - 1:
            size *= 2
        ab, k = alpha + beta, np.arange(1.0, size + 1.0)
        tmp = 2.0 * k + ab
        den = 2.0 * (k + 1.0) * (k + ab + 1.0)
        a_k = (tmp + 1.0) * (tmp + 2.0) / den
        b_k = (alpha * alpha - beta * beta) * (tmp + 1.0) / (den * tmp)
        c_k = (k + alpha) * (k + beta) * (tmp + 2.0) / (0.5 * den * tmp)
        if table is None and len(_tables) >= _TABLE_FAMILIES:
            del _tables[next(iter(_tables))]
        table = _tables[key] = (a_k.tolist(), b_k.tolist(), c_k.tolist())
    return table


def _jacobi_raw(alpha: float, beta: float, n, t, previous: bool = False, sturm: bool = False):
    """Upward three-term recurrence over the family's _recurrence table.

    Either n is one degree and t a scalar or an ndarray, or n is a
    nondecreasing sequence of degrees >= 1, one per row of a 2-D t.  Row i
    is then taken when the recurrence reaches n[i], and finished rows leave
    the arithmetic, so one pass costs sum(n) * t.shape[1] steps.  For one
    degree n >= 1, ``previous`` returns the pair (P_{n-1}, P_n) from the same
    pass, and ``sturm`` the number of zeros of P_n in [t, 1] instead, a P_n
    that rounds to 0.0 counting as a zero at t.  P_0, ..., P_n is a Sturm
    sequence (Golub & Van Loan, Matrix Computations, 8.4): leading
    coefficients are positive and c_k > 0, so the zeros above t are its sign
    changes.  A zero P_k with k < n sits between neighbours of opposite sign.
    The Sturm pass takes a scalar t and carries the sign of the last value,
    so each step compares one value with 0.
    """
    single = isinstance(n, (int, np.integer))
    if single:
        if n == 0:
            return np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
        stops, counts = (n,), (1,)
    else:
        if np.ndim(t) != 2 or len(n) != len(t) or n[0] < 1 or np.any(np.diff(n) < 0):
            raise ValueError("degrees must be >= 1, nondecreasing and one per row of a 2-D t")
        stops, counts = zip(*sorted(Counter(n).items()))
        out = np.empty_like(t)
    steps = zip(*_recurrence(alpha, beta, stops[-1]))
    pm = np.ones_like(t) if isinstance(t, np.ndarray) else 1.0
    pc = 0.5 * ((alpha + beta + 2.0) * t + (alpha - beta))
    if single and sturm:
        negative = pc < 0.0
        changes = int(negative)
        for a_k, b_k, c_k in islice(steps, n - 1):
            pm, pc = pc, (a_k * t + b_k) * pc - c_k * pm
            if (pc < 0.0) != negative:
                negative = not negative
                changes += 1
        # a zero P_n counts: just below t its sign is opposite to P_{n-1}'s
        return changes + (pc == 0.0 and pm >= 0.0)
    start, done = 1, 0
    for stop, count in zip(stops, counts):
        for a_k, b_k, c_k in islice(steps, stop - start):
            pm, pc = pc, (a_k * t + b_k) * pc - c_k * pm
        if single:
            return (pm, pc) if previous else pc
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


def jacobi_ratio_rows(alpha: float, beta: float, degrees, t) -> np.ndarray:
    """r_n = P_n / P_n(1) as jacobi_eval_rows gives P_n; degrees (a list or range) >= 0."""
    first = degrees.count(0)
    out = np.ones(np.shape(t))
    if first < len(degrees):
        pk1 = np.array([jacobi_at_one(JacobiIndex(alpha, beta, n)) for n in degrees[first:]])
        out[first:] = jacobi_eval_rows(alpha, beta, degrees[first:], t[first:]) / pk1[:, None]
    return out


def jacobi_at_one(idx: JacobiIndex) -> float:
    """P_n^(alpha,beta)(1) = Gamma(n+alpha+1) / (n! Gamma(alpha+1))."""
    n, alpha = idx.n, idx.alpha
    return math.exp(log_gamma(n + alpha + 1.0) - log_gamma(n + 1.0)
                    - log_gamma(alpha + 1.0))


def jacobi_zero_count(idx: JacobiIndex, t: float) -> int:
    """Number of zeros of P_n^(alpha,beta) in [t, 1], t in [-1, 1]: the recurrence's Sturm count."""
    if idx.n == 0:
        return 0
    return int(_jacobi_raw(idx.alpha, idx.beta, idx.n, float(_check_t(t)), sturm=True))


def euler_rayleigh_bound(idx: JacobiIndex) -> float:
    """Upper bound 1 - 2(alpha+1)/(n(n+alpha+beta+1)) on the largest zero."""
    if idx.n < 1:
        raise ValueError("degree must be >= 1")
    return _euler_rayleigh(idx.alpha, idx.beta, idx.n)


def _euler_rayleigh(alpha: float, beta: float, n: int) -> float:
    return 1.0 - 2.0 * (alpha + 1.0) / (n * (n + alpha + beta + 1.0))


def largest_zero_estimate(idx: JacobiIndex) -> float:
    """Newton start of largest_zero: Gatteschi's cos(j_{alpha,1} / nu), capped.

    The cap is euler_rayleigh_bound, and
    nu = sqrt(rho^2 + (1 - alpha^2 - 3 beta^2)/12), rho = n + (alpha+beta+1)/2
    (Gatteschi & Pittaluga 1985; the start of Hale & Townsend, SIAM J. Sci.
    Comput. 35 (2013)).  Where nu^2 <= 0, j/nu >= pi or J_alpha leaves the
    double range (alpha above about 1900), the bound itself is returned.
    """
    if idx.n < 1:
        raise ValueError("degree must be >= 1")
    return _zero_start(idx.alpha, idx.beta, idx.n, _start_bessel_zero(idx.alpha))


def _start_bessel_zero(alpha: float) -> float:
    try:
        return bessel_first_zero(alpha)
    except ValueError:  # J_alpha beyond double precision: no estimate, start at the bound
        return math.inf


def _zero_start(alpha: float, beta: float, n: int, j: float) -> float:
    bound = _euler_rayleigh(alpha, beta, n)
    rho = n + 0.5 * (alpha + beta + 1.0)
    nu_sq = rho * rho + (1.0 - alpha * alpha - 3.0 * beta * beta) / 12.0
    if not j * j < math.pi * math.pi * nu_sq:
        return bound
    return min(math.cos(j / math.sqrt(nu_sq)), bound)


def _slope(alpha, beta, n, x, pm, p):
    """P_n'(x) from P_n and P_{n-1}, elementwise (Szego, Orthogonal Polynomials, (4.5.7)).

    (2n+alpha+beta)(1-x)(1+x) P_n' = n(alpha-beta-(2n+alpha+beta)x) P_n
    + 2(n+alpha)(n+beta) P_{n-1}.
    """
    s = 2.0 * n + alpha + beta
    return ((n * (alpha - beta - s * x) * p + 2.0 * (n + alpha) * (n + beta) * pm)
            / (s * (1.0 - x) * (1.0 + x)))


def _newton_step(alpha, beta, n, x, p, slope):
    """(x - P_n/P_n', its predicted error), elementwise.

    P_n'' comes from Jacobi's equation, (1-x^2) P_n'' =
    (alpha-beta+(alpha+beta+2)x) P_n' - n(n+alpha+beta+1) P_n, and the new
    iterate is off by about |P_n'' / (2 P_n')| times the square of the step.
    """
    step = p / slope
    curve = (((alpha - beta + (alpha + beta + 2.0) * x) * slope - n * (n + alpha + beta + 1.0) * p)
             / (2.0 * (1.0 - x) * (1.0 + x) * slope))
    return x - step, abs(curve) * step * step


_NEWTON_STEPS = 100
_SEARCH_STEPS = 1100  # doublings of one ulp: enough to cross [-1, 1] from anywhere


def _newton(alpha: float, beta: float, n: int, x: float) -> float:
    """Newton's iterates from x until the next one is predicted within an ulp; that one."""
    bound = _euler_rayleigh(alpha, beta, n)
    for _step in range(_NEWTON_STEPS):
        pm, p = _jacobi_raw(alpha, beta, n, x, previous=True)
        if p == 0.0:
            return x
        slope = _slope(alpha, beta, n, x, pm, p)
        new, err = _newton_step(alpha, beta, n, x, p, slope) if slope > 0.0 else (x, math.inf)
        if not (slope > 0.0 and new > -1.0):
            # below a turning point, or thrown below -1: restart above every zero
            x = bound
        elif err <= math.ulp(new):
            return min(new, bound)
        else:
            x = min(new, bound)
    raise RuntimeError("Newton iteration for the largest zero did not stop")  # pragma: no cover


def _certified(alpha: float, beta: float, n: int, x: float) -> float:
    """The certified largest zero nearest Newton's last iterate x.

    hi is certified when the Sturm count finds no zero of P_n in [hi, 1] and
    exactly one in [lo, 1], lo = nextafter(hi, -1): the largest zero then
    lies in [lo, hi).  Usually x or the double next to it is hi, and two
    passes show it.  Near t = 0 an ulp is finer than Newton's absolute
    accuracy; there the step from x towards the sign change doubles until it
    crosses it, and the crossed gap is halved down to one ulp.  A count
    above one means Newton found a lower zero, and it descends again from
    the Euler-Rayleigh bound, above every zero.
    """
    for _attempt in range(2):
        zeros = _jacobi_raw(alpha, beta, n, x, sturm=True)
        step = math.nextafter(x, math.inf if zeros else -math.inf) - x
        for _gallop in range(_SEARCH_STEPS if zeros < 2 else 0):
            y = x + step
            zeros_y = _jacobi_raw(alpha, beta, n, y, sturm=True)
            if zeros_y > 1 and zeros:
                break
            if (zeros_y == 0) != (zeros == 0):
                lo, hi, below = (x, y, zeros) if zeros else (y, x, zeros_y)
                mid = 0.5 * (lo + hi)
                while lo < mid < hi:
                    zeros_mid = _jacobi_raw(alpha, beta, n, mid, sturm=True)
                    lo, hi, below = (mid, hi, zeros_mid) if zeros_mid else (lo, mid, below)
                    mid = 0.5 * (lo + hi)
                if below == 1:
                    return hi
                break
            x, step = y, 2.0 * step
        x = _newton(alpha, beta, n, _euler_rayleigh(alpha, beta, n))
    raise RuntimeError(f"no certified largest zero of P_{n}^({alpha}, {beta}) "
                       f"near {x!r}")  # pragma: no cover


def largest_zeros(alpha: float, beta: float, degrees) -> list[float]:
    """Largest zero of P_n^(alpha,beta) for each n of a nondecreasing sequence of degrees >= 1.

    n = 1 is the closed form (beta-alpha)/(alpha+beta+2), raised while the
    recurrence finds P_1 <= 0 one ulp above it.  Every other zero
    starts Newton's method at largest_zero_estimate, each step taking P_n and
    P_{n-1} from one recurrence pass; it stops when the next iterate is
    predicted within an ulp.  The zero t is then certified by the Sturm
    counts of two passes: P_n has no zero in [t, 1] and exactly one in
    [nextafter(t, -1), 1].  Each degree is solved on its own, so a zero is
    the same double whether it is asked for alone or with others.
    """
    JacobiIndex(alpha, beta, 0)  # checks the parameters
    degrees = [int(n) for n in degrees]
    if degrees and (degrees[0] < 1 or any(b < a for a, b in zip(degrees, degrees[1:]))):
        raise ValueError("degrees must be >= 1 and nondecreasing")
    top = max(degrees, default=0)
    log_top = log_gamma(top + alpha + 1.0) - log_gamma(top + 1.0) - log_gamma(alpha + 1.0)
    if log_top > 709.0:  # the recurrence overflows near here: e^709.78 is the largest double
        raise ValueError(f"P_{top}^({alpha:g}, {beta:g})(1) = exp({log_top:.0f}) is beyond the "
                         "double range, where the recurrence behind the zero overflows")
    ones = degrees.count(1)
    rest = degrees[ones:]
    one = (beta - alpha) / (alpha + beta + 2.0)
    while _jacobi_raw(alpha, beta, 1, math.nextafter(one, 2.0)) <= 0.0:
        one = math.nextafter(one, 2.0)
    out = [one] * ones
    if not rest:
        return out
    j = _start_bessel_zero(alpha)
    return out + [_certified(alpha, beta, n,
                             _newton(alpha, beta, n, _zero_start(alpha, beta, n, j)))
                  for n in rest]


def largest_zero(idx: JacobiIndex) -> ZeroResult:
    """Largest zero t_nn of P_n^(alpha,beta), n >= 1, as certified by largest_zeros.

    P_n has no zero in [t_nn, 1] and one in [t_nn - bracket_width, t_nn):
    bracket_width is one ulp.  It is 0 only at n = 1 when t_nn is the zero
    (beta-alpha)/(alpha+beta+2) itself, tested in exact integer arithmetic.
    """
    if idx.n < 1:
        raise ValueError("degree must be >= 1")
    t = largest_zeros(idx.alpha, idx.beta, [idx.n])[0]
    # t (alpha + beta + 2) == beta - alpha, for t = p/q, alpha = a/ad, beta = b/bd
    (p, q), (a, ad), (b, bd) = (float(v).as_integer_ratio() for v in (t, idx.alpha, idx.beta))
    exact = idx.n == 1 and p * (a * bd + b * ad + 2 * ad * bd) == q * (b * ad - a * bd)
    width = 0.0 if exact else t - math.nextafter(t, -math.inf)
    return ZeroResult(t_nn=t, theta_n1=math.acos(t), bracket_width=width)


# ---------------------------------------------------------------------------
# Gauss-Jacobi quadrature (Golub-Welsch on the symmetric tridiagonal matrix)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1024)  # sieve: a few rules of 8k nodes per family; other callers vary m
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
    (1+t)^beta factor is folded into the weights.  It is analytic on the
    tail for delta > -1; at delta = -1 and a non-integer beta it is singular
    at x = 1, and the rule converges only algebraically.  Weights therefore
    absorb the full weight function: sum_i w_i f(t_i) approximates the
    integral of f * omega.

    The error depends on how smooth f(1 - (1-delta) x) is on [0, 1], not on
    a polynomial degree of f.  For f = P_K^2 with delta >= t_KK this is a
    squared Bessel-like profile without a zero (Mehler-Heine), so one m
    (128 where the sieve's u-series cancels, at every K >= 1) reaches the
    floor set by rounding the nodes t near 1.

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


@lru_cache(maxsize=256)  # one per family for every zero solve
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
