"""Special-function substrate: values frozen from independent oracles.

Expected numbers marked "frozen" were computed from closed forms
(half-integer Bessel functions, Legendre polynomials, factorials) or from
reference library evaluations, independently of the code under test.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from capsieve import specfun
from capsieve.specfun import (
    JacobiIndex,
    _jacobi_raw,
    bessel_first_zero,
    bessel_j,
    beta_function,
    euler_rayleigh_bound,
    gauss_jacobi_rule,
    incomplete_beta,
    jacobi_at_one,
    jacobi_eval,
    jacobi_eval_rows,
    largest_zero,
    largest_zero_estimate,
    largest_zeros,
    log_gamma,
    tail_quadrature,
)
from reference import jacobi_derivative, jacobi_norm_sq, mehler_heine_residual

FAMILY_AB = [(0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (3.0, 1.0), (7.0, 3.0)]


# ---------------------------------------------------------------------------
# log-gamma / beta
# ---------------------------------------------------------------------------


def test_log_gamma_trivial_points():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)
    assert log_gamma(5.0) == pytest.approx(math.log(24.0), abs=1e-13)
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-13)


def test_log_gamma_against_stdlib():
    # log_gamma is math.lgamma behind an x > 0 check: pin that it stays the
    # C library's value on the positive axis (the mpmath test below checks
    # that value itself)
    for x in np.concatenate([np.linspace(0.5, 10, 77), np.linspace(10, 200, 97)]):
        assert abs(log_gamma(float(x)) - math.lgamma(float(x))) <= 1e-13 * max(
            1.0, abs(math.lgamma(float(x))))


def test_log_gamma_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    grid = np.concatenate([np.geomspace(0.01, 3e4, 120), np.linspace(0.5, 10, 77),
                           np.linspace(10, 200, 97)])
    with mpmath.workdps(40):
        for x in grid:
            want = float(mpmath.loggamma(mpmath.mpf(float(x))))
            assert abs(log_gamma(float(x)) - want) <= 2e-15 * max(1.0, abs(want))


def test_log_gamma_domain():
    with pytest.raises(ValueError):
        log_gamma(0.0)
    with pytest.raises(ValueError):
        log_gamma(-2.5)


def test_incomplete_beta_complete_case():
    for a, b in [(1.0, 1.0), (2.5, 0.5), (8.0, 4.0)]:
        assert incomplete_beta(1.0, a, b) == pytest.approx(beta_function(a, b), rel=1e-14)


def test_beta_function_against_mpmath():
    mpmath = pytest.importorskip("mpmath")
    pairs = [(0.5, 0.5), (1.0, 1.0), (1.5, 1.5), (1.5, 0.5), (2.0, 1.0), (3.0, 2.0),
             (4.0, 1.0), (5.0, 4.0), (8.0, 1.0), (9.0, 4.0), (11.0, 11.0),
             (20.0, 20.5), (21.0, 21.0), (40.0, 1.0), (40.0, 2.0), (41.0, 41.0)]
    with mpmath.workdps(40):
        for a, b in pairs:
            want = float(mpmath.beta(a, b))
            assert beta_function(a, b) == pytest.approx(want, rel=2e-15, abs=0.0)


def test_incomplete_beta_closed_forms():
    assert incomplete_beta(0.5, 1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    for x in (0.1, 0.37, 0.8):
        # antiderivative of (1-t): x - x^2/2
        assert incomplete_beta(x, 1.0, 2.0) == pytest.approx(x - x * x / 2.0, abs=1e-15)


def test_incomplete_beta_against_quadrature():
    # numpy's own Gauss-Legendre nodes as the independent integrator; integer
    # a keeps the integrand analytic on [0, x] so the oracle is trustworthy
    nodes, weights = np.polynomial.legendre.leggauss(200)
    for a, b in [(2.0, 2.5), (4.0, 0.5), (3.0, 3.0)]:
        for x in (0.2, 0.5, 0.9):
            t = 0.5 * x * (nodes + 1.0)
            val = 0.5 * x * np.dot(weights, t ** (a - 1) * (1 - t) ** (b - 1))
            assert incomplete_beta(x, a, b) == pytest.approx(val, rel=1e-12)


def test_incomplete_beta_reflection_identity():
    # the two branches are distinct series; their sum must give B(a, b)
    for a, b in [(1.5, 2.5), (0.75, 3.0), (4.0, 0.5), (7.5, 1.5)]:
        for x in (0.1, 0.4, 0.6, 0.93):
            total = incomplete_beta(x, a, b) + incomplete_beta(1.0 - x, b, a)
            assert total == pytest.approx(beta_function(a, b), rel=1e-13)


@given(st.floats(0.01, 0.99), st.floats(0.01, 0.99))
def test_incomplete_beta_monotone(x1, x2):
    a, b = 1.5, 2.0
    lo, hi = sorted((x1, x2))
    assert incomplete_beta(lo, a, b) <= incomplete_beta(hi, a, b) + 1e-15


def test_incomplete_beta_domain():
    with pytest.raises(ValueError):
        incomplete_beta(1.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        incomplete_beta(0.5, -1.0, 1.0)


# (alpha + 1, beta + 1) of s2, s3, rp2, cp4, hp8, cay16, s21, s40, s82, cp80
# and hp80; on s40 and up an alternating series cancels near the mean
SPACE_BETA_PAIRS = [(1.0, 1.0), (1.5, 1.5), (1.0, 1.0), (2.0, 1.0), (4.0, 2.0),
                    (8.0, 4.0), (10.5, 10.5), (20.0, 20.0), (41.0, 41.0),
                    (40.0, 1.0), (40.0, 2.0)]


def test_incomplete_beta_against_scipy():
    special = pytest.importorskip("scipy.special")
    for a, b in SPACE_BETA_PAIRS:
        mean = a / (a + b)
        # both branches: the direct series below the mean, the reflection above
        for x in (1e-6, 0.01, 0.2, 0.5 * mean, mean, 0.5 * (1.0 + mean), 0.9, 0.999):
            want = special.betainc(a, b, x) * special.beta(a, b)
            assert incomplete_beta(x, a, b) == pytest.approx(want, rel=1e-13, abs=0.0)


def test_weight_tail_asymptotics():
    # integral of the weight over [delta, 1] behaves like
    # 2^beta (1-delta)^(alpha+1) / (alpha+1) with a bounded scaled remainder
    for alpha, beta in FAMILY_AB:
        ratios = []
        for delta in (0.9, 0.99, 0.999):
            tail = 2.0 ** (alpha + beta + 1.0) * incomplete_beta(
                (1.0 - delta) / 2.0, alpha + 1.0, beta + 1.0)
            lead = 2.0 ** beta * (1.0 - delta) ** (alpha + 1.0) / (alpha + 1.0)
            ratios.append(abs(tail - lead) / (1.0 - delta) ** (alpha + 2.0))
        # fitted constant stable as delta -> 1
        assert max(ratios) <= 2.0 * min(ratios) + 1e-9


# ---------------------------------------------------------------------------
# Jacobi polynomials
# ---------------------------------------------------------------------------


def test_jacobi_low_degrees():
    assert jacobi_eval(JacobiIndex(0, 0, 0), 0.3) == 1.0
    assert jacobi_eval(JacobiIndex(0, 0, 1), 0.5) == pytest.approx(0.5, abs=1e-15)
    # P_2 of Legendre is (3t^2 - 1)/2, zero at 1/sqrt(3)
    assert jacobi_eval(JacobiIndex(0, 0, 2), 1.0 / math.sqrt(3.0)) == pytest.approx(
        0.0, abs=1e-15)
    # degree-1 closed form for general parameters
    assert jacobi_eval(JacobiIndex(1.5, 0.5, 1), 0.2) == pytest.approx(
        0.5 * (4.0 * 0.2 + 1.0), abs=1e-15)


def test_jacobi_at_one_values():
    assert jacobi_at_one(JacobiIndex(0, 0, 7)) == pytest.approx(1.0, rel=1e-14)
    assert jacobi_at_one(JacobiIndex(0.5, 0, 0)) == pytest.approx(1.0, rel=1e-14)
    assert jacobi_at_one(JacobiIndex(1, 0, 2)) == pytest.approx(3.0, rel=1e-13)


def test_jacobi_eval_matches_endpoint():
    for alpha, beta in FAMILY_AB:
        for n in (0, 1, 2, 5, 17, 40):
            idx = JacobiIndex(alpha, beta, n)
            assert jacobi_eval(idx, 1.0) == pytest.approx(jacobi_at_one(idx), rel=1e-12)


def test_jacobi_eval_rows_matches_jacobi_eval():
    # one pass over all rows gives each row's own recurrence bit for bit,
    # with repeated degrees and rows leaving the pass at different steps
    rng = np.random.default_rng(14)
    for alpha, beta in FAMILY_AB + [(80.0, 0.0)]:
        degrees = np.sort(rng.integers(1, 90, size=30))
        degrees[5:9] = degrees[4]
        degrees = np.sort(degrees)
        t = rng.uniform(-1.0, 1.0, size=(len(degrees), 33))
        rows = jacobi_eval_rows(alpha, beta, degrees, t)
        for n, ti, row in zip(degrees, t, rows):
            assert np.array_equal(row, jacobi_eval(JacobiIndex(alpha, beta, int(n)), ti))


def test_jacobi_eval_rows_domain():
    t = np.zeros((3, 4))
    for degrees in ([2, 1, 3], [0, 1, 2], [1, 2], [1, 2, 3, 4]):
        with pytest.raises(ValueError, match="nondecreasing"):
            jacobi_eval_rows(0.0, 0.0, degrees, t)
    with pytest.raises(ValueError, match="2-D"):
        jacobi_eval_rows(0.0, 0.0, [1, 2, 3], np.zeros(3))
    with pytest.raises(ValueError, match="outside"):
        jacobi_eval_rows(0.0, 0.0, [1, 2, 3], t + 1.5)


def test_jacobi_domain_error():
    with pytest.raises(ValueError):
        jacobi_eval(JacobiIndex(0, 0, 3), 1.1)
    # within tolerance is clamped, not rejected
    assert jacobi_eval(JacobiIndex(0, 0, 3), 1.0 + 1e-13) == pytest.approx(1.0)


@given(
    st.floats(-0.5, 3.0),
    st.floats(-0.5, 3.0),
    st.integers(0, 25),
    st.floats(-1.0, 1.0),
)
def test_jacobi_symmetry_property(alpha, beta, n, t):
    left = jacobi_eval(JacobiIndex(alpha, beta, n), -t)
    right = (-1.0) ** n * jacobi_eval(JacobiIndex(beta, alpha, n), t)
    scale = max(jacobi_at_one(JacobiIndex(alpha, beta, n)),
                jacobi_at_one(JacobiIndex(beta, alpha, n)))
    assert abs(left - right) <= 1e-10 * scale


def test_jacobi_symmetry_grid():
    grid = np.linspace(-1.0, 1.0, 101)
    for alpha, beta in FAMILY_AB:
        for n in range(0, 41):
            left = jacobi_eval(JacobiIndex(alpha, beta, n), -grid)
            right = (-1.0) ** n * jacobi_eval(JacobiIndex(beta, alpha, n), grid)
            scale = jacobi_at_one(JacobiIndex(alpha, beta, n))
            assert np.max(np.abs(left - right)) <= 1e-10 * scale


@given(
    st.floats(-0.5, 4.0),
    st.integers(0, 30),
    st.floats(-1.0, 1.0),
)
def test_jacobi_sup_bound_property(alpha, n, t):
    # |P_n| <= P_n(1) holds for alpha >= beta >= -1/2; use beta = alpha/2 - 0.25
    beta = max(-0.5, alpha / 2.0 - 0.25)
    idx = JacobiIndex(alpha, beta, n)
    assert abs(jacobi_eval(idx, t)) <= jacobi_at_one(idx) * (1.0 + 1e-12)


def test_jacobi_sup_bound_grid():
    grid = np.linspace(-1.0, 1.0, 101)
    for alpha, beta in FAMILY_AB:
        for n in range(0, 41):
            idx = JacobiIndex(alpha, beta, n)
            assert np.max(np.abs(jacobi_eval(idx, grid))) <= \
                jacobi_at_one(idx) * (1.0 + 1e-12)


def test_jacobi_derivative_low_degrees():
    assert jacobi_derivative(JacobiIndex(0.7, 0.1, 0), 0.2) == 0.0
    assert jacobi_derivative(JacobiIndex(0, 0, 1), 0.9) == pytest.approx(1.0, abs=1e-14)
    assert jacobi_derivative(JacobiIndex(0, 0, 2), 0.4) == pytest.approx(1.2, abs=1e-13)


def test_jacobi_derivative_vs_finite_differences():
    h = 1e-6
    ts = np.linspace(-0.95, 0.95, 21)
    for alpha, beta in FAMILY_AB:
        for n in range(1, 21):
            idx = JacobiIndex(alpha, beta, n)
            scale = (n + alpha + beta + 1.0) * jacobi_at_one(
                JacobiIndex(alpha + 1.0, beta + 1.0, n - 1))
            fd = (jacobi_eval(idx, ts + h) - jacobi_eval(idx, ts - h)) / (2 * h)
            err = np.max(np.abs(jacobi_derivative(idx, ts) - fd))
            assert err <= 1e-5 * scale


def test_jacobi_norm_sq_legendre():
    assert jacobi_norm_sq(JacobiIndex(0, 0, 0)) == pytest.approx(2.0, rel=1e-14)
    for k in (1, 3, 10):
        assert jacobi_norm_sq(JacobiIndex(0, 0, k)) == pytest.approx(
            2.0 / (2.0 * k + 1.0), rel=1e-13)
    # (0, -1/2), the family of P^2(R): the integral of (1+x)^(-1/2) is 2 sqrt(2)
    assert jacobi_norm_sq(JacobiIndex(0, -0.5, 0)) == pytest.approx(2.0 * math.sqrt(2.0),
                                                                    rel=1e-14)


def test_orthogonality_against_quadrature():
    # 48-node rule integrates P_n P_m omega exactly for n, m <= 20
    for alpha, beta in [(0.0, 0.0), (0.5, 0.5), (3.0, 1.0)]:
        rule = gauss_jacobi_rule(alpha, beta, 48)
        vals = [jacobi_eval(JacobiIndex(alpha, beta, n), rule.nodes)
                for n in range(21)]
        for n in range(21):
            for m in range(n, 21):
                got = float(np.dot(rule.weights, vals[n] * vals[m]))
                want = jacobi_norm_sq(JacobiIndex(alpha, beta, n)) if n == m else 0.0
                tol = 1e-10 * jacobi_norm_sq(JacobiIndex(alpha, beta, max(n, m)))
                assert abs(got - want) <= tol


# ---------------------------------------------------------------------------
# Largest zeros
# ---------------------------------------------------------------------------


def test_largest_zero_closed_forms():
    assert largest_zero(JacobiIndex(0, 0, 1)).t_nn == pytest.approx(0.0, abs=1e-14)
    assert largest_zero(JacobiIndex(0.5, 0.5, 1)).t_nn == pytest.approx(0.0, abs=1e-14)
    assert largest_zero(JacobiIndex(0, 0, 2)).t_nn == pytest.approx(
        1.0 / math.sqrt(3.0), abs=1e-14)
    # degree-1 zero is (beta - alpha)/(alpha + beta + 2) in general
    assert largest_zero(JacobiIndex(2.0, 0.5, 1)).t_nn == pytest.approx(
        -1.5 / 4.5, abs=1e-14)


def test_largest_zero_is_a_zero():
    for alpha, beta in FAMILY_AB:
        for n in (1, 2, 5, 12, 30):
            idx = JacobiIndex(alpha, beta, n)
            res = largest_zero(idx)
            # residual scales with the slope ~ 0.25 n^2 P_n(1) near the zero
            tol = max(1e-13, 1e-15 * n * n) * jacobi_at_one(idx)
            assert abs(jacobi_eval(idx, res.t_nn)) <= tol
            assert res.theta_n1 == pytest.approx(math.acos(res.t_nn), abs=1e-15)
            assert res.bracket_width <= 1e-14


def test_largest_zero_positive_above():
    for alpha, beta in FAMILY_AB:
        idx = JacobiIndex(alpha, beta, 8)
        t = largest_zero(idx).t_nn
        ts = np.linspace(t + 1e-6, 1.0, 50)
        assert np.all(jacobi_eval(idx, ts) > 0.0)


def test_largest_zero_euler_rayleigh_bound():
    for alpha, beta in FAMILY_AB:
        for n in range(1, 101):
            idx = JacobiIndex(alpha, beta, n)
            assert largest_zero(idx).t_nn <= euler_rayleigh_bound(idx) + 1e-15


def test_largest_zero_interlacing_order():
    for alpha, beta in [(0.0, 0.0), (3.0, 1.0)]:
        prev = -1.0
        for n in range(1, 30):
            t = largest_zero(JacobiIndex(alpha, beta, n)).t_nn
            assert t > prev
            prev = t


def test_largest_zero_asymptotics_bounded():
    for alpha, beta in FAMILY_AB:
        j1 = bessel_first_zero(alpha)
        scaled = []
        for n in (16, 32, 64, 128, 256):
            t = largest_zero(JacobiIndex(alpha, beta, n)).t_nn
            scaled.append(n ** 3 * abs(t - (1.0 - j1 * j1 / (2.0 * n * n))))
        assert max(scaled) < 1e4  # bounded, no growth with n
        assert max(scaled) <= 4.0 * min(scaled)


# (alpha, beta) of s2, rp2, s3, cp4, hp8, cay16, s21 and s82
SPACE_AB = [(0.0, 0.0), (0.0, 0.0), (0.5, 0.5), (1.0, 0.0), (3.0, 1.0),
            (7.0, 3.0), (9.5, 9.5), (40.0, 40.0)]


def _check_zero_bracket(idx, res):
    # t is the rounded midpoint of the final bracket, so t -+ w enclose it
    t, w = res.t_nn, res.bracket_width
    assert w <= 1e-15
    assert jacobi_eval(idx, t - w) <= 0.0 < jacobi_eval(idx, t + w)
    above = t + (1.0 - t) * np.geomspace(1e-8, 1.0, 64)
    assert np.all(jacobi_eval(idx, above) > 0.0)


def test_largest_zero_against_scipy():
    special = pytest.importorskip("scipy.special")
    for alpha, beta in dict.fromkeys(SPACE_AB):
        for n in (2, 3, 7, 20, 60, 150, 400, 1000, 2000):
            idx = JacobiIndex(alpha, beta, n)
            res = largest_zero(idx)
            want = special.roots_jacobi(n, alpha, beta)[0].max()
            assert abs(res.t_nn - want) <= 2e-15, (alpha, beta, n)
            _check_zero_bracket(idx, res)


def test_largest_zero_against_mpmath():
    # 40-digit Newton on the normalized polynomial
    # 2F1(-n, n+alpha+beta+1; alpha+1; (1-t)/2), started from our zero
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for alpha, beta in dict.fromkeys(SPACE_AB):
            for n in (1400, 2000):
                c = n + alpha + beta + 1

                def f(x):
                    return mpmath.hyp2f1(-n, c, alpha + 1, (1 - x) / 2)

                def df(x):
                    return n * c / (2 * (alpha + 1)) * mpmath.hyp2f1(
                        1 - n, c + 1, alpha + 2, (1 - x) / 2)

                res = largest_zero(JacobiIndex(alpha, beta, n))
                want = mpmath.findroot(f, mpmath.mpf(res.t_nn), solver="newton", df=df)
                assert abs(res.t_nn - float(want)) <= 2e-15, (alpha, beta, n)
                _check_zero_bracket(JacobiIndex(alpha, beta, n), res)


def _two_pass_largest_zero(alpha, beta, n):
    # reference: Newton's descent from the Euler-Rayleigh bound, each step
    # with a second recurrence for P_n' = (n+alpha+beta+1)/2 *
    # P_{n-1}^(alpha+1,beta+1), and bisection of the last bracket to 1e-15
    fac = 0.5 * (n + alpha + beta + 1.0)

    def f(x):
        return float(_jacobi_raw(alpha, beta, n, x))

    hi = euler_rayleigh_bound(JacobiIndex(alpha, beta, n))
    f_hi = f(hi)
    if f_hi <= 0.0:
        return hi
    while True:
        lo = hi - f_hi / (fac * float(_jacobi_raw(alpha + 1.0, beta + 1.0, n - 1, hi)))
        if not lo < hi:
            lo = math.nextafter(hi, -math.inf)
        f_lo = f(lo)
        if f_lo <= 0.0:
            break
        hi, f_hi = lo, f_lo
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# (alpha, beta) of s2, rp2, s3, cp4, hp8, cay16, s82 and s162
CERTIFIED_AB = [(0.0, 0.0), (0.0, -0.5), (0.5, 0.5), (1.0, 0.0), (3.0, 1.0), (7.0, 3.0),
                (40.0, 40.0), (80.0, 80.0)]


def _inline_coefficients(alpha, beta, k):
    # reference: (a_k, b_k, c_k) as each recurrence step computed them inline
    ab = alpha + beta
    tmp = 2.0 * k + ab
    den = 2.0 * (k + 1.0) * (k + ab + 1.0)
    return ((tmp + 1.0) * (tmp + 2.0) / den,
            (alpha * alpha - beta * beta) * (tmp + 1.0) / (den * tmp),
            (k + alpha) * (k + beta) * (tmp + 2.0) / (0.5 * den * tmp))


def test_recurrence_table_equals_the_inline_formula():
    # (1/3, -1/5) has inexact products, where another operation order moves bits
    for alpha, beta in CERTIFIED_AB + [(1.0 / 3.0, -0.2)]:
        table = list(zip(*specfun._recurrence(alpha, beta, 20001)))[:20000]
        assert table == [_inline_coefficients(alpha, beta, k) for k in range(1, 20001)], \
            (alpha, beta)


def test_recurrence_table_grows_geometrically_and_is_bounded(monkeypatch):
    monkeypatch.setattr(specfun, "_tables", {})
    seen = []
    for n in range(1, 3001):  # an ascending cold table asks for one more degree each time
        table = specfun._recurrence(0.25, 0.0, n)
        assert len(table[0]) >= n - 1
        if not seen or table is not seen[-1]:
            seen.append(table)
    assert [len(t[0]) for t in seen] == [64, 128, 256, 512, 1024, 2048, 4096]
    assert specfun._recurrence(0.25, 0.0, 10) is seen[-1]  # a smaller n rebuilds nothing
    for i in range(2 * specfun._TABLE_FAMILIES):
        specfun._recurrence(float(i), 0.0, 2)
        assert len(specfun._tables) == min(i + 2, specfun._TABLE_FAMILIES)
    assert (0.25, 0.0) not in specfun._tables  # the oldest family went first
    assert (2.0 * specfun._TABLE_FAMILIES - 1.0, 0.0) in specfun._tables


def test_sturm_count_matches_the_zeros_above():
    special = pytest.importorskip("scipy.special")
    rng = np.random.default_rng(7)
    for alpha, beta in CERTIFIED_AB:
        for n in (1, 2, 9, 40):
            roots = special.roots_jacobi(n, alpha, beta)[0]
            t = np.sort(np.concatenate([rng.uniform(-1.0, 1.0, 20), roots + 1e-9, roots - 1e-9]))
            want = [(roots >= x).sum() for x in t]
            assert [_jacobi_raw(alpha, beta, n, float(x), sturm=True) for x in t] == want


def _two_comparison_count(alpha, beta, n, t):
    """The Sturm pass that compares both P_k and P_{k-1} with 0 at every step."""
    a, b, c = specfun._recurrence(alpha, beta, n)
    pm, pc = 1.0, 0.5 * ((alpha + beta + 2.0) * t + (alpha - beta))
    changes = 1 * (pc < 0.0)
    for a_k, b_k, c_k in zip(a[:n - 1], b[:n - 1], c[:n - 1]):
        pm, pc = pc, (a_k * t + b_k) * pc - c_k * pm
        changes = changes + ((pc < 0.0) != (pm < 0.0))
    return changes + ((pc == 0.0) & (pm >= 0.0))


def test_sturm_pass_counts_as_the_two_comparison_body():
    # the pass carries the sign of P_{k-1} from the step before; at t = 0 and
    # alpha = beta every odd P_k is 0.0 exactly, so zero values are on the grid
    zero_values = 0
    for alpha, beta in CERTIFIED_AB:
        for n in (1, 2, 3, 7, 40, 201):
            roots = largest_zeros(alpha, beta, [n])
            t = [*np.linspace(-1.0, 1.0, 41), 0.0, math.nextafter(roots[0], -2.0), roots[0]]
            for x in map(float, t):
                want = _two_comparison_count(alpha, beta, n, x)
                assert _jacobi_raw(alpha, beta, n, x, sturm=True) == want, (alpha, beta, n, x)
                zero_values += _jacobi_raw(alpha, beta, n, x) == 0.0
    assert zero_values >= 10


def test_largest_zeros_carry_the_sturm_certificate():
    # P_n has no zero in [t, 1] and exactly one in [nextafter(t, -1), 1]
    for alpha, beta in CERTIFIED_AB:
        degrees = [*range(1, 201), 1400, 20000]
        zeros = largest_zeros(alpha, beta, degrees)
        assert zeros[0] == (beta - alpha) / (alpha + beta + 2.0)  # n = 1: closed form
        for n, t in zip(degrees[1:], zeros[1:]):
            below = math.nextafter(t, -math.inf)
            assert _jacobi_raw(alpha, beta, n, t, sturm=True) == 0, (alpha, beta, n)
            assert _jacobi_raw(alpha, beta, n, below, sturm=True) == 1, (alpha, beta, n)


@pytest.mark.parametrize("alpha,beta,n", [(0.5, 0.5, 2), (40.0, 40.0, 6), (40.0, 40.0, 68)])
def test_a_zero_that_rounds_to_zero_counts(alpha, beta, n):
    # P_n rounds to 0.0 one ulp below the certified zero; it counts as that zero
    t = largest_zero(JacobiIndex(alpha, beta, n)).t_nn
    below = math.nextafter(t, -math.inf)
    assert _jacobi_raw(alpha, beta, n, below) == 0.0
    assert _jacobi_raw(alpha, beta, n, below, sturm=True) == 1
    assert _jacobi_raw(alpha, beta, n, t, sturm=True) == 0


def test_largest_zero_matches_the_two_pass_newton():
    # the certified double lies within 2^-51 (4.4e-16) of the reference, which
    # is the midpoint of a bisection bracket of width at most 1e-15
    for alpha, beta in CERTIFIED_AB:
        for n in [*range(1, 121), 1400]:
            res = largest_zero(JacobiIndex(alpha, beta, n))
            assert abs(res.t_nn - _two_pass_largest_zero(alpha, beta, n)) <= 2.0 ** -51, \
                (alpha, beta, n)
            if n > 1:
                assert res.bracket_width == res.t_nn - math.nextafter(res.t_nn, -math.inf)
                assert _jacobi_raw(alpha, beta, n, res.t_nn, sturm=True) == 0
                assert _jacobi_raw(alpha, beta, n, res.t_nn - res.bracket_width, sturm=True) == 1


def test_largest_zeros_batch_equals_one_by_one():
    # a zero is the same double whether it is asked for alone or with others
    for alpha, beta in CERTIFIED_AB:
        degrees = [*range(1, 80), 300, 1000]
        one_by_one = [largest_zero(JacobiIndex(alpha, beta, n)).t_nn for n in degrees]
        assert largest_zeros(alpha, beta, degrees) == one_by_one
        assert largest_zeros(alpha, beta, degrees[::3]) == one_by_one[::3]


def test_largest_zeros_domain():
    assert largest_zeros(0.0, 0.0, []) == []
    for degrees in ([0, 1], [3, 2]):
        with pytest.raises(ValueError, match="nondecreasing"):
            largest_zeros(0.0, 0.0, degrees)
    with pytest.raises(ValueError, match="alpha"):
        largest_zeros(-0.7, 0.0, [2])
    # J_alpha leaves the double range: Newton starts at the Euler-Rayleigh bound
    idx = JacobiIndex(2500.0, 0.0, 5)
    assert largest_zero_estimate(idx) == euler_rayleigh_bound(idx)
    t = largest_zero(idx).t_nn
    assert _jacobi_raw(2500.0, 0.0, 5, t, sturm=True) == 0
    assert _jacobi_raw(2500.0, 0.0, 5, math.nextafter(t, -math.inf), sturm=True) == 1


def test_largest_zero_estimate_is_close_and_below_the_bound():
    # Gatteschi's estimate is asymptotic in n: its error relative to 1 - t_nn
    # is at most 0.1 at (80, 80) and n = 10, and 2.2e-6 there at n = 1000
    for alpha, beta in CERTIFIED_AB:
        errs = []
        for n in (1, 2, 10, 100, 1000):
            idx = JacobiIndex(alpha, beta, n)
            est, t = largest_zero_estimate(idx), largest_zero(idx).t_nn
            assert est <= euler_rayleigh_bound(idx)
            errs.append(abs(est - t) / (1.0 - t))
        assert max(errs[2:]) <= 0.11 and errs[-1] <= 1e-5, (alpha, beta, errs)


def test_ordering_lemma_random_points():
    rng = np.random.default_rng(31415)
    for alpha, beta in FAMILY_AB:
        K = 50
        t_kk = largest_zero(JacobiIndex(alpha, beta, K)).t_nn
        ts = t_kk + (1.0 - t_kk) * rng.random(50)
        prev = np.ones_like(ts)
        for k in range(1, K + 1):
            idx = JacobiIndex(alpha, beta, k)
            cur = jacobi_eval(idx, ts) / jacobi_at_one(idx)
            assert np.all(cur >= -1e-12)
            assert np.all(prev - cur >= -1e-12)
            prev = cur


# ---------------------------------------------------------------------------
# Quadrature rules
# ---------------------------------------------------------------------------


def test_gauss_legendre_small_rules():
    rule = gauss_jacobi_rule(0.0, 0.0, 1)
    assert rule.nodes[0] == pytest.approx(0.0, abs=1e-15)
    assert rule.weights[0] == pytest.approx(2.0, rel=1e-14)
    rule = gauss_jacobi_rule(0.0, 0.0, 2)
    assert np.allclose(rule.nodes, [-1 / math.sqrt(3), 1 / math.sqrt(3)], atol=1e-14)
    assert np.allclose(rule.weights, [1.0, 1.0], atol=1e-14)


def test_gauss_jacobi_zeroth_moment():
    for alpha, beta in [(0.0, 0.0), (0.5, 0.5), (3.0, 1.0), (7.0, 3.0), (-0.5, -0.5)]:
        for m in (1, 5, 40):
            rule = gauss_jacobi_rule(alpha, beta, m)
            want = 2.0 ** (alpha + beta + 1.0) * beta_function(alpha + 1.0, beta + 1.0)
            assert float(rule.weights.sum()) == pytest.approx(want, rel=1e-13)
            assert np.all(rule.weights > 0.0)
            assert np.all(np.diff(rule.nodes) > 0.0)
            assert np.all(np.abs(rule.nodes) < 1.0)


def test_gauss_jacobi_zeroth_moment_against_mpmath():
    # the weights sum to mu0 = 2^(a+b+1) B(a+1, b+1); exp of a log-gamma sum
    # was 1.6e-14 off at (20, 20)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        for alpha, beta in [(20.0, 20.0), (39.0, 0.0), (0.0, 80.0), (80.0, 80.0), (0.5, 0.5)]:
            want = float(2 ** mpmath.mpf(alpha + beta + 1) * mpmath.beta(alpha + 1, beta + 1))
            got = float(gauss_jacobi_rule(alpha, beta, 64).weights.sum())
            assert got == pytest.approx(want, rel=5e-15, abs=0.0), (alpha, beta)


def test_gauss_jacobi_against_numpy_leggauss():
    nodes, weights = np.polynomial.legendre.leggauss(17)
    rule = gauss_jacobi_rule(0.0, 0.0, 17)
    assert np.allclose(rule.nodes, nodes, atol=1e-13)
    assert np.allclose(rule.weights, weights, atol=1e-13)


def test_gauss_jacobi_exactness_degree():
    rule = gauss_jacobi_rule(1.0, 0.0, 6)
    assert rule.exactness_degree == 11
    # integrate t^7 against (1-t): moments of (1-t) t^j on (-1,1)
    got = float(np.dot(rule.weights, rule.nodes ** 7))
    want = -2.0 / 9.0  # int t^7 dt - int t^8 dt = 0 - 2/9
    assert got == pytest.approx(want, rel=1e-12)


def test_tail_quadrature_matches_incomplete_beta():
    for alpha, beta in FAMILY_AB:
        for delta in (-0.3, 0.2, 0.9, 0.999):
            rule = tail_quadrature(alpha, beta, delta, 60)
            want = 2.0 ** (alpha + beta + 1.0) * incomplete_beta(
                (1.0 - delta) / 2.0, alpha + 1.0, beta + 1.0)
            assert float(rule.weights.sum()) == pytest.approx(want, rel=1e-12)
            assert np.all(rule.nodes > delta) and np.all(rule.nodes < 1.0)
            assert np.all(np.diff(rule.nodes) > 0.0)


def test_tail_quadrature_rows_equal_single_rules():
    # a sequence of deltas maps the base rule once; each row is the one-delta rule
    rng = np.random.default_rng(31)
    for alpha, beta in FAMILY_AB + [(0.0, -0.5), (40.5, -0.5)]:
        deltas = list(rng.uniform(-1.0, 1.0, 9)) + [-1.0, 0.999999]
        rows = tail_quadrature(alpha, beta, deltas, 128)
        assert rows.nodes.shape == rows.weights.shape == (len(deltas), 128)
        assert not rows.nodes.flags.writeable and not rows.weights.flags.writeable
        for i, delta in enumerate(deltas):
            one = tail_quadrature(alpha, beta, float(delta), 128)
            assert np.array_equal(rows.nodes[i], one.nodes)
            assert np.array_equal(rows.weights[i], one.weights)
    for bad in ([0.2, 1.0], [-1.5], [math.nan]):
        with pytest.raises(ValueError, match=r"\[-1, 1\)"):
            tail_quadrature(0.0, 0.0, bad, 8)


def test_tail_quadrature_polynomial_exactness():
    # against numpy leggauss on the subinterval
    alpha, beta, delta = 0.5, 0.5, 0.4
    rule = tail_quadrature(alpha, beta, delta, 40)
    nodes, weights = np.polynomial.legendre.leggauss(400)
    t = delta + 0.5 * (1.0 - delta) * (nodes + 1.0)
    w = 0.5 * (1.0 - delta) * weights
    f = t ** 5 - 2 * t ** 2 + 1
    want = float(np.dot(w, f * (1 - t) ** alpha * (1 + t) ** beta))
    got = float(np.dot(rule.weights, rule.nodes ** 5 - 2 * rule.nodes ** 2 + 1))
    assert got == pytest.approx(want, rel=1e-11)


# ---------------------------------------------------------------------------
# Bessel
# ---------------------------------------------------------------------------


def test_bessel_trivial():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(1.0, 0.0) == 0.0
    assert bessel_j(2.5, 0.0) == 0.0


def test_bessel_half_integer_closed_forms():
    for z in (0.3, 1.0, 2.7, 9.5, 17.0, 30.0, 45.0):
        want = math.sqrt(2.0 / (math.pi * z)) * math.sin(z)
        assert bessel_j(0.5, z) == pytest.approx(want, abs=1e-12)
        want32 = math.sqrt(2.0 / (math.pi * z)) * (math.sin(z) / z - math.cos(z))
        assert bessel_j(1.5, z) == pytest.approx(want32, abs=1e-12)


def test_bessel_frozen_reference_values():
    # frozen from an independent reference implementation
    cases = [
        (0.0, 1.0, 0.7651976865579666),
        (0.0, 20.0, 0.16702466434058322),
        (0.0, 35.0, -0.12684568275631256),
        (0.0, 50.0, 0.0558123276692518),
        (3.5, 20.0, 0.02151781813134164),
        (7.0, 30.0, 0.14518518957232832),
        (10.0, 50.0, -0.11384784914946938),
    ]
    for alpha, z, want in cases:
        assert bessel_j(alpha, z) == pytest.approx(want, abs=1e-12)


def test_bessel_domain():
    # every order >= -1/2 and argument >= 0 is valid: z = 51 and order 41.5 are inputs
    assert abs(bessel_j(0.0, 51.0)) < 1.0
    assert bessel_first_zero(41.5) > 41.5
    for alpha, z in [(0.0, -1.0), (-0.6, 1.0), (math.nan, 1.0), (0.0, math.nan),
                     (math.inf, 1.0), (0.0, math.inf)]:
        with pytest.raises(ValueError):
            bessel_j(alpha, z)
    for alpha in (-0.6, math.nan, math.inf):
        with pytest.raises(ValueError):
            bessel_first_zero(alpha)


def test_bessel_argument_limit():
    # the recurrence takes O(z) steps, so z is capped at 1e5 (0.06 s)
    mpmath = pytest.importorskip("mpmath")
    assert abs(bessel_j(0.0, 1e5) - float(mpmath.besselj(0, 100000))) <= 1e-14
    assert mehler_heine_residual(JacobiIndex(0, 0, 50_000), 1e5) >= 0.0
    with pytest.raises(ValueError, match="exceeds 100000"):
        bessel_j(0.0, 2e5)
    with pytest.raises(ValueError, match="100000"):
        mehler_heine_residual(JacobiIndex(0, 0, 100_000), 2e5)


def test_bessel_high_orders_against_mpmath():
    # orders 10.5..41 reach A_infinity of every space with alpha <= 40
    import mpmath

    with mpmath.workdps(30):
        for alpha in np.arange(10.5, 41.01, 2.5):
            for z in np.linspace(0.5, 50.0, 34):
                want = float(mpmath.besselj(alpha, z))
                assert abs(bessel_j(float(alpha), float(z)) - want) <= 1e-14
        for alpha in (10.5, 20.0, 33.5, 41.0):
            want = float(mpmath.besseljzero(alpha, 1))
            assert bessel_first_zero(alpha) == pytest.approx(want, abs=1e-11)


def test_bessel_orders_41_to_80_against_mpmath():
    # A_infinity of s84 .. s162 and cp84 .. cp162 needs J_{alpha+1} near j_{alpha,1}
    import mpmath

    with mpmath.workdps(30):
        for alpha in np.arange(41.5, 80.01, 3.5):
            for z in np.linspace(0.5, 1.2 * alpha + 60.0, 25):
                want = float(mpmath.besselj(alpha, z))
                assert abs(bessel_j(float(alpha), float(z)) - want) <= 2e-14, (alpha, z)


def test_bessel_extreme_arguments():
    # the recurrence must start past z + O(sqrt z): z + sqrt z + 32 was 1e-9 off at z = 1000
    import mpmath

    with mpmath.workdps(30):
        for alpha in (0.0, 10.0):
            for z in (200.0, 1000.0, 3000.0):
                want = float(mpmath.besselj(alpha, z))
                assert abs(bessel_j(alpha, z) - want) <= 1e-15, (alpha, z)
    # at tiny z the coefficient 2(alpha+m)/z overflows; J_{1/2}(z) = sqrt(2z/pi) (1 + O(z^2))
    for z in (1e-300, 5e-324):
        assert bessel_j(0.5, z) == pytest.approx(math.sqrt(2.0 * z / math.pi), rel=1e-13)
        assert bessel_j(0.0, z) == 1.0
        assert bessel_j(3.0, z) == 0.0
    # near j_{1800,1} the Neumann sum outgrows f by e^550, so it is rescaled too
    with mpmath.workdps(30):
        assert abs(bessel_j(1800.0, 1830.0) - float(mpmath.besselj(1800, 1830))) <= 1e-12
        assert abs(mpmath.besselj(1800, bessel_first_zero(1800.0))) <= 1e-14
    # J_1000(1500) ~ 0.02, but its normaliser (750)^1000 / 1000! is e^708: no silent 0
    with pytest.raises(ValueError, match="beyond double precision"):
        bessel_j(1000.0, 1500.0)


def test_bessel_first_zero_against_mpmath():
    import mpmath

    with mpmath.workdps(30):
        for alpha in (0.0, 0.25, 1.0, 7.0, 19.5, 44.0, 80.0, 91.0, 150.0):
            want = float(mpmath.besseljzero(alpha, 1))
            assert bessel_first_zero(alpha) == pytest.approx(want, rel=1e-14), alpha
        # j_{-1/2,1} = pi/2: J_{-1/2}(z) = sqrt(2/(pi z)) cos z
        assert bessel_first_zero(-0.5) == pytest.approx(0.5 * math.pi, rel=1e-14)


def test_bessel_first_zero_values():
    assert bessel_first_zero(0.0) == pytest.approx(2.404825557695773, abs=1e-11)
    assert bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-11)
    assert bessel_first_zero(1.5) == pytest.approx(4.493409457909064, abs=1e-11)
    for alpha in (0.0, 0.5, 1.0, 3.0, 7.0, 10.0):
        j1 = bessel_first_zero(alpha)
        assert abs(bessel_j(alpha, j1)) <= 1e-12


def test_bessel_series_integral_branches_agree():
    # the two evaluation branches overlap nowhere, but a midpoint comparison
    # across the cut via the recurrence J_{a-1} + J_{a+1} = (2a/z) J_a ties them
    z_lo, z_hi = 17.5, 18.5
    for alpha in (1.0, 2.5, 6.0):
        for z in (z_lo, z_hi):
            lhs = bessel_j(alpha - 1.0, z) + bessel_j(alpha + 1.0, z)
            rhs = 2.0 * alpha / z * bessel_j(alpha, z)
            assert lhs == pytest.approx(rhs, abs=5e-13)


# ---------------------------------------------------------------------------
# Mehler-Heine
# ---------------------------------------------------------------------------


def test_mehler_heine_convergence_in_n():
    r32 = mehler_heine_residual(JacobiIndex(0, 0, 32), 1.0)
    r256 = mehler_heine_residual(JacobiIndex(0, 0, 256), 1.0)
    assert r256 < r32


def test_mehler_heine_alpha0_small_z():
    # for alpha = 0 the limit at z -> 0+ approaches |P_n(~1) - 1|, tiny
    assert mehler_heine_residual(JacobiIndex(0, 0, 50), 1e-3) <= 1e-5


def test_mehler_heine_domain():
    # t = 1 - z^2/(2 n^2) stays in [-1, 1] exactly for 0 < z <= 2n
    idx = JacobiIndex(0, 0, 8)
    assert mehler_heine_residual(idx, 16.0) >= 0.0
    for z in (0.0, 17.0):
        with pytest.raises(ValueError, match="2n"):
            mehler_heine_residual(idx, z)


def test_mehler_heine_empirical_rate():
    # first-order rate: residual roughly halves when n doubles
    res = [mehler_heine_residual(JacobiIndex(0, 0, n), 1.0) for n in (32, 64, 128, 256)]
    for r1, r2 in zip(res, res[1:]):
        assert r2 < r1
        assert 1.5 <= r1 / r2 <= 4.5
