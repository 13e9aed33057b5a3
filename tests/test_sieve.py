"""Bound engine: T2, A_K, the Bessel limit, measure bounds."""

import json
import math
import time

import numpy as np
import pytest

import capsieve as cs
from capsieve.region import MeasureSpec, measure_bound
from capsieve.sieve import _tail_integral_sq, a_constant, a_infinity, bound_report, \
    constants_table, nyquist_delta, t2_constant
from capsieve import sieve
from capsieve.specfun import _gauss_jacobi_cached, jacobi_ratio_rows, tail_quadrature
from reference import rp_exact_constants


def test_t2_hemisphere_closed_form(s2):
    assert t2_constant(s2, 0, 0.0) == pytest.approx(2.0, abs=1e-12)


def test_t2_full_space_is_one(s2):
    assert t2_constant(s2, 0, -1.0) == pytest.approx(1.0, abs=1e-12)
    assert t2_constant(s2, 0, -1.0 + 1e-9) == pytest.approx(1.0, abs=1e-6)


def test_t2_k0_reciprocal_cap_measure(s2, rp2):
    for sp in (s2, rp2):
        for delta in (0.1, 0.5, 0.9):
            assert t2_constant(sp, 0, delta) == pytest.approx(
                1.0 / cs.cap_measure(sp, delta), rel=1e-12)
    # the whole space: at delta = -1 the factor (1+t)^beta of an odd sphere
    # is singular at the end of the tail rule
    for sid in ("s3", "s5", "s82", "s162"):
        sp = cs.space_from_id(sid)
        assert t2_constant(sp, 0, sp.t_min) == pytest.approx(
            1.0 / cs.cap_measure(sp, sp.t_min), rel=1e-13), sid


def test_t2_rejects_delta_below_zero_region(s2):
    t44 = nyquist_delta(s2, 4)
    with pytest.raises(ValueError):
        t2_constant(s2, 4, t44 - 1e-3)
    with pytest.raises(ValueError):
        t2_constant(s2, 4, 1.0)
    # at the zero itself it is accepted
    assert t2_constant(s2, 4, t44) > 1.0


def test_t2_monotone_in_delta(family_spaces):
    for sp in family_spaces:
        K = 4
        t_kk = nyquist_delta(sp, K)
        deltas = np.linspace(t_kk, 0.99999, 12)
        vals = [t2_constant(sp, K, float(d)) for d in deltas]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_t2_at_least_eigenspace_total(family_spaces):
    # T2(K, delta) >= sum of eigenspace dimensions up to K (= value of the
    # full-interval integral identity), in particular >= 1
    for sp in family_spaces:
        K = 4
        t_kk = nyquist_delta(sp, K)
        d_K = cs.eigenspace_info(sp, K).d_k
        assert t2_constant(sp, K, t_kk) >= d_K
        assert t2_constant(sp, K, t_kk) >= 1.0


def test_a_constant_identity(family_spaces):
    for sp in family_spaces:
        for K in (sp.band(1), sp.band(4)):
            t_kk = nyquist_delta(sp, K)
            direct = a_constant(sp, K)
            composed = cs.cap_measure(sp, t_kk) * t2_constant(sp, K, t_kk)
            assert direct == pytest.approx(composed, rel=1e-12)


def test_t2_tail_rule_against_mpmath():
    # 40-digit tail integral at the same delta: (P_K/P_K(1))^2 is the
    # terminating 2F1(-K, K+alpha+beta+1; alpha+1; (1-t)/2) squared, and
    # t = 1 - (1-delta) x turns the weight into x^alpha (2-(1-delta)x)^beta
    # s3's beta = 1/2 keeps (2 - w x)^beta from being a polynomial.  P^d(R)
    # is taken in t, as P_K^(alpha,alpha) on (0, 1) with nu = 4^-alpha / B(alpha+1, alpha+1)
    mpmath = pytest.importorskip("mpmath")
    for sid in ("s2", "rp2", "s3", "cp4", "cay16", "s82"):
        sp = cs.space_from_id(sid)
        rp = sp.family is cs.Family.REAL_PROJECTIVE
        a, b = sp.alpha, sp.alpha if rp else sp.beta
        small = (2, 8, 30) if rp else (1, 2, 7, 31)
        for K in (*small, 60, 400, 1400):
            delta = nyquist_delta(sp, K)
            with mpmath.workdps(40):
                w = 1 - mpmath.mpf(delta)
                nu = 4 ** -a / mpmath.beta(a + 1, a + 1) if rp else sp.nu_perp

                def f(x):
                    return (mpmath.hyp2f1(-K, K + a + b + 1, a + 1, w * x / 2) ** 2
                            * x ** a * (2 - w * x) ** b)

                want = 1 / (nu * w ** (a + 1) * mpmath.quad(f, [0, 1]))
            assert t2_constant(sp, K, delta) == pytest.approx(
                float(want), rel=1e-12 if K < 32 else 1e-11), (sid, K)


def _hyp2f1_constants(mpmath, sp, K, delta):
    """40-digit (T2, A_K) at delta from the terminating 2F1 of r_n in u = 1 - x.

    On P^d(R), u = 2 (1 - t)(1 + t) exactly and n = K/2.  The tail is
    u^(alpha+1) times the integral over [0, 1] of 2F1(-n, n+alpha+beta+1;
    alpha+1; u s/2)^2 s^alpha (2 - u s)^beta.
    """
    a, b, n = sp.alpha, sp.beta, sp.degree(K)
    with mpmath.workdps(40):
        t = mpmath.mpf(delta)
        u = 2 * (1 - t) * (1 + t) if sp.family is cs.Family.REAL_PROJECTIVE else 1 - t
        tail = u ** (a + 1) * mpmath.quad(
            lambda s: (mpmath.hyp2f1(-n, n + a + b + 1, a + 1, u * s / 2) ** 2
                       * s ** a * (2 - u * s) ** b), [0, 1])
        cap = 2 ** (a + b + 1) * mpmath.betainc(a + 1, b + 1, 0, u / 2)
        return 1 / (mpmath.mpf(sp.nu_perp) * tail), cap / tail


def test_series_tails_against_the_hyp2f1_reference():
    # every row of these families sums its series; the recurrence on 128
    # nodes read 1.7e-9 off on s2 and 2.8e-9 on s3 at K = 20000
    mpmath = pytest.importorskip("mpmath")
    t0 = time.perf_counter()
    for sid in ("s2", "rp2", "s3", "cp4", "hp8", "cay16"):
        sp = cs.space_from_id(sid)
        for K in (2, 60, 400, 2000, 20000):
            t_kk = nyquist_delta(sp, K)
            t2, a_k = _hyp2f1_constants(mpmath, sp, K, t_kk)
            assert abs(t2_constant(sp, K, t_kk) / t2 - 1) <= 1e-13, (sid, K)
            assert abs(a_constant(sp, K) / a_k - 1) <= 1e-13, (sid, K)
            assert bound_report(sp, K).quadrature_nodes <= 32, (sid, K)
    assert time.perf_counter() - t0 < 5.0


def test_cancelling_series_rows_are_no_worse_than_the_recurrence():
    # s82 (alpha = 40) and s162 (alpha = 80) sum the series only while its
    # rounding estimate stays below 7e-14: K <= 3 on s82, K <= 2 on s162.
    # Those rows read at most 1.8e-14 off 40 digits, against 4.0e-14 for the
    # recurrence; summing it at s82, K = 5 and 7 reads 3.6e-13 and 2.4e-12.
    # Every other row is the 128-node recurrence rule's, bit for bit; at
    # K <= 60 it reads up to 2.9e-13 off, and 7.6e-13 at K = 400
    mpmath = pytest.importorskip("mpmath")
    for sid, last_series in (("s82", 3), ("s162", 2)):
        sp = cs.space_from_id(sid)
        a, b = sp.alpha, sp.beta
        for K in (*range(2, 61), 400):
            t_kk = nyquist_delta(sp, K)
            got = t2_constant(sp, K, t_kk), a_constant(sp, K)
            if K > last_series:
                rule = tail_quadrature(a, b, t_kk, 128)
                vals = jacobi_ratio_rows(a, b, [K], rule.nodes[None])[0] ** 2
                tail = float(np.dot(rule.weights, vals))
                cap = sieve._cap_integral(sp, sp.gap(t_kk))
                assert got == (1.0 / (sp.nu_perp * tail), cap / tail), (sid, K)
                assert bound_report(sp, K).quadrature_nodes == 128
            if K <= 8 or K == 400:
                want = _hyp2f1_constants(mpmath, sp, K, t_kk)
                tol = 3e-14 if K <= last_series else 3e-13 if K <= 60 else 8e-13
                for value, ref in zip(got, want):
                    assert abs(value / ref - 1) <= tol, (sid, K)


def test_a_k_keeps_its_inverse_square_approach():
    # K^2 (A_K - A_inf) at K = 2000, 20000 and 200000.  The printed t_KK is
    # the double at or above the zero, so A_K at t_KK is low by about
    # (alpha+1) (t_KK - zero) / (1 - t_KK): 7.7e-7 at K = 200000 on s2.  A
    # 40-digit Newton step in u finds the zero and the cap ratio moves A_K
    # there; the tail does not move to first order, since r_K vanishes at the
    # zero.  With the 128-node recurrence this read -13353 on s2 and -39041
    # on cp4 at K = 200000
    mpmath = pytest.importorskip("mpmath")
    for sid in ("s2", "cp4"):  # -1.7873 and -27.657 at K = 2000
        sp = cs.space_from_id(sid)
        a, b, a_inf, scaled = sp.alpha, sp.beta, a_infinity(sp), []
        for K in (2000, 20000, 200000):
            with mpmath.workdps(40):
                u = 1 - mpmath.mpf(nyquist_delta(sp, K))
                zero, c = u, (a + b + K + 1) * -K / (2 * (a + 1))
                for _step in range(3):
                    zero -= (mpmath.hyp2f1(-K, K + a + b + 1, a + 1, zero / 2)
                             / (c * mpmath.hyp2f1(1 - K, K + a + b + 2, a + 2, zero / 2)))
                shift = mpmath.betainc(a + 1, b + 1, 0, zero / 2) / mpmath.betainc(
                    a + 1, b + 1, 0, u / 2)
            scaled.append(K * K * (a_constant(sp, K) * float(shift) - a_inf))
        assert scaled[1:] == pytest.approx([scaled[0]] * 2, rel=5e-3), (sid, scaled)


def test_rp_constants_against_the_exact_rational_reference():
    # T2 and A_K at the printed t_KK against exact rationals in t, apart from
    # the (alpha, -1/2) model in x; a cap integral taken through 1 - x instead
    # of (1 - t)(1 + t) reads up to 1.4e-13 off at K <= 60 and fails here
    t0 = time.perf_counter()
    cases = [(sid, K, 6e-14) for sid in ("rp2", "rp4", "rp6") for K in range(2, 61, 2)]
    for sid, K, tol in cases + [("rp2", 200, 5e-14)]:
        sp = cs.space_from_id(sid)
        t_kk = nyquist_delta(sp, K)
        t2, a_k = rp_exact_constants(int(sp.alpha), K, t_kk)
        assert abs(t2_constant(sp, K, t_kk) / t2 - 1) <= tol, (sid, K)
        assert abs(a_constant(sp, K) / a_k - 1) <= tol, (sid, K)
    assert time.perf_counter() - t0 < 5.0


def test_a_constant_at_least_one(family_spaces):
    for sp in family_spaces:
        for K in (sp.band(1), sp.band(8)):
            assert a_constant(sp, K) >= 1.0


def test_a_constant_preconditions(s2, rp2):
    with pytest.raises(ValueError):
        a_constant(s2, 0)
    with pytest.raises(ValueError):
        a_constant(rp2, 3)


def test_a_infinity_sphere_value(s2):
    # 1 / J_1(j_{0,1})^2, evaluated through the package's own Bessel ops
    j1 = cs.bessel_first_zero(0.0)
    want = 1.0 / cs.bessel_j(1.0, j1) ** 2
    assert a_infinity(s2) == pytest.approx(want, rel=1e-12)
    assert a_infinity(s2) == pytest.approx(3.710381, abs=5e-6)


def test_a_infinity_s3_closed_form():
    # alpha = 1/2: j = pi, J_{3/2}(pi)^2 = 2/pi^2, Gamma(3/2)^2 = pi/4
    # => (pi/2) / ((3/2) (pi/4) (2/pi^2)) = 2 pi^2 / 3
    s3 = cs.space_from_id("s3")
    assert a_infinity(s3) == pytest.approx(2.0 * math.pi ** 2 / 3.0, rel=1e-10)


def test_a_infinity_high_alpha_against_mpmath():
    import mpmath

    for sid in ("s21", "s40", "s60", "s82", "cp80", "hp80"):
        sp = cs.space_from_id(sid)
        a = sp.alpha
        with mpmath.workdps(30):
            j = mpmath.besseljzero(a, 1)
            want = float((j / 2) ** (2 * a) / ((a + 1) * mpmath.gamma(a + 1) ** 2
                                               * mpmath.besselj(a + 1, j) ** 2))
        assert a_infinity(sp) == pytest.approx(want, rel=1e-12)


def test_a_infinity_orders_44_to_80_against_mpmath():
    # beyond the old order limit of 41: s90 has alpha = 44, s162 and cp162 80
    import mpmath

    for sid in ("s90", "s122", "s162", "cp162"):
        sp = cs.space_from_id(sid)
        a = sp.alpha
        with mpmath.workdps(30):
            j = mpmath.besseljzero(a, 1)
            want = float((j / 2) ** (2 * a) / ((a + 1) * mpmath.gamma(a + 1) ** 2
                                               * mpmath.besselj(a + 1, j) ** 2))
        assert a_infinity(sp) == pytest.approx(want, rel=1e-12), sid


def test_tail_constants_stop_at_alpha_80():
    sp = cs.space_from_id("s164")
    with pytest.raises(ValueError, match="alpha=81"):
        a_constant(sp, 4)
    with pytest.raises(ValueError, match="alpha=81"):
        t2_constant(sp, 4, nyquist_delta(sp, 4))


def test_tail_integral_underflow_names_delta():
    # (1 - delta)^(alpha + 1) = 1e-4^81 is below the subnormals: the tail integral is 0
    sp = cs.space_from_id("s162")
    with pytest.raises(ValueError, match=r"delta=0\.9999 is too close to 1 for s162.*underflows"):
        t2_constant(sp, 40, 0.9999)
    with pytest.raises(ValueError, match="underflows"):
        bound_report(sp, 40, 0.9999)
    # constants_table's many-row path names the row that underflows
    with pytest.raises(ValueError, match=r"delta=0\.9999 .*underflows"):
        _tail_integral_sq(sp, [4, 40], [nyquist_delta(sp, 4), 0.9999])


@pytest.mark.parametrize("space_id", ["s2", "rp2", "s3", "cp4", "hp8", "cay16", "s82"])
def test_constants_table_rows_equal_single_constants(space_id):
    sp = cs.space_from_id(space_id)
    rows = constants_table(sp, 90)
    assert [r["K"] for r in rows] == list(sp.index_set(90))[1:]
    for r in rows:
        k = r["K"]
        assert r["t_KK"] == nyquist_delta(sp, k)
        assert r["T2"] == t2_constant(sp, k, r["t_KK"])
        assert r["A_K"] == a_constant(sp, k)


def test_constants_table_maps_the_full_tail_rules_at_once(monkeypatch, s2):
    # series rows map no 128-node rule; on s82 the rows whose series cancels
    # (K >= 4) share one call
    from capsieve import sieve

    real, calls = sieve.tail_quadrature, []
    monkeypatch.setattr(sieve, "tail_quadrature",
                        lambda a, b, delta, m: calls.append((len(delta), m))
                        or real(a, b, delta, m))
    constants_table(s2, 60)
    assert calls == []
    constants_table(cs.space_from_id("s82"), 60)
    assert calls == [(57, 128)]


def test_constants_table_needs_a_positive_k(s2, rp2):
    for sp, k_max, smallest in ((s2, 0, 1), (s2, -3, 1), (rp2, 1, 2)):
        with pytest.raises(ValueError, match=f"smallest admissible K_max is {smallest}$"):
            constants_table(sp, k_max)
    assert [r["K"] for r in constants_table(rp2, 2)] == [2]


def test_gauss_jacobi_cache_holds_five_tables():
    # a series row's rule has a multiple of 8 nodes, at most 32 on these
    # families at any K (cay16, J = 24 terms), so a family costs at most four
    # Golub-Welsch solves; at K <= 40 it is two or three
    spaces = [cs.space_from_id(sid) for sid in ("s2", "cp4", "hp8", "cay16", "s3")]
    _gauss_jacobi_cached.cache_clear()
    sieve._series_rule.cache_clear()
    for sp in spaces:
        constants_table(sp, 40)
    misses = _gauss_jacobi_cached.cache_info().misses
    assert misses == 2 + 2 + 3 + 3 + 2
    sieve._rows_cache.clear()
    for sp in spaces:
        constants_table(sp, 40)
    assert _gauss_jacobi_cached.cache_info().misses == misses
    a_constant(spaces[3], 2000)
    assert _gauss_jacobi_cached.cache_info().misses == misses + 1  # cay16's 32 nodes


def test_a_infinity_beta_independent(s2, rp2):
    # the limit depends on alpha only: rp2 and s2 share alpha = 0
    assert a_infinity(rp2) == pytest.approx(a_infinity(s2), rel=1e-13)
    # s16 and cay16 share alpha = 7 but differ in beta
    assert a_infinity(cs.space_from_id("s16")) == pytest.approx(
        a_infinity(cs.space_from_id("cay16")), rel=1e-12)


def test_a_constant_converges_to_limit():
    for sid in ("s2", "s3", "cp4", "rp2"):
        sp = cs.space_from_id(sid)
        rows = cs.limit_check(sp, [sp.band(n) for n in (64, 128, 256)])
        gaps = [r[2] for r in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.02 * a_infinity(sp)


def test_measure_bound_single_atom(s2, pole):
    mu = MeasureSpec(points=pole[None, :], weights=np.array([0.7]))
    K, delta = 4, nyquist_delta(s2, 4)
    got = measure_bound(s2, K, delta, mu)
    assert got == pytest.approx(t2_constant(s2, K, delta) * 0.7, rel=1e-12)


def test_measure_bound_antipodal_atoms(s2, pole):
    mu = MeasureSpec(points=np.array([pole, -pole]), weights=np.array([0.4, 0.4]))
    K = 4
    delta = 0.5 * (1.0 + nyquist_delta(s2, K))  # > 0: no cap holds both atoms
    got = measure_bound(s2, K, delta, mu)
    assert got == pytest.approx(t2_constant(s2, K, delta) * 0.4, rel=1e-12)


def test_measure_bound_rp_antipodal_identified(rp2, pole):
    # on the projective plane antipodal representatives are the same point
    mu = MeasureSpec(points=np.array([pole, -pole]), weights=np.array([0.4, 0.4]))
    K = 4
    delta = 0.5 * (1.0 + nyquist_delta(rp2, K))
    got = measure_bound(rp2, K, delta, mu)
    assert got == pytest.approx(t2_constant(rp2, K, delta) * 0.8, rel=1e-12)


def test_measure_bound_quadrature_atoms_match_a_constant(s2, pole):
    # nu restricted to a cap containing the Nyquist cap, realized by
    # quadrature atoms: the bound reproduces A_K = |C_tKK| T2 up to the
    # atomization error of the sup (cap boundaries crossing node rings)
    from capsieve.oracle import sphere_grid

    K = 4
    t_kk = nyquist_delta(s2, K)
    pts, wts = sphere_grid(48)
    inside = pts @ pole >= 0.5
    mu = MeasureSpec(points=pts[inside], weights=wts[inside])
    got = measure_bound(s2, K, t_kk, mu)
    # sup_y mu(C_tKK(y)) ~= |C_tKK| since the cap fits inside Omega
    want = a_constant(s2, K)
    assert got == pytest.approx(want, rel=0.08)


def _triangle(radius, rotation):
    az = 2.0 * math.pi * np.arange(3) / 3.0
    pts = np.column_stack([math.sin(radius) * np.cos(az), math.sin(radius) * np.sin(az),
                           np.full(3, math.cos(radius))])
    return MeasureSpec(points=pts @ rotation.T, weights=np.ones(3))


@pytest.mark.parametrize("offset, mass", [(-1e-4, 3.0), (1e-4, 2.0)])
def test_measure_bound_triangle(s2, offset, mass):
    # an equilateral triangle fits one Nyquist cap exactly when its
    # circumradius is below the cap radius; the grid-and-descent search
    # found 2 atoms below it in every orientation
    K = 10
    delta = nyquist_delta(s2, K)
    t2 = t2_constant(s2, K, delta)
    rng = np.random.default_rng(20)
    for _ in range(30):
        rotation, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        mu = _triangle(math.acos(delta) + offset, rotation)
        assert measure_bound(s2, K, delta, mu) / t2 == pytest.approx(mass, rel=1e-12)


def _pair_enumeration_mass(space, delta, mu):
    # O(n^3) reference: score every centre that puts two atoms (or on P^2(R)
    # an atom and an antipode) on the cap boundary, plus one centre on the
    # boundary circle of each atom
    pts, w = mu.points, mu.weights
    cands = []
    for x in pts:
        e = np.cross(x, [1.0, 0.0, 0.0] if abs(x[0]) < 0.9 else [0.0, 1.0, 0.0])
        cands.append(delta * x + math.sqrt(1.0 - delta * delta) * e / np.linalg.norm(e))
    signs = (1.0, -1.0) if space.family is cs.Family.REAL_PROJECTIVE else (1.0,)
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            for sign in signs:
                x, y = pts[i], sign * pts[j]
                g = float(x @ y)
                n = np.cross(x, y)
                gamma_sq = 1.0 - 2.0 * delta * delta / (1.0 + g) if g > -1.0 else -1.0
                if np.linalg.norm(n) < 1e-12 or gamma_sq < 0.0:
                    continue
                base = delta / (1.0 + g) * (x + y)
                step = math.sqrt(gamma_sq) * n / np.linalg.norm(n)
                cands += [base + step, base - step]
    dots = np.array(cands) @ pts.T
    if space.family is cs.Family.REAL_PROJECTIVE:
        dots = np.abs(dots)
    return float(((dots >= delta - 1e-12) @ w).max())


@pytest.mark.parametrize("space_id", ["s2", "rp2"])
def test_measure_bound_matches_pair_enumeration(space_id):
    space = cs.space_from_id(space_id)
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 17, 40):
        for K in (2, 6):
            t_kk = nyquist_delta(space, K)
            for delta in (t_kk, 0.5 * (1.0 + t_kk)):
                g = rng.standard_normal((n, 3))
                pts = g / np.linalg.norm(g, axis=1, keepdims=True)
                w = rng.uniform(0.1, 1.0, n) if n % 2 else np.ones(n)
                mu = MeasureSpec(points=pts, weights=w)
                got = measure_bound(space, K, delta, mu) / t2_constant(space, K, delta)
                want = _pair_enumeration_mass(space, delta, mu)
                assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("space_id", ["s3", "cp4"])
def test_measure_bound_exact_spaces_only(space_id):
    space = cs.space_from_id(space_id)
    mu = MeasureSpec(points=np.eye(space.d + 1)[:1], weights=np.ones(1))
    with pytest.raises(ValueError, match=r"S\^2 and P\^2\(R\)"):
        measure_bound(space, 2, nyquist_delta(space, 2), mu)


def test_measure_spec_validation():
    with pytest.raises(ValueError):
        MeasureSpec(points=np.array([[1.0, 0.0, 0.0]]), weights=np.array([-1.0]))
    with pytest.raises(ValueError):
        MeasureSpec(points=np.array([[2.0, 0.0, 0.0]]), weights=np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        MeasureSpec(points=np.array([[np.nan, 0.0, 1.0]]), weights=np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        MeasureSpec(points=np.array([[1.0, 0.0, 0.0]]), weights=np.array([np.nan]))


def test_bound_report_roundtrip(s2):
    rep = bound_report(s2, 6)
    payload = rep.to_dict()
    assert payload["space"] == "s2"
    assert payload["K"] == 6
    assert payload["T2"] == pytest.approx(
        t2_constant(s2, 6, nyquist_delta(s2, 6)), rel=1e-14)
    assert payload["A_K"] == pytest.approx(a_constant(s2, 6), rel=1e-14)
    assert payload["quadrature_nodes"] == 8  # J = 7 series terms
    json.dumps(payload)  # serializable
    # the rule behind the reported T2's tail: 128 nodes where the series
    # cancels, none for the closed form at K = 0
    s82 = cs.space_from_id("s82")
    assert [bound_report(s82, k).quadrature_nodes for k in (3, 4)] == [24, 128]
    assert bound_report(s2, 0, 0.5).quadrature_nodes == 0


def test_bound_report_shares_the_tail_integral(monkeypatch, s2):
    from capsieve import sieve

    # one tail at t_KK serves T2 and A_K and stays in the row cache; a delta
    # off t_KK adds one tail
    t_kk = nyquist_delta(s2, 6)
    want = {d: (t2_constant(s2, 6, d), a_constant(s2, 6)) for d in (t_kk, 0.99)}
    sieve._rows_cache.clear()
    real, tails = sieve._series_tail, []
    monkeypatch.setattr(sieve, "_series_tail",
                        lambda a, b, n, x: tails.append((n, x)) or real(a, b, n, x))
    for delta, computed in ((None, [(6, t_kk)]), (None, []), (0.99, [(6, 0.99)])):
        tails.clear()
        rep = bound_report(s2, 6, delta)
        assert tails == computed
        assert (rep.T2, rep.A_K) == want[rep.delta]
