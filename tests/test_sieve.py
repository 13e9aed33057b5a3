"""Bound engine: T2, A_K, the Bessel limit, measure bounds, L^p exponents."""

import json
import math

import numpy as np
import pytest

import capsieve as cs
from capsieve.region import MeasureSpec, measure_bound
from capsieve.sieve import a_constant, a_infinity, bound_report, constants_table, \
    lp_bound, nyquist_delta, t2_constant
from capsieve.specfun import _gauss_jacobi_cached


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
        K = 4 if sp.index_stride == 1 else 4
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
        for K in (sp.index_stride, 4 * sp.index_stride):
            t_kk = nyquist_delta(sp, K)
            direct = a_constant(sp, K)
            composed = cs.cap_measure(sp, t_kk) * t2_constant(sp, K, t_kk)
            assert direct == pytest.approx(composed, rel=1e-12)


def test_t2_tail_rule_against_mpmath():
    # 40-digit tail integral at the same delta: (P_K/P_K(1))^2 is the
    # terminating 2F1(-K, K+alpha+beta+1; alpha+1; (1-t)/2) squared, and
    # t = 1 - (1-delta) x turns the weight into x^alpha (2-(1-delta)x)^beta
    mpmath = pytest.importorskip("mpmath")
    for sid in ("s2", "s3", "cp4", "cay16", "s82"):
        sp = cs.space_from_id(sid)
        a, b = sp.alpha, sp.beta
        for K in (60, 400, 1400):
            delta = nyquist_delta(sp, K)
            with mpmath.workdps(40):
                w = 1 - mpmath.mpf(delta)

                def f(x):
                    return (mpmath.hyp2f1(-K, K + a + b + 1, a + 1, w * x / 2) ** 2
                            * x ** a * (2 - w * x) ** b)

                want = 1 / (sp.nu_perp * w ** (a + 1) * mpmath.quad(f, [0, 1]))
            assert t2_constant(sp, K, delta) == pytest.approx(float(want), rel=1e-11), \
                (sid, K)


def test_a_constant_at_least_one(family_spaces):
    for sp in family_spaces:
        for K in (sp.index_stride, 8 * sp.index_stride):
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
    # K < 32 has 2K+64 nodes, one rule each; K >= 32 shares one 128-node call
    from capsieve import sieve

    real, calls = sieve.tail_quadrature, []
    monkeypatch.setattr(sieve, "tail_quadrature",
                        lambda a, b, delta, m: calls.append((np.ndim(delta), m))
                        or real(a, b, delta, m))
    constants_table(s2, 60)
    assert calls == [(0, 2 * k + 64) for k in range(1, 32)] + [(1, 128)]


def test_constants_table_needs_a_positive_k(s2, rp2):
    for sp, k_max, smallest in ((s2, 0, 1), (s2, -3, 1), (rp2, 1, 2)):
        with pytest.raises(ValueError, match=f"smallest admissible K_max is {smallest}$"):
            constants_table(sp, k_max)
    assert [r["K"] for r in constants_table(rp2, 2)] == [2]


def test_gauss_jacobi_cache_holds_five_tables():
    # 2K+64 nodes for K <= 32 gives each family 32 rules, 160 for five
    spaces = [cs.space_from_id(sid) for sid in ("s2", "cp4", "hp8", "cay16", "s3")]
    for sp in spaces:
        constants_table(sp, 40)
    misses = _gauss_jacobi_cached.cache_info().misses
    for sp in spaces:
        constants_table(sp, 40)
    assert _gauss_jacobi_cached.cache_info().misses == misses


def test_a_infinity_beta_independent(s2, rp2):
    # the limit depends on alpha only: rp2 and s2 share alpha = 0
    assert a_infinity(rp2) == pytest.approx(a_infinity(s2), rel=1e-13)
    # s16 and cay16 share alpha = 7 but differ in beta
    assert a_infinity(cs.space_from_id("s16")) == pytest.approx(
        a_infinity(cs.space_from_id("cay16")), rel=1e-12)


def test_a_constant_converges_to_limit():
    for sid in ("s2", "s3", "cp4", "rp2"):
        sp = cs.space_from_id(sid)
        st = sp.index_stride
        rows = cs.limit_check(sp, [64 * st, 128 * st, 256 * st])
        gaps = [r[2] for r in rows]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] <= 0.02 * a_infinity(sp)


def test_lp_bound_shapes(s2):
    a4 = a_constant(s2, 4)
    rho = 0.05
    assert lp_bound(s2, 4, rho, 2.0) == pytest.approx(min(1.0, a4 * rho), rel=1e-13)
    assert lp_bound(s2, 4, rho, 50.0) == pytest.approx(
        lp_bound(s2, 4, rho, 2.0), rel=1e-13)
    assert lp_bound(s2, 4, 0.0, 1.5) == 0.0
    assert lp_bound(s2, 4, 1.0, 2.0) == 1.0  # clamped


def test_lp_bound_monotone_in_p(s2):
    rho = 0.02
    ps = [1.1, 1.3, 1.6, 1.9, 2.0, 3.0, 10.0]
    vals = [lp_bound(s2, 4, rho, p) for p in ps]
    for (p1, v1), (p2, v2) in zip(zip(ps, vals), zip(ps[1:], vals[1:])):
        if p2 <= 2.0:
            assert v2 <= v1 + 1e-15
        else:
            assert v2 == pytest.approx(vals[ps.index(2.0)], rel=1e-13)


def test_lp_bound_rejects_p1(s2):
    with pytest.raises(ValueError):
        lp_bound(s2, 4, 0.5, 1.0)
    with pytest.raises(ValueError):
        lp_bound(s2, 4, 0.5, 0.7)


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
    assert payload["quadrature_nodes"] == 2 * 6 + 64
    assert rep.p_exponent(1.5) == pytest.approx(0.5)
    assert rep.p_exponent(7.0) == 1.0
    json.dumps(payload)  # serializable


def test_bound_report_shares_the_tail_integral(monkeypatch, s2):
    from capsieve import sieve

    t_kk = nyquist_delta(s2, 6)
    want = {d: (t2_constant(s2, 6, d), a_constant(s2, 6)) for d in (t_kk, 0.99)}
    real, deltas = sieve.tail_quadrature, []
    monkeypatch.setattr(sieve, "tail_quadrature",
                        lambda a, b, delta, m: deltas.append(delta) or real(a, b, delta, m))
    for delta, rules in ((None, [t_kk]), (0.99, [t_kk, 0.99])):
        deltas.clear()
        rep = bound_report(s2, 6, delta)
        assert deltas == rules
        assert (rep.T2, rep.A_K) == want[rep.delta]
