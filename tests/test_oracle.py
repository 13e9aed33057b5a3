"""Verification oracles: extremal minimization, spectral operator, convolution."""

import math
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import numpy as np
import pytest

import capsieve as cs
from capsieve import oracle
from capsieve.oracle import (
    concentration_eigenvalue,
    convolution_check,
    extremal_bruteforce,
    limit_check,
    ordering_check,
    sphere_grid,
    sphere_harmonics,
)
from capsieve.region import RegionSpec
from capsieve.sieve import nyquist_delta, t2_constant
from capsieve.specfun import jacobi_eval
from reference import sphere_kernel


def _region(space, caps, complement=False):
    return RegionSpec(space=space, caps=caps, complement=complement)


# ---------------------------------------------------------------------------
# extremal oracle
# ---------------------------------------------------------------------------


def _assert_certified(res, want):
    """T2 inside the oracle's interval widened by 1e-12, with a gap of at most 1e-12."""
    assert res.converged
    assert res.T2_upper - res.T2_lower <= 1e-12 * res.T2_lower
    assert res.T2_lower * (1.0 - 1e-12) <= want <= res.T2_upper * (1.0 + 1e-12)


def test_extremal_k0_reciprocal_cap(s2):
    res = extremal_bruteforce(s2, 0, 0.3, grid_size=48)
    _assert_certified(res, 1.0 / cs.cap_measure(s2, 0.3))


def test_extremal_matches_t2(s2):
    for K in (2, 4):
        t_kk = nyquist_delta(s2, K)
        for delta in (t_kk, 0.5 * (1 + t_kk)):
            res = extremal_bruteforce(s2, K, delta)
            _assert_certified(res, t2_constant(s2, K, delta))


def test_extremal_profile_properties(s2):
    K = 4
    t_kk = nyquist_delta(s2, K)
    res = extremal_bruteforce(s2, K, t_kk)
    assert np.all(res.minimizer_profile >= 0.0)
    assert res.T2_upper >= 1.0
    # the winning vertex is the degree-K polynomial restricted to the cap
    rule = cs.tail_quadrature(s2.alpha, s2.beta, t_kk, res.grid_size)
    pk = jacobi_eval(cs.JacobiIndex(s2.alpha, s2.beta, K), rule.nodes)
    np.testing.assert_allclose(res.minimizer_profile, pk / np.linalg.norm(pk),
                               rtol=0.0, atol=1e-12)


def test_extremal_never_underestimates(s2):
    # the upper bound comes from a feasible profile, so it dominates T2
    for K, delta in ((2, 0.8), (4, 0.95)):
        res = extremal_bruteforce(s2, K, delta)
        assert res.T2_upper >= t2_constant(s2, K, delta) * (1.0 - 1e-12)


def test_extremal_rejects_bad_delta(s2):
    with pytest.raises(ValueError):
        extremal_bruteforce(s2, 4, 0.5)
    with pytest.raises(ValueError):
        extremal_bruteforce(s2, 4, nyquist_delta(s2, 4), grid_size=10)


def test_extremal_projective_index_set(rp2):
    K = 4
    t_kk = nyquist_delta(rp2, K)
    res = extremal_bruteforce(rp2, K, t_kk)
    _assert_certified(res, t2_constant(rp2, K, t_kk))


def test_extremal_does_not_use_the_closed_form(monkeypatch):
    import capsieve.sieve as sieve

    def forbidden(*args, **kwargs):
        raise AssertionError("the extremal oracle reached the closed form it checks")

    want = {}
    for sid in ("s2", "rp2", "cay16"):
        sp = cs.space_from_id(sid)
        want[sid] = t2_constant(sp, 4, nyquist_delta(sp, 4))
    monkeypatch.setattr(sieve, "_tail_integral_sq", forbidden)
    monkeypatch.setattr(sieve, "t2_constant", forbidden)
    for sid, t2 in want.items():
        sp = cs.space_from_id(sid)
        _assert_certified(extremal_bruteforce(sp, 4, nyquist_delta(sp, 4)), t2)


# ---------------------------------------------------------------------------
# sphere kernel and spectral oracle
# ---------------------------------------------------------------------------


def test_sphere_kernel_values():
    assert sphere_kernel(0, 0.37) == pytest.approx(1.0)
    for K in (1, 5, 12):
        assert sphere_kernel(K, 1.0) == pytest.approx((K + 1) ** 2, rel=1e-13)


def test_sphere_kernel_reproduces_constants(s2, pole):
    # integrating the kernel over the sphere returns one for every x
    pts, wts = sphere_grid(20)
    for K in (0, 3, 8):
        vals = sphere_kernel(K, pts @ pole)
        assert float(np.dot(wts, vals)) == pytest.approx(1.0, abs=1e-12)


def test_spectral_full_space(s2):
    full = _region(s2, (), complement=True)
    res = concentration_eigenvalue(full, 10, 28)
    assert res.lambda_max == pytest.approx(1.0, abs=1e-8)
    assert res.n_nodes == 28 * 56


def test_spectral_empty_region(s2):
    empty = _region(s2, ())
    res = concentration_eigenvalue(empty, 10, 28)
    assert res.lambda_max == 0.0
    assert res.shannon_number == 0.0


def _full_space_gram(K, n_theta):
    pts, wts = sphere_grid(n_theta)
    a = np.sqrt(wts)[:, None] * sphere_harmonics(K, pts)
    return a.T @ a


def test_spectral_matrix_symmetric_and_trace(s2):
    # full-space Gram matrix: symmetric, and its trace, the Shannon number,
    # is the dimension (K+1)^2 of the degree-<=K expansions
    gram = _full_space_gram(10, 28)
    assert float(np.max(np.abs(gram - gram.T))) <= 1e-14
    res = concentration_eigenvalue(_region(s2, (), complement=True), 10, 28)
    assert res.shannon_number == pytest.approx(121.0, rel=1e-12)


def test_spectral_eigenvalues_are_zero_or_one():
    # full-space operator: eigenvalues 1 with multiplicity (K+1)^2, rest 0,
    # i.e. the (K+1)^2 x (K+1)^2 Gram matrix is the identity
    for K, n_theta in ((3, 14), (10, 28)):
        gram = _full_space_gram(K, n_theta)
        assert gram.shape == ((K + 1) ** 2, (K + 1) ** 2)
        assert float(np.max(np.abs(gram - np.eye((K + 1) ** 2)))) <= 1e-12


def test_sphere_harmonics_factor_the_kernel():
    # A A^T / sqrt(w_i w_j) is the reproducing kernel k_K(<x_i, x_j>)
    rng = np.random.default_rng(11)
    g = rng.standard_normal((150, 3))
    x = g / np.linalg.norm(g, axis=1, keepdims=True)
    w = rng.uniform(0.1, 1.0, 150)
    for K in (0, 1, 4, 9):
        a = np.sqrt(w)[:, None] * sphere_harmonics(K, x)
        got = (a @ a.T) / np.sqrt(np.outer(w, w))
        want = sphere_kernel(K, np.clip(x @ x.T, -1.0, 1.0))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13 * (K + 1) ** 2)


def _seeded_regions(s2, seed, K, n_theta):
    """A single cap, a union of three, a complement of two, and a cap on one grid node."""
    rng = np.random.default_rng([seed, K])

    def unit():
        v = rng.standard_normal(3)
        return v / np.linalg.norm(v)

    node = sphere_grid(n_theta)[0][int(rng.integers(2 * n_theta * n_theta))]
    return [_region(s2, ((unit(), rng.uniform(0.8, 0.95)),)),
            _region(s2, tuple((unit(), rng.uniform(0.9, 0.97)) for _ in range(3))),
            _region(s2, tuple((unit(), rng.uniform(0.6, 0.8)) for _ in range(2)),
                    complement=True),
            _region(s2, ((node, 1.0 - 1e-9),))]


@pytest.mark.parametrize("K", [0, 1, 6, 8, 10])
def test_spectral_factors_match_the_harmonics(s2, K):
    # the gathered factors are sqrt(w) Y of the active nodes, and the small
    # side A A^T and the large side A^T A give the same top eigenvalue
    n_theta = 2 * K + 8
    pts, wts = sphere_grid(n_theta)
    f_pts, f_wts, leg, trig = oracle._grid_factors(K, n_theta)
    for arr in (f_pts, f_wts, leg, trig):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    for seed in (1, 2):
        for i, reg in enumerate(_seeded_regions(s2, seed, K, n_theta)):
            active = np.flatnonzero(reg.contains(pts))
            res = concentration_eigenvalue(reg, K, n_theta)
            assert res.region["n_active"] == active.size > 0
            assert (active.size == 1) == (i == 3)
            ring, az = np.divmod(active, 2 * n_theta)
            a = np.sqrt(f_wts[active])[:, None] * leg[ring] * trig[az]
            want = np.sqrt(wts[active])[:, None] * sphere_harmonics(K, pts[active])
            np.testing.assert_allclose(a, want, rtol=0, atol=1e-13)
            small = np.linalg.eigvalsh(a @ a.T)[-1]
            large = np.linalg.eigvalsh(a.T @ a)[-1]
            assert abs(small - large) <= 1e-13
            assert abs(res.lambda_max - large) <= 1e-13
            if i == 3:  # the addition theorem: |Y(x)|^2 = (K+1)^2
                assert res.lambda_max == pytest.approx(wts[active[0]] * (K + 1) ** 2,
                                                       rel=1e-13)


def test_spectral_factors_are_built_lazily():
    # a fresh process: nothing is built at import and scipy is not loaded;
    # the benchmark worker's warm-up call fills exactly one cache entry
    code = textwrap.dedent("""
        import sys
        import capsieve
        from capsieve import oracle
        print(oracle._grid_factors.cache_info().currsize, "scipy" in sys.modules)
        sys.path.insert(0, sys.argv[1])
        import worker
        worker._warm_up("spectral")
        print(oracle._grid_factors.cache_info().currsize, "scipy" in sys.modules)
    """)
    root = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, "-c", code, str(root / "perfbench")], env=env,
                         capture_output=True, text=True, timeout=120, check=True)
    assert out.stdout.split() == ["0", "False", "1", "False"]


def test_spectral_cap_region_between_zero_and_one(s2, pole):
    reg = _region(s2, ((pole, 0.7),))
    res = concentration_eigenvalue(reg, 6, 24)
    assert 0.0 < res.lambda_max < 1.0
    # concentration on a cap grows with the cap
    reg2 = _region(s2, ((pole, 0.3),))
    res2 = concentration_eigenvalue(reg2, 6, 24)
    assert res2.lambda_max > res.lambda_max


def test_spectral_requires_s2_and_resolution(s2, rp2, pole):
    with pytest.raises(ValueError):
        concentration_eigenvalue(_region(rp2, ((pole, 0.5),)), 4, 40)
    with pytest.raises(ValueError):
        concentration_eigenvalue(_region(s2, ((pole, 0.5),)), 10, 20)


def test_spectral_dominated_by_bound(s2, pole):
    # the central soundness inequality on one deterministic region
    K = 10
    reg = _region(s2, ((pole, 0.9), (np.array([1.0, 0.0, 0.0]), 0.97)))
    lam = concentration_eigenvalue(reg, K, 2 * K + 8).lambda_max
    est = cs.max_nyquist_density(reg, K, 2048, 31, grid_size=2048)
    bound = cs.a_constant(s2, K) * (est.rho + 3.0 * est.std_error)
    assert lam <= bound


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------


def test_convolution_constants():
    assert convolution_check(0, [1.0], [1.0], 24) <= 1e-10


def test_convolution_unit_zonal_elements():
    # distinct-degree unit zonal elements: all product coefficients tiny
    # scale Legendre coefficients so each input is an L2-normalized Y_k
    k, m = 2, 4
    g = np.zeros(k + 1)
    g[k] = math.sqrt(2 * k + 1)
    h = np.zeros(m + 1)
    h[m] = math.sqrt(2 * m + 1)
    assert convolution_check(max(k, m), g, h, 32) <= 1e-8


def test_convolution_random_low_degree():
    rng = np.random.default_rng(2718)
    worst = 0.0
    for _ in range(4):
        g = rng.standard_normal(6)
        h = rng.standard_normal(6)
        worst = max(worst, convolution_check(5, g, h, 64))
    assert worst <= 1e-7


# ---------------------------------------------------------------------------
# ordering and limits
# ---------------------------------------------------------------------------


def test_ordering_check_families(family_spaces):
    for sp in family_spaces:
        assert ordering_check(sp, 50) == (0, 0)


def test_ordering_check_certifies_every_degree():
    # K = 1 counts (t_KK, 1], where t_KK is P_1's exact zero; the real
    # projective plane has even K only
    t0 = time.perf_counter()
    for sid in ("s2", "rp2", "s3", "cp4", "hp8", "cay16"):
        sp = cs.space_from_id(sid)
        for K in [*range(1, 61), 200, 1000]:
            if sp.in_index_set(K):
                assert ordering_check(sp, K) == (0, 0), (sid, K)
    assert time.perf_counter() - t0 < 5.0


def test_ordering_check_requires_positive_K(s2):
    with pytest.raises(ValueError):
        ordering_check(s2, 0)


def test_limit_check_rows(s2):
    rows = limit_check(s2, [64, 128, 256])
    assert [r[0] for r in rows] == [64, 128, 256]
    gaps = [r[2] for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))
    with pytest.raises(ValueError):
        limit_check(s2, [128, 64])
