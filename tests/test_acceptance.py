"""Acceptance suite: one test per criterion, at the stated tolerances.

Run `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion with its runtime.
"""

import math
import time

import numpy as np
import pytest

import capsieve as cs
from capsieve.oracle import (
    concentration_eigenvalue,
    convolution_check,
    extremal_bruteforce,
    ordering_check,
    sphere_grid,
    sphere_harmonics,
)
from capsieve.region import RegionSpec, max_nyquist_density
from capsieve.sieve import a_constant, a_infinity, nyquist_delta, t2_constant
from capsieve.specfun import (
    JacobiIndex,
    bessel_first_zero,
    bessel_j,
    euler_rayleigh_bound,
    largest_zero,
)
from reference import mehler_heine_residual

FAMILY_MIN_D = ("s1", "rp2", "cp4", "hp8", "cay16")
ALPHA_REPS = ("s2", "s3", "cp4", "hp8", "cay16")  # alpha = 0, 1/2, 1, 3, 7


def _report(num: int, name: str, ok: bool, detail: str, elapsed: float,
            budget: float) -> None:
    status = "PASS" if ok and elapsed <= budget else "FAIL"
    print(f"[{status}] criterion {num}: {name} ({detail}; {elapsed:.3f}s "
          f"of {budget:g}s budget)")
    assert ok, f"criterion {num} failed: {detail}"
    assert elapsed <= budget, f"criterion {num} exceeded runtime budget"


def test_criterion_1_closed_form_hemisphere(s2):
    t2_constant(s2, 0, 0.0)  # warm caches; the criterion times the evaluation
    t0 = time.perf_counter()
    val = t2_constant(s2, 0, 0.0)
    elapsed = time.perf_counter() - t0
    err = abs(val - 2.0)
    _report(1, "closed form T2(S^2, K=0, delta=0) = 2", err <= 1e-12,
            f"err={err:.2e}", elapsed, 1e-3)


def test_criterion_2_oracle_equivalence():
    # T2 must lie in the oracle's certified interval, widened by 1e-12, and
    # the interval must be closed to a relative gap of 1e-12
    t0 = time.perf_counter()
    worst_gap, worst_out, n_cases = 0.0, -math.inf, 0
    for sid in ("s2", "s3", "rp2", "cp4", "hp8", "cay16"):
        sp = cs.space_from_id(sid)
        for K in (2, 4, 8, 30, 60):
            if not sp.in_index_set(K):
                continue
            t_kk = nyquist_delta(sp, K)
            for delta in (t_kk, 0.5 * (1.0 + t_kk)):
                res = extremal_bruteforce(sp, K, delta)
                want = t2_constant(sp, K, delta)
                lo, hi = res.T2_lower, res.T2_upper
                worst_gap = max(worst_gap, (hi - lo) / lo)
                worst_out = max(worst_out, (lo - want) / lo, (want - hi) / hi)
                n_cases += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap <= 1e-12 and worst_out <= 1e-12
    _report(2, "certified extremal oracle brackets T2",
            ok, f"{n_cases} cases, worst gap={worst_gap:.2e}, worst excursion="
            f"{worst_out:.2e}", elapsed, 120.0)


def _battery_regions(space):
    rng = np.random.default_rng(20250808)
    regions = []
    for i in range(20):
        caps = []
        for _ in range(1 + i % 4):
            c = rng.standard_normal(3)
            c /= np.linalg.norm(c)
            caps.append((c, float(rng.uniform(0.9, 0.998))))
        regions.append(RegionSpec(space=space, caps=tuple(caps),
                                  complement=bool(i % 7 == 3)))
    return regions


def test_criterion_3_soundness_battery(s2):
    t0 = time.perf_counter()
    worst_slack = math.inf
    n_fail = 0
    for i, region in enumerate(_battery_regions(s2)):
        for K in (5, 10, 20):
            est = max_nyquist_density(region, K, 512, 1000 + i)
            lam = concentration_eigenvalue(region, K, 2 * K + 8).lambda_max
            bound = a_constant(s2, K) * (est.rho + 3.0 * est.std_error)
            slack = bound - lam
            worst_slack = min(worst_slack, slack)
            if lam > bound:
                n_fail += 1
    elapsed = time.perf_counter() - t0
    _report(3, "lambda_2 <= A_K (rho + 3 se) on 20 regions x K in {5,10,20}",
            n_fail == 0, f"violations={n_fail}, min slack={worst_slack:.4f}",
            elapsed, 60.0)


def test_criterion_4_limit_convergence():
    t0 = time.perf_counter()
    ok = True
    details = []
    for sid in ("s2", "s3", "cp4"):
        sp = cs.space_from_id(sid)
        if sid == "s2":
            target = 1.0 / bessel_j(1.0, bessel_first_zero(0.0)) ** 2
        else:
            target = a_infinity(sp)
        gaps = [abs(a_constant(sp, K) - target) for K in (64, 128, 256, 512)]
        dec = all(b < a for a, b in zip(gaps, gaps[1:]))
        final = gaps[-1] / target
        ok = ok and dec and final <= 0.02
        details.append(f"{sid}: dec={dec}, final={final:.2e}")
    elapsed = time.perf_counter() - t0
    _report(4, "A_K converges to the Bessel limit", ok, "; ".join(details),
            elapsed, 30.0)


def test_criterion_5_ordering_property():
    t0 = time.perf_counter()
    counts = {sid: ordering_check(cs.space_from_id(sid), 50) for sid in FAMILY_MIN_D}
    elapsed = time.perf_counter() - t0
    _report(5, "normalized polynomials ordered on [t_KK, 1]",
            all(c == (0, 0) for c in counts.values()), f"zero counts={counts}", elapsed, 5.0)


def test_criterion_6_zero_asymptotics():
    t0 = time.perf_counter()
    ok = True
    details = []
    for sid in ALPHA_REPS:
        sp = cs.space_from_id(sid)
        idx = lambda n: JacobiIndex(sp.alpha, sp.beta, n)
        for n in range(1, 101):
            if largest_zero(idx(n)).t_nn > euler_rayleigh_bound(idx(n)) + 1e-15:
                ok = False
                details.append(f"{sid}: bound violated at n={n}")
        j1 = bessel_first_zero(sp.alpha)
        scaled = [n ** 3 * abs(largest_zero(idx(n)).t_nn
                               - (1.0 - j1 * j1 / (2.0 * n * n)))
                  for n in (32, 64, 128, 256)]
        factor = max(scaled) / min(scaled)
        ok = ok and factor < 4.0
        details.append(f"{sid}: factor={factor:.2f}")
    elapsed = time.perf_counter() - t0
    _report(6, "Euler-Rayleigh bound and scaled zero asymptotics", ok,
            "; ".join(details), elapsed, 10.0)


def test_criterion_7_mehler_heine():
    t0 = time.perf_counter()
    ok = True
    for sid in FAMILY_MIN_D:
        sp = cs.space_from_id(sid)
        for z in (0.5, 1.0, 2.0, bessel_first_zero(sp.alpha)):
            res = [mehler_heine_residual(JacobiIndex(sp.alpha, sp.beta, n), z)
                   for n in (32, 64, 128, 256)]
            ok = ok and all(b < a for a, b in zip(res, res[1:]))
    elapsed = time.perf_counter() - t0
    _report(7, "Mehler-Heine residual strictly decreasing in n", ok, "all pairs",
            elapsed, 5.0)


def test_criterion_8_convolution_theorem():
    t0 = time.perf_counter()
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(10):
        g = rng.standard_normal(6)
        h = rng.standard_normal(6)
        worst = max(worst, convolution_check(5, g, h, 64))
    elapsed = time.perf_counter() - t0
    _report(8, "convolution product rule on S^2", worst <= 1e-12,
            f"max error={worst:.2e}", elapsed, 60.0)


def test_criterion_9_spectral_sanity(s2):
    t0 = time.perf_counter()
    full = RegionSpec(space=s2, caps=(), complement=True)
    res = concentration_eigenvalue(full, 10, 28)
    top_err = abs(res.lambda_max - 1.0)
    trace_err = abs(res.shannon_number - 121.0) / 121.0
    # the full-space Gram matrix of the harmonics is the identity
    eye_err = 0.0
    for K in (3, 10, 20):
        pts, wts = sphere_grid(2 * K + 8)
        a = np.sqrt(wts)[:, None] * sphere_harmonics(K, pts)
        eye_err = max(eye_err, float(np.max(np.abs(a.T @ a - np.eye((K + 1) ** 2)))))
    ok = top_err <= 1e-6 and trace_err <= 1e-12 and eye_err <= 1e-12
    elapsed = time.perf_counter() - t0
    _report(9, "full-space operator: top eigenvalue 1, trace 121, Gram = I", ok,
            f"top err={top_err:.2e}, trace err={trace_err:.2e}, "
            f"Gram err={eye_err:.2e}", elapsed, 30.0)


def test_criterion_10_structural_checks():
    t0 = time.perf_counter()
    ok = True
    details = []
    for sid in FAMILY_MIN_D + ("s2", "s3", "rp3", "cp6", "hp12"):
        sp = cs.space_from_id(sid)
        flags = sum(cs.eigenspace_info(sp, k).integrality_flag
                    for k in sp.index_set(100))
        if flags:
            ok = False
            details.append(f"{sid}: {flags} integrality flags")
        # A_K identity at one representative K
        K = sp.band(4)
        t_kk = nyquist_delta(sp, K)
        a_k = a_constant(sp, K)
        ident = abs(a_k - cs.cap_measure(sp, t_kk) * t2_constant(sp, K, t_kk))
        if ident > 1e-12 * a_k:
            ok = False
            details.append(f"{sid}: A_K identity off by {ident:.2e}")
        # normalization of the invariant measure
        rule = cs.gauss_jacobi_rule(sp.alpha, sp.beta, 48)
        total = float(rule.weights.sum())
        if abs(sp.nu_perp * total - 1.0) > 1e-12:
            ok = False
            details.append(f"{sid}: normalization off")
    elapsed = time.perf_counter() - t0
    _report(10, "d_k integrality, A_K identity, measure normalization", ok,
            "; ".join(details) if details else "all clean", elapsed, 5.0)
