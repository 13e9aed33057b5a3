"""The cap sampler's CDF inversion in the numpy kernel module."""

import numpy as np
import pytest

from capsieve import _backend


def test_cdf_inversion_solves_equation():
    # quantiles must satisfy B_x(a,b) = u B_xmax(a,b); verify with the
    # package-independent regularized series from numpy quadrature
    nodes, weights = np.polynomial.legendre.leggauss(400)
    a, b, xmax = 2.0, 1.5, 0.3
    u = np.linspace(0.01, 0.99, 23)
    x = _backend.invert_beta_tail_cdf(a, b, xmax, u)

    def bx(z):
        t = 0.5 * z * (nodes + 1.0)
        return 0.5 * z * np.dot(weights, t ** (a - 1) * (1 - t) ** (b - 1))

    total = bx(xmax)
    got = np.array([bx(float(v)) for v in x]) / total
    np.testing.assert_allclose(got, u, atol=2e-10)


def test_cdf_inversion_bracket_tolerance():
    # returned x sits within 5e-13 of the exact quantile for a linear CDF
    u = np.linspace(0.0, 1.0, 101)
    x = _backend.invert_beta_tail_cdf(1.0, 1.0, 0.37, u)
    np.testing.assert_allclose(x, 0.37 * u, atol=5e-13)


def test_cdf_inversion_against_scipy():
    # s3 caps: density x^(1/2) (1-x)^(1/2), with x_max on both sides of the
    # mean.  At x_max = 1 the density vanishes at the top quantile, where
    # one ulp of B_x moves x by 1e-11 unless the complement is compared.
    special = pytest.importorskip("scipy.special")
    a = b = 1.5
    u = np.linspace(0.0, 1.0, 41)
    for xmax in (0.01, 0.3, 0.5, 0.6, 0.8, 0.99, 1.0):
        x = _backend.invert_beta_tail_cdf(a, b, xmax, u)
        want = special.betaincinv(a, b, u * special.betainc(a, b, xmax))
        np.testing.assert_allclose(x, want, rtol=0.0, atol=1e-12)


def test_cdf_inversion_high_dimension_against_mpmath():
    # s82 caps: density x^40 (1-x)^40.  An alternating incomplete-beta series
    # cancels here and misplaced quantiles by up to 0.51; the reference is a
    # 40-digit Newton solve, since betaincinv itself rounds near the top
    # (betainc(41, 41, 0.9) is 1 in double precision).
    mpmath = pytest.importorskip("mpmath")
    special = pytest.importorskip("scipy.special")
    a = b = 41.0
    u = np.linspace(0.0, 0.999, 13)
    with mpmath.workdps(40):
        for xmax in (0.01, 0.3, 0.5, 0.6, 0.9, 1.0):
            x = _backend.invert_beta_tail_cdf(a, b, xmax, u)
            total = mpmath.betainc(a, b, 0, xmax)
            for ui, xi in zip(u[1:], x[1:]):
                target = mpmath.mpf(float(ui)) * total
                z = mpmath.mpf(float(special.betaincinv(a, b, ui * special.betainc(a, b, xmax))))
                for _ in range(8):
                    z -= (mpmath.betainc(a, b, 0, z) - target) / (z ** (a - 1) * (1 - z) ** (b - 1))
                assert abs(float(z) - xi) <= 1e-12
            assert x[0] <= 1e-12
