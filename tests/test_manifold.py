"""Space catalog: parameters, eigenspaces, cap measures, zonal coefficients."""

import math

import numpy as np
import pytest

import capsieve as cs
from capsieve.manifold import Family, cap_measure, eigenspace_info, make_space, \
    space_from_id, zonal_coefficient
from capsieve.specfun import JacobiIndex, gauss_jacobi_rule, jacobi_at_one, \
    jacobi_eval, jacobi_norm_sq


def test_catalog_parameters():
    s2 = make_space(Family.SPHERE, 2)
    assert (s2.alpha, s2.beta) == (0.0, 0.0)
    assert s2.nu_perp == pytest.approx(0.5, rel=1e-14)
    assert s2.gamma_tag == "pi/L"
    assert s2.interval == (-1.0, 1.0)

    rp2 = make_space(Family.REAL_PROJECTIVE, 2)
    assert (rp2.alpha, rp2.beta) == (0.0, 0.0)
    assert rp2.index_stride == 2
    assert rp2.interval == (0.0, 1.0)
    assert rp2.nu_perp == pytest.approx(1.0, rel=1e-14)
    assert rp2.gamma_tag == "pi/2L"

    cay = make_space(Family.CAYLEY_PROJECTIVE, 16)
    assert (cay.sigma, cay.rho) == (8, 7)
    assert (cay.alpha, cay.beta) == (7.0, 3.0)

    cp4 = make_space(Family.COMPLEX_PROJECTIVE, 4)
    assert (cp4.alpha, cp4.beta) == (1.0, 0.0)
    hp8 = make_space(Family.QUATERNION_PROJECTIVE, 8)
    assert (hp8.alpha, hp8.beta) == (3.0, 1.0)

    s1 = make_space(Family.SPHERE, 1)
    assert (s1.alpha, s1.beta) == (-0.5, -0.5)
    assert s1.nu_perp == pytest.approx(1.0 / math.pi, rel=1e-13)


def test_alpha_beta_relations():
    for sid in ("s1", "s2", "s5", "rp2", "rp7", "cp4", "cp10", "hp8", "hp12", "cay16"):
        sp = space_from_id(sid)
        assert sp.alpha == (sp.d - 2) / 2.0
        assert sp.beta == (sp.rho - 1) / 2.0
        assert sp.alpha >= sp.beta >= -0.5
        assert sp.alpha + sp.beta >= -1.0


def test_admissibility_rejections():
    for family, d in [
        (Family.SPHERE, 0),
        (Family.REAL_PROJECTIVE, 1),
        (Family.COMPLEX_PROJECTIVE, 5),
        (Family.COMPLEX_PROJECTIVE, 2),
        (Family.QUATERNION_PROJECTIVE, 10),
        (Family.QUATERNION_PROJECTIVE, 4),
        (Family.CAYLEY_PROJECTIVE, 8),
    ]:
        with pytest.raises(ValueError):
            make_space(family, d)


def test_nu_perp_at_the_edge_of_double_range():
    mpmath = pytest.importorskip("mpmath")
    for sid in ("s1000", "s1018", "rp1018"):
        sp = space_from_id(sid)
        a = mpmath.mpf(sp.d - 2) / 2
        with mpmath.workdps(40):
            want = float(2 ** -(2 * a + 1) / mpmath.beta(a + 1, a + 1))
        if sp.family is Family.REAL_PROJECTIVE:
            want *= 2.0
        assert sp.nu_perp == pytest.approx(want, rel=5e-15), sid
    # from s1020 on B(alpha+1, beta+1) is subnormal: an 8e-12 error at s1030
    for sid in ("s1020", "rp1030", "s1100", "s2000"):
        with pytest.raises(ValueError, match=r"\(alpha=\d+\).*normal double range"):
            space_from_id(sid)


def test_space_id_round_trip():
    for sid in ("s2", "s3", "rp2", "cp4", "hp8", "cay16"):
        assert space_from_id(sid).space_id == sid
    with pytest.raises(ValueError):
        space_from_id("x9")
    with pytest.raises(ValueError):
        space_from_id("cp5")


def test_normalization_integral(family_spaces):
    # quadrature of the weight over the interval times nu_perp equals one
    for sp in family_spaces + [space_from_id("s1"), space_from_id("s3")]:
        rule = gauss_jacobi_rule(sp.alpha, sp.beta, 48)
        total = float(rule.weights.sum())
        if sp.family is Family.REAL_PROJECTIVE:
            total /= 2.0  # even weight, interval (0, 1)
        assert sp.nu_perp * total == pytest.approx(1.0, abs=1e-12)


def test_eigenspace_sphere_dimensions():
    s2 = space_from_id("s2")
    for k in range(0, 30):
        info = eigenspace_info(s2, k)
        assert info.d_k == 2 * k + 1
        assert not info.integrality_flag
        assert info.lambda_k == pytest.approx(-k * (k + 1.0))
    s3 = space_from_id("s3")
    assert eigenspace_info(s3, 1).d_k == 4
    # degree-k harmonics on S^3 have dimension (k+1)^2
    for k in (2, 5, 11):
        assert eigenspace_info(s3, k).d_k == (k + 1) ** 2


def test_eigenspace_known_special_values():
    # first nontrivial eigenspace of the Cayley plane has dimension 26
    cay = space_from_id("cay16")
    assert eigenspace_info(cay, 1).d_k == 26
    # complex projective plane: dimensions (k+1)^3
    cp4 = space_from_id("cp4")
    for k in (1, 2, 7):
        assert eigenspace_info(cp4, k).d_k == (k + 1) ** 3
    # circle: two dimensions per positive frequency
    s1 = space_from_id("s1")
    for k in (1, 2, 17):
        assert eigenspace_info(s1, k).d_k == 2


def test_eigenspace_index_set():
    rp2 = space_from_id("rp2")
    with pytest.raises(ValueError):
        eigenspace_info(rp2, 3)
    info = eigenspace_info(rp2, 2)
    assert info.d_k == 5  # even degree-2 harmonics on the sphere
    assert list(rp2.index_set(7)) == [0, 2, 4, 6]


def test_eigenspace_trivial_k0(family_spaces):
    for sp in family_spaces:
        info = eigenspace_info(sp, 0)
        assert info.d_k == 1 and info.lambda_k == 0.0 and info.D_k == 1.0


def test_integrality_flag_never_raised(family_spaces):
    for sp in family_spaces:
        for k in sp.index_set(100):
            assert not eigenspace_info(sp, k).integrality_flag


def test_addition_formula_identities(family_spaces):
    # D_k P_k(1) = d_k and D_k^2 nu_perp ||P_k||^2 = d_k
    for sp in family_spaces:
        projective = sp.family is Family.REAL_PROJECTIVE
        for k in sp.index_set(20):
            info = eigenspace_info(sp, k)
            idx = JacobiIndex(sp.alpha, sp.beta, k)
            pk1 = jacobi_at_one(idx)
            assert info.D_k * pk1 == pytest.approx(info.d_k_raw, rel=1e-9)
            nsq = jacobi_norm_sq(idx, projective=projective)
            assert info.D_k ** 2 * sp.nu_perp * nsq == pytest.approx(
                info.d_k_raw, rel=1e-9)
            # sqrt(d_k) = P_k(1) / (sqrt(nu_perp) ||P_k||)
            assert math.sqrt(info.d_k_raw) == pytest.approx(
                pk1 / math.sqrt(sp.nu_perp * nsq), rel=1e-10)


def test_cap_measure_closed_forms(s2):
    assert cap_measure(s2, -1.0) == pytest.approx(1.0, rel=1e-13)
    assert cap_measure(s2, 0.0) == pytest.approx(0.5, rel=1e-13)
    for delta in (-0.7, 0.1, 0.9):
        assert cap_measure(s2, delta) == pytest.approx((1.0 - delta) / 2.0, rel=1e-12)


def test_cap_measure_full_space_left_endpoint(family_spaces):
    for sp in family_spaces:
        assert cap_measure(sp, sp.t_min) == pytest.approx(1.0, rel=1e-12)


def test_cap_measure_monotone_and_rate(family_spaces):
    for sp in family_spaces:
        deltas = np.linspace(sp.t_min, 0.9999, 25)
        vals = [cap_measure(sp, float(d)) for d in deltas]
        assert all(b < a for a, b in zip(vals, vals[1:]))
        # scaled limit (1-delta)^-(alpha+1) * |C_delta| stays bounded
        scaled = [cap_measure(sp, d) / (1.0 - d) ** (sp.alpha + 1.0)
                  for d in (0.99, 0.999, 0.9999)]
        assert max(scaled) <= 2.0 * min(scaled)


def test_cap_measure_domain(s2, rp2):
    with pytest.raises(ValueError):
        cap_measure(s2, 1.0)
    with pytest.raises(ValueError):
        cap_measure(rp2, -0.5)


def test_zonal_coefficient_constants(family_spaces):
    for sp in family_spaces:
        got = zonal_coefficient(sp, 10, lambda t: np.ones_like(t), 0)
        assert got == pytest.approx(1.0, abs=1e-12)
        for k in sp.index_set(6):
            if k == 0:
                continue
            got = zonal_coefficient(sp, 10, lambda t: np.ones_like(t), k)
            assert abs(got) <= 1e-10


def test_zonal_coefficient_self(family_spaces):
    # the unit zonal basis element has coefficient one at its own index
    for sp in family_spaces:
        projective = sp.family is Family.REAL_PROJECTIVE
        for k in sp.index_set(8):
            idx = JacobiIndex(sp.alpha, sp.beta, k)
            nrm = math.sqrt(sp.nu_perp * jacobi_norm_sq(idx, projective=projective))

            def unit_zonal(t, idx=idx, nrm=nrm):
                return jacobi_eval(idx, t) / nrm

            got = zonal_coefficient(sp, 10, unit_zonal, k)
            assert got == pytest.approx(1.0, rel=1e-10)


def test_zonal_coefficient_cap_support(s2):
    # indicator of a cap: coefficient at k = 0 is cap measure (d_0 = 1)
    delta = 0.25
    got = zonal_coefficient(s2, 10, lambda t: np.ones_like(t), 0, support=delta)
    assert got == pytest.approx(cap_measure(s2, delta), rel=1e-12)


def test_spaceparams_immutable(s2):
    with pytest.raises(Exception):
        s2.alpha = 1.0
