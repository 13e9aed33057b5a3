"""Region geometry: membership, cap sampling, density estimation."""

import json
import math
import tracemalloc

import numpy as np
import pytest

import capsieve as cs
from capsieve import _backend, region
from capsieve.region import DensityEstimate, RegionSpec, max_nyquist_density
from capsieve.sieve import nyquist_delta
from reference import cap_contains, cap_fraction, s2_cap_fraction, sample_cap, sample_space


def _cap_region(space, center, delta):
    return RegionSpec(space=space, caps=((np.asarray(center, float), delta),))


def test_cap_contains_basics(s2, pole):
    assert cap_contains(s2, pole, 0.9, pole)
    # boundary is included
    assert cap_contains(s2, pole, 0.0, np.array([1.0, 0.0, 0.0]))
    assert not cap_contains(s2, pole, 0.1, np.array([1.0, 0.0, 0.0]))
    assert not cap_contains(s2, pole, 0.5, -pole)


def test_cap_contains_projective_antipodal(rp2, pole):
    assert cap_contains(rp2, pole, 0.9, -pole)
    x = np.array([math.sin(0.3), 0.0, math.cos(0.3)])
    assert cap_contains(rp2, pole, math.cos(0.3) - 1e-12, -x)


def test_region_membership_and_complement(s2, pole):
    reg = _cap_region(s2, pole, 0.5)
    pts = np.array([pole, [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    assert list(reg.contains(pts)) == [True, False, False]
    comp = RegionSpec(space=s2, caps=reg.caps, complement=True)
    assert list(comp.contains(pts)) == [False, True, True]


def test_region_normalizes_centers(s2):
    reg = RegionSpec(space=s2, caps=((np.array([0.0, 0.0, 5.0]), 0.5),))
    assert np.linalg.norm(reg.caps[0][0]) == pytest.approx(1.0, abs=1e-12)


def test_region_json_round_trip(tmp_path, s2):
    payload = {"space": "s2", "complement": False,
               "caps": [{"center": [0.0, 0.0, 2.0], "delta": 0.9},
                        {"center": [1.0, 0.0, 0.0], "delta": 0.5}]}
    path = tmp_path / "r.json"
    path.write_text(json.dumps(payload))
    reg = RegionSpec.from_json(str(path))
    assert reg.space.space_id == "s2"
    assert len(reg.caps) == 2
    assert np.linalg.norm(reg.caps[0][0]) == pytest.approx(1.0, abs=1e-12)
    back = reg.to_dict()
    assert back["space"] == "s2" and len(back["caps"]) == 2


def test_region_rejects_unsupported_space():
    cp4 = cs.space_from_id("cp4")
    with pytest.raises(ValueError):
        RegionSpec(space=cp4, caps=())


def test_sample_cap_inside(s2, rp2, pole):
    for sp, delta in ((s2, 0.3), (rp2, 0.4)):
        pts = sample_cap(sp, pole, delta, 2000, 11)
        assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-12)
        assert cap_contains(sp, pole, delta, pts).all()


def test_sample_cap_mean_hemisphere(s2, pole):
    # for the flat weight on [0, 1] the mean of <x, c> is 1/2
    pts = sample_cap(s2, pole, 0.0, 100_000, 123)
    tvals = pts @ pole
    se = tvals.std() / math.sqrt(len(tvals))
    assert abs(tvals.mean() - 0.5) <= 3.0 * se


def test_sample_cap_cdf_consistency(s2, rp2, pole):
    # empirical sub-cap fractions match cap measure ratios
    for sp, delta, dprime in ((s2, 0.0, 0.5), (rp2, 0.3, 0.6)):
        pts = sample_cap(sp, pole, delta, 50_000, 5)
        t = pts @ pole
        if sp.family.name == "REAL_PROJECTIVE":
            t = np.abs(t)
        frac = float((t >= dprime).mean())
        want = cs.cap_measure(sp, dprime) / cs.cap_measure(sp, delta)
        se = math.sqrt(want * (1 - want) / 50_000)
        assert abs(frac - want) <= 3.5 * se


def test_sample_cap_large_cap_reflection_branch(s2, pole):
    # delta < -0.1 pushes the CDF inversion through the reflected series
    pts = sample_cap(s2, pole, -0.9, 40_000, 31)
    t = pts @ pole
    assert float(t.min()) >= -0.9 - 1e-12
    want = cs.cap_measure(s2, 0.2) / cs.cap_measure(s2, -0.9)
    frac = float((t >= 0.2).mean())
    se = math.sqrt(want * (1 - want) / 40_000)
    assert abs(frac - want) <= 3.5 * se


def test_sample_cap_deterministic(s2, pole):
    a = sample_cap(s2, pole, 0.2, 500, 99)
    b = sample_cap(s2, pole, 0.2, 500, 99)
    assert np.array_equal(a, b)
    c = sample_cap(s2, pole, 0.2, 500, 100)
    assert not np.array_equal(a, c)


def test_sample_space_uniform_moments(s2):
    pts = sample_space(s2, 100_000, 17)
    # all coordinates mean ~ 0, squared coordinate mean ~ 1/3
    assert np.max(np.abs(pts.mean(axis=0))) <= 0.01
    assert np.allclose((pts ** 2).mean(axis=0), 1.0 / 3.0, atol=0.01)


def test_cap_fraction_trivial_cases(s2, pole):
    reg = _cap_region(s2, pole, 0.4)
    f, se = cap_fraction(reg, pole, 0.4, 4000, 3)
    assert f == 1.0 and se == 0.0
    comp = RegionSpec(space=s2, caps=reg.caps, complement=True)
    f, se = cap_fraction(comp, pole, 0.4, 4000, 3)
    assert f == 0.0


def test_cap_fraction_containment(s2, pole):
    # hemisphere through the pole contains a small polar cap entirely
    hemi = _cap_region(s2, pole, 0.0)
    f, se = cap_fraction(hemi, pole, 0.9, 4000, 21)
    assert f == 1.0


def _pole_test_centers(dim):
    e0 = np.eye(dim)[0]
    near = e0 + 1e-9 * np.eye(dim)[1]
    equator = np.r_[0.0, np.ones(dim - 1)] / math.sqrt(dim - 1)
    return np.array([e0, -e0, equator, near / np.linalg.norm(near),
                     -near / np.linalg.norm(near)])


@pytest.mark.parametrize("sid", ["s2", "s3", "rp2"])
def test_pole_to_is_an_isometry_onto_the_center(sid):
    space = cs.space_from_id(sid)
    dim = space.d + 1
    centers = _pole_test_centers(dim)
    q = region._pole_to(centers, np.eye(dim))  # q[k, i] = Q_c e_i
    for c, qc in zip(centers, q):
        np.testing.assert_allclose(qc[0], c, rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(qc.T @ qc, np.eye(dim), rtol=0.0, atol=1e-15)
    # the cosine distance to the center is the cosine distance to e_0
    pts = sample_cap(space, np.eye(dim)[0], 0.3, 200, 5)
    moved = region._pole_to(centers, pts)
    for c, m in zip(centers, moved):
        np.testing.assert_allclose(region.cos_distance(space, m, c),
                                   region.cos_distance(space, pts, np.eye(dim)[0]),
                                   rtol=0.0, atol=1e-15)


def _reference_fractions(reg, centers, pts):
    # the sample itself moved onto every centre, then tested by contains
    moved = region._pole_to(centers, pts)
    inside = reg.contains(moved.reshape(-1, pts.shape[1])).reshape(len(centers), -1)
    return np.count_nonzero(inside, axis=1) / pts.shape[0]


def _seeded_regions(space, seed):
    rng = np.random.default_rng(seed)
    dim = space.d + 1

    def caps(k):
        cs_ = rng.standard_normal((k, dim))
        return tuple((c, float(d)) for c, d in zip(cs_, rng.uniform(0.6, 0.9, k)))

    one, three = caps(1), caps(3)
    return [RegionSpec(space=space, caps=c, complement=comp)
            for c in ((), one, three) for comp in (False, True)]


def _scored_centers(space, seed):
    # random centres (about half with c_0 < 0), c_0 = 0 exactly, and +-e_0
    rng = np.random.default_rng(seed)
    dim = space.d + 1
    g = rng.standard_normal((40, dim))
    g[:8, 0] = 0.0
    e0 = np.eye(dim)[0]
    return np.vstack([g / np.linalg.norm(g, axis=1, keepdims=True), e0, -e0])


@pytest.mark.parametrize("sid", ["s2", "rp2", "s3"])
def test_fractions_match_the_moved_sample(sid):
    space = cs.space_from_id(sid)
    for seed in (1, 2, 3):
        centers = _scored_centers(space, seed)
        assert (centers[:, 0] < 0.0).any() and (centers[:, 0] == 0.0).any()
        # 300 points: several centres per chunk; 9000: one centre per chunk
        for n in (300, 9000):
            pts = region._pole_sample(space, 0.7, n, seed)
            for reg in _seeded_regions(space, seed):
                got = region._fractions(reg, centers, pts)
                assert np.array_equal(got, _reference_fractions(reg, centers, pts)), reg
                if reg.caps:
                    assert 0.0 < got.max() and got.min() < 1.0


def test_density_matches_the_moved_sample_reference(monkeypatch):
    cases = [(cs.space_from_id(sid), K) for sid, K in (("s2", 10), ("rp2", 8), ("s3", 6))]
    for seed in (4, 5, 6):
        for space, K in cases:
            reg = _seeded_regions(space, seed)[4]  # a union of three caps
            got = max_nyquist_density(reg, K, 200, seed, grid_size=256)
            with monkeypatch.context() as m:
                m.setattr(region, "_fractions", _reference_fractions)
                want = max_nyquist_density(reg, K, 200, seed, grid_size=256)
            assert got.rho == want.rho
            assert np.array_equal(got.argmax_center, want.argmax_center)
            assert got.n_centers == want.n_centers


def _boundary_cases(space, seed):
    """Regions and centres with a cap boundary near the geometric settlement's thresholds.

    The sample's farthest point sits at distance r from each centre c once
    moved there.  A cap centre c_i is placed on the geodesic through c and
    that point, on either side of c, at distance theta_i +- r + eta from c,
    so the farthest point lies eta inside or outside the cap.  The caps are
    ordinary, smaller than the sample (theta_i < r) and, on S^d, wider than
    a hemisphere (delta < 0).
    """
    dim = space.d + 1
    pts = region._pole_sample(space, nyquist_delta(space, 10 if space.d == 2 else 8), 200, seed)
    cos0 = region.cos_distance(space, pts, np.eye(dim)[0])
    far = int(np.argmin(cos0))
    r = math.acos(cos0[far])
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((3, dim))
    g[0, 0] = -abs(g[0, 0])
    other = (rng.standard_normal(dim), 0.8)
    wide = -0.3 if space.family is cs.Family.SPHERE else 0.1
    cases = [(RegionSpec(space=space, caps=(), complement=comp), g) for comp in (False, True)]
    for c in g / np.linalg.norm(g, axis=1, keepdims=True):
        q = region._pole_to(c[None], pts[far:far + 1])[0, 0]
        q = q if q @ c >= 0.0 else -q
        w = q - (q @ c) * c  # tangent at c towards q
        w /= np.linalg.norm(w)
        for delta in (0.8, 0.9999, wide):
            theta = math.acos(delta)
            for side in (-1.0, 1.0):
                for a in (theta + s * r + eta for s in (-1.0, 1.0)
                          for eta in (-1e-5, -1e-7, -1e-9, 1e-9, 1e-7, 1e-5)):
                    if not 0.0 <= a <= math.pi:
                        continue
                    ci = math.cos(a) * c + side * math.sin(a) * w
                    centers = np.array([c, -c, ci, -ci])
                    cases += [(RegionSpec(space=space, caps=caps, complement=comp), centers)
                              for caps, comp in ((((ci, delta),), False),
                                                 (((ci, delta),), True),
                                                 (((ci, delta), other), False))]
    return pts, cases


@pytest.mark.parametrize("sid", ["s2", "rp2", "s3"])
def test_settled_scores_match_the_moved_sample_at_the_boundaries(sid):
    space = cs.space_from_id(sid)
    for seed in (1, 2):
        pts, cases = _boundary_cases(space, seed)
        for reg, centers in cases:
            assert np.array_equal(region._fractions(reg, centers, pts),
                                  _reference_fractions(reg, centers, pts))


def test_descent_stops_at_a_full_score(s2):
    # the complement of two caps: a candidate already scores 1, so the
    # candidate set is the only score call
    reg = RegionSpec(space=s2, caps=((np.array([0.0, 0.0, 1.0]), 0.7),
                                     (np.array([1.0, 0.0, 0.0]), 0.7)), complement=True)
    delta = nyquist_delta(s2, 10)
    pts = region._pole_sample(s2, delta, 128, 1)
    calls = []

    def score(centers):
        calls.append(centers.shape[0])
        return region._fractions(reg, centers, pts)

    _, best = region._best_center(score, region.candidate_centers(s2, reg.cap_centers(), 256, 1),
                                  delta)
    assert best == 1.0
    assert len(calls) == 1


def test_density_counts_few_candidates(monkeypatch, s2):
    # a single S^2 cap smaller than the Nyquist cap: geometry settles all
    # but a few per cent of the candidate centres, which are never counted
    K = 10
    reg = _cap_region(s2, np.random.default_rng(5).standard_normal(3),
                      1.0 - 0.5 * (1.0 - nyquist_delta(s2, K)))
    counted = []
    count = region._counted_fractions

    def counting(reg, centers, pts):
        counted.append(centers.shape[0])
        return count(reg, centers, pts)

    monkeypatch.setattr(region, "_counted_fractions", counting)
    est = max_nyquist_density(reg, K, 128, 5)
    # the first call scores the candidate set
    assert counted[0] < 0.1 * est.n_centers


def test_pole_sample_size_is_capped():
    # rejected before anything is drawn: the sample would need about 560 MB
    for sid in ("s2", "s3"):
        space = cs.space_from_id(sid)
        limit = (1 << 24) // (space.d + 1)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"largest accepted n is {limit}"):
                region._pole_sample(space, 0.5, limit + 1, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


def test_density_inverts_the_cdf_once(monkeypatch, s2, rp2):
    calls = []
    invert = _backend.invert_beta_tail_cdf

    def counted(*args):
        calls.append(np.size(args[3]))
        return invert(*args)

    monkeypatch.setattr(_backend, "invert_beta_tail_cdf", counted)
    for sp, K in ((s2, 10), (rp2, 4)):
        reg = _cap_region(sp, [0.0, 0.6, 0.8], 0.9)
        calls.clear()
        max_nyquist_density(reg, K, 96, 2, grid_size=256)
        assert calls == [96]


def test_density_agrees_with_cap_fraction_at_the_argmax(s2, rp2):
    # every centre is scored on the same sample, so re-scoring the winner
    # with the same seed repeats its value (one point may flip by rounding)
    for sp, K in ((s2, 10), (rp2, 6)):
        t_kk = nyquist_delta(sp, K)
        rng = np.random.default_rng(40)
        caps = tuple((c / np.linalg.norm(c), 0.5 * (1.0 + t_kk))
                     for c in rng.standard_normal((3, 3)))
        reg = RegionSpec(space=sp, caps=caps)
        n = 777
        est = max_nyquist_density(reg, K, n, 19, grid_size=512)
        f, _ = cap_fraction(reg, est.argmax_center, t_kk, n, 19)
        assert 0.0 < est.rho < 1.0
        assert abs(f - est.rho) <= 1.0 / n


def test_density_full_space(s2, pole):
    full = RegionSpec(space=s2, caps=(), complement=True)
    est = max_nyquist_density(full, 5, 128, 1, grid_size=64)
    assert est.rho == 1.0
    assert est.std_error == 0.0


def test_density_single_aligned_cap(s2, pole):
    delta = nyquist_delta(s2, 10)
    reg = _cap_region(s2, pole, delta)
    est = max_nyquist_density(reg, 10, 512, 42, grid_size=512)
    assert est.rho == 1.0
    assert float(est.argmax_center @ pole) >= 1.0 - 1e-9


def test_density_smaller_cap_ratio(s2, pole):
    # region cap smaller than the Nyquist cap: density is the measure ratio
    K = 10
    t_kk = nyquist_delta(s2, K)
    dprime = 0.5 * (1.0 + t_kk)  # strictly inside
    reg = _cap_region(s2, pole, dprime)
    est = max_nyquist_density(reg, K, 4096, 7, grid_size=512)
    want = cs.cap_measure(s2, dprime) / cs.cap_measure(s2, t_kk)
    # the sup of Monte Carlo estimates is selection-biased upward by about
    # se * sqrt(2 ln n_centers); allow for it on the high side
    sel = math.sqrt(2.0 * math.log(est.n_centers)) * est.std_error
    assert est.rho >= want - 3.0 * est.std_error
    assert est.rho <= want + 3.0 * est.std_error + sel
    # every center within acos(t_KK) - acos(dprime) of the pole is optimal,
    # so check the value at argmax_center, not its position, on fresh points
    f, _ = s2_cap_fraction(reg, est.argmax_center, t_kk, 1_000_000, 8)
    assert f >= want - 2.0 * est.std_error


def test_density_bounds_and_average(s2):
    rng = np.random.default_rng(8)
    caps = tuple((c / np.linalg.norm(c), 0.93)
                 for c in rng.standard_normal((3, 3)))
    reg = RegionSpec(space=s2, caps=caps)
    est = max_nyquist_density(reg, 10, 1024, 3, grid_size=1024)
    assert 0.0 <= est.rho <= 1.0
    # sup >= average: rho must beat the global measure estimate
    pts = sample_space(s2, 20_000, 99)
    nu_omega = float(reg.contains(pts).mean())
    nu_se = math.sqrt(nu_omega * (1 - nu_omega) / 20_000)
    assert est.rho >= nu_omega - 3.0 * (est.std_error + nu_se)


def test_density_union_monotone(s2):
    rng = np.random.default_rng(12)
    c1, c2 = rng.standard_normal((2, 3))
    c1 /= np.linalg.norm(c1)
    c2 /= np.linalg.norm(c2)
    r1 = _cap_region(s2, c1, 0.95)
    r2 = _cap_region(s2, c2, 0.9)
    union = RegionSpec(space=s2, caps=r1.caps + r2.caps)
    K, n = 10, 1024
    e1 = max_nyquist_density(r1, K, n, 5, grid_size=1024)
    e2 = max_nyquist_density(r2, K, n, 5, grid_size=1024)
    eu = max_nyquist_density(union, K, n, 5, grid_size=1024)
    floor = max(e1.rho, e2.rho)
    comb = math.sqrt(eu.std_error ** 2 + max(e1.std_error, e2.std_error) ** 2)
    assert eu.rho >= floor - 3.0 * comb


def test_density_rotation_invariance(s2):
    rng = np.random.default_rng(77)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    caps = []
    for _ in range(2):
        c = rng.standard_normal(3)
        caps.append((c / np.linalg.norm(c), 0.92))
    reg = RegionSpec(space=s2, caps=tuple(caps))
    rot = RegionSpec(space=s2, caps=tuple((q @ c, d) for c, d in caps))
    K, n = 5, 2048
    e1 = max_nyquist_density(reg, K, n, 13, grid_size=2048)
    e2 = max_nyquist_density(rot, K, n, 13, grid_size=2048)
    comb = math.sqrt(e1.std_error ** 2 + e2.std_error ** 2)
    assert abs(e1.rho - e2.rho) <= 3.0 * comb + 0.01


def test_density_deterministic(s2, pole):
    reg = _cap_region(s2, pole, 0.9)
    e1 = max_nyquist_density(reg, 5, 256, 4242, grid_size=256)
    e2 = max_nyquist_density(reg, 5, 256, 4242, grid_size=256)
    assert e1.rho == e2.rho
    assert e1.std_error == e2.std_error
    assert np.array_equal(e1.argmax_center, e2.argmax_center)
    assert e1.to_dict() == e2.to_dict()


def test_density_index_set_checks(rp2, pole):
    reg = _cap_region(rp2, pole, 0.5)
    with pytest.raises(ValueError):
        max_nyquist_density(reg, 3, 128, 1)  # odd K not in the index set
    est = max_nyquist_density(reg, 4, 256, 1, grid_size=256)
    assert 0.0 <= est.rho <= 1.0


def test_density_estimate_fields(s2, pole):
    reg = _cap_region(s2, pole, 0.9)
    est = max_nyquist_density(reg, 5, 128, 9, grid_size=128)
    assert isinstance(est, DensityEstimate)
    assert est.n_samples == 128
    assert est.n_centers >= 128
    assert est.seed == 9
    d = est.to_dict()
    assert set(d) == {"rho", "argmax_center", "std_error", "n_samples",
                      "n_centers", "seed"}
